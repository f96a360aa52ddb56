//! Identity and point-Jacobi preconditioners.

use rcomm::Communicator;
use rsparse::dense::DiagonalScale;
use rsparse::DistVector;

use crate::pc::Preconditioner;
use crate::result::KspOutcome;

/// No preconditioning: z ← r.
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl Preconditioner for Identity {
    fn apply(&self, _comm: &Communicator, r: &DistVector, z: &mut DistVector) -> KspOutcome<()> {
        z.local_mut().copy_from_slice(r.local());
        Ok(())
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

/// Point Jacobi: z ← D⁻¹·r using this rank's slice of the diagonal, one
/// number when the slice is uniform ([`DiagonalScale`]).
#[derive(Debug, Clone)]
pub struct Jacobi {
    pub(super) scale: DiagonalScale,
}

impl Jacobi {
    /// Build from the local diagonal slice; rejects zero diagonal entries.
    pub fn new(diagonal_local: Vec<f64>) -> KspOutcome<Self> {
        Ok(Jacobi { scale: DiagonalScale::new(diagonal_local)? })
    }
}

impl Preconditioner for Jacobi {
    fn apply(&self, _comm: &Communicator, r: &DistVector, z: &mut DistVector) -> KspOutcome<()> {
        self.scale.apply(r.local(), z.local_mut());
        Ok(())
    }

    fn name(&self) -> &'static str {
        "jacobi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcomm::Universe;
    use rsparse::BlockRowPartition;

    #[test]
    fn identity_copies() {
        let out = Universe::run(1, |comm| {
            let part = BlockRowPartition::even(3, 1);
            let r = DistVector::from_local(part.clone(), 0, vec![1.0, -2.0, 3.0]).unwrap();
            let mut z = DistVector::zeros(part, 0);
            Identity.apply(comm, &r, &mut z).unwrap();
            z.local().to_vec()
        });
        assert_eq!(out[0], vec![1.0, -2.0, 3.0]);
    }

    #[test]
    fn jacobi_divides_by_diagonal() {
        let out = Universe::run(2, |comm| {
            let part = BlockRowPartition::even(4, 2);
            let pc = Jacobi::new(vec![2.0, 4.0]).unwrap();
            let r = DistVector::from_local(part.clone(), comm.rank(), vec![2.0, 8.0]).unwrap();
            let mut z = DistVector::zeros(part, comm.rank());
            pc.apply(comm, &r, &mut z).unwrap();
            z.local().to_vec()
        });
        for chunk in out {
            assert_eq!(chunk, vec![1.0, 2.0]);
        }
    }

    #[test]
    fn zero_diagonal_rejected() {
        assert!(Jacobi::new(vec![1.0, 0.0]).is_err());
    }
}
