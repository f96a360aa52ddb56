//! Distributed vectors — RAztec's `Epetra_Vector`.

use rcomm::Communicator;
use rsparse::DistVector;

use crate::map::Map;
use crate::{AztecError, AztecResult};

/// A map plus this rank's coefficients, held in the substrate's
/// [`DistVector`] on the map's own partition and rank — so an assembled
/// matrix multiplies a `Vector` where it lies, with no copy in or out.
#[derive(Debug, Clone, PartialEq)]
pub struct Vector {
    map: Map,
    /// Always on `map.partition()` at `map.my_rank()`.
    dist: DistVector,
}

impl Vector {
    /// Zero vector on a map.
    pub fn new(map: Map) -> Self {
        let dist = DistVector::zeros(map.partition().clone(), map.my_rank());
        Vector { map, dist }
    }

    /// Wrap local values (length must match the map).
    pub fn from_values(map: Map, values: Vec<f64>) -> AztecResult<Self> {
        if values.len() != map.num_my() {
            return Err(AztecError::MapMismatch(format!(
                "vector has {} local values, map owns {}",
                values.len(),
                map.num_my()
            )));
        }
        let dist = DistVector::from_local(map.partition().clone(), map.my_rank(), values)?;
        Ok(Vector { map, dist })
    }

    /// Take this rank's slice of a replicated global vector.
    pub fn from_global(map: Map, global: &[f64]) -> AztecResult<Self> {
        if global.len() != map.num_global() {
            return Err(AztecError::MapMismatch(format!(
                "global vector has {} entries, map describes {}",
                global.len(),
                map.num_global()
            )));
        }
        let dist = DistVector::from_global(map.partition().clone(), map.my_rank(), global)?;
        Ok(Vector { map, dist })
    }

    /// The map.
    pub fn map(&self) -> &Map {
        &self.map
    }

    /// Local coefficients.
    pub fn values(&self) -> &[f64] {
        self.dist.local()
    }

    /// Mutable local coefficients.
    pub fn values_mut(&mut self) -> &mut [f64] {
        self.dist.local_mut()
    }

    /// The coefficients as the substrate's vector (same layout as the map).
    pub(crate) fn dist(&self) -> &DistVector {
        &self.dist
    }

    /// Mutable [`Vector::dist`]; the length is fixed by the type.
    pub(crate) fn dist_mut(&mut self) -> &mut DistVector {
        &mut self.dist
    }

    /// Fill with a constant.
    pub fn put_scalar(&mut self, s: f64) {
        self.values_mut().iter_mut().for_each(|v| *v = s);
    }

    fn check(&self, other: &Vector) -> AztecResult<()> {
        if !self.map.same_as(other.map()) {
            return Err(AztecError::MapMismatch("vector maps differ".into()));
        }
        Ok(())
    }

    /// Global dot product. RAztec reduces its local part as **one block**
    /// whatever the length (`dense::dot`), where RKSP reduces in
    /// `DOT_BLOCK`-element blocks (`pdot`); the fused forms below keep that
    /// shape, so a solve's bits do not depend on which form a loop uses.
    pub fn dot(&self, other: &Vector, comm: &Communicator) -> AztecResult<f64> {
        self.check(other)?;
        let local = rsparse::dense::dot(self.values(), other.values());
        Ok(comm.allreduce(local, rcomm::sum)?)
    }

    /// Global 2-norm.
    pub fn norm2(&self, comm: &Communicator) -> AztecResult<f64> {
        Ok(self.dot(self, comm)?.sqrt())
    }

    /// self ← self + a·x.
    pub fn update(&mut self, a: f64, x: &Vector) -> AztecResult<()> {
        self.check(x)?;
        rsparse::dense::axpy(a, x.values(), self.values_mut());
        Ok(())
    }

    /// [`Vector::update`] then [`Vector::norm2`] in one pass over `self`:
    /// the same element updates, the same one-block sum, one allreduce.
    pub(crate) fn update_norm2(
        &mut self,
        a: f64,
        x: &Vector,
        comm: &Communicator,
    ) -> AztecResult<f64> {
        self.check(x)?;
        let local = rsparse::dense::axpy_dot_self(a, x.values(), self.values_mut());
        Ok(comm.allreduce(local, rcomm::sum)?.sqrt())
    }

    /// self ← (self + a·x) + b·z: `update(a, x)` then `update(b, z)` in one
    /// pass, the same two multiply-adds per element in the same order.
    pub(crate) fn update_pair(
        &mut self,
        a: f64,
        x: &Vector,
        b: f64,
        z: &Vector,
    ) -> AztecResult<()> {
        self.check(x)?;
        self.check(z)?;
        rsparse::dense::axpy2(a, x.values(), b, z.values(), self.values_mut());
        Ok(())
    }

    /// self ← a·x + b·self.
    pub fn update2(&mut self, a: f64, x: &Vector, b: f64) -> AztecResult<()> {
        self.check(x)?;
        for (si, xi) in self.values_mut().iter_mut().zip(x.values()) {
            *si = a * xi + b * *si;
        }
        Ok(())
    }

    /// self ← a·self.
    pub fn scale(&mut self, a: f64) {
        rsparse::dense::scale(a, self.values_mut());
    }

    /// Replicate the full vector on every rank.
    pub fn gather_all(&self, comm: &Communicator) -> AztecResult<Vec<f64>> {
        Ok(comm.allgatherv(self.values())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcomm::Universe;

    #[test]
    fn construction_and_blas_ops() {
        let out = Universe::run(2, |comm| {
            let map = Map::new(6, comm);
            let global: Vec<f64> = (0..6).map(|i| i as f64).collect();
            let x = Vector::from_global(map.clone(), &global).unwrap();
            let mut y = Vector::new(map.clone());
            y.put_scalar(1.0);
            y.update(2.0, &x).unwrap(); // y = 1 + 2i
            let d = y.dot(&x, comm).unwrap(); // Σ i(1+2i)
            let n = x.norm2(comm).unwrap();
            let full = y.gather_all(comm).unwrap();
            (d, n, full)
        });
        let expect_d: f64 = (0..6).map(|i| i as f64 * (1.0 + 2.0 * i as f64)).sum();
        let expect_n: f64 = (0..6).map(|i| (i * i) as f64).sum::<f64>().sqrt();
        for (d, n, full) in out {
            assert!((d - expect_d).abs() < 1e-12);
            assert!((n - expect_n).abs() < 1e-12);
            assert_eq!(full, vec![1.0, 3.0, 5.0, 7.0, 9.0, 11.0]);
        }
    }

    #[test]
    fn update2_and_scale() {
        let out = Universe::run(1, |comm| {
            let map = Map::new(3, comm);
            let x = Vector::from_values(map.clone(), vec![1.0, 2.0, 3.0]).unwrap();
            let mut y = Vector::from_values(map, vec![10.0, 10.0, 10.0]).unwrap();
            y.update2(2.0, &x, 0.5).unwrap(); // y = 2x + 0.5y
            y.scale(10.0);
            y.values().to_vec()
        });
        assert_eq!(out[0], vec![70.0, 90.0, 110.0]);
    }

    #[test]
    fn map_mismatches_are_rejected() {
        let out = Universe::run(1, |comm| {
            let m6 = Map::new(6, comm);
            let m4 = Map::new(4, comm);
            let a = Vector::new(m6.clone());
            let mut b = Vector::new(m4.clone());
            let r1 = b.update(1.0, &a).is_err();
            let r2 = a.dot(&b, comm).is_err();
            let r3 = Vector::from_values(m6.clone(), vec![0.0; 2]).is_err();
            let r4 = Vector::from_global(m4, &[0.0; 9]).is_err();
            r1 && r2 && r3 && r4
        });
        assert!(out[0]);
    }
}
