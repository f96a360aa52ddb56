//! The operator abstraction: everything a Krylov method needs from "A".

use rcomm::Communicator;
use rsparse::{BlockRowPartition, CsrMatrix, DistCsrMatrix, DistVector};

use crate::result::{KspError, KspOutcome};

/// A linear operator y = A·x over block-row-distributed vectors.
///
/// Two implementations ship: [`MatOperator`] (assembled sparse matrix) and
/// [`ShellOperator`] (user callback — the matrix-free mode of paper §5.5).
/// Krylov methods only ever call [`LinearOperator::apply`]; preconditioner
/// construction additionally asks for the diagonal and the local diagonal
/// block, which matrix-free operators may decline to provide.
pub trait LinearOperator: Send + Sync {
    /// The row partition (also used for all conforming vectors).
    fn partition(&self) -> &BlockRowPartition;

    /// y ← A·x. Collective over `comm`.
    fn apply(&self, comm: &Communicator, x: &DistVector, y: &mut DistVector) -> KspOutcome<()>;

    /// The local slice of the main diagonal, if the operator can produce
    /// it (needed by Jacobi/SSOR/Chebyshev setup).
    fn diagonal_local(&self) -> Option<Vec<f64>> {
        None
    }

    /// The local square diagonal block in local numbering, if available
    /// (needed by ILU/IC block preconditioners).
    fn diagonal_block(&self) -> Option<CsrMatrix> {
        None
    }

    /// Batched apply: column `q` of `ys` ← A · column `q` of `xs`, for
    /// `k` right-hand sides stored as contiguous local columns (column
    /// `q` at `[q·local_rows .. (q+1)·local_rows]`). Collective.
    ///
    /// The default walks the columns through [`Self::apply`] one at a
    /// time (correct for any operator); [`MatOperator`] overrides it
    /// with the fused multi-vector SpMV, which amortizes one matrix
    /// sweep and one halo exchange across all `k` columns. Either way,
    /// column `q`'s result is bit-identical to a single `apply` of that
    /// column.
    fn apply_multi(
        &self,
        comm: &Communicator,
        xs: &[f64],
        ys: &mut [f64],
        k: usize,
    ) -> KspOutcome<()> {
        let n_local = self.partition().local_rows(comm.rank());
        let part = self.partition().clone();
        for q in 0..k {
            let x = DistVector::from_local(
                part.clone(),
                comm.rank(),
                xs[q * n_local..(q + 1) * n_local].to_vec(),
            )
            .map_err(KspError::Sparse)?;
            let mut y = DistVector::zeros(part.clone(), comm.rank());
            self.apply(comm, &x, &mut y)?;
            ys[q * n_local..(q + 1) * n_local].copy_from_slice(y.local());
        }
        Ok(())
    }

    /// Global problem size.
    fn global_order(&self) -> usize {
        self.partition().global_rows()
    }
}

/// An assembled distributed CSR matrix as an operator.
#[derive(Debug, Clone)]
pub struct MatOperator {
    matrix: DistCsrMatrix,
}

impl MatOperator {
    /// Wrap a distributed matrix.
    pub fn new(matrix: DistCsrMatrix) -> Self {
        MatOperator { matrix }
    }

    /// Borrow the underlying matrix.
    pub fn matrix(&self) -> &DistCsrMatrix {
        &self.matrix
    }

    /// Mutably borrow (for value updates with a fixed pattern).
    pub fn matrix_mut(&mut self) -> &mut DistCsrMatrix {
        &mut self.matrix
    }
}

impl LinearOperator for MatOperator {
    fn partition(&self) -> &BlockRowPartition {
        self.matrix.partition()
    }

    fn apply(&self, comm: &Communicator, x: &DistVector, y: &mut DistVector) -> KspOutcome<()> {
        self.matrix.matvec_into(comm, x, y)?;
        Ok(())
    }

    fn diagonal_local(&self) -> Option<Vec<f64>> {
        Some(self.matrix.diagonal_local())
    }

    fn diagonal_block(&self) -> Option<CsrMatrix> {
        Some(self.matrix.diagonal_block())
    }

    fn apply_multi(
        &self,
        comm: &Communicator,
        xs: &[f64],
        ys: &mut [f64],
        k: usize,
    ) -> KspOutcome<()> {
        self.matrix.matvec_multi_into(comm, xs, ys, k)?;
        Ok(())
    }
}

/// Signature of a matrix-free apply callback: `(comm, x, y)` computes
/// y ← A·x collectively.
pub type ApplyFn =
    dyn Fn(&Communicator, &DistVector, &mut DistVector) -> Result<(), String> + Send + Sync;

/// A matrix-free operator built from a user closure — RKSP's `MatShell`.
/// The application performs the matrix–vector product itself; the solver
/// never sees matrix entries (paper §5.5 / the LISI `MatrixFree` port).
pub struct ShellOperator {
    partition: BlockRowPartition,
    apply: Box<ApplyFn>,
    /// Optional user-supplied diagonal (enables Jacobi-type PCs even
    /// matrix-free, as PETSc allows via `MATOP_GET_DIAGONAL`).
    diagonal: Option<Vec<f64>>,
}

impl ShellOperator {
    /// Build from a partition and an apply callback.
    pub fn new(
        partition: BlockRowPartition,
        apply: impl Fn(&Communicator, &DistVector, &mut DistVector) -> Result<(), String>
            + Send
            + Sync
            + 'static,
    ) -> Self {
        ShellOperator { partition, apply: Box::new(apply), diagonal: None }
    }

    /// Also provide the local diagonal slice (unlocks Jacobi/Chebyshev).
    pub fn with_diagonal(mut self, diagonal_local: Vec<f64>) -> Self {
        self.diagonal = Some(diagonal_local);
        self
    }
}

impl std::fmt::Debug for ShellOperator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShellOperator")
            .field("global_order", &self.partition.global_rows())
            .field("has_diagonal", &self.diagonal.is_some())
            .finish()
    }
}

impl LinearOperator for ShellOperator {
    fn partition(&self) -> &BlockRowPartition {
        &self.partition
    }

    fn apply(&self, comm: &Communicator, x: &DistVector, y: &mut DistVector) -> KspOutcome<()> {
        // Matrix-backed operators are counted inside the distributed
        // matvec; shell applies never reach that layer, so count here.
        probe::incr(probe::Counter::MatvecCalls);
        (self.apply)(comm, x, y).map_err(KspError::Nonconforming)
    }

    fn diagonal_local(&self) -> Option<Vec<f64>> {
        self.diagonal.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcomm::Universe;
    use rsparse::generate;

    #[test]
    fn mat_operator_applies_like_matrix() {
        let n = 10;
        let a = generate::laplacian_1d(n);
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let expect = a.matvec(&x).unwrap();
        let out = Universe::run(2, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
            let op = MatOperator::new(da);
            let dx = DistVector::from_global(part.clone(), comm.rank(), &x).unwrap();
            let mut dy = DistVector::zeros(part, comm.rank());
            op.apply(comm, &dx, &mut dy).unwrap();
            assert!(op.diagonal_local().is_some());
            assert!(op.diagonal_block().is_some());
            dy.allgather_full(comm).unwrap()
        });
        for got in out {
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn diagonal_block_is_local_square_restriction() {
        let n = 9;
        let a = generate::laplacian_1d(n);
        let out = Universe::run(3, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let da = DistCsrMatrix::from_global(comm, part, &a).unwrap();
            let blk = da.diagonal_block();
            (blk.shape(), blk.get(0, 0), da.diagonal_local())
        });
        for (shape, d00, diag) in out {
            assert_eq!(shape, (3, 3));
            assert_eq!(d00, 2.0);
            assert_eq!(diag, vec![2.0, 2.0, 2.0]);
        }
    }

    #[test]
    fn shell_operator_runs_user_callback() {
        // A shell that scales by 3 — a trivial "stencil application".
        let n = 8;
        let out = Universe::run(2, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let shell = ShellOperator::new(part.clone(), |_, x, y| {
                for (yi, xi) in y.local_mut().iter_mut().zip(x.local()) {
                    *yi = 3.0 * xi;
                }
                Ok(())
            })
            .with_diagonal(vec![3.0; part.local_rows(comm.rank())]);
            let dx = DistVector::from_global(part.clone(), comm.rank(), &vec![2.0; n]).unwrap();
            let mut dy = DistVector::zeros(part, comm.rank());
            shell.apply(comm, &dx, &mut dy).unwrap();
            assert_eq!(shell.diagonal_local().unwrap(), vec![3.0; 4]);
            assert!(shell.diagonal_block().is_none());
            dy.local().to_vec()
        });
        for chunk in out {
            assert_eq!(chunk, vec![6.0; 4]);
        }
    }

    #[test]
    fn shell_errors_become_ksp_errors() {
        let out = Universe::run(1, |comm| {
            let part = BlockRowPartition::even(4, 1);
            let shell = ShellOperator::new(part.clone(), |_, _, _| Err("nope".into()));
            let dx = DistVector::zeros(part.clone(), 0);
            let mut dy = DistVector::zeros(part, 0);
            shell.apply(comm, &dx, &mut dy).unwrap_err()
        });
        assert!(matches!(&out[0], KspError::Nonconforming(m) if m == "nope"));
    }
}
