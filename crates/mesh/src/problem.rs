//! Convection–diffusion problem assembly, serial and block-row parallel.

use std::sync::Arc;

use rcomm::Communicator;
use rsparse::{BlockRowPartition, CooMatrix, CsrMatrix, SparseResult};

use crate::grid::Grid2d;

/// Scalar function of `(x, y)` used for right-hand sides and boundary data.
pub type ScalarField = Arc<dyn Fn(f64, f64) -> f64 + Send + Sync>;

/// A linear convection–diffusion problem on the unit square,
///
/// ```text
/// −(u_xx + u_yy) + bx·u_x + by·u_y = rhs(x, y),   u = boundary(x, y) on ∂Ω
/// ```
///
/// discretized with 5-point centered differences on an `m × m` interior
/// grid and scaled by `h²` (the convention that keeps the Poisson diagonal
/// at exactly 4, as in the paper's operator). The paper's test problem is
/// [`crate::paper_problem`].
#[derive(Clone)]
pub struct ConvectionDiffusion2d {
    grid: Grid2d,
    bx: f64,
    by: f64,
    rhs: ScalarField,
    boundary: ScalarField,
}

impl std::fmt::Debug for ConvectionDiffusion2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConvectionDiffusion2d")
            .field("m", &self.grid.m())
            .field("bx", &self.bx)
            .field("by", &self.by)
            .finish()
    }
}

/// One rank's share of an assembled system: its block of rows (columns
/// global) and the matching right-hand-side chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalSystem {
    /// This rank's rows with global column indices.
    pub matrix: CsrMatrix,
    /// This rank's slice of the right-hand side.
    pub rhs: Vec<f64>,
    /// The partition used.
    pub partition: BlockRowPartition,
    /// This rank's id within the partition.
    pub rank: usize,
}

impl ConvectionDiffusion2d {
    /// Pure Poisson problem (no convection, zero rhs, zero boundary) on an
    /// `m × m` interior grid.
    pub fn new(m: usize) -> Self {
        ConvectionDiffusion2d {
            grid: Grid2d::new(m),
            bx: 0.0,
            by: 0.0,
            rhs: Arc::new(|_, _| 0.0),
            boundary: Arc::new(|_, _| 0.0),
        }
    }

    /// Set convection coefficients `(bx, by)`.
    pub fn with_convection(mut self, bx: f64, by: f64) -> Self {
        self.bx = bx;
        self.by = by;
        self
    }

    /// Set the right-hand side field.
    pub fn with_rhs(mut self, rhs: impl Fn(f64, f64) -> f64 + Send + Sync + 'static) -> Self {
        self.rhs = Arc::new(rhs);
        self
    }

    /// Set Dirichlet boundary data.
    pub fn with_boundary(
        mut self,
        boundary: impl Fn(f64, f64) -> f64 + Send + Sync + 'static,
    ) -> Self {
        self.boundary = Arc::new(boundary);
        self
    }

    /// The grid.
    pub fn grid(&self) -> Grid2d {
        self.grid
    }

    /// Stencil coefficients `(diag, east, west, north, south)` after the h²
    /// scaling: `diag = 4`, `east/west = −1 ± bx·h/2`, `north/south =
    /// −1 ± by·h/2`.
    pub fn stencil(&self) -> (f64, f64, f64, f64, f64) {
        let h = self.grid.h();
        (
            4.0,
            -1.0 + self.bx * h / 2.0,
            -1.0 - self.bx * h / 2.0,
            -1.0 + self.by * h / 2.0,
            -1.0 - self.by * h / 2.0,
        )
    }

    /// Assemble the rows `range` of the global system. Returns the row
    /// block (with global column indices) and the corresponding rhs chunk.
    fn assemble_rows(&self, range: std::ops::Range<usize>) -> (CsrMatrix, Vec<f64>) {
        let g = self.grid;
        let m = g.m();
        let n = g.unknowns();
        let h = g.h();
        let h2 = h * h;
        let (cd, ce, cw, cn, cs) = self.stencil();
        let local_rows = range.len();
        let mut coo = CooMatrix::new(local_rows, n);
        let mut b = vec![0.0; local_rows];
        for (lr, k) in range.clone().enumerate() {
            let (i, j) = g.point(k);
            let (x, y) = g.coords(i, j);
            b[lr] = h2 * (self.rhs)(x, y);
            coo.push(lr, k, cd).expect("diagonal in range");
            // West neighbour (j−1) or boundary at x = 0.
            if j > 0 {
                coo.push(lr, g.index(i, j - 1), cw).expect("west in range");
            } else {
                b[lr] -= cw * (self.boundary)(0.0, y);
            }
            // East neighbour (j+1) or boundary at x = 1.
            if j + 1 < m {
                coo.push(lr, g.index(i, j + 1), ce).expect("east in range");
            } else {
                b[lr] -= ce * (self.boundary)(1.0, y);
            }
            // South neighbour (i−1) or boundary at y = 0.
            if i > 0 {
                coo.push(lr, g.index(i - 1, j), cs).expect("south in range");
            } else {
                b[lr] -= cs * (self.boundary)(x, 0.0);
            }
            // North neighbour (i+1) or boundary at y = 1.
            if i + 1 < m {
                coo.push(lr, g.index(i + 1, j), cn).expect("north in range");
            } else {
                b[lr] -= cn * (self.boundary)(x, 1.0);
            }
        }
        (coo.to_csr(), b)
    }

    /// Assemble the full system on one rank (serial reference path).
    pub fn assemble_global(&self) -> (CsrMatrix, Vec<f64>) {
        self.assemble_rows(0..self.grid.unknowns())
    }

    /// Assemble this rank's block rows for an even partition over `comm` —
    /// the paper's parallel mesh generator, where each compute node builds
    /// (and in the paper, writes to local disk) only its own share.
    pub fn assemble_local(&self, comm: &Communicator) -> LocalSystem {
        let partition = BlockRowPartition::even(self.grid.unknowns(), comm.size());
        self.assemble_partitioned(&partition, comm.rank())
    }

    /// Assemble the block rows `partition.range(rank)` (no communication —
    /// assembly is embarrassingly parallel).
    pub fn assemble_partitioned(&self, partition: &BlockRowPartition, rank: usize) -> LocalSystem {
        let (matrix, rhs) = self.assemble_rows(partition.range(rank));
        LocalSystem { matrix, rhs, partition: partition.clone(), rank }
    }

    /// Write this rank's share to `dir` as MatrixMarket files
    /// (`A_<rank>.mtx`, `b_<rank>.mtx`) — the paper's "mesh data files are
    /// written out on each compute node locally".
    pub fn write_local_files(
        &self,
        local: &LocalSystem,
        dir: impl AsRef<std::path::Path>,
    ) -> SparseResult<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        rsparse::io::write_matrix_file(dir.join(format!("A_{}.mtx", local.rank)), &local.matrix)?;
        let f = std::fs::File::create(dir.join(format!("b_{}.mtx", local.rank)))?;
        rsparse::io::write_vector(f, &local.rhs)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcomm::Universe;

    #[test]
    fn poisson_matrix_matches_generator_reference() {
        let (a, b) = ConvectionDiffusion2d::new(10).assemble_global();
        let reference = rsparse::generate::laplacian_2d(10);
        assert_eq!(a, reference);
        assert_eq!(b, vec![0.0; 100]);
    }

    #[test]
    fn stencil_includes_convection_terms() {
        let p = ConvectionDiffusion2d::new(3).with_convection(3.0, 0.0);
        let h = p.grid().h();
        let (d, e, w, n, s) = p.stencil();
        assert_eq!(d, 4.0);
        assert!((e - (-1.0 + 1.5 * h)).abs() < 1e-15);
        assert!((w - (-1.0 - 1.5 * h)).abs() < 1e-15);
        assert_eq!(n, -1.0);
        assert_eq!(s, -1.0);
    }

    #[test]
    fn matrix_is_nonsymmetric_with_convection() {
        let (a, _) = crate::paper_problem(4).assemble_global();
        let at = a.transpose();
        assert_ne!(a, at, "convection must break symmetry");
    }

    #[test]
    fn boundary_data_moves_to_rhs() {
        // u = 1 on the whole boundary, zero rhs: each boundary-adjacent row
        // gains +1 per missing neighbour (Poisson coefficients are −1).
        let p = ConvectionDiffusion2d::new(3).with_boundary(|_, _| 1.0);
        let (_, b) = p.assemble_global();
        // Corner rows touch two boundary sides, edge rows one, center zero.
        let g = Grid2d::new(3);
        assert_eq!(b[g.index(0, 0)], 2.0);
        assert_eq!(b[g.index(0, 1)], 1.0);
        assert_eq!(b[g.index(1, 1)], 0.0);
        assert_eq!(b[g.index(2, 2)], 2.0);
    }

    #[test]
    fn parallel_assembly_concatenates_to_global() {
        let p = crate::paper_problem(8);
        let (a_global, b_global) = p.assemble_global();
        for nr in [1usize, 2, 3, 5] {
            let out = Universe::run(nr, |comm| {
                let local = p.assemble_local(comm);
                (local.matrix, local.rhs, local.partition)
            });
            let mut rows_seen = 0usize;
            for (rank, (mat, rhs, part)) in out.into_iter().enumerate() {
                let range = part.range(rank);
                let expect = a_global.row_block(range.start, range.end).unwrap();
                assert_eq!(mat, expect, "rank {rank}/{nr}");
                assert_eq!(rhs.as_slice(), &b_global[range.clone()]);
                rows_seen += range.len();
            }
            assert_eq!(rows_seen, 64);
        }
    }

    #[test]
    fn discrete_solution_satisfies_manufactured_problem() {
        // Manufactured *discrete* verification: pick u*, set b = A·u*,
        // solve with the dense reference, recover u*.
        let p = crate::paper_problem(6);
        let (a, _) = p.assemble_global();
        let n = p.grid().unknowns();
        let u_star: Vec<f64> = (0..n).map(|k| (k as f64 * 0.37).sin()).collect();
        let b = a.matvec(&u_star).unwrap();
        let u = a.to_dense().solve(&b).unwrap();
        for (g, e) in u.iter().zip(&u_star) {
            assert!((g - e).abs() < 1e-10);
        }
    }

    #[test]
    fn write_local_files_round_trip() {
        let p = crate::paper_problem(4);
        let dir = std::env::temp_dir().join("rmesh_files_test");
        let out = Universe::run(2, |comm| {
            let local = p.assemble_local(comm);
            p.write_local_files(&local, &dir).unwrap();
            local
        });
        for (rank, local) in out.iter().enumerate() {
            let a = rsparse::io::read_matrix_file(dir.join(format!("A_{rank}.mtx"))).unwrap();
            assert_eq!(&a, &local.matrix);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
