//! The seven workloads: which matrix, which package, how many ranks, and
//! how a session is shaped. Every choice here has a reason, recorded beside
//! the workload's name in `BENCHMARK.json` and in `benchmark/README.md`.

use rsparse::{BlockRowPartition, CsrMatrix};

/// The matrix family a workload solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixKind {
    /// The paper's convection–diffusion PDE on an `m × m` grid (§8).
    PaperPde,
    /// The symmetric 5-point Laplacian (what CG and ILU(0)/IC need).
    Laplacian,
}

/// The solver package behind the port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Package {
    Rksp,
    Raztec,
    Rslu,
}

/// One workload. `m` is the full size, `quick_m` the smoke-test size.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: MatrixKind,
    pub m: usize,
    pub quick_m: usize,
    pub package: Package,
    /// `solver` / `preconditioner` option values; empty for the direct package.
    pub solver: &'static str,
    pub preconditioner: &'static str,
    pub ranks: usize,
    /// Right-hand sides per request (`nrhs` through the port).
    pub nrhs: usize,
    /// Re-solves on the live port after each cold open.
    pub resolves: usize,
}

/// Relative tolerance on ‖r‖/‖b‖ for every Krylov workload.
pub const TOL: &str = "1e-8";
/// Iteration cap for every Krylov workload.
pub const MAXITS: &str = "20000";

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "fig5_rksp_1r",
        kind: MatrixKind::PaperPde,
        m: 300,
        quick_m: 24,
        package: Package::Rksp,
        solver: "bicgstab",
        preconditioner: "jacobi",
        ranks: 1,
        nrhs: 1,
        resolves: 3,
    },
    Workload {
        name: "fig5_rksp_2r",
        kind: MatrixKind::PaperPde,
        m: 400,
        quick_m: 24,
        package: Package::Rksp,
        solver: "bicgstab",
        preconditioner: "jacobi",
        ranks: 2,
        nrhs: 1,
        resolves: 3,
    },
    Workload {
        name: "fig5_raztec_1r",
        kind: MatrixKind::PaperPde,
        m: 128,
        quick_m: 20,
        package: Package::Raztec,
        solver: "gmres",
        preconditioner: "jacobi",
        ranks: 1,
        nrhs: 1,
        resolves: 4,
    },
    Workload {
        name: "ilu_cg_1r",
        kind: MatrixKind::Laplacian,
        m: 200,
        quick_m: 24,
        package: Package::Rksp,
        solver: "cg",
        preconditioner: "ilu",
        ranks: 1,
        nrhs: 1,
        resolves: 4,
    },
    Workload {
        name: "direct_2r",
        kind: MatrixKind::PaperPde,
        m: 120,
        quick_m: 16,
        package: Package::Rslu,
        solver: "",
        preconditioner: "",
        ranks: 2,
        nrhs: 1,
        resolves: 150,
    },
    Workload {
        name: "batch8_2r",
        kind: MatrixKind::Laplacian,
        m: 128,
        quick_m: 16,
        package: Package::Rksp,
        solver: "cg",
        preconditioner: "jacobi",
        ranks: 2,
        nrhs: 8,
        resolves: 6,
    },
    Workload {
        name: "sync_cg_2r",
        kind: MatrixKind::Laplacian,
        m: 32,
        quick_m: 12,
        package: Package::Rksp,
        solver: "cg",
        preconditioner: "jacobi",
        ranks: 2,
        nrhs: 1,
        resolves: 120,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Grid side for this run.
    pub fn side(&self, quick: bool) -> usize {
        if quick {
            self.quick_m
        } else {
            self.m
        }
    }

    /// The generic LISI parameters of a session, in the order they are set.
    pub fn params(&self) -> Vec<(&'static str, &'static str)> {
        if self.package == Package::Rslu {
            return Vec::new();
        }
        vec![
            ("solver", self.solver),
            ("preconditioner", self.preconditioner),
            ("tol", TOL),
            ("maxits", MAXITS),
            // RAztec-only: measure convergence as ‖r‖/‖b‖ like RKSP does;
            // the other packages ignore the key.
            ("conv", "rhs"),
        ]
    }

    /// This rank's block of rows, columns global.
    pub fn assemble_local(
        &self,
        m: usize,
        partition: &BlockRowPartition,
        rank: usize,
    ) -> CsrMatrix {
        match self.kind {
            MatrixKind::PaperPde => {
                rmesh::paper_problem(m)
                    .assemble_partitioned(partition, rank)
                    .matrix
            }
            MatrixKind::Laplacian => {
                let r = partition.range(rank);
                rsparse::generate::laplacian_2d(m)
                    .row_block(r.start, r.end)
                    .expect("partition range lies inside the matrix")
            }
        }
    }

    /// The whole matrix, for the benchmark's own residual check on rank 0.
    pub fn assemble_global(&self, m: usize) -> CsrMatrix {
        match self.kind {
            MatrixKind::PaperPde => rmesh::paper_problem(m).assemble_global().0,
            MatrixKind::Laplacian => rsparse::generate::laplacian_2d(m),
        }
    }
}
