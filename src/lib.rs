//! # CCA-LISI — a CCA parallel sparse linear solver interface, in Rust
//!
//! A full reproduction of *"CCA-LISI: On Designing A CCA Parallel Sparse
//! Linear Solver Interface"* (Liu & Bramley, IPDPS 2007): the LISI
//! interface, a CCA component framework, an MPI-like SPMD substrate, and
//! four independently implemented solver packages behind the one
//! interface.
//!
//! This umbrella crate re-exports every workspace member under one roof
//! so examples and downstream users need a single dependency:
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`probe`] | `lisi-probe` | per-rank tracing, metrics, the event log |
//! | [`comm`] | `lisi-comm` | MPI-like message passing (ranks, collectives) |
//! | [`sparse`] | `lisi-sparse` | formats, kernels, distributed matrices |
//! | [`mesh`] | `lisi-mesh` | the paper's PDE problem generator |
//! | [`krylov`] | `lisi-krylov` | RKSP, the PETSc-like iterative package |
//! | [`aztec`] | `lisi-aztec` | RAztec, the Trilinos-like package |
//! | [`direct`] | `lisi-direct` | RSLU, the SuperLU-like direct package |
//! | [`multigrid`] | `lisi-multigrid` | RMG, geometric multigrid |
//! | [`cca`] | `lisi-cca` | components, ports, builder, SIDL |
//! | [`lisi`] | `lisi-core` | **the LISI interface and its adapters** |
//!
//! ## Quickstart
//!
//! ```
//! use cca_lisi::lisi::{RkspAdapter, SparseSolverPort, SparseStruct, STATUS_LEN};
//!
//! // 2 ranks, block-row partitioned 1-D Laplacian, solved through LISI.
//! let results = cca_lisi::comm::Universe::run(2, |comm| {
//!     let n = 16;
//!     let a = cca_lisi::sparse::generate::laplacian_1d(n);
//!     let part = cca_lisi::sparse::BlockRowPartition::even(n, comm.size());
//!     let range = part.range(comm.rank());
//!     let local = a.row_block(range.start, range.end).unwrap();
//!
//!     let solver = RkspAdapter::new();
//!     solver.initialize(comm.dup().unwrap()).unwrap();
//!     solver.set_start_row(range.start).unwrap();
//!     solver.set_local_rows(range.len()).unwrap();
//!     solver.set_global_cols(n).unwrap();
//!     solver.set("solver", "cg").unwrap();
//!     solver.set("tol", "1e-10").unwrap();
//!     solver
//!         .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
//!         .unwrap();
//!     solver.setup_rhs(&vec![1.0; range.len()], 1).unwrap();
//!     let mut x = vec![0.0; range.len()];
//!     let mut status = [0.0; STATUS_LEN];
//!     solver.solve(&mut x, &mut status).unwrap();
//!     x
//! });
//! assert_eq!(results.len(), 2);
//! ```

#![warn(missing_docs)]

pub use cca;
pub use lisi;
pub use probe;
pub use raztec as aztec;
pub use rcomm as comm;
pub use rdirect as direct;
pub use rkrylov as krylov;
pub use rmesh as mesh;
pub use rmg as multigrid;
pub use rsparse as sparse;
