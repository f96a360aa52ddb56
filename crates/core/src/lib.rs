//! `lisi` — the LInear Solver Interface: the CCA-LISI paper's primary
//! contribution, in Rust.
//!
//! LISI is a single, minimal interface spanning parallel sparse linear
//! solver packages, designed so an application can switch solvers without
//! touching its own code (paper §1–2). This crate provides:
//!
//! * [`SparseSolverPort`] — the `lisi.SparseSolver` interface from the
//!   paper's SIDL listing (§7.2), method for method: block-row
//!   distribution setters, three `setupMatrix` overloads accepting
//!   COO/CSR/MSR/VBR/FEM input ([`SparseStruct`]) at any index base,
//!   `setupRHS` with multi-RHS support, `solve` returning the solution
//!   and a typed status array ([`status`]), and the generic
//!   string-keyed parameter setters of design decision §6.5;
//! * [`MatrixFreePort`] — the `lisi.MatrixFree` application-side port
//!   (operator and preconditioner application, selected by
//!   [`OperatorId`]);
//! * [`adapters`] — one adapter per underlying package: RKSP
//!   (PETSc-like), RAztec (Trilinos-like), RSLU (SuperLU-like) and RMG
//!   (multigrid). Each converts the incoming arrays to its package's
//!   native structures and maps the generic parameters onto the package's
//!   own configuration surface — the "adapter" role of paper §7.2;
//! * [`components`] — CCA components wrapping the adapters (provides port
//!   `"lisi-solver"` of SIDL type `lisi.SparseSolver`, optional uses port
//!   `"matrix-free"` of type `lisi.MatrixFree`), ready for a
//!   [`cca::Framework`] and dynamic switching (paper Figure 4);
//! * conformance tests asserting the Rust traits implement every method
//!   of the embedded SIDL specification.

#![warn(missing_docs)]

pub mod adapters;
pub mod components;
pub mod error;
pub mod ledger;
pub mod postmortem;
pub mod resilient;
pub mod service;
pub mod state;
pub mod status;
pub mod traits;
pub mod types;

pub use adapters::{RaztecAdapter, RkspAdapter, RmgAdapter, RsluAdapter};
pub use components::{
    MatrixFreeComponent, SolverComponent, MATRIX_FREE_PORT, SOLVER_PORT, SOLVER_PORT_TYPE,
};
pub use error::{LisiError, LisiResult};
pub use resilient::{
    AttemptSpec, BackendSwitch, FrameworkSwitch, ResilientSolver, ResilientSolverComponent,
    RetryPolicy, StaticSwitch, BACKEND_PORT,
};
pub use service::{SessionKey, SessionTicket, SolverService};
pub use status::{SolveReport, STATUS_LEN};
pub use traits::{MatrixFreePort, SparseSolverPort};
pub use types::{OperatorId, SparseStruct};
