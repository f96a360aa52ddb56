//! `rkrylov` ("RKSP") — a PETSc-KSP-like parallel iterative solver package.
//!
//! This is one of the three "native solver libraries" the CCA-LISI paper
//! wraps (its PETSc stand-in, per the substitution table in DESIGN.md). It
//! is a complete package in its own right:
//!
//! * [`LinearOperator`] — the operator abstraction; [`MatOperator`] wraps a
//!   block-row-distributed CSR matrix, [`ShellOperator`] wraps a user
//!   closure (PETSc's `MatShell`, the matrix-free path LISI must support);
//! * [`pc`] — preconditioners: identity, Jacobi, block-Jacobi ILU(0) and
//!   IC(0), SOR/SSOR sweeps, additive Schwarz flavour of block solves;
//! * [`solver`] — Krylov and stationary methods: CG, BiCGStab, GMRES(m),
//!   FGMRES(m), CGS, TFQMR, Richardson, Chebyshev;
//! * [`Options`] — a PETSc-style string option database
//!   (`ksp_type`, `pc_type`, `ksp_rtol`, …) from which a configured
//!   [`Ksp`] context is built — this is the parameter surface LISI's
//!   generic `set(key, value)` methods map onto.
//!
//! Everything runs SPMD over an [`rcomm::Communicator`]; a single-rank
//! communicator gives the serial behaviour.

#![warn(missing_docs)]

pub mod analytics;
pub mod checkpoint;
pub mod operator;
pub mod options;
pub mod pc;
pub mod result;
pub mod solver;

pub use operator::{LinearOperator, MatOperator, ShellOperator};
pub use options::{BadValue, Options};
pub use pc::{make_preconditioner, PcType, Preconditioner};
pub use pc::{Ic0, Ilu0, Ilut, Jacobi, Ssor};
pub use result::{ConvergedReason, KspError, KspResult};
pub use solver::{Ksp, KspConfig, KspType};
