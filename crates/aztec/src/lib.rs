//! `raztec` — a Trilinos/AztecOO-like parallel iterative solver package.
//!
//! The second "native solver library" of the CCA-LISI reproduction (the
//! Trilinos stand-in from DESIGN.md's substitution table). It is written
//! against deliberately *different* abstractions than `rkrylov`, because
//! the whole point of LISI is to span packages whose APIs disagree:
//!
//! * [`Map`] — an `Epetra_Map`: the distribution descriptor that every
//!   object is built on;
//! * [`Vector`] — an `Epetra_Vector`: a map plus local coefficients;
//! * [`RowMatrix`] — the `Epetra_RowMatrix` *virtual matrix* trait: row
//!   access and a matvec. Applications can implement it themselves to get
//!   matrix-free solves (paper §5.5 cites exactly this mechanism:
//!   "Trilinos's Epetra_RowMatrix virtual class allows the application
//!   developer to implement and create their own matrix data type with a
//!   matrix vector product method");
//! * [`CrsMatrix`] — the assembled implementation of [`RowMatrix`];
//! * [`AztecOO`] — the solver engine, configured through Aztec-style
//!   option enums ([`AzSolver`], [`AzPrecond`]) and reporting through a
//!   status record ([`SolveStatus`], [`AzWhy`]) — the package's own
//!   convention that a LISI adapter must translate to the common status
//!   array.
//!
//! Solver implementations (CG, GMRES(k), BiCGStab) are independent of
//! `rkrylov`'s — two packages sharing an interface, not a renamed copy.

#![warn(missing_docs)]

mod aztecoo;
mod map;
mod precond;
#[cfg(test)]
mod reference;
mod rowmatrix;
mod solvers;
mod vector;

pub use aztecoo::{AzConv, AzPrecond, AzSolver, AzWhy, AztecOO, AztecOptions, SolveStatus};
pub use map::Map;
pub use rowmatrix::{CrsMatrix, RowMatrix};
pub use vector::Vector;

/// Errors from the RAztec package.
#[derive(Debug, Clone, PartialEq)]
pub enum AztecError {
    /// Operand maps disagree.
    MapMismatch(String),
    /// Underlying substrate failure.
    Sparse(String),
    /// Invalid options.
    BadOption(String),
}

impl std::fmt::Display for AztecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AztecError::MapMismatch(m) => write!(f, "map mismatch: {m}"),
            AztecError::Sparse(m) => write!(f, "substrate error: {m}"),
            AztecError::BadOption(m) => write!(f, "bad option: {m}"),
        }
    }
}

impl std::error::Error for AztecError {}

impl From<rsparse::SparseError> for AztecError {
    fn from(e: rsparse::SparseError) -> Self {
        AztecError::Sparse(e.to_string())
    }
}

impl From<rcomm::CommError> for AztecError {
    fn from(e: rcomm::CommError) -> Self {
        AztecError::Sparse(e.to_string())
    }
}

/// Result alias.
pub type AztecResult<T> = Result<T, AztecError>;
