//! `rdirect` ("RSLU") — a SuperLU-like sparse direct solver.
//!
//! The third "native solver library" of the CCA-LISI reproduction (the
//! SuperLU stand-in of DESIGN.md). It follows SuperLU's three-phase
//! lifecycle, the phase structure that makes direct solvers awkward to
//! put behind a common interface (paper §5.1–5.2) and that LISI's reuse
//! scenarios (b)–(d) exercise:
//!
//! 1. **Analyze** — choose a fill-reducing column ordering ([`ordering`]:
//!    natural, reverse Cuthill–McKee, quotient-graph minimum degree) and
//!    keep it with a hash of the pattern in the [`symbolic::Symbolic`]
//!    context;
//! 2. **Factorize** — left-looking Gilbert–Peierls sparse LU with partial
//!    pivoting and a symmetrically pruned reach ([`lu`]), producing
//!    `P·A·Q = L·U` on the structural pattern (explicit zeros kept) as
//!    supernodal panels ([`panels`]): L grows as panels during the
//!    factorization, and a run of a panel's columns in a column's reach is
//!    applied as one dense block; U's rows are packed into panels at the
//!    end;
//! 3. **Solve** — permuted triangular solves over the panels, optionally
//!    with one step of iterative refinement, reusing the factors and one
//!    workspace across right-hand sides.
//!
//! The parallel driver ([`solver::DistRslu`]) gathers a block-row
//! distributed system to rank 0, factors, and scatters the solution — a
//! documented substitution (interface-overhead experiments measure the
//! call path, not direct-solver scalability; see DESIGN.md).

#![warn(missing_docs)]

#[cfg(test)]
mod corpus;
pub mod lu;
pub mod ordering;
pub mod panels;
#[cfg(test)]
mod reference;
pub mod solver;
pub mod symbolic;

pub use lu::LuFactorization;
pub use ordering::Ordering;
pub use panels::PanelTri;
pub use solver::{DistRslu, RsluOptions, RsluSolver, RsluStats};

/// Errors from the RSLU package.
#[derive(Debug, Clone, PartialEq)]
pub enum RsluError {
    /// The matrix is structurally or numerically singular.
    Singular {
        /// Column at which factorization failed.
        column: usize,
    },
    /// Substrate failure.
    Sparse(String),
    /// Bad configuration value.
    BadOption(String),
    /// Factor reuse was attempted with a mismatched pattern.
    PatternMismatch {
        /// Expected nonzero count.
        expected: usize,
        /// Provided nonzero count.
        got: usize,
    },
}

impl std::fmt::Display for RsluError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsluError::Singular { column } => {
                write!(f, "matrix is singular (no pivot in column {column})")
            }
            RsluError::Sparse(m) => write!(f, "substrate error: {m}"),
            RsluError::BadOption(m) => write!(f, "bad option: {m}"),
            RsluError::PatternMismatch { expected, got } if expected == got => {
                write!(f, "pattern mismatch: {got} nonzeros as analyzed, in other positions")
            }
            RsluError::PatternMismatch { expected, got } => {
                write!(f, "pattern mismatch: expected {expected} nonzeros, got {got}")
            }
        }
    }
}

impl std::error::Error for RsluError {}

impl From<rsparse::SparseError> for RsluError {
    fn from(e: rsparse::SparseError) -> Self {
        RsluError::Sparse(e.to_string())
    }
}

impl From<rcomm::CommError> for RsluError {
    fn from(e: rcomm::CommError) -> Self {
        RsluError::Sparse(e.to_string())
    }
}

/// Result alias.
pub type RsluResult<T> = Result<T, RsluError>;
