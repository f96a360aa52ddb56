//! Solve outcomes and error types.

use std::fmt;

/// Why an iteration stopped — the RKSP analogue of PETSc's
/// `KSPConvergedReason`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvergedReason {
    /// Residual fell below `rtol · ‖b‖`.
    RelativeTolerance,
    /// Residual fell below the absolute tolerance.
    AbsoluteTolerance,
    /// Iteration limit reached without convergence.
    MaxIterations,
    /// The method hit a breakdown condition (zero inner product etc.).
    Breakdown,
    /// Residual exceeded the divergence tolerance `dtol · ‖b‖` or became
    /// non-finite.
    Diverged,
    /// No new best residual for `stagnation_window` consecutive
    /// iterations (see [`crate::KspConfig::stagnation_window`]).
    Stagnated,
    /// The wall-clock budget ran out (see
    /// [`crate::KspConfig::max_seconds`]). The verdict is agreed through
    /// the per-iteration reductions, so every rank stops identically.
    TimedOut,
}

impl ConvergedReason {
    /// Did the solve succeed?
    pub fn converged(self) -> bool {
        matches!(self, ConvergedReason::RelativeTolerance | ConvergedReason::AbsoluteTolerance)
    }

    /// Stable short name, used by the flight recorder's verdict events
    /// and postmortem JSON.
    pub fn name(self) -> &'static str {
        match self {
            ConvergedReason::RelativeTolerance => "rtol",
            ConvergedReason::AbsoluteTolerance => "atol",
            ConvergedReason::MaxIterations => "max_iterations",
            ConvergedReason::Breakdown => "breakdown",
            ConvergedReason::Diverged => "diverged",
            ConvergedReason::Stagnated => "stagnated",
            ConvergedReason::TimedOut => "timed_out",
        }
    }
}

impl fmt::Display for ConvergedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConvergedReason::RelativeTolerance => "converged: relative tolerance",
            ConvergedReason::AbsoluteTolerance => "converged: absolute tolerance",
            ConvergedReason::MaxIterations => "diverged: iteration limit",
            ConvergedReason::Breakdown => "diverged: breakdown",
            ConvergedReason::Diverged => "diverged: residual blow-up",
            ConvergedReason::Stagnated => "diverged: stagnation",
            ConvergedReason::TimedOut => "diverged: wall-clock budget exceeded",
        };
        f.write_str(s)
    }
}

/// Outcome of a Krylov solve.
#[derive(Debug, Clone, PartialEq)]
pub struct KspResult {
    /// Stop reason.
    pub reason: ConvergedReason,
    /// Iterations performed.
    pub iterations: usize,
    /// ‖b − A·x₀‖₂ at entry.
    pub initial_residual: f64,
    /// ‖b − A·x‖₂ (or its recurrence estimate) at exit.
    pub final_residual: f64,
    /// Every residual norm the convergence test saw, in order: entry 0 is
    /// the initial residual, then one per iteration (BiCGStab adds its
    /// half-step's, GMRES the true residual it recomputes at a restart).
    pub history: Vec<f64>,
    /// Condition-number estimate of the preconditioned operator from the
    /// CG Lanczos coefficients (see [`crate::analytics`]); `None` for
    /// methods that don't build the tridiagonal, or too-short solves.
    pub cond_estimate: Option<f64>,
}

impl KspResult {
    /// Did the solve succeed?
    pub fn converged(&self) -> bool {
        self.reason.converged()
    }
}

/// Errors from solver configuration or the substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum KspError {
    /// An underlying sparse/communication failure.
    Sparse(rsparse::SparseError),
    /// The requested solver or preconditioner name is unknown.
    UnknownName {
        /// "solver" or "preconditioner".
        kind: &'static str,
        /// The unknown name.
        name: String,
    },
    /// A configuration value is invalid (e.g. negative tolerance).
    BadConfig(String),
    /// An option value does not parse as its key's type.
    BadValue(crate::options::BadValue),
    /// Operands don't conform (partition mismatch etc.).
    Nonconforming(String),
}

impl fmt::Display for KspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KspError::Sparse(e) => write!(f, "substrate error: {e}"),
            KspError::UnknownName { kind, name } => write!(f, "unknown {kind} '{name}'"),
            KspError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            KspError::BadValue(e) => write!(f, "bad configuration: {e}"),
            KspError::Nonconforming(msg) => write!(f, "nonconforming operands: {msg}"),
        }
    }
}

impl std::error::Error for KspError {}

impl From<rsparse::SparseError> for KspError {
    fn from(e: rsparse::SparseError) -> Self {
        KspError::Sparse(e)
    }
}

impl From<crate::options::BadValue> for KspError {
    fn from(e: crate::options::BadValue) -> Self {
        KspError::BadValue(e)
    }
}

impl From<rcomm::CommError> for KspError {
    fn from(e: rcomm::CommError) -> Self {
        KspError::Sparse(rsparse::SparseError::Comm(e.to_string()))
    }
}

/// Result alias.
pub type KspOutcome<T> = Result<T, KspError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reasons_classify_convergence() {
        assert!(ConvergedReason::RelativeTolerance.converged());
        assert!(ConvergedReason::AbsoluteTolerance.converged());
        assert!(!ConvergedReason::MaxIterations.converged());
        assert!(!ConvergedReason::Breakdown.converged());
        assert!(!ConvergedReason::Diverged.converged());
        assert!(!ConvergedReason::Stagnated.converged());
        assert!(!ConvergedReason::TimedOut.converged());
    }

    #[test]
    fn displays_are_informative() {
        assert!(ConvergedReason::Breakdown.to_string().contains("breakdown"));
        let e = KspError::UnknownName { kind: "solver", name: "zzz".into() };
        assert!(e.to_string().contains("zzz"));
        let e = KspError::BadConfig("rtol < 0".into());
        assert!(e.to_string().contains("rtol"));
    }
}
