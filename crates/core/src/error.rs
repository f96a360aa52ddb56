//! LISI error type, with the integer code mapping the SIDL `int` returns
//! imply.

use std::fmt;

/// Result alias for LISI calls.
pub type LisiResult<T> = Result<T, LisiError>;

/// Errors surfaced through the interface.
#[derive(Debug, Clone, PartialEq)]
pub enum LisiError {
    /// `initialize` has not been called.
    NotInitialized,
    /// Calls arrived in an illegal order (e.g. `solve` before
    /// `setupMatrix`).
    BadPhase(String),
    /// Array lengths or distribution parameters disagree.
    InvalidInput(String),
    /// The requested feature is not supported by this solver package.
    Unsupported(String),
    /// The underlying package failed (message carries its diagnostic).
    Package(String),
    /// A parameter key or value was rejected.
    BadParameter {
        /// The key.
        key: String,
        /// What went wrong.
        reason: String,
    },
    /// The solver service's admission queue is full — the caller should
    /// back off and retry (backpressure, not failure of the solve itself).
    Busy(String),
}

impl LisiError {
    /// A [`LisiError::BadParameter`] rejecting `key`.
    pub(crate) fn bad_parameter(key: &str, reason: impl Into<String>) -> Self {
        LisiError::BadParameter { key: key.into(), reason: reason.into() }
    }

    /// The SIDL-style status code (`0` would be success; errors are
    /// negative, grouped by kind) — what the paper's `int` returns carry.
    pub fn code(&self) -> i32 {
        match self {
            LisiError::NotInitialized => -1,
            LisiError::BadPhase(_) => -2,
            LisiError::InvalidInput(_) => -3,
            LisiError::Unsupported(_) => -4,
            LisiError::Package(_) => -5,
            LisiError::BadParameter { .. } => -6,
            LisiError::Busy(_) => -7,
        }
    }
}

impl fmt::Display for LisiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LisiError::NotInitialized => write!(f, "solver not initialized"),
            LisiError::BadPhase(m) => write!(f, "call out of phase: {m}"),
            LisiError::InvalidInput(m) => write!(f, "invalid input: {m}"),
            LisiError::Unsupported(m) => write!(f, "unsupported: {m}"),
            LisiError::Package(m) => write!(f, "solver package error: {m}"),
            LisiError::BadParameter { key, reason } => {
                write!(f, "bad parameter '{key}': {reason}")
            }
            LisiError::Busy(m) => write!(f, "solver service busy: {m}"),
        }
    }
}

impl std::error::Error for LisiError {}

impl From<rsparse::SparseError> for LisiError {
    fn from(e: rsparse::SparseError) -> Self {
        LisiError::Package(e.to_string())
    }
}

impl From<rcomm::CommError> for LisiError {
    fn from(e: rcomm::CommError) -> Self {
        LisiError::Package(e.to_string())
    }
}

impl From<rkrylov::BadValue> for LisiError {
    fn from(e: rkrylov::BadValue) -> Self {
        LisiError::bad_parameter(&e.key, format!("cannot parse '{}'", e.value))
    }
}

impl From<rkrylov::KspError> for LisiError {
    fn from(e: rkrylov::KspError) -> Self {
        match e {
            rkrylov::KspError::BadValue(e) => e.into(),
            e => LisiError::Package(e.to_string()),
        }
    }
}

impl From<raztec::AztecError> for LisiError {
    fn from(e: raztec::AztecError) -> Self {
        LisiError::Package(e.to_string())
    }
}

impl From<rdirect::RsluError> for LisiError {
    fn from(e: rdirect::RsluError) -> Self {
        LisiError::Package(e.to_string())
    }
}

impl From<rmg::MgError> for LisiError {
    fn from(e: rmg::MgError) -> Self {
        LisiError::Package(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_negative_and_distinct() {
        let errs = [
            LisiError::NotInitialized,
            LisiError::BadPhase("x".into()),
            LisiError::InvalidInput("x".into()),
            LisiError::Unsupported("x".into()),
            LisiError::Package("x".into()),
            LisiError::BadParameter { key: "k".into(), reason: "r".into() },
            LisiError::Busy("x".into()),
        ];
        let codes: Vec<i32> = errs.iter().map(|e| e.code()).collect();
        assert!(codes.iter().all(|&c| c < 0));
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len());
    }

    #[test]
    fn messages_carry_context() {
        let e = LisiError::BadParameter { key: "tol".into(), reason: "not a number".into() };
        assert!(e.to_string().contains("tol"));
        assert!(LisiError::NotInitialized.to_string().contains("not initialized"));
    }
}
