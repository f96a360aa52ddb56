//! Error type shared by all communication operations.

use std::fmt;

/// Result alias for communication operations.
pub type CommResult<T> = Result<T, CommError>;

/// Errors raised by the message-passing runtime.
///
/// Every condition that MPI would report through an error code (or, in
/// practice, an abort) is surfaced as a typed error so that tests can inject
/// and observe failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A destination or source rank was outside `0..size`.
    RankOutOfRange {
        /// The offending rank.
        rank: usize,
        /// The communicator size.
        size: usize,
    },
    /// A received payload, or a peer's contribution to a collective, was
    /// not of the requested type — or the peer called another collective.
    ///
    /// MPI leaves datatype mismatches undefined; this runtime detects them.
    TypeMismatch {
        /// Type name the receiver asked for.
        expected: &'static str,
    },
    /// A negative (reserved) tag was passed to a send operation.
    InvalidTag(crate::Tag),
    /// A blocking receive or collective waited longer than the
    /// deadlock-detection timeout. This almost always indicates mismatched
    /// send/recv pairs or a rank that skipped a collective.
    DeadlockSuspected {
        /// The rank that timed out.
        rank: usize,
        /// The rank waited for: a receive's source, or the lowest rank
        /// that had not arrived at a collective (`None` if none was
        /// missing when the wait gave up).
        src: Option<usize>,
        /// The receive's tag (`None` for a collective).
        tag: Option<crate::Tag>,
    },
    /// A send's destination has left: its closure returned or panicked,
    /// so its inbox refuses further messages.
    PeerGone(usize),
    /// A `v`-variant collective was called with a counts slice whose length
    /// differs from the communicator size.
    BadCounts {
        /// Expected number of entries (communicator size).
        expected: usize,
        /// Provided number of entries.
        got: usize,
    },
    /// A buffer passed to a collective had an unexpected length.
    BadBuffer {
        /// What the operation expected.
        expected: usize,
        /// What it got.
        got: usize,
    },
    /// A cohort member (world rank) stopped servicing communication — it
    /// was killed by a `kind=kill` fault rule or its heartbeat went
    /// stale. Unlike [`CommError::DeadlockSuspected`], every survivor
    /// reaches this verdict with the *same* rank, so a recovery layer can
    /// shrink the communicator around the loss
    /// ([`crate::Communicator::shrink`]) instead of aborting.
    RankLost(usize),
    /// A deterministic fault-injection rule fired on this operation.
    /// Only produced while a [`crate::fault::FaultPlan`] is armed.
    Injected {
        /// Operation name (`"send"`, `"recv"`, `"allreduce"`, …).
        op: &'static str,
        /// World rank the fault fired on.
        rank: usize,
        /// The rule's matching-call count when it fired.
        call: u64,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::RankOutOfRange { rank, size } => {
                write!(f, "rank {rank} out of range for communicator of size {size}")
            }
            CommError::TypeMismatch { expected } => {
                write!(f, "received message payload is not of type {expected}")
            }
            CommError::InvalidTag(t) => write!(f, "tag {t} is negative/reserved"),
            CommError::DeadlockSuspected { rank, src, tag } => write!(
                f,
                "rank {rank} blocked too long in recv(src={src:?}, tag={tag:?}); suspected deadlock"
            ),
            CommError::PeerGone(r) => write!(f, "peer rank {r} is gone (thread exited)"),
            CommError::RankLost(r) => {
                write!(f, "rank {r} lost from cohort (stopped servicing communication)")
            }
            CommError::BadCounts { expected, got } => {
                write!(f, "counts slice has {got} entries, expected {expected}")
            }
            CommError::BadBuffer { expected, got } => {
                write!(f, "buffer has length {got}, expected {expected}")
            }
            CommError::Injected { op, rank, call } => {
                write!(f, "injected fault: {op} on rank {rank} at call {call}")
            }
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = CommError::RankOutOfRange { rank: 9, size: 4 };
        assert!(e.to_string().contains("rank 9"));
        assert!(e.to_string().contains("size 4"));

        let e = CommError::TypeMismatch { expected: "f64" };
        assert!(e.to_string().contains("f64"));

        let e = CommError::DeadlockSuspected { rank: 2, src: Some(1), tag: Some(7) };
        assert!(e.to_string().contains("rank 2"));

        let e = CommError::BadCounts { expected: 4, got: 3 };
        assert!(e.to_string().contains("3"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(CommError::PeerGone(1), CommError::PeerGone(1));
        assert_ne!(CommError::PeerGone(1), CommError::PeerGone(2));
    }

    /// The display forms the resilient driver classifies a failure by
    /// (transient, lost rank) once the error has been stringified.
    #[test]
    fn transient_classification() {
        let e = CommError::Injected { op: "allreduce", rank: 1, call: 5 };
        assert!(e.to_string().contains("injected fault"));
        assert!(e.to_string().contains("allreduce"));
        let e = CommError::DeadlockSuspected { rank: 0, src: None, tag: None };
        assert!(e.to_string().contains("suspected deadlock"));
        assert!(CommError::PeerGone(1).to_string().contains("is gone"));
        assert!(CommError::RankLost(2).to_string().contains("rank 2 lost from cohort"));
    }
}
