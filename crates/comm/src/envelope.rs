//! Internal wire format: a typed payload with MPI-style matching metadata.

use std::any::Any;

use crate::Tag;

/// Communication context. Each communicator owns a distinct context so that
/// traffic on split/duplicated communicators can never be confused, the
/// same role MPI's hidden "context id" plays; it also names the
/// communicator's board and lines.
pub(crate) type Context = u64;

/// The world communicator's user context.
pub(crate) const WORLD_CONTEXT: Context = 0x5157_4f52_4c44; // "QWORLD"

/// One in-flight message.
pub(crate) struct Envelope {
    /// World rank of the sender.
    pub src: usize,
    /// The sender's tag.
    pub tag: Tag,
    /// Context id of the communicator the message was sent on.
    pub context: Context,
    /// Causal trace stamp (solve id, per-sender sequence, post time);
    /// `None` unless the sender had a traced solve open (see `probe::trace`).
    pub stamp: Option<probe::trace::Stamp>,
    /// The payload. `Box<dyn Any>` lets a single mailbox carry every message
    /// type; the receiver downcasts and reports a typed error on mismatch.
    pub payload: Box<dyn Any + Send>,
}

impl Envelope {
    /// Does this envelope match a receive posted for `(src, tag)` on
    /// communicator context `context`?
    pub fn matches(&self, src: usize, tag: Tag, context: Context) -> bool {
        self.context == context && src == self.src && tag == self.tag
    }
}

/// Derive a child context deterministically on every member of a collective
/// split, without any extra communication: all members pass identical
/// `(parent, salt, color)` and therefore compute identical child contexts.
pub(crate) fn child_context(parent: Context, salt: u64, color: u64) -> Context {
    // SplitMix64 finalizer — good avalanche, collisions vanishingly unlikely
    // for the handful of communicators a solver stack creates.
    let mut z = parent
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(color.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, tag: Tag, context: Context) -> Envelope {
        Envelope { src, tag, context, stamp: None, payload: Box::new(0u8) }
    }

    #[test]
    fn matching_respects_all_three_keys() {
        let e = env(2, 7, WORLD_CONTEXT);
        assert!(e.matches(2, 7, WORLD_CONTEXT));
        assert!(!e.matches(1, 7, WORLD_CONTEXT));
        assert!(!e.matches(2, 8, WORLD_CONTEXT));
        assert!(!e.matches(2, 7, WORLD_CONTEXT ^ 1));
    }

    #[test]
    fn child_contexts_are_deterministic_and_distinct() {
        let a = child_context(WORLD_CONTEXT, 1, 0);
        let b = child_context(WORLD_CONTEXT, 1, 0);
        assert_eq!(a, b, "same inputs must agree across ranks");

        let c = child_context(WORLD_CONTEXT, 1, 1);
        let d = child_context(WORLD_CONTEXT, 2, 0);
        assert_ne!(a, c, "different colors get different contexts");
        assert_ne!(a, d, "different salts get different contexts");
    }
}
