//! Communication contexts: what keeps communicators' traffic apart.

/// Communication context. Each communicator owns a distinct context so that
/// traffic on split/duplicated communicators can never be confused, the
/// same role MPI's hidden "context id" plays; it also names the
/// communicator's board, lines and inbox queues.
pub(crate) type Context = u64;

/// The world communicator's user context.
pub(crate) const WORLD_CONTEXT: Context = 0x5157_4f52_4c44; // "QWORLD"

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
