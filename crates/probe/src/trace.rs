//! Solve identity and causal cross-rank stamps.
//!
//! Every solve gets an **id** that is identical on every rank without
//! any communication: ranks are SPMD threads, so the k-th solve begun on
//! each rank thread is the same logical solve, and the id is derived
//! from a per-thread solve counter plus a process-wide launch generation
//! (bumped by the `rcomm` launcher so back-to-back launches do not
//! collide). The id is assigned at every level — a thread-local
//! increment — and every [`crate::Event`] committed inside the
//! [`solve_guard`] scope carries it, so a ledger, a postmortem, a flight
//! dump, a chrome trace and a critical path of one solve name the same
//! `trace_id`.
//!
//! At [`Level::Trace`] (`RSPARSE_TRACE=1`, `port.set("trace", "on")`,
//! [`set_armed`], or the chrome probe mode) the comm layer additionally
//! stamps each outgoing point-to-point message with a [`Stamp`] —
//! (solve id, per-sender sequence, post time) — so the matching `Recv`
//! event names the exact `Send`, and blocking reductions are indexed (the
//! k-th `allreduce` on each rank is the same collective, again by SPMD
//! structure). A post-solve merge over the per-thread logs reconstructs
//! the cross-rank happens-before graph; see [`crate::critpath`]. Spans
//! and trace events are the same [`crate::Event`]s with the same clock
//! reads, so critical-path per-rank totals reconcile with the summary
//! sink's wait-time attribution table exactly.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::event::{emit, now_ns, EventKind};
use crate::recorder::{self, enabled, level, Level, TRACE_ASKED};

/// Parse an on/off switch value (`RSPARSE_TRACE`, `set("trace", ...)`).
/// Returns `None` for unrecognized spellings.
pub fn parse_switch(s: &str) -> Option<bool> {
    match s.trim().to_ascii_lowercase().as_str() {
        "1" | "on" | "true" | "yes" => Some(true),
        "" | "0" | "off" | "false" | "no" | "none" => Some(false),
        _ => None,
    }
}

/// Whether the probe is at [`Level::Trace`].
#[inline]
pub fn armed() -> bool {
    level() == Level::Trace
}

/// Ask for (or stop asking for) [`Level::Trace`]; overrides
/// `RSPARSE_TRACE`.
pub fn set_armed(on: bool) {
    recorder::ask(TRACE_ASKED, if on { TRACE_ASKED } else { 0 });
}

/// Launch generation; bumped once per SPMD launch *before* rank threads
/// spawn, so every rank of one launch agrees on it and successive
/// launches (whose fresh threads restart their solve counters) get
/// distinct solve ids.
static GENERATION: AtomicU64 = AtomicU64::new(1);

/// Bump the launch generation. Called by the `rcomm` launcher; harmless
/// (but pointless) anywhere else.
pub fn advance_generation() {
    GENERATION.fetch_add(1, Ordering::Relaxed);
}

const SOLVE_BITS: u32 = 20;

thread_local! {
    /// Solves begun on this thread (solve-id low bits).
    static SOLVES: Cell<u64> = const { Cell::new(0) };
    /// Active solve id (0 = no solve open on this thread).
    static CUR: Cell<u64> = const { Cell::new(0) };
    /// Per-sender p2p sequence within the active solve.
    static SEND_SEQ: Cell<u64> = const { Cell::new(0) };
    /// Blocking-reduction index within the active solve.
    static COLL_IDX: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) -> u64 {
    counter.with(|c| {
        c.set(c.get() + 1);
        c.get()
    })
}

/// Id of the solve open on the current thread (0 outside any
/// [`solve_guard`] scope) — the `trace_id` every artifact prints.
#[inline]
pub fn current() -> u64 {
    CUR.with(Cell::get)
}

/// Whether a traced solve is open on the *current thread*: the probe is
/// at [`Level::Trace`] and a [`solve_guard`] scope is active.
#[inline]
pub fn thread_active() -> bool {
    armed() && current() != 0
}

/// Message stamp carried by every in-flight envelope while the sender is
/// tracing: enough to match the receive back to the exact send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Solve id of the sending solve.
    pub trace: u64,
    /// 1-based per-sender sequence number within the solve.
    pub seq: u64,
    /// The sender's clock just before the envelope left; the `t0_ns` of
    /// its `Send` event.
    pub posted_ns: u64,
}

/// RAII scope marking one solve on this thread; created by
/// [`solve_guard`].
#[must_use = "binding the guard keeps the solve open until end of scope"]
pub struct SolveGuard {
    live: bool,
}

/// Open a solve scope: assign the next solve id and, at
/// [`Level::Spans`] and up, commit `Begin` now and `End` on drop. Inert
/// when a solve is already open on this thread (nested solves — a
/// smoother's inner Krylov, a resilient driver's attempts — fold into
/// the enclosing one).
pub fn solve_guard() -> SolveGuard {
    if current() != 0 {
        return SolveGuard { live: false };
    }
    let count = bump(&SOLVES);
    let id = (GENERATION.load(Ordering::Relaxed) << SOLVE_BITS) | (count & ((1 << SOLVE_BITS) - 1));
    CUR.with(|c| c.set(id));
    SEND_SEQ.with(|c| c.set(0));
    COLL_IDX.with(|c| c.set(0));
    if enabled() {
        emit(EventKind::Begin);
    }
    SolveGuard { live: true }
}

impl Drop for SolveGuard {
    fn drop(&mut self) {
        if self.live {
            if enabled() {
                emit(EventKind::End);
            }
            CUR.with(|c| c.set(0));
        }
    }
}

/// The next blocking-reduction index of the traced solve open on this
/// thread; 0 (unindexed) when there is none.
pub(crate) fn next_collective() -> u64 {
    if thread_active() {
        bump(&COLL_IDX)
    } else {
        0
    }
}

/// A p2p send is about to post: the [`Stamp`] to ride on the envelope
/// and to hand to the `Send` event. `None` when no traced solve is open
/// on this thread (one relaxed load).
#[inline]
pub fn stamp_send() -> Option<Stamp> {
    thread_active().then(|| Stamp { trace: current(), seq: bump(&SEND_SEQ), posted_ns: now_ns() })
}

/// A blocking receive is being posted: the `t0_ns` of its `Recv` event
/// when a traced solve is open on this thread.
#[inline]
pub fn recv_start() -> Option<u64> {
    thread_active().then(now_ns)
}

/// The sender's sequence a matched envelope carries, if its stamp belongs
/// to the solve open on this thread; else 0.
#[inline]
pub fn recv_seq(stamp: Option<Stamp>) -> u64 {
    match stamp {
        Some(s) if s.trace == current() => s.seq,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_parsing_accepts_common_spellings() {
        assert_eq!(parse_switch("1"), Some(true));
        assert_eq!(parse_switch(" ON "), Some(true));
        assert_eq!(parse_switch("off"), Some(false));
        assert_eq!(parse_switch(""), Some(false));
        assert_eq!(parse_switch("maybe"), None);
    }

    #[test]
    fn disarmed_guard_is_inert_and_stamps_are_none() {
        let _l = crate::tests::locked();
        set_armed(false);
        let g = solve_guard();
        // The solve still has its identity; only the causal stamps wait
        // for the trace level.
        assert_ne!(current(), 0);
        assert!(!thread_active());
        assert!(stamp_send().is_none());
        assert!(recv_start().is_none());
        assert_eq!(next_collective(), 0);
        drop(g);
        assert_eq!(current(), 0);
    }

    #[test]
    fn armed_guard_activates_and_sequences_sends() {
        let _l = crate::tests::locked();
        set_armed(true);
        {
            let _g = solve_guard();
            assert!(thread_active());
            let a = stamp_send().unwrap();
            let b = stamp_send().unwrap();
            assert_eq!(a.trace, b.trace);
            assert_eq!(a.trace, current());
            assert_eq!((a.seq, b.seq), (1, 2));
            assert!(a.posted_ns <= b.posted_ns);
            assert_eq!(recv_seq(Some(b)), 2);
            assert_eq!(recv_seq(Some(Stamp { trace: a.trace + 1, ..b })), 0);
            // Nested solves fold into the enclosing one.
            let inner = solve_guard();
            assert!(!inner.live);
            assert_eq!(current(), a.trace);
        }
        assert!(!thread_active());
        set_armed(false);
    }
}
