//! The one event, the one per-thread log, and the one commit path.
//!
//! Everything the probe knows about *when* something happened is an
//! [`Event`]: two timestamps, the solve it belongs to, and a `Copy`
//! payload with `&'static str` names. Every instrumented layer commits
//! its events through [`emit`] / [`emit_since`], which is the only place
//! in the tree that reads the clock for an event, appends it to the
//! calling thread's [`EventLog`] and folds it into the thread's
//! aggregates (span table, peer matrix, latency histograms). The flight
//! tail, the postmortem, the chrome trace and the critical path are
//! renderers over a snapshot of that log; the summary, JSONL, Prometheus
//! and ledger surfaces render the folds.

use crate::recorder::{self, epoch, Level};
use crate::trace;

/// What one [`Event`] describes. `Copy`, no owned data: committing an
/// event never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A solve opened its scope on this thread (instant).
    Begin,
    /// A solve closed its scope on this thread (instant).
    End,
    /// A scoped span closed; `t0_ns..t1_ns` is the span.
    Span {
        /// Span name as given to [`crate::span!`].
        name: &'static str,
    },
    /// A point-to-point send was posted. `t0_ns` is the clock before the
    /// envelope left while a trace is active, else the event is an instant.
    Send {
        /// Destination world rank.
        peer: usize,
        /// Payload element bytes (as the byte counters count).
        bytes: u64,
        /// Message tag.
        tag: i64,
        /// 1-based per-sender sequence within the traced solve; 0 when
        /// the send was not stamped.
        seq: u64,
    },
    /// A blocking receive completed. While a trace is active `t0_ns` is
    /// when the receive was posted and `t1_ns` when it matched.
    Recv {
        /// Source world rank.
        peer: usize,
        /// Payload element bytes.
        bytes: u64,
        /// Message tag.
        tag: i64,
        /// The sender's sequence from the envelope's stamp; 0 when the
        /// message was unstamped or stamped by a different solve.
        src_seq: u64,
    },
    /// A collective. An instant at entry for most; a blocking reduction
    /// timed by [`crate::SpanGuard::collective`] is the interval, and
    /// inside a traced solve carries its per-rank index (the k-th
    /// reduction on each rank is the same collective, by SPMD structure).
    Collective {
        /// Operation name (`"barrier"`, `"allreduce"`, ...).
        op: &'static str,
        /// 1-based per-rank index within the traced solve; 0 = unindexed.
        index: u64,
    },
    /// One Krylov iteration's residual norm.
    Iter {
        /// Iteration number (1-based, as the Monitor counts).
        iteration: u64,
        /// Residual norm at that iteration.
        residual: f64,
    },
    /// The verdict that stopped a Krylov solve.
    Verdict {
        /// Stable short name of the `ConvergedReason`.
        verdict: &'static str,
        /// Iterations performed when the verdict was reached.
        iteration: u64,
    },
    /// A fault-injection rule fired.
    Fault {
        /// Index of the rule within the armed `FaultPlan`.
        rule: u32,
        /// Operation the rule intercepted.
        op: &'static str,
        /// Injection kind (`"error"`, `"corrupt"`, ...).
        kind: &'static str,
    },
    /// A resilient-driver attempt transition: the one record of a
    /// recovery, which the postmortem's `recovery_path` and
    /// `cohort_change` are rendered from.
    Attempt {
        /// Slot of the attempt spec in the retry chain (0-based).
        slot: u32,
        /// The solve-wide attempt count (1-based): every start, on any
        /// slot, counts one.
        attempt: u32,
        /// How the transition ended.
        outcome: AttemptOutcome,
    },
}

/// Where a resilient-driver attempt went. Each failure carries the class
/// of the error that caused it (`"not-converged"`, `"rank-lost"`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The attempt began.
    Start,
    /// The attempt converged.
    Ok,
    /// A transient failure: the same spec runs again after a backoff.
    Retry(&'static str),
    /// The spec failed for good; the next spec in the chain runs.
    Swap(&'static str),
    /// The last spec failed for good.
    Exhausted(&'static str),
    /// This rank is the one the cohort lost.
    Casualty(&'static str),
    /// The survivors shrank the cohort around a lost rank and run the same
    /// spec again.
    Shrink {
        /// World rank that was lost.
        lost: u32,
        /// Cohort size after the shrink.
        new_size: u32,
        /// Checkpoint iteration the solve resumes from (0 = from scratch).
        resumed_iteration: u64,
    },
    /// A shrink could not complete.
    ShrinkFailed(&'static str),
}

impl AttemptOutcome {
    /// Stable short name of the transition, and the error class of a
    /// failure.
    pub fn describe(&self) -> (&'static str, Option<&'static str>) {
        match *self {
            AttemptOutcome::Start => ("start", None),
            AttemptOutcome::Ok => ("ok", None),
            AttemptOutcome::Retry(cause) => ("retry", Some(cause)),
            AttemptOutcome::Swap(cause) => ("swap", Some(cause)),
            AttemptOutcome::Exhausted(cause) => ("exhausted", Some(cause)),
            AttemptOutcome::Casualty(cause) => ("casualty", Some(cause)),
            AttemptOutcome::Shrink { .. } => ("shrink", None),
            AttemptOutcome::ShrinkFailed(cause) => ("shrink-failed", Some(cause)),
        }
    }
}

impl EventKind {
    /// Whether the always-on black box keeps this kind. `Begin`, `End`
    /// and `Span` reach the log only at [`Level::Trace`]; everything else
    /// is what a postmortem replays and is kept at every level.
    pub fn black_box(&self) -> bool {
        !matches!(self, EventKind::Begin | EventKind::End | EventKind::Span { .. })
    }
}

/// One timestamped event on one thread. Nanoseconds since the
/// process-wide probe epoch; `t0_ns == t1_ns` for instants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Start of the interval.
    pub t0_ns: u64,
    /// End of the interval — when the event was committed.
    pub t1_ns: u64,
    /// Id of the solve active on the thread ([`trace::current`]; 0
    /// outside any solve).
    pub solve: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// A closed scope ([`EventKind::Span`], or a timed
    /// [`EventKind::Collective`]): `(name, nanoseconds)`.
    pub fn scope(&self) -> Option<(&'static str, u64)> {
        match self.kind {
            EventKind::Span { name } => Some((name, self.t1_ns - self.t0_ns)),
            EventKind::Collective { op, .. } if self.t1_ns > self.t0_ns => {
                Some((op, self.t1_ns - self.t0_ns))
            }
            _ => None,
        }
    }
}

/// Nanoseconds since the probe epoch. Scope openers (span guards, a
/// traced send or receive being posted) read it for `t0`; [`emit_since`]
/// reads it for every event's `t1`.
#[inline]
pub(crate) fn now_ns() -> u64 {
    // `as_nanos()` would multiply in u128; seconds + subsec stay in u64.
    let e = epoch().elapsed();
    e.as_secs() * 1_000_000_000 + u64::from(e.subsec_nanos())
}

/// Events every thread's log holds while nothing asked for a trace: the
/// always-on black box a postmortem drains.
pub(crate) const BLACK_BOX_CAPACITY: usize = 256;

/// Events a thread's log holds once it has committed an event at
/// [`Level::Trace`]. A long traced solve must not grow memory without
/// bound; the oldest events go first and are counted as dropped.
pub const TRACE_CAPACITY: usize = 1 << 17;

/// Fixed-capacity, overwrite-oldest event log. Allocated at
/// [`BLACK_BOX_CAPACITY`] on the thread's first event and enlarged once,
/// to [`TRACE_CAPACITY`], on its first event at [`Level::Trace`]; after
/// that it is only overwritten in place.
#[derive(Debug, Default)]
pub(crate) struct EventLog {
    buf: Vec<Event>,
    cap: usize,
    /// Next write position once the buffer is full.
    head: usize,
    /// Events ever pushed (so readers know how much history is gone).
    total: u64,
}

impl EventLog {
    #[inline]
    fn push(&mut self, ev: Event, cap: usize) {
        if self.cap < cap {
            // One-time (re)allocation, keeping the retained events in order.
            let mut buf = Vec::with_capacity(cap);
            buf.extend(self.iter().copied());
            (self.buf, self.cap, self.head) = (buf, cap, 0);
        }
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
        }
        self.total += 1;
    }

    /// Retained events, oldest first (commit order, so `t1_ns` ascends).
    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = &Event> + Clone {
        self.buf[self.head..].iter().chain(&self.buf[..self.head])
    }

    /// Events ever committed to this log.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Events overwritten so far: `total − retained`.
    pub(crate) fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Forget every event; the allocation is kept.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        (self.head, self.total) = (0, 0);
    }
}

/// Commit an instant event on the calling thread. Returns the event.
#[inline]
pub fn emit(kind: EventKind) -> Event {
    emit_since(None, kind)
}

/// Commit an event that began at `t0_ns` (what a [`crate::trace::Stamp`]
/// or [`crate::trace::recv_start`] handed out; `None` for an instant) and
/// ends now. Reads the clock once, stamps the active
/// solve id, appends to this thread's log — black-box kinds always,
/// `Begin`/`End`/`Span` at [`Level::Trace`] — and folds the aggregates:
/// sends and receives into the peer matrix; a closed scope into the span
/// table and, if its name has one, a latency histogram; at
/// [`Level::Spans`] and up, the gap since the solve's previous `Iter`
/// (or its `Begin`) into the iteration-time histogram. Returns the event.
pub fn emit_since(t0_ns: Option<u64>, kind: EventKind) -> Event {
    let level = recorder::level();
    let t1_ns = now_ns();
    let ev = Event { t0_ns: t0_ns.unwrap_or(t1_ns), t1_ns, solve: trace::current(), kind };
    // A scope opened by a span guard owns the innermost frame of the
    // thread's child-time stack; closing it charges the parent.
    let child_ns = match (t0_ns, kind) {
        (Some(_), EventKind::Span { .. } | EventKind::Collective { .. }) => {
            Some(recorder::pop_frame(t1_ns - ev.t0_ns))
        }
        _ => None,
    };
    recorder::with_local(|r| {
        let mut local = r.local();
        if level == Level::Trace {
            local.log.push(ev, TRACE_CAPACITY);
        } else if kind.black_box() {
            local.log.push(ev, BLACK_BOX_CAPACITY);
        }
        local.fold(&ev, child_ns, level);
    });
    ev
}
