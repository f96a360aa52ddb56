//! Scoped spans and section timers: the guards that open an interval and
//! commit it as one event when they close.

use std::time::Instant;

use crate::event::{emit, emit_since, now_ns, EventKind};
use crate::recorder::{enabled, push_frame};
use crate::trace;

/// RAII guard for a scoped span; created by [`crate::span!`]. Commits
/// its event on drop. Inert (no clock read, no allocation) below
/// [`crate::Level::Spans`].
#[must_use = "binding the guard keeps the span open until end of scope"]
pub struct SpanGuard {
    live: Option<(EventKind, u64)>,
}

impl SpanGuard {
    /// Open a span named `name`. Prefer the [`crate::span!`] macro.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !enabled() {
            return SpanGuard { live: None };
        }
        push_frame();
        SpanGuard { live: Some((EventKind::Span { name }, now_ns())) }
    }

    /// Enter a blocking reduction named `op` — one
    /// [`EventKind::Collective`] either way. Below [`crate::Level::Spans`]
    /// it is committed here, as the instant the black box records for
    /// every collective, and the guard is inert; otherwise the guard
    /// times the reduction as a span named `op` (wait-attributed: time
    /// blocked riding the reduction) and commits the interval when it
    /// drops, indexed within a traced solve.
    #[inline]
    pub fn collective(op: &'static str) -> SpanGuard {
        if !enabled() {
            emit(EventKind::Collective { op, index: 0 });
            return SpanGuard { live: None };
        }
        push_frame();
        let index = trace::next_collective();
        SpanGuard { live: Some((EventKind::Collective { op, index }, now_ns())) }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((kind, t0_ns)) = self.live.take() {
            emit_since(Some(t0_ns), kind);
        }
    }
}

/// A timer that always measures wall-clock seconds (its callers need the
/// number regardless of probe mode) and additionally records a span when
/// the probe is enabled: one construct yields both the caller's
/// `SolveReport` seconds and the probe's per-rank span.
#[must_use = "call stop() to retrieve the measured seconds"]
pub struct SectionTimer {
    start: Instant,
    /// Closes on drop, so early-return/`?` paths still record the span;
    /// the measured seconds are simply lost to the caller.
    span: SpanGuard,
}

impl SectionTimer {
    /// Start timing a named section.
    pub fn start(name: &'static str) -> SectionTimer {
        SectionTimer { start: Instant::now(), span: SpanGuard::enter(name) }
    }

    /// Stop and return the elapsed wall-clock seconds, recording the span
    /// if spans were active at start.
    pub fn stop(self) -> f64 {
        drop(self.span);
        self.start.elapsed().as_secs_f64()
    }
}
