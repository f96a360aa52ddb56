//! `probe` — per-rank structured tracing and metrics for the CCA-LISI
//! reproduction.
//!
//! The paper's entire evaluation (Figure 5, Table 1) is an
//! overhead-accounting exercise: proving the CCA component layer adds only
//! a small constant cost over the native solver libraries. This crate is
//! the measurement substrate that makes such claims first-class instead of
//! ad-hoc stopwatch plumbing — and it is one mechanism with several
//! renderers:
//!
//! ```text
//!  span!/SectionTimer ─┐                 ┌─ log ───► flight tail, postmortem,
//!  comm send/recv/coll ┤                 │           chrome trace, critical path
//!  Krylov iter/verdict ┼─► Event ─► emit ┤
//!  fault, attempt      ┤   (Copy, one    └─ folds ─► RankReport ─► tables ─┬─► text
//!  solve begin/end ────┘   clock read)    { rank, counters, folds }        ├─► JSON
//!                                                                          └─► Prometheus
//! ```
//!
//! * **One event.** [`Event`] `{ t0_ns, t1_ns, solve, kind }` — `Copy`,
//!   `&'static str` names, no allocation. A scoped span
//!   (`let _s = probe::span!("halo_exchange");`), a posted send, a matched
//!   receive, a collective, a Krylov iteration, a verdict, a fired fault,
//!   a resilient attempt and a solve's begin/end are all [`EventKind`]s.
//! * **One commit path.** [`emit`] / [`emit_since`] read the clock, stamp
//!   the solve id ([`trace::current`]), append to the calling thread's
//!   fixed-capacity overwrite-oldest log and fold the aggregates: the
//!   span table (total and self time per name — the self-time of the
//!   `port:*` spans **is** the paper's component-layer overhead), the
//!   rank×rank peer matrix, and the latency histograms ([`hist`]: a
//!   family is a row of a span-name table).
//! * **One level**, process-wide and *derived* from what was asked for:
//!
//!   | [`Level`] | asked for by | a span site costs | the log holds |
//!   |---|---|---|---|
//!   | `Counters` | nothing (the default) | one relaxed load | the last 256 comm / iteration / verdict / fault / attempt events |
//!   | `Spans` | `RSPARSE_PROBE` ≠ `off`, [`set_mode`], `set("probe", …)`, or a solve-ledger destination | two clock reads, one lock, one table update | the same |
//!   | `Trace` | `RSPARSE_TRACE=1`, [`trace::set_armed`], `set("trace", "on")`, or the `chrome` mode | the same plus one log write | up to 2¹⁷ events incl. spans and solve begin/end (enlarged once per thread) |
//!
//!   Typed counters ([`Counter`]) are relaxed atomics and, like the
//!   black-box events, on at every level; there is no switch that turns
//!   the black box off — it is what the postmortem writer drains when a
//!   solve fails, and its cost sits inside every measured solve.
//! * **Renderers.** Of the log: [`flight`] (the black-box tail),
//!   [`chrome_trace_json`], [`critpath`] (the cross-rank happens-before
//!   walk that attributes wall-clock to local / wait-on-rank-r /
//!   collective segments). Of the folds: one [`RankReport`] per rank,
//!   whose contents are tables of rank × key × typed columns, with one
//!   writer per format — text ([`render_summary`], [`render_imbalance`]),
//!   JSON ([`render_jsonl`], [`kernel_efficiency_json`], postmortem
//!   fragments, the solve [`ledger`]) and Prometheus ([`export`]). They
//!   agree because they render the same events, and each names the solve
//!   by the same `trace_id`. A Krylov solve's residual stream is its
//!   `Iter` events and its `Verdict`; there is no callback beside the log.
//!
//! # Ranks
//!
//! Recording is per OS thread; the SPMD launcher calls [`set_rank`] on
//! every rank thread it spawns, so reports group naturally by rank.
//! [`aggregate`] merges every recorder created since the last [`reset`],
//! combining recorders that share a rank (e.g. across repeated
//! `Universe::run` launches).

#![warn(missing_docs)]

mod counter;
pub mod critpath;
mod event;
pub mod export;
pub mod flight;
pub mod hist;
pub mod json;
pub mod ledger;
pub mod model;
mod recorder;
mod sink;
mod span;
mod table;
pub mod trace;

pub use counter::{add, get, incr, Counter};
pub use event::{emit, emit_since, AttemptOutcome, Event, EventKind, TRACE_CAPACITY};
pub use model::{KernelEfficiency, KernelModel, Roofline, TimeBase, WorkUnit};
pub use recorder::{
    enabled, level, mode, note, reset, reset_epoch, set_mode, set_rank, Level, PeerStat, ProbeMode,
};
pub use sink::{
    aggregate, chrome_trace_json, comm_matrix, kernel_efficiency_json, local_report,
    render_comm_matrix, render_flight, render_imbalance, render_jsonl, render_summary,
    render_wait_attribution, write_chrome_trace, CommMatrix, RankReport, SpanSummary,
};
pub use span::{SectionTimer, SpanGuard};

/// Open a scoped span: records wall-clock time under `$name` (a `&'static
/// str`) from here to the end of the enclosing scope, attributing the
/// elapsed time to any enclosing span's child total. Bind the guard —
/// `let _span = probe::span!("halo_drain");` — or it closes immediately.
///
/// Below [`Level::Spans`] this is a single relaxed atomic load and an
/// inert guard: no clock read, no event, no allocation.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

/// Emit one pre-formatted JSON line to stderr when the probe mode is
/// [`ProbeMode::Json`]. Layers that stream structured events as they
/// happen (e.g. the resilient solver's per-attempt records) use this so
/// `RSPARSE_PROBE=json` shows the event stream alongside the rank
/// reports; in every other mode the call is a single mode check.
pub fn emit_jsonl(line: &str) {
    if mode() == ProbeMode::Json {
        eprintln!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests that flip the process-wide level must not interleave — in
    /// any module of this crate: mode, trace and ledger share one switch.
    static LEVEL_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn locked() -> std::sync::MutexGuard<'static, ()> {
        LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn mode_parses_all_spellings() {
        assert_eq!(ProbeMode::parse("off"), Some(ProbeMode::Off));
        assert_eq!(ProbeMode::parse(""), Some(ProbeMode::Off));
        assert_eq!(ProbeMode::parse("0"), Some(ProbeMode::Off));
        assert_eq!(ProbeMode::parse("summary"), Some(ProbeMode::Summary));
        assert_eq!(ProbeMode::parse("SUMMARY"), Some(ProbeMode::Summary));
        assert_eq!(ProbeMode::parse("json"), Some(ProbeMode::Json));
        assert_eq!(ProbeMode::parse("jsonl"), Some(ProbeMode::Json));
        assert_eq!(ProbeMode::parse("chrome"), Some(ProbeMode::Chrome));
        assert_eq!(ProbeMode::parse("trace"), Some(ProbeMode::Chrome));
        assert_eq!(ProbeMode::parse("flight"), Some(ProbeMode::Flight));
        assert_eq!(ProbeMode::parse("blackbox"), Some(ProbeMode::Flight));
        assert_eq!(ProbeMode::parse("bogus"), None);
        for m in [
            ProbeMode::Off,
            ProbeMode::Summary,
            ProbeMode::Json,
            ProbeMode::Chrome,
            ProbeMode::Flight,
        ] {
            assert_eq!(ProbeMode::parse(m.name()), Some(m));
        }
    }

    #[test]
    fn counters_accumulate_on_this_thread() {
        let _g = locked();
        reset();
        let before = get(Counter::HaloMessages);
        add(Counter::HaloMessages, 3);
        incr(Counter::HaloMessages);
        assert_eq!(get(Counter::HaloMessages), before + 4);
        let report = local_report();
        assert_eq!(report.counter(Counter::HaloMessages), before + 4);
    }

    #[test]
    fn spans_nest_and_split_self_time() {
        let _g = locked();
        reset();
        set_mode(ProbeMode::Summary);
        {
            let _outer = span!("outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = span!("inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        set_mode(ProbeMode::Off);
        let report = local_report();
        let outer = report.span("outer").expect("outer recorded");
        let inner = report.span("inner").expect("inner recorded");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        // Outer's total covers inner; outer's self excludes it.
        assert!(outer.total_s >= inner.total_s);
        assert!(outer.self_s <= outer.total_s - inner.total_s + 1e-6);
        assert!(inner.self_s > 0.0);
        reset();
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = locked();
        reset();
        set_mode(ProbeMode::Off);
        {
            let _s = span!("ghost");
        }
        assert!(local_report().span("ghost").is_none());
    }

    #[test]
    fn section_timer_returns_seconds_even_when_disabled() {
        let _g = locked();
        reset();
        set_mode(ProbeMode::Off);
        let t = SectionTimer::start("always_timed");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let secs = t.stop();
        assert!(secs >= 0.001);
        // Disabled: timing is returned to the caller but no span recorded.
        assert!(local_report().span("always_timed").is_none());

        set_mode(ProbeMode::Summary);
        let secs = SectionTimer::start("timed_section").stop();
        set_mode(ProbeMode::Off);
        assert!(secs >= 0.0);
        assert_eq!(local_report().span("timed_section").unwrap().calls, 1);
        reset();
    }

    #[test]
    fn notes_flow_through_reports_and_sinks() {
        let _g = locked();
        reset();
        note("batch", "nrhs=2");
        note("batch", "nrhs=8"); // last write wins
        add(Counter::RhsBatched, 8);
        let report = local_report();
        assert_eq!(report.note("batch"), Some("nrhs=8"));
        assert_eq!(report.counter(Counter::RhsBatched), 8);
        let summary = render_summary(std::slice::from_ref(&report));
        assert!(summary.contains("notes:"), "missing notes block:\n{summary}");
        assert!(summary.contains("batch"));
        assert!(summary.contains("nrhs=8"));
        assert!(summary.contains("rhs_batched"));
        let jsonl = render_jsonl(std::slice::from_ref(&report));
        assert!(jsonl.contains("\"notes\":{\"batch\":\"nrhs=8\"}"), "{jsonl}");
        reset();
        assert_eq!(local_report().note("batch"), None);
    }

    #[test]
    fn aggregate_merges_recorders_by_rank() {
        let _g = locked();
        reset();
        set_mode(ProbeMode::Summary);
        // Two waves of threads with the same ranks, as repeated SPMD
        // launches produce.
        for _wave in 0..2 {
            let handles: Vec<_> = (0..3)
                .map(|rank| {
                    std::thread::spawn(move || {
                        set_rank(rank);
                        add(Counter::Allreduces, (rank + 1) as u64);
                        let _s = span!("work");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
        set_mode(ProbeMode::Off);
        let reports = aggregate();
        let ranked: Vec<&RankReport> = reports.iter().filter(|r| r.rank.is_some()).collect();
        assert_eq!(ranked.len(), 3);
        for (i, r) in ranked.iter().enumerate() {
            assert_eq!(r.rank, Some(i));
            assert_eq!(r.counter(Counter::Allreduces), 2 * (i + 1) as u64);
            assert_eq!(r.span("work").unwrap().calls, 2);
        }
        reset();
    }

    #[test]
    fn comm_matrix_and_imbalance_render_from_peer_accounting() {
        let _g = locked();
        reset();
        set_mode(ProbeMode::Summary);
        let handles: Vec<_> = (0..3usize)
            .map(|rank| {
                std::thread::spawn(move || {
                    set_rank(rank);
                    // Ring pattern: each rank sends 2 msgs of 8 bytes to
                    // the next rank and receives 2 from the previous.
                    let next = (rank + 1) % 3;
                    let prev = (rank + 2) % 3;
                    for _ in 0..2 {
                        emit(EventKind::Send { peer: next, bytes: 8, tag: 1, seq: 0 });
                        emit(EventKind::Recv { peer: prev, bytes: 8, tag: 1, src_seq: 0 });
                    }
                    add(Counter::SendsPosted, 2);
                    add(Counter::BytesSent, 16);
                    let _s = span!("work");
                    std::thread::sleep(std::time::Duration::from_millis(1 + rank as u64));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_mode(ProbeMode::Off);
        let reports = aggregate();
        let m = comm_matrix(&reports);
        assert_eq!(m.ranks, vec![0, 1, 2]);
        for (i, row) in m.msgs.iter().enumerate() {
            assert_eq!(row.iter().sum::<u64>(), 2, "row {i} total");
            assert_eq!(m.bytes[i].iter().sum::<u64>(), 16);
            // Column totals match the receive side of the ring.
            let col: u64 = m.msgs.iter().map(|r| r[i]).sum();
            assert_eq!(col, 2, "col {i} total");
        }
        let rendered = render_comm_matrix(&reports);
        assert!(rendered.contains("comm matrix"));
        assert!(rendered.contains("2/16"));
        let imb = render_imbalance(&reports);
        assert!(imb.contains("cross-rank span imbalance"));
        assert!(imb.contains("work"));
        assert!(imb.contains("max/mean"));
        // The summary embeds both sections.
        let summary = render_summary(&reports);
        assert!(summary.contains("comm matrix"));
        assert!(summary.contains("span imbalance"));
        reset();
    }

    #[test]
    fn chrome_trace_is_loadable_json_shape() {
        let _g = locked();
        reset();
        set_mode(ProbeMode::Chrome);
        {
            let _s = span!("traced");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        set_mode(ProbeMode::Off);
        let json = chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"name\":\"traced\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":"));
        assert!(json.contains("\"dur\":"));
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser dependency.
        let (mut braces, mut brackets) = (0i64, 0i64);
        for c in json.chars() {
            match c {
                '{' => braces += 1,
                '}' => braces -= 1,
                '[' => brackets += 1,
                ']' => brackets -= 1,
                _ => {}
            }
        }
        assert_eq!((braces, brackets), (0, 0));
        reset();
    }

    #[test]
    fn renderers_produce_rank_rows() {
        let _g = locked();
        reset();
        set_mode(ProbeMode::Summary);
        let handles: Vec<_> = (0..2)
            .map(|rank| {
                std::thread::spawn(move || {
                    set_rank(rank);
                    add(Counter::PortCalls, 5);
                    let t = SectionTimer::start("lisi_solve");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    t.stop();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_mode(ProbeMode::Off);
        let reports = aggregate();
        let summary = render_summary(&reports);
        assert!(summary.contains("rank 0"));
        assert!(summary.contains("rank 1"));
        assert!(summary.contains("lisi_solve"));
        assert!(summary.contains("port_calls"));
        let jsonl = render_jsonl(&reports);
        assert_eq!(jsonl.trim().lines().count(), reports.len());
        for line in jsonl.trim().lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        reset();
    }
}
