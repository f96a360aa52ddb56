//! The promises the per-thread event log makes: committing an event never
//! allocates once the thread is warm — at any level — and a log that
//! wraps keeps the newest events, in order, and says how many are gone,
//! so a critical path over an overflowed trace is the retained tail with
//! a dropped count rather than a wrong total.
//!
//! Own binary: it installs a counting allocator and flips the
//! process-wide level; the tests take turns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use probe::{emit, AttemptOutcome, EventKind, Level, ProbeMode};

thread_local! {
    /// Allocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers to `System`; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it cannot allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

static LEVEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Allocations the calling thread makes while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// One round of what a rank commits per Krylov iteration: a span around
/// a timed reduction, a send and a receive, an iteration — plus the
/// rarer kinds.
fn one_of_each(i: u64) {
    let _outer = probe::span!("steady_outer");
    {
        let _wait = probe::SpanGuard::collective("allreduce");
    }
    emit(EventKind::Send { peer: 1, bytes: 8, tag: 7001, seq: 0 });
    emit(EventKind::Recv { peer: 1, bytes: 8, tag: 7001, src_seq: 0 });
    emit(EventKind::Collective { op: "barrier", index: 0 });
    emit(EventKind::Iter { iteration: i, residual: 0.5 });
    emit(EventKind::Fault { rule: 0, op: "send", kind: "delay" });
    emit(EventKind::Attempt { slot: 0, attempt: 1, outcome: AttemptOutcome::Start });
    emit(EventKind::Verdict { verdict: "rtol", iteration: i });
}

#[test]
fn ten_thousand_emits_allocate_nothing_at_any_level() {
    let _turn = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::thread::spawn(|| {
        probe::set_rank(0);
        let steady = |what: &str| {
            // Warm-up: the log, the span-table rows, the peer cells.
            for i in 0..300 {
                one_of_each(i);
            }
            let n = allocs_during(|| {
                for i in 0..10_000 {
                    one_of_each(i);
                }
            });
            assert_eq!(n, 0, "{what}: 10 000 rounds of emits allocated {n} times");
        };

        probe::set_mode(ProbeMode::Off);
        assert_eq!(probe::level(), Level::Counters);
        steady("level counters");
        assert!(probe::local_report().span("steady_outer").is_none(), "no span below `spans`");

        probe::set_mode(ProbeMode::Summary);
        assert_eq!(probe::level(), Level::Spans);
        steady("level spans");
        assert!(probe::local_report().span("steady_outer").unwrap().calls >= 10_300);

        // A traced solve: the first event enlarges the log, once; ten
        // thousand rounds then wrap it several times over in place.
        probe::set_mode(ProbeMode::Off);
        probe::trace::set_armed(true);
        assert_eq!(probe::level(), Level::Trace);
        {
            let _solve = probe::trace::solve_guard();
            steady("inside a traced solve");
        }
        probe::trace::set_armed(false);
    })
    .join()
    .unwrap();
    probe::reset();
}

#[test]
fn a_wrapped_log_keeps_the_newest_events_in_order_and_counts_the_rest() {
    let _turn = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    probe::set_mode(ProbeMode::Off);
    std::thread::spawn(|| {
        let n = probe::flight::CAPACITY as u64 + 10;
        for i in 0..n {
            emit(EventKind::Iter { iteration: i, residual: 1.0 });
        }
        let (tail, total) = probe::flight::local_tail();
        assert_eq!(total, n);
        assert_eq!(tail.len(), probe::flight::CAPACITY);
        assert_eq!(total - tail.len() as u64, 10, "dropped = total − retained");
        // The oldest retained event is exactly total − capacity, the
        // newest the last one committed, and time never runs backward.
        let iteration = |e: &probe::Event| match e.kind {
            EventKind::Iter { iteration, .. } => iteration,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(iteration(tail.first().unwrap()), 10);
        assert_eq!(iteration(tail.last().unwrap()), n - 1);
        assert!(tail.windows(2).all(|w| w[0].t1_ns <= w[1].t1_ns));
        assert!(tail.windows(2).all(|w| iteration(&w[0]) + 1 == iteration(&w[1])));
    })
    .join()
    .unwrap();
    probe::reset();
}

#[test]
fn a_critical_path_over_an_overflowed_trace_ends_at_end_and_reports_the_drop() {
    let _turn = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    probe::reset();
    probe::trace::set_armed(true);
    let extra = 1_000u64;
    let head = std::time::Duration::from_millis(60);
    let solve_wall = std::thread::spawn(move || {
        probe::set_rank(0);
        let t = std::time::Instant::now();
        let _solve = probe::trace::solve_guard();
        // Begin, a pause, (capacity + extra) spans, End: Begin and the
        // first spans are overwritten before the solve ends, and the
        // pause with them.
        std::thread::sleep(head);
        for _ in 0..probe::TRACE_CAPACITY as u64 + extra {
            let _s = probe::span!("spmv_interior");
        }
        t.elapsed().as_secs_f64()
    })
    .join()
    .unwrap();
    probe::trace::set_armed(false);

    let cp = probe::critpath::analyze_latest().expect("the traced solve left a log");
    let text = probe::critpath::render(&cp);
    let chrome = probe::chrome_trace_json();
    probe::reset();

    // Begin, End and every span were committed; the log retains capacity.
    assert_eq!(cp.dropped, extra + 2, "dropped = total − retained");
    assert!(text.contains(&format!("{} events dropped", extra + 2)), "render:\n{text}");
    assert!(chrome.contains(&format!("\"droppedEvents\":{}", extra + 2)), "chrome otherData");
    // The walk still ends at End and stays inside the retained window,
    // which opens at the oldest retained span: not at the probe's time
    // zero, and not at the Begin that is gone (the pause is outside it).
    assert!(cp.end_to_end_s > 0.0);
    assert!(
        cp.covered_s() <= cp.end_to_end_s * (1.0 + 1e-9),
        "path {} s over a window of {} s",
        cp.covered_s(),
        cp.end_to_end_s
    );
    assert!(
        cp.end_to_end_s < solve_wall - 0.9 * head.as_secs_f64(),
        "window {} s of a {} s solve",
        cp.end_to_end_s,
        solve_wall
    );
    let r0 = cp.ranks.iter().find(|r| r.rank == 0).expect("rank 0 totals");
    assert!(r0.compute_s > 0.0 && r0.compute_s <= cp.end_to_end_s);
}
