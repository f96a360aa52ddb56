//! Probe instrumentation tests for the overlapped distributed matvec:
//! the per-phase spans (halo_post / spmv_interior / halo_drain /
//! spmv_boundary) and halo counters must be mutually consistent across
//! 1–8 ranks, and the disabled-probe path must stay allocation-free in
//! steady state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use proptest::prelude::*;
use rcomm::Universe;
use rsparse::{BlockRowPartition, DistCsrMatrix, DistVector};

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

/// The probe mode is process-global; tests that flip it must not
/// interleave (proptest may run cases from several #[test]s in parallel).
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Halo messages a rank of a block-row-partitioned 1-D Laplacian sends
/// per matvec: one value to each existing neighbour.
fn expected_halo_msgs(rank: usize, p: usize) -> u64 {
    if p == 1 {
        0
    } else if rank == 0 || rank == p - 1 {
        1
    } else {
        2
    }
}

proptest! {
    // Each case spawns a universe; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn span_times_and_halo_counters_are_consistent(
        p in 1usize..=8,
        iters in 1usize..=6,
    ) {
        let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // 8 rows per rank so every rank has both interior and boundary rows.
        let n = 8 * p;
        let a = rsparse::generate::laplacian_1d(n);
        probe::set_mode(probe::ProbeMode::Summary);
        let per_rank = Universe::run(p, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
            let dx = DistVector::from_global(part.clone(), comm.rank(), &vec![1.0; n]).unwrap();
            let mut dy = DistVector::zeros(part, comm.rank());
            // Setup traffic (from_global) is excluded by snapshotting first.
            let before = probe::local_report();
            let sends_before = comm.stats().sends;
            for _ in 0..iters {
                da.matvec_into(comm, &dx, &mut dy).unwrap();
            }
            (probe::local_report(), before, comm.stats().sends - sends_before)
        });
        probe::set_mode(probe::ProbeMode::Off);
        probe::reset();

        for (rank, (report, before, comm_sends)) in per_rank.into_iter().enumerate() {
            let iters_u64 = iters as u64;
            let span_calls = |name: &str| -> u64 {
                report.span(name).map(|s| s.calls).unwrap_or(0)
                    - before.span(name).map(|s| s.calls).unwrap_or(0)
            };
            // Every phase runs exactly once per matvec.
            prop_assert_eq!(span_calls("matvec"), iters_u64);
            prop_assert_eq!(span_calls("halo_post"), iters_u64);
            prop_assert_eq!(span_calls("spmv_interior"), iters_u64);
            prop_assert_eq!(span_calls("halo_drain"), iters_u64);
            prop_assert_eq!(span_calls("spmv_boundary"), iters_u64);
            prop_assert_eq!(
                report.counter(probe::Counter::MatvecCalls)
                    - before.counter(probe::Counter::MatvecCalls),
                iters_u64
            );

            // Halo traffic: one message per neighbour per matvec, 8 bytes
            // (one f64) each for the 1-D Laplacian, and the communicator's
            // own send count agrees with the probe's.
            let msgs = report.counter(probe::Counter::HaloMessages)
                - before.counter(probe::Counter::HaloMessages);
            let bytes = report.counter(probe::Counter::HaloBytes)
                - before.counter(probe::Counter::HaloBytes);
            prop_assert_eq!(msgs, iters_u64 * expected_halo_msgs(rank, p));
            prop_assert_eq!(bytes, msgs * 8);
            prop_assert_eq!(comm_sends, msgs);

            // Phase times nest inside the matvec total: the four children
            // cannot exceed their parent (allow scheduler jitter slop).
            let total = |name: &str| report.span(name).map(|s| s.total_s).unwrap_or(0.0);
            let children = total("halo_post")
                + total("spmv_interior")
                + total("halo_drain")
                + total("spmv_boundary");
            prop_assert!(children <= total("matvec") + 1e-4);
            for s in &report.spans() {
                prop_assert!(s.self_s >= 0.0);
                prop_assert!(s.self_s <= s.total_s + 1e-9);
            }
        }
    }
}

#[test]
fn disabled_probe_path_is_allocation_free_in_steady_state() {
    let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    probe::set_mode(probe::ProbeMode::Off);
    let p = 4;
    let n = 64;
    let a = rsparse::generate::laplacian_1d(n);
    let out = Universe::run(p, |comm| {
        let part = BlockRowPartition::even(n, comm.size());
        let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
        let dx = DistVector::from_global(part.clone(), comm.rank(), &vec![1.0; n]).unwrap();
        let mut dy = DistVector::zeros(part, comm.rank());
        // Prime the workspace, then hammer the steady state.
        da.matvec_into(comm, &dx, &mut dy).unwrap();
        let before = ALLOCS.with(Cell::get);
        for _ in 0..20 {
            da.matvec_into(comm, &dx, &mut dy).unwrap();
        }
        let allocs = ALLOCS.with(Cell::get) - before;
        let report = probe::local_report();
        (allocs, report.span("matvec").is_none(), report.counter(probe::Counter::MatvecCalls))
    });
    probe::reset();
    for (allocs, no_span, matvecs) in out {
        assert_eq!(allocs, 0, "steady-state matvec must not allocate");
        assert!(no_span, "disabled probe must record no spans");
        // Counters stay live even when spans are off.
        assert_eq!(matvecs, 21);
    }
}
