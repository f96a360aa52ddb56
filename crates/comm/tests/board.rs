//! The reduction board under `allreduce` and `allreduce_vec`: a lost rank
//! still gives every survivor `RankLost` within a park slice, boards are
//! freed with their communicators, reductions on different communicators
//! never meet, and a warm reduction allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use rcomm::{sum, CommError, FaultPlan, Universe};

thread_local! {
    /// Allocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed.
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: i64, allocs: u64) {
    let _ = NET_BYTES.try_with(|c| c.set(c.get() + bytes));
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
}

// SAFETY: defers to `System`; the counters are const-initialised
// thread-local `Cell`s with no destructor, so touching them cannot
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64, 1);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64, 1);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64), 0);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64, 1);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn rank_killed_while_the_others_wait_gives_rank_lost_within_a_slice() {
    // A long watchdog, so only the cohort check of the park slices can
    // deliver the verdict in time.
    std::env::set_var("RCOMM_DEADLOCK_TIMEOUT_SECS", "20");
    let plan = FaultPlan::parse("op=allreduce,rank=1,call=2,kind=kill").unwrap();
    let out = Universe::run_with_faults(3, Some(plan), |c| {
        c.allreduce(1u64, sum).unwrap();
        if c.rank() == 1 {
            // Let the survivors spin out, yield and park first.
            std::thread::sleep(Duration::from_millis(100));
        }
        let verdict = c.allreduce(1.0f64, sum);
        (verdict, Instant::now())
    });
    let killed_at = out[1].1;
    assert_eq!(out[1].0, Err(CommError::RankLost(1)));
    for rank in [0, 2] {
        assert_eq!(out[rank].0, Err(CommError::RankLost(1)), "rank {rank}");
        let late = out[rank].1.saturating_duration_since(killed_at);
        // One park slice is 10 ms; allow a loaded host its scheduling.
        assert!(late < Duration::from_millis(500), "rank {rank} saw it {late:?} after the kill");
    }
}

#[test]
fn ten_thousand_dups_leave_the_board_map_bounded() {
    const DUPS: u64 = 10_000;
    let out = Universe::run(2, |c| {
        // Warm the world's board and the map's first entries.
        c.allreduce(1u64, sum).unwrap();
        let before = NET_BYTES.with(Cell::get);
        for i in 0..DUPS {
            let d = c.dup().unwrap();
            assert_eq!(d.allreduce(i, sum).unwrap(), 2 * i);
        }
        c.barrier().unwrap();
        NET_BYTES.with(Cell::get) - before
    });
    // A board dies with the last handle on it, on either rank, so what
    // the two ranks kept between them is the growth.
    let kept: i64 = out.iter().sum();
    // Each board is two 128-byte slots; ten thousand kept would be
    // megabytes, a few kept (and the map's table) are a few kilobytes.
    assert!(kept < 64 << 10, "{kept} bytes kept over {DUPS} dups");
}

#[test]
fn reductions_on_the_world_a_dup_and_a_split_never_cross_match() {
    const ROUNDS: u64 = 2_000;
    let out = Universe::run(3, |c| {
        let d = c.dup().unwrap();
        // Ranks 0 and 1 form a pair; rank 2 is alone in its half.
        let pair = c.split((c.rank() / 2) as u64, 0).unwrap();
        let me = c.rank() as u64;
        let mut seen = Vec::new();
        for i in 0..ROUNDS {
            // Ranks reach each call at different moments.
            if (i + me).is_multiple_of(7) {
                std::thread::yield_now();
            }
            let on_world = || c.allreduce(i * 1000 + me, sum).unwrap();
            let on_dup = || d.allreduce_vec(&[i as f64, -(me as f64)], sum).unwrap();
            let on_pair = || pair.allreduce(me as f64 + 0.5, sum).unwrap();
            // Both nestings: the world's reduction outside the others and
            // inside them. The pair reduces while rank 2 is already on
            // the dup or the world.
            let (w, v, q) = if i % 2 == 0 {
                let w = on_world();
                let v = on_dup();
                (w, v, on_pair())
            } else {
                let q = on_pair();
                let v = on_dup();
                (on_world(), v, q)
            };
            seen.push((w, v, q));
        }
        seen
    });
    for (rank, seen) in out.iter().enumerate() {
        let pair_sum = if rank < 2 { 2.0 } else { 2.5 };
        for (i, (w, v, q)) in seen.iter().enumerate() {
            let i = i as u64;
            assert_eq!(*w, 3 * i * 1000 + 3, "rank {rank}, round {i}: world");
            assert_eq!(v, &vec![3.0 * i as f64, -3.0], "rank {rank}, round {i}: dup");
            assert_eq!(*q, pair_sum, "rank {rank}, round {i}: pair");
        }
    }
}

#[test]
fn warm_two_rank_f64_allreduce_allocates_nothing() {
    let out = Universe::run(2, |c| {
        // The first calls find the board and fill both payloads.
        for _ in 0..4 {
            c.allreduce(1.0f64, sum).unwrap();
        }
        let before = ALLOCS.with(Cell::get);
        let mut acc = 0.0;
        for i in 0..1_000 {
            acc += c.allreduce(i as f64, sum).unwrap();
        }
        (ALLOCS.with(Cell::get) - before, acc)
    });
    for (rank, (allocs, acc)) in out.into_iter().enumerate() {
        assert_eq!(allocs, 0, "rank {rank}: {allocs} allocations in 1000 warm allreduces");
        assert_eq!(acc, 999_000.0);
    }
}

#[test]
fn warm_two_rank_vec17_allreduce_allocates_only_its_result() {
    let out = Universe::run(2, |c| {
        let mine = vec![1.0f64; 17];
        for _ in 0..4 {
            c.allreduce_vec(&mine, sum).unwrap();
        }
        let before = ALLOCS.with(Cell::get);
        for _ in 0..1_000 {
            assert_eq!(c.allreduce_vec(&mine, sum).unwrap()[16], 2.0);
        }
        ALLOCS.with(Cell::get) - before
    });
    for (rank, allocs) in out.into_iter().enumerate() {
        // The returned vector is the only allocation: the deposit reuses
        // the slot's buffer and the fold reads the peer's in place.
        assert_eq!(allocs, 1_000, "rank {rank}: {allocs} allocations in 1000 warm allreduces");
    }
}
