//! The halo line's contract: an end opened before a collective is met by
//! a peer that has passed it, even after that peer's closure returned; a
//! sender that runs ahead waits for room instead of allocating; a fired
//! `drop` publishes nothing; a lost peer fails a blocked `take` within a
//! park slice; and a line counts the bytes it carries, in the stats and
//! in the rank×rank matrix alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use probe::Counter;
use rcomm::{CommError, FaultPlan, Universe};

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

const TAG: i32 = 7001;

#[test]
fn a_post_outlives_its_senders_closure_until_the_receiver_takes_it() {
    for _ in 0..20 {
        let out = Universe::run(2, |c| {
            // Both ends are opened before a collective, as a plan build
            // opens its incoming lines before the halo plan's all-to-all.
            let line = if c.rank() == 0 {
                c.open_send_line(1, TAG, 3).unwrap()
            } else {
                c.open_recv_line(0, TAG, 3).unwrap()
            };
            c.barrier().unwrap();
            if c.rank() == 0 {
                // One post, and this rank's closure returns at once.
                c.post(&line, 3, |buf| buf.copy_from_slice(&[1.0, 2.0, 3.0])).unwrap();
                Vec::new()
            } else {
                std::thread::sleep(Duration::from_millis(20));
                c.take(&line, |vals| vals.to_vec()).unwrap()
            }
        });
        assert_eq!(out[1], [1.0, 2.0, 3.0]);
    }
}

#[test]
fn a_one_way_sender_waits_for_room_and_allocates_nothing() {
    const POSTS: usize = 50;
    let out = Universe::run(2, |c| {
        let line = if c.rank() == 1 {
            c.open_send_line(0, TAG, 32).unwrap()
        } else {
            c.open_recv_line(1, TAG, 32).unwrap()
        };
        c.barrier().unwrap();
        if c.rank() == 1 {
            // Rank 1 only sends: nothing but the ring holds it back.
            let post = |i: usize| c.post(&line, 32, |buf| buf.fill(i as f64)).unwrap();
            post(0);
            let before = ALLOCS.with(Cell::get);
            let mut fifth = None;
            for i in 1..POSTS {
                post(i);
                if i == 4 {
                    fifth = Some(Instant::now());
                }
            }
            (ALLOCS.with(Cell::get) - before, fifth, Vec::new())
        } else {
            // The receiver starts late, then takes every post in order.
            std::thread::sleep(Duration::from_millis(50));
            let first = Instant::now();
            let got: Vec<f64> =
                (0..POSTS).map(|_| c.take(&line, |vals| vals[31]).unwrap()).collect();
            (0, Some(first), got)
        }
    });
    let (allocs, fifth, _) = &out[1];
    assert_eq!(*allocs, 0, "{allocs} allocations in {} posts", POSTS - 1);
    // Four posts fill the ring; the fifth needs the receiver's first take.
    assert!(fifth.unwrap() >= out[0].1.unwrap(), "the fifth post did not wait");
    let want: Vec<f64> = (0..POSTS).map(|i| i as f64).collect();
    assert_eq!(out[0].2, want);
}

#[test]
fn a_dropped_post_is_not_published_and_the_next_is_taken_in_its_place() {
    let plan = FaultPlan::parse(&format!("op=send,rank=0,tag={TAG},call=1,kind=drop")).unwrap();
    let out = Universe::run_with_faults(2, Some(plan), |c| {
        let line = if c.rank() == 0 {
            c.open_send_line(1, TAG, 2).unwrap()
        } else {
            c.open_recv_line(0, TAG, 2).unwrap()
        };
        c.barrier().unwrap();
        let got = if c.rank() == 0 {
            c.post(&line, 2, |buf| buf.copy_from_slice(&[1.0, 1.5])).unwrap();
            c.post(&line, 2, |buf| buf.copy_from_slice(&[2.0, 2.5])).unwrap();
            Vec::new()
        } else {
            c.take(&line, |vals| vals.to_vec()).unwrap()
        };
        c.barrier().unwrap();
        (got, c.stats())
    });
    assert_eq!(out[1].0, [2.0, 2.5]);
    // The dropped post is still a send handed its payload, as a dropped
    // envelope is.
    assert_eq!((out[0].1.sends, out[0].1.bytes_sent), (2, 32));
    assert_eq!((out[1].1.recvs, out[1].1.bytes_received), (1, 16));
}

#[test]
fn a_killed_peer_fails_a_blocked_take_within_a_slice() {
    // A long watchdog, so only the cohort check of the park slices can
    // deliver the verdict in time.
    std::env::set_var("RCOMM_DEADLOCK_TIMEOUT_SECS", "20");
    let plan = FaultPlan::parse(&format!("op=send,rank=0,tag={TAG},call=1,kind=kill")).unwrap();
    let out = Universe::run_with_faults(2, Some(plan), |c| {
        let line = if c.rank() == 0 {
            c.open_send_line(1, TAG, 1).unwrap()
        } else {
            c.open_recv_line(0, TAG, 1).unwrap()
        };
        c.barrier().unwrap();
        let verdict = if c.rank() == 0 {
            // Let the receiver spin out, yield and park first.
            std::thread::sleep(Duration::from_millis(100));
            c.post(&line, 1, |buf| buf[0] = 1.0)
        } else {
            c.take(&line, |_| ())
        };
        (verdict, Instant::now())
    });
    assert_eq!(out[0].0, Err(CommError::RankLost(0)));
    assert_eq!(out[1].0, Err(CommError::RankLost(0)));
    let late = out[1].1.saturating_duration_since(out[0].1);
    // One park slice is 10 ms; allow a loaded host its scheduling.
    assert!(late < Duration::from_millis(500), "the receiver saw it {late:?} after the kill");
}

#[test]
fn a_line_counts_the_bytes_it_carries_in_the_stats_and_the_matrix() {
    let reports = Universe::run(3, |c| {
        let (me, p) = (c.rank(), c.size());
        let right = c.open_send_line((me + 1) % p, TAG, 0).unwrap();
        let left = c.open_recv_line((me + p - 1) % p, TAG, 0).unwrap();
        c.barrier().unwrap();
        // Rank r posts r + 1 payloads of 4·(r + 1) values to its right.
        for _ in 0..=me {
            c.post(&right, 4 * (me + 1), |buf| buf.fill(0.5)).unwrap();
        }
        let from = (me + p - 1) % p;
        for _ in 0..=from {
            let len = c.take(&left, |vals| vals.len()).unwrap();
            assert_eq!(len, 4 * (from + 1));
        }
        c.barrier().unwrap();
        (c.stats(), probe::local_report())
    });
    let matrix = probe::comm_matrix(&reports.iter().map(|r| r.1.clone()).collect::<Vec<_>>());
    for (me, (stats, report)) in reports.iter().enumerate() {
        let bytes = 8 * 4 * (me as u64 + 1) * (me as u64 + 1);
        assert_eq!((stats.sends, stats.bytes_sent), (me as u64 + 1, bytes), "rank {me}");
        assert_eq!(report.counter(Counter::BytesSent), bytes);
        let row = matrix.ranks.iter().position(|&r| r == me).unwrap();
        assert_eq!(matrix.bytes[row].iter().sum::<u64>(), bytes, "rank {me}: matrix row");
        let col: u64 = matrix.bytes.iter().map(|r| r[row]).sum();
        assert_eq!(col, report.counter(Counter::BytesReceived), "rank {me}: matrix column");
    }
}

#[test]
fn lines_of_a_dup_are_apart_from_the_worlds() {
    let out = Universe::run(2, |c| {
        let d = c.dup().unwrap();
        let open = |comm: &rcomm::Communicator| {
            if comm.rank() == 0 {
                comm.open_send_line(1, TAG, 1).unwrap()
            } else {
                comm.open_recv_line(0, TAG, 1).unwrap()
            }
        };
        let (on_world, on_dup) = (open(c), open(&d));
        assert!(on_world.opened_on(c) && !on_world.opened_on(&d));
        assert!(on_dup.opened_on(&d) && !on_dup.opened_on(c));
        c.barrier().unwrap();
        if c.rank() == 0 {
            c.post(&on_world, 1, |buf| buf[0] = 1.0).unwrap();
            d.post(&on_dup, 1, |buf| buf[0] = 2.0).unwrap();
            (0.0, 0.0)
        } else {
            // Taken in the other order: each line holds its own post.
            let dup = d.take(&on_dup, |vals| vals[0]).unwrap();
            (c.take(&on_world, |vals| vals[0]).unwrap(), dup)
        }
    });
    assert_eq!(out[1], (1.0, 2.0));
}
