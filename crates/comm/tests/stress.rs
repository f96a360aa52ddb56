//! Stress and composition tests for the message-passing runtime: nested
//! communicator hierarchies, mixed user/collective traffic, and the
//! SPMD patterns the solver stack leans on.

use rcomm::{CommError, Universe};

/// Every test calls this first so whichever test runs first caches a
/// short deadlock timeout for the whole process (the runtime reads the
/// env var once).
fn short_deadlock() {
    std::env::set_var("RCOMM_DEADLOCK_TIMEOUT_SECS", "5");
}

#[test]
fn nested_splits_form_a_consistent_hierarchy() {
    short_deadlock();
    // World of 8 → rows of 4 → pairs of 2, like a 2-D process grid.
    let out = Universe::run(8, |c| {
        let row = c.split((c.rank() / 4) as u64, c.rank() as i64).unwrap();
        let pair = row.split((row.rank() / 2) as u64, row.rank() as i64).unwrap();
        let world_sum = c.allreduce(c.rank(), |a, b| a + b).unwrap();
        let row_sum = row.allreduce(c.rank(), |a, b| a + b).unwrap();
        let pair_sum = pair.allreduce(c.rank(), |a, b| a + b).unwrap();
        (world_sum, row_sum, pair_sum, row.size(), pair.size())
    });
    for (r, (ws, rs, ps, rsize, psize)) in out.into_iter().enumerate() {
        assert_eq!(ws, 28);
        assert_eq!(rsize, 4);
        assert_eq!(psize, 2);
        let row_base = (r / 4) * 4;
        assert_eq!(rs, row_base * 4 + 6, "rank {r}");
        let pair_base = (r / 2) * 2;
        assert_eq!(ps, pair_base * 2 + 1, "rank {r}");
    }
}

#[test]
fn user_traffic_and_collectives_interleave_safely() {
    short_deadlock();
    // Point-to-point messages posted *before* a collective must still be
    // matchable *after* it — contexts keep the streams separate.
    let out = Universe::run(4, |c| {
        let next = (c.rank() + 1) % c.size();
        let prev = (c.rank() + c.size() - 1) % c.size();
        c.send(next, 42, c.rank()).unwrap();
        // A pile of collectives in between.
        let s = c.allreduce(1usize, |a, b| a + b).unwrap();
        c.barrier().unwrap();
        let g = c.allgather(c.rank()).unwrap();
        // Now receive the old message.
        let got: usize = c.recv(prev, 42).unwrap();
        (s, g.len(), got)
    });
    for (r, (s, glen, got)) in out.into_iter().enumerate() {
        assert_eq!(s, 4);
        assert_eq!(glen, 4);
        assert_eq!(got, (r + 3) % 4);
    }
}

#[test]
fn many_small_collectives_do_not_cross_talk() {
    short_deadlock();
    // Back-to-back allreduces with distinct values must deliver in order.
    let out = Universe::run(5, |c| {
        let mut sums = Vec::new();
        for round in 0..50usize {
            sums.push(c.allreduce(round * (c.rank() + 1), |a, b| a + b).unwrap());
        }
        sums
    });
    // Σ_r round·(r+1) = round·15 for 5 ranks.
    for v in out {
        for (round, s) in v.into_iter().enumerate() {
            assert_eq!(s, round * 15);
        }
    }
}

#[test]
fn start_rows_from_one_allgather_check_out_in_another() {
    short_deadlock();
    // Each rank's start row is the exclusive prefix sum of an allgather
    // of the row counts; a second allgather of `(start, rows)` then
    // checks them, as `LisiState::build_partition` checks declared rows.
    let out = Universe::run(4, |c| {
        let my_rows = (c.rank() + 1) * 3;
        let before: usize = c.allgather(my_rows).unwrap()[..c.rank()].iter().sum();
        let all: Vec<(usize, usize)> = c.allgather((before, my_rows)).unwrap();
        all
    });
    for v in out {
        assert_eq!(v, vec![(0, 3), (3, 6), (9, 9), (18, 12)]);
    }
}

#[test]
fn deadlock_detection_fires_instead_of_hanging() {
    short_deadlock();
    // A receive with no matching send must error out, not hang.
    let out = Universe::run(2, |c| {
        if c.rank() == 0 {
            matches!(c.recv::<u8>(1, 999), Err(CommError::DeadlockSuspected { .. }))
        } else {
            true
        }
    });
    assert_eq!(out, vec![true, true]);
}

#[test]
fn large_payloads_survive_bcast_and_allreduce_vec() {
    short_deadlock();
    let out = Universe::run(5, |c| {
        let big: Vec<f64> = (0..20_000).map(|i| i as f64).collect();
        let payload = if c.rank() == 2 { big.clone() } else { vec![] };
        let got = c.bcast(2, payload).unwrap();
        let sum = c.allreduce_vec(&got[..100], rcomm::sum).unwrap();
        (got.len(), sum[7])
    });
    for (len, s7) in out {
        assert_eq!(len, 20_000);
        assert_eq!(s7, 35.0); // 7 × 5 ranks
    }
}
