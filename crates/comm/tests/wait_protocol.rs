//! The blocking point under every receive: spin, yield, park. What the
//! park did before — cohort verdicts, deadlock detection, a message that
//! arrives under another key while a receive waits — must hold when the
//! wait ends in the polling phase instead, and a universe with more ranks
//! than cores must not spin. A receive waits on its own queue of its
//! rank's inbox; a send to a rank whose closure is over is refused.

use std::time::{Duration, Instant};

use rcomm::{sum, CommError, Universe};

const DEADLOCK_SECS: u64 = 3;

/// Every test calls this before it launches: each launch reads the
/// deadlock timeout, and every test sets the same short one.
fn short_deadlock() {
    std::env::set_var("RCOMM_DEADLOCK_TIMEOUT_SECS", DEADLOCK_SECS.to_string());
}

/// More ranks than cores, whatever the host.
fn oversubscribed_ranks() -> usize {
    4 * std::thread::available_parallelism().map_or(1, |c| c.get())
}

#[test]
fn oversubscribed_universe_keeps_collectives_and_rings_moving() {
    short_deadlock();
    let p = oversubscribed_ranks();
    let t0 = Instant::now();
    let out = Universe::run(p, |c| {
        let mut acc = 0u64;
        for round in 0..10_000u64 {
            acc = acc.wrapping_add(c.allreduce(round + c.rank() as u64, sum).unwrap());
        }
        let next = (c.rank() + 1) % p;
        let prev = (c.rank() + p - 1) % p;
        let mut token = c.rank();
        for _ in 0..p * 100 {
            token = c.sendrecv::<usize, usize>(next, 3, token, prev, 3).unwrap();
        }
        (acc, token)
    });
    // About 0.2 s when blocked ranks give the core away at once; spinning
    // out the budget on every hand-off first takes twenty times that.
    assert!(t0.elapsed() < Duration::from_secs(DEADLOCK_SECS), "took {:?}", t0.elapsed());
    let ranks = p as u64;
    let expect: u64 = (0..10_000u64).map(|r| r * ranks + ranks * (ranks - 1) / 2).sum();
    for (rank, (acc, token)) in out.into_iter().enumerate() {
        assert_eq!(acc, expect, "rank {rank}");
        // p·100 hops round a ring of p bring every token home.
        assert_eq!(token, rank);
    }
}

#[test]
fn peer_killed_while_survivor_polls_yields_rank_lost_within_a_slice() {
    short_deadlock();
    let plan = rcomm::FaultPlan::parse("op=send,rank=1,tag=7,kind=kill").unwrap();
    let out = Universe::run_with_faults(2, Some(plan), |c| {
        if c.rank() == 0 {
            // Release the victim and start waiting in the same breath: the
            // kill lands while this receive is still polling.
            c.send(1, 1, ()).unwrap();
            let t0 = Instant::now();
            let verdict = c.recv::<u8>(1, 7).map(|_| ());
            (verdict, t0.elapsed())
        } else {
            c.recv::<()>(0, 1).unwrap();
            (c.send(0, 7, 0u8), Duration::ZERO)
        }
    });
    assert_eq!(out[1].0, Err(CommError::RankLost(1)));
    assert_eq!(out[0].0, Err(CommError::RankLost(1)), "survivor's verdict names the victim");
    // The cohort poll of the 10 ms park slices delivered it, not the
    // deadlock watchdog.
    assert!(out[0].1 < Duration::from_secs(DEADLOCK_SECS) / 2, "took {:?}", out[0].1);
}

#[test]
fn mismatched_receive_is_a_suspected_deadlock_and_strands_nothing() {
    short_deadlock();
    // With the spin (2 ranks) and without it (more ranks than cores).
    for p in [2, oversubscribed_ranks()] {
        let out = Universe::run(p, |c| {
            if c.rank() == 0 {
                // Tag 5 arrives while this waits for tag 999: it is
                // queued under its own key, the wait still times out, and
                // tag 5 is there afterwards.
                c.send(1, 1, ()).unwrap();
                let verdict = c.recv::<u8>(1, 999).map(|_| ());
                (verdict, c.recv::<u8>(1, 5).ok())
            } else if c.rank() == 1 {
                c.recv::<()>(0, 1).unwrap();
                c.send(0, 5, 42u8).unwrap();
                (Ok(()), None)
            } else {
                (Ok(()), None)
            }
        });
        assert_eq!(
            out[0].0,
            Err(CommError::DeadlockSuspected { rank: 0, src: Some(1), tag: Some(999) }),
            "p={p}"
        );
        assert_eq!(out[0].1, Some(42), "p={p}");
    }
}

#[test]
fn message_for_another_communicator_seen_while_polling_is_found_later() {
    short_deadlock();
    let out = Universe::run(2, |c| {
        let d = c.dup().unwrap();
        if c.rank() == 0 {
            // Same (source, tag) on both communicators, the child's sent
            // first and both while this rank polls for the parent's.
            c.send(1, 1, ()).unwrap();
            let on_parent: &str = c.recv(1, 0).unwrap();
            let on_child: &str = d.recv(1, 0).unwrap();
            format!("{on_parent}/{on_child}")
        } else {
            c.recv::<()>(0, 1).unwrap();
            d.send(0, 0, "child").unwrap();
            c.send(0, 0, "parent").unwrap();
            String::new()
        }
    });
    assert_eq!(out[0], "parent/child");
}

#[test]
fn send_to_a_peer_that_left_reports_why_it_left() {
    short_deadlock();
    // Rank 0 returns at once and its inbox departs; rank 2 keeps sending
    // to it until the send fails.
    let send_until_refused = |c: &rcomm::Communicator| loop {
        if let Err(e) = c.send(0, 0, ()) {
            return e;
        }
        std::thread::yield_now();
    };
    // Nobody was lost: the peer is simply gone.
    let out = Universe::run(3, |c| (c.rank() == 2).then(|| send_until_refused(c)));
    assert_eq!(out[2], Some(CommError::PeerGone(0)));
    // Rank 1 was killed first: a survivor that left because of it and one
    // that only finds the departed inbox reach the same verdict.
    let kill = rcomm::FaultPlan::parse("op=barrier,rank=1,kind=kill").unwrap();
    let out = Universe::run_with_faults(3, Some(kill), |c| match c.rank() {
        0 => None,
        1 => c.barrier().err(),
        _ => {
            while c.cohort_view().lost.is_empty() {
                std::thread::yield_now();
            }
            Some(send_until_refused(c))
        }
    });
    assert_eq!(out[1], Some(CommError::RankLost(1)));
    assert_eq!(out[2], Some(CommError::RankLost(1)));
}

#[test]
fn an_eager_send_outlives_its_sender() {
    short_deadlock();
    // Rank 1 sends and returns; rank 0 receives only once sends to rank 1
    // are refused, so the message waits in rank 0's inbox after its
    // sender's closure is over.
    let out = Universe::run(2, |c| {
        if c.rank() == 1 {
            c.send(0, 4, vec![1.5f64, -2.0]).unwrap();
            return None;
        }
        let refused = loop {
            if let Err(e) = c.send(1, 0, ()) {
                break e;
            }
            std::thread::yield_now();
        };
        Some((refused, c.recv::<Vec<f64>>(1, 4)))
    });
    assert_eq!(out[0], Some((CommError::PeerGone(1), Ok(vec![1.5, -2.0]))));
}
