//! Elastic-cohort behaviour: `kind=kill` fault rules, rank-consistent
//! `RankLost` verdicts, and `Communicator::shrink`.
//!
//! Each universe owns its fault plan and its cohort registry, so these
//! tests run concurrently, and a kill in one universe is invisible to
//! every other.

use rcomm::{CommError, FaultPlan, Universe};

#[test]
fn killed_rank_yields_rank_consistent_verdict_in_collectives() {
    let plan = rcomm::FaultPlan::parse("op=allreduce,rank=1,call=1,kind=kill").unwrap();
    let out = Universe::run_with_faults(3, Some(plan), |c| c.allreduce(1u64, |a, b| a + b));
    // Every rank — the victim and both survivors — reaches the *same*
    // verdict naming the same world rank, instead of a deadlock timeout.
    for (rank, r) in out.iter().enumerate() {
        assert_eq!(r, &Err(CommError::RankLost(1)), "rank {rank} saw {r:?}");
    }
}

#[test]
fn killed_rank_fails_point_to_point_on_both_sides() {
    let plan = rcomm::FaultPlan::parse("op=send,rank=0,tag=7,kind=kill").unwrap();
    let out = Universe::run_with_faults(2, Some(plan), |c| {
        if c.rank() == 0 {
            let first = c.send(1, 7, 1u8);
            // The rank is dead for good: every later call fails identically.
            let later = c.send(1, 0, 2u8);
            (first, later)
        } else {
            (c.recv::<u8>(0, 7).map(|_| ()), Ok(()))
        }
    });
    assert_eq!(out[0].0, Err(CommError::RankLost(0)));
    assert_eq!(out[0].1, Err(CommError::RankLost(0)));
    assert_eq!(out[1].0, Err(CommError::RankLost(0)), "survivor's blocked recv notices");
}

#[test]
fn cohort_view_names_the_lost_member() {
    let plan = rcomm::FaultPlan::parse("op=barrier,rank=2,call=1,kind=kill").unwrap();
    let out = Universe::run_with_faults(4, Some(plan), |c| {
        let r = c.barrier();
        let view = c.cohort_view();
        (r.is_err(), view.alive, view.lost)
    });
    for (rank, (errored, alive, lost)) in out.iter().enumerate() {
        assert!(errored, "rank {rank} should fail the barrier");
        assert_eq!(alive, &vec![0, 1, 3]);
        assert_eq!(lost, &vec![2]);
    }
}

#[test]
fn shrink_produces_dense_ranks_and_working_collectives() {
    let out = Universe::run(4, |c| {
        // Survivors of a (simulated) loss of rank 2 carry on; rank 2
        // itself is refused membership. No communication happens inside
        // shrink, so the dead rank not calling it cannot hang anyone.
        let survivors = [0usize, 1, 3];
        if c.rank() == 2 {
            return (usize::MAX, 0, c.shrink(&survivors).is_err() as u64);
        }
        let sub = c.shrink(&survivors).unwrap();
        let sum = sub.allreduce(c.rank() as u64, |a, b| a + b).unwrap();
        (sub.rank(), sub.size(), sum)
    });
    assert_eq!(out[0], (0, 3, 4), "world rank 0 -> shrunken rank 0");
    assert_eq!(out[1], (1, 3, 4));
    assert_eq!(out[3], (2, 3, 4), "world rank 3 renumbered densely to 2");
    assert_eq!(out[2], (usize::MAX, 0, 1), "excluded rank gets an error");
}

#[test]
fn shrink_validates_survivor_list() {
    let out = Universe::run(2, |c| {
        if c.rank() == 0 {
            (
                c.shrink(&[]).is_err(),
                c.shrink(&[1, 0]).is_err(), // unsorted
                c.shrink(&[0, 0]).is_err(), // duplicate
                c.shrink(&[0, 5]).is_err(), // out of range
            )
        } else {
            (true, true, true, true)
        }
    });
    assert_eq!(out[0], (true, true, true, true));
}

#[test]
fn shrink_traffic_is_isolated_from_parent() {
    let out = Universe::run(3, |c| {
        if c.rank() == 2 {
            return String::new();
        }
        let sub = c.shrink(&[0, 1]).unwrap();
        if c.rank() == 0 {
            // Same (dest, tag) on parent and shrunken child; the derived
            // context must keep them apart.
            c.send(1, 0, "parent").unwrap();
            sub.send(1, 0, "child").unwrap();
            String::new()
        } else {
            let on_child: &str = sub.recv(0, 0).unwrap();
            let on_parent: &str = c.recv(0, 0).unwrap();
            format!("{on_parent}/{on_child}")
        }
    });
    assert_eq!(out[1], "parent/child");
}

#[test]
fn stale_heartbeat_unblocks_a_waiting_peer() {
    let out = Universe::run(2, |c| {
        c.set_heartbeat_timeout_ms(100);
        if c.rank() == 0 {
            // Heartbeat once (a self-send stamps it), then go silent
            // without dying cleanly.
            c.send(0, 1, 0u8).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(400));
            Ok(())
        } else {
            // Give rank 0 time to stamp its one heartbeat, then block on
            // a message that never comes: the staleness detector must
            // fail this recv long before the deadlock watchdog would.
            std::thread::sleep(std::time::Duration::from_millis(50));
            c.recv::<u8>(0, 9).map(|_| ())
        }
    });
    assert_eq!(out[1], Err(CommError::RankLost(0)));
}

/// A kill in a universe launched from inside another one stays there:
/// the outer universe's ranks — world ranks 0 and 1 of their own cohort
/// — never hear of the inner rank 1's death.
#[test]
fn a_kill_in_one_universe_leaves_another_untouched() {
    let kill = FaultPlan::parse("op=barrier,rank=1,call=1,kind=kill").unwrap();
    let out = Universe::run(2, |c| {
        if c.rank() == 0 {
            let inner = Universe::run_with_faults(2, Some(kill.clone()), |i| i.barrier());
            assert_eq!(inner, vec![Err(CommError::RankLost(1)); 2]);
        }
        c.barrier()
    });
    assert_eq!(out, vec![Ok(()), Ok(())]);
}

/// A casualty stays a casualty for the rest of its universe, whatever
/// else the process launches meanwhile: every rank's view agrees.
///
/// Rank 1 reads its view only after rank 0's nested launch has returned.
/// The two are ordered by a process barrier, not a message: a blocked
/// `recv` fails by design once any member of the cohort is dead.
#[test]
fn launching_a_clean_universe_keeps_a_running_one_s_casualty() {
    let kill = FaultPlan::parse("op=barrier,rank=2,call=1,kind=kill").unwrap();
    let launched = std::sync::Barrier::new(2);
    let out = Universe::run_with_faults(3, Some(kill), |c| {
        assert!(c.barrier().is_err());
        match c.rank() {
            0 => {
                Universe::run(1, |solo| solo.barrier().unwrap());
                launched.wait();
            }
            1 => {
                launched.wait();
            }
            _ => {}
        }
        c.cohort_view().lost
    });
    assert_eq!(out, vec![vec![2]; 3]);
}

/// Fuses burn once per launch: the same plan handed to two launches
/// fires its rule once in each.
#[test]
fn each_launch_fires_the_same_plan_afresh() {
    let plan = FaultPlan::parse("op=allreduce,rank=0,call=1,kind=error").unwrap();
    for _ in 0..2 {
        let out = Universe::run_with_faults(1, Some(plan.clone()), |c| {
            let first = c.allreduce(1u64, |a, b| a + b);
            let second = c.allreduce(1u64, |a, b| a + b);
            (first, second, c.fired_rule_ids())
        });
        let injected = CommError::Injected { op: "allreduce", rank: 0, call: 1 };
        assert_eq!(out, vec![(Err(injected), Ok(1), vec![0])]);
    }
}
