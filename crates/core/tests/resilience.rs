//! End-to-end resilience: injected communication faults versus the
//! resilient driver. Each test hands its plan to the one universe it
//! launches.

use std::sync::Arc;

use lisi::status::{
    STATUS_ATTEMPTS, STATUS_CONVERGED, STATUS_ITERATIONS, STATUS_REASON, STATUS_RECOVERY,
};
use lisi::{
    LisiError, ResilientSolver, RkspAdapter, RsluAdapter, SparseSolverPort, SparseStruct,
    StaticSwitch, STATUS_LEN,
};
use proptest::prelude::*;
use rcomm::{FaultPlan, Universe};
use rsparse::{generate, BlockRowPartition};

/// Keep the deadlock watchdog short so rank-divergent faults convert
/// into transient errors quickly. Each launch reads it, so this must
/// run before the test launches.
fn short_watchdog() {
    std::env::set_var("RCOMM_DEADLOCK_TIMEOUT_SECS", "2");
}

/// Outcome of one rank's resilient solve over the 2-D Laplacian.
struct RankOutcome {
    result: Result<(), LisiError>,
    status: Vec<f64>,
    /// Gathered global solution; `None` when the post-solve gather hit
    /// the deadlock watchdog because a rank-divergent fault left a peer
    /// still retrying its solve (expected skew, not a failure).
    solution: Option<Vec<f64>>,
    halo_nonfinite: u64,
    faults_fired: u64,
}

/// Drive the resilient solver (rksp + rslu backends) over
/// `laplacian_2d(n_side)` under the fault plan `faults`.
fn run_driver(ranks: usize, n_side: usize, faults: FaultPlan, policy: &str) -> Vec<RankOutcome> {
    // Recovered and exhausted solves dump postmortems: to a scratch path,
    // not the working directory (the crate's).
    let dumps = std::env::temp_dir().join("lisi_resilience_postmortem.json");
    std::env::set_var("RSPARSE_POSTMORTEM", dumps);
    let a = generate::laplacian_2d(n_side);
    let n = n_side * n_side;
    let b = vec![1.0; n];
    let policy = policy.to_string();
    Universe::run_with_faults(ranks, Some(faults), move |comm| {
        let part = BlockRowPartition::even(n, comm.size());
        let range = part.range(comm.rank());
        let local = a.row_block(range.start, range.end).unwrap();
        let driver = ResilientSolver::new();
        let switch = StaticSwitch::new()
            .with("rksp", Arc::new(RkspAdapter::new()))
            .with("rslu", Arc::new(RsluAdapter::new()));
        driver.set_backends(Arc::new(switch));
        driver.initialize(comm.dup().unwrap()).unwrap();
        driver.set_start_row(range.start).unwrap();
        driver.set_local_rows(range.len()).unwrap();
        driver.set_global_cols(n).unwrap();
        driver.set("retry_policy", &policy).unwrap();
        driver.set_double("tol", 1e-10).unwrap();
        driver
            .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
            .unwrap();
        driver.setup_rhs(&b[range.clone()], 1).unwrap();
        let mut x = vec![0.0; range.len()];
        let mut status = vec![0.0; STATUS_LEN];
        let result = driver.solve(&mut x, &mut status);
        let solution = comm.allgatherv(&x).ok();
        RankOutcome {
            result,
            status,
            solution,
            halo_nonfinite: probe::get(probe::Counter::HaloNonFinite),
            faults_fired: probe::get(probe::Counter::FaultsInjected),
        }
    })
}

/// ‖b − A·x‖∞ for the full gathered solution.
fn residual_inf(n_side: usize, x: &[f64]) -> f64 {
    let a = generate::laplacian_2d(n_side);
    let ax = a.matvec(x).unwrap();
    ax.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max)
}

/// Status entries that must agree across ranks (everything except the
/// two timing columns).
fn comparable(status: &[f64]) -> Vec<f64> {
    [STATUS_CONVERGED, STATUS_ITERATIONS, STATUS_REASON, STATUS_ATTEMPTS, STATUS_RECOVERY]
        .iter()
        .map(|&i| status[i])
        .collect()
}

/// The acceptance scenario: a seeded fault poisons rank 2's
/// contribution to CG's ‖r₀‖ reduction (allreduce call 2 — call 1 is
/// ‖b‖), the Monitor flags divergence on every rank, and the driver
/// swaps to the direct backend, which completes the solve.
#[test]
fn cg_breaking_fault_on_rank_2_recovers_via_fallback_swap() {
    short_watchdog();
    let plan = rcomm::FaultPlan::parse("op=allreduce,rank=2,call=2,kind=corrupt;seed=11").unwrap();
    let out = run_driver(4, 8, plan, "rksp:solver=cg,preconditioner=jacobi -> rslu");
    for o in &out {
        o.result.as_ref().expect("the fallback chain must converge");
        assert_eq!(o.status[STATUS_CONVERGED], 1.0);
        assert_eq!(o.status[STATUS_ATTEMPTS], 2.0, "one failed CG try + one rslu try");
        assert_eq!(o.status[STATUS_RECOVERY], 2.0, "recovered by swapping backends");
        assert_eq!(comparable(&o.status), comparable(&out[0].status), "ranks disagree");
        assert!(residual_inf(8, o.solution.as_ref().expect("lockstep gather")) < 1e-8);
    }
    assert_eq!(out.iter().map(|o| o.faults_fired).sum::<u64>(), 1, "exactly one injected fault");
}

/// A NaN arriving through the halo exchange: the dist layer counts it,
/// the NaN rides the next reduction to every rank, and all ranks stop
/// the attempt with the identical verdict before the swap succeeds.
#[test]
fn nan_halo_is_screened_and_every_rank_agrees() {
    short_watchdog();
    let plan =
        rcomm::FaultPlan::parse("op=recv,rank=1,tag=7001,call=1,kind=corrupt;seed=5").unwrap();
    let out = run_driver(3, 8, plan, "rksp:solver=cg -> rslu");
    for o in &out {
        o.result.as_ref().expect("the fallback chain must converge");
        assert_eq!(comparable(&o.status), comparable(&out[0].status), "ranks disagree");
        assert_eq!(o.status[STATUS_ATTEMPTS], 2.0);
        assert_eq!(o.status[STATUS_RECOVERY], 2.0);
        assert!(residual_inf(8, o.solution.as_ref().expect("lockstep gather")) < 1e-8);
    }
    assert!(
        out.iter().any(|o| o.halo_nonfinite > 0),
        "the poisoned halo must be counted by the guard"
    );
}

/// A typed injected error (no data corruption) is transient: the driver
/// retries the same backend, which succeeds once the one-shot fuse has
/// burned — recovery code 1, no swap.
#[test]
fn transient_injected_error_retries_the_same_backend() {
    short_watchdog();
    let plan = rcomm::FaultPlan::parse("op=allreduce,rank=0,call=2,kind=error").unwrap();
    let out = run_driver(1, 8, plan, "rksp:solver=cg");
    let o = &out[0];
    o.result.as_ref().expect("the retry must converge");
    assert_eq!(o.status[STATUS_ATTEMPTS], 2.0);
    assert_eq!(o.status[STATUS_RECOVERY], 1.0, "recovered without swapping");
    assert!(residual_inf(8, o.solution.as_ref().expect("lockstep gather")) < 1e-8);
}

/// Rank-divergent faults (one rank errors out of a collective while its
/// peers block) must still terminate on every rank — the deadlock
/// watchdog converts the hang into a transient error and the bounded
/// attempt budget guarantees a structured verdict, never a hang or a
/// panic. Outcomes may legitimately differ per rank here; termination
/// and well-formed status arrays are the contract.
#[test]
fn rank_divergent_error_terminates_with_structured_outcomes() {
    short_watchdog();
    let plan = rcomm::FaultPlan::parse("op=allreduce,rank=1,call=3,kind=error").unwrap();
    let out = run_driver(
        2,
        6,
        plan,
        // Keep the budget small: one backend, one transient retry.
        "rksp:solver=cg",
    );
    for o in &out {
        match &o.result {
            Ok(()) => assert_eq!(o.status[STATUS_CONVERGED], 1.0),
            Err(e) => {
                assert!(
                    matches!(e, LisiError::Package(_)),
                    "structured package error expected, got {e:?}"
                );
                assert!(o.status[STATUS_ATTEMPTS] >= 1.0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random systems × random *corrupting* faults: silent NaNs are
    /// rank-consistent by construction (they spread through the next
    /// reduction), so every rank must reach the same verdict, and with
    /// the direct fallback in the chain the solve must either converge
    /// or fail structurally — never panic, never hang.
    #[test]
    fn corrupting_faults_converge_or_fail_structurally(
        ranks in 1usize..=8,
        n_side in 6usize..=10,
        target in 0usize..=7,
        call in 1u64..=6,
        route in 0usize..=2,
    ) {
        short_watchdog();
        let rank = target % ranks;
        let spec = match route {
            0 => format!("op=allreduce,rank={rank},call={call},kind=corrupt;seed={call}"),
            1 => format!("op=recv,rank={rank},tag=7001,call={call},kind=corrupt;seed={call}"),
            _ => format!("op=send,rank={rank},tag=7001,call={call},kind=corrupt;seed={call}"),
        };
        let plan = FaultPlan::parse(&spec).unwrap();
        let out = run_driver(ranks, n_side, plan, "rksp:solver=cg -> rslu");
        for o in &out {
            match &o.result {
                Ok(()) => {
                    prop_assert_eq!(o.status[STATUS_CONVERGED], 1.0);
                    let sol = o.solution.as_ref().expect("corrupt faults stay in lockstep");
                    prop_assert!(residual_inf(n_side, sol) < 1e-7);
                }
                Err(e) => {
                    prop_assert!(matches!(e, LisiError::Package(_)));
                    prop_assert_eq!(o.status[STATUS_RECOVERY], -1.0);
                }
            }
            prop_assert!(o.status[STATUS_ATTEMPTS] >= 1.0);
            prop_assert_eq!(comparable(&o.status), comparable(&out[0].status));
        }
    }
}
