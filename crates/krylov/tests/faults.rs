//! Fault-injection behaviour of the Krylov solvers.
//!
//! These tests arm the process-global `rcomm` fault plan, so they live in
//! their own binary (cargo runs test binaries one after another) and
//! serialise against each other through `FAULT_LOCK`.

use std::sync::Mutex;

use rkrylov::{ConvergedReason, Ksp, KspConfig, KspType, MatOperator, PcType};
use rcomm::Universe;
use rsparse::{generate, BlockRowPartition, DistCsrMatrix, DistVector};

/// Serialises tests that arm/disarm the global fault plan.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn solve_cg(ranks: usize, n_side: usize, cfg_patch: impl Fn(&mut KspConfig) + Sync) -> Vec<rkrylov::KspResult> {
    let a = generate::laplacian_2d(n_side);
    let n = n_side * n_side;
    let b = vec![1.0; n];
    Universe::run(ranks, |comm| {
        let part = BlockRowPartition::even(n, comm.size());
        let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
        let op = MatOperator::new(da);
        let db = DistVector::from_global(part.clone(), comm.rank(), &b).unwrap();
        let mut dx = DistVector::zeros(part, comm.rank());
        let mut cfg = KspConfig {
            ksp_type: KspType::Cg,
            pc_type: PcType::None,
            rtol: 1e-12,
            maxits: 500,
            ..KspConfig::default()
        };
        cfg_patch(&mut cfg);
        let ksp = Ksp::new(cfg).unwrap();
        ksp.solve(comm, &op, &db, &mut dx).unwrap()
    })
}

#[test]
fn corrupted_reduction_is_flagged_as_divergence_everywhere() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A fault plan poisoning rank 1's allreduce contribution: the NaN
    // propagates through the sum, so every rank sees a non-finite
    // residual and stops with Diverged identically. Call 2 on rank 1 is
    // the scalar ‖r₀‖ reduction (call 1 is ‖b‖).
    let plan =
        rcomm::FaultPlan::parse("op=allreduce,rank=1,call=2,kind=corrupt;seed=7").unwrap();
    rcomm::fault::arm(plan);
    let out = solve_cg(3, 8, |_| {});
    rcomm::fault::disarm();
    for r in &out {
        assert_eq!(r.reason, out[0].reason, "ranks disagree");
        assert_eq!(r.iterations, out[0].iterations, "ranks disagree");
    }
    assert_eq!(out[0].reason, ConvergedReason::Diverged);
    assert!(!out[0].final_residual.is_finite());
}

#[test]
fn injected_collective_error_surfaces_as_typed_comm_error() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan =
        rcomm::FaultPlan::parse("op=allreduce,rank=0,call=2,kind=error").unwrap();
    rcomm::fault::arm(plan);
    let a = generate::laplacian_2d(6);
    let n = 36;
    let b = vec![1.0; n];
    let out = Universe::run(1, |comm| {
        let part = BlockRowPartition::even(n, comm.size());
        let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
        let op = MatOperator::new(da);
        let db = DistVector::from_global(part.clone(), comm.rank(), &b).unwrap();
        let mut dx = DistVector::zeros(part, comm.rank());
        let ksp = Ksp::new(KspConfig {
            ksp_type: KspType::Cg,
            pc_type: PcType::None,
            ..KspConfig::default()
        })
        .unwrap();
        ksp.solve(comm, &op, &db, &mut dx)
    });
    rcomm::fault::disarm();
    let err = out[0].as_ref().unwrap_err();
    assert!(
        err.to_string().contains("injected fault"),
        "expected an injected-fault error, got: {err}"
    );
}

#[test]
fn no_plan_armed_means_no_interference() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    rcomm::fault::disarm();
    let out = solve_cg(2, 8, |_| {});
    assert!(out[0].converged());
}

#[test]
fn armed_plan_whose_rule_matches_no_rank_changes_no_bit() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    rcomm::fault::disarm();
    let quiet = solve_cg(4, 12, |_| {});
    // Rank 9999 is in no cohort: every call takes the armed branch and
    // scans the rule, and none fires.
    rcomm::fault::arm(rcomm::FaultPlan::parse("op=allreduce,rank=9999,call=1,kind=error").unwrap());
    let armed = solve_cg(4, 12, |_| {});
    rcomm::fault::disarm();
    for (q, a) in quiet.iter().zip(&armed) {
        assert!(a.converged());
        assert_eq!(a.iterations, q.iterations);
        assert_eq!(a.final_residual.to_bits(), q.final_residual.to_bits());
    }
}
