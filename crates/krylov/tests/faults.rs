//! Fault-injection behaviour of the Krylov solvers. Each test hands its
//! plan to the one universe it launches.

use rcomm::{FaultPlan, Universe};
use rkrylov::{ConvergedReason, Ksp, KspConfig, KspType, MatOperator, PcType};
use rsparse::{generate, BlockRowPartition, DistCsrMatrix, DistVector};

fn solve_cg(
    ranks: usize,
    n_side: usize,
    faults: Option<FaultPlan>,
    cfg_patch: impl Fn(&mut KspConfig) + Sync,
) -> Vec<rkrylov::KspResult> {
    let a = generate::laplacian_2d(n_side);
    let n = n_side * n_side;
    let b = vec![1.0; n];
    Universe::run_with_faults(ranks, faults, |comm| {
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
    // A fault plan poisoning rank 1's allreduce contribution: the NaN
    // propagates through the sum, so every rank sees a non-finite
    // residual and stops with Diverged identically. Call 2 on rank 1 is
    // the scalar ‖r₀‖ reduction (call 1 is ‖b‖).
    let plan = rcomm::FaultPlan::parse("op=allreduce,rank=1,call=2,kind=corrupt;seed=7").unwrap();
    let out = solve_cg(3, 8, Some(plan), |_| {});
    for r in &out {
        assert_eq!(r.reason, out[0].reason, "ranks disagree");
        assert_eq!(r.iterations, out[0].iterations, "ranks disagree");
    }
    assert_eq!(out[0].reason, ConvergedReason::Diverged);
    assert!(!out[0].final_residual.is_finite());
}

#[test]
fn injected_collective_error_surfaces_as_typed_comm_error() {
    let plan = rcomm::FaultPlan::parse("op=allreduce,rank=0,call=2,kind=error").unwrap();
    let a = generate::laplacian_2d(6);
    let n = 36;
    let b = vec![1.0; n];
    let out = Universe::run_with_faults(1, Some(plan), |comm| {
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
    let err = out[0].as_ref().unwrap_err();
    assert!(
        err.to_string().contains("injected fault"),
        "expected an injected-fault error, got: {err}"
    );
}

#[test]
fn no_plan_armed_means_no_interference() {
    let out = solve_cg(2, 8, None, |_| {});
    assert!(out[0].converged());
}

#[test]
fn armed_plan_whose_rule_matches_no_rank_changes_no_bit() {
    let quiet = solve_cg(4, 12, None, |_| {});
    // Rank 9999 is in no cohort: every call takes the armed branch and
    // scans the rule, and none fires.
    let plan = FaultPlan::parse("op=allreduce,rank=9999,call=1,kind=error").unwrap();
    let armed = solve_cg(4, 12, Some(plan), |_| {});
    for (q, a) in quiet.iter().zip(&armed) {
        assert!(a.converged());
        assert_eq!(a.iterations, q.iterations);
        assert_eq!(a.final_residual.to_bits(), q.final_residual.to_bits());
    }
}
