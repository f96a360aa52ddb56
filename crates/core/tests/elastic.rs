//! The elastic-cohort acceptance scenario: a rank is *killed* mid-CG
//! and the survivors finish the solve on a shrunken communicator.
//!
//! With `RSPARSE_CHECKPOINT_EVERY=10` armed, the survivors resume from
//! the newest cohort-consistent checkpoint; without it they restart
//! from zero — both converge, and the checkpointed run needs strictly
//! fewer iterations on its final attempt.
//!
//! Each launch owns its fault plan and cohort registry, but the tests
//! flip process-wide env knobs, so they serialise through `LOCK`.

use std::sync::{Arc, Mutex};

use lisi::status::{
    STATUS_ATTEMPTS, STATUS_COHORT, STATUS_CONVERGED, STATUS_ITERATIONS, STATUS_RECOVERY,
    STATUS_RESIDUAL,
};
use lisi::{
    LisiError, ResilientSolver, RkspAdapter, SparseSolverPort, SparseStruct, StaticSwitch,
    STATUS_LEN,
};
use rcomm::Universe;
use rsparse::BlockRowPartition;

/// Serialises the tests' writes of `RSPARSE_CHECKPOINT_EVERY` and
/// `RSPARSE_POSTMORTEM`, which each test sets to its own value.
static LOCK: Mutex<()> = Mutex::new(());

const GRID: usize = 24; // 576 unknowns: CG+ILU(0) needs well over 20 iterations

/// The SPD model problem every run in this file solves: the 2-D
/// five-point Laplacian on a `GRID`×`GRID` grid with a unit RHS.
fn model_problem() -> (rsparse::CsrMatrix, Vec<f64>) {
    let a = rsparse::generate::laplacian_2d(GRID);
    let b = vec![1.0; GRID * GRID];
    (a, b)
}

/// The reference solution: the same system solved unfaulted on a
/// single rank. Survivor blocks are checked against this.
fn reference_solution() -> Vec<f64> {
    let (a, b) = model_problem();
    let n = b.len();
    let mut out = Universe::run(1, move |comm| {
        let driver = ResilientSolver::new();
        let switch = StaticSwitch::new().with("rksp", Arc::new(RkspAdapter::new()));
        driver.set_backends(Arc::new(switch));
        driver.initialize(comm.dup().unwrap()).unwrap();
        driver.set_start_row(0).unwrap();
        driver.set_local_rows(n).unwrap();
        driver.set_global_cols(n).unwrap();
        driver.set("retry_policy", "rksp:solver=cg,preconditioner=ilu0").unwrap();
        driver.set_double("tol", 1e-12).unwrap();
        driver.setup_matrix(a.values(), a.row_ptr(), a.col_idx(), SparseStruct::Csr).unwrap();
        driver.setup_rhs(&b, 1).unwrap();
        let mut x = vec![0.0; n];
        let mut status = vec![0.0; STATUS_LEN];
        driver.solve(&mut x, &mut status).unwrap();
        x
    });
    out.remove(0)
}

struct RankOutcome {
    result: Result<(), LisiError>,
    status: Vec<f64>,
    /// This rank's rows of the solution, in the caller's original layout.
    x: Vec<f64>,
    shrinks: u64,
    ranks_lost: u64,
}

/// Rank 2 killed mid-iteration: allreduce call 30 lands around CG
/// iteration 14, safely past the iteration-10 checkpoint boundary and
/// safely before convergence at rtol 1e-12, which takes ~45 iterations.
const KILL_RANK2: &str = "op=allreduce,rank=2,call=30,kind=kill";

/// 4-rank CG+ILU(0) over the model problem under the kill `plan`.
fn run_killed(plan: &str, checkpoint_every: Option<usize>, postmortem: &str) -> Vec<RankOutcome> {
    std::env::set_var("RCOMM_DEADLOCK_TIMEOUT_SECS", "2");
    match checkpoint_every {
        Some(k) => std::env::set_var("RSPARSE_CHECKPOINT_EVERY", k.to_string()),
        None => std::env::remove_var("RSPARSE_CHECKPOINT_EVERY"),
    }
    std::env::set_var("RSPARSE_POSTMORTEM", postmortem);
    let (a, b) = model_problem();
    let n = b.len();
    let plan = rcomm::FaultPlan::parse(plan).unwrap();
    let out = Universe::run_with_faults(4, Some(plan), move |comm| {
        let part = BlockRowPartition::even(n, comm.size());
        let range = part.range(comm.rank());
        let local = a.row_block(range.start, range.end).unwrap();
        let driver = ResilientSolver::new();
        let switch = StaticSwitch::new().with("rksp", Arc::new(RkspAdapter::new()));
        driver.set_backends(Arc::new(switch));
        driver.initialize(comm.dup().unwrap()).unwrap();
        driver.set_start_row(range.start).unwrap();
        driver.set_local_rows(range.len()).unwrap();
        driver.set_global_cols(n).unwrap();
        driver.set("retry_policy", "rksp:solver=cg,preconditioner=ilu0").unwrap();
        driver.set_double("tol", 1e-12).unwrap();
        driver
            .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
            .unwrap();
        driver.setup_rhs(&b[range.clone()], 1).unwrap();
        let mut x = vec![0.0; range.len()];
        let mut status = vec![0.0; STATUS_LEN];
        let result = driver.solve(&mut x, &mut status);
        RankOutcome {
            result,
            status,
            x,
            shrinks: probe::get(probe::Counter::CohortShrinks),
            ranks_lost: probe::get(probe::Counter::RanksLost),
        }
    });
    std::env::remove_var("RSPARSE_CHECKPOINT_EVERY");
    std::env::remove_var("RSPARSE_POSTMORTEM");
    out
}

/// Every postmortem document written under `base` (the sequenced
/// `pm.json`, `pm.1.json`, … family), concatenated.
fn postmortem_docs(base: &str) -> String {
    let mut docs = String::new();
    let path = std::path::Path::new(base);
    if let Ok(s) = std::fs::read_to_string(path) {
        docs.push_str(&s);
    }
    for i in 1..8 {
        let seq = path.with_extension(format!("{i}.json"));
        if let Ok(s) = std::fs::read_to_string(seq) {
            docs.push_str(&s);
        }
    }
    docs
}

/// The `resumed_iteration` recorded in the recovered postmortem.
fn resumed_iteration(docs: &str) -> Option<usize> {
    let idx = docs.find("\"resumed_iteration\":")?;
    let tail = &docs[idx + "\"resumed_iteration\":".len()..];
    let digits: String = tail.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn assert_survivors_recovered(out: &[RankOutcome], exact: &[f64]) -> f64 {
    let n = exact.len();
    let part = BlockRowPartition::even(n, 4);
    let mut final_iterations = 0.0;
    for (rank, o) in out.iter().enumerate() {
        if rank == 2 {
            // The casualty cannot rejoin: structured failure, full
            // status array, and the verdict names its own loss.
            let msg = o.result.as_ref().unwrap_err().to_string();
            assert!(msg.contains("lost from cohort"), "rank 2 got: {msg}");
            assert_eq!(o.status[STATUS_CONVERGED], 0.0);
            assert_eq!(o.status[STATUS_RECOVERY], -1.0);
            assert!(o.ranks_lost >= 1, "the kill must be counted");
            continue;
        }
        o.result.as_ref().unwrap_or_else(|e| panic!("survivor {rank} failed: {e}"));
        assert_eq!(o.status[STATUS_CONVERGED], 1.0, "survivor {rank} must converge");
        assert_eq!(o.status[STATUS_RECOVERY], 3.0, "recovery code 3 = cohort shrink");
        assert_eq!(o.status[STATUS_COHORT], 3.0, "three survivors");
        assert_eq!(o.status[STATUS_ATTEMPTS], 2.0, "one killed attempt + one good");
        assert!(o.status[STATUS_RESIDUAL] < 1e-8, "rank {rank}: {}", o.status[STATUS_RESIDUAL]);
        assert_eq!(o.shrinks, 1, "survivor {rank} shrank exactly once");
        // The caller's buffer holds its *original* rows of the global
        // solution, even though the survivor's block moved.
        let range = part.range(rank);
        let err = o.x.iter().zip(&exact[range]).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        assert!(err < 1e-6, "rank {rank} solution error {err}");
        final_iterations = o.status[STATUS_ITERATIONS];
    }
    final_iterations
}

/// The acceptance scenario end to end: checkpointed resume, then the
/// restart-from-zero fallback, and the iteration-count continuity
/// argument between them.
#[test]
fn killed_rank_mid_cg_survivors_resume_from_checkpoint_or_zero() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let exact = reference_solution();

    // With checkpointing every 10 iterations: resume mid-history.
    let pm_ckpt = "/tmp/lisi-elastic-ckpt.json";
    let out = run_killed(KILL_RANK2, Some(10), pm_ckpt);
    let iters_resumed = assert_survivors_recovered(&out, &exact);
    let docs = postmortem_docs(pm_ckpt);
    assert!(docs.contains("\"trigger\": \"recovered\""), "postmortem records the recovery");
    assert!(
        docs.contains("\"cohort_change\": {\"lost_rank\":2,\"old_size\":4,\"new_size\":3,\"survivors\":[0,1,3]"),
        "cohort_change names the casualty and the survivor mapping:\n{docs}"
    );
    let resumed = resumed_iteration(&docs).expect("cohort_change carries resumed_iteration");
    assert!(resumed >= 10, "killed past the first boundary, resumed at {resumed}");
    assert!(docs.contains("shrink: rank 2 lost, cohort 4 -> 3"), "recovery_path narrates");

    // Same kill without checkpointing: restart from zero still recovers.
    let pm_zero = "/tmp/lisi-elastic-zero.json";
    let out = run_killed(KILL_RANK2, None, pm_zero);
    let iters_restarted = assert_survivors_recovered(&out, &exact);
    let docs = postmortem_docs(pm_zero);
    let resumed = resumed_iteration(&docs).expect("cohort_change present without checkpoints");
    assert_eq!(resumed, 0, "no checkpoint to resume from");

    // Residual-history continuity, observably: resuming from the
    // iteration-`resumed` iterate must beat redoing the whole history.
    assert!(
        iters_resumed < iters_restarted,
        "checkpointed final attempt took {iters_resumed} iterations, \
         restart-from-zero took {iters_restarted}"
    );
}

/// Two losses in one solve: rank 2 mid-CG, then rank 1 on the shrunken
/// cohort. Each shrink mirrors the survivors' new blocks, so the second
/// repartition tiles the rows again and survivors 0 and 3 finish alone.
#[test]
fn a_second_rank_loss_in_one_solve_recovers() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let exact = reference_solution();
    let pm = "/tmp/lisi-elastic-two.json";
    let path = std::path::Path::new(pm);
    let _ = std::fs::remove_file(path);
    for i in 1..8 {
        let _ = std::fs::remove_file(path.with_extension(format!("{i}.json")));
    }
    let plan = "op=allreduce,rank=2,call=30,kind=kill;op=allreduce,rank=1,call=70,kind=kill";
    let out = run_killed(plan, None, pm);
    let part = BlockRowPartition::even(exact.len(), 4);
    for (rank, o) in out.iter().enumerate() {
        if rank == 1 || rank == 2 {
            let msg = o.result.as_ref().unwrap_err().to_string();
            let lost = format!("rank {rank} lost from cohort");
            assert!(msg.contains(&lost), "rank {rank} got: {msg}");
            assert_eq!(o.status[STATUS_CONVERGED], 0.0);
            assert_eq!(o.status[STATUS_RECOVERY], -1.0);
            continue;
        }
        o.result.as_ref().unwrap_or_else(|e| panic!("survivor {rank} failed: {e}"));
        assert_eq!(o.status[STATUS_CONVERGED], 1.0, "survivor {rank} must converge");
        assert_eq!(o.status[STATUS_RECOVERY], 3.0, "recovery code 3 = cohort shrink");
        assert_eq!(o.status[STATUS_COHORT], 2.0, "two survivors");
        assert_eq!(o.status[STATUS_ATTEMPTS], 3.0, "two killed attempts + one good");
        assert_eq!(o.shrinks, 2, "survivor {rank} shrank twice");
        let err =
            o.x.iter()
                .zip(&exact[part.range(rank)])
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
        assert!(err < 1e-6, "rank {rank} solution error {err}");
    }
    let docs = postmortem_docs(pm);
    assert!(docs.contains("shrink: rank 2 lost, cohort 4 -> 3"), "first loss narrated:\n{docs}");
    assert!(docs.contains("shrink: rank 1 lost, cohort 3 -> 2"), "second loss narrated:\n{docs}");
    let last = "\"cohort_change\": {\"lost_rank\":1,\"old_size\":3,\"new_size\":2,\
                \"survivors\":[0,3]";
    assert!(docs.contains(last), "cohort_change is the last shrink:\n{docs}");
}
