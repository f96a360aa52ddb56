//! One solve, one identity: a faulted-then-recovered resilient solve run
//! with a ledger destination and a trace names the same `trace_id` in
//! its solve ledger, its postmortem (document and every rank fragment),
//! its chrome trace, its critical path and its flight dump — and a
//! ledger whose collective write fails leaves nothing armed behind.
//!
//! Own binary: it points `RSPARSE_POSTMORTEM` at a scratch path and
//! flips the probe's level, both process-wide; the two tests take turns.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use lisi::{
    ResilientSolver, RkspAdapter, RsluAdapter, SparseSolverPort, SparseStruct, StaticSwitch,
    STATUS_LEN,
};
use rcomm::Universe;
use rsparse::{generate, BlockRowPartition};
use serde_json::Value;

static TURN: Mutex<()> = Mutex::new(());

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lisi_trace_id_{}_{tag}.json", std::process::id()))
}

fn trace_id_of(doc: &str, what: &str) -> u64 {
    let v: Value = serde_json::from_str(doc).unwrap_or_else(|e| panic!("{what}: {e:?}\n{doc}"));
    v["trace_id"].as_u64().unwrap_or_else(|| panic!("{what} carries no trace_id:\n{doc}"))
}

#[test]
fn ledger_postmortem_chrome_trace_and_critical_path_name_the_same_solve() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (ledger, postmortem) = (tmp("ledger"), tmp("postmortem"));
    std::env::set_var("RSPARSE_POSTMORTEM", &postmortem);
    std::env::set_var("RCOMM_DEADLOCK_TIMEOUT_SECS", "2");
    probe::reset();
    probe::ledger::set_destination(ledger.to_str().unwrap());
    probe::trace::set_armed(true);

    // Poison rank 2's contribution to CG's ‖r₀‖ reduction: the CG attempt
    // diverges on every rank, the direct backend recovers.
    let plan = rcomm::FaultPlan::parse("op=allreduce,rank=2,call=2,kind=corrupt;seed=11").unwrap();
    let n_side = 8usize;
    let n = n_side * n_side;
    let a = generate::laplacian_2d(n_side);
    let b = vec![1.0; n];
    Universe::run_with_faults(4, Some(plan), move |comm| {
        let range = BlockRowPartition::even(n, comm.size()).range(comm.rank());
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
        driver.set("retry_policy", "rksp:solver=cg,preconditioner=jacobi -> rslu").unwrap();
        driver
            .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
            .unwrap();
        driver.setup_rhs(&b[range.clone()], 1).unwrap();
        let mut x = vec![0.0; range.len()];
        let mut status = vec![0.0; STATUS_LEN];
        driver.solve(&mut x, &mut status).unwrap();
        assert_eq!(status[lisi::status::STATUS_RECOVERY], 2.0, "recovered by swapping backends");
    });
    probe::trace::set_armed(false);
    probe::ledger::clear_destination();

    // Both attempts published a ledger — the diverged CG one first, then
    // the direct solve's under the next sequenced name: one solve, one id.
    let retry = ledger.with_extension("1.json");
    let ledger_doc = std::fs::read_to_string(&ledger).expect("the diverged attempt's ledger");
    let retry_doc = std::fs::read_to_string(&retry).expect("the recovering attempt's ledger");
    let postmortem_doc = std::fs::read_to_string(&postmortem).expect("the cohort's postmortem");
    let chrome = probe::chrome_trace_json();
    let critical_path = probe::critpath::latest_json();
    let flight = probe::render_flight();
    probe::reset();
    for file in [&ledger, &retry, &postmortem] {
        let _ = std::fs::remove_file(file);
    }

    let id = trace_id_of(&ledger_doc, "ledger");
    assert_ne!(id, 0, "a solve always has an id");
    assert_eq!(trace_id_of(&retry_doc, "second ledger"), id);
    assert_eq!(trace_id_of(&postmortem_doc, "postmortem"), id);
    assert_eq!(trace_id_of(&critical_path, "critical path"), id);
    let chrome: Value = serde_json::from_str(&chrome).expect("chrome trace is JSON");
    assert_eq!(chrome["otherData"]["trace_id"].as_u64(), Some(id), "chrome otherData");

    // Every rank's fragment, in the cohort dump and in the flight dump.
    let postmortem: Value = serde_json::from_str(&postmortem_doc).unwrap();
    let tails = postmortem["rank_tails"].as_array().expect("rank_tails");
    assert_eq!(tails.len(), 4);
    for tail in tails {
        assert_eq!(tail["trace_id"].as_u64(), Some(id), "fragment {:?}", tail["rank"]);
    }
    // The postmortem embeds the same ledger and the same critical path.
    assert_eq!(postmortem["ledger"]["trace_id"].as_u64(), Some(id));
    assert_eq!(postmortem["critical_path"]["trace_id"].as_u64(), Some(id));
    let ranked: Vec<u64> = flight
        .lines()
        .map(|l| serde_json::from_str(l).expect("flight dump line"))
        .filter(|v| v["rank"].as_u64().is_some())
        .map(|v| v["trace_id"].as_u64().expect("flight trace_id"))
        .collect();
    assert_eq!(ranked, vec![id; 4], "flight dump:\n{flight}");
}

/// The ledger used to force span timing on at the start of a solve and
/// release it on rank 0 only after its barrier succeeded; one failed
/// barrier left it on for the rest of the process. The level now follows
/// the destination, so clearing the destination is all it takes.
#[test]
fn a_ledger_whose_barrier_fails_leaves_no_span_timing_behind() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("RCOMM_DEADLOCK_TIMEOUT_SECS", "2");
    let dest = tmp("lost_barrier");
    let _ = std::fs::remove_file(&dest);
    probe::reset();
    probe::set_mode(probe::ProbeMode::Off);
    assert!(!probe::enabled(), "nothing asked for spans yet");
    probe::ledger::set_destination(dest.to_str().unwrap());
    assert!(probe::enabled(), "a ledger destination asks for span timing");

    // The solve itself posts no barrier: the first one is the ledger's.
    let plan = rcomm::FaultPlan::parse("op=barrier,rank=1,call=1,kind=error").unwrap();
    let n_side = 8usize;
    let n = n_side * n_side;
    let a = generate::laplacian_2d(n_side);
    let b = vec![1.0; n];
    let fired = Universe::run_with_faults(2, Some(plan), move |comm| {
        let range = BlockRowPartition::even(n, comm.size()).range(comm.rank());
        let local = a.row_block(range.start, range.end).unwrap();
        let solver = RkspAdapter::new();
        solver.initialize(comm.dup().unwrap()).unwrap();
        solver.set_start_row(range.start).unwrap();
        solver.set_local_rows(range.len()).unwrap();
        solver.set_global_cols(n).unwrap();
        solver.set("solver", "cg").unwrap();
        solver
            .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
            .unwrap();
        solver.setup_rhs(&b[range.clone()], 1).unwrap();
        let mut x = vec![0.0; range.len()];
        let mut status = [0.0; STATUS_LEN];
        // Diagnostics never fail a solve: rank 1's barrier errors, rank 0's
        // times out waiting for it, both return the converged solve.
        solver.solve(&mut x, &mut status).unwrap();
        comm.fired_rule_ids()
    });
    assert_eq!(fired[0], vec![0], "the ledger's barrier was the one hit");
    assert!(!dest.exists(), "no rank got past the barrier to write");

    probe::ledger::clear_destination();
    assert!(!probe::enabled(), "span timing must end with the destination");
    probe::reset();
}
