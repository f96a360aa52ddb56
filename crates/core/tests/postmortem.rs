//! Round-trip of the flight recorder's failure postmortem: break CG on
//! rank 2 of 4 with a seeded fault, let the resilient driver swap to the
//! direct backend, and parse the single cohort-wide `postmortem.json`.
//!
//! Lives in its own binary: it points `RSPARSE_POSTMORTEM` at a scratch
//! path, process-wide.

use std::sync::Arc;

use lisi::status::{STATUS_CONVERGED, STATUS_RECOVERY};
use lisi::{
    ResilientSolver, RkspAdapter, RsluAdapter, SparseSolverPort, SparseStruct, StaticSwitch,
    STATUS_LEN,
};
use rcomm::Universe;
use rsparse::{generate, BlockRowPartition};

/// The canonical acceptance fault: poison rank 2's contribution to CG's
/// ‖r₀‖ reduction, forcing every rank onto the fallback backend.
const PLAN: &str = "op=allreduce,rank=2,call=2,kind=corrupt;seed=11";

#[test]
fn postmortem_round_trips_through_the_cohort_dump() {
    let dest = std::env::temp_dir().join(format!("lisi_postmortem_{}.json", std::process::id()));
    std::env::set_var("RSPARSE_POSTMORTEM", &dest);
    std::env::set_var("RCOMM_DEADLOCK_TIMEOUT_SECS", "2");
    let _ = std::fs::remove_file(&dest);

    let plan = rcomm::FaultPlan::parse(PLAN).unwrap();
    let n_side = 8usize;
    let n = n_side * n_side;
    let a = generate::laplacian_2d(n_side);
    let b = vec![1.0; n];
    let out = Universe::run_with_faults(4, Some(plan), move |comm| {
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
        driver.set("retry_policy", "rksp:solver=cg,preconditioner=jacobi -> rslu").unwrap();
        driver.set_double("tol", 1e-10).unwrap();
        driver
            .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
            .unwrap();
        driver.setup_rhs(&b[range.clone()], 1).unwrap();
        let mut x = vec![0.0; range.len()];
        let mut status = vec![0.0; STATUS_LEN];
        driver.solve(&mut x, &mut status).unwrap();
        status
    });
    for status in &out {
        assert_eq!(status[STATUS_CONVERGED], 1.0);
        assert_eq!(status[STATUS_RECOVERY], 2.0, "recovered by swapping backends");
    }

    let doc = std::fs::read_to_string(&dest).expect("rank 0 wrote the cohort postmortem");
    let _ = std::fs::remove_file(&dest);

    // Envelope: schema, trigger, cohort-wide gather.
    assert!(doc.contains("\"schema\": \"lisi-postmortem-v1\""), "doc:\n{doc}");
    assert!(doc.contains("\"trigger\": \"recovered\""), "doc:\n{doc}");
    assert!(doc.contains("\"ranks\": 4"), "doc:\n{doc}");
    assert!(doc.contains("\"gathered\": \"cohort\""), "doc:\n{doc}");

    // All four ranks' event tails made it into the one file.
    for rank in 0..4 {
        assert!(doc.contains(&format!("\"rank\":{rank}")), "missing rank {rank}:\n{doc}");
    }

    // The injected rule: the armed plan's spec round-trips, and the rule
    // that actually fired is identified by index.
    assert!(doc.contains("op=allreduce,kind=corrupt,rank=2,call=2"), "doc:\n{doc}");
    assert!(doc.contains("\"fault_rules_fired\": [0]"), "doc:\n{doc}");

    // The recovery path: failed CG attempt, swap, direct-solver success.
    assert!(doc.contains("rksp#1: swap:"), "doc:\n{doc}");
    assert!(doc.contains("rslu#2: ok"), "doc:\n{doc}");
    assert!(doc.contains("\"policy\": \"rksp:solver=cg,preconditioner=jacobi -> rslu\""));

    // Flight events: attempt transitions, the fault firing on rank 2,
    // per-iteration residuals and the divergence verdict all in-band.
    assert!(doc.contains("\"type\":\"attempt\""), "doc:\n{doc}");
    assert!(doc.contains("\"phase\":\"swap\""), "doc:\n{doc}");
    assert!(doc.contains("\"type\":\"fault\""), "doc:\n{doc}");
    assert!(doc.contains("\"type\":\"verdict\""), "doc:\n{doc}");
    assert!(doc.contains("\"residual_history\":["), "doc:\n{doc}");

    // The whole document is balanced JSON (the shims have no serde; a
    // structural brace count catches truncation and quoting slips).
    let mut depth = 0i64;
    let mut in_str = false;
    let mut esc = false;
    for c in doc.chars() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    assert!(!in_str, "unterminated string in:\n{doc}");
    assert_eq!(depth, 0, "unbalanced JSON in:\n{doc}");
}
