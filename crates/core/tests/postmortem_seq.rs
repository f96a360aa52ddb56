//! Postmortems must not clobber each other: two faulted solves in one
//! process leave two files — the configured path plus a `.1.json`
//! sequence sibling (see `probe::ledger::sequenced_dest`).
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

/// Poison rank 2's contribution to CG's ‖r₀‖ reduction, forcing a
/// backend swap (and therefore a "recovered" postmortem) on every run.
const PLAN: &str = "op=allreduce,rank=2,call=2,kind=corrupt;seed=11";

fn faulted_solve_once(a: &rsparse::CsrMatrix, b: &[f64], n: usize) {
    let plan = rcomm::FaultPlan::parse(PLAN).unwrap();
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
}

#[test]
fn two_faulted_solves_leave_two_postmortem_files() {
    let dest =
        std::env::temp_dir().join(format!("lisi_postmortem_seq_{}.json", std::process::id()));
    let dest1 =
        std::env::temp_dir().join(format!("lisi_postmortem_seq_{}.1.json", std::process::id()));
    std::env::set_var("RSPARSE_POSTMORTEM", &dest);
    std::env::set_var("RCOMM_DEADLOCK_TIMEOUT_SECS", "2");
    let _ = std::fs::remove_file(&dest);
    let _ = std::fs::remove_file(&dest1);

    let n_side = 8usize;
    let n = n_side * n_side;
    let a = generate::laplacian_2d(n_side);
    let b = vec![1.0; n];

    faulted_solve_once(&a, &b, n);
    let first =
        std::fs::read_to_string(&dest).expect("first faulted solve writes the configured path");
    assert!(!dest1.exists(), "sequence sibling must not exist after one dump");

    faulted_solve_once(&a, &b, n);
    let second =
        std::fs::read_to_string(&dest1).expect("second faulted solve writes the .1.json sibling");
    let first_again = std::fs::read_to_string(&dest).unwrap();
    assert_eq!(first, first_again, "the first dump is never clobbered");

    for doc in [&first, &second] {
        assert!(doc.contains("\"schema\": \"lisi-postmortem-v1\""), "doc:\n{doc}");
        assert!(doc.contains("\"trigger\": \"recovered\""), "doc:\n{doc}");
        assert!(doc.contains("\"critical_path\":"), "doc:\n{doc}");
    }

    let _ = std::fs::remove_file(&dest);
    let _ = std::fs::remove_file(&dest1);
}
