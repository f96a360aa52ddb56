//! Solve-ledger acceptance: schema, model reconciliation, summary
//! agreement, determinism.
//!
//! The ledger is assembled from process-global probe state, so every
//! test in this file serializes on one mutex and resets the registry
//! before solving.

use std::path::PathBuf;
use std::sync::Mutex;

use lisi::{RkspAdapter, SparseSolverPort, STATUS_LEN};
use rcomm::Universe;
use rsparse::{generate, BlockRowPartition, CsrMatrix};
use serde_json::Value;

static LEDGER_LOCK: Mutex<()> = Mutex::new(());

const M: usize = 40; // 2-D Laplacian side; n = 1600 over 4 ranks

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lisi_ledger_test_{}_{tag}.json", std::process::id()))
}

/// Drive a 4-rank CG+ILU(0) solve through the adapter with the ledger
/// armed at `dest`; returns the parsed document and each rank's logical
/// shape: (rows, local nnz, diagonal-block nnz — what ILU(0) factors).
fn solve_with_ledger(dest: &PathBuf) -> (Value, Vec<(u64, u64, u64)>) {
    let _ = std::fs::remove_file(dest);
    probe::reset();
    probe::ledger::set_destination(dest.to_str().unwrap());
    let a = generate::laplacian_2d(M);
    let n = a.rows();
    let b = vec![1.0; n];
    let shapes = Universe::run(4, |comm| {
        let part = BlockRowPartition::even(n, comm.size());
        let range = part.range(comm.rank());
        let local = a.row_block(range.start, range.end).unwrap();
        let solver = RkspAdapter::new();
        solver.initialize(comm.dup().unwrap()).unwrap();
        solver.set_start_row(range.start).unwrap();
        solver.set_local_rows(range.len()).unwrap();
        solver.set_global_cols(n).unwrap();
        solver.set("solver", "cg").unwrap();
        solver.set("preconditioner", "ilu").unwrap();
        solver.set("tol", "1e-10").unwrap();
        solver
            .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), lisi::SparseStruct::Csr)
            .unwrap();
        solver.setup_rhs(&b[range.clone()], 1).unwrap();
        let mut x = vec![0.0; range.len()];
        let mut status = [0.0; STATUS_LEN];
        solver.solve(&mut x, &mut status).unwrap();
        assert!(status[0] != 0.0, "acceptance solve must converge");
        // Diagonal-block nnz: the entries ILU(0) keeps (block-Jacobi
        // preconditioning factors only the local square block).
        let nnz_diag = (0..range.len())
            .map(|lr| {
                let (cols, _) = local.row(lr);
                cols.iter().filter(|&&c| range.contains(&c)).count()
            })
            .sum::<usize>();
        (range.len() as u64, local.nnz() as u64, nnz_diag as u64)
    });
    probe::ledger::clear_destination();
    let text = std::fs::read_to_string(dest)
        .unwrap_or_else(|e| panic!("ledger not written to {}: {e}", dest.display()));
    let doc = serde_json::from_str(&text).expect("ledger is valid JSON");
    (doc, shapes)
}

fn kernels(doc: &Value) -> &Vec<Value> {
    doc.get("kernels").and_then(Value::as_array).expect("kernels array")
}

fn kernel_row<'a>(doc: &'a Value, rank: u64, name: &str) -> &'a Value {
    kernels(doc)
        .iter()
        .find(|row| {
            row.get("rank").and_then(Value::as_u64) == Some(rank)
                && row.get("kernel").and_then(Value::as_str) == Some(name)
        })
        .unwrap_or_else(|| panic!("no kernel row ({rank}, {name})"))
}

fn u(row: &Value, field: &str) -> u64 {
    row.get(field)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("field {field} missing/not integer in {row:?}"))
}

/// Streaming CSR traffic for one SpMV application (mirrors
/// `probe::model::csr_traffic`): values+colidx read, rowptr read, x
/// gathered, y written, plus the row-pointer head.
fn csr_bytes(rows: u64, nnz: u64) -> u64 {
    24 * nnz + 16 * rows + 8
}

/// Traffic of one ILU(0) apply over its two level-ordered triangles
/// (mirrors `rsparse::schedule::register_sweep_model`): 20 bytes per
/// off-diagonal entry (value, `u32` column, gathered `z`), 24 per row and
/// sweep (row id, pointer, one read, one write) and 8 per stored pivot.
fn sweep_bytes(rows: u64, nnz_with_diagonal: u64) -> u64 {
    20 * (nnz_with_diagonal - rows) + 2 * 24 * rows + 8 * rows
}

#[test]
fn ledger_matches_schema_and_reconciles_with_the_plan_model() {
    let _guard = LEDGER_LOCK.lock().unwrap();
    let dest = tmp_path("accept");
    let (doc, shapes) = solve_with_ledger(&dest);

    // Schema shape: versioned id plus every top-level section, typed.
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("rsparse-solve-ledger-v1"));
    assert_eq!(doc.get("backend").and_then(Value::as_str), Some("rksp"));
    let solver = doc.get("solver").and_then(Value::as_object).expect("solver section");
    assert_eq!(solver.get("ksp").and_then(Value::as_str), Some("cg"));
    assert_eq!(solver.get("pc").and_then(Value::as_str), Some("ilu"));
    assert_eq!(solver.get("ranks").and_then(Value::as_u64), Some(4));
    let phases = doc.get("phases").and_then(Value::as_object).expect("phases section");
    assert!(phases.get("solve_seconds").and_then(Value::as_f64).unwrap() > 0.0);
    let conv = doc.get("convergence").and_then(Value::as_object).expect("convergence");
    let iters = conv.get("iterations").and_then(Value::as_u64).expect("iterations");
    assert!(iters > 0);
    assert_eq!(conv.get("converged").and_then(Value::as_bool), Some(true));
    let rate = conv.get("reduction_rate").and_then(Value::as_f64).expect("rate");
    assert!(rate > 0.0 && rate < 1.0, "converging CG reduces per iteration");
    let cond = conv.get("cond_estimate").and_then(Value::as_f64).expect("Lanczos estimate");
    assert!(cond > 1.0);
    assert!(conv.get("pc_quality").and_then(Value::as_f64).unwrap() > 0.0);
    let commsec = doc.get("comm").and_then(Value::as_object).expect("comm section");
    assert_eq!(commsec.get("ranks").and_then(Value::as_array).unwrap().len(), 4);
    doc.get("cohort").and_then(Value::as_object).expect("cohort section");
    let session = doc.get("session").and_then(Value::as_object).expect("session section");
    let misses = session.get("cache_misses").and_then(Value::as_u64).expect("miss counter");
    assert!(misses >= 1, "a fresh solve is a session-cache miss");
    for key in ["cache_hits", "cache_evictions", "rhs_batched"] {
        session.get(key).and_then(Value::as_u64).unwrap_or_else(|| panic!("session.{key}"));
    }
    // The session layer is visible: admission wait and cache lookup come
    // from the same span table as `lisi_solve`, and are small beside it.
    let secs = |key: &str| session.get(key).and_then(Value::as_f64).expect("session seconds");
    let lisi_solve = probe::aggregate()
        .iter()
        .filter_map(|r| r.span("lisi_solve"))
        .map(|s| s.total_s)
        .fold(0.0, f64::max);
    assert!(secs("admit_wait_s") + secs("lookup_s") <= lisi_solve, "session: {session:?}");
    assert_eq!(session.get("warm").and_then(Value::as_bool), Some(false), "a fresh solve is cold");
    assert_eq!(session.get("evictions"), session.get("cache_evictions"));
    assert!(doc.get("trace_id").and_then(Value::as_u64).is_some_and(|id| id != 0));

    // Per-kernel reconciliation, exact: the SpMV rows must equal
    // units × the traffic recomputed from each rank's logical CSR shape.
    for (rank, &(rows, nnz, nnz_diag)) in shapes.iter().enumerate() {
        let row = kernel_row(&doc, rank as u64, "spmv");
        let units = u(row, "units");
        assert!(units > 0, "rank {rank} ran SpMVs");
        assert_eq!(u(row, "flops"), units * 2 * nnz, "rank {rank} spmv flops");
        assert_eq!(u(row, "bytes"), units * csr_bytes(rows, nnz), "rank {rank} spmv bytes");

        // ILU(0) keeps the diagonal block's sparsity pattern, so sptrsv
        // work follows from the block's shape alone.
        let tri = kernel_row(&doc, rank as u64, "sptrsv");
        let tunits = u(tri, "units");
        assert!(tunits > 0, "rank {rank} applied the preconditioner");
        assert_eq!(u(tri, "flops"), tunits * (2 * nnz_diag + rows), "rank {rank} sptrsv flops");
        assert_eq!(
            u(tri, "bytes"),
            tunits * sweep_bytes(rows, nnz_diag),
            "rank {rank} sptrsv bytes"
        );

        // CG vector-op model: 12n flops / 120n bytes per iteration.
        let vec_ops = kernel_row(&doc, rank as u64, "krylov_vec_ops");
        assert_eq!(u(vec_ops, "units"), iters, "vector ops count iterations");
        assert_eq!(u(vec_ops, "flops"), iters * 12 * rows, "rank {rank} vec-op flops");
        assert_eq!(u(vec_ops, "bytes"), iters * 120 * rows, "rank {rank} vec-op bytes");
    }

    // The summary sink renders the same join (model × measured spans):
    // its GB/s column must agree with the ledger within 1% for every
    // solve-phase kernel (those spans stop moving when the solve ends).
    let reports = probe::aggregate();
    let roofline = probe::model::roofline();
    for rep in &reports {
        let rank = rep.rank.expect("rank threads are tagged") as u64;
        for eff in rep.kernel_efficiency(roofline.as_ref()) {
            if !matches!(eff.name, "spmv" | "sptrsv" | "krylov_vec_ops") {
                continue;
            }
            let row = kernel_row(&doc, rank, eff.name);
            let ledger_gbs = row.get("gbs").and_then(Value::as_f64).unwrap();
            assert!(
                (ledger_gbs - eff.gbs).abs() <= 0.01 * eff.gbs.max(f64::MIN_POSITIVE),
                "rank {rank} {}: summary {} GB/s vs ledger {} GB/s",
                eff.name,
                eff.gbs,
                ledger_gbs
            );
        }
    }
    let _ = std::fs::remove_file(&dest);
}

#[test]
fn ledger_model_side_is_deterministic_across_runs() {
    let _guard = LEDGER_LOCK.lock().unwrap();
    let mut snapshots = Vec::new();
    for run in 0..2 {
        let dest = tmp_path(&format!("det{run}"));
        let (doc, _) = solve_with_ledger(&dest);
        // Everything except measured time is a pure function of the
        // input system: kernel set, units, modeled flops and bytes.
        let mut model: Vec<(u64, String, u64, u64, u64)> = kernels(&doc)
            .iter()
            .map(|row| {
                (
                    u(row, "rank"),
                    row.get("kernel").and_then(Value::as_str).unwrap().to_string(),
                    u(row, "units"),
                    u(row, "flops"),
                    u(row, "bytes"),
                )
            })
            .collect();
        model.sort();
        let iters = doc
            .get("convergence")
            .and_then(|c| c.get("iterations"))
            .and_then(Value::as_u64)
            .unwrap();
        snapshots.push((model, iters));
        let _ = std::fs::remove_file(&dest);
    }
    assert_eq!(snapshots[0], snapshots[1], "work model must not drift run to run");
}

#[test]
fn unarmed_solves_write_no_ledger() {
    let _guard = LEDGER_LOCK.lock().unwrap();
    probe::reset();
    probe::ledger::set_destination("off");
    // Tests share one process, so an earlier armed test may already have
    // cached a latest ledger; "no ledger" here means "nothing new".
    let latest_before = probe::ledger::latest_json();
    let a: CsrMatrix = generate::laplacian_2d(8);
    let n = a.rows();
    let b = vec![1.0; n];
    Universe::run(1, |comm| {
        let solver = RkspAdapter::new();
        solver.initialize(comm.dup().unwrap()).unwrap();
        solver.set_start_row(0).unwrap();
        solver.set_local_rows(n).unwrap();
        solver.set_global_cols(n).unwrap();
        solver.set("solver", "cg").unwrap();
        solver.set("preconditioner", "none").unwrap();
        solver.setup_matrix(a.values(), a.row_ptr(), a.col_idx(), lisi::SparseStruct::Csr).unwrap();
        solver.setup_rhs(&b, 1).unwrap();
        let mut x = vec![0.0; n];
        let mut status = [0.0; STATUS_LEN];
        solver.solve(&mut x, &mut status).unwrap();
    });
    probe::ledger::clear_destination();
    assert_eq!(
        probe::ledger::latest_json(),
        latest_before,
        "an unarmed solve must not assemble a ledger"
    );
}
