//! Session-layer acceptance: batched multi-RHS solves are bitwise
//! identical to the equivalent sequence of single solves, and a warm
//! second session performs zero setup (the `lisi_setup` span never
//! opens and the session cache reports a hit on every rank).
//!
//! The service cache is process-global, so every test salts its option
//! table with a unique `session_tag` to keep fingerprints disjoint from
//! concurrently running tests.

use proptest::prelude::*;

use lisi::{
    LisiError, LisiResult, RaztecAdapter, RkspAdapter, RmgAdapter, RsluAdapter, SolveReport,
    SparseSolverPort, SparseStruct, STATUS_LEN,
};
use rcomm::Universe;
use rsparse::{generate, BlockRowPartition, CsrMatrix};

/// Build one adapter wired to `comm` over a row block of `a`.
fn wire(
    comm: &rcomm::Communicator,
    a: &CsrMatrix,
    n: usize,
    tag: &str,
    opts: &[(&str, &str)],
) -> (RkspAdapter, std::ops::Range<usize>) {
    let part = BlockRowPartition::even(n, comm.size());
    let range = part.range(comm.rank());
    let local = a.row_block(range.start, range.end).unwrap();
    let solver = RkspAdapter::new();
    solver.initialize(comm.dup().unwrap()).unwrap();
    solver.set_start_row(range.start).unwrap();
    solver.set_local_rows(range.len()).unwrap();
    solver.set_global_cols(n).unwrap();
    solver.set("session_tag", tag).unwrap();
    for (k, v) in opts {
        solver.set(k, v).unwrap();
    }
    solver
        .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
        .unwrap();
    (solver, range)
}

/// Solve `k` right-hand sides two ways on `p` ranks — one `solve_batch`
/// call against `k` independent single solves — and return the local
/// solution blocks `(batched, sequential)` per rank.
fn batch_and_sequential(
    p: usize,
    k: usize,
    n_side: usize,
    rhs_full: Vec<f64>,
    tag: String,
    opts: Vec<(String, String)>,
) -> Vec<(Vec<f64>, Vec<f64>)> {
    let n = n_side * n_side;
    assert_eq!(rhs_full.len(), k * n);
    let a = generate::laplacian_2d(n_side);
    Universe::run(p, move |comm| {
        let opts: Vec<(&str, &str)> = opts.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        let (batched, range) = wire(comm, &a, n, &tag, &opts);
        let rows = range.len();
        // Column-major local blocks: column j's slice of this rank.
        let mut local_rhs = Vec::with_capacity(k * rows);
        for j in 0..k {
            local_rhs.extend_from_slice(&rhs_full[j * n..][range.clone()]);
        }
        batched.set_int("nrhs", k as i64).unwrap();
        batched.setup_rhs(&local_rhs, k).unwrap();
        let mut x_batch = vec![0.0; k * rows];
        let mut status = [0.0; STATUS_LEN];
        batched.solve_batch(&mut x_batch, &mut status).unwrap();

        let (single, _) = wire(comm, &a, n, &tag, &opts);
        let mut x_seq = vec![0.0; k * rows];
        for j in 0..k {
            single.setup_rhs(&local_rhs[j * rows..(j + 1) * rows], 1).unwrap();
            let mut status = [0.0; STATUS_LEN];
            single.solve(&mut x_seq[j * rows..(j + 1) * rows], &mut status).unwrap();
        }
        (x_batch, x_seq)
    })
}

fn assert_bitwise(out: &[(Vec<f64>, Vec<f64>)], ctx: &str) {
    for (rank, (batch, seq)) in out.iter().enumerate() {
        assert_eq!(batch.len(), seq.len());
        for (i, (a, b)) in batch.iter().zip(seq.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{ctx}: rank {rank} entry {i}: batched {a:e} != sequential {b:e}"
            );
        }
    }
}

fn cg_opts() -> Vec<(String, String)> {
    [("solver", "cg"), ("preconditioner", "jacobi"), ("tol", "1e-10")]
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Serial: any batch width in {1, 2, 4, 8} with arbitrary finite
    /// right-hand sides reproduces the single-solve bits exactly.
    #[test]
    fn batched_solves_match_single_solves_bitwise_serial(
        ki in 0usize..4,
        seed in proptest::collection::vec(-1.0f64..1.0, 8 * 8 * 8),
    ) {
        let k = [1usize, 2, 4, 8][ki];
        let rhs = seed[..k * 64].to_vec();
        let out = batch_and_sequential(
            1, k, 8, rhs, format!("prop_serial_k{k}"), cg_opts(),
        );
        assert_bitwise(&out, "serial");
    }
}

#[test]
fn batched_solves_match_single_solves_bitwise_on_three_ranks() {
    for k in [2usize, 4, 8] {
        let n = 12 * 12;
        let rhs: Vec<f64> = (0..k * n).map(|i| ((i % 17) as f64 - 8.0) / 8.0).collect();
        let out = batch_and_sequential(3, k, 12, rhs, format!("dist3_k{k}"), cg_opts());
        assert_bitwise(&out, "three ranks");
    }
}

/// Direct backend: `solve_batch` reuses one factorization across the
/// whole block and still matches column-by-column solves bitwise.
#[test]
fn rslu_batched_solves_match_single_solves_bitwise() {
    let n_side = 7usize;
    let n = n_side * n_side;
    let k = 3usize;
    let a = generate::laplacian_2d(n_side);
    let rhs_full: Vec<f64> = (0..k * n).map(|i| 1.0 + (i % 5) as f64).collect();
    let out = Universe::run(2, move |comm| {
        let part = BlockRowPartition::even(n, comm.size());
        let range = part.range(comm.rank());
        let local = a.row_block(range.start, range.end).unwrap();
        let rows = range.len();
        let make = || {
            let solver = RsluAdapter::new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(range.start).unwrap();
            solver.set_local_rows(rows).unwrap();
            solver.set_global_cols(n).unwrap();
            solver.set("session_tag", "rslu_batch").unwrap();
            solver
                .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
                .unwrap();
            solver
        };
        let mut local_rhs = Vec::with_capacity(k * rows);
        for j in 0..k {
            local_rhs.extend_from_slice(&rhs_full[j * n..][range.clone()]);
        }
        let batched = make();
        batched.setup_rhs(&local_rhs, k).unwrap();
        let mut x_batch = vec![0.0; k * rows];
        let mut status = [0.0; STATUS_LEN];
        batched.solve_batch(&mut x_batch, &mut status).unwrap();
        let single = make();
        let mut x_seq = vec![0.0; k * rows];
        for j in 0..k {
            single.setup_rhs(&local_rhs[j * rows..(j + 1) * rows], 1).unwrap();
            let mut status = [0.0; STATUS_LEN];
            single.solve(&mut x_seq[j * rows..(j + 1) * rows], &mut status).unwrap();
        }
        (x_batch, x_seq)
    });
    assert_bitwise(&out, "rslu");
}

/// The tentpole acceptance: a second session over the same system does
/// zero setup. The `lisi_setup` span is never opened again, and every
/// rank records exactly one session-cache hit.
#[test]
fn warm_second_session_performs_zero_setup() {
    let n_side = 10usize;
    let n = n_side * n_side;
    let a = generate::laplacian_2d(n_side);
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
    let checks = Universe::run(3, move |comm| {
        // Span recording is lazy: force collection on so the test can
        // observe whether a solve opened the `lisi_setup` span at all.
        probe::set_mode(probe::ProbeMode::Summary);
        let opts = cg_opts();
        let opts: Vec<(&str, &str)> = opts.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        let solve_once = |tag: &str| {
            let (solver, range) = wire(comm, &a, n, tag, &opts);
            solver.setup_rhs(&b[range.clone()], 1).unwrap();
            let mut x = vec![0.0; range.len()];
            let mut status = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut status).unwrap();
            x
        };
        let snapshot = || {
            let rep = probe::local_report();
            (
                rep.counter(probe::Counter::SessionCacheHits),
                rep.counter(probe::Counter::SessionCacheMisses),
                rep.span("lisi_setup").map(|s| s.calls).unwrap_or(0),
            )
        };
        let before = snapshot();
        let x_cold = solve_once("warm_session");
        let after_cold = snapshot();
        let x_warm = solve_once("warm_session");
        let after_warm = snapshot();
        let bitwise = x_cold.iter().zip(x_warm.iter()).all(|(a, b)| a.to_bits() == b.to_bits());
        (before, after_cold, after_warm, bitwise)
    });
    for (rank, (before, cold, warm, bitwise)) in checks.iter().enumerate() {
        assert_eq!(cold.1 - before.1, 1, "rank {rank}: cold solve is one miss");
        assert!(cold.2 > before.2, "rank {rank}: cold solve opened lisi_setup");
        assert_eq!(warm.0 - cold.0, 1, "rank {rank}: warm solve is one hit");
        assert_eq!(warm.1, cold.1, "rank {rank}: warm solve is not a miss");
        assert_eq!(warm.2, cold.2, "rank {rank}: warm solve never opened the lisi_setup span");
        assert!(bitwise, "rank {rank}: warm solve reproduces the cold bits");
    }
}

/// A solve's status reports the set-up it spent. The conversion a
/// `setupMatrix` paid is charged once, to the next solve: warm re-solves
/// with no new `setupMatrix` report exactly zero, and the first solve
/// after a new one (a cache hit: the same system) reports that call's
/// conversion and nothing it reported before. A solve that fails before
/// writing its status leaves the conversion to the next solve.
#[test]
fn status_setup_seconds_charges_each_conversion_once() {
    let n = 8 * 8;
    let a = generate::laplacian_2d(8);
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    let setups = Universe::run(1, |comm| {
        let opts = cg_opts();
        let opts: Vec<(&str, &str)> = opts.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        let (solver, _) = wire(comm, &a, n, "setup_seconds_once", &opts);
        solver.setup_rhs(&b, 1).unwrap();
        let solve = || {
            let mut x = vec![0.0; n];
            let mut status = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut status).unwrap();
            SolveReport::from_slice(&status).setup_seconds
        };
        let mut setups = vec![solve(), solve(), solve()];
        solver.setup_matrix(a.values(), a.row_ptr(), a.col_idx(), SparseStruct::Csr).unwrap();
        let mut short = vec![0.0; n - 1];
        assert!(solver.solve(&mut short, &mut [0.0; STATUS_LEN]).is_err(), "a short buffer");
        setups.extend([solve(), solve()]);
        setups
    });
    let [cold, warm, warm_again, after_setup, warm_after] = setups[0][..] else {
        panic!("five solves: {setups:?}");
    };
    assert!(cold > 0.0, "the cold solve built and converted: {cold}");
    assert_eq!((warm, warm_again), (0.0, 0.0), "warm re-solves spent no set-up");
    assert!(
        after_setup > 0.0,
        "the new setupMatrix converted, the failed solve kept it: {after_setup}"
    );
    assert_eq!(warm_after, 0.0, "its conversion is charged once");
}

/// What the probe saw on this rank so far: session-cache hits and
/// misses, `lisi_setup` spans opened, columns counted as batched.
fn session_snapshot() -> [u64; 4] {
    let rep = probe::local_report();
    [
        rep.counter(probe::Counter::SessionCacheHits),
        rep.counter(probe::Counter::SessionCacheMisses),
        rep.span("lisi_setup").map(|s| s.calls).unwrap_or(0),
        rep.counter(probe::Counter::RhsBatched),
    ]
}

/// The solve pipeline's contract, for one backend on `p` ranks. Each
/// step wires a fresh adapter (`new`) over the same row blocks of a 15×15
/// grid Laplacian, so what carries over between steps is the
/// process-wide session cache and nothing else.
fn pipeline_contract<A: SparseSolverPort>(
    name: &'static str,
    p: usize,
    new: fn() -> A,
    solve_batch: fn(&A, &mut [f64], &mut [f64]) -> LisiResult<()>,
    opts: &'static [(&'static str, &'static str)],
) {
    let n_side = 15usize;
    let n = n_side * n_side;
    let a = generate::laplacian_2d(n_side);
    let b: Vec<f64> = (0..2 * n).map(|i| 1.0 + (i % 3) as f64).collect();
    Universe::run(p, move |comm| {
        probe::set_mode(probe::ProbeMode::Summary);
        let rank = comm.rank();
        let range = BlockRowPartition::even(n, comm.size()).range(rank);
        let rows = range.len();
        let local = a.row_block(range.start, range.end).unwrap();
        let tag = format!("contract_{name}_{p}");
        // Wire an adapter over `scale`·A with `extra` options on top of
        // the backend's own, then solve `k` columns; returns the solution
        // and what the solve alone added to the probe's counts.
        let solve = |scale: f64, extra: &[(&str, &str)], k: usize, batch: bool| {
            let solver = new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(range.start).unwrap();
            solver.set_local_rows(rows).unwrap();
            solver.set_global_cols(n).unwrap();
            solver.set("session_tag", &tag).unwrap();
            for (key, value) in opts.iter().chain(extra) {
                solver.set(key, value).unwrap();
            }
            let values: Vec<f64> = local.values().iter().map(|v| scale * v).collect();
            solver
                .setup_matrix(&values, local.row_ptr(), local.col_idx(), SparseStruct::Csr)
                .unwrap();
            let mut rhs = Vec::with_capacity(k * rows);
            for j in 0..k {
                rhs.extend_from_slice(&b[j * n..][range.clone()]);
            }
            solver.setup_rhs(&rhs, k).unwrap();
            let mut x = vec![0.0; k * rows];
            let mut status = [0.0; STATUS_LEN];
            let before = session_snapshot();
            if batch {
                solve_batch(&solver, &mut x, &mut status).unwrap();
            } else {
                solver.solve(&mut x, &mut status).unwrap();
            }
            let after = session_snapshot();
            let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            (bits, std::array::from_fn::<u64, 4, _>(|i| after[i] - before[i]))
        };
        let ctx = format!("{name} on {p} ranks, rank {rank}");

        let (x_cold, cold) = solve(1.0, &[], 1, false);
        assert_eq!(cold[..2], [0, 1], "{ctx}: the first solve is a miss");
        assert!(cold[2] > 0, "{ctx}: the first solve opens lisi_setup");
        let (x_warm, warm) = solve(1.0, &[], 1, false);
        assert_eq!(warm[..3], [1, 0, 0], "{ctx}: the second solve is a hit with no set-up");
        assert_eq!(x_warm, x_cold, "{ctx}: warm and cold solutions agree bit for bit");
        let (_, new_values) = solve(2.0, &[], 1, false);
        assert_eq!(new_values[..2], [0, 1], "{ctx}: same pattern, new values is a miss");
        let (_, new_option) = solve(1.0, &[("contract_extra", "1")], 1, false);
        assert_eq!(new_option[..2], [0, 1], "{ctx}: a changed option is a miss");

        // `solve_batch` and `solve` under `nrhs ≥ 2` are one path: both
        // count their columns as batched and agree bit for bit.
        let (x_batch, batch) = solve(1.0, &[], 2, true);
        let (x_nrhs, nrhs) = solve(1.0, &[("nrhs", "2")], 2, false);
        assert_eq!((batch[3], nrhs[3]), (2, 2), "{ctx}: both entries batch two columns");
        assert_eq!(x_batch, x_nrhs, "{ctx}: solve_batch and nrhs=2 agree bit for bit");
        assert_eq!(batch[..3], [1, 0, 0], "{ctx}: a batch reuses the single solve's set-up");
    });
}

/// Collectives this rank posted so far, one count per flavour.
fn collective_snapshot() -> [u64; 7] {
    use probe::Counter::*;
    let rep = probe::local_report();
    [Barriers, Bcasts, Allreduces, Gathers, Allgathers, Scatters, Alltoalls].map(|c| rep.counter(c))
}

/// A warm RSLU re-solve moves each column to the root and back and agrees
/// once on admission — nothing else: the residual in `status` is the one
/// the root's refinement step already formed, sent with the scatter, not
/// a second product behind an `allgather` and an `allreduce`.
#[test]
fn warm_rslu_resolve_is_gather_scatter_and_one_agreement() {
    let n_side = 12usize;
    let n = n_side * n_side;
    let a = generate::laplacian_2d(n_side);
    let x_true = generate::random_vector(n, 77);
    let b = a.matvec(&x_true).unwrap();
    for p in [1usize, 3] {
        let (a, b, x_true) = (a.clone(), b.clone(), x_true.clone());
        Universe::run(p, move |comm| {
            probe::set_mode(probe::ProbeMode::Summary);
            let range = BlockRowPartition::even(n, comm.size()).range(comm.rank());
            let rows = range.len();
            let local = a.row_block(range.start, range.end).unwrap();
            let solver = RsluAdapter::new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(range.start).unwrap();
            solver.set_local_rows(rows).unwrap();
            solver.set_global_cols(n).unwrap();
            solver.set("session_tag", &format!("rslu_traffic_{p}")).unwrap();
            solver
                .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
                .unwrap();
            let mut status = [0.0; STATUS_LEN];
            // The first solve is cold; the re-solves of one and of two
            // columns find the factors in the session cache.
            for (nth, k) in [1usize, 1, 2].into_iter().enumerate() {
                let rhs: Vec<f64> = (0..k).flat_map(|_| b[range.clone()].iter().copied()).collect();
                solver.setup_rhs(&rhs, k).unwrap();
                let mut x = vec![0.0; k * rows];
                let before = collective_snapshot();
                solver.solve(&mut x, &mut status).unwrap();
                let after = collective_snapshot();
                let posted: [u64; 7] = std::array::from_fn(|i| after[i] - before[i]);
                let ctx = format!("{p} ranks, rank {}, {k} column(s)", comm.rank());
                if nth > 0 {
                    let k = k as u64;
                    assert_eq!(posted, [0, 0, 0, k, 1, k, 0], "{ctx}");
                }
                let report = lisi::SolveReport::from_slice(&status);
                assert!(report.residual < 1e-10, "{ctx}: residual {}", report.residual);
                for (g, e) in x[..rows].iter().zip(&x_true[range.clone()]) {
                    assert!((g - e).abs() < 1e-9, "{ctx}");
                }
            }
        });
    }
}

/// A warm RMG re-solve moves all of its columns to the root in one
/// gather (right-hand sides and guesses together) and back in one
/// scatter that carries the root's verdict, and agrees once on
/// admission — no per-column traffic and no verdict broadcast. The root
/// cycles on the cached hierarchy exactly as a serial `RmgSolver` does:
/// the same cycle counts and the same solution bits.
#[test]
fn warm_rmg_resolve_is_one_gather_one_scatter_and_one_agreement() {
    let m = 15usize;
    let n = m * m;
    let a = generate::laplacian_2d(m);
    let bs: Vec<Vec<f64>> =
        (0..4).map(|q| a.matvec(&generate::random_vector(n, 90 + q)).unwrap()).collect();
    let hierarchy =
        rmg::Hierarchy::build(a.clone(), m, rmg::CoarseOperator::Galerkin, 20, 1, None).unwrap();
    let serial =
        rmg::RmgSolver::new(&hierarchy, rmg::MgConfig { rtol: 1e-9, ..Default::default() })
            .unwrap();
    let reference: Vec<(Vec<f64>, rmg::MgResult)> = bs
        .iter()
        .map(|b| {
            let mut x = vec![0.0; n];
            let res = serial.solve(b, &mut x).unwrap();
            (x, res)
        })
        .collect();
    for p in [1usize, 3] {
        let (a, bs, reference) = (a.clone(), bs.clone(), reference.clone());
        Universe::run(p, move |comm| {
            probe::set_mode(probe::ProbeMode::Summary);
            let range = BlockRowPartition::even(n, comm.size()).range(comm.rank());
            let rows = range.len();
            let local = a.row_block(range.start, range.end).unwrap();
            let solver = RmgAdapter::new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(range.start).unwrap();
            solver.set_local_rows(rows).unwrap();
            solver.set_global_cols(n).unwrap();
            solver.set("tol", "1e-9").unwrap();
            solver.set("session_tag", &format!("rmg_traffic_{p}")).unwrap();
            solver
                .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
                .unwrap();
            let mut status = [0.0; STATUS_LEN];
            // The first solve is cold; the re-solves of one and of four
            // columns find the hierarchy in the session cache.
            for (nth, k) in [1usize, 1, 4].into_iter().enumerate() {
                let rhs: Vec<f64> =
                    bs[..k].iter().flat_map(|b| b[range.clone()].iter().copied()).collect();
                solver.setup_rhs(&rhs, k).unwrap();
                let mut x = vec![0.0; k * rows];
                let before = collective_snapshot();
                solver.solve(&mut x, &mut status).unwrap();
                let after = collective_snapshot();
                let posted: [u64; 7] = std::array::from_fn(|i| after[i] - before[i]);
                let ctx = format!("{p} ranks, rank {}, {k} column(s)", comm.rank());
                if nth > 0 {
                    assert_eq!(posted, [0, 0, 0, 1, 1, 1, 0], "{ctx}");
                }
                let report = lisi::SolveReport::from_slice(&status);
                let cycles = reference[..k].iter().map(|(_, r)| r.cycles).max().unwrap();
                assert!(report.converged, "{ctx}");
                assert_eq!(report.iterations, cycles, "{ctx}");
                for (q, (x_ref, _)) in reference[..k].iter().enumerate() {
                    let got = x[q * rows..(q + 1) * rows].iter().map(|v| v.to_bits());
                    let want = x_ref[range.clone()].iter().map(|v| v.to_bits());
                    assert!(got.eq(want), "{ctx}: column {q} bits");
                }
            }
        });
    }
}

/// One contract for all four backends: warm/cold agreement, keying, and
/// the batched entry points behave the same whichever package runs.
#[test]
fn pipeline_contract_holds_for_every_backend() {
    for p in [1usize, 3] {
        pipeline_contract(
            "rksp",
            p,
            RkspAdapter::new,
            RkspAdapter::solve_batch,
            &[("solver", "cg"), ("preconditioner", "jacobi"), ("tol", "1e-10")],
        );
        pipeline_contract(
            "raztec",
            p,
            RaztecAdapter::new,
            RaztecAdapter::solve_batch,
            &[("solver", "cg"), ("preconditioner", "jacobi"), ("tol", "1e-10")],
        );
        pipeline_contract("rslu", p, RsluAdapter::new, RsluAdapter::solve_batch, &[]);
        pipeline_contract("rmg", p, RmgAdapter::new, RmgAdapter::solve_batch, &[("tol", "1e-9")]);
    }
}

/// A batch `[hard b, zero b]` under a small `maxits`: the hard column runs
/// out of iterations, the zero one converges at once. The status and the
/// port error name the first column that failed (reason code −1), not the
/// last column's convergence.
fn first_failed_column_names_the_reason<A: SparseSolverPort>(
    name: &'static str,
    p: usize,
    new: fn() -> A,
    solve_batch: fn(&A, &mut [f64], &mut [f64]) -> LisiResult<()>,
) {
    let n_side = 12usize;
    let n = n_side * n_side;
    let a = generate::laplacian_2d(n_side);
    Universe::run(p, move |comm| {
        let range = BlockRowPartition::even(n, comm.size()).range(comm.rank());
        let rows = range.len();
        let local = a.row_block(range.start, range.end).unwrap();
        let solver = new();
        solver.initialize(comm.dup().unwrap()).unwrap();
        solver.set_start_row(range.start).unwrap();
        solver.set_local_rows(rows).unwrap();
        solver.set_global_cols(n).unwrap();
        solver.set("session_tag", &format!("first_failure_{name}_{p}")).unwrap();
        for (key, value) in
            [("solver", "cg"), ("preconditioner", "jacobi"), ("tol", "1e-10"), ("maxits", "3")]
        {
            solver.set(key, value).unwrap();
        }
        solver
            .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
            .unwrap();
        let mut rhs: Vec<f64> = range.clone().map(|i| 1.0 + (i % 5) as f64).collect();
        rhs.resize(2 * rows, 0.0);
        solver.setup_rhs(&rhs, 2).unwrap();
        let mut x = vec![0.0; 2 * rows];
        let mut status = [0.0; STATUS_LEN];
        let err = solve_batch(&solver, &mut x, &mut status).unwrap_err();
        let report = SolveReport::from_slice(&status);
        let ctx = format!("{name} on {p} ranks, rank {}", comm.rank());
        assert!(!report.converged, "{ctx}: the hard column did not converge");
        assert_eq!(report.reason, -1, "{ctx}: the hard column's reason, not the zero column's");
        assert!(
            matches!(&err, LisiError::Package(m) if m.ends_with("(reason code -1)")),
            "{ctx}: {err}"
        );
    });
}

#[test]
fn batch_status_names_the_first_failed_column() {
    for p in [1usize, 3] {
        first_failed_column_names_the_reason("rksp", p, RkspAdapter::new, RkspAdapter::solve_batch);
        first_failed_column_names_the_reason(
            "raztec",
            p,
            RaztecAdapter::new,
            RaztecAdapter::solve_batch,
        );
    }
}
