//! The level-ordered triangular sweeps under the default `cargo test`:
//! CG + ILU(0) and GMRES + ILUT through the port must converge to the same
//! verdict on every rank, and — the sweeps being bit-identical to the
//! natural-order loops they replaced — in exactly the iterations, and to
//! exactly the residual, those loops produced.

use cca_lisi::comm::Universe;
use cca_lisi::lisi::{RkspAdapter, SolveReport, SparseSolverPort, SparseStruct, STATUS_LEN};
use cca_lisi::sparse::{generate, BlockRowPartition, CsrMatrix, DistCsrMatrix, LevelTri, Triangle};

const M: usize = 40;

/// Shortest strided run a triangle stores (`MIN_RUN` in `rsparse`'s
/// `schedule.rs`).
const MIN_RUN: usize = 4;

/// (ranks, iterations, bits of the reported residual) of CG + ILU(0) on
/// the m = 40 Laplacian, recorded with the natural-order sweeps.
const CG_ILU0: [(usize, usize, u64); 3] =
    [(1, 45, 0x3e3aeb3e90cb44bb), (2, 53, 0x3e4484684bb7812e), (3, 55, 0x3e45a3abe43e78be)];

/// The same for GMRES + ILUT(1e-3, 10) on the paper's PDE at m = 40.
const GMRES_ILUT: [(usize, usize, u64); 3] =
    [(1, 13, 0x3e29c8fa78b5fc1c), (2, 31, 0x3e3786881f16e4f9), (3, 44, 0x3e3c239a01ab23d0)];

/// Solve `a·x = b` through the port on `p` ranks; every rank's report and
/// its slice of the solution.
fn solve(
    p: usize,
    a: &CsrMatrix,
    b: &[f64],
    params: &[(&str, &str)],
) -> Vec<(SolveReport, Vec<f64>)> {
    let n = a.rows();
    Universe::run(p, |comm| {
        let range = BlockRowPartition::even(n, comm.size()).range(comm.rank());
        let local = a.row_block(range.start, range.end).unwrap();
        let solver = RkspAdapter::new();
        solver.initialize(comm.dup().unwrap()).unwrap();
        solver.set_start_row(range.start).unwrap();
        solver.set_local_rows(range.len()).unwrap();
        solver.set_global_cols(n).unwrap();
        for (k, v) in params {
            solver.set(k, v).unwrap();
        }
        solver
            .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
            .unwrap();
        solver.setup_rhs(&b[range.clone()], 1).unwrap();
        let mut x = vec![0.0; range.len()];
        let mut status = [0.0; STATUS_LEN];
        solver.solve(&mut x, &mut status).unwrap();
        (SolveReport::from_slice(&status), x)
    })
}

/// Converged, to a true relative residual ≤ 1e-8, with one verdict on
/// every rank and the recorded iteration count and residual.
fn assert_retraces(
    label: &str,
    a: &CsrMatrix,
    params: &[(&str, &str)],
    recorded: &[(usize, usize, u64)],
) {
    let b = a.matvec(&generate::random_vector(a.rows(), 23)).unwrap();
    for &(p, iterations, residual_bits) in recorded {
        let out = solve(p, a, &b, params);
        let x: Vec<f64> = out.iter().flat_map(|(_, x)| x.iter().copied()).collect();
        let r = cca_lisi::sparse::ops::residual(a, &x, &b).unwrap();
        let rel = cca_lisi::sparse::dense::norm2(&r) / cca_lisi::sparse::dense::norm2(&b);
        assert!(rel <= 1e-8, "{label} p = {p}: true relative residual {rel:e}");
        for (rep, _) in &out {
            assert!(rep.converged, "{label} p = {p}");
            assert_eq!(rep.reason, out[0].0.reason, "{label} p = {p}: ranks disagree");
            assert_eq!(
                (rep.iterations, rep.residual.to_bits()),
                (iterations, residual_bits),
                "{label} p = {p}: {} iterations, residual {:e} = {:#018x}",
                rep.iterations,
                rep.residual,
                rep.residual.to_bits()
            );
        }
    }
}

#[test]
fn cg_ilu0_through_the_port_retraces_the_natural_order_sweeps() {
    let params = [("solver", "cg"), ("preconditioner", "ilu"), ("tol", "1e-10")];
    assert_retraces("cg + ilu(0)", &generate::laplacian_2d(M), &params, &CG_ILU0);
}

/// Rows of the block `s..e` of the m × m 5-point grid that the forward
/// sweep of its diagonal block takes in strided runs, from the grid alone.
/// Point `(x, y)` is row `y·m + x`; it reads its west and south
/// neighbours when they are in the block. The points that read both lie
/// on anti-diagonals, one level each, at stride m − 1 and offsets
/// `[−m, −1]`; a point that reads one neighbour (a grid edge, the block's
/// first line) stands between them. A stretch of such points is a run if
/// it is long enough.
fn predicted_forward_runs(m: usize, s: usize, e: usize) -> usize {
    let reads_both = |x: usize, y: usize| {
        let row = y * m + x;
        x >= 1 && row >= s + m && row < e
    };
    (0..2 * m - 1)
        .map(|d| {
            let diagonal: Vec<bool> =
                (0..m).filter(|&y| y <= d && d - y < m).map(|y| reads_both(d - y, y)).collect();
            diagonal
                .split(|&both| !both)
                .map(<[bool]>::len)
                .filter(|&len| len >= MIN_RUN)
                .sum::<usize>()
        })
        .sum()
}

#[test]
fn ilu0_triangles_sweep_the_rows_the_grid_predicts_in_runs() {
    let a = generate::laplacian_2d(M);
    let n = a.rows();
    // One rank: all but the edges and the three shortest anti-diagonals
    // at either end.
    assert_eq!(predicted_forward_runs(M, 0, n), (M - 1) * (M - 1) - MIN_RUN * (MIN_RUN - 1));
    for p in 1..=3 {
        Universe::run(p, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let r = part.range(comm.rank());
            // ILU(0)'s factor keeps its block's pattern, so its triangles
            // are the block's.
            let block =
                DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap().diagonal_block();
            let lower = |i: usize| {
                let (cols, vals) = block.row(i);
                let end = cols.partition_point(|&c| c < i);
                (&cols[..end], &vals[..end])
            };
            let upper = |i: usize| {
                let (cols, vals) = block.row(i);
                let start = cols.partition_point(|&c| c <= i);
                (&cols[start..], &vals[start..])
            };
            let rows = block.rows();
            let fwd = LevelTri::build(Triangle::Lower, rows, lower, None).unwrap();
            let diag = |i: usize| block.get(i, i);
            let bwd = LevelTri::build(Triangle::Upper, rows, upper, Some(&diag)).unwrap();
            // The backward sweep is the forward sweep of the grid turned
            // half a turn, which maps the block to `n − e..n − s`.
            assert_eq!(
                (fwd.run_rows(), bwd.run_rows()),
                (
                    predicted_forward_runs(M, r.start, r.end),
                    predicted_forward_runs(M, n - r.end, n - r.start)
                ),
                "p = {p}, rank {}",
                comm.rank()
            );
        });
    }
}

#[test]
fn gmres_ilut_through_the_port_retraces_the_natural_order_sweeps() {
    let (paper, _) = cca_lisi::mesh::paper_problem(M).assemble_global();
    let params = [
        ("solver", "gmres"),
        ("preconditioner", "ilut"),
        ("droptol", "1e-3"),
        ("fill", "10"),
        ("tol", "1e-10"),
    ];
    assert_retraces("gmres + ilut", &paper, &params, &GMRES_ILUT);
}
