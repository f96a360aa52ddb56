//! The stencil-run SpMV under the default `cargo test`: on the paper's own
//! matrix the distributed CSR plan stores the rows that repeat the row
//! above shifted by one column as runs without column indices, and that
//! must change nothing but the time — not which rows the plan covers, not
//! one bit of a product, not one iteration of a solve through the port.

use cca_lisi::comm::Universe;
use cca_lisi::lisi::{RkspAdapter, SolveReport, SparseSolverPort, SparseStruct, STATUS_LEN};
use cca_lisi::sparse::{BlockRowPartition, CsrMatrix, DistCsrMatrix, DistVector};

/// Shortest run the plan stores (`MIN_RUN_ROWS` in `rsparse`'s
/// `compact.rs`).
const MIN_RUN_ROWS: usize = 16;

/// Rows of the m×m 5-point grid a rank owning rows `s..e` stores as runs,
/// from the grid alone: in grid line `gy` the points `1..m−1` have all
/// five (four on the first and last line) neighbours, the row of point
/// `gx + 1` is the row of `gx` shifted by one, and a point is interior to
/// the rank when its west, east, south and north neighbours are owned. The
/// qualifying points of a line are one stretch; it is a run if long enough.
fn predicted_run_rows(m: usize, s: usize, e: usize) -> usize {
    let mut rows = 0;
    for gy in 0..m {
        let line = gy * m;
        let owned_neighbours = |gx: usize| {
            let i = line + gx;
            i > s && i + 1 < e && (gy == 0 || i >= s + m) && (gy == m - 1 || i + m < e)
        };
        let stretch = (1..m.saturating_sub(1)).filter(|&gx| owned_neighbours(gx)).count();
        if stretch >= MIN_RUN_ROWS {
            rows += stretch;
        }
    }
    rows
}

/// `a`'s pattern with small integer values: every product and partial sum
/// is exact, so a boundary row summed "owned entries, then ghost entries"
/// equals the serial left-to-right sum bit for bit.
fn with_integer_values(a: &CsrMatrix) -> CsrMatrix {
    let values = (0..a.nnz()).map(|k| ((k * 7) % 13) as f64 - 6.0).collect();
    CsrMatrix::from_parts(a.rows(), a.cols(), a.row_ptr().to_vec(), a.col_idx().to_vec(), values)
        .unwrap()
}

#[test]
fn runs_cover_what_the_grid_predicts_and_the_product_is_bitwise_serial() {
    // m = 96 gives each of four ranks 2 304 rows.
    for m in [3usize, 17, 40, 96] {
        let (paper, _) = cca_lisi::mesh::paper_problem(m).assemble_global();
        let n = paper.rows();
        for p in [1usize, 2, 3, 4] {
            // Any reals on one rank (a row is summed in one order either
            // way); integer-valued data where boundary rows reorder.
            let a = if p == 1 { paper.clone() } else { with_integer_values(&paper) };
            let xs: Vec<Vec<f64>> = (0..8)
                .map(|q| {
                    if p == 1 {
                        cca_lisi::sparse::generate::random_vector(n, 16 + q as u64)
                    } else {
                        (0..n).map(|i| ((i * 5 + q * 11) % 17) as f64 - 8.0).collect()
                    }
                })
                .collect();
            let want: Vec<Vec<f64>> = xs.iter().map(|x| a.matvec(x).unwrap()).collect();
            let tag = format!("m = {m}, p = {p}");
            let covered: usize = Universe::run(p, |comm| {
                let part = BlockRowPartition::even(n, comm.size());
                let r = part.range(comm.rank());
                let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
                assert_eq!(
                    da.stencil_row_count(),
                    predicted_run_rows(m, r.start, r.end),
                    "{tag}, rank {}",
                    comm.rank()
                );
                assert!(da.stencil_row_count() <= da.interior_row_count());
                let dx = DistVector::from_global(part, comm.rank(), &xs[0]).unwrap();
                let dy = da.matvec(comm, &dx).unwrap();
                assert_same_bits(dy.local(), &want[0][r.clone()], &tag);
                // Batched: k columns through one halo exchange.
                for k in [1usize, 3, 8] {
                    let flat: Vec<f64> =
                        xs[..k].iter().flat_map(|x| x[r.clone()].to_vec()).collect();
                    let mut ys = vec![f64::NAN; flat.len()];
                    da.matvec_multi_into(comm, &flat, &mut ys, k).unwrap();
                    for (q, w) in want[..k].iter().enumerate() {
                        assert_same_bits(
                            &ys[q * r.len()..(q + 1) * r.len()],
                            &w[r.clone()],
                            &format!("{tag}, column {q} of {k}"),
                        );
                    }
                }
                da.stencil_row_count()
            })
            .into_iter()
            .sum();
            // m = 3 has one point per line between the edges and m = 17
            // has fifteen, one short of a run; the larger grids store
            // nearly every row.
            match m {
                40 | 96 => {
                    assert!(covered * 10 >= n * 8, "{tag}: {covered} of {n} rows in runs")
                }
                _ => assert_eq!(covered, 0, "{tag}"),
            }
        }
    }
}

fn assert_same_bits(got: &[f64], want: &[f64], tag: &str) {
    assert_eq!(got.len(), want.len(), "{tag}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{tag}, local row {i}");
    }
}

/// `a` with row `r` scaled by `1 + r mod 3`: the same pattern and the same
/// runs, no row's values equal to the row above's (and integer values stay
/// integer).
fn with_rows_scaled_unequally(a: &CsrMatrix) -> CsrMatrix {
    let mut scaled = a.clone();
    for r in 0..a.rows() {
        let (lo, hi) = (a.row_ptr()[r], a.row_ptr()[r + 1]);
        for v in &mut scaled.values_mut()[lo..hi] {
            *v *= (1 + r % 3) as f64;
        }
    }
    scaled
}

#[test]
fn constant_coefficients_are_found_in_the_values_and_change_no_bit_of_the_product() {
    let m = 40;
    let n = m * m;
    let (paper, _) = cca_lisi::mesh::paper_problem(m).assemble_global();
    let laplacian = cca_lisi::sparse::generate::laplacian_2d(m);
    // (matrix, its runs are constant, its values are integers). Both
    // operators write the same five numbers into every row; scaling the
    // rows unequally leaves the runs and takes the property away.
    let cases = [
        ("paper", paper.clone(), true, false),
        ("laplacian", laplacian.clone(), true, true),
        ("paper, rows scaled", with_rows_scaled_unequally(&paper), false, false),
        ("laplacian, rows scaled", with_rows_scaled_unequally(&laplacian), false, true),
    ];
    for (tag, a, constant, integer) in &cases {
        for p in [1usize, 2, 3] {
            // As above: any reals on one rank, exact sums where boundary
            // rows reorder — past one rank the product of a matrix with
            // non-integer values is not compared.
            let x: Vec<f64> = if *integer {
                (0..n).map(|i| ((i * 5) % 17) as f64 - 8.0).collect()
            } else {
                cca_lisi::sparse::generate::random_vector(n, 16)
            };
            let want = a.matvec(&x).unwrap();
            Universe::run(p, |comm| {
                let part = BlockRowPartition::even(n, comm.size());
                let r = part.range(comm.rank());
                let da = DistCsrMatrix::from_global(comm, part.clone(), a).unwrap();
                let runs = da.stencil_row_count();
                assert_eq!(runs, predicted_run_rows(m, r.start, r.end), "{tag}, p = {p}");
                assert!(runs > 0, "{tag}, p = {p}");
                assert_eq!(
                    da.constant_stencil_row_count(),
                    if *constant { runs } else { 0 },
                    "{tag}, rank {} of {p}",
                    comm.rank()
                );
                if p > 1 && !*integer {
                    return;
                }
                let dx = DistVector::from_global(part, comm.rank(), &x).unwrap();
                let dy = da.matvec(comm, &dx).unwrap();
                assert_same_bits(dy.local(), &want[r], &format!("{tag}, p = {p}"));
            });
        }
    }
}

/// BiCGStab + Jacobi through RKSP's port on the paper problem at grid size
/// `m` on `p` ranks, `options` set after the method's: per rank, whether
/// `solve` returned `Ok`, and the status it filled in (a solve stopped by
/// `maxits` is an error with its status filled in).
fn port_solve(p: usize, m: usize, options: &[(&str, &str)]) -> Vec<(bool, SolveReport)> {
    let n = m * m;
    Universe::run(p, |comm| {
        let local = cca_lisi::mesh::paper_problem(m).assemble_local(comm);
        let solver = RkspAdapter::new();
        solver.initialize(comm.dup().unwrap()).unwrap();
        solver.set_start_row(local.partition.start_row(local.rank)).unwrap();
        solver.set_local_rows(local.matrix.rows()).unwrap();
        solver.set_local_nnz(local.matrix.nnz()).unwrap();
        solver.set_global_cols(n).unwrap();
        for (k, v) in [("solver", "bicgstab"), ("preconditioner", "jacobi")].iter().chain(options) {
            solver.set(k, v).unwrap();
        }
        solver
            .setup_matrix(
                local.matrix.values(),
                local.matrix.row_ptr(),
                local.matrix.col_idx(),
                SparseStruct::Csr,
            )
            .unwrap();
        solver.setup_rhs(&local.rhs, 1).unwrap();
        let mut x = vec![0.0; local.matrix.rows()];
        let mut status = [0.0; STATUS_LEN];
        let ok = solver.solve(&mut x, &mut status).is_ok();
        (ok, SolveReport::from_slice(&status))
    })
}

/// Iteration count and final residual (bit pattern) of the solve below,
/// recorded at the parent of the commit that introduced the runs, per rank
/// count. The run kernel is bit-identical to the CSR kernel it replaces,
/// so a solve must retrace the same iterates.
const RECORDED: [(usize, usize, u64); 3] = [
    (1, 93, 0x3d91_22dc_f19f_4cbc),
    (2, 91, 0x3d8f_6fad_7ebb_2e9e),
    (3, 89, 0x3d91_7332_ded9_8e0f),
];

#[test]
fn a_solve_through_the_port_retraces_the_recorded_iterates() {
    for (p, iterations, residual_bits) in RECORDED {
        for (ok, rep) in port_solve(p, 40, &[("tol", "1e-10")]) {
            assert!(ok && rep.converged, "p = {p}");
            assert_eq!(
                (rep.iterations, rep.residual.to_bits()),
                (iterations, residual_bits),
                "p = {p}: {} iterations, residual {:e} = {:#018x}",
                rep.iterations,
                rep.residual,
                rep.residual.to_bits()
            );
        }
    }
}

/// The solve above on the Figure 5 grid, m = 300: on one rank n = 90 000
/// is past one reduction block (`DOT_BLOCK` = 65 536), so every blocked
/// dot combines two block partials. Stopped by `maxits` after four
/// iterations; iteration count and final residual recorded per rank count
/// at the parent of the commit that put explicit lane vectors under the
/// kernels.
const RECORDED_PAST_ONE_BLOCK: [(usize, usize, u64); 2] =
    [(1, 4, 0x3f90_35ca_77ca_6e31), (2, 4, 0x3f90_35ca_77ca_6f5f)];

#[test]
fn a_solve_past_one_reduction_block_retraces_the_recorded_iterates() {
    for (p, iterations, residual_bits) in RECORDED_PAST_ONE_BLOCK {
        for (ok, rep) in port_solve(p, 300, &[("tol", "1e-14"), ("maxits", "4")]) {
            assert!(!ok && !rep.converged, "p = {p}");
            assert_eq!(
                (rep.iterations, rep.residual.to_bits()),
                (iterations, residual_bits),
                "p = {p}: {} iterations, residual {:e} = {:#018x}",
                rep.iterations,
                rep.residual,
                rep.residual.to_bits()
            );
        }
    }
}
