//! Integration tests for the reserved `format` option key: validation,
//! bit-identical solves under every storage format, and the acceptance
//! checks that `port.set("format", "auto")` actually picks a non-CSR
//! format on a bench-scale block matrix and stays on CSR where the plan
//! stores the rows as stencil runs.

use std::sync::Mutex;

use lisi::STATUS_LEN;
use lisi::{RkspAdapter, SparseSolverPort, SparseStruct};
use rcomm::Universe;
use rsparse::{BlockRowPartition, DistCsrMatrix, Format, FormatPolicy};

/// The `format` policy is process-global; serialize the tests that
/// mutate it so they never race, and always restore the previous policy.
static POLICY_LOCK: Mutex<()> = Mutex::new(());

fn with_policy_lock<T>(f: impl FnOnce() -> T) -> T {
    let _guard = POLICY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = rsparse::autotune::active_policy();
    let out = f();
    rsparse::autotune::set_policy(prev);
    out
}

/// Solve A·x = b on one rank through the adapter with the given format
/// value, returning the solution and the SELL/BCSR chosen counters
/// observed on the solving thread.
fn solve_with_format(
    a: &rsparse::CsrMatrix,
    b: &[f64],
    format: &str,
) -> (Vec<f64>, u64, u64) {
    let n = a.rows();
    let a = a.clone();
    let b = b.to_vec();
    let format = format.to_string();
    let out = Universe::run(1, move |comm| {
        let solver = RkspAdapter::new();
        solver.initialize(comm.dup().unwrap()).unwrap();
        solver.set_start_row(0).unwrap();
        solver.set_local_rows(n).unwrap();
        solver.set_global_cols(n).unwrap();
        solver.set("format", &format).unwrap();
        solver.set("solver", "cg").unwrap();
        solver.set("preconditioner", "jacobi").unwrap();
        solver.set_double("tol", 1e-10).unwrap();
        solver
            .setup_matrix(a.values(), a.row_ptr(), a.col_idx(), SparseStruct::Csr)
            .unwrap();
        solver.setup_rhs(&b, 1).unwrap();
        let mut x = vec![0.0; n];
        let mut status = [0.0; STATUS_LEN];
        solver.solve(&mut x, &mut status).unwrap();
        (
            x,
            probe::get(probe::Counter::FormatChosenSell),
            probe::get(probe::Counter::FormatChosenBcsr),
        )
    });
    out.into_iter().next().unwrap()
}

#[test]
fn bogus_format_value_is_a_bad_parameter() {
    with_policy_lock(|| {
        let solver = RkspAdapter::new();
        let err = solver.set("format", "bogus").unwrap_err();
        assert!(matches!(err, lisi::LisiError::BadParameter { .. }));
        assert!(err.to_string().contains("bogus"));
        for good in ["csr", "sell", "bcsr", "auto", "SELL", " auto "] {
            solver.set("format", good).unwrap();
        }
    });
}

#[test]
fn solves_are_bitwise_identical_across_formats() {
    with_policy_lock(|| {
        // 2-D Laplacian at bench scale: past `auto`'s minimum size, and the
        // CSR baseline runs its grid lines as stencil runs.
        let a = rsparse::generate::laplacian_2d(24);
        let x_true = rsparse::generate::random_vector(a.rows(), 3);
        let b = a.matvec(&x_true).unwrap();
        let (base, _, _) = solve_with_format(&a, &b, "csr");
        for (g, e) in base.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-7);
        }
        for format in ["sell", "bcsr", "auto"] {
            let (x, _, _) = solve_with_format(&a, &b, format);
            for (i, (g, e)) in x.iter().zip(&base).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    e.to_bits(),
                    "format {format}: solution lane {i} differs from CSR"
                );
            }
        }
    });
}

#[test]
fn auto_selects_a_non_csr_format_on_a_bench_matrix() {
    with_policy_lock(|| {
        // FEM-style 3×3 blocks on a 14×14 grid (588 unknowns), made
        // symmetric for CG: every stored tile is full — the model must
        // pick block-CSR, not stay on CSR.
        let g = rsparse::generate::fem_block(14, 3, 5);
        let a = rsparse::ops::add(1.0, &g, 1.0, &g.transpose()).unwrap();
        let x_true = rsparse::generate::random_vector(a.rows(), 11);
        let b = a.matvec(&x_true).unwrap();
        let (x, chosen_sell, chosen_bcsr) = solve_with_format(&a, &b, "auto");
        assert!(
            chosen_bcsr > 0,
            "auto left the FEM blocks on CSR (sell={chosen_sell}, bcsr={chosen_bcsr})"
        );
        for (g, e) in x.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-7);
        }
    });
}

#[test]
fn auto_stays_on_csr_where_stencil_runs_cover_the_rows() {
    with_policy_lock(|| {
        // 5-point stencil, 1600 unknowns: 38 of every 40 rows repeat the
        // row above shifted by one, and the CSR plan stores them without
        // column indices — nothing `auto` could convert to beats that.
        let a = rsparse::generate::laplacian_2d(40);
        let x_true = rsparse::generate::random_vector(a.rows(), 11);
        let b = a.matvec(&x_true).unwrap();
        let (x, chosen_sell, chosen_bcsr) = solve_with_format(&a, &b, "auto");
        assert_eq!((chosen_sell, chosen_bcsr), (0, 0), "auto converted the 5-point stencil");
        for (g, e) in x.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-7);
        }
        Universe::run(1, |comm| {
            let part = BlockRowPartition::even(a.rows(), 1);
            let da =
                DistCsrMatrix::from_local_rows_with_format(comm, part, a.clone(), FormatPolicy::Auto)
                    .unwrap();
            assert_eq!(da.chosen_format(), Format::Csr);
            assert_eq!(da.stencil_row_count(), 40 * 38);
        });
    });
}

#[test]
fn forced_formats_work_on_multiple_ranks() {
    with_policy_lock(|| {
        let m = 12;
        let a = rsparse::generate::laplacian_2d(m);
        let n = a.rows();
        let x_true = rsparse::generate::random_vector(n, 7);
        let b = a.matvec(&x_true).unwrap();
        let mut runs = Vec::new();
        for format in ["csr", "sell", "bcsr"] {
            let a = a.clone();
            let b = b.clone();
            let format_owned = format.to_string();
            let out = Universe::run(3, move |comm| {
                let part = BlockRowPartition::even(n, comm.size());
                let range = part.range(comm.rank());
                let local = a.row_block(range.start, range.end).unwrap();
                let solver = RkspAdapter::new();
                solver.initialize(comm.dup().unwrap()).unwrap();
                solver.set_start_row(range.start).unwrap();
                solver.set_local_rows(range.len()).unwrap();
                solver.set_global_cols(n).unwrap();
                solver.set("format", &format_owned).unwrap();
                solver.set("solver", "cg").unwrap();
                solver.set("preconditioner", "jacobi").unwrap();
                solver.set_double("tol", 1e-10).unwrap();
                solver
                    .setup_matrix(
                        local.values(),
                        local.row_ptr(),
                        local.col_idx(),
                        SparseStruct::Csr,
                    )
                    .unwrap();
                solver.setup_rhs(&b[range.clone()], 1).unwrap();
                let mut x = vec![0.0; range.len()];
                let mut status = [0.0; STATUS_LEN];
                solver.solve(&mut x, &mut status).unwrap();
                comm.allgatherv(&x).unwrap()
            });
            runs.push(out.into_iter().next().unwrap());
        }
        let base = &runs[0];
        for (g, e) in base.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-7);
        }
        for x in &runs[1..] {
            for (g, e) in x.iter().zip(base) {
                assert_eq!(g.to_bits(), e.to_bits());
            }
        }
    });
}
