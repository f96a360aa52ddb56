//! The generic parameter surface (paper §6.5): LISI deliberately uses
//! generic `set(key, value)` methods instead of one named method per
//! parameter. These tests drive package-specific knobs — including the
//! drop-tolerance/fill family the paper calls out — purely through
//! strings, and check `get_all` round-trips what was set.

use cca_lisi::comm::Universe;
use cca_lisi::lisi::{
    RaztecAdapter, RkspAdapter, RsluAdapter, SolveReport, SparseSolverPort, SparseStruct,
    STATUS_LEN,
};

fn drive(
    solver: &dyn SparseSolverPort,
    comm: &cca_lisi::comm::Communicator,
    a: &cca_lisi::sparse::CsrMatrix,
    b: &[f64],
) -> (SolveReport, Vec<f64>) {
    let n = a.rows();
    solver.initialize(comm.dup().unwrap()).unwrap();
    solver.set_start_row(0).unwrap();
    solver.set_local_rows(n).unwrap();
    solver.set_global_cols(n).unwrap();
    solver.setup_matrix(a.values(), a.row_ptr(), a.col_idx(), SparseStruct::Csr).unwrap();
    solver.setup_rhs(b, 1).unwrap();
    let mut x = vec![0.0; n];
    let mut status = [0.0; STATUS_LEN];
    solver.solve(&mut x, &mut status).unwrap();
    (SolveReport::from_slice(&status), x)
}

#[test]
fn ilut_fill_and_droptol_flow_through_generic_keys() {
    let a = cca_lisi::sparse::generate::laplacian_2d(12);
    let x_true = cca_lisi::sparse::generate::random_vector(144, 4);
    let b = a.matvec(&x_true).unwrap();
    let out = Universe::run(1, |comm| {
        // Loose vs tight ILUT via string keys only.
        let mut iters = Vec::new();
        for (droptol, fill) in [("1e-1", "2"), ("1e-4", "20")] {
            let s = RkspAdapter::new();
            s.set("solver", "gmres").unwrap();
            s.set("preconditioner", "ilut").unwrap();
            s.set("droptol", droptol).unwrap();
            s.set("fill", fill).unwrap();
            s.set("tol", "1e-10").unwrap();
            let (rep, x) = drive(&s, comm, &a, &b);
            assert!(rep.converged);
            let err = x.iter().zip(&x_true).fold(0.0f64, |m, (g, e)| m.max((g - e).abs()));
            assert!(err < 1e-6, "droptol {droptol}: err = {err}");
            iters.push(rep.iterations);
        }
        iters
    });
    let iters = &out[0];
    assert!(iters[1] < iters[0], "tighter ILUT must converge in fewer iterations: {iters:?}");
}

#[test]
fn aztec_poly_order_key_changes_convergence() {
    let a = cca_lisi::sparse::generate::random_diag_dominant(80, 4, 15);
    let x_true = cca_lisi::sparse::generate::random_vector(80, 5);
    let b = a.matvec(&x_true).unwrap();
    let out = Universe::run(1, |comm| {
        let mut iters = Vec::new();
        for ord in ["0", "4"] {
            let s = RaztecAdapter::new();
            s.set("solver", "gmres").unwrap();
            s.set("preconditioner", "neumann").unwrap();
            s.set("poly_ord", ord).unwrap();
            s.set("tol", "1e-10").unwrap();
            let (rep, x) = drive(&s, comm, &a, &b);
            assert!(rep.converged, "poly_ord {ord}");
            let err = x.iter().zip(&x_true).fold(0.0f64, |m, (g, e)| m.max((g - e).abs()));
            assert!(err < 1e-6);
            iters.push(rep.iterations);
        }
        iters
    });
    assert!(out[0][1] <= out[0][0], "higher-order Neumann should not be slower: {:?}", out[0]);
}

#[test]
fn rslu_equilibration_key_survives_badly_scaled_systems() {
    // Rows spread over many orders of magnitude.
    let base = cca_lisi::sparse::generate::random_diag_dominant(40, 3, 77);
    let scales: Vec<f64> = (0..40).map(|i| 10f64.powi((i % 11) - 5)).collect();
    let a = cca_lisi::sparse::ops::diag_scale_rows(&scales, &base).unwrap();
    let x_true = cca_lisi::sparse::generate::random_vector(40, 6);
    let b = a.matvec(&x_true).unwrap();
    let out = Universe::run(1, |comm| {
        let s = RsluAdapter::new();
        s.set_bool("equil", true).unwrap();
        s.set("ordering", "rcm").unwrap();
        let (rep, x) = drive(&s, comm, &a, &b);
        (rep, x)
    });
    let (rep, x) = &out[0];
    assert!(rep.converged);
    let err = x.iter().zip(&x_true).fold(0.0f64, |m, (g, e)| m.max((g - e).abs()));
    assert!(err < 1e-7, "err = {err}");
}

#[test]
fn get_all_round_trips_every_generic_setter() {
    let s = RkspAdapter::new();
    s.set("solver", "tfqmr").unwrap();
    s.set_int("maxits", 321).unwrap();
    s.set_bool("matrix_free", false).unwrap();
    s.set_double("tol", 2.5e-7).unwrap();
    s.set("application_specific_key", "opaque-value").unwrap();
    // No longer reserved: the storage format is not an option, and there
    // is no rank-local thread count, so these keys are carried like any
    // other the package does not know.
    s.set("format", "anything").unwrap();
    s.set("threads", "4").unwrap();
    let dump = s.get_all();
    for needle in [
        "solver=tfqmr",
        "maxits=321",
        "matrix_free=false",
        "application_specific_key=opaque-value",
        "format=anything",
        "threads=4",
    ] {
        assert!(dump.contains(needle), "missing {needle} in:\n{dump}");
    }
    // Unknown keys are carried, not rejected — the generic-setter design.
    assert!(dump.contains("package=rksp"));
}
