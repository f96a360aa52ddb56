//! The five usage scenarios of paper §5.2, exercised back to back
//! against the RSLU (direct) and RKSP (iterative) adapters:
//!
//! (a) one-shot solve;
//! (b) precompute + reuse the factorization;
//! (c) multiple right-hand sides;
//! (d) new matrix values on the same sparsity pattern;
//! (e) recursion — shown separately in `multigrid_recursion.rs`.
//!
//! ```text
//! cargo run --example usage_scenarios
//! ```

use cca_lisi::comm::Universe;
use cca_lisi::lisi::{RsluAdapter, SolveReport, SparseSolverPort, SparseStruct, STATUS_LEN};
use cca_lisi::sparse::generate;

fn main() {
    let n = 400;
    let a = generate::random_diag_dominant(n, 4, 7);
    println!("usage scenarios on a {n}×{n} system through LISI/RSLU\n");

    Universe::run(1, |comm| {
        let solver = RsluAdapter::new();
        solver.initialize(comm.dup().unwrap()).unwrap();
        solver.set_start_row(0).unwrap();
        solver.set_local_rows(n).unwrap();
        solver.set_global_cols(n).unwrap();
        solver.setup_matrix(a.values(), a.row_ptr(), a.col_idx(), SparseStruct::Csr).unwrap();

        // (a) One-shot solve.
        let x1_true = generate::random_vector(n, 1);
        let b1 = a.matvec(&x1_true).unwrap();
        solver.setup_rhs(&b1, 1).unwrap();
        let mut x = vec![0.0; n];
        let mut status = [0.0; STATUS_LEN];
        solver.solve(&mut x, &mut status).unwrap();
        let rep_a = SolveReport::from_slice(&status);
        let err = max_err(&x, &x1_true);
        println!(
            "(a) one-shot solve:            err = {err:.2e}, setup = {:.4}s",
            rep_a.setup_seconds
        );
        assert!(err < 1e-8);

        // (b) Reuse: a second solve must not refactor (setup ≈ 0).
        let x2_true = generate::random_vector(n, 2);
        let b2 = a.matvec(&x2_true).unwrap();
        solver.setup_rhs(&b2, 1).unwrap();
        solver.solve(&mut x, &mut status).unwrap();
        let rep_b = SolveReport::from_slice(&status);
        let err = max_err(&x, &x2_true);
        println!(
            "(b) factor reuse:              err = {err:.2e}, setup = {:.4}s (vs {:.4}s first time)",
            rep_b.setup_seconds, rep_a.setup_seconds
        );
        assert!(err < 1e-8);
        assert!(
            rep_b.setup_seconds < rep_a.setup_seconds,
            "reused factorization must cost less setup"
        );

        // (c) Multiple right-hand sides in one call (column-major).
        let x3_true = generate::random_vector(n, 3);
        let x4_true = generate::random_vector(n, 4);
        let mut b34 = a.matvec(&x3_true).unwrap();
        b34.extend(a.matvec(&x4_true).unwrap());
        solver.setup_rhs(&b34, 2).unwrap();
        let mut x2 = vec![0.0; 2 * n];
        solver.solve(&mut x2, &mut status).unwrap();
        let err = max_err(&x2[..n], &x3_true).max(max_err(&x2[n..], &x4_true));
        println!("(c) two RHS, one call:         err = {err:.2e}");
        assert!(err < 1e-8);

        // (d) New values, same pattern: pass the rescaled values; the
        // adapter refactors (epoch bump) but the symbolic analysis is
        // reused inside the package.
        let scaled = cca_lisi::sparse::ops::scale(3.0, &a);
        solver
            .setup_matrix(scaled.values(), scaled.row_ptr(), scaled.col_idx(), SparseStruct::Csr)
            .unwrap();
        let b5 = scaled.matvec(&x1_true).unwrap();
        solver.setup_rhs(&b5, 1).unwrap();
        solver.solve(&mut x, &mut status).unwrap();
        let err = max_err(&x, &x1_true);
        println!("(d) new values, same pattern:  err = {err:.2e}");
        assert!(err < 1e-8);
    });

    println!("\n(e) recursion: see `cargo run --example multigrid_recursion`");
    println!("OK");
}

fn max_err(got: &[f64], want: &[f64]) -> f64 {
    got.iter().zip(want).fold(0.0f64, |m, (g, e)| m.max((g - e).abs()))
}
