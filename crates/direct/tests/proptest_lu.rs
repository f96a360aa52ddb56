//! Property-based tests on the RSLU package: the sparse LU must agree
//! with the dense reference for arbitrary (nonsingular) inputs, under
//! every ordering, and factor reuse must be sound.

use proptest::collection::vec;
use proptest::prelude::*;
use rdirect::symbolic::Symbolic;
use rdirect::{LuFactorization, Ordering, RsluOptions, RsluSolver};
use rsparse::generate;

/// The column sweeps over CSC factors and the column-at-a-time factor
/// loop, shared with the crate's unit tests.
#[path = "../src/reference.rs"]
mod reference;

/// Random diagonally dominant (hence nonsingular) matrix via seeds.
fn dd(n: usize, seed: u64) -> rsparse::CsrMatrix {
    generate::random_diag_dominant(n, 3, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sparse_lu_matches_dense_solve(
        seed in 0u64..100_000,
        n in 5usize..40,
        ord_idx in 0usize..3,
    ) {
        let ord = [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree][ord_idx];
        let a = dd(n, seed);
        let b = generate::random_vector(n, seed ^ 0xbeef);
        let sym = Symbolic::analyze(&a, ord).unwrap();
        let lu = LuFactorization::factor(&a, &sym, 1.0).unwrap();
        let x = lu.solve(&b).unwrap();
        let reference = a.to_dense().solve(&b).unwrap();
        for (g, e) in x.iter().zip(&reference) {
            prop_assert!((g - e).abs() < 1e-7 * (1.0 + e.abs()), "{ord:?}");
        }
    }

    #[test]
    fn panel_sweeps_equal_the_column_sweeps_bitwise(
        seed in 0u64..100_000,
        n in 2usize..120,
        density in 0.02f64..0.3,
        ord_idx in 0usize..3,
        threshold in proptest::sample::select(vec![1.0, 0.1]),
        zeros in 0usize..4,
    ) {
        // A random nonsymmetric pattern; the shift makes it nonsingular.
        let shift = rsparse::CsrMatrix::identity(n);
        let a = rsparse::ops::add(1.0, &generate::random_csr(n, n, density, seed), n as f64, &shift)
            .unwrap();
        let ord = [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree][ord_idx];
        let sym = Symbolic::analyze(&a, ord).unwrap();
        let lu = LuFactorization::factor(&a, &sym, threshold).unwrap();
        let (l, u) = (lu.l(), lu.u());
        prop_assert_eq!(lu.fill(), l.nnz() + u.nnz());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // The factors are the column loop's, bit for bit.
        let by_columns = reference::factor_by_columns(&a, &sym.col_perm, threshold).unwrap();
        prop_assert_eq!(lu.row_perm(), &by_columns.row_perm[..]);
        for (got, want) in [(&l, &by_columns.l), (&u, &by_columns.u)] {
            prop_assert_eq!(got.col_ptr(), want.col_ptr());
            prop_assert_eq!(got.row_idx(), want.row_idx());
            prop_assert_eq!(bits(got.values()), bits(want.values()));
        }
        let oracle = reference::CscFactors {
            l: &l,
            u: &u,
            row_perm: lu.row_perm(),
            col_perm: &sym.col_perm,
        };
        // Every `zeros`-th entry an exact or a negative zero: the skip.
        let mut b = generate::random_vector(n, seed ^ 0xb17);
        for (i, v) in b.iter_mut().enumerate().filter(|(i, _)| zeros > 0 && i % (zeros + 1) == 0) {
            *v = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
        prop_assert_eq!(bits(&lu.solve(&b).unwrap()), bits(&oracle.solve(&b)));
        prop_assert_eq!(bits(&lu.solve_transpose(&b).unwrap()), bits(&oracle.solve_transpose(&b)));
        let twice: Vec<f64> = b.iter().chain(&b).copied().collect();
        let x = oracle.solve(&b);
        prop_assert_eq!(bits(&lu.solve_multi(&twice, 2).unwrap()), bits(&[&x[..], &x[..]].concat()));
        prop_assert_eq!(
            lu.inverse_norm1_estimate().unwrap().to_bits(),
            oracle.inverse_norm1_estimate().to_bits()
        );
    }

    #[test]
    fn threshold_pivoting_still_solves(
        seed in 0u64..100_000,
        thresh in 0.1f64..1.0,
    ) {
        let n = 25;
        let a = dd(n, seed);
        let x_true = generate::random_vector(n, seed ^ 1);
        let b = a.matvec(&x_true).unwrap();
        let sym = Symbolic::analyze(&a, Ordering::MinDegree).unwrap();
        let lu = LuFactorization::factor(&a, &sym, thresh).unwrap();
        let x = lu.solve(&b).unwrap();
        for (g, e) in x.iter().zip(&x_true) {
            // Relaxed pivoting trades stability for sparsity; diagonally
            // dominant systems stay well behaved.
            prop_assert!((g - e).abs() < 1e-6);
        }
    }

    #[test]
    fn refactorization_with_scaled_values_is_exact(
        seed in 0u64..100_000,
        scale in 0.5f64..4.0,
    ) {
        let n = 20;
        let a = dd(n, seed);
        let mut s = RsluSolver::new(RsluOptions::default());
        s.factorize(&a).unwrap();
        let new_vals: Vec<f64> = a.values().iter().map(|v| v * scale).collect();
        s.refactorize(&new_vals).unwrap();
        let x_true = generate::random_vector(n, seed ^ 2);
        let scaled = rsparse::ops::scale(scale, &a);
        let b = scaled.matvec(&x_true).unwrap();
        let x = s.solve(&b).unwrap();
        for (g, e) in x.iter().zip(&x_true) {
            prop_assert!((g - e).abs() < 1e-7);
        }
    }

    #[test]
    fn permutation_vector_is_always_valid(
        seed in 0u64..100_000,
        n in 3usize..30,
    ) {
        let a = dd(n, seed);
        let sym = Symbolic::analyze(&a, Ordering::MinDegree).unwrap();
        let lu = LuFactorization::factor(&a, &sym, 1.0).unwrap();
        let mut seen = vec![false; n];
        for &r in lu.row_perm() {
            prop_assert!(r < n);
            prop_assert!(!seen[r], "row used twice");
            seen[r] = true;
        }
    }

    #[test]
    fn fill_never_shrinks_below_input(
        seed in 0u64..100_000,
        n in 5usize..30,
    ) {
        let a = dd(n, seed);
        let sym = Symbolic::analyze(&a, Ordering::MinDegree).unwrap();
        let lu = LuFactorization::factor(&a, &sym, 1.0).unwrap();
        // L + U stores at least one entry per input nonzero's row/col
        // "support": the factors contain the (permuted) matrix, so total
        // stored entries ≥ n (diagonals) and ≥ a lower bound tied to nnz.
        prop_assert!(lu.fill() >= n + a.nnz() / 2);
    }

    #[test]
    fn solve_multi_is_columnwise(
        seed in 0u64..100_000,
        vals in vec(-10.0f64..10.0, 30),
    ) {
        let n = 15;
        let a = dd(n, seed);
        let sym = Symbolic::analyze(&a, Ordering::Rcm).unwrap();
        let lu = LuFactorization::factor(&a, &sym, 1.0).unwrap();
        let b = &vals[..2 * n];
        let xs = lu.solve_multi(b, 2).unwrap();
        let x0 = lu.solve(&b[..n]).unwrap();
        let x1 = lu.solve(&b[n..2 * n]).unwrap();
        prop_assert_eq!(&xs[..n], &x0[..]);
        prop_assert_eq!(&xs[n..], &x1[..]);
    }
}
