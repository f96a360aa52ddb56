//! Property tests for level-ordered triangular sweeps: on arbitrary
//! random lower/upper patterns with a full diagonal, a [`LevelTri`] must
//! produce results **bit-identical** to the natural-order sweep over the
//! CSR rows — the contract that lets the preconditioners store their
//! factors in level order without changing a single residual.

use proptest::collection::vec;
use proptest::prelude::*;
use rsparse::{CooMatrix, CsrMatrix, LevelTri, Triangle};

/// Strategy: a random lower-triangular matrix with a full nonzero
/// diagonal, as (n, strict-lower triplets, diagonal values).
fn arb_lower(
    max_dim: usize,
    max_nnz: usize,
) -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>, Vec<f64>)> {
    (2..=max_dim).prop_flat_map(move |n| {
        let entry = (1..n, 0..n, -4.0f64..4.0).prop_map(|(r, c, v)| (r, c.min(r - 1), v));
        (Just(n), vec(entry, 0..=max_nnz), vec(1.0f64..8.0, n..=n))
    })
}

fn build(n: usize, strict: &[(usize, usize, f64)], diag: &[f64], lower: bool) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for &(r, c, v) in strict {
        // Mirror the triplet for the upper-triangular variant.
        let (r, c) = if lower { (r, c) } else { (c, r) };
        coo.push(r, c, v).unwrap();
    }
    for (i, &d) in diag.iter().enumerate() {
        coo.push(i, i, d).unwrap();
    }
    coo.to_csr()
}

/// The level-ordered form of `mat`'s strict triangle: the diagonal is
/// stored last in a lower row and first in an upper one.
fn level_tri(mat: &CsrMatrix, triangle: Triangle, unit_diag: bool) -> LevelTri {
    let strict = |i: usize| {
        let (cols, vals) = mat.row(i);
        match triangle {
            Triangle::Lower => (&cols[..cols.len() - 1], &vals[..vals.len() - 1]),
            Triangle::Upper => (&cols[1..], &vals[1..]),
        }
    };
    let diag = |i: usize| mat.get(i, i);
    LevelTri::build(triangle, mat.rows(), strict, (!unit_diag).then_some(&diag)).unwrap()
}

/// Natural-order forward sweep over the CSR rows.
fn serial_lower(mat: &CsrMatrix, unit_diag: bool, b: &[f64], x: &mut [f64]) {
    for i in 0..mat.rows() {
        let (cols, vals) = mat.row(i);
        let mut acc = b[i];
        let mut diag = 1.0;
        for (&c, &v) in cols.iter().zip(vals) {
            if c < i {
                acc -= v * x[c];
            } else if c == i {
                diag = v;
            }
        }
        x[i] = if unit_diag { acc } else { acc / diag };
    }
}

/// Natural-order backward sweep over the CSR rows.
fn serial_upper(mat: &CsrMatrix, unit_diag: bool, b: &[f64], x: &mut [f64]) {
    for i in (0..mat.rows()).rev() {
        let (cols, vals) = mat.row(i);
        let mut acc = b[i];
        let mut diag = 1.0;
        for (&c, &v) in cols.iter().zip(vals) {
            if c > i {
                acc -= v * x[c];
            } else if c == i {
                diag = v;
            }
        }
        x[i] = if unit_diag { acc } else { acc / diag };
    }
}

fn assert_bits_equal(label: &str, got: &[f64], want: &[f64]) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label} diverged at row {i}: {g} vs {w}"
        );
    }
}

/// Both sweep entry points against `want`.
fn assert_sweeps_equal(label: &str, tri: &LevelTri, unit_diag: bool, b: &[f64], want: &[f64]) {
    let finish = |acc: f64, d: f64| if unit_diag { acc } else { acc / d };
    let mut got = vec![0.0; b.len()];
    tri.sweep_from(b, &mut got, finish);
    assert_bits_equal(label, &got, want);
    let mut in_place = b.to_vec();
    tri.sweep_in_place(&mut in_place, finish);
    assert_bits_equal(label, &in_place, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn level_ordered_lower_matches_natural_order_bitwise(
        (n, strict, diag) in arb_lower(48, 120),
        bseed in any::<u64>(),
    ) {
        let mat = build(n, &strict, &diag, true);
        let b = rsparse::generate::random_vector(n, bseed);
        for unit_diag in [false, true] {
            let tri = level_tri(&mat, Triangle::Lower, unit_diag);
            let mut want = vec![0.0; n];
            serial_lower(&mat, unit_diag, &b, &mut want);
            assert_sweeps_equal("lower", &tri, unit_diag, &b, &want);
        }
    }

    #[test]
    fn level_ordered_upper_matches_natural_order_bitwise(
        (n, strict, diag) in arb_lower(48, 120),
        bseed in any::<u64>(),
    ) {
        let mat = build(n, &strict, &diag, false);
        let b = rsparse::generate::random_vector(n, bseed);
        for unit_diag in [false, true] {
            let tri = level_tri(&mat, Triangle::Upper, unit_diag);
            let mut want = vec![0.0; n];
            serial_upper(&mat, unit_diag, &b, &mut want);
            assert_sweeps_equal("upper", &tri, unit_diag, &b, &want);
        }
    }

    /// The sweeps really do solve: L·x = b within roundoff.
    #[test]
    fn level_ordered_lower_solves_the_system(
        (n, strict, diag) in arb_lower(32, 80),
        bseed in any::<u64>(),
    ) {
        let mat = build(n, &strict, &diag, true);
        let tri = level_tri(&mat, Triangle::Lower, false);
        let b = rsparse::generate::random_vector(n, bseed);
        let mut x = vec![0.0; n];
        tri.sweep_from(&b, &mut x, |acc, d| acc / d);
        let r = rsparse::ops::residual(&mat, &x, &b).unwrap();
        let scale = rsparse::dense::norm2(&b)
            + rsparse::dense::norm2(&x) * mat.values().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        prop_assert!(rsparse::dense::norm2(&r) <= 1e-9 * (1.0 + scale));
    }
}
