//! Property tests for level-ordered triangular sweeps: on arbitrary
//! random lower/upper patterns with a full diagonal, and on grid operators
//! with holes (whose levels the sweep cuts into strided runs, runs the
//! holes break, and indexed slots), a [`LevelTri`] must produce results
//! **bit-identical** to the natural-order sweep over the CSR rows — the
//! contract that lets the preconditioners store their factors in level
//! order without changing a single residual.

use proptest::collection::vec;
use proptest::prelude::*;
use rsparse::generate::XorShift64;
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
        assert_eq!(g.to_bits(), w.to_bits(), "{label} diverged at row {i}: {g} vs {w}");
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

/// The couplings `(dx, dy)` of three grid stencils, each stored with its
/// mirror: 5-point, 9-point, and one whose rows hold eleven entries on
/// either side of the diagonal — past the run kernel's unrolled width.
const STENCILS: [&[(isize, isize)]; 3] = [
    &[(1, 0), (0, 1)],
    &[(1, 0), (0, 1), (1, 1), (1, -1)],
    &[(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1)],
];

/// A grid operator with holes: the points of an `m × m` grid, each
/// missing with probability `holes`, numbered row-major; every point
/// couples to the points at ±`(dx, dy)` of `stencil` that exist, with
/// values in (−½, ½) — every 7th an explicit zero — under a dominant
/// diagonal. The anti-diagonals of a full grid are whole strided runs; a
/// hole shifts the numbering after it, which breaks the runs of the
/// levels it crosses; edges and the points around holes stay in slots.
fn grid(m: usize, stencil: &[(isize, isize)], holes: f64, seed: u64) -> CsrMatrix {
    let mut rng = XorShift64::new(seed);
    let mut id = vec![None; m * m];
    let mut n = 0;
    for slot in &mut id {
        if rng.next_f64() >= holes {
            *slot = Some(n);
            n += 1;
        }
    }
    let side = 0..m as isize;
    let at = |x: isize, y: isize| {
        if side.contains(&x) && side.contains(&y) {
            id[y as usize * m + x as usize]
        } else {
            None
        }
    };
    let mut coo = CooMatrix::new(n, n);
    let mut count = 0usize;
    for point in 0..m * m {
        let (x, y) = ((point % m) as isize, (point / m) as isize);
        let Some(i) = at(x, y) else { continue };
        coo.push(i, i, 4.0 * stencil.len() as f64).unwrap();
        for &(dx, dy) in stencil {
            for (cx, cy) in [(x + dx, y + dy), (x - dx, y - dy)] {
                if let Some(j) = at(cx, cy) {
                    count += 1;
                    let v = if count.is_multiple_of(7) { 0.0 } else { rng.next_f64() - 0.5 };
                    coo.push(i, j, v).unwrap();
                }
            }
        }
    }
    coo.to_csr()
}

/// Row `i` of `mat`'s strict lower or upper triangle.
fn strict(mat: &CsrMatrix, triangle: Triangle, i: usize) -> (&[usize], &[f64]) {
    let (cols, vals) = mat.row(i);
    let range = match triangle {
        Triangle::Lower => 0..cols.partition_point(|&c| c < i),
        Triangle::Upper => cols.partition_point(|&c| c <= i)..cols.len(),
    };
    (&cols[range.clone()], &vals[range])
}

/// Rows of `mat`'s strict lower triangle the sweep takes in runs.
fn lower_run_rows(mat: &CsrMatrix) -> usize {
    let tri =
        LevelTri::build(Triangle::Lower, mat.rows(), |i| strict(mat, Triangle::Lower, i), None);
    tri.unwrap().run_rows()
}

/// The generator makes what the property needs: on a full grid most rows
/// sweep in runs and the edges in slots, and holes break runs.
#[test]
fn grids_with_holes_mix_runs_and_slots() {
    for stencil in STENCILS {
        let full = grid(24, stencil, 0.0, 1);
        let holed = grid(24, stencil, 0.03, 1);
        let (f, h) = (lower_run_rows(&full), lower_run_rows(&holed));
        assert!(2 * f > full.rows() && f < full.rows(), "{f} of {}", full.rows());
        assert!(h < f, "holes break runs: {h} against {f}");
    }
    assert!(lower_run_rows(&grid(24, STENCILS[0], 0.03, 1)) > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Grids with holes, three stencils, both triangles, unit and divided
    /// rows, and a right-hand side carrying ±∞ and NaN.
    #[test]
    fn grid_runs_match_natural_order_bitwise(
        m in 3usize..=24,
        stencil in 0usize..3,
        holes in 0.0f64..0.3,
        seed in any::<u64>(),
        bseed in any::<u64>(),
    ) {
        let mat = grid(m, STENCILS[stencil], holes, seed);
        let n = mat.rows();
        let mut b = rsparse::generate::random_vector(n, bseed);
        if n > 3 {
            for (k, poison) in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN].into_iter().enumerate() {
                b[(k + 1) * n / 4] = poison;
            }
        }
        for triangle in [Triangle::Lower, Triangle::Upper] {
            for unit_diag in [false, true] {
                let diag = |i: usize| mat.get(i, i);
                let row = |i: usize| strict(&mat, triangle, i);
                let tri = LevelTri::build(triangle, n, row, (!unit_diag).then_some(&diag)).unwrap();
                let mut want = vec![0.0; n];
                match triangle {
                    Triangle::Lower => serial_lower(&mat, unit_diag, &b, &mut want),
                    Triangle::Upper => serial_upper(&mat, unit_diag, &b, &mut want),
                }
                assert_sweeps_equal("grid", &tri, unit_diag, &b, &want);
            }
        }
    }

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
