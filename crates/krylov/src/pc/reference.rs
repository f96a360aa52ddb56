//! The natural-order sweeps the level-ordered preconditioners replaced,
//! kept as the reference their results must equal **bit for bit**: same
//! subtractions in the same order in every row, then the same finish.

use rcomm::Universe;
use rsparse::{generate, BlockRowPartition, CsrMatrix, DistVector};

use super::ilu::{ic0_factor, ilu0_values};
use super::ilut::{ilut_factor, IlutFactor};
use super::{diagonal_positions, Ic0, Ilu0, Ilut, Jacobi, Preconditioner, Ssor};

/// Point Jacobi with one inverse a row, the loop the diagonal scale
/// replaced: `z_i = r_i · (1/d_i)`.
fn jacobi_per_row(diagonal: &[f64], r: &[f64], z: &mut [f64]) {
    let inv: Vec<f64> = diagonal.iter().map(|d| 1.0 / d).collect();
    for ((zi, ri), di) in z.iter_mut().zip(r).zip(&inv) {
        *zi = ri * di;
    }
}

/// ILU(0): L and U interleaved on the block's pattern, cut at `diag_pos`.
fn ilu0_natural(a: &CsrMatrix, diag_pos: &[usize], vals: &[f64], r: &[f64], z: &mut [f64]) {
    let (row_ptr, col_idx) = (a.row_ptr(), a.col_idx());
    let n = a.rows();
    for i in 0..n {
        let mut acc = r[i];
        for k in row_ptr[i]..diag_pos[i] {
            acc -= vals[k] * z[col_idx[k]];
        }
        z[i] = acc;
    }
    for i in (0..n).rev() {
        let mut acc = z[i];
        for k in diag_pos[i] + 1..row_ptr[i + 1] {
            acc -= vals[k] * z[col_idx[k]];
        }
        z[i] = acc / vals[diag_pos[i]];
    }
}

/// ILUT: separately stored unit-lower L and U.
fn ilut_natural(f: &IlutFactor, r: &[f64], z: &mut [f64]) {
    let n = r.len();
    for i in 0..n {
        let (cols, vals) = f.lower(i);
        let mut acc = r[i];
        for (&c, &v) in cols.iter().zip(vals) {
            acc -= v * z[c];
        }
        z[i] = acc;
    }
    for i in (0..n).rev() {
        let (cols, vals) = f.upper(i);
        let mut acc = z[i];
        for (&c, &v) in cols.iter().zip(vals) {
            acc -= v * z[c];
        }
        z[i] = acc / f.diag(i);
    }
}

/// SSOR over the matrix's own triangles.
fn ssor_natural(a: &CsrMatrix, diag_pos: &[usize], w: f64, r: &[f64], z: &mut [f64]) {
    let (row_ptr, col_idx, vals) = (a.row_ptr(), a.col_idx(), a.values());
    let n = a.rows();
    for i in 0..n {
        let mut acc = r[i];
        for k in row_ptr[i]..diag_pos[i] {
            acc -= vals[k] * z[col_idx[k]];
        }
        z[i] = acc * w / vals[diag_pos[i]];
    }
    for i in 0..n {
        z[i] *= vals[diag_pos[i]] / w;
    }
    for i in (0..n).rev() {
        let mut acc = z[i];
        for k in diag_pos[i] + 1..row_ptr[i + 1] {
            acc -= vals[k] * z[col_idx[k]];
        }
        z[i] = acc * w / vals[diag_pos[i]];
    }
    let scale = 2.0 - w;
    for zi in z.iter_mut() {
        *zi *= scale;
    }
}

/// IC(0): forward over L's rows (diagonal last), backward by scattering
/// L's columns.
fn ic0_natural(l: &CsrMatrix, r: &[f64], z: &mut [f64]) {
    let (row_ptr, col_idx, vals) = (l.row_ptr(), l.col_idx(), l.values());
    let n = l.rows();
    for i in 0..n {
        let diag = row_ptr[i + 1] - 1;
        let mut acc = r[i];
        for k in row_ptr[i]..diag {
            acc -= vals[k] * z[col_idx[k]];
        }
        z[i] = acc / vals[diag];
    }
    for i in (0..n).rev() {
        let diag = row_ptr[i + 1] - 1;
        z[i] /= vals[diag];
        let zi = z[i];
        for k in row_ptr[i]..diag {
            z[col_idx[k]] -= vals[k] * zi;
        }
    }
}

/// 5-point Laplacian with a third of its off-diagonal entries stored as
/// explicit zeros.
fn laplacian_with_stored_zeros(m: usize) -> CsrMatrix {
    let mut a = generate::laplacian_2d(m);
    let zero: Vec<bool> =
        a.iter().map(|(i, j, _)| i != j && (i.min(j) * 31 + i.max(j)) % 3 == 0).collect();
    for (v, z) in a.values_mut().iter_mut().zip(zero) {
        if z {
            *v = 0.0;
        }
    }
    a
}

/// Square blocks with a full, dominant diagonal: symmetric positive
/// definite ones first, then nonsymmetric ones (IC(0) reads their lower
/// triangle only and still factors).
fn blocks() -> Vec<(&'static str, CsrMatrix)> {
    let mut out = vec![("empty", rsparse::CooMatrix::new(0, 0).to_csr())];
    for m in [1usize, 2, 7, 40] {
        out.push(("laplacian", generate::laplacian_2d(m)));
    }
    out.extend([
        ("tridiagonal", generate::laplacian_1d(300)),
        ("stored zeros", laplacian_with_stored_zeros(9)),
        ("random spd", generate::random_spd(120, 4, 3)),
        ("paper pde", rmesh::paper_problem(40).assemble_global().0),
        ("fem block", generate::fem_block(6, 3, 11)),
        ("random", generate::random_diag_dominant(150, 6, 5)),
    ]);
    out
}

/// Right-hand sides: random, then with a NaN and with an infinity in it.
fn right_hand_sides(n: usize) -> Vec<Vec<f64>> {
    let r = generate::random_vector(n, 29);
    let mut out = vec![r.clone()];
    if n > 0 {
        for poison in [f64::NAN, f64::NEG_INFINITY] {
            let mut p = r.clone();
            p[n / 3] = poison;
            out.push(p);
        }
    }
    out
}

/// `solve` against `natural` on every right-hand side, bit for bit, with
/// the target pre-filled differently on each side (a sweep must not read
/// what it has not written).
fn assert_bitwise(
    label: &str,
    n: usize,
    solve: impl Fn(&[f64], &mut [f64]),
    natural: impl Fn(&[f64], &mut [f64]),
) {
    for (which, r) in right_hand_sides(n).iter().enumerate() {
        let mut got = vec![7.0; n];
        let mut want = vec![-3.0; n];
        solve(r, &mut got);
        natural(r, &mut want);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{label} n = {n} rhs {which} row {i}: {g} vs {w}");
        }
    }
}

#[test]
fn ilu0_is_bitwise_the_natural_order_sweeps() {
    for (label, a) in blocks() {
        let diag_pos = diagonal_positions(&a).unwrap();
        let vals = ilu0_values(&a, &diag_pos).unwrap();
        let pc = Ilu0::new(&a).unwrap();
        assert_bitwise(
            label,
            a.rows(),
            |r, z| pc.solve_local(r, z),
            |r, z| ilu0_natural(&a, &diag_pos, &vals, r, z),
        );
    }
}

#[test]
fn ilut_with_fill_is_bitwise_the_natural_order_sweeps() {
    let mut filled = 0;
    for (label, a) in blocks() {
        for (droptol, max_fill) in [(1e-3, 10usize), (0.0, 25), (1e-1, 2)] {
            let f = ilut_factor(&a, droptol, max_fill).unwrap();
            let pc = Ilut::new(&a, droptol, max_fill).unwrap();
            filled += usize::from(pc.fill() > a.nnz());
            assert_bitwise(
                label,
                a.rows(),
                |r, z| pc.solve_local(r, z),
                |r, z| ilut_natural(&f, r, z),
            );
        }
    }
    assert!(filled >= 5, "only {filled} factors carried fill beyond the pattern");
}

#[test]
fn ssor_is_bitwise_the_natural_order_sweeps() {
    for (label, a) in blocks() {
        let diag_pos = diagonal_positions(&a).unwrap();
        for omega in [0.8, 1.0, 1.5] {
            let pc = Ssor::new(&a, omega).unwrap();
            assert_bitwise(
                label,
                a.rows(),
                |r, z| pc.solve_local(r, z),
                |r, z| ssor_natural(&a, &diag_pos, omega, r, z),
            );
        }
    }
}

#[test]
fn ic0_gather_is_bitwise_the_natural_order_scatter() {
    for (label, a) in blocks() {
        let l = ic0_factor(&a).unwrap();
        let pc = Ic0::new(&a).unwrap();
        assert_bitwise(label, a.rows(), |r, z| pc.solve_local(r, z), |r, z| ic0_natural(&l, r, z));
    }
}

/// `pc` through [`Preconditioner::apply`] on one rank.
fn jacobi_apply(pc: &Jacobi, r: &[f64], z: &mut [f64]) {
    let (n, z0) = (r.len(), z.to_vec());
    let out = Universe::run(1, |comm| {
        let part = BlockRowPartition::even(n, 1);
        let rv = DistVector::from_local(part.clone(), 0, r.to_vec()).unwrap();
        let mut zv = DistVector::from_local(part, 0, z0.clone()).unwrap();
        pc.apply(comm, &rv, &mut zv).unwrap();
        zv.local().to_vec()
    });
    z.copy_from_slice(&out[0]);
}

/// A residual with every kind of value in it: NaNs with payloads (one
/// signalling), both infinities, both zeros, subnormals, the extremes.
fn special_residual(n: usize) -> Vec<f64> {
    let specials = [
        f64::from_bits(0x7ff8_0000_0000_beef),
        f64::from_bits(0xfff4_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        f64::from_bits(1),
        -f64::MIN_POSITIVE / 3.0,
        f64::MAX,
        f64::MIN,
    ];
    let mut r = generate::random_vector(n, 31);
    for (i, v) in specials.iter().cycle().take(n / 2).enumerate() {
        r[2 * i] = *v;
    }
    r
}

/// `pc` against [`jacobi_per_row`] on `diagonal`, bit for bit.
fn assert_jacobi_bitwise(label: &str, diagonal: &[f64], uniform: bool) {
    let pc = Jacobi::new(diagonal.to_vec()).unwrap();
    assert_eq!(pc.scale.is_uniform(), uniform, "{label}");
    let n = diagonal.len();
    let mut rhs = right_hand_sides(n);
    rhs.push(special_residual(n));
    for (which, r) in rhs.iter().enumerate() {
        let mut got = vec![7.0; n];
        let mut want = vec![-3.0; n];
        jacobi_apply(&pc, r, &mut got);
        jacobi_per_row(diagonal, r, &mut want);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{label} rhs {which} row {i}: {g} vs {w}");
        }
    }
}

#[test]
fn uniform_and_per_row_jacobi_are_bitwise_the_per_row_loop() {
    let n = 40;
    // No NaN on the diagonal: when both factors are NaN, which payload the
    // product keeps is left to the compiler, in either form.
    for d in [4.0, 3.0, -0.1, 1e-310, f64::MAX, f64::INFINITY] {
        assert_jacobi_bitwise(&format!("uniform {d}"), &vec![d; n], true);
        let varied: Vec<f64> = (0..n).map(|i| d * (1.0 + i as f64 / 64.0)).collect();
        let uniform = varied.iter().all(|v| v.to_bits() == varied[0].to_bits());
        assert_jacobi_bitwise(&format!("varied {d}"), &varied, uniform);
    }
    let paper = rmesh::paper_problem(30).assemble_global().0;
    assert_jacobi_bitwise("paper pde", &paper.diagonal().unwrap(), true);
}

#[test]
fn a_diagonal_one_ulp_off_takes_the_per_row_path() {
    let n = 33;
    for row in [0, n / 2, n - 1] {
        for step in [1i64, -1] {
            let mut d = vec![3.0f64; n];
            d[row] = f64::from_bits(d[row].to_bits().wrapping_add_signed(step));
            assert_jacobi_bitwise(&format!("row {row} {step:+} ulp"), &d, false);
        }
    }
}
