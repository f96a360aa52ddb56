//! Test matrices shared by the ordering and factorization property
//! tests: every one is nonsingular, and between them they cover
//! symmetric and nonsymmetric patterns, regular grids, and systems that
//! cannot be factored without off-diagonal pivots.

use rsparse::{generate, CooMatrix, CsrMatrix};

/// Number of matrix families [`matrix`] knows.
pub(crate) const KINDS: usize = 5;

/// Matrix `seed` of family `kind`, of order at most `n` (exactly `n` for
/// the random families; the grids take the largest square that fits).
pub(crate) fn matrix(kind: usize, n: usize, seed: u64) -> CsrMatrix {
    let per_row = 1 + (seed % 5) as usize;
    let m = (n as f64).sqrt() as usize;
    match kind {
        0 => generate::random_spd(n, per_row, seed),
        1 => generate::random_diag_dominant(n, per_row, seed),
        2 => rotate_rows(&generate::random_diag_dominant(n, per_row, seed)),
        3 => rmesh::paper_problem(m.max(2)).assemble_global().0,
        _ => nine_point(m.max(2)),
    }
}

/// Row `i` of the result is row `i + 1` of `a` (cyclically): as
/// nonsingular as `a`, but with the strong entries off the diagonal.
fn rotate_rows(a: &CsrMatrix) -> CsrMatrix {
    let n = a.rows();
    let mut coo = CooMatrix::new(n, n);
    for (r, c, v) in a.iter() {
        coo.push((r + n - 1) % n, c, v).expect("bounds");
    }
    coo.to_csr()
}

/// 9-point stencil on an `m×m` grid, diagonally dominant.
fn nine_point(m: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(m * m, m * m);
    for i in 0..m {
        for j in 0..m {
            for ni in i.saturating_sub(1)..(i + 2).min(m) {
                for nj in j.saturating_sub(1)..(j + 2).min(m) {
                    let v = if (ni, nj) == (i, j) { 8.5 } else { -1.0 };
                    coo.push(i * m + j, ni * m + nj, v).expect("bounds");
                }
            }
        }
    }
    coo.to_csr()
}

/// Two decoupled copies of `a`, unknown `i` of copy `c` numbered
/// `2·i + c`. Under the natural ordering every structural index of the
/// factors keeps the parity of its column, so no column's structure
/// holds its successor: the factors have no supernode.
pub(crate) fn interleave2(a: &CsrMatrix) -> CsrMatrix {
    let mut coo = CooMatrix::new(2 * a.rows(), 2 * a.cols());
    for (r, c, v) in a.iter() {
        coo.push(2 * r, 2 * c, v).expect("bounds");
        coo.push(2 * r + 1, 2 * c + 1, v).expect("bounds");
    }
    coo.to_csr()
}
