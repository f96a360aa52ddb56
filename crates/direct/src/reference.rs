//! The column sweeps RSLU ran over CSC factors before it kept them as
//! panels — the oracles the panel sweeps must reproduce bit for bit.
//! Compiled into this crate's unit tests and, by path, into
//! `tests/proptest_lu.rs`; nothing here names a crate-private item.

use rsparse::CscMatrix;

/// `P·A·Q = L·U` as CSC factors (L with its unit diagonal stored first
/// in every column, U with its diagonal last) and the two permutations,
/// `perm[new] = old`.
pub struct CscFactors<'a> {
    pub l: &'a CscMatrix,
    pub u: &'a CscMatrix,
    pub row_perm: &'a [usize],
    pub col_perm: &'a [usize],
}

impl CscFactors<'_> {
    /// A·x = b: column scatter forward over L, column scatter backward
    /// over U, both skipping a column whose unknown is exactly 0.0.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = b.len();
        let mut y: Vec<f64> = self.row_perm.iter().map(|&orig| b[orig]).collect();
        for j in 0..n {
            let (rows, vals) = self.l.col(j);
            let yj = y[j];
            if yj != 0.0 {
                for (&r, &v) in rows[1..].iter().zip(&vals[1..]) {
                    y[r] -= v * yj;
                }
            }
        }
        for j in (0..n).rev() {
            let (rows, vals) = self.u.col(j);
            y[j] /= vals.last().expect("U has its diagonal");
            let yj = y[j];
            if yj != 0.0 {
                for (&r, &v) in rows.iter().zip(vals).take(rows.len() - 1) {
                    y[r] -= v * yj;
                }
            }
        }
        let mut x = vec![0.0; n];
        for (new, &old) in self.col_perm.iter().enumerate() {
            x[old] = y[new];
        }
        x
    }

    /// Aᵀ·x = b: the CSC columns of U and L are the rows of Uᵀ and Lᵀ, so
    /// both sweeps gather.
    pub fn solve_transpose(&self, b: &[f64]) -> Vec<f64> {
        let n = b.len();
        let mut y: Vec<f64> = self.col_perm.iter().map(|&old| b[old]).collect();
        for j in 0..n {
            let (rows, vals) = self.u.col(j);
            let mut acc = y[j];
            for (&r, &v) in rows.iter().zip(vals).take(rows.len() - 1) {
                acc -= v * y[r];
            }
            y[j] = acc / vals.last().expect("U has its diagonal");
        }
        for j in (0..n).rev() {
            let (rows, vals) = self.l.col(j);
            let mut acc = y[j];
            for (&r, &v) in rows[1..].iter().zip(&vals[1..]) {
                acc -= v * y[r];
            }
            y[j] = acc;
        }
        let mut x = vec![0.0; n];
        for (pos, &orig) in self.row_perm.iter().enumerate() {
            x[orig] = y[pos];
        }
        x
    }

    /// The Hager–Higham loop of `LuFactorization::inverse_norm1_estimate`
    /// over the two solves above.
    pub fn inverse_norm1_estimate(&self) -> f64 {
        let n = self.row_perm.len();
        let mut x = vec![1.0 / n as f64; n];
        let mut best = 0.0f64;
        for _ in 0..5 {
            let y = self.solve(&x);
            let est = rsparse::dense::norm1(&y);
            let xi: Vec<f64> = y.iter().map(|v| if *v >= 0.0 { 1.0 } else { -1.0 }).collect();
            let z = self.solve_transpose(&xi);
            let (jmax, zmax) = z.iter().enumerate().fold((0usize, 0.0f64), |(bj, bv), (j, &v)| {
                if v.abs() > bv {
                    (j, v.abs())
                } else {
                    (bj, bv)
                }
            });
            best = best.max(est);
            if zmax <= rsparse::dense::dot(&z, &x) {
                break;
            }
            x.iter_mut().for_each(|v| *v = 0.0);
            x[jmax] = 1.0;
        }
        best
    }
}
