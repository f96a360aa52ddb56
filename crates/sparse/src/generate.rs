//! Reproducible test-matrix generators. Everything is seeded with a plain
//! `u64` and uses a local xorshift generator, so tests and benches are
//! deterministic without dragging `rand` into the library's dependency
//! surface.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;

/// Minimal xorshift64* PRNG — deterministic, seedable, dependency-free.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeded generator (seed 0 is remapped — xorshift's fixed point).
    pub fn new(seed: u64) -> Self {
        XorShift64 { state: if seed == 0 { 0x9e3779b97f4a7c15 } else { seed } }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in [0, bound).
    pub fn next_below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Random sparse matrix with approximately `density · rows · cols` entries
/// uniform in (−1, 1); duplicates collapse via COO summing.
pub fn random_csr(rows: usize, cols: usize, density: f64, seed: u64) -> CsrMatrix {
    let mut rng = XorShift64::new(seed);
    let target = ((rows * cols) as f64 * density).ceil() as usize;
    let mut coo = CooMatrix::new(rows, cols);
    for _ in 0..target {
        let r = rng.next_below(rows);
        let c = rng.next_below(cols);
        let v = 2.0 * rng.next_f64() - 1.0;
        coo.push(r, c, v).expect("bounds by construction");
    }
    coo.to_csr()
}

/// Random strictly diagonally dominant matrix (every iterative method and
/// the ILU factorizations are guaranteed to behave): off-diagonal entries
/// uniform in (−1, 1), diagonal set to (row abs-sum + 1).
pub fn random_diag_dominant(n: usize, off_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = XorShift64::new(seed);
    let mut coo = CooMatrix::new(n, n);
    let mut row_sums = vec![0.0f64; n];
    for (i, row_sum) in row_sums.iter_mut().enumerate() {
        for _ in 0..off_per_row {
            let j = rng.next_below(n);
            if j != i {
                let v = 2.0 * rng.next_f64() - 1.0;
                coo.push(i, j, v).expect("bounds");
                *row_sum += v.abs();
            }
        }
    }
    for (i, &row_sum) in row_sums.iter().enumerate() {
        coo.push(i, i, row_sum + 1.0).expect("bounds");
    }
    coo.to_csr()
}

/// Random symmetric positive definite matrix: S = B + Bᵀ with boosted
/// diagonal, guaranteed SPD by diagonal dominance with positive diagonal.
pub fn random_spd(n: usize, off_per_row: usize, seed: u64) -> CsrMatrix {
    let b = random_csr(n, n, off_per_row as f64 / n as f64, seed);
    let bt = b.transpose();
    let sym = crate::ops::add(0.5, &b, 0.5, &bt).expect("shapes match");
    // Boost the diagonal above the off-diagonal row sums.
    let mut coo = sym.to_coo();
    let mut row_sums = vec![0.0f64; n];
    for (r, c, v) in sym.iter() {
        if r != c {
            row_sums[r] += v.abs();
        }
    }
    for (i, &s) in row_sums.iter().enumerate() {
        let d = sym.get(i, i);
        coo.push(i, i, s + 1.0 - d).expect("bounds");
    }
    coo.to_csr()
}

/// 1-D Laplacian tridiag(−1, 2, −1) of order `n`.
pub fn laplacian_1d(n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 2.0).expect("bounds");
        if i > 0 {
            coo.push(i, i - 1, -1.0).expect("bounds");
        }
        if i + 1 < n {
            coo.push(i, i + 1, -1.0).expect("bounds");
        }
    }
    coo.to_csr()
}

/// 2-D 5-point Laplacian on an `m×m` interior grid (order `m²`,
/// `nnz = 5m² − 4m`) — the paper's coefficient-matrix family before the
/// convection term is added.
pub fn laplacian_2d(m: usize) -> CsrMatrix {
    let n = m * m;
    let mut coo = CooMatrix::new(n, n);
    let idx = |i: usize, j: usize| i * m + j;
    for i in 0..m {
        for j in 0..m {
            let k = idx(i, j);
            coo.push(k, k, 4.0).expect("bounds");
            if i > 0 {
                coo.push(k, idx(i - 1, j), -1.0).expect("bounds");
            }
            if i + 1 < m {
                coo.push(k, idx(i + 1, j), -1.0).expect("bounds");
            }
            if j > 0 {
                coo.push(k, idx(i, j - 1), -1.0).expect("bounds");
            }
            if j + 1 < m {
                coo.push(k, idx(i, j + 1), -1.0).expect("bounds");
            }
        }
    }
    coo.to_csr()
}

/// Dense random vector, entries uniform in (−1, 1).
pub fn random_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = XorShift64::new(seed);
    (0..n).map(|_| 2.0 * rng.next_f64() - 1.0).collect()
}

/// Banded matrix of order `n`: every diagonal within `±bw` fully
/// populated with entries uniform in (−1, 1), diagonal boosted to strict
/// dominance. Rows have nearly identical lengths (clipped at the ends) —
/// the SELL-C-σ best case.
pub fn banded(n: usize, bw: usize, seed: u64) -> CsrMatrix {
    let mut rng = XorShift64::new(seed);
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        let lo = i.saturating_sub(bw);
        let hi = (i + bw).min(n - 1);
        for j in lo..=hi {
            let v = if j == i { 2.0 * bw as f64 + 1.0 } else { 2.0 * rng.next_f64() - 1.0 };
            coo.push(i, j, v).expect("bounds");
        }
    }
    coo.to_csr()
}

/// FEM-style block matrix: the 2-D 5-point Laplacian pattern on an `m×m`
/// grid with every scalar entry expanded into a dense `b×b` block
/// (order `m²·b`, as multi-dof-per-node assembly produces). Block
/// diagonal is boosted to strict dominance; off-block entries are
/// uniform in (−1, 1). Every stored block is completely full — the
/// block-CSR best case.
pub fn fem_block(m: usize, b: usize, seed: u64) -> CsrMatrix {
    let mut rng = XorShift64::new(seed);
    let pattern = laplacian_2d(m);
    let n = m * m * b;
    let mut coo = CooMatrix::new(n, n);
    for (i, j, _) in pattern.iter() {
        for bi in 0..b {
            for bj in 0..b {
                let v = if i == j && bi == bj {
                    // > 4 neighbor blocks × b entries of |v| < 1 each.
                    5.0 * b as f64
                } else {
                    2.0 * rng.next_f64() - 1.0
                };
                coo.push(i * b + bi, j * b + bj, v).expect("bounds");
            }
        }
    }
    coo.to_csr()
}

/// Skewed row-length matrix: most rows hold about `short` random
/// entries, but every 32nd row holds about `long` — the high-variance
/// profile where padding makes SELL lose to CSR. Diagonal included and
/// boosted to dominance.
pub fn skewed_csr(rows: usize, cols: usize, short: usize, long: usize, seed: u64) -> CsrMatrix {
    let mut rng = XorShift64::new(seed);
    let mut coo = CooMatrix::new(rows, cols);
    for i in 0..rows {
        let len = if i % 32 == 0 { long } else { short };
        for _ in 0..len {
            let j = rng.next_below(cols);
            if i >= cols || j != i {
                coo.push(i, j, 2.0 * rng.next_f64() - 1.0).expect("bounds");
            }
        }
        if i < cols {
            coo.push(i, i, long as f64 + 1.0).expect("bounds");
        }
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_in_range() {
        let mut a = XorShift64::new(12);
        let mut b = XorShift64::new(12);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = XorShift64::new(5);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(r.next_below(7) < 7);
        }
    }

    #[test]
    fn random_csr_has_requested_shape_and_some_entries() {
        let a = random_csr(20, 30, 0.1, 3);
        assert_eq!(a.shape(), (20, 30));
        assert!(a.nnz() > 20);
        // Determinism.
        assert_eq!(a, random_csr(20, 30, 0.1, 3));
        assert_ne!(a, random_csr(20, 30, 0.1, 4));
    }

    #[test]
    fn diag_dominant_really_is() {
        let a = random_diag_dominant(30, 4, 9);
        for i in 0..30 {
            let (cols, vals) = a.row(i);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c == i {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            assert!(diag > off, "row {i}: {diag} vs {off}");
        }
    }

    #[test]
    fn spd_is_symmetric_with_dominant_positive_diagonal() {
        let a = random_spd(25, 3, 11);
        let at = a.transpose();
        assert_eq!(a, at);
        for i in 0..25 {
            let (cols, vals) = a.row(i);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c == i {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            assert!(diag > 0.0 && diag > off, "row {i}");
        }
    }

    #[test]
    fn laplacian_2d_matches_paper_nnz_formula() {
        for m in [3usize, 10, 50] {
            let a = laplacian_2d(m);
            assert_eq!(a.shape(), (m * m, m * m));
            assert_eq!(a.nnz(), 5 * m * m - 4 * m, "m = {m}");
        }
    }

    #[test]
    fn banded_rows_have_full_bandwidth_inside() {
        let a = banded(50, 3, 7);
        assert_eq!(a.shape(), (50, 50));
        for i in 3..47 {
            let (cols, _) = a.row(i);
            assert_eq!(cols.len(), 7, "row {i}");
            assert_eq!(cols[0], i - 3);
            assert_eq!(cols[6], i + 3);
        }
        assert_eq!(a, banded(50, 3, 7));
    }

    #[test]
    fn fem_block_expands_pattern_into_full_blocks() {
        let (m, b) = (4usize, 3usize);
        let a = fem_block(m, b, 5);
        assert_eq!(a.shape(), (m * m * b, m * m * b));
        assert_eq!(a.nnz(), (5 * m * m - 4 * m) * b * b);
        // Diagonal dominance from the boosted block diagonal.
        for i in 0..a.rows() {
            let (cols, vals) = a.row(i);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c == i {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            assert!(diag > off, "row {i}");
        }
    }

    #[test]
    fn skewed_rows_alternate_short_and_long() {
        let a = skewed_csr(256, 256, 3, 64, 13);
        let len = |i: usize| a.row(i).0.len();
        assert!(len(0) > 2 * len(1), "{} vs {}", len(0), len(1));
        assert!(len(32) > 2 * len(33));
    }

    #[test]
    fn laplacian_1d_rowsums_vanish_inside() {
        let a = laplacian_1d(6);
        let ones = vec![1.0; 6];
        let y = a.matvec(&ones).unwrap();
        assert_eq!(y, vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
    }
}
