//! SELL-C-σ — sliced ELLPACK with row sorting.
//!
//! Rows are grouped into slices of a fixed height `C`; within sorting
//! windows of `σ` rows (a multiple of `C`, so no slice straddles a
//! window) rows are ordered by **descending** length, and each slice
//! stores its entries column-major (`slot = offset + j·C + lane`) padded
//! to the slice's widest row. The descending sort means the lanes that
//! are still active at column-position `j` always form a *prefix* of the
//! slice, so the SpMV inner loop runs over a shrinking dense prefix of
//! lanes with no per-lane branch and — crucially — **performs no padding
//! arithmetic at all**.
//!
//! # Bit-identity contract
//!
//! Each row's entries occupy slots `offset + j·C + lane` for
//! `j = 0..len`, i.e. exactly the row's CSR order, and the kernel
//! accumulates them in ascending `j` with one scalar accumulator per
//! lane. Padding slots are never touched by the kernel. The result is
//! therefore bit-identical to [`CsrMatrix::matvec_into`] for every
//! matrix, every input, and every thread count.

use crate::csr::CsrMatrix;
use crate::error::{SparseError, SparseResult};
use crate::threads::{self, SharedMutSlice};

/// Default slice height: 8 lanes keeps the per-slice accumulators in
/// registers/L1 while amortizing the per-slice width lookup.
pub const DEFAULT_C: usize = 8;

/// Default sorting window (a multiple of [`DEFAULT_C`]): wide enough to
/// group similar-length rows, narrow enough to keep `x` accesses local.
pub const DEFAULT_SIGMA: usize = 128;

/// Hard cap on the slice height (sizes the kernel's stack accumulators).
pub const MAX_C: usize = 64;

/// Minimum row count before `matvec_par_into` dispatches to the pool
/// (same rationale and value as the CSR threshold).
const PAR_SPMV_MIN_ROWS: usize = 2048;

/// Slot marker for padding entries in the `src_idx` map.
const PAD: usize = usize::MAX;

/// A sparse matrix in SELL-C-σ form. Built from (and convertible back
/// to) [`CsrMatrix`]; the CSR source's explicit zeros are preserved.
#[derive(Debug, Clone, PartialEq)]
pub struct SellMatrix {
    rows: usize,
    cols: usize,
    /// Slice height (lanes per slice), clamped to `1..=MAX_C`.
    c: usize,
    /// Sorting window, always a positive multiple of `c`.
    sigma: usize,
    /// Element offset of each slice's storage; `n_slices + 1` entries.
    slice_ptr: Vec<usize>,
    /// Original row of each sorted lane position (`rows` entries):
    /// lane `l` of slice `s` holds row `perm[s·c + l]`.
    perm: Vec<usize>,
    /// Row length of each sorted lane position (`rows` entries),
    /// non-increasing within a slice.
    lens: Vec<usize>,
    /// Column index per stored slot (padding slots hold 0).
    col_idx: Vec<usize>,
    /// Value per stored slot (padding slots hold 0.0).
    values: Vec<f64>,
    /// CSR nnz index per stored slot, [`PAD`] for padding — the map that
    /// makes `refresh_values`/`to_csr` exact.
    src_idx: Vec<usize>,
    /// Real (non-padding) stored entries.
    nnz: usize,
}

impl SellMatrix {
    /// Convert a CSR matrix using the default `C`/`σ`.
    pub fn from_csr(a: &CsrMatrix) -> SellMatrix {
        SellMatrix::from_csr_with(a, DEFAULT_C, DEFAULT_SIGMA)
    }

    /// Convert a CSR matrix with an explicit slice height `c` (clamped to
    /// `1..=MAX_C`) and sorting window `sigma` (rounded down to a positive
    /// multiple of the clamped `c`).
    pub fn from_csr_with(a: &CsrMatrix, c: usize, sigma: usize) -> SellMatrix {
        let rows = a.rows();
        let cols = a.cols();
        let c = c.clamp(1, MAX_C);
        let sigma = (sigma.max(c) / c) * c;
        let row_ptr = a.row_ptr();
        let row_len = |r: usize| row_ptr[r + 1] - row_ptr[r];

        // Sort rows by descending length within each σ-window. The sort
        // is stable, so equal-length rows keep ascending row order —
        // the layout is a pure function of the pattern.
        let mut perm: Vec<usize> = (0..rows).collect();
        for window in perm.chunks_mut(sigma) {
            window.sort_by_key(|&q| std::cmp::Reverse(row_len(q)));
        }
        let lens: Vec<usize> = perm.iter().map(|&r| row_len(r)).collect();

        let n_slices = rows.div_ceil(c);
        let mut slice_ptr = Vec::with_capacity(n_slices + 1);
        slice_ptr.push(0usize);
        for s in 0..n_slices {
            // Lanes are length-sorted descending, so the slice width is
            // the first lane's length.
            let width = lens[s * c];
            slice_ptr.push(slice_ptr[s] + width * c);
        }
        let total = *slice_ptr.last().unwrap_or(&0);

        let mut col_idx = vec![0usize; total];
        let mut values = vec![0.0f64; total];
        let mut src_idx = vec![PAD; total];
        let (a_cols, a_vals) = (a.col_idx(), a.values());
        for (s, &off) in slice_ptr.iter().enumerate().take(n_slices) {
            let base = s * c;
            let lanes = c.min(rows - base);
            for l in 0..lanes {
                let row = perm[base + l];
                let start = row_ptr[row];
                for j in 0..lens[base + l] {
                    let slot = off + j * c + l;
                    col_idx[slot] = a_cols[start + j];
                    values[slot] = a_vals[start + j];
                    src_idx[slot] = start + j;
                }
            }
        }

        SellMatrix {
            rows,
            cols,
            c,
            sigma,
            slice_ptr,
            perm,
            lens,
            col_idx,
            values,
            src_idx,
            nnz: a.nnz(),
        }
    }

    /// Matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Real stored entries (excluding padding).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The slice height `C`.
    pub fn slice_height(&self) -> usize {
        self.c
    }

    /// The sorting window `σ`.
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Number of slices.
    pub fn n_slices(&self) -> usize {
        self.slice_ptr.len() - 1
    }

    /// Stored slots / real entries — 1.0 means no padding at all.
    pub fn padding_overhead(&self) -> f64 {
        if self.nnz == 0 {
            return 1.0;
        }
        self.values.len() as f64 / self.nnz as f64
    }

    /// Reconstruct the exact CSR source (pattern, values, and explicit
    /// zeros; padding is dropped via the `src_idx` map).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.rows + 1];
        for (pos, &row) in self.perm.iter().enumerate() {
            row_ptr[row + 1] = self.lens[pos];
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0usize; self.nnz];
        let mut values = vec![0.0f64; self.nnz];
        for (pos, &row) in self.perm.iter().enumerate() {
            let (s, l) = (pos / self.c, pos % self.c);
            let off = self.slice_ptr[s];
            let start = row_ptr[row];
            for j in 0..self.lens[pos] {
                let slot = off + j * self.c + l;
                col_idx[start + j] = self.col_idx[slot];
                values[start + j] = self.values[slot];
            }
        }
        CsrMatrix::from_parts(self.rows, self.cols, row_ptr, col_idx, values)
            .expect("SELL round-trip preserves CSR invariants")
    }

    /// Re-read values from the CSR matrix this was converted from (same
    /// pattern, possibly new values) — O(slots), no re-conversion.
    pub fn refresh_values(&mut self, a: &CsrMatrix) -> SparseResult<()> {
        self.refresh_from(a.values())
    }

    /// [`Self::refresh_values`] from the bare value array of that matrix.
    pub(crate) fn refresh_from(&mut self, vals: &[f64]) -> SparseResult<()> {
        if vals.len() != self.nnz {
            return Err(SparseError::LengthMismatch {
                what: "SELL refresh values",
                expected: self.nnz,
                got: vals.len(),
            });
        }
        for (slot, &src) in self.src_idx.iter().enumerate() {
            if src != PAD {
                self.values[slot] = vals[src];
            }
        }
        Ok(())
    }

    /// The slice-range SpMV kernel: computes every row held by slices
    /// `s0..s1` and writes each result to `y[map(row)]` (identity map
    /// when `scatter` is `None`). Rows accumulate in CSR entry order —
    /// see the module docs for the bit-identity argument.
    ///
    /// Caller guarantees: distinct slices hold distinct original rows, so
    /// concurrent calls on disjoint slice ranges write disjoint `y`
    /// elements (scatter maps must be injective, as the distributed
    /// interior/boundary row lists are).
    pub(crate) fn spmv_slices(
        &self,
        s0: usize,
        s1: usize,
        x: &[f64],
        y: &SharedMutSlice<'_>,
        scatter: Option<&[usize]>,
    ) {
        // Monomorphized kernels for the common slice heights: a constant
        // `C` lets the full-lane inner loop unroll completely.
        match self.c {
            4 => self.spmv_slices_fixed::<4>(s0, s1, x, y, scatter),
            8 => self.spmv_slices_fixed::<8>(s0, s1, x, y, scatter),
            16 => self.spmv_slices_fixed::<16>(s0, s1, x, y, scatter),
            _ => self.spmv_slices_generic(s0, s1, x, y, scatter),
        }
    }

    /// Fixed-height kernel: `C` must equal `self.c`. Columns where every
    /// lane is still active (`j` below the shortest row length — the
    /// common case after length sorting) take an unrolled path; the
    /// shrinking tail falls through to the prefix loop with the same
    /// per-lane accumulation order.
    fn spmv_slices_fixed<const C: usize>(
        &self,
        s0: usize,
        s1: usize,
        x: &[f64],
        y: &SharedMutSlice<'_>,
        scatter: Option<&[usize]>,
    ) {
        debug_assert_eq!(self.c, C);
        let values = &self.values;
        let col_idx = &self.col_idx;
        let lens = &self.lens;
        for s in s0..s1 {
            let base = s * C;
            let off = self.slice_ptr[s];
            let width = (self.slice_ptr[s + 1] - off) / C;
            let lanes = C.min(self.rows - base);
            let mut acc = [0.0f64; C];
            let mut active = lanes;
            while active > 0 && lens[base + active - 1] == 0 {
                active -= 1;
            }
            let mut j = 0;
            if active == C {
                // Lengths are non-increasing within the slice, so lane
                // C-1 holds the shortest row: every j below its length
                // keeps all C lanes active.
                let full = lens[base + C - 1];
                while j < full {
                    let row_off = off + j * C;
                    let vs: &[f64; C] =
                        values[row_off..row_off + C].try_into().expect("slice width");
                    let cs: &[usize; C] =
                        col_idx[row_off..row_off + C].try_into().expect("slice width");
                    for l in 0..C {
                        acc[l] += vs[l] * x[cs[l]];
                    }
                    j += 1;
                }
            }
            while j < width {
                while active > 0 && lens[base + active - 1] <= j {
                    active -= 1;
                }
                let row_off = off + j * C;
                for (l, a) in acc.iter_mut().enumerate().take(active) {
                    let slot = row_off + l;
                    *a += values[slot] * x[col_idx[slot]];
                }
                j += 1;
            }
            for (l, &a) in acc.iter().enumerate().take(lanes) {
                let row = self.perm[base + l];
                let idx = match scatter {
                    Some(map) => map[row],
                    None => row,
                };
                // SAFETY: distinct slices → distinct rows → distinct
                // (injectively mapped) output elements.
                unsafe { y.set(idx, a) };
            }
        }
    }

    /// Arbitrary-height kernel, same visit order as the fixed one.
    fn spmv_slices_generic(
        &self,
        s0: usize,
        s1: usize,
        x: &[f64],
        y: &SharedMutSlice<'_>,
        scatter: Option<&[usize]>,
    ) {
        let c = self.c;
        let mut acc = [0.0f64; MAX_C];
        for s in s0..s1 {
            let base = s * c;
            let off = self.slice_ptr[s];
            let width = (self.slice_ptr[s + 1] - off) / c;
            let lanes = c.min(self.rows - base);
            acc[..lanes].fill(0.0);
            let mut active = lanes;
            while active > 0 && self.lens[base + active - 1] == 0 {
                active -= 1;
            }
            for j in 0..width {
                while active > 0 && self.lens[base + active - 1] <= j {
                    active -= 1;
                }
                let row_off = off + j * c;
                for (l, a) in acc.iter_mut().enumerate().take(active) {
                    let slot = row_off + l;
                    *a += self.values[slot] * x[self.col_idx[slot]];
                }
            }
            for (l, &a) in acc.iter().enumerate().take(lanes) {
                let row = self.perm[base + l];
                let idx = match scatter {
                    Some(map) => map[row],
                    None => row,
                };
                // SAFETY: as in the fixed kernel.
                unsafe { y.set(idx, a) };
            }
        }
    }

    /// y = A·x into a caller-provided buffer (serial, no allocation).
    /// Bit-identical to [`CsrMatrix::matvec_into`].
    #[inline]
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(y.len(), self.rows);
        let ys = SharedMutSlice::new(y);
        self.spmv_slices(0, self.n_slices(), x, &ys, None);
    }

    /// y = A·x with an explicit thread count, splitting slices into one
    /// contiguous chunk per thread — allocation-free, bit-identical to
    /// the serial kernel at any `threads` value.
    pub fn matvec_threaded_into(&self, x: &[f64], y: &mut [f64], threads: usize) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(y.len(), self.rows);
        let ys = SharedMutSlice::new(y);
        if threads > 1 && self.rows >= PAR_SPMV_MIN_ROWS {
            threads::for_each_chunk(self.n_slices(), threads, |s0, s1| {
                self.spmv_slices(s0, s1, x, &ys, None);
            });
        } else {
            self.spmv_slices(0, self.n_slices(), x, &ys, None);
        }
    }

    /// y = A·x over the rank-local thread pool ([`threads::active`]
    /// threads), into a caller-provided buffer — the SELL counterpart of
    /// [`CsrMatrix::matvec_par_into`].
    pub fn matvec_par_into(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_threaded_into(x, y, threads::active());
    }

    /// y = A·x (allocating, validating wrapper).
    pub fn matvec(&self, x: &[f64]) -> SparseResult<Vec<f64>> {
        if x.len() != self.cols {
            return Err(SparseError::LengthMismatch {
                what: "matvec input",
                expected: self.cols,
                got: x.len(),
            });
        }
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        Ok(y)
    }

    /// Scatter SpMV for the distributed split kernels: row `r` of this
    /// (compact) matrix writes `y[rows_map[r]]`. `rows_map` must be
    /// injective. Threaded over slices when `threads > 1` and the matrix
    /// clears the dispatch threshold; bit-identical either way.
    pub(crate) fn spmv_scatter(
        &self,
        rows_map: &[usize],
        x: &[f64],
        y: &SharedMutSlice<'_>,
        threads: usize,
    ) {
        debug_assert_eq!(rows_map.len(), self.rows);
        if threads > 1 && self.rows >= PAR_SPMV_MIN_ROWS {
            threads::for_each_chunk(self.n_slices(), threads, |s0, s1| {
                self.spmv_slices(s0, s1, x, y, Some(rows_map));
            });
        } else {
            self.spmv_slices(0, self.n_slices(), x, y, Some(rows_map));
        }
    }

    /// Multi-vector slice-range kernel: computes every row of slices
    /// `s0..s1` against `k` input columns (column `q` at
    /// `xs[q·x_stride..]`) and writes each result to
    /// `y[q·y_stride + map(row)]`. One sweep over the slice storage per
    /// group of [`crate::csr::MULTI_CHUNK`] columns; each column's lanes
    /// accumulate in exactly [`Self::spmv_slices`]'s visit order, so
    /// per-column results are bit-identical to the single-vector kernel.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spmv_slices_multi(
        &self,
        s0: usize,
        s1: usize,
        xs: &[f64],
        x_stride: usize,
        y: &SharedMutSlice<'_>,
        y_stride: usize,
        k: usize,
        scatter: Option<&[usize]>,
    ) {
        use crate::csr::MULTI_CHUNK;
        let c = self.c;
        let mut q0 = 0;
        while q0 < k {
            let kc = (k - q0).min(MULTI_CHUNK);
            // One accumulator per (column, lane) pair; MAX_C·MULTI_CHUNK
            // doubles fit comfortably on the stack.
            let mut acc = [0.0f64; MAX_C * MULTI_CHUNK];
            for s in s0..s1 {
                let base = s * c;
                let off = self.slice_ptr[s];
                let width = (self.slice_ptr[s + 1] - off) / c;
                let lanes = c.min(self.rows - base);
                acc[..kc * c].fill(0.0);
                let mut active = lanes;
                while active > 0 && self.lens[base + active - 1] == 0 {
                    active -= 1;
                }
                for j in 0..width {
                    while active > 0 && self.lens[base + active - 1] <= j {
                        active -= 1;
                    }
                    let row_off = off + j * c;
                    for l in 0..active {
                        let slot = row_off + l;
                        let v = self.values[slot];
                        let col = self.col_idx[slot];
                        for q in 0..kc {
                            acc[q * c + l] += v * xs[(q0 + q) * x_stride + col];
                        }
                    }
                }
                for l in 0..lanes {
                    let row = self.perm[base + l];
                    let idx = match scatter {
                        Some(map) => map[row],
                        None => row,
                    };
                    for q in 0..kc {
                        // SAFETY: distinct slices → distinct rows →
                        // distinct (injectively mapped) output elements,
                        // one per column segment.
                        unsafe { y.set((q0 + q) * y_stride + idx, acc[q * c + l]) };
                    }
                }
            }
            q0 += kc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    fn assert_bits_equal(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (p, q)) in a.iter().zip(b).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "element {i}: {p} vs {q}");
        }
    }

    #[test]
    fn round_trips_exactly() {
        for (seed, rows, cols) in [(1u64, 37, 41), (2, 64, 64), (3, 1, 9), (4, 130, 7)] {
            let a = generate::random_csr(rows, cols, 0.15, seed);
            for (c, sigma) in [(1, 1), (4, 8), (8, 128), (64, 64)] {
                let s = SellMatrix::from_csr_with(&a, c, sigma);
                assert_eq!(s.to_csr(), a, "c={c} sigma={sigma}");
                assert_eq!(s.nnz(), a.nnz());
            }
        }
    }

    #[test]
    fn empty_and_dense_rows_round_trip() {
        // Rows 0 and 3 empty, row 1 full.
        let a = CsrMatrix::from_parts(
            4,
            3,
            vec![0, 0, 3, 4, 4],
            vec![0, 1, 2, 1],
            vec![1.0, -2.0, 3.0, 0.0], // keeps an explicit zero
        )
        .unwrap();
        let s = SellMatrix::from_csr_with(&a, 2, 4);
        assert_eq!(s.to_csr(), a);
        let x = vec![1.0, 2.0, 3.0];
        let y = s.matvec(&x).unwrap();
        assert_bits_equal(&y, &a.matvec(&x).unwrap());
        assert_eq!(y[0], 0.0);
        assert_eq!(y[3], 0.0);
    }

    #[test]
    fn matvec_bit_identical_to_csr() {
        for (seed, n) in [(11u64, 200), (12, 1023), (13, 4096)] {
            let a = generate::random_diag_dominant(n, 9, seed);
            let x = generate::random_vector(n, seed ^ 0xabc);
            let mut y_csr = vec![0.0; n];
            a.matvec_into(&x, &mut y_csr);
            for (c, sigma) in [(4, 32), (8, 128), (16, 16)] {
                let s = SellMatrix::from_csr_with(&a, c, sigma);
                let mut y = vec![0.0; n];
                s.matvec_into(&x, &mut y);
                assert_bits_equal(&y, &y_csr);
                for threads in [1usize, 2, 4, 8] {
                    y.fill(f64::NAN);
                    s.matvec_threaded_into(&x, &mut y, threads);
                    assert_bits_equal(&y, &y_csr);
                }
            }
        }
    }

    #[test]
    fn refresh_values_tracks_csr_updates() {
        let mut a = generate::random_diag_dominant(300, 5, 77);
        let mut s = SellMatrix::from_csr(&a);
        for v in a.values_mut() {
            *v *= -1.5;
        }
        s.refresh_values(&a).unwrap();
        assert_eq!(s.to_csr(), a);
        let bad = generate::random_csr(10, 300, 0.05, 5);
        assert!(s.refresh_values(&bad).is_err());
    }

    #[test]
    fn skewed_rows_pad_but_stay_exact() {
        // One long row per window dominates the slice width.
        let a = generate::skewed_csr(512, 512, 3, 64, 21);
        let s = SellMatrix::from_csr(&a);
        assert!(s.padding_overhead() >= 1.0);
        assert_eq!(s.to_csr(), a);
        let x = generate::random_vector(512, 9);
        assert_bits_equal(&s.matvec(&x).unwrap(), &a.matvec(&x).unwrap());
    }
}
