//! Block-CSR — CSR over dense `r×c` blocks.
//!
//! Rows are grouped into block rows of height `br` and columns into
//! block columns of width `bc`; every block that holds at least one
//! entry is stored as a dense row-major `br×bc` tile (absent positions
//! filled with `0.0`). For FEM-style matrices assembled with several
//! degrees of freedom per node the blocks are completely full, and the
//! SpMV inner loop loads one block-column index per `br·bc` multiplies
//! instead of one column index per multiply.
//!
//! # Bit-identity contract
//!
//! Block columns are stored ascending, so within each scalar row the
//! kernel visits stored positions in ascending column order — the CSR
//! entry order. Fill positions contribute `acc += 0.0 · x[c]`. Because
//! every accumulator starts at `+0.0` and IEEE-754 round-to-nearest
//! addition of `±0.0` to any finite value (including `+0.0`; a sum that
//! is exactly zero rounds to `+0.0`) returns that value bitwise
//! unchanged, the fill terms are identities and the result is
//! bit-identical to [`CsrMatrix::matvec_into`] for finite matrix and
//! vector data.

use crate::csr::CsrMatrix;
use crate::error::{SparseError, SparseResult};
use crate::threads::{self, SharedMutSlice};

/// Default square block size (3 dof/node elasticity-style assembly).
pub const DEFAULT_BLOCK: usize = 3;

/// Hard cap on either block dimension: tiles stay cache-resident and
/// conversion scratch stays trivial.
pub const MAX_BLOCK: usize = 16;

/// Minimum (scalar) row count before the threaded kernels dispatch to
/// the pool (same rationale and value as the CSR threshold).
const PAR_SPMV_MIN_ROWS: usize = 2048;

/// Slot marker for fill positions in the `src_idx` map.
const FILL: usize = usize::MAX;

/// A sparse matrix stored as dense `br×bc` blocks over a CSR block
/// skeleton. Built from (and convertible back to) [`CsrMatrix`]; the
/// source's explicit zeros are preserved and fill is dropped on the way
/// back via the `src_idx` map.
#[derive(Debug, Clone, PartialEq)]
pub struct BcsrMatrix {
    rows: usize,
    cols: usize,
    /// Block height, `1..=MAX_BLOCK`.
    br: usize,
    /// Block width, `1..=MAX_BLOCK`.
    bc: usize,
    /// Block offset of each block row; `mb + 1` entries where
    /// `mb = ceil(rows / br)`.
    block_ptr: Vec<usize>,
    /// Block-column index per stored block, ascending within a block row.
    block_cols: Vec<usize>,
    /// Dense row-major `br×bc` tile per stored block.
    blocks: Vec<f64>,
    /// CSR nnz index per tile slot, [`FILL`] for fill.
    src_idx: Vec<usize>,
    /// Real (non-fill) stored entries.
    nnz: usize,
}

impl BcsrMatrix {
    /// Convert a CSR matrix using the default square block size.
    pub fn from_csr(a: &CsrMatrix) -> BcsrMatrix {
        BcsrMatrix::from_csr_with(a, DEFAULT_BLOCK, DEFAULT_BLOCK)
    }

    /// Convert a CSR matrix with explicit block dimensions (each clamped
    /// to `1..=MAX_BLOCK`). Any matrix converts — sparse blocks are
    /// zero-filled — but the payoff needs mostly-full blocks; see
    /// [`crate::autotune`] for the detection scan.
    pub fn from_csr_with(a: &CsrMatrix, br: usize, bc: usize) -> BcsrMatrix {
        let rows = a.rows();
        let cols = a.cols();
        let br = br.clamp(1, MAX_BLOCK);
        let bc = bc.clamp(1, MAX_BLOCK);
        let mb = rows.div_ceil(br);
        let nb = cols.div_ceil(bc);
        let row_ptr = a.row_ptr();
        let (a_cols, a_vals) = (a.col_idx(), a.values());

        // Pass 1: the block skeleton (sorted unique block cols per block
        // row), via a stamp array so each block row is linear in its nnz.
        let mut block_ptr = vec![0usize; mb + 1];
        let mut block_cols: Vec<usize> = Vec::new();
        let mut stamp = vec![usize::MAX; nb];
        for bi in 0..mb {
            let first = block_cols.len();
            for r in bi * br..((bi + 1) * br).min(rows) {
                for &c in &a_cols[row_ptr[r]..row_ptr[r + 1]] {
                    let bcol = c / bc;
                    if stamp[bcol] != bi {
                        stamp[bcol] = bi;
                        block_cols.push(bcol);
                    }
                }
            }
            block_cols[first..].sort_unstable();
            block_ptr[bi + 1] = block_cols.len();
        }

        // Pass 2: scatter entries into their tiles. `slot_of[bcol]` maps
        // a block column to its block index within the current block row.
        let tile = br * bc;
        let mut blocks = vec![0.0f64; block_cols.len() * tile];
        let mut src_idx = vec![FILL; block_cols.len() * tile];
        let mut slot_of = vec![0usize; nb];
        for bi in 0..mb {
            for k in block_ptr[bi]..block_ptr[bi + 1] {
                slot_of[block_cols[k]] = k;
            }
            for r in bi * br..((bi + 1) * br).min(rows) {
                let ii = r - bi * br;
                for p in row_ptr[r]..row_ptr[r + 1] {
                    let c = a_cols[p];
                    let k = slot_of[c / bc];
                    let slot = k * tile + ii * bc + (c % bc);
                    blocks[slot] = a_vals[p];
                    src_idx[slot] = p;
                }
            }
        }

        BcsrMatrix {
            rows,
            cols,
            br,
            bc,
            block_ptr,
            block_cols,
            blocks,
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

    /// Real stored entries (excluding fill).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Block dimensions `(br, bc)`.
    pub fn block_shape(&self) -> (usize, usize) {
        (self.br, self.bc)
    }

    /// Number of stored blocks.
    pub fn n_blocks(&self) -> usize {
        self.block_cols.len()
    }

    /// Real entries / stored tile slots — 1.0 means every block is full.
    pub fn fill_ratio(&self) -> f64 {
        if self.block_cols.is_empty() {
            return 1.0;
        }
        self.nnz as f64 / (self.block_cols.len() * self.br * self.bc) as f64
    }

    /// Number of block rows.
    fn mb(&self) -> usize {
        self.block_ptr.len() - 1
    }

    /// Reconstruct the exact CSR source (pattern, values, explicit
    /// zeros; fill positions are dropped via the `src_idx` map).
    pub fn to_csr(&self) -> CsrMatrix {
        let tile = self.br * self.bc;
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = vec![0usize; self.nnz];
        let mut values = vec![0.0f64; self.nnz];
        // Two passes over the tiles: count row lengths, then fill.
        for bi in 0..self.mb() {
            let r0 = bi * self.br;
            let rh = self.br.min(self.rows - r0);
            for k in self.block_ptr[bi]..self.block_ptr[bi + 1] {
                for ii in 0..rh {
                    for jj in 0..self.bc {
                        if self.src_idx[k * tile + ii * self.bc + jj] != FILL {
                            row_ptr[r0 + ii + 1] += 1;
                        }
                    }
                }
            }
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut next = row_ptr.clone();
        for bi in 0..self.mb() {
            let r0 = bi * self.br;
            let rh = self.br.min(self.rows - r0);
            // Ascending block cols then ascending jj = ascending columns.
            for k in self.block_ptr[bi]..self.block_ptr[bi + 1] {
                let c0 = self.block_cols[k] * self.bc;
                for ii in 0..rh {
                    for jj in 0..self.bc {
                        let slot = k * tile + ii * self.bc + jj;
                        if self.src_idx[slot] != FILL {
                            let dst = next[r0 + ii];
                            next[r0 + ii] += 1;
                            col_idx[dst] = c0 + jj;
                            values[dst] = self.blocks[slot];
                        }
                    }
                }
            }
        }
        CsrMatrix::from_parts(self.rows, self.cols, row_ptr, col_idx, values)
            .expect("BCSR round-trip preserves CSR invariants")
    }

    /// Re-read values from the CSR matrix this was converted from (same
    /// pattern, possibly new values) — O(tile slots), no re-conversion.
    pub fn refresh_values(&mut self, a: &CsrMatrix) -> SparseResult<()> {
        self.refresh_from(a.values())
    }

    /// [`Self::refresh_values`] from the bare value array of that matrix.
    pub(crate) fn refresh_from(&mut self, vals: &[f64]) -> SparseResult<()> {
        if vals.len() != self.nnz {
            return Err(SparseError::LengthMismatch {
                what: "BCSR refresh values",
                expected: self.nnz,
                got: vals.len(),
            });
        }
        for (slot, &src) in self.src_idx.iter().enumerate() {
            if src != FILL {
                self.blocks[slot] = vals[src];
            }
        }
        Ok(())
    }

    /// The block-row-range SpMV kernel: computes every scalar row of
    /// block rows `b0..b1` and writes each result to `y[map(row)]`
    /// (identity map when `scatter` is `None`). See the module docs for
    /// why the fill arithmetic keeps results bit-identical to CSR.
    ///
    /// Caller guarantees: disjoint block-row ranges touch disjoint rows,
    /// so concurrent calls write disjoint `y` elements (scatter maps
    /// must be injective).
    pub(crate) fn spmv_block_rows(
        &self,
        b0: usize,
        b1: usize,
        x: &[f64],
        y: &SharedMutSlice<'_>,
        scatter: Option<&[usize]>,
    ) {
        // Monomorphized kernels for the block sizes the autotuner picks
        // ([`crate::autotune::BLOCK_CANDIDATES`]): constant tile
        // dimensions let the inner loops unroll completely.
        match (self.br, self.bc) {
            (2, 2) => self.spmv_block_rows_fixed::<2, 2>(b0, b1, x, y, scatter),
            (3, 3) => self.spmv_block_rows_fixed::<3, 3>(b0, b1, x, y, scatter),
            (4, 4) => self.spmv_block_rows_fixed::<4, 4>(b0, b1, x, y, scatter),
            _ => self.spmv_block_rows_generic(b0, b1, x, y, scatter),
        }
    }

    /// Fixed-size kernel: `BR`/`BC` must equal `self.br`/`self.bc`.
    /// Full blocks take an unrolled path; the ragged bottom/right edges
    /// fall through to scalar loops with the same visit order.
    fn spmv_block_rows_fixed<const BR: usize, const BC: usize>(
        &self,
        b0: usize,
        b1: usize,
        x: &[f64],
        y: &SharedMutSlice<'_>,
        scatter: Option<&[usize]>,
    ) {
        debug_assert_eq!((self.br, self.bc), (BR, BC));
        let bptr = &self.block_ptr;
        let bcols = &self.block_cols;
        let blocks = &self.blocks;
        for bi in b0..b1 {
            let r0 = bi * BR;
            let rh = BR.min(self.rows - r0);
            let mut acc = [0.0f64; BR];
            let (ks, ke) = (bptr[bi], bptr[bi + 1]);
            let tiles = blocks[ks * (BR * BC)..ke * (BR * BC)].chunks_exact(BR * BC);
            for (&bcol, tile) in bcols[ks..ke].iter().zip(tiles) {
                let c0 = bcol * BC;
                if c0 + BC <= self.cols {
                    let xs: &[f64; BC] =
                        x[c0..c0 + BC].try_into().expect("width checked");
                    for (ii, a) in acc.iter_mut().enumerate().take(rh) {
                        let mut s = *a;
                        for jj in 0..BC {
                            s += tile[ii * BC + jj] * xs[jj];
                        }
                        *a = s;
                    }
                } else {
                    // Ragged right edge: clamp the block width.
                    let w = self.cols - c0;
                    for (ii, a) in acc.iter_mut().enumerate().take(rh) {
                        let mut s = *a;
                        for jj in 0..w {
                            s += tile[ii * BC + jj] * x[c0 + jj];
                        }
                        *a = s;
                    }
                }
            }
            for (ii, &a) in acc.iter().enumerate().take(rh) {
                let row = r0 + ii;
                let idx = match scatter {
                    Some(map) => map[row],
                    None => row,
                };
                // SAFETY: disjoint block-row ranges → disjoint rows →
                // disjoint (injectively mapped) output elements.
                unsafe { y.set(idx, a) };
            }
        }
    }

    /// Arbitrary-block-size kernel, same visit order as the fixed one.
    fn spmv_block_rows_generic(
        &self,
        b0: usize,
        b1: usize,
        x: &[f64],
        y: &SharedMutSlice<'_>,
        scatter: Option<&[usize]>,
    ) {
        let tile = self.br * self.bc;
        let bptr = &self.block_ptr;
        let bcols = &self.block_cols;
        let blocks = &self.blocks;
        for bi in b0..b1 {
            let r0 = bi * self.br;
            let rh = self.br.min(self.rows - r0);
            for ii in 0..rh {
                let mut acc = 0.0f64;
                let (ks, ke) = (bptr[bi], bptr[bi + 1]);
                for (k, &bcol) in bcols[ks..ke].iter().enumerate().map(|(d, b)| (ks + d, b)) {
                    let c0 = bcol * self.bc;
                    let w = self.bc.min(self.cols - c0);
                    let base = k * tile + ii * self.bc;
                    for jj in 0..w {
                        acc += blocks[base + jj] * x[c0 + jj];
                    }
                }
                let row = r0 + ii;
                let idx = match scatter {
                    Some(map) => map[row],
                    None => row,
                };
                // SAFETY: as in the fixed kernel.
                unsafe { y.set(idx, acc) };
            }
        }
    }

    /// y = A·x into a caller-provided buffer (serial, no allocation).
    /// Bit-identical to [`CsrMatrix::matvec_into`] for finite data.
    #[inline]
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(y.len(), self.rows);
        let ys = SharedMutSlice::new(y);
        self.spmv_block_rows(0, self.mb(), x, &ys, None);
    }

    /// y = A·x with an explicit thread count, splitting block rows into
    /// one contiguous chunk per thread — allocation-free, bit-identical
    /// to the serial kernel at any `threads` value.
    pub fn matvec_threaded_into(&self, x: &[f64], y: &mut [f64], threads: usize) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(y.len(), self.rows);
        let ys = SharedMutSlice::new(y);
        if threads > 1 && self.rows >= PAR_SPMV_MIN_ROWS {
            threads::for_each_chunk(self.mb(), threads, |b0, b1| {
                self.spmv_block_rows(b0, b1, x, &ys, None);
            });
        } else {
            self.spmv_block_rows(0, self.mb(), x, &ys, None);
        }
    }

    /// y = A·x over the rank-local thread pool ([`threads::active`]
    /// threads), into a caller-provided buffer — the BCSR counterpart of
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

    /// Scatter SpMV for the distributed split kernels: scalar row `r`
    /// writes `y[rows_map[r]]`. `rows_map` must be injective. Threaded
    /// over block rows when warranted; bit-identical either way.
    pub(crate) fn spmv_scatter(
        &self,
        rows_map: &[usize],
        x: &[f64],
        y: &SharedMutSlice<'_>,
        threads: usize,
    ) {
        debug_assert_eq!(rows_map.len(), self.rows);
        if threads > 1 && self.rows >= PAR_SPMV_MIN_ROWS {
            threads::for_each_chunk(self.mb(), threads, |b0, b1| {
                self.spmv_block_rows(b0, b1, x, y, Some(rows_map));
            });
        } else {
            self.spmv_block_rows(0, self.mb(), x, y, Some(rows_map));
        }
    }

    /// Multi-vector block-row-range kernel: every scalar row of block
    /// rows `b0..b1` against `k` input columns (column `q` at
    /// `xs[q·x_stride..]`), each result written to
    /// `y[q·y_stride + map(row)]`. The tiles are swept once per group of
    /// [`crate::csr::MULTI_CHUNK`] columns; each column visits stored
    /// (and fill) positions in exactly the single-vector kernel's order,
    /// so per-column results are bit-identical for finite data.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spmv_block_rows_multi(
        &self,
        b0: usize,
        b1: usize,
        xs: &[f64],
        x_stride: usize,
        y: &SharedMutSlice<'_>,
        y_stride: usize,
        k: usize,
        scatter: Option<&[usize]>,
    ) {
        use crate::csr::MULTI_CHUNK;
        let tile = self.br * self.bc;
        let bptr = &self.block_ptr;
        let bcols = &self.block_cols;
        let blocks = &self.blocks;
        let mut q0 = 0;
        while q0 < k {
            let kc = (k - q0).min(MULTI_CHUNK);
            for bi in b0..b1 {
                let r0 = bi * self.br;
                let rh = self.br.min(self.rows - r0);
                for ii in 0..rh {
                    let mut acc = [0.0f64; MULTI_CHUNK];
                    let (ks, ke) = (bptr[bi], bptr[bi + 1]);
                    for (kb, &bcol) in
                        bcols[ks..ke].iter().enumerate().map(|(d, b)| (ks + d, b))
                    {
                        let c0 = bcol * self.bc;
                        let w = self.bc.min(self.cols - c0);
                        let base = kb * tile + ii * self.bc;
                        for jj in 0..w {
                            let v = blocks[base + jj];
                            let col = c0 + jj;
                            for (q, a) in acc.iter_mut().enumerate().take(kc) {
                                *a += v * xs[(q0 + q) * x_stride + col];
                            }
                        }
                    }
                    let row = r0 + ii;
                    let idx = match scatter {
                        Some(map) => map[row],
                        None => row,
                    };
                    for (q, &a) in acc.iter().enumerate().take(kc) {
                        // SAFETY: disjoint block-row ranges → disjoint
                        // rows → disjoint (injectively mapped) output
                        // elements, one per column segment.
                        unsafe { y.set((q0 + q) * y_stride + idx, a) };
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
            for (br, bc) in [(1, 1), (2, 2), (3, 3), (4, 2), (16, 16)] {
                let b = BcsrMatrix::from_csr_with(&a, br, bc);
                assert_eq!(b.to_csr(), a, "br={br} bc={bc}");
                assert_eq!(b.nnz(), a.nnz());
            }
        }
    }

    #[test]
    fn fem_blocks_are_detected_full() {
        let a = generate::fem_block(5, 3, 9);
        let b = BcsrMatrix::from_csr(&a);
        assert_eq!(b.block_shape(), (3, 3));
        assert!((b.fill_ratio() - 1.0).abs() < 1e-12, "fill {}", b.fill_ratio());
        assert_eq!(b.n_blocks() * 9, a.nnz());
        assert_eq!(b.to_csr(), a);
    }

    #[test]
    fn matvec_bit_identical_to_csr() {
        let cases = [
            generate::fem_block(12, 3, 3), // 432 rows, full 3×3 blocks
            generate::random_diag_dominant(1000, 7, 17),
            generate::laplacian_2d(50), // 2500 rows, threaded path
        ];
        for a in &cases {
            let n = a.rows();
            let x = generate::random_vector(n, 123);
            let mut y_csr = vec![0.0; n];
            a.matvec_into(&x, &mut y_csr);
            for (br, bc) in [(3, 3), (2, 4), (1, 1)] {
                let b = BcsrMatrix::from_csr_with(a, br, bc);
                let mut y = vec![0.0; n];
                b.matvec_into(&x, &mut y);
                assert_bits_equal(&y, &y_csr);
                for threads in [1usize, 2, 4, 8] {
                    y.fill(f64::NAN);
                    b.matvec_threaded_into(&x, &mut y, threads);
                    assert_bits_equal(&y, &y_csr);
                }
            }
        }
    }

    #[test]
    fn refresh_values_tracks_csr_updates() {
        let mut a = generate::fem_block(6, 2, 31);
        let mut b = BcsrMatrix::from_csr_with(&a, 2, 2);
        for v in a.values_mut() {
            *v += 0.25;
        }
        b.refresh_values(&a).unwrap();
        assert_eq!(b.to_csr(), a);
        let bad = generate::random_csr(10, a.cols(), 0.05, 5);
        assert!(b.refresh_values(&bad).is_err());
    }

    #[test]
    fn ragged_edges_clamp_block_width() {
        // 7×5 with 3×3 blocks: bottom and right blocks are partial.
        let a = generate::random_csr(7, 5, 0.5, 99);
        let b = BcsrMatrix::from_csr_with(&a, 3, 3);
        assert_eq!(b.to_csr(), a);
        let x = generate::random_vector(5, 1);
        assert_bits_equal(&b.matvec(&x).unwrap(), &a.matvec(&x).unwrap());
    }
}
