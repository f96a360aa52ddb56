//! Compact storage for the interior/boundary pieces of a distributed
//! matrix's local rows — the only copy the split matvec reads.
//!
//! A piece stores each of its rows as "owned entries then ghost entries"
//! (see [`crate::dist`]) with two small index spaces instead of one wide
//! one: an owned entry's column is its offset into this rank's chunk of
//! `x`, a ghost entry's column is its ghost slot. Both fit a `u32` (12
//! bytes per stored entry instead of 16), and the two halves of a row read
//! from two different slices — `x` itself and the ghost slots — so no
//! ghost-extended copy of `x` is ever staged.
//!
//! Every index is checked **once**, when the piece is built
//! ([`CompactRows::new`]); the kernels then check only the two slice
//! lengths per call and gather unchecked in release builds
//! (`debug_assert!`-checked in debug builds).

use crate::csr::{CsrMatrix, MULTI_CHUNK};
use crate::error::{SparseError, SparseResult};
use crate::threads::{self, SharedMutSlice};

/// Minimum row count before a piece's kernels dispatch to the thread
/// pool; below this the synchronization outweighs the row work.
const PAR_SCATTER_MIN_ROWS: usize = 2048;

/// The compact pieces index `n_local` owned columns and `n_ghosts` ghost
/// slots with `u32`s; a rank whose renumbered column space is wider cannot
/// be planned.
pub(crate) fn check_index_space(n_local: usize, n_ghosts: usize) -> SparseResult<()> {
    let bound = u32::MAX as usize + 1;
    match n_local.checked_add(n_ghosts) {
        Some(width) if width < bound => Ok(()),
        _ => Err(SparseError::IndexOutOfBounds {
            axis: "renumbered local column",
            index: n_local.saturating_add(n_ghosts).saturating_sub(1),
            bound,
        }),
    }
}

/// One piece (interior or boundary) of the split local rows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompactRows {
    /// Local row index of each stored row, ascending — where row `i`'s
    /// result is written.
    rows: Vec<usize>,
    /// `rows.len() + 1` offsets into `cols`/`vals`.
    row_ptr: Vec<usize>,
    /// Per row, where its ghost entries start (`row_ptr[i] ≤ ghost_ptr[i]
    /// ≤ row_ptr[i + 1]`). Empty for a piece with no ghost entries at all
    /// (the interior piece): every entry is owned.
    ghost_ptr: Vec<usize>,
    /// Owned entries: offset into the local chunk (`< n_local`); ghost
    /// entries: ghost slot (`< n_ghosts`).
    cols: Vec<u32>,
    vals: Vec<f64>,
    /// Length of the owned index space (`x.len()` at every call).
    n_local: usize,
    /// Length of the ghost index space (`ghosts.len()` at every call).
    n_ghosts: usize,
}

impl CompactRows {
    /// Assemble a piece and check every index it holds, once: pointer
    /// monotonicity, `ghost_ptr` inside its row, owned columns below
    /// `n_local`, ghost columns below `n_ghosts`, unique in-range target
    /// rows. The unchecked gathers in the kernels rest on this pass.
    ///
    /// # Panics
    /// Panics on any violation — the arrays are built by this crate, so a
    /// failure is a bug in the plan build, not bad user input.
    pub(crate) fn new(
        rows: Vec<usize>,
        row_ptr: Vec<usize>,
        ghost_ptr: Vec<usize>,
        cols: Vec<u32>,
        vals: Vec<f64>,
        n_local: usize,
        n_ghosts: usize,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows.len() + 1);
        assert_eq!(row_ptr[0], 0);
        assert_eq!(row_ptr[rows.len()], cols.len());
        assert_eq!(cols.len(), vals.len());
        assert!(ghost_ptr.is_empty() || ghost_ptr.len() == rows.len());
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "target rows must ascend"
        );
        assert!(rows.last().is_none_or(|&r| r < n_local));
        for i in 0..rows.len() {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            let mid = ghost_ptr.get(i).copied().unwrap_or(hi);
            assert!(lo <= mid && mid <= hi, "row {i}: pointers out of order");
            assert!(cols[lo..mid].iter().all(|&c| (c as usize) < n_local));
            assert!(cols[mid..hi].iter().all(|&c| (c as usize) < n_ghosts));
        }
        CompactRows {
            rows,
            row_ptr,
            ghost_ptr,
            cols,
            vals,
            n_local,
            n_ghosts,
        }
    }

    /// Local row index of each stored row (the scatter map the
    /// format-converted kernels share).
    pub(crate) fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Stored entries.
    pub(crate) fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The stored values, rows in order, each "owned then ghost".
    pub(crate) fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable values (same-pattern value updates).
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// The piece as a CSR matrix over the ghost-extended column space
    /// `[owned, ghosts]` (ghost slot `g` ↦ column `n_local + g`; just
    /// `[owned]` for a piece without ghost entries) — what the SELL /
    /// block-CSR conversions take as input. Entry order, and so the value
    /// order, is unchanged.
    pub(crate) fn to_csr(&self) -> CsrMatrix {
        let width = if self.ghost_ptr.is_empty() {
            self.n_local
        } else {
            self.n_local + self.n_ghosts
        };
        let mut col_idx = Vec::with_capacity(self.cols.len());
        for i in 0..self.rows.len() {
            let (lo, mid, hi) = self.row_bounds(i);
            col_idx.extend(self.cols[lo..mid].iter().map(|&c| c as usize));
            col_idx.extend(
                self.cols[mid..hi]
                    .iter()
                    .map(|&c| self.n_local + c as usize),
            );
        }
        CsrMatrix::from_parts_unchecked(
            self.rows.len(),
            width,
            self.row_ptr.clone(),
            col_idx,
            self.vals.clone(),
        )
    }

    /// `(start, first ghost entry, end)` of row `i`.
    #[inline(always)]
    fn row_bounds(&self, i: usize) -> (usize, usize, usize) {
        debug_assert!(i < self.rows.len());
        // SAFETY: `i < rows.len()` (callers iterate `0..rows.len()`), and
        // `new` checked `row_ptr.len() == rows.len() + 1` and
        // `ghost_ptr.len() ∈ {0, rows.len()}`.
        unsafe {
            let hi = *self.row_ptr.get_unchecked(i + 1);
            let mid = if self.ghost_ptr.is_empty() {
                hi
            } else {
                *self.ghost_ptr.get_unchecked(i)
            };
            (*self.row_ptr.get_unchecked(i), mid, hi)
        }
    }

    /// `acc + Σ vals[k]·src[cols[k]]` over entries `lo..hi`, in entry
    /// order.
    #[inline(always)]
    fn gather(&self, lo: usize, hi: usize, src: &[f64], mut acc: f64) -> f64 {
        debug_assert!(lo <= hi && hi <= self.cols.len());
        for k in lo..hi {
            // SAFETY: `new` checked `lo..hi` lies inside `cols`/`vals` and
            // that every column of this half-row is below the length the
            // kernel entry point checked `src` to have.
            unsafe {
                let c = *self.cols.get_unchecked(k) as usize;
                debug_assert!(c < src.len());
                acc += self.vals.get_unchecked(k) * src.get_unchecked(c);
            }
        }
        acc
    }

    /// `y[rows[i]] = row i · [x, ghosts]` for every stored row: the owned
    /// half of a row reads `x`, the ghost half reads `ghosts`, one
    /// accumulator from `+0.0` through both in entry order. Threaded over
    /// contiguous chunks of the row list when `threads` and the row count
    /// warrant it; target rows are unique, so chunks write disjoint
    /// elements and the result is bit-identical at any thread count.
    pub(crate) fn spmv(&self, x: &[f64], ghosts: &[f64], y: &mut [f64], threads: usize) {
        assert_eq!(x.len(), self.n_local);
        assert_eq!(y.len(), self.n_local);
        assert!(self.ghost_ptr.is_empty() || ghosts.len() == self.n_ghosts);
        let ys = SharedMutSlice::new(y);
        let scatter = |i0: usize, i1: usize| {
            for i in i0..i1 {
                let (lo, mid, hi) = self.row_bounds(i);
                let acc = self.gather(mid, hi, ghosts, self.gather(lo, mid, x, 0.0));
                // SAFETY: `new` checked the target rows are unique and
                // below `n_local == y.len()`; chunks are disjoint.
                unsafe { ys.set(*self.rows.get_unchecked(i), acc) };
            }
        };
        if threads > 1 && self.rows.len() >= PAR_SCATTER_MIN_ROWS {
            threads::for_each_chunk(self.rows.len(), threads, scatter);
        } else {
            scatter(0, self.rows.len());
        }
    }

    /// `acc[l] += Σ vals[k]·src[l·stride + cols[k]]` over entries `lo..hi`,
    /// in entry order, for each of `acc`'s columns (bounds-checked).
    #[inline(always)]
    fn gather_multi(&self, lo: usize, hi: usize, src: &[f64], stride: usize, acc: &mut [f64]) {
        for (&c, &v) in self.cols[lo..hi].iter().zip(&self.vals[lo..hi]) {
            for (l, al) in acc.iter_mut().enumerate() {
                *al += v * src[c as usize + l * stride];
            }
        }
    }

    /// Multi-vector [`Self::spmv`]: `y[q·n_local + rows[i]] = row i ·
    /// [xs_q, ghosts_q]` for `k` columns (`xs_q` at `xs[q·n_local..]`,
    /// `ghosts_q` at `ghosts[q·ghost_stride..]`). One sweep over the piece per
    /// [`MULTI_CHUNK`]-column group; each column accumulates in exactly
    /// [`Self::spmv`]'s entry order from `+0.0`, so every column is
    /// bit-identical to the single-vector kernel at any thread count.
    pub(crate) fn spmv_multi(
        &self,
        xs: &[f64],
        ghosts: &[f64],
        ghost_stride: usize,
        ys: &SharedMutSlice<'_>,
        k: usize,
        threads: usize,
    ) {
        assert_eq!(xs.len(), k * self.n_local);
        assert_eq!(ys.len(), k * self.n_local);
        let scatter = |i0: usize, i1: usize| {
            for i in i0..i1 {
                let (lo, mid, hi) = self.row_bounds(i);
                let mut q0 = 0;
                while q0 < k {
                    let w = (k - q0).min(MULTI_CHUNK);
                    let (xq, gq) = (&xs[q0 * self.n_local..], &ghosts[q0 * ghost_stride..]);
                    let mut acc = [0.0f64; MULTI_CHUNK];
                    // A full group gets its width as a constant: eight
                    // accumulators in registers instead of a counted loop.
                    if w == MULTI_CHUNK {
                        self.gather_multi(lo, mid, xq, self.n_local, &mut acc);
                        self.gather_multi(mid, hi, gq, ghost_stride, &mut acc);
                    } else {
                        self.gather_multi(lo, mid, xq, self.n_local, &mut acc[..w]);
                        self.gather_multi(mid, hi, gq, ghost_stride, &mut acc[..w]);
                    }
                    for (l, &v) in acc[..w].iter().enumerate() {
                        // SAFETY: unique in-range target rows, disjoint
                        // chunks: each (column, row) has one writer.
                        unsafe { ys.set((q0 + l) * self.n_local + self.rows[i], v) };
                    }
                    q0 += MULTI_CHUNK;
                }
            }
        };
        if threads > 1 && self.rows.len() >= PAR_SCATTER_MIN_ROWS {
            threads::for_each_chunk(self.rows.len(), threads, scatter);
        } else {
            scatter(0, self.rows.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows 0 and 2 of a 3-row chunk with 2 ghost slots:
    /// row 0 = 2·x0 + 3·x2 | 5·g1, row 2 = 7·x1 | 11·g0 + 13·g1.
    fn piece() -> CompactRows {
        CompactRows::new(
            vec![0, 2],
            vec![0, 3, 6],
            vec![2, 4],
            vec![0, 2, 1, 1, 0, 1],
            vec![2.0, 3.0, 5.0, 7.0, 11.0, 13.0],
            3,
            2,
        )
    }

    #[test]
    fn halves_read_their_own_slices() {
        let p = piece();
        let (x, g) = ([1.0, 10.0, 100.0], [0.5, 0.25]);
        let mut y = [-1.0; 3];
        p.spmv(&x, &g, &mut y, 1);
        assert_eq!(y, [2.0 + 300.0 + 1.25, -1.0, 70.0 + 5.5 + 3.25]);
        // The ghost-extended CSR view is the same operator.
        let ext = [1.0, 10.0, 100.0, 0.5, 0.25];
        assert_eq!(p.to_csr().matvec(&ext).unwrap(), vec![y[0], y[2]]);
        assert_eq!(p.to_csr().values(), p.values());
    }

    #[test]
    fn multi_columns_match_single_bitwise() {
        let p = piece();
        let k = MULTI_CHUNK + 3;
        let xs: Vec<f64> = (0..k * 3).map(|i| (i as f64 * 0.37).sin()).collect();
        let gs: Vec<f64> = (0..k * 2).map(|i| (i as f64 * 0.91).cos()).collect();
        let mut ys = vec![0.0; k * 3];
        p.spmv_multi(&xs, &gs, 2, &SharedMutSlice::new(&mut ys), k, 1);
        for q in 0..k {
            let mut y = [0.0; 3];
            p.spmv(&xs[q * 3..(q + 1) * 3], &gs[q * 2..(q + 1) * 2], &mut y, 1);
            for r in [0, 2] {
                assert_eq!(
                    ys[q * 3 + r].to_bits(),
                    y[r].to_bits(),
                    "column {q} row {r}"
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn an_owned_column_past_the_chunk_is_caught_at_build() {
        CompactRows::new(vec![0], vec![0, 1], vec![], vec![3], vec![1.0], 3, 0);
    }

    #[test]
    #[should_panic]
    fn a_ghost_slot_past_the_plan_is_caught_at_build() {
        CompactRows::new(vec![0], vec![0, 1], vec![0], vec![2], vec![1.0], 3, 2);
    }

    #[test]
    fn index_space_limit_is_a_typed_error() {
        assert!(check_index_space(0, 0).is_ok());
        assert!(check_index_space(u32::MAX as usize, 0).is_ok());
        assert!(check_index_space(1 << 31, (1 << 31) - 1).is_ok());
        for (n, g) in [
            (u32::MAX as usize + 1, 0),
            (1 << 31, 1 << 31),
            (usize::MAX, 2),
        ] {
            assert!(matches!(
                check_index_space(n, g),
                Err(SparseError::IndexOutOfBounds {
                    axis: "renumbered local column",
                    ..
                })
            ));
        }
    }
}
