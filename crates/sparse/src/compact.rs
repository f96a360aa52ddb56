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
//!
//! Interior rows whose pattern is the previous row's shifted by one — the
//! bulk of any stencil matrix — store no column indices at all: they are
//! cut into [`StencilRuns`] by [`split_interior`], and only the rest of the
//! interior rows goes to a [`CompactRows`].

use std::ops::Range;

use crate::csr::{CsrMatrix, MULTI_CHUNK};
use crate::error::{SparseError, SparseResult};
use crate::lanes::{lane_kernel, Isa, Lanes, LANES};

/// Fewest consecutive rows stored as a stencil run. A run pays `k` slice
/// set-ups before its first row, so a shorter one is cheaper left in the
/// compact remainder.
const MIN_RUN_ROWS: usize = 16;

/// Most diagonals one pass over a run accumulates (the widths the run
/// kernel is instantiated for); a wider run takes several passes.
const MAX_FUSED_DIAGS: usize = 8;

/// Rows of a run the multi-vector kernel takes through all its columns
/// before moving on, so that a long run's diagonals are read from memory
/// once, not once per column.
const MULTI_TILE_ROWS: usize = 256;

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
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "target rows must ascend");
        assert!(rows.last().is_none_or(|&r| r < n_local));
        for i in 0..rows.len() {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            let mid = ghost_ptr.get(i).copied().unwrap_or(hi);
            assert!(lo <= mid && mid <= hi, "row {i}: pointers out of order");
            assert!(cols[lo..mid].iter().all(|&c| (c as usize) < n_local));
            assert!(cols[mid..hi].iter().all(|&c| (c as usize) < n_ghosts));
        }
        CompactRows { rows, row_ptr, ghost_ptr, cols, vals, n_local, n_ghosts }
    }

    /// Local row index of each stored row.
    pub(crate) fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Stored entries.
    pub(crate) fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Re-read every stored row's values from `local` — the matrix this
    /// piece was cut from (global columns, `owned` the range this rank
    /// owns), with new values on the same pattern. A row's entries land
    /// "owned then ghost", each group in scan order, as at plan build.
    pub(crate) fn refresh_values(&mut self, local: &CsrMatrix, owned: &Range<usize>) {
        for i in 0..self.rows.len() {
            let (lo, mid, hi) = self.row_bounds(i);
            let (gcols, gvals) = local.row(self.rows[i]);
            assert_eq!(gcols.len(), hi - lo, "row {i}: pattern changed");
            let (mut o, mut g) = (lo, mid);
            for (c, &v) in gcols.iter().zip(gvals) {
                let at = if owned.contains(c) { &mut o } else { &mut g };
                self.vals[*at] = v;
                *at += 1;
            }
        }
    }

    /// `d[row] =` the stored value of each stored row's diagonal entry
    /// (owned column `row`); rows that store none are left alone. A row's
    /// owned columns ascend, so one binary search a row.
    pub(crate) fn diagonal_into(&self, d: &mut [f64]) {
        for (i, &row) in self.rows.iter().enumerate() {
            let (lo, mid, _) = self.row_bounds(i);
            if let Ok(k) = self.cols[lo..mid].binary_search_by(|&c| (c as usize).cmp(&row)) {
                d[row] = self.vals[lo + k];
            }
        }
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
            let mid = if self.ghost_ptr.is_empty() { hi } else { *self.ghost_ptr.get_unchecked(i) };
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
    /// accumulator from `+0.0` through both in entry order.
    pub(crate) fn spmv(&self, x: &[f64], ghosts: &[f64], y: &mut [f64]) {
        self.spmv_on(Isa::detect(), x, ghosts, y);
    }

    /// [`Self::spmv`] on instance `isa`.
    fn spmv_on(&self, isa: Isa, x: &[f64], ghosts: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_local);
        assert_eq!(y.len(), self.n_local);
        assert!(self.ghost_ptr.is_empty() || ghosts.len() == self.n_ghosts);
        compact_rows(isa, self, x, ghosts, y);
    }

    /// `acc[l] += Σ vals[k]·src[l·stride + cols[k]]` over entries `lo..hi`,
    /// in entry order, for each of `acc`'s columns.
    #[inline(always)]
    fn gather_multi(&self, lo: usize, hi: usize, src: &[f64], stride: usize, acc: &mut [f64]) {
        debug_assert!(lo <= hi && hi <= self.cols.len());
        for k in lo..hi {
            // SAFETY: `new` checked `lo..hi` lies inside `cols`/`vals` and
            // that every column of this half-row is below its index space's
            // length; `spmv_multi` checked `src` holds that many elements
            // past the start of each of `acc`'s columns.
            unsafe {
                let c = *self.cols.get_unchecked(k) as usize;
                let v = *self.vals.get_unchecked(k);
                for (l, al) in acc.iter_mut().enumerate() {
                    debug_assert!(c + l * stride < src.len());
                    *al += v * src.get_unchecked(c + l * stride);
                }
            }
        }
    }

    /// Multi-vector [`Self::spmv`]: `y[q·n_local + rows[i]] = row i ·
    /// [xs_q, ghosts_q]` for `k` columns (`xs_q` at `xs[q·n_local..]`,
    /// `ghosts_q` at `ghosts[q·ghost_stride..]`). One sweep over the piece per
    /// [`MULTI_CHUNK`]-column group; each column accumulates in exactly
    /// [`Self::spmv`]'s entry order from `+0.0`, so every column is
    /// bit-identical to the single-vector kernel.
    pub(crate) fn spmv_multi(
        &self,
        xs: &[f64],
        ghosts: &[f64],
        ghost_stride: usize,
        ys: &mut [f64],
        k: usize,
    ) {
        self.spmv_multi_on(Isa::detect(), xs, ghosts, ghost_stride, ys, k);
    }

    /// [`Self::spmv_multi`] on instance `isa`.
    fn spmv_multi_on(
        &self,
        isa: Isa,
        xs: &[f64],
        ghosts: &[f64],
        ghost_stride: usize,
        ys: &mut [f64],
        k: usize,
    ) {
        assert_eq!(xs.len(), k * self.n_local);
        assert_eq!(ys.len(), k * self.n_local);
        // Column `q`'s ghost slots are `ghosts[q·ghost_stride..][..n_ghosts]`.
        assert!(
            self.ghost_ptr.is_empty()
                || k == 0
                || ghosts.len() >= (k - 1) * ghost_stride + self.n_ghosts
        );
        compact_rows_multi(isa, self, xs, ghosts, ghost_stride, ys, k);
    }
}

lane_kernel! {
    /// Every stored row of `piece`: the body of [`CompactRows::spmv`]. Each
    /// row is one sum in entry order, so there are no lanes to fill; the
    /// instance only decides how the loop is compiled.
    fn compact_rows<L>(_l; piece: &CompactRows, x: &[f64], ghosts: &[f64], y: &mut [f64]) {
        for (i, &row) in piece.rows.iter().enumerate() {
            let (lo, mid, hi) = piece.row_bounds(i);
            y[row] = piece.gather(mid, hi, ghosts, piece.gather(lo, mid, x, 0.0));
        }
    }
}

lane_kernel! {
    /// Every stored row of `piece` for `k` columns: the body of
    /// [`CompactRows::spmv_multi`].
    fn compact_rows_multi<L>(
        _l;
        piece: &CompactRows,
        xs: &[f64],
        ghosts: &[f64],
        ghost_stride: usize,
        ys: &mut [f64],
        k: usize
    ) {
        let n = piece.n_local;
        for (i, &row) in piece.rows.iter().enumerate() {
            let (lo, mid, hi) = piece.row_bounds(i);
            let mut q0 = 0;
            while q0 < k {
                let w = (k - q0).min(MULTI_CHUNK);
                let (xq, gq) = (&xs[q0 * n..], &ghosts[q0 * ghost_stride..]);
                let mut acc = [0.0f64; MULTI_CHUNK];
                // A full group gets its width as a constant: eight
                // accumulators in registers instead of a counted loop.
                if w == MULTI_CHUNK {
                    piece.gather_multi(lo, mid, xq, n, &mut acc);
                    piece.gather_multi(mid, hi, gq, ghost_stride, &mut acc);
                } else {
                    piece.gather_multi(lo, mid, xq, n, &mut acc[..w]);
                    piece.gather_multi(mid, hi, gq, ghost_stride, &mut acc[..w]);
                }
                for (c, &v) in acc[..w].iter().enumerate() {
                    ys[(q0 + c) * n + row] = v;
                }
                q0 += MULTI_CHUNK;
            }
        }
    }
}

/// Whether a row with columns `cur` continues a stencil run from the row
/// above it with columns `prev`: the same entry count, and every entry one
/// column higher than the entry at the same position above.
fn continues_run(prev: &[usize], cur: &[usize]) -> bool {
    prev.len() == cur.len() && prev.iter().zip(cur).all(|(&p, &c)| c == p + 1)
}

/// The detection pass: walk `local`'s rows once, each compared with the
/// one above, and report every maximal sequence `rows.start..rows.end` of
/// `interior` rows that each continue the previous one to `sequence`, with
/// whether it is long enough — and non-empty — to be stored as a run; every
/// other row goes to `other`. Both are called in ascending row order.
fn scan_sequences(
    local: &CsrMatrix,
    interior: impl Fn(&[usize]) -> bool,
    mut sequence: impl FnMut(Range<usize>, bool),
    mut other: impl FnMut(usize),
) {
    let cols = |i: usize| local.row(i).0;
    let mut close = |rows: Range<usize>| {
        if !rows.is_empty() {
            let is_run = rows.len() >= MIN_RUN_ROWS && !cols(rows.start).is_empty();
            sequence(rows, is_run);
        }
    };
    // Rows `run0..i` are interior and each continues the one before.
    let mut run0 = 0;
    for i in 0..local.rows() {
        let is_interior = interior(cols(i));
        if is_interior && i > run0 && continues_run(cols(i - 1), cols(i)) {
            continue;
        }
        close(run0..i);
        run0 = i;
        if !is_interior {
            other(i);
            run0 = i + 1;
        }
    }
    close(run0..local.rows());
}

/// One stencil run: `len` consecutive local rows from `row0`, each with `k`
/// owned entries, entry `j` of row `row0 + t` in column `starts[j] + t`.
#[derive(Debug, Clone, PartialEq)]
struct Run {
    row0: usize,
    len: usize,
    k: usize,
    /// Where this run's `k` window starts begin in [`StencilRuns::starts`].
    start0: usize,
    /// Where this run's values begin in [`StencilRuns::vals`]: `k·len` of
    /// them, diagonal-major — or just `k` when the run is `constant`.
    /// Set by [`StencilRuns::fill_run`].
    val0: usize,
    /// Every row of the run carries the first row's `k` values, bit for
    /// bit: each diagonal is one number, stored once.
    constant: bool,
}

/// Interior rows stored as constant-offset diagonals, without column
/// indices.
///
/// A run is a sequence of consecutive rows in which every row's columns
/// are the previous row's plus one, so entry `j` of the run's rows walks a
/// contiguous window of `x`. The run stores, per entry position `j`, that
/// window's start and the `len` values down the rows — diagonal-major,
/// 8 bytes per stored entry. A run whose rows all carry the same `k`
/// values bit for bit — a constant-coefficient operator on a uniform grid,
/// found in the values when they are read, not declared — stores those `k`
/// values alone and streams nothing but `x` and `y`. The kernels accumulate
/// each row from `+0.0` through `j = 0, 1, …` — the row's stored entry
/// order, the same products from either storage — so they are
/// bit-identical to [`CompactRows::spmv`] on the same rows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StencilRuns {
    /// Ascending by `row0`, disjoint.
    runs: Vec<Run>,
    /// Per run, per entry position: the offset into `x` of that entry in
    /// the run's first row.
    starts: Vec<usize>,
    /// Per run, in run order: per entry position the `len` values down the
    /// run's rows, or the one value of a constant run. Laid out by
    /// [`Self::fill_run`].
    vals: Vec<f64>,
    /// Rows in all runs.
    n_rows: usize,
    /// `x.len()` and `y.len()` at every call.
    n_local: usize,
}

impl StencilRuns {
    /// No runs, over a chunk of `n_local` rows.
    pub(crate) fn new(n_local: usize) -> Self {
        StencilRuns { runs: Vec::new(), starts: Vec::new(), vals: Vec::new(), n_rows: 0, n_local }
    }

    /// Append the run of `len` rows from `row0` whose first row has its
    /// entries at offsets `starts` of `x`, without values ([`Self::fill_run`]
    /// stores them). Everything the kernels index into `x` and `y` is
    /// checked here, once: the rows follow the previous run's and stay
    /// inside the chunk, and every window `starts[j] .. starts[j] + len`
    /// stays inside `x`.
    ///
    /// # Panics
    /// Panics on any violation — a bug in the plan build, not bad input.
    fn push_run(&mut self, row0: usize, len: usize, starts: impl Iterator<Item = usize>) {
        let after_last = self.runs.last().map_or(0, |r| r.row0 + r.len);
        assert!(row0 >= after_last, "runs must ascend and not overlap");
        assert!(
            len > 0 && row0.checked_add(len).is_some_and(|end| end <= self.n_local),
            "run rows leave the chunk"
        );
        let start0 = self.starts.len();
        self.starts.extend(starts);
        let k = self.starts.len() - start0;
        assert!(
            self.starts[start0..].iter().all(|&s| s <= self.n_local - len),
            "a run's window leaves x"
        );
        self.runs.push(Run { row0, len, k, start0, val0: self.vals.len(), constant: false });
        self.n_rows += len;
    }

    /// Append run `r`'s values to `vals`, read from rows `row0..row0 + len`
    /// of `local`, the matrix it was detected in — the one place a run's
    /// values are read, so also where its class is decided: when every row
    /// repeats the first row's values bit for bit (`−0.0` is not `+0.0`,
    /// and two NaNs are equal only with equal payloads) the run is
    /// constant and keeps those `k` values; otherwise row `t`'s entry `j`
    /// goes to diagonal `j`, place `t`. Runs are filled in order, each
    /// once, onto a `vals` that held only the earlier runs' values.
    fn fill_run(&mut self, r: usize, local: &CsrMatrix) {
        let Run { row0, len, k, .. } = self.runs[r];
        let first = local.row(row0).1;
        let mut constant = true;
        for t in 0..len {
            let gvals = local.row(row0 + t).1;
            assert_eq!(gvals.len(), k, "run row {t}: pattern changed");
            constant = constant && gvals.iter().zip(first).all(|(v, f)| v.to_bits() == f.to_bits());
        }
        let val0 = self.vals.len();
        if constant {
            self.vals.extend_from_slice(first);
        } else {
            self.vals.resize(val0 + k * len, 0.0);
            let dst = &mut self.vals[val0..];
            for t in 0..len {
                for (j, &v) in local.row(row0 + t).1.iter().enumerate() {
                    dst[j * len + t] = v;
                }
            }
        }
        let run = &mut self.runs[r];
        run.val0 = val0;
        run.constant = constant;
    }

    /// Re-read every run's values from `local` (new values, same pattern).
    /// `vals` is laid out afresh: new values may make a varying run
    /// constant or a constant one vary.
    pub(crate) fn refresh_values(&mut self, local: &CsrMatrix) {
        self.vals.clear();
        for r in 0..self.runs.len() {
            self.fill_run(r, local);
        }
    }

    /// `d[row] =` the stored value of each run row's diagonal entry; rows
    /// of a run without one are left alone. Row `row0 + t`'s entry `j`
    /// sits in column `starts[j] + t`, so a run's diagonal is the one
    /// entry `j` with `starts[j] == row0`, in every row: one value for a
    /// constant run, `len` values down diagonal `j` otherwise.
    pub(crate) fn diagonal_into(&self, d: &mut [f64]) {
        for run in &self.runs {
            let starts = &self.starts[run.start0..run.start0 + run.k];
            let Some(j) = starts.iter().position(|&s| s == run.row0) else {
                continue;
            };
            let out = &mut d[run.row0..run.row0 + run.len];
            if run.constant {
                out.fill(self.vals[run.val0 + j]);
            } else {
                out.copy_from_slice(&self.vals[run.val0 + j * run.len..][..run.len]);
            }
        }
    }

    /// Rows stored in runs.
    pub(crate) fn row_count(&self) -> usize {
        self.n_rows
    }

    /// Rows stored in constant runs.
    pub(crate) fn constant_row_count(&self) -> usize {
        self.runs.iter().filter(|r| r.constant).map(|r| r.len).sum()
    }

    /// Entries the runs stand for, `Σ k·len` — the logical count the work
    /// model bills, whatever a constant run actually keeps.
    pub(crate) fn nnz(&self) -> usize {
        self.runs.iter().map(|r| r.k * r.len).sum()
    }

    /// Diagonal `j` of rows `t0..t0 + n` of `run` — `n` values, or the one
    /// value of a `CONSTANT` run — and the window of `x` it multiplies.
    #[inline(always)]
    fn diagonal<'a, const CONSTANT: bool>(
        &'a self,
        run: &Run,
        j: usize,
        t0: usize,
        n: usize,
        x: &'a [f64],
    ) -> (&'a [f64], &'a [f64]) {
        debug_assert_eq!(run.constant, CONSTANT);
        let diag = if CONSTANT {
            &self.vals[run.val0 + j..][..1]
        } else {
            &self.vals[run.val0 + j * run.len + t0..][..n]
        };
        (diag, &x[self.starts[run.start0 + j] + t0..][..n])
    }

    /// The first `G` diagonals of rows `t0..t0 + y.len()` of `run`:
    /// `y[t] = 0.0 + Σ_{j < G} diag_j[t]·x[starts[j] + t]`, `j` ascending,
    /// where a `CONSTANT` run's `diag_j[t]` is its one value `c_j` held in a
    /// register. `G` equal-length windows of `x` against `G` equal-length
    /// value slices or `G` numbers: no index is loaded, and eight rows at a
    /// time are one lane vector of `L` — row `t` in lane `t mod 8` of its
    /// group, the same products and adds as one row at a time. The last
    /// `y.len() mod 8` rows go one at a time.
    #[inline(always)]
    fn lead<L: Lanes, const G: usize, const CONSTANT: bool>(
        &self,
        l: L,
        run: &Run,
        t0: usize,
        x: &[f64],
        y: &mut [f64],
    ) {
        let n = y.len();
        // Filled by a plain loop rather than `array::from_fn`: whether that
        // helper's internals inline is the optimizer's call, and a helper
        // left out of line is not compiled for the AVX2 instance.
        let mut dw: [(&[f64], &[f64]); G] = [(&[], &[]); G];
        let mut coef = [0.0; G];
        let mut coef_v = [l.zero(); G];
        for (j, pair) in dw.iter_mut().enumerate() {
            *pair = self.diagonal::<CONSTANT>(run, j, t0, n, x);
            if CONSTANT {
                coef[j] = pair.0[0];
                coef_v[j] = l.splat(coef[j]);
            }
        }
        let full = n - n % LANES;
        let mut t = 0;
        while t < full {
            let mut acc = l.zero();
            for (&c, (diag, win)) in coef_v.iter().zip(dw) {
                // SAFETY: `t + 8 ≤ full ≤ n`, and `diagonal` cut every
                // window and every varying diagonal to `n` elements.
                let (d, w) = unsafe {
                    let d = if CONSTANT { c } else { l.load(diag.as_ptr().add(t)) };
                    (d, l.load(win.as_ptr().add(t)))
                };
                acc = acc + d * w;
            }
            // SAFETY: as above, `y` holds `n` elements.
            unsafe { l.store(acc, y.as_mut_ptr().add(t)) };
            t += LANES;
        }
        for t in full..n {
            let mut acc = 0.0;
            for (&c, (diag, win)) in coef.iter().zip(dw) {
                acc += if CONSTANT { c } else { diag[t] } * win[t];
            }
            y[t] = acc;
        }
    }

    /// `y[t − t0] = row (row0 + t) · x` for `t0 ≤ t < t0 + y.len()` of a
    /// run stored as `CONSTANT` says: up to [`MAX_FUSED_DIAGS`] diagonals
    /// in one fused pass, any further ones added to `y` one at a time —
    /// either way a row's sum starts at `+0.0` and runs through its
    /// entries in stored order.
    #[inline(always)]
    fn run_part_of<L: Lanes, const CONSTANT: bool>(
        &self,
        l: L,
        run: &Run,
        t0: usize,
        x: &[f64],
        y: &mut [f64],
    ) {
        let fused = run.k.min(MAX_FUSED_DIAGS);
        match fused {
            1 => self.lead::<L, 1, CONSTANT>(l, run, t0, x, y),
            2 => self.lead::<L, 2, CONSTANT>(l, run, t0, x, y),
            3 => self.lead::<L, 3, CONSTANT>(l, run, t0, x, y),
            4 => self.lead::<L, 4, CONSTANT>(l, run, t0, x, y),
            5 => self.lead::<L, 5, CONSTANT>(l, run, t0, x, y),
            6 => self.lead::<L, 6, CONSTANT>(l, run, t0, x, y),
            7 => self.lead::<L, 7, CONSTANT>(l, run, t0, x, y),
            _ => self.lead::<L, MAX_FUSED_DIAGS, CONSTANT>(l, run, t0, x, y),
        }
        for j in fused..run.k {
            let (diag, win) = self.diagonal::<CONSTANT>(run, j, t0, y.len(), x);
            if CONSTANT {
                let c = diag[0];
                for (yt, w) in y.iter_mut().zip(win) {
                    *yt += c * w;
                }
            } else {
                for ((yt, d), w) in y.iter_mut().zip(diag).zip(win) {
                    *yt += d * w;
                }
            }
        }
    }

    /// `y[row] = row · x` for every row stored in a run; other elements of
    /// `y` are left alone.
    pub(crate) fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_on(Isa::detect(), x, y);
    }

    /// [`Self::spmv`] on instance `isa`.
    fn spmv_on(&self, isa: Isa, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_local);
        assert_eq!(y.len(), self.n_local);
        for run in &self.runs {
            run_part(isa, self, run, 0, x, &mut y[run.row0..run.row0 + run.len]);
        }
    }

    /// Multi-vector [`Self::spmv`] over `k` columns (column `q` of `xs` and
    /// `ys` at `q·n_local`). Each [`MULTI_TILE_ROWS`]-row stretch of a run
    /// goes through every column with the single-vector kernel before the
    /// sweep moves on — one read of the run storage for all `k` columns,
    /// every column bit-identical to [`Self::spmv`] by construction.
    pub(crate) fn spmv_multi(&self, xs: &[f64], ys: &mut [f64], k: usize) {
        self.spmv_multi_on(Isa::detect(), xs, ys, k);
    }

    /// [`Self::spmv_multi`] on instance `isa`.
    fn spmv_multi_on(&self, isa: Isa, xs: &[f64], ys: &mut [f64], k: usize) {
        let n = self.n_local;
        assert_eq!(xs.len(), k * n);
        assert_eq!(ys.len(), k * n);
        for run in &self.runs {
            for t0 in (0..run.len).step_by(MULTI_TILE_ROWS) {
                let t1 = run.len.min(t0 + MULTI_TILE_ROWS);
                for q in 0..k {
                    let at = q * n + run.row0;
                    let out = &mut ys[at + t0..at + t1];
                    run_part(isa, self, run, t0, &xs[q * n..(q + 1) * n], out);
                }
            }
        }
    }
}

lane_kernel! {
    /// Rows `t0..t0 + y.len()` of `run` into `y` ([`StencilRuns::run_part_of`]
    /// by the run's class): the one kernel under [`StencilRuns::spmv`] and
    /// [`StencilRuns::spmv_multi`], one call a stretch of a run.
    fn run_part<L>(l; runs: &StencilRuns, run: &Run, t0: usize, x: &[f64], y: &mut [f64]) {
        if run.constant {
            runs.run_part_of::<L, true>(l, run, t0, x, y);
        } else {
            runs.run_part_of::<L, false>(l, run, t0, x, y);
        }
    }
}

/// The rows of `local` (global columns) that touch only columns in `owned`,
/// cut into stencil runs and a compact remainder, plus the indices of the
/// other rows in ascending order. Owned column `c` becomes offset
/// `c − owned.start` of an `x` of length `n_local`.
///
/// One pass ([`scan_sequences`]): a maximal sequence of at least
/// [`MIN_RUN_ROWS`] interior rows that each continue the previous one
/// becomes a run — grid-edge rows with fewer entries break a run and may
/// start their own — and everything else goes to the remainder with its
/// columns.
pub(crate) fn split_interior(
    local: &CsrMatrix,
    owned: &Range<usize>,
    n_local: usize,
) -> (StencilRuns, CompactRows, Vec<usize>) {
    let mut runs = StencilRuns::new(n_local);
    let mut rest_rows = Vec::new();
    let mut rest_ptr = vec![0usize];
    let mut rest_cols: Vec<u32> = Vec::new();
    let mut rest_vals = Vec::new();
    let mut other_rows = Vec::new();
    let store = |rows: Range<usize>, is_run: bool| {
        if is_run {
            let first = local.row(rows.start).0;
            runs.push_run(rows.start, rows.len(), first.iter().map(|&c| c - owned.start));
            runs.fill_run(runs.runs.len() - 1, local);
        } else {
            for r in rows {
                let (gcols, gvals) = local.row(r);
                rest_rows.push(r);
                // Lossless: the caller bounded the index space
                // (`check_index_space`), and `CompactRows::new` re-checks.
                rest_cols.extend(gcols.iter().map(|&c| (c - owned.start) as u32));
                rest_vals.extend_from_slice(gvals);
                rest_ptr.push(rest_cols.len());
            }
        }
    };
    // A row's columns strictly ascend (`CsrMatrix`'s invariant), so its two
    // ends bound it; an empty row is interior.
    let interior = |cols: &[usize]| match (cols.first(), cols.last()) {
        (Some(&first), Some(&last)) => first >= owned.start && last < owned.end,
        _ => true,
    };
    scan_sequences(local, interior, store, |i| other_rows.push(i));
    let rest = CompactRows::new(rest_rows, rest_ptr, Vec::new(), rest_cols, rest_vals, n_local, 0);
    (runs, rest, other_rows)
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
        p.spmv(&x, &g, &mut y);
        assert_eq!(y, [2.0 + 300.0 + 1.25, -1.0, 70.0 + 5.5 + 3.25]);
    }

    #[test]
    fn multi_columns_match_single_bitwise() {
        let p = piece();
        let k = MULTI_CHUNK + 3;
        let xs: Vec<f64> = (0..k * 3).map(|i| (i as f64 * 0.37).sin()).collect();
        let gs: Vec<f64> = (0..k * 2).map(|i| (i as f64 * 0.91).cos()).collect();
        let mut ys = vec![0.0; k * 3];
        p.spmv_multi(&xs, &gs, 2, &mut ys, k);
        for q in 0..k {
            let mut y = [0.0; 3];
            p.spmv(&xs[q * 3..(q + 1) * 3], &gs[q * 2..(q + 1) * 2], &mut y);
            for r in [0, 2] {
                assert_eq!(ys[q * 3 + r].to_bits(), y[r].to_bits(), "column {q} row {r}");
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

    /// `rows` as a CSR matrix over `cols` columns, entries in the order
    /// given — unsorted or repeated columns included, which the validating
    /// constructor would refuse and the plan must still sum in order.
    fn csr_of(cols: usize, rows: &[Vec<(usize, f64)>]) -> CsrMatrix {
        let mut row_ptr = vec![0];
        let (mut col_idx, mut values) = (Vec::new(), Vec::new());
        for row in rows {
            col_idx.extend(row.iter().map(|e| e.0));
            values.extend(row.iter().map(|e| e.1));
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_parts_raw(rows.len(), cols, row_ptr, col_idx, values)
    }

    /// The product of `local`'s rows (all interior) through the plan on
    /// instance `isa` — runs cut out, the rest compact — beside the serial
    /// CSR product of the same rows, and how many rows the plan stored as
    /// runs.
    fn planned_and_serial(isa: Isa, local: &CsrMatrix, x: &[f64]) -> (Vec<f64>, Vec<f64>, usize) {
        let n = x.len();
        let (runs, rest, other) = split_interior(local, &(0..n), n);
        assert!(other.is_empty());
        assert_eq!(runs.row_count() + rest.rows().len(), local.rows());
        assert_eq!(runs.nnz() + rest.nnz(), local.nnz());
        let mut y = vec![f64::NAN; n];
        runs.spmv_on(isa, x, &mut y);
        rest.spmv_on(isa, x, &[], &mut y);
        y.truncate(local.rows());
        let mut serial = vec![f64::NAN; local.rows()];
        local.matvec_into(x, &mut serial);
        (y, serial, runs.row_count())
    }

    fn assert_same_bits(got: &[f64], want: &[f64], tag: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{tag}: row {i}: {g:e} vs {w:e}"
            );
        }
    }

    #[test]
    fn runs_sum_unsorted_repeated_and_zero_entries_in_stored_order() {
        // Every row: columns i+2, i, i (again), i+1 — unsorted, one
        // repeated — with an explicit stored zero every third row; eleven
        // entries per row in the second matrix take the run kernel past
        // its fused width.
        let n = 60;
        let rows = 40;
        let val = |i: usize, j: usize| {
            if (i + j).is_multiple_of(3) {
                0.0
            } else {
                ((i * 7 + j * 3) as f64 * 0.37).sin()
            }
        };
        let narrow: Vec<Vec<(usize, f64)>> = (0..rows)
            .map(|i| {
                [i + 2, i, i, i + 1].iter().enumerate().map(|(j, &c)| (c, val(i, j))).collect()
            })
            .collect();
        let wide: Vec<Vec<(usize, f64)>> =
            (0..rows).map(|i| (0..11).map(|j| (i + (j * 5) % 11, val(i, j))).collect()).collect();
        let mut x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.91).cos()).collect();
        for poisoned in [false, true] {
            if poisoned {
                x[7] = f64::NAN;
                x[23] = f64::INFINITY;
                x[41] = f64::NEG_INFINITY;
            }
            for (tag, pattern) in [("narrow", &narrow), ("wide", &wide)] {
                let (planned, serial, in_runs) =
                    planned_and_serial(Isa::detect(), &csr_of(n, pattern), &x);
                assert_eq!(in_runs, rows, "{tag}");
                assert_same_bits(&planned, &serial, tag);
            }
        }
    }

    #[test]
    fn runs_of_15_16_and_17_rows_and_a_pattern_that_changes_mid_matrix() {
        // Tridiagonal stretches of 15, 16 and 17 rows, each ended by an
        // empty row; then 20 rows of a different offset set (i−3, i, i+2)
        // directly followed by 20 rows of a third (i, i+1) — two runs with
        // no row between them.
        let n = 120;
        let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
        for len in [15, 16, 17] {
            for _ in 0..len {
                let i = rows.len() + 1;
                rows.push(vec![(i - 1, -1.0), (i, 2.5), (i + 1, -1.5)]);
            }
            rows.push(Vec::new());
        }
        for _ in 0..20 {
            let i = rows.len();
            rows.push(vec![(i - 3, 0.5), (i, 4.0), (i + 2, -0.25)]);
        }
        for _ in 0..20 {
            let i = rows.len();
            rows.push(vec![(i, 3.0), (i + 1, 1.0)]);
        }
        let local = csr_of(n, &rows);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let (planned, serial, in_runs) = planned_and_serial(Isa::detect(), &local, &x);
        assert_eq!(in_runs, 16 + 17 + 20 + 20);
        assert_same_bits(&planned, &serial, "mixed");
        let (runs, ..) = split_interior(&local, &(0..n), n);
        let shape: Vec<(usize, usize, usize)> =
            runs.runs.iter().map(|r| (r.row0, r.len, r.k)).collect();
        assert_eq!(shape, [(16, 16, 3), (33, 17, 3), (51, 20, 3), (71, 20, 2)]);
    }

    #[test]
    fn run_kernels_match_at_any_thread_count_and_batch_width() {
        // 5 000 rows of nine diagonals.
        let n = 5_000;
        let local = crate::generate::banded(n, 4, 3);
        let (runs, rest, _) = split_interior(&local, &(0..n), n);
        assert_eq!(runs.row_count(), n - 8);
        let k = MULTI_CHUNK + 3;
        let xs = crate::generate::random_vector(k * n, 5);
        let mut want = vec![0.0; k * n];
        for q in 0..k {
            local.matvec_into(&xs[q * n..(q + 1) * n], &mut want[q * n..(q + 1) * n]);
        }
        let mut ys = vec![f64::NAN; k * n];
        runs.spmv_multi(&xs, &mut ys, k);
        rest.spmv_multi(&xs, &[], 0, &mut ys, k);
        assert_same_bits(&ys, &want, "batched");
        let mut y = vec![f64::NAN; n];
        runs.spmv(&xs[..n], &mut y);
        rest.spmv(&xs[..n], &[], &mut y);
        assert_same_bits(&y, &want[..n], "single");
    }

    #[test]
    fn refreshed_values_reach_the_diagonals() {
        // One run of 48 tridiagonal rows: constant as generated, then
        // refreshed to varying, to constant (other numbers) and to varying
        // again — `vals` follows the class, the logical count does not.
        let n = 50;
        let mut local = crate::generate::laplacian_1d(n);
        let (mut runs, mut rest, _) = split_interior(&local, &(0..n), n);
        assert_eq!(runs.row_count(), n - 2);
        let x = crate::generate::random_vector(n, 9);
        let check = |runs: &StencilRuns, rest: &CompactRows, local: &CsrMatrix, stored| {
            assert_eq!(runs.vals.len(), stored);
            assert_eq!(runs.nnz(), 3 * (n - 2));
            let constant = if stored == 3 { n - 2 } else { 0 };
            assert_eq!(runs.constant_row_count(), constant);
            let (mut y, mut want) = (vec![0.0; n], vec![0.0; n]);
            runs.spmv(&x, &mut y);
            rest.spmv(&x, &[], &mut y);
            local.matvec_into(&x, &mut want);
            assert_same_bits(&y, &want, &format!("{stored} stored values"));
        };
        check(&runs, &rest, &local, 3);
        let varying = |k: usize| (k as f64 * 0.61).cos();
        let constant = |k: usize| [0.5, -1.25, 3.0][k % 3];
        for (value, stored) in [
            (&varying as &dyn Fn(usize) -> f64, 3 * (n - 2)),
            (&constant, 3),
            (&varying, 3 * (n - 2)),
        ] {
            for (k, v) in local.values_mut().iter_mut().enumerate() {
                *v = value(k);
            }
            runs.refresh_values(&local);
            rest.refresh_values(&local, &(0..n));
            check(&runs, &rest, &local, stored);
        }
    }

    /// The 5-point pattern of an m×m grid with the paper operator's
    /// coefficients (`u_xx + u_yy − 3u_x`, h = 1/(m + 1)): the same five
    /// numbers in every row.
    fn paper_like(m: usize) -> CsrMatrix {
        let pattern = crate::generate::laplacian_2d(m);
        let h = 1.0 / (m as f64 + 1.0);
        let mut a = pattern.clone();
        for ((r, c, _), v) in pattern.iter().zip(a.values_mut()) {
            *v = match c as isize - r as isize {
                0 => 4.0,
                1 => -1.0 + 1.5 * h,
                -1 => -1.0 - 1.5 * h,
                _ => -1.0,
            };
        }
        a
    }

    /// Multiply row `r` of `a` by `factor`.
    fn scale_row(a: &mut CsrMatrix, r: usize, factor: f64) {
        let (lo, hi) = (a.row_ptr()[r], a.row_ptr()[r + 1]);
        for v in &mut a.values_mut()[lo..hi] {
            *v *= factor;
        }
    }

    /// Rows `local`'s plan stores in constant runs.
    fn constant_rows(local: &CsrMatrix) -> usize {
        let n = local.cols();
        split_interior(local, &(0..n), n).0.constant_row_count()
    }

    /// Constant and varying runs against the serial CSR kernel on every
    /// instance this CPU runs, for an `x` of finite
    /// values and one with `−0.0`s and a NaN with a payload in it. A grid
    /// line's run is `m − 2 = 38` rows: four lane groups and a tail of six.
    #[test]
    fn constant_and_varying_runs_match_the_serial_kernel_bitwise() {
        let m = 40;
        let n = m * m;
        let finite = crate::generate::random_vector(n, 21);
        let mut special = finite.clone();
        for i in (0..n).step_by(7) {
            special[i] = -0.0;
        }
        special[n / 2 + 3] = f64::from_bits(0x7ff8_0000_0000_0b0e);
        for (tag, a) in [("paper", paper_like(m)), ("laplacian", crate::generate::laplacian_2d(m))]
        {
            let (runs, ..) = split_interior(&a, &(0..n), n);
            // One run per grid line; the second one's rows.
            let line = runs.runs[1].clone();
            assert_eq!((line.row0, line.len, line.k), (m + 1, m - 2, 5), "{tag}");
            let last = line.row0 + line.len - 1;
            let mut last_row_differs = a.clone();
            scale_row(&mut last_row_differs, last, 1.5);
            let mut every_row_differs = a.clone();
            for r in 0..n {
                scale_row(&mut every_row_differs, r, (1 + r % 3) as f64);
            }
            for (case, local, constant) in [
                ("as generated", a.clone(), runs.row_count()),
                ("one run's last row differs", last_row_differs, runs.row_count() - line.len),
                ("every row differs", every_row_differs, 0),
            ] {
                assert_eq!(constant_rows(&local), constant, "{tag}, {case}");
                for (input, x) in [("finite x", &finite), ("x with -0.0 and NaN", &special)] {
                    for isa in Isa::available() {
                        let (planned, serial, in_runs) = planned_and_serial(isa, &local, x);
                        assert_eq!(in_runs, runs.row_count());
                        assert_same_bits(
                            &planned,
                            &serial,
                            &format!("{tag}, {case}, {input}, {isa:?}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_signed_zero_or_another_nan_payload_on_a_diagonal_is_not_constant() {
        // 20 rows of (i, i + 1) with the same two values in every row.
        let n = 30;
        let x = crate::generate::random_vector(n, 4);
        let nan = |payload: u64| f64::from_bits(0x7ff8_0000_0000_0000 | payload);
        assert!(nan(1).is_nan() && nan(2).is_nan());
        for (first, odd_one_out) in [(0.0, -0.0), (-0.0, 0.0), (nan(1), nan(2))] {
            let rows = |special: Option<usize>| -> Vec<Vec<(usize, f64)>> {
                (0..20)
                    .map(|i| {
                        let v = if special == Some(i) { odd_one_out } else { first };
                        vec![(i, v), (i + 1, 2.5)]
                    })
                    .collect()
            };
            // Equal bit patterns — NaNs included — are one value.
            assert_eq!(constant_rows(&csr_of(n, &rows(None))), 20);
            for special in [1, 19] {
                let local = csr_of(n, &rows(Some(special)));
                assert_eq!(constant_rows(&local), 0, "{first:?} with {odd_one_out:?}");
                let (planned, serial, in_runs) = planned_and_serial(Isa::detect(), &local, &x);
                assert_eq!(in_runs, 20);
                assert_same_bits(&planned, &serial, "odd one out");
            }
        }
    }

    #[test]
    fn constant_runs_wider_than_the_fused_pass_and_split_across_threads_and_columns() {
        // Rows 0..2500: eleven entries (past `MAX_FUSED_DIAGS`), unsorted,
        // the same eleven values in every row; an empty row; then 2 499
        // rows of the same pattern whose values change from row to row.
        let (rows, n) = (5_000, 5_016);
        let pattern = |i: usize, value: &dyn Fn(usize) -> f64| -> Vec<(usize, f64)> {
            (0..11).map(|j| (i + (j * 5) % 11, value(j))).collect()
        };
        let local = csr_of(
            n,
            &(0..rows)
                .map(|i| match i {
                    0..2500 => pattern(i, &|j| (j as f64 * 0.37).sin()),
                    2500 => Vec::new(),
                    _ => pattern(i, &|j| ((i * 7 + j * 3) as f64 * 0.37).sin()),
                })
                .collect::<Vec<_>>(),
        );
        let (runs, rest, _) = split_interior(&local, &(0..n), n);
        assert_eq!((runs.row_count(), runs.constant_row_count()), (rows - 1, 2500));
        assert_eq!(runs.vals.len(), 11 + 11 * 2499);
        assert_eq!(runs.nnz(), 11 * (rows - 1));
        for k in [1, 3, MULTI_CHUNK] {
            let xs = crate::generate::random_vector(k * n, 5);
            let mut want = vec![f64::NAN; k * n];
            for q in 0..k {
                local.matvec_into(&xs[q * n..(q + 1) * n], &mut want[q * n..q * n + rows]);
            }
            for isa in Isa::available() {
                let mut ys = vec![f64::NAN; k * n];
                runs.spmv_multi_on(isa, &xs, &mut ys, k);
                rest.spmv_multi_on(isa, &xs, &[], 0, &mut ys, k);
                assert_same_bits(&ys, &want, &format!("{k} columns, {isa:?}"));
                let mut y = vec![f64::NAN; n];
                runs.spmv_on(isa, &xs[..n], &mut y);
                rest.spmv_on(isa, &xs[..n], &[], &mut y);
                assert_same_bits(&y, &want[..n], &format!("single, {isa:?}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "window leaves x")]
    fn a_run_whose_window_would_leave_x_is_caught_at_build() {
        // Rows 0..16 of a 20-row chunk; the entry starting at offset 5
        // would read x[5..21].
        StencilRuns::new(20).push_run(0, 16, [0, 5].into_iter());
    }

    #[test]
    #[should_panic(expected = "rows leave the chunk")]
    fn a_run_whose_rows_would_leave_y_is_caught_at_build() {
        StencilRuns::new(20).push_run(5, 16, [0].into_iter());
    }

    #[test]
    #[should_panic(expected = "must ascend")]
    fn overlapping_runs_are_caught_at_build() {
        let mut runs = StencilRuns::new(64);
        runs.push_run(0, 16, [0].into_iter());
        runs.push_run(15, 16, [0].into_iter());
    }

    #[test]
    fn index_space_limit_is_a_typed_error() {
        assert!(check_index_space(0, 0).is_ok());
        assert!(check_index_space(u32::MAX as usize, 0).is_ok());
        assert!(check_index_space(1 << 31, (1 << 31) - 1).is_ok());
        for (n, g) in [(u32::MAX as usize + 1, 0), (1 << 31, 1 << 31), (usize::MAX, 2)] {
            assert!(matches!(
                check_index_space(n, g),
                Err(SparseError::IndexOutOfBounds { axis: "renumbered local column", .. })
            ));
        }
    }
}
