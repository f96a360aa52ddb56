//! Supernodal panels: a triangular factor stored by runs of columns that
//! share their structure.
//!
//! In a sparse LU of a grid matrix most of L sits in *runs*: consecutive
//! columns `j, j + 1, …` where the rows of column `j` below the diagonal
//! are `j + 1` followed by exactly the rows of column `j + 1` (the T2
//! supernode test, `rows(j)[1..] == rows(j + 1)` with the diagonal first).
//! Inside a run of `s` columns starting at `c0` column `c0 + k` therefore
//! holds every row `c0 + k + 1 .. c0 + s` — a dense lower triangle — and
//! below it the same *off-block* rows as its neighbours. A [`PanelTri`]
//! stores the off-block row list once per run (`u32`, ascending) and each
//! column's values in the order a CSC column has them — its `s − 1 − k`
//! in-block rows, then the off-block rows — with no index beside them:
//! the CSC value array with the structure factored out. A column that
//! belongs to no run is a panel one column wide.
//!
//! The same type holds L (unit diagonal, not stored) and U. U is kept by
//! **rows**, as the strictly lower triangle of Uᵀ with the diagonal apart,
//! because the backward substitution `U·w = z` is then a *gather* whose
//! `s` targets lie side by side in one panel and read the same sources.
//!
//! Two kernels walk the arrays. `scatter_forward` solves `T·x = y` column
//! by column: the off-block targets of a panel are gathered into a dense
//! scratch, the panel's `s` columns update it with `s` dense axpys, and
//! it is scattered back. `gather_backward` solves `Tᵀ·x = y`, the
//! transposed traversal: every column is the row of Tᵀ that produces one
//! unknown, and where the order allows it (U) eight unknowns of a panel
//! take their common sources side by side. Each unknown receives its
//! subtractions in the order the column sweeps over CSC factors delivered
//! them, so the four sweeps of [`crate::LuFactorization`] are
//! bit-identical to those (the oracles in `reference.rs`): ascending
//! source forward, and backward either ascending without a skip (Lᵀ, a
//! row gather there too) or descending with the `source != 0.0` skip (U,
//! a column scatter there). A panel one column wide takes the plain loop
//! of those sweeps, with a `u32` index.
//!
//! Everything a sweep indexes with is checked once, in
//! [`PanelTri::from_parts`]; violations are typed errors.

use rsparse::{CscMatrix, SparseError, SparseResult};

/// One triangular factor as supernodal panels: the strictly lower
/// triangle of an `n × n` matrix `T` by columns, with either a unit
/// diagonal (L) or a stored one (the rows of U, as columns of Uᵀ).
#[derive(Debug, Clone, PartialEq)]
pub struct PanelTri {
    n: usize,
    /// Panel `p` covers columns `first[p]..first[p + 1]`.
    first: Vec<u32>,
    /// Panel `p`'s off-block rows are `idx[idx_ptr[p]..idx_ptr[p + 1]]`,
    /// ascending, all beyond the panel's last column.
    idx_ptr: Vec<u32>,
    idx: Vec<u32>,
    /// Panel after panel, column after column, each column its in-block
    /// rows then its off-block rows: `s·(s − 1)/2 + s·(indices)` numbers
    /// per panel of `s` columns.
    vals: Vec<f64>,
    /// Empty for a unit diagonal, else one divisor per column.
    diag: Vec<f64>,
    /// The longest off-block list: the scratch a sweep needs.
    scratch_len: usize,
}

fn to_u32(axis: &'static str, value: usize) -> SparseResult<u32> {
    u32::try_from(value).map_err(|_| SparseError::IndexOutOfBounds {
        axis,
        index: value,
        bound: u32::MAX as usize,
    })
}

/// `ptr` must start at 0, end at `end` and never decrease — nor, when
/// `strictly`, stay.
fn check_pointers(ptr: &[u32], end: usize, strictly: bool, why: &'static str) -> SparseResult<()> {
    let ok = ptr.first() == Some(&0)
        && ptr.last().map(|&p| p as usize) == Some(end)
        && ptr.windows(2).all(|w| w[0] < w[1] || (w[0] == w[1] && !strictly));
    if ok {
        Ok(())
    } else {
        Err(SparseError::MalformedPointers(why))
    }
}

impl PanelTri {
    /// Cut sorted columns into maximal runs. Column `j` holds the rows
    /// `rows[ptr[j]..ptr[j + 1]]`, strictly below the diagonal and
    /// ascending; `vals` is parallel to `rows` and becomes the panel value
    /// array as it is. Whatever the run test does not establish about the
    /// input, [`PanelTri::from_parts`] checks.
    pub(crate) fn from_columns(
        n: usize,
        ptr: &[usize],
        rows: &[u32],
        vals: Vec<f64>,
        diag: Vec<f64>,
    ) -> SparseResult<Self> {
        to_u32("panel column", n)?;
        let col = |j: usize| &rows[ptr[j]..ptr[j + 1]];
        let mut first = vec![0u32];
        let mut idx_ptr = vec![0u32];
        let mut idx = Vec::new();
        for j in 0..n {
            let here = col(j);
            let run_goes_on =
                j + 1 < n && here.first() == Some(&(j as u32 + 1)) && here[1..] == *col(j + 1);
            if !run_goes_on {
                idx.extend_from_slice(here);
                first.push(j as u32 + 1);
                idx_ptr.push(to_u32("panel index", idx.len())?);
            }
        }
        Self::from_parts(n, first, idx_ptr, idx, vals, diag)
    }

    /// Assemble a triangle from its arrays, checking once everything the
    /// sweeps rely on: `first` runs `0..=n` increasing (no panel is empty)
    /// and `idx_ptr` runs `0..=idx.len()` without decreasing, one entry
    /// per panel boundary each; every panel's indices ascend, lie beyond
    /// the panel's last column and below `n`; `vals` holds exactly
    /// `s·(s − 1)/2 + s·(indices)` numbers per panel of `s` columns;
    /// `diag` is empty (unit diagonal) or one per column. Violations are
    /// typed errors, never a panic.
    pub fn from_parts(
        n: usize,
        first: Vec<u32>,
        idx_ptr: Vec<u32>,
        idx: Vec<u32>,
        vals: Vec<f64>,
        diag: Vec<f64>,
    ) -> SparseResult<Self> {
        to_u32("panel column", n)?;
        to_u32("panel index", idx.len())?;
        check_pointers(&first, n, true, "panel starts must run 0..=n, increasing")?;
        check_pointers(
            &idx_ptr,
            idx.len(),
            false,
            "panel index pointers must run 0..=len without decreasing",
        )?;
        for (what, expected, got) in [
            ("panel index pointers", first.len(), idx_ptr.len()),
            ("panel diagonal", if diag.is_empty() { 0 } else { n }, diag.len()),
        ] {
            if expected != got {
                return Err(SparseError::LengthMismatch { what, expected, got });
            }
        }
        let mut entries = 0usize;
        let mut scratch_len = 0;
        for (cols, list) in first.windows(2).zip(idx_ptr.windows(2)) {
            let (width, end) = ((cols[1] - cols[0]) as usize, cols[1] as usize);
            let list = &idx[list[0] as usize..list[1] as usize];
            let mut floor = end;
            for &r in list {
                let r = r as usize;
                if r >= n {
                    return Err(SparseError::IndexOutOfBounds {
                        axis: "panel row",
                        index: r,
                        bound: n,
                    });
                }
                if r < end {
                    // Row r is solved no later than the panel's last column.
                    return Err(SparseError::BadSweepOrder { row: r, col: end - 1 });
                }
                if r < floor {
                    return Err(SparseError::MalformedPointers("panel indices must ascend"));
                }
                floor = r + 1;
            }
            // width ≤ n and list.len() ≤ idx.len() both fit u32.
            entries = entries.saturating_add(width * (width - 1) / 2 + width * list.len());
            scratch_len = scratch_len.max(list.len());
        }
        if entries != vals.len() {
            return Err(SparseError::LengthMismatch {
                what: "panel values",
                expected: entries,
                got: vals.len(),
            });
        }
        Ok(PanelTri { n, first, idx_ptr, idx, vals, diag, scratch_len })
    }

    /// Rows (= columns) of the triangle.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Stored entries strictly below the diagonal — the logical count: a
    /// panel holds exactly its columns' structural entries, no padding.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of panels (maximal runs, one-column runs included).
    pub fn panel_count(&self) -> usize {
        self.first.len() - 1
    }

    /// Off-block indices stored, one list per panel.
    pub fn index_count(&self) -> usize {
        self.idx.len()
    }

    /// Columns of the widest panel.
    pub fn max_panel_width(&self) -> usize {
        self.first.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0)
    }

    /// Heap bytes behind the arrays.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val as bytes;
        bytes(&self.first[..])
            + bytes(&self.idx_ptr[..])
            + bytes(&self.idx[..])
            + bytes(&self.vals[..])
            + bytes(&self.diag[..])
    }

    /// Scratch elements a sweep needs (the longest off-block list).
    pub(crate) fn scratch_len(&self) -> usize {
        self.scratch_len
    }

    /// The triangle with its diagonal as a CSC matrix (`1.0` on a unit
    /// diagonal), rows ascending in every column. For tests and
    /// diagnostics; nothing on the solve path converts.
    pub fn to_csc(&self) -> SparseResult<CscMatrix> {
        let mut ptr = Vec::with_capacity(self.n + 1);
        let mut rows = Vec::with_capacity(self.n + self.nnz());
        let mut vals = Vec::with_capacity(self.n + self.nnz());
        ptr.push(0);
        let mut rest = &self.vals[..];
        for (c0, c1, idx) in self.panels() {
            for j in c0..c1 {
                let column;
                (column, rest) = rest.split_at(c1 - 1 - j + idx.len());
                rows.push(j);
                rows.extend(j + 1..c1);
                rows.extend(idx.iter().map(|&r| r as usize));
                vals.push(self.diag.get(j).copied().unwrap_or(1.0));
                vals.extend_from_slice(column);
                ptr.push(rows.len());
            }
        }
        CscMatrix::from_parts(self.n, self.n, ptr, rows, vals)
    }

    /// Solve `T·x = y` in place, column by column. `scratch` holds at
    /// least `scratch_len()` elements.
    ///
    /// With a unit diagonal a column whose unknown is exactly `0.0` is
    /// skipped, as the column scatter over L skips it; with a stored
    /// diagonal the unknown is divided when its column is reached and
    /// nothing is skipped, as the row gather over U's columns (the sweep
    /// `Uᵀ·v = u` this then is) skips nothing.
    pub(crate) fn scatter_forward(&self, y: &mut [f64], scratch: &mut [f64]) {
        assert!(y.len() == self.n && scratch.len() >= self.scratch_len);
        if self.diag.is_empty() {
            self.scatter::<true>(y, scratch)
        } else {
            self.scatter::<false>(y, scratch)
        }
    }

    fn scatter<const UNIT: bool>(&self, y: &mut [f64], scratch: &mut [f64]) {
        let mut rest = &self.vals[..];
        for (c0, c1, idx) in self.panels() {
            if c1 - c0 == 1 {
                // The plain column loop, the structure read as it is.
                let off;
                (off, rest) = rest.split_at(idx.len());
                let yj = if UNIT { y[c0] } else { y[c0] / self.diag[c0] };
                y[c0] = yj;
                if !UNIT || yj != 0.0 {
                    for (&r, &v) in idx.iter().zip(off) {
                        y[r as usize] -= v * yj;
                    }
                }
                continue;
            }
            let w = &mut scratch[..idx.len()];
            for (wt, &r) in w.iter_mut().zip(idx) {
                *wt = y[r as usize];
            }
            for j in c0..c1 {
                let (inblock, off);
                (inblock, rest) = rest.split_at(c1 - 1 - j);
                (off, rest) = rest.split_at(idx.len());
                let yj = if UNIT { y[j] } else { y[j] / self.diag[j] };
                y[j] = yj;
                if UNIT && yj == 0.0 {
                    continue;
                }
                for (yr, &v) in y[j + 1..c1].iter_mut().zip(inblock) {
                    *yr -= v * yj;
                }
                for (wt, &v) in w.iter_mut().zip(off) {
                    *wt -= v * yj;
                }
            }
            for (&wt, &r) in w.iter().zip(idx) {
                y[r as usize] = wt;
            }
        }
    }

    /// Solve `Tᵀ·x = y` in place, from the last column to the first:
    /// column `j` of T is the row of Tᵀ that produces `x[j]`. `scratch`
    /// holds at least `scratch_len()` elements.
    ///
    /// With a unit diagonal the sources are subtracted in ascending order
    /// and none is skipped (the row gather over L's columns). With a
    /// stored diagonal they are subtracted in descending order, a source
    /// that is exactly `0.0` is skipped, and the division comes last —
    /// what the column scatter over U's columns delivers to each unknown.
    pub(crate) fn gather_backward(&self, y: &mut [f64], scratch: &mut [f64]) {
        assert!(y.len() == self.n && scratch.len() >= self.scratch_len);
        if self.diag.is_empty() {
            self.gather_ascending(y, scratch)
        } else {
            self.gather_descending(y, scratch)
        }
    }

    fn gather_ascending(&self, y: &mut [f64], scratch: &mut [f64]) {
        let mut rest = &self.vals[..];
        for (c0, c1, idx) in self.panels().rev() {
            if c1 - c0 == 1 {
                let off;
                (rest, off) = rest.split_at(rest.len() - idx.len());
                let mut acc = y[c0];
                for (&r, &v) in idx.iter().zip(off) {
                    acc -= v * y[r as usize];
                }
                y[c0] = acc;
                continue;
            }
            let w = &mut scratch[..idx.len()];
            for (wt, &r) in w.iter_mut().zip(idx) {
                *wt = y[r as usize];
            }
            // Every unknown waits for the one after it (its first source),
            // so the panel is one chain, as it is in the column loop.
            for j in (c0..c1).rev() {
                let (inblock, off);
                (rest, off) = rest.split_at(rest.len() - idx.len());
                (rest, inblock) = rest.split_at(rest.len() - (c1 - 1 - j));
                let mut acc = y[j];
                for (&yr, &v) in y[j + 1..c1].iter().zip(inblock) {
                    acc -= v * yr;
                }
                for (&wt, &v) in w.iter().zip(off) {
                    acc -= v * wt;
                }
                y[j] = acc;
            }
        }
    }

    fn gather_descending(&self, y: &mut [f64], scratch: &mut [f64]) {
        let mut rest = &self.vals[..];
        for (c0, c1, idx) in self.panels().rev() {
            let (width, m) = (c1 - c0, idx.len());
            if width == 1 {
                let off;
                (rest, off) = rest.split_at(rest.len() - m);
                let mut acc = y[c0];
                for (&r, &v) in idx.iter().zip(off).rev() {
                    let yr = y[r as usize];
                    if yr != 0.0 {
                        acc -= v * yr;
                    }
                }
                y[c0] = acc / self.diag[c0];
                continue;
            }
            let vals;
            (rest, vals) = rest.split_at(rest.len() - (width * (width - 1) / 2 + width * m));
            let w = &mut scratch[..m];
            for (wt, &r) in w.iter_mut().zip(idx) {
                *wt = y[r as usize];
            }
            // Targets from the last to the first, eight, four, two or one at
            // a time. A block's sources beyond itself are final — the
            // off-block ones lie outside the panel, the in-block ones
            // belong to the blocks already done — so its targets take
            // them side by side; only inside the block does an unknown
            // wait for the one after it.
            let (targets, diag) = (&mut y[c0..c1], &self.diag[c0..c1]);
            let mut todo = width;
            while todo > 0 {
                todo = match todo {
                    8.. => gather_block::<8>(targets, todo, vals, w, diag),
                    4.. => gather_block::<4>(targets, todo, vals, w, diag),
                    2.. => gather_block::<2>(targets, todo, vals, w, diag),
                    _ => gather_block::<1>(targets, todo, vals, w, diag),
                };
            }
        }
    }

    /// Panels as (first column, one past the last, off-block rows).
    #[inline]
    fn panels(&self) -> impl DoubleEndedIterator<Item = (usize, usize, &[u32])> + '_ {
        self.first.windows(2).zip(self.idx_ptr.windows(2)).map(|(cols, list)| {
            (cols[0] as usize, cols[1] as usize, &self.idx[list[0] as usize..list[1] as usize])
        })
    }
}

/// Finish the last `B` of a stored-diagonal panel's first `todo`
/// unknowns (`targets`, one per column, those from `todo` on final; `vals`
/// the panel's values, `w` its gathered off-block sources) and return how
/// many are left: every unknown takes its off-block sources, then its
/// in-block ones, each last to first, then its divisor.
#[inline(always)]
fn gather_block<const B: usize>(
    targets: &mut [f64],
    todo: usize,
    vals: &[f64],
    w: &[f64],
    diag: &[f64],
) -> usize {
    let (width, m, lo) = (targets.len(), w.len(), todo - B);
    // Column k follows k off-block parts and k in-block parts, each one
    // shorter than the one before; its own in-block part comes first.
    let column = |k: usize| &vals[k * m + k * (2 * width - k - 1) / 2..][..width - 1 - k + m];
    let (block, done) = targets.split_at_mut(todo);
    let block = &mut block[lo..];
    subtract_descending::<B>(
        block,
        std::array::from_fn(|i| &column(lo + i)[width - 1 - lo - i..]),
        w,
    );
    subtract_descending::<B>(
        block,
        std::array::from_fn(|i| &column(lo + i)[B - 1 - i..width - 1 - lo - i]),
        done,
    );
    for i in (0..B).rev() {
        let mut acc = block[i];
        for (&yr, &v) in block[i + 1..].iter().zip(&column(lo + i)[..B - 1 - i]).rev() {
            if yr != 0.0 {
                acc -= v * yr;
            }
        }
        block[i] = acc / diag[lo + i];
    }
    lo
}

/// `targets[i] −= cols[i][t]·sources[t]` for `t` from last to first,
/// skipping a source that is exactly `0.0`: `B` independent chains in
/// flight.
#[inline(always)]
fn subtract_descending<const B: usize>(targets: &mut [f64], cols: [&[f64]; B], sources: &[f64]) {
    let cols = cols.map(|col| &col[..sources.len()]);
    let mut acc: [f64; B] = std::array::from_fn(|i| targets[i]);
    for (t, &source) in sources.iter().enumerate().rev() {
        if source != 0.0 {
            for i in 0..B {
                acc[i] -= cols[i][t] * source;
            }
        }
    }
    targets.copy_from_slice(&acc);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Columns 0–1 form a panel over rows {3, 4}, column 2 stands alone
    /// over {4}, columns 3–4 form the last panel.
    #[allow(clippy::type_complexity)]
    fn parts() -> (usize, Vec<u32>, Vec<u32>, Vec<u32>, Vec<f64>, Vec<f64>) {
        let vals = vec![
            0.5, 1.0, 2.0, // column 0: row 1, then rows 3, 4
            3.0, 4.0, // column 1: rows 3, 4
            5.0, // column 2: row 4
            6.0, // column 3: row 4
        ];
        (5, vec![0, 2, 3, 5], vec![0, 2, 3, 3], vec![3, 4, 4], vals, vec![2.0; 5])
    }

    fn build(
        edit: impl FnOnce(&mut (usize, Vec<u32>, Vec<u32>, Vec<u32>, Vec<f64>, Vec<f64>)),
    ) -> SparseResult<PanelTri> {
        let mut p = parts();
        edit(&mut p);
        PanelTri::from_parts(p.0, p.1, p.2, p.3, p.4, p.5)
    }

    #[test]
    fn well_formed_parts_build_and_convert() {
        let tri = build(|_| {}).unwrap();
        assert_eq!((tri.panel_count(), tri.index_count(), tri.max_panel_width()), (3, 3, 2));
        assert_eq!(tri.nnz(), 7);
        let csc = tri.to_csc().unwrap();
        assert_eq!(csc.col(0), (&[0, 1, 3, 4][..], &[2.0, 0.5, 1.0, 2.0][..]));
        assert_eq!(csc.col(2), (&[2, 4][..], &[2.0, 5.0][..]));
        assert_eq!(csc.col(4), (&[4][..], &[2.0][..]));
        let unit = build(|p| p.5.clear()).unwrap();
        assert_eq!(unit.to_csc().unwrap().col(3), (&[3, 4][..], &[1.0, 6.0][..]));
    }

    #[test]
    fn malformed_parts_are_typed_errors_never_panics() {
        use SparseError::*;
        // An index at or beyond n.
        assert!(matches!(build(|p| p.3[1] = 5), Err(IndexOutOfBounds { index: 5, bound: 5, .. })));
        // An off-block index inside its own panel, and one before it.
        assert!(matches!(build(|p| p.3[0] = 1), Err(BadSweepOrder { row: 1, col: 1 })));
        assert!(matches!(build(|p| p.3[2] = 0), Err(BadSweepOrder { row: 0, col: 2 })));
        // A list that does not ascend.
        assert!(matches!(build(|p| p.3[..2].copy_from_slice(&[4, 3])), Err(MalformedPointers(_))));
        assert!(matches!(build(|p| p.3[..2].copy_from_slice(&[3, 3])), Err(MalformedPointers(_))));
        // Pointer arrays that do not start at 0, decrease, stay where a
        // panel would be empty, or end short.
        assert!(matches!(build(|p| p.1[0] = 1), Err(MalformedPointers(_))));
        assert!(matches!(build(|p| p.1[1..3].copy_from_slice(&[3, 2])), Err(MalformedPointers(_))));
        assert!(matches!(build(|p| p.1[1] = 0), Err(MalformedPointers(_))));
        assert!(matches!(build(|p| p.1[3] = 4), Err(MalformedPointers(_))));
        assert!(matches!(build(|p| p.2[0] = 1), Err(MalformedPointers(_))));
        assert!(matches!(build(|p| p.2[1..3].copy_from_slice(&[3, 2])), Err(MalformedPointers(_))));
        assert!(matches!(build(|p| p.2[3] = 2), Err(MalformedPointers(_))));
        assert!(matches!(
            build(|p| p.2.truncate(3)),
            Err(MalformedPointers(_) | LengthMismatch { .. })
        ));
        // Values or a diagonal of the wrong length.
        assert!(matches!(
            build(|p| p.4.truncate(6)),
            Err(LengthMismatch { what: "panel values", expected: 7, got: 6 })
        ));
        assert!(matches!(
            build(|p| p.5.truncate(4)),
            Err(LengthMismatch { what: "panel diagonal", expected: 5, got: 4 })
        ));
        // Nothing at all is a 0 × 0 triangle only with its one pointer.
        assert!(PanelTri::from_parts(0, vec![0], vec![0], vec![], vec![], vec![]).is_ok());
        assert!(PanelTri::from_parts(0, vec![], vec![], vec![], vec![], vec![]).is_err());
    }
}
