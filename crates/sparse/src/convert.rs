//! The ingest layer: the arrays an application hands LISI's
//! `setupMatrix` decoded into this rank's CSR block, and the two encoders
//! an application needs to write MSR and VBR arrays.
//!
//! The paper (§5.3) makes format adaptation the adapter's job: "none of
//! the sparse linear solver packages provides support for all formats".
//! Every decoder has the same shape. A [`Window`] says which rows this
//! rank owns, how wide the matrix is and which index base the arrays use;
//! the port's arrays go in, the local `rows × cols` block comes out, and
//! anything malformed is a typed [`SparseError`] naming what failed. Each
//! decoder validates the arrays in one pass and then walks them into
//! [`CooMatrix::to_csr`]'s bucket/sort/merge, so duplicates are summed in
//! the same order whatever the format. CSR is the exception: arrays that
//! are already normal become the matrix as they are.
//!
//! | format | explicit zeros | duplicates |
//! |---|---|---|
//! | COO, CSR | kept | summed |
//! | MSR | a zero diagonal slot dropped, off-diagonal zeros kept | summed |
//! | VBR, FEM | dropped | summed |

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::{SparseError, SparseResult};

/// The part of a matrix one rank's port arrays describe: rows
/// `start..start + rows` of a matrix `cols` wide, with every index and
/// pointer written `base` higher (1 for Fortran callers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First global row.
    pub start: usize,
    /// Rows owned.
    pub rows: usize,
    /// Global column count.
    pub cols: usize,
    /// Index base of the arrays.
    pub base: usize,
}

impl Window {
    /// The whole of an `n × n` matrix at index base 0.
    pub fn serial(n: usize) -> Self {
        Window { start: 0, rows: n, cols: n, base: 0 }
    }

    /// `index` less the base and `lo`, if it lies in `lo..lo + len`.
    fn at(&self, axis: &'static str, index: usize, lo: usize, len: usize) -> SparseResult<usize> {
        index.checked_sub(self.base).and_then(|i| i.checked_sub(lo)).filter(|&i| i < len).ok_or(
            SparseError::OutOfWindow {
                axis,
                index,
                lo: lo.saturating_add(self.base),
                hi: lo.saturating_add(len).saturating_add(self.base),
            },
        )
    }

    /// MSR's diagonal and FEM's elements live in the square block
    /// `start..start + rows` of the columns: it must exist.
    fn check_diagonal(&self) -> SparseResult<()> {
        match self.rows.checked_sub(1) {
            Some(last) => {
                let index = self.start.saturating_add(last).saturating_add(self.base);
                self.at("diagonal column", index, 0, self.cols).map(drop)
            }
            None => Ok(()),
        }
    }

    /// Pointers (index base included) that do not decrease and stay
    /// inside `lo..=hi` once the base is taken off.
    fn check_pointers(&self, ptr: &[usize], lo: usize, hi: usize) -> SparseResult<()> {
        let mut prev = lo;
        for &p in ptr {
            let p = p
                .checked_sub(self.base)
                .ok_or(SparseError::MalformedPointers("pointer below the index base"))?;
            if p < prev {
                return Err(SparseError::MalformedPointers("pointers must be non-decreasing"));
            }
            if p > hi {
                return Err(SparseError::MalformedPointers("pointer past the end of its array"));
            }
            prev = p;
        }
        Ok(())
    }
}

fn expect_len(what: &'static str, expected: usize, got: usize) -> SparseResult<()> {
    if expected != got {
        return Err(SparseError::LengthMismatch { what, expected, got });
    }
    Ok(())
}

/// `bs` must be positive and divide every extent in `extents`.
fn check_block_size(what: &str, bs: usize, extents: &[usize]) -> SparseResult<()> {
    if bs == 0 || extents.iter().any(|e| !e.is_multiple_of(bs)) {
        return Err(SparseError::BadBlockPartition(format!(
            "{what} {bs} must be positive and divide {extents:?}"
        )));
    }
    Ok(())
}

/// COO triplets: global rows inside the window, global columns.
pub fn decode_coo(
    w: Window,
    values: &[f64],
    rows: &[usize],
    cols: &[usize],
) -> SparseResult<CsrMatrix> {
    expect_len("COO row indices", values.len(), rows.len())?;
    expect_len("COO column indices", values.len(), cols.len())?;
    let mut coo = CooMatrix::new(w.rows, w.cols);
    coo.reserve(values.len());
    for ((&r, &c), &v) in rows.iter().zip(cols).zip(values) {
        coo.push_unchecked(w.at("row", r, w.start, w.rows)?, w.at("column", c, 0, w.cols)?, v);
    }
    Ok(coo.to_csr())
}

/// CSR: `row_ptr` over the window's rows, global column indices.
///
/// Arrays that are already normal — sorted rows, no duplicates, every
/// index in range, which is what an assembler hands the port — become the
/// matrix as they are. Anything else goes through COO, which sorts each
/// row, sums duplicates and reports what is out of range; on normal input
/// that route produces exactly the same arrays.
pub fn decode_csr(
    w: Window,
    values: &[f64],
    row_ptr: &[usize],
    col_idx: &[usize],
) -> SparseResult<CsrMatrix> {
    let (rows, cols) = (w.rows, w.cols);
    let ptr: Vec<usize> = row_ptr.iter().map(|&p| p.wrapping_sub(w.base)).collect();
    let cidx: Vec<usize> = col_idx.iter().map(|&c| c.wrapping_sub(w.base)).collect();
    if CsrMatrix::check_parts(rows, cols, values.len(), &ptr, &cidx).is_ok() {
        return Ok(CsrMatrix::from_parts_unchecked(rows, cols, ptr, cidx, values.to_vec()));
    }
    // The fallback walks the arrays by position, so their lengths come
    // first: a short array is a typed error, not an index panic.
    expect_len("CSR row pointers", rows + 1, ptr.len())?;
    expect_len("CSR column indices", values.len(), cidx.len())?;
    let mut coo = CooMatrix::new(rows, cols);
    for r in 0..rows {
        let (lo, hi) = (ptr[r], ptr[r + 1]);
        if lo > hi || hi > values.len() {
            return Err(SparseError::MalformedPointers("row pointer out of range"));
        }
        for k in lo..hi {
            coo.push(r, cidx[k], values[k])?;
        }
    }
    Ok(coo.to_csr())
}

/// MSR (SPARSKIT layout): `val[..rows]` is the diagonal, local row `i`
/// sitting in global column `start + i`; `ja[..=rows]` points into the
/// off-diagonal entries after slot `rows`, whose columns are global.
pub fn decode_msr(w: Window, val: &[f64], ja: &[usize]) -> SparseResult<CsrMatrix> {
    let n = w.rows;
    w.check_diagonal()?;
    expect_len("MSR ja", val.len(), ja.len())?;
    if val.len() <= n {
        let got = val.len();
        return Err(SparseError::LengthMismatch { what: "MSR val", expected: n + 1, got });
    }
    if ja[0].checked_sub(w.base) != Some(n + 1) {
        return Err(SparseError::MalformedPointers("MSR ja[0] must point just past the diagonal"));
    }
    w.check_pointers(&ja[..=n], n + 1, val.len())?;
    for &c in &ja[n + 1..ja[n] - w.base] {
        w.at("column", c, 0, w.cols)?;
    }
    let mut coo = CooMatrix::new(n, w.cols);
    coo.reserve(ja[n] - w.base - 1);
    for i in 0..n {
        if val[i] != 0.0 {
            coo.push_unchecked(i, w.start + i, val[i]);
        }
        for k in ja[i] - w.base..ja[i + 1] - w.base {
            coo.push_unchecked(i, ja[k] - w.base, val[k]);
        }
    }
    Ok(coo.to_csr())
}

/// VBR with a uniform block size `bs`: `bptr` points, per block row, into
/// `bindx`, the global block columns; `values` holds each stored block
/// column-major, `bs²` values a block.
pub fn decode_vbr(
    w: Window,
    bs: usize,
    values: &[f64],
    bptr: &[usize],
    bindx: &[usize],
) -> SparseResult<CsrMatrix> {
    check_block_size("VBR block size", bs, &[w.start, w.rows, w.cols])?;
    let nbr = w.rows / bs;
    expect_len("VBR block-row pointers", nbr + 1, bptr.len())?;
    w.check_pointers(bptr, 0, bindx.len())?;
    let (first, nblocks) = (bptr[0] - w.base, bptr[nbr] - w.base);
    let block = bs.saturating_mul(bs);
    expect_len("VBR values", nblocks.saturating_mul(block), values.len())?;
    for &bc in &bindx[first..nblocks] {
        w.at("block column", bc, 0, w.cols / bs)?;
    }
    let mut coo = CooMatrix::new(w.rows, w.cols);
    coo.reserve(values.len());
    for br in 0..nbr {
        for k in bptr[br] - w.base..bptr[br + 1] - w.base {
            let bc = bindx[k] - w.base;
            for (lc, column) in values[k * block..(k + 1) * block].chunks_exact(bs).enumerate() {
                for (lr, &v) in column.iter().enumerate() {
                    if v != 0.0 {
                        coo.push_unchecked(br * bs + lr, bc * bs + lc, v);
                    }
                }
            }
        }
    }
    Ok(coo.to_csr())
}

/// FEM elements of uniform arity `k`: `conn` lists each element's `k`
/// global dofs, `values` its `k × k` matrix row-major. Every dof must be
/// a row of the window.
pub fn decode_fem(w: Window, k: usize, values: &[f64], conn: &[usize]) -> SparseResult<CsrMatrix> {
    check_block_size("FEM element arity", k, &[conn.len()])?;
    w.check_diagonal()?;
    expect_len("FEM element matrices", conn.len().saturating_mul(k), values.len())?;
    for &d in conn {
        w.at("dof", d, w.start, w.rows)?;
    }
    let mut coo = CooMatrix::new(w.rows, w.cols);
    coo.reserve(values.len());
    for (dofs, matrix) in conn.chunks_exact(k).zip(values.chunks_exact(k.saturating_mul(k))) {
        for (&gi, row) in dofs.iter().zip(matrix.chunks_exact(k)) {
            for (&gj, &v) in dofs.iter().zip(row) {
                if v != 0.0 {
                    coo.push_unchecked(gi - w.base - w.start, gj - w.base, v);
                }
            }
        }
    }
    Ok(coo.to_csr())
}

/// This rank's block as MSR arrays `(val, ja)` at index base 0. The
/// diagonal of local row `i` is global column `start + i`; a missing
/// diagonal is stored as a zero.
pub fn csr_to_msr(local: &CsrMatrix, start: usize) -> SparseResult<(Vec<f64>, Vec<usize>)> {
    let n = local.rows();
    Window { start, rows: n, cols: local.cols(), base: 0 }.check_diagonal()?;
    let mut val = vec![0.0; n + 1];
    let mut ja = vec![n + 1; n + 1];
    for i in 0..n {
        let (cols, vals) = local.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            if c == start + i {
                val[i] = v;
            } else {
                val.push(v);
                ja.push(c);
            }
        }
        ja[i + 1] = ja.len();
    }
    Ok((val, ja))
}

/// This rank's block as uniform-VBR arrays `(values, bptr, bindx)` at
/// index base 0: every `bs × bs` block holding an entry is stored whole,
/// column-major, in ascending block-column order.
pub fn csr_to_vbr(
    local: &CsrMatrix,
    bs: usize,
) -> SparseResult<(Vec<f64>, Vec<usize>, Vec<usize>)> {
    let (rows, cols) = local.shape();
    check_block_size("VBR block size", bs, &[rows, cols])?;
    let (mut values, mut bptr, mut bindx) = (Vec::new(), vec![0], Vec::new());
    // slot[bc]: where block column bc of the current block row sits in bindx.
    let mut slot = vec![0usize; cols / bs];
    let mut present = Vec::new();
    for band in 0..rows / bs {
        let band_rows = band * bs..(band + 1) * bs;
        present.clear();
        present.extend(band_rows.clone().flat_map(|r| local.row(r).0.iter().map(|&c| c / bs)));
        present.sort_unstable();
        present.dedup();
        for &bc in &present {
            slot[bc] = bindx.len();
            bindx.push(bc);
        }
        values.resize(bindx.len() * bs * bs, 0.0);
        for (lr, r) in band_rows.enumerate() {
            let (cs, vs) = local.row(r);
            for (&c, &v) in cs.iter().zip(vs) {
                values[slot[c / bs] * bs * bs + (c % bs) * bs + lr] = v;
            }
        }
        bptr.push(bindx.len());
    }
    Ok((values, bptr, bindx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn one_based_coo_arrays_convert() {
        // Fortran-style 1-based triplets for [[1,2],[0,3]].
        let w = Window { base: 1, ..Window::serial(2) };
        let a = decode_coo(w, &[1.0, 2.0, 3.0], &[1, 1, 2], &[1, 2, 2]).unwrap();
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.get(1, 1), 3.0);
        assert_eq!(a.nnz(), 3);
    }

    /// [`decode_csr`] over all `rows` of a matrix `cols` wide.
    fn csr(rows: usize, cols: usize, v: &[f64], p: &[usize], c: &[usize], base: usize) -> Csr {
        decode_csr(Window { start: 0, rows, cols, base }, v, p, c)
    }
    type Csr = SparseResult<CsrMatrix>;

    #[test]
    fn one_based_csr_arrays_convert() {
        // Same matrix in 1-based CSR.
        let a = csr(2, 2, &[1.0, 2.0, 3.0], &[1, 3, 4], &[1, 2, 2], 1).unwrap();
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.get(1, 1), 3.0);
    }

    #[test]
    fn unsorted_csr_input_is_normalized() {
        // Columns out of order within the row; must come out sorted.
        let a = csr(1, 3, &[5.0, 1.0], &[0, 2], &[2, 0], 0).unwrap();
        assert_eq!(a.col_idx(), &[0, 2]);
        assert_eq!(a.values(), &[1.0, 5.0]);
    }

    #[test]
    fn normal_csr_arrays_become_the_matrix_the_coo_route_builds() {
        // Rectangular, with empty rows, at both index bases.
        let a = generate::random_csr(30, 40, 0.05, 11);
        assert!(a.row_ptr().windows(2).any(|w| w[0] == w[1]));
        for offset in [0, 1] {
            let ptr: Vec<usize> = a.row_ptr().iter().map(|p| p + offset).collect();
            let cols: Vec<usize> = a.col_idx().iter().map(|c| c + offset).collect();
            let direct = csr(30, 40, a.values(), &ptr, &cols, offset).unwrap();
            let rows: Vec<usize> =
                (0..30).flat_map(|r| std::iter::repeat_n(r + offset, a.row(r).0.len())).collect();
            let w = Window { start: 0, rows: 30, cols: 40, base: offset };
            let via_coo = decode_coo(w, a.values(), &rows, &cols).unwrap();
            assert_eq!(direct, via_coo, "offset {offset}");
            assert_eq!(direct, a, "offset {offset}");
        }
    }

    #[test]
    fn csr_arrays_that_are_not_normal_take_the_coo_route() {
        // A duplicate column is summed, like a repeated COO triplet.
        let a = csr(1, 3, &[5.0, 1.0, 2.0], &[0, 3], &[2, 0, 2], 0).unwrap();
        assert_eq!((a.col_idx(), a.values()), (&[0, 2][..], &[1.0, 7.0][..]));
        // A column past the width is the COO push's typed error, in a
        // sorted row as in an unsorted one.
        for cols in [[0, 3], [3, 0]] {
            assert!(matches!(
                csr(1, 3, &[1.0, 2.0], &[0, 2], &cols, 0),
                Err(SparseError::IndexOutOfBounds { axis: "column", index: 3, bound: 3 })
            ));
        }
        // So is a 0 under index base 1 (it wraps).
        assert!(matches!(
            csr(1, 3, &[1.0], &[1, 2], &[0], 1),
            Err(SparseError::IndexOutOfBounds { axis: "column", .. })
        ));
        // Pointers that do not start at 0 skip the entries before them.
        let a = csr(1, 2, &[9.0, 5.0], &[1, 2], &[0, 1], 0).unwrap();
        assert_eq!((a.row_ptr(), a.col_idx(), a.values()), (&[0, 1][..], &[1][..], &[5.0][..]));
        // Pointers that stop short of the arrays ignore the rest.
        let a = csr(1, 2, &[9.0, 5.0], &[0, 1], &[0, 1], 0).unwrap();
        assert_eq!((a.col_idx(), a.values()), (&[0][..], &[9.0][..]));
    }

    #[test]
    fn bad_row_pointers_are_rejected() {
        assert!(csr(1, 2, &[1.0], &[0, 9], &[0], 0).is_err());
        assert!(csr(2, 2, &[1.0], &[0, 1, 0], &[0], 0).is_err());
    }

    #[test]
    fn short_csr_arrays_are_typed_errors_not_index_panics() {
        use crate::error::SparseError::LengthMismatch;
        // A row pointer array shorter (and longer, and empty) than rows + 1.
        for ptr in [&[0, 1][..], &[0, 1, 2, 2], &[]] {
            assert!(matches!(
                csr(2, 2, &[1.0, 2.0], ptr, &[0, 1], 0),
                Err(LengthMismatch { what: "CSR row pointers", expected: 3, .. })
            ));
        }
        // Fewer column indices than values, in a sorted row and under
        // index base 1.
        assert!(matches!(
            csr(1, 3, &[1.0, 2.0, 3.0], &[0, 3], &[0, 1], 0),
            Err(LengthMismatch { what: "CSR column indices", expected: 3, got: 2 })
        ));
        assert!(matches!(
            csr(2, 2, &[1.0, 2.0], &[1, 2, 3], &[1], 1),
            Err(LengthMismatch { what: "CSR column indices", expected: 2, got: 1 })
        ));
    }

    #[test]
    fn msr_arrays_round_trip() {
        let a = generate::random_diag_dominant(10, 3, 2);
        let (val, ja) = csr_to_msr(&a, 0).unwrap();
        assert_eq!(decode_msr(Window::serial(10), &val, &ja).unwrap(), a);
    }

    #[test]
    fn zero_diagonal_is_stored_densely_but_dropped_on_csr() {
        // [ 0 2 ]
        // [ 0 5 ]   with an explicit zero off the diagonal at (1, 0).
        let a =
            CsrMatrix::from_parts(2, 2, vec![0, 1, 3], vec![1, 0, 1], vec![2.0, 0.0, 5.0]).unwrap();
        let (val, ja) = csr_to_msr(&a, 0).unwrap();
        assert_eq!((&val[..], &ja[..]), (&[0.0, 5.0, 0.0, 2.0, 0.0][..], &[3, 4, 5, 1, 0][..]));
        let back = decode_msr(Window::serial(2), &val, &ja).unwrap();
        assert_eq!((back.row_ptr(), back.col_idx()), (&[0, 1, 3][..], &[1, 0, 1][..]));
        // The diagonal of a window whose columns end before its rows do
        // has nowhere to go.
        assert!(matches!(
            csr_to_msr(&CsrMatrix::identity(2), 1),
            Err(SparseError::OutOfWindow { axis: "diagonal column", index: 2, lo: 0, hi: 2 })
        ));
    }

    #[test]
    fn uniform_vbr_round_trips() {
        let a = generate::random_csr(10, 10, 0.2, 8);
        for bs in [1usize, 2, 5, 10] {
            let (v, p, c) = csr_to_vbr(&a, bs).unwrap();
            assert_eq!(decode_vbr(Window::serial(10), bs, &v, &p, &c).unwrap(), a, "bs = {bs}");
        }
        for bs in [0usize, 3, 4, 99] {
            assert!(matches!(csr_to_vbr(&a, bs), Err(SparseError::BadBlockPartition(_))));
        }
    }

    #[test]
    fn malformed_arrays_are_typed_errors() {
        use SparseError::*;
        let w = Window { start: 2, rows: 2, cols: 4, base: 1 };
        // COO: a row outside the window, a column outside the matrix.
        assert!(matches!(
            decode_coo(w, &[1.0], &[2], &[1]),
            Err(OutOfWindow { axis: "row", index: 2, lo: 3, hi: 5 })
        ));
        assert!(matches!(
            decode_coo(w, &[1.0], &[3], &[0]),
            Err(OutOfWindow { axis: "column", index: 0, lo: 1, hi: 5 })
        ));
        // MSR: ja[0] not just past the diagonal, a decreasing pointer, a
        // pointer past val.
        for ja in [[3, 4, 4, 1], [4, 5, 4, 1], [4, 4, 6, 1]] {
            assert!(matches!(decode_msr(w, &[1.0; 4], &ja), Err(MalformedPointers(_))), "{ja:?}");
        }
        // VBR: a block-row pointer past the blocks, a decreasing one, a
        // block column past the width, a block size that does not divide.
        let vbr = |bptr: &[usize], bindx: &[usize], n_values| {
            decode_vbr(Window::serial(4), 2, &vec![1.0; n_values], bptr, bindx)
        };
        assert!(matches!(vbr(&[0, 3, 2], &[0, 1], 8), Err(MalformedPointers(_))));
        assert!(matches!(vbr(&[0, 2, 1], &[0, 1], 4), Err(MalformedPointers(_))));
        assert!(matches!(
            vbr(&[0, 1, 1], &[2], 4),
            Err(OutOfWindow { axis: "block column", index: 2, lo: 0, hi: 2 })
        ));
        assert!(matches!(vbr(&[0, 1, 1], &[0], 3), Err(LengthMismatch { what: "VBR values", .. })));
        assert!(matches!(decode_vbr(w, 3, &[], &[1, 1], &[]), Err(BadBlockPartition(_))));
        // FEM: connectivity not a multiple of the arity, a dof ≥ n, too
        // few element values.
        let serial = Window::serial(3);
        assert!(matches!(decode_fem(serial, 2, &[1.0; 4], &[0, 1, 2]), Err(BadBlockPartition(_))));
        assert!(matches!(
            decode_fem(serial, 2, &[1.0; 4], &[0, 3]),
            Err(OutOfWindow { axis: "dof", index: 3, lo: 0, hi: 3 })
        ));
        assert!(matches!(decode_fem(serial, 2, &[1.0; 3], &[0, 1]), Err(LengthMismatch { .. })));
    }
}
