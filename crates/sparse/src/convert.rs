//! Format-to-format conversion helpers and `From` impls.
//!
//! The paper (§5.3) notes that "none of the sparse linear solver packages
//! provides support for all formats"; LISI's adapters therefore convert at
//! the interface boundary. This module is that conversion layer: any of
//! COO/CSR/CSC/MSR/VBR/FEM can reach CSR (every package's native ingest
//! format here), and CSR can reach any of them back.

use crate::coo::CooMatrix;
use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseResult;
use crate::fem::FemAssembly;
use crate::msr::MsrMatrix;
use crate::vbr::VbrMatrix;

impl From<&CooMatrix> for CsrMatrix {
    fn from(m: &CooMatrix) -> Self {
        m.to_csr()
    }
}

impl From<&CsrMatrix> for CooMatrix {
    fn from(m: &CsrMatrix) -> Self {
        m.to_coo()
    }
}

impl From<&CscMatrix> for CsrMatrix {
    fn from(m: &CscMatrix) -> Self {
        m.to_csr()
    }
}

impl From<&CsrMatrix> for CscMatrix {
    fn from(m: &CsrMatrix) -> Self {
        m.to_csc()
    }
}

impl From<&FemAssembly> for CsrMatrix {
    fn from(m: &FemAssembly) -> Self {
        m.to_csr()
    }
}

/// Convert raw COO triplet arrays with a given index base (`offset` = 0 for
/// C-style, 1 for Fortran-style numbering — LISI's `setupMatrix[large_args]`
/// carries exactly this `Offset` argument).
pub fn coo_arrays_to_csr(
    rows: usize,
    cols: usize,
    values: &[f64],
    row_idx: &[usize],
    col_idx: &[usize],
    offset: usize,
) -> SparseResult<CsrMatrix> {
    let r: Vec<usize> = row_idx.iter().map(|&i| i.wrapping_sub(offset)).collect();
    let c: Vec<usize> = col_idx.iter().map(|&i| i.wrapping_sub(offset)).collect();
    Ok(CooMatrix::from_triplets(rows, cols, &r, &c, values)?.to_csr())
}

/// Convert raw CSR arrays (`row_ptr` of length `rows + 1`) with an index
/// base applied to both pointers and column indices.
///
/// Arrays that are already normal — sorted rows, no duplicates, every
/// index in range, which is what an assembler hands the port — become the
/// matrix as they are. Anything else goes through COO, which sorts each
/// row, sums duplicates and reports what is out of range; on normal input
/// that route produces exactly the same arrays.
pub fn csr_arrays_to_csr(
    rows: usize,
    cols: usize,
    values: &[f64],
    row_ptr: &[usize],
    col_idx: &[usize],
    offset: usize,
) -> SparseResult<CsrMatrix> {
    let ptr: Vec<usize> = row_ptr.iter().map(|&p| p.wrapping_sub(offset)).collect();
    let cidx: Vec<usize> = col_idx.iter().map(|&c| c.wrapping_sub(offset)).collect();
    if CsrMatrix::check_parts(rows, cols, values.len(), &ptr, &cidx).is_ok() {
        return Ok(CsrMatrix::from_parts_unchecked(
            rows,
            cols,
            ptr,
            cidx,
            values.to_vec(),
        ));
    }
    // The fallback walks the arrays by position, so their lengths come
    // first: a short array is a typed error, not an index panic.
    for (what, expected, got) in [
        ("CSR row pointers", rows + 1, ptr.len()),
        ("CSR column indices", values.len(), cidx.len()),
    ] {
        if expected != got {
            return Err(crate::error::SparseError::LengthMismatch { what, expected, got });
        }
    }
    let mut coo = CooMatrix::new(rows, cols);
    for r in 0..rows {
        let (lo, hi) = (ptr[r], ptr[r + 1]);
        if lo > hi || hi > values.len() {
            return Err(crate::error::SparseError::MalformedPointers(
                "row pointer out of range",
            ));
        }
        for k in lo..hi {
            coo.push(r, cidx[k], values[k])?;
        }
    }
    Ok(coo.to_csr())
}

/// Convert raw MSR arrays to CSR with an index base.
pub fn msr_arrays_to_csr(
    n: usize,
    values: &[f64],
    ja: &[usize],
    offset: usize,
) -> SparseResult<CsrMatrix> {
    // MSR's ja mixes pointers (ja[0..=n], offset-adjusted base n+1) and
    // column indices (ja[n+1..]); both shift by `offset` in Fortran codes.
    let adj: Vec<usize> = ja.iter().map(|&x| x.wrapping_sub(offset)).collect();
    Ok(MsrMatrix::from_parts(n, values.to_vec(), adj)?.to_csr())
}

/// Convert a CSR matrix to VBR given a uniform block size `bs` (the LISI
/// `setBlockSize` parameter); trailing partial blocks are allowed.
pub fn csr_to_vbr_uniform(a: &CsrMatrix, bs: usize) -> SparseResult<VbrMatrix> {
    let (rows, cols) = a.shape();
    let bs = bs.max(1);
    let mk = |n: usize| -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).step_by(bs).collect();
        p.push(n);
        p.dedup();
        p
    };
    VbrMatrix::from_csr(a, &mk(rows), &mk(cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn from_impls_agree_with_methods() {
        let a = generate::random_csr(8, 8, 0.3, 5);
        let coo: CooMatrix = (&a).into();
        let back: CsrMatrix = (&coo).into();
        assert_eq!(back, a);
        let csc: CscMatrix = (&a).into();
        let back2: CsrMatrix = (&csc).into();
        assert_eq!(back2, a);
    }

    #[test]
    fn one_based_coo_arrays_convert() {
        // Fortran-style 1-based triplets for [[1,2],[0,3]].
        let a = coo_arrays_to_csr(2, 2, &[1.0, 2.0, 3.0], &[1, 1, 2], &[1, 2, 2], 1).unwrap();
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.get(1, 1), 3.0);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn one_based_csr_arrays_convert() {
        // Same matrix in 1-based CSR.
        let a = csr_arrays_to_csr(2, 2, &[1.0, 2.0, 3.0], &[1, 3, 4], &[1, 2, 2], 1).unwrap();
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.get(1, 1), 3.0);
    }

    #[test]
    fn unsorted_csr_input_is_normalized() {
        // Columns out of order within the row; must come out sorted.
        let a = csr_arrays_to_csr(1, 3, &[5.0, 1.0], &[0, 2], &[2, 0], 0).unwrap();
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
            let direct = csr_arrays_to_csr(30, 40, a.values(), &ptr, &cols, offset).unwrap();
            let rows: Vec<usize> = (0..30)
                .flat_map(|r| std::iter::repeat_n(r + offset, a.row(r).0.len()))
                .collect();
            let via_coo = coo_arrays_to_csr(30, 40, a.values(), &rows, &cols, offset).unwrap();
            assert_eq!(direct, via_coo, "offset {offset}");
            assert_eq!(direct, a, "offset {offset}");
        }
    }

    #[test]
    fn csr_arrays_that_are_not_normal_take_the_coo_route() {
        use crate::error::SparseError;
        // A duplicate column is summed, like a repeated COO triplet.
        let a = csr_arrays_to_csr(1, 3, &[5.0, 1.0, 2.0], &[0, 3], &[2, 0, 2], 0).unwrap();
        assert_eq!((a.col_idx(), a.values()), (&[0, 2][..], &[1.0, 7.0][..]));
        // A column past the width is the COO push's typed error, in a
        // sorted row as in an unsorted one.
        for cols in [[0, 3], [3, 0]] {
            assert!(matches!(
                csr_arrays_to_csr(1, 3, &[1.0, 2.0], &[0, 2], &cols, 0),
                Err(SparseError::IndexOutOfBounds {
                    axis: "column",
                    index: 3,
                    bound: 3
                })
            ));
        }
        // So is a 0 under index base 1 (it wraps).
        assert!(matches!(
            csr_arrays_to_csr(1, 3, &[1.0], &[1, 2], &[0], 1),
            Err(SparseError::IndexOutOfBounds { axis: "column", .. })
        ));
        // Pointers that do not start at 0 skip the entries before them.
        let a = csr_arrays_to_csr(1, 2, &[9.0, 5.0], &[1, 2], &[0, 1], 0).unwrap();
        assert_eq!(
            (a.row_ptr(), a.col_idx(), a.values()),
            (&[0, 1][..], &[1][..], &[5.0][..])
        );
        // Pointers that stop short of the arrays ignore the rest.
        let a = csr_arrays_to_csr(1, 2, &[9.0, 5.0], &[0, 1], &[0, 1], 0).unwrap();
        assert_eq!((a.col_idx(), a.values()), (&[0][..], &[9.0][..]));
    }

    #[test]
    fn bad_row_pointers_are_rejected() {
        assert!(csr_arrays_to_csr(1, 2, &[1.0], &[0, 9], &[0], 0).is_err());
        assert!(csr_arrays_to_csr(2, 2, &[1.0], &[0, 1, 0], &[0], 0).is_err());
    }

    #[test]
    fn short_csr_arrays_are_typed_errors_not_index_panics() {
        use crate::error::SparseError::LengthMismatch;
        // A row pointer array shorter (and longer, and empty) than rows + 1.
        for ptr in [&[0, 1][..], &[0, 1, 2, 2], &[]] {
            assert!(matches!(
                csr_arrays_to_csr(2, 2, &[1.0, 2.0], ptr, &[0, 1], 0),
                Err(LengthMismatch { what: "CSR row pointers", expected: 3, .. })
            ));
        }
        // Fewer column indices than values, in a sorted row and under
        // index base 1.
        assert!(matches!(
            csr_arrays_to_csr(1, 3, &[1.0, 2.0, 3.0], &[0, 3], &[0, 1], 0),
            Err(LengthMismatch { what: "CSR column indices", expected: 3, got: 2 })
        ));
        assert!(matches!(
            csr_arrays_to_csr(2, 2, &[1.0, 2.0], &[1, 2, 3], &[1], 1),
            Err(LengthMismatch { what: "CSR column indices", expected: 2, got: 1 })
        ));
    }

    #[test]
    fn msr_arrays_round_trip() {
        let a = generate::random_diag_dominant(10, 3, 2);
        let m = MsrMatrix::from_csr(&a).unwrap();
        let (val, ja) = m.parts();
        let back = msr_arrays_to_csr(10, val, ja, 0).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn uniform_vbr_round_trips() {
        let a = generate::random_csr(10, 10, 0.2, 8);
        for bs in [1usize, 2, 3, 4, 10, 99] {
            let v = csr_to_vbr_uniform(&a, bs).unwrap();
            assert_eq!(v.to_csr(), a, "bs = {bs}");
        }
    }
}
