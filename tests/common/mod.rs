//! Helpers shared by the root integration tests.

use cca_lisi::lisi::SparseStruct;
use cca_lisi::sparse::{convert, CsrMatrix};

/// `local`, rows `start..` of a matrix, as the arrays `(values, rows,
/// columns)` that `setupMatrix` takes for `structure` at index base
/// `base`. VBR uses `bs × bs` blocks. FEM writes one arity-2 element
/// `[start + i, j]` per entry, its value at element position (0, 1).
pub fn port_arrays(
    structure: SparseStruct,
    local: &CsrMatrix,
    start: usize,
    bs: usize,
    base: usize,
) -> (Vec<f64>, Vec<usize>, Vec<usize>) {
    let (values, rows, cols) = match structure {
        SparseStruct::Csr => {
            (local.values().to_vec(), local.row_ptr().to_vec(), local.col_idx().to_vec())
        }
        SparseStruct::Coo => {
            let coo = local.to_coo();
            let (r, c, v) = coo.triplets();
            (v.to_vec(), r.iter().map(|r| r + start).collect(), c.to_vec())
        }
        SparseStruct::Msr => {
            let (val, ja) = convert::csr_to_msr(local, start).unwrap();
            (val, vec![], ja)
        }
        SparseStruct::Vbr => convert::csr_to_vbr(local, bs).unwrap(),
        SparseStruct::Fem => {
            let values = local.iter().flat_map(|(_, _, v)| [0.0, v, 0.0, 0.0]).collect();
            let conn = local.iter().flat_map(|(i, j, _)| [start + i, j]).collect();
            (values, vec![], conn)
        }
    };
    let shift = |a: Vec<usize>| a.into_iter().map(|i| i + base).collect();
    (values, shift(rows), shift(cols))
}
