//! The virtual-matrix trait and its assembled implementation.

use std::sync::Arc;

use rcomm::Communicator;

use crate::map::Map;
use crate::vector::Vector;
use crate::{AztecError, AztecResult};

/// RAztec's `Epetra_RowMatrix`: anything that can (a) multiply a vector
/// and (b) optionally reveal rows/diagonal for preconditioner setup.
///
/// Applications implement this trait to get **matrix-free** solves — the
/// mechanism paper §5.5 describes for Trilinos. Only [`RowMatrix::apply`]
/// is required; the row/diagonal accessors have "not available" defaults
/// that restrict which preconditioners can be used.
pub trait RowMatrix: Send + Sync {
    /// The row (and domain — matrices here are square) map.
    fn row_map(&self) -> &Map;

    /// y ← A·x. Collective.
    fn apply(&self, comm: &Communicator, x: &Vector, y: &mut Vector) -> AztecResult<()>;

    /// Copy local row `lid` (global column ids) into the buffers, returning
    /// the entry count, or `None` when the implementation has no assembled
    /// rows.
    fn extract_my_row(
        &self,
        _lid: usize,
        _cols: &mut Vec<usize>,
        _vals: &mut Vec<f64>,
    ) -> Option<usize> {
        None
    }

    /// This rank's slice of the main diagonal, if available.
    fn extract_diagonal(&self) -> Option<Vec<f64>> {
        None
    }

    /// Global nonzero count, if known.
    fn num_global_nonzeros(&self) -> Option<usize> {
        None
    }
}

/// An assembled distributed compressed-row matrix (`Epetra_CrsMatrix`).
/// Backed by the substrate's halo-exchanging distributed CSR.
#[derive(Debug, Clone)]
pub struct CrsMatrix {
    map: Map,
    inner: rsparse::DistCsrMatrix,
}

impl CrsMatrix {
    /// Build from this rank's rows (global column indices); shared rows
    /// are kept, not copied. Collective.
    pub fn from_local_rows(
        comm: &Communicator,
        map: Map,
        local: impl Into<Arc<rsparse::CsrMatrix>>,
    ) -> AztecResult<Self> {
        let inner = rsparse::DistCsrMatrix::from_local_rows(comm, map.partition().clone(), local)?;
        Ok(CrsMatrix { map, inner })
    }

    /// Distribute a replicated global matrix. Collective.
    pub fn from_global(comm: &Communicator, global: &rsparse::CsrMatrix) -> AztecResult<Self> {
        let map = Map::new(global.rows(), comm);
        let inner = rsparse::DistCsrMatrix::from_global(comm, map.partition().clone(), global)?;
        Ok(CrsMatrix { map, inner })
    }

    /// The underlying distributed matrix.
    pub fn inner(&self) -> &rsparse::DistCsrMatrix {
        &self.inner
    }

    /// Local nonzero count.
    pub fn num_my_nonzeros(&self) -> usize {
        self.inner.local_nnz()
    }
}

impl RowMatrix for CrsMatrix {
    fn row_map(&self) -> &Map {
        &self.map
    }

    fn apply(&self, comm: &Communicator, x: &Vector, y: &mut Vector) -> AztecResult<()> {
        if !x.map().same_as(&self.map) || !y.map().same_as(&self.map) {
            return Err(AztecError::MapMismatch("apply operand maps differ".into()));
        }
        // A `Vector` on this map *is* a substrate vector on the matrix's
        // partition: multiply it where it lies.
        self.inner.matvec_into(comm, x.dist(), y.dist_mut())?;
        Ok(())
    }

    fn extract_my_row(
        &self,
        lid: usize,
        cols: &mut Vec<usize>,
        vals: &mut Vec<f64>,
    ) -> Option<usize> {
        let local = self.inner.local_matrix();
        if lid >= local.rows() {
            return None;
        }
        let (c, v) = local.row(lid);
        cols.clear();
        vals.clear();
        cols.extend_from_slice(c);
        vals.extend_from_slice(v);
        Some(c.len())
    }

    fn extract_diagonal(&self) -> Option<Vec<f64>> {
        Some(self.inner.diagonal_local())
    }

    fn num_global_nonzeros(&self) -> Option<usize> {
        None // would need a reduction; kept lazy like Epetra's cached count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcomm::Universe;
    use rsparse::generate;

    #[test]
    fn crs_apply_matches_serial() {
        let n = 12;
        let a = generate::laplacian_1d(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25).collect();
        let expect = a.matvec(&x).unwrap();
        let out = Universe::run(3, |comm| {
            let m = CrsMatrix::from_global(comm, &a).unwrap();
            let xv = Vector::from_global(m.row_map().clone(), &x).unwrap();
            let mut yv = Vector::new(m.row_map().clone());
            m.apply(comm, &xv, &mut yv).unwrap();
            yv.gather_all(comm).unwrap()
        });
        for got in out {
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn apply_rejects_foreign_maps_and_leaves_y_untouched() {
        let a = generate::laplacian_1d(12);
        let out = Universe::run(2, |comm| {
            let m = CrsMatrix::from_global(comm, &a).unwrap();
            let ours = m.row_map().clone();
            // Same global length, different layout; and a different length.
            let skewed = Map::from_partition(
                rsparse::BlockRowPartition::from_offsets(vec![0, 5, 12]).unwrap(),
                comm.rank(),
            );
            let longer = Map::new(13, comm);
            let mut verdicts = Vec::new();
            for other in [skewed, longer] {
                let mut x = Vector::new(other.clone());
                x.put_scalar(1.0);
                let mut y = Vector::new(ours.clone());
                y.put_scalar(7.0);
                verdicts.push(matches!(m.apply(comm, &x, &mut y), Err(AztecError::MapMismatch(_))));
                verdicts.push(y.values().iter().all(|&v| v == 7.0));

                let mut x = Vector::new(ours.clone());
                x.put_scalar(1.0);
                let mut y = Vector::new(other);
                y.put_scalar(7.0);
                verdicts.push(matches!(m.apply(comm, &x, &mut y), Err(AztecError::MapMismatch(_))));
                verdicts.push(y.values().iter().all(|&v| v == 7.0));
            }
            verdicts
        });
        for verdicts in out {
            assert_eq!(verdicts, vec![true; 8]);
        }
    }

    #[test]
    fn row_extraction_returns_global_columns() {
        let a = generate::laplacian_1d(6);
        let out = Universe::run(2, |comm| {
            let m = CrsMatrix::from_global(comm, &a).unwrap();
            let mut cols = Vec::new();
            let mut vals = Vec::new();
            let n = m.extract_my_row(0, &mut cols, &mut vals).unwrap();
            (n, cols, vals, m.extract_diagonal().unwrap(), m.num_my_nonzeros())
        });
        // Rank 0 row 0 is global row 0: [2, -1] at cols [0, 1].
        assert_eq!(out[0].0, 2);
        assert_eq!(out[0].1, vec![0, 1]);
        // Rank 1 row 0 is global row 3: [-1, 2, -1] at cols [2, 3, 4].
        assert_eq!(out[1].0, 3);
        assert_eq!(out[1].1, vec![2, 3, 4]);
        for (_, _, _, diag, _) in &out {
            assert!(diag.iter().all(|&d| d == 2.0));
        }
    }

    #[test]
    fn matrix_free_row_matrix_works_via_trait() {
        // A user-defined operator: tridiagonal stencil applied on the fly.
        struct Stencil {
            map: Map,
        }
        impl RowMatrix for Stencil {
            fn row_map(&self) -> &Map {
                &self.map
            }
            fn apply(&self, comm: &Communicator, x: &Vector, y: &mut Vector) -> AztecResult<()> {
                // Gather the full vector (small problems only — fine for a
                // test of the trait path).
                let full = x.gather_all(comm)?;
                let lo = self.map.min_my_gid();
                let n = full.len();
                for (li, yi) in y.values_mut().iter_mut().enumerate() {
                    let g = lo + li;
                    let mut acc = 2.0 * full[g];
                    if g > 0 {
                        acc -= full[g - 1];
                    }
                    if g + 1 < n {
                        acc -= full[g + 1];
                    }
                    *yi = acc;
                }
                Ok(())
            }
        }

        let n = 9;
        let a = generate::laplacian_1d(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let expect = a.matvec(&x).unwrap();
        let out = Universe::run(3, |comm| {
            let map = Map::new(n, comm);
            let op = Stencil { map: map.clone() };
            assert!(op.extract_diagonal().is_none());
            let mut cols = vec![];
            let mut vals = vec![];
            assert!(op.extract_my_row(0, &mut cols, &mut vals).is_none());
            let xv = Vector::from_global(map.clone(), &x).unwrap();
            let mut yv = Vector::new(map);
            op.apply(comm, &xv, &mut yv).unwrap();
            yv.gather_all(comm).unwrap()
        });
        for got in out {
            for (g, e) in got.iter().zip(&expect) {
                assert!((g - e).abs() < 1e-13);
            }
        }
    }
}
