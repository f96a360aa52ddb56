//! RAztec preconditioners: Jacobi scaling, Neumann-series polynomial, and
//! local symmetric Gauss–Seidel — the classic AztecOO set (`AZ_Jacobi`,
//! `AZ_Neumann`, `AZ_sym_GS`).

use rcomm::Communicator;
use rsparse::dense::DiagonalScale;
use rsparse::SparseError;

use crate::rowmatrix::RowMatrix;
use crate::vector::Vector;
use crate::{AztecError, AztecResult};

/// Internal preconditioner object built by [`crate::AztecOO`] from the
/// option enum, once per `iterate`; an apply may use scratch the object
/// holds.
pub(crate) trait AzPc: Send + Sync {
    fn apply(&mut self, comm: &Communicator, r: &Vector, z: &mut Vector) -> AztecResult<()>;
}

/// No preconditioning.
pub(crate) struct NoPc;

impl AzPc for NoPc {
    fn apply(&mut self, _comm: &Communicator, r: &Vector, z: &mut Vector) -> AztecResult<()> {
        z.values_mut().copy_from_slice(r.values());
        Ok(())
    }
}

/// The inverse of `a`'s local diagonal, for the preconditioner `name`.
fn diagonal_scale(a: &dyn RowMatrix, name: &str) -> AztecResult<DiagonalScale> {
    let d = a
        .extract_diagonal()
        .ok_or_else(|| AztecError::BadOption(format!("{name} needs a matrix diagonal")))?;
    DiagonalScale::new(d).map_err(|e| match e {
        SparseError::ZeroPivot { row } => {
            AztecError::Sparse(format!("zero diagonal at local row {row}"))
        }
        other => other.into(),
    })
}

/// Jacobi scaling (k steps of damped point-Jacobi with zero initial guess
/// collapse to one diagonal solve; Aztec exposes the single-step form).
pub(crate) struct JacobiPc {
    scale: DiagonalScale,
}

impl JacobiPc {
    pub(crate) fn new(a: &dyn RowMatrix) -> AztecResult<Self> {
        Ok(JacobiPc { scale: diagonal_scale(a, "Jacobi")? })
    }
}

impl AzPc for JacobiPc {
    fn apply(&mut self, _comm: &Communicator, r: &Vector, z: &mut Vector) -> AztecResult<()> {
        self.scale.apply(r.values(), z.values_mut());
        Ok(())
    }
}

/// Neumann-series polynomial preconditioner of order `p`:
/// M⁻¹ = Σ_{k=0}^{p} (I − D⁻¹A)ᵏ · D⁻¹. Works with *any* [`RowMatrix`]
/// (matrix-free included) as long as the diagonal is available — each term
/// costs one matvec. The series term and its product with A are held here,
/// so an apply allocates nothing.
pub(crate) struct NeumannPc<'a> {
    a: &'a dyn RowMatrix,
    scale: DiagonalScale,
    order: usize,
    term: Vector,
    at: Vector,
}

impl<'a> NeumannPc<'a> {
    pub(crate) fn new(a: &'a dyn RowMatrix, order: usize) -> AztecResult<Self> {
        let scale = diagonal_scale(a, "Neumann")?;
        let term = Vector::new(a.row_map().clone());
        let at = Vector::new(a.row_map().clone());
        Ok(NeumannPc { a, scale, order, term, at })
    }
}

impl AzPc for NeumannPc<'_> {
    fn apply(&mut self, comm: &Communicator, r: &Vector, z: &mut Vector) -> AztecResult<()> {
        // term ← D⁻¹·r ; z ← term ; repeat: term ← term − D⁻¹·A·term.
        let NeumannPc { a, scale, order, term, at } = self;
        scale.apply(r.values(), term.values_mut());
        z.values_mut().copy_from_slice(term.values());
        for _ in 0..*order {
            a.apply(comm, term, at)?;
            scale.apply_sub(at.values(), term.values_mut());
            z.update(1.0, term)?;
        }
        Ok(())
    }
}

/// Local symmetric Gauss–Seidel: one forward and one backward sweep on
/// this rank's diagonal block (assembled rows required).
pub(crate) struct SymGsPc {
    /// Local block in local column numbering, CSR arrays.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
    diag_pos: Vec<usize>,
}

impl SymGsPc {
    pub(crate) fn new(a: &dyn RowMatrix) -> AztecResult<Self> {
        let map = a.row_map();
        let n = map.num_my();
        let lo = map.min_my_gid();
        let hi = lo + n;
        let mut row_ptr = vec![0usize; n + 1];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        let mut diag_pos = vec![usize::MAX; n];
        let mut cbuf = Vec::new();
        let mut vbuf = Vec::new();
        for i in 0..n {
            a.extract_my_row(i, &mut cbuf, &mut vbuf).ok_or_else(|| {
                AztecError::BadOption("sym-GS needs assembled matrix rows".into())
            })?;
            for (&c, &v) in cbuf.iter().zip(&vbuf) {
                if (lo..hi).contains(&c) {
                    let lc = c - lo;
                    if lc == i {
                        diag_pos[i] = col_idx.len();
                    }
                    col_idx.push(lc);
                    values.push(v);
                }
            }
            if diag_pos[i] == usize::MAX {
                return Err(AztecError::Sparse(format!("no diagonal in local row {i}")));
            }
            row_ptr[i + 1] = col_idx.len();
        }
        Ok(SymGsPc { row_ptr, col_idx, values, diag_pos })
    }
}

impl AzPc for SymGsPc {
    fn apply(&mut self, _comm: &Communicator, r: &Vector, z: &mut Vector) -> AztecResult<()> {
        let n = self.diag_pos.len();
        let zv = z.values_mut();
        let rv = r.values();
        zv.iter_mut().for_each(|x| *x = 0.0);
        // Forward sweep on (D + L) z = r.
        for i in 0..n {
            let mut acc = rv[i];
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k];
                if j < i {
                    acc -= self.values[k] * zv[j];
                }
            }
            zv[i] = acc / self.values[self.diag_pos[i]];
        }
        // Backward sweep: z ← z + D⁻¹(r − A z) in reverse order (GS).
        for i in (0..n).rev() {
            let mut acc = rv[i];
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k];
                if j != i {
                    acc -= self.values[k] * zv[j];
                }
            }
            zv[i] = acc / self.values[self.diag_pos[i]];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::Map;
    use crate::rowmatrix::CrsMatrix;
    use rcomm::Universe;
    use rsparse::generate;

    #[test]
    fn jacobi_pc_scales_by_diagonal() {
        let a = generate::laplacian_1d(6);
        let out = Universe::run(2, |comm| {
            let m = CrsMatrix::from_global(comm, &a).unwrap();
            let mut pc = JacobiPc::new(&m).unwrap();
            let r = Vector::from_global(m.row_map().clone(), &[4.0; 6]).unwrap();
            let mut z = Vector::new(m.row_map().clone());
            pc.apply(comm, &r, &mut z).unwrap();
            z.gather_all(comm).unwrap()
        });
        for got in out {
            assert_eq!(got, vec![2.0; 6]);
        }
    }

    #[test]
    fn neumann_pc_improves_with_order() {
        let a = generate::random_diag_dominant(30, 3, 5);
        let b = vec![1.0; 30];
        let out = Universe::run(1, |comm| {
            let m = CrsMatrix::from_global(comm, &a).unwrap();
            let r = Vector::from_global(m.row_map().clone(), &b).unwrap();
            let mut rel = Vec::new();
            for order in [0usize, 2, 5] {
                let mut pc = NeumannPc::new(&m, order).unwrap();
                let mut z = Vector::new(m.row_map().clone());
                pc.apply(comm, &r, &mut z).unwrap();
                let res = rsparse::ops::residual(&a, z.values(), &b).unwrap();
                rel.push(rsparse::dense::norm2(&res) / rsparse::dense::norm2(&b));
            }
            rel
        });
        let rel = &out[0];
        assert!(rel[1] < rel[0], "{rel:?}");
        assert!(rel[2] < rel[1], "{rel:?}");
        assert!(rel[2] < 0.05, "order-5 Neumann should be accurate: {rel:?}");
    }

    /// The Neumann apply before its scratch moved into the preconditioner:
    /// a fresh series term and product each call, one inverse a row.
    fn neumann_by_clones(
        comm: &Communicator,
        a: &dyn RowMatrix,
        order: usize,
        r: &Vector,
        z: &mut Vector,
    ) {
        let inv: Vec<f64> = a.extract_diagonal().unwrap().iter().map(|x| 1.0 / x).collect();
        let mut term = r.clone();
        for (ti, di) in term.values_mut().iter_mut().zip(&inv) {
            *ti *= di;
        }
        z.values_mut().copy_from_slice(term.values());
        let mut at = Vector::new(r.map().clone());
        for _ in 0..order {
            a.apply(comm, &term, &mut at).unwrap();
            for ((ti, ai), di) in term.values_mut().iter_mut().zip(at.values()).zip(&inv) {
                *ti -= ai * di;
            }
            z.update(1.0, &term).unwrap();
        }
    }

    #[test]
    fn neumann_pc_is_bitwise_the_allocating_apply() {
        let uniform = rmesh::paper_problem(12).assemble_global().0;
        let per_row = generate::random_diag_dominant(90, 4, 3);
        for (label, a) in [("uniform", &uniform), ("per-row", &per_row)] {
            let n = a.rows();
            let mut poisoned = generate::random_vector(n, 8);
            poisoned[n / 2] = f64::NAN;
            let rhs = [generate::random_vector(n, 7), poisoned, generate::random_vector(n, 9)];
            for ranks in [1usize, 2] {
                let out = Universe::run(ranks, |comm| {
                    let m = CrsMatrix::from_global(comm, a).unwrap();
                    let bits = |v: &Vector| v.values().iter().map(|x| x.to_bits()).collect();
                    let mut mismatches: Vec<(usize, usize)> = Vec::new();
                    for order in 1..=3 {
                        // One preconditioner for every apply: its scratch
                        // holds the last apply's values when the next starts.
                        let mut pc = NeumannPc::new(&m, order).unwrap();
                        for (k, global) in rhs.iter().chain(&rhs).enumerate() {
                            let r = Vector::from_global(m.row_map().clone(), global).unwrap();
                            let mut got = Vector::new(m.row_map().clone());
                            let mut want = Vector::new(m.row_map().clone());
                            pc.apply(comm, &r, &mut got).unwrap();
                            neumann_by_clones(comm, &m, order, &r, &mut want);
                            let (g, w): (Vec<u64>, Vec<u64>) = (bits(&got), bits(&want));
                            if g != w {
                                mismatches.push((order, k));
                            }
                        }
                    }
                    mismatches
                });
                for (rank, mismatches) in out.iter().enumerate() {
                    assert!(mismatches.is_empty(), "{label} {ranks}r rank {rank}: {mismatches:?}");
                }
            }
        }
    }

    #[test]
    fn sym_gs_reduces_residual() {
        let a = generate::laplacian_2d(6);
        let b = vec![1.0; 36];
        let out = Universe::run(2, |comm| {
            let m = CrsMatrix::from_global(comm, &a).unwrap();
            let mut pc = SymGsPc::new(&m).unwrap();
            let r = Vector::from_global(m.row_map().clone(), &b).unwrap();
            let mut z = Vector::new(m.row_map().clone());
            pc.apply(comm, &r, &mut z).unwrap();
            z.gather_all(comm).unwrap()
        });
        for got in &out {
            let res = rsparse::ops::residual(&a, got, &b).unwrap();
            let rel = rsparse::dense::norm2(&res) / 6.0;
            assert!(rel < 0.9, "rel = {rel}");
        }
    }

    #[test]
    fn preconditioners_reject_matrix_free_when_rows_needed() {
        struct Free {
            map: Map,
        }
        impl RowMatrix for Free {
            fn row_map(&self) -> &Map {
                &self.map
            }
            fn apply(&self, _c: &Communicator, x: &Vector, y: &mut Vector) -> AztecResult<()> {
                y.values_mut().copy_from_slice(x.values());
                Ok(())
            }
        }
        let out = Universe::run(1, |comm| {
            let op = Free { map: Map::new(4, comm) };
            (
                JacobiPc::new(&op).is_err(),
                NeumannPc::new(&op, 2).is_err(),
                SymGsPc::new(&op).is_err(),
            )
        });
        assert_eq!(out[0], (true, true, true));
    }
}
