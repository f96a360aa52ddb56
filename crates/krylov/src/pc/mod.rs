//! Preconditioners.
//!
//! All of these are *domain-decomposed*: each rank preconditions with data
//! it owns (the global diagonal slice, or its local diagonal block), so no
//! communication happens inside an apply — the standard construction for
//! parallel Jacobi / block-Jacobi / local-ILU preconditioning, and exactly
//! what PETSc does by default (`-pc_type bjacobi -sub_pc_type ilu`).

mod ilu;
mod ilut;
mod jacobi;
#[cfg(test)]
mod reference;
mod sor;

pub use ilu::{Ic0, Ilu0};
pub use ilut::Ilut;
pub use jacobi::{Identity, Jacobi};
pub use sor::Ssor;

use rcomm::Communicator;
use rsparse::{CsrMatrix, DistVector, LevelTri, SparseError, Triangle};

use crate::operator::LinearOperator;
use crate::result::{KspError, KspOutcome};

/// z ← M⁻¹·r, the only operation iterative methods need from a
/// preconditioner.
pub trait Preconditioner: Send + Sync {
    /// Apply the preconditioner. Must not communicate (all shipped
    /// implementations are rank-local; a future multilevel PC would relax
    /// this, which is why `comm` is in the signature).
    fn apply(&self, comm: &Communicator, r: &DistVector, z: &mut DistVector) -> KspOutcome<()>;

    /// Human-readable name (diagnostics, `get_all` dumps).
    fn name(&self) -> &'static str;
}

/// Where each row of a square `block` stores its diagonal entry — the cut
/// between the two triangles the sweep preconditioners keep. A row without
/// one is a structurally zero pivot.
fn diagonal_positions(block: &CsrMatrix) -> KspOutcome<Vec<usize>> {
    let (n, cols) = block.shape();
    if n != cols {
        return Err(KspError::Sparse(SparseError::NotSquare { rows: n, cols }));
    }
    (0..n)
        .map(|i| match block.row(i).0.binary_search(&i) {
            Ok(k) => Ok(block.row_ptr()[i] + k),
            Err(_) => Err(KspError::Sparse(SparseError::ZeroPivot { row: i })),
        })
        .collect()
}

/// The two triangles of `vals` laid over the pattern `row_ptr` /
/// `col_idx` of a square block, cut at the diagonal: rows of the strict
/// lower part (with the diagonal as divisor when `lower_diag`) and rows of
/// the strict upper part with the diagonal.
fn split_at_diagonal(
    row_ptr: &[usize],
    col_idx: &[usize],
    diag_pos: &[usize],
    vals: &[f64],
    lower_diag: bool,
) -> KspOutcome<(LevelTri, LevelTri)> {
    let n = diag_pos.len();
    let diag: &dyn Fn(usize) -> f64 = &|i| vals[diag_pos[i]];
    let lower = |i: usize| {
        let part = row_ptr[i]..diag_pos[i];
        (&col_idx[part.clone()], &vals[part])
    };
    let upper = |i: usize| {
        let part = diag_pos[i] + 1..row_ptr[i + 1];
        (&col_idx[part.clone()], &vals[part])
    };
    let fwd = LevelTri::build(Triangle::Lower, n, lower, lower_diag.then_some(diag))?;
    let bwd = LevelTri::build(Triangle::Upper, n, upper, Some(diag))?;
    Ok((fwd, bwd))
}

/// The preconditioner vocabulary, mirroring PETSc's `-pc_type` values that
/// make sense here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PcType {
    /// No preconditioning.
    None,
    /// Point Jacobi (diagonal scaling).
    Jacobi,
    /// ILU(0) on each rank's diagonal block (block-Jacobi/ILU in parallel).
    Ilu0,
    /// IC(0) on each rank's diagonal block (SPD problems).
    Ic0,
    /// SSOR sweeps on each rank's diagonal block, with relaxation ω.
    Ssor {
        /// Relaxation factor in (0, 2).
        omega: f64,
    },
    /// ILUT(p, τ): dual-dropping incomplete LU on each rank's diagonal
    /// block — the "drop tolerance" / "fill" parameter family.
    Ilut {
        /// Relative drop tolerance τ.
        droptol: f64,
        /// Per-row fill cap p (for each of L and U).
        max_fill: usize,
    },
    /// Zero-overlap additive Schwarz — identical to block-Jacobi ILU(0)
    /// here, kept as a named alias because solver packages expose it.
    AdditiveSchwarz,
}

impl PcType {
    /// Parse a PETSc-flavoured name (`"none"`, `"jacobi"`, `"ilu"`,
    /// `"ilu0"`, `"icc"`, `"ic0"`, `"ssor"`, `"sor"`, `"asm"`,
    /// `"bjacobi"`).
    pub fn parse(name: &str) -> KspOutcome<Self> {
        Ok(match name.to_ascii_lowercase().as_str() {
            "none" | "identity" => PcType::None,
            "jacobi" | "diag" => PcType::Jacobi,
            "ilu" | "ilu0" | "bjacobi" => PcType::Ilu0,
            "icc" | "ic0" | "ic" => PcType::Ic0,
            "ssor" | "sor" => PcType::Ssor { omega: 1.0 },
            "ilut" => PcType::Ilut { droptol: 1e-3, max_fill: 10 },
            "asm" | "schwarz" => PcType::AdditiveSchwarz,
            other => {
                return Err(KspError::UnknownName {
                    kind: "preconditioner",
                    name: other.to_string(),
                })
            }
        })
    }
}

/// Wrapper that bumps the probe's `pc_applies` counter around an inner
/// preconditioner, so apply counts show up in per-rank reports no matter
/// which concrete PC the factory produced.
struct Counted(Box<dyn Preconditioner>);

impl Preconditioner for Counted {
    fn apply(&self, comm: &Communicator, r: &DistVector, z: &mut DistVector) -> KspOutcome<()> {
        probe::incr(probe::Counter::PcApplies);
        self.0.apply(comm, r, z)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Build a preconditioner of the given type for an operator. Fails with
/// [`KspError::BadConfig`] when the operator cannot supply what the
/// preconditioner needs (e.g. ILU on a matrix-free shell).
pub fn make_preconditioner(
    pc: PcType,
    op: &dyn LinearOperator,
) -> KspOutcome<Box<dyn Preconditioner>> {
    let inner: Box<dyn Preconditioner> = match pc {
        PcType::None => Box::new(Identity),
        PcType::Jacobi => {
            let d = op
                .diagonal_local()
                .ok_or_else(|| KspError::BadConfig("Jacobi needs the operator diagonal".into()))?;
            Box::new(Jacobi::new(d)?)
        }
        PcType::Ilu0 | PcType::AdditiveSchwarz => {
            let blk = op.diagonal_block().ok_or_else(|| {
                KspError::BadConfig("ILU(0) needs an assembled diagonal block".into())
            })?;
            Box::new(Ilu0::factor(blk)?)
        }
        PcType::Ic0 => {
            let blk = op.diagonal_block().ok_or_else(|| {
                KspError::BadConfig("IC(0) needs an assembled diagonal block".into())
            })?;
            Box::new(Ic0::new(&blk)?)
        }
        PcType::Ssor { omega } => {
            let blk = op.diagonal_block().ok_or_else(|| {
                KspError::BadConfig("SSOR needs an assembled diagonal block".into())
            })?;
            Box::new(Ssor::new(&blk, omega)?)
        }
        PcType::Ilut { droptol, max_fill } => {
            let blk = op.diagonal_block().ok_or_else(|| {
                KspError::BadConfig("ILUT needs an assembled diagonal block".into())
            })?;
            Box::new(Ilut::new(&blk, droptol, max_fill)?)
        }
    };
    Ok(Box::new(Counted(inner)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_aliases_and_rejects_garbage() {
        assert_eq!(PcType::parse("none").unwrap(), PcType::None);
        assert_eq!(PcType::parse("JACOBI").unwrap(), PcType::Jacobi);
        assert_eq!(PcType::parse("ilu").unwrap(), PcType::Ilu0);
        assert_eq!(PcType::parse("bjacobi").unwrap(), PcType::Ilu0);
        assert_eq!(PcType::parse("icc").unwrap(), PcType::Ic0);
        assert_eq!(PcType::parse("ssor").unwrap(), PcType::Ssor { omega: 1.0 });
        assert_eq!(PcType::parse("asm").unwrap(), PcType::AdditiveSchwarz);
        assert!(matches!(PcType::parse("ilut").unwrap(), PcType::Ilut { .. }));
        assert!(PcType::parse("multigrid9000").is_err());
    }
}
