//! Grid hierarchies: the chain of operators, prolongations and
//! restrictions a cycle walks.

use rsparse::CsrMatrix;

use crate::transfer::{coarsen_m, prolongation, restriction};
use crate::{MgError, MgResultT};

/// How coarse-level operators are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoarseOperator {
    /// Galerkin triple product `R·A·P` (works for any fine operator).
    #[default]
    Galerkin,
    /// Rediscretize the PDE on the coarse grid (caller supplies the
    /// discretization via a function of `m`).
    Rediscretize,
}

/// One level of the hierarchy.
#[derive(Debug, Clone)]
pub struct Level {
    /// The operator at this level.
    pub a: CsrMatrix,
    /// Interior points per side at this level.
    pub m: usize,
    /// Prolongation from the next-coarser level into this one (`None` on
    /// the coarsest level).
    pub p: Option<CsrMatrix>,
    /// Restriction from this level to the next-coarser one.
    pub r: Option<CsrMatrix>,
}

/// A full multigrid hierarchy, finest first.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    levels: Vec<Level>,
}

impl Hierarchy {
    /// Build from the finest operator on an `m × m` interior grid.
    /// Coarsens while `m` stays odd and above `min_m`, up to `max_levels`.
    /// `rediscretize` supplies coarse operators when
    /// [`CoarseOperator::Rediscretize`] is selected.
    pub fn build(
        a_fine: CsrMatrix,
        m_fine: usize,
        coarse_op: CoarseOperator,
        max_levels: usize,
        min_m: usize,
        rediscretize: Option<&dyn Fn(usize) -> CsrMatrix>,
    ) -> MgResultT<Self> {
        if a_fine.rows() != m_fine * m_fine {
            return Err(MgError::BadConfig(format!(
                "operator order {} does not match grid m = {m_fine}",
                a_fine.rows()
            )));
        }
        if max_levels == 0 {
            return Err(MgError::BadConfig("max_levels must be at least 1".into()));
        }
        let mut levels = vec![Level { a: a_fine, m: m_fine, p: None, r: None }];
        while levels.len() < max_levels {
            let m = levels.last().expect("nonempty").m;
            let Ok(mc) = coarsen_m(m) else { break };
            if mc < min_m {
                break;
            }
            let p = prolongation(mc);
            let r = restriction(mc);
            let a_coarse = match coarse_op {
                CoarseOperator::Galerkin => {
                    let fine = &levels.last().expect("nonempty").a;
                    rsparse::ops::triple_product(&r, fine, &p)?
                }
                CoarseOperator::Rediscretize => {
                    let f = rediscretize.ok_or_else(|| {
                        MgError::BadConfig("Rediscretize needs a discretization callback".into())
                    })?;
                    let a = f(mc);
                    if a.rows() != mc * mc {
                        return Err(MgError::BadConfig(format!(
                            "rediscretization returned order {} for m = {mc}",
                            a.rows()
                        )));
                    }
                    a
                }
            };
            // Transfers are owned by the *finer* level.
            let top = levels.last_mut().expect("nonempty");
            top.p = Some(p);
            top.r = Some(r);
            levels.push(Level { a: a_coarse, m: mc, p: None, r: None });
        }
        Ok(Hierarchy { levels })
    }

    /// Number of levels (≥ 1).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Level accessor, 0 = finest.
    pub fn level(&self, l: usize) -> &Level {
        &self.levels[l]
    }

    /// The coarsest level.
    pub fn coarsest(&self) -> &Level {
        self.levels.last().expect("at least one level")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsparse::generate;

    #[test]
    fn builds_full_depth_for_power_of_two_grids() {
        // m = 15 → 7 → 3 → 1.
        let a = generate::laplacian_2d(15);
        let h = Hierarchy::build(a, 15, CoarseOperator::Galerkin, 10, 1, None).unwrap();
        assert_eq!(h.num_levels(), 4);
        assert_eq!((0..4).map(|l| h.level(l).m).collect::<Vec<_>>(), vec![15, 7, 3, 1]);
        // Transfers exist everywhere except the coarsest.
        for l in 0..3 {
            assert!(h.level(l).p.is_some());
            assert!(h.level(l).r.is_some());
        }
        assert!(h.coarsest().p.is_none());
        assert_eq!(h.coarsest().a.rows(), 1);
    }

    #[test]
    fn respects_max_levels_and_min_m() {
        let a = generate::laplacian_2d(15);
        let h = Hierarchy::build(a.clone(), 15, CoarseOperator::Galerkin, 2, 1, None).unwrap();
        assert_eq!(h.num_levels(), 2);
        let h = Hierarchy::build(a, 15, CoarseOperator::Galerkin, 10, 5, None).unwrap();
        // 15 → 7 (mc = 3 < 5 stops).
        assert_eq!(h.num_levels(), 2);
        assert_eq!(h.coarsest().m, 7);
    }

    #[test]
    fn even_grids_stop_coarsening() {
        let a = generate::laplacian_2d(8);
        let h = Hierarchy::build(a, 8, CoarseOperator::Galerkin, 10, 1, None).unwrap();
        assert_eq!(h.num_levels(), 1);
    }

    #[test]
    fn rediscretized_hierarchy_uses_callback() {
        let a = generate::laplacian_2d(7);
        let h = Hierarchy::build(
            a,
            7,
            CoarseOperator::Rediscretize,
            10,
            1,
            Some(&|m| generate::laplacian_2d(m)),
        )
        .unwrap();
        assert_eq!(h.num_levels(), 3);
        assert_eq!(h.level(1).a, generate::laplacian_2d(3));
        // Missing callback is an error.
        let a = generate::laplacian_2d(7);
        assert!(Hierarchy::build(a, 7, CoarseOperator::Rediscretize, 10, 1, None).is_err());
    }

    #[test]
    fn mismatched_order_is_rejected() {
        let a = generate::laplacian_2d(7);
        assert!(Hierarchy::build(a, 6, CoarseOperator::Galerkin, 10, 1, None).is_err());
    }
}
