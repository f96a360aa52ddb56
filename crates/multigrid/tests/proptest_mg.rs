//! Property tests on the multigrid package: transfer operators obey
//! their algebraic identities for any legal grid size, and the solver
//! converges from arbitrary right-hand sides.

use proptest::prelude::*;
use rmg::transfer::{coarsen_m, prolongation, restriction};
use rmg::{CoarseOperator, Hierarchy, MgConfig, RmgSolver};
use rsparse::generate;

/// Legal coarse sizes to build fine grids from (m_f = 2·m_c + 1).
fn coarse_sizes() -> impl Strategy<Value = usize> {
    1usize..12
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prolongation_restriction_shapes_and_scaling(m_c in coarse_sizes()) {
        let m_f = 2 * m_c + 1;
        let p = prolongation(m_c);
        let r = restriction(m_c);
        prop_assert_eq!(p.shape(), (m_f * m_f, m_c * m_c));
        prop_assert_eq!(r.shape(), (m_c * m_c, m_f * m_f));
        // R = ¼·Pᵀ entrywise.
        let pt = p.transpose();
        for (row, col, v) in r.iter() {
            prop_assert!((v - 0.25 * pt.get(row, col)).abs() < 1e-15);
        }
        prop_assert_eq!(coarsen_m(m_f).unwrap(), m_c);
    }

    #[test]
    fn injection_property_holds_everywhere(m_c in coarse_sizes()) {
        // A coarse unit vector prolongates with weight exactly 1 at its
        // coincident fine point.
        let m_f = 2 * m_c + 1;
        let p = prolongation(m_c);
        for ci in 0..m_c {
            for cj in 0..m_c {
                let mut e = vec![0.0; m_c * m_c];
                e[ci * m_c + cj] = 1.0;
                let fine = p.matvec(&e).unwrap();
                let fi = 2 * ci + 1;
                let fj = 2 * cj + 1;
                prop_assert_eq!(fine[fi * m_f + fj], 1.0);
            }
        }
    }

    #[test]
    fn galerkin_coarse_operators_stay_symmetric_spd(m_c in 1usize..6) {
        let m_f = 2 * m_c + 1;
        let a = generate::laplacian_2d(m_f);
        let h = Hierarchy::build(a, m_f, CoarseOperator::Galerkin, 10, 1, None).unwrap();
        for l in 0..h.num_levels() {
            let al = &h.level(l).a;
            let at = al.transpose();
            for (r, c, v) in al.iter() {
                prop_assert!((at.get(r, c) - v).abs() < 1e-11);
            }
            for d in al.diagonal().unwrap() {
                prop_assert!(d > 0.0);
            }
        }
    }

    #[test]
    fn v_cycle_converges_from_any_rhs(seed in 0u64..100_000) {
        let m = 15;
        let a = generate::laplacian_2d(m);
        let h = Hierarchy::build(a.clone(), m, CoarseOperator::Galerkin, 10, 1, None).unwrap();
        let solver = RmgSolver::new(&h, MgConfig::default()).unwrap();
        let b = generate::random_vector(m * m, seed);
        let mut x = vec![0.0; m * m];
        let res = solver.solve(&b, &mut x).unwrap();
        prop_assert!(res.converged, "cycles = {}", res.cycles);
        prop_assert!(res.cycles <= 20);
        let r = rsparse::ops::residual(&a, &x, &b).unwrap();
        let rel = rsparse::dense::norm2(&r)
            / rsparse::dense::norm2(&b).max(f64::MIN_POSITIVE);
        prop_assert!(rel <= 1e-8 * 1.01);
    }
}
