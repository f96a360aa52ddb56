//! Property tests on the RAztec package: solvers must recover random
//! manufactured solutions under every preconditioner, the status record
//! must be honest, and the matrix-free trait route must agree with the
//! assembled route.

use proptest::prelude::*;
use raztec::{AzConv, AzPrecond, AzSolver, AztecOO, AztecOptions, CrsMatrix, RowMatrix, Vector};
use rcomm::Universe;
use rsparse::generate;

fn run(
    a: &rsparse::CsrMatrix,
    b: &[f64],
    solver: AzSolver,
    precond: AzPrecond,
    p: usize,
) -> (raztec::SolveStatus, Vec<f64>) {
    let out = Universe::run(p, |comm| {
        let m = CrsMatrix::from_global(comm, a).unwrap();
        let bv = Vector::from_global(m.row_map().clone(), b).unwrap();
        let mut xv = Vector::new(m.row_map().clone());
        let mut az = AztecOO::new(&m);
        az.set_options(AztecOptions {
            solver,
            precond,
            conv: AzConv::Rhs,
            tol: 1e-11,
            max_iter: 5000,
            kspace: 30,
            stall_window: 0,
        });
        let st = az.iterate(comm, &bv, &mut xv).unwrap();
        (st, xv.gather_all(comm).unwrap())
    });
    out.into_iter().next().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn gmres_and_bicgstab_recover_random_solutions(
        seed in 0u64..10_000,
        p in 1usize..4,
        solver_idx in 0usize..2,
        pc_idx in 0usize..4,
    ) {
        let solver = [AzSolver::Gmres, AzSolver::BiCgStab][solver_idx];
        let precond = [
            AzPrecond::None,
            AzPrecond::Jacobi,
            AzPrecond::Neumann { order: 2 },
            AzPrecond::SymGs,
        ][pc_idx];
        let n = 28;
        let a = generate::random_diag_dominant(n, 3, seed);
        let x_true = generate::random_vector(n, seed ^ 0xF0);
        let b = a.matvec(&x_true).unwrap();
        let (st, x) = run(&a, &b, solver, precond, p);
        prop_assert!(st.why.converged(), "{solver:?}/{precond:?} p={p}: {:?}", st.why);
        for (g, e) in x.iter().zip(&x_true) {
            prop_assert!((g - e).abs() < 1e-6, "{solver:?}/{precond:?}");
        }
        // The status record's true residual must match a recomputation.
        let r = rsparse::ops::residual(&a, &x, &b).unwrap();
        let rn = rsparse::dense::norm2(&r);
        prop_assert!((st.true_residual - rn).abs() < 1e-8 * (1.0 + rn));
    }

    #[test]
    fn cg_solves_random_spd(seed in 0u64..10_000, p in 1usize..3) {
        let n = 24;
        let a = generate::random_spd(n, 3, seed);
        let x_true = generate::random_vector(n, seed ^ 0x11);
        let b = a.matvec(&x_true).unwrap();
        let (st, x) = run(&a, &b, AzSolver::Cg, AzPrecond::Jacobi, p);
        prop_assert!(st.why.converged());
        for (g, e) in x.iter().zip(&x_true) {
            prop_assert!((g - e).abs() < 1e-6);
        }
    }

    #[test]
    fn matrix_free_route_matches_assembled_route(seed in 0u64..10_000) {
        // The same operator presented twice: assembled CrsMatrix vs a
        // user RowMatrix impl that multiplies via the assembled matrix
        // privately — solver outputs must agree exactly.
        let n = 20;
        let a = generate::random_diag_dominant(n, 3, seed);
        let b = generate::random_vector(n, seed ^ 0x9);

        struct Wrapped {
            map: raztec::Map,
            a: rsparse::CsrMatrix,
        }
        impl RowMatrix for Wrapped {
            fn row_map(&self) -> &raztec::Map {
                &self.map
            }
            fn apply(
                &self,
                comm: &rcomm::Communicator,
                x: &Vector,
                y: &mut Vector,
            ) -> raztec::AztecResult<()> {
                let full = x.gather_all(comm)?;
                let lo = self.map.min_my_gid();
                for (li, yi) in y.values_mut().iter_mut().enumerate() {
                    let (cols, vals) = self.a.row(lo + li);
                    *yi = cols.iter().zip(vals).map(|(&c, &v)| v * full[c]).sum();
                }
                Ok(())
            }
            fn extract_diagonal(&self) -> Option<Vec<f64>> {
                let lo = self.map.min_my_gid();
                Some(
                    (0..self.map.num_my())
                        .map(|i| self.a.get(lo + i, lo + i))
                        .collect(),
                )
            }
        }

        let out = Universe::run(2, |comm| {
            let opts = AztecOptions {
                solver: AzSolver::Gmres,
                precond: AzPrecond::Jacobi,
                conv: AzConv::Rhs,
                tol: 1e-11,
                max_iter: 2000,
                kspace: 30,
                stall_window: 0,
            };
            // Assembled.
            let m1 = CrsMatrix::from_global(comm, &a).unwrap();
            let bv = Vector::from_global(m1.row_map().clone(), &b).unwrap();
            let mut x1 = Vector::new(m1.row_map().clone());
            let mut az1 = AztecOO::new(&m1);
            az1.set_options(opts.clone());
            let s1 = az1.iterate(comm, &bv, &mut x1).unwrap();
            // Matrix-free.
            let map = raztec::Map::new(a.rows(), comm);
            let m2 = Wrapped { map: map.clone(), a: a.clone() };
            let bv2 = Vector::from_global(map.clone(), &b).unwrap();
            let mut x2 = Vector::new(map);
            let mut az2 = AztecOO::new(&m2);
            az2.set_options(opts);
            let s2 = az2.iterate(comm, &bv2, &mut x2).unwrap();
            (
                s1.its,
                s2.its,
                x1.gather_all(comm).unwrap(),
                x2.gather_all(comm).unwrap(),
            )
        });
        let (i1, i2, x1, x2) = &out[0];
        prop_assert_eq!(i1, i2, "same arithmetic → same iterations");
        for (g, e) in x1.iter().zip(x2) {
            prop_assert!((g - e).abs() < 1e-12, "solutions must match bitwise-ish");
        }
    }
}
