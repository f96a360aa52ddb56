//! Failure injection through the LISI interface: the error contract must
//! hold across packages — typed errors with negative SIDL codes, no
//! panics, and failures visible on every rank of the cohort.

use cca_lisi::comm::Universe;
use cca_lisi::lisi::{
    LisiError, RaztecAdapter, RkspAdapter, RmgAdapter, RsluAdapter, SparseSolverPort, SparseStruct,
    STATUS_LEN,
};

type MakePort = Box<dyn Fn() -> Box<dyn SparseSolverPort> + Sync>;

fn adapters() -> Vec<(&'static str, MakePort)> {
    vec![
        ("rksp", Box::new(|| Box::new(RkspAdapter::new()))),
        ("raztec", Box::new(|| Box::new(RaztecAdapter::new()))),
        ("rslu", Box::new(|| Box::new(RsluAdapter::new()))),
    ]
}

#[test]
fn solve_before_initialize_is_not_initialized() {
    for (name, make) in adapters() {
        let s = make();
        s.set_start_row(0).unwrap();
        s.set_local_rows(2).unwrap();
        s.set_global_cols(2).unwrap();
        s.setup_matrix_coo(&[1.0, 1.0], &[0, 1], &[0, 1]).unwrap();
        s.setup_rhs(&[1.0, 1.0], 1).unwrap();
        let mut x = [0.0; 2];
        let mut st = [0.0; STATUS_LEN];
        let err = s.solve(&mut x, &mut st).unwrap_err();
        assert_eq!(err.code(), LisiError::NotInitialized.code(), "{name}");
    }
}

#[test]
fn setup_matrix_before_distribution_setters_is_a_phase_error() {
    for (name, make) in adapters() {
        let s = make();
        let err = s.setup_matrix_coo(&[1.0], &[0], &[0]).unwrap_err();
        assert!(matches!(err, LisiError::BadPhase(_)), "{name}: {err:?}");
    }
}

#[test]
fn wrong_buffer_sizes_are_invalid_input() {
    let out = Universe::run(1, |comm| {
        let mut results = Vec::new();
        for (name, make) in adapters() {
            let s = make();
            s.initialize(comm.dup().unwrap()).unwrap();
            s.set_start_row(0).unwrap();
            s.set_local_rows(3).unwrap();
            s.set_global_cols(3).unwrap();
            // RHS of the wrong length.
            let rhs_err = s.setup_rhs(&[1.0, 2.0], 1).unwrap_err();
            // Solution buffer of the wrong length.
            s.setup_matrix_coo(&[1.0, 1.0, 1.0], &[0, 1, 2], &[0, 1, 2]).unwrap();
            s.setup_rhs(&[1.0, 2.0, 3.0], 1).unwrap();
            let mut x = [0.0; 2];
            let mut st = [0.0; STATUS_LEN];
            let sol_err = s.solve(&mut x, &mut st).unwrap_err();
            // Status buffer too short.
            let mut x3 = [0.0; 3];
            let mut st_short = [0.0; 2];
            let st_err = s.solve(&mut x3, &mut st_short).unwrap_err();
            results.push((
                name,
                matches!(rhs_err, LisiError::InvalidInput(_)),
                matches!(sol_err, LisiError::InvalidInput(_)),
                matches!(st_err, LisiError::InvalidInput(_)),
            ));
        }
        results
    });
    for (name, a, b, c) in &out[0] {
        assert!(a & b & c, "{name}");
    }
}

#[test]
fn short_csr_arrays_are_invalid_input_on_every_rank() {
    // Each rank hands `setupMatrix(CSR)` one column index fewer than it
    // has values (and, separately, than its row pointers promise): the
    // same typed error everywhere, and the port still takes a good matrix.
    for (name, make) in adapters() {
        let out = Universe::run(2, |comm| {
            let s = make();
            s.initialize(comm.dup().unwrap()).unwrap();
            s.set_start_row(2 * comm.rank()).unwrap();
            s.set_local_rows(2).unwrap();
            s.set_global_cols(4).unwrap();
            let diag = [2 * comm.rank(), 2 * comm.rank() + 1];
            let short =
                s.setup_matrix(&[1.0, 1.0], &[0, 1, 2], &diag[..1], SparseStruct::Csr).unwrap_err();
            let overrun =
                s.setup_matrix(&[1.0, 1.0], &[0, 1, 3], &diag, SparseStruct::Csr).unwrap_err();
            s.setup_matrix(&[1.0, 1.0], &[0, 1, 2], &diag, SparseStruct::Csr).unwrap();
            s.setup_rhs(&[3.0, 4.0], 1).unwrap();
            let mut x = [0.0; 2];
            let mut st = [0.0; STATUS_LEN];
            s.solve(&mut x, &mut st).unwrap();
            (short, overrun, x)
        });
        for (rank, (short, overrun, x)) in out.iter().enumerate() {
            assert!(matches!(short, LisiError::InvalidInput(_)), "{name}, rank {rank}: {short:?}");
            assert!(
                matches!(overrun, LisiError::InvalidInput(_)),
                "{name}, rank {rank}: {overrun:?}"
            );
            assert_eq!(x, &[3.0, 4.0], "{name}, rank {rank}");
        }
    }
}

#[test]
fn malformed_format_arrays_are_invalid_input_on_every_rank() {
    // Each row hands `setupMatrix` one malformed set of arrays for an 8 × 8
    // matrix whose two ranks own 4 rows each (FEM: one rank owns all 8),
    // as a function of the rank's start row. Every rank answers
    // InvalidInput, then takes a good matrix.
    type Arrays = (Vec<f64>, Vec<usize>, Vec<usize>);
    type Row = (&'static str, SparseStruct, usize, fn(usize) -> Arrays);
    fn msr(ja: [usize; 6]) -> Arrays {
        (vec![1.0, 1.0, 1.0, 1.0, 0.0, 9.0], vec![], ja.to_vec())
    }
    let table: &[Row] = &[
        ("VBR pointer past the blocks", SparseStruct::Vbr, 2, |_| {
            (vec![1.0; 8], vec![0, 3, 2], vec![0, 1, 0])
        }),
        ("VBR decreasing pointers", SparseStruct::Vbr, 2, |_| {
            (vec![1.0; 4], vec![0, 2, 1], vec![0, 1])
        }),
        ("MSR ja[0] is not n + 1", SparseStruct::Msr, 1, |_| msr([4, 6, 6, 6, 6, 7])),
        ("MSR decreasing pointer", SparseStruct::Msr, 1, |_| msr([5, 6, 5, 6, 6, 7])),
        ("MSR pointer past val", SparseStruct::Msr, 1, |_| msr([5, 6, 6, 6, 7, 7])),
        ("COO row of the other rank", SparseStruct::Coo, 1, |start| {
            (vec![1.0], vec![(start + 4) % 8], vec![0])
        }),
        ("COO length mismatch", SparseStruct::Coo, 1, |start| {
            (vec![1.0, 1.0], vec![start], vec![0, 1])
        }),
        ("FEM connectivity not a multiple of the arity", SparseStruct::Fem, 2, |_| {
            (vec![1.0; 4], vec![], vec![0, 1, 2])
        }),
        ("FEM dof past n", SparseStruct::Fem, 2, |_| (vec![1.0; 4], vec![], vec![0, 8])),
    ];
    let mut ports = adapters();
    ports.push(("rmg", Box::new(|| Box::new(RmgAdapter::new()))));
    for &(what, structure, bs, arrays) in table {
        let p = if structure == SparseStruct::Fem { 1 } else { 2 };
        for (name, make) in &ports {
            let out = Universe::run(p, |comm| {
                let (rows, start) = (8 / p, 8 / p * comm.rank());
                let s = make();
                s.initialize(comm.dup().unwrap()).unwrap();
                s.set_start_row(start).unwrap();
                s.set_local_rows(rows).unwrap();
                s.set_global_cols(8).unwrap();
                s.set_block_size(bs).unwrap();
                let (values, ptr, idx) = arrays(start);
                let bad = s.setup_matrix(&values, &ptr, &idx, structure);
                let ptr: Vec<usize> = (0..=rows).collect();
                let diag: Vec<usize> = (start..start + rows).collect();
                let good = s.setup_matrix(&vec![1.0; rows], &ptr, &diag, SparseStruct::Csr);
                (bad, good)
            });
            for (rank, (bad, good)) in out.iter().enumerate() {
                let ctx = format!("{what} on {name}, rank {rank}");
                assert!(matches!(bad, Err(LisiError::InvalidInput(_))), "{ctx}: {bad:?}");
                assert!(good.is_ok(), "{ctx}, good matrix after: {good:?}");
            }
        }
    }
}

#[test]
fn singular_system_fails_cleanly_on_every_rank() {
    // Zero column ⇒ structurally singular; the direct package must
    // report failure on ALL ranks (not just the root that factors).
    let out = Universe::run(3, |comm| {
        let n = 6;
        let part = cca_lisi::sparse::BlockRowPartition::even(n, comm.size());
        let range = part.range(comm.rank());
        // A = I except column 5 is zero (row 5 empty too).
        let mut coo = cca_lisi::sparse::CooMatrix::new(range.len(), n);
        for (lr, g) in range.clone().enumerate() {
            if g != 5 {
                coo.push(lr, g, 1.0).unwrap();
            }
        }
        let local = coo.to_csr();
        let s = RsluAdapter::new();
        s.initialize(comm.dup().unwrap()).unwrap();
        s.set_start_row(range.start).unwrap();
        s.set_local_rows(range.len()).unwrap();
        s.set_global_cols(n).unwrap();
        s.setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
            .unwrap();
        s.setup_rhs(&vec![1.0; range.len()], 1).unwrap();
        let mut x = vec![0.0; range.len()];
        let mut st = [0.0; STATUS_LEN];
        s.solve(&mut x, &mut st).unwrap_err()
    });
    for err in out {
        assert!(matches!(err, LisiError::Package(_)), "{err:?}");
        assert!(err.to_string().to_lowercase().contains("singular"), "{err}");
    }
}

#[test]
fn nonconvergence_reports_maxits_through_the_status_array() {
    let out = Universe::run(1, |comm| {
        let a = cca_lisi::sparse::generate::laplacian_2d(10);
        let n = 100;
        let s = RkspAdapter::new();
        s.initialize(comm.dup().unwrap()).unwrap();
        s.set_start_row(0).unwrap();
        s.set_local_rows(n).unwrap();
        s.set_global_cols(n).unwrap();
        s.set("solver", "cg").unwrap();
        s.set("preconditioner", "none").unwrap();
        s.set_double("tol", 1e-14).unwrap();
        s.set_int("maxits", 2).unwrap();
        s.setup_matrix(a.values(), a.row_ptr(), a.col_idx(), SparseStruct::Csr).unwrap();
        s.setup_rhs(&vec![1.0; n], 1).unwrap();
        let mut x = vec![0.0; n];
        let mut st = [0.0; STATUS_LEN];
        let err = s.solve(&mut x, &mut st).unwrap_err();
        (err, cca_lisi::lisi::SolveReport::from_slice(&st))
    });
    let (err, report) = &out[0];
    assert!(matches!(err, LisiError::Package(_)));
    // Even on failure the status array is filled so the application can
    // inspect what happened — the post-solve contract.
    assert!(!report.converged);
    assert_eq!(report.iterations, 2);
    assert!(report.reason < 0);
}

#[test]
fn bad_parameters_surface_before_any_work() {
    let out = Universe::run(1, |comm| {
        let s = RaztecAdapter::new();
        s.initialize(comm.dup().unwrap()).unwrap();
        s.set_start_row(0).unwrap();
        s.set_local_rows(1).unwrap();
        s.set_global_cols(1).unwrap();
        s.set("tol", "soon").unwrap();
        s.setup_matrix_coo(&[1.0], &[0], &[0]).unwrap();
        s.setup_rhs(&[1.0], 1).unwrap();
        let mut x = [0.0];
        let mut st = [0.0; STATUS_LEN];
        s.solve(&mut x, &mut st).unwrap_err()
    });
    assert!(matches!(&out[0], LisiError::BadParameter { .. }));
}

/// Run a two-rank solve that must fail, and fail *together*: every rank
/// returns an error of the same variant, and nobody is left waiting in a
/// collective for a peer that already returned (which would take the
/// comm layer's 30 s deadlock watchdog to notice).
fn fails_together(
    solve: impl Fn(&cca_lisi::comm::Communicator) -> LisiError + Sync,
) -> Vec<LisiError> {
    let started = std::time::Instant::now();
    let errs = Universe::run(2, |comm| solve(comm));
    let took = started.elapsed();
    assert!(took < std::time::Duration::from_secs(2), "a rank was stranded: took {took:?}");
    assert_eq!(
        std::mem::discriminant(&errs[0]),
        std::mem::discriminant(&errs[1]),
        "ranks disagree: {errs:?}"
    );
    errs
}

/// A two-rank solve of the 7×7 grid Laplacian through a port from `make`,
/// prepared by `prepare`, that must fail.
fn failing_grid_solve<P: SparseSolverPort>(
    make: impl Fn() -> P + Sync,
    prepare: impl Fn(&P) + Sync,
) -> Vec<LisiError> {
    let a = cca_lisi::sparse::generate::laplacian_2d(7);
    fails_together(|comm| {
        let range = cca_lisi::sparse::BlockRowPartition::even(49, 2).range(comm.rank());
        let local = a.row_block(range.start, range.end).unwrap();
        let s = make();
        s.initialize(comm.dup().unwrap()).unwrap();
        s.set_start_row(range.start).unwrap();
        s.set_local_rows(range.len()).unwrap();
        s.set_global_cols(49).unwrap();
        prepare(&s);
        s.setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
            .unwrap();
        s.setup_rhs(&vec![1.0; range.len()], 1).unwrap();
        let mut x = vec![0.0; range.len()];
        let mut st = [0.0; STATUS_LEN];
        s.solve(&mut x, &mut st).unwrap_err()
    })
}

#[test]
fn unparsable_option_values_are_bad_parameter_on_every_rank() {
    // (package, options under which the key is read, key, value). The
    // last row of each package is a control that was typed before the
    // others were; the rest used to be dropped without a word.
    type Row = (&'static str, &'static [(&'static str, &'static str)], &'static str, &'static str);
    let table: &[Row] = &[
        ("rslu", &[], "refine", "maybe"),
        ("rslu", &[], "equil", "1"),
        ("rslu", &[], "pivot_tol", "abc"),
        ("rmg", &[], "nu1", "two"),
        ("rmg", &[], "nu2", "-1"),
        ("rmg", &[("smoother", "jacobi")], "omega", "abc"),
        ("rmg", &[], "tol", "abc"),
        ("raztec", &[("preconditioner", "neumann")], "poly_ord", "3.5"),
        ("raztec", &[], "tol", "abc"),
        ("rksp", &[], "tol", "abc"),
        ("rksp", &[], "maxits", "x"),
        ("rksp", &[], "restart", "1.5"),
        ("rksp", &[], "ksp_rtol", "abc"),
    ];
    for &(package, with, key, value) in table {
        let prepare = |s: &dyn SparseSolverPort| {
            for (k, v) in with {
                s.set(k, v).unwrap();
            }
            s.set(key, value).unwrap();
        };
        let errs = match package {
            "rslu" => failing_grid_solve(RsluAdapter::new, |s| prepare(s)),
            "rmg" => failing_grid_solve(RmgAdapter::new, |s| prepare(s)),
            "raztec" => failing_grid_solve(RaztecAdapter::new, |s| prepare(s)),
            _ => failing_grid_solve(RkspAdapter::new, |s| prepare(s)),
        };
        for (rank, err) in errs.iter().enumerate() {
            let ctx = format!("{package} {key}={value}, rank {rank}: {err:?}");
            assert!(matches!(err, LisiError::BadParameter { key: k, .. } if k == key), "{ctx}");
        }
    }
}

#[test]
fn a_nan_ilut_drop_tolerance_is_rejected_on_every_rank() {
    // No `|v| > NaN` holds: accepted, a NaN tolerance would drop every
    // entry of L and U and leave ILUT a diagonal scaling.
    let nan_droptol = |s: &RkspAdapter| {
        s.set("preconditioner", "ilut").unwrap();
        s.set("droptol", "nan").unwrap();
    };
    for err in failing_grid_solve(RkspAdapter::new, nan_droptol) {
        assert!(matches!(&err, LisiError::Package(m) if m.contains("droptol")), "{err:?}");
    }
}

#[test]
fn rmg_bad_option_fails_on_every_rank_not_just_the_root() {
    // Rank 0 alone runs the multigrid cycle, but every rank parses the
    // options: a bad one must not leave rank 1 waiting for rank 0's bcast.
    for err in failing_grid_solve(RmgAdapter::new, |s| s.set("cycle", "x").unwrap()) {
        assert!(matches!(&err, LisiError::BadParameter { key, .. } if key == "cycle"), "{err:?}");
    }
}

#[test]
fn rmg_failure_on_the_root_reaches_every_rank() {
    // What only rank 0 can get wrong — here the coarse-grid callback —
    // travels to the other ranks in place of the solution.
    let coarse_fails =
        |s: &RmgAdapter| s.set_coarse_solver(|_, _| Err("coarse grid on fire".into()));
    for err in failing_grid_solve(RmgAdapter::new, coarse_fails) {
        assert!(matches!(&err, LisiError::Package(m) if m.contains("on fire")), "{err:?}");
    }
}

#[test]
fn setup_failure_on_one_rank_fails_the_whole_cohort() {
    // ILU(0) factors each rank's diagonal block on its own. Rank 1's block
    // has a zero pivot, rank 0's is fine: rank 0 must hear about it before
    // it enters the Krylov loop alone.
    let errs = fails_together(|comm| {
        let rank = comm.rank();
        // Rows 2·rank and 2·rank + 1 of a 4×4 bidiagonal matrix whose
        // last diagonal entry is an explicit zero.
        let (first, second) = (2 * rank, 2 * rank + 1);
        let last_diagonal = if rank == 1 { 0.0 } else { 2.0 };
        let s = RkspAdapter::new();
        s.initialize(comm.dup().unwrap()).unwrap();
        s.set_start_row(first).unwrap();
        s.set_local_rows(2).unwrap();
        s.set_global_cols(4).unwrap();
        s.set("solver", "gmres").unwrap();
        s.set("preconditioner", "ilu").unwrap();
        s.setup_matrix(
            &[2.0, 1.0, last_diagonal],
            &[0, 1, 3],
            &[first, first, second],
            SparseStruct::Csr,
        )
        .unwrap();
        s.setup_rhs(&[1.0, 1.0], 1).unwrap();
        let mut x = [0.0; 2];
        let mut st = [0.0; STATUS_LEN];
        s.solve(&mut x, &mut st).unwrap_err()
    });
    // Rank 1 returns its own error; rank 0's names rank 1 and carries it.
    assert!(matches!(&errs[1], LisiError::Package(m) if m.contains("pivot")), "{errs:?}");
    let named = |m: &str| m.contains("rank 1") && m.contains("pivot");
    assert!(matches!(&errs[0], LisiError::Package(m) if named(m)), "{errs:?}");
}
