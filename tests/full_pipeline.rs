//! End-to-end integration: the paper's whole experiment pipeline — the
//! parallel mesh generator feeds a block-row-partitioned system to a LISI
//! solver component on every rank, which solves it with each underlying
//! package, and the assembled solution must match the manufactured
//! discrete solution.

use cca_lisi::comm::Universe;
use cca_lisi::lisi::{
    RaztecAdapter, RkspAdapter, RmgAdapter, RsluAdapter, SolveReport, SparseSolverPort,
    SparseStruct, STATUS_LEN,
};
use cca_lisi::mesh::manufactured::Manufactured;
use cca_lisi::sparse::convert::{self, Window};
use cca_lisi::sparse::{generate, BlockRowPartition};

mod common;

/// Drive any adapter over `p` ranks against a manufactured system.
fn pipeline(
    p: usize,
    man: &Manufactured,
    make: &(dyn Fn() -> Box<dyn SparseSolverPort> + Sync),
    params: &[(&str, &str)],
) -> (SolveReport, f64) {
    let n = man.exact.len();
    let out = Universe::run(p, |comm| {
        let part = cca_lisi::sparse::BlockRowPartition::even(n, comm.size());
        let range = part.range(comm.rank());
        let local = man.matrix.row_block(range.start, range.end).unwrap();
        let solver = make();
        solver.initialize(comm.dup().unwrap()).unwrap();
        solver.set_start_row(range.start).unwrap();
        solver.set_local_rows(range.len()).unwrap();
        solver.set_local_nnz(local.nnz()).unwrap();
        solver.set_global_cols(n).unwrap();
        for (k, v) in params {
            solver.set(k, v).unwrap();
        }
        solver
            .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
            .unwrap();
        solver.setup_rhs(&man.rhs[range.clone()], 1).unwrap();
        let mut x = vec![0.0; range.len()];
        let mut status = [0.0; STATUS_LEN];
        solver.solve(&mut x, &mut status).unwrap();
        (SolveReport::from_slice(&status), comm.allgatherv(&x).unwrap())
    });
    // All ranks must report identical status.
    for (rep, _) in &out {
        assert_eq!(rep.iterations, out[0].0.iterations);
        assert_eq!(rep.converged, out[0].0.converged);
    }
    let (rep, full) = &out[0];
    (*rep, man.error_inf(full))
}

#[test]
fn every_package_solves_the_paper_problem_at_every_rank_count() {
    let man = cca_lisi::mesh::manufactured::paper_manufactured(12);
    type MK = Box<dyn Fn() -> Box<dyn SparseSolverPort> + Sync>;
    type Package = (&'static str, MK, Vec<(&'static str, &'static str)>);
    let packages: Vec<Package> = vec![
        (
            "rksp",
            Box::new(|| Box::new(RkspAdapter::new())),
            vec![("solver", "bicgstab"), ("preconditioner", "ilu"), ("tol", "1e-10")],
        ),
        (
            "raztec",
            Box::new(|| Box::new(RaztecAdapter::new())),
            vec![("solver", "gmres"), ("preconditioner", "jacobi"), ("tol", "1e-10")],
        ),
        ("rslu", Box::new(|| Box::new(RsluAdapter::new())), vec![("ordering", "mmd")]),
    ];
    for (name, make, params) in &packages {
        for p in [1usize, 2, 3, 4] {
            let (rep, err) = pipeline(p, &man, make.as_ref(), params);
            assert!(rep.converged, "{name} p={p}");
            assert!(err < 1e-6, "{name} p={p}: err = {err}");
        }
    }
}

#[test]
fn every_sparse_struct_solves_the_same_system() {
    // The system is what 1-D elements [[2, -1], [-1, 2]] on dofs [e, e + 1]
    // assemble to. FEM hands the port those elements; every other format
    // carries the assembled matrix, each rank its rows of it, in 2 × 2
    // blocks for VBR.
    let n = 64;
    let conn: Vec<usize> = (0..n - 1).flat_map(|e| [e, e + 1]).collect();
    let elements: Vec<f64> = (0..n - 1).flat_map(|_| [2.0, -1.0, -1.0, 2.0]).collect();
    let a = convert::decode_fem(Window::serial(n), 2, &elements, &conn).unwrap();
    let x_true = generate::random_vector(n, 5);
    let b = a.matvec(&x_true).unwrap();
    let mut cases = vec![(SparseStruct::Fem, 1, 0), (SparseStruct::Fem, 1, 1)];
    for structure in [SparseStruct::Coo, SparseStruct::Csr, SparseStruct::Msr, SparseStruct::Vbr] {
        for (p, base) in [(1, 0), (1, 1), (2, 0), (2, 1)] {
            cases.push((structure, p, base));
        }
    }
    for (structure, p, base) in cases {
        let out = Universe::run(p, |comm| {
            let blocks = BlockRowPartition::even(n / 2, comm.size());
            let start = 2 * blocks.start_row(comm.rank());
            let rows = 2 * blocks.local_rows(comm.rank());
            let (values, ptr, idx) = match structure {
                SparseStruct::Fem => {
                    (elements.clone(), vec![], conn.iter().map(|d| d + base).collect())
                }
                _ => {
                    let local = a.row_block(start, start + rows).unwrap();
                    common::port_arrays(structure, &local, start, 2, base)
                }
            };
            let s = RkspAdapter::new();
            s.initialize(comm.dup().unwrap()).unwrap();
            s.set_start_row(start).unwrap();
            s.set_local_rows(rows).unwrap();
            s.set_global_cols(n).unwrap();
            s.set_block_size(2).unwrap();
            s.set("solver", "cg").unwrap();
            s.set("preconditioner", "jacobi").unwrap();
            s.set_double("tol", 1e-12).unwrap();
            s.setup_matrix_offset(&values, &ptr, &idx, structure, base).unwrap();
            s.setup_rhs(&b[start..start + rows], 1).unwrap();
            let mut x = vec![0.0; rows];
            let mut status = [0.0; STATUS_LEN];
            s.solve(&mut x, &mut status).unwrap();
            comm.allgatherv(&x).unwrap()
        });
        let err = out[0].iter().zip(&x_true).fold(0.0f64, |m, (g, e)| m.max((g - e).abs()));
        assert!(err < 1e-9, "{structure:?} on {p} rank(s) at base {base}: error {err:e}");
    }
}

#[test]
fn multigrid_adapter_joins_the_family_on_square_grids() {
    // RMG needs an odd grid for coarsening and a Poisson-like operator.
    let m = 15;
    let a = cca_lisi::sparse::generate::laplacian_2d(m);
    let exact = cca_lisi::sparse::generate::random_vector(m * m, 3);
    let man = Manufactured::new(a, exact).unwrap();
    for p in [1usize, 2] {
        let (rep, err) = pipeline(
            p,
            &man,
            &|| Box::new(RmgAdapter::new()),
            &[("smoother", "sgs"), ("tol", "1e-9")],
        );
        assert!(rep.converged, "p = {p}");
        assert!(err < 1e-6, "p = {p}: err = {err}");
        assert!(rep.iterations < 30, "multigrid cycle count stays O(1)");
    }
}

#[test]
fn iterative_packages_report_monotone_work_with_problem_size() {
    // Not a timing test: iteration counts must grow with the grid, the
    // paper's Table 1 "Iters" column shape.
    let mut iters = Vec::new();
    for m in [8usize, 16, 32] {
        let man = cca_lisi::mesh::manufactured::paper_manufactured(m);
        let (rep, _) = pipeline(
            2,
            &man,
            &|| Box::new(RkspAdapter::new()),
            &[("solver", "bicgstab"), ("preconditioner", "jacobi"), ("tol", "1e-8")],
        );
        assert!(rep.converged);
        iters.push(rep.iterations);
    }
    assert!(iters[0] < iters[1] && iters[1] < iters[2], "{iters:?}");
}

#[test]
fn parallel_mesh_generator_feeds_the_solver_without_a_global_matrix() {
    // The true paper pipeline: no rank ever assembles the global system.
    let m = 14;
    let problem = cca_lisi::mesh::paper_problem(m);
    let n = m * m;
    let out = Universe::run(4, |comm| {
        let local = problem.assemble_local(comm);
        let solver = RkspAdapter::new();
        solver.initialize(comm.dup().unwrap()).unwrap();
        solver.set_start_row(local.partition.start_row(local.rank)).unwrap();
        solver.set_local_rows(local.matrix.rows()).unwrap();
        solver.set_global_cols(n).unwrap();
        solver.set("solver", "gmres").unwrap();
        solver.set("preconditioner", "ilu").unwrap();
        solver.set_double("tol", 1e-10).unwrap();
        solver
            .setup_matrix(
                local.matrix.values(),
                local.matrix.row_ptr(),
                local.matrix.col_idx(),
                SparseStruct::Csr,
            )
            .unwrap();
        solver.setup_rhs(&local.rhs, 1).unwrap();
        let mut x = vec![0.0; local.matrix.rows()];
        let mut status = [0.0; STATUS_LEN];
        solver.solve(&mut x, &mut status).unwrap();
        comm.allgatherv(&x).unwrap()
    });
    // Verify against the serial reference solve.
    let (a, b) = problem.assemble_global();
    let reference = a.to_dense().solve(&b).unwrap();
    for got in out {
        for (g, e) in got.iter().zip(&reference) {
            assert!((g - e).abs() < 1e-6, "{g} vs {e}");
        }
    }
}

#[test]
fn status_array_times_are_populated() {
    let man = cca_lisi::mesh::manufactured::paper_manufactured(10);
    let (rep, _) = pipeline(
        2,
        &man,
        &|| Box::new(RkspAdapter::new()),
        &[("solver", "gmres"), ("preconditioner", "jacobi")],
    );
    assert!(rep.setup_seconds > 0.0);
    assert!(rep.solve_seconds > 0.0);
    assert!(rep.residual >= 0.0);
}
