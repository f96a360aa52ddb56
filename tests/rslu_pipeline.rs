//! RSLU through the port: the paper PDE at m = 40 (n = 1600), factored
//! and solved by the direct package under every `ordering` value at one
//! and two ranks. This is the tier-1 cover of the direct layer's set-up
//! path (ordering → numeric factorization → triangular solves); the
//! package's own unit and property tests live in `crates/direct`.

use cca_lisi::comm::Universe;
use cca_lisi::lisi::{RsluAdapter, SolveReport, SparseSolverPort, SparseStruct, STATUS_LEN};
use cca_lisi::sparse::{dense, ops, BlockRowPartition};

#[test]
fn rslu_solves_the_paper_problem_under_every_ordering() {
    let man = cca_lisi::mesh::manufactured::paper_manufactured(40);
    let n = man.exact.len();
    for ordering in ["natural", "rcm", "mindegree"] {
        for p in [1usize, 2] {
            let out = Universe::run(p, |comm| {
                let part = BlockRowPartition::even(n, comm.size());
                let range = part.range(comm.rank());
                let local = man.matrix.row_block(range.start, range.end).unwrap();
                let solver = RsluAdapter::new();
                solver.initialize(comm.dup().unwrap()).unwrap();
                solver.set_start_row(range.start).unwrap();
                solver.set_local_rows(range.len()).unwrap();
                solver.set_local_nnz(local.nnz()).unwrap();
                solver.set_global_cols(n).unwrap();
                solver.set("ordering", ordering).unwrap();
                solver
                    .setup_matrix(
                        local.values(),
                        local.row_ptr(),
                        local.col_idx(),
                        SparseStruct::Csr,
                    )
                    .unwrap();
                solver.setup_rhs(&man.rhs[range.clone()], 1).unwrap();
                let mut x = vec![0.0; range.len()];
                let mut status = [0.0; STATUS_LEN];
                solver.solve(&mut x, &mut status).unwrap();
                (SolveReport::from_slice(&status), comm.allgatherv(&x).unwrap())
            });
            let what = format!("ordering = {ordering}, p = {p}");
            // Everything in the status but the per-rank clocks must agree.
            let untimed =
                |r: &SolveReport| SolveReport { setup_seconds: 0.0, solve_seconds: 0.0, ..*r };
            for (rank, (report, _)) in out.iter().enumerate() {
                assert!(report.converged, "{what}, rank {rank}");
                assert_eq!(untimed(report), untimed(&out[0].0), "{what}, rank {rank}");
            }
            let x = &out[0].1;
            let r = ops::residual(&man.matrix, x, &man.rhs).unwrap();
            let rel = dense::norm2(&r) / dense::norm2(&man.rhs);
            assert!(rel <= 1e-10, "{what}: ‖b − A·x‖/‖b‖ = {rel:e}");
        }
    }
}
