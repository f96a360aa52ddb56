//! Recursion through the interface (paper §5.2e): a multigrid LISI
//! solver whose **coarse-grid solver is itself a LISI solver** — the RMG
//! component's coarsest level is handed to an RSLU (direct) adapter
//! through the very same `SparseSolver` interface. This is the
//! "multi-level solver developer can use LISI on each level solve" mode
//! the paper describes.
//!
//! ```text
//! cargo run --example multigrid_recursion
//! ```

use cca_lisi::comm::Universe;
use cca_lisi::lisi::{
    RmgAdapter, RsluAdapter, SolveReport, SparseSolverPort, SparseStruct, STATUS_LEN,
};

fn main() {
    let m = 31; // coarsens 31 → 15 → 7 → 3 → 1
    let a = cca_lisi::sparse::generate::laplacian_2d(m);
    let n = m * m;
    let x_true = cca_lisi::sparse::generate::random_vector(n, 42);
    let b = a.matvec(&x_true).unwrap();
    println!("multigrid on {m}×{m} Poisson, coarse level solved by a nested LISI/RSLU solver");

    let results = Universe::run(1, |comm| {
        let outer = RmgAdapter::new();

        // The nested LISI solver: every coarse-grid visit spins up an
        // RSLU adapter and drives it through the standard interface —
        // re-entrancy in action.
        let coarse_comm = comm.dup().unwrap();
        outer.set_coarse_solver(move |a_c, b_c| {
            let nc = a_c.rows();
            let inner = RsluAdapter::new();
            inner
                .initialize(coarse_comm.dup().map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            inner.set_start_row(0).map_err(|e| e.to_string())?;
            inner.set_local_rows(nc).map_err(|e| e.to_string())?;
            inner.set_global_cols(nc).map_err(|e| e.to_string())?;
            inner
                .setup_matrix(a_c.values(), a_c.row_ptr(), a_c.col_idx(), SparseStruct::Csr)
                .map_err(|e| e.to_string())?;
            inner.setup_rhs(b_c, 1).map_err(|e| e.to_string())?;
            let mut x = vec![0.0; nc];
            let mut status = [0.0; STATUS_LEN];
            inner.solve(&mut x, &mut status).map_err(|e| e.to_string())?;
            Ok(x)
        });

        outer.initialize(comm.dup().unwrap()).unwrap();
        outer.set_start_row(0).unwrap();
        outer.set_local_rows(n).unwrap();
        outer.set_global_cols(n).unwrap();
        outer.set("cycle", "v").unwrap();
        outer.set("smoother", "sgs").unwrap();
        outer.set_double("tol", 1e-10).unwrap();
        outer.setup_matrix(a.values(), a.row_ptr(), a.col_idx(), SparseStruct::Csr).unwrap();
        outer.setup_rhs(&b, 1).unwrap();
        let mut x = vec![0.0; n];
        let mut status = [0.0; STATUS_LEN];
        outer.solve(&mut x, &mut status).unwrap();
        (SolveReport::from_slice(&status), x)
    });

    let (report, x) = &results[0];
    let err = x.iter().zip(&x_true).fold(0.0f64, |mx, (g, e)| mx.max((g - e).abs()));
    println!("converged : {}", report.converged);
    println!("V-cycles  : {}", report.iterations);
    println!("max error : {err:.3e}");
    assert!(report.converged && err < 1e-6);
    assert!(report.iterations < 25, "multigrid should need O(1) cycles");
    println!("OK — a LISI solver ran inside a LISI solver");
}
