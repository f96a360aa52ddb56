//! A tour of every `SparseStruct` input format (paper §5.3): the same
//! system is fed to the same solver five ways — COO, CSR, MSR, VBR and
//! FEM element contributions, plus Fortran-style 1-based indexing through
//! the `setupMatrix[large_args]` overload — and each path prints how far
//! its solution lands from the true one. This is the "adapter converts
//! the input data format" promise, shown; `tests/full_pipeline.rs`
//! (`every_sparse_struct_solves_the_same_system`) holds it.
//!
//! ```text
//! cargo run --example formats_tour
//! ```

use cca_lisi::comm::Universe;
use cca_lisi::lisi::{RkspAdapter, SparseSolverPort, SparseStruct, STATUS_LEN};
use cca_lisi::sparse::convert::{self, Window};
use cca_lisi::sparse::generate;

fn main() {
    // The system 1-D elements [[2, -1], [-1, 2]] on dofs [e, e + 1]
    // assemble to: FEM hands the port the elements themselves, every other
    // format the assembled matrix (VBR in 2 × 2 blocks).
    let n = 64;
    let conn: Vec<usize> = (0..n - 1).flat_map(|e| [e, e + 1]).collect();
    let elements: Vec<f64> = (0..n - 1).flat_map(|_| [2.0, -1.0, -1.0, 2.0]).collect();
    let a = convert::decode_fem(Window::serial(n), 2, &elements, &conn).unwrap();
    let x_true = generate::random_vector(n, 5);
    let b = a.matvec(&x_true).unwrap();
    println!("same {n}×{n} system through every SparseStruct format:\n");

    let solve_with = |label: &str, setup: &(dyn Fn(&RkspAdapter) + Sync)| {
        let results = Universe::run(1, |comm| {
            let s = RkspAdapter::new();
            s.initialize(comm.dup().unwrap()).unwrap();
            s.set_start_row(0).unwrap();
            s.set_local_rows(n).unwrap();
            s.set_global_cols(n).unwrap();
            s.set_block_size(2).unwrap(); // VBR block size / FEM element arity
            s.set("solver", "cg").unwrap();
            s.set("preconditioner", "jacobi").unwrap();
            s.set_double("tol", 1e-12).unwrap();
            setup(&s);
            s.setup_rhs(&b, 1).unwrap();
            let mut x = vec![0.0; n];
            let mut status = [0.0; STATUS_LEN];
            s.solve(&mut x, &mut status).unwrap();
            x
        });
        let err = results[0].iter().zip(&x_true).fold(0.0f64, |m, (g, e)| m.max((g - e).abs()));
        println!("  {label:<26} max error = {err:.2e}");
    };

    // COO (the few_args overload).
    let coo = a.to_coo();
    let (rows, cols, vals) = coo.triplets();
    solve_with("COO / few_args", &|s| {
        s.setup_matrix_coo(vals, rows, cols).unwrap();
    });

    // CSR (media_args).
    solve_with("CSR / media_args", &|s| {
        s.setup_matrix(a.values(), a.row_ptr(), a.col_idx(), SparseStruct::Csr).unwrap();
    });

    // CSR, 1-based Fortran indexing (large_args).
    let ptr1: Vec<usize> = a.row_ptr().iter().map(|p| p + 1).collect();
    let col1: Vec<usize> = a.col_idx().iter().map(|c| c + 1).collect();
    solve_with("CSR 1-based / large_args", &|s| {
        s.setup_matrix_offset(a.values(), &ptr1, &col1, SparseStruct::Csr, 1).unwrap();
    });

    // MSR (SPARSKIT layout).
    let (mval, mja) = convert::csr_to_msr(&a, 0).unwrap();
    solve_with("MSR", &|s| {
        s.setup_matrix(&mval, &[], &mja, SparseStruct::Msr).unwrap();
    });

    // VBR with uniform 2×2 blocks.
    let (bvals, bptr, bindx) = convert::csr_to_vbr(&a, 2).unwrap();
    solve_with("VBR (2x2 blocks)", &|s| {
        s.setup_matrix(&bvals, &bptr, &bindx, SparseStruct::Vbr).unwrap();
    });

    // FEM: the element contributions, summed by the adapter.
    solve_with("FEM elements", &|s| {
        s.setup_matrix(&elements, &[], &conn, SparseStruct::Fem).unwrap();
    });

    println!("\nevery format solved the same system");
}
