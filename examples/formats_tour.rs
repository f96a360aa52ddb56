//! A tour of every `SparseStruct` input format (paper §5.3): the same
//! system is fed to the same solver five ways — COO, CSR, MSR, VBR and
//! FEM element contributions, plus Fortran-style 1-based indexing through
//! the `setupMatrix[large_args]` overload — and every path must give the
//! same answer. This is the "adapter converts the input data format"
//! promise, verified.
//!
//! ```text
//! cargo run --example formats_tour
//! ```

use cca_lisi::comm::Universe;
use cca_lisi::lisi::{RkspAdapter, SparseSolverPort, SparseStruct, STATUS_LEN};
use cca_lisi::sparse::{convert, generate, MsrMatrix};

fn main() {
    // An SPD block-structured test matrix: 2×2 blocks on a 1-D mesh (so
    // VBR with bs = 2 is natural), diagonally dominant.
    let n = 64;
    let a = generate::random_diag_dominant(n, 3, 11);
    let x_true = generate::random_vector(n, 5);
    let b = a.matvec(&x_true).unwrap();
    println!("same {n}×{n} system through every SparseStruct format:\n");

    let solve_with = |label: &str, setup: &(dyn Fn(&RkspAdapter) + Sync)| {
        let b = b.clone();
        let results = Universe::run(1, |comm| {
            let s = RkspAdapter::new();
            s.initialize(comm.dup().unwrap()).unwrap();
            s.set_start_row(0).unwrap();
            s.set_local_rows(n).unwrap();
            s.set_global_cols(n).unwrap();
            s.set("solver", "gmres").unwrap();
            s.set("preconditioner", "ilu").unwrap();
            s.set_double("tol", 1e-11).unwrap();
            setup(&s);
            s.setup_rhs(&b, 1).unwrap();
            let mut x = vec![0.0; n];
            let mut status = [0.0; STATUS_LEN];
            s.solve(&mut x, &mut status).unwrap();
            x
        });
        let err = results[0]
            .iter()
            .zip(&x_true)
            .fold(0.0f64, |m, (g, e)| m.max((g - e).abs()));
        println!("  {label:<26} max error = {err:.2e}");
        assert!(err < 1e-7, "{label}");
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
    let msr = MsrMatrix::from_csr(&a).unwrap();
    let (mval, mja) = msr.parts();
    solve_with("MSR", &|s| {
        s.setup_matrix(mval, &[], mja, SparseStruct::Msr).unwrap();
    });

    // VBR with uniform 2×2 blocks.
    let bs = 2;
    let vbr = build_uniform_vbr_arrays(&a, bs);
    solve_with("VBR (2x2 blocks)", &|s| {
        s.set_block_size(bs).unwrap();
        s.setup_matrix(&vbr.0, &vbr.1, &vbr.2, SparseStruct::Vbr).unwrap();
    });

    // FEM: element contributions that assemble to the same matrix. Use a
    // fresh FEM-natural problem to keep the demonstration honest.
    println!("\nFEM element input (1-D bar assembly):");
    let fem = cca_lisi::sparse::fem::stiffness_1d(32);
    let a_fem = fem.to_csr();
    let nf = a_fem.rows();
    // Pin the first dof (Dirichlet) to make it nonsingular.
    let mut coo = a_fem.to_coo();
    coo.push(0, 0, 1e6).unwrap();
    let a_pinned = coo.to_csr();
    let xf_true = generate::random_vector(nf, 9);
    let bf = a_pinned.matvec(&xf_true).unwrap();
    let conn: Vec<usize> = fem.elements().iter().flat_map(|e| e.dofs.clone()).collect();
    let mut vals: Vec<f64> = fem.elements().iter().flat_map(|e| e.matrix.clone()).collect();
    // Fold the pin into the first element's (0,0) entry.
    vals[0] += 1e6;
    let results = Universe::run(1, |comm| {
        let s = RkspAdapter::new();
        s.initialize(comm.dup().unwrap()).unwrap();
        s.set_start_row(0).unwrap();
        s.set_local_rows(nf).unwrap();
        s.set_global_cols(nf).unwrap();
        s.set_block_size(2).unwrap(); // element arity
        s.set("solver", "cg").unwrap();
        s.set("preconditioner", "jacobi").unwrap();
        s.set_double("tol", 1e-12).unwrap();
        s.setup_matrix(&vals, &[], &conn, SparseStruct::Fem).unwrap();
        s.setup_rhs(&bf, 1).unwrap();
        let mut x = vec![0.0; nf];
        let mut status = [0.0; STATUS_LEN];
        s.solve(&mut x, &mut status).unwrap();
        x
    });
    let err = results[0]
        .iter()
        .zip(&xf_true)
        .fold(0.0f64, |m, (g, e)| m.max((g - e).abs()));
    println!("  FEM elements               max error = {err:.2e}");
    assert!(err < 1e-5);

    println!("\nall formats agreed — OK");
}

/// Uniform-block VBR arrays `(values, block_row_ptr, block_cols)` as the
/// LISI VBR convention expects.
fn build_uniform_vbr_arrays(
    a: &cca_lisi::sparse::CsrMatrix,
    bs: usize,
) -> (Vec<f64>, Vec<usize>, Vec<usize>) {
    let n = a.rows();
    assert_eq!(n % bs, 0);
    let nbr = n / bs;
    let mut bptr = vec![0usize];
    let mut bindx = Vec::new();
    let mut vals = Vec::new();
    for br in 0..nbr {
        let mut present: Vec<usize> = Vec::new();
        for lr in 0..bs {
            for &c in a.row(br * bs + lr).0 {
                let bc = c / bs;
                if !present.contains(&bc) {
                    present.push(bc);
                }
            }
        }
        present.sort_unstable();
        for &bc in &present {
            let base = vals.len();
            vals.resize(base + bs * bs, 0.0);
            for lr in 0..bs {
                let (cs, vs) = a.row(br * bs + lr);
                for (&c, &v) in cs.iter().zip(vs) {
                    if c / bs == bc {
                        vals[base + (c % bs) * bs + lr] = v;
                    }
                }
            }
            bindx.push(bc);
        }
        bptr.push(bindx.len());
    }
    let _ = convert::csr_to_vbr_uniform(a, bs); // sanity: format exists
    (vals, bptr, bindx)
}
