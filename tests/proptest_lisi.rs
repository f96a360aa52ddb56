//! Property-based integration tests on the interface contract: for random
//! well-conditioned systems, every input format, any index base, any rank
//! count, and any package must produce the same (correct) solution.

use cca_lisi::comm::Universe;
use cca_lisi::lisi::{
    LisiError, RaztecAdapter, RkspAdapter, RsluAdapter, SparseSolverPort, SparseStruct, STATUS_LEN,
};
use cca_lisi::sparse::{generate, BlockRowPartition};
use proptest::prelude::*;

mod common;

/// Solve a pre-assembled global system through an adapter on `p` ranks,
/// feeding the matrix in `structure` form with index base `offset`. VBR
/// uses 2 × 2 blocks, so its ranks own whole block rows.
fn solve_via(
    adapter: &str,
    p: usize,
    a: &cca_lisi::sparse::CsrMatrix,
    b: &[f64],
    structure: SparseStruct,
    offset: usize,
) -> Vec<f64> {
    let n = a.rows();
    let bs = if structure == SparseStruct::Vbr { 2 } else { 1 };
    let out = Universe::run(p, |comm| {
        let blocks = BlockRowPartition::even(n / bs, comm.size());
        let range = bs * blocks.start_row(comm.rank())..bs * blocks.range(comm.rank()).end;
        let local = a.row_block(range.start, range.end).unwrap();
        let solver: Box<dyn SparseSolverPort> = match adapter {
            "rksp" => Box::new(RkspAdapter::new()),
            "raztec" => Box::new(RaztecAdapter::new()),
            "rslu" => Box::new(RsluAdapter::new()),
            other => panic!("unknown adapter {other}"),
        };
        solver.initialize(comm.dup().unwrap()).unwrap();
        solver.set_start_row(range.start).unwrap();
        solver.set_local_rows(range.len()).unwrap();
        solver.set_global_cols(n).unwrap();
        solver.set("tol", "1e-11").unwrap();
        solver.set_block_size(bs).unwrap();
        let (values, rows, cols) = common::port_arrays(structure, &local, range.start, bs, offset);
        solver.setup_matrix_offset(&values, &rows, &cols, structure, offset).unwrap();
        solver.setup_rhs(&b[range.clone()], 1).unwrap();
        let mut x = vec![0.0; range.len()];
        let mut status = [0.0; STATUS_LEN];
        solver.solve(&mut x, &mut status).unwrap();
        comm.allgatherv(&x).unwrap()
    });
    out.into_iter().next().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn all_packages_agree_on_random_systems(
        seed in 0u64..5000,
        p in 1usize..4,
    ) {
        let n = 24;
        let a = generate::random_diag_dominant(n, 3, seed);
        let x_true = generate::random_vector(n, seed.wrapping_add(1));
        let b = a.matvec(&x_true).unwrap();
        for adapter in ["rksp", "raztec", "rslu"] {
            let x = solve_via(adapter, p, &a, &b, SparseStruct::Csr, 0);
            for (g, e) in x.iter().zip(&x_true) {
                prop_assert!((g - e).abs() < 1e-6, "{adapter} p={p}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn formats_and_offsets_are_equivalent(
        seed in 0u64..5000,
        p in 1usize..4,
        offset in 0usize..2,
    ) {
        let n = 20;
        let a = generate::random_diag_dominant(n, 3, seed);
        let x_true = generate::random_vector(n, seed.wrapping_add(9));
        let b = a.matvec(&x_true).unwrap();
        let formats = [SparseStruct::Csr, SparseStruct::Coo, SparseStruct::Msr, SparseStruct::Vbr];
        for structure in formats {
            let x = solve_via("rslu", p, &a, &b, structure, offset);
            for (g, e) in x.iter().zip(&x_true) {
                prop_assert!((g - e).abs() < 1e-8, "{structure:?} p={p} base={offset}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn multi_rhs_matches_sequential_solves(
        seed in 0u64..5000,
        n_rhs in 1usize..4,
    ) {
        let n = 18;
        let a = generate::random_diag_dominant(n, 3, seed);
        let xs: Vec<Vec<f64>> =
            (0..n_rhs).map(|k| generate::random_vector(n, seed + k as u64)).collect();
        let mut flat_b = Vec::new();
        for x in &xs {
            flat_b.extend(a.matvec(x).unwrap());
        }
        let out = Universe::run(1, |comm| {
            let solver = RsluAdapter::new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(0).unwrap();
            solver.set_local_rows(n).unwrap();
            solver.set_global_cols(n).unwrap();
            solver
                .setup_matrix(a.values(), a.row_ptr(), a.col_idx(), SparseStruct::Csr)
                .unwrap();
            solver.setup_rhs(&flat_b, n_rhs).unwrap();
            let mut x = vec![0.0; n * n_rhs];
            let mut status = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut status).unwrap();
            x
        });
        for (k, x_true) in xs.iter().enumerate() {
            for (g, e) in out[0][k * n..(k + 1) * n].iter().zip(x_true) {
                prop_assert!((g - e).abs() < 1e-7);
            }
        }
    }
}

proptest! {
    // No ranks, no solve: one `setupMatrix` a case.
    #![proptest_config(ProptestConfig::with_cases(5000))]

    #[test]
    fn setup_matrix_answers_any_input_with_a_typed_verdict(
        structure in proptest::sample::select(SparseStruct::ALL.to_vec()),
        (bs, nb, first) in (1usize..4, 1usize..5).prop_flat_map(|(bs, nb)| {
            (Just(bs), Just(nb), 0..nb)
        }),
        base in 0usize..3,
        seed in 0u64..1000,
        edits in proptest::collection::vec((0usize..10, 0usize..3, 0usize..16, 0usize..8), 0..9),
    ) {
        // A well-formed encoding of the rows from block `first` on of a
        // random matrix, then up to eight edits, most of them to its index
        // arrays (`ptr` is target 0, `idx` the others): whatever arrives,
        // `setupMatrix` answers Ok, InvalidInput or Unsupported.
        let n = bs * nb;
        let a = generate::random_csr(n, n, 0.5, seed);
        let (mut start, mut rows, mut cols) = (bs * first, n - bs * first, n);
        let local = a.row_block(start, n).unwrap();
        let (mut values, mut ptr, mut idx) =
            common::port_arrays(structure, &local, start, bs, base);
        let (mut base, mut bs) = (base, bs);
        for &(kind, target, x, y) in &edits {
            let array = if target == 0 { &mut ptr } else { &mut idx };
            let at = x % array.len().max(1);
            match kind {
                // Overwrite, raise or append near the arrays' own extents.
                0 | 1 if !array.is_empty() => array[at] = y,
                2 | 3 if !array.is_empty() => array[at] = array[at].saturating_add(1 + y % 3),
                4 | 5 => array.extend(std::iter::repeat_n(y, 1 + x % 3)),
                6 if target == 2 => drop(values.pop()),
                6 => drop(array.pop()),
                7 if target == 2 => values.push(y as f64),
                7 => *[&mut start, &mut rows, &mut cols][y % 3] = x % 10,
                8 if target == 0 => base = y % 3,
                8 => bs = 1 + y % 4,
                // Indices and windows that overflow any arithmetic on them.
                9 if target == 2 => start = usize::MAX - x,
                9 => array.push(usize::MAX - x),
                _ => {}
            }
        }
        let s = RkspAdapter::new();
        s.set_start_row(start).unwrap();
        s.set_local_rows(rows).unwrap();
        s.set_global_cols(cols).unwrap();
        s.set_block_size(bs).unwrap();
        match s.setup_matrix_offset(&values, &ptr, &idx, structure, base) {
            Ok(()) | Err(LisiError::InvalidInput(_) | LisiError::Unsupported(_)) => {}
            Err(other) => prop_assert!(false, "{structure:?}: {other:?}"),
        }
    }
}
