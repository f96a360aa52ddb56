//! Property-based tests on the format layer: conversions must round-trip,
//! every format's matvec must agree with the dense reference, and the
//! distributed matvec must agree with the serial one for arbitrary
//! matrices and rank counts.

use proptest::collection::vec;
use proptest::prelude::*;
use rsparse::convert::{coo_arrays_to_csr, csr_to_vbr_uniform};
use rsparse::{
    BlockRowPartition, CooMatrix, DistCsrMatrix, DistVector, MsrMatrix,
};

/// Strategy: a random sparse matrix given as triplets (duplicates allowed —
/// they must be summed).
fn arb_triplets(
    max_dim: usize,
    max_nnz: usize,
) -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(r, c)| {
        let entry = (0..r, 0..c, -100.0f64..100.0);
        vec(entry, 0..=max_nnz).prop_map(move |t| (r, c, t))
    })
}

fn to_coo(rows: usize, cols: usize, t: &[(usize, usize, f64)]) -> CooMatrix {
    let r: Vec<usize> = t.iter().map(|e| e.0).collect();
    let c: Vec<usize> = t.iter().map(|e| e.1).collect();
    let v: Vec<f64> = t.iter().map(|e| e.2).collect();
    CooMatrix::from_triplets(rows, cols, &r, &c, &v).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn coo_to_csr_sums_duplicates_like_dense((rows, cols, t) in arb_triplets(12, 40)) {
        let coo = to_coo(rows, cols, &t);
        let csr = coo.to_csr();
        // Dense reference accumulation.
        let mut dense = vec![0.0f64; rows * cols];
        for &(r, c, v) in &t {
            dense[r * cols + c] += v;
        }
        for i in 0..rows {
            for j in 0..cols {
                prop_assert!((csr.get(i, j) - dense[i * cols + j]).abs() < 1e-9);
            }
        }
        // Invariants: sorted unique columns per row.
        for i in 0..rows {
            let (cs, _) = csr.row(i);
            for w in cs.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn csr_csc_round_trip((rows, cols, t) in arb_triplets(12, 40)) {
        let a = to_coo(rows, cols, &t).to_csr();
        prop_assert_eq!(a.to_csc().to_csr(), a.clone());
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn msr_round_trip_square((n, t) in (1usize..12).prop_flat_map(|n| {
        (Just(n), vec((0..n, 0..n, -10.0f64..10.0), 0..30))
    })) {
        let a = to_coo(n, n, &t).to_csr();
        let m = MsrMatrix::from_csr(&a).unwrap();
        prop_assert_eq!(m.to_csr(), a);
    }

    #[test]
    fn vbr_round_trip_any_block_size(
        (rows, cols, t) in arb_triplets(10, 30),
        bs in 1usize..6,
    ) {
        let a = to_coo(rows, cols, &t).to_csr();
        let v = csr_to_vbr_uniform(&a, bs).unwrap();
        prop_assert_eq!(v.to_csr(), a);
    }

    #[test]
    fn all_format_matvecs_agree(
        (rows, cols, t) in arb_triplets(10, 30),
        xseed in any::<u64>(),
    ) {
        let coo = to_coo(rows, cols, &t);
        let csr = coo.to_csr();
        let x = rsparse::generate::random_vector(cols, xseed);
        let dense_y = csr.to_dense().matvec(&x).unwrap();
        let close = |a: &[f64], b: &[f64]| {
            a.iter().zip(b).all(|(p, q)| (p - q).abs() < 1e-9 * (1.0 + q.abs()))
        };
        prop_assert!(close(&csr.matvec(&x).unwrap(), &dense_y));
        prop_assert!(close(&coo.matvec(&x).unwrap(), &dense_y));
        prop_assert!(close(&csr.to_csc().matvec(&x).unwrap(), &dense_y));
        let v = csr_to_vbr_uniform(&csr, 3).unwrap();
        prop_assert!(close(&v.matvec(&x).unwrap(), &dense_y));
    }

    #[test]
    fn matmul_matches_dense(
        (n, ta, tb) in (1usize..9).prop_flat_map(|n| {
            let e = (0..n, 0..n, -5.0f64..5.0);
            (Just(n), vec(e.clone(), 0..20), vec(e, 0..20))
        })
    ) {
        let a = to_coo(n, n, &ta).to_csr();
        let b = to_coo(n, n, &tb).to_csr();
        let c = rsparse::ops::matmul(&a, &b).unwrap();
        let (ad, bd, cd) = (a.to_dense(), b.to_dense(), c.to_dense());
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += ad[(i, k)] * bd[(k, j)];
                }
                prop_assert!((cd[(i, j)] - s).abs() < 1e-9 * (1.0 + s.abs()));
            }
        }
    }

    #[test]
    fn add_matches_dense(
        (n, ta, tb) in (1usize..9).prop_flat_map(|n| {
            let e = (0..n, 0..n, -5.0f64..5.0);
            (Just(n), vec(e.clone(), 0..20), vec(e, 0..20))
        }),
        alpha in -3.0f64..3.0,
        beta in -3.0f64..3.0,
    ) {
        let a = to_coo(n, n, &ta).to_csr();
        let b = to_coo(n, n, &tb).to_csr();
        let c = rsparse::ops::add(alpha, &a, beta, &b).unwrap();
        let (ad, bd, cd) = (a.to_dense(), b.to_dense(), c.to_dense());
        for i in 0..n {
            for j in 0..n {
                let s = alpha * ad[(i, j)] + beta * bd[(i, j)];
                prop_assert!((cd[(i, j)] - s).abs() < 1e-9 * (1.0 + s.abs()));
            }
        }
    }

    #[test]
    fn one_based_offset_is_exact_shift((rows, cols, t) in arb_triplets(10, 25)) {
        let r0: Vec<usize> = t.iter().map(|e| e.0).collect();
        let c0: Vec<usize> = t.iter().map(|e| e.1).collect();
        let v: Vec<f64> = t.iter().map(|e| e.2).collect();
        let zero_based = coo_arrays_to_csr(rows, cols, &v, &r0, &c0, 0).unwrap();
        let r1: Vec<usize> = r0.iter().map(|x| x + 1).collect();
        let c1: Vec<usize> = c0.iter().map(|x| x + 1).collect();
        let one_based = coo_arrays_to_csr(rows, cols, &v, &r1, &c1, 1).unwrap();
        prop_assert_eq!(zero_based, one_based);
    }

    #[test]
    fn matrix_market_round_trip((rows, cols, t) in arb_triplets(10, 25)) {
        let a = to_coo(rows, cols, &t).to_csr();
        let mut buf = Vec::new();
        rsparse::io::write_matrix(&mut buf, &a).unwrap();
        let back = rsparse::io::read_matrix(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(back, a);
    }
}

proptest! {
    // Distributed cases spawn threads; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dist_update_values_preserves_matvec(
        (n, t) in (2usize..14).prop_flat_map(|n| {
            (Just(n), vec((0..n, 0..n, -10.0f64..10.0), 1..50))
        }),
        p in 1usize..4,
        scale in -3.0f64..3.0,
    ) {
        // After update_values with scaled values, the distributed matvec
        // must match the scaled serial matvec — this exercises the
        // compiled-column reordering logic for arbitrary patterns.
        let a = to_coo(n, n, &t).to_csr();
        let x = rsparse::generate::random_vector(n, 77);
        let expect = rsparse::ops::scale(scale, &a).matvec(&x).unwrap();
        let out = rcomm::Universe::run(p, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let mut da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
            let vals: Vec<f64> =
                da.local_matrix().values().iter().map(|v| v * scale).collect();
            da.update_values(&vals).unwrap();
            let dx = DistVector::from_global(part, comm.rank(), &x).unwrap();
            da.matvec(comm, &dx).unwrap().allgather_full(comm).unwrap()
        });
        for got in out {
            for (g, e) in got.iter().zip(&expect) {
                prop_assert!((g - e).abs() < 1e-9 * (1.0 + e.abs()));
            }
        }
    }

    #[test]
    fn dist_matvec_equals_serial(
        (n, t) in (2usize..16).prop_flat_map(|n| {
            (Just(n), vec((0..n, 0..n, -10.0f64..10.0), 1..60))
        }),
        p in 1usize..5,
        xseed in any::<u64>(),
    ) {
        let a = to_coo(n, n, &t).to_csr();
        let x = rsparse::generate::random_vector(n, xseed);
        let expect = a.matvec(&x).unwrap();
        let out = rcomm::Universe::run(p, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
            let dx = DistVector::from_global(part, comm.rank(), &x).unwrap();
            da.matvec(comm, &dx).unwrap().allgather_full(comm).unwrap()
        });
        for got in out {
            for (g, e) in got.iter().zip(&expect) {
                prop_assert!((g - e).abs() < 1e-9 * (1.0 + e.abs()));
            }
        }
    }
}
