//! Property-based tests on the format layer: every input format must
//! decode what its encoder wrote on any rank's window, conversions must
//! round-trip, the matvec must agree with the dense reference, and the
//! distributed matvec must agree with the serial one for arbitrary
//! matrices and rank counts.

use proptest::collection::vec;
use proptest::prelude::*;
use rsparse::convert::{self, Window};
use rsparse::{BlockRowPartition, CooMatrix, CsrMatrix, DistCsrMatrix, DistVector, SparseError};

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

/// `(bs, n, triplets, ranks, base)`.
type Windowed = (usize, usize, Vec<(usize, usize, f64)>, usize, usize);

/// Strategy: a block size `bs`, an `n × n` matrix with `n` a multiple of
/// it, given as triplets with duplicates and explicit zeros, a rank count
/// and an index base.
fn arb_windowed() -> impl Strategy<Value = Windowed> {
    (1usize..4, 1usize..6).prop_flat_map(|(bs, nb)| {
        let n = bs * nb;
        // One value in three is an explicit zero.
        let value = (0u8..3, -10.0f64..10.0).prop_map(|(z, v)| if z == 0 { 0.0 } else { v });
        (Just(bs), Just(n), vec((0..n, 0..n, value), 0..40), 1usize..4, 0usize..2)
    })
}

/// The arrays of `a` with every index raised by `base`.
fn shift(a: &[usize], base: usize) -> Vec<usize> {
    a.iter().map(|i| i + base).collect()
}

/// `a` without the stored entries `drop(row, col, value)` selects.
fn without(a: &CsrMatrix, drop: impl Fn(usize, usize, f64) -> bool) -> CsrMatrix {
    let mut coo = CooMatrix::new(a.rows(), a.cols());
    for (r, c, v) in a.iter().filter(|&(r, c, v)| !drop(r, c, v)) {
        coo.push(r, c, v).unwrap();
    }
    coo.to_csr()
}

/// A matrix's arrays with the values as bits, for bit-for-bit equality.
fn bits(a: &CsrMatrix) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
    (a.row_ptr().to_vec(), a.col_idx().to_vec(), a.values().iter().map(|v| v.to_bits()).collect())
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
    fn every_format_decodes_its_encoding_on_every_window(
        (bs, n, t, p, base) in arb_windowed(),
    ) {
        let a = to_coo(n, n, &t).to_csr();
        // Windows of whole block rows, so that VBR's `bs` divides each.
        let blocks = BlockRowPartition::even(n / bs, p);
        for rank in 0..p {
            let (start, rows) = (blocks.start_row(rank) * bs, blocks.local_rows(rank) * bs);
            let w = Window { start, rows, cols: n, base };
            let local = a.row_block(start, start + rows).unwrap();

            let (ptr, cols) = (shift(local.row_ptr(), base), shift(local.col_idx(), base));
            prop_assert_eq!(&convert::decode_csr(w, local.values(), &ptr, &cols).unwrap(), &local);

            let coo = local.to_coo();
            let (lr, lc, lv) = coo.triplets();
            let gr: Vec<usize> = lr.iter().map(|r| r + start + base).collect();
            prop_assert_eq!(&convert::decode_coo(w, lv, &gr, &shift(lc, base)).unwrap(), &local);

            // MSR drops a zero diagonal slot and keeps every other zero.
            let (val, ja) = convert::csr_to_msr(&local, start).unwrap();
            let msr = convert::decode_msr(w, &val, &shift(&ja, base)).unwrap();
            prop_assert_eq!(msr, without(&local, |r, c, v| v == 0.0 && c == start + r));

            // VBR drops every zero, the block padding's and the input's.
            let (vals, bptr, bindx) = convert::csr_to_vbr(&local, bs).unwrap();
            let vbr = convert::decode_vbr(w, bs, &vals, &shift(&bptr, base), &shift(&bindx, base));
            prop_assert_eq!(vbr.unwrap(), without(&local, |_, _, v| v == 0.0));

            // Raw triplets with duplicates: summed exactly as COO sums them.
            let (mut r, mut c, mut v) = (vec![], vec![], vec![]);
            for &(i, j, x) in t.iter().filter(|e| (start..start + rows).contains(&e.0)) {
                r.push(i - start);
                c.push(j);
                v.push(x);
            }
            let want = CooMatrix::from_triplets(rows, n, &r, &c, &v).unwrap().to_csr();
            let gr: Vec<usize> = r.iter().map(|i| i + start + base).collect();
            let got = convert::decode_coo(w, &v, &gr, &shift(&c, base)).unwrap();
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn msr_round_trip_square((n, t) in (1usize..12).prop_flat_map(|n| {
        (Just(n), vec((0..n, 0..n, -10.0f64..10.0), 0..30))
    })) {
        let a = to_coo(n, n, &t).to_csr();
        let (val, ja) = convert::csr_to_msr(&a, 0).unwrap();
        // SPARSKIT layout: a dense diagonal, an unused slot, then the
        // off-diagonals that ja[..=n] points into.
        prop_assert_eq!(val.len(), ja.len());
        prop_assert_eq!((ja[0], ja[n]), (n + 1, val.len()));
        prop_assert!(ja[..=n].windows(2).all(|p| p[0] <= p[1]));
        for (i, &d) in val[..n].iter().enumerate() {
            prop_assert_eq!(d, a.get(i, i));
        }
        let back = convert::decode_msr(Window::serial(n), &val, &ja).unwrap();
        prop_assert_eq!(back, without(&a, |r, c, v| v == 0.0 && r == c));
    }

    #[test]
    fn vbr_round_trip_any_block_size(
        (rows, cols, t) in arb_triplets(10, 30),
        bs in 1usize..6,
    ) {
        let a = to_coo(rows, cols, &t).to_csr();
        let encoded = convert::csr_to_vbr(&a, bs);
        if !rows.is_multiple_of(bs) || !cols.is_multiple_of(bs) {
            prop_assert!(matches!(encoded, Err(SparseError::BadBlockPartition(_))));
            return Ok(());
        }
        let (vals, bptr, bindx) = encoded.unwrap();
        // Exactly the blocks holding an entry are stored, each whole.
        let mut touched: Vec<(usize, usize)> = a.iter().map(|(r, c, _)| (r / bs, c / bs)).collect();
        touched.sort_unstable();
        touched.dedup();
        prop_assert_eq!(bindx.len(), touched.len());
        prop_assert_eq!(vals.len(), touched.len() * bs * bs);
        let w = Window { start: 0, rows, cols, base: 0 };
        let back = convert::decode_vbr(w, bs, &vals, &bptr, &bindx).unwrap();
        prop_assert_eq!(back, without(&a, |_, _, v| v == 0.0));
    }

    #[test]
    fn one_based_offset_is_exact_shift(
        (rows, cols, t) in (1usize..=10, 1usize..=10).prop_flat_map(|(r, c)| {
            // Indices up to one past the window, so that some inputs fail.
            (Just(r), Just(c), vec((0..=r, 0..=c, -100.0f64..100.0), 0..=25))
        }),
        k in 1usize..4,
    ) {
        let r0: Vec<usize> = t.iter().map(|e| e.0).collect();
        let c0: Vec<usize> = t.iter().map(|e| e.1).collect();
        let v: Vec<f64> = t.iter().map(|e| e.2).collect();
        let w0 = Window { start: 0, rows, cols, base: 0 };
        let w1 = Window { base: 1, ..w0 };
        let in_range = t.iter().all(|e| e.0 < rows && e.1 < cols);
        let zero_based = convert::decode_coo(w0, &v, &r0, &c0).ok();
        prop_assert_eq!(zero_based.is_some(), in_range);
        prop_assert_eq!(zero_based, convert::decode_coo(w1, &v, &shift(&r0, 1), &shift(&c0, 1)).ok());
        // FEM elements of arity k over the row indices as dofs.
        let conn = &r0[..r0.len() / k * k];
        let values: Vec<f64> = v.iter().copied().cycle().take(conn.len() * k).collect();
        let zero_based = convert::decode_fem(w0, k, &values, conn).ok();
        prop_assert_eq!(zero_based, convert::decode_fem(w1, k, &values, &shift(conn, 1)).ok());
    }

    #[test]
    fn fem_elements_sum_like_their_triplets(
        (bs, n, t, _, base) in arb_windowed(),
    ) {
        // Elements of arity `bs` over dofs and values drawn from the
        // triplets (dofs may repeat, values may be zero).
        let k = bs;
        let conn: Vec<usize> = t.iter().map(|e| e.0).take(t.len() / k * k).collect();
        let values: Vec<f64> =
            t.iter().map(|e| e.2).cycle().take(conn.len() * k).collect();
        let (mut r, mut c, mut v) = (vec![], vec![], vec![]);
        for (dofs, m) in conn.chunks(k).zip(values.chunks(k * k)) {
            for (li, &gi) in dofs.iter().enumerate() {
                for (lj, &gj) in dofs.iter().enumerate() {
                    if m[li * k + lj] != 0.0 {
                        r.push(gi);
                        c.push(gj);
                        v.push(m[li * k + lj]);
                    }
                }
            }
        }
        let want = CooMatrix::from_triplets(n, n, &r, &c, &v).unwrap().to_csr();
        let w = Window { base, ..Window::serial(n) };
        let got = convert::decode_fem(w, k, &values, &shift(&conn, base)).unwrap();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn all_format_matvecs_agree(
        (rows, cols, t) in arb_triplets(10, 30),
        xseed in any::<u64>(),
    ) {
        let csr = to_coo(rows, cols, &t).to_csr();
        let x = rsparse::generate::random_vector(cols, xseed);
        let dense_y = csr.to_dense().matvec(&x).unwrap();
        let close = |a: &[f64], b: &[f64]| {
            a.iter().zip(b).all(|(p, q)| (p - q).abs() < 1e-9 * (1.0 + q.abs()))
        };
        prop_assert!(close(&csr.matvec(&x).unwrap(), &dense_y));
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
