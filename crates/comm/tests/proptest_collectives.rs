//! Property-based tests: every collective must equal its serial definition
//! for arbitrary rank counts and payloads.

use proptest::collection::vec;
use proptest::prelude::*;
use rcomm::{sum, Universe};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allreduce_sum_equals_serial_sum(
        p in 1usize..9,
        vals in vec(-1.0e6f64..1.0e6, 9),
    ) {
        let vals = vals[..p].to_vec();
        let expect: f64 = vals.iter().sum();
        let out = Universe::run(p, |c| {
            c.allreduce(vals[c.rank()], sum).unwrap()
        });
        for v in out {
            // The tree order is fixed, so all ranks agree bit-for-bit...
            prop_assert_eq!(v, out_first(&vals, p));
            // ...and match a left-to-right serial sum up to roundoff.
            prop_assert!((v - expect).abs() <= 1e-6 * (1.0 + expect.abs()));
        }

        fn out_first(vals: &[f64], p: usize) -> f64 {
            // Reference: the same binomial combination order used by the
            // runtime (rank-ordered pairwise tree).
            let mut slots: Vec<Option<f64>> = vals[..p].iter().copied().map(Some).collect();
            let mut mask = 1usize;
            while mask < p {
                let mut i = 0;
                while i < p {
                    if i & mask == 0 && i | mask < p {
                        let rhs = slots[i | mask].take().unwrap();
                        let lhs = slots[i].take().unwrap();
                        slots[i] = Some(lhs + rhs);
                    }
                    i += mask << 1;
                }
                mask <<= 1;
            }
            slots[0].unwrap()
        }
    }

    #[test]
    fn gatherv_concatenates_in_rank_order(
        p in 1usize..7,
        lens in vec(0usize..5, 7),
        root_sel in 0usize..7,
    ) {
        let root = root_sel % p;
        let lens = lens[..p].to_vec();
        let out = Universe::run(p, |c| {
            let mine: Vec<u64> = (0..lens[c.rank()] as u64)
                .map(|i| c.rank() as u64 * 1000 + i)
                .collect();
            c.gatherv(root, &mine).unwrap()
        });
        let expect: Vec<u64> = (0..p)
            .flat_map(|r| (0..lens[r] as u64).map(move |i| r as u64 * 1000 + i))
            .collect();
        prop_assert_eq!(out[root].clone(), Some(expect));
        for (r, v) in out.iter().enumerate() {
            if r != root {
                prop_assert_eq!(v.clone(), None);
            }
        }
    }

    #[test]
    fn scatter_then_gather_roundtrips(
        p in 1usize..7,
        chunk_len in 1usize..6,
    ) {
        let out = Universe::run(p, |c| {
            let chunks = c.is_root().then(|| {
                (0..p).map(|r| (0..chunk_len).map(|i| (r * 10 + i) as i64).collect()).collect()
            });
            let mine = c.scatter(0, chunks).unwrap();
            c.gatherv(0, &mine).unwrap()
        });
        let expect: Vec<i64> = (0..p)
            .flat_map(|r| (0..chunk_len).map(move |i| (r * 10 + i) as i64))
            .collect();
        prop_assert_eq!(out[0].clone(), Some(expect));
    }

    #[test]
    fn alltoall_is_a_transpose(p in 1usize..7) {
        let out = Universe::run(p, |c| {
            let chunks: Vec<Vec<(usize, usize)>> =
                (0..p).map(|dest| vec![(c.rank(), dest)]).collect();
            c.alltoall(chunks).unwrap()
        });
        for (me, rows) in out.into_iter().enumerate() {
            for (src, row) in rows.into_iter().enumerate() {
                prop_assert_eq!(row, vec![(src, me)]);
            }
        }
    }

    #[test]
    fn bcast_delivers_arbitrary_payloads(
        p in 1usize..8,
        payload in vec(any::<u32>(), 0..20),
        root_sel in 0usize..8,
    ) {
        let root = root_sel % p;
        let out = Universe::run(p, |c| {
            let v = if c.rank() == root { payload.clone() } else { vec![] };
            c.bcast(root, v).unwrap()
        });
        for v in out {
            prop_assert_eq!(v, payload.clone());
        }
    }
}
