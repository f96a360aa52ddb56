//! Elastic-recovery invariant: a matrix rebuilt on a shrunken cohort is
//! indistinguishable from one set up fresh at the survivor count.
//!
//! For random CSR patterns and cohorts of 3–9 ranks losing one rank, the
//! survivors shrink their communicator, repartition the lost rank's block
//! rows (contributed by the mirror-holding neighbour), and rebuild through
//! the ordinary setup path. The rebuilt operator must match a fresh setup
//! at the survivor count **bitwise**: identical halo-plan digests and
//! identical SpMV results, per rank.

use proptest::collection::vec;
use proptest::prelude::*;
use rcomm::Universe;
use rsparse::{BlockRowPartition, CooMatrix, CsrMatrix, DistCsrMatrix, DistVector};

fn to_csr(n: usize, t: &[(usize, usize, f64)]) -> CsrMatrix {
    let r: Vec<usize> = t.iter().map(|e| e.0).collect();
    let c: Vec<usize> = t.iter().map(|e| e.1).collect();
    let v: Vec<f64> = t.iter().map(|e| e.2).collect();
    CooMatrix::from_triplets(n, n, &r, &c, &v).unwrap().to_csr()
}

/// Survivors of losing `dead` out of `p_old` ranks: shrink, repartition
/// (the neighbour `(dead+1) % p_old` holds the lost block's mirror),
/// rebuild, and return each survivor's `(digest, full matvec result)`.
fn run_shrunken(
    a: &CsrMatrix,
    x: &[f64],
    p_old: usize,
    dead: usize,
) -> Vec<Option<(String, Vec<f64>)>> {
    let n = a.rows();
    Universe::run(p_old, |comm| {
        if comm.rank() == dead {
            return None;
        }
        let survivors: Vec<usize> = (0..p_old).filter(|&r| r != dead).collect();
        let sub = comm.shrink(&survivors).unwrap();
        let old_part = BlockRowPartition::even(n, p_old);
        let old_range = old_part.range(comm.rank());
        let local = a.row_block(old_range.start, old_range.end).unwrap();
        let rhs = x[old_range.clone()].to_vec();
        // The ring neighbour keeps the dead rank's block alive.
        let extra = if comm.rank() == (dead + 1) % p_old {
            let r = old_part.range(dead);
            Some((r.start, a.row_block(r.start, r.end).unwrap(), x[r.clone()].to_vec()))
        } else {
            None
        };
        let (new_start, new_local, new_rhs) =
            DistCsrMatrix::repartition_block_rows(&sub, old_range.start, &local, &rhs, extra, n)
                .unwrap();
        let part = BlockRowPartition::even(n, sub.size());
        assert_eq!(new_start, part.start_row(sub.rank()));
        let da = DistCsrMatrix::from_local_rows(&sub, part.clone(), new_local).unwrap();
        let dx = DistVector::from_local(part, sub.rank(), new_rhs).unwrap();
        let dy = da.matvec(&sub, &dx).unwrap();
        Some((da.halo_plan_digest(), dy.allgather_full(&sub).unwrap()))
    })
}

/// Fresh setup at `p` ranks: each rank's `(digest, full matvec result)`.
fn run_fresh(a: &CsrMatrix, x: &[f64], p: usize) -> Vec<(String, Vec<f64>)> {
    let n = a.rows();
    Universe::run(p, |comm| {
        let part = BlockRowPartition::even(n, comm.size());
        let da = DistCsrMatrix::from_global(comm, part.clone(), a).unwrap();
        let dx = DistVector::from_global(part, comm.rank(), x).unwrap();
        let dy = da.matvec(comm, &dx).unwrap();
        (da.halo_plan_digest(), dy.allgather_full(comm).unwrap())
    })
}

proptest! {
    // Each case spawns two universes; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn shrunken_rebuild_is_bitwise_identical_to_fresh_setup(
        (n, t) in (9usize..24).prop_flat_map(|n| {
            (Just(n), vec((0..n, 0..n, -10.0f64..10.0), 1..80))
        }),
        p_old in 3usize..=9,
        dead_pick in any::<usize>(),
        xseed in any::<u64>(),
    ) {
        let a = to_csr(n, &t);
        let x = rsparse::generate::random_vector(n, xseed);
        let dead = dead_pick % p_old;
        let shrunken = run_shrunken(&a, &x, p_old, dead);
        let fresh = run_fresh(&a, &x, p_old - 1);
        prop_assert!(shrunken[dead].is_none());
        let survivors: Vec<_> =
            shrunken.into_iter().flatten().collect();
        prop_assert_eq!(survivors.len(), p_old - 1);
        for (i, ((sd, sy), (fd, fy))) in
            survivors.iter().zip(&fresh).enumerate()
        {
            prop_assert_eq!(sd, fd, "survivor {} halo-plan digest differs", i);
            prop_assert_eq!(sy.len(), fy.len());
            for (g, e) in sy.iter().zip(fy) {
                prop_assert_eq!(g.to_bits(), e.to_bits(),
                    "survivor {} SpMV differs bitwise", i);
            }
        }
    }
}
