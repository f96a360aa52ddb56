//! The all-reduce bracket guarantee: the board combines the contributions
//! in the documented binomial bracket, on every rank, at every rank count
//! — power of two or not.

use rcomm::{sum, Universe};

/// The reference, independent of the board's fold: the sum of `v`
/// (every rank's contribution, in rank order) in the bracket of
/// `rcomm::collectives` — aligned blocks of a power-of-two size, the
/// lower half's sum plus the upper half's, a block that runs past the
/// end ending there.
fn bracket(v: &[f64]) -> f64 {
    fn block(v: &[f64], base: usize, size: usize) -> f64 {
        let half = size / 2;
        match size {
            1 => v[base],
            _ if base + half >= v.len() => block(v, base, half),
            _ => block(v, base, half) + block(v, base + half, half),
        }
    }
    block(v, 0, v.len().next_power_of_two())
}

/// Contributions whose sum depends on the bracket in its last bits: full
/// 52-bit mantissas, mixed signs, magnitudes within 2^±8 of each other
/// (SplitMix64 of the rank and column).
fn ill_conditioned(rank: usize, i: usize) -> f64 {
    let mut z = ((rank * 64 + i) as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let mantissa = 1.0 + (z >> 12) as f64 / (1u64 << 52) as f64;
    let sign = if (z >> 6) & 1 == 1 { -1.0 } else { 1.0 };
    sign * mantissa * 2f64.powi((z & 15) as i32 - 8)
}

#[test]
fn noncommutative_allreduce_is_rank_ordered_on_every_rank() {
    for p in 1..=9 {
        let out = Universe::run(p, |c| {
            c.allreduce(c.rank().to_string(), |a, b| format!("{a}{b}")).unwrap()
        });
        let expect: String = (0..p).map(|r| r.to_string()).collect();
        for (rank, got) in out.into_iter().enumerate() {
            assert_eq!(got, expect, "p={p} rank={rank}");
        }
    }
}

#[test]
fn allreduce_is_bit_equal_to_a_serial_fold_in_the_bracket() {
    const WIDTH: usize = 12;
    for p in 1..=9 {
        let out = Universe::run(p, |c| {
            let mine: Vec<f64> = (0..WIDTH).map(|i| ill_conditioned(c.rank(), i)).collect();
            let every: Vec<Vec<f64>> = c.allgather(mine.clone()).unwrap();
            let reference: Vec<u64> = (0..WIDTH)
                .map(|i| bracket(&every.iter().map(|v| v[i]).collect::<Vec<_>>()).to_bits())
                .collect();
            let scalar: Vec<u64> =
                mine.iter().map(|&v| c.allreduce(v, sum).unwrap().to_bits()).collect();
            let fused: Vec<u64> =
                c.allreduce_vec(&mine, sum).unwrap().iter().map(|v| v.to_bits()).collect();
            (reference, scalar, fused)
        });
        // The bracket matters for this input: a left-to-right sum differs.
        if p >= 4 {
            let serial: Vec<u64> = (0..WIDTH)
                .map(|i| (0..p).map(|r| ill_conditioned(r, i)).sum::<f64>().to_bits())
                .collect();
            assert_ne!(serial, out[0].0, "p={p}: input does not tell brackets apart");
        }
        for (rank, (reference, scalar, fused)) in out.iter().enumerate() {
            assert_eq!(reference, &out[0].0, "p={p} rank={rank}: reference disagrees across ranks");
            assert_eq!(scalar, reference, "p={p} rank={rank}: allreduce");
            assert_eq!(fused, reference, "p={p} rank={rank}: allreduce_vec");
        }
    }
}
