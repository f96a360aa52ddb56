//! One structural digest for every cache key in the workspace: the session
//! key's matrix digest and fingerprint (`lisi::service`) and the RSLU
//! symbolic context's pattern check (`rdirect::Symbolic`).
//!
//! A [`Digest`] reads its input as 8-byte words (`usize as u64`,
//! `f64::to_bits`, little-endian byte groups) into eight independent
//! 64-bit lanes: word `i` of an array goes to lane `i mod 8`, so eight
//! multiplies are in flight at once instead of each waiting on the one
//! before it. Each array's length goes into every lane before its words, so
//! the same words split differently between arrays give another digest.
//! [`Digest::finish`] folds the lanes together in order, once.
//!
//! Every word passes through `mix`: the lane XOR the word is multiplied
//! by an odd constant into 128 bits and the two halves are XORed. A
//! difference in any bit of the input reaches both halves of the product —
//! bit 63 included, which under the multiply-only step `(h ^ w)·P` stays
//! bit 63 alone, so that two sign flips cancel. Two words that differ in
//! one bit above bit 1 never give the same step: the low halves of their
//! products first differ at that bit, the high halves only below it.
//!
//! The digest is not a cryptographic hash: it guards against accidental
//! equality (a stale factorization served for a changed matrix), not
//! against inputs built to collide.

/// Independent lanes a digest runs: enough that the multiplies of one
/// group overlap.
const LANES: usize = 8;

/// The odd multiplier of every step (2⁶⁴ over the golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The lanes' starting values, all different (hexadecimal digits of π),
/// so lanes with equal words still disagree.
const SEEDS: [u64; LANES] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
    0x4528_21e6_38d0_1377,
    0xbe54_66cf_34e9_0c6c,
    0xc0ac_29b7_c97c_50dd,
    0x3f84_d5b5_b547_0917,
];

/// One step: `x · K` in 128 bits, the low half XOR the high half.
#[inline(always)]
fn mix(x: u64) -> u64 {
    let p = u128::from(x) * u128::from(K);
    (p as u64) ^ ((p >> 64) as u64)
}

/// A running digest over a sequence of arrays. Build it with
/// [`Digest::new`], feed arrays in order, read it with [`Digest::finish`]:
///
/// ```
/// use rsparse::digest::Digest;
/// let a = Digest::new().indices(&[0, 2, 3]).values(&[4.0, -1.0, 2.5]).finish();
/// let b = Digest::new().indices(&[0, 2, 3]).values(&[4.0, 1.0, 2.5]).finish();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct Digest {
    lanes: [u64; LANES],
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// A digest that has read nothing.
    pub fn new() -> Self {
        Digest { lanes: SEEDS }
    }

    /// Read an array of 64-bit words.
    #[must_use]
    pub fn words(self, xs: &[u64]) -> Self {
        self.absorb(xs.len(), xs, |w| w)
    }

    /// Read an array of indices, each as one `u64` word.
    #[must_use]
    pub fn indices(self, xs: &[usize]) -> Self {
        self.absorb(xs.len(), xs, |i| i as u64)
    }

    /// Read an array of values by their bits: `-0.0` is not `+0.0`, and
    /// NaNs with different payloads differ.
    #[must_use]
    pub fn values(self, xs: &[f64]) -> Self {
        self.absorb(xs.len(), xs, f64::to_bits)
    }

    /// Read a byte string as little-endian 8-byte words, the last one
    /// padded with zeros (its length in bytes goes in first, so the
    /// padding is never mistaken for data).
    #[must_use]
    pub fn bytes(self, b: &[u8]) -> Self {
        let (words, tail) = b.as_chunks::<8>();
        let mut d = self.absorb(b.len(), words, u64::from_le_bytes);
        if !tail.is_empty() {
            let mut last = [0; 8];
            last[..tail.len()].copy_from_slice(tail);
            let lane = &mut d.lanes[words.len() % LANES];
            *lane = mix(*lane ^ u64::from_le_bytes(last));
        }
        d
    }

    /// The lanes folded into one word, in lane order.
    pub fn finish(self) -> u64 {
        self.lanes.iter().fold(0, |h, &lane| mix(h ^ lane))
    }

    /// `len` into every lane, then word `i` of `xs` into lane `i mod
    /// LANES`.
    #[inline(always)]
    fn absorb<T: Copy>(mut self, len: usize, xs: &[T], word: impl Fn(T) -> u64) -> Self {
        for lane in &mut self.lanes {
            *lane = mix(*lane ^ len as u64);
        }
        let (groups, tail) = xs.as_chunks::<LANES>();
        for group in groups {
            for (lane, &x) in self.lanes.iter_mut().zip(group) {
                *lane = mix(*lane ^ word(x));
            }
        }
        for (lane, &x) in self.lanes.iter_mut().zip(tail) {
            *lane = mix(*lane ^ word(x));
        }
        self
    }
}

/// The digest of a CSR block: its `row_ptr`, `col_idx` and value bits, in
/// that order.
pub fn csr(row_ptr: &[usize], col_idx: &[usize], values: &[f64]) -> u64 {
    Digest::new().indices(row_ptr).indices(col_idx).values(values).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A 3 × 3 block with a `-0.0`, a `+0.0` and a NaN stored explicitly.
    fn small() -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        (
            vec![0, 3, 5, 8],
            vec![0, 1, 2, 0, 1, 0, 1, 2],
            vec![4.0, -1.0, -0.0, 0.0, f64::NAN, -1.0, 2.5, 1e-300],
        )
    }

    /// `n` distinct values that need more than one lane group.
    fn long_values(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + i as f64 * 0.75).collect()
    }

    #[test]
    fn equal_arrays_give_equal_digests() {
        let (r, c, v) = small();
        let (r2, c2, v2) = small();
        assert_eq!(csr(&r, &c, &v), csr(&r2, &c2, &v2));
        let long = long_values(37);
        assert_eq!(
            Digest::new().values(&long).finish(),
            Digest::new().values(&long.clone()).finish()
        );
    }

    /// Every single-bit flip of every word — the sign bit, NaN payload
    /// bits and `+0.0` ↔ `-0.0` among them — gives a digest different
    /// from the original and from every other flip.
    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        let (r, c, v) = small();
        let mut seen = HashSet::from([csr(&r, &c, &v)]);
        for bit in 0..64 {
            for i in 0..r.len() {
                let mut r = r.clone();
                r[i] ^= 1 << bit;
                assert!(seen.insert(csr(&r, &c, &v)), "row_ptr[{i}] bit {bit}");
            }
            for i in 0..c.len() {
                let mut c = c.clone();
                c[i] ^= 1 << bit;
                assert!(seen.insert(csr(&r, &c, &v)), "col_idx[{i}] bit {bit}");
            }
            for i in 0..v.len() {
                let mut v = v.clone();
                v[i] = f64::from_bits(v[i].to_bits() ^ (1 << bit));
                assert!(seen.insert(csr(&r, &c, &v)), "values[{i}] bit {bit}");
            }
        }
        assert_eq!(seen.len(), 1 + 64 * (r.len() + c.len() + v.len()));
        // The named cases are among the flips above; spelled out here.
        let zero = v.iter().position(|x| x.to_bits() == 0).unwrap();
        let mut signed = v.clone();
        signed[zero] = -0.0;
        assert_ne!(csr(&r, &c, &v), csr(&r, &c, &signed));
        let nan = v.iter().position(|x| x.is_nan()).unwrap();
        let mut payload = v.clone();
        payload[nan] = f64::from_bits(v[nan].to_bits() | 1);
        assert!(payload[nan].is_nan());
        assert_ne!(csr(&r, &c, &v), csr(&r, &c, &payload));
    }

    /// The pair word-wise FNV (`(h ^ w)·P` a word) cannot tell apart: a
    /// sign flip moves only bit 63, which the multiply keeps in bit 63, so
    /// two flips cancel.
    #[test]
    fn two_sign_flips_change_the_digest() {
        let fnv = |v: &[f64]| {
            v.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, x| {
                (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
            })
        };
        let a = [4.0, -1.0, -1.0, 2.5];
        let b = [4.0, 1.0, 1.0, 2.5];
        assert_eq!(fnv(&a), fnv(&b));
        assert_ne!(Digest::new().values(&a).finish(), Digest::new().values(&b).finish());
        // Every pair of sign flips — same lane or not — over two lane
        // groups and a tail.
        let v = long_values(2 * LANES + 3);
        let mut seen = HashSet::from([Digest::new().values(&v).finish()]);
        for i in 0..v.len() {
            for j in i + 1..v.len() {
                let mut w = v.clone();
                w[i] = -w[i];
                w[j] = -w[j];
                assert!(seen.insert(Digest::new().values(&w).finish()), "flip {i} and {j}");
            }
        }
    }

    #[test]
    fn swapping_two_values_changes_the_digest() {
        let v = long_values(2 * LANES + 3);
        let mut seen = HashSet::from([Digest::new().values(&v).finish()]);
        for i in 0..v.len() {
            for j in i + 1..v.len() {
                let mut w = v.clone();
                w.swap(i, j);
                assert!(seen.insert(Digest::new().values(&w).finish()), "swap {i} and {j}");
            }
        }
    }

    /// Row 0's last entry becomes row 1's first: `nnz`, `col_idx` and the
    /// values are unchanged, only `row_ptr[1]` moves.
    #[test]
    fn moving_an_entry_to_another_row_changes_the_digest() {
        let (r, c, v) = small();
        let mut moved = r.clone();
        moved[1] -= 1;
        assert_eq!(moved.last(), r.last());
        assert_ne!(csr(&r, &c, &v), csr(&moved, &c, &v));
    }

    #[test]
    fn shifting_a_word_across_an_array_boundary_changes_the_digest() {
        let (r, c, v) = small();
        let base = csr(&r, &c, &v);
        // The last word of `row_ptr` becomes the first of `col_idx`.
        let (head, last) = r.split_at(r.len() - 1);
        let shifted: Vec<usize> = last.iter().chain(&c).copied().collect();
        assert_ne!(base, csr(head, &shifted, &v));
        // The last column index becomes the first value's bits.
        let (cols, moved) = c.split_at(c.len() - 1);
        let vals: Vec<f64> =
            [f64::from_bits(moved[0] as u64)].into_iter().chain(v.iter().copied()).collect();
        assert_ne!(base, csr(&r, cols, &vals));
        // An empty array is still an array.
        assert_ne!(Digest::new().finish(), Digest::new().indices(&[]).finish());
        assert_ne!(
            Digest::new().indices(&[1, 2]).finish(),
            Digest::new().indices(&[1]).indices(&[2]).finish()
        );
    }

    #[test]
    fn bytes_count_their_length_and_every_byte() {
        let d = |b: &[u8]| Digest::new().bytes(b).finish();
        assert_ne!(d(b"ab"), d(b"ab\0"));
        assert_ne!(d(b""), d(b"\0"));
        assert_ne!(d(b"12345678"), d(b"12345679"));
        assert_ne!(d(b"123456789"), d(b"12345678:"));
    }

    /// For `x` and `x ^ 2^b`, `b ≥ 2`, the products differ by `K·2^b`:
    /// the low halves first differ at bit `b`, the high halves by less
    /// than `2^b` (`K`'s top two bits are `10`), so below it or not at all.
    #[test]
    fn one_step_separates_words_one_bit_apart() {
        assert_eq!(K >> 62, 0b10);
        let mut x = 0x0123_4567_89ab_cdef_u64;
        for _ in 0..2_000 {
            x = mix(x ^ 0x5555);
            for bit in 2..64 {
                let d = mix(x) ^ mix(x ^ (1 << bit));
                assert!(d.trailing_zeros() <= bit, "x = {x:#x}, bit {bit}");
            }
        }
    }
}
