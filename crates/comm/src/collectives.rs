//! Collective operations.
//!
//! All collectives run on the communicator's hidden *collective context*, so
//! they can never match user point-to-point traffic. [`allreduce`] and
//! [`allreduce_vec`] meet on the communicator's shared reduction board
//! (`board.rs`); the rest are built on point-to-point messaging with the
//! textbook algorithms MPI implementations use for small/medium messages:
//! binomial trees for the rooted broadcast and reduce, a flat fan for
//! gather and scatter, dissemination for the barrier and a ring for
//! all-gather. Each rank must call every collective in the same order —
//! violations surface as [`CommError::DeadlockSuspected`].
//!
//! # The reduction bracket
//!
//! [`reduce`] and [`allreduce`] combine the contributions `a0 … a(p−1)` in
//! one fixed bracket, the binomial tree over aligned rank blocks:
//! `((a0·a1)·(a2·a3))·((a4·a5)·…)`, a block that runs past `p` simply
//! ending there (p = 5: `((a0·a1)·(a2·a3))·a4`). Operands stay in rank
//! order, so an associative, non-commutative `op` gives the rank-ordered
//! result. [`allreduce`] has every rank fold all `p` contributions from
//! the board in that bracket, so all ranks hold bit-identical results,
//! equal to what `reduce` to rank 0 delivers; solver convergence tests
//! agree across ranks and iteration counts do not depend on which of the
//! two was used.

use std::any::Any;

use crate::comm::Communicator;
use crate::error::{CommError, CommResult};
use crate::Tag;

// Distinct tag per collective kind; combined with the collective context
// and MPI's same-order rule this is enough to keep operations separate.
const TAG_BARRIER: Tag = 1;
const TAG_BCAST: Tag = 2;
const TAG_REDUCE: Tag = 3;
const TAG_GATHER: Tag = 4;
const TAG_SCATTER: Tag = 5;
const TAG_ALLGATHER: Tag = 6;
const TAG_ALLTOALL: Tag = 7;
const TAG_SCAN: Tag = 8;

/// Relative rank helper: rotate so `root` is 0, which lets every rooted
/// binomial-tree algorithm assume root = 0.
#[inline]
fn rel(rank: usize, root: usize, size: usize) -> usize {
    (rank + size - root) % size
}

#[inline]
fn unrel(rel: usize, root: usize, size: usize) -> usize {
    (rel + root) % size
}

/// Dissemination barrier: ⌈log₂ p⌉ rounds, each rank sends to
/// `(rank + 2^k) mod p` and receives from `(rank − 2^k) mod p`.
pub fn barrier(comm: &Communicator) -> CommResult<()> {
    let p = comm.size();
    let me = comm.rank();
    let ctx = comm.collective_context();
    let mut k = 1usize;
    let mut round: Tag = 0;
    while k < p {
        let to = (me + k) % p;
        let from = (me + p - k) % p;
        comm.send_ctx(to, TAG_BARRIER + round * 16, ctx, ())?;
        let ((), _) = comm.recv_match::<()>(Some(from), Some(TAG_BARRIER + round * 16), ctx)?;
        k <<= 1;
        round += 1;
    }
    Ok(())
}

/// Binomial-tree broadcast from `root` (the classic MPICH schedule: a
/// non-root receives from the rank obtained by clearing its lowest set
/// virtual-rank bit, then forwards to `vrank + m` for each `m` below that
/// bit).
pub fn bcast<T: Send + Clone + 'static>(
    comm: &Communicator,
    root: usize,
    value: T,
) -> CommResult<T> {
    let p = comm.size();
    if root >= p {
        return Err(CommError::RankOutOfRange { rank: root, size: p });
    }
    if p == 1 {
        return Ok(value);
    }
    let ctx = comm.collective_context();
    let vrank = rel(comm.rank(), root, p);

    let mut mask = 1usize;
    let val;
    if vrank == 0 {
        val = value;
        while mask < p {
            mask <<= 1;
        }
    } else {
        // Walk up to our lowest set bit; the parent differs in exactly it.
        while vrank & mask == 0 {
            mask <<= 1;
        }
        let parent = unrel(vrank ^ mask, root, p);
        let (v, _) = comm.recv_match::<T>(Some(parent), Some(TAG_BCAST), ctx)?;
        val = v;
    }
    mask >>= 1;
    while mask > 0 {
        let child = vrank + mask;
        if child < p {
            comm.send_ctx(unrel(child, root, p), TAG_BCAST, ctx, val.clone())?;
        }
        mask >>= 1;
    }
    Ok(val)
}

/// Binomial-tree reduce onto `root`. `op` must be associative; it is applied
/// in an order that keeps operands in rank order (`op(lower, higher)`), so
/// non-commutative but associative combiners (e.g. string concatenation)
/// give the rank-ordered result.
pub fn reduce<T, F>(comm: &Communicator, root: usize, value: T, op: F) -> CommResult<Option<T>>
where
    T: Send + Clone + 'static,
    F: Fn(&T, &T) -> T,
{
    let p = comm.size();
    if root >= p {
        return Err(CommError::RankOutOfRange { rank: root, size: p });
    }
    if p == 1 {
        return Ok(Some(value));
    }
    let ctx = comm.collective_context();
    let vrank = rel(comm.rank(), root, p);

    let mut acc = value;
    let mut mask = 1usize;
    while mask < p {
        if vrank & mask != 0 {
            // Send accumulated value to partner below and exit.
            let parent = unrel(vrank & !mask, root, p);
            comm.send_ctx(parent, TAG_REDUCE, ctx, acc)?;
            return Ok(None);
        }
        let child = vrank | mask;
        if child < p {
            let (rhs, _) =
                comm.recv_match::<T>(Some(unrel(child, root, p)), Some(TAG_REDUCE), ctx)?;
            // Child's virtual rank is higher, so it goes on the right.
            acc = op(&acc, &rhs);
        }
        mask <<= 1;
    }
    Ok(Some(acc))
}

/// All-reduce in the bracket [`reduce`] uses (see the module header): the
/// result is *identical on every rank* — important for iterative solvers,
/// whose convergence tests must agree bit-for-bit across ranks.
pub fn allreduce<T, F>(comm: &Communicator, value: T, op: F) -> CommResult<T>
where
    T: Send + Clone + 'static,
    F: Fn(&T, &T) -> T,
{
    if comm.size() == 1 {
        return Ok(value);
    }
    comm.reduce_on_board(value, |acc, other, higher| {
        *acc = if higher { op(acc, other) } else { op(other, acc) };
        Ok(())
    })
}

/// Element-wise all-reduce over equal-length vectors (e.g. several dot
/// products fused into one collective, as solvers do to save latency).
/// `values` is this rank's contribution; each entry is combined in the
/// bracket of [`allreduce`].
pub fn allreduce_vec<T, F>(comm: &Communicator, mut values: Vec<T>, op: F) -> CommResult<Vec<T>>
where
    T: Send + Clone + 'static,
    F: Fn(&T, &T) -> T,
{
    if comm.size() == 1 {
        return Ok(values);
    }
    if let Some(short) = (&mut values as &mut dyn Any).downcast_mut::<Vec<f64>>() {
        if short.len() <= SHORT {
            // `T` is `f64`: cast the operator's arguments and result
            // through `Any`, which the optimizer folds away.
            fn as_t<T: 'static>(v: &f64) -> &T {
                (v as &dyn Any).downcast_ref().expect("T is f64")
            }
            let op = |a: &f64, b: &f64| {
                *(&op(as_t(a), as_t(b)) as &dyn Any).downcast_ref::<f64>().expect("T is f64")
            };
            let reduced = allreduce_short(comm, Short::new(short), op)?;
            short.copy_from_slice(reduced.values());
            return Ok(values);
        }
    }
    comm.reduce_on_board(values, |acc: &mut Vec<T>, other: &Vec<T>, higher| {
        if other.len() != acc.len() {
            return Err(CommError::BadBuffer { expected: acc.len(), got: other.len() });
        }
        for (a, o) in acc.iter_mut().zip(other) {
            *a = if higher { op(a, o) } else { op(o, a) };
        }
        Ok(())
    })
}

/// The longest `allreduce_vec` of `f64` that rides in a board slot's
/// inline words.
const SHORT: usize = 4;

/// Up to [`SHORT`] values and their count: an `allreduce_vec`
/// contribution that fits a board slot, so the folding rank reads one
/// cache line instead of another rank's heap buffer.
#[derive(Clone, Copy)]
struct Short {
    len: usize,
    values: [f64; SHORT],
}

impl Short {
    fn new(values: &[f64]) -> Self {
        let mut short = Short { len: values.len(), values: [0.0; SHORT] };
        short.values[..values.len()].copy_from_slice(values);
        short
    }

    fn values(&self) -> &[f64] {
        &self.values[..self.len]
    }
}

/// [`allreduce_vec`] of one [`Short`] contribution, entry by entry in the
/// bracket of [`allreduce`].
fn allreduce_short(
    comm: &Communicator,
    short: Short,
    op: impl Fn(&f64, &f64) -> f64,
) -> CommResult<Short> {
    comm.reduce_on_board(short, |acc: &mut Short, other: &Short, higher| {
        if other.len != acc.len {
            return Err(CommError::BadBuffer { expected: acc.len, got: other.len });
        }
        for (a, o) in acc.values[..acc.len].iter_mut().zip(other.values()) {
            *a = if higher { op(a, o) } else { op(o, a) };
        }
        Ok(())
    })
}

/// Gather one value per rank onto `root`, in rank order.
pub fn gather<T: Send + Clone + 'static>(
    comm: &Communicator,
    root: usize,
    value: T,
) -> CommResult<Option<Vec<T>>> {
    gatherv(comm, root, std::slice::from_ref(&value))
}

/// Gather variable-length slices onto `root`, concatenated in rank order.
/// (Flat point-to-point fan-in; fine at in-process scale and simplest to
/// keep segment boundaries exact.)
pub fn gatherv<T: Send + Clone + 'static>(
    comm: &Communicator,
    root: usize,
    values: &[T],
) -> CommResult<Option<Vec<T>>> {
    let p = comm.size();
    if root >= p {
        return Err(CommError::RankOutOfRange { rank: root, size: p });
    }
    let ctx = comm.collective_context();
    if comm.rank() == root {
        let mut out: Vec<T> = Vec::new();
        for r in 0..p {
            if r == root {
                out.extend_from_slice(values);
            } else {
                let (chunk, _) = comm.recv_match::<Vec<T>>(Some(r), Some(TAG_GATHER), ctx)?;
                out.extend(chunk);
            }
        }
        Ok(Some(out))
    } else {
        comm.send_ctx(root, TAG_GATHER, ctx, values.to_vec())?;
        Ok(None)
    }
}

/// Gather one value per rank onto all ranks (ring all-gather).
pub fn allgather<T: Send + Clone + 'static>(comm: &Communicator, value: T) -> CommResult<Vec<T>> {
    let p = comm.size();
    let me = comm.rank();
    let ctx = comm.collective_context();
    let mut slots: Vec<Option<T>> = (0..p).map(|_| None).collect();
    slots[me] = Some(value);
    // Ring: in step s, send the piece originating at (me - s) to the right
    // neighbour and receive the piece originating at (me - s - 1) from the
    // left neighbour.
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    for s in 0..p.saturating_sub(1) {
        let send_origin = (me + p - s) % p;
        let recv_origin = (me + p - s - 1) % p;
        let piece = slots[send_origin].clone().expect("piece must have arrived");
        comm.send_ctx(right, TAG_ALLGATHER, ctx, piece)?;
        let (got, _) = comm.recv_match::<T>(Some(left), Some(TAG_ALLGATHER), ctx)?;
        slots[recv_origin] = Some(got);
    }
    Ok(slots.into_iter().map(|o| o.expect("all pieces collected")).collect())
}

/// All-gather of variable-length slices, concatenated in rank order.
pub fn allgatherv<T: Send + Clone + 'static>(
    comm: &Communicator,
    values: &[T],
) -> CommResult<Vec<T>> {
    let chunks: Vec<Vec<T>> = allgather(comm, values.to_vec())?;
    Ok(chunks.into_iter().flatten().collect())
}

/// Scatter `chunks[i]` from `root` to rank `i`. Only the root supplies
/// chunks; other ranks pass `None`.
pub fn scatter<T: Send + Clone + 'static>(
    comm: &Communicator,
    root: usize,
    chunks: Option<Vec<Vec<T>>>,
) -> CommResult<Vec<T>> {
    let p = comm.size();
    if root >= p {
        return Err(CommError::RankOutOfRange { rank: root, size: p });
    }
    let ctx = comm.collective_context();
    if comm.rank() == root {
        let chunks = chunks.ok_or(CommError::BadCounts { expected: p, got: 0 })?;
        if chunks.len() != p {
            return Err(CommError::BadCounts { expected: p, got: chunks.len() });
        }
        let mut own = None;
        for (r, chunk) in chunks.into_iter().enumerate() {
            if r == root {
                own = Some(chunk);
            } else {
                comm.send_ctx(r, TAG_SCATTER, ctx, chunk)?;
            }
        }
        Ok(own.expect("root chunk present"))
    } else {
        let (chunk, _) = comm.recv_match::<Vec<T>>(Some(root), Some(TAG_SCATTER), ctx)?;
        Ok(chunk)
    }
}

/// Personalized all-to-all: `chunks[i]` goes to rank `i`; entry `i` of the
/// result came from rank `i`.
pub fn alltoall<T: Send + Clone + 'static>(
    comm: &Communicator,
    mut chunks: Vec<Vec<T>>,
) -> CommResult<Vec<Vec<T>>> {
    let p = comm.size();
    let me = comm.rank();
    if chunks.len() != p {
        return Err(CommError::BadCounts { expected: p, got: chunks.len() });
    }
    let ctx = comm.collective_context();
    let mut out: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
    // Pairwise exchange schedule: in step s, exchange with me ^ s when p is
    // a power of two; otherwise fall back to a shifted ring, which is
    // correct for any p.
    for s in 0..p {
        let partner = (me + s) % p;
        let from = (me + p - s) % p;
        let to_send = std::mem::take(&mut chunks[partner]);
        if partner == me {
            out[me] = Some(to_send);
            continue;
        }
        comm.send_ctx(partner, TAG_ALLTOALL, ctx, to_send)?;
        let (got, _) = comm.recv_match::<Vec<T>>(Some(from), Some(TAG_ALLTOALL), ctx)?;
        out[from] = Some(got);
    }
    Ok(out.into_iter().map(|o| o.expect("all chunks exchanged")).collect())
}

/// Inclusive prefix scan (linear chain: rank r receives the prefix from
/// r−1, combines, forwards to r+1 — latency O(p), fine at thread scale).
pub fn scan<T, F>(comm: &Communicator, value: T, op: F) -> CommResult<T>
where
    T: Send + Clone + 'static,
    F: Fn(&T, &T) -> T,
{
    let p = comm.size();
    let me = comm.rank();
    let ctx = comm.collective_context();
    let acc = if me == 0 {
        value
    } else {
        let (prefix, _) = comm.recv_match::<T>(Some(me - 1), Some(TAG_SCAN), ctx)?;
        op(&prefix, &value)
    };
    if me + 1 < p {
        comm.send_ctx(me + 1, TAG_SCAN, ctx, acc.clone())?;
    }
    Ok(acc)
}

/// Exclusive prefix scan; rank 0 gets `None`.
pub fn exscan<T, F>(comm: &Communicator, value: T, op: F) -> CommResult<Option<T>>
where
    T: Send + Clone + 'static,
    F: Fn(&T, &T) -> T,
{
    let p = comm.size();
    let me = comm.rank();
    let ctx = comm.collective_context();
    let before: Option<T> = if me == 0 {
        None
    } else {
        let (prefix, _) = comm.recv_match::<T>(Some(me - 1), Some(TAG_SCAN), ctx)?;
        Some(prefix)
    };
    if me + 1 < p {
        let forward = match &before {
            Some(b) => op(b, &value),
            None => value,
        };
        comm.send_ctx(me + 1, TAG_SCAN, ctx, forward)?;
    }
    Ok(before)
}

#[cfg(test)]
mod tests {
    use crate::{CommError, Universe};

    /// Every collective is exercised at several rank counts, including
    /// non-powers of two, since the tree algorithms special-case those.
    const SIZES: &[usize] = &[1, 2, 3, 4, 5, 7, 8];

    #[test]
    fn barrier_completes_at_all_sizes() {
        for &p in SIZES {
            let out = Universe::run(p, |c| {
                for _ in 0..3 {
                    c.barrier().unwrap();
                }
                true
            });
            assert_eq!(out.len(), p);
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for &p in SIZES {
            for root in 0..p {
                let out = Universe::run(p, move |c| {
                    let v = if c.rank() == root { vec![root, 99] } else { vec![] };
                    c.bcast(root, v).unwrap()
                });
                for r in out {
                    assert_eq!(r, vec![root, 99]);
                }
            }
        }
    }

    #[test]
    fn reduce_sums_to_each_root() {
        for &p in SIZES {
            for root in 0..p {
                let out = Universe::run(p, move |c| {
                    c.reduce(root, c.rank() as i64 + 1, |a, b| a + b).unwrap()
                });
                let expect: i64 = (1..=p as i64).sum();
                for (r, v) in out.into_iter().enumerate() {
                    if r == root {
                        assert_eq!(v, Some(expect));
                    } else {
                        assert_eq!(v, None);
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_keeps_rank_order_for_noncommutative_ops() {
        for &p in SIZES {
            let out = Universe::run(p, |c| {
                c.reduce(0, c.rank().to_string(), |a, b| format!("{a}{b}")).unwrap()
            });
            let expect: String = (0..p).map(|r| r.to_string()).collect();
            assert_eq!(out[0], Some(expect));
        }
    }

    #[test]
    fn allreduce_agrees_on_all_ranks() {
        for &p in SIZES {
            let out = Universe::run(p, |c| c.allreduce(c.rank() as f64, |a, b| a + b).unwrap());
            let expect: f64 = (0..p).map(|r| r as f64).sum();
            for v in out {
                assert_eq!(v, expect);
            }
        }
    }

    #[test]
    fn allreduce_vec_is_elementwise() {
        let out = Universe::run(4, |c| {
            let mine = [c.rank() as f64, 1.0, -(c.rank() as f64)];
            c.allreduce_vec(&mine, |a, b| a + b).unwrap()
        });
        for v in out {
            assert_eq!(v, vec![6.0, 4.0, -6.0]);
        }
    }

    /// Up to four `f64` ride inline, more are boxed: every width gives the
    /// bits of one scalar allreduce an entry, a non-commutative operator
    /// keeps rank order, and unequal widths fail on every rank (a
    /// `BadBuffer`, or a `TypeMismatch` when one side rides inline and the
    /// other does not).
    #[test]
    fn short_and_long_allreduce_vec_agree_with_scalar_allreduces() {
        let entry = |rank: usize, i: usize| ((rank * 7 + i) as f64 * 0.1).sin();
        let skewed = |a: &f64, b: &f64| 0.5 * a + b;
        for p in [2usize, 3] {
            let out = Universe::run(p, |c| {
                (1..=6)
                    .map(|width| {
                        let mine: Vec<f64> = (0..width).map(|i| entry(c.rank(), i)).collect();
                        let fused = c.allreduce_vec(&mine, skewed).unwrap();
                        let single: Vec<f64> =
                            mine.iter().map(|&v| c.allreduce(v, skewed).unwrap()).collect();
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let unequal = vec![1.0; if c.rank() == 0 { width } else { width + 1 }];
                        let mismatch = c.allreduce_vec(&unequal, skewed);
                        (bits(&fused) == bits(&single), mismatch)
                    })
                    .collect::<Vec<_>>()
            });
            for (rank, widths) in out.iter().enumerate() {
                for (w, (same, mismatch)) in widths.iter().enumerate() {
                    assert!(same, "p = {p}, rank {rank}, width {}", w + 1);
                    let bad = matches!(
                        mismatch,
                        Err(CommError::BadBuffer { .. } | CommError::TypeMismatch { .. })
                    );
                    assert!(bad, "p = {p}, rank {rank}, width {}: {mismatch:?}", w + 1);
                }
            }
        }
    }

    #[test]
    fn gather_orders_by_rank() {
        for &p in SIZES {
            for root in 0..p {
                let out = Universe::run(p, move |c| c.gather(root, c.rank() * 2).unwrap());
                let expect: Vec<usize> = (0..p).map(|r| r * 2).collect();
                assert_eq!(out[root], Some(expect));
            }
        }
    }

    #[test]
    fn gatherv_concatenates_ragged_segments() {
        let out = Universe::run(3, |c| {
            let mine: Vec<usize> = (0..=c.rank()).map(|i| c.rank() * 10 + i).collect();
            c.gatherv(0, &mine).unwrap()
        });
        assert_eq!(out[0], Some(vec![0, 10, 11, 20, 21, 22]));
        assert_eq!(out[1], None);
    }

    #[test]
    fn allgather_is_rank_ordered_everywhere() {
        for &p in SIZES {
            let out = Universe::run(p, |c| c.allgather(c.rank() + 100).unwrap());
            let expect: Vec<usize> = (0..p).map(|r| r + 100).collect();
            for v in out {
                assert_eq!(v, expect);
            }
        }
    }

    #[test]
    fn allgatherv_concatenates_everywhere() {
        let out = Universe::run(4, |c| {
            let mine = vec![c.rank() as i32; c.rank()];
            c.allgatherv(&mine).unwrap()
        });
        let expect = vec![1, 2, 2, 3, 3, 3];
        for v in out {
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn scatter_delivers_per_rank_chunks() {
        for &p in SIZES {
            for root in 0..p {
                let out = Universe::run(p, move |c| {
                    let chunks = if c.rank() == root {
                        Some((0..p).map(|r| vec![r as i64, r as i64 * 2]).collect())
                    } else {
                        None
                    };
                    c.scatter(root, chunks).unwrap()
                });
                for (r, v) in out.into_iter().enumerate() {
                    assert_eq!(v, vec![r as i64, r as i64 * 2]);
                }
            }
        }
    }

    #[test]
    fn alltoall_transposes_chunks() {
        for &p in SIZES {
            let out = Universe::run(p, |c| {
                let chunks: Vec<Vec<usize>> =
                    (0..p).map(|dest| vec![c.rank() * 100 + dest]).collect();
                c.alltoall(chunks).unwrap()
            });
            for (me, got) in out.into_iter().enumerate() {
                let expect: Vec<Vec<usize>> = (0..p).map(|src| vec![src * 100 + me]).collect();
                assert_eq!(got, expect);
            }
        }
    }

    #[test]
    fn scan_computes_inclusive_prefixes() {
        for &p in SIZES {
            let out = Universe::run(p, |c| c.scan(c.rank() as i64 + 1, |a, b| a + b).unwrap());
            for (r, v) in out.into_iter().enumerate() {
                let expect: i64 = (1..=r as i64 + 1).sum();
                assert_eq!(v, expect);
            }
        }
    }

    #[test]
    fn exscan_computes_exclusive_prefixes() {
        for &p in SIZES {
            let out = Universe::run(p, |c| c.exscan(c.rank() as i64 + 1, |a, b| a + b).unwrap());
            for (r, v) in out.into_iter().enumerate() {
                if r == 0 {
                    assert_eq!(v, None);
                } else {
                    let expect: i64 = (1..=r as i64).sum();
                    assert_eq!(v, Some(expect));
                }
            }
        }
    }

    #[test]
    fn collectives_compose_back_to_back() {
        // A realistic solver-iteration pattern: allreduce, then bcast, then
        // another allreduce, with no barrier between them.
        let out = Universe::run(4, |c| {
            let a = c.allreduce(1.0f64, |x, y| x + y).unwrap();
            let b = c.bcast(2, c.rank() as f64).unwrap();
            let d = c.allreduce(a * b, |x, y| x + y).unwrap();
            (a, b, d)
        });
        for v in out {
            assert_eq!(v, (4.0, 2.0, 32.0));
        }
    }
}
