//! Collective operations.
//!
//! Every collective meets on the communicator's board (`board.rs`): each
//! member deposits its contribution for the call's generation, waits for
//! the members whose contributions it reads, and reads them. Data
//! collectives move their contribution in; a contribution that only one
//! rank reads (a gathered segment, a scattered or all-to-all chunk) is
//! moved out by that rank, and one that several ranks read (a broadcast
//! value, an all-gathered piece) is cloned by each — or moved out by the
//! one reader there is on two ranks. Rooted collectives are
//! eager: the root of [`bcast`] and [`scatter`] and the non-roots of
//! [`gatherv`] return once they have deposited. No collective traffic
//! passes through the ranks' inboxes, which hold point-to-point messages.
//!
//! Each rank must call every collective in the same order. A rank that
//! reads a contribution to another collective, or of another type, fails
//! with [`CommError::TypeMismatch`] (one that reads nothing cannot tell);
//! a rank that never arrives leaves the others waiting for it until
//! [`CommError::DeadlockSuspected`] or, once it is marked lost,
//! [`CommError::RankLost`].
//!
//! # The reduction bracket
//!
//! [`allreduce`] combines the contributions `a0 … a(p−1)` in one fixed
//! bracket, the binomial tree over aligned rank blocks:
//! `((a0·a1)·(a2·a3))·((a4·a5)·…)`, a block that runs past `p` simply
//! ending there (p = 5: `((a0·a1)·(a2·a3))·a4`). Operands stay in rank
//! order, so an associative, non-commutative `op` gives the rank-ordered
//! result. Every rank folds all `p` contributions from the board in that
//! bracket, so all ranks hold bit-identical results and solver
//! convergence tests agree across ranks.

use std::any::Any;
use std::mem::take;

use crate::comm::Communicator;
use crate::error::{CommError, CommResult};

// The collectives, numbered: a contribution carries its collective's
// number on the board, so two different calls never read each other's.
const ALLREDUCE: u8 = 0;
const BARRIER: u8 = 1;
const BCAST: u8 = 2;
const GATHER: u8 = 3;
const ALLGATHER: u8 = 4;
const ALLGATHERV: u8 = 5;
const SCATTER: u8 = 6;
const ALLTOALL: u8 = 7;

/// Every rank of `comm` but this one.
fn others(comm: &Communicator) -> impl Iterator<Item = usize> {
    let me = comm.rank();
    (0..comm.size()).filter(move |&r| r != me)
}

fn check_root(comm: &Communicator, root: usize) -> CommResult<()> {
    if root >= comm.size() {
        return Err(CommError::RankOutOfRange { rank: root, size: comm.size() });
    }
    Ok(())
}

/// Wait until every rank has arrived. Each rank checks that the others
/// called `barrier` too.
pub fn barrier(comm: &Communicator) -> CommResult<()> {
    comm.meet(
        |turn| turn.deposit::<BARRIER, _>(()),
        None,
        |turn, ()| others(comm).try_for_each(|r| turn.read::<BARRIER, (), _>(r, |_| ())),
    )
}

/// Broadcast `value` from `root`: the root deposits it and returns, every
/// other rank clones it from the root's slot.
pub fn bcast<T: Send + Clone + 'static>(
    comm: &Communicator,
    root: usize,
    value: T,
) -> CommResult<T> {
    check_root(comm, root)?;
    if comm.rank() == root {
        let copy = value.clone();
        return comm.meet(|turn| turn.deposit::<BCAST, _>(copy), Some(root), |_, ()| Ok(value));
    }
    comm.meet(
        |turn| turn.deposit::<BCAST, _>(()),
        Some(root),
        |turn, ()| turn.share::<BCAST, T>(root),
    )
}

/// All-reduce in the bracket of the module header: the result is
/// *identical on every rank* — important for iterative solvers, whose
/// convergence tests must agree bit-for-bit across ranks.
pub fn allreduce<T, F>(comm: &Communicator, value: T, op: F) -> CommResult<T>
where
    T: Send + Clone + 'static,
    F: Fn(&T, &T) -> T,
{
    if comm.size() == 1 {
        return Ok(value);
    }
    reduce(comm, value, |acc, other, higher| {
        *acc = if higher { op(acc, other) } else { op(other, acc) };
        Ok(())
    })
}

/// Deposit a copy of `value` (reusing the slot's payload when the type
/// repeats, so a warm reduction allocates nothing), wait for every
/// member, and fold all contributions into `value` with `combine`.
fn reduce<A, C>(comm: &Communicator, value: A, combine: C) -> CommResult<A>
where
    A: Send + Clone + 'static,
    C: Fn(&mut A, &A, bool) -> CommResult<()>,
{
    comm.meet(
        |turn| {
            turn.deposit_copy::<ALLREDUCE, _>(&value);
            value
        },
        None,
        |turn, value| turn.fold::<ALLREDUCE, _, _>(value, &combine),
    )
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
    reduce(comm, values, |acc: &mut Vec<T>, other: &Vec<T>, higher| {
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
    reduce(comm, short, |acc: &mut Short, other: &Short, higher| {
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

/// Gather variable-length slices onto `root`, concatenated in rank order:
/// every other rank deposits its segment and returns, the root moves
/// each out.
pub fn gatherv<T: Send + Clone + 'static>(
    comm: &Communicator,
    root: usize,
    values: &[T],
) -> CommResult<Option<Vec<T>>> {
    check_root(comm, root)?;
    let me = comm.rank();
    if me != root {
        let mine = values.to_vec();
        return comm.meet(|turn| turn.deposit::<GATHER, _>(mine), Some(me), |_, ()| Ok(None));
    }
    comm.meet(
        |turn| turn.deposit::<GATHER, _>(()),
        None,
        |turn, ()| {
            concat(comm, values, |r| turn.read_last::<GATHER, Vec<T>, _>(r, true, take)).map(Some)
        },
    )
}

/// `values` at this rank's place among the other ranks' segments, read
/// by `read`, in rank order.
fn concat<T: Clone>(
    comm: &Communicator,
    values: &[T],
    read: impl Fn(usize) -> CommResult<Vec<T>>,
) -> CommResult<Vec<T>> {
    let mut out = Vec::new();
    for r in 0..comm.size() {
        if r == comm.rank() {
            out.extend_from_slice(values);
        } else {
            out.extend(read(r)?);
        }
    }
    Ok(out)
}

/// Gather one value per rank onto all ranks, in rank order.
pub fn allgather<T: Send + Clone + 'static>(comm: &Communicator, value: T) -> CommResult<Vec<T>> {
    let copy = value.clone();
    comm.meet(
        |turn| turn.deposit::<ALLGATHER, _>(copy),
        None,
        |turn, ()| {
            let mut all: Vec<T> =
                others(comm).map(|r| turn.share::<ALLGATHER, T>(r)).collect::<CommResult<_>>()?;
            all.insert(comm.rank(), value);
            Ok(all)
        },
    )
}

/// All-gather of variable-length slices, concatenated in rank order.
pub fn allgatherv<T: Send + Clone + 'static>(
    comm: &Communicator,
    values: &[T],
) -> CommResult<Vec<T>> {
    let mine = values.to_vec();
    comm.meet(
        |turn| turn.deposit::<ALLGATHERV, _>(mine),
        None,
        |turn, ()| concat(comm, values, |r| turn.share::<ALLGATHERV, Vec<T>>(r)),
    )
}

/// Scatter `chunks[i]` from `root` to rank `i`. Only the root supplies
/// chunks; other ranks pass `None`. The root deposits the chunks and
/// returns, every other rank moves its own out.
pub fn scatter<T: Send + Clone + 'static>(
    comm: &Communicator,
    root: usize,
    chunks: Option<Vec<Vec<T>>>,
) -> CommResult<Vec<T>> {
    check_root(comm, root)?;
    let (p, me) = (comm.size(), comm.rank());
    if me == root {
        let mut chunks = chunks.ok_or(CommError::BadCounts { expected: p, got: 0 })?;
        if chunks.len() != p {
            return Err(CommError::BadCounts { expected: p, got: chunks.len() });
        }
        let own = take(&mut chunks[root]);
        return comm.meet(|turn| turn.deposit::<SCATTER, _>(chunks), Some(root), |_, ()| Ok(own));
    }
    comm.meet(
        |turn| turn.deposit::<SCATTER, _>(()),
        Some(root),
        |turn, ()| turn.read_last::<SCATTER, Vec<Vec<T>>, _>(root, false, |c| take(&mut c[me])),
    )
}

/// Personalized all-to-all: `chunks[i]` goes to rank `i`; entry `i` of the
/// result came from rank `i`. Each rank moves its chunk out of every
/// other rank's contribution.
pub fn alltoall<T: Send + Clone + 'static>(
    comm: &Communicator,
    mut chunks: Vec<Vec<T>>,
) -> CommResult<Vec<Vec<T>>> {
    let (p, me) = (comm.size(), comm.rank());
    if chunks.len() != p {
        return Err(CommError::BadCounts { expected: p, got: chunks.len() });
    }
    let own = take(&mut chunks[me]);
    comm.meet(
        |turn| turn.deposit::<ALLTOALL, _>(chunks),
        None,
        |turn, ()| {
            let mut out: Vec<Vec<T>> = others(comm)
                .map(|r| turn.read_last::<ALLTOALL, Vec<Vec<T>>, _>(r, false, |c| take(&mut c[me])))
                .collect::<CommResult<_>>()?;
            out.insert(me, own);
            Ok(out)
        },
    )
}

#[cfg(test)]
mod tests {
    use crate::{CommError, Universe};

    /// Every collective is exercised at several rank counts, including
    /// non-powers of two and the two-rank board, whose readers take no
    /// lock.
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

    /// Ranks that call different collectives at the same point, even with
    /// the same payload type (`gatherv` and `allgatherv` both deposit a
    /// `Vec`), each get a typed error instead of the other call's data,
    /// and the next collective is unaffected.
    #[test]
    fn mismatched_collectives_fail_on_every_rank() {
        type Call = fn(&crate::Communicator) -> Result<(), CommError>;
        let calls: [(&str, Call); 5] = [
            ("barrier", |c| c.barrier()),
            ("allgather", |c| c.allgather(1usize).map(drop)),
            ("allgatherv", |c| c.allgatherv(&[1usize]).map(drop)),
            ("gatherv at its root", |c| c.gatherv(c.rank(), &[1usize]).map(drop)),
            ("alltoall", |c| c.alltoall(vec![vec![1usize]; c.size()]).map(drop)),
        ];
        for p in [2usize, 3] {
            for (i, (first, call)) in calls.iter().enumerate() {
                for (second, other) in &calls[i + 1..] {
                    let out = Universe::run(p, |c| {
                        let verdict = if c.rank() == 0 { call(c) } else { other(c) };
                        (verdict, c.allreduce(1usize, crate::sum).unwrap())
                    });
                    for (rank, (verdict, after)) in out.into_iter().enumerate() {
                        let ctx = format!("p = {p}, {first} against {second}, rank {rank}");
                        assert!(matches!(verdict, Err(CommError::TypeMismatch { .. })), "{ctx}");
                        assert_eq!(after, p, "{ctx}: the next allreduce");
                    }
                }
            }
        }
    }

    /// The root of `bcast` and `scatter` and the non-roots of `gatherv`
    /// return once they have deposited: each here goes on to a receive
    /// that the other rank posts only before its own half of the call, so
    /// a call that waited for its peer would end in `DeadlockSuspected`.
    #[test]
    fn rooted_collectives_stay_eager() {
        let out = Universe::run(2, |c| {
            let other = 1 - c.rank();
            let eager_first = |eager: &dyn Fn() -> Vec<u32>, late: &dyn Fn() -> Vec<u32>| {
                if c.rank() == 0 {
                    let got = eager();
                    c.send(other, 0, ()).unwrap();
                    got
                } else {
                    c.recv::<()>(other, 0).unwrap();
                    late()
                }
            };
            let b = eager_first(&|| c.bcast(0, vec![7]).unwrap(), &|| c.bcast(0, vec![]).unwrap());
            let s = eager_first(&|| c.scatter(0, Some(vec![vec![1], vec![2]])).unwrap(), &|| {
                c.scatter(0, None).unwrap()
            });
            let g = eager_first(&|| c.gatherv(1, &[3]).unwrap().unwrap_or_default(), &|| {
                c.gatherv(1, &[4]).unwrap().unwrap_or_default()
            });
            (b, s, g)
        });
        assert_eq!(out[0], (vec![7], vec![1], vec![]));
        assert_eq!(out[1], (vec![7], vec![2], vec![3, 4]));
    }
}
