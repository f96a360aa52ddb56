//! The board: the shared memory every collective meets on.
//!
//! Ranks are threads of one process, so a collective need not travel as
//! messages. Each communicator's members share one board (found by the
//! context in `Wiring`'s map and freed with the last member's
//! communicator): one cache-line-padded slot per rank, holding that rank's
//! contribution to the current collective. A call deposits its
//! contribution for the next generation, waits until the members whose
//! contributions it reads have deposited that generation, and reads them
//! — an `allreduce` folds all `p` in the bracket of
//! [`crate::collectives`], so every rank computes the same bits. A
//! collective is one rendezvous, not rounds of messages.
//!
//! Every member deposits once per collective, so generations count
//! collectives and stay in step on every rank. A contribution is stored
//! as a [`Tagged`] value: the collective it was made for is part of its
//! type, so a rank that reads a contribution to another collective (or of
//! another type) gets a `TypeMismatch`, never that call's data.
//!
//! Two payloads per slot, picked by the generation's parity, are enough:
//! a rank deposits generation `g + 2` only after every member deposited
//! `g + 1`, and a member deposits `g + 1` only after it finished reading
//! generation `g`. That order is also what keeps a payload's writer and
//! its readers apart. An `allreduce` overwrites the slot's payload with
//! `clone_from` when the type repeats, so a warm reduction of an `f64`
//! allocates nothing and a warm `Vec` keeps its buffer; the other
//! collectives move their contribution in, and a contribution only one
//! rank reads is moved out by that rank. A value of up to five words — a
//! scalar, or up to four `f64` of an `allreduce_vec` with their count —
//! sits in the slot itself, next to the generation a reader polls; a
//! larger one is boxed. A rank never reads its own slot, so with two ranks
//! each slot has one reader; with more, readers take the slot's lock,
//! which keeps the bound on a contribution's type at `Send`.

use std::any::TypeId;
use std::cell::UnsafeCell;
use std::mem::{align_of, size_of, MaybeUninit};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::MutexGuard;
use std::time::Duration;

use parking_lot::Mutex;

use crate::error::{CommError, CommResult};
use crate::line::Parking;

/// Inline storage of one payload: four values and a length, so a short
/// `allreduce_vec` contribution ([`crate::collectives::allreduce_vec`])
/// sits in the slot like a scalar.
type Words = [u64; 5];

/// Does an `A` fit in [`Words`] (else it is stored as a `Box<A>`)?
const fn fits<A>() -> bool {
    size_of::<A>() <= size_of::<Words>() && align_of::<A>() <= align_of::<Words>()
}

/// One type-erased contribution: an `A` in place, or a `Box<A>` when `A`
/// does not [`fits`].
struct Payload {
    /// `TypeId::of::<A>` of the value held; `None` while empty.
    type_id: Option<fn() -> TypeId>,
    /// Drops the value held.
    drop: unsafe fn(*mut Words),
    words: MaybeUninit<Words>,
}

impl Payload {
    const EMPTY: Payload =
        Payload { type_id: None, drop: drop_nothing, words: MaybeUninit::uninit() };

    fn holds<A: 'static>(&self) -> bool {
        self.type_id.is_some_and(|id| id() == TypeId::of::<A>())
    }

    fn get_mut<A: 'static>(&mut self) -> Option<&mut A> {
        if !self.holds::<A>() {
            return None;
        }
        let p = self.words.as_mut_ptr();
        // SAFETY: `holds` says `set::<A>` wrote an `A` (or a `Box<A>`,
        // by the same `fits` test) at `words`, and `&mut self` gives
        // exclusive access.
        Some(unsafe {
            if fits::<A>() {
                &mut *p.cast::<A>()
            } else {
                &mut **p.cast::<Box<A>>()
            }
        })
    }

    /// Move the `A` out, leaving the payload empty.
    fn take<A: 'static>(&mut self) -> Option<A> {
        if !self.holds::<A>() {
            return None;
        }
        self.type_id = None;
        let p = self.words.as_ptr();
        // SAFETY: `holds` says `set::<A>` wrote an `A` (or a `Box<A>`) at
        // `words`; the cleared `type_id` hands it to the caller, so it is
        // not dropped here as well.
        Some(unsafe {
            if fits::<A>() {
                p.cast::<A>().read()
            } else {
                *p.cast::<Box<A>>().read()
            }
        })
    }

    fn set<A: Send + 'static>(&mut self, value: A) {
        self.clear();
        let p = self.words.as_mut_ptr();
        // SAFETY: `words` is empty after `clear`, and an `A` that `fits`
        // (or else a `Box<A>`, one aligned pointer) fits in it.
        unsafe {
            if fits::<A>() {
                p.cast::<A>().write(value);
            } else {
                p.cast::<Box<A>>().write(Box::new(value));
            }
        }
        self.drop = drop_value::<A>;
        self.type_id = Some(TypeId::of::<A>);
    }

    fn clear(&mut self) {
        if self.type_id.take().is_some() {
            // SAFETY: `drop` matches the value `set` wrote, and the
            // cleared `type_id` keeps it from being dropped twice.
            unsafe { (self.drop)(self.words.as_mut_ptr()) }
        }
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        self.clear();
    }
}

unsafe fn drop_nothing(_: *mut Words) {}

/// # Safety
/// `p` must hold an `A` (or a `Box<A>`) written by [`Payload::set`].
unsafe fn drop_value<A>(p: *mut Words) {
    unsafe {
        if fits::<A>() {
            p.cast::<A>().drop_in_place();
        } else {
            p.cast::<Box<A>>().drop_in_place();
        }
    }
}

/// One rank's place on the board, on a cache line of its own: its owner
/// writes the payload and then the generation once a call, and the other
/// ranks poll the generation and then read the payload beside it.
#[repr(align(128))]
struct Slot {
    /// The generation this rank deposited last (0: none yet). A rank's
    /// next generation is read from here, so every handle on one context
    /// counts the same calls.
    generation: AtomicU64,
    /// Taken by readers when there are more than one (`p > 2`).
    readers: Mutex<()>,
    /// Contributions, indexed by generation parity.
    payload: [UnsafeCell<Payload>; 2],
}

// SAFETY: `generation` and `readers` are Sync. A payload is written
// only under its rank's turn lock (`Board::turns`), in `Turn::deposit`, and
// only once every member has deposited the generation before, so every
// reader of the payload's previous contents has finished (see the module
// header). It is read (and a contribution moved out of it), in
// `Turn::read`, only after its generation was published with a `SeqCst`
// store and seen with a `SeqCst` load, by another rank that holds its own
// slot's turn until the read is done; concurrent readers (more than one
// other rank) serialize on `readers`. The values held are `Send`
// (`Payload::set` requires it), and whichever thread drops the board
// drops them.
unsafe impl Sync for Slot {}

/// A contribution to the collective numbered `K` (see
/// [`crate::collectives`]): the number is part of the type a reader asks
/// for, so contributions to two collectives never match.
#[repr(transparent)]
struct Tagged<const K: u8, A>(A);

/// A rank's turn lock, on a cache line of its own.
#[repr(align(128))]
#[derive(Default)]
struct TurnLock(Mutex<()>);

/// One communicator's board.
pub(crate) struct Board {
    slots: Box<[Slot]>,
    /// One lock per rank, held by its [`Turn`] from the deposit to the
    /// last read, so two calls of one rank (two threads sharing a
    /// communicator, or two handles of one context) take turns. Apart
    /// from the slots: no other rank touches them.
    turns: Box<[TurnLock]>,
    /// Ranks parked on [`Self::park`], woken by every deposit.
    parking: Parking,
}

impl Board {
    /// An empty board for `p` ranks.
    pub(crate) fn new(p: usize) -> Self {
        Board {
            slots: (0..p)
                .map(|_| Slot {
                    generation: AtomicU64::new(0),
                    readers: Mutex::new(()),
                    payload: [UnsafeCell::new(Payload::EMPTY), UnsafeCell::new(Payload::EMPTY)],
                })
                .collect(),
            turns: (0..p).map(|_| TurnLock::default()).collect(),
            parking: Parking::default(),
        }
    }

    /// Start rank `me`'s next collective on this board, waiting for any
    /// other call of the same rank to finish first.
    pub(crate) fn turn(&self, me: usize) -> Turn<'_> {
        let held = self.turns[me].0.lock();
        let g = self.slots[me].generation.load(Ordering::Relaxed) + 1;
        Turn { board: self, me, g, _held: held }
    }

    /// Has every member deposited generation `g`? (Generation 0 always
    /// has.)
    pub(crate) fn complete(&self, g: u64) -> bool {
        self.missing(g, None).is_none()
    }

    /// The lowest rank of `from` (every member when `None`) that has not
    /// yet deposited generation `g`.
    pub(crate) fn missing(&self, g: u64, from: Option<usize>) -> Option<usize> {
        let behind = |r: &usize| self.slots[*r].generation.load(Ordering::SeqCst) < g;
        match from {
            Some(r) => Some(r).filter(behind),
            None => (0..self.slots.len()).find(behind),
        }
    }

    /// Sleep until `from` has deposited generation `g` (see
    /// [`Self::missing`]) or `slice` has passed; returns whether it has.
    pub(crate) fn park(&self, g: u64, from: Option<usize>, slice: Duration) -> bool {
        self.parking.park(slice, || self.missing(g, from).is_none())
    }
}

/// One collective of one rank: its slot held from the deposit to the last
/// read.
pub(crate) struct Turn<'a> {
    board: &'a Board,
    me: usize,
    /// The generation this collective deposits and reads.
    g: u64,
    _held: MutexGuard<'a, ()>,
}

impl Turn<'_> {
    /// The generation this collective deposits and reads.
    pub(crate) fn generation(&self) -> u64 {
        self.g
    }

    /// Post this rank's contribution to collective `K`, moved in, and
    /// wake any parked member.
    ///
    /// # Panics
    ///
    /// If some member has not yet deposited the generation before: it may
    /// still be reading this parity's payload. The caller waits for that
    /// generation to be [`Board::complete`] first.
    pub(crate) fn deposit<const K: u8, A: Send + 'static>(&self, value: A) {
        self.publish(|payload| payload.set(Tagged::<K, A>(value)));
    }

    /// [`Self::deposit`] of a copy of `value`, made with `clone_from` into
    /// the payload the slot holds when the collective and type repeat.
    pub(crate) fn deposit_copy<const K: u8, A: Send + Clone + 'static>(&self, value: &A) {
        self.publish(|payload| match payload.get_mut::<Tagged<K, A>>() {
            Some(old) => old.0.clone_from(value),
            None => payload.set(Tagged::<K, A>(value.clone())),
        });
    }

    fn publish(&self, write: impl FnOnce(&mut Payload)) {
        let (board, g) = (self.board, self.g);
        assert!(board.complete(g - 1), "deposit before generation {} is complete", g - 1);
        let slot = &board.slots[self.me];
        // SAFETY: this rank holds its turn, so nothing else writes
        // the payload, and every member deposited `g − 1` (checked above),
        // so every reader of this parity's previous generation `g − 2` has
        // finished.
        write(unsafe { &mut *slot.payload[parity(g)].get() });
        slot.generation.store(g, Ordering::SeqCst);
        board.parking.wake();
    }

    /// Run `f` on another rank's contribution to collective `K` of this
    /// generation, leaving it in its slot. A contribution to another
    /// collective, or of another type, is a [`CommError::TypeMismatch`].
    ///
    /// # Panics
    ///
    /// If `rank` is this rank, or has not deposited this generation: the
    /// caller waits for it first.
    pub(crate) fn read<const K: u8, A: 'static, R>(
        &self,
        rank: usize,
        f: impl FnOnce(&mut A) -> R,
    ) -> CommResult<R> {
        self.payload::<A, R>(rank, |payload| payload.get_mut::<Tagged<K, A>>().map(|v| f(&mut v.0)))
    }

    /// [`Self::read`], dropping the contribution afterwards when this rank
    /// is its last reader: `only` (no other rank reads it), or two ranks.
    /// The caller moves out what it needs; what is left does not outlive
    /// the call.
    pub(crate) fn read_last<const K: u8, A: 'static, R>(
        &self,
        rank: usize,
        only: bool,
        f: impl FnOnce(&mut A) -> R,
    ) -> CommResult<R> {
        let last = only || self.board.slots.len() == 2;
        self.payload::<A, R>(rank, |payload| {
            let r = payload.get_mut::<Tagged<K, A>>().map(|v| f(&mut v.0));
            if last && r.is_some() {
                payload.clear();
            }
            r
        })
    }

    /// Another rank's contribution to collective `K` of this generation,
    /// as [`Self::read`]: moved out when this rank is its only reader (two
    /// ranks), so it does not outlive the call, and cloned otherwise.
    pub(crate) fn share<const K: u8, A: Clone + 'static>(&self, rank: usize) -> CommResult<A> {
        let sole = self.board.slots.len() == 2;
        self.payload::<A, A>(rank, |payload| match sole {
            true => payload.take::<Tagged<K, A>>().map(|v| v.0),
            false => payload.get_mut::<Tagged<K, A>>().map(|v| v.0.clone()),
        })
    }

    /// Run `f` on `rank`'s payload of this generation; `None` from `f` is
    /// a [`CommError::TypeMismatch`] for `A`.
    fn payload<A, R>(
        &self,
        rank: usize,
        f: impl FnOnce(&mut Payload) -> Option<R>,
    ) -> CommResult<R> {
        let slot = &self.board.slots[rank];
        assert!(rank != self.me, "a rank reads its own contribution");
        assert!(slot.generation.load(Ordering::SeqCst) >= self.g, "read before rank {rank} came");
        let _readers = (self.board.slots.len() > 2).then(|| slot.readers.lock());
        // SAFETY: `rank` deposited this generation (checked above), and
        // will not write this payload again before every member, this rank
        // included, deposited the next generation, which this rank cannot
        // do while its turn is held; other readers are locked out above
        // (with two ranks this rank is the only one).
        let payload = unsafe { &mut *slot.payload[parity(self.g)].get() };
        f(payload).ok_or(CommError::TypeMismatch { expected: std::any::type_name::<A>() })
    }

    /// Fold the `p` contributions to collective `K` of this generation in
    /// the reduction bracket, this rank's own being `own`. The fold climbs
    /// from this rank's leaf: at each level the value of its aligned block
    /// meets the value of the sibling block, read from the other slots.
    /// `combine(acc, other, higher)` folds `other` into `acc`, as
    /// `op(acc, other)` when `higher` (the other block lies above) and as
    /// `op(other, acc)` otherwise, so operands stay in rank order.
    ///
    /// # Panics
    ///
    /// If some member has not yet deposited this generation. The caller
    /// waits for it to be [`Board::complete`] first.
    pub(crate) fn fold<const K: u8, A, C>(&self, own: A, combine: &C) -> CommResult<A>
    where
        A: Clone + 'static,
        C: Fn(&mut A, &A, bool) -> CommResult<()>,
    {
        let (p, me) = (self.board.slots.len(), self.me);
        let mut acc = own;
        let mut m = 1;
        while m < p {
            let base = me & !(2 * m - 1);
            let sibling = if me - base < m { base + m } else { base };
            if sibling < p {
                let higher = sibling > me;
                if m == 1 {
                    self.read::<K, A, _>(sibling, |v| combine(&mut acc, v, higher))??;
                } else {
                    combine(&mut acc, &self.block::<K, A, C>(sibling, m, combine)?, higher)?;
                }
            }
            m *= 2;
        }
        Ok(acc)
    }

    /// The bracket value of the aligned block of `size` ranks at `base`,
    /// cut off at `p`; the block does not hold this rank.
    fn block<const K: u8, A, C>(&self, base: usize, size: usize, combine: &C) -> CommResult<A>
    where
        A: Clone + 'static,
        C: Fn(&mut A, &A, bool) -> CommResult<()>,
    {
        if size == 1 {
            return self.read::<K, A, _>(base, |v| v.clone());
        }
        let half = size / 2;
        let mut acc = self.block::<K, A, C>(base, half, combine)?;
        let higher = base + half;
        if higher < self.board.slots.len() {
            if half == 1 {
                self.read::<K, A, _>(higher, |v| combine(&mut acc, v, true))??;
            } else {
                combine(&mut acc, &self.block::<K, A, C>(higher, half, combine)?, true)?;
            }
        }
        Ok(acc)
    }
}

#[inline]
fn parity(g: u64) -> usize {
    (g & 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every rank of `board` deposits its name for its next generation;
    /// returns the turns, ready to fold.
    fn deposit_all<'a>(board: &'a Board, names: &[&str]) -> Vec<Turn<'a>> {
        let turns: Vec<Turn> = (0..names.len()).map(|r| board.turn(r)).collect();
        for (turn, name) in turns.iter().zip(names) {
            assert_eq!(turn.generation(), turns[0].generation());
            turn.deposit::<0, _>(name.to_string());
        }
        turns
    }

    #[test]
    fn fold_brackets_aligned_blocks_in_rank_order_on_every_rank() {
        // Parenthesise every combination to see the bracket itself.
        let bracket = |acc: &mut String, other: &String, higher: bool| {
            *acc = if higher { format!("({acc}{other})") } else { format!("({other}{acc})") };
            Ok(())
        };
        for (p, expect) in [
            (1, "0"),
            (2, "(01)"),
            (3, "((01)2)"),
            (5, "(((01)(23))4)"),
            (6, "(((01)(23))(45))"),
            (7, "(((01)(23))((45)6))"),
        ] {
            let board = Board::new(p);
            let names: Vec<String> = (0..p).map(|r| r.to_string()).collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let turns = deposit_all(&board, &names);
            assert!(board.complete(1));
            for (me, turn) in turns.into_iter().enumerate() {
                let got = turn.fold::<0, _, _>(me.to_string(), &bracket).unwrap();
                assert_eq!(got, expect, "p = {p}, rank {me}");
            }
        }
    }

    #[test]
    fn generations_alternate_payloads_and_keep_the_previous_one_readable() {
        let concat = |acc: &mut String, other: &String, higher: bool| {
            *acc = if higher { format!("{acc}{other}") } else { format!("{other}{acc}") };
            Ok(())
        };
        let board = Board::new(2);
        assert!(board.complete(0));
        let mut turns = deposit_all(&board, &["a", "b"]);
        let second = turns.pop().unwrap();
        assert_eq!(turns.pop().unwrap().fold::<0, _, _>("a".to_string(), &concat).unwrap(), "ab");
        // Rank 0 runs ahead into the next generation before rank 1 has
        // folded this one.
        let next = board.turn(0);
        next.deposit::<0, _>("c".to_string());
        assert_eq!(board.missing(next.generation(), None), Some(1));
        assert_eq!(second.fold::<0, _, _>("b".to_string(), &concat).unwrap(), "ab");
        drop(second);
        let other = board.turn(1);
        other.deposit::<0, _>("d".to_string());
        assert_eq!(next.fold::<0, _, _>("c".to_string(), &concat).unwrap(), "cd");
        assert_eq!(other.fold::<0, _, _>("d".to_string(), &concat).unwrap(), "cd");
    }

    #[test]
    fn a_slot_with_two_five_word_payloads_is_one_128_byte_line() {
        assert_eq!(size_of::<Slot>(), 128);
    }

    #[test]
    fn payloads_hold_small_values_in_place_and_large_ones_boxed() {
        let mut payload = Payload::EMPTY;
        assert!(payload.get_mut::<f64>().is_none());
        payload.set(1.5f64);
        assert_eq!(payload.get_mut::<f64>(), Some(&mut 1.5));
        assert!(payload.get_mut::<u64>().is_none(), "another type of the same size");
        payload.set([7u64; 9]);
        assert!(!fits::<[u64; 9]>());
        assert_eq!(payload.get_mut::<[u64; 9]>(), Some(&mut [7u64; 9]));
        payload.set(vec![1.0f64, 2.0]);
        payload.get_mut::<Vec<f64>>().unwrap().push(3.0);
        assert_eq!(payload.take::<Vec<f64>>(), Some(vec![1.0, 2.0, 3.0]));
        assert!(payload.get_mut::<Vec<f64>>().is_none(), "taken");
        payload.set([7u64; 9]);
        assert_eq!(payload.take::<[u64; 9]>(), Some([7u64; 9]));
    }

    #[test]
    fn a_contribution_of_another_type_is_a_type_mismatch() {
        let board = Board::new(2);
        let (first, second) = (board.turn(0), board.turn(1));
        first.deposit::<0, _>(1.0f64);
        second.deposit::<0, _>(1u32);
        assert!(matches!(first.read::<0, f64, _>(1, |_| ()), Err(CommError::TypeMismatch { .. })));
        drop((first, second));
        let (first, second) = (board.turn(0), board.turn(1));
        first.deposit::<0, _>(1.0f64);
        second.deposit::<1, _>(1.0f64);
        assert!(matches!(first.read::<0, f64, _>(1, |_| ()), Err(CommError::TypeMismatch { .. })));
        assert_eq!(
            second.read::<1, f64, _>(0, |v| *v),
            Err(CommError::TypeMismatch { expected: "f64" })
        );
    }

    #[test]
    #[should_panic(expected = "deposit before generation 1 is complete")]
    fn a_deposit_waits_for_the_generation_before() {
        let board = Board::new(2);
        board.turn(0).deposit::<0, _>(0u8);
        // Rank 0 again, while rank 1 may still be reading generation 1.
        board.turn(0).deposit::<0, _>(0u8);
    }

    #[test]
    fn park_returns_when_the_last_member_deposits() {
        let board = Board::new(2);
        board.turn(0).deposit::<0, _>(0u8);
        assert!(board.park(1, Some(0), Duration::from_millis(1)), "rank 0 deposited");
        assert!(!board.park(1, None, Duration::from_millis(1)), "nobody else deposited");
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                board.turn(1).deposit::<0, _>(0u8);
            });
            assert!(board.park(1, None, Duration::from_secs(10)));
        });
    }
}
