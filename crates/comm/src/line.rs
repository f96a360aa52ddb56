//! Halo lines: persistent one-way `f64` channels between two ranks.
//!
//! A halo exchange repeats the same hand-off every matvec — the same
//! peer, the same tag, the same length — so it need not travel as a
//! boxed message through the receiver's inbox. A [`Line`] is a ring of
//! [`DEPTH`] payload buffers shared by one sender and one receiver of a
//! communicator, allocated once and lent to every exchange:
//!
//! - the sender fills the buffer of its next generation and publishes it
//!   by advancing the *posted* generation;
//! - the receiver reads the buffer of its next generation once it is
//!   posted, and hands it back by advancing the *taken* generation.
//!
//! Each generation counter sits on a cache line of its own and is written
//! by one side only. A sender more than [`DEPTH`] generations ahead of its
//! receiver waits for room; it never grows the ring. Both waits go
//! through the communicator's one blocking point, so a blocked `post` or
//! `take` sees a lost peer within one park slice.
//!
//! Lines of a universe are found by `(context, sender, receiver, tag)` in
//! the universe's [`Lines`] map. Either end may open a line first; the map
//! holds it until both ends have been opened and every communicator handle
//! that opened one has been dropped, so an end opened late still meets
//! what the other end posted.

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, MutexGuard};
use std::time::Duration;

use parking_lot::Mutex;

use crate::envelope::Context;
use crate::Tag;

/// Buffers in a line's ring: how far a sender may run ahead.
pub(crate) const DEPTH: u64 = 4;

/// Which end of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum End {
    Send = 0,
    Recv = 1,
}

/// A line's key in its universe: `(context, sender world rank, receiver
/// world rank, tag)`.
pub(crate) type LineKey = (Context, usize, usize, Tag);

/// A generation one end publishes and the other polls, on a cache line of
/// its own.
#[repr(align(128))]
#[derive(Default)]
struct Generation(AtomicU64);

/// The lock one end's calls take turns on, on a cache line of its own, so
/// taking it does not disturb the other end's polling.
#[repr(align(128))]
#[derive(Default)]
struct Turn(Mutex<()>);

/// One payload and the trace stamp that rode with it, on a cache line of
/// its own: the receiver reading one buffer's header does not contend
/// with the sender filling the next, and a header that does not change is
/// not written, so it stays in both ends' caches.
#[repr(align(128))]
#[derive(Default)]
struct Buffer {
    data: Vec<f64>,
    stamp: Option<probe::trace::Stamp>,
}

/// Parked waiters of a line, a board or an inbox, apart from what they
/// poll. Every blocking wait of the runtime parks on one of these.
#[repr(align(128))]
#[derive(Default)]
pub(crate) struct Parking {
    sleepers: AtomicUsize,
    wake: Mutex<()>,
    moved: Condvar,
}

impl Parking {
    /// Wake anyone parked here. Call it after publishing what they wait
    /// for: SeqCst on both sides of the sleeper handshake, so either a
    /// parking waiter sees the change, or this load sees the sleeper.
    pub(crate) fn wake(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _wake = self.wake.lock();
            self.moved.notify_all();
        }
    }

    /// Sleep until `ready()` or `slice` has passed; returns `ready()`.
    pub(crate) fn park(&self, slice: Duration, ready: impl Fn() -> bool) -> bool {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let guard = self.wake.lock();
        let (_guard, _) = self
            .moved
            .wait_timeout_while(guard, slice, |_| !ready())
            .unwrap_or_else(|e| e.into_inner());
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        ready()
    }
}

/// The shared state of one line.
pub(crate) struct Shared {
    posted: Generation,
    taken: Generation,
    /// Indexed by [`End`].
    turns: [Turn; 2],
    ring: [UnsafeCell<Buffer>; DEPTH as usize],
    parking: Parking,
}

// SAFETY: the generations, the turns and the parking lot are Sync. The
// buffer of generation `g` (index `g % DEPTH`) is written only by the
// sender, holding its turn, while `posted == g` and `taken + DEPTH > g`: the
// receiver has finished with generation `g − DEPTH` (its `taken` store
// and the sender's load are `SeqCst`). It is read, and written by a
// receive fault, only by the receiver, holding its turn, while `taken ==
// g < posted`, after the sender's `SeqCst` publication of `g + 1`.
// `Buffer` holds plain data (`Vec<f64>`, a `Copy` stamp), so whichever
// thread drops the line drops it.
unsafe impl Sync for Shared {}

impl Shared {
    fn new(len: usize) -> Self {
        Shared {
            posted: Generation::default(),
            taken: Generation::default(),
            turns: Default::default(),
            ring: std::array::from_fn(|_| {
                UnsafeCell::new(Buffer { data: Vec::with_capacity(len), stamp: None })
            }),
            parking: Parking::default(),
        }
    }

    /// Publish `g` on `generation` and wake anyone parked on this line.
    fn publish(&self, generation: &Generation, g: u64) {
        generation.0.store(g, Ordering::SeqCst);
        self.parking.wake();
    }
}

/// One end of a halo line, from [`crate::Communicator::open_send_line`] or
/// [`crate::Communicator::open_recv_line`]: the handle
/// [`crate::Communicator::post`] and [`crate::Communicator::take`] run on.
/// Cloning it shares the end.
#[derive(Clone)]
pub struct Line {
    shared: Arc<Shared>,
    /// The other end's local rank.
    peer: usize,
    tag: Tag,
    end: End,
    /// The universe and context of the communicator that opened it.
    home: (u64, Context),
}

impl std::fmt::Debug for Line {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Line")
            .field("end", &self.end)
            .field("peer", &self.peer)
            .field("tag", &self.tag)
            .finish()
    }
}

impl Line {
    pub(crate) fn new(
        shared: Arc<Shared>,
        peer: usize,
        tag: Tag,
        end: End,
        home: (u64, Context),
    ) -> Self {
        Line { shared, peer, tag, end, home }
    }

    /// The other end's local rank.
    pub(crate) fn peer(&self) -> usize {
        self.peer
    }

    /// The tag the line's posts and takes present to fault plans and
    /// traffic accounting.
    pub(crate) fn tag(&self) -> Tag {
        self.tag
    }

    /// Was this end opened on `comm` — the same universe and context? A
    /// line opened on another communicator carries that one's traffic,
    /// apart from this one's.
    pub fn opened_on(&self, comm: &crate::Communicator) -> bool {
        self.home == comm.line_home()
    }

    pub(crate) fn end(&self) -> End {
        self.end
    }

    /// Is there room for the sender's generation `g`: has the receiver
    /// taken all but fewer than [`DEPTH`] of the posts before it?
    pub(crate) fn room(&self, g: u64) -> bool {
        self.shared.taken.0.load(Ordering::SeqCst) + DEPTH > g
    }

    /// Has generation `g` been posted?
    pub(crate) fn posted(&self, g: u64) -> bool {
        self.shared.posted.0.load(Ordering::SeqCst) > g
    }

    /// Sleep until `ready()` or `slice` has passed.
    pub(crate) fn park(&self, slice: Duration, ready: impl Fn() -> bool) -> bool {
        self.shared.parking.park(slice, ready)
    }

    /// Start this end's next call: its turn held, the generation it
    /// posts or takes.
    pub(crate) fn turn(&self) -> (MutexGuard<'_, ()>, u64) {
        let shared = &*self.shared;
        let generation = match self.end {
            End::Send => &shared.posted,
            End::Recv => &shared.taken,
        };
        let held = shared.turns[self.end as usize].0.lock();
        // Relaxed: only this end writes its generation, holding this turn,
        // whose lock orders the last write before this read.
        (held, generation.0.load(Ordering::Relaxed))
    }

    /// Fill generation `g`'s buffer with `len` values and publish it.
    ///
    /// # Safety
    ///
    /// The caller is the sender, holds its [`Self::turn`] for `g`, and
    /// has seen [`Self::room`] for `g`.
    pub(crate) unsafe fn write(
        &self,
        g: u64,
        len: usize,
        stamp: Option<probe::trace::Stamp>,
        fill: impl FnOnce(&mut Vec<f64>),
    ) {
        let shared = &*self.shared;
        let slot = |g: u64| shared.ring[(g % DEPTH) as usize].get();
        // SAFETY (every dereference of `slot` below): the caller's
        // contract and `Shared`'s `Sync`; no two borrows overlap.
        if len > unsafe { (*slot(g)).data.capacity() } {
            // Size every buffer this end owns now — generations `g` up to
            // the taken one plus `DEPTH`, none of them posted, the
            // receiver done with each one's `DEPTH` before — so a wider
            // payload costs one growth of the ring, not one a post.
            let end = shared.taken.0.load(Ordering::SeqCst) + DEPTH;
            for free in g..end {
                let data = unsafe { &mut (*slot(free)).data };
                data.reserve(len.saturating_sub(data.len()));
            }
        }
        let buf = unsafe { &mut *slot(g) };
        if buf.data.len() != len {
            buf.data.resize(len, 0.0);
        }
        fill(&mut buf.data);
        if stamp.is_some() || buf.stamp.is_some() {
            buf.stamp = stamp;
        }
        shared.publish(&shared.posted, g + 1);
    }

    /// Run `read` on generation `g`'s payload and hand the buffer back.
    ///
    /// # Safety
    ///
    /// The caller is the receiver, holds its [`Self::turn`] for `g`, and
    /// has seen [`Self::posted`] for `g`.
    pub(crate) unsafe fn read<R>(
        &self,
        g: u64,
        read: impl FnOnce(&mut Vec<f64>, Option<probe::trace::Stamp>) -> R,
    ) -> R {
        let shared = &*self.shared;
        // SAFETY: see the caller's contract and `Shared`'s `Sync`.
        let buf = unsafe { &mut *shared.ring[(g % DEPTH) as usize].get() };
        let r = read(&mut buf.data, buf.stamp);
        shared.publish(&shared.taken, g + 1);
        r
    }
}

/// A universe's lines, by [`LineKey`].
#[derive(Default)]
pub(crate) struct Lines(Mutex<HashMap<LineKey, Entry>>);

/// A line in the map and the handles open on it.
struct Entry {
    shared: Arc<Shared>,
    /// Communicator handles holding each end open, indexed by [`End`].
    open: [usize; 2],
    /// Whether each end has ever been opened.
    seen: [bool; 2],
}

impl Lines {
    /// The line `key`, or a new one with buffers of `len` values; one
    /// more handle holds its `end` open.
    pub(crate) fn open(&self, key: LineKey, end: End, len: usize) -> Arc<Shared> {
        let mut lines = self.0.lock();
        let entry = lines.entry(key).or_insert_with(|| Entry {
            shared: Arc::new(Shared::new(len)),
            open: [0; 2],
            seen: [false; 2],
        });
        entry.open[end as usize] += 1;
        entry.seen[end as usize] = true;
        Arc::clone(&entry.shared)
    }

    /// One handle closes its `end` of `key`; the line leaves the map once
    /// both ends were opened and no handle holds either.
    pub(crate) fn close(&self, key: LineKey, end: End) {
        let mut lines = self.0.lock();
        let Some(entry) = lines.get_mut(&key) else { return };
        entry.open[end as usize] -= 1;
        if entry.seen == [true; 2] && entry.open == [0; 2] {
            lines.remove(&key);
        }
    }

    /// Lines in the map.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ends(len: usize) -> (Line, Line) {
        let shared = Arc::new(Shared::new(len));
        let home = (0, 0);
        (
            Line::new(Arc::clone(&shared), 1, 5, End::Send, home),
            Line::new(shared, 0, 5, End::Recv, home),
        )
    }

    fn post(line: &Line, values: &[f64]) {
        let (_turn, g) = line.turn();
        assert!(line.room(g));
        // SAFETY: the sender's turn is held and there is room.
        unsafe { line.write(g, values.len(), None, |b| b.copy_from_slice(values)) };
    }

    fn take(line: &Line) -> Vec<f64> {
        let (_turn, g) = line.turn();
        assert!(line.posted(g));
        // SAFETY: the receiver's turn is held and `g` is posted.
        unsafe { line.read(g, |b, _| b.clone()) }
    }

    #[test]
    fn posts_arrive_in_order_and_the_ring_bounds_the_lead() {
        let (tx, rx) = ends(2);
        for i in 0..DEPTH {
            post(&tx, &[i as f64, -(i as f64)]);
        }
        assert!(!tx.room(DEPTH), "a full ring has no room");
        assert_eq!(take(&rx), [0.0, -0.0]);
        assert!(tx.room(DEPTH));
        for i in 1..DEPTH {
            assert_eq!(take(&rx), [i as f64, -(i as f64)]);
        }
        assert!(!rx.posted(DEPTH));
    }

    #[test]
    fn a_wider_post_sizes_every_free_buffer_once() {
        let (tx, rx) = ends(0);
        post(&tx, &[1.0; 8]);
        // SAFETY: read-only look at buffers no end is using.
        let capacities: Vec<usize> =
            tx.shared.ring.iter().map(|b| unsafe { (*b.get()).data.capacity() }).collect();
        assert!(capacities.iter().all(|&c| c >= 8), "{capacities:?}");
        assert_eq!(take(&rx), [1.0; 8]);
    }

    #[test]
    fn the_map_keeps_a_line_until_both_ends_were_opened_and_closed() {
        let lines = Lines::default();
        let key = (7, 0, 1, 5);
        let first = lines.open(key, End::Send, 4);
        lines.close(key, End::Send);
        assert_eq!(lines.len(), 1, "the receiver has not opened it yet");
        let second = lines.open(key, End::Recv, 4);
        assert!(Arc::ptr_eq(&first, &second), "a late end meets the same line");
        lines.close(key, End::Recv);
        assert_eq!(lines.len(), 0);
    }
}
