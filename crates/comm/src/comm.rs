//! The [`Communicator`]: point-to-point messaging with MPI matching rules.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::board::{Board, Turn};
use crate::cohort::{CohortView, Registry};
use crate::envelope::{child_context, Context};
use crate::error::{CommError, CommResult};
use crate::fault::{Armed, FaultKind, FaultOp, FaultPlan, Fired};
use crate::line::{End, Line, LineKey, Lines, Parking, Shared};
use crate::stats::{CommStats, StatsCell};
use crate::Tag;

/// Polls a blocked wait makes back to back before it starts yielding:
/// roughly the futex park/unpark round trip the poll replaces (an empty
/// poll plus the pause hint is a few tens of nanoseconds, so this is
/// 10–50 µs depending on the core). A message or deposit that arrives
/// inside the budget is handed off without a wake-up; one that does not
/// costs the waiter at most this much extra CPU before it parks.
const SPIN_POLLS: u32 = 1 << 10;

/// Polls made with a `yield_now` between them after the spin and before
/// parking — the whole fast path of an oversubscribed universe, where the
/// peer needs this core to make progress.
const YIELD_POLLS: u32 = 4;

/// How long a parked wait sleeps between checks of the cohort and the
/// deadlock deadline.
const SLICE: Duration = Duration::from_millis(10);

/// Shared wiring of the universe: one inbox per world rank and everything
/// else the universe owns, fixed at launch by
/// [`crate::Universe::run_with_faults`]. Laid out in declaration order:
/// what the fault gate reads on every call comes first, together, and the
/// store's lock, which every `universe_store` call writes, comes last.
#[repr(C)]
pub(crate) struct Wiring {
    /// The launch's fault plan, if any.
    pub faults: Option<Box<Armed>>,
    /// Kill marks and heartbeats of this universe's ranks.
    pub cohort: Registry,
    /// Point-to-point messages not yet received, by world rank.
    pub inboxes: Box<[Inbox]>,
    /// This universe's number in the process: with a context, it names a
    /// communicator's lines (see [`Line::opened_on`]).
    pub id: u64,
    /// More ranks than the host has cores: blocked receives skip the spin.
    pub oversubscribed: bool,
    /// How long a blocking receive may wait before the runtime declares a
    /// suspected deadlock, so mismatched SPMD code fails fast instead of
    /// hanging (`RCOMM_DEADLOCK_TIMEOUT_SECS`, 30 s by default).
    pub deadlock_timeout: Duration,
    /// Boards by context (see [`Pinned`]).
    pub boards: Mutex<HashMap<Context, Pinned>>,
    /// Halo lines by context, ends and tag (see [`crate::line`]).
    pub lines: Lines,
    /// [`Communicator::universe_store`]'s values, one per type.
    pub store: Mutex<Vec<Arc<dyn Any + Send + Sync>>>,
}

/// A board in [`Wiring`]'s map. A communicator holds its board strongly;
/// the map holds it strongly only until every member rank has looked it
/// up, so a rank that returns from an eager collective before a peer came
/// cannot free it under that peer. After that the map holds a `Weak`,
/// drops dead entries whenever it adds a board, and a board lives as long
/// as its communicators.
pub(crate) struct Pinned {
    board: Weak<Board>,
    /// The board while some member has not yet looked it up.
    pin: Option<Arc<Board>>,
    /// Which member ranks have looked it up.
    seen: Vec<bool>,
}

impl Wiring {
    /// The live board of context `context` for local rank `rank`, or a
    /// new one for `p` ranks.
    fn board(&self, context: Context, rank: usize, p: usize) -> Arc<Board> {
        let mut boards = self.boards.lock();
        let board = match boards.get(&context).and_then(|entry| entry.board.upgrade()) {
            Some(board) => board,
            None => {
                boards.retain(|_, entry| entry.board.strong_count() > 0);
                let board = Arc::new(Board::new(p));
                let (weak, pin) = (Arc::downgrade(&board), Some(Arc::clone(&board)));
                boards.insert(context, Pinned { board: weak, pin, seen: vec![false; p] });
                board
            }
        };
        let entry = boards.get_mut(&context).expect("inserted above");
        entry.seen[rank] = true;
        if entry.seen.iter().all(|&seen| seen) {
            entry.pin = None;
        }
        board
    }
}

/// A message in an inbox: the sender's trace stamp and the payload.
type Message = (Option<probe::trace::Stamp>, Box<dyn Any + Send>);

/// What a receive names: `(context, source world rank, tag)`.
type MailKey = (Context, usize, Tag);

/// A world rank's inbox: the point-to-point messages sent to it and not
/// yet received, one FIFO queue per [`MailKey`]. A receive names its
/// source and tag exactly, so it reads one queue, and MPI's
/// non-overtaking rule is that queue's order. A queue leaves the map when
/// it drains, so the map holds only undelivered messages. Its owner polls
/// it on every receive, so it gets cache lines of its own.
#[repr(align(128))]
#[derive(Default)]
pub(crate) struct Inbox {
    mail: Mutex<Mail>,
    /// Messages in `mail`, so an empty poll does not take the lock.
    undelivered: AtomicUsize,
    parking: Parking,
}

#[derive(Default)]
struct Mail {
    queues: HashMap<MailKey, VecDeque<Message>>,
    /// The owner's closure returned or panicked: no receive will come.
    departed: bool,
}

impl Inbox {
    /// Queue `message` under `key` and wake the owner; `false`, with
    /// nothing queued, once the owner has departed.
    fn push(&self, key: MailKey, message: Message) -> bool {
        let mut mail = self.mail.lock();
        if mail.departed {
            return false;
        }
        mail.queues.entry(key).or_default().push_back(message);
        self.undelivered.fetch_add(1, Ordering::Relaxed);
        drop(mail);
        self.parking.wake();
        true
    }

    /// One attempt of a receive: the oldest message under `key`, parking
    /// for up to `slice` first if there is none.
    fn pop(&self, key: &MailKey, slice: Option<Duration>) -> Option<Message> {
        if let Some(slice) = slice {
            self.parking.park(slice, || self.mail.lock().queues.contains_key(key));
        }
        if self.undelivered.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut mail = self.mail.lock();
        let queue = mail.queues.get_mut(key)?;
        let message = queue.pop_front();
        if queue.is_empty() {
            mail.queues.remove(key);
        }
        self.undelivered.fetch_sub(1, Ordering::Relaxed);
        message
    }

    /// The owner leaves: later sends are refused, and what it never
    /// received is dropped.
    pub(crate) fn depart(&self) {
        let mut mail = self.mail.lock();
        mail.departed = true;
        mail.queues.clear();
    }
}

/// A communication context shared by a group of ranks.
///
/// `Communicator` is `Send` (it can be moved into the rank's thread) but
/// deliberately not `Clone`: like an `MPI_Comm`, each rank holds exactly one
/// handle per communicator. New communicators come from [`Communicator::dup`]
/// and [`Communicator::split`].
pub struct Communicator {
    /// Rank within this communicator.
    rank: usize,
    /// Ranks in this communicator, as world ranks (index = local rank).
    members: Arc<Vec<usize>>,
    /// This communicator's user context.
    context: Context,
    /// Monotone salt so successive `split`/`dup` calls derive fresh
    /// contexts; advanced identically on every member.
    split_salt: AtomicU64,
    /// Per-communicator traffic accounting (see [`CommStats`]).
    stats: StatsCell,
    /// This communicator's board, looked up at its first collective.
    board: OnceLock<Arc<Board>>,
    /// The line ends this handle opened, released when it is dropped.
    lines: Mutex<Vec<(LineKey, End, Arc<Shared>)>>,
    wiring: Arc<Wiring>,
}

impl Drop for Communicator {
    fn drop(&mut self) {
        for (key, end, _) in self.lines.get_mut().drain(..) {
            self.wiring.lines.close(key, end);
        }
    }
}

impl Communicator {
    pub(crate) fn new(
        rank: usize,
        members: Arc<Vec<usize>>,
        context: Context,
        wiring: Arc<Wiring>,
    ) -> Self {
        Communicator {
            rank,
            members,
            context,
            split_salt: AtomicU64::new(1),
            stats: StatsCell::default(),
            board: OnceLock::new(),
            lines: Mutex::default(),
            wiring,
        }
    }

    /// Number of `allreduce`/`allreduce_vec` calls made on this
    /// communicator. A fused allreduce counts once regardless of how many
    /// scalars it carries, so tests can assert on a solver's per-iteration
    /// reduction count.
    pub fn allreduce_count(&self) -> u64 {
        self.stats.allreduce_count()
    }

    /// Snapshot this communicator's full traffic accounting: every
    /// collective flavour plus point-to-point calls and bytes. Counts are
    /// per communicator — `dup`/`split` children start from zero.
    pub fn stats(&self) -> CommStats {
        self.stats.snapshot()
    }

    /// This process's rank in `0..self.size()`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in this communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// True on rank 0, the conventional root.
    #[inline]
    pub fn is_root(&self) -> bool {
        self.rank == 0
    }

    /// World rank of local rank `r`.
    fn world_rank(&self, r: usize) -> CommResult<usize> {
        self.members.get(r).copied().ok_or(CommError::RankOutOfRange { rank: r, size: self.size() })
    }

    fn check_tag(tag: Tag) -> CommResult<()> {
        if tag < 0 {
            return Err(CommError::InvalidTag(tag));
        }
        Ok(())
    }

    /// This rank's world rank — the rank space fault plans address.
    #[inline]
    fn my_world_rank(&self) -> usize {
        self.members[self.rank]
    }

    /// World rank of each member, indexed by local rank. World ranks are
    /// the space the cohort registry and fault plans address.
    pub fn world_members(&self) -> &[usize] {
        &self.members
    }

    /// The one fault gate, on every communication call `name` (of kind
    /// `op`, with `tag` on point-to-point calls). It stamps this rank's
    /// heartbeat and refuses to operate once the rank has been marked
    /// dead — a killed rank fails every call with the same
    /// [`CommError::RankLost`] verdict forever after. Then it consults the
    /// launch's fault plan: `error`, `delay` and `kill` take effect here,
    /// and a fired `drop`, `corrupt` or `truncate` is returned for the
    /// caller to apply to its payload.
    #[inline]
    fn fault_gate(
        &self,
        op: FaultOp,
        name: &'static str,
        tag: Option<Tag>,
    ) -> CommResult<Option<Fired>> {
        let me = self.my_world_rank();
        let cohort = &self.wiring.cohort;
        cohort.heartbeat(me);
        if cohort.is_lost(me) {
            return Err(CommError::RankLost(me));
        }
        match &self.wiring.faults {
            None => Ok(None),
            Some(armed) => self.fire(armed, op, name, tag),
        }
    }

    #[cold]
    #[inline(never)]
    fn fire(
        &self,
        armed: &Armed,
        op: FaultOp,
        name: &'static str,
        tag: Option<Tag>,
    ) -> CommResult<Option<Fired>> {
        let me = self.my_world_rank();
        let Some(fired) = armed.check(op, me, tag) else { return Ok(None) };
        match fired.kind {
            FaultKind::Error => Err(CommError::Injected { op: name, rank: me, call: fired.call }),
            FaultKind::Delay(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(None)
            }
            FaultKind::Kill => {
                self.wiring.cohort.mark_dead(me);
                Err(CommError::RankLost(me))
            }
            _ => Ok(Some(fired)),
        }
    }

    /// The fault plan this rank's universe was launched with, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.wiring.faults.as_ref().map(|a| &a.plan)
    }

    /// Indices (into [`Communicator::fault_plan`]'s rules) of the rules
    /// that have fired in this universe so far. Empty without a plan.
    pub fn fired_rule_ids(&self) -> Vec<usize> {
        self.wiring.faults.as_ref().map_or_else(Vec::new, |a| a.fired_rule_ids())
    }

    /// Set this universe's heartbeat staleness timeout in milliseconds;
    /// 0 (the default) disables staleness verdicts (see [`crate::cohort`]).
    pub fn set_heartbeat_timeout_ms(&self, ms: u64) {
        self.wiring.cohort.set_heartbeat_timeout_ms(ms);
    }

    /// The universe's one value of type `T`, created on first use. Every
    /// communicator of a universe — its `dup`s, `split`s and `shrink`s
    /// included — reaches the same value, another universe in the same
    /// process never does, and the value is dropped with the universe.
    /// Recovery state that stands in for memory on a neighbouring rank
    /// (mirrored set-up blocks, Krylov checkpoints) lives here.
    pub fn universe_store<T: Any + Default + Send + Sync>(&self) -> Arc<T> {
        let mut store = self.wiring.store.lock();
        if let Some(value) = store.iter().find_map(|v| Arc::clone(v).downcast::<T>().ok()) {
            return value;
        }
        let value = Arc::new(T::default());
        store.push(Arc::clone(&value) as Arc<dyn Any + Send + Sync>);
        value
    }

    /// Snapshot this communicator's cohort health: which members are
    /// alive and which are lost (killed or heartbeat-stale). The `alive`
    /// list is exactly the survivor set [`Communicator::shrink`] expects.
    pub fn cohort_view(&self) -> CohortView {
        self.wiring.cohort.capture(&self.members)
    }

    /// Byte/message accounting plus the `Send` event for one posted p2p
    /// send (`stamp` is what rode with the message, if a traced solve is
    /// open). The event feeds the rank×rank matrix, whose row must
    /// reconcile exactly against `SendsPosted`/`BytesSent`, so every path
    /// that bumps those stats — including the fault-injected `Drop` early
    /// return — goes through here. An out-of-range `dest` (caller bug
    /// surfaced elsewhere) is attributed to the self-loop cell to keep
    /// the totals exact.
    fn note_send(&self, dest: usize, tag: Tag, bytes: u64, stamp: Option<probe::trace::Stamp>) {
        self.stats.send(bytes);
        let peer = self.world_rank(dest).unwrap_or_else(|_| self.my_world_rank());
        probe::emit_since(
            stamp.map(|s| s.posted_ns),
            probe::EventKind::Send {
                peer,
                bytes,
                tag: tag as i64,
                seq: stamp.map_or(0, |s| s.seq),
            },
        );
    }

    /// Accounting + the `Recv` event for one completed p2p receive; `src`
    /// is the sender's local rank, `posted` when the receive was posted
    /// and `stamp` what the message carried (both `None` outside a traced
    /// solve).
    fn note_recv(
        &self,
        src: usize,
        tag: Tag,
        bytes: u64,
        posted: Option<u64>,
        stamp: Option<probe::trace::Stamp>,
    ) {
        self.stats.recv(bytes);
        let peer = self.world_rank(src).unwrap_or_else(|_| self.my_world_rank());
        let src_seq = probe::trace::recv_seq(stamp);
        let kind = probe::EventKind::Recv { peer, bytes, tag: tag as i64, src_seq };
        probe::emit_since(posted, kind);
    }

    /// The black-box event for a collective (no peer, no tag).
    #[inline]
    fn note_collective(&self, op: &'static str) {
        probe::emit(probe::EventKind::Collective { op, index: 0 });
    }

    /// Send `value` to local rank `dest` with `tag`.
    ///
    /// Sends are *eager*: the payload is moved into the destination's inbox
    /// and the call returns immediately (like a buffered MPI send). Sending
    /// to self is allowed and is matched by a later receive.
    pub fn send<T: Send + 'static>(&self, dest: usize, tag: Tag, value: T) -> CommResult<()> {
        Self::check_tag(tag)?;
        let mut value = value;
        if let Some(fired) = self.fault_gate(FaultOp::Send, "send", Some(tag))? {
            if fired.kind == FaultKind::Drop {
                // Silently discard: the receiver never sees the message.
                self.note_send(dest, tag, std::mem::size_of::<T>() as u64, None);
                return Ok(());
            }
            fired.apply(&mut value);
        }
        let world_dest = self.world_rank(dest)?;
        // Fail fast instead of filling a dead rank's inbox; one load
        // while the cohort is intact.
        if self.wiring.cohort.is_lost(world_dest) {
            return Err(CommError::RankLost(world_dest));
        }
        // Stamp user p2p traffic inside a traced solve (one relaxed
        // load otherwise); the `Send` event takes its sequence and its
        // start from the stamp.
        let stamp = probe::trace::stamp_send();
        let key = (self.context, self.my_world_rank(), tag);
        // A departed inbox means the peer's closure returned. If it left
        // because a member was lost, pass that verdict on: survivors that
        // notice at different moments must still agree on the cause.
        if !self.wiring.inboxes[world_dest].push(key, (stamp, Box::new(value))) {
            return Err(match self.wiring.cohort.lost_member(&self.members) {
                Some(world) => CommError::RankLost(world),
                None => CommError::PeerGone(dest),
            });
        }
        self.note_send(dest, tag, std::mem::size_of::<T>() as u64, stamp);
        Ok(())
    }

    /// Receive a `T` from local rank `src` with tag `tag` on this
    /// communicator, blocking until a matching message arrives.
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: Tag) -> CommResult<T> {
        Self::check_tag(tag)?;
        let fired = self.fault_gate(FaultOp::Recv, "recv", Some(tag))?;
        let posted = probe::trace::recv_start();
        let key = (self.context, self.world_rank(src)?, tag);
        let inbox = &self.wiring.inboxes[self.my_world_rank()];
        let (stamp, payload) = self.wait_for(
            |slice| Ok(inbox.pop(&key, slice)),
            || CommError::DeadlockSuspected { rank: self.rank, src: Some(src), tag: Some(tag) },
        )?;
        let Ok(v) = payload.downcast::<T>() else {
            return Err(CommError::TypeMismatch { expected: std::any::type_name::<T>() });
        };
        let mut v = *v;
        self.note_recv(src, tag, std::mem::size_of::<T>() as u64, posted, stamp);
        if let Some(fired) = fired {
            fired.apply(&mut v);
        }
        Ok(v)
    }

    /// Open the sending end of the halo line to local rank `dest` with
    /// `tag` (see [`Line`]). The first end opened sizes the line's
    /// buffers for `len` values; a longer post grows them once. Opening
    /// the same end again on this handle returns the same line, and the
    /// line lives while any handle holds an end of it, so an end opened
    /// before a collective is found by a peer that has passed it.
    pub fn open_send_line(&self, dest: usize, tag: Tag, len: usize) -> CommResult<Line> {
        self.open_line(dest, tag, End::Send, len)
    }

    /// Open the receiving end of the halo line from local rank `src` with
    /// `tag`; see [`Self::open_send_line`].
    pub fn open_recv_line(&self, src: usize, tag: Tag, len: usize) -> CommResult<Line> {
        self.open_line(src, tag, End::Recv, len)
    }

    fn open_line(&self, peer: usize, tag: Tag, end: End, len: usize) -> CommResult<Line> {
        Self::check_tag(tag)?;
        let (me, other) = (self.my_world_rank(), self.world_rank(peer)?);
        let key = match end {
            End::Send => (self.context, me, other, tag),
            End::Recv => (self.context, other, me, tag),
        };
        let mut mine = self.lines.lock();
        let shared = match mine.iter().find(|(k, e, _)| *k == key && *e == end) {
            Some((.., shared)) => Arc::clone(shared),
            None => {
                let shared = self.wiring.lines.open(key, end, len);
                mine.push((key, end, Arc::clone(&shared)));
                shared
            }
        };
        Ok(Line::new(shared, peer, tag, end, self.line_home()))
    }

    /// What names this communicator's lines: its universe and context.
    pub(crate) fn line_home(&self) -> (u64, Context) {
        (self.wiring.id, self.context)
    }

    /// Post `len` values on the sending end `line`: `fill` writes them into
    /// the line's next buffer, which the receiver's next
    /// [`Self::take`] reads. Waits while the receiver has four posts
    /// untaken (the ring's depth). Faults, traffic accounting and the trace stamp are a
    /// [`Self::send`]'s with the line's tag: a fired `drop` publishes
    /// nothing, so the next post is taken in its place; `corrupt` and
    /// `truncate` apply to the filled buffer. Counts `8 · len` bytes.
    ///
    /// # Panics
    ///
    /// If `line` is a receiving end.
    pub fn post(&self, line: &Line, len: usize, fill: impl FnOnce(&mut [f64])) -> CommResult<()> {
        assert_eq!(line.end(), End::Send, "post on the receiving end of a line");
        let (dest, tag) = (line.peer(), line.tag());
        let bytes = 8 * len as u64;
        let fired = self.fault_gate(FaultOp::Send, "send", Some(tag))?;
        if fired.is_some_and(|f| f.kind == FaultKind::Drop) {
            self.note_send(dest, tag, bytes, None);
            return Ok(());
        }
        let world_dest = self.world_rank(dest)?;
        if self.wiring.cohort.is_lost(world_dest) {
            return Err(CommError::RankLost(world_dest));
        }
        let stamp = probe::trace::stamp_send();
        let (_turn, g) = line.turn();
        self.wait_line(
            line,
            || line.room(g),
            || CommError::DeadlockSuspected { rank: self.rank, src: Some(dest), tag: Some(tag) },
        )?;
        // SAFETY: this sending end's turn is held for `g`, and there is
        // room for it.
        unsafe {
            line.write(g, len, stamp, |buf| {
                fill(buf);
                if let Some(fired) = fired {
                    fired.apply(buf);
                }
            })
        };
        self.note_send(dest, tag, bytes, stamp);
        Ok(())
    }

    /// Take the next post from the receiving end `line` and run `read` on
    /// its values, waiting until it is posted. Faults, traffic accounting
    /// and the `Recv` event are a [`Self::recv`]'s with the line's tag: a
    /// fired `corrupt` poisons the delivered values. Counts 8 bytes per
    /// value delivered.
    ///
    /// # Panics
    ///
    /// If `line` is a sending end.
    pub fn take<R>(&self, line: &Line, read: impl FnOnce(&[f64]) -> R) -> CommResult<R> {
        assert_eq!(line.end(), End::Recv, "take on the sending end of a line");
        let (src, tag) = (line.peer(), line.tag());
        let fired = self.fault_gate(FaultOp::Recv, "recv", Some(tag))?;
        let posted = probe::trace::recv_start();
        let (_turn, g) = line.turn();
        self.wait_line(
            line,
            || line.posted(g),
            || CommError::DeadlockSuspected { rank: self.rank, src: Some(src), tag: Some(tag) },
        )?;
        // SAFETY: this receiving end's turn is held for `g`, and `g` is
        // posted.
        let (r, bytes, stamp) = unsafe {
            line.read(g, |buf, stamp| {
                if let Some(fired) = fired {
                    fired.apply(buf);
                }
                (read(buf), 8 * buf.len() as u64, stamp)
            })
        };
        self.note_recv(src, tag, bytes, posted, stamp);
        Ok(r)
    }

    /// Wait, through [`Self::wait_for`], until `ready()` holds for `line`.
    fn wait_line(
        &self,
        line: &Line,
        ready: impl Fn() -> bool,
        stuck: impl FnOnce() -> CommError,
    ) -> CommResult<()> {
        if ready() {
            return Ok(());
        }
        self.wait_for(
            |slice| {
                let ready = match slice {
                    None => ready(),
                    Some(slice) => line.park(slice, &ready),
                };
                Ok(ready.then_some(()))
            },
            stuck,
        )
    }

    /// Combined send+receive, deadlock-free regardless of ordering — the
    /// workhorse of halo exchanges.
    pub fn sendrecv<T: Send + 'static, U: Send + 'static>(
        &self,
        dest: usize,
        send_tag: Tag,
        value: T,
        src: usize,
        recv_tag: Tag,
    ) -> CommResult<U> {
        self.send(dest, send_tag, value)?;
        self.recv(src, recv_tag)
    }

    /// The one blocking point, under every receive, every collective and
    /// every halo line. `attempt(None)` checks without blocking;
    /// `attempt(Some(slice))` may block for up to `slice`; either returns
    /// `Some` once the wait is over.
    ///
    /// 1. Poll: spin for about one park/unpark round trip (not at all
    ///    when ranks outnumber cores), then a few yields. Hand-offs
    ///    between ranks in lockstep — the reductions and halo exchanges
    ///    of a solver iteration — complete here, with no futex wake and
    ///    no clock read.
    /// 2. Park in short slices, so a blocked rank notices a cohort member
    ///    dying (kill fault, stale heartbeat) within one slice and fails
    ///    with the rank-consistent `RankLost` verdict instead of waiting
    ///    out the whole deadlock timeout; past the deadline the wait
    ///    fails with `stuck()`. The per-slice cohort check is two atomic
    ///    loads while nobody died and no heartbeat timeout is set.
    fn wait_for<R>(
        &self,
        mut attempt: impl FnMut(Option<Duration>) -> CommResult<Option<R>>,
        stuck: impl FnOnce() -> CommError,
    ) -> CommResult<R> {
        let spins = if self.wiring.oversubscribed { 0 } else { SPIN_POLLS };
        for poll in 0..spins + YIELD_POLLS {
            if let Some(r) = attempt(None)? {
                return Ok(r);
            }
            if poll < spins {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let deadline = Instant::now() + self.wiring.deadlock_timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if let Some(r) = attempt(Some(remaining.min(SLICE)))? {
                return Ok(r);
            }
            if let Some(world) = self.wiring.cohort.lost_member(&self.members) {
                return Err(CommError::RankLost(world));
            }
            if remaining <= SLICE {
                return Err(stuck());
            }
        }
    }

    /// One collective on this communicator's board (see [`crate::board`]):
    /// take this rank's next turn, `deposit` this rank's contribution on
    /// it, wait until `from` (every member when `None`) has deposited the
    /// same generation, and `read` what the call needs, handed what
    /// `deposit` kept. A rank that reads nothing passes itself as `from`
    /// and returns once it has deposited.
    pub(crate) fn meet<S, R>(
        &self,
        deposit: impl FnOnce(&Turn<'_>) -> S,
        from: Option<usize>,
        read: impl FnOnce(&Turn<'_>, S) -> CommResult<R>,
    ) -> CommResult<R> {
        let board =
            self.board.get_or_init(|| self.wiring.board(self.context, self.rank, self.size()));
        let turn = board.turn(self.rank);
        let g = turn.generation();
        // Complete at once unless this rank's previous collective failed,
        // or returned early, before every member had arrived.
        self.wait_board(board, g - 1, None)?;
        let kept = deposit(&turn);
        self.wait_board(board, g, from)?;
        read(&turn, kept)
    }

    /// Wait until `from` (every member when `None`) has deposited
    /// generation `g` on `board`.
    fn wait_board(&self, board: &Board, g: u64, from: Option<usize>) -> CommResult<()> {
        self.wait_for(
            |slice| {
                let arrived = match slice {
                    None => board.missing(g, from).is_none(),
                    Some(slice) => board.park(g, from, slice),
                };
                Ok(arrived.then_some(()))
            },
            || CommError::DeadlockSuspected {
                rank: self.rank,
                src: board.missing(g, from),
                tag: None,
            },
        )
    }

    /// Duplicate this communicator: same group, fresh context, so traffic
    /// on the duplicate can never match traffic on the original.
    ///
    /// Collective: every member must call it.
    pub fn dup(&self) -> CommResult<Communicator> {
        let salt = self.split_salt.fetch_add(1, Ordering::Relaxed);
        let ctx = child_context(self.context, salt, u64::MAX);
        Ok(Communicator::new(self.rank, Arc::clone(&self.members), ctx, Arc::clone(&self.wiring)))
    }

    /// Split into sub-communicators by `color`; members with equal color end
    /// up in the same child, ordered by `key` (ties broken by parent rank).
    ///
    /// Collective: every member must call it with its own color/key. Unlike
    /// MPI there is no `MPI_UNDEFINED`; use a dedicated color for ranks that
    /// should idle, and simply don't use the resulting communicator there.
    pub fn split(&self, color: u64, key: i64) -> CommResult<Communicator> {
        // Gather (color, key) from everyone so all ranks agree on the
        // resulting groups.
        let triples: Vec<(u64, i64, usize)> =
            crate::collectives::allgather(self, (color, key, self.rank))?;
        let mut mine: Vec<(u64, i64, usize)> =
            triples.into_iter().filter(|(c, _, _)| *c == color).collect();
        mine.sort_by_key(|&(_, k, r)| (k, r));
        let my_new_rank = mine
            .iter()
            .position(|&(_, _, r)| r == self.rank)
            .expect("own rank must appear in its color group");
        let members: Vec<usize> = mine.iter().map(|&(_, _, r)| self.members[r]).collect();
        let salt = self.split_salt.fetch_add(1, Ordering::Relaxed);
        let ctx = child_context(self.context, salt, color);
        Ok(Communicator::new(my_new_rank, Arc::new(members), ctx, Arc::clone(&self.wiring)))
    }

    /// Shrink this communicator to `survivors` (local ranks, ascending,
    /// must include the calling rank): the elastic-recovery primitive.
    /// The result has dense ranks `0..survivors.len()` in survivor order.
    ///
    /// Unlike [`Communicator::split`], shrink performs **no communication**
    /// — the lost rank cannot participate in an agreement protocol, and
    /// every survivor already holds the same rank-consistent verdict
    /// ([`CommError::RankLost`]) plus the same member list. The child
    /// context is derived by hashing the survivor *world*-rank list, so
    /// all survivors compute an identical context without exchanging a
    /// message, and it cannot collide with contexts minted by `dup`/`split`
    /// (those advance `split_salt`, which attempt-retry loops may have
    /// advanced differently on different ranks — exactly why it is *not*
    /// used here).
    pub fn shrink(&self, survivors: &[usize]) -> CommResult<Communicator> {
        if survivors.is_empty() || survivors.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CommError::BadCounts { expected: self.size(), got: survivors.len() });
        }
        if let Some(&bad) = survivors.iter().find(|&&r| r >= self.size()) {
            return Err(CommError::RankOutOfRange { rank: bad, size: self.size() });
        }
        let my_new_rank = survivors
            .iter()
            .position(|&r| r == self.rank)
            .ok_or(CommError::RankLost(self.my_world_rank()))?;
        let members: Vec<usize> = survivors.iter().map(|&r| self.members[r]).collect();
        // SplitMix64-style fold over the survivor world ranks: every
        // survivor derives the same salt from the same list, locally.
        let salt = members.iter().fold(0x9e37_79b9_7f4a_7c15_u64, |acc, &w| {
            let mut z = acc ^ (w as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 30)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        });
        let ctx = child_context(self.context, salt, members.len() as u64);
        probe::incr(probe::Counter::CohortShrinks);
        Ok(Communicator::new(my_new_rank, Arc::new(members), ctx, Arc::clone(&self.wiring)))
    }

    // -- Collectives: thin forwarding wrappers so call sites read like MPI. -

    /// Synchronize all ranks.
    pub fn barrier(&self) -> CommResult<()> {
        self.stats.barrier();
        self.note_collective("barrier");
        self.fault_gate(FaultOp::Barrier, "barrier", None)?;
        crate::collectives::barrier(self)
    }

    /// Broadcast `value` from `root` to every rank; returns the value on
    /// all ranks.
    pub fn bcast<T: Send + Clone + 'static>(&self, root: usize, value: T) -> CommResult<T> {
        self.stats.bcast();
        self.note_collective("bcast");
        let mut value = value;
        if let Some(fired) = self.fault_gate(FaultOp::Bcast, "bcast", None)? {
            fired.apply(&mut value);
        }
        crate::collectives::bcast(self, root, value)
    }

    /// Reduce and redistribute: every rank receives the combined value.
    pub fn allreduce<T, F>(&self, value: T, op: F) -> CommResult<T>
    where
        T: Send + Clone + 'static,
        F: Fn(&T, &T) -> T,
    {
        self.stats.allreduce();
        probe::add(probe::Counter::ReducedBytes, std::mem::size_of::<T>() as u64);
        // Reduction time is wait-attributed: with spans on, the one
        // event is the interval — the "allreduce" span (time blocked
        // riding the reduction) and a collective-latency sample.
        let _wait = probe::SpanGuard::collective("allreduce");
        let mut value = value;
        if let Some(fired) = self.fault_gate(FaultOp::Allreduce, "allreduce", None)? {
            // Poison this rank's *contribution*, not the reduced result:
            // the NaN then reaches every rank through the reduction, so
            // all ranks observe the same corrupted value and guard
            // verdicts stay rank-consistent.
            fired.apply(&mut value);
        }
        crate::collectives::allreduce(self, value, op)
    }

    /// Element-wise all-reduce over equal-length slices: this rank's
    /// contribution is copied once and reduced in place.
    pub fn allreduce_vec<T, F>(&self, values: &[T], op: F) -> CommResult<Vec<T>>
    where
        T: Send + Clone + 'static,
        F: Fn(&T, &T) -> T,
    {
        let mut values = values.to_vec();
        self.stats.allreduce();
        probe::add(probe::Counter::ReducedBytes, std::mem::size_of_val(values.as_slice()) as u64);
        let _wait = probe::SpanGuard::collective("allreduce");
        if let Some(fired) = self.fault_gate(FaultOp::Allreduce, "allreduce", None)? {
            fired.apply(&mut values);
        }
        crate::collectives::allreduce_vec(self, values, op)
    }

    /// Gather one value per rank onto `root` (rank order); `None` elsewhere.
    pub fn gather<T: Send + Clone + 'static>(
        &self,
        root: usize,
        value: T,
    ) -> CommResult<Option<Vec<T>>> {
        self.stats.gather();
        self.note_collective("gather");
        let mut value = value;
        if let Some(fired) = self.fault_gate(FaultOp::Gather, "gather", None)? {
            fired.apply(&mut value);
        }
        crate::collectives::gather(self, root, value)
    }

    /// Gather variable-length slices onto `root`, concatenated in rank
    /// order.
    pub fn gatherv<T: Send + Clone + 'static>(
        &self,
        root: usize,
        values: &[T],
    ) -> CommResult<Option<Vec<T>>> {
        self.stats.gather();
        self.note_collective("gatherv");
        self.fault_gate(FaultOp::Gather, "gatherv", None)?;
        crate::collectives::gatherv(self, root, values)
    }

    /// Gather one value per rank onto **all** ranks.
    pub fn allgather<T: Send + Clone + 'static>(&self, value: T) -> CommResult<Vec<T>> {
        self.stats.allgather();
        self.note_collective("allgather");
        let mut value = value;
        if let Some(fired) = self.fault_gate(FaultOp::Allgather, "allgather", None)? {
            fired.apply(&mut value);
        }
        crate::collectives::allgather(self, value)
    }

    /// Gather variable-length slices onto all ranks, concatenated in rank
    /// order.
    pub fn allgatherv<T: Send + Clone + 'static>(&self, values: &[T]) -> CommResult<Vec<T>> {
        self.stats.allgather();
        self.note_collective("allgatherv");
        self.fault_gate(FaultOp::Allgather, "allgatherv", None)?;
        crate::collectives::allgatherv(self, values)
    }

    /// Scatter `chunks[i]` from `root` to rank `i`.
    pub fn scatter<T: Send + Clone + 'static>(
        &self,
        root: usize,
        chunks: Option<Vec<Vec<T>>>,
    ) -> CommResult<Vec<T>> {
        self.stats.scatter();
        self.note_collective("scatter");
        self.fault_gate(FaultOp::Scatter, "scatter", None)?;
        crate::collectives::scatter(self, root, chunks)
    }

    /// Personalized all-to-all exchange: `chunks[i]` goes to rank `i`; the
    /// result's `i`-th entry came from rank `i`.
    pub fn alltoall<T: Send + Clone + 'static>(
        &self,
        chunks: Vec<Vec<T>>,
    ) -> CommResult<Vec<Vec<T>>> {
        self.stats.alltoall();
        self.note_collective("alltoall");
        self.fault_gate(FaultOp::Alltoall, "alltoall", None)?;
        crate::collectives::alltoall(self, chunks)
    }
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("rank", &self.rank)
            .field("size", &self.size())
            .field("context", &self.context)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::Inbox;
    use crate::{CommError, Universe};

    impl Inbox {
        /// Queues in the map.
        fn len(&self) -> usize {
            self.mail.lock().queues.len()
        }
    }

    #[test]
    fn rank_and_size_are_consistent() {
        let out = Universe::run(3, |c| (c.rank(), c.size(), c.is_root()));
        assert_eq!(out, vec![(0, 3, true), (1, 3, false), (2, 3, false)]);
    }

    #[test]
    fn ring_send_recv() {
        let out = Universe::run(4, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 0, c.rank()).unwrap();
            c.recv::<usize>(prev, 0).unwrap()
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn self_send_is_matched() {
        let out = Universe::run(2, |c| {
            c.send(c.rank(), 5, 42i32).unwrap();
            c.recv::<i32>(c.rank(), 5).unwrap()
        });
        assert_eq!(out, vec![42, 42]);
    }

    #[test]
    fn tag_matching_reorders_messages() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, "first").unwrap();
                c.send(1, 2, "second").unwrap();
                String::new()
            } else {
                // Receive in the opposite order of sending.
                let b: &str = c.recv(0, 2).unwrap();
                let a: &str = c.recv(0, 1).unwrap();
                format!("{a},{b}")
            }
        });
        assert_eq!(out[1], "first,second");
    }

    #[test]
    fn fifo_between_pairs_is_preserved() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                for i in 0..100 {
                    c.send(1, 0, i as i64).unwrap();
                }
                vec![]
            } else {
                (0..100).map(|_| c.recv::<i64>(0, 0).unwrap()).collect::<Vec<_>>()
            }
        });
        assert_eq!(out[1], (0..100).collect::<Vec<i64>>());
    }

    #[test]
    fn type_mismatch_is_detected() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, 1.5f64).unwrap();
                None
            } else {
                Some(c.recv::<i32>(0, 0).unwrap_err())
            }
        });
        assert!(matches!(out[1], Some(CommError::TypeMismatch { .. })));
    }

    #[test]
    fn negative_tag_rejected() {
        let out = Universe::run(1, |c| c.send(0, -3, 0u8).unwrap_err());
        assert_eq!(out[0], CommError::InvalidTag(-3));
    }

    #[test]
    fn rank_out_of_range_rejected() {
        let out = Universe::run(2, |c| c.send(5, 0, 0u8).unwrap_err());
        assert_eq!(out[0], CommError::RankOutOfRange { rank: 5, size: 2 });
    }

    #[test]
    fn sendrecv_exchanges_without_deadlock() {
        let out = Universe::run(2, |c| {
            let other = 1 - c.rank();
            c.sendrecv::<usize, usize>(other, 0, c.rank(), other, 0).unwrap()
        });
        assert_eq!(out, vec![1, 0]);
    }

    #[test]
    fn dup_isolates_traffic() {
        let out = Universe::run(2, |c| {
            let d = c.dup().unwrap();
            if c.rank() == 0 {
                // Same (dest, tag) on both communicators; contexts must keep
                // them apart.
                c.send(1, 0, "parent").unwrap();
                d.send(1, 0, "child").unwrap();
                String::new()
            } else {
                let on_child: &str = d.recv(0, 0).unwrap();
                let on_parent: &str = c.recv(0, 0).unwrap();
                format!("{on_parent}/{on_child}")
            }
        });
        assert_eq!(out[1], "parent/child");
    }

    #[test]
    fn matching_respects_all_three_keys() {
        // Ranks 1 and 2 send on tags 7 and 8 of the world and of a dup;
        // rank 0 receives the six in another order, each by its own key.
        let out = Universe::run(3, |c| {
            let d = c.dup().unwrap();
            if c.rank() > 0 {
                for (comm, name) in [(&d, "dup"), (c, "world")] {
                    for tag in [8, 7] {
                        comm.send(0, tag, format!("{name} {} {tag}", c.rank())).unwrap();
                    }
                }
                return vec![];
            }
            let mut got = vec![];
            for (comm, name) in [(c, "world"), (&d, "dup")] {
                for tag in [7, 8] {
                    for src in [2, 1] {
                        let s: String = comm.recv(src, tag).unwrap();
                        got.push((s, format!("{name} {src} {tag}")));
                    }
                }
            }
            got
        });
        assert_eq!(out[0].len(), 8);
        for (got, want) in &out[0] {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn drained_keys_leave_the_inbox() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                for tag in 0..1000 {
                    c.send(1, tag, tag).unwrap();
                }
                c.barrier().unwrap();
                return 0;
            }
            c.barrier().unwrap();
            let inbox = &c.wiring.inboxes[c.my_world_rank()];
            assert_eq!(inbox.len(), 1000, "one queue a tag while undelivered");
            for tag in 0..1000 {
                assert_eq!(c.recv::<i32>(0, tag).unwrap(), tag);
            }
            inbox.len()
        });
        assert_eq!(out[1], 0, "a drained queue leaves the map");
    }

    #[test]
    fn universe_store_is_shared_within_a_universe_only() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        #[derive(Default)]
        struct Tally(AtomicUsize);
        let bump = |c: &crate::Communicator| {
            c.universe_store::<Tally>().0.fetch_add(1, Ordering::SeqCst);
        };
        // Two universes at once: each sees its own ranks' bumps, through
        // the world communicator, a dup and a shrink alike.
        let universe = |_| {
            Universe::run(3, |c| {
                bump(c);
                bump(&c.dup().unwrap());
                if c.rank() > 0 {
                    bump(&c.shrink(&[1, 2]).unwrap());
                }
                c.barrier().unwrap();
                c.universe_store::<Tally>().0.load(Ordering::SeqCst)
            })
        };
        let both: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2).map(|u| s.spawn(move || universe(u))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(both, vec![vec![8; 3], vec![8; 3]]);
    }

    #[test]
    fn split_forms_correct_groups() {
        let out = Universe::run(4, |c| {
            // Evens and odds, reverse-ordered by key.
            let color = (c.rank() % 2) as u64;
            let sub = c.split(color, -(c.rank() as i64)).unwrap();
            let members = sub.allgather(c.rank()).unwrap();
            (sub.rank(), sub.size(), members)
        });
        // Evens: ranks {0,2}, keys {0,-2} → order [2,0].
        assert_eq!(out[0], (1, 2, vec![2, 0]));
        assert_eq!(out[2], (0, 2, vec![2, 0]));
        // Odds: ranks {1,3}, keys {-1,-3} → order [3,1].
        assert_eq!(out[1], (1, 2, vec![3, 1]));
        assert_eq!(out[3], (0, 2, vec![3, 1]));
    }

    #[test]
    fn split_subcommunicator_collectives_work() {
        let out = Universe::run(4, |c| {
            let color = (c.rank() / 2) as u64;
            let sub = c.split(color, c.rank() as i64).unwrap();
            sub.allreduce(c.rank(), |a, b| a + b).unwrap()
        });
        assert_eq!(out, vec![1, 1, 5, 5]);
    }
}
