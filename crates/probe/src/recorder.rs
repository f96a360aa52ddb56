//! Per-thread recorders, the global registry, and the probe mode.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::counter::{Counter, COUNTER_COUNT};
use crate::event::{Event, EventKind, EventLog};
use crate::hist::{self, Hist, BUCKETS, HIST_COUNT};

// ---------------------------------------------------------------------------
// Probe mode
// ---------------------------------------------------------------------------

/// Which sink the top-level binaries drive. Counters and the black-box
/// event log are always on; any mode but `Off` also asks for span timing
/// ([`Level::Spans`]; `Chrome` for [`Level::Trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ProbeMode {
    /// Spans disabled (one relaxed load per span site); counters only.
    Off = 0,
    /// Spans on; binaries print the per-rank summary/breakdown tables.
    Summary = 1,
    /// Spans on; binaries print one JSON object per rank (JSON lines).
    Json = 2,
    /// Spans on and logged; binaries write the chrome://tracing document.
    Chrome = 3,
    /// Spans on; binaries dump each rank's black-box event tail.
    Flight = 4,
}

impl ProbeMode {
    /// Parse a mode from an env-var or `set("probe", ...)` value.
    /// Case-insensitive; returns `None` for unrecognized spellings.
    pub fn parse(s: &str) -> Option<ProbeMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "off" | "0" | "none" | "false" => Some(ProbeMode::Off),
            "summary" | "table" | "1" | "on" | "true" => Some(ProbeMode::Summary),
            "json" | "jsonl" => Some(ProbeMode::Json),
            "chrome" | "trace" => Some(ProbeMode::Chrome),
            "flight" | "blackbox" => Some(ProbeMode::Flight),
            _ => None,
        }
    }

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ProbeMode::Off => "off",
            ProbeMode::Summary => "summary",
            ProbeMode::Json => "json",
            ProbeMode::Chrome => "chrome",
            ProbeMode::Flight => "flight",
        }
    }

    fn from_u8(v: u8) -> ProbeMode {
        match v {
            1 => ProbeMode::Summary,
            2 => ProbeMode::Json,
            3 => ProbeMode::Chrome,
            4 => ProbeMode::Flight,
            _ => ProbeMode::Off,
        }
    }
}

/// How much the probe records, process-wide. Derived from what was asked
/// for — never set directly: a probe mode other than `off` or a solve
/// ledger destination asks for [`Level::Spans`]; `RSPARSE_TRACE` /
/// [`crate::trace::set_armed`] or [`ProbeMode::Chrome`] ask for
/// [`Level::Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Counters, the peer matrix and the black-box events (comm,
    /// iterations, verdicts, faults, attempts). A span site is one
    /// relaxed load and emits nothing.
    Counters = 0,
    /// Spans are timed and folded into the span table and the latency
    /// histograms (two clock reads a span).
    Spans = 1,
    /// Spans, solve begin/end, send sequences and receive intervals also
    /// go to the per-thread log, enlarged to
    /// [`crate::TRACE_CAPACITY`]: the chrome trace and the
    /// critical path become renderable.
    Trace = 2,
}

/// The one process-wide switch. Bits 0–2 hold the [`ProbeMode`], bit 3
/// "a trace was asked for", bit 4 "a ledger destination is set", and
/// bits 6–7 the [`Level`] those three imply, re-derived on every change
/// so a hot-path check is one relaxed load and one compare.
static STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);

/// Sentinel meaning "not yet initialized from the environment".
const STATE_UNSET: u8 = u8::MAX;
pub(crate) const MODE_BITS: u8 = 0b111;
pub(crate) const TRACE_ASKED: u8 = 1 << 3;
pub(crate) const LEDGER_ASKED: u8 = 1 << 4;
const ASKED_BITS: u8 = MODE_BITS | TRACE_ASKED | LEDGER_ASKED;
const LEVEL_SHIFT: u32 = 6;

fn derive(asked: u8) -> u8 {
    let level = if asked & TRACE_ASKED != 0 || asked & MODE_BITS == ProbeMode::Chrome as u8 {
        Level::Trace
    } else if asked != 0 {
        Level::Spans
    } else {
        Level::Counters
    };
    asked | (level as u8) << LEVEL_SHIFT
}

/// Resolve `RSPARSE_PROBE`, `RSPARSE_TRACE` and `RSPARSE_LEDGER` — once
/// per process, on the first read of the switch. Unrecognized or unset
/// values ask for nothing.
#[cold]
fn state_from_env() -> u8 {
    let var = |name| std::env::var(name).ok();
    let mut asked = var("RSPARSE_PROBE").and_then(|v| ProbeMode::parse(&v)).map_or(0, |m| m as u8);
    if var("RSPARSE_TRACE").and_then(|v| crate::trace::parse_switch(&v)) == Some(true) {
        asked |= TRACE_ASKED;
    }
    if crate::ledger::armed().is_some() {
        asked |= LEDGER_ASKED;
    }
    let state = derive(asked);
    // Racing initializers compute the same value; either store wins.
    match STATE.compare_exchange(STATE_UNSET, state, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => state,
        Err(current) => current,
    }
}

#[inline]
pub(crate) fn state() -> u8 {
    match STATE.load(Ordering::Relaxed) {
        STATE_UNSET => state_from_env(),
        raw => raw,
    }
}

/// Replace the `field` bits of what was asked for with `value` and
/// re-derive the level (overrides the environment for that field).
pub(crate) fn ask(field: u8, value: u8) {
    state();
    let _ = STATE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |raw| {
        Some(derive((raw & ASKED_BITS & !field) | value))
    });
}

/// Current probe mode, lazily initialized from `RSPARSE_PROBE`.
#[inline]
pub fn mode() -> ProbeMode {
    ProbeMode::from_u8(state() & MODE_BITS)
}

/// Set the probe mode (overrides the environment).
pub fn set_mode(m: ProbeMode) {
    ask(MODE_BITS, m as u8);
}

/// The current [`Level`]: one relaxed load once initialized.
#[inline]
pub fn level() -> Level {
    match state() >> LEVEL_SHIFT {
        0 => Level::Counters,
        1 => Level::Spans,
        _ => Level::Trace,
    }
}

/// Whether span timing is active: [`level`] is [`Level::Spans`] or above.
#[inline]
pub fn enabled() -> bool {
    state() >> LEVEL_SHIFT != 0
}

// ---------------------------------------------------------------------------
// Epoch
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Process-wide origin of every event timestamp.
pub(crate) fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// Accumulated statistics for one span name on one thread.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub(crate) struct SpanStat {
    pub calls: u64,
    pub total_ns: u64,
    /// Time spent inside child spans (subtracted to get self time).
    pub child_ns: u64,
}

/// Messages and bytes exchanged with one peer (world rank), mirroring the
/// byte/message counters exactly so the rank×rank communication matrix
/// row/column totals reconcile against them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PeerStat {
    /// Messages counted (one per `send`/`recv` completion).
    pub msgs: u64,
    /// Bytes counted (element size, as the byte counters count).
    pub bytes: u64,
}

impl PeerStat {
    fn count(&mut self, bytes: u64) {
        self.msgs += 1;
        self.bytes += bytes;
    }
}

/// What [`crate::emit_since`] writes, under one lock: the thread's event
/// log and the folds of the same events.
#[derive(Default)]
pub(crate) struct Local {
    /// SPMD rank the thread was tagged with ([`set_rank`]).
    rank: Option<usize>,
    pub(crate) log: EventLog,
    /// `(solve, t1_ns)` of the last `Begin` or `Iter` event.
    last_tick: Option<(u64, u64)>,
    pub(crate) folds: Folds,
}

/// Everything a report holds but the counters — a thread's spans, per-peer
/// sends and receives (by world rank), histograms, notes and kernel models;
/// recorders sharing a rank combine by [`Folds::merge`].
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Folds {
    pub(crate) spans: BTreeMap<&'static str, SpanStat>,
    pub(crate) peer_sends: BTreeMap<usize, PeerStat>,
    pub(crate) peer_recvs: BTreeMap<usize, PeerStat>,
    pub(crate) hists: Hists,
    /// Free-form annotations (key → latest value), e.g. the batch width a
    /// solve ran. Last write wins.
    pub(crate) notes: BTreeMap<&'static str, String>,
    /// Static work/traffic models registered at setup time (kernel name
    /// → model; see [`crate::model`]). Last registration wins.
    pub(crate) models: BTreeMap<&'static str, crate::model::KernelModel>,
}

impl Folds {
    /// Add `other` in: spans, peers and histograms sum; notes and models are
    /// last-wins (a rank's repeated setups re-register its operator's model).
    pub(crate) fn merge(&mut self, other: &Folds) {
        for (&name, s) in &other.spans {
            let slot = self.spans.entry(name).or_default();
            slot.calls += s.calls;
            slot.total_ns += s.total_ns;
            slot.child_ns += s.child_ns;
        }
        for (mine, theirs) in
            [(&mut self.peer_sends, &other.peer_sends), (&mut self.peer_recvs, &other.peer_recvs)]
        {
            for (&peer, s) in theirs {
                let slot = mine.entry(peer).or_default();
                slot.msgs += s.msgs;
                slot.bytes += s.bytes;
            }
        }
        let (counts, sums) = (other.hists.counts.iter().flatten(), other.hists.sums.iter());
        self.hists.counts.iter_mut().flatten().zip(counts).for_each(|(a, b)| *a += b);
        self.hists.sums.iter_mut().zip(sums).for_each(|(a, b)| *a += b);
        self.notes.extend(other.notes.iter().map(|(&k, v)| (k, v.clone())));
        self.models.extend(&other.models);
    }
}

/// Log2 latency buckets and nanosecond sums, one row per [`Hist`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Hists {
    pub(crate) counts: [[u64; BUCKETS]; HIST_COUNT],
    pub(crate) sums: [u64; HIST_COUNT],
}

impl Default for Hists {
    fn default() -> Hists {
        Hists { counts: [[0; BUCKETS]; HIST_COUNT], sums: [0; HIST_COUNT] }
    }
}

impl Hists {
    pub(crate) fn sample(&mut self, h: Hist, ns: u64) {
        self.counts[h.index()][hist::bucket(ns)] += 1;
        self.sums[h.index()] += ns;
    }
}

impl Local {
    /// Fold one committed event into the aggregates. `child_ns` is the
    /// popped child-time frame when the event closes a guard's scope.
    #[inline]
    pub(crate) fn fold(&mut self, ev: &Event, child_ns: Option<u64>, level: Level) {
        match ev.kind {
            EventKind::Send { peer, bytes, .. } => {
                self.folds.peer_sends.entry(peer).or_default().count(bytes)
            }
            EventKind::Recv { peer, bytes, .. } => {
                self.folds.peer_recvs.entry(peer).or_default().count(bytes)
            }
            EventKind::Span { name } | EventKind::Collective { op: name, .. } => {
                let Some(child_ns) = child_ns else { return };
                let dur_ns = ev.t1_ns - ev.t0_ns;
                let stat = self.folds.spans.entry(name).or_default();
                stat.calls += 1;
                stat.total_ns += dur_ns;
                stat.child_ns += child_ns;
                if let Some(h) = Hist::of_span(name) {
                    self.folds.hists.sample(h, dur_ns);
                }
            }
            EventKind::Begin | EventKind::Iter { .. } if level >= Level::Spans => {
                let last = self.last_tick.replace((ev.solve, ev.t1_ns));
                if let (Some((solve, tick)), EventKind::Iter { .. }) = (last, ev.kind) {
                    if solve == ev.solve {
                        self.folds.hists.sample(Hist::IterTime, ev.t1_ns - tick);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Monotonic id handed to each recorder so chrome traces can give every
/// thread its own `tid` lane (999 is reserved for unranked `pid`s).
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

/// Per-thread metric store. Shared with the global registry via `Arc` so
/// [`crate::aggregate`] can read it after the thread exits.
pub(crate) struct Recorder {
    /// Stable chrome-trace `tid` for this recording thread.
    pub(crate) thread: u64,
    counters: [AtomicU64; COUNTER_COUNT],
    local: Mutex<Local>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            thread: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            local: Mutex::new(Local::default()),
        }
    }

    pub(crate) fn rank(&self) -> Option<usize> {
        self.local().rank
    }

    #[inline]
    pub(crate) fn add_counter(&self, c: Counter, v: u64) {
        self.counters[c.index()].fetch_add(v, Ordering::Relaxed);
    }

    pub(crate) fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()].load(Ordering::Relaxed)
    }

    /// Everything but the counters. The owning thread takes this lock
    /// once per event; renderers take it to snapshot.
    #[inline]
    pub(crate) fn local(&self) -> MutexGuard<'_, Local> {
        self.local.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn clear(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        let mut local = self.local();
        let mut log = std::mem::take(&mut local.log);
        log.clear();
        *local = Local { log, ..Local::default() };
    }
}

// ---------------------------------------------------------------------------
// Registry and thread-locals
// ---------------------------------------------------------------------------

static REGISTRY: Mutex<Vec<Arc<Recorder>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Arc<Recorder> = {
        let r = Arc::new(Recorder::new());
        REGISTRY
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&r));
        r
    };

    /// Stack of child-time accumulators for currently-open spans on this
    /// thread. Each open span pushes a 0 frame; a closing child adds its
    /// duration to the top frame so the parent can compute self time.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A span guard opened: start its child-time accumulator.
pub(crate) fn push_frame() {
    STACK.with(|s| s.borrow_mut().push(0));
}

/// The innermost open scope closed after `dur_ns`: pop its accumulator
/// (returned — the time it spent in child scopes) and charge its own
/// duration to the parent frame, if any.
pub(crate) fn pop_frame(dur_ns: u64) -> u64 {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let mine = stack.pop().unwrap_or(0);
        if let Some(parent) = stack.last_mut() {
            *parent += dur_ns;
        }
        mine
    })
}

/// Run `f` on the current thread's recorder.
#[inline]
pub(crate) fn with_local<T>(f: impl FnOnce(&Arc<Recorder>) -> T) -> T {
    LOCAL.with(f)
}

/// Tag the current thread's recorder with an SPMD rank. Called by the
/// `rcomm` launcher on every rank thread; reports then group by rank.
pub fn set_rank(rank: usize) {
    with_local(|r| r.local().rank = Some(rank));
}

/// Attach a free-form annotation to the current thread's recorder. Notes
/// surface in [`crate::RankReport::note`], the summary sink, and
/// postmortems; e.g. `note("batch", "nrhs=8")` when a solve takes the
/// batched path. Last write per key wins.
pub fn note(key: &'static str, value: impl Into<String>) {
    let value = value.into();
    with_local(|r| r.local().folds.notes.insert(key, value));
}

/// Snapshot every registered recorder.
pub(crate) fn all_recorders() -> Vec<Arc<Recorder>> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Every registered recorder grouped by rank: ranked threads first, in
/// rank order (threads sharing a rank — repeated launches — together),
/// then the untagged threads, if any.
pub(crate) fn by_rank() -> Vec<(Option<usize>, Vec<Arc<Recorder>>)> {
    let mut groups: BTreeMap<Option<usize>, Vec<Arc<Recorder>>> = BTreeMap::new();
    for r in all_recorders() {
        groups.entry(r.rank()).or_default().push(r);
    }
    // `None` sorts first; the contract puts it last.
    let unranked = groups.remove(&None);
    groups.into_iter().chain(unranked.map(|rs| (None, rs))).collect()
}

/// Zero all recorded counters, spans, histograms and event logs in place.
/// Recorders of live threads stay registered (thread-local handles remain
/// valid) and keep their log's allocation; recorders whose thread has
/// exited are dropped. This is a measurement reset, not a teardown.
pub fn reset() {
    let mut registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    registry.retain(|r| Arc::strong_count(r) > 1);
    for r in registry.iter() {
        r.clear();
    }
    RESET_EPOCH.fetch_add(1, Ordering::Relaxed);
}

/// Number of [`reset`] calls so far. Session caches fold this into their
/// fingerprints: a reset wipes the registered kernel work models, so any
/// solve after it must run cold setup again to re-register them — a
/// warm solve would otherwise assemble a ledger with no kernel rows.
pub fn reset_epoch() -> u64 {
    RESET_EPOCH.load(Ordering::Relaxed)
}

static RESET_EPOCH: AtomicU64 = AtomicU64::new(0);
