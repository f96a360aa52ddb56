//! Per-thread recorders, the global registry, and the probe mode.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::counter::{Counter, COUNTER_COUNT};
use crate::flight::{FlightRecord, FlightRing};
use crate::hist::{self, Hist, BUCKETS, HIST_COUNT};
use crate::trace::{self, TraceRecord};

// ---------------------------------------------------------------------------
// Probe mode
// ---------------------------------------------------------------------------

/// What the probe records and where it reports.
///
/// Counters are always on; the mode controls span timing and which sink
/// the top-level binaries drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ProbeMode {
    /// Spans disabled (one relaxed load per span site); counters only.
    Off = 0,
    /// Spans on; binaries print the per-rank summary/breakdown tables.
    Summary = 1,
    /// Spans on; binaries print one JSON object per rank (JSON lines).
    Json = 2,
    /// Spans on and every span also records a chrome://tracing event.
    Chrome = 3,
    /// Spans on; binaries dump the flight-recorder event tails per rank.
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

/// Sentinel meaning "not yet initialized from the environment".
const MODE_UNSET: u8 = u8::MAX;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

/// Read the `RSPARSE_PROBE` environment variable (unrecognized or unset
/// values mean [`ProbeMode::Off`]).
pub fn mode_from_env() -> ProbeMode {
    std::env::var("RSPARSE_PROBE")
        .ok()
        .and_then(|v| ProbeMode::parse(&v))
        .unwrap_or(ProbeMode::Off)
}

/// Current global probe mode, lazily initialized from `RSPARSE_PROBE` on
/// first use.
#[inline]
pub fn mode() -> ProbeMode {
    let raw = MODE.load(Ordering::Relaxed);
    if raw == MODE_UNSET {
        let m = mode_from_env();
        // Racing initializers compute the same value; either store wins.
        let _ = MODE.compare_exchange(MODE_UNSET, m as u8, Ordering::Relaxed, Ordering::Relaxed);
        m
    } else {
        ProbeMode::from_u8(raw)
    }
}

/// Set the global probe mode (overrides the environment).
pub fn set_mode(m: ProbeMode) {
    MODE.store(m as u8, Ordering::Relaxed);
}

/// Collection forced on independently of the mode (see [`set_forced`]).
static FORCED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Force span collection on regardless of the probe mode. The solve
/// ledger sets this when armed: a ledger needs span timings to join its
/// work models against even when no probe *sink* was requested. Purely
/// additive — it never turns an explicitly chosen mode off.
pub fn set_forced(on: bool) {
    FORCED.store(on, Ordering::Relaxed);
}

/// Whether span timing is currently active (`mode() != Off`, or forced
/// on by an armed solve ledger).
#[inline]
pub fn enabled() -> bool {
    // Single relaxed load on the hot path once initialized.
    let raw = MODE.load(Ordering::Relaxed);
    if raw == MODE_UNSET {
        return mode() != ProbeMode::Off || FORCED.load(Ordering::Relaxed);
    }
    raw != ProbeMode::Off as u8 || FORCED.load(Ordering::Relaxed)
}

#[inline]
pub(crate) fn chrome_enabled() -> bool {
    MODE.load(Ordering::Relaxed) == ProbeMode::Chrome as u8
}

// ---------------------------------------------------------------------------
// Epoch & chrome event budget
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Process-wide timestamp origin for chrome-trace `ts` fields.
pub(crate) fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Global cap on retained chrome events: a long solve in Chrome mode must
/// not grow memory without bound. ~0.5M events is plenty for a timeline.
const EVENT_BUDGET: u64 = 1 << 19;

static EVENTS_TOTAL: AtomicU64 = AtomicU64::new(0);

pub(crate) fn claim_event_slot() -> bool {
    EVENTS_TOTAL.fetch_add(1, Ordering::Relaxed) < EVENT_BUDGET
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// Accumulated statistics for one span name on one thread.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SpanStat {
    pub calls: u64,
    pub total_ns: u64,
    /// Time spent inside child spans (subtracted to get self time).
    pub child_ns: u64,
}

/// One complete chrome-trace event (`ph: "X"`).
#[derive(Debug, Clone)]
pub(crate) struct TraceEvent {
    pub name: &'static str,
    pub ts_us: u64,
    pub dur_us: u64,
    pub rank: Option<usize>,
    /// Process-unique recording-thread id (chrome `tid` lane).
    pub thread: u64,
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

const RANK_UNSET: usize = usize::MAX;

/// Monotonic id handed to each recorder so chrome traces can give every
/// thread its own `tid` lane (999 is reserved for unranked `pid`s).
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

/// Per-thread metric store. Shared with the global registry via `Arc` so
/// [`crate::aggregate`] can read it after the thread exits.
pub(crate) struct Recorder {
    rank: AtomicUsize,
    /// Stable chrome-trace `tid` for this recording thread.
    thread: u64,
    counters: [AtomicU64; COUNTER_COUNT],
    pub(crate) spans: Mutex<BTreeMap<&'static str, SpanStat>>,
    pub(crate) events: Mutex<Vec<TraceEvent>>,
    /// Chrome events dropped after the global budget was exhausted.
    pub(crate) dropped_events: AtomicU64,
    /// Flight-recorder ring (always-on black box; see [`crate::flight`]).
    flight: Mutex<FlightRing>,
    /// Per-peer send accounting (world rank → messages/bytes).
    pub(crate) peer_sends: Mutex<BTreeMap<usize, PeerStat>>,
    /// Per-peer receive accounting (world rank → messages/bytes).
    pub(crate) peer_recvs: Mutex<BTreeMap<usize, PeerStat>>,
    /// Free-form annotations (key → latest value), e.g. the sparse format
    /// an operator plan settled on. Last write wins.
    pub(crate) notes: Mutex<BTreeMap<&'static str, String>>,
    /// Log2 latency histogram buckets, one row per [`Hist`] family.
    hist_counts: [[AtomicU64; BUCKETS]; HIST_COUNT],
    /// Sum of recorded nanoseconds per [`Hist`] family (Prometheus `_sum`).
    hist_sums: [AtomicU64; HIST_COUNT],
    /// Causal trace records (see [`crate::trace`]).
    pub(crate) trace: Mutex<Vec<TraceRecord>>,
    /// Trace records dropped after the global budget was exhausted.
    pub(crate) dropped_trace: AtomicU64,
    /// Static work/traffic models registered at setup time (kernel name
    /// → model; see [`crate::model`]). Last registration wins.
    models: Mutex<BTreeMap<&'static str, crate::model::KernelModel>>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            rank: AtomicUsize::new(RANK_UNSET),
            thread: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: Mutex::new(BTreeMap::new()),
            events: Mutex::new(Vec::new()),
            dropped_events: AtomicU64::new(0),
            flight: Mutex::new(FlightRing::default()),
            peer_sends: Mutex::new(BTreeMap::new()),
            peer_recvs: Mutex::new(BTreeMap::new()),
            notes: Mutex::new(BTreeMap::new()),
            hist_counts: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            hist_sums: std::array::from_fn(|_| AtomicU64::new(0)),
            trace: Mutex::new(Vec::new()),
            dropped_trace: AtomicU64::new(0),
            models: Mutex::new(BTreeMap::new()),
        }
    }

    pub(crate) fn rank(&self) -> Option<usize> {
        match self.rank.load(Ordering::Relaxed) {
            RANK_UNSET => None,
            r => Some(r),
        }
    }

    #[inline]
    pub(crate) fn add_counter(&self, c: Counter, v: u64) {
        self.counters[c.index()].fetch_add(v, Ordering::Relaxed);
    }

    pub(crate) fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()].load(Ordering::Relaxed)
    }

    pub(crate) fn record_span(&self, name: &'static str, dur_ns: u64, child_ns: u64) {
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        let stat = spans.entry(name).or_default();
        stat.calls += 1;
        stat.total_ns += dur_ns;
        stat.child_ns += child_ns;
    }

    pub(crate) fn record_event(&self, name: &'static str, ts_us: u64, dur_us: u64) {
        if claim_event_slot() {
            let mut events = self.events.lock().unwrap_or_else(|e| e.into_inner());
            events.push(TraceEvent { name, ts_us, dur_us, rank: self.rank(), thread: self.thread });
        } else {
            self.dropped_events.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn flight_push(&self, rec: FlightRecord) {
        self.flight.lock().unwrap_or_else(|e| e.into_inner()).push(rec);
    }

    /// Chronological snapshot of the flight ring plus the total number of
    /// records ever pushed.
    pub(crate) fn flight_tail(&self) -> (Vec<FlightRecord>, u64) {
        let ring = self.flight.lock().unwrap_or_else(|e| e.into_inner());
        (ring.tail(), ring.total())
    }

    pub(crate) fn peer_send(&self, peer: usize, bytes: u64) {
        let mut map = self.peer_sends.lock().unwrap_or_else(|e| e.into_inner());
        let stat = map.entry(peer).or_default();
        stat.msgs += 1;
        stat.bytes += bytes;
    }

    pub(crate) fn peer_recv(&self, peer: usize, bytes: u64) {
        let mut map = self.peer_recvs.lock().unwrap_or_else(|e| e.into_inner());
        let stat = map.entry(peer).or_default();
        stat.msgs += 1;
        stat.bytes += bytes;
    }

    pub(crate) fn set_note(&self, key: &'static str, value: String) {
        self.notes.lock().unwrap_or_else(|e| e.into_inner()).insert(key, value);
    }

    /// Record one latency sample: one bucket increment, one sum add.
    #[inline]
    pub(crate) fn record_hist(&self, h: Hist, ns: u64) {
        self.hist_counts[h.index()][hist::bucket(ns)].fetch_add(1, Ordering::Relaxed);
        self.hist_sums[h.index()].fetch_add(ns, Ordering::Relaxed);
    }

    /// Plain-integer snapshot of one histogram family's buckets and sum.
    pub(crate) fn hist_snapshot(&self, h: Hist) -> ([u64; BUCKETS], u64) {
        let buckets =
            std::array::from_fn(|i| self.hist_counts[h.index()][i].load(Ordering::Relaxed));
        (buckets, self.hist_sums[h.index()].load(Ordering::Relaxed))
    }

    /// Absorb one solve's staged trace batch under a single lock. The
    /// staging `Vec` is drained but keeps its capacity for the next
    /// solve; records beyond the per-recorder budget count as dropped.
    pub(crate) fn trace_extend(&self, staged: &mut Vec<TraceRecord>, dropped: u64) {
        let mut trace = self.trace.lock().unwrap_or_else(|e| e.into_inner());
        let room = trace::TRACE_BUDGET.saturating_sub(trace.len());
        let take = room.min(staged.len());
        let overflow = (staged.len() - take) as u64 + dropped;
        trace.extend(staged.drain(..take));
        staged.clear();
        if overflow > 0 {
            self.dropped_trace.fetch_add(overflow, Ordering::Relaxed);
        }
    }

    /// Snapshot of every retained trace record on this recorder.
    pub(crate) fn trace_snapshot(&self) -> Vec<TraceRecord> {
        self.trace.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Register (or replace) a kernel work model.
    pub(crate) fn set_model(&self, name: &'static str, m: crate::model::KernelModel) {
        self.models.lock().unwrap_or_else(|e| e.into_inner()).insert(name, m);
    }

    /// Snapshot of the registered kernel models.
    pub(crate) fn models_snapshot(&self) -> BTreeMap<&'static str, crate::model::KernelModel> {
        self.models.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn clear(&self) {
        self.rank.store(RANK_UNSET, Ordering::Relaxed);
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.events.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.dropped_events.store(0, Ordering::Relaxed);
        self.flight.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.peer_sends.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.peer_recvs.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.notes.lock().unwrap_or_else(|e| e.into_inner()).clear();
        for row in &self.hist_counts {
            for b in row {
                b.store(0, Ordering::Relaxed);
            }
        }
        for s in &self.hist_sums {
            s.store(0, Ordering::Relaxed);
        }
        self.trace.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.dropped_trace.store(0, Ordering::Relaxed);
        self.models.lock().unwrap_or_else(|e| e.into_inner()).clear();
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
    pub(crate) static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

#[inline]
pub(crate) fn with_local<T>(f: impl FnOnce(&Recorder) -> T) -> T {
    LOCAL.with(|r| f(r))
}

/// Clone the current thread's recorder handle.
pub(crate) fn local_arc() -> Arc<Recorder> {
    LOCAL.with(Arc::clone)
}

/// Tag the current thread's recorder with an SPMD rank. Called by the
/// `rcomm` launcher on every rank thread; reports then group by rank.
pub fn set_rank(rank: usize) {
    with_local(|r| r.rank.store(rank, Ordering::Relaxed));
}

/// Attach a free-form annotation to the current thread's recorder. Notes
/// surface in [`crate::RankReport::notes`], the summary sink, and
/// postmortems; e.g. `note("batch", "nrhs=8")` when a solve takes the
/// batched path. Last write per key wins.
pub fn note(key: &'static str, value: impl Into<String>) {
    let value = value.into();
    with_local(|r| r.set_note(key, value));
}

/// Snapshot every live recorder (for [`crate::aggregate`]).
pub(crate) fn all_recorders() -> Vec<Arc<Recorder>> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Zero all recorded counters, spans, histograms, chrome events and trace
/// records in place, and reset the event budgets. Recorders stay
/// registered (thread-local handles remain valid); this is a measurement
/// reset, not a teardown.
pub fn reset() {
    for r in all_recorders() {
        r.clear();
    }
    EVENTS_TOTAL.store(0, Ordering::Relaxed);
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
