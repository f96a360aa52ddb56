//! Report assembly and output sinks: per-rank summary tables, the
//! Table-1-style setup/solve/port-overhead breakdown, JSON lines, and
//! chrome://tracing export.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::counter::{Counter, COUNTER_COUNT};
use crate::flight;
use crate::hist::{self, Hist, HistSummary, BUCKETS, HIST_COUNT};
use crate::json;
use crate::model::{KernelEfficiency, KernelModel, Roofline, TimeBase, WorkUnit};
use crate::recorder::{self, PeerStat, Recorder};

/// Aggregated statistics for one span name (see [`RankReport::spans`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span name as given to [`crate::span!`].
    pub name: &'static str,
    /// Number of times the span closed.
    pub calls: u64,
    /// Total (inclusive) wall-clock seconds.
    pub total_s: f64,
    /// Self (exclusive) wall-clock seconds: total minus time spent in
    /// child spans.
    pub self_s: f64,
}

/// A snapshot of one rank's counters and spans (or of the current thread,
/// via [`local_report`]).
#[derive(Debug, Clone)]
pub struct RankReport {
    /// SPMD rank, if the recording thread was tagged via
    /// [`crate::set_rank`]; `None` for untagged threads.
    pub rank: Option<usize>,
    counters: [u64; COUNTER_COUNT],
    /// Spans sorted by name, so rendered reports diff cleanly between
    /// runs (wall-clock ordering varies run to run).
    pub spans: Vec<SpanSummary>,
    /// Per-peer send accounting (world rank → messages/bytes), mirroring
    /// `SendsPosted`/`BytesSent` exactly.
    pub peer_sends: BTreeMap<usize, PeerStat>,
    /// Per-peer receive accounting (world rank → messages/bytes),
    /// mirroring `RecvsCompleted`/`BytesReceived` exactly.
    pub peer_recvs: BTreeMap<usize, PeerStat>,
    /// Free-form annotations recorded via [`crate::note`] (key → latest
    /// value), e.g. `"batch" → "nrhs=8"`.
    pub notes: BTreeMap<&'static str, String>,
    /// Merged log2 latency buckets, one row per [`Hist`] family.
    hist_counts: [[u64; BUCKETS]; HIST_COUNT],
    /// Total recorded nanoseconds per [`Hist`] family.
    hist_sums: [u64; HIST_COUNT],
    /// Static kernel work models registered via [`crate::model::register`]
    /// (kernel name → model; merged last-wins across recorders).
    pub models: BTreeMap<&'static str, KernelModel>,
}

impl RankReport {
    /// Read one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Look up a span summary by name.
    pub fn span(&self, name: &str) -> Option<&SpanSummary> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Look up a note recorded via [`crate::note`].
    pub fn note(&self, key: &str) -> Option<&str> {
        self.notes.get(key).map(String::as_str)
    }

    /// Total self-seconds of all `port:*` spans — the component-layer
    /// overhead this rank spent crossing the CCA port boundary.
    pub fn port_self_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with("port:"))
            .map(|s| s.self_s)
            .sum()
    }

    /// Quantile summary of one latency histogram family.
    pub fn hist(&self, h: Hist) -> HistSummary {
        hist::summarize(&self.hist_counts[h as usize], self.hist_sums[h as usize])
    }

    /// Raw merged buckets and nanosecond sum of one histogram family
    /// (what the Prometheus exporter emits as cumulative `le` buckets).
    pub fn hist_buckets(&self, h: Hist) -> ([u64; BUCKETS], u64) {
        (self.hist_counts[h as usize], self.hist_sums[h as usize])
    }

    /// Join every registered kernel model with this rank's measurements:
    /// units executed (span calls or a counter, per the model), measured
    /// seconds (span total or self time), modelled flops/bytes and the
    /// derived GF/s, GB/s, arithmetic intensity and — when a roofline is
    /// supplied — percentage of attainable bandwidth. Kernels with no
    /// recorded units are skipped.
    pub fn kernel_efficiency(&self, roofline: Option<&Roofline>) -> Vec<KernelEfficiency> {
        let mut rows = Vec::new();
        for (&name, model) in &self.models {
            let units = match model.unit {
                WorkUnit::SpanCalls => self.span(model.span).map(|s| s.calls).unwrap_or(0),
                WorkUnit::Counter(c) => self.counter(c),
            };
            if units == 0 {
                continue;
            }
            let seconds = self
                .span(model.span)
                .map(|s| match model.time {
                    TimeBase::Total => s.total_s,
                    TimeBase::SelfTime => s.self_s,
                })
                .unwrap_or(0.0);
            let flops = units * model.flops;
            let bytes = units * model.bytes;
            let (gflops, gbs) = if seconds > 0.0 {
                (flops as f64 / seconds / 1e9, bytes as f64 / seconds / 1e9)
            } else {
                (0.0, 0.0)
            };
            let ai = if bytes > 0 { flops as f64 / bytes as f64 } else { 0.0 };
            let pct_of_roofline = roofline
                .filter(|r| r.copy_gbs > 0.0)
                .map(|r| 100.0 * gbs / r.copy_gbs);
            rows.push(KernelEfficiency {
                name,
                span: model.span,
                units,
                seconds,
                flops,
                bytes,
                gflops,
                gbs,
                ai,
                pct_of_roofline,
                nrhs: model.nrhs,
            });
        }
        rows
    }

    /// Nothing recorded at all: a recorder whose thread only timed a
    /// histogram sample, exchanged messages, left a note or registered a
    /// model still belongs in [`aggregate`]'s output.
    fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.iter().all(|&c| c == 0)
            && self.hist_counts.iter().flatten().all(|&c| c == 0)
            && self.peer_sends.is_empty()
            && self.peer_recvs.is_empty()
            && self.notes.is_empty()
            && self.models.is_empty()
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        rank: Option<usize>,
        counters: [u64; COUNTER_COUNT],
        spans: Vec<SpanSummary>,
        peer_sends: BTreeMap<usize, PeerStat>,
        peer_recvs: BTreeMap<usize, PeerStat>,
        notes: BTreeMap<&'static str, String>,
        hist_counts: [[u64; BUCKETS]; HIST_COUNT],
        hist_sums: [u64; HIST_COUNT],
        models: BTreeMap<&'static str, KernelModel>,
    ) -> RankReport {
        let mut report = RankReport {
            rank,
            counters,
            spans,
            peer_sends,
            peer_recvs,
            notes,
            hist_counts,
            hist_sums,
            models,
        };
        // Name order, not time order: output must be stable across runs.
        report.spans.sort_by(|a, b| a.name.cmp(b.name));
        report
    }
}

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn snapshot(recorders: &[std::sync::Arc<Recorder>], rank: Option<usize>) -> RankReport {
    let mut counters = [0u64; COUNTER_COUNT];
    let mut spans: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    let mut peer_sends: BTreeMap<usize, PeerStat> = BTreeMap::new();
    let mut peer_recvs: BTreeMap<usize, PeerStat> = BTreeMap::new();
    let mut notes: BTreeMap<&'static str, String> = BTreeMap::new();
    let mut hist_counts = [[0u64; BUCKETS]; HIST_COUNT];
    let mut hist_sums = [0u64; HIST_COUNT];
    let mut models: BTreeMap<&'static str, KernelModel> = BTreeMap::new();
    for r in recorders {
        for c in Counter::ALL {
            counters[c as usize] += r.counter(c);
        }
        let local = r.local();
        for (name, stat) in local.spans.iter() {
            let slot = spans.entry(name).or_insert((0, 0, 0));
            slot.0 += stat.calls;
            slot.1 += stat.total_ns;
            slot.2 += stat.child_ns;
        }
        for (map, src) in
            [(&mut peer_sends, &local.peer_sends), (&mut peer_recvs, &local.peer_recvs)]
        {
            for (&peer, stat) in src.iter() {
                let slot = map.entry(peer).or_default();
                slot.msgs += stat.msgs;
                slot.bytes += stat.bytes;
            }
        }
        for h in hist::ALL {
            let counts = local.hists.counts[h as usize];
            for (slot, b) in hist_counts[h as usize].iter_mut().zip(counts) {
                *slot += b;
            }
            hist_sums[h as usize] += local.hists.sums[h as usize];
        }
        for (&key, value) in local.notes.iter() {
            notes.insert(key, value.clone());
        }
        // Like notes: last recorder wins per kernel (repeated setups on
        // one rank re-register the model for the operator now in use).
        models.extend(local.models.iter().map(|(&name, &m)| (name, m)));
    }
    let spans = spans
        .into_iter()
        .map(|(name, (calls, total_ns, child_ns))| SpanSummary {
            name,
            calls,
            total_s: ns_to_s(total_ns),
            self_s: ns_to_s(total_ns.saturating_sub(child_ns)),
        })
        .collect();
    RankReport::from_parts(
        rank, counters, spans, peer_sends, peer_recvs, notes, hist_counts, hist_sums, models,
    )
}

/// Snapshot the current thread's recorder only. This is what tests use
/// inside SPMD rank closures: each rank thread sees exactly its own
/// counters and spans.
pub fn local_report() -> RankReport {
    recorder::with_local(|arc| snapshot(std::slice::from_ref(arc), arc.rank()))
}

/// Merge every recorder created since the last [`crate::reset`] into
/// per-rank reports: ranked threads first (sorted by rank, recorders
/// sharing a rank combined), then at most one report for untagged
/// threads. Empty recorders are skipped.
pub fn aggregate() -> Vec<RankReport> {
    recorder::by_rank()
        .into_iter()
        .map(|(rank, recorders)| snapshot(&recorders, rank))
        .filter(|report| !report.is_empty())
        .collect()
}

fn rank_label(rank: Option<usize>) -> String {
    match rank {
        Some(r) => format!("rank {r}"),
        None => "unranked".to_string(),
    }
}

/// Render the full per-rank summary: every nonzero counter and every span
/// (calls, total seconds, self seconds), one block per rank.
pub fn render_summary(reports: &[RankReport]) -> String {
    let mut out = String::new();
    if reports.is_empty() {
        return "probe: nothing recorded\n".to_string();
    }
    let roofline = crate::model::roofline();
    for rep in reports {
        let _ = writeln!(out, "== probe summary: {} ==", rank_label(rep.rank));
        if !rep.notes.is_empty() {
            let _ = writeln!(out, "  notes:");
            for (key, value) in &rep.notes {
                let _ = writeln!(out, "    {key:<22} {value}");
            }
        }
        let mut nonzero: Vec<Counter> = Counter::ALL
            .into_iter()
            .filter(|&c| rep.counter(c) > 0)
            .collect();
        // Name order, not declaration order: stable diffs between runs.
        nonzero.sort_by_key(|c| c.name());
        if !nonzero.is_empty() {
            let _ = writeln!(out, "  counters:");
            for c in nonzero {
                let _ = writeln!(out, "    {:<22} {:>12}", c.name(), rep.counter(c));
            }
        }
        if !rep.spans.is_empty() {
            let _ = writeln!(
                out,
                "  spans: {:<22} {:>8} {:>12} {:>12}",
                "name", "calls", "total (s)", "self (s)"
            );
            for s in &rep.spans {
                let _ = writeln!(
                    out,
                    "         {:<22} {:>8} {:>12.6} {:>12.6}",
                    s.name, s.calls, s.total_s, s.self_s
                );
            }
        }
        let live: Vec<(Hist, HistSummary)> = hist::ALL
            .into_iter()
            .map(|h| (h, rep.hist(h)))
            .filter(|(_, s)| s.count > 0)
            .collect();
        if !live.is_empty() {
            let _ = writeln!(
                out,
                "  hists: {:<22} {:>8} {:>11} {:>11} {:>11} {:>11}",
                "name", "count", "p50 (s)", "p90 (s)", "p99 (s)", "max (s)"
            );
            for (h, s) in live {
                let _ = writeln!(
                    out,
                    "         {:<22} {:>8} {:>11.3e} {:>11.3e} {:>11.3e} {:>11.3e}",
                    h.name(),
                    s.count,
                    s.p50_s,
                    s.p90_s,
                    s.p99_s,
                    s.max_s
                );
            }
        }
        let eff = rep.kernel_efficiency(roofline.as_ref());
        if !eff.is_empty() {
            let _ = writeln!(
                out,
                "  kernels: {:<18} {:>8} {:>11} {:>8} {:>8} {:>7} {:>7}",
                "name", "units", "seconds", "GF/s", "GB/s", "AI", "%roof"
            );
            for e in &eff {
                let pct = match e.pct_of_roofline {
                    Some(p) => format!("{p:>6.1}%"),
                    None => "-".to_string(),
                };
                let _ = writeln!(
                    out,
                    "           {:<18} {:>8} {:>11.6} {:>8.3} {:>8.3} {:>7.3} {:>7}",
                    e.name, e.units, e.seconds, e.gflops, e.gbs, e.ai, pct
                );
            }
            if let Some(r) = &roofline {
                let _ = writeln!(
                    out,
                    "           (roofline: {:.1} GB/s copy, {:.1} GB/s triad)",
                    r.copy_gbs, r.triad_gbs
                );
            }
        }
    }
    out.push_str(&render_imbalance(reports));
    out.push_str(&render_wait_attribution(reports));
    out.push_str(&render_comm_matrix(reports));
    out
}

/// Ranked reports only, in rank order (the cross-rank analytics ignore
/// untagged threads).
fn ranked(reports: &[RankReport]) -> Vec<&RankReport> {
    reports.iter().filter(|r| r.rank.is_some()).collect()
}

/// (min, mean, max, max/mean) over a non-empty slice.
fn spread(values: &[f64]) -> (f64, f64, f64, f64) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(0.0_f64, f64::max);
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let imb = if mean > 0.0 { max / mean } else { 1.0 };
    (min, mean, max, imb)
}

/// Cross-rank per-span imbalance table: min/mean/max total seconds across
/// ranks plus the imbalance ratio max/mean (1.00 = perfectly balanced).
/// Empty unless at least two ranked reports carry spans.
pub fn render_imbalance(reports: &[RankReport]) -> String {
    let ranked = ranked(reports);
    if ranked.len() < 2 {
        return String::new();
    }
    let mut names: Vec<&'static str> = Vec::new();
    for rep in &ranked {
        for s in &rep.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
    }
    if names.is_empty() {
        return String::new();
    }
    // Order by descending mean total so the heaviest spans lead.
    let mut rows: Vec<(&'static str, f64, f64, f64, f64)> = names
        .into_iter()
        .map(|name| {
            let totals: Vec<f64> = ranked
                .iter()
                .map(|rep| rep.span(name).map(|s| s.total_s).unwrap_or(0.0))
                .collect();
            let (min, mean, max, imb) = spread(&totals);
            (name, min, mean, max, imb)
        })
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(b.0)));
    let mut out = String::new();
    let _ = writeln!(out, "== cross-rank span imbalance ({} ranks) ==", ranked.len());
    let _ = writeln!(
        out,
        "  {:<22} {:>12} {:>12} {:>12} {:>8}",
        "span", "min (s)", "mean (s)", "max (s)", "max/mean"
    );
    for (name, min, mean, max, imb) in rows {
        let _ = writeln!(out, "  {name:<22} {min:>12.6} {mean:>12.6} {max:>12.6} {imb:>8.2}");
    }
    out
}

/// Spans that are time spent *blocked* on a peer rather than computing:
/// the halo exchange here, riding reductions (`allreduce`) beside it. The
/// critical path's per-rank totals sum the same names.
pub(crate) const HALO_SPANS: [&str; 2] = ["halo_drain", "halo_post"];

/// Spans that are local sparse compute.
pub(crate) const COMPUTE_SPANS: [&str; 2] = ["spmv_interior", "spmv_boundary"];

/// Wait-time attribution per rank: seconds blocked in the halo exchange
/// and in reductions versus seconds spent in local SpMV compute, plus the
/// blocked fraction. Empty when no rank recorded any of those spans.
pub fn render_wait_attribution(reports: &[RankReport]) -> String {
    let ranked = ranked(reports);
    let total_of = |rep: &RankReport, names: &[&str]| -> f64 {
        names.iter().filter_map(|n| rep.span(n)).map(|s| s.total_s).sum()
    };
    let rows: Vec<(String, f64, f64, f64)> = ranked
        .iter()
        .map(|rep| {
            let halo = total_of(rep, &HALO_SPANS);
            let reduce = total_of(rep, &["allreduce"]);
            let compute = total_of(rep, &COMPUTE_SPANS);
            (rank_label(rep.rank), halo, reduce, compute)
        })
        .filter(|(_, h, r, c)| *h > 0.0 || *r > 0.0 || *c > 0.0)
        .collect();
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(out, "== wait attribution ==");
    let _ = writeln!(
        out,
        "  {:<10} {:>14} {:>14} {:>14} {:>10}",
        "rank", "halo wait (s)", "reduce (s)", "compute (s)", "blocked"
    );
    for (label, halo, reduce, compute) in rows {
        let wait = halo + reduce;
        let denom = wait + compute;
        let frac = if denom > 0.0 { wait / denom } else { 0.0 };
        let _ = writeln!(
            out,
            "  {:<10} {:>14.6} {:>14.6} {:>14.6} {:>9.1}%",
            label,
            halo,
            reduce,
            compute,
            frac * 100.0
        );
    }
    out
}

/// The rank×rank communication matrix built from the per-peer send
/// accounting: `msgs[r][q]`/`bytes[r][q]` is what world rank `ranks[r]`
/// sent to world rank `ranks[q]`. Row totals equal each sender's
/// `SendsPosted`/`BytesSent` counters; column totals equal each
/// receiver's `RecvsCompleted`/`BytesReceived` (for completed traffic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommMatrix {
    /// World ranks indexing the rows/columns, ascending.
    pub ranks: Vec<usize>,
    /// Messages sent, row = sender, column = receiver.
    pub msgs: Vec<Vec<u64>>,
    /// Bytes sent, row = sender, column = receiver.
    pub bytes: Vec<Vec<u64>>,
}

/// Build the [`CommMatrix`] from aggregated reports (sender-side
/// accounting). Peers that appear only as destinations still get a
/// column.
pub fn comm_matrix(reports: &[RankReport]) -> CommMatrix {
    let mut ranks: Vec<usize> = Vec::new();
    for rep in reports {
        if let Some(r) = rep.rank {
            if !ranks.contains(&r) {
                ranks.push(r);
            }
        }
        for &peer in rep.peer_sends.keys().chain(rep.peer_recvs.keys()) {
            if !ranks.contains(&peer) {
                ranks.push(peer);
            }
        }
    }
    ranks.sort_unstable();
    let n = ranks.len();
    let idx = |r: usize| ranks.iter().position(|&x| x == r);
    let mut msgs = vec![vec![0u64; n]; n];
    let mut bytes = vec![vec![0u64; n]; n];
    for rep in reports {
        let Some(row) = rep.rank.and_then(idx) else { continue };
        for (&peer, stat) in &rep.peer_sends {
            if let Some(col) = idx(peer) {
                msgs[row][col] += stat.msgs;
                bytes[row][col] += stat.bytes;
            }
        }
    }
    CommMatrix { ranks, msgs, bytes }
}

/// Render the rank×rank communication matrix (`messages/bytes` cells,
/// rows = sender, columns = receiver). Empty when no p2p traffic was
/// recorded.
pub fn render_comm_matrix(reports: &[RankReport]) -> String {
    let m = comm_matrix(reports);
    if m.ranks.is_empty() || m.msgs.iter().flatten().all(|&v| v == 0) {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(out, "== comm matrix (messages/bytes, row sends to column) ==");
    let _ = write!(out, "  {:<8}", "from\\to");
    for &q in &m.ranks {
        let _ = write!(out, " {:>14}", format!("r{q}"));
    }
    out.push('\n');
    for (i, &r) in m.ranks.iter().enumerate() {
        let _ = write!(out, "  {:<8}", format!("r{r}"));
        for j in 0..m.ranks.len() {
            let cell = if m.msgs[i][j] == 0 {
                ".".to_string()
            } else {
                format!("{}/{}", m.msgs[i][j], m.bytes[i][j])
            };
            let _ = write!(out, " {cell:>14}");
        }
        out.push('\n');
    }
    out
}

/// Render the flight-recorder tails of every rank as JSON lines, one
/// `{"rank":..,"trace_id":..,"events":[...]}` object per rank. This is
/// what the drivers print under `RSPARSE_PROBE=flight`.
pub fn render_flight() -> String {
    let mut out = String::new();
    for (rank, tail) in flight::tails_by_rank() {
        let rank = rank.map_or("null".to_string(), |r| r.to_string());
        let _ = writeln!(
            out,
            "{{\"rank\":{rank},\"trace_id\":{},\"events\":{}}}",
            flight::latest_solve(&tail),
            flight::tail_json(&tail)
        );
    }
    out
}

/// Render the Table-1-style breakdown: one row per rank with native and
/// CCA setup/solve seconds plus the port-crossing overhead (self time of
/// all `port:*` spans) measured by the framework itself. With two or
/// more ranked rows, min/mean/max/imbalance summary rows follow (the
/// imbalance row is each column's max/mean ratio; 1.00 = balanced).
pub fn render_breakdown(reports: &[RankReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>14} {:>14} {:>14} {:>14} {:>10}",
        "rank", "native setup", "native solve", "cca setup", "cca solve", "port self (s)", "port calls"
    );
    let span_total = |rep: &RankReport, name: &str| -> f64 {
        rep.span(name).map(|s| s.total_s).unwrap_or(0.0)
    };
    let columns = |rep: &RankReport| -> [f64; 5] {
        [
            span_total(rep, "native_setup"),
            span_total(rep, "native_solve"),
            span_total(rep, "cca_setup"),
            span_total(rep, "cca_solve"),
            rep.port_self_seconds(),
        ]
    };
    for rep in reports {
        let c = columns(rep);
        let _ = writeln!(
            out,
            "{:<10} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>10}",
            rank_label(rep.rank),
            c[0],
            c[1],
            c[2],
            c[3],
            c[4],
            rep.counter(Counter::PortCalls),
        );
    }
    let ranked = ranked(reports);
    if ranked.len() >= 2 {
        let per_column: Vec<[f64; 5]> = ranked.iter().map(|rep| columns(rep)).collect();
        let stat = |pick: fn(&(f64, f64, f64, f64)) -> f64| -> [f64; 5] {
            std::array::from_fn(|j| {
                let vals: Vec<f64> = per_column.iter().map(|row| row[j]).collect();
                pick(&spread(&vals))
            })
        };
        for (label, row) in [
            ("min", stat(|s| s.0)),
            ("mean", stat(|s| s.1)),
            ("max", stat(|s| s.2)),
        ] {
            let _ = writeln!(
                out,
                "{:<10} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>10}",
                label, row[0], row[1], row[2], row[3], row[4], ""
            );
        }
        let imb = stat(|s| s.3);
        let _ = writeln!(
            out,
            "{:<10} {:>14.2} {:>14.2} {:>14.2} {:>14.2} {:>14.2} {:>10}",
            "imbalance", imb[0], imb[1], imb[2], imb[3], imb[4], ""
        );
    }
    out
}

/// Render one JSON object per rank (JSON lines): all nonzero counters and
/// all spans.
pub fn render_jsonl(reports: &[RankReport]) -> String {
    let mut out = String::new();
    for rep in reports {
        out.push('{');
        match rep.rank {
            Some(r) => {
                let _ = write!(out, "\"rank\":{r}");
            }
            None => out.push_str("\"rank\":null"),
        }
        out.push_str(",\"counters\":{");
        let mut first = true;
        for c in Counter::ALL {
            let v = rep.counter(c);
            if v > 0 {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{}\":{v}", c.name());
            }
        }
        out.push_str("},\"notes\":{");
        for (i, (key, value)) in rep.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", json::escape(key), json::escape(value));
        }
        out.push_str("},\"spans\":[");
        for (i, s) in rep.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"calls\":{},\"total_s\":{:e},\"self_s\":{:e}}}",
                json::escape(s.name),
                s.calls,
                s.total_s,
                s.self_s
            );
        }
        out.push_str("]}\n");
    }
    out
}

/// Serialize every logged span into one merged chrome://tracing
/// (`trace_event` format) JSON document for the whole cohort: `pid` is
/// the SPMD rank (999 for untagged threads), `tid` is the recording
/// thread, so repeated launches and multi-threaded ranks each keep their
/// own lane instead of overwriting one another. Spans reach the log at
/// [`crate::Level::Trace`] (the chrome probe mode asks for it). Load the
/// result via `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace_json() -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut dropped: u64 = 0;
    let mut trace_id: u64 = 0;
    let mut pids: Vec<u64> = Vec::new();
    for r in recorder::all_recorders() {
        let pid = r.rank().map(|r| r as u64).unwrap_or(999);
        let local = r.local();
        dropped += local.log.dropped();
        for e in local.log.iter() {
            trace_id = trace_id.max(e.solve);
            let Some((name, dur_ns)) = e.scope() else { continue };
            if !first {
                out.push(',');
            }
            first = false;
            if !pids.contains(&pid) {
                pids.push(pid);
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"probe\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}}}",
                json::escape(name),
                e.t0_ns / 1_000,
                dur_ns / 1_000,
                pid,
                r.thread
            );
        }
    }
    // Name each rank's process lane in the viewer.
    pids.sort_unstable();
    for pid in pids {
        let label = if pid == 999 { "unranked".to_string() } else { format!("rank {pid}") };
        let _ = write!(
            out,
            ",{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{label}\"}}}}"
        );
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"droppedEvents\":{dropped},\
         \"trace_id\":{trace_id},\"kernelEfficiency\":{}}}}}",
        kernel_efficiency_json(&aggregate())
    );
    out
}

/// Per-rank kernel-efficiency rows as a JSON array (embedded into the
/// chrome trace's `otherData` and reusable by other structured sinks).
pub fn kernel_efficiency_json(reports: &[RankReport]) -> String {
    let roofline = crate::model::roofline();
    let mut out = String::from("[");
    let mut first = true;
    for rep in reports {
        for e in rep.kernel_efficiency(roofline.as_ref()) {
            if !first {
                out.push(',');
            }
            first = false;
            let rank = match rep.rank {
                Some(r) => r.to_string(),
                None => "null".to_string(),
            };
            let pct = match e.pct_of_roofline {
                Some(p) => format!("{p:.3}"),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "{{\"rank\":{rank},\"kernel\":\"{}\",\"span\":\"{}\",\"units\":{},\
                 \"nrhs\":{},\"seconds\":{:e},\"flops\":{},\"bytes\":{},\"gflops\":{:.6},\
                 \"gbs\":{:.6},\"ai\":{:.6},\"pct_of_roofline\":{pct}}}",
                json::escape(e.name),
                json::escape(e.span),
                e.units,
                e.nrhs,
                e.seconds,
                e.flops,
                e.bytes,
                e.gflops,
                e.gbs,
                e.ai,
            );
        }
    }
    out.push(']');
    out
}

/// Write [`chrome_trace_json`] to `path`.
pub fn write_chrome_trace(path: impl AsRef<Path>) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json())
}
