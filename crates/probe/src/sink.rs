//! Reports and their renderers: a [`RankReport`]'s contents are tables
//! (notes, counters, spans, histograms, kernels; a cohort adds span
//! imbalance, wait attribution and the comm matrix), written through the
//! one text or JSON writer of `table`. The chrome trace renders the log.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use crate::counter::{Counter, COUNTER_COUNT};
use crate::flight;
use crate::hist::{self, Hist, HistSummary};
use crate::json;
use crate::model::{KernelEfficiency, Roofline, TimeBase, WorkUnit};
use crate::recorder::{self, Folds, PeerStat, Recorder};
use crate::table::{Kind, Table, Value};

/// Aggregated statistics for one span name (see [`RankReport::spans`]).
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// One rank's counters and folds: every recorder of the rank merged (or
/// the current thread's alone, via [`local_report`]).
#[derive(Debug, Clone)]
pub struct RankReport {
    /// SPMD rank, if the recording thread was tagged via
    /// [`crate::set_rank`]; `None` for untagged threads.
    pub rank: Option<usize>,
    pub(crate) counters: [u64; COUNTER_COUNT],
    pub(crate) folds: Folds,
}

impl RankReport {
    /// Read one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Every span, in name order (wall-clock order varies run to run, so
    /// rendered reports diff cleanly).
    pub fn spans(&self) -> Vec<SpanSummary> {
        let secs = |ns: u64| ns as f64 * 1e-9;
        let summary = |(&name, s): (&&'static str, &recorder::SpanStat)| {
            let (total_s, self_s) = (secs(s.total_ns), secs(s.total_ns.saturating_sub(s.child_ns)));
            SpanSummary { name, calls: s.calls, total_s, self_s }
        };
        self.folds.spans.iter().map(summary).collect()
    }

    /// Look up a span summary by name.
    pub fn span(&self, name: &str) -> Option<SpanSummary> {
        self.spans().into_iter().find(|s| s.name == name)
    }

    /// Look up a note recorded via [`crate::note`].
    pub fn note(&self, key: &str) -> Option<&str> {
        self.folds.notes.get(key).map(String::as_str)
    }

    /// Per-peer receive accounting (world rank → messages/bytes),
    /// mirroring `RecvsCompleted`/`BytesReceived` exactly; the sends are
    /// the rows of [`comm_matrix`].
    pub fn peer_recvs(&self) -> &BTreeMap<usize, PeerStat> {
        &self.folds.peer_recvs
    }

    /// Quantile summary of one latency histogram family.
    pub fn hist(&self, h: Hist) -> HistSummary {
        hist::summarize(&self.folds.hists.counts[h as usize], self.folds.hists.sums[h as usize])
    }

    /// Join every registered kernel model with this rank's measurements:
    /// units (span calls or a counter), seconds (span total or self time),
    /// modelled flops/bytes, GF/s, GB/s, arithmetic intensity and, given a
    /// roofline, % of attainable bandwidth. Kernels with no units are
    /// skipped.
    pub fn kernel_efficiency(&self, roofline: Option<&Roofline>) -> Vec<KernelEfficiency> {
        let mut rows = Vec::new();
        for (&name, model) in &self.folds.models {
            let span = self.span(model.span);
            let units = match model.unit {
                WorkUnit::SpanCalls => span.map_or(0, |s| s.calls),
                WorkUnit::Counter(c) => self.counter(c),
            };
            if units == 0 {
                continue;
            }
            let seconds = span.map_or(0.0, |s| match model.time {
                TimeBase::Total => s.total_s,
                TimeBase::SelfTime => s.self_s,
            });
            let (flops, bytes) = (units * model.flops, units * model.bytes);
            let per_s = |n: u64| if seconds > 0.0 { n as f64 / seconds / 1e9 } else { 0.0 };
            let (gflops, gbs) = (per_s(flops), per_s(bytes));
            let ai = if bytes > 0 { flops as f64 / bytes as f64 } else { 0.0 };
            let pct_of_roofline =
                roofline.filter(|r| r.copy_gbs > 0.0).map(|r| 100.0 * gbs / r.copy_gbs);
            let (span, nrhs) = (model.span, model.nrhs);
            rows.push(KernelEfficiency {
                name,
                span,
                units,
                seconds,
                flops,
                bytes,
                gflops,
                gbs,
                ai,
                pct_of_roofline,
                nrhs,
            });
        }
        rows
    }

    /// The `"counters":{…},"notes":{…}` members every per-rank JSON
    /// document carries (the JSONL stream, the postmortem's rank
    /// fragments): nonzero counters in declaration order, notes by key.
    pub fn counters_and_notes_json(&self) -> String {
        let t = tables(std::slice::from_ref(self), None);
        format!("\"counters\":{},\"notes\":{}", t.counters.json_object(), t.notes.json_object())
    }

    /// Nothing recorded at all (a histogram sample, a message, a note or
    /// a model alone keeps a report in [`aggregate`]'s output).
    fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0) && self.folds == Folds::default()
    }
}

/// A cohort's contents, report by report: notes, nonzero counters, spans,
/// the quantiles of each histogram family holding a sample, and kernels.
pub(crate) struct Tables {
    pub(crate) notes: Table,
    pub(crate) counters: Table,
    pub(crate) spans: Table,
    pub(crate) hists: Table,
    pub(crate) kernels: Table,
}

pub(crate) fn tables(reports: &[RankReport], roofline: Option<&Roofline>) -> Tables {
    use Kind::{Count, Quantile as Q, Rate, Secs};
    use Value::{Int, Real};
    let hist_columns = [("count", Count), ("p50_s", Q), ("p90_s", Q), ("p99_s", Q), ("max_s", Q)];
    let kernel_columns = [
        ("span", Kind::Text),
        ("units", Count),
        ("nrhs", Count),
        ("seconds", Secs),
        ("flops", Count),
        ("bytes", Count),
        ("gflops", Rate),
        ("gbs", Rate),
        ("ai", Rate),
        ("pct_of_roofline", Kind::Pct),
    ];
    let mut t = Tables {
        notes: Table::new(Some("note"), &[("value", Kind::Text)]),
        counters: Table::new(Some("counter"), &[("value", Count)]),
        spans: Table::new(Some("name"), &[("calls", Count), ("total_s", Secs), ("self_s", Secs)]),
        hists: Table::new(Some("name"), &hist_columns),
        kernels: Table::new(Some("kernel"), &kernel_columns),
    };
    for rep in reports {
        let r = rep.rank;
        for (&key, value) in &rep.folds.notes {
            t.notes.push(r, key, vec![Value::Text(value.clone())]);
        }
        for c in Counter::ALL.into_iter().filter(|&c| rep.counter(c) > 0) {
            t.counters.push(r, c.name(), vec![Int(rep.counter(c))]);
        }
        for s in rep.spans() {
            t.spans.push(r, s.name, vec![Int(s.calls), Real(s.total_s), Real(s.self_s)]);
        }
        for (h, s) in hist::ALL.map(|h| (h, rep.hist(h))).into_iter().filter(|(_, s)| s.count > 0) {
            let quantiles = [s.p50_s, s.p90_s, s.p99_s, s.max_s].map(Real);
            t.hists.push(r, h.name(), [&[Int(s.count)][..], &quantiles].concat());
        }
        for e in rep.kernel_efficiency(roofline) {
            let pct = e.pct_of_roofline.map_or(Value::Null, Real);
            let measured = [Value::Text(e.span.into()), Int(e.units), Int(e.nrhs), Real(e.seconds)];
            let model = [Int(e.flops), Int(e.bytes), Real(e.gflops), Real(e.gbs), Real(e.ai), pct];
            t.kernels.push(r, e.name, [&measured[..], &model].concat());
        }
    }
    t
}

fn snapshot(recorders: &[Arc<Recorder>], rank: Option<usize>) -> RankReport {
    let mut report = RankReport { rank, counters: [0; COUNTER_COUNT], folds: Folds::default() };
    for r in recorders {
        report.counters.iter_mut().zip(Counter::ALL).for_each(|(n, c)| *n += r.counter(c));
        report.folds.merge(&r.local().folds);
    }
    report
}

/// Snapshot the current thread's recorder alone: inside an SPMD rank
/// closure, exactly that rank thread's counters and spans.
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
    rank.map_or("unranked".to_string(), |r| format!("rank {r}"))
}

/// Render the per-rank summary — notes, counters (in name order), spans,
/// histogram quantiles, kernels — then the cross-rank sections.
pub fn render_summary(reports: &[RankReport]) -> String {
    if reports.is_empty() {
        return "probe: nothing recorded\n".to_string();
    }
    let roofline = crate::model::roofline();
    let roof = roofline.map_or(String::new(), |r| {
        format!(" (roofline: {:.1} GB/s copy, {:.1} GB/s triad)", r.copy_gbs, r.triad_gbs)
    });
    let mut out = String::new();
    for rep in reports {
        let _ = writeln!(out, "== probe summary: {} ==", rank_label(rep.rank));
        let mut t = tables(std::slice::from_ref(rep), roofline.as_ref());
        // Name order, not declaration order: stable diffs between runs.
        t.counters.rows.sort_by(|a, b| a.key.cmp(&b.key));
        out.push_str(&t.notes.text("  notes:", 4));
        out.push_str(&t.counters.text("  counters:", 4));
        out.push_str(&t.spans.text("  spans:", 4));
        out.push_str(&t.hists.text("  hists:", 4));
        out.push_str(&t.kernels.text(&format!("  kernels:{roof}"), 4));
    }
    out.push_str(&render_imbalance(reports));
    out.push_str(&render_wait_attribution(reports));
    out.push_str(&render_comm_matrix(reports));
    out
}

/// Ranked reports only: the cross-rank analytics ignore untagged threads.
fn ranked(reports: &[RankReport]) -> Vec<&RankReport> {
    reports.iter().filter(|r| r.rank.is_some()).collect()
}

/// Total seconds of the span `name` on `rep` (0 if it never ran).
fn span_total(rep: &RankReport, name: &str) -> f64 {
    rep.span(name).map_or(0.0, |s| s.total_s)
}

/// `[min, mean, max, max/mean]` over a non-empty slice.
fn spread(values: &[f64]) -> [f64; 4] {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(0.0_f64, f64::max);
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    [min, mean, max, if mean > 0.0 { max / mean } else { 1.0 }]
}

/// Cross-rank per-span imbalance: min/mean/max total seconds across ranks
/// and max/mean (1.00 = balanced), heaviest spans first. Empty unless at
/// least two ranked reports carry spans.
pub fn render_imbalance(reports: &[RankReport]) -> String {
    let ranked = ranked(reports);
    let mut names: Vec<&'static str> =
        ranked.iter().flat_map(|rep| rep.folds.spans.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    if ranked.len() < 2 || names.is_empty() {
        return String::new();
    }
    let stats = |name| spread(&ranked.iter().map(|rep| span_total(rep, name)).collect::<Vec<_>>());
    let mut rows: Vec<(&str, [f64; 4])> = names.into_iter().map(|n| (n, stats(n))).collect();
    rows.sort_by(|a, b| b.1[1].total_cmp(&a.1[1]).then(a.0.cmp(b.0)));
    let s = Kind::Secs;
    let columns = [("min (s)", s), ("mean (s)", s), ("max (s)", s), ("max/mean", Kind::Rate)];
    let mut table = Table::new(Some("span"), &columns);
    for (name, stats) in rows {
        table.push(None, name, stats.map(Value::Real).to_vec());
    }
    table.text(&format!("== cross-rank span imbalance ({} ranks) ==", ranked.len()), 2)
}

/// Spans blocked on a peer rather than computing (the halo exchange;
/// reductions ride `allreduce`). The critical path sums the same names.
pub(crate) const HALO_SPANS: [&str; 2] = ["halo_drain", "halo_post"];

/// Spans that are local sparse compute.
pub(crate) const COMPUTE_SPANS: [&str; 2] = ["spmv_interior", "spmv_boundary"];

/// The wait-attribution columns; the critical path's per-rank totals are
/// the first three.
pub(crate) const WAIT_COLUMNS: [(&str, Kind); 4] = [
    ("halo_wait_s", Kind::Secs),
    ("reduce_s", Kind::Secs),
    ("compute_s", Kind::Secs),
    ("blocked", Kind::Pct),
];

/// Wait-time attribution per rank: seconds blocked in the halo exchange
/// and in reductions versus seconds spent in local SpMV compute, plus the
/// blocked fraction. Empty when no rank recorded any of those spans.
pub fn render_wait_attribution(reports: &[RankReport]) -> String {
    let mut table = Table::new(None, &WAIT_COLUMNS);
    for rep in ranked(reports) {
        let total = |names: &[&str]| names.iter().map(|n| span_total(rep, n)).sum::<f64>();
        let (halo, reduce) = (total(&HALO_SPANS), total(&["allreduce"]));
        let compute = total(&COMPUTE_SPANS);
        let wait = halo + reduce;
        if wait + compute > 0.0 {
            let blocked = 100.0 * wait / (wait + compute);
            let values = [halo, reduce, compute, blocked].map(Value::Real).to_vec();
            table.push(rep.rank, rank_label(rep.rank), values);
        }
    }
    table.text("== wait attribution ==", 2)
}

/// The rank×rank communication matrix of the per-peer send accounting:
/// `msgs[r][q]`/`bytes[r][q]` is what world rank `ranks[r]` sent to
/// `ranks[q]`. Row totals equal the sender's `SendsPosted`/`BytesSent`,
/// column totals the receiver's `RecvsCompleted`/`BytesReceived`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommMatrix {
    /// World ranks indexing the rows/columns, ascending.
    pub ranks: Vec<usize>,
    /// Messages sent, row = sender, column = receiver.
    pub msgs: Vec<Vec<u64>>,
    /// Bytes sent, row = sender, column = receiver.
    pub bytes: Vec<Vec<u64>>,
}

/// Build the [`CommMatrix`] from aggregated reports (sender side); peers
/// that appear only as destinations still get a column.
pub fn comm_matrix(reports: &[RankReport]) -> CommMatrix {
    let mut ranks: Vec<usize> = Vec::new();
    for rep in reports {
        ranks.extend(rep.rank);
        ranks.extend(rep.folds.peer_sends.keys().chain(rep.folds.peer_recvs.keys()));
    }
    ranks.sort_unstable();
    ranks.dedup();
    let idx = |r: usize| ranks.binary_search(&r).ok();
    let zeros = vec![vec![0u64; ranks.len()]; ranks.len()];
    let (mut msgs, mut bytes) = (zeros.clone(), zeros);
    for rep in reports {
        let Some(row) = rep.rank.and_then(idx) else { continue };
        for (&peer, stat) in &rep.folds.peer_sends {
            let col = idx(peer).expect("every peer has a column");
            msgs[row][col] += stat.msgs;
            bytes[row][col] += stat.bytes;
        }
    }
    CommMatrix { ranks, msgs, bytes }
}

/// Render the comm matrix (`messages/bytes` cells, rows send to columns);
/// empty when no p2p traffic was recorded.
pub fn render_comm_matrix(reports: &[RankReport]) -> String {
    let m = comm_matrix(reports);
    if m.msgs.iter().flatten().all(|&v| v == 0) {
        return String::new();
    }
    let names: Vec<String> = m.ranks.iter().map(|q| format!("r{q}")).collect();
    let columns: Vec<(&str, Kind)> = names.iter().map(|q| (q.as_str(), Kind::Text)).collect();
    let mut table = Table::new(Some("from\\to"), &columns);
    for (i, name) in names.iter().enumerate() {
        let cell = |j: usize| match m.msgs[i][j] {
            0 => Value::Text(".".to_string()),
            msgs => Value::Text(format!("{msgs}/{}", m.bytes[i][j])),
        };
        table.push(Some(m.ranks[i]), name.as_str(), (0..names.len()).map(cell).collect());
    }
    table.text("== comm matrix (messages/bytes, row sends to column) ==", 2)
}

/// Render every rank's flight-recorder tail as one JSON line
/// `{"rank":..,"trace_id":..,"events":[...]}` (`RSPARSE_PROBE=flight`).
pub fn render_flight() -> String {
    let mut out = String::new();
    for (rank, tail) in flight::tails_by_rank() {
        let rank = rank.map_or("null".to_string(), |r| r.to_string());
        let (id, events) = (flight::latest_solve(&tail), flight::tail_json(&tail));
        let _ = writeln!(out, "{{\"rank\":{rank},\"trace_id\":{id},\"events\":{events}}}");
    }
    out
}

/// Render one JSON object per rank (JSON lines): nonzero counters, notes
/// and every span.
pub fn render_jsonl(reports: &[RankReport]) -> String {
    let mut out = String::new();
    for rep in reports {
        let rank = rep.rank.map_or("null".to_string(), |r| r.to_string());
        let spans = tables(std::slice::from_ref(rep), None).spans.json(false);
        let fields = rep.counters_and_notes_json();
        let _ = writeln!(out, "{{\"rank\":{rank},{fields},\"spans\":{spans}}}");
    }
    out
}

/// Serialize every logged span into one chrome://tracing (`trace_event`)
/// document for the cohort: `pid` is the SPMD rank (999 untagged), `tid`
/// the recording thread, so repeated launches and multi-threaded ranks
/// keep their own lanes. Spans reach the log at [`crate::Level::Trace`]
/// (the chrome mode asks for it). Load it in <https://ui.perfetto.dev>.
pub fn chrome_trace_json() -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let (mut dropped, mut trace_id, mut pids) = (0u64, 0u64, Vec::new());
    for r in recorder::all_recorders() {
        let pid = r.rank().map_or(999, |r| r as u64);
        let local = r.local();
        dropped += local.log.dropped();
        for e in local.log.iter() {
            trace_id = trace_id.max(e.solve);
            let Some((name, dur_ns)) = e.scope() else { continue };
            if !pids.contains(&pid) {
                pids.push(pid);
            }
            let (name, ts, dur) = (json::escape(name), e.t0_ns / 1_000, dur_ns / 1_000);
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"probe\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
                 \"pid\":{pid},\"tid\":{}}},",
                r.thread
            );
        }
    }
    // Name each rank's process lane in the viewer.
    pids.sort_unstable();
    for pid in pids {
        let label = rank_label((pid != 999).then_some(pid as usize));
        let lane = format!("\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{label}\"}}");
        let _ = write!(out, "{{\"name\":\"process_name\",\"ph\":\"M\",{lane}}},");
    }
    if out.ends_with(',') {
        out.pop();
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
/// chrome trace's `otherData` and the solve ledger).
pub fn kernel_efficiency_json(reports: &[RankReport]) -> String {
    tables(reports, crate::model::roofline().as_ref()).kernels.json(true)
}

/// Write [`chrome_trace_json`] to `path`.
pub fn write_chrome_trace(path: impl AsRef<Path>) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json())
}

#[cfg(test)]
mod golden_tests {
    //! The machine-readable renderers pinned byte for byte over one
    //! hand-built cohort: three ranked ranks passing messages round a ring
    //! and one unranked thread, every event folded at a chosen clock.

    use super::*;
    use crate::event::{Event, EventKind};
    use crate::model::{register, KernelModel, TimeBase, WorkUnit};
    use crate::recorder::Level;
    use crate::{add, note, set_rank};

    /// Fold one event of solve 1 into this thread's recorder, as
    /// `emit_since` does, with `t0..t1` chosen instead of read.
    fn fold(t0_ns: u64, t1_ns: u64, kind: EventKind, child_ns: Option<u64>) {
        let ev = Event { t0_ns, t1_ns, solve: 1, kind };
        recorder::with_local(|r| r.local().fold(&ev, child_ns, Level::Spans));
    }

    /// One thread's recorder, built by hand and snapshotted on its own
    /// thread, so no other recorder mixes in.
    fn report(rank: Option<usize>) -> RankReport {
        std::thread::spawn(move || {
            match rank {
                Some(r) => {
                    set_rank(r);
                    let (next, prev) = ((r + 1) % 3, (r + 2) % 3);
                    for _ in 0..2 {
                        fold(0, 0, EventKind::Send { peer: next, bytes: 8, tag: 1, seq: 0 }, None);
                        fold(
                            0,
                            0,
                            EventKind::Recv { peer: prev, bytes: 8, tag: 1, src_seq: 0 },
                            None,
                        );
                    }
                    add(Counter::SendsPosted, 2);
                    add(Counter::BytesSent, 16);
                    add(Counter::RecvsCompleted, 2);
                    add(Counter::BytesReceived, 16);
                    add(Counter::PortCalls, 10 + r as u64);
                    // `matvec` and an `allreduce` nested in `ksp_solve`.
                    let r = r as u64;
                    fold(100, 400 + 100 * r, EventKind::Span { name: "matvec" }, Some(0));
                    let op = EventKind::Collective { op: "allreduce", index: 0 };
                    fold(500, 2_000 + 1_000 * r, op, Some(0));
                    let child = 300 + 100 * r + 1_500 + 1_000 * r;
                    fold(0, 4_000 + 1_000 * r, EventKind::Span { name: "ksp_solve" }, Some(child));
                    // Two iterations: `iter_time` samples the gaps.
                    fold(0, 0, EventKind::Begin, None);
                    fold(0, 2_000, EventKind::Iter { iteration: 1, residual: 0.5 }, None);
                    fold(0, 5_000 + r, EventKind::Iter { iteration: 2, residual: 0.25 }, None);
                    note("batch", format!("nrhs={}", r + 1));
                    register(
                        "spmv",
                        KernelModel {
                            span: "matvec",
                            flops: 2_000,
                            bytes: 24_000,
                            unit: WorkUnit::SpanCalls,
                            time: TimeBase::Total,
                            nrhs: 1,
                        },
                    );
                }
                None => {
                    add(Counter::PortFetches, 4);
                    fold(10, 710, EventKind::Span { name: "cca_setup" }, Some(0));
                    note("host", "unit \"test\"\tbox");
                }
            }
            local_report()
        })
        .join()
        .unwrap()
    }

    fn lines(ls: &[&str]) -> String {
        ls.iter().map(|l| format!("{l}\n")).collect()
    }

    /// `render_jsonl`: one object per report, in report order.
    const JSONL: [&str; 4] = [
        concat!(
            r#"{"rank":0,"counters":{"sends_posted":2,"recvs_completed":2,"bytes_sent":16,"#,
            r#""bytes_received":16,"port_calls":10},"notes":{"batch":"nrhs=1"},"#,
            r#""spans":[{"name":"allreduce","calls":1,"total_s":1.5e-6,"self_s":1.5e-6},"#,
            r#"{"name":"ksp_solve","calls":1,"total_s":4.000000000000001e-6,"self_s":2.2e-6},"#,
            r#"{"name":"matvec","calls":1,"total_s":3.0000000000000004e-7,"#,
            r#""self_s":3.0000000000000004e-7}]}"#,
        ),
        concat!(
            r#"{"rank":1,"counters":{"sends_posted":2,"recvs_completed":2,"bytes_sent":16,"#,
            r#""bytes_received":16,"port_calls":11},"notes":{"batch":"nrhs=2"},"#,
            r#""spans":[{"name":"allreduce","calls":1,"total_s":2.5e-6,"self_s":2.5e-6},"#,
            r#"{"name":"ksp_solve","calls":1,"total_s":5e-6,"self_s":2.1000000000000002e-6},"#,
            r#"{"name":"matvec","calls":1,"total_s":4.0000000000000003e-7,"#,
            r#""self_s":4.0000000000000003e-7}]}"#,
        ),
        concat!(
            r#"{"rank":2,"counters":{"sends_posted":2,"recvs_completed":2,"bytes_sent":16,"#,
            r#""bytes_received":16,"port_calls":12},"notes":{"batch":"nrhs=3"},"#,
            r#""spans":[{"name":"allreduce","calls":1,"total_s":3.5000000000000004e-6,"#,
            r#""self_s":3.5000000000000004e-6},{"name":"ksp_solve","calls":1,"total_s":6e-6,"#,
            r#""self_s":2.0000000000000003e-6},{"name":"matvec","calls":1,"#,
            r#""total_s":5.000000000000001e-7,"self_s":5.000000000000001e-7}]}"#,
        ),
        concat!(
            r#"{"rank":null,"counters":{"port_fetches":4},"#,
            r#""notes":{"host":"unit \"test\"\u0009box"},"spans":[{"name":"cca_setup","calls":1,"#,
            r#""total_s":7.000000000000001e-7,"self_s":7.000000000000001e-7}]}"#,
        ),
    ];

    /// `export::render`: the whole Prometheus page.
    const PROMETHEUS: [&str; 98] = [
        r#"# HELP rsparse_sends_posted_total Probe counter `sends_posted`, accumulated per rank."#,
        r#"# TYPE rsparse_sends_posted_total counter"#,
        r#"rsparse_sends_posted_total{rank="0"} 2"#,
        r#"rsparse_sends_posted_total{rank="1"} 2"#,
        r#"rsparse_sends_posted_total{rank="2"} 2"#,
        r#"# HELP rsparse_recvs_completed_total Probe counter `recvs_completed`, accumulated per rank."#,
        r#"# TYPE rsparse_recvs_completed_total counter"#,
        r#"rsparse_recvs_completed_total{rank="0"} 2"#,
        r#"rsparse_recvs_completed_total{rank="1"} 2"#,
        r#"rsparse_recvs_completed_total{rank="2"} 2"#,
        r#"# HELP rsparse_bytes_sent_total Probe counter `bytes_sent`, accumulated per rank."#,
        r#"# TYPE rsparse_bytes_sent_total counter"#,
        r#"rsparse_bytes_sent_total{rank="0"} 16"#,
        r#"rsparse_bytes_sent_total{rank="1"} 16"#,
        r#"rsparse_bytes_sent_total{rank="2"} 16"#,
        r#"# HELP rsparse_bytes_received_total Probe counter `bytes_received`, accumulated per rank."#,
        r#"# TYPE rsparse_bytes_received_total counter"#,
        r#"rsparse_bytes_received_total{rank="0"} 16"#,
        r#"rsparse_bytes_received_total{rank="1"} 16"#,
        r#"rsparse_bytes_received_total{rank="2"} 16"#,
        r#"# HELP rsparse_port_calls_total Probe counter `port_calls`, accumulated per rank."#,
        r#"# TYPE rsparse_port_calls_total counter"#,
        r#"rsparse_port_calls_total{rank="0"} 10"#,
        r#"rsparse_port_calls_total{rank="1"} 11"#,
        r#"rsparse_port_calls_total{rank="2"} 12"#,
        r#"# HELP rsparse_port_fetches_total Probe counter `port_fetches`, accumulated per rank."#,
        r#"# TYPE rsparse_port_fetches_total counter"#,
        r#"rsparse_port_fetches_total{rank="none"} 4"#,
        r#"# HELP rsparse_span_seconds_total Inclusive wall-clock seconds per probe span."#,
        r#"# TYPE rsparse_span_seconds_total counter"#,
        r#"# HELP rsparse_span_calls_total Times each probe span closed."#,
        r#"# TYPE rsparse_span_calls_total counter"#,
        r#"rsparse_span_seconds_total{rank="0",span="allreduce"} 1.5e-6"#,
        r#"rsparse_span_calls_total{rank="0",span="allreduce"} 1"#,
        r#"rsparse_span_seconds_total{rank="0",span="ksp_solve"} 4.000000000000001e-6"#,
        r#"rsparse_span_calls_total{rank="0",span="ksp_solve"} 1"#,
        r#"rsparse_span_seconds_total{rank="0",span="matvec"} 3.0000000000000004e-7"#,
        r#"rsparse_span_calls_total{rank="0",span="matvec"} 1"#,
        r#"rsparse_span_seconds_total{rank="1",span="allreduce"} 2.5e-6"#,
        r#"rsparse_span_calls_total{rank="1",span="allreduce"} 1"#,
        r#"rsparse_span_seconds_total{rank="1",span="ksp_solve"} 5e-6"#,
        r#"rsparse_span_calls_total{rank="1",span="ksp_solve"} 1"#,
        r#"rsparse_span_seconds_total{rank="1",span="matvec"} 4.0000000000000003e-7"#,
        r#"rsparse_span_calls_total{rank="1",span="matvec"} 1"#,
        r#"rsparse_span_seconds_total{rank="2",span="allreduce"} 3.5000000000000004e-6"#,
        r#"rsparse_span_calls_total{rank="2",span="allreduce"} 1"#,
        r#"rsparse_span_seconds_total{rank="2",span="ksp_solve"} 6e-6"#,
        r#"rsparse_span_calls_total{rank="2",span="ksp_solve"} 1"#,
        r#"rsparse_span_seconds_total{rank="2",span="matvec"} 5.000000000000001e-7"#,
        r#"rsparse_span_calls_total{rank="2",span="matvec"} 1"#,
        r#"rsparse_span_seconds_total{rank="none",span="cca_setup"} 7.000000000000001e-7"#,
        r#"rsparse_span_calls_total{rank="none",span="cca_setup"} 1"#,
        r#"# HELP rsparse_iter_time_seconds Log2-bucketed `iter_time` latency in seconds."#,
        r#"# TYPE rsparse_iter_time_seconds histogram"#,
        r#"rsparse_iter_time_seconds_bucket{rank="0",le="2.048e-6"} 1"#,
        r#"rsparse_iter_time_seconds_bucket{rank="0",le="4.096e-6"} 2"#,
        r#"rsparse_iter_time_seconds_bucket{rank="0",le="+Inf"} 2"#,
        r#"rsparse_iter_time_seconds_sum{rank="0"} 5e-6"#,
        r#"rsparse_iter_time_seconds_count{rank="0"} 2"#,
        r#"rsparse_iter_time_seconds_bucket{rank="1",le="2.048e-6"} 1"#,
        r#"rsparse_iter_time_seconds_bucket{rank="1",le="4.096e-6"} 2"#,
        r#"rsparse_iter_time_seconds_bucket{rank="1",le="+Inf"} 2"#,
        r#"rsparse_iter_time_seconds_sum{rank="1"} 5.001e-6"#,
        r#"rsparse_iter_time_seconds_count{rank="1"} 2"#,
        r#"rsparse_iter_time_seconds_bucket{rank="2",le="2.048e-6"} 1"#,
        r#"rsparse_iter_time_seconds_bucket{rank="2",le="4.096e-6"} 2"#,
        r#"rsparse_iter_time_seconds_bucket{rank="2",le="+Inf"} 2"#,
        r#"rsparse_iter_time_seconds_sum{rank="2"} 5.0020000000000006e-6"#,
        r#"rsparse_iter_time_seconds_count{rank="2"} 2"#,
        r#"# HELP rsparse_collective_seconds Log2-bucketed `collective` latency in seconds."#,
        r#"# TYPE rsparse_collective_seconds histogram"#,
        r#"rsparse_collective_seconds_bucket{rank="0",le="2.048e-6"} 1"#,
        r#"rsparse_collective_seconds_bucket{rank="0",le="+Inf"} 1"#,
        r#"rsparse_collective_seconds_sum{rank="0"} 1.5e-6"#,
        r#"rsparse_collective_seconds_count{rank="0"} 1"#,
        r#"rsparse_collective_seconds_bucket{rank="1",le="4.096e-6"} 1"#,
        r#"rsparse_collective_seconds_bucket{rank="1",le="+Inf"} 1"#,
        r#"rsparse_collective_seconds_sum{rank="1"} 2.5e-6"#,
        r#"rsparse_collective_seconds_count{rank="1"} 1"#,
        r#"rsparse_collective_seconds_bucket{rank="2",le="4.096e-6"} 1"#,
        r#"rsparse_collective_seconds_bucket{rank="2",le="+Inf"} 1"#,
        r#"rsparse_collective_seconds_sum{rank="2"} 3.5000000000000004e-6"#,
        r#"rsparse_collective_seconds_count{rank="2"} 1"#,
        r#"# HELP rsparse_kernel_gflops Achieved GF/s per modelled kernel (model flops / measured seconds)."#,
        r#"# TYPE rsparse_kernel_gflops gauge"#,
        r#"rsparse_kernel_gflops{rank="0",kernel="spmv"} 6.666666666666666e0"#,
        r#"rsparse_kernel_gflops{rank="1",kernel="spmv"} 5e0"#,
        r#"rsparse_kernel_gflops{rank="2",kernel="spmv"} 3.9999999999999996e0"#,
        r#"# HELP rsparse_kernel_gbs Achieved GB/s per modelled kernel (model bytes / measured seconds)."#,
        r#"# TYPE rsparse_kernel_gbs gauge"#,
        r#"rsparse_kernel_gbs{rank="0",kernel="spmv"} 7.999999999999999e1"#,
        r#"rsparse_kernel_gbs{rank="1",kernel="spmv"} 5.999999999999999e1"#,
        r#"rsparse_kernel_gbs{rank="2",kernel="spmv"} 4.799999999999999e1"#,
        r#"# HELP rsparse_kernel_ai Arithmetic intensity per modelled kernel (flops per byte)."#,
        r#"# TYPE rsparse_kernel_ai gauge"#,
        r#"rsparse_kernel_ai{rank="0",kernel="spmv"} 8.333333333333333e-2"#,
        r#"rsparse_kernel_ai{rank="1",kernel="spmv"} 8.333333333333333e-2"#,
        r#"rsparse_kernel_ai{rank="2",kernel="spmv"} 8.333333333333333e-2"#,
    ];

    /// `kernel_efficiency_json`: one row per (ranked rank, kernel).
    const KERNELS: &str = concat!(
        r#"[{"rank":0,"kernel":"spmv","span":"matvec","units":1,"nrhs":1,"#,
        r#""seconds":3.0000000000000004e-7,"flops":2000,"bytes":24000,"gflops":6.666667,"#,
        r#""gbs":80.000000,"ai":0.083333,"pct_of_roofline":null},{"rank":1,"kernel":"spmv","#,
        r#""span":"matvec","units":1,"nrhs":1,"seconds":4.0000000000000003e-7,"flops":2000,"#,
        r#""bytes":24000,"gflops":5.000000,"gbs":60.000000,"ai":0.083333,"#,
        r#""pct_of_roofline":null},{"rank":2,"kernel":"spmv","span":"matvec","units":1,"#,
        r#""nrhs":1,"seconds":5.000000000000001e-7,"flops":2000,"bytes":24000,"#,
        r#""gflops":4.000000,"gbs":48.000000,"ai":0.083333,"pct_of_roofline":null}]"#,
    );

    #[test]
    fn renderers_write_the_pinned_documents() {
        let _g = crate::tests::locked();
        assert!(crate::model::roofline().is_none(), "the pinned documents assume no calibration");
        let reports: Vec<RankReport> =
            [Some(0), Some(1), Some(2), None].into_iter().map(report).collect();
        assert_eq!(render_jsonl(&reports), lines(&JSONL));
        assert_eq!(crate::export::render(&reports), lines(&PROMETHEUS));
        assert_eq!(kernel_efficiency_json(&reports), KERNELS);
        let ring = |v: u64| vec![vec![0, v, 0], vec![0, 0, v], vec![v, 0, 0]];
        let m = CommMatrix { ranks: vec![0, 1, 2], msgs: ring(2), bytes: ring(16) };
        assert_eq!(comm_matrix(&reports), m);
    }
}
