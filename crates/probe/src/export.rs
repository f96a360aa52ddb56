//! Live telemetry export: the Prometheus text exposition (version 0.0.4)
//! of the report tables, and a std-only HTTP/1.0 responder for it.
//!
//! [`snapshot`] renders the whole recorder registry once; [`serve`]
//! answers every request on a blocking `TcpListener` accept loop with a
//! fresh one; [`maybe_serve_from_env`] starts that once per process when
//! `RSPARSE_METRICS_ADDR` is set (e.g. `127.0.0.1:9184`); default off.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

use crate::counter::Counter;
use crate::hist;
use crate::sink::{aggregate, tables, RankReport};
use crate::table::{Format, Row, Table};

/// Render one Prometheus snapshot of the whole recorder registry:
/// `rsparse_<counter>_total` counters, `rsparse_span_seconds_total` /
/// `rsparse_span_calls_total` per span, and `rsparse_<hist>_seconds`
/// histograms with cumulative `le` buckets, each labelled by rank.
pub fn snapshot() -> String {
    render(&aggregate())
}

/// A metric family: name, `# HELP` text, type, and the column it samples.
type Family<'a> = (&'a str, &'a str, &'a str, &'a str);

/// `# HELP` and `# TYPE` of one metric family.
fn meta(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
}

/// One sample, `name{rank="r"<labels>} value`; `labels` holds any further
/// `,key="value"` pairs.
fn sample(out: &mut String, name: &str, rank: Option<usize>, labels: &str, value: &str) {
    let rank = rank.map_or("none".to_string(), |r| r.to_string());
    let _ = writeln!(out, "{name}{{rank=\"{rank}\"{labels}}} {value}");
}

/// The writer of `table`'s `rows`: each family's metadata if any row has
/// a sample for it, then per row one sample per family, labelled by rank
/// and, when `label` names it, by the row's key.
fn families(out: &mut String, table: &Table, rows: &[Row], fams: &[Family], label: Option<&str>) {
    let value = |row: &Row, column: &str| {
        let c = table.column(column);
        Some(row.values[c].write(table.columns[c].1, Format::Prometheus)).filter(|v| !v.is_empty())
    };
    for &(name, help, kind, column) in fams {
        if rows.iter().any(|row| value(row, column).is_some()) {
            meta(out, name, help, kind);
        }
    }
    for row in rows {
        let labels = label.map_or(String::new(), |l| format!(",{l}=\"{}\"", row.key));
        for &(name, _, _, column) in fams {
            if let Some(v) = value(row, column) {
                sample(out, name, row.rank, &labels, &v);
            }
        }
    }
}

/// Render the Prometheus exposition for pre-aggregated reports. Every
/// metric family carries `# HELP` and `# TYPE` metadata so strict
/// scrapers parse the page.
pub fn render(reports: &[RankReport]) -> String {
    let mut out = String::new();
    let t = tables(reports, crate::model::roofline().as_ref());
    // One family per counter, in declaration order.
    let mut counters = t.counters.rows.clone();
    counters.sort_by_key(|row| Counter::ALL.iter().position(|c| c.name() == row.key));
    for rows in counters.chunk_by(|a, b| a.key == b.key) {
        let name = format!("rsparse_{}_total", rows[0].key);
        let help = format!("Probe counter `{}`, accumulated per rank.", rows[0].key);
        families(&mut out, &t.counters, rows, &[(&name, &help, "counter", "value")], None);
    }
    let seconds = "Inclusive wall-clock seconds per probe span.";
    let spans = [
        ("rsparse_span_seconds_total", seconds, "counter", "total_s"),
        ("rsparse_span_calls_total", "Times each probe span closed.", "counter", "calls"),
    ];
    families(&mut out, &t.spans, &t.spans.rows, &spans, Some("span"));
    // Histograms: cumulative le-buckets in seconds, plus _sum and _count.
    for h in hist::ALL {
        let live: Vec<_> = reports.iter().filter(|rep| rep.hist(h).count > 0).collect();
        if live.is_empty() {
            continue;
        }
        let name = format!("rsparse_{}_seconds", h.name());
        let help = format!("Log2-bucketed `{}` latency in seconds.", h.name());
        meta(&mut out, &name, &help, "histogram");
        let bucket = format!("{name}_bucket");
        for (rank, hists) in live.iter().map(|rep| (rep.rank, &rep.folds.hists)) {
            let mut cum = 0u64;
            for (i, &b) in hists.counts[h as usize].iter().enumerate() {
                cum += b;
                // Only edges that carry information: the cumulative count
                // changed, or it is the terminal +Inf bucket.
                let edge = hist::upper_edge_s(i);
                let le = if edge.is_finite() { format!("{edge:e}") } else { "+Inf".to_string() };
                if b > 0 || edge.is_infinite() {
                    sample(&mut out, &bucket, rank, &format!(",le=\"{le}\""), &cum.to_string());
                }
            }
            let sum = format!("{:e}", hists.sums[h as usize] as f64 * 1e-9);
            sample(&mut out, &format!("{name}_sum"), rank, "", &sum);
            sample(&mut out, &format!("{name}_count"), rank, "", &cum.to_string());
        }
    }
    // Kernel efficiency: the static work models joined with measured span
    // times (see `crate::model`), one gauge family per derived column.
    let roofline = "Achieved GB/s as a percentage of the calibrated copy-bandwidth roofline.";
    for (name, help, column) in [
        ("gflops", "Achieved GF/s per modelled kernel (model flops / measured seconds).", "gflops"),
        ("gbs", "Achieved GB/s per modelled kernel (model bytes / measured seconds).", "gbs"),
        ("ai", "Arithmetic intensity per modelled kernel (flops per byte).", "ai"),
        ("roofline_pct", roofline, "pct_of_roofline"),
    ] {
        let name = format!("rsparse_kernel_{name}");
        let gauge = [(name.as_str(), help, "gauge", column)];
        families(&mut out, &t.kernels, &t.kernels.rows, &gauge, Some("kernel"));
    }
    out
}

/// Handle to a running metrics server; stop it with [`MetricsServer::stop`]
/// or by dropping it.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound local address (useful with a `:0` request).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join the server thread.
    pub fn stop(self) {}
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn answer(mut conn: TcpStream) {
    let _ = conn.set_read_timeout(Some(Duration::from_secs(1)));
    // Drain (a prefix of) the request; the response is the same for
    // every path, so parsing is unnecessary.
    let mut buf = [0u8; 1024];
    let _ = conn.read(&mut buf);
    let body = snapshot();
    let head = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let _ = conn.write_all(head.as_bytes());
    let _ = conn.write_all(body.as_bytes());
    let _ = conn.flush();
}

/// Start the metrics server on `addr` (e.g. `"127.0.0.1:0"`). Each HTTP
/// request gets a fresh [`snapshot`]. The accept loop runs on its own
/// thread until the returned handle is stopped or dropped.
pub fn serve(addr: impl ToSocketAddrs) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("rsparse-metrics".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop2.load(Ordering::Relaxed) {
                    break;
                }
                if let Ok(conn) = conn {
                    answer(conn);
                }
            }
        })?;
    Ok(MetricsServer { addr, stop, thread: Some(thread) })
}

/// Start the exporter once per process if `RSPARSE_METRICS_ADDR` is set.
/// Called by the `rcomm` launcher; the server (if any) lives for the
/// rest of the process. Bind failures degrade to a stderr warning —
/// telemetry must never fail a solve.
pub fn maybe_serve_from_env() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let Ok(addr) = std::env::var("RSPARSE_METRICS_ADDR") else { return };
        let addr = addr.trim().to_string();
        if addr.is_empty() || addr.eq_ignore_ascii_case("off") {
            return;
        }
        match serve(addr.as_str()) {
            Ok(server) => {
                eprintln!("probe: serving metrics on http://{}/metrics", server.addr());
                // Run for the life of the process.
                std::mem::forget(server);
            }
            Err(e) => eprintln!("probe: RSPARSE_METRICS_ADDR={addr}: bind failed: {e}"),
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the server sends whatever the registry holds: the registry is
    /// process-global and a concurrent test's `probe::reset()` may empty it
    /// at any moment, so the page's content is pinned by the `render` test
    /// below, on input that test owns.
    #[test]
    fn server_answers_with_a_prometheus_snapshot() {
        let server = serve("127.0.0.1:0").expect("bind localhost");
        let addr = server.addr();
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("request");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("read response");
        server.stop();
        let (head, body) = response.split_once("\r\n\r\n").expect("header, blank line, body");
        assert!(head.starts_with("HTTP/1.0 200 OK"), "got: {response}");
        assert!(head.contains("text/plain"), "got: {head}");
        // Every line of the page is a comment or `name{labels} value`.
        for line in body.lines() {
            let sample = line.rsplit_once(' ').is_some_and(|(name, value)| {
                name.starts_with("rsparse_") && value.parse::<f64>().is_ok()
            });
            assert!(line.starts_with("# ") || sample, "malformed line: {line}");
        }
    }

    /// One rank's report holding `port_calls` and the given `collective`
    /// latency samples, nothing else — built here, not read from the
    /// process-global registry.
    fn report(rank: usize, port_calls: u64, collective_ns: &[u64]) -> RankReport {
        let mut counters = [0; crate::counter::COUNTER_COUNT];
        counters[Counter::PortCalls as usize] = port_calls;
        let mut folds = crate::recorder::Folds::default();
        for &ns in collective_ns {
            folds.hists.sample(hist::Hist::Collective, ns);
        }
        RankReport { rank: Some(rank), counters, folds }
    }

    #[test]
    fn render_emits_a_family_for_each_nonzero_counter_and_skips_the_rest() {
        let text = render(&[report(0, 3, &[]), report(1, 0, &[])]);
        assert!(text.contains("# TYPE rsparse_port_calls_total counter\n"), "got: {text}");
        assert!(text.contains("rsparse_port_calls_total{rank=\"0\"} 3\n"), "got: {text}");
        assert!(!text.contains("rsparse_port_calls_total{rank=\"1\"}"), "got: {text}");
        assert!(!text.contains("rsparse_matvec_calls_total"), "got: {text}");
        assert_eq!(render(&[report(0, 0, &[])]), "");
    }

    #[test]
    fn render_emits_histogram_families_with_cumulative_buckets() {
        let text = render(&[report(2, 0, &[1_000, 1_500, 2_000_000])]);
        assert!(text.contains("# TYPE rsparse_collective_seconds histogram\n"), "got: {text}");
        // Cumulative: 1 000 ns (under the 1 024 ns edge) and 1 500 ns.
        assert!(
            text.contains("rsparse_collective_seconds_bucket{rank=\"2\",le=\"2.048e-6\"} 2\n"),
            "got: {text}"
        );
        assert!(
            text.contains("rsparse_collective_seconds_bucket{rank=\"2\",le=\"+Inf\"} 3\n"),
            "got: {text}"
        );
        assert!(text.contains("rsparse_collective_seconds_count{rank=\"2\"} 3\n"), "got: {text}");
        assert!(!text.contains("rsparse_iter_time_seconds"), "got: {text}");
    }
}
