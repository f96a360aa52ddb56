//! Live telemetry export: Prometheus text format over localhost TCP.
//!
//! [`snapshot`] renders every counter, span total and latency histogram
//! in the recorder registry as Prometheus text exposition (version
//! 0.0.4) — the one-shot API a driving service polls per session.
//! [`serve`] runs a minimal HTTP/1.0 responder on a blocking
//! `std::net::TcpListener` accept loop (std-only; the probe crate takes
//! no runtime dependencies) that answers every request with a fresh
//! snapshot. [`maybe_serve_from_env`] starts it once per process when
//! `RSPARSE_METRICS_ADDR` is set (e.g. `127.0.0.1:9184`); default off.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

use crate::counter::Counter;
use crate::hist;
use crate::sink::{aggregate, RankReport};

fn rank_value(rep: &RankReport) -> String {
    match rep.rank {
        Some(r) => r.to_string(),
        None => "none".to_string(),
    }
}

/// Render one Prometheus snapshot of the whole recorder registry:
/// `rsparse_<counter>_total` counters, `rsparse_span_seconds_total` /
/// `rsparse_span_calls_total` per span, and `rsparse_<hist>_seconds`
/// histograms with cumulative `le` buckets, each labelled by rank.
pub fn snapshot() -> String {
    render(&aggregate())
}

/// Render the Prometheus exposition for pre-aggregated reports. Every
/// metric family carries `# HELP` and `# TYPE` metadata so strict
/// scrapers parse the page.
pub fn render(reports: &[RankReport]) -> String {
    let mut out = String::new();
    // Counters: one family per probe counter with any nonzero value.
    for c in Counter::ALL {
        if reports.iter().all(|rep| rep.counter(c) == 0) {
            continue;
        }
        out.push_str(&format!(
            "# HELP rsparse_{}_total Probe counter `{}`, accumulated per rank.\n",
            c.name(),
            c.name()
        ));
        out.push_str(&format!("# TYPE rsparse_{}_total counter\n", c.name()));
        for rep in reports {
            let v = rep.counter(c);
            if v > 0 {
                out.push_str(&format!(
                    "rsparse_{}_total{{rank=\"{}\"}} {v}\n",
                    c.name(),
                    rank_value(rep)
                ));
            }
        }
    }
    // Spans: total seconds and call counts.
    if reports.iter().any(|rep| !rep.spans.is_empty()) {
        out.push_str(
            "# HELP rsparse_span_seconds_total Inclusive wall-clock seconds per probe span.\n",
        );
        out.push_str("# TYPE rsparse_span_seconds_total counter\n");
        out.push_str("# HELP rsparse_span_calls_total Times each probe span closed.\n");
        out.push_str("# TYPE rsparse_span_calls_total counter\n");
        for rep in reports {
            for s in &rep.spans {
                let rank = rank_value(rep);
                out.push_str(&format!(
                    "rsparse_span_seconds_total{{rank=\"{rank}\",span=\"{}\"}} {:e}\n",
                    s.name, s.total_s
                ));
                out.push_str(&format!(
                    "rsparse_span_calls_total{{rank=\"{rank}\",span=\"{}\"}} {}\n",
                    s.name, s.calls
                ));
            }
        }
    }
    // Histograms: cumulative le-buckets in seconds, plus _sum and _count.
    for h in hist::ALL {
        if reports.iter().all(|rep| rep.hist(h).count == 0) {
            continue;
        }
        out.push_str(&format!(
            "# HELP rsparse_{}_seconds Log2-bucketed `{}` latency in seconds.\n",
            h.name(),
            h.name()
        ));
        out.push_str(&format!("# TYPE rsparse_{}_seconds histogram\n", h.name()));
        for rep in reports {
            let (buckets, sum_ns) = rep.hist_buckets(h);
            let count: u64 = buckets.iter().sum();
            if count == 0 {
                continue;
            }
            let rank = rank_value(rep);
            let mut cum = 0u64;
            for (i, &b) in buckets.iter().enumerate() {
                cum += b;
                // Only emit edges that carry information: the cumulative
                // count changed, or it is the terminal +Inf bucket.
                if b == 0 && i + 1 < hist::BUCKETS {
                    continue;
                }
                let le = if i + 1 >= hist::BUCKETS {
                    "+Inf".to_string()
                } else {
                    format!("{:e}", crate::hist::upper_edge_s(i))
                };
                out.push_str(&format!(
                    "rsparse_{}_seconds_bucket{{rank=\"{rank}\",le=\"{le}\"}} {cum}\n",
                    h.name()
                ));
            }
            out.push_str(&format!(
                "rsparse_{}_seconds_sum{{rank=\"{rank}\"}} {:e}\n",
                h.name(),
                sum_ns as f64 * 1e-9
            ));
            out.push_str(&format!(
                "rsparse_{}_seconds_count{{rank=\"{rank}\"}} {count}\n",
                h.name()
            ));
        }
    }
    // Kernel efficiency: the static work models joined with measured span
    // times (see `crate::model`), one gauge family per derived column.
    let roofline = crate::model::roofline();
    let eff: Vec<(String, crate::model::KernelEfficiency)> = reports
        .iter()
        .flat_map(|rep| {
            let rank = rank_value(rep);
            rep.kernel_efficiency(roofline.as_ref())
                .into_iter()
                .map(move |e| (rank.clone(), e))
        })
        .collect();
    if !eff.is_empty() {
        let gauge = |out: &mut String, name: &str, help: &str, pick: &dyn Fn(&crate::model::KernelEfficiency) -> Option<f64>| {
            let mut wrote_meta = false;
            for (rank, e) in &eff {
                let Some(v) = pick(e) else { continue };
                if !wrote_meta {
                    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
                    wrote_meta = true;
                }
                out.push_str(&format!(
                    "{name}{{rank=\"{rank}\",kernel=\"{}\"}} {v:e}\n",
                    e.name
                ));
            }
        };
        gauge(
            &mut out,
            "rsparse_kernel_gflops",
            "Achieved GF/s per modelled kernel (model flops / measured seconds).",
            &|e| Some(e.gflops),
        );
        gauge(
            &mut out,
            "rsparse_kernel_gbs",
            "Achieved GB/s per modelled kernel (model bytes / measured seconds).",
            &|e| Some(e.gbs),
        );
        gauge(
            &mut out,
            "rsparse_kernel_ai",
            "Arithmetic intensity per modelled kernel (flops per byte).",
            &|e| Some(e.ai),
        );
        gauge(
            &mut out,
            "rsparse_kernel_roofline_pct",
            "Achieved GB/s as a percentage of the calibrated copy-bandwidth roofline.",
            &|e| e.pct_of_roofline,
        );
    }
    out
}

/// Handle to a running metrics server; stop it with [`MetricsServer::stop`].
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
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.shutdown();
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
        let mut hist_counts = [[0; hist::BUCKETS]; hist::HIST_COUNT];
        let mut hist_sums = [0; hist::HIST_COUNT];
        for &ns in collective_ns {
            hist_counts[hist::Hist::Collective.index()][hist::bucket(ns)] += 1;
            hist_sums[hist::Hist::Collective.index()] += ns;
        }
        RankReport::from_parts(
            Some(rank),
            counters,
            Vec::new(),
            Default::default(),
            Default::default(),
            Default::default(),
            hist_counts,
            hist_sums,
            Default::default(),
        )
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
