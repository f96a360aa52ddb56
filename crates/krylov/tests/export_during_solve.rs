//! Concurrent Prometheus scrapes against a live solve.
//!
//! The exporter answers every request with a fresh registry snapshot, so
//! two clients hitting it mid-`Universe::run` must each get a complete,
//! internally consistent page: a 200 with the exposition content type,
//! `# HELP` metadata before every `# TYPE`, and cumulative histogram
//! buckets that never decrease — even while all four rank threads are
//! mutating the counters under the scrape. A scrape after the solve names
//! the counter, span and histogram families a distributed CG produces.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rcomm::Universe;
use rkrylov::{Ksp, KspConfig, KspType, MatOperator, PcType};
use rsparse::{generate, BlockRowPartition, DistCsrMatrix, DistVector};

fn scrape(addr: std::net::SocketAddr) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect to the exporter");
    conn.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n").expect("send request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    response
}

/// Every `# TYPE <family> <kind>` line must be preceded by a
/// `# HELP <family> ...` line, and every sample line's family must have
/// been declared.
fn assert_metadata_complete(body: &str) {
    let mut last_help: Option<&str> = None;
    let mut declared: Vec<&str> = Vec::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let family = rest.split_whitespace().next().expect("HELP names a family");
            last_help = Some(family);
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let family = rest.split_whitespace().next().expect("TYPE names a family");
            assert_eq!(
                last_help,
                Some(family),
                "TYPE for {family} not directly preceded by its HELP"
            );
            declared.push(family);
        } else if !line.is_empty() {
            let name =
                line.split(['{', ' ']).next().expect("sample line starts with a metric name");
            let family = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(name);
            assert!(
                declared.contains(&family) || declared.contains(&name),
                "sample {name} has no declared family"
            );
        }
    }
    assert!(!declared.is_empty(), "page declared no metric families");
}

/// Histogram buckets are cumulative: within one (family, rank) series the
/// counts must be non-decreasing in `le` order and end at `+Inf`.
fn assert_buckets_monotone(body: &str) {
    let mut series: std::collections::BTreeMap<String, (u64, bool)> =
        std::collections::BTreeMap::new();
    let mut histogram_seen = false;
    for line in body.lines() {
        let Some((name_labels, value)) = line.rsplit_once(' ') else { continue };
        let Some((name, labels)) = name_labels.split_once('{') else { continue };
        let Some(family) = name.strip_suffix("_bucket") else { continue };
        histogram_seen = true;
        let rank = labels
            .split(',')
            .find(|l| l.starts_with("rank="))
            .expect("bucket carries a rank label");
        let key = format!("{family}/{rank}");
        let cum: u64 = value.parse().expect("bucket count is an integer");
        let terminal = labels.contains("le=\"+Inf\"");
        let entry = series.entry(key.clone()).or_insert((0, false));
        assert!(cum >= entry.0, "{key}: cumulative bucket decreased {} -> {cum}", entry.0);
        assert!(!entry.1, "{key}: bucket after the +Inf edge");
        *entry = (cum, terminal);
    }
    assert!(histogram_seen, "no histogram buckets in the page");
    for (key, (_, closed)) in &series {
        assert!(closed, "{key}: series did not end at le=\"+Inf\"");
    }
}

#[test]
fn concurrent_scrapes_mid_solve_are_consistent() {
    probe::set_mode(probe::ProbeMode::Summary);
    let server = probe::export::serve("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();

    let solve_done = Arc::new(AtomicBool::new(false));
    let done = Arc::clone(&solve_done);
    let solver = std::thread::spawn(move || {
        let n_side = 72usize;
        let a = generate::laplacian_2d(n_side);
        let n = n_side * n_side;
        let b = vec![1.0; n];
        let res = Universe::run(4, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
            let op = MatOperator::new(da);
            let db = DistVector::from_global(part.clone(), comm.rank(), &b).unwrap();
            // Fixed work, no early exit: the solve must outlive the
            // scrapes below on any machine.
            let ksp = Ksp::new(KspConfig {
                ksp_type: KspType::Cg,
                pc_type: PcType::Jacobi,
                rtol: 0.0,
                atol: 0.0,
                maxits: 600,
                ..KspConfig::default()
            })
            .unwrap();
            let mut x = DistVector::zeros(part, comm.rank());
            ksp.solve(comm, &op, &db, &mut x).unwrap().iterations
        });
        done.store(true, Ordering::SeqCst);
        res[0]
    });

    // Wait for the solve to be demonstrably in flight: iterations are
    // counted once per CG loop, so a page showing the counter proves the
    // rank threads are live inside `Universe::run`.
    let mut warm = String::new();
    for _ in 0..600 {
        warm = scrape(addr);
        if warm.contains("rsparse_ksp_iterations_total") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(
        warm.contains("rsparse_ksp_iterations_total"),
        "solve never became visible to the exporter"
    );
    assert!(
        !solve_done.load(Ordering::SeqCst),
        "workload finished before the concurrent scrapes could run"
    );

    // Two raw clients scraping at the same moment, mid-solve.
    let h1 = std::thread::spawn(move || scrape(addr));
    let h2 = std::thread::spawn(move || scrape(addr));
    let page1 = h1.join().expect("scraper 1");
    let page2 = h2.join().expect("scraper 2");

    let iterations = solver.join().expect("solve thread");
    assert_eq!(iterations, 600, "fixed-work solve ran to maxits");
    // The finished solve left every family a dashboard is built on.
    let after = scrape(addr);
    server.stop();
    for family in [
        "# TYPE rsparse_ksp_iterations_total counter",
        "# TYPE rsparse_span_seconds_total counter",
        "rsparse_span_seconds_total{rank=\"0\",span=\"allreduce\"}",
        "# TYPE rsparse_iter_time_seconds histogram",
        "# TYPE rsparse_collective_seconds histogram",
        "# TYPE rsparse_halo_drain_wait_seconds histogram",
    ] {
        assert!(after.contains(family), "missing {family:?} after the solve:\n{after}");
    }

    for (who, page) in [("scrape 1", &page1), ("scrape 2", &page2)] {
        assert!(page.starts_with("HTTP/1.0 200 OK"), "{who}: expected 200, got:\n{page}");
        assert!(
            page.contains("text/plain; version=0.0.4"),
            "{who}: exposition content type missing"
        );
        let body = page.split("\r\n\r\n").nth(1).expect("header/body split");
        assert_metadata_complete(body);
        assert_buckets_monotone(body);
        assert!(
            body.contains("rsparse_span_seconds_total"),
            "{who}: span family missing mid-solve"
        );
    }
}
