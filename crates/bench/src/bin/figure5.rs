//! Regenerate the paper's Figure 5: CCA-component vs native execution
//! time for the RKSP / RAztec / RSLU packages on 1, 2, 4 and 8
//! processors, at the paper's problem size (m = 200, nnz = 199 200).
//!
//! ```text
//! cargo run -p lisi-bench --release --bin figure5 [-- --quick]
//! ```
//!
//! The paper's claim is visual: the two curves per package are "almost
//! overlaid on each other". The text output prints both series plus the
//! overhead percentage so the overlay claim can be checked numerically.

use lisi_bench::tables::{figure5_series, format_figure5};
use lisi_bench::{paper_workload, run_cca, run_native, Package};
use rcomm::Universe;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (m, reps) = if quick { (50usize, 3) } else { (200usize, 10) };
    let counts = [1usize, 2, 4, 8];
    eprintln!(
        "Figure 5 reproduction: m = {m} (nnz = {}), ranks {counts:?}, {reps} runs each",
        5 * m * m - 4 * m
    );
    let points = figure5_series(m, &counts, reps);
    println!("{}", format_figure5(&points));
    println!("paper claim: per package, CCA and NonCCA curves nearly overlay (small overhead).");

    // Per-rank Table-1-style breakdown, measured by the probe subsystem
    // itself (port-boundary overhead = self time of the `port:*` spans).
    // `RSPARSE_PROBE` picks the sink; the summary table is the default
    // here so the breakdown always prints.
    let mode = match probe::mode() {
        probe::ProbeMode::Off => probe::ProbeMode::Summary,
        m => m,
    };
    probe::set_mode(mode);
    probe::reset();
    let breakdown_ranks = if quick { 2usize } else { 8 };
    let w = paper_workload(m);
    Universe::run(breakdown_ranks, |comm| {
        let _ = run_native(comm, Package::Rksp, &w);
        let _ = run_cca(comm, Package::Rksp, &w);
    });
    let reports = probe::aggregate();
    println!();
    println!(
        "per-rank setup/solve/port-overhead breakdown (RKSP, m = {m}, {breakdown_ranks} ranks, probe={}):",
        mode.name()
    );
    print!("{}", probe::render_breakdown(&reports));
    match mode {
        probe::ProbeMode::Json => print!("{}", probe::render_jsonl(&reports)),
        probe::ProbeMode::Chrome => {
            probe::write_chrome_trace("probe_trace.json").expect("write probe_trace.json");
            eprintln!("chrome trace written to probe_trace.json (load in chrome://tracing)");
        }
        probe::ProbeMode::Flight => print!("{}", probe::render_flight()),
        _ => {}
    }
    // Non-empty only when causal tracing was armed (RSPARSE_TRACE=1).
    print!("{}", probe::critpath::render_latest());
}
