//! Regenerate the paper's Table 1: computing times of the RKSP (PETSc
//! stand-in) component with and without the LISI interface, on 8
//! processors, over the paper's five problem sizes.
//!
//! ```text
//! cargo run -p lisi-bench --release --bin table1 [-- --quick]
//! ```
//!
//! `--quick` runs smaller grids (m = 25..100) with fewer repetitions for
//! a fast sanity pass.

use lisi_bench::tables::{format_table1, table1_rows};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (grids, reps) = if quick {
        (vec![25usize, 50, 75, 100], 3)
    } else {
        (rmesh::PAPER_GRID_SIZES.to_vec(), 10)
    };
    let processors = 8;
    eprintln!(
        "Table 1 reproduction: RKSP component, {processors} ranks, grids {grids:?}, {reps} runs each"
    );
    // Default the probe to the summary sink so the per-rank breakdown
    // below always prints; RSPARSE_PROBE=json|chrome overrides.
    let mode = match probe::mode() {
        probe::ProbeMode::Off => probe::ProbeMode::Summary,
        m => m,
    };
    probe::set_mode(mode);
    probe::reset();
    let rows = table1_rows(&grids, processors, reps);
    println!("{}", format_table1(&rows));
    let reports = probe::aggregate();
    println!(
        "per-rank setup/solve/port-overhead breakdown (cumulative over all grids and reps, probe={}):",
        mode.name()
    );
    print!("{}", probe::render_breakdown(&reports));
    if mode == probe::ProbeMode::Json {
        print!("{}", probe::render_jsonl(&reports));
    }
    if mode == probe::ProbeMode::Chrome {
        probe::write_chrome_trace("probe_trace.json").expect("write probe_trace.json");
        eprintln!("chrome trace written to probe_trace.json (load in chrome://tracing)");
    }
    if mode == probe::ProbeMode::Flight {
        print!("{}", probe::render_flight());
    }
    // Non-empty only when causal tracing was armed (RSPARSE_TRACE=1).
    print!("{}", probe::critpath::render_latest());
    println!();
    println!("paper reference (PETSc on 8 cluster nodes):");
    println!("| 12300  | 0.086   | 0.070     | +0.016/18.61     | 36    |");
    println!("| 49600  | 0.189   | 0.144     | +0.045/23.73     | 67    |");
    println!("| 199200 | 0.475   | 0.428     | +0.047/9.86      | 108   |");
    println!("| 448800 | 1.283   | 1.265     | +0.018/1.36      | 165   |");
    println!("| 798400 | 2.585   | 2.562     | +0.023/0.90      | 221   |");
}
