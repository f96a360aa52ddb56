//! The smoke test: one `--quick` run of the whole benchmark, held against
//! what `BENCHMARK.json` declares. One test function, because runs share
//! `benchmark/out/` and the machine's two cores.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use serde_json::Value;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf()
}

/// Run lisibench from the repository root and parse its standard output.
fn lisibench(args: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_lisibench"))
        .args(args)
        .current_dir(repo_root())
        // The benchmark must scrub these itself.
        .env("RSPARSE_THREADS", "4")
        .env("RSPARSE_PROBE", "summary")
        .output()
        .expect("start lisibench");
    assert!(
        out.status.success(),
        "lisibench {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::from_slice(&out.stdout).expect("standard output is one JSON document")
}

/// `(workload, metric) → value` of a summary.
fn values(summary: &Value) -> BTreeMap<(String, String), f64> {
    summary["metrics"]
        .as_array()
        .expect("metrics array")
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m[k].as_str()
                    .unwrap_or_else(|| panic!("metric lacks {k}"))
                    .to_string()
            };
            assert!(!text("unit").is_empty());
            for k in ["n", "median", "p75"] {
                assert!(m[k].as_f64().is_some(), "metric lacks {k}");
            }
            (
                (text("workload"), text("name")),
                m["value"].as_f64().expect("numeric value"),
            )
        })
        .collect()
}

fn names(declared: &Value, key: &str) -> Vec<String> {
    declared[key]
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|e| e["name"].as_str().expect("name").to_string())
        .collect()
}

#[test]
fn quick_run_prints_every_declared_metric_for_every_workload() {
    let declared: Value = serde_json::from_str(
        &std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json"),
    )
    .expect("parse BENCHMARK.json");
    let workloads = names(&declared, "workloads");
    let metrics: Vec<String> = names(&declared, "end_to_end")
        .into_iter()
        .chain(names(&declared, "per_layer"))
        .collect();
    for name in workloads.iter().chain(&metrics) {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad name {name:?}"
        );
    }

    let started = Instant::now();
    let summary = lisibench(&["--quick", "--seed", "1"]);
    let took = started.elapsed().as_secs_f64();
    // The bound is for the optimized build; `cargo test` without --release is slower.
    assert!(
        cfg!(debug_assertions) || took < 20.0,
        "--quick took {took:.1} s"
    );

    assert_eq!(summary["correct"].as_bool(), Some(true));
    assert_eq!(summary["failed"].as_u64(), Some(0));
    let first = values(&summary);
    for w in &workloads {
        for m in &metrics {
            assert!(first.contains_key(&(w.clone(), m.clone())), "{w} lacks {m}");
        }
        assert_eq!(
            first[&(w.clone(), "failed_frac".to_string())],
            0.0,
            "{w} has failed requests"
        );
        for m in ["solve_s", "setup_s", "peak_rss_mb"] {
            assert!(
                first[&(w.clone(), m.to_string())] > 0.0,
                "{w} {m} must not be 0"
            );
        }
    }

    // Exact counts repeat for one seed: the traced pass again, same seed.
    let again = values(&lisibench(&["--quick", "--seed", "1", "--trace-only"]));
    let exact = [
        "krylov.iterations",
        "aztec.iterations",
        "comm.allreduces_per_solve",
        "comm.sends_per_solve",
        "direct.fill_nnz",
        "sparse.spmv_calls",
    ];
    for w in &workloads {
        for m in exact {
            let key = (w.clone(), m.to_string());
            assert_eq!(
                first[&key], again[&key],
                "{w} {m} differs between two runs of seed 1"
            );
        }
    }
    let iterative = workloads
        .iter()
        .filter(|w| first[&((*w).clone(), "comm.allreduces_per_solve".to_string())] > 1.0)
        .count();
    assert_eq!(iterative, 6, "every Krylov workload reduces");
}
