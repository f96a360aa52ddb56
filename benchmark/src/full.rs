//! The whole benchmark from one command: every workload in child
//! processes, so the process-wide session cache, probe registry and
//! allocator never leak from one workload into the next and `VmHWM` is per
//! workload. Rounds are interleaved across workloads, so a contended spell
//! of the host lands on all of them and not on one.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use serde_json::Value;

use crate::stats::{median, spread, Summary};
use crate::workloads::{Workload, WORKLOADS};
use crate::{catalog, json_str, Cli, OUT_DIR};

/// Rounds of the untraced pass.
const ROUNDS: usize = 3;
/// Seconds one child measures for, unless `--seconds` says otherwise.
pub const DEFAULT_SECONDS: f64 = 2.0;
const QUICK_SECONDS: f64 = 0.25;

/// One child run's detail file, parsed.
struct Detail {
    attempted: u64,
    failed: u64,
    solve_s: Vec<f64>,
    setup_s: Vec<f64>,
    metrics: Vec<(String, Summary)>,
}

fn floats(v: &Value) -> Vec<f64> {
    v.as_array()
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn parse_detail(text: &str) -> Result<Detail, String> {
    let v = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let count = |k: &str| {
        v.get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("detail file lacks {k}"))
    };
    let metrics = v
        .get("metrics")
        .and_then(Value::as_array)
        .ok_or("detail file lacks metrics")?
        .iter()
        .filter_map(|m| {
            let num = |k: &str| m.get(k).and_then(Value::as_f64);
            Some((
                m.get("name")?.as_str()?.to_string(),
                Summary {
                    value: num("value")?,
                    n: num("n")? as usize,
                    median: num("median")?,
                    p75: num("p75")?,
                },
            ))
        })
        .collect();
    Ok(Detail {
        attempted: count("attempted")?,
        failed: count("failed")?,
        solve_s: floats(&v["solve_s"]),
        setup_s: floats(&v["setup_s"]),
        metrics,
    })
}

/// Run one workload once in a child process and read back its detail file.
/// Children never overlap: they would contend for the same two cores.
fn child(
    cli: &Cli,
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    label: &str,
) -> Result<Detail, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let detail = PathBuf::from(format!("{OUT_DIR}/{}.{label}.json", w.name));
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args(["--trace", if traced { "1" } else { "0" }])
    .arg("--detail")
    .arg(&detail);
    if cli.quick {
        cmd.arg("--quick");
    }
    // The child's result line is for a driver; the parent reads the detail file.
    let out = cmd
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    if !out.success() {
        return Err(format!("{} ({label}) exited with {out}", w.name));
    }
    let text = std::fs::read_to_string(&detail)
        .map_err(|e| format!("cannot read {}: {e}", detail.display()))?;
    parse_detail(&text)
}

fn selected(cli: &Cli) -> Vec<&'static Workload> {
    cli.workload
        .map_or_else(|| WORKLOADS.iter().collect(), |w| vec![w])
}

/// One workload's samples pooled over the rounds.
#[derive(Clone, Default)]
struct Pool {
    solve_s: Vec<f64>,
    setup_s: Vec<f64>,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
}

/// One row of the summary.
struct Row {
    name: String,
    workload: &'static str,
    summary: Summary,
}

/// Untraced pass in interleaved rounds, traced pass, summary.
pub fn run(cli: &Cli) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("lisibench: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let workloads = selected(cli);
    let seconds = cli.seconds.unwrap_or(if cli.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let rounds = if cli.quick { 1 } else { ROUNDS };
    let mut rows: Vec<Row> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems: Vec<String> = Vec::new();

    if !cli.trace_only {
        let mut pooled = vec![Pool::default(); workloads.len()];
        for round in 1..=rounds {
            for (w, pool) in workloads.iter().zip(&mut pooled) {
                eprintln!("lisibench: round {round}/{rounds} {}", w.name);
                match child(cli, w, cli.seed, seconds, false, &format!("round{round}")) {
                    Ok(d) => {
                        pool.attempted += d.attempted;
                        pool.failed += d.failed;
                        pool.solve_s.extend(d.solve_s);
                        pool.setup_s.extend(d.setup_s);
                        let rss = d
                            .metrics
                            .iter()
                            .find(|m| m.0 == "peak_rss_mb")
                            .map_or(0.0, |m| m.1.value);
                        pool.peak_rss_mb = pool.peak_rss_mb.max(rss);
                    }
                    Err(e) => problems.push(e),
                }
            }
        }
        for (w, pool) in workloads.iter().zip(&pooled) {
            if pool.solve_s.is_empty() || pool.setup_s.is_empty() {
                problems.push(format!("{}: no samples", w.name));
            }
            attempted += pool.attempted;
            failed += pool.failed;
            let share = if pool.attempted > 0 {
                pool.failed as f64 / pool.attempted as f64
            } else {
                0.0
            };
            for (name, summary) in [
                ("solve_s", Summary::of(&pool.solve_s)),
                ("setup_s", Summary::of(&pool.setup_s)),
                ("peak_rss_mb", Summary::single(pool.peak_rss_mb)),
                ("failed_frac", Summary::single(share)),
            ] {
                rows.push(Row {
                    name: name.into(),
                    workload: w.name,
                    summary,
                });
            }
        }
    }

    for w in &workloads {
        eprintln!("lisibench: traced {}", w.name);
        match child(cli, w, cli.seed, seconds, true, "traced") {
            Ok(d) => {
                attempted += d.attempted;
                failed += d.failed;
                rows.extend(d.metrics.into_iter().map(|(name, summary)| Row {
                    name,
                    workload: w.name,
                    summary,
                }));
            }
            Err(e) => problems.push(e),
        }
    }

    print_table(&rows);
    let correct = failed == 0 && problems.is_empty();
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            let unit = if r.name == "failed_frac" { "fraction" } else { catalog::unit_of(&r.name) };
            format!(
                "{{\"name\":{},\"unit\":{},\"workload\":{},\"value\":{},\"n\":{},\"median\":{},\"p75\":{}}}",
                json_str(&r.name),
                json_str(unit),
                json_str(r.workload),
                r.summary.value,
                r.summary.n,
                r.summary.median,
                r.summary.p75
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"seed\":{},\"quick\":{},\"estimator\":\"lower quartile, nearest rank\",\"metrics\":[\n{}\n]}}",
        cli.seed,
        cli.quick,
        body.join(",\n")
    );
    for p in &problems {
        eprintln!("lisibench: {p}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("lisibench: {failed} of {attempted} requests failed");
        ExitCode::FAILURE
    }
}

/// The human table, on standard error: one line per metric, one column per workload.
fn print_table(rows: &[Row]) {
    let mut workloads: Vec<&str> = Vec::new();
    let mut names: Vec<&str> = Vec::new();
    for r in rows {
        if !workloads.contains(&r.workload) {
            workloads.push(r.workload);
        }
        if !names.contains(&r.name.as_str()) {
            names.push(&r.name);
        }
    }
    eprint!("{:<28}", "metric [unit]");
    for w in &workloads {
        eprint!(" {w:>14}");
    }
    eprintln!();
    for name in names {
        let unit = if name == "failed_frac" {
            "fraction"
        } else {
            catalog::unit_of(name)
        };
        eprint!("{:<28}", format!("{name} [{unit}]"));
        for w in &workloads {
            match rows.iter().find(|r| r.name == name && r.workload == *w) {
                Some(r) => eprint!(" {:>14}", four_digits(r.summary.value)),
                None => eprint!(" {:>14}", "-"),
            }
        }
        eprintln!();
    }
}

/// Four significant digits, plain where that is readable.
fn four_digits(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".into()
    } else if (1e-3..1e7).contains(&a) {
        let decimals = (3 - a.log10().floor() as i32).max(0) as usize;
        format!("{v:.decimals$}")
    } else {
        format!("{v:.3e}")
    }
}

/// `(name, bound)` of the end-to-end metrics and the run length, from `BENCHMARK.json`.
fn contract() -> Result<(Vec<(String, f64)>, f64), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json from the working directory: {e}"))?;
    let v = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let bounds = v["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json lacks end_to_end")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let seconds = v["run_seconds"]
        .as_f64()
        .ok_or("BENCHMARK.json lacks run_seconds")?;
    Ok((bounds, seconds))
}

/// A/A: the same tree measured in two sets of `--runs` runs, each run with
/// another seed, as the driver does it. A metric agrees when each set's
/// spread (interquartile range over median) stays within its bound and the
/// second median is not worse than the first by more than the bound; the
/// exact counts of a traced run must agree exactly.
pub fn aa(cli: &Cli) -> ExitCode {
    let (bounds, run_seconds) = match contract() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("lisibench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("lisibench: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let seconds = cli.seconds.unwrap_or(run_seconds);
    let workloads = selected(cli);
    // values[set][workload][metric] = one value per run
    let mut values = vec![vec![vec![Vec::<f64>::new(); bounds.len()]; workloads.len()]; 2];
    let mut counts = vec![vec![Vec::<(String, f64)>::new(); workloads.len()]; 2];
    let mut agree = true;
    for set in 0..2 {
        for run in 0..cli.runs {
            for (wi, w) in workloads.iter().enumerate() {
                let seed = cli.seed + run as u64;
                eprintln!(
                    "lisibench: set {} run {}/{} {}",
                    ["A", "B"][set],
                    run + 1,
                    cli.runs,
                    w.name
                );
                match child(cli, w, seed, seconds, false, &format!("aa{set}.{run}")) {
                    Ok(d) => {
                        agree &= d.failed == 0;
                        for (mi, (name, _)) in bounds.iter().enumerate() {
                            if let Some(m) = d.metrics.iter().find(|m| &m.0 == name) {
                                values[set][wi][mi].push(m.1.value);
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("lisibench: {e}");
                        agree = false;
                    }
                }
            }
        }
        for (wi, w) in workloads.iter().enumerate() {
            eprintln!("lisibench: set {} traced {}", ["A", "B"][set], w.name);
            match child(
                cli,
                w,
                cli.seed,
                seconds.min(DEFAULT_SECONDS),
                true,
                &format!("aa{set}.traced"),
            ) {
                Ok(d) => {
                    counts[set][wi] = d
                        .metrics
                        .into_iter()
                        .filter(|m| catalog::EXACT_COUNTS.contains(&m.0.as_str()))
                        .map(|m| (m.0, m.1.value))
                        .collect()
                }
                Err(e) => {
                    eprintln!("lisibench: {e}");
                    agree = false;
                }
            }
        }
    }

    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "drift", "spread A", "spread B", "bound"
    );
    for (wi, w) in workloads.iter().enumerate() {
        for (mi, (name, bound)) in bounds.iter().enumerate() {
            let (a, b) = (&values[0][wi][mi], &values[1][wi][mi]);
            let (ma, mb) = (median(a), median(b));
            // Every end-to-end metric is better when lower.
            let drift = if ma > 0.0 { (mb - ma) / ma } else { 0.0 };
            let (sa, sb) = (spread(a), spread(b));
            let steady = name == "setup_s" || (sa <= *bound && sb <= *bound);
            let ok = !a.is_empty() && !b.is_empty() && drift <= *bound && steady;
            agree &= ok;
            println!(
                "{:<16} {:<12} {:>12.6} {:>12.6} {:>+8.3} {:>8.3} {:>8.3} {:>6.2}  {}",
                w.name,
                name,
                ma,
                mb,
                drift,
                sa,
                sb,
                bound,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
        let same = counts[0][wi] == counts[1][wi] && !counts[0][wi].is_empty();
        agree &= same;
        println!(
            "{:<16} exact counts {}",
            w.name,
            if same { "agree exactly" } else { "DISAGREE" }
        );
        if !same {
            println!("  A: {:?}\n  B: {:?}", counts[0][wi], counts[1][wi]);
        }
    }
    if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
