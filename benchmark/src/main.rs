//! `lisibench`: the repository's end-to-end benchmark of the LISI port.
//!
//! With `--trace 0|1` it is one run of one workload in this process and
//! prints the result line the driver reads. Without, it runs every workload
//! in child processes, an untraced pass in interleaved rounds and then a
//! traced pass, and prints a summary. See `benchmark/README.md`.

mod catalog;
mod full;
mod measure;
mod native;
mod session;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use measure::RunArgs;
use stats::Summary;

/// Files the benchmark generates go here, relative to the working
/// directory (the root of the checkout).
pub const OUT_DIR: &str = "benchmark/out";

/// The command line, checked where it enters.
#[derive(Debug, Clone)]
pub struct Cli {
    pub workload: Option<&'static workloads::Workload>,
    pub seed: u64,
    pub seconds: Option<f64>,
    /// `Some` selects one run in this process.
    pub trace: Option<bool>,
    pub quick: bool,
    pub trace_only: bool,
    pub aa: bool,
    /// Runs per set in `--aa`.
    pub runs: usize,
    /// Where one run writes its samples for the parent process.
    pub detail: Option<PathBuf>,
}

const USAGE: &str = "usage: lisibench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--trace-only] [--aa [--runs N]]";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        trace_only: false,
        aa: false,
        runs: 3,
        detail: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(workloads::find(name).ok_or_else(|| {
                    let known: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{name}'; known: {}", known.join(", "))
                })?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--runs" => {
                cli.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if !(1..=50).contains(&cli.runs) {
                    return Err("--runs must lie in 1..=50".into());
                }
            }
            "--detail" => cli.detail = Some(PathBuf::from(value()?)),
            "--quick" => cli.quick = true,
            "--trace-only" => cli.trace_only = true,
            "--aa" => cli.aa = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if cli.trace.is_some() && cli.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(cli)
}

/// One named value with its unit and the diagnostics beside it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub summary: Summary,
}

/// What one run in this process produced.
pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Raw samples of the untraced pass, for pooling across rounds.
    pub samples: measure::Samples,
}

fn run_here(w: &'static workloads::Workload, args: RunArgs, traced: bool) -> RunResult {
    if traced {
        let t = traced::run(w, args);
        std::fs::create_dir_all(OUT_DIR).expect("create the output directory");
        std::fs::write(format!("{OUT_DIR}/trace.json"), trace::to_json(&t.spans))
            .expect("write trace.json");
        RunResult {
            metrics: t.metrics,
            attempted: t.attempted,
            failed: t.failed,
            failures: t.failures,
            samples: measure::Samples::default(),
        }
    } else {
        let s = measure::run(w, args);
        let metrics = vec![
            Metric {
                name: "solve_s",
                summary: Summary::of(&s.solve_s),
            },
            Metric {
                name: "setup_s",
                summary: Summary::of(&s.setup_s),
            },
            Metric {
                name: "peak_rss_mb",
                summary: Summary::single(s.peak_rss_mb),
            },
        ];
        RunResult {
            metrics,
            attempted: s.attempted,
            failed: s.failed,
            failures: s.failures.clone(),
            samples: s,
        }
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn json_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", items.join(","))
}

/// The one line the driver reads: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                m.summary.value,
                json_str(catalog::unit_of(m.name))
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(",")
    )
}

/// The same run with its samples and diagnostics, for the parent process.
fn detail_json(w: &workloads::Workload, seed: u64, r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let s = m.summary;
            format!(
                "{{\"name\":{},\"value\":{},\"n\":{},\"median\":{},\"p75\":{}}}",
                json_str(m.name),
                s.value,
                s.n,
                s.median,
                s.p75
            )
        })
        .collect();
    let failures: Vec<String> = r.failures.iter().map(|f| json_str(f)).collect();
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"solve_s\":{},\"setup_s\":{},\"solve_wall_s\":{},\"setup_wall_s\":{},\"host_slowdown\":{},\"metrics\":[{}]}}\n",
        json_str(w.name),
        r.attempted,
        r.failed,
        failures.join(","),
        json_array(&r.samples.solve_s),
        json_array(&r.samples.setup_s),
        json_array(&r.samples.solve_wall_s),
        json_array(&r.samples.setup_wall_s),
        json_array(&r.samples.host_slowdown),
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    // None of the 19 environment knobs may bend a run. Nothing has spawned
    // a thread yet, so removing variables is sound.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RSPARSE_") || k.starts_with("RCOMM_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("lisibench: {e}");
            return ExitCode::from(2);
        }
    };
    let (Some(w), Some(traced)) = (cli.workload, cli.trace) else {
        return if cli.aa {
            full::aa(&cli)
        } else {
            full::run(&cli)
        };
    };

    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(full::DEFAULT_SECONDS),
        quick: cli.quick,
    };
    let r = run_here(w, args, traced);
    for why in &r.failures {
        eprintln!("lisibench: {}: failed request: {why}", w.name);
    }
    if let Some(path) = &cli.detail {
        if let Err(e) = std::fs::write(path, detail_json(w, cli.seed, &r)) {
            eprintln!("lisibench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    // A workload that produced no sample has no result to print.
    if !traced && r.metrics.iter().any(|m| m.summary.n == 0) {
        eprintln!("lisibench: {}: no samples", w.name);
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(&r));
    ExitCode::SUCCESS
}
