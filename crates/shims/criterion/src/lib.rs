//! In-tree stand-in for the `criterion` crate, so the workspace builds and
//! benches run without a network registry. It keeps the same calling
//! convention (`criterion_group!`, `criterion_main!`, groups, `Bencher::
//! iter`) but measures with a plain warmup + timed-loop scheme and writes
//! one small JSON file per benchmark under `target/criterion-shim/` so
//! scripts can scrape results.
//!
//! Recognised CLI arguments (all optional): a positional substring filter,
//! `--measurement-time <secs>`, `--warm-up-time <secs>`. Anything else
//! (e.g. the `--bench` flag cargo passes) is ignored. The environment
//! variables `BENCH_MEASURE_MS` / `BENCH_WARMUP_MS` override the defaults
//! when no flag is given.

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-exported optimization barrier.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Throughput annotation for a group; turns mean time into a rate.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A `function/parameter` benchmark identifier.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Join a function name and a displayable parameter.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function_name.into(), parameter) }
    }
}

/// Things usable as a benchmark id (plain strings or [`BenchmarkId`]).
pub trait IntoBenchmarkId {
    /// The `function` or `function/parameter` string.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// The timing loop handle passed to every benchmark closure.
pub struct Bencher {
    warmup: Duration,
    measure: Duration,
    /// Mean nanoseconds per iteration, filled by [`Bencher::iter`].
    mean_ns: f64,
}

impl Bencher {
    /// Run `f` repeatedly: warm up, then time batches until the
    /// measurement window is exhausted, recording the mean latency.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let warm_end = Instant::now() + self.warmup;
        let mut warm_iters: u64 = 0;
        while Instant::now() < warm_end {
            std_black_box(f());
            warm_iters += 1;
        }
        // Batch size from the warmup rate so we check the clock rarely.
        let batch = (warm_iters / 50).max(1);
        let start = Instant::now();
        let mut iters: u64 = 0;
        loop {
            for _ in 0..batch {
                std_black_box(f());
            }
            iters += batch;
            if start.elapsed() >= self.measure {
                break;
            }
        }
        self.mean_ns = start.elapsed().as_nanos() as f64 / iters as f64;
    }

    /// Let `routine(iters)` time `iters` iterations itself and return the
    /// time they took, so set-up around them stays outside the measure:
    /// warm up while doubling `iters` until one call takes a tenth of the
    /// measurement window, then record the mean over the window.
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut routine: F) {
        let warm_end = Instant::now() + self.warmup;
        let mut iters: u64 = 1;
        loop {
            let took = routine(iters);
            if Instant::now() >= warm_end {
                break;
            }
            if took < self.measure / 10 {
                iters *= 2;
            }
        }
        let start = Instant::now();
        let (mut timed, mut total) = (Duration::ZERO, 0u64);
        loop {
            timed += routine(iters);
            total += iters;
            if start.elapsed() >= self.measure {
                break;
            }
        }
        self.mean_ns = timed.as_nanos() as f64 / total as f64;
    }
}

/// The top-level harness context; holds CLI configuration.
pub struct Criterion {
    filter: Option<String>,
    warmup: Duration,
    measure: Duration,
}

fn env_ms(key: &str, default_ms: u64) -> Duration {
    Duration::from_millis(
        std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default_ms),
    )
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            filter: None,
            warmup: env_ms("BENCH_WARMUP_MS", 200),
            measure: env_ms("BENCH_MEASURE_MS", 900),
        }
    }
}

impl Criterion {
    /// Build from `std::env::args`, accepting the argument subset described
    /// in the crate docs.
    pub fn from_args() -> Self {
        let mut c = Criterion::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--measurement-time" => {
                    if let Some(secs) = args.next().and_then(|v| v.parse::<f64>().ok()) {
                        c.measure = Duration::from_secs_f64(secs);
                    }
                }
                "--warm-up-time" => {
                    if let Some(secs) = args.next().and_then(|v| v.parse::<f64>().ok()) {
                        c.warmup = Duration::from_secs_f64(secs);
                    }
                }
                "--sample-size" => {
                    let _ = args.next(); // accepted for compatibility; unused
                }
                flag if flag.starts_with('-') => {}
                positional => c.filter = Some(positional.to_string()),
            }
        }
        c
    }

    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { crit: self, name: name.into(), throughput: None }
    }

    /// Benchmark outside any group (group name defaults to the id).
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl IntoBenchmarkId, f: F) {
        let id = id.into_id();
        let mut g = BenchmarkGroup { crit: self, name: id.clone(), throughput: None };
        g.bench_function(id, f);
    }
}

/// A group of related benchmarks sharing a name prefix and throughput.
pub struct BenchmarkGroup<'a> {
    crit: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for compatibility; the shim sizes samples by wall-clock.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Annotate subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl IntoBenchmarkId, mut f: F) {
        let full = format!("{}/{}", self.name, id.into_id());
        if let Some(filter) = &self.crit.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher { warmup: self.crit.warmup, measure: self.crit.measure, mean_ns: 0.0 };
        f(&mut b);
        report(&full, b.mean_ns, self.throughput);
    }

    /// Run one benchmark parameterised by `input`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) {
        self.bench_function(id, |b| f(b, input));
    }

    /// Close the group (no-op; kept for API compatibility).
    pub fn finish(self) {}
}

fn report(full_id: &str, mean_ns: f64, throughput: Option<Throughput>) {
    let rate = match throughput {
        Some(Throughput::Elements(n)) | Some(Throughput::Bytes(n)) => {
            Some(n as f64 / (mean_ns * 1e-9))
        }
        None => None,
    };
    match rate {
        Some(r) => println!("bench {full_id:<40} {mean_ns:>14.1} ns/iter  {r:>14.3e} /s"),
        None => println!("bench {full_id:<40} {mean_ns:>14.1} ns/iter"),
    }
    // One JSON blob per benchmark so shell scripts can scrape results
    // without a JSON parser: target/criterion-shim/<mangled id>.json
    let out_dir =
        std::env::var("CRITERION_SHIM_OUT").unwrap_or_else(|_| "target/criterion-shim".to_string());
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let fname = format!("{}/{}.json", out_dir, full_id.replace('/', "_"));
        let rate_field = rate.map(|r| format!(",\"per_sec\":{r:.3}")).unwrap_or_default();
        let body = format!("{{\"id\":\"{full_id}\",\"mean_ns\":{mean_ns:.1}{rate_field}}}\n");
        let _ = std::fs::write(fname, body);
    }
}

/// Declare a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declare the bench binary's `main`, running every listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something_positive() {
        let mut b = Bencher {
            warmup: Duration::from_millis(5),
            measure: Duration::from_millis(20),
            mean_ns: 0.0,
        };
        let mut acc = 0u64;
        b.iter(|| {
            acc = acc.wrapping_add(black_box(1));
        });
        assert!(b.mean_ns > 0.0);
        assert!(acc > 0);
    }

    #[test]
    fn iter_custom_averages_the_time_the_routine_reports() {
        let mut b = Bencher {
            warmup: Duration::from_millis(2),
            measure: Duration::from_millis(10),
            mean_ns: 0.0,
        };
        // Each iteration "takes" 1 µs whatever the wall clock says.
        b.iter_custom(|iters| {
            std::thread::sleep(Duration::from_micros(100));
            Duration::from_micros(iters)
        });
        assert_eq!(b.mean_ns, 1000.0);
    }

    #[test]
    fn benchmark_id_formats_like_criterion() {
        assert_eq!(BenchmarkId::new("serial", 200).into_id(), "serial/200");
    }

    #[test]
    fn group_runs_and_respects_filter() {
        let mut c = Criterion {
            filter: Some("nomatch".into()),
            warmup: Duration::from_millis(1),
            measure: Duration::from_millis(1),
        };
        let mut ran = false;
        let mut g = c.benchmark_group("g");
        g.bench_function("x", |b| {
            ran = true;
            b.iter(|| 1 + 1);
        });
        g.finish();
        assert!(!ran, "filter must skip non-matching benchmarks");
    }
}
