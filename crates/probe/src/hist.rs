//! Fixed-bucket log2 latency histograms.
//!
//! The latency families ([`Hist`]) share one bucket layout: bucket `i`
//! holds durations in `[2^i, 2^(i+1))` nanoseconds, with the last bucket
//! open-ended. Nothing records into them directly: a family is a row of
//! the span-name table below, filled by [`crate::emit_since`] from the
//! same interval the span table gets (one `leading_zeros` and two adds
//! under the lock the event already holds), and [`Hist::IterTime`] is
//! the gap between a solve's consecutive `Iter` events.
//!
//! Buckets merge across ranks by plain addition; the summary sink renders
//! count/p50/p90/p99/max quantile columns and the Prometheus exporter
//! emits the cumulative-bucket form (`_bucket{le=...}`, `_sum`, `_count`).

/// Which latency family a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Wall-clock between successive accepted Krylov iterations.
    IterTime = 0,
    /// Time blocked draining halo receives in a distributed SpMV.
    HaloDrain = 1,
    /// Latency of one blocking reduction (`allreduce`/`allreduce_vec`).
    Collective = 2,
    /// Time a solve waited to be admitted by the session layer.
    SessionWait = 3,
}

/// Number of histogram families.
pub const HIST_COUNT: usize = 4;

/// Number of log2 buckets: `[2^0, 2^1) ns` through `[2^39, ∞) ns` (~9 min),
/// which comfortably spans sub-microsecond collectives to stalled solves.
pub const BUCKETS: usize = 40;

/// Every family, in declaration order (render / export order).
pub const ALL: [Hist; HIST_COUNT] =
    [Hist::IterTime, Hist::HaloDrain, Hist::Collective, Hist::SessionWait];

/// Span name → the family its closes also sample.
const SPAN_FAMILIES: [(&str, Hist); 4] = [
    ("allreduce", Hist::Collective),
    ("halo_drain", Hist::HaloDrain),
    ("halo_drain_multi", Hist::HaloDrain),
    ("session_admit", Hist::SessionWait),
];

impl Hist {
    /// Stable snake_case name used by the sink and the exporter.
    pub fn name(self) -> &'static str {
        match self {
            Hist::IterTime => "iter_time",
            Hist::HaloDrain => "halo_drain_wait",
            Hist::Collective => "collective",
            Hist::SessionWait => "session_wait",
        }
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// The family a closed span named `name` samples, if any.
    #[inline]
    pub(crate) fn of_span(name: &str) -> Option<Hist> {
        SPAN_FAMILIES.iter().find(|(span, _)| *span == name).map(|&(_, h)| h)
    }
}

/// Bucket index for a duration in nanoseconds.
#[inline]
pub(crate) fn bucket(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ((63 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Upper edge of bucket `i` in seconds (`+inf` for the last bucket).
pub(crate) fn upper_edge_s(i: usize) -> f64 {
    if i + 1 >= BUCKETS {
        f64::INFINITY
    } else {
        (1u64 << (i + 1)) as f64 * 1e-9
    }
}

/// Merged view of one family's buckets: counts, total, and quantiles.
#[derive(Debug, Default, Clone, Copy)]
pub struct HistSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples in seconds.
    pub sum_s: f64,
    /// Median (bucket upper edge containing the 50th percentile).
    pub p50_s: f64,
    /// 90th percentile (bucket upper edge).
    pub p90_s: f64,
    /// 99th percentile (bucket upper edge).
    pub p99_s: f64,
    /// Upper edge of the highest non-empty bucket.
    pub max_s: f64,
}

/// Summarize a bucket array (counts per log2 bucket) into quantiles.
/// Quantiles resolve to the *upper edge* of the containing bucket — a
/// conservative estimate consistent with Prometheus `histogram_quantile`.
pub fn summarize(buckets: &[u64; BUCKETS], sum_ns: u64) -> HistSummary {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return HistSummary::default();
    }
    let q = |frac: f64| -> f64 {
        let target = (frac * count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return upper_edge_s(i);
            }
        }
        upper_edge_s(BUCKETS - 1)
    };
    let max_bucket = buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
    HistSummary {
        count,
        sum_s: sum_ns as f64 * 1e-9,
        p50_s: q(0.50),
        p90_s: q(0.90),
        p99_s: q(0.99),
        max_s: upper_edge_s(max_bucket),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 0);
        assert_eq!(bucket(2), 1);
        assert_eq!(bucket(3), 1);
        assert_eq!(bucket(1024), 10);
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn upper_edges_are_powers_of_two_with_open_tail() {
        assert_eq!(upper_edge_s(0), 2e-9);
        assert_eq!(upper_edge_s(10), 2048e-9);
        assert!(upper_edge_s(BUCKETS - 1).is_infinite());
    }

    #[test]
    fn summarize_reports_quantiles_from_cumulative_counts() {
        let mut b = [0u64; BUCKETS];
        // 90 samples at ~1µs (bucket 10: [1024, 2048) ns), 10 at ~1ms
        // (bucket 20: [2^20, 2^21) ns).
        b[10] = 90;
        b[20] = 10;
        let s = summarize(&b, 90 * 1500 + 10 * 1_500_000);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_s, upper_edge_s(10));
        assert_eq!(s.p90_s, upper_edge_s(10));
        assert_eq!(s.p99_s, upper_edge_s(20));
        assert_eq!(s.max_s, upper_edge_s(20));
        assert!((s.sum_s - 0.015135).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_summarizes_to_zeros() {
        let s = summarize(&[0u64; BUCKETS], 0);
        assert_eq!(s.count, 0);
        assert_eq!(s.max_s, 0.0);
    }
}
