//! The estimator. This host's single-thread speed flips between two modes
//! about 1.5× apart in blocks of seconds, and two-rank hand-off latency has
//! modes of its own; a median flips whenever the contended share of a run
//! crosses one half, the lower quartile does not. Every timing is therefore
//! the lower quartile of its samples, with median, p75 and n beside it.

/// Lower quartile, median and upper quartile of a sample set, by nearest rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// The reported value: the lower quartile, index ⌊(n−1)/4⌋ of the sorted samples.
    pub value: f64,
    pub median: f64,
    pub p75: f64,
    pub n: usize,
}

impl Summary {
    /// All-zero for an empty set: the layer was not exercised.
    pub fn of(samples: &[f64]) -> Summary {
        let mut s: Vec<f64> = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        if n == 0 {
            return Summary::default();
        }
        Summary {
            value: s[(n - 1) / 4],
            median: s[(n - 1) / 2],
            p75: s[(3 * (n - 1)).div_ceil(4)],
            n,
        }
    }

    /// A single observed number (a count, a size, one timing).
    pub fn single(v: f64) -> Summary {
        Summary {
            value: v,
            median: v,
            p75: v,
            n: 1,
        }
    }
}

/// The `q`-quantile (0..=1) by nearest rank; 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut s: Vec<f64> = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    s[((s.len() - 1) as f64 * q).round() as usize]
}

/// The median as the driver takes it: the mean of the middle two for an
/// even count; 0 for an empty set. Also the estimator for paired
/// differences ("A minus B", the pairs alternating which side runs first):
/// they scatter to both sides of the truth, so the middle is the steady point.
pub fn median(values: &[f64]) -> f64 {
    let mut s: Vec<f64> = values.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Interquartile range over the median, as the driver computes it from ten
/// run values: Python's `statistics.quantiles(values, n=4)` (exclusive method).
pub fn spread(values: &[f64]) -> f64 {
    let mut s: Vec<f64> = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let at = |p: f64| {
        // Position p·(n+1) in 1-based ranks, clamped to the data, interpolated.
        let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        if lo >= n {
            s[n - 1]
        } else {
            s[lo - 1] + frac * (s[lo] - s[lo - 1])
        }
    };
    let median = median(&s);
    if median == 0.0 {
        return 0.0;
    }
    (at(0.75) - at(0.25)) / median.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_are_nearest_rank() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.value, s.median, s.p75, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(Summary::of(&[7.0]).value, 7.0);
        assert_eq!(Summary::of(&[]).n, 0);
        assert_eq!(Summary::of(&[1.0, 2.0]).value, 1.0);
    }

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((spread(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
    }
}
