//! Order statistics over timing samples, on top of the service's
//! nearest-rank [`percentile`].

pub use bc_serve::loadgen::percentile;

/// Median by nearest rank (the lower middle for an even count); 0 for
/// an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The percentiles a tail is reported at, highest first.
const TAIL_QUANTILES: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_QUANTILES`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank, as `(q, value)`.
/// Falls back to the median when the sample is too small for any of
/// them; `None` for an empty sample.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    // Ranks are small sample counts, so the float round trip is exact.
    let beyond = |q: f64| n - ((q * n as f64).ceil() as usize).clamp(1, n);
    let q = TAIL_QUANTILES
        .into_iter()
        .find(|&q| beyond(q) >= TAIL_MIN_BEYOND)
        .unwrap_or(0.5);
    Some((q, percentile(samples, q)))
}

/// First and third quartile by the "exclusive" method (the default of
/// Python's `statistics.quantiles(values, n=4)`); `None` below two
/// samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len < 2 {
        return None;
    }
    let at = |i: usize| {
        let m = (len + 1) * i;
        let j = (m / 4).clamp(1, len - 1);
        let delta = m as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(percentile(&s, 0.2), 1.0);
        assert_eq!(percentile(&s, 0.21), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 is rank 990 with exactly 10 beyond it.
        assert_eq!(tail(&ramp(1000)), Some((0.99, 990.0)));
        // 999 samples: p99 has 9 beyond, so p95 (rank 950) is reported.
        assert_eq!(tail(&ramp(999)), Some((0.95, 950.0)));
        // 10_000 samples reach p99.9.
        assert_eq!(tail(&ramp(10_000)), Some((0.999, 9990.0)));
        // 100 samples: p90 has 10 beyond.
        assert_eq!(tail(&ramp(100)), Some((0.9, 90.0)));
        // Too few for p75: fall back to the median.
        assert_eq!(tail(&ramp(24)), Some((0.5, 12.0)));
        assert_eq!(tail(&ramp(3)), Some((0.5, 2.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
