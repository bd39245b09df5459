//! Summary statistics for benchmark samples.

use crate::names::Better;

/// Samples a tail percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The median (mean of the two middle values for an even count); `None`
/// when there are no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The smallest value of each non-empty sample set: each item's best time,
/// which brief contention from other processes does not move.
pub fn minima(sets: &[Vec<f64>]) -> Vec<f64> {
    sets.iter()
        .filter(|s| !s.is_empty())
        .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
        .collect()
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`). Refuses (`None`) when
/// fewer than [`MIN_BEYOND`] samples lie beyond it, since such a tail is one
/// or two outliers rather than a percentile.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let s = sorted(values);
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    if rank == 0 || s.len() - rank.min(s.len()) < MIN_BEYOND {
        return None;
    }
    Some(s[rank - 1])
}

/// The highest of p99, p90 and p50 that [`percentile`] accepts, with its
/// label.
pub fn tail(values: &[f64]) -> Option<(&'static str, f64)> {
    [("p99", 99.0), ("p90", 90.0), ("p50", 50.0)]
        .into_iter()
        .find_map(|(label, p)| percentile(values, p).map(|v| (label, v)))
}

/// The three quartile cut points, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method);
/// `None` for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the benchmark's bounds are checked against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Geometric mean of positive values; `None` when empty or when any value
/// is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// True when the median of `candidate` is not worse than the median of
/// `base` by more than `bound` (a share of the base median), in the
/// metric's `better` direction.
pub fn agree_within(base: &[f64], candidate: &[f64], bound: f64, better: Better) -> bool {
    let (Some(b), Some(c)) = (median(base), median(candidate)) else {
        return false;
    };
    let slack = bound * b.abs();
    match better {
        Better::Lower => c <= b + slack,
        Better::Higher => c >= b - slack,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn minima_skip_empty_sets() {
        assert_eq!(minima(&[vec![3.0, 1.0, 2.0], vec![], vec![5.0]]), vec![1.0, 5.0]);
    }

    #[test]
    fn percentile_is_nearest_rank_and_refuses_thin_tails() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // Only one sample lies beyond p99 of 100 samples.
        assert_eq!(percentile(&v, 99.0), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(tail(&v), Some(("p99", 990.0)));
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&v), Some(("p50", 15.0)));
        assert_eq!(tail(&[1.0, 2.0]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert!(close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25), "{q:?}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[2.0, 1.0]).unwrap();
        assert!(close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25), "{q:?}");
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        let q = quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]).unwrap();
        assert!(close(q[0], 2.0) && close(q[1], 5.0) && close(q[2], 8.0), "{q:?}");
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert!(close(spread, 5.5 / 5.5), "{spread}");
    }

    #[test]
    fn geomean_of_known_vectors() {
        assert!(close(geomean(&[1.0, 4.0]).unwrap(), 2.0));
        assert!(close(geomean(&[2.0, 8.0, 4.0]).unwrap(), 4.0));
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn agreement_respects_bound_and_direction() {
        let base = [100.0, 101.0, 99.0];
        assert!(agree_within(&base, &[104.0, 105.0, 103.0], 0.05, Better::Lower));
        assert!(!agree_within(&base, &[106.0, 107.0, 106.0], 0.05, Better::Lower));
        // Getting lower is never a regression for a lower-is-better metric.
        assert!(agree_within(&base, &[10.0], 0.0, Better::Lower));
        assert!(agree_within(&base, &[96.0], 0.05, Better::Higher));
        assert!(!agree_within(&base, &[94.0], 0.05, Better::Higher));
        assert!(agree_within(&[7.0], &[7.0], 0.0, Better::Lower));
        assert!(!agree_within(&[], &[1.0], 0.1, Better::Lower));
    }
}
