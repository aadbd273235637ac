//! Order statistics: nearest-rank percentiles for latency samples, and the
//! quartile spread the repeat mode reports (computed the way Python's
//! `statistics.quantiles(values, n=4)` does, so the figures printed here
//! match that recomputation).

/// 1-based nearest rank of the `num/den` quantile in a sample of `n`:
/// `ceil(n·num/den)`, clamped to `1..=n`.
pub fn rank(n: usize, num: usize, den: usize) -> usize {
    (n * num).div_ceil(den).clamp(1, n.max(1))
}

/// Nearest-rank `num/den` quantile of an ascending sample (`None` when
/// empty).
pub fn nearest_rank(sorted: &[f64], num: usize, den: usize) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), num, den) - 1])
}

/// Samples strictly above the nearest-rank `num/den` quantile's rank.
pub fn beyond(n: usize, num: usize, den: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, num, den)
    }
}

/// The rule every reported tail percentile obeys: at least ten samples
/// lie beyond it.
pub fn supports_tail(n: usize, num: usize, den: usize) -> bool {
    beyond(n, num, den) >= 10
}

/// Timing summary of one span or latency population, in its own unit.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
}

/// Sort a sample in place and summarize it (all zeros when empty).
pub fn summarize(values: &mut [f64]) -> Summary {
    if values.is_empty() {
        return Summary::default();
    }
    values.sort_by(f64::total_cmp);
    Summary {
        count: values.len(),
        p50: nearest_rank(values, 1, 2).unwrap_or(0.0),
        p99: nearest_rank(values, 99, 100).unwrap_or(0.0),
    }
}

/// Median as Python's `statistics.median` defines it.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by Python's default (`exclusive`) method of
/// `statistics.quantiles(values, n=4)`; needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Quartile distance as a share of the median (the steadiness figure).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 1, 2), Some(5.0));
        assert_eq!(nearest_rank(&v, 99, 100), Some(10.0));
        assert_eq!(nearest_rank(&v, 9, 10), Some(9.0));
        assert_eq!(nearest_rank(&[], 1, 2), None);
        assert_eq!(nearest_rank(&[7.0], 99, 100), Some(7.0));
        // 1000 samples: p99 is the 990th value, 10 lie beyond it.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&big, 99, 100), Some(990.0));
    }

    #[test]
    fn ten_beyond_rule_needs_a_thousand_samples_for_p99() {
        assert_eq!(beyond(1000, 99, 100), 10);
        assert!(supports_tail(1000, 99, 100));
        assert_eq!(beyond(999, 99, 100), 9);
        assert!(!supports_tail(999, 99, 100));
        assert!(!supports_tail(0, 99, 100));
        assert!(supports_tail(20, 1, 2));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12, "{s}");
    }

    #[test]
    fn summarize_sorts_and_reports() {
        let mut v = vec![3.0, 1.0, 2.0, 4.0];
        let s = summarize(&mut v);
        assert_eq!(s.count, 4);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p99, 4.0);
        assert_eq!(summarize(&mut []), Summary::default());
    }
}
