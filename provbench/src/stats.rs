//! Order statistics and the metric-name grammar.
//!
//! Timings are reported as medians. A tail percentile is reported only
//! when at least [`MIN_BEYOND`] samples lie beyond it, so a "p90" over a
//! dozen passes is never printed as if it meant something.

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Quartiles `(q1, q2, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method);
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    // Python's "exclusive" method verbatim: rank i·(n+1)/4, clamped to
    // 1..n-1, then linear inter- (or extra-)polation in exact integers.
    let q = |i: usize| {
        let num = (i * (n + 1)) as i64;
        let j = (num / 4).clamp(1, n as i64 - 1);
        let delta = (num - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile range as a share of the median: the spread measure the
/// benchmark's bounds are checked against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// How many of `n` samples lie beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The nearest-rank `p`-th percentile of `values`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || !(0.0..100.0).contains(&p) || samples_beyond(n, p) < MIN_BEYOND {
        return None;
    }
    Some(sorted(values)[nearest_rank(n, p) - 1])
}

/// The highest of the usual tail percentiles that `n` samples support.
pub fn highest_reportable_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| n > 0 && samples_beyond(n, p) >= MIN_BEYOND)
}

/// 1-based nearest rank: the smallest rank whose cumulative share reaches `p`.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error in p·n/100 from bumping the rank.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
/// A metric name: a letter or digit, then at most 63 more letters,
/// digits, `_`, `.` or `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[cfg(test)]
/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 2.5, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let r = relative_iqr(&v).unwrap();
        assert!((r - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(percentile(&v, 95.0), None);
        assert_eq!(
            percentile(&v[..99], 90.0),
            None,
            "99 samples leave 9 beyond p90"
        );
        assert_eq!(
            percentile(&v[..10], 50.0),
            None,
            "10 samples leave 5 beyond p50"
        );
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn highest_reportable_percentile_follows_the_rule() {
        assert_eq!(highest_reportable_percentile(0), None);
        assert_eq!(highest_reportable_percentile(39), None);
        assert_eq!(highest_reportable_percentile(40), Some(75.0));
        assert_eq!(highest_reportable_percentile(100), Some(90.0));
        assert_eq!(highest_reportable_percentile(200), Some(95.0));
        assert_eq!(highest_reportable_percentile(1000), Some(99.0));
        assert_eq!(highest_reportable_percentile(10_000), Some(99.9));
        for n in 1..500 {
            if let Some(p) = highest_reportable_percentile(n) {
                assert!(samples_beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "wall_s",
            "tool.record.opus_ms",
            "aspsolver.memo_hit_ratio",
            "9x",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_wall", ".x", "wall s", "wall/s", "é", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "%", "ratio", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds_per_pass_x", "µs"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }
}
