//! Exact order statistics over raw samples — no histogram buckets, so
//! a 10 % latency change is a 10 % change in the number printed.

/// Samples that must lie beyond a tail percentile before it is
/// reported: fewer and the "percentile" is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (in `(0, 1]`) among `n`
/// ascending samples. The hair's breadth taken off before rounding up
/// keeps `rank_of(k / n, n)` at `k` when the division rounded up.
pub fn rank_of(p: f64, n: usize) -> usize {
    assert!(n > 0 && p > 0.0 && p <= 1.0);
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    sorted[rank_of(p, sorted.len()) - 1]
}

/// The `want` percentile if at least [`MIN_BEYOND`] of `n` samples lie
/// beyond it; otherwise the highest percentile that does have that many
/// beyond it (down to the median for tiny samples).
pub fn supported_percentile(n: usize, want: f64) -> f64 {
    if n - rank_of(want, n) >= MIN_BEYOND {
        want
    } else if n > 2 * MIN_BEYOND {
        (n - MIN_BEYOND) as f64 / n as f64
    } else {
        0.5
    }
}

/// The three quartile cut points, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), so a spread printed here is the spread the driver computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let n = data.len();
    assert!(n >= 2, "quartiles need two values");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Median of the values.
pub fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let n = data.len();
    assert!(n > 0);
    if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    }
}

/// Inter-quartile range as a share of the median (0 when the median is
/// 0 or there is a single value).
pub fn iqr_frac(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_by_hand() {
        let v: Vec<u64> = (1..=10).map(|x| x * 10).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.9), 90);
        assert_eq!(percentile_sorted(&v, 0.91), 100);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&v, 0.01), 10);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let tail = |n: u64| {
            let v: Vec<u64> = (1..=n).collect();
            let p = supported_percentile(v.len(), 0.99);
            (percentile_sorted(&v, p), p)
        };
        assert_eq!(tail(1000), (990, 0.99));

        // 999 samples leave 9 beyond p99: refuse it, report the value
        // that does have 10 beyond.
        let (value, p) = tail(999);
        assert_eq!(value, 989);
        assert!(p < 0.99 && p > 0.98);

        assert_eq!(tail(100), (90, 0.9));
        // Too few for any tail: the median.
        assert_eq!(tail(15), (8, 0.5));

        // A percentile that is a rank over n finds that rank again.
        for n in 21..2000 {
            let p = supported_percentile(n, 0.99);
            assert!(n - rank_of(p, n) >= MIN_BEYOND, "n = {n}");
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(iqr_frac(&[5.0, 1.0, 4.0, 2.0, 3.0]), 1.0);
        assert_eq!(iqr_frac(&[2.0]), 0.0);
        assert_eq!(iqr_frac(&[0.0, 0.0, 0.0]), 0.0);
    }
}
