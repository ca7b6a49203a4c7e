//! Satellite: property tests pinning the histogram's quantile estimates
//! to the exact nearest-rank percentile within one log₂ bucket's
//! relative error — `exact ≤ estimate < 2·exact` (and both zero
//! together).

use proptest::prelude::*;
use stair_obs::Histogram;

/// Exact nearest-rank percentile over raw samples — the definition
/// the shared histogram's quantiles are held to.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn check(samples: &[u64], q: f64) {
    let h = Histogram::new();
    for &s in samples {
        h.record(s);
    }
    let snap = h.snapshot();
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let exact = nearest_rank(&sorted, q);
    let est = snap.quantile(q);
    if exact == 0 {
        assert_eq!(est, 0);
    } else {
        assert!(
            exact <= est && est < 2 * exact,
            "q={q} exact={exact} estimate={est} outside one-bucket bound"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// p50 and p99 stay within one bucket of exact nearest-rank for
    /// arbitrary latency-like samples.
    #[test]
    fn p50_and_p99_agree_with_nearest_rank(
        samples in proptest::collection::vec(0u64..2_000_000, 1..300)
    ) {
        check(&samples, 0.50);
        check(&samples, 0.99);
    }

    /// The bound holds across the whole quantile range, not just the
    /// two the reports surface.
    #[test]
    fn arbitrary_quantiles_stay_in_bound(
        samples in proptest::collection::vec(0u64..1_000_000, 1..200),
        hundredths in 1u32..=100
    ) {
        check(&samples, f64::from(hundredths) / 100.0);
    }

    /// The estimate never exceeds the recorded maximum and count is
    /// always backed by the buckets.
    #[test]
    fn estimates_are_clamped_to_max(
        samples in proptest::collection::vec(0u64..u64::MAX / 2, 1..100)
    ) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), samples.len() as u64);
        prop_assert_eq!(snap.max, *samples.iter().max().unwrap());
        prop_assert!(snap.p99() <= snap.max);
        prop_assert!(snap.p50() <= snap.p99());
    }
}
