//! Choosing the sector-failure coverage `e` (§7.2.2's closing discussion):
//! the best shape depends on *how* sectors fail — bursty failure modes
//! favour deep coverage `e = (s)`, scattered failures favour spreading the
//! budget across chunks.

use stair_code::CodecSpec;

use crate::{SectorModel, SystemParams};

/// A ranked coverage recommendation.
#[derive(Clone, Debug, PartialEq)]
pub struct Recommendation {
    /// The winning coverage vector.
    pub e: Vec<usize>,
    /// Its system MTTDL in hours.
    pub mttdl_hours: f64,
    /// Parity sectors spent (`s = Σ e`).
    pub s: usize,
}

/// Evaluates every STAIR code `stair:n,r,1,e` with `e` non-decreasing,
/// `Σ e ≤ max_s`, `len(e) ≤ n − 1`, and `e_max ≤ r`, and returns them
/// best-first by MTTDL (ties broken toward fewer parity sectors).
///
/// # Panics
///
/// Panics if `max_s` is zero.
pub fn rank_coverages(
    params: &SystemParams,
    (n, r): (usize, usize),
    model: &SectorModel,
    p_bit: f64,
    max_s: usize,
) -> Vec<Recommendation> {
    assert!(max_s > 0, "need a positive parity budget");
    let mut out = Vec::new();
    for s in 1..=max_s {
        for e in partitions(s) {
            if e.len() > n - 1 || *e.last().expect("non-empty") > r {
                continue;
            }
            let spec = CodecSpec::Stair {
                n,
                r,
                m: 1,
                e: e.clone(),
            };
            let mttdl = params.mttdl_sys(&spec, model, p_bit);
            out.push(Recommendation {
                s,
                e,
                mttdl_hours: mttdl,
            });
        }
    }
    out.sort_by(|a, b| {
        b.mttdl_hours
            .partial_cmp(&a.mttdl_hours)
            .expect("MTTDL is finite")
            .then(a.s.cmp(&b.s))
    });
    out
}

/// The single best coverage within the budget.
///
/// # Panics
///
/// Panics if `max_s` is zero.
pub fn recommend_e(
    params: &SystemParams,
    (n, r): (usize, usize),
    model: &SectorModel,
    p_bit: f64,
    max_s: usize,
) -> Recommendation {
    rank_coverages(params, (n, r), model, p_bit, max_s)
        .into_iter()
        .next()
        .expect("max_s ≥ 1 yields at least e = (1)")
}

/// All non-decreasing partitions of `s`.
fn partitions(s: usize) -> Vec<Vec<usize>> {
    fn rec(remaining: usize, max: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if remaining == 0 {
            let mut e = cur.clone();
            e.reverse();
            out.push(e);
            return;
        }
        for next in (1..=remaining.min(max)).rev() {
            cur.push(next);
            rec(remaining - next, next, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    rec(s, s, &mut Vec::new(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use crate::BurstModel;

    use super::*;

    /// §7.2.2: under bursty failures the recommendation is burst-deep —
    /// e_max equals the whole budget.
    #[test]
    fn bursty_failures_recommend_deep_coverage() {
        let params = SystemParams::paper_defaults();
        let model = SectorModel::Correlated(BurstModel::from_pareto(0.9, 1.0, 16));
        let rec = recommend_e(&params, (8, 16), &model, 1e-12, 3);
        assert_eq!(rec.e, vec![3], "got {rec:?}");
    }

    /// Fig. 17(b): under independent failures with a 3-sector budget,
    /// e = (1,2) is the most reliable shape.
    #[test]
    fn independent_failures_recommend_spread_coverage() {
        let params = SystemParams::paper_defaults();
        let rec = recommend_e(&params, (8, 16), &SectorModel::Independent, 1e-11, 3);
        assert_eq!(rec.e, vec![1, 2], "got {rec:?}");
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let params = SystemParams::paper_defaults();
        let ranked = rank_coverages(&params, (8, 16), &SectorModel::Independent, 1e-12, 3);
        // partitions: (1), (2), (1,1), (3), (1,2), (1,1,1) = 6 entries.
        assert_eq!(ranked.len(), 6);
        assert!(ranked
            .windows(2)
            .all(|w| w[0].mttdl_hours >= w[1].mttdl_hours));
    }

    #[test]
    fn partitions_count_matches_integer_partitions() {
        assert_eq!(partitions(4).len(), 5);
        assert_eq!(partitions(6).len(), 11);
    }
}
