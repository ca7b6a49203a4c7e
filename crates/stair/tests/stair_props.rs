//! Property tests for the STAIR construction across randomized
//! configurations, payloads, and erasure patterns.
//!
//! These encode the paper's central claims:
//! * §4.2: any erasure pattern within the `(m, e)` coverage is decodable;
//! * §5.1.3: upstairs, downstairs, and standard encoding produce identical
//!   parity values;
//! * §5.2 Property 5.1: parity symbols depend only on data symbols up and
//!   to the left, with tread/riser exclusions;
//! * §5.3: executed `Mult_XOR` counts equal Eq. (5)/(6) exactly.

use proptest::prelude::*;
use stair::{CellKind, Config, EncodingMethod, GlobalPlacement, StairCodec, Stripe};
use stair_code::ErasureSet;

/// A random valid configuration plus a random within-coverage erasure
/// pattern, generated together.
#[derive(Debug, Clone)]
struct Case {
    config: Config,
    erased: Vec<(usize, usize)>,
}

fn arb_case(placement: GlobalPlacement) -> impl Strategy<Value = Case> {
    (3usize..10, 1usize..8, any::<u64>()).prop_map(move |(n, r, seed)| {
        let mut rng = Lcg(seed | 1);
        let m = 1 + rng.below(usize::min(2, n - 2).max(1));
        let max_mp = n - m;
        let m_prime = 1 + rng.below(usize::min(max_mp, 3));
        // Non-decreasing e with e_max ≤ r.
        let mut e: Vec<usize> = (0..m_prime).map(|_| 1 + rng.below(r)).collect();
        e.sort_unstable();
        // Keep at least one data symbol for inside placement: shrink e until
        // s < r·(n−m). n ≥ 3 and m ≤ n−2 guarantee r·(n−m) ≥ 2, so e = [1]
        // always terminates the loop.
        if placement == GlobalPlacement::Inside {
            while e.iter().sum::<usize>() >= r * (n - m) {
                if e.iter().all(|&x| x == 1) {
                    e.pop();
                } else {
                    e.fill(1);
                }
            }
        }
        let m_prime = e.len();
        let config = Config::with_placement(n, r, m, &e, placement).unwrap();

        // Random within-coverage pattern: pick m chunks to fail fully (or
        // partially), then up to m' other chunks with ≤ e_i failures.
        let mut chunks: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut chunks);
        let mut erased = Vec::new();
        for &c in chunks.iter().take(m) {
            let lost = 1 + rng.below(r);
            let mut rows: Vec<usize> = (0..r).collect();
            rng.shuffle(&mut rows);
            erased.extend(rows.into_iter().take(lost).map(|row| (row, c)));
        }
        for (i, &c) in chunks.iter().skip(m).take(m_prime).enumerate() {
            // e is non-decreasing; assign larger budgets to earlier picks.
            let budget = config.e()[m_prime - 1 - i];
            let lost = rng.below(budget + 1);
            let mut rows: Vec<usize> = (0..r).collect();
            rng.shuffle(&mut rows);
            erased.extend(rows.into_iter().take(lost).map(|row| (row, c)));
        }
        Case { config, erased }
    })
}

/// Deterministic small RNG so cases shrink reproducibly.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() as usize) % n.max(1)
    }
    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

fn encoded_stripe(config: &Config, seed: u8) -> (StairCodec, Stripe) {
    let codec: StairCodec = StairCodec::new(config.clone()).unwrap();
    let mut stripe = Stripe::new(config.clone(), 8).unwrap();
    stripe.fill_pattern(seed);
    codec.encode(&mut stripe).unwrap();
    (codec, stripe)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline fault-tolerance claim: every pattern within coverage
    /// decodes back to the pristine stripe (inside placement).
    #[test]
    fn within_coverage_patterns_decode_inside(
        case in arb_case(GlobalPlacement::Inside),
        seed in any::<u8>(),
    ) {
        prop_assume!(case.config.spec().covers(&ErasureSet::from(&case.erased[..])));
        let (codec, stripe) = encoded_stripe(&case.config, seed);
        let pristine = stripe.clone();
        let mut damaged = stripe;
        damaged.erase(&case.erased).unwrap();
        codec.decode(&mut damaged, &case.erased).unwrap();
        prop_assert_eq!(damaged, pristine);
    }

    /// Same with outside global parities (§3/§4 baseline construction).
    #[test]
    fn within_coverage_patterns_decode_outside(
        case in arb_case(GlobalPlacement::Outside),
        seed in any::<u8>(),
    ) {
        prop_assume!(case.config.spec().covers(&ErasureSet::from(&case.erased[..])));
        let (codec, stripe) = encoded_stripe(&case.config, seed);
        let pristine = stripe.clone();
        let mut damaged = stripe;
        damaged.erase(&case.erased).unwrap();
        codec.decode(&mut damaged, &case.erased).unwrap();
        prop_assert_eq!(damaged, pristine);
    }

    /// §5.1.3: both new encoding methods and standard encoding always
    /// produce the same values for all parity symbols.
    #[test]
    fn encoding_methods_agree(case in arb_case(GlobalPlacement::Inside), seed in any::<u8>()) {
        let codec: StairCodec = StairCodec::new(case.config.clone()).unwrap();
        let mut stripes = Vec::new();
        for method in [
            EncodingMethod::Upstairs,
            EncodingMethod::Downstairs,
            EncodingMethod::Standard,
        ] {
            let mut stripe = Stripe::new(case.config.clone(), 8).unwrap();
            stripe.fill_pattern(seed);
            codec.encode_with(method, &mut stripe).unwrap();
            stripes.push(stripe);
        }
        prop_assert_eq!(&stripes[0], &stripes[1]);
        prop_assert_eq!(&stripes[0], &stripes[2]);
    }

    /// §5.3: the executed Mult_XOR count of each scheduled method equals
    /// the analytic Eq. (5)/(6) prediction exactly.
    #[test]
    fn executed_mult_xors_match_formulas(case in arb_case(GlobalPlacement::Inside)) {
        let codec: StairCodec = StairCodec::new(case.config.clone()).unwrap();
        let counts = codec.mult_xor_counts();
        let up = codec.encode_schedule(EncodingMethod::Upstairs).unwrap();
        let down = codec.encode_schedule(EncodingMethod::Downstairs).unwrap();
        prop_assert_eq!(up.mult_xors(), counts.upstairs);
        prop_assert_eq!(down.mult_xors(), counts.downstairs);
    }

    /// §5.2 Property 5.1: a parity symbol at (i0, j0) never depends on data
    /// symbols below it or to its right; within a tread, parity symbols do
    /// not depend on data in *other* columns spanned by the same tread.
    #[test]
    fn parity_relations_satisfy_property_5_1(case in arb_case(GlobalPlacement::Inside)) {
        let codec: StairCodec = StairCodec::new(case.config.clone()).unwrap();
        let relations = codec.relations();
        let n = case.config.n();
        let m = case.config.m();
        let m_prime = case.config.m_prime();
        let layout = codec.layout();
        for (p, &(pi, pj)) in relations.parity_cells().iter().enumerate() {
            let _ = p;
            for &(di, dj) in relations.data_cells() {
                let coeff = relations.coefficient((pi, pj), (di, dj)).unwrap();
                if coeff == 0 {
                    continue;
                }
                prop_assert!(
                    di <= pi && dj <= pj,
                    "parity ({pi},{pj}) depends on data ({di},{dj}) below/right of it"
                );
                // Tread exclusion: an inside-global parity is unrelated to
                // data in other columns of the same tread (same h-range).
                if let CellKind::InsideGlobal { l, .. } = layout.kind((pi, pj)) {
                    let base = n - m - m_prime;
                    if dj >= base && dj != pj {
                        // Data column dj hosts globals of some l' < l; the
                        // tread spans columns with equal e. Exclusion only
                        // applies within the same tread (equal e values).
                        let l2 = dj - base;
                        if case.config.e()[l2] == case.config.e()[l] {
                            prop_assert!(
                                di < case.config.r() - case.config.e()[l2],
                                "ĝ at ({pi},{pj}) depends on same-tread column {dj} row {di}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Decoding uses only surviving sectors: corrupting *erased* sectors
    /// before decode must not change the result.
    #[test]
    fn decode_ignores_erased_contents(
        case in arb_case(GlobalPlacement::Inside),
        seed in any::<u8>(),
    ) {
        prop_assume!(case.config.spec().covers(&ErasureSet::from(&case.erased[..])));
        prop_assume!(!case.erased.is_empty());
        let (codec, pristine) = encoded_stripe(&case.config, seed);
        let mut a = pristine.clone();
        a.erase(&case.erased).unwrap();
        let mut b = a.clone();
        // Fill b's erased cells with garbage instead of zeros.
        for &(row, col) in &case.erased {
            b.cell_mut(row, col).fill(0xDB);
        }
        codec.decode(&mut a, &case.erased).unwrap();
        codec.decode(&mut b, &case.erased).unwrap();
        prop_assert_eq!(&a, &pristine);
        prop_assert_eq!(&b, &pristine);
    }
}

/// Exhaustive worst-case check on the paper's running example: every way of
/// choosing 2 failed chunks and assigning (1,1,2) sector failures among 3
/// other chunks (with failures at random rows) must decode.
#[test]
fn exhaustive_worst_case_assignments_decode() {
    let config = Config::new(8, 4, 2, &[1, 1, 2]).unwrap();
    let codec: StairCodec = StairCodec::new(config.clone()).unwrap();
    let mut stripe = Stripe::new(config.clone(), 4).unwrap();
    stripe.fill_pattern(99);
    codec.encode(&mut stripe).unwrap();
    let pristine = stripe.clone();

    let n = 8;
    let mut cases = 0usize;
    for f1 in 0..n {
        for f2 in f1 + 1..n {
            // Pick the chunk with 2 sector failures and two chunks with 1.
            let rest: Vec<usize> = (0..n).filter(|&c| c != f1 && c != f2).collect();
            // A few deterministic assignments rather than all 6·5·4.
            for pick in 0..4 {
                let c2 = rest[pick % rest.len()];
                let c1a = rest[(pick + 1) % rest.len()];
                let c1b = rest[(pick + 3) % rest.len()];
                if c2 == c1a || c2 == c1b || c1a == c1b {
                    continue;
                }
                let mut erased: Vec<(usize, usize)> = Vec::new();
                erased.extend((0..4).map(|i| (i, f1)));
                erased.extend((0..4).map(|i| (i, f2)));
                erased.push(((pick) % 4, c2));
                erased.push(((pick + 2) % 4, c2));
                erased.push(((pick + 1) % 4, c1a));
                erased.push(((pick + 3) % 4, c1b));
                assert!(
                    config.spec().covers(&ErasureSet::from(&erased[..])),
                    "{erased:?}"
                );
                let mut damaged = pristine.clone();
                damaged.erase(&erased).unwrap();
                codec.decode(&mut damaged, &erased).unwrap();
                assert_eq!(damaged, pristine, "pattern {erased:?}");
                cases += 1;
            }
        }
    }
    assert!(cases > 50, "exercised {cases} worst-case patterns");
}
