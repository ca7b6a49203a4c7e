//! Workspace-level integration: the full Fig. 11 configuration grid
//! constructs and round-trips; STAIR decodes a pattern the SD candidate
//! construction promises but refuses; analytic and simulated reliability
//! agree end-to-end.

use stair::{Config, StairCodec, Stripe};
use stair_code::{CellIdx, CodeError, CodecCore, CodecSpec, ErasureCode, ErasureSet};
use stair_gf::Gf8;
use stair_reliability::montecarlo::estimate_p_str;
use stair_reliability::{p_chk, p_str, SectorModel};
use stair_sd::SdCode;

/// Every configuration of the paper's speed sweeps (§6.2) must construct
/// and survive its worst-case failure pattern.
#[test]
fn fig11_grid_constructs_and_round_trips() {
    for &(n, r) in &[
        (8usize, 16usize),
        (16, 16),
        (24, 16),
        (16, 8),
        (16, 24),
        (32, 16),
    ] {
        for m in 1..=3usize {
            for s in 1..=4usize {
                let Some(e) = worst_case_e(n, r, m, s) else {
                    continue;
                };
                let config = Config::new(n, r, m, &e).unwrap();
                let codec: StairCodec = StairCodec::new(config.clone()).unwrap();
                let mut stripe = Stripe::new(config, 8).unwrap();
                stripe.fill_pattern((n + r + m + s) as u8);
                codec.encode(&mut stripe).unwrap();
                let pristine = stripe.clone();
                // Worst case: m leftmost devices + e at the bottoms of the
                // next m' chunks.
                let mut erased: Vec<(usize, usize)> = Vec::new();
                for c in 0..m {
                    erased.extend((0..r).map(|row| (row, c)));
                }
                for (i, &el) in e.iter().enumerate() {
                    erased.extend((r - el..r).map(|row| (row, m + i)));
                }
                stripe.erase(&erased).unwrap();
                codec.decode(&mut stripe, &erased).unwrap();
                assert_eq!(stripe, pristine, "n={n} r={r} m={m} e={e:?}");
            }
        }
    }
}

fn worst_case_e(n: usize, r: usize, m: usize, s: usize) -> Option<Vec<usize>> {
    // Smallest-m' feasible partition is enough for a construction test.
    for m_prime in 1..=s {
        let base = s / m_prime;
        let rem = s % m_prime;
        let mut e: Vec<usize> = vec![base; m_prime];
        for i in 0..rem {
            let idx = m_prime - 1 - i;
            e[idx] += 1;
        }
        e.sort_unstable();
        if Config::new(n, r, m, &e).is_ok() {
            return Some(e);
        }
    }
    None
}

/// The paper's motivating gap: an SD candidate construction whose decoder
/// refuses a pattern its coverage promises (one device plus `s` sectors),
/// at parameters where STAIR with the matching `e` decodes it.
#[test]
fn stair_covers_where_sd_candidate_fails() {
    let mut found = None;
    'search: for n in 4..=6usize {
        for r in 2..=4usize {
            for s in (2..=3usize).filter(|&s| s + 1 < n) {
                let sd = SdCode::<Gf8>::new(n, r, 1, s).unwrap();
                for dev in 0..n {
                    let others: Vec<CellIdx> = (0..r)
                        .flat_map(|row| (0..n).map(move |col| (row, col)))
                        .filter(|&(_, col)| col != dev)
                        .collect();
                    for extra in subsets(&others, s) {
                        let lost: ErasureSet = (0..r).map(|row| (row, dev)).chain(extra).collect();
                        assert!(sd.codec_id().spec.covers(&lost));
                        if let Err(e) = sd.plan(&lost) {
                            assert!(matches!(e, CodeError::Unrecoverable(_)), "{e}");
                            found = Some((n, r, lost));
                            break 'search;
                        }
                    }
                }
            }
        }
    }
    let (n, r, lost) = found.expect("a small SD candidate refuses a covered pattern");
    // STAIR's e is that pattern's sector counts beyond the failed device.
    let mut e: Vec<usize> = lost.per_device(n).into_iter().filter(|&c| c > 0).collect();
    e.sort_unstable();
    e.pop();
    let config = Config::new(n, r, 1, &e).unwrap();
    assert!(config.spec().covers(&lost));
    let codec: StairCodec = StairCodec::new(config.clone()).unwrap();
    let mut stripe = Stripe::new(config, 4).unwrap();
    stripe.fill_pattern(1);
    codec.encode(&mut stripe).unwrap();
    let pristine = stripe.clone();
    stripe.erase(lost.cells()).unwrap();
    codec.decode(&mut stripe, lost.cells()).unwrap();
    assert_eq!(stripe, pristine, "STAIR e={e:?} at n={n} r={r}: {lost:?}");
}

/// Every `k`-subset of `items`, in lexicographic order.
fn subsets(items: &[CellIdx], k: usize) -> Vec<Vec<CellIdx>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for (i, &first) in items.iter().enumerate() {
        for rest in subsets(&items[i + 1..], k - 1) {
            out.push([vec![first], rest].concat());
        }
    }
    out
}

/// End-to-end reliability pipeline: the Monte-Carlo estimate through the
/// failure injector agrees with the Appendix-B enumerator.
#[test]
fn reliability_pipeline_agrees() {
    let spec: CodecSpec = "stair:8,8,1,1-1".parse().unwrap();
    let p = 0.01;
    let model = SectorModel::Independent;
    let analytic = p_str(&spec, &p_chk(&model, p, 8));
    let est = estimate_p_str(&spec, p, &model, 300_000, 4, 99).unwrap();
    assert!(
        (est.p - analytic).abs() < 5.0 * est.std_err.max(1e-6),
        "MC {} ± {} vs analytic {}",
        est.p,
        est.std_err,
        analytic
    );
}

/// Umbrella crate re-exports compose.
#[test]
fn umbrella_reexports_work() {
    let config = stair_repro::stair::Config::new(4, 2, 1, &[1]).unwrap();
    let _ = stair_repro::gf::Gf8;
    assert_eq!(config.s(), 1);
}
