//! Per-chunk failure distributions and the general `P_str` enumerator.

// Coordinate-indexed loops mirror the paper's (row, column) notation and
// stay symmetric with the write side; iterator adaptors would obscure that.
#![allow(clippy::needless_range_loop)]
use stair_code::{CodecSpec, ErasureSet};

use crate::BurstModel;

/// A sector-failure model (§7.1.2): how sector failures are distributed
/// within a chunk of `r` sectors.
#[derive(Clone, Debug, PartialEq)]
pub enum SectorModel {
    /// Independent sector failures (Eq. 13).
    Independent,
    /// Correlated failures arriving as bursts (Eqs. 14–17).
    Correlated(BurstModel),
}

/// Sector-failure probability from the bit-error rate: Eq. (12),
/// `P_sec = 1 − (1 − P_bit)^(8·S)` for an `S`-byte sector.
pub fn p_sec(p_bit: f64, sector_bytes: usize) -> f64 {
    assert!((0.0..=1.0).contains(&p_bit), "P_bit must be a probability");
    // 1 − (1 − p)^k computed as −expm1(k·ln1p(−p)) to avoid catastrophic
    // cancellation at realistic P_bit (1e-14 .. 1e-10).
    -((8.0 * sector_bytes as f64) * (-p_bit).ln_1p()).exp_m1()
}

/// The per-chunk failure distribution `P_chk(0..=r)` (Eqs. 13, 15, 17).
///
/// # Panics
///
/// Panics if `r` is zero or the correlated model was truncated at a
/// different chunk size.
pub fn p_chk(model: &SectorModel, psec: f64, r: usize) -> Vec<f64> {
    assert!(r > 0, "r must be positive");
    match model {
        SectorModel::Independent => (0..=r)
            .map(|i| binomial(r, i) * psec.powi(i as i32) * (1.0 - psec).powi((r - i) as i32))
            .collect(),
        SectorModel::Correlated(burst) => {
            assert_eq!(
                burst.max_len(),
                r,
                "burst model truncation must match the chunk size"
            );
            let b = burst.mean();
            // Eq. (15): P_chk(0) = (1 − P_sec/B)^r; Eq. (17):
            // P_chk(i) = b_i · r · P_sec/B.
            let start = psec / b;
            let mut out = vec![0.0; r + 1];
            out[0] = (1.0 - start).powi(r as i32);
            for i in 1..=r {
                out[i] = burst.fraction(i) * (r as f64) * start;
            }
            // The simplified model leaves a small normalization slack
            // (the paper's Eqs. 15–17 are first-order approximations);
            // fold it into P_chk(0) so the distribution is proper.
            let sum: f64 = out.iter().sum();
            out[0] += 1.0 - sum;
            out
        }
    }
}

/// `P_str`: probability that a stripe of `spec` in critical mode — its
/// `m` devices failed — has unrecoverable sector failures in its `n − m`
/// surviving chunks (§7.1.1, Appendix B), computed by exact enumeration
/// of per-chunk failure counts. Recoverable means [`CodecSpec::covers`],
/// so any family and any coverage vector is supported.
///
/// # Panics
///
/// Panics unless `n > m` and `pchk` has the `r + 1` entries
/// `P_chk(0..=r)`.
pub fn p_str(spec: &CodecSpec, pchk: &[f64]) -> f64 {
    let (n, m, r) = (spec.n(), spec.m(), spec.r());
    assert!(n > m, "need n > m");
    assert_eq!(pchk.len(), r + 1, "P_chk must cover 0..=r failures");
    let chunks = n - m;
    // Devices 0..m are the failed ones; chunk i is device m + i.
    let failed = ErasureSet::devices(&(0..m).collect::<Vec<_>>(), r);
    // P(covered) = Σ over non-increasing count vectors (c_1 ≥ … ≥ c_k ≥ 1)
    // within coverage of: #arrangements · Π P_chk(c_i) · P_chk(0)^(chunks−k).
    let mut covered = 0.0;
    enumerate(&mut Vec::new(), r, chunks, &mut |desc: &[usize]| {
        let sectors = desc.iter().enumerate();
        let sectors = sectors.flat_map(|(i, &c)| (0..c).map(move |row| (row, m + i)));
        if !spec.covers(&ErasureSet::new(failed.iter().chain(sectors))) {
            return false;
        }
        let k = desc.len();
        let mut weight = choose(chunks, k) * perm_multiset(desc);
        for &c in desc {
            weight *= pchk[c];
        }
        weight *= pchk[0].powi((chunks - k) as i32);
        covered += weight;
        true
    });
    (1.0 - covered).max(0.0)
}

/// Walks all non-increasing vectors with entries in `1..=max_val` and
/// length `0..=max_len` depth-first (the empty vector first, larger
/// entries before smaller), invoking `f` on each. A vector for which `f`
/// returns `false` is not extended: coverage is downward-closed, so no
/// extension of an uncovered pattern is covered.
fn enumerate(
    counts: &mut Vec<usize>,
    max_val: usize,
    max_len: usize,
    f: &mut impl FnMut(&[usize]) -> bool,
) {
    if !f(counts) || counts.len() == max_len {
        return;
    }
    let upper = counts.last().copied().unwrap_or(max_val);
    for v in (1..=upper).rev() {
        counts.push(v);
        enumerate(counts, max_val, max_len, f);
        counts.pop();
    }
}

/// Number of distinct assignments of a non-increasing count multiset onto
/// `k` labelled chunks: `k! / Π mult_v!`.
fn perm_multiset(desc: &[usize]) -> f64 {
    let k = desc.len();
    let mut denom = 1.0;
    let mut run = 1usize;
    for i in 1..k {
        if desc[i] == desc[i - 1] {
            run += 1;
        } else {
            denom *= factorial(run);
            run = 1;
        }
    }
    denom *= factorial(run.max(1));
    factorial(k) / denom
}

fn factorial(n: usize) -> f64 {
    (1..=n).map(|i| i as f64).product()
}

fn binomial(n: usize, k: usize) -> f64 {
    choose(n, k)
}

fn choose(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0;
    for i in 0..k {
        acc *= (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn psec_approximation_matches_eq_12() {
        // P_sec ≈ 8·S·P_bit for small P_bit.
        let p = p_sec(1e-14, 512);
        assert!((p - 512.0 * 8.0 * 1e-14).abs() / p < 1e-6);
    }

    #[test]
    fn independent_pchk_is_binomial_and_sums_to_one() {
        let pchk = p_chk(&SectorModel::Independent, 0.01, 8);
        assert_eq!(pchk.len(), 9);
        assert!((pchk.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((pchk[1] - 8.0 * 0.01 * 0.99f64.powi(7)).abs() < 1e-12);
    }

    #[test]
    fn correlated_pchk_sums_to_one() {
        let burst = BurstModel::from_pareto(0.98, 1.79, 16);
        let pchk = p_chk(&SectorModel::Correlated(burst), 1e-6, 16);
        assert!((pchk.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Multi-sector chunks are possible under bursts.
        assert!(pchk[2] > 0.0 && pchk[4] > 0.0);
    }

    #[test]
    fn rs_pstr_matches_complement_of_no_failures() {
        let pchk = p_chk(&SectorModel::Independent, 1e-4, 16);
        let p = p_str(&spec("rs:8,16,1"), &pchk);
        let expect = 1.0 - pchk[0].powi(7);
        assert!((p - expect).abs() < 1e-15);
    }

    #[test]
    fn coverage_ordering_reduces_pstr() {
        // A strictly wider coverage must give a strictly smaller P_str.
        let pchk = p_chk(&SectorModel::Independent, 1e-4, 16);
        let p = |text| p_str(&spec(text), &pchk);
        let p_rs = p("rs:8,16,1");
        let p_e1 = p("stair:8,16,1,1");
        let p_e11 = p("stair:8,16,1,1-1");
        let p_e12 = p("stair:8,16,1,1-2");
        assert!(p_rs > p_e1 && p_e1 > p_e11 && p_e11 > p_e12);
        // SD with s=3 covers every pattern STAIR e=(1,2) covers, and more.
        assert!(p("sd:8,16,1,3") <= p_e12);
    }

    #[test]
    fn stair_e1_equals_sd_s1() {
        // §2: e = (1) is exactly a PMDS/SD code with s = 1.
        let pchk = p_chk(&SectorModel::Independent, 1e-5, 8);
        let a = p_str(&spec("stair:10,8,1,1"), &pchk);
        let b = p_str(&spec("sd:10,8,1,1"), &pchk);
        assert!((a - b).abs() < 1e-18);
    }

    #[test]
    fn multiset_permutations() {
        assert_eq!(perm_multiset(&[]), 1.0);
        assert_eq!(perm_multiset(&[3]), 1.0);
        assert_eq!(perm_multiset(&[2, 1]), 2.0);
        assert_eq!(perm_multiset(&[1, 1]), 1.0);
        assert_eq!(perm_multiset(&[2, 1, 1]), 3.0);
    }
}
