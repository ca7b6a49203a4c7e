//! Monte-Carlo estimation of stripe-loss probabilities, cross-validating
//! the analytical `P_str` enumerator (§7, Appendix B) against sampled
//! failures.

use std::sync::atomic::{AtomicU64, Ordering};

use stair_code::{CodecSpec, ErasureSet};

use crate::{FailureInjector, SectorModel};

/// A Monte-Carlo estimate with its standard error.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Estimated probability.
    pub p: f64,
    /// Number of trials.
    pub trials: u64,
    /// Binomial standard error `√(p(1−p)/trials)`.
    pub std_err: f64,
}

impl Estimate {
    fn from_hits(hits: u64, trials: u64) -> Self {
        let p = hits as f64 / trials as f64;
        Estimate {
            p,
            trials,
            std_err: (p * (1.0 - p) / trials as f64).sqrt(),
        }
    }
}

/// Estimates `P_str` for `spec` by sampling sector failures in the `n − m`
/// surviving chunks of a critical-mode stripe (devices `0..m` failed) and
/// asking [`CodecSpec::covers`], sharded across `threads` worker threads.
///
/// # Errors
///
/// The [`FailureInjector::new`] message for invalid model parameters.
///
/// # Panics
///
/// Panics if `trials` or `threads` is zero, or unless `n > m`.
pub fn estimate_p_str(
    spec: &CodecSpec,
    p_sec: f64,
    model: &SectorModel,
    trials: u64,
    threads: usize,
    seed: u64,
) -> Result<Estimate, String> {
    assert!(
        trials > 0 && threads > 0,
        "need positive trials and threads"
    );
    let (n, m, r) = (spec.n(), spec.m(), spec.r());
    assert!(n > m, "need n > m");
    let injectors = (0..threads as u64)
        .map(|t| FailureInjector::new(r, p_sec, model, seed ^ ((t + 1) * 0x9E37)))
        .collect::<Result<Vec<_>, _>>()?;
    let failed = ErasureSet::devices(&(0..m).collect::<Vec<_>>(), r);
    let hits = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for (t, mut inj) in injectors.into_iter().enumerate() {
            let share = trials / threads as u64 + u64::from((t as u64) < trials % threads as u64);
            let (hits, failed) = (&hits, &failed);
            scope.spawn(move || {
                let mut local = 0u64;
                for _ in 0..share {
                    let mut pattern = failed.cells().to_vec();
                    for chunk in m..n {
                        pattern.extend(inj.sample_chunk().into_iter().map(|row| (row, chunk)));
                    }
                    if !spec.covers(&ErasureSet::new(pattern)) {
                        local += 1;
                    }
                }
                hits.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    Ok(Estimate::from_hits(hits.into_inner(), trials))
}

#[cfg(test)]
mod tests {
    use crate::{p_chk, p_str, spec, BurstModel};

    use super::*;

    /// The Monte-Carlo estimate must agree with the analytical enumerator
    /// within a few standard errors (independent model).
    #[test]
    fn monte_carlo_matches_analytic_independent() {
        let code = spec("stair:8,8,1,1-2");
        let p_sec = 0.02; // inflated so events are observable
        let model = SectorModel::Independent;
        let est = estimate_p_str(&code, p_sec, &model, 400_000, 4, 0xFEED).unwrap();
        let analytic = p_str(&code, &p_chk(&model, p_sec, 8));
        assert!(
            (est.p - analytic).abs() < 5.0 * est.std_err.max(1e-6),
            "MC {} ± {} vs analytic {analytic}",
            est.p,
            est.std_err
        );
    }

    /// Correlated model: the sampler (bursts started per sector, clipped at
    /// chunk ends, possibly overlapping) is *more* detailed than the
    /// paper's first-order Eq. (15)–(17); they must still agree closely at
    /// realistic rates.
    #[test]
    fn monte_carlo_matches_analytic_correlated() {
        let code = spec("stair:8,16,1,2");
        let p_sec = 0.01;
        let model = SectorModel::Correlated(BurstModel::from_pareto(0.9, 1.0, 16));
        let est = estimate_p_str(&code, p_sec, &model, 400_000, 4, 0xBEEF).unwrap();
        let analytic = p_str(&code, &p_chk(&model, p_sec, 16));
        // First-order model vs exact sampling: allow 10% relative slack
        // plus sampling noise.
        let tol = 0.1 * analytic + 5.0 * est.std_err;
        assert!(
            (est.p - analytic).abs() < tol,
            "MC {} ± {} vs analytic {analytic}",
            est.p,
            est.std_err
        );
    }

    /// RS vs STAIR ordering must hold in sampled form too.
    #[test]
    fn sampled_ordering_rs_vs_stair() {
        let model = SectorModel::Independent;
        let est = |text| estimate_p_str(&spec(text), 0.03, &model, 200_000, 2, 7).unwrap();
        let (rs, st) = (est("rs:6,8,1"), est("stair:6,8,1,1-1"));
        assert!(
            rs.p > st.p,
            "RS {} must lose more stripes than STAIR {}",
            rs.p,
            st.p
        );
    }

    #[test]
    fn invalid_models_are_errors() {
        let err = estimate_p_str(&spec("rs:6,8,1"), 1.5, &SectorModel::Independent, 10, 1, 7);
        assert!(err.unwrap_err().contains("p_sec"));
    }
}
