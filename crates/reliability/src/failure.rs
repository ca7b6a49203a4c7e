//! Samplers for the paper's sector-failure models (§7.1.2): what the
//! Monte-Carlo estimator and the store's failure injection replay.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{BurstModel, SectorModel};

/// Samples sector failures for chunks of `r` sectors.
///
/// Under the independent model each sector fails with probability `p_sec`;
/// under the correlated model each sector *starts* a failure burst with
/// probability `p_sec / B` and the burst length is drawn from the fitted
/// `(b1, α)` distribution (clipped at the chunk end, matching the paper's
/// assumption that bursts do not span chunks).
#[derive(Clone, Debug)]
pub struct FailureInjector {
    r: usize,
    p_sec: f64,
    model: SectorModel,
    rng: SmallRng,
}

impl FailureInjector {
    /// A sampler of `model` failures at rate `p_sec` for chunks of `r`
    /// sectors, seeded.
    ///
    /// # Errors
    ///
    /// A message naming the bad parameter unless `r ≥ 1`, `0 ≤ p_sec ≤ 1`
    /// (NaN is not a probability), and a correlated model was truncated
    /// at `r`.
    pub fn new(r: usize, p_sec: f64, model: &SectorModel, seed: u64) -> Result<Self, String> {
        if r == 0 {
            return Err("chunks need at least one sector (r = 0)".into());
        }
        if !(0.0..=1.0).contains(&p_sec) {
            return Err(format!("p_sec = {p_sec} is not a probability in [0, 1]"));
        }
        if let SectorModel::Correlated(burst) = model {
            if burst.max_len() != r {
                return Err(format!(
                    "burst model truncated at {} sectors, chunks have r = {r}",
                    burst.max_len()
                ));
            }
        }
        Ok(FailureInjector {
            r,
            p_sec,
            model: model.clone(),
            rng: SmallRng::seed_from_u64(seed),
        })
    }

    /// Samples the failed-sector rows of one chunk, ascending.
    pub fn sample_chunk(&mut self) -> Vec<usize> {
        let mut failed = vec![false; self.r];
        match &self.model {
            SectorModel::Independent => {
                for f in failed.iter_mut() {
                    if self.rng.gen::<f64>() < self.p_sec {
                        *f = true;
                    }
                }
            }
            SectorModel::Correlated(burst) => {
                let start_p = self.p_sec / burst.mean();
                for row in 0..self.r {
                    if self.rng.gen::<f64>() < start_p {
                        let len = sample_length(burst, &mut self.rng);
                        let end = (row + len).min(self.r);
                        failed[row..end].fill(true);
                    }
                }
            }
        }
        failed
            .iter()
            .enumerate()
            .filter_map(|(i, &f)| f.then_some(i))
            .collect()
    }
}

fn sample_length(burst: &BurstModel, rng: &mut SmallRng) -> usize {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for len in 1..=burst.max_len() {
        acc += burst.fraction(len);
        if u < acc {
            return len;
        }
    }
    burst.max_len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean failed sectors per sector over `trials` chunks of 16.
    fn rate(inj: &mut FailureInjector, trials: usize) -> f64 {
        let total: usize = (0..trials).map(|_| inj.sample_chunk().len()).sum();
        total as f64 / (trials * 16) as f64
    }

    #[test]
    fn independent_rate_matches() {
        let mut inj = FailureInjector::new(16, 0.05, &SectorModel::Independent, 42).unwrap();
        let rate = rate(&mut inj, 20_000);
        assert!((rate - 0.05).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn bursts_produce_multi_sector_chunks() {
        let model = SectorModel::Correlated(BurstModel::from_pareto(0.5, 1.0, 16));
        let mut inj = FailureInjector::new(16, 0.02, &model, 7).unwrap();
        assert!(
            (0..5_000).any(|_| inj.sample_chunk().len() >= 2),
            "correlated model should produce multi-sector chunks"
        );
    }

    #[test]
    fn correlated_overall_rate_tracks_p_sec() {
        let model = SectorModel::Correlated(BurstModel::from_pareto(0.98, 1.79, 16));
        let mut inj = FailureInjector::new(16, 0.02, &model, 11).unwrap();
        let rate = rate(&mut inj, 20_000);
        // Clipping at chunk ends loses a little mass; allow a wide band.
        assert!((rate - 0.02).abs() < 0.004, "rate {rate}");
    }

    #[test]
    fn bad_parameters_are_errors() {
        let indep = SectorModel::Independent;
        for p_sec in [-0.1, 2.0, f64::NAN] {
            let err = FailureInjector::new(16, p_sec, &indep, 1).unwrap_err();
            assert!(err.contains("p_sec"), "{err}");
        }
        assert!(FailureInjector::new(0, 0.1, &indep, 1).is_err());
        let burst = SectorModel::Correlated(BurstModel::from_pareto(0.9, 1.0, 8));
        assert!(FailureInjector::new(16, 0.1, &burst, 1).is_err());
    }
}
