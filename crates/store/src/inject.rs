//! Failure injection: replay the paper's sector-failure models (§7.1.2 —
//! independent sector errors, or Pareto-tailed correlated bursts) against
//! a *real* on-disk store.
//!
//! The reliability model's [`FailureInjector`] — the sampler behind its
//! Monte-Carlo `P_str` — is driven over the store's stripes and devices,
//! corrupting actual file contents. Simulated reliability scenarios
//! thereby become executable end-to-end workloads: inject, scrub
//! (detect), read degraded, repair.

use stair_reliability::FailureInjector;

use crate::integrity::DeviceState;
use crate::store::StripeStore;
use crate::Error;

/// What one injection pass did to the store.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InjectionOutcome {
    /// Chunks (stripe × device) the model was sampled for.
    pub chunks_sampled: usize,
    /// Chunks that received at least one corrupted sector.
    pub chunks_hit: usize,
    /// Total sectors corrupted on disk.
    pub sectors_corrupted: usize,
}

impl StripeStore {
    /// Samples `injector` once per (stripe, healthy device) chunk and
    /// corrupts the sampled sector rows on disk. The injector must have
    /// been built with `r` equal to this store's sectors-per-chunk so the
    /// burst model's truncation matches the chunk geometry.
    ///
    /// Corruption is bit-flipping with a stale checksum — invisible until
    /// a read or scrub verifies the sector, exactly like a latent sector
    /// error in the field.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying corruption writes.
    pub fn inject_failures(
        &self,
        injector: &mut FailureInjector,
    ) -> Result<InjectionOutcome, Error> {
        let sh = &self.shared;
        let devices = sh.integrity.device_states();
        let mut outcome = InjectionOutcome::default();
        for stripe in 0..sh.meta.stripes {
            for (dev, &state) in devices.iter().enumerate() {
                if state != DeviceState::Healthy {
                    continue;
                }
                outcome.chunks_sampled += 1;
                let rows: Vec<usize> = injector
                    .sample_chunk()
                    .into_iter()
                    .filter(|&row| row < sh.geometry.r)
                    .collect();
                if rows.is_empty() {
                    continue;
                }
                outcome.chunks_hit += 1;
                for run in contiguous_runs(&rows) {
                    self.corrupt_sectors(dev, stripe, run.0, run.1)?;
                    outcome.sectors_corrupted += run.1;
                }
            }
        }
        Ok(outcome)
    }
}

/// Collapses sorted row indices into `(start, len)` runs.
fn contiguous_runs(rows: &[usize]) -> Vec<(usize, usize)> {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for &row in rows {
        match runs.last_mut() {
            Some((start, len)) if *start + *len == row => *len += 1,
            _ => runs.push((row, 1)),
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreOptions;
    use stair_reliability::SectorModel;

    #[test]
    fn runs_are_collapsed() {
        assert_eq!(contiguous_runs(&[]), vec![]);
        assert_eq!(contiguous_runs(&[2]), vec![(2, 1)]);
        assert_eq!(
            contiguous_runs(&[1, 2, 3, 7, 9, 10]),
            vec![(1, 3), (7, 1), (9, 2)]
        );
    }

    #[test]
    fn injected_model_failures_are_detected_and_repaired() {
        let dir = std::env::temp_dir().join(format!("stair-inject-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = StoreOptions {
            code: "stair:8,8,2,2-2".parse().unwrap(),
            symbol: 32,
            stripes: 8,
        };
        let store = StripeStore::create(&dir, &opts).unwrap();
        let payload: Vec<u8> = (0..store.capacity() as usize)
            .map(|i| (i % 251) as u8)
            .collect();
        store.write_at(0, &payload).unwrap();

        // High rate so the pass reliably corrupts something; seeded, so
        // the test is deterministic.
        let mut injector =
            FailureInjector::new(8, 0.05, &SectorModel::Independent, 0xC0FFEE).unwrap();
        let outcome = store.inject_failures(&mut injector).unwrap();
        assert!(outcome.sectors_corrupted > 0, "{outcome:?}");
        assert_eq!(outcome.chunks_sampled, 8 * 8);

        let scrub = store.scrub(2).unwrap();
        assert_eq!(scrub.mismatches.len(), outcome.sectors_corrupted);

        // The model can exceed (m, e) coverage on unlucky stripes; with
        // this seed it stays within coverage, so repair completes and the
        // data survives.
        let report = store.repair(2).unwrap();
        assert!(report.complete(), "{report:?}");
        assert_eq!(store.read_at(0, payload.len()).unwrap(), payload);
        assert!(store.scrub(2).unwrap().clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
