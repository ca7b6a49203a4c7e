//! Background scrubbing: walk every stripe verifying per-sector checksums
//! and fold what is found into the health record.
//!
//! Scrubbing is the detection half of the paper's operational story (§8):
//! latent sector errors are silent until something reads the sector, so
//! arrays periodically scan themselves; the erasure code then repairs
//! whatever the scan uncovers. The walk is sharded across scoped worker
//! threads and takes the per-stripe locks, so it can run behind
//! foreground I/O.

use std::sync::Mutex;

use crate::integrity::{BadSector, DeviceState};
use crate::store::StripeStore;
use crate::Error;

/// The outcome of one scrub pass.
#[derive(Clone, Debug, Default)]
pub struct ScrubReport {
    /// Stripes walked.
    pub stripes_scanned: usize,
    /// Sectors read and checksummed.
    pub sectors_verified: usize,
    /// Sectors whose contents did not match their checksum (or could not
    /// be read) on otherwise-healthy devices.
    pub mismatches: Vec<BadSector>,
    /// Devices that are failed or rebuilding and were skipped entirely.
    pub unavailable_devices: Vec<usize>,
    /// Stale bad-sector records cleared because the sector now verifies.
    pub records_cleared: usize,
}

impl ScrubReport {
    /// `true` when the store is fully healthy: every device available and
    /// every sector verified.
    pub fn clean(&self) -> bool {
        self.mismatches.is_empty() && self.unavailable_devices.is_empty()
    }
}

impl StripeStore {
    /// Scrubs the whole store with `threads` workers, updating the health
    /// record with every mismatch found (and clearing records that no
    /// longer reproduce).
    ///
    /// # Errors
    ///
    /// Propagates the first I/O error a worker hits.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn scrub(&self, threads: usize) -> Result<ScrubReport, Error> {
        assert!(threads > 0, "need at least one scrub thread");
        let sh = &self.shared;
        let stripes = sh.meta.stripes;
        sh.counters
            .scrub_stripes_done
            .store(0, std::sync::atomic::Ordering::Relaxed);
        let health = sh.integrity.health();
        let unavailable: Vec<usize> = (0..sh.geometry.n)
            .filter(|&d| health.devices[d] != DeviceState::Healthy)
            .collect();

        let mismatches = Mutex::new(Vec::new());
        let verified = Mutex::new(0usize);
        let shard = stripes.div_ceil(threads).max(1);
        let results = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..threads {
                let lo = (w * shard).min(stripes);
                let hi = ((w + 1) * shard).min(stripes);
                if lo == hi {
                    continue;
                }
                let mismatches = &mismatches;
                let verified = &verified;
                let devices = &health.devices;
                handles.push(
                    scope.spawn(move || self.scrub_range(lo..hi, devices, mismatches, verified)),
                );
            }
            handles
                .into_iter()
                .map(
                    #[expect(
                        clippy::expect_used,
                        reason = "a panicked scrub worker is a bug — propagate, don't mask as Error"
                    )]
                    |h| h.join().expect("scrub worker panicked"),
                )
                .collect::<Vec<_>>()
        });
        for r in results {
            r?;
        }

        let mismatches = mismatches.into_inner().unwrap_or_else(|e| e.into_inner());
        // Reconcile against the snapshot taken when the pass started: a
        // record from *before* the pass whose sector now verifies is
        // stale and cleared; records added concurrently (by degraded
        // reads racing the walk) are left alone — this pass cannot vouch
        // for them.
        let mut records_cleared = 0usize;
        sh.integrity.update_health(|h| {
            let stale: Vec<BadSector> = health
                .bad_sectors
                .iter()
                .copied()
                .filter(|&(_, _, dev)| health.devices[dev] == DeviceState::Healthy)
                .filter(|k| !mismatches.contains(k))
                .collect();
            for key in &stale {
                h.bad_sectors.remove(key);
            }
            records_cleared = stale.len();
            h.bad_sectors.extend(mismatches.iter().copied());
        });
        sh.integrity.persist()?;

        Ok(ScrubReport {
            stripes_scanned: stripes,
            sectors_verified: verified.into_inner().unwrap_or_else(|e| e.into_inner()),
            mismatches,
            unavailable_devices: unavailable,
            records_cleared,
        })
    }

    fn scrub_range(
        &self,
        range: std::ops::Range<usize>,
        devices: &[DeviceState],
        mismatches: &Mutex<Vec<BadSector>>,
        verified: &Mutex<usize>,
    ) -> Result<(), Error> {
        let geom = &self.shared.geometry;
        let available = (0..geom.n).filter(|&dev| devices[dev] == DeviceState::Healthy);
        let grid: Vec<_> = available
            .flat_map(|dev| (0..geom.r).map(move |row| (row, dev)))
            .collect();
        let mut local_bad = Vec::new();
        let mut local_ok = 0usize;
        for stripe in range {
            let _guard = self.lock_stripe(stripe);
            let bad = self.load_each(stripe, devices, grid.iter().copied(), |_, _| {})?;
            local_ok += grid.len() - bad.len();
            local_bad.extend(bad.into_iter().map(|(row, dev)| (stripe, row, dev)));
            self.shared
                .counters
                .scrub_stripes_done
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        mismatches
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend(local_bad);
        *verified.lock().unwrap_or_else(|e| e.into_inner()) += local_ok;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::store::StripeStore;
    use crate::StoreOptions;

    fn opts() -> StoreOptions {
        StoreOptions {
            code: "stair:8,4,2,1-1-2".parse().unwrap(),
            symbol: 64,
            stripes: 5,
        }
    }

    #[test]
    fn scrub_clean_store_is_clean() {
        let dir = std::env::temp_dir().join(format!("stair-scrub-clean-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StripeStore::create(&dir, &opts()).unwrap();
        let report = store.scrub(3).unwrap();
        assert!(report.clean());
        assert_eq!(report.stripes_scanned, 5);
        assert_eq!(report.sectors_verified, 5 * 4 * 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_finds_bursts_and_failed_devices() {
        let dir = std::env::temp_dir().join(format!("stair-scrub-find-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StripeStore::create(&dir, &opts()).unwrap();
        let payload = vec![0x5Au8; store.capacity() as usize];
        store.write_at(0, &payload).unwrap();
        store.corrupt_sectors(6, 2, 1, 2).unwrap();
        store.fail_device(0).unwrap();
        let report = store.scrub(2).unwrap();
        assert!(!report.clean());
        assert_eq!(report.unavailable_devices, vec![0]);
        let mut found = report.mismatches.clone();
        found.sort_unstable();
        assert_eq!(found, vec![(2, 1, 6), (2, 2, 6)]);
        // The damage is now recorded for repair.
        assert_eq!(store.status().known_bad_sectors, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
