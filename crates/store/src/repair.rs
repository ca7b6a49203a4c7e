//! Online repair: reconstruct lost chunks onto replacement files and
//! rewrite latent-damaged sectors, stripe by stripe, while foreground I/O
//! continues.
//!
//! Failed devices first get fresh zero-filled replacement files and move
//! to the `Rebuilding` state — reads keep treating their sectors as erased
//! (served degraded), so correctness never depends on rebuild progress.
//! Scoped worker threads then shard the stripe range, and each stripe is
//! repaired under its stripe lock by the store's one restore rule: its
//! lost cells on writable devices are planned, only the plan's sources
//! are read, and the reconstructed cells are written with fresh
//! checksums. A source that fails its checksum is recorded, planned
//! around and rebuilt too. Repair does not read the sectors its plans do
//! not need, so it finds no other damage: finding unrecorded damage is
//! the scrub's job. Only when every stripe is done do the replacements
//! become `Healthy`.

use stair_code::ErasureSet;

use crate::integrity::DeviceState;
use crate::store::StripeStore;
use crate::Error;

/// The outcome of one repair pass.
#[derive(Clone, Debug, Default)]
pub struct RepairReport {
    /// Devices that received replacement files and were rebuilt.
    pub devices_replaced: Vec<usize>,
    /// Stripes that needed (and received) reconstruction.
    pub stripes_repaired: usize,
    /// Sectors rewritten with reconstructed contents.
    pub sectors_rewritten: usize,
    /// Stripes whose lost cells could not be planned: their known damage
    /// — including sources this pass found bad — exceeds what the codec
    /// decodes. They are left unwritten.
    pub unrecoverable_stripes: Vec<usize>,
}

impl RepairReport {
    /// `true` when every damaged stripe was reconstructed.
    pub fn complete(&self) -> bool {
        self.unrecoverable_stripes.is_empty()
    }
}

impl StripeStore {
    /// Repairs the store with `threads` workers (zero counts as one, as
    /// for [`StripeStore::scrub`]): replaces failed devices,
    /// reconstructs their chunks, and rewrites known-bad sectors.
    ///
    /// # Errors
    ///
    /// Propagates the first I/O error; stripes beyond coverage are
    /// *reported* (in [`RepairReport::unrecoverable_stripes`]), not
    /// errors, so one lost stripe does not abort the rebuild of the rest.
    pub fn repair(&self, threads: usize) -> Result<RepairReport, Error> {
        let threads = threads.max(1);
        let sh = &self.shared;

        // Phase 1: attach replacement files for failed devices. Devices
        // already in `Rebuilding` (an interrupted earlier pass) are picked
        // up again.
        let health = sh.integrity.health();
        let failed: Vec<usize> = (0..sh.geometry.n)
            .filter(|&d| health.devices[d] == DeviceState::Failed)
            .collect();
        for &dev in &failed {
            sh.devices.replace(dev)?;
        }
        sh.integrity.update_health(|h| {
            for &dev in &failed {
                h.devices[dev] = DeviceState::Rebuilding;
            }
        });
        sh.integrity.persist()?;
        let health = sh.integrity.health();
        let rebuilding: Vec<usize> = (0..sh.geometry.n)
            .filter(|&d| health.devices[d] == DeviceState::Rebuilding)
            .collect();

        // Phase 2: pick the work list — every stripe when chunks must be
        // rebuilt, otherwise only stripes with recorded bad sectors.
        let work: Vec<usize> = if rebuilding.is_empty() {
            let mut stripes: Vec<usize> = health.bad_sectors.iter().map(|&(s, _, _)| s).collect();
            stripes.sort_unstable();
            stripes.dedup();
            stripes
        } else {
            (0..sh.meta.stripes).collect()
        };
        // The progress gauge starts at the stripes this pass has nothing
        // to do for and climbs to the stripe count as workers finish.
        sh.counters.repair_stripes_done.store(
            sh.meta.stripes.saturating_sub(work.len()) as u64,
            std::sync::atomic::Ordering::Relaxed,
        );

        let shard = work.len().div_ceil(threads).max(1);
        let results = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for chunk in work.chunks(shard) {
                handles.push(scope.spawn(move || {
                    let (mut repaired, mut rewritten, mut unrecoverable) = (0, 0, Vec::new());
                    for &stripe in chunk {
                        match self.repair_stripe(stripe)? {
                            RepairOutcome::Clean => {}
                            RepairOutcome::Repaired(sectors) => {
                                repaired += 1;
                                rewritten += sectors;
                            }
                            RepairOutcome::Unrecoverable => unrecoverable.push(stripe),
                        }
                        self.shared
                            .counters
                            .repair_stripes_done
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    Ok::<_, Error>((repaired, rewritten, unrecoverable))
                }));
            }
            handles
                .into_iter()
                .map(
                    #[expect(
                        clippy::expect_used,
                        reason = "a panicked repair worker is a bug — propagate, don't mask as Error"
                    )]
                    |h| h.join().expect("repair worker panicked"),
                )
                .collect::<Vec<_>>()
        });
        let (mut repaired, mut rewritten, mut unrecoverable) = (0, 0, Vec::new());
        for r in results {
            let (stripes, sectors, lost) = r?;
            repaired += stripes;
            rewritten += sectors;
            unrecoverable.extend(lost);
        }

        // Phase 3: promote fully rebuilt replacements. Only devices still
        // in `Rebuilding` — one re-failed concurrently must stay failed.
        unrecoverable.sort_unstable();
        if unrecoverable.is_empty() {
            sh.integrity.update_health(|h| {
                for &dev in &rebuilding {
                    if h.devices[dev] == DeviceState::Rebuilding {
                        h.devices[dev] = DeviceState::Healthy;
                    }
                }
            });
        }
        sh.integrity.persist()?;
        sh.devices.sync()?;

        Ok(RepairReport {
            devices_replaced: rebuilding,
            stripes_repaired: repaired,
            sectors_rewritten: rewritten,
            unrecoverable_stripes: unrecoverable,
        })
    }

    fn repair_stripe(&self, stripe_idx: usize) -> Result<RepairOutcome, Error> {
        let _guard = self.lock_stripe(stripe_idx);
        // Every lost cell a device can take back — healthy, or a
        // rebuilding replacement; a failed one still has no backing file
        // — including any this repair's own reads find bad.
        let devices = self.shared.integrity.device_states();
        let writable = |erased: &ErasureSet| {
            let writable = erased
                .iter()
                .filter(|&(_, dev)| devices[dev] != DeviceState::Failed);
            writable.collect()
        };
        let (mut cells, mut bytes) = (Vec::new(), Vec::new());
        let mut restored = |cell, data: &[u8]| {
            cells.push(cell);
            bytes.extend_from_slice(data);
        };
        let known = self.known_erasures(stripe_idx, &devices);
        match self.restore(stripe_idx, &devices, known, writable, &mut restored) {
            Ok(_) => {}
            Err(Error::Unrecoverable { .. }) => return Ok(RepairOutcome::Unrecoverable),
            Err(e) => return Err(e),
        }
        if cells.is_empty() {
            return Ok(RepairOutcome::Clean);
        }
        let sectors = bytes.chunks_exact(self.block_size());
        let cells: Vec<_> = cells.into_iter().zip(sectors).collect();
        self.rewrite_erased(stripe_idx, &cells)?;
        Ok(RepairOutcome::Repaired(cells.len()))
    }
}

enum RepairOutcome {
    Clean,
    Repaired(usize),
    Unrecoverable,
}

#[cfg(test)]
mod tests {
    use crate::store::StripeStore;
    use crate::StoreOptions;

    fn opts() -> StoreOptions {
        StoreOptions {
            code: "stair:8,4,2,1-1-2".parse().unwrap(),
            symbol: 64,
            stripes: 6,
        }
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn repair_rebuilds_devices_and_bursts_then_scrub_is_clean() {
        let dir = std::env::temp_dir().join(format!("stair-repair-full-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StripeStore::create(&dir, &opts()).unwrap();
        let payload = pattern(store.capacity() as usize, 21);
        store.write_at(0, &payload).unwrap();

        store.fail_device(2).unwrap();
        store.fail_device(7).unwrap();
        store.corrupt_sectors(4, 1, 2, 2).unwrap();
        store.scrub(2).unwrap(); // detect the burst

        let report = store.repair(3).unwrap();
        assert!(report.complete());
        assert_eq!(report.devices_replaced, vec![2, 7]);
        assert_eq!(report.stripes_repaired, 6); // every stripe lost chunks

        let scrub = store.scrub(2).unwrap();
        assert!(scrub.clean(), "{scrub:?}");
        assert_eq!(store.read_at(0, payload.len()).unwrap(), payload);
        // Status back to fully healthy.
        let status = store.status();
        assert!(status.failed_devices.is_empty());
        assert!(status.rebuilding_devices.is_empty());
        assert_eq!(status.known_bad_sectors, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn burst_only_repair_touches_only_damaged_stripes() {
        let dir = std::env::temp_dir().join(format!("stair-repair-burst-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StripeStore::create(&dir, &opts()).unwrap();
        let payload = pattern(store.capacity() as usize, 23);
        store.write_at(0, &payload).unwrap();
        store.corrupt_sectors(3, 2, 0, 2).unwrap();
        store.scrub(1).unwrap();
        let report = store.repair(2).unwrap();
        assert!(report.complete());
        assert!(report.devices_replaced.is_empty());
        assert_eq!(report.stripes_repaired, 1);
        assert_eq!(report.sectors_rewritten, 2);
        assert_eq!(store.read_at(0, payload.len()).unwrap(), payload);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: a write landing on a stripe the repair pass has
    /// already rebuilt must reach the rebuilding replacement device too,
    /// or promotion to healthy would serve the stale rebuilt sector on
    /// the checksum-verified fast path (lost update).
    #[test]
    fn foreground_writes_during_repair_are_not_lost() {
        let dir = std::env::temp_dir().join(format!("stair-repair-wr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StripeStore::create(
            &dir,
            &StoreOptions {
                stripes: 48,
                ..opts()
            },
        )
        .unwrap();
        let payload = pattern(store.capacity() as usize, 31);
        store.write_at(0, &payload).unwrap();
        store.fail_device(4).unwrap();

        let bps = store.blocks_per_stripe() * store.block_size();
        let mut expected = payload.clone();
        std::thread::scope(|scope| {
            let repair_store = store.clone();
            let repair = scope.spawn(move || repair_store.repair(2).unwrap());
            // Patch one block in every stripe while the rebuild runs, so
            // some writes land before and some after each stripe's repair.
            for stripe in 0..48usize {
                let off = stripe * bps;
                let patch = vec![stripe as u8 ^ 0xC3; store.block_size()];
                store.write_at(off as u64, &patch).unwrap();
                expected[off..off + patch.len()].copy_from_slice(&patch);
            }
            assert!(repair.join().expect("repair").complete());
        });

        // Post-promotion reads take the fast path; every write must be
        // visible, and the store must verify end to end.
        assert!(store.status().rebuilding_devices.is_empty());
        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
        assert!(store.scrub(2).unwrap().clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreground_reads_proceed_during_repair() {
        let dir = std::env::temp_dir().join(format!("stair-repair-online-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StripeStore::create(
            &dir,
            &StoreOptions {
                stripes: 32,
                ..opts()
            },
        )
        .unwrap();
        let payload = pattern(store.capacity() as usize, 29);
        store.write_at(0, &payload).unwrap();
        store.fail_device(1).unwrap();

        // Repair on one thread while another hammers degraded reads.
        let reader = store.clone();
        let len = payload.len();
        let expected = payload.clone();
        std::thread::scope(|scope| {
            let repair = scope.spawn(|| store.repair(2).unwrap());
            let reads = scope.spawn(move || {
                for i in 0..20 {
                    let off = (i * 97) % (len - 256);
                    let got = reader.read_at(off as u64, 256).unwrap();
                    assert_eq!(got, expected[off..off + 256].to_vec());
                }
            });
            reads.join().expect("reader");
            let report = repair.join().expect("repair");
            assert!(report.complete());
        });
        assert_eq!(store.read_at(0, payload.len()).unwrap(), payload);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
