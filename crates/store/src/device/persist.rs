//! Every in-place sector write, and the only three ways to one.
//!
//! The store's crash rule: no sector is overwritten in place before the
//! journal holds its post-image. A write that skips the journal leaves,
//! after a crash, a torn stripe that is neither old nor new — the
//! corruption the journal exists to rule out. So the sector writers
//! live here and are private to this module: [`DeviceSet`]'s
//! `write_run`/`write_sector` and [`StripeStore`]'s one recorded writer
//! `write_recorded`. A call to any of them from elsewhere in the crate
//! does not compile (E0624). The rest of the crate writes sectors only
//! through three entry points, each named for why it may:
//!
//! * [`StripeStore::apply_write_back`] — the in-place leg of the
//!   planner's group commit and of journal replay, both journal-first;
//! * [`StripeStore::rewrite_erased`] — repair, which rewrites only cells
//!   already recorded erased, so a torn rewrite stays erased and is
//!   repaired again;
//! * [`StripeStore::corrupt_run`] — fault injection's deliberately
//!   un-journaled damage, which flips bits and writes nothing else.

use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::sync::atomic::Ordering;

use stair_code::CellIdx;
use stair_obs::sync::read;

use super::{DeviceSet, SectorRead};
use crate::store::StripeStore;
use crate::Error;

impl DeviceSet {
    /// Writes the `data.len() / symbol` consecutive sectors of `device`
    /// that start at `(stripe, row)` — one contiguous span of its file —
    /// with a single positioned write: the mirror of
    /// [`DeviceSet::read_run`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Device`] if the device file is absent.
    fn write_run(
        &self,
        device: usize,
        stripe: usize,
        row: usize,
        data: &[u8],
    ) -> Result<(), Error> {
        debug_assert_eq!(data.len() % self.symbol, 0);
        let slot = read(&self.slots[device]);
        let Some(file) = slot.as_ref() else {
            return Err(Error::Device(format!(
                "device {device} has no backing file (failed?)"
            )));
        };
        file.write_all_at(data, self.offset(stripe, row))?;
        let sectors = (data.len() / self.symbol) as u64;
        self.sector_writes.fetch_add(sectors, Ordering::Relaxed);
        self.write_runs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Writes sector `(stripe, row)` of `device` (`data.len() ==
    /// symbol`): a [`DeviceSet::write_run`] of one.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Device`] if the device file is absent.
    fn write_sector(
        &self,
        device: usize,
        stripe: usize,
        row: usize,
        data: &[u8],
    ) -> Result<(), Error> {
        debug_assert_eq!(data.len(), self.symbol);
        self.write_run(device, stripe, row, data)
    }
}

impl StripeStore {
    /// The in-place leg of a commit, after the journal record covering
    /// `targets` is durable: the planner's group commit and journal
    /// replay, both journal-first. Callers hold the stripe lock.
    pub(crate) fn apply_write_back(
        &self,
        stripe_idx: usize,
        targets: &[(CellIdx, &[u8])],
    ) -> Result<(), Error> {
        self.write_recorded(stripe_idx, targets)
    }

    /// Repair's write: `cells` of a stripe, rebuilt from parity, where
    /// every cell is already recorded erased (a `Rebuilding` device or a
    /// recorded bad sector). No journal record is needed: a crash inside
    /// it leaves those cells erased, and the next repair rebuilds them.
    /// Callers hold the stripe lock.
    pub(crate) fn rewrite_erased(
        &self,
        stripe_idx: usize,
        cells: &[(CellIdx, &[u8])],
    ) -> Result<(), Error> {
        self.write_recorded(stripe_idx, cells)
    }

    /// Fault injection's damage: flips the bits of sectors `rows` of
    /// `dev` in stripe `stripe` on disk, un-journaled on purpose, and
    /// leaves their checksums stale so only a verifying read or scrub
    /// notices. Callers hold the stripe lock and have checked the
    /// coordinates.
    ///
    /// # Errors
    ///
    /// [`Error::Device`] when `dev` has no backing file.
    pub(crate) fn corrupt_run(
        &self,
        dev: usize,
        stripe: usize,
        rows: Range<usize>,
    ) -> Result<(), Error> {
        let devices = &self.shared.devices;
        let mut buf = vec![0u8; self.shared.meta.symbol];
        for row in rows {
            if devices.read_sector(dev, stripe, row, &mut buf)? == SectorRead::Missing {
                return Err(Error::Device(format!("device {dev} has no backing file")));
            }
            for b in buf.iter_mut() {
                *b ^= 0xA5;
            }
            devices.write_sector(dev, stripe, row, &buf)?;
        }
        Ok(())
    }

    /// The one writer, counterpart of [`StripeStore::load_verified`]:
    /// writes `cells` of a stripe — one positioned write per run of
    /// consecutive rows on one device, which the device files store
    /// contiguously — then records every checksum under one table lock
    /// and takes the rewritten sectors off the bad-sector map. Write
    /// order is device-major; a crash inside it is the journal's to
    /// finish, whatever the order. Every cell must sit on a device with
    /// a backing file (not `Failed`).
    fn write_recorded(&self, stripe_idx: usize, cells: &[(CellIdx, &[u8])]) -> Result<(), Error> {
        let sh = &self.shared;
        let mut sorted = cells.to_vec();
        // Stable: a replayed record naming a cell twice keeps its last
        // image, as sector-by-sector order would.
        sorted.sort_by_key(|&((row, dev), _)| (dev, row));
        let mut buf = Vec::new();
        for run in sorted.chunk_by(|a, b| b.0 == (a.0 .0 + 1, a.0 .1)) {
            let ((row, dev), first) = run[0];
            let span = if run.len() == 1 {
                first
            } else {
                buf.clear();
                buf.reserve(run.len() * first.len());
                for &(_, data) in run {
                    buf.extend_from_slice(data);
                }
                &buf[..]
            };
            sh.devices.write_run(dev, stripe_idx, row, span)?;
        }
        sh.integrity.record_cells(stripe_idx, cells);
        let rewritten = cells.iter().map(|&((row, dev), _)| (stripe_idx, row, dev));
        sh.integrity.clear_bad(rewritten);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stair-dev-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sector_round_trip_and_offsets() {
        let dir = tmpdir("rt");
        let set = DeviceSet::create(&dir, 3, 4, 16, 5).unwrap();
        let data = [0xABu8; 16];
        set.write_sector(2, 3, 1, &data).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(set.read_sector(2, 3, 1, &mut buf).unwrap(), SectorRead::Ok);
        assert_eq!(buf, data);
        // Neighbouring sector untouched (still zero).
        assert_eq!(set.read_sector(2, 3, 2, &mut buf).unwrap(), SectorRead::Ok);
        assert_eq!(buf, [0u8; 16]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_run_is_one_read_of_consecutive_rows_and_stops_at_the_file_end() {
        let dir = tmpdir("run");
        let set = DeviceSet::create(&dir, 2, 4, 8, 3).unwrap();
        for row in 0..4 {
            set.write_sector(1, 2, row, &[row as u8 + 1; 8]).unwrap();
        }
        let mut buf = [0u8; 24];
        assert_eq!(set.read_run(1, 2, 1, &mut buf).unwrap(), 3);
        assert_eq!(buf[..8], [2u8; 8]);
        assert_eq!(buf[16..], [4u8; 8]);
        assert_eq!(set.sector_reads(), 3);
        // The file cut inside the last stripe's third sector: the run
        // hands back the two whole sectors before the cut.
        let file = OpenOptions::new()
            .write(true)
            .open(dir.join(device_file_name(1)))
            .unwrap();
        file.set_len(((2 * 4 + 2) * 8 + 5) as u64).unwrap();
        let mut buf = [0u8; 32];
        assert_eq!(set.read_run(1, 2, 0, &mut buf).unwrap(), 2);
        assert_eq!(set.sector_reads(), 5);
        set.remove(1).unwrap();
        assert_eq!(set.read_run(1, 2, 0, &mut buf).unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_write_run_is_one_write_of_consecutive_rows() {
        let dir = tmpdir("wrun");
        let set = DeviceSet::create(&dir, 2, 4, 8, 3).unwrap();
        let run: Vec<u8> = (1..=3u8).flat_map(|row| [row; 8]).collect();
        set.write_run(1, 2, 1, &run).unwrap();
        assert_eq!((set.sector_writes(), set.write_runs()), (3, 1));
        let mut stripe = [0u8; 32];
        assert_eq!(set.read_run(1, 2, 0, &mut stripe).unwrap(), 4);
        assert_eq!(stripe[..8], [0u8; 8]);
        assert_eq!(stripe[8..], run[..]);
        // The neighbouring stripe and device are untouched.
        assert_eq!(set.read_run(1, 1, 0, &mut stripe).unwrap(), 4);
        assert_eq!(stripe, [0u8; 32]);
        assert_eq!(set.read_run(0, 2, 0, &mut stripe).unwrap(), 4);
        assert_eq!(stripe, [0u8; 32]);
        set.write_sector(0, 0, 0, &[9u8; 8]).unwrap();
        assert_eq!((set.sector_writes(), set.write_runs()), (4, 2));
        set.remove(1).unwrap();
        assert!(set.write_run(1, 2, 1, &run).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_then_replace_restores_zeroed_device() {
        let dir = tmpdir("rr");
        let set = DeviceSet::create(&dir, 2, 2, 8, 2).unwrap();
        set.write_sector(1, 0, 0, &[7u8; 8]).unwrap();
        set.remove(1).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(
            set.read_sector(1, 0, 0, &mut buf).unwrap(),
            SectorRead::Missing
        );
        assert!(set.write_sector(1, 0, 0, &[1u8; 8]).is_err());
        set.replace(1).unwrap();
        assert_eq!(set.read_sector(1, 0, 0, &mut buf).unwrap(), SectorRead::Ok);
        assert_eq!(buf, [0u8; 8]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
