//! Integrity state: the per-sector checksum table and the health record
//! (failed / rebuilding devices, known-bad sectors).
//!
//! Checksums are authoritative for *detection*: a sector whose stored
//! Fletcher-32 does not match its on-disk contents is treated as erased by
//! every read path. The health record is a cache of what detection has
//! already found (plus explicit failure declarations), so repair knows
//! what to rebuild without rescanning the world.
//!
//! The table is one flat row-major array — entry `(stripe·r + row)·n +
//! dev`, little-endian `u32`s — on disk exactly as in memory, so
//! [`Integrity::persist`] rewrites each run of consecutive changed
//! entries with one positioned write (a full stripe's `r·n` entries: one
//! write). `persist` only writes; the checkpoint that rewinds the journal
//! follows it with [`Integrity::sync_table`].

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use stair_code::CellIdx;

use crate::Error;
use stair_gf::fletcher32;

// Lock poisoning policy: every lock in this module is taken with
// `unwrap_or_else(PoisonError::into_inner)` instead of `unwrap()`. A
// poisoned lock only means some other thread panicked while holding it;
// propagating that panic would turn one crashed worker into a cascade
// through every thread serving the store (including a network server's
// whole worker pool). Continuing is sound here because this state is
// *detection* metadata with no cross-field invariants to break:
// checksum-table entries are single `u32` assignments (never observable
// half-written under the lock), and the worst a torn health update can
// leave behind is a stale or spurious bad-sector record — which makes a
// read treat the sector as erased and reconstruct it from parity, or a
// later scrub clear the record. Either way reads stay checksum-correct;
// poisoning can cost a reconstruction, never data integrity.

fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

fn mutex_lock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// File name of the checksum table.
pub const CHECKSUM_FILE: &str = "checksums.bin";
/// File name of the health record.
pub const HEALTH_FILE: &str = "health.txt";

/// Lifecycle state of one device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceState {
    /// Serving I/O normally.
    Healthy,
    /// Declared failed; its backing file is gone.
    Failed,
    /// Replacement file attached; reconstruction in progress. Reads still
    /// treat its sectors as erased until repair finishes.
    Rebuilding,
}

/// A damaged sector coordinate: `(stripe, row, device)`.
pub type BadSector = (usize, usize, usize);

/// Mutable health state, persisted as `health.txt`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Health {
    /// Per-device lifecycle states.
    pub devices: Vec<DeviceState>,
    /// Sectors known damaged on otherwise-healthy devices.
    pub bad_sectors: BTreeSet<BadSector>,
}

impl Health {
    fn new(n: usize) -> Self {
        Health {
            devices: vec![DeviceState::Healthy; n],
            bad_sectors: BTreeSet::new(),
        }
    }

    fn to_text(&self) -> String {
        let mut out = String::new();
        for (j, state) in self.devices.iter().enumerate() {
            match state {
                DeviceState::Healthy => {}
                DeviceState::Failed => out.push_str(&format!("failed {j}\n")),
                DeviceState::Rebuilding => out.push_str(&format!("rebuilding {j}\n")),
            }
        }
        for &(stripe, row, dev) in &self.bad_sectors {
            out.push_str(&format!("bad {stripe} {row} {dev}\n"));
        }
        out
    }

    fn parse(text: &str, n: usize) -> Result<Self, Error> {
        let mut health = Health::new(n);
        for line in text.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let parse = |v: &str| {
                v.parse::<usize>()
                    .map_err(|_| Error::Meta(format!("bad health line `{line}`")))
            };
            match fields.as_slice() {
                [] => {}
                ["failed", j] => {
                    let j = parse(j)?;
                    check_device(j, n)?;
                    health.devices[j] = DeviceState::Failed;
                }
                ["rebuilding", j] => {
                    let j = parse(j)?;
                    check_device(j, n)?;
                    health.devices[j] = DeviceState::Rebuilding;
                }
                ["bad", stripe, row, dev] => {
                    let dev = parse(dev)?;
                    check_device(dev, n)?;
                    health
                        .bad_sectors
                        .insert((parse(stripe)?, parse(row)?, dev));
                }
                _ => return Err(Error::Meta(format!("bad health line `{line}`"))),
            }
        }
        Ok(health)
    }
}

/// Writes `dir/name` via a temp file + rename, so readers never see a
/// half-written file (used for every small metadata file the store
/// rewrites in place: health, superblock).
pub(crate) fn write_atomic(dir: &Path, name: &str, contents: &[u8]) -> Result<(), Error> {
    let tmp = dir.join(format!("{name}.tmp"));
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, dir.join(name))?;
    Ok(())
}

fn check_device(j: usize, n: usize) -> Result<(), Error> {
    if j >= n {
        return Err(Error::Meta(format!("device {j} out of range (n={n})")));
    }
    Ok(())
}

/// The checksum table plus health record, with persistence.
pub struct Integrity {
    dir: PathBuf,
    n: usize,
    r: usize,
    /// `checksums[(stripe·r + row)·n + dev]`, guarding every stored sector.
    checksums: RwLock<Vec<u32>>,
    /// Table indices whose entries changed since the last persist; persist
    /// rewrites only these (one positioned write per run of consecutive
    /// indices), not the whole file.
    dirty: std::sync::Mutex<std::collections::BTreeSet<usize>>,
    /// Open handle on the checksum table file for positioned writes.
    table_file: std::fs::File,
    health: RwLock<Health>,
    /// Set by every health update, cleared by the persist that writes
    /// `health.txt` — a batch that changed no health rewrites nothing.
    health_dirty: AtomicBool,
    /// `health.bad_sectors.len()`, refreshed under the health write lock
    /// — lets a commit on an undamaged store skip that lock entirely.
    bad_sector_count: AtomicUsize,
    /// Serializes [`Integrity::persist`] so concurrent foreground writes
    /// and repair/scrub passes never interleave file updates.
    persist_lock: std::sync::Mutex<()>,
}

impl Integrity {
    /// Builds a fresh table for a zero-filled store.
    pub fn create(
        dir: &Path,
        n: usize,
        r: usize,
        symbol: usize,
        stripes: usize,
    ) -> Result<Self, Error> {
        let zero_sum = fletcher32(&vec![0u8; symbol]);
        let checksums = vec![zero_sum; stripes * r * n];
        let mut raw = Vec::with_capacity(checksums.len() * 4);
        for sum in &checksums {
            raw.extend_from_slice(&sum.to_le_bytes());
        }
        write_atomic(dir, CHECKSUM_FILE, &raw)?;
        write_atomic(dir, HEALTH_FILE, Health::new(n).to_text().as_bytes())?;
        Self::load(dir, n, r, stripes)
    }

    /// Loads the table and health record from `dir`.
    pub fn load(dir: &Path, n: usize, r: usize, stripes: usize) -> Result<Self, Error> {
        let raw = fs::read(dir.join(CHECKSUM_FILE))
            .map_err(|e| Error::Meta(format!("cannot read {CHECKSUM_FILE}: {e}")))?;
        let expected = stripes * r * n * 4;
        if raw.len() != expected {
            return Err(Error::Meta(format!(
                "{CHECKSUM_FILE} is {} bytes, expected {expected}",
                raw.len()
            )));
        }
        let checksums: Vec<u32> = raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let table_file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join(CHECKSUM_FILE))?;
        let health_text = fs::read_to_string(dir.join(HEALTH_FILE)).unwrap_or_default();
        let health = Health::parse(&health_text, n)?;
        Ok(Integrity {
            dir: dir.to_path_buf(),
            n,
            r,
            checksums: RwLock::new(checksums),
            dirty: std::sync::Mutex::new(std::collections::BTreeSet::new()),
            table_file,
            health_dirty: AtomicBool::new(false),
            bad_sector_count: AtomicUsize::new(health.bad_sectors.len()),
            health: RwLock::new(health),
            persist_lock: std::sync::Mutex::new(()),
        })
    }

    fn index(&self, stripe: usize, row: usize, dev: usize) -> usize {
        (stripe * self.r + row) * self.n + dev
    }

    /// The stored checksum for a sector.
    pub fn expected(&self, stripe: usize, row: usize, dev: usize) -> u32 {
        read_lock(&self.checksums)[self.index(stripe, row, dev)]
    }

    /// Verifies `data` against the stored checksum.
    pub fn verify(&self, stripe: usize, row: usize, dev: usize, data: &[u8]) -> bool {
        fletcher32(data) == self.expected(stripe, row, dev)
    }

    /// Records the checksums of freshly written sectors of one stripe
    /// (persisted on the next [`Integrity::persist`]): the sums are
    /// computed first, then installed under one table-lock and marked
    /// under one dirty-set acquisition, however many cells there are.
    pub fn record_cells(&self, stripe: usize, cells: &[(CellIdx, &[u8])]) {
        let sums: Vec<(usize, u32)> = cells
            .iter()
            .map(|&((row, dev), data)| (self.index(stripe, row, dev), fletcher32(data)))
            .collect();
        {
            let mut table = write_lock(&self.checksums);
            for &(idx, sum) in &sums {
                table[idx] = sum;
            }
        }
        mutex_lock(&self.dirty).extend(sums.iter().map(|&(idx, _)| idx));
    }

    /// Snapshot of the current health record (clones the bad-sector set;
    /// hot per-stripe paths should prefer [`Integrity::device_states`] /
    /// [`Integrity::recorded_bad_in`]).
    pub fn health(&self) -> Health {
        read_lock(&self.health).clone()
    }

    /// Per-device states only — cheap (`n` entries) for per-stripe paths.
    pub fn device_states(&self) -> Vec<DeviceState> {
        read_lock(&self.health).devices.clone()
    }

    /// The recorded bad sectors of one stripe, as `(row, device)`. While
    /// the record is empty — an undamaged store — this takes no lock.
    pub fn recorded_bad_in(&self, stripe: usize) -> Vec<(usize, usize)> {
        if self.bad_sector_count.load(Ordering::SeqCst) == 0 {
            return Vec::new();
        }
        let health = read_lock(&self.health);
        let of_stripe = health.bad_sectors.range((stripe, 0, 0)..(stripe + 1, 0, 0));
        of_stripe.map(|&(_, row, dev)| (row, dev)).collect()
    }

    /// Applies `f` to the health record and marks it for the next
    /// [`Integrity::persist`].
    pub fn update_health(&self, f: impl FnOnce(&mut Health)) {
        let mut guard = write_lock(&self.health);
        // Armed under the write lock, before `f` runs: `persist` clears
        // the flag and only then takes the read lock, so it either
        // writes this update or leaves the flag set for the next one.
        self.health_dirty.store(true, Ordering::SeqCst);
        f(&mut guard);
        self.bad_sector_count
            .store(guard.bad_sectors.len(), Ordering::SeqCst);
    }

    /// Drops freshly rewritten sectors from the bad-sector record. While
    /// the record is empty — every commit on an undamaged store — this
    /// takes no lock and dirties nothing.
    pub fn clear_bad(&self, rewritten: impl Iterator<Item = BadSector>) {
        if self.bad_sector_count.load(Ordering::SeqCst) == 0 {
            return;
        }
        self.update_health(|h| {
            for key in rewritten {
                h.bad_sectors.remove(&key);
            }
        });
    }

    /// Persists dirty checksum entries — one positioned write per run of
    /// consecutive table indices, so O(runs changed), not O(entries) or
    /// O(store size): a full stripe's `r·n` entries are one write — and,
    /// if it changed since the last persist, the health record (small;
    /// rewritten atomically via temp file + rename). The persist lock
    /// keeps concurrent callers from interleaving. Nothing here is
    /// fsync'd: a checkpoint follows with [`Integrity::sync_table`].
    pub fn persist(&self) -> Result<(), Error> {
        let _serial = mutex_lock(&self.persist_lock);
        self.write_dirty_runs()?;
        if self.health_dirty.swap(false, Ordering::SeqCst) {
            let health_text = read_lock(&self.health).to_text();
            if let Err(e) = write_atomic(&self.dir, HEALTH_FILE, health_text.as_bytes()) {
                self.health_dirty.store(true, Ordering::SeqCst);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Writes every dirty table entry to the table file, one positioned
    /// write per run of consecutive indices, and returns how many writes
    /// that took.
    fn write_dirty_runs(&self) -> Result<usize, Error> {
        use std::os::unix::fs::FileExt;
        let dirty: Vec<usize> = std::mem::take(&mut *mutex_lock(&self.dirty))
            .into_iter()
            .collect();
        let checksums = read_lock(&self.checksums);
        let mut raw = Vec::new();
        let mut writes = 0;
        for run in dirty.chunk_by(|a, b| *b == a + 1) {
            let first = run[0];
            raw.clear();
            for sum in &checksums[first..first + run.len()] {
                raw.extend_from_slice(&sum.to_le_bytes());
            }
            self.table_file.write_all_at(&raw, first as u64 * 4)?;
            writes += 1;
        }
        Ok(writes)
    }

    /// Flushes the checksum table file to disk — the last step of a
    /// checkpoint, after the device files and [`Integrity::persist`].
    pub fn sync_table(&self) -> Result<(), Error> {
        self.table_file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stair-integ-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn checksum_verify_record_cycle() {
        let dir = tmpdir("cvr");
        let integ = Integrity::create(&dir, 4, 2, 16, 3).unwrap();
        let zero = [0u8; 16];
        assert!(integ.verify(0, 0, 0, &zero));
        let data = [9u8; 16];
        assert!(!integ.verify(2, 1, 3, &data));
        integ.record_cells(2, &[((1, 3), &data)]);
        assert!(integ.verify(2, 1, 3, &data));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poisoned_locks_stay_usable() {
        // Regression: a worker panicking while holding the health lock
        // used to poison it and turn every later lock().unwrap() into a
        // panic cascade; now the store keeps serving.
        let dir = tmpdir("poison");
        let integ = std::sync::Arc::new(Integrity::create(&dir, 4, 2, 16, 3).unwrap());
        let clone = std::sync::Arc::clone(&integ);
        let died = std::thread::spawn(move || {
            clone.update_health(|_| panic!("worker dies mid-update"));
        })
        .join();
        assert!(died.is_err(), "the worker must have panicked");
        // Health, checksum, and persist paths all still work.
        assert_eq!(integ.health().devices.len(), 4);
        integ.update_health(|h| h.devices[1] = DeviceState::Failed);
        integ.record_cells(0, &[((0, 0), &[1u8; 16])]);
        assert!(integ.verify(0, 0, 0, &[1u8; 16]));
        integ.persist().unwrap();
        assert_eq!(
            Integrity::load(&dir, 4, 2, 3).unwrap().health().devices[1],
            DeviceState::Failed
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistence_round_trips_health_and_checksums() {
        let dir = tmpdir("prt");
        let integ = Integrity::create(&dir, 4, 2, 16, 3).unwrap();
        integ.record_cells(1, &[((0, 2), &[5u8; 16])]);
        integ.update_health(|h| {
            h.devices[3] = DeviceState::Failed;
            h.bad_sectors.insert((1, 1, 0));
        });
        integ.persist().unwrap();
        let again = Integrity::load(&dir, 4, 2, 3).unwrap();
        assert!(again.verify(1, 0, 2, &[5u8; 16]));
        let health = again.health();
        assert_eq!(health.devices[3], DeviceState::Failed);
        assert!(health.bad_sectors.contains(&(1, 1, 0)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persist_writes_one_run_per_span_of_consecutive_entries() {
        let dir = tmpdir("runs");
        // stair:8,16,2,1-2's table shape: a stripe is 128 entries.
        let (n, r) = (8, 16);
        let integ = Integrity::create(&dir, n, r, 16, 4).unwrap();
        let sector = |seed: usize| vec![seed as u8 ^ 0x5A; 16];
        let owned: Vec<(CellIdx, Vec<u8>)> =
            (0..r * n).map(|k| ((k / n, k % n), sector(k))).collect();
        let stripe: Vec<(CellIdx, &[u8])> = owned.iter().map(|(c, d)| (*c, &d[..])).collect();
        integ.record_cells(1, &stripe);
        integ.record_cells(0, &[((3, 5), &sector(200))]);
        integ.record_cells(3, &[((0, 2), &sector(201))]);
        assert_eq!(integ.write_dirty_runs().unwrap(), 3);
        assert_eq!(integ.write_dirty_runs().unwrap(), 0);
        // Entries that only abut across a stripe boundary still coalesce:
        // the table is one flat array.
        integ.record_cells(1, &[((r - 1, n - 1), &sector(7))]);
        integ.record_cells(2, &[((0, 0), &sector(8)), ((0, 1), &sector(9))]);
        assert_eq!(integ.write_dirty_runs().unwrap(), 1);
        let again = Integrity::load(&dir, n, r, 4).unwrap();
        assert_eq!(
            *read_lock(&again.checksums),
            *read_lock(&integ.checksums),
            "the reloaded table is the in-memory one"
        );
        assert!(again.verify(1, 2, 3, &sector(2 * n + 3)));
        assert!(again.verify(3, 0, 2, &sector(201)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
