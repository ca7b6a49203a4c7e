//! Per-device backing files.
//!
//! Each of the `n` devices is one flat file of `stripes × r` sectors;
//! sector `(stripe, row)` of device `j` lives at byte offset
//! `(stripe·r + row)·symbol` of `dev_j`'s file. Reads and writes use
//! positioned I/O (`pread`/`pwrite`), so concurrent stripe operations
//! never contend on a shared cursor. Consecutive rows of one stripe are
//! contiguous in a device's file, so a **run** of them is one positioned
//! read ([`DeviceSet::read_run`]) or write ([`DeviceSet::write_run`]).

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use crate::Error;

/// Name of device `j`'s backing file.
pub fn device_file_name(device: usize) -> String {
    format!("dev_{device:02}.stair")
}

/// The result of reading one sector.
#[derive(Debug, PartialEq, Eq)]
pub enum SectorRead {
    /// The full sector was read.
    Ok,
    /// The device file is absent (failed device) or too short.
    Missing,
}

/// The set of `n` backing files for one store.
pub struct DeviceSet {
    dir: PathBuf,
    r: usize,
    symbol: usize,
    stripes: usize,
    slots: Vec<RwLock<Option<File>>>,
    /// Sectors read back whole, on any path (a statistic: relaxed).
    sector_reads: AtomicU64,
    /// Sectors written, on any path (a statistic: relaxed).
    sector_writes: AtomicU64,
    /// Positioned writes those sectors took (a statistic: relaxed).
    write_runs: AtomicU64,
}

impl DeviceSet {
    /// Opens whatever device files exist under `dir`; absent files leave
    /// their slot empty (the health table decides how to treat that).
    pub fn open(dir: &Path, n: usize, r: usize, symbol: usize, stripes: usize) -> Self {
        let slots = (0..n)
            .map(|j| {
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(dir.join(device_file_name(j)))
                    .ok();
                RwLock::new(file)
            })
            .collect();
        DeviceSet {
            dir: dir.to_path_buf(),
            r,
            symbol,
            stripes,
            slots,
            sector_reads: AtomicU64::new(0),
            sector_writes: AtomicU64::new(0),
            write_runs: AtomicU64::new(0),
        }
    }

    /// Creates all `n` device files zero-filled to their full size.
    pub fn create(
        dir: &Path,
        n: usize,
        r: usize,
        symbol: usize,
        stripes: usize,
    ) -> Result<Self, Error> {
        let len = (stripes * r * symbol) as u64;
        for j in 0..n {
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(dir.join(device_file_name(j)))?;
            file.set_len(len)?;
        }
        Ok(Self::open(dir, n, r, symbol, stripes))
    }

    /// Refuses a geometry that no present device file agrees with.
    /// Device files are created at their full length and keep it (one
    /// cut short is damage the codec reads around), so when every present
    /// file has another length, the superblock's `symbol` or `stripes` is
    /// not what the files were written with — and trusting it would size
    /// reads after a capacity the files do not have.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Meta`] naming both lengths.
    pub fn check_file_lengths(&self) -> Result<(), Error> {
        let want = (self.stripes * self.r * self.symbol) as u64;
        let mut lens = Vec::new();
        for slot in &self.slots {
            if let Some(file) = slot.read().unwrap_or_else(|e| e.into_inner()).as_ref() {
                lens.push(file.metadata()?.len());
            }
        }
        if lens.is_empty() || lens.contains(&want) {
            return Ok(());
        }
        lens.sort_unstable();
        lens.dedup();
        Err(Error::Meta(format!(
            "the superblock implies {want}-byte device files, but they are {lens:?} bytes"
        )))
    }

    /// Whether device `j`'s backing file is currently present.
    pub fn is_present(&self, device: usize) -> bool {
        self.slots[device]
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    fn offset(&self, stripe: usize, row: usize) -> u64 {
        ((stripe * self.r + row) * self.symbol) as u64
    }

    /// Reads the `buf.len() / symbol` consecutive sectors of `device`
    /// that start at `(stripe, row)` — one contiguous span of its file —
    /// with a single positioned read, and returns how many came back
    /// whole: fewer than asked when the file ends early, none when it is
    /// absent (a failed device).
    ///
    /// # Errors
    ///
    /// Propagates real I/O errors.
    pub fn read_run(
        &self,
        device: usize,
        stripe: usize,
        row: usize,
        buf: &mut [u8],
    ) -> Result<usize, Error> {
        debug_assert_eq!(buf.len() % self.symbol, 0);
        let slot = self.slots[device].read().unwrap_or_else(|e| e.into_inner());
        let Some(file) = slot.as_ref() else {
            return Ok(0);
        };
        let start = self.offset(stripe, row);
        let mut filled = 0;
        while filled < buf.len() {
            match file.read_at(&mut buf[filled..], start + filled as u64) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        let whole = filled / self.symbol;
        self.sector_reads.fetch_add(whole as u64, Ordering::Relaxed);
        Ok(whole)
    }

    /// Reads sector `(stripe, row)` of `device` into `buf`
    /// (`buf.len() == symbol`): a [`DeviceSet::read_run`] of one. An
    /// absent or truncated file is reported as [`SectorRead::Missing`],
    /// not an error.
    ///
    /// # Errors
    ///
    /// Propagates real I/O errors.
    pub fn read_sector(
        &self,
        device: usize,
        stripe: usize,
        row: usize,
        buf: &mut [u8],
    ) -> Result<SectorRead, Error> {
        debug_assert_eq!(buf.len(), self.symbol);
        Ok(match self.read_run(device, stripe, row, buf)? {
            0 => SectorRead::Missing,
            _ => SectorRead::Ok,
        })
    }

    /// Sectors read back whole since this set was opened.
    pub fn sector_reads(&self) -> u64 {
        self.sector_reads.load(Ordering::Relaxed)
    }

    /// Writes the `data.len() / symbol` consecutive sectors of `device`
    /// that start at `(stripe, row)` — one contiguous span of its file —
    /// with a single positioned write: the mirror of
    /// [`DeviceSet::read_run`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Device`] if the device file is absent.
    pub fn write_run(
        &self,
        device: usize,
        stripe: usize,
        row: usize,
        data: &[u8],
    ) -> Result<(), Error> {
        debug_assert_eq!(data.len() % self.symbol, 0);
        let slot = self.slots[device].read().unwrap_or_else(|e| e.into_inner());
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
    pub fn write_sector(
        &self,
        device: usize,
        stripe: usize,
        row: usize,
        data: &[u8],
    ) -> Result<(), Error> {
        debug_assert_eq!(data.len(), self.symbol);
        self.write_run(device, stripe, row, data)
    }

    /// Sectors written since this set was opened.
    pub fn sector_writes(&self) -> u64 {
        self.sector_writes.load(Ordering::Relaxed)
    }

    /// Positioned writes issued since this set was opened.
    pub fn write_runs(&self) -> u64 {
        self.write_runs.load(Ordering::Relaxed)
    }

    /// Drops the handle and deletes the backing file (device failure).
    pub fn remove(&self, device: usize) -> Result<(), Error> {
        let mut slot = self.slots[device]
            .write()
            .unwrap_or_else(|e| e.into_inner());
        *slot = None;
        let path = self.dir.join(device_file_name(device));
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Creates a fresh zero-filled replacement file for `device` (the
    /// first step of online repair).
    pub fn replace(&self, device: usize) -> Result<(), Error> {
        let mut slot = self.slots[device]
            .write()
            .unwrap_or_else(|e| e.into_inner());
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.dir.join(device_file_name(device)))?;
        file.set_len((self.stripes * self.r * self.symbol) as u64)?;
        *slot = Some(file);
        Ok(())
    }

    /// Flushes all live device files to disk.
    pub fn sync(&self) -> Result<(), Error> {
        for slot in &self.slots {
            if let Some(file) = slot.read().unwrap_or_else(|e| e.into_inner()).as_ref() {
                file.sync_data()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
