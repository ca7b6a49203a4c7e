//! Per-device backing files.
//!
//! Each of the `n` devices is one flat file of `stripes × r` sectors;
//! sector `(stripe, row)` of device `j` lives at byte offset
//! `(stripe·r + row)·symbol` of `dev_j`'s file. Reads and writes use
//! positioned I/O (`pread`/`pwrite`), so concurrent stripe operations
//! never contend on a shared cursor. Consecutive rows of one stripe are
//! contiguous in a device's file, so a **run** of them is one positioned
//! read ([`DeviceSet::read_run`]) or write (`DeviceSet::write_run`).
//! The writes, and the only ways to one, live in [`persist`].

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use stair_obs::sync::{read, write};

use crate::Error;

mod persist;

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
            if let Some(file) = read(slot).as_ref() {
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
        read(&self.slots[device]).is_some()
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
        let slot = read(&self.slots[device]);
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
        let mut slot = write(&self.slots[device]);
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
        let mut slot = write(&self.slots[device]);
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
            if let Some(file) = read(slot).as_ref() {
                file.sync_data()?;
            }
        }
        Ok(())
    }
}
