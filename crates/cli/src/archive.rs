//! STAIR-coded file archives on disk: one chunk file per device plus a
//! manifest and a per-sector checksum table.

// Coordinate-indexed loops mirror the paper's (row, column) notation and
// stay symmetric with the write side; iterator adaptors would obscure that.
#![allow(clippy::needless_range_loop)]
use std::io;
use std::path::{Path, PathBuf};

use stair::{Config, StairCodec, Stripe};

use crate::Manifest;
use stair_store::checksum::fletcher32;

/// Encoding parameters for a new archive.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct EncodeOptions {
    /// Devices (chunk files).
    pub n: usize,
    /// Sectors per chunk per stripe.
    pub r: usize,
    /// Tolerated device failures.
    pub m: usize,
    /// Sector-failure coverage.
    pub e: Vec<usize>,
    /// Sector size in bytes.
    pub symbol: usize,
}

impl Default for EncodeOptions {
    /// `n = 8, r = 16, m = 2, e = (1, 2)`, 512-byte sectors — a RAID-6-like
    /// layout with burst protection.
    fn default() -> Self {
        EncodeOptions {
            n: 8,
            r: 16,
            m: 2,
            e: vec![1, 2],
            symbol: 512,
        }
    }
}

/// Outcome of a repair pass.
#[derive(Clone, Debug, Default, Eq, PartialEq)]
pub struct RepairOutcome {
    /// Chunk files that were missing and have been rebuilt.
    pub devices_rebuilt: Vec<usize>,
    /// `(stripe, device, sector)` triples repaired from checksum mismatches.
    pub sectors_repaired: Vec<(usize, usize, usize)>,
}

/// An opened archive directory.
#[derive(Debug)]
pub struct Archive {
    dir: PathBuf,
    manifest: Manifest,
}

impl Archive {
    /// Encodes `payload` into a fresh archive at `dir` (created if needed).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, and returns [`io::ErrorKind::InvalidInput`]
    /// for invalid STAIR parameters.
    pub fn encode_bytes(payload: &[u8], dir: &Path, opts: &EncodeOptions) -> io::Result<()> {
        let config = Config::new(opts.n, opts.r, opts.m, &opts.e).map_err(invalid)?;
        let codec: StairCodec = StairCodec::new(config.clone()).map_err(invalid)?;
        let per_stripe = config.data_symbols() * opts.symbol;
        let stripes = payload.len().div_ceil(per_stripe).max(1);
        let manifest = Manifest {
            n: opts.n,
            r: opts.r,
            m: opts.m,
            e: opts.e.clone(),
            symbol: opts.symbol,
            stripes,
            file_len: payload.len() as u64,
        };
        std::fs::create_dir_all(dir)?;

        // chunk_j.bin accumulates stripe after stripe; checksums.bin holds
        // one u32 per sector in (stripe, device, sector-row) order.
        let mut chunks: Vec<Vec<u8>> = vec![Vec::new(); opts.n];
        let mut sums: Vec<u8> = Vec::new();
        for s in 0..stripes {
            let mut stripe = Stripe::new(config.clone(), opts.symbol).map_err(invalid)?;
            let mut buf = vec![0u8; per_stripe];
            let start = s * per_stripe;
            if start < payload.len() {
                let end = (start + per_stripe).min(payload.len());
                buf[..end - start].copy_from_slice(&payload[start..end]);
            }
            stripe.write_data(&buf).map_err(invalid)?;
            codec.encode(&mut stripe).map_err(invalid)?;
            for device in 0..opts.n {
                for row in 0..opts.r {
                    let cell = stripe.cell(row, device);
                    chunks[device].extend_from_slice(cell);
                    sums.extend_from_slice(&fletcher32(cell).to_le_bytes());
                }
            }
        }
        for (device, data) in chunks.iter().enumerate() {
            std::fs::write(dir.join(chunk_name(device)), data)?;
        }
        std::fs::write(dir.join("checksums.bin"), &sums)?;
        manifest.save(dir)?;
        Ok(())
    }

    /// Encodes a file from disk.
    ///
    /// # Errors
    ///
    /// See [`Archive::encode_bytes`].
    pub fn encode_file(input: &Path, dir: &Path, opts: &EncodeOptions) -> io::Result<()> {
        let payload = std::fs::read(input)?;
        Self::encode_bytes(&payload, dir, opts)
    }

    /// Opens an existing archive.
    ///
    /// # Errors
    ///
    /// Propagates manifest I/O and parse errors.
    pub fn open(dir: &Path) -> io::Result<Self> {
        let manifest = Manifest::load(dir)?;
        Ok(Archive {
            dir: dir.to_path_buf(),
            manifest,
        })
    }

    /// The archive's manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Scans chunk files against the checksum table. Returns, per stripe,
    /// the erased `(row, device)` coordinates (whole missing devices plus
    /// checksum mismatches).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (missing chunk files are damage, not errors).
    pub fn scan_damage(&self) -> io::Result<Vec<Vec<(usize, usize)>>> {
        let m = &self.manifest;
        let sums = std::fs::read(self.dir.join("checksums.bin"))?;
        let chunk_data: Vec<Option<Vec<u8>>> = (0..m.n)
            .map(|d| std::fs::read(self.dir.join(chunk_name(d))).ok())
            .collect();
        let mut damage = vec![Vec::new(); m.stripes];
        for s in 0..m.stripes {
            for (d, chunk) in chunk_data.iter().enumerate() {
                for row in 0..m.r {
                    let sum_idx = ((s * m.n + d) * m.r + row) * 4;
                    let want =
                        u32::from_le_bytes(sums[sum_idx..sum_idx + 4].try_into().expect("4 bytes"));
                    let ok = chunk.as_ref().is_some_and(|data| {
                        let off = (s * m.r + row) * m.symbol;
                        data.len() >= off + m.symbol
                            && fletcher32(&data[off..off + m.symbol]) == want
                    });
                    if !ok {
                        damage[s].push((row, d));
                    }
                }
            }
        }
        Ok(damage)
    }

    /// Verifies the archive; `Ok(count)` is the number of damaged sectors.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn verify(&self) -> io::Result<usize> {
        Ok(self.scan_damage()?.iter().map(Vec::len).sum())
    }

    /// Repairs all detected damage in place, rewriting chunk files.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] if some stripe's damage
    /// exceeds the code's coverage.
    pub fn repair(&self) -> io::Result<RepairOutcome> {
        let m = &self.manifest;
        let config = Config::new(m.n, m.r, m.m, &m.e).map_err(invalid)?;
        let codec: StairCodec = StairCodec::new(config.clone()).map_err(invalid)?;
        let damage = self.scan_damage()?;
        let mut chunk_data: Vec<Vec<u8>> = (0..m.n)
            .map(|d| {
                std::fs::read(self.dir.join(chunk_name(d)))
                    .unwrap_or_else(|_| vec![0u8; m.stripes * m.r * m.symbol])
            })
            .collect();
        let missing: Vec<usize> = (0..m.n)
            .filter(|&d| !self.dir.join(chunk_name(d)).exists())
            .collect();

        let mut outcome = RepairOutcome {
            devices_rebuilt: missing.clone(),
            ..Default::default()
        };
        for (s, erased) in damage.iter().enumerate() {
            if erased.is_empty() {
                continue;
            }
            let mut stripe = Stripe::new(config.clone(), m.symbol).map_err(invalid)?;
            for d in 0..m.n {
                for row in 0..m.r {
                    let off = (s * m.r + row) * m.symbol;
                    stripe
                        .cell_mut(row, d)
                        .copy_from_slice(&chunk_data[d][off..off + m.symbol]);
                }
            }
            codec.decode(&mut stripe, erased).map_err(invalid)?;
            for &(row, d) in erased {
                let off = (s * m.r + row) * m.symbol;
                chunk_data[d][off..off + m.symbol].copy_from_slice(stripe.cell(row, d));
                if !missing.contains(&d) {
                    outcome.sectors_repaired.push((s, d, row));
                }
            }
        }
        for (d, data) in chunk_data.iter().enumerate() {
            std::fs::write(self.dir.join(chunk_name(d)), data)?;
        }
        Ok(outcome)
    }

    /// Extracts the original payload, verifying checksums first and
    /// repairing transparently if needed.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] on unrecoverable damage.
    pub fn extract(&self) -> io::Result<Vec<u8>> {
        if self.verify()? > 0 {
            self.repair()?;
        }
        let m = &self.manifest;
        let config = Config::new(m.n, m.r, m.m, &m.e).map_err(invalid)?;
        let chunk_data: Vec<Vec<u8>> = (0..m.n)
            .map(|d| std::fs::read(self.dir.join(chunk_name(d))))
            .collect::<io::Result<_>>()?;
        let mut payload = Vec::with_capacity(m.file_len as usize);
        for s in 0..m.stripes {
            let mut stripe = Stripe::new(config.clone(), m.symbol).map_err(invalid)?;
            for d in 0..m.n {
                for row in 0..m.r {
                    let off = (s * m.r + row) * m.symbol;
                    stripe
                        .cell_mut(row, d)
                        .copy_from_slice(&chunk_data[d][off..off + m.symbol]);
                }
            }
            payload.extend_from_slice(&stripe.read_data().map_err(invalid)?);
        }
        payload.truncate(m.file_len as usize);
        Ok(payload)
    }

    /// Deletes a chunk file (simulated device failure).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn fail_device(&self, device: usize) -> io::Result<()> {
        std::fs::remove_file(self.dir.join(chunk_name(device)))
    }

    /// Flips bits in `len` contiguous sectors of one chunk (simulated
    /// latent-error burst) in stripe `stripe` starting at sector `row`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; out-of-range coordinates are
    /// [`io::ErrorKind::InvalidInput`].
    pub fn corrupt_sectors(
        &self,
        device: usize,
        stripe: usize,
        row: usize,
        len: usize,
    ) -> io::Result<()> {
        let m = &self.manifest;
        if device >= m.n || stripe >= m.stripes || row >= m.r {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "coordinates out of range",
            ));
        }
        let path = self.dir.join(chunk_name(device));
        let mut data = std::fs::read(&path)?;
        for k in row..(row + len).min(m.r) {
            let off = (stripe * m.r + k) * m.symbol;
            for b in &mut data[off..off + m.symbol] {
                *b ^= 0xFF;
            }
        }
        std::fs::write(&path, data)
    }
}

fn chunk_name(device: usize) -> String {
    format!("chunk_{device:02}.bin")
}

fn invalid<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stair-cli-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn encode_extract_round_trip() {
        let dir = tmp("roundtrip");
        let data = payload(200_000);
        Archive::encode_bytes(&data, &dir, &EncodeOptions::default()).unwrap();
        let a = Archive::open(&dir).unwrap();
        assert_eq!(a.verify().unwrap(), 0);
        assert_eq!(a.extract().unwrap(), data);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn survives_device_loss_and_bursts() {
        let dir = tmp("repair");
        let data = payload(300_000);
        Archive::encode_bytes(&data, &dir, &EncodeOptions::default()).unwrap();
        let a = Archive::open(&dir).unwrap();
        a.fail_device(1).unwrap();
        a.fail_device(5).unwrap();
        a.corrupt_sectors(3, 0, 10, 2).unwrap(); // burst of 2 (≤ e_max)
        a.corrupt_sectors(7, 2, 4, 1).unwrap();
        let damaged = a.verify().unwrap();
        assert!(damaged > 0);
        let outcome = a.repair().unwrap();
        assert_eq!(outcome.devices_rebuilt, vec![1, 5]);
        assert_eq!(outcome.sectors_repaired.len(), 3);
        assert_eq!(a.verify().unwrap(), 0);
        assert_eq!(a.extract().unwrap(), data);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_beyond_coverage_is_reported() {
        let dir = tmp("loss");
        Archive::encode_bytes(&payload(50_000), &dir, &EncodeOptions::default()).unwrap();
        let a = Archive::open(&dir).unwrap();
        a.fail_device(0).unwrap();
        a.fail_device(1).unwrap();
        a.fail_device(2).unwrap(); // three failures > m = 2 + coverage
        assert!(a.repair().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn extract_transparently_repairs() {
        let dir = tmp("transparent");
        let data = payload(120_000);
        Archive::encode_bytes(&data, &dir, &EncodeOptions::default()).unwrap();
        let a = Archive::open(&dir).unwrap();
        a.corrupt_sectors(2, 1, 0, 1).unwrap();
        assert_eq!(a.extract().unwrap(), data);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_payload_still_archives() {
        let dir = tmp("empty");
        Archive::encode_bytes(&[], &dir, &EncodeOptions::default()).unwrap();
        let a = Archive::open(&dir).unwrap();
        assert_eq!(a.extract().unwrap(), Vec::<u8>::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
