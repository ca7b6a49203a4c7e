//! The stripe-store engine: a block-addressable, file-backed store laid
//! out across `n` per-device files and protected by any
//! [`stair_code::ErasureCode`] — STAIR, SD, or plain Reed–Solomon.
//!
//! # Data path design
//!
//! Every read and write — a lone `read_at`/`write_at` as much as a
//! scatter-gather `submit` — runs through the one per-stripe planner in
//! `batch.rs`; this module holds what the planner stands on.
//!
//! * **Writes** are batched per stripe. A write covering *every* data
//!   block of a stripe never reads old state: the stripe is rebuilt in
//!   memory and fully re-encoded (one sequential pass). A partial write
//!   is a read-modify-write over its **footprint** only — each written
//!   block's data sector plus the parity sectors that depend on it
//!   ([`stair_code::ErasureCode::dependents`]), `1 + penalty(d)` sectors
//!   read, patched with the codec's parity delta
//!   ([`stair_code::ErasureCode::fold_delta`]) and written back: the
//!   §6.3 update cost, measurable per codec as `sector_reads` in
//!   [`IoStats`]. If any footprint sector sits on a device that is not
//!   healthy or fails its checksum, the write takes the restore path
//!   instead: the whole stripe is loaded, lost sectors reconstructed,
//!   the same patch applied, and the reconstructed sectors healed.
//! * **Reads** verify every sector against the Fletcher-32 table. A
//!   fragment with nothing lost is served straight from its data
//!   sectors. When a wanted sector sits on a device that is not healthy
//!   or is recorded bad, the read is **degraded** and plans first: the
//!   codec's planner ([`stair_code::ErasureCode::plan_recover`]) works
//!   out how to reconstruct exactly the wanted lost sectors from what is
//!   known lost, and only the plan's sources
//!   ([`stair_code::Plan::sources`]) and the surviving wanted sectors are
//!   read. The plan then runs over those sectors where the loader put
//!   them, and its targets land in the caller's buffer: no stripe is
//!   assembled. Damage nobody knew of — a missing file, a short read, a
//!   checksum mismatch where none was recorded — falls back to loading
//!   the whole stripe, which records it for the next read.
//! * All sector I/O is positioned (`pread`/`pwrite`) and goes through
//!   one verified loader and one recorded writer, which read and write
//!   consecutive rows of a device — which its file stores contiguously —
//!   as one run: a full-stripe write-back is `n` positioned writes, not
//!   `r·n`. Stripes are guarded by striped locks, so reads, writes,
//!   scrubbing, and repair of *different* stripes proceed concurrently.
//!
//! Whole stripes move through the engine as flat [`StripeBuf`]s — the
//! same memory the codecs encode and decode in place, with no per-cell
//! reshaping between the I/O layer and the math. A partial write's
//! footprint is a map of just its sectors, and a degraded read's sectors
//! stay in the loader's buffer.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use stair_code::{
    CellIdx, CellLookup, CodeError, CodecSpec, ErasureCode, ErasureSet, Geometry, StripeBuf,
};

use crate::device::{DeviceSet, SectorRead};
use crate::integrity::{DeviceState, Integrity};
use crate::journal::{env_journal_segment, Journal};
use crate::layout::BlockMap;
use crate::meta::StoreMeta;
use crate::Error;

/// Geometry for [`StripeStore::create`].
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Which erasure code protects the stripes.
    pub code: CodecSpec,
    /// Bytes per sector (= logical block size).
    pub symbol: usize,
    /// Stripes in the store.
    pub stripes: usize,
}

impl Default for StoreOptions {
    /// The paper's running example (`stair:8,4,2,1-1-2`) with 512-byte
    /// sectors and 64 stripes.
    fn default() -> Self {
        StoreOptions {
            code: CodecSpec::Stair {
                n: 8,
                r: 4,
                m: 2,
                e: vec![1, 1, 2],
            },
            symbol: 512,
            stripes: 64,
        }
    }
}

/// A point-in-time summary of the store's health and geometry.
#[derive(Clone, Debug)]
pub struct StoreStatus {
    /// The codec spec protecting the stripes.
    pub codec: CodecSpec,
    /// Logical capacity in bytes.
    pub capacity: u64,
    /// Logical block size in bytes.
    pub block_size: usize,
    /// Stripe count.
    pub stripes: usize,
    /// Data blocks per stripe.
    pub blocks_per_stripe: usize,
    /// Devices currently failed (no backing file).
    pub failed_devices: Vec<usize>,
    /// Devices currently being rebuilt.
    pub rebuilding_devices: Vec<usize>,
    /// Known-damaged sectors awaiting repair.
    pub known_bad_sectors: usize,
    /// Whether the previous close checkpointed the journal (a fresh
    /// store reports `true`; after a crash, `false` until the next
    /// clean shutdown).
    pub clean_shutdown: bool,
    /// Journal records replayed when this store handle opened.
    pub replayed_records: u64,
}

/// A point-in-time snapshot of the store's data-path instrumentation:
/// cumulative counts since the store handle family was opened (handles
/// cloned from one [`StripeStore`] share counters). The batched submit
/// path exists to shrink exactly these numbers — a batch of N
/// same-stripe writes should cost one lock acquisition and one codec
/// pass, not N — so tests and benchmarks assert on deltas of this
/// snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Stripe-lock acquisitions (foreground I/O, scrub, and repair all
    /// take stripe locks).
    pub stripe_locks: u64,
    /// Full-stripe encode passes (`ErasureCode::encode`).
    pub encode_passes: u64,
    /// Parity-delta update calls (`ErasureCode::update`), one per
    /// dirty cell.
    pub delta_update_calls: u64,
    /// Recovery plan applications (`ErasureCode::apply`) on the
    /// foreground read/write path.
    pub recover_passes: u64,
    /// Sectors read from the device files, on every path. A one-block
    /// write on a healthy stripe reads `1 + penalty(d)` of them — the
    /// paper's §6.3 update cost, observed where the I/O happens.
    pub sector_reads: u64,
    /// Sectors written to the device files, on every path.
    pub sector_writes: u64,
    /// Positioned writes those sectors took: one per run of consecutive
    /// rows on one device — `n` for a healthy full-stripe write, against
    /// `r·n` sectors.
    pub write_runs: u64,
}

/// The live counters behind [`IoStats`]; relaxed ordering is enough
/// because readers only ever want monotonic totals, not ordering
/// against data operations.
#[derive(Default)]
pub(crate) struct Counters {
    stripe_locks: AtomicU64,
    encode_passes: AtomicU64,
    delta_update_calls: AtomicU64,
    recover_passes: AtomicU64,
    /// Progress gauge: stripes completed by the current (or last) scrub
    /// pass. Reset when a pass starts, so a concurrent metrics reader
    /// watches it climb from 0 to the stripe count.
    pub(crate) scrub_stripes_done: AtomicU64,
    /// Progress gauge: stripes completed by the current (or last)
    /// repair pass.
    pub(crate) repair_stripes_done: AtomicU64,
    /// Journal records replayed at open (0 after a clean shutdown).
    pub(crate) journal_replayed: AtomicU64,
}

impl Counters {
    pub(crate) fn count_encode(&self) {
        self.encode_passes.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn count_update(&self) {
        self.delta_update_calls.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn count_recover(&self) {
        self.recover_passes.fetch_add(1, Ordering::Relaxed);
    }
}

pub(crate) struct Shared {
    pub(crate) dir: PathBuf,
    pub(crate) meta: StoreMeta,
    pub(crate) codec: Box<dyn ErasureCode>,
    pub(crate) geometry: Geometry,
    pub(crate) blocks: BlockMap,
    pub(crate) devices: DeviceSet,
    pub(crate) integrity: Integrity,
    pub(crate) counters: Counters,
    pub(crate) journal: Journal,
    /// Sticky: whether the superblock said the *previous* close was
    /// clean, as read when this handle family opened.
    pub(crate) clean_shutdown: bool,
    stripe_locks: Vec<Mutex<()>>,
}

impl Shared {
    /// What every checkpoint runs before the journal is rewound, in
    /// this order: the device files are flushed, the dirty checksum
    /// entries (and the health record) written, then the table file
    /// flushed too — a table left in the page cache with the journal
    /// already empty would, after a power loss, read every sector
    /// written since its last flush as corrupt.
    pub(crate) fn make_durable(&self) -> Result<(), Error> {
        self.devices.sync()?;
        self.integrity.persist()?;
        self.integrity.sync_table()
    }
}

impl Drop for Shared {
    /// Best-effort clean shutdown on the last handle: make everything
    /// durable, truncate the journal, and mark the superblock clean. A
    /// crash (the whole point of the journal) simply never runs this —
    /// the superblock then still says `clean_shutdown 0` and the next
    /// open replays. Errors are ignored: failing to mark clean only
    /// costs the next open a (correct, idempotent) replay.
    fn drop(&mut self) {
        if self.journal.checkpoint(|| self.make_durable()).is_ok() {
            let mut meta = self.meta.clone();
            meta.clean_shutdown = true;
            let _ = meta.save(&self.dir);
        }
    }
}

/// The stripe-store engine. Cheap to clone (`Arc` inside); clones share
/// the same store, so foreground I/O, scrubbing, and repair can run from
/// different threads concurrently.
#[derive(Clone)]
pub struct StripeStore {
    pub(crate) shared: Arc<Shared>,
}

impl StripeStore {
    /// Creates a new zero-filled store under `dir` (created if absent).
    ///
    /// A zero store is consistent by linearity: parity over all-zero data
    /// is all-zero, so freshly created devices already verify.
    ///
    /// # Errors
    ///
    /// Fails if the spec does not describe a constructible codec, the
    /// scalar geometry is degenerate (zero `symbol`/`stripes`, or sizes
    /// that overflow — validated here, not just on reopen), or any file
    /// operation fails (including `dir` already holding a store).
    pub fn create(dir: &Path, opts: &StoreOptions) -> Result<Self, Error> {
        let meta = StoreMeta {
            codec: opts.code.clone(),
            symbol: opts.symbol,
            stripes: opts.stripes,
            journal_segment: env_journal_segment(),
            // The store is live from here until a clean close.
            clean_shutdown: false,
        };
        // The same checks `open` applies when parsing the superblock, so a
        // store that creates is always a store that reopens.
        let codec = meta.checked_codec()?;
        let geometry = codec.geometry();
        std::fs::create_dir_all(dir)?;
        // Device files first (create_new fails fast on an existing store);
        // the superblock is written only once everything else succeeded, so
        // a failed init never clobbers an existing store's metadata.
        let devices = DeviceSet::create(dir, geometry.n, geometry.r, meta.symbol, meta.stripes)?;
        let integrity = Integrity::create(dir, geometry.n, geometry.r, meta.symbol, meta.stripes)?;
        let journal = Journal::open_or_create(dir, meta.symbol, meta.journal_segment)?;
        meta.save(dir)?;
        // A fresh store has nothing to recover: report the previous
        // shutdown (vacuously) clean.
        Self::assemble(dir, meta, codec, devices, integrity, journal, true)
    }

    /// Opens an existing store, rebuilding whichever codec the superblock
    /// names.
    ///
    /// A device whose backing file is missing but which the health record
    /// still lists as healthy is demoted to failed (crash between a
    /// failure and its record, or manual file deletion).
    ///
    /// # Errors
    ///
    /// Fails on absent/corrupt metadata (including a superblock whose
    /// `symbol`/`stripes` no present device file agrees with) or
    /// unreadable integrity state.
    pub fn open(dir: &Path) -> Result<Self, Error> {
        let (mut meta, codec) = StoreMeta::load_with_codec(dir)?;
        let geometry = codec.geometry();
        let devices = DeviceSet::open(dir, geometry.n, geometry.r, meta.symbol, meta.stripes);
        devices.check_file_lengths()?;
        let integrity = Integrity::load(dir, geometry.n, geometry.r, meta.stripes)?;
        for dev in 0..geometry.n {
            if !devices.is_present(dev) {
                integrity.update_health(|h| {
                    if h.devices[dev] == DeviceState::Healthy {
                        h.devices[dev] = DeviceState::Failed;
                    }
                });
            }
        }
        let journal = Journal::open_or_create(dir, meta.symbol, meta.journal_segment)?;
        let was_clean = meta.clean_shutdown;
        meta.clean_shutdown = false;
        let store = Self::assemble(dir, meta, codec, devices, integrity, journal, was_clean)?;
        // Finish any commit a crash interrupted, then mark the store
        // live.
        store.replay_journal()?;
        store.shared.meta.save(dir)?;
        Ok(store)
    }

    /// [`StripeStore::open`] if `dir` holds a store (a superblock is
    /// present), else [`StripeStore::create`] with `opts` — the
    /// recovery-or-bootstrap entry point servers use, with the replay
    /// semantics of `open`.
    ///
    /// # Errors
    ///
    /// Propagates whichever of the two paths ran.
    pub fn open_or_create(dir: &Path, opts: &StoreOptions) -> Result<Self, Error> {
        if dir.join(crate::meta::META_FILE).exists() {
            Self::open(dir)
        } else {
            Self::create(dir, opts)
        }
    }

    /// Replays every whole journal record — rewriting the recorded
    /// post-image cells *and* their checksums (after a crash the
    /// on-disk checksum table is stale relative to any in-place writes
    /// that raced it) — then checkpoints, leaving the store scrub-clean
    /// and the journal empty. Idempotent: records are absolute post-
    /// images applied in append order.
    fn replay_journal(&self) -> Result<u64, Error> {
        let sh = &self.shared;
        let replayed = sh.journal.replay(|rec| {
            if rec.stripe >= sh.meta.stripes {
                // A record for a stripe this store cannot hold is not
                // replayable damage worth wedging the open over.
                return Ok(());
            }
            let _guard = self.lock_stripe(rec.stripe);
            if rec.encode {
                return self.replay_data_image(rec);
            }
            let devices = sh.integrity.device_states();
            // Cells on a `Failed` device live on implicitly through
            // parity; ones outside the grid are not this store's.
            let writable = |&&((row, dev), _): &&(CellIdx, &[u8])| {
                row < sh.geometry.r && dev < sh.geometry.n && devices[dev] != DeviceState::Failed
            };
            let cells: Vec<(CellIdx, &[u8])> = rec.cells.iter().filter(writable).copied().collect();
            self.apply_write_back(rec.stripe, &cells)
        })?;
        sh.counters
            .journal_replayed
            .store(replayed, Ordering::Relaxed);
        // Make the replayed state durable and truncate the journal.
        sh.journal.checkpoint(|| sh.make_durable())?;
        Ok(replayed)
    }

    /// Replays one data-image record (caller holds the stripe lock):
    /// rebuilds the stripe from the journaled data cells, recomputes
    /// parity, and persists every writable cell. The writer always
    /// journals the complete data-cell set; should a record somehow
    /// miss one, the current on-disk bytes stand in (best effort — an
    /// unreadable sector stays zero), keeping replay total.
    fn replay_data_image(&self, rec: &crate::journal::ReplayRecord<'_>) -> Result<(), Error> {
        let sh = &self.shared;
        let geom = &sh.geometry;
        let mut stripe = StripeBuf::new(geom.r, geom.n, sh.meta.symbol)?;
        let mut have: BTreeMap<CellIdx, &[u8]> = rec.cells.iter().copied().collect();
        for &cell in &geom.data_cells {
            if let Some(data) = have.remove(&cell) {
                stripe.set_cell(cell, data);
            } else {
                let (row, dev) = cell;
                let _ = sh
                    .devices
                    .read_sector(dev, rec.stripe, row, stripe.cell_mut(cell))?;
            }
        }
        sh.codec.encode(&mut stripe)?;
        self.apply_write_back(
            rec.stripe,
            &self.write_back_targets(None, |c| stripe.cell(c)),
        )
    }

    fn assemble(
        dir: &Path,
        meta: StoreMeta,
        codec: Box<dyn ErasureCode>,
        devices: DeviceSet,
        integrity: Integrity,
        journal: Journal,
        clean_shutdown: bool,
    ) -> Result<Self, Error> {
        let geometry = codec.geometry();
        let blocks = BlockMap::new(geometry.data_cells.clone(), meta.symbol, meta.stripes);
        let stripe_locks = (0..meta.stripes.clamp(1, 64))
            .map(|_| Mutex::new(()))
            .collect();
        Ok(StripeStore {
            shared: Arc::new(Shared {
                dir: dir.to_path_buf(),
                meta,
                codec,
                geometry,
                blocks,
                devices,
                integrity,
                counters: Counters::default(),
                journal,
                clean_shutdown,
                stripe_locks,
            }),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    /// The codec spec recorded in the superblock.
    pub fn codec_spec(&self) -> &CodecSpec {
        &self.shared.meta.codec
    }

    /// The codec's stripe geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.shared.geometry
    }

    /// The live codec (e.g. for planning custom recoveries).
    pub fn codec(&self) -> &dyn ErasureCode {
        self.shared.codec.as_ref()
    }

    /// Logical block size in bytes.
    pub fn block_size(&self) -> usize {
        self.shared.blocks.block_size()
    }

    /// Total logical capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.shared.blocks.capacity()
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.shared.meta.stripes
    }

    /// Data blocks per stripe.
    pub fn blocks_per_stripe(&self) -> usize {
        self.shared.blocks.blocks_per_stripe()
    }

    /// Current health and geometry summary.
    pub fn status(&self) -> StoreStatus {
        let health = self.shared.integrity.health();
        let by_state = |want: DeviceState| {
            health
                .devices
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s == want)
                .map(|(j, _)| j)
                .collect::<Vec<_>>()
        };
        StoreStatus {
            codec: self.shared.meta.codec.clone(),
            capacity: self.capacity(),
            block_size: self.block_size(),
            stripes: self.stripe_count(),
            blocks_per_stripe: self.blocks_per_stripe(),
            failed_devices: by_state(DeviceState::Failed),
            rebuilding_devices: by_state(DeviceState::Rebuilding),
            known_bad_sectors: health.bad_sectors.len(),
            clean_shutdown: self.shared.clean_shutdown,
            replayed_records: self
                .shared
                .counters
                .journal_replayed
                .load(Ordering::Relaxed),
        }
    }

    /// Persists the checksum table, health record, and device data,
    /// then truncates the journal — a full checkpoint: after `flush`
    /// returns, nothing depends on the journal any more.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn flush(&self) -> Result<(), Error> {
        let sh = &self.shared;
        sh.journal.checkpoint(|| sh.make_durable())
    }

    // Stripe locks guard no data (`Mutex<()>` taken for mutual exclusion
    // only), so a poisoned lock — some worker panicked mid-stripe — is
    // safe to keep using: damage the panicking thread left on disk is
    // exactly what checksum verification and degraded reads already
    // handle. Propagating the panic instead would take down every thread
    // that later touches the same stripe (the serve path's cascade).
    pub(crate) fn lock_stripe(&self, stripe: usize) -> MutexGuard<'_, ()> {
        let locks = &self.shared.stripe_locks;
        self.shared
            .counters
            .stripe_locks
            .fetch_add(1, Ordering::Relaxed);
        locks[stripe % locks.len()]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Locks every pool slot covering `stripes` at once, for a batch
    /// that holds its stripes from staging through group commit. The
    /// pool maps stripes by modulo, so two stripes can share a slot —
    /// slots are deduplicated and taken in ascending order (the one
    /// global order, making concurrent batches deadlock-free; single
    /// -stripe paths hold at most one slot and cannot form a cycle).
    pub(crate) fn lock_stripes(&self, stripes: &[usize]) -> Vec<MutexGuard<'_, ()>> {
        let locks = &self.shared.stripe_locks;
        let mut slots: Vec<usize> = stripes.iter().map(|s| s % locks.len()).collect();
        slots.sort_unstable();
        slots.dedup();
        self.shared
            .counters
            .stripe_locks
            .fetch_add(slots.len() as u64, Ordering::Relaxed);
        slots
            .into_iter()
            .map(|s| {
                locks[s]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
            })
            .collect()
    }

    /// Snapshot of the cumulative data-path instrumentation counters.
    /// Clones of one store share counters, so a handle cloned before
    /// traffic observes everything the other handles did.
    pub fn io_stats(&self) -> IoStats {
        let c = &self.shared.counters;
        IoStats {
            stripe_locks: c.stripe_locks.load(Ordering::Relaxed),
            encode_passes: c.encode_passes.load(Ordering::Relaxed),
            delta_update_calls: c.delta_update_calls.load(Ordering::Relaxed),
            recover_passes: c.recover_passes.load(Ordering::Relaxed),
            sector_reads: self.shared.devices.sector_reads(),
            sector_writes: self.shared.devices.sector_writes(),
            write_runs: self.shared.devices.write_runs(),
        }
    }

    /// This store's [`IoStats`] and scrub/repair progress folded into a
    /// metrics snapshot under `store.*` names — the per-instance half of
    /// [`BlockDevice::metrics`](stair_device::BlockDevice::metrics)
    /// (process-global GF kernel counters are added once by the caller,
    /// via [`gf_metrics`](crate::gf_metrics), so aggregating several
    /// stores does not multiply them).
    pub fn store_metrics(&self) -> stair_obs::MetricsSnapshot {
        let stats = self.io_stats();
        let c = &self.shared.counters;
        let mut snap = stair_obs::MetricsSnapshot::default();
        snap.add_counter("store.stripe_locks", stats.stripe_locks);
        snap.add_counter("store.encode_passes", stats.encode_passes);
        snap.add_counter("store.delta_update_calls", stats.delta_update_calls);
        snap.add_counter("store.recover_passes", stats.recover_passes);
        snap.add_counter("store.sector_reads", stats.sector_reads);
        snap.add_counter("store.sector_writes", stats.sector_writes);
        snap.add_counter("store.write_runs", stats.write_runs);
        snap.add_gauge(
            "store.scrub.stripes_done",
            c.scrub_stripes_done.load(Ordering::Relaxed) as i64,
        );
        snap.add_gauge(
            "store.repair.stripes_done",
            c.repair_stripes_done.load(Ordering::Relaxed) as i64,
        );
        snap.add_gauge("store.stripes", self.stripe_count() as i64);
        snap.add_counter("store.jrnl.appends", self.shared.journal.append_count());
        snap.add_counter(
            "store.jrnl.checkpoints",
            self.shared.journal.checkpoint_count(),
        );
        snap.add_counter(
            "store.jrnl.replayed",
            c.journal_replayed.load(Ordering::Relaxed),
        );
        snap.add_gauge(
            "store.jrnl.used_bytes",
            self.shared.journal.used_bytes() as i64,
        );
        snap
    }

    /// Acquires every stripe lock, quiescing all stripe I/O. Safe against
    /// deadlock because stripe operations hold at most one stripe lock at
    /// a time and the locks are taken here in index order.
    fn lock_all_stripes(&self) -> Vec<MutexGuard<'_, ()>> {
        self.shared
            .stripe_locks
            .iter()
            .map(|l| l.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
            .collect()
    }

    // ------------------------------------------------------------------
    // Failure surface
    // ------------------------------------------------------------------

    /// Declares device `dev` failed: the backing file is deleted and every
    /// sector of the device is treated as erased until repair.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Device`] for out-of-range indices.
    pub fn fail_device(&self, dev: usize) -> Result<(), Error> {
        if dev >= self.shared.geometry.n {
            return Err(Error::Device(format!(
                "device {dev} out of range (n={})",
                self.shared.geometry.n
            )));
        }
        // Quiesce all stripe I/O: removing the file mid write-back would
        // abort a write half-applied, leaving checksum-valid cells whose
        // parity no longer matches.
        let _all = self.lock_all_stripes();
        self.shared.devices.remove(dev)?;
        self.shared.integrity.update_health(|h| {
            h.devices[dev] = DeviceState::Failed;
            h.bad_sectors.retain(|&(_, _, d)| d != dev);
        });
        self.shared.integrity.persist()
    }

    /// Corrupts `len` consecutive sectors of `dev` starting at `(stripe,
    /// row)` by flipping bits on disk — a latent sector error / burst. The
    /// checksum table is deliberately left stale so the damage is only
    /// *detected* when a read or scrub verifies the sectors.
    ///
    /// # Errors
    ///
    /// Out-of-range coordinates or a failed device are rejected.
    pub fn corrupt_sectors(
        &self,
        dev: usize,
        stripe: usize,
        row: usize,
        len: usize,
    ) -> Result<(), Error> {
        let geom = &self.shared.geometry;
        let stripes = self.shared.meta.stripes;
        if dev >= geom.n || stripe >= stripes || row + len > geom.r {
            return Err(Error::OutOfRange(format!(
                "burst dev={dev} stripe={stripe} rows {row}..{} outside {}x{}x{}",
                row + len,
                stripes,
                geom.r,
                geom.n
            )));
        }
        let _guard = self.lock_stripe(stripe);
        let mut buf = vec![0u8; self.shared.meta.symbol];
        for k in row..row + len {
            match self.shared.devices.read_sector(dev, stripe, k, &mut buf)? {
                SectorRead::Missing => {
                    return Err(Error::Device(format!("device {dev} has no backing file")))
                }
                SectorRead::Ok => {}
            }
            for b in buf.iter_mut() {
                *b ^= 0xA5;
            }
            // check: persist-ok fault injection: deliberately un-journaled damage
            self.shared.devices.write_sector(dev, stripe, k, &buf)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Copies the overlap of `block` with the request window into `out`.
    pub(crate) fn copy_block(&self, block: usize, cell_data: &[u8], offset: u64, out: &mut [u8]) {
        let sym = self.block_size() as u64;
        let block_start = block as u64 * sym;
        let req_end = offset + out.len() as u64;
        let from = offset.max(block_start);
        let to = req_end.min(block_start + sym);
        let src = &cell_data[(from - block_start) as usize..(to - block_start) as usize];
        out[(from - offset) as usize..(to - offset) as usize].copy_from_slice(src);
    }

    /// Serves the blocks of one read fragment into `out`, reading what
    /// the fragment needs and not the stripe.
    ///
    /// What is lost is decided before any I/O, from the device states and
    /// the stripe's recorded bad sectors. With no wanted sector known
    /// lost, each is read, verified and copied straight out (the fast
    /// path). Otherwise the codec plans the wanted lost sectors against
    /// the known erasures, exactly the plan's sources plus the surviving
    /// wanted sectors are read, each verified, and the plan runs over
    /// them where they were read, writing its targets into `out`. A
    /// sector that does not verify where none was known bad — damage no
    /// one has recorded yet — ends either path: the whole stripe is then
    /// loaded as before ([`StripeStore::load_stripe_degraded`]), which
    /// records the damage so the next read plans around it.
    ///
    /// Callers must hold the stripe lock.
    pub(crate) fn read_blocks_locked(
        &self,
        stripe_idx: usize,
        blocks: std::ops::Range<usize>,
        offset: u64,
        out: &mut [u8],
    ) -> Result<(), Error> {
        let sh = &self.shared;
        let cells = blocks
            .clone()
            .map(|b| sh.blocks.locate(b).map(|l| l.cell))
            .collect::<Result<Vec<CellIdx>, _>>()?;
        let serve = |cell: CellIdx, data: &[u8], out: &mut [u8]| {
            if let Some(k) = cells.iter().position(|&c| c == cell) {
                self.copy_block(blocks.start + k, data, offset, out);
            }
        };
        let devices = sh.integrity.device_states();
        let mut erased = self.known_erasures(stripe_idx, &devices);

        // The cells whose bytes are not in `out` yet.
        let unserved = if cells.iter().any(|&c| erased.contains(c)) {
            cells.clone()
        } else {
            let verified = |cell, data: &[u8]| serve(cell, data, out);
            let wanted = cells.iter().copied();
            let failed = self.load_each(stripe_idx, &devices, wanted, verified)?;
            if failed.is_empty() {
                return Ok(());
            }
            // Damage inside the window itself: known from here on. What
            // did verify is served, and is not read again to serve it.
            let found = failed.iter().map(|&(row, dev)| (stripe_idx, row, dev));
            sh.integrity.update_health(|h| h.bad_sectors.extend(found));
            erased = erased.iter().chain(failed.iter().copied()).collect();
            failed
        };

        let lost = |erased: &ErasureSet| -> Vec<CellIdx> {
            let lost = unserved.iter().filter(|&&c| erased.contains(c));
            lost.copied().collect()
        };
        // A plan the known erasures do not allow is left to the fallback,
        // whose error names everything the stripe has lost.
        if let Ok(plan) = sh.codec.plan_recover(&erased, &lost(&erased)) {
            let surviving = unserved.iter().filter(|&&c| !erased.contains(c));
            let mut read = Sectors::new(sh.meta.symbol);
            read.select(plan.sources().iter().chain(surviving).copied());
            if self
                .load_verified(stripe_idx, &devices, &mut read)?
                .is_empty()
            {
                let mut planned = Planned {
                    read: &read,
                    recovered: |cell, data: &[u8]| serve(cell, data, out),
                };
                plan.execute(sh.codec.codec_id(), &mut planned)?;
                sh.counters.count_recover();
                // The targets are in `out`; the surviving wanted cells
                // are where they were read.
                for &cell in &unserved {
                    if let Some(data) = read.get(cell) {
                        serve(cell, data, out);
                    }
                }
                return Ok(());
            }
        }

        let (mut stripe, erased) = self.load_stripe_degraded(stripe_idx)?;
        let lost = lost(&erased);
        if !lost.is_empty() {
            let plan = sh
                .codec
                .plan_recover(&erased, &lost)
                .map_err(|e| self.unrecoverable(stripe_idx, &erased, e))?;
            sh.codec.apply(&plan, &mut stripe)?;
            sh.counters.count_recover();
        }
        for &cell in &unserved {
            serve(cell, stripe.cell(cell), out);
        }
        Ok(())
    }

    pub(crate) fn unrecoverable(&self, stripe: usize, erased: &ErasureSet, e: CodeError) -> Error {
        match e {
            CodeError::Unrecoverable(_) => Error::Unrecoverable {
                stripe,
                erased: erased.cells().to_vec(),
            },
            other => Error::Code(other),
        }
    }

    /// What a stripe is known to have lost before anything is read: every
    /// sector of a device that is not `Healthy`, and the sectors recorded
    /// bad.
    fn known_erasures(&self, stripe_idx: usize, devices: &[DeviceState]) -> ErasureSet {
        let r = self.shared.geometry.r;
        let down = devices.iter().enumerate();
        let down = down.filter(|&(_, &state)| state != DeviceState::Healthy);
        let columns = down.flat_map(|(dev, _)| (0..r).map(move |row| (row, dev)));
        columns
            .chain(self.shared.integrity.recorded_bad_in(stripe_idx))
            .collect()
    }

    /// The one loader: reads the cells `sectors` selected — one
    /// positioned read per run of consecutive rows on one device, which
    /// the device files store contiguously, straight into the sectors'
    /// buffer — verifies every sector against its checksum, and returns
    /// the ones that did not verify: missing or corrupt, and (unread)
    /// those on a device that is not `Healthy`. Their bytes in `sectors`
    /// are meaningless.
    ///
    /// Callers must hold the stripe lock.
    fn load_verified(
        &self,
        stripe_idx: usize,
        devices: &[DeviceState],
        sectors: &mut Sectors,
    ) -> Result<Vec<CellIdx>, Error> {
        let sh = &self.shared;
        let sym = sectors.sym;
        let mut failed = Vec::new();
        let mut at = 0;
        for run in sectors.cells.chunk_by(|a, b| *b == (a.0 + 1, a.1)) {
            let (row, dev) = run[0];
            let span = &mut sectors.data[at * sym..(at + run.len()) * sym];
            at += run.len();
            let whole = match devices[dev] {
                DeviceState::Healthy => sh.devices.read_run(dev, stripe_idx, row, span)?,
                _ => 0,
            };
            for (k, (&cell, sector)) in run.iter().zip(span.chunks_exact(sym)).enumerate() {
                if k >= whole || !sh.integrity.verify(stripe_idx, cell.0, dev, sector) {
                    failed.push(cell);
                }
            }
        }
        Ok(failed)
    }

    /// [`StripeStore::load_verified`] a device at a time through one
    /// buffer — one device's share of `cells` — handing each sector that
    /// verified to `sink`; returns the rest.
    ///
    /// Callers must hold the stripe lock.
    pub(crate) fn load_each(
        &self,
        stripe_idx: usize,
        devices: &[DeviceState],
        cells: impl IntoIterator<Item = CellIdx>,
        mut sink: impl FnMut(CellIdx, &[u8]),
    ) -> Result<Vec<CellIdx>, Error> {
        let mut cells: Vec<CellIdx> = cells.into_iter().collect();
        cells.sort_unstable_by_key(|&(_, dev)| dev);
        let mut sectors = Sectors::new(self.shared.meta.symbol);
        let mut failed = Vec::new();
        for column in cells.chunk_by(|a, b| a.1 == b.1) {
            sectors.select(column.iter().copied());
            let bad = self.load_verified(stripe_idx, devices, &mut sectors)?;
            for (cell, data) in sectors.iter().filter(|(c, _)| !bad.contains(c)) {
                sink(cell, data);
            }
            failed.extend(bad);
        }
        Ok(failed)
    }

    /// Reads the full stripe grid from disk, treating non-healthy devices,
    /// missing files, and checksum mismatches as erasures. Erased cells
    /// are zero; newly discovered damage is recorded in the health map.
    ///
    /// Callers must hold the stripe lock.
    pub(crate) fn load_stripe_degraded(
        &self,
        stripe_idx: usize,
    ) -> Result<(StripeBuf, ErasureSet), Error> {
        let sh = &self.shared;
        let geom = &sh.geometry;
        let mut stripe = StripeBuf::new(geom.r, geom.n, sh.meta.symbol)?;
        let devices = sh.integrity.device_states();
        let grid = (0..geom.n).flat_map(|dev| (0..geom.r).map(move |row| (row, dev)));
        let loaded = |cell, data: &[u8]| stripe.set_cell(cell, data);
        let erased = self.load_each(stripe_idx, &devices, grid, loaded)?;
        let newly_bad: Vec<_> = erased
            .iter()
            .filter(|&&(_, dev)| devices[dev] == DeviceState::Healthy)
            .map(|&(row, dev)| (stripe_idx, row, dev))
            .filter(|&key| !sh.integrity.is_recorded_bad(key))
            .collect();
        if !newly_bad.is_empty() {
            sh.integrity
                .update_health(|h| h.bad_sectors.extend(newly_bad));
        }
        Ok((stripe, ErasureSet::new(erased)))
    }

    /// Loads the stripe and, when anything was erased, restores every
    /// lost cell via a full recovery plan — the shape the write paths
    /// need before patching (parity deltas are computed against a
    /// consistent stripe). Returns the restored buffer plus the set
    /// that had been erased (its members now hold reconstructed
    /// contents).
    ///
    /// Callers must hold the stripe lock.
    pub(crate) fn load_stripe_restored(
        &self,
        stripe_idx: usize,
    ) -> Result<(StripeBuf, ErasureSet), Error> {
        let sh = &self.shared;
        let (mut stripe, erased) = self.load_stripe_degraded(stripe_idx)?;
        if !erased.is_empty() {
            let plan = sh
                .codec
                .plan(&erased)
                .map_err(|e| self.unrecoverable(stripe_idx, &erased, e))?;
            sh.codec.apply(&plan, &mut stripe)?;
            sh.counters.count_recover();
        }
        Ok((stripe, erased))
    }

    /// Reads exactly the cells of `footprint`, each verified, or returns
    /// `None` when any of them is not cleanly there (a device that is
    /// not `Healthy`, a missing or short file, a checksum mismatch): the
    /// caller then falls back to [`StripeStore::load_stripe_restored`],
    /// which also records and heals the damage. Nothing outside the
    /// footprint is read, so nothing outside it is vouched for.
    ///
    /// Callers must hold the stripe lock.
    pub(crate) fn load_cells(
        &self,
        stripe_idx: usize,
        footprint: &BTreeSet<CellIdx>,
    ) -> Result<Option<BTreeMap<CellIdx, Vec<u8>>>, Error> {
        let devices = self.shared.integrity.device_states();
        let mut cells = BTreeMap::new();
        let loaded = |cell, data: &[u8]| drop(cells.insert(cell, data.to_vec()));
        let wanted = footprint.iter().copied();
        let failed = self.load_each(stripe_idx, &devices, wanted, loaded)?;
        Ok(failed.is_empty().then_some(cells))
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// The byte window of `block` that overlaps the write request, as
    /// (slice of incoming data, start offset within the block).
    pub(crate) fn incoming_for_block<'d>(
        &self,
        block: usize,
        offset: u64,
        data: &'d [u8],
    ) -> (&'d [u8], usize) {
        let sym = self.block_size() as u64;
        let block_start = block as u64 * sym;
        let req_end = offset + data.len() as u64;
        let from = offset.max(block_start);
        let to = req_end.min(block_start + sym);
        (
            &data[(from - offset) as usize..(to - offset) as usize],
            (from - block_start) as usize,
        )
    }

    /// The journal payload of one stripe commit, drawn from `cell` (the
    /// staged stripe's view of a cell's post-image). A partial commit
    /// journals its exact write-back targets as literal post-images. A
    /// full-stripe commit (`only == None`) journals a **data image** —
    /// only the data cells, parity recomputed at replay — cutting the
    /// record to `k/n` of the stripe and with it the bytes the commit
    /// fsync has to flush. Data cells on `Failed` devices are included
    /// (the in-memory stripe knows their contents even when no disk
    /// does), so replay re-encodes from a complete image.
    pub(crate) fn journal_cells<'s>(
        &self,
        only: Option<&BTreeSet<CellIdx>>,
        cell: impl Fn(CellIdx) -> &'s [u8],
    ) -> (Vec<(CellIdx, &'s [u8])>, bool) {
        if only.is_some() {
            return (self.write_back_targets(only, cell), false);
        }
        let data = self.shared.geometry.data_cells.iter();
        (data.map(|&c| (c, cell(c))).collect(), true)
    }

    /// The cells one stripe commit will persist, in row-major order:
    /// every non-`Failed` device's cell, optionally restricted to `only`.
    /// This is both the journal record's payload and the write-back's
    /// work list — computed once so the two can never disagree. Only
    /// `Failed` devices are skipped (their contents live on implicitly
    /// through parity); `Rebuilding` replacements *must* be written,
    /// otherwise a write landing on a stripe the repair pass has already
    /// rebuilt would be lost when the device is promoted back to healthy.
    pub(crate) fn write_back_targets<'s>(
        &self,
        only: Option<&BTreeSet<CellIdx>>,
        cell: impl Fn(CellIdx) -> &'s [u8],
    ) -> Vec<(CellIdx, &'s [u8])> {
        let geom = &self.shared.geometry;
        let devices = self.shared.integrity.device_states();
        let writable = |&(_, dev): &CellIdx| devices[dev] != DeviceState::Failed;
        let target = |c: CellIdx| (c, cell(c));
        match only {
            // A `BTreeSet<(row, dev)>` iterates row-major already.
            Some(set) => set.iter().copied().filter(writable).map(target).collect(),
            None => {
                let grid = (0..geom.r).flat_map(|row| (0..geom.n).map(move |dev| (row, dev)));
                grid.filter(writable).map(target).collect()
            }
        }
    }

    /// The in-place leg of a commit, after the journal record covering
    /// `targets` is durable. Callers arrive here only through the
    /// planner's group commit or journal replay — both journal-first,
    /// which the `persist-ordering` lint enforces for every sector write
    /// in this crate. It adds only its name to the writer below: the
    /// gate the lint knows, so an un-journaled caller of the writer
    /// (repair) has to say so at its call site.
    pub(crate) fn apply_write_back(
        &self,
        stripe_idx: usize,
        targets: &[(CellIdx, &[u8])],
    ) -> Result<(), Error> {
        self.write_recorded(stripe_idx, targets)
    }

    /// The one writer, counterpart of [`StripeStore::load_verified`]:
    /// writes `cells` of a stripe — one positioned write per run of
    /// consecutive rows on one device, which the device files store
    /// contiguously — then records every checksum under one table lock
    /// and takes the rewritten sectors off the bad-sector map. Write
    /// order is device-major; a crash inside it is the journal's to
    /// finish, whatever the order. Every cell must sit on a device with
    /// a backing file (not `Failed`).
    ///
    /// Callers must hold the stripe lock, and — the `persist-ordering`
    /// lint holds them to it — have the post-images durable in the
    /// journal first.
    pub(crate) fn write_recorded(
        &self,
        stripe_idx: usize,
        cells: &[(CellIdx, &[u8])],
    ) -> Result<(), Error> {
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

/// Sectors of one stripe as [`StripeStore::load_verified`] read them,
/// kept where they landed: cell `cells[k]` is `data[k·sym..(k+1)·sym]`,
/// in (device, row) order — the order the device files store them, so a
/// run of rows is one read into one span.
struct Sectors {
    sym: usize,
    cells: Vec<CellIdx>,
    data: Vec<u8>,
}

impl Sectors {
    fn new(sym: usize) -> Self {
        Sectors {
            sym,
            cells: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Chooses the cells the next load reads, keeping the buffer.
    fn select(&mut self, cells: impl IntoIterator<Item = CellIdx>) {
        self.cells.clear();
        self.cells.extend(cells);
        self.cells.sort_unstable_by_key(|&(row, dev)| (dev, row));
        self.cells.dedup();
        let len = self.cells.len() * self.sym;
        if self.data.len() < len {
            self.data.resize(len, 0);
        }
    }

    /// The bytes of `cell`, if it was selected.
    fn get(&self, (row, dev): CellIdx) -> Option<&[u8]> {
        let by_device = |&(row, dev): &CellIdx| (dev, row);
        let k = self
            .cells
            .binary_search_by_key(&(dev, row), by_device)
            .ok()?;
        self.data.get(k * self.sym..(k + 1) * self.sym)
    }

    /// Every selected cell with its bytes.
    fn iter(&self) -> impl Iterator<Item = (CellIdx, &[u8])> {
        self.cells
            .iter()
            .copied()
            .zip(self.data.chunks_exact(self.sym))
    }
}

/// A degraded fragment as its plan sees it: sources where the loader read
/// them, targets handed to `recovered` (which copies them into the
/// caller's buffer).
struct Planned<'a, F> {
    read: &'a Sectors,
    recovered: F,
}

impl<F: FnMut(CellIdx, &[u8])> CellLookup for Planned<'_, F> {
    fn symbol(&self) -> usize {
        self.read.sym
    }

    fn source(&self, cell: CellIdx) -> Option<&[u8]> {
        self.read.get(cell)
    }

    fn recovered(&mut self, cell: CellIdx, bytes: &[u8]) -> Result<(), CodeError> {
        (self.recovered)(cell, bytes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stair-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_opts() -> StoreOptions {
        StoreOptions {
            code: "stair:8,4,2,1-1-2".parse().unwrap(),
            symbol: 64,
            stripes: 6,
        }
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn create_open_reports_geometry() {
        let dir = tmpdir("geom");
        let store = StripeStore::create(&dir, &small_opts()).unwrap();
        // 8×4 grid, m=2, s=4 → 4·6−4 = 20 data blocks per stripe.
        assert_eq!(store.blocks_per_stripe(), 20);
        assert_eq!(store.capacity(), 20 * 6 * 64);
        drop(store);
        let store = StripeStore::open(&dir).unwrap();
        assert_eq!(store.stripe_count(), 6);
        assert_eq!(store.codec_spec().to_string(), "stair:8,4,2,1-1-2");
        assert!(store.status().failed_devices.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_validates_scalar_geometry() {
        // Regression: zero symbol/stripes must fail at creation time, not
        // only when the superblock is reparsed on open.
        for (symbol, stripes) in [(0usize, 6usize), (64, 0)] {
            let dir = tmpdir(&format!("badgeom-{symbol}-{stripes}"));
            let opts = StoreOptions {
                symbol,
                stripes,
                ..small_opts()
            };
            match StripeStore::create(&dir, &opts) {
                Err(Error::Meta(_)) => {}
                Err(other) => panic!("expected Meta error, got {other:?}"),
                Ok(_) => panic!("degenerate geometry must not create"),
            }
            // Nothing may have been created on disk.
            assert!(!dir.exists(), "failed create must not leave files");
        }
    }

    #[test]
    fn write_read_round_trip_clean() {
        let dir = tmpdir("rt");
        let store = StripeStore::create(&dir, &small_opts()).unwrap();
        let payload = pattern(store.capacity() as usize, 3);
        let report = store.write_at(0, &payload).unwrap();
        assert_eq!(report.full_stripe_encodes, 6);
        assert_eq!(report.delta_updates, 0);
        assert_eq!(store.read_at(0, payload.len()).unwrap(), payload);
        // Unaligned window.
        assert_eq!(
            store.read_at(100, 999).unwrap(),
            payload[100..1099].to_vec()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn small_write_takes_delta_path_and_persists() {
        let dir = tmpdir("delta");
        let store = StripeStore::create(&dir, &small_opts()).unwrap();
        let base = pattern(store.capacity() as usize, 7);
        store.write_at(0, &base).unwrap();
        // Overwrite 100 bytes straddling a block boundary.
        let patch = pattern(100, 99);
        let report = store.write_at(30, &patch).unwrap();
        assert_eq!(report.full_stripe_encodes, 0);
        assert!(report.delta_updates >= 2);
        let mut expected = base.clone();
        expected[30..130].copy_from_slice(&patch);
        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
        // Reopen: changes survived.
        drop(store);
        let store = StripeStore::open(&dir).unwrap();
        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn health_file_is_rewritten_only_when_health_changes() {
        use std::os::unix::fs::MetadataExt;
        let dir = tmpdir("healthfile");
        let store = StripeStore::create(&dir, &small_opts()).unwrap();
        let payload = pattern(store.capacity() as usize, 5);
        store.write_at(0, &payload).unwrap();
        let health = dir.join(crate::integrity::HEALTH_FILE);
        // A rewrite is a temp file + rename: a new inode, a new ctime.
        let stamp = || {
            let m = std::fs::metadata(&health).unwrap();
            (
                m.ino(),
                m.mtime(),
                m.mtime_nsec(),
                m.ctime(),
                m.ctime_nsec(),
            )
        };
        let created = stamp();
        for k in 0..100u64 {
            let data = pattern(64, k as u8);
            store.write_at((k * 77) % 7000 + 5, &data).unwrap();
        }
        assert_eq!(
            stamp(),
            created,
            "healthy writes must not rewrite health.txt"
        );
        assert_eq!(store.io_stats().recover_passes, 0);

        // A declared failure is on disk when `fail_device` returns ...
        store.fail_device(2).unwrap();
        let text = std::fs::read_to_string(&health).unwrap();
        assert!(text.contains("failed 2"), "{text}");
        // ... and damage a read detected is on disk after the next
        // persist, then cleared again by the write that heals it.
        store.corrupt_sectors(4, 1, 0, 1).unwrap();
        let per_stripe = store.blocks_per_stripe() as u64 * 64;
        store.read_at(per_stripe, per_stripe as usize).unwrap();
        store.flush().unwrap();
        let text = std::fs::read_to_string(&health).unwrap();
        assert!(text.contains("bad 1 0 4"), "{text}");
        store
            .write_at(per_stripe + 4 * 64, &pattern(64, 1))
            .unwrap();
        let text = std::fs::read_to_string(&health).unwrap();
        assert!(!text.contains("bad"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_read_after_device_failures_and_burst() {
        let dir = tmpdir("degraded");
        let store = StripeStore::create(&dir, &small_opts()).unwrap();
        let payload = pattern(store.capacity() as usize, 11);
        store.write_at(0, &payload).unwrap();
        // Kill m = 2 devices and corrupt a 2-sector burst elsewhere.
        store.fail_device(1).unwrap();
        store.fail_device(5).unwrap();
        store.corrupt_sectors(3, 2, 2, 2).unwrap();
        assert_eq!(store.read_at(0, payload.len()).unwrap(), payload);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writes_continue_through_degraded_stripes() {
        let dir = tmpdir("degwrite");
        let store = StripeStore::create(&dir, &small_opts()).unwrap();
        let payload = pattern(store.capacity() as usize, 13);
        store.write_at(0, &payload).unwrap();
        store.fail_device(0).unwrap();
        let patch = pattern(64, 42);
        store.write_at(64, &patch).unwrap(); // block 1 of stripe 0
        let mut expected = payload.clone();
        expected[64..128].copy_from_slice(&patch);
        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_beyond_coverage_is_reported() {
        let dir = tmpdir("beyond");
        let store = StripeStore::create(&dir, &small_opts()).unwrap();
        let payload = pattern(store.capacity() as usize, 17);
        store.write_at(0, &payload).unwrap();
        // m = 2 covers two failed devices; a third is fatal.
        store.fail_device(0).unwrap();
        store.fail_device(1).unwrap();
        store.fail_device(2).unwrap();
        match store.read_at(0, 64) {
            Err(Error::Unrecoverable { stripe, .. }) => assert_eq!(stripe, 0),
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_rejected() {
        let dir = tmpdir("oor");
        let store = StripeStore::create(&dir, &small_opts()).unwrap();
        assert!(matches!(
            store.read_at(store.capacity(), 1),
            Err(Error::OutOfRange(_))
        ));
        assert!(matches!(
            store.write_at(store.capacity() - 1, &[0, 0]),
            Err(Error::OutOfRange(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_write_boundaries_at_exact_capacity_and_zero_length() {
        let dir = tmpdir("bounds");
        let store = StripeStore::create(&dir, &small_opts()).unwrap();
        let cap = store.capacity() as usize;
        let payload = pattern(cap, 23);
        store.write_at(0, &payload).unwrap();
        // Exact-capacity read and write succeed.
        assert_eq!(store.read_at(0, cap).unwrap(), payload);
        let full = pattern(cap, 24);
        store.write_at(0, &full).unwrap();
        assert_eq!(store.read_at(0, cap).unwrap(), full);
        // Reads/writes ending exactly at capacity succeed.
        let tail = pattern(100, 25);
        store.write_at(store.capacity() - 100, &tail).unwrap();
        assert_eq!(store.read_at(store.capacity() - 100, 100).unwrap(), tail);
        // Zero-length I/O at 0, mid-store, and exactly at capacity is a
        // no-op, not an error.
        for off in [0, 77, store.capacity()] {
            assert_eq!(store.read_at(off, 0).unwrap(), Vec::<u8>::new());
            let report = store.write_at(off, &[]).unwrap();
            assert_eq!(report, stair_device::WriteOutcome::default());
        }
        // One byte past capacity is out of range even for len 1.
        assert!(store.read_at(store.capacity(), 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
