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
//!   read, patched by one update plan per stripe
//!   ([`stair_code::ErasureCode::update_plan`]) and written back: the
//!   §6.3 update cost, measurable per codec as `sector_reads` in
//!   [`IoStats`]. A footprint sector that is lost is restored (below)
//!   and written back with the patch, healed.
//! * **Reads** verify every sector against the Fletcher-32 table. A
//!   fragment with nothing lost is served straight from its data
//!   sectors; otherwise its lost sectors are restored.
//! * **Restores** — a degraded read, a damaged footprint, a repair — run
//!   one rule, `StripeStore::restore`: what is lost is decided before any
//!   I/O (devices that are not healthy, recorded bad sectors), the
//!   codec's planner ([`stair_code::CodecCore::plan_recover`]) works
//!   out how to reconstruct exactly the wanted lost sectors, and only the
//!   plan's sources ([`stair_code::Plan::sources`]) and the surviving
//!   wanted sectors are read. The plan runs over them where the loader
//!   put them, and decodes a read's lost blocks straight into the
//!   caller's buffer: no stripe is assembled. Damage nobody knew of — a
//!   missing file, a short read, a checksum mismatch — is recorded where
//!   it is met and planned around, reading only the sources not read
//!   yet.
//! * All sector I/O is positioned (`pread`/`pwrite`) and goes through
//!   one verified loader and one recorded writer, which read and write
//!   consecutive rows of a device — which its file stores contiguously —
//!   as one run: a full-stripe write-back is `n` positioned writes, not
//!   `r·n`. Stripes are guarded by striped locks, so reads, writes,
//!   scrubbing, and repair of *different* stripes proceed concurrently.
//!
//! Only a full-stripe write holds a whole [`StripeBuf`] — the memory the
//! codec encodes in place. A partial write's footprint is a map of just
//! its sectors, and a restore's sectors stay in the loader's buffers.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use stair_code::{
    CellIdx, CellLookup, CodeError, CodecSpec, ErasureCode, ErasureSet, Geometry, Lent, StripeBuf,
};
use stair_device::ShardHealth;
use stair_obs::sync::lock;

use crate::device::DeviceSet;
use crate::integrity::{DeviceState, Integrity};
use crate::journal::{Journal, DEFAULT_JOURNAL_SEGMENT};
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
    /// Data blocks written by parity delta rather than re-encode, one
    /// per written block; each stripe's blocks add into their dependent
    /// parities through one [`ErasureCode::update_plan`].
    pub delta_update_calls: u64,
    /// Recovery plans executed: one per restore that lost a wanted
    /// sector — a degraded read fragment, a damaged footprint, a repaired
    /// stripe.
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
    /// repair pass. A pass starts it at the stripes it has no work for,
    /// so it, too, ends at the stripe count.
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
    /// Shared with the journal's checkpoint thread, which makes them
    /// durable.
    pub(crate) devices: Arc<DeviceSet>,
    pub(crate) integrity: Arc<Integrity>,
    pub(crate) counters: Counters,
    pub(crate) journal: Journal,
    /// Sticky: whether the superblock said the *previous* close was
    /// clean, as read when this handle family opened.
    pub(crate) clean_shutdown: bool,
    stripe_locks: Vec<Mutex<()>>,
    /// Cell lists and buffers [`Sectors`] lent out and got back.
    spare_sectors: Mutex<Vec<Spare>>,
}

/// A [`Sectors`]' cell list and byte buffer, kept for the next load.
type Spare = (Vec<CellIdx>, Vec<u8>);

/// Most sector buffers a store keeps for reuse: one each for a few
/// readers loading at once (more borrow fresh ones, and the surplus is
/// dropped when they give them back). A buffer holds at most one
/// stripe's sectors, so what a store keeps is bounded, and it goes with
/// the store — a thread-local buffer would stay with every thread that
/// ever read, one per connection on a server.
const SPARE_SECTOR_BUFFERS: usize = 4;

/// What every checkpoint runs before a journal segment is rewound, in
/// this order — the synchronous ones and the checkpoint thread's alike:
/// the device files are flushed, the dirty checksum entries (and the
/// health record) written, then the table file flushed too — a table
/// left in the page cache with the segment already empty would, after a
/// power loss, read every sector written since its last flush as
/// corrupt.
fn make_durable(devices: &DeviceSet, integrity: &Integrity) -> Result<(), Error> {
    devices.sync()?;
    integrity.persist()?;
    integrity.sync_table()
}

/// The store's journal in `dir`, its checkpoints making `devices` and
/// `integrity` durable.
fn open_journal(
    dir: &Path,
    meta: &StoreMeta,
    devices: &Arc<DeviceSet>,
    integrity: &Arc<Integrity>,
) -> Result<Journal, Error> {
    let (devices, integrity) = (Arc::clone(devices), Arc::clone(integrity));
    Journal::open_or_create(dir, meta.symbol, meta.journal_segment, move || {
        make_durable(&devices, &integrity)
    })
}

impl Drop for Shared {
    /// Best-effort clean shutdown on the last handle: make everything
    /// durable, rewind the journal, and mark the superblock clean. A
    /// crash (the whole point of the journal) simply never runs this —
    /// the superblock then still says `clean_shutdown 0` and the next
    /// open replays. Errors are ignored: failing to mark clean only
    /// costs the next open a (correct, idempotent) replay.
    fn drop(&mut self) {
        if self.journal.checkpoint().is_ok() {
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
            journal_segment: DEFAULT_JOURNAL_SEGMENT,
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
        let (devices, integrity) = (Arc::new(devices), Arc::new(integrity));
        let journal = open_journal(dir, &meta, &devices, &integrity)?;
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
        let (devices, integrity) = (Arc::new(devices), Arc::new(integrity));
        let journal = open_journal(dir, &meta, &devices, &integrity)?;
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
        // Make the replayed state durable and rewind the journal.
        sh.journal.checkpoint()?;
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
        devices: Arc<DeviceSet>,
        integrity: Arc<Integrity>,
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
                spare_sectors: Mutex::default(),
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

    /// Current health and geometry summary: the store is one shard.
    pub fn status(&self) -> ShardHealth {
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
        let codec = &self.shared.meta.codec;
        ShardHealth {
            codec: codec.to_string(),
            capacity: self.capacity(),
            block_size: self.block_size(),
            stripes: self.stripe_count(),
            blocks_per_stripe: self.blocks_per_stripe(),
            device_tolerance: codec.m(),
            sector_tolerance: codec.s(),
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
    /// then rewinds both journal segments — a full, synchronous
    /// checkpoint, after the checkpoint thread's work: after `flush`
    /// returns, nothing depends on the journal any more.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors, and a background checkpoint's
    /// failure not reported yet.
    pub fn flush(&self) -> Result<(), Error> {
        self.shared.journal.checkpoint()
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
        lock(&locks[stripe % locks.len()])
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
        slots.into_iter().map(|s| lock(&locks[s])).collect()
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

    /// This store's [`IoStats`], scrub/repair progress and journal
    /// counts folded into a metrics snapshot under `store.*` names — the per-instance half of
    /// [`BlockDevice::metrics`](stair_device::BlockDevice::metrics)
    /// (process-global GF kernel counters are added once by the caller,
    /// via [`gf_metrics`](crate::gf_metrics), so aggregating several
    /// stores does not multiply them).
    pub fn store_metrics(&self) -> stair_obs::MetricsSnapshot {
        // No `..`: a counter added without a metric name is E0027 here.
        let Counters {
            stripe_locks,
            encode_passes,
            delta_update_calls,
            recover_passes,
            scrub_stripes_done,
            repair_stripes_done,
            journal_replayed,
        } = &self.shared.counters;
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let (devices, journal) = (&self.shared.devices, &self.shared.journal);
        let mut snap = stair_obs::MetricsSnapshot::default();
        snap.add_counter("store.stripe_locks", load(stripe_locks));
        snap.add_counter("store.encode_passes", load(encode_passes));
        snap.add_counter("store.delta_update_calls", load(delta_update_calls));
        snap.add_counter("store.recover_passes", load(recover_passes));
        snap.add_counter("store.sector_reads", devices.sector_reads());
        snap.add_counter("store.sector_writes", devices.sector_writes());
        snap.add_counter("store.write_runs", devices.write_runs());
        snap.add_gauge("store.scrub.stripes_done", load(scrub_stripes_done) as i64);
        snap.add_gauge(
            "store.repair.stripes_done",
            load(repair_stripes_done) as i64,
        );
        snap.add_gauge("store.stripes", self.stripe_count() as i64);
        snap.add_counter("store.jrnl.appends", journal.append_count());
        snap.add_counter("store.jrnl.checkpoints", journal.checkpoint_count());
        snap.add_counter("store.jrnl.replayed", load(journal_replayed));
        snap.add_gauge("store.jrnl.used_bytes", journal.used_bytes() as i64);
        snap
    }

    /// Acquires every stripe lock, quiescing all stripe I/O. Safe against
    /// deadlock because stripe operations hold at most one stripe lock at
    /// a time and the locks are taken here in index order.
    fn lock_all_stripes(&self) -> Vec<MutexGuard<'_, ()>> {
        self.shared.stripe_locks.iter().map(|l| lock(l)).collect()
    }

    // ------------------------------------------------------------------
    // Failure surface
    // ------------------------------------------------------------------

    /// Declares device `dev` failed: the backing file is deleted and every
    /// sector of the device is treated as erased until repair.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] for out-of-range indices.
    pub fn fail_device(&self, dev: usize) -> Result<(), Error> {
        if dev >= self.shared.geometry.n {
            return Err(Error::OutOfRange(format!(
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
        let end = row.checked_add(len).filter(|&end| end <= geom.r);
        let (Some(end), true) = (end, dev < geom.n && stripe < stripes) else {
            return Err(Error::OutOfRange(format!(
                "burst dev={dev} stripe={stripe} rows {row}+{len} outside {}x{}x{}",
                stripes, geom.r, geom.n
            )));
        };
        let _guard = self.lock_stripe(stripe);
        self.corrupt_run(dev, stripe, row..end)
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
    /// With no wanted sector known lost (a device that is not `Healthy`,
    /// a recorded bad sector), each is read, verified and copied straight
    /// out: the fast path. A sector that does not verify there is
    /// recorded bad, and what did verify is served and not read again.
    /// Whatever is left — the whole window when a wanted sector was known
    /// lost from the start — is [restored](StripeStore::restore): the
    /// wanted lost sectors planned, only the plan's sources and the
    /// surviving wanted sectors read, and the plan's targets decoded
    /// where `out` holds their blocks (copied in, when one of them is
    /// only partly in the window). What is lost is decided once, here,
    /// and the restore starts from it.
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
        let mut window = Window {
            store: self,
            first: blocks.start,
            cells,
            offset,
            out,
        };
        let devices = sh.integrity.device_states();
        let mut erased = self.known_erasures(stripe_idx, &devices);

        // The cells whose bytes are not in `out` yet.
        let unserved = if window.cells.iter().any(|&c| erased.contains(c)) {
            window.cells.clone()
        } else {
            let wanted = window.cells.clone();
            let serve = |cell, data: &[u8]| window.take(cell, data);
            let failed = self.load_each(stripe_idx, &devices, wanted, serve)?;
            if failed.is_empty() {
                return Ok(());
            }
            // Damage inside the window itself: known from here on.
            let found = failed.iter().map(|&(row, dev)| (stripe_idx, row, dev));
            sh.integrity.update_health(|h| h.bad_sectors.extend(found));
            erased = erased.iter().chain(failed.iter().copied()).collect();
            failed
        };
        let wanted = |_: &ErasureSet| unserved.clone();
        self.restore(stripe_idx, &devices, erased, wanted, &mut window)?;
        Ok(())
    }

    fn unrecoverable(&self, stripe: usize, erased: &ErasureSet, e: CodeError) -> Error {
        match e {
            CodeError::Unrecoverable(_) => Error::Unrecoverable {
                stripe,
                erased: erased.cells().to_vec(),
            },
            other => Error::Code(other),
        }
    }

    /// What a stripe is known to have lost before anything is read: every
    /// sector of a device that is not `Healthy` in `devices`, and the
    /// sectors recorded bad.
    pub(crate) fn known_erasures(&self, stripe_idx: usize, devices: &[DeviceState]) -> ErasureSet {
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
        sectors: &mut Sectors<'_>,
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
        let mut sectors = Sectors::lend(&self.shared);
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

    /// The one restore rule, for every path that needs the sectors of a
    /// stripe that may have lost some: hands `sink` the bytes of each
    /// `wanted` cell, reconstructing the lost ones from the fewest reads
    /// the codec's planner knows.
    ///
    /// What is lost is decided before any I/O, by the caller: `erased` is
    /// what the stripe is known to have lost under the `devices` snapshot
    /// ([`StripeStore::known_erasures`], and whatever the caller found
    /// bad since). The wanted lost cells are planned against that
    /// ([`stair_code::CodecCore::plan_recover`]; nothing is planned
    /// when none is lost), and only the plan's sources and the surviving
    /// wanted cells are read. A sector that does not verify is recorded
    /// bad, joins the erasures, and the cells wanted by then are planned
    /// again; what verified is kept and never read again, so a restore
    /// reads each healthy sector of the stripe at most once. `wanted` is
    /// asked each round, with what is lost by then: repair wants whatever
    /// turns out lost. The plan decodes its targets into the sectors the
    /// sink lends ([`Sink::homes`]) when it lends one for every target,
    /// and hands them to [`Sink::take`] otherwise.
    ///
    /// Returns everything known lost once the wanted cells are served.
    ///
    /// # Errors
    ///
    /// [`Error::Unrecoverable`], naming every cell known lost by then,
    /// when the wanted lost cells cannot be planned.
    ///
    /// Callers must hold the stripe lock.
    pub(crate) fn restore(
        &self,
        stripe_idx: usize,
        devices: &[DeviceState],
        mut erased: ErasureSet,
        wanted: impl Fn(&ErasureSet) -> Vec<CellIdx>,
        sink: &mut impl Sink,
    ) -> Result<ErasureSet, Error> {
        let sh = &self.shared;
        // Earlier rounds' loads; a cell in one of them verified unless it
        // is erased, and no cell is in two.
        let mut held: Vec<Sectors<'_>> = Vec::new();
        loop {
            let cells = wanted(&erased);
            let lost: Vec<CellIdx> = cells
                .iter()
                .copied()
                .filter(|&c| erased.contains(c))
                .collect();
            let plan = (!lost.is_empty())
                .then(|| sh.codec.plan_recover(&erased, &lost))
                .transpose()
                .map_err(|e| self.unrecoverable(stripe_idx, &erased, e))?;
            let sources = plan.as_ref().map_or(&[][..], |plan| plan.sources());
            let surviving = cells.iter().filter(|&&c| !erased.contains(c));
            let unread = |&cell: &CellIdx| held.iter().all(|h| h.get(cell).is_none());
            let mut read = Sectors::lend(sh);
            read.select(
                sources
                    .iter()
                    .chain(surviving.clone())
                    .copied()
                    .filter(unread),
            );
            let failed = self.load_verified(stripe_idx, devices, &mut read)?;
            if failed.is_empty() {
                if let Some(plan) = &plan {
                    let mut planned = Planned {
                        read: &read,
                        held: &held,
                        sink: &mut *sink,
                    };
                    plan.execute(sh.codec.codec_id(), &mut planned)?;
                    sh.counters.count_recover();
                }
                for &cell in surviving {
                    if let Some(data) = held_sector(&read, &held, cell) {
                        sink.take(cell, data);
                    }
                }
                return Ok(erased);
            }
            let found = failed.iter().map(|&(row, dev)| (stripe_idx, row, dev));
            sh.integrity.update_health(|h| h.bad_sectors.extend(found));
            erased = erased.iter().chain(failed).collect();
            held.push(read);
        }
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
}

/// Sectors of one stripe as [`StripeStore::load_verified`] read them,
/// kept where they landed: cell `cells[k]` is `data[k·sym..(k+1)·sym]`,
/// in (device, row) order — the order the device files store them, so a
/// run of rows is one read into one span.
///
/// The cell list and the bytes live in buffers lent from the store's
/// spares and given back on drop, so a warm load allocates nothing: it
/// reads into memory an earlier one used rather than a fresh zero-filled
/// allocation, and only growth is zero-filled. Whatever a
/// selected sector held before, the loader vouches for it only once it
/// has read it whole and verified it; one it could not is reported lost,
/// never served.
struct Sectors<'s> {
    sym: usize,
    cells: Vec<CellIdx>,
    data: Vec<u8>,
    spares: &'s Mutex<Vec<Spare>>,
}

impl<'s> Sectors<'s> {
    /// Borrows a cell list and a buffer from the store's spares (new,
    /// empty ones if it has none).
    fn lend(shared: &'s Shared) -> Self {
        let spares = &shared.spare_sectors;
        // A spare is just memory: a panicking holder left nothing to undo.
        let (cells, data) = lock(spares).pop().unwrap_or_default();
        Sectors {
            sym: shared.meta.symbol,
            cells,
            data,
            spares,
        }
    }

    /// Chooses the cells the next load reads, keeping both buffers.
    fn select(&mut self, cells: impl IntoIterator<Item = CellIdx>) {
        let cells = cells.into_iter();
        self.cells.clear();
        // A filtered selection grows once, not by doubling.
        let (least, most) = cells.size_hint();
        self.cells.reserve(most.unwrap_or(least));
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

impl Drop for Sectors<'_> {
    /// Gives the buffers back, unless the store keeps enough already.
    fn drop(&mut self) {
        let mut spares = lock(self.spares);
        if spares.len() < SPARE_SECTOR_BUFFERS {
            spares.push((
                std::mem::take(&mut self.cells),
                std::mem::take(&mut self.data),
            ));
        }
    }
}

/// Where a [restore](StripeStore::restore) delivers the wanted cells.
pub(crate) trait Sink {
    /// Takes the bytes of wanted `cell`.
    fn take(&mut self, cell: CellIdx, data: &[u8]);

    /// The sector each of the recovered `cells` lives in at the sink, to
    /// be decoded into in place — `None` for one it has no such sector
    /// for, and then every cell goes to [`Sink::take`]. The default: none.
    fn homes(&mut self, cells: &[CellIdx]) -> Vec<Option<&mut [u8]>> {
        cells.iter().map(|_| None).collect()
    }
}

impl<F: FnMut(CellIdx, &[u8])> Sink for F {
    fn take(&mut self, cell: CellIdx, data: &[u8]) {
        self(cell, data);
    }
}

/// A read fragment's blocks and the caller's buffer they go to: `out`
/// holds the bytes from `offset` on, and block `first + k` is cell
/// `cells[k]`.
struct Window<'w> {
    store: &'w StripeStore,
    first: usize,
    cells: Vec<CellIdx>,
    offset: u64,
    out: &'w mut [u8],
}

impl Sink for Window<'_> {
    fn take(&mut self, cell: CellIdx, data: &[u8]) {
        if let Some(k) = self.cells.iter().position(|&c| c == cell) {
            self.store
                .copy_block(self.first + k, data, self.offset, self.out);
        }
    }

    /// A block wholly inside `out` is its own home; one the window cuts
    /// has none.
    fn homes(&mut self, cells: &[CellIdx]) -> Vec<Option<&mut [u8]>> {
        let sym = self.store.block_size() as u64;
        // `out` from its first block boundary on, a block at a time.
        let head = (sym - self.offset % sym) % sym;
        let first_whole = (self.offset + head) / sym;
        let mut whole: Vec<Option<&mut [u8]>> = match self.out.get_mut(head as usize..) {
            Some(tail) => tail.chunks_exact_mut(sym as usize).map(Some).collect(),
            None => Vec::new(),
        };
        let home = |&cell: &CellIdx| {
            let k = self.cells.iter().position(|&c| c == cell)?;
            let j = ((self.first + k) as u64).checked_sub(first_whole)?;
            whole.get_mut(j as usize)?.take()
        };
        cells.iter().map(home).collect()
    }
}

/// A restore as its plan sees it: sources where the loads read them,
/// targets where the sink keeps them.
struct Planned<'a, S: ?Sized> {
    read: &'a Sectors<'a>,
    held: &'a [Sectors<'a>],
    sink: &'a mut S,
}

/// The bytes of `cell` in whichever of a restore's loads holds them.
fn held_sector<'a>(
    read: &'a Sectors<'_>,
    held: &'a [Sectors<'_>],
    cell: CellIdx,
) -> Option<&'a [u8]> {
    read.get(cell)
        .or_else(|| held.iter().find_map(|load| load.get(cell)))
}

impl<S: Sink + ?Sized> CellLookup for Planned<'_, S> {
    fn symbol(&self) -> usize {
        self.read.sym
    }

    fn source(&self, cell: CellIdx) -> Option<&[u8]> {
        held_sector(self.read, self.held, cell)
    }

    fn recovered(&mut self, cell: CellIdx, bytes: &[u8]) -> Result<(), CodeError> {
        self.sink.take(cell, bytes);
        Ok(())
    }

    /// The sources where the loads read them, the targets in the sink's
    /// homes — when it has one for each.
    fn lend(&mut self, sources: &[CellIdx], targets: &[CellIdx]) -> Option<Lent<'_>> {
        let (read, held) = (self.read, self.held);
        let sources = sources.iter().map(|&c| held_sector(read, held, c));
        let sources = sources.collect::<Option<Vec<&[u8]>>>()?;
        let homes = self.sink.homes(targets);
        let homes = homes.into_iter().collect::<Option<_>>()?;
        Some((sources, homes))
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

    /// A read's recovered block is decoded into the caller's buffer
    /// where the window holds all of it, and has no home where the
    /// window cuts it.
    #[test]
    fn a_window_lends_its_whole_blocks() {
        let dir = tmpdir("homes");
        let store = StripeStore::create(&dir, &small_opts()).unwrap();
        // Blocks 1..5 of stripe 1 (blocks 21..25), from 10 bytes into
        // block 21 to 20 bytes into block 24: 22 and 23 are whole.
        let mut out = vec![0u8; 54 + 2 * 64 + 20];
        let cells = (21..25).map(|b| store.shared.blocks.locate(b).unwrap().cell);
        let mut window = Window {
            store: &store,
            first: 21,
            cells: cells.collect(),
            offset: 21 * 64 + 10,
            out: &mut out,
        };
        let cells = window.cells.clone();
        // Asked out of order, and for a cell the window does not read.
        let asked = [cells[2], cells[0], (3, 7), cells[1], cells[3]];
        for (k, home) in window.homes(&asked).into_iter().enumerate() {
            match home {
                Some(home) => home.fill(k as u8 + 1),
                None => assert!(k != 0 && k != 3, "{:?} has a home", asked[k]),
            }
        }
        let (head, rest) = out.split_at(54);
        let (whole, tail) = rest.split_at(128);
        assert!(head.iter().chain(tail).all(|&b| b == 0));
        assert!(whole[..64].iter().all(|&b| b == 4) && whole[64..].iter().all(|&b| b == 1));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_warm_load_reuses_the_cell_list_and_the_buffer() {
        let dir = tmpdir("warm");
        let store = StripeStore::create(&dir, &small_opts()).unwrap();
        let column = |dev| (0..4).map(move |row| (row, dev));
        let mut first = Sectors::lend(&store.shared);
        first.select(column(0).chain(column(1)));
        let lent = (first.cells.as_ptr(), first.data.as_ptr());
        drop(first);
        // A smaller selection fits what the first load left behind.
        let mut warm = Sectors::lend(&store.shared);
        warm.select(column(2));
        assert_eq!((warm.cells.as_ptr(), warm.data.as_ptr()), lent);
        assert_eq!(warm.cells, column(2).collect::<Vec<_>>());
        drop(warm);
        drop(store);
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
