//! `stair-cache`: a tiered cache composable over any [`BlockDevice`].
//!
//! Erasure-coded reads are expensive — every miss pays checksum
//! verification, possibly degraded reconstruction, and (over `tcp:`) a
//! round trip — and small writes pay a parity update per touched
//! stripe. This crate puts two tiers in front of whatever
//! `open_device()` returned:
//!
//! * **Read tier** — a block-granular CLOCK cache under a fixed byte
//!   budget. Fills happen on miss from the (always verified) inner
//!   read path. Each frame's Fletcher-32 ([`stair_gf::fletcher32`], the
//!   store's own sector checksum at the CPU's widest tier) is taken at
//!   fill and checked on every hit, so a frame corrupted in memory is
//!   detected and refilled rather than served. Writes invalidate the
//!   blocks they touch; scrub, repair, and fault injection bump a
//!   generation counter that lazily drops every frame (reads after a
//!   repair always see reconstructed data, never a stale frame).
//! * **Write-back tier** (optional, `wb=on`) — full-block staging with
//!   group commit: absorbed writes are acknowledged immediately and
//!   drained as one coalesced op list when the group-commit
//!   interval elapses, when buffered blocks cross the pressure
//!   threshold, or synchronously on [`flush`](BlockDevice::flush).
//!   Coalescing turns N single-block writes to a stripe into one
//!   submit, so the store makes one re-encode-vs-parity-delta decision
//!   instead of N.
//!
//! # Ack semantics
//!
//! Write-through (the default) acknowledges a write only after the
//! inner device has: durability is exactly the inner device's. With
//! `wb=on`, a write is acknowledged once staged — **volatile until the
//! next drain**. A crash loses at most the unflushed window (bounded
//! by the interval and the pressure threshold) of *whole acknowledged
//! writes*; it never tears one, because drains go through the inner
//! device's journalled batch path. Callers needing durability call
//! `flush()`, which drains synchronously before flushing the inner
//! device.
//!
//! # Coherence
//!
//! Reads consult the staged write tier first, then the read tier, then
//! the inner device; a read issued after an acknowledged write always
//! returns that write's data. The clock lock is held across miss
//! fills, and writers invalidate *after* the inner write completes, so
//! a fill can never resurrect pre-write data. The tier is
//! process-local: it must be the **only** writer to the inner device
//! (a second client writing underneath it will be served stale reads
//! until the next generation bump), which is the same single-owner
//! contract the stripe store itself has.

// A no-panic zone: library code returns errors instead (tests may panic).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use stair_device::{
    cache_budget_bytes, BlockDevice, CacheTierStatus, DeviceError, DeviceStatus, FaultAdmin, OpRef,
    OpResult, RepairOutcome, ScrubOutcome, WriteOutcome, CACHE_DEFAULT_INTERVAL_MS,
    CACHE_DEFAULT_MB,
};
use stair_gf::fletcher32;
use stair_obs::sync::lock;
use stair_obs::trace::{self, names};
use stair_obs::{metric_names, Counter, MetricsRegistry, MetricsSnapshot};

/// Configuration for a [`CachedDevice`], mirroring the
/// `cache:<inner>?mb=&wb=&interval_ms=` spec keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Read-tier budget in bytes.
    pub budget_bytes: u64,
    /// Enable the write-back tier (`false` = write-through).
    pub write_back: bool,
    /// Group-commit interval for the write-back drain thread in
    /// milliseconds; `0` disables the timer (drains happen only on
    /// pressure or `flush()`).
    pub interval_ms: u64,
}

impl CacheConfig {
    /// Builds a config from the spec-grammar units (budget in MiB); a
    /// budget whose byte count overflows `u64` is a [`DeviceError::Spec`].
    pub fn from_spec(mb: usize, write_back: bool, interval_ms: u64) -> Result<Self, DeviceError> {
        let budget_bytes = cache_budget_bytes(mb).ok_or_else(|| {
            DeviceError::Spec(format!(
                "cache budget mb={mb} overflows a 64-bit byte count"
            ))
        })?;
        Ok(CacheConfig {
            budget_bytes,
            write_back,
            interval_ms,
        })
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            budget_bytes: (CACHE_DEFAULT_MB as u64) << 20,
            write_back: false,
            interval_ms: CACHE_DEFAULT_INTERVAL_MS,
        }
    }
}

/// One read-tier frame: a cached block plus the metadata that decides
/// whether it may be served.
struct Frame {
    /// Block index this frame holds.
    block: u64,
    /// Generation the block was filled under; served only while it
    /// matches the device's current generation.
    gen: u64,
    /// Fletcher-32 of `data`, taken at fill and verified on every hit,
    /// so a frame corrupted in memory demotes to a miss instead of
    /// returning garbage.
    sum: u32,
    /// Second-chance bit for the CLOCK hand.
    referenced: bool,
    /// `false` once invalidated; the slot is preferred for reuse.
    live: bool,
    /// The cached bytes (one block; the device tail may be shorter).
    data: Vec<u8>,
}

/// The CLOCK read tier: a bounded frame table plus the block → frame
/// index map and the sweep hand.
struct Clock {
    frames: Vec<Frame>,
    map: HashMap<u64, usize>,
    hand: usize,
}

/// The write-back tier: staged full blocks awaiting a group commit.
struct Wb {
    staged: Mutex<BTreeMap<u64, Vec<u8>>>,
    /// Paired with `tick` so `flush()`/drop can wake the drain thread.
    stop: Mutex<bool>,
    tick: Condvar,
    /// Staged-block count that triggers an inline drain.
    pressure: usize,
    interval_ms: u64,
}

/// Shared state between the device handle and the drain thread.
struct Core<D> {
    inner: D,
    block: usize,
    capacity: u64,
    max_frames: usize,
    budget_bytes: u64,
    gen: AtomicU64,
    clock: Mutex<Clock>,
    wb: Option<Wb>,
    registry: Arc<MetricsRegistry>,
    hit: Counter,
    miss: Counter,
    fill: Counter,
    evict: Counter,
    invalidate: Counter,
    absorbed: Counter,
    flushed: Counter,
    coalesced: Counter,
}

/// A tiered cache in front of any [`BlockDevice`] — the `cache:`
/// backend of the device spec grammar.
///
/// All methods take `&self` and the wrapper is `Send + Sync`, so it
/// composes anywhere the inner device did (including behind
/// `Arc<dyn BlockDevice>`). Dropping the wrapper stops the drain
/// thread and performs a best-effort final drain; call
/// [`flush`](BlockDevice::flush) first when write-back durability
/// matters.
pub struct CachedDevice<D: BlockDevice> {
    core: Arc<Core<D>>,
    flusher: Option<thread::JoinHandle<()>>,
}

/// Copies the overlap between a block at `block_off` and the request
/// window starting at `req_off` into `out`.
fn copy_overlap(out: &mut [u8], req_off: u64, block_off: u64, data: &[u8]) {
    let req_end = req_off + out.len() as u64;
    let blk_end = block_off + data.len() as u64;
    let start = req_off.max(block_off);
    let end = req_end.min(blk_end);
    if start < end {
        out[(start - req_off) as usize..(end - req_off) as usize]
            .copy_from_slice(&data[(start - block_off) as usize..(end - block_off) as usize]);
    }
}

impl<D: BlockDevice + 'static> CachedDevice<D> {
    /// Wraps `inner` with the given tiers, spawning the group-commit
    /// drain thread when write-back is on and the interval is nonzero.
    pub fn new(inner: D, config: CacheConfig) -> Self {
        let block = inner.block_size().max(1);
        let capacity = inner.capacity();
        let max_frames = ((config.budget_bytes / block as u64) as usize).max(1);
        let registry = Arc::new(MetricsRegistry::new());
        let wb = config.write_back.then(|| Wb {
            staged: Mutex::new(BTreeMap::new()),
            stop: Mutex::new(false),
            tick: Condvar::new(),
            pressure: (max_frames / 2).max(8),
            interval_ms: config.interval_ms,
        });
        let core = Arc::new(Core {
            inner,
            block,
            capacity,
            max_frames,
            budget_bytes: config.budget_bytes,
            gen: AtomicU64::new(0),
            clock: Mutex::new(Clock {
                frames: Vec::new(),
                map: HashMap::new(),
                hand: 0,
            }),
            wb,
            hit: registry.counter(metric_names::CACHE_HIT),
            miss: registry.counter(metric_names::CACHE_MISS),
            fill: registry.counter(metric_names::CACHE_FILL),
            evict: registry.counter(metric_names::CACHE_EVICT),
            invalidate: registry.counter(metric_names::CACHE_INVALIDATE),
            absorbed: registry.counter(metric_names::WB_ABSORBED),
            flushed: registry.counter(metric_names::WB_FLUSHED),
            coalesced: registry.counter(metric_names::WB_COALESCED),
            registry,
        });
        let flusher = match &core.wb {
            Some(wb) if wb.interval_ms > 0 => {
                let core = Arc::clone(&core);
                Some(thread::spawn(move || core.drain_loop()))
            }
            _ => None,
        };
        CachedDevice { core, flusher }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.core.inner
    }

    /// The tier's own metrics registry (`cache.*` / `wb.*` counters).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.core.registry
    }
}

impl<D: BlockDevice> Drop for CachedDevice<D> {
    fn drop(&mut self) {
        if let Some(wb) = &self.core.wb {
            *lock(&wb.stop) = true;
            wb.tick.notify_all();
        }
        if let Some(handle) = self.flusher.take() {
            let _ = handle.join();
        }
        // Best effort: an unreachable inner device at drop time loses
        // the staged window, which is exactly the documented wb
        // contract. `flush()` is the durable path.
        let _ = self.core.drain();
    }
}

impl<D: BlockDevice> Core<D> {
    /// The group-commit loop: drain every `interval_ms` until stopped.
    fn drain_loop(&self) {
        let Some(wb) = &self.wb else { return };
        let mut stopped = lock(&wb.stop);
        while !*stopped {
            let (guard, _) = wb
                .tick
                .wait_timeout(stopped, Duration::from_millis(wb.interval_ms))
                .unwrap_or_else(|e| e.into_inner());
            stopped = guard;
            if *stopped {
                return;
            }
            drop(stopped);
            // Errors leave the blocks staged; the next tick retries.
            let _ = self.drain();
            stopped = lock(&wb.stop);
        }
    }

    /// Byte length of block `b` (the device tail may be shorter).
    fn block_len(&self, b: u64) -> usize {
        let start = b * self.block as u64;
        (self.capacity.saturating_sub(start)).min(self.block as u64) as usize
    }

    /// Serves a block from the read tier, verifying generation and
    /// checksum; a frame failing either demotes to a miss.
    fn lookup(clock: &mut Clock, b: u64, gen: u64) -> Option<&[u8]> {
        let idx = *clock.map.get(&b)?;
        let frame = &mut clock.frames[idx];
        if !frame.live || frame.gen != gen || fletcher32(&frame.data) != frame.sum {
            frame.live = false;
            clock.map.remove(&b);
            return None;
        }
        frame.referenced = true;
        Some(&clock.frames[idx].data)
    }

    /// Installs `data` as block `b`'s frame, evicting via CLOCK when
    /// the table is full. Dead and stale-generation frames are
    /// preferred victims and don't count as evictions.
    fn insert_frame(&self, clock: &mut Clock, b: u64, gen: u64, data: Vec<u8>) {
        let sum = fletcher32(&data);
        if let Some(&idx) = clock.map.get(&b) {
            let frame = &mut clock.frames[idx];
            frame.data = data;
            frame.sum = sum;
            frame.gen = gen;
            frame.referenced = true;
            frame.live = true;
            return;
        }
        if clock.frames.len() < self.max_frames {
            clock.map.insert(b, clock.frames.len());
            clock.frames.push(Frame {
                block: b,
                gen,
                sum,
                referenced: true,
                live: true,
                data,
            });
            return;
        }
        let n = clock.frames.len();
        let current = self.gen.load(Ordering::Acquire);
        let mut victim = clock.hand;
        // Two sweeps suffice: the first clears every referenced bit.
        for _ in 0..=2 * n {
            let idx = clock.hand;
            clock.hand = (clock.hand + 1) % n;
            let frame = &mut clock.frames[idx];
            if !frame.live || frame.gen != current {
                victim = idx;
                break;
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            self.evict.inc();
            victim = idx;
            break;
        }
        let old = clock.frames[victim].block;
        if clock.map.get(&old) == Some(&victim) {
            clock.map.remove(&old);
        }
        clock.frames[victim] = Frame {
            block: b,
            gen,
            sum,
            referenced: true,
            live: true,
            data,
        };
        clock.map.insert(b, victim);
    }

    /// The cached read path. Consults staged writes, then the read
    /// tier, then fills coalesced miss runs from the inner device
    /// under the clock lock (so a concurrent writer's invalidation
    /// always lands after the fill it must kill).
    fn read_cached(&self, offset: u64, len: usize) -> Result<Vec<u8>, DeviceError> {
        let end = offset.checked_add(len as u64);
        if len == 0 || end.is_none() || end.unwrap_or(u64::MAX) > self.capacity {
            // Forward so out-of-range errors keep the inner device's
            // exact text and variant.
            return self.inner.read_at(offset, len);
        }
        let block = self.block as u64;
        let (b0, b1) = (offset / block, (offset + len as u64 - 1) / block);
        let gen = self.gen.load(Ordering::Acquire);
        let mut out = vec![0u8; len];
        let staged = self.wb.as_ref().map(|wb| lock(&wb.staged));
        let mut clock = lock(&self.clock);
        let mut missing: Vec<u64> = Vec::new();
        for b in b0..=b1 {
            if let Some(data) = staged.as_ref().and_then(|s| s.get(&b)) {
                copy_overlap(&mut out, offset, b * block, data);
                self.hit.inc();
            } else if let Some(data) = Self::lookup(&mut clock, b, gen) {
                copy_overlap(&mut out, offset, b * block, data);
                self.hit.inc();
            } else {
                self.miss.inc();
                missing.push(b);
            }
        }
        if !missing.is_empty() {
            let mut span = trace::span_or_root(names::CACHE_FILL);
            let mut filled = 0u64;
            let mut i = 0;
            while i < missing.len() {
                let start = missing[i];
                let mut last = start;
                while i + 1 < missing.len() && missing[i + 1] == last + 1 {
                    i += 1;
                    last += 1;
                }
                i += 1;
                let run_off = start * block;
                let run_len = (((last + 1) * block).min(self.capacity) - run_off) as usize;
                let data = match self.inner.read_at(run_off, run_len) {
                    Ok(data) => data,
                    Err(e) => {
                        span.fail();
                        return Err(e);
                    }
                };
                filled += data.len() as u64;
                for b in start..=last {
                    let lo = ((b - start) * block) as usize;
                    let hi = (lo + self.block).min(data.len());
                    let piece = data[lo..hi].to_vec();
                    copy_overlap(&mut out, offset, b * block, &piece);
                    self.fill.inc();
                    self.insert_frame(&mut clock, b, gen, piece);
                }
            }
            span.set_bytes(filled);
        }
        Ok(out)
    }

    /// Drops the read-tier frames a write span covers. Runs *after*
    /// the inner write, pairing with fills that hold the clock lock:
    /// a stale fill is always invalidated, never resurrected.
    fn invalidate_span(&self, offset: u64, len: usize) {
        if len == 0 {
            return;
        }
        let block = self.block as u64;
        let (b0, b1) = (offset / block, (offset + len as u64 - 1) / block);
        let mut clock = lock(&self.clock);
        for b in b0..=b1 {
            if let Some(idx) = clock.map.remove(&b) {
                clock.frames[idx].live = false;
                self.invalidate.inc();
            }
        }
    }

    /// Invalidate everything in O(1): scrub, repair, and fault
    /// injection change inner data underneath the tier, so every
    /// frame's generation tag goes stale at once.
    fn bump_gen(&self) {
        let gen = self.gen.load(Ordering::Acquire);
        {
            let clock = lock(&self.clock);
            let resident = clock
                .frames
                .iter()
                .filter(|f| f.live && f.gen == gen)
                .count();
            self.invalidate.add(resident as u64);
        }
        self.gen.fetch_add(1, Ordering::AcqRel);
    }

    /// Stages a write into the wb tier as full blocks,
    /// read-modify-writing partial edge blocks from staged → cached →
    /// inner data.
    fn stage(
        &self,
        staged: &mut BTreeMap<u64, Vec<u8>>,
        offset: u64,
        data: &[u8],
    ) -> Result<(), DeviceError> {
        let block = self.block as u64;
        let mut pos = 0usize;
        let mut b = offset / block;
        while pos < data.len() {
            let bstart = b * block;
            let blen = self.block_len(b);
            let in_off = (offset + pos as u64 - bstart) as usize;
            let take = (blen - in_off).min(data.len() - pos);
            if in_off == 0 && take == blen {
                staged.insert(b, data[pos..pos + take].to_vec());
            } else {
                let mut base = match staged.get(&b) {
                    Some(existing) => existing.clone(),
                    None => {
                        let gen = self.gen.load(Ordering::Acquire);
                        let mut clock = lock(&self.clock);
                        match Self::lookup(&mut clock, b, gen) {
                            Some(cached) => cached.to_vec(),
                            None => {
                                drop(clock);
                                self.inner.read_at(bstart, blen)?
                            }
                        }
                    }
                };
                base.resize(blen, 0);
                base[in_off..in_off + take].copy_from_slice(&data[pos..pos + take]);
                staged.insert(b, base);
            }
            self.absorbed.inc();
            pos += take;
            b += 1;
        }
        Ok(())
    }

    /// The one stage-or-forward decision: with a write-back tier, an
    /// in-range write is staged and acknowledged volatile — bytes only,
    /// no stripe accounting until the drain runs. `None` leaves the
    /// write to the inner device (so out-of-range errors keep its text).
    fn absorb(&self, offset: u64, data: &[u8]) -> Result<Option<WriteOutcome>, DeviceError> {
        let end = offset.checked_add(data.len() as u64);
        let in_range = !data.is_empty() && end.is_some_and(|e| e <= self.capacity);
        let Some(wb) = self.wb.as_ref().filter(|_| in_range) else {
            return Ok(None);
        };
        let mut staged = lock(&wb.staged);
        self.stage(&mut staged, offset, data)?;
        if staged.len() >= wb.pressure {
            self.drain_locked(&mut staged)?;
        }
        Ok(Some(WriteOutcome {
            bytes: data.len() as u64,
            ..WriteOutcome::default()
        }))
    }

    /// Drains the wb tier (if any) as one coalesced batch.
    fn drain(&self) -> Result<(), DeviceError> {
        let Some(wb) = &self.wb else { return Ok(()) };
        let mut staged = lock(&wb.staged);
        self.drain_locked(&mut staged)
    }

    /// Drains with the staged lock held, so reads never observe a
    /// window where a block is neither staged nor written back. On
    /// error the blocks are re-staged (rewriting them is idempotent)
    /// and the error propagates.
    fn drain_locked(&self, staged: &mut BTreeMap<u64, Vec<u8>>) -> Result<(), DeviceError> {
        if staged.is_empty() {
            return Ok(());
        }
        let taken = std::mem::take(staged);
        let block = self.block as u64;
        let mut runs: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut total = 0u64;
        for (&b, data) in &taken {
            total += data.len() as u64;
            let off = b * block;
            match runs.last_mut() {
                Some((run_off, run)) if *run_off + run.len() as u64 == off => {
                    run.extend_from_slice(data)
                }
                _ => runs.push((off, data.clone())),
            }
        }
        let ops: Vec<OpRef<'_>> = runs
            .iter()
            .map(|(offset, data)| OpRef::Write {
                offset: *offset,
                data,
            })
            .collect();
        let mut span = trace::span_or_root(names::WB_FLUSH);
        span.set_bytes(total);
        match self.inner.submit_ops(&ops) {
            Ok(_) => {
                self.flushed.add(taken.len() as u64);
                self.coalesced.add(ops.len() as u64);
                let gen = self.gen.load(Ordering::Acquire);
                let mut clock = lock(&self.clock);
                for (b, data) in taken {
                    self.insert_frame(&mut clock, b, gen, data);
                }
                Ok(())
            }
            Err(e) => {
                span.fail();
                for (b, data) in taken {
                    staged.entry(b).or_insert(data);
                }
                Err(e)
            }
        }
    }

    /// Point-in-time tier state for [`DeviceStatus`].
    fn tier_status(&self) -> CacheTierStatus {
        let wb_buffered = self.wb.as_ref().map_or(0, |wb| lock(&wb.staged).len());
        let gen = self.gen.load(Ordering::Acquire);
        let resident = {
            let clock = lock(&self.clock);
            clock
                .frames
                .iter()
                .filter(|f| f.live && f.gen == gen)
                .count()
        };
        let snap = self.registry.snapshot();
        CacheTierStatus {
            budget_bytes: self.budget_bytes,
            frames: self.max_frames,
            resident_blocks: resident,
            generation: gen,
            write_back: self.wb.is_some(),
            wb_buffered_blocks: wb_buffered,
            hits: snap.counter(metric_names::CACHE_HIT).unwrap_or(0),
            misses: snap.counter(metric_names::CACHE_MISS).unwrap_or(0),
        }
    }
}

impl<D: BlockDevice> BlockDevice for CachedDevice<D> {
    fn capacity(&self) -> u64 {
        self.core.capacity
    }

    fn block_size(&self) -> usize {
        self.core.block
    }

    fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, DeviceError> {
        let core = &self.core;
        if OpRef::conflicts(ops) {
            // Conflicting ops need submission-order semantics the
            // tiers would obscure: drain staged writes so the inner
            // device sees the newest data, forward the list whole,
            // then invalidate what its writes touched.
            core.drain()?;
            let result = core.inner.submit_ops(ops);
            for op in ops.iter().filter(|op| op.is_write()) {
                core.invalidate_span(op.offset(), op.byte_len());
            }
            return result;
        }
        // Disjoint ops: reads go through the cached path one by one
        // (hits are free, misses fill); writes stage in wb mode or
        // forward as one borrowed sub-list so the store still groups
        // them. A lone read allocates nothing but its result slot.
        let mut results = Vec::with_capacity(ops.len());
        let mut forward: Vec<OpRef<'_>> = Vec::new();
        let mut forward_slots: Vec<usize> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            results.push(match *op {
                OpRef::Read { offset, len } => OpResult::Read(core.read_cached(offset, len)?),
                OpRef::Write { offset, data } => {
                    OpResult::Write(core.absorb(offset, data)?.unwrap_or_else(|| {
                        forward.push(*op);
                        forward_slots.push(i);
                        WriteOutcome::default()
                    }))
                }
            });
        }
        if !forward.is_empty() {
            let sub = core.inner.submit_ops(&forward);
            for op in &forward {
                core.invalidate_span(op.offset(), op.byte_len());
            }
            for (slot, result) in forward_slots.into_iter().zip(sub?) {
                results[slot] = result;
            }
        }
        Ok(results)
    }

    fn flush(&self) -> Result<(), DeviceError> {
        self.core.drain()?;
        self.core.inner.flush()
    }

    fn status(&self) -> Result<DeviceStatus, DeviceError> {
        let mut status = self.core.inner.status()?;
        status.backend = "cache".into();
        status.cache = Some(self.core.tier_status());
        Ok(status)
    }

    fn scrub(&self, threads: usize) -> Result<ScrubOutcome, DeviceError> {
        self.core.drain()?;
        let outcome = self.core.inner.scrub(threads);
        self.core.bump_gen();
        outcome
    }

    fn repair(&self, threads: usize) -> Result<RepairOutcome, DeviceError> {
        self.core.drain()?;
        let outcome = self.core.inner.repair(threads);
        self.core.bump_gen();
        outcome
    }

    fn metrics(&self) -> Result<MetricsSnapshot, DeviceError> {
        let mut snap = self.core.registry.snapshot();
        snap.merge(&self.core.inner.metrics()?);
        Ok(snap)
    }
}

/// Fault injection passes through, but first drains staged writes
/// (so the injected fault applies to fully written-back state) and
/// then bumps the generation: the tier must not serve pre-fault data
/// that hides the fault from scrub/read paths under test.
impl<D: BlockDevice + FaultAdmin> FaultAdmin for CachedDevice<D> {
    fn fail_device(&self, shard: usize, device: usize) -> Result<(), DeviceError> {
        self.core.drain()?;
        let result = self.core.inner.fail_device(shard, device);
        self.core.bump_gen();
        result
    }

    fn corrupt_sectors(
        &self,
        shard: usize,
        device: usize,
        stripe: usize,
        row: usize,
        len: usize,
    ) -> Result<(), DeviceError> {
        self.core.drain()?;
        let result = self
            .core
            .inner
            .corrupt_sectors(shard, device, stripe, row, len);
        self.core.bump_gen();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stair_device::{IoBatch, IoOp};

    const BLOCK: usize = 16;

    /// An in-memory device that counts the reads and writes reaching
    /// it, so tests can assert what the tiers absorbed — and, being a
    /// `submit_ops`-only implementor, that the trait's provided
    /// `read_at`/`write_at`/`submit` need nothing else.
    struct MemDevice {
        data: Mutex<Vec<u8>>,
        reads: AtomicU64,
        writes: AtomicU64,
        /// Address of the last write payload seen.
        last_payload: AtomicU64,
    }

    impl MemDevice {
        fn new(len: usize) -> Self {
            MemDevice {
                data: Mutex::new(vec![0; len]),
                reads: AtomicU64::new(0),
                writes: AtomicU64::new(0),
                last_payload: AtomicU64::new(0),
            }
        }

        fn reads(&self) -> u64 {
            self.reads.load(Ordering::SeqCst)
        }

        fn writes(&self) -> u64 {
            self.writes.load(Ordering::SeqCst)
        }
    }

    impl BlockDevice for MemDevice {
        fn capacity(&self) -> u64 {
            lock(&self.data).len() as u64
        }

        fn block_size(&self) -> usize {
            BLOCK
        }

        fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, DeviceError> {
            let mut bytes = lock(&self.data);
            let mut results = Vec::with_capacity(ops.len());
            for op in ops {
                let start = op.offset() as usize;
                let end = start
                    .checked_add(op.byte_len())
                    .filter(|&e| e <= bytes.len())
                    .ok_or_else(|| DeviceError::OutOfRange("op past end".into()))?;
                results.push(match op {
                    OpRef::Read { .. } => {
                        self.reads.fetch_add(1, Ordering::SeqCst);
                        OpResult::Read(bytes[start..end].to_vec())
                    }
                    OpRef::Write { data, .. } => {
                        self.writes.fetch_add(1, Ordering::SeqCst);
                        self.last_payload
                            .store(data.as_ptr() as u64, Ordering::SeqCst);
                        bytes[start..end].copy_from_slice(data);
                        OpResult::Write(WriteOutcome {
                            bytes: data.len() as u64,
                            blocks_written: 1,
                            stripes_touched: 1,
                            ..WriteOutcome::default()
                        })
                    }
                });
            }
            Ok(results)
        }

        fn flush(&self) -> Result<(), DeviceError> {
            Ok(())
        }

        fn status(&self) -> Result<DeviceStatus, DeviceError> {
            Ok(DeviceStatus {
                backend: "mem".into(),
                capacity: self.capacity(),
                block_size: BLOCK,
                shards: Vec::new(),
                cache: None,
            })
        }

        fn scrub(&self, _threads: usize) -> Result<ScrubOutcome, DeviceError> {
            Ok(ScrubOutcome::default())
        }

        fn repair(&self, _threads: usize) -> Result<RepairOutcome, DeviceError> {
            Ok(RepairOutcome::default())
        }
    }

    fn small_config() -> CacheConfig {
        CacheConfig {
            budget_bytes: (4 * BLOCK) as u64,
            write_back: false,
            interval_ms: 0,
        }
    }

    fn wb_config() -> CacheConfig {
        CacheConfig {
            budget_bytes: (4 * BLOCK) as u64,
            write_back: true,
            interval_ms: 0,
        }
    }

    #[test]
    fn repeat_reads_hit_without_touching_inner() {
        let dev = CachedDevice::new(MemDevice::new(8 * BLOCK), small_config());
        dev.write_at(0, &[7u8; BLOCK]).unwrap();
        assert_eq!(dev.read_at(0, BLOCK).unwrap(), vec![7u8; BLOCK]);
        let after_fill = dev.inner().reads();
        for _ in 0..5 {
            assert_eq!(dev.read_at(0, BLOCK).unwrap(), vec![7u8; BLOCK]);
        }
        assert_eq!(dev.inner().reads(), after_fill, "hits must not reach inner");
        let snap = dev.metrics().unwrap();
        assert_eq!(snap.counter(metric_names::CACHE_HIT), Some(5));
        assert_eq!(snap.counter(metric_names::CACHE_MISS), Some(1));
        assert_eq!(snap.counter(metric_names::CACHE_FILL), Some(1));
    }

    #[test]
    fn unaligned_reads_assemble_from_block_frames() {
        let inner = MemDevice::new(8 * BLOCK);
        let mut payload = vec![0u8; 8 * BLOCK];
        for (i, byte) in payload.iter_mut().enumerate() {
            *byte = (i % 251) as u8;
        }
        inner.write_at(0, &payload).unwrap();
        let dev = CachedDevice::new(inner, small_config());
        // Straddles three blocks at odd offsets.
        assert_eq!(
            dev.read_at(7, 2 * BLOCK + 3).unwrap(),
            payload[7..7 + 2 * BLOCK + 3]
        );
        // Second pass is all hits.
        let after = dev.inner().reads();
        assert_eq!(
            dev.read_at(7, 2 * BLOCK + 3).unwrap(),
            payload[7..7 + 2 * BLOCK + 3]
        );
        assert_eq!(dev.inner().reads(), after);
    }

    #[test]
    fn miss_runs_coalesce_into_one_inner_read() {
        let dev = CachedDevice::new(MemDevice::new(8 * BLOCK), small_config());
        let before = dev.inner().reads();
        dev.read_at(0, 4 * BLOCK).unwrap();
        assert_eq!(
            dev.inner().reads(),
            before + 1,
            "contiguous misses fill in one read"
        );
    }

    #[test]
    fn writes_invalidate_cached_blocks() {
        let dev = CachedDevice::new(MemDevice::new(8 * BLOCK), small_config());
        dev.read_at(0, BLOCK).unwrap();
        dev.write_at(4, &[9u8; 4]).unwrap();
        let mut expected = vec![0u8; BLOCK];
        expected[4..8].copy_from_slice(&[9u8; 4]);
        let before = dev.inner().reads();
        assert_eq!(dev.read_at(0, BLOCK).unwrap(), expected);
        assert_eq!(dev.inner().reads(), before + 1, "written block must refill");
        let snap = dev.metrics().unwrap();
        assert_eq!(snap.counter(metric_names::CACHE_INVALIDATE), Some(1));
    }

    #[test]
    fn eviction_respects_the_byte_budget() {
        // Budget of 4 frames, touch 6 blocks: something must go.
        let dev = CachedDevice::new(MemDevice::new(8 * BLOCK), small_config());
        for b in 0..6u64 {
            dev.read_at(b * BLOCK as u64, BLOCK).unwrap();
        }
        let status = dev.status().unwrap();
        let tier = status.cache.unwrap();
        assert_eq!(tier.frames, 4);
        assert!(tier.resident_blocks <= 4);
        assert!(dev.metrics().unwrap().counter(metric_names::CACHE_EVICT) >= Some(2));
        assert_eq!(status.backend, "cache");
    }

    #[test]
    fn scrub_and_repair_bump_the_generation() {
        let dev = CachedDevice::new(MemDevice::new(8 * BLOCK), small_config());
        dev.read_at(0, BLOCK).unwrap();
        assert_eq!(dev.status().unwrap().cache.unwrap().generation, 0);
        dev.scrub(1).unwrap();
        assert_eq!(dev.status().unwrap().cache.unwrap().generation, 1);
        let before = dev.inner().reads();
        dev.read_at(0, BLOCK).unwrap();
        assert_eq!(
            dev.inner().reads(),
            before + 1,
            "post-scrub read must refill"
        );
        dev.repair(1).unwrap();
        assert_eq!(dev.status().unwrap().cache.unwrap().generation, 2);
    }

    #[test]
    fn corrupted_frames_demote_to_misses() {
        let dev = CachedDevice::new(MemDevice::new(8 * BLOCK), small_config());
        dev.read_at(0, BLOCK).unwrap();
        {
            let mut clock = lock(&dev.core.clock);
            clock.frames[0].data[3] ^= 0xFF; // bit-rot in RAM
        }
        let before = dev.inner().reads();
        assert_eq!(dev.read_at(0, BLOCK).unwrap(), vec![0u8; BLOCK]);
        assert_eq!(dev.inner().reads(), before + 1, "bad checksum must refill");
    }

    #[test]
    fn write_back_absorbs_acks_and_serves_reads() {
        let dev = CachedDevice::new(MemDevice::new(8 * BLOCK), wb_config());
        let outcome = dev.write_at(0, &[5u8; BLOCK]).unwrap();
        assert_eq!(outcome.bytes, BLOCK as u64);
        assert_eq!(dev.inner().writes(), 0, "absorbed, not written through");
        // Read-your-write from the staged tier.
        assert_eq!(dev.read_at(0, BLOCK).unwrap(), vec![5u8; BLOCK]);
        assert_eq!(dev.status().unwrap().cache.unwrap().wb_buffered_blocks, 1);
        dev.flush().unwrap();
        assert!(dev.inner().writes() > 0);
        assert_eq!(dev.inner().read_at(0, BLOCK).unwrap(), vec![5u8; BLOCK]);
        assert_eq!(dev.status().unwrap().cache.unwrap().wb_buffered_blocks, 0);
        let snap = dev.metrics().unwrap();
        assert_eq!(snap.counter(metric_names::WB_ABSORBED), Some(1));
        assert_eq!(snap.counter(metric_names::WB_FLUSHED), Some(1));
    }

    #[test]
    fn write_back_coalesces_contiguous_blocks_into_one_op() {
        let dev = CachedDevice::new(MemDevice::new(8 * BLOCK), wb_config());
        for b in 0..4u64 {
            dev.write_at(b * BLOCK as u64, &[b as u8; BLOCK]).unwrap();
        }
        dev.flush().unwrap();
        let snap = dev.metrics().unwrap();
        assert_eq!(snap.counter(metric_names::WB_FLUSHED), Some(4));
        assert_eq!(
            snap.counter(metric_names::WB_COALESCED),
            Some(1),
            "4 contiguous blocks drain as one coalesced write"
        );
        for b in 0..4u64 {
            assert_eq!(
                dev.inner().read_at(b * BLOCK as u64, BLOCK).unwrap(),
                vec![b as u8; BLOCK]
            );
        }
    }

    #[test]
    fn write_back_rmw_preserves_partial_block_neighbours() {
        let inner = MemDevice::new(8 * BLOCK);
        inner.write_at(0, &[0xAA; BLOCK]).unwrap();
        let dev = CachedDevice::new(inner, wb_config());
        dev.write_at(4, &[0x55; 4]).unwrap();
        let mut expected = vec![0xAA; BLOCK];
        expected[4..8].copy_from_slice(&[0x55; 4]);
        assert_eq!(dev.read_at(0, BLOCK).unwrap(), expected);
        dev.flush().unwrap();
        assert_eq!(dev.inner().read_at(0, BLOCK).unwrap(), expected);
    }

    #[test]
    fn write_back_drains_on_pressure() {
        let dev = CachedDevice::new(MemDevice::new(32 * BLOCK), wb_config());
        // pressure = max(frames/2, 8) = 8 staged blocks.
        for b in 0..8u64 {
            dev.write_at(2 * b * BLOCK as u64, &[1u8; BLOCK]).unwrap();
        }
        assert!(dev.inner().writes() > 0, "pressure must force a drain");
        assert_eq!(dev.status().unwrap().cache.unwrap().wb_buffered_blocks, 0);
    }

    #[test]
    fn write_back_timer_drains_in_the_background() {
        let dev = CachedDevice::new(
            MemDevice::new(8 * BLOCK),
            CacheConfig {
                budget_bytes: (4 * BLOCK) as u64,
                write_back: true,
                interval_ms: 5,
            },
        );
        dev.write_at(0, &[3u8; BLOCK]).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while dev.inner().writes() == 0 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert!(dev.inner().writes() > 0, "timer drain never fired");
        assert_eq!(dev.inner().read_at(0, BLOCK).unwrap(), vec![3u8; BLOCK]);
    }

    #[test]
    fn conflicting_batches_forward_in_submission_order() {
        let dev = CachedDevice::new(MemDevice::new(8 * BLOCK), small_config());
        let mut batch = IoBatch::new();
        batch
            .write(0, vec![1u8; BLOCK])
            .read(0, BLOCK)
            .write(0, vec![2u8; BLOCK]);
        assert!(batch.has_conflicts());
        let result = dev.submit(&batch).unwrap();
        assert_eq!(result.results[1], OpResult::Read(vec![1u8; BLOCK]));
        assert_eq!(dev.read_at(0, BLOCK).unwrap(), vec![2u8; BLOCK]);
    }

    #[test]
    fn disjoint_batches_serve_read_hits_and_group_writes() {
        let dev = CachedDevice::new(MemDevice::new(8 * BLOCK), small_config());
        dev.read_at(0, BLOCK).unwrap(); // prime block 0
        let inner_reads = dev.inner().reads();
        let mut batch = IoBatch::new();
        batch.read(0, BLOCK).write(BLOCK as u64, vec![4u8; BLOCK]);
        let result = dev.submit(&batch).unwrap();
        assert_eq!(result.results[0], OpResult::Read(vec![0u8; BLOCK]));
        assert_eq!(result.write.bytes, BLOCK as u64);
        assert_eq!(
            dev.inner().reads(),
            inner_reads,
            "batch read hit stays local"
        );
        assert_eq!(
            dev.inner().read_at(BLOCK as u64, BLOCK).unwrap(),
            vec![4u8; BLOCK]
        );
    }

    #[test]
    fn forwarded_writes_borrow_and_staging_has_one_entry() {
        // Write-through: the inner device sees the caller's buffer, from
        // `write_at` and from a batch alike — no copy on the way down.
        let dev = CachedDevice::new(MemDevice::new(8 * BLOCK), small_config());
        let payload = vec![9u8; BLOCK];
        dev.write_at(0, &payload).unwrap();
        let seen = || dev.inner().last_payload.load(Ordering::SeqCst);
        assert_eq!(seen(), payload.as_ptr() as u64);
        let mut batch = IoBatch::new();
        batch.read(0, BLOCK).write(BLOCK as u64, vec![8u8; BLOCK]);
        dev.submit(&batch).unwrap();
        let IoOp::Write { data, .. } = &batch.ops()[1] else {
            unreachable!("op 1 is the write")
        };
        assert_eq!(seen(), data.as_ptr() as u64);

        // Write-back: `write_at` and a one-write `submit` are the same
        // list, so they stage, acknowledge and drain identically.
        let run = |by_submit: bool| {
            let dev = CachedDevice::new(MemDevice::new(8 * BLOCK), wb_config());
            let outcome = if by_submit {
                let mut batch = IoBatch::new();
                batch.write(3, vec![5u8; 2 * BLOCK]);
                dev.submit(&batch).unwrap().write
            } else {
                dev.write_at(3, &[5u8; 2 * BLOCK]).unwrap()
            };
            let staged_writes = dev.inner().writes();
            dev.flush().unwrap();
            let absorbed = dev.metrics().unwrap().counter(metric_names::WB_ABSORBED);
            (outcome, staged_writes, absorbed, dev.inner().writes())
        };
        assert_eq!(run(false), run(true));
        let (outcome, staged_writes, absorbed, drained_writes) = run(true);
        assert_eq!(outcome.bytes, 2 * BLOCK as u64);
        assert_eq!((staged_writes, absorbed, drained_writes), (0, Some(3), 1));
    }

    #[test]
    fn out_of_range_ops_keep_inner_error_shapes() {
        let dev = CachedDevice::new(MemDevice::new(4 * BLOCK), small_config());
        assert!(matches!(
            dev.read_at(3 * BLOCK as u64, 2 * BLOCK),
            Err(DeviceError::OutOfRange(_))
        ));
        let wb = CachedDevice::new(MemDevice::new(4 * BLOCK), wb_config());
        assert!(matches!(
            wb.write_at(3 * BLOCK as u64, &[0u8; 2 * BLOCK]),
            Err(DeviceError::OutOfRange(_))
        ));
    }

    #[test]
    fn drop_performs_a_final_drain() {
        let dev = CachedDevice::new(
            MemDevice::new(8 * BLOCK),
            CacheConfig {
                budget_bytes: (4 * BLOCK) as u64,
                write_back: true,
                interval_ms: 50,
            },
        );
        dev.write_at(0, &[6u8; BLOCK]).unwrap();
        let core = Arc::clone(&dev.core);
        drop(dev);
        assert_eq!(core.inner.read_at(0, BLOCK).unwrap(), vec![6u8; BLOCK]);
    }
}
