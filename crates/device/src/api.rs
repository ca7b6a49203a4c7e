//! The object-safe storage traits.

use stair_obs::MetricsSnapshot;

use crate::{
    BatchResult, DeviceError, DeviceStatus, IoBatch, OpRef, OpResult, RepairOutcome, ScrubOutcome,
    WriteOutcome,
};

/// The unified data-path API over any storage backend — a local stripe
/// store, an in-process shard set, or a remote TCP client.
///
/// An implementor — backend or layer — writes **one** data-path method,
/// [`submit_ops`](BlockDevice::submit_ops); `read_at`, `write_at` and
/// `submit` are provided here, once, as lists of one op, one op and a
/// batch's views. A layer that wraps `submit_ops` therefore wraps every
/// read and write there is.
///
/// (`submit_ops` carries a fallback body — the list run one op at a
/// time through `read_at`/`write_at` — only so that a device written
/// against the older shape of this trait, defining those two instead,
/// still compiles; `benchmark/tests/selfcheck.rs` holds the one such
/// device. A device that defines neither side recurses; inside the
/// workspace the `wire-constants` lint requires `submit_ops` of every
/// impl and forbids the other three.)
///
/// Every method takes `&self`: backends with inherently mutable state
/// (e.g. a network connection) hide it behind interior mutability, so
/// any implementation works behind `Arc<dyn BlockDevice>` from many
/// threads at once. The trait is object-safe by construction; the
/// `open_device()` registry in `stair-net` hands out
/// `Box<dyn BlockDevice>` from a [`DeviceSpec`](crate::DeviceSpec).
pub trait BlockDevice: Send + Sync {
    /// Total logical capacity in bytes.
    fn capacity(&self) -> u64;

    /// Logical block size in bytes.
    fn block_size(&self) -> usize;

    /// The data path: executes `ops`, returning one result per op in
    /// submission order. Degraded backends reconstruct transparently;
    /// returned bytes are always verified (checksums locally, frame
    /// checksums over the wire).
    ///
    /// Backends amortize work across the list: a stripe store takes
    /// each stripe lock once with one re-encode-vs-parity-delta
    /// decision per touched stripe, a shard set splits by placement and
    /// runs shards in parallel, a remote client ships the whole list in
    /// one request frame per shard. Overlap semantics and failure
    /// behavior are specified on [`IoBatch`].
    ///
    /// # Errors
    ///
    /// Out-of-range spans (before any side effect), damage beyond
    /// coverage, and backend failures. The first failing op aborts the
    /// rest; writes that already executed stay applied.
    fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, DeviceError> {
        ops.iter()
            .map(|op| match *op {
                OpRef::Read { offset, len } => self.read_at(offset, len).map(OpResult::Read),
                OpRef::Write { offset, data } => self.write_at(offset, data).map(OpResult::Write),
            })
            .collect()
    }

    /// Reads `len` bytes at byte `offset` — a one-read
    /// [`submit_ops`](BlockDevice::submit_ops).
    ///
    /// # Errors
    ///
    /// As [`submit_ops`](BlockDevice::submit_ops).
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, DeviceError> {
        match self.submit_ops(&[OpRef::Read { offset, len }])?.pop() {
            Some(OpResult::Read(data)) => Ok(data),
            _ => Err(DeviceError::Backend(
                "a one-read submission did not produce a read result".into(),
            )),
        }
    }

    /// Writes `data` at byte `offset` — a one-write
    /// [`submit_ops`](BlockDevice::submit_ops) over the caller's buffer
    /// (no copy) — returning the aggregated [`WriteOutcome`].
    ///
    /// # Errors
    ///
    /// As [`submit_ops`](BlockDevice::submit_ops).
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<WriteOutcome, DeviceError> {
        let results = self.submit_ops(&[OpRef::Write { offset, data }])?;
        Ok(BatchResult::from_results(results).write)
    }

    /// Submits a scatter-gather batch —
    /// [`submit_ops`](BlockDevice::submit_ops) over views of its ops —
    /// returning per-op results in submission order plus the aggregated
    /// write outcome.
    ///
    /// # Errors
    ///
    /// As [`submit_ops`](BlockDevice::submit_ops).
    fn submit(&self, batch: &IoBatch) -> Result<BatchResult, DeviceError> {
        let results = self.submit_ops(&OpRef::views(batch.ops()))?;
        Ok(BatchResult::from_results(results))
    }

    /// Persists all state (data, checksums, health records).
    ///
    /// # Errors
    ///
    /// Backend failures.
    fn flush(&self) -> Result<(), DeviceError>;

    /// Health snapshot of every shard behind this device.
    ///
    /// # Errors
    ///
    /// Backend failures (a remote status call can fail; local ones do
    /// not).
    fn status(&self) -> Result<DeviceStatus, DeviceError>;

    /// Verifies every sector checksum with `threads` workers per shard.
    ///
    /// # Errors
    ///
    /// Backend failures (mismatches are reported in the outcome, not as
    /// errors).
    fn scrub(&self, threads: usize) -> Result<ScrubOutcome, DeviceError>;

    /// Rebuilds failed devices and damaged sectors online with
    /// `threads` workers per shard.
    ///
    /// # Errors
    ///
    /// Backend failures (unrecoverable stripes are reported in the
    /// outcome, not as errors).
    fn repair(&self, threads: usize) -> Result<RepairOutcome, DeviceError>;

    /// A metrics snapshot for this backend: operation counters, latency
    /// histograms, progress gauges, and captured slow ops.
    ///
    /// The default returns an empty snapshot, so implementors without
    /// native instrumentation stay source-compatible. Backends with
    /// their own registries override it (a stripe store folds in its
    /// `IoStats` and the GF kernel counters; a remote client pulls the
    /// server's registry over the wire); the
    /// [`Instrumented`](crate::Instrumented) wrapper adds per-op
    /// latency/byte accounting in front of any of them.
    ///
    /// # Errors
    ///
    /// Backend failures (a remote snapshot call can fail; local ones do
    /// not).
    fn metrics(&self) -> Result<MetricsSnapshot, DeviceError> {
        Ok(MetricsSnapshot::default())
    }
}

/// Forwarding impl so a boxed device — `Box<dyn BlockDevice>`,
/// `Box<dyn AdminDevice>` or a boxed concrete one — is itself a device:
/// what lets wrappers like [`Instrumented`](crate::Instrumented) or a
/// cache tier sit in front of whatever `open_device()`/`open_admin()`
/// returned. `metrics` forwards too, so a backend's native snapshot is
/// never shadowed by the trait default.
impl<T: BlockDevice + ?Sized> BlockDevice for Box<T> {
    fn capacity(&self) -> u64 {
        (**self).capacity()
    }

    fn block_size(&self) -> usize {
        (**self).block_size()
    }

    fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, DeviceError> {
        (**self).submit_ops(ops)
    }

    fn flush(&self) -> Result<(), DeviceError> {
        (**self).flush()
    }

    fn status(&self) -> Result<DeviceStatus, DeviceError> {
        (**self).status()
    }

    fn scrub(&self, threads: usize) -> Result<ScrubOutcome, DeviceError> {
        (**self).scrub(threads)
    }

    fn repair(&self, threads: usize) -> Result<RepairOutcome, DeviceError> {
        (**self).repair(threads)
    }

    fn metrics(&self) -> Result<MetricsSnapshot, DeviceError> {
        (**self).metrics()
    }
}

/// Fault administration, split from [`BlockDevice`] because not every
/// deployment exposes it — a production remote endpoint may refuse
/// these with [`DeviceError::Unsupported`] while still serving the full
/// data path.
pub trait FaultAdmin {
    /// Declares `device` of `shard` failed (whole backing file lost).
    /// Single-store backends only have `shard` 0.
    ///
    /// # Errors
    ///
    /// Unknown shard/device indices, unsupported backends.
    fn fail_device(&self, shard: usize, device: usize) -> Result<(), DeviceError>;

    /// Corrupts `len` consecutive sectors of one chunk (latent damage:
    /// detected only by a later read or scrub).
    ///
    /// # Errors
    ///
    /// Unknown indices, unsupported backends.
    fn corrupt_sectors(
        &self,
        shard: usize,
        device: usize,
        stripe: usize,
        row: usize,
        len: usize,
    ) -> Result<(), DeviceError>;
}

/// Forwarding impl paired with the `BlockDevice` one above, so the
/// blanket [`AdminDevice`] impl covers `Box<dyn AdminDevice>` too.
impl<T: FaultAdmin + ?Sized> FaultAdmin for Box<T> {
    fn fail_device(&self, shard: usize, device: usize) -> Result<(), DeviceError> {
        (**self).fail_device(shard, device)
    }

    fn corrupt_sectors(
        &self,
        shard: usize,
        device: usize,
        stripe: usize,
        row: usize,
        len: usize,
    ) -> Result<(), DeviceError> {
        (**self).corrupt_sectors(shard, device, stripe, row, len)
    }
}

/// A device that also accepts fault administration — what the CLI's
/// `fail` verb and the conformance harness open.
pub trait AdminDevice: BlockDevice + FaultAdmin {}

impl<T: BlockDevice + FaultAdmin> AdminDevice for T {}
