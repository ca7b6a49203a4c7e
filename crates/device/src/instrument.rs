//! [`Instrumented`]: per-op metrics for any [`BlockDevice`].

use std::time::Instant;

use stair_obs::trace::{self, names};
use stair_obs::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};

use crate::{
    BlockDevice, DeviceError, DeviceStatus, FaultAdmin, OpRef, OpResult, RepairOutcome,
    ScrubOutcome,
};

/// Handles for one op kind, registered once at construction so the hot
/// path never touches the registry lock.
struct OpMeter {
    ops: Counter,
    errors: Counter,
    lat_us: Histogram,
}

impl OpMeter {
    fn new(registry: &MetricsRegistry, kind: &str) -> Self {
        OpMeter {
            ops: registry.counter(&format!("dev.ops.{kind}")),
            errors: registry.counter(&format!("dev.errors.{kind}")),
            lat_us: registry.histogram(&format!("dev.lat_us.{kind}")),
        }
    }
}

/// Wraps any [`BlockDevice`] and records per-op and per-batch metrics
/// into its own [`MetricsRegistry`]: counters (`dev.ops.<kind>`,
/// `dev.errors.<kind>`, `dev.bytes.read`, `dev.bytes.written`), log₂
/// latency histograms (`dev.lat_us.<kind>`), and journal events with
/// slow-op capture. `<kind>` is one of `read`, `write`, `batch`,
/// `flush`, `scrub`, `repair`.
///
/// [`metrics`](BlockDevice::metrics) returns the wrapper's registry
/// merged with whatever the inner backend reports, so one call yields
/// the whole stack's view.
pub struct Instrumented<D: BlockDevice> {
    inner: D,
    registry: MetricsRegistry,
    read: OpMeter,
    write: OpMeter,
    batch: OpMeter,
    flush: OpMeter,
    scrub: OpMeter,
    repair: OpMeter,
    bytes_read: Counter,
    bytes_written: Counter,
}

impl<D: BlockDevice> Instrumented<D> {
    /// Wraps `inner` with a fresh registry.
    pub fn new(inner: D) -> Self {
        let registry = MetricsRegistry::new();
        Instrumented {
            read: OpMeter::new(&registry, "read"),
            write: OpMeter::new(&registry, "write"),
            batch: OpMeter::new(&registry, "batch"),
            flush: OpMeter::new(&registry, "flush"),
            scrub: OpMeter::new(&registry, "scrub"),
            repair: OpMeter::new(&registry, "repair"),
            bytes_read: registry.counter("dev.bytes.read"),
            bytes_written: registry.counter("dev.bytes.written"),
            inner,
            registry,
        }
    }

    /// Times `f`, charging one op (and on failure one error) to
    /// `meter` and a journal event of `kind` moving `bytes`.
    /// `span_name` opens a trace span over the op — a child of the
    /// caller's span, or a fresh root when tracing is enabled and this
    /// wrapper is the outermost traced layer.
    fn observe<T>(
        &self,
        meter: &OpMeter,
        kind: &str,
        span_name: &'static str,
        bytes: u64,
        f: impl FnOnce() -> Result<T, DeviceError>,
    ) -> Result<T, DeviceError> {
        let mut span = trace::span_or_root(span_name);
        let t0 = Instant::now();
        let result = f();
        let elapsed = t0.elapsed();
        span.set_bytes(bytes);
        if result.is_err() {
            span.fail();
        }
        meter.ops.inc();
        meter.lat_us.record(elapsed.as_micros() as u64);
        if result.is_err() {
            meter.errors.inc();
        }
        self.registry
            .record_op(kind, 0, bytes, elapsed, result.is_ok());
        result
    }
}

impl<D: BlockDevice> BlockDevice for Instrumented<D> {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, DeviceError> {
        // The label is a function of the op list, not of the provided
        // method that built it: a lone read or write meters as one.
        let (meter, kind, span_name) = match ops {
            [OpRef::Read { .. }] => (&self.read, "read", names::DEV_READ),
            [OpRef::Write { .. }] => (&self.write, "write", names::DEV_WRITE),
            _ => (&self.batch, "batch", names::DEV_BATCH),
        };
        let (mut read_bytes, mut write_bytes) = (0u64, 0u64);
        for op in ops {
            match op {
                OpRef::Read { len, .. } => read_bytes += *len as u64,
                OpRef::Write { data, .. } => write_bytes += data.len() as u64,
            }
        }
        let result = self.observe(meter, kind, span_name, read_bytes + write_bytes, || {
            self.inner.submit_ops(ops)
        });
        if result.is_ok() {
            self.bytes_read.add(read_bytes);
            self.bytes_written.add(write_bytes);
        }
        result
    }

    fn flush(&self) -> Result<(), DeviceError> {
        self.observe(&self.flush, "flush", names::DEV_FLUSH, 0, || {
            self.inner.flush()
        })
    }

    fn status(&self) -> Result<DeviceStatus, DeviceError> {
        self.inner.status()
    }

    fn scrub(&self, threads: usize) -> Result<ScrubOutcome, DeviceError> {
        self.observe(&self.scrub, "scrub", names::DEV_SCRUB, 0, || {
            self.inner.scrub(threads)
        })
    }

    fn repair(&self, threads: usize) -> Result<RepairOutcome, DeviceError> {
        self.observe(&self.repair, "repair", names::DEV_REPAIR, 0, || {
            self.inner.repair(threads)
        })
    }

    fn metrics(&self) -> Result<MetricsSnapshot, DeviceError> {
        let mut snap = self.registry.snapshot();
        snap.merge(&self.inner.metrics()?);
        Ok(snap)
    }
}

/// Fault administration passes straight through (fault injection is not
/// a data-path op; it stays uncounted).
impl<D: BlockDevice + FaultAdmin> FaultAdmin for Instrumented<D> {
    fn fail_device(&self, shard: usize, device: usize) -> Result<(), DeviceError> {
        self.inner.fail_device(shard, device)
    }

    fn corrupt_sectors(
        &self,
        shard: usize,
        device: usize,
        stripe: usize,
        row: usize,
        len: usize,
    ) -> Result<(), DeviceError> {
        self.inner.corrupt_sectors(shard, device, stripe, row, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IoBatch, WriteOutcome};

    /// A tiny in-memory device for exercising the wrapper.
    struct MemDevice {
        data: std::sync::Mutex<Vec<u8>>,
    }

    impl MemDevice {
        fn new(len: usize) -> Self {
            MemDevice {
                data: std::sync::Mutex::new(vec![0; len]),
            }
        }
    }

    impl BlockDevice for MemDevice {
        fn capacity(&self) -> u64 {
            self.data.lock().unwrap().len() as u64
        }

        fn block_size(&self) -> usize {
            16
        }

        fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, DeviceError> {
            let mut bytes = self.data.lock().unwrap();
            let span = |op: &OpRef<'_>| {
                let start = op.offset() as usize;
                match start.checked_add(op.byte_len()) {
                    Some(end) if end <= bytes.len() => Ok(start..end),
                    _ => Err(DeviceError::OutOfRange("op past end".into())),
                }
            };
            let spans = ops.iter().map(span).collect::<Result<Vec<_>, _>>()?;
            Ok(ops
                .iter()
                .zip(spans)
                .map(|(op, span)| match op {
                    OpRef::Read { .. } => OpResult::Read(bytes[span].to_vec()),
                    OpRef::Write { data, .. } => {
                        bytes[span].copy_from_slice(data);
                        OpResult::Write(WriteOutcome {
                            bytes: data.len() as u64,
                            ..WriteOutcome::default()
                        })
                    }
                })
                .collect())
        }

        fn flush(&self) -> Result<(), DeviceError> {
            Ok(())
        }

        fn status(&self) -> Result<DeviceStatus, DeviceError> {
            Ok(DeviceStatus {
                backend: "mem".into(),
                capacity: self.capacity(),
                block_size: 16,
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

    #[test]
    fn counts_ops_bytes_and_latency_per_kind() {
        let dev = Instrumented::new(MemDevice::new(256));
        dev.write_at(0, &[7u8; 64]).unwrap();
        dev.read_at(0, 32).unwrap();
        dev.read_at(32, 32).unwrap();
        dev.flush().unwrap();
        assert!(dev.read_at(250, 100).is_err());

        let snap = dev.metrics().unwrap();
        assert_eq!(snap.counter("dev.ops.read"), Some(3));
        assert_eq!(snap.counter("dev.ops.write"), Some(1));
        assert_eq!(snap.counter("dev.ops.flush"), Some(1));
        assert_eq!(snap.counter("dev.errors.read"), Some(1));
        assert_eq!(snap.counter("dev.bytes.read"), Some(64));
        assert_eq!(snap.counter("dev.bytes.written"), Some(64));
        let lat = snap.histogram("dev.lat_us.read").unwrap();
        assert_eq!(lat.count(), 3);
        assert!(lat.p50() <= lat.p99());
    }

    #[test]
    fn batches_count_once_with_combined_bytes() {
        let dev = Instrumented::new(MemDevice::new(256));
        let mut batch = IoBatch::new();
        batch.write(0, vec![1u8; 48]).read(0, 16);
        let result = dev.submit(&batch).unwrap();
        assert_eq!(result.results.len(), 2);

        let snap = dev.metrics().unwrap();
        assert_eq!(snap.counter("dev.ops.batch"), Some(1));
        assert_eq!(snap.counter("dev.bytes.written"), Some(48));
        assert_eq!(snap.counter("dev.bytes.read"), Some(16));
        assert_eq!(snap.histogram("dev.lat_us.batch").unwrap().count(), 1);
    }

    #[test]
    fn slow_op_capture_retains_context() {
        let dev = Instrumented::new(MemDevice::new(64));
        dev.registry.journal().set_slow_threshold_us(0);
        dev.write_at(0, &[9u8; 10]).unwrap();
        let snap = dev.metrics().unwrap();
        assert!(!snap.slow_ops.is_empty());
        let op = &snap.slow_ops[0];
        assert_eq!(op.kind, "write");
        assert_eq!(op.bytes, 10);
        assert!(op.ok);
    }

    #[test]
    fn boxed_devices_are_wrappable() {
        let boxed: Box<dyn BlockDevice> = Box::new(MemDevice::new(128));
        let dev = Instrumented::new(boxed);
        dev.read_at(0, 8).unwrap();
        assert_eq!(dev.capacity(), 128);
        assert_eq!(dev.metrics().unwrap().counter("dev.ops.read"), Some(1));
    }
}
