//! [`BlockDevice`] / [`FaultAdmin`] implementations for the local
//! [`StripeStore`] — the `file:` backend of the unified device API.

use stair_device::{
    BlockDevice, DeviceError, DeviceStatus, FaultAdmin, OpRef, OpResult, RepairOutcome,
    ScrubOutcome, ShardHealth,
};

use crate::{Error, RepairReport, ScrubReport, StoreStatus, StripeStore};

impl From<Error> for DeviceError {
    fn from(e: Error) -> Self {
        match e {
            Error::Io(io) => DeviceError::Io(io),
            Error::OutOfRange(msg) => DeviceError::OutOfRange(msg),
            e @ Error::Unrecoverable { .. } => DeviceError::Corrupt(e.to_string()),
            e => DeviceError::Backend(e.to_string()),
        }
    }
}

/// Converts one store's status into the unified per-shard health form
/// (tolerances come from the codec spec, so the remote client derives
/// the identical record from its wire status).
pub fn shard_health(status: &StoreStatus) -> ShardHealth {
    ShardHealth {
        codec: status.codec.to_string(),
        capacity: status.capacity,
        block_size: status.block_size,
        stripes: status.stripes,
        blocks_per_stripe: status.blocks_per_stripe,
        device_tolerance: status.codec.m(),
        sector_tolerance: status.codec.s(),
        failed_devices: status.failed_devices.clone(),
        rebuilding_devices: status.rebuilding_devices.clone(),
        known_bad_sectors: status.known_bad_sectors,
        clean_shutdown: status.clean_shutdown,
        replayed_records: status.replayed_records,
    }
}

/// Converts a store scrub report into the unified outcome.
pub fn scrub_outcome(report: &ScrubReport) -> ScrubOutcome {
    ScrubOutcome {
        stripes_scanned: report.stripes_scanned as u64,
        sectors_verified: report.sectors_verified as u64,
        mismatches: report.mismatches.len() as u64,
        unavailable_devices: report.unavailable_devices.len() as u64,
        records_cleared: report.records_cleared as u64,
    }
}

/// Converts a store repair report into the unified outcome.
pub fn repair_outcome(report: &RepairReport) -> RepairOutcome {
    RepairOutcome {
        devices_replaced: report.devices_replaced.len() as u64,
        stripes_repaired: report.stripes_repaired as u64,
        sectors_rewritten: report.sectors_rewritten as u64,
        unrecoverable_stripes: report.unrecoverable_stripes.len() as u64,
    }
}

/// Snapshots the process-global `stair-gf` field-arithmetic counters as
/// `gf.*` metrics.
///
/// The gf counters are process-wide (every codec instance shares them),
/// so they must be folded into a metrics snapshot exactly **once** by
/// the top-level caller — never per store, or a sharded aggregate would
/// multiply them by the shard count. [`StripeStore::store_metrics`]
/// deliberately excludes them for this reason.
pub fn gf_metrics() -> stair_obs::MetricsSnapshot {
    let mut snap = stair_obs::MetricsSnapshot::default();
    snap.add_counter("gf.mult_xors", stair_gf::counters::mult_xors());
    snap.add_counter("gf.region_bytes", stair_gf::counters::region_bytes());
    snap
}

impl BlockDevice for StripeStore {
    fn capacity(&self) -> u64 {
        StripeStore::capacity(self)
    }

    fn block_size(&self) -> usize {
        StripeStore::block_size(self)
    }

    fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, DeviceError> {
        Ok(StripeStore::submit_ops(self, ops)?)
    }

    fn flush(&self) -> Result<(), DeviceError> {
        Ok(StripeStore::flush(self)?)
    }

    fn status(&self) -> Result<DeviceStatus, DeviceError> {
        let status = StripeStore::status(self);
        Ok(DeviceStatus {
            backend: "file".into(),
            capacity: status.capacity,
            block_size: status.block_size,
            shards: vec![shard_health(&status)],
            cache: None,
        })
    }

    fn scrub(&self, threads: usize) -> Result<ScrubOutcome, DeviceError> {
        Ok(scrub_outcome(&StripeStore::scrub(self, threads)?))
    }

    fn repair(&self, threads: usize) -> Result<RepairOutcome, DeviceError> {
        Ok(repair_outcome(&StripeStore::repair(self, threads)?))
    }

    fn metrics(&self) -> Result<stair_obs::MetricsSnapshot, DeviceError> {
        let mut snap = self.store_metrics();
        snap.merge(&gf_metrics());
        Ok(snap)
    }
}

impl FaultAdmin for StripeStore {
    fn fail_device(&self, shard: usize, device: usize) -> Result<(), DeviceError> {
        only_shard_zero(shard)?;
        Ok(StripeStore::fail_device(self, device)?)
    }

    fn corrupt_sectors(
        &self,
        shard: usize,
        device: usize,
        stripe: usize,
        row: usize,
        len: usize,
    ) -> Result<(), DeviceError> {
        only_shard_zero(shard)?;
        Ok(StripeStore::corrupt_sectors(
            self, device, stripe, row, len,
        )?)
    }
}

fn only_shard_zero(shard: usize) -> Result<(), DeviceError> {
    if shard != 0 {
        return Err(DeviceError::OutOfRange(format!(
            "a single stripe store has only shard 0 (asked for {shard})"
        )));
    }
    Ok(())
}
