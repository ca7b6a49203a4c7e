//! [`BlockDevice`] / [`FaultAdmin`] implementations for the local
//! [`StripeStore`] — the `file:` backend of the unified device API.

use stair_device::{
    BlockDevice, DeviceError, DeviceStatus, FaultAdmin, OpRef, OpResult, RepairOutcome,
    ScrubOutcome,
};

use crate::{Error, RepairReport, ScrubReport, StripeStore};

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
        DeviceStatus::new("file", vec![StripeStore::status(self)])
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreOptions;

    /// A burst whose end overflows `usize` is out of range, not a
    /// panic (debug) or a silent no-op reported as done (release).
    #[test]
    fn overflowing_bursts_are_out_of_range() {
        let dir = std::env::temp_dir().join(format!("stair-burst-bounds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StripeStore::create(&dir, &StoreOptions::default()).unwrap();
        let admin: &dyn FaultAdmin = &store;
        for (row, len) in [(usize::MAX, 2), (1, usize::MAX), (4, 1)] {
            assert!(
                matches!(
                    admin.corrupt_sectors(0, 2, 0, row, len),
                    Err(DeviceError::OutOfRange(_))
                ),
                "rows {row}+{len}"
            );
        }
        admin.corrupt_sectors(0, 2, 0, 3, 1).unwrap();
        assert_eq!(store.scrub(1).unwrap().mismatches.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
