//! [`BlockDevice`] / [`FaultAdmin`] implementations for the sharded
//! and remote backends, plus the [`open_device`] registry that turns a
//! [`DeviceSpec`] into a live device — the storage-layer mirror of
//! `stair_store::build_codec()`.

use stair_device::{
    BlockDevice, DeviceError, DeviceSpec, DeviceStatus, FaultAdmin, OpRef, OpResult, RepairOutcome,
    ScrubOutcome, ShardHealth,
};
use stair_store::{shard_health, StoreStatus, StripeStore};

use crate::{Client, NetError, ShardSet, StripedClient};

/// Opens the backend a spec names as a data-path device.
///
/// `file:` and `shards:` targets must already exist on disk (`stair
/// store init` / `stair serve` create them); `tcp:` targets must have a
/// server listening.
///
/// # Errors
///
/// Unusable targets (missing store, shard-count mismatch, unreachable
/// server) surface as [`DeviceError`]s.
pub fn open_device(spec: &DeviceSpec) -> Result<Box<dyn BlockDevice>, DeviceError> {
    open_admin(spec).map(|dev| dev as Box<dyn BlockDevice>)
}

/// Opens the backend a spec names with fault administration attached —
/// what the CLI's `fail` verb and the conformance harness use. Every
/// built-in backend accepts admin operations; a future production
/// frontend can register one that refuses them.
///
/// # Errors
///
/// Same conditions as [`open_device`].
pub fn open_admin(spec: &DeviceSpec) -> Result<Box<dyn stair_device::AdminDevice>, DeviceError> {
    Ok(match spec {
        DeviceSpec::File { dir } => Box::new(StripeStore::open(dir)?),
        DeviceSpec::Shards { root, shards } => {
            let set = ShardSet::open(root)?;
            if let Some(n) = shards {
                if set.shard_count() != *n {
                    return Err(DeviceError::Spec(format!(
                        "{} holds {} shard(s) but the spec asked for n={n}",
                        root.display(),
                        set.shard_count()
                    )));
                }
            }
            Box::new(set)
        }
        DeviceSpec::Tcp { addr, lanes } => {
            if *lanes <= 1 {
                Box::new(Client::connect(addr)?)
            } else {
                Box::new(StripedClient::connect(addr, *lanes)?)
            }
        }
        DeviceSpec::Cache {
            inner,
            mb,
            wb,
            interval_ms,
        } => {
            let config = stair_cache::CacheConfig::from_spec(*mb, *wb, *interval_ms)?;
            Box::new(stair_cache::CachedDevice::new(open_admin(inner)?, config))
        }
    })
}

/// Builds the unified status, enforcing the `DeviceStatus` contract
/// that `shards` is never empty (a `ShardSet` guarantees it by
/// construction; a remote peer's STATUS response cannot be trusted to).
fn device_status(backend: &str, statuses: &[StoreStatus]) -> Result<DeviceStatus, DeviceError> {
    let shards: Vec<ShardHealth> = statuses.iter().map(shard_health).collect();
    let Some(first) = shards.first() else {
        return Err(DeviceError::Backend(format!(
            "{backend} backend reported no shards"
        )));
    };
    Ok(DeviceStatus {
        backend: backend.into(),
        capacity: shards.iter().map(|s| s.capacity).sum(),
        block_size: first.block_size,
        shards,
        cache: None,
    })
}

/// Stitches one sub-batch's results back into the global result slots:
/// `map[j]` names the global op and the byte offset sub-op `j` covers.
/// Read bytes are copied into place; write outcomes fold additively.
pub(crate) fn stitch(
    results: &mut [OpResult],
    map: &[(usize, usize)],
    sub: Vec<OpResult>,
) -> Result<(), NetError> {
    if sub.len() != map.len() {
        return Err(NetError::Protocol(format!(
            "batch produced {} results for {} sub-ops",
            sub.len(),
            map.len()
        )));
    }
    for (reply, &(op_idx, span_off)) in sub.into_iter().zip(map) {
        match (reply, &mut results[op_idx]) {
            (OpResult::Read(data), OpResult::Read(out)) => {
                let end = span_off + data.len();
                if end > out.len() {
                    return Err(NetError::Protocol(format!(
                        "batch read fragment [{span_off}, {end}) exceeds the op's {} bytes",
                        out.len()
                    )));
                }
                out[span_off..end].copy_from_slice(&data);
            }
            (OpResult::Write(w), OpResult::Write(total)) => total.absorb(&w),
            _ => {
                return Err(NetError::Protocol(
                    "batch sub-result kind does not match its op".into(),
                ))
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// shards: — the in-process sharded set
// ---------------------------------------------------------------------

impl BlockDevice for ShardSet {
    fn capacity(&self) -> u64 {
        ShardSet::capacity(self)
    }

    fn block_size(&self) -> usize {
        ShardSet::block_size(self)
    }

    fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, DeviceError> {
        Ok(ShardSet::submit_ops(self, ops)?)
    }

    fn flush(&self) -> Result<(), DeviceError> {
        Ok(ShardSet::flush(self)?)
    }

    fn status(&self) -> Result<DeviceStatus, DeviceError> {
        device_status("shards", &ShardSet::status(self))
    }

    fn scrub(&self, threads: usize) -> Result<ScrubOutcome, DeviceError> {
        Ok(ShardSet::scrub(self, threads)?)
    }

    fn repair(&self, threads: usize) -> Result<RepairOutcome, DeviceError> {
        Ok(ShardSet::repair(self, threads)?)
    }

    fn metrics(&self) -> Result<stair_obs::MetricsSnapshot, DeviceError> {
        Ok(ShardSet::metrics(self))
    }
}

impl FaultAdmin for ShardSet {
    fn fail_device(&self, shard: usize, device: usize) -> Result<(), DeviceError> {
        Ok(self.shard(shard)?.fail_device(device)?)
    }

    fn corrupt_sectors(
        &self,
        shard: usize,
        device: usize,
        stripe: usize,
        row: usize,
        len: usize,
    ) -> Result<(), DeviceError> {
        Ok(self
            .shard(shard)?
            .corrupt_sectors(device, stripe, row, len)?)
    }
}

// ---------------------------------------------------------------------
// tcp: — the remote clients
// ---------------------------------------------------------------------

impl BlockDevice for Client {
    fn capacity(&self) -> u64 {
        Client::capacity(self)
    }

    fn block_size(&self) -> usize {
        Client::block_size(self)
    }

    fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, DeviceError> {
        Ok(Client::submit_ops(self, ops)?)
    }

    fn flush(&self) -> Result<(), DeviceError> {
        Ok(Client::flush(self)?)
    }

    fn status(&self) -> Result<DeviceStatus, DeviceError> {
        device_status("tcp", &Client::status(self)?)
    }

    fn scrub(&self, threads: usize) -> Result<ScrubOutcome, DeviceError> {
        Ok(Client::scrub(self, threads)?)
    }

    fn repair(&self, threads: usize) -> Result<RepairOutcome, DeviceError> {
        Ok(Client::repair(self, threads)?)
    }

    fn metrics(&self) -> Result<stair_obs::MetricsSnapshot, DeviceError> {
        Ok(Client::metrics(self)?)
    }
}

impl FaultAdmin for Client {
    fn fail_device(&self, shard: usize, device: usize) -> Result<(), DeviceError> {
        Ok(Client::fail_device(self, shard, device)?)
    }

    fn corrupt_sectors(
        &self,
        shard: usize,
        device: usize,
        stripe: usize,
        row: usize,
        len: usize,
    ) -> Result<(), DeviceError> {
        Ok(Client::corrupt_sectors(
            self, shard, device, stripe, row, len,
        )?)
    }
}

impl BlockDevice for StripedClient {
    fn capacity(&self) -> u64 {
        self.info().capacity
    }

    fn block_size(&self) -> usize {
        self.info().block_size as usize
    }

    fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, DeviceError> {
        Ok(StripedClient::submit_ops(self, ops)?)
    }

    fn flush(&self) -> Result<(), DeviceError> {
        Ok(self.lane0().flush()?)
    }

    fn status(&self) -> Result<DeviceStatus, DeviceError> {
        device_status("tcp", &self.lane0().status()?)
    }

    fn scrub(&self, threads: usize) -> Result<ScrubOutcome, DeviceError> {
        Ok(self.lane0().scrub(threads)?)
    }

    fn repair(&self, threads: usize) -> Result<RepairOutcome, DeviceError> {
        Ok(self.lane0().repair(threads)?)
    }

    fn metrics(&self) -> Result<stair_obs::MetricsSnapshot, DeviceError> {
        Ok(StripedClient::metrics(self)?)
    }
}

impl FaultAdmin for StripedClient {
    fn fail_device(&self, shard: usize, device: usize) -> Result<(), DeviceError> {
        Ok(self.lane0().fail_device(shard, device)?)
    }

    fn corrupt_sectors(
        &self,
        shard: usize,
        device: usize,
        stripe: usize,
        row: usize,
        len: usize,
    ) -> Result<(), DeviceError> {
        Ok(self
            .lane0()
            .corrupt_sectors(shard, device, stripe, row, len)?)
    }
}
