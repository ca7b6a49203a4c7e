//! [`BlockDevice`] / [`FaultAdmin`] implementations for the sharded
//! and remote backends, plus the [`open_device`] registry that turns a
//! [`DeviceSpec`] into a live device — the storage-layer mirror of
//! `stair_store::build_codec()`.
//!
//! Every admin operation (status, flush, scrub, repair, metrics, fault
//! injection) of `ShardSet`, `Client` and `StripedClient` is written
//! here, once, as its trait method; none of the three has an inherent
//! copy to drift from it. The server answers each admin request by
//! calling the same method on its `ShardSet`.

use stair_device::{
    BlockDevice, DeviceError, DeviceSpec, DeviceStatus, FaultAdmin, OpRef, OpResult, RepairOutcome,
    ScrubOutcome, WriteOutcome,
};
use stair_obs::MetricsSnapshot;
use stair_store::{gf_metrics, repair_outcome, scrub_outcome, StripeStore};

use crate::protocol::{Request, Response};
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

/// The result slots [`stitch`] fills for `ops`: reads with no bytes yet
/// (a whole reply is moved in, fragments are assembled), write outcomes
/// at zero. Unlike [`OpRef::seed`], no read buffer is allocated up front.
pub(crate) fn slots(ops: &[OpRef<'_>]) -> Vec<OpResult> {
    ops.iter()
        .map(|op| match op {
            OpRef::Read { .. } => OpResult::Read(Vec::new()),
            OpRef::Write { .. } => OpResult::Write(WriteOutcome::default()),
        })
        .collect()
}

/// Stitches one sub-batch's results back into the global result slots
/// of `ops`: `map[j]` names the global op and the byte offset sub-op `j`
/// covers. A read reply that covers its op's whole span is moved into
/// the slot; only an op cut into fragments gets a buffer of its own,
/// assembled from them. Write outcomes fold additively.
pub(crate) fn stitch(
    ops: &[OpRef<'_>],
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
        let whole = ops[op_idx].byte_len();
        match (reply, &mut results[op_idx]) {
            (OpResult::Read(data), OpResult::Read(out)) => {
                let end = span_off + data.len();
                if end > whole {
                    return Err(NetError::Protocol(format!(
                        "batch read fragment [{span_off}, {end}) exceeds the op's {whole} bytes"
                    )));
                }
                if data.len() == whole {
                    *out = data;
                } else {
                    out.resize(whole, 0);
                    out[span_off..end].copy_from_slice(&data);
                }
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
        self.placement().capacity()
    }

    fn block_size(&self) -> usize {
        self.placement().block_size()
    }

    fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, DeviceError> {
        Ok(ShardSet::submit_ops(self, ops)?)
    }

    fn flush(&self) -> Result<(), DeviceError> {
        for store in &self.stores {
            store.flush()?;
        }
        Ok(())
    }

    fn status(&self) -> Result<DeviceStatus, DeviceError> {
        DeviceStatus::new(
            "shards",
            self.stores.iter().map(StripeStore::status).collect(),
        )
    }

    /// Scrubs the shards one after another, `threads` workers each.
    fn scrub(&self, threads: usize) -> Result<ScrubOutcome, DeviceError> {
        let mut total = ScrubOutcome::default();
        for store in &self.stores {
            total.absorb(&scrub_outcome(&store.scrub(threads)?));
        }
        Ok(total)
    }

    /// Repairs the shards one after another, `threads` workers each.
    fn repair(&self, threads: usize) -> Result<RepairOutcome, DeviceError> {
        let mut total = RepairOutcome::default();
        for store in &self.stores {
            total.absorb(&repair_outcome(&store.repair(threads)?));
        }
        Ok(total)
    }

    /// The shards' `store.*` counters summed, plus the process-global
    /// `gf.*` counters folded in once (every codec instance shares them,
    /// so merging them per shard would multiply them).
    fn metrics(&self) -> Result<MetricsSnapshot, DeviceError> {
        let mut snap = MetricsSnapshot::default();
        for store in &self.stores {
            snap.merge(&store.store_metrics());
        }
        snap.merge(&gf_metrics());
        Ok(snap)
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
        self.info().capacity
    }

    fn block_size(&self) -> usize {
        self.info().block_size as usize
    }

    fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, DeviceError> {
        Ok(Client::submit_ops(self, ops)?)
    }

    fn flush(&self) -> Result<(), DeviceError> {
        Ok(self.call(true, &Request::Flush, |resp| match resp {
            Response::Flushed => Ok(()),
            other => Err(other),
        })?)
    }

    fn status(&self) -> Result<DeviceStatus, DeviceError> {
        let shards = self.call(true, &Request::Status, |resp| match resp {
            Response::Status(shards) => Ok(shards),
            other => Err(other),
        })?;
        DeviceStatus::new("tcp", shards)
    }

    fn scrub(&self, threads: usize) -> Result<ScrubOutcome, DeviceError> {
        let req = Request::Scrub {
            threads: threads.try_into().unwrap_or(u32::MAX),
        };
        Ok(self.call(true, &req, |resp| match resp {
            Response::Scrubbed(outcome) => Ok(outcome),
            other => Err(other),
        })?)
    }

    fn repair(&self, threads: usize) -> Result<RepairOutcome, DeviceError> {
        let req = Request::Repair {
            threads: threads.try_into().unwrap_or(u32::MAX),
        };
        Ok(self.call(true, &req, |resp| match resp {
            Response::Repaired(outcome) => Ok(outcome),
            other => Err(other),
        })?)
    }

    /// The server's snapshot: per-opcode request counters and latency
    /// histograms, connection gauges, and the
    /// `store.*`/`gf.*` counters of its shard set.
    fn metrics(&self) -> Result<MetricsSnapshot, DeviceError> {
        Ok(self.call(true, &Request::Metrics, |resp| match resp {
            Response::Metrics(snap) => Ok(snap),
            other => Err(other),
        })?)
    }
}

/// Fault injection never retries: re-sending after a lost answer could
/// apply it twice.
impl FaultAdmin for Client {
    fn fail_device(&self, shard: usize, device: usize) -> Result<(), DeviceError> {
        let req = Request::FailDevice {
            shard: wire_index(shard)?,
            device: wire_index(device)?,
        };
        Ok(self.call(false, &req, |resp| match resp {
            Response::Failed => Ok(()),
            other => Err(other),
        })?)
    }

    fn corrupt_sectors(
        &self,
        shard: usize,
        device: usize,
        stripe: usize,
        row: usize,
        len: usize,
    ) -> Result<(), DeviceError> {
        let req = Request::CorruptSectors {
            shard: wire_index(shard)?,
            device: wire_index(device)?,
            stripe: wire_index(stripe)?,
            row: wire_index(row)?,
            len: wire_index(len)?,
        };
        Ok(self.call(false, &req, |resp| match resp {
            Response::Failed => Ok(()),
            other => Err(other),
        })?)
    }
}

/// An admin index as the wire's `u32`. One that does not fit names
/// nothing on the server, so it is refused here rather than truncated
/// into an index that does.
fn wire_index(i: usize) -> Result<u32, DeviceError> {
    u32::try_from(i)
        .map_err(|_| DeviceError::OutOfRange(format!("index {i} exceeds the wire's u32")))
}

/// Admin calls go down lane 0: what they act on is server-side and
/// connection-independent.
impl BlockDevice for StripedClient {
    fn capacity(&self) -> u64 {
        self.lane0().capacity()
    }

    fn block_size(&self) -> usize {
        self.lane0().block_size()
    }

    fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, DeviceError> {
        Ok(StripedClient::submit_ops(self, ops)?)
    }

    fn flush(&self) -> Result<(), DeviceError> {
        self.lane0().flush()
    }

    fn status(&self) -> Result<DeviceStatus, DeviceError> {
        self.lane0().status()
    }

    fn scrub(&self, threads: usize) -> Result<ScrubOutcome, DeviceError> {
        self.lane0().scrub(threads)
    }

    fn repair(&self, threads: usize) -> Result<RepairOutcome, DeviceError> {
        self.lane0().repair(threads)
    }

    fn metrics(&self) -> Result<MetricsSnapshot, DeviceError> {
        self.lane0().metrics()
    }
}

impl FaultAdmin for StripedClient {
    fn fail_device(&self, shard: usize, device: usize) -> Result<(), DeviceError> {
        self.lane0().fail_device(shard, device)
    }

    fn corrupt_sectors(
        &self,
        shard: usize,
        device: usize,
        stripe: usize,
        row: usize,
        len: usize,
    ) -> Result<(), DeviceError> {
        self.lane0()
            .corrupt_sectors(shard, device, stripe, row, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_whole_reply_is_moved_and_fragments_are_assembled() {
        let ops = [
            OpRef::Read { offset: 0, len: 6 },
            OpRef::Read { offset: 90, len: 5 },
            OpRef::Read { offset: 50, len: 0 },
            OpRef::Write {
                offset: 7,
                data: &[1, 2, 3],
            },
        ];
        let mut results = slots(&ops);
        // Op 0 whole in one reply: its buffer becomes the result.
        let whole = vec![7u8; 6];
        let at = whole.as_ptr();
        // Op 1 in two fragments from two sub-batches, tail first.
        let first = vec![
            OpResult::Read(whole),
            OpResult::Read(vec![4, 5]),
            OpResult::Read(Vec::new()),
            OpResult::Write(WriteOutcome {
                bytes: 3,
                ..WriteOutcome::default()
            }),
        ];
        stitch(&ops, &mut results, &[(0, 0), (1, 3), (2, 0), (3, 0)], first).unwrap();
        stitch(
            &ops,
            &mut results,
            &[(1, 0)],
            vec![OpResult::Read(vec![1, 2, 3])],
        )
        .unwrap();
        let OpResult::Read(got) = &results[0] else {
            panic!("op 0 is a read")
        };
        assert_eq!(got.as_ptr(), at, "a whole reply keeps its allocation");
        assert_eq!(results[1], OpResult::Read(vec![1, 2, 3, 4, 5]));
        assert_eq!(results[2], OpResult::Read(Vec::new()));
        assert_eq!(
            results[3],
            OpResult::Write(WriteOutcome {
                bytes: 3,
                ..WriteOutcome::default()
            })
        );
    }

    #[test]
    fn an_overrunning_fragment_is_a_protocol_error() {
        let ops = [OpRef::Read { offset: 0, len: 4 }];
        for (span_off, len) in [(0, 5), (3, 2), (4, 1)] {
            let mut results = slots(&ops);
            let sub = vec![OpResult::Read(vec![0; len])];
            assert!(
                matches!(
                    stitch(&ops, &mut results, &[(0, span_off)], sub),
                    Err(NetError::Protocol(_))
                ),
                "{len} bytes at {span_off}"
            );
        }
        // A reply of the wrong kind or count is refused too.
        let mut results = slots(&ops);
        let write = vec![OpResult::Write(WriteOutcome::default())];
        assert!(matches!(
            stitch(&ops, &mut results, &[(0, 0)], write),
            Err(NetError::Protocol(_))
        ));
        assert!(matches!(
            stitch(&ops, &mut results, &[(0, 0)], Vec::new()),
            Err(NetError::Protocol(_))
        ));
    }
}
