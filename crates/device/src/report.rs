//! Unified report types shared by every backend.
//!
//! Every backend reports writes, scrubs and repairs in these shapes —
//! natively on the data path and on the wire — so consumers (the CLI,
//! the benchmarks, the conformance tests) see one vocabulary
//! regardless of where the bytes live.

/// Health and geometry of one erasure-coded shard. A single-store
/// backend reports exactly one; a sharded or remote backend reports one
/// per shard, in shard order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardHealth {
    /// Codec spec string (`stair:…`, `sd:…`, `rs:…`).
    pub codec: String,
    /// Logical capacity of this shard in bytes.
    pub capacity: u64,
    /// Logical block size in bytes.
    pub block_size: usize,
    /// Stripes in the shard.
    pub stripes: usize,
    /// Data blocks per stripe.
    pub blocks_per_stripe: usize,
    /// Whole-device failures the codec tolerates per stripe (`m`).
    pub device_tolerance: usize,
    /// Sector failures tolerated beyond the `m` devices (`s`).
    pub sector_tolerance: usize,
    /// Devices currently failed.
    pub failed_devices: Vec<usize>,
    /// Devices currently rebuilding.
    pub rebuilding_devices: Vec<usize>,
    /// Known-damaged sectors awaiting repair.
    pub known_bad_sectors: usize,
    /// Whether the shard's previous close checkpointed its journal
    /// (`false` after a crash until the next clean shutdown).
    pub clean_shutdown: bool,
    /// Journal records replayed when the shard opened (0 after a clean
    /// shutdown).
    pub replayed_records: u64,
}

impl ShardHealth {
    /// `true` when nothing is failed, rebuilding, or known-damaged.
    pub fn healthy(&self) -> bool {
        self.failed_devices.is_empty()
            && self.rebuilding_devices.is_empty()
            && self.known_bad_sectors == 0
    }
}

/// Point-in-time state of a cache tier sitting in front of a device —
/// reported by `cache:` devices inside [`DeviceStatus`] so `stair dev
/// status --json` shows the tier next to the shard health it fronts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheTierStatus {
    /// Read-tier byte budget.
    pub budget_bytes: u64,
    /// Block frames the budget buys.
    pub frames: usize,
    /// Frames currently holding a live block of the current generation.
    pub resident_blocks: usize,
    /// Coherence generation; scrub/repair/fault bumps drop every frame.
    pub generation: u64,
    /// Whether the write-back tier is enabled (`false` = write-through).
    pub write_back: bool,
    /// Dirty blocks buffered by the write-back tier, awaiting a drain.
    pub wb_buffered_blocks: usize,
    /// Reads served from the tier since open.
    pub hits: u64,
    /// Reads that had to fill from the inner device since open.
    pub misses: u64,
}

/// A whole device's health snapshot: the backend kind plus one
/// [`ShardHealth`] per shard.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeviceStatus {
    /// Backend scheme name (`"file"`, `"shards"`, `"tcp"`, or
    /// `"cache"` for a tiered wrapper).
    pub backend: String,
    /// Total logical capacity in bytes across all shards.
    pub capacity: u64,
    /// Logical block size in bytes.
    pub block_size: usize,
    /// Per-shard health, in shard order (never empty).
    pub shards: Vec<ShardHealth>,
    /// Cache-tier state when this device is a `cache:` wrapper; `None`
    /// for plain backends (and absent from their JSON, so uncached
    /// status shapes are unchanged).
    pub cache: Option<CacheTierStatus>,
}

impl DeviceStatus {
    /// `true` when every shard is healthy.
    pub fn healthy(&self) -> bool {
        self.shards.iter().all(ShardHealth::healthy)
    }
}

/// What a write did, aggregated across every shard and chunk it
/// touched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Bytes stored.
    pub bytes: u64,
    /// Logical blocks written.
    pub blocks_written: u64,
    /// Stripes touched.
    pub stripes_touched: u64,
    /// Full-stripe re-encodes.
    pub full_stripe_encodes: u64,
    /// Parity-delta updates.
    pub delta_updates: u64,
}

impl WriteOutcome {
    /// Folds another piece's outcome into this one — the merge every
    /// chunked or sharded write path uses to aggregate per-piece
    /// reports into one total.
    pub fn absorb(&mut self, other: &WriteOutcome) {
        self.bytes += other.bytes;
        self.blocks_written += other.blocks_written;
        self.stripes_touched += other.stripes_touched;
        self.full_stripe_encodes += other.full_stripe_encodes;
        self.delta_updates += other.delta_updates;
    }
}

/// Aggregate scrub outcome across every shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubOutcome {
    /// Stripes walked.
    pub stripes_scanned: u64,
    /// Sectors read and checksummed.
    pub sectors_verified: u64,
    /// Checksum mismatches found.
    pub mismatches: u64,
    /// Failed or rebuilding devices skipped.
    pub unavailable_devices: u64,
    /// Stale bad-sector records cleared.
    pub records_cleared: u64,
}

impl ScrubOutcome {
    /// `true` when everything verified clean.
    pub fn clean(&self) -> bool {
        self.mismatches == 0 && self.unavailable_devices == 0
    }

    /// Folds another shard's outcome into this one.
    pub fn absorb(&mut self, other: &ScrubOutcome) {
        self.stripes_scanned += other.stripes_scanned;
        self.sectors_verified += other.sectors_verified;
        self.mismatches += other.mismatches;
        self.unavailable_devices += other.unavailable_devices;
        self.records_cleared += other.records_cleared;
    }
}

/// Aggregate repair outcome across every shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Devices replaced and rebuilt.
    pub devices_replaced: u64,
    /// Stripes repaired.
    pub stripes_repaired: u64,
    /// Sectors rewritten.
    pub sectors_rewritten: u64,
    /// Stripes whose damage exceeded coverage.
    pub unrecoverable_stripes: u64,
}

impl RepairOutcome {
    /// `true` when nothing was beyond coverage.
    pub fn complete(&self) -> bool {
        self.unrecoverable_stripes == 0
    }

    /// Folds another shard's outcome into this one.
    pub fn absorb(&mut self, other: &RepairOutcome) {
        self.devices_replaced += other.devices_replaced;
        self.stripes_repaired += other.stripes_repaired;
        self.sectors_rewritten += other.sectors_rewritten;
        self.unrecoverable_stripes += other.unrecoverable_stripes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_outcomes_absorb_additively() {
        let mut total = WriteOutcome {
            bytes: 100,
            blocks_written: 2,
            stripes_touched: 1,
            full_stripe_encodes: 1,
            delta_updates: 0,
        };
        total.absorb(&WriteOutcome {
            bytes: 50,
            blocks_written: 1,
            stripes_touched: 1,
            full_stripe_encodes: 0,
            delta_updates: 1,
        });
        assert_eq!(
            total,
            WriteOutcome {
                bytes: 150,
                blocks_written: 3,
                stripes_touched: 2,
                full_stripe_encodes: 1,
                delta_updates: 1,
            }
        );
    }

    #[test]
    fn health_predicates() {
        let mut shard = ShardHealth::default();
        assert!(shard.healthy());
        shard.failed_devices.push(3);
        assert!(!shard.healthy());
        let status = DeviceStatus {
            backend: "file".into(),
            capacity: 0,
            block_size: 0,
            shards: vec![ShardHealth::default(), shard],
            cache: None,
        };
        assert!(!status.healthy());

        assert!(ScrubOutcome::default().clean());
        assert!(!ScrubOutcome {
            mismatches: 1,
            ..Default::default()
        }
        .clean());
        assert!(RepairOutcome::default().complete());
        assert!(!RepairOutcome {
            unrecoverable_stripes: 2,
            ..Default::default()
        }
        .complete());
    }

    #[test]
    fn scrub_and_repair_outcomes_absorb_additively() {
        let mut scrub = ScrubOutcome {
            stripes_scanned: 4,
            sectors_verified: 100,
            mismatches: 0,
            unavailable_devices: 1,
            records_cleared: 0,
        };
        scrub.absorb(&ScrubOutcome {
            stripes_scanned: 2,
            sectors_verified: 50,
            mismatches: 3,
            unavailable_devices: 0,
            records_cleared: 1,
        });
        assert_eq!(
            scrub,
            ScrubOutcome {
                stripes_scanned: 6,
                sectors_verified: 150,
                mismatches: 3,
                unavailable_devices: 1,
                records_cleared: 1,
            }
        );

        let mut repair = RepairOutcome {
            devices_replaced: 1,
            stripes_repaired: 4,
            sectors_rewritten: 16,
            unrecoverable_stripes: 0,
        };
        repair.absorb(&RepairOutcome {
            devices_replaced: 0,
            stripes_repaired: 1,
            sectors_rewritten: 4,
            unrecoverable_stripes: 2,
        });
        assert_eq!(
            repair,
            RepairOutcome {
                devices_replaced: 1,
                stripes_repaired: 5,
                sectors_rewritten: 20,
                unrecoverable_stripes: 2,
            }
        );
    }
}
