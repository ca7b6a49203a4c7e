//! The sharded store: `k` independent [`StripeStore`]s under one root
//! directory, glued into a single logical block space by the
//! [`Placement`] map.
//!
//! Every shard runs the same codec and geometry, so the placement
//! arithmetic is uniform and a shard's stripe is exactly one placement
//! range. The set is usable in-process (the benchmarks drive it through
//! the server, tests may drive it directly); the TCP server is a thin
//! wire layer on top.
//!
//! This file holds how a set is made and its data path
//! ([`ShardSet::submit_ops`]). Everything else a set does — capacity,
//! status, flush, scrub, repair, metrics, fault injection — is its
//! `BlockDevice`/`FaultAdmin` impl in `device_impl.rs`, written once.

use std::path::{Path, PathBuf};

use stair_device::{DeviceError, OpRef, OpResult};
use stair_store::{StoreOptions, StripeStore};

use crate::placement::{run_groups, split_batch, Placement};
use crate::NetError;

/// Directory name of shard `i` under the serve root.
pub fn shard_dir_name(i: usize) -> String {
    format!("shard-{i:04}")
}

/// A fixed set of equally-shaped stripe-store shards plus the placement
/// map over them.
pub struct ShardSet {
    root: PathBuf,
    pub(crate) stores: Vec<StripeStore>,
    placement: Placement,
}

impl ShardSet {
    /// Creates `shards` fresh stores under `root` (one per
    /// `root/shard-NNNN`), all with the same [`StoreOptions`].
    ///
    /// # Errors
    ///
    /// Fails if `root` already contains shard directories or any store
    /// creation fails.
    pub fn create(root: &Path, shards: usize, opts: &StoreOptions) -> Result<Self, NetError> {
        if shards == 0 {
            return Err(NetError::Shards("need at least one shard".into()));
        }
        if root.join(shard_dir_name(0)).exists() {
            return Err(NetError::Shards(format!(
                "{} already holds shards (open it instead of re-initializing)",
                root.display()
            )));
        }
        std::fs::create_dir_all(root)?;
        let mut stores = Vec::with_capacity(shards);
        for i in 0..shards {
            stores.push(StripeStore::create(&root.join(shard_dir_name(i)), opts)?);
        }
        Self::assemble(root, stores)
    }

    /// Opens the shards already present under `root` (`shard-0000`,
    /// `shard-0001`, … with no gaps).
    ///
    /// # Errors
    ///
    /// Fails when no shards exist, a shard fails to open, or the shards
    /// disagree on codec or scalar geometry.
    pub fn open(root: &Path) -> Result<Self, NetError> {
        let mut stores = Vec::new();
        loop {
            let dir = root.join(shard_dir_name(stores.len()));
            if !dir.is_dir() {
                break;
            }
            stores.push(StripeStore::open(&dir)?);
        }
        if stores.is_empty() {
            return Err(NetError::Shards(format!(
                "{} contains no shard directories (expected {}, …)",
                root.display(),
                shard_dir_name(0)
            )));
        }
        Self::assemble(root, stores)
    }

    /// Opens `root` if it holds shards, otherwise creates `shards` new
    /// ones. When opening, `shards` must match what is on disk.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardSet::open`] / [`ShardSet::create`] failures,
    /// plus a shard-count mismatch on open.
    pub fn open_or_create(
        root: &Path,
        shards: usize,
        opts: &StoreOptions,
    ) -> Result<Self, NetError> {
        if root.join(shard_dir_name(0)).is_dir() {
            let set = Self::open(root)?;
            if set.stores.len() != shards {
                return Err(NetError::Shards(format!(
                    "{} holds {} shard(s) but --shards asked for {shards}",
                    root.display(),
                    set.stores.len()
                )));
            }
            return Ok(set);
        }
        Self::create(root, shards, opts)
    }

    fn assemble(root: &Path, stores: Vec<StripeStore>) -> Result<Self, NetError> {
        let first = &stores[0];
        for (i, s) in stores.iter().enumerate().skip(1) {
            if s.codec_spec() != first.codec_spec()
                || s.block_size() != first.block_size()
                || s.stripe_count() != first.stripe_count()
            {
                return Err(NetError::Shards(format!(
                    "shard {i} ({}, {} stripes of {}-byte blocks) does not match shard 0 ({}, {} stripes of {}-byte blocks)",
                    s.codec_spec(),
                    s.stripe_count(),
                    s.block_size(),
                    first.codec_spec(),
                    first.stripe_count(),
                    first.block_size()
                )));
            }
        }
        let placement = Placement::new(
            stores.len(),
            first.blocks_per_stripe(),
            first.stripe_count(),
            first.block_size(),
        );
        Ok(ShardSet {
            root: root.to_path_buf(),
            stores,
            placement,
        })
    }

    /// The serve root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The placement map.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.stores.len()
    }

    /// Direct access to one shard's store.
    ///
    /// # Errors
    ///
    /// [`DeviceError::OutOfRange`] for an index past the last shard.
    pub fn shard(&self, i: usize) -> Result<&StripeStore, DeviceError> {
        self.stores.get(i).ok_or_else(|| {
            DeviceError::OutOfRange(format!("shard {i} (the set has {})", self.stores.len()))
        })
    }

    /// The codec spec string every shard runs.
    pub fn codec(&self) -> String {
        self.stores[0].codec_spec().to_string()
    }

    /// Executes `ops` (global offsets), returning per-op results in
    /// submission order: splits them by placement and runs the shard
    /// groups in parallel — shards share nothing, and each group runs
    /// the stripe store's planner (one lock + one codec decision per
    /// touched stripe). Conflicting ops always share the shard their
    /// overlap lands on, where submission order is preserved.
    ///
    /// # Errors
    ///
    /// Span errors surface before anything executes; afterwards the
    /// first shard failure wins.
    pub fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, NetError> {
        let _split = stair_obs::trace::span(stair_obs::trace::names::SHARDS_SUBMIT);
        let groups = split_batch(&self.placement, ops)?;
        run_groups(ops, &groups, |g| self.stores[g.shard].submit_ops(&g.ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stair_device::BlockDevice;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stair-shards-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts() -> StoreOptions {
        StoreOptions {
            code: "stair:8,4,2,1-1-2".parse().unwrap(),
            symbol: 64,
            stripes: 4,
        }
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn sharded_round_trip_and_reopen() {
        let dir = tmpdir("rt");
        let set = ShardSet::create(&dir, 3, &opts()).unwrap();
        assert_eq!(set.capacity(), 3 * 4 * 20 * 64);
        let payload = pattern(set.capacity() as usize, 5);
        set.write_at(0, &payload).unwrap();
        assert_eq!(set.read_at(0, payload.len()).unwrap(), payload);
        // Unaligned window crossing shard boundaries.
        assert_eq!(
            set.read_at(1000, 3000).unwrap(),
            payload[1000..4000].to_vec()
        );
        drop(set);
        let set = ShardSet::open(&dir).unwrap();
        assert_eq!(set.shard_count(), 3);
        assert_eq!(set.read_at(0, payload.len()).unwrap(), payload);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_shard_reads_through() {
        let dir = tmpdir("deg");
        let set = ShardSet::create(&dir, 2, &opts()).unwrap();
        let payload = pattern(set.capacity() as usize, 9);
        set.write_at(0, &payload).unwrap();
        set.shard(1).unwrap().fail_device(2).unwrap();
        assert_eq!(set.read_at(0, payload.len()).unwrap(), payload);
        assert!(set.repair(2).unwrap().complete());
        assert!(set.scrub(2).unwrap().clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_empty_create_rejects_existing() {
        let dir = tmpdir("guard");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(ShardSet::open(&dir), Err(NetError::Shards(_))));
        let set = ShardSet::create(&dir, 2, &opts()).unwrap();
        drop(set);
        assert!(matches!(
            ShardSet::create(&dir, 2, &opts()),
            Err(NetError::Shards(_))
        ));
        // open_or_create with the wrong count is refused.
        assert!(matches!(
            ShardSet::open_or_create(&dir, 3, &opts()),
            Err(NetError::Shards(_))
        ));
        assert_eq!(
            ShardSet::open_or_create(&dir, 2, &opts())
                .unwrap()
                .shard_count(),
            2
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
