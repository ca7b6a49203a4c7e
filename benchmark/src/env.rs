//! Set-up: fresh stores under `benchmark/out/`, an in-process TCP
//! server where the workload wants one, prefill, read-back, fault
//! injection — and the devices the client threads drive, always opened
//! through the public `stair_net::open_device(&DeviceSpec)` surface.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

use stair_code::CodecSpec;
use stair_device::{AdminDevice, BlockDevice, DeviceSpec};
use stair_net::{open_admin, open_device, NetError, Server, ServerConfig, ServerHandle, ShardSet};
use stair_store::{StoreOptions, StripeStore};

use crate::load::{fill_block, Rng};
use crate::metrics::Workload;

/// The paper's n=8, r=16, m=2, e=(1,2) configuration.
pub const CODE: &str = "stair:8,16,2,1-2";
/// Bytes per sector = logical block size.
pub const SYMBOL: usize = 4096;
/// Client threads (= connections for the `tcp:` workloads): the
/// sandbox has two cores, and the server gets two workers to match.
pub const CLIENTS: usize = 2;

/// Device and cache sizes; `--smoke` shrinks both.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Logical device size, MiB (rounded up to whole stripes).
    pub logical_mib: usize,
    /// Read-cache budget of `zipf_read_cache_tcp`, MiB: an eighth of
    /// the device, so the working set exceeds it while the zipf head
    /// fits.
    pub cache_mb: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        logical_mib: 64,
        cache_mb: 8,
    };
    pub const SMOKE: Sizes = Sizes {
        logical_mib: 8,
        cache_mb: 1,
    };
}

pub fn codec_spec() -> CodecSpec {
    CODE.parse().expect("the benchmark's codec spec parses")
}

pub fn store_options(stripes: usize) -> StoreOptions {
    StoreOptions {
        code: codec_spec(),
        symbol: SYMBOL,
        stripes,
    }
}

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Data blocks per stripe of [`CODE`] (93).
pub fn blocks_per_stripe() -> usize {
    stair_store::build_codec(&codec_spec())
        .expect("the benchmark's codec builds")
        .geometry()
        .data_per_stripe()
}

/// Stripes needed to hold `mib` MiB of data.
pub fn stripes_for(mib: usize) -> usize {
    (mib << 20).div_ceil(blocks_per_stripe() * SYMBOL)
}

/// An in-process `stair_net::Server` on an ephemeral loopback port.
pub struct ServerThread {
    pub addr: String,
    handle: ServerHandle,
    join: Option<JoinHandle<Result<(), NetError>>>,
}

impl ServerThread {
    pub fn start(shards: ShardSet) -> Result<Self, String> {
        let config = ServerConfig {
            workers: CLIENTS,
            ..Default::default()
        };
        let server = Server::bind("127.0.0.1:0", shards, config).map_err(err("bind"))?;
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        Ok(ServerThread {
            addr,
            handle,
            join: Some(join),
        })
    }
}

impl Drop for ServerThread {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            // A server that failed its final flush has nothing left to
            // tell a benchmark that is tearing down anyway.
            let _ = join.join();
        }
    }
}

/// One whole stripe of content: `f(seed, b, version)` for each of
/// stripe `stripe`'s blocks.
pub fn stripe_payload(seed: u64, stripe: usize, version: u32) -> Vec<u8> {
    let per = blocks_per_stripe();
    let mut payload = vec![0u8; per * SYMBOL];
    for (i, chunk) in payload.chunks_mut(SYMBOL).enumerate() {
        fill_block(seed, (stripe * per + i) as u64, version, chunk);
    }
    payload
}

/// Writes version-0 content over the whole device, one stripe per
/// `write_at`, then reads every stripe back and compares it in full.
pub fn prefill_and_verify(dev: &dyn BlockDevice, seed: u64) -> Result<(), String> {
    let stripe_bytes = blocks_per_stripe() * SYMBOL;
    let stripes = dev.capacity() as usize / stripe_bytes;
    for stripe in 0..stripes {
        dev.write_at(
            (stripe * stripe_bytes) as u64,
            &stripe_payload(seed, stripe, 0),
        )
        .map_err(err("prefill write"))?;
    }
    for stripe in 0..stripes {
        let back = dev
            .read_at((stripe * stripe_bytes) as u64, stripe_bytes)
            .map_err(err("prefill read-back"))?;
        if back != stripe_payload(seed, stripe, 0) {
            return Err(format!("prefill read-back of stripe {stripe} differs"));
        }
    }
    Ok(())
}

/// The worst pattern [`CODE`] covers, on every stripe: devices 0 and 1
/// failed outright, one bad sector on device 2 and a burst of two on
/// device 3 (rows drawn from `seed`).
pub fn inject_worst_case(
    admin: &dyn AdminDevice,
    shard: usize,
    stripes: usize,
    seed: u64,
) -> Result<(), String> {
    let r = codec_spec().r();
    let mut rng = Rng::stream(seed, 0xFA17);
    admin.fail_device(shard, 0).map_err(err("fail_device"))?;
    admin.fail_device(shard, 1).map_err(err("fail_device"))?;
    for stripe in 0..stripes {
        let one = rng.below(r as u64) as usize;
        let two = rng.below(r as u64 - 1) as usize;
        admin
            .corrupt_sectors(shard, 2, stripe, one, 1)
            .and_then(|()| admin.corrupt_sectors(shard, 3, stripe, two, 2))
            .map_err(err("corrupt_sectors"))?;
    }
    Ok(())
}

/// The cells [`inject_worst_case`] erases in one stripe, for the codec
/// probes (fixed rows; the codec's cost does not depend on which).
pub fn worst_case_cells() -> Vec<(usize, usize)> {
    let r = codec_spec().r();
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for row in 0..r {
        cells.push((row, 0));
        cells.push((row, 1));
    }
    cells.extend([(5, 2), (9, 3), (10, 3)]);
    cells
}

/// Everything one workload run needs; tears itself down on drop.
pub struct Env {
    /// One device per client thread (the same `Arc` twice when the
    /// workload shares one handle).
    pub devices: Vec<Arc<dyn BlockDevice>>,
    /// Each client thread's slice of the block space (stripe-aligned).
    pub regions: Vec<Range<u64>>,
    pub blocks_per_stripe: usize,
    pub block_size: usize,
    /// Where the store files live (for disk-usage accounting).
    pub store_dir: PathBuf,
    root: PathBuf,
    server: Option<ServerThread>,
}

impl Env {
    pub fn capacity(&self) -> u64 {
        self.devices[0].capacity()
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        // Clients hang up before the server stops; files go last.
        self.devices.clear();
        self.server.take();
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn thread_regions(capacity: u64, per: usize, block: usize) -> Vec<Range<u64>> {
    let stripes = capacity / (per * block) as u64;
    (0..CLIENTS as u64)
        .map(|t| {
            let lo = stripes * t / CLIENTS as u64;
            let hi = stripes * (t + 1) / CLIENTS as u64;
            lo * per as u64..hi * per as u64
        })
        .collect()
}

fn open(spec: DeviceSpec) -> Result<Arc<dyn BlockDevice>, String> {
    open_device(&spec)
        .map(Arc::from)
        .map_err(|e| format!("open_device({spec}): {e}"))
}

/// Creates a fresh `file:` store of `stripes` stripes and closes it
/// again (a clean shutdown), ready for `open_device`.
pub fn create_file_store(dir: &Path, stripes: usize) -> Result<(), String> {
    StripeStore::create(dir, &store_options(stripes))
        .map(drop)
        .map_err(err("create store"))
}

/// Builds `workload`'s environment under `root` (which must not exist):
/// stores created, prefilled with version-0 content, read back, faults
/// injected, server started, client devices opened.
pub fn setup(workload: Workload, sizes: Sizes, seed: u64, root: &Path) -> Result<Env, String> {
    std::fs::create_dir_all(root).map_err(err("create scratch dir"))?;
    let per = blocks_per_stripe();
    let (devices, store_dir, server) = match workload {
        Workload::SeqWriteFile | Workload::DegradedReadFile => {
            let dir = root.join("store");
            let stripes = stripes_for(sizes.logical_mib);
            create_file_store(&dir, stripes)?;
            let spec = DeviceSpec::File { dir: dir.clone() };
            {
                let admin = open_admin(&spec).map_err(err("open_admin"))?;
                prefill_and_verify(&admin, seed)?;
                if workload == Workload::DegradedReadFile {
                    inject_worst_case(&admin, 0, stripes, seed)?;
                }
            }
            let dev = open(spec)?;
            (vec![dev; CLIENTS], dir, None)
        }
        Workload::SmallRwTcp | Workload::ZipfReadCacheTcp => {
            let dir = root.join("shards");
            let per_shard = stripes_for(sizes.logical_mib / CLIENTS);
            let shards = ShardSet::create(&dir, CLIENTS, &store_options(per_shard))
                .map_err(err("create shards"))?;
            let server = ServerThread::start(shards)?;
            let tcp = |lanes| DeviceSpec::Tcp {
                addr: server.addr.clone(),
                lanes,
            };
            prefill_and_verify(&*open(tcp(1))?, seed)?;
            let devices = if workload == Workload::SmallRwTcp {
                // One connection per client thread.
                (0..CLIENTS)
                    .map(|_| open(tcp(1)))
                    .collect::<Result<_, _>>()?
            } else {
                // One shared write-through cache over one striped client.
                let cached = open(DeviceSpec::Cache {
                    inner: Box::new(tcp(CLIENTS)),
                    mb: sizes.cache_mb,
                    wb: false,
                    interval_ms: stair_device::CACHE_DEFAULT_INTERVAL_MS,
                })?;
                vec![cached; CLIENTS]
            };
            (devices, dir, Some(server))
        }
    };
    let block_size = devices[0].block_size();
    let regions = thread_regions(devices[0].capacity(), per, block_size);
    Ok(Env {
        devices,
        regions,
        blocks_per_stripe: per,
        block_size,
        store_dir,
        root: root.to_path_buf(),
        server,
    })
}
