//! Trait-conformance suite: the *same* generic scripts run unchanged
//! against every `BlockDevice` backend — a local `StripeStore`
//! (`file:`), an in-process `ShardSet` (`shards:`), and a loopback TCP
//! `Client` / `StripedClient` (`tcp:`) — and must observe identical
//! behavior: round-trip reads, degraded reads after injected faults,
//! scrub detection, online repair, and a consistent status shape.
//!
//! Backends are opened through the `open_device` / `open_admin`
//! registry from `DeviceSpec` strings, so the specs' whole life cycle
//! (parse → open → exercise) is covered.
//!
//! The last section is the **model test**: one seeded generator of
//! `read_at` / `write_at` / `submit` sessions, checked step by step
//! against a plain `Vec<u8>`, run on every backend. Every call is a
//! batch inside the backends, so "batch ≡ per-op" is no longer a
//! property worth testing; "device ≡ byte array" is.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::{TestRng, TestRngCore};
use stair_device::{
    AdminDevice, BlockDevice, DeviceError, DeviceSpec, Instrumented, IoBatch, IoOp, OpResult,
};
use stair_net::protocol::MAX_IO_BYTES;
use stair_net::{open_admin, open_device, Client, NetError, Server, ServerConfig, ShardSet};
use stair_store::{build_codec, StoreOptions, StripeStore};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stair-conform-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts() -> StoreOptions {
    StoreOptions {
        code: "stair:8,4,2,1-1-2".parse().unwrap(),
        symbol: 64,
        stripes: 8,
    }
}

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64).wrapping_mul(31).wrapping_add(seed * 97) % 251) as u8)
        .collect()
}

/// The generic clean-path conformance script: write, read back (whole
/// device, unaligned sub-spans, boundary cases), flush, status, scrub.
/// Passes unchanged against every backend.
fn exercise(dev: &dyn BlockDevice) {
    let capacity = dev.capacity() as usize;
    assert!(capacity > 0);
    assert!(dev.block_size() > 0);

    let payload = pattern(capacity, 5);
    let w = dev.write_at(0, &payload).expect("write");
    assert_eq!(w.bytes as usize, capacity);
    assert!(w.stripes_touched > 0);
    assert_eq!(dev.read_at(0, capacity).expect("read"), payload);

    // Unaligned sub-span and boundary reads.
    assert_eq!(
        dev.read_at(1001, 2003).expect("sub-span"),
        payload[1001..3004].to_vec()
    );
    assert_eq!(dev.read_at(capacity as u64, 0).expect("empty"), vec![]);
    assert!(
        dev.read_at(capacity as u64 - 1, 2).is_err(),
        "read past capacity must fail"
    );

    // A small overwrite lands (delta or re-encode is the backend's
    // choice; the data must come back either way).
    let patch = pattern(100, 9);
    dev.write_at(300, &patch).expect("patch");
    assert_eq!(dev.read_at(300, 100).expect("patched read"), patch);

    dev.flush().expect("flush");
    let status = dev.status().expect("status");
    assert!(!status.shards.is_empty());
    assert_eq!(
        status.capacity,
        status.shards.iter().map(|s| s.capacity).sum::<u64>()
    );
    assert!(status.healthy(), "fresh device must be healthy: {status:?}");
    // Journal recovery fields must read identically across backends: a
    // freshly created store has a clean history and replayed nothing.
    for (i, s) in status.shards.iter().enumerate() {
        assert!(
            s.clean_shutdown,
            "shard {i}: a fresh store's previous close is clean"
        );
        assert_eq!(s.replayed_records, 0, "shard {i}: nothing to replay");
    }

    let scrub = dev.scrub(2).expect("scrub");
    assert!(scrub.clean(), "{scrub:?}");
    assert!(scrub.sectors_verified > 0);
}

/// The generic fault script: refuse bad indices, fail a device +
/// corrupt a sector burst, degraded-read the exact original bytes,
/// watch status go unhealthy, scrub-detect, repair online, scrub clean
/// again. The scrub and repair that find and heal the damage ask for
/// zero threads, which every backend runs as one.
fn exercise_faults(dev: &dyn BlockDevice, admin: &dyn stair_device::FaultAdmin, shard: usize) {
    let capacity = dev.capacity() as usize;
    let payload = pattern(capacity, 11);
    dev.write_at(0, &payload).expect("seed write");

    // A bad shard, a bad device, a burst whose end overflows and a row
    // past the wire's u32 are `OutOfRange` on every backend, and change
    // nothing.
    for (what, result) in [
        ("bad shard fail", admin.fail_device(99, 0)),
        ("bad shard burst", admin.corrupt_sectors(99, 5, 2, 1, 2)),
        ("bad device fail", admin.fail_device(shard, 99)),
        (
            "overflowing burst",
            admin.corrupt_sectors(shard, 5, 2, usize::MAX, 2),
        ),
        (
            "u32-wide row",
            admin.corrupt_sectors(shard, 5, 2, 1 << 32, 1),
        ),
    ] {
        assert!(
            matches!(result, Err(DeviceError::OutOfRange(_))),
            "{what}: {result:?}"
        );
    }
    assert!(dev.status().expect("status").healthy());

    admin.fail_device(shard, 3).expect("fail device");
    admin
        .corrupt_sectors(shard, 5, 2, 1, 2)
        .expect("corrupt burst");

    let status = dev.status().expect("status");
    assert!(!status.healthy());
    assert_eq!(status.shards[shard].failed_devices, vec![3]);

    // Degraded reads reconstruct the exact original bytes.
    assert_eq!(dev.read_at(0, capacity).expect("degraded read"), payload);

    // Scrub finds the burst (the failed device is skipped, reported
    // unavailable).
    let scrub = dev.scrub(0).expect("scrub degraded");
    assert!(!scrub.clean());
    assert_eq!(scrub.mismatches, 2, "{scrub:?}");

    // Online repair heals everything; scrub then reports clean.
    let repair = dev.repair(0).expect("repair");
    assert!(repair.complete(), "{repair:?}");
    assert!(repair.devices_replaced >= 1);
    let scrub = dev.scrub(2).expect("scrub clean");
    assert!(scrub.clean(), "{scrub:?}");
    assert!(dev.status().expect("status").healthy());
    assert_eq!(dev.read_at(0, capacity).expect("repaired read"), payload);
}

/// Spawns a server over fresh shards; returns (addr, run-thread, dir).
fn start_server(
    tag: &str,
    shards: usize,
) -> (
    String,
    std::thread::JoinHandle<Result<(), NetError>>,
    std::path::PathBuf,
) {
    let dir = tmpdir(tag);
    let set = ShardSet::create(&dir, shards, &opts()).expect("create shards");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle, dir)
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<Result<(), NetError>>) {
    Client::connect(addr)
        .expect("admin")
        .shutdown_server()
        .expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn file_backend_conforms() {
    let dir = tmpdir("file");
    StripeStore::create(&dir, &opts()).expect("create store");
    let spec: DeviceSpec = format!("file:{}", dir.display()).parse().unwrap();
    let dev = open_device(&spec).expect("open file device");
    exercise(dev.as_ref());
    drop(dev);
    let admin = open_admin(&spec).expect("open file admin");
    exercise_faults(admin.as_ref(), admin.as_ref(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shards_backend_conforms() {
    let dir = tmpdir("shards");
    ShardSet::create(&dir, 3, &opts()).expect("create shards");
    let spec: DeviceSpec = format!("shards:{}?n=3", dir.display()).parse().unwrap();
    let admin = open_admin(&spec).expect("open shards device");
    exercise(admin.as_ref());
    exercise_faults(admin.as_ref(), admin.as_ref(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tcp_backend_conforms() {
    let (addr, handle, dir) = start_server("tcp", 2);
    let spec: DeviceSpec = format!("tcp:{addr}").parse().unwrap();
    let admin = open_admin(&spec).expect("open tcp device");
    exercise(admin.as_ref());
    exercise_faults(admin.as_ref(), admin.as_ref(), 1);
    drop(admin);
    shutdown(&addr, handle);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn striped_tcp_backend_conforms() {
    let (addr, handle, dir) = start_server("striped", 2);
    let spec: DeviceSpec = format!("tcp:{addr}?lanes=3").parse().unwrap();
    let admin = open_admin(&spec).expect("open striped tcp device");
    exercise(admin.as_ref());
    exercise_faults(admin.as_ref(), admin.as_ref(), 0);
    drop(admin);
    shutdown(&addr, handle);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The cache tier must be invisible to the conformance scripts: the
/// same clean-path and fault scripts run unchanged over `cache:file:`.
/// The fault script in particular proves coherence — degraded,
/// post-scrub, and post-repair reads must never serve a stale frame.
#[test]
fn cache_file_backend_conforms() {
    let dir = tmpdir("cache-file");
    StripeStore::create(&dir, &opts()).expect("create store");
    let spec: DeviceSpec = format!("cache:file:{}?mb=1", dir.display())
        .parse()
        .unwrap();
    let dev = open_device(&spec).expect("open cached file device");
    exercise(dev.as_ref());
    drop(dev);
    let admin = open_admin(&spec).expect("open cached file admin");
    exercise_faults(admin.as_ref(), admin.as_ref(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Same over the wire: `cache:tcp:` composes the tier over a remote
/// client, and the fault scripts still see exact bytes.
#[test]
fn cache_tcp_backend_conforms() {
    let (addr, handle, dir) = start_server("cache-tcp", 2);
    let spec: DeviceSpec = format!("cache:tcp:{addr}?mb=1").parse().unwrap();
    let admin = open_admin(&spec).expect("open cached tcp device");
    exercise(admin.as_ref());
    exercise_faults(admin.as_ref(), admin.as_ref(), 1);
    drop(admin);
    shutdown(&addr, handle);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Repair-then-read staleness: warm the cache, damage the device,
/// repair it, and verify the read tier never serves the frames it
/// cached before the repair (the generation bump must drop them).
#[test]
fn cache_never_serves_stale_frames_after_repair() {
    let dir = tmpdir("cache-stale");
    StripeStore::create(&dir, &opts()).expect("create store");
    let spec: DeviceSpec = format!("cache:file:{}?mb=1", dir.display())
        .parse()
        .unwrap();
    let admin = open_admin(&spec).expect("open cached admin");
    let capacity = admin.capacity() as usize;

    let payload = pattern(capacity, 41);
    admin.write_at(0, &payload).expect("seed");
    // Warm every frame the budget allows, then fault the device.
    assert_eq!(admin.read_at(0, capacity).expect("warm"), payload);
    admin.fail_device(0, 3).expect("fail");
    admin.corrupt_sectors(0, 5, 2, 1, 2).expect("corrupt");
    // Degraded reads reconstruct — and must not be the warm frames
    // blindly replayed (the fault bumped the generation, so these are
    // fresh fills through the degraded path).
    let tier_before = admin.status().expect("status").cache.expect("cache tier");
    assert_eq!(admin.read_at(0, capacity).expect("degraded"), payload);
    admin.repair(2).expect("repair");
    let tier_after = admin.status().expect("status").cache.expect("cache tier");
    assert!(
        tier_after.generation > tier_before.generation,
        "repair must advance the cache generation ({tier_before:?} -> {tier_after:?})"
    );
    assert_eq!(admin.read_at(0, capacity).expect("repaired"), payload);
    let scrub = admin.scrub(2).expect("scrub");
    assert!(scrub.clean(), "{scrub:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Write-back over the wire: absorbed writes ack volatile, a flush
/// makes them durable, and bytes stay identical to the uncached view.
#[test]
fn cache_write_back_tcp_round_trips_after_flush() {
    let (addr, handle, dir) = start_server("cache-wb", 2);
    let spec: DeviceSpec = format!("cache:tcp:{addr}?mb=1&wb=on&interval_ms=0")
        .parse()
        .unwrap();
    let dev = open_device(&spec).expect("open wb cached device");
    let capacity = dev.capacity() as usize;
    let payload = pattern(capacity, 57);
    dev.write_at(0, &payload).expect("absorbed write");
    // Read-your-write before any drain.
    assert_eq!(dev.read_at(0, capacity).expect("staged read"), payload);
    dev.flush().expect("drain + flush");
    drop(dev);
    // A second, uncached client sees the identical bytes.
    let plain = open_device(&format!("tcp:{addr}").parse().unwrap()).expect("plain client");
    assert_eq!(plain.read_at(0, capacity).expect("uncached read"), payload);
    drop(plain);
    shutdown(&addr, handle);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The write tier's group-commit payoff, in counts: the same
/// one-block-at-a-time fill of every stripe costs write-through one
/// stripe lock and one parity-delta call per block, and write-back —
/// whose drain hands each stripe's blocks to the store as one
/// full-stripe commit — one lock and one encode pass per stripe.
#[test]
fn cache_write_back_pays_one_encode_pass_per_stripe() {
    let counts = |query: &str| {
        let dir = tmpdir("cache-wb-counts");
        StripeStore::create(&dir, &opts()).expect("create store");
        let spec = format!("cache:file:{}?mb=1{query}", dir.display());
        let dev = open_device(&spec.parse().unwrap()).expect("open cached file device");
        let block = dev.block_size();
        let payload = pattern(dev.capacity() as usize, 73);
        for (slot, bytes) in payload.chunks(block).enumerate() {
            dev.write_at((slot * block) as u64, bytes).expect("write");
        }
        dev.flush().expect("flush");
        let metrics = dev.metrics().expect("metrics");
        assert_eq!(dev.read_at(0, payload.len()).expect("read back"), payload);
        drop(dev);
        std::fs::remove_dir_all(&dir).unwrap();
        ["encode_passes", "delta_update_calls", "stripe_locks"]
            .map(|name| metrics.counter(&format!("store.{name}")).expect("counter"))
    };
    // [encode passes, delta calls, stripe locks] of a fresh store
    // handle; r·(n−m) − Σe = 20 data blocks per stripe.
    let stripes = opts().stripes as u64;
    let blocks = stripes * 20;
    assert_eq!(counts(""), [0, blocks, blocks], "write-through");
    let back = counts("&wb=on&interval_ms=0");
    assert_eq!(back, [stripes, 0, stripes], "write-back");
}

/// A span crossing the placement wrap boundary — the end of shard k-1's
/// first range into shard 0's second range — must read and write
/// identically through the trait, both in-process and over the wire.
#[test]
fn cross_shard_boundary_spans_round_trip() {
    let shards = 3;
    let dir = tmpdir("wrap");
    let set = ShardSet::create(&dir, shards, &opts()).expect("create shards");
    // One placement range = one stripe of data blocks.
    let range_bytes = set.placement().range_blocks() * set.block_size();
    drop(set);

    // Ranges 0..k map round-robin onto shards 0..k-1 then wrap: global
    // range k-1 lives on shard k-1, range k on shard 0. A span
    // straddling that edge touches the last and first shard in one
    // request.
    let wrap = (shards * range_bytes) as u64;
    let span_start = wrap - (range_bytes / 2) as u64;
    let span_len = range_bytes; // half in shard k-1, half in shard 0
    let check = |label: &str, dev: &dyn BlockDevice| {
        let payload = pattern(span_len, 23 + label.len() as u64);
        let w = dev.write_at(span_start, &payload).expect("wrap write");
        assert_eq!(w.bytes as usize, span_len, "{label}");
        assert_eq!(
            dev.read_at(span_start, span_len).expect("wrap read"),
            payload,
            "{label}: cross-shard span must round-trip"
        );
        // An unaligned read inside the wrapped span.
        assert_eq!(
            dev.read_at(span_start + 7, span_len - 13).expect("inner"),
            payload[7..span_len - 6].to_vec(),
            "{label}"
        );
        dev.flush().expect("flush");
    };

    // In-process first; flush and drop before the server opens the same
    // files (each handle keeps its own in-memory checksum tables, so
    // two live handles on one root are not supported).
    let dev =
        open_device(&format!("shards:{}", dir.display()).parse().unwrap()).expect("open shards");
    check("shards", dev.as_ref());
    drop(dev);

    let set = ShardSet::open(&dir).expect("reopen shards");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let dev = open_device(&format!("tcp:{addr}").parse().unwrap()).expect("open tcp");
    check("tcp", dev.as_ref());
    drop(dev);

    shutdown(&addr, handle);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite regression: a `Client` is `Send + Sync` behind its
/// connection mutex, so one shared `Arc<dyn BlockDevice>` may serve
/// many threads concurrently — every thread's writes and reads must be
/// correct (they serialize on the connection, not on the caller).
#[test]
fn one_client_shared_across_threads() {
    const THREADS: usize = 6;
    const ROUNDS: usize = 4;

    let (addr, handle, dir) = start_server("shared", 2);
    let client: Arc<dyn BlockDevice> = Arc::new(Client::connect(&addr).expect("connect"));
    let capacity = client.capacity() as usize;
    let region = capacity / THREADS;
    assert!(region > 0);
    let mismatches = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let client = Arc::clone(&client);
            let mismatches = &mismatches;
            scope.spawn(move || {
                let offset = (t * region) as u64;
                for round in 0..ROUNDS {
                    let payload = pattern(region, (t * ROUNDS + round) as u64);
                    client.write_at(offset, &payload).expect("write");
                    let got = client.read_at(offset, region).expect("read");
                    if got != payload {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(mismatches.load(Ordering::Relaxed), 0);

    shutdown(&addr, handle);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `open_device` failure modes: bad targets surface as clean
/// `DeviceError`s, and a shard-count assertion in the spec is honored.
#[test]
fn open_device_rejects_unusable_targets() {
    let dir = tmpdir("reject");
    std::fs::create_dir_all(&dir).unwrap();

    // file: on a directory with no store.
    let spec: DeviceSpec = format!("file:{}", dir.join("nothing").display())
        .parse()
        .unwrap();
    assert!(open_device(&spec).is_err());

    // shards: on an empty root.
    let spec: DeviceSpec = format!("shards:{}", dir.display()).parse().unwrap();
    assert!(open_device(&spec).is_err());

    // shards: with a wrong ?n= assertion.
    let root = dir.join("set");
    ShardSet::create(&root, 2, &opts()).expect("create");
    let spec: DeviceSpec = format!("shards:{}?n=5", root.display()).parse().unwrap();
    match open_device(&spec) {
        Err(DeviceError::Spec(msg)) => assert!(msg.contains("n=5"), "{msg}"),
        other => panic!("expected Spec error, got {:?}", other.err()),
    }
    // The right assertion opens.
    let spec: DeviceSpec = format!("shards:{}?n=2", root.display()).parse().unwrap();
    assert!(open_device(&spec).is_ok());

    // tcp: against a closed port.
    assert!(open_device(&"tcp:127.0.0.1:9".parse().unwrap()).is_err());

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The `AdminDevice` handle is usable as a plain `BlockDevice` too —
/// the blanket impl keeps one open per backend enough for both halves.
#[test]
fn admin_device_is_a_block_device() {
    fn takes_dev(_: &dyn BlockDevice) {}
    fn takes_admin(dev: &dyn AdminDevice) {
        takes_dev(dev);
    }
    let dir = tmpdir("blanket");
    StripeStore::create(&dir, &opts()).expect("create");
    let admin = open_admin(&format!("file:{}", dir.display()).parse().unwrap()).expect("open");
    takes_admin(admin.as_ref());
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// device ≡ byte array
// ---------------------------------------------------------------------

/// The model geometry: 4 KiB blocks, 20 per stripe (80 KiB), 5 MiB per
/// device however it is sharded — room for an op past `MAX_IO_BYTES`.
const MODEL_BLOCK: usize = 4096;
const MODEL_STRIPES: usize = 64;

fn model_opts(shards: usize) -> StoreOptions {
    StoreOptions {
        code: "stair:8,4,2,1-1-2".parse().unwrap(),
        symbol: MODEL_BLOCK,
        stripes: MODEL_STRIPES / shards,
    }
}

/// One step of a generated session.
#[derive(Debug)]
enum Step {
    Read(u64, usize),
    Write(u64, Vec<u8>),
    Submit(IoBatch),
    /// Lose a device and corrupt a sector burst on the fault shard.
    Fault,
    /// Damage the footprint of a one-block write — corrupt the sector
    /// of its first parity, or fail the device holding its last — then
    /// write block `block` of the fault shard's stripe `stripe`. The
    /// store must restore a corrupted parity, and a data cell on a
    /// failed device; a parity on a failed device is never written, so
    /// it is left out.
    DamagedWrite {
        stripe: usize,
        block: usize,
        fail_parity: bool,
        data: Vec<u8>,
    },
}

fn bytes(rng: &mut TestRng, len: usize) -> Vec<u8> {
    let seed: u64 = rng.gen();
    pattern(len, seed % 1000)
}

/// A span of one of the shapes the planner, the placement split and the
/// frame packer each have an edge for: inside one block, straddling a
/// stripe (= placement range = shard) boundary, or a few whole stripes
/// off alignment.
fn span(rng: &mut TestRng, capacity: usize) -> (u64, usize) {
    let stripe = 20 * MODEL_BLOCK;
    let (offset, len) = match rng.gen_range(0..4usize) {
        0 => (rng.gen_range(0..capacity), rng.gen_range(0..MODEL_BLOCK)),
        1 => (
            rng.gen_range(0..capacity),
            rng.gen_range(1..3 * MODEL_BLOCK),
        ),
        2 => {
            let edge = rng.gen_range(1..capacity / stripe) * stripe;
            let back = rng.gen_range(1..2 * MODEL_BLOCK);
            (edge - back, back + rng.gen_range(1..2 * MODEL_BLOCK))
        }
        _ => (
            rng.gen_range(0..capacity),
            rng.gen_range(stripe..3 * stripe),
        ),
    };
    (offset as u64, len.min(capacity - offset))
}

/// The seeded generator: every backend replays the same session.
fn session(capacity: usize) -> Vec<Step> {
    let mut rng = proptest::test_rng("device_matches_a_byte_array");
    let rng = &mut rng;
    let mut steps = Vec::new();
    for i in 0..48 {
        if i == 20 {
            steps.push(Step::Fault);
        }
        // One damaged footprint on a clean store, one on a degraded one.
        if i == 12 || i == 26 {
            steps.push(Step::DamagedWrite {
                stripe: 7 + i / 13,
                block: rng.gen_range(0..20usize),
                fail_parity: i == 26,
                data: bytes(rng, MODEL_BLOCK),
            });
        }
        // Two ops past the per-frame cap: one clean, one degraded.
        if i == 8 || i == 30 {
            let len = MAX_IO_BYTES as usize + rng.gen_range(1..3 * MODEL_BLOCK);
            let offset = rng.gen_range(0..capacity - len) as u64;
            steps.push(Step::Write(offset, bytes(rng, len)));
            steps.push(Step::Read(offset.saturating_sub(17), len + 17));
            continue;
        }
        steps.push(match rng.gen_range(0..5usize) {
            0 | 1 => {
                let (offset, len) = span(rng, capacity);
                Step::Write(offset, bytes(rng, len))
            }
            2 => {
                let (offset, len) = span(rng, capacity);
                Step::Read(offset, len)
            }
            _ => {
                // A batch of 2–8 ops; random spans in a 5 MiB space are
                // mostly disjoint, so every other batch forces a
                // conflict by re-touching its first op's span.
                let mut batch = IoBatch::new();
                for _ in 0..rng.gen_range(2..9usize) {
                    let (offset, len) = span(rng, capacity);
                    if rng.gen_bool(0.6) {
                        batch.write(offset, bytes(rng, len));
                    } else {
                        batch.read(offset, len);
                    }
                }
                if i % 2 == 0 {
                    let (offset, len) = (batch.ops()[0].offset(), batch.ops()[0].byte_len());
                    batch.write(offset + 1, bytes(rng, len / 2));
                    batch.read(offset, len);
                    assert!(len < 2 || batch.has_conflicts());
                }
                Step::Submit(batch)
            }
        });
    }
    // A lone op is the same list whether `read_at`/`write_at` or a
    // one-op `submit` carried it (appended, so the draws above hold).
    let (offset, len) = span(rng, capacity);
    let (mut write, mut read) = (IoBatch::new(), IoBatch::new());
    write.write(offset, bytes(rng, len));
    read.read(offset, len);
    steps.extend([Step::Submit(write), Step::Submit(read)]);
    steps
}

fn recover_passes(dev: &dyn AdminDevice) -> u64 {
    let metrics = dev.metrics().expect("metrics");
    metrics.counter("store.recover_passes").expect("counter")
}

/// Replays the session on `dev`, checking every result against the
/// byte-array model — and the restore path against the damage: no
/// recover pass while nothing is damaged, at least one per write whose
/// footprint lost a sector it writes; ends with repair, a clean scrub and a full
/// read-back. Returns how many one-read, one-write and other op lists
/// it submitted — what a metering layer in front of `dev` must count.
fn check_against_byte_array(dev: &dyn AdminDevice, fault_shard: usize) -> [u64; 3] {
    let (mut reads, mut writes, mut batches) = (2u64, 0u64, 0u64); // the two read-backs
    let capacity = dev.capacity() as usize;
    assert_eq!(capacity, MODEL_STRIPES * 20 * MODEL_BLOCK);
    let shards = dev.status().expect("status").shards.len();
    let codec = build_codec(&model_opts(shards).code).expect("codec");
    let mut damaged = false;
    // Devices failed on the fault shard so far.
    let mut failed = Vec::new();
    // A fresh store is zero-filled.
    let mut model = vec![0u8; capacity];
    for (n, step) in session(capacity).into_iter().enumerate() {
        match step {
            Step::Read(offset, len) => {
                reads += 1;
                let got = dev.read_at(offset, len).expect("read_at");
                let at = offset as usize;
                assert!(got == model[at..at + len], "step {n}: read {offset}+{len}");
            }
            Step::Write(offset, data) => {
                writes += 1;
                let outcome = dev.write_at(offset, &data).expect("write_at");
                assert_eq!(outcome.bytes as usize, data.len(), "step {n}");
                let at = offset as usize;
                model[at..at + data.len()].copy_from_slice(&data);
            }
            Step::Submit(batch) => {
                match batch.ops() {
                    [IoOp::Read { .. }] => reads += 1,
                    [IoOp::Write { .. }] => writes += 1,
                    _ => batches += 1,
                }
                let result = dev.submit(&batch).expect("submit");
                assert_eq!(result.results.len(), batch.len(), "step {n}");
                // Submission order is the semantics: exact for
                // conflicting ops, indistinguishable for disjoint ones.
                for (k, (op, got)) in batch.ops().iter().zip(&result.results).enumerate() {
                    let at = op.offset() as usize;
                    match (op, got) {
                        (IoOp::Read { len, .. }, OpResult::Read(data)) => {
                            assert!(data[..] == model[at..at + len], "step {n} op {k}: {op:?}");
                        }
                        (IoOp::Write { data, .. }, OpResult::Write(w)) => {
                            assert_eq!(w.bytes as usize, data.len(), "step {n} op {k}");
                            model[at..at + data.len()].copy_from_slice(data);
                        }
                        _ => panic!("step {n} op {k}: result kind does not match {op:?}"),
                    }
                }
            }
            Step::Fault => {
                damaged = true;
                dev.fail_device(fault_shard, 3).expect("fail device");
                failed.push(3);
                dev.corrupt_sectors(fault_shard, 5, 2, 1, 2)
                    .expect("corrupt burst");
            }
            Step::DamagedWrite {
                stripe,
                block,
                fail_parity,
                data,
            } => {
                if !damaged {
                    assert_eq!(recover_passes(dev), 0, "step {n}: nothing was damaged yet");
                }
                let cell = codec.geometry().data_cells[block];
                let parities = codec.dependents(cell).expect("data cell");
                if fail_parity {
                    damaged = true;
                    let (_, device) = *parities.last().expect("a parity");
                    dev.fail_device(fault_shard, device).expect("fail parity");
                    failed.push(device);
                } else {
                    let (row, device) = parities[0];
                    dev.corrupt_sectors(fault_shard, device, stripe, row, 1)
                        .expect("corrupt parity");
                }
                // Local stripe → global range → byte offset (round-robin).
                let at = ((stripe * shards + fault_shard) * 20 + block) * MODEL_BLOCK;
                let before = recover_passes(dev);
                writes += 1;
                dev.write_at(at as u64, &data).expect("damaged write");
                let restores = !fail_parity || failed.contains(&cell.1);
                let restored = recover_passes(dev) > before;
                assert_eq!(restored, restores, "step {n}: restore path");
                model[at..at + data.len()].copy_from_slice(&data);
                if !fail_parity {
                    // The restore healed the sector: the footprint is
                    // clean again and the same write pays nothing.
                    let before = recover_passes(dev);
                    writes += 1;
                    dev.write_at(at as u64, &data).expect("healed write");
                    assert_eq!(recover_passes(dev), before, "step {n}: healed");
                }
            }
        }
    }
    assert!(dev.read_at(0, capacity).expect("degraded read-back") == model);
    assert!(dev.repair(2).expect("repair").complete());
    let scrub = dev.scrub(2).expect("scrub");
    assert!(scrub.clean(), "{scrub:?}");
    assert!(dev.read_at(0, capacity).expect("final read-back") == model);
    [reads, writes, batches]
}

#[test]
fn device_matches_a_byte_array_on_every_backend() {
    // file: and cache:file: over one store each.
    for (tag, prefix) in [("file", "file:"), ("cache-file", "cache:file:")] {
        let dir = tmpdir(&format!("model-{tag}"));
        StripeStore::create(&dir, &model_opts(1)).expect("create store");
        let spec = format!("{prefix}{}", dir.display());
        let dev = open_admin(&spec.parse().unwrap()).expect("open");
        check_against_byte_array(dev.as_ref(), 0);
        drop(dev);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    // file: behind the metering layer: one `observe` per submitted
    // list, labelled by what the list is.
    let dir = tmpdir("model-instrumented");
    StripeStore::create(&dir, &model_opts(1)).expect("create store");
    let spec = format!("file:{}", dir.display());
    let dev = Instrumented::new(open_admin(&spec.parse().unwrap()).expect("open"));
    let issued = check_against_byte_array(&dev, 0);
    let metrics = dev.metrics().expect("metrics");
    let counted = ["read", "write", "batch"].map(|kind| {
        let errors = metrics.counter(&format!("dev.errors.{kind}"));
        assert_eq!(errors, Some(0), "dev.errors.{kind}");
        metrics
            .counter(&format!("dev.ops.{kind}"))
            .expect("counter")
    });
    assert_eq!(counted, issued, "dev.ops.read|write|batch");
    assert!(issued.iter().all(|&n| n > 0), "{issued:?}");
    drop(dev);
    std::fs::remove_dir_all(&dir).unwrap();
    // shards: in process.
    let dir = tmpdir("model-shards");
    ShardSet::create(&dir, 2, &model_opts(2)).expect("create shards");
    let dev = open_admin(&format!("shards:{}", dir.display()).parse().unwrap()).expect("open");
    check_against_byte_array(dev.as_ref(), 1);
    drop(dev);
    std::fs::remove_dir_all(&dir).unwrap();
    // tcp: on one connection and on two lanes.
    for (tag, query) in [("tcp", ""), ("lanes", "?lanes=2")] {
        let dir = tmpdir(&format!("model-{tag}"));
        let set = ShardSet::create(&dir, 2, &model_opts(2)).expect("create shards");
        let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        let dev = open_admin(&format!("tcp:{addr}{query}").parse().unwrap()).expect("open");
        check_against_byte_array(dev.as_ref(), 1);
        drop(dev);
        shutdown(&addr, handle);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
