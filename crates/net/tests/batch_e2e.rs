//! End-to-end tests for the batched data path over the wire: one
//! BATCH frame per shard, one stripe lock and one codec pass per
//! touched stripe — asserted against the store's instrumentation
//! counters through a cloned handle that shares them with the server.

use std::path::PathBuf;
use std::sync::Arc;

use stair_device::{BlockDevice, FaultAdmin, IoBatch, IoOp, OpResult};
use stair_net::{Client, Server, ServerConfig, ShardSet, StripedClient};
use stair_store::{StoreOptions, StripeStore};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stair-batch-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(41).wrapping_add(seed))
        .collect()
}

struct Harness {
    dir: PathBuf,
    addr: String,
    handle: stair_net::ServerHandle,
    running: std::thread::JoinHandle<Result<(), stair_net::NetError>>,
    /// Shard-0 store handles sharing the server's instrumentation
    /// counters (a `StripeStore` clone shares its `Arc` internals).
    stores: Vec<StripeStore>,
}

/// Boots an in-process server over fresh shards, keeping cloned store
/// handles so tests can read `io_stats()` for traffic the server served.
fn serve(tag: &str, shards: usize, opts: &StoreOptions) -> Harness {
    let dir = tmpdir(tag);
    let set = ShardSet::create(&dir, shards, opts).expect("create shards");
    let stores = (0..shards)
        .map(|i| set.shard(i).expect("shard").clone())
        .collect();
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());
    Harness {
        dir,
        addr,
        handle,
        running,
        stores,
    }
}

impl Harness {
    fn stop(self) {
        self.handle.shutdown();
        self.running.join().expect("server thread").expect("run");
        std::fs::remove_dir_all(&self.dir).expect("cleanup");
    }
}

/// The acceptance scenario: 64 single-block writes landing in one
/// stripe cross the wire as one request frame and perform exactly one
/// parity pass (full re-encode) under one stripe-lock acquisition.
#[test]
fn one_stripe_batch_is_one_frame_and_one_parity_pass_over_tcp() {
    // rs:5,16,1 → (5−1)·16 = 64 data blocks per stripe.
    let h = serve(
        "onepass",
        1,
        &StoreOptions {
            code: "rs:5,16,1".parse().unwrap(),
            symbol: 32,
            stripes: 4,
        },
    );
    let client = Client::connect(&h.addr).expect("connect");
    let sym = client.block_size() as u64;

    let mut batch = IoBatch::new();
    let mut expected = vec![0u8; (64 * sym) as usize];
    for k in 0..64u64 {
        let block = (k * 29) % 64; // scrambled submission order
        let data = pattern(sym as usize, block as u8);
        expected[(block * sym) as usize..((block + 1) * sym) as usize].copy_from_slice(&data);
        batch.write(block * sym, data);
    }

    let before = h.stores[0].io_stats();
    let result = client.submit(&batch).expect("submit");
    let after = h.stores[0].io_stats();

    assert_eq!(after.stripe_locks - before.stripe_locks, 1);
    assert_eq!(after.encode_passes - before.encode_passes, 1);
    assert_eq!(after.delta_update_calls, before.delta_update_calls);

    assert_eq!(result.results.len(), 64);
    assert_eq!(result.write.full_stripe_encodes, 1);
    assert_eq!(result.write.stripes_touched, 1);
    assert_eq!(result.write.bytes, 64 * sym);

    assert_eq!(client.read_at(0, expected.len()).expect("read"), expected);
    h.stop();
}

/// A mixed cross-shard batch through both client flavors returns
/// per-op results identical to the per-op path, and the striped client
/// sends one frame per shard (each shard's store sees exactly one
/// batched pass per touched stripe).
#[test]
fn cross_shard_batches_match_per_op_semantics() {
    let h = serve(
        "xshard",
        3,
        &StoreOptions {
            code: "stair:8,4,2,1-1-2".parse().unwrap(),
            symbol: 64,
            stripes: 4,
        },
    );
    let client = Client::connect(&h.addr).expect("connect");
    let capacity = client.capacity() as usize;
    let base = pattern(capacity, 7);
    client.write_at(0, &base).expect("base write");

    let sym = client.block_size() as u64;
    let range = 20 * sym; // blocks per stripe × block size = one placement range
    let mut batch = IoBatch::new();
    batch
        .read(5, 100)
        .write(range, pattern(64, 9)) // start of shard 1's range
        .read(range * 2 + 500, 200) // shard 2
        .write(range * 3 + 7, pattern((2 * sym) as usize, 11)) // shard 0, range 3
        .read(range * 2 - 10, 20); // crosses the shard 1 → 2 boundary
    assert!(!batch.has_conflicts());

    let striped = StripedClient::connect(&h.addr, 2).expect("striped");
    for dev in [&client as &dyn BlockDevice, &striped as &dyn BlockDevice] {
        let result = dev.submit(&batch).expect("submit");
        let mut expected = base.clone();
        for op in batch.ops() {
            if let IoOp::Write { offset, data } = op {
                expected[*offset as usize..*offset as usize + data.len()].copy_from_slice(data);
            }
        }
        for (op, got) in batch.ops().iter().zip(&result.results) {
            match (op, got) {
                (IoOp::Read { offset, len }, OpResult::Read(data)) => {
                    assert_eq!(data, &expected[*offset as usize..*offset as usize + len]);
                }
                (IoOp::Write { data, .. }, OpResult::Write(w)) => {
                    assert_eq!(w.bytes, data.len() as u64);
                }
                other => panic!("result kind mismatch: {other:?}"),
            }
        }
        assert_eq!(dev.read_at(0, capacity).expect("verify"), expected);
    }
    h.stop();
}

/// Batches keep working when a shard is degraded (reads reconstruct
/// transparently), and a read-only batch from many threads through one
/// shared client stays consistent.
#[test]
fn degraded_and_concurrent_batches() {
    let h = serve(
        "degraded",
        2,
        &StoreOptions {
            code: "stair:8,4,2,1-1-2".parse().unwrap(),
            symbol: 64,
            stripes: 4,
        },
    );
    let client = Arc::new(Client::connect(&h.addr).expect("connect"));
    let capacity = client.capacity() as usize;
    let base = pattern(capacity, 23);
    client.write_at(0, &base).expect("base write");
    client.fail_device(1, 2).expect("fail");

    // A mixed batch still lands correctly with shard 1 degraded.
    let mut batch = IoBatch::new();
    batch.write(0, pattern(64, 31)).read(64, 256);
    let result = client.submit(&batch).expect("degraded submit");
    let OpResult::Read(got) = &result.results[1] else {
        panic!("op 1 is a read")
    };
    assert_eq!(got, &base[64..320]);

    // Concurrent read-only batches through the one shared connection
    // (offsets clear of the batch write above).
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let client = Arc::clone(&client);
            let base = &base;
            scope.spawn(move || {
                let mut batch = IoBatch::new();
                let at = 2048 + t * 300;
                batch.read(at as u64, 128).read(at as u64 + 128, 64);
                let result = client.submit(&batch).expect("concurrent submit");
                let OpResult::Read(a) = &result.results[0] else {
                    panic!("read")
                };
                let OpResult::Read(b) = &result.results[1] else {
                    panic!("read")
                };
                assert_eq!(a, &base[at..at + 128]);
                assert_eq!(b, &base[at + 128..at + 192]);
            });
        }
    });

    // Whole-batch failure: any out-of-range op rejects the frame.
    let mut bad = IoBatch::new();
    bad.read(client.capacity(), 1);
    assert!(client.submit(&bad).is_err());
    h.stop();
}
