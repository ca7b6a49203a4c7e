//! End-to-end METRICS opcode test: counters are collected *server-side*
//! and pulled over the wire — a fresh client that issued none of the
//! traffic still sees the totals, which is what proves the snapshot
//! lives in the server's registry rather than in any client.

use stair_device::{BlockDevice, IoBatch};
use stair_net::{Client, NetError, Server, ServerConfig, ShardSet};
use stair_store::StoreOptions;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stair-net-metrics-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(
    tag: &str,
) -> (
    String,
    std::thread::JoinHandle<Result<(), NetError>>,
    std::path::PathBuf,
) {
    let dir = tmpdir(tag);
    let opts = StoreOptions {
        code: "stair:8,4,2,1-1-2".parse().unwrap(),
        symbol: 64,
        stripes: 8,
    };
    let set = ShardSet::create(&dir, 2, &opts).expect("create shards");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle, dir)
}

#[test]
fn server_collects_per_opcode_metrics_served_over_the_wire() {
    let (addr, server, dir) = start_server("ops");
    let client = Client::connect(&addr).expect("connect");

    // Scripted traffic: writes, reads, a batch, and a scrub.
    let payload = vec![0xA5u8; 4096];
    client.write_at(0, &payload).expect("write");
    client.write_at(8192, &payload).expect("write");
    let got = client.read_at(0, 4096).expect("read");
    assert_eq!(got, payload);
    let mut batch = IoBatch::new();
    batch.write(16384, vec![7u8; 512]).read(0, 512);
    BlockDevice::submit(&client, &batch).expect("batch");
    client.scrub(2).expect("scrub");

    // Pull the snapshot through a *different* connection: the counters
    // must be server-side.
    let probe = Client::connect(&addr).expect("second connect");
    let snap = probe.metrics().expect("metrics");

    // Every read and write is a BATCH frame: 2 writes + 1 read + 1 batch.
    assert_eq!(
        snap.counter("srv.req.batch"),
        Some(4),
        "{:?}",
        snap.counters
    );
    for name in ["srv.req.scrub", "srv.req.hello"] {
        assert!(
            snap.counter(name).is_some_and(|v| v > 0),
            "{name} missing or zero in {:?}",
            snap.counters
        );
    }
    // Latency histograms populated for the hot opcodes.
    for name in ["srv.lat_us.batch", "srv.lat_us.scrub"] {
        let h = snap
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(h.count() > 0, "{name} recorded no samples");
    }
    // The byte counter reflects the traffic: 2 writes and a read of
    // 4096, plus 512 + 512 in the mixed batch's combined budget.
    assert_eq!(snap.counter("srv.bytes.batch"), Some(3 * 4096 + 1024));
    // The store's folded counters and the process-global gf counters
    // travel in the same snapshot.
    assert!(snap.counter("store.stripe_locks").is_some_and(|v| v > 0));
    assert!(snap.counter("gf.mult_xors").is_some());
    // Connection accounting: both clients counted, both still open.
    assert!(snap
        .counter("srv.connections_total")
        .is_some_and(|v| v >= 2));
    assert!(snap.gauge("srv.connections").is_some_and(|v| v >= 1));

    // The BlockDevice surface returns the same snapshot shape.
    let via_trait = BlockDevice::metrics(&probe).expect("trait metrics");
    assert!(via_trait.counter("srv.req.metrics").is_some_and(|v| v >= 1));

    probe.shutdown_server().expect("shutdown");
    server.join().expect("join").expect("server run");
    std::fs::remove_dir_all(&dir).unwrap();
}
