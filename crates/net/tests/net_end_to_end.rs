//! End-to-end test of the network service: a 4-shard server under
//! concurrent mixed read/write traffic from 8 clients, with a device
//! failure injected mid-traffic — every read (clean or degraded) must
//! return checksum-verified data, and repair + scrub must restore a
//! clean store. Mirrors the PR's acceptance scenario.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use stair_device::{BlockDevice, DeviceError, FaultAdmin, OpRef};
use stair_net::{Client, NetError, Server, ServerConfig, ShardSet, StripedClient};
use stair_store::StoreOptions;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stair-net-e2e-{tag}-{}", std::process::id()));
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

/// Spawns a server over fresh shards; returns (addr, run-thread, dir).
fn start_server(
    tag: &str,
    shards: usize,
    workers: usize,
) -> (
    String,
    std::thread::JoinHandle<Result<(), NetError>>,
    std::path::PathBuf,
) {
    let dir = tmpdir(tag);
    let set = ShardSet::create(&dir, shards, &opts()).expect("create shards");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig { workers }).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle, dir)
}

#[test]
fn eight_clients_mixed_rw_with_mid_traffic_device_failure() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 6;
    const FAIL_AT: usize = 3;

    let (addr, server, dir) = start_server("mixed", 4, 4);
    let capacity = Client::connect(&addr).expect("probe").capacity() as usize;
    let region = capacity / CLIENTS;
    assert!(region > 0);

    // Round barrier: every client (plus the failure injector) syncs at
    // each round boundary, so the device failure lands mid-traffic with
    // reads and writes in flight right after it.
    let barrier = Barrier::new(CLIENTS + 1);
    let verified_degraded = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let addr = addr.clone();
            let barrier = &barrier;
            let verified_degraded = &verified_degraded;
            scope.spawn(move || {
                let client = Client::connect(&addr).expect("client connect");
                let offset = (c * region) as u64;
                for round in 0..ROUNDS {
                    barrier.wait();
                    if round == FAIL_AT + 1 {
                        // The injector failed shard 1's device 2 during
                        // the previous round; every client must see it,
                        // proving the reads below really run degraded
                        // (each region stripes across all 4 shards).
                        let status = client.status().expect("status");
                        assert_eq!(
                            status.shards[1].failed_devices,
                            vec![2],
                            "client {c}: device failure not visible"
                        );
                        verified_degraded.fetch_add(1, Ordering::Relaxed);
                    }
                    let seed = (c * ROUNDS + round) as u64;
                    let payload = pattern(region, seed);
                    client.write_at(offset, &payload).expect("write");
                    let got = client.read_at(offset, region).expect("read");
                    assert_eq!(got, payload, "client {c} round {round} read mismatch");
                    // Interleave a read of a neighbour's region too (it
                    // may be mid-write, but the transport checksum must
                    // still verify and the length must match).
                    let other = ((c + 1) % CLIENTS * region) as u64;
                    let got = client.read_at(other, region).expect("neighbour read");
                    assert_eq!(got.len(), region);
                }
            });
        }
        // The failure injector: at the FAIL_AT boundary, kill a device
        // on shard 1 while clients are mid-round.
        let admin = Client::connect(&addr).expect("admin connect");
        for round in 0..ROUNDS {
            barrier.wait();
            if round == FAIL_AT {
                admin.fail_device(1, 2).expect("fail device");
            }
        }
    });
    assert_eq!(verified_degraded.load(Ordering::Relaxed), CLIENTS);

    // The failure is visible in status, reads still verify end to end.
    let admin = Client::connect(&addr).expect("admin");
    let status = admin.status().expect("status");
    assert_eq!(status.shards.len(), 4);
    assert_eq!(status.shards[1].failed_devices, vec![2]);

    // Online repair brings the store back to clean.
    let repair = admin.repair(2).expect("repair");
    assert!(repair.complete(), "{repair:?}");
    assert!(repair.devices_replaced >= 1);
    let scrub = admin.scrub(2).expect("scrub");
    assert!(scrub.clean(), "{scrub:?}");
    let status = admin.status().expect("status after repair");
    assert!(status.shards.iter().all(|s| s.failed_devices.is_empty()));

    admin.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn striped_client_round_trips_across_lanes() {
    let (addr, server, dir) = start_server("striped", 3, 4);
    let striped = StripedClient::connect(&addr, 4).expect("striped connect");
    let capacity = striped.info().capacity as usize;
    let payload = pattern(capacity, 7);
    let summary = striped.write_at(0, &payload).expect("striped write");
    assert_eq!(summary.bytes as usize, capacity);
    assert_eq!(striped.read_at(0, capacity).expect("striped read"), payload);
    // Unaligned sub-span.
    assert_eq!(
        striped.read_at(1001, 2003).expect("sub-span"),
        payload[1001..3004].to_vec()
    );

    let admin = Client::connect(&addr).expect("admin");
    admin.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn damage_beyond_coverage_comes_back_as_remote_error() {
    let (addr, server, dir) = start_server("beyond", 2, 2);
    let client = Client::connect(&addr).expect("client");
    let capacity = client.capacity() as usize;
    client
        .write_at(0, &pattern(capacity, 3))
        .expect("seed write");
    // m = 2 covers two failed devices on a shard; a third is fatal.
    for dev in 0..3 {
        client.fail_device(0, dev).expect("fail");
    }
    match client.read_at(0, capacity) {
        Err(DeviceError::Corrupt(msg)) => assert!(msg.contains("unrecoverable"), "{msg}"),
        other => panic!("expected Corrupt(unrecoverable), got {other:?}"),
    }
    // Shard 1 is untouched: spans entirely on it still read.
    let range = client.info().range_blocks as usize * client.block_size();
    let got = client.read_at(range as u64, range).expect("healthy shard");
    assert_eq!(got, pattern(capacity, 3)[range..2 * range].to_vec());

    // Out-of-range and bad-shard requests come back as clean errors,
    // and the connection stays usable afterwards.
    let past = OpRef::Read {
        offset: client.capacity(),
        len: 1,
    };
    assert!(matches!(
        client.submit_ops(&[past]),
        Err(NetError::Remote(_))
    ));
    assert!(matches!(
        client.fail_device(99, 0),
        Err(DeviceError::OutOfRange(_))
    ));
    assert!(client.status().is_ok());

    client.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn server_survives_abrupt_client_disconnects() {
    let (addr, server, dir) = start_server("hangup", 2, 2);
    for _ in 0..5 {
        let client = Client::connect(&addr).expect("connect");
        drop(client); // no goodbye
    }
    let client = Client::connect(&addr).expect("connect after hangups");
    assert_eq!(client.status().expect("status").shards.len(), 2);
    client.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("server run");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn writes_persist_across_server_restart() {
    let dir = tmpdir("restart");
    let set = ShardSet::create(&dir, 2, &opts()).expect("create");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let run = std::thread::spawn(move || server.run());

    let client = Client::connect(&addr).expect("client");
    let capacity = client.capacity() as usize;
    let payload = pattern(capacity, 11);
    client.write_at(0, &payload).expect("write");
    client.flush().expect("flush");
    client.shutdown_server().expect("shutdown");
    run.join().expect("thread").expect("run");

    // Reopen the same root with a fresh server.
    let set = ShardSet::open(&dir).expect("reopen");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("rebind");
    let addr = server.local_addr().to_string();
    let run = std::thread::spawn(move || server.run());
    let client = Client::connect(&addr).expect("client 2");
    assert_eq!(client.read_at(0, capacity).expect("read"), payload);
    client.shutdown_server().expect("shutdown 2");
    run.join().expect("thread 2").expect("run 2");
    std::fs::remove_dir_all(&dir).unwrap();
}
