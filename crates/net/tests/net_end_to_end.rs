//! End-to-end test of the network service: a 4-shard server under
//! concurrent mixed read/write traffic from 8 clients, with a device
//! failure injected mid-traffic — every read (clean or degraded) must
//! return checksum-verified data, and repair + scrub must restore a
//! clean store — once with four requests executing at once and once
//! with one, so connections wait for the permit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use stair_device::{BlockDevice, DeviceError, FaultAdmin, OpRef, OpResult};
use stair_net::protocol::MAX_IO_BYTES;
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

type Running = (
    String,
    std::thread::JoinHandle<Result<(), NetError>>,
    std::path::PathBuf,
);

/// Spawns a server over fresh shards; returns (addr, run-thread, dir).
fn start_server(tag: &str, shards: usize, workers: usize) -> Running {
    start_server_with(tag, shards, workers, &opts())
}

fn start_server_with(tag: &str, shards: usize, workers: usize, opts: &StoreOptions) -> Running {
    let dir = tmpdir(tag);
    let set = ShardSet::create(&dir, shards, opts).expect("create shards");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig { workers }).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle, dir)
}

#[test]
fn eight_clients_mixed_rw_with_mid_traffic_device_failure() {
    for workers in [4, 1] {
        mixed_rw_with_mid_traffic_device_failure(workers);
    }
}

fn mixed_rw_with_mid_traffic_device_failure(workers: usize) {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 6;
    const FAIL_AT: usize = 3;

    let (addr, server, dir) = start_server(&format!("mixed-w{workers}"), 4, workers);
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

/// One `submit_ops` of four `MAX_IO_BYTES` reads then two
/// `MAX_IO_BYTES` writes moves more bytes each way than the loopback
/// socket buffers hold. The server executes a connection's frames on
/// the thread that reads them, so a client with several frames in
/// flight hangs here: the server blocks writing a read's reply while
/// the client blocks writing the next write frame.
#[test]
fn a_batch_of_whole_frames_each_way_completes() {
    const CAP: usize = MAX_IO_BYTES as usize;
    // 2 shards × 160 stripes × 20 data blocks × 4 KiB = 25 MiB.
    let opts = StoreOptions {
        symbol: 4096,
        stripes: 160,
        ..opts()
    };
    let (addr, server, dir) = start_server_with("whole-frames", 2, 2, &opts);
    let client = Client::connect(&addr).expect("client");
    assert!(client.capacity() as usize >= 6 * CAP);
    let old = pattern(4 * CAP, 5);
    client.write_at(0, &old).expect("seed write");
    let new = pattern(2 * CAP, 6);

    let (done, result) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let mut ops: Vec<OpRef<'_>> = (0..4)
            .map(|k| OpRef::Read {
                offset: (k * CAP) as u64,
                len: CAP,
            })
            .collect();
        ops.extend((0..2).map(|k| OpRef::Write {
            offset: ((4 + k) * CAP) as u64,
            data: &new[k * CAP..(k + 1) * CAP],
        }));
        let _ = done.send(client.submit_ops(&ops).map(|results| (client, results)));
    });
    let (client, results) = result
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the batch hung")
        .expect("batch");
    worker.join().expect("batch thread");
    for (k, got) in results[..4].iter().enumerate() {
        let OpResult::Read(got) = got else {
            panic!("op {k} is a read, got {got:?}");
        };
        assert!(
            got[..] == old[k * CAP..(k + 1) * CAP],
            "read {k} returned other bytes"
        );
    }
    assert_eq!(
        client.read_at(4 * CAP as u64, 2 * CAP).expect("read back"),
        pattern(2 * CAP, 6)
    );

    client.shutdown_server().expect("shutdown");
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
