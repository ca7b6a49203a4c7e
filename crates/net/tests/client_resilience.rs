//! Client resilience regression tests: a connection killed between ops
//! must not surface as a hard error — the client reconnects and retries
//! once. That covers writes too, per-op and batched alike: every data
//! frame carries a batch id and the server journals the post-images, so
//! redelivery is safe, and `srv.batch.redelivered` makes it observable.
//! A reply cut off mid-data is a transport error like any other: the
//! streamed reply decoder hands out nothing it has not verified. The
//! dropped connection always heals on the next call.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use stair_device::BlockDevice;
use stair_net::{Client, Server, ServerConfig, ShardSet};
use stair_store::StoreOptions;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stair-resil-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(43).wrapping_add(seed))
        .collect()
}

#[test]
fn every_op_survives_a_connection_killed_between_ops() {
    let dir = tmpdir("kill");
    let set = ShardSet::create(
        &dir,
        2,
        &StoreOptions {
            code: "stair:8,4,2,1-1-2".parse().unwrap(),
            symbol: 64,
            stripes: 4,
        },
    )
    .expect("create shards");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());

    let client = Client::connect(&addr).expect("connect");
    let capacity = client.capacity() as usize;
    let base = pattern(capacity, 3);
    client.write_at(0, &base).expect("base write");

    // Kill the server side of the socket between ops: the next read
    // hits a transport error internally, reconnects, retries once, and
    // succeeds — the caller never sees the failure.
    handle.disconnect_all();
    assert_eq!(
        client.read_at(0, 500).expect("read after kill"),
        base[..500]
    );

    // Status and a read-only batch ride the same retry path.
    handle.disconnect_all();
    assert_eq!(client.status().expect("status after kill").shards.len(), 2);
    handle.disconnect_all();
    let mut batch = stair_device::IoBatch::new();
    batch.read(100, 64).read(1000, 64);
    let result = client.submit(&batch).expect("batch after kill");
    assert_eq!(result.results.len(), 2);

    // A per-op write after a kill rides the same path: it is a one-op
    // batch, reissued under its batch id over the fresh connection.
    handle.disconnect_all();
    let outcome = client
        .write_at(0, &pattern(64, 9))
        .expect("write after kill");
    assert_eq!(outcome.bytes, 64);
    let mut expected = base.clone();
    expected[..64].copy_from_slice(&pattern(64, 9));
    assert_eq!(client.read_at(0, 500).expect("verify"), expected[..500]);
    // The socket died *before* each request reached the server, so
    // nothing was delivered twice.
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.counter("srv.batch.redelivered").unwrap_or(0), 0);

    client.shutdown_server().expect("shutdown");
    running.join().expect("server thread").expect("run");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Reads one length-prefixed frame off `from`.
fn read_frame(from: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    from.read_exact(&mut len)?;
    let mut frame = len.to_vec();
    frame.resize(4 + u32::from_le_bytes(len) as usize, 0);
    from.read_exact(&mut frame[4..])?;
    Ok(frame)
}

/// A lock-step frame relay in front of `server`, returning its address
/// and every request frame it forwarded. The `kill_at`-th request it
/// forwards (counting from 0, across connections) reaches the server
/// and is executed, but the relay passes back only the first `keep`
/// bytes of the response and hangs up on the client — a socket dying
/// mid-op, after the write landed, or halfway through the reply.
fn lossy_proxy(
    server: String,
    kill_at: usize,
    keep: impl Fn(&[u8]) -> usize + Send + 'static,
) -> (String, Arc<Mutex<Vec<Vec<u8>>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().unwrap().to_string();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&seen);
    std::thread::spawn(move || {
        for client in listener.incoming() {
            let (Ok(mut client), Ok(mut upstream)) = (client, TcpStream::connect(&server)) else {
                return;
            };
            while let Ok(request) = read_frame(&mut client) {
                if upstream.write_all(&request).is_err() {
                    break;
                }
                let Ok(response) = read_frame(&mut upstream) else {
                    break;
                };
                let forwarded = {
                    let mut log = stair_obs::sync::lock(&log);
                    log.push(request);
                    log.len()
                };
                if forwarded == kill_at + 1 {
                    let _ = client.write_all(&response[..keep(&response)]);
                    break;
                }
                if client.write_all(&response).is_err() {
                    break;
                }
            }
        }
    });
    (addr, seen)
}

#[test]
fn a_per_op_write_over_a_killed_connection_is_redelivered_exactly_once() {
    let dir = tmpdir("redeliver");
    let set = ShardSet::create(
        &dir,
        2,
        &StoreOptions {
            code: "stair:8,4,2,1-1-2".parse().unwrap(),
            symbol: 64,
            stripes: 4,
        },
    )
    .expect("create shards");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let running = std::thread::spawn(move || server.run());

    // Frames through the relay: HELLO (0), base write (1), then the
    // write whose response is swallowed (2).
    let (proxy, _) = lossy_proxy(addr.clone(), 2, |_| 0);
    let client = Client::connect(&proxy).expect("connect via proxy");
    let base = pattern(client.capacity() as usize, 5);
    client.write_at(0, &base).expect("base write");

    // The server executes this write, the client never hears back, and
    // instead of surfacing the dead socket it redials and reissues the
    // same frame — same batch id, applied idempotently.
    let patch = pattern(200, 17);
    let outcome = client.write_at(30, &patch).expect("redelivered write");
    assert_eq!(outcome.bytes, 200);
    let mut expected = base.clone();
    expected[30..230].copy_from_slice(&patch);
    assert_eq!(client.read_at(0, expected.len()).expect("verify"), expected);

    let direct = Client::connect(&addr).expect("direct connect");
    let metrics = direct.metrics().expect("metrics");
    assert_eq!(metrics.counter("srv.batch.redelivered"), Some(1));
    direct.shutdown_server().expect("shutdown");
    running.join().expect("server thread").expect("run");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn write_batches_retry_over_a_killed_connection() {
    let dir = tmpdir("batchretry");
    let set = ShardSet::create(
        &dir,
        2,
        &StoreOptions {
            code: "stair:8,4,2,1-1-2".parse().unwrap(),
            symbol: 64,
            stripes: 4,
        },
    )
    .expect("create shards");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());

    let client = Client::connect(&addr).expect("connect");
    let capacity = client.capacity() as usize;
    let base = pattern(capacity, 7);
    client.write_at(0, &base).expect("base write");

    // Kill the connection, then submit a batch *containing writes*:
    // the client reconnects and reissues the frames (same batch ids),
    // so the caller never sees the dead socket.
    handle.disconnect_all();
    let w1 = pattern(64, 21);
    let w2 = pattern(64, 22);
    let mut batch = stair_device::IoBatch::new();
    batch
        .write(0, w1.clone())
        .write(640, w2.clone())
        .read(0, 64);
    let result = client.submit(&batch).expect("write batch after kill");
    assert_eq!(result.results.len(), 3);
    let mut expected = base.clone();
    expected[..64].copy_from_slice(&w1);
    expected[640..704].copy_from_slice(&w2);
    assert_eq!(
        client.read_at(0, 704).expect("verify"),
        expected[..704],
        "acknowledged batch writes must be durable after the retry"
    );

    client.shutdown_server().expect("shutdown");
    running.join().expect("server thread").expect("run");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn a_reply_cut_mid_data_is_retried_and_returns_the_whole_stripe() {
    let dir = tmpdir("midreply");
    // One stripe of stair:8,16,2,1-2 over 4 KiB symbols: 93 blocks,
    // 372 KiB.
    let set = ShardSet::create(
        &dir,
        2,
        &StoreOptions {
            code: "stair:8,16,2,1-2".parse().unwrap(),
            symbol: 4096,
            stripes: 2,
        },
    )
    .expect("create shards");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let running = std::thread::spawn(move || server.run());

    let direct = Client::connect(&addr).expect("direct connect");
    let stripe = 93 * 4096;
    let data = pattern(stripe, 11);
    direct.write_at(0, &data).expect("stripe write");

    // Frames through the relay: HELLO (0), then the read (1), whose
    // reply is cut halfway through its data.
    let (proxy, requests) = lossy_proxy(addr, 1, |reply| reply.len() / 2);
    let client = Client::connect(&proxy).expect("connect via proxy");
    let back = client
        .read_at(0, stripe)
        .expect("read retried over a fresh connection");
    assert!(back == data, "the retried read returned other bytes");

    // The cut was a transport error: the client retired the
    // connection, redialed (a second HELLO) and sent the read again —
    // the same bytes, so the same batch id.
    let requests = stair_obs::sync::lock(&requests).clone();
    assert_eq!(requests.len(), 4, "HELLO, read, HELLO, read");
    assert_eq!(requests[0], requests[2]);
    assert_eq!(
        requests[1], requests[3],
        "the retry must resend the same frame"
    );
    let metrics = direct.metrics().expect("metrics");
    assert_eq!(metrics.counter("srv.batch.redelivered"), Some(1));
    direct.shutdown_server().expect("shutdown");
    running.join().expect("server thread").expect("run");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
