//! Protocol robustness: arbitrary malformed frames must come back as a
//! clean [`NetError`] — decode never panics, never allocates from a
//! hostile length, never trusts a failed checksum.
//!
//! Four layers of attack:
//! * purely random bytes fed to both frame readers;
//! * structurally plausible frames (valid length prefix, random body);
//! * mutations of *valid* frames — truncation at every boundary,
//!   oversized length prefixes, checksum damage, every opcode byte
//!   outside the dense table;
//! * HELLO frames offering arbitrary versions to a live server — only
//!   the one current version opens a session, the rest are refused
//!   with an error, and the server keeps serving.

use proptest::prelude::*;
use stair_device::{IoOp, OpResult, WriteOutcome};
use stair_net::protocol::{
    read_request, read_response, write_request, write_response, Opcode, Request, Response,
    MAX_FRAME, PROTOCOL_VERSION, TRACE_FLAG,
};
use stair_net::{Client, NetError, Server, ServerConfig, ShardSet};
use stair_obs::{HistogramSnapshot, MetricsSnapshot, TraceEvent};

/// A representative valid request frame of every opcode family.
fn sample_requests() -> Vec<Vec<u8>> {
    let reqs = [
        Request::Hello {
            version: PROTOCOL_VERSION,
        },
        Request::Status,
        Request::Hello {
            version: PROTOCOL_VERSION - 1,
        },
        Request::Flush,
        Request::FailDevice {
            shard: 1,
            device: 2,
        },
        Request::Scrub { threads: 2 },
        Request::Batch {
            batch_id: 42,
            ops: vec![
                IoOp::Read {
                    offset: 0,
                    len: 128,
                },
                IoOp::Write {
                    offset: 128,
                    data: vec![5; 32],
                },
            ],
        },
        Request::Repair { threads: 1 },
        Request::Shutdown,
        Request::Metrics,
        Request::Trace,
    ];
    reqs.iter()
        .map(|r| {
            let mut wire = Vec::new();
            write_request(&mut wire, 7, r).unwrap();
            wire
        })
        .collect()
}

fn sample_metrics() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    snap.add_counter("srv.req.batch", 12);
    snap.add_gauge("srv.connections", 2);
    snap.add_histogram(
        "srv.lat_us.batch",
        &HistogramSnapshot {
            buckets: vec![0, 1, 3],
            sum: 9,
            max: 3,
        },
    );
    snap.slow_ops.push(TraceEvent {
        t_us: 77,
        kind: "batch".into(),
        shard: 1,
        bytes: 4096,
        duration_us: 20_000,
        ok: true,
    });
    snap
}

fn sample_responses() -> Vec<Vec<u8>> {
    let resps = [
        Response::Batched(vec![
            OpResult::Read(vec![1, 2, 3, 4, 5]),
            OpResult::Write(WriteOutcome::default()),
        ]),
        Response::Flushed,
        Response::Batched(vec![]),
        Response::Metrics(sample_metrics()),
        Response::Error("nope".into()),
    ];
    resps
        .iter()
        .map(|r| {
            let mut wire = Vec::new();
            write_response(&mut wire, 9, r).unwrap();
            wire
        })
        .collect()
}

/// Decoding must never panic; only Ok or a clean error may come back.
fn decode_both(bytes: &[u8]) {
    let _ = read_request(&mut &bytes[..]);
    let _ = read_response(&mut &bytes[..]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Purely random bytes never panic either reader.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        decode_both(&bytes);
    }

    /// Structurally plausible frames — a correct length prefix over a
    /// random body — never panic, and a random body with a random
    /// opcode byte is rejected, not misparsed into a huge allocation.
    #[test]
    fn framed_random_bodies_never_panic(body in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        decode_both(&frame);
    }

    /// Every truncation of every valid frame is a clean error.
    #[test]
    fn truncated_valid_frames_are_clean_errors(seed in any::<u64>()) {
        for wire in sample_requests() {
            let cut = (seed as usize) % wire.len();
            prop_assert!(read_request(&mut &wire[..cut]).is_err());
        }
        for wire in sample_responses() {
            let cut = (seed as usize) % wire.len();
            prop_assert!(read_response(&mut &wire[..cut]).is_err());
        }
    }

    /// Flipping any single byte of a valid response is either still a
    /// parse (requests carry no checksum; some flips land in payload
    /// bytes of another valid frame) or a clean error — never a panic.
    /// Flips inside the response payload specifically must be caught
    /// by the checksum.
    #[test]
    fn bit_flips_never_panic_and_payload_flips_fail_checksum(seed in any::<u64>()) {
        for wire in sample_requests() {
            let mut bent = wire.clone();
            let at = (seed as usize) % bent.len();
            bent[at] ^= 1 << (seed % 8) as u8;
            decode_both(&bent);
        }
        // Response payload flips: bytes past the 17-byte envelope
        // (len + id + status + checksum) are checksummed.
        let mut wire = Vec::new();
        let resp = Response::Batched(vec![OpResult::Read(vec![0xAB; 64])]);
        write_response(&mut wire, 1, &resp).unwrap();
        let at = 17 + (seed as usize) % (wire.len() - 17);
        wire[at] ^= 0xFF;
        match read_response(&mut wire.as_slice()) {
            Err(NetError::Checksum { .. }) => {}
            other => prop_assert!(false, "payload flip must fail the checksum, got {other:?}"),
        }
    }
}

#[test]
fn oversized_length_prefixes_are_rejected_without_allocating() {
    for len in [MAX_FRAME + 1, u32::MAX] {
        let frame = len.to_le_bytes().to_vec();
        assert!(matches!(
            read_request(&mut frame.as_slice()),
            Err(NetError::Protocol(_))
        ));
        assert!(matches!(
            read_response(&mut frame.as_slice()),
            Err(NetError::Protocol(_))
        ));
    }
}

#[test]
fn only_the_dense_opcode_table_decodes() {
    // Every opcode byte (trace flag masked off) outside the dense
    // table 1..=N is refused.
    let n = Opcode::ALL.len() as u8;
    assert_eq!(
        Opcode::ALL.map(|op| op as u8),
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    );
    for byte in 0..=u8::MAX {
        let mut frame = Vec::new();
        frame.extend_from_slice(&9u32.to_le_bytes());
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.push(byte);
        let got = read_request(&mut frame.as_slice());
        if !(1..=n).contains(&(byte & !TRACE_FLAG)) {
            assert!(
                matches!(got, Err(NetError::Protocol(_))),
                "opcode byte {byte} must be refused, got {got:?}"
            );
        }
        // A response announcing the byte as its status fares the same.
        let mut frame = Vec::new();
        frame.extend_from_slice(&13u32.to_le_bytes());
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.push(byte);
        let sum = stair_gf::fletcher32(&[]);
        frame.extend_from_slice(&sum.to_le_bytes());
        let got = read_response(&mut frame.as_slice());
        if byte > n {
            assert!(
                matches!(got, Err(NetError::Protocol(_))),
                "status byte {byte} must be refused, got {got:?}"
            );
        }
    }
}

#[test]
fn unknown_batch_kinds_are_rejected() {
    // A BATCH frame whose op kind byte is garbage.
    let mut payload = Vec::new();
    payload.extend_from_slice(&5u64.to_le_bytes()); // batch id
    payload.extend_from_slice(&1u32.to_le_bytes()); // one op
    payload.push(7); // unknown kind
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.extend_from_slice(&4u32.to_le_bytes());
    let mut frame = Vec::new();
    frame.extend_from_slice(&(9 + payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&1u64.to_le_bytes());
    frame.push(Opcode::Batch as u8);
    frame.extend_from_slice(&payload);
    match read_request(&mut frame.as_slice()) {
        Err(NetError::Protocol(msg)) => assert!(msg.contains("kind 7"), "{msg}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
fn hello_of_any_other_version_is_refused_by_a_live_server() {
    let dir = std::env::temp_dir().join(format!("stair-fuzz-hello-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = stair_store::StoreOptions {
        code: "rs:6,4,2".parse().unwrap(),
        symbol: 64,
        stripes: 2,
    };
    let set = ShardSet::create(&dir, 1, &opts).expect("create shards");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let running = std::thread::spawn(move || server.run());

    // Edge versions plus a seeded pseudo-random spray.
    let mut versions = vec![0, 1, 2, 3, 4, 6, 7, u32::MAX];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..56 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        versions.push((state >> 32) as u32);
    }
    for version in versions {
        if version == PROTOCOL_VERSION {
            continue;
        }
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        write_request(&mut stream, 3, &Request::Hello { version }).expect("send");
        match read_response(&mut stream) {
            Ok((3, Response::Error(msg))) => {
                assert!(msg.contains(&format!("v{version}")), "{msg}");
                assert!(msg.contains(&format!("v{PROTOCOL_VERSION}")), "{msg}");
            }
            other => panic!("v{version}: expected a refusal, got {other:?}"),
        }
    }
    // Still serving: the one current version opens a session.
    let client = Client::connect(&addr).expect("current version connects");
    client.shutdown_server().expect("shutdown");
    running.join().expect("server thread").expect("run");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
