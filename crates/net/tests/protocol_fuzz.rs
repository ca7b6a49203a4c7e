//! Protocol robustness: arbitrary malformed frames must come back as a
//! clean [`NetError`] — decode never panics, never allocates from a
//! hostile length, never trusts a failed checksum.
//!
//! Five layers of attack:
//! * purely random bytes fed to both frame readers;
//! * structurally plausible frames (valid length prefix, random body),
//!   among them random BATCH bodies for the two data-path decoders: the
//!   server's, which borrows write data from its frame buffer, and the
//!   client's, which streams a reply off the socket;
//! * mutations of *valid* frames — truncation at every byte, every
//!   single bit flip of a BATCH reply, oversized length prefixes,
//!   checksum damage, every opcode byte outside the dense table;
//! * lengths and counts past the caps or past the frame's end, refused
//!   before anything of that size is allocated;
//! * HELLO frames offering arbitrary versions to a live server — only
//!   the one current version opens a session, the rest are refused
//!   with an error, and the server keeps serving.

use proptest::prelude::*;
use stair_device::{OpRef, OpResult, WriteOutcome};
use stair_net::protocol::{
    read_request, read_response, write_request, write_response, Opcode, Request, Response,
    MAX_BATCH_OPS, MAX_FRAME, MAX_IO_BYTES, PROTOCOL_VERSION, TRACE_FLAG,
};
use stair_net::{Client, NetError, Server, ServerConfig, ShardSet};
use stair_obs::trace::names;
use stair_obs::{HistogramSnapshot, MetricsSnapshot, SpanRecord, TraceRecord};

/// A representative valid request frame of every opcode family.
fn sample_requests() -> Vec<Vec<u8>> {
    let data = [5u8; 32];
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
                OpRef::Read {
                    offset: 0,
                    len: 128,
                },
                OpRef::Write {
                    offset: 128,
                    data: &data,
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
            write_request(&mut wire, 7, r, None).unwrap();
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
    snap
}

/// A server outlier as a TRACE pull carries it: a one-span root.
fn sample_trace() -> TraceRecord {
    TraceRecord {
        trace_id: 5,
        root_span: 6,
        duration_us: 20_000,
        ok: false,
        slow: true,
        spans: vec![SpanRecord {
            trace_id: 5,
            span_id: 6,
            parent_id: 0,
            name: names::SRV_REQUEST,
            start_us: 77,
            duration_us: 20_000,
            ok: false,
            bytes: 4096,
        }],
    }
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
        Response::Traces(vec![sample_trace()]),
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

/// Decoding must never panic; only Ok or a clean error may come back,
/// and what decodes holds the caps.
fn decode_both(bytes: &[u8]) {
    let mut frame = Vec::new();
    if let Ok((_, Request::Batch { ops, .. }, _)) = read_request(&mut &bytes[..], &mut frame) {
        assert!(ops.len() <= MAX_BATCH_OPS as usize);
        let budget: usize = ops.iter().map(OpRef::byte_len).sum();
        assert!(budget <= MAX_IO_BYTES as usize);
    }
    if let Ok((_, Response::Batched(results))) = read_response(&mut &bytes[..]) {
        assert!(results.len() <= MAX_BATCH_OPS as usize);
    }
}

/// A request frame of `opcode` around `payload`.
fn request_frame(opcode: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(13 + payload.len());
    frame.extend_from_slice(&(9 + payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&1u64.to_le_bytes());
    frame.push(opcode);
    frame.extend_from_slice(payload);
    frame
}

/// A response frame of `status` around `payload`, its checksum right.
fn response_frame(status: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(17 + payload.len());
    frame.extend_from_slice(&(13 + payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&1u64.to_le_bytes());
    frame.push(status);
    frame.extend_from_slice(&stair_gf::fletcher32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// A BATCH reply carrying a 0-byte read, a 3-byte read, a 4 KiB read
/// and a write outcome, as `write_response` frames it.
fn mixed_reply() -> (Response, Vec<u8>) {
    // No data byte reads as a reply kind (0 or 1), so a misparse that
    // lands in the data cannot look like a reply.
    let page: Vec<u8> = (0..4096).map(|i| 2 + (i % 200) as u8).collect();
    let resp = Response::Batched(vec![
        OpResult::Read(Vec::new()),
        OpResult::Read(vec![0xA1, 0xB2, 0xC3]),
        OpResult::Read(page),
        OpResult::Write(WriteOutcome {
            bytes: 5,
            blocks_written: 1,
            stripes_touched: 1,
            full_stripe_encodes: 0,
            delta_updates: 1,
        }),
    ]);
    let mut wire = Vec::new();
    write_response(&mut wire, 9, &resp).unwrap();
    (resp, wire)
}

/// Which bytes of [`mixed_reply`]'s payload steer the parse (the count,
/// each reply's kind, each read's length) rather than carry data.
fn structural_bytes(resp: &Response) -> Vec<std::ops::Range<usize>> {
    let Response::Batched(results) = resp else {
        unreachable!()
    };
    // The reply count, then per reply its kind (and a read's length).
    let mut out = Vec::new();
    out.push(0..4);
    let mut at = 4;
    for r in results {
        match r {
            OpResult::Read(data) => {
                out.push(at..at + 5);
                at += 5 + data.len();
            }
            OpResult::Write(_) => {
                out.push(at..at + 1);
                at += 41;
            }
        }
    }
    out
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

    /// Random BATCH bodies behind a valid request header never panic
    /// the borrowing decoder, and what decodes holds the caps.
    #[test]
    fn random_batch_request_bodies_never_panic(
        body in proptest::collection::vec(any::<u8>(), 0..160),
        count in 0u32..6,
        lens in proptest::collection::vec(0u32..64, 6),
    ) {
        // Half-plausible: a batch id, a small count, then ops whose
        // kinds and lengths are random around the real layout.
        let mut payload = 77u64.to_le_bytes().to_vec();
        payload.extend_from_slice(&count.to_le_bytes());
        for (k, len) in lens.iter().take(count as usize).enumerate() {
            payload.push(body.get(k).copied().unwrap_or(0) % 3);
            payload.extend_from_slice(&(k as u64 * 64).to_le_bytes());
            payload.extend_from_slice(&len.to_le_bytes());
            payload.extend_from_slice(&body[..(*len as usize).min(body.len())]);
        }
        decode_both(&request_frame(Opcode::Batch as u8, &payload));
        decode_both(&request_frame(Opcode::Batch as u8, &body));
    }

    /// Random BATCH reply bodies with a matching checksum never panic
    /// the streamed decoder, and what decodes holds the caps.
    #[test]
    fn random_batch_reply_bodies_never_panic(
        body in proptest::collection::vec(any::<u8>(), 0..160),
        count in 0u32..6,
    ) {
        let mut payload = count.to_le_bytes().to_vec();
        payload.extend_from_slice(&body);
        decode_both(&response_frame(Opcode::Batch as u8, &payload));
        decode_both(&response_frame(Opcode::Batch as u8, &body));
    }

    /// Every truncation of every valid frame is a clean error.
    #[test]
    fn truncated_valid_frames_are_clean_errors(seed in any::<u64>()) {
        for wire in sample_requests() {
            let cut = (seed as usize) % wire.len();
            prop_assert!(read_request(&mut &wire[..cut], &mut Vec::new()).is_err());
        }
        for wire in sample_responses() {
            let cut = (seed as usize) % wire.len();
            prop_assert!(read_response(&mut &wire[..cut]).is_err());
        }
    }

    /// Flipping any single bit of a valid request is either still a
    /// parse (requests carry no checksum; some flips land in payload
    /// bytes of another valid frame) or a clean error — never a panic.
    #[test]
    fn request_bit_flips_never_panic(seed in any::<u64>()) {
        for wire in sample_requests() {
            let mut bent = wire.clone();
            let at = (seed as usize) % bent.len();
            bent[at] ^= 1 << (seed % 8) as u8;
            decode_both(&bent);
        }
    }
}

/// A BATCH reply cut at any byte is an error, never a short result.
#[test]
fn a_reply_cut_at_every_byte_is_an_error() {
    let (resp, wire) = mixed_reply();
    assert_eq!(read_response(&mut wire.as_slice()).unwrap(), (9, resp));
    for cut in 0..wire.len() {
        match read_response(&mut &wire[..cut]) {
            Err(NetError::Io(_) | NetError::Protocol(_)) => {}
            other => panic!("cut at {cut} of {}: {other:?}", wire.len()),
        }
    }
}

/// Every single bit flip of a BATCH reply: in a data byte (read bytes,
/// write counters) it fails the checksum; in a byte that steers the
/// parse (count, kind, length) it is a protocol or transport error; in
/// the header it never passes for the original reply.
#[test]
fn every_reply_bit_flip_is_caught() {
    let (resp, wire) = mixed_reply();
    let structural = structural_bytes(&resp);
    for at in 0..wire.len() {
        for bit in 0..8 {
            let mut bent = wire.clone();
            bent[at] ^= 1 << bit;
            let got = read_response(&mut bent.as_slice());
            let what = format!("byte {at} bit {bit}: {got:?}");
            match at {
                // The length prefix: the frame no longer ends where the
                // bytes do.
                0..=3 => assert!(
                    matches!(got, Err(NetError::Io(_) | NetError::Protocol(_))),
                    "{what}"
                ),
                // The request id: still this reply, for another request.
                4..=11 => assert!(matches!(got, Ok((id, _)) if id != 9), "{what}"),
                // The status: never the original reply.
                12 => assert!(!matches!(&got, Ok((9, r)) if *r == resp), "{what}"),
                // The checksum itself.
                13..=16 => assert!(matches!(got, Err(NetError::Checksum { .. })), "{what}"),
                _ if structural.iter().any(|r| r.contains(&(at - 17))) => assert!(
                    matches!(got, Err(NetError::Io(_) | NetError::Protocol(_))),
                    "{what}"
                ),
                _ => assert!(matches!(got, Err(NetError::Checksum { .. })), "{what}"),
            }
        }
    }
}

/// A read length past the frame's remaining bytes, or a reply count
/// past the op cap, is refused before anything of that size is
/// allocated; so are request ops past the caps.
#[test]
fn lengths_past_the_frame_or_the_caps_are_refused() {
    for len in [4u32, 1 << 20, MAX_IO_BYTES, u32::MAX] {
        let mut payload = 1u32.to_le_bytes().to_vec();
        payload.push(0);
        payload.extend_from_slice(&len.to_le_bytes());
        payload.extend_from_slice(&[7, 7, 7]);
        match read_response(&mut response_frame(Opcode::Batch as u8, &payload).as_slice()) {
            Err(NetError::Protocol(msg)) => assert!(msg.contains("exceeds"), "{len}: {msg}"),
            other => panic!("a {len}-byte read in a 3-byte frame: {other:?}"),
        }
    }
    let payload = (MAX_BATCH_OPS + 1).to_le_bytes();
    assert!(matches!(
        read_response(&mut response_frame(Opcode::Batch as u8, &payload).as_slice()),
        Err(NetError::Protocol(_))
    ));
    // A request whose op count or one op's length passes its cap.
    for (count, len) in [(MAX_BATCH_OPS + 1, 0), (1, MAX_IO_BYTES + 1), (1, u32::MAX)] {
        let mut payload = 5u64.to_le_bytes().to_vec();
        payload.extend_from_slice(&count.to_le_bytes());
        payload.push(1);
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&len.to_le_bytes());
        let frame = request_frame(Opcode::Batch as u8, &payload);
        assert!(matches!(
            read_request(&mut frame.as_slice(), &mut Vec::new()),
            Err(NetError::Protocol(_))
        ));
    }
    // A write longer than what its frame holds.
    let mut payload = 5u64.to_le_bytes().to_vec();
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.push(1);
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.extend_from_slice(&64u32.to_le_bytes());
    payload.extend_from_slice(&[1; 63]);
    let frame = request_frame(Opcode::Batch as u8, &payload);
    assert!(matches!(
        read_request(&mut frame.as_slice(), &mut Vec::new()),
        Err(NetError::Protocol(_))
    ));
}

#[test]
fn oversized_length_prefixes_are_rejected_without_allocating() {
    for len in [MAX_FRAME + 1, u32::MAX] {
        let frame = len.to_le_bytes().to_vec();
        assert!(matches!(
            read_request(&mut frame.as_slice(), &mut Vec::new()),
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
        let mut buf = Vec::new();
        let got = read_request(&mut frame.as_slice(), &mut buf);
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
    match read_request(&mut frame.as_slice(), &mut Vec::new()) {
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
        write_request(&mut stream, 3, &Request::Hello { version }, None).expect("send");
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
