//! Blocking client for the stair-net protocol.
//!
//! [`Client`] owns one connection and reuses it across calls. All data
//! moves as **batches**: [`Client::submit_ops`] ships many ops in one
//! BATCH frame — one round trip instead of one per op — and the
//! `read_at` / `write_at` / `submit` the [`BlockDevice`] trait provides
//! are lists on the same path. Ops larger than [`MAX_IO_BYTES`] are cut
//! into several frames sent **one at a time**: the server executes a
//! connection's frames in order on the thread that reads them, so a
//! second frame in flight would not run any sooner — and a client still
//! writing while whole-frame replies fill the socket would deadlock
//! with a server that is writing them. Each response is matched to its
//! request by ID. [`StripedClient`] splits a batch by placement so each
//! touched shard gets its own frame, sent down the lanes in parallel.
//! Every response payload is checksum-verified by the frame layer
//! before it is trusted, and server-reported failures are normalized by
//! one shared helper ([`ok_or_remote`]).
//!
//! This file holds the connection, the data path and the two calls no
//! trait has (TRACE pull, SHUTDOWN). Status, flush, scrub, repair,
//! metrics and fault injection are the clients' `BlockDevice`/
//! `FaultAdmin` methods in `device_impl.rs`, each one request through
//! `Client::call`; there is no inherent copy beside them.
//!
//! **Resilience**: a broken connection is not a dead client. Any call
//! that hits a transport error drops the connection and the next call
//! redials transparently; *idempotent* requests additionally retry once
//! after reconnecting, so a server restart or dropped socket between
//! ops is invisible to the caller. That includes every read **and
//! write**: a BATCH frame carries a client-chosen batch id that is
//! reissued unchanged on the retry, and re-applying writes is safe
//! because ops are absolute post-images the server's stores journal.
//! Only fault injection and shutdown never auto-retry.
//!
//! The connection lives behind a [`Mutex`], so every method takes
//! `&self` and a `Client` is `Send + Sync` — usable behind
//! `Arc<Client>` (or `Arc<dyn BlockDevice>`) from many threads, which
//! serialize on the connection.
//!
//! [`ok_or_remote`]: crate::protocol::ok_or_remote
//! [`BlockDevice`]: stair_device::BlockDevice

use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};

use stair_device::{OpRef, OpResult};
use stair_obs::sync::lock;
use stair_obs::trace::{self, names};
use stair_obs::TraceRecord;

use crate::device_impl::stitch;
use crate::protocol::{
    encode_batch, ok_or_remote, read_response, write_frame, write_request_traced, Opcode, Request,
    Response, ServerInfo, MAX_BATCH_OPS, MAX_IO_BYTES, PROTOCOL_VERSION,
};
use crate::NetError;

/// Stitch-back map: per sub-op, `(global op index, byte offset of the
/// fragment within that op's span)`.
type StitchMap = Vec<(usize, usize)>;

/// The mutable half of a client: the stream plus the request-ID
/// counter, locked together for the duration of a call or transfer.
struct Conn {
    stream: TcpStream,
    next_id: u64,
}

impl Conn {
    fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// One request, one response.
    fn call(&mut self, req: &Request) -> Result<Response, NetError> {
        let id = self.next_id();
        write_request_traced(&mut self.stream, id, req, trace::current())?;
        self.response_to(id)
    }

    /// The response to request `id`, the one request in flight (server
    /// errors become [`NetError::Remote`]).
    fn response_to(&mut self, id: u64) -> Result<Response, NetError> {
        let (rid, resp) = read_response(&mut self.stream)?;
        if rid != id {
            return Err(NetError::Protocol(format!(
                "response for request {rid} while awaiting {id}"
            )));
        }
        ok_or_remote(resp)
    }

    /// Sends `frames` as BATCH requests, each answered before the next
    /// goes out, folding each response into `results`. The first
    /// failure stops the transfer with nothing left in flight, so the
    /// connection stays usable.
    fn send_frames(&mut self, frames: &[Frame], results: &mut [OpResult]) -> Result<(), NetError> {
        for frame in frames {
            let (id, ctx) = (self.next_id(), trace::current());
            write_frame(&mut self.stream, id, Opcode::Batch, ctx, &frame.payload)?;
            match self.response_to(id)? {
                Response::Batched(sub) => stitch(results, &frame.map, sub)?,
                other => return Err(unexpected("BATCH", &other)),
            }
        }
        Ok(())
    }
}

/// A single-connection blocking client (`Send + Sync`; calls from
/// different threads serialize on the connection).
pub struct Client {
    addr: String,
    conn: Mutex<Option<Conn>>,
    info: ServerInfo,
}

impl Client {
    /// Connects and performs the HELLO handshake.
    ///
    /// # Errors
    ///
    /// Connection failures, a peer speaking another protocol version,
    /// and protocol errors.
    pub fn connect(addr: &str) -> Result<Self, NetError> {
        let (conn, info) = dial(addr)?;
        Ok(Client {
            addr: addr.to_string(),
            conn: Mutex::new(Some(conn)),
            info,
        })
    }

    /// What the server announced at HELLO time.
    pub fn info(&self) -> &ServerInfo {
        &self.info
    }

    /// Locks the connection slot. Poisoning means another thread
    /// panicked mid-call; the stream may hold half a conversation, but
    /// the next frame either parses or surfaces a protocol error, so
    /// the guard is taken regardless.
    fn slot(&self) -> MutexGuard<'_, Option<Conn>> {
        lock(&self.conn)
    }

    /// Runs `f` against a live connection, redialing a dropped one
    /// first. A transport failure ([`NetError::Io`]) marks the
    /// connection dead; when `idempotent` is set the call then redials
    /// and retries **once** — re-running an idempotent request cannot
    /// change the outcome, so a socket that died between ops is
    /// invisible to the caller. Non-idempotent requests surface the
    /// error (the dead connection still heals on the next call).
    /// Protocol and checksum failures also retire the connection (the
    /// stream may be desynchronized) but never retry.
    fn with_conn<T>(
        &self,
        idempotent: bool,
        mut f: impl FnMut(&mut Conn) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let mut slot = self.slot();
        for attempt in 0..2 {
            if slot.is_none() {
                let (conn, info) = dial(&self.addr)?;
                if info.capacity != self.info.capacity || info.block_size != self.info.block_size {
                    return Err(NetError::Protocol(format!(
                        "server at {} changed shape across reconnect ({} bytes / {}-byte blocks, was {} / {})",
                        self.addr, info.capacity, info.block_size,
                        self.info.capacity, self.info.block_size,
                    )));
                }
                *slot = Some(conn);
            }
            #[expect(
                clippy::expect_used,
                reason = "slot was filled two lines up; None here is a local logic bug"
            )]
            match f(slot.as_mut().expect("connected above")) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    let transport = matches!(e, NetError::Io(_));
                    if transport || matches!(e, NetError::Protocol(_) | NetError::Checksum { .. }) {
                        *slot = None;
                    }
                    if !(transport && idempotent && attempt == 0) {
                        return Err(e);
                    }
                }
            }
        }
        #[expect(
            clippy::unreachable,
            reason = "the retry loop returns on attempt 1; falling out is a logic bug"
        )]
        {
            unreachable!("loop returns on the second attempt")
        }
    }

    /// The one data path: every op of `ops` travels in one BATCH frame
    /// (several frames only past the per-request caps), so N small ops
    /// cost one round trip instead of N. Every submission is retryable
    /// — each frame's bytes (batch id included) are encoded once,
    /// before any send, so a retry over a fresh connection reissues
    /// them verbatim and the server can recognise the redelivery.
    ///
    /// # Errors
    ///
    /// Transport, checksum, and server failures; a failing op aborts
    /// the whole batch server-side.
    pub fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, NetError> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        // Named for what the list is, whichever method built it.
        let span = match ops {
            [OpRef::Read { .. }] => names::CLIENT_READ,
            [OpRef::Write { .. }] => names::CLIENT_WRITE,
            _ => names::CLIENT_SUBMIT,
        };
        let mut op = trace::span_or_root(span);
        op.set_bytes(ops.iter().map(|op| op.byte_len() as u64).sum());
        let frames = {
            let _enc = trace::span(names::CLIENT_ENCODE);
            batch_frames(ops)
        };
        // Conflicting ops take effect in submission order: within one
        // frame the server's planner guarantees it, and frames complete
        // one after another.
        self.with_conn(true, |conn| {
            // Seeded per attempt: a retry must not fold write outcomes
            // on top of what the failed attempt's frames reported.
            let mut results: Vec<OpResult> = ops.iter().map(OpRef::seed).collect();
            conn.send_frames(&frames, &mut results)?;
            Ok(results)
        })
        .inspect_err(|_| op.fail())
    }

    /// Pulls the server's flight recorder: completed traces plus the
    /// slow/errored captures the main ring has already evicted.
    ///
    /// # Errors
    ///
    /// Transport or server failures.
    pub fn pull_traces(&self) -> Result<Vec<TraceRecord>, NetError> {
        self.call(true, &Request::Trace, |resp| match resp {
            Response::Traces(traces) => Ok(traces),
            other => Err(other),
        })
    }

    /// Asks the server to shut down cleanly.
    ///
    /// # Errors
    ///
    /// Transport or server failures.
    pub fn shutdown_server(&self) -> Result<(), NetError> {
        self.call(false, &Request::Shutdown, |resp| match resp {
            Response::ShuttingDown => Ok(()),
            other => Err(other),
        })
    }

    /// One request, one response — every call but BATCH, which may
    /// take several frames. `pick` takes the answer `req` expects and
    /// hands back anything else, which is a protocol error. `idempotent`
    /// is chosen per request: only those retry over a fresh connection
    /// ([`Client::with_conn`]).
    pub(crate) fn call<T>(
        &self,
        idempotent: bool,
        req: &Request,
        pick: impl FnOnce(Response) -> Result<T, Response>,
    ) -> Result<T, NetError> {
        let resp = self.with_conn(idempotent, |conn| conn.call(req))?;
        pick(resp).map_err(|other| unexpected(&req.opcode().name().to_uppercase(), &other))
    }
}

/// Dials `addr` and performs the HELLO handshake: both sides must
/// speak [`PROTOCOL_VERSION`] exactly.
fn dial(addr: &str) -> Result<(Conn, ServerInfo), NetError> {
    let stream = TcpStream::connect(addr).map_err(|e| {
        NetError::Io(std::io::Error::new(
            e.kind(),
            format!("cannot connect to {addr}: {e}"),
        ))
    })?;
    let _ = stream.set_nodelay(true);
    let mut conn = Conn { stream, next_id: 1 };
    let id = conn.next_id();
    // No trace context on the handshake itself.
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
    };
    write_request_traced(&mut conn.stream, id, &hello, None)?;
    match conn.response_to(id)? {
        Response::Hello(info) if info.version == PROTOCOL_VERSION => Ok((conn, info)),
        Response::Hello(info) => Err(NetError::Version {
            ours: PROTOCOL_VERSION,
            theirs: info.version,
        }),
        other => Err(unexpected("HELLO", &other)),
    }
}

/// One wire frame's worth of batch ops — already encoded, so a retry
/// resends the same bytes under the same batch id — plus the map that
/// stitches its replies back into the caller's result slots.
struct Frame {
    payload: Vec<u8>,
    map: StitchMap,
}

/// Packs ops into BATCH frames: fragments capped at [`MAX_IO_BYTES`]
/// per op, frames capped at [`MAX_BATCH_OPS`] ops and a combined
/// [`MAX_IO_BYTES`] byte budget — mirroring what the server's decoder
/// enforces. Small batches (the common case) land in exactly one
/// frame, i.e. one round trip.
fn batch_frames(ops: &[OpRef<'_>]) -> Vec<Frame> {
    let cap = MAX_IO_BYTES as usize;
    let mut frames: Vec<Frame> = Vec::new();
    let mut cur: Vec<OpRef<'_>> = Vec::new();
    let mut map = StitchMap::new();
    let mut budget = 0usize;
    let mut seal = |cur: &mut Vec<OpRef<'_>>, map: &mut StitchMap| {
        if !cur.is_empty() {
            frames.push(Frame {
                payload: encode_batch(next_batch_id(), cur),
                map: std::mem::take(map),
            });
            cur.clear();
        }
    };
    for (i, op) in ops.iter().enumerate() {
        let mut at = 0usize;
        loop {
            let piece = (op.byte_len() - at).min(cap);
            if budget + piece > cap || cur.len() >= MAX_BATCH_OPS as usize {
                seal(&mut cur, &mut map);
                budget = 0;
            }
            cur.push(op.piece(at, piece, op.offset() + at as u64));
            map.push((i, at));
            budget += piece;
            at += piece;
            if at >= op.byte_len() {
                break;
            }
        }
    }
    seal(&mut cur, &mut map);
    frames
}

/// A multi-connection client: each batch is split by placement into
/// one group per touched shard and the groups run down the lanes on
/// scoped threads, so a single caller can keep several server
/// connections executing at once.
pub struct StripedClient {
    lanes: Vec<Client>,
}

impl StripedClient {
    /// Opens `lanes` connections to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the first connection failure.
    pub fn connect(addr: &str, lanes: usize) -> Result<Self, NetError> {
        if lanes == 0 {
            return Err(NetError::Protocol("need at least one lane".into()));
        }
        let lanes = (0..lanes)
            .map(|_| Client::connect(addr))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StripedClient { lanes })
    }

    /// Number of connections.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The first lane — control-plane calls (status, scrub, …) go down
    /// one connection.
    pub(crate) fn lane0(&self) -> &Client {
        &self.lanes[0]
    }

    /// What the server announced at HELLO time.
    pub fn info(&self) -> ServerInfo {
        self.lanes[0].info().clone()
    }

    /// The one data path, with **one request frame per touched
    /// shard**: ops are grouped by the server's placement map
    /// (reconstructed from the HELLO geometry), each shard group ships
    /// as a single BATCH frame, and the groups run across the lanes in
    /// parallel.
    ///
    /// # Errors
    ///
    /// Span errors surface before anything is sent; afterwards the
    /// first shard failure wins.
    pub fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, NetError> {
        let placement = self.lanes[0].info().placement()?;
        let mut groups = crate::placement::split_batch(&placement, ops)?;
        // The grouping is what we're after: split_batch localizes
        // offsets for in-process shard stores, the wire speaks the
        // global space — so re-address each fragment globally.
        for g in &mut groups {
            for (piece, &(op_idx, span_off)) in g.ops.iter_mut().zip(&g.map) {
                let offset = ops[op_idx].offset() + span_off as u64;
                *piece = piece.piece(0, piece.byte_len(), offset);
            }
        }
        crate::placement::run_groups(ops, &groups, |g| {
            self.lanes[g.shard % self.lanes.len()].submit_ops(&g.ops)
        })
    }
}

/// Mints a nonzero batch id (0 means "unassigned" on the wire): a
/// counter under a per-process random high half, so ids from different
/// client processes do not read as redeliveries to the server.
fn next_batch_id() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    static BASE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    let base = BASE.get_or_init(|| {
        std::collections::hash_map::RandomState::new()
            .build_hasher()
            .finish()
            << 32
    });
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    (base | (n & 0xFFFF_FFFF)).max(1)
}

fn unexpected(what: &str, got: &Response) -> NetError {
    NetError::Protocol(format!("unexpected response to {what}: {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trait-object data path requires clients to be shareable.
    #[test]
    fn clients_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Client>();
        assert_send_sync::<StripedClient>();
    }

    /// Decodes a frame's payload back into owned ops.
    fn frame_ops(frame: &Frame) -> Vec<stair_device::IoOp> {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, Opcode::Batch, None, &frame.payload).unwrap();
        match crate::protocol::read_request(&mut wire.as_slice()).unwrap() {
            (_, Request::Batch { batch_id, ops }) => {
                assert_ne!(batch_id, 0, "every frame carries a minted batch id");
                ops
            }
            other => panic!("expected a BATCH frame, got {other:?}"),
        }
    }

    #[test]
    fn small_batches_pack_into_one_frame() {
        // 64 single-block ops: one frame, map in submission order.
        let data: Vec<Vec<u8>> = (0..64u8).map(|k| vec![k; 512]).collect();
        let ops: Vec<OpRef<'_>> = (0..64usize)
            .map(|k| OpRef::Write {
                offset: k as u64 * 512,
                data: &data[k],
            })
            .collect();
        let frames = batch_frames(&ops);
        assert_eq!(frames.len(), 1);
        assert_eq!(frame_ops(&frames[0]).len(), 64);
        assert_eq!(frames[0].map[63], (63, 0));
    }

    #[test]
    fn oversize_ops_and_budgets_split_frames() {
        use stair_device::IoOp;
        // One op bigger than the per-request cap fragments, and the
        // fragments spill across frames.
        let big = MAX_IO_BYTES as usize + 10;
        let frames = batch_frames(&[OpRef::Read {
            offset: 0,
            len: big,
        }]);
        assert_eq!(frames.len(), 2);
        assert_eq!(
            frame_ops(&frames[0]),
            [IoOp::Read {
                offset: 0,
                len: MAX_IO_BYTES as usize
            }]
        );
        assert_eq!(
            frame_ops(&frames[1]),
            [IoOp::Read {
                offset: MAX_IO_BYTES as u64,
                len: 10
            }]
        );
        assert_eq!(frames[1].map[0], (0, MAX_IO_BYTES as usize));

        // Two half-cap ops exceed the combined budget → two frames.
        let half = MAX_IO_BYTES as usize / 2 + 1;
        let frames = batch_frames(&[
            OpRef::Read {
                offset: 0,
                len: half,
            },
            OpRef::Read {
                offset: half as u64,
                len: half,
            },
        ]);
        assert_eq!(frames.len(), 2);

        // Zero-length ops still travel (and get a reply slot).
        let frames = batch_frames(&[OpRef::Read { offset: 5, len: 0 }]);
        assert_eq!(frames.len(), 1);
        assert_eq!(frame_ops(&frames[0]), [IoOp::Read { offset: 5, len: 0 }]);

        // A written op past the cap is cut at the cap, bytes intact.
        let data: Vec<u8> = (0..big).map(|i| i as u8).collect();
        let frames = batch_frames(&[OpRef::Write {
            offset: 7,
            data: &data,
        }]);
        assert_eq!(frames.len(), 2);
        assert_eq!(
            frame_ops(&frames[1]),
            [IoOp::Write {
                offset: 7 + MAX_IO_BYTES as u64,
                data: data[MAX_IO_BYTES as usize..].to_vec()
            }]
        );
    }
}
