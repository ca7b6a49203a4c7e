//! The stair-net wire protocol: length-prefixed binary frames with
//! request IDs and per-response payload checksums.
//!
//! # Framing
//!
//! Every integer is little-endian. A **request** frame is
//!
//! ```text
//! [u32 len] [u64 request_id] [u8 opcode] [payload …]
//! ```
//!
//! where `len` counts everything after itself (so `9 + payload`). The
//! opcode byte's high bit is the **trace flag** ([`TRACE_FLAG`]): when
//! set, the payload begins with a 16-byte span context
//! (`[u64 trace_id] [u64 span_id]`) naming the client span the server's
//! work should nest under, and the real payload follows. A **response**
//! frame is
//!
//! ```text
//! [u32 len] [u64 request_id] [u8 status] [u32 checksum] [payload …]
//! ```
//!
//! with `status = 0` for an error (payload is a UTF-8 message) and
//! `status = opcode` of the request otherwise, and `checksum` the
//! Fletcher-32 of the payload bytes. Request IDs are chosen by the client
//! and echoed verbatim, so a reply is matched to its request. A
//! connection carries one request at a time: the server executes a
//! frame on the thread that read it and answers before reading the next.
//!
//! # One version, one data opcode
//!
//! The protocol speaks exactly [`PROTOCOL_VERSION`]. The HELLO exchange
//! carries each side's version (client: magic `b"STAIRNET"` plus its
//! version; server: its version plus the store shape, [`ServerInfo`])
//! and either side **refuses** a peer whose version differs, with an
//! error naming both — there are no deployed peers to stay compatible
//! with, so there is nothing to negotiate.
//!
//! All data moves in [`Opcode::Batch`] frames: a client-chosen
//! `[u64 batch_id]` (so a frame reissued after a redial is identifiable
//! server-side; journal replay makes re-application safe) followed by
//! the ops, answered by one checksummed response with a reply per op. A
//! lone `read_at`/`write_at` is a one-op batch.
//!
//! # One copy per side
//!
//! Data bytes are copied once on each side of the socket. A request
//! goes out as header, op fields and the caller's own write slices in
//! one vectored write ([`write_request`]); the server reads the frame
//! into a buffer its connection keeps and decodes the ops as
//! [`OpRef`] views into it ([`read_request`]). A reply goes out as
//! header, result fields and the results' own buffers in one vectored
//! write, its checksum summed over those pieces ([`write_response`]);
//! the client parses it off the socket through a small buffer, each
//! read's bytes landing in the `Vec` it returns, and checks the sum
//! before it returns anything ([`read_response`]).

use std::io::{self, BufReader, IoSlice, Read, Write};

use stair_code::CodecSpec;
use stair_device::{OpRef, OpResult, RepairOutcome, ScrubOutcome, ShardHealth, WriteOutcome};
use stair_gf::Fletcher32;
use stair_obs::trace::names;
use stair_obs::{HistogramSnapshot, MetricsSnapshot, SpanCtx, SpanRecord, TraceRecord, BUCKETS};

use crate::NetError;

/// The one protocol version this build speaks; HELLO refuses any other.
pub const PROTOCOL_VERSION: u32 = 6;
/// High bit of the request opcode byte: set when the payload is
/// prefixed with a `[u64 trace_id][u64 span_id]` span context.
pub const TRACE_FLAG: u8 = 0x80;
/// Magic bytes opening a HELLO payload.
pub const MAGIC: &[u8; 8] = b"STAIRNET";
/// Upper bound on a frame body; anything larger is a protocol error
/// (prevents a corrupt length prefix from allocating gigabytes).
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;
/// Largest span one batch op may carry, and the combined byte budget
/// (write data plus requested read lengths) of one BATCH frame; clients
/// split bigger transfers into several frames, sent one after another.
pub const MAX_IO_BYTES: u32 = 4 * 1024 * 1024;
/// Most ops one BATCH frame may carry.
pub const MAX_BATCH_OPS: u32 = 4096;

/// Request opcodes (also used as the success status byte of responses).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Version + geometry handshake; must be the first request.
    Hello = 1,
    /// Per-shard health and geometry snapshot.
    Status = 2,
    /// Submit read/write ops as one frame — the only data opcode.
    Batch = 3,
    /// Persist checksum tables, health records, and device data.
    Flush = 4,
    /// Declare a device failed, or corrupt a sector burst, on one shard.
    Fail = 5,
    /// Run a scrub pass over every shard.
    Scrub = 6,
    /// Run an online repair pass over every shard.
    Repair = 7,
    /// Ask the server to stop accepting work and exit its run loop.
    Shutdown = 8,
    /// Pull the server's metrics snapshot.
    Metrics = 9,
    /// Pull the server's flight recorder.
    Trace = 10,
}

impl Opcode {
    /// Every opcode, in discriminant order — and the decoder's table:
    /// `from_u8` accepts exactly these bytes. A variant left out cannot
    /// be decoded (`requests_round_trip` fails), a duplicate discriminant
    /// does not compile (E0081), nor does a `name()` without an arm for
    /// it (E0004); the tests below hold density and unique wire names.
    pub const ALL: [Opcode; 10] = [
        Opcode::Hello,
        Opcode::Status,
        Opcode::Batch,
        Opcode::Flush,
        Opcode::Fail,
        Opcode::Scrub,
        Opcode::Repair,
        Opcode::Shutdown,
        Opcode::Metrics,
        Opcode::Trace,
    ];

    /// The lowercase wire name, used as the metric-name suffix for
    /// per-opcode counters (`srv.req.<name>`) and histograms.
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Hello => "hello",
            Opcode::Status => "status",
            Opcode::Flush => "flush",
            Opcode::Fail => "fail",
            Opcode::Scrub => "scrub",
            Opcode::Repair => "repair",
            Opcode::Shutdown => "shutdown",
            Opcode::Batch => "batch",
            Opcode::Metrics => "metrics",
            Opcode::Trace => "trace",
        }
    }

    fn from_u8(b: u8) -> Result<Self, NetError> {
        Opcode::ALL
            .into_iter()
            .find(|&op| op as u8 == b)
            .ok_or_else(|| NetError::Protocol(format!("unknown opcode {b}")))
    }
}

/// A parsed request. A BATCH's write data is borrowed: from the caller's
/// buffers on the client, from the connection's frame buffer on the
/// server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request<'a> {
    /// Handshake carrying the client's protocol version.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Health snapshot of every shard.
    Status,
    /// Persist everything to disk.
    Flush,
    /// Remove a device's backing file on one shard.
    FailDevice {
        /// Shard index.
        shard: u32,
        /// Device index within the shard.
        device: u32,
    },
    /// Flip bits in `len` consecutive sectors of one shard device
    /// (latent damage: detected only by a later read or scrub).
    CorruptSectors {
        /// Shard index.
        shard: u32,
        /// Device index within the shard.
        device: u32,
        /// Stripe index within the shard.
        stripe: u32,
        /// First row of the burst.
        row: u32,
        /// Rows in the burst.
        len: u32,
    },
    /// Scrub every shard with `threads` workers each.
    Scrub {
        /// Worker threads per shard.
        threads: u32,
    },
    /// Repair every shard with `threads` workers each.
    Repair {
        /// Worker threads per shard.
        threads: u32,
    },
    /// Stop the server.
    Shutdown,
    /// Execute `ops` as one scatter-gather batch; the response carries
    /// one reply per op, in submission order.
    Batch {
        /// Client-chosen batch id (0 = unassigned). A client that
        /// redials mid-batch reissues the frame under the *same* id,
        /// so the server can count duplicate deliveries; re-applying
        /// the writes is safe regardless, because the store journals
        /// absolute post-images.
        batch_id: u64,
        /// The ops, in submission order, offsets in the global block
        /// space. Per-op spans and the combined byte budget are capped
        /// at [`MAX_IO_BYTES`], the count at [`MAX_BATCH_OPS`].
        ops: Vec<OpRef<'a>>,
    },
    /// Pull the server's metrics snapshot (request/connection counters
    /// and latency histograms, plus the store's own counters aggregated
    /// across shards).
    Metrics,
    /// Pull the server's flight recorder: recently completed traces
    /// plus the slow/errored ones retained past the main ring's wrap.
    Trace,
}

impl Request<'_> {
    /// The opcode this request travels under.
    pub fn opcode(&self) -> Opcode {
        match self {
            Request::Hello { .. } => Opcode::Hello,
            Request::Status => Opcode::Status,
            Request::Flush => Opcode::Flush,
            Request::FailDevice { .. } | Request::CorruptSectors { .. } => Opcode::Fail,
            Request::Scrub { .. } => Opcode::Scrub,
            Request::Repair { .. } => Opcode::Repair,
            Request::Shutdown => Opcode::Shutdown,
            Request::Batch { .. } => Opcode::Batch,
            Request::Metrics => Opcode::Metrics,
            Request::Trace => Opcode::Trace,
        }
    }
}

/// This process's flight recorder: the completed ring, then the
/// slow/errored captures it does not hold — traces it has already
/// evicted, and untraced outliers, which only the slow ring keeps (a
/// trace in both is listed once, keyed by `(trace_id, root_span)`).
/// What a server answers a TRACE pull with, and what `stair dev trace`
/// prints for its own process.
pub fn recorded_traces() -> Vec<TraceRecord> {
    let rec = stair_obs::trace::recorder();
    let mut traces = rec.traces();
    let seen: std::collections::HashSet<(u64, u64)> =
        traces.iter().map(|t| (t.trace_id, t.root_span)).collect();
    traces.extend(
        rec.slow_traces()
            .into_iter()
            .filter(|t| !seen.contains(&(t.trace_id, t.root_span))),
    );
    traces
}

/// What the server tells a client at HELLO time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerInfo {
    /// The server's [`PROTOCOL_VERSION`].
    pub version: u32,
    /// Number of shards behind the placement map.
    pub shards: u32,
    /// Total logical capacity in bytes across all shards.
    pub capacity: u64,
    /// Logical block size in bytes.
    pub block_size: u32,
    /// Blocks per placement range (= blocks per stripe; the placement
    /// unit that maps ranges round-robin onto shards).
    pub range_blocks: u32,
    /// The codec spec string every shard runs.
    pub codec: String,
}

impl ServerInfo {
    /// Reconstructs the server's placement map from the HELLO geometry
    /// — what lets a client group a batch by shard without a second
    /// round trip.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] when the announced geometry is degenerate
    /// (zero shards/blocks, or a capacity that does not tile into
    /// whole ranges).
    pub fn placement(&self) -> Result<crate::Placement, NetError> {
        let range_bytes = u64::from(self.range_blocks) * u64::from(self.block_size);
        if self.shards == 0 || range_bytes == 0 {
            return Err(NetError::Protocol(format!(
                "degenerate server geometry: {} shard(s) of {}-byte ranges",
                self.shards, range_bytes
            )));
        }
        let ranges_per_shard = self.capacity / range_bytes / u64::from(self.shards);
        if ranges_per_shard == 0
            || ranges_per_shard * range_bytes * u64::from(self.shards) != self.capacity
        {
            return Err(NetError::Protocol(format!(
                "server capacity {} does not tile into {} shard(s) of {}-byte ranges",
                self.capacity, self.shards, range_bytes
            )));
        }
        Ok(crate::Placement::new(
            self.shards as usize,
            self.range_blocks as usize,
            ranges_per_shard as usize,
            self.block_size as usize,
        ))
    }
}

/// A parsed response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// HELLO answer.
    Hello(ServerInfo),
    /// STATUS answer: one entry per shard, in shard order. The two
    /// tolerances do not travel: the decoder derives them from the
    /// codec spec.
    Status(Vec<ShardHealth>),
    /// FLUSH answer.
    Flushed,
    /// FAIL answer.
    Failed,
    /// SCRUB answer.
    Scrubbed(ScrubOutcome),
    /// REPAIR answer.
    Repaired(RepairOutcome),
    /// BATCH answer: one result per op, in submission order.
    Batched(Vec<OpResult>),
    /// METRICS answer: the server's snapshot at the time of the request.
    Metrics(MetricsSnapshot),
    /// TRACE answer: completed traces (recent ring, then slow-ring
    /// entries the recent ring does not hold).
    Traces(Vec<TraceRecord>),
    /// SHUTDOWN answer (sent before the server exits).
    ShuttingDown,
    /// The request could not be executed.
    Error(String),
}

// ---------------------------------------------------------------------
// Byte-level encoding
// ---------------------------------------------------------------------

/// Append-only little-endian writer.
struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.0.extend_from_slice(v);
    }
    /// Length-prefixed string.
    fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.bytes(v.as_bytes());
    }
    fn u32s(&mut self, v: &[usize]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u32(x as u32);
        }
    }
}

/// A frame on its way out: header and fields encoded into one buffer,
/// and the data it carries (write payloads, read results) spliced in
/// between them by reference. It reaches the socket in vectored writes,
/// so no data is copied into a frame buffer.
struct Gather<'a> {
    enc: Enc,
    /// `(at, data)`: `data` goes out right after `enc.0[..at]`.
    spliced: Vec<(usize, &'a [u8])>,
}

impl<'a> Gather<'a> {
    /// A frame whose first `header` bytes are zeros, for the writer to
    /// fill once the rest is known.
    fn new(header: usize) -> Self {
        Gather {
            enc: Enc(vec![0; header]),
            spliced: Vec::new(),
        }
    }

    /// Appends `data` by reference.
    fn splice(&mut self, data: &'a [u8]) {
        self.spliced.push((self.enc.0.len(), data));
    }

    /// The frame's non-empty pieces, in wire order.
    fn pieces(&self) -> impl Iterator<Item = &[u8]> {
        let cuts = self.spliced.iter().map(|&(at, _)| at);
        let starts = std::iter::once(0).chain(cuts.clone());
        let ends = cuts.chain(std::iter::once(self.enc.0.len()));
        let data = self.spliced.iter().map(|&(_, data)| data);
        starts
            .zip(ends)
            .map(|(from, to)| &self.enc.0[from..to])
            .zip(data.chain(std::iter::once(&[][..])))
            .flat_map(|(fields, data)| [fields, data])
            .filter(|piece| !piece.is_empty())
    }

    /// Bytes in the frame.
    fn len(&self) -> usize {
        self.enc.0.len() + self.spliced.iter().map(|(_, d)| d.len()).sum::<usize>()
    }

    /// Fletcher-32 of everything past the first `skip` bytes, summed
    /// piece by piece.
    fn checksum(&self, mut skip: usize) -> u32 {
        let mut sum = Fletcher32::new();
        for piece in self.pieces() {
            let cut = skip.min(piece.len());
            sum.update(&piece[cut..]);
            skip -= cut;
        }
        sum.finish()
    }

    /// Writes the whole frame.
    fn send(&self, stream: &mut impl Write) -> Result<(), NetError> {
        let mut slices: Vec<IoSlice<'_>> = self.pieces().map(IoSlice::new).collect();
        let mut bufs = &mut slices[..];
        while !bufs.is_empty() {
            match stream.write_vectored(bufs) {
                Ok(0) => return Err(NetError::Io(io::ErrorKind::WriteZero.into())),
                Ok(n) => IoSlice::advance_slices(&mut bufs, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        Ok(())
    }
}

fn truncated() -> NetError {
    NetError::Protocol("truncated frame".into())
}

/// Bounds-checked little-endian reader over a request frame held in
/// memory; what it takes borrows the frame.
struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, at: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(truncated)?;
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, NetError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, NetError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn finish(self) -> Result<(), NetError> {
        if self.at != self.buf.len() {
            return Err(NetError::Protocol(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.at
            )));
        }
        Ok(())
    }
}

/// What a response reader buffers ahead of the field it parses; a read
/// result's bytes past it go from the socket straight into their `Vec`.
const REPLY_BUFFER: usize = 8 * 1024;

/// A response payload read off the stream as it is parsed: fields
/// through a small buffer that never reads past the frame, read results
/// straight into the `Vec` the caller gets, and every byte into the
/// running checksum that [`Body::finish`] checks.
struct Body<R> {
    inner: BufReader<io::Take<R>>,
    /// Payload bytes not read yet.
    left: usize,
    sum: Fletcher32,
}

impl<R: Read> Body<R> {
    fn fill(&mut self, out: &mut [u8]) -> Result<(), NetError> {
        if out.len() > self.left {
            return Err(truncated());
        }
        self.inner.read_exact(out)?;
        self.left -= out.len();
        self.sum.update(out);
        Ok(())
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], NetError> {
        let mut b = [0u8; N];
        self.fill(&mut b)?;
        Ok(b)
    }
    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.array::<1>()?[0])
    }
    fn u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    /// The next `n` bytes as a `Vec`; a length past the frame is refused
    /// before anything is allocated.
    fn bytes(&mut self, n: usize) -> Result<Vec<u8>, NetError> {
        if n > self.left {
            return Err(NetError::Protocol(format!(
                "{n}-byte field exceeds the frame's {} remaining bytes",
                self.left
            )));
        }
        // Reserved, not zero-filled: the socket writes every byte.
        let mut out = Vec::with_capacity(n);
        Read::take(&mut self.inner, n as u64).read_to_end(&mut out)?;
        if out.len() < n {
            return Err(NetError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "frame body ends early",
            )));
        }
        self.left -= n;
        self.sum.update(&out);
        Ok(out)
    }
    fn str(&mut self) -> Result<String, NetError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.bytes(len)?)
            .map_err(|_| NetError::Protocol("string field is not UTF-8".into()))
    }
    fn u32s(&mut self) -> Result<Vec<usize>, NetError> {
        let len = self.u32()? as usize;
        // Cap pre-allocation at what the remaining bytes could hold.
        if len > self.left / 4 {
            return Err(NetError::Protocol("list length exceeds frame".into()));
        }
        (0..len).map(|_| Ok(self.u32()? as usize)).collect()
    }
    fn bool(&mut self, what: &str) -> Result<bool, NetError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            k => Err(NetError::Protocol(format!("bad {what} bool byte {k}"))),
        }
    }
    /// Checks that the payload was read to its end and that its sum is
    /// `expected`: nothing parsed is handed out before this passes.
    fn finish(self, expected: u32) -> Result<(), NetError> {
        if self.left != 0 {
            return Err(NetError::Protocol(format!(
                "{} trailing bytes after payload",
                self.left
            )));
        }
        let actual = self.sum.finish();
        if actual != expected {
            return Err(NetError::Checksum { expected, actual });
        }
        Ok(())
    }
}

fn encode_request_payload<'a>(f: &mut Gather<'a>, req: &Request<'a>) {
    let e = &mut f.enc;
    match req {
        Request::Hello { version } => {
            e.bytes(MAGIC);
            e.u32(*version);
        }
        Request::Status
        | Request::Flush
        | Request::Shutdown
        | Request::Metrics
        | Request::Trace => {}
        Request::FailDevice { shard, device } => {
            e.u8(0);
            e.u32(*shard);
            e.u32(*device);
        }
        Request::CorruptSectors {
            shard,
            device,
            stripe,
            row,
            len,
        } => {
            e.u8(1);
            e.u32(*shard);
            e.u32(*device);
            e.u32(*stripe);
            e.u32(*row);
            e.u32(*len);
        }
        Request::Scrub { threads } | Request::Repair { threads } => e.u32(*threads),
        Request::Batch { batch_id, ops } => {
            e.u64(*batch_id);
            e.u32(ops.len() as u32);
            for op in ops {
                f.enc.u8(op.is_write() as u8);
                f.enc.u64(op.offset());
                f.enc.u32(op.byte_len() as u32);
                if let OpRef::Write { data, .. } = *op {
                    f.splice(data);
                }
            }
        }
    }
}

fn decode_request_payload<'a>(op: Opcode, d: &mut Dec<'a>) -> Result<Request<'a>, NetError> {
    Ok(match op {
        Opcode::Hello => {
            let magic = d.take(MAGIC.len())?;
            if magic != MAGIC {
                return Err(NetError::Protocol("bad HELLO magic".into()));
            }
            Request::Hello { version: d.u32()? }
        }
        Opcode::Status => Request::Status,
        Opcode::Flush => Request::Flush,
        Opcode::Fail => match d.u8()? {
            0 => Request::FailDevice {
                shard: d.u32()?,
                device: d.u32()?,
            },
            1 => Request::CorruptSectors {
                shard: d.u32()?,
                device: d.u32()?,
                stripe: d.u32()?,
                row: d.u32()?,
                len: d.u32()?,
            },
            k => return Err(NetError::Protocol(format!("unknown FAIL kind {k}"))),
        },
        Opcode::Scrub => Request::Scrub { threads: d.u32()? },
        Opcode::Repair => Request::Repair { threads: d.u32()? },
        Opcode::Shutdown => Request::Shutdown,
        Opcode::Batch => {
            let batch_id = d.u64()?;
            let count = d.u32()?;
            if count > MAX_BATCH_OPS {
                return Err(NetError::Protocol(format!(
                    "BATCH of {count} ops exceeds the {MAX_BATCH_OPS}-op cap"
                )));
            }
            // The combined byte budget (write payloads plus requested
            // read lengths) shares the per-op cap, so no frame can
            // demand more memory than one maximal op.
            let mut budget = 0u64;
            let mut ops = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let kind = d.u8()?;
                let offset = d.u64()?;
                let len = d.u32()?;
                if len > MAX_IO_BYTES {
                    return Err(NetError::Protocol(format!(
                        "batch op of {len} bytes exceeds the {MAX_IO_BYTES}-byte request cap"
                    )));
                }
                budget += u64::from(len);
                if budget > u64::from(MAX_IO_BYTES) {
                    return Err(NetError::Protocol(format!(
                        "batch byte budget {budget} exceeds the {MAX_IO_BYTES}-byte request cap"
                    )));
                }
                ops.push(match kind {
                    0 => OpRef::Read {
                        offset,
                        len: len as usize,
                    },
                    1 => OpRef::Write {
                        offset,
                        data: d.take(len as usize)?,
                    },
                    k => return Err(NetError::Protocol(format!("unknown batch op kind {k}"))),
                });
            }
            Request::Batch { batch_id, ops }
        }
        Opcode::Metrics => Request::Metrics,
        Opcode::Trace => Request::Trace,
    })
}

/// Most named metrics of one kind a METRICS response may carry.
const MAX_METRICS: u32 = 65_536;
/// Most traces one TRACE response may carry (the recorder rings retain
/// far fewer; this bounds hostile frames).
const MAX_TRACES: u32 = 1024;
/// Most spans one pulled trace may carry.
const MAX_TRACE_SPANS: u32 = 4096;

fn encode_metrics(e: &mut Enc, snap: &MetricsSnapshot) {
    e.u32(snap.counters.len() as u32);
    for (name, v) in &snap.counters {
        e.str(name);
        e.u64(*v);
    }
    e.u32(snap.gauges.len() as u32);
    for (name, v) in &snap.gauges {
        e.str(name);
        e.u64(*v as u64);
    }
    e.u32(snap.histograms.len() as u32);
    for (name, h) in &snap.histograms {
        e.str(name);
        e.u32(h.buckets.len() as u32);
        for &b in &h.buckets {
            e.u64(b);
        }
        e.u64(h.sum);
        e.u64(h.max);
    }
}

fn decode_metrics(d: &mut Body<impl Read>) -> Result<MetricsSnapshot, NetError> {
    let mut snap = MetricsSnapshot::default();
    let counters = d.u32()?;
    if counters > MAX_METRICS {
        return Err(NetError::Protocol("metrics counter list too long".into()));
    }
    for _ in 0..counters {
        let name = d.str()?;
        snap.counters.push((name, d.u64()?));
    }
    let gauges = d.u32()?;
    if gauges > MAX_METRICS {
        return Err(NetError::Protocol("metrics gauge list too long".into()));
    }
    for _ in 0..gauges {
        let name = d.str()?;
        snap.gauges.push((name, d.u64()? as i64));
    }
    let hists = d.u32()?;
    if hists > MAX_METRICS {
        return Err(NetError::Protocol("metrics histogram list too long".into()));
    }
    for _ in 0..hists {
        let name = d.str()?;
        let buckets = d.u32()? as usize;
        if buckets > BUCKETS {
            return Err(NetError::Protocol(format!(
                "histogram with {buckets} buckets exceeds the {BUCKETS}-bucket cap"
            )));
        }
        let mut h = HistogramSnapshot::default();
        for _ in 0..buckets {
            h.buckets.push(d.u64()?);
        }
        h.sum = d.u64()?;
        h.max = d.u64()?;
        snap.histograms.push((name, h));
    }
    Ok(snap)
}

/// A TRACE body: per trace its header and spans. A span's trace id is
/// its trace's, so it does not travel; its name travels as a string and
/// must decode to a declared one ([`names::ALL`]).
fn encode_traces(e: &mut Enc, traces: &[TraceRecord]) {
    e.u32(traces.len() as u32);
    for t in traces {
        e.u64(t.trace_id);
        e.u64(t.root_span);
        e.u64(t.duration_us);
        e.u8(t.ok as u8);
        e.u8(t.slow as u8);
        e.u32(t.spans.len() as u32);
        for s in &t.spans {
            e.u64(s.span_id);
            e.u64(s.parent_id);
            e.str(s.name);
            e.u64(s.start_us);
            e.u64(s.duration_us);
            e.u8(s.ok as u8);
            e.u64(s.bytes);
        }
    }
}

fn decode_traces(d: &mut Body<impl Read>) -> Result<Vec<TraceRecord>, NetError> {
    let count = d.u32()?;
    if count > MAX_TRACES {
        return Err(NetError::Protocol("trace list too long".into()));
    }
    let mut traces = Vec::with_capacity(count.min(256) as usize);
    for _ in 0..count {
        let trace_id = d.u64()?;
        let root_span = d.u64()?;
        let duration_us = d.u64()?;
        let ok = d.bool("trace ok")?;
        let slow = d.bool("trace slow")?;
        let nspans = d.u32()?;
        if nspans > MAX_TRACE_SPANS {
            return Err(NetError::Protocol("trace span list too long".into()));
        }
        let mut spans = Vec::with_capacity(nspans.min(256) as usize);
        for _ in 0..nspans {
            let span_id = d.u64()?;
            let parent_id = d.u64()?;
            let name = d.str()?;
            let Some(&name) = names::ALL.iter().find(|&&n| n == name) else {
                return Err(NetError::Protocol(format!("undeclared span name {name:?}")));
            };
            spans.push(SpanRecord {
                trace_id,
                span_id,
                parent_id,
                name,
                start_us: d.u64()?,
                duration_us: d.u64()?,
                ok: d.bool("span ok")?,
                bytes: d.u64()?,
            });
        }
        traces.push(TraceRecord {
            trace_id,
            root_span,
            duration_us,
            ok,
            slow,
            spans,
        });
    }
    Ok(traces)
}

/// Bytes of a request frame ahead of its payload: `[u32 len]
/// [u64 request_id] [u8 opcode]`.
const REQUEST_HEADER: usize = 13;
/// Bytes of a response frame ahead of its payload: `[u32 len]
/// [u64 request_id] [u8 status] [u32 checksum]`.
const RESPONSE_HEADER: usize = 17;

/// Encodes `resp`'s payload into `f` behind its reserved header, read
/// results by reference, and returns the status byte.
fn encode_response<'a>(f: &mut Gather<'a>, resp: &'a Response) -> u8 {
    let e = &mut f.enc;
    match resp {
        Response::Error(msg) => {
            e.bytes(msg.as_bytes());
            0
        }
        Response::Hello(info) => {
            e.u32(info.version);
            e.u32(info.shards);
            e.u64(info.capacity);
            e.u32(info.block_size);
            e.u32(info.range_blocks);
            e.str(&info.codec);
            Opcode::Hello as u8
        }
        Response::Status(shards) => {
            e.u32(shards.len() as u32);
            for s in shards {
                e.str(&s.codec);
                e.u64(s.capacity);
                e.u32(s.block_size as u32);
                e.u32(s.stripes as u32);
                e.u32(s.blocks_per_stripe as u32);
                e.u32s(&s.failed_devices);
                e.u32s(&s.rebuilding_devices);
                e.u32(s.known_bad_sectors as u32);
                e.u8(s.clean_shutdown as u8);
                e.u64(s.replayed_records);
            }
            Opcode::Status as u8
        }
        Response::Flushed => Opcode::Flush as u8,
        Response::Failed => Opcode::Fail as u8,
        Response::Batched(results) => {
            e.u32(results.len() as u32);
            for result in results {
                match result {
                    OpResult::Read(data) => {
                        f.enc.u8(0);
                        f.enc.u32(data.len() as u32);
                        f.splice(data);
                    }
                    OpResult::Write(w) => {
                        f.enc.u8(1);
                        f.enc.u64(w.bytes);
                        f.enc.u64(w.blocks_written);
                        f.enc.u64(w.stripes_touched);
                        f.enc.u64(w.full_stripe_encodes);
                        f.enc.u64(w.delta_updates);
                    }
                }
            }
            Opcode::Batch as u8
        }
        Response::Metrics(snap) => {
            encode_metrics(e, snap);
            Opcode::Metrics as u8
        }
        Response::Traces(traces) => {
            encode_traces(e, traces);
            Opcode::Trace as u8
        }
        Response::Scrubbed(s) => {
            e.u64(s.stripes_scanned);
            e.u64(s.sectors_verified);
            e.u64(s.mismatches);
            e.u64(s.unavailable_devices);
            e.u64(s.records_cleared);
            Opcode::Scrub as u8
        }
        Response::Repaired(r) => {
            e.u64(r.devices_replaced);
            e.u64(r.stripes_repaired);
            e.u64(r.sectors_rewritten);
            e.u64(r.unrecoverable_stripes);
            Opcode::Repair as u8
        }
        Response::ShuttingDown => Opcode::Shutdown as u8,
    }
}

/// Parses a response payload of status `status` off `d`. A BATCH reply's
/// read results are read straight into the `Vec`s they come back in.
fn decode_response_payload(status: u8, d: &mut Body<impl Read>) -> Result<Response, NetError> {
    if status == 0 {
        let msg = d.bytes(d.left)?;
        return Ok(Response::Error(String::from_utf8_lossy(&msg).into_owned()));
    }
    Ok(match Opcode::from_u8(status)? {
        Opcode::Hello => Response::Hello(ServerInfo {
            version: d.u32()?,
            shards: d.u32()?,
            capacity: d.u64()?,
            block_size: d.u32()?,
            range_blocks: d.u32()?,
            codec: d.str()?,
        }),
        Opcode::Status => {
            let count = d.u32()? as usize;
            let mut shards = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let codec = d.str()?;
                let spec: CodecSpec = codec
                    .parse()
                    .map_err(|e| NetError::Protocol(format!("bad codec spec in status: {e}")))?;
                shards.push(ShardHealth {
                    codec,
                    capacity: d.u64()?,
                    block_size: d.u32()? as usize,
                    stripes: d.u32()? as usize,
                    blocks_per_stripe: d.u32()? as usize,
                    device_tolerance: spec.m(),
                    sector_tolerance: spec.s(),
                    failed_devices: d.u32s()?,
                    rebuilding_devices: d.u32s()?,
                    known_bad_sectors: d.u32()? as usize,
                    clean_shutdown: d.bool("clean_shutdown")?,
                    replayed_records: d.u64()?,
                });
            }
            Response::Status(shards)
        }
        Opcode::Flush => Response::Flushed,
        Opcode::Fail => Response::Failed,
        Opcode::Batch => {
            let count = d.u32()?;
            if count > MAX_BATCH_OPS {
                return Err(NetError::Protocol(format!(
                    "BATCH response of {count} replies exceeds the {MAX_BATCH_OPS}-op cap"
                )));
            }
            let mut results = Vec::with_capacity(count as usize);
            for _ in 0..count {
                results.push(match d.u8()? {
                    0 => {
                        let len = d.u32()? as usize;
                        OpResult::Read(d.bytes(len)?)
                    }
                    1 => OpResult::Write(WriteOutcome {
                        bytes: d.u64()?,
                        blocks_written: d.u64()?,
                        stripes_touched: d.u64()?,
                        full_stripe_encodes: d.u64()?,
                        delta_updates: d.u64()?,
                    }),
                    k => return Err(NetError::Protocol(format!("unknown batch reply kind {k}"))),
                });
            }
            Response::Batched(results)
        }
        Opcode::Metrics => Response::Metrics(decode_metrics(d)?),
        Opcode::Trace => Response::Traces(decode_traces(d)?),
        Opcode::Scrub => Response::Scrubbed(ScrubOutcome {
            stripes_scanned: d.u64()?,
            sectors_verified: d.u64()?,
            mismatches: d.u64()?,
            unavailable_devices: d.u64()?,
            records_cleared: d.u64()?,
        }),
        Opcode::Repair => Response::Repaired(RepairOutcome {
            devices_replaced: d.u64()?,
            stripes_repaired: d.u64()?,
            sectors_rewritten: d.u64()?,
            unrecoverable_stripes: d.u64()?,
        }),
        Opcode::Shutdown => Response::ShuttingDown,
    })
}

// ---------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------

/// Reads a frame's length prefix: a frame over [`MAX_FRAME`], or too
/// short for its header, is a protocol error.
fn read_len(stream: &mut impl Read, header: usize) -> Result<usize, NetError> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(NetError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    if (len as usize) < header - 4 {
        return Err(truncated());
    }
    Ok(len as usize)
}

/// Writes one request frame: header, fields and the ops' own write data
/// in one vectored write, so a client never copies a payload into a
/// frame and a retry sends the very same bytes. Span context sets
/// [`TRACE_FLAG`] on the opcode byte and prefixes the payload with
/// `[u64 trace_id][u64 span_id]`.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_request(
    stream: &mut impl Write,
    id: u64,
    req: &Request<'_>,
    ctx: Option<SpanCtx>,
) -> Result<(), NetError> {
    // No-op unless the caller is inside a recorded span (only clients
    // write requests, so this is the client-side serialization cost).
    let frame = {
        let _enc = stair_obs::trace::span(names::CLIENT_ENCODE);
        let mut f = Gather::new(REQUEST_HEADER);
        let mut opcode = req.opcode() as u8;
        if let Some(ctx) = ctx {
            opcode |= TRACE_FLAG;
            f.enc.u64(ctx.trace_id);
            f.enc.u64(ctx.span_id);
        }
        encode_request_payload(&mut f, req);
        let len = (f.len() - 4) as u32;
        let head = &mut f.enc.0;
        head[..4].copy_from_slice(&len.to_le_bytes());
        head[4..12].copy_from_slice(&id.to_le_bytes());
        head[12] = opcode;
        f
    };
    frame.send(stream)
}

/// Reads one request frame into `buf` — a buffer the connection keeps
/// from frame to frame — and returns `(request_id, request, span
/// context)`, the context `Some` exactly when the sender set
/// [`TRACE_FLAG`]. A BATCH's write data stays in `buf`: its ops are
/// views into it.
///
/// # Errors
///
/// Socket errors, truncated frames, unknown opcodes, or oversized
/// requests are all rejected.
pub fn read_request<'b>(
    stream: &mut impl Read,
    buf: &'b mut Vec<u8>,
) -> Result<(u64, Request<'b>, Option<SpanCtx>), NetError> {
    let len = read_len(stream, REQUEST_HEADER)?;
    buf.clear();
    buf.reserve(len);
    Read::take(&mut *stream, len as u64).read_to_end(buf)?;
    if buf.len() < len {
        return Err(NetError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "frame body ends early",
        )));
    }
    let mut d = Dec::new(buf);
    let id = d.u64()?;
    let op_byte = d.u8()?;
    let op = Opcode::from_u8(op_byte & !TRACE_FLAG)?;
    let ctx = if op_byte & TRACE_FLAG != 0 {
        Some(SpanCtx {
            trace_id: d.u64()?,
            span_id: d.u64()?,
        })
    } else {
        None
    };
    let req = decode_request_payload(op, &mut d)?;
    d.finish()?;
    Ok((id, req, ctx))
}

/// Writes one response frame (status byte + Fletcher-32 of the
/// payload): header, fields and the results' own read data in one
/// vectored write, the checksum summed over those pieces in place.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_response(stream: &mut impl Write, id: u64, resp: &Response) -> Result<(), NetError> {
    let mut f = Gather::new(RESPONSE_HEADER);
    let status = encode_response(&mut f, resp);
    let sum = f.checksum(RESPONSE_HEADER);
    let len = (f.len() - 4) as u32;
    let head = &mut f.enc.0;
    head[..4].copy_from_slice(&len.to_le_bytes());
    head[4..12].copy_from_slice(&id.to_le_bytes());
    head[12] = status;
    head[13..RESPONSE_HEADER].copy_from_slice(&sum.to_le_bytes());
    f.send(stream)
}

/// Normalizes a checksum-verified response: a [`Response::Error`]
/// becomes [`NetError::Remote`], anything else passes through. The one
/// post-verification step of every client call, BATCH frames included,
/// so server-reported failures cannot be interpreted differently.
///
/// # Errors
///
/// [`NetError::Remote`] carrying the server's message.
pub fn ok_or_remote(resp: Response) -> Result<Response, NetError> {
    match resp {
        Response::Error(msg) => Err(NetError::Remote(msg)),
        resp => Ok(resp),
    }
}

/// Reads one response frame, parsing the payload as it arrives: fields
/// through a small buffer that stops at the frame's end, a read
/// result's bytes from the socket straight into the `Vec` returned. The
/// payload checksum is verified before anything is returned. Returns
/// `(request_id, response)`.
///
/// # Errors
///
/// Socket errors, malformed frames, and checksum mismatches.
pub fn read_response(stream: &mut impl Read) -> Result<(u64, Response), NetError> {
    let len = read_len(stream, RESPONSE_HEADER)?;
    let mut inner = BufReader::with_capacity(REPLY_BUFFER, Read::take(stream, len as u64));
    let mut head = [0u8; RESPONSE_HEADER - 4];
    inner.read_exact(&mut head)?;
    let [i0, i1, i2, i3, i4, i5, i6, i7, status, s0, s1, s2, s3] = head;
    let id = u64::from_le_bytes([i0, i1, i2, i3, i4, i5, i6, i7]);
    let expected = u32::from_le_bytes([s0, s1, s2, s3]);
    let mut body = Body {
        inner,
        left: len - head.len(),
        sum: Fletcher32::new(),
    };
    // Starts once the header is in, so it leaves out the wait for the
    // server — a trace must not count the server's time twice.
    let _dec = stair_obs::trace::span(names::CLIENT_DECODE);
    let resp = decode_response_payload(status, &mut body)?;
    body.finish(expected)?;
    Ok((id, resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request<'_>) {
        let mut wire = Vec::new();
        write_request(&mut wire, 7, &req, None).unwrap();
        let mut buf = Vec::new();
        let (id, back, ctx) = read_request(&mut wire.as_slice(), &mut buf).unwrap();
        assert_eq!((id, ctx), (7, None));
        assert_eq!(back, req);
    }

    fn round_trip_response(resp: Response) {
        let mut wire = Vec::new();
        write_response(&mut wire, 99, &resp).unwrap();
        let (id, back) = read_response(&mut wire.as_slice()).unwrap();
        assert_eq!(id, 99);
        assert_eq!(back, resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Hello {
            version: PROTOCOL_VERSION,
        });
        round_trip_request(Request::Status);
        round_trip_request(Request::Flush);
        round_trip_request(Request::FailDevice {
            shard: 3,
            device: 1,
        });
        round_trip_request(Request::CorruptSectors {
            shard: 0,
            device: 7,
            stripe: 5,
            row: 2,
            len: 3,
        });
        round_trip_request(Request::Scrub { threads: 4 });
        round_trip_request(Request::Repair { threads: 2 });
        round_trip_request(Request::Shutdown);
        let data: Vec<u8> = (0..=127).collect();
        round_trip_request(Request::Batch {
            batch_id: 0xFEED_F00D_0000_0042,
            ops: vec![
                OpRef::Read {
                    offset: 512,
                    len: 64,
                },
                OpRef::Write {
                    offset: 0,
                    data: &data,
                },
                OpRef::Read { offset: 9, len: 0 },
            ],
        });
        round_trip_request(Request::Batch {
            batch_id: 0,
            ops: vec![],
        });
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Trace);
    }

    #[test]
    fn traced_frames_round_trip_their_span_context() {
        let req = Request::Batch {
            batch_id: 3,
            ops: vec![OpRef::Read { offset: 64, len: 8 }],
        };
        let ctx = SpanCtx {
            trace_id: 0xDEAD_BEEF_0000_0001,
            span_id: 0x1234_5678_9ABC_DEF0,
        };
        let mut wire = Vec::new();
        write_request(&mut wire, 55, &req, Some(ctx)).unwrap();
        let mut buf = Vec::new();
        let (id, back, got) = read_request(&mut wire.as_slice(), &mut buf).unwrap();
        assert_eq!(id, 55);
        assert_eq!(back, req);
        assert_eq!(got, Some(ctx));
    }

    #[test]
    fn untraced_frames_carry_no_flag_and_no_context() {
        // Without span context a frame has the bare layout: no flag
        // bit, no context prefix.
        let req = Request::Scrub { threads: 4096 };
        let mut wire = Vec::new();
        write_request(&mut wire, 0x0A0B_0C0D_0E0F_1011, &req, None).unwrap();
        let mut expected = Vec::new();
        expected.extend_from_slice(&13u32.to_le_bytes()); // 9 + 4
        expected.extend_from_slice(&0x0A0B_0C0D_0E0F_1011u64.to_le_bytes());
        expected.push(6); // Opcode::Scrub, high bit clear
        expected.extend_from_slice(&4096u32.to_le_bytes());
        assert_eq!(wire, expected);
        let mut buf = Vec::new();
        let (id, back, ctx) = read_request(&mut wire.as_slice(), &mut buf).unwrap();
        assert_eq!((id, back, ctx), (0x0A0B_0C0D_0E0F_1011, req, None));
    }

    /// The ops of [`PARENT_BATCH_REQUEST_FRAME`]: a 5-byte write, a
    /// 3-byte read and a 0-byte read.
    fn golden_batch(data: &[u8]) -> Request<'_> {
        Request::Batch {
            batch_id: 0x0102_0304_0506_0708,
            ops: vec![
                OpRef::Write { offset: 4096, data },
                OpRef::Read { offset: 77, len: 3 },
                OpRef::Read { offset: 9, len: 0 },
            ],
        }
    }

    /// [`golden_batch`] as a request frame (request id 7), as the
    /// encoder of commit 5a06aca wrote it from owned ops, through a
    /// payload buffer of its own.
    const PARENT_BATCH_REQUEST_FRAME: &str = "41000000070000000000000003080706050403020103000000010010000000000000050000000102030405004d000000000000000300000000090000000000000000000000";

    #[test]
    fn batch_request_bytes_match_the_parent_encoder() {
        let data = [1u8, 2, 3, 4, 5];
        let want = golden_batch(&data);
        let frame = unhex(PARENT_BATCH_REQUEST_FRAME);
        let mut buf = Vec::new();
        let (id, back, ctx) = read_request(&mut frame.as_slice(), &mut buf).unwrap();
        assert_eq!((id, &back, ctx), (7, &want, None));
        // The write's bytes are a view into the frame buffer.
        let Request::Batch { ops, .. } = back else {
            unreachable!()
        };
        let OpRef::Write { data: view, .. } = ops[0] else {
            unreachable!()
        };
        let view = view.as_ptr();
        assert!(buf.as_ptr_range().contains(&view));
        let mut wire = Vec::new();
        write_request(&mut wire, 7, &want, None).unwrap();
        assert_eq!(wire, frame, "BATCH request bytes moved");
    }

    /// A reply to [`golden_batch`] as a response frame (request id 7), as
    /// the encoder of commit 5a06aca wrote it into one frame buffer.
    const PARENT_BATCH_REPLY_FRAME: &str = "470000000700000000000000031d13d0e803000000010500000000000000010000000000000001000000000000000000000000000000010000000000000000030000000a0b0c0000000000";

    fn golden_reply() -> Response {
        Response::Batched(vec![
            OpResult::Write(WriteOutcome {
                bytes: 5,
                blocks_written: 1,
                stripes_touched: 1,
                full_stripe_encodes: 0,
                delta_updates: 1,
            }),
            OpResult::Read(vec![0x0A, 0x0B, 0x0C]),
            OpResult::Read(vec![]),
        ])
    }

    #[test]
    fn batch_reply_bytes_match_the_parent_encoder() {
        let want = golden_reply();
        let frame = unhex(PARENT_BATCH_REPLY_FRAME);
        assert_eq!(
            read_response(&mut frame.as_slice()).unwrap(),
            (7, want.clone())
        );
        let mut wire = Vec::new();
        write_response(&mut wire, 7, &want).unwrap();
        assert_eq!(wire, frame, "BATCH reply bytes moved");
    }

    /// A reader that hands out at most `step` bytes per call, so the
    /// streamed reply decoder meets every split of its input.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = out.len().min(self.step).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_reply_decodes_the_same_however_the_socket_splits_it() {
        let big: Vec<u8> = (0..3 * REPLY_BUFFER + 7).map(|i| (i * 31) as u8).collect();
        let want = Response::Batched(vec![
            OpResult::Read(vec![9; 5]),
            OpResult::Read(big),
            OpResult::Write(WriteOutcome::default()),
            OpResult::Read(vec![]),
        ]);
        let mut wire = Vec::new();
        write_response(&mut wire, 3, &want).unwrap();
        for step in [1, 2, 3, 17, 4096, REPLY_BUFFER + 1, wire.len()] {
            let mut r = Trickle { data: &wire, step };
            assert_eq!(
                read_response(&mut r).unwrap(),
                (3, want.clone()),
                "step {step}"
            );
            assert!(
                r.data.is_empty(),
                "step {step}: the frame was not read to its end"
            );
        }
        // The reader stops at the frame's end: the next frame is intact.
        let mut two = wire.clone();
        two.extend_from_slice(&wire);
        let mut r = two.as_slice();
        assert_eq!(read_response(&mut r).unwrap().0, 3);
        assert_eq!(r.len(), wire.len());
    }

    /// Two traces as the recorder holds them: a client-side tree, and
    /// an errored server outlier.
    fn two_traces() -> Vec<TraceRecord> {
        let span =
            |trace_id, span_id, parent_id, name, start_us, duration_us, ok, bytes| SpanRecord {
                trace_id,
                span_id,
                parent_id,
                name,
                start_us,
                duration_us,
                ok,
                bytes,
            };
        let t1 = 0x0123_4567_89ab_cdef;
        vec![
            TraceRecord {
                trace_id: t1,
                root_span: 11,
                duration_us: 1234,
                ok: true,
                slow: false,
                spans: vec![
                    span(t1, 12, 11, names::STORE_STRIPE, 10, 900, true, 4096),
                    span(t1, 13, 12, names::STORE_LOCK, 12, 3, true, 0),
                    span(t1, 11, 0, names::CLIENT_SUBMIT, 0, 1234, true, 8192),
                ],
            },
            TraceRecord {
                trace_id: 8,
                root_span: 21,
                duration_us: 50_000,
                ok: false,
                slow: true,
                spans: vec![span(8, 21, 0, names::SRV_REQUEST, 3, 50_000, false, 0)],
            },
        ]
    }

    #[test]
    fn trace_responses_round_trip() {
        round_trip_response(Response::Traces(vec![]));
        round_trip_response(Response::Traces(two_traces()));
    }

    /// [`two_traces`] in a TRACE response frame (request id 7) as the
    /// encoder of commit 9c47915 wrote it, from its own wire types.
    const PARENT_TRACE_FRAME: &str = "2f01000007000000000000000a2fcbaea202000000efcdab89674523010b00000000000000d2040000000000000100030000000c000000000000000b000000000000000c00000073746f72652e7374726970650a0000000000000084030000000000000100100000000000000d000000000000000c000000000000000a00000073746f72652e6c6f636b0c0000000000000003000000000000000100000000000000000b0000000000000000000000000000000d000000636c69656e742e7375626d69740000000000000000d2040000000000000100200000000000000800000000000000150000000000000050c3000000000000000101000000150000000000000000000000000000000b0000007372762e72657175657374030000000000000050c3000000000000000000000000000000";

    #[test]
    fn trace_bytes_match_the_parent_encoder() {
        let want = Response::Traces(two_traces());
        let frame = unhex(PARENT_TRACE_FRAME);
        assert_eq!(
            read_response(&mut frame.as_slice()).unwrap(),
            (7, want.clone())
        );
        let mut wire = Vec::new();
        write_response(&mut wire, 7, &want).unwrap();
        assert_eq!(wire, frame, "TRACE bytes moved");
    }

    #[test]
    fn an_undeclared_span_name_is_a_protocol_error() {
        let mut traces = two_traces();
        traces.truncate(1);
        let mut e = Enc(Vec::new());
        encode_traces(&mut e, &traces);
        // Same length as `store.lock`, so only the name is wrong.
        let at = e.0.windows(10).position(|w| w == b"store.lock").unwrap();
        e.0[at..at + 10].copy_from_slice(b"store.lick");
        let payload = e.0;
        let sum = stair_gf::fletcher32(&payload);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(13 + payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&5u64.to_le_bytes());
        frame.push(Opcode::Trace as u8);
        frame.extend_from_slice(&sum.to_le_bytes());
        frame.extend_from_slice(&payload);
        match read_response(&mut frame.as_slice()) {
            Err(NetError::Protocol(msg)) => assert!(msg.contains("store.lick"), "{msg}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn trace_decode_caps_hostile_lengths() {
        // A response claiming an absurd trace count is refused before
        // any allocation happens.
        let mut e = Enc(Vec::new());
        e.u32(MAX_TRACES + 1);
        let payload = e.0;
        let sum = stair_gf::fletcher32(&payload);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(13 + payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&5u64.to_le_bytes());
        frame.push(Opcode::Trace as u8);
        frame.extend_from_slice(&sum.to_le_bytes());
        frame.extend_from_slice(&payload);
        assert!(matches!(
            read_response(&mut frame.as_slice()),
            Err(NetError::Protocol(_))
        ));

        // Same for a hostile per-trace span count.
        let mut e = Enc(Vec::new());
        e.u32(1);
        e.u64(1); // trace_id
        e.u64(2); // root_span
        e.u64(3); // duration
        e.u8(1); // ok
        e.u8(0); // slow
        e.u32(MAX_TRACE_SPANS + 1);
        let payload = e.0;
        let sum = stair_gf::fletcher32(&payload);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(13 + payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&5u64.to_le_bytes());
        frame.push(Opcode::Trace as u8);
        frame.extend_from_slice(&sum.to_le_bytes());
        frame.extend_from_slice(&payload);
        assert!(matches!(
            read_response(&mut frame.as_slice()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn metrics_responses_round_trip() {
        round_trip_response(Response::Metrics(MetricsSnapshot::default()));
        let mut snap = MetricsSnapshot::default();
        snap.add_counter("srv.req.batch", 17);
        snap.add_counter("store.stripe_locks", 3);
        snap.add_gauge("srv.connections", -1);
        snap.add_histogram(
            "srv.lat_us.batch",
            &HistogramSnapshot {
                buckets: vec![0, 2, 5, 1],
                sum: 44,
                max: 7,
            },
        );
        round_trip_response(Response::Metrics(snap));
    }

    #[test]
    fn metrics_decode_caps_hostile_lengths() {
        // A histogram claiming more than BUCKETS buckets is refused
        // before any allocation happens.
        let mut e = Enc(Vec::new());
        e.u32(0); // counters
        e.u32(0); // gauges
        e.u32(1); // histograms
        e.str("h");
        e.u32(BUCKETS as u32 + 1);
        let payload = e.0;
        let sum = stair_gf::fletcher32(&payload);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(13 + payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&5u64.to_le_bytes());
        frame.push(Opcode::Metrics as u8);
        frame.extend_from_slice(&sum.to_le_bytes());
        frame.extend_from_slice(&payload);
        assert!(matches!(
            read_response(&mut frame.as_slice()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn batch_caps_are_enforced_at_decode_time() {
        // Op count over the cap.
        let ops = vec![OpRef::Read { offset: 0, len: 1 }; MAX_BATCH_OPS as usize + 1];
        let mut wire = Vec::new();
        write_request(&mut wire, 1, &Request::Batch { batch_id: 0, ops }, None).unwrap();
        assert!(matches!(
            read_request(&mut wire.as_slice(), &mut Vec::new()),
            Err(NetError::Protocol(_))
        ));
        // Combined byte budget over the cap, even though each op is
        // individually inside it.
        let ops = vec![
            OpRef::Read {
                offset: 0,
                len: MAX_IO_BYTES as usize / 2 + 1,
            };
            2
        ];
        let mut wire = Vec::new();
        write_request(&mut wire, 1, &Request::Batch { batch_id: 0, ops }, None).unwrap();
        assert!(matches!(
            read_request(&mut wire.as_slice(), &mut Vec::new()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Hello(ServerInfo {
            version: PROTOCOL_VERSION,
            shards: 4,
            capacity: 1 << 30,
            block_size: 512,
            range_blocks: 20,
            codec: "stair:8,4,2,1-1-2".into(),
        }));
        round_trip_response(Response::Status(vec![ShardHealth {
            codec: "sd:8,4,2,3".into(),
            capacity: 999,
            block_size: 128,
            stripes: 12,
            blocks_per_stripe: 17,
            device_tolerance: 2,
            sector_tolerance: 3,
            failed_devices: vec![1, 5],
            rebuilding_devices: vec![],
            known_bad_sectors: 2,
            clean_shutdown: false,
            replayed_records: 31,
        }]));
        round_trip_response(Response::Flushed);
        round_trip_response(Response::Failed);
        round_trip_response(Response::Scrubbed(ScrubOutcome {
            stripes_scanned: 10,
            sectors_verified: 320,
            mismatches: 1,
            unavailable_devices: 0,
            records_cleared: 0,
        }));
        round_trip_response(Response::Repaired(RepairOutcome {
            devices_replaced: 1,
            stripes_repaired: 8,
            sectors_rewritten: 32,
            unrecoverable_stripes: 0,
        }));
        round_trip_response(Response::Batched(vec![
            OpResult::Read(vec![7; 96]),
            OpResult::Write(WriteOutcome {
                bytes: 64,
                blocks_written: 1,
                stripes_touched: 1,
                full_stripe_encodes: 0,
                delta_updates: 1,
            }),
            OpResult::Read(Vec::new()),
        ]));
        round_trip_response(Response::Batched(vec![]));
        round_trip_response(Response::ShuttingDown);
        round_trip_response(Response::Error("it broke".into()));
    }

    #[test]
    fn ok_or_remote_maps_only_error_responses() {
        match ok_or_remote(Response::Error("disk on fire".into())) {
            Err(NetError::Remote(msg)) => assert_eq!(msg, "disk on fire"),
            other => panic!("expected Remote, got {other:?}"),
        }
        assert!(matches!(
            ok_or_remote(Response::Batched(vec![])),
            Ok(Response::Batched(_))
        ));
        assert!(matches!(
            ok_or_remote(Response::Flushed),
            Ok(Response::Flushed)
        ));
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// A STATUS response frame (request id 7) as the encoder of commit
    /// 78e4504 wrote it, when the wire form was a struct of its own
    /// (`WireShardStatus`): one shard per codec family.
    const PARENT_STATUS_FRAME: &str = "cc000000070000000000000002f0dd4620030000001100000073746169723a382c342c322c312d312d320040010000000000000100001000000014000000010000000200000000000000030000000100000000000000000b00000073643a382c31362c322c33004017000000000000100000040000005d000000020000000000000005000000010000000100000000000000002a000000000000000800000072733a362c342c320000010000000000000200000800000010000000000000000000000000000000010000000000000000";

    #[test]
    fn status_bytes_match_the_parent_encoder() {
        fn shard(
            codec: &str,
            (capacity, block_size, stripes, blocks_per_stripe): (u64, usize, usize, usize),
            (device_tolerance, sector_tolerance): (usize, usize),
            failed_devices: &[usize],
            rebuilding_devices: &[usize],
            (known_bad_sectors, clean_shutdown, replayed_records): (usize, bool, u64),
        ) -> ShardHealth {
            ShardHealth {
                codec: codec.into(),
                capacity,
                block_size,
                stripes,
                blocks_per_stripe,
                device_tolerance,
                sector_tolerance,
                failed_devices: failed_devices.to_vec(),
                rebuilding_devices: rebuilding_devices.to_vec(),
                known_bad_sectors,
                clean_shutdown,
                replayed_records,
            }
        }
        let want = Response::Status(vec![
            shard(
                "stair:8,4,2,1-1-2",
                (81920, 256, 16, 20),
                (2, 4),
                &[2],
                &[],
                (3, true, 0),
            ),
            shard(
                "sd:8,16,2,3",
                (1523712, 4096, 4, 93),
                (2, 3),
                &[0, 5],
                &[1],
                (0, false, 42),
            ),
            shard(
                "rs:6,4,2",
                (65536, 512, 8, 16),
                (2, 0),
                &[],
                &[],
                (0, true, 0),
            ),
        ]);
        let frame = unhex(PARENT_STATUS_FRAME);
        assert_eq!(
            read_response(&mut frame.as_slice()).unwrap(),
            (7, want.clone())
        );
        let mut wire = Vec::new();
        write_response(&mut wire, 7, &want).unwrap();
        assert_eq!(wire, frame, "STATUS bytes moved");
    }

    #[test]
    fn status_with_an_unparsable_codec_is_a_protocol_error() {
        let bad = Response::Status(vec![ShardHealth {
            codec: "stair:banana".into(),
            ..ShardHealth::default()
        }]);
        let mut wire = Vec::new();
        write_response(&mut wire, 1, &bad).unwrap();
        match read_response(&mut wire.as_slice()) {
            Err(NetError::Protocol(msg)) => assert!(msg.contains("codec spec"), "{msg}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_response_payload_fails_checksum() {
        let mut wire = Vec::new();
        let resp = Response::Batched(vec![OpResult::Read(vec![1, 2, 3, 4])]);
        write_response(&mut wire, 1, &resp).unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        match read_response(&mut wire.as_slice()) {
            Err(NetError::Checksum { .. }) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_oversized_frames_are_rejected() {
        let mut wire = Vec::new();
        write_request(&mut wire, 1, &Request::Status, None).unwrap();
        assert!(matches!(
            read_request(&mut wire[..wire.len() - 1].as_ref(), &mut Vec::new()),
            Err(NetError::Io(_))
        ));
        let huge = (MAX_FRAME + 1).to_le_bytes().to_vec();
        assert!(matches!(
            read_request(&mut huge.as_slice(), &mut Vec::new()),
            Err(NetError::Protocol(_))
        ));
        // A batch op larger than the per-op cap is refused at decode time.
        let ops = vec![OpRef::Read {
            offset: 0,
            len: MAX_IO_BYTES as usize + 1,
        }];
        let mut wire = Vec::new();
        write_request(&mut wire, 1, &Request::Batch { batch_id: 0, ops }, None).unwrap();
        assert!(matches!(
            read_request(&mut wire.as_slice(), &mut Vec::new()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        // Hand-build a STATUS request frame with an extra byte.
        let mut frame = Vec::new();
        frame.extend_from_slice(&10u32.to_le_bytes());
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.push(Opcode::Status as u8);
        frame.push(0xEE);
        assert!(matches!(
            read_request(&mut frame.as_slice(), &mut Vec::new()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn bad_hello_magic_is_rejected() {
        let mut frame = Vec::new();
        let payload = [b'X'; 12];
        frame.extend_from_slice(&(9 + payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.push(Opcode::Hello as u8);
        frame.extend_from_slice(&payload);
        assert!(matches!(
            read_request(&mut frame.as_slice(), &mut Vec::new()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn opcode_table_is_dense_and_collision_free() {
        let mut seen = std::collections::BTreeSet::new();
        for op in Opcode::ALL {
            assert!(seen.insert(op as u8), "duplicate discriminant for {op:?}");
            // Round trip: the discriminant decodes back to the variant.
            assert_eq!(Opcode::from_u8(op as u8).unwrap(), op);
        }
        // Dense from 1 with no gaps: every byte in 1..=N decodes, and
        // everything outside is rejected.
        let n = Opcode::ALL.len() as u8;
        assert_eq!(*seen.iter().min().unwrap(), 1);
        assert_eq!(*seen.iter().max().unwrap(), n);
        assert_eq!(seen.len(), n as usize);
        assert!(Opcode::from_u8(0).is_err());
        assert!(Opcode::from_u8(n + 1).is_err());
    }

    #[test]
    fn opcode_wire_names_are_unique() {
        let mut names = std::collections::BTreeSet::new();
        for op in Opcode::ALL {
            assert!(names.insert(op.name()), "duplicate wire name for {op:?}");
        }
    }
}
