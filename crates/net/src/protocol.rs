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

use std::io::{self, IoSlice, Read, Write};

use stair_code::CodecSpec;
use stair_device::{IoOp, OpRef, OpResult, RepairOutcome, ScrubOutcome, ShardHealth, WriteOutcome};
use stair_gf::fletcher32;
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

/// A parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
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
        ops: Vec<IoOp>,
    },
    /// Pull the server's metrics snapshot (request/connection counters
    /// and latency histograms, plus the store's own counters aggregated
    /// across shards).
    Metrics,
    /// Pull the server's flight recorder: recently completed traces
    /// plus the slow/errored ones retained past the main ring's wrap.
    Trace,
}

impl Request {
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

/// Bounds-checked little-endian reader.
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
            .ok_or_else(|| NetError::Protocol("truncated frame".into()))?;
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
    fn str(&mut self) -> Result<String, NetError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| NetError::Protocol("string field is not UTF-8".into()))
    }
    fn u32s(&mut self) -> Result<Vec<usize>, NetError> {
        let len = self.u32()? as usize;
        // Cap pre-allocation at what the remaining bytes could hold.
        if len > self.buf.len().saturating_sub(self.at) / 4 {
            return Err(NetError::Protocol("list length exceeds frame".into()));
        }
        (0..len).map(|_| Ok(self.u32()? as usize)).collect()
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

/// Encodes a BATCH request payload straight from borrowed op views —
/// what lets a client frame a `write_at` without first copying its
/// data into an owned [`IoOp`], and resend the same bytes on a retry.
pub fn encode_batch(batch_id: u64, ops: &[OpRef<'_>]) -> Vec<u8> {
    let bytes: usize = ops
        .iter()
        .filter(|op| op.is_write())
        .map(OpRef::byte_len)
        .sum();
    let mut e = Enc(Vec::with_capacity(12 + 13 * ops.len() + bytes));
    e.u64(batch_id);
    e.u32(ops.len() as u32);
    for op in ops {
        e.u8(op.is_write() as u8);
        e.u64(op.offset());
        e.u32(op.byte_len() as u32);
        if let OpRef::Write { data, .. } = op {
            e.bytes(data);
        }
    }
    e.0
}

fn encode_request_payload(req: &Request) -> Vec<u8> {
    let mut e = Enc(Vec::new());
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
            return encode_batch(*batch_id, &OpRef::views(ops));
        }
    }
    e.0
}

fn decode_request_payload(op: Opcode, payload: &[u8]) -> Result<Request, NetError> {
    let mut d = Dec::new(payload);
    let req = match op {
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
                    0 => IoOp::Read {
                        offset,
                        len: len as usize,
                    },
                    1 => IoOp::Write {
                        offset,
                        data: d.take(len as usize)?.to_vec(),
                    },
                    k => return Err(NetError::Protocol(format!("unknown batch op kind {k}"))),
                });
            }
            Request::Batch { batch_id, ops }
        }
        Opcode::Metrics => Request::Metrics,
        Opcode::Trace => Request::Trace,
    };
    d.finish()?;
    Ok(req)
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

fn decode_metrics(d: &mut Dec<'_>) -> Result<MetricsSnapshot, NetError> {
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

fn decode_bool(d: &mut Dec<'_>, what: &str) -> Result<bool, NetError> {
    match d.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        k => Err(NetError::Protocol(format!("bad {what} bool byte {k}"))),
    }
}

fn decode_traces(d: &mut Dec<'_>) -> Result<Vec<TraceRecord>, NetError> {
    let count = d.u32()?;
    if count > MAX_TRACES {
        return Err(NetError::Protocol("trace list too long".into()));
    }
    let mut traces = Vec::with_capacity(count.min(256) as usize);
    for _ in 0..count {
        let trace_id = d.u64()?;
        let root_span = d.u64()?;
        let duration_us = d.u64()?;
        let ok = decode_bool(d, "trace ok")?;
        let slow = decode_bool(d, "trace slow")?;
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
                ok: decode_bool(d, "span ok")?,
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

/// Bytes of a response frame ahead of its payload: `[u32 len]
/// [u64 request_id] [u8 status] [u32 checksum]`.
const RESPONSE_HEADER: usize = 17;

/// Encodes `resp` as a whole response frame: [`RESPONSE_HEADER`] bytes
/// reserved (zero) for [`write_response`] to fill, then the payload,
/// in one buffer sized up front — a read reply's data is copied once.
fn encode_response(resp: &Response) -> (u8, Vec<u8>) {
    // A BATCH reply's size, per the encoding below: kind + length +
    // data per read, kind + five counters per write.
    let payload = match resp {
        Response::Batched(results) => results
            .iter()
            .map(|r| match r {
                OpResult::Read(data) => 5 + data.len(),
                OpResult::Write(_) => 41,
            })
            .sum::<usize>(),
        _ => 0,
    };
    let mut e = Enc(Vec::with_capacity(RESPONSE_HEADER + 4 + payload));
    e.0.resize(RESPONSE_HEADER, 0);
    let status = match resp {
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
                        e.u8(0);
                        e.u32(data.len() as u32);
                        e.bytes(data);
                    }
                    OpResult::Write(w) => {
                        e.u8(1);
                        e.u64(w.bytes);
                        e.u64(w.blocks_written);
                        e.u64(w.stripes_touched);
                        e.u64(w.full_stripe_encodes);
                        e.u64(w.delta_updates);
                    }
                }
            }
            Opcode::Batch as u8
        }
        Response::Metrics(snap) => {
            encode_metrics(&mut e, snap);
            Opcode::Metrics as u8
        }
        Response::Traces(traces) => {
            encode_traces(&mut e, traces);
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
    };
    (status, e.0)
}

fn decode_response_payload(status: u8, payload: &[u8]) -> Result<Response, NetError> {
    if status == 0 {
        return Ok(Response::Error(
            String::from_utf8_lossy(payload).into_owned(),
        ));
    }
    let mut d = Dec::new(payload);
    let resp = match Opcode::from_u8(status)? {
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
                    clean_shutdown: decode_bool(&mut d, "clean_shutdown")?,
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
                        OpResult::Read(d.take(len)?.to_vec())
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
        Opcode::Metrics => Response::Metrics(decode_metrics(&mut d)?),
        Opcode::Trace => Response::Traces(decode_traces(&mut d)?),
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
    };
    d.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------

fn read_frame(stream: &mut impl Read) -> Result<Vec<u8>, NetError> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(NetError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    // Reserved, not zero-filled: the body overwrites every byte.
    let mut body = Vec::with_capacity(len as usize);
    Read::take(&mut *stream, u64::from(len)).read_to_end(&mut body)?;
    if body.len() < len as usize {
        return Err(NetError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "frame body ends early",
        )));
    }
    Ok(body)
}

/// Writes one request frame with no trace context.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_request(stream: &mut impl Write, id: u64, req: &Request) -> Result<(), NetError> {
    write_request_traced(stream, id, req, None)
}

/// Writes one request frame, optionally carrying span context.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_request_traced(
    stream: &mut impl Write,
    id: u64,
    req: &Request,
    ctx: Option<SpanCtx>,
) -> Result<(), NetError> {
    // No-op unless the caller is inside a recorded span (only clients
    // write requests, so this is the client-side serialization cost).
    let payload = {
        let _enc = stair_obs::trace::span(stair_obs::trace::names::CLIENT_ENCODE);
        encode_request_payload(req)
    };
    write_frame(stream, id, req.opcode(), ctx, &payload)
}

/// Writes one request frame around an already-encoded payload (see
/// [`encode_batch`]). Span context sets [`TRACE_FLAG`] on the opcode
/// byte and prefixes the payload with `[u64 trace_id][u64 span_id]`.
/// Header and payload go out in one vectored write, so the payload a
/// client keeps for retries is never copied into a frame buffer.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_frame(
    stream: &mut impl Write,
    id: u64,
    opcode: Opcode,
    ctx: Option<SpanCtx>,
    payload: &[u8],
) -> Result<(), NetError> {
    let prefix = if ctx.is_some() { 16 } else { 0 };
    let mut header = [0u8; 13 + 16];
    header[..4].copy_from_slice(&(9 + (prefix + payload.len()) as u32).to_le_bytes());
    header[4..12].copy_from_slice(&id.to_le_bytes());
    header[12] = opcode as u8;
    if let Some(ctx) = ctx {
        header[12] |= TRACE_FLAG;
        header[13..21].copy_from_slice(&ctx.trace_id.to_le_bytes());
        header[21..].copy_from_slice(&ctx.span_id.to_le_bytes());
    }
    let mut bufs = [IoSlice::new(&header[..13 + prefix]), IoSlice::new(payload)];
    let mut bufs = &mut bufs[..];
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

/// Reads one request frame, returning `(request_id, request)` and
/// discarding any trace context — for callers that do not trace.
///
/// # Errors
///
/// Socket errors, truncated frames, unknown opcodes, or oversized
/// requests are all rejected.
pub fn read_request(stream: &mut impl Read) -> Result<(u64, Request), NetError> {
    let (id, req, _) = read_request_traced(stream)?;
    Ok((id, req))
}

/// Reads one request frame, returning `(request_id, request, span
/// context)` — the context is `Some` exactly when the sender set
/// [`TRACE_FLAG`].
///
/// # Errors
///
/// Socket errors, truncated frames, unknown opcodes, or oversized
/// requests are all rejected.
pub fn read_request_traced(
    stream: &mut impl Read,
) -> Result<(u64, Request, Option<SpanCtx>), NetError> {
    let body = read_frame(stream)?;
    let mut d = Dec::new(&body);
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
    let payload = &body[d.at..];
    Ok((id, decode_request_payload(op, payload)?, ctx))
}

/// Writes one response frame (status byte + Fletcher-32 of the
/// payload). The payload is encoded behind its header's reserved bytes
/// and checksummed in place, so the frame is built once.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_response(stream: &mut impl Write, id: u64, resp: &Response) -> Result<(), NetError> {
    let (status, mut frame) = encode_response(resp);
    let sum = fletcher32(&frame[RESPONSE_HEADER..]);
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..12].copy_from_slice(&id.to_le_bytes());
    frame[12] = status;
    frame[13..RESPONSE_HEADER].copy_from_slice(&sum.to_le_bytes());
    stream.write_all(&frame)?;
    Ok(())
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

/// Reads one response frame, verifying the payload checksum. Returns
/// `(request_id, response)`.
///
/// # Errors
///
/// Socket errors, malformed frames, and checksum mismatches.
pub fn read_response(stream: &mut impl Read) -> Result<(u64, Response), NetError> {
    let body = read_frame(stream)?;
    let mut d = Dec::new(&body);
    let id = d.u64()?;
    let status = d.u8()?;
    let expected = d.u32()?;
    let payload = &body[d.at..];
    let actual = fletcher32(payload);
    if actual != expected {
        return Err(NetError::Checksum { expected, actual });
    }
    // Covers parsing only, not the socket wait above — a trace must not
    // double-count the server's time under a client-side span.
    let _dec = stair_obs::trace::span(stair_obs::trace::names::CLIENT_DECODE);
    Ok((id, decode_response_payload(status, payload)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let mut wire = Vec::new();
        write_request(&mut wire, 7, &req).unwrap();
        let (id, back) = read_request(&mut wire.as_slice()).unwrap();
        assert_eq!(id, 7);
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
        round_trip_request(Request::Batch {
            batch_id: 0xFEED_F00D_0000_0042,
            ops: vec![
                IoOp::Read {
                    offset: 512,
                    len: 64,
                },
                IoOp::Write {
                    offset: 0,
                    data: (0..=127).collect(),
                },
                IoOp::Read { offset: 9, len: 0 },
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
            ops: vec![IoOp::Read { offset: 64, len: 8 }],
        };
        let ctx = SpanCtx {
            trace_id: 0xDEAD_BEEF_0000_0001,
            span_id: 0x1234_5678_9ABC_DEF0,
        };
        let mut wire = Vec::new();
        write_request_traced(&mut wire, 55, &req, Some(ctx)).unwrap();
        let (id, back, got) = read_request_traced(&mut wire.as_slice()).unwrap();
        assert_eq!(id, 55);
        assert_eq!(back, req);
        assert_eq!(got, Some(ctx));
    }

    #[test]
    fn untraced_frames_carry_no_flag_and_no_context() {
        // write_request (and write_request_traced with None) emit the
        // bare layout: no flag bit, no context prefix.
        let req = Request::Scrub { threads: 4096 };
        let mut wire = Vec::new();
        write_request(&mut wire, 0x0A0B_0C0D_0E0F_1011, &req).unwrap();
        let mut expected = Vec::new();
        expected.extend_from_slice(&13u32.to_le_bytes()); // 9 + 4
        expected.extend_from_slice(&0x0A0B_0C0D_0E0F_1011u64.to_le_bytes());
        expected.push(6); // Opcode::Scrub, high bit clear
        expected.extend_from_slice(&4096u32.to_le_bytes());
        assert_eq!(wire, expected);

        let mut traced_none = Vec::new();
        write_request_traced(&mut traced_none, 0x0A0B_0C0D_0E0F_1011, &req, None).unwrap();
        assert_eq!(traced_none, expected);
        let (id, back) = read_request(&mut wire.as_slice()).unwrap();
        assert_eq!((id, back), (0x0A0B_0C0D_0E0F_1011, req));
    }

    #[test]
    fn batches_encode_identically_from_borrowed_views() {
        // The client frames a write from a borrowed slice; the bytes
        // must be exactly what the owned request encodes to, batch id
        // first.
        let data: Vec<u8> = (0..=127).collect();
        let req = Request::Batch {
            batch_id: 77,
            ops: vec![
                IoOp::Read {
                    offset: 512,
                    len: 8,
                },
                IoOp::Write {
                    offset: 9,
                    data: data.clone(),
                },
            ],
        };
        let mut owned = Vec::new();
        write_request(&mut owned, 9, &req).unwrap();
        let views = [
            OpRef::Read {
                offset: 512,
                len: 8,
            },
            OpRef::Write {
                offset: 9,
                data: &data,
            },
        ];
        let payload = encode_batch(77, &views);
        assert_eq!(payload[..8], 77u64.to_le_bytes());
        let mut borrowed = Vec::new();
        write_frame(&mut borrowed, 9, Opcode::Batch, None, &payload).unwrap();
        assert_eq!(borrowed, owned);
        let (_, back) = read_request(&mut borrowed.as_slice()).unwrap();
        assert_eq!(back, req);
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
        let sum = fletcher32(&payload);
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
        let sum = fletcher32(&payload);
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
        let sum = fletcher32(&payload);
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
        let sum = fletcher32(&payload);
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
        let ops = vec![IoOp::Read { offset: 0, len: 1 }; MAX_BATCH_OPS as usize + 1];
        let mut wire = Vec::new();
        write_request(&mut wire, 1, &Request::Batch { batch_id: 0, ops }).unwrap();
        assert!(matches!(
            read_request(&mut wire.as_slice()),
            Err(NetError::Protocol(_))
        ));
        // Combined byte budget over the cap, even though each op is
        // individually inside it.
        let ops = vec![
            IoOp::Read {
                offset: 0,
                len: MAX_IO_BYTES as usize / 2 + 1,
            };
            2
        ];
        let mut wire = Vec::new();
        write_request(&mut wire, 1, &Request::Batch { batch_id: 0, ops }).unwrap();
        assert!(matches!(
            read_request(&mut wire.as_slice()),
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
        write_request(&mut wire, 1, &Request::Status).unwrap();
        assert!(matches!(
            read_request(&mut wire[..wire.len() - 1].as_ref()),
            Err(NetError::Io(_))
        ));
        let huge = (MAX_FRAME + 1).to_le_bytes().to_vec();
        assert!(matches!(
            read_request(&mut huge.as_slice()),
            Err(NetError::Protocol(_))
        ));
        // A batch op larger than the per-op cap is refused at decode time.
        let ops = vec![IoOp::Read {
            offset: 0,
            len: MAX_IO_BYTES as usize + 1,
        }];
        let mut wire = Vec::new();
        write_request(&mut wire, 1, &Request::Batch { batch_id: 0, ops }).unwrap();
        assert!(matches!(
            read_request(&mut wire.as_slice()),
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
            read_request(&mut frame.as_slice()),
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
            read_request(&mut frame.as_slice()),
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
