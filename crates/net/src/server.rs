//! The stair-net server: a multi-threaded TCP front end over a
//! [`ShardSet`].
//!
//! # Architecture
//!
//! * one **thread per connection** reads a frame, executes it and
//!   writes the reply itself: a request never changes threads, and a
//!   connection's requests run in the order they arrived;
//! * at most [`ServerConfig::workers`] requests **execute at once**. A
//!   connection takes a permit after parsing a frame (the wait is the
//!   `srv.queue` span) and gives it back when the request is done. One
//!   waiting for a permit reads nothing more, so a busy server pushes
//!   back through TCP instead of growing a queue. Stripe locks inside
//!   each shard keep concurrent requests safe, and different shards
//!   share nothing;
//! * all data arrives as **BATCH** frames and executes through
//!   [`ShardSet::submit_ops`] — one planner pass per touched stripe
//!   however many ops the frame carries; there is no second,
//!   server-side coalescing layer;
//! * every other request calls the shard set's `BlockDevice` /
//!   `FaultAdmin` method of the same name — the code an in-process
//!   `shards:` caller runs, bounds checks and thread clamping included —
//!   and a failure travels back as the error's text.
//!
//! A panic while executing a request ends that one connection: the
//! permit guard gives its permit back as the thread unwinds, the
//! connection is deregistered and closed, and every other connection
//! keeps serving.
//!
//! Shutdown (a SHUTDOWN frame, or [`ServerHandle::shutdown`]) stops the
//! accept loop, lets the requests already read finish, joins every
//! thread, and flushes the shards before [`Server::run`] returns.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use stair_device::{BlockDevice, FaultAdmin, OpRef};
use stair_obs::sync::lock;
use stair_obs::trace::{self, names};
use stair_obs::{MetricsRegistry, SpanCtx};

use crate::protocol::{
    read_request_traced, recorded_traces, write_response, Opcode, Request, Response, ServerInfo,
    PROTOCOL_VERSION,
};
use crate::shards::ShardSet;
use crate::NetError;

/// Tunables for [`Server::bind`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Requests executing at once, across all connections.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { workers: 4 }
    }
}

/// Most recently-seen BATCH ids remembered for duplicate-delivery
/// accounting.
const RECENT_BATCH_IDS: usize = 64;

/// A counting semaphore: the bound on requests executing at once.
struct Permits {
    free: Mutex<usize>,
    returned: Condvar,
}

impl Permits {
    fn new(n: usize) -> Self {
        Permits {
            free: Mutex::new(n),
            returned: Condvar::new(),
        }
    }

    /// Blocks until a permit is free and takes it.
    fn acquire(&self) -> Permit<'_> {
        let mut free = lock(&self.free);
        while *free == 0 {
            free = self
                .returned
                .wait(free)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        *free -= 1;
        Permit(self)
    }
}

/// A held permit; dropping it — unwinding included — gives it back.
struct Permit<'a>(&'a Permits);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *lock(&self.0.free) += 1;
        self.0.returned.notify_one();
    }
}

/// One opcode's metric names, built once per server so that charging a
/// request formats nothing.
struct OpMetrics {
    req: String,
    errors: String,
    lat_us: String,
    bytes: String,
}

impl OpMetrics {
    fn new(op: Opcode) -> Self {
        let kind = op.name();
        OpMetrics {
            req: format!("srv.req.{kind}"),
            errors: format!("srv.errors.{kind}"),
            lat_us: format!("srv.lat_us.{kind}"),
            bytes: format!("srv.bytes.{kind}"),
        }
    }

    /// Charges one completed request to the counters, latency histogram
    /// and byte counter.
    fn record(&self, registry: &MetricsRegistry, bytes: u64, elapsed: Duration, ok: bool) {
        registry.counter(&self.req).inc();
        if !ok {
            registry.counter(&self.errors).inc();
        }
        registry
            .histogram(&self.lat_us)
            .record(elapsed.as_micros() as u64);
        if bytes > 0 {
            registry.counter(&self.bytes).add(bytes);
        }
    }
}

struct State {
    shutdown: AtomicBool,
    /// Cloned handles of *live* connections, shut down to unblock their
    /// threads at server shutdown. Each connection removes its own
    /// entry on exit, so dead connections do not leak file descriptors.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// The bound on requests executing at once.
    permits: Permits,
    /// Per-opcode request counters and latency histograms; served back
    /// over the METRICS opcode.
    registry: MetricsRegistry,
    /// [`OpMetrics`] per opcode, indexed by `opcode - 1` (the opcode
    /// table is dense from 1).
    op_metrics: [OpMetrics; Opcode::ALL.len()],
    /// Ring of recent nonzero BATCH ids, server-wide: a client that
    /// lost its socket mid-batch reissues the frame under the same id
    /// over a *new* connection, so a repeat here is a redelivery.
    recent_batches: Mutex<VecDeque<u64>>,
}

impl State {
    fn metrics(&self, op: Opcode) -> &OpMetrics {
        &self.op_metrics[op as usize - 1]
    }

    /// Records `batch_id` and reports whether it was already seen (a
    /// duplicate delivery of a retried batch).
    fn batch_seen_before(&self, batch_id: u64) -> bool {
        let mut recent = lock(&self.recent_batches);
        if recent.contains(&batch_id) {
            return true;
        }
        if recent.len() >= RECENT_BATCH_IDS {
            recent.pop_front();
        }
        recent.push_back(batch_id);
        false
    }
}

/// A connection's entry in [`State::conns`] and the `srv.connections`
/// gauge, undone on drop — also when the connection's thread unwinds.
struct Registered<'a> {
    state: &'a State,
    id: u64,
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        self.state.registry.gauge("srv.connections").add(-1);
        lock(&self.state.conns).remove(&self.id);
    }
}

/// A handle for stopping a running server from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<State>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Asks the server to stop: no new connections, requests already
    /// read finish, then [`Server::run`] returns.
    pub fn shutdown(&self) {
        begin_shutdown(&self.state, self.addr);
    }

    /// Forcibly drops every live client connection while the server
    /// keeps serving — an operational lever (shed all sessions, e.g.
    /// before a config change) and the hook the client-resilience
    /// regression test uses to kill sockets between ops. Clients
    /// reconnect on their next call.
    pub fn disconnect_all(&self) {
        for conn in lock(&self.state.conns).values() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

fn begin_shutdown(state: &State, addr: SocketAddr) {
    if state.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    // Unblock connections parked in a read.
    for conn in lock(&state.conns).values() {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
    // Unblock the accept loop with a throwaway connection.
    let _ = TcpStream::connect(addr);
}

/// The TCP storage service.
pub struct Server {
    listener: TcpListener,
    shards: Arc<ShardSet>,
    state: Arc<State>,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) in front
    /// of `shards`.
    ///
    /// # Errors
    ///
    /// A busy port or unroutable address comes back as [`NetError::Io`]
    /// with the address in the message — no panic.
    pub fn bind(addr: &str, shards: ShardSet, config: ServerConfig) -> Result<Self, NetError> {
        if config.workers == 0 {
            return Err(NetError::Shards("need at least one worker".into()));
        }
        let listener = TcpListener::bind(addr).map_err(|e| {
            NetError::Io(io::Error::new(e.kind(), format!("cannot bind {addr}: {e}")))
        })?;
        let local = listener.local_addr()?;
        Ok(Server {
            listener,
            shards: Arc::new(shards),
            state: Arc::new(State {
                shutdown: AtomicBool::new(false),
                conns: Mutex::new(HashMap::new()),
                permits: Permits::new(config.workers),
                registry: MetricsRegistry::new(),
                op_metrics: Opcode::ALL.map(OpMetrics::new),
                recent_batches: Mutex::new(VecDeque::new()),
            }),
            addr: local,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can stop this server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
            addr: self.addr,
        }
    }

    /// The HELLO payload this server announces.
    pub fn info(&self) -> ServerInfo {
        ServerInfo {
            version: PROTOCOL_VERSION,
            shards: self.shards.shard_count() as u32,
            capacity: self.shards.capacity(),
            block_size: self.shards.block_size() as u32,
            range_blocks: self.shards.placement().range_blocks() as u32,
            codec: self.shards.codec(),
        }
    }

    /// Serves until shutdown, then joins every connection's thread and
    /// flushes the shards.
    ///
    /// # Errors
    ///
    /// Only the final flush can fail; per-connection errors retire that
    /// connection silently.
    pub fn run(self) -> Result<(), NetError> {
        let mut conns = Vec::new();
        let mut next_conn: u64 = 0;
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Reap finished connection threads so neither the handle
            // list nor the live-connection map grows with churn.
            conns.retain(|h: &std::thread::JoinHandle<()>| !h.is_finished());
            let conn_id = next_conn;
            next_conn += 1;
            if let Ok(clone) = stream.try_clone() {
                lock(&self.state.conns).insert(conn_id, clone);
            }
            self.state.registry.counter("srv.connections_total").inc();
            self.state.registry.gauge("srv.connections").add(1);
            let state = Arc::clone(&self.state);
            let shards = Arc::clone(&self.shards);
            let info = self.info();
            let addr = self.addr;
            conns.push(std::thread::spawn(move || {
                let _registered = Registered {
                    state: &state,
                    id: conn_id,
                };
                serve_conn(stream, &state, &shards, &info, addr);
            }));
        }

        // Shutdown: wake every connection and wait for it to finish.
        begin_shutdown(&self.state, self.addr);
        for c in conns {
            let _ = c.join();
        }
        self.shards
            .flush()
            .map_err(|e| NetError::Io(io::Error::other(e)))
    }
}

/// Serves one connection until EOF, error, or shutdown: each frame is
/// parsed, executed and answered before the next is read.
fn serve_conn(
    mut stream: TcpStream,
    state: &State,
    shards: &ShardSet,
    info: &ServerInfo,
    addr: SocketAddr,
) {
    loop {
        let (id, req, ctx) = match read_request_traced(&mut stream) {
            Ok(x) => x,
            Err(NetError::Protocol(msg)) => {
                // A malformed frame desynchronizes the stream; report and
                // hang up rather than guessing where the next frame starts.
                let msg = format!("protocol error: {msg}");
                let _ = write_response(&mut stream, u64::MAX, &Response::Error(msg));
                return;
            }
            Err(_) => return, // EOF or socket error
        };
        let received = Instant::now();
        let resp = match req {
            Request::Hello { version } => {
                let metrics = state.metrics(Opcode::Hello);
                state.registry.counter(&metrics.req).inc();
                if version != info.version {
                    state.registry.counter(&metrics.errors).inc();
                    let msg = format!(
                        "version mismatch: server speaks v{}, client v{version}",
                        info.version
                    );
                    let _ = write_response(&mut stream, id, &Response::Error(msg));
                    return;
                }
                Response::Hello(info.clone())
            }
            Request::Shutdown => {
                state
                    .registry
                    .counter(&state.metrics(Opcode::Shutdown).req)
                    .inc();
                let _ = write_response(&mut stream, id, &Response::ShuttingDown);
                begin_shutdown(state, addr);
                return;
            }
            req => {
                // Duplicate-batch accounting: a nonzero id seen twice
                // means the client redelivered a batch after a redial;
                // the journal makes re-applying it safe, the counter
                // makes it observable.
                if let Request::Batch { batch_id, .. } = &req {
                    if *batch_id != 0 && state.batch_seen_before(*batch_id) {
                        state.registry.counter("srv.batch.redelivered").inc();
                    }
                }
                serve_request(state, shards, info, req, received, ctx)
            }
        };
        // A send to a dead peer ends the connection.
        let sent = write_response(&mut stream, id, &resp);
        if sent.is_err() || state.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Executes one parsed request under a permit and returns its reply.
fn serve_request(
    state: &State,
    shards: &ShardSet,
    info: &ServerInfo,
    req: Request,
    received: Instant,
    ctx: Option<SpanCtx>,
) -> Response {
    let metrics = state.metrics(req.opcode());
    let bytes = request_bytes(&req);
    let _permit = state.permits.acquire();
    let start = Instant::now();
    // A traced frame roots a server-side span tree: the root starts
    // when the frame was parsed and joins the client's trace; the
    // permit wait is recorded as the interval between parse and now.
    let root = ctx.map(|ctx| {
        let g = trace::wire_root_at(names::SRV_REQUEST, ctx.trace_id, ctx.span_id, received);
        trace::span_at(
            names::SRV_QUEUE,
            received,
            start.saturating_duration_since(received),
        );
        g
    });
    let resp = {
        let _exec = trace::span(names::SRV_EXEC);
        execute(shards, info, &state.registry, req)
    };
    let ok = !matches!(resp, Response::Error(_));
    metrics.record(&state.registry, bytes, start.elapsed(), ok);
    // The root closes before the response frame is written: a client
    // holding its reply can already pull this trace, and `srv.request`
    // lies inside the client span that waited on it. An untraced
    // request is timed over the same interval, from frame parse, and
    // kept only if it failed or was slow.
    trace::finish_op(root, names::SRV_REQUEST, received, bytes, ok);
    resp
}

/// The byte count a request moves (write payloads plus requested read
/// lengths); what its span and the throughput counters attribute to it.
fn request_bytes(req: &Request) -> u64 {
    match req {
        Request::Batch { ops, .. } => ops.iter().map(|op| op.byte_len() as u64).sum(),
        _ => 0,
    }
}

/// Executes one request.
fn execute(
    shards: &ShardSet,
    info: &ServerInfo,
    registry: &MetricsRegistry,
    req: Request,
) -> Response {
    let result = (|| -> Result<Response, Box<dyn std::error::Error>> {
        Ok(match req {
            Request::Hello { .. } => Response::Hello(info.clone()),
            Request::Status => Response::Status(shards.status()?.shards),
            // The server's own request metrics plus the aggregated
            // store counters, one frame.
            Request::Metrics => {
                let mut snap = registry.snapshot();
                snap.merge(&shards.metrics()?);
                Response::Metrics(snap)
            }
            Request::Trace => Response::Traces(recorded_traces()),
            #[expect(
                clippy::unreachable,
                reason = "a connection answers shutdowns itself, before execute()"
            )]
            Request::Shutdown => unreachable!("handled before execute()"),
            // A BATCH executes as one unit through the shard set: split
            // by placement, shards in parallel, one stripe lock + one
            // codec decision per touched stripe.
            Request::Batch { ops, .. } => {
                Response::Batched(shards.submit_ops(&OpRef::views(&ops))?)
            }
            Request::Flush => {
                shards.flush()?;
                Response::Flushed
            }
            Request::FailDevice { shard, device } => {
                shards.fail_device(shard as usize, device as usize)?;
                Response::Failed
            }
            Request::CorruptSectors {
                shard,
                device,
                stripe,
                row,
                len,
            } => {
                shards.corrupt_sectors(
                    shard as usize,
                    device as usize,
                    stripe as usize,
                    row as usize,
                    len as usize,
                )?;
                Response::Failed
            }
            Request::Scrub { threads } => Response::Scrubbed(shards.scrub(threads as usize)?),
            Request::Repair { threads } => Response::Repaired(shards.repair(threads as usize)?),
        })
    })();
    result.unwrap_or_else(|e| Response::Error(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn at_most_n_requests_hold_a_permit_and_a_panicking_holder_returns_its() {
        const PERMITS: usize = 3;
        let permits = Permits::new(PERMITS);
        let holding = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        let _permit = permits.acquire();
                        let now = holding.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        holding.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        let peak = peak.load(Ordering::SeqCst);
        assert!((1..=PERMITS).contains(&peak), "{peak} held at once");

        // Every holder panics: each permit comes back as it unwinds.
        for _ in 0..2 * PERMITS {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _permit = permits.acquire();
                panic!("request panicked");
            }));
            assert!(unwound.is_err());
        }
        let held: Vec<Permit<'_>> = (0..PERMITS).map(|_| permits.acquire()).collect();
        assert_eq!(*lock(&permits.free), 0);
        drop(held);
        assert_eq!(*lock(&permits.free), PERMITS);
    }
}
