//! The stair-net server: a multi-threaded TCP front end over a
//! [`ShardSet`].
//!
//! # Architecture
//!
//! * one **reader thread per connection** parses frames and enqueues
//!   jobs (HELLO and SHUTDOWN are answered inline);
//! * a fixed **worker pool** pops jobs and executes them against the
//!   shard set — stripe locks inside each shard keep concurrent workers
//!   safe, and different shards share nothing;
//! * responses are written back under a per-connection mutex, tagged
//!   with the request ID, so a pipelining client may see completions out
//!   of order;
//! * all data arrives as **BATCH** frames and executes through
//!   [`ShardSet::submit_ops`] — one planner pass per touched stripe
//!   however many ops the frame carries; there is no second,
//!   server-side coalescing layer.
//!
//! Shutdown (a SHUTDOWN frame, or [`ServerHandle::shutdown`]) stops the
//! accept loop, drains the queue, joins every thread, and flushes the
//! shards before [`Server::run`] returns.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use stair_device::OpRef;
use stair_obs::trace::{self, names};
use stair_obs::{MetricsRegistry, SpanCtx};

use crate::protocol::{
    read_request_traced, write_response, Request, Response, ServerInfo, WireTrace, PROTOCOL_VERSION,
};
use crate::shards::{wire_status, ShardSet};
use crate::NetError;

/// Tunables for [`Server::bind`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads executing requests.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { workers: 4 }
    }
}

/// One queued request plus where its response goes.
struct Job {
    writer: Arc<ConnWriter>,
    id: u64,
    req: Request,
    /// When the reader parsed the frame — the start of the server-side
    /// span and the base of the queue-wait measurement.
    received: Instant,
    /// The trace context carried on the frame, if the client traced it.
    ctx: Option<SpanCtx>,
}

/// Most recently-seen BATCH ids remembered for duplicate-delivery
/// accounting.
const RECENT_BATCH_IDS: usize = 64;

/// The write half of a connection; workers serialize frames under the
/// lock. A send to a dead peer is ignored — the reader thread notices
/// the hangup and retires the connection.
struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    fn send(&self, id: u64, resp: &Response) {
        // Poisoning here would mean a worker panicked mid-frame; the
        // stream is unusable either way, so take the guard regardless.
        let mut stream = self
            .stream
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = write_response(&mut *stream, id, resp);
    }
}

struct State {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Cloned handles of *live* connections, shut down to unblock their
    /// readers at server shutdown. Each reader removes its own entry on
    /// exit, so dead connections do not leak file descriptors.
    conns: Mutex<std::collections::HashMap<u64, TcpStream>>,
    /// Per-opcode request counters, latency histograms, and the trace
    /// journal; served back over the METRICS opcode.
    registry: MetricsRegistry,
    /// Ring of recent nonzero BATCH ids, server-wide: a client that
    /// lost its socket mid-batch reissues the frame under the same id
    /// over a *new* connection, so a repeat here is a redelivery.
    recent_batches: Mutex<VecDeque<u64>>,
}

impl State {
    fn push(&self, job: Job) {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push_back(job);
        self.available.notify_one();
    }

    /// Records `batch_id` and reports whether it was already seen (a
    /// duplicate delivery of a retried batch).
    fn batch_seen_before(&self, batch_id: u64) -> bool {
        let mut recent = self
            .recent_batches
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
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

/// A handle for stopping a running server from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<State>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Asks the server to stop: no new connections, queued work drains,
    /// then [`Server::run`] returns.
    pub fn shutdown(&self) {
        begin_shutdown(&self.state, self.addr);
    }

    /// Forcibly drops every live client connection while the server
    /// keeps serving — an operational lever (shed all sessions, e.g.
    /// before a config change) and the hook the client-resilience
    /// regression test uses to kill sockets between ops. Clients
    /// reconnect on their next call.
    pub fn disconnect_all(&self) {
        for conn in self
            .state
            .conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

fn begin_shutdown(state: &State, addr: SocketAddr) {
    if state.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    state.available.notify_all();
    // Unblock readers parked in read_exact.
    for conn in state
        .conns
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .values()
    {
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
    config: ServerConfig,
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
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                shutdown: AtomicBool::new(false),
                conns: Mutex::new(std::collections::HashMap::new()),
                registry: MetricsRegistry::new(),
                recent_batches: Mutex::new(VecDeque::new()),
            }),
            config,
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

    /// Serves until shutdown, then drains, joins every thread, and
    /// flushes the shards.
    ///
    /// # Errors
    ///
    /// Only the final flush can fail; per-connection errors retire that
    /// connection silently.
    pub fn run(self) -> Result<(), NetError> {
        let mut workers = Vec::with_capacity(self.config.workers);
        for _ in 0..self.config.workers {
            let state = Arc::clone(&self.state);
            let shards = Arc::clone(&self.shards);
            let info = self.info();
            workers.push(std::thread::spawn(move || {
                worker_loop(&state, &shards, &info)
            }));
        }

        let mut readers = Vec::new();
        let mut next_conn: u64 = 0;
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Reap finished reader threads so neither the handle list nor
            // the live-connection map grows with connection churn.
            readers.retain(|h: &std::thread::JoinHandle<()>| !h.is_finished());
            let conn_id = next_conn;
            next_conn += 1;
            if let Ok(clone) = stream.try_clone() {
                self.state
                    .conns
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .insert(conn_id, clone);
            }
            self.state.registry.counter("srv.connections_total").inc();
            self.state.registry.gauge("srv.connections").add(1);
            let state = Arc::clone(&self.state);
            let info = self.info();
            let addr = self.addr;
            readers.push(std::thread::spawn(move || {
                reader_loop(stream, &state, &info, addr);
                state.registry.gauge("srv.connections").add(-1);
                state
                    .conns
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .remove(&conn_id);
            }));
        }

        // Shutdown: wake everything and wait for it to drain.
        begin_shutdown(&self.state, self.addr);
        for r in readers {
            let _ = r.join();
        }
        self.state.available.notify_all();
        for w in workers {
            let _ = w.join();
        }
        self.shards.flush()
    }
}

/// Parses frames off one connection until EOF, error, or shutdown.
fn reader_loop(stream: TcpStream, state: &State, info: &ServerInfo, addr: SocketAddr) {
    let writer = Arc::new(ConnWriter {
        stream: match stream.try_clone() {
            Ok(s) => Mutex::new(s),
            Err(_) => return,
        },
    });
    let mut stream = stream;
    loop {
        let (id, req, ctx) = match read_request_traced(&mut stream) {
            Ok(x) => x,
            Err(NetError::Protocol(msg)) => {
                // A malformed frame desynchronizes the stream; report and
                // hang up rather than guessing where the next frame starts.
                writer.send(u64::MAX, &Response::Error(format!("protocol error: {msg}")));
                return;
            }
            Err(_) => return, // EOF or socket error
        };
        let received = Instant::now();
        match req {
            Request::Hello { version } => {
                state.registry.counter("srv.req.hello").inc();
                if version != info.version {
                    state.registry.counter("srv.errors.hello").inc();
                    writer.send(
                        id,
                        &Response::Error(format!(
                            "version mismatch: server speaks v{}, client v{version}",
                            info.version
                        )),
                    );
                    return;
                }
                writer.send(id, &Response::Hello(info.clone()));
            }
            Request::Shutdown => {
                state.registry.counter("srv.req.shutdown").inc();
                writer.send(id, &Response::ShuttingDown);
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
                state.push(Job {
                    writer: Arc::clone(&writer),
                    id,
                    req,
                    received,
                    ctx,
                });
            }
        }
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn worker_loop(state: &State, shards: &ShardSet, info: &ServerInfo) {
    loop {
        let job = {
            let mut queue = state
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = state
                    .available
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let kind = job.req.opcode().name();
        let bytes = request_bytes(&job.req);
        let start = Instant::now();
        // A traced frame roots a server-side span tree: the root
        // starts when the reader parsed the frame and joins the
        // client's trace; the queue wait is recorded as the interval
        // between parse and this worker popping the job.
        let root = job.ctx.map(|ctx| {
            let g =
                trace::wire_root_at(names::SRV_REQUEST, ctx.trace_id, ctx.span_id, job.received);
            trace::span_at(
                names::SRV_QUEUE,
                job.received,
                start.saturating_duration_since(job.received),
            );
            g
        });
        let resp = {
            let _exec = trace::span(names::SRV_EXEC);
            execute(shards, info, &state.registry, job.req)
        };
        let elapsed = start.elapsed();
        record_request(&state.registry, kind, bytes, elapsed, &resp);
        // The root closes before the response frame is written: a
        // client holding its reply can already pull this trace, and
        // `srv.request` lies inside the client span that waited on it.
        if let Some(mut g) = root {
            g.set_bytes(bytes);
            if matches!(resp, Response::Error(_)) {
                g.fail();
            }
        }
        job.writer.send(job.id, &resp);
    }
}

/// The byte count a request moves (write payloads plus requested read
/// lengths); what the journal and throughput counters attribute to it.
fn request_bytes(req: &Request) -> u64 {
    match req {
        Request::Batch { ops, .. } => ops.iter().map(|op| op.byte_len() as u64).sum(),
        _ => 0,
    }
}

/// Charges one completed request to the per-opcode counters, latency
/// histogram, byte counter, and trace journal.
fn record_request(
    registry: &MetricsRegistry,
    kind: &str,
    bytes: u64,
    elapsed: std::time::Duration,
    resp: &Response,
) {
    let ok = !matches!(resp, Response::Error(_));
    registry.counter(&format!("srv.req.{kind}")).inc();
    if !ok {
        registry.counter(&format!("srv.errors.{kind}")).inc();
    }
    registry
        .histogram(&format!("srv.lat_us.{kind}"))
        .record(elapsed.as_micros() as u64);
    if bytes > 0 {
        registry.counter(&format!("srv.bytes.{kind}")).add(bytes);
    }
    registry.record_op(kind, 0, bytes, elapsed, ok);
}

/// Executes one request.
fn execute(
    shards: &ShardSet,
    info: &ServerInfo,
    registry: &MetricsRegistry,
    req: Request,
) -> Response {
    let result = (|| -> Result<Response, NetError> {
        Ok(match req {
            Request::Hello { .. } => Response::Hello(info.clone()),
            Request::Status => Response::Status(shards.status().iter().map(wire_status).collect()),
            // The server's own request metrics plus the aggregated
            // store counters, one frame.
            Request::Metrics => {
                let mut snap = registry.snapshot();
                snap.merge(&shards.metrics());
                Response::Metrics(snap)
            }
            // The flight recorder's completed ring plus any slow/errored
            // traces the main ring has already evicted.
            Request::Trace => {
                let rec = trace::recorder();
                let mut traces: Vec<WireTrace> = rec.traces().iter().map(WireTrace::from).collect();
                let seen: std::collections::HashSet<(u64, u64)> =
                    traces.iter().map(|t| (t.trace_id, t.root_span)).collect();
                traces.extend(
                    rec.slow_traces()
                        .iter()
                        .filter(|t| !seen.contains(&(t.trace_id, t.root_span)))
                        .map(WireTrace::from),
                );
                Response::Traces(traces)
            }
            #[expect(
                clippy::unreachable,
                reason = "the reader loop answers shutdowns inline, before execute()"
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
                shards.shard(shard as usize)?.fail_device(device as usize)?;
                Response::Failed
            }
            Request::CorruptSectors {
                shard,
                device,
                stripe,
                row,
                len,
            } => {
                shards.shard(shard as usize)?.corrupt_sectors(
                    device as usize,
                    stripe as usize,
                    row as usize,
                    len as usize,
                )?;
                Response::Failed
            }
            Request::Scrub { threads } => {
                Response::Scrubbed(shards.scrub((threads as usize).max(1))?)
            }
            Request::Repair { threads } => {
                Response::Repaired(shards.repair((threads as usize).max(1))?)
            }
        })
    })();
    result.unwrap_or_else(|e| Response::Error(e.to_string()))
}
