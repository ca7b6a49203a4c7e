//! The closed-loop load generator: client threads that each submit,
//! wait for the reply, verify it, and submit again — and the window
//! clock that turns what they did into per-window numbers.

use std::ops::Range;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use stair_device::{BlockDevice, IoBatch, OpResult};
use stair_obs::trace::{self, names};

use crate::load::{Op, OpStream, Pattern, Shadow};
use crate::metrics::Workload;
use crate::procfs;
use crate::stats::{percentile_sorted, rank_of};

/// One read in this many is compared byte for byte (every read has its
/// stamps checked).
const FULL_COMPARE_EVERY: u64 = 16;

/// The access pattern each workload submits.
pub fn pattern_of(workload: Workload) -> Pattern {
    match workload {
        Workload::SeqWriteFile => Pattern::SeqStripeWrite,
        Workload::DegradedReadFile => Pattern::UniformRead { run: 16 },
        Workload::SmallRwTcp => Pattern::UniformBatch {
            ops: 16,
            p_write: 0.7,
        },
        Workload::ZipfReadCacheTcp => Pattern::ZipfRead {
            theta: 0.99,
            write_every: 512,
        },
    }
}

/// One closed-loop caller: its seeded op stream and what it knows the
/// device it drives must hold.
pub struct Client {
    stream: OpStream,
    shadow: Shadow,
    block_size: usize,
    reads: u64,
    /// Submissions made and payload bytes verified since creation,
    /// warm-up included — the denominators for counter deltas taken
    /// around a whole run.
    pub steps: u64,
    pub bytes: u64,
}

/// The outcome of one submission.
pub struct Step {
    /// Submission to reply, around the device call only (payload
    /// generation and verification are outside it).
    pub latency: Duration,
    /// When the reply arrived.
    pub end: Instant,
    /// Payload bytes read and verified, or written and acknowledged.
    pub bytes: u64,
    /// `false` for a returned `Err`, a short read, or a mismatch.
    pub ok: bool,
    pub write: bool,
}

enum Prepared {
    Read(u64, usize),
    Write(u64, Vec<u8>),
    Batch(IoBatch),
}

impl Client {
    /// `thread` selects the PRNG stream of `seed`; `region` is the
    /// blocks this client owns (prefilled at version 0).
    pub fn new(
        pattern: Pattern,
        seed: u64,
        thread: u64,
        region: Range<u64>,
        blocks_per_stripe: usize,
        block_size: usize,
    ) -> Self {
        Client {
            stream: OpStream::new(pattern, seed, thread, region.clone(), blocks_per_stripe),
            shadow: Shadow::new(seed, region),
            block_size,
            reads: 0,
            steps: 0,
            bytes: 0,
        }
    }

    /// Forgets the prefill: for a device other probes have written to
    /// (see [`Shadow::forget`]).
    pub fn adopting(mut self) -> Self {
        self.shadow.forget();
        self
    }

    fn prepare(&mut self, op: &Op) -> Prepared {
        let bs = self.block_size;
        let span = op.run * bs;
        let offset = |start: u64| start * bs as u64;
        match (op.starts.as_slice(), op.write) {
            (&[start], false) => Prepared::Read(offset(start), span),
            (&[start], true) => {
                Prepared::Write(offset(start), self.shadow.next_payload(start, op.run, bs))
            }
            (starts, write) => {
                let mut batch = IoBatch::new();
                for &start in starts {
                    if write {
                        batch.write(offset(start), self.shadow.next_payload(start, op.run, bs));
                    } else {
                        batch.read(offset(start), span);
                    }
                }
                Prepared::Batch(batch)
            }
        }
    }

    /// One submission to `dev`: generate, submit and wait, verify.
    pub fn step(&mut self, dev: &dyn BlockDevice) -> Step {
        let op = self.stream.next_op();
        let prepared = self.prepare(&op);
        let root = trace::root_span(names::BENCH_SUBMIT);
        let begin = Instant::now();
        let reply: Result<Vec<Vec<u8>>, ()> = match &prepared {
            Prepared::Read(offset, len) => dev.read_at(*offset, *len).map(|d| vec![d]),
            Prepared::Write(offset, data) => dev.write_at(*offset, data).map(|_| Vec::new()),
            Prepared::Batch(batch) => dev.submit(batch).map(|r| {
                r.results
                    .into_iter()
                    .filter_map(|r| match r {
                        OpResult::Read(data) => Some(data),
                        OpResult::Write(_) => None,
                    })
                    .collect()
            }),
        }
        .map_err(drop);
        let end = Instant::now();
        drop(root);

        let bs = self.block_size;
        let ok = if op.write {
            let ok = reply.is_ok();
            for &start in &op.starts {
                self.shadow.commit_write(start, op.run, ok);
            }
            ok
        } else {
            self.reads += 1;
            let full = self.reads.is_multiple_of(FULL_COMPARE_EVERY);
            match reply {
                Ok(pieces) if pieces.len() == op.starts.len() => {
                    op.starts.iter().zip(&pieces).all(|(&s, data)| {
                        self.shadow.verify_read(s, op.run, bs, data, full).is_ok()
                    })
                }
                _ => false,
            }
        };
        let bytes = if ok { (op.blocks() * bs) as u64 } else { 0 };
        self.steps += 1;
        self.bytes += bytes;
        Step {
            latency: end - begin,
            end,
            bytes,
            ok,
            write: op.write,
        }
    }
}

/// How a run is cut into a discarded warm-up and timed windows.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub warmup: Duration,
    pub window: Duration,
    pub windows: usize,
    /// How often [`Observer::poll`] runs inside a window (`None`: the
    /// clock thread sleeps from boundary to boundary).
    pub poll: Option<Duration>,
}

impl Plan {
    /// The end-to-end plan: a tenth of `seconds` warming up, the rest
    /// in five equal windows (never fewer: shorter runs shrink the
    /// windows, not their number, so a median of five stays one).
    pub fn end_to_end(seconds: f64) -> Plan {
        Plan {
            warmup: Duration::from_secs_f64(seconds * 0.1),
            window: Duration::from_secs_f64(seconds * 0.18),
            windows: 5,
            poll: None,
        }
    }
}

/// What happened in one timed window, all clients together, as
/// measured. Latencies are reduced to the median and the slowest
/// twentieth as soon as the window ends, so a faster program does not
/// pay for its extra samples in peak memory.
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub secs: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Verified payload bytes.
    pub bytes: u64,
    /// Process user+system CPU seconds spent during the window.
    pub cpu_s: f64,
    /// Median latency per submission, µs (0 with no submission).
    pub p50_us: f64,
    /// Latency samples taken (one per submission), and the slowest of
    /// them in ascending order: enough for any tail percentile a run
    /// settles on (see [`Window::latency_ns_at`]).
    pub samples: usize,
    pub slowest: Vec<u64>,
    /// Medians of the read and of the write submissions alone, µs.
    pub read_p50_us: f64,
    pub write_p50_us: f64,
}

impl Window {
    pub fn goodput_mib_s(&self) -> f64 {
        self.bytes as f64 / (1 << 20) as f64 / self.secs
    }

    pub fn cpu_s_per_gib(&self) -> f64 {
        if self.bytes == 0 {
            return 0.0;
        }
        self.cpu_s / (self.bytes as f64 / (1u64 << 30) as f64)
    }

    /// The `p` percentile (nearest rank) of the window's latencies, ns;
    /// `None` if it lies below the samples kept.
    pub fn latency_ns_at(&self, p: f64) -> Option<u64> {
        let dropped = self.samples - self.slowest.len();
        rank_of(p, self.samples)
            .checked_sub(dropped + 1)
            .map(|i| self.slowest[i])
    }
}

/// Latency samples a window keeps at least (all of them when it took
/// fewer), and otherwise the share of its slowest it keeps.
const KEEP_SLOWEST: usize = 4096;
const KEEP_SHARE: usize = 20;

fn p50_us(sorted_ns: &[u64]) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    percentile_sorted(sorted_ns, 0.5) as f64 / 1e3
}

/// Hooks the clock thread calls while the clients run.
pub trait Observer {
    /// Before the clients start on timed window `window`.
    fn window_start(&mut self, _window: usize) {}
    fn poll(&mut self) {}
    /// After the warm-up and after every window, once each client has
    /// its last reply and while all of them are parked.
    fn idle(&mut self) {}
}

/// For runs nobody watches.
pub struct Unobserved;
impl Observer for Unobserved {}

fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// What one client thread did in one phase: counts, and one raw
/// latency sample per submission (nanoseconds) by kind.
#[derive(Default)]
struct Part {
    attempted: u64,
    failed: u64,
    bytes: u64,
    reads: Vec<u64>,
    writes: Vec<u64>,
}

/// Submits in a closed loop until `end`. The submission in flight when
/// time is up is finished (the loop is closed) but not counted.
fn drive(client: &mut Client, dev: &dyn BlockDevice, end: Instant) -> Part {
    let mut part = Part::default();
    loop {
        let step = client.step(dev);
        if step.end >= end {
            return part;
        }
        part.attempted += 1;
        part.failed += u64::from(!step.ok);
        part.bytes += step.bytes;
        let ns = step.latency.as_nanos() as u64;
        if step.write {
            part.writes.push(ns);
        } else {
            part.reads.push(ns);
        }
    }
}

/// Folds the client threads' parts of one window into its numbers.
fn window_of(parts: Vec<Part>, secs: f64, cpu_s: f64) -> Window {
    let mut window = Window {
        secs,
        cpu_s,
        ..Window::default()
    };
    let (mut reads, mut writes): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
    for part in parts {
        window.attempted += part.attempted;
        window.failed += part.failed;
        window.bytes += part.bytes;
        reads.extend(part.reads);
        writes.extend(part.writes);
    }
    reads.sort_unstable();
    writes.sort_unstable();
    window.read_p50_us = p50_us(&reads);
    window.write_p50_us = p50_us(&writes);
    reads.extend(writes);
    reads.sort_unstable();
    window.p50_us = p50_us(&reads);
    window.samples = reads.len();
    let keep = reads
        .len()
        .min((reads.len() / KEEP_SHARE).max(KEEP_SLOWEST));
    window.slowest = reads.split_off(reads.len() - keep);
    window
}

/// Runs the clients, each in a thread of its own for the whole run,
/// through a discarded warm-up and then `plan.windows` timed windows.
/// Every phase starts and ends at a barrier, so between two phases all
/// clients are parked with no submission in flight. The calling thread
/// is the clock: it samples process CPU at the window's edges and
/// drives `observer`.
pub fn run_windows(
    clients: &mut [Client],
    devices: &[&dyn BlockDevice],
    plan: &Plan,
    observer: &mut dyn Observer,
) -> Vec<Window> {
    assert_eq!(clients.len(), devices.len());
    let edge = Barrier::new(clients.len() + 1);
    let mut windows = Vec::with_capacity(plan.windows);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(devices)
            .map(|(client, &dev)| {
                let edge = &edge;
                scope.spawn(move || {
                    let mut phase = |length: Duration| {
                        edge.wait();
                        let part = drive(client, dev, Instant::now() + length);
                        edge.wait();
                        part
                    };
                    if !plan.warmup.is_zero() {
                        phase(plan.warmup);
                    }
                    (0..plan.windows)
                        .map(|_| phase(plan.window))
                        .collect::<Vec<Part>>()
                })
            })
            .collect();

        let clock = |length: Duration, observer: &mut dyn Observer| -> f64 {
            edge.wait();
            let end = Instant::now() + length;
            let cpu = procfs::cpu_seconds();
            match plan.poll {
                None => sleep_until(end),
                Some(every) => {
                    while Instant::now() < end {
                        sleep_until(end.min(Instant::now() + every));
                        observer.poll();
                    }
                }
            }
            // CPU up to the window's end; the stragglers' last
            // submissions are outside it.
            let cpu_s = procfs::cpu_seconds() - cpu;
            edge.wait();
            observer.idle();
            cpu_s
        };
        if !plan.warmup.is_zero() {
            clock(plan.warmup, observer);
        }
        let cpu_s: Vec<f64> = (0..plan.windows)
            .map(|k| {
                observer.window_start(k);
                clock(plan.window, observer)
            })
            .collect();

        let mut parts: Vec<Vec<Part>> = (0..plan.windows).map(|_| Vec::new()).collect();
        for handle in handles {
            let thread_parts = handle.join().expect("client thread panicked");
            for (window, part) in parts.iter_mut().zip(thread_parts) {
                window.push(part);
            }
        }
        for (parts, cpu_s) in parts.into_iter().zip(cpu_s) {
            windows.push(window_of(parts, plan.window.as_secs_f64(), cpu_s));
        }
    });
    windows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_answers_tail_percentiles_from_the_slowest_it_kept() {
        let part = |ns: std::ops::Range<u64>| Part {
            attempted: ns.end - ns.start,
            reads: ns.rev().collect(),
            ..Part::default()
        };
        let window = window_of(vec![part(1..50_001), part(50_001..100_001)], 1.0, 0.5);
        assert_eq!((window.samples, window.slowest.len()), (100_000, 5000));
        assert_eq!(window.p50_us, 50.0);
        assert_eq!(window.latency_ns_at(0.99), Some(99_000));
        assert_eq!(window.latency_ns_at(0.9501), Some(95_010));
        assert_eq!(window.latency_ns_at(0.95), None);

        // A small window keeps everything.
        let window = window_of(vec![part(1..301)], 1.0, 3.0);
        assert_eq!(window.slowest.len(), 300);
        assert_eq!(window.latency_ns_at(290.0 / 300.0), Some(290));
        assert_eq!(window.latency_ns_at(0.5), Some(150));
    }
}
