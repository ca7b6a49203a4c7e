//! Kill-9 chaos harness for the stair-journal crash-consistency claim:
//! a child process streams batched writes into a store and is
//! SIGKILLed at a random moment mid-stream; the parent then reopens
//! the store (replaying the journal), scrubs every sector, and
//! byte-compares the image against a shadow model built from the
//! child's acknowledged batches. One run performs many such
//! iterations over the `file:` and `shards:` backends.
//!
//! Invariants checked every iteration:
//!
//! * **No acknowledged write is lost** — every block whose last
//!   acknowledged writer is batch `k` holds exactly batch `k`'s bytes
//!   (or the in-flight batch's bytes, when that batch also wrote it).
//! * **No torn stripe** — a post-replay scrub verifies every sector
//!   against its checksum and must come back clean.
//! * **Unacknowledged writes are atomic per block** — a block touched
//!   only by the killed in-flight batch holds either its previous
//!   value or the new one, never a blend.
//!
//! The child and parent share one deterministic model: batch `k`'s
//! block set and fill bytes derive from `(seed, k)` via a xorshift
//! generator, so the parent reconstructs every write the child could
//! have issued without any side channel beyond the `ack <k> <h>` lines the
//! child prints after each successful submit.
//!
//! Every store the harness creates gets a [`JOURNAL_SEGMENT`]-byte
//! journal segment (written into its superblock before the first child
//! opens it), so each child life fills segments and hands them off to
//! the checkpoint thread many times, and kills land inside hand-offs
//! and background checkpoints. Each ack line also carries the
//! checkpoints the child's store completed since its open; the report
//! sums them per backend as `handoffs`.
//!
//! Flags: `--json <path>` writes a machine-readable report.
//! Environment: `STAIR_CHAOS_ITERS` (iterations per backend, default
//! 25), `STAIR_CHAOS_BACKENDS` (comma list of `file,shards,cache`,
//! default all three — `cache` is a write-through `cache:file:` tier,
//! whose acks are the store's own and must therefore survive exactly
//! like `file:`'s), `STAIR_CHAOS_SEED` (base seed, default 9).

use std::collections::BTreeSet;
use std::io::Write as _;
use std::process::{Command, Stdio};
use std::time::Duration;

use stair_device::{BlockDevice, DeviceSpec, IoBatch};
use stair_net::{open_device, shard_dir_name, ShardSet};
use stair_obs::json::Json;
use stair_store::{StoreMeta, StoreOptions, StripeStore};

/// Small geometry: crashes must land inside multi-stripe batches, not
/// take minutes to verify.
fn opts() -> StoreOptions {
    StoreOptions {
        code: "stair:4,4,2,1-2".parse().expect("codec spec"),
        symbol: 64,
        stripes: 6,
    }
}

const SHARDS: usize = 2;
/// Journal segment of every store the harness creates: small enough that
/// a child life of 64-byte-sector batches crosses many hand-offs.
const JOURNAL_SEGMENT: u64 = 16 * 1024;
/// Upper bound on batches per child life; the kill almost always lands
/// far earlier.
const MAX_BATCHES: u64 = 100_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() == 3 && args[0] == "--child" {
        let seed: u64 = args[2].parse().expect("child seed");
        child(&args[1], seed);
    }
    parent(&args);
}

// ---------------------------------------------------------------------
// Deterministic write model (shared by child and parent)
// ---------------------------------------------------------------------

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The distinct blocks batch `k` writes, derived from `(seed, k)`
/// alone so both processes agree without communicating.
fn batch_blocks(seed: u64, k: u64, total_blocks: usize) -> Vec<usize> {
    let mut state = seed ^ (k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    if state == 0 {
        state = 1;
    }
    let count = 1 + (xorshift(&mut state) % 4) as usize;
    let mut picks = BTreeSet::new();
    while picks.len() < count {
        picks.insert((xorshift(&mut state) % total_blocks as u64) as usize);
    }
    picks.into_iter().collect()
}

/// The bytes batch `k` writes into block `b`.
fn fill(seed: u64, k: u64, b: usize, block: usize) -> Vec<u8> {
    let h = seed
        .wrapping_mul(0x100_0000_01b3)
        .wrapping_add(k.wrapping_mul(31))
        .wrapping_add(b as u64 * 7 + 1);
    (0..block)
        .map(|i| (h as u8).wrapping_add(i as u8))
        .collect()
}

// ---------------------------------------------------------------------
// Child: stream batches, ack each durable submit, die by SIGKILL
// ---------------------------------------------------------------------

/// Journal checkpoints `dev`'s stores have completed since they opened.
fn checkpoints(dev: &dyn BlockDevice) -> u64 {
    let metrics = dev.metrics().expect("child metrics");
    metrics.counter("store.jrnl.checkpoints").unwrap_or(0)
}

fn child(spec: &str, seed: u64) -> ! {
    let spec: DeviceSpec = spec.parse().expect("child device spec");
    let dev = open_device(&spec).expect("child open");
    let block = dev.block_size();
    let total_blocks = dev.capacity() as usize / block;
    // The open's own checkpoint (after replay) is not a hand-off.
    let at_open = checkpoints(dev.as_ref());
    let stdout = std::io::stdout();
    for k in 0..MAX_BATCHES {
        let mut batch = IoBatch::new();
        for &b in &batch_blocks(seed, k, total_blocks) {
            batch.write((b * block) as u64, fill(seed, k, b, block));
        }
        dev.submit(&batch).expect("child submit");
        // The ack line is the acknowledgment the parent audits: it is
        // only written after submit returned, so once the parent reads
        // `ack k`, batch k's bytes must survive any later kill.
        let handoffs = checkpoints(dev.as_ref()) - at_open;
        let mut out = stdout.lock();
        writeln!(out, "ack {k} {handoffs}").expect("child ack");
        out.flush().expect("child ack flush");
    }
    std::process::exit(0)
}

/// Gives the store in `dir` a [`JOURNAL_SEGMENT`]-byte segment.
fn shrink_journal(dir: &std::path::Path) -> Result<(), String> {
    let mut meta = StoreMeta::load(dir).map_err(|e| format!("load superblock: {e}"))?;
    meta.journal_segment = JOURNAL_SEGMENT;
    meta.save(dir).map_err(|e| format!("save superblock: {e}"))
}

// ---------------------------------------------------------------------
// Parent: iterate spawn → kill → replay → scrub → byte-compare
// ---------------------------------------------------------------------

struct BackendTally {
    backend: String,
    iterations: u64,
    total_acked: u64,
    unclean_opens: u64,
    total_replayed: u64,
    /// Checkpoints the children completed after their opens: hand-offs
    /// whose background checkpoint finished before the kill.
    handoffs: u64,
    failures: Vec<String>,
}

fn parent(args: &[String]) -> ! {
    let json_path = match args {
        [] => None,
        [flag, path] if flag == "--json" => Some(path.clone()),
        other => {
            eprintln!("usage: chaos_kill9 [--json <path>]   (got {other:?})");
            std::process::exit(2);
        }
    };
    let iters: u64 = std::env::var("STAIR_CHAOS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25);
    let base_seed: u64 = std::env::var("STAIR_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(9);
    let backends: Vec<String> = std::env::var("STAIR_CHAOS_BACKENDS")
        .unwrap_or_else(|_| "file,shards,cache".into())
        .split(',')
        .map(|s| s.trim().to_string())
        .collect();

    let root = std::env::temp_dir().join(format!("stair-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("chaos root");

    println!(
        "== chaos_kill9: {} iteration(s) x {backends:?}, seed {base_seed}",
        iters
    );
    let mut tallies = Vec::new();
    let mut delay_state = base_seed | 1;
    for backend in &backends {
        let mut tally = BackendTally {
            backend: backend.clone(),
            iterations: iters,
            total_acked: 0,
            unclean_opens: 0,
            total_replayed: 0,
            handoffs: 0,
            failures: Vec::new(),
        };
        for iter in 0..iters {
            let seed = base_seed.wrapping_mul(1_000_003).wrapping_add(iter * 2 + 1);
            // 1–40 ms: spans child startup through deep steady state.
            let delay_us = 1_000 + xorshift(&mut delay_state) % 39_000;
            if let Err(msg) = run_iteration(&root, backend, iter, seed, delay_us, &mut tally) {
                eprintln!("FAIL [{backend} iter {iter}]: {msg}");
                tally.failures.push(format!("iter {iter}: {msg}"));
            }
        }
        println!(
            "-- {backend}: {} iter(s), {} acked batch(es), {} hand-off(s), {} unclean open(s), {} record(s) replayed, {} failure(s)",
            tally.iterations,
            tally.total_acked,
            tally.handoffs,
            tally.unclean_opens,
            tally.total_replayed,
            tally.failures.len()
        );
        tallies.push(tally);
    }

    let failed: usize = tallies.iter().map(|t| t.failures.len()).sum();
    if let Some(path) = json_path {
        std::fs::write(&path, report(&tallies, iters, base_seed).to_text())
            .expect("write --json report");
        println!("wrote JSON report to {path}");
    }
    let _ = std::fs::remove_dir_all(&root);
    if failed > 0 {
        eprintln!("chaos_kill9: {failed} failed iteration(s)");
        std::process::exit(1);
    }
    println!("chaos_kill9: all iterations verified");
    std::process::exit(0)
}

/// One spawn → kill → recover → verify cycle. Returns a description of
/// the first violated invariant, if any.
fn run_iteration(
    root: &std::path::Path,
    backend: &str,
    iter: u64,
    seed: u64,
    delay_us: u64,
    tally: &mut BackendTally,
) -> Result<(), String> {
    let dir = root.join(format!("{backend}-{iter}"));
    let spec_str = match backend {
        "file" => {
            StripeStore::create(&dir, &opts()).map_err(|e| format!("create: {e}"))?;
            shrink_journal(&dir)?;
            format!("file:{}", dir.display())
        }
        "shards" => {
            ShardSet::create(&dir, SHARDS, &opts()).map_err(|e| format!("create: {e}"))?;
            for shard in 0..SHARDS {
                shrink_journal(&dir.join(shard_dir_name(shard)))?;
            }
            format!("shards:{}?n={SHARDS}", dir.display())
        }
        // Write-through cache over a file store: the wrapper forwards
        // every submit before acking, so a kill must lose nothing the
        // child acked — the same bar as the bare store. (Write-back
        // acks are volatile by contract; the chaos bar applies to the
        // shipping default.)
        "cache" => {
            StripeStore::create(&dir, &opts()).map_err(|e| format!("create: {e}"))?;
            shrink_journal(&dir)?;
            format!("cache:file:{}?mb=1", dir.display())
        }
        other => return Err(format!("unknown STAIR_CHAOS_BACKENDS entry `{other}`")),
    };

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--child", &spec_str, &seed.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    std::thread::sleep(Duration::from_micros(delay_us));
    child.kill().map_err(|e| format!("kill: {e}"))?;
    let out = child.wait_with_output().map_err(|e| format!("wait: {e}"))?;

    // Count the contiguous ack prefix; a partial final line (killed
    // mid-print) parses as absent, which only makes the check stricter.
    let mut acks: u64 = 0;
    let mut handoffs: u64 = 0;
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut fields = line.strip_prefix("ack ").unwrap_or("").split(' ');
        let mut number = || fields.next().and_then(|n| n.parse::<u64>().ok());
        match (number(), number()) {
            (Some(k), Some(h)) if k == acks => {
                acks += 1;
                handoffs = h;
            }
            _ => break,
        }
    }
    tally.total_acked += acks;
    tally.handoffs += handoffs;

    // Reopen: journal replay happens inside open.
    let spec: DeviceSpec = spec_str.parse().map_err(|e| format!("spec: {e}"))?;
    let dev = open_device(&spec).map_err(|e| format!("reopen: {e}"))?;
    let status = dev.status().map_err(|e| format!("status: {e}"))?;
    let replayed: u64 = status.shards.iter().map(|s| s.replayed_records).sum();
    tally.total_replayed += replayed;
    if status.shards.iter().any(|s| !s.clean_shutdown) {
        tally.unclean_opens += 1;
    }

    let scrub = dev.scrub(2).map_err(|e| format!("scrub: {e}"))?;
    if !scrub.clean() {
        return Err(format!(
            "post-replay scrub found damage (torn stripe): {} mismatch(es), {} unavailable",
            scrub.mismatches, scrub.unavailable_devices
        ));
    }

    let block = dev.block_size();
    let total_blocks = dev.capacity() as usize / block;
    let image = dev
        .read_at(0, total_blocks * block)
        .map_err(|e| format!("read: {e}"))?;

    // Shadow model: last acknowledged writer per block, plus the one
    // in-flight batch the kill may or may not have landed.
    let mut last_writer: Vec<Option<u64>> = vec![None; total_blocks];
    for k in 0..acks {
        for b in batch_blocks(seed, k, total_blocks) {
            last_writer[b] = Some(k);
        }
    }
    let inflight: BTreeSet<usize> = if acks < MAX_BATCHES {
        batch_blocks(seed, acks, total_blocks).into_iter().collect()
    } else {
        BTreeSet::new()
    };
    for b in 0..total_blocks {
        let got = &image[b * block..(b + 1) * block];
        let acked_ok = match last_writer[b] {
            Some(k) => got == fill(seed, k, b, block),
            None => got.iter().all(|&x| x == 0),
        };
        let inflight_ok = inflight.contains(&b) && got == fill(seed, acks, b, block);
        if !acked_ok && !inflight_ok {
            return Err(format!(
                "block {b}: lost or torn write (last acked writer {:?}, {} acked batch(es), \
                 {replayed} record(s) replayed)",
                last_writer[b], acks
            ));
        }
    }
    drop(dev);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cleanup: {e}"))?;
    Ok(())
}

fn report(tallies: &[BackendTally], iters: u64, seed: u64) -> Json {
    Json::obj([
        ("harness", Json::str("chaos_kill9")),
        (
            "config",
            Json::obj([
                ("code", Json::str(opts().code.to_string())),
                ("symbol", Json::int(opts().symbol)),
                ("stripes", Json::int(opts().stripes)),
                ("shards", Json::int(SHARDS)),
                ("journal_segment", Json::int64(JOURNAL_SEGMENT)),
                ("iterations_per_backend", Json::int64(iters)),
                ("seed", Json::int64(seed)),
            ]),
        ),
        (
            "results",
            Json::arr(tallies.iter().map(|t| {
                Json::obj([
                    ("backend", Json::str(t.backend.clone())),
                    ("iterations", Json::int64(t.iterations)),
                    ("acked_batches", Json::int64(t.total_acked)),
                    ("handoffs", Json::int64(t.handoffs)),
                    ("unclean_opens", Json::int64(t.unclean_opens)),
                    ("replayed_records", Json::int64(t.total_replayed)),
                    ("failures", Json::int(t.failures.len())),
                    (
                        "failure_detail",
                        Json::arr(t.failures.iter().map(|f| Json::str(f.clone()))),
                    ),
                ])
            })),
        ),
        (
            "all_verified",
            Json::Bool(tallies.iter().all(|t| t.failures.is_empty())),
        ),
    ])
}
