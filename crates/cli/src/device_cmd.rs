//! `stair dev`: the one data surface of the `stair` binary. Every verb
//! runs against any backend a `stair_device::DeviceSpec` names —
//! `file:<dir>`, `shards:<root>[?n=K]`, `tcp:<host:port>[?lanes=L]` or
//! `cache:<inner>[...]` — through the unified `BlockDevice` API, so
//! every backend runs the identical code and prints the identical
//! output. Three verbs act on what only one kind of backend has:
//! `init` creates a `file:` store or a `shards:` set, `inject` replays
//! §7's sector-failure model into a `file:` store, and `shutdown` stops
//! a `tcp:` server.
//!
//! [`VERBS`] is the only list of verbs: each row's usage line is what
//! `stair dev` prints, and its `--words` are exactly the flags the verb
//! accepts — any other flag, or one given twice, is an error.
//!
//! `batch` replays an **op-script** — one op per line, `#` comments and
//! blank lines ignored:
//!
//! ```text
//! # read  <offset> <len>
//! # write <offset> <hex-bytes>
//! write 0 deadbeef
//! read  0 4
//! ```
//!
//! The whole script is submitted as one `IoBatch` through
//! `BlockDevice::submit`, so it costs one stripe lock and one codec
//! decision per touched stripe locally, and one request frame per
//! shard over the wire. Results print as one JSON object whose shape
//! is identical across backends.

use std::path::{Path, PathBuf};
use std::str::FromStr;

use stair_code::CodecSpec;
use stair_device::{BatchResult, BlockDevice, DeviceSpec, Instrumented, IoBatch, IoOp, OpResult};
use stair_net::json::{metrics_json, Json};
use stair_net::{open_admin, open_device, Client, ShardSet, WireTrace};
use stair_reliability::{BurstModel, FailureInjector, SectorModel};
use stair_store::{StoreOptions, StripeStore};

use crate::flags::{num_flag, parse, required, Flags};
use crate::status_json;

/// One `stair dev` verb: its name, its flags as the usage text shows
/// them (the `--words` there are exactly the flags it accepts) and its
/// handler.
struct Verb {
    name: &'static str,
    usage: &'static str,
    run: fn(&Flags, &DeviceSpec) -> Result<(), String>,
}

/// Every `stair dev` verb, in the order the usage text lists them.
const VERBS: &[Verb] = &[
    Verb {
        name: "init",
        usage: "--dev file:DIR|shards:ROOT?n=K --code SPEC [--symbol S --stripes T]",
        run: cmd_init,
    },
    Verb {
        name: "status",
        usage: "--dev SPEC [--json]",
        run: cmd_status,
    },
    Verb {
        name: "read",
        usage: "--dev SPEC --output FILE [--offset BYTES] [--len BYTES]",
        run: cmd_read,
    },
    Verb {
        name: "write",
        usage: "--dev SPEC --input FILE [--offset BYTES]",
        run: cmd_write,
    },
    Verb {
        name: "batch",
        usage: "--dev SPEC --from SCRIPT",
        run: cmd_batch,
    },
    Verb {
        name: "fail",
        usage: "--dev SPEC --device J [--shard S] [--stripe I --sector K --len L]",
        run: cmd_fail,
    },
    Verb {
        name: "inject",
        usage: "--dev file:DIR --p-sec P [--seed S] [--burst B1,ALPHA]",
        run: cmd_inject,
    },
    Verb {
        name: "scrub",
        usage: "--dev SPEC [--threads T] [--json]",
        run: cmd_scrub,
    },
    Verb {
        name: "repair",
        usage: "--dev SPEC [--threads T] [--json]",
        run: cmd_repair,
    },
    Verb {
        name: "flush",
        usage: "--dev SPEC",
        run: cmd_flush,
    },
    Verb {
        name: "metrics",
        usage: "--dev SPEC [--json] [--from SCRIPT]",
        run: cmd_metrics,
    },
    Verb {
        name: "trace",
        usage: "--dev SPEC [--json] [--from SCRIPT]",
        run: cmd_trace,
    },
    Verb {
        name: "shutdown",
        usage: "--dev tcp:HOST:PORT",
        run: cmd_shutdown,
    },
];

const NOTES: &str = "  (SPEC: file:<dir> | shards:<root>[?n=K] | tcp:<host:port>[?lanes=L]
         | cache:<inner>[?mb=M&wb=on|off&interval_ms=T];
   init's --code SPEC: stair:n,r,m,e1-e2-... | sd:n,r,m,s | rs:n,r,m)
  (SCRIPT lines: `read <offset> <len>` | `write <offset> <hex-bytes>`;
   `#` comments and blank lines ignored; results print as JSON)
  (metrics --from replays a SCRIPT through the instrumented device
   first, so per-op latency histograms are populated)
  (trace enables request tracing, replays the SCRIPT if given, then
   prints this process's flight recorder — and the server's, pulled
   over TRACE, when SPEC is tcp:)";

/// Usage text for `stair dev`, one line per row of [`VERBS`].
fn usage() -> String {
    let lines: String = VERBS
        .iter()
        .map(|v| format!("  stair dev {:<8} {}\n", v.name, v.usage))
        .collect();
    format!("usage:\n{lines}{NOTES}")
}

/// Runs `stair dev <verb> <flags>...`.
pub fn run(args: &[String]) -> Result<(), String> {
    let Some((verb, args)) = args.split_first() else {
        return Err(format!("no verb given\n{}", usage()));
    };
    let row = VERBS
        .iter()
        .find(|v| v.name == verb)
        .ok_or_else(|| format!("unknown stair dev command `{verb}`\n{}", usage()))?;
    let flags = parse(args, &format!("stair dev {verb} {}", row.usage))?;
    let spec = DeviceSpec::from_str(required(&flags, "dev")?).map_err(|e| e.to_string())?;
    (row.run)(&flags, &spec)
}

/// The error for a verb that acts on one kind of backend only.
fn wrong_scheme(verb: &str, wanted: &str, spec: &DeviceSpec) -> String {
    format!(
        "`stair dev {verb}` takes a {wanted} device, not {}:",
        spec.scheme()
    )
}

fn cmd_init(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let opts = StoreOptions {
        code: CodecSpec::from_str(required(flags, "code")?).map_err(|e| e.to_string())?,
        symbol: num_flag(flags, "symbol", 512)?,
        stripes: num_flag(flags, "stripes", 64)?,
    };
    match spec {
        DeviceSpec::File { dir } => {
            let store = StripeStore::create(dir, &opts).map_err(|e| e.to_string())?;
            print_created(&store, 1, dir);
        }
        DeviceSpec::Shards { root, shards } => {
            let shards = shards.ok_or("`stair dev init` needs the shard count: shards:ROOT?n=K")?;
            let set = ShardSet::create(root, shards, &opts).map_err(|e| e.to_string())?;
            print_created(set.shard(0).map_err(|e| e.to_string())?, shards, root);
        }
        _ => return Err(wrong_scheme("init", "file: or shards:", spec)),
    }
    Ok(())
}

fn print_created(store: &StripeStore, shards: usize, at: &Path) {
    println!(
        "initialized {} store at {}: {shards} shard(s) x {} stripes x {} blocks x {} bytes = {} bytes, {} devices per shard",
        store.codec_spec(),
        at.display(),
        store.stripe_count(),
        store.blocks_per_stripe(),
        store.block_size(),
        store.capacity() * shards as u64,
        store.geometry().n
    );
}

fn cmd_inject(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let DeviceSpec::File { dir } = spec else {
        return Err(wrong_scheme("inject", "file:", spec));
    };
    let p_sec: f64 = required(flags, "p-sec")?
        .parse()
        .map_err(|_| "--p-sec expects a probability".to_string())?;
    let seed = num_flag(flags, "seed", 42)?;
    let store = StripeStore::open(dir).map_err(|e| e.to_string())?;
    let r = store.geometry().r;
    let model = match flags.get("burst") {
        None => SectorModel::Independent,
        Some(spec) => {
            let (b1, alpha) = spec
                .split_once(',')
                .ok_or_else(|| "--burst expects B1,ALPHA".to_string())?;
            let b1: f64 = b1
                .trim()
                .parse()
                .map_err(|_| "--burst: bad B1".to_string())?;
            let alpha: f64 = alpha
                .trim()
                .parse()
                .map_err(|_| "--burst: bad ALPHA".to_string())?;
            if b1.is_nan() || b1 <= 0.0 || b1 > 1.0 {
                return Err(format!("--burst: B1 = {b1} must be in (0, 1]"));
            }
            if alpha.is_nan() || alpha <= 0.0 {
                return Err(format!("--burst: ALPHA = {alpha} must be positive"));
            }
            SectorModel::Correlated(BurstModel::from_pareto(b1, alpha, r))
        }
    };
    let mut injector =
        FailureInjector::new(r, p_sec, &model, seed).map_err(|e| format!("--p-sec: {e}"))?;
    let outcome = store
        .inject_failures(&mut injector)
        .map_err(|e| e.to_string())?;
    println!(
        "sampled {} chunks: corrupted {} sector(s) across {} chunk(s)",
        outcome.chunks_sampled, outcome.sectors_corrupted, outcome.chunks_hit
    );
    Ok(())
}

fn cmd_shutdown(_: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let DeviceSpec::Tcp { addr, .. } = spec else {
        return Err(wrong_scheme("shutdown", "tcp:", spec));
    };
    Client::connect(addr)
        .and_then(|client| client.shutdown_server())
        .map_err(|e| e.to_string())?;
    println!("server shutting down");
    Ok(())
}

fn open(spec: &DeviceSpec) -> Result<Box<dyn BlockDevice>, String> {
    open_device(spec).map_err(|e| e.to_string())
}

fn cmd_status(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let dev = open(spec)?;
    let status = dev.status().map_err(|e| e.to_string())?;
    if flags.contains_key("json") {
        print!("{}", status_json::device_status_json(&status).to_text());
        return Ok(());
    }
    // `DeviceStatus.shards` is never empty (the open registry and the
    // wire-status path both enforce it); guard anyway so a future
    // backend bug degrades to an error, not a panic.
    let first = status
        .shards
        .first()
        .ok_or_else(|| "device reported no shards".to_string())?;
    println!("codec {}", first.codec);
    println!("  backend           : {}", status.backend);
    println!(
        "  tolerance         : {} device(s) + {} sector(s) per stripe",
        first.device_tolerance, first.sector_tolerance
    );
    if let Some(efficiency) = storage_efficiency(first) {
        println!("  storage efficiency: {efficiency:.4}");
    }
    println!("  capacity          : {} bytes", status.capacity);
    println!(
        "  geometry          : {} shard(s) x {} stripes x {} blocks x {} bytes",
        status.shards.len(),
        first.stripes,
        first.blocks_per_stripe,
        first.block_size
    );
    if status.shards.len() == 1 {
        println!("  failed devices    : {:?}", first.failed_devices);
        println!("  rebuilding devices: {:?}", first.rebuilding_devices);
        println!("  known bad sectors : {}", first.known_bad_sectors);
        println!(
            "  last shutdown     : {}",
            shutdown_summary(first.clean_shutdown, first.replayed_records)
        );
    } else {
        for (i, s) in status.shards.iter().enumerate() {
            println!(
                "  shard {i}: failed {:?}, rebuilding {:?}, {} known bad sector(s), {}",
                s.failed_devices,
                s.rebuilding_devices,
                s.known_bad_sectors,
                shutdown_summary(s.clean_shutdown, s.replayed_records)
            );
        }
    }
    Ok(())
}

/// One-line journal verdict for the human status view: clean close,
/// or the crash recovery the open performed.
fn shutdown_summary(clean: bool, replayed: u64) -> String {
    if clean {
        "clean (journal checkpointed)".to_string()
    } else {
        format!("unclean (replayed {replayed} journal record(s))")
    }
}

/// Data fraction from the codec spec (`data blocks / (n·r)`); `None`
/// when the codec string does not parse (possible over the wire from a
/// newer peer).
fn storage_efficiency(shard: &stair_device::ShardHealth) -> Option<f64> {
    let spec = stair_code::CodecSpec::from_str(&shard.codec).ok()?;
    let total = (spec.n() * spec.r()) as f64;
    (total > 0.0).then(|| shard.blocks_per_stripe as f64 / total)
}

fn cmd_read(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let dev = open(spec)?;
    let output = PathBuf::from(required(flags, "output")?);
    let offset = num_flag(flags, "offset", 0)?;
    let len = num_flag(flags, "len", dev.capacity().saturating_sub(offset) as usize)?;
    let data = dev.read_at(offset, len).map_err(|e| e.to_string())?;
    std::fs::write(&output, &data).map_err(|e| e.to_string())?;
    let mode = match dev.status() {
        Ok(status) if status.healthy() => "clean",
        Ok(_) => "degraded",
        // A status failure after a verified read is not worth failing
        // the read for.
        Err(_) => "verified",
    };
    println!(
        "read {len} bytes at offset {offset} ({mode}) to {}",
        output.display()
    );
    Ok(())
}

fn cmd_write(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let dev = open(spec)?;
    let input = required(flags, "input")?;
    let offset = num_flag(flags, "offset", 0)?;
    let data = std::fs::read(input).map_err(|e| e.to_string())?;
    let outcome = dev.write_at(offset, &data).map_err(|e| e.to_string())?;
    println!(
        "wrote {} bytes at offset {offset}: {} stripes touched ({} full re-encodes, {} delta updates)",
        outcome.bytes, outcome.stripes_touched, outcome.full_stripe_encodes, outcome.delta_updates
    );
    Ok(())
}

fn cmd_batch(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let from = required(flags, "from")?;
    let text =
        std::fs::read_to_string(from).map_err(|e| format!("cannot read op-script {from}: {e}"))?;
    let batch = parse_op_script(&text)?;
    let dev = open(spec)?;
    let result = dev.submit(&batch).map_err(|e| e.to_string())?;
    print!("{}", batch_json(&batch, &result).to_text());
    Ok(())
}

/// Parses the op-script grammar: one `read <offset> <len>` or
/// `write <offset> <hex-bytes>` per line; `#` comments and blank lines
/// are skipped. Errors carry the 1-based line number.
fn parse_op_script(text: &str) -> Result<IoBatch, String> {
    let mut batch = IoBatch::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |what: &str| format!("op-script line {}: {what}", lineno + 1);
        let mut words = line.split_whitespace();
        let (verb, offset, arg) = (words.next(), words.next(), words.next());
        if words.next().is_some() {
            return Err(at("expected exactly `<verb> <offset> <arg>`"));
        }
        let (Some(verb), Some(offset), Some(arg)) = (verb, offset, arg) else {
            return Err(at(
                "expected `read <offset> <len>` or `write <offset> <hex>`",
            ));
        };
        let offset: u64 = offset
            .parse()
            .map_err(|_| at(&format!("bad offset `{offset}`")))?;
        match verb {
            "read" => {
                let len: usize = arg
                    .parse()
                    .map_err(|_| at(&format!("bad length `{arg}`")))?;
                batch.read(offset, len);
            }
            "write" => {
                batch.write(offset, from_hex(arg).map_err(|e| at(&e))?);
            }
            other => return Err(at(&format!("unknown op `{other}`"))),
        }
    }
    Ok(batch)
}

fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("hex data `{s}` has odd length"));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16)
                .map_err(|_| format!("bad hex byte `{}`", &s[i..i + 2]))
        })
        .collect()
}

fn to_hex(data: &[u8]) -> String {
    data.iter().map(|b| format!("{b:02x}")).collect()
}

/// Renders a batch's results as one JSON object — the identical shape
/// for every backend, so CI can diff `file:` against `tcp:` replays.
fn batch_json(batch: &IoBatch, result: &BatchResult) -> Json {
    let per_op = batch.ops().iter().zip(&result.results).map(|(op, r)| {
        match (op, r) {
            (IoOp::Read { offset, len }, OpResult::Read(data)) => Json::obj([
                ("op", Json::str("read")),
                ("offset", Json::int64(*offset)),
                ("len", Json::int(*len)),
                ("data", Json::str(to_hex(data))),
            ]),
            (IoOp::Write { offset, .. }, OpResult::Write(w)) => Json::obj([
                ("op", Json::str("write")),
                ("offset", Json::int64(*offset)),
                ("bytes", Json::int64(w.bytes)),
                ("blocks_written", Json::int64(w.blocks_written)),
                ("stripes_touched", Json::int64(w.stripes_touched)),
                ("full_stripe_encodes", Json::int64(w.full_stripe_encodes)),
                ("delta_updates", Json::int64(w.delta_updates)),
            ]),
            // `submit` contracts results to line up with ops; a backend
            // violating that is a bug worth surfacing as malformed JSON
            // rather than a panic.
            _ => Json::obj([("op", Json::str("mismatch"))]),
        }
    });
    Json::obj([
        ("op", Json::str("batch")),
        ("ops", Json::int(batch.len())),
        ("results", Json::arr(per_op)),
        (
            "write_totals",
            Json::obj([
                ("bytes", Json::int64(result.write.bytes)),
                ("blocks_written", Json::int64(result.write.blocks_written)),
                ("stripes_touched", Json::int64(result.write.stripes_touched)),
                (
                    "full_stripe_encodes",
                    Json::int64(result.write.full_stripe_encodes),
                ),
                ("delta_updates", Json::int64(result.write.delta_updates)),
            ]),
        ),
    ])
}

fn cmd_fail(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let dev = open_admin(spec).map_err(|e| e.to_string())?;
    required(flags, "device")?;
    let device = num_flag(flags, "device", 0)?;
    // Defaulting the shard is only safe when there is exactly one;
    // silently picking shard 0 on a sharded backend would inject the
    // fault somewhere the operator did not name.
    let shard = match flags.get("shard") {
        Some(_) => num_flag(flags, "shard", 0)?,
        None => {
            let shards = dev.status().map_err(|e| e.to_string())?.shards.len();
            if shards > 1 {
                return Err(format!(
                    "--shard is required: this device has {shards} shards"
                ));
            }
            0
        }
    };
    if flags.contains_key("stripe") || flags.contains_key("sector") {
        let stripe = num_flag(flags, "stripe", 0)?;
        let sector = num_flag(flags, "sector", 0)?;
        let len = num_flag(flags, "len", 1)?;
        dev.corrupt_sectors(shard, device, stripe, sector, len)
            .map_err(|e| e.to_string())?;
        println!(
            "corrupted {len} sector(s) of shard {shard} device {device} in stripe {stripe} (latent until scrub/read)"
        );
    } else {
        dev.fail_device(shard, device).map_err(|e| e.to_string())?;
        println!("failed shard {shard} device {device}: backing file removed");
    }
    Ok(())
}

fn cmd_scrub(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let dev = open(spec)?;
    let threads = num_flag(flags, "threads", 4)?;
    let outcome = dev.scrub(threads).map_err(|e| e.to_string())?;
    if flags.contains_key("json") {
        print!("{}", status_json::scrub_json(&outcome).to_text());
        return Ok(());
    }
    println!(
        "scrubbed {} stripes, verified {} sectors: {} mismatches, {} unavailable device(s), {} stale record(s) cleared",
        outcome.stripes_scanned,
        outcome.sectors_verified,
        outcome.mismatches,
        outcome.unavailable_devices,
        outcome.records_cleared
    );
    if outcome.clean() {
        println!("device clean");
    } else {
        println!("run `stair dev repair` to reconstruct");
    }
    Ok(())
}

fn cmd_repair(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let dev = open(spec)?;
    let threads = num_flag(flags, "threads", 4)?;
    let outcome = dev.repair(threads).map_err(|e| e.to_string())?;
    if flags.contains_key("json") {
        print!("{}", status_json::repair_json(&outcome).to_text());
    } else {
        println!(
            "replaced {} device(s), repaired {} stripe(s), rewrote {} sector(s)",
            outcome.devices_replaced, outcome.stripes_repaired, outcome.sectors_rewritten
        );
        if outcome.complete() {
            println!("repair complete");
        }
    }
    if outcome.complete() {
        Ok(())
    } else {
        Err(format!(
            "{} stripe(s) beyond coverage (data lost)",
            outcome.unrecoverable_stripes
        ))
    }
}

fn cmd_flush(_: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let dev = open(spec)?;
    dev.flush().map_err(|e| e.to_string())?;
    println!("flushed");
    Ok(())
}

/// `stair dev metrics`: wraps the backend in [`Instrumented`] so the
/// local view gains `dev.*` per-op latency/byte metrics, optionally
/// replays an op-script through it (`--from`, same grammar as `batch`)
/// to populate them, then prints the combined snapshot — the wrapper's
/// registry merged with whatever the backend itself reports (`store.*`
/// and `gf.*` locally, the server's `srv.*` counters over `tcp:`).
fn cmd_metrics(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let dev = Instrumented::new(open(spec)?);
    if let Some(from) = flags.get("from").filter(|v| !v.is_empty()) {
        let text = std::fs::read_to_string(from)
            .map_err(|e| format!("cannot read op-script {from}: {e}"))?;
        let batch = parse_op_script(&text)?;
        dev.submit(&batch).map_err(|e| e.to_string())?;
    }
    let snap = dev.metrics().map_err(|e| e.to_string())?;
    if flags.contains_key("json") {
        print!("{}", metrics_json(&snap).to_text());
        return Ok(());
    }
    println!("counters:");
    for (name, v) in &snap.counters {
        println!("  {name:<28} {v}");
    }
    println!("gauges:");
    for (name, v) in &snap.gauges {
        println!("  {name:<28} {v}");
    }
    println!("latency histograms (us):");
    for (name, h) in &snap.histograms {
        println!(
            "  {name:<28} count {} p50 {} p99 {} max {}",
            h.count(),
            h.p50(),
            h.p99(),
            h.max
        );
    }
    println!("slow ops captured: {}", snap.slow_ops.len());
    for ev in &snap.slow_ops {
        println!(
            "  t+{}us {} shard {} {} bytes in {}us ({})",
            ev.t_us,
            ev.kind,
            ev.shard,
            ev.bytes,
            ev.duration_us,
            if ev.ok { "ok" } else { "failed" }
        );
    }
    Ok(())
}

/// `stair dev trace`: turns on request tracing, optionally replays an
/// op-script (`--from`, same grammar as `batch`) through an
/// [`Instrumented`] device so every layer records spans, then prints
/// this process's flight recorder — plus the server's, pulled over the
/// TRACE opcode, when `spec` is `tcp:`. Both go through one serializer,
/// so their shapes cannot drift.
fn cmd_trace(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    stair_obs::trace::set_enabled(true);
    let dev = Instrumented::new(open(spec)?);
    if let Some(from) = flags.get("from").filter(|v| !v.is_empty()) {
        let text = std::fs::read_to_string(from)
            .map_err(|e| format!("cannot read op-script {from}: {e}"))?;
        let batch = parse_op_script(&text)?;
        dev.submit(&batch).map_err(|e| e.to_string())?;
    }
    let local = recorded_traces();
    let server = match spec {
        DeviceSpec::Tcp { addr, .. } => Client::connect(addr)
            .and_then(|client| client.pull_traces())
            .map_err(|e| e.to_string())?,
        _ => Vec::new(),
    };
    if flags.contains_key("json") {
        print!("{}", status_json::traces_json(&local, &server).to_text());
        return Ok(());
    }
    if local.is_empty() && server.is_empty() {
        println!("no traces recorded (pass --from SCRIPT to trace a replay)");
        return Ok(());
    }
    for (origin, traces) in [("local", &local), ("server", &server)] {
        for trace in traces {
            println!(
                "trace {:016x} ({origin}, {}us, {}{})",
                trace.trace_id,
                trace.duration_us,
                if trace.ok { "ok" } else { "failed" },
                if trace.slow { ", slow" } else { "" },
            );
            print_span_tree(&trace.spans, trace.root_span, 1);
        }
    }
    Ok(())
}

/// Prints `span_id` and its descendants, indented by depth. Orphan
/// spans (parent evicted past the per-trace cap) simply do not print —
/// the JSON view still carries them.
fn print_span_tree(spans: &[stair_net::WireSpan], span_id: u64, depth: usize) {
    let Some(span) = spans.iter().find(|s| s.span_id == span_id) else {
        return;
    };
    println!(
        "{}{} {}us{}{}",
        "  ".repeat(depth),
        span.name,
        span.duration_us,
        if span.bytes > 0 {
            format!(" {}B", span.bytes)
        } else {
            String::new()
        },
        if span.ok { "" } else { " FAILED" },
    );
    let mut children: Vec<&stair_net::WireSpan> =
        spans.iter().filter(|s| s.parent_id == span_id).collect();
    children.sort_by_key(|s| s.start_us);
    for child in children {
        print_span_tree(spans, child.span_id, depth + 1);
    }
}

/// This process's flight recorder as wire traces: the completed ring
/// plus any slow/errored captures the main ring has already evicted —
/// the same merge the server performs for a TRACE pull.
fn recorded_traces() -> Vec<WireTrace> {
    let rec = stair_obs::trace::recorder();
    let mut traces: Vec<WireTrace> = rec.traces().iter().map(WireTrace::from).collect();
    let seen: std::collections::HashSet<(u64, u64)> =
        traces.iter().map(|t| (t.trace_id, t.root_span)).collect();
    traces.extend(
        rec.slow_traces()
            .iter()
            .filter(|t| !seen.contains(&(t.trace_id, t.root_span)))
            .map(WireTrace::from),
    );
    traces
}
