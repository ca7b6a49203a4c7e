//! The telemetry an operator reads is the telemetry README documents.
//!
//! One traced, in-process session drives every metric and span source
//! of the stack: a `ShardSet` reopened over a crashed journal, a
//! `Server` over it, and an `Instrumented` `cache:tcp:…?wb=on` client
//! whose cache budget is below the working set. From the session's
//! final `metrics()` snapshot and the span names the flight recorder
//! held after each phase, [`complaints`] asserts:
//!
//! 1. every produced metric name matches a backticked dotted name in
//!    README, where a `<placeholder>` segment matches exactly one
//!    segment;
//! 2. every README metric name — a backticked dotted name whose first
//!    segment some produced metric uses, and not a declared span name —
//!    matches a produced metric;
//! 3. every produced metric moved (a counter above 0, a histogram with
//!    samples, a gauge other than 0); a placeholder family needs one
//!    instance that moved;
//! 4. every `metric_names::ALL` entry is produced;
//! 5. every `names::ALL` entry appears in a recorded trace, except
//!    `BENCH_SUBMIT`, which only `benchmark/` records: for it, the
//!    session checks that `benchmark/src` references the constant.
//!
//! These are whole-program facts, so they are checked on a running
//! program rather than guessed from source text. The store's `Counters`
//! fields are held at compile time too: `StripeStore::store_metrics`
//! destructures the struct with no `..`, so a field added without a
//! metric name does not compile (E0027), and assertion 3 proves each one
//! is written.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};

use stair_device::{BlockDevice, DeviceSpec, FaultAdmin, Instrumented, IoBatch};
use stair_net::{open_admin, Client, Server, ServerConfig, ShardSet};
use stair_obs::trace::{self, names};
use stair_obs::{metric_names, MetricsSnapshot};
use stair_store::StoreOptions;

// ---- the comparison ------------------------------------------------

/// `true` for a dotted name README may write: two or more segments,
/// each lower-case word characters or one `<placeholder>`.
fn is_dotted_name(text: &str) -> bool {
    let word = |s: &str| {
        !s.is_empty()
            && s.bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    };
    let segment = |s: &str| {
        word(s)
            || s.strip_prefix('<')
                .and_then(|s| s.strip_suffix('>'))
                .is_some_and(word)
    };
    let mut parts = text.split('.');
    parts.next().is_some_and(word) && text.contains('.') && parts.all(segment)
}

/// Every backticked dotted name in `readme`, once each.
fn readme_names(readme: &str) -> BTreeSet<&str> {
    readme
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|piece| is_dotted_name(piece))
        .collect()
}

/// `true` when README name `pattern` names metric `name`: the same
/// segments, where a `<placeholder>` segment stands for exactly one.
fn matches(pattern: &str, name: &str) -> bool {
    let (p, n): (Vec<&str>, Vec<&str>) = (pattern.split('.').collect(), name.split('.').collect());
    p.len() == n.len()
        && p.iter()
            .zip(&n)
            .all(|(p, n)| p == n || (p.starts_with('<') && !n.is_empty()))
}

/// What the telemetry of one session gets wrong: `snap` is its final
/// metrics snapshot, `recorded` the span names its traces held,
/// `reserved` the declared metric names (`metric_names::ALL`) and
/// `spans` the declared span names that must be recorded.
fn complaints(
    snap: &MetricsSnapshot,
    recorded: &BTreeSet<&str>,
    readme: &str,
    reserved: &[&str],
    spans: &[&str],
) -> Vec<String> {
    let produced: Vec<(&str, bool)> = snap
        .counters
        .iter()
        .map(|(n, v)| (n.as_str(), *v > 0))
        .chain(snap.gauges.iter().map(|(n, v)| (n.as_str(), *v != 0)))
        .chain(
            snap.histograms
                .iter()
                .map(|(n, h)| (n.as_str(), h.count() > 0)),
        )
        .collect();
    let documented = readme_names(readme);
    let first = |name: &str| name.split('.').next().unwrap_or_default().to_string();
    let families: BTreeSet<String> = produced.iter().map(|(n, _)| first(n)).collect();
    let mut out = Vec::new();

    for (name, _) in &produced {
        if !documented.iter().any(|d| matches(d, name)) {
            out.push(format!(
                "metric `{name}` is produced but README names it nowhere"
            ));
        }
    }
    let doc_metrics = documented
        .iter()
        .filter(|d| families.contains(&first(d)) && !spans.contains(d));
    for doc in doc_metrics {
        if !produced.iter().any(|(n, _)| matches(doc, n)) {
            out.push(format!(
                "README names metric `{doc}` but the session produced none"
            ));
        }
    }
    // A name is judged with its family: the placeholder pattern it
    // instantiates, or itself when README names it outright.
    let mut groups: BTreeMap<&str, bool> = BTreeMap::new();
    for (name, moved) in &produced {
        let family = documented
            .iter()
            .find(|d| d.contains('<') && matches(d, name));
        *groups.entry(family.map_or(*name, |f| *f)).or_default() |= moved;
    }
    for (group, moved) in groups {
        if !moved {
            out.push(format!("metric `{group}` never moved"));
        }
    }
    for name in reserved {
        if !produced.iter().any(|(n, _)| n == name) {
            out.push(format!("declared metric name `{name}` is never produced"));
        }
    }
    for name in spans {
        if !recorded.contains(name) {
            out.push(format!("declared span name `{name}` is never recorded"));
        }
    }
    out
}

// ---- the comparison checks itself ----------------------------------

const SYNTHETIC_README: &str =
    "`a.hits`, `a.ops.<kind>` and the span `a.span`; files like `b.txt` are not metrics.";

/// A session whose telemetry README documents in full.
fn synthetic() -> (MetricsSnapshot, BTreeSet<&'static str>) {
    let mut snap = MetricsSnapshot::default();
    snap.add_counter("a.hits", 3);
    snap.add_counter("a.ops.read", 1);
    snap.add_counter("a.ops.write", 0);
    (snap, ["a.span"].into())
}

#[test]
fn a_placeholder_matches_exactly_one_segment() {
    assert!(matches("a.ops.<kind>", "a.ops.read"));
    assert!(!matches("a.ops.<kind>", "a.ops.read.extra"));
    assert!(!matches("a.ops.<kind>", "a.ops"));
    assert!(!matches("a.hits", "a.hits_total"));
    assert!(is_dotted_name("srv.req.<opcode>") && is_dotted_name("b.txt"));
    assert!(!is_dotted_name("crates/store/src/store.rs") && !is_dotted_name("a."));
}

#[test]
fn the_comparison_complains_once_per_planted_fault() {
    let (snap, recorded) = synthetic();
    let clean = complaints(&snap, &recorded, SYNTHETIC_README, &["a.hits"], &["a.span"]);
    assert_eq!(clean, Vec::<String>::new());

    let once = |got: Vec<String>, what: &str| {
        assert_eq!(got.len(), 1, "{what}: {got:?}");
        assert!(got[0].contains(what), "{what}: {got:?}");
    };
    // A produced name that README lacks — also one a placeholder would
    // match only by swallowing two segments.
    for rogue in ["a.rogue", "a.ops.read.extra"] {
        let mut more = snap.clone();
        more.add_counter(rogue, 1);
        let got = complaints(&more, &recorded, SYNTHETIC_README, &["a.hits"], &["a.span"]);
        once(
            got,
            &format!("`{rogue}` is produced but README names it nowhere"),
        );
    }
    // A README name that nothing produces.
    let readme = format!("{SYNTHETIC_README} `a.doc_only`");
    let got = complaints(&snap, &recorded, &readme, &["a.hits"], &["a.span"]);
    once(got, "README names metric `a.doc_only`");
    // A counter at 0 (a family with one moved instance is fine: above,
    // `a.ops.write` sits at 0 beside `a.ops.read`).
    let mut idle = MetricsSnapshot::default();
    idle.add_counter("a.hits", 0);
    idle.add_counter("a.ops.read", 1);
    let got = complaints(&idle, &recorded, SYNTHETIC_README, &["a.hits"], &["a.span"]);
    once(got, "`a.hits` never moved");
    // A whole family at 0 is one complaint, under its README pattern.
    let mut idle = snap.clone();
    idle.counters.retain(|(n, _)| n == "a.hits");
    idle.add_counter("a.ops.read", 0);
    idle.add_counter("a.ops.write", 0);
    let got = complaints(&idle, &recorded, SYNTHETIC_README, &["a.hits"], &["a.span"]);
    once(got, "`a.ops.<kind>` never moved");
    // An unproduced `metric_names::ALL` entry.
    let got = complaints(
        &snap,
        &recorded,
        SYNTHETIC_README,
        &["a.hits", "a.dead"],
        &["a.span"],
    );
    once(got, "declared metric name `a.dead` is never produced");
    // An unrecorded span name.
    let got = complaints(
        &snap,
        &recorded,
        SYNTHETIC_README,
        &["a.hits"],
        &["a.span", "a.dead_span"],
    );
    once(got, "declared span name `a.dead_span` is never recorded");
}

// ---- the session ---------------------------------------------------

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stair-telemetry-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(29).wrapping_add(seed))
        .collect()
}

/// Every file of every shard directory under `root`, by path.
fn shard_files(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    for shard in fs::read_dir(root).unwrap().flatten() {
        for file in fs::read_dir(shard.path()).unwrap().flatten() {
            files.push((file.path(), fs::read(file.path()).unwrap()));
        }
    }
    files
}

/// Reads one length-prefixed frame off `from`.
fn read_frame(from: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    from.read_exact(&mut len)?;
    let mut frame = len.to_vec();
    frame.resize(4 + u32::from_le_bytes(len) as usize, 0);
    from.read_exact(&mut frame[4..])?;
    Ok(frame)
}

/// A lock-step frame relay in front of `server` that executes its
/// `kill_at`-th request but hangs up instead of answering it, so the
/// client redelivers that frame over a fresh connection.
fn lossy_proxy(server: String, kill_at: usize) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let mut forwarded = 0usize;
        for client in listener.incoming() {
            let (Ok(mut client), Ok(mut upstream)) = (client, TcpStream::connect(&server)) else {
                return;
            };
            while let Ok(request) = read_frame(&mut client) {
                let Ok(response) = upstream
                    .write_all(&request)
                    .and_then(|()| read_frame(&mut upstream))
                else {
                    break;
                };
                forwarded += 1;
                if forwarded == kill_at + 1 || client.write_all(&response).is_err() {
                    break;
                }
            }
        }
    });
    addr
}

/// The span names the flight recorder holds now, added to `seen`. The
/// session drains it after each phase, so its rings never wrap unseen.
fn drain(seen: &mut BTreeSet<&'static str>) {
    let rec = trace::recorder();
    for t in rec.traces().iter().chain(&rec.slow_traces()) {
        seen.extend(t.spans.iter().map(|s| s.name));
    }
}

/// `true` when some file under `benchmark/src` records
/// `names::BENCH_SUBMIT` — the one span only that package records.
fn benchmark_records_bench_submit() -> bool {
    let mut stack = vec![root().join("benchmark/src")];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).unwrap().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if fs::read_to_string(&path).is_ok_and(|t| t.contains("names::BENCH_SUBMIT")) {
                return true;
            }
        }
    }
    false
}

#[test]
fn one_session_produces_exactly_the_documented_telemetry() {
    let dir = tmpdir("session");
    let opts = StoreOptions {
        code: "stair:8,4,2,1-1-2".parse().unwrap(),
        symbol: 4096,
        stripes: 8,
    };
    let mut seen = BTreeSet::new();

    // A crash with acknowledged commits still in the journal: capture
    // the live files, let the clean close run, put the live ones back.
    let set = ShardSet::create(&dir, 2, &opts).expect("create shards");
    let capacity = set.capacity() as usize;
    let mut expected = pattern(capacity, 3);
    set.write_at(0, &expected).expect("pre-crash write");
    let live = shard_files(&dir);
    drop(set);
    for (path, bytes) in &live {
        fs::write(path, bytes).unwrap();
    }
    trace::set_enabled(true);
    let set = ShardSet::open(&dir).expect("reopen replays the journal");
    drain(&mut seen);

    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());
    // A 1 MiB cache holds 256 of the 320 blocks; write-back is on, with
    // drains on pressure and flush only.
    let spec: DeviceSpec = format!("cache:tcp:{addr}?mb=1&wb=on&interval_ms=0")
        .parse()
        .expect("spec");
    let dev = Instrumented::new(open_admin(&spec).expect("open the cache over tcp"));
    assert_eq!(dev.capacity() as usize, capacity);
    let block = dev.block_size();

    // Full-stripe writes, then a partial one and a two-op batch.
    expected = pattern(capacity, 11);
    dev.write_at(0, &expected).expect("full write");
    let one = pattern(block, 41);
    dev.write_at(3 * block as u64, &one).expect("partial write");
    expected[3 * block..4 * block].copy_from_slice(&one);
    let mut batch = IoBatch::new();
    batch.write(7 * block as u64, pattern(block, 42));
    batch.read(40 * block as u64, 100);
    dev.submit(&batch).expect("batch");
    expected[7 * block..8 * block].copy_from_slice(&pattern(block, 42));
    dev.flush().expect("flush drains the write-back buffer");
    drain(&mut seen);

    // Clean reads: all of it (more than the cache holds), then again.
    for _ in 0..2 {
        assert_eq!(dev.read_at(0, capacity).expect("clean read"), expected);
    }
    drain(&mut seen);

    // Degraded reads, then scrub and repair.
    dev.fail_device(0, 2).expect("fail a device");
    assert_eq!(dev.read_at(0, capacity).expect("degraded read"), expected);
    drain(&mut seen);
    assert!(dev.scrub(1).is_ok());
    assert!(dev.repair(1).is_ok());
    dev.flush().expect("flush checkpoints the journal");
    drain(&mut seen);

    // One batch redelivered over a connection that died mid-reply.
    let relayed = Client::connect(&lossy_proxy(addr.clone(), 1)).expect("connect via relay");
    relayed
        .write_at(5, &pattern(300, 77))
        .expect("redelivered write");
    drop(relayed);
    drain(&mut seen);

    // A read beyond coverage: three devices of a shard that tolerates
    // two.
    for device in [1, 4, 6] {
        dev.fail_device(1, device).expect("fail past coverage");
    }
    assert!(dev.read_at(0, capacity).is_err(), "read beyond coverage");
    let snap = dev.metrics().expect("metrics");
    drain(&mut seen);

    drop(dev);
    handle.shutdown();
    running.join().expect("server thread").expect("run");
    trace::set_enabled(false);
    fs::remove_dir_all(&dir).expect("cleanup");

    let spans: Vec<&str> = names::ALL
        .iter()
        .copied()
        .filter(|name| *name != names::BENCH_SUBMIT)
        .collect();
    let readme = fs::read_to_string(root().join("README.md")).expect("README.md");
    let found = complaints(&snap, &seen, &readme, metric_names::ALL, &spans);
    assert!(
        found.is_empty(),
        "the session's telemetry and README disagree:\n  {}",
        found.join("\n  ")
    );
    assert!(
        benchmark_records_bench_submit(),
        "no file under benchmark/src records `names::BENCH_SUBMIT`"
    );
}
