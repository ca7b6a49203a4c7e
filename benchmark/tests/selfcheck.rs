//! The benchmark checking itself: `BENCHMARK.json` and the tables in
//! `src/metrics.rs` say the same thing, every declared name is emitted
//! and nothing else is, and a misbehaving device turns into counted
//! failed ops — never a panic.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use stair_benchmark::engine::{run_windows, Client, Plan, Unobserved};
use stair_benchmark::json::{self, Value};
use stair_benchmark::load::{fill_block, Pattern};
use stair_benchmark::metrics::{Workload, END_TO_END, PER_LAYER};
use stair_device::{
    BlockDevice, DeviceError, DeviceStatus, RepairOutcome, ScrubOutcome, WriteOutcome,
};

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    assert!(text.len() <= 64 << 10, "BENCHMARK.json exceeds 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing or not a string in {}", v.render()))
}

fn keys(v: &Value) -> Vec<&str> {
    v.fields().iter().map(|(k, _)| k.as_str()).collect()
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[test]
fn benchmark_json_and_the_tables_agree() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .items()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = doc
        .get("command")
        .unwrap()
        .items()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let mut names = BTreeSet::new();
    let mut fresh = |name: &str| {
        assert!(valid_name(name), "bad name `{name}`");
        assert!(names.insert(name.to_string()), "name `{name}` used twice");
    };

    let workloads = doc.get("workloads").unwrap().items();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (entry, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(str_of(entry, "name"), w.name());
        assert_eq!(str_of(entry, "why"), w.why());
        assert!(
            w.why().chars().count() <= 200 && !w.why().contains('\n'),
            "{}",
            w.name()
        );
        fresh(w.name());
    }

    let e2e = doc.get("end_to_end").unwrap().items();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(str_of(entry, "name"), m.name);
        assert_eq!(str_of(entry, "unit"), m.unit);
        assert_eq!(str_of(entry, "better"), m.better.as_str());
        assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(m.bound));
        assert!(
            m.bound > 0.0 && m.bound <= 0.25 && valid_unit(m.unit),
            "{}",
            m.name
        );
        fresh(m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let layers = doc.get("per_layer").unwrap().items();
    assert!(layers.len() <= 128);
    assert_eq!(layers.len(), PER_LAYER.len());
    for (entry, m) in layers.iter().zip(PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(str_of(entry, "name"), m.name);
        assert_eq!(str_of(entry, "unit"), m.unit);
        assert_eq!(str_of(entry, "better"), m.better.as_str());
        assert!(valid_unit(m.unit), "{}", m.name);
        fresh(m.name);
    }
}

// ---------------------------------------------------------------------
// Every declared name is emitted, and vice versa
// ---------------------------------------------------------------------

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("selfcheck-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the real binary the way the driver does and returns the JSON
/// object on the last line of its stdout.
fn contract_run(workload: Workload, trace: bool, seconds: &str, out_dir: &Path) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_stair-benchmark"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "3",
            "--seconds",
            seconds,
        ])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
            "--out-dir",
        ])
        .arg(out_dir)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{} exited with {}: {}",
        workload.name(),
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is one JSON object");
    assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    result
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no value for {name}"))
}

fn assert_emits(result: &Value, declared: &[(&str, &str)]) {
    let metrics = result.get("metrics").unwrap().fields();
    let emitted: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(name, m)| (name.as_str(), str_of(m, "unit")))
        .collect();
    assert_eq!(emitted, declared);
    for (name, m) in metrics {
        let value = m.get("value").and_then(Value::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name} is not a number");
    }
}

#[test]
fn end_to_end_runs_emit_exactly_the_declared_metrics() {
    let out = scratch("e2e");
    let declared: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    for w in Workload::ALL {
        let result = contract_run(w, false, "2", &out);
        assert_emits(&result, &declared);
        for m in END_TO_END {
            assert!(
                metric(&result, m.name) > 0.0,
                "{} of {} is zero",
                m.name,
                w.name()
            );
        }
        assert_eq!(metric(&result, "ok_frac"), 1.0);
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn layer_runs_emit_exactly_the_declared_metrics_and_the_bypasses_hold() {
    let out = scratch("layers");
    let declared: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    let mut exact: Vec<[f64; 3]> = Vec::new();
    for w in Workload::ALL {
        let result = contract_run(w, true, "4", &out);
        assert_emits(&result, &declared);
        assert!(out.join(format!("trace-{}.json", w.name())).is_file());
        exact.push([
            metric(&result, "gf.mult_xors_per_stripe_encode"),
            metric(&result, "gf.mult_xors_per_stripe_decode"),
            metric(&result, "codec.stair_update_parity_cells"),
        ]);
        let m = |name: &str| metric(&result, name);
        match w {
            Workload::SeqWriteFile => {
                assert_eq!(m("store.encode_passes_per_op"), 1.0);
                assert_eq!(m("store.jrnl_appends_per_op"), 1.0);
                assert_eq!(m("net.srv_requests_per_op"), 0.0);
            }
            Workload::DegradedReadFile => {
                assert_eq!(m("store.jrnl_appends_per_op"), 0.0);
                assert_eq!(m("store.encode_passes_per_op"), 0.0);
                assert!(m("store.recover_passes_per_op") >= 1.0);
            }
            Workload::SmallRwTcp => {
                assert_eq!(m("net.srv_requests_per_op"), 1.0);
                assert!(m("store.delta_updates_per_op") > 1.0);
                assert!(m("trace.store_delta_self_us") > 0.0);
                assert_eq!(m("cache.hit_rate"), 0.0);
            }
            Workload::ZipfReadCacheTcp => {
                assert!(m("cache.hit_rate") > 0.2);
                assert!(m("store.encode_passes_per_op") < 0.01);
                assert!(m("trace.cache_fill_self_us") > 0.0);
            }
        }
        assert_eq!(m("net.client_retries"), 0.0);
    }
    // Exact counts repeat exactly, whichever workload ran beside them.
    assert!(
        exact.iter().all(|e| *e == exact[0] && e[0] > 0.0),
        "{exact:?}"
    );
    let _ = std::fs::remove_dir_all(&out);
}

// ---------------------------------------------------------------------
// A misbehaving device becomes failed ops, not a panic
// ---------------------------------------------------------------------

const BLOCK: usize = 512;
const BLOCKS: u64 = 4096;

/// An in-memory device that fails one op in 50 with an error and
/// corrupts the data of another one in 50.
struct FaultyDevice {
    data: Mutex<Vec<u8>>,
    ops: AtomicU64,
}

#[derive(PartialEq)]
enum Fault {
    None,
    Error,
    Corrupt,
}

impl FaultyDevice {
    fn prefilled(seed: u64) -> Self {
        let mut data = vec![0u8; BLOCKS as usize * BLOCK];
        for (b, chunk) in data.chunks_mut(BLOCK).enumerate() {
            fill_block(seed, b as u64, 0, chunk);
        }
        FaultyDevice {
            data: Mutex::new(data),
            ops: AtomicU64::new(0),
        }
    }

    fn next_fault(&self) -> Fault {
        match self.ops.fetch_add(1, Ordering::Relaxed) % 50 {
            17 => Fault::Error,
            42 => Fault::Corrupt,
            _ => Fault::None,
        }
    }

    fn span(&self, offset: u64, len: usize) -> Result<std::ops::Range<usize>, DeviceError> {
        let end = offset as usize + len;
        if end > BLOCKS as usize * BLOCK {
            return Err(DeviceError::OutOfRange(format!("{offset}+{len}")));
        }
        Ok(offset as usize..end)
    }
}

impl BlockDevice for FaultyDevice {
    fn capacity(&self) -> u64 {
        BLOCKS * BLOCK as u64
    }

    fn block_size(&self) -> usize {
        BLOCK
    }

    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, DeviceError> {
        let span = self.span(offset, len)?;
        let fault = self.next_fault();
        if fault == Fault::Error {
            return Err(DeviceError::Backend("injected read error".into()));
        }
        let mut out = self.data.lock().unwrap()[span].to_vec();
        if fault == Fault::Corrupt {
            // The version field of the first block's stamp.
            out[9] ^= 0x40;
        }
        Ok(out)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<WriteOutcome, DeviceError> {
        let span = self.span(offset, data.len())?;
        let fault = self.next_fault();
        if fault == Fault::Error {
            return Err(DeviceError::Backend("injected write error".into()));
        }
        let mut store = self.data.lock().unwrap();
        store[span.clone()].copy_from_slice(data);
        if fault == Fault::Corrupt {
            store[span.start + 9] ^= 0x40;
        }
        Ok(WriteOutcome {
            bytes: data.len() as u64,
            ..WriteOutcome::default()
        })
    }

    fn flush(&self) -> Result<(), DeviceError> {
        Ok(())
    }

    fn status(&self) -> Result<DeviceStatus, DeviceError> {
        Ok(DeviceStatus::default())
    }

    fn scrub(&self, _threads: usize) -> Result<ScrubOutcome, DeviceError> {
        Ok(ScrubOutcome::default())
    }

    fn repair(&self, _threads: usize) -> Result<RepairOutcome, DeviceError> {
        Ok(RepairOutcome::default())
    }
}

fn failed_frac(pattern: Pattern) -> f64 {
    let seed = 21;
    let dev = FaultyDevice::prefilled(seed);
    let mut clients = vec![
        Client::new(pattern, seed, 0, 0..BLOCKS / 2, 64, BLOCK),
        Client::new(pattern, seed, 1, BLOCKS / 2..BLOCKS, 64, BLOCK),
    ];
    let plan = Plan {
        warmup: Duration::from_millis(20),
        window: Duration::from_millis(150),
        windows: 2,
        poll: None,
    };
    let windows = run_windows(&mut clients, &[&dev, &dev], &plan, &mut Unobserved);
    let (attempted, failed) = windows
        .iter()
        .fold((0, 0), |a, w| (a.0 + w.attempted, a.1 + w.failed));
    assert!(attempted > 2000, "only {attempted} ops in 0.3 s");
    failed as f64 / attempted as f64
}

#[test]
fn a_faulty_device_yields_the_expected_failed_share_not_a_panic() {
    // Reads only: one op in 50 errors, one in 50 comes back with a
    // damaged stamp — both are failed ops, so 4 % exactly (up to which
    // residues the window edges cut off).
    let frac = failed_frac(Pattern::UniformRead { run: 4 });
    assert!((frac - 0.04).abs() < 0.004, "failed_frac {frac}");

    // Reads and writes mixed, single ops and batches: a failed or
    // silently damaged write also surfaces (at the latest when the
    // block is next read), and nothing panics on the way.
    let frac = failed_frac(Pattern::ZipfRead {
        theta: 0.99,
        write_every: 4,
    });
    assert!(frac > 0.02 && frac < 0.12, "failed_frac {frac}");
    let frac = failed_frac(Pattern::UniformBatch {
        ops: 16,
        p_write: 0.3,
    });
    assert!(frac > 0.02, "failed_frac {frac}");
}
