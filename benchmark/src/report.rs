//! Whole-suite reports and their comparison: `suite` runs every
//! workload (each in a process of its own, so peak RSS and CPU are that
//! workload's alone), `compare` judges one report against another with
//! the bounds the benchmark fixed, and `aa` compares the suite with
//! itself — the check that the instrument is steadier than its bounds.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{self, Value};
use crate::metrics::{Better, Workload, END_TO_END};
use crate::stats::median;

/// The share by which the host's speed may differ between the two
/// sides of a comparison before its time-based pairs rest more on the
/// reference than on the measurement.
const HOST_SPEED_BOUND: f64 = 0.2;

/// Arguments every child run of a suite shares.
#[derive(Clone, Debug)]
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// Runs the four workloads one after another, each as a child process
/// of this executable, and merges their detailed reports.
pub fn run_suite(args: &SuiteArgs) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    let mut workloads = Value::obj();
    for w in Workload::ALL {
        let part = args
            .out_dir
            .join(format!("part-{}-{}.json", std::process::id(), w.name()));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&args.out_dir)
            .arg("--report")
            .arg(&part);
        if args.smoke {
            cmd.arg("--smoke");
        }
        // `status` waits for the child, so none outlives the suite.
        let status = cmd
            .status()
            .map_err(|e| format!("spawn {}: {e}", w.name()))?;
        let text = std::fs::read_to_string(&part);
        let _ = std::fs::remove_file(&part);
        if !status.success() {
            return Err(format!("{} exited with {status}", w.name()));
        }
        let text = text.map_err(|e| format!("{} wrote no report: {e}", w.name()))?;
        workloads = workloads.with(w.name(), json::parse(&text)?);
    }
    Ok(Value::obj()
        .with("schema", 1u64)
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("smoke", args.smoke)
        .with("workloads", workloads))
}

/// Whether every workload of a suite report verified its outputs.
pub fn all_correct(report: &Value) -> bool {
    let workloads = report.get("workloads").map(Value::fields).unwrap_or(&[]);
    !workloads.is_empty()
        && workloads
            .iter()
            .all(|(_, w)| w.get("correct").and_then(Value::as_bool) == Some(true))
}

pub fn write_report(path: &Path, report: &Value) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, report.render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn read_report(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The verdict on one (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the bound, by more than the runs' own spread.
    Regressed,
    /// The spread between windows is wider than the bound (or, for
    /// `host_speed`, the two sides ran on hosts too unlike): the pair
    /// cannot be called unchanged.
    Unresolved,
    /// No bound applies (a per-layer metric).
    Info,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// Judges median `b` against base `a`. `worse_by` is how far `b` is on
/// the wrong side of `a`, as a share of `a`.
pub fn judge(a: f64, b: f64, better: Better, bound: f64, spread: f64) -> (f64, Verdict) {
    let change = change(a, b);
    let worse_by = match better {
        Better::Higher => -change,
        Better::Lower => change,
    };
    let verdict = if worse_by > bound && worse_by > spread {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (change, verdict)
}

/// One row of a comparison.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub change: f64,
    pub bound: Option<f64>,
    pub spread: f64,
    pub verdict: Verdict,
}

fn change(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        0.0
    } else {
        (b - a) / a.abs()
    }
}

/// The `host_speed` row of one workload, if both reports carry the
/// samples (layers runs do not).
fn host_speed_row(workload: &str, ra: &Value, rb: &Value) -> Option<Row> {
    let speed = |r: &Value| {
        let samples: Vec<f64> = r
            .get("host_speed")?
            .items()
            .iter()
            .filter_map(Value::as_f64)
            .collect();
        (!samples.is_empty()).then(|| median(&samples))
    };
    let (a, b) = (speed(ra)?, speed(rb)?);
    let change = change(a, b);
    Some(Row {
        workload: workload.to_string(),
        metric: "host_speed".into(),
        a,
        b,
        change,
        bound: None,
        spread: 0.0,
        verdict: if change.abs() > HOST_SPEED_BOUND {
            Verdict::Unresolved
        } else {
            Verdict::Info
        },
    })
}

/// Compares suite report `b` against base `a`, one row per (metric,
/// workload) pair present in both. More failed ops than the base, or
/// any output that failed verification, is a regression of `ok_frac`
/// whatever its size.
pub fn compare(a: &Value, b: &Value) -> Vec<Row> {
    let empty = Value::obj();
    let (wa, wb) = (
        a.get("workloads").unwrap_or(&empty),
        b.get("workloads").unwrap_or(&empty),
    );
    let mut rows = Vec::new();
    for (workload, ra) in wa.fields() {
        let Some(rb) = wb.get(workload) else { continue };
        let (Some(ma), Some(mb)) = (ra.get("metrics"), rb.get("metrics")) else {
            continue;
        };
        let failed = |r: &Value| r.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        let broke =
            failed(rb) > failed(ra) || rb.get("correct").and_then(Value::as_bool) == Some(false);
        for (metric, va) in ma.fields() {
            let Some(vb) = mb.get(metric) else { continue };
            let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            let (a, b) = (num(va, "median"), num(vb, "median"));
            let spread = num(va, "iqr_frac").max(num(vb, "iqr_frac"));
            let spec = END_TO_END.iter().find(|m| m.name == metric);
            let (change, verdict) = match spec {
                Some(m) if m.name == "ok_frac" && broke => (change(a, b), Verdict::Regressed),
                Some(m) => judge(a, b, m.better, m.bound, spread),
                None => (change(a, b), Verdict::Info),
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                a,
                b,
                change,
                bound: spec.map(|m| m.bound),
                spread,
                verdict,
            });
        }
        rows.extend(host_speed_row(workload, ra, rb));
    }
    rows
}

/// Prints the rows; returns how many regressed.
pub fn print_rows(rows: &[Row]) -> usize {
    println!(
        "{:<20} {:<38} {:>13} {:>13} {:>16} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "change (base A)", "bound", "spread"
    );
    for r in rows {
        println!(
            "{:<20} {:<38} {:>13.4} {:>13.4} {:>+8.2}% of {:<9.4} {:>7} {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.change * 100.0,
            r.a,
            r.bound
                .map_or("-".to_string(), |b| format!("{:.2}%", b * 100.0)),
            r.spread * 100.0,
            r.verdict.as_str()
        );
    }
    rows.iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Goodput (higher is better), bound 7 %.
        assert_eq!(
            judge(100.0, 95.0, Better::Higher, 0.07, 0.01).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(100.0, 90.0, Better::Higher, 0.07, 0.01).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(100.0, 120.0, Better::Higher, 0.07, 0.01).1,
            Verdict::Ok
        );
        // Latency (lower is better).
        assert_eq!(
            judge(100.0, 110.0, Better::Lower, 0.07, 0.02).1,
            Verdict::Regressed
        );
        assert_eq!(judge(100.0, 80.0, Better::Lower, 0.07, 0.02).1, Verdict::Ok);
        // A spread wider than the bound cannot resolve a small change...
        assert_eq!(
            judge(100.0, 104.0, Better::Lower, 0.07, 0.09).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(100.0, 108.0, Better::Lower, 0.07, 0.09).1,
            Verdict::Unresolved
        );
        // ...but a change beyond both is still a regression.
        assert_eq!(
            judge(100.0, 130.0, Better::Lower, 0.07, 0.09).1,
            Verdict::Regressed
        );
        let (change, _) = judge(200.0, 150.0, Better::Higher, 0.07, 0.0);
        assert_eq!(change, -0.25);
    }

    fn suite(goodput: f64, p50: f64, failed: u64, host_speed: f64) -> Value {
        let spread_of = |m: f64, spread: f64| {
            Value::obj()
                .with("unit", "x")
                .with("median", m)
                .with("iqr_frac", spread)
        };
        let metric = |m: f64| spread_of(m, 0.01);
        let attempted = 100_000u64;
        Value::obj().with(
            "workloads",
            Value::obj().with(
                "seq_write_file",
                Value::obj()
                    .with("correct", failed == 0)
                    .with("attempted", attempted)
                    .with("failed", failed)
                    .with("host_speed", vec![Value::Num(host_speed); 5])
                    .with(
                        "metrics",
                        Value::obj()
                            .with("goodput_mib_s", metric(goodput))
                            .with("lat_p50_us", metric(p50))
                            .with(
                                "ok_frac",
                                // One value per run, so no spread.
                                spread_of(1.0 - failed as f64 / attempted as f64, 0.0),
                            )
                            .with("gf.some_layer_metric", metric(1.0)),
                    ),
            ),
        )
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn compare_flags_only_the_regressed_pair() {
        let rows = compare(&suite(100.0, 50.0, 0, 1.0), &suite(70.0, 50.5, 0, 0.9));
        assert_eq!(rows.len(), 5);
        assert_eq!(verdict(&rows, "goodput_mib_s"), Verdict::Regressed);
        assert_eq!(verdict(&rows, "lat_p50_us"), Verdict::Ok);
        assert_eq!(verdict(&rows, "ok_frac"), Verdict::Ok);
        assert_eq!(verdict(&rows, "gf.some_layer_metric"), Verdict::Info);
        assert_eq!(verdict(&rows, "host_speed"), Verdict::Info);
        assert!(all_correct(&suite(1.0, 1.0, 0, 1.0)));
        assert!(!all_correct(&suite(1.0, 1.0, 1, 1.0)));
        assert!(!all_correct(&Value::obj()));
    }

    #[test]
    fn any_new_failure_regresses_ok_frac_whatever_its_share() {
        // Three failed ops in a hundred thousand (all in one window,
        // say) move ok_frac by less than its bound and by nothing a
        // median of windows would show.
        let rows = compare(&suite(100.0, 50.0, 0, 1.0), &suite(100.0, 50.0, 3, 1.0));
        assert_eq!(verdict(&rows, "ok_frac"), Verdict::Regressed);
        assert_eq!(verdict(&rows, "goodput_mib_s"), Verdict::Ok);
        // No more failures than the base had: not this change's doing,
        // but the run is still not correct.
        let rows = compare(&suite(100.0, 50.0, 3, 1.0), &suite(100.0, 50.0, 3, 1.0));
        assert_eq!(verdict(&rows, "ok_frac"), Verdict::Regressed);
        let rows = compare(&suite(100.0, 50.0, 3, 1.0), &suite(100.0, 50.0, 0, 1.0));
        assert_eq!(verdict(&rows, "ok_frac"), Verdict::Ok);
    }

    #[test]
    fn hosts_too_unlike_are_flagged() {
        let rows = compare(&suite(100.0, 50.0, 0, 1.0), &suite(100.0, 50.0, 0, 0.7));
        assert_eq!(verdict(&rows, "host_speed"), Verdict::Unresolved);
        assert_eq!(verdict(&rows, "goodput_mib_s"), Verdict::Ok);
    }
}
