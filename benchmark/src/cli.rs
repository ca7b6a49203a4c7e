//! Command line: the contract form the driver calls
//! (`--workload W --seed N --seconds S --trace 0|1`, one JSON object on
//! the last line of stdout) and the `suite`, `aa` and `compare`
//! subcommands people call.

use std::path::PathBuf;

use crate::e2e::{self, Options};
use crate::env::Sizes;
use crate::json::Value;
use crate::ladder;
use crate::metrics::{Workload, END_TO_END, PER_LAYER};
use crate::report::{self, SuiteArgs};

const USAGE: &str = "\
usage:
  stair-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
                  [--smoke] [--out-dir DIR] [--report FILE]
      one workload; the last stdout line is the result as one JSON object
  stair-benchmark suite [--seed N] [--seconds S] [--trace 0|1] [--smoke]
                  [--out-dir DIR] [--report FILE]
      all four workloads (--trace 1: the per-layer run of each)
  stair-benchmark aa [--seed N] [--seconds S] [--smoke] [--out-dir DIR]
      the end-to-end suite twice back to back, then compared
  stair-benchmark compare A.json B.json
      B judged against base A; exits 1 if any pair regressed
  stair-benchmark manifest
      BENCHMARK.json as the tables in src/metrics.rs define it
workloads: seq_write_file degraded_read_file small_rw_tcp zipf_read_cache_tcp";

/// Default measured seconds: `run_seconds` of `BENCHMARK.json`.
const SECONDS: f64 = 20.0;
/// With `--smoke`: one-second windows.
const SMOKE_SECONDS: f64 = 5.5;
/// Set-ups per end-to-end run (their median is `setup_s`); one with
/// `--smoke`.
const SETUPS: usize = 3;

struct Args {
    command: Option<String>,
    files: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
    report: Option<PathBuf>,
}

fn parse(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        files: Vec::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        report: None,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |flag: &str, v: &str| format!("{flag}: cannot read `{v}`");
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| bad("--seed", &v))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| bad("--seconds", &v))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("--seconds", &v));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad("--trace", v)),
                }
            }
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")?),
            "--report" => args.report = Some(PathBuf::from(value("--report")?)),
            "-h" | "--help" => return Err(String::new()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            word if args.command.is_none() && args.workload.is_none() => {
                args.command = Some(word.to_string());
            }
            word => args.files.push(word.to_string()),
        }
    }
    Ok(args)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { SMOKE_SECONDS } else { SECONDS })
    }
}

fn one_workload(args: &Args, name: &str) -> Result<bool, String> {
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds(),
        sizes: if args.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        },
        setups: if args.smoke { 1 } else { SETUPS },
        out_dir: args.out_dir.clone(),
    };
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    let report = if args.trace {
        ladder::run(&opts)?
    } else {
        e2e::run(&opts)?
    };
    report.print_table();
    if let Some(path) = &args.report {
        report::write_report(path, &report.detail_json())?;
    }
    // The driver reads the last line of stdout.
    println!("{}", report.contract_json().render());
    Ok(report.correct)
}

fn suite_args(args: &Args, trace: bool) -> SuiteArgs {
    SuiteArgs {
        seed: args.seed,
        seconds: args.seconds(),
        trace,
        smoke: args.smoke,
        out_dir: args.out_dir.clone(),
    }
}

/// `BENCHMARK.json`, one entry per line, from the tables that also
/// drive the runs (`tests/selfcheck.rs` holds the committed file to
/// this).
fn manifest() -> String {
    let list = |entries: Vec<Value>| {
        let lines: Vec<String> = entries
            .iter()
            .map(|e| format!("    {}", e.render()))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let workloads = Workload::ALL
        .iter()
        .map(|w| Value::obj().with("name", w.name()).with("why", w.why()))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Value::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
                .with("bound", m.bound)
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Value::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}",
        SECONDS,
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

fn run(args: &Args) -> Result<bool, String> {
    match (args.command.as_deref(), &args.workload) {
        (None, Some(name)) => one_workload(args, name),
        (Some("suite"), None) => {
            let suite = report::run_suite(&suite_args(args, args.trace))?;
            let kind = if args.trace { "layers" } else { "suite" };
            let path = args
                .report
                .clone()
                .unwrap_or_else(|| args.out_dir.join(format!("{kind}.json")));
            report::write_report(&path, &suite)?;
            println!("# report: {}", path.display());
            Ok(report::all_correct(&suite))
        }
        (Some("aa"), None) => {
            let first = report::run_suite(&suite_args(args, false))?;
            let second = report::run_suite(&suite_args(args, false))?;
            report::write_report(&args.out_dir.join("aa-1.json"), &first)?;
            report::write_report(&args.out_dir.join("aa-2.json"), &second)?;
            let rows = report::compare(&first, &second);
            let regressed = report::print_rows(&rows);
            Ok(regressed == 0 && report::all_correct(&first) && report::all_correct(&second))
        }
        (Some("manifest"), None) => {
            println!("{}", manifest());
            Ok(true)
        }
        (Some("compare"), None) => {
            let [a, b] = args.files.as_slice() else {
                return Err("compare takes exactly two report files".into());
            };
            let rows = report::compare(
                &report::read_report(a.as_ref())?,
                &report::read_report(b.as_ref())?,
            );
            if rows.is_empty() {
                return Err("the two reports share no (metric, workload) pair".into());
            }
            Ok(report::print_rows(&rows) == 0)
        }
        _ => Err(String::new()),
    }
}

/// Runs the command line; returns the process exit code (0 only when
/// everything ran, verified, and — for `compare`/`aa` — nothing
/// regressed).
pub fn main(argv: Vec<String>) -> i32 {
    match parse(argv).and_then(|args| run(&args)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(msg) if msg.is_empty() => {
            eprintln!("{USAGE}");
            2
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            2
        }
    }
}
