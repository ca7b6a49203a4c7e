//! The end-to-end run of one workload: set-up (timed, several times),
//! one discarded warm-up, five timed windows with tracing off, and the
//! seven metrics a user of the system would see.

use std::path::{Path, PathBuf};
use std::time::Instant;

use stair_device::BlockDevice;

use crate::calib;
use crate::engine::{pattern_of, run_windows, Client, Observer, Plan, Window};
use crate::env::{setup, Env, Sizes, CLIENTS};
use crate::json::Value;
use crate::metrics::{Workload, END_TO_END};
use crate::procfs;
use crate::stats::{iqr_frac, median, supported_percentile};

/// What to run and how long.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measured seconds (warm-up + windows), excluding set-up.
    pub seconds: f64,
    pub sizes: Sizes,
    /// How many times set-up runs (the last environment is measured).
    pub setups: usize,
    /// Scratch root; environments live in fresh subdirectories.
    pub out_dir: PathBuf,
}

/// One metric of one run: the value per window (or per set-up) and
/// the median the run reports.
#[derive(Clone, Debug)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub values: Vec<f64>,
    /// Evidence beside the number (percentile actually used, …).
    pub note: String,
}

impl Measured {
    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    pub fn spread(&self) -> f64 {
        iqr_frac(&self.values)
    }
}

/// The outcome of one run, end-to-end or per-layer.
#[derive(Clone, Debug)]
pub struct Report {
    pub workload: Workload,
    pub metrics: Vec<Measured>,
    pub attempted: u64,
    pub failed: u64,
    /// Every output checked was right (no failed op, every probe's
    /// result verified).
    pub correct: bool,
    /// The host's speed in each window of an end-to-end run as a share
    /// of the reference (see [`calib`]); empty for a layers run, whose
    /// numbers are as measured.
    pub host_speed: Vec<f64>,
}

impl Report {
    /// The one-line result the driver reads.
    pub fn contract_json(&self) -> Value {
        let mut metrics = Value::obj();
        for m in &self.metrics {
            metrics = metrics.with(
                m.name,
                Value::obj().with("value", m.median()).with("unit", m.unit),
            );
        }
        Value::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }

    /// The detailed form `compare` reads: medians with their spread
    /// and the per-window values behind them.
    pub fn detail_json(&self) -> Value {
        let mut metrics = Value::obj();
        for m in &self.metrics {
            metrics = metrics.with(
                m.name,
                Value::obj()
                    .with("unit", m.unit)
                    .with("median", m.median())
                    .with("iqr_frac", m.spread())
                    .with(
                        "values",
                        m.values.iter().map(|&v| Value::Num(v)).collect::<Vec<_>>(),
                    )
                    .with("note", m.note.as_str()),
            );
        }
        let speeds: Vec<Value> = self.host_speed.iter().map(|&v| Value::Num(v)).collect();
        Value::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("host_speed", speeds)
            .with("metrics", metrics)
    }

    /// Every metric by name with its unit, for people.
    pub fn print_table(&self) {
        println!(
            "== {} (attempted {}, failed {})",
            self.workload.name(),
            self.attempted,
            self.failed
        );
        for m in &self.metrics {
            println!(
                "{:<42} {:>14.4} {:<6} iqr/median {:>5.1}%  {}",
                m.name,
                m.median(),
                m.unit,
                m.spread() * 100.0,
                m.note
            );
        }
        if !self.host_speed.is_empty() {
            println!(
                "{:<42} {:>14.4} {:<6} iqr/median {:>5.1}%  reference kernel rate over nominal; not a metric of the program",
                "host_speed",
                median(&self.host_speed),
                "ratio",
                iqr_frac(&self.host_speed) * 100.0
            );
        }
    }
}

/// A scratch directory name no other set-up of this process (or of a
/// concurrent one) uses.
pub fn scratch_dir(out_dir: &Path, tag: &str, n: usize) -> PathBuf {
    out_dir.join(format!("{tag}-{}-{n}", std::process::id()))
}

/// Flushes every device, so that what follows competes with no
/// write-back of the program's; returns how many flushes failed.
fn quiesce(devices: &[&dyn BlockDevice]) -> u64 {
    devices.iter().map(|d| u64::from(d.flush().is_err())).sum()
}

/// One set-up's wall time and the host speed it ran at.
#[derive(Clone, Copy, Debug)]
pub struct SetupTime {
    pub secs: f64,
    pub speed: f64,
}

/// Runs set-up `opts.setups` times, returning the last environment and
/// every set-up's time. Tearing an environment down is not part of
/// setting one up, so it is not timed.
pub fn timed_setups(opts: &Options) -> Result<(Env, Vec<SetupTime>), String> {
    let mut times = Vec::with_capacity(opts.setups);
    let mut env = None;
    let mut before = calib::speed(CLIENTS);
    for n in 0..opts.setups.max(1) {
        drop(env.take());
        let dir = scratch_dir(&opts.out_dir, opts.workload.name(), n);
        let begin = Instant::now();
        let made = setup(opts.workload, opts.sizes, opts.seed, &dir)?;
        let secs = begin.elapsed().as_secs_f64();
        let devices: Vec<&dyn BlockDevice> = made.devices.iter().map(|d| &**d).collect();
        if quiesce(&devices) > 0 {
            return Err("flush after set-up failed".into());
        }
        let after = calib::speed(CLIENTS);
        times.push(SetupTime {
            secs,
            speed: (before + after) / 2.0,
        });
        before = after;
        env = Some(made);
    }
    Ok((env.expect("at least one set-up ran"), times))
}

/// One client per thread region of `env`, on `workload`'s pattern.
pub fn clients_for(env: &Env, workload: Workload, seed: u64) -> Vec<Client> {
    env.regions
        .iter()
        .enumerate()
        .map(|(t, region)| {
            Client::new(
                pattern_of(workload),
                seed,
                t as u64,
                region.clone(),
                env.blocks_per_stripe,
                env.block_size,
            )
        })
        .collect()
}

/// Between windows, with the clients parked: flush the devices, then
/// sample the host's speed.
struct HostSpeed<'a> {
    devices: &'a [&'a dyn BlockDevice],
    samples: Vec<f64>,
    failed_flushes: u64,
}

impl Observer for HostSpeed<'_> {
    fn idle(&mut self) {
        self.failed_flushes += quiesce(self.devices);
        self.samples.push(calib::speed(CLIENTS));
    }
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let (env, setup_times) = timed_setups(opts)?;
    let mut clients = clients_for(&env, opts.workload, opts.seed);
    let devices: Vec<&dyn BlockDevice> = env.devices.iter().map(|d| &**d).collect();
    let plan = Plan::end_to_end(opts.seconds);
    let mut host = HostSpeed {
        devices: &devices,
        samples: Vec::with_capacity(plan.windows + 1),
        failed_flushes: 0,
    };
    let windows = run_windows(&mut clients, &devices, &plan, &mut host);
    if let Some(k) = windows.iter().position(|w| w.attempted == 0) {
        return Err(format!(
            "no submission completed in window {k} of {:?}; raise --seconds",
            plan.window
        ));
    }

    // One tail percentile for the run: the highest every window
    // supports, evaluated in each.
    let tail_p = windows
        .iter()
        .map(|w| supported_percentile(w.samples, 0.99))
        .fold(f64::INFINITY, f64::min);
    let tails_us: Vec<f64> = windows
        .iter()
        .map(|w| w.latency_ns_at(tail_p).map(|ns| ns as f64 / 1e3))
        .collect::<Option<_>>()
        .ok_or("the windows' sample counts are too uneven to share a tail percentile")?;
    let counts: Vec<String> = windows.iter().map(|w| w.samples.to_string()).collect();

    // A window's host speed is the mean of the samples at its two
    // edges; rates are divided by it, durations multiplied (see
    // `calib`).
    let host_speed: Vec<f64> = host
        .samples
        .windows(2)
        .map(|s| (s[0] + s[1]) / 2.0)
        .collect();
    let per_window = |f: &dyn Fn(&Window, f64) -> f64| -> Vec<f64> {
        windows
            .iter()
            .zip(&host_speed)
            .map(|(w, &s)| f(w, s))
            .collect()
    };
    // A flush that failed is an op that failed.
    let attempted: u64 = windows.iter().map(|w| w.attempted).sum::<u64>() + host.failed_flushes;
    let failed: u64 = windows.iter().map(|w| w.failed).sum::<u64>() + host.failed_flushes;
    let value_of = |name: &str| -> (Vec<f64>, String) {
        match name {
            "setup_s" => (
                setup_times.iter().map(|t| t.secs * t.speed).collect(),
                format!("median of {} set-ups", setup_times.len()),
            ),
            "goodput_mib_s" => (
                per_window(&|w, speed| w.goodput_mib_s() / speed),
                "verified payload, read + written".into(),
            ),
            "lat_p50_us" => (
                per_window(&|w, speed| w.p50_us * speed),
                "per submission".into(),
            ),
            "lat_p99_us" => (
                tails_us.iter().zip(&host_speed).map(|(t, s)| t * s).collect(),
                format!(
                    "p{:.2} in every window: the highest percentile with 10 samples beyond it in each (n = {})",
                    tail_p * 100.0,
                    counts.join("/")
                ),
            ),
            "cpu_s_per_gib" => (
                per_window(&|w, speed| w.cpu_s_per_gib() * speed),
                "process user+sys, generator and verifier included".into(),
            ),
            "peak_rss_mib" => (vec![procfs::peak_rss_mib()], "VmHWM at end of run".into()),
            "ok_frac" => (
                vec![1.0 - failed as f64 / attempted as f64],
                "1 - failed / attempted over the whole run".into(),
            ),
            other => unreachable!("no rule for end-to-end metric {other}"),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let (values, note) = value_of(m.name);
            Measured {
                name: m.name,
                unit: m.unit,
                values,
                note,
            }
        })
        .collect();
    Ok(Report {
        workload: opts.workload,
        metrics,
        attempted,
        failed,
        correct: failed == 0,
        host_speed,
    })
}
