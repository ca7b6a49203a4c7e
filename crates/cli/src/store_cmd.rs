//! The `stair store` subcommand family: a CLI frontend for the
//! [`stair_store::StripeStore`] engine.
//!
//! ```text
//! stair store init   --dir DIR --code SPEC [--symbol S --stripes T]
//! stair store status --dir DIR [--json]
//! stair store write  --dir DIR --input FILE [--offset BYTES]
//! stair store read   --dir DIR --output FILE [--offset BYTES] [--len BYTES]
//! stair store fail   --dir DIR --device J [--stripe I --sector K --len L]
//! stair store scrub  --dir DIR [--threads T] [--json]
//! stair store repair --dir DIR [--threads T] [--json]
//! stair store flush  --dir DIR
//! stair store recover --dir DIR [--json]
//! stair store inject --dir DIR --p-sec P [--seed S] [--burst B1,ALPHA]
//! ```
//!
//! `--code` takes a codec spec (`stair:n,r,m,e1-e2-...`, `sd:n,r,m,s`,
//! or `rs:n,r,m`), so one store engine benchmarks every code family the
//! paper compares.
//!
//! Only `init`, `inject`, and `recover` are store-specific; every
//! data-path verb is a thin alias for `stair dev … --dev file:DIR` (see
//! [`crate::device_cmd`]), so the local, sharded, and remote backends
//! share one implementation.
//!
//! `recover` is the operator's post-crash front door: opening the store
//! replays any journal tail left by an unclean shutdown, then a scrub
//! verifies every sector, then a clean close checkpoints the journal —
//! so a successful `recover` leaves the store provably consistent and
//! marked `clean_shutdown`.

use std::str::FromStr;

use stair_code::CodecSpec;
use stair_device::DeviceSpec;
use stair_net::json::Json;
use stair_reliability::{BurstModel, FailureInjector, SectorModel};
use stair_store::{StoreOptions, StripeStore};

use crate::flags::{dir_flag, u64_flag, usize_flag, Flags};

/// Usage text for the `store` family.
pub const STORE_USAGE: &str = "usage:
  stair store init   --dir DIR --code SPEC [--symbol S --stripes T]
                     (SPEC: stair:n,r,m,e1-e2-... | sd:n,r,m,s | rs:n,r,m)
  stair store status --dir DIR [--json]
  stair store write  --dir DIR --input FILE [--offset BYTES]
  stair store read   --dir DIR --output FILE [--offset BYTES] [--len BYTES]
  stair store fail   --dir DIR --device J [--stripe I --sector K --len L]
  stair store scrub  --dir DIR [--threads T] [--json]
  stair store repair --dir DIR [--threads T] [--json]
  stair store flush  --dir DIR
  stair store recover --dir DIR [--json] [--threads T]
  stair store inject --dir DIR --p-sec P [--seed S] [--burst B1,ALPHA]";

/// Dispatches a `stair store <verb> ...` invocation.
pub fn run(verb: &str, flags: &Flags) -> Result<(), String> {
    match verb {
        "init" => cmd_init(flags),
        "inject" => cmd_inject(flags),
        "recover" => cmd_recover(flags),
        "status" | "read" | "write" | "fail" | "scrub" | "repair" | "flush" => {
            let spec = DeviceSpec::File {
                dir: dir_flag(flags)?,
            };
            crate::device_cmd::run_with_spec(verb, flags, &spec, "stair store")
        }
        _ => Err(format!("unknown store command `{verb}`\n{STORE_USAGE}")),
    }
}

fn open(flags: &Flags) -> Result<StripeStore, String> {
    StripeStore::open(&dir_flag(flags)?).map_err(|e| e.to_string())
}

fn cmd_init(flags: &Flags) -> Result<(), String> {
    let spec = flags
        .get("code")
        .ok_or_else(|| format!("--code is required\n{STORE_USAGE}"))?;
    let opts = StoreOptions {
        code: CodecSpec::from_str(spec).map_err(|e| e.to_string())?,
        symbol: usize_flag(flags, "symbol", 512)?,
        stripes: usize_flag(flags, "stripes", 64)?,
    };
    let dir = dir_flag(flags)?;
    let store = StripeStore::create(&dir, &opts).map_err(|e| e.to_string())?;
    println!(
        "initialized {} store at {}: {} stripes x {} blocks x {} bytes = {} bytes across {} devices",
        store.codec_spec(),
        dir.display(),
        store.stripe_count(),
        store.blocks_per_stripe(),
        store.block_size(),
        store.capacity(),
        store.geometry().n
    );
    Ok(())
}

/// `stair store recover`: open (replaying any journal tail a crash
/// left), scrub every sector, and close cleanly (checkpointing the
/// journal). Exits non-zero when the scrub still finds damage — then
/// the journal alone was not enough and `stair store repair` is needed.
fn cmd_recover(flags: &Flags) -> Result<(), String> {
    let store = open(flags)?;
    let status = store.status();
    let threads = usize_flag(flags, "threads", 4)?;
    let outcome = store.scrub(threads).map_err(|e| e.to_string())?;
    // A clean close writes `clean_shutdown 1`; do it before reporting
    // so the verdict below describes the on-disk state we leave behind.
    drop(store);
    if flags.contains_key("json") {
        let json = Json::obj([
            ("op", Json::str("recover")),
            ("was_clean_shutdown", Json::Bool(status.clean_shutdown)),
            ("replayed_records", Json::int64(status.replayed_records)),
            (
                "scrub",
                Json::obj([
                    ("stripes_scanned", Json::int(outcome.stripes_scanned)),
                    ("sectors_verified", Json::int(outcome.sectors_verified)),
                    ("mismatches", Json::int(outcome.mismatches.len())),
                    (
                        "unavailable_devices",
                        Json::arr(outcome.unavailable_devices.iter().map(|&d| Json::int(d))),
                    ),
                    ("records_cleared", Json::int(outcome.records_cleared)),
                ]),
            ),
            ("clean", Json::Bool(outcome.clean())),
        ]);
        print!("{}", json.to_text());
    } else {
        if status.clean_shutdown {
            println!("previous shutdown was clean: nothing to replay");
        } else {
            println!(
                "unclean shutdown detected: replayed {} journal record(s)",
                status.replayed_records
            );
        }
        println!(
            "scrubbed {} stripes, verified {} sectors: {} mismatches, {} unavailable device(s)",
            outcome.stripes_scanned,
            outcome.sectors_verified,
            outcome.mismatches.len(),
            outcome.unavailable_devices.len()
        );
    }
    if outcome.clean() {
        if !flags.contains_key("json") {
            println!("store consistent; journal checkpointed");
        }
        Ok(())
    } else {
        Err("scrub found damage the journal could not cover: run `stair store repair`".into())
    }
}

fn cmd_inject(flags: &Flags) -> Result<(), String> {
    let store = open(flags)?;
    let p_sec: f64 = flags
        .get("p-sec")
        .ok_or_else(|| "--p-sec is required".to_string())?
        .parse()
        .map_err(|_| "--p-sec expects a probability".to_string())?;
    let seed = u64_flag(flags, "seed", 42)?;
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
