//! `stair` — command-line tool for STAIR-coded file archives and the
//! stair-store engine.
//!
//! ```text
//! stair info    --n 8 --r 16 --m 2 --e 1,2
//! stair encode  --input FILE --out DIR [--n N --r R --m M --e E --symbol S]
//! stair verify  --dir DIR
//! stair repair  --dir DIR
//! stair extract --dir DIR --output FILE
//! stair corrupt --dir DIR (--device J | --device J --stripe I --sector K [--len L])
//! stair store   (init|status|write|read|fail|scrub|repair|inject) ...
//! stair serve   --dir ROOT --addr HOST:PORT [--shards K --code SPEC ...]
//! stair remote  (status|read|write|fail|scrub|repair|flush|metrics|trace|shutdown) --addr A ...
//! stair dev     (status|read|write|batch|fail|scrub|repair|flush|metrics|trace) --dev SPEC ...
//! ```
//!
//! `stair store init --code sd:6,4,1,2` (or `rs:n,r,m` / `stair:n,r,m,e`)
//! picks which erasure code protects the store. `stair serve` hosts a
//! sharded store over the stair-net protocol; `stair remote` is its
//! client. `stair dev` drives *any* backend through the unified
//! `BlockDevice` API — `--dev file:<dir>`, `shards:<root>?n=K`, or
//! `tcp:<addr>?lanes=L` — and is the single data path the `store` and
//! `remote` verbs alias into.

mod device_cmd;
mod flags;
mod remote_cmd;
mod serve_cmd;
mod status_json;
mod store_cmd;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use stair::{Config, StairCodec};
use stair_cli::{Archive, EncodeOptions};
use stair_reliability::storage_efficiency;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("store") {
        let Some((verb, flags)) = parse(&args[1..]) else {
            eprintln!("{}", store_cmd::STORE_USAGE);
            return ExitCode::FAILURE;
        };
        return match store_cmd::run(&verb, &flags) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("dev") {
        let Some((verb, flags)) = parse(&args[1..]) else {
            eprintln!("{}", device_cmd::DEV_USAGE);
            return ExitCode::FAILURE;
        };
        return match device_cmd::run(&verb, &flags) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("remote") {
        let Some((verb, flags)) = parse(&args[1..]) else {
            eprintln!("{}", remote_cmd::REMOTE_USAGE);
            return ExitCode::FAILURE;
        };
        return match remote_cmd::run(&verb, &flags) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("serve") {
        let Some((_, flags)) = parse(&args) else {
            eprintln!("{}", serve_cmd::SERVE_USAGE);
            return ExitCode::FAILURE;
        };
        return match serve_cmd::run(&flags) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some((cmd, flags)) = parse(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "info" => cmd_info(&flags),
        "encode" => cmd_encode(&flags),
        "verify" => cmd_verify(&flags),
        "repair" => cmd_repair(&flags),
        "extract" => cmd_extract(&flags),
        "corrupt" => cmd_corrupt(&flags),
        _ => {
            eprintln!("unknown command `{cmd}`\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  stair info    --n N --r R --m M --e E
  stair encode  --input FILE --out DIR [--n N --r R --m M --e E --symbol S]
  stair verify  --dir DIR
  stair repair  --dir DIR
  stair extract --dir DIR --output FILE
  stair corrupt --dir DIR --device J [--stripe I --sector K --len L]
  stair store   (init|status|write|read|fail|scrub|repair|inject) --dir DIR ...
  stair serve   --dir ROOT --addr HOST:PORT [--shards K --code SPEC ...]
  stair remote  (status|read|write|fail|scrub|repair|flush|metrics|trace|shutdown) --addr A ...
  stair dev     (status|read|write|batch|fail|scrub|repair|flush|metrics|trace) --dev SPEC ...";

use flags::{dir_flag, usize_flag, Flags};

/// Parses `<cmd> [--key value | --flag]...`. A `--key` followed by
/// another `--key` (or by nothing) is a valueless flag and maps to the
/// empty string, so presence tests like `--json` work.
fn parse(args: &[String]) -> Option<(String, Flags)> {
    let mut it = args.iter().peekable();
    let cmd = it.next()?.clone();
    let mut flags = HashMap::new();
    while let Some(key) = it.next() {
        let key = key.strip_prefix("--")?;
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
            _ => String::new(),
        };
        flags.insert(key.to_string(), value);
    }
    Some((cmd, flags))
}

fn e_flag(flags: &Flags, default: &[usize]) -> Result<Vec<usize>, String> {
    match flags.get("e") {
        None => Ok(default.to_vec()),
        Some(v) => v
            .split(',')
            .map(|x| {
                x.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad e entry `{x}`"))
            })
            .collect(),
    }
}

fn cmd_info(flags: &Flags) -> Result<(), String> {
    let n = usize_flag(flags, "n", 8)?;
    let r = usize_flag(flags, "r", 16)?;
    let m = usize_flag(flags, "m", 2)?;
    let e = e_flag(flags, &[1, 2])?;
    let config = Config::new(n, r, m, &e).map_err(|e| e.to_string())?;
    let codec: StairCodec = StairCodec::new(config.clone()).map_err(|e| e.to_string())?;
    println!("STAIR(n={n}, r={r}, m={m}, e={e:?})");
    println!("  m' = {}, s = {}", config.m_prime(), config.s());
    println!("  data sectors / stripe   : {}", config.data_symbols());
    println!(
        "  parity sectors / stripe : {}",
        n * r - config.data_symbols()
    );
    println!(
        "  storage efficiency      : {:.4}",
        storage_efficiency(n, r, m, config.s())
    );
    let c = codec.mult_xor_counts();
    println!(
        "  Mult_XORs (up/down/std) : {}/{}/{} -> {:?}",
        c.upstairs,
        c.downstairs,
        c.standard,
        codec.best_method()
    );
    println!(
        "  avg update penalty      : {:.2}",
        codec.relations().update_penalty().average
    );
    println!(
        "  byte kernels            : gf8 {}, fletcher32 {}",
        stair_gf::gf8_tier(),
        stair_gf::fletcher32_tier()
    );
    Ok(())
}

fn cmd_encode(flags: &Flags) -> Result<(), String> {
    let input = flags
        .get("input")
        .map(PathBuf::from)
        .ok_or_else(|| "--input is required".to_string())?;
    let out = flags
        .get("out")
        .map(PathBuf::from)
        .ok_or_else(|| "--out is required".to_string())?;
    let opts = EncodeOptions {
        n: usize_flag(flags, "n", 8)?,
        r: usize_flag(flags, "r", 16)?,
        m: usize_flag(flags, "m", 2)?,
        e: e_flag(flags, &[1, 2])?,
        symbol: usize_flag(flags, "symbol", 512)?,
    };
    Archive::encode_file(&input, &out, &opts).map_err(|e| e.to_string())?;
    let archive = Archive::open(&out).map_err(|e| e.to_string())?;
    println!(
        "encoded {} bytes into {} stripes across {} chunk files at {}",
        archive.manifest().file_len,
        archive.manifest().stripes,
        archive.manifest().n,
        out.display()
    );
    Ok(())
}

fn cmd_verify(flags: &Flags) -> Result<(), String> {
    let archive = Archive::open(&dir_flag(flags)?).map_err(|e| e.to_string())?;
    let damaged = archive.verify().map_err(|e| e.to_string())?;
    if damaged == 0 {
        println!("archive healthy");
        Ok(())
    } else {
        println!("{damaged} damaged sectors detected (run `stair repair`)");
        Ok(())
    }
}

fn cmd_repair(flags: &Flags) -> Result<(), String> {
    let archive = Archive::open(&dir_flag(flags)?).map_err(|e| e.to_string())?;
    let outcome = archive.repair().map_err(|e| e.to_string())?;
    println!(
        "rebuilt {} device(s), repaired {} latent sector(s)",
        outcome.devices_rebuilt.len(),
        outcome.sectors_repaired.len()
    );
    Ok(())
}

fn cmd_extract(flags: &Flags) -> Result<(), String> {
    let archive = Archive::open(&dir_flag(flags)?).map_err(|e| e.to_string())?;
    let output = flags
        .get("output")
        .map(PathBuf::from)
        .ok_or_else(|| "--output is required".to_string())?;
    let payload = archive.extract().map_err(|e| e.to_string())?;
    std::fs::write(&output, &payload).map_err(|e| e.to_string())?;
    println!("extracted {} bytes to {}", payload.len(), output.display());
    Ok(())
}

fn cmd_corrupt(flags: &Flags) -> Result<(), String> {
    let archive = Archive::open(&dir_flag(flags)?).map_err(|e| e.to_string())?;
    let device = usize_flag(flags, "device", usize::MAX)?;
    if device == usize::MAX {
        return Err("--device is required".into());
    }
    if flags.contains_key("stripe") || flags.contains_key("sector") {
        let stripe = usize_flag(flags, "stripe", 0)?;
        let sector = usize_flag(flags, "sector", 0)?;
        let len = usize_flag(flags, "len", 1)?;
        archive
            .corrupt_sectors(device, stripe, sector, len)
            .map_err(|e| e.to_string())?;
        println!("corrupted {len} sector(s) in device {device}, stripe {stripe}");
    } else {
        archive.fail_device(device).map_err(|e| e.to_string())?;
        println!("removed chunk file for device {device}");
    }
    Ok(())
}
