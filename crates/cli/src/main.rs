//! `stair` — the command-line front end of the STAIR-coded stripe store.
//!
//! ```text
//! stair info  [--code stair:n,r,m,e1-e2-...]
//! stair serve --dir ROOT --addr HOST:PORT [--shards K --code SPEC ...]
//! stair dev   <verb> --dev SPEC ...
//! ```
//!
//! `stair dev` is the one data surface: it creates, drives, damages and
//! repairs *any* backend through the unified `BlockDevice` API —
//! `--dev file:<dir>`, `shards:<root>?n=K`, `tcp:<addr>?lanes=L` or
//! `cache:<inner>` — with its verbs listed in one table
//! (`device_cmd::VERBS`). `stair serve` hosts a sharded store over the
//! stair-net protocol for `tcp:` clients; `stair info` describes a
//! STAIR code and names the byte kernels this CPU runs.

mod device_cmd;
mod flags;
mod serve_cmd;
mod status_json;

use std::process::ExitCode;
use std::str::FromStr;

use stair::{Config, StairCodec};
use stair_code::CodecSpec;
use stair_reliability::storage_efficiency;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("dev") => device_cmd::run(rest),
        Some("serve") => serve_cmd::run(rest),
        Some("info") => cmd_info(rest),
        Some(cmd) => Err(format!("unknown command `{cmd}`\n{USAGE}")),
        None => Err(format!("no command given\n{USAGE}")),
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
  stair info  [--code stair:n,r,m,e1-e2-...]
  stair serve --dir ROOT --addr HOST:PORT [--shards K --code SPEC ...]
  stair dev   <verb> --dev SPEC ...   (`stair dev` alone lists the verbs)";

const INFO_USAGE: &str = "stair info [--code stair:n,r,m,e1-e2-...]";

fn cmd_info(args: &[String]) -> Result<(), String> {
    let flags = flags::parse(args, INFO_USAGE)?;
    let spec = flags.get("code").map_or("stair:8,16,2,1-2", String::as_str);
    let CodecSpec::Stair { n, r, m, e } = CodecSpec::from_str(spec).map_err(|e| e.to_string())?
    else {
        return Err(format!(
            "`stair info` describes STAIR codes; `{spec}` is not a stair: spec"
        ));
    };
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
