//! `stair serve`: host a sharded stair-net storage service.
//!
//! ```text
//! stair serve --dir ROOT --addr HOST:PORT [--shards K] [--code SPEC]
//!             [--symbol S] [--stripes T] [--workers W]
//! ```
//!
//! An empty root is initialized with `K` fresh shards (`--code`,
//! `--symbol`, `--stripes` pick their shape); a root that already holds
//! shards is reopened, in which case `--shards` must match what is on
//! disk and the shape flags are ignored. `--workers` bounds the requests
//! executing at once across all connections. Every failure — busy port, bad
//! root, mismatched shard count — is a clean error message and a
//! non-zero exit, never a panic.

use std::path::PathBuf;
use std::str::FromStr;

use stair_code::CodecSpec;
use stair_net::{Server, ServerConfig, ShardSet};
use stair_store::StoreOptions;

use crate::flags::{num_flag, parse, required};

/// Usage text for `stair serve`.
pub const SERVE_USAGE: &str = "stair serve --dir ROOT --addr HOST:PORT [--shards K] [--code SPEC]
                   [--symbol S] [--stripes T] [--workers W]
(new roots are initialized with K shards of the given shape; existing
 roots are reopened and --shards must match; --workers W bounds the
 requests executing at once, default 4)";

/// Runs `stair serve` with the flags in `args`, blocking until the
/// server is shut down.
pub fn run(args: &[String]) -> Result<(), String> {
    let flags = &parse(args, SERVE_USAGE)?;
    let dir = PathBuf::from(required(flags, "dir")?);
    let addr = required(flags, "addr")?;
    let shards = num_flag(flags, "shards", 4)?;
    let code = match flags.get("code") {
        Some(spec) => CodecSpec::from_str(spec).map_err(|e| e.to_string())?,
        None => CodecSpec::Stair {
            n: 8,
            r: 16,
            m: 2,
            e: vec![1, 2],
        },
    };
    let opts = StoreOptions {
        code,
        symbol: num_flag(flags, "symbol", 512)?,
        stripes: num_flag(flags, "stripes", 64)?,
    };
    if dir.exists() && !dir.is_dir() {
        return Err(format!("{} exists and is not a directory", dir.display()));
    }
    let set = ShardSet::open_or_create(&dir, shards, &opts).map_err(|e| e.to_string())?;
    let config = ServerConfig {
        workers: num_flag(flags, "workers", 4usize)?.max(1),
    };
    let server = Server::bind(addr, set, config).map_err(|e| e.to_string())?;
    let info = server.info();
    println!(
        "serving {} shard(s) of {} ({} bytes, {}-byte blocks) on {} with at most {} request(s) executing at once",
        info.shards,
        info.codec,
        info.capacity,
        info.block_size,
        server.local_addr(),
        config.workers
    );
    // Tests and scripts parse the line above to learn the bound port;
    // make sure it is out before the accept loop blocks.
    use std::io::Write;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| e.to_string())
}
