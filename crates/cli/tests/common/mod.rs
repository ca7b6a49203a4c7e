//! Helpers shared by the CLI integration tests.
//!
//! Each integration-test target compiles its own copy of this module
//! and uses a different subset of it, so unused-item lints are off.
#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// Path of the `stair` binary next to the test executable's directory.
pub fn bin() -> PathBuf {
    let mut path = std::env::current_exe().expect("test exe path");
    path.pop(); // deps/
    path.pop(); // debug/
    path.push(format!("stair{}", std::env::consts::EXE_SUFFIX));
    path
}

/// Runs the `stair` binary, returning (success, stdout + stderr).
pub fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("spawn stair binary");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

/// Runs the `stair` binary, returning (exit code, stderr).
pub fn exit_code(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("spawn stair binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A spawned `stair serve`. A test that fails before it shuts the
/// server down would leave the process running; dropping this kills it.
pub struct Served(pub Child);

impl Drop for Served {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

/// Spawns `stair serve` over `dir` on an ephemeral port (2 shards of
/// `stair:8,4,2,1-1-2`, 128-byte symbols, 8 stripes, plus `extra`
/// flags) and parses the bound address from its first stdout line.
pub fn spawn_server(dir: &str, extra: &[&str]) -> (Served, String) {
    let mut args = vec![
        "serve",
        "--dir",
        dir,
        "--addr",
        "127.0.0.1:0",
        "--shards",
        "2",
        "--code",
        "stair:8,4,2,1-1-2",
        "--symbol",
        "128",
        "--stripes",
        "8",
    ];
    args.extend_from_slice(extra);
    let mut child = Command::new(bin())
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn server");
    let stdout = child.stdout.as_mut().expect("server stdout");
    let mut first = String::new();
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("read serve banner");
    let addr = first
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split(" with ").next())
        .unwrap_or_else(|| panic!("no address in banner: {first:?}"))
        .trim()
        .to_string();
    (Served(child), addr)
}

/// Runs `stair dev init --dev SPEC --code CODE --symbol S --stripes T`,
/// asserting success; returns the output.
pub fn init(dev: &str, code: &str, symbol: &str, stripes: &str) -> String {
    let (ok, out) = run(&[
        "dev",
        "init",
        "--dev",
        dev,
        "--code",
        code,
        "--symbol",
        symbol,
        "--stripes",
        stripes,
    ]);
    assert!(ok, "init {dev}: {out}");
    out
}

/// Stops the server at `addr` with `stair dev shutdown` and asserts
/// it exits successfully.
pub fn shutdown(mut server: Served, addr: &str) {
    let (ok, out) = run(&["dev", "shutdown", "--dev", &format!("tcp:{addr}")]);
    assert!(ok, "shutdown: {out}");
    assert!(server.0.wait().expect("server wait").success());
}

/// The `stair dev` verb table as the binary prints it: one
/// `(verb, usage)` per `  stair dev VERB USAGE` line of the usage text.
pub fn dev_verbs() -> Vec<(String, String)> {
    let (ok, out) = run(&["dev"]);
    assert!(!ok, "`stair dev` alone must fail with the usage text");
    let verbs: Vec<(String, String)> = out
        .lines()
        .filter_map(|line| line.strip_prefix("  stair dev "))
        .filter_map(|rest| rest.split_once(' '))
        .map(|(verb, usage)| (verb.to_string(), usage.trim().to_string()))
        .collect();
    assert!(!verbs.is_empty(), "no verbs in the usage text: {out}");
    verbs
}

/// Extracts the ordered key sequence of a compact JSON document (no
/// escaped quotes — true for everything the `stair` CLI emits).
pub fn key_shape(doc: &str) -> Vec<String> {
    doc.match_indices('"')
        .collect::<Vec<_>>()
        .chunks(2)
        .filter_map(|pair| match pair {
            [(open, _), (close, _)] if doc[*close..].starts_with("\":") => {
                Some(doc[open + 1..*close].to_string())
            }
            _ => None,
        })
        .collect()
}

/// Reduces a unified-status key sequence to top-level keys plus ONE
/// per-shard block, asserting all shard blocks within the document are
/// identical.
fn canonical_status_shape(doc: &str) -> Vec<String> {
    let keys = key_shape(doc);
    let Some(first) = keys.iter().position(|k| k == "codec") else {
        return keys;
    };
    let shard_len = keys[first + 1..]
        .iter()
        .position(|k| k == "codec")
        .map_or(keys.len() - first, |gap| gap + 1);
    let (top, shards) = keys.split_at(first);
    let blocks: Vec<_> = shards.chunks(shard_len).collect();
    assert!(
        blocks.iter().all(|b| *b == blocks[0]),
        "shard blocks differ within one document: {keys:?}"
    );
    let mut out = top.to_vec();
    out.extend_from_slice(blocks[0]);
    out
}

/// Asserts two JSON documents have the identical ordered key sequence
/// — the shape check for backend-independent outputs like `stair dev
/// batch` results.
pub fn assert_same_key_shape(a: &str, b: &str) {
    assert_eq!(
        key_shape(a),
        key_shape(b),
        "JSON key shapes differ:\n{a}\n{b}"
    );
}

/// Asserts two unified device-status JSON documents have the identical
/// key shape, independent of how many shards each backend reports.
pub fn assert_same_status_shape(a: &str, b: &str) {
    assert_eq!(
        canonical_status_shape(a),
        canonical_status_shape(b),
        "status JSON shapes differ:\n{a}\n{b}"
    );
}
