//! Li & Lee's evaluation as one figure table.
//!
//! ```text
//! paper                    list the figures
//! paper <name>             print one figure at full scale (stdout) and
//!                          its claims' verdicts (stderr)
//! paper --check [name...]  run the figures (default: all) at the reduced
//!                          scale and evaluate every claim; exit 1 if one
//!                          that is not pending fails
//! ```

use std::process::ExitCode;

use stair_bench::{figure, Entry, Scale, FIGURES};

const USAGE: &str = "usage: paper [<name> | --check [<name>...]]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = args.iter().map(String::as_str).collect();
    match names.as_slice() {
        [] => {
            for e in FIGURES {
                println!("{:<8} {}", e.name, e.artifact);
            }
            ExitCode::SUCCESS
        }
        ["--check", rest @ ..] => match entries(rest) {
            Ok(entries) => check(&entries),
            Err(msg) => fail(&msg),
        },
        [name] if !name.starts_with('-') => match entries(&[name]) {
            Ok(entries) => {
                let fig = (entries[0].run)(Scale::Full);
                print!("{}", fig.render());
                for v in fig.verdicts() {
                    eprintln!("{v}");
                }
                ExitCode::SUCCESS
            }
            Err(msg) => fail(&msg),
        },
        _ => fail(USAGE),
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

/// The named entries, or all of them when `names` is empty.
fn entries(names: &[&str]) -> Result<Vec<&'static Entry>, String> {
    if names.is_empty() {
        return Ok(FIGURES.iter().collect());
    }
    names
        .iter()
        .map(|n| figure(n).ok_or_else(|| format!("no figure `{n}`; `paper` lists them")))
        .collect()
}

/// Runs each entry at [`Scale::Check`] and prints every claim's verdict,
/// then the pending ones again with what they wait on.
fn check(entries: &[&Entry]) -> ExitCode {
    let (mut held, mut failed, mut pending) = (0, 0, Vec::new());
    for e in entries {
        let fig = (e.run)(Scale::Check);
        println!("{}  {}", e.name, e.artifact);
        for v in fig.verdicts() {
            println!("{v}");
            match &v.claim.pending {
                Some(item) => pending.push(format!("{}  {item}: {}", e.name, v.claim.says)),
                None if v.fails() => failed += 1,
                None => held += 1,
            }
        }
    }
    println!("\npending claims:");
    for p in &pending {
        println!("  {p}");
    }
    println!("\n{held} hold, {failed} fail, {} pending", pending.len());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
