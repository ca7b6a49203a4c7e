//! The stair-check driver binary.
//!
//! Usage: `stair-check [--list] [<workspace-root>]`
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use stair_check::findings::ALL_LINTS;
use stair_check::run;

const USAGE: &str = "\
stair-check: static analysis for the stair workspace

USAGE:
    stair-check [OPTIONS] [<workspace-root>]   (default root: .)

OPTIONS:
    --list               list lints and exit
    -h, --help           this text
";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--list" => {
                for l in ALL_LINTS {
                    println!("{:<20} {}", l.id(), l.describe());
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if a.starts_with('-') => {
                eprintln!("error: unknown flag {a}\n\n{USAGE}");
                return ExitCode::from(2);
            }
            _ if root.is_none() => root = Some(a.into()),
            _ => {
                eprintln!("error: more than one root given\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    match run(&root.unwrap_or_else(|| PathBuf::from("."))) {
        Ok(report) => {
            print!("{}", report.render_human());
            ExitCode::from(report.exit_code() as u8)
        }
        Err(msg) => {
            eprintln!("stair-check: error: {msg}");
            ExitCode::from(2)
        }
    }
}
