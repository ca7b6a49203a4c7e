//! The analyzers. Each submodule exports
//! `run(ws: &Workspace, out: &mut Vec<Finding>)` and appends findings
//! for one lint family; the driver filters by enabled lints afterward.

pub mod counters;
pub mod doc_drift;
pub mod error_conv;
pub mod lock_poison;
pub mod no_panic;
pub mod persist_ordering;
pub mod spans;
pub mod unsafe_confined;
pub mod wire;

use crate::workspace::Workspace;

/// Library crates under the no-panic policy (ISSUE 7 zone list).
pub const PANIC_FREE_CRATES: &[&str] = &["code", "store", "net", "device", "obs", "gf", "cache"];

/// Runs every analyzer over the workspace.
pub fn run_all(ws: &Workspace, out: &mut Vec<crate::findings::Finding>) {
    lock_poison::run(ws, out);
    no_panic::run(ws, out);
    wire::run(ws, out);
    error_conv::run(ws, out);
    doc_drift::run(ws, out);
    counters::run(ws, out);
    spans::run(ws, out);
    persist_ordering::run(ws, out);
    unsafe_confined::run(ws, out);
}
