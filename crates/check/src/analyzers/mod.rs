//! The analyzers. Each submodule exports
//! `run(ws: &Workspace, out: &mut Vec<Finding>)` and appends findings
//! for one lint family.

pub mod counters;
pub mod doc_drift;
pub mod lock_poison;
pub mod persist_ordering;
pub mod spans;
pub mod wire;

use crate::workspace::Workspace;

/// Runs every analyzer over the workspace.
pub fn run_all(ws: &Workspace, out: &mut Vec<crate::findings::Finding>) {
    lock_poison::run(ws, out);
    wire::run(ws, out);
    doc_drift::run(ws, out);
    counters::run(ws, out);
    spans::run(ws, out);
    persist_ordering::run(ws, out);
}
