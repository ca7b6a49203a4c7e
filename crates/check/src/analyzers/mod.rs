//! The analyzers. Each submodule exports
//! `run(ws: &Workspace, out: &mut Vec<Finding>)` and appends findings
//! for one lint family.

pub mod spans;
pub mod wire;

use crate::workspace::Workspace;

/// Runs every analyzer over the workspace.
pub fn run_all(ws: &Workspace, out: &mut Vec<crate::findings::Finding>) {
    wire::run(ws, out);
    spans::run(ws, out);
}
