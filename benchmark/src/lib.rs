//! The layer ledger: four closed-loop workloads through the public
//! `stair_net::open_device(&DeviceSpec)` → `BlockDevice` surface, seven
//! end-to-end metrics each, and a traced **layers** run that walks a
//! byte from `Field::mult_xor_region` up to the wire. See `README.md`
//! for the one command, the metric glossary and how the numbers are
//! meant to move.

pub mod calib;
pub mod cli;
pub mod e2e;
pub mod engine;
pub mod env;
pub mod json;
pub mod ladder;
pub mod load;
pub mod metrics;
pub mod procfs;
pub mod report;
pub mod spans;
pub mod stats;
