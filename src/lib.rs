//! Umbrella crate for the STAIR codes reproduction workspace.
//!
//! Re-exports the public API of every member crate so that the runnable
//! examples in `examples/` and the cross-crate integration tests in `tests/`
//! can use a single dependency. Library users should normally depend on the
//! individual crates (`stair`, `stair-code`, `stair-reliability`, ...)
//! directly.

pub use stair;
pub use stair_cache as cache;
pub use stair_code as code;
pub use stair_device as device;
pub use stair_gf as gf;
pub use stair_gfmatrix as gfmatrix;
pub use stair_net as net;
pub use stair_obs as obs;
pub use stair_reliability as reliability;
pub use stair_sd as sd;
pub use stair_store as store;
