//! The sector checksum: Fletcher-32 over 16-bit words, used to *detect*
//! latent sector errors; the erasure code then repairs them.
//!
//! This is [`stair_gf::fletcher32`], re-exported: the one implementation the
//! store's checksum table, journal records, the wire frames and the archive
//! tool (`stair_cli`) share, running the widest tier the CPU supports. Its
//! values are persisted, so they are pinned on every tier by `stair-gf`'s
//! tests and by the parent-written fixtures in `tests/journal_recovery.rs`.

pub use stair_gf::fletcher32;
