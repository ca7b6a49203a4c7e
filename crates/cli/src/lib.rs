//! Library backing the `stair` command-line tool: STAIR-coded file
//! archives.
//!
//! An *archive* is a directory holding one chunk file per device
//! (`chunk_00.bin` … `chunk_NN.bin`), a plain-text `manifest.txt`, and a
//! per-sector checksum table (`checksums.bin`). Losing chunk files models
//! device failures; zeroed or bit-flipped sector ranges model latent sector
//! errors — both are detected via the checksums and repaired through the
//! STAIR decoder, exactly the mixed failure mode of the paper.
//!
//! # Example
//!
//! ```
//! use stair_cli::{Archive, EncodeOptions};
//!
//! let dir = std::env::temp_dir().join(format!("stair-doc-{}", std::process::id()));
//! let payload = vec![7u8; 100_000];
//! Archive::encode_bytes(&payload, &dir, &EncodeOptions::default())?;
//! let archive = Archive::open(&dir)?;
//! assert_eq!(archive.extract()?, payload);
//! std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod archive;
mod manifest;

pub use archive::{Archive, EncodeOptions, RepairOutcome};
pub use manifest::Manifest;
