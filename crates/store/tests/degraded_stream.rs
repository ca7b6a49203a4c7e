//! What a degraded read does, pinned at the store's surface.
//!
//! The fixed stream is the ledger's `degraded_read_file` workload in
//! small and without a clock: `stair:8,16,2,1-2` with devices 0 and 1
//! failed and, per stripe, an unrecorded one-sector burst on device 2 and
//! two-sector burst on device 3 at seeded rows; then seeded 16-block
//! reads, each checked against what was written. Its fragments, recover
//! passes, sectors read and the FNV-64 of every byte returned are the
//! numbers the planned read path had when the stream was written down. A
//! change to how a fragment plans, reads or falls back moves one of them.

use std::fs::OpenOptions;
use std::path::PathBuf;

use stair_store::{IoStats, StoreOptions, StripeStore};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stair-stream-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options(symbol: usize, stripes: usize) -> StoreOptions {
    StoreOptions {
        code: "stair:8,16,2,1-2".parse().unwrap(),
        symbol,
        stripes,
    }
}

/// The byte written at logical offset `at`, in `version` of the data.
fn byte(at: usize, version: usize) -> u8 {
    (at.wrapping_mul(2_654_435_761).wrapping_add(version * 77) >> 11) as u8
}

fn bytes(range: std::ops::Range<usize>, version: usize) -> Vec<u8> {
    range.map(|at| byte(at, version)).collect()
}

/// xorshift64, seeded as `seed · φ·2^64`, odd.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// What one run of the stream did.
#[derive(Debug, PartialEq, Eq)]
struct Tally {
    fragments: u64,
    recover_passes: u64,
    sector_reads: u64,
    fnv64: u64,
}

fn stream(seed: u64) -> Tally {
    const SYMBOL: usize = 256;
    const STRIPES: usize = 86;
    const READS: usize = 10_000;
    const WINDOW: usize = 16;
    let dir = tmpdir(&seed.to_string());
    let store = StripeStore::create(&dir, &options(SYMBOL, STRIPES)).unwrap();
    let capacity = store.capacity() as usize;
    store.write_at(0, &bytes(0..capacity, 0)).unwrap();

    let mut rng = XorShift::new(seed);
    store.fail_device(0).unwrap();
    store.fail_device(1).unwrap();
    for stripe in 0..STRIPES {
        store.corrupt_sectors(2, stripe, rng.below(16), 1).unwrap();
        store.corrupt_sectors(3, stripe, rng.below(15), 2).unwrap();
    }

    let before = store.io_stats();
    let mut fnv64 = 0xCBF2_9CE4_8422_2325_u64;
    let blocks = capacity / SYMBOL;
    for _ in 0..READS {
        let at = rng.below(blocks - WINDOW) * SYMBOL;
        let got = store.read_at(at as u64, WINDOW * SYMBOL).unwrap();
        assert!(got == bytes(at..at + WINDOW * SYMBOL, 0), "read at {at}");
        for &b in &got {
            fnv64 = (fnv64 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    let after = store.io_stats();
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
    Tally {
        fragments: after.stripe_locks - before.stripe_locks,
        recover_passes: after.recover_passes - before.recover_passes,
        sector_reads: after.sector_reads - before.sector_reads,
        fnv64,
    }
}

#[test]
fn the_fixed_stream_reads_and_returns_what_it_always_did() {
    // 42.3 and 42.2 sectors per fragment; a whole stripe is 96.
    assert_eq!(
        stream(21),
        Tally {
            fragments: 11_589,
            recover_passes: 11_398,
            sector_reads: 490_574,
            fnv64: 0xF013_D11B_1648_BAE5,
        }
    );
    assert_eq!(
        stream(22),
        Tally {
            fragments: 11_568,
            recover_passes: 11_362,
            sector_reads: 488_158,
            fnv64: 0x2B91_EF07_A3B2_0A95,
        }
    );
}

/// A source sector that comes back short is lost, whatever the buffer it
/// was read into last held: the fragment falls back, records the damage,
/// and returns the bytes on disk — never a previous fragment's.
#[test]
fn a_short_source_falls_back_instead_of_serving_stale_bytes() {
    const SYMBOL: usize = 64;
    let dir = tmpdir("short");
    let store = StripeStore::create(&dir, &options(SYMBOL, 2)).unwrap();
    let capacity = store.capacity() as usize;
    store.write_at(0, &bytes(0..capacity, 0)).unwrap();
    store.fail_device(0).unwrap();
    store.fail_device(1).unwrap();

    // The last 16 blocks: rows 13–15 of the last stripe, planned from the
    // surviving sectors of those rows — (15, 2), the file's last sector,
    // among them.
    let window = capacity - 16 * SYMBOL..capacity;
    let read = || store.read_at(window.start as u64, window.len()).unwrap();
    let delta = |before: IoStats| {
        let after = store.io_stats();
        (
            after.recover_passes - before.recover_passes,
            after.sector_reads - before.sector_reads,
        )
    };
    let cut_device_2 = || {
        let file = OpenOptions::new()
            .write(true)
            .open(dir.join("dev_02.stair"))
            .unwrap();
        file.set_len((2 * 16 * SYMBOL - SYMBOL / 2) as u64).unwrap();
    };

    let before = store.io_stats();
    assert_eq!(read(), bytes(window.clone(), 0));
    let (passes, planned) = delta(before);
    assert_eq!(passes, 1);
    assert!(planned < 40, "a planned fragment read {planned} sectors");

    // The buffer now holds version 0 of (15, 2), which would still verify:
    // only the short read says it is gone.
    for version in [0, 1] {
        if version == 1 {
            // A new version of the stripe (the write restores the file's
            // length), cut at once: the buffer still holds version 0 of
            // (15, 2), which no longer verifies.
            let stripe = capacity / 2..capacity;
            store
                .write_at(stripe.start as u64, &bytes(stripe, 1))
                .unwrap();
        }
        cut_device_2();
        let before = store.io_stats();
        assert_eq!(read(), bytes(window.clone(), version), "version {version}");
        let (passes, sectors) = delta(before);
        assert_eq!(passes, 1);
        assert!(
            sectors > planned + 64,
            "no fallback: {sectors} sectors read"
        );
        assert_eq!(store.status().known_bad_sectors, 1);
    }
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
