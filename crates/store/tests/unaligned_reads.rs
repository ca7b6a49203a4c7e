//! Degraded reads whose window is not whole blocks: an offset and a
//! length that are not block multiples, a lost block cut at either end
//! of the window, and windows that run across a stripe boundary.
//!
//! A read decodes each lost block straight into the caller's buffer when
//! the window holds the whole block, and copies it in otherwise; both
//! must return the bytes written. Deciding where a recovered block goes
//! reads nothing, so the sectors read and the recover passes pinned here
//! are the ones the store had when every recovered block was copied in.

use std::ops::Range;
use std::path::PathBuf;

use stair_store::{StoreOptions, StripeStore};

const SYMBOL: usize = 64;
const STRIPES: usize = 4;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stair-unaligned-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The byte written at logical offset `at`: the byte-array model.
fn byte(at: usize) -> u8 {
    (at.wrapping_mul(2_654_435_761) >> 13) as u8
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

/// What a run of reads cost.
#[derive(Debug, PartialEq, Eq)]
struct Tally {
    reads: usize,
    recover_passes: u64,
    sector_reads: u64,
}

/// `stair:8,16,2,1-2` with devices 0 and 1 failed and, in every stripe,
/// an unrecorded one-sector burst on device 2 and two-sector burst on
/// device 3 at seeded rows — what a degraded read meets — then `windows`
/// read, each checked against the model.
fn read_windows(tag: &str, windows: impl Fn(usize, usize) -> Vec<Range<usize>>) -> Tally {
    let dir = tmpdir(tag);
    let options = StoreOptions {
        code: "stair:8,16,2,1-2".parse().unwrap(),
        symbol: SYMBOL,
        stripes: STRIPES,
    };
    let store = StripeStore::create(&dir, &options).unwrap();
    let capacity = store.capacity() as usize;
    let written: Vec<u8> = (0..capacity).map(byte).collect();
    store.write_at(0, &written).unwrap();
    let mut rng = XorShift::new(47);
    store.fail_device(0).unwrap();
    store.fail_device(1).unwrap();
    for stripe in 0..STRIPES {
        store.corrupt_sectors(2, stripe, rng.below(16), 1).unwrap();
        store.corrupt_sectors(3, stripe, rng.below(15), 2).unwrap();
    }

    let windows = windows(capacity, store.blocks_per_stripe() * SYMBOL);
    let before = store.io_stats();
    for window in &windows {
        let got = store
            .read_at(window.start as u64, window.len())
            .unwrap_or_else(|e| panic!("read {window:?}: {e}"));
        assert!(got == written[window.clone()], "read {window:?}");
    }
    let after = store.io_stats();
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
    Tally {
        reads: windows.len(),
        recover_passes: after.recover_passes - before.recover_passes,
        sector_reads: after.sector_reads - before.sector_reads,
    }
}

/// Block 0 is cell (0, 0) and block 1 is (0, 1), both on a failed
/// device; each case cuts a lost block at one end of the window or both,
/// or keeps every block whole beside one that is cut.
#[test]
fn a_lost_block_cut_by_the_window_is_copied_in() {
    let tally = read_windows("edges", |_, stripe| {
        vec![
            // Lost first block cut, lost last block cut.
            10..SYMBOL + 30,
            // Lost first block cut, then whole blocks.
            10..16 * SYMBOL,
            // Whole blocks, then a lost last block cut: block 6 is
            // (1, 0).
            0..6 * SYMBOL + 1,
            // One byte of one lost block.
            SYMBOL + 7..SYMBOL + 8,
            // Every block whole.
            0..16 * SYMBOL,
            // The last bytes of a stripe and the first of the next.
            stripe - 100..stripe + 100,
            // A whole stripe, cut one byte in at each end.
            stripe + 1..2 * stripe - 1,
        ]
    });
    assert_eq!(
        tally,
        Tally {
            reads: 7,
            recover_passes: 7,
            sector_reads: 398,
        }
    );
}

/// Seeded windows of any offset and any length up to two stripes, most
/// of them cut at both ends and many across a stripe boundary.
#[test]
fn seeded_unaligned_windows_return_what_was_written() {
    let tally = read_windows("seeded", |capacity, stripe| {
        let mut rng = XorShift::new(7);
        (0..300)
            .map(|_| {
                let start = rng.below(capacity - 1);
                let len = 1 + rng.below((capacity - start).min(2 * stripe));
                start..start + len
            })
            .collect()
    });
    assert_eq!(
        tally,
        Tally {
            reads: 300,
            recover_passes: 497,
            sector_reads: 34_956,
        }
    );
}
