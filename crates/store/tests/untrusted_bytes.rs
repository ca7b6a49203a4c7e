//! Untrusted bytes at rest (ROADMAP aim 3): a store whose
//! superblock, journal segment or health record was damaged or forged
//! either refuses to open with an error, or opens and serves — a
//! full-capacity read and a scrub return, `Ok` or `Err`. It never
//! panics: arithmetic overflow, an index past a table, or an
//! allocation sized by a hostile field are all failures here.
//!
//! Every case starts from a copy of the committed `parent_store`
//! fixture (`stair:8,4,2,1-1-2`, 64-byte sectors, 2 stripes, one
//! journal record waiting to replay) and mutates one file: bit flips,
//! truncations, integer fields at 0 / 1 / 2ᵏ / `usize::MAX`, unknown and
//! duplicated keys, length prefixes that overrun, and journal fields
//! forged under a recomputed checksum (so the decoder, not the
//! checksum, has to refuse them). Inputs that once panicked are named
//! regression cases below the property.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use stair_gf::fletcher32;
use stair_store::{StripeStore, JOURNAL_FILE};

const META: &str = "store.meta";
const HEALTH: &str = "health.txt";

/// The fixture's state files (everything but `expected.bin`).
const STATE_FILES: &[&str] = &[
    META,
    "checksums.bin",
    HEALTH,
    JOURNAL_FILE,
    "dev_00.stair",
    "dev_01.stair",
    "dev_02.stair",
    "dev_03.stair",
    "dev_04.stair",
    "dev_05.stair",
    "dev_06.stair",
    "dev_07.stair",
];

/// Where the first journal record starts: after the 12-byte header, a
/// `u32` body length, a `u32` checksum, then the body — `u64` sequence,
/// `u32` stripe, `u32` cell count, and per cell `u32` row, `u32` device
/// and the sector.
const RECORD: usize = 12;
const BODY: usize = RECORD + 8;

fn fixture(name: &str) -> Vec<u8> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_store");
    std::fs::read(dir.join(name)).unwrap()
}

/// Integer values every numeric field is tried at.
fn numbers() -> Vec<u64> {
    let mut v = vec![0, 1, u64::MAX];
    v.extend((1..64).map(|k| 1u64 << k));
    v
}

/// The property: a copy of the fixture with `file` replaced by `bytes`
/// opens with an error, or opens and survives a full-capacity read and
/// a scrub — without a panic, which fails the test naming `case`.
/// Returns whether the store opened.
fn survives(case: &str, file: &str, bytes: &[u8]) -> bool {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "stair-untrusted-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    for name in STATE_FILES {
        std::fs::write(dir.join(name), fixture(name)).unwrap();
    }
    std::fs::write(dir.join(file), bytes).unwrap();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let store = StripeStore::open(&dir).ok()?;
        let _ = store.read_at(0, store.capacity() as usize);
        let _ = store.scrub(2);
        Some(())
    }));
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(opened) => opened.is_some(),
        Err(_) => panic!("{case}: a mutated {file} panicked the store"),
    }
}

/// The superblock with `key`'s line replaced by `key value` (appended
/// when absent).
fn meta_with(key: &str, value: &str) -> String {
    let text = String::from_utf8(fixture(META)).unwrap();
    let mut out: String = text
        .lines()
        .filter(|l| l.split(' ').next() != Some(key))
        .map(|l| format!("{l}\n"))
        .collect();
    out.push_str(&format!("{key} {value}\n"));
    out
}

/// The journal with `u32` field `at` set to `value`; `seal` recomputes
/// the first record's checksum so the forgery reaches the decoder.
fn journal_with(at: usize, value: u32, seal: bool) -> Vec<u8> {
    let mut j = fixture(JOURNAL_FILE);
    j[at..at + 4].copy_from_slice(&value.to_le_bytes());
    if seal {
        let len = u32::from_le_bytes(j[RECORD..RECORD + 4].try_into().unwrap()) as usize;
        let sum = fletcher32(&j[BODY..BODY + len]);
        j[RECORD + 4..BODY].copy_from_slice(&sum.to_le_bytes());
    }
    j
}

/// One mutation, chosen by `kind`, parameterised by `pick` (a position
/// or a selector) and `n` (a value from [`numbers`]).
fn mutate(kind: usize, pick: u64, n: u64) -> (String, &'static str, Vec<u8>) {
    let flip = |mut b: Vec<u8>| {
        if !b.is_empty() {
            let bit = (pick % (b.len() as u64 * 8)) as usize;
            b[bit / 8] ^= 1 << (bit % 8);
        }
        b
    };
    let cut = |name: &str| {
        let b = fixture(name);
        b[..(pick % (b.len() as u64 + 1)) as usize].to_vec()
    };
    let field = ["symbol", "stripes", "journal_segment", "clean_shutdown"][(pick % 4) as usize];
    let journal_field = [BODY, BODY + 8, BODY + 12, BODY + 16, BODY + 20][(pick % 5) as usize];
    let health_line = match pick % 4 {
        0 => format!("failed {n}\n"),
        1 => format!("rebuilding {n}\n"),
        2 => format!("bad {n} 0 0\nbad 0 {n} 1\nbad 1 1 {n}\n"),
        _ => format!("failed 3\nfailed 3\nbad 0 0 3\nbad 0 0 3\nmissing {n}\n"),
    };
    match kind {
        0 => (format!("bit {pick} flipped"), META, flip(fixture(META))),
        1 => (format!("cut at {pick}"), META, cut(META)),
        2 => (
            format!("{field} {n}"),
            META,
            meta_with(field, &n.to_string()).into_bytes(),
        ),
        3 => {
            // A key twice (the second wins) or one the format lacks.
            let mut text = meta_with(field, &n.to_string());
            text.push_str(if pick.is_multiple_of(2) {
                "stripes 2\n"
            } else {
                "shiny 1\n"
            });
            (format!("{field} {n} + extra key"), META, text.into_bytes())
        }
        4 => (
            format!("bit {pick} flipped"),
            JOURNAL_FILE,
            flip(fixture(JOURNAL_FILE)),
        ),
        5 => (format!("cut at {pick}"), JOURNAL_FILE, cut(JOURNAL_FILE)),
        6 => (
            format!("u32 at {journal_field} = {n} (resealed)"),
            JOURNAL_FILE,
            journal_with(journal_field, n as u32, true),
        ),
        7 => (
            format!("length prefix {n}"),
            JOURNAL_FILE,
            journal_with(RECORD, n as u32, false),
        ),
        8 => (health_line.clone(), HEALTH, health_line.into_bytes()),
        _ => (
            format!("{health_line:?}, bit {pick} flipped"),
            HEALTH,
            flip(health_line.into_bytes()),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_state_files_never_panic_the_store(
        kind in 0usize..10,
        pick in any::<u64>(),
        which in 0usize..66,
    ) {
        let n = numbers()[which];
        let (case, file, bytes) = mutate(kind, pick, n);
        survives(&case, file, &bytes);
    }
}

/// Every integer field at every value in [`numbers`], exhaustively —
/// the property samples these; this pins them.
#[test]
fn every_superblock_integer_at_every_edge_value() {
    for field in ["symbol", "stripes", "journal_segment", "clean_shutdown"] {
        for n in numbers() {
            let text = meta_with(field, &n.to_string());
            survives(&format!("{field} {n}"), META, text.as_bytes());
        }
    }
}

/// Superblocks that broke the parent commit's store (the four oversized
/// `stripes`/`symbol` values of ISSUE 25 live in `superblock.rs`). A
/// forged `symbol` is refused at open; a forged segment size still
/// opens and replays, reading only the record it holds.
#[test]
fn superblock_values_that_once_broke_the_store() {
    for (field, value, opens, what_it_did) in [
        (
            "symbol",
            "18446744073709551615",
            false,
            "journal decode overflowed",
        ),
        (
            "symbol",
            "1152921504606846976",
            false,
            "the capacity overflowed",
        ),
        (
            "symbol",
            "268435456",
            false,
            "opened with a 10 GiB capacity over 512-byte device files",
        ),
        (
            "journal_segment",
            "4294967296",
            true,
            "replay read the whole preallocated 4 GiB segment into memory",
        ),
        (
            "journal_segment",
            "2199023255552",
            true,
            "replay's 2 TiB allocation aborted",
        ),
    ] {
        let case = format!("{field} {value} ({what_it_did})");
        let text = meta_with(field, value);
        assert_eq!(survives(&case, META, text.as_bytes()), opens, "{case}");
    }
}

/// Replay reads the segment through a 1 MiB window: a length field that
/// carries the first record across the window's edge, or past the end
/// of the file, must stop replay like any other torn record. The
/// fixture's journal is padded with zeros to just past one window.
#[test]
fn journal_lengths_past_a_window_edge_and_past_the_file() {
    const WINDOW: usize = 1 << 20;
    let padded = |len: u32, seal: bool| {
        let mut j = journal_with(RECORD, len, false);
        j.resize(WINDOW + 4096, 0);
        if seal {
            let sum = fletcher32(&j[BODY..BODY + len as usize]);
            j[RECORD + 4..BODY].copy_from_slice(&sum.to_le_bytes());
        }
        j
    };
    let file_len = (WINDOW + 4096) as u32;
    for (case, bytes) in [
        (
            "length across the window edge",
            padded(WINDOW as u32, false),
        ),
        (
            "length across the window edge (resealed)",
            padded(WINDOW as u32, true),
        ),
        (
            "length to the last byte of the file (resealed)",
            padded(file_len - BODY as u32, true),
        ),
        (
            "length one past the file",
            padded(file_len - BODY as u32 + 1, false),
        ),
        ("length far past the file", padded(u32::MAX, false)),
    ] {
        assert!(survives(case, JOURNAL_FILE, &bytes), "{case}");
    }
}
