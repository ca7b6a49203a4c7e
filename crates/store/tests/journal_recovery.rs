//! Crash-consistency end to end: torn in-place writes are finished by
//! journal replay at open, and replay is idempotent over any byte
//! prefix of the log, applied any number of times.
//!
//! These tests simulate crashes by file surgery (capturing the live
//! superblock + journal and restoring them after a clean close); the
//! real process-kill coverage lives in the `chaos_kill9` harness in
//! `crates/bench`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use stair_device::IoBatch;
use stair_store::{StoreOptions, StripeStore, JOURNAL_FILES};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stair-jrnlrec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

fn opts() -> StoreOptions {
    StoreOptions {
        code: "stair:8,4,2,1-1-2".parse().unwrap(),
        symbol: 64,
        stripes: 6,
    }
}

/// Files that make up a store's durable state.
const STATE_FILES: &[&str] = &[
    "store.meta",
    "checksums.bin",
    "health.txt",
    JOURNAL_FILES[0],
    JOURNAL_FILES[1],
    "dev_00.stair",
    "dev_01.stair",
    "dev_02.stair",
    "dev_03.stair",
    "dev_04.stair",
    "dev_05.stair",
    "dev_06.stair",
    "dev_07.stair",
];

fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    STATE_FILES
        .iter()
        .map(|name| (name.to_string(), std::fs::read(dir.join(name)).unwrap()))
        .collect()
}

fn restore(dir: &Path, snap: &BTreeMap<String, Vec<u8>>) {
    for (name, bytes) in snap {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

/// Whole records in a journal byte image truncated to `cut` bytes
/// (the 12-byte header + length-prefixed records). The segment is
/// preallocated, so parsing stops at the zero terminator stamp — a
/// record body is at least 16 bytes.
fn whole_records(journal: &[u8], cut: usize) -> u64 {
    let mut at = 12usize;
    let mut n = 0u64;
    while at + 8 <= cut {
        let len = u32::from_le_bytes([
            journal[at],
            journal[at + 1],
            journal[at + 2],
            journal[at + 3],
        ]) as usize;
        if len < 16 || at + 8 + len > cut {
            break; // terminator stamp, or a torn tail
        }
        n += 1;
        at += 8 + len;
    }
    n
}

/// Where the live records of a preallocated journal image end (the
/// byte offset of the terminator stamp).
fn live_end(journal: &[u8]) -> usize {
    let mut at = 12usize;
    while at + 8 <= journal.len() {
        let len = u32::from_le_bytes([
            journal[at],
            journal[at + 1],
            journal[at + 2],
            journal[at + 3],
        ]) as usize;
        if len < 16 || at + 8 + len > journal.len() {
            break;
        }
        at += 8 + len;
    }
    at
}

#[test]
fn torn_write_back_is_finished_by_replay() {
    let dir = tmpdir("torn");
    let store = StripeStore::create(&dir, &opts()).unwrap();
    let base = pattern(store.capacity() as usize, 3);
    store.write_at(0, &base).unwrap();
    store.flush().unwrap(); // checkpoint: journal empty, base durable
    let sym = store.block_size();

    // An acknowledged full-stripe overwrite whose intent record is
    // still in the journal (no checkpoint between write and "crash").
    // Full-stripe: the record carries every cell of stripe 0, so any
    // torn cell of that stripe is covered by replay.
    let blocks_per_stripe = store.capacity() as usize / sym / 6;
    let newdata = pattern(blocks_per_stripe * sym, 77);
    store.write_at(0, &newdata).unwrap();
    let mut expected = base.clone();
    expected[..newdata.len()].copy_from_slice(&newdata);

    // Capture the crash-instant state, then let the clean close run.
    let live = snapshot(&dir);
    assert!(
        live_end(&live[JOURNAL_FILES[0]]) > 12,
        "journal must hold a record"
    );
    drop(store);
    restore(&dir, &live);

    // Tear the in-place write: scramble stripe-0 sectors on several
    // devices — data and parity both (a full-stripe commit journals
    // only the data image, so replay must *recompute* the scrambled
    // parity, not copy it) — as if the kill landed mid write-back. The
    // checksum table is the crash-instant one, so without replay this
    // store would be checksum-stale and torn.
    for dev in [0, 1, 2, 7] {
        let path = dir.join(format!("dev_{dev:02}.stair"));
        let mut raw = std::fs::read(&path).unwrap();
        for b in raw.iter_mut().take(4 * sym) {
            *b ^= 0x5A;
        }
        std::fs::write(&path, &raw).unwrap();
    }

    let store = StripeStore::open(&dir).unwrap();
    let status = store.status();
    assert!(!status.clean_shutdown, "the crash must be observed");
    assert!(status.replayed_records > 0, "the record must replay");
    // The acknowledged write is present, the torn stripe is whole, and
    // a scrub agrees the store is consistent.
    assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
    assert!(store.scrub(2).unwrap().clean());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Partial-stripe commits of every shape the planner stages: one
/// block, an unaligned span over two, a batch mixing writes and reads
/// in one stripe with a second written stripe and a read-only third,
/// and a write across a stripe boundary.
fn partial_commits(store: &StripeStore) {
    let sym = store.block_size() as u64;
    store.write_at(3 * sym, &pattern(sym as usize, 40)).unwrap();
    store.write_at(30, &pattern(100, 41)).unwrap();
    let mut batch = IoBatch::new();
    batch
        .write(25 * sym, pattern(sym as usize, 42))
        .write(27 * sym + 9, pattern(20, 43))
        .read(30 * sym, sym as usize)
        .write(47 * sym, pattern(sym as usize, 44))
        .read(10 * sym, 2 * sym as usize);
    store.submit(&batch).unwrap();
    store.write_at(40 * sym - 30, &pattern(60, 45)).unwrap();
}

/// The journal is a persistent format and the footprint stager must
/// not have moved a byte of it: `tests/fixtures/parent_partial_journal.bin`
/// is the live region the commit before sparse staging (which loaded
/// and restored the whole stripe for each of these) wrote for
/// [`partial_commits`]. Same cells, same post-images, same order — so
/// every prefix replays to the same store it did then.
#[test]
fn sparse_commits_journal_the_bytes_the_dense_path_did() {
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_partial_journal.bin");
    let dir = tmpdir("sparse-bytes");
    let store = StripeStore::create(&dir, &opts()).unwrap();
    store
        .write_at(0, &pattern(store.capacity() as usize, 3))
        .unwrap();
    store.flush().unwrap();
    let before = store.io_stats();
    partial_commits(&store);
    let after = store.io_stats();
    // Staged sparsely: nothing restored, and far fewer sectors read
    // than the 32 per stripe a whole-grid load costs (7 stripe visits).
    assert_eq!(after.recover_passes, before.recover_passes);
    assert!(after.sector_reads - before.sector_reads < 7 * 32 / 2);
    let journal = std::fs::read(dir.join(JOURNAL_FILES[0])).unwrap();
    let live = &journal[..live_end(&journal)];
    assert!(
        live == std::fs::read(fixture).unwrap(),
        "journal bytes moved"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn disabled_journal_still_replays_existing_records() {
    // STAIR_JOURNAL=0 gates appends, not recovery: a log written by an
    // enabled run must still be honored. Process-global env vars would
    // race other tests, so this builds the crash state with journaling
    // on and only checks that replay does not depend on the flag by
    // replaying through a normal open (the flag is read per handle).
    let dir = tmpdir("disabled");
    let store = StripeStore::create(&dir, &opts()).unwrap();
    let base = pattern(store.capacity() as usize, 8);
    store.write_at(0, &base).unwrap();
    let live = snapshot(&dir);
    drop(store);
    restore(&dir, &live);
    let store = StripeStore::open(&dir).unwrap();
    assert!(store.status().replayed_records > 0);
    assert_eq!(store.read_at(0, base.len()).unwrap(), base);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replaying **any byte prefix** of the journal, **twice**,
    /// converges to a scrub-clean store where every block holds either
    /// its pre-crash or its acknowledged post-write contents. The
    /// records come from sparse-staged commits: single writes and
    /// batches of up to four, each batch with a read riding along.
    #[test]
    fn replaying_any_prefix_twice_converges(
        blocks in proptest::collection::btree_set(0usize..120, 1..12),
        seed_base in 0u8..250,
        cut_permille in 0u32..=1000,
        batch_len in 1usize..5,
    ) {
        let writes: BTreeMap<usize, u8> = blocks
            .iter()
            .map(|&b| (b, seed_base.wrapping_add(b as u8).wrapping_mul(7)))
            .collect();
        let dir = tmpdir(&format!("prefix-{}-{}", writes.len() * 7 + cut_permille as usize, seed_base));
        let store = StripeStore::create(&dir, &opts()).unwrap();
        let sym = store.block_size();
        let base = pattern(store.capacity() as usize, 1);
        store.write_at(0, &base).unwrap();
        store.flush().unwrap();
        let durable = snapshot(&dir); // the pre-crash durable state

        // Distinct-block writes, one journal record per written stripe
        // of each batch, applied in deterministic order.
        let ordered: Vec<(usize, u8)> = writes.iter().map(|(&b, &s)| (b, s)).collect();
        for group in ordered.chunks(batch_len) {
            let mut batch = IoBatch::new();
            for &(block, seed) in group {
                batch.write((block * sym) as u64, pattern(sym, seed));
            }
            if batch_len > 1 {
                batch.read((((group[0].0 + 1) % 120) * sym) as u64, sym);
            }
            store.submit(&batch).unwrap();
        }
        // Healthy footprints: every commit above was staged sparsely.
        prop_assert_eq!(store.io_stats().recover_passes, 0);
        let journal = std::fs::read(dir.join(JOURNAL_FILES[0])).unwrap();
        let meta_live = std::fs::read(dir.join("store.meta")).unwrap();
        drop(store);

        // Crash: durable state from before the writes, plus an
        // arbitrary byte prefix of the journal's live region (the tail
        // torn off — the reopen preallocates the rest back to zeros).
        let cut = 12 + (live_end(&journal) - 12) * cut_permille as usize / 1000;
        restore(&dir, &durable);
        std::fs::write(dir.join("store.meta"), &meta_live).unwrap();
        std::fs::write(dir.join(JOURNAL_FILES[0]), &journal[..cut]).unwrap();

        let store = StripeStore::open(&dir).unwrap();
        prop_assert_eq!(store.status().replayed_records, whole_records(&journal, cut));
        prop_assert!(store.scrub(2).unwrap().clean());
        let after_once = store.read_at(0, base.len()).unwrap();
        for block in 0..base.len() / sym {
            let got = &after_once[block * sym..(block + 1) * sym];
            let old = &base[block * sym..(block + 1) * sym];
            let ok = match writes.get(&block) {
                Some(&seed) => got == pattern(sym, seed) || got == old,
                None => got == old,
            };
            prop_assert!(ok, "block {} is neither old nor new", block);
        }
        drop(store);

        // Replay the same prefix a second time over the already-
        // replayed state: must converge to the identical image.
        std::fs::write(dir.join(JOURNAL_FILES[0]), &journal[..cut]).unwrap();
        std::fs::write(dir.join("store.meta"), &meta_live).unwrap();
        let store = StripeStore::open(&dir).unwrap();
        prop_assert_eq!(store.status().replayed_records, whole_records(&journal, cut));
        prop_assert!(store.scrub(2).unwrap().clean());
        prop_assert_eq!(store.read_at(0, base.len()).unwrap(), after_once);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Checksums are a persistent format: `tests/fixtures/parent_store` was
/// written by the commit before `fletcher32` got its deferred reduction
/// (`stair:8,4,2,1-1-2`, 64-byte sectors, 2 stripes, caught at the
/// instant after an acknowledged full-stripe overwrite of stripe 0, with
/// that stripe's sectors then torn on four devices). Every sum in its
/// checksum table and in its journal record must still verify: the
/// record replays, the store reads back `expected.bin`, and a scrub finds
/// nothing.
#[test]
fn store_written_before_the_checksum_rewrite_replays_and_scrubs_clean() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_store");
    let dir = tmpdir("parent-format");
    std::fs::create_dir_all(&dir).unwrap();
    // Written by a one-segment build: the fixture has no second
    // segment, and the open creates it empty.
    for name in STATE_FILES.iter().filter(|&&name| name != JOURNAL_FILES[1]) {
        std::fs::copy(fixture.join(name), dir.join(name)).unwrap();
    }
    let expected = std::fs::read(fixture.join("expected.bin")).unwrap();

    let store = StripeStore::open(&dir).unwrap();
    let status = store.status();
    assert!(!status.clean_shutdown);
    assert_eq!(status.replayed_records, 1, "the journal record must verify");
    assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
    let scrub = store.scrub(2).unwrap();
    assert!(scrub.clean(), "{scrub:?}");
    assert_eq!(store.status().known_bad_sectors, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Four writers and a flusher through a 16 KiB segment: the hand-offs,
/// the checkpoint thread and synchronous checkpoints interleave with
/// live commits, and nothing acknowledged is lost or torn — in the
/// store, and after a clean close and reopen.
#[test]
fn concurrent_writers_cross_many_hand_offs() {
    let dir = tmpdir("concurrent");
    drop(StripeStore::create(&dir, &opts()).unwrap());
    let mut meta = stair_store::StoreMeta::load(&dir).unwrap();
    meta.journal_segment = 16 * 1024;
    meta.save(&dir).unwrap();
    let store = StripeStore::open(&dir).unwrap();
    let sym = store.block_size();
    let blocks = store.capacity() as usize / sym;
    let base = pattern(blocks * sym, 5);
    store.write_at(0, &base).unwrap();
    const WRITERS: usize = 4;
    const ROUNDS: usize = 100;
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let store = &store;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    let block = (round * WRITERS + t) % blocks;
                    let data = pattern(sym, (round * WRITERS + t) as u8);
                    store.write_at((block * sym) as u64, &data).unwrap();
                    if t == 0 && round % 25 == 24 {
                        store.flush().unwrap();
                    }
                }
            });
        }
    });
    let mut expected = base;
    for round in 0..ROUNDS {
        for t in 0..WRITERS {
            let block = (round * WRITERS + t) % blocks;
            expected[block * sym..(block + 1) * sym]
                .copy_from_slice(&pattern(sym, (round * WRITERS + t) as u8));
        }
    }
    let checkpoints = store
        .store_metrics()
        .counter("store.jrnl.checkpoints")
        .unwrap();
    assert!(checkpoints > 10, "only {checkpoints} checkpoints");
    assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
    assert!(store.scrub(2).unwrap().clean());
    drop(store);
    let store = StripeStore::open(&dir).unwrap();
    assert!(store.status().clean_shutdown);
    assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
    assert!(store.scrub(2).unwrap().clean());
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
