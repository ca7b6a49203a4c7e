//! Superblock versioning, exercised end to end through the store —
//! previously only covered implicitly by unit tests in `meta.rs`.
//!
//! * a freshly created store writes a v3 superblock (codec spec +
//!   journal geometry + `clean_shutdown`) that round-trips through
//!   `open` for every codec family;
//! * a hand-written v3 fixture opens end to end and keeps its journal
//!   geometry; v1 and v2 superblocks (as PR 1 / PR 2 stores wrote
//!   them) are refused with an error naming the supported version;
//! * the `clean_shutdown` flag follows the open/close lifecycle;
//! * malformed superblocks are rejected with a metadata error rather
//!   than a panic or a misconfigured store.

use std::path::PathBuf;

use stair_store::{Error, StoreMeta, StoreOptions, StripeStore, DEFAULT_JOURNAL_SEGMENT};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stair-superblock-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(29).wrapping_add(seed))
        .collect()
}

#[test]
fn v3_superblock_round_trips_for_every_codec_family() {
    for spec in ["stair:8,4,2,1-1-2", "sd:8,4,2,3", "rs:6,4,2"] {
        let dir = tmpdir(&format!("v3-{}", spec.split(':').next().unwrap()));
        let opts = StoreOptions {
            code: spec.parse().unwrap(),
            symbol: 64,
            stripes: 4,
        };
        let store = StripeStore::create(&dir, &opts).unwrap();
        let payload = pattern(store.capacity() as usize, 5);
        store.write_at(0, &payload).unwrap();
        // While open, the on-disk superblock is v3 and marked live.
        let text = std::fs::read_to_string(dir.join("store.meta")).unwrap();
        assert!(text.starts_with("stair-store v3\n"), "{text}");
        assert!(text.contains(&format!("codec {spec}")), "{text}");
        assert!(text.contains("journal_segment "), "{text}");
        assert!(text.contains("clean_shutdown 0\n"), "{text}");
        drop(store);

        // A clean close flips the flag on disk.
        let text = std::fs::read_to_string(dir.join("store.meta")).unwrap();
        assert!(text.contains("clean_shutdown 1\n"), "{text}");

        // Reopen: same codec, same data, clean shutdown observed.
        let store = StripeStore::open(&dir).unwrap();
        assert_eq!(store.codec_spec().to_string(), spec);
        assert_eq!(store.read_at(0, payload.len()).unwrap(), payload);
        let status = store.status();
        assert!(status.clean_shutdown);
        assert_eq!(status.replayed_records, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A hand-written v3 superblock opens the store end to end; the two
/// older layouts are refused cleanly and leave the store untouched.
#[test]
fn v3_fixture_opens_and_older_superblocks_are_refused() {
    let v1 = "stair-store v1\nn 8\nr 4\nm 2\ne 1,1,2\nsymbol 64\nstripes 6\n";
    let v2 = "stair-store v2\ncodec stair:8,4,2,1-1-2\nsymbol 64\nstripes 6\n";
    let v3 = "stair-store v3\ncodec stair:8,4,2,1-1-2\nsymbol 64\nstripes 6\n\
              journal_segment 1048576\nclean_shutdown 1\n";
    let dir = tmpdir("fixtures");
    let opts = StoreOptions {
        code: "stair:8,4,2,1-1-2".parse().unwrap(),
        symbol: 64,
        stripes: 6,
    };
    let store = StripeStore::create(&dir, &opts).unwrap();
    let payload = pattern(store.capacity() as usize, 11);
    store.write_at(0, &payload).unwrap();
    drop(store);

    for (version, fixture) in [("v1", v1), ("v2", v2)] {
        std::fs::write(dir.join("store.meta"), fixture).unwrap();
        match StripeStore::open(&dir) {
            Err(Error::Meta(msg)) => {
                assert!(msg.contains("stair-store v3"), "{version}: {msg}");
                assert!(msg.contains(&format!("stair-store {version}")), "{msg}");
            }
            Err(other) => panic!("{version}: expected Meta error, got {other:?}"),
            Ok(_) => panic!("{version} superblock must not open"),
        }
        // The refusal rewrote nothing.
        let text = std::fs::read_to_string(dir.join("store.meta")).unwrap();
        assert_eq!(text, fixture, "{version}");
    }

    std::fs::write(dir.join("store.meta"), v3).unwrap();
    let store = StripeStore::open(&dir).unwrap();
    assert_eq!(store.codec_spec().to_string(), "stair:8,4,2,1-1-2");
    assert_eq!(store.read_at(0, payload.len()).unwrap(), payload);
    let status = store.status();
    assert!(status.clean_shutdown);
    assert_eq!(status.replayed_records, 0);
    store.fail_device(3).unwrap();
    assert_eq!(store.read_at(0, payload.len()).unwrap(), payload);
    drop(store);
    assert_eq!(StoreMeta::load(&dir).unwrap().journal_segment, 1_048_576);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_marked_superblock_reports_unclean_until_next_close() {
    let dir = tmpdir("unclean");
    let opts = StoreOptions {
        code: "rs:6,4,2".parse().unwrap(),
        symbol: 64,
        stripes: 4,
    };
    let store = StripeStore::create(&dir, &opts).unwrap();
    store.write_at(0, &pattern(256, 9)).unwrap();
    // Simulate a crash: capture the live (clean_shutdown 0) superblock
    // and restore it after the clean drop.
    let live = std::fs::read_to_string(dir.join("store.meta")).unwrap();
    assert!(live.contains("clean_shutdown 0\n"));
    drop(store);
    std::fs::write(dir.join("store.meta"), &live).unwrap();

    let store = StripeStore::open(&dir).unwrap();
    assert!(!store.status().clean_shutdown, "crash must be observed");
    drop(store);

    // The clean close re-marks it; the next open sees a clean store.
    let store = StripeStore::open(&dir).unwrap();
    assert!(store.status().clean_shutdown);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn superblock_parses_with_field_reordering_and_blank_lines() {
    let text = "stair-store v3\n\nstripes 6\ncodec stair:8,4,2,1-1-2\n\nsymbol 64\n";
    let meta = StoreMeta::parse(text).unwrap();
    assert_eq!(meta.codec.to_string(), "stair:8,4,2,1-1-2");
    assert_eq!((meta.symbol, meta.stripes), (64, 6));
    // The journal keys default when absent.
    assert_eq!(meta.journal_segment, DEFAULT_JOURNAL_SEGMENT);
    assert!(meta.clean_shutdown);
    assert!(meta.to_text().starts_with("stair-store v3\n"));
}

#[test]
fn malformed_superblocks_are_rejected_not_panicked() {
    let cases = [
        // A required field missing.
        "stair-store v3\ncodec rs:6,4,2\nstripes 6\n",
        // An unknown key.
        "stair-store v3\ncodec rs:6,4,2\nsymbol 64\nstripes 6\nshiny yes\n",
        // A spec naming an impossible codec.
        "stair-store v3\ncodec stair:8,4,2,100\nsymbol 64\nstripes 6\n",
        // A garbage integer.
        "stair-store v3\ncodec rs:6,4,2\nsymbol sixty-four\nstripes 6\n",
        // An older version.
        "stair-store v2\ncodec rs:6,4,2\nsymbol 64\nstripes 6\n",
        // v3 with a garbage clean_shutdown flag.
        "stair-store v3\ncodec rs:6,4,2\nsymbol 64\nstripes 6\nclean_shutdown maybe\n",
        // Unknown version.
        "stair-store v9\ncodec rs:6,4,2\nsymbol 64\nstripes 6\n",
        // Empty file.
        "",
    ];
    for text in cases {
        assert!(StoreMeta::parse(text).is_err(), "accepted: {text:?}");
    }

    // Through the store: a corrupted superblock fails open cleanly.
    let dir = tmpdir("corrupt");
    let store = StripeStore::create(
        &dir,
        &StoreOptions {
            code: "rs:6,4,2".parse().unwrap(),
            symbol: 64,
            stripes: 4,
        },
    )
    .unwrap();
    drop(store);
    std::fs::write(dir.join("store.meta"), "not a superblock\n").unwrap();
    match StripeStore::open(&dir) {
        Err(Error::Meta(_)) => {}
        Err(other) => panic!("expected Meta error, got {other:?}"),
        Ok(_) => panic!("corrupted superblock must not open"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Sizes derived from a forged superblock are computed with checked
/// arithmetic: on `stair:8,4,2,1-2` (n = 8, r = 4), 4 stripes of 512-byte
/// sectors, each value below was a debug-build overflow panic, or — in
/// release — a store that opened with its table size wrapped back to the
/// true one. Each is now refused by name.
#[test]
fn oversized_superblock_values_are_refused_not_overflowed() {
    let dir = tmpdir("oversized");
    let opts = StoreOptions {
        code: "stair:8,4,2,1-2".parse().unwrap(),
        symbol: 512,
        stripes: 4,
    };
    drop(StripeStore::create(&dir, &opts).unwrap());
    let good = std::fs::read_to_string(dir.join("store.meta")).unwrap();
    for (case, from, to) in [
        (
            "stripes = usize::MAX",
            "stripes 4",
            "stripes 18446744073709551615",
        ),
        ("stripes = 2^62", "stripes 4", "stripes 4611686018427387904"),
        (
            "stripes = 2^57 + 4: the table size wraps to the true 512 bytes",
            "stripes 4",
            "stripes 144115188075855876",
        ),
        ("symbol = 2^62", "symbol 512", "symbol 4611686018427387904"),
    ] {
        std::fs::write(dir.join("store.meta"), good.replace(from, to)).unwrap();
        match StripeStore::open(&dir) {
            Err(Error::Meta(msg)) => assert!(msg.contains(to), "{case}: {msg}"),
            Err(other) => panic!("{case}: expected a Meta error, got {other:?}"),
            Ok(_) => panic!("{case}: must not open"),
        }
    }
    // The store itself is untouched by the refusals.
    std::fs::write(dir.join("store.meta"), &good).unwrap();
    assert_eq!(StripeStore::open(&dir).unwrap().stripe_count(), 4);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `stair dev init --stripes` reaches `create` unchecked: an
/// overflowing geometry is refused before anything touches the disk.
#[test]
fn create_refuses_stripes_that_overflow() {
    let dir = tmpdir("create-overflow");
    let opts = StoreOptions {
        code: "stair:8,4,2,1-2".parse().unwrap(),
        symbol: 512,
        stripes: usize::MAX,
    };
    match StripeStore::create(&dir, &opts) {
        Err(Error::Meta(msg)) => assert!(msg.contains("stripes"), "{msg}"),
        Err(other) => panic!("expected a Meta error, got {other:?}"),
        Ok(_) => panic!("an overflowing geometry must not create"),
    }
    assert!(!dir.exists(), "a refused create must leave nothing behind");
}
