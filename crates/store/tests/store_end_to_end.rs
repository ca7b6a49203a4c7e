//! End-to-end acceptance test for the stripe-store engine: write a
//! multi-stripe dataset, kill `m` devices *and* inject a sector burst,
//! assert degraded reads return the original bytes, repair online, and
//! assert post-repair reads and a final scrub are clean.

use std::path::PathBuf;

use stair_store::{Error, StoreOptions, StripeStore};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stair-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + 17) % 251) as u8).collect()
}

#[test]
fn degraded_reads_and_online_repair_round_trip() {
    let dir = tmpdir("main");
    let opts = StoreOptions {
        code: "stair:8,4,2,1-1-2".parse().unwrap(),
        symbol: 128,
        stripes: 24,
    };
    let store = StripeStore::create(&dir, &opts).unwrap();
    let data = payload(store.capacity() as usize);
    store.write_at(0, &data).unwrap();

    // Kill m = 2 whole devices and corrupt a 2-sector burst in a third.
    store.fail_device(3).unwrap();
    store.fail_device(6).unwrap();
    store.corrupt_sectors(1, 10, 2, 2).unwrap();

    // Degraded reads: full sweep and unaligned windows, all original.
    assert_eq!(store.read_at(0, data.len()).unwrap(), data);
    for (off, len) in [(0u64, 1usize), (1000, 4096), (store.capacity() - 7, 7)] {
        assert_eq!(
            store.read_at(off, len).unwrap(),
            data[off as usize..off as usize + len].to_vec()
        );
    }

    // Writes continue against the degraded array.
    let patch = payload(300);
    store.write_at(5000, &patch).unwrap();
    let mut expected = data.clone();
    expected[5000..5300].copy_from_slice(&patch);
    assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);

    // Online repair brings the array back; a scrub then reports clean.
    let report = store.repair(4).unwrap();
    assert!(report.complete(), "{report:?}");
    assert_eq!(report.devices_replaced, vec![3, 6]);
    let scrub = store.scrub(4).unwrap();
    assert!(scrub.clean(), "{scrub:?}");
    assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);

    // Reopening from disk sees the same bytes (metadata, checksums, and
    // device files are all persistent).
    drop(store);
    let store = StripeStore::open(&dir).unwrap();
    assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
    assert!(store.status().failed_devices.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mixed_read_write_under_injected_failures() {
    let dir = tmpdir("mixed");
    let opts = StoreOptions {
        code: "stair:6,4,1,2".parse().unwrap(),
        symbol: 64,
        stripes: 40,
    };
    let store = StripeStore::create(&dir, &opts).unwrap();
    let data = payload(store.capacity() as usize);
    store.write_at(0, &data).unwrap();
    store.fail_device(2).unwrap();

    // Concurrent foreground traffic: readers verify while writers patch
    // disjoint regions, all against the degraded array, while a repair
    // pass runs underneath.
    let cap = store.capacity() as usize;
    let region = cap / 4;
    std::thread::scope(|scope| {
        let repair_store = store.clone();
        let repair = scope.spawn(move || repair_store.repair(2).unwrap());

        let mut writers = Vec::new();
        for w in 0..2 {
            let store = store.clone();
            writers.push(scope.spawn(move || {
                // Writers own disjoint quarters: [0, region) and [region, 2·region).
                let base = w * region;
                let patch = vec![0xB0 + w as u8; 512];
                for i in 0..8 {
                    let off = base + (i * 731) % (region - patch.len());
                    store.write_at(off as u64, &patch).unwrap();
                }
            }));
        }
        // Readers cover the untouched back half.
        let reader_store = store.clone();
        let expected = &data;
        let reads = scope.spawn(move || {
            for i in 0..16 {
                let off = 2 * region + (i * 977) % (region - 600);
                let got = reader_store.read_at(off as u64, 600).unwrap();
                assert_eq!(got, expected[off..off + 600].to_vec());
            }
        });
        for w in writers {
            w.join().expect("writer");
        }
        reads.join().expect("reader");
        assert!(repair.join().expect("repair").complete());
    });

    // Full verification after the dust settles: back half original, and
    // the array is healthy.
    let back = store.read_at(2 * region as u64, cap - 2 * region).unwrap();
    assert_eq!(back, data[2 * region..].to_vec());
    assert!(store.scrub(2).unwrap().clean());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The acceptance sequence of the codec-generic store, run for every
/// codec family: write → fail devices (+ corrupt sectors where the code
/// covers them) → degraded read returns the original bytes → online
/// repair → clean scrub → reopen from disk.
#[test]
fn every_codec_family_survives_the_same_e2e_sequence() {
    // A sector burst to inject: (dev, stripe, row, burst_len).
    type Burst = (usize, usize, usize, usize);
    let scenarios: &[(&str, &[usize], Option<Burst>)] = &[
        // STAIR: m = 2 devices plus a 2-sector burst (within e = (1,1,2)).
        ("stair:8,4,2,1-1-2", &[3, 6], Some((1, 5, 2, 2))),
        // SD: m = 1 device plus a 2-sector burst (within s = 2).
        ("sd:6,4,1,2", &[5], Some((1, 2, 1, 2))),
        // RS: m = 2 devices; one extra corrupt sector still leaves every
        // row with ≤ m erasures when only one device is down.
        ("rs:6,4,2", &[4], Some((1, 3, 2, 1))),
    ];
    for &(spec, failures, burst) in scenarios {
        let dir = tmpdir(&format!("codec-{}", spec.replace([':', ','], "-")));
        let opts = StoreOptions {
            code: spec.parse().unwrap(),
            symbol: 64,
            stripes: 8,
        };
        let store = StripeStore::create(&dir, &opts).unwrap();
        let data = payload(store.capacity() as usize);
        store.write_at(0, &data).unwrap();

        // Small writes exercise the per-codec parity-delta path too.
        let patch = payload(100);
        let report = store.write_at(10, &patch).unwrap();
        assert!(report.delta_updates > 0, "{spec}: no delta updates");
        let mut expected = data.clone();
        expected[10..110].copy_from_slice(&patch);

        for &dev in failures {
            store.fail_device(dev).unwrap();
        }
        if let Some((dev, stripe, row, len)) = burst {
            store.corrupt_sectors(dev, stripe, row, len).unwrap();
        }
        assert_eq!(
            store.read_at(0, expected.len()).unwrap(),
            expected,
            "{spec}: degraded read"
        );

        let report = store.repair(3).unwrap();
        assert!(report.complete(), "{spec}: {report:?}");
        assert_eq!(report.devices_replaced, failures.to_vec(), "{spec}");
        let scrub = store.scrub(3).unwrap();
        assert!(scrub.clean(), "{spec}: {scrub:?}");
        assert_eq!(
            store.read_at(0, expected.len()).unwrap(),
            expected,
            "{spec}: post-repair read"
        );

        drop(store);
        let store = StripeStore::open(&dir).unwrap();
        assert_eq!(store.codec_spec().to_string(), spec);
        assert_eq!(
            store.read_at(0, expected.len()).unwrap(),
            expected,
            "{spec}: reopened read"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn damage_beyond_coverage_surfaces_as_unrecoverable() {
    let dir = tmpdir("beyond");
    let opts = StoreOptions {
        code: "stair:6,4,1,1".parse().unwrap(),
        symbol: 64,
        stripes: 4,
    };
    let store = StripeStore::create(&dir, &opts).unwrap();
    let data = payload(store.capacity() as usize);
    store.write_at(0, &data).unwrap();
    store.fail_device(0).unwrap();
    store.fail_device(1).unwrap(); // m = 1: two lost devices exceed coverage

    match store.read_at(0, 64) {
        Err(Error::Unrecoverable { .. }) => {}
        other => panic!("expected Unrecoverable, got {other:?}"),
    }
    // Repair reports the lost stripes instead of erroring out.
    let report = store.repair(2).unwrap();
    assert!(!report.complete());
    assert_eq!(report.unrecoverable_stripes, vec![0, 1, 2, 3]);
    std::fs::remove_dir_all(&dir).unwrap();
}
