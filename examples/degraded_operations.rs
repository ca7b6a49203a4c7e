//! Operating a degraded array on a real on-disk store: small writes that
//! patch only their dependent parities, degraded reads that reconstruct
//! only what they need, and a parallel rebuild of a failed device across
//! all stripes.
//!
//! Run with: `cargo run --release --example degraded_operations`

use stair_store::{StoreOptions, StripeStore};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("stair-degraded-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StoreOptions {
        code: "stair:8,16,2,1-2".parse()?,
        symbol: 512,
        stripes: 32,
    };
    let store = StripeStore::create(&dir, &opts)?;
    let mut expected: Vec<u8> = (0..store.capacity()).map(|i| (i % 253) as u8).collect();
    store.write_at(0, &expected)?;
    println!("wrote 32 stripes of {}", store.codec_spec());

    // A one-block write into stripe 3: only the dependent parities change.
    let block = store.block_size();
    let offset = (3 * store.blocks_per_stripe() + 17) * block;
    let patch = vec![0xAB; block];
    let before = store.io_stats();
    store.write_at(offset as u64, &patch)?;
    let after = store.io_stats();
    expected[offset..offset + block].copy_from_slice(&patch);
    println!(
        "updated one data sector: {} sectors written, no full re-encode ({} passes)",
        after.sector_writes - before.sector_writes,
        after.encode_passes - before.encode_passes
    );

    // Device 5 dies. Serve a degraded read of one block immediately...
    store.fail_device(5)?;
    let before = store.io_stats();
    let got = store.read_at(offset as u64, block)?;
    let after = store.io_stats();
    assert_eq!(got, patch);
    println!(
        "degraded read of one block: {} sectors read of a {}-sector stripe",
        after.sector_reads - before.sector_reads,
        store.geometry().n * store.geometry().r
    );

    // ...then rebuild the whole device with 4 worker threads.
    let report = store.repair(4)?;
    assert!(report.complete());
    println!(
        "device 5 rebuilt across all {} stripes ✔",
        report.stripes_repaired
    );

    // The update survived the rebuild, and the store verifies end to end.
    assert_eq!(store.read_at(0, expected.len())?, expected);
    assert!(store.scrub(4)?.clean());
    println!("post-rebuild consistency check passed ✔");
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
