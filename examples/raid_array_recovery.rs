//! A storage-array session on a real on-disk store: latent sector errors
//! accumulate, a scrub finds them and a repair rewrites them, then two
//! devices fail with fresh bursts present — the exact mixed failure mode
//! STAIR codes are designed for.
//!
//! Run with: `cargo run --release --example raid_array_recovery`

use stair_store::{StoreOptions, StripeStore};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // n = 10 devices, 32-sector chunks, 2 device failures tolerated,
    // bursts up to 3 sectors in one chunk plus 1 more sector elsewhere.
    let dir = std::env::temp_dir().join(format!("stair-raid-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StoreOptions {
        code: "stair:10,32,2,1-3".parse()?,
        symbol: 512,
        stripes: 64,
    };
    let store = StripeStore::create(&dir, &opts)?;
    let payload: Vec<u8> = (0..store.capacity()).map(|i| (i % 251) as u8).collect();
    store.write_at(0, &payload)?;
    println!("array: 10 devices × 64 stripes × 32 sectors, e = (1,3)");

    // Month 1: scattered latent sector errors, found by the scrubber and
    // rewritten by a repair pass.
    // (device, stripe, first sector, length)
    store.corrupt_sectors(1, 3, 7, 1)?;
    store.corrupt_sectors(4, 17, 0, 1)?;
    store.corrupt_sectors(8, 40, 12, 2)?;
    let scrub = store.scrub(4)?;
    let repair = store.repair(4)?;
    println!(
        "scrub: found {} bad sectors; repair rewrote {} across {} stripes",
        scrub.mismatches.len(),
        repair.sectors_rewritten,
        repair.stripes_repaired
    );

    // Month 2: two whole devices fail while stripes 5 and 6 carry fresh,
    // still-undetected damage. Reads keep serving every byte, degraded.
    store.fail_device(2)?;
    store.fail_device(9)?;
    store.corrupt_sectors(6, 5, 20, 3)?;
    store.corrupt_sectors(0, 6, 31, 1)?;
    assert_eq!(store.read_at(0, payload.len())?, payload);
    println!("degraded read of all {} bytes verified ✔", payload.len());

    let report = store.repair(4)?;
    println!(
        "rebuild: devices {:?} replaced; rewrote {} sectors across {} stripes",
        report.devices_replaced, report.sectors_rewritten, report.stripes_repaired
    );
    assert!(report.complete() && store.scrub(4)?.clean());
    assert_eq!(store.read_at(0, payload.len())?, payload);
    println!("scrub clean, all payloads verified ✔");
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
