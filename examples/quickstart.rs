//! Quickstart: protect a stripe with a STAIR code, lose two devices plus a
//! sector burst, and recover everything.
//!
//! Run with: `cargo run --release --example quickstart`

use stair::{Config, StairCodec, Stripe};
use stair_code::ErasureSet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A RAID-6-like array: n = 8 devices, r = 16 sectors per chunk,
    // m = 2 tolerated device failures, and sector-failure coverage
    // e = (1, 2): one chunk may lose a 2-sector burst while another loses
    // a single sector — at a cost of only 3 extra parity sectors.
    let config = Config::new(8, 16, 2, &[1, 2])?;
    let codec: StairCodec = StairCodec::new(config.clone())?;

    println!(
        "STAIR({}, {}, {}, {:?})",
        config.n(),
        config.r(),
        config.m(),
        config.e()
    );
    println!("  data sectors per stripe : {}", config.data_symbols());
    println!(
        "  parity sectors          : {}",
        config.r() * config.n() - config.data_symbols()
    );
    println!("  encoding method chosen  : {:?}", codec.best_method());
    println!("  Mult_XORs per stripe    : {:?}", codec.mult_xor_counts());

    // Write application data (512-byte sectors).
    let mut stripe = Stripe::new(config.clone(), 512)?;
    let payload: Vec<u8> = (0..stripe.data_capacity())
        .map(|i| (i % 251) as u8)
        .collect();
    stripe.write_data(&payload)?;
    codec.encode(&mut stripe)?;

    // Disaster: devices 6 and 7 die; device 2 develops a 2-sector burst;
    // device 4 loses one more sector.
    let mut erased: Vec<(usize, usize)> = Vec::new();
    erased.extend((0..16).map(|i| (i, 6)));
    erased.extend((0..16).map(|i| (i, 7)));
    erased.extend([(9, 2), (10, 2), (3, 4)]);
    assert!(
        config.spec().covers(&ErasureSet::from(&erased[..])),
        "within the configured coverage"
    );
    stripe.erase(&erased)?;

    codec.decode(&mut stripe, &erased)?;
    assert_eq!(stripe.read_data(), payload);
    println!(
        "\nrecovered {} lost sectors; payload intact ✔",
        erased.len()
    );
    Ok(())
}
