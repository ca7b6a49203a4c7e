//! Capacity/reliability planning with the §7 analytical models: given a
//! target MTTDL, find the cheapest sector-failure coverage `e` under both
//! independent and bursty sector-failure assumptions.
//!
//! Run with: `cargo run --release --example reliability_planning`

use stair_code::CodecSpec;
use stair_reliability::{BurstModel, SectorModel, SystemParams};

fn main() {
    let params = SystemParams::paper_defaults();
    let p_bit = 1e-12;
    let target_hours = 1.0e4;

    let candidates: Vec<Vec<usize>> = vec![
        vec![1],
        vec![2],
        vec![1, 1],
        vec![3],
        vec![1, 2],
        vec![1, 1, 1],
        vec![4],
        vec![1, 3],
        vec![2, 2],
    ];

    for (name, model) in [
        ("independent sector failures", SectorModel::Independent),
        (
            "bursty failures (b1=0.9, α=1)",
            SectorModel::Correlated(BurstModel::from_pareto(0.9, 1.0, 16)),
        ),
    ] {
        println!("assuming {name}, P_bit = {p_bit:.0e}, target MTTDL ≥ {target_hours:.0e} h:");
        let mut best: Option<(&Vec<usize>, usize, f64)> = None;
        for e in &candidates {
            // The paper's arrays: n = 8 devices of r = 16 sectors, m = 1.
            let spec = CodecSpec::Stair {
                n: 8,
                r: 16,
                m: 1,
                e: e.clone(),
            };
            let mttdl = params.mttdl_sys(&spec, &model, p_bit);
            let s = spec.s();
            println!(
                "  e={:<12} s={s}  MTTDL_sys = {mttdl:>12.3e} h",
                format!("{e:?}")
            );
            if mttdl >= target_hours {
                match best {
                    Some((_, bs, bm)) if (bs, -bm) <= (s, -mttdl) => {}
                    _ => best = Some((e, s, mttdl)),
                }
            }
        }
        match best {
            Some((e, s, mttdl)) => println!(
                "  -> cheapest passing configuration: e = {e:?} ({s} parity sectors, \
                 {mttdl:.3e} h)\n"
            ),
            None => println!("  -> no candidate meets the target; widen e or add devices\n"),
        }
    }
}
