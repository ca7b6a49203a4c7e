//! Regenerates **Fig. 18**: MTTDL_sys vs P_bit under *correlated* sector
//! failure bursts with (b1, α) = (0.98, 1.79) — the "D-2" drive model fit.

use stair_code::CodecSpec;
use stair_reliability::{BurstModel, SectorModel, SystemParams};

fn main() {
    let params = SystemParams::paper_defaults();
    let model = SectorModel::Correlated(BurstModel::from_pareto(0.98, 1.79, 16));
    let pbits: Vec<f64> = (0..=16)
        .map(|i| 1e-14 * 10f64.powf(i as f64 / 4.0))
        .collect();

    println!("Fig. 18: MTTDL_sys (hours) vs P_bit, correlated bursts (b1=0.98, α=1.79)\n");
    let codes = [
        ("RS", "rs:8,16,1"),
        ("STAIR/SD s=1", "stair:8,16,1,1"),
        ("STAIR e=(2)", "stair:8,16,1,2"),
        ("STAIR e=(1,1)", "stair:8,16,1,1-1"),
        ("SD s=2", "sd:8,16,1,2"),
        ("STAIR e=(3)", "stair:8,16,1,3"),
        ("STAIR e=(1,2)", "stair:8,16,1,1-2"),
        ("STAIR e=(1,1,1)", "stair:8,16,1,1-1-1"),
        ("SD s=3", "sd:8,16,1,3"),
    ];
    let specs: Vec<CodecSpec> = codes
        .iter()
        .map(|(_, spec)| spec.parse().expect("valid spec"))
        .collect();
    print!("{:>10}", "P_bit");
    for (name, _) in &codes {
        print!(" {name:>15}");
    }
    println!();
    for &pb in &pbits {
        print!("{pb:>10.1e}");
        for spec in &specs {
            print!(" {:>15.3e}", params.mttdl_sys(spec, &model, pb));
        }
        println!();
    }
    println!("\n(paper: all schemes show power-law decrease; STAIR e=(e0..em'−1) tracks");
    println!(" SD with s = e_max; e=(s) is the best shape under bursts — §7.2.2)");
}
