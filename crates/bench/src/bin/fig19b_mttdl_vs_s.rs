//! Regenerates **Fig. 19(b)**: MTTDL_sys of STAIR with e = (s) vs
//! e = (1, s−1) as s grows, for four (b1, α) burstiness levels and
//! P_bit ∈ {1e-14, 1e-12, 1e-10}.

use stair_code::CodecSpec;
use stair_reliability::{BurstModel, SectorModel, SystemParams};

fn main() {
    let params = SystemParams::paper_defaults();
    let pairs = [(0.9, 1.0), (0.99, 2.0), (0.999, 3.0), (0.9999, 4.0)];
    println!("Fig. 19(b): MTTDL_sys (hours) vs s for e=(s) and e=(1,s−1)\n");
    for pb in [1e-14, 1e-12, 1e-10] {
        println!("P_bit = {pb:.0e}:");
        print!("{:>4}", "s");
        for (b1, a) in pairs {
            print!("  (s)@{b1}/{a:<4}  (1,s-1)@{b1}/{a:<4}");
        }
        println!();
        for s in 1..=12usize {
            print!("{s:>4}");
            for (b1, a) in pairs {
                let model = SectorModel::Correlated(BurstModel::from_pareto(b1, a, 16));
                let mttdl = |spec: String| {
                    let spec: CodecSpec = spec.parse().expect("valid spec");
                    params.mttdl_sys(&spec, &model, pb)
                };
                let es = mttdl(format!("stair:8,16,1,{s}"));
                let e1s = if s >= 2 {
                    mttdl(format!("stair:8,16,1,1-{}", s - 1))
                } else {
                    es
                };
                print!("  {es:>12.3e}  {e1s:>16.3e}");
            }
            println!();
        }
        println!();
    }
    println!("(paper: under bursty failures e=(s) pulls away as s grows — the case for");
    println!(" supporting s beyond SD's s ≤ 3; under near-independent failures the");
    println!(" ordering can invert — §7.2.2)");
}
