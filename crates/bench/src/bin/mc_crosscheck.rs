//! Cross-checks the analytical stripe-loss probability `P_str` (Appendix
//! B / the general enumerator) against Monte-Carlo sampling through the
//! reliability model's failure injectors.

use stair_code::CodecSpec;
use stair_reliability::montecarlo::estimate_p_str;
use stair_reliability::{p_chk, p_str, BurstModel, SectorModel};

fn main() {
    let trials: u64 = std::env::var("STAIR_MC_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let (n, m, r) = (8usize, 1usize, 16usize);
    println!("Monte-Carlo vs analytic P_str, n={n} m={m} r={r}, {trials} trials\n");
    println!(
        "{:>16} {:>12} {:>10} {:>12} {:>12} {:>10}",
        "scheme", "model", "p_sec", "analytic", "sampled", "z-score"
    );
    let cases = [
        ("RS", "rs:8,16,1"),
        ("STAIR (1)", "stair:8,16,1,1"),
        ("STAIR (1,2)", "stair:8,16,1,1-2"),
        ("STAIR (4)", "stair:8,16,1,4"),
        ("SD s=2", "sd:8,16,1,2"),
    ];
    for p_sec in [0.02f64, 0.005] {
        for (name, spec) in cases {
            let spec: CodecSpec = spec.parse().expect("valid spec");
            for (mname, model) in [
                ("indep", SectorModel::Independent),
                (
                    "burst",
                    SectorModel::Correlated(BurstModel::from_pareto(0.9, 1.0, r)),
                ),
            ] {
                let pchk = p_chk(&model, p_sec, r);
                let analytic = p_str(&spec, &pchk);
                let est = estimate_p_str(&spec, p_sec, &model, trials, 4, 0xC0FFEE)
                    .expect("valid failure model");
                let z = (est.p - analytic) / est.std_err.max(1e-12);
                println!(
                    "{name:>16} {mname:>12} {p_sec:>10} {analytic:>12.3e} {:>12.3e} {z:>10.2}",
                    est.p
                );
            }
        }
    }
    println!("\n(independent-model rows agree to sampling noise; burst rows carry the");
    println!(" first-order Eq. 15–17 approximation, so |z| can exceed noise slightly)");
}
