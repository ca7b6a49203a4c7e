//! Regenerates **Fig. 15**: update penalty of STAIR (min/avg/max over all
//! feasible e) vs SD vs Reed–Solomon, for n = r = 16, m ∈ {1, 2, 3}.

use stair::{Config, StairCodec};
use stair_bench::{feasible_es, sd_code};
use stair_code::ErasureCode;

fn main() {
    let (n, r) = (16usize, 16usize);
    println!("Fig. 15: update penalty, n = r = 16\n");
    for m in 1..=3usize {
        println!("  m = {m}:");
        println!("    RS: {m}.00 (each data symbol updates its m row parities)");
        for s in 1..=4usize {
            // STAIR: range over all feasible e.
            let mut penalties: Vec<f64> = Vec::new();
            for e in feasible_es(n, r, m, s) {
                let config = Config::new(n, r, m, &e).expect("feasible");
                let codec: StairCodec = StairCodec::new(config).expect("codec");
                penalties.push(codec.relations().update_penalty().average);
            }
            penalties.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let avg = penalties.iter().sum::<f64>() / penalties.len() as f64;
            print!(
                "    s={s}: STAIR min/avg/max = {:.2}/{avg:.2}/{:.2}",
                penalties.first().expect("non-empty"),
                penalties.last().expect("non-empty"),
            );
            if s <= 3 {
                match sd_code(n, r, m, s) {
                    Ok(code) => print!("   SD = {:.2}", sd_update_penalty(&*code)),
                    Err(_) => print!("   SD = (no construction)"),
                }
            } else {
                print!("   SD = (no construction for s > 3)");
            }
            println!();
        }
    }
    println!("\n(paper: STAIR's range covers SD's value; both exceed RS — suited to");
    println!(" systems with rare updates or full-stripe writes — §6.3)");
}

/// Average number of parity sectors touched when one SD data sector is
/// updated (the non-zero column of the dense encoding matrix).
fn sd_update_penalty(code: &dyn ErasureCode) -> f64 {
    let data = code.geometry().data_cells;
    let touched: usize = data
        .iter()
        .map(|&cell| code.dependents(cell).expect("a data cell").len())
        .sum();
    touched as f64 / data.len() as f64
}
