//! Regenerates the **§7.2 N_arr table**: number of storage arrays needed
//! to hold 10 PiB of user data for s = 0..12 (n = 8, r = 16, m = 1,
//! C = 300 GiB).

use stair_reliability::SystemParams;

fn main() {
    let params = SystemParams::paper_defaults();
    println!("§7.2 N_arr table (U = 10 PiB, C = 300 GiB, n = 8, r = 16, m = 1)\n");
    println!("{:>4} {:>8}", "s", "N_arr");
    for s in 0..=12usize {
        let spec = if s == 0 {
            "rs:8,16,1".to_string()
        } else {
            format!("sd:8,16,1,{s}")
        };
        println!(
            "{s:>4} {:>8}",
            params.narr(&spec.parse().expect("valid spec"))
        );
    }
    println!("\n(paper: 4994, 5039, 5085, 5131, 5179, 5227, 5276, 5327, 5378, 5430,");
    println!(" 5483, 5538, 5593)");
}
