//! Regenerates **Fig. 17**: MTTDL_sys vs P_bit under *independent* sector
//! failures — (a) RS, STAIR/SD s = 1, STAIR e = (2), (1,1), SD s = 2;
//! (b) STAIR s = 3 variants e = (3), (1,2), (1,1,1).

use stair_code::CodecSpec;
use stair_reliability::{SectorModel, SystemParams};

fn main() {
    let params = SystemParams::paper_defaults();
    let model = SectorModel::Independent;
    let pbits: Vec<f64> = (0..=16)
        .map(|i| 1e-14 * 10f64.powf(i as f64 / 4.0))
        .collect();

    println!("Fig. 17(a): MTTDL_sys (hours) vs P_bit, independent sector failures\n");
    let codes_a = [
        ("RS (s=0)", "rs:8,16,1"),
        ("STAIR/SD s=1", "stair:8,16,1,1"),
        ("STAIR e=(2)", "stair:8,16,1,2"),
        ("STAIR e=(1,1)", "stair:8,16,1,1-1"),
        ("SD s=2", "sd:8,16,1,2"),
    ];
    print_curves(&params, &model, &pbits, &codes_a);

    println!("\nFig. 17(b): STAIR configurations with s = 3\n");
    let codes_b = [
        ("STAIR e=(3)", "stair:8,16,1,3"),
        ("STAIR e=(1,2)", "stair:8,16,1,1-2"),
        ("STAIR e=(1,1,1)", "stair:8,16,1,1-1-1"),
    ];
    print_curves(&params, &model, &pbits, &codes_b);

    println!("\n(paper: s=1 beats RS by >2 orders at P_bit=1e-14; e=(1,2) is the most");
    println!(" reliable s=3 shape under independent failures — §7.2.1)");
}

fn print_curves(params: &SystemParams, model: &SectorModel, pbits: &[f64], codes: &[(&str, &str)]) {
    let specs: Vec<CodecSpec> = codes
        .iter()
        .map(|(_, spec)| spec.parse().expect("valid spec"))
        .collect();
    print!("{:>10}", "P_bit");
    for (name, _) in codes {
        print!(" {name:>16}");
    }
    println!();
    for &pb in pbits {
        print!("{pb:>10.1e}");
        for spec in &specs {
            print!(" {:>16.3e}", params.mttdl_sys(spec, model, pb));
        }
        println!();
    }
}
