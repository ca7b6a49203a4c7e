//! Regenerates **Table 2**: the upstairs decoding schedule for the paper's
//! running example (n = 8, r = 4, m = 2, e = (1,1,2)) under the Fig. 4
//! worst-case failure pattern. `crates/bench/tests/fixtures` pins the
//! output byte for byte.

fn main() {
    print!("{}", stair_bench::table2());
}
