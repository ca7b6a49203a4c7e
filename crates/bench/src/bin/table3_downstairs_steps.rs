//! Regenerates **Table 3**: the downstairs encoding schedule for the
//! paper's running example (n = 8, r = 4, m = 2, e = (1,1,2)) with inside
//! global parities. `crates/bench/tests/fixtures` pins the output byte
//! for byte.

fn main() {
    print!("{}", stair_bench::table3());
}
