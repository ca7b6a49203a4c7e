//! Shared infrastructure for the table/figure harnesses that regenerate
//! the STAIR paper's evaluation (§5.3, §6, §7).
//!
//! Each binary under `src/bin/` reproduces one table or figure and prints
//! the same rows/series the paper reports. Absolute throughput depends on
//! the host; the *shapes* (who wins, by what factor, where crossovers sit)
//! are the reproduction targets recorded in `EXPERIMENTS.md`.
//!
//! Environment knobs:
//! * `STAIR_BENCH_STRIPE_MB` — stripe size for speed tests (default 8; the
//!   paper uses 32);
//! * `STAIR_BENCH_REPS` — timed repetitions per point (default 3).
//!
//! Numbers about the *system* around the codes (store, cache, wire) come
//! from `benchmark/run.sh`, not from this crate.

use std::fmt::Write as _;
use std::time::Instant;

use stair::{Config, EncodingMethod, GlobalPlacement, MultXorCounts, StairCodec, Stripe};
use stair_gf::{Field, Gf16, Gf8};
use stair_sd::{SdCode, SdStripe};

/// Stripe size in bytes for throughput measurements.
pub fn stripe_bytes() -> usize {
    let mb: usize = std::env::var("STAIR_BENCH_STRIPE_MB")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    mb * 1024 * 1024
}

/// Timed repetitions per measurement point.
pub fn reps() -> usize {
    std::env::var("STAIR_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Measures throughput in MB/s over `reps` runs of `f` (after one warmup),
/// counting `total_bytes` of payload per run.
pub fn throughput_mbps(total_bytes: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    let elapsed = start.elapsed().as_secs_f64();
    (total_bytes as f64 * reps as f64) / elapsed / (1024.0 * 1024.0)
}

/// All non-decreasing partitions of `s` (the candidate `e` vectors for a
/// given total number of parity sectors).
pub fn partitions(s: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    fn rec(remaining: usize, max: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if remaining == 0 {
            let mut e = cur.clone();
            e.reverse(); // non-decreasing order
            out.push(e);
            return;
        }
        for next in (1..=remaining.min(max)).rev() {
            cur.push(next);
            rec(remaining - next, next, cur, out);
            cur.pop();
        }
    }
    rec(s, s, &mut cur, &mut out);
    out
}

/// The feasible `e` vectors for `(n, r, m, s)`.
pub fn feasible_es(n: usize, r: usize, m: usize, s: usize) -> Vec<Vec<usize>> {
    partitions(s)
        .into_iter()
        .filter(|e| Config::new(n, r, m, e).is_ok())
        .collect()
}

/// The paper's conservative choice for speed comparisons (§6.2.1): among
/// all feasible `e` for a given `s`, the one whose *best* encoding method
/// is the most expensive (worst-case configuration).
pub fn worst_case_e(n: usize, r: usize, m: usize, s: usize) -> Option<Vec<usize>> {
    feasible_es(n, r, m, s).into_iter().max_by_key(|e| {
        let cfg = Config::new(n, r, m, e).expect("filtered to feasible");
        let c = MultXorCounts::analytic(&cfg);
        c.upstairs.min(c.downstairs)
    })
}

/// An encoded STAIR stripe ready for benchmarking, with its codec.
pub struct StairBench {
    /// The codec under test.
    pub codec: StairCodec,
    /// An encoded stripe of roughly [`stripe_bytes`] size.
    pub stripe: Stripe,
}

impl StairBench {
    /// Builds codec and filled stripe for `(n, r, m, e)` sized to
    /// `stripe_size` bytes total.
    pub fn new(n: usize, r: usize, m: usize, e: &[usize], stripe_size: usize) -> Self {
        let config = Config::new(n, r, m, e).expect("valid benchmark config");
        let symbol = (stripe_size / (n * r)).max(16) & !15; // 16-byte aligned
        let codec = StairCodec::new(config.clone()).expect("codec");
        let mut stripe = Stripe::new(config, symbol.max(16)).expect("stripe");
        stripe.fill_pattern(0x5A);
        Self { codec, stripe }
    }

    /// Total stored bytes of the stripe.
    pub fn total_bytes(&self) -> usize {
        self.stripe.symbol_size() * self.codec.config().n() * self.codec.config().r()
    }

    /// The worst-case erasure pattern of §6.2.2: the `m` leftmost chunks
    /// plus `e_i` sectors at the bottom of the following `m'` chunks.
    pub fn worst_case_erasures(&self) -> Vec<(usize, usize)> {
        let cfg = self.codec.config();
        let (r, m) = (cfg.r(), cfg.m());
        let mut erased: Vec<(usize, usize)> = Vec::new();
        for c in 0..m {
            erased.extend((0..r).map(|row| (row, c)));
        }
        for (i, &el) in cfg.e().iter().enumerate() {
            let c = m + i;
            erased.extend((r - el..r).map(|row| (row, c)));
        }
        erased
    }
}

/// An SD code over whichever field its stripe size requires (`w = 8` when
/// `r·n ≤ 255`, else `w = 16` — §6.2.1's "smallest feasible w").
pub enum AnySd {
    /// GF(2^8) instance.
    G8(SdCode<Gf8>),
    /// GF(2^16) instance.
    G16(SdCode<Gf16>),
}

impl AnySd {
    /// Builds the SD code with the smallest feasible word size.
    pub fn new(n: usize, r: usize, m: usize, s: usize) -> Result<Self, stair_sd::Error> {
        if r * n < Gf8::ORDER {
            Ok(AnySd::G8(SdCode::new(n, r, m, s)?))
        } else {
            Ok(AnySd::G16(SdCode::new(n, r, m, s)?))
        }
    }

    /// The field width in bits.
    pub fn w(&self) -> u32 {
        match self {
            AnySd::G8(_) => 8,
            AnySd::G16(_) => 16,
        }
    }

    /// Allocates a matching stripe.
    pub fn stripe(&self, symbol: usize) -> SdStripe {
        match self {
            AnySd::G8(c) => SdStripe::new(c, symbol),
            AnySd::G16(c) => SdStripe::new(c, symbol & !1),
        }
    }

    /// Encodes in place.
    pub fn encode(&self, stripe: &mut SdStripe) -> Result<(), stair_sd::Error> {
        match self {
            AnySd::G8(c) => c.encode(stripe),
            AnySd::G16(c) => c.encode(stripe),
        }
    }

    /// Decodes in place.
    pub fn decode(
        &self,
        stripe: &mut SdStripe,
        erased: &[(usize, usize)],
    ) -> Result<(), stair_sd::Error> {
        match self {
            AnySd::G8(c) => c.decode(stripe, erased),
            AnySd::G16(c) => c.decode(stripe, erased),
        }
    }

    /// The worst-case erasure pattern: `m` leftmost devices + `s` sectors
    /// at the top of device `m`.
    pub fn worst_case_erasures(&self, r: usize) -> Vec<(usize, usize)> {
        let (m, s) = match self {
            AnySd::G8(c) => (c.m(), c.s()),
            AnySd::G16(c) => (c.m(), c.s()),
        };
        let mut erased: Vec<(usize, usize)> = Vec::new();
        for c in 0..m {
            erased.extend((0..r).map(|row| (row, c)));
        }
        erased.extend((0..s.min(r)).map(|row| (row, m)));
        erased
    }
}

/// **Table 2**, as `table2_upstairs_steps` prints it: the upstairs
/// decoding schedule of the running example (n = 8, r = 4, m = 2,
/// e = (1,1,2), outside globals) under the Fig. 4 worst case, and the
/// `Mult_XOR` count of the plan it lowers to.
pub fn table2() -> String {
    let config =
        Config::with_placement(8, 4, 2, &[1, 1, 2], GlobalPlacement::Outside).expect("config");
    let codec: StairCodec = StairCodec::new(config).expect("codec");
    let erased: Vec<(usize, usize)> = (0..4)
        .flat_map(|i| [(i, 6), (i, 7)])
        .chain([(3, 3), (3, 4), (2, 5), (3, 5)])
        .collect();
    let schedule = codec.decode_schedule(&erased, &erased).expect("schedule");
    let plan = codec.plan_decode(&erased).expect("plan");
    let mut out = String::new();
    let _ = writeln!(out, "Table 2: upstairs decoding, n=8 r=4 m=2 e=(1,1,2)");
    let _ = writeln!(
        out,
        "failure pattern: chunks 6,7 failed; sector failures (3,3) (3,4) (2,5) (3,5)\n"
    );
    out += &schedule.render(codec.layout());
    let _ = writeln!(out, "\ntotal Mult_XORs: {}", plan.mult_xors());
    out
}

/// **Table 3**, as `table3_downstairs_steps` prints it: the downstairs
/// encoding schedule of the running example with inside global parities,
/// against Eq. 6, and the upstairs cost against Eq. 5.
pub fn table3() -> String {
    let config = Config::new(8, 4, 2, &[1, 1, 2]).expect("config");
    let codec: StairCodec = StairCodec::new(config).expect("codec");
    let schedule = |method| codec.encode_schedule(method).expect("schedule");
    let down = schedule(EncodingMethod::Downstairs);
    let mut out = String::new();
    let _ = writeln!(out, "Table 3: downstairs encoding, n=8 r=4 m=2 e=(1,1,2)\n");
    out += &down.render(codec.layout());
    let _ = writeln!(
        out,
        "\ntotal Mult_XORs: {} (Eq. 6 predicts {})",
        down.mult_xors(),
        MultXorCounts::analytic(codec.config()).downstairs
    );
    let up = schedule(EncodingMethod::Upstairs);
    let _ = writeln!(out, "upstairs Mult_XORs: {} (Eq. 5)", up.mult_xors());
    out
}

/// Prints a labelled measurement row in a fixed-width layout.
pub fn print_row(label: &str, values: &[(String, f64)]) {
    print!("{label:<28}");
    for (name, v) in values {
        print!("  {name}={v:>9.1}");
    }
    println!();
}

/// STAIR encode throughput (MB/s) for one config with the auto-selected
/// method.
pub fn stair_encode_speed(n: usize, r: usize, m: usize, e: &[usize], stripe_size: usize) -> f64 {
    let mut b = StairBench::new(n, r, m, e, stripe_size);
    let total = b.total_bytes();
    let codec = b.codec.clone();
    throughput_mbps(total, reps(), move || {
        codec.encode(&mut b.stripe).expect("encode");
    })
}

/// STAIR worst-case decode throughput (MB/s), plan reused across runs (the
/// plan is tiny compared to the data volume, matching how the paper's
/// implementation caches coefficients per configuration).
pub fn stair_decode_speed(n: usize, r: usize, m: usize, e: &[usize], stripe_size: usize) -> f64 {
    let mut b = StairBench::new(n, r, m, e, stripe_size);
    b.codec.encode(&mut b.stripe).expect("encode");
    let erased = b.worst_case_erasures();
    let plan = b.codec.plan_decode(&erased).expect("plan");
    let total = b.total_bytes();
    let codec = b.codec.clone();
    throughput_mbps(total, reps(), move || {
        codec.apply_plan(&plan, &mut b.stripe).expect("decode");
    })
}

/// SD encode throughput (MB/s); `None` if no construction exists.
pub fn sd_encode_speed(n: usize, r: usize, m: usize, s: usize, stripe_size: usize) -> Option<f64> {
    let code = AnySd::new(n, r, m, s).ok()?;
    let symbol = (stripe_size / (n * r)).max(16) & !15;
    let mut stripe = code.stripe(symbol);
    stripe.fill_pattern(0xC3);
    let total = symbol * n * r;
    Some(throughput_mbps(total, reps(), move || {
        code.encode(&mut stripe).expect("sd encode");
    }))
}

/// SD worst-case decode throughput (MB/s); `None` if no construction.
pub fn sd_decode_speed(n: usize, r: usize, m: usize, s: usize, stripe_size: usize) -> Option<f64> {
    let code = AnySd::new(n, r, m, s).ok()?;
    let symbol = (stripe_size / (n * r)).max(16) & !15;
    let mut stripe = code.stripe(symbol);
    stripe.fill_pattern(0xC3);
    code.encode(&mut stripe).ok()?;
    let erased = code.worst_case_erasures(r);
    let total = symbol * n * r;
    Some(throughput_mbps(total, reps(), move || {
        code.decode(&mut stripe, &erased).expect("sd decode");
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_of_4_match_figure_9() {
        let p = partitions(4);
        assert_eq!(p.len(), 5);
        assert!(p.contains(&vec![4]));
        assert!(p.contains(&vec![1, 3]));
        assert!(p.contains(&vec![2, 2]));
        assert!(p.contains(&vec![1, 1, 2]));
        assert!(p.contains(&vec![1, 1, 1, 1]));
        for e in &p {
            assert!(
                e.windows(2).all(|w| w[0] <= w[1]),
                "{e:?} must be non-decreasing"
            );
        }
    }

    #[test]
    fn worst_case_e_is_feasible_and_maximal() {
        let e = worst_case_e(16, 16, 2, 4).unwrap();
        assert!(Config::new(16, 16, 2, &e).is_ok());
    }

    #[test]
    fn speed_helpers_produce_positive_numbers() {
        std::env::set_var("STAIR_BENCH_REPS", "1");
        let v = stair_encode_speed(8, 8, 1, &[1, 1], 64 * 1024);
        assert!(v > 0.0);
        let d = stair_decode_speed(8, 8, 1, &[1, 1], 64 * 1024);
        assert!(d > 0.0);
        let sd = sd_encode_speed(8, 8, 1, 2, 64 * 1024).unwrap();
        assert!(sd > 0.0);
    }

    #[test]
    fn worst_case_erasures_are_covered() {
        let b = StairBench::new(8, 16, 2, &[1, 2], 64 * 1024);
        let erased = b.worst_case_erasures();
        let erased_set = stair_code::ErasureSet::from(&erased[..]);
        assert!(b.codec.config().spec().covers(&erased_set));
        assert_eq!(erased.len(), 2 * 16 + 3);
    }
}
