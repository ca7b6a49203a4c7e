//! The timed figures, Figs. 11–13. Absolute speeds belong to the host,
//! so every claim here is a ratio of two speeds measured in one window:
//! [`interleave`] runs its probes round-robin, numerator and denominator
//! alternating, never one after the other.

use std::time::Instant;

use stair::{Config, StairCodec, Stripe};
use stair_code::{ErasureCode, ErasureSet, StripeBuf};
use stair_gf::{gf8_tier, Gf16, Gf8};
use stair_sd::SdCode;

use crate::figure::{ensure, geomean, Claim, Figure, Fmt, Scale, Table};
use crate::{sd_code, sd_width, worst_case_e};

/// One timed operation over `bytes` of stripe.
struct Probe {
    bytes: usize,
    run: Box<dyn FnMut()>,
}

/// The speed (MB/s) of each probe's fastest run, timed round-robin in
/// one window: `reps` rounds that run every probe twice in a row, the
/// first run untimed, so each timed run starts with its own stripe as
/// warm in cache as a run of it alone would leave it, whatever ran
/// before. Taking the fastest run keeps a preempted run out of a ratio.
fn interleave(probes: &mut [Probe], reps: usize) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; probes.len()];
    for _ in 0..reps {
        for (p, b) in probes.iter_mut().zip(&mut best) {
            (p.run)();
            let start = Instant::now();
            (p.run)();
            *b = b.min(start.elapsed().as_secs_f64());
        }
    }
    probes
        .iter()
        .zip(best)
        .map(|(p, secs)| p.bytes as f64 / secs / (1024.0 * 1024.0))
        .collect()
}

/// Sector size giving a stripe of about `stripe` bytes (16-byte aligned).
fn symbol(n: usize, r: usize, stripe: usize) -> usize {
    (stripe / (n * r)).max(16) & !15
}

/// What a speed probe times.
#[derive(Clone, Copy)]
enum Op {
    /// Encoding with the codec's cheapest method.
    Encode,
    /// Decoding the worst case of §6.2.2: the `m` leftmost chunks plus
    /// `e_i` sectors at the bottom of the following `m'` chunks (STAIR),
    /// or `s` sectors at the top of chunk `m` (SD). STAIR's plan is built
    /// once, as the paper's implementation caches coefficients; SD plans
    /// on every run.
    Decode,
}

/// An encoded STAIR stripe of about `stripe` bytes.
fn stair_stripe(n: usize, r: usize, m: usize, e: &[usize], stripe: usize) -> (StairCodec, Stripe) {
    let config = Config::new(n, r, m, e).expect("valid benchmark config");
    let codec = StairCodec::new(config.clone()).expect("codec");
    let mut stripe = Stripe::new(config, symbol(n, r, stripe)).expect("stripe");
    stripe.fill_pattern(0x5A);
    codec.encode(&mut stripe).expect("encode");
    (codec, stripe)
}

/// The cells §6.2.2's worst case erases: the `m` leftmost chunks, plus
/// `e_i` sectors at the bottom of chunk `m + i`.
fn worst_case_erasures(config: &Config) -> Vec<(usize, usize)> {
    let (r, m) = (config.r(), config.m());
    let devices = (0..m).flat_map(|c| (0..r).map(move |row| (row, c)));
    let sectors = config
        .e()
        .iter()
        .enumerate()
        .flat_map(|(i, &el)| (r - el..r).map(move |row| (row, m + i)));
    devices.chain(sectors).collect()
}

fn stair_probe(op: Op, n: usize, r: usize, m: usize, e: &[usize], stripe: usize) -> Probe {
    let (codec, mut s) = stair_stripe(n, r, m, e, stripe);
    let bytes = s.symbol_size() * n * r;
    let run: Box<dyn FnMut()> = match op {
        Op::Encode => Box::new(move || codec.encode(&mut s).expect("encode")),
        Op::Decode => {
            let plan = codec
                .plan_decode(&worst_case_erasures(codec.config()))
                .expect("plan");
            Box::new(move || codec.apply_plan(&plan, &mut s).expect("decode"))
        }
    };
    Probe { bytes, run }
}

/// Decoding only the `m` leftmost devices (§6.2.2: what RS decodes).
fn device_only_probe(n: usize, r: usize, m: usize, e: &[usize], stripe: usize) -> Probe {
    let (codec, mut s) = stair_stripe(n, r, m, e, stripe);
    let erased: Vec<(usize, usize)> = (0..m)
        .flat_map(|c| (0..r).map(move |row| (row, c)))
        .collect();
    let plan = codec.plan_decode(&erased).expect("plan");
    Probe {
        bytes: s.symbol_size() * n * r,
        run: Box::new(move || codec.apply_plan(&plan, &mut s).expect("decode")),
    }
}

fn sd_probe(op: Op, code: Box<dyn ErasureCode>, stripe: usize) -> Probe {
    let g = code.geometry();
    let symbol = symbol(g.n, g.r, stripe);
    let mut s = StripeBuf::new(g.r, g.n, symbol).expect("stripe");
    let data = vec![0xC3; g.data_per_stripe() * symbol];
    s.write_cells(&g.data_cells, &data).expect("data");
    code.encode(&mut s).expect("sd encode");
    let run: Box<dyn FnMut()> = match op {
        Op::Encode => Box::new(move || code.encode(&mut s).expect("sd encode")),
        Op::Decode => {
            let devices = (0..g.m).flat_map(|c| (0..g.r).map(move |row| (row, c)));
            let erased: ErasureSet = devices
                .chain((0..g.s.min(g.r)).map(|row| (row, g.m)))
                .collect();
            Box::new(move || {
                let plan = code.plan(&erased).expect("sd plan");
                code.apply(&plan, &mut s).expect("sd decode");
            })
        }
    };
    Probe {
        bytes: symbol * g.n * g.r,
        run,
    }
}

/// The speed columns of Figs. 11–13: SD with s = 1..3, STAIR with
/// s = 1..4 (the worst-case e of each s, §6.2.1).
const SPEEDS: [&str; 7] = ["SD1", "SD2", "SD3", "ST1", "ST2", "ST3", "ST4"];

/// The probes of one Fig. 11/13 row, as (column, probe).
fn row_probes(op: Op, n: usize, r: usize, m: usize, stripe: usize) -> Vec<(usize, Probe)> {
    let sd = (1..=3).filter_map(|s| Some((s - 1, sd_probe(op, sd_code(n, r, m, s).ok()?, stripe))));
    let st = (1..=4).filter_map(|s| {
        Some((
            2 + s,
            stair_probe(op, n, r, m, &worst_case_e(n, r, m, s)?, stripe),
        ))
    });
    sd.chain(st).collect()
}

/// Figs. 11 and 13: (a) varying n with r = 16, (b) varying r with
/// n = 16, for m ∈ {1, 2, 3}; each row's probes interleaved. `w` is the
/// field width SD runs over ([`sd_width`]).
fn sweep(op: Op, scale: Scale) -> Vec<Table> {
    let xs = [4, 8, 12, 16, 20, 24, 28, 32];
    let parts = [
        ("(a) varying n, r = 16", xs.map(|n| (n, 16))),
        ("(b) varying r, n = 16", xs.map(|r| (16, r))),
    ];
    let mut columns = vec![("w", Fmt::Plain)];
    columns.extend(SPEEDS.map(|c| (c, Fmt::Fixed(1))));
    let mut tables = Vec::new();
    for (part, grid) in parts {
        for m in 1..=3usize {
            let mut t = Table::new(format!("{part}, m = {m}"), "n, r", columns.clone());
            for (n, r) in grid {
                if m >= n {
                    continue;
                }
                let (cols, mut probes): (Vec<usize>, Vec<Probe>) =
                    row_probes(op, n, r, m, scale.stripe_bytes())
                        .into_iter()
                        .unzip();
                let mut values = vec![None; 1 + SPEEDS.len()];
                values[0] = Some(sd_width(n, r) as f64);
                for (c, v) in cols.into_iter().zip(interleave(&mut probes, scale.reps())) {
                    values[1 + c] = Some(v);
                }
                t.push(format!("n={n} r={r}"), values);
            }
            tables.push(t);
        }
    }
    tables
}

/// Same-run ST_s / SD_s ratios, s = 1..3, over the rows of `tables`
/// where SD uses field width `w`.
fn stair_over_sd(tables: &[&Table], w: f64) -> Vec<f64> {
    let mut ratios = Vec::new();
    for t in tables {
        for row in t.labels().filter(|row| t.get(row, "w") == Some(w)) {
            for s in 1..=3 {
                if let (Some(st), Some(sd)) =
                    (t.get(row, &format!("ST{s}")), t.get(row, &format!("SD{s}")))
                {
                    ratios.push(st / sd);
                }
            }
        }
    }
    ratios
}

/// STAIR beats SD at equal s: the geometric mean of the sweep's
/// same-run ST_s / SD_s over its w = 8 rows. The w = 16 rows are
/// reported, not claimed: SD's GF(2^16) is scalar (item 12(a)).
fn stair_beats_sd(says: &str) -> Claim {
    Claim::new(says, |f| {
        let sweep: Vec<&Table> = f
            .tables
            .iter()
            .filter(|t| t.caption.contains(" varying "))
            .collect();
        let (w8, w16) = (
            geomean(&stair_over_sd(&sweep, 8.0)),
            geomean(&stair_over_sd(&sweep, 16.0)),
        );
        let got = format!("ST_s/SD_s ×{w8:.2} where SD has w = 8, ×{w16:.1} where it has w = 16");
        ensure(w8 > 1.0, || got.clone()).map(|()| got)
    })
}

/// **Fig. 11**: encoding speed of STAIR vs SD codes, and SD's field
/// widths against each other.
pub(crate) fn fig11(scale: Scale) -> Figure {
    let stripe = scale.stripe_bytes();
    let mut fig = Figure::new(format!(
        "Fig. 11: encoding speed (MB/s), stripe = {} MB, worst-case e per s\n",
        stripe >> 20
    ));
    fig.tables = sweep(Op::Encode, scale);
    // The same SD code over both fields, at an (n, r) where w = 8 exists.
    let (n, r) = (12usize, 16usize);
    let mut widths = Table::new(
        format!("(c) SD over w = 8 vs w = 16, n = {n} r = {r}"),
        "m, s",
        [("w=8", Fmt::Fixed(1)), ("w=16", Fmt::Fixed(1))],
    );
    for m in 1..=3usize {
        for s in 1..=3usize {
            let (Ok(w8), Ok(w16)) = (
                SdCode::<Gf8>::new(n, r, m, s),
                SdCode::<Gf16>::new(n, r, m, s),
            ) else {
                continue;
            };
            let mut probes = [
                sd_probe(Op::Encode, Box::new(w8), stripe),
                sd_probe(Op::Encode, Box::new(w16), stripe),
            ];
            let v = interleave(&mut probes, scale.reps());
            widths.push(format!("m={m} s={s}"), vec![Some(v[0]), Some(v[1])]);
        }
    }
    fig.tables.push(widths);
    fig.notes = vec![
        format!("(GF(2^8) kernel tier: {})", gf8_tier()),
        "(paper: STAIR beats SD by ~106% on average through parity reuse; speed".into(),
        " increases with n and r as the parity fraction shrinks — §6.2.1)".into(),
    ];
    fig.claim(stair_beats_sd(
        "STAIR encodes faster than SD at equal s (§6.2.1)",
    ))
    .claim(
        Claim::new(
            "w = 8 only modestly beats w = 16: under ×2 for SD at every m, s",
            |f| {
                let t = f.table("(c)")?;
                let mut worst = 0.0f64;
                for row in t.labels() {
                    worst = worst.max(t.at(row, "w=8")? / t.at(row, "w=16")?);
                }
                ensure(worst < 2.0, || format!("w=8/w=16 up to ×{worst:.1}"))
                    .map(|()| format!("up to ×{worst:.2}"))
            },
        )
        .pending("item 12(a)"),
    )
}

/// "128 KB", "2 MB": a stripe size as Fig. 12 labels it.
fn size_label(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{} MB", bytes >> 20)
    } else {
        format!("{} KB", bytes >> 10)
    }
}

/// Per m, the same-run geometric mean over s of ST_s at row `a` over ST_s
/// at row `b`.
fn stair_growth(t: &Table, a: &str, b: &str) -> Result<f64, String> {
    let ratios: Vec<f64> = SPEEDS[3..]
        .iter()
        .map(|c| Ok(t.at(a, c)? / t.at(b, c)?))
        .collect::<Result<_, String>>()?;
    Ok(geomean(&ratios))
}

/// **Fig. 12**: encoding speed vs stripe size, 128 KB up to the scale's
/// largest stripe, n = r = 16. Per m and s, STAIR's and SD's probes at
/// every size run interleaved, so a row's ST/SD and a column's shape are
/// both same-run ratios.
pub(crate) fn fig12(scale: Scale) -> Figure {
    let (n, r) = (16usize, 16usize);
    let sizes: Vec<usize> = std::iter::successors(Some(128usize << 10), |b| Some(b * 4))
        .take_while(|&b| b <= scale.max_stripe_bytes())
        .collect();
    let labels: Vec<String> = sizes.iter().map(|&b| size_label(b)).collect();
    let mut fig = Figure::new("Fig. 12: encoding speed (MB/s) vs stripe size, n = r = 16\n");
    for m in 1..=3usize {
        let mut values = vec![vec![None; SPEEDS.len()]; sizes.len()];
        for s in 1..=4usize {
            let mut slots = Vec::new();
            let mut probes = Vec::new();
            for (i, &size) in sizes.iter().enumerate() {
                if let Some(e) = worst_case_e(n, r, m, s) {
                    slots.push((i, 2 + s));
                    probes.push(stair_probe(Op::Encode, n, r, m, &e, size));
                }
                if let Some(code) = (s <= 3).then(|| sd_code(n, r, m, s).ok()).flatten() {
                    slots.push((i, s - 1));
                    probes.push(sd_probe(Op::Encode, code, size));
                }
            }
            for ((i, c), v) in slots.into_iter().zip(interleave(&mut probes, scale.reps())) {
                values[i][c] = Some(v);
            }
        }
        let mut t = Table::new(
            format!("m = {m}:"),
            "stripe",
            SPEEDS.map(|c| (c, Fmt::Fixed(1))),
        );
        for (label, row) in labels.iter().zip(values) {
            t.push(label.clone(), row);
        }
        fig.tables.push(t);
    }
    fig.notes = vec![
        format!("(GF(2^8) kernel tier: {})", gf8_tier()),
        "(paper: speed first rises then falls with stripe size — SIMD vs cache".into(),
        " effects; STAIR's advantage over SD persists at every size — §6.2.1)".into(),
    ];
    let (first, second, last) = (
        labels[0].clone(),
        labels[1].clone(),
        labels[labels.len() - 1].clone(),
    );
    let falls = Claim::new(
        "…then falls: for every m, STAIR is slower at the largest stripe than at its best (§6.2.1)",
        move |f| {
            let mut out = Vec::new();
            for t in &f.tables {
                // The fastest size, by ST_s there over ST_s at the largest.
                let mut best = (last.as_str(), 1.0);
                for row in t.labels() {
                    let g = stair_growth(t, row, &last)?;
                    if g > best.1 {
                        best = (row, g);
                    }
                }
                ensure(best.1 > 1.0, || {
                    format!("{} is fastest at {last}", t.caption)
                })?;
                out.push(format!("×{:.2} of {}", 1.0 / best.1, best.0));
            }
            Ok(out.join(", "))
        },
    );
    // The peak sits at 512 KB to 2 MB, so a sweep that stops below 8 MB
    // may not see the fall.
    let falls = if sizes.len() < 4 {
        falls.pending("full scale: `paper fig12`")
    } else {
        falls
    };
    // At n = r = 16 SD needs GF(2^16), whose kernel is scalar (item
    // 12(a)), so STAIR's lead here is mostly its GF(2^8) SIMD tier: on
    // the scalar tier ST1 and SD1 tie at m = 1.
    let every_size = Claim::new(
        "STAIR encodes faster than SD at equal s at every stripe size (§6.2.1)",
        |f| {
            let mut least = f64::INFINITY;
            for t in &f.tables {
                for row in t.labels() {
                    for s in 1..=3 {
                        if let (Some(st), Some(sd)) =
                            (t.get(row, &format!("ST{s}")), t.get(row, &format!("SD{s}")))
                        {
                            ensure(st > sd, || {
                                format!("{} {row}: ST{s} {st:.0} ≤ SD{s} {sd:.0}", t.caption)
                            })?;
                            least = least.min(st / sd);
                        }
                    }
                }
            }
            Ok(format!("ST_s/SD_s ≥ ×{least:.1}"))
        },
    );
    let every_size = if gf8_tier() == "scalar" {
        every_size.pending("item 22: a SIMD GF(2^8) tier")
    } else {
        every_size
    };
    fig.claim(every_size)
        .claim(
            Claim::new(
                format!(
                    "speed first rises: for every m, STAIR is faster at {second} than at {first} \
                     (§6.2.1)"
                ),
                move |f| {
                    let mut out = Vec::new();
                    for t in &f.tables {
                        let g = stair_growth(t, &second, &first)?;
                        ensure(g > 1.0, || format!("{} ×{g:.2}", t.caption))?;
                        out.push(format!("×{g:.2}"));
                    }
                    Ok(out.join(", "))
                },
            )
            // The margin follows the kernel tier (×1.0 scalar, ×1.3 AVX2,
            // ×1.4–1.7 GFNI on one host) and the host's caches.
            .pending("item 22"),
        )
        .claim(falls)
}

/// **Fig. 13**: worst-case decoding speed of STAIR vs SD codes, and the
/// §6.2.2 decoding of device failures alone against the worst case.
pub(crate) fn fig13(scale: Scale) -> Figure {
    let stripe = scale.stripe_bytes();
    let mut fig = Figure::new(format!(
        "Fig. 13: worst-case decoding speed (MB/s), stripe = {} MB\n",
        stripe >> 20
    ));
    fig.tables = sweep(Op::Decode, scale);
    let mut t = Table::new(
        "§6.2.2: decoding with only device failures (s = 0) vs worst case (s = 1), n = r = 16",
        "m",
        [
            ("device-only", Fmt::Fixed(0)),
            ("worst-case", Fmt::Fixed(0)),
            ("gain %", Fmt::Fixed(1)),
        ],
    );
    for m in 1..=3usize {
        let e = worst_case_e(16, 16, m, 1).expect("feasible");
        let mut probes = [
            device_only_probe(16, 16, m, &e, stripe),
            stair_probe(Op::Decode, 16, 16, m, &e, stripe),
        ];
        let v = interleave(&mut probes, scale.reps());
        t.push(
            m.to_string(),
            vec![Some(v[0]), Some(v[1]), Some((v[0] / v[1] - 1.0) * 100.0)],
        );
    }
    fig.tables.push(t);
    fig.notes = vec![format!("(GF(2^8) kernel tier: {})", gf8_tier())];
    fig.claim(stair_beats_sd(
        "STAIR decodes the worst case faster than SD at equal s (§6.2.2)",
    ))
    .claim(
        Claim::new(
            "decoding device failures alone is faster than the worst case, at every m (§6.2.2)",
            |f| {
                let t = f.table("§6.2.2")?;
                let mut out = Vec::new();
                for m in t.labels() {
                    let gain = t.at(m, "gain %")?;
                    ensure(gain > 0.0, || format!("m = {m}: {gain:+.1} %"))?;
                    out.push(format!("{gain:+.0} %"));
                }
                Ok(out.join(", "))
            },
        )
        // The worst-case plan zeroes a fresh buffer of intermediates on
        // every apply, whose cost follows the allocator's state: at 1 MB
        // stripes m = 3 reads +36 … +41 % in a fresh process and
        // +112 … +120 % after every other figure ran.
        .pending("item 10(f)"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_of_a_check_scale_row_is_positive() {
        let stripe = Scale::Check.stripe_bytes();
        for op in [Op::Encode, Op::Decode] {
            let (cols, mut probes): (Vec<usize>, Vec<Probe>) =
                row_probes(op, 8, 8, 1, stripe).into_iter().unzip();
            assert_eq!(
                cols,
                [0, 1, 2, 3, 4, 5, 6],
                "SD s = 1..3 and STAIR s = 1..4 all exist"
            );
            let speeds = interleave(&mut probes, 1);
            assert!(speeds.iter().all(|&v| v > 0.0), "{speeds:?}");
        }
    }

    #[test]
    fn worst_case_erasures_are_covered() {
        let config = Config::new(8, 16, 2, &[1, 2]).unwrap();
        let erased = worst_case_erasures(&config);
        assert!(config.spec().covers(&ErasureSet::from(&erased[..])));
        assert_eq!(erased.len(), 2 * 16 + 3);
    }
}
