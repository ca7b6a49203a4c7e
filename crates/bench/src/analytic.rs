//! The figures computed from formulas and plans, not timed: Tables 2–4,
//! Figs. 9, 10, 14, 15, 17–19 and the App. B Monte-Carlo cross-check.
//! Their claims are exact, so `tests/paper.rs` holds every one.

use std::fmt::Write as _;

use stair::{devices_saved, Config, EncodingMethod, GlobalPlacement, MultXorCounts, StairCodec};
use stair_code::{CodecSpec, ErasureCode};
use stair_gf::Gf8;
use stair_reliability::montecarlo::estimate_p_str;
use stair_reliability::{p_chk, p_str, BurstModel, SectorModel, SystemParams};
use stair_sd::RsArrayCode;

use crate::figure::{ensure, Claim, Figure, Fmt, Scale, Table};
use crate::{feasible_es, partitions, sd_code};

const TABLE2_GOLDEN: &str = include_str!("../tests/fixtures/table2_upstairs_steps.txt");
const TABLE3_GOLDEN: &str = include_str!("../tests/fixtures/table3_downstairs_steps.txt");

/// A claim that the figure prints `golden` byte for byte.
fn golden(says: &str, golden: &'static str) -> Claim {
    Claim::new(says, move |f| {
        ensure(f.render() == golden, || {
            "output differs from the golden".into()
        })
        .map(|()| "byte-identical".into())
    })
}

/// **Table 2**: the upstairs decoding schedule of the running example
/// (n = 8, r = 4, m = 2, e = (1,1,2), outside globals) under the Fig. 4
/// worst case, and the `Mult_XOR` count of the plan it lowers to.
pub(crate) fn table2(_: Scale) -> Figure {
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
    Figure::new(out).claim(golden(
        "the schedule and its plan's Mult_XORs are the paper's Table 2 (committed golden)",
        TABLE2_GOLDEN,
    ))
}

/// **Table 3**: the downstairs encoding schedule of the running example
/// with inside global parities, against Eq. 6, and the upstairs cost
/// against Eq. 5.
pub(crate) fn table3(_: Scale) -> Figure {
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
    Figure::new(out).claim(golden(
        "the schedule and its Mult_XORs are the paper's Table 3 (committed golden)",
        TABLE3_GOLDEN,
    ))
}

/// Every pair of rows of `t` ordered by `key` is ordered the same way by
/// `value` (strictly), and rows with equal `key` have equal `value`
/// unless `ties` is false.
fn grows_with(t: &Table, key: &str, value: &str, ties: bool) -> Result<(), String> {
    let rows: Vec<&str> = t.labels().collect();
    for a in &rows {
        for b in &rows {
            let (ka, kb) = (t.at(a, key)?, t.at(b, key)?);
            let (va, vb) = (t.at(a, value)?, t.at(b, value)?);
            let ok = if ka < kb {
                va < vb
            } else {
                ka > kb || !ties || va == vb
            };
            ensure(ok, || {
                format!(
                    "{}: {value} {a} = {va} vs {b} = {vb} against {key}",
                    t.caption
                )
            })?;
        }
    }
    Ok(())
}

/// **Fig. 9**: `Mult_XOR`s per stripe of the three encoding methods for
/// n = 8, m = 2, s = 4, over all e and r ∈ {8, 16, 24, 32}, next to the
/// counts of the upstairs and downstairs schedules the codec builds.
pub(crate) fn fig09(_: Scale) -> Figure {
    let (n, m, s) = (8, 2, 4);
    let mut fig = Figure::new(format!("Fig. 9: Mult_XORs per stripe, n={n} m={m} s={s}\n"));
    for r in [8usize, 16, 24, 32] {
        let mut t = Table::new(
            format!("r = {r}"),
            "e",
            [
                ("m'", Fmt::Plain),
                ("e_max", Fmt::Plain),
                ("Standard", Fmt::Plain),
                ("Upstairs", Fmt::Plain),
                ("Downstairs", Fmt::Plain),
                ("up schedule", Fmt::Plain),
                ("down schedule", Fmt::Plain),
            ],
        );
        for e in partitions(s) {
            let Ok(config) = Config::new(n, r, m, &e) else {
                continue;
            };
            let codec: StairCodec = StairCodec::new(config.clone()).expect("codec");
            let counts = MultXorCounts::analytic(&config);
            let counted = |method| codec.encode_schedule(method).expect("schedule").mult_xors();
            let values = [
                config.m_prime(),
                config.e_max(),
                codec.relations().standard_mult_xors(),
                counts.upstairs,
                counts.downstairs,
                counted(EncodingMethod::Upstairs),
                counted(EncodingMethod::Downstairs),
            ];
            t.push(
                format!("{e:?}"),
                values.iter().map(|&v| Some(v as f64)).collect(),
            );
        }
        fig.tables.push(t);
    }
    fig.notes = vec![
        "(paper: upstairs grows with e_max, downstairs with m'; reuse methods beat".into(),
        " standard most of the time — §5.3)".into(),
    ];
    let each_row = |f: &Figure, check: &dyn Fn(&Table, &str) -> Result<(), String>| {
        for t in &f.tables {
            for label in t.labels() {
                check(t, label)?;
            }
        }
        Ok(format!("{} tables", f.tables.len()))
    };
    fig.claim(Claim::new(
        "Eq. 5 and Eq. 6 are the Mult_XORs of the upstairs and downstairs schedules (§5.3)",
        move |f| {
            each_row(f, &|t, row| {
                let [eq5, eq6, up, down] =
                    ["Upstairs", "Downstairs", "up schedule", "down schedule"]
                        .map(|c| t.get(row, c));
                ensure(eq5 == up && eq6 == down, || {
                    format!(
                        "{} {row}: Eq. 5/6 {eq5:?}/{eq6:?}, schedules {up:?}/{down:?}",
                        t.caption
                    )
                })
            })
        },
    ))
    .claim(Claim::new(
        "upstairs cost grows with e_max and downstairs with m', equal at equal e_max or m' (§5.3)",
        |f| {
            for t in &f.tables {
                grows_with(t, "e_max", "Upstairs", true)?;
                grows_with(t, "m'", "Downstairs", true)?;
            }
            Ok("every r".into())
        },
    ))
    .claim(Claim::new(
        "the reuse methods never tie, and downstairs is the cheaper exactly when e_max > m' (the \
         crossover)",
        move |f| {
            each_row(f, &|t, row| {
                let (up, down) = (t.at(row, "Upstairs")?, t.at(row, "Downstairs")?);
                ensure(
                    up != down && (down < up) == (t.at(row, "e_max")? > t.at(row, "m'")?),
                    || format!("{} {row}: the crossover is elsewhere", t.caption),
                )
            })
        },
    ))
    .claim(Claim::new(
        "the cheaper reuse method beats standard encoding in every row (paper: most of the time)",
        move |f| {
            each_row(f, &|t, row| {
                let reuse = t.at(row, "Upstairs")?.min(t.at(row, "Downstairs")?);
                ensure(reuse < t.at(row, "Standard")?, || {
                    format!("{} {row}: standard is cheaper", t.caption)
                })
            })
        },
    ))
}

/// **Fig. 10**: devices saved by STAIR codes over traditional erasure
/// codes, as a function of r, for s ≤ 4 and m' ≤ s.
pub(crate) fn fig10(_: Scale) -> Figure {
    let mut fig = Figure::new("Fig. 10: devices saved (m' − s/r) per system\n");
    for s in 1..=4usize {
        let columns: Vec<(String, Fmt)> = (1..=s)
            .map(|mp| (format!("m'={mp}"), Fmt::Fixed(3)))
            .collect();
        let mut t = Table::new(format!("s = {s}:"), "r", columns);
        for r in [2usize, 4, 8, 16, 24, 32] {
            t.push(
                r.to_string(),
                (1..=s).map(|mp| Some(devices_saved(s, mp, r))).collect(),
            );
        }
        fig.tables.push(t);
    }
    fig.notes = vec![
        "(paper: saving approaches m' as r grows; maximal at m' = s; SD codes".into(),
        " always save s − s/r but exist only for s ≤ 3 — §6.1)".into(),
    ];
    fig.claim(Claim::new(
        "the saving approaches m' from below as r grows, short of it by exactly s/r (§6.1)",
        |f| {
            for (s, t) in (1..=4usize).zip(&f.tables) {
                for mp in 1..=s {
                    let mut last = f64::NEG_INFINITY;
                    for label in t.labels() {
                        let r: f64 = label.parse().map_err(|_| format!("row `{label}`"))?;
                        let saved = t.at(label, &format!("m'={mp}"))?;
                        let gap = mp as f64 - saved;
                        ensure(saved > last && (gap - s as f64 / r).abs() < 1e-12, || {
                            format!("s={s} m'={mp} r={r}: saved {saved}")
                        })?;
                        last = saved;
                    }
                }
            }
            Ok("s = 1..4, every m' and r".into())
        },
    ))
    .claim(Claim::new(
        "the saving is largest at m' = s, SD's s − s/r (§6.1)",
        |f| {
            for (s, t) in (1..=4usize).zip(&f.tables) {
                for label in t.labels() {
                    let best = t.at(label, &format!("m'={s}"))?;
                    for mp in 1..s {
                        let v = t.at(label, &format!("m'={mp}"))?;
                        ensure(v < best, || {
                            format!("s={s} r={label}: m'={mp} saves {v} ≥ {best}")
                        })?;
                    }
                }
            }
            Ok("every s and r".into())
        },
    ))
}

/// The parity cells the updates of every data cell touch in all (each
/// the non-zero column of the code's encoding matrix), and the number of
/// data cells.
fn update_cost(code: &dyn ErasureCode) -> (usize, usize) {
    let data = code.geometry().data_cells;
    let touched = data
        .iter()
        .map(|&cell| code.dependents(cell).expect("a data cell").len())
        .sum();
    (touched, data.len())
}

/// The average number of parity cells one data-cell update touches.
fn update_penalty(code: &dyn ErasureCode) -> f64 {
    let (touched, data) = update_cost(code);
    touched as f64 / data as f64
}

/// **Fig. 14**: the average update penalty of STAIR codes for every e,
/// n = 16, s = 4, r ∈ {8, 16, 24, 32}, m ∈ {1, 2, 3}; and the penalty of
/// the configuration the layer ledger gates.
pub(crate) fn fig14(_: Scale) -> Figure {
    let (n, s) = (16usize, 4usize);
    let mut fig = Figure::new(format!("Fig. 14: average update penalty, n={n} s={s}\n"));
    let ms = ["m=1", "m=2", "m=3"];
    for r in [8usize, 16, 24, 32] {
        let mut t = Table::new(
            format!("r = {r}"),
            "e",
            [
                ("e_max", Fmt::Plain),
                (ms[0], Fmt::Fixed(2)),
                (ms[1], Fmt::Fixed(2)),
                (ms[2], Fmt::Fixed(2)),
            ],
        );
        for e in partitions(s) {
            let mut values = vec![e.last().map(|&v| v as f64)];
            values.extend((1..=3usize).map(|m| {
                let config = Config::new(n, r, m, &e).ok()?;
                let codec: StairCodec = StairCodec::new(config).expect("codec");
                Some(update_penalty(&codec))
            }));
            t.push(format!("{e:?}"), values);
        }
        fig.tables.push(t);
    }
    let codec: StairCodec =
        StairCodec::new(Config::new(8, 16, 2, &[1, 2]).expect("config")).expect("codec");
    let (touched, data) = update_cost(&codec);
    let mut ledger = Table::new(
        "the layer ledger's configuration, stair:8,16,2,1-2",
        "e",
        [
            ("parity cells", Fmt::Plain),
            ("data cells", Fmt::Plain),
            ("average", Fmt::Fixed(3)),
        ],
    );
    ledger.push(
        "[1, 2]",
        vec![
            Some(touched as f64),
            Some(data as f64),
            Some(touched as f64 / data as f64),
        ],
    );
    fig.tables.push(ledger);
    fig.notes =
        vec!["(paper: penalty increases with m, and for fixed s grows with e_max — §6.3)".into()];
    fig.claim(Claim::new(
        "the penalty increases with m in every row (§6.3)",
        move |f| {
            for t in &f.tables[..4] {
                for label in t.labels() {
                    let v: Vec<f64> = ms.iter().filter_map(|m| t.get(label, m)).collect();
                    ensure(v.windows(2).all(|w| w[0] < w[1]), || {
                        format!("{} {label}: {v:?}", t.caption)
                    })?;
                }
            }
            Ok("r = 8..32, every e".into())
        },
    ))
    .claim(Claim::new(
        "at r ≥ 16 the penalty grows with e_max at every m (§6.3)",
        move |f| {
            for t in &f.tables[1..4] {
                for m in ms {
                    grows_with(t, "e_max", m, false)?;
                }
            }
            Ok("r = 16, 24, 32".into())
        },
    ))
    .claim(Claim::new(
        "at r = 8 it does not: e = (1, 3) pays more than e = (4) at every m",
        move |f| {
            let t = f.table("r = 8")?;
            let mut out = Vec::new();
            for m in ms {
                let (a, b) = (t.at("[1, 3]", m)?, t.at("[4]", m)?);
                ensure(a > b, || format!("{m}: (1,3) {a:.2} ≤ (4) {b:.2}"))?;
                out.push(format!("{m}: {a:.2} > {b:.2}"));
            }
            Ok(out.join(", "))
        },
    ))
    .claim(Claim::new(
        "stair:8,16,2,1-2 patches 792 parity cells for its 93 data cells: 8.516 per update, the \
         value the layer ledger gates",
        |f| {
            let t = f.table("the layer ledger")?;
            let got = [
                t.at("[1, 2]", "parity cells")?,
                t.at("[1, 2]", "data cells")?,
            ];
            ensure(got == [792.0, 93.0], || format!("{got:?}"))?;
            Ok(format!("{:.3}", t.at("[1, 2]", "average")?))
        },
    ))
}

/// **Fig. 15**: update penalty of STAIR (min/avg/max over all feasible
/// e) vs SD vs Reed–Solomon, n = r = 16, m ∈ {1, 2, 3}.
pub(crate) fn fig15(_: Scale) -> Figure {
    let (n, r) = (16usize, 16usize);
    let mut fig = Figure::new(format!("Fig. 15: update penalty, n = r = {n}\n"));
    for m in 1..=3usize {
        let rs: RsArrayCode<Gf8> = RsArrayCode::new(n, r, m).expect("rs");
        let rs = update_penalty(&rs);
        let mut t = Table::new(
            format!("m = {m}:"),
            "s",
            [
                ("RS", Fmt::Fixed(2)),
                ("STAIR min", Fmt::Fixed(2)),
                ("avg", Fmt::Fixed(2)),
                ("max", Fmt::Fixed(2)),
                ("SD", Fmt::Fixed(2)),
            ],
        );
        for s in 1..=4usize {
            let mut p: Vec<f64> = feasible_es(n, r, m, s)
                .iter()
                .map(|e| {
                    let codec: StairCodec =
                        StairCodec::new(Config::new(n, r, m, e).expect("feasible")).expect("codec");
                    update_penalty(&codec)
                })
                .collect();
            p.sort_by(f64::total_cmp);
            let avg = p.iter().sum::<f64>() / p.len() as f64;
            // SD constructions exist for s ≤ 3 only.
            let sd = (s <= 3).then(|| sd_code(n, r, m, s).ok()).flatten();
            let sd = sd.map(|code| update_penalty(&*code));
            t.push(
                format!("s={s}"),
                vec![
                    Some(rs),
                    p.first().copied(),
                    Some(avg),
                    p.last().copied(),
                    sd,
                ],
            );
        }
        fig.tables.push(t);
    }
    fig.notes = vec![
        "(paper: STAIR's range covers SD's value; both exceed RS — suited to".into(),
        " systems with rare updates or full-stripe writes — §6.3)".into(),
    ];
    // Rows where SD exists, as (table, row, SD's penalty).
    fn with_sd(f: &Figure) -> impl Iterator<Item = (&Table, &str, f64)> {
        f.tables.iter().flat_map(|t| {
            t.labels()
                .filter_map(move |row| Some((t, row, t.get(row, "SD")?)))
        })
    }
    fig.claim(Claim::new(
        "STAIR's min..max over all e covers SD's penalty at every m and s ≤ 3 (§6.3)",
        |f| {
            for (t, row, sd) in with_sd(f) {
                let (lo, hi) = (t.at(row, "STAIR min")?, t.at(row, "max")?);
                ensure(lo <= sd && sd <= hi, || {
                    format!("{} {row}: SD {sd:.2} outside {lo:.2}..{hi:.2}", t.caption)
                })?;
            }
            Ok("m = 1..3, s = 1..3".into())
        },
    ))
    .claim(Claim::new(
        "STAIR and SD both pay more than RS (§6.3)",
        |f| {
            for t in &f.tables {
                for row in t.labels() {
                    let rs = t.at(row, "RS")?;
                    let least = t
                        .get(row, "SD")
                        .unwrap_or(f64::INFINITY)
                        .min(t.at(row, "STAIR min")?);
                    ensure(least > rs, || {
                        format!("{} {row}: {least:.2} ≤ RS {rs:.2}", t.caption)
                    })?;
                }
            }
            Ok("RS pays m".into())
        },
    ))
    .claim(Claim::new(
        "STAIR's average is not between RS and SD: it exceeds SD at every m for s = 2, 3",
        |f| {
            let mut worst = f64::INFINITY;
            for (t, row, sd) in with_sd(f).filter(|&(_, row, _)| row != "s=1") {
                let avg = t.at(row, "avg")?;
                ensure(avg > sd, || {
                    format!("{} {row}: avg {avg:.2} ≤ SD {sd:.2}", t.caption)
                })?;
                worst = worst.min(avg / sd);
            }
            Ok(format!("avg/SD ≥ {worst:.2}"))
        },
    ))
}

/// **Table 4** (§7.2, Eq. 7): storage arrays needed to hold 10 PiB of
/// user data for s = 0..12 (n = 8, r = 16, m = 1, C = 300 GiB).
pub(crate) fn table4(_: Scale) -> Figure {
    let params = SystemParams::paper_defaults();
    let mut fig = Figure::new("§7.2 N_arr table (U = 10 PiB, C = 300 GiB, n = 8, r = 16, m = 1)\n");
    let mut t = Table::new("", "s", [("N_arr", Fmt::Plain)]);
    for s in 0..=12usize {
        let spec = if s == 0 {
            "rs:8,16,1".to_string()
        } else {
            format!("sd:8,16,1,{s}")
        };
        let spec: CodecSpec = spec.parse().expect("valid spec");
        t.push(s.to_string(), vec![Some(params.narr(&spec) as f64)]);
    }
    fig.tables.push(t);
    fig.claim(Claim::new(
        "N_arr is the paper's 4994, 5039, 5085, 5131, 5179, 5227, 5276, 5327, 5378, 5430, 5483, \
         5538, 5593",
        |f| {
            const PAPER: [f64; 13] = [
                4994., 5039., 5085., 5131., 5179., 5227., 5276., 5327., 5378., 5430., 5483., 5538.,
                5593.,
            ];
            let t = &f.tables[0];
            for (s, want) in PAPER.iter().enumerate() {
                let got = t.at(&s.to_string(), "N_arr")?;
                ensure(got == *want, || format!("s = {s}: {got}"))?;
            }
            Ok("s = 0..12".into())
        },
    ))
}

/// The P_bit grid of Figs. 17–18: 10^-14 .. 10^-10 in quarter decades.
fn pbits() -> Vec<f64> {
    (0..=16)
        .map(|i| 1e-14 * 10f64.powf(i as f64 / 4.0))
        .collect()
}

/// MTTDL_sys (hours) of each `(column, spec)` at every P_bit.
fn mttdl_curves(caption: &str, model: &SectorModel, codes: &[(&str, &str)]) -> Table {
    let params = SystemParams::paper_defaults();
    let specs: Vec<CodecSpec> = codes
        .iter()
        .map(|(_, s)| s.parse().expect("valid spec"))
        .collect();
    let columns: Vec<(&str, Fmt)> = codes.iter().map(|&(name, _)| (name, Fmt::Sci(3))).collect();
    let mut t = Table::new(caption, "P_bit", columns);
    for pb in pbits() {
        t.push(
            format!("{pb:.1e}"),
            specs
                .iter()
                .map(|spec| Some(params.mttdl_sys(spec, model, pb)))
                .collect(),
        );
    }
    t
}

/// Rows of `t` (labelled by P_bit) whose P_bit satisfies `keep`.
fn rows_where(t: &Table, keep: impl Fn(f64) -> bool) -> Vec<&str> {
    t.labels()
        .filter(|l| l.parse::<f64>().is_ok_and(&keep))
        .collect()
}

/// **Fig. 17**: MTTDL_sys vs P_bit under independent sector failures —
/// (a) RS, STAIR/SD s = 1, STAIR e = (2), (1,1), SD s = 2; (b) STAIR
/// s = 3 with e = (3), (1,2), (1,1,1).
pub(crate) fn fig17(_: Scale) -> Figure {
    let model = SectorModel::Independent;
    let mut fig = Figure::new("Fig. 17: MTTDL_sys (hours) vs P_bit, independent sector failures\n");
    fig.tables.push(mttdl_curves(
        "(a)",
        &model,
        &[
            ("RS (s=0)", "rs:8,16,1"),
            ("STAIR/SD s=1", "stair:8,16,1,1"),
            ("STAIR e=(2)", "stair:8,16,1,2"),
            ("STAIR e=(1,1)", "stair:8,16,1,1-1"),
            ("SD s=2", "sd:8,16,1,2"),
        ],
    ));
    fig.tables.push(mttdl_curves(
        "(b) STAIR configurations with s = 3",
        &model,
        &[
            ("STAIR e=(3)", "stair:8,16,1,3"),
            ("STAIR e=(1,2)", "stair:8,16,1,1-2"),
            ("STAIR e=(1,1,1)", "stair:8,16,1,1-1-1"),
        ],
    ));
    fig.notes = vec![
        "(paper: s=1 beats RS by >2 orders at P_bit=1e-14; e=(1,2) is the most".into(),
        " reliable s=3 shape under independent failures — §7.2.1)".into(),
    ];
    fig.claim(Claim::new(
        "at P_bit = 1e-14 one parity sector (s = 1) buys more than two orders of magnitude over \
         RS (§7.2.1)",
        |f| {
            let t = f.table("(a)")?;
            let ratio = t.at("1.0e-14", "STAIR/SD s=1")? / t.at("1.0e-14", "RS (s=0)")?;
            ensure(ratio > 100.0, || format!("×{ratio:.0}")).map(|()| format!("×{ratio:.0}"))
        },
    ))
    .claim(Claim::new(
        "e = (1, 2) is the most reliable s = 3 shape at every P_bit ≥ 1e-12, where the curves \
         part (§7.2.1)",
        |f| {
            let t = f.table("(b)")?;
            let rows = rows_where(t, |pb| pb >= 1e-12);
            for &row in &rows {
                let [e3, e12, e111] =
                    ["STAIR e=(3)", "STAIR e=(1,2)", "STAIR e=(1,1,1)"].map(|c| t.get(row, c));
                ensure(e12 > e3 && e12 > e111, || {
                    format!("P_bit {row}: (1,2) {e12:?}, (3) {e3:?}, (1,1,1) {e111:?}")
                })?;
            }
            Ok(format!("{} P_bit values", rows.len()))
        },
    ))
}

/// The columns of Fig. 18, in order.
const FIG18: [(&str, &str); 9] = [
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

/// **Fig. 18**: MTTDL_sys vs P_bit under correlated sector-failure
/// bursts with (b1, α) = (0.98, 1.79), the "D-2" drive model fit.
pub(crate) fn fig18(_: Scale) -> Figure {
    let model = SectorModel::Correlated(BurstModel::from_pareto(0.98, 1.79, 16));
    let mut fig =
        Figure::new("Fig. 18: MTTDL_sys (hours) vs P_bit, correlated bursts (b1=0.98, α=1.79)\n");
    fig.tables.push(mttdl_curves("", &model, &FIG18));
    fig.notes = vec![
        "(paper: all schemes show power-law decrease; STAIR e=(e0..em'−1) tracks".into(),
        " SD with s = e_max; e=(s) is the best shape under bursts — §7.2.2)".into(),
    ];
    fig.claim(Claim::new(
        "every curve falls (or stays) as P_bit grows (§7.2.2)",
        |f| {
            let t = &f.tables[0];
            for (name, _) in FIG18 {
                let v: Vec<f64> = t.labels().filter_map(|row| t.get(row, name)).collect();
                ensure(v.windows(2).all(|w| w[1] <= w[0]), || {
                    format!("{name} rises: {v:?}")
                })?;
            }
            Ok(format!("{} curves", FIG18.len()))
        },
    ))
    .claim(Claim::new(
        "STAIR with e = (e_0..e_m'−1) is within 5 % of SD with s = e_max at every P_bit (§7.2.2)",
        |f| {
            let t = &f.tables[0];
            let pairs = [
                ("STAIR e=(2)", "SD s=2"),
                ("STAIR e=(1,1)", "STAIR/SD s=1"),
                ("STAIR e=(3)", "SD s=3"),
                ("STAIR e=(1,2)", "SD s=2"),
                ("STAIR e=(1,1,1)", "STAIR/SD s=1"),
            ];
            let mut worst = 0.0f64;
            for row in t.labels() {
                for (stair, sd) in pairs {
                    let dev = (t.at(row, stair)? / t.at(row, sd)? - 1.0).abs();
                    ensure(dev < 0.05, || {
                        format!("P_bit {row}: {stair} off {sd} by {dev:.3}")
                    })?;
                    worst = worst.max(dev);
                }
            }
            Ok(format!("largest gap {:.1} %", worst * 100.0))
        },
    ))
    .claim(Claim::new(
        "e = (s) is the best shape under bursts: (3) > (1,2) > (1,1,1) and (2) > (1,1) at every \
         P_bit ≤ 1e-11, before the curves meet at the device-failure floor (§7.2.2)",
        |f| {
            let t = &f.tables[0];
            let rows = rows_where(t, |pb| pb <= 1e-11);
            for &row in &rows {
                let v = |c| t.at(row, c);
                let ok = v("STAIR e=(3)")? > v("STAIR e=(1,2)")?
                    && v("STAIR e=(1,2)")? > v("STAIR e=(1,1,1)")?
                    && v("STAIR e=(2)")? > v("STAIR e=(1,1)")?;
                ensure(ok, || format!("P_bit {row}: the order breaks"))?;
            }
            Ok(format!("{} P_bit values", rows.len()))
        },
    ))
}

/// The five `(b1, α)` pairs Fig. 19(a) plots, burstiest first.
const FIG19A: [(f64, f64); 5] = [
    (0.9, 1.0),
    (0.98, 1.79),
    (0.99, 2.0),
    (0.999, 3.0),
    (0.9999, 4.0),
];

/// **Fig. 19(a)**: the CDFs of the sector-failure burst length for the
/// five `(b1, α)` pairs the paper plots, truncated at r = 16.
pub(crate) fn fig19a(_: Scale) -> Figure {
    let r = 16;
    let mut fig = Figure::new(format!(
        "Fig. 19(a): burst-length CDFs, truncated at r = {r}\n"
    ));
    let names: Vec<String> = FIG19A
        .iter()
        .map(|(b1, a)| format!("b1={b1} α={a}"))
        .collect();
    let models: Vec<BurstModel> = FIG19A
        .iter()
        .map(|&(b1, a)| BurstModel::from_pareto(b1, a, r))
        .collect();
    let mut cdf = Table::new("", "len", names.iter().map(|n| (n.as_str(), Fmt::Fixed(6))));
    for len in 1..=r {
        cdf.push(
            len.to_string(),
            models.iter().map(|m| Some(m.cdf(len))).collect(),
        );
    }
    let mut mean = Table::new(
        "mean burst length (Eq. 14)",
        "",
        names.iter().map(|n| (n.as_str(), Fmt::Fixed(4))),
    );
    mean.push("B", models.iter().map(|m| Some(m.mean())).collect());
    fig.tables = vec![cdf, mean];
    fig.notes = vec![
        "(paper: smaller b1 and α mean burstier failures; field fits give B ≈ 1.03;".into(),
        " here the D-2 fit (0.98, 1.79) gives 1.0525 and (0.99, 2) gives 1.0234)".into(),
    ];
    let names2 = names.clone();
    fig.claim(Claim::new(
        "each CDF is its fitted truncated Pareto: b1 + (1 − b1)(1 − ((i+1)/2)^−α) below r, 1 at r",
        move |f| {
            let t = &f.tables[0];
            for ((b1, a), name) in FIG19A.iter().zip(&names) {
                for len in 1..=r {
                    let want = if len == r {
                        1.0
                    } else {
                        b1 + (1.0 - b1) * (1.0 - ((len as f64 + 1.0) / 2.0).powf(-a))
                    };
                    let got = t.at(&len.to_string(), name)?;
                    ensure((got - want).abs() < 1e-12, || {
                        format!("{name} len {len}: {got} vs {want}")
                    })?;
                }
            }
            Ok("5 models × 16 lengths".into())
        },
    ))
    .claim(Claim::new(
        "smaller b1 and α mean burstier failures: below r every CDF, and B, order the five fits",
        move |f| {
            let (cdf, mean) = (&f.tables[0], &f.tables[1]);
            for label in cdf.labels().filter(|&l| l != r.to_string()) {
                let v: Vec<f64> = names2.iter().filter_map(|n| cdf.get(label, n)).collect();
                ensure(v.windows(2).all(|w| w[0] <= w[1]), || {
                    format!("len {label}: {v:?}")
                })?;
            }
            let b: Vec<f64> = names2.iter().filter_map(|n| mean.get("B", n)).collect();
            ensure(b.windows(2).all(|w| w[0] > w[1]), || format!("B: {b:?}"))?;
            Ok(format!("B from {:.4} to {:.4}", b[0], b[b.len() - 1]))
        },
    ))
}

/// The four `(b1, α)` pairs of Fig. 19(b), burstiest first.
const FIG19B: [(f64, f64); 4] = [(0.9, 1.0), (0.99, 2.0), (0.999, 3.0), (0.9999, 4.0)];

/// **Fig. 19(b)**: MTTDL_sys of STAIR with e = (s) vs e = (1, s−1) as s
/// grows, for four `(b1, α)` levels and P_bit ∈ {1e-14, 1e-12, 1e-10}.
pub(crate) fn fig19b(_: Scale) -> Figure {
    let params = SystemParams::paper_defaults();
    let mut fig = Figure::new("Fig. 19(b): MTTDL_sys (hours) vs s for e=(s) and e=(1,s−1)\n");
    let columns: Vec<(String, Fmt)> = FIG19B
        .iter()
        .flat_map(|(b1, a)| {
            [
                (format!("(s)@{b1}/{a}"), Fmt::Sci(3)),
                (format!("(1,s-1)@{b1}/{a}"), Fmt::Sci(3)),
            ]
        })
        .collect();
    for pb in [1e-14, 1e-12, 1e-10] {
        let mut t = Table::new(format!("P_bit = {pb:.0e}:"), "s", columns.clone());
        for s in 1..=12usize {
            let mut values = Vec::new();
            for (b1, a) in FIG19B {
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
                values.extend([Some(es), Some(e1s)]);
            }
            t.push(s.to_string(), values);
        }
        fig.tables.push(t);
    }
    fig.notes = vec![
        "(paper: under bursty failures e=(s) pulls away as s grows — the case for".into(),
        " supporting s beyond SD's s ≤ 3; under near-independent failures the".into(),
        " ordering can invert — §7.2.2)".into(),
    ];
    fig.claim(Claim::new(
        "under the burstiest fit (0.9, 1), e = (s) grows with s and beats e = (1, s−1) for every \
         s ≥ 2, at P_bit = 1e-14 and 1e-12 (§7.2.2)",
        |f| {
            for pb in ["1e-14", "1e-12"] {
                let t = f.table(&format!("P_bit = {pb}"))?;
                let mut last = 0.0;
                for s in 2..=12usize {
                    let (es, e1s) = (
                        t.at(&s.to_string(), "(s)@0.9/1")?,
                        t.at(&s.to_string(), "(1,s-1)@0.9/1")?,
                    );
                    ensure(es > last && es > e1s, || {
                        format!("P_bit {pb}, s = {s}: (s) {es}, (1,s−1) {e1s}")
                    })?;
                    last = es;
                }
            }
            Ok("s = 2..12".into())
        },
    ))
    .claim(Claim::new(
        "under near-independent failures (0.9999, 4) at P_bit = 1e-10 the ordering inverts for \
         some s ≤ 8 (§7.2.2)",
        |f| {
            let t = f.table("P_bit = 1e-10")?;
            let inverted: Vec<String> = (2..=8usize)
                .filter(|s| {
                    let s = s.to_string();
                    t.get(&s, "(1,s-1)@0.9999/4") > t.get(&s, "(s)@0.9999/4")
                })
                .map(|s| s.to_string())
                .collect();
            ensure(!inverted.is_empty(), || "no s inverts".into())?;
            Ok(format!("s = {}", inverted.join(", ")))
        },
    ))
}

/// **App. B**: the analytic stripe-loss probability `P_str` against
/// Monte-Carlo sampling through the reliability model's injectors.
pub(crate) fn mc(scale: Scale) -> Figure {
    let trials = scale.trials();
    let (n, m, r) = (8usize, 1usize, 16usize);
    let mut fig = Figure::new(format!(
        "Monte-Carlo vs analytic P_str, n={n} m={m} r={r}, {trials} trials\n"
    ));
    let mut t = Table::new(
        "",
        "scheme, model",
        [
            ("p_sec", Fmt::Plain),
            ("analytic", Fmt::Sci(3)),
            ("sampled", Fmt::Sci(3)),
            ("z-score", Fmt::Fixed(2)),
        ],
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
                let analytic = p_str(&spec, &p_chk(&model, p_sec, r));
                let est = estimate_p_str(&spec, p_sec, &model, trials, 4, 0xC0FFEE)
                    .expect("valid failure model");
                let z = (est.p - analytic) / est.std_err.max(1e-12);
                t.push(
                    format!("{name} {mname} @{p_sec}"),
                    vec![Some(p_sec), Some(analytic), Some(est.p), Some(z)],
                );
            }
        }
    }
    // The burst rows' error, measured: Eq. 15–17 is not a bound here.
    let burst: Vec<(f64, f64)> = t
        .labels()
        .filter(|l| l.contains(" burst "))
        .filter_map(|l| {
            Some((
                t.get(l, "z-score")?,
                t.get(l, "sampled")? / t.get(l, "analytic")? - 1.0,
            ))
        })
        .collect();
    let span = |f: fn(&(f64, f64)) -> f64| {
        let v: Vec<f64> = burst.iter().map(f).collect();
        (
            v.iter().copied().fold(f64::INFINITY, f64::min),
            v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    };
    let ((zlo, zhi), (elo, ehi)) = (span(|b| b.0), span(|b| b.1));
    fig.tables.push(t);
    fig.notes = vec![
        "(independent-model rows agree to sampling noise. Burst rows measure".into(),
        format!(
            " z {zlo:+.1} .. {zhi:+.1}, sampled/analytic − 1 {:+.0} % .. {:+.0} %: the sampler clips",
            elo * 100.0,
            ehi * 100.0
        ),
        " bursts at the chunk end and allows several per chunk, Eq. 15–17 does".into(),
        " neither, so the analytic value is no bound on either side — App. B)".into(),
    ];
    fig.claim(Claim::new(
        "the independent-model rows agree with the analytic P_str: |z| ≤ 3 (App. B)",
        |f| {
            let t = &f.tables[0];
            let mut worst = 0.0f64;
            for row in t.labels().filter(|l| l.contains(" indep ")) {
                let z = t.at(row, "z-score")?;
                ensure(z.abs() <= 3.0, || format!("{row}: z = {z:.2}"))?;
                worst = worst.max(z.abs());
            }
            Ok(format!("largest |z| {worst:.2}"))
        },
    ))
}
