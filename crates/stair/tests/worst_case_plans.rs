//! The plans a store on `stair:8,16,2,1-2` builds for the degraded reads
//! of the ledger's `degraded_read_file` workload, pinned byte for byte
//! against `fixtures/worst_case_plans.txt`.
//!
//! The family is that workload's worst covered pattern at every position:
//! devices 0 and 1 failed, a one-sector burst on device 2 at each of the
//! 16 rows and a two-sector burst on device 3 at each of the 15 rows it
//! fits. For each of the 240 patterns, every fragment a 16-block read
//! makes of a stripe is planned: the window starting at each of the 93
//! blocks, clipped at the stripe's end, and the 15 heads a window running
//! in from the stripe before leaves. A fragment wants its lost cells in
//! block order, as `StripeStore` asks for them.
//!
//! The fixture was written by the planner that peeled over a `Vec<bool>`
//! and lowered through a solved `Schedule`; a planner must reproduce it
//! exactly. Its format is in its header.

use std::collections::HashMap;
use std::fmt::Write as _;

use stair::{Config, StairCodec};
use stair_code::{CellIdx, CodecCore, ErasureSet, Plan};

const FIXTURE: &str = include_str!("fixtures/worst_case_plans.txt");

const HEADER: &str = "\
# Plans of stair:8,16,2,1-2 for devices 0 and 1 failed, a 1-burst on device 2
# and a 2-burst on device 3, every 16-block fragment (tests/worst_case_plans.rs).
#
# step <id> <cell> = <coefficient>*<cell> ...
#     One dot product, each slot written as the cell it holds (row,col;
#     coefficients in hex).
# plan <id> <step ids>
#     The steps in order; ids are hex, two digits a step and three a
#     plan. The slots follow from them: the stored cells the steps read
#     and none writes, sorted; every other cell a step writes, in step
#     order; the pinned-zero cell, if a step reads one; the targets.
# pattern <row of the 1-burst> <first row of the 2-burst> <plan per fragment>
#     Fragments: the window at each block of the stripe, then the heads of
#     1..15 blocks; `.` where the fragment lost nothing.
";

/// The id of `key`, giving it the next one (and a line) when new: `width`
/// hex digits.
fn intern(
    ids: &mut HashMap<String, String>,
    lines: &mut String,
    kind: &str,
    width: usize,
    key: String,
) -> String {
    let next = ids.len();
    ids.entry(key)
        .or_insert_with_key(|key| {
            assert!(next < 1 << (4 * width), "{kind} ids outgrew {width} digits");
            let id = format!("{next:0width$x}");
            writeln!(lines, "{kind} {id} {key}").unwrap();
            id
        })
        .clone()
}

/// A plan's steps with every slot named by the cell it holds.
fn cell_steps(plan: &Plan) -> impl Iterator<Item = String> + '_ {
    let slots = plan.slots();
    let cell = |slot: usize| format!("{},{}", slots[slot].0, slots[slot].1);
    plan.steps().map(move |(out, inputs, coeffs)| {
        let mut step = format!("{} =", cell(out));
        for (&input, coeff) in inputs.iter().zip(coeffs) {
            write!(step, " {coeff:x}*{}", cell(input)).unwrap();
        }
        step
    })
}

/// The slots the fixture's header derives from a plan's cell steps.
fn derived_slots(plan: &Plan, (r, n): (usize, usize)) -> Vec<CellIdx> {
    let slots = plan.slots();
    let written: Vec<CellIdx> = plan.steps().map(|(out, ..)| slots[out]).collect();
    let read = plan
        .steps()
        .flat_map(|(_, inputs, _)| inputs.iter().map(|&i| slots[i]));
    let (mut sources, mut zero) = (Vec::new(), Vec::new());
    for cell in read.filter(|c| !written.contains(c)) {
        let stored = cell.0 < r && cell.1 < n;
        (if stored { &mut sources } else { &mut zero }).push(cell);
    }
    sources.sort_unstable();
    sources.dedup();
    zero.dedup();
    let targets = plan.recovers();
    let intermediates = written.iter().filter(|c| !targets.contains(c));
    sources
        .into_iter()
        .chain(intermediates.copied())
        .chain(zero)
        .chain(targets.iter().copied())
        .collect()
}

/// The family, in fixture order: per pattern `(one, two)`, the erasures
/// and, per fragment, the plan of its lost cells — `None` where it lost
/// none.
fn family(mut visit: impl FnMut((usize, usize), &ErasureSet, Option<Plan>)) {
    let codec: StairCodec = StairCodec::new(Config::new(8, 16, 2, &[1, 2]).unwrap()).unwrap();
    let cells = codec.geometry().data_cells;
    let blocks = cells.len();
    let windows = (0..blocks).map(|b| &cells[b..blocks.min(b + 16)]);
    let fragments: Vec<&[CellIdx]> = windows.chain((1..16).map(|k| &cells[..k])).collect();
    for one in 0..16 {
        for two in 0..15 {
            let devices = (0..16).flat_map(|row| [(row, 0), (row, 1)]);
            let erased: ErasureSet = devices.chain([(one, 2), (two, 3), (two + 1, 3)]).collect();
            for fragment in &fragments {
                let lost = fragment.iter().filter(|&&c| erased.contains(c));
                let wanted: Vec<CellIdx> = lost.copied().collect();
                let plan = (!wanted.is_empty())
                    .then(|| CodecCore::plan_recover(&codec, &erased, &wanted).unwrap());
                if let Some(plan) = &plan {
                    assert_eq!(plan.recovers(), wanted);
                }
                visit((one, two), &erased, plan);
            }
        }
    }
}

/// The fixture, as the planner under test writes it.
fn render() -> String {
    let (mut step_ids, mut plan_ids) = (HashMap::new(), HashMap::new());
    let (mut steps, mut plans, mut patterns) = (String::new(), String::new(), String::new());
    let mut last = None;
    family(|pattern, _, plan| {
        if last != Some(pattern) {
            if last.is_some() {
                patterns.push('\n');
            }
            write!(patterns, "pattern {} {}", pattern.0, pattern.1).unwrap();
            last = Some(pattern);
        }
        let Some(plan) = plan else {
            patterns.push_str(" .");
            return;
        };
        assert_eq!(plan.slots(), derived_slots(&plan, (16, 8)));
        let mut ids = String::new();
        for step in cell_steps(&plan) {
            ids += &intern(&mut step_ids, &mut steps, "step", 2, step);
        }
        let id = intern(&mut plan_ids, &mut plans, "plan", 3, ids);
        write!(patterns, " {id}").unwrap();
    });
    patterns.push('\n');
    [HEADER, &steps, &plans, &patterns].concat()
}

#[test]
fn degraded_fragments_plan_as_the_fixture_says() {
    let rendered = render();
    let mut expected = FIXTURE.lines();
    for (k, line) in rendered.lines().enumerate() {
        assert_eq!(Some(line), expected.next(), "fixture line {}", k + 1);
    }
    assert_eq!(expected.next(), None, "the fixture has more lines");
}

/// ROADMAP item 15's measurement: how many sectors each of the 25 486
/// plans reads, against `n − m` per stored row it wants a cell of — what
/// recovering a cell through its row reads, the least an MDS row code
/// allows. No plan reads more of any row than one `C_row` step would.
/// The 16 256 plans whose wanted rows lost only the failed devices read
/// the bound exactly; the 9 230 over a burst row read 79–93, reaching
/// into rows they want nothing of for the global parities — what a
/// planner minimising sectors would have to beat (EXPERIMENTS.md
/// "Planned on demand, decoded in place").
#[test]
fn sources_per_plan_against_n_minus_m_per_wanted_row() {
    const N_MINUS_M: usize = 6;
    let mut histogram = std::collections::BTreeMap::new();
    let mut against_bound = [0; 3];
    family(|_, erased, plan| {
        let Some(plan) = plan else { return };
        let sources = plan.sources();
        *histogram.entry(sources.len()).or_insert(0) += 1;
        for row in 0..16 {
            let read = sources.iter().filter(|&&(r, _)| r == row).count();
            let left = (0..8).filter(|&dev| !erased.contains((row, dev))).count();
            assert!(read <= left.min(N_MINUS_M), "row {row}: {read} of {left}");
        }
        let mut wanted_rows: Vec<usize> = plan.recovers().iter().map(|&(row, _)| row).collect();
        wanted_rows.sort_unstable();
        wanted_rows.dedup();
        let bound = N_MINUS_M * wanted_rows.len();
        against_bound[sources.len().cmp(&bound) as usize + 1] += 1;
    });
    let histogram: Vec<(usize, usize)> = histogram.into_iter().collect();
    assert_eq!(
        histogram,
        [
            (6, 2267),
            (12, 3873),
            (18, 10116),
            (79, 14),
            (80, 165),
            (81, 719),
            (82, 2348),
            (93, 5984)
        ]
    );
    // Below, at and above the bound.
    assert_eq!(against_bound, [0, 16_256, 9_230]);
}
