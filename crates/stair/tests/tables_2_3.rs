//! The paper's worked examples — Table 2 (upstairs decoding) and Table 3
//! (downstairs encoding) for the running configuration n = 8, r = 4,
//! m = 2, e = (1, 1, 2). Their schedules and costs are pinned byte for
//! byte by the workspace's `tests/paper.rs` (the `table2`/`table3`
//! figures' claims) against the golden files in
//! `crates/bench/tests/fixtures/`; what is left here is the one check
//! those files cannot make.

use stair::{Config, GlobalPlacement, StairCodec};

/// Table 2's schedule lowers to a plan that costs exactly what the
/// schedule does: one stored term per `Mult_XOR`, none dropped or added.
#[test]
fn table_2_plan_costs_what_its_schedule_does() {
    let config = Config::with_placement(8, 4, 2, &[1, 1, 2], GlobalPlacement::Outside).unwrap();
    let codec: StairCodec = StairCodec::new(config).unwrap();
    let erased: Vec<(usize, usize)> = (0..4)
        .flat_map(|i| [(i, 6), (i, 7)])
        .chain([(3, 3), (3, 4), (2, 5), (3, 5)])
        .collect();
    let schedule = codec.decode_schedule(&erased, &erased).unwrap();
    let plan = codec.plan_decode(&erased).unwrap();
    assert_eq!(plan.mult_xors(), schedule.mult_xors());
}
