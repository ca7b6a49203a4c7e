//! Tables 2 and 3 are exact: what the `table2_upstairs_steps` and
//! `table3_downstairs_steps` bins print is pinned, byte for byte, to the
//! golden files under `fixtures/` (CI also `diff`s the bins against
//! them). Table 2 is a decode plan — its schedule and the `Mult_XOR`
//! count of the plan it lowers to — so this also guards the lowering.

#[test]
fn table2_matches_its_golden_output() {
    let golden = include_str!("fixtures/table2_upstairs_steps.txt");
    assert_eq!(stair_bench::table2(), golden);
}

#[test]
fn table3_matches_its_golden_output() {
    let golden = include_str!("fixtures/table3_downstairs_steps.txt");
    assert_eq!(stair_bench::table3(), golden);
}
