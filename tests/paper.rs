//! The paper's analytic claims, one test per table or figure. Each test
//! computes the same `Figure` that `paper <name>` prints (at
//! `Scale::Check`) and fails naming every claim that does not hold. The
//! timed claims of Figs. 11–13 are same-run speed ratios; `paper --check`
//! evaluates them, not these tests.

use stair_bench::Scale;

fn holds(name: &str) {
    let entry = stair_bench::figure(name).expect("a figure of the table");
    (entry.run)(Scale::Check).assert_claims();
}

#[test]
fn table2_is_the_upstairs_decoding_schedule() {
    holds("table2");
}

#[test]
fn table3_is_the_downstairs_encoding_schedule() {
    holds("table3");
}

#[test]
fn fig09_eq5_eq6_count_the_schedules_and_cross_over() {
    holds("fig09");
}

#[test]
fn fig10_devices_saved_approach_m_prime() {
    holds("fig10");
}

#[test]
fn fig14_update_penalty_grows_with_m_and_e_max() {
    holds("fig14");
}

/// §6.3's penalty is the cost of an update plan: one `Mult_XOR` per
/// dependent parity of the changed cell — 792 over the 93 data cells of
/// the layer ledger's `stair:8,16,2,1-2`, 8.516 per update.
#[test]
fn fig14_an_update_plan_costs_its_cells_dependents() {
    let codec = stair_store::build_codec(&"stair:8,16,2,1-2".parse().unwrap()).unwrap();
    let data = codec.geometry().data_cells;
    let mut total = 0;
    for &cell in &data {
        let cost = codec.update_plan(&[cell], &|_| true).unwrap().mult_xors();
        assert_eq!(cost, codec.dependents(cell).unwrap().len(), "{cell:?}");
        total += cost;
    }
    assert_eq!((total, data.len()), (792, 93));
    assert_eq!(format!("{:.3}", total as f64 / data.len() as f64), "8.516");
}

#[test]
fn fig15_stair_range_covers_sd_and_both_exceed_rs() {
    holds("fig15");
}

#[test]
fn table4_narr_is_the_papers() {
    holds("table4");
}

#[test]
fn fig17_one_parity_sector_and_e12_under_independent_failures() {
    holds("fig17");
}

#[test]
fn fig18_e_s_is_the_best_shape_under_bursts() {
    holds("fig18");
}

#[test]
fn fig19a_cdfs_are_the_fitted_models() {
    holds("fig19a");
}

#[test]
fn fig19b_wide_e_matters_for_bursty_failures() {
    holds("fig19b");
}

#[test]
fn mc_independent_rows_match_the_analytic_p_str() {
    holds("mc");
}

/// Every analytic entry of the figure table has a test above; the timed
/// ones (Figs. 11–13) are left to `paper --check`.
#[test]
fn every_analytic_figure_is_tested() {
    let source = include_str!("paper.rs");
    for entry in stair_bench::FIGURES {
        let timed = ["fig11", "fig12", "fig13"].contains(&entry.name);
        let tested = source.contains(&format!("holds(\"{}\")", entry.name));
        assert_eq!(tested, !timed, "{}", entry.name);
    }
}
