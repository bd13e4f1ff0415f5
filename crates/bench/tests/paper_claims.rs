//! The paper's headline claims as assertions over the ten `ispd18s`
//! cases and the 14 nm AES case, measured by the same experiment runners
//! that print Tables II and III and the 14 nm study
//! (`tables -- table2|table3|expt3-14nm`).

use pao_bench::{run_expt1, run_expt2, run_fig9};
use pao_testgen::{aes14_case, ispd18s_suite};

/// Table II: PAAF generates no dirty access point and at least as many
/// access points as the baseline, whose own access points include dirty
/// ones.
#[test]
fn table2_paaf_aps_are_clean_and_plentiful() {
    for case in ispd18s_suite() {
        let row = run_expt1(&case);
        let name = &row.name;
        assert_eq!(row.paaf_dirty, 0, "{name}: dirty PAAF APs");
        assert!(
            row.paaf_aps >= row.trrte_aps,
            "{name}: PAAF APs {} < baseline APs {}",
            row.paaf_aps,
            row.trrte_aps
        );
        assert!(row.trrte_dirty > 0, "{name}: the baseline has no dirty AP");
    }
}

/// Table III: with BCA no pin fails; without it some do.
#[test]
fn table3_bca_leaves_no_failed_pin() {
    for case in ispd18s_suite() {
        let row = run_expt2(&case);
        let name = &row.name;
        assert_eq!(row.paaf_failed_bca, 0, "{name}: failed pins with BCA");
        assert!(
            row.paaf_failed_no_bca > row.paaf_failed_bca,
            "{name}: {} failed pins without BCA, {} with it",
            row.paaf_failed_no_bca,
            row.paaf_failed_bca
        );
    }
}

/// Fig. 9: on the 14 nm flavour every access point is off-track, and
/// still no pin fails.
#[test]
fn fig9_aes14_is_clean_with_off_track_access() {
    let o = run_fig9(&aes14_case());
    assert_eq!(o.failed_pins, 0, "{}: failed pins", o.name);
    assert!(o.total_aps > 0, "{}: no access point", o.name);
    assert_eq!(
        o.off_track_aps, o.total_aps,
        "{}: on-track access points",
        o.name
    );
}
