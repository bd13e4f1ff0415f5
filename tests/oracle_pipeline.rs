//! End-to-end integration: synthetic benchmark → PAAF analysis.

use paaf::pao::{PaoConfig, PinAccessOracle};
use paaf::testgen::{generate, SuiteCase, TechFlavor};

fn smoke_result() -> (paaf::tech::Tech, paaf::design::Design, paaf::pao::PaoResult) {
    let (tech, design) = generate(&SuiteCase::small_smoke());
    let result = PinAccessOracle::new().analyze(&tech, &design);
    (tech, design, result)
}

#[test]
fn paaf_is_clean_on_smoke_case() {
    let (_, design, result) = smoke_result();
    let s = &result.stats;
    assert!(s.unique_instances > 0);
    assert!(s.unique_instances <= design.components().len());
    // PAAF's defining properties (paper Tables II/III): zero dirty APs,
    // zero pins without APs, zero failed pins.
    assert_eq!(s.dirty_aps, 0, "{s}");
    assert_eq!(s.pins_without_aps, 0, "{s}");
    assert_eq!(s.failed_pins, 0, "{s}");
    assert!(s.total_aps >= 3 * s.unique_instances, "{s}");
    assert_eq!(s.total_pins, design.connected_pin_count());
}

#[test]
fn access_points_lie_on_pin_shapes() {
    let (tech, design, result) = smoke_result();
    for net in design.nets() {
        for (comp, pin_name) in net.comp_pins() {
            let master = design.component(comp).master_in(&tech).unwrap();
            let pin_idx = master.pins.iter().position(|p| p.name == pin_name).unwrap();
            let ap = result
                .access_point(&design, comp, pin_idx)
                .unwrap_or_else(|| panic!("no AP for {comp} {pin_name}"));
            let shapes = design.placed_pin_shapes(&tech, comp);
            assert!(
                shapes
                    .iter()
                    .any(|&(pi, _, r)| pi == pin_idx && r.contains(ap.pos)),
                "AP {} for {comp}/{pin_name} off its pin",
                ap.pos
            );
        }
    }
}

#[test]
fn without_bca_is_never_better() {
    let (tech, design) = generate(&SuiteCase::small_smoke());
    let with = PinAccessOracle::new().analyze(&tech, &design);
    let mut cfg = PaoConfig::default();
    cfg.pattern.bca = false;
    cfg.pattern.max_patterns = 1;
    let without = PinAccessOracle::with_config(cfg).analyze(&tech, &design);
    assert!(without.stats.failed_pins >= with.stats.failed_pins);
}

#[test]
fn n32a_flavour_multiplies_unique_instances() {
    // The incommensurate row height must yield clearly more unique
    // instances than the commensurate N32B at the same size.
    let mk = |flavor| SuiteCase {
        name: "u".into(),
        flavor,
        cells: 300,
        macros: 0,
        nets: 100,
        io_pins: 0,
        utilization: 82,
        seed: 5,
    };
    let (ta, da) = generate(&mk(TechFlavor::N32A));
    let (tb, db) = generate(&mk(TechFlavor::N32B));
    let ua = paaf::pao::unique::extract_unique_instances(&ta, &da).len();
    let ub = paaf::pao::unique::extract_unique_instances(&tb, &db).len();
    assert!(ua > ub, "N32A {ua} vs N32B {ub}");
}

#[test]
fn aes14_is_clean_with_repair() {
    // The 14 nm case needs the post-selection repair pass for a handful of
    // frustrated boundary-pin chains; end state must be fully clean
    // (paper: "DRC-clean access points for all 57K instance pins").
    let (tech, design) = generate(&paaf::testgen::aes14_case());
    let result = PinAccessOracle::new().analyze(&tech, &design);
    assert_eq!(result.stats.failed_pins, 0, "{}", result.stats);
    assert_eq!(result.stats.pins_without_aps, 0);
    // Every access point in this flavour is off-track (Fig. 9's point).
    assert_eq!(result.stats.off_track_aps, result.stats.total_aps);
}

#[test]
fn reported_stats_are_reproducible() {
    // The stats in the result must agree with an independent recount.
    let (tech, design) = generate(&SuiteCase::small_smoke());
    let result = PinAccessOracle::new().analyze(&tech, &design);
    let (total, failed) =
        paaf::pao::oracle::count_failed_pins_threaded(&tech, &design, &result, 1).0;
    assert_eq!(total, result.stats.total_pins);
    assert_eq!(failed, result.stats.failed_pins);
    // And the whole analysis is deterministic.
    let again = PinAccessOracle::new().analyze(&tech, &design);
    assert_eq!(result.stats.total_aps, again.stats.total_aps);
    assert_eq!(result.selection, again.selection);
    assert_eq!(result.overrides.len(), again.overrides.len());
}

#[test]
fn tail_phase_times_sum_to_cluster_time() {
    let (tech, design) = generate(&paaf::testgen::ispd18s_suite().swap_remove(1));
    for threads in [1, 2] {
        let result = PinAccessOracle::with_config(PaoConfig {
            threads,
            ..PaoConfig::default()
        })
        .analyze(&tech, &design);
        let s = &result.stats;
        assert!(
            s.select_time > std::time::Duration::ZERO && s.repair_time > std::time::Duration::ZERO,
            "{s:?}"
        );
        assert_eq!(
            s.select_time + s.repair_time + s.audit_time,
            s.cluster_time,
            "threads {threads}: select {:?} + repair {:?} + audit {:?} vs cluster {:?}",
            s.select_time,
            s.repair_time,
            s.audit_time,
            s.cluster_time
        );
    }
}
