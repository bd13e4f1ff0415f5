//! Post-route DRC scoring (the `#DRCs` of Experiment 3).

use crate::route::RoutedDesign;
use pao_design::Design;
use pao_drc::{DrcEngine, DrcScratch, DrcSink, DrcViolation, RuleKind};
use pao_tech::Tech;
use std::collections::{BTreeMap, HashSet};

/// Audits the routed design: every different-net pairwise violation
/// (shorts, spacing, cut spacing) **plus** a full-rule re-check of every
/// committed via in its final context (min-step, merged min-width /
/// min-area, EOL — the rules pin access exists to satisfy). Duplicate
/// findings are reported once.
#[must_use]
pub fn audit_routed(tech: &Tech, _design: &Design, routed: &RoutedDesign) -> Vec<DrcViolation> {
    let engine = DrcEngine::new(tech);
    let mut ws = DrcScratch::new();
    let mut sink = DrcSink::all();
    engine.audit(&routed.shapes, &mut sink);
    for &(vid, pos, owner) in &routed.vias {
        engine.check_via_placement(
            tech.via(vid),
            pos,
            owner,
            &routed.shapes,
            &mut ws,
            &mut sink,
        );
    }
    let mut out = sink.into_violations();
    let mut seen = HashSet::new();
    out.retain(|v| seen.insert((v.rule, v.layer, v.marker)));
    out
}

/// The paper's pin-access metric: violations attributable to the **pin
/// access vias** alone, each re-checked with the full rule set in the
/// final routed context. PAAF's validated access keeps this at (or near)
/// zero; unvalidated access accumulates hundreds.
#[must_use]
pub fn access_drcs(tech: &Tech, _design: &Design, routed: &RoutedDesign) -> usize {
    let engine = DrcEngine::new(tech);
    let mut ws = DrcScratch::new();
    let mut sink = DrcSink::all();
    for &i in &routed.access_vias {
        let (vid, pos, owner) = routed.vias[i];
        engine.check_via_placement(
            tech.via(vid),
            pos,
            owner,
            &routed.shapes,
            &mut ws,
            &mut sink,
        );
    }
    let mut out = sink.into_violations();
    let mut seen = HashSet::new();
    out.retain(|v| seen.insert((v.rule, v.layer, v.marker)));
    out.len()
}

/// The total number of DRC violations in the routed design.
#[must_use]
pub fn count_drcs(tech: &Tech, design: &Design, routed: &RoutedDesign) -> usize {
    audit_routed(tech, design, routed).len()
}

/// Violation counts per rule kind, sorted by kind.
#[must_use]
pub fn drc_breakdown(
    tech: &Tech,
    design: &Design,
    routed: &RoutedDesign,
) -> BTreeMap<RuleKind, usize> {
    let mut map = BTreeMap::new();
    for v in audit_routed(tech, design, routed) {
        *map.entry(v.rule).or_insert(0usize) += 1;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{RouteConfig, Router};
    use pao_core::PinAccessOracle;
    use pao_testgen::{generate, SuiteCase};

    #[test]
    fn pao_access_beats_center_access_on_drcs() {
        let (tech, design) = generate(&SuiteCase::small_smoke());
        let router = Router::new(&tech, &design, RouteConfig::default());

        let pao = PinAccessOracle::new().analyze(&tech, &design);
        let with_pao = router.route_with_pao(&pao);
        let drcs_pao = count_drcs(&tech, &design, &with_pao);

        // "Distance-cost" access: always the pin center, default via — the
        // Dr.CU-like arm of Experiment 3.
        let naive = router.route_with_accessor(|_, _| None);
        let drcs_naive = count_drcs(&tech, &design, &naive);

        assert!(
            drcs_pao < drcs_naive,
            "PAAF access must reduce routed DRCs: {drcs_pao} vs {drcs_naive}"
        );
    }

    #[test]
    fn breakdown_sums_to_total() {
        let (tech, design) = generate(&SuiteCase::small_smoke());
        let router = Router::new(&tech, &design, RouteConfig::default());
        let naive = router.route_with_accessor(|_, _| None);
        let total = count_drcs(&tech, &design, &naive);
        let sum: usize = drc_breakdown(&tech, &design, &naive).values().sum();
        assert_eq!(total, sum);
    }
}
