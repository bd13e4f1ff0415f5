//! Integration: pin access → detailed routing → DRC scoring (the
//! Experiment 3 pipeline) on a small case.

use paaf::pao::PinAccessOracle;
use paaf::router::route::{RouteConfig, Router};
use paaf::router::{baseline_pin_access, score, BaselineConfig};
use paaf::testgen::{generate, SuiteCase};

fn world() -> (paaf::tech::Tech, paaf::design::Design) {
    generate(&SuiteCase::small_smoke())
}

#[test]
fn three_access_arms_rank_correctly() {
    let (tech, design) = world();
    let router = Router::new(&tech, &design, RouteConfig::default());

    let pao = PinAccessOracle::new().analyze(&tech, &design);
    let with_pao = router.route_with_pao(&pao);
    let drcs_pao = score::count_drcs(&tech, &design, &with_pao);

    let base = baseline_pin_access(&tech, &design, &BaselineConfig::default());
    let with_base = router.route_with_accessor(|c, p| base.access_point(&design, c, p));
    let drcs_base = score::count_drcs(&tech, &design, &with_base);

    let naive = router.route_with_accessor(|_, _| None);
    let drcs_naive = score::count_drcs(&tech, &design, &naive);

    // The paper's ordering: PAAF < unvalidated baseline ≤ blind center
    // access (allow the last two to tie — both are unvalidated).
    assert!(
        drcs_pao < drcs_base,
        "PAAF {drcs_pao} vs baseline {drcs_base}"
    );
    assert!(
        drcs_pao < drcs_naive,
        "PAAF {drcs_pao} vs naive {drcs_naive}"
    );
}

#[test]
fn routing_is_deterministic() {
    let (tech, design) = world();
    let pao = PinAccessOracle::new().analyze(&tech, &design);
    let router = Router::new(&tech, &design, RouteConfig::default());
    let a = router.route_with_pao(&pao);
    let b = router.route_with_pao(&pao);
    assert_eq!(a.wirelength, b.wirelength);
    assert_eq!(a.via_count, b.via_count);
    assert_eq!(a.routed_nets, b.routed_nets);
    assert_eq!(
        score::count_drcs(&tech, &design, &a),
        score::count_drcs(&tech, &design, &b)
    );
}

#[test]
fn every_net_gets_wires_or_is_single_terminal() {
    let (tech, design) = world();
    let pao = PinAccessOracle::new().analyze(&tech, &design);
    let routed = Router::new(&tech, &design, RouteConfig::default()).route_with_pao(&pao);
    // Every multi-terminal net must have at least its access vias
    // committed: check shape counts exceed the static design shapes.
    let mut static_shapes = 0usize;
    for (ci, _) in design.components().iter().enumerate() {
        let id = paaf::design::CompId(ci as u32);
        static_shapes += design.placed_pin_shapes(&tech, id).len();
        static_shapes += design.placed_obs_shapes(&tech, id).len();
    }
    assert!(
        routed.shapes.len() > static_shapes,
        "wires and vias committed: {} vs {static_shapes}",
        routed.shapes.len()
    );
    assert_eq!(routed.forced_terminals, 0);
}

#[test]
fn fig8_style_rendering_works_end_to_end() {
    let (tech, design) = world();
    let router = Router::new(&tech, &design, RouteConfig::default());
    let naive = router.route_with_accessor(|_, _| None);
    let violations = score::audit_routed(&tech, &design, &naive);
    assert!(!violations.is_empty());
    let window = violations[0].marker.expanded(3000);
    let svg = paaf::viz::render_window(
        &tech,
        &design,
        Some(&naive.shapes),
        &[],
        &violations,
        window,
        &paaf::viz::RenderOptions::default(),
    );
    assert!(svg.contains("stroke-dasharray"), "DRC markers rendered");
}

#[test]
fn routed_shape_invariants() {
    let (tech, design) = world();
    let pao = PinAccessOracle::new().analyze(&tech, &design);
    let routed = Router::new(&tech, &design, RouteConfig::default()).route_with_pao(&pao);
    // Every committed wire is at least the layer's wire width in both
    // dimensions (strips/patches are wider, never thinner).
    for &(_, layer, r) in &routed.wires {
        let w = tech.layer(layer).width;
        assert!(
            r.min_side() >= w,
            "wire {r} thinner than layer width {w} on {}",
            tech.layer(layer).name
        );
        assert!(tech.layer(layer).is_routing());
    }
    // Access vias index into the via list, and access vias exist for
    // connected pins.
    for &i in &routed.access_vias {
        assert!(i < routed.vias.len());
    }
    assert!(!routed.access_vias.is_empty());
    // Via shapes live on their declared layers inside the shape set.
    for &(vid, pos, owner) in routed.vias.iter().take(20) {
        for (layer, rect) in tech.via(vid).placed_shapes(pos) {
            assert!(
                !routed
                    .shapes
                    .for_each_in(layer, rect, |r, o| r != rect || o != owner),
                "via shape missing from shape set"
            );
        }
    }
}

#[test]
fn routed_def_round_trips_through_parser() {
    let (tech, design) = world();
    let pao = PinAccessOracle::new().analyze(&tech, &design);
    let routed = Router::new(&tech, &design, RouteConfig::default()).route_with_pao(&pao);
    let text = paaf::router::defout::write_routed_def(&tech, &design, &routed);
    let reparsed = paaf::design::def::parse_def(&text, &tech).expect("routed DEF parses");
    assert_eq!(reparsed.nets().len(), design.nets().len());
    assert_eq!(reparsed.connected_pin_count(), design.connected_pin_count());
}
