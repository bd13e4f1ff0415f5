//! Property-based tests for the pin access framework's invariants.

use pao_core::apgen::{generate_pin_access_points, AccessPoint, ApGenConfig};
use pao_core::coord::CoordType;
use pao_core::pattern::{generate_patterns, order_pins, PatternConfig};
use pao_core::unique::local_pin_owner;
use pao_design::{Design, TrackPattern};
use pao_drc::{DrcEngine, DrcScratch, DrcSink, ShapeSet};
use pao_geom::{Dir, Point, Rect};
use pao_ptest::check;
use pao_tech::rules::MinStepRule;
use pao_tech::{Layer, LayerId, Tech, ViaDef, ViaId};

fn tech() -> Tech {
    let mut t = Tech::new(1000);
    let mut m1 = Layer::routing("M1", Dir::Horizontal, 200, 60, 70);
    m1.min_step = Some(MinStepRule::simple(60));
    t.add_layer(m1);
    t.add_layer(Layer::cut("V1", 50, 120));
    t.add_layer(Layer::routing("M2", Dir::Vertical, 200, 60, 70));
    let mut via = ViaDef::new(
        "via1_0",
        LayerId(0),
        vec![Rect::new(-65, -30, 65, 30)],
        LayerId(1),
        vec![Rect::new(-25, -25, 25, 25)],
        LayerId(2),
        vec![Rect::new(-30, -65, 30, 65)],
    );
    via.is_default = true;
    t.add_via(via);
    t
}

fn design() -> Design {
    let mut d = Design::new("p", Rect::new(0, 0, 20_000, 20_000));
    d.tracks.push(TrackPattern::new(
        Dir::Horizontal,
        100,
        200,
        90,
        vec![LayerId(0)],
    ));
    d.tracks.push(TrackPattern::new(
        Dir::Vertical,
        100,
        200,
        90,
        vec![LayerId(2)],
    ));
    d
}

fn ap_at(x: i64, y: i64) -> AccessPoint {
    AccessPoint {
        pos: Point::new(x, y),
        layer: LayerId(0),
        pref_type: CoordType::OnTrack,
        nonpref_type: CoordType::OnTrack,
        vias: vec![ViaId(0)],
        planar: vec![],
    }
}

/// Every AP returned by Algorithm 1 lies on the pin and its primary
/// via re-validates clean — the framework's core guarantee.
#[test]
fn generated_aps_are_on_pin_and_clean() {
    check("generated_aps_are_on_pin_and_clean", 48, |rng| {
        let x = rng.gen_range(200i64..2000);
        let y = rng.gen_range(200i64..2000);
        let w = rng.gen_range(200i64..1500);
        let h = rng.gen_range(70i64..800);
        let t = tech();
        let d = design();
        let engine = DrcEngine::new(&t);
        let pin = Rect::new(x, y, x + w, y + h);
        let mut ctx = ShapeSet::new(t.layers().len());
        ctx.insert(LayerId(0), pin, local_pin_owner(0));
        ctx.rebuild();
        let aps = generate_pin_access_points(
            &t,
            &d,
            &engine,
            &ctx,
            0,
            &[(LayerId(0), pin)],
            &ApGenConfig::default(),
        );
        for ap in &aps {
            assert!(pin.contains(ap.pos), "AP {} off pin {}", ap.pos, pin);
            let via = ap.primary_via().expect("via access");
            let (mut ws, mut sink) = (DrcScratch::new(), DrcSink::all());
            let owner = local_pin_owner(0);
            engine.check_via_placement(t.via(via), ap.pos, owner, &ctx, &mut ws, &mut sink);
            assert!(sink.is_clean(), "dirty AP {}: {sink:?}", ap.pos);
        }
        // Determinism.
        let again = generate_pin_access_points(
            &t,
            &d,
            &engine,
            &ctx,
            0,
            &[(LayerId(0), pin)],
            &ApGenConfig::default(),
        );
        assert_eq!(aps, again);
    });
}

/// Pin ordering is a permutation of the pins with access points, and
/// boundary pins are the extremes of the ordering key.
#[test]
fn ordering_is_a_permutation() {
    check("ordering_is_a_permutation", 128, |rng| {
        let n = rng.gen_range(1usize..8);
        let coords: Vec<(i64, i64)> = (0..n)
            .map(|_| (rng.gen_range(0i64..5000), rng.gen_range(0i64..5000)))
            .collect();
        let pins: Vec<Vec<AccessPoint>> = coords.iter().map(|&(x, y)| vec![ap_at(x, y)]).collect();
        let order = order_pins(&pins, 0.3);
        assert_eq!(order.len(), pins.len());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), pins.len(), "permutation");
        // Keys are non-decreasing along the order.
        let key = |i: usize| coords[i].0 as f64 + 0.3 * coords[i].1 as f64;
        for w in order.windows(2) {
            assert!(key(w[0]) <= key(w[1]) + 1e-9);
        }
    });
}

/// Patterns index valid APs, and every validated pattern's choices are
/// pairwise compatible when re-checked exhaustively.
#[test]
fn patterns_are_well_formed() {
    check("patterns_are_well_formed", 48, |rng| {
        let t = tech();
        let e = DrcEngine::new(&t);
        let n = rng.gen_range(2usize..5);
        let xs: Vec<i64> = (0..n).map(|_| rng.gen_range(0i64..20)).collect();
        let seed = rng.gen_range(0u8..4);
        // Pins spaced 300 apart with 1–3 APs each on distinct tracks.
        let pins: Vec<Vec<AccessPoint>> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                (0..=(x % 3))
                    .map(|k| ap_at(500 + 300 * i as i64, 100 + 200 * (k + i64::from(seed))))
                    .collect()
            })
            .collect();
        let (order, pats) = generate_patterns(&t, &e, &pins, &PatternConfig::default());
        assert_eq!(order.len(), pins.len());
        assert!(!pats.is_empty());
        assert!(pats.len() <= 3);
        let mut ctx = ShapeSet::new(t.layers().len());
        for pat in &pats {
            assert_eq!(pat.choice.len(), order.len());
            for (oi, &api) in pat.choice.iter().enumerate() {
                assert!(api < pins[order[oi]].len(), "AP index in range");
            }
            if pat.validated {
                for i in 0..order.len() {
                    for j in (i + 1)..order.len() {
                        let a = &pins[order[i]][pat.choice[i]];
                        let b = &pins[order[j]][pat.choice[j]];
                        assert!(
                            pao_core::pattern::aps_compatible_scratch(
                                &t,
                                &e,
                                a,
                                Point::ORIGIN,
                                b,
                                Point::ORIGIN,
                                &mut ctx
                            ),
                            "validated pattern has conflicting pair"
                        );
                    }
                }
            }
        }
    });
}

/// Shrinking the coordinate-type sets never increases the AP count.
#[test]
fn fewer_coord_types_fewer_aps() {
    check("fewer_coord_types_fewer_aps", 48, |rng| {
        let y0 = rng.gen_range(150i64..1800);
        let t = tech();
        let d = design();
        let engine = DrcEngine::new(&t);
        let pin = Rect::new(300, y0, 1500, y0 + 150);
        let mut ctx = ShapeSet::new(t.layers().len());
        ctx.insert(LayerId(0), pin, local_pin_owner(0));
        ctx.rebuild();
        let full = ApGenConfig {
            k: usize::MAX,
            ..ApGenConfig::default()
        };
        let restricted = ApGenConfig {
            k: usize::MAX,
            pref_types: vec![CoordType::OnTrack],
            nonpref_types: vec![CoordType::OnTrack],
            ..ApGenConfig::default()
        };
        let all = generate_pin_access_points(&t, &d, &engine, &ctx, 0, &[(LayerId(0), pin)], &full);
        let few =
            generate_pin_access_points(&t, &d, &engine, &ctx, 0, &[(LayerId(0), pin)], &restricted);
        assert!(few.len() <= all.len());
    });
}

/// A random multi-height placement: rows of abutting single-height
/// cells with occasional double-height cells spanning two rows, pins
/// hugging the cell edges so cluster selection has real boundary edges
/// to probe. Every pin is connected, so the failed-pin audit covers the
/// whole design.
#[allow(clippy::needless_range_loop)]
fn gen_world(rng: &mut pao_ptest::Rng) -> (Tech, Design) {
    use pao_design::{Component, Net, NetPin};
    use pao_geom::Orient;
    use pao_tech::{Macro, Pin, PinDir, Port};
    let mut t = tech();
    let edge_cell = |name: &str, h: i64| {
        let mut cell = Macro::new(name, 1200, h);
        cell.pins.push(Pin::new(
            "A",
            PinDir::Input,
            vec![Port::rects(
                LayerId(0),
                vec![Rect::new(35, 100, 185, h - 500)],
            )],
        ));
        cell.pins.push(Pin::new(
            "Y",
            PinDir::Output,
            vec![Port::rects(
                LayerId(0),
                vec![Rect::new(1015, 100, 1165, h - 500)],
            )],
        ));
        cell
    };
    t.add_macro(edge_cell("SH", 1400));
    t.add_macro(edge_cell("DH", 2800));
    let rows = rng.gen_range(2usize..4);
    let cols = rng.gen_range(3usize..7);
    let mut d = Design::new("rand", Rect::new(0, 0, 40_000, 40_000));
    d.tracks.push(TrackPattern::new(
        Dir::Horizontal,
        100,
        200,
        90,
        vec![LayerId(0)],
    ));
    d.tracks.push(TrackPattern::new(
        Dir::Vertical,
        100,
        200,
        90,
        vec![LayerId(2)],
    ));
    let mut occupied = vec![vec![false; cols]; rows];
    let mut placed = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if occupied[r][c] || rng.gen_bool(0.2) {
                continue; // leave a gap — clusters split here
            }
            let double = r + 1 < rows && !occupied[r + 1][c] && rng.gen_bool(0.25);
            let master = if double { "DH" } else { "SH" };
            let at = Point::new(200 + 1200 * c as i64, 1400 * r as i64);
            let name = format!("u{r}_{c}");
            placed.push(d.add_component(Component::new(name, master, at, Orient::N)));
            occupied[r][c] = true;
            if double {
                occupied[r + 1][c] = true;
            }
        }
    }
    for (i, &comp) in placed.iter().enumerate() {
        let mut net = Net::new(format!("n{i}"));
        net.pins.push(NetPin::Comp {
            comp,
            pin: "A".into(),
        });
        net.pins.push(NetPin::Comp {
            comp,
            pin: "Y".into(),
        });
        d.add_net(net);
    }
    (t, d)
}

/// The cluster-selection fast path is output-invariant: the thread count
/// changes wall clock only, never a selection. Also pins down the
/// telemetry contract (counters identical across thread counts) and
/// cross-checks the audit's hint fast path against the public
/// whole-design probe.
#[test]
fn selection_identical_across_threads() {
    use pao_core::{PaoConfig, PinAccessOracle};
    let mut total_edges = 0u64;
    // The label seeds the cases; it keeps its original name so the
    // generated worlds stay the same.
    check("selection_identical_across_split_and_threads", 10, |rng| {
        let (t, d) = gen_world(rng);
        let run = |threads: usize| {
            let cfg = PaoConfig {
                threads,
                ..PaoConfig::default()
            };
            PinAccessOracle::with_config(cfg).analyze(&t, &d)
        };
        let base = run(1);
        let others = [run(2), run(4)];
        let key = |t: pao_core::SelectTelemetry| {
            (t.edges, t.probes, t.edges_pruned, t.pairs_far, t.groups)
        };
        let bt = base.stats.select_telemetry;
        for v in &others {
            assert_eq!(v.selection, base.selection, "selection diverged");
            assert_eq!(v.overrides, base.overrides, "overrides diverged");
            assert!(v.stats.counters_eq(&base.stats), "counters diverged");
            assert_eq!(key(v.stats.select_telemetry), key(bt));
        }
        // Audit-hint cross-check: the hinted audit inside analyze must
        // agree with the public full-probe count.
        let (total, failed) = pao_core::oracle::count_failed_pins_threaded(&t, &d, &base, 1).0;
        assert_eq!(total, base.stats.total_pins);
        assert_eq!(failed, base.stats.failed_pins, "hinted audit diverged");
        total_edges += bt.edges;
    });
    assert!(
        total_edges > 0,
        "no run exercised a boundary edge — vacuous fixture"
    );
}

/// Persisted access points round-trip exactly.
#[test]
fn persisted_ap_roundtrip() {
    check("persisted_ap_roundtrip", 128, |rng| {
        use pao_core::apgen::PlanarDir;
        use pao_core::persist;
        let coord = |c: u8| match c {
            0 => CoordType::OnTrack,
            1 => CoordType::HalfTrack,
            2 => CoordType::ShapeCenter,
            _ => CoordType::EnclosureBoundary,
        };
        let planar_mask = rng.gen_range(0u8..16);
        let planar: Vec<PlanarDir> = PlanarDir::ALL
            .into_iter()
            .enumerate()
            .filter(|(i, _)| planar_mask & (1 << i) != 0)
            .map(|(_, d)| d)
            .collect();
        let n_vias = rng.gen_range(0usize..4);
        let ap = AccessPoint {
            pos: Point::new(
                rng.gen_range(-1_000_000i64..1_000_000),
                rng.gen_range(-1_000_000i64..1_000_000),
            ),
            layer: LayerId(rng.gen_range(0u32..16)),
            pref_type: coord(rng.gen_range(0u8..4)),
            nonpref_type: coord(rng.gen_range(0u8..3)),
            vias: (0..n_vias)
                .map(|_| ViaId(rng.gen_range(0u32..32)))
                .collect(),
            planar,
        };
        let mut s = String::new();
        persist::write_ap(&mut s, &ap);
        let back = persist::parse_ap(s.trim_end(), 1).expect("parses");
        assert_eq!(ap, back);
    });
}
