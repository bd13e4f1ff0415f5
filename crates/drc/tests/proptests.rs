//! Property-based tests for the DRC engine.

use pao_drc::{DrcEngine, DrcScratch, DrcSink, DrcViolation, Owner, RuleKind, ShapeSet, SubCheck};
use pao_geom::{Dir, Point, Rect};
use pao_ptest::{check, Rng};
use pao_tech::rules::{EolRule, MinStepRule};
use pao_tech::{Layer, LayerId, Tech, ViaDef};

fn tech() -> Tech {
    let mut t = Tech::new(1000);
    let mut m1 = Layer::routing("M1", Dir::Horizontal, 200, 60, 70);
    m1.min_step = Some(MinStepRule::simple(60));
    t.add_layer(m1);
    t.add_layer(Layer::cut("V1", 50, 120));
    t.add_layer(Layer::routing("M2", Dir::Vertical, 200, 60, 70));
    let via = ViaDef::new(
        "via1_0",
        LayerId(0),
        vec![Rect::new(-65, -30, 65, 30)],
        LayerId(1),
        vec![Rect::new(-25, -25, 25, 25)],
        LayerId(2),
        vec![Rect::new(-30, -65, 30, 65)],
    );
    t.add_via(via);
    t
}

/// Every violation `check` reports to a collect-all sink.
fn collect(check: impl FnOnce(&mut DrcSink) -> bool) -> Vec<DrcViolation> {
    let mut sink = DrcSink::all();
    assert!(check(&mut sink), "a collect-all sink never stops a check");
    sink.into_violations()
}

fn arb_rect(rng: &mut Rng) -> Rect {
    let x = rng.gen_range(-2_000i64..2_000);
    let y = rng.gen_range(-2_000i64..2_000);
    let w = rng.gen_range(60i64..400);
    let h = rng.gen_range(60i64..400);
    Rect::new(x, y, x + w, y + h)
}

fn arb_rects(rng: &mut Rng, lo: usize, hi: usize) -> Vec<Rect> {
    let n = rng.gen_range(lo..hi);
    (0..n).map(|_| arb_rect(rng)).collect()
}

#[test]
fn spacing_violation_is_symmetric() {
    check("spacing_violation_is_symmetric", 128, |rng| {
        let a = arb_rect(rng);
        let b = arb_rect(rng);
        let t = tech();
        let e = DrcEngine::new(&t);
        let ab = e.spacing_violation(LayerId(0), a, b);
        let ba = e.spacing_violation(LayerId(0), b, a);
        assert_eq!(ab.is_some(), ba.is_some());
        if let (Some(x), Some(y)) = (ab, ba) {
            assert_eq!(x.rule, y.rule);
            assert_eq!(x.marker, y.marker);
        }
    });
}

#[test]
fn far_apart_shapes_never_violate() {
    check("far_apart_shapes_never_violate", 128, |rng| {
        let a = arb_rect(rng);
        let dx = rng.gen_range(1000i64..5000);
        let dy = rng.gen_range(1000i64..5000);
        let t = tech();
        let e = DrcEngine::new(&t);
        let b = a.translated(Point::new(a.width() + dx, a.height() + dy));
        assert!(e.spacing_violation(LayerId(0), a, b).is_none());
    });
}

#[test]
fn overlap_is_always_a_short() {
    check("overlap_is_always_a_short", 128, |rng| {
        let a = arb_rect(rng);
        let t = tech();
        let e = DrcEngine::new(&t);
        // Any rect overlapping `a` (shifted by less than its size) shorts.
        let b = a.translated(Point::new(a.width() / 2, 0));
        let v = e.spacing_violation(LayerId(0), a, b).expect("violation");
        assert_eq!(v.rule, RuleKind::Short);
    });
}

#[test]
fn same_owner_context_is_always_clean() {
    check("same_owner_context_is_always_clean", 128, |rng| {
        let shapes = arb_rects(rng, 1, 8);
        let t = tech();
        let e = DrcEngine::new(&t);
        let mut ctx = ShapeSet::new(t.layers().len());
        for &r in &shapes {
            ctx.insert(LayerId(0), r, Owner::pin(1));
        }
        ctx.rebuild();
        // A same-owner candidate can overlap everything freely.
        for &r in &shapes {
            assert!(collect(|s| e.check_shape(LayerId(0), r, Owner::pin(1), &ctx, s)).is_empty());
        }
        // The audit of a single-owner set is empty.
        assert!(collect(|s| e.audit(&ctx, s)).is_empty());
    });
}

#[test]
fn audit_counts_match_pairwise_checks() {
    check("audit_counts_match_pairwise_checks", 128, |rng| {
        let shapes = arb_rects(rng, 2, 8);
        let t = tech();
        let e = DrcEngine::new(&t);
        let mut ctx = ShapeSet::new(t.layers().len());
        for (i, &r) in shapes.iter().enumerate() {
            ctx.insert(LayerId(0), r, Owner::net(i as u64));
        }
        ctx.rebuild();
        let audit = collect(|s| e.audit(&ctx, s)).len();
        let mut pairwise = 0usize;
        for i in 0..shapes.len() {
            for j in (i + 1)..shapes.len() {
                if e.spacing_violation(LayerId(0), shapes[i], shapes[j])
                    .is_some()
                {
                    pairwise += 1;
                }
            }
        }
        assert_eq!(audit, pairwise);
    });
}

#[test]
fn via_nested_in_big_pin_is_clean() {
    check("via_nested_in_big_pin_is_clean", 128, |rng| {
        let cx = rng.gen_range(-500i64..500);
        let cy = rng.gen_range(-500i64..500);
        let t = tech();
        let e = DrcEngine::new(&t);
        let mut ctx = ShapeSet::new(t.layers().len());
        // A pin much larger than the enclosure, centered anywhere.
        let pin = Rect::centered_at(Point::new(cx, cy), 800, 400);
        ctx.insert(LayerId(0), pin, Owner::pin(0));
        ctx.rebuild();
        let via = t.via(pao_tech::ViaId(0));
        let at = Point::new(cx, cy);
        let ws = &mut DrcScratch::new();
        let v = collect(|s| e.check_via_placement(via, at, Owner::pin(0), &ctx, ws, s));
        assert!(v.is_empty(), "{v:?}");
    });
}

#[test]
fn via_overhang_below_min_step_is_dirty() {
    check("via_overhang_below_min_step_is_dirty", 64, |rng| {
        let overhang = rng.gen_range(1i64..59);
        let t = tech();
        let e = DrcEngine::new(&t);
        let mut ctx = ShapeSet::new(t.layers().len());
        // Pin exactly as tall as the enclosure minus 2×overhang.
        let pin = Rect::new(-400, -30 + overhang, 400, 30 - overhang);
        if pin.height() < 2 {
            return;
        }
        ctx.insert(LayerId(0), pin, Owner::pin(0));
        ctx.rebuild();
        let via = t.via(pao_tech::ViaId(0));
        let ws = &mut DrcScratch::new();
        let v = collect(|s| e.check_via_placement(via, Point::ORIGIN, Owner::pin(0), &ctx, ws, s));
        assert!(
            v.iter().any(|v| v.rule == RuleKind::MinStep),
            "overhang {overhang}: {v:?}"
        );
    });
}

/// The audit is invariant under shape insertion order.
#[test]
fn audit_is_order_invariant() {
    check("audit_is_order_invariant", 64, |rng| {
        let shapes = arb_rects(rng, 2, 10);
        let t = tech();
        let e = DrcEngine::new(&t);
        let build = |order: &[usize]| {
            let mut ctx = ShapeSet::new(t.layers().len());
            for &i in order {
                ctx.insert(LayerId(0), shapes[i], Owner::net(i as u64));
            }
            ctx.rebuild();
            collect(|s| e.audit(&ctx, s)).len()
        };
        let fwd: Vec<usize> = (0..shapes.len()).collect();
        let rev: Vec<usize> = (0..shapes.len()).rev().collect();
        assert_eq!(build(&fwd), build(&rev));
    });
}

/// A technology with randomized rule values, exercising every sub-check
/// the kernel can take (spacing, EOL, min step/width/area, cut
/// spacing).
fn arb_tech(rng: &mut Rng) -> Tech {
    let mut t = Tech::new(1000);
    let width = rng.gen_range(40i64..80);
    let mut m1 = Layer::routing("M1", Dir::Horizontal, 200, width, rng.gen_range(50i64..90));
    if rng.gen_bool(0.7) {
        m1.min_step = Some(MinStepRule::simple(rng.gen_range(30i64..80)));
    }
    m1.min_area = i128::from(rng.gen_range(0i64..20_000));
    if rng.gen_bool(0.5) {
        m1.eol_rules.push(EolRule {
            space: rng.gen_range(60i64..120),
            eol_width: rng.gen_range(50i64..100),
            within: rng.gen_range(0i64..40),
        });
    }
    t.add_layer(m1);
    t.add_layer(Layer::cut("V1", 50, rng.gen_range(60i64..140)));
    t.add_layer(Layer::routing("M2", Dir::Vertical, 200, 60, 70));
    let enc = rng.gen_range(25i64..70);
    t.add_via(ViaDef::new(
        "via1_0",
        LayerId(0),
        vec![Rect::new(-enc, -30, enc, 30)],
        LayerId(1),
        vec![Rect::new(-25, -25, 25, 25)],
        LayerId(2),
        vec![Rect::new(-30, -65, 30, 65)],
    ));
    t
}

/// A randomized multi-owner, multi-layer context.
fn arb_ctx(rng: &mut Rng, t: &Tech) -> ShapeSet {
    let mut ctx = ShapeSet::new(t.layers().len());
    for layer in [LayerId(0), LayerId(1), LayerId(2)] {
        for r in arb_rects(rng, 0, 5) {
            let owner = match rng.gen_range(0u32..3) {
                0 => Owner::pin(0),
                1 => Owner::net(rng.gen_range(0u64..3)),
                _ => Owner::obs(0),
            };
            ctx.insert(layer, r, owner);
        }
    }
    if rng.gen_bool(0.8) {
        ctx.rebuild();
    }
    ctx
}

/// A first-mode check stops at the first violation a collect-all one
/// reports. Over randomized tech and geometry, `via_placement_clean`
/// (its O(1) definite-reject path included) must equal collect-all
/// `check_via_placement` emptiness, and a first-mode `check_via_placement`
/// or `audit` must keep the first violation its collect-all run reports.
/// The via comparisons run with a cold scratch and with one warmed by
/// every earlier case.
#[test]
fn sink_modes_agree_with_collect_all() {
    let mut warm = DrcScratch::new();
    check("sink_modes_agree_with_collect_all", 96, |rng| {
        let t = arb_tech(rng);
        let e = DrcEngine::new(&t);
        let ctx = arb_ctx(rng, &t);
        let via = t.via(pao_tech::ViaId(0));
        let at = Point::new(rng.gen_range(-600i64..600), rng.gen_range(-600i64..600));
        let owner = Owner::pin(0);

        let all =
            collect(|s| e.check_via_placement(via, at, owner, &ctx, &mut DrcScratch::new(), s));
        let warm_all = collect(|s| e.check_via_placement(via, at, owner, &ctx, &mut warm, s));
        assert_eq!(
            warm_all, all,
            "a warm scratch must not change the violations"
        );
        let head = &all[..all.len().min(1)];
        for ws in [&mut DrcScratch::new(), &mut warm] {
            assert_eq!(
                e.via_placement_clean(via, at, owner, &ctx, ws),
                all.is_empty(),
                "first-mode verdict must equal collect-all emptiness: {all:?}"
            );
            // The attribution names the first collected rule, unless the
            // O(1) test proved a merged rule before the merge ran.
            if let Some(r) = ws
                .last_reject()
                .filter(|r| r.subcheck != SubCheck::DefiniteReject)
            {
                assert_eq!(r.rule, all[0].rule);
            }
            let mut first = DrcSink::first();
            assert_eq!(
                e.check_via_placement(via, at, owner, &ctx, ws, &mut first),
                all.is_empty()
            );
            assert_eq!(first.violations(), head);
        }

        let audit = collect(|s| e.audit(&ctx, s));
        let mut first = DrcSink::first();
        assert_eq!(e.audit(&ctx, &mut first), audit.is_empty());
        assert_eq!(first.violations(), &audit[..audit.len().min(1)]);
    });
    // The tallies stay consistent across all cases.
    assert!(warm.rejects() <= warm.probes());
    assert!(warm.early_exits() <= warm.rejects());
}

/// The `ShapeSet` visitor queries must agree with a brute-force scan over
/// all inserted shapes, for rebuilt and non-rebuilt (overflow) sets.
#[test]
fn visitor_query_matches_brute_force() {
    check("visitor_query_matches_brute_force", 96, |rng| {
        let shapes = arb_rects(rng, 0, 20);
        let mut ctx = ShapeSet::new(1);
        let owner_of = |i: usize| Owner::net((i % 4) as u64);
        for (i, &r) in shapes.iter().enumerate() {
            ctx.insert(LayerId(0), r, owner_of(i));
        }
        if rng.gen_bool(0.5) {
            ctx.rebuild();
        }
        let window = arb_rect(rng);
        let probe = Owner::net(rng.gen_range(0u64..4));

        let mut got: Vec<(Rect, Owner)> = Vec::new();
        assert!(ctx.for_each_in(LayerId(0), window, |r, o| {
            got.push((r, o));
            true
        }));
        let mut want: Vec<(Rect, Owner)> = shapes
            .iter()
            .enumerate()
            .filter(|&(_, r)| r.touches(window))
            .map(|(i, &r)| (r, owner_of(i)))
            .collect();
        got.sort();
        want.sort();
        assert_eq!(got, want, "visitor must see exactly the touching shapes");

        let mut conf: Vec<(Rect, Owner)> = Vec::new();
        assert!(ctx.for_each_conflict(LayerId(0), window, probe, |r, o| {
            conf.push((r, o));
            true
        }));
        let mut conf_want: Vec<(Rect, Owner)> = want
            .iter()
            .copied()
            .filter(|&(_, o)| o.conflicts_with(probe))
            .collect();
        conf.sort();
        conf_want.sort();
        assert_eq!(conf, conf_want);

        let mut fr: Vec<Rect> = Vec::new();
        assert!(ctx.for_each_friend(LayerId(0), window, probe, |r| {
            fr.push(r);
            true
        }));
        let mut fr_want: Vec<Rect> = want
            .iter()
            .copied()
            .filter_map(|(r, o)| (o == probe).then_some(r))
            .collect();
        fr.sort();
        fr_want.sort();
        assert_eq!(fr, fr_want);

        // Early exit visits exactly one touching shape (when any exist).
        if !want.is_empty() {
            let mut n = 0;
            assert!(!ctx.for_each_in(LayerId(0), window, |_, _| {
                n += 1;
                false
            }));
            assert_eq!(n, 1);
        }
    });
}

/// Translating the whole context never changes the verdicts.
#[test]
fn checks_are_translation_invariant() {
    check("checks_are_translation_invariant", 64, |rng| {
        let shapes = arb_rects(rng, 1, 6);
        let dx = rng.gen_range(-10_000i64..10_000);
        let dy = rng.gen_range(-10_000i64..10_000);
        let t = tech();
        let e = DrcEngine::new(&t);
        let count = |delta: Point| {
            let mut ctx = ShapeSet::new(t.layers().len());
            for (i, &r) in shapes.iter().enumerate() {
                ctx.insert(LayerId(0), r.translated(delta), Owner::net(i as u64));
            }
            ctx.rebuild();
            collect(|s| e.audit(&ctx, s)).len()
        };
        assert_eq!(count(Point::ORIGIN), count(Point::new(dx, dy)));
    });
}
