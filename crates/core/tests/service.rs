//! Service-layer determinism: concurrent queries against a resident
//! [`OracleService`] must be byte-identical to serial ones, and an
//! `eco_update` + re-query must match a cold full re-analysis of the
//! moved design bit-for-bit.
//!
//! Reject collection stays off here — the decision ledger is
//! process-global and these tests run concurrently with others in this
//! binary; the ledger path is exercised end-to-end by the CLI serve test
//! and the `scripts/verify.sh` serve gate.

use pao_core::service::selection_dump;
use pao_core::{
    EcoMove, EcoTail, EcoTarget, OracleService, PaoConfig, PinAccessOracle, RunBudget, ServiceError,
};
use pao_design::CompId;
use pao_testgen::{generate, SuiteCase};

fn start_service() -> OracleService {
    let (tech, design) = generate(&SuiteCase::small_smoke());
    OracleService::start(
        tech,
        design,
        PaoConfig::default(),
        RunBudget::unlimited(),
        false,
    )
}

/// Every query the determinism tests replay: one of each kind per
/// component, rendered to its debug string (typed replies are `Eq`, but
/// the byte-identity claim is easiest stated over the rendering).
fn query_all(svc: &OracleService) -> Vec<String> {
    let design = svc.design().clone();
    let tech = svc.tech().clone();
    let mut out = Vec::new();
    for (ci, comp) in design.components().iter().enumerate() {
        let name: &str = &comp.name;
        let Some(master) = design.component(CompId(ci as u32)).master_in(&tech) else {
            continue;
        };
        for pin in &master.pins {
            out.push(format!("{:?}", svc.pin_access(name, &pin.name)));
        }
        out.push(format!("{:?}", svc.instance_patterns(name)));
        out.push(format!("{:?}", svc.cluster_selection(name)));
    }
    out.push(svc.selection_dump());
    out
}

#[test]
fn concurrent_queries_match_serial_byte_for_byte() {
    let svc = start_service();
    let serial = query_all(&svc);
    assert!(serial.len() > 3, "smoke design should yield many queries");
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4).map(|_| scope.spawn(|| query_all(&svc))).collect();
        for h in handles {
            let threaded = h.join().unwrap();
            assert_eq!(serial, threaded, "concurrent replies diverged");
        }
    });
}

#[test]
fn unknown_queries_return_typed_errors() {
    let svc = start_service();
    assert_eq!(
        svc.pin_access("no_such_instance", "A"),
        Err(ServiceError::UnknownInstance("no_such_instance".to_owned()))
    );
    let design = svc.design().clone();
    let tech = svc.tech().clone();
    let comp = &design.components()[0];
    let master = design
        .component(CompId(0))
        .master_in(&tech)
        .expect("smoke components have masters");
    assert_eq!(
        svc.pin_access(&comp.name, "no_such_pin"),
        Err(ServiceError::UnknownPin {
            master: master.name.to_string(),
            pin: "no_such_pin".to_owned(),
        })
    );
    assert!(svc.instance_patterns("nope").is_err());
    assert!(svc.cluster_selection("nope").is_err());
}

/// Swapping two same-master instances preserves the signature set, so
/// the ECO must take the dirty-cluster fast path (zero cache misses) —
/// and still match a cold full analysis of the moved placement
/// bit-for-bit: same selection dump, same access points everywhere.
#[test]
fn eco_update_matches_cold_full_reanalysis() {
    let mut svc = start_service();
    let design = svc.design().clone();

    // Find two instances of the same master to swap.
    let comps = design.components();
    let (a, b) = 'found: {
        for i in 0..comps.len() {
            for j in (i + 1)..comps.len() {
                if comps[i].master == comps[j].master && comps[i].location != comps[j].location {
                    break 'found (i, j);
                }
            }
        }
        panic!("smoke design should repeat a master");
    };
    let moves = [
        EcoMove {
            inst: comps[a].name.to_string(),
            target: EcoTarget::Abs(comps[b].location),
        },
        EcoMove {
            inst: comps[b].name.to_string(),
            target: EcoTarget::Abs(comps[a].location),
        },
    ];

    let reply = svc.eco_update(&moves, None, None).expect("eco applies");
    assert_eq!(reply.moved, 2);
    assert_eq!(reply.eco_seq, 1);
    assert_eq!(svc.eco_updates(), 1);
    assert_eq!(
        reply.cache_misses, 0,
        "signature-preserving swap must stay on the dirty-cluster fast path"
    );
    assert!(!reply.full_reanalysis);

    // Cold reference: a fresh oracle over the moved placement.
    let (tech, mut moved) = generate(&SuiteCase::small_smoke());
    let loc_a = moved.components()[a].location;
    let loc_b = moved.components()[b].location;
    moved.component_mut(CompId(a as u32)).location = loc_b;
    moved.component_mut(CompId(b as u32)).location = loc_a;
    let cold = PinAccessOracle::new().analyze(&tech, &moved);

    assert_eq!(
        svc.selection_dump(),
        selection_dump(&moved, &cold),
        "eco result diverged from cold re-analysis"
    );
    let warm_design = svc.design().clone();
    let warm = svc.result().clone();
    assert_eq!(warm.stats.total_aps, cold.stats.total_aps);
    assert_eq!(warm.stats.failed_pins, cold.stats.failed_pins);
    for ci in 0..moved.components().len() {
        let comp = CompId(ci as u32);
        let Some(master) = moved.component(comp).master_in(&tech) else {
            continue;
        };
        for pi in 0..master.pins.len() {
            assert_eq!(
                warm.access_point(&warm_design, comp, pi),
                cold.access_point(&moved, comp, pi),
                "access point diverged at comp {ci} pin {pi}"
            );
        }
    }
}

/// An ECO naming a missing instance is rejected whole: nothing moves,
/// the sequence number does not advance.
#[test]
fn eco_update_rejects_unknown_instance_atomically() {
    let mut svc = start_service();
    let before = svc.selection_dump();
    let known = svc.design().components()[0].name.to_string();
    let moves = [
        EcoMove {
            inst: known,
            target: EcoTarget::Delta(pao_geom::Point { x: 100, y: 0 }),
        },
        EcoMove {
            inst: "ghost".to_owned(),
            target: EcoTarget::Delta(pao_geom::Point { x: 0, y: 0 }),
        },
    ];
    assert_eq!(
        svc.eco_update(&moves, None, None),
        Err(ServiceError::UnknownInstance("ghost".to_owned()))
    );
    assert_eq!(svc.eco_updates(), 0);
    assert_eq!(
        svc.selection_dump(),
        before,
        "rejected ECO must not move anything"
    );
}

/// An ECO whose re-analysis blows its deadline degrades gracefully: the
/// previous snapshot keeps serving, the store's counts roll back, and a
/// later unconstrained ECO still lands bit-identically.
#[test]
fn degraded_eco_keeps_previous_snapshot_and_cache() {
    let mut svc = start_service();
    let before = svc.selection_dump();
    let cache_before = svc.cache_stats();
    let known = svc.design().components()[0].name.to_string();
    let moves = [EcoMove {
        inst: known.clone(),
        target: EcoTarget::Delta(pao_geom::Point { x: 40, y: 0 }),
    }];

    // A zero deadline deterministically skips every phase's work.
    let err = svc
        .eco_update(&moves, Some(std::time::Duration::ZERO), None)
        .expect_err("zero-deadline ECO must degrade");
    match err {
        ServiceError::EcoDegraded {
            quarantined,
            skipped,
            stalls,
        } => {
            assert!(skipped > 0, "zero deadline must skip work");
            assert_eq!(quarantined, 0);
            assert_eq!(stalls, 0);
        }
        other => panic!("expected EcoDegraded, got {other:?}"),
    }
    assert_eq!(svc.eco_updates(), 0, "degraded ECO must not count");
    assert_eq!(svc.degraded_ecos(), 1);
    assert_eq!(
        svc.selection_dump(),
        before,
        "degraded ECO must keep the previous snapshot serving"
    );
    assert_eq!(
        svc.cache_stats(),
        cache_before,
        "degraded ECO must roll back the store's counts"
    );

    // The service stays healthy: the same move applies cleanly without a
    // deadline and matches a cold analysis of the moved placement.
    let reply = svc.eco_update(&moves, None, None).expect("eco applies");
    assert_eq!(reply.eco_seq, 1);
    let (tech, mut moved) = generate(&SuiteCase::small_smoke());
    moved.component_mut(CompId(0)).location += pao_geom::Point { x: 40, y: 0 };
    let cold = PinAccessOracle::new().analyze(&tech, &moved);
    assert_eq!(svc.selection_dump(), selection_dump(&moved, &cold));
}

/// Journaled ECOs replay to a bit-identical snapshot: a service that
/// records batches, "dies", and is rebuilt from the original design plus
/// the recovered journal must match the uninterrupted twin byte-for-byte.
#[test]
fn journal_replay_matches_uninterrupted_twin() {
    let dir = std::env::temp_dir().join(format!("pao_svc_journal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("eco.journal");

    let mut svc = start_service();
    svc.attach_journal(pao_core::EcoJournal::create(&path).expect("journal create"));
    let names: Vec<String> = svc
        .design()
        .components()
        .iter()
        .map(|c| c.name.to_string())
        .collect();
    let batches: Vec<Vec<EcoMove>> = vec![
        vec![EcoMove {
            inst: names[0].clone(),
            target: EcoTarget::Delta(pao_geom::Point { x: 40, y: 0 }),
        }],
        vec![
            EcoMove {
                inst: names[1].clone(),
                target: EcoTarget::Delta(pao_geom::Point { x: 0, y: -40 }),
            },
            EcoMove {
                inst: names[0].clone(),
                target: EcoTarget::Delta(pao_geom::Point { x: -40, y: 0 }),
            },
        ],
    ];
    for b in &batches {
        svc.eco_update(b, None, None)
            .expect("journaled eco applies");
    }
    let twin_dump = svc.selection_dump();
    drop(svc); // "kill" the first incarnation

    // Restart: fresh load of the original design, then journal replay.
    let (journal, entries, warn) = pao_core::EcoJournal::resume(&path).expect("journal resume");
    assert!(warn.is_none(), "{warn:?}");
    assert_eq!(entries.len(), batches.len());
    let mut restarted = start_service();
    let replayed = restarted.replay(&entries).expect("replay applies");
    assert_eq!(replayed, batches.len() as u64);
    restarted.attach_journal(journal);
    assert_eq!(
        restarted.selection_dump(),
        twin_dump,
        "replayed snapshot diverged from the uninterrupted twin"
    );
    assert_eq!(restarted.eco_updates(), batches.len() as u64);
}

/// The placed bounding box of every component (`None` when unplaced or
/// of an unknown master).
fn boxes(tech: &pao_tech::Tech, design: &pao_design::Design) -> Vec<Option<pao_geom::Rect>> {
    design
        .components()
        .iter()
        .map(|c| {
            let m = c.master_in(tech)?;
            c.is_placed.then(|| {
                pao_geom::Transform::new(c.location, c.orient, m.width, m.height).placed_bbox()
            })
        })
        .collect()
}

/// The move kinds the exactness property draws from.
#[derive(Debug, Clone, Copy)]
enum MoveKind {
    /// 1–3 sites left or right into free row space.
    Shift,
    /// Two same-master, same-orientation instances in different rows
    /// trade places.
    Swap,
    /// A cell closes a 1–3 site gap to its right neighbor: two clusters
    /// become one.
    Merge,
    /// A cell abutting a left neighbor steps one site right: one cluster
    /// becomes two.
    Split,
    /// A multi-height cell shifts 1–3 sites.
    MultiHeight,
}

/// Draws one legal batch of `kind` against `work` (moves are applied to
/// `work` as they are drawn, so later moves see earlier ones). Empty
/// when no candidate was found.
fn draw_batch(
    tech: &pao_tech::Tech,
    work: &mut pao_design::Design,
    kind: MoveKind,
    rng: &mut pao_ptest::Rng,
) -> Vec<EcoMove> {
    use pao_geom::{Point, Rect};
    let step = work.rows[0].step;
    let row_h = work.rows[0].height;
    let (xmin, xmax) = work.rows.iter().fold((i64::MAX, i64::MIN), |(lo, hi), r| {
        (
            lo.min(r.origin.x),
            hi.max(r.origin.x + i64::from(r.num_sites) * r.step),
        )
    });
    let n = work.components().len();
    let mut out = Vec::new();
    let moves = if matches!(kind, MoveKind::Shift) {
        2
    } else {
        1
    };
    for _ in 0..moves {
        let bx = boxes(tech, work);
        let free = |skip: &[usize], b: Rect| {
            b.xlo() >= xmin
                && b.xhi() <= xmax
                && bx
                    .iter()
                    .enumerate()
                    .all(|(j, o)| skip.contains(&j) || o.is_none_or(|o| !o.overlaps(b)))
        };
        // Nearest box edge to the right of / left of `b` in its y-span.
        let gap_right = |i: usize, b: Rect| {
            bx.iter()
                .enumerate()
                .filter_map(|(j, o)| o.filter(|o| j != i && o.ylo() < b.yhi() && b.ylo() < o.yhi()))
                .filter(|o| o.xlo() >= b.xhi())
                .map(|o| o.xlo() - b.xhi())
                .min()
        };
        let abuts_left = |i: usize, b: Rect| {
            bx.iter().enumerate().any(|(j, o)| {
                o.is_some_and(|o| {
                    j != i && o.xhi() == b.xlo() && o.ylo() < b.yhi() && b.ylo() < o.yhi()
                })
            })
        };
        let mut found: Option<Vec<(usize, Point)>> = None;
        for _ in 0..4000 {
            let i = rng.gen_range(0..n);
            let Some(b) = bx[i] else { continue };
            let tall = b.height() > row_h;
            let delta = |dx: i64| Point::new(dx, 0);
            let pick = match kind {
                MoveKind::Shift | MoveKind::MultiHeight => {
                    if matches!(kind, MoveKind::MultiHeight) != tall {
                        continue;
                    }
                    let s = rng.gen_range(1i64..=3) * if rng.gen_bool(0.5) { step } else { -step };
                    free(&[i], b.translated(delta(s))).then(|| vec![(i, delta(s))])
                }
                MoveKind::Merge => match gap_right(i, b) {
                    Some(g) if !tall && g > 0 && g <= 3 * step && g % step == 0 => {
                        free(&[i], b.translated(delta(g))).then(|| vec![(i, delta(g))])
                    }
                    _ => None,
                },
                MoveKind::Split => {
                    let room = gap_right(i, b).is_none_or(|g| g >= step);
                    (!tall && room && abuts_left(i, b) && free(&[i], b.translated(delta(step))))
                        .then(|| vec![(i, delta(step))])
                }
                MoveKind::Swap => {
                    let (ci, cands): (&pao_design::Component, Vec<usize>) = {
                        let ci = &work.components()[i];
                        let cands = (0..n)
                            .filter(|&j| {
                                let cj = &work.components()[j];
                                j != i
                                    && bx[j].is_some()
                                    && cj.master == ci.master
                                    && cj.orient == ci.orient
                                    && cj.location.y != ci.location.y
                            })
                            .collect();
                        (ci, cands)
                    };
                    if cands.is_empty() {
                        continue;
                    }
                    let j = cands[rng.gen_range(0..cands.len())];
                    let (li, lj) = (ci.location, work.components()[j].location);
                    Some(vec![(i, lj - li), (j, li - lj)])
                }
            };
            if pick.is_some() {
                found = pick;
                break;
            }
        }
        for (i, d) in found.into_iter().flatten() {
            let comp = CompId(i as u32);
            work.component_mut(comp).location += d;
            out.push(EcoMove {
                inst: work.component(comp).name.to_string(),
                target: EcoTarget::Delta(d),
            });
        }
    }
    out
}

/// The service's snapshot must equal a cold analysis of its placement:
/// selection dump, every access point, the counters, the whole
/// unique-instance table (ids, signatures, representatives, members and
/// each component's class) and the index each query reports.
fn assert_matches_cold(svc: &OracleService, config: &PaoConfig, ctx: &str) {
    let design = svc.design().clone();
    let tech = svc.tech().clone();
    let cold = PinAccessOracle::with_config(config.clone()).analyze(&tech, &design);
    let warm = svc.result().clone();
    assert_eq!(
        svc.selection_dump(),
        selection_dump(&design, &cold),
        "{ctx}: selection dump diverged"
    );
    let (got, want) = (warm.unique_table(), cold.unique_table());
    let first = got
        .classes
        .iter()
        .zip(&want.classes)
        .position(|(g, w)| g != w);
    assert!(
        got == want,
        "{ctx}: unique-instance table diverged ({} vs {} classes, first differing class {first:?})",
        got.classes.len(),
        want.classes.len()
    );
    assert!(
        warm.stats.counters_eq(&cold.stats),
        "{ctx}: counters diverged\nservice:\n{}\ncold:\n{}",
        warm.stats,
        cold.stats
    );
    for (ci, c) in design.components().iter().enumerate() {
        let comp = CompId(ci as u32);
        assert_eq!(
            svc.instance_patterns(&c.name).ok().map(|r| r.unique_index),
            cold.comp_uniq[ci].map(|u| u.index()),
            "{ctx}: unique index of comp {ci}"
        );
        let Some(master) = c.master_in(&tech) else {
            continue;
        };
        for pi in 0..master.pins.len() {
            assert_eq!(
                warm.access_point(&design, comp, pi),
                cold.access_point(&design, comp, pi),
                "{ctx}: access point of comp {ci} pin {pi}"
            );
        }
    }
}

/// Seeded exactness property of the ECO tails: random batches of every
/// move kind on three designs, at 1 and 4 threads, each compared with a
/// cold analysis of the moved placement.
#[test]
fn eco_batches_match_cold_analysis() {
    use MoveKind::{Merge, MultiHeight, Shift, Split, Swap};
    let cases = [
        SuiteCase::small_smoke(),
        pao_testgen::case_by_name("ispd18s_test2").expect("suite case"),
        pao_testgen::aes14_case(),
    ];
    let plan = [Shift, Swap, Merge, Split, MultiHeight, Swap, Shift];
    for case in &cases {
        for threads in [1, 4] {
            let config = PaoConfig {
                threads,
                ..PaoConfig::default()
            };
            let (tech, design) = generate(case);
            let mut work = design.clone();
            let mut svc = OracleService::start(
                tech.clone(),
                design,
                config.clone(),
                RunBudget::unlimited(),
                false,
            );
            let mut rng = pao_ptest::Rng::new(pao_ptest::case_seed(&case.name, threads as u32));
            for (b, &kind) in plan.iter().enumerate() {
                let batch = draw_batch(&tech, &mut work, kind, &mut rng);
                assert!(!batch.is_empty(), "{}: no {kind:?} move found", case.name);
                let reply = svc.eco_update(&batch, None, None).expect("eco applies");
                let ctx = format!(
                    "{} threads {threads} batch {b} ({kind:?}, {:?} tail)",
                    case.name, reply.tail
                );
                assert_matches_cold(&svc, &config, &ctx);
            }
            assert!(
                svc.eco_tail_count(EcoTail::Window) > 0,
                "{} threads {threads}: no batch took the window tail",
                case.name
            );
        }
    }
}

/// Cases that must leave the window: a snapshot carrying repair
/// overrides, a move that makes a re-probed pin dirty, and a move onto a
/// new signature. All run the full tail and still land on the cold
/// answer.
#[test]
fn eco_fallbacks_match_cold_analysis() {
    // Without boundary-conflict-aware patterns the smoke case needs
    // repair, so its snapshot carries overrides.
    let mut config = PaoConfig {
        threads: 2,
        ..PaoConfig::default()
    };
    config.pattern.bca = false;
    let (tech, design) = generate(&SuiteCase::small_smoke());
    let mut work = design.clone();
    let mut svc = OracleService::start(
        tech.clone(),
        design,
        config.clone(),
        RunBudget::unlimited(),
        false,
    );
    assert!(!svc.result().overrides.is_empty(), "fixture needs repair");
    let mut rng = pao_ptest::Rng::new(11);
    let batch = draw_batch(&tech, &mut work, MoveKind::Swap, &mut rng);
    let reply = svc.eco_update(&batch, None, None).expect("eco applies");
    assert_eq!((reply.tail, reply.cache_misses), (EcoTail::Full, 0));
    assert_matches_cold(&svc, &config, "snapshot with overrides");

    // A repair-free snapshot, then a cell dropped onto a same-signature
    // twin: every signature stays cached, but the stacked pins short.
    let config = PaoConfig {
        threads: 2,
        ..PaoConfig::default()
    };
    let (tech, design) = generate(&SuiteCase::small_smoke());
    let comps = design.components();
    let (a, b) = (0..comps.len())
        .flat_map(|i| (0..comps.len()).map(move |j| (i, j)))
        .find(|&(i, j)| {
            i != j
                && comps[i].master == comps[j].master
                && comps[i].orient == comps[j].orient
                && design.track_phases(&comps[i]) == design.track_phases(&comps[j])
        })
        .expect("smoke repeats a signature");
    let (name_a, loc_a, loc_b) = (
        comps[a].name.to_string(),
        comps[a].location,
        comps[b].location,
    );
    let mut svc = OracleService::start(tech, design, config.clone(), RunBudget::unlimited(), false);
    assert!(svc.result().overrides.is_empty() && svc.result().stats.failed_pins == 0);
    let stack = [EcoMove {
        inst: name_a.clone(),
        target: EcoTarget::Abs(loc_b),
    }];
    let reply = svc.eco_update(&stack, None, None).expect("eco applies");
    assert_eq!(
        (reply.tail, reply.cache_misses),
        (EcoTail::Full, 0),
        "a dirty re-probed pin must hand over to the full tail"
    );
    assert_matches_cold(&svc, &config, "dirty re-probe");
    // The stacked snapshot is not repair-free: moving back is full too.
    let back = [EcoMove {
        inst: name_a,
        target: EcoTarget::Abs(loc_a),
    }];
    let reply = svc.eco_update(&back, None, None).expect("eco applies");
    assert_eq!(reply.tail, EcoTail::Full);
    assert_matches_cold(&svc, &config, "after the dirty snapshot");

    // A move onto a new signature: a free off-grid shift. The pipeline
    // runs with the resident store attached, so only the new signatures
    // run apgen and pattern work.
    let (tech, design) = generate(&SuiteCase::small_smoke());
    let signatures = |d: &pao_design::Design| -> std::collections::HashSet<_> {
        pao_core::unique::extract_unique_instances(&tech, d)
            .into_iter()
            .map(|u| (u.master, u.orient, u.phases))
            .collect()
    };
    let before = signatures(&design);
    let bx = boxes(&tech, &design);
    let (comp, dx, new) = (0..bx.len())
        .flat_map(|i| [40i64, -40, 80, -80].map(move |dx| (i, dx)))
        .find_map(|(i, dx)| {
            let b = bx[i]?.translated(pao_geom::Point::new(dx, 0));
            let clash = bx
                .iter()
                .enumerate()
                .any(|(j, o)| j != i && o.is_some_and(|o| o.overlaps(b)));
            let mut moved = design.clone();
            moved.component_mut(CompId(i as u32)).location.x += dx;
            let new = signatures(&moved).difference(&before).count();
            (!clash && new > 0).then_some((i, dx, new))
        })
        .expect("a free shift onto a new signature");
    let name = design.components()[comp].name.to_string();
    let mut svc = OracleService::start(tech, design, config.clone(), RunBudget::unlimited(), false);
    let shift = [EcoMove {
        inst: name,
        target: EcoTarget::Delta(pao_geom::Point::new(dx, 0)),
    }];
    let reply = svc.eco_update(&shift, None, None).expect("eco applies");
    assert_eq!(
        reply.cache_misses, new,
        "only the new signatures run apgen and patterns"
    );
    assert_eq!(
        reply.cache_hits + reply.cache_misses,
        svc.result().unique.len()
    );
    assert!(reply.full_reanalysis && reply.tail == EcoTail::Full);
    assert_matches_cold(&svc, &config, "move onto a new signature");
}

/// A move must re-probe the pins it can reach, not just its own: a pin-
/// less filler whose obstruction lands beside a neighbor's via dirties
/// only the neighbor's pin. The window has to notice and hand over to
/// the full tail, which repairs exactly as a cold run does.
#[test]
fn window_reprobes_the_neighbors_a_move_reaches() {
    use pao_design::{Component, Design, Net, NetPin, Row, TrackPattern};
    use pao_geom::{Dir, Orient, Point, Rect};
    use pao_tech::rules::MinStepRule;
    use pao_tech::{Layer, Macro, Pin, PinDir, Port, Tech, ViaDef};

    let mut t = Tech::new(1000);
    let mut m1 = Layer::routing("M1", Dir::Horizontal, 200, 60, 70);
    m1.min_step = Some(MinStepRule::simple(60));
    let m1 = t.add_layer(m1);
    let v1 = t.add_layer(Layer::cut("V1", 70, 80));
    let m2 = t.add_layer(Layer::routing("M2", Dir::Vertical, 200, 60, 70));
    let mut via = ViaDef::new(
        "via1_0",
        m1,
        vec![Rect::new(-65, -35, 65, 35)],
        v1,
        vec![Rect::new(-35, -35, 35, 35)],
        m2,
        vec![Rect::new(-35, -65, 35, 65)],
    );
    via.is_default = true;
    t.add_via(via);
    let mut buf = Macro::new("BUFX1", 1200, 1400);
    buf.pins.push(Pin::new(
        "A",
        PinDir::Input,
        vec![Port::rects(m1, vec![Rect::new(150, 100, 300, 900)])],
    ));
    buf.pins.push(Pin::new(
        "Y",
        PinDir::Output,
        vec![Port::rects(m1, vec![Rect::new(800, 100, 950, 900)])],
    ));
    t.add_macro(buf);
    let mut fill = Macro::new("FILLX1", 400, 1400);
    fill.obs.push((m1, Rect::new(0, 100, 60, 900)));
    t.add_macro(fill);

    let mut d = Design::new("reach", Rect::new(0, 0, 20_000, 20_000));
    d.tracks
        .push(TrackPattern::new(Dir::Horizontal, 100, 200, 90, vec![m1]));
    d.tracks
        .push(TrackPattern::new(Dir::Vertical, 100, 200, 90, vec![m2]));
    d.rows.push(Row::new(
        "r0",
        "core",
        Point::new(0, 0),
        Orient::N,
        100,
        200,
        1400,
    ));
    let u0 = d.add_component(Component::new("u0", "BUFX1", Point::new(0, 0), Orient::N));
    d.add_component(Component::new(
        "f0",
        "FILLX1",
        Point::new(6100, 0),
        Orient::N,
    ));
    let mut n0 = Net::new("n0");
    for pin in ["A", "Y"] {
        n0.pins.push(NetPin::Comp {
            comp: u0,
            pin: pin.into(),
        });
    }
    d.add_net(n0);

    let config = PaoConfig {
        threads: 2,
        ..PaoConfig::default()
    };
    let mut svc = OracleService::start(t, d, config.clone(), RunBudget::unlimited(), false);
    assert!(svc.result().overrides.is_empty() && svc.result().stats.failed_pins == 0);
    // Whole track periods keep the filler's signature: 6100 → 900 puts
    // its obstruction within M1 spacing of u0's Y vias (at x = 800).
    let moves = [EcoMove {
        inst: "f0".to_owned(),
        target: EcoTarget::Delta(Point::new(-5200, 0)),
    }];
    let reply = svc.eco_update(&moves, None, None).expect("eco applies");
    assert_eq!(reply.cache_misses, 0);
    assert_matches_cold(&svc, &config, "filler beside a via");
    let touched = svc.result().stats.repaired_pins + svc.result().stats.failed_pins;
    assert!(
        touched > 0,
        "fixture must dirty u0/Y: {}",
        svc.result().stats
    );
    assert_eq!(reply.tail, EcoTail::Full);
}
