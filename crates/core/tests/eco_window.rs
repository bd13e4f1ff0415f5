//! Window-tail ECO contracts that touch process-global state — the fault
//! plan and the decision ledger — so they run in their own binary, in
//! one `#[test]`:
//!
//! 1. Reject reasons follow the pin's signature across a swap that
//!    renumbers unique instances: every `get_pin_access` reply equals a
//!    freshly started service's on the moved placement.
//! 2. A window ECO degrades exactly like a full one: an injected select
//!    or audit fault, a watchdog-detected stall and an expired deadline
//!    each answer [`ServiceError::EcoDegraded`] and keep the previous
//!    snapshot serving.
//! 3. The unique-instance table follows a cached ECO per moved
//!    component: the `unique.classified` counter (a process-global
//!    metric) rises by the ECO's distinct moved components on the window
//!    and the full tail alike, and by every analyzable component in a
//!    cold analysis.
//! 4. Reject reasons live in the analysis store: a service restarted on
//!    a checkpoint directory answers every `get_pin_access` exactly as
//!    the uninterrupted one — from a store a ledger-on service wrote
//!    (restored whole) and from one a plain analysis wrote (no
//!    histograms, so recomputed) — and, after an ECO onto a new
//!    signature, exactly as a freshly started service.

use pao_core::unique::extract_unique_instances;
use pao_core::{
    fault, AnalysisCache, EcoMove, EcoTail, EcoTarget, OracleService, PaoConfig, PinAccessOracle,
    RunBudget, ServiceError, Watchdog,
};
use pao_design::{CompId, Design};
use pao_tech::Tech;
use pao_testgen::{generate, SuiteCase};
use std::time::Duration;

fn config() -> PaoConfig {
    PaoConfig {
        threads: 2,
        ..PaoConfig::default()
    }
}

/// Two same-master instances in different rows whose swap renumbers the
/// unique instances: signatures in first-appearance order change.
fn renumbering_swap(tech: &Tech, design: &Design) -> (usize, usize) {
    let order = |d: &Design| -> Vec<_> {
        extract_unique_instances(tech, d)
            .into_iter()
            .map(|u| (u.master, u.orient, u.phases))
            .collect()
    };
    let before = order(design);
    let comps = design.components();
    for a in 0..comps.len() {
        for b in (a + 1)..comps.len() {
            let (ca, cb) = (&comps[a], &comps[b]);
            if ca.master != cb.master || ca.orient != cb.orient || ca.location.y == cb.location.y {
                continue;
            }
            let mut moved = design.clone();
            moved.component_mut(CompId(a as u32)).location = cb.location;
            moved.component_mut(CompId(b as u32)).location = ca.location;
            if order(&moved) != before {
                return (a, b);
            }
        }
    }
    panic!("no renumbering swap in the fixture");
}

fn swap_moves(design: &Design, (a, b): (usize, usize)) -> Vec<EcoMove> {
    let comps = design.components();
    vec![
        EcoMove {
            inst: comps[a].name.to_string(),
            target: EcoTarget::Abs(comps[b].location),
        },
        EcoMove {
            inst: comps[b].name.to_string(),
            target: EcoTarget::Abs(comps[a].location),
        },
    ]
}

/// Every pin's `get_pin_access` reply (reject histograms included), in
/// component/pin order.
fn all_replies(svc: &OracleService) -> Vec<String> {
    let (design, tech) = (svc.design().clone(), svc.tech().clone());
    let mut out = Vec::new();
    for c in design.components() {
        let Some(master) = c.master_in(&tech) else {
            continue;
        };
        for pin in &master.pins {
            out.push(format!("{:?}", svc.pin_access(&c.name, &pin.name)));
        }
    }
    out
}

#[test]
fn window_rejects_and_degrade_contract() {
    fault::disarm();
    let (tech, design) = generate(&SuiteCase::small_smoke());
    let swap = renumbering_swap(&tech, &design);
    let moves = swap_moves(&design, swap);

    // 1. Reject attribution survives the renumbering.
    let mut svc = OracleService::start(
        tech.clone(),
        design.clone(),
        config(),
        RunBudget::unlimited(),
        true,
    );
    let reply = svc.eco_update(&moves, None, None).expect("eco applies");
    assert_eq!((reply.tail, reply.cache_misses), (EcoTail::Window, 0));
    let fresh = OracleService::start(
        tech.clone(),
        (**svc.design()).clone(),
        config(),
        RunBudget::unlimited(),
        true,
    );
    let (got, want) = (all_replies(&svc), all_replies(&fresh));
    assert!(want.iter().any(|l| l.contains("count")), "vacuous fixture");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "reject histogram diverged after the swap");
    }
    assert_eq!(got.len(), want.len());
    drop((svc, fresh));

    // 2. Degrade arms: each must reject the window ECO whole.
    let start = || {
        OracleService::start(
            tech.clone(),
            design.clone(),
            config(),
            RunBudget::unlimited(),
            false,
        )
    };
    type Arm = (&'static str, Option<Duration>, Option<Watchdog>);
    let arms: [Arm; 4] = [
        ("select-fault", None, None),
        ("audit-fault", None, None),
        (
            "select-stall",
            None,
            Some(Watchdog::with_min_stall(Duration::from_millis(100))),
        ),
        ("deadline", Some(Duration::ZERO), None),
    ];
    for (arm, deadline, watchdog) in arms {
        let mut svc = start();
        let before = svc.selection_dump();
        match arm {
            "select-fault" => fault::arm("select.group", 0),
            "audit-fault" => fault::arm("audit.pin", 0),
            "select-stall" => fault::arm_stall("select.group", 0, 600),
            _ => {}
        }
        let err = svc
            .eco_update(&moves, deadline, watchdog)
            .expect_err("degraded window ECO must be rejected");
        fault::disarm();
        let ServiceError::EcoDegraded {
            quarantined,
            skipped,
            stalls,
        } = err
        else {
            panic!("{arm}: expected EcoDegraded, got {err:?}");
        };
        match arm {
            "select-fault" | "audit-fault" => assert_eq!(quarantined, 1, "{arm}"),
            "select-stall" => assert!(stalls > 0, "{arm}"),
            _ => {}
        }
        assert_eq!(svc.selection_dump(), before, "{arm}: snapshot replaced");
        assert_eq!((svc.eco_updates(), svc.degraded_ecos()), (0, 1), "{arm}");
        // The service stays healthy and the same batch still windows.
        let reply = svc.eco_update(&moves, None, None).expect("eco applies");
        assert_eq!(reply.tail, EcoTail::Window, "{arm}");
        if arm == "deadline" {
            // A zero budget skips every group the window re-solves, and a
            // window whose selection degraded re-probes no pin.
            assert_eq!(skipped, reply.groups_resolved, "{arm}");
        }
    }

    // 3. Proportionality of the unique-instance update.
    pao_obs::enable_metrics();
    let classified = || pao_obs::snapshot().counter("unique.classified");
    let analyzable = design
        .components()
        .iter()
        .filter(|c| c.is_placed && c.master_in(&tech).is_some())
        .count() as u64;
    let before = classified();
    let _ = PinAccessOracle::with_config(config()).analyze(&tech, &design);
    assert_eq!(classified() - before, analyzable, "cold analysis");
    let mut svc = start();
    let eco = |svc: &mut OracleService, batch: &[EcoMove], distinct: u64, tail: EcoTail| {
        let before = classified();
        let reply = svc.eco_update(batch, None, None).expect("eco applies");
        assert_eq!((reply.tail, reply.cache_misses), (tail, 0), "{batch:?}");
        assert_eq!(
            reply.cache_hits,
            svc.result().unique.len(),
            "one hit per class"
        );
        assert_eq!(classified() - before, distinct, "{tail:?} tail: {batch:?}");
    };
    // The renumbering swap with one move listed twice: two components.
    let mut twice = moves.clone();
    twice.push(moves[0].clone());
    eco(&mut svc, &twice, 2, EcoTail::Window);
    // A cell dropped onto a same-signature twin dirties a re-probed pin,
    // so the window hands over to the full tail; the stacked snapshot
    // is not repair-free, so moving back runs the full tail directly.
    let (name, home, twin) = {
        let d = svc.design();
        let comps = d.components();
        let (a, b) = (0..comps.len())
            .flat_map(|i| (0..comps.len()).map(move |j| (i, j)))
            .find(|&(i, j)| {
                i != j
                    && comps[i].master == comps[j].master
                    && comps[i].orient == comps[j].orient
                    && d.track_phases(&comps[i]) == d.track_phases(&comps[j])
            })
            .expect("smoke repeats a signature");
        (
            comps[a].name.to_string(),
            comps[a].location,
            comps[b].location,
        )
    };
    let to = |loc| {
        [EcoMove {
            inst: name.clone(),
            target: EcoTarget::Abs(loc),
        }]
    };
    eco(&mut svc, &to(twin), 1, EcoTail::Full);
    eco(&mut svc, &to(home), 1, EcoTail::Full);
    drop(svc);

    // 4. Restarts read reject reasons from the store.
    let dir = std::env::temp_dir().join(format!("pao-eco-window-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let start_on = |store: &mut AnalysisCache| {
        let budget = RunBudget {
            store: Some(store),
            ..RunBudget::unlimited()
        };
        OracleService::start(tech.clone(), design.clone(), config(), budget, true)
    };
    let uninterrupted = {
        let mut store = AnalysisCache::create(&dir).expect("checkpoint dir");
        all_replies(&start_on(&mut store))
    };
    assert!(
        uninterrupted.iter().any(|l| l.contains("count")),
        "vacuous fixture"
    );
    let restart = || {
        let (mut store, rejected) = AnalysisCache::resume(&dir, &tech).expect("resume");
        assert!(rejected.is_none(), "{rejected:?}");
        start_on(&mut store)
    };
    let n = extract_unique_instances(&tech, &design).len();
    let svc = restart();
    assert_eq!(
        svc.cache_stats(),
        (n, 0),
        "restored whole, histograms included"
    );
    assert_eq!(all_replies(&svc), uninterrupted, "daemon-written store");
    // A plain analysis (ledger off) stores no histograms: the ledger-on
    // restart treats its entries as misses and recomputes them.
    {
        let mut store = AnalysisCache::create(&dir).expect("checkpoint dir");
        let budget = RunBudget {
            store: Some(&mut store),
            ..RunBudget::unlimited()
        };
        let _ = PinAccessOracle::with_config(config()).analyze_with_budget(&tech, &design, budget);
    }
    let mut svc = restart();
    assert_eq!(svc.cache_stats(), (0, n), "entries without histograms miss");
    assert_eq!(all_replies(&svc), uninterrupted, "analyze-written store");
    // An ECO onto a new signature analyzes only it, with the ledger on.
    let before = extract_unique_instances(&tech, &design);
    let (inst, dx) = design
        .components()
        .iter()
        .flat_map(|c| [40i64, -40, 80].map(move |dx| (c, dx)))
        .find(|&(c, dx)| {
            let mut moved = design.clone();
            let id = moved.component_by_name(&c.name).expect("named");
            moved.component_mut(id).location.x += dx;
            extract_unique_instances(&tech, &moved).iter().any(|u| {
                !before
                    .iter()
                    .any(|b| (b.master, b.orient, &b.phases) == (u.master, u.orient, &u.phases))
            })
        })
        .map(|(c, dx)| (c.name.to_string(), dx))
        .expect("a shift onto a new signature");
    let shift = [EcoMove {
        inst,
        target: EcoTarget::Delta(pao_geom::Point::new(dx, 0)),
    }];
    let reply = svc.eco_update(&shift, None, None).expect("eco applies");
    assert!(reply.full_reanalysis && reply.cache_misses > 0, "{reply:?}");
    let fresh = OracleService::start(
        tech.clone(),
        (**svc.design()).clone(),
        config(),
        RunBudget::unlimited(),
        true,
    );
    assert_eq!(
        all_replies(&svc),
        all_replies(&fresh),
        "after a new signature"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
