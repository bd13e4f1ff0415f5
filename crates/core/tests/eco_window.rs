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

use pao_core::unique::extract_unique_instances;
use pao_core::{
    fault, EcoMove, EcoTail, EcoTarget, OracleService, PaoConfig, RunBudget, ServiceError, Watchdog,
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

/// Every pin's reject histogram, in component/pin order.
fn all_rejects(svc: &OracleService) -> Vec<String> {
    let (design, tech) = (svc.design().clone(), svc.tech().clone());
    let mut out = Vec::new();
    for c in design.components() {
        let Some(master) = c.master_in(&tech) else {
            continue;
        };
        for pin in &master.pins {
            let reply = svc.pin_access(&c.name, &pin.name);
            out.push(format!(
                "{} {} {:?}",
                c.name,
                pin.name,
                reply.map(|r| r.rejects)
            ));
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
    let (got, want) = (all_rejects(&svc), all_rejects(&fresh));
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
            _ => assert!(skipped > 0, "{arm}"),
        }
        assert_eq!(svc.selection_dump(), before, "{arm}: snapshot replaced");
        assert_eq!((svc.eco_updates(), svc.degraded_ecos()), (0, 1), "{arm}");
        // The service stays healthy and the same batch still windows.
        let reply = svc.eco_update(&moves, None, None).expect("eco applies");
        assert_eq!(reply.tail, EcoTail::Window, "{arm}");
    }
}
