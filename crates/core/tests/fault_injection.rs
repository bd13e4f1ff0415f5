//! End-to-end fault-injection harness: inject a deterministic panic into
//! every pipeline phase and assert the degrade-never-abort contract.
//!
//! For each phase the harness arms one injected panic (keyed on the input
//! index, so the same item faults at every thread count), runs the full
//! analysis at 1 and 4 threads, and checks that
//!
//! 1. the run completes instead of aborting,
//! 2. exactly the injected item lands in `PaoStats::quarantined` with the
//!    right phase and the panic message as its reason,
//! 3. the degraded results are bit-identical between thread counts, and
//! 4. everything *outside* the quarantined item matches the clean run.
//!
//! The injection plan is process-global state, so the tests of this
//! binary serialize on [`injection_lock`].

use pao_core::unique::extract_unique_instances;
use pao_core::{fault, PaoConfig, PaoResult, Phase, PinAccessOracle};
use pao_design::CompId;
use pao_tech::Tech;
use pao_testgen::{aes14_case, generate, SuiteCase};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes the tests that arm the process-global injection plan.
fn injection_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn oracle(threads: usize) -> PinAccessOracle {
    PinAccessOracle::with_config(PaoConfig {
        threads,
        ..PaoConfig::default()
    })
}

/// Every connected pin's selected access position — the output the
/// downstream router consumes, used here as the identity fingerprint.
fn access_fingerprint(
    tech: &Tech,
    design: &pao_design::Design,
    result: &PaoResult,
) -> Vec<Option<pao_geom::Point>> {
    let mut out = Vec::new();
    for (ci, comp) in design.components().iter().enumerate() {
        let Some(master) = comp.master_in(tech) else {
            continue;
        };
        for pi in 0..master.pins.len() {
            out.push(
                result
                    .access_point(design, CompId(ci as u32), pi)
                    .map(|ap| ap.pos),
            );
        }
    }
    out
}

#[test]
fn injected_faults_degrade_never_abort() {
    let _g = injection_lock();
    let (tech, design) = generate(&SuiteCase::small_smoke());
    fault::disarm();
    let clean = oracle(1).analyze(&tech, &design);
    assert!(clean.stats.quarantined.is_empty(), "clean run is healthy");
    assert_eq!(clean.stats.failed_pins, 0, "{}", clean.stats);

    let phases = [
        ("apgen.instance", Phase::Apgen),
        ("pattern.instance", Phase::Pattern),
        ("select.group", Phase::Select),
        ("repair.scan", Phase::Repair),
        ("audit.pin", Phase::Audit),
    ];
    for (label, phase) in phases {
        let mut runs: Vec<PaoResult> = Vec::new();
        for threads in [1usize, 4] {
            fault::arm(label, 0);
            // The contract under test: this completes instead of panicking.
            let r = oracle(threads).analyze(&tech, &design);
            assert!(!fault::armed(), "fault at {label} must have fired");
            assert_eq!(
                r.stats.quarantined.len(),
                1,
                "{label} x{threads}: exactly the injected item is quarantined"
            );
            let f = &r.stats.quarantined[0];
            assert_eq!(f.phase, phase, "{label}");
            assert!(
                f.reason.contains(&format!("injected fault at {label}[0]")),
                "{label}: panic payload preserved, got `{}`",
                f.reason
            );
            assert!(!f.item.is_empty(), "{label}: fault names its item");
            runs.push(r);
        }
        let (one, four) = (&runs[0], &runs[1]);

        // Thread-count identity holds for degraded runs too: the fault is
        // keyed on the input item, not the worker that claims it.
        assert!(
            one.stats.counters_eq(&four.stats),
            "{label}: counters diverged\n1 thr: {}\n4 thr: {}",
            one.stats,
            four.stats
        );
        assert_eq!(one.selection, four.selection, "{label}");
        assert_eq!(one.overrides, four.overrides, "{label}");
        assert_eq!(
            access_fingerprint(&tech, &design, one),
            access_fingerprint(&tech, &design, four),
            "{label}: per-pin access diverged between thread counts"
        );

        // Degraded-mode semantics per phase: the run minus the quarantined
        // item matches the clean run.
        match phase {
            Phase::Apgen | Phase::Pattern => {
                // Item 0 = unique instance 0. Every other unique instance's
                // intra-cell results are untouched.
                assert_eq!(one.unique.len(), clean.unique.len(), "{label}");
                for (ui, u) in one.unique.iter().enumerate().skip(1) {
                    assert_eq!(u.pin_aps, clean.unique[ui].pin_aps, "{label} ui={ui}");
                    assert_eq!(u.patterns, clean.unique[ui].patterns, "{label} ui={ui}");
                }
                // The quarantined instance has no patterns, so its member
                // pins (and only pins) can fail.
                assert!(one.unique[0].patterns.is_empty(), "{label}");
                assert!(one.stats.failed_pins >= clean.stats.failed_pins, "{label}");
            }
            Phase::Audit => {
                // The un-certifiable pin conservatively counts as failed;
                // nothing else changes (the audit is read-only).
                assert_eq!(
                    one.stats.failed_pins,
                    clean.stats.failed_pins + 1,
                    "{label}"
                );
                assert_eq!(
                    access_fingerprint(&tech, &design, one),
                    access_fingerprint(&tech, &design, &clean),
                    "{label}: audit faults must not change selected access"
                );
            }
            Phase::Select | Phase::Repair => {
                // A quarantined selection group keeps its members' default
                // pattern; a quarantined repair scan item is treated as
                // not-dirty. On this clean design both degrade to the
                // clean outcome.
                assert_eq!(one.stats.failed_pins, clean.stats.failed_pins, "{label}");
            }
            _ => unreachable!(),
        }
    }
    fault::disarm();
}

/// Unique instances of one (master, orientation) share candidate verdicts
/// and pattern DPs. A fault in the class's first unique instance — the
/// one whose representative anchors the class frame, and at one thread
/// the one that fills the shared tables — must degrade that instance
/// alone: every other member computes what it needs itself and equals
/// the clean run.
#[test]
fn fault_in_a_shared_class_degrades_one_instance() {
    let _g = injection_lock();
    let (tech, design) = generate(&aes14_case());
    fault::disarm();
    let clean = oracle(1).analyze(&tech, &design);
    assert!(clean.stats.quarantined.is_empty(), "clean run is healthy");

    // The first unique instance of the class with the most components.
    let infos = extract_unique_instances(&tech, &design);
    let mut classes: HashMap<_, (usize, Vec<usize>)> = HashMap::new();
    for (i, info) in infos.iter().enumerate() {
        let class = classes.entry((info.master, info.orient)).or_default();
        class.0 += info.members.len();
        class.1.push(i);
    }
    let (_, largest) = classes
        .into_values()
        .max_by_key(|(components, unique)| (*components, std::cmp::Reverse(unique[0])))
        .expect("aes14 has unique instances");
    let first = largest[0];
    assert!(largest.len() > 1, "the largest class shares work");
    assert_ne!(
        first, 0,
        "the armed item is not the first item of the phase"
    );

    for (label, phase) in [
        ("apgen.instance", Phase::Apgen),
        ("pattern.instance", Phase::Pattern),
    ] {
        let mut runs: Vec<PaoResult> = Vec::new();
        for threads in [1usize, 4] {
            fault::arm(label, first);
            let r = oracle(threads).analyze(&tech, &design);
            assert!(!fault::armed(), "fault at {label}[{first}] must have fired");
            assert_eq!(r.stats.quarantined.len(), 1, "{label} x{threads}");
            assert_eq!(r.stats.quarantined[0].phase, phase, "{label} x{threads}");
            assert_eq!(r.unique.len(), clean.unique.len(), "{label} x{threads}");
            for (ui, (u, c)) in r.unique.iter().zip(&clean.unique).enumerate() {
                if ui == first {
                    assert!(u.patterns.is_empty(), "{label} x{threads}: degraded");
                    continue;
                }
                assert_eq!(u.pin_aps, c.pin_aps, "{label} x{threads} ui={ui}");
                assert_eq!(u.tally, c.tally, "{label} x{threads} ui={ui}");
                assert_eq!(u.pin_order, c.pin_order, "{label} x{threads} ui={ui}");
                assert_eq!(u.patterns, c.patterns, "{label} x{threads} ui={ui}");
            }
            runs.push(r);
        }
        let (one, four) = (&runs[0], &runs[1]);
        assert!(
            one.stats.counters_eq(&four.stats),
            "{label}: counters diverged"
        );
        assert_eq!(one.selection, four.selection, "{label}");
        assert_eq!(one.overrides, four.overrides, "{label}");
    }
    fault::disarm();
}
