//! One clock per phase, on every path: the `phase.<name>` span a run
//! records over each phase lasts exactly the phase's `PaoStats` wall
//! time, on a cold analysis and on a service ECO's window tail, and
//! `cluster_time` is exactly select + repair + audit. The tracer is
//! process-global, so this binary holds one `#[test]`.

use pao_core::{
    EcoMove, EcoTail, EcoTarget, OracleService, PaoConfig, PaoStats, PinAccessOracle, RunBudget,
};
use pao_testgen::{generate, ispd18s_suite, SuiteCase};
use std::time::Duration;

fn config() -> PaoConfig {
    PaoConfig {
        threads: 2,
        ..PaoConfig::default()
    }
}

/// Runs `f` with span recording on; returns its result and every
/// `phase.*` span as `(name, track, duration in ns)`, in record order.
fn phase_spans<R>(f: impl FnOnce() -> R) -> (R, Vec<(&'static str, u32, u64)>) {
    pao_obs::reset();
    pao_obs::enable_trace();
    let r = f();
    pao_obs::disable_all();
    let spans = pao_obs::take_trace()
        .events
        .into_iter()
        .filter(|e| e.name.starts_with("phase."))
        .map(|e| (e.name, e.track, e.dur_ns))
        .collect();
    (r, spans)
}

/// The spans a run of the phases `names` must have recorded: one each,
/// on the caller's track 0, lasting the phase's `PaoStats` time.
fn expected(s: &PaoStats, names: &[&'static str]) -> Vec<(&'static str, u32, u64)> {
    let time = |name: &str| match name {
        "phase.apgen" => s.apgen_time,
        "phase.pattern" => s.pattern_time,
        "phase.select" => s.select_time,
        "phase.repair" => s.repair_time,
        "phase.audit" => s.audit_time,
        _ => unreachable!("{name}"),
    };
    let ns = |d: Duration| u64::try_from(d.as_nanos()).expect("fits");
    names.iter().map(|&n| (n, 0, ns(time(n)))).collect()
}

#[test]
fn phase_spans_equal_stats_times_cold_and_window() {
    // A cold analysis: one span per phase, each lasting its stats time.
    let (tech, design) = generate(&ispd18s_suite().swap_remove(1));
    let (result, spans) =
        phase_spans(|| PinAccessOracle::with_config(config()).analyze(&tech, &design));
    let s = &result.stats;
    let all = [
        "phase.apgen",
        "phase.pattern",
        "phase.select",
        "phase.repair",
        "phase.audit",
    ];
    assert_eq!(spans, expected(s, &all), "cold analysis");
    assert_eq!(s.cluster_time, s.select_time + s.repair_time + s.audit_time);

    // A window-tail ECO: a swap of two same-signature instances over a
    // repair-free snapshot records select and audit under the cold
    // names, and its snapshot's times are exactly theirs.
    let (tech, design) = generate(&SuiteCase::small_smoke());
    let comps = design.components();
    let (a, b) = (0..comps.len())
        .flat_map(|i| (i + 1..comps.len()).map(move |j| (i, j)))
        .find(|&(i, j)| {
            comps[i].master == comps[j].master
                && comps[i].orient == comps[j].orient
                && design.track_phases(&comps[i]) == design.track_phases(&comps[j])
                && comps[i].location != comps[j].location
        })
        .expect("smoke repeats a signature");
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
    let mut svc = OracleService::start(tech, design, config(), RunBudget::unlimited(), false);
    let (reply, spans) = phase_spans(|| svc.eco_update(&moves, None, None).expect("eco applies"));
    assert_eq!(reply.tail, EcoTail::Window);
    let s = &svc.result().stats;
    assert_eq!(
        spans,
        expected(s, &["phase.select", "phase.audit"]),
        "window tail"
    );
    assert_eq!(s.repair_time, Duration::ZERO);
    assert_eq!(s.cluster_time, s.select_time + s.audit_time);
}
