//! Integration: multi-threaded analysis produces bit-identical results to
//! the single-threaded (paper measurement) mode, for every thread count,
//! on generated suites and the checked-in LEF/DEF smoke benchmark.

use paaf::pao::{PaoConfig, PaoResult, PinAccessOracle};
use paaf::testgen::{generate, ispd18s_suite, SuiteCase};
use pao_design::Design;
use pao_tech::Tech;

fn analyze_with_threads(tech: &Tech, design: &Design, threads: usize) -> PaoResult {
    let cfg = PaoConfig {
        threads,
        ..PaoConfig::default()
    };
    PinAccessOracle::with_config(cfg).analyze(tech, design)
}

/// The determinism contract: everything except wall-clock/executor
/// telemetry must be equal.
fn assert_identical(base: &PaoResult, other: &PaoResult, label: &str) {
    assert!(
        base.stats.counters_eq(&other.stats),
        "{label}: stats counters diverged\nbase:\n{}\nother:\n{}",
        base.stats,
        other.stats
    );
    assert_eq!(base.comp_uniq, other.comp_uniq, "{label}: comp_uniq");
    assert_eq!(base.selection, other.selection, "{label}: selection");
    assert_eq!(base.overrides, other.overrides, "{label}: repair overrides");
    assert_eq!(base.unique.len(), other.unique.len(), "{label}: unique");
    for (a, b) in base.unique.iter().zip(&other.unique) {
        assert_eq!(a.info, b.info, "{label}: unique info");
        assert_eq!(a.pin_aps, b.pin_aps, "{label}: pin APs");
        assert_eq!(a.pin_order, b.pin_order, "{label}: pin order");
        assert_eq!(a.patterns, b.patterns, "{label}: patterns");
    }
}

#[test]
fn testgen_cases_identical_across_thread_counts() {
    let mut cases = vec![SuiteCase::small_smoke()];
    // The smallest Table I row (45 nm) plus a 32 nm case with a macro, so
    // the comparison covers block pins and planar access too.
    cases.push(ispd18s_suite().swap_remove(0));
    cases.push(SuiteCase {
        name: "par_macro".into(),
        flavor: paaf::testgen::TechFlavor::N32B,
        cells: 120,
        macros: 1,
        nets: 110,
        io_pins: 8,
        utilization: 80,
        seed: 99,
    });
    for case in cases {
        let (tech, design) = generate(&case);
        let base = analyze_with_threads(&tech, &design, 1);
        for threads in [2, 4, 8] {
            let multi = analyze_with_threads(&tech, &design, threads);
            assert_identical(&base, &multi, &format!("{} threads={threads}", case.name));
            // The executor actually engaged the requested worker count on
            // at least one phase (unless there was less work than workers).
            let engaged = multi.stats.apgen_exec.threads.max(
                multi
                    .stats
                    .audit_exec
                    .threads
                    .max(multi.stats.cluster_exec.threads),
            );
            assert!(engaged > 1, "{}: no phase ran parallel", case.name);
        }
    }
}

#[test]
fn smoke_benchmark_identical_across_thread_counts() {
    let root = env!("CARGO_MANIFEST_DIR");
    let lef = std::fs::read_to_string(format!("{root}/benchmarks/smoke.lef")).expect("smoke.lef");
    let def = std::fs::read_to_string(format!("{root}/benchmarks/smoke.def")).expect("smoke.def");
    let tech = pao_tech::lef::parse_lef(&lef).expect("parse smoke.lef");
    let design = pao_design::def::parse_def(&def, &tech).expect("parse smoke.def");
    let base = analyze_with_threads(&tech, &design, 1);
    for threads in [2, 4, 8] {
        let multi = analyze_with_threads(&tech, &design, threads);
        assert_identical(&base, &multi, &format!("smoke threads={threads}"));
    }
}

/// Without BCA, selection leaves conflicts behind, so the repair rounds
/// place overrides, probe pins directly and re-place pins greedily —
/// every path that builds a local probe context. The result must still
/// be identical at any thread count, and the audit inside the run must
/// agree with an independent whole-design audit.
/// aes14 has members of one unique instance on different nets, which a
/// scan verdict memo keyed without the neighbors' via pins confuses.
#[test]
fn without_bca_identical_across_thread_counts_and_audited() {
    let cases = [ispd18s_suite().swap_remove(1), paaf::testgen::aes14_case()];
    for case in cases {
        let (tech, design) = generate(&case);
        let run = |threads: usize| {
            let mut cfg = PaoConfig {
                threads,
                ..PaoConfig::default()
            };
            cfg.pattern.bca = false;
            cfg.pattern.max_patterns = 1;
            PinAccessOracle::with_config(cfg).analyze(&tech, &design)
        };
        let base = run(1);
        assert!(
            base.stats.repaired_pins > 0,
            "{}: no repair override, the local probe contexts went unused",
            case.name
        );
        let ((total, failed), _) =
            paaf::pao::oracle::count_failed_pins_threaded(&tech, &design, &base, 2);
        assert_eq!(total, base.stats.total_pins, "{}", case.name);
        assert_eq!(failed, base.stats.failed_pins, "{}", case.name);
        for threads in [2, 4] {
            assert_identical(
                &base,
                &run(threads),
                &format!("{} no-bca threads={threads}", case.name),
            );
        }
    }
}
