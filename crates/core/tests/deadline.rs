//! End-to-end deadline/watchdog/checkpoint harness: the *anytime* contract.
//!
//! Asserts that the oracle under a [`RunBudget`]
//!
//! 1. never aborts — an exhausted budget still yields a usable partial
//!    result with one skip record per cut phase, at any thread count,
//!    while a budget the run never reaches changes nothing,
//! 2. resumes from the analysis store of a cut run bit-identically to an
//!    uninterrupted run (at 1 and 4 threads), recomputing exactly the
//!    items the cut left out, and
//! 3. detects an injected worker stall via the watchdog and converts it
//!    into a degraded (never hung, never aborted) run.
//!
//! Everything lives in one `#[test]` because the fault and stall plans
//! and the metrics registry are process-global state — concurrent tests
//! in the same binary would race on them.

use pao_core::service::selection_dump;
use pao_core::{
    fault, AnalysisCache, CancelReason, PaoConfig, PaoResult, Phase, PinAccessOracle, RunBudget,
    SkipRecord, Watchdog,
};
use pao_design::CompId;
use pao_tech::Tech;
use pao_testgen::{generate, SuiteCase};
use std::time::Duration;

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

/// A scratch checkpoint directory under the OS temp dir, cleaned first.
fn ckpt_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pao-deadline-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn deadline_watchdog_and_resume_contract() {
    let (tech, design) = generate(&SuiteCase::small_smoke());
    fault::disarm();
    let clean = oracle(1).analyze(&tech, &design);
    assert!(clean.stats.quarantined.is_empty(), "clean run is healthy");
    assert!(!clean.stats.deadline.is_partial(), "clean run is complete");
    let clean_fp = access_fingerprint(&tech, &design, &clean);

    // ---- 1. Zero budget: everything skippable is skipped, the run still
    // returns a structurally usable result (partial, never aborted). Every
    // unique instance is skipped by apgen and by pattern generation, every
    // selection group by selection, and every connected pin by the audit;
    // no repair round starts. One record per phase, in pipeline order.
    pao_obs::enable_metrics();
    let n = clean.unique.len();
    let groups = clean.stats.select_telemetry.groups as usize;
    let want: Vec<SkipRecord> = [
        (Phase::Apgen, n),
        (Phase::Pattern, n),
        (Phase::Select, groups),
        (Phase::Audit, clean.stats.total_pins),
    ]
    .into_iter()
    .map(|(phase, items)| SkipRecord {
        phase,
        items,
        reason: CancelReason::Deadline,
    })
    .collect();
    let clean_dump = selection_dump(&design, &clean);
    for threads in [1usize, 4] {
        let zero = oracle(threads).analyze_with_budget(
            &tech,
            &design,
            RunBudget::with_deadline(Duration::ZERO),
        );
        assert!(zero.stats.deadline.is_partial(), "{}", zero.stats);
        assert_eq!(zero.stats.deadline.budget, Some(Duration::ZERO));
        assert_eq!(zero.stats.deadline.skipped, want, "threads {threads}");
        for s in &want {
            assert_eq!(
                zero.stats.metrics.counter(s.phase.deadline_counter()),
                s.items as u64,
                "threads {threads}: {}",
                s.phase.deadline_counter()
            );
        }
        // Skips are not faults: the quarantine list stays clean.
        assert!(zero.stats.quarantined.is_empty(), "{}", zero.stats);
        // The partial result answers access queries without panicking
        // (every pin simply has no access yet).
        let _ = access_fingerprint(&tech, &design, &zero);
        // Pins the audit never certified count as failed, not as missing.
        assert_eq!(zero.stats.failed_pins, zero.stats.total_pins);

        // A one-day budget is never reached: the run equals the
        // unbudgeted one.
        let day = oracle(threads).analyze_with_budget(
            &tech,
            &design,
            RunBudget::with_deadline(Duration::from_secs(86_400)),
        );
        assert!(!day.stats.deadline.is_partial(), "{}", day.stats);
        assert!(
            day.stats.counters_eq(&clean.stats),
            "threads {threads}:\n{}\nvs\n{}",
            day.stats,
            clean.stats
        );
        assert_eq!(day.selection, clean.selection, "threads {threads}");
        assert_eq!(day.overrides, clean.overrides, "threads {threads}");
        assert_eq!(
            selection_dump(&design, &day),
            clean_dump,
            "threads {threads}"
        );
    }

    // ---- 2. Deterministic cuts + resume. An injected apgen fault at
    // unique instance K leaves no entry for K, so the resumed run
    // recomputes exactly K; an injected pattern fault at K leaves an
    // apgen-only entry, so the resumed run restores every step 1 and runs
    // exactly one pattern DP. Both end bit-identical to the clean run.
    let counter = |name: &str| pao_obs::snapshot().counter(name);
    let k = n / 2;
    for threads in [1usize, 4] {
        for (label, restored_apgen) in [("apgen.instance", n - 1), ("pattern.instance", n)] {
            let at = format!("{label}:{k} x{threads}");
            let dir = ckpt_dir(&format!("cut-{label}-t{threads}"));
            {
                let mut store = AnalysisCache::create(&dir).expect("create checkpoint dir");
                fault::arm(label, k);
                let budget = RunBudget {
                    store: Some(&mut store),
                    ..RunBudget::unlimited()
                };
                let cut = oracle(threads).analyze_with_budget(&tech, &design, budget);
                assert!(!fault::armed(), "{at}: injected fault must have fired");
                assert_eq!(cut.stats.quarantined.len(), 1, "{at}: {}", cut.stats);
                let stored = if label == "apgen.instance" { n - 1 } else { n };
                assert_eq!(store.len(), stored, "{at}: entries left by the cut run");
            }
            let (mut store, rejected) = AnalysisCache::resume(&dir, &tech).expect("resume");
            assert!(
                rejected.is_none(),
                "{at}: clean store reloads: {rejected:?}"
            );
            let before = [
                counter("cache.restored.apgen"),
                counter("cache.restored.pattern"),
                counter("pattern.dp_runs"),
            ];
            let budget = RunBudget {
                store: Some(&mut store),
                ..RunBudget::unlimited()
            };
            let resumed = oracle(threads).analyze_with_budget(&tech, &design, budget);
            let apgen = counter("cache.restored.apgen") - before[0];
            let pattern = counter("cache.restored.pattern") - before[1];
            let dp_runs = counter("pattern.dp_runs") - before[2];
            assert_eq!(store.stats(), (n - 1, 1), "{at}: exactly K recomputed");
            assert_eq!(apgen, restored_apgen as u64, "{at}: step-1 restores");
            assert_eq!(pattern, (n - 1) as u64, "{at}: step-2 restores");
            let max = PaoConfig::default().pattern.max_patterns as u64;
            assert!(
                (1..=max).contains(&dp_runs),
                "{at}: one pattern DP, {dp_runs} runs"
            );
            assert!(
                resumed.stats.quarantined.is_empty(),
                "{at}: {}",
                resumed.stats
            );
            assert!(
                resumed.stats.counters_eq(&clean.stats),
                "{at}: counters match the uninterrupted run:\n{}\nvs\n{}",
                resumed.stats,
                clean.stats
            );
            assert_eq!(selection_dump(&design, &resumed), clean_dump, "{at}: dump");
            assert_eq!(
                access_fingerprint(&tech, &design, &resumed),
                clean_fp,
                "{at}: resume is bit-identical to the uninterrupted run"
            );
            // The completed run left full entries and phase history.
            let (store2, rejected) = AnalysisCache::resume(&dir, &tech).expect("resume");
            assert!(rejected.is_none(), "{rejected:?}");
            assert_eq!(store2.len(), n);
            assert!(store2.fractions().is_some(), "history saved on completion");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    fault::disarm();

    // ---- 3. A fully stored directory restores instead of recomputing
    // (and still produces the identical result).
    let dir = ckpt_dir("warm");
    {
        let mut store = AnalysisCache::create(&dir).expect("create checkpoint dir");
        let budget = RunBudget {
            store: Some(&mut store),
            ..RunBudget::unlimited()
        };
        let _ = oracle(2).analyze_with_budget(&tech, &design, budget);
    }
    let (mut store, _) = AnalysisCache::resume(&dir, &tech).expect("resume");
    assert_eq!(store.len(), n);
    let budget = RunBudget {
        store: Some(&mut store),
        ..RunBudget::unlimited()
    };
    let warm = oracle(2).analyze_with_budget(&tech, &design, budget);
    assert_eq!(store.stats(), (n, 0), "every instance restored whole");
    assert_eq!(access_fingerprint(&tech, &design, &warm), clean_fp);
    let _ = std::fs::remove_dir_all(&dir);

    // ---- 4. Watchdog: an injected mid-item stall is detected, recorded,
    // and converted into a cancelled (degraded) run — never a hang.
    fault::arm_stall("apgen.instance", 0, 400);
    let budget = RunBudget {
        watchdog: Some(Watchdog {
            multiple: 2,
            min_stall: Duration::from_millis(50),
            poll: Duration::from_millis(1),
        }),
        ..RunBudget::unlimited()
    };
    let stalled = oracle(2).analyze_with_budget(&tech, &design, budget);
    assert!(!fault::stall_armed(), "injected stall must have fired");
    assert!(
        !stalled.stats.deadline.stalls.is_empty(),
        "watchdog records the stall: {}",
        stalled.stats
    );
    let rec = &stalled.stats.deadline.stalls[0];
    assert_eq!(rec.label, "apgen.instance");
    assert_eq!(rec.item, 0);
    assert!(
        stalled
            .stats
            .deadline
            .skipped
            .iter()
            .all(|s| s.reason == CancelReason::Stall),
        "{}",
        stalled.stats.deadline
    );
    // Degraded, not aborted: the result is still structurally usable.
    let _ = access_fingerprint(&tech, &design, &stalled);
    fault::disarm();
}
