//! The paper's three experiments, runnable per testcase.

use pao_core::oracle::count_failed_pins_with;
use pao_core::unique::{build_instance_context, local_pin_owner};
use pao_core::{PaoConfig, PinAccessOracle};
use pao_design::Design;
use pao_drc::{DrcEngine, DrcScratch};
use pao_router::baseline::{baseline_pin_access, BaselineConfig, BaselineResult};
use pao_router::route::{RouteConfig, Router};
use pao_router::score;
use pao_tech::Tech;
use pao_testgen::{generate, SuiteCase};
use std::time::{Duration, Instant};

/// One row of Table II (Experiment 1): per-unique-instance access point
/// quality, baseline ("TrRte") vs PAAF.
#[derive(Debug, Clone)]
pub struct Expt1Row {
    /// Testcase name.
    pub name: String,
    /// Unique instance count.
    pub unique_insts: usize,
    /// Baseline total access points.
    pub trrte_aps: usize,
    /// PAAF total access points.
    pub paaf_aps: usize,
    /// Baseline dirty access points.
    pub trrte_dirty: usize,
    /// PAAF dirty access points.
    pub paaf_dirty: usize,
    /// Baseline runtime.
    pub trrte_time: Duration,
    /// PAAF step-1 runtime.
    pub paaf_time: Duration,
}

/// Audits every baseline access point's chosen via against the unique
/// instance's own context (same check PAAF applies during generation).
#[must_use]
pub fn audit_baseline_aps(tech: &Tech, design: &Design, result: &BaselineResult) -> usize {
    let engine = DrcEngine::new(tech);
    let mut ws = DrcScratch::new();
    let mut dirty = 0usize;
    for u in &result.unique {
        let ctx = build_instance_context(tech, design, u.info.rep);
        for (pi, aps) in u.pin_aps.iter().enumerate() {
            for ap in aps {
                match ap.primary_via() {
                    Some(v) => {
                        let owner = local_pin_owner(pi);
                        if !engine.via_placement_clean(tech.via(v), ap.pos, owner, &ctx, &mut ws) {
                            dirty += 1;
                        }
                    }
                    None => dirty += 1,
                }
            }
        }
    }
    dirty
}

/// Runs Experiment 1 on one testcase.
#[must_use]
pub fn run_expt1(case: &SuiteCase) -> Expt1Row {
    let (tech, design) = generate(case);
    let base = baseline_pin_access(&tech, &design, &BaselineConfig::default());
    let trrte_dirty = audit_baseline_aps(&tech, &design, &base);
    let pao = PinAccessOracle::new().analyze(&tech, &design);
    Expt1Row {
        name: case.name.clone(),
        unique_insts: pao.stats.unique_instances,
        trrte_aps: base.total_aps,
        paaf_aps: pao.stats.total_aps,
        trrte_dirty,
        paaf_dirty: pao.stats.dirty_aps,
        trrte_time: base.elapsed,
        paaf_time: pao.stats.apgen_time,
    }
}

/// One row of Table III (Experiment 2): per-instance-pin quality.
#[derive(Debug, Clone)]
pub struct Expt2Row {
    /// Testcase name.
    pub name: String,
    /// Total connected instance pins.
    pub total_pins: usize,
    /// Baseline failed pins.
    pub trrte_failed: usize,
    /// PAAF failed pins, single pattern (no BCA diversity).
    pub paaf_failed_no_bca: usize,
    /// PAAF failed pins, full flow.
    pub paaf_failed_bca: usize,
    /// Baseline runtime.
    pub trrte_time: Duration,
    /// PAAF runtime without BCA.
    pub no_bca_time: Duration,
    /// PAAF runtime with BCA.
    pub bca_time: Duration,
}

/// Runs Experiment 2 on one testcase.
#[must_use]
pub fn run_expt2(case: &SuiteCase) -> Expt2Row {
    let (tech, design) = generate(case);

    let t0 = Instant::now();
    let base = baseline_pin_access(&tech, &design, &BaselineConfig::default());
    let (total_pins, trrte_failed) =
        count_failed_pins_with(&tech, &design, |c, p| base.access_point(&design, c, p));
    let trrte_time = t0.elapsed();

    // The w/o-BCA arm isolates the selection stage (no per-pin repair),
    // matching how the paper measured Table III.
    let mut cfg = PaoConfig::default();
    cfg.pattern.bca = false;
    cfg.pattern.max_patterns = 1;
    cfg.repair_rounds = 0;
    let no_bca = PinAccessOracle::with_config(cfg).analyze(&tech, &design);

    let bca = PinAccessOracle::new().analyze(&tech, &design);

    Expt2Row {
        name: case.name.clone(),
        total_pins,
        trrte_failed,
        paaf_failed_no_bca: no_bca.stats.failed_pins,
        paaf_failed_bca: bca.stats.failed_pins,
        trrte_time,
        no_bca_time: no_bca.stats.total_time(),
        bca_time: bca.stats.total_time(),
    }
}

/// The outcome of Experiment 3: routed-design DRC comparison.
#[derive(Debug, Clone)]
pub struct Expt3Outcome {
    /// Testcase name.
    pub name: String,
    /// Routed DRCs with distance-cost (Dr.CU-like, non-DRC-aware) access.
    pub naive_drcs: usize,
    /// Routed DRCs with PAAF access.
    pub paaf_drcs: usize,
    /// Pin-access-attributable DRCs, naive arm.
    pub naive_access_drcs: usize,
    /// Pin-access-attributable DRCs, PAAF arm.
    pub paaf_access_drcs: usize,
    /// Routed nets (both arms share the router).
    pub nets: usize,
    /// Wall time of the two routing runs.
    pub elapsed: Duration,
}

/// Runs Experiment 3 (both routing arms) on one testcase.
#[must_use]
pub fn run_expt3(case: &SuiteCase) -> Expt3Outcome {
    let (tech, design) = generate(case);
    let t0 = Instant::now();
    let router = Router::new(&tech, &design, RouteConfig::default());

    let naive = router.route_with_accessor(|_, _| None);
    let naive_drcs = score::count_drcs(&tech, &design, &naive);
    let naive_access_drcs = score::access_drcs(&tech, &design, &naive);

    let pao = PinAccessOracle::new().analyze(&tech, &design);
    let routed = router.route_with_pao(&pao);
    let paaf_drcs = score::count_drcs(&tech, &design, &routed);
    let paaf_access_drcs = score::access_drcs(&tech, &design, &routed);

    Expt3Outcome {
        name: case.name.clone(),
        naive_drcs,
        paaf_drcs,
        naive_access_drcs,
        paaf_access_drcs,
        nets: design.nets().len(),
        elapsed: t0.elapsed(),
    }
}

/// The outcome of the 14 nm study (Fig. 9): PAAF on the 14 nm-flavoured
/// AES case, whose pin shapes leave no on-track access point.
#[derive(Debug, Clone)]
pub struct Fig9Outcome {
    /// Testcase name.
    pub name: String,
    /// Placed instances.
    pub insts: usize,
    /// Unique instance count.
    pub unique_insts: usize,
    /// Total connected instance pins.
    pub total_pins: usize,
    /// Failed pins after the full flow.
    pub failed_pins: usize,
    /// Access points with an off-track coordinate.
    pub off_track_aps: usize,
    /// All access points.
    pub total_aps: usize,
    /// Analysis runtime.
    pub time: Duration,
    /// Fig. 9's access overview of the first component, as SVG.
    pub svg: String,
}

/// Runs the 14 nm study on one testcase.
#[must_use]
pub fn run_fig9(case: &SuiteCase) -> Fig9Outcome {
    let (tech, design) = generate(case);
    let pao = PinAccessOracle::new().analyze(&tech, &design);
    let s = &pao.stats;
    Fig9Outcome {
        name: case.name.clone(),
        insts: design.components().len(),
        unique_insts: s.unique_instances,
        total_pins: s.total_pins,
        failed_pins: s.failed_pins,
        off_track_aps: s.off_track_aps,
        total_aps: s.total_aps,
        time: s.total_time(),
        svg: pao_viz::render_cell_access(&tech, &design, &pao, pao_design::CompId(0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expt1_shape_holds_on_smoke() {
        let row = run_expt1(&SuiteCase::small_smoke());
        assert_eq!(row.paaf_dirty, 0);
        assert!(row.trrte_dirty > 0, "baseline must have dirty APs");
        assert!(row.paaf_aps > 0 && row.trrte_aps > 0);
        assert!(row.unique_insts > 0);
    }

    #[test]
    fn expt2_shape_holds_on_smoke() {
        let row = run_expt2(&SuiteCase::small_smoke());
        assert_eq!(row.paaf_failed_bca, 0);
        assert!(row.trrte_failed > row.paaf_failed_bca);
        assert!(row.paaf_failed_no_bca >= row.paaf_failed_bca);
        assert!(row.total_pins > 0);
    }

    #[test]
    fn expt3_shape_holds_on_smoke() {
        let out = run_expt3(&SuiteCase::small_smoke());
        assert!(
            out.paaf_drcs < out.naive_drcs,
            "PAAF {} vs naive {}",
            out.paaf_drcs,
            out.naive_drcs
        );
        assert!(
            out.paaf_access_drcs < out.naive_access_drcs,
            "access DRCs: PAAF {} vs naive {}",
            out.paaf_access_drcs,
            out.naive_access_drcs
        );
    }
}
