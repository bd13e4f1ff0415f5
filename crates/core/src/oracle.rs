//! The top-level pin access oracle.

use crate::apgen::{
    generate_pin_access_points_with, primary_via_clean, AccessPoint, ApGenConfig, ApScratch,
    ApgenPlan, VerdictSource,
};
use crate::budget::{PhaseFractions, PhaseRun, RunBudget, RunCtx};
use crate::cluster::{comp_bbox, default_pattern, select_patterns_budget, RowIndex, SelectGroups};
use crate::error::{FaultRecord, PaoError, Phase};
use crate::parallel::ExecReport;
use crate::pattern::{pattern_dp, AccessPattern, PatternConfig};
use crate::persist::{input_stamp, signature_of, AnalysisCache, Entry, RejectTally};
use crate::share::{CellClasses, PatternGroups};
use crate::stats::PaoStats;
use crate::unique::{pin_owner, UniqueInstance, UniqueInstanceId, UniqueTable};
use pao_design::{CompId, Design};
use pao_drc::{DrcEngine, DrcScratch, Owner, ShapeSet};
use pao_geom::Rect;
use pao_tech::{LayerId, Macro, MacroClass, Tech};

/// Configuration of the whole three-step analysis.
#[derive(Debug, Clone)]
pub struct PaoConfig {
    /// Step-1 (access point generation) settings.
    pub apgen: ApGenConfig,
    /// Step-2/3 (pattern generation/selection) settings.
    pub pattern: PatternConfig,
    /// Worker threads for every compute phase (AP generation, pattern
    /// DPs, cluster-group selection, repair scans, failed-pin audit).
    /// Defaults to the machine's available parallelism; `1` reproduces
    /// the paper's single-threaded measurement mode bit for bit (the
    /// paper lists multi-threading as future work — implemented here,
    /// with output guaranteed identical for every thread count).
    pub threads: usize,
    /// Post-selection repair rounds (rip-up and re-place of residual
    /// dirty access points, mirroring the router's per-pin freedom).
    /// 0 disables repair — use that to measure the selection stage alone.
    pub repair_rounds: usize,
}

/// The default worker count: all available hardware parallelism.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl Default for PaoConfig {
    fn default() -> PaoConfig {
        PaoConfig {
            apgen: ApGenConfig::default(),
            pattern: PatternConfig::default(),
            threads: default_threads(),
            repair_rounds: 3,
        }
    }
}

/// Per-unique-instance analysis result.
#[derive(Debug, Clone)]
pub struct UniqueInstanceAccess {
    /// The unique instance this data describes.
    pub info: UniqueInstance,
    /// Access points per master pin (indexed like the master's pin list;
    /// supply pins and pins without geometry have empty lists). Positions
    /// are in the representative's die frame.
    pub pin_aps: Vec<Vec<AccessPoint>>,
    /// The analyzed pin ordering (indices into the master pin list).
    pub pin_order: Vec<usize>,
    /// Generated access patterns over `pin_order`.
    pub patterns: Vec<AccessPattern>,
    /// Table II tallies of this instance's access point generation.
    pub tally: ApTally,
}

/// Per-unique-instance Table II tallies from access point generation.
/// They depend only on the signature, so a cached analysis carries them
/// and a warm run reports the same counters as a cold one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApTally {
    /// Access points whose primary via is dirty in the intra-cell context.
    pub dirty: usize,
    /// Signal pins with geometry but no access point.
    pub without: usize,
    /// Access points with an off-track coordinate.
    pub off_track: usize,
}

/// The complete result of [`PinAccessOracle::analyze`].
#[derive(Debug, Clone)]
pub struct PaoResult {
    /// Per-unique-instance access data.
    pub unique: Vec<UniqueInstanceAccess>,
    /// Unique instance of each component (`None` for unknown masters).
    pub comp_uniq: Vec<Option<UniqueInstanceId>>,
    /// Selected pattern per component (`None` when no pattern exists).
    pub selection: Vec<Option<usize>>,
    /// Per-pin repair overrides (die-frame access points) applied after
    /// cluster selection, exactly as the downstream router would deviate
    /// from a pattern when a specific pin demands a different AP.
    pub overrides: std::collections::HashMap<(CompId, usize), AccessPoint>,
    /// Run statistics (Tables II/III raw numbers).
    pub stats: PaoStats,
}

impl PaoResult {
    /// The unique-instance table this result was analyzed over.
    #[must_use]
    pub fn unique_table(&self) -> UniqueTable {
        UniqueTable {
            classes: self.unique.iter().map(|u| u.info.clone()).collect(),
            comp_uniq: self.comp_uniq.clone(),
        }
    }

    /// The selected access point for `(comp, pin_idx)`, translated into
    /// the component's die frame. `None` when the pin failed analysis.
    #[must_use]
    pub fn access_point(
        &self,
        design: &Design,
        comp: CompId,
        pin_idx: usize,
    ) -> Option<AccessPoint> {
        if let Some(ap) = self.overrides.get(&(comp, pin_idx)) {
            return Some(ap.clone());
        }
        let ui = self.comp_uniq.get(comp.index()).copied().flatten()?;
        let u = &self.unique[ui.index()];
        let sel = self.selection.get(comp.index()).copied().flatten()?;
        let pat = u.patterns.get(sel)?;
        let pos_in_order = u.pin_order.iter().position(|&p| p == pin_idx)?;
        let ap_idx = *pat.choice.get(pos_in_order)?;
        let mut ap = u.pin_aps[pin_idx].get(ap_idx)?.clone();
        let delta = design.component(comp).location - design.component(u.info.rep).location;
        ap.pos += delta;
        Some(ap)
    }

    /// All access points of `(comp, pin_idx)` (not just the selected one),
    /// translated into the component's die frame.
    #[must_use]
    pub fn all_access_points(
        &self,
        design: &Design,
        comp: CompId,
        pin_idx: usize,
    ) -> Vec<AccessPoint> {
        let Some(ui) = self.comp_uniq.get(comp.index()).copied().flatten() else {
            return Vec::new();
        };
        let u = &self.unique[ui.index()];
        let delta = design.component(comp).location - design.component(u.info.rep).location;
        u.pin_aps
            .get(pin_idx)
            .map(|aps| {
                aps.iter()
                    .map(|ap| {
                        let mut ap = ap.clone();
                        ap.pos += delta;
                        ap
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// The pin access oracle: runs the three-step PAAF analysis on a placed
/// design (see the [crate docs](crate) for the algorithm outline).
#[derive(Debug, Clone, Default)]
pub struct PinAccessOracle {
    config: PaoConfig,
}

impl PinAccessOracle {
    /// Creates an oracle with the paper's default parameters
    /// (`k = 3`, `α = 0.3`, up to 3 patterns, BCA and history costs on).
    #[must_use]
    pub fn new() -> PinAccessOracle {
        PinAccessOracle::default()
    }

    /// Creates an oracle with custom parameters.
    #[must_use]
    pub fn with_config(config: PaoConfig) -> PinAccessOracle {
        PinAccessOracle { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &PaoConfig {
        &self.config
    }

    /// Runs the full three-step analysis.
    ///
    /// When [`pao_obs::enable_metrics`] is on, the run's `apgen.*` /
    /// `pattern.*` / `select.*` / `repair.*` counters land in
    /// [`PaoStats::metrics`] (as a delta, so back-to-back runs in one
    /// process stay separable). When [`pao_obs::enable_trace`] is on,
    /// every phase and every work item records spans collectable with
    /// [`pao_obs::take_trace`].
    #[must_use]
    pub fn analyze(&self, tech: &Tech, design: &Design) -> PaoResult {
        self.analyze_with_budget(tech, design, RunBudget::unlimited())
    }

    /// [`analyze`](Self::analyze) under a [`RunBudget`]: an optional
    /// wall-clock deadline split across the five phases (see
    /// [`BudgetAllocator`](crate::budget::BudgetAllocator)), an optional
    /// stall watchdog, and an optional signature-keyed [`AnalysisCache`]
    /// store.
    ///
    /// This is the *anytime* entry point — it **always returns a usable
    /// result**. When the budget expires mid-phase, in-flight items
    /// finish, unstarted items degrade exactly like quarantined ones
    /// (skipped apgen/pattern instance → empty access, select group →
    /// default patterns, repair scan → not-dirty, audit pin → counted
    /// failed), and the cuts are reported in
    /// [`PaoStats::deadline`](crate::stats::PaoStats::deadline). With a
    /// store attached, each unique instance whose signature it holds
    /// restores steps 1–2 instead of recomputing them (an apgen-only entry
    /// restores step 1 and the pattern DP runs), and every completed item
    /// is stored after its phase — and, for a checkpoint-directory store,
    /// persisted, so a later `--resume` run completes the analysis as an
    /// ordinary cache hit. A store computed from other inputs
    /// ([`input_stamp`]) is emptied first.
    #[must_use]
    pub fn analyze_with_budget(
        &self,
        tech: &Tech,
        design: &Design,
        budget: RunBudget<'_>,
    ) -> PaoResult {
        let RunBudget {
            deadline,
            fractions,
            watchdog,
            mut store,
        } = budget;
        if let Some(store) = store.as_deref_mut() {
            // A mismatch is counted here; the CLI reports it when it opens
            // the store.
            let _ = store.bind(input_stamp(tech, design, &self.config));
        }
        let mut run = RunCtx::new(deadline, fractions, watchdog, self.config.threads);
        let input = self.analyze_instances(tech, design, store.as_deref_mut(), &mut run);
        // ---- Step 3 and the validation tail.
        let mut result = self.select_repair_audit(tech, design, input, &mut run);
        // Record this run's observed phase-time split so the next budgeted
        // run over this checkpoint directory allocates from history instead
        // of the built-in default. Partial runs are biased (cut phases look
        // cheap), so only complete runs update the history.
        if let Some(store) = store {
            if !result.stats.deadline.is_partial() {
                if let Err(e) = store.save_fractions(PhaseFractions::from_stats(&result.stats)) {
                    result.stats.quarantined.push(FaultRecord {
                        phase: Phase::Cache,
                        item: "phase-history checkpoint".to_owned(),
                        reason: e.to_string(),
                    });
                }
            }
        }
        result
    }

    /// Steps 1 and 2: unique-instance extraction, access point generation
    /// and pattern generation, one executor item per unique instance in
    /// each phase. Intra-cell work is shared across instances (see
    /// [`crate::share`]): candidate verdicts per (master, orientation),
    /// and one pattern DP per relative access point set. With `store`,
    /// each item first looks its signature up there, and the completed
    /// items of each phase are stored after it.
    pub(crate) fn analyze_instances(
        &self,
        tech: &Tech,
        design: &Design,
        mut store: Option<&mut AnalysisCache>,
        run: &mut RunCtx,
    ) -> TailInput {
        let engine = DrcEngine::new(tech);
        // With the decision ledger on, only entries that kept their reject
        // histograms may stand in for step 1.
        let ledger = pao_obs::ledger_enabled();

        // ---- Step 1: unique instances + access point generation.
        let mut apgen = run.phase(Phase::Apgen);
        let UniqueTable {
            classes: infos,
            comp_uniq,
        } = UniqueTable::build(tech, design);
        let plan = ApgenPlan::new(tech, design);
        let classes = CellClasses::new(&infos);
        pao_obs::counter_add("apgen.classes", classes.len() as u64);
        let label = |idx: usize| {
            let info = &infos[idx];
            format!(
                "unique instance {} (`{}` of master `{}`)",
                info.id.index(),
                design.component(info.rep).name,
                info.master
            )
        };
        let analyzed = {
            let (infos, plan, classes, engine) = (&infos, &plan, &classes, &engine);
            let store = store.as_deref();
            apgen.map(
                (0..infos.len()).collect::<Vec<_>>(),
                || (),
                move |(), idx| -> Result<(UniqueInstanceAccess, Option<Entry>), PaoError> {
                    let info = &infos[idx];
                    let rep = design.component(info.rep).location;
                    if let Some(e) = store.and_then(|s| s.step1(&signature_of(info), ledger)) {
                        pao_obs::counter_add("cache.restored.apgen", 1);
                        return Ok((e.restore(info.clone(), rep), None));
                    }
                    let Some(master) = tech.macro_by_name(&info.master) else {
                        return Err(PaoError::input(format!(
                            "unique instance {} (component `{}`) references unknown master `{}`",
                            info.id.index(),
                            design.component(info.rep).name,
                            info.master
                        )));
                    };
                    let src = classes.source(tech, design, idx, info.rep);
                    let (u, rejects) = instance_access(
                        tech,
                        design,
                        plan,
                        engine,
                        master,
                        &self.config.apgen,
                        info,
                        &src,
                    );
                    let entry = store.is_some().then(|| Entry {
                        rep,
                        tally: u.tally,
                        pin_aps: u.pin_aps.clone(),
                        rejects,
                        patterns: None,
                    });
                    Ok((u, entry))
                },
                label,
            )
        };
        drop(classes);
        let n = infos.len();
        let mut unique: Vec<UniqueInstanceAccess> = Vec::with_capacity(n);
        // Per instance: step 1 finished (restored or computed), and step 1
        // came from the store.
        let mut apgen_done = vec![false; n];
        let mut apgen_restored = vec![false; n];
        for (idx, outcome) in analyzed.into_iter().enumerate() {
            match outcome {
                Some(Ok((u, entry))) => {
                    apgen_done[idx] = true;
                    if let Some(store) = store.as_deref_mut() {
                        match entry {
                            Some(e) => store.insert(signature_of(&u.info), e),
                            None => apgen_restored[idx] = true,
                        }
                    }
                    unique.push(u);
                }
                // A quarantined, skipped or failed instance keeps a
                // placeholder: no access points, no patterns.
                outcome => {
                    if let Some(Err(e)) = outcome {
                        apgen.fault(FaultRecord {
                            phase: Phase::Apgen,
                            item: label(idx),
                            reason: e.to_string(),
                        });
                    }
                    let info = &infos[idx];
                    let npins = tech.macro_by_name(&info.master).map_or(0, |m| m.pins.len());
                    unique.push(UniqueInstanceAccess {
                        info: info.clone(),
                        pin_aps: vec![Vec::new(); npins],
                        pin_order: Vec::new(),
                        patterns: Vec::new(),
                        tally: ApTally::default(),
                    });
                }
            }
        }
        save_store(store.as_deref(), "apgen", &mut apgen);
        drop(infos);
        run.end(apgen);

        // ---- Step 2: pattern generation, one DP per group of unique
        // instances with the same relative access points.
        let mut pattern = run.phase(Phase::Pattern);
        let groups = PatternGroups::new(design, &unique, self.config.pattern.alpha);
        pao_obs::counter_add("pattern.groups", groups.len() as u64);
        // Unique instances whose steps 1 and 2 both came from the store.
        let mut hits = 0usize;
        {
            let (unique_ref, groups, engine, apgen_done) = (&unique, &groups, &engine, &apgen_done);
            let lookup = store.as_deref();
            let results = pattern.map(
                (0..unique_ref.len()).collect::<Vec<_>>(),
                || (),
                |(), i| {
                    // The stored entry holds exactly this run's access
                    // points once step 1 finished: restored from it, or
                    // stored into it after the phase.
                    let stored = lookup
                        .filter(|_| apgen_done[i])
                        .and_then(|s| s.get(&signature_of(&unique_ref[i].info)))
                        .and_then(|e| e.patterns.as_ref());
                    if let Some((order, patterns)) = stored {
                        pao_obs::counter_add("cache.restored.pattern", 1);
                        return (order.clone(), patterns.clone(), true);
                    }
                    let out = groups.outcome(i, |order| {
                        pattern_dp(
                            tech,
                            engine,
                            &unique_ref[i].pin_aps,
                            order,
                            &self.config.pattern,
                        )
                    });
                    out.replay_ledger(i as u64);
                    (out.order.clone(), out.patterns.clone(), false)
                },
                |i| {
                    let info = &unique_ref[i].info;
                    format!(
                        "unique instance {} (master `{}`)",
                        info.id.index(),
                        info.master
                    )
                },
            );
            for (i, res) in results.into_iter().enumerate() {
                // A skipped or quarantined instance keeps empty order and
                // patterns, so its members simply have no selected access.
                let Some((order, patterns, from_store)) = res else {
                    continue;
                };
                hits += usize::from(from_store && apgen_restored[i]);
                if !from_store && apgen_done[i] {
                    if let Some(store) = store.as_deref_mut() {
                        let sig = signature_of(&unique[i].info);
                        store.attach_patterns(&sig, order.clone(), patterns.clone());
                    }
                }
                unique[i].pin_order = order;
                unique[i].patterns = patterns;
            }
        }
        drop(groups);
        if let Some(store) = store.as_deref_mut() {
            store.count(hits, n - hits);
        }
        save_store(store.as_deref(), "pattern", &mut pattern);
        run.end(pattern);
        TailInput::new(unique, comp_uniq)
    }
}

/// Persists `store` after `phase` (a no-op for an in-memory store),
/// recording a write failure as a cache fault of the phase.
fn save_store(store: Option<&AnalysisCache>, phase: &str, run: &mut PhaseRun) {
    if let Some(Err(e)) = store.map(AnalysisCache::save) {
        run.fault(FaultRecord {
            phase: Phase::Cache,
            item: format!("{phase} checkpoint"),
            reason: e.to_string(),
        });
    }
}

/// Step 1 for one unique instance: Algorithm 1 over each signal pin with
/// geometry, candidate verdicts read from `src`, then the dirty-AP audit.
/// Returns the instance's access (tally filled, no patterns yet) and,
/// with the decision ledger on, its per-pin reject tallies.
#[allow(clippy::too_many_arguments)]
pub(crate) fn instance_access(
    tech: &Tech,
    design: &Design,
    plan: &ApgenPlan<'_>,
    engine: &DrcEngine<'_>,
    master: &Macro,
    apcfg: &ApGenConfig,
    info: &UniqueInstance,
    src: &VerdictSource<'_>,
) -> (UniqueInstanceAccess, Option<Vec<Vec<RejectTally>>>) {
    let shapes = design.placed_pin_shapes(tech, info.rep);
    let mut apcfg = apcfg.clone();
    if master.class == MacroClass::Block {
        // Macro pins: planar access acceptable.
        apcfg.require_via = false;
    }
    let mut pin_aps: Vec<Vec<AccessPoint>> = vec![Vec::new(); master.pins.len()];
    let mut tally = ApTally::default();
    let mut scratch = ApScratch::new();
    scratch.set_ledger_instance(u64::from(info.id.0));
    for (pin_idx, pin) in master.pins.iter().enumerate() {
        if pin.use_.is_supply() {
            continue;
        }
        let rects: Vec<(LayerId, Rect)> = shapes
            .iter()
            .filter(|&&(pi, _, _)| pi == pin_idx)
            .map(|&(_, l, r)| (l, r))
            .collect();
        if rects.is_empty() {
            continue;
        }
        let aps = generate_pin_access_points_with(
            tech,
            plan,
            engine,
            src,
            pin_idx,
            &rects,
            &apcfg,
            &mut scratch,
        );
        tally.off_track += aps.iter().filter(|ap| ap.is_off_track()).count();
        if aps.is_empty() {
            tally.without += 1;
        }
        // Honest dirty-AP audit (0 by construction for PAAF) — a table
        // read per AP, not a fresh DRC probe.
        for ap in &aps {
            if !primary_via_clean(tech, plan, engine, src, pin_idx, ap, &mut scratch) {
                tally.dirty += 1;
            }
        }
        pin_aps[pin_idx] = aps;
    }
    let rejects = pao_obs::ledger_enabled().then(|| scratch.take_rejects(master.pins.len()));
    scratch.flush_obs();
    (
        UniqueInstanceAccess {
            info: info.clone(),
            pin_aps,
            pin_order: Vec::new(),
            patterns: Vec::new(),
            tally,
        },
        rejects,
    )
}

/// What the steps ahead of cluster selection hand the shared tail: the
/// analyzed unique instances, each component's unique instance, and the
/// stats filled so far (Table II counters).
pub(crate) struct TailInput {
    pub(crate) unique: Vec<UniqueInstanceAccess>,
    pub(crate) comp_uniq: Vec<Option<UniqueInstanceId>>,
    pub(crate) stats: PaoStats,
}

impl TailInput {
    /// The tail's input over `unique`, with the Table II counters its
    /// instances' access point generation tallied — computed or stored,
    /// each depends only on the signature.
    pub(crate) fn new(
        unique: Vec<UniqueInstanceAccess>,
        comp_uniq: Vec<Option<UniqueInstanceId>>,
    ) -> TailInput {
        let mut stats = PaoStats {
            unique_instances: unique.len(),
            ..PaoStats::default()
        };
        for u in &unique {
            stats.total_aps += u.pin_aps.iter().map(Vec::len).sum::<usize>();
            stats.dirty_aps += u.tally.dirty;
            stats.pins_without_aps += u.tally.without;
            stats.off_track_aps += u.tally.off_track;
        }
        TailInput {
            unique,
            comp_uniq,
            stats,
        }
    }
}

impl PinAccessOracle {
    /// Step 3 and everything after it — cluster selection, the repair
    /// rounds and the failed-pin audit — as the one tail shared by cold
    /// runs ([`analyze_with_budget`](Self::analyze_with_budget)) and by
    /// the service's ECOs over the store (the full tail, or the window
    /// tail's fallback). Each phase mints its own token from `run`, so
    /// unspent budget rolls forward whether or not apgen and pattern
    /// generation ran first.
    pub(crate) fn select_repair_audit(
        &self,
        tech: &Tech,
        design: &Design,
        input: TailInput,
        run: &mut RunCtx,
    ) -> PaoResult {
        let TailInput {
            unique,
            comp_uniq,
            mut stats,
        } = input;
        let engine = DrcEngine::new(tech);
        let mut select = run.phase(Phase::Select);
        let defaults = (0..comp_uniq.len())
            .map(|ci| default_pattern(&comp_uniq, &unique, ci))
            .collect();
        // One row index serves the whole tail: selection forms its
        // clusters from it, and every repair round's scan finds a pin's
        // neighbours through it.
        let rows = RowIndex::build(tech, design);
        let select_out = select_patterns_budget(
            tech,
            &engine,
            design,
            &comp_uniq,
            &unique,
            &SelectGroups::of_rows(&rows, design.components().len()),
            defaults,
            &mut select,
        );
        stats.select_telemetry = select_out.telemetry;
        let mut result = PaoResult {
            unique,
            comp_uniq,
            selection: select_out.selection,
            overrides: std::collections::HashMap::new(),
            stats,
        };
        run.end(select);
        // Repair pass: for residual conflicts the whole-pattern DP cannot
        // untangle (frustrated chains of tightly-abutting boundary pins),
        // deviate per pin to any alternate clean AP — the same freedom the
        // detailed router has when it consumes the access points.
        let mut repair = run.phase(Phase::Repair);
        // The shape templates and connected-pin table depend only on the
        // placement, so they are built once and shared by every repair
        // round and the final audit.
        let gctx = GlobalContext::new(tech, design);
        // Scan verdicts of the last repair round, usable as audit hints:
        // valid only when that round repaired nothing (the overrides — and
        // therefore the audit context — are unchanged since the scan).
        let mut scan_ok: Option<Vec<Option<bool>>> = None;
        for round in 0..self.config.repair_rounds {
            // All repair rounds share one phase token: once it expires, no
            // further round starts and the remaining scans are skipped.
            if repair.is_cancelled() {
                scan_ok = None;
                break;
            }
            pao_obs::counter_add("repair.rounds", 1);
            let (repaired, ok_flags) =
                repair_failed_pins_budget(&gctx, &rows, &mut result, round, &mut repair);
            scan_ok = (repaired == 0).then_some(ok_flags);
            if repaired == 0 {
                break;
            }
        }
        result.stats.repaired_pins = result.overrides.len();
        run.end(repair);
        let mut audit = run.phase(Phase::Audit);
        let (total_pins, failed_pins) = audit_pins_budget(
            &gctx,
            &rows,
            |comp, pin_idx| scan_ap(&result, design, comp, pin_idx),
            scan_ok.as_deref(),
            &mut audit,
        );
        result.stats.total_pins = total_pins;
        result.stats.failed_pins = failed_pins;
        run.end(audit);
        run.close(&mut result.stats);
        result
    }
}

/// What a probe needs from a selected access point: position, primary
/// via and the planar fallback — resolved without cloning the access
/// point's `Vec`s.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScanAp {
    pos: pao_geom::Point,
    via: Option<pao_tech::ViaId>,
    planar_ok: bool,
}

impl ScanAp {
    /// The probe's view of `ap`.
    fn of(ap: &AccessPoint) -> ScanAp {
        ScanAp {
            pos: ap.pos,
            via: ap.primary_via(),
            planar_ok: !ap.planar.is_empty(),
        }
    }
}

/// One worker's probe buffers: the DRC workspace and a local context —
/// its windows, the components that can reach them and the shapes
/// inside them (never packed: probes scan its handful of raw items).
#[derive(Default)]
struct LocalProbe {
    ws: DrcScratch,
    /// The probe windows: `(layer, grown via shape)`.
    wins: Vec<(LayerId, Rect)>,
    /// Components whose reach bounds meet the windows, sorted.
    cands: Vec<CompId>,
    ctx: ShapeSet,
}

impl LocalProbe {
    /// Empties the context, sized for `layers` layers.
    fn reset(&mut self, layers: usize) {
        if self.ctx.num_layers() == layers {
            self.ctx.clear();
        } else {
            self.ctx = ShapeSet::new(layers);
        }
    }
}

/// What a full probe adds to its context ([`Reach::probe`]): selected
/// vias whose owner the predicate holds are left out (greedy
/// re-placement's ripped-up pins), and the listed shapes are added.
type FullProbe<'p> = (&'p dyn Fn(Owner) -> bool, &'p [(LayerId, Rect, Owner)]);

/// The hull of each via's shapes around its drop point, by via id.
pub(crate) fn via_hulls(tech: &Tech) -> Vec<Rect> {
    tech.vias()
        .iter()
        .map(|v| {
            v.each_placed_shape(pao_geom::Point::new(0, 0))
                .map(|(_, r)| r)
                .reduce(Rect::hull)
                .unwrap_or_else(|| Rect::new(0, 0, 0, 0))
        })
        .collect()
}

/// Which components can reach a probe's windows under one selection,
/// found through the tail's row index, and the local context each
/// post-pattern probe reads ([`Reach::fill`]).
pub(crate) struct Reach<'r> {
    gctx: &'r GlobalContext<'r>,
    rows: &'r RowIndex,
    /// Each connected pin's selected access point (aligned with
    /// `gctx.pins.list()`).
    selected: Vec<Option<ScanAp>>,
    /// Hull of each via's shapes around its drop point.
    via_hulls: Vec<Rect>,
    /// The widest search halo (at least 1) among each via's own layers.
    via_margins: Vec<pao_geom::Dbu>,
    /// Component reach bounds: base-shape hull grown by every selected
    /// via's full placed hull, so all via geometry is covered even where
    /// an access point sits outside the pin shapes.
    bounds: Vec<Option<Rect>>,
    /// The farthest any component's reach bounds stick out of its cell
    /// box. Reach bounds touching a window put the cell box within
    /// `hang` of it, so the row index, searched with the window grown by
    /// `hang`, meets every component whose reach bounds touch it.
    hang: pao_geom::Dbu,
}

impl<'r> Reach<'r> {
    /// The reach of every component under the `selected` access points
    /// (aligned with `gctx.pins.list()`).
    fn new(
        gctx: &'r GlobalContext<'r>,
        rows: &'r RowIndex,
        engine: &DrcEngine<'_>,
        selected: Vec<Option<ScanAp>>,
    ) -> Reach<'r> {
        let (tech, design) = (gctx.tech, gctx.design);
        let via_hulls = via_hulls(tech);
        let via_margins = tech
            .vias()
            .iter()
            .map(|v| {
                v.each_placed_shape(pao_geom::Point::new(0, 0))
                    .map(|(l, _)| engine.halo(l).max(1))
                    .max()
                    .unwrap_or(1)
            })
            .collect();
        let mut bounds: Vec<Option<Rect>> = gctx.bounds.clone();
        for (&(comp, _), ap) in gctx.pins.list().iter().zip(&selected) {
            let Some(ap) = ap else { continue };
            let Some(v) = ap.via else { continue };
            let p = via_hulls[v.index()].translated(ap.pos);
            let b = &mut bounds[comp.index()];
            *b = Some(b.map_or(p, |r| r.hull(p)));
        }
        let hang = bounds
            .iter()
            .enumerate()
            .filter_map(|(ci, b)| {
                let (b, cell) = ((*b)?, comp_bbox(tech, design, CompId(ci as u32))?);
                Some(
                    (cell.xlo() - b.xlo())
                        .max(b.xhi() - cell.xhi())
                        .max(cell.ylo() - b.ylo())
                        .max(b.yhi() - cell.yhi()),
                )
            })
            .fold(0, pao_geom::Dbu::max);
        Reach {
            gctx,
            rows,
            selected,
            via_hulls,
            via_margins,
            bounds,
            hang,
        }
    }

    /// The stage-1 window of via `v` dropped at `pos`: its hull grown by
    /// the widest halo of its layers, which holds every probe window
    /// [`fill`](Self::fill) grows from it.
    fn window(&self, v: pao_tech::ViaId, pos: pao_geom::Point) -> Rect {
        self.via_hulls[v.index()]
            .translated(pos)
            .expanded(self.via_margins[v.index()])
    }

    /// Every component other than `comp` whose reach bounds touch `w`,
    /// sorted and distinct, into `out` (cleared first). The row index
    /// lists a multi-height member once per stripe, hence the dedup.
    fn candidates(&self, comp: CompId, w: Rect, out: &mut Vec<CompId>) {
        out.clear();
        self.rows.near(
            w.expanded(self.hang),
            |c| c != comp && self.bounds[c.index()].is_some_and(|b| b.touches(w)),
            out,
        );
        out.sort_unstable();
        out.dedup();
    }

    /// Fills `lp.ctx` with what a probe of via `v` at `pos` for `comp`
    /// reads, and returns `false` when that is nothing. The candidates
    /// are the components whose reach bounds meet the stage-1
    /// [window](Self::window); their template shapes and selected vias
    /// that touch a probe window on its layer land in the context. A
    /// probe window is a via shape grown by its layer's halo (at least 1:
    /// the reach of every engine query), so the probe reads nothing the
    /// context lacks, and its verdict is the whole design's.
    ///
    /// Without `full` the context is foreign only, what a pairwise probe
    /// reads, and the fill stops after the candidate query when there is
    /// no candidate. With `full` (see [`FullProbe`]) it holds `comp`'s own
    /// shapes and vias too, and a via with several bottom shapes adds
    /// their hull grown by 1: the merged-geometry check reads same-owner
    /// metal around it, which their own windows may not cover.
    fn fill(
        &self,
        engine: &DrcEngine<'_>,
        comp: CompId,
        v: pao_tech::ViaId,
        pos: pao_geom::Point,
        full: Option<FullProbe<'_>>,
        lp: &mut LocalProbe,
    ) -> bool {
        self.candidates(comp, self.window(v, pos), &mut lp.cands);
        if full.is_none() && lp.cands.is_empty() {
            return false;
        }
        let tech = self.gctx.tech;
        let via = tech.via(v);
        lp.wins.clear();
        for (layer, rect) in via.each_placed_shape(pos) {
            lp.wins
                .push((layer, rect.expanded(engine.halo(layer).max(1))));
        }
        if full.is_some() {
            lp.cands.push(comp);
            if via.bottom_shapes.len() > 1 {
                let hull = via.bottom_bbox().translated(pos).expanded(1);
                lp.wins.push((via.bottom_layer, hull));
            }
        }
        lp.reset(tech.layers().len());
        let LocalProbe {
            wins, cands, ctx, ..
        } = lp;
        let in_wins =
            |layer: LayerId, r: Rect| wins.iter().any(|&(wl, w)| wl == layer && r.touches(w));
        let (skip, placed) = full.unwrap_or((&|_| false, &[]));
        for &c in cands.iter() {
            self.gctx.for_each_shape(c, |layer, r, o| {
                if in_wins(layer, r) {
                    ctx.insert_deferred(layer, r, o);
                }
            });
            self.gctx
                .for_each_selected_via(c, &self.selected, |pin, layer, r| {
                    let o = pin_owner(c, pin);
                    if in_wins(layer, r) && !skip(o) {
                        ctx.insert_deferred(layer, r, o);
                    }
                });
        }
        for &(layer, r, o) in placed {
            if in_wins(layer, r) {
                ctx.insert_deferred(layer, r, o);
            }
        }
        !ctx.is_empty()
    }

    /// `true` when via `v` lands clean at `pos` for pin `pin_idx` of
    /// `comp`: one full probe in its local context ([`fill`](Self::fill)),
    /// with selected vias whose owner `skip` holds left out and the
    /// `placed` shapes added.
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &self,
        engine: &DrcEngine<'_>,
        comp: CompId,
        pin_idx: usize,
        v: pao_tech::ViaId,
        pos: pao_geom::Point,
        skip: impl Fn(Owner) -> bool,
        placed: &[(LayerId, Rect, Owner)],
        lp: &mut LocalProbe,
    ) -> bool {
        self.fill(engine, comp, v, pos, Some((&skip, placed)), lp);
        let via = self.gctx.tech.via(v);
        engine.via_placement_clean(via, pos, pin_owner(comp, pin_idx), &lp.ctx, &mut lp.ws)
    }
}

/// [`PaoResult::access_point`] minus the allocations: resolves the
/// selected AP for `(comp, pin_idx)` into a [`ScanAp`].
pub(crate) fn scan_ap(
    result: &PaoResult,
    design: &Design,
    comp: CompId,
    pin_idx: usize,
) -> Option<ScanAp> {
    if let Some(ap) = result.overrides.get(&(comp, pin_idx)) {
        return Some(ScanAp::of(ap));
    }
    let ui = result.comp_uniq.get(comp.index()).copied().flatten()?;
    let u = &result.unique[ui.index()];
    let sel = result.selection.get(comp.index()).copied().flatten()?;
    let pat = u.patterns.get(sel)?;
    let pos_in_order = u.pin_order.iter().position(|&p| p == pin_idx)?;
    let ap_idx = *pat.choice.get(pos_in_order)?;
    let ap = u.pin_aps.get(pin_idx)?.get(ap_idx)?;
    let delta = design.component(comp).location - design.component(u.info.rep).location;
    Some(ScanAp {
        pos: ap.pos + delta,
        ..ScanAp::of(ap)
    })
}

/// One repair round: identifies every connected pin whose selected access
/// is dirty in the whole-design context, **rips up** all their vias, and
/// greedily re-places each ([`replace_dirty`]). Returns the number of
/// pins re-placed.
///
/// The dirty-pin scan (the dominant cost: one verdict per connected pin)
/// fans out over the context's workers. The greedy re-placement itself
/// stays sequential — it is order-dependent by design and touches only
/// the few dirty pins.
///
/// A scan item that panics, or that `phase` skips, leaves its pin
/// untouched this round; `phase` records the fault or the skip.
///
/// The third element of the return is the per-connected-pin scan verdict
/// (`Some(clean)`; `None` for panicked/skipped items) — reusable as audit
/// hints when the round repaired nothing.
pub(crate) fn repair_failed_pins_budget(
    gctx: &GlobalContext<'_>,
    rows: &RowIndex,
    result: &mut PaoResult,
    round: usize,
    phase: &mut PhaseRun,
) -> (usize, Vec<Option<bool>>) {
    let (tech, design) = (gctx.tech, gctx.design);
    let engine = DrcEngine::new(tech);
    let connected = gctx.pins.list();
    // Selected access points, reduced to what a probe needs (position,
    // primary via, planar fallback) and resolved once: `access_point`
    // clones two `Vec`s and walks the pin order per call, so the scan
    // below indexes the reach's copy instead of re-resolving every pin.
    let reach = Reach::new(
        gctx,
        rows,
        &engine,
        connected
            .iter()
            .map(|&(comp, pin_idx)| scan_ap(result, design, comp, pin_idx))
            .collect(),
    );
    let overridden: std::collections::HashSet<CompId> =
        result.overrides.keys().map(|&(c, _)| c).collect();
    // A pin of a certified component — no repair override, and a selected
    // pattern whole-pattern validation proved — has its own-cell checks
    // proven: AP generation probed its via against every own-cell shape,
    // and validation probed the pattern's vias against each other. Only
    // foreign shapes can still reject it, and only through pairwise rules
    // (merged-geometry unions are same-owner, hence own). So a certified
    // pin is clean unprobed when nothing foreign lands in its windows
    // (`repair.scan.fast_clean`), and takes one pairwise probe over the
    // foreign shapes otherwise; every other pin takes a full probe.
    let (comp_uniq, selection, unique) = (&result.comp_uniq, &result.selection, &result.unique);
    let certified = |c: CompId| -> bool {
        let Some(u) = comp_uniq.get(c.index()).copied().flatten() else {
            return false;
        };
        let Some(sel) = selection.get(c.index()).copied().flatten() else {
            return false;
        };
        !overridden.contains(&c)
            && unique[u.index()]
                .patterns
                .get(sel)
                .is_some_and(|p| p.validated)
    };
    let flags = {
        let (reach, engine, certified) = (&reach, &engine, &certified);
        phase.map(
            (0..connected.len()).collect(),
            LocalProbe::default,
            move |lp, i: usize| {
                let (comp, pin_idx) = connected[i];
                let dirty = match reach.selected[i] {
                    None => true,
                    // Planar-only verdicts are a field read.
                    Some(ScanAp {
                        via: None,
                        planar_ok,
                        ..
                    }) => !planar_ok,
                    Some(ScanAp {
                        via: Some(v), pos, ..
                    }) => {
                        if !certified(comp) {
                            pao_obs::counter_add("repair.scan.probed", 1);
                            !reach.probe(engine, comp, pin_idx, v, pos, |_| false, &[], lp)
                        } else if reach.fill(engine, comp, v, pos, None, lp) {
                            pao_obs::counter_add("repair.scan.probed", 1);
                            let owner = pin_owner(comp, pin_idx);
                            !engine.via_pairwise_clean(tech.via(v), pos, owner, &lp.ctx, &mut lp.ws)
                        } else {
                            pao_obs::counter_add("repair.scan.fast_clean", 1);
                            false
                        }
                    }
                };
                lp.ws.flush_obs();
                dirty
            },
            |i| pin_label(tech, design, connected[i].0, connected[i].1),
        )
    };
    let mut scan_ok: Vec<Option<bool>> = Vec::with_capacity(connected.len());
    let dirty: Vec<(CompId, usize)> = connected
        .iter()
        .copied()
        .zip(flags)
        .filter_map(|((comp, pin_idx), d)| {
            scan_ok.push(d.map(|d| !d));
            // A skipped or quarantined scan leaves its pin untouched.
            let d = d?;
            // Sequential collection loop: the dirty-pin records land in
            // scan order regardless of worker count.
            if d && pao_obs::ledger_enabled() {
                pao_obs::ledger::record(
                    pao_obs::LedgerRecord::new(
                        pao_obs::LedgerEvent::RepairDirty,
                        (u64::from(comp.0) << 16) | pin_idx as u64,
                        0,
                    )
                    .with_aux(round as u32),
                );
            }
            d.then_some((comp, pin_idx))
        })
        .collect();
    pao_obs::hist_record("repair.dirty_pins", dirty.len() as u64);
    if dirty.is_empty() {
        return (0, scan_ok);
    }
    let repaired = replace_dirty(&reach, &engine, result, &dirty, round);
    (repaired, scan_ok)
}

/// The access points a repair tries for `(comp, pin_idx)`, in order: the
/// current one first, then every alternate of the pin; with the current
/// one on its own.
fn repair_candidates(
    result: &PaoResult,
    design: &Design,
    comp: CompId,
    pin_idx: usize,
) -> (Option<AccessPoint>, Vec<AccessPoint>) {
    let current = result.access_point(design, comp, pin_idx);
    let mut candidates: Vec<AccessPoint> = current.iter().cloned().collect();
    for alt in result.all_access_points(design, comp, pin_idx) {
        if current.as_ref().map(|c| c.pos) != Some(alt.pos) {
            candidates.push(alt);
        }
    }
    (current, candidates)
}

/// Greedy re-placement of one round's `dirty` pins, in scan order: each
/// takes its first clean [candidate](repair_candidates) as an override,
/// or keeps its current access point when none is clean. A candidate is
/// probed in its local context ([`Reach::probe`]) with every dirty pin's
/// selected via ripped up and the vias this loop committed so far put
/// back, so mutually-blocking pairs can both move. Returns the number of
/// pins re-placed.
fn replace_dirty(
    reach: &Reach<'_>,
    engine: &DrcEngine<'_>,
    result: &mut PaoResult,
    dirty: &[(CompId, usize)],
    round: usize,
) -> usize {
    let (tech, design) = (reach.gctx.tech, reach.gctx.design);
    let ripped: std::collections::HashSet<Owner> =
        dirty.iter().map(|&(c, p)| pin_owner(c, p)).collect();
    // Resolved before any override lands, so a pin listed twice (on two
    // nets) sees the same candidates both times.
    let candidates: Vec<(Option<AccessPoint>, Vec<AccessPoint>)> = dirty
        .iter()
        .map(|&(comp, pin_idx)| repair_candidates(result, design, comp, pin_idx))
        .collect();
    let mut committed: Vec<(LayerId, Rect, Owner)> = Vec::new();
    let mut lp = LocalProbe::default();
    let mut repaired = 0usize;
    for (&(comp, pin_idx), (current, cands)) in dirty.iter().zip(candidates) {
        let owner = pin_owner(comp, pin_idx);
        // `find_map` keeps the winning candidate *and* its via together,
        // so there is no second (fallible) `primary_via` lookup.
        let placed = cands.into_iter().enumerate().find_map(|(ci, cand)| {
            let v = cand.primary_via()?;
            reach
                .probe(
                    engine,
                    comp,
                    pin_idx,
                    v,
                    cand.pos,
                    |o| ripped.contains(&o),
                    &committed,
                    &mut lp,
                )
                .then_some((ci, cand, v))
        });
        let record = |event, choice: u32| {
            pao_obs::LedgerRecord::new(event, (u64::from(comp.0) << 16) | pin_idx as u64, choice)
                .with_aux(round as u32)
        };
        let kept = if let Some((ci, cand, v)) = placed {
            if pao_obs::ledger_enabled() {
                pao_obs::ledger::record(
                    record(pao_obs::LedgerEvent::RepairReplaced, ci as u32)
                        .with_pos(cand.pos.x, cand.pos.y),
                );
            }
            let pos = cand.pos;
            result.overrides.insert((comp, pin_idx), cand);
            repaired += 1;
            pao_obs::counter_add("repair.replaced", 1);
            Some((v, pos))
        } else {
            if pao_obs::ledger_enabled() {
                pao_obs::ledger::record(record(pao_obs::LedgerEvent::RepairStuck, 0));
            }
            // Nothing clean: keep the current choice committed so later
            // pins at least see it.
            current.and_then(|cur| Some((cur.primary_via()?, cur.pos)))
        };
        if let Some((v, pos)) = kept {
            committed.extend(
                tech.via(v)
                    .each_placed_shape(pos)
                    .map(|(l, r)| (l, r, owner)),
            );
        }
    }
    lp.ws.flush_obs();
    repaired
}

/// `"pin <component>/<pin name>"` for fault reports; degrades to the pin
/// index when the master is unknown.
fn pin_label(tech: &Tech, design: &Design, comp: CompId, pin_idx: usize) -> String {
    let cname = &design.component(comp).name;
    match design
        .component(comp)
        .master_in(tech)
        .and_then(|m| m.pins.get(pin_idx))
    {
        Some(pin) => format!("pin {cname}/{}", pin.name),
        None => format!("pin {cname}/#{pin_idx}"),
    }
}

/// The placement-dependent half of every post-pattern probe context,
/// built **once** per analysis and shared by every repair round and the
/// final audit: the connected-pin table and one shape template per
/// (master, orientation).
///
/// A template holds its master's placed pin and obstruction shapes at
/// location (0, 0). A placement transform maps a master point to
/// `location + f(orient, width, height, point)`, so every component of
/// one master and orientation has exactly its template's shapes
/// translated by its location — the invariance unique instances already
/// rest on. Every probe reads neighbours through templates, in the
/// local context [`Reach::fill`] builds for it.
pub(crate) struct GlobalContext<'a> {
    pub(crate) tech: &'a Tech,
    pub(crate) design: &'a Design,
    /// The connected pins in net order, with each component's entries.
    pub(crate) pins: crate::incremental::ConnectedPins,
    templates: Vec<Vec<TemplateShape>>,
    /// Each component's template; `None` when the component is unplaced
    /// or its master is unknown (it contributes no shapes).
    comp_template: Vec<Option<u32>>,
    /// Hull of each component's placed pin/obstruction shapes (`None`
    /// when a component contributes no shapes). Feeds the reach bounds.
    pub(crate) bounds: Vec<Option<Rect>>,
}

/// One shape of a template: layer, rectangle at location (0, 0), and the
/// master pin index ([`OBS_SHAPE`] for an obstruction).
type TemplateShape = (LayerId, Rect, u32);

/// The pin index a [`TemplateShape`] carries for obstruction geometry.
const OBS_SHAPE: u32 = u32::MAX;

impl<'a> GlobalContext<'a> {
    /// Walks the placement once: one template per (master, orientation),
    /// each component's template and bounds, and the connected-pin
    /// table.
    pub(crate) fn new(tech: &'a Tech, design: &'a Design) -> GlobalContext<'a> {
        let n = design.components().len();
        let mut ids: std::collections::HashMap<(pao_tech::Symbol, pao_geom::Orient), u32> =
            std::collections::HashMap::new();
        let mut templates: Vec<Vec<TemplateShape>> = Vec::new();
        let mut hulls: Vec<Option<Rect>> = Vec::new();
        let mut comp_template: Vec<Option<u32>> = vec![None; n];
        let mut bounds: Vec<Option<Rect>> = vec![None; n];
        for (ci, c) in design.components().iter().enumerate() {
            if c.master_in(tech).is_none() || !c.is_placed {
                continue;
            }
            let tid = *ids.entry((c.master, c.orient)).or_insert_with(|| {
                let shapes = template_of(tech, design, CompId(ci as u32));
                hulls.push(shapes.iter().map(|s| s.1).reduce(Rect::hull));
                templates.push(shapes);
                (templates.len() - 1) as u32
            });
            comp_template[ci] = Some(tid);
            bounds[ci] = hulls[tid as usize].map(|h| h.translated(c.location));
        }
        GlobalContext {
            tech,
            design,
            pins: crate::incremental::ConnectedPins::build(tech, design),
            templates,
            comp_template,
            bounds,
        }
    }

    /// Calls `f` with each placed pin and obstruction shape of `comp` —
    /// its template translated by its location — and the shape's owner,
    /// in master order (pin shapes, then obstructions).
    pub(crate) fn for_each_shape(&self, comp: CompId, mut f: impl FnMut(LayerId, Rect, Owner)) {
        let Some(tid) = self.comp_template[comp.index()] else {
            return;
        };
        let loc = self.design.component(comp).location;
        for &(layer, r, pin) in &self.templates[tid as usize] {
            let owner = if pin == OBS_SHAPE {
                Owner::obs(u64::from(comp.0))
            } else {
                pin_owner(comp, pin as usize)
            };
            f(layer, r.translated(loc), owner);
        }
    }

    /// Calls `f` with the pin index and each shape of the primary via
    /// selected for each of `comp`'s connected pins, in net order
    /// (`selected` is aligned with
    /// [`ConnectedPins::list`](crate::incremental::ConnectedPins::list)).
    fn for_each_selected_via(
        &self,
        comp: CompId,
        selected: &[Option<ScanAp>],
        mut f: impl FnMut(usize, LayerId, Rect),
    ) {
        for slot in self.pins.slots_of(comp) {
            let Some(ap) = &selected[slot] else { continue };
            let Some(v) = ap.via else { continue };
            let pin_idx = self.pins.list()[slot].1;
            for (layer, rect) in self.tech.via(v).each_placed_shape(ap.pos) {
                f(pin_idx, layer, rect);
            }
        }
    }
}

/// The template of `comp`'s master and orientation: its placed pin and
/// obstruction shapes moved back to location (0, 0), in master order.
fn template_of(tech: &Tech, design: &Design, comp: CompId) -> Vec<TemplateShape> {
    let loc = design.component(comp).location;
    let back = pao_geom::Point::new(-loc.x, -loc.y);
    let mut shapes: Vec<TemplateShape> = Vec::new();
    design.for_each_placed_pin_shape(tech, comp, |pin_idx, layer, rect| {
        shapes.push((layer, rect.translated(back), pin_idx as u32));
    });
    design.for_each_placed_obs_shape(tech, comp, |layer, rect| {
        shapes.push((layer, rect.translated(back), OBS_SHAPE));
    });
    shapes
}

/// Every `(component, pin index)` with a net attached, in net order —
/// the pins the audit counts. Unplaced components and unresolvable pins
/// are left out; a pin on two nets appears twice.
pub(crate) fn connected_pins(tech: &Tech, design: &Design) -> Vec<(CompId, usize)> {
    let mut connected: Vec<(CompId, usize)> = Vec::new();
    for net in design.nets() {
        for (comp, pin_name) in net.comp_pins() {
            if !design.component(comp).is_placed {
                continue;
            }
            let Some(master) = design.component(comp).master_in(tech) else {
                continue;
            };
            let Some(pin_idx) = master.pins.iter().position(|p| p.name == pin_name) else {
                continue;
            };
            connected.push((comp, pin_idx));
        }
    }
    connected
}

/// Counts Table III's `(total pins, failed pins)`: every component pin
/// with a net attached must end with a DRC-clean access point, checked
/// against the **whole-design** context (all pins, obstructions and every
/// other selected via) — each probe in its local context, which holds
/// every such shape it can read. The per-pin DRC probes fan out over
/// `threads` workers.
#[must_use]
pub fn count_failed_pins_threaded(
    tech: &Tech,
    design: &Design,
    result: &PaoResult,
    threads: usize,
) -> ((usize, usize), ExecReport) {
    let gctx = GlobalContext::new(tech, design);
    let rows = RowIndex::build(tech, design);
    let select = |comp, pin_idx| scan_ap(result, design, comp, pin_idx);
    let mut audit = PhaseRun::unbudgeted(Phase::Audit, threads);
    let counts = audit_pins_budget(&gctx, &rows, select, None, &mut audit);
    (counts, audit.exec)
}

/// [`count_failed_pins_threaded`] on one thread with `accessor`
/// supplying the selected access point per `(component, pin index)` in
/// die coordinates. Used to score both PAAF and baseline pin access with
/// identical rules.
#[must_use]
pub fn count_failed_pins_with(
    tech: &Tech,
    design: &Design,
    accessor: impl Fn(CompId, usize) -> Option<AccessPoint> + Sync,
) -> (usize, usize) {
    let gctx = GlobalContext::new(tech, design);
    let rows = RowIndex::build(tech, design);
    let select = |comp, pin_idx| accessor(comp, pin_idx).as_ref().map(ScanAp::of);
    let mut audit = PhaseRun::unbudgeted(Phase::Audit, 1);
    audit_pins_budget(&gctx, &rows, select, None, &mut audit)
}

/// The audit over a prebuilt [`GlobalContext`] and row index, optionally
/// short-cutting with per-pin `hints` (the last repair round's scan
/// verdicts, aligned with `gctx.pins.list()`; `None` entries are probed
/// normally). When every pin carries a hint, nothing is resolved or
/// built — the scan already probed the identical context. Otherwise
/// `select` resolves each connected pin's access point and every
/// unhinted pin is probed in its local context ([`Reach::probe`]).
/// Hinted pins still flow through the `audit.pin` executor, so fault
/// isolation, budgeting and the thread-count identity contract are
/// unchanged.
pub(crate) fn audit_pins_budget(
    gctx: &GlobalContext<'_>,
    rows: &RowIndex,
    select: impl Fn(CompId, usize) -> Option<ScanAp>,
    hints: Option<&[Option<bool>]>,
    phase: &mut PhaseRun,
) -> (usize, usize) {
    let connected = gctx.pins.list();
    let hints = hints.filter(|h| h.len() == connected.len());
    let engine = DrcEngine::new(gctx.tech);
    let reach = if hints.is_some_and(|h| h.iter().all(Option::is_some)) {
        pao_obs::counter_add("audit.hinted_all", 1);
        None
    } else {
        let selected = connected.iter().map(|&(c, p)| select(c, p)).collect();
        Some(Reach::new(gctx, rows, &engine, selected))
    };
    probe_pins(
        &engine,
        gctx.design,
        connected,
        hints,
        reach.as_ref().map(ProbeCtx::Local),
        phase,
    )
}

/// Where [`probe_pins`] reads each pin's selected access point and the
/// context its probe checks against.
pub(crate) enum ProbeCtx<'a> {
    /// One set holding every shape any of the probes can read, and each
    /// pin's selected access point (aligned with the pins).
    Shared(&'a ShapeSet, &'a [Option<ScanAp>]),
    /// Each pin's own local context under the reach's selection (aligned
    /// with the pins).
    Local(&'a Reach<'a>),
}

impl ProbeCtx<'_> {
    /// `true` when `(comp, pin_idx)`, the `i`-th probed pin, has clean
    /// access: its selected via lands clean, or it has planar-only
    /// access (macro pins).
    fn clean(
        &self,
        engine: &DrcEngine<'_>,
        i: usize,
        (comp, pin_idx): (CompId, usize),
        lp: &mut LocalProbe,
    ) -> bool {
        let ap = match self {
            ProbeCtx::Shared(_, selected) => selected[i],
            ProbeCtx::Local(reach) => reach.selected[i],
        };
        match (ap, self) {
            (None, _) => false,
            (
                Some(ScanAp {
                    via: None,
                    planar_ok,
                    ..
                }),
                _,
            ) => planar_ok,
            (
                Some(ScanAp {
                    via: Some(v), pos, ..
                }),
                ProbeCtx::Shared(set, _),
            ) => {
                let via = engine.tech().via(v);
                engine.via_placement_clean(via, pos, pin_owner(comp, pin_idx), set, &mut lp.ws)
            }
            (
                Some(ScanAp {
                    via: Some(v), pos, ..
                }),
                ProbeCtx::Local(reach),
            ) => reach.probe(engine, comp, pin_idx, v, pos, |_| false, &[], lp),
        }
    }
}

/// Probes `pins` with the audit's exact `via_placement_clean` in `ctx`,
/// one `audit.pin` item of `phase` per pin, and tallies
/// `(pins.len(), failed pins)`. A pin with a `hints` entry (aligned with
/// `pins`) takes it as its verdict unprobed; `ctx` may be `None` only
/// when every pin has one. A pin without a selected access point, or
/// whose probe was skipped or quarantined, was never certified clean, so
/// it counts as failed. Behind the cold audit and the ECO window tail
/// alike.
pub(crate) fn probe_pins(
    engine: &DrcEngine<'_>,
    design: &Design,
    pins: &[(CompId, usize)],
    hints: Option<&[Option<bool>]>,
    ctx: Option<ProbeCtx<'_>>,
    phase: &mut PhaseRun,
) -> (usize, usize) {
    let tech = engine.tech();
    let oks = phase.map(
        (0..pins.len()).collect::<Vec<_>>(),
        LocalProbe::default,
        |lp, i| {
            if let Some(ok) = hints.and_then(|h| h[i]) {
                pao_obs::counter_add("audit.hint_hits", 1);
                return ok;
            }
            let ok = ctx
                .as_ref()
                .is_some_and(|ctx| ctx.clean(engine, i, pins[i], lp));
            lp.ws.flush_obs();
            ok
        },
        |i| pin_label(tech, design, pins[i].0, pins[i].1),
    );
    let failed = oks.iter().filter(|&&ok| ok != Some(true)).count();
    (pins.len(), failed)
}

/// The repair scan's per-component shape lists as they were built before
/// shape templates: every placed pin and obstruction shape transformed
/// component by component, then each connected pin's selected via in net
/// order; plus the hull of each component's placed shapes.
#[cfg(test)]
#[allow(clippy::type_complexity)]
fn scan_shapes_reference(
    tech: &Tech,
    design: &Design,
    connected: &[(CompId, usize)],
    selected: &[Option<ScanAp>],
) -> (Vec<Vec<(LayerId, Rect, Owner)>>, Vec<Option<Rect>>) {
    let mut csr: Vec<Vec<(LayerId, Rect, Owner)>> = vec![Vec::new(); design.components().len()];
    let mut bounds: Vec<Option<Rect>> = vec![None; design.components().len()];
    for (ci, c) in design.components().iter().enumerate() {
        let comp = CompId(ci as u32);
        if c.master_in(tech).is_none() || !c.is_placed {
            continue;
        }
        for (pin_idx, layer, rect) in design.placed_pin_shapes(tech, comp) {
            csr[ci].push((layer, rect, pin_owner(comp, pin_idx)));
        }
        for (layer, rect) in design.placed_obs_shapes(tech, comp) {
            csr[ci].push((layer, rect, Owner::obs(u64::from(comp.0))));
        }
        bounds[ci] = csr[ci].iter().map(|s| s.1).reduce(Rect::hull);
    }
    for (&(comp, pin_idx), ap) in connected.iter().zip(selected) {
        let Some(ap) = ap else { continue };
        let Some(v) = ap.via else { continue };
        for (layer, rect) in tech.via(v).each_placed_shape(ap.pos) {
            csr[comp.index()].push((layer, rect, pin_owner(comp, pin_idx)));
        }
    }
    (csr, bounds)
}

/// The whole-design context as one monolithic pack, the reference every
/// local context must agree with: every template shape, and the
/// selected via of every connected pin whose owner `ripped` lacks.
#[cfg(test)]
fn packed_reference(
    gctx: &GlobalContext<'_>,
    selected: &[Option<ScanAp>],
    ripped: &std::collections::HashSet<Owner>,
) -> ShapeSet {
    let mut set = ShapeSet::new(gctx.tech.layers().len());
    for ci in 0..gctx.design.components().len() {
        gctx.for_each_shape(CompId(ci as u32), |l, r, o| set.insert_deferred(l, r, o));
    }
    for (&(comp, pin_idx), ap) in gctx.pins.list().iter().zip(selected) {
        let owner = pin_owner(comp, pin_idx);
        if let Some(ScanAp {
            pos, via: Some(v), ..
        }) = *ap
        {
            if !ripped.contains(&owner) {
                for (l, r) in gctx.tech.via(v).each_placed_shape(pos) {
                    set.insert_deferred(l, r, owner);
                }
            }
        }
    }
    set.rebuild();
    set
}

/// [`replace_dirty`] over the packed reference: the dirty pins' selected
/// vias ripped up, and each committed via inserted as the loop goes.
#[cfg(test)]
fn replace_dirty_reference(
    gctx: &GlobalContext<'_>,
    selected: &[Option<ScanAp>],
    result: &mut PaoResult,
    dirty: &[(CompId, usize)],
) -> usize {
    let (tech, engine) = (gctx.tech, DrcEngine::new(gctx.tech));
    let ripped = dirty.iter().map(|&(c, p)| pin_owner(c, p)).collect();
    let mut ctx = packed_reference(gctx, selected, &ripped);
    let candidates: Vec<_> = dirty
        .iter()
        .map(|&(c, p)| repair_candidates(result, gctx.design, c, p))
        .collect();
    let (mut ws, mut repaired) = (DrcScratch::new(), 0);
    for (&(comp, pin_idx), (current, cands)) in dirty.iter().zip(candidates) {
        let owner = pin_owner(comp, pin_idx);
        let placed = cands.into_iter().find_map(|cand| {
            let v = cand.primary_via()?;
            engine
                .via_placement_clean(tech.via(v), cand.pos, owner, &ctx, &mut ws)
                .then_some((cand, v))
        });
        let kept = match placed {
            Some((cand, v)) => {
                let pos = cand.pos;
                result.overrides.insert((comp, pin_idx), cand);
                repaired += 1;
                Some((v, pos))
            }
            None => current.and_then(|cur| Some((cur.primary_via()?, cur.pos))),
        };
        for (l, r) in kept
            .into_iter()
            .flat_map(|(v, pos)| tech.via(v).each_placed_shape(pos))
        {
            ctx.insert(l, r, owner);
        }
    }
    repaired
}

#[cfg(test)]
mod tests {
    use super::*;
    use pao_design::{Component, Net, NetPin, TrackPattern};
    use pao_geom::{Dir, Orient, Point};
    use pao_tech::rules::MinStepRule;
    use pao_tech::{Layer, Macro, Pin, PinDir, Port, ViaDef};

    /// Synthetic selections: vias spread over every via definition and
    /// over positions — some up to 200 DBU left of and below the cell
    /// box, so via hulls overhang it — plus planar-only and unresolved
    /// pins.
    fn synthetic_selection(
        tech: &Tech,
        design: &Design,
        connected: &[(CompId, usize)],
    ) -> Vec<Option<ScanAp>> {
        let nvias = tech.vias().len() as u32;
        connected
            .iter()
            .enumerate()
            .map(|(i, &(c, _))| {
                let loc = design.component(c).location;
                let pos = pao_geom::Point::new(
                    loc.x + 37 * i as i64 % 700 - 200,
                    loc.y + 11 * i as i64 % 500 - 200,
                );
                match i % 5 {
                    4 => None,
                    3 => Some(ScanAp {
                        pos,
                        via: None,
                        planar_ok: true,
                    }),
                    _ => Some(ScanAp {
                        pos,
                        via: (nvias > 0).then(|| pao_tech::ViaId(i as u32 % nvias)),
                        planar_ok: false,
                    }),
                }
            })
            .collect()
    }

    /// Template shapes translated per component, followed by the selected
    /// vias read through the connected-pin table, must equal the
    /// component-by-component reference — layer, rectangle, owner and
    /// order — and so must the component bounds.
    fn assert_templates_match_reference(tech: &Tech, design: &Design, label: &str) {
        let gctx = GlobalContext::new(tech, design);
        let connected = gctx.pins.list();
        let selected = synthetic_selection(tech, design, connected);
        let (reference, bounds) = scan_shapes_reference(tech, design, connected, &selected);
        assert_eq!(gctx.bounds, bounds, "{label}: bounds");
        for (ci, want) in reference.iter().enumerate() {
            let comp = CompId(ci as u32);
            let mut got: Vec<(LayerId, Rect, Owner)> = Vec::new();
            gctx.for_each_shape(comp, |l, r, o| got.push((l, r, o)));
            gctx.for_each_selected_via(comp, &selected, |pin, l, r| {
                got.push((l, r, pin_owner(comp, pin)));
            });
            assert_eq!(&got, want, "{label}: component {ci}");
        }
    }

    /// Stage 1 of the repair scan, read through the row index, must list
    /// for every connected pin with a via exactly the components the
    /// scan's former whole-design query did: every other component whose
    /// reach bounds touch the pin's window, from an R-tree over all reach
    /// bounds. So must it for 2000 random windows over the design, which
    /// also land in the margins between cell boxes and reach bounds that
    /// few pin windows reach. Returns the reach's `hang`.
    fn assert_stage_one_matches_reference(
        tech: &Tech,
        design: &Design,
        selected: &[Option<ScanAp>],
        label: &str,
    ) -> pao_geom::Dbu {
        let gctx = GlobalContext::new(tech, design);
        let rows = RowIndex::build(tech, design);
        let reach = Reach::new(&gctx, &rows, &DrcEngine::new(tech), selected.to_vec());
        let tree: pao_geom::RTree<u32> = pao_geom::RTree::bulk_load(
            reach
                .bounds
                .iter()
                .enumerate()
                .filter_map(|(i, b)| b.map(|r| (r, i as u32)))
                .collect(),
        );
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut check = |comp: CompId, w: Rect| {
            reach.candidates(comp, w, &mut got);
            want.clear();
            tree.visit(w, &mut |_, &c| {
                if c != comp.0 {
                    want.push(CompId(c));
                }
                true
            });
            want.sort_unstable();
            assert_eq!(got, want, "{label}: {comp} in {w}");
        };
        let mut probed = 0;
        for (&(comp, _), ap) in gctx.pins.list().iter().zip(selected) {
            let Some(ScanAp {
                pos, via: Some(v), ..
            }) = *ap
            else {
                continue;
            };
            check(comp, reach.window(v, pos));
            probed += 1;
        }
        assert!(probed > 0, "{label}: no pin with a via");
        let Some(area) = reach.bounds.iter().flatten().copied().reduce(Rect::hull) else {
            return reach.hang;
        };
        let mut rng = pao_ptest::Rng::new(probed as u64);
        for _ in 0..2000 {
            let x = rng.gen_range(area.xlo()..=area.xhi());
            let y = rng.gen_range(area.ylo()..=area.yhi());
            let w = Rect::new(
                x,
                y,
                x + rng.gen_range(0i64..=600),
                y + rng.gen_range(0i64..=600),
            );
            let comp = CompId(rng.gen_range(0..design.components().len()) as u32);
            check(comp, w);
        }
        reach.hang
    }

    /// Every connected pin's verdict in its local context must equal its
    /// verdict in the packed reference. Returns the pins whose selected
    /// via is dirty there, in connected order.
    fn assert_local_matches_packed(
        gctx: &GlobalContext<'_>,
        selected: &[Option<ScanAp>],
        label: &str,
    ) -> Vec<(CompId, usize)> {
        let (tech, design) = (gctx.tech, gctx.design);
        let rows = RowIndex::build(tech, design);
        let engine = DrcEngine::new(tech);
        let packed = packed_reference(gctx, selected, &std::collections::HashSet::new());
        let reach = Reach::new(gctx, &rows, &engine, selected.to_vec());
        let (mut lp, mut ws) = (LocalProbe::default(), DrcScratch::new());
        let mut dirty = Vec::new();
        for (i, (&(comp, pin_idx), ap)) in gctx.pins.list().iter().zip(selected).enumerate() {
            let Some(ScanAp {
                pos, via: Some(v), ..
            }) = *ap
            else {
                continue;
            };
            let owner = pin_owner(comp, pin_idx);
            let want = engine.via_placement_clean(tech.via(v), pos, owner, &packed, &mut ws);
            let got = reach.probe(&engine, comp, pin_idx, v, pos, |_| false, &[], &mut lp);
            assert_eq!(got, want, "{label}: pin {i} ({comp}/{pin_idx} at {pos})");
            if !want {
                dirty.push((comp, pin_idx));
            }
        }
        dirty
    }

    /// The audit and greedy re-placement under `result`'s selection must
    /// agree with the packed reference: every pin's verdict, the failed
    /// count [`count_failed_pins_threaded`] reports, and the overrides
    /// re-placing the first 150 dirty pins leaves. Returns the number of
    /// failed pins.
    fn assert_result_matches_packed(
        tech: &Tech,
        design: &Design,
        result: &PaoResult,
        label: &str,
    ) -> usize {
        let gctx = GlobalContext::new(tech, design);
        let selected: Vec<Option<ScanAp>> = gctx
            .pins
            .list()
            .iter()
            .map(|&(c, p)| scan_ap(result, design, c, p))
            .collect();
        let dirty = assert_local_matches_packed(&gctx, &selected, label);
        let unrouted = selected
            .iter()
            .filter(|ap| ap.is_none_or(|ap| ap.via.is_none() && !ap.planar_ok))
            .count();
        let failed = dirty.len() + unrouted;
        let audited = count_failed_pins_threaded(tech, design, result, 2).0 .1;
        assert_eq!(audited, failed, "{label}: audit");
        let dirty = &dirty[..dirty.len().min(150)];
        let rows = RowIndex::build(tech, design);
        let engine = DrcEngine::new(tech);
        let reach = Reach::new(&gctx, &rows, &engine, selected.clone());
        let (mut got, mut want) = (result.clone(), result.clone());
        let repaired = replace_dirty(&reach, &engine, &mut got, dirty, 0);
        let expected = replace_dirty_reference(&gctx, &selected, &mut want, dirty);
        assert_eq!(repaired, expected, "{label}: repaired");
        assert_eq!(got.overrides, want.overrides, "{label}: overrides");
        failed
    }

    /// One repair round's scan over a clone of `result` must give every
    /// connected pin the verdict the packed reference does: a planar field
    /// read, a full probe, a fast clean or a pairwise probe alike. Returns
    /// the number of dirty pins.
    fn assert_scan_matches_packed(
        tech: &Tech,
        design: &Design,
        result: &PaoResult,
        label: &str,
    ) -> usize {
        let gctx = GlobalContext::new(tech, design);
        let rows = RowIndex::build(tech, design);
        let (_, flags) = repair_failed_pins_budget(
            &gctx,
            &rows,
            &mut result.clone(),
            0,
            &mut PhaseRun::unbudgeted(Phase::Repair, 2),
        );
        let selected: Vec<Option<ScanAp>> = gctx
            .pins
            .list()
            .iter()
            .map(|&(c, p)| scan_ap(result, design, c, p))
            .collect();
        let packed = packed_reference(&gctx, &selected, &std::collections::HashSet::new());
        let (engine, mut lp) = (DrcEngine::new(tech), LocalProbe::default());
        let shared = ProbeCtx::Shared(&packed, &selected);
        let mut dirty = 0;
        for (i, (&pin, flag)) in gctx.pins.list().iter().zip(flags).enumerate() {
            let want = shared.clean(&engine, i, pin, &mut lp);
            assert_eq!(
                flag,
                Some(want),
                "{label}: scan verdict of pin {i} ({pin:?})"
            );
            dirty += usize::from(!want);
        }
        dirty
    }

    /// The stage-1 and packed-context references on every suite case and
    /// smoke, under the selections of a BCA and a `--no-bca` analysis (the
    /// latter with repair overrides) and of a random access point per pin;
    /// and the repair scan's verdicts under each analysis's selection, with
    /// and without its overrides (the latter is round 0's, with the dirty
    /// pins the repair rounds went on to move).
    #[test]
    fn stage_one_matches_reference_on_suite_cases() {
        let mut cases = pao_testgen::ispd18s_suite();
        cases.push(pao_testgen::aes14_case());
        cases.push(pao_testgen::SuiteCase::small_smoke());
        for case in cases {
            let (t, d) = pao_testgen::generate(&case);
            for bca in [true, false] {
                let mut cfg = PaoConfig {
                    threads: 2,
                    ..PaoConfig::default()
                };
                if !bca {
                    cfg.pattern.bca = false;
                    cfg.pattern.max_patterns = 1;
                }
                let result = PinAccessOracle::with_config(cfg).analyze(&t, &d);
                let selected: Vec<Option<ScanAp>> = connected_pins(&t, &d)
                    .into_iter()
                    .map(|(c, p)| scan_ap(&result, &d, c, p))
                    .collect();
                let label = format!("{} bca={bca}", case.name);
                assert!(assert_stage_one_matches_reference(&t, &d, &selected, &label) > 0);
                let failed = assert_result_matches_packed(&t, &d, &result, &label);
                assert_eq!(failed, result.stats.failed_pins, "{label}: tail audit");
                let dirty = assert_scan_matches_packed(&t, &d, &result, &label);
                assert_eq!(dirty, failed, "{label}: scan");
                if !result.overrides.is_empty() {
                    let round0 = PaoResult {
                        overrides: std::collections::HashMap::new(),
                        ..result.clone()
                    };
                    let label = format!("{label} round 0");
                    assert!(
                        assert_scan_matches_packed(&t, &d, &round0, &label) > 0,
                        "{label}"
                    );
                }
                // A seeded random access point per pin, like the
                // baseline's accessor: many dirty pins.
                let mut rng = pao_ptest::Rng::new(selected.len() as u64);
                let mut random = result.clone();
                for (c, p) in connected_pins(&t, &d) {
                    let aps = result.all_access_points(&d, c, p);
                    if !aps.is_empty() {
                        let ap = aps[rng.gen_range(0..aps.len())].clone();
                        random.overrides.insert((c, p), ap);
                    }
                }
                let label = format!("{label} random");
                assert!(
                    assert_result_matches_packed(&t, &d, &random, &label) > 0,
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn templates_match_reference_on_suite_cases() {
        let mut cases = pao_testgen::ispd18s_suite();
        cases.push(pao_testgen::aes14_case());
        cases.push(pao_testgen::SuiteCase::small_smoke());
        for case in cases {
            let (t, d) = pao_testgen::generate(&case);
            assert_templates_match_reference(&t, &d, &case.name);
        }
    }

    #[test]
    fn templates_match_reference_on_unit_cases() {
        let (mut t, mut d) = world();
        let (m1, m2) = (LayerId(0), LayerId(2));
        // A double-height master with an L-shaped polygon port, a second
        // port on another layer and obstructions on both metals.
        let mut mh = Macro::new("DFF2MH", 1200, 2800);
        let mut d_port = Port::rects(m1, vec![Rect::new(100, 200, 250, 900)]);
        d_port.polygons.push(
            pao_geom::Polygon::new(vec![
                Point::new(300, 1500),
                Point::new(700, 1500),
                Point::new(700, 1700),
                Point::new(450, 1700),
                Point::new(450, 2400),
                Point::new(300, 2400),
            ])
            .unwrap(),
        );
        mh.pins.push(Pin::new("D", PinDir::Input, vec![d_port]));
        mh.pins.push(Pin::new(
            "Q",
            PinDir::Output,
            vec![
                Port::rects(m1, vec![Rect::new(900, 300, 1050, 2500)]),
                Port::rects(m2, vec![Rect::new(850, 1200, 1100, 1300)]),
            ],
        ));
        mh.obs.push((m1, Rect::new(500, 0, 600, 400)));
        mh.obs.push((m2, Rect::new(0, 2600, 1200, 2800)));
        t.add_macro(mh);
        let mut comps = Vec::new();
        for (i, orient) in [
            Orient::S,
            Orient::FS,
            Orient::FN,
            Orient::FS,
            Orient::E,
            Orient::W,
        ]
        .into_iter()
        .enumerate()
        {
            comps.push(d.add_component(Component::new(
                format!("b{i}"),
                "BUFX1",
                Point::new(2600 + 1400 * i as i64, 1400 * (i as i64 % 3)),
                orient,
            )));
        }
        for (i, orient) in [Orient::N, Orient::FS, Orient::N].into_iter().enumerate() {
            comps.push(d.add_component(Component::new(
                format!("mh{i}"),
                "DFF2MH",
                Point::new(200 + 1400 * i as i64, 5600),
                orient,
            )));
        }
        // A 21-row macro with a pin and an obstruction, on the rows below.
        let mut ram = Macro::new("RAM21", 4000, 1400 * 21);
        ram.pins.push(Pin::new(
            "D",
            PinDir::Input,
            vec![Port::rects(m1, vec![Rect::new(0, 700, 300, 900)])],
        ));
        ram.obs.push((m2, Rect::new(500, 500, 3500, 29_000)));
        t.add_macro(ram);
        for r in 0..22 {
            d.rows.push(pao_design::Row::new(
                format!("r{r}"),
                "core",
                Point::new(0, 1400 * r),
                Orient::N,
                100,
                200,
                1400,
            ));
        }
        let tall = d.add_component(Component::new(
            "ram",
            "RAM21",
            Point::new(12_000, 0),
            Orient::N,
        ));
        // Off row: between two rows' boundaries.
        let off = d.add_component(Component::new(
            "off",
            "BUFX1",
            Point::new(10_000, 700),
            Orient::FS,
        ));
        let mut unplaced = Component::new("un", "BUFX1", Point::new(9000, 0), Orient::N);
        unplaced.is_placed = false;
        let un = d.add_component(unplaced);
        let nope = d.add_component(Component::new(
            "x",
            "NOPE",
            Point::new(9000, 4200),
            Orient::N,
        ));
        // Nets over every kind of component; u0/A sits on two nets.
        let mut n = Net::new("n_mix");
        for (c, pin) in [
            (comps[0], "A"),
            (comps[1], "Y"),
            (comps[6], "D"),
            (comps[7], "Q"),
            (comps[8], "D"),
            (un, "A"),
            (nope, "Z"),
            (CompId(0), "A"),
        ] {
            n.pins.push(NetPin::Comp {
                comp: c,
                pin: pin.into(),
            });
        }
        d.add_net(n);
        let mut n = Net::new("n_rest");
        for (c, pin) in [
            (comps[2], "A"),
            (comps[3], "Y"),
            (comps[4], "A"),
            (comps[5], "Y"),
            (tall, "D"),
            (off, "A"),
            (off, "Y"),
        ] {
            n.pins.push(NetPin::Comp {
                comp: c,
                pin: pin.into(),
            });
        }
        d.add_net(n);
        assert_templates_match_reference(&t, &d, "unit");
        let gctx = GlobalContext::new(&t, &d);
        assert_eq!(gctx.bounds[un.index()], None);
        assert_eq!(gctx.bounds[nope.index()], None);
        // BUFX1 N/S/FS/FN/E/W, DFF2MH N/FS and RAM21 N: nine templates.
        assert_eq!(gctx.templates.len(), 9);
        // The row index keeps the macro and the off-row cells (`off`, and
        // b4 and b5, rotated to 1200 DBU tall) in its side list.
        let rows = RowIndex::build(&t, &d);
        let side: Vec<CompId> = rows.side().iter().map(|&(_, _, c)| c).collect();
        for c in [tall, off, comps[4], comps[5]] {
            assert!(side.contains(&c), "{c} not on the side list");
        }
        let selected = synthetic_selection(&t, &d, gctx.pins.list());
        let hang = assert_stage_one_matches_reference(&t, &d, &selected, "unit");
        assert!(hang >= 200, "via hulls overhang their boxes: hang {hang}");
        assert_local_matches_packed(&gctx, &selected, "unit");
    }

    /// A via with two bottom shapes: the merged-geometry check reads the
    /// same-owner metal around their hull, beyond each shape's own
    /// window. Here a pin rect between the two shapes (more than a halo
    /// from both) extends the one touching the left shape into a notch,
    /// which makes the via dirty.
    #[test]
    fn local_context_covers_a_split_bottom_enclosure() {
        let (mut t, mut d) = world();
        let (m1, v1, m2) = (LayerId(0), LayerId(1), LayerId(2));
        let bar = t.add_via(ViaDef::new(
            "bar",
            m1,
            vec![Rect::new(-400, -35, -270, 35), Rect::new(270, -35, 400, 35)],
            v1,
            vec![Rect::new(-35, -35, 35, 35)],
            m2,
            vec![Rect::new(-35, -65, 35, 65)],
        ));
        let mut cell = Macro::new("NOTCH", 1200, 1400);
        cell.pins.push(Pin::new(
            "A",
            PinDir::Input,
            vec![Port::rects(
                m1,
                vec![Rect::new(300, 665, 450, 735), Rect::new(450, 665, 600, 700)],
            )],
        ));
        t.add_macro(cell);
        let c = d.add_component(Component::new(
            "notch",
            "NOTCH",
            Point::new(5000, 5000),
            Orient::N,
        ));
        let mut n = Net::new("n_notch");
        n.pins.push(NetPin::Comp {
            comp: c,
            pin: "A".into(),
        });
        d.add_net(n);
        let gctx = GlobalContext::new(&t, &d);
        let selected: Vec<Option<ScanAp>> = gctx
            .pins
            .list()
            .iter()
            .map(|&(comp, _)| {
                (comp == c).then_some(ScanAp {
                    pos: Point::new(5600, 5700),
                    via: Some(bar),
                    planar_ok: false,
                })
            })
            .collect();
        let dirty = assert_local_matches_packed(&gctx, &selected, "split bottom");
        assert_eq!(dirty, vec![(c, 0)]);
    }

    /// A small but complete world: 3-layer tech, one 2-pin cell, a design
    /// with two abutting instances and nets.
    fn world() -> (Tech, Design) {
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
        // 1200×1400 cell with pins A (left) and Y (right), both tall bars
        // crossing tracks at y = 100…1300.
        let mut cell = Macro::new("BUFX1", 1200, 1400);
        cell.pins.push(Pin::new(
            "A",
            PinDir::Input,
            vec![Port::rects(m1, vec![Rect::new(150, 100, 300, 900)])],
        ));
        cell.pins.push(Pin::new(
            "Y",
            PinDir::Output,
            vec![Port::rects(m1, vec![Rect::new(800, 100, 950, 900)])],
        ));
        t.add_macro(cell);

        let mut d = Design::new("mini", Rect::new(0, 0, 20_000, 20_000));
        d.tracks
            .push(TrackPattern::new(Dir::Horizontal, 100, 200, 90, vec![m1]));
        d.tracks
            .push(TrackPattern::new(Dir::Vertical, 100, 200, 90, vec![m2]));
        let u0 = d.add_component(Component::new("u0", "BUFX1", Point::new(200, 0), Orient::N));
        let u1 = d.add_component(Component::new(
            "u1",
            "BUFX1",
            Point::new(1400, 0),
            Orient::N,
        ));
        let mut n0 = Net::new("n0");
        n0.pins.push(NetPin::Comp {
            comp: u0,
            pin: "Y".into(),
        });
        n0.pins.push(NetPin::Comp {
            comp: u1,
            pin: "A".into(),
        });
        d.add_net(n0);
        let mut n1 = Net::new("n1");
        n1.pins.push(NetPin::Comp {
            comp: u0,
            pin: "A".into(),
        });
        d.add_net(n1);
        let mut n2 = Net::new("n2");
        n2.pins.push(NetPin::Comp {
            comp: u1,
            pin: "Y".into(),
        });
        d.add_net(n2);
        (t, d)
    }

    #[test]
    fn full_analysis_is_clean_on_easy_design() {
        let (t, d) = world();
        let result = PinAccessOracle::new().analyze(&t, &d);
        // Both instances share a signature (x offset = 1200 = 6 pitches).
        assert_eq!(result.stats.unique_instances, 1);
        assert!(result.stats.total_aps >= 6, "{}", result.stats);
        assert_eq!(result.stats.dirty_aps, 0);
        assert_eq!(result.stats.pins_without_aps, 0);
        assert_eq!(result.stats.total_pins, 4);
        assert_eq!(result.stats.failed_pins, 0, "{}", result.stats);
        // Every connected pin resolves to an access point on its pin shape.
        for (ci, comp) in d.components().iter().enumerate() {
            let master = comp.master_in(&t).unwrap();
            for (pi, _) in master.pins.iter().enumerate() {
                let ap = result.access_point(&d, CompId(ci as u32), pi).unwrap();
                let shapes = d.placed_pin_shapes(&t, CompId(ci as u32));
                assert!(
                    shapes
                        .iter()
                        .any(|&(p, _, r)| p == pi && r.contains(ap.pos)),
                    "AP {} not on pin {pi} of {}",
                    ap.pos,
                    comp.name
                );
            }
        }
    }

    #[test]
    fn members_share_unique_analysis() {
        let (t, d) = world();
        let result = PinAccessOracle::new().analyze(&t, &d);
        let a0 = result.access_point(&d, CompId(0), 0).unwrap();
        let a1 = result.access_point(&d, CompId(1), 0).unwrap();
        // Same relative position, translated by the placement delta…
        assert_eq!(a1.pos - a0.pos, Point::new(1200, 0));
        // …and identical type/via data.
        assert_eq!(a0.pref_type, a1.pref_type);
        assert_eq!(a0.vias, a1.vias);
    }

    #[test]
    fn all_access_points_translated() {
        let (t, d) = world();
        let result = PinAccessOracle::new().analyze(&t, &d);
        let aps0 = result.all_access_points(&d, CompId(0), 0);
        let aps1 = result.all_access_points(&d, CompId(1), 0);
        assert_eq!(aps0.len(), aps1.len());
        assert!(!aps0.is_empty());
        for (a, b) in aps0.iter().zip(&aps1) {
            assert_eq!(b.pos - a.pos, Point::new(1200, 0));
        }
    }

    #[test]
    fn unknown_pin_returns_none() {
        let (t, d) = world();
        let result = PinAccessOracle::new().analyze(&t, &d);
        assert!(result.access_point(&d, CompId(0), 99).is_none());
    }
}
