//! Resident oracle service: the query surface behind `pao serve`.
//!
//! The paper's oracle exists to be *queried* — the detailed router asks
//! for pin access on demand — so a production deployment keeps one warm
//! [`OracleService`] resident instead of re-running the pipeline per
//! invocation. The service owns immutable shared state (`Arc<Tech>`,
//! `Arc<Design>`, `Arc<PaoResult>`): queries are pure reads over those
//! snapshots and therefore safe to fan out across any number of threads
//! with byte-identical answers, while [`eco_update`](OracleService::eco_update)
//! replaces the design/result snapshots copy-on-write — in-flight readers
//! keep the `Arc` they already cloned, new queries see the new placement.
//!
//! Re-analysis after a move ends in one of two tails. Intra-cell work
//! (steps 1–2) is keyed by signature in the service's resident
//! [`AnalysisCache`] store, so a move whose placement keeps every
//! signature stored skips it. A signature depends only on the component's
//! own placement, so the moved placement's unique-instance table comes
//! from the previous snapshot's with only the moved components re-classed
//! (`UniqueTable::classify`).
//!
//! * The **window tail** runs when, in addition, the previous snapshot
//!   is repair-free: no repair override, no failed pin, nothing
//!   quarantined or skipped. Selection is local to a selection group,
//!   so only the groups holding a cluster the move changed are re-solved
//!   (clusters re-form only in the row stripes the move touched). A scan
//!   verdict depends only on the shapes inside the pin's probe windows,
//!   so only the connected pins whose windows can reach a moved
//!   component, or one whose pattern changed, are re-probed with the
//!   audit's exact check. Every other component keeps its selection and
//!   its clean verdict. Two resident structures make this cheap: a row
//!   index of x-sorted cells per stripe, updated on each move, and a
//!   table of each component's connected pins, which moves never change.
//! * The **full tail** — the select → repair → audit function every
//!   cold and cached analysis ends in — runs when that precondition
//!   fails or a re-probed pin is dirty (only the full tail repairs). A
//!   move onto a new signature runs the whole pipeline with the store
//!   attached first, so only the new signatures run apgen and patterns.
//!
//! Both give the answer a cold analysis of the moved placement gives: a
//! dirty set that is too large costs time, never exactness.
//!
//! Per-request deadlines reuse [`RunBudget`]/[`BudgetAllocator`](crate::budget::BudgetAllocator),
//! with phase fractions drawn from an immutable [`SharedFractions`]
//! snapshot (one request's history roll-forward never mutates a
//! concurrent request's split).

use crate::budget::{PhaseFractions, RunBudget, RunCtx, SharedFractions, Watchdog};
use crate::cluster::{comp_bbox, RowIndex, StripeCells};
use crate::incremental::{ConnectedPins, EcoWindow};
use crate::oracle::{PaoConfig, PaoResult, PinAccessOracle};
use crate::persist::{signature_of, AnalysisCache, EcoJournal, JournalEntry};
use pao_design::{CompId, Design};
use pao_geom::Point;
use pao_tech::Tech;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A typed failure answering one query. These are *request* errors — the
/// service itself stays healthy and keeps serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// No component with this instance name exists in the design.
    UnknownInstance(String),
    /// The instance exists but its master is not in the LEF.
    UnknownMaster(String),
    /// The master has no pin with this name.
    UnknownPin {
        /// The master searched.
        master: String,
        /// The pin name that failed to resolve.
        pin: String,
    },
    /// The instance was not analyzed (unplaced or unknown master).
    NotAnalyzed(String),
    /// An `eco_update` re-analysis degraded — it blew its deadline,
    /// tripped the watchdog, or quarantined faulted work — so the update
    /// was **not** applied: the previous snapshot keeps serving and the
    /// store's hit/miss counts were rolled back. The journaled entry is
    /// revoked.
    EcoDegraded {
        /// Work items quarantined by faults during the re-analysis.
        quarantined: usize,
        /// Work items skipped by the expired deadline budget.
        skipped: usize,
        /// Watchdog stalls that fired.
        stalls: usize,
    },
    /// The ECO journal could not durably record the update, so the
    /// update was rejected before any analysis ran (no durability, no
    /// apply).
    Journal(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownInstance(inst) => write!(f, "unknown instance `{inst}`"),
            ServiceError::UnknownMaster(inst) => {
                write!(f, "instance `{inst}` has an unknown master")
            }
            ServiceError::UnknownPin { master, pin } => {
                write!(f, "master `{master}` has no pin `{pin}`")
            }
            ServiceError::NotAnalyzed(inst) => {
                write!(f, "instance `{inst}` was not analyzed")
            }
            ServiceError::EcoDegraded {
                quarantined,
                skipped,
                stalls,
            } => {
                write!(
                    f,
                    "eco re-analysis degraded (quarantined {quarantined}, skipped {skipped}, \
                     stalls {stalls}); previous snapshot kept"
                )
            }
            ServiceError::Journal(msg) => write!(f, "eco journal: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// One reject-rule tally for a pin: how many AP candidates a DRC rule
/// (with sub-check) eliminated during generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectCount {
    /// Presentation label, e.g. `Spacing (prl)` or `no via candidate`.
    pub rule: String,
    /// Candidates rejected with this attribution.
    pub count: u64,
}

/// Answer to `get_pin_access`: the selected AP, every surviving
/// candidate, and (when the service collected the decision ledger at
/// load) the reject-rule histogram from candidate generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinAccessReply {
    /// Instance name as queried.
    pub inst: String,
    /// Pin name as queried.
    pub pin: String,
    /// The selected access point in the instance's die frame (`None`
    /// when the pin failed analysis).
    pub selected: Option<crate::apgen::AccessPoint>,
    /// `true` when `selected` comes from a post-selection repair
    /// override rather than the chosen pattern.
    pub from_override: bool,
    /// All surviving access points (die frame), selected one included.
    pub candidates: Vec<crate::apgen::AccessPoint>,
    /// Reject-rule tallies from apgen, as the store keeps them for the
    /// pin's signature (empty without ledger collection).
    pub rejects: Vec<RejectCount>,
}

/// Answer to `get_instance_patterns`: the unique instance's generated
/// access patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstancePatternsReply {
    /// Instance name as queried.
    pub inst: String,
    /// The instance's cell master.
    pub master: String,
    /// Index of the unique instance answering for this component.
    pub unique_index: usize,
    /// How many placed components share this unique instance.
    pub members: usize,
    /// The analyzed pin ordering (indices into the master pin list).
    pub pin_order: Vec<usize>,
    /// Generated patterns over `pin_order` (cost-ascending, as analyzed).
    pub patterns: Vec<crate::pattern::AccessPattern>,
}

/// Answer to `get_cluster_selection`: which pattern cluster selection
/// chose for this component, plus any per-pin repair overrides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSelectionReply {
    /// Instance name as queried.
    pub inst: String,
    /// Selected pattern index (`None` when no pattern exists).
    pub pattern: Option<usize>,
    /// Post-selection repair overrides for this component's pins, in pin
    /// order: `(pin index, die-frame access point)`.
    pub overrides: Vec<(usize, crate::apgen::AccessPoint)>,
}

/// One component move in an [`eco_update`](OracleService::eco_update).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcoMove {
    /// Instance to move.
    pub inst: String,
    /// Where it goes.
    pub target: EcoTarget,
}

/// Where an [`EcoMove`] places its instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcoTarget {
    /// Absolute die-frame location.
    Abs(Point),
    /// Offset from the current location.
    Delta(Point),
}

/// Which tail an [`eco_update`](OracleService::eco_update) ended in (see
/// the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcoTail {
    /// Only the selection groups and pins the move can reach were
    /// re-solved and re-probed.
    Window,
    /// The whole select → repair → audit tail ran.
    Full,
}

impl EcoTail {
    /// The wire name: `"window"` or `"full"`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EcoTail::Window => "window",
            EcoTail::Full => "full",
        }
    }
}

/// What an [`eco_update`](OracleService::eco_update) did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcoReply {
    /// Components moved.
    pub moved: usize,
    /// Unique instances whose steps 1–2 came whole from the store.
    pub cache_hits: usize,
    /// Unique instances that ran apgen or pattern work; with
    /// `cache_hits`, every unique instance of the moved placement.
    pub cache_misses: usize,
    /// `true` when a new signature forced the five-phase pipeline (apgen
    /// and pattern generation for the new signatures only); `false`
    /// means steps 1–2 came from the store and only a tail ran — see
    /// [`tail`](EcoReply::tail) for which one.
    pub full_reanalysis: bool,
    /// The tail the re-analysis ended in.
    pub tail: EcoTail,
    /// Selection groups re-solved (every group on the full tail).
    pub groups_resolved: usize,
    /// Connected pins re-probed (every connected pin on the full tail).
    pub pins_reprobed: usize,
    /// Failed pins after the update.
    pub failed_pins: usize,
    /// Monotone update sequence number (1 for the first ECO).
    pub eco_seq: u64,
}

/// A resident, query-answering pin access oracle (see the module docs).
#[derive(Debug)]
pub struct OracleService {
    tech: Arc<Tech>,
    design: Arc<Design>,
    result: Arc<PaoResult>,
    cache: AnalysisCache,
    config: PaoConfig,
    fractions: SharedFractions,
    collect_rejects: bool,
    eco_updates: u64,
    journal: Option<EcoJournal>,
    degraded_ecos: u64,
    /// Placed cells per row stripe, kept at the current placement (when
    /// the stripes come from `ROW` statements; see `relocate`).
    rows: RowIndex,
    /// Each component's connected pins (fixed under moves).
    pins: ConnectedPins,
    /// ECOs applied by the window tail and by the full tail.
    tails: [u64; 2],
}

/// Deterministic text dump of a result's cluster-selection outcome: one
/// line per component (selected pattern index), repair overrides in
/// component order, and the failed-pin count. Byte-identical across
/// thread counts by the selection identity contract — `pao analyze
/// --dump-selection` writes this same text, and the `scripts/verify.sh`
/// serve gate diffs a daemon's copy against it.
#[must_use]
pub fn selection_dump(design: &Design, result: &PaoResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (ci, comp) in design.components().iter().enumerate() {
        match result.selection.get(ci).copied().flatten() {
            Some(p) => {
                let _ = writeln!(out, "comp {ci} {} pattern {p}", comp.name);
            }
            None => {
                let _ = writeln!(out, "comp {ci} {} pattern -", comp.name);
            }
        }
    }
    let mut overrides: Vec<_> = result.overrides.iter().collect();
    overrides.sort_by_key(|(k, _)| (k.0.index(), k.1));
    for (k, ap) in overrides {
        let _ = writeln!(
            out,
            "override {} {} layer {} at {},{}",
            k.0.index(),
            k.1,
            ap.layer.index(),
            ap.pos.x,
            ap.pos.y
        );
    }
    let _ = writeln!(out, "failed {}", result.stats.failed_pins);
    out
}

impl OracleService {
    /// Loads the service: analyzes `design` once under `budget` and
    /// keeps the result resident for queries. A store in the budget (a
    /// checkpoint directory) warm-starts the load and takes its results;
    /// the service then keeps an in-memory copy, so no later ECO writes
    /// to the directory. With `collect_rejects` the analysis runs with
    /// the decision ledger enabled, so the store keeps each signature's
    /// reject histograms for `get_pin_access` — and a stored entry
    /// without them is recomputed. The ledger switch is process-global,
    /// so leave it off when other analyses share the process.
    #[must_use]
    pub fn start(
        tech: Tech,
        design: Design,
        config: PaoConfig,
        mut budget: RunBudget<'_>,
        collect_rejects: bool,
    ) -> OracleService {
        if collect_rejects {
            pao_obs::enable_ledger();
        }
        let oracle = PinAccessOracle::with_config(config.clone());
        let mut own = AnalysisCache::new();
        let checkpoint = budget.store.is_some();
        let store = budget.store.take().unwrap_or(&mut own);
        let budget = RunBudget {
            store: Some(&mut *store),
            ..budget
        };
        let result = oracle.analyze_with_budget(&tech, &design, budget);
        let cache = if checkpoint {
            store.detached()
        } else {
            std::mem::take(store)
        };
        if collect_rejects {
            pao_obs::disable_ledger();
            // The store kept the histograms; drop the drained records.
            let _ = pao_obs::take_ledger();
        }
        let fractions = SharedFractions::new(PhaseFractions::from_stats(&result.stats));
        let rows = RowIndex::build(&tech, &design);
        let pins = ConnectedPins::build(&tech, &design);
        OracleService {
            tech: Arc::new(tech),
            design: Arc::new(design),
            result: Arc::new(result),
            cache,
            config,
            fractions,
            collect_rejects,
            eco_updates: 0,
            journal: None,
            degraded_ecos: 0,
            rows,
            pins,
            tails: [0; 2],
        }
    }

    /// Attaches a write-ahead [`EcoJournal`]: every subsequently accepted
    /// `eco_update` batch is durably recorded *before* its re-analysis
    /// runs, so a killed process can [`replay`](OracleService::replay)
    /// on restart and land bit-identical to a never-killed twin.
    pub fn attach_journal(&mut self, journal: EcoJournal) {
        self.journal = Some(journal);
    }

    /// The attached journal, if any.
    #[must_use]
    pub fn journal(&self) -> Option<&EcoJournal> {
        self.journal.as_ref()
    }

    /// Re-applies recovered journal entries in order through the normal
    /// ECO path — without deadline, watchdog or re-journaling, because
    /// every entry was already accepted and durably recorded by a prior
    /// incarnation. Deterministic analysis makes the resulting snapshot
    /// bit-identical to one that applied the same batches live. Returns
    /// the number of entries replayed.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when an entry no longer validates (e.g. the
    /// journal belongs to a different design); replay stops there.
    pub fn replay(&mut self, entries: &[JournalEntry]) -> Result<u64, ServiceError> {
        let journal = self.journal.take();
        let mut applied = 0;
        let mut first_err = None;
        for e in entries {
            match self.eco_update(&e.moves, None, None) {
                Ok(_) => applied += 1,
                Err(err) => {
                    first_err = Some(err);
                    break;
                }
            }
        }
        self.journal = journal;
        match first_err {
            Some(err) => Err(err),
            None => Ok(applied),
        }
    }

    /// ECO updates that degraded (rejected, snapshot kept) since load.
    #[must_use]
    pub fn degraded_ecos(&self) -> u64 {
        self.degraded_ecos
    }

    /// The loaded technology.
    #[must_use]
    pub fn tech(&self) -> &Arc<Tech> {
        &self.tech
    }

    /// The current design snapshot (replaced copy-on-write by ECOs).
    #[must_use]
    pub fn design(&self) -> &Arc<Design> {
        &self.design
    }

    /// The current analysis snapshot.
    #[must_use]
    pub fn result(&self) -> &Arc<PaoResult> {
        &self.result
    }

    /// The shared phase-fraction history feeding per-request budgets.
    #[must_use]
    pub fn fractions(&self) -> &SharedFractions {
        &self.fractions
    }

    /// ECO updates applied since load.
    #[must_use]
    pub fn eco_updates(&self) -> u64 {
        self.eco_updates
    }

    /// Applied ECO updates that ended in `tail`.
    #[must_use]
    pub fn eco_tail_count(&self, tail: EcoTail) -> u64 {
        self.tails[tail as usize]
    }

    /// `(hits, misses)` of the resident store.
    #[must_use]
    pub fn cache_stats(&self) -> (usize, usize) {
        self.cache.stats()
    }

    /// Resolves an instance name to its component id.
    fn resolve(&self, inst: &str) -> Result<CompId, ServiceError> {
        self.design
            .component_by_name(inst)
            .ok_or_else(|| ServiceError::UnknownInstance(inst.to_owned()))
    }

    /// The unique-instance index answering for `comp`.
    fn unique_index(&self, comp: CompId, inst: &str) -> Result<usize, ServiceError> {
        self.result
            .comp_uniq
            .get(comp.index())
            .copied()
            .flatten()
            .map(|ui| ui.index())
            .ok_or_else(|| ServiceError::NotAnalyzed(inst.to_owned()))
    }

    /// Answers `get_pin_access` for `inst`/`pin`.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when the instance, master or pin cannot be
    /// resolved, or the instance was not analyzed.
    pub fn pin_access(&self, inst: &str, pin: &str) -> Result<PinAccessReply, ServiceError> {
        let comp = self.resolve(inst)?;
        let master = self
            .design
            .component(comp)
            .master_in(&self.tech)
            .ok_or_else(|| ServiceError::UnknownMaster(inst.to_owned()))?;
        let pin_idx = master
            .pins
            .iter()
            .position(|p| p.name == pin)
            .ok_or_else(|| ServiceError::UnknownPin {
                master: master.name.to_string(),
                pin: pin.to_owned(),
            })?;
        let ui = self.unique_index(comp, inst)?;
        let selected = self.result.access_point(&self.design, comp, pin_idx);
        let from_override = self.result.overrides.contains_key(&(comp, pin_idx));
        let candidates = self.result.all_access_points(&self.design, comp, pin_idx);
        let rejects = if self.collect_rejects {
            self.cache
                .pin_rejects(&signature_of(&self.result.unique[ui].info), pin_idx)
                .iter()
                .map(|&(rule, sub, count)| RejectCount {
                    rule: pao_drc::reject_label(rule, sub),
                    count,
                })
                .collect()
        } else {
            Vec::new()
        };
        Ok(PinAccessReply {
            inst: inst.to_owned(),
            pin: pin.to_owned(),
            selected,
            from_override,
            candidates,
            rejects,
        })
    }

    /// Answers `get_instance_patterns` for `inst`.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when the instance cannot be resolved or was not
    /// analyzed.
    pub fn instance_patterns(&self, inst: &str) -> Result<InstancePatternsReply, ServiceError> {
        let comp = self.resolve(inst)?;
        let ui = self.unique_index(comp, inst)?;
        let u = &self.result.unique[ui];
        Ok(InstancePatternsReply {
            inst: inst.to_owned(),
            master: u.info.master.to_string(),
            unique_index: ui,
            members: u.info.members.len(),
            pin_order: u.pin_order.clone(),
            patterns: u.patterns.clone(),
        })
    }

    /// Answers `get_cluster_selection` for `inst`.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when the instance cannot be resolved.
    pub fn cluster_selection(&self, inst: &str) -> Result<ClusterSelectionReply, ServiceError> {
        let comp = self.resolve(inst)?;
        let pattern = self.result.selection.get(comp.index()).copied().flatten();
        let mut overrides: Vec<(usize, crate::apgen::AccessPoint)> = self
            .result
            .overrides
            .iter()
            .filter(|((c, _), _)| *c == comp)
            .map(|((_, pin), ap)| (*pin, ap.clone()))
            .collect();
        overrides.sort_by_key(|(pin, _)| *pin);
        Ok(ClusterSelectionReply {
            inst: inst.to_owned(),
            pattern,
            overrides,
        })
    }

    /// The deterministic selection dump of the current snapshot (same
    /// bytes as `pao analyze --dump-selection` on the same placement).
    #[must_use]
    pub fn selection_dump(&self) -> String {
        selection_dump(&self.design, &self.result)
    }

    /// Applies component moves copy-on-write and re-analyzes the moved
    /// placement, then swaps both snapshots atomically. Queries running
    /// concurrently on the old `Arc`s finish against the placement they
    /// started with.
    ///
    /// The re-analysis ends in the window tail or the full tail (see the
    /// module docs); both equal a cold analysis of the moved placement.
    /// It runs under `deadline` (if any) with a [`PhaseFractions`]
    /// snapshot taken from the shared history at call time; a full
    /// re-analysis publishes its measured fractions back.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownInstance`] when any move names a missing
    /// instance — the update is rejected whole, nothing moves.
    /// [`ServiceError::Journal`] when the attached journal cannot
    /// durably record the batch (again rejected whole, before analysis).
    /// [`ServiceError::EcoDegraded`] when the re-analysis blows its
    /// deadline, trips the watchdog, or quarantines faulted work — the
    /// previous snapshot keeps serving, the store's hit/miss counts are
    /// rolled back (it only ever takes completed items, so what a
    /// degraded run stored stays valid), and the journaled record is
    /// revoked.
    pub fn eco_update(
        &mut self,
        moves: &[EcoMove],
        deadline: Option<Duration>,
        watchdog: Option<Watchdog>,
    ) -> Result<EcoReply, ServiceError> {
        // Validate every move before touching anything.
        let mut resolved = Vec::with_capacity(moves.len());
        for m in moves {
            resolved.push(self.resolve(&m.inst)?);
        }
        // Durably record the accepted batch before analysis: a kill at
        // any later instant leaves it replayable on restart.
        let journal_seq = match self.journal.as_mut() {
            Some(j) => Some(
                j.append(moves)
                    .map_err(|e| ServiceError::Journal(e.to_string()))?,
            ),
            None => None,
        };
        let mut design = (*self.design).clone();
        for (m, comp) in moves.iter().zip(&resolved) {
            let loc = &mut design.component_mut(*comp).location;
            match m.target {
                EcoTarget::Abs(p) => *loc = p,
                EcoTarget::Delta(d) => *loc += d,
            }
        }
        resolved.sort_unstable();
        resolved.dedup();
        let moved = resolved;
        let old_cells = self.relocate(&design, &moved, false);
        let fractions = self.fractions.snapshot();
        let cache_stats = self.cache.stats();
        if self.collect_rejects {
            pao_obs::enable_ledger();
        }
        // Only the moved components can change class: fold them into the
        // previous snapshot's unique-instance table.
        let mut table = self.result.unique_table();
        table.classify(&self.tech, &design, moved.iter().copied());
        let oracle = PinAccessOracle::with_config(self.config.clone());
        let (result, tail, pins_reprobed) = match self.cache.warm(&design, table) {
            Some(input) => {
                let mut run = RunCtx::new(deadline, fractions, watchdog, self.config.threads);
                let windowed = if self.window_ready(&design, &moved) {
                    let w = EcoWindow {
                        old_design: &self.design,
                        old: &self.result,
                        rows: &self.rows,
                        old_cells: &old_cells,
                        moved: &moved,
                        pins: &self.pins,
                    };
                    oracle.window_tail(&self.tech, &design, input, &w, &mut run)
                } else {
                    Err(Box::new(input))
                };
                match windowed {
                    Ok((result, pins)) => (result, EcoTail::Window, pins),
                    Err(input) => {
                        let result =
                            oracle.select_repair_audit(&self.tech, &design, *input, &mut run);
                        let pins = result.stats.total_pins;
                        (result, EcoTail::Full, pins)
                    }
                }
            }
            None => {
                // A move onto a new signature: the pipeline with the
                // resident store attached analyzes only the new ones.
                let budget = RunBudget {
                    deadline,
                    fractions,
                    watchdog,
                    store: Some(&mut self.cache),
                };
                let result = oracle.analyze_with_budget(&self.tech, &design, budget);
                let pins = result.stats.total_pins;
                (result, EcoTail::Full, pins)
            }
        };
        let (h1, m1) = self.cache.stats();
        let full_reanalysis = m1 > cache_stats.1;
        if self.collect_rejects {
            pao_obs::disable_ledger();
            let _ = pao_obs::take_ledger();
        }
        let degraded = result.stats.deadline.is_partial() || !result.stats.quarantined.is_empty();
        if degraded {
            // Graceful degradation: the old snapshot keeps serving.
            self.cache.restore_stats(cache_stats);
            self.relocate(&design, &moved, true);
            self.degraded_ecos += 1;
            if let (Some(j), Some(seq)) = (self.journal.as_mut(), journal_seq) {
                j.revoke(seq)
                    .map_err(|e| ServiceError::Journal(e.to_string()))?;
            }
            return Err(ServiceError::EcoDegraded {
                quarantined: result.stats.quarantined.len(),
                skipped: result.stats.deadline.skipped_items(),
                stalls: result.stats.deadline.stalls.len(),
            });
        }
        if full_reanalysis {
            self.fractions
                .publish(PhaseFractions::from_stats(&result.stats));
        }
        self.eco_updates += 1;
        self.tails[tail as usize] += 1;
        let reply = EcoReply {
            moved: moves.len(),
            cache_hits: h1 - cache_stats.0,
            cache_misses: m1 - cache_stats.1,
            full_reanalysis,
            tail,
            groups_resolved: result.stats.select_telemetry.groups as usize,
            pins_reprobed,
            failed_pins: result.stats.failed_pins,
            eco_seq: self.eco_updates,
        };
        self.design = Arc::new(design);
        self.result = Arc::new(result);
        Ok(reply)
    }

    /// Whether an ECO onto `design` may take the window tail: the current
    /// snapshot is repair-free, the row stripes cannot move, and every
    /// moved component is placed with a known master.
    fn window_ready(&self, design: &Design, moved: &[CompId]) -> bool {
        let prev = &self.result;
        prev.overrides.is_empty()
            && prev.stats.failed_pins == 0
            && prev.stats.quarantined.is_empty()
            && !prev.stats.deadline.is_partial()
            && self.rows.is_fixed()
            && moved
                .iter()
                .all(|&c| comp_bbox(&self.tech, design, c).is_some())
    }

    /// Re-buckets `moved` from the current placement into `design` (or
    /// back, with `undo`) on a fixed row index. Returns the members of
    /// every touched stripe as they were before the move. A design
    /// without `ROW` statements derives its stripes from the placement,
    /// so a move can add or remove one; its index is left as built,
    /// since such a design never takes the window tail.
    fn relocate(
        &mut self,
        design: &Design,
        moved: &[CompId],
        undo: bool,
    ) -> Vec<(usize, StripeCells)> {
        if !self.rows.is_fixed() {
            return Vec::new();
        }
        let boxes: Vec<(CompId, Option<pao_geom::Rect>, Option<pao_geom::Rect>)> = moved
            .iter()
            .map(|&c| {
                let (old, new) = (
                    comp_bbox(&self.tech, &self.design, c),
                    comp_bbox(&self.tech, design, c),
                );
                if undo {
                    (c, new, old)
                } else {
                    (c, old, new)
                }
            })
            .collect();
        let mut touched = Vec::new();
        let mut covered = Vec::new();
        for &(_, from, to) in &boxes {
            for b in from.into_iter().chain(to) {
                self.rows.covered_into(b, &mut covered);
                touched.extend_from_slice(&covered);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        let before = touched
            .into_iter()
            .map(|s| (s, self.rows.stripe_cells(s).to_vec()))
            .collect();
        for (c, from, to) in boxes {
            self.rows.relocate(c, from, to);
        }
        before
    }
}
