//! Deadline-aware anytime execution: cancellation tokens, per-phase
//! budget allocation, the stall-watchdog configuration, and the run
//! that owns every degradation.
//!
//! PAAF is an oracle consulted by a detailed router under a wall-clock
//! budget. This module makes the whole pipeline *anytime*: a
//! [`CancelToken`] (an atomic flag plus an optional monotonic
//! [`Instant`] deadline) is polled by the executor between work items,
//! so an expired budget finishes in-flight items, marks the remaining
//! ones skipped, and lets every phase degrade exactly like a quarantined
//! item would — the oracle always returns a usable partial result, never
//! aborts.
//!
//! One run (`RunCtx`) owns that policy for every phase: it mints each
//! phase's token, runs the phase's items (`PhaseRun::map`), and records
//! the faults, skips and stalls that end up in [`PaoStats::quarantined`]
//! and [`PaoStats::deadline`], and each phase's wall time, `phase.<name>`
//! span and executor report.
//!
//! All duration and deadline arithmetic in this module (and everywhere
//! in the pipeline) uses the **monotonic** [`Instant`] clock. The
//! wall-clock ISO-8601 formatter in `pao_obs::clock` is for trace/
//! provenance timestamps only and must never feed an elapsed-time or
//! deadline comparison.

use crate::error::{FaultRecord, Phase};
use crate::parallel::{parallel_map, ExecOptions, ExecReport, ItemFault, PhaseBudget};
use crate::stats::PaoStats;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Why a run (or phase) was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// The monotonic deadline expired.
    Deadline,
    /// The watchdog detected a stalled worker and tripped the token.
    Stall,
}

impl CancelReason {
    /// Stable lowercase name (used in reports and skip records).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CancelReason::Deadline => "deadline",
            CancelReason::Stall => "stall",
        }
    }
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One stalled worker observed by the watchdog: the worker made no
/// heartbeat progress on its claimed item for longer than the adaptive
/// threshold, so the phase was cancelled instead of hanging forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallRecord {
    /// Executor phase label (e.g. `"apgen.instance"`).
    pub label: String,
    /// Worker index within the phase's pool.
    pub worker: usize,
    /// Input index of the item the worker was stuck on.
    pub item: usize,
    /// How long the heartbeat had been silent when the watchdog fired.
    pub stalled: Duration,
    /// The threshold in force (a multiple of the observed per-item time,
    /// floored at the configured minimum).
    pub threshold: Duration,
}

impl fmt::Display for StallRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] worker {} stalled on item {} for {:.3}s (threshold {:.3}s)",
            self.label,
            self.worker,
            self.item,
            self.stalled.as_secs_f64(),
            self.threshold.as_secs_f64()
        )
    }
}

/// Work items of one phase skipped by an expired budget (or a tripped
/// watchdog). The items were never started; on resume from a checkpoint
/// they run normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipRecord {
    /// The phase whose items were skipped.
    pub phase: Phase,
    /// How many items were skipped.
    pub items: usize,
    /// Why the phase was cut short.
    pub reason: CancelReason,
}

impl fmt::Display for SkipRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} ({})", self.phase, self.items, self.reason)
    }
}

/// Everything the deadline/watchdog machinery did to a run: which phases
/// lost items and which workers stalled. Carried in
/// [`PaoStats::deadline`](crate::stats::PaoStats::deadline).
///
/// Skip sets depend on wall-clock timing, so this report is **excluded**
/// from [`PaoStats::counters_eq`] — the thread-count identity contract
/// covers unlimited-budget runs; deadline-partial runs are reconciled via
/// checkpoint resume instead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeadlineReport {
    /// The configured budget (`None` = unlimited).
    pub budget: Option<Duration>,
    /// Per-phase skip tallies, in pipeline order.
    pub skipped: Vec<SkipRecord>,
    /// Stalls detected by the watchdog.
    pub stalls: Vec<StallRecord>,
}

impl DeadlineReport {
    /// `true` when any work was skipped or any stall fired — i.e. the
    /// result is usable but partial.
    #[must_use]
    pub fn is_partial(&self) -> bool {
        !self.skipped.is_empty() || !self.stalls.is_empty()
    }

    /// Total skipped items across all phases.
    #[must_use]
    pub fn skipped_items(&self) -> usize {
        self.skipped.iter().map(|s| s.items).sum()
    }
}

impl fmt::Display for DeadlineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.budget {
            Some(b) => write!(f, "budget {:.3}s", b.as_secs_f64())?,
            None => write!(f, "budget unlimited")?,
        }
        write!(f, ", skipped {}", self.skipped_items())?;
        if !self.skipped.is_empty() {
            let parts: Vec<String> = self.skipped.iter().map(SkipRecord::to_string).collect();
            write!(f, " ({})", parts.join(", "))?;
        }
        write!(f, ", stalls {}", self.stalls.len())
    }
}

/// Shared cancellation state. See [`CancelToken`].
#[derive(Debug)]
struct TokenState {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    reason: Mutex<Option<CancelReason>>,
    stalls: Mutex<Vec<StallRecord>>,
}

impl Default for TokenState {
    fn default() -> TokenState {
        TokenState {
            cancelled: AtomicBool::new(false),
            deadline: None,
            reason: Mutex::new(None),
            stalls: Mutex::new(Vec::new()),
        }
    }
}

/// A cooperative cancellation token: an atomic flag plus an optional
/// monotonic deadline. Cloning is cheap (`Arc`); all clones observe the
/// same cancellation.
///
/// The executor polls [`is_cancelled`](CancelToken::is_cancelled) between
/// items: in-flight items always finish, unstarted items are skipped.
/// With no deadline the poll is a single relaxed atomic load, so the
/// always-on cancellation path costs nothing measurable (the bench gate
/// holds it under 1% end to end).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenState>,
}

impl CancelToken {
    /// A token that never expires on its own (it can still be
    /// [`cancel`](CancelToken::cancel)led explicitly).
    #[must_use]
    pub fn never() -> CancelToken {
        CancelToken::default()
    }

    /// A token that expires at the given monotonic instant.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenState {
                deadline: Some(deadline),
                ..TokenState::default()
            }),
        }
    }

    /// A token that expires `budget` from now. A budget too large to
    /// represent degrades to never-expiring.
    #[must_use]
    pub fn after(budget: Duration) -> CancelToken {
        match Instant::now().checked_add(budget) {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::never(),
        }
    }

    /// The absolute deadline, if one is set.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Time left until the deadline (`None` = no deadline; zero when
    /// already expired).
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Trips the token. The first recorded reason wins; later calls only
    /// ensure the flag stays set.
    pub fn cancel(&self, reason: CancelReason) {
        let mut slot = self
            .inner
            .reason
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(reason);
        }
        drop(slot);
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// `true` once the token is tripped — explicitly, or lazily when the
    /// monotonic deadline has passed (the first observer latches the
    /// flag, so later polls are a single atomic load).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
                self.cancel(CancelReason::Deadline);
                true
            }
            _ => false,
        }
    }

    /// The first cancellation reason, once tripped.
    #[must_use]
    pub fn reason(&self) -> Option<CancelReason> {
        *self
            .inner
            .reason
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a watchdog stall against this token.
    pub fn record_stall(&self, stall: StallRecord) {
        self.inner
            .stalls
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(stall);
    }

    /// Drains the recorded stalls (the oracle collects them into
    /// [`DeadlineReport::stalls`] after each phase).
    #[must_use]
    pub fn take_stalls(&self) -> Vec<StallRecord> {
        std::mem::take(
            &mut *self
                .inner
                .stalls
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }
}

/// Stall-watchdog configuration. The watchdog is a monitor thread that
/// samples per-worker heartbeats every `poll`; a worker that has been
/// inside the *same* item for more than
/// `max(min_stall, multiple × observed mean item time)` is declared
/// stalled: the stall is recorded, `watchdog.stalls` is bumped, and the
/// phase's cancel token is tripped with [`CancelReason::Stall`] so every
/// healthy worker drains cooperatively. The stalled item itself must
/// eventually return (cooperative model — the watchdog converts a hung
/// *run* into a degraded one, it cannot kill a thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    /// Stall threshold as a multiple of the observed mean per-item time.
    pub multiple: u32,
    /// Threshold floor — also the effective threshold before any item of
    /// the phase has completed (no observed mean yet).
    pub min_stall: Duration,
    /// Heartbeat sampling period of the monitor thread.
    pub poll: Duration,
}

impl Default for Watchdog {
    fn default() -> Watchdog {
        Watchdog {
            multiple: 32,
            min_stall: Duration::from_millis(250),
            poll: Duration::from_millis(2),
        }
    }
}

impl Watchdog {
    /// A watchdog with a custom threshold floor (the CLI's
    /// `--watchdog-ms`).
    #[must_use]
    pub fn with_min_stall(min_stall: Duration) -> Watchdog {
        Watchdog {
            min_stall,
            ..Watchdog::default()
        }
    }
}

/// Relative wall-time weights of the five pipeline phases, used to split
/// an overall deadline. Indexed `[apgen, pattern, select, repair, audit]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseFractions(pub [f64; 5]);

impl PhaseFractions {
    /// Default split, measured from this repo's bench history on the
    /// testgen suite (apgen dominates; see DESIGN.md §13).
    pub const DEFAULT: PhaseFractions = PhaseFractions([0.55, 0.18, 0.12, 0.09, 0.06]);

    /// Derives fractions from a finished run's per-phase executor busy
    /// totals; falls back to [`DEFAULT`](PhaseFractions::DEFAULT) when the
    /// run recorded no busy time.
    #[must_use]
    pub fn from_stats(stats: &PaoStats) -> PhaseFractions {
        let busy = [
            stats.apgen_exec.total_busy_us(),
            stats.pattern_exec.total_busy_us(),
            stats.cluster_exec.total_busy_us(),
            stats.repair_exec.total_busy_us(),
            stats.audit_exec.total_busy_us(),
        ];
        let total: u64 = busy.iter().sum();
        if total == 0 {
            return PhaseFractions::DEFAULT;
        }
        let mut f = [0f64; 5];
        for (slot, &b) in f.iter_mut().zip(&busy) {
            *slot = b as f64 / total as f64;
        }
        PhaseFractions(f).normalized()
    }

    /// Clamps every fraction to a small positive floor and rescales to
    /// sum 1, so no phase is ever allocated a zero budget.
    #[must_use]
    pub fn normalized(self) -> PhaseFractions {
        const FLOOR: f64 = 0.01;
        let mut f = self
            .0
            .map(|x| if x.is_finite() && x > FLOOR { x } else { FLOOR });
        let sum: f64 = f.iter().sum();
        for x in &mut f {
            *x /= sum;
        }
        PhaseFractions(f)
    }

    /// Serializes as one `FRACS` line for the checkpoint history file.
    #[must_use]
    pub fn to_line(&self) -> String {
        format!(
            "FRACS {:.6} {:.6} {:.6} {:.6} {:.6}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4]
        )
    }

    /// Parses a line produced by [`to_line`](PhaseFractions::to_line).
    #[must_use]
    pub fn parse_line(line: &str) -> Option<PhaseFractions> {
        let rest = line.trim().strip_prefix("FRACS ")?;
        let mut f = [0f64; 5];
        let mut it = rest.split_whitespace();
        for slot in &mut f {
            *slot = it.next()?.parse().ok()?;
        }
        it.next()
            .is_none()
            .then_some(PhaseFractions(f).normalized())
    }
}

impl Default for PhaseFractions {
    fn default() -> PhaseFractions {
        PhaseFractions::DEFAULT
    }
}

/// Shared phase-fraction history for a resident process serving many
/// requests: readers take an immutable [`snapshot`](SharedFractions::snapshot)
/// (a `Copy` of the fractions) when they mint their budget, and finished
/// runs [`publish`](SharedFractions::publish) updated measurements. A
/// request's [`BudgetAllocator`] is built from its snapshot, so a
/// concurrent publish — another request finishing and rolling its
/// history forward — can never mutate the split an in-flight request
/// already observed. (One-shot CLI runs read fractions once from the
/// checkpoint store; the hazard only exists for long-lived daemons.)
#[derive(Debug, Clone, Default)]
pub struct SharedFractions {
    inner: std::sync::Arc<std::sync::Mutex<PhaseFractions>>,
}

impl SharedFractions {
    /// Starts the history at `fractions`.
    #[must_use]
    pub fn new(fractions: PhaseFractions) -> SharedFractions {
        SharedFractions {
            inner: std::sync::Arc::new(std::sync::Mutex::new(fractions.normalized())),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PhaseFractions> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// An immutable copy of the current fractions. This is the only way
    /// requests read the history: the returned value is detached, so
    /// later publishes cannot reach a budget derived from it.
    #[must_use]
    pub fn snapshot(&self) -> PhaseFractions {
        *self.lock()
    }

    /// Replaces the history with a newer measurement (normalized).
    pub fn publish(&self, fractions: PhaseFractions) {
        *self.lock() = fractions.normalized();
    }
}

/// Splits an overall deadline across the five pipeline phases by their
/// historical wall-time fractions, **rolling unused time forward**: each
/// phase's token is minted when the phase starts, from the time actually
/// remaining to the overall deadline, so a phase that finishes early
/// donates its slack to every later phase (proportionally to their
/// fractions).
#[derive(Debug)]
pub struct BudgetAllocator {
    deadline: Option<Instant>,
    fractions: PhaseFractions,
}

impl BudgetAllocator {
    /// Anchors the overall deadline `budget` from now (`None` =
    /// unlimited).
    #[must_use]
    pub fn new(budget: Option<Duration>, fractions: PhaseFractions) -> BudgetAllocator {
        BudgetAllocator {
            deadline: budget.and_then(|b| Instant::now().checked_add(b)),
            fractions: fractions.normalized(),
        }
    }

    /// The absolute overall deadline, if bounded.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The (normalized) fractions this allocator was built with. The
    /// allocator owns its copy — mutating whatever source produced it
    /// (e.g. a [`SharedFractions`] publish) cannot change this value.
    #[must_use]
    pub fn fractions(&self) -> PhaseFractions {
        self.fractions
    }

    /// Mints the cancel token for `phase`, called when the phase starts:
    /// its share is `remaining × fraction(phase) / Σ fraction(phase..)`,
    /// capped at the overall deadline. Phases outside the five-phase
    /// pipeline (cache/input) get the overall token.
    #[must_use]
    pub fn phase_token(&self, phase: Phase) -> CancelToken {
        let Some(end) = self.deadline else {
            return CancelToken::never();
        };
        let Some(i) = phase.step() else {
            return CancelToken::with_deadline(end);
        };
        let now = Instant::now();
        if now >= end {
            // Already over budget: the token reads expired on first poll.
            return CancelToken::with_deadline(end);
        }
        let remaining = end - now;
        let tail: f64 = self.fractions.0[i..].iter().sum();
        let share = if tail > 0.0 {
            remaining.mul_f64((self.fractions.0[i] / tail).clamp(0.0, 1.0))
        } else {
            remaining
        };
        CancelToken::with_deadline((now + share).min(end))
    }
}

/// The per-run budget handed to
/// [`PinAccessOracle::analyze_with_budget`](crate::PinAccessOracle::analyze_with_budget):
/// an optional overall deadline, the phase split, an optional stall
/// watchdog, and an optional analysis store for reuse and cut/crash
/// resume.
#[derive(Debug, Default)]
pub struct RunBudget<'a> {
    /// Overall wall-clock budget (`None` = unlimited).
    pub deadline: Option<Duration>,
    /// How the budget splits across phases (see [`BudgetAllocator`]).
    pub fractions: PhaseFractions,
    /// Stall watchdog (`None` = no monitoring).
    pub watchdog: Option<Watchdog>,
    /// Signature-keyed analysis store: stored signatures restore steps
    /// 1–2 instead of recomputing them, and completed apgen/pattern items
    /// are stored after each phase (and written, for a checkpoint
    /// directory), so a cut or crashed run resumes without redoing
    /// finished work.
    pub store: Option<&'a mut crate::persist::AnalysisCache>,
}

impl RunBudget<'static> {
    /// No deadline, no watchdog, no store — plain
    /// [`analyze`](crate::PinAccessOracle::analyze) behavior.
    #[must_use]
    pub fn unlimited() -> RunBudget<'static> {
        RunBudget::default()
    }

    /// A budget with the given overall deadline and default fractions.
    #[must_use]
    pub fn with_deadline(deadline: Duration) -> RunBudget<'static> {
        RunBudget {
            deadline: Some(deadline),
            ..RunBudget::default()
        }
    }
}

/// One run's budget, clocks and degradations: the allocator every phase
/// mints its token from, the watchdog and worker count, the start-of-run
/// stopwatch and metrics snapshot, each pipeline phase's wall time and
/// executor report, and every fault, skip and stall its phases recorded,
/// which [`RunCtx::close`] stamps into the finished stats.
pub(crate) struct RunCtx {
    alloc: BudgetAllocator,
    deadline: Option<Duration>,
    watchdog: Option<Watchdog>,
    threads: usize,
    start: Instant,
    metrics_before: Option<pao_obs::MetricsSnapshot>,
    /// Per pipeline step: wall time and executor report of its phases.
    clocks: [(Duration, ExecReport); 5],
    faults: Vec<FaultRecord>,
    skips: Vec<SkipRecord>,
    stalls: Vec<StallRecord>,
}

impl RunCtx {
    /// Starts the run clock and anchors the deadline at now; every phase
    /// runs its items on `threads` workers.
    pub(crate) fn new(
        deadline: Option<Duration>,
        fractions: PhaseFractions,
        watchdog: Option<Watchdog>,
        threads: usize,
    ) -> RunCtx {
        RunCtx {
            alloc: BudgetAllocator::new(deadline, fractions),
            deadline,
            watchdog,
            threads,
            start: Instant::now(),
            metrics_before: pao_obs::metrics_enabled().then(pao_obs::snapshot),
            clocks: Default::default(),
            faults: Vec::new(),
            skips: Vec::new(),
            stalls: Vec::new(),
        }
    }

    /// Starts `phase` now: its clock, a token minted from the time left
    /// (see [`BudgetAllocator::phase_token`]) and the run's watchdog and
    /// worker count.
    pub(crate) fn phase(&self, phase: Phase) -> PhaseRun {
        PhaseRun {
            token: self.alloc.phase_token(phase),
            watchdog: self.watchdog,
            ..PhaseRun::unbudgeted(phase, self.threads)
        }
    }

    /// Ends `ph`: adds its wall time and executor report to its step and
    /// records its `phase.<name>` span over that same interval, then
    /// appends its faults, one [`SkipRecord`] for its skipped items (a
    /// token latches its first reason, so they all share it) and its
    /// token's stalls.
    pub(crate) fn end(&mut self, ph: PhaseRun) {
        if let (Some(i), Some(span)) = (ph.phase.step(), ph.phase.span()) {
            let wall = ph.start.elapsed();
            pao_obs::record_span_at(span, ph.start, wall);
            self.clocks[i].0 += wall;
            self.clocks[i].1.merge(&ph.exec);
        }
        self.faults.extend(ph.faults);
        if ph.skipped > 0 {
            pao_obs::counter_add(ph.phase.deadline_counter(), ph.skipped as u64);
            self.skips.push(SkipRecord {
                phase: ph.phase,
                items: ph.skipped,
                reason: ph.token.reason().unwrap_or(CancelReason::Deadline),
            });
        }
        self.stalls.extend(ph.token.take_stalls());
    }

    /// `true` once an ended phase recorded a fault, a skip or a stall.
    pub(crate) fn degraded(&self) -> bool {
        !(self.faults.is_empty() && self.skips.is_empty() && self.stalls.is_empty())
    }

    /// Stamps the finished run into `stats`: each phase's wall time and
    /// executor report (`cluster_time` is exactly select + repair +
    /// audit), its faults (bumping `fault.quarantined.<phase>`), its
    /// deadline report, its wall time and its metrics delta.
    pub(crate) fn close(&mut self, stats: &mut PaoStats) {
        let [apgen, pattern, select, repair, audit] = std::mem::take(&mut self.clocks);
        (stats.apgen_time, stats.apgen_exec) = apgen;
        (stats.pattern_time, stats.pattern_exec) = pattern;
        (stats.select_time, stats.cluster_exec) = select;
        (stats.repair_time, stats.repair_exec) = repair;
        (stats.audit_time, stats.audit_exec) = audit;
        stats.cluster_time = stats.select_time + stats.repair_time + stats.audit_time;
        for fault in &self.faults {
            pao_obs::counter_add(fault.phase.quarantine_counter(), 1);
        }
        stats.quarantined = std::mem::take(&mut self.faults);
        stats.deadline = DeadlineReport {
            budget: self.deadline,
            skipped: std::mem::take(&mut self.skips),
            stalls: std::mem::take(&mut self.stalls),
        };
        stats.run_time = self.start.elapsed();
        if let Some(before) = &self.metrics_before {
            stats.metrics = pao_obs::snapshot().delta_since(before);
        }
    }
}

/// One phase of a run: its start instant, cancel token, watchdog and
/// worker count, and the executor report, faults and skips its items
/// recorded so far. [`RunCtx::phase`] starts it and [`RunCtx::end`] hands
/// its records to the run.
pub(crate) struct PhaseRun {
    phase: Phase,
    start: Instant,
    token: CancelToken,
    watchdog: Option<Watchdog>,
    threads: usize,
    /// Every [`map`](PhaseRun::map) call's executor report, merged.
    pub(crate) exec: ExecReport,
    faults: Vec<FaultRecord>,
    skipped: usize,
}

impl PhaseRun {
    /// A phase outside any run on `threads` workers: never cancelled and
    /// unwatched, its records dropped with it.
    pub(crate) fn unbudgeted(phase: Phase, threads: usize) -> PhaseRun {
        PhaseRun {
            phase,
            start: Instant::now(),
            token: CancelToken::never(),
            watchdog: None,
            threads,
            exec: ExecReport::default(),
            faults: Vec::new(),
            skipped: 0,
        }
    }

    /// `true` once the phase's token has tripped.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.token.is_cancelled()
    }

    /// Records a fault that no executor item raised (a typed error, a
    /// failed store write).
    pub(crate) fn fault(&mut self, fault: FaultRecord) {
        self.faults.push(fault);
    }

    /// [`parallel_map`] of `f` over `items` on the phase's workers, under
    /// its executor label, token and watchdog; the call's executor report
    /// merges into the phase's. A panicked item comes back `None` and is
    /// recorded as a fault named `name(index)`; a skipped one comes back
    /// `None` and is counted.
    pub(crate) fn map<T, R, S, I, F>(
        &mut self,
        items: Vec<T>,
        init: I,
        f: F,
        name: impl Fn(usize) -> String,
    ) -> Vec<Option<R>>
    where
        T: Send,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> R + Sync,
    {
        let budget = PhaseBudget::new(&self.token, self.watchdog);
        let label = self.phase.exec_label().unwrap_or_default();
        let opts = ExecOptions::new(self.threads, label).with_budget(Some(budget));
        let (out, exec) = parallel_map(opts, items, init, f);
        self.exec.merge(&exec);
        out.into_iter()
            .enumerate()
            .map(|(i, r)| match r {
                Ok(r) => Some(r),
                Err(ItemFault::Skipped(_)) => {
                    self.skipped += 1;
                    None
                }
                Err(ItemFault::Panic(reason)) => {
                    self.faults.push(FaultRecord {
                        phase: self.phase,
                        item: name(i),
                        reason,
                    });
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_fractions_snapshot_is_immutable_per_request() {
        // Regression: one request's roll-forward (publishing measured
        // fractions) must not mutate the split a concurrent request's
        // allocator already derived from its snapshot.
        let shared = SharedFractions::new(PhaseFractions([0.5, 0.2, 0.1, 0.1, 0.1]));
        let snap = shared.snapshot();
        let alloc = BudgetAllocator::new(Some(Duration::from_secs(1)), snap);
        let before = alloc.fractions();

        // A "finished request" publishes a very different history, from
        // another thread, while our allocator is conceptually in flight.
        let publisher = shared.clone();
        std::thread::spawn(move || {
            publisher.publish(PhaseFractions([0.01, 0.01, 0.01, 0.01, 0.96]));
        })
        .join()
        .expect("publisher thread");

        // The in-flight allocator still holds its snapshot bit-for-bit…
        assert_eq!(alloc.fractions(), before);
        assert_eq!(alloc.fractions(), snap.normalized());
        // …while new requests observe the published history.
        let fresh = shared.snapshot();
        assert!((fresh.0[4] - 0.96).abs() < 1e-6, "{fresh:?}");
        assert_ne!(fresh, before);
    }

    #[test]
    fn shared_fractions_concurrent_snapshots_are_consistent() {
        // Snapshots taken while a publisher churns must always be one of
        // the published values — never a torn mix of two. `new`/`publish`
        // re-normalize what they store (and normalization is not
        // bit-idempotent), so capture the exact stored representation of
        // each value via a serial round-trip first.
        let raw_a = PhaseFractions([0.5, 0.2, 0.1, 0.1, 0.1]);
        let raw_b = PhaseFractions([0.05, 0.05, 0.3, 0.3, 0.3]);
        let shared = SharedFractions::new(raw_a);
        let a = shared.snapshot();
        shared.publish(raw_b);
        let b = shared.snapshot();
        shared.publish(raw_a);
        std::thread::scope(|scope| {
            let publisher = shared.clone();
            scope.spawn(move || {
                for i in 0..500 {
                    publisher.publish(if i % 2 == 0 { raw_b } else { raw_a });
                }
            });
            for _ in 0..4 {
                let reader = shared.clone();
                scope.spawn(move || {
                    for _ in 0..500 {
                        let s = reader.snapshot();
                        assert!(s == a || s == b, "torn snapshot: {s:?}");
                    }
                });
            }
        });
    }

    #[test]
    fn token_never_is_inert() {
        let t = CancelToken::never();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        assert_eq!(t.deadline(), None);
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn token_expires_at_deadline() {
        let t = CancelToken::after(Duration::ZERO);
        assert!(t.is_cancelled(), "zero budget expires immediately");
        assert_eq!(t.reason(), Some(CancelReason::Deadline));
        let far = CancelToken::after(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        assert!(far
            .remaining()
            .is_some_and(|r| r > Duration::from_secs(3000)));
    }

    #[test]
    fn first_cancel_reason_wins_and_clones_share_state() {
        let t = CancelToken::never();
        let c = t.clone();
        c.cancel(CancelReason::Stall);
        t.cancel(CancelReason::Deadline);
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::Stall));
    }

    #[test]
    fn stalls_accumulate_and_drain() {
        let t = CancelToken::never();
        t.record_stall(StallRecord {
            label: "apgen.instance".into(),
            worker: 1,
            item: 5,
            stalled: Duration::from_millis(300),
            threshold: Duration::from_millis(100),
        });
        let drained = t.take_stalls();
        assert_eq!(drained.len(), 1);
        assert!(drained[0]
            .to_string()
            .contains("worker 1 stalled on item 5"));
        assert!(t.take_stalls().is_empty(), "drain empties the buffer");
    }

    #[test]
    fn fractions_normalize_and_roundtrip() {
        let f = PhaseFractions([0.0, 0.0, 0.0, 0.0, 1.0]).normalized();
        assert!((f.0.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(f.0[0] > 0.0, "floor keeps every phase fundable");
        let line = PhaseFractions::DEFAULT.to_line();
        let back = PhaseFractions::parse_line(&line).expect("roundtrip");
        for (a, b) in back.0.iter().zip(&PhaseFractions::DEFAULT.0) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        assert!(PhaseFractions::parse_line("FRACS 1 2 3").is_none());
        assert!(PhaseFractions::parse_line("nope").is_none());
    }

    #[test]
    fn fractions_from_stats_follow_busy_time() {
        let mut stats = PaoStats::default();
        assert_eq!(PhaseFractions::from_stats(&stats), PhaseFractions::DEFAULT);
        stats.apgen_exec = crate::parallel::ExecReport {
            threads: 1,
            busy_us: vec![900],
        };
        stats.audit_exec = crate::parallel::ExecReport {
            threads: 1,
            busy_us: vec![100],
        };
        let f = PhaseFractions::from_stats(&stats);
        assert!(f.0[0] > 0.8, "{f:?}");
        assert!(f.0[4] < 0.2, "{f:?}");
    }

    #[test]
    fn allocator_splits_and_rolls_forward() {
        let alloc = BudgetAllocator::new(Some(Duration::from_secs(100)), PhaseFractions::DEFAULT);
        let end = alloc.deadline().expect("bounded");
        // First phase gets roughly its fraction of the whole budget.
        let apgen = alloc.phase_token(Phase::Apgen).deadline().expect("bounded");
        assert!(apgen < end, "apgen must not consume the whole budget");
        // The last phase's token reaches the overall deadline: everything
        // unspent by earlier phases rolled forward to it.
        let audit = alloc.phase_token(Phase::Audit).deadline().expect("bounded");
        let slack = end.saturating_duration_since(audit);
        assert!(
            slack < Duration::from_secs(1),
            "audit gets all remaining time"
        );
        // Unlimited allocator mints inert tokens.
        let unlimited = BudgetAllocator::new(None, PhaseFractions::DEFAULT);
        assert!(unlimited.phase_token(Phase::Apgen).deadline().is_none());
    }

    #[test]
    fn expired_allocator_tokens_cancel_immediately() {
        let alloc = BudgetAllocator::new(Some(Duration::ZERO), PhaseFractions::DEFAULT);
        let t = alloc.phase_token(Phase::Pattern);
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::Deadline));
    }

    #[test]
    fn run_records_each_phase_skips_and_faults() {
        // A zero budget skips every item of a phase: one record, with the
        // token's reason.
        let mut run = RunCtx::new(Some(Duration::ZERO), PhaseFractions::DEFAULT, None, 2);
        let mut ph = run.phase(Phase::Pattern);
        let out = ph.map(vec![1u32, 2, 3], || (), |(), x| x, |i| i.to_string());
        assert_eq!(out, vec![None; 3]);
        run.end(ph);
        assert!(run.degraded());
        let mut stats = PaoStats::default();
        run.close(&mut stats);
        let skip = SkipRecord {
            phase: Phase::Pattern,
            items: 3,
            reason: CancelReason::Deadline,
        };
        assert_eq!(stats.deadline.skipped, vec![skip]);
        assert_eq!(stats.deadline.budget, Some(Duration::ZERO));
        assert!(stats.quarantined.is_empty());

        // A panicked item is a fault named by its index; the rest complete.
        let mut run = RunCtx::new(None, PhaseFractions::DEFAULT, None, 2);
        let mut ph = run.phase(Phase::Audit);
        let out = ph.map(
            vec![1u32, 2, 3],
            || (),
            |(), x| {
                assert!(x != 2, "two failed");
                x
            },
            |i| format!("pin {i}"),
        );
        assert_eq!(out, vec![Some(1), None, Some(3)]);
        run.end(ph);
        let mut stats = PaoStats::default();
        run.close(&mut stats);
        let fault = FaultRecord {
            phase: Phase::Audit,
            item: "pin 1".to_owned(),
            reason: "two failed".to_owned(),
        };
        assert_eq!(stats.quarantined, vec![fault]);
        assert!(!stats.deadline.is_partial());
    }

    #[test]
    fn deadline_report_summarizes() {
        let mut r = DeadlineReport::default();
        assert!(!r.is_partial());
        r.budget = Some(Duration::from_millis(100));
        r.skipped.push(SkipRecord {
            phase: Phase::Apgen,
            items: 12,
            reason: CancelReason::Deadline,
        });
        assert!(r.is_partial());
        assert_eq!(r.skipped_items(), 12);
        let text = r.to_string();
        assert!(text.contains("budget 0.100s"), "{text}");
        assert!(text.contains("apgen 12 (deadline)"), "{text}");
    }
}
