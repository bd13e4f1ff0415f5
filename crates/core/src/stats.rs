//! Analysis statistics — the raw numbers behind the paper's Tables II
//! and III.

use crate::budget::DeadlineReport;
use crate::error::FaultRecord;
use crate::parallel::ExecReport;
use std::fmt;
use std::time::Duration;

/// Statistics collected by a [`PinAccessOracle`](crate::PinAccessOracle)
/// run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PaoStats {
    /// Number of unique instances analyzed (Table II column 2).
    pub unique_instances: usize,
    /// Total access points generated over all unique-instance pins
    /// (Table II "Total #APs").
    pub total_aps: usize,
    /// Access points whose primary via is not DRC-clean in the
    /// intra-cell context (Table II "#Dirty APs" — zero by construction
    /// for PAAF, nonzero for unvalidated baselines).
    pub dirty_aps: usize,
    /// Unique-instance pins with zero valid access points.
    pub pins_without_aps: usize,
    /// Access points with at least one off-track coordinate (Fig. 9's
    /// "off-track pin access enabled automatically").
    pub off_track_aps: usize,
    /// Pins whose access was changed by the post-selection repair pass.
    pub repaired_pins: usize,
    /// Total connected instance pins (Table III "Total #Pins").
    pub total_pins: usize,
    /// Connected pins without a DRC-clean access after pattern selection
    /// (Table III "#Failed Pins").
    pub failed_pins: usize,
    /// Wall time of step 1 (access point generation), unique-instance
    /// extraction included. Every `*_time` below is what the run clocked
    /// over that phase — the interval its `phase.<name>` span covers —
    /// summed over the phase's runs (an ECO window tail that hands over
    /// to the full tail adds both), and zero for a phase it never started.
    pub apgen_time: Duration,
    /// Wall time of step 2 (pattern generation), pattern grouping included.
    pub pattern_time: Duration,
    /// Wall time of step 3 (cluster-based selection) including the final
    /// validation pass: exactly [`Self::select_time`] +
    /// [`Self::repair_time`] + [`Self::audit_time`].
    pub cluster_time: Duration,
    /// Wall time of cluster selection inside [`Self::cluster_time`] (on a
    /// service ECO's window tail: finding and re-solving the changed
    /// groups).
    pub select_time: Duration,
    /// Wall time of the repair rounds inside [`Self::cluster_time`],
    /// including the shared context build (zero on a service ECO's
    /// window tail, which repairs nothing).
    pub repair_time: Duration,
    /// Wall time of the failed-pin audit inside [`Self::cluster_time`]
    /// (on a window tail: the re-probe context build and its probes).
    pub audit_time: Duration,
    /// Executor report of step 1's items (worker count, per-worker busy
    /// time). Every `*_exec` report merges all the executor calls of its
    /// phase, as the run recorded them.
    pub apgen_exec: ExecReport,
    /// Executor report of step 2.
    pub pattern_exec: ExecReport,
    /// Executor report of step 3's cluster-group selection.
    pub cluster_exec: ExecReport,
    /// Executor report of the repair rounds' dirty-pin scans (all rounds
    /// merged).
    pub repair_exec: ExecReport,
    /// Executor report of the final failed-pin audit.
    pub audit_exec: ExecReport,
    /// End-to-end wall time of the whole run as measured by the oracle
    /// (covers the three steps *plus* repair, audit and bookkeeping;
    /// zero for stats not produced by a full run).
    pub run_time: Duration,
    /// Metrics recorded during this run (empty unless the caller enabled
    /// [`pao_obs::enable_metrics`] before analyzing).
    pub metrics: pao_obs::MetricsSnapshot,
    /// Work items quarantined by the fault-isolation layer: the run
    /// completed *without* these items instead of aborting. Every phase
    /// hands its faults to the run, which stamps them here in pipeline
    /// order. Empty on a healthy run; deterministic (input order) for a
    /// given fault set, so it participates in the thread-count identity
    /// contract.
    pub quarantined: Vec<FaultRecord>,
    /// What the deadline budget did to this run: one skip record per cut
    /// phase (reason `deadline` or `stall`) and any watchdog stall
    /// records. Empty/default for unbudgeted runs. Deliberately
    /// **excluded** from [`Self::counters_eq`] — where the wall clock or
    /// the watchdog cuts a phase is inherently timing-dependent.
    pub deadline: DeadlineReport,
    /// Cluster-selection fast-path instrumentation (probe/edge counts,
    /// pruning, groups solved). Deterministic at every thread count, but
    /// excluded from [`Self::counters_eq`]: an ECO's window tail counts
    /// only the groups it re-solved, so it differs from a cold run's.
    pub select_telemetry: crate::cluster::SelectTelemetry,
}

impl PaoStats {
    /// Sum of the three analysis-step wall times (excludes repair/audit
    /// and orchestration overhead).
    #[must_use]
    pub fn steps_time(&self) -> Duration {
        self.apgen_time + self.pattern_time + self.cluster_time
    }

    /// End-to-end wall time: the oracle's measured [`Self::run_time`],
    /// falling back to [`Self::steps_time`] for hand-built stats.
    #[must_use]
    pub fn total_time(&self) -> Duration {
        if self.run_time > Duration::ZERO {
            self.run_time
        } else {
            self.steps_time()
        }
    }

    /// `true` when all phase counters are equal, ignoring the
    /// timing/executor fields (which legitimately differ run to run).
    /// This is the determinism contract checked between thread counts.
    #[must_use]
    pub fn counters_eq(&self, other: &PaoStats) -> bool {
        self.unique_instances == other.unique_instances
            && self.total_aps == other.total_aps
            && self.dirty_aps == other.dirty_aps
            && self.pins_without_aps == other.pins_without_aps
            && self.off_track_aps == other.off_track_aps
            && self.repaired_pins == other.repaired_pins
            && self.total_pins == other.total_pins
            && self.failed_pins == other.failed_pins
            && self.quarantined == other.quarantined
    }
}

/// `"<threads> thr, busy <seconds>s"` for one phase's report.
fn exec_line(r: &ExecReport) -> String {
    format!(
        "{} thr, busy {:.3}s",
        r.threads.max(1),
        r.total_busy_us() as f64 / 1e6
    )
}

impl fmt::Display for PaoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "unique instances : {}", self.unique_instances)?;
        writeln!(f, "total APs        : {}", self.total_aps)?;
        writeln!(f, "dirty APs        : {}", self.dirty_aps)?;
        writeln!(f, "pins without APs : {}", self.pins_without_aps)?;
        writeln!(f, "off-track APs    : {}", self.off_track_aps)?;
        writeln!(f, "repaired pins    : {}", self.repaired_pins)?;
        writeln!(f, "total pins       : {}", self.total_pins)?;
        writeln!(f, "failed pins      : {}", self.failed_pins)?;
        writeln!(f, "quarantined      : {}", self.quarantined.len())?;
        for fault in &self.quarantined {
            writeln!(f, "  {fault}")?;
        }
        if self.deadline.budget.is_some() || self.deadline.is_partial() {
            writeln!(f, "deadline         : {}", self.deadline)?;
            for stall in &self.deadline.stalls {
                writeln!(f, "  {stall}")?;
            }
        }
        writeln!(
            f,
            "time (s)         : apgen {:.3} + pattern {:.3} + cluster {:.3} = {:.3} (run {:.3})",
            self.apgen_time.as_secs_f64(),
            self.pattern_time.as_secs_f64(),
            self.cluster_time.as_secs_f64(),
            self.steps_time().as_secs_f64(),
            self.total_time().as_secs_f64()
        )?;
        writeln!(
            f,
            "parallel         : apgen {} | pattern {}",
            exec_line(&self.apgen_exec),
            exec_line(&self.pattern_exec),
        )?;
        write!(
            f,
            "                   select {} | repair {} | audit {}",
            exec_line(&self.cluster_exec),
            exec_line(&self.repair_exec),
            exec_line(&self.audit_exec),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_time_prefers_measured_run_time() {
        let mut s = PaoStats {
            apgen_time: Duration::from_millis(10),
            pattern_time: Duration::from_millis(20),
            cluster_time: Duration::from_millis(30),
            ..PaoStats::default()
        };
        assert_eq!(s.steps_time(), Duration::from_millis(60));
        // Hand-built stats (no run_time) fall back to the step sum.
        assert_eq!(s.total_time(), Duration::from_millis(60));
        // A measured run covers repair/audit too, so it wins when set.
        s.run_time = Duration::from_millis(75);
        assert_eq!(s.total_time(), Duration::from_millis(75));
        assert_eq!(s.steps_time(), Duration::from_millis(60));
    }

    #[test]
    fn display_contains_counts() {
        let s = PaoStats {
            unique_instances: 42,
            failed_pins: 7,
            ..PaoStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("42"));
        assert!(text.contains("failed pins      : 7"));
    }
}
