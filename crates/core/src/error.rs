//! Typed error taxonomy for the PAAF pipeline.
//!
//! The oracle is consulted by a detailed router millions of times per run,
//! and the library data arriving at a pin-access tool is routinely dirty —
//! malformed masters, truncated caches, pins with degenerate geometry. A
//! production oracle must therefore degrade per item instead of aborting
//! per process: every fault is classified here, carried through
//! [`PaoStats`](crate::stats::PaoStats) as a [`FaultRecord`], and surfaced
//! to callers as a [`PaoError`] when they ask for strict behavior.

use std::fmt;

/// The pipeline phase (or input surface) where a fault was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Step 1 — per-unique-instance access point generation.
    Apgen,
    /// Step 2 — per-unique-instance pattern generation.
    Pattern,
    /// Step 3 — cluster-group pattern selection.
    Select,
    /// Post-selection repair scans and re-placement.
    Repair,
    /// The final whole-design failed-pin audit.
    Audit,
    /// Persisted-cache loading.
    Cache,
    /// Input loading (LEF/DEF/testcase data).
    Input,
}

/// The five pipeline phases a run times, in run order: each one's
/// executor label (its items' span name, and what `--inject-fault` and
/// `--inject-stall` arm) and the span a run records over its wall time.
const PIPELINE: [(Phase, &str, &str); 5] = [
    (Phase::Apgen, "apgen.instance", "phase.apgen"),
    (Phase::Pattern, "pattern.instance", "phase.pattern"),
    (Phase::Select, "select.group", "phase.select"),
    (Phase::Repair, "repair.scan", "phase.repair"),
    (Phase::Audit, "audit.pin", "phase.audit"),
];

impl Phase {
    /// This phase's position in the pipeline (`None` for cache and input).
    pub(crate) fn step(self) -> Option<usize> {
        PIPELINE.iter().position(|p| p.0 == self)
    }

    /// The executor label of this pipeline phase's items.
    pub(crate) fn exec_label(self) -> Option<&'static str> {
        Some(PIPELINE[self.step()?].1)
    }

    /// The span a run records over this pipeline phase's wall time.
    pub(crate) fn span(self) -> Option<&'static str> {
        Some(PIPELINE[self.step()?].2)
    }

    /// The executor label of the pipeline phase called `name`.
    #[must_use]
    pub fn exec_label_of(name: &str) -> Option<&'static str> {
        PIPELINE.iter().find(|p| p.0.name() == name).map(|p| p.1)
    }

    /// Stable lowercase name (used in reports and counter names).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Apgen => "apgen",
            Phase::Pattern => "pattern",
            Phase::Select => "select",
            Phase::Repair => "repair",
            Phase::Audit => "audit",
            Phase::Cache => "cache",
            Phase::Input => "input",
        }
    }

    /// The `pao-obs` counter bumped once per quarantined item of this
    /// phase (`fault.quarantined.<phase>`).
    #[must_use]
    pub fn quarantine_counter(self) -> &'static str {
        match self {
            Phase::Apgen => "fault.quarantined.apgen",
            Phase::Pattern => "fault.quarantined.pattern",
            Phase::Select => "fault.quarantined.select",
            Phase::Repair => "fault.quarantined.repair",
            Phase::Audit => "fault.quarantined.audit",
            Phase::Cache => "fault.quarantined.cache",
            Phase::Input => "fault.quarantined.input",
        }
    }

    /// The `pao-obs` counter bumped once per item skipped by the deadline
    /// budget in this phase (`deadline.skipped.<phase>`).
    #[must_use]
    pub fn deadline_counter(self) -> &'static str {
        match self {
            Phase::Apgen => "deadline.skipped.apgen",
            Phase::Pattern => "deadline.skipped.pattern",
            Phase::Select => "deadline.skipped.select",
            Phase::Repair => "deadline.skipped.repair",
            Phase::Audit => "deadline.skipped.audit",
            Phase::Cache => "deadline.skipped.cache",
            Phase::Input => "deadline.skipped.input",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One quarantined work item: the run completed without it and reports it
/// here instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// The phase whose work item faulted.
    pub phase: Phase,
    /// Human-readable item identity (instance, pin, or group).
    pub item: String,
    /// What went wrong (panic message or typed error text).
    pub reason: String,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.phase, self.item, self.reason)
    }
}

/// Typed PAAF error.
///
/// The taxonomy mirrors the pipeline's trust boundaries: `Input` and
/// `Cache` cover untrusted bytes (library/design files and the persisted
/// incremental cache), `Quarantined` covers isolated work-item faults,
/// and `Internal` covers violated invariants with their source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaoError {
    /// Malformed input data (LEF/DEF/testcase), with the offending file
    /// and 1-based line when known.
    Input {
        /// What is wrong with the input.
        message: String,
        /// Source file the input came from, when known.
        file: Option<String>,
        /// 1-based line where the problem was detected (0 = unknown).
        line: u32,
    },
    /// A persisted cache was rejected (bad version, checksum, or syntax).
    /// Callers must treat this as cache-miss-and-rebuild, never abort.
    Cache {
        /// Why the cache was rejected.
        message: String,
        /// 1-based line in the cache file.
        line: usize,
    },
    /// A work item was quarantined (panic or per-item error) and the run
    /// completed degraded without it.
    Quarantined(FaultRecord),
    /// An internal invariant failed; `location` is the `file:line` of the
    /// detection site.
    Internal {
        /// The violated invariant.
        message: String,
        /// `file:line` of the detection site.
        location: String,
    },
}

impl PaoError {
    /// An [`PaoError::Input`] without a known file/line.
    #[must_use]
    pub fn input(message: impl Into<String>) -> PaoError {
        PaoError::Input {
            message: message.into(),
            file: None,
            line: 0,
        }
    }

    /// An [`PaoError::Input`] pinned to `file:line`.
    #[must_use]
    pub fn input_at(file: impl Into<String>, line: u32, message: impl Into<String>) -> PaoError {
        PaoError::Input {
            message: message.into(),
            file: Some(file.into()),
            line,
        }
    }

    /// An [`PaoError::Internal`] stamped with the caller's source
    /// location.
    #[track_caller]
    #[must_use]
    pub fn internal(message: impl Into<String>) -> PaoError {
        let loc = std::panic::Location::caller();
        PaoError::Internal {
            message: message.into(),
            location: format!("{}:{}", loc.file(), loc.line()),
        }
    }

    /// The phase this error belongs to in quarantine reports.
    #[must_use]
    pub fn phase(&self) -> Phase {
        match self {
            PaoError::Input { .. } => Phase::Input,
            PaoError::Cache { .. } => Phase::Cache,
            PaoError::Quarantined(r) => r.phase,
            PaoError::Internal { .. } => Phase::Audit,
        }
    }
}

impl fmt::Display for PaoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PaoError::Input {
                message,
                file,
                line,
            } => {
                write!(f, "input error")?;
                if let Some(file) = file {
                    write!(f, " in `{file}`")?;
                }
                if *line > 0 {
                    write!(f, " at line {line}")?;
                }
                write!(f, ": {message}")
            }
            PaoError::Cache { message, line } => {
                write!(f, "cache rejected at line {line}: {message}")
            }
            PaoError::Quarantined(r) => write!(f, "quarantined {r}"),
            PaoError::Internal { message, location } => {
                write!(f, "internal error at {location}: {message}")
            }
        }
    }
}

impl std::error::Error for PaoError {}

impl From<crate::persist::LoadCacheError> for PaoError {
    fn from(e: crate::persist::LoadCacheError) -> PaoError {
        PaoError::Cache {
            message: e.message,
            line: e.line,
        }
    }
}

impl From<pao_tech::lef::ParseLefError> for PaoError {
    fn from(e: pao_tech::lef::ParseLefError) -> PaoError {
        PaoError::Input {
            message: e.message,
            file: None,
            line: e.line,
        }
    }
}

impl From<pao_design::def::ParseDefError> for PaoError {
    fn from(e: pao_design::def::ParseDefError) -> PaoError {
        PaoError::Input {
            message: e.message,
            file: None,
            line: e.line,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_surfaces() {
        let e = PaoError::input_at("cells.lef", 42, "unknown layer `M9`");
        assert_eq!(
            e.to_string(),
            "input error in `cells.lef` at line 42: unknown layer `M9`"
        );
        assert_eq!(e.phase(), Phase::Input);
        let q = PaoError::Quarantined(FaultRecord {
            phase: Phase::Apgen,
            item: "instance U3 (RAM64)".into(),
            reason: "boom".into(),
        });
        assert!(q.to_string().contains("[apgen] instance U3 (RAM64): boom"));
        assert_eq!(q.phase(), Phase::Apgen);
    }

    #[test]
    fn internal_records_location() {
        let e = PaoError::internal("slot empty");
        let PaoError::Internal { location, .. } = &e else {
            panic!("wrong variant");
        };
        assert!(location.contains("error.rs"), "{location}");
    }

    #[test]
    fn cache_error_converts() {
        let le = crate::persist::LoadCacheError {
            message: "bad via id".into(),
            line: 7,
        };
        let e = PaoError::from(le);
        assert_eq!(e.to_string(), "cache rejected at line 7: bad via id");
        assert_eq!(e.phase(), Phase::Cache);
    }

    #[test]
    fn counter_names_are_per_phase() {
        assert_eq!(
            Phase::Repair.quarantine_counter(),
            "fault.quarantined.repair"
        );
        assert_eq!(Phase::Select.name(), "select");
    }
}
