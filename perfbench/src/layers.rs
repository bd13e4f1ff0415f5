//! The benchmark's single adapter onto the program's layers.
//!
//! Every call the benchmark makes into a crate's public entry point goes
//! through this file: the parsers (`pao_tech::lef`, `pao_design::def`),
//! the analysis layers (`pao_core::{unique, cluster, oracle}`), the
//! resident service (`pao_core::service`) and the ECO journal
//! (`pao_core::persist`). When an entry point is renamed or a wrapper
//! ladder collapses into one function, only this file changes.

use pao_core::cluster::{build_clusters, select_patterns_threaded, SelectTelemetry};
use pao_core::oracle::count_failed_pins_threaded;
use pao_core::unique::extract_unique_instances;
use pao_core::{
    EcoJournal, EcoMove, EcoReply, OracleService, PaoConfig, PaoResult, PinAccessOracle, RunBudget,
};
use pao_design::{Design, NetPin};
use pao_tech::Tech;
use std::path::Path;

/// Analysis configuration: the paper's defaults at `threads` workers.
fn config(threads: usize) -> PaoConfig {
    PaoConfig {
        threads,
        ..PaoConfig::default()
    }
}

/// `pao_tech::lef::parse_lef` over a LEF file.
pub fn parse_lef(path: &Path) -> Result<Tech, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    pao_tech::lef::parse_lef(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The streaming DEF parser (`pao_design::def::parse_def_file`).
pub fn parse_def(path: &Path, tech: &Tech) -> Result<Design, String> {
    pao_design::def::parse_def_file(path, tech).map_err(|e| format!("{}: {e}", path.display()))
}

/// One cold `PinAccessOracle::analyze` pass.
pub fn analyze(tech: &Tech, design: &Design, threads: usize) -> PaoResult {
    PinAccessOracle::with_config(config(threads)).analyze(tech, design)
}

/// `pao_core::unique::extract_unique_instances`; returns the count.
pub fn extract_unique(tech: &Tech, design: &Design) -> usize {
    extract_unique_instances(tech, design).len()
}

/// `pao_core::cluster::build_clusters`; returns the cluster count.
pub fn cluster_count(tech: &Tech, design: &Design) -> usize {
    build_clusters(tech, design).len()
}

/// Cluster-based pattern selection over an analyzed result's unique
/// instances (`select_patterns_threaded`, which builds its clusters
/// itself). Returns the selection and the DP telemetry.
pub fn select(
    tech: &Tech,
    design: &Design,
    result: &PaoResult,
    threads: usize,
) -> (Vec<Option<usize>>, SelectTelemetry) {
    let engine = pao_drc::DrcEngine::new(tech);
    let out = select_patterns_threaded(
        tech,
        &engine,
        design,
        &result.comp_uniq,
        &result.unique,
        threads,
    );
    (out.selection, out.telemetry)
}

/// The whole-design failed-pin audit (`count_failed_pins_threaded`,
/// which builds its own global context): `(total pins, failed pins)`.
pub fn audit(tech: &Tech, design: &Design, result: &PaoResult, threads: usize) -> (usize, usize) {
    count_failed_pins_threaded(tech, design, result, threads).0
}

/// `pao_core::service::selection_dump` — the deterministic per-component
/// selection text `pao analyze --dump-selection` writes.
pub fn selection_dump(design: &Design, result: &PaoResult) -> String {
    pao_core::service::selection_dump(design, result)
}

/// Loads an in-process `OracleService` (no decision ledger, no budget).
pub fn start_service(tech: Tech, design: Design, threads: usize) -> OracleService {
    OracleService::start(tech, design, config(threads), RunBudget::unlimited(), false)
}

/// One `eco_update` on an in-process service (no deadline, no watchdog).
pub fn eco(svc: &mut OracleService, moves: &[EcoMove]) -> Result<EcoReply, String> {
    svc.eco_update(moves, None, None).map_err(|e| e.to_string())
}

/// A fresh ECO journal at `path`.
pub fn journal(path: &Path) -> Result<EcoJournal, String> {
    EcoJournal::create(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// One durable `EcoJournal::append`.
pub fn journal_append(journal: &mut EcoJournal, moves: &[EcoMove]) -> Result<(), String> {
    journal.append(moves).map(|_| ()).map_err(|e| e.to_string())
}

/// One read the benchmark issues, in-process or over the wire.
#[derive(Debug, Clone)]
pub enum Query {
    /// `get_pin_access` for a connected pin.
    PinAccess { inst: String, pin: String },
    /// `get_instance_patterns`.
    Patterns { inst: String },
    /// `get_cluster_selection`.
    Cluster { inst: String },
}

impl Query {
    /// The method name on the wire.
    pub fn method(&self) -> &'static str {
        match self {
            Query::PinAccess { .. } => "get_pin_access",
            Query::Patterns { .. } => "get_instance_patterns",
            Query::Cluster { .. } => "get_cluster_selection",
        }
    }

    /// The JSON-RPC request line (no trailing newline).
    pub fn request(&self, id: u64) -> String {
        let q = pao_obs::json::quote;
        let params = match self {
            Query::PinAccess { inst, pin } => {
                format!("{{\"inst\":{},\"pin\":{}}}", q(inst), q(pin))
            }
            Query::Patterns { inst } | Query::Cluster { inst } => {
                format!("{{\"inst\":{}}}", q(inst))
            }
        };
        format!(
            "{{\"id\":{id},\"method\":\"{}\",\"params\":{params}}}",
            self.method()
        )
    }

    /// Checks a wire response: the matching id, a result (not an error),
    /// and a non-empty answer — every queried pin is connected and the
    /// design analyzes with zero failed pins, so each has a selected
    /// access point, patterns and a cluster selection.
    pub fn check_response(&self, id: u64, line: &str) -> bool {
        let Ok(v) = pao_obs::json::parse(line) else {
            return false;
        };
        let Some(r) = v.get("result") else {
            return false;
        };
        v.get("id").and_then(pao_obs::json::Value::as_i64) == Some(id as i64)
            && match self {
                Query::PinAccess { .. } => r.get("selected").is_some_and(|s| !s.is_null()),
                Query::Patterns { .. } => r
                    .get("patterns")
                    .and_then(pao_obs::json::Value::as_array)
                    .is_some_and(|p| !p.is_empty()),
                Query::Cluster { .. } => r.get("pattern").is_some_and(|p| !p.is_null()),
            }
    }

    /// Answers the query on an in-process service, with the same checks
    /// as [`Query::check_response`].
    pub fn run(&self, svc: &OracleService) -> bool {
        match self {
            Query::PinAccess { inst, pin } => svc
                .pin_access(inst, pin)
                .is_ok_and(|r| r.selected.is_some()),
            Query::Patterns { inst } => svc
                .instance_patterns(inst)
                .is_ok_and(|r| !r.patterns.is_empty()),
            Query::Cluster { inst } => svc
                .cluster_selection(inst)
                .is_ok_and(|r| r.pattern.is_some()),
        }
    }
}

/// Every connected component pin of `design` as `(instance, pin)` names —
/// the population reads are drawn from.
pub fn connected_pins(design: &Design) -> Vec<(String, String)> {
    design
        .nets()
        .iter()
        .flat_map(|n| &n.pins)
        .filter_map(|p| match p {
            NetPin::Comp { comp, pin } => {
                Some((design.component(*comp).name.to_string(), pin.to_string()))
            }
            NetPin::Io { .. } => None,
        })
        .collect()
}
