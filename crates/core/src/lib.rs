#![warn(missing_docs)]

//! PAAF — the pin access analysis framework of *The Tao of PAO: Anatomy of
//! a Pin Access Oracle for Detailed Routing* (Kahng, Wang, Xu; DAC 2020).
//!
//! The framework analyzes pin accessibility ahead of detailed routing in
//! three multi-level steps:
//!
//! 1. **Pin-based access point generation** ([`apgen`], Algorithm 1):
//!    typed candidate coordinates ([`CoordType`]) are enumerated per pin of
//!    each [unique instance](unique) and validated with a full design-rule
//!    check of the landing via; generation early-terminates at `k` valid
//!    [`AccessPoint`]s.
//! 2. **Unique-instance access pattern generation** ([`pattern`],
//!    Algorithms 2–3): a dynamic program over ordered pins picks one access
//!    point per pin so that neighboring choices are mutually DRC-clean,
//!    with *boundary-conflict-aware* (BCA) penalties producing diverse
//!    [`AccessPattern`]s.
//! 3. **Cluster-based access pattern selection** ([`cluster`]): the same DP
//!    shape runs over gap-free rows of placed instances and picks one
//!    pattern per instance minimizing inter-cell conflicts.
//!
//! [`PinAccessOracle`] ties the steps together and is the crate's main
//! entry point:
//!
//! ```no_run
//! use pao_core::PinAccessOracle;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let lef = ""; let def = "";
//! let tech = pao_tech::lef::parse_lef(lef)?;
//! let design = pao_design::def::parse_def(def, &tech)?;
//!
//! let oracle = PinAccessOracle::new();
//! let result = oracle.analyze(&tech, &design);
//! println!("{} unique instances, {} failed pins",
//!          result.unique.len(), result.stats.failed_pins);
//! # Ok(())
//! # }
//! ```

pub mod apgen;
pub mod budget;
pub mod cluster;
pub mod coord;
pub mod cost;
pub mod error;
pub mod fault;
pub mod incremental;
pub mod oracle;
pub mod parallel;
pub mod pattern;
pub mod persist;
pub mod service;
pub(crate) mod share;
pub mod stats;
pub mod unique;

pub use apgen::{AccessPoint, ApGenConfig, ApScratch, PlanarDir};
pub use budget::{
    BudgetAllocator, CancelReason, CancelToken, DeadlineReport, PhaseFractions, RunBudget,
    SharedFractions, SkipRecord, StallRecord, Watchdog,
};
pub use cluster::{Cluster, SelectTelemetry};
pub use coord::CoordType;
pub use error::{FaultRecord, PaoError, Phase};
pub use oracle::{
    default_threads, ApTally, PaoConfig, PaoResult, PinAccessOracle, UniqueInstanceAccess,
};
pub use parallel::{ExecOptions, ExecReport, ItemFault, PhaseBudget};
pub use pattern::{AccessPattern, PatternConfig};
pub use persist::{AnalysisCache, EcoJournal, JournalEntry};
pub use service::{
    ClusterSelectionReply, EcoMove, EcoReply, EcoTail, EcoTarget, InstancePatternsReply,
    OracleService, PinAccessReply, RejectCount, ServiceError,
};
pub use stats::PaoStats;
pub use unique::{UniqueInstance, UniqueInstanceId};
