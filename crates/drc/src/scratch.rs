//! Reusable per-worker workspace for the DRC hot path.
//!
//! A via probe ([`DrcEngine::check_via_placement`](crate::DrcEngine::check_via_placement)
//! and its verdict forms) needs half a dozen temporary buffers: the via's
//! translated bottom/cut/top shapes, the owner's touching "friend" metal,
//! the merged-geometry fixpoint, maximal-rectangle output and the grid
//! workspace of the boundary/area algorithms. A [`DrcScratch`] owns all of them, so a
//! worker that probes thousands of candidates allocates only until every
//! buffer reaches its workload high-water mark, then runs allocation-free.
//!
//! Ownership rule: one scratch per worker thread (or per sequential call
//! chain) — the engine borrows it mutably for the duration of a single
//! check and leaves the contents unspecified between calls.

use crate::violation::{RejectInfo, SubCheck};
use pao_geom::{GridScratch, Rect};

/// Scratch buffers threaded through the engine's via and merged checks.
#[derive(Debug, Default)]
pub struct DrcScratch {
    /// Via bottom-layer shapes translated to the probe position.
    pub(crate) bottom: Vec<Rect>,
    /// Via cut shapes translated to the probe position.
    pub(crate) cuts: Vec<Rect>,
    /// Via top-layer shapes translated to the probe position.
    pub(crate) top: Vec<Rect>,
    /// Same-owner context metal near the bottom enclosure.
    pub(crate) friends: Vec<Rect>,
    /// Merged-geometry fixpoint accumulator.
    pub(crate) merged: Vec<Rect>,
    /// Friends not yet absorbed into the merge.
    pub(crate) remaining: Vec<Rect>,
    /// Maximal rectangles of the merged metal.
    pub(crate) maxes: Vec<Rect>,
    /// Workspace of the boundary / max-rect / union-area grid passes.
    pub(crate) grid: GridScratch,
    /// Sub-check currently executing in the pre-merged probe phase (the
    /// engine advances this so a reject can be attributed).
    pub(crate) stage: SubCheck,
    /// Attribution of the most recent rejected probe.
    pub(crate) last_reject: Option<RejectInfo>,
    /// Via probes answered since the last [`DrcScratch::flush_obs`].
    pub(crate) probes: u64,
    /// Probes rejected (any violation found).
    pub(crate) rejects: u64,
    /// Rejected probes that terminated before the merged-geometry check.
    pub(crate) early_exits: u64,
}

impl DrcScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> DrcScratch {
        DrcScratch::default()
    }

    /// Via probes answered through
    /// [`via_placement_clean`](crate::DrcEngine::via_placement_clean)
    /// since the last flush.
    #[must_use]
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Probes rejected since the last flush.
    #[must_use]
    pub fn rejects(&self) -> u64 {
        self.rejects
    }

    /// Rejected probes that never reached the merged-geometry machinery.
    #[must_use]
    pub fn early_exits(&self) -> u64 {
        self.early_exits
    }

    /// Rule + sub-check attribution of the most recent *rejected* probe
    /// through [`via_placement_clean`](crate::DrcEngine::via_placement_clean)
    /// or [`via_pairwise_clean`](crate::DrcEngine::via_pairwise_clean);
    /// `None` after a clean probe. Valid until the next probe.
    #[must_use]
    pub fn last_reject(&self) -> Option<RejectInfo> {
        self.last_reject
    }

    /// Total capacity (in elements) across all buffers — the allocation
    /// high-water mark. Steady under a fixed workload once warmed up.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.bottom.capacity()
            + self.cuts.capacity()
            + self.top.capacity()
            + self.friends.capacity()
            + self.merged.capacity()
            + self.remaining.capacity()
            + self.maxes.capacity()
            + self.grid.high_water()
    }

    /// Publishes the probe tallies as `drc.probes` / `drc.rejects` /
    /// `drc.early_exit` counters, then zeroes the local tallies. Cheap
    /// no-op when metrics are disabled.
    pub fn flush_obs(&mut self) {
        pao_obs::counter_add("drc.probes", self.probes);
        pao_obs::counter_add("drc.rejects", self.rejects);
        pao_obs::counter_add("drc.early_exit", self.early_exits);
        self.probes = 0;
        self.rejects = 0;
        self.early_exits = 0;
    }
}
