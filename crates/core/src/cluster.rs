//! Cluster-based access pattern selection (paper Section III-C), extended
//! with multi-height cell support (the paper's future-work item (i)).

use crate::budget::PhaseRun;
use crate::cost::DRC_COST;
use crate::error::Phase;
use crate::oracle::UniqueInstanceAccess;
use crate::pattern::vias_compatible;
use crate::unique::UniqueInstanceId;
use pao_design::{CompId, Design};
use pao_drc::{DrcEngine, ShapeSet};
use pao_geom::{Dbu, Point, Rect};
use pao_obs::{ledger, LedgerEvent, LedgerRecord};
use pao_tech::{Tech, ViaId};
use std::collections::HashMap;

/// A maximal gap-free run of placed instances in one row, ordered left to
/// right. Pattern compatibility is only enforced *within* a cluster; the
/// paper assumes neighboring clusters and rows always allow compatible
/// patterns.
///
/// A multi-height cell spans several rows and therefore belongs to one
/// cluster **per row** it covers; the selection pass fixes its pattern in
/// the first cluster and constrains later clusters to that choice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// Member components, ordered by x.
    pub comps: Vec<CompId>,
}

/// Groups the design's placed components into per-row clusters.
///
/// Rows are taken from the design's `ROW` statements (falling back to
/// distinct placement `y`s); a component joins the cluster of every row
/// its bounding box covers. Within a row, instances form one cluster as
/// long as each abuts the next (no empty site between).
///
/// Components are bucketed into the stripes they cover through one row
/// index, so the build is `O(N log N)` rather than one scan of every
/// component per stripe.
#[must_use]
pub fn build_clusters(tech: &Tech, design: &Design) -> Vec<Cluster> {
    RowIndex::build(tech, design).clusters()
}

/// The placed bounding box of `comp` (`None` when it is unplaced or its
/// master is unknown) — the geometry clusters and row stripes are built
/// from.
pub(crate) fn comp_bbox(tech: &Tech, design: &Design, comp: CompId) -> Option<Rect> {
    let c = design.component(comp);
    if !c.is_placed {
        return None;
    }
    c.master_in(tech)
        .map(|m| pao_geom::Transform::new(c.location, c.orient, m.width, m.height).placed_bbox())
}

/// One stripe's members: `(xlo, xhi, component)`, sorted.
pub(crate) type StripeCells = Vec<(Dbu, Dbu, CompId)>;

/// Members more than this many of the shortest stripe's heights tall are
/// *tall*: they stay in the clusters of every stripe they cover, but
/// [`RowIndex::near`] finds them through the side list, so its stripe
/// scan reaches only as far as the tallest other member.
const TALL_ROWS: Dbu = 4;

/// Placed components bucketed into the row stripes their bounding boxes
/// cover, x-sorted within each stripe.
///
/// It backs [`build_clusters`] and one select → repair tail: selection
/// forms its clusters from it, and every repair round's scan finds a
/// pin's neighbours with [`RowIndex::near`]. The resident service keeps
/// one alive across ECOs: a move re-buckets only the moved component
/// ([`RowIndex::relocate`]), the clusters of a touched stripe re-form
/// from its sorted cells alone, and `near` answers "which components can
/// reach this window" without a whole-design pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowIndex {
    /// Row stripes `(y, height)`, sorted and deduplicated.
    stripes: Vec<(Dbu, Dbu)>,
    /// Per stripe: its members, sorted by `(xlo, xhi, component)`.
    cells: Vec<StripeCells>,
    /// Per stripe: the widest member ever indexed (bounds the x scan of
    /// [`RowIndex::near`]; never shrinks, which keeps it an upper bound).
    max_w: Vec<Dbu>,
    /// The tallest bounding box ever indexed outside the side list
    /// (bounds the stripe scan; at most `tall_h`).
    max_h: Dbu,
    /// Members covering no stripe (off-row placements: in no cluster,
    /// but still somebody's neighbour) or taller than `tall_h`, searched
    /// by x alone like one more stripe. Sorted like a stripe.
    side: StripeCells,
    /// [`TALL_ROWS`] times the shortest stripe's height.
    tall_h: Dbu,
    /// The widest side member ever indexed.
    side_w: Dbu,
    /// `true` when the stripes come from `ROW` statements, so moves can
    /// never create or remove one.
    fixed: bool,
}

impl RowIndex {
    /// Buckets every placed component of `design` (see [`build_clusters`]
    /// for the stripe rules).
    pub(crate) fn build(tech: &Tech, design: &Design) -> RowIndex {
        // Row stripes: (y, height) from ROW statements, else from bboxes.
        let fixed = !design.rows.is_empty();
        let mut stripes: Vec<(Dbu, Dbu)> = if fixed {
            design.rows.iter().map(|r| (r.origin.y, r.height)).collect()
        } else {
            design
                .components()
                .iter()
                .filter_map(|c| c.master_in(tech).map(|m| (c.location.y, m.height)))
                .collect()
        };
        stripes.sort_unstable();
        stripes.dedup();
        let row_h = stripes.iter().map(|&(_, h)| h).filter(|&h| h > 0).min();
        let mut index = RowIndex {
            cells: vec![Vec::new(); stripes.len()],
            max_w: vec![0; stripes.len()],
            stripes,
            tall_h: TALL_ROWS * row_h.unwrap_or(1),
            fixed,
            ..RowIndex::default()
        };
        let mut covered = Vec::new();
        for i in 0..design.components().len() {
            let comp = CompId(i as u32);
            let Some(b) = comp_bbox(tech, design, comp) else {
                continue;
            };
            index.covered_into(b, &mut covered);
            let key = (b.xlo(), b.xhi(), comp);
            for &s in &covered {
                index.cells[s].push(key);
                index.max_w[s] = index.max_w[s].max(b.width());
            }
            if index.on_side(b, &covered) {
                index.side.push(key);
                index.side_w = index.side_w.max(b.width());
            } else {
                index.max_h = index.max_h.max(b.height());
            }
        }
        for cells in &mut index.cells {
            cells.sort_unstable();
        }
        index.side.sort_unstable();
        index
    }

    /// Every cluster, stripe by stripe in `(y, height)` order and left to
    /// right within a stripe — the order selection groups are solved in.
    pub(crate) fn clusters(&self) -> Vec<Cluster> {
        let mut out = Vec::new();
        for cells in &self.cells {
            form_clusters(cells, &mut out);
        }
        out
    }

    /// `true` when moves cannot change the stripe set (stripes come from
    /// `ROW` statements).
    pub(crate) fn is_fixed(&self) -> bool {
        self.fixed
    }

    /// Members of stripe `s`, sorted by `(xlo, xhi, component)`.
    pub(crate) fn stripe_cells(&self, s: usize) -> &[(Dbu, Dbu, CompId)] {
        &self.cells[s]
    }

    /// The side list (see the field).
    #[cfg(test)]
    pub(crate) fn side(&self) -> &[(Dbu, Dbu, CompId)] {
        &self.side
    }

    /// `true` for a member [`RowIndex::near`] searches in the side list:
    /// one whose box `b` covers no stripe (an off-row placement), or a
    /// tall one.
    fn on_side(&self, b: Rect, covered: &[usize]) -> bool {
        covered.is_empty() || b.height() > self.tall_h
    }

    /// The stripes a bounding box `b` covers, ascending, into `out`.
    pub(crate) fn covered_into(&self, b: Rect, out: &mut Vec<usize>) {
        out.clear();
        let first = self.stripes.partition_point(|&(y, _)| y < b.ylo());
        for (s, &(y, h)) in self.stripes.iter().enumerate().skip(first) {
            if y >= b.yhi() {
                break;
            }
            if y + h.max(1) <= b.yhi() {
                out.push(s);
            }
        }
    }

    /// Moves `comp` from bounding box `from` to `to` (either `None` for
    /// "not indexed"). Only valid on a [fixed](RowIndex::is_fixed) index.
    pub(crate) fn relocate(&mut self, comp: CompId, from: Option<Rect>, to: Option<Rect>) {
        fn remove(cells: &mut StripeCells, key: (Dbu, Dbu, CompId)) {
            if let Ok(at) = cells.binary_search(&key) {
                cells.remove(at);
            }
        }
        fn insert(cells: &mut StripeCells, key: (Dbu, Dbu, CompId)) {
            let at = cells.partition_point(|&k| k < key);
            cells.insert(at, key);
        }
        let mut covered = Vec::new();
        if let Some(b) = from {
            self.covered_into(b, &mut covered);
            let key = (b.xlo(), b.xhi(), comp);
            if self.on_side(b, &covered) {
                remove(&mut self.side, key);
            }
            for &s in &covered {
                remove(&mut self.cells[s], key);
            }
        }
        if let Some(b) = to {
            self.covered_into(b, &mut covered);
            let key = (b.xlo(), b.xhi(), comp);
            if self.on_side(b, &covered) {
                insert(&mut self.side, key);
                self.side_w = self.side_w.max(b.width());
            } else {
                self.max_h = self.max_h.max(b.height());
            }
            for &s in &covered {
                insert(&mut self.cells[s], key);
                self.max_w[s] = self.max_w[s].max(b.width());
            }
        }
    }

    /// Every indexed component whose bounding box touches `w` and that
    /// `keep` accepts, appended to `out` (unsorted, possibly repeated — a
    /// multi-height member shows up once per stripe it covers). The index
    /// settles only x and bounds y, so `keep` must accept only components
    /// whose box touches `w`.
    pub(crate) fn near(&self, w: Rect, keep: impl Fn(CompId) -> bool, out: &mut Vec<CompId>) {
        // The members whose x-extent meets `w`'s, among `cells` no wider
        // than `max_w`.
        let mut scan = |cells: &[(Dbu, Dbu, CompId)], max_w: Dbu| {
            let lo = cells.partition_point(|&(xlo, _, _)| xlo < w.xlo() - max_w);
            let hi = cells.partition_point(|&(xlo, _, _)| xlo <= w.xhi());
            for &(_, xhi, c) in &cells[lo..hi.max(lo)] {
                if xhi >= w.xlo() && keep(c) {
                    out.push(c);
                }
            }
        };
        // A member outside the side list covers its stripe, and its box
        // is at most `max_h` tall: a box touching `w` puts the stripe's
        // `y` within `max_h` of `w`'s y-range.
        let first = self
            .stripes
            .partition_point(|&(y, _)| y < w.ylo() - self.max_h);
        for (s, &(y, _)) in self.stripes.iter().enumerate().skip(first) {
            if y > w.yhi() + self.max_h {
                break;
            }
            scan(&self.cells[s], self.max_w[s]);
        }
        scan(&self.side, self.side_w);
    }
}

/// Appends the clusters of one stripe's sorted members to `out`: a new
/// cluster starts wherever a member begins right of every earlier
/// member's right edge.
pub(crate) fn form_clusters(cells: &[(Dbu, Dbu, CompId)], out: &mut Vec<Cluster>) {
    let mut current: Vec<CompId> = Vec::new();
    let mut last_xhi: Option<Dbu> = None;
    for &(xlo, xhi, id) in cells {
        match last_xhi {
            Some(prev) if xlo <= prev => current.push(id),
            Some(_) => {
                out.push(Cluster {
                    comps: std::mem::take(&mut current),
                });
                current.push(id);
            }
            None => current.push(id),
        }
        last_xhi = Some(xhi.max(last_xhi.unwrap_or(xhi)));
    }
    if !current.is_empty() {
        out.push(Cluster { comps: current });
    }
}

/// How far (in x) a via at one instance's access point can conflict with a
/// neighbor's: the widest via extent plus the largest spacing requirement.
/// Exposed (hidden) for the allocation regression test.
#[doc(hidden)]
#[must_use]
pub fn conflict_reach(tech: &Tech) -> Dbu {
    let via_reach = tech
        .vias()
        .iter()
        .map(|v| v.bottom_bbox().max_side().max(v.top_bbox().max_side()))
        .max()
        .unwrap_or(0);
    let spacing = tech
        .layers()
        .iter()
        .map(|l| {
            l.spacing
                .max(l.spacing_table.as_ref().map_or(0, |t| t.max_spacing()))
        })
        .max()
        .unwrap_or(0);
    via_reach + spacing
}

/// The widest extent of any via's shape from its drop point — how far a
/// placed via's geometry can stick out from its origin on either axis.
pub(crate) fn max_via_extent(tech: &Tech) -> Dbu {
    tech.vias()
        .iter()
        .flat_map(|v| v.each_placed_shape(Point::new(0, 0)))
        .map(|(_, r)| {
            r.xlo()
                .abs()
                .max(r.xhi().abs())
                .max(r.ylo().abs())
                .max(r.yhi().abs())
        })
        .max()
        .unwrap_or(0)
}

/// Upper bound on the per-axis origin distance at which two placed vias
/// can still interact under any pairwise rule: both extents plus the
/// engine's widest search halo. Pairs farther apart are clean without a
/// probe. Exposed (hidden) for the allocation regression test.
#[doc(hidden)]
#[must_use]
pub fn pair_reach(tech: &Tech, engine: &DrcEngine<'_>) -> Dbu {
    2 * max_via_extent(tech) + engine.interaction_range()
}

/// The primary-via placements of pattern `p` of `u` (translated by
/// `off`) lying within `reach` of the vertical line `x = boundary`,
/// written into the reused buffer `out` (cleared first). Planar-only
/// access points cannot via-conflict and are dropped here instead of
/// being carried into the probe loop.
fn near_boundary_vias_into(
    u: &UniqueInstanceAccess,
    p: usize,
    off: Point,
    boundary: Dbu,
    reach: Dbu,
    out: &mut Vec<(ViaId, Point)>,
) {
    out.clear();
    let Some(pat) = u.patterns.get(p) else {
        return;
    };
    out.extend(
        u.pin_order
            .iter()
            .zip(&pat.choice)
            .filter_map(|(&pin, &api)| {
                let ap = u.pin_aps[pin].get(api)?;
                let via = ap.primary_via()?;
                ((ap.pos.x + off.x - boundary).abs() <= reach).then_some((via, ap.pos + off))
            }),
    );
}

/// Deterministic instrumentation of one selection pass, aggregated from
/// the per-group solves in group order (also published as `select.*`
/// counters when metrics are on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectTelemetry {
    /// Non-trivial DP edges whose verdict was requested.
    pub edges: u64,
    /// Pairwise via DRC probes actually executed.
    pub probes: u64,
    /// DP transitions skipped by the running-best bound (`pcost + qcost
    /// >= best` with edge cost >= 0 means no later candidate can win).
    pub edges_pruned: u64,
    /// Via pairs skipped by the `pair_reach` distance bound.
    pub pairs_far: u64,
    /// Selection groups solved (every group on a full pass; only the
    /// groups a move reached on an ECO's window pass).
    pub groups: u64,
}

impl SelectTelemetry {
    /// Accumulates another solve's counts into `self`.
    pub fn absorb(&mut self, o: &SelectTelemetry) {
        self.edges += o.edges;
        self.probes += o.probes;
        self.edges_pruned += o.edges_pruned;
        self.pairs_far += o.pairs_far;
        self.groups += o.groups;
    }
}

/// The result of one threaded/budgeted cluster-selection pass (its
/// executor report goes to the phase that ran it).
#[derive(Debug)]
pub struct SelectOutput {
    /// Selected pattern per component (`None` when no pattern exists).
    pub selection: Vec<Option<usize>>,
    /// Aggregated fast-path instrumentation.
    pub telemetry: SelectTelemetry,
}

/// Per-worker reusable state for the selection DP. Every buffer is
/// grow-only and cleared (capacity-retaining) per cluster or group, so
/// steady-state selection performs no allocations.
#[doc(hidden)]
pub struct SelectScratch {
    ctx: ShapeSet,
    members: Vec<(CompId, u32)>,
    laps_by_p: Vec<Vec<(ViaId, Point)>>,
    raps: Vec<(ViaId, Point)>,
    order: Vec<(i64, usize)>,
    dp: Vec<Vec<(i64, usize)>>,
    emit: Vec<(usize, Option<usize>)>,
}

impl SelectScratch {
    /// Creates an empty scratch for a `num_layers`-layer technology.
    #[must_use]
    pub fn new(num_layers: usize) -> SelectScratch {
        SelectScratch {
            ctx: ShapeSet::new(num_layers),
            members: Vec::new(),
            laps_by_p: Vec::new(),
            raps: Vec::new(),
            order: Vec::new(),
            dp: Vec::new(),
            emit: Vec::new(),
        }
    }
}

/// The clusters of one selection pass, partitioned into groups.
///
/// Clusters only interact through shared components (a multi-height cell
/// appears in one cluster per covered row, and the later cluster must
/// honor the earlier cluster's assignment), so the groups — connected
/// components over shared members — are mutually independent, while the
/// clusters within a group solve left to right.
#[derive(Debug, Default)]
pub(crate) struct SelectGroups {
    pub(crate) clusters: Vec<Cluster>,
    /// Indices into `clusters`, in cluster order within each group.
    pub(crate) groups: Vec<Vec<usize>>,
}

impl SelectGroups {
    /// Every cluster of the design `rows` indexes, grouped (see
    /// [`group_clusters`]); `n_comps` is the design's component count.
    pub(crate) fn of_rows(rows: &RowIndex, n_comps: usize) -> SelectGroups {
        let clusters = rows.clusters();
        let groups = group_clusters(&clusters, n_comps);
        if pao_obs::metrics_enabled() {
            pao_obs::counter_add("select.clusters", clusters.len() as u64);
            pao_obs::counter_add("select.groups", groups.len() as u64);
            for cluster in &clusters {
                pao_obs::hist_record("select.cluster_size", cluster.comps.len() as u64);
            }
        }
        SelectGroups { clusters, groups }
    }
}

/// A component's default pattern: the best (first) pattern of its unique
/// instance, or `None` when it has none. Members of a group the DP did
/// not solve keep it.
pub(crate) fn default_pattern(
    comp_uniq: &[Option<UniqueInstanceId>],
    uniq: &[UniqueInstanceAccess],
    ci: usize,
) -> Option<usize> {
    comp_uniq[ci]
        .filter(|ui| !uniq[ui.index()].patterns.is_empty())
        .map(|_| 0)
}

/// **Cluster-based pattern selection** — the Algorithm 2 DP re-used with
/// instances as layers and access patterns as vertices.
///
/// For each cluster, selects one pattern per member so that the access
/// points near each shared cell boundary are mutually DRC-clean. Members
/// already assigned by an earlier cluster (multi-height cells seen in a
/// lower row) are constrained to their assigned pattern. Returns, per
/// component, the chosen pattern index (`None` for components without
/// patterns).
///
/// The independent selection groups (see [`SelectGroups`]) fan out over
/// a self-scheduling pool of `threads` workers. Each group records its
/// assignments in a local overlay merged afterwards, so the output is
/// bit-identical to the sequential pass for every thread count.
///
/// Groups run fault-isolated: a panic inside one group's DP quarantines
/// that group (its members keep their default pattern); every other
/// group selects normally.
#[must_use]
pub fn select_patterns_threaded(
    tech: &Tech,
    engine: &DrcEngine<'_>,
    design: &Design,
    comp_uniq: &[Option<UniqueInstanceId>],
    uniq: &[UniqueInstanceAccess],
    threads: usize,
) -> SelectOutput {
    let defaults = (0..comp_uniq.len())
        .map(|ci| default_pattern(comp_uniq, uniq, ci))
        .collect();
    let groups = SelectGroups::of_rows(&RowIndex::build(tech, design), design.components().len());
    let mut select = PhaseRun::unbudgeted(Phase::Select, threads);
    select_patterns_budget(
        tech,
        engine,
        design,
        comp_uniq,
        uniq,
        &groups,
        defaults,
        &mut select,
    )
}

/// The one selection fan-out and merge, behind cold runs
/// ([`select_patterns_threaded`]) and the ECO window tail alike: solves
/// every group of `groups` as one `select.group` executor item and
/// merges its assignments into `selection`, which arrives holding every
/// component's starting pattern.
///
/// The groups are items of `phase`. A group it skips or quarantines
/// resets its members to their default (best intra-cell) pattern —
/// degraded but routable — and on a checkpoint resume it selects
/// normally.
#[allow(clippy::too_many_arguments)]
pub(crate) fn select_patterns_budget(
    tech: &Tech,
    engine: &DrcEngine<'_>,
    design: &Design,
    comp_uniq: &[Option<UniqueInstanceId>],
    uniq: &[UniqueInstanceAccess],
    groups: &SelectGroups,
    mut selection: Vec<Option<usize>>,
    phase: &mut PhaseRun,
) -> SelectOutput {
    let reach = conflict_reach(tech);
    let far = pair_reach(tech, engine);
    let SelectGroups { clusters, groups } = groups;
    let locals = phase.map(
        (0..groups.len()).collect(),
        || SelectScratch::new(tech.layers().len()),
        |scratch, gi: usize| {
            // Overlay: component index -> final assignment; presence = pinned.
            let mut local: HashMap<usize, Option<usize>> = HashMap::new();
            let tel = solve_group(
                tech,
                engine,
                design,
                comp_uniq,
                uniq,
                reach,
                far,
                clusters,
                &groups[gi],
                &mut local,
                scratch,
            );
            (local, tel)
        },
        |gi| format!("selection group {gi} ({} clusters)", groups[gi].len()),
    );

    let mut telemetry = SelectTelemetry {
        groups: groups.len() as u64,
        ..SelectTelemetry::default()
    };
    for (gi, local) in locals.into_iter().enumerate() {
        match local {
            Some((local, tel)) => {
                telemetry.absorb(&tel);
                for (ci, sel) in local {
                    selection[ci] = sel;
                }
            }
            None => {
                for c in groups[gi].iter().flat_map(|&cl| &clusters[cl].comps) {
                    selection[c.index()] = default_pattern(comp_uniq, uniq, c.index());
                }
            }
        }
    }
    if pao_obs::metrics_enabled() {
        pao_obs::counter_add("select.compat_probes", telemetry.probes);
        pao_obs::counter_add("select.compat_edges", telemetry.edges);
        pao_obs::counter_add("select.edges_pruned", telemetry.edges_pruned);
        pao_obs::counter_add("select.pairs_far", telemetry.pairs_far);
    }
    SelectOutput {
        selection,
        telemetry,
    }
}

/// Partitions cluster indices into connected components over shared
/// members (multi-height cells), preserving the original cluster order
/// within every group. Exposed (hidden) for the allocation regression
/// test.
#[doc(hidden)]
pub fn group_clusters(clusters: &[Cluster], n_comps: usize) -> Vec<Vec<usize>> {
    let mut parent: Vec<usize> = (0..clusters.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]]; // path halving
            i = parent[i];
        }
        i
    }
    let mut first_cluster: Vec<Option<usize>> = vec![None; n_comps];
    for (cl, cluster) in clusters.iter().enumerate() {
        for c in &cluster.comps {
            match first_cluster[c.index()] {
                Some(other) => {
                    let (a, b) = (find(&mut parent, cl), find(&mut parent, other));
                    // Root at the smaller index so group order is stable.
                    parent[a.max(b)] = a.min(b);
                }
                None => first_cluster[c.index()] = Some(cl),
            }
        }
    }
    let mut by_root: HashMap<usize, Vec<usize>> = HashMap::new();
    for cl in 0..clusters.len() {
        let root = find(&mut parent, cl);
        by_root.entry(root).or_default().push(cl);
    }
    let mut groups: Vec<(usize, Vec<usize>)> = by_root.into_iter().collect();
    groups.sort_unstable_by_key(|&(root, _)| root);
    groups.into_iter().map(|(_, g)| g).collect()
}

/// Solves one selection group: clusters in their original order, each
/// DP reading earlier assignments from `local` and merging its results
/// back. Exposed (hidden) for the allocation regression test: with a
/// warm `local` and `scratch`, it performs zero allocations.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn solve_group(
    tech: &Tech,
    engine: &DrcEngine<'_>,
    design: &Design,
    comp_uniq: &[Option<UniqueInstanceId>],
    uniq: &[UniqueInstanceAccess],
    reach: Dbu,
    far: Dbu,
    clusters: &[Cluster],
    group: &[usize],
    local: &mut HashMap<usize, Option<usize>>,
    scratch: &mut SelectScratch,
) -> SelectTelemetry {
    let mut tel = SelectTelemetry::default();
    for &cl in group {
        solve_cluster(
            tech,
            engine,
            design,
            comp_uniq,
            uniq,
            reach,
            far,
            &clusters[cl],
            local,
            scratch,
            &mut tel,
        );
        for &(ci, sel) in &scratch.emit {
            local.entry(ci).or_insert(sel);
        }
    }
    tel
}

/// Runs the Algorithm 2 DP on one cluster against the pinned overlay:
/// components present in `pinned` are constrained to that value,
/// everything else is free. Members all have patterns, so the fallback
/// for a member the DP cannot place is its default, the best (first)
/// pattern. Results are emitted into
/// `s.emit` as `(component index, assignment)` pairs; the caller merges
/// them with `or_insert` (equivalent to overwriting: an already-present
/// component is pinned, so the DP can only re-emit its existing value).
#[allow(clippy::too_many_arguments)]
fn solve_cluster(
    tech: &Tech,
    engine: &DrcEngine<'_>,
    design: &Design,
    comp_uniq: &[Option<UniqueInstanceId>],
    uniq: &[UniqueInstanceAccess],
    reach: Dbu,
    far: Dbu,
    cluster: &Cluster,
    pinned: &HashMap<usize, Option<usize>>,
    s: &mut SelectScratch,
    tel: &mut SelectTelemetry,
) {
    let SelectScratch {
        ctx,
        members,
        laps_by_p,
        raps,
        order,
        dp,
        emit,
    } = s;
    emit.clear();
    let offset_of = |comp: CompId, u: &UniqueInstanceAccess| -> Point {
        design.component(comp).location - design.component(u.info.rep).location
    };
    // Members paired with their unique-instance index; the filter
    // guarantees every retained member resolves, so no lookup below can
    // fail.
    members.clear();
    members.extend(cluster.comps.iter().filter_map(|&c| {
        let ui = comp_uniq[c.index()]?;
        (!uniq[ui.index()].patterns.is_empty()).then_some((c, ui.index() as u32))
    }));
    if members.len() < 2 {
        for &(m, _) in members.iter() {
            // Keep the current assignment (earlier cluster's choice if
            // any — `or_insert` at the merge — else the default).
            emit.push((m.index(), Some(0)));
        }
        return;
    }
    let n = members.len();
    // Snapshots for the per-cluster pruning aggregate emitted below.
    let (pruned_before, far_before) = (tel.edges_pruned, tel.pairs_far);
    // dp[i][p]: min cost selecting pattern p for member i (grow-only;
    // stale rows beyond `n` are never read).
    while dp.len() < n {
        dp.push(Vec::new());
    }
    for (i, &(_, ui)) in members.iter().enumerate() {
        dp[i].clear();
        dp[i].resize(uniq[ui as usize].patterns.len(), (i64::MAX, usize::MAX));
    }
    let allowed = |ci: CompId, p: usize| -> bool {
        match pinned.get(&ci.index()) {
            Some(&sel) => sel == Some(p),
            None => true,
        }
    };
    {
        let (c0, ui) = members[0];
        let u = &uniq[ui as usize];
        for (p, cell) in dp[0].iter_mut().enumerate() {
            if allowed(c0, p) {
                cell.0 = u.patterns[p].cost;
            }
        }
    }
    for i in 1..n {
        let ((lcomp, lui), (rcomp, rui)) = (members[i - 1], members[i]);
        let (lu, ru) = (&uniq[lui as usize], &uniq[rui as usize]);
        let loff = offset_of(lcomp, lu);
        let roff = offset_of(rcomp, ru);
        // The shared boundary: left instance's right edge (members carry
        // analyzed data, so their master is known; 0-width fallback keeps
        // this panic-free regardless).
        let lwidth = design
            .component(lcomp)
            .master_in(tech)
            .map_or(0, |m| m.width);
        let boundary = design.component(lcomp).location.x + lwidth;
        let (head, tail) = dp.split_at_mut(i);
        let prev = &head[i - 1];
        while laps_by_p.len() < prev.len() {
            laps_by_p.push(Vec::new());
        }
        // Reachable predecessors sorted by (cost, pattern): the left-side
        // near-boundary vias depend only on `p`, so they are collected
        // once per pair, and the ascending cost order lets the inner loop
        // stop at the running best (edge cost is never negative).
        order.clear();
        for (p, &(pcost, _)) in prev.iter().enumerate() {
            if pcost != i64::MAX {
                order.push((pcost, p));
                near_boundary_vias_into(lu, p, loff, boundary, reach, &mut laps_by_p[p]);
            }
        }
        order.sort_unstable();
        if order.is_empty() {
            continue; // over-constrained: dp[i] stays unreachable
        }
        for (q, cell) in tail[0].iter_mut().enumerate() {
            if !allowed(rcomp, q) {
                continue;
            }
            let qcost = ru.patterns[q].cost;
            near_boundary_vias_into(ru, q, roff, boundary, reach, raps);
            if raps.is_empty() {
                // No right-side via near the boundary: every edge into q
                // is trivially clean and the cheapest predecessor wins.
                let (pcost, p) = order[0];
                tel.edges_pruned += order.len() as u64 - 1;
                *cell = (pcost.saturating_add(qcost), p);
                continue;
            }
            for (k, &(pcost, p)) in order.iter().enumerate() {
                let base = pcost.saturating_add(qcost);
                if base >= cell.0 {
                    // Later candidates cost at least this much before the
                    // (non-negative) edge term: provably dominated.
                    tel.edges_pruned += (order.len() - k) as u64;
                    break;
                }
                if laps_by_p[p].is_empty() {
                    // No left-side via near the boundary: clean edge.
                    *cell = (base, p);
                    continue;
                }
                tel.edges += 1;
                let clean = edge_clean(tech, engine, &laps_by_p[p], raps, far, ctx, tel);
                if !clean && pao_obs::ledger_enabled() {
                    ledger::record(
                        LedgerRecord::new(
                            LedgerEvent::SelectEdgeDirty,
                            (u64::from(lcomp.0) << 32) | u64::from(rcomp.0),
                            p as u32,
                        )
                        .with_aux(q as u32),
                    );
                }
                let cost = if clean {
                    base
                } else {
                    base.saturating_add(DRC_COST)
                };
                if cost < cell.0 {
                    *cell = (cost, p);
                }
            }
        }
    }
    // One aggregate record per cluster: how much of this DP the distance
    // and cost bounds skipped. Per-cluster counts depend only on the
    // cluster's own edge sequence, so the record is thread-invariant.
    if pao_obs::ledger_enabled() {
        let (pruned_d, far_d) = (tel.edges_pruned - pruned_before, tel.pairs_far - far_before);
        if pruned_d > 0 || far_d > 0 {
            ledger::record(
                LedgerRecord::new(
                    LedgerEvent::SelectPruned,
                    u64::from(members[0].0 .0),
                    far_d as u32,
                )
                .with_aux(pruned_d as u32),
            );
        }
    }
    // Traceback (dp is grow-only, so index by member count, not len()).
    let Some((mut best_p, _)) = dp[n - 1]
        .iter()
        .enumerate()
        .filter(|(_, c)| c.0 < i64::MAX)
        .min_by_key(|&(_, c)| c.0)
    else {
        // Over-constrained (pinned members conflict): keep assignments.
        for &(m, _) in members.iter() {
            emit.push((m.index(), Some(0)));
        }
        return;
    };
    for i in (0..n).rev() {
        emit.push((members[i].0.index(), Some(best_p)));
        if i > 0 {
            best_p = dp[i][best_p].1;
        }
    }
}

/// Probes one DP edge: every near-boundary via pair across the boundary
/// must be mutually DRC-clean. Pairs farther apart than `far` on either
/// axis cannot interact and are skipped; the first dirty pair settles the
/// verdict (the underlying audit already short-circuits per pair in
/// first-violation mode).
fn edge_clean(
    tech: &Tech,
    engine: &DrcEngine<'_>,
    laps: &[(ViaId, Point)],
    raps: &[(ViaId, Point)],
    far: Dbu,
    ctx: &mut ShapeSet,
    tel: &mut SelectTelemetry,
) -> bool {
    for &(lv, lp) in laps {
        for &(rv, rp) in raps {
            if (lp.x - rp.x).abs() > far || (lp.y - rp.y).abs() > far {
                tel.pairs_far += 1;
                continue;
            }
            tel.probes += 1;
            if !vias_compatible(tech, engine, lv, lp, rv, rp, ctx) {
                return false;
            }
        }
    }
    true
}

/// The original stripe-by-stripe scan: every component is tested once
/// per stripe. Kept as the reference [`build_clusters`] must match.
#[cfg(test)]
pub(crate) fn build_clusters_reference(tech: &Tech, design: &Design) -> Vec<Cluster> {
    let mut stripes: Vec<(Dbu, Dbu)> = design.rows.iter().map(|r| (r.origin.y, r.height)).collect();
    if stripes.is_empty() {
        let mut ys: Vec<(Dbu, Dbu)> = design
            .components()
            .iter()
            .filter(|c| c.master_in(tech).is_some())
            .map(|c| {
                let h = c.master_in(tech).map_or(0, |m| m.height);
                (c.location.y, h)
            })
            .collect();
        ys.sort_unstable();
        ys.dedup();
        stripes = ys;
    }
    stripes.sort_unstable();
    stripes.dedup();

    let boxes: Vec<Option<Rect>> = (0..design.components().len())
        .map(|i| comp_bbox(tech, design, CompId(i as u32)))
        .collect();

    let mut out = Vec::new();
    for &(y, h) in &stripes {
        let h = h.max(1);
        // Members whose bbox covers this stripe.
        let mut insts: Vec<(Dbu, Dbu, CompId)> = boxes
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let b = (*b)?;
                (b.ylo() <= y && b.yhi() >= y + h).then_some((b.xlo(), b.xhi(), CompId(i as u32)))
            })
            .collect();
        insts.sort_unstable();
        form_clusters(&insts, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pao_design::Component;
    use pao_geom::Orient;
    use pao_tech::{Layer, Macro};

    fn tech() -> Tech {
        let mut t = Tech::new(1000);
        t.add_layer(Layer::routing("M1", pao_geom::Dir::Horizontal, 200, 60, 70));
        t.add_macro(Macro::new("INVX1", 400, 1400));
        t.add_macro(Macro::new("NAND2X1", 600, 1400));
        let mut mh = Macro::new("DFF2MH", 800, 2800);
        mh.class = pao_tech::MacroClass::Core;
        t.add_macro(mh);
        t
    }

    #[test]
    fn clusters_split_on_gaps_and_rows() {
        let t = tech();
        let mut d = Design::new("x", Rect::new(0, 0, 100_000, 10_000));
        d.add_component(Component::new("u0", "INVX1", Point::new(0, 0), Orient::N));
        d.add_component(Component::new(
            "u1",
            "NAND2X1",
            Point::new(400, 0),
            Orient::N,
        ));
        d.add_component(Component::new(
            "u2",
            "INVX1",
            Point::new(1400, 0),
            Orient::N,
        ));
        d.add_component(Component::new(
            "u3",
            "INVX1",
            Point::new(0, 1400),
            Orient::N,
        ));
        let clusters = build_clusters(&t, &d);
        assert_eq!(clusters.len(), 3);
        assert_eq!(clusters[0].comps, vec![CompId(0), CompId(1)]);
        assert_eq!(clusters[1].comps, vec![CompId(2)]);
        assert_eq!(clusters[2].comps, vec![CompId(3)]);
    }

    #[test]
    fn multi_height_cells_join_every_covered_row() {
        let t = tech();
        let mut d = Design::new("x", Rect::new(0, 0, 100_000, 10_000));
        // Rows at 0 and 1400; the MH cell covers both.
        d.rows.push(pao_design::Row::new(
            "r0",
            "core",
            Point::new(0, 0),
            Orient::N,
            100,
            400,
            1400,
        ));
        d.rows.push(pao_design::Row::new(
            "r1",
            "core",
            Point::new(0, 1400),
            Orient::FS,
            100,
            400,
            1400,
        ));
        let mh = d.add_component(Component::new("mh", "DFF2MH", Point::new(0, 0), Orient::N));
        let lo = d.add_component(Component::new("lo", "INVX1", Point::new(800, 0), Orient::N));
        let hi = d.add_component(Component::new(
            "hi",
            "INVX1",
            Point::new(800, 1400),
            Orient::FS,
        ));
        let clusters = build_clusters(&t, &d);
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].comps, vec![mh, lo]);
        assert_eq!(clusters[1].comps, vec![mh, hi]);
    }

    #[test]
    fn overlapping_cells_share_a_cluster() {
        let t = tech();
        let mut d = Design::new("x", Rect::new(0, 0, 100_000, 10_000));
        // u1 overlaps u0; u2 starts inside u1's span only via u0's
        // wider right edge (max-xhi chaining), u3 is detached.
        d.add_component(Component::new("u0", "NAND2X1", Point::new(0, 0), Orient::N));
        d.add_component(Component::new("u1", "INVX1", Point::new(100, 0), Orient::N));
        d.add_component(Component::new("u2", "INVX1", Point::new(600, 0), Orient::N));
        d.add_component(Component::new(
            "u3",
            "INVX1",
            Point::new(1100, 0),
            Orient::N,
        ));
        let clusters = build_clusters(&t, &d);
        assert_eq!(clusters, build_clusters_reference(&t, &d));
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].comps, vec![CompId(0), CompId(1), CompId(2)]);
        assert_eq!(clusters[1].comps, vec![CompId(3)]);
    }

    #[test]
    fn bucketed_build_matches_reference_on_unit_cases() {
        let t = tech();
        // Multi-height with ROW statements, plus an off-row cell.
        let mut d = Design::new("x", Rect::new(0, 0, 100_000, 10_000));
        for (i, orient) in [Orient::N, Orient::FS, Orient::N].into_iter().enumerate() {
            d.rows.push(pao_design::Row::new(
                format!("r{i}"),
                "core",
                Point::new(0, 1400 * i as i64),
                orient,
                100,
                400,
                1400,
            ));
        }
        d.add_component(Component::new("mh", "DFF2MH", Point::new(0, 0), Orient::N));
        d.add_component(Component::new(
            "mh2",
            "DFF2MH",
            Point::new(800, 1400),
            Orient::N,
        ));
        d.add_component(Component::new("lo", "INVX1", Point::new(800, 0), Orient::N));
        d.add_component(Component::new(
            "hi",
            "INVX1",
            Point::new(0, 2800),
            Orient::N,
        ));
        d.add_component(Component::new(
            "off",
            "INVX1",
            Point::new(5000, 700),
            Orient::N,
        ));
        let mut unplaced = Component::new("un", "INVX1", Point::new(2000, 0), Orient::N);
        unplaced.is_placed = false;
        d.add_component(unplaced);
        assert_eq!(build_clusters(&t, &d), build_clusters_reference(&t, &d));
        // The same placement with stripes taken from the boxes.
        d.rows.clear();
        assert_eq!(build_clusters(&t, &d), build_clusters_reference(&t, &d));
    }

    #[test]
    fn bucketed_build_matches_reference_on_suite_cases() {
        let mut cases = pao_testgen::ispd18s_suite();
        cases.push(pao_testgen::aes14_case());
        cases.push(pao_testgen::SuiteCase::small_smoke());
        for case in cases {
            let (t, d) = pao_testgen::generate(&case);
            assert_eq!(
                build_clusters(&t, &d),
                build_clusters_reference(&t, &d),
                "{}",
                case.name
            );
        }
    }

    #[test]
    fn relocated_index_matches_a_fresh_build() {
        let (t, mut d) = pao_testgen::generate(&pao_testgen::SuiteCase::small_smoke());
        let mut index = RowIndex::build(&t, &d);
        assert!(index.is_fixed());
        let mut rng = pao_ptest::Rng::new(7);
        for _ in 0..40 {
            let ci = CompId(rng.gen_range(0..d.components().len()) as u32);
            let from = comp_bbox(&t, &d, ci);
            let dx = rng.gen_range(-3i64..=3) * 100;
            let dy = rng.gen_range(-1i64..=1) * 700;
            d.component_mut(ci).location += Point::new(dx, dy);
            index.relocate(ci, from, comp_bbox(&t, &d, ci));
            assert_eq!(index.clusters(), build_clusters_reference(&t, &d));
        }
        // `near` agrees with a brute-force box scan.
        let bbox = |c: CompId| comp_bbox(&t, &d, c);
        for _ in 0..40 {
            let x = rng.gen_range(0i64..40_000);
            let y = rng.gen_range(0i64..40_000);
            let w = Rect::new(
                x,
                y,
                x + rng.gen_range(0i64..3000),
                y + rng.gen_range(0i64..3000),
            );
            assert_eq!(near_sorted(&index, w, &bbox), touching(&d, w, &bbox));
        }
    }

    /// [`RowIndex::near`] with the box test, sorted and deduplicated.
    fn near_sorted(
        index: &RowIndex,
        w: Rect,
        bbox: &impl Fn(CompId) -> Option<Rect>,
    ) -> Vec<CompId> {
        let mut got = Vec::new();
        index.near(w, |c| bbox(c).is_some_and(|b| b.touches(w)), &mut got);
        got.sort_unstable();
        got.dedup();
        got
    }

    /// Every component of `d` whose box touches `w`, by brute force.
    fn touching(d: &Design, w: Rect, bbox: &impl Fn(CompId) -> Option<Rect>) -> Vec<CompId> {
        (0..d.components().len())
            .map(|i| CompId(i as u32))
            .filter(|&c| bbox(c).is_some_and(|b| b.touches(w)))
            .collect()
    }

    /// Random placements on and off rows, with multi-height cells and
    /// macros up to 30 rows tall in every orientation: `near` equals a
    /// brute-force box scan before and after moves, off-row and tall
    /// members land in the side list, and the stripe scan's reach counts
    /// neither.
    #[test]
    fn near_matches_brute_force_with_loose_and_tall_members() {
        let mut t = tech();
        t.add_macro(Macro::new("RAM8", 4000, 1400 * 8));
        t.add_macro(Macro::new("RAM30", 6000, 1400 * 30));
        let masters = ["INVX1", "NAND2X1", "DFF2MH", "RAM8", "RAM30", "GHOST"];
        let orients = [
            Orient::N,
            Orient::S,
            Orient::FN,
            Orient::FS,
            Orient::E,
            Orient::W,
        ];
        pao_ptest::check("cluster.near_side_list", 24, |rng| {
            let mut d = Design::new("x", Rect::new(0, 0, 200_000, 100_000));
            for r in 0..40 {
                d.rows.push(pao_design::Row::new(
                    format!("r{r}"),
                    "core",
                    Point::new(0, 1400 * r),
                    Orient::N,
                    500,
                    400,
                    1400,
                ));
            }
            for i in 0..rng.gen_range(1..=120usize) {
                let master = masters[rng.gen_range(0..masters.len())];
                let x = rng.gen_range(0i64..500) * 400;
                // One placement in four is off-row.
                let y = match rng.gen_range(0..4u32) {
                    0 => rng.gen_range(0i64..56_000),
                    _ => rng.gen_range(0i64..40) * 1400,
                };
                let orient = orients[rng.gen_range(0..orients.len())];
                let mut c = Component::new(format!("c{i}"), master, Point::new(x, y), orient);
                c.is_placed = rng.gen_range(0..10u32) > 0;
                d.add_component(c);
            }
            let mut index = RowIndex::build(&t, &d);
            let bbox = |c: CompId| comp_bbox(&t, &d, c);
            let mut covered = Vec::new();
            let mut other_h = 0;
            for ci in 0..d.components().len() {
                let comp = CompId(ci as u32);
                let Some(b) = bbox(comp) else { continue };
                index.covered_into(b, &mut covered);
                let side = index.side().iter().any(|&(_, _, c)| c == comp);
                assert_eq!(side, index.on_side(b, &covered), "{comp}");
                assert_eq!(side, covered.is_empty() || b.height() > 1400 * 4, "{comp}");
                if !side {
                    other_h = other_h.max(b.height());
                }
            }
            assert_eq!(index.max_h, other_h);
            let window = |rng: &mut pao_ptest::Rng| {
                let (x, y) = (rng.gen_range(0i64..200_000), rng.gen_range(0i64..60_000));
                Rect::new(
                    x,
                    y,
                    x + rng.gen_range(0i64..4000),
                    y + rng.gen_range(0i64..4000),
                )
            };
            for _ in 0..20 {
                let w = window(rng);
                assert_eq!(near_sorted(&index, w, &bbox), touching(&d, w, &bbox));
            }
            // Moves between rows, off rows and back keep it exact.
            let mut d = d.clone();
            for _ in 0..20 {
                let ci = CompId(rng.gen_range(0..d.components().len()) as u32);
                let from = comp_bbox(&t, &d, ci);
                d.component_mut(ci).location = match rng.gen_range(0..3u32) {
                    0 => Point::new(rng.gen_range(0i64..200_000), rng.gen_range(0i64..56_000)),
                    _ => Point::new(
                        rng.gen_range(0i64..500) * 400,
                        rng.gen_range(0i64..40) * 1400,
                    ),
                };
                let to = comp_bbox(&t, &d, ci);
                index.relocate(ci, from, to);
                let bbox = |c: CompId| comp_bbox(&t, &d, c);
                let w = window(rng);
                assert_eq!(near_sorted(&index, w, &bbox), touching(&d, w, &bbox));
            }
            assert_eq!(index.clusters(), build_clusters_reference(&t, &d));
        });
    }

    #[test]
    fn unknown_masters_ignored() {
        let t = tech();
        let mut d = Design::new("x", Rect::new(0, 0, 100_000, 10_000));
        d.add_component(Component::new("g", "GHOST", Point::new(0, 0), Orient::N));
        assert!(build_clusters(&t, &d).is_empty());
    }

    #[test]
    fn conflict_reach_covers_vias_and_spacing() {
        let mut t = tech();
        assert_eq!(conflict_reach(&t), 70); // no vias: just spacing
        t.add_via(pao_tech::ViaDef::new(
            "v",
            pao_tech::LayerId(0),
            vec![Rect::new(-65, -30, 65, 30)],
            pao_tech::LayerId(0),
            vec![Rect::new(-25, -25, 25, 25)],
            pao_tech::LayerId(0),
            vec![Rect::new(-30, -65, 30, 65)],
        ));
        assert_eq!(conflict_reach(&t), 130 + 70);
    }
}
