//! Pin-based access point generation (paper Section III-A, Algorithm 1).

use crate::coord::CoordType;
use crate::persist::RejectTally;
use crate::share::{CandidateKey, VerdictTable};
use crate::unique::local_pin_owner;
use pao_design::{Design, TrackPattern};
use pao_drc::{DrcEngine, DrcScratch, DrcSink, Owner, RejectInfo, ShapeSet};
use pao_geom::{max_rects_into, Dbu, Dir, GridScratch, Point, Rect};
use pao_obs::{ledger, LedgerEvent, LedgerRecord};
use pao_tech::{LayerId, Tech, ViaId};
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// Ledger tag for "rejected, but no rule attribution exists" — a pin with no
/// up-via at all, or a planar-only failure. Distinct from every packed
/// `(rule << 8) | subcheck` tag (rule codes stop far below `0xFF`).
const TAG_NO_VIA: u16 = 0xFFFE;

/// Packs a DRC reject attribution into a storable tag.
fn pack_reject(info: Option<RejectInfo>) -> u16 {
    info.map_or(TAG_NO_VIA, |i| {
        (u16::from(i.rule.code()) << 8) | u16::from(i.subcheck.code())
    })
}

/// A planar (same-layer) escape direction stored on an access point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanarDir {
    /// Toward +x.
    East,
    /// Toward −x.
    West,
    /// Toward +y.
    North,
    /// Toward −y.
    South,
}

impl PlanarDir {
    /// All four directions.
    pub const ALL: [PlanarDir; 4] = [
        PlanarDir::East,
        PlanarDir::West,
        PlanarDir::North,
        PlanarDir::South,
    ];
}

impl fmt::Display for PlanarDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PlanarDir::East => "E",
            PlanarDir::West => "W",
            PlanarDir::North => "N",
            PlanarDir::South => "S",
        };
        f.write_str(s)
    }
}

/// A validated access point: an x-y coordinate on a metal layer where the
/// detailed router may end routing for a pin (paper Section II-B).
///
/// `vias` lists every up-via that drops DRC-clean at this point; the first
/// entry is the **primary** via. `planar` lists the validated same-layer
/// escape directions. Positions are in the analysis frame of the unique
/// instance's representative; translate by the member-instance offset to
/// obtain die coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPoint {
    /// Position (representative-instance die frame).
    pub pos: Point,
    /// The metal layer accessed.
    pub layer: LayerId,
    /// Coordinate type along the layer's preferred direction.
    pub pref_type: CoordType,
    /// Coordinate type along the non-preferred direction.
    pub nonpref_type: CoordType,
    /// DRC-clean up-vias; `vias[0]` is the primary via.
    pub vias: Vec<ViaId>,
    /// Validated planar escape directions.
    pub planar: Vec<PlanarDir>,
}

impl AccessPoint {
    /// The primary (preferred) up-via, if any via is clean here.
    #[must_use]
    pub fn primary_via(&self) -> Option<ViaId> {
        self.vias.first().copied()
    }

    /// Combined coordinate-type cost (paper: the sum of the two types'
    /// costs; lower is better).
    #[must_use]
    pub fn type_cost(&self) -> u32 {
        self.pref_type.cost() + self.nonpref_type.cost()
    }

    /// `true` when either coordinate is off-track.
    #[must_use]
    pub fn is_off_track(&self) -> bool {
        self.pref_type.is_off_track() || self.nonpref_type.is_off_track()
    }
}

/// Configuration for Algorithm 1.
#[derive(Debug, Clone)]
pub struct ApGenConfig {
    /// Early-termination threshold `k`: stop once at least this many valid
    /// access points exist (paper: 3 for both standard and macro pins).
    pub k: usize,
    /// Coordinate types enumerated along the preferred direction.
    pub pref_types: Vec<CoordType>,
    /// Coordinate types enumerated along the non-preferred direction.
    pub nonpref_types: Vec<CoordType>,
    /// Require a DRC-clean up-via for validity (paper: on for standard
    /// cells, where via access is strongly preferred over planar).
    pub require_via: bool,
    /// Length of the probe wire used to validate planar escapes, in units
    /// of the layer pitch.
    pub planar_pitches: Dbu,
}

impl Default for ApGenConfig {
    fn default() -> ApGenConfig {
        ApGenConfig {
            k: 3,
            pref_types: CoordType::PREFERRED.to_vec(),
            nonpref_types: CoordType::NON_PREFERRED.to_vec(),
            require_via: true,
            planar_pitches: 2,
        }
    }
}

/// The span of a rectangle along the coordinate axis governed by tracks of
/// wire direction `track_dir`: horizontal tracks hold *y* coordinates,
/// vertical tracks hold *x* coordinates.
fn coord_span(rect: Rect, track_dir: Dir) -> (Dbu, Dbu) {
    match track_dir {
        Dir::Horizontal => (rect.ylo(), rect.yhi()),
        Dir::Vertical => (rect.xlo(), rect.xhi()),
    }
}

/// Slot of a wire direction in [`LayerPlan::governing`].
fn dir_slot(dir: Dir) -> usize {
    match dir {
        Dir::Horizontal => 0,
        Dir::Vertical => 1,
    }
}

/// The inputs of Algorithm 1 that depend only on the tech and the
/// design's track patterns, computed once per analysis instead of once
/// per candidate: each layer's up-vias and the track patterns governing
/// each of its coordinates.
#[derive(Debug)]
pub(crate) struct ApgenPlan<'d> {
    layers: Vec<LayerPlan<'d>>,
}

/// One layer's entry in an [`ApgenPlan`].
#[derive(Debug)]
struct LayerPlan<'d> {
    /// [`Tech::up_vias_from`] the layer.
    up_vias: Vec<ViaId>,
    /// Track patterns governing one coordinate of a pin on the layer,
    /// per wire direction of the governing tracks ([`dir_slot`]).
    ///
    /// Per the paper, the non-preferred-direction coordinates of a layer
    /// use the **upper layer's preferred-direction tracks**, so on-track
    /// up-vias align with both layers. Falls back to same-layer patterns
    /// when the upper layer has none.
    governing: [Vec<&'d TrackPattern>; 2],
}

impl<'d> ApgenPlan<'d> {
    pub(crate) fn new(tech: &Tech, design: &'d Design) -> ApgenPlan<'d> {
        let layers = (0..tech.layers().len())
            .map(|i| {
                let layer = LayerId(i as u32);
                let governing = [Dir::Horizontal, Dir::Vertical].map(|track_dir| {
                    let own = design.track_patterns_for(layer, track_dir);
                    if tech.layer(layer).dir == track_dir {
                        return own;
                    }
                    // Non-preferred coordinate: prefer the upper routing
                    // layer's tracks.
                    match tech.routing_layer_above(layer) {
                        Some(up) => {
                            let up_pats = design.track_patterns_for(up, track_dir);
                            if up_pats.is_empty() {
                                own
                            } else {
                                up_pats
                            }
                        }
                        None => own,
                    }
                });
                LayerPlan {
                    up_vias: tech.up_vias_from(layer),
                    governing,
                }
            })
            .collect();
        ApgenPlan { layers }
    }

    /// The up-vias of `layer`, in [`Tech::up_vias_from`] order.
    pub(crate) fn up_vias(&self, layer: LayerId) -> &[ViaId] {
        &self.layers[layer.index()].up_vias
    }
}

/// Track coordinates within `[lo, hi]` of the governing patterns `pats`
/// (half-track midpoints when `half`), appended to `out`, sorted and
/// deduplicated.
fn governing_coords_into(pats: &[&TrackPattern], half: bool, lo: Dbu, hi: Dbu, out: &mut Vec<Dbu>) {
    for p in pats {
        out.extend(if half {
            p.half_track_coords_in(lo, hi)
        } else {
            p.coords_in(lo, hi)
        });
    }
    out.sort_unstable();
    out.dedup();
}

/// Candidate coordinates of one type within a pin rectangle's span, for
/// governing tracks of wire direction `track_dir`, written into the
/// reused buffer `out` (cleared first).
fn candidate_coords_into(
    tech: &Tech,
    lp: &LayerPlan<'_>,
    track_dir: Dir,
    ty: CoordType,
    rect: Rect,
    out: &mut Vec<Dbu>,
) {
    out.clear();
    let (lo, hi) = coord_span(rect, track_dir);
    let pats = &lp.governing[dir_slot(track_dir)];
    match ty {
        CoordType::OnTrack => governing_coords_into(pats, false, lo, hi, out),
        CoordType::HalfTrack => governing_coords_into(pats, true, lo, hi, out),
        CoordType::ShapeCenter => {
            // Paper: skip shape-center when the span touches at least two
            // tracks, to reduce unique off-track coordinates.
            governing_coords_into(pats, false, lo, hi, out);
            let on_track = out.len();
            out.clear();
            if on_track < 2 {
                out.push(lo + (hi - lo) / 2);
            }
        }
        CoordType::EnclosureBoundary => {
            // Align the via's bottom enclosure with the shape boundary.
            for &vid in &lp.up_vias {
                let bb = tech.via(vid).bottom_bbox();
                let (blo, bhi) = coord_span(bb, track_dir);
                for c in [lo - blo, hi - bhi] {
                    if c >= lo && c <= hi {
                        out.push(c);
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
        }
    }
}

/// Up-vias a [`Verdict`] can describe, one mask bit each. Candidates on a
/// layer with more up-vias are probed every time instead of shared.
const VERDICT_VIAS: usize = 32;

/// One candidate's complete validation outcome in eight bytes: bit `i` of
/// `vias` is set when the layer's `i`-th up-via drops clean, bit `d` of
/// `planar` when the escape [`PlanarDir::ALL`]`[d]` is clean, and
/// `reject` holds the first dirty via's tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Verdict {
    vias: u32,
    reject: u16,
    planar: u8,
}

impl Verdict {
    /// A verdict with every up-via and escape in `vias`/`planar` clean
    /// (test fixtures for the shared table).
    #[cfg(test)]
    pub(crate) fn clean(vias: u32, planar: u8) -> Verdict {
        Verdict {
            vias,
            reject: TAG_NO_VIA,
            planar,
        }
    }
}

/// Where Algorithm 1 reads candidate verdicts from.
///
/// A verdict depends only on the intra-cell context, which holds the
/// cell's own shapes — identical up to translation for every unique
/// instance of one (master, orientation) — and the DRC kernel reads only
/// relative geometry. So each instance probes in the frame of its class:
/// the class context `ctx` (built from one representative) at the
/// candidate position minus `delta`, the offset of the instance's frame
/// against the class frame. With a `table`, each distinct candidate of
/// the class is probed once and every repeat is a lookup; without one
/// every candidate is probed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VerdictSource<'a> {
    /// Intra-cell DRC context in the class frame.
    pub(crate) ctx: &'a ShapeSet,
    /// Instance frame minus class frame.
    pub(crate) delta: Point,
    /// The verdicts shared by the class, and the class id keying them.
    pub(crate) table: Option<(&'a VerdictTable, u32)>,
}

impl<'a> VerdictSource<'a> {
    /// Probes every candidate against `ctx`, in its own frame.
    pub(crate) fn direct(ctx: &'a ShapeSet) -> VerdictSource<'a> {
        VerdictSource {
            ctx,
            delta: Point::ORIGIN,
            table: None,
        }
    }
}

/// Reusable scratch state for Algorithm 1, shared across the pins of one
/// unique instance.
///
/// The candidate loop allocates nothing per candidate: coordinate, via
/// and escape buffers recycle, and the tallies are plain integer adds
/// published once per instance by [`flush_obs`](ApScratch::flush_obs).
#[derive(Debug, Default)]
pub struct ApScratch {
    /// Positions already enumerated for the current pin (cleared per pin).
    seen: HashSet<(LayerId, Point)>,
    /// Tag describing why the last validated candidate was rejected (the
    /// first dirty via's tag, or [`TAG_NO_VIA`]).
    reject_tag: u16,
    /// Ledger entity base (`unique_instance << 16`) OR-ed with the pin
    /// index on emitted records; set by the oracle per instance.
    entity_base: u64,
    /// Workspace of the early-exit DRC kernel (translated via shapes,
    /// merge fixpoint, grid buffers) plus its probe tallies.
    pub(crate) drc: DrcScratch,
    vias_buf: Vec<ViaId>,
    planar_buf: Vec<PlanarDir>,
    pref_coords: Vec<Dbu>,
    nonpref_coords: Vec<Dbu>,
    /// Maximal rectangles of the pin's shapes on the current layer, and
    /// the grid workspace that computes them.
    maxes: Vec<Rect>,
    grid: GridScratch,
    /// Observability tallies (plain integer adds in the hot loop; the
    /// oracle publishes them via [`flush_obs`](ApScratch::flush_obs)
    /// once per instance).
    memo_hits: u64,
    memo_misses: u64,
    planar_probes: u64,
    validated: u64,
    /// Candidates tried/accepted per coordinate-type pair, indexed by
    /// `pref.cost() * 4 + nonpref.cost()`.
    tried: [u64; 16],
    accepted: [u64; 16],
    /// Rejected candidates per `(pin, rule code, sub-check code)`, tallied
    /// beside the decision ledger's records while it is on: the reject
    /// histograms a stored analysis keeps.
    rejects: BTreeMap<(usize, u8, u8), u64>,
}

/// Counter names per coordinate-type pair (`<pref>_<nonpref>` with the
/// paper's cost order track < half < center < encl), indexed like
/// [`ApScratch::tried`].
static TRIED_NAMES: [&str; 16] = [
    "apgen.tried.track_track",
    "apgen.tried.track_half",
    "apgen.tried.track_center",
    "apgen.tried.track_encl",
    "apgen.tried.half_track",
    "apgen.tried.half_half",
    "apgen.tried.half_center",
    "apgen.tried.half_encl",
    "apgen.tried.center_track",
    "apgen.tried.center_half",
    "apgen.tried.center_center",
    "apgen.tried.center_encl",
    "apgen.tried.encl_track",
    "apgen.tried.encl_half",
    "apgen.tried.encl_center",
    "apgen.tried.encl_encl",
];

/// Counter names for accepted candidates, indexed like [`TRIED_NAMES`].
static ACCEPTED_NAMES: [&str; 16] = [
    "apgen.accepted.track_track",
    "apgen.accepted.track_half",
    "apgen.accepted.track_center",
    "apgen.accepted.track_encl",
    "apgen.accepted.half_track",
    "apgen.accepted.half_half",
    "apgen.accepted.half_center",
    "apgen.accepted.half_encl",
    "apgen.accepted.center_track",
    "apgen.accepted.center_half",
    "apgen.accepted.center_center",
    "apgen.accepted.center_encl",
    "apgen.accepted.encl_track",
    "apgen.accepted.encl_half",
    "apgen.accepted.encl_center",
    "apgen.accepted.encl_encl",
];

impl ApScratch {
    /// Creates empty scratch state.
    #[must_use]
    pub fn new() -> ApScratch {
        ApScratch::default()
    }

    /// Sets the unique-instance id stamped on ledger records emitted by
    /// this scratch (entity = `instance << 16 | pin_idx`).
    pub fn set_ledger_instance(&mut self, instance: u64) {
        self.entity_base = instance << 16;
    }

    /// Drains the reject tallies into per-pin `(rule, sub-check, count)`
    /// lists, in code order, for a master with `pins` pins.
    pub(crate) fn take_rejects(&mut self, pins: usize) -> Vec<Vec<RejectTally>> {
        let mut out = vec![Vec::new(); pins];
        for ((pin, rule, sub), n) in std::mem::take(&mut self.rejects) {
            out[pin].push((rule, sub, n));
        }
        out
    }

    /// Publishes the accumulated tallies as `apgen.*` counters and zeroes
    /// them. The oracle calls this once per analyzed instance; between
    /// calls the hot loop pays only plain integer adds.
    pub fn flush_obs(&mut self) {
        if pao_obs::metrics_enabled() {
            pao_obs::counter_add("apgen.via_memo.hits", self.memo_hits);
            pao_obs::counter_add("apgen.via_memo.misses", self.memo_misses);
            pao_obs::counter_add("apgen.planar_probes", self.planar_probes);
            pao_obs::counter_add("apgen.validated", self.validated);
            for i in 0..16 {
                pao_obs::counter_add(TRIED_NAMES[i], self.tried[i]);
                pao_obs::counter_add(ACCEPTED_NAMES[i], self.accepted[i]);
            }
        }
        self.memo_hits = 0;
        self.memo_misses = 0;
        self.planar_probes = 0;
        self.validated = 0;
        self.tried = [0; 16];
        self.accepted = [0; 16];
        self.drc.flush_obs();
    }

    /// Probes one candidate at `at` against `ctx` — every up-via, then
    /// the four planar escapes — and leaves the clean vias, the clean
    /// escapes and the reject tag in the buffers. Returns the same
    /// outcome as a compact [`Verdict`].
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &mut self,
        tech: &Tech,
        engine: &DrcEngine<'_>,
        ctx: &ShapeSet,
        owner: Owner,
        layer: LayerId,
        at: Point,
        up_vias: &[ViaId],
        planar_len: Dbu,
    ) -> Verdict {
        self.validated += 1;
        self.vias_buf.clear();
        self.reject_tag = TAG_NO_VIA;
        let mut vias = 0u32;
        for (i, &vid) in up_vias.iter().enumerate() {
            self.memo_misses += 1;
            if engine.via_placement_clean(tech.via(vid), at, owner, ctx, &mut self.drc) {
                self.vias_buf.push(vid);
                if i < VERDICT_VIAS {
                    vias |= 1 << i;
                }
            } else if self.reject_tag == TAG_NO_VIA {
                // First dirty via attributes the candidate's rejection
                // (up-via order is fixed, so this is deterministic).
                self.reject_tag = pack_reject(self.drc.last_reject());
            }
        }
        let width = tech.layer(layer).width;
        self.planar_buf.clear();
        let mut planar = 0u8;
        for (d, dir) in PlanarDir::ALL.into_iter().enumerate() {
            self.planar_probes += 1;
            let probe = planar_probe(at, dir, width, planar_len);
            if engine.check_shape(layer, probe, owner, ctx, &mut DrcSink::first()) {
                self.planar_buf.push(dir);
                planar |= 1 << d;
            }
        }
        Verdict {
            vias,
            reject: self.reject_tag,
            planar,
        }
    }

    /// Loads a shared verdict into the buffers exactly as
    /// [`probe`](ApScratch::probe) would have left them.
    fn load(&mut self, v: Verdict, up_vias: &[ViaId]) {
        self.memo_hits += up_vias.len() as u64;
        self.vias_buf.clear();
        self.vias_buf.extend(
            up_vias
                .iter()
                .enumerate()
                .filter(|&(i, _)| v.vias >> i & 1 == 1)
                .map(|(_, &vid)| vid),
        );
        self.planar_buf.clear();
        self.planar_buf.extend(
            PlanarDir::ALL
                .into_iter()
                .enumerate()
                .filter(|&(d, _)| v.planar >> d & 1 == 1)
                .map(|(_, dir)| dir),
        );
        self.reject_tag = v.reject;
    }

    /// Fills the buffers with the verdict of the candidate `(pin_idx,
    /// layer, pos)`: read from the class table when `src` shares one,
    /// probed otherwise (and then stored for the class).
    #[allow(clippy::too_many_arguments)]
    fn candidate(
        &mut self,
        tech: &Tech,
        engine: &DrcEngine<'_>,
        src: &VerdictSource<'_>,
        up_vias: &[ViaId],
        cfg: &ApGenConfig,
        pin_idx: usize,
        layer: LayerId,
        pos: Point,
    ) {
        let owner = local_pin_owner(pin_idx);
        let l = tech.layer(layer);
        let planar_len = l.pitch.max(l.width) * cfg.planar_pitches;
        let at = pos - src.delta;
        match src.table {
            Some((table, class)) if up_vias.len() <= VERDICT_VIAS => {
                let key = CandidateKey::new(class, layer, pin_idx, at);
                let (v, hit) = table.get_or_probe(key, || {
                    self.probe(tech, engine, src.ctx, owner, layer, at, up_vias, planar_len)
                });
                if hit {
                    self.load(v, up_vias);
                }
            }
            _ => {
                self.probe(tech, engine, src.ctx, owner, layer, at, up_vias, planar_len);
            }
        }
    }
}

/// The probe wire used to validate a planar escape from `pos` toward
/// `dir`.
fn planar_probe(pos: Point, dir: PlanarDir, width: Dbu, len: Dbu) -> Rect {
    let h = width / 2;
    match dir {
        PlanarDir::East => Rect::new(pos.x, pos.y - h, pos.x + len, pos.y + h),
        PlanarDir::West => Rect::new(pos.x - len, pos.y - h, pos.x, pos.y + h),
        PlanarDir::North => Rect::new(pos.x - h, pos.y, pos.x + h, pos.y + len),
        PlanarDir::South => Rect::new(pos.x - h, pos.y - len, pos.x + h, pos.y),
    }
}

/// The dirty-AP audit's question for one generated access point: does
/// its primary via drop clean for pin `pin_idx`? Read from the class
/// table, which generation has just filled for this very candidate;
/// probed afresh when `src` shares no table. Planar-only points pass.
pub(crate) fn primary_via_clean(
    tech: &Tech,
    plan: &ApgenPlan<'_>,
    engine: &DrcEngine<'_>,
    src: &VerdictSource<'_>,
    pin_idx: usize,
    ap: &AccessPoint,
    scratch: &mut ApScratch,
) -> bool {
    let Some(via) = ap.primary_via() else {
        return true;
    };
    let at = ap.pos - src.delta;
    if let Some((table, class)) = src.table {
        let slot = plan
            .up_vias(ap.layer)
            .iter()
            .position(|&v| v == via)
            .filter(|&i| i < VERDICT_VIAS);
        let stored = table.get(CandidateKey::new(class, ap.layer, pin_idx, at));
        if let (Some(i), Some(v)) = (slot, stored) {
            scratch.memo_hits += 1;
            return v.vias >> i & 1 == 1;
        }
    }
    scratch.memo_misses += 1;
    engine.via_placement_clean(
        tech.via(via),
        at,
        local_pin_owner(pin_idx),
        src.ctx,
        &mut scratch.drc,
    )
}

/// Validates one candidate position: collects the DRC-clean up-vias and
/// planar escapes. Returns `None` when the point fails the config's
/// validity requirement (paper `isValid`).
#[allow(clippy::too_many_arguments)]
fn validate_point(
    tech: &Tech,
    engine: &DrcEngine<'_>,
    src: &VerdictSource<'_>,
    pin_idx: usize,
    layer: LayerId,
    pos: Point,
    pref_type: CoordType,
    nonpref_type: CoordType,
    cfg: &ApGenConfig,
    up_vias: &[ViaId],
    scratch: &mut ApScratch,
) -> Option<AccessPoint> {
    scratch.candidate(tech, engine, src, up_vias, cfg, pin_idx, layer, pos);
    let valid = if cfg.require_via {
        !scratch.vias_buf.is_empty()
    } else {
        !scratch.vias_buf.is_empty() || !scratch.planar_buf.is_empty()
    };
    // Owned vectors materialize only for valid points; rejected
    // candidates (the vast majority) allocate nothing.
    valid.then(|| AccessPoint {
        pos,
        layer,
        pref_type,
        nonpref_type,
        vias: scratch.vias_buf.clone(),
        planar: scratch.planar_buf.clone(),
    })
}

/// **Algorithm 1** — generates the valid access points for one pin.
///
/// `pin_rects` is the pin's flattened geometry in the analysis frame
/// (rects per routing layer); `ctx` is the intra-cell DRC context built by
/// [`build_instance_context`](crate::unique::build_instance_context).
///
/// Coordinate-type combinations are enumerated in cost order (outer loop:
/// non-preferred types; inner: preferred types); all candidates of a
/// combination are generated, validated and added before the `k` early-exit
/// check, so slightly more than `k` points may be returned — exactly the
/// paper's behaviour for large pins.
#[must_use]
pub fn generate_pin_access_points(
    tech: &Tech,
    design: &Design,
    engine: &DrcEngine<'_>,
    ctx: &ShapeSet,
    pin_idx: usize,
    pin_rects: &[(LayerId, Rect)],
    cfg: &ApGenConfig,
) -> Vec<AccessPoint> {
    generate_pin_access_points_with(
        tech,
        &ApgenPlan::new(tech, design),
        engine,
        &VerdictSource::direct(ctx),
        pin_idx,
        pin_rects,
        cfg,
        &mut ApScratch::new(),
    )
}

/// [`generate_pin_access_points`] with the analysis-wide `plan`, the
/// verdict source of the pin's unique instance, and caller-owned
/// [`ApScratch`] that the instance's pins share.
#[allow(clippy::too_many_arguments)]
pub(crate) fn generate_pin_access_points_with(
    tech: &Tech,
    plan: &ApgenPlan<'_>,
    engine: &DrcEngine<'_>,
    src: &VerdictSource<'_>,
    pin_idx: usize,
    pin_rects: &[(LayerId, Rect)],
    cfg: &ApGenConfig,
    scratch: &mut ApScratch,
) -> Vec<AccessPoint> {
    let mut aps: Vec<AccessPoint> = Vec::new();
    scratch.seen.clear();
    // Trial index stamped on this pin's ledger records, counting unique
    // candidate positions in enumeration (= cost) order.
    let mut candidate: u32 = 0;

    // Group rects per routing layer and take maximal rectangles (the
    // paper's treatment of polygonal pins).
    let mut layers: Vec<LayerId> = pin_rects.iter().map(|&(l, _)| l).collect();
    layers.sort_unstable();
    layers.dedup();

    // Coordinate and max-rect buffers are threaded through the candidate
    // loops by value so `scratch` stays borrowable for validation.
    let mut pref_coords = std::mem::take(&mut scratch.pref_coords);
    let mut nonpref_coords = std::mem::take(&mut scratch.nonpref_coords);
    let mut maxes = std::mem::take(&mut scratch.maxes);

    'layers: for layer in layers {
        if !tech.layer(layer).is_routing() {
            continue;
        }
        let rects: Vec<Rect> = pin_rects
            .iter()
            .filter(|&&(l, _)| l == layer)
            .map(|&(_, r)| r)
            .collect();
        max_rects_into(&rects, &mut scratch.grid, &mut maxes);
        let lp = &plan.layers[layer.index()];
        // The preferred-direction coordinate is governed by this layer's
        // own tracks (a horizontal layer's track coordinate is y); the
        // non-preferred coordinate by the perpendicular (upper-layer)
        // tracks.
        let pref = tech.layer(layer).dir;
        let nonpref_track_dir = pref.perp();

        for &t_nonpref in &cfg.nonpref_types {
            for &t_pref in &cfg.pref_types {
                for &rect in &maxes {
                    candidate_coords_into(tech, lp, pref, t_pref, rect, &mut pref_coords);
                    candidate_coords_into(
                        tech,
                        lp,
                        nonpref_track_dir,
                        t_nonpref,
                        rect,
                        &mut nonpref_coords,
                    );
                    for &pc in &pref_coords {
                        for &nc in &nonpref_coords {
                            let pos = match pref {
                                // Horizontal layer: pref coordinate is y.
                                Dir::Horizontal => Point::new(nc, pc),
                                Dir::Vertical => Point::new(pc, nc),
                            };
                            if !scratch.seen.insert((layer, pos)) {
                                continue;
                            }
                            let pair = (t_pref.cost() * 4 + t_nonpref.cost()) as usize;
                            scratch.tried[pair] += 1;
                            if let Some(ap) = validate_point(
                                tech,
                                engine,
                                src,
                                pin_idx,
                                layer,
                                pos,
                                t_pref,
                                t_nonpref,
                                cfg,
                                &lp.up_vias,
                                scratch,
                            ) {
                                scratch.accepted[pair] += 1;
                                if pao_obs::ledger_enabled() {
                                    ledger::record(
                                        LedgerRecord::new(
                                            LedgerEvent::ApAccept,
                                            scratch.entity_base | pin_idx as u64,
                                            candidate,
                                        )
                                        .with_aux(layer.0)
                                        .with_pos(pos.x, pos.y),
                                    );
                                }
                                aps.push(ap);
                            } else if pao_obs::ledger_enabled() {
                                let tag = scratch.reject_tag;
                                let (rule, sub) = if tag == TAG_NO_VIA {
                                    (ledger::NO_CODE, ledger::NO_CODE)
                                } else {
                                    ((tag >> 8) as u8, (tag & 0xFF) as u8)
                                };
                                *scratch.rejects.entry((pin_idx, rule, sub)).or_default() += 1;
                                ledger::record(
                                    LedgerRecord::new(
                                        LedgerEvent::ApReject,
                                        scratch.entity_base | pin_idx as u64,
                                        candidate,
                                    )
                                    .with_aux(layer.0)
                                    .with_pos(pos.x, pos.y)
                                    .with_reject(rule, sub),
                                );
                            }
                            candidate += 1;
                        }
                    }
                }
                if aps.len() >= cfg.k {
                    break 'layers;
                }
            }
        }
    }
    scratch.pref_coords = pref_coords;
    scratch.nonpref_coords = nonpref_coords;
    scratch.maxes = maxes;
    aps
}

#[cfg(test)]
mod tests {
    use super::*;
    use pao_design::TrackPattern;
    use pao_drc::Owner;
    use pao_tech::rules::MinStepRule;
    use pao_tech::{Layer, ViaDef};

    /// Two-layer tech with an M1→M2 via whose bottom enclosure is 130×60
    /// — the enclosure height equals the M1 wire width, so DRC-clean
    /// placement requires the enclosure to nest inside (or align with) the
    /// pin in y, exactly the paper's Fig. 3 setup.
    fn tech() -> Tech {
        let mut t = Tech::new(1000);
        let mut m1 = Layer::routing("M1", Dir::Horizontal, 200, 60, 70);
        m1.min_step = Some(MinStepRule::simple(60));
        t.add_layer(m1);
        t.add_layer(Layer::cut("V1", 70, 80));
        t.add_layer(Layer::routing("M2", Dir::Vertical, 200, 60, 70));
        let via = ViaDef::new(
            "via1_0",
            LayerId(0),
            vec![Rect::new(-65, -30, 65, 30)],
            LayerId(1),
            vec![Rect::new(-30, -30, 30, 30)],
            LayerId(2),
            vec![Rect::new(-30, -65, 30, 65)],
        );
        t.add_via(via);
        t
    }

    fn design() -> Design {
        let mut d = Design::new("t", Rect::new(0, 0, 10_000, 10_000));
        // Horizontal M1 tracks at y = 100, 300, 500, …
        d.tracks.push(TrackPattern::new(
            Dir::Horizontal,
            100,
            200,
            40,
            vec![LayerId(0)],
        ));
        // Vertical M2 tracks at x = 100, 300, …
        d.tracks.push(TrackPattern::new(
            Dir::Vertical,
            100,
            200,
            40,
            vec![LayerId(2)],
        ));
        d
    }

    fn gen(pin: Rect, cfg: &ApGenConfig) -> Vec<AccessPoint> {
        let t = tech();
        let d = design();
        let engine = DrcEngine::new(&t);
        let mut ctx = ShapeSet::new(t.layers().len());
        ctx.insert(LayerId(0), pin, local_pin_owner(0));
        ctx.rebuild();
        generate_pin_access_points(&t, &d, &engine, &ctx, 0, &[(LayerId(0), pin)], cfg)
    }

    #[test]
    fn tall_pin_gets_on_track_points() {
        // Pin tall enough (y 60..540, crosses tracks at 100, 300, 500) and
        // wide enough for the enclosure.
        let pin = Rect::new(100, 60, 700, 540);
        let aps = gen(pin, &ApGenConfig::default());
        assert!(aps.len() >= 3, "{aps:?}");
        assert!(aps.iter().all(|ap| !ap.vias.is_empty()));
        // First combination is (on-track, on-track); k is reached there.
        assert!(aps
            .iter()
            .all(|ap| ap.pref_type == CoordType::OnTrack && ap.nonpref_type == CoordType::OnTrack));
        // All points lie on the pin.
        assert!(aps.iter().all(|ap| pin.contains(ap.pos)));
    }

    #[test]
    fn narrow_pin_forces_off_track_access() {
        // A 60-tall pin centered between tracks: on-track y (none inside)
        // and the via needs shape-center / enclosure-boundary to avoid
        // min-step from the 70-tall enclosure on 60-tall metal…
        // y span 210..270 contains no track (tracks at 100, 300).
        let pin = Rect::new(100, 205, 700, 265);
        let aps = gen(pin, &ApGenConfig::default());
        assert!(!aps.is_empty(), "expected off-track APs");
        assert!(aps.iter().all(|ap| ap.pref_type.is_off_track()), "{aps:?}");
    }

    #[test]
    fn enclosure_boundary_rescues_thin_pin() {
        // Pin slightly taller than the 60-tall enclosure: the two
        // enclosure-boundary alignments put the via center at
        // pin.ylo + 30 = 230 or pin.yhi − 30 = 240.
        let pin = Rect::new(100, 200, 700, 270);
        let cfg = ApGenConfig {
            pref_types: vec![CoordType::EnclosureBoundary],
            nonpref_types: vec![CoordType::OnTrack],
            ..ApGenConfig::default()
        };
        let aps = gen(pin, &cfg);
        assert!(!aps.is_empty());
        assert!(aps
            .iter()
            .all(|ap| ap.pref_type == CoordType::EnclosureBoundary));
        assert!(
            aps.iter().all(|ap| ap.pos.y == 230 || ap.pos.y == 240),
            "{aps:?}"
        );
    }

    #[test]
    fn early_termination_bounds_count() {
        let pin = Rect::new(100, 60, 1500, 540); // huge pin, many tracks
        let cfg = ApGenConfig {
            k: 3,
            ..ApGenConfig::default()
        };
        let aps = gen(pin, &cfg);
        // All (on-track, on-track) candidates of the first combo are
        // generated (7 x-tracks × 3 y-tracks = 21) before the early exit.
        assert!(aps.len() >= 3);
        assert!(aps
            .iter()
            .all(|ap| ap.pref_type == CoordType::OnTrack && ap.nonpref_type == CoordType::OnTrack));
    }

    #[test]
    fn obstruction_blocks_vias() {
        let t = tech();
        let d = design();
        let engine = DrcEngine::new(&t);
        let pin = Rect::new(100, 60, 700, 540);
        let mut ctx = ShapeSet::new(t.layers().len());
        ctx.insert(LayerId(0), pin, local_pin_owner(0));
        // A same-layer obstruction blanket right above the pin kills all
        // via enclosures extending past the pin… cover everything nearby.
        ctx.insert(LayerId(0), Rect::new(0, 550, 800, 700), Owner::obs(0));
        ctx.insert(LayerId(2), Rect::new(0, 0, 800, 700), Owner::obs(0));
        ctx.rebuild();
        let aps = generate_pin_access_points(
            &t,
            &d,
            &engine,
            &ctx,
            0,
            &[(LayerId(0), pin)],
            &ApGenConfig::default(),
        );
        // M2 blanket obstruction conflicts with every top enclosure.
        assert!(aps.is_empty(), "{aps:?}");
    }

    #[test]
    fn planar_only_validity_for_macros() {
        let t = tech();
        let d = design();
        let engine = DrcEngine::new(&t);
        let pin = Rect::new(100, 60, 700, 540);
        let mut ctx = ShapeSet::new(t.layers().len());
        ctx.insert(LayerId(0), pin, local_pin_owner(0));
        // Blanket M2 obstruction kills vias but planar escapes remain.
        ctx.insert(LayerId(2), Rect::new(0, 0, 800, 700), Owner::obs(0));
        ctx.rebuild();
        let cfg = ApGenConfig {
            require_via: false,
            ..ApGenConfig::default()
        };
        let aps = generate_pin_access_points(&t, &d, &engine, &ctx, 0, &[(LayerId(0), pin)], &cfg);
        assert!(!aps.is_empty());
        assert!(aps
            .iter()
            .all(|ap| ap.vias.is_empty() && !ap.planar.is_empty()));
    }

    #[test]
    fn type_cost_and_flags() {
        let ap = AccessPoint {
            pos: Point::new(0, 0),
            layer: LayerId(0),
            pref_type: CoordType::ShapeCenter,
            nonpref_type: CoordType::OnTrack,
            vias: vec![ViaId(0)],
            planar: vec![],
        };
        assert_eq!(ap.type_cost(), 2);
        assert!(ap.is_off_track());
        assert_eq!(ap.primary_via(), Some(ViaId(0)));
    }
}

#[cfg(test)]
mod vertical_layer_tests {
    use super::*;
    use crate::unique::local_pin_owner;
    use pao_design::TrackPattern;
    use pao_tech::rules::MinStepRule;
    use pao_tech::{Layer, ViaDef};

    /// A pin on a VERTICAL preferred-direction layer (M2-style): the
    /// preferred coordinate is x, the non-preferred is y, and the
    /// position assembly must not swap them.
    #[test]
    fn vertical_layer_pins_get_access() {
        let mut t = Tech::new(1000);
        t.add_layer(Layer::routing("M1", Dir::Horizontal, 200, 60, 70));
        t.add_layer(Layer::cut("V1", 50, 120));
        let mut m2 = Layer::routing("M2", Dir::Vertical, 200, 60, 70);
        m2.min_step = Some(MinStepRule::simple(60));
        let m2 = t.add_layer(m2);
        t.add_layer(Layer::cut("V2", 50, 120));
        let m3 = t.add_layer(Layer::routing("M3", Dir::Horizontal, 200, 60, 70));
        // M2→M3 via: bottom enclosure elongated along M2 (vertical).
        let via = ViaDef::new(
            "via2_0",
            m2,
            vec![Rect::new(-30, -65, 30, 65)],
            LayerId(3),
            vec![Rect::new(-25, -25, 25, 25)],
            m3,
            vec![Rect::new(-65, -30, 65, 30)],
        );
        t.add_via(via);

        let mut d = pao_design::Design::new("v", Rect::new(0, 0, 10_000, 10_000));
        // Vertical M2 tracks at x = 100, 300, … and horizontal M3 tracks
        // (governing the non-preferred y coordinate) at y = 100, 300, …
        d.tracks
            .push(TrackPattern::new(Dir::Vertical, 100, 200, 40, vec![m2]));
        d.tracks
            .push(TrackPattern::new(Dir::Horizontal, 100, 200, 40, vec![m3]));

        // A horizontal pin bar on M2 crossing several vertical tracks.
        let pin = Rect::new(60, 100, 540, 700);
        let engine = DrcEngine::new(&t);
        let mut ctx = ShapeSet::new(t.layers().len());
        ctx.insert(m2, pin, local_pin_owner(0));
        ctx.rebuild();
        let aps = generate_pin_access_points(
            &t,
            &d,
            &engine,
            &ctx,
            0,
            &[(m2, pin)],
            &ApGenConfig::default(),
        );
        assert!(aps.len() >= 3, "{aps:?}");
        for ap in &aps {
            assert!(pin.contains(ap.pos), "AP {} off pin", ap.pos);
            assert!(!ap.vias.is_empty());
            // Preferred coordinate (x on a vertical layer) is on-track.
            assert_eq!(ap.pref_type, CoordType::OnTrack);
            assert_eq!((ap.pos.x - 100) % 200, 0, "x must sit on an M2 track");
        }
    }
}
