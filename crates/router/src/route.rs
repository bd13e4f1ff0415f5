//! Net routing: terminals from pin access, MST decomposition, A* search,
//! shape commitment.

use crate::astar::{astar, AstarConfig};
use crate::grid::{GridNode, RouteGrid};
use pao_core::apgen::AccessPoint;
use pao_core::oracle::PaoResult;
use pao_core::unique::pin_owner;
use pao_design::{CompId, Design, NetPin};
use pao_drc::{DrcEngine, DrcSink, Owner, ShapeSet};
use pao_geom::{Dbu, Point, Rect};
use pao_tech::{LayerId, PinUse, Tech};

/// Owner used for all power rails (one electrical net).
const POWER_OWNER: Owner = Owner::Net(u64::MAX);
/// Owner used for all ground rails.
const GROUND_OWNER: Owner = Owner::Net(u64::MAX - 1);

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouteConfig {
    /// A* parameters.
    pub astar: AstarConfig,
    /// Penalty added per conflicting shape along a step (soft occupancy).
    pub occupancy_penalty: i64,
    /// Lowest routing layer used (name). Default `"metal2"`.
    pub layer_lo: String,
    /// Highest routing layer used (name). Default `"metal5"`.
    pub layer_hi: String,
    /// Extra full routing passes with history costs around the previous
    /// pass's violation markers (PathFinder-style negotiation). 0 routes
    /// once.
    pub history_passes: usize,
}

impl Default for RouteConfig {
    fn default() -> RouteConfig {
        RouteConfig {
            astar: AstarConfig::default(),
            occupancy_penalty: 12_000,
            layer_lo: "metal2".to_owned(),
            layer_hi: "metal5".to_owned(),
            history_passes: 1,
        }
    }
}

/// The result of routing a design: all committed shapes (pins,
/// obstructions, access vias, wires, wire vias) plus summary counters.
#[derive(Debug)]
pub struct RoutedDesign {
    /// Everything on the die, with net ownership.
    pub shapes: ShapeSet,
    /// Nets with all terminals connected.
    pub routed_nets: usize,
    /// MST edges that fell back to a direct (unsearched) route.
    pub fallback_routes: usize,
    /// Total routed wirelength in DBU.
    pub wirelength: i64,
    /// Number of vias placed (access + wire).
    pub via_count: usize,
    /// Terminals that had no access point at all (routed from the pin
    /// bounding-box center with the default via — usually dirty).
    pub forced_terminals: usize,
    /// Every committed via: `(definition, origin, owner)` — scored with
    /// the full rule set by [`score::audit_routed`](crate::score::audit_routed).
    pub vias: Vec<(pao_tech::ViaId, Point, Owner)>,
    /// The subset of `vias` that are *pin access* vias (index into
    /// `vias`): their violations are the paper's pin-access DRC metric.
    pub access_vias: Vec<usize>,
    /// Every committed wire rectangle `(net owner, layer, rect)` — the
    /// source for [`defout::write_routed_def`](crate::defout::write_routed_def).
    pub wires: Vec<(Owner, LayerId, Rect)>,
}

/// A net terminal: where the router must start/end.
#[derive(Debug, Clone, Copy)]
struct Terminal {
    layer: LayerId,
    pos: Point,
}

/// Wire end-extension on `layer`: how far a wire must extend past a via
/// center so the via enclosure never protrudes from the wire end (the
/// standard router end-extension rule; without it every via at a wire end
/// is a min-step violation).
fn end_extension(tech: &Tech, layer: LayerId) -> Dbu {
    let dir = tech.layer(layer).dir;
    let w = tech.layer(layer).width;
    tech.vias()
        .iter()
        .flat_map(|v| {
            let mut reach = Vec::new();
            if v.bottom_layer == layer {
                let bb = v.bottom_bbox();
                reach.push(match dir {
                    pao_geom::Dir::Horizontal => bb.width() / 2,
                    pao_geom::Dir::Vertical => bb.height() / 2,
                });
            }
            if v.top_layer == layer {
                let bb = v.top_bbox();
                reach.push(match dir {
                    pao_geom::Dir::Horizontal => bb.width() / 2,
                    pao_geom::Dir::Vertical => bb.height() / 2,
                });
            }
            reach
        })
        .max()
        .map_or(0, |r| (r - w / 2).max(0))
}

/// A metal patch centered at `pos` on `layer` long enough (along the
/// preferred direction) to satisfy the layer's min-area rule — dropped at
/// via-stack points that carry no wire.
fn min_area_patch(tech: &Tech, layer: LayerId, pos: Point) -> Rect {
    let l = tech.layer(layer);
    let w = l.width.max(1);
    let needed = if l.min_area > 0 {
        ((l.min_area / i128::from(w)) as Dbu).max(w)
    } else {
        w
    };
    match l.dir {
        pao_geom::Dir::Horizontal => Rect::centered_at(pos, needed, w),
        pao_geom::Dir::Vertical => Rect::centered_at(pos, w, needed),
    }
}

/// The detailed router scaffold.
#[derive(Debug)]
pub struct Router<'a> {
    tech: &'a Tech,
    design: &'a Design,
    cfg: RouteConfig,
}

impl<'a> Router<'a> {
    /// Creates a router over a placed design.
    #[must_use]
    pub fn new(tech: &'a Tech, design: &'a Design, cfg: RouteConfig) -> Router<'a> {
        Router { tech, design, cfg }
    }

    /// Routes every net using PAAF's selected access points.
    #[must_use]
    pub fn route_with_pao(&self, pao: &PaoResult) -> RoutedDesign {
        self.route_with_accessor(|c, p| pao.access_point(self.design, c, p))
    }

    /// Routes every net with an arbitrary pin-access accessor (PAAF,
    /// the baseline, or a distance-cost stand-in).
    ///
    /// With `history_passes > 0`, the whole design is re-routed after an
    /// audit, pricing the previous pass's violation neighborhoods — the
    /// PathFinder negotiation idea in its simplest form.
    #[must_use]
    pub fn route_with_accessor(
        &self,
        accessor: impl Fn(CompId, usize) -> Option<AccessPoint>,
    ) -> RoutedDesign {
        let engine = DrcEngine::new(self.tech);
        let audit = |shapes: &ShapeSet| {
            let mut sink = DrcSink::all();
            engine.audit(shapes, &mut sink);
            sink.into_violations()
        };
        let mut history: pao_geom::RTree<()> = pao_geom::RTree::new();
        let mut best = self.route_once(&accessor, &history);
        for _ in 0..self.cfg.history_passes {
            let viols = audit(&best.shapes);
            if viols.is_empty() {
                break;
            }
            history = viols
                .iter()
                .map(|v| {
                    (
                        v.marker.expanded(self.tech.layer(v.layer).spacing.max(1)),
                        (),
                    )
                })
                .collect();
            let again = self.route_once(&accessor, &history);
            if audit(&again.shapes).len() < viols.len() {
                best = again;
            } else {
                break;
            }
        }
        best
    }

    /// One full routing pass; `history` prices regions that were in
    /// violation on the previous pass.
    fn route_once(
        &self,
        accessor: impl Fn(CompId, usize) -> Option<AccessPoint>,
        history: &pao_geom::RTree<()>,
    ) -> RoutedDesign {
        let tech = self.tech;
        let design = self.design;
        let engine = DrcEngine::new(tech);
        let lo = tech.layer_id(&self.cfg.layer_lo).unwrap_or(LayerId(0));
        let hi = tech
            .layer_id(&self.cfg.layer_hi)
            .unwrap_or(LayerId(tech.layers().len() as u32 - 1));
        let grid = RouteGrid::from_design(tech, design, lo, hi);

        // ---- Static context: pins (net-owned when connected), obs.
        let mut pin_net: std::collections::HashMap<(CompId, usize), u64> =
            std::collections::HashMap::new();
        for (ni, net) in design.nets().iter().enumerate() {
            for (comp, pin_name) in net.comp_pins() {
                if let Some(master) = design.component(comp).master_in(tech) {
                    if let Some(pi) = master.pins.iter().position(|p| p.name == pin_name) {
                        pin_net.insert((comp, pi), ni as u64);
                    }
                }
            }
        }
        let mut shapes = ShapeSet::new(tech.layers().len());
        for (ci, comp) in design.components().iter().enumerate() {
            let id = CompId(ci as u32);
            if !comp.is_placed {
                continue;
            }
            let Some(master) = comp.master_in(tech) else {
                continue;
            };
            for (pi, layer, rect) in design.placed_pin_shapes(tech, id) {
                let owner = match master.pins[pi].use_ {
                    PinUse::Power => POWER_OWNER,
                    PinUse::Ground => GROUND_OWNER,
                    _ => match pin_net.get(&(id, pi)) {
                        Some(&n) => Owner::net(n),
                        None => pin_owner(id, pi),
                    },
                };
                shapes.insert(layer, rect, owner);
            }
            for (layer, rect) in design.placed_obs_shapes(tech, id) {
                shapes.insert(layer, rect, Owner::obs(ci as u64));
            }
        }
        for (ii, io) in design.io_pins().iter().enumerate() {
            let owner = design
                .net_by_name(&io.net)
                .map_or(Owner::pin(0xFFFF_0000 + ii as u64), |n| {
                    Owner::net(u64::from(n.0))
                });
            shapes.insert(io.layer, io.placed_rect(), owner);
        }
        shapes.rebuild();

        // ---- Terminals + access vias per net.
        let mut result = RoutedDesign {
            shapes,
            routed_nets: 0,
            fallback_routes: 0,
            wirelength: 0,
            via_count: 0,
            forced_terminals: 0,
            vias: Vec::new(),
            access_vias: Vec::new(),
            wires: Vec::new(),
        };
        let mut net_terminals: Vec<Vec<Terminal>> = Vec::with_capacity(design.nets().len());
        for (ni, net) in design.nets().iter().enumerate() {
            let owner = Owner::net(ni as u64);
            let mut terms = Vec::new();
            for pin in &net.pins {
                match pin {
                    NetPin::Comp { comp, pin } => {
                        if !design.component(*comp).is_placed {
                            continue;
                        }
                        let Some(master) = design.component(*comp).master_in(tech) else {
                            continue;
                        };
                        let Some(pi) = master.pins.iter().position(|p| p.name == *pin) else {
                            continue;
                        };
                        let ap = accessor(*comp, pi);
                        let (via, pos, layer) = match &ap {
                            Some(ap) => (ap.primary_via(), ap.pos, ap.layer),
                            None => {
                                result.forced_terminals += 1;
                                let bbox = design
                                    .placed_pin_shapes(tech, *comp)
                                    .iter()
                                    .filter(|&&(p, _, _)| p == pi)
                                    .map(|&(_, _, r)| r)
                                    .reduce(Rect::hull)
                                    .unwrap_or_default();
                                let layer = design
                                    .placed_pin_shapes(tech, *comp)
                                    .iter()
                                    .find(|&&(p, _, _)| p == pi)
                                    .map_or(LayerId(0), |&(_, l, _)| l);
                                (
                                    tech.up_vias_from(layer).first().copied(),
                                    bbox.center(),
                                    layer,
                                )
                            }
                        };
                        match via {
                            Some(v) => {
                                for (l, r) in tech.via(v).placed_shapes(pos) {
                                    result.shapes.insert(l, r, owner);
                                }
                                result.access_vias.push(result.vias.len());
                                result.vias.push((v, pos, owner));
                                result.via_count += 1;
                                terms.push(Terminal {
                                    layer: tech.via(v).top_layer,
                                    pos,
                                });
                            }
                            None => {
                                // Planar-only access (macro pins): route on
                                // the pin's own layer.
                                terms.push(Terminal { layer, pos });
                            }
                        }
                    }
                    NetPin::Io { index } => {
                        let io = &design.io_pins()[*index as usize];
                        terms.push(Terminal {
                            layer: io.layer,
                            pos: io.placed_rect().center(),
                        });
                    }
                }
            }
            net_terminals.push(terms);
        }
        result.shapes.rebuild();

        // ---- Pre-pass: snap every terminal and commit its jog, for every
        // net, so the A* occupancy of each net sees all other nets' jogs.
        let net_nodes: Vec<Vec<Option<GridNode>>> = net_terminals
            .iter()
            .enumerate()
            .map(|(ni, terms)| {
                let owner = Owner::net(ni as u64);
                terms
                    .iter()
                    .map(|t| {
                        let n = grid
                            .snap(t.layer, t.pos)
                            .or_else(|| grid.snap(grid.layers[0], t.pos));
                        if let Some(n) = n {
                            if terms.len() >= 2 {
                                self.commit_jog(&grid, &mut result, owner, *t, n);
                            }
                        }
                        n
                    })
                    .collect()
            })
            .collect();
        result.shapes.rebuild();

        // ---- Route each net: Prim MST + A* per edge.
        for (ni, terms) in net_terminals.iter().enumerate() {
            if terms.len() < 2 {
                if !terms.is_empty() {
                    result.routed_nets += 1;
                }
                continue;
            }
            let owner = Owner::net(ni as u64);
            let nodes = &net_nodes[ni];
            // Prim MST over terminals.
            let mut in_tree = vec![false; terms.len()];
            in_tree[0] = true;
            let mut edges: Vec<(usize, usize)> = Vec::new();
            for _ in 1..terms.len() {
                let mut best: Option<(i64, usize, usize)> = None;
                for (i, ti) in terms.iter().enumerate() {
                    if !in_tree[i] {
                        continue;
                    }
                    for (j, tj) in terms.iter().enumerate() {
                        if in_tree[j] {
                            continue;
                        }
                        let d = ti.pos.manhattan(tj.pos)
                            + i64::from(ti.layer.0.abs_diff(tj.layer.0)) * 100;
                        if best.is_none_or(|(bd, _, _)| d < bd) {
                            best = Some((d, i, j));
                        }
                    }
                }
                // With at least one node in and one out of the tree, the
                // double loop always finds an edge; bail out of the (then
                // fully spanned) loop rather than panic if it somehow
                // does not.
                let Some((_, i, j)) = best else { break };
                in_tree[j] = true;
                edges.push((i, j));
            }
            let mut all_ok = true;
            for (i, j) in edges {
                let ok = match (nodes[i], nodes[j]) {
                    (Some(a), Some(b)) => {
                        self.route_edge(&grid, &engine, &mut result, owner, a, b, history)
                    }
                    _ => false,
                };
                all_ok &= ok;
            }
            if all_ok {
                result.routed_nets += 1;
            }
        }
        result.shapes.rebuild();
        result
    }

    /// Routes one two-terminal connection; returns `false` when the A*
    /// fell back to a direct route.
    #[allow(clippy::too_many_arguments)]
    fn route_edge(
        &self,
        grid: &RouteGrid,
        engine: &DrcEngine<'_>,
        result: &mut RoutedDesign,
        owner: Owner,
        src: GridNode,
        dst: GridNode,
        history: &pao_geom::RTree<()>,
    ) -> bool {
        let tech = self.tech;
        let shapes = &result.shapes;
        // Per-layer clearance: wire half-width plus the layer's own worst
        // spacing requirement (NOT the cut spacing — that would block
        // every position near a neighboring via).
        let halos: Vec<Dbu> = grid
            .layers
            .iter()
            .map(|&l| tech.layer(l).width / 2 + engine.halo(l))
            .collect();
        // Terminal escape: when the strict search fails (a terminal hemmed
        // in by a neighboring net's access via), retry with free steps
        // adjacent to the endpoints — far better than the full-overlap
        // fallback route.
        let near = |n: GridNode, t: GridNode| -> bool {
            n.layer == t.layer && n.xi.abs_diff(t.xi) <= 1 && n.yi.abs_diff(t.yi) <= 1
        };
        // Conflict queries repeat enormously during A* re-expansions; the
        // shape set is frozen for the duration of one edge search, so the
        // results are memoizable.
        let memo: std::cell::RefCell<std::collections::HashMap<(GridNode, GridNode), bool>> =
            std::cell::RefCell::new(std::collections::HashMap::new());
        let engine = DrcEngine::new(tech);
        let conflict = |from: GridNode, to: GridNode| -> bool {
            let key = (from.min(to), from.max(to));
            if let Some(&c) = memo.borrow().get(&key) {
                return c;
            }
            let c = if from.layer != to.layer {
                // Via placement: price the enclosure and cut footprints
                // against foreign shapes (otherwise vias land blindly next
                // to other nets' vias and wires).
                let bottom = grid.layer_of(from).min(grid.layer_of(to));
                match tech.up_vias_from(bottom).first() {
                    Some(&vid) => {
                        let v = tech.via(vid);
                        let pos = grid.pos(from);
                        [
                            (v.bottom_layer, v.bottom_bbox()),
                            (v.top_layer, v.top_bbox()),
                            (v.cut_layer, v.cut_bbox()),
                        ]
                        .into_iter()
                        .any(|(l, bb)| {
                            let halo = match tech.layer(l).kind {
                                pao_tech::LayerKind::Routing => engine.halo(l),
                                pao_tech::LayerKind::Cut => tech.layer(l).spacing,
                            };
                            let win = bb.translated(pos).expanded(halo.max(1));
                            !shapes.for_each_conflict(l, win, owner, |_, _| false)
                        })
                    }
                    None => false,
                }
            } else {
                let layer = grid.layer_of(to);
                let seg = Rect::from_points(grid.pos(from), grid.pos(to))
                    .expanded(halos[to.layer as usize]);
                !shapes.for_each_conflict(layer, seg, owner, |_, _| false)
            };
            memo.borrow_mut().insert(key, c);
            c
        };
        let occupancy = |escape: bool| {
            let conflict = &conflict;
            move |from: GridNode, to: GridNode| -> i64 {
                if escape && (near(from, src) || near(to, dst)) {
                    return 0;
                }
                let mut cost = 0;
                if conflict(from, to) {
                    cost += self.cfg.occupancy_penalty;
                }
                if !history.is_empty()
                    && history.any_touching(Rect::from_points(grid.pos(from), grid.pos(to)))
                {
                    // Half-weight: trouble neighborhoods, not hard walls.
                    cost += self.cfg.occupancy_penalty / 2;
                }
                cost
            }
        };
        let path = astar(grid, src, dst, &self.cfg.astar, occupancy(false))
            .or_else(|| astar(grid, src, dst, &self.cfg.astar, occupancy(true)));
        if src == dst {
            // Both terminals land on the same grid node: bridge their
            // jogs/enclosures with a preferred-direction cover strip.
            let layer = grid.layer_of(src);
            let l = tech.layer(layer);
            let over = end_extension(tech, layer).max(l.min_step.map_or(0, |r| r.min_step_length));
            let pos = grid.pos(src);
            let r = match l.dir {
                pao_geom::Dir::Horizontal => Rect::new(
                    pos.x - l.width / 2 - over,
                    pos.y - l.width / 2,
                    pos.x + l.width / 2 + over,
                    pos.y + l.width / 2,
                ),
                pao_geom::Dir::Vertical => Rect::new(
                    pos.x - l.width / 2,
                    pos.y - l.width / 2 - over,
                    pos.x + l.width / 2,
                    pos.y + l.width / 2 + over,
                ),
            };
            result.shapes.insert(layer, r, owner);
            result.wires.push((owner, layer, r));
            return true;
        }
        let (path, ok) = match path {
            Some(p) => (p, true),
            None => {
                // Direct fallback: L on the grid corners.
                let corner = GridNode {
                    layer: src.layer,
                    xi: dst.xi,
                    yi: src.yi,
                };
                (vec![src, corner, dst], false)
            }
        };
        // Commit merged straight runs + vias. A run end is extended only
        // when a via lands there (turn corners must stay flush — an
        // extension tab past a same-layer corner is itself a min-step).
        let mut run_start = 0usize;
        let mut start_is_via = false;
        for k in 1..=path.len() {
            // A run ends at the path end, at a layer change, or when the
            // direction turns (so each committed rect is a straight wire).
            let boundary = k == path.len()
                || path[k].layer != path[run_start].layer
                || (k >= 2
                    && path[k].layer == path[k - 1].layer
                    && path[k - 1].layer == path[k - 2].layer
                    && {
                        let d1 = (path[k].xi != path[k - 1].xi, path[k].yi != path[k - 1].yi);
                        let d2 = (
                            path[k - 1].xi != path[k - 2].xi,
                            path[k - 1].yi != path[k - 2].yi,
                        );
                        d1 != d2
                    });
            if !boundary {
                continue;
            }
            // Wire run [run_start, k).
            let first = path[run_start];
            let last = path[k - 1];
            let layer = grid.layer_of(first);
            let w = tech.layer(layer).width;
            let p1 = grid.pos(first);
            let p2 = grid.pos(last);
            let end_is_via = k < path.len() && path[k].layer != last.layer;
            if p1 != p2 {
                let ext = end_extension(tech, layer);
                let (e1, e2) = (
                    if start_is_via { ext } else { 0 },
                    if end_is_via { ext } else { 0 },
                );
                let mut r = Rect::from_points(p1, p2).expanded(w / 2);
                if p1.y == p2.y {
                    // Horizontal run: p1 end is at min or max x.
                    let (lo_ext, hi_ext) = if p1.x <= p2.x { (e1, e2) } else { (e2, e1) };
                    r = Rect::new(r.xlo() - lo_ext, r.ylo(), r.xhi() + hi_ext, r.yhi());
                } else if p1.x == p2.x {
                    let (lo_ext, hi_ext) = if p1.y <= p2.y { (e1, e2) } else { (e2, e1) };
                    r = Rect::new(r.xlo(), r.ylo() - lo_ext, r.xhi(), r.yhi() + hi_ext);
                }
                result.shapes.insert(layer, r, owner);
                result.wires.push((owner, layer, r));
                result.wirelength += p1.manhattan(p2);
            } else if path.len() > 1 {
                // A via lands here with no same-layer wire (path start/end
                // or a stack-through): drop a min-area patch so the bare
                // enclosure neither under-runs min-area nor leaves
                // sub-min-step tabs against jog branches.
                let patch = min_area_patch(tech, layer, p1);
                result.shapes.insert(layer, patch, owner);
                result.wires.push((owner, layer, patch));
            }
            if k < path.len() {
                if path[k].layer != last.layer {
                    // Via between the two layers.
                    let l1 = grid.layer_of(last);
                    let l2 = grid.layer_of(path[k]);
                    let bottom = l1.min(l2);
                    if let Some(&vid) = tech.up_vias_from(bottom).first() {
                        let at = grid.pos(last);
                        for (l, r) in tech.via(vid).placed_shapes(at) {
                            result.shapes.insert(l, r, owner);
                        }
                        result.vias.push((vid, at, owner));
                        result.via_count += 1;
                    }
                    run_start = k;
                    start_is_via = true;
                } else {
                    // Direction turn: next run starts at the corner.
                    run_start = k - 1;
                    start_is_via = false;
                }
            }
        }
        if !ok {
            result.fallback_routes += 1;
        }
        ok
    }

    /// Connects a terminal to its snapped grid position.
    ///
    /// The jog is a *spine + branch*: a preferred-direction spine through
    /// the terminal covers the access via's elongated enclosure and
    /// overshoots every junction by at least the layer's min-step, so the
    /// merged metal never has sub-min-step tabs; a perpendicular branch
    /// (when needed) carries the off-track offset to the grid node.
    fn commit_jog(
        &self,
        grid: &RouteGrid,
        result: &mut RoutedDesign,
        owner: Owner,
        term: Terminal,
        node: GridNode,
    ) {
        let tech = self.tech;
        let grid_pos = grid.pos(node);
        let grid_layer = grid.layer_of(node);
        if term.pos != grid_pos {
            let layer = term.layer;
            let l = tech.layer(layer);
            let w = l.width;
            let ext = end_extension(tech, layer);
            let over = ext.max(l.min_step.map_or(0, |r| r.min_step_length));
            let mut wires: Vec<Rect> = Vec::new();
            match l.dir {
                pao_geom::Dir::Vertical => {
                    let ylo = term.pos.y.min(grid_pos.y) - w / 2 - over;
                    let yhi = term.pos.y.max(grid_pos.y) + w / 2 + over;
                    wires.push(Rect::new(term.pos.x - w / 2, ylo, term.pos.x + w / 2, yhi));
                    if term.pos.x != grid_pos.x {
                        let xs = pao_geom::Interval::new(term.pos.x, grid_pos.x);
                        wires.push(Rect::new(
                            xs.lo() - w / 2,
                            grid_pos.y - w / 2,
                            xs.hi() + w / 2,
                            grid_pos.y + w / 2,
                        ));
                    }
                }
                pao_geom::Dir::Horizontal => {
                    let xlo = term.pos.x.min(grid_pos.x) - w / 2 - over;
                    let xhi = term.pos.x.max(grid_pos.x) + w / 2 + over;
                    wires.push(Rect::new(xlo, term.pos.y - w / 2, xhi, term.pos.y + w / 2));
                    if term.pos.y != grid_pos.y {
                        let ys = pao_geom::Interval::new(term.pos.y, grid_pos.y);
                        wires.push(Rect::new(
                            grid_pos.x - w / 2,
                            ys.lo() - w / 2,
                            grid_pos.x + w / 2,
                            ys.hi() + w / 2,
                        ));
                    }
                }
            }
            for r in wires {
                result.shapes.insert(layer, r, owner);
                result.wires.push((owner, layer, r));
                result.wirelength += r.max_side() - w;
            }
        }
        if term.layer != grid_layer {
            let bottom = term.layer.min(grid_layer);
            if let Some(&vid) = tech.up_vias_from(bottom).first() {
                for (l, r) in tech.via(vid).placed_shapes(grid_pos) {
                    result.shapes.insert(l, r, owner);
                }
                result.vias.push((vid, grid_pos, owner));
                result.via_count += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pao_core::PinAccessOracle;
    use pao_testgen::{generate, SuiteCase};

    #[test]
    fn routes_smoke_case_with_pao_access() {
        let (tech, design) = generate(&SuiteCase::small_smoke());
        let pao = PinAccessOracle::new().analyze(&tech, &design);
        let routed = Router::new(&tech, &design, RouteConfig::default()).route_with_pao(&pao);
        assert!(routed.routed_nets > 0);
        assert!(routed.wirelength > 0);
        assert!(routed.via_count > 0);
        assert_eq!(routed.forced_terminals, 0, "PAAF covers every pin");
        // Most nets should route without fallback.
        assert!(
            routed.fallback_routes * 5 <= design.nets().len(),
            "{}",
            routed.fallback_routes
        );
    }

    #[test]
    fn routes_with_missing_access_fall_back_to_centers() {
        let (tech, design) = generate(&SuiteCase::small_smoke());
        let routed =
            Router::new(&tech, &design, RouteConfig::default()).route_with_accessor(|_, _| None);
        assert!(routed.forced_terminals > 0);
        assert!(routed.routed_nets > 0);
    }
}
