//! The design-rule check engine.
//!
//! Every check reports through a [`DrcSink`]: a first-mode sink stops the
//! check at its first violation and skips every remaining sub-check, a
//! collect-all sink sees every violation. The via probes the decision
//! sites use, [`DrcEngine::via_placement_clean`] and
//! [`DrcEngine::via_pairwise_clean`], add probe tallies, reject
//! attribution and an O(1) definite-reject path on top.

use crate::scratch::DrcScratch;
use crate::shapes::{Owner, ShapeSet};
use crate::sink::DrcSink;
use crate::violation::{DrcViolation, RejectInfo, RuleKind, SubCheck};
use pao_geom::boundary::{union_area_with, visit_union_boundaries};
use pao_geom::{max_rects_into, Dbu, Interval, Point, Rect};
use pao_tech::{LayerId, LayerKind, Tech, ViaDef};

/// The rectangle spanning the gap (or overlap) between two shapes — used
/// as the violation marker.
fn gap_marker(a: Rect, b: Rect) -> Rect {
    let span = |ia: Interval, ib: Interval| -> Interval {
        ia.intersect(ib)
            .unwrap_or_else(|| Interval::new(ia.hi().min(ib.hi()), ia.lo().max(ib.lo())))
    };
    let xs = span(a.x_span(), b.x_span());
    let ys = span(a.y_span(), b.y_span());
    Rect::new(xs.lo(), ys.lo(), xs.hi(), ys.hi())
}

/// A design-rule checker bound to a technology.
///
/// See the [crate docs](crate) for the rule subset. All check methods
/// report the violations they find to a [`DrcSink`] (none = clean); they
/// never panic on clean or dirty geometry, only on out-of-range layer ids. Per-layer search
/// halos are precomputed at construction, so cloning an engine is cheap
/// and `check_shape` does not re-derive rule maxima per call.
#[derive(Debug, Clone)]
pub struct DrcEngine<'t> {
    tech: &'t Tech,
    /// Per-layer search halo: the largest spacing any rule can require
    /// (for cut layers, the cut spacing).
    halos: Vec<Dbu>,
}

impl<'t> DrcEngine<'t> {
    /// Creates an engine for `tech`, precomputing per-layer halos.
    #[must_use]
    pub fn new(tech: &'t Tech) -> DrcEngine<'t> {
        let halos = (0..tech.layers().len())
            .map(|li| {
                let l = tech.layer(LayerId(li as u32));
                let table_max = l.spacing_table.as_ref().map_or(0, |t| t.max_spacing());
                // An EOL search region extends `space` past the edge and
                // `within` sideways, so both bound the reach of the rule.
                let eol_max = l
                    .eol_rules
                    .iter()
                    .map(|r| r.space.max(r.within))
                    .max()
                    .unwrap_or(0);
                l.spacing.max(table_max).max(eol_max)
            })
            .collect();
        DrcEngine { tech, halos }
    }

    /// The technology this engine checks against.
    #[must_use]
    pub fn tech(&self) -> &'t Tech {
        self.tech
    }

    /// Search halo for context queries on `layer`: the largest spacing any
    /// rule on the layer can require. Precomputed at [`DrcEngine::new`].
    #[must_use]
    pub fn halo(&self, layer: LayerId) -> Dbu {
        self.halos[layer.index()]
    }

    /// The widest halo across all layers — an upper bound on the distance
    /// at which any context shape can influence any verdict. Every
    /// context query in this engine uses a window inflated by at most the
    /// per-layer halo, so shapes farther apart than this never interact.
    #[must_use]
    pub fn interaction_range(&self) -> Dbu {
        self.halos.iter().copied().max().unwrap_or(0)
    }

    /// Checks metal spacing between two same-layer shapes of different
    /// owners. Returns a marker when they overlap/touch (short) or sit
    /// closer than the required spacing.
    #[must_use]
    pub fn spacing_violation(&self, layer: LayerId, a: Rect, b: Rect) -> Option<DrcViolation> {
        if a.touches(b) {
            return Some(DrcViolation::new(RuleKind::Short, layer, gap_marker(a, b)));
        }
        let l = self.tech.layer(layer);
        let (dx, dy) = a.dist_components(b);
        let width = a.min_side().max(b.min_side());
        let (dist_sq, prl) = if dx == 0 {
            // Stacked vertically: PRL is the x-projection overlap.
            (
                i128::from(dy) * i128::from(dy),
                a.x_span().overlap_len(b.x_span()),
            )
        } else if dy == 0 {
            (
                i128::from(dx) * i128::from(dx),
                a.y_span().overlap_len(b.y_span()),
            )
        } else {
            // Diagonal: corner-to-corner Euclidean distance, no PRL.
            (
                i128::from(dx) * i128::from(dx) + i128::from(dy) * i128::from(dy),
                0,
            )
        };
        let req = l.required_spacing(width, width, prl);
        if dist_sq < i128::from(req) * i128::from(req) {
            Some(DrcViolation::new(
                RuleKind::MetalSpacing,
                layer,
                gap_marker(a, b),
            ))
        } else {
            None
        }
    }

    /// Checks a candidate metal shape against conflicting context shapes:
    /// shorts, spacing, and the candidate's end-of-line edges. Returns
    /// `false` iff the sink stopped the check.
    pub fn check_shape(
        &self,
        layer: LayerId,
        rect: Rect,
        owner: Owner,
        ctx: &ShapeSet,
        sink: &mut DrcSink,
    ) -> bool {
        let halo = self.halo(layer);
        let window = rect.expanded(halo.max(1));
        let cont = ctx.for_each_conflict(layer, window, owner, |other, _| {
            match self.spacing_violation(layer, rect, other) {
                Some(v) => sink.report(v),
                None => true,
            }
        });
        if !cont {
            return false;
        }
        self.check_eol_edges(layer, rect, owner, ctx, sink)
    }

    /// Checks the end-of-line spacing rules for the four edges of `rect`.
    fn check_eol_edges(
        &self,
        layer: LayerId,
        rect: Rect,
        owner: Owner,
        ctx: &ShapeSet,
        sink: &mut DrcSink,
    ) -> bool {
        let l = self.tech.layer(layer);
        for rule in &l.eol_rules {
            // At most 4 EOL search regions exist per rule (left/right when
            // the shape is short, below/above when it is narrow).
            let mut regions = [Rect::default(); 4];
            let mut n = 0;
            // Vertical EOL edges (left/right) have length = height.
            if rect.height() < rule.eol_width {
                regions[n] = Rect::new(
                    rect.xlo() - rule.space,
                    rect.ylo() - rule.within,
                    rect.xlo(),
                    rect.yhi() + rule.within,
                );
                regions[n + 1] = Rect::new(
                    rect.xhi(),
                    rect.ylo() - rule.within,
                    rect.xhi() + rule.space,
                    rect.yhi() + rule.within,
                );
                n += 2;
            }
            if rect.width() < rule.eol_width {
                regions[n] = Rect::new(
                    rect.xlo() - rule.within,
                    rect.ylo() - rule.space,
                    rect.xhi() + rule.within,
                    rect.ylo(),
                );
                regions[n + 1] = Rect::new(
                    rect.xlo() - rule.within,
                    rect.yhi(),
                    rect.xhi() + rule.within,
                    rect.yhi() + rule.space,
                );
                n += 2;
            }
            for &region in &regions[..n] {
                let cont = ctx.for_each_conflict(layer, region, owner, |other, _| {
                    // Region query is touch-inclusive; require real overlap
                    // so metal exactly at the spacing is legal.
                    if other.overlaps(region) {
                        sink.report(DrcViolation::new(
                            RuleKind::EolSpacing,
                            layer,
                            gap_marker(rect, other),
                        ))
                    } else {
                        true
                    }
                });
                if !cont {
                    return false;
                }
            }
        }
        true
    }

    /// Checks the merged metal formed by `candidates` and the touching
    /// `friends` (same-owner shapes): min step, min width and min area.
    ///
    /// This is the Fig. 3 check: a via enclosure fused with the pin shape
    /// may create boundary steps shorter than the layer's `MINSTEP`. Runs
    /// against the workspace buffers of `ws`; returns `false` iff the sink
    /// stopped the check.
    pub fn check_merged(
        &self,
        layer: LayerId,
        candidates: &[Rect],
        friends: &[Rect],
        ws: &mut DrcScratch,
        sink: &mut DrcSink,
    ) -> bool {
        let l = self.tech.layer(layer);
        // Only friends actually touching a candidate merge with it.
        ws.merged.clear();
        ws.merged.extend_from_slice(candidates);
        ws.remaining.clear();
        ws.remaining.extend_from_slice(friends);
        let mut changed = true;
        while changed {
            changed = false;
            let merged = &mut ws.merged;
            ws.remaining.retain(|f| {
                if merged.iter().any(|c| c.touches(*f)) {
                    merged.push(*f);
                    changed = true;
                    false
                } else {
                    true
                }
            });
        }
        let marker = ws
            .merged
            .iter()
            .copied()
            .reduce(Rect::hull)
            .unwrap_or_default();

        if let Some(rule) = l.min_step {
            let mut violated = false;
            visit_union_boundaries(&ws.merged, &mut ws.grid, |loop_| {
                let n = loop_.len();
                // Count maximal runs of consecutive short edges around the
                // cycle.
                let mut run = 0u32;
                let mut max_run = 0u32;
                for i in 0..2 * n {
                    let a = loop_[i % n];
                    let b = loop_[(i + 1) % n];
                    if a.manhattan(b) < rule.min_step_length {
                        run += 1;
                        max_run = max_run.max(run.min(n as u32));
                    } else {
                        run = 0;
                    }
                    if i >= n && run == 0 {
                        break;
                    }
                }
                if max_run > rule.max_edges {
                    violated = true;
                    return false; // first violating loop suffices
                }
                true
            });
            if violated && !sink.report(DrcViolation::new(RuleKind::MinStep, layer, marker)) {
                return false;
            }
        }
        if l.min_width > 0 {
            max_rects_into(&ws.merged, &mut ws.grid, &mut ws.maxes);
            if ws.maxes.iter().any(|r| r.min_side() < l.min_width)
                && !sink.report(DrcViolation::new(RuleKind::MinWidth, layer, marker))
            {
                return false;
            }
        }
        if l.min_area > 0
            && union_area_with(&ws.merged, &mut ws.grid) < l.min_area
            && !sink.report(DrcViolation::new(RuleKind::MinArea, layer, marker))
        {
            return false;
        }
        true
    }

    /// Checks a cut shape against other cuts (cut spacing). Returns
    /// `false` iff the sink stopped the check.
    pub fn check_cut_shape(
        &self,
        layer: LayerId,
        rect: Rect,
        owner: Owner,
        ctx: &ShapeSet,
        sink: &mut DrcSink,
    ) -> bool {
        debug_assert_eq!(self.tech.layer(layer).kind, LayerKind::Cut);
        let spacing = self.tech.layer(layer).spacing;
        let window = rect.expanded(spacing.max(1));
        ctx.for_each_in(layer, window, |other, o| {
            // Same-owner stacked cuts at the same spot are one via; any
            // other proximity — same-owner or not — violates cut spacing.
            if o == owner && other == rect {
                return true;
            }
            if rect.touches(other) {
                return sink.report(DrcViolation::new(
                    RuleKind::Short,
                    layer,
                    gap_marker(rect, other),
                ));
            }
            let d2 = pao_geom::rect_dist(rect, other);
            if d2 < i128::from(spacing) * i128::from(spacing) {
                return sink.report(DrcViolation::new(
                    RuleKind::CutSpacing,
                    layer,
                    gap_marker(rect, other),
                ));
            }
            true
        })
    }

    /// The framework's central query: can `via` land with its origin at
    /// `at`, on behalf of `owner`, given the context?
    ///
    /// Sub-checks run cheapest-first so a first-mode sink exits before
    /// the expensive polygon machinery: cut spacing, bottom-layer
    /// spacing/short/EOL, top-layer spacing/short/EOL plus the top
    /// enclosure's own min width, and finally the merged-geometry
    /// min-step/min-width/min-area with the owner's own bottom metal.
    /// Runs against the workspace buffers of `ws`; returns `false` iff
    /// the sink stopped the check.
    pub fn check_via_placement(
        &self,
        via: &ViaDef,
        at: Point,
        owner: Owner,
        ctx: &ShapeSet,
        ws: &mut DrcScratch,
        sink: &mut DrcSink,
    ) -> bool {
        self.via_pre_merged(via, at, owner, ctx, ws, sink)
            && self.via_merged(via, owner, ctx, ws, sink)
    }

    /// `true` when `via` can land at `at` DRC-free — the verdict of a
    /// first-mode [`DrcEngine::check_via_placement`], and the form every
    /// accept/reject decision site uses. Tallies probe/reject/early-exit
    /// counts into `ws` (published by [`DrcScratch::flush_obs`]) and
    /// leaves the reject's rule + sub-check attribution in
    /// [`DrcScratch::last_reject`].
    #[must_use]
    pub fn via_placement_clean(
        &self,
        via: &ViaDef,
        at: Point,
        owner: Owner,
        ctx: &ShapeSet,
        ws: &mut DrcScratch,
    ) -> bool {
        if !self.via_pairwise_clean(via, at, owner, ctx, ws) {
            // Rejected before the merged-geometry machinery was touched.
            return false;
        }
        if let Some(rule) = self.merged_dirty_rule(via.bottom_layer, owner, ctx, &ws.bottom) {
            // The dominant failure mode (enclosure overhang tripping a
            // plain min-step) proven in O(1), before any merge machinery.
            ws.rejects += 1;
            ws.early_exits += 1;
            ws.last_reject = Some(RejectInfo {
                rule,
                subcheck: SubCheck::DefiniteReject,
            });
            return false;
        }
        let mut sink = DrcSink::first();
        if !self.via_merged(via, owner, ctx, ws, &mut sink) {
            ws.rejects += 1;
            ws.last_reject = sink.violations().first().map(|v| RejectInfo {
                rule: v.rule,
                subcheck: SubCheck::Merged,
            });
            return false;
        }
        true
    }

    /// `true` when `via` at `at` passes every *pairwise* rule against
    /// `ctx` (cut spacing, metal spacing, EOL) — the merged-geometry
    /// rules are skipped. This is [`Self::via_placement_clean`] minus
    /// the same-owner merged checks, and its first stage. Outside it, its
    /// one caller is the repair scan's certified path, whose `ctx` holds
    /// only foreign shapes: merged geometry only ever unions same-owner
    /// shapes, and a certified pin's own-cell checks were already proven
    /// clean.
    #[must_use]
    pub fn via_pairwise_clean(
        &self,
        via: &ViaDef,
        at: Point,
        owner: Owner,
        ctx: &ShapeSet,
        ws: &mut DrcScratch,
    ) -> bool {
        ws.probes += 1;
        ws.last_reject = None;
        let mut sink = DrcSink::first();
        if !self.via_pre_merged(via, at, owner, ctx, ws, &mut sink) {
            ws.rejects += 1;
            ws.early_exits += 1;
            ws.last_reject = sink.violations().first().map(|v| RejectInfo {
                rule: v.rule,
                subcheck: ws.stage,
            });
            return false;
        }
        true
    }

    /// Exact O(1) definite-reject test for the common merged-geometry
    /// shapes: a single bottom enclosure rect merging with at most one
    /// same-owner metal shape. Returns `Some(rule)` only when
    /// [`Self::via_merged`] would provably reject as well (the rule
    /// names the violation proven); `None` means "unknown — run the real
    /// check". Only the boolean fast path ([`Self::via_placement_clean`])
    /// uses this, so the collected violation lists never change.
    fn merged_dirty_rule(
        &self,
        layer: LayerId,
        owner: Owner,
        ctx: &ShapeSet,
        bottom: &[Rect],
    ) -> Option<RuleKind> {
        let [r] = bottom else { return None };
        let r = *r;
        let l = self.tech.layer(layer);
        // Same window the merged check scans; more than one friend means
        // general multi-shape geometry — bail out to the full machinery.
        let mut first: Option<Rect> = None;
        let mut many = false;
        ctx.for_each_friend(layer, r.expanded(1), owner, |f| {
            if first.is_some() {
                many = true;
                return false;
            }
            first = Some(f);
            true
        });
        if many {
            return None;
        }
        // When the merged component is literally one rectangle, all three
        // merged rules collapse to closed forms (exact, both directions —
        // used only for reject here). Checked in the same order as
        // [`Self::check_merged`] reports, so attribution matches.
        let single_rect_dirty = |u: Rect| -> Option<RuleKind> {
            if l.min_width > 0 && u.min_side() < l.min_width {
                return Some(RuleKind::MinWidth);
            }
            if l.min_area > 0 && u.area() < l.min_area {
                return Some(RuleKind::MinArea);
            }
            let rule = l.min_step?;
            let w_short = u.width() < rule.min_step_length;
            let h_short = u.height() < rule.min_step_length;
            let max_run: u32 = match (w_short, h_short) {
                (true, true) => 4,
                (true, false) | (false, true) => 1,
                (false, false) => 0,
            };
            (max_run > rule.max_edges).then_some(RuleKind::MinStep)
        };
        let Some(f) = first else {
            return single_rect_dirty(r);
        };
        if !f.touches(r) {
            return single_rect_dirty(r);
        }
        if f.contains_rect(r) {
            return single_rect_dirty(f);
        }
        if r.contains_rect(f) {
            return single_rect_dirty(r);
        }
        // Two properly overlapping rects, neither containing the other: a
        // side of one protruding past the other by less than the min-step
        // length leaves a boundary edge of exactly that length, provided
        // the other rect strictly sticks out on a perpendicular side (so
        // the short edge cannot merge with a collinear run). Only claimed
        // for plain `MAXEDGES 0` rules, where one short edge suffices.
        let rule = l.min_step?;
        if rule.max_edges != 0 || !r.overlaps(f) {
            return None;
        }
        let s = rule.min_step_length;
        let tab = |a: Rect, b: Rect| {
            let perp_x = b.xlo() < a.xlo() || b.xhi() > a.xhi();
            let perp_y = b.ylo() < a.ylo() || b.yhi() > a.yhi();
            (a.xhi() > b.xhi() && a.xhi() - b.xhi() < s && perp_y)
                || (a.xlo() < b.xlo() && b.xlo() - a.xlo() < s && perp_y)
                || (a.yhi() > b.yhi() && a.yhi() - b.yhi() < s && perp_x)
                || (a.ylo() < b.ylo() && b.ylo() - a.ylo() < s && perp_x)
        };
        (tab(r, f) || tab(f, r)).then_some(RuleKind::MinStep)
    }

    /// Everything except the merged-geometry check, cheapest sub-check
    /// first. Fills `ws.bottom`/`ws.cuts`/`ws.top` with the translated
    /// via shapes (`ws.bottom` is consumed by [`Self::via_merged`]).
    fn via_pre_merged(
        &self,
        via: &ViaDef,
        at: Point,
        owner: Owner,
        ctx: &ShapeSet,
        ws: &mut DrcScratch,
        sink: &mut DrcSink,
    ) -> bool {
        ws.bottom.clear();
        ws.bottom
            .extend(via.bottom_shapes.iter().map(|r| r.translated(at)));
        ws.cuts.clear();
        ws.cuts
            .extend(via.cut_shapes.iter().map(|r| r.translated(at)));
        ws.top.clear();
        ws.top
            .extend(via.top_shapes.iter().map(|r| r.translated(at)));

        ws.stage = SubCheck::Cut;
        for i in 0..ws.cuts.len() {
            let r = ws.cuts[i];
            if !self.check_cut_shape(via.cut_layer, r, owner, ctx, sink) {
                return false;
            }
        }
        ws.stage = SubCheck::Bottom;
        for i in 0..ws.bottom.len() {
            let r = ws.bottom[i];
            if !self.check_shape(via.bottom_layer, r, owner, ctx, sink) {
                return false;
            }
        }
        ws.stage = SubCheck::Top;
        let top_min_width = self.tech.layer(via.top_layer).min_width;
        for i in 0..ws.top.len() {
            let r = ws.top[i];
            if !self.check_shape(via.top_layer, r, owner, ctx, sink) {
                return false;
            }
            // The top enclosure alone must satisfy min width.
            if top_min_width > 0
                && r.min_side() < top_min_width
                && !sink.report(DrcViolation::new(RuleKind::MinWidth, via.top_layer, r))
            {
                return false;
            }
        }
        true
    }

    /// Merged-geometry checks with the owner's own bottom-layer metal.
    /// Expects `ws.bottom` as filled by [`Self::via_pre_merged`].
    fn via_merged(
        &self,
        via: &ViaDef,
        owner: Owner,
        ctx: &ShapeSet,
        ws: &mut DrcScratch,
        sink: &mut DrcSink,
    ) -> bool {
        let window = ws
            .bottom
            .iter()
            .copied()
            .reduce(Rect::hull)
            .unwrap_or_default()
            .expanded(1);
        let friends = &mut ws.friends;
        friends.clear();
        ctx.for_each_friend(via.bottom_layer, window, owner, |r| {
            friends.push(r);
            true
        });
        let bottom = std::mem::take(&mut ws.bottom);
        let friends = std::mem::take(&mut ws.friends);
        let cont = self.check_merged(via.bottom_layer, &bottom, &friends, ws, sink);
        ws.bottom = bottom;
        ws.friends = friends;
        cont
    }

    /// Exhaustively audits a shape set: every conflicting same-layer pair
    /// is checked for shorts and spacing (each unordered pair reported at
    /// most once), and cut layers for cut spacing. Returns `false` iff the
    /// sink stopped the audit.
    ///
    /// Used to score routed designs and to validate access patterns.
    pub fn audit(&self, ctx: &ShapeSet, sink: &mut DrcSink) -> bool {
        for li in 0..ctx.num_layers() {
            let layer = LayerId(li as u32);
            let kind = self.tech.layer(layer).kind;
            let halo = match kind {
                LayerKind::Routing => self.halo(layer),
                LayerKind::Cut => self.tech.layer(layer).spacing,
            };
            for (a, oa) in ctx.iter_layer(layer) {
                let window = a.expanded(halo.max(1));
                let cont = ctx.for_each_in(layer, window, |b, ob| {
                    // Order pairs to avoid double-reporting: compare by
                    // (rect, owner) with self-pair skipped.
                    if !oa.conflicts_with(ob) || (b, ob) <= (a, oa) {
                        return true;
                    }
                    match kind {
                        LayerKind::Routing => match self.spacing_violation(layer, a, b) {
                            Some(v) => sink.report(v),
                            None => true,
                        },
                        LayerKind::Cut => {
                            if a.touches(b) {
                                sink.report(DrcViolation::new(
                                    RuleKind::Short,
                                    layer,
                                    gap_marker(a, b),
                                ))
                            } else if pao_geom::rect_dist(a, b)
                                < i128::from(halo) * i128::from(halo)
                            {
                                sink.report(DrcViolation::new(
                                    RuleKind::CutSpacing,
                                    layer,
                                    gap_marker(a, b),
                                ))
                            } else {
                                true
                            }
                        }
                    }
                });
                if !cont {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pao_geom::Dir;
    use pao_tech::rules::{EolRule, MinStepRule};
    use pao_tech::Layer;

    fn tech() -> Tech {
        let mut t = Tech::new(1000);
        let mut m1 = Layer::routing("M1", Dir::Horizontal, 200, 60, 70);
        m1.min_step = Some(MinStepRule::simple(60));
        m1.min_area = 10_000;
        m1.eol_rules.push(EolRule {
            space: 90,
            eol_width: 80,
            within: 25,
        });
        t.add_layer(m1);
        t.add_layer(Layer::cut("V1", 70, 80));
        t.add_layer(Layer::routing("M2", Dir::Vertical, 200, 60, 70));
        t
    }

    fn m1() -> LayerId {
        LayerId(0)
    }

    /// The violations a collect-all sink gathers from `check`.
    fn collect(check: impl FnOnce(&mut DrcSink) -> bool) -> Vec<DrcViolation> {
        let mut sink = DrcSink::all();
        assert!(check(&mut sink), "a collect-all sink never stops a check");
        sink.into_violations()
    }

    fn via(t: &Tech) -> ViaDef {
        ViaDef::new(
            "via1",
            t.layer_id("M1").unwrap(),
            vec![Rect::new(-65, -35, 65, 35)],
            t.layer_id("V1").unwrap(),
            vec![Rect::new(-35, -35, 35, 35)],
            t.layer_id("M2").unwrap(),
            vec![Rect::new(-35, -65, 35, 65)],
        )
    }

    #[test]
    fn spacing_simple() {
        let t = tech();
        let e = DrcEngine::new(&t);
        let a = Rect::new(0, 0, 200, 60);
        // 70 required; 69 violates, 70 clean.
        assert!(e
            .spacing_violation(m1(), a, Rect::new(0, 129, 200, 189))
            .is_some());
        assert!(e
            .spacing_violation(m1(), a, Rect::new(0, 130, 200, 190))
            .is_none());
        // Overlap and touch are shorts.
        let short = e
            .spacing_violation(m1(), a, Rect::new(100, 0, 300, 60))
            .unwrap();
        assert_eq!(short.rule, RuleKind::Short);
        let touch = e
            .spacing_violation(m1(), a, Rect::new(200, 0, 300, 60))
            .unwrap();
        assert_eq!(touch.rule, RuleKind::Short);
    }

    #[test]
    fn spacing_corner_to_corner() {
        let t = tech();
        let e = DrcEngine::new(&t);
        let a = Rect::new(0, 0, 100, 60);
        // Diagonal at (50, 49): sqrt(50²+49²) ≈ 70.01 > 70 clean.
        assert!(e
            .spacing_violation(m1(), a, Rect::new(150, 109, 250, 169))
            .is_none());
        // (40, 40): ≈ 56.6 < 70 violates.
        let v = e
            .spacing_violation(m1(), a, Rect::new(140, 100, 240, 160))
            .unwrap();
        assert_eq!(v.rule, RuleKind::MetalSpacing);
    }

    #[test]
    fn check_shape_uses_owner() {
        let t = tech();
        let e = DrcEngine::new(&t);
        let mut ctx = ShapeSet::new(3);
        ctx.insert(m1(), Rect::new(0, 0, 200, 60), Owner::pin(1));
        let r = Rect::new(100, 0, 300, 60);
        // Same owner: no violations even when overlapping.
        assert!(collect(|s| e.check_shape(m1(), r, Owner::pin(1), &ctx, s)).is_empty());
        assert!(e.check_shape(m1(), r, Owner::pin(1), &ctx, &mut DrcSink::first()));
        // Different owner: short.
        assert!(!collect(|s| e.check_shape(m1(), r, Owner::pin(2), &ctx, s)).is_empty());
        assert!(!e.check_shape(m1(), r, Owner::pin(2), &ctx, &mut DrcSink::first()));
    }

    #[test]
    fn eol_spacing_fires_only_for_narrow_edges() {
        let t = tech();
        let e = DrcEngine::new(&t);
        let mut ctx = ShapeSet::new(3);
        // A wall 80 away to the east of a narrow shape's right EOL edge.
        ctx.insert(m1(), Rect::new(180, 0, 240, 60), Owner::obs(0));
        // Height 60 < eol_width 80 → EOL; gap 80 < 90 → violation.
        let narrow = Rect::new(0, 0, 100, 60);
        let v = collect(|s| e.check_shape(m1(), narrow, Owner::pin(1), &ctx, s));
        assert!(v.iter().any(|v| v.rule == RuleKind::EolSpacing), "{v:?}");
        // A tall shape (height ≥ 80) has no vertical EOL edge; plain
        // spacing (70) is satisfied at gap 80.
        let tall = Rect::new(0, -20, 100, 60);
        let v = collect(|s| e.check_shape(m1(), tall, Owner::pin(1), &ctx, s));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn merged_min_step_detects_via_overhang() {
        let t = tech();
        let e = DrcEngine::new(&t);
        let ws = &mut DrcScratch::new();
        // Pin bar 400×60; via enclosure 130×70 sticking out 5 above and
        // below near the middle: edge run (5, 130, 5) all < 60 → min-step.
        let pin = Rect::new(0, 0, 400, 60);
        let enc = Rect::new(100, -5, 230, 65);
        let v = collect(|s| e.check_merged(m1(), &[enc], &[pin], ws, s));
        assert!(v.iter().any(|v| v.rule == RuleKind::MinStep), "{v:?}");
        // Enclosure aligned to the pin boundary: no step.
        let aligned = Rect::new(100, 0, 230, 60);
        let v = collect(|s| e.check_merged(m1(), &[aligned], &[pin], ws, s));
        assert!(v.iter().all(|v| v.rule != RuleKind::MinStep), "{v:?}");
    }

    #[test]
    fn merged_min_area_and_width() {
        let t = tech();
        let e = DrcEngine::new(&t);
        let ws = &mut DrcScratch::new();
        let square = [Rect::new(0, 0, 70, 70)];
        // Isolated 70×70 enclosure: area 4900 < 10000 → min-area.
        let v = collect(|s| e.check_merged(m1(), &square, &[], ws, s));
        assert!(v.iter().any(|v| v.rule == RuleKind::MinArea));
        // Thin neck: min width violation.
        let neck = [Rect::new(0, 0, 200, 60), Rect::new(200, 10, 260, 40)];
        let v = collect(|s| e.check_merged(m1(), &neck, &[], ws, s));
        assert!(v.iter().any(|v| v.rule == RuleKind::MinWidth), "{v:?}");
        // Friend that does not touch the candidate does not merge.
        let far = [Rect::new(1000, 0, 1400, 200)];
        let v = collect(|s| e.check_merged(m1(), &square, &far, ws, s));
        assert!(v.iter().any(|v| v.rule == RuleKind::MinArea));
    }

    #[test]
    fn cut_spacing() {
        let t = tech();
        let e = DrcEngine::new(&t);
        let v1 = t.layer_id("V1").unwrap();
        let mut ctx = ShapeSet::new(3);
        ctx.insert(v1, Rect::new(0, 0, 70, 70), Owner::pin(1));
        let cut = |r: Rect, owner: Owner| collect(|s| e.check_cut_shape(v1, r, owner, &ctx, s));
        // 79 away: violation (spacing 80); same for same-owner cuts.
        let v = cut(Rect::new(149, 0, 219, 70), Owner::pin(2));
        assert!(v.iter().any(|v| v.rule == RuleKind::CutSpacing));
        let v = cut(Rect::new(149, 0, 219, 70), Owner::pin(1));
        assert!(v.iter().any(|v| v.rule == RuleKind::CutSpacing));
        // 80 away: clean.
        assert!(cut(Rect::new(150, 0, 220, 70), Owner::pin(2)).is_empty());
        // Identical same-owner cut: treated as the same via.
        assert!(cut(Rect::new(0, 0, 70, 70), Owner::pin(1)).is_empty());
    }

    #[test]
    fn via_placement_clean_and_dirty() {
        let t = tech();
        let e = DrcEngine::new(&t);
        let via = via(&t);
        let mut ws = DrcScratch::new();
        let all = |ctx: &ShapeSet, owner: Owner| {
            collect(|s| {
                e.check_via_placement(&via, Point::ORIGIN, owner, ctx, &mut DrcScratch::new(), s)
            })
        };
        let mut ctx = ShapeSet::new(3);
        // A wide pin that fully contains the bottom enclosure.
        ctx.insert(m1(), Rect::new(-200, -35, 200, 35), Owner::pin(1));
        let v = all(&ctx, Owner::pin(1));
        assert!(v.is_empty(), "{v:?}");
        assert!(e.via_placement_clean(&via, Point::new(0, 0), Owner::pin(1), &ctx, &mut ws));
        assert_eq!(ws.last_reject(), None);
        // Same via for a different owner shorts against the pin.
        let v = all(&ctx, Owner::pin(2));
        assert!(v.iter().any(|v| v.rule == RuleKind::Short));
        assert!(!e.via_placement_clean(&via, Point::new(0, 0), Owner::pin(2), &ctx, &mut ws));
        assert_eq!(
            ws.last_reject(),
            Some(RejectInfo {
                rule: RuleKind::Short,
                subcheck: SubCheck::Bottom,
            })
        );
        // A narrow pin causes a min-step from the enclosure overhang.
        let mut ctx2 = ShapeSet::new(3);
        ctx2.insert(m1(), Rect::new(-200, -30, 200, 30), Owner::pin(1));
        let v = all(&ctx2, Owner::pin(1));
        assert!(v.iter().any(|v| v.rule == RuleKind::MinStep), "{v:?}");
        assert!(!e.via_placement_clean(&via, Point::new(0, 0), Owner::pin(1), &ctx2, &mut ws));
        assert_eq!(
            ws.last_reject(),
            Some(RejectInfo {
                rule: RuleKind::MinStep,
                subcheck: SubCheck::DefiniteReject,
            })
        );
        // Probe accounting: 3 probes, 2 rejects, both early (the short
        // fires in the pre-merged phase; the single-friend overhang
        // min-step is proven by the O(1) definite-reject test).
        assert_eq!(ws.probes(), 3);
        assert_eq!(ws.rejects(), 2);
        assert_eq!(ws.early_exits(), 2);
    }

    #[test]
    fn via_probe_reuse_reaches_steady_state_capacity() {
        let t = tech();
        let e = DrcEngine::new(&t);
        let via = via(&t);
        let mut ctx = ShapeSet::new(3);
        // A pin tall enough to contain the enclosure, so clean probes run
        // the full merged machinery (exercising all scratch buffers).
        ctx.insert(m1(), Rect::new(-200, -35, 200, 35), Owner::pin(1));
        ctx.insert(m1(), Rect::new(-200, 200, 200, 260), Owner::pin(2));
        ctx.rebuild();
        let mut ws = DrcScratch::new();
        // Warm up, record the high-water mark, then probe a lot more.
        for x in -50..0 {
            let _ = e.via_placement_clean(&via, Point::new(x, 0), Owner::pin(1), &ctx, &mut ws);
        }
        let hiwater = ws.high_water();
        assert!(hiwater > 0);
        for x in 0..200 {
            let _ = e.via_placement_clean(&via, Point::new(x, 0), Owner::pin(1), &ctx, &mut ws);
        }
        assert_eq!(
            ws.high_water(),
            hiwater,
            "scratch buffers must stop growing after warm-up"
        );
    }

    #[test]
    fn audit_counts_each_pair_once() {
        let t = tech();
        let e = DrcEngine::new(&t);
        let mut ctx = ShapeSet::new(3);
        ctx.insert(m1(), Rect::new(0, 0, 200, 60), Owner::net(1));
        ctx.insert(m1(), Rect::new(0, 100, 200, 160), Owner::net(2)); // 40 gap
        ctx.insert(m1(), Rect::new(1000, 0, 1200, 60), Owner::net(3)); // far away
        ctx.rebuild();
        let v = collect(|s| e.audit(&ctx, s));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RuleKind::MetalSpacing);
        let mut first = DrcSink::first();
        assert!(!e.audit(&ctx, &mut first));
        assert_eq!(first.violations(), &v[..]);
    }
}
