//! The TritonRoute v0.0.6.0-like baseline pin access ("TrRte" in the
//! paper's tables).
//!
//! The baseline reproduces the *behaviour* the paper measures, without
//! copying any code:
//!
//! * candidate points are **on-track × on-track only** (no half-track,
//!   shape-center or enclosure-boundary coordinates), falling back to the
//!   pin-rectangle center when no track crosses the pin;
//! * the up-via is chosen **geometrically** (the via whose bottom
//!   enclosure fits the pin rectangle best), not by trying alternatives
//!   under DRC;
//! * candidates are validated with an **incomplete rule set** — simple
//!   spacing and shorts only, checked by a linear scan over the cell's
//!   shapes (no spatial index, no early termination). Min-step,
//!   merged-metal, spacing-table, EOL and cut-context rules are missed,
//!   so dirty access points survive — the published TritonRoute v0.0.6.0
//!   failure mode the paper measures;
//! * each pin keeps its first candidate independently — there is no
//!   access pattern generation or boundary-conflict awareness.
//!
//! The linear scans also make the baseline *slower* than PAAF while
//! producing *worse* access — the paper's Table II shape.

use pao_core::apgen::AccessPoint;
use pao_core::coord::CoordType;
use pao_core::unique::{UniqueInstance, UniqueInstanceId, UniqueTable};
use pao_design::{CompId, Design};
use pao_geom::{Dir, Point, Rect};
use pao_tech::{LayerId, Tech, ViaId};

/// Baseline configuration.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Maximum candidates kept per pin.
    pub k: usize,
}

impl Default for BaselineConfig {
    fn default() -> BaselineConfig {
        BaselineConfig { k: 3 }
    }
}

/// Per-unique-instance baseline access data.
#[derive(Debug, Clone)]
pub struct BaselineUnique {
    /// The unique instance.
    pub info: UniqueInstance,
    /// Unvalidated access points per master pin.
    pub pin_aps: Vec<Vec<AccessPoint>>,
}

/// The baseline's analysis result.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Per-unique-instance data.
    pub unique: Vec<BaselineUnique>,
    /// Unique instance of each component.
    pub comp_uniq: Vec<Option<UniqueInstanceId>>,
    /// Total candidate points generated.
    pub total_aps: usize,
    /// Wall time of the generation pass.
    pub elapsed: std::time::Duration,
}

impl BaselineResult {
    /// The baseline's selected access point for `(comp, pin_idx)` — always
    /// the first candidate — in the component's die frame.
    #[must_use]
    pub fn access_point(
        &self,
        design: &Design,
        comp: CompId,
        pin_idx: usize,
    ) -> Option<AccessPoint> {
        let ui = self.comp_uniq.get(comp.index()).copied().flatten()?;
        let u = &self.unique[ui.index()];
        let mut ap = u.pin_aps.get(pin_idx)?.first()?.clone();
        ap.pos += design.component(comp).location - design.component(u.info.rep).location;
        Some(ap)
    }
}

/// Picks the via whose bottom enclosure fits `pin_rect` best: prefer vias
/// whose enclosure nests inside the pin when centered; among those (or
/// failing that, among all) minimize the overhang area. Purely geometric —
/// exactly the kind of heuristic that misses min-step and context DRCs.
fn best_fit_via(tech: &Tech, layer: LayerId, pin_rect: Rect) -> Option<ViaId> {
    let candidates = tech.up_vias_from(layer);
    candidates.iter().copied().min_by_key(|&vid| {
        let bb = tech.via(vid).bottom_bbox();
        let over_x = (bb.width() - pin_rect.width()).max(0);
        let over_y = (bb.height() - pin_rect.height()).max(0);
        (over_x + over_y, vid)
    })
}

/// The baseline's incomplete validity check: every via shape must be at
/// least the layer's *simple* spacing away from every other-pin shape of
/// the cell, scanned linearly. Returns `true` when the candidate passes.
fn simple_rules_pass(
    tech: &Tech,
    all_rects: &[(LayerId, Rect)],
    own_rects: &[(LayerId, Rect)],
    via: pao_tech::ViaId,
    pos: Point,
) -> bool {
    for (vl, vr) in tech.via(via).placed_shapes(pos) {
        if !tech.layer(vl).is_routing() {
            continue; // cut context rules are not checked — missed rules
        }
        let spacing = tech.layer(vl).spacing;
        for &(l, r) in all_rects {
            if l != vl {
                continue;
            }
            // Shapes of the candidate's own pin merge with the via.
            if own_rects.iter().any(|&(ol, or)| ol == l && or == r) {
                continue;
            }
            if vr.touches(r) {
                return false; // short
            }
            let (dx, dy) = vr.dist_components(r);
            let d2 = i128::from(dx) * i128::from(dx) + i128::from(dy) * i128::from(dy);
            if d2 < i128::from(spacing) * i128::from(spacing) {
                return false;
            }
        }
    }
    true
}

/// Runs the baseline pin access analysis.
#[must_use]
pub fn baseline_pin_access(tech: &Tech, design: &Design, cfg: &BaselineConfig) -> BaselineResult {
    let t0 = std::time::Instant::now();
    let UniqueTable {
        classes: infos,
        comp_uniq,
    } = UniqueTable::build(tech, design);
    let mut unique = Vec::with_capacity(infos.len());
    let mut total_aps = 0usize;
    for info in infos {
        // An unknown master yields an empty (no-access) entry so `unique`
        // stays index-aligned with `comp_uniq`, instead of aborting.
        let Some(master) = tech.macro_by_name(&info.master) else {
            unique.push(BaselineUnique {
                info,
                pin_aps: Vec::new(),
            });
            continue;
        };
        let shapes = design.placed_pin_shapes(tech, info.rep);
        // The "era-faithful" linear context scan: for every candidate the
        // baseline sweeps all cell shapes once (no spatial index).
        let all_rects: Vec<(LayerId, Rect)> = shapes.iter().map(|&(_, l, r)| (l, r)).collect();
        let mut pin_aps: Vec<Vec<AccessPoint>> = vec![Vec::new(); master.pins.len()];
        for (pin_idx, pin) in master.pins.iter().enumerate() {
            if pin.use_.is_supply() {
                continue;
            }
            let rects: Vec<(LayerId, Rect)> = shapes
                .iter()
                .filter(|&&(pi, _, _)| pi == pin_idx)
                .map(|&(_, l, r)| (l, r))
                .collect();
            if rects.is_empty() {
                continue;
            }
            let mut aps = Vec::new();
            for &(layer, rect) in &rects {
                if !tech.layer(layer).is_routing() {
                    continue;
                }
                let via = best_fit_via(tech, layer, rect);
                let pref = tech.layer(layer).dir;
                // On-track candidates only.
                let (ys, xs) = on_track_coords(tech, design, layer, rect, pref);
                let mut candidates: Vec<(Point, CoordType, CoordType)> = Vec::new();
                for &y in &ys {
                    for &x in &xs {
                        candidates.push((Point::new(x, y), CoordType::OnTrack, CoordType::OnTrack));
                    }
                }
                if candidates.is_empty() {
                    // v0.0.6.0-style fallback: the rectangle center.
                    candidates.push((
                        rect.center(),
                        CoordType::ShapeCenter,
                        CoordType::ShapeCenter,
                    ));
                }
                for (pos, t0ty, t1ty) in candidates {
                    if aps.len() >= cfg.k {
                        break;
                    }
                    // Partial validation, era-faithful: simple spacing and
                    // shorts against every other-pin shape of the cell,
                    // found by a full linear scan (no spatial index). The
                    // rules this misses (min-step, merged metal, spacing
                    // tables, EOL, cut context) are exactly where the
                    // dirty APs come from.
                    let clean = match via {
                        None => true,
                        Some(v) => simple_rules_pass(tech, &all_rects, &rects, v, pos),
                    };
                    if !clean {
                        continue;
                    }
                    aps.push(AccessPoint {
                        pos,
                        layer,
                        pref_type: t0ty,
                        nonpref_type: t1ty,
                        vias: via.into_iter().collect(),
                        planar: Vec::new(),
                    });
                }
            }
            total_aps += aps.len();
            pin_aps[pin_idx] = aps;
        }
        unique.push(BaselineUnique { info, pin_aps });
    }
    BaselineResult {
        unique,
        comp_uniq,
        total_aps,
        elapsed: t0.elapsed(),
    }
}

/// On-track candidate coordinates: preferred-direction tracks of the pin's
/// layer × the upper layer's perpendicular tracks (both restricted to the
/// pin rectangle).
fn on_track_coords(
    tech: &Tech,
    design: &Design,
    layer: LayerId,
    rect: Rect,
    pref: Dir,
) -> (Vec<i64>, Vec<i64>) {
    let own: Vec<i64> = design
        .track_patterns_for(layer, pref)
        .iter()
        .flat_map(|p| {
            let (lo, hi) = match pref {
                Dir::Horizontal => (rect.ylo(), rect.yhi()),
                Dir::Vertical => (rect.xlo(), rect.xhi()),
            };
            p.coords_in(lo, hi)
        })
        .collect();
    let cross_dir = pref.perp();
    let upper = tech.routing_layer_above(layer);
    let cross: Vec<i64> = upper
        .map(|up| {
            design
                .track_patterns_for(up, cross_dir)
                .iter()
                .flat_map(|p| {
                    let (lo, hi) = match cross_dir {
                        Dir::Horizontal => (rect.ylo(), rect.yhi()),
                        Dir::Vertical => (rect.xlo(), rect.xhi()),
                    };
                    p.coords_in(lo, hi)
                })
                .collect()
        })
        .unwrap_or_default();
    // Map back to (ys, xs) regardless of the layer's direction.
    match pref {
        Dir::Horizontal => {
            let xs = if cross.is_empty() {
                vec![rect.center().x]
            } else {
                cross
            };
            (own, xs)
        }
        Dir::Vertical => {
            let ys = if cross.is_empty() {
                vec![rect.center().y]
            } else {
                cross
            };
            (ys, own)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pao_core::oracle::count_failed_pins_with;
    use pao_core::unique::{build_instance_context, local_pin_owner};
    use pao_drc::{DrcEngine, DrcScratch};
    use pao_testgen::{generate, SuiteCase};

    fn world() -> (Tech, Design) {
        generate(&SuiteCase::small_smoke())
    }

    #[test]
    fn baseline_generates_candidates_for_all_pins() {
        let (tech, design) = world();
        let r = baseline_pin_access(&tech, &design, &BaselineConfig::default());
        assert!(!r.unique.is_empty());
        assert!(r.total_aps > 0);
        for u in &r.unique {
            let master = tech.macro_by_name(&u.info.master).unwrap();
            for (pi, pin) in master.pins.iter().enumerate() {
                if pin.use_.is_supply() {
                    continue;
                }
                assert!(!u.pin_aps[pi].is_empty(), "{} {}", u.info.master, pin.name);
            }
        }
    }

    #[test]
    fn baseline_only_on_track_or_center() {
        let (tech, design) = world();
        let r = baseline_pin_access(&tech, &design, &BaselineConfig::default());
        for u in &r.unique {
            for aps in &u.pin_aps {
                for ap in aps {
                    assert!(
                        (ap.pref_type == CoordType::OnTrack
                            && ap.nonpref_type == CoordType::OnTrack)
                            || ap.pref_type == CoordType::ShapeCenter,
                        "{ap:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn baseline_has_dirty_aps_where_paaf_has_none() {
        let (tech, design) = world();
        let engine = DrcEngine::new(&tech);
        let mut ws = DrcScratch::new();
        let r = baseline_pin_access(&tech, &design, &BaselineConfig::default());
        let mut dirty = 0usize;
        for u in &r.unique {
            let ctx = build_instance_context(&tech, &design, u.info.rep);
            for (pi, aps) in u.pin_aps.iter().enumerate() {
                for ap in aps {
                    if let Some(v) = ap.primary_via() {
                        let owner = local_pin_owner(pi);
                        if !engine.via_placement_clean(tech.via(v), ap.pos, owner, &ctx, &mut ws) {
                            dirty += 1;
                        }
                    }
                }
            }
        }
        assert!(dirty > 0, "the unvalidated baseline must produce dirty APs");
    }

    #[test]
    fn baseline_fails_pins() {
        let (tech, design) = world();
        let r = baseline_pin_access(&tech, &design, &BaselineConfig::default());
        let (total, failed) =
            count_failed_pins_with(&tech, &design, |c, p| r.access_point(&design, c, p));
        assert_eq!(total, design.connected_pin_count());
        assert!(
            failed > 0,
            "baseline should fail some pins on this workload"
        );
    }
}
