//! Incremental re-analysis across placement changes.
//!
//! The paper motivates fast pin access analysis with placement
//! optimization loops (detailed placement, sizing, buffering), where cells
//! move repeatedly and "frequent changes in placement require a tremendous
//! amount of inter-cell pin access analysis" (Section IV-B).
//!
//! Intra-cell analysis (steps 1–2) depends only on the unique-instance
//! *signature* — master, orientation and track phases — so its results are
//! reusable across placements. The [`AnalysisCache`] store keys them by
//! signature; attached to [`PinAccessOracle::analyze_with_budget`] it
//! restores every signature seen before, and when a placement repeats only
//! stored signatures a resident service rebuilds steps 1–2 from it whole
//! and runs only the placement-dependent tail (cluster selection, repair,
//! audit) — the same tail a cold run ends in.
//!
//! A resident service goes one step further for a move that keeps every
//! signature cached ([`PinAccessOracle::window_tail`]): selection is
//! local to a selection group and a scan verdict depends only on the
//! shapes inside its probe windows, so only the groups a move reaches
//! are re-solved and only the pins whose windows it can reach are
//! re-probed.

use crate::budget::RunCtx;
use crate::cluster::{
    comp_bbox, default_pattern, form_clusters, select_patterns_budget, Cluster, RowIndex,
    SelectGroups, StripeCells,
};
use crate::error::Phase;
use crate::oracle::{
    probe_pins, scan_ap, via_hulls, PaoResult, PinAccessOracle, ProbeCtx, TailInput,
    UniqueInstanceAccess,
};
use crate::persist::{signature_of, AnalysisCache, Entry, Step2};
use crate::stats::PaoStats;
use crate::unique::{pin_owner, UniqueTable};
use pao_design::{CompId, Design};
use pao_drc::{DrcEngine, Owner, ShapeSet};
use pao_geom::{Dbu, Rect};
use pao_tech::Tech;
use std::collections::{HashMap, HashSet};

impl AnalysisCache {
    /// Rebuilds the unique instances of `table` — `design`'s table —
    /// from the store, translated into each representative's frame, as
    /// the tail's input, counting one hit per instance. `None` (and
    /// nothing counted) when any signature lacks a full entry: one without
    /// patterns, or, with the decision ledger on, without reject
    /// histograms.
    pub(crate) fn warm(&mut self, design: &Design, table: UniqueTable) -> Option<TailInput> {
        let ledger = pao_obs::ledger_enabled();
        // Resolving every entry up front makes the all-stored check and
        // the rebuild share one lookup — no later re-lookup can miss.
        let UniqueTable { classes, comp_uniq } = table;
        let entries: Vec<(&Entry, &Step2)> = classes
            .iter()
            .map(|info| {
                let e = self.step1(&signature_of(info), ledger)?;
                Some((e, e.patterns.as_ref()?))
            })
            .collect::<Option<_>>()?;
        let unique: Vec<UniqueInstanceAccess> = classes
            .into_iter()
            .zip(entries)
            .map(|(info, (e, (order, patterns)))| {
                let rep = design.component(info.rep).location;
                UniqueInstanceAccess {
                    pin_order: order.clone(),
                    patterns: patterns.clone(),
                    ..e.restore(info, rep)
                }
            })
            .collect();
        let n = unique.len();
        pao_obs::counter_add("cache.restored.apgen", n as u64);
        pao_obs::counter_add("cache.restored.pattern", n as u64);
        self.count(n, 0);
        Some(TailInput::new(unique, comp_uniq))
    }
}

/// The connected pins — the pins the audit counts — in net order, with a
/// compressed row table from each component to its entries. Nets never
/// change under a move, so a resident service builds it once; every
/// select → repair → audit tail builds one too.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConnectedPins {
    /// Every `(component, pin index)` with a net attached, in net order.
    list: Vec<(CompId, usize)>,
    /// `starts[c]..starts[c + 1]` indexes `slots` for component `c`.
    starts: Vec<u32>,
    /// Positions in `list`, grouped by component, each group in net order.
    slots: Vec<u32>,
}

impl ConnectedPins {
    pub(crate) fn build(tech: &Tech, design: &Design) -> ConnectedPins {
        let list = crate::oracle::connected_pins(tech, design);
        let mut starts = vec![0u32; design.components().len() + 1];
        for &(c, _) in &list {
            starts[c.index() + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut fill = starts.clone();
        let mut slots = vec![0u32; list.len()];
        for (slot, &(c, _)) in list.iter().enumerate() {
            let at = &mut fill[c.index()];
            slots[*at as usize] = slot as u32;
            *at += 1;
        }
        ConnectedPins {
            list,
            starts,
            slots,
        }
    }

    /// Every connected `(component, pin index)`, in net order.
    pub(crate) fn list(&self) -> &[(CompId, usize)] {
        &self.list
    }

    /// Connected pins counted over the whole design (Table III's total).
    pub(crate) fn total(&self) -> usize {
        self.list.len()
    }

    /// The positions in [`Self::list`] of `comp`'s connected pins, in net
    /// order.
    pub(crate) fn slots_of(&self, comp: CompId) -> impl Iterator<Item = usize> + '_ {
        let (lo, hi) = (self.starts[comp.index()], self.starts[comp.index() + 1]);
        self.slots[lo as usize..hi as usize]
            .iter()
            .map(|&s| s as usize)
    }

    /// The connected pin indices of `comp`, in net order.
    pub(crate) fn of(&self, comp: CompId) -> impl Iterator<Item = usize> + '_ {
        self.slots_of(comp).map(|s| self.list[s].1)
    }
}

/// The state a window ECO reads besides the new placement: the previous
/// snapshot and the service's resident indexes.
pub(crate) struct EcoWindow<'a> {
    /// The placement before the move.
    pub(crate) old_design: &'a Design,
    /// The previous, repair-free analysis of `old_design`.
    pub(crate) old: &'a PaoResult,
    /// Row index, already updated to the new placement.
    pub(crate) rows: &'a RowIndex,
    /// Members of every stripe a move touched, as they were before it.
    pub(crate) old_cells: &'a [(usize, StripeCells)],
    /// Moved components, sorted and distinct.
    pub(crate) moved: &'a [CompId],
    /// Each component's connected pins.
    pub(crate) pins: &'a ConnectedPins,
}

/// How far any placed shape of an instance of `u` — pin, obstruction or
/// the primary via at any of its access points — reaches past its
/// bounding box. The value depends only on the signature.
fn overhang(tech: &Tech, design: &Design, u: &UniqueInstanceAccess, via_hulls: &[Rect]) -> Dbu {
    let Some(b) = comp_bbox(tech, design, u.info.rep) else {
        return 0;
    };
    let mut out: Dbu = 0;
    let mut grow = |r: Rect| {
        out = out
            .max(b.xlo() - r.xlo())
            .max(r.xhi() - b.xhi())
            .max(b.ylo() - r.ylo())
            .max(r.yhi() - b.yhi());
    };
    design.for_each_placed_pin_shape(tech, u.info.rep, |_, _, r| grow(r));
    design.for_each_placed_obs_shape(tech, u.info.rep, |_, r| grow(r));
    for ap in u.pin_aps.iter().flatten() {
        if let Some(v) = ap.primary_via() {
            grow(via_hulls[v.index()].translated(ap.pos));
        }
    }
    out
}

/// The clusters of stripe `s` in the new placement, formed on first use.
fn stripe_clusters<'c>(
    rows: &RowIndex,
    memo: &'c mut HashMap<usize, Vec<Cluster>>,
    s: usize,
) -> &'c [Cluster] {
    memo.entry(s).or_insert_with(|| {
        let mut out = Vec::new();
        form_clusters(rows.stripe_cells(s), &mut out);
        out
    })
}

/// The selection groups a move changed, each holding its clusters in the
/// global (stripe, x) order, groups ordered by their first cluster.
///
/// Clusters re-form only in the touched stripes; a new cluster that
/// matches no old one of its stripe, or holds a moved component, is
/// changed. Its group is every cluster linked to it through members that
/// cover more than one stripe.
fn changed_groups(tech: &Tech, design: &Design, w: &EcoWindow<'_>) -> SelectGroups {
    let moved: HashSet<CompId> = w.moved.iter().copied().collect();
    let mut formed: HashMap<usize, Vec<Cluster>> = HashMap::new();
    let mut seeds: Vec<(usize, usize)> = Vec::new();
    for (s, cells) in w.old_cells {
        let mut before = Vec::new();
        form_clusters(cells, &mut before);
        let before: HashSet<Vec<CompId>> = before.into_iter().map(|c| c.comps).collect();
        for (k, c) in stripe_clusters(w.rows, &mut formed, *s).iter().enumerate() {
            if c.comps.iter().any(|m| moved.contains(m)) || !before.contains(&c.comps) {
                seeds.push((*s, k));
            }
        }
    }
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    let mut groups: Vec<Vec<(usize, usize)>> = Vec::new();
    let mut covered = Vec::new();
    for seed in seeds {
        if !seen.insert(seed) {
            continue;
        }
        let mut group = vec![seed];
        let mut next = 0;
        while next < group.len() {
            let (s, k) = group[next];
            next += 1;
            let members = stripe_clusters(w.rows, &mut formed, s)[k].comps.clone();
            for m in members {
                let Some(b) = comp_bbox(tech, design, m) else {
                    continue;
                };
                w.rows.covered_into(b, &mut covered);
                for &t in covered.iter().filter(|&&t| t != s) {
                    let Some(j) = stripe_clusters(w.rows, &mut formed, t)
                        .iter()
                        .position(|c| c.comps.contains(&m))
                    else {
                        continue;
                    };
                    if seen.insert((t, j)) {
                        group.push((t, j));
                    }
                }
            }
        }
        group.sort_unstable();
        groups.push(group);
    }
    groups.sort_unstable();
    let mut out = SelectGroups::default();
    for g in groups {
        let lo = out.clusters.len();
        out.clusters
            .extend(g.iter().map(|&(s, k)| formed[&s][k].clone()));
        out.groups.push((lo..out.clusters.len()).collect());
    }
    out
}

/// The connected pins to re-probe after `changed` components moved or
/// changed pattern, and one windowed audit context to probe them in.
///
/// Each instance's shapes (vias included) stay within `hang` of its box
/// and every probe reads within the engine's interaction range of its
/// via, so only pins of components whose boxes lie within `2 hang +
/// range` of a changed box — before or after the move — can change
/// verdict. The context holds every shape of each component that can
/// reach one of their probe windows: a subset of the whole-design audit
/// context containing everything inside the windows, so verdicts match.
fn reprobe(
    tech: &Tech,
    design: &Design,
    engine: &DrcEngine<'_>,
    w: &EcoWindow<'_>,
    result: &PaoResult,
    changed: &[CompId],
) -> (Vec<(CompId, usize)>, ShapeSet) {
    let via_hulls = via_hulls(tech);
    let hang = result
        .unique
        .iter()
        .map(|u| overhang(tech, design, u, &via_hulls))
        .chain(
            w.old
                .unique
                .iter()
                .map(|u| overhang(tech, w.old_design, u, &via_hulls)),
        )
        .max()
        .unwrap_or(0);
    let range = engine.interaction_range();
    let bbox = |c: CompId| comp_bbox(tech, design, c);
    // The index's components whose boxes touch `win`, into `out`.
    let touching = |win: Rect, out: &mut Vec<CompId>| {
        w.rows
            .near(win, |c| bbox(c).is_some_and(|b| b.touches(win)), out);
    };
    let mut near: Vec<CompId> = Vec::new();
    for &d in changed {
        let before = comp_bbox(tech, w.old_design, d);
        let after = bbox(d);
        for b in before
            .into_iter()
            .chain(after.filter(|&a| Some(a) != before))
        {
            touching(b.expanded(2 * hang + range), &mut near);
        }
    }
    near.sort_unstable();
    near.dedup();
    let pins: Vec<(CompId, usize)> = near
        .iter()
        .flat_map(|&c| w.pins.of(c).map(move |p| (c, p)))
        .collect();
    let mut reach: Vec<CompId> = Vec::new();
    for &(c, p) in &pins {
        let Some(ap) = result.access_point(design, c, p) else {
            continue;
        };
        let Some(v) = ap.primary_via() else { continue };
        let window = via_hulls[v.index()]
            .translated(ap.pos)
            .expanded(range + hang);
        touching(window, &mut reach);
    }
    reach.sort_unstable();
    reach.dedup();
    let mut ctx = ShapeSet::new(tech.layers().len());
    for &c in &reach {
        design.for_each_placed_pin_shape(tech, c, |pin_idx, layer, rect| {
            ctx.insert_deferred(layer, rect, pin_owner(c, pin_idx));
        });
        design.for_each_placed_obs_shape(tech, c, |layer, rect| {
            ctx.insert_deferred(layer, rect, Owner::obs(u64::from(c.0)));
        });
        for p in w.pins.of(c) {
            let Some(ap) = result.access_point(design, c, p) else {
                continue;
            };
            if let Some(v) = ap.primary_via() {
                for (layer, rect) in tech.via(v).each_placed_shape(ap.pos) {
                    ctx.insert_deferred(layer, rect, pin_owner(c, p));
                }
            }
        }
    }
    ctx.rebuild();
    (pins, ctx)
}

impl PinAccessOracle {
    /// The window tail of an ECO whose placement keeps every signature
    /// cached, over a repair-free previous snapshot (`w.old`: no repair
    /// overrides, no failed pin, nothing quarantined or skipped).
    ///
    /// * Selection is local to a selection group (the clusters linked by
    ///   shared multi-height members): a group whose clusters are all
    ///   unchanged solves exactly as before. Only the groups holding a
    ///   cluster the move changed ([`changed_groups`]) are re-solved, by
    ///   the cold pass's own fan-out and merge
    ///   ([`select_patterns_budget`]).
    /// * An audit verdict depends only on the shapes inside the pin's
    ///   probe windows. Only the connected pins whose windows can reach a
    ///   moved component, or one whose selected pattern changed
    ///   ([`reprobe`]), are re-probed, by the cold audit's own probe
    ///   ([`probe_pins`]); every other pin keeps its clean verdict.
    ///
    /// Returns the finished result — degraded when a group or probe
    /// faulted, was skipped or stalled — with the number of re-probed
    /// pins, or hands `input` back when a re-probed pin is dirty, so the
    /// caller can run the full tail (repair is needed, and only the full
    /// tail repairs).
    pub(crate) fn window_tail(
        &self,
        tech: &Tech,
        design: &Design,
        input: TailInput,
        w: &EcoWindow<'_>,
        run: &mut RunCtx,
    ) -> Result<(PaoResult, usize), Box<TailInput>> {
        let engine = DrcEngine::new(tech);
        let TailInput {
            unique,
            comp_uniq,
            stats,
        } = input;

        // Re-solve the changed groups over the previous selection, with
        // the moved components back at their defaults.
        let mut select = run.phase(Phase::Select);
        let groups = changed_groups(tech, design, w);
        let mut selection = w.old.selection.clone();
        for &m in w.moved {
            selection[m.index()] = default_pattern(&comp_uniq, &unique, m.index());
        }
        let select_out = select_patterns_budget(
            tech,
            &engine,
            design,
            &comp_uniq,
            &unique,
            &groups,
            selection,
            &mut select,
        );
        let selection = select_out.selection;
        let mut changed: Vec<CompId> = w.moved.to_vec();
        changed.extend(
            groups
                .clusters
                .iter()
                .flat_map(|cl| &cl.comps)
                .filter(|c| selection[c.index()] != w.old.selection[c.index()]),
        );
        changed.sort_unstable();
        changed.dedup();
        let mut result = PaoResult {
            unique,
            comp_uniq,
            selection,
            overrides: HashMap::new(),
            stats: PaoStats {
                select_telemetry: select_out.telemetry,
                ..stats
            },
        };
        run.end(select);

        // Re-probe the pins the change can reach (none when selection
        // already degraded: the result is discarded anyway).
        let mut audit = run.phase(Phase::Audit);
        let (pins, ctx) = if run.degraded() {
            (Vec::new(), ShapeSet::new(tech.layers().len()))
        } else {
            reprobe(tech, design, &engine, w, &result, &changed)
        };
        let selected: Vec<_> = pins
            .iter()
            .map(|&(comp, pin_idx)| scan_ap(&result, design, comp, pin_idx))
            .collect();
        let (_, failed) = probe_pins(
            &engine,
            design,
            &pins,
            None,
            Some(ProbeCtx::Shared(&ctx, &selected)),
            &mut audit,
        );
        run.end(audit);
        if failed > 0 && !run.degraded() {
            pao_obs::counter_add("eco.window.dirty_fallback", 1);
            return Err(Box::new(TailInput::new(result.unique, result.comp_uniq)));
        }
        pao_obs::counter_add("eco.window.groups", groups.groups.len() as u64);
        pao_obs::counter_add("eco.window.pins", pins.len() as u64);
        result.stats.total_pins = w.pins.total();
        result.stats.failed_pins = failed;
        run.close(&mut result.stats);
        Ok((result, pins.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::RunBudget;
    use pao_design::CompId;
    use pao_testgen::{generate, SuiteCase};

    /// One analysis of `design` with `cache` attached.
    fn analyze_with(
        oracle: &PinAccessOracle,
        tech: &Tech,
        design: &Design,
        cache: &mut AnalysisCache,
    ) -> PaoResult {
        let budget = RunBudget {
            store: Some(cache),
            ..RunBudget::unlimited()
        };
        oracle.analyze_with_budget(tech, design, budget)
    }

    #[test]
    fn cache_fast_path_matches_full_analysis() {
        let (tech, mut design) = generate(&SuiteCase::small_smoke());
        let oracle = PinAccessOracle::new();
        let mut cache = AnalysisCache::new();
        let first = analyze_with(&oracle, &tech, &design, &mut cache);
        assert!(!cache.is_empty());
        let (h0, m0) = cache.stats();
        assert_eq!((h0, m0), (0, first.unique.len()), "a cold store misses");

        // Re-analyze the identical placement: every signature restores.
        let second = analyze_with(&oracle, &tech, &design, &mut cache);
        let (h1, m1) = cache.stats();
        assert_eq!((h1, m1), (second.unique.len(), m0), "all hits");
        // Table II counters included: the stored entries carry their
        // apgen tallies.
        assert!(first.stats.off_track_aps > 0);
        assert!(
            second.stats.counters_eq(&first.stats),
            "warm:\n{}\ncold:\n{}",
            second.stats,
            first.stats
        );
        for ci in 0..design.components().len() {
            let comp = CompId(ci as u32);
            let a = first.access_point(&design, comp, 0).map(|a| a.pos);
            let b = second.access_point(&design, comp, 0).map(|a| a.pos);
            assert_eq!(a, b, "{comp}");
        }

        // The resident-service path rebuilds the same steps 1–2 whole.
        let warm = cache
            .warm(&design, UniqueTable::build(&tech, &design))
            .expect("every signature stored");
        let mut run = RunCtx::new(None, crate::budget::PhaseFractions::default(), None, 2);
        let third = oracle.select_repair_audit(&tech, &design, warm, &mut run);
        assert!(third.stats.counters_eq(&first.stats));

        // Moving a cell onto its own location keeps every signature.
        let c0 = design.component(CompId(0)).clone();
        design.component_mut(CompId(0)).location = c0.location;
        let fourth = analyze_with(&oracle, &tech, &design, &mut cache);
        assert!(fourth.stats.counters_eq(&first.stats));
    }

    #[test]
    fn new_signature_falls_back_to_full_analysis() {
        let (tech, design) = generate(&SuiteCase::small_smoke());
        let oracle = PinAccessOracle::new();
        let mut cache = AnalysisCache::new();
        let _ = analyze_with(&oracle, &tech, &design, &mut cache);
        let before = cache.len();

        // A different seed produces placements with (likely) new phases:
        // only the new signatures run apgen and pattern work.
        let (_, design2) = generate(&SuiteCase {
            seed: 777,
            ..SuiteCase::small_smoke()
        });
        let (h0, m0) = cache.stats();
        let r = analyze_with(&oracle, &tech, &design2, &mut cache);
        assert_eq!(r.stats.failed_pins, 0);
        let (h1, m1) = cache.stats();
        assert_eq!(h1 - h0 + m1 - m0, r.unique.len(), "one hit or miss each");
        assert_eq!(cache.len(), before + (m1 - m0), "misses are new signatures");
        assert!(r.stats.counters_eq(&oracle.analyze(&tech, &design2).stats));
    }
}
