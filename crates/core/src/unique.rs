//! Unique-instance extraction (paper Section II-A).

use pao_design::{CompId, Design};
use pao_drc::{Owner, ShapeSet};
use pao_geom::{Dbu, Orient};
use pao_tech::{Symbol, Tech};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// Index of a unique instance in the analysis result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UniqueInstanceId(pub u32);

impl UniqueInstanceId {
    /// The index as a `usize` for direct slice indexing.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for UniqueInstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U{}", self.0)
    }
}

/// An equivalence class of placed instances sharing a *signature*: cell
/// master, orientation, and the offsets (phases) of the placement origin
/// to every track pattern in the design.
///
/// Instances with the same signature see identical on-/off-track
/// conditions at every pin location, so intra-cell pin access analysis is
/// performed **once per unique instance** on the representative `rep` and
/// the resulting access points are translated to every member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniqueInstance {
    /// This class's id.
    pub id: UniqueInstanceId,
    /// Cell master name (interned).
    pub master: Symbol,
    /// Placement orientation.
    pub orient: Orient,
    /// Origin phases against every track pattern, in declaration order.
    pub phases: Vec<Dbu>,
    /// The representative member (analysis frame).
    pub rep: CompId,
    /// All members, including `rep`.
    pub members: Vec<CompId>,
}

/// The unique-instance table of one placement: every class, ordered by
/// first appearance, and each component's class.
///
/// One routine, `UniqueTable::classify`, owns the class rule: a
/// component's class is its signature's, classes are ordered by their
/// first member, members keep component order, and the representative
/// is the first member. [`UniqueTable::build`] runs it from an empty
/// table over every component; a placement change runs it over the
/// components it moved. A component that did not move keeps its
/// signature, hence its class, so both give the same table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniqueTable {
    /// The classes, `classes[i].id == UniqueInstanceId(i)`.
    pub classes: Vec<UniqueInstance>,
    /// Unique instance of each component (`None` when unplaced or of an
    /// unknown master).
    pub comp_uniq: Vec<Option<UniqueInstanceId>>,
}

impl UniqueTable {
    /// Classifies every component of `design`.
    #[must_use]
    pub fn build(tech: &Tech, design: &Design) -> UniqueTable {
        let n = design.components().len();
        let mut table = UniqueTable {
            classes: Vec::new(),
            comp_uniq: vec![None; n],
        };
        table.classify(tech, design, (0..n as u32).map(CompId));
        table
    }

    /// The class rule. Takes each of `comps` out of its class, signs it
    /// again and inserts it in order into its signature's class (a new
    /// one when no class has it), then drops empty classes and renumbers
    /// the rest by first member. Counts every signature computed under
    /// `unique.classified`.
    ///
    /// On the table of a placement from which `design` differs only in
    /// the placement of `comps` (duplicates allowed), this leaves the
    /// table [`UniqueTable::build`] gives on `design`.
    pub(crate) fn classify(
        &mut self,
        tech: &Tech,
        design: &Design,
        comps: impl Iterator<Item = CompId>,
    ) {
        let mut by_sig: HashMap<(Symbol, Orient, Vec<Dbu>), usize> = self
            .classes
            .iter()
            .enumerate()
            .map(|(i, u)| ((u.master, u.orient, u.phases.clone()), i))
            .collect();
        let mut classified = 0u64;
        for id in comps {
            if let Some(old) = self.comp_uniq[id.index()].take() {
                let members = &mut self.classes[old.index()].members;
                if let Ok(at) = members.binary_search(&id) {
                    members.remove(at);
                }
            }
            let comp = design.component(id);
            if comp.master_in(tech).is_none() || !comp.is_placed {
                continue;
            }
            classified += 1;
            let ui = match by_sig.entry((comp.master, comp.orient, design.track_phases(comp))) {
                Entry::Occupied(e) => {
                    let members = &mut self.classes[*e.get()].members;
                    match members.last() {
                        Some(&last) if last > id => {
                            let at = members.binary_search(&id).unwrap_or_else(|at| at);
                            members.insert(at, id);
                        }
                        _ => members.push(id),
                    }
                    *e.get()
                }
                Entry::Vacant(e) => {
                    let ui = self.classes.len();
                    let (master, orient, phases) = e.key().clone();
                    self.classes.push(UniqueInstance {
                        id: UniqueInstanceId(ui as u32),
                        master,
                        orient,
                        phases,
                        rep: id,
                        members: vec![id],
                    });
                    *e.insert(ui)
                }
            };
            self.comp_uniq[id.index()] = Some(UniqueInstanceId(ui as u32));
        }
        pao_obs::counter_add("unique.classified", classified);
        // Every member of a class reads that class's id in `comp_uniq`,
        // so only the members of a class whose id changes are rewritten.
        self.classes.retain(|u| !u.members.is_empty());
        self.classes.sort_by_key(|u| u.members[0]);
        for (i, u) in self.classes.iter_mut().enumerate() {
            u.rep = u.members[0];
            let id = UniqueInstanceId(i as u32);
            if u.id != id {
                u.id = id;
                for &m in &u.members {
                    self.comp_uniq[m.index()] = Some(id);
                }
            }
        }
    }
}

/// Groups the design's components into unique instances: the classes of
/// [`UniqueTable::build`].
///
/// Components whose master is unknown to `tech` are skipped. The returned
/// vector is ordered by first appearance; `members` preserve design order.
///
/// ```no_run
/// # let tech: pao_tech::Tech = unimplemented!();
/// # let design: pao_design::Design = unimplemented!();
/// let unique = pao_core::unique::extract_unique_instances(&tech, &design);
/// let total: usize = unique.iter().map(|u| u.members.len()).sum();
/// assert!(total <= design.components().len());
/// ```
#[must_use]
pub fn extract_unique_instances(tech: &Tech, design: &Design) -> Vec<UniqueInstance> {
    UniqueTable::build(tech, design).classes
}

/// Owner id for pin `pin_idx` of component `comp` in DRC shape sets —
/// the scheme used throughout the framework.
#[must_use]
pub fn pin_owner(comp: CompId, pin_idx: usize) -> Owner {
    Owner::pin((u64::from(comp.0) << 16) | pin_idx as u64)
}

/// Owner id for pin `pin_idx` analysed in the *unique-instance frame*
/// (no component identity — intra-cell analysis only).
#[must_use]
pub fn local_pin_owner(pin_idx: usize) -> Owner {
    Owner::pin(pin_idx as u64)
}

/// Builds the intra-cell DRC context for one placed component: its own pin
/// shapes (owners [`local_pin_owner`]) and obstructions, in die
/// coordinates.
///
/// Step 1 of the framework validates access points against exactly this
/// context — inter-cell effects are handled by steps 2 and 3.
///
/// # Panics
///
/// Panics when the component's master is unknown to `tech`.
#[must_use]
pub fn build_instance_context(tech: &Tech, design: &Design, comp: CompId) -> ShapeSet {
    let mut ctx = ShapeSet::new(tech.layers().len());
    for (pin_idx, layer, rect) in design.placed_pin_shapes(tech, comp) {
        ctx.insert(layer, rect, local_pin_owner(pin_idx));
    }
    for (layer, rect) in design.placed_obs_shapes(tech, comp) {
        ctx.insert(layer, rect, Owner::obs(0));
    }
    ctx.rebuild();
    ctx
}

#[cfg(test)]
mod tests {
    use super::*;
    use pao_design::{Component, TrackPattern};
    use pao_geom::{Dir, Point, Rect};
    use pao_tech::{Layer, LayerId, Macro, Pin, PinDir, Port};

    fn tech() -> Tech {
        let mut t = Tech::new(2000);
        let m1 = t.add_layer(Layer::routing("M1", Dir::Horizontal, 280, 120, 120));
        let mut inv = Macro::new("INVX1", 760, 2800);
        inv.pins.push(Pin::new(
            "A",
            PinDir::Input,
            vec![Port::rects(m1, vec![Rect::new(100, 400, 220, 1000)])],
        ));
        inv.obs.push((m1, Rect::new(600, 0, 700, 2800)));
        t.add_macro(inv);
        t.add_macro(Macro::new("NAND2X1", 1140, 2800));
        t
    }

    fn design_with_tracks() -> Design {
        let mut d = Design::new("top", Rect::new(0, 0, 100_000, 100_000));
        d.tracks.push(TrackPattern::new(
            Dir::Horizontal,
            140,
            280,
            300,
            vec![LayerId(0)],
        ));
        d.tracks.push(TrackPattern::new(
            Dir::Vertical,
            190,
            380,
            250,
            vec![LayerId(0)],
        ));
        d
    }

    #[test]
    fn same_signature_groups() {
        let t = tech();
        let mut d = design_with_tracks();
        // a, b: same master/orient, x offset = one vertical pitch → same class.
        d.add_component(Component::new("a", "INVX1", Point::new(380, 0), Orient::N));
        d.add_component(Component::new("b", "INVX1", Point::new(760, 0), Orient::N));
        // c: shifted half a pitch → different class (paper Fig. 1).
        d.add_component(Component::new("c", "INVX1", Point::new(570, 0), Orient::N));
        // e: same offsets but different orientation → different class.
        d.add_component(Component::new(
            "e",
            "INVX1",
            Point::new(1140, 0),
            Orient::FS,
        ));
        // f: different master → different class.
        d.add_component(Component::new(
            "f",
            "NAND2X1",
            Point::new(1520, 0),
            Orient::N,
        ));
        let unique = extract_unique_instances(&t, &d);
        assert_eq!(unique.len(), 4);
        assert_eq!(unique[0].members.len(), 2);
        assert_eq!(unique[0].rep, CompId(0));
        assert_eq!(unique[0].id, UniqueInstanceId(0));
        let total: usize = unique.iter().map(|u| u.members.len()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn unknown_masters_skipped() {
        let t = tech();
        let mut d = design_with_tracks();
        d.add_component(Component::new("ghost", "BOGUS", Point::ORIGIN, Orient::N));
        assert!(extract_unique_instances(&t, &d).is_empty());
    }

    #[test]
    fn context_contains_pins_and_obs() {
        let t = tech();
        let mut d = design_with_tracks();
        let id = d.add_component(Component::new("a", "INVX1", Point::new(1000, 0), Orient::N));
        let ctx = build_instance_context(&t, &d, id);
        assert_eq!(ctx.len(), 2);
        // Pin shape translated by the placement.
        let mut hits: Vec<(Rect, Owner)> = Vec::new();
        ctx.for_each_in(LayerId(0), Rect::new(1100, 400, 1220, 1000), |r, o| {
            hits.push((r, o));
            true
        });
        assert!(hits
            .iter()
            .any(|&(r, o)| r == Rect::new(1100, 400, 1220, 1000) && o == local_pin_owner(0)));
    }

    /// The situations the update's exactness property must reach, each
    /// counted from the tables before and after a batch.
    const SITUATIONS: [&str; 6] = [
        "a class's only member leaves and later ids shift down",
        "a representative leaves its class",
        "a moved cell becomes another class's first member",
        "a move onto a signature no component had",
        "one component listed twice in a batch",
        "an unplaced component in the batch",
    ];

    type Sig = (Symbol, Orient, Vec<Dbu>);

    fn sig(u: &UniqueInstance) -> Sig {
        (u.master, u.orient, u.phases.clone())
    }

    /// The class rule written out directly, as the reference both
    /// [`UniqueTable::build`] and the update must reproduce: one pass in
    /// component order, a new class at each new signature.
    fn reference(tech: &Tech, design: &Design) -> UniqueTable {
        let mut by_sig: HashMap<Sig, usize> = HashMap::new();
        let mut table = UniqueTable {
            classes: Vec::new(),
            comp_uniq: vec![None; design.components().len()],
        };
        for (i, comp) in design.components().iter().enumerate() {
            if comp.master_in(tech).is_none() || !comp.is_placed {
                continue;
            }
            let id = CompId(i as u32);
            let key = (comp.master, comp.orient, design.track_phases(comp));
            let ui = *by_sig.entry(key.clone()).or_insert_with(|| {
                table.classes.push(UniqueInstance {
                    id: UniqueInstanceId(table.classes.len() as u32),
                    master: key.0,
                    orient: key.1,
                    phases: key.2,
                    rep: id,
                    members: Vec::new(),
                });
                table.classes.len() - 1
            });
            table.classes[ui].members.push(id);
            table.comp_uniq[i] = Some(UniqueInstanceId(ui as u32));
        }
        table
    }

    /// Which of [`SITUATIONS`] one batch produced.
    fn situations(
        before: &UniqueTable,
        after: &UniqueTable,
        moved: &[CompId],
        ghost: CompId,
    ) -> [bool; 6] {
        let index = |t: &UniqueTable| -> HashMap<Sig, (CompId, UniqueInstanceId)> {
            t.classes.iter().map(|u| (sig(u), (u.rep, u.id))).collect()
        };
        let (old, new) = (index(before), index(after));
        let mut distinct = moved.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        [
            before.classes.iter().any(|u| {
                u.members.len() == 1
                    && moved.contains(&u.rep)
                    && !new.contains_key(&sig(u))
                    && before.classes[u.id.index() + 1..]
                        .iter()
                        .any(|v| new.get(&sig(v)).is_some_and(|&(_, id)| id < v.id))
            }),
            before.classes.iter().any(|u| {
                moved.contains(&u.rep) && new.get(&sig(u)).is_some_and(|&(rep, _)| rep != u.rep)
            }),
            after.classes.iter().any(|u| {
                moved.contains(&u.rep) && old.get(&sig(u)).is_some_and(|&(rep, _)| rep != u.rep)
            }),
            after.classes.iter().any(|u| !old.contains_key(&sig(u))),
            distinct.len() < moved.len(),
            moved.contains(&ghost),
        ]
    }

    /// Draws one batch of location changes against `table`, the current
    /// placement's: 1–3 moves, each an arbitrary (off-grid) shift, a
    /// singleton's member or a representative leaving, a cell landing on
    /// a same-cell twin with a later first member, or a one-unit nudge;
    /// sometimes a move is listed twice, sometimes `ghost` rides along.
    fn draw(
        rng: &mut pao_ptest::Rng,
        design: &Design,
        table: &UniqueTable,
        ghost: CompId,
    ) -> Vec<(CompId, Point)> {
        let mut twins: HashMap<(Symbol, Orient), Vec<CompId>> = HashMap::new();
        for u in &table.classes {
            twins
                .entry((u.master, u.orient))
                .or_default()
                .extend(&u.members);
        }
        let live: Vec<CompId> = table
            .classes
            .iter()
            .flat_map(|u| u.members.clone())
            .collect();
        let at = |c: CompId| design.component(c).location;
        let class_of = |c: CompId| &table.classes[table.comp_uniq[c.index()].unwrap().index()];
        let peers = |c: CompId| {
            let comp = design.component(c);
            &twins[&(comp.master, comp.orient)]
        };
        let shift = |rng: &mut pao_ptest::Rng, c: CompId| {
            at(c)
                + Point::new(
                    rng.gen_range(-3000i64..=3000),
                    rng.gen_range(-3000i64..=3000),
                )
        };
        let mut out = Vec::new();
        for _ in 0..rng.gen_range(1usize..=3) {
            let a = live[rng.gen_range(0..live.len())];
            let (c, to) = match rng.gen_range(0u32..5) {
                0 => (a, shift(rng, a)),
                1 => {
                    let singles: Vec<CompId> = table
                        .classes
                        .iter()
                        .filter(|u| u.members.len() == 1)
                        .map(|u| u.rep)
                        .collect();
                    let s = if singles.is_empty() {
                        a
                    } else {
                        singles[rng.gen_range(0..singles.len())]
                    };
                    let p = peers(s);
                    let b = p[rng.gen_range(0..p.len())];
                    (s, if b == s { shift(rng, s) } else { at(b) })
                }
                2 => {
                    let u = &table.classes[rng.gen_range(0..table.classes.len())];
                    (u.rep, shift(rng, u.rep))
                }
                3 => {
                    let later: Vec<CompId> = peers(a)
                        .iter()
                        .copied()
                        .filter(|&b| class_of(b).rep > a)
                        .collect();
                    if later.is_empty() {
                        (a, shift(rng, a))
                    } else {
                        (a, at(later[rng.gen_range(0..later.len())]))
                    }
                }
                _ => (a, at(a) + Point::new(rng.gen_range(1i64..=7), 0)),
            };
            out.push((c, to));
            if rng.gen_bool(0.2) {
                out.push((c, to + Point::new(rng.gen_range(-900i64..=900), 0)));
            }
        }
        if rng.gen_bool(0.2) {
            out.push((ghost, shift(rng, ghost)));
        }
        out
    }

    /// Seeded exactness property of [`UniqueTable::classify`] on moves: random
    /// batches of location changes on three designs, each followed by a
    /// field-for-field comparison with a cold extraction of the moved
    /// placement ([`reference`], [`UniqueTable::build`] and
    /// [`extract_unique_instances`]). Every one of [`SITUATIONS`] must
    /// occur on every design.
    #[test]
    fn update_matches_cold_extraction() {
        let cases = [
            pao_testgen::SuiteCase::small_smoke(),
            pao_testgen::case_by_name("ispd18s_test2").expect("suite case"),
            pao_testgen::aes14_case(),
        ];
        for case in &cases {
            let (t, mut d) = pao_testgen::generate(case);
            let ghost = CompId(0);
            d.component_mut(ghost).is_placed = false;
            let mut table = UniqueTable::build(&t, &d);
            assert_eq!(table, reference(&t, &d), "{}", case.name);
            let mut rng = pao_ptest::Rng::new(pao_ptest::case_seed(&case.name, 0));
            let mut seen = [0usize; SITUATIONS.len()];
            for b in 0..60 {
                let batch = draw(&mut rng, &d, &table, ghost);
                for &(c, to) in &batch {
                    d.component_mut(c).location = to;
                }
                let moved: Vec<CompId> = batch.iter().map(|&(c, _)| c).collect();
                let before = table.clone();
                table.classify(&t, &d, moved.iter().copied());
                let cold = reference(&t, &d);
                assert_eq!(table, cold, "{} batch {b}: {batch:?}", case.name);
                assert_eq!(UniqueTable::build(&t, &d), cold);
                assert_eq!(table.classes, extract_unique_instances(&t, &d));
                for (n, hit) in seen
                    .iter_mut()
                    .zip(situations(&before, &table, &moved, ghost))
                {
                    *n += usize::from(hit);
                }
            }
            for (what, n) in SITUATIONS.iter().zip(seen) {
                assert!(n > 0, "{}: no batch produced `{what}`", case.name);
            }
        }
    }

    #[test]
    fn owner_schemes_distinct() {
        assert_ne!(pin_owner(CompId(1), 0), pin_owner(CompId(0), 1));
        assert_ne!(pin_owner(CompId(0), 1), pin_owner(CompId(0), 2));
        assert_eq!(local_pin_owner(3), Owner::pin(3));
    }
}
