//! Intra-cell work shared across unique instances (DESIGN.md §7).
//!
//! The paper analyzes once per unique instance, keyed by (master,
//! orientation, track phases). Steps 1 and 2 need less than that key:
//!
//! * **Candidate verdicts per (master, orientation).** Step 1 validates
//!   candidates against the intra-cell context, which holds only the
//!   cell's own shapes. Those are identical up to translation for every
//!   unique instance of one master and orientation, and the DRC kernel
//!   reads only relative geometry, so a candidate's verdict is a function
//!   of (class, layer, pin, position in the class frame). [`CellClasses`]
//!   builds one context per class and a [`VerdictTable`] that probes each
//!   distinct candidate of a class exactly once.
//! * **One pattern DP per relative access point set.** Step 2 reads only
//!   the access points. [`PatternGroups`] groups unique instances whose
//!   access points agree up to translation and whose pin orders agree,
//!   and runs the DP once per group.
//!
//! Every unique instance still runs as its own executor item, so faults,
//! skips and ledger entities stay per instance; a shared result is
//! written only once it is complete, so a panic mid-computation leaves
//! nothing behind and the next instance recomputes it.

use crate::apgen::{AccessPoint, Verdict, VerdictSource};
use crate::oracle::UniqueInstanceAccess;
use crate::pattern::{order_pins, PatternOutcome};
use crate::unique::{build_instance_context, UniqueInstance};
use pao_design::{CompId, Design};
use pao_drc::ShapeSet;
use pao_geom::{Orient, Point};
use pao_tech::{LayerId, Symbol, Tech};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Mutex, OnceLock, PoisonError};

/// A candidate's identity within its (master, orientation) class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CandidateKey {
    class: u32,
    layer: u32,
    pin: u32,
    /// Position in the class frame.
    pos: Point,
}

impl CandidateKey {
    pub(crate) fn new(class: u32, layer: LayerId, pin: usize, pos: Point) -> CandidateKey {
        CandidateKey {
            class,
            layer: layer.0,
            pin: pin as u32,
            pos,
        }
    }
}

/// Hashes [`CandidateKey`]s with one multiply per word and a final
/// avalanche — cheap beside the ~2 µs a candidate's validation costs —
/// from a seed drawn per table, so inputs cannot be crafted to make keys
/// collide.
#[derive(Debug, Clone, Copy)]
struct SeededKeys(u64);

impl BuildHasher for SeededKeys {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(self.0)
    }
}

struct KeyHasher(u64);

impl KeyHasher {
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        let h = (self.0 ^ self.0 >> 33).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ h >> 33
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.fold(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    fn write_i64(&mut self, n: i64) {
        self.fold(n as u64);
    }
}

type Shard = HashMap<CandidateKey, Verdict, SeededKeys>;

/// Shards of a [`VerdictTable`]; more than enough to keep a handful of
/// workers from queueing on one lock.
const SHARDS: usize = 64;

/// Compact candidate verdicts shared by the unique instances of each
/// (master, orientation) class during one apgen phase.
///
/// A shard's lock is held across the probe of a missing key, so each key
/// is probed exactly once and the probe counters repeat at every thread
/// count. A probe that panics poisons the lock without inserting
/// anything, so the shard stays valid: the next lookup recovers the lock
/// and probes again.
#[derive(Debug)]
pub(crate) struct VerdictTable {
    keys: SeededKeys,
    shards: Vec<Mutex<Shard>>,
}

impl VerdictTable {
    pub(crate) fn new() -> VerdictTable {
        let keys = SeededKeys(RandomState::new().hash_one(SHARDS));
        VerdictTable {
            keys,
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Shard::with_hasher(keys)))
                .collect(),
        }
    }

    /// The shard holding `key`, chosen by hash bits the shard's own map
    /// does not use for its buckets or control bytes.
    fn shard(&self, key: &CandidateKey) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[(self.keys.hash_one(key) >> 40) as usize % SHARDS]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The verdict stored for `key`, running `probe` to produce and store
    /// it when absent. The flag is `true` for a stored verdict.
    pub(crate) fn get_or_probe(
        &self,
        key: CandidateKey,
        probe: impl FnOnce() -> Verdict,
    ) -> (Verdict, bool) {
        let mut shard = self.shard(&key);
        if let Some(&v) = shard.get(&key) {
            return (v, true);
        }
        let v = probe();
        shard.insert(key, v);
        (v, false)
    }

    /// The verdict stored for `key`, if any.
    pub(crate) fn get(&self, key: CandidateKey) -> Option<Verdict> {
        self.shard(&key).get(&key).copied()
    }
}

/// Step-1 state shared by the unique instances of each (master,
/// orientation) class: the class's intra-cell DRC context, built once
/// from its first unique instance's representative (the class frame),
/// and the verdict table.
pub(crate) struct CellClasses {
    /// Class of each unique instance.
    class_of: Vec<u32>,
    /// Each class's frame: its first unique instance's representative.
    anchors: Vec<CompId>,
    contexts: Vec<OnceLock<ShapeSet>>,
    table: VerdictTable,
}

impl CellClasses {
    pub(crate) fn new(infos: &[UniqueInstance]) -> CellClasses {
        let mut ids: HashMap<(Symbol, Orient), u32> = HashMap::new();
        let mut anchors: Vec<CompId> = Vec::new();
        let class_of = infos
            .iter()
            .map(|info| {
                *ids.entry((info.master, info.orient)).or_insert_with(|| {
                    anchors.push(info.rep);
                    anchors.len() as u32 - 1
                })
            })
            .collect();
        CellClasses {
            class_of,
            contexts: anchors.iter().map(|_| OnceLock::new()).collect(),
            anchors,
            table: VerdictTable::new(),
        }
    }

    /// Number of (master, orientation) classes.
    pub(crate) fn len(&self) -> usize {
        self.anchors.len()
    }

    /// Where unique instance `idx`, represented by `rep`, reads its
    /// candidate verdicts. The first call per class builds the class
    /// context; `rep`'s master must be known to `tech`.
    pub(crate) fn source(
        &self,
        tech: &Tech,
        design: &Design,
        idx: usize,
        rep: CompId,
    ) -> VerdictSource<'_> {
        let class = self.class_of[idx];
        let anchor = self.anchors[class as usize];
        let ctx = self.contexts[class as usize]
            .get_or_init(|| build_instance_context(tech, design, anchor));
        VerdictSource {
            ctx,
            delta: design.component(rep).location - design.component(anchor).location,
            table: Some((&self.table, class)),
        }
    }
}

/// Step-2 state: unique instances grouped by (master, orientation, pin
/// order, access points relative to the representative's origin), with
/// one pattern DP outcome per group.
///
/// The pin order is part of the key because [`order_pins`] sorts `f64`
/// averages of absolute coordinates: two translated copies of one access
/// point set can round a near-tie apart, and each instance must keep the
/// order its own access points give.
pub(crate) struct PatternGroups {
    group_of: Vec<u32>,
    /// Each group's pin order (shared by all its members).
    orders: Vec<Vec<usize>>,
    outcomes: Vec<OnceLock<PatternOutcome>>,
}

impl PatternGroups {
    pub(crate) fn new(
        design: &Design,
        unique: &[UniqueInstanceAccess],
        alpha: f64,
    ) -> PatternGroups {
        let origin = |u: &UniqueInstanceAccess| design.component(u.info.rep).location;
        // Fingerprint → groups carrying it; members are confirmed by an
        // exact comparison with the group's first member.
        let mut by_print: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut firsts: Vec<usize> = Vec::new();
        let mut orders: Vec<Vec<usize>> = Vec::new();
        let mut group_of: Vec<u32> = Vec::with_capacity(unique.len());
        for (i, u) in unique.iter().enumerate() {
            let order = order_pins(&u.pin_aps, alpha);
            let print = fingerprint(u, origin(u), &order);
            let groups = by_print.entry(print).or_default();
            let found = groups.iter().copied().find(|&g| {
                let first = &unique[firsts[g as usize]];
                orders[g as usize] == order && same_inputs(first, origin(first), u, origin(u))
            });
            let g = found.unwrap_or_else(|| {
                let g = firsts.len() as u32;
                firsts.push(i);
                orders.push(order);
                groups.push(g);
                g
            });
            group_of.push(g);
        }
        PatternGroups {
            group_of,
            outcomes: orders.iter().map(|_| OnceLock::new()).collect(),
            orders,
        }
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.orders.len()
    }

    /// The outcome of unique instance `i`'s group. The first member to
    /// ask runs `dp` over the group's pin order while later members wait;
    /// if `dp` panics, nothing is stored and the next member runs it.
    pub(crate) fn outcome(
        &self,
        i: usize,
        dp: impl FnOnce(Vec<usize>) -> PatternOutcome,
    ) -> &PatternOutcome {
        let g = self.group_of[i] as usize;
        self.outcomes[g].get_or_init(|| dp(self.orders[g].clone()))
    }
}

/// Hash of everything [`same_inputs`] compares (positions relative to
/// `origin`) plus the pin order.
fn fingerprint(u: &UniqueInstanceAccess, origin: Point, order: &[usize]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (u.info.master, u.info.orient, order).hash(&mut h);
    for aps in &u.pin_aps {
        aps.len().hash(&mut h);
        for ap in aps {
            (ap.pos - origin, ap.layer, &ap.vias, &ap.planar).hash(&mut h);
            (ap.pref_type.cost(), ap.nonpref_type.cost()).hash(&mut h);
        }
    }
    h.finish()
}

/// `true` when `a` and `b` share master and orientation, and their access
/// point tables are equal once positions are taken relative to each
/// representative's origin.
fn same_inputs(a: &UniqueInstanceAccess, oa: Point, b: &UniqueInstanceAccess, ob: Point) -> bool {
    let same_ap = |x: &AccessPoint, y: &AccessPoint| {
        x.pos - oa == y.pos - ob
            && x.layer == y.layer
            && x.pref_type == y.pref_type
            && x.nonpref_type == y.nonpref_type
            && x.vias == y.vias
            && x.planar == y.planar
    };
    a.info.master == b.info.master
        && a.info.orient == b.info.orient
        && a.pin_aps.len() == b.pin_aps.len()
        && a.pin_aps
            .iter()
            .zip(&b.pin_aps)
            .all(|(pa, pb)| pa.len() == pb.len() && pa.iter().zip(pb).all(|(x, y)| same_ap(x, y)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apgen::ApgenPlan;
    use crate::budget::{PhaseFractions, RunCtx};
    use crate::coord::CoordType;
    use crate::oracle::instance_access;
    use crate::pattern::{pattern_dp, AccessPattern};
    use crate::unique::extract_unique_instances;
    use crate::{PaoConfig, PinAccessOracle};
    use pao_design::Component;
    use pao_design::TrackPattern;
    use pao_drc::DrcEngine;
    use pao_geom::{Dir, Rect};
    use pao_obs::LedgerDump;
    use pao_tech::rules::MinStepRule;
    use pao_tech::{Layer, Macro, MacroClass, Pin, PinDir, Port, ViaDef, ViaId};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The unshared per-instance path, kept as the reference the shared
    /// path must reproduce: every unique instance builds its own
    /// intra-cell context, probes each of its candidates in its own
    /// frame, and runs its own pattern DP.
    fn reference(tech: &Tech, design: &Design, config: &PaoConfig) -> Vec<UniqueInstanceAccess> {
        let plan = ApgenPlan::new(tech, design);
        let engine = DrcEngine::new(tech);
        extract_unique_instances(tech, design)
            .iter()
            .map(|info| {
                let master = tech.macro_by_name(&info.master).expect("known master");
                let ctx = build_instance_context(tech, design, info.rep);
                let src = VerdictSource::direct(&ctx);
                let (mut u, _) = instance_access(
                    tech,
                    design,
                    &plan,
                    &engine,
                    master,
                    &config.apgen,
                    info,
                    &src,
                );
                let order = order_pins(&u.pin_aps, config.pattern.alpha);
                let out = pattern_dp(tech, &engine, &u.pin_aps, order, &config.pattern);
                out.replay_ledger(u64::from(info.id.0));
                u.pin_order = out.order;
                u.patterns = out.patterns;
                u
            })
            .collect()
    }

    /// Steps 1 and 2 with sharing, exactly as an analysis runs them.
    fn shared(tech: &Tech, design: &Design, config: &PaoConfig) -> Vec<UniqueInstanceAccess> {
        let mut run = RunCtx::new(None, PhaseFractions::default(), None, config.threads);
        PinAccessOracle::with_config(config.clone())
            .analyze_instances(tech, design, None, &mut run)
            .unique
    }

    /// `f`'s result and the decision ledger it recorded.
    fn with_ledger<R>(f: impl FnOnce() -> R) -> (R, LedgerDump) {
        pao_obs::reset();
        pao_obs::enable_ledger();
        let r = f();
        pao_obs::disable_all();
        let dump = pao_obs::take_ledger();
        assert_eq!(dump.dropped, 0, "ledger capacity must suffice");
        (r, dump)
    }

    /// Runs the shared path at threads 1 and 4 and asserts, per unique
    /// instance, the reference's access points, tallies, pin order and
    /// patterns, and the reference's ledger stream record for record.
    /// Returns the shared result.
    fn assert_matches_reference(
        tech: &Tech,
        design: &Design,
        label: &str,
    ) -> Vec<UniqueInstanceAccess> {
        let config = PaoConfig::default();
        let (want, want_ledger) = with_ledger(|| reference(tech, design, &config));
        let mut last = Vec::new();
        for threads in [1usize, 4] {
            let config = PaoConfig {
                threads,
                ..config.clone()
            };
            let (got, ledger) = with_ledger(|| shared(tech, design, &config));
            assert_eq!(
                got.len(),
                want.len(),
                "{label} x{threads}: unique instances"
            );
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let at = format!("{label} x{threads}: unique instance {i}");
                assert_eq!(g.info, w.info, "{at}: info");
                assert_eq!(g.pin_aps, w.pin_aps, "{at}: access points");
                assert_eq!(g.tally, w.tally, "{at}: tally");
                assert_eq!(g.pin_order, w.pin_order, "{at}: pin order");
                assert_eq!(g.patterns, w.patterns, "{at}: patterns");
            }
            assert_eq!(
                ledger.records.len(),
                want_ledger.records.len(),
                "{label} x{threads}: ledger records"
            );
            for (k, (g, w)) in ledger.records.iter().zip(&want_ledger.records).enumerate() {
                assert_eq!(g, w, "{label} x{threads}: ledger record {k}");
            }
            last = got;
        }
        last
    }

    /// Environment switch of the child process that runs a ledger test.
    const CHILD: &str = "PAO_SHARE_LEDGER_CHILD";

    /// Runs `body` in a child process that executes only the unit test
    /// `name`. The decision ledger is process-global and sibling unit
    /// tests run analyses concurrently, so a ledger comparison in this
    /// process would collect their records too.
    fn in_child(name: &str, body: impl FnOnce()) {
        if std::env::var_os(CHILD).is_some() {
            body();
            return;
        }
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([name, "--exact", "--test-threads=1"])
            .env(CHILD, "1")
            .output()
            .expect("spawn the test binary");
        assert!(
            out.status.success(),
            "{name} failed in its child process:\n{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    fn shared_path_matches_reference_on_suites() {
        in_child(
            "share::tests::shared_path_matches_reference_on_suites",
            || {
                let mut cases = pao_testgen::ispd18s_suite();
                cases.push(pao_testgen::aes14_case());
                cases.push(pao_testgen::SuiteCase::small_smoke());
                for case in &cases {
                    let (tech, design) = pao_testgen::generate(case);
                    assert_matches_reference(&tech, &design, &case.name);
                }
                let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks");
                let lef = std::fs::read_to_string(format!("{root}/smoke.lef")).expect("smoke.lef");
                let def = std::fs::read_to_string(format!("{root}/smoke.def")).expect("smoke.def");
                let tech = pao_tech::lef::parse_lef(&lef).expect("parse smoke.lef");
                let design = pao_design::def::parse_def(&def, &tech).expect("parse smoke.def");
                assert_matches_reference(&tech, &design, "benchmarks/smoke");
            },
        );
    }

    /// M1 (horizontal) / V1 / M2 (vertical) with two up-vias from M1: the
    /// default one has a wide bottom enclosure, the other a tall one.
    fn tech() -> Tech {
        let mut t = Tech::new(1000);
        let mut m1 = Layer::routing("M1", Dir::Horizontal, 200, 60, 70);
        m1.min_step = Some(MinStepRule::simple(60));
        let m1 = t.add_layer(m1);
        let v1 = t.add_layer(Layer::cut("V1", 70, 80));
        let m2 = t.add_layer(Layer::routing("M2", Dir::Vertical, 200, 60, 70));
        let mut wide = ViaDef::new(
            "via1_0",
            m1,
            vec![Rect::new(-65, -35, 65, 35)],
            v1,
            vec![Rect::new(-35, -35, 35, 35)],
            m2,
            vec![Rect::new(-35, -65, 35, 65)],
        );
        wide.is_default = true;
        t.add_via(wide);
        t.add_via(ViaDef::new(
            "via1_1",
            m1,
            vec![Rect::new(-35, -65, 35, 65)],
            v1,
            vec![Rect::new(-35, -35, 35, 35)],
            m2,
            vec![Rect::new(-35, -65, 35, 65)],
        ));
        t
    }

    /// `members` placements of each master, far from the origin. The
    /// M1/M2 track phases repeat every 200 DBU, while two extra patterns
    /// (on no layer) split the placements into several unique instances
    /// of one (master, orientation) class.
    fn design(tech: &Tech, masters: &[&str], members: usize) -> Design {
        let (m1, m2) = (LayerId(0), LayerId(2));
        let far = 4_000_000_000;
        let mut d = Design::new("share", Rect::new(0, 0, far, far));
        let count = (far / 200) as u32;
        d.tracks.push(TrackPattern::new(
            Dir::Horizontal,
            100,
            200,
            count,
            vec![m1],
        ));
        d.tracks
            .push(TrackPattern::new(Dir::Vertical, 100, 200, count, vec![m2]));
        d.tracks
            .push(TrackPattern::new(Dir::Horizontal, 0, 700, 1, vec![]));
        d.tracks
            .push(TrackPattern::new(Dir::Vertical, 0, 900, 1, vec![]));
        for (k, master) in masters.iter().enumerate() {
            assert!(tech.macro_by_name(master).is_some(), "{master}");
            for m in 0..members as i64 {
                // Multiples of the 200 DBU pitch.
                let x = 1_000_000_000 + 2_600 * m + 7_777_800 * k as i64 + 123_456_600 * (m % 5);
                let y = 500_000_000 + 600 * m + 99_999_800 * (m % 3);
                d.add_component(Component::new(
                    format!("{master}_{m}"),
                    *master,
                    Point::new(x, y),
                    Orient::N,
                ));
            }
        }
        d
    }

    #[test]
    fn near_tie_pin_orders_split_groups_far_from_origin() {
        let t = tech();
        let engine = DrcEngine::new(&t);
        let cfg = crate::PatternConfig::default();
        // Relative to the origin, pin 0's access point keys x + 0.3·y at
        // 730 and pin 1's at 729.7. Far enough out that this is below the
        // f64 spacing of the keys, some translated copies round the two
        // keys equal (order 0, 1 by index) and others keep 1 before 0.
        let ap = |x: i64, y: i64| AccessPoint {
            pos: Point::new(x, y),
            layer: LayerId(0),
            pref_type: CoordType::OnTrack,
            nonpref_type: CoordType::OnTrack,
            vias: vec![ViaId(0)],
            planar: Vec::new(),
        };
        let mut d = Design::new("far", Rect::new(0, 0, 1 << 53, 1 << 53));
        let unique: Vec<UniqueInstanceAccess> = (0..40i64)
            .map(|m| {
                let base = if m % 2 == 0 { 1i64 << 51 } else { 1i64 << 52 };
                let o = Point::new(base + 7_400 * m, (1i64 << 51) + 10_600 * m);
                let rep = d.add_component(Component::new(format!("c{m}"), "TIE2", o, Orient::N));
                let pins = vec![
                    vec![ap(o.x + 100, o.y + 2100)],
                    vec![ap(o.x + 700, o.y + 99)],
                ];
                instance(m as u32, rep, pins)
            })
            .collect();
        let own: Vec<Vec<usize>> = unique
            .iter()
            .map(|u| order_pins(&u.pin_aps, cfg.alpha))
            .collect();
        assert!(
            own.contains(&vec![0, 1]) && own.contains(&vec![1, 0]),
            "the near tie must round both ways: {own:?}"
        );
        let groups = PatternGroups::new(&d, &unique, cfg.alpha);
        assert_eq!(groups.len(), 2, "one group per pin order");
        for (i, u) in unique.iter().enumerate() {
            let got = groups.outcome(i, |order| pattern_dp(&t, &engine, &u.pin_aps, order, &cfg));
            let want = pattern_dp(&t, &engine, &u.pin_aps, own[i].clone(), &cfg);
            assert_eq!(got.order, want.order, "member {i}: pin order");
            assert_eq!(got.patterns, want.patterns, "member {i}: patterns");
        }
    }

    #[test]
    fn multi_via_layer_and_planar_only_block_match_reference() {
        in_child(
            "share::tests::multi_via_layer_and_planar_only_block_match_reference",
            || {
                let mut t = tech();
                let (m1, m2) = (LayerId(0), LayerId(2));
                // Pins of varied widths and heights, so the two up-vias drop
                // clean at some candidates and not at others.
                let mut cell = Macro::new("MIX3", 1400, 1400);
                for (name, r) in [
                    ("A", Rect::new(40, 100, 400, 500)),
                    ("B", Rect::new(560, 60, 660, 900)),
                    ("C", Rect::new(800, 1000, 1300, 1090)),
                ] {
                    cell.pins.push(Pin::new(
                        name,
                        PinDir::Input,
                        vec![Port::rects(m1, vec![r])],
                    ));
                }
                cell.obs.push((m1, Rect::new(420, 600, 520, 1300)));
                t.add_macro(cell);
                // A block whose M2 obstruction kills every via: its pins are
                // reachable by planar escapes only.
                let mut blk = Macro::new("BLK", 2000, 2000);
                blk.class = MacroClass::Block;
                for (name, r) in [
                    ("P", Rect::new(100, 100, 500, 400)),
                    ("Q", Rect::new(1200, 1300, 1700, 1600)),
                ] {
                    blk.pins.push(Pin::new(
                        name,
                        PinDir::Input,
                        vec![Port::rects(m1, vec![r])],
                    ));
                }
                blk.obs.push((m2, Rect::new(0, 0, 2000, 2000)));
                t.add_macro(blk);
                let d = design(&t, &["MIX3", "BLK"], 12);
                let got = assert_matches_reference(&t, &d, "multi-via + block");
                let aps = |master: &str| {
                    got.iter()
                        .filter(|u| u.info.master == master)
                        .flat_map(|u| u.pin_aps.iter().flatten())
                        .cloned()
                        .collect::<Vec<AccessPoint>>()
                };
                let mix = aps("MIX3");
                assert!(
                    mix.iter().any(|ap| ap.vias.len() == 2),
                    "both up-vias clean somewhere"
                );
                assert!(
                    mix.iter().any(|ap| ap.vias == [ViaId(1)])
                        || mix.iter().any(|ap| ap.vias == [ViaId(0)]),
                    "exactly one up-via clean somewhere"
                );
                for master in ["MIX3", "BLK"] {
                    let n = got.iter().filter(|u| u.info.master == master).count();
                    assert!(n > 1, "{master}: {n} unique instance(s) share one class");
                }
                let blk = aps("BLK");
                assert!(!blk.is_empty(), "block pins get planar access");
                assert!(blk
                    .iter()
                    .all(|ap| ap.vias.is_empty() && !ap.planar.is_empty()));
            },
        );
    }

    /// A unique instance of master `master` at `rep`, with `pin_aps`.
    fn instance(id: u32, rep: CompId, pin_aps: Vec<Vec<AccessPoint>>) -> UniqueInstanceAccess {
        UniqueInstanceAccess {
            info: UniqueInstance {
                id: crate::unique::UniqueInstanceId(id),
                master: Symbol::from("TIE2"),
                orient: Orient::N,
                phases: vec![i64::from(id)],
                rep,
                members: vec![rep],
            },
            pin_aps,
            pin_order: Vec::new(),
            patterns: Vec::new(),
            tally: crate::oracle::ApTally::default(),
        }
    }

    #[test]
    fn access_point_sets_differing_in_one_via_never_share_a_dp() {
        let mut d = Design::new("g", Rect::new(0, 0, 100_000, 100_000));
        let reps: Vec<CompId> = [0i64, 5_000, 10_000]
            .iter()
            .map(|&x| {
                d.add_component(Component::new(
                    format!("c{x}"),
                    "TIE2",
                    Point::new(x, 0),
                    Orient::N,
                ))
            })
            .collect();
        let ap = |x: i64, y: i64, vias: Vec<ViaId>| AccessPoint {
            pos: Point::new(x, y),
            layer: LayerId(0),
            pref_type: CoordType::OnTrack,
            nonpref_type: CoordType::OnTrack,
            vias,
            planar: Vec::new(),
        };
        let table = |dx: i64, second: Vec<ViaId>| {
            vec![
                vec![ap(dx + 100, 300, vec![ViaId(0)]), ap(dx + 100, 500, second)],
                vec![ap(dx + 700, 300, vec![ViaId(0), ViaId(1)])],
            ]
        };
        let unique = vec![
            instance(0, reps[0], table(0, vec![ViaId(0)])),
            // A translated copy of instance 0: same group.
            instance(1, reps[1], table(5_000, vec![ViaId(0)])),
            // Differs from instance 0 in one via of one access point.
            instance(2, reps[2], table(10_000, vec![ViaId(0), ViaId(1)])),
        ];
        let groups = PatternGroups::new(&d, &unique, 0.3);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups.group_of, vec![0, 0, 1]);
    }

    #[test]
    fn panicking_probe_leaves_the_table_usable() {
        let table = VerdictTable::new();
        let key = CandidateKey::new(0, LayerId(0), 1, Point::new(100, 200));
        let v = Verdict::clean(0b01, 0b0011);
        let hurt = catch_unwind(AssertUnwindSafe(|| {
            table.get_or_probe(key, || panic!("probe failed"))
        }));
        assert!(hurt.is_err());
        // No half-written entry: the key is absent, the (poisoned) shard
        // lock recovers, and the next lookup probes again.
        assert_eq!(table.get(key), None);
        assert_eq!(table.get_or_probe(key, || v), (v, false));
        assert_eq!(
            table.get_or_probe(key, || unreachable!("stored verdicts are not re-probed")),
            (v, true)
        );
    }

    #[test]
    fn keys_differ_by_every_field() {
        let table = VerdictTable::new();
        let base = CandidateKey::new(0, LayerId(0), 0, Point::new(5, 7));
        let others = [
            CandidateKey::new(1, LayerId(0), 0, Point::new(5, 7)),
            CandidateKey::new(0, LayerId(1), 0, Point::new(5, 7)),
            CandidateKey::new(0, LayerId(0), 1, Point::new(5, 7)),
            CandidateKey::new(0, LayerId(0), 0, Point::new(7, 5)),
        ];
        table.get_or_probe(base, || Verdict::clean(1, 0));
        for k in others {
            assert_eq!(table.get(k), None, "{k:?}");
        }
    }

    #[test]
    fn panicking_dp_leaves_the_group_usable() {
        let groups = PatternGroups {
            group_of: vec![0, 0],
            orders: vec![vec![0]],
            outcomes: vec![OnceLock::new()],
        };
        let hurt = catch_unwind(AssertUnwindSafe(|| {
            groups.outcome(0, |_| panic!("dp failed"));
        }));
        assert!(hurt.is_err());
        let pattern = AccessPattern {
            choice: vec![0],
            cost: 3,
            validated: true,
        };
        let out = groups.outcome(1, |order| PatternOutcome {
            order,
            patterns: vec![pattern.clone()],
            ..PatternOutcome::default()
        });
        assert_eq!(out.order, vec![0]);
        assert_eq!(out.patterns, vec![pattern]);
        // The stored outcome is shared, not recomputed.
        let again = groups.outcome(0, |_| unreachable!("stored outcomes are not recomputed"));
        assert_eq!(again.patterns.len(), 1);
    }
}
