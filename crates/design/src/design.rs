//! The design database.

use crate::component::{CompId, Component};
use crate::iopin::IoPin;
use crate::net::{Net, NetId};
use crate::row::Row;
use crate::tracks::TrackPattern;
use pao_geom::{Dbu, Rect};
use pao_tech::{LayerId, Symbol, Tech};
use std::collections::HashMap;
use std::sync::Arc;

/// A placed design (the contents of a DEF file), resolved against a
/// companion [`Tech`].
///
/// The name map, I/O pins and nets sit behind [`Arc`]s: a placement move
/// never touches them, so a moved copy (a service ECO clones the design)
/// shares them with the original instead of copying them. The mutating
/// methods copy a shared table on write.
///
/// ```
/// use pao_design::{Component, Design};
/// use pao_geom::{Orient, Point, Rect};
///
/// let mut d = Design::new("top", Rect::new(0, 0, 100_000, 100_000));
/// let u1 = d.add_component(Component::new("u1", "INVX1", Point::new(0, 0), Orient::N));
/// assert_eq!(d.component(u1).name, "u1");
/// assert_eq!(d.component_by_name("u1"), Some(u1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Design {
    /// Design name.
    pub name: String,
    /// Database units per micron (DEF `UNITS DISTANCE MICRONS`).
    pub dbu_per_micron: Dbu,
    /// The die area.
    pub die_area: Rect,
    /// Placement rows.
    pub rows: Vec<Row>,
    /// Track patterns in declaration order.
    pub tracks: Vec<TrackPattern>,
    components: Vec<Component>,
    comp_names: Arc<HashMap<Symbol, CompId>>,
    io_pins: Arc<Vec<IoPin>>,
    nets: Arc<Vec<Net>>,
    net_names: Arc<HashMap<Symbol, NetId>>,
}

impl Design {
    /// Creates an empty design with the given die area.
    #[must_use]
    pub fn new(name: impl Into<String>, die_area: Rect) -> Design {
        Design {
            name: name.into(),
            dbu_per_micron: 1000,
            die_area,
            ..Design::default()
        }
    }

    /// Pre-sizes the component table and name map (streaming parsers feed
    /// the DEF section count header through here before the first add).
    pub fn reserve_components(&mut self, n: usize) {
        self.components.reserve(n);
        Arc::make_mut(&mut self.comp_names).reserve(n);
    }

    /// Pre-sizes the net table and name map.
    pub fn reserve_nets(&mut self, n: usize) {
        Arc::make_mut(&mut self.nets).reserve(n);
        Arc::make_mut(&mut self.net_names).reserve(n);
    }

    /// Pre-sizes the I/O pin table.
    pub fn reserve_io_pins(&mut self, n: usize) {
        Arc::make_mut(&mut self.io_pins).reserve(n);
    }

    /// Adds a component and returns its id.
    pub fn add_component(&mut self, c: Component) -> CompId {
        let id = CompId(self.components.len() as u32);
        Arc::make_mut(&mut self.comp_names).insert(c.name, id);
        self.components.push(c);
        id
    }

    /// Adds an I/O pin and returns its index.
    pub fn add_io_pin(&mut self, p: IoPin) -> u32 {
        Arc::make_mut(&mut self.io_pins).push(p);
        (self.io_pins.len() - 1) as u32
    }

    /// Adds a net and returns its id.
    pub fn add_net(&mut self, n: Net) -> NetId {
        let id = NetId(self.nets.len() as u32);
        Arc::make_mut(&mut self.net_names).insert(n.name, id);
        Arc::make_mut(&mut self.nets).push(n);
        id
    }

    /// All components.
    #[must_use]
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The component with the given id.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    #[must_use]
    pub fn component(&self, id: CompId) -> &Component {
        &self.components[id.index()]
    }

    /// Mutable access to a component.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn component_mut(&mut self, id: CompId) -> &mut Component {
        &mut self.components[id.index()]
    }

    /// Looks up a component by instance name.
    #[must_use]
    pub fn component_by_name(&self, name: &str) -> Option<CompId> {
        let sym = Symbol::lookup(name)?;
        self.comp_names.get(&sym).copied()
    }

    /// Looks up a component by interned instance name.
    #[must_use]
    pub fn component_by_symbol(&self, name: Symbol) -> Option<CompId> {
        self.comp_names.get(&name).copied()
    }

    /// All I/O pins.
    #[must_use]
    pub fn io_pins(&self) -> &[IoPin] {
        &self.io_pins
    }

    /// All nets.
    #[must_use]
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// The net with the given id.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    #[must_use]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Looks up a net by name.
    #[must_use]
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        let sym = Symbol::lookup(name)?;
        self.net_names.get(&sym).copied()
    }

    /// Track patterns governing wires of direction `dir` on `layer`
    /// (i.e. patterns that list the layer and run in `dir`).
    #[must_use]
    pub fn track_patterns_for(&self, layer: LayerId, dir: pao_geom::Dir) -> Vec<&TrackPattern> {
        self.tracks
            .iter()
            .filter(|t| t.dir == dir && t.layers.contains(&layer))
            .collect()
    }

    /// The phases of a component's origin against every track pattern, in
    /// pattern declaration order — the third element of the paper's
    /// unique-instance signature.
    #[must_use]
    pub fn track_phases(&self, comp: &Component) -> Vec<Dbu> {
        // Patterns usually repeat layer by layer: the previous pattern on
        // the same axis with the same start and step has the same phase,
        // which saves a division. Steps are positive, so the zeroed seed
        // never matches.
        let mut last: [(Dbu, Dbu, Dbu); 2] = [(0, 0, 0); 2];
        self.tracks
            .iter()
            .map(|t| {
                let (axis, c) = match t.dir {
                    pao_geom::Dir::Horizontal => (0, comp.location.y),
                    pao_geom::Dir::Vertical => (1, comp.location.x),
                };
                if (last[axis].0, last[axis].1) != (t.start, t.step) {
                    last[axis] = (t.start, t.step, t.phase(c));
                }
                last[axis].2
            })
            .collect()
    }

    /// Flattened pin geometry of a component in die coordinates:
    /// `(pin index in master, layer, rect)` triples. Supply pins are
    /// included; callers filter by use when needed.
    ///
    /// # Panics
    ///
    /// Panics when the component's master is not in `tech`.
    #[must_use]
    pub fn placed_pin_shapes(&self, tech: &Tech, id: CompId) -> Vec<(usize, LayerId, Rect)> {
        let comp = self.component(id);
        let master = comp
            .master_in(tech)
            .unwrap_or_else(|| panic!("unknown master `{}`", comp.master));
        let t = comp.transform(tech);
        let mut out = Vec::new();
        for (pi, pin) in master.pins.iter().enumerate() {
            for port in &pin.ports {
                for r in port.flat_rects() {
                    out.push((pi, port.layer, t.apply_rect(r)));
                }
            }
        }
        out
    }

    /// Allocation-free form of [`Self::placed_pin_shapes`]: calls `f` for
    /// each `(pin index, layer, rect)` triple instead of building a `Vec`.
    /// The spatial-index build visits every component once; at a million
    /// instances the per-component `Vec` becomes the bottleneck.
    ///
    /// Polygon ports still decompose through an internal buffer; the
    /// common all-rect port walks straight through.
    ///
    /// # Panics
    ///
    /// Panics when the component's master is not in `tech`.
    pub fn for_each_placed_pin_shape(
        &self,
        tech: &Tech,
        id: CompId,
        mut f: impl FnMut(usize, LayerId, Rect),
    ) {
        let comp = self.component(id);
        let master = comp
            .master_in(tech)
            .unwrap_or_else(|| panic!("unknown master `{}`", comp.master));
        let t = comp.transform(tech);
        for (pi, pin) in master.pins.iter().enumerate() {
            for port in &pin.ports {
                for &r in &port.rects {
                    f(pi, port.layer, t.apply_rect(r));
                }
                for p in &port.polygons {
                    for r in p.to_rects() {
                        f(pi, port.layer, t.apply_rect(r));
                    }
                }
            }
        }
    }

    /// Allocation-free form of [`Self::placed_obs_shapes`].
    ///
    /// # Panics
    ///
    /// Panics when the component's master is not in `tech`.
    pub fn for_each_placed_obs_shape(
        &self,
        tech: &Tech,
        id: CompId,
        mut f: impl FnMut(LayerId, Rect),
    ) {
        let comp = self.component(id);
        let master = comp
            .master_in(tech)
            .unwrap_or_else(|| panic!("unknown master `{}`", comp.master));
        let t = comp.transform(tech);
        for &(layer, r) in &master.obs {
            f(layer, t.apply_rect(r));
        }
    }

    /// Flattened obstruction geometry of a component in die coordinates.
    ///
    /// # Panics
    ///
    /// Panics when the component's master is not in `tech`.
    #[must_use]
    pub fn placed_obs_shapes(&self, tech: &Tech, id: CompId) -> Vec<(LayerId, Rect)> {
        let comp = self.component(id);
        let master = comp
            .master_in(tech)
            .unwrap_or_else(|| panic!("unknown master `{}`", comp.master));
        let t = comp.transform(tech);
        master
            .obs
            .iter()
            .map(|&(layer, r)| (layer, t.apply_rect(r)))
            .collect()
    }

    /// Total number of component-pin net terminals (the "total #pins (with
    /// net attached)" of the paper's Table III).
    #[must_use]
    pub fn connected_pin_count(&self) -> usize {
        self.nets.iter().map(|n| n.comp_pins().count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetPin;
    use pao_geom::{Dir, Orient, Point};
    use pao_tech::{Layer, Macro, Pin, PinDir, Port};

    fn tech() -> Tech {
        let mut t = Tech::new(2000);
        let m1 = t.add_layer(Layer::routing("M1", Dir::Horizontal, 280, 120, 120));
        let mut inv = Macro::new("INVX1", 760, 2800);
        inv.pins.push(Pin::new(
            "A",
            PinDir::Input,
            vec![Port::rects(m1, vec![Rect::new(100, 400, 220, 1000)])],
        ));
        inv.obs.push((m1, Rect::new(500, 0, 600, 2800)));
        t.add_macro(inv);
        t
    }

    fn design() -> Design {
        let mut d = Design::new("top", Rect::new(0, 0, 20_000, 20_000));
        d.tracks.push(TrackPattern::new(
            Dir::Horizontal,
            140,
            280,
            70,
            vec![LayerId(0)],
        ));
        d.tracks.push(TrackPattern::new(
            Dir::Vertical,
            190,
            380,
            50,
            vec![LayerId(0)],
        ));
        d
    }

    #[test]
    fn component_registry() {
        let mut d = design();
        let id = d.add_component(Component::new("u1", "INVX1", Point::new(380, 0), Orient::N));
        assert_eq!(d.component_by_name("u1"), Some(id));
        assert_eq!(d.component_by_name("nope"), None);
        d.component_mut(id).is_fixed = true;
        assert!(d.component(id).is_fixed);
    }

    #[test]
    fn track_phases_follow_location() {
        let mut d = design();
        let a = d.add_component(Component::new("a", "INVX1", Point::new(380, 0), Orient::N));
        let b = d.add_component(Component::new("b", "INVX1", Point::new(760, 0), Orient::N));
        let c = d.add_component(Component::new(
            "c",
            "INVX1",
            Point::new(380 + 380, 280),
            Orient::N,
        ));
        let pa = d.track_phases(d.component(a));
        let pb = d.track_phases(d.component(b));
        let pc = d.track_phases(d.component(c));
        // a and b differ in x by one M1 vertical pitch → same phases.
        assert_eq!(pa, pb);
        // c is shifted in y by one horizontal pitch → same phases again.
        assert_eq!(pb, pc);
        // A half-pitch shift changes the horizontal phase.
        let e = d.add_component(Component::new(
            "e",
            "INVX1",
            Point::new(380, 140),
            Orient::N,
        ));
        assert_ne!(pa, d.track_phases(d.component(e)));
    }

    #[test]
    fn track_phases_equal_per_pattern_phases() {
        let mut d = design();
        // Repeats, a changed start, a changed step and negative origins.
        for (dir, start, step) in [
            (Dir::Horizontal, 140, 280),
            (Dir::Vertical, 190, 380),
            (Dir::Horizontal, 100, 280),
            (Dir::Horizontal, 100, 280),
            (Dir::Vertical, 190, 300),
            (Dir::Vertical, 190, 380),
            (Dir::Horizontal, 140, 280),
        ] {
            d.tracks
                .push(TrackPattern::new(dir, start, step, 10, vec![LayerId(0)]));
        }
        for (x, y) in [(0, 0), (380, 140), (-1234, 57), (999_999, -280)] {
            let comp = Component::new("u", "INVX1", Point::new(x, y), Orient::N);
            let want: Vec<Dbu> = d
                .tracks
                .iter()
                .map(|t| match t.dir {
                    Dir::Horizontal => t.phase(y),
                    Dir::Vertical => t.phase(x),
                })
                .collect();
            assert_eq!(d.track_phases(&comp), want, "at ({x}, {y})");
        }
    }

    #[test]
    fn placed_shapes_transform() {
        let t = tech();
        let mut d = design();
        let id = d.add_component(Component::new(
            "u1",
            "INVX1",
            Point::new(1000, 2800),
            Orient::N,
        ));
        let pins = d.placed_pin_shapes(&t, id);
        assert_eq!(pins.len(), 1);
        assert_eq!(pins[0], (0, LayerId(0), Rect::new(1100, 3200, 1220, 3800)));
        let obs = d.placed_obs_shapes(&t, id);
        assert_eq!(obs, vec![(LayerId(0), Rect::new(1500, 2800, 1600, 5600))]);
    }

    #[test]
    fn net_registry_and_pin_count() {
        let mut d = design();
        let u1 = d.add_component(Component::new("u1", "INVX1", Point::ORIGIN, Orient::N));
        let u2 = d.add_component(Component::new("u2", "INVX1", Point::new(760, 0), Orient::N));
        let mut n = Net::new("n1");
        n.pins.push(NetPin::Comp {
            comp: u1,
            pin: "A".into(),
        });
        n.pins.push(NetPin::Comp {
            comp: u2,
            pin: "A".into(),
        });
        n.pins.push(NetPin::Io { index: 0 });
        let id = d.add_net(n);
        assert_eq!(d.net_by_name("n1"), Some(id));
        assert_eq!(d.net(id).degree(), 3);
        assert_eq!(d.connected_pin_count(), 2);
    }

    #[test]
    fn clone_shares_tables_until_the_copy_is_mutated() {
        let mut d = design();
        let u1 = d.add_component(Component::new("u1", "INVX1", Point::ORIGIN, Orient::N));
        let mut n = Net::new("n1");
        n.pins.push(NetPin::Comp {
            comp: u1,
            pin: "A".into(),
        });
        d.add_net(n);
        let pin = |name: &str| {
            IoPin::new(
                name,
                "n1",
                LayerId(0),
                Rect::new(-10, -10, 10, 10),
                Point::new(0, 100),
                Orient::N,
            )
        };
        d.add_io_pin(pin("in0"));
        let mut copy = d.clone();
        assert!(Arc::ptr_eq(&d.nets, &copy.nets));
        assert!(Arc::ptr_eq(&d.comp_names, &copy.comp_names));
        // Mutate every shared table of the copy, and move a component.
        copy.component_mut(u1).location = Point::new(760, 0);
        let u2 = copy.add_component(Component::new("u2", "INVX1", Point::ORIGIN, Orient::N));
        copy.add_net(Net::new("n2"));
        copy.add_io_pin(pin("in1"));
        copy.reserve_components(8);
        copy.reserve_nets(8);
        copy.reserve_io_pins(8);
        // The original is unchanged.
        assert_eq!(d.component(u1).location, Point::ORIGIN);
        assert_eq!(d.components().len(), 1);
        assert_eq!(d.component_by_name("u2"), None);
        assert_eq!(d.nets().len(), 1);
        assert_eq!(d.net_by_name("n2"), None);
        assert_eq!(d.io_pins().len(), 1);
        assert_eq!(d.connected_pin_count(), 1);
        // The copy sees its own additions.
        assert_eq!(copy.component_by_name("u2"), Some(u2));
        assert_eq!(copy.nets().len(), 2);
        assert!(copy.net_by_name("n2").is_some());
        assert_eq!(copy.io_pins().len(), 2);
    }

    #[test]
    fn track_pattern_filter() {
        let d = design();
        assert_eq!(d.track_patterns_for(LayerId(0), Dir::Horizontal).len(), 1);
        assert_eq!(d.track_patterns_for(LayerId(1), Dir::Horizontal).len(), 0);
    }
}
