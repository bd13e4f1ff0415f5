//! The technology database.

use crate::layer::{Layer, LayerId, LayerKind};
use crate::macros::Macro;
use crate::site::Site;
use crate::symbol::Symbol;
use crate::via::{ViaDef, ViaId};
use pao_geom::Dbu;
use std::collections::HashMap;

/// A complete technology + library database (the contents of a LEF file).
///
/// Layers are stored bottom-up in LEF declaration order, interleaving
/// routing and cut layers. Lookup helpers resolve layer adjacency, the cut
/// layer between two routing layers, and the via definitions landing on a
/// given routing layer.
///
/// ```
/// use pao_geom::Dir;
/// use pao_tech::{Layer, Tech};
///
/// let mut tech = Tech::new(1000);
/// let m1 = tech.add_layer(Layer::routing("M1", Dir::Horizontal, 200, 60, 60));
/// let v1 = tech.add_layer(Layer::cut("V1", 70, 80));
/// let m2 = tech.add_layer(Layer::routing("M2", Dir::Vertical, 200, 60, 60));
/// assert_eq!(tech.routing_layer_above(m1), Some(m2));
/// assert_eq!(tech.cut_between(m1, m2), Some(v1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tech {
    /// Database units per micron (LEF `UNITS DATABASE MICRONS`).
    pub dbu_per_micron: Dbu,
    /// Manufacturing grid in DBU (0 = unspecified).
    pub manufacturing_grid: Dbu,
    layers: Vec<Layer>,
    layer_names: HashMap<Symbol, LayerId>,
    vias: Vec<ViaDef>,
    via_names: HashMap<Symbol, ViaId>,
    sites: Vec<Site>,
    macros: Vec<Macro>,
    macro_names: HashMap<Symbol, usize>,
}

impl Tech {
    /// Creates an empty technology with the given DBU scale.
    #[must_use]
    pub fn new(dbu_per_micron: Dbu) -> Tech {
        Tech {
            dbu_per_micron,
            ..Tech::default()
        }
    }

    /// Converts a micron quantity to DBU with round-to-nearest.
    #[must_use]
    pub fn microns_to_dbu(&self, um: f64) -> Dbu {
        (um * self.dbu_per_micron as f64).round() as Dbu
    }

    /// Converts DBU to microns.
    #[must_use]
    pub fn dbu_to_microns(&self, dbu: Dbu) -> f64 {
        dbu as f64 / self.dbu_per_micron as f64
    }

    /// Appends a layer (bottom-up order) and returns its id.
    pub fn add_layer(&mut self, layer: Layer) -> LayerId {
        let id = LayerId(self.layers.len() as u32);
        self.layer_names.insert(layer.name, id);
        self.layers.push(layer);
        id
    }

    /// Appends a via definition and returns its id.
    pub fn add_via(&mut self, via: ViaDef) -> ViaId {
        let id = ViaId(self.vias.len() as u32);
        self.via_names.insert(via.name, id);
        self.vias.push(via);
        id
    }

    /// Appends a site.
    pub fn add_site(&mut self, site: Site) {
        self.sites.push(site);
    }

    /// Appends a cell master.
    pub fn add_macro(&mut self, m: Macro) {
        self.macro_names.insert(m.name, self.macros.len());
        self.macros.push(m);
    }

    /// All layers, bottom-up.
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The layer with the given id.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    #[must_use]
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.layers[id.index()]
    }

    /// Looks up a layer by name.
    #[must_use]
    pub fn layer_id(&self, name: &str) -> Option<LayerId> {
        let sym = Symbol::lookup(name)?;
        self.layer_names.get(&sym).copied()
    }

    /// Looks up a layer by interned name (no string hashing).
    #[must_use]
    pub fn layer_id_sym(&self, name: Symbol) -> Option<LayerId> {
        self.layer_names.get(&name).copied()
    }

    /// Looks up a layer by name, returning the layer itself.
    #[must_use]
    pub fn layer_by_name(&self, name: &str) -> Option<&Layer> {
        self.layer_id(name).map(|id| self.layer(id))
    }

    /// Ids of all routing layers, bottom-up.
    #[must_use]
    pub fn routing_layers(&self) -> Vec<LayerId> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.kind == LayerKind::Routing)
            .map(|(i, _)| LayerId(i as u32))
            .collect()
    }

    /// The routing layer immediately above `id`, if any.
    #[must_use]
    pub fn routing_layer_above(&self, id: LayerId) -> Option<LayerId> {
        self.layers
            .iter()
            .enumerate()
            .skip(id.index() + 1)
            .find(|(_, l)| l.kind == LayerKind::Routing)
            .map(|(i, _)| LayerId(i as u32))
    }

    /// The cut layer strictly between two routing layers (in either order),
    /// if exactly the adjacent-pair relationship holds.
    #[must_use]
    pub fn cut_between(&self, a: LayerId, b: LayerId) -> Option<LayerId> {
        let (lo, hi) = (a.min(b), a.max(b));
        self.layers
            .iter()
            .enumerate()
            .skip(lo.index() + 1)
            .take(hi.index().saturating_sub(lo.index() + 1))
            .find(|(_, l)| l.kind == LayerKind::Cut)
            .map(|(i, _)| LayerId(i as u32))
    }

    /// All via definitions.
    #[must_use]
    pub fn vias(&self) -> &[ViaDef] {
        &self.vias
    }

    /// The via with the given id.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    #[must_use]
    pub fn via(&self, id: ViaId) -> &ViaDef {
        &self.vias[id.index()]
    }

    /// Looks up a via definition by name.
    #[must_use]
    pub fn via_id(&self, name: &str) -> Option<ViaId> {
        let sym = Symbol::lookup(name)?;
        self.via_names.get(&sym).copied()
    }

    /// Ids of the vias whose bottom layer is `layer` (the candidates for an
    /// up-via access from that layer), in declaration order with `DEFAULT`
    /// vias first.
    #[must_use]
    pub fn up_vias_from(&self, layer: LayerId) -> Vec<ViaId> {
        let mut ids: Vec<ViaId> = self
            .vias
            .iter()
            .enumerate()
            .filter(|(_, v)| v.bottom_layer == layer)
            .map(|(i, _)| ViaId(i as u32))
            .collect();
        ids.sort_by_key(|&id| (!self.via(id).is_default, id));
        ids
    }

    /// All sites.
    #[must_use]
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// Looks up a site by name.
    #[must_use]
    pub fn site_by_name(&self, name: &str) -> Option<&Site> {
        self.sites.iter().find(|s| s.name == name)
    }

    /// All cell masters.
    #[must_use]
    pub fn macros(&self) -> &[Macro] {
        &self.macros
    }

    /// Looks up a master by name.
    #[must_use]
    pub fn macro_by_name(&self, name: &str) -> Option<&Macro> {
        let sym = Symbol::lookup(name)?;
        self.macro_names.get(&sym).map(|&i| &self.macros[i])
    }

    /// Looks up a master by interned name — the hot path for
    /// component→master resolution (a u32 hash instead of a string hash).
    #[must_use]
    pub fn macro_by_symbol(&self, name: Symbol) -> Option<&Macro> {
        self.macro_names.get(&name).map(|&i| &self.macros[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pao_geom::{Dir, Rect};

    fn stack3() -> (Tech, LayerId, LayerId, LayerId, LayerId, LayerId) {
        let mut t = Tech::new(2000);
        let m1 = t.add_layer(Layer::routing("M1", Dir::Horizontal, 200, 60, 60));
        let v1 = t.add_layer(Layer::cut("V1", 70, 80));
        let m2 = t.add_layer(Layer::routing("M2", Dir::Vertical, 200, 60, 60));
        let v2 = t.add_layer(Layer::cut("V2", 70, 80));
        let m3 = t.add_layer(Layer::routing("M3", Dir::Horizontal, 200, 60, 60));
        (t, m1, v1, m2, v2, m3)
    }

    #[test]
    fn unit_conversion_rounds() {
        let t = Tech::new(2000);
        assert_eq!(t.microns_to_dbu(0.19), 380);
        assert_eq!(t.microns_to_dbu(0.0001), 0);
        assert_eq!(t.microns_to_dbu(0.00026), 1);
        assert!((t.dbu_to_microns(380) - 0.19).abs() < 1e-12);
    }

    #[test]
    fn adjacency() {
        let (t, m1, v1, m2, v2, m3) = stack3();
        assert_eq!(t.routing_layer_above(m1), Some(m2));
        assert_eq!(t.routing_layer_above(m2), Some(m3));
        assert_eq!(t.routing_layer_above(m3), None);
        assert_eq!(t.cut_between(m1, m2), Some(v1));
        assert_eq!(t.cut_between(m2, m1), Some(v1));
        assert_eq!(t.cut_between(m2, m3), Some(v2));
        assert_eq!(t.routing_layers(), vec![m1, m2, m3]);
    }

    #[test]
    fn name_lookup() {
        let (t, m1, ..) = stack3();
        assert_eq!(t.layer_id("M1"), Some(m1));
        assert_eq!(t.layer_id("M9"), None);
        assert_eq!(t.layer_by_name("M2").map(|l| l.dir), Some(Dir::Vertical));
    }

    #[test]
    fn up_vias_prefer_default() {
        let (mut t, m1, v1, m2, ..) = stack3();
        let mk = |name: &str| {
            ViaDef::new(
                name,
                m1,
                vec![Rect::new(-65, -35, 65, 35)],
                v1,
                vec![Rect::new(-35, -35, 35, 35)],
                m2,
                vec![Rect::new(-35, -65, 35, 65)],
            )
        };
        let a = t.add_via(mk("via1_a"));
        let mut dflt = mk("via1_d");
        dflt.is_default = true;
        let d = t.add_via(dflt);
        let ups = t.up_vias_from(m1);
        assert_eq!(ups, vec![d, a]);
        assert!(t.up_vias_from(m2).is_empty());
        assert_eq!(t.via_id("via1_a"), Some(a));
    }

    #[test]
    fn macro_and_site_lookup() {
        let (mut t, ..) = stack3();
        t.add_site(Site::new("core", 380, 2800));
        t.add_macro(Macro::new("INVX1", 380, 2800));
        assert!(t.site_by_name("core").is_some());
        assert!(t.macro_by_name("INVX1").is_some());
        assert!(t.macro_by_name("NANDX1").is_none());
    }
}
