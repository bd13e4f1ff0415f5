//! Cell masters (LEF `MACRO`s) with pins and obstructions.

use crate::layer::LayerId;
use crate::symbol::Symbol;
use pao_geom::{Dbu, Polygon, Rect};
use std::fmt;
use std::str::FromStr;

/// LEF `MACRO CLASS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MacroClass {
    /// A standard cell placed in rows.
    #[default]
    Core,
    /// A macro block (memory, analog, …).
    Block,
    /// A pad cell.
    Pad,
}

impl MacroClass {
    /// The LEF keyword for this class.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MacroClass::Core => "CORE",
            MacroClass::Block => "BLOCK",
            MacroClass::Pad => "PAD",
        }
    }
}

impl fmt::Display for MacroClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Signal direction of a pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PinDir {
    /// Input pin.
    #[default]
    Input,
    /// Output pin.
    Output,
    /// Bidirectional pin.
    Inout,
}

impl PinDir {
    /// The LEF keyword for this direction.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            PinDir::Input => "INPUT",
            PinDir::Output => "OUTPUT",
            PinDir::Inout => "INOUT",
        }
    }
}

impl FromStr for PinDir {
    type Err = String;
    fn from_str(s: &str) -> Result<PinDir, String> {
        Ok(match s {
            "INPUT" => PinDir::Input,
            "OUTPUT" => PinDir::Output,
            "INOUT" => PinDir::Inout,
            other => return Err(format!("unknown pin direction `{other}`")),
        })
    }
}

/// Electrical use of a pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PinUse {
    /// Ordinary signal pin (the ones pin access analysis targets).
    #[default]
    Signal,
    /// Power pin.
    Power,
    /// Ground pin.
    Ground,
    /// Clock pin.
    Clock,
}

impl PinUse {
    /// The LEF keyword for this use.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            PinUse::Signal => "SIGNAL",
            PinUse::Power => "POWER",
            PinUse::Ground => "GROUND",
            PinUse::Clock => "CLOCK",
        }
    }

    /// `true` for power/ground pins (excluded from pin access analysis).
    #[must_use]
    pub fn is_supply(self) -> bool {
        matches!(self, PinUse::Power | PinUse::Ground)
    }
}

impl FromStr for PinUse {
    type Err = String;
    fn from_str(s: &str) -> Result<PinUse, String> {
        Ok(match s {
            "SIGNAL" | "ANALOG" => PinUse::Signal,
            "POWER" => PinUse::Power,
            "GROUND" => PinUse::Ground,
            "CLOCK" => PinUse::Clock,
            other => return Err(format!("unknown pin use `{other}`")),
        })
    }
}

/// One `PORT` of a pin: geometry on a single layer. A pin may have several
/// ports; any port connects the whole pin.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Layer the geometry sits on.
    pub layer: LayerId,
    /// Rectangular shapes, in master coordinates.
    pub rects: Vec<Rect>,
    /// Polygonal shapes, in master coordinates.
    pub polygons: Vec<Polygon>,
}

impl Port {
    /// Creates a port from rectangles on a layer.
    #[must_use]
    pub fn rects(layer: LayerId, rects: Vec<Rect>) -> Port {
        Port {
            layer,
            rects,
            polygons: Vec::new(),
        }
    }

    /// All shapes flattened to rectangles (polygons decomposed by slab).
    #[must_use]
    pub fn flat_rects(&self) -> Vec<Rect> {
        let mut out = self.rects.clone();
        for p in &self.polygons {
            out.extend(p.to_rects());
        }
        out
    }

    /// Bounding box of all geometry in the port, `None` when empty.
    #[must_use]
    pub fn bbox(&self) -> Option<Rect> {
        self.rects
            .iter()
            .copied()
            .chain(self.polygons.iter().map(Polygon::bbox))
            .reduce(Rect::hull)
    }
}

/// A pin of a cell master.
#[derive(Debug, Clone, PartialEq)]
pub struct Pin {
    /// Pin name, e.g. `"A"` (interned).
    pub name: Symbol,
    /// Signal direction.
    pub dir: PinDir,
    /// Electrical use.
    pub use_: PinUse,
    /// Geometry, one entry per `PORT`/layer.
    pub ports: Vec<Port>,
}

impl Pin {
    /// Creates a signal pin with the given ports.
    #[must_use]
    pub fn new(name: impl Into<Symbol>, dir: PinDir, ports: Vec<Port>) -> Pin {
        Pin {
            name: name.into(),
            dir,
            use_: PinUse::Signal,
            ports,
        }
    }

    /// Bounding box of the pin across all layers, `None` for a pin with no
    /// geometry.
    #[must_use]
    pub fn bbox(&self) -> Option<Rect> {
        self.ports.iter().filter_map(Port::bbox).reduce(Rect::hull)
    }
}

/// A cell master (LEF `MACRO`).
#[derive(Debug, Clone, PartialEq)]
pub struct Macro {
    /// Master name, e.g. `"NAND2X1"` (interned).
    pub name: Symbol,
    /// Placement class.
    pub class: MacroClass,
    /// Width in DBU.
    pub width: Dbu,
    /// Height in DBU.
    pub height: Dbu,
    /// Site name this master snaps to (standard cells).
    pub site: Option<Symbol>,
    /// Pins in declaration order.
    pub pins: Vec<Pin>,
    /// Obstruction shapes as `(layer, rect)` pairs.
    pub obs: Vec<(LayerId, Rect)>,
}

impl Macro {
    /// Creates a core-class master with no pins or obstructions.
    #[must_use]
    pub fn new(name: impl Into<Symbol>, width: Dbu, height: Dbu) -> Macro {
        Macro {
            name: name.into(),
            class: MacroClass::Core,
            width,
            height,
            site: None,
            pins: Vec::new(),
            obs: Vec::new(),
        }
    }

    /// Bounding box of the master (origin at (0, 0)).
    #[must_use]
    pub fn bbox(&self) -> Rect {
        Rect::new(0, 0, self.width, self.height)
    }

    /// Looks up a pin by name.
    #[must_use]
    pub fn pin(&self, name: &str) -> Option<&Pin> {
        self.pins.iter().find(|p| p.name == name)
    }

    /// Pins that carry signals (pin access analysis skips supply pins).
    pub fn signal_pins(&self) -> impl Iterator<Item = &Pin> {
        self.pins.iter().filter(|p| !p.use_.is_supply())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pao_geom::Point;

    fn nand2() -> Macro {
        let mut m = Macro::new("NAND2X1", 570, 1400);
        m.pins.push(Pin::new(
            "A",
            PinDir::Input,
            vec![Port::rects(LayerId(0), vec![Rect::new(100, 400, 200, 800)])],
        ));
        m.pins.push(Pin::new(
            "Y",
            PinDir::Output,
            vec![Port::rects(LayerId(0), vec![Rect::new(400, 400, 500, 900)])],
        ));
        let mut vdd = Pin::new(
            "VDD",
            PinDir::Inout,
            vec![Port::rects(LayerId(0), vec![Rect::new(0, 1300, 570, 1400)])],
        );
        vdd.use_ = PinUse::Power;
        m.pins.push(vdd);
        m
    }

    #[test]
    fn pin_lookup_and_signal_filter() {
        let m = nand2();
        assert!(m.pin("A").is_some());
        assert!(m.pin("B").is_none());
        let sigs: Vec<&str> = m.signal_pins().map(|p| p.name.as_str()).collect();
        assert_eq!(sigs, vec!["A", "Y"]);
    }

    #[test]
    fn pin_bbox() {
        let m = nand2();
        let a = m.pin("A").unwrap();
        assert_eq!(a.bbox(), Some(Rect::new(100, 400, 200, 800)));
    }

    #[test]
    fn polygon_ports_flatten() {
        let poly = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(20, 0),
            Point::new(20, 5),
            Point::new(10, 5),
            Point::new(10, 10),
            Point::new(0, 10),
        ])
        .unwrap();
        let port = Port {
            layer: LayerId(0),
            rects: vec![Rect::new(30, 0, 40, 10)],
            polygons: vec![poly],
        };
        let flat = port.flat_rects();
        assert_eq!(flat.len(), 3);
        assert_eq!(port.bbox(), Some(Rect::new(0, 0, 40, 10)));
    }

    #[test]
    fn keywords_roundtrip() {
        assert_eq!("INPUT".parse::<PinDir>().unwrap(), PinDir::Input);
        assert_eq!("POWER".parse::<PinUse>().unwrap(), PinUse::Power);
        assert!(PinUse::Ground.is_supply());
        assert!(!PinUse::Clock.is_supply());
        assert_eq!(MacroClass::Core.to_string(), "CORE");
        assert!("XYZ".parse::<PinDir>().is_err());
        assert!("XYZ".parse::<PinUse>().is_err());
    }

    #[test]
    fn master_bbox() {
        assert_eq!(nand2().bbox(), Rect::new(0, 0, 570, 1400));
    }
}
