//! The LEF parser.

use super::lexer::Cursor;
use crate::layer::{Layer, LayerId, LayerKind};
use crate::macros::{Macro, MacroClass, Pin, PinDir, Port};
use crate::rules::{EolRule, MinStepRule, SpacingTable};
use crate::site::Site;
use crate::tech::Tech;
use crate::via::ViaDef;
use pao_geom::{Dbu, Dir, Point, Polygon, Rect};
use std::fmt;

/// Error produced while parsing LEF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLefError {
    /// Human-readable description.
    pub message: String,
    /// 1-based source line where the error was detected (0 = end of input).
    pub line: u32,
}

impl ParseLefError {
    fn new(message: impl Into<String>, line: u32) -> ParseLefError {
        ParseLefError {
            message: message.into(),
            line,
        }
    }
}

impl fmt::Display for ParseLefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LEF parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseLefError {}

struct LefParser {
    cur: Cursor,
    tech: Tech,
}

type Result<T> = std::result::Result<T, ParseLefError>;

impl LefParser {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(ParseLefError::new(msg, self.cur.line()))
    }

    fn next_word(&mut self) -> Result<String> {
        match self.cur.next() {
            Some(t) => Ok(t.text.clone()),
            None => Err(ParseLefError::new("unexpected end of input", 0)),
        }
    }

    fn expect(&mut self, kw: &str) -> Result<()> {
        let t = self.next_word()?;
        if t == kw {
            Ok(())
        } else {
            self.err(format!("expected `{kw}`, found `{t}`"))
        }
    }

    /// A finite number: `NaN`, `inf` and overflowing literals such as
    /// `1e400` are rejected, not passed on to saturating conversions.
    fn number(&mut self) -> Result<f64> {
        let t = self.next_word()?;
        match t.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            Ok(_) => self.err(format!("expected a finite number, found `{t}`")),
            Err(_) => self.err(format!("expected a number, found `{t}`")),
        }
    }

    /// A length in microns, converted to database units; the result must
    /// fit in 32 bits, which leaves the 64-bit geometry arithmetic (sums,
    /// areas in `i128`) far from overflow.
    fn dbu(&mut self) -> Result<Dbu> {
        let v = self.number()?;
        let d = self.tech.microns_to_dbu(v);
        if d.unsigned_abs() > i32::MAX.unsigned_abs().into() {
            return self.err(format!(
                "value {v} is out of range at {} DBU per micron",
                self.tech.dbu_per_micron
            ));
        }
        Ok(d)
    }

    fn parse(mut self) -> Result<Tech> {
        while let Some(t) = self.cur.peek() {
            let kw = t.text.clone();
            match kw.as_str() {
                "UNITS" => self.parse_units()?,
                "MANUFACTURINGGRID" => {
                    self.cur.next();
                    let g = self.dbu()?;
                    self.tech.manufacturing_grid = g;
                    self.expect(";")?;
                }
                "LAYER" => self.parse_layer()?,
                "VIA" => self.parse_via()?,
                "SITE" => self.parse_site()?,
                "MACRO" => self.parse_macro()?,
                "END" => {
                    self.cur.next();
                    // `END LIBRARY` (or a bare trailing END) terminates the
                    // file; `END <something>` closes a skipped block (e.g.
                    // PROPERTYDEFINITIONS) — consume its name and continue.
                    match self.cur.next() {
                        None => break,
                        Some(t) if t.text == "LIBRARY" => break,
                        Some(_) => {}
                    }
                }
                _ => {
                    // VERSION, BUSBITCHARS, PROPERTYDEFINITIONS body, …
                    self.cur.next();
                    self.cur.skip_statement();
                }
            }
        }
        Ok(self.tech)
    }

    fn parse_units(&mut self) -> Result<()> {
        self.expect("UNITS")?;
        loop {
            let t = self.next_word()?;
            match t.as_str() {
                "DATABASE" => {
                    self.expect("MICRONS")?;
                    let n = self.number()?;
                    if !(1.0..=f64::from(i32::MAX)).contains(&n) || n.fract() != 0.0 {
                        return self.err(format!(
                            "DATABASE MICRONS must be a positive whole number, found {n}"
                        ));
                    }
                    self.tech.dbu_per_micron = n as Dbu;
                    self.expect(";")?;
                }
                "END" => {
                    self.expect("UNITS")?;
                    break;
                }
                _ => self.cur.skip_statement(),
            }
        }
        if self.tech.dbu_per_micron == 0 {
            self.tech.dbu_per_micron = 1000; // LEF default when UNITS omits it
        }
        Ok(())
    }

    fn parse_layer(&mut self) -> Result<()> {
        self.expect("LAYER")?;
        let name = self.next_word()?;
        if self.tech.dbu_per_micron == 0 {
            self.tech.dbu_per_micron = 1000;
        }
        let mut layer = Layer::routing(name.clone(), Dir::Horizontal, 0, 0, 0);
        layer.min_width = 0;
        loop {
            let t = self.next_word()?;
            match t.as_str() {
                "TYPE" => {
                    let k = self.next_word()?;
                    layer.kind = match k.as_str() {
                        "ROUTING" => LayerKind::Routing,
                        "CUT" => LayerKind::Cut,
                        other => {
                            // MASTERSLICE / OVERLAP etc.: keep as cut-like
                            // non-routing so it is never used for wires.
                            let _ = other;
                            LayerKind::Cut
                        }
                    };
                    self.expect(";")?;
                }
                "DIRECTION" => {
                    let d = self.next_word()?;
                    layer.dir = match d.as_str() {
                        "HORIZONTAL" => Dir::Horizontal,
                        "VERTICAL" => Dir::Vertical,
                        other => return self.err(format!("unknown DIRECTION `{other}`")),
                    };
                    self.expect(";")?;
                }
                "PITCH" => {
                    let p = self.dbu()?;
                    // PITCH may carry one or two values; keep the first.
                    if !self.cur.eat(";") {
                        let _second = self.number()?;
                        self.expect(";")?;
                    }
                    layer.pitch = p;
                }
                "OFFSET" => {
                    let o = self.dbu()?;
                    if !self.cur.eat(";") {
                        let _second = self.number()?;
                        self.expect(";")?;
                    }
                    layer.offset = o;
                }
                "WIDTH" => {
                    layer.width = self.dbu()?;
                    if layer.min_width == 0 {
                        layer.min_width = layer.width;
                    }
                    self.expect(";")?;
                }
                "MINWIDTH" => {
                    layer.min_width = self.dbu()?;
                    self.expect(";")?;
                }
                "AREA" => {
                    // Given in µm²; convert with the square of the scale.
                    let a = self.number()?;
                    let s = self.tech.dbu_per_micron as f64;
                    layer.min_area = (a * s * s).round() as i128;
                    self.expect(";")?;
                }
                "MINSTEP" => {
                    let len = self.dbu()?;
                    let mut rule = MinStepRule::simple(len);
                    if self.cur.eat("MAXEDGES") {
                        rule.max_edges = self.number()? as u32;
                    }
                    layer.min_step = Some(rule);
                    self.cur.skip_statement();
                }
                "SPACING" => {
                    let s = self.dbu()?;
                    if self.cur.eat("ENDOFLINE") {
                        let w = self.dbu()?;
                        self.expect("WITHIN")?;
                        let within = self.dbu()?;
                        layer.eol_rules.push(EolRule {
                            space: s,
                            eol_width: w,
                            within,
                        });
                        self.cur.skip_statement();
                    } else {
                        layer.spacing = layer.spacing.max(s);
                        self.cur.skip_statement();
                    }
                }
                "SPACINGTABLE" => {
                    layer.spacing_table = Some(self.parse_spacing_table()?);
                }
                "END" => {
                    let n = self.next_word()?;
                    if n != name {
                        return self.err(format!("LAYER END name mismatch: `{n}` vs `{name}`"));
                    }
                    break;
                }
                _ => self.cur.skip_statement(),
            }
        }
        if layer.kind == LayerKind::Cut && layer.min_width == 0 {
            layer.min_width = layer.width;
        }
        self.tech.add_layer(layer);
        Ok(())
    }

    /// The next threshold of a `SPACINGTABLE` axis onto `axis`: the first
    /// must be 0 and each later one larger than the one before, as
    /// [`SpacingTable::new`] requires.
    fn threshold(&mut self, axis: &mut Vec<Dbu>, what: &str) -> Result<()> {
        let v = self.dbu()?;
        match axis.last() {
            None if v != 0 => return self.err(format!("SPACINGTABLE {what} must start at 0")),
            Some(&last) if v <= last => {
                return self.err(format!("SPACINGTABLE {what} must ascend"));
            }
            _ => axis.push(v),
        }
        Ok(())
    }

    fn parse_spacing_table(&mut self) -> Result<SpacingTable> {
        self.expect("PARALLELRUNLENGTH")?;
        let mut prls = Vec::new();
        loop {
            match self.cur.peek() {
                Some(t) if t.text == "WIDTH" => break,
                Some(_) => self.threshold(&mut prls, "PARALLELRUNLENGTH thresholds")?,
                None => return self.err("unterminated SPACINGTABLE"),
            }
        }
        let mut widths = Vec::new();
        let mut matrix = Vec::new();
        while self.cur.eat("WIDTH") {
            self.threshold(&mut widths, "WIDTH thresholds")?;
            let mut row = Vec::with_capacity(prls.len());
            for _ in 0..prls.len() {
                row.push(self.dbu()?);
            }
            matrix.push(row);
        }
        self.expect(";")?;
        if prls.is_empty() || widths.is_empty() {
            return self.err("SPACINGTABLE must have PRL columns and WIDTH rows");
        }
        Ok(SpacingTable::new(widths, prls, matrix))
    }

    fn layer_id(&self, name: &str) -> Result<LayerId> {
        self.tech
            .layer_id(name)
            .ok_or_else(|| ParseLefError::new(format!("unknown layer `{name}`"), self.cur.line()))
    }

    fn parse_rect(&mut self) -> Result<Rect> {
        let x1 = self.dbu()?;
        let y1 = self.dbu()?;
        let x2 = self.dbu()?;
        let y2 = self.dbu()?;
        self.expect(";")?;
        Ok(Rect::new(x1, y1, x2, y2))
    }

    fn parse_polygon(&mut self) -> Result<Polygon> {
        let mut pts = Vec::new();
        loop {
            match self.cur.peek() {
                Some(t) if t.text == ";" => {
                    self.cur.next();
                    break;
                }
                Some(_) => {
                    let x = self.dbu()?;
                    let y = self.dbu()?;
                    pts.push(Point::new(x, y));
                }
                None => return self.err("unterminated POLYGON"),
            }
        }
        Polygon::new(pts).map_err(|e| ParseLefError::new(e.to_string(), self.cur.line()))
    }

    fn parse_via(&mut self) -> Result<()> {
        self.expect("VIA")?;
        let name = self.next_word()?;
        let is_default = self.cur.eat("DEFAULT");
        let mut per_layer: Vec<(LayerId, Vec<Rect>)> = Vec::new();
        loop {
            let t = self.next_word()?;
            match t.as_str() {
                "LAYER" => {
                    let lname = self.next_word()?;
                    let id = self.layer_id(&lname)?;
                    self.expect(";")?;
                    per_layer.push((id, Vec::new()));
                }
                "RECT" => {
                    let r = self.parse_rect()?;
                    match per_layer.last_mut() {
                        Some((_, v)) => v.push(r),
                        None => return self.err("RECT before LAYER in VIA"),
                    }
                }
                "END" => {
                    let n = self.next_word()?;
                    if n != name {
                        return self.err(format!("VIA END name mismatch: `{n}` vs `{name}`"));
                    }
                    break;
                }
                _ => self.cur.skip_statement(),
            }
        }
        // Classify bottom/cut/top by layer kind and stack order.
        per_layer.sort_by_key(|(id, _)| *id);
        let mut bottom = None;
        let mut cut = None;
        let mut top = None;
        for (id, shapes) in per_layer {
            match self.tech.layer(id).kind {
                LayerKind::Cut => cut = Some((id, shapes)),
                LayerKind::Routing if bottom.is_none() => bottom = Some((id, shapes)),
                LayerKind::Routing => top = Some((id, shapes)),
            }
        }
        let (Some(bottom), Some(cut), Some(top)) = (bottom, cut, top) else {
            return self.err(format!("VIA `{name}` must have bottom, cut and top layers"));
        };
        if bottom.1.is_empty() || cut.1.is_empty() || top.1.is_empty() {
            return self.err(format!("VIA `{name}` needs a RECT on every layer"));
        }
        let mut via = ViaDef::new(name, bottom.0, bottom.1, cut.0, cut.1, top.0, top.1);
        via.is_default = is_default;
        self.tech.add_via(via);
        Ok(())
    }

    fn parse_site(&mut self) -> Result<()> {
        self.expect("SITE")?;
        let name = self.next_word()?;
        let mut size = None;
        loop {
            let t = self.next_word()?;
            match t.as_str() {
                "SIZE" => {
                    let w = self.dbu()?;
                    self.expect("BY")?;
                    let h = self.dbu()?;
                    self.expect(";")?;
                    size = Some((w, h));
                }
                "END" => {
                    let n = self.next_word()?;
                    if n != name {
                        return self.err(format!("SITE END name mismatch: `{n}` vs `{name}`"));
                    }
                    break;
                }
                _ => self.cur.skip_statement(),
            }
        }
        let Some((w, h)) = size else {
            return self.err(format!("SITE `{name}` missing SIZE"));
        };
        self.tech.add_site(Site::new(name, w, h));
        Ok(())
    }

    fn parse_macro(&mut self) -> Result<()> {
        self.expect("MACRO")?;
        let name = self.next_word()?;
        let mut m = Macro::new(name.clone(), 0, 0);
        loop {
            let t = self.next_word()?;
            match t.as_str() {
                "CLASS" => {
                    let c = self.next_word()?;
                    m.class = match c.as_str() {
                        "CORE" => MacroClass::Core,
                        "BLOCK" => MacroClass::Block,
                        "PAD" => MacroClass::Pad,
                        _ => MacroClass::Core,
                    };
                    self.cur.skip_statement();
                }
                "SIZE" => {
                    m.width = self.dbu()?;
                    self.expect("BY")?;
                    m.height = self.dbu()?;
                    self.expect(";")?;
                }
                "SITE" => {
                    m.site = Some(self.next_word()?.into());
                    self.cur.skip_statement();
                }
                "PIN" => {
                    let pin = self.parse_pin()?;
                    m.pins.push(pin);
                }
                "OBS" => {
                    self.parse_obs(&mut m)?;
                }
                "END" => {
                    let n = self.next_word()?;
                    if n != name {
                        return self.err(format!("MACRO END name mismatch: `{n}` vs `{name}`"));
                    }
                    break;
                }
                _ => self.cur.skip_statement(),
            }
        }
        self.tech.add_macro(m);
        Ok(())
    }

    fn parse_pin(&mut self) -> Result<Pin> {
        let name = self.next_word()?;
        let mut pin = Pin::new(name.clone(), PinDir::Input, Vec::new());
        loop {
            let t = self.next_word()?;
            match t.as_str() {
                "DIRECTION" => {
                    let d = self.next_word()?;
                    pin.dir = d
                        .parse()
                        .map_err(|e: String| ParseLefError::new(e, self.cur.line()))?;
                    self.cur.skip_statement();
                }
                "USE" => {
                    let u = self.next_word()?;
                    pin.use_ = u
                        .parse()
                        .map_err(|e: String| ParseLefError::new(e, self.cur.line()))?;
                    self.expect(";")?;
                }
                "PORT" => {
                    let mut current: Option<Port> = None;
                    loop {
                        let t = self.next_word()?;
                        match t.as_str() {
                            "LAYER" => {
                                if let Some(p) = current.take() {
                                    pin.ports.push(p);
                                }
                                let lname = self.next_word()?;
                                let id = self.layer_id(&lname)?;
                                self.cur.skip_statement();
                                current = Some(Port::rects(id, Vec::new()));
                            }
                            "RECT" => {
                                let r = self.parse_rect()?;
                                match current.as_mut() {
                                    Some(p) => p.rects.push(r),
                                    None => return self.err("RECT before LAYER in PORT"),
                                }
                            }
                            "POLYGON" => {
                                let poly = self.parse_polygon()?;
                                match current.as_mut() {
                                    Some(p) => p.polygons.push(poly),
                                    None => return self.err("POLYGON before LAYER in PORT"),
                                }
                            }
                            "END" => break,
                            _ => self.cur.skip_statement(),
                        }
                    }
                    if let Some(p) = current.take() {
                        pin.ports.push(p);
                    }
                }
                "END" => {
                    let n = self.next_word()?;
                    if n != name {
                        return self.err(format!("PIN END name mismatch: `{n}` vs `{name}`"));
                    }
                    break;
                }
                _ => self.cur.skip_statement(),
            }
        }
        Ok(pin)
    }

    fn parse_obs(&mut self, m: &mut Macro) -> Result<()> {
        let mut layer: Option<LayerId> = None;
        loop {
            let t = self.next_word()?;
            match t.as_str() {
                "LAYER" => {
                    let lname = self.next_word()?;
                    layer = Some(self.layer_id(&lname)?);
                    self.cur.skip_statement();
                }
                "RECT" => {
                    let r = self.parse_rect()?;
                    match layer {
                        Some(id) => m.obs.push((id, r)),
                        None => return self.err("RECT before LAYER in OBS"),
                    }
                }
                "POLYGON" => {
                    let poly = self.parse_polygon()?;
                    match layer {
                        Some(id) => m.obs.extend(poly.to_rects().into_iter().map(|r| (id, r))),
                        None => return self.err("POLYGON before LAYER in OBS"),
                    }
                }
                "END" => break,
                _ => self.cur.skip_statement(),
            }
        }
        Ok(())
    }
}

/// Parses LEF source into a [`Tech`].
///
/// # Errors
///
/// Returns [`ParseLefError`] (with a line number) on malformed input —
/// unknown layers referenced by vias/pins, mismatched `END` names, or
/// non-numeric values where numbers are required. Unknown statements are
/// skipped rather than rejected.
pub fn parse_lef(src: &str) -> std::result::Result<Tech, ParseLefError> {
    LefParser {
        cur: Cursor::new(src),
        tech: Tech::new(0),
    }
    .parse()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
VERSION 5.8 ;
BUSBITCHARS "[]" ;
UNITS DATABASE MICRONS 2000 ; END UNITS
MANUFACTURINGGRID 0.005 ;
LAYER M1
  TYPE ROUTING ;
  DIRECTION HORIZONTAL ;
  PITCH 0.19 ;
  OFFSET 0.095 ;
  WIDTH 0.06 ;
  AREA 0.02 ;
  MINSTEP 0.05 MAXEDGES 1 ;
  SPACING 0.06 ;
  SPACING 0.07 ENDOFLINE 0.08 WITHIN 0.025 ;
  SPACINGTABLE PARALLELRUNLENGTH 0 0.5
    WIDTH 0 0.06 0.06
    WIDTH 0.2 0.06 0.14 ;
END M1
LAYER V1
  TYPE CUT ;
  WIDTH 0.05 ;
  SPACING 0.08 ;
END V1
LAYER M2
  TYPE ROUTING ;
  DIRECTION VERTICAL ;
  PITCH 0.2 ;
  WIDTH 0.06 ;
  SPACING 0.06 ;
END M2
VIA via1_0 DEFAULT
  LAYER M1 ;
    RECT -0.065 -0.035 0.065 0.035 ;
  LAYER V1 ;
    RECT -0.025 -0.025 0.025 0.025 ;
  LAYER M2 ;
    RECT -0.035 -0.065 0.035 0.065 ;
END via1_0
SITE core
  CLASS CORE ;
  SIZE 0.19 BY 1.4 ;
END core
MACRO NAND2X1
  CLASS CORE ;
  ORIGIN 0 0 ;
  SIZE 0.57 BY 1.4 ;
  SITE core ;
  PIN A
    DIRECTION INPUT ;
    USE SIGNAL ;
    PORT
      LAYER M1 ;
        RECT 0.05 0.2 0.12 0.6 ;
        POLYGON 0.2 0.2 0.4 0.2 0.4 0.3 0.3 0.3 0.3 0.6 0.2 0.6 ;
    END
  END A
  PIN VDD
    DIRECTION INOUT ;
    USE POWER ;
    PORT
      LAYER M1 ;
        RECT 0.0 1.3 0.57 1.4 ;
    END
  END VDD
  OBS
    LAYER M1 ;
      RECT 0.45 0.0 0.5 1.0 ;
  END
END NAND2X1
END LIBRARY
"#;

    #[test]
    fn parses_full_sample() {
        let t = parse_lef(SAMPLE).unwrap();
        assert_eq!(t.dbu_per_micron, 2000);
        assert_eq!(t.manufacturing_grid, 10);
        assert_eq!(t.layers().len(), 3);

        let m1 = t.layer_by_name("M1").unwrap();
        assert_eq!(m1.pitch, 380);
        assert_eq!(m1.offset, 190);
        assert_eq!(m1.width, 120);
        assert_eq!(m1.min_area, (0.02 * 2000.0 * 2000.0) as i128);
        assert_eq!(m1.spacing, 120);
        assert_eq!(m1.eol_rules.len(), 1);
        assert_eq!(m1.eol_rules[0].space, 140);
        assert_eq!(m1.min_step.unwrap().min_step_length, 100);
        let st = m1.spacing_table.as_ref().unwrap();
        assert_eq!(st.lookup(500, 2000), 280);

        let v1 = t.layer_by_name("V1").unwrap();
        assert!(v1.is_cut());
        assert_eq!(v1.width, 100);

        assert_eq!(t.vias().len(), 1);
        let via = t.via(t.via_id("via1_0").unwrap());
        assert!(via.is_default);
        assert_eq!(via.bottom_layer, t.layer_id("M1").unwrap());
        assert_eq!(via.top_layer, t.layer_id("M2").unwrap());
        assert_eq!(via.cut_bbox(), Rect::new(-50, -50, 50, 50));

        assert_eq!(t.sites().len(), 1);
        let nand = t.macro_by_name("NAND2X1").unwrap();
        assert_eq!((nand.width, nand.height), (1140, 2800));
        assert_eq!(nand.site.as_deref(), Some("core"));
        assert_eq!(nand.pins.len(), 2);
        let a = nand.pin("A").unwrap();
        assert_eq!(a.ports.len(), 1);
        assert_eq!(a.ports[0].rects.len(), 1);
        assert_eq!(a.ports[0].polygons.len(), 1);
        assert_eq!(nand.obs.len(), 1);
        assert_eq!(nand.signal_pins().count(), 1);
    }

    #[test]
    fn default_units_when_missing() {
        let t = parse_lef("LAYER M1 TYPE ROUTING ; WIDTH 0.1 ; END M1\nEND LIBRARY").unwrap();
        assert_eq!(t.dbu_per_micron, 1000);
        assert_eq!(t.layer_by_name("M1").unwrap().width, 100);
    }

    #[test]
    fn error_on_unknown_layer_in_via() {
        let src =
            "UNITS DATABASE MICRONS 1000 ; END UNITS\nVIA v LAYER BOGUS ; RECT 0 0 1 1 ; END v";
        let err = parse_lef(src).unwrap_err();
        assert!(err.message.contains("unknown layer"));
        assert!(err.line > 0);
    }

    #[test]
    fn error_on_end_name_mismatch() {
        let src = "LAYER M1 TYPE ROUTING ; END M2";
        let err = parse_lef(src).unwrap_err();
        assert!(err.message.contains("mismatch"));
    }

    #[test]
    fn error_on_bad_number() {
        let src = "UNITS DATABASE MICRONS banana ; END UNITS";
        let err = parse_lef(src).unwrap_err();
        assert!(err.message.contains("expected a number"));
    }

    #[test]
    fn skips_unknown_statements() {
        let src = "\
NAMESCASESENSITIVE ON ;\n\
UNITS DATABASE MICRONS 1000 ; END UNITS\n\
LAYER M1 TYPE ROUTING ; FANCYNEWRULE 1 2 3 ; WIDTH 0.1 ; END M1\n\
END LIBRARY";
        let t = parse_lef(src).unwrap();
        assert_eq!(t.layers().len(), 1);
    }

    /// [`SAMPLE`] with its first `from` replaced by `to`, and the 1-based
    /// line `from` sits on.
    fn edited(from: &str, to: &str) -> (String, u32) {
        let line = SAMPLE.lines().position(|l| l.contains(from)).unwrap() + 1;
        (SAMPLE.replacen(from, to, 1), line as u32)
    }

    #[test]
    fn spacing_table_thresholds_must_start_at_zero_and_ascend() {
        for (from, to) in [
            ("PARALLELRUNLENGTH 0 0.5", "PARALLELRUNLENGTH 0.5 0"),
            ("WIDTH 0.2 0.06 0.14", "WIDTH 0 0.06 0.14"),
            ("WIDTH 0 0.06 0.06", "WIDTH 0.05 0.06 0.06"),
        ] {
            let (src, line) = edited(from, to);
            let err = parse_lef(&src).unwrap_err();
            assert!(err.message.contains("SPACINGTABLE"), "{to}: {err}");
            assert_eq!(err.line, line, "{to}: {err}");
        }
    }

    #[test]
    fn database_microns_must_be_a_positive_whole_number() {
        for bad in ["0.5", "NaN", "inf", "1e400", "0", "-1000", "1000.5"] {
            let src = format!("UNITS\n  DATABASE MICRONS {bad} ;\nEND UNITS\nEND LIBRARY");
            let err = parse_lef(&src).unwrap_err();
            assert_eq!(err.line, 2, "{bad}: {err}");
        }
        let t = parse_lef("UNITS DATABASE MICRONS 2000.0 ; END UNITS").unwrap();
        assert_eq!(t.dbu_per_micron, 2000);
    }

    #[test]
    fn non_finite_and_out_of_range_lengths_are_rejected() {
        for bad in [
            "NaN", "inf", "-inf", "1e400", "1e300", "3000000", "-3000000",
        ] {
            let src = format!(
                "UNITS DATABASE MICRONS 1000 ; END UNITS\nLAYER M1 TYPE ROUTING ;\n  WIDTH {bad} ;\nEND M1"
            );
            let err = parse_lef(&src).unwrap_err();
            assert_eq!(err.line, 3, "{bad}: {err}");
        }
    }

    #[test]
    fn via_layer_without_a_rect_is_rejected() {
        let (src, _) = edited("RECT -0.025 -0.025 0.025 0.025 ;", "");
        let err = parse_lef(&src).unwrap_err();
        assert!(err.message.contains("RECT on every layer"), "{err}");
    }
}
