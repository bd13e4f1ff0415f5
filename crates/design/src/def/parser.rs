//! The DEF parser.
//!
//! Parsing streams: the reader works line-by-line over any
//! [`BufRead`](std::io::Read) source with one reusable line buffer and a
//! token table of byte ranges into it, so peak memory is the finished
//! [`Design`], not the DEF text plus a `Vec` of per-token `String`s. Names
//! intern directly to [`Symbol`]s from the in-place slices, and the
//! `COMPONENTS` / `PINS` / `NETS` section count headers pre-size the
//! design tables before the first entry lands.

use crate::component::Component;
use crate::design::Design;
use crate::iopin::IoPin;
use crate::net::{Net, NetPin};
use crate::row::Row;
use crate::tracks::TrackPattern;
use pao_geom::{Dbu, Dir, Orient, Point, Rect};
use pao_tech::{Symbol, Tech};
use std::collections::HashMap;
use std::fmt;
use std::io::BufRead;
use std::path::Path;

/// Error produced while parsing DEF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDefError {
    /// Human-readable description.
    pub message: String,
    /// 1-based source line where the error was detected (0 = end of input).
    pub line: u32,
}

impl ParseDefError {
    fn new(message: impl Into<String>, line: u32) -> ParseDefError {
        ParseDefError {
            message: message.into(),
            line,
        }
    }
}

impl fmt::Display for ParseDefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DEF parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseDefError {}

type Result<T> = std::result::Result<T, ParseDefError>;

/// Upper bound accepted from a section count header when pre-sizing
/// tables, so a corrupt header cannot trigger a huge up-front
/// allocation. Real entries beyond this still parse; the tables just
/// grow normally.
const MAX_RESERVE: usize = 1 << 24;

struct DefParser<'t, R: BufRead> {
    src: R,
    /// Current line text (comment-stripped), reused across lines.
    buf: String,
    /// Byte ranges of the current line's tokens in `buf`.
    toks: Vec<(u32, u32)>,
    /// Next unconsumed token index in `toks`.
    ti: usize,
    /// 1-based line number of `buf`.
    line_no: u32,
    /// Line of the most recently consumed token (error reporting).
    last_line: u32,
    eof: bool,
    tech: &'t Tech,
    design: Design,
}

impl<'t, R: BufRead> DefParser<'t, R> {
    fn new(src: R, tech: &'t Tech) -> DefParser<'t, R> {
        DefParser {
            src,
            buf: String::new(),
            toks: Vec::new(),
            ti: 0,
            line_no: 0,
            last_line: 0,
            eof: false,
            tech,
            design: Design::new("", Rect::new(0, 0, 0, 0)),
        }
    }

    /// Ensures at least one unconsumed token is available, pulling lines
    /// from the reader as needed. Returns `false` at end of input.
    fn fill(&mut self) -> Result<bool> {
        while self.ti >= self.toks.len() {
            if self.eof {
                return Ok(false);
            }
            self.buf.clear();
            self.toks.clear();
            self.ti = 0;
            let n = self
                .src
                .read_line(&mut self.buf)
                .map_err(|e| ParseDefError::new(format!("read error: {e}"), self.line_no))?;
            if n == 0 {
                self.eof = true;
                return Ok(false);
            }
            self.line_no += 1;
            tokenize_line(&self.buf, &mut self.toks);
        }
        Ok(true)
    }

    /// The next token without consuming it, or `None` at end of input.
    fn peek(&mut self) -> Result<Option<&str>> {
        if !self.fill()? {
            return Ok(None);
        }
        let (a, b) = self.toks[self.ti];
        Ok(Some(&self.buf[a as usize..b as usize]))
    }

    /// Copies the next token into `out` without consuming. Returns
    /// `false` at end of input.
    fn peek_into(&mut self, out: &mut String) -> Result<bool> {
        out.clear();
        match self.peek()? {
            Some(t) => {
                out.push_str(t);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Consumes the current token (which `fill` guaranteed to exist).
    fn bump(&mut self) {
        self.ti += 1;
        self.last_line = self.line_no;
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(ParseDefError::new(msg, self.last_line))
    }

    /// Consumes and returns the next token as an owned string.
    fn next_string(&mut self) -> Result<String> {
        if !self.fill()? {
            return Err(ParseDefError::new("unexpected end of input", 0));
        }
        let (a, b) = self.toks[self.ti];
        let s = self.buf[a as usize..b as usize].to_owned();
        self.bump();
        Ok(s)
    }

    /// Consumes and interns the next token.
    fn next_sym(&mut self) -> Result<Symbol> {
        if !self.fill()? {
            return Err(ParseDefError::new("unexpected end of input", 0));
        }
        let (a, b) = self.toks[self.ti];
        let s = Symbol::intern(&self.buf[a as usize..b as usize]);
        self.bump();
        Ok(s)
    }

    /// `true` and consume when the next token equals `kw`.
    fn eat(&mut self, kw: &str) -> Result<bool> {
        if self.peek()? == Some(kw) {
            self.bump();
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn expect(&mut self, kw: &str) -> Result<()> {
        let t = self.next_string()?;
        if t == kw {
            Ok(())
        } else {
            self.err(format!("expected `{kw}`, found `{t}`"))
        }
    }

    /// Consumes tokens up to and including the next `;`.
    fn skip_statement(&mut self) -> Result<()> {
        loop {
            if !self.fill()? {
                return Ok(());
            }
            let (a, b) = self.toks[self.ti];
            let done = &self.buf[a as usize..b as usize] == ";";
            self.bump();
            if done {
                return Ok(());
            }
        }
    }

    /// Consumes tokens until the next token is one of `stops` (left
    /// unconsumed) or input ends.
    fn skip_until(&mut self, stops: &[&str]) -> Result<()> {
        loop {
            match self.peek()? {
                None => return Ok(()),
                Some(t) if stops.contains(&t) => return Ok(()),
                Some(_) => self.bump(),
            }
        }
    }

    fn int(&mut self) -> Result<Dbu> {
        if !self.fill()? {
            return Err(ParseDefError::new("unexpected end of input", 0));
        }
        let (a, b) = self.toks[self.ti];
        let t = &self.buf[a as usize..b as usize];
        match t.parse::<Dbu>() {
            Ok(v) => {
                self.bump();
                Ok(v)
            }
            Err(_) => {
                let msg = format!("expected an integer, found `{t}`");
                self.bump();
                self.err(msg)
            }
        }
    }

    /// Parses a repeat count (`DO n`, `BY n`): a non-negative integer
    /// that fits in `u32`.
    fn count(&mut self) -> Result<u32> {
        let v = self.int()?;
        u32::try_from(v).or_else(|_| self.err(format!("count {v} out of range")))
    }

    /// Parses a coordinate: an integer that fits in 32 bits, the bound
    /// every LEF length has too, which leaves the 64-bit geometry
    /// arithmetic (sums, areas in `i128`) far from overflow.
    fn coord(&mut self) -> Result<Dbu> {
        let v = self.int()?;
        if i32::try_from(v).is_err() {
            return self.err(format!("coordinate {v} does not fit in 32 bits"));
        }
        Ok(v)
    }

    /// Parses `( x y )`.
    fn point(&mut self) -> Result<Point> {
        self.expect("(")?;
        let x = self.coord()?;
        let y = self.coord()?;
        self.expect(")")?;
        Ok(Point::new(x, y))
    }

    fn orient(&mut self) -> Result<Orient> {
        let t = self.next_string()?;
        t.parse::<Orient>()
            .map_err(|e| ParseDefError::new(e.to_string(), self.last_line))
    }

    fn parse(mut self) -> Result<Design> {
        let mut kw = String::new();
        while self.peek_into(&mut kw)? {
            match kw.as_str() {
                "DESIGN" => {
                    self.bump();
                    self.design.name = self.next_string()?;
                    self.expect(";")?;
                }
                "UNITS" => {
                    self.bump();
                    self.expect("DISTANCE")?;
                    self.expect("MICRONS")?;
                    self.design.dbu_per_micron = self.int()?;
                    self.expect(";")?;
                }
                "DIEAREA" => {
                    self.bump();
                    let a = self.point()?;
                    let b = self.point()?;
                    self.expect(";")?;
                    self.design.die_area = Rect::from_points(a, b);
                }
                "ROW" => self.parse_row()?,
                "TRACKS" => self.parse_tracks()?,
                "COMPONENTS" => self.parse_components()?,
                "PINS" => self.parse_pins()?,
                "NETS" => self.parse_nets()?,
                "END" => {
                    self.bump();
                    let what = self.next_string().unwrap_or_default();
                    if what == "DESIGN" {
                        break;
                    }
                    // END of a skipped section — continue.
                }
                _ => {
                    self.bump();
                    self.skip_statement()?;
                }
            }
        }
        Ok(self.design)
    }

    fn parse_row(&mut self) -> Result<()> {
        self.expect("ROW")?;
        let name = self.next_string()?;
        let site = self.next_string()?;
        let x = self.coord()?;
        let y = self.coord()?;
        let orient = self.orient()?;
        self.expect("DO")?;
        let nx = self.count()?;
        self.expect("BY")?;
        let ny = self.count()?;
        self.expect("STEP")?;
        let sx = self.coord()?;
        let _sy = self.coord()?;
        self.expect(";")?;
        if ny != 1 {
            return self.err("only DO n BY 1 rows are supported");
        }
        let height = self.tech.site_by_name(&site).map_or(0, |s| s.height).max(1);
        self.design.rows.push(Row::new(
            name,
            site,
            Point::new(x, y),
            orient,
            nx,
            sx.max(1),
            height,
        ));
        Ok(())
    }

    fn parse_tracks(&mut self) -> Result<()> {
        self.expect("TRACKS")?;
        let axis = self.next_string()?;
        // DEF `TRACKS X` lists x coordinates → vertical wires run on them.
        let dir = match axis.as_str() {
            "X" => Dir::Vertical,
            "Y" => Dir::Horizontal,
            other => return self.err(format!("expected TRACKS X or Y, found `{other}`")),
        };
        let start = self.coord()?;
        self.expect("DO")?;
        let count = self.count()?;
        self.expect("STEP")?;
        let step = self.coord()?;
        if step <= 0 {
            return self.err(format!("TRACKS STEP must be positive, found {step}"));
        }
        let mut layers = Vec::new();
        if self.eat("LAYER")? {
            loop {
                match self.peek()? {
                    Some(";") => break,
                    Some(_) => {
                        let lname = self.next_sym()?;
                        match self.tech.layer_id_sym(lname) {
                            Some(id) => layers.push(id),
                            None => return self.err(format!("unknown layer `{lname}` in TRACKS")),
                        }
                    }
                    None => return self.err("unterminated TRACKS"),
                }
            }
        }
        self.expect(";")?;
        self.design
            .tracks
            .push(TrackPattern::new(dir, start, step, count, layers));
        Ok(())
    }

    fn parse_components(&mut self) -> Result<()> {
        self.expect("COMPONENTS")?;
        let count = self.int()?;
        self.expect(";")?;
        if count > 0 {
            self.design
                .reserve_components((count as usize).min(MAX_RESERVE));
        }
        let mut kw = String::new();
        while self.eat("-")? {
            let name = self.next_sym()?;
            let master = self.next_sym()?;
            let mut comp = Component::new(name, master, Point::ORIGIN, Orient::N);
            comp.is_placed = false; // until a PLACED/FIXED clause appears
            while self.eat("+")? {
                if !self.peek_into(&mut kw)? {
                    return Err(ParseDefError::new("unexpected end of input", 0));
                }
                self.bump();
                match kw.as_str() {
                    "PLACED" | "FIXED" => {
                        comp.location = self.point()?;
                        comp.orient = self.orient()?;
                        comp.is_fixed = kw == "FIXED";
                        comp.is_placed = true;
                    }
                    "UNPLACED" => {
                        comp.is_placed = false;
                    }
                    _ => {
                        // SOURCE, WEIGHT, … skip until the next +, - or ;.
                        self.skip_until(&["+", "-", ";"])?;
                    }
                }
            }
            self.expect(";")?;
            self.design.add_component(comp);
        }
        self.expect("END")?;
        self.expect("COMPONENTS")?;
        Ok(())
    }

    fn parse_pins(&mut self) -> Result<()> {
        self.expect("PINS")?;
        let count = self.int()?;
        self.expect(";")?;
        if count > 0 {
            self.design
                .reserve_io_pins((count as usize).min(MAX_RESERVE));
        }
        let mut kw = String::new();
        while self.eat("-")? {
            let name = self.next_sym()?;
            let mut net = name;
            let mut layer = None;
            let mut rect = Rect::new(0, 0, 0, 0);
            let mut location = Point::ORIGIN;
            let mut orient = Orient::N;
            let mut dir = pao_tech::PinDir::Input;
            let mut use_ = pao_tech::PinUse::Signal;
            while self.eat("+")? {
                if !self.peek_into(&mut kw)? {
                    return Err(ParseDefError::new("unexpected end of input", 0));
                }
                self.bump();
                match kw.as_str() {
                    "NET" => net = self.next_sym()?,
                    "DIRECTION" => {
                        let d = self.next_string()?;
                        dir = d
                            .parse()
                            .map_err(|e: String| ParseDefError::new(e, self.last_line))?;
                    }
                    "USE" => {
                        let u = self.next_string()?;
                        use_ = u
                            .parse()
                            .map_err(|e: String| ParseDefError::new(e, self.last_line))?;
                    }
                    "LAYER" => {
                        let lname = self.next_sym()?;
                        layer = match self.tech.layer_id_sym(lname) {
                            Some(id) => Some(id),
                            None => return self.err(format!("unknown layer `{lname}` in PINS")),
                        };
                        let a = self.point()?;
                        let b = self.point()?;
                        rect = Rect::from_points(a, b);
                    }
                    "PLACED" | "FIXED" => {
                        location = self.point()?;
                        orient = self.orient()?;
                    }
                    _ => {
                        self.skip_until(&["+", "-", ";"])?;
                    }
                }
            }
            self.expect(";")?;
            let Some(layer) = layer else {
                return self.err(format!("pin `{name}` has no LAYER geometry"));
            };
            let mut pin = IoPin::new(name, net, layer, rect, location, orient);
            pin.dir = dir;
            pin.use_ = use_;
            self.design.add_io_pin(pin);
        }
        self.expect("END")?;
        self.expect("PINS")?;
        Ok(())
    }

    fn parse_nets(&mut self) -> Result<()> {
        self.expect("NETS")?;
        let count = self.int()?;
        self.expect(";")?;
        if count > 0 {
            self.design.reserve_nets((count as usize).min(MAX_RESERVE));
        }
        // I/O pins were all declared by the time NETS opens; one map
        // replaces the per-terminal linear scan of the pin list.
        let io_index: HashMap<Symbol, u32> = self
            .design
            .io_pins()
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name, i as u32))
            .collect();
        while self.eat("-")? {
            let name = self.next_sym()?;
            let mut net = Net::new(name);
            loop {
                if self.eat("(")? {
                    let a = self.next_sym()?;
                    let b = self.next_sym()?;
                    self.expect(")")?;
                    if a == "PIN" {
                        let idx = io_index.get(&b).copied().ok_or_else(|| {
                            ParseDefError::new(format!("unknown design pin `{b}`"), self.last_line)
                        })?;
                        net.pins.push(NetPin::Io { index: idx });
                    } else {
                        let comp = self.design.component_by_symbol(a).ok_or_else(|| {
                            ParseDefError::new(
                                format!("unknown component `{a}` in net `{name}`"),
                                self.last_line,
                            )
                        })?;
                        net.pins.push(NetPin::Comp { comp, pin: b });
                    }
                } else if self.eat(";")? {
                    break;
                } else if self.eat("+")? {
                    // USE / ROUTED / … — DEF places all terminals before
                    // the first `+` clause, so everything up to the `;`
                    // (including ROUTED coordinates in parentheses) is
                    // skipped.
                    self.skip_until(&[";"])?;
                } else {
                    return self.err("expected `(`, `+` or `;` in NETS entry");
                }
            }
            self.design.add_net(net);
        }
        self.expect("END")?;
        self.expect("NETS")?;
        Ok(())
    }
}

/// Tokenizes one line: whitespace-separated words with `;`, `(` and `)`
/// standalone and `#` starting a line comment — the same rules as the
/// LEF lexer, expressed as byte ranges instead of owned strings.
fn tokenize_line(line: &str, toks: &mut Vec<(u32, u32)>) {
    let bytes = line.as_bytes();
    let end = line.find('#').unwrap_or(bytes.len());
    let mut start: Option<usize> = None;
    for (i, &c) in bytes[..end].iter().enumerate() {
        match c {
            b';' | b'(' | b')' => {
                if let Some(s) = start.take() {
                    toks.push((s as u32, i as u32));
                }
                toks.push((i as u32, (i + 1) as u32));
            }
            c if c.is_ascii_whitespace() => {
                if let Some(s) = start.take() {
                    toks.push((s as u32, i as u32));
                }
            }
            _ => {
                if start.is_none() {
                    start = Some(i);
                }
            }
        }
    }
    if let Some(s) = start {
        toks.push((s as u32, end as u32));
    }
}

/// Parses DEF from any buffered reader into a [`Design`], resolving layer
/// and site names against `tech`. This is the streaming entry point: the
/// source is consumed line-by-line and never materialized whole.
///
/// # Errors
///
/// Returns [`ParseDefError`] on malformed input, I/O failure, unknown
/// layers/components referenced by later sections, or unsupported
/// constructs (multi-row `DO n BY m` with `m > 1`). Unknown statements
/// and sections are skipped.
pub fn parse_def_reader<R: BufRead>(
    src: R,
    tech: &Tech,
) -> std::result::Result<Design, ParseDefError> {
    DefParser::new(src, tech).parse()
}

/// Parses a DEF file by streaming it through a [`BufReader`](std::io::BufReader).
///
/// # Errors
///
/// As [`parse_def_reader`]; failure to open the file reports as a
/// [`ParseDefError`] at line 0.
pub fn parse_def_file(path: &Path, tech: &Tech) -> std::result::Result<Design, ParseDefError> {
    let file = std::fs::File::open(path)
        .map_err(|e| ParseDefError::new(format!("cannot open `{}`: {e}", path.display()), 0))?;
    parse_def_reader(std::io::BufReader::new(file), tech)
}

/// Parses DEF source into a [`Design`], resolving layer and site names
/// against `tech`.
///
/// # Errors
///
/// Returns [`ParseDefError`] on malformed input, unknown layers/components
/// referenced by later sections, or unsupported constructs (multi-row `DO n
/// BY m` with `m > 1`). Unknown statements and sections are skipped.
pub fn parse_def(src: &str, tech: &Tech) -> std::result::Result<Design, ParseDefError> {
    parse_def_reader(src.as_bytes(), tech)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pao_tech::{Layer, Macro, Site};

    fn tech() -> Tech {
        let mut t = Tech::new(2000);
        t.add_layer(Layer::routing("M1", Dir::Horizontal, 280, 120, 120));
        t.add_layer(Layer::cut("V1", 100, 160));
        t.add_layer(Layer::routing("M2", Dir::Vertical, 380, 120, 120));
        t.add_site(Site::new("core", 380, 2800));
        t.add_macro(Macro::new("INVX1", 760, 2800));
        t.add_macro(Macro::new("NAND2X1", 1140, 2800));
        t
    }

    const SAMPLE: &str = r#"
VERSION 5.8 ;
DIVIDERCHAR "/" ;
DESIGN top ;
UNITS DISTANCE MICRONS 2000 ;
DIEAREA ( 0 0 ) ( 40000 38000 ) ;
ROW row_0 core 0 0 FS DO 100 BY 1 STEP 380 0 ;
ROW row_1 core 0 2800 N DO 100 BY 1 STEP 380 0 ;
TRACKS Y 140 DO 135 STEP 280 LAYER M1 ;
TRACKS X 190 DO 105 STEP 380 LAYER M1 M2 ;
COMPONENTS 2 ;
 - u1 INVX1 + PLACED ( 380 0 ) FS ;
 - u2 NAND2X1 + SOURCE DIST + FIXED ( 1140 0 ) FS ;
END COMPONENTS
PINS 1 ;
 - clk + NET clk + DIRECTION INPUT + USE SIGNAL
   + LAYER M2 ( -35 -35 ) ( 35 35 )
   + PLACED ( 0 19000 ) N ;
END PINS
NETS 2 ;
 - n1 ( u1 A ) ( u2 Y ) + USE SIGNAL ;
 - clk ( PIN clk ) ( u2 B ) ;
END NETS
END DESIGN
"#;

    #[test]
    fn parses_full_sample() {
        let t = tech();
        let d = parse_def(SAMPLE, &t).unwrap();
        assert_eq!(d.name, "top");
        assert_eq!(d.dbu_per_micron, 2000);
        assert_eq!(d.die_area, Rect::new(0, 0, 40000, 38000));
        assert_eq!(d.rows.len(), 2);
        assert_eq!(d.rows[0].orient, Orient::FS);
        assert_eq!(d.rows[0].height, 2800);
        assert_eq!(d.tracks.len(), 2);
        assert_eq!(d.tracks[0].dir, Dir::Horizontal);
        assert_eq!(d.tracks[0].start, 140);
        assert_eq!(d.tracks[1].dir, Dir::Vertical);
        assert_eq!(d.tracks[1].layers.len(), 2);
        assert_eq!(d.components().len(), 2);
        let u2 = d.component(d.component_by_name("u2").unwrap());
        assert!(u2.is_fixed);
        assert_eq!(u2.location, Point::new(1140, 0));
        assert_eq!(d.io_pins().len(), 1);
        assert_eq!(d.io_pins()[0].location, Point::new(0, 19000));
        assert_eq!(d.nets().len(), 2);
        let clk = d.net(d.net_by_name("clk").unwrap());
        assert_eq!(clk.degree(), 2);
        assert!(matches!(clk.pins[0], NetPin::Io { index: 0 }));
        assert_eq!(d.connected_pin_count(), 3);
    }

    #[test]
    fn reader_entry_point_matches_str_parse() {
        let t = tech();
        let via_str = parse_def(SAMPLE, &t).unwrap();
        let via_reader =
            parse_def_reader(std::io::BufReader::with_capacity(17, SAMPLE.as_bytes()), &t).unwrap();
        // A tiny buffer forces many refills; results must be identical.
        assert_eq!(via_str.components(), via_reader.components());
        assert_eq!(via_str.nets(), via_reader.nets());
        assert_eq!(via_str.io_pins(), via_reader.io_pins());
        assert_eq!(via_str.rows, via_reader.rows);
        assert_eq!(via_str.tracks, via_reader.tracks);
    }

    #[test]
    fn error_on_unknown_component_in_net() {
        let t = tech();
        let src = "\
DESIGN x ;\nCOMPONENTS 0 ;\nEND COMPONENTS\nNETS 1 ;\n - n ( ghost A ) ;\nEND NETS\nEND DESIGN";
        let err = parse_def(src, &t).unwrap_err();
        assert!(err.message.contains("unknown component"));
        assert!(err.line > 0);
    }

    #[test]
    fn error_on_unknown_layer_in_tracks() {
        let t = tech();
        let src = "DESIGN x ;\nTRACKS X 0 DO 10 STEP 100 LAYER M9 ;\nEND DESIGN";
        let err = parse_def(src, &t).unwrap_err();
        assert!(err.message.contains("unknown layer"));
    }

    #[test]
    fn skips_unknown_sections() {
        let t = tech();
        let src = "\
DESIGN x ;\nGCELLGRID X 0 DO 10 STEP 3000 ;\nVIAS 0 ;\nEND VIAS\nEND DESIGN";
        let d = parse_def(src, &t).unwrap();
        assert_eq!(d.name, "x");
    }

    #[test]
    fn rejects_coordinates_beyond_32_bits() {
        let t = tech();
        let far = SAMPLE.replace("PLACED ( 380 0 )", "PLACED ( 9223372036854775000 0 )");
        let err = parse_def(&far, &t).unwrap_err();
        assert!(err.message.contains("does not fit in 32 bits"), "{err}");
        assert_eq!(err.line, 12);
        for (from, to) in [
            ("ROW row_0 core 0 0", "ROW row_0 core 0 -2147483649"),
            ("STEP 380 0 ;\nROW row_1", "STEP 4294967296 0 ;\nROW row_1"),
            ("TRACKS Y 140", "TRACKS Y 2147483648"),
            ("STEP 280 LAYER", "STEP 2147483648 LAYER"),
            ("( 40000 38000 )", "( 40000 -9223372036854775808 )"),
        ] {
            assert!(SAMPLE.contains(from), "{from}");
            let err = parse_def(&SAMPLE.replace(from, to), &t).unwrap_err();
            assert!(
                err.message.contains("does not fit in 32 bits"),
                "{to}: {err}"
            );
        }
        let edge = SAMPLE.replace("PLACED ( 380 0 )", "PLACED ( 2147483647 -2147483648 )");
        assert!(parse_def(&edge, &t).is_ok());
    }

    #[test]
    fn rejects_multi_height_rows() {
        let t = tech();
        let src = "DESIGN x ;\nROW r core 0 0 N DO 5 BY 2 STEP 380 2800 ;\nEND DESIGN";
        assert!(parse_def(src, &t).is_err());
    }

    #[test]
    fn truncated_input_reports_error_not_panic() {
        let t = tech();
        // Cut the sample at every line boundary: each prefix must either
        // parse (possibly to a partial design) or fail cleanly.
        let lines: Vec<&str> = SAMPLE.lines().collect();
        for n in 0..lines.len() {
            let prefix = lines[..n].join("\n");
            let _ = parse_def(&prefix, &t);
        }
        // A truncation mid-COMPONENTS must be an error, not a silent
        // half-design.
        let cut = SAMPLE.split("END COMPONENTS").next().unwrap();
        let err = parse_def(cut, &t).unwrap_err();
        assert!(err.message.contains("unexpected end of input"));
    }

    #[test]
    fn garbage_reports_error_not_panic() {
        let t = tech();
        for src in [
            "COMPONENTS x ;",
            "COMPONENTS 1 ; - u1 ;",
            "NETS 1 ; - n ( ;",
            "TRACKS Z 0 DO 1 STEP 1 ;",
            "ROW r core a b N DO 1 BY 1 STEP 1 0 ;",
            "PINS 1 ; - p + LAYER M9 ( 0 0 ) ( 1 1 ) ;",
            "PINS 1 ; - p + PLACED ( 0 0 ) N ;\nEND PINS",
            "NETS 1 ; - n [ ;",
        ] {
            assert!(parse_def(src, &t).is_err(), "`{src}` must not parse");
        }
        // Out-of-range counts and non-positive track steps are typed
        // errors at their line, never wrapped or clamped.
        for src in [
            "ROW r core 0 0 N DO -3 BY 1 STEP 380 0 ;",
            "ROW r core 0 0 N DO 4294967296 BY 1 STEP 380 0 ;",
            "ROW r core 0 0 N DO 1 BY -1 STEP 380 0 ;",
            "TRACKS X 0 DO -3 STEP 140 ;",
            "TRACKS Y 0 DO 4294967296 STEP 140 ;",
            "TRACKS X 0 DO 10 STEP -140 ;",
            "TRACKS Y 0 DO 10 STEP 0 ;",
        ] {
            let err = parse_def(src, &t).expect_err(src);
            assert!(err.line > 0, "`{src}`: {err}");
        }
        // The largest count still parses, as does a single-site row
        // with a zero step.
        for src in [
            "DESIGN x ;\nTRACKS X 0 DO 4294967295 STEP 140 ;\nEND DESIGN",
            "DESIGN x ;\nROW r core 0 0 N DO 1 BY 1 STEP 0 0 ;\nEND DESIGN",
        ] {
            assert!(parse_def(src, &t).is_ok(), "`{src}` must parse");
        }
    }

    #[test]
    fn header_counts_presize_without_trusting_garbage() {
        let t = tech();
        // A count header far larger than the actual entries (and larger
        // than the reserve cap) must not blow up the parse.
        let src = "DESIGN x ;\nCOMPONENTS 99999999 ;\n - u1 INVX1 + PLACED ( 0 0 ) N ;\nEND COMPONENTS\nEND DESIGN";
        let d = parse_def(src, &t).unwrap();
        assert_eq!(d.components().len(), 1);
    }
}
