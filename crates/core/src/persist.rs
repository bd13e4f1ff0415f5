//! The two persisted formats: the analysis store and the ECO journal.
//!
//! [`AnalysisCache`] is the one store of intra-cell analysis. Steps 1–2
//! depend only on a unique instance's *signature* — master, orientation
//! and track phases, the paper's unique-instance key — so the store keeps
//! each signature's access points, Table II tallies, reject histograms
//! and patterns, and any placement that repeats a signature restores them
//! instead of recomputing. The one store backs in-process reuse (the
//! resident daemon's ECOs) and, backed by a directory, `--checkpoint DIR
//! --resume`: completed items are written after each phase (atomic
//! tmp+rename, see [`write_atomic`]), so a cut, killed or crashed run
//! resumes as an ordinary cache hit. The format is line-oriented text
//! (like LEF/DEF, greppable and diff-friendly), sealed by a versioned,
//! checksummed header and stamped with a fingerprint of the inputs steps
//! 1–2 read besides the signature ([`input_stamp`]):
//!
//! ```text
//! PAO-CACHE v4 fnv1a=<16 hex>
//! STAMP <16 hex>
//! ENTRY master=BUFX1 orient=N phases=0,140
//! REP 1200 -400
//! TALLY 0 1 2
//! PIN 0 1
//! AP -120 4500 0 2 0 vias=3,1 planar=ES
//! PIN 1 0
//! REJECTS 0/1/3=4 1/255/255=2
//! ORDER 0
//! PATTERN cost=5 validated=true choice=0
//! END
//! ```
//!
//! `REP` is the representative's location (the access points' frame) and
//! `TALLY` its dirty / without / off-track counts. `REJECTS pin/rule/
//! subcheck=count` is present when step 1 ran with the decision ledger on;
//! `ORDER` and the `PATTERN` lines once the instance's pattern item
//! finished.
//!
//! [`EcoJournal`] is the daemon's write-ahead log of accepted ECO move
//! batches, in its own append-only format.

use crate::apgen::{AccessPoint, PlanarDir};
use crate::budget::PhaseFractions;
use crate::coord::CoordType;
use crate::error::PaoError;
use crate::oracle::{ApTally, PaoConfig, UniqueInstanceAccess};
use crate::pattern::AccessPattern;
use crate::unique::UniqueInstance;
use pao_design::Design;
use pao_geom::{Dbu, Orient, Point};
use pao_tech::{LayerId, Symbol, Tech, ViaId};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Error produced while loading a persisted cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadCacheError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line number.
    pub line: usize,
}

impl fmt::Display for LoadCacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache load error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for LoadCacheError {}

const MAGIC: &str = "PAO-CACHE v4";

/// The store's file in a checkpoint directory.
const STORE_FILE: &str = "analysis.ckpt";

fn coord_code(t: CoordType) -> u8 {
    t.cost() as u8
}

fn coord_from(c: u8) -> Option<CoordType> {
    Some(match c {
        0 => CoordType::OnTrack,
        1 => CoordType::HalfTrack,
        2 => CoordType::ShapeCenter,
        3 => CoordType::EnclosureBoundary,
        _ => return None,
    })
}

fn planar_code(d: PlanarDir) -> char {
    match d {
        PlanarDir::East => 'E',
        PlanarDir::West => 'W',
        PlanarDir::North => 'N',
        PlanarDir::South => 'S',
    }
}

fn planar_from(c: char) -> Option<PlanarDir> {
    Some(match c {
        'E' => PlanarDir::East,
        'W' => PlanarDir::West,
        'N' => PlanarDir::North,
        'S' => PlanarDir::South,
        _ => return None,
    })
}

/// `a,b,c`, or `-` for an empty list.
fn join<T: fmt::Display>(items: &[T]) -> String {
    if items.is_empty() {
        return "-".to_owned();
    }
    items.iter().map(T::to_string).collect::<Vec<_>>().join(",")
}

/// Parses a list written by [`join`]. Every item parses straight into its
/// own type, so an out-of-range value is `None`, never a wrapped number.
fn list<T: FromStr>(s: &str) -> Option<Vec<T>> {
    if s == "-" {
        return Some(Vec::new());
    }
    s.split(',').map(|t| t.parse().ok()).collect()
}

/// Parses whitespace-separated numbers, each into its own type.
fn nums<T: FromStr>(s: &str) -> Option<Vec<T>> {
    s.split_whitespace().map(|t| t.parse().ok()).collect()
}

/// Serializes one access point as a single line.
pub fn write_ap(out: &mut String, ap: &AccessPoint) {
    let vias: Vec<u32> = ap.vias.iter().map(|v| v.0).collect();
    let planar: String = ap.planar.iter().map(|&d| planar_code(d)).collect();
    let _ = writeln!(
        out,
        "AP {} {} {} {} {} vias={} planar={}",
        ap.pos.x,
        ap.pos.y,
        ap.layer.0,
        coord_code(ap.pref_type),
        coord_code(ap.nonpref_type),
        join(&vias),
        if planar.is_empty() { "-" } else { &planar },
    );
}

/// Parses a line produced by [`write_ap`]. Each field parses into its own
/// type: a negative layer or a coordinate-type code past `u8` is an
/// error, not a wrapped value.
///
/// # Errors
///
/// Returns [`LoadCacheError`] with the offending line on malformed input.
pub fn parse_ap(line: &str, lineno: usize) -> Result<AccessPoint, LoadCacheError> {
    let err = |m: &str| LoadCacheError {
        message: m.to_owned(),
        line: lineno,
    };
    let mut it = line.split_whitespace();
    if it.next() != Some("AP") {
        return Err(err("expected AP line"));
    }
    let mut field = |name: &str| it.next().ok_or_else(|| err(&format!("missing {name}")));
    let bad = |name: &str| err(&format!("bad {name}"));
    let x: Dbu = field("x")?.parse().map_err(|_| bad("x"))?;
    let y: Dbu = field("y")?.parse().map_err(|_| bad("y"))?;
    let layer: u32 = field("layer")?.parse().map_err(|_| bad("layer"))?;
    let mut coord = |name: &str| {
        field(name)?
            .parse()
            .ok()
            .and_then(coord_from)
            .ok_or_else(|| bad(name))
    };
    let pref_type = coord("pref type")?;
    let nonpref_type = coord("nonpref type")?;
    let vias: Vec<u32> = field("vias")?
        .strip_prefix("vias=")
        .and_then(list)
        .ok_or_else(|| bad("vias"))?;
    let planar = match field("planar")?.strip_prefix("planar=") {
        Some("-") => Some(Vec::new()),
        Some(codes) => codes.chars().map(planar_from).collect(),
        None => None,
    }
    .ok_or_else(|| bad("planar"))?;
    Ok(AccessPoint {
        pos: Point::new(x, y),
        layer: LayerId(layer),
        pref_type,
        nonpref_type,
        vias: vias.into_iter().map(ViaId).collect(),
        planar,
    })
}

/// Serializes one access pattern as a single line.
pub fn write_pattern(out: &mut String, p: &AccessPattern) {
    let _ = writeln!(
        out,
        "PATTERN cost={} validated={} choice={}",
        p.cost,
        p.validated,
        join(&p.choice),
    );
}

/// Parses a line produced by [`write_pattern`].
///
/// # Errors
///
/// Returns [`LoadCacheError`] with the offending line on malformed input.
pub fn parse_pattern(line: &str, lineno: usize) -> Result<AccessPattern, LoadCacheError> {
    let err = |m: &str| LoadCacheError {
        message: m.to_owned(),
        line: lineno,
    };
    let mut it = line.split_whitespace();
    if it.next() != Some("PATTERN") {
        return Err(err("expected PATTERN line"));
    }
    let cost = it
        .next()
        .and_then(|t| t.strip_prefix("cost="))
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err("bad cost"))?;
    let validated = it
        .next()
        .and_then(|t| t.strip_prefix("validated="))
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err("bad validated"))?;
    let choice = it
        .next()
        .and_then(|t| t.strip_prefix("choice="))
        .and_then(list)
        .ok_or_else(|| err("bad choice"))?;
    Ok(AccessPattern {
        choice,
        cost,
        validated,
    })
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a (64-bit) state `h`.
fn fnv_fold(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a (64-bit) over the serialized cache body. Not cryptographic —
/// it guards against truncation and accidental corruption, exactly the
/// failure modes of half-written files in an interrupted optimizer loop.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv_fold(FNV_BASIS, bytes)
}

/// Prepends the versioned, checksummed header (`PAO-CACHE v4
/// fnv1a=<16 hex>`) to a serialized store body.
pub(crate) fn seal(body: &str) -> String {
    format!("{MAGIC} fnv1a={:016x}\n{body}", fnv1a(body.as_bytes()))
}

/// Validates the header line (version and body checksum) of a persisted
/// cache and returns the body that follows it. Any mismatch — wrong
/// magic, old version, bad or missing checksum — is a [`LoadCacheError`];
/// callers treat that as cache-miss-and-rebuild, never a crash.
pub(crate) fn open(text: &str) -> Result<&str, LoadCacheError> {
    let (header, body) = text.split_once('\n').unwrap_or((text, ""));
    let err = |message: String| LoadCacheError { message, line: 1 };
    let rest = header.trim_end().strip_prefix(MAGIC).ok_or_else(|| {
        let shown: String = header.chars().take(40).collect();
        err(format!("expected `{MAGIC}` header, found `{shown}`"))
    })?;
    let sum = rest
        .trim()
        .strip_prefix("fnv1a=")
        .ok_or_else(|| err("header missing fnv1a= checksum".to_owned()))?;
    let expected =
        u64::from_str_radix(sum, 16).map_err(|_| err(format!("bad checksum `{sum}`")))?;
    let got = fnv1a(body.as_bytes());
    if got != expected {
        return Err(err(format!(
            "checksum mismatch: header fnv1a={expected:016x}, body fnv1a={got:016x} (truncated or corrupt cache)"
        )));
    }
    Ok(body)
}

/// Streams formatted text into an FNV-1a state.
struct FnvWriter(u64);

impl fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv_fold(self.0, s.as_bytes());
        Ok(())
    }
}

/// Fingerprint of every input steps 1–2 read besides a unique instance's
/// signature: the LEF (layers, vias, sites, masters), the access point
/// and pattern generation settings, and the design's track patterns.
/// Thread count, repair rounds and selection tuning never change a stored
/// result, so they are left out. A store stamped with other inputs is
/// rejected whole ([`AnalysisCache::bind`]).
#[must_use]
pub fn input_stamp(tech: &Tech, design: &Design, config: &PaoConfig) -> u64 {
    let mut h = FnvWriter(FNV_BASIS);
    let _ = write!(
        h,
        "{} {} {:?} {:?} {:?} {:?} {:?} {:?} {:?}",
        tech.dbu_per_micron,
        tech.manufacturing_grid,
        tech.layers(),
        tech.vias(),
        tech.sites(),
        tech.macros(),
        config.apgen,
        config.pattern,
        design.tracks,
    );
    h.0
}

/// Writes `text` to `path` atomically: the bytes go to a sibling `.tmp`
/// file which is then renamed over the target, so a reader (or a crash
/// mid-write) never observes a half-written file — the checkpoint either
/// has the previous complete state or the new one.
///
/// # Errors
///
/// Any underlying filesystem error.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Removes stale `*.tmp` orphans left in `dir` by a crash between
/// [`write_atomic`]'s write and rename. Run on every store open: the tmp
/// file is by definition incomplete (the rename never happened), so it is
/// garbage — but without this sweep it survives forever, and a daemon
/// cycling checkpoints accumulates one orphan per crash. Each removal
/// bumps the `cache.tmp_reclaimed` counter; removal errors are ignored
/// (the next open retries).
fn sweep_stale_tmp(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut reclaimed = 0usize;
    for entry in entries.flatten() {
        let path = entry.path();
        let is_tmp = path.extension().is_some_and(|ext| ext == "tmp");
        if is_tmp && path.is_file() && std::fs::remove_file(&path).is_ok() {
            reclaimed += 1;
        }
    }
    if reclaimed > 0 {
        pao_obs::counter_add("cache.tmp_reclaimed", reclaimed as u64);
    }
    reclaimed
}

/// A stored analysis's key: master, orientation and track phases.
pub(crate) type Signature = (Symbol, Orient, Vec<Dbu>);

/// The signature of a unique instance.
pub(crate) fn signature_of(info: &UniqueInstance) -> Signature {
    (info.master, info.orient, info.phases.clone())
}

/// One pin's rejected candidates under one attribution: `(rule code,
/// sub-check code, count)`, with the codes of [`pao_drc::RuleKind`] and
/// [`pao_drc::SubCheck`], or [`pao_obs::ledger::NO_CODE`] for a candidate
/// that had no via to check.
pub(crate) type RejectTally = (u8, u8, u64);

/// Step 2's output for one unique instance: pin order and patterns.
pub(crate) type Step2 = (Vec<usize>, Vec<AccessPattern>);

/// One signature's stored analysis.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    /// The representative's location when step 1 ran: the access points'
    /// frame.
    pub(crate) rep: Point,
    /// Table II tallies of step 1.
    pub(crate) tally: ApTally,
    /// Access points per master pin.
    pub(crate) pin_aps: Vec<Vec<AccessPoint>>,
    /// Per-pin reject tallies in code order, when step 1 ran with the
    /// decision ledger on.
    pub(crate) rejects: Option<Vec<Vec<RejectTally>>>,
    /// Pin order and patterns, once the pattern item finished.
    pub(crate) patterns: Option<Step2>,
}

impl Entry {
    /// The stored step 1 for `info`, whose representative sits at `rep`:
    /// the access points shift by how far the representative moved.
    pub(crate) fn restore(&self, info: UniqueInstance, rep: Point) -> UniqueInstanceAccess {
        let delta = rep - self.rep;
        let mut pin_aps = self.pin_aps.clone();
        for ap in pin_aps.iter_mut().flatten() {
            ap.pos += delta;
        }
        UniqueInstanceAccess {
            info,
            pin_aps,
            pin_order: Vec::new(),
            patterns: Vec::new(),
            tally: self.tally,
        }
    }
}

/// The signature-keyed store of intra-cell analysis (see the module
/// docs). Attached to a run through
/// [`RunBudget::store`](crate::budget::RunBudget::store), it restores
/// steps 1–2 of every unique instance whose signature it holds — an
/// apgen-only entry restores step 1 and the pattern DP runs — and takes
/// every completed apgen and pattern item after its phase.
///
/// ```no_run
/// # let tech: pao_tech::Tech = unimplemented!();
/// # let design: pao_design::Design = unimplemented!();
/// use pao_core::{AnalysisCache, PinAccessOracle, RunBudget};
///
/// let oracle = PinAccessOracle::new();
/// let mut store = AnalysisCache::new();
/// let budget = RunBudget { store: Some(&mut store), ..RunBudget::unlimited() };
/// let first = oracle.analyze_with_budget(&tech, &design, budget);
/// // … move some cells; repeated signatures are restored, not recomputed:
/// let budget = RunBudget { store: Some(&mut store), ..RunBudget::unlimited() };
/// let second = oracle.analyze_with_budget(&tech, &design, budget);
/// assert!(store.stats().0 > 0);
/// # let _ = (first, second);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AnalysisCache {
    entries: HashMap<Signature, Entry>,
    /// [`input_stamp`] of the inputs the entries were computed from.
    stamp: Option<u64>,
    /// The checkpoint directory the store is written to after each phase.
    dir: Option<PathBuf>,
    /// Phase fractions of the last finished run in `dir`.
    fractions: Option<PhaseFractions>,
    hits: usize,
    misses: usize,
}

impl AnalysisCache {
    /// Creates an empty in-memory store.
    #[must_use]
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// Starts a fresh store in checkpoint directory `dir` (created if
    /// missing). A stale store from an earlier run is removed — a
    /// non-resume run must never silently reuse it — but the phase
    /// history survives: it seeds the budget allocator.
    ///
    /// # Errors
    ///
    /// Any underlying filesystem error.
    pub fn create(dir: impl Into<PathBuf>) -> std::io::Result<AnalysisCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        sweep_stale_tmp(&dir);
        match std::fs::remove_file(dir.join(STORE_FILE)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        Ok(AnalysisCache {
            fractions: load_history(&dir),
            dir: Some(dir),
            ..AnalysisCache::default()
        })
    }

    /// Reopens the store in checkpoint directory `dir`, checking every id
    /// against `tech`. A missing file is an empty store. A corrupt,
    /// legacy-version or out-of-range one is *rejected*: the store comes
    /// back empty with the typed reason beside it (and `cache.rejected`
    /// counted), and the run recomputes what it needs.
    ///
    /// # Errors
    ///
    /// Only filesystem errors creating the directory; data problems come
    /// back as the [`PaoError`], not as failures.
    pub fn resume(
        dir: impl Into<PathBuf>,
        tech: &Tech,
    ) -> std::io::Result<(AnalysisCache, Option<PaoError>)> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        sweep_stale_tmp(&dir);
        let loaded = std::fs::read_to_string(dir.join(STORE_FILE))
            .map_or(Ok(AnalysisCache::new()), |text| {
                AnalysisCache::load_from_string(&text, tech)
            });
        let (mut store, rejected) = match loaded {
            Ok(store) => (store, None),
            Err(e) => {
                pao_obs::counter_add("cache.rejected", 1);
                (AnalysisCache::new(), Some(PaoError::from(e)))
            }
        };
        store.fractions = load_history(&dir);
        store.dir = Some(dir);
        Ok((store, rejected))
    }

    /// Number of stored signatures.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is stored yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` over every run the store was attached to: a hit
    /// is a unique instance restored whole, a miss one that ran apgen or
    /// pattern work.
    #[must_use]
    pub fn stats(&self) -> (usize, usize) {
        (self.hits, self.misses)
    }

    /// Resets the hit/miss counters, e.g. after a discarded run.
    pub(crate) fn restore_stats(&mut self, (hits, misses): (usize, usize)) {
        self.hits = hits;
        self.misses = misses;
    }

    /// Counts `hits` unique instances restored whole and `misses` that
    /// ran apgen or pattern work.
    pub(crate) fn count(&mut self, hits: usize, misses: usize) {
        self.hits += hits;
        self.misses += misses;
        pao_obs::counter_add("cache.hits", hits as u64);
        pao_obs::counter_add("cache.misses", misses as u64);
    }

    /// Binds the store to the inputs of one analysis, their
    /// [`input_stamp`]. Entries computed from other inputs are dropped
    /// whole and `cache.rejected` is counted; the run then recomputes
    /// them.
    ///
    /// # Errors
    ///
    /// [`PaoError::Cache`] naming both stamps when entries were dropped.
    pub fn bind(&mut self, stamp: u64) -> Result<(), PaoError> {
        let old = self.stamp.replace(stamp);
        if old == Some(stamp) || self.entries.is_empty() {
            return Ok(());
        }
        self.entries.clear();
        pao_obs::counter_add("cache.rejected", 1);
        let old = old.map_or("none".to_owned(), |s| format!("{s:016x}"));
        Err(PaoError::from(LoadCacheError {
            message: format!(
                "store stamp {old} does not match this run's inputs {stamp:016x} \
                 (LEF, apgen/pattern settings or track patterns changed)"
            ),
            line: 2,
        }))
    }

    /// The entry for `sig`, if stored.
    pub(crate) fn get(&self, sig: &Signature) -> Option<&Entry> {
        self.entries.get(sig)
    }

    /// The entry for `sig` when it may stand in for step 1: with the
    /// decision ledger on (`ledger`), only one that kept its reject
    /// histograms.
    pub(crate) fn step1(&self, sig: &Signature, ledger: bool) -> Option<&Entry> {
        self.entries
            .get(sig)
            .filter(|e| !ledger || e.rejects.is_some())
    }

    /// Stores a completed step 1 for `sig`, replacing any older entry.
    pub(crate) fn insert(&mut self, sig: Signature, entry: Entry) {
        self.entries.insert(sig, entry);
    }

    /// Attaches a completed step 2 to the entry for `sig`, which holds
    /// the access points it was computed from.
    pub(crate) fn attach_patterns(
        &mut self,
        sig: &Signature,
        order: Vec<usize>,
        patterns: Vec<AccessPattern>,
    ) {
        if let Some(e) = self.entries.get_mut(sig) {
            e.patterns = Some((order, patterns));
        }
    }

    /// Pin `pin`'s reject tallies under `sig` (empty when none were kept).
    pub(crate) fn pin_rejects(&self, sig: &Signature, pin: usize) -> &[RejectTally] {
        self.entries
            .get(sig)
            .and_then(|e| e.rejects.as_ref()?.get(pin))
            .map_or(&[], Vec::as_slice)
    }

    /// A copy that lives in memory only: nothing it stores reaches the
    /// checkpoint directory.
    pub(crate) fn detached(&self) -> AnalysisCache {
        AnalysisCache {
            dir: None,
            ..self.clone()
        }
    }

    /// Writes the store to its checkpoint directory, atomically; an
    /// in-memory store writes nothing.
    pub(crate) fn save(&self) -> std::io::Result<()> {
        match &self.dir {
            Some(dir) => write_atomic(&dir.join(STORE_FILE), &self.save_to_string()),
            None => Ok(()),
        }
    }

    /// The phase fractions measured by the last finished run in the
    /// checkpoint directory, if any.
    #[must_use]
    pub fn fractions(&self) -> Option<PhaseFractions> {
        self.fractions
    }

    /// Remembers `fractions` and, for a directory store, persists them
    /// (atomically) as the directory's history.
    pub(crate) fn save_fractions(&mut self, fractions: PhaseFractions) -> std::io::Result<()> {
        self.fractions = Some(fractions);
        match &self.dir {
            Some(dir) => write_atomic(
                &dir.join("history.ckpt"),
                &seal(&format!("{}\n", fractions.to_line())),
            ),
            None => Ok(()),
        }
    }

    /// Serializes the store in the sealed `PAO-CACHE v4` format (see the
    /// module docs), entries sorted by signature.
    #[must_use]
    pub fn save_to_string(&self) -> String {
        let mut out = String::new();
        let stamp = self.stamp.map_or("-".to_owned(), |s| format!("{s:016x}"));
        let _ = writeln!(out, "STAMP {stamp}");
        let mut sigs: Vec<&Signature> = self.entries.keys().collect();
        // Symbols order by interning history, not text — sort on the name.
        sigs.sort_by(|a, b| (a.0.as_str(), a.1, &a.2).cmp(&(b.0.as_str(), b.1, &b.2)));
        for sig in sigs {
            let e = &self.entries[sig];
            let _ = writeln!(
                out,
                "ENTRY master={} orient={} phases={}",
                sig.0,
                sig.1,
                join(&sig.2)
            );
            let _ = writeln!(out, "REP {} {}", e.rep.x, e.rep.y);
            let t = &e.tally;
            let _ = writeln!(out, "TALLY {} {} {}", t.dirty, t.without, t.off_track);
            for (pi, aps) in e.pin_aps.iter().enumerate() {
                let _ = writeln!(out, "PIN {pi} {}", aps.len());
                for ap in aps {
                    write_ap(&mut out, ap);
                }
            }
            if let Some(rejects) = &e.rejects {
                out.push_str("REJECTS");
                let start = out.len();
                for (pi, tallies) in rejects.iter().enumerate() {
                    for (rule, sub, n) in tallies {
                        let _ = write!(out, " {pi}/{rule}/{sub}={n}");
                    }
                }
                if out.len() == start {
                    out.push_str(" -");
                }
                out.push('\n');
            }
            if let Some((order, patterns)) = &e.patterns {
                let _ = writeln!(out, "ORDER {}", join(order));
                for p in patterns {
                    write_pattern(&mut out, p);
                }
            }
            out.push_str("END\n");
        }
        seal(&out)
    }

    /// Loads a store saved by [`save_to_string`](AnalysisCache::save_to_string),
    /// checking it against `tech`: every master must exist, and every
    /// layer and via id, pin index, pin-order entry and pattern choice
    /// must be in range for the tech and the entry's master.
    ///
    /// # Errors
    ///
    /// Returns [`LoadCacheError`] on a bad header (wrong version, missing
    /// or mismatching checksum), a malformed line or an out-of-range
    /// value. Line numbers are 1-based whole-file positions (the body
    /// starts on line 2, after the header).
    pub fn load_from_string(text: &str, tech: &Tech) -> Result<AnalysisCache, LoadCacheError> {
        let body = open(text)?;
        let err = |m: &str, n: usize| LoadCacheError {
            message: m.to_owned(),
            line: n + 2,
        };
        let mut lines = body.lines().enumerate();
        let mut next = |what: &str, after: usize| {
            lines
                .next()
                .map(|(n, l)| (n, l.trim()))
                .ok_or_else(|| err(&format!("missing {what}"), after))
        };
        let (_, stamp) = next("STAMP", 0)?;
        let stamp = match stamp.strip_prefix("STAMP ") {
            Some("-") => None,
            Some(s) => Some(u64::from_str_radix(s, 16).map_err(|_| err("bad STAMP", 0))?),
            None => return Err(err("expected STAMP", 0)),
        };
        let mut cache = AnalysisCache {
            stamp,
            ..AnalysisCache::default()
        };
        let in_tech = |ap: &AccessPoint| {
            ap.layer.index() < tech.layers().len()
                && ap.vias.iter().all(|v| v.index() < tech.vias().len())
        };
        while let Ok((n, line)) = next("ENTRY", 0) {
            if line.is_empty() {
                continue;
            }
            let rest = line
                .strip_prefix("ENTRY ")
                .ok_or_else(|| err("expected ENTRY", n))?;
            let (mut master, mut orient, mut phases) = (None, None, None);
            for tok in rest.split_whitespace() {
                match tok.split_once('=') {
                    Some(("master", v)) => master = tech.macro_by_name(v),
                    Some(("orient", v)) => orient = v.parse::<Orient>().ok(),
                    Some(("phases", v)) => phases = list::<Dbu>(v),
                    _ => {}
                }
            }
            let master = master.ok_or_else(|| err("ENTRY names no master of this LEF", n))?;
            let orient = orient.ok_or_else(|| err("ENTRY missing orient", n))?;
            let phases = phases.ok_or_else(|| err("ENTRY missing phases", n))?;
            let (rn, rep) = next("REP", n)?;
            let rep = rep
                .strip_prefix("REP ")
                .and_then(nums::<Dbu>)
                .filter(|xy| xy.len() == 2)
                .map(|xy| Point::new(xy[0], xy[1]))
                .ok_or_else(|| err("bad REP", rn))?;
            let (tn, tally) = next("TALLY", rn)?;
            let tally = tally
                .strip_prefix("TALLY ")
                .and_then(nums::<usize>)
                .filter(|t| t.len() == 3)
                .map(|t| ApTally {
                    dirty: t[0],
                    without: t[1],
                    off_track: t[2],
                })
                .ok_or_else(|| err("bad TALLY", tn))?;
            let pins = master.pins.len();
            let mut entry = Entry {
                rep,
                tally,
                pin_aps: vec![Vec::new(); pins],
                rejects: None,
                patterns: None,
            };
            loop {
                let (bn, body) = next("END", n)?;
                let (kw, rest) = body.split_once(' ').unwrap_or((body, ""));
                match kw {
                    "END" => break,
                    "PIN" => {
                        let pc = nums::<usize>(rest)
                            .filter(|pc| pc.len() == 2 && pc[0] < pins)
                            .ok_or_else(|| err("bad PIN", bn))?;
                        for _ in 0..pc[1] {
                            let (an, ap_line) = next("AP line", bn)?;
                            let ap = parse_ap(ap_line, an + 2)?;
                            if !in_tech(&ap) {
                                return Err(err("AP layer or via id out of range", an));
                            }
                            entry.pin_aps[pc[0]].push(ap);
                        }
                    }
                    "REJECTS" => {
                        let rejects =
                            parse_rejects(rest, pins).ok_or_else(|| err("bad REJECTS", bn))?;
                        entry.rejects = Some(rejects);
                    }
                    "ORDER" => {
                        let order = list::<usize>(rest)
                            .filter(|o| o.iter().all(|&p| p < pins))
                            .ok_or_else(|| err("bad ORDER", bn))?;
                        entry.patterns = Some((order, Vec::new()));
                    }
                    "PATTERN" => {
                        let p = parse_pattern(body, bn + 2)?;
                        let (order, patterns) = entry
                            .patterns
                            .as_mut()
                            .ok_or_else(|| err("PATTERN before ORDER", bn))?;
                        let in_range = p.choice.len() == order.len()
                            && p.choice
                                .iter()
                                .zip(order.iter())
                                .all(|(&c, &pin)| c < entry.pin_aps[pin].len());
                        if !in_range {
                            return Err(err("PATTERN choice out of range", bn));
                        }
                        patterns.push(p);
                    }
                    _ => return Err(err("unexpected line in ENTRY", bn)),
                }
            }
            cache.entries.insert((master.name, orient, phases), entry);
        }
        Ok(cache)
    }
}

/// Parses a `REJECTS` line's body (`pin/rule/subcheck=count …`, or `-`)
/// into per-pin tallies for a master with `pins` pins.
fn parse_rejects(rest: &str, pins: usize) -> Option<Vec<Vec<RejectTally>>> {
    let mut out = vec![Vec::new(); pins];
    if rest == "-" {
        return Some(out);
    }
    for tok in rest.split_whitespace() {
        let (key, count) = tok.split_once('=')?;
        let mut it = key.split('/');
        let pin: usize = it.next()?.parse().ok()?;
        let rule: u8 = it.next()?.parse().ok()?;
        let sub: u8 = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        out.get_mut(pin)?.push((rule, sub, count.parse().ok()?));
    }
    Some(out)
}

/// Loads the fraction history of checkpoint directory `dir`, degrading
/// to `None` on any problem (a corrupt history only costs allocator
/// accuracy, never correctness).
fn load_history(dir: &Path) -> Option<PhaseFractions> {
    let text = std::fs::read_to_string(dir.join("history.ckpt")).ok()?;
    let body = open(&text).ok()?;
    body.lines().find_map(PhaseFractions::parse_line)
}

/// One recovered entry of the [`EcoJournal`]: a batch of moves that was
/// accepted (durably recorded) by a previous daemon incarnation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Monotone journal sequence number (1-based).
    pub seq: u64,
    /// The recorded move batch, in request order.
    pub moves: Vec<crate::service::EcoMove>,
}

/// Crash-safe write-ahead log for `eco_update` batches (the durability
/// half of the `pao serve` hardening contract, format `PAO-JOURNAL v3`).
///
/// Unlike the checkpoint files — whole-file seal + atomic rename — the
/// journal is *append-only*: each accepted ECO batch becomes one entry
/// written and fsynced **before** its re-analysis runs, so a daemon
/// killed at any instant can replay the journal on restart and land
/// bit-identical to a twin that never died. Every entry carries its own
/// FNV-1a checksum over its move lines:
///
/// ```text
/// PAO-JOURNAL v3
/// BEGIN seq=3 moves=2 fnv1a=00a1b2c3d4e5f607
/// M A 1200 3400 u17
/// M D -40 0 corner cell with spaces
/// COMMIT 3
/// REVOKE 3
/// ```
///
/// `M A x y inst` is an absolute move, `M D dx dy inst` a relative one
/// (the instance name is the final field and may contain spaces). A
/// `COMMIT` whose sequence matches closes the entry; a kill mid-append
/// leaves a torn tail that fails its checksum or lacks its `COMMIT` and
/// is discarded on replay — together with everything after it, because
/// entries only replay in order. `REVOKE seq` marks an entry that was
/// recorded but then *not* applied (its re-analysis degraded and the old
/// snapshot kept serving); replay skips revoked entries.
#[derive(Debug)]
pub struct EcoJournal {
    path: PathBuf,
    file: std::fs::File,
    next_seq: u64,
    entries: u64,
}

const JOURNAL_MAGIC: &str = "PAO-JOURNAL v3";

/// Serializes one move as an `M` line (instance name last, so names with
/// spaces survive the round trip).
fn write_move(out: &mut String, m: &crate::service::EcoMove) {
    use crate::service::EcoTarget;
    match m.target {
        EcoTarget::Abs(p) => {
            let _ = writeln!(out, "M A {} {} {}", p.x, p.y, m.inst);
        }
        EcoTarget::Delta(d) => {
            let _ = writeln!(out, "M D {} {} {}", d.x, d.y, m.inst);
        }
    }
}

/// Parses a line produced by [`write_move`].
fn parse_move(line: &str) -> Option<crate::service::EcoMove> {
    use crate::service::{EcoMove, EcoTarget};
    let mut it = line.splitn(3, ' ');
    if it.next() != Some("M") {
        return None;
    }
    let kind = it.next()?;
    let rest = it.next()?;
    // `x y inst…`: split the two coordinates off the front, keep the rest
    // verbatim as the instance name.
    let mut it = rest.splitn(2, ' ');
    let x: i64 = it.next()?.parse().ok()?;
    let tail = it.next()?;
    let mut it = tail.splitn(2, ' ');
    let y: i64 = it.next()?.parse().ok()?;
    let inst = it.next()?.to_owned();
    let p = Point::new(x, y);
    let target = match kind {
        "A" => EcoTarget::Abs(p),
        "D" => EcoTarget::Delta(p),
        _ => return None,
    };
    Some(EcoMove { inst, target })
}

impl EcoJournal {
    /// Starts a fresh journal at `path`, truncating whatever was there (a
    /// non-resume daemon start must never replay stale entries — same
    /// rule as [`AnalysisCache::create`]).
    ///
    /// # Errors
    ///
    /// Any underlying filesystem error.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<EcoJournal> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file = std::fs::File::create(&path)?;
        {
            use std::io::Write as _;
            writeln!(file, "{JOURNAL_MAGIC}")?;
            file.sync_all()?;
        }
        Ok(EcoJournal {
            path,
            file,
            next_seq: 1,
            entries: 0,
        })
    }

    /// Reopens the journal at `path` and recovers its committed entries
    /// in order: revoked entries are dropped, and the first torn or
    /// corrupt record ends recovery (everything after it is discarded,
    /// reported through the returned [`LoadCacheError`] — order matters,
    /// so nothing past a bad record may replay). A missing file starts an
    /// empty journal.
    ///
    /// # Errors
    ///
    /// Only filesystem errors; data problems come back as the optional
    /// [`LoadCacheError`] alongside the recovered prefix.
    pub fn resume(
        path: impl Into<PathBuf>,
    ) -> std::io::Result<(EcoJournal, Vec<JournalEntry>, Option<LoadCacheError>)> {
        let path = path.into();
        if !path.exists() {
            let journal = EcoJournal::create(&path)?;
            return Ok((journal, Vec::new(), None));
        }
        let bytes = std::fs::read(&path)?;
        let (entries, truncated, warning) = parse_journal(&bytes);
        if truncated {
            // Drop the torn tail on disk too, so the next append extends a
            // well-formed file instead of burying garbage mid-journal.
            let mut body = format!("{JOURNAL_MAGIC}\n");
            for e in &entries {
                let mut moves = String::new();
                for m in &e.moves {
                    write_move(&mut moves, m);
                }
                body.push_str(&entry_text(e.seq, e.moves.len(), &moves));
            }
            std::fs::write(&path, &body)?;
        }
        let file = std::fs::OpenOptions::new().append(true).open(&path)?;
        let next_seq = entries.iter().map(|e| e.seq).max().unwrap_or(0) + 1;
        let journal = EcoJournal {
            path,
            file,
            next_seq,
            entries: entries.len() as u64,
        };
        Ok((journal, entries, warning))
    }

    /// The journal file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Committed (non-revoked at last count) entries written or recovered
    /// through this handle.
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Durably records one accepted move batch *before* its analysis runs
    /// and returns the entry's sequence number. The entry is fsynced: when
    /// this returns `Ok`, a kill at any later instant leaves the batch
    /// replayable.
    ///
    /// # Errors
    ///
    /// Any underlying filesystem error — the caller must then reject the
    /// ECO (no durability, no apply).
    pub fn append(&mut self, moves: &[crate::service::EcoMove]) -> std::io::Result<u64> {
        use std::io::Write as _;
        let seq = self.next_seq;
        let mut body = String::new();
        for m in moves {
            write_move(&mut body, m);
        }
        let text = entry_text(seq, moves.len(), &body);
        self.file.write_all(text.as_bytes())?;
        self.file.sync_data()?;
        self.next_seq += 1;
        self.entries += 1;
        Ok(seq)
    }

    /// Marks entry `seq` as not-applied (its re-analysis degraded; the
    /// previous snapshot kept serving). Replay skips revoked entries.
    ///
    /// # Errors
    ///
    /// Any underlying filesystem error.
    pub fn revoke(&mut self, seq: u64) -> std::io::Result<()> {
        use std::io::Write as _;
        writeln!(self.file, "REVOKE {seq}")?;
        self.file.sync_data()?;
        self.entries = self.entries.saturating_sub(1);
        Ok(())
    }
}

/// One serialized journal entry (header + move lines + commit).
fn entry_text(seq: u64, moves: usize, body: &str) -> String {
    format!(
        "BEGIN seq={seq} moves={moves} fnv1a={:016x}\n{body}COMMIT {seq}\n",
        fnv1a(body.as_bytes())
    )
}

/// Recovers `(entries, tail_truncated, warning)` from journal bytes.
/// Entries after the first malformed record are discarded.
fn parse_journal(bytes: &[u8]) -> (Vec<JournalEntry>, bool, Option<LoadCacheError>) {
    let mut entries: Vec<JournalEntry> = Vec::new();
    match read_entries(bytes, &mut entries) {
        Ok(()) => (entries, false, None),
        Err(warning) => (entries, true, Some(warning)),
    }
}

/// Appends the journal's entries to `entries` in order, up to the first
/// malformed record, which comes back as the warning. Lines decode one
/// at a time, so a line that is not UTF-8 (a tail torn inside a
/// multi-byte instance name) is one more malformed record.
fn read_entries(bytes: &[u8], entries: &mut Vec<JournalEntry>) -> Result<(), LoadCacheError> {
    let bad = |line: usize, message: String| LoadCacheError {
        message: format!("journal tail discarded: {message}"),
        line,
    };
    if bytes.is_empty() {
        return Err(bad(1, "empty journal".to_owned()));
    }
    // Split like `str::lines`: no empty line after the final newline.
    let body = bytes.strip_suffix(b"\n").unwrap_or(bytes);
    let mut lines = body.split(|&b| b == b'\n').enumerate().map(|(n, line)| {
        std::str::from_utf8(line)
            .map(|line| (n + 1, line))
            .map_err(|_| bad(n + 1, "line is not valid UTF-8".to_owned()))
    });
    let Some((_, header)) = lines.next().transpose()? else {
        return Err(bad(1, "empty journal".to_owned()));
    };
    if header.trim() != JOURNAL_MAGIC {
        return Err(bad(1, format!("expected `{JOURNAL_MAGIC}` header")));
    }
    while let Some((n, line)) = lines.next().transpose()? {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(seq_str) = line.strip_prefix("REVOKE ") {
            let seq = seq_str
                .trim()
                .parse::<u64>()
                .map_err(|_| bad(n, "bad REVOKE sequence".to_owned()))?;
            entries.retain(|e| e.seq != seq);
            continue;
        }
        let Some(rest) = line.strip_prefix("BEGIN ") else {
            return Err(bad(n, format!("unexpected line `{line}`")));
        };
        let mut seq = None;
        let mut count = None;
        let mut sum = None;
        for tok in rest.split_whitespace() {
            if let Some(v) = tok.strip_prefix("seq=") {
                seq = v.parse::<u64>().ok();
            } else if let Some(v) = tok.strip_prefix("moves=") {
                count = v.parse::<usize>().ok();
            } else if let Some(v) = tok.strip_prefix("fnv1a=") {
                sum = u64::from_str_radix(v, 16).ok();
            }
        }
        let (Some(seq), Some(count), Some(sum)) = (seq, count, sum) else {
            return Err(bad(n, "bad BEGIN header".to_owned()));
        };
        let mut body = String::new();
        let mut moves = Vec::with_capacity(count.min(64));
        for _ in 0..count {
            let Some((mn, mline)) = lines.next().transpose()? else {
                return Err(bad(n, "entry truncated mid-moves".to_owned()));
            };
            let Some(m) = parse_move(mline.trim_end()) else {
                return Err(bad(mn, format!("bad move line `{mline}`")));
            };
            body.push_str(mline.trim_end());
            body.push('\n');
            moves.push(m);
        }
        if fnv1a(body.as_bytes()) != sum {
            return Err(bad(n, format!("entry seq={seq} failed its checksum")));
        }
        match lines.next().transpose()? {
            Some((_, cline)) if cline.trim_end() == format!("COMMIT {seq}") => {}
            _ => return Err(bad(n, format!("entry seq={seq} missing COMMIT"))),
        }
        entries.push(JournalEntry { seq, moves });
    }
    Ok(())
}

#[cfg(test)]
mod journal_tests {
    use super::*;
    use crate::service::{EcoMove, EcoTarget};

    fn mv(inst: &str, target: EcoTarget) -> EcoMove {
        EcoMove {
            inst: inst.to_owned(),
            target,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pao_journal_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("eco.journal")
    }

    #[test]
    fn append_resume_roundtrip_preserves_order_and_revokes() {
        let path = tmp("roundtrip");
        let mut j = EcoJournal::create(&path).unwrap();
        let b1 = vec![mv("u1", EcoTarget::Abs(Point::new(100, 200)))];
        let b2 = vec![
            mv("u2", EcoTarget::Delta(Point::new(-40, 0))),
            mv("cell with spaces", EcoTarget::Abs(Point::new(0, -7))),
        ];
        let b3 = vec![mv("u3", EcoTarget::Delta(Point::new(5, 5)))];
        assert_eq!(j.append(&b1).unwrap(), 1);
        assert_eq!(j.append(&b2).unwrap(), 2);
        assert_eq!(j.append(&b3).unwrap(), 3);
        j.revoke(2).unwrap();
        assert_eq!(j.entries(), 2);
        drop(j);

        let (j2, entries, warn) = EcoJournal::resume(&path).unwrap();
        assert!(warn.is_none(), "{warn:?}");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0], JournalEntry { seq: 1, moves: b1 });
        assert_eq!(entries[1], JournalEntry { seq: 3, moves: b3 });
        assert_eq!(j2.entries(), 2);
        // New appends continue the sequence past the recovered maximum.
        let mut j2 = j2;
        assert_eq!(j2.append(&b2).unwrap(), 4);
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let path = tmp("torn");
        let mut j = EcoJournal::create(&path).unwrap();
        let b1 = vec![mv("u1", EcoTarget::Abs(Point::new(1, 2)))];
        let b2 = vec![mv("u2", EcoTarget::Abs(Point::new(3, 4)))];
        j.append(&b1).unwrap();
        j.append(&b2).unwrap();
        drop(j);
        // Simulate a kill mid-append: chop bytes off the tail.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        let (_, entries, warn) = EcoJournal::resume(&path).unwrap();
        assert_eq!(entries.len(), 1, "torn entry must not replay");
        assert_eq!(entries[0].moves, b1);
        assert!(warn.is_some(), "torn tail must be reported");
        // Resume rewrote a clean file: a second resume sees no warning.
        let (_, entries2, warn2) = EcoJournal::resume(&path).unwrap();
        assert_eq!(entries2, entries);
        assert!(warn2.is_none(), "{warn2:?}");
    }

    #[test]
    fn corrupt_entry_ends_recovery_before_later_entries() {
        let path = tmp("corrupt");
        let mut j = EcoJournal::create(&path).unwrap();
        j.append(&[mv("u1", EcoTarget::Abs(Point::new(1, 2)))])
            .unwrap();
        j.append(&[mv("u2", EcoTarget::Abs(Point::new(3, 4)))])
            .unwrap();
        j.append(&[mv("u3", EcoTarget::Abs(Point::new(5, 6)))])
            .unwrap();
        drop(j);
        // Flip a byte inside entry 2's move line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let pos = text.find("M A 3 4 u2").unwrap();
        text.replace_range(pos..pos + 10, "M A 3 9 u2");
        std::fs::write(&path, &text).unwrap();
        let (_, entries, warn) = EcoJournal::resume(&path).unwrap();
        // Entry 2 fails its checksum; entry 3 must NOT replay without it.
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].seq, 1);
        assert!(warn.is_some());
    }

    #[test]
    fn missing_file_resumes_empty() {
        let path = tmp("missing");
        let (j, entries, warn) = EcoJournal::resume(&path).unwrap();
        assert!(entries.is_empty());
        assert!(warn.is_none());
        assert_eq!(j.entries(), 0);
        assert!(path.exists(), "resume must create the journal file");
    }

    #[test]
    fn tail_torn_inside_a_multibyte_name_is_discarded() {
        let path = tmp("torn_utf8");
        let mut j = EcoJournal::create(&path).unwrap();
        let b1 = vec![mv("u1", EcoTarget::Abs(Point::new(1, 2)))];
        j.append(&b1).unwrap();
        j.append(&[mv("zelle_\u{fc}", EcoTarget::Abs(Point::new(3, 4)))])
            .unwrap();
        drop(j);
        // A kill mid-append cuts `\u{fc}` (0xC3 0xBC) after its first byte.
        let bytes = std::fs::read(&path).unwrap();
        let cut = bytes.windows(2).position(|w| w == [0xC3, 0xBC]).unwrap() + 1;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let (_, entries, warn) = EcoJournal::resume(&path).unwrap();
        assert_eq!(entries, vec![JournalEntry { seq: 1, moves: b1 }]);
        let warn = warn.expect("torn tail must be reported");
        assert!(warn.message.contains("not valid UTF-8"), "{warn:?}");
        assert_eq!(warn.line, 6, "{warn:?}");
        // Resume rewrote the committed prefix: a second resume is clean.
        let (_, again, warn) = EcoJournal::resume(&path).unwrap();
        assert_eq!(again, entries);
        assert!(warn.is_none(), "{warn:?}");
    }

    #[test]
    fn random_byte_smashes_never_panic_or_misparse() {
        let path = tmp("fuzz");
        let mut j = EcoJournal::create(&path).unwrap();
        for i in 0..4 {
            j.append(&[mv(
                &format!("zelle_\u{fc}{i}"),
                EcoTarget::Abs(Point::new(i, -i)),
            )])
            .unwrap();
        }
        drop(j);
        let original = std::fs::read(&path).unwrap();
        let (_, reference, warn) = EcoJournal::resume(&path).unwrap();
        assert!(warn.is_none(), "{warn:?}");
        pao_ptest::check("journal.byte_mutation", 200, |rng| {
            let mut bytes = original.clone();
            if rng.gen_bool(0.3) {
                bytes.truncate(rng.gen_range(0..bytes.len()));
            } else {
                for _ in 0..rng.gen_range(1..=3usize) {
                    let i = rng.gen_range(0..bytes.len());
                    bytes[i] = rng.gen_range(0..=255u64) as u8;
                }
            }
            std::fs::write(&path, &bytes).unwrap();
            let (_, entries, _) = EcoJournal::resume(&path).unwrap();
            // Recovered entries must be a prefix of the originals: a
            // mutation may shorten the journal, never change a move.
            assert!(entries.len() <= reference.len());
            for (got, want) in entries.iter().zip(&reference) {
                assert_eq!(got, want, "mutation changed a recovered entry");
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::RunBudget;
    use crate::PinAccessOracle;
    use pao_testgen::{generate, SuiteCase};

    fn sample_ap() -> AccessPoint {
        AccessPoint {
            pos: Point::new(-120, 4500),
            layer: LayerId(0),
            pref_type: CoordType::ShapeCenter,
            nonpref_type: CoordType::OnTrack,
            vias: vec![ViaId(3), ViaId(1)],
            planar: vec![PlanarDir::East, PlanarDir::South],
        }
    }

    #[test]
    fn ap_roundtrip() {
        let ap = sample_ap();
        let mut s = String::new();
        write_ap(&mut s, &ap);
        let back = parse_ap(s.trim_end(), 1).unwrap();
        assert_eq!(ap, back);
    }

    #[test]
    fn ap_roundtrip_empty_lists() {
        let mut ap = sample_ap();
        ap.vias.clear();
        ap.planar.clear();
        let mut s = String::new();
        write_ap(&mut s, &ap);
        assert_eq!(parse_ap(s.trim_end(), 1).unwrap(), ap);
    }

    #[test]
    fn pattern_roundtrip() {
        let p = AccessPattern {
            choice: vec![0, 2, 1],
            cost: -42,
            validated: true,
        };
        let mut s = String::new();
        write_pattern(&mut s, &p);
        assert_eq!(parse_pattern(s.trim_end(), 1).unwrap(), p);
    }

    #[test]
    fn malformed_lines_error_with_position() {
        assert!(parse_ap("AP 1 2", 7).unwrap_err().line == 7);
        assert!(parse_ap("NOPE", 3).is_err());
        assert!(parse_pattern("PATTERN cost=x validated=true choice=-", 2).is_err());
        // Out-of-range numbers are errors, never wrapped values.
        for bad in [
            "AP 0 0 -1 0 0 vias=- planar=-",
            "AP 0 0 4294967296 0 0 vias=- planar=-",
            "AP 0 0 0 256 0 vias=- planar=-",
            "AP 0 0 0 4 0 vias=- planar=-",
            "AP 0 0 0 0 0 vias=-3 planar=-",
            "AP 0 0 0 0 0 vias=- planar=Q",
        ] {
            assert!(parse_ap(bad, 1).is_err(), "{bad}");
        }
        assert!(parse_pattern("PATTERN cost=1 validated=true choice=-1", 2).is_err());
    }

    #[test]
    fn seal_open_roundtrip() {
        let sealed = seal("BODY line 1\nBODY line 2\n");
        assert!(sealed.starts_with("PAO-CACHE v4 fnv1a="));
        assert_eq!(open(&sealed).unwrap(), "BODY line 1\nBODY line 2\n");
    }

    #[test]
    fn open_rejects_corruption_and_old_versions() {
        // Wrong magic / legacy version: version mismatch, not a panic.
        assert!(open("garbage").is_err());
        assert!(open("PAO-CACHE v1\nENTRY ...\n").is_err());
        assert!(open("PAO-CACHE v2 fnv1a=0000000000000000\n").is_err());
        let v3 = format!("PAO-CACHE v3 fnv1a={:016x}\nbody\n", fnv1a(b"body\n"));
        assert!(open(&v3).is_err(), "v3 files are rejected and recomputed");
        assert!(open("").is_err());
        // Missing or malformed checksum.
        assert!(open("PAO-CACHE v4\nbody\n").is_err());
        assert!(open("PAO-CACHE v4 fnv1a=xyz\nbody\n").is_err());
        // Truncated body no longer matches the recorded checksum.
        let sealed = seal("line 1\nline 2\n");
        let truncated = &sealed[..sealed.len() - 3];
        let e = open(truncated).unwrap_err();
        assert!(e.message.contains("checksum mismatch"), "{e}");
        // A flipped body byte is caught too.
        let flipped = sealed.replace("line 2", "line 3");
        assert!(open(&flipped).is_err());
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pao-persist-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// One analysis of the smoke case with `store` attached.
    fn analyze_into(tech: &Tech, design: &Design, store: &mut AnalysisCache) {
        let budget = RunBudget {
            store: Some(store),
            ..RunBudget::unlimited()
        };
        let _ = PinAccessOracle::new().analyze_with_budget(tech, design, budget);
    }

    /// `true` when every id of `store` is in range for `tech` and the
    /// entry's master — what the loader guarantees of any store it
    /// accepts.
    fn ids_in_range(store: &AnalysisCache, tech: &Tech) -> bool {
        store.entries.iter().all(|(sig, e)| {
            let Some(m) = tech.macro_by_name(&sig.0) else {
                return false;
            };
            let pins = m.pins.len();
            e.pin_aps.len() == pins
                && e.pin_aps.iter().flatten().all(|ap| {
                    ap.layer.index() < tech.layers().len()
                        && ap.vias.iter().all(|v| v.index() < tech.vias().len())
                })
                && e.rejects.as_ref().is_none_or(|r| r.len() == pins)
                && e.patterns.as_ref().is_none_or(|(order, pats)| {
                    order.iter().all(|&p| p < pins)
                        && pats.iter().all(|p| {
                            p.choice.len() == order.len()
                                && p.choice
                                    .iter()
                                    .zip(order)
                                    .all(|(&c, &pin)| c < e.pin_aps[pin].len())
                        })
                })
        })
    }

    #[test]
    fn checkpoint_roundtrips_through_disk() {
        let (tech, design) = generate(&SuiteCase::small_smoke());
        let dir = tmpdir("roundtrip");
        let mut store = AnalysisCache::create(&dir).unwrap();
        analyze_into(&tech, &design, &mut store);
        assert!(!store.is_empty());
        store
            .save_fractions(PhaseFractions([0.5, 0.2, 0.1, 0.1, 0.1]))
            .unwrap();

        let (back, rejected) = AnalysisCache::resume(&dir, &tech).unwrap();
        assert!(rejected.is_none(), "{rejected:?}");
        assert_eq!(back.len(), store.len());
        assert_eq!(back.save_to_string(), store.save_to_string());
        let f = back.fractions().expect("history restored");
        assert!((f.0[0] - 0.5).abs() < 1e-3, "{f:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_clears_stale_checkpoints_but_keeps_history() {
        let (tech, design) = generate(&SuiteCase::small_smoke());
        let dir = tmpdir("stale");
        let mut store = AnalysisCache::create(&dir).unwrap();
        analyze_into(&tech, &design, &mut store);
        assert!(dir.join(STORE_FILE).exists());
        // A fresh (non-resume) run must not see the old store…
        let fresh = AnalysisCache::create(&dir).unwrap();
        assert!(fresh.is_empty());
        assert!(!dir.join(STORE_FILE).exists());
        // …but keeps the measured fractions for its allocator.
        assert!(fresh.fractions().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_reclaims_stale_tmp_orphans() {
        // A crash between write_atomic's write and rename leaves a
        // `*.tmp` orphan; both open paths must sweep it so a daemon
        // cycling checkpoints never accumulates garbage.
        let (tech, _) = generate(&SuiteCase::small_smoke());
        let dir = tmpdir("tmp_orphans");
        // Seed a real (sealed) history file through the store API, then
        // fake the crash leftovers by hand.
        AnalysisCache::create(&dir)
            .unwrap()
            .save_fractions(PhaseFractions([0.5, 0.2, 0.1, 0.1, 0.1]))
            .unwrap();
        std::fs::write(dir.join("analysis.ckpt.tmp"), "half-written").unwrap();
        std::fs::write(dir.join("history.ckpt.tmp"), "also half").unwrap();
        let (store, rejected) = AnalysisCache::resume(&dir, &tech).unwrap();
        assert!(rejected.is_none(), "{rejected:?}");
        assert!(!dir.join("analysis.ckpt.tmp").exists(), "orphan swept");
        assert!(!dir.join("history.ckpt.tmp").exists(), "orphan swept");
        assert!(store.fractions().is_some(), "real files survive the sweep");
        drop(store);

        std::fs::write(dir.join("analysis.ckpt.tmp"), "stale").unwrap();
        let fresh = AnalysisCache::create(&dir).unwrap();
        assert!(!dir.join("analysis.ckpt.tmp").exists(), "create sweeps too");
        assert!(fresh.fractions().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_degrades_to_empty_with_report() {
        let (tech, _) = generate(&SuiteCase::small_smoke());
        let dir = tmpdir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(STORE_FILE), "PAO-CACHE v3 fnv1a=0\nINST\n").unwrap();
        std::fs::write(dir.join("history.ckpt"), "garbage").unwrap();
        let (store, rejected) = AnalysisCache::resume(&dir, &tech).unwrap();
        let err = rejected.expect("a corrupt store is reported");
        assert!(matches!(err, PaoError::Cache { .. }), "{err}");
        assert!(store.is_empty());
        assert!(store.fractions().is_none());
        // A sealed body that is not a store is rejected the same way.
        std::fs::write(dir.join(STORE_FILE), seal("INST not-a-number\n")).unwrap();
        let (store, rejected) = AnalysisCache::resume(&dir, &tech).unwrap();
        assert!(rejected.is_some() && store.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_whole_file() {
        let dir = tmpdir("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.ckpt");
        write_atomic(&path, "first version, quite long\n").unwrap();
        write_atomic(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        assert!(!dir.join("x.ckpt.tmp").exists(), "tmp file renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn input_stamp_covers_what_steps_one_and_two_read() {
        let (tech, design) = generate(&SuiteCase::small_smoke());
        let config = PaoConfig::default();
        let base = input_stamp(&tech, &design, &config);
        assert_eq!(base, input_stamp(&tech, &design, &config), "deterministic");
        // Thread count and repair rounds never change a stored result.
        let mut same = config.clone();
        same.threads += 3;
        same.repair_rounds = 0;
        assert_eq!(input_stamp(&tech, &design, &same), base);
        // The LEF, both generation settings and the track patterns do.
        let mut no_bca = config.clone();
        no_bca.pattern.bca = false;
        let mut k = config.clone();
        k.apgen.k += 1;
        let mut tracks = design.clone();
        tracks.tracks[0].step *= 2;
        let mut lef = tech.clone();
        lef.dbu_per_micron *= 2;
        for stamp in [
            input_stamp(&tech, &design, &no_bca),
            input_stamp(&tech, &design, &k),
            input_stamp(&tech, &tracks, &config),
            input_stamp(&lef, &design, &config),
        ] {
            assert_ne!(stamp, base);
        }
    }

    #[test]
    fn bind_rejects_a_store_of_other_inputs() {
        let (tech, design) = generate(&SuiteCase::small_smoke());
        let mut store = AnalysisCache::new();
        analyze_into(&tech, &design, &mut store);
        let stamp = input_stamp(&tech, &design, &PaoConfig::default());
        assert!(store.bind(stamp).is_ok(), "the run bound its own stamp");
        assert!(!store.is_empty());
        let err = store.bind(stamp ^ 1).expect_err("other inputs");
        assert!(matches!(err, PaoError::Cache { .. }), "{err}");
        assert!(store.is_empty(), "rejected whole");
        // The stamp survives a save/load round trip.
        analyze_into(&tech, &design, &mut store);
        let back = AnalysisCache::load_from_string(&store.save_to_string(), &tech).unwrap();
        assert_eq!(back.stamp, Some(stamp));
    }

    #[test]
    fn cache_save_load_roundtrip_preserves_analysis() {
        let (tech, design) = generate(&SuiteCase::small_smoke());
        let oracle = PinAccessOracle::new();
        let mut cache = AnalysisCache::new();
        let budget = RunBudget {
            store: Some(&mut cache),
            ..RunBudget::unlimited()
        };
        let first = oracle.analyze_with_budget(&tech, &design, budget);

        let text = cache.save_to_string();
        assert!(text.starts_with("PAO-CACHE v4 fnv1a="));
        let mut loaded = AnalysisCache::load_from_string(&text, &tech).expect("loads");
        assert_eq!(loaded.len(), cache.len());
        assert_eq!(loaded.save_to_string(), text, "lossless");

        // A fresh "process" using the loaded store restores everything and
        // produces the same result.
        let budget = RunBudget {
            store: Some(&mut loaded),
            ..RunBudget::unlimited()
        };
        let again = oracle.analyze_with_budget(&tech, &design, budget);
        assert_eq!(loaded.stats(), (first.unique.len(), 0), "all hits");
        assert!(again.stats.counters_eq(&first.stats));
        assert_eq!(
            crate::service::selection_dump(&design, &again),
            crate::service::selection_dump(&design, &first)
        );
    }

    #[test]
    fn load_rejects_garbage() {
        let (tech, _) = generate(&SuiteCase::small_smoke());
        let load = |text: &str| AnalysisCache::load_from_string(text, &tech);
        assert!(load("").is_err());
        assert!(load("NOT A CACHE").is_err());
        // Legacy (un-checksummed) caches are a version mismatch: rebuilt,
        // not parsed on trust.
        assert!(
            load("PAO-CACHE v1\nENTRY master=X orient=N phases=-\n").is_err(),
            "v1 cache must be rejected"
        );
        assert!(
            load(&seal("ENTRY master=X orient=N phases=-\n")).is_err(),
            "no STAMP"
        );
        let master = tech.macros()[0].name;
        for body in [
            "STAMP -\nENTRY master=NOPE orient=N phases=-\nREP 0 0\nTALLY 0 0 0\nEND\n".to_owned(),
            format!("STAMP -\nENTRY master={master} orient=N phases=-\n"),
            format!("STAMP -\nENTRY master={master} orient=N phases=-\nREP 0 0\nTALLY 0 0 0\nPIN 999 0\nEND\n"),
            format!("STAMP -\nENTRY master={master} orient=N phases=-\nREP 0 0\nTALLY 0 0 0\nPIN 0 1\nAP 0 0 99 0 0 vias=- planar=-\nEND\n"),
            format!("STAMP -\nENTRY master={master} orient=N phases=-\nREP 0 0\nTALLY 0 0 0\nPIN 0 1\nAP 0 0 0 0 0 vias=99999 planar=-\nEND\n"),
            format!("STAMP -\nENTRY master={master} orient=N phases=-\nREP 0 0\nTALLY 0 0 0\nORDER 999\nEND\n"),
            format!("STAMP -\nENTRY master={master} orient=N phases=-\nREP 0 0\nTALLY 0 0 0\nORDER 0\nPATTERN cost=0 validated=true choice=0\nEND\n"),
            format!("STAMP -\nENTRY master={master} orient=N phases=-\nREP 0 0\nTALLY 0 0 0\nREJECTS 999/0/0=1\nEND\n"),
        ] {
            assert!(load(&seal(&body)).is_err(), "accepted:\n{body}");
        }
    }

    #[test]
    fn load_or_rebuild_degrades_to_empty_cache() {
        let (tech, _) = generate(&SuiteCase::small_smoke());
        let dir = tmpdir("rebuild");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(STORE_FILE), "PAO-CACHE v1\ngarbage\n").unwrap();
        let (store, err) = AnalysisCache::resume(&dir, &tech).unwrap();
        assert!(store.is_empty());
        let err = err.expect("rejection reason");
        assert!(matches!(err, PaoError::Cache { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Mutations of the store *body*, resealed so they reach the parser:
    /// every outcome is a typed rejection or a store whose ids are all in
    /// range — never a panic. Truncation at every line boundary too.
    #[test]
    fn byte_mutated_cache_never_panics() {
        let (tech, design) = generate(&SuiteCase::small_smoke());
        let mut cache = AnalysisCache::new();
        analyze_into(&tech, &design, &mut cache);
        // Reject histograms as a ledger-on run keeps them (the ledger is
        // process-global, so this test does not switch it on).
        for e in cache.entries.values_mut() {
            e.rejects = Some(vec![
                vec![(1, 3, 4), (u8::MAX, u8::MAX, 2)];
                e.pin_aps.len()
            ]);
        }
        let text = cache.save_to_string();
        let body = open(&text).expect("sealed").to_owned();
        let lines: Vec<&str> = body.lines().collect();
        let check = |body: &str| {
            if let Ok(store) = AnalysisCache::load_from_string(&seal(body), &tech) {
                assert!(
                    ids_in_range(&store, &tech),
                    "out-of-range id accepted:\n{body}"
                );
            }
        };
        for k in 0..=lines.len() {
            let mut cut = lines[..k].join("\n");
            cut.push('\n');
            check(&cut);
        }
        const NUMBERS: [&str; 10] = [
            "-1",
            "0",
            "1",
            "2",
            "4",
            "255",
            "256",
            "65536",
            "4294967296",
            "-9223372036854775809",
        ];
        pao_ptest::check("persist.body_mutation", 256, |rng| {
            let mut out: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
            for _ in 0..rng.gen_range(1..=3usize) {
                let i = rng.gen_range(0..out.len());
                match rng.gen_range(0..4u32) {
                    // Replace one number inside a line with an edge value.
                    0 => {
                        let digits: Vec<usize> = out[i]
                            .char_indices()
                            .filter(|(_, c)| c.is_ascii_digit())
                            .map(|(at, _)| at)
                            .collect();
                        if let Some(&at) = digits.get(rng.gen_range(0..digits.len().max(1))) {
                            let end = out[i][at..]
                                .find(|c: char| !c.is_ascii_digit())
                                .map_or(out[i].len(), |e| at + e);
                            let n = NUMBERS[rng.gen_range(0..NUMBERS.len())];
                            out[i].replace_range(at..end, n);
                        }
                    }
                    1 => {
                        out.remove(i);
                    }
                    2 => {
                        let line = out[i].clone();
                        out.insert(rng.gen_range(0..=out.len()), line);
                    }
                    _ => {
                        let mut bytes = out[i].clone().into_bytes();
                        if !bytes.is_empty() {
                            let at = rng.gen_range(0..bytes.len());
                            bytes[at] = rng.gen_range(0..=255u64) as u8;
                        }
                        out[i] = String::from_utf8_lossy(&bytes).into_owned();
                    }
                }
                if out.is_empty() {
                    break;
                }
            }
            let mut mutated = out.join("\n");
            mutated.push('\n');
            check(&mutated);
        });
    }
}
