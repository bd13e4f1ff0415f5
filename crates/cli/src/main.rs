//! `pao` — command-line pin access analysis.
//!
//! ```text
//! pao analyze <tech.lef> <design.def> [--threads N] [--k N] [--no-bca]
//!             [--report FILE] [--svg INSTANCE:FILE]
//!             [--metrics] [--trace FILE] [--deadline-ms MS]
//!             [--deadline-ok] [--checkpoint DIR] [--resume]
//!             [--watchdog-ms MS] [--dump-selection FILE]
//! pao route   <tech.lef> <design.def> [--naive] [--report FILE]
//! pao drc     <tech.lef> <design.def>
//! pao gen     <case> --lef FILE --def FILE      (case: ispd18s_test1..10,
//!                                                aes14, smoke, or `list`)
//! pao bench   [<tech.lef> <design.def>] [--case NAME] [--threads N]
//!             [--out FILE]
//! pao profile [<tech.lef> <design.def>] [--case NAME] [--threads N]
//!             [--trace FILE] [--report FILE] [--deadline-ms MS]
//!             [--ledger]
//! pao explain <tech.lef> <design.def> (--pin INSTANCE/PIN | --inst NAME)
//!             [--threads N] [--report FILE]
//! pao report  <tech.lef> <design.def> [--out FILE] [--top N]
//!             [--heatmap FILE] [--threads N]
//! ```

use pao_core::{AnalysisCache, PaoConfig, PaoError, Phase, PinAccessOracle, RunBudget};
use pao_design::Design;
use pao_tech::Tech;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

mod args;
mod explain;
mod serve;
mod soak;
use args::Args;

/// Typed CLI failure. Each variant maps to a distinct exit code so
/// scripts (and CI) can tell a bad invocation from bad input data from a
/// bug in `pao` itself:
///
/// | code | meaning                                               |
/// |------|-------------------------------------------------------|
/// | 0    | success                                               |
/// | 2    | usage error (bad flags/arguments)                     |
/// | 3    | input error (unreadable or malformed LEF/DEF)         |
/// | 4    | internal error (a `pao` bug)                          |
/// | 5    | run completed degraded (quarantined items) and        |
/// |      | `--degraded-ok` was not given                         |
/// | 6    | run hit its `--deadline-ms` budget (partial result)   |
/// |      | and `--deadline-ok` was not given                     |
/// | 7    | client transport failure (`pao call`/`soak` could not |
/// |      | reach or keep talking to the daemon)                  |
#[derive(Debug)]
enum CliError {
    /// The invocation is wrong: missing arguments, unknown case names,
    /// unparsable flag values.
    Usage(String),
    /// The input data is at fault; carries the full typed error.
    Input(PaoError),
    /// A bug in `pao` itself (violated invariant, invalid export).
    Internal(String),
    /// The analysis finished but quarantined this many work items, and
    /// the caller did not opt into degraded results with `--degraded-ok`.
    Degraded(usize),
    /// The analysis was cut short — by its deadline budget (skipped work
    /// items) and/or by a watchdog-detected worker stall — and the caller
    /// did not opt into partial results with `--deadline-ok`.
    DeadlinePartial { skipped: usize, stalls: usize },
    /// A client-side transport failure (`pao call`/`soak`): connect
    /// timeout, response-read timeout, connection closed mid-exchange.
    /// Distinct from in-band JSON-RPC errors, which the server answered
    /// and which therefore exit 0.
    Transport(String),
}

impl CliError {
    fn usage(message: impl Into<String>) -> CliError {
        CliError::Usage(message.into())
    }

    fn input(message: impl Into<String>) -> CliError {
        CliError::Input(PaoError::input(message))
    }

    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Input(_) => 3,
            CliError::Internal(_) => 4,
            CliError::Degraded(_) => 5,
            CliError::DeadlinePartial { .. } => 6,
            CliError::Transport(_) => 7,
        }
    }

    /// Prints the error (and, for typed errors, its source chain) to
    /// stderr.
    fn report(&self) {
        match self {
            CliError::Usage(m) => eprintln!("error: {m}"),
            CliError::Transport(m) => eprintln!("error: transport: {m}"),
            CliError::Internal(m) => eprintln!("error: internal: {m}"),
            CliError::Degraded(n) => eprintln!(
                "error: run degraded: {n} work item(s) quarantined (see report; pass --degraded-ok to accept)"
            ),
            CliError::DeadlinePartial { skipped, stalls } => eprintln!(
                "error: deadline hit: {skipped} work item(s) skipped, {stalls} worker stall(s) (partial result; pass --deadline-ok to accept, or --checkpoint DIR + --resume to continue)"
            ),
            CliError::Input(e) => {
                eprintln!("error: {e}");
                let mut source = std::error::Error::source(e);
                while let Some(cause) = source {
                    eprintln!("  caused by: {cause}");
                    source = cause.source();
                }
            }
        }
    }
}

fn load_world(lef_path: &str, def_path: &str) -> Result<(Tech, Design), CliError> {
    let lef = std::fs::read_to_string(lef_path)
        .map_err(|e| CliError::input(format!("cannot read LEF `{lef_path}`: {e}")))?;
    let tech = pao_tech::lef::parse_lef(&lef)
        .map_err(|e| CliError::Input(PaoError::input_at(lef_path, e.line, e.message)))?;
    let def = std::fs::read_to_string(def_path)
        .map_err(|e| CliError::input(format!("cannot read DEF `{def_path}`: {e}")))?;
    let design = pao_design::def::parse_def(&def, &tech)
        .map_err(|e| CliError::Input(PaoError::input_at(def_path, e.line, e.message)))?;
    Ok((tech, design))
}

fn emit(report: Option<&str>, content: &str) -> Result<(), CliError> {
    match report {
        Some(path) => std::fs::write(path, content)
            .map_err(|e| CliError::input(format!("cannot write `{path}`: {e}")))
            .map(|()| eprintln!("wrote {path}")),
        None => {
            print!("{content}");
            Ok(())
        }
    }
}

/// Validates an exported Chrome trace with the crate's own JSON parser
/// and writes it to `path`.
fn write_trace(path: &str, dump: &pao_obs::TraceDump) -> Result<(), CliError> {
    let json = dump.to_chrome_json();
    pao_obs::json::validate(&json)
        .map_err(|e| CliError::Internal(format!("exported trace is not valid JSON: {e}")))?;
    std::fs::write(path, &json)
        .map_err(|e| CliError::input(format!("cannot write `{path}`: {e}")))?;
    eprintln!(
        "wrote {path} ({} spans, {} tracks)",
        dump.events.len(),
        dump.tracks.len()
    );
    Ok(())
}

/// Arms the deterministic fault-injection hook from an
/// `--inject-fault PHASE[:INDEX]` value (chaos testing: verify the run
/// degrades instead of aborting).
fn arm_injected_fault(spec: &str) -> Result<(), CliError> {
    let (phase, index) = spec.split_once(':').unwrap_or((spec, "0"));
    let label = Phase::exec_label_of(phase).ok_or_else(|| {
        CliError::usage(format!(
            "--inject-fault: unknown phase `{phase}` (expected apgen|pattern|select|repair|audit)"
        ))
    })?;
    let index: usize = index
        .parse()
        .map_err(|_| CliError::usage("--inject-fault expects PHASE[:INDEX]"))?;
    pao_core::fault::arm(label, index);
    Ok(())
}

/// Arms the deterministic stall-injection hook from an
/// `--inject-stall PHASE[:INDEX[:MS]]` value (watchdog testing: verify a
/// hung worker is detected and the run degrades instead of hanging).
fn arm_injected_stall(spec: &str) -> Result<(), CliError> {
    let mut it = spec.split(':');
    let phase = it.next().unwrap_or_default();
    let label = Phase::exec_label_of(phase).ok_or_else(|| {
        CliError::usage(format!(
            "--inject-stall: unknown phase `{phase}` (expected apgen|pattern|select|repair|audit)"
        ))
    })?;
    let bad = || CliError::usage("--inject-stall expects PHASE[:INDEX[:MS]]");
    let index: usize = it.next().map_or(Ok(0), str::parse).map_err(|_| bad())?;
    let ms: u64 = it.next().map_or(Ok(1000), str::parse).map_err(|_| bad())?;
    if it.next().is_some() {
        return Err(bad());
    }
    pao_core::fault::arm_stall(label, index, ms);
    Ok(())
}

/// Parses the shared deadline/watchdog/stall-injection flags into
/// `(deadline, watchdog)`. Rejects value options that arrived without a
/// value (usage error, exit 2). The watchdog is armed whenever any of
/// `--deadline-ms`, `--watchdog-ms` or `--inject-stall` is present.
fn parse_budget_flags(
    args: &Args,
) -> Result<(Option<Duration>, Option<pao_core::Watchdog>), CliError> {
    for name in [
        "--inject-fault",
        "--inject-stall",
        "--deadline-ms",
        "--watchdog-ms",
        "--checkpoint",
    ] {
        if args.value_missing(name) {
            return Err(CliError::usage(format!("{name} requires a value")));
        }
    }
    let deadline = args
        .value("--deadline-ms")
        .map(|ms| ms.parse::<u64>().map(Duration::from_millis))
        .transpose()
        .map_err(|_| CliError::usage("--deadline-ms expects milliseconds"))?;
    let min_stall = args
        .value("--watchdog-ms")
        .map(str::parse::<u64>)
        .transpose()
        .map_err(|_| CliError::usage("--watchdog-ms expects milliseconds"))?;
    if let Some(spec) = args.value("--inject-stall") {
        arm_injected_stall(spec)?;
    }
    let watchdog =
        if deadline.is_some() || min_stall.is_some() || args.value("--inject-stall").is_some() {
            Some(match min_stall {
                Some(ms) => pao_core::Watchdog::with_min_stall(Duration::from_millis(ms)),
                None => pao_core::Watchdog::default(),
            })
        } else {
            None
        };
    Ok((deadline, watchdog))
}

/// Deterministic text dump of the cluster-selection outcome; shared with
/// the `pao serve` daemon's `dump_selection` method so the verify gate
/// can diff the two byte-for-byte (see `pao_core::service::selection_dump`).
fn selection_dump(design: &Design, result: &pao_core::PaoResult) -> String {
    pao_core::service::selection_dump(design, result)
}

/// Opens the `--checkpoint DIR` analysis store, bound to this run's
/// inputs. With `--resume` the directory's store is reloaded; a corrupt
/// one, or one computed from other inputs (LEF, apgen/pattern settings,
/// track patterns), is rejected with a warning and recomputed. Without it
/// a stale store is cleared so a fresh run never silently reuses it. The
/// phase-time history survives both ways — it seeds the budget allocator.
fn open_checkpoint(
    args: &Args,
    tech: &Tech,
    design: &Design,
    cfg: &PaoConfig,
) -> Result<Option<AnalysisCache>, CliError> {
    let Some(dir) = args.value("--checkpoint") else {
        if args.flag("--resume") {
            return Err(CliError::usage("--resume requires --checkpoint DIR"));
        }
        return Ok(None);
    };
    let (mut store, rejected) = if args.flag("--resume") {
        AnalysisCache::resume(dir, tech)
            .map_err(|e| CliError::input(format!("cannot open checkpoint dir `{dir}`: {e}")))?
    } else {
        let store = AnalysisCache::create(dir)
            .map_err(|e| CliError::input(format!("cannot create checkpoint dir `{dir}`: {e}")))?;
        (store, None)
    };
    let stale = store
        .bind(pao_core::persist::input_stamp(tech, design, cfg))
        .err();
    for e in rejected.into_iter().chain(stale) {
        eprintln!("warning: checkpoint in `{dir}` rejected, recomputing: {e}");
    }
    Ok(Some(store))
}

fn cmd_analyze(args: &Args) -> Result<(), CliError> {
    let (tech, design) = load_world(
        args.positional(1).map_err(CliError::Usage)?,
        args.positional(2).map_err(CliError::Usage)?,
    )?;
    if args.flag("--metrics") {
        pao_obs::enable_metrics();
    }
    if args.value("--trace").is_some() {
        pao_obs::enable_trace();
    }
    let mut cfg = PaoConfig::default();
    if let Some(t) = args.value("--threads") {
        cfg.threads = t
            .parse()
            .map_err(|_| CliError::usage("--threads expects a number"))?;
    }
    if let Some(k) = args.value("--k") {
        cfg.apgen.k = k
            .parse()
            .map_err(|_| CliError::usage("--k expects a number"))?;
    }
    if args.flag("--no-bca") {
        cfg.pattern.bca = false;
        cfg.pattern.max_patterns = 1;
    }
    if args.value_missing("--dump-selection") {
        return Err(CliError::usage("--dump-selection requires a value"));
    }
    if let Some(spec) = args.value("--inject-fault") {
        arm_injected_fault(spec)?;
    }
    let (deadline, watchdog) = parse_budget_flags(args)?;
    let mut store = open_checkpoint(args, &tech, &design, &cfg)?;
    // Budget split: this checkpoint directory's recorded phase-time
    // history when available, the built-in default otherwise.
    let fractions = store
        .as_ref()
        .and_then(AnalysisCache::fractions)
        .unwrap_or_default();
    let budget = RunBudget {
        deadline,
        fractions,
        watchdog,
        store: store.as_mut(),
    };
    let result = PinAccessOracle::with_config(cfg).analyze_with_budget(&tech, &design, budget);
    if let (Some(store), Some(dir)) = (&store, args.value("--checkpoint")) {
        let (hits, misses) = store.stats();
        eprintln!("checkpoint: {hits} hits, {misses} misses -> {dir}");
    }
    pao_core::fault::disarm();
    pao_obs::disable_all();
    let mut out = String::new();
    out.push_str(&format!("design: {}\n{}\n", design.name, result.stats));
    if args.flag("--metrics") {
        out.push_str("\nmetrics:\n");
        out.push_str(&result.stats.metrics.to_table());
    }
    // Per-pin access listing for failed pins (the actionable part).
    let mut failures = String::new();
    for net in design.nets() {
        for (comp, pin_name) in net.comp_pins() {
            let Some(master) = design.component(comp).master_in(&tech) else {
                continue;
            };
            let Some(pi) = master.pins.iter().position(|p| p.name == pin_name) else {
                continue;
            };
            if result.access_point(&design, comp, pi).is_none() {
                failures.push_str(&format!(
                    "  FAILED {}/{}\n",
                    design.component(comp).name,
                    pin_name
                ));
            }
        }
    }
    if !failures.is_empty() {
        out.push_str("\nfailed pins:\n");
        out.push_str(&failures);
    }
    emit(args.value("--report"), &out)?;
    if let Some(path) = args.value("--dump-selection") {
        std::fs::write(path, selection_dump(&design, &result))
            .map_err(|e| CliError::input(format!("cannot write `{path}`: {e}")))?;
        eprintln!("wrote {path}");
    }
    if let Some(spec) = args.value("--svg") {
        let (inst, file) = spec
            .split_once(':')
            .ok_or_else(|| CliError::usage("--svg expects INSTANCE:FILE"))?;
        let comp = design
            .component_by_name(inst)
            .ok_or_else(|| CliError::input(format!("unknown instance `{inst}`")))?;
        let svg = pao_viz::render_cell_access(&tech, &design, &result, comp);
        std::fs::write(file, svg)
            .map_err(|e| CliError::input(format!("cannot write `{file}`: {e}")))?;
        eprintln!("wrote {file}");
    }
    if let Some(path) = args.value("--trace") {
        write_trace(path, &pao_obs::take_trace())?;
    }
    // Deadline-partial completion: the budget cut the run. The partial
    // result was fully reported above; exit 6 unless the caller opted in.
    if result.stats.deadline.is_partial() && !args.flag("--deadline-ok") {
        return Err(CliError::DeadlinePartial {
            skipped: result.stats.deadline.skipped_items(),
            stalls: result.stats.deadline.stalls.len(),
        });
    }
    // Degraded completion: quarantined items were reported above; whether
    // that is acceptable is the caller's call, not ours.
    let quarantined = result.stats.quarantined.len();
    if quarantined > 0 && !args.flag("--degraded-ok") {
        return Err(CliError::Degraded(quarantined));
    }
    Ok(())
}

fn cmd_route(args: &Args) -> Result<(), CliError> {
    use pao_router::route::{RouteConfig, Router};
    let (tech, design) = load_world(
        args.positional(1).map_err(CliError::Usage)?,
        args.positional(2).map_err(CliError::Usage)?,
    )?;
    let router = Router::new(&tech, &design, RouteConfig::default());
    let routed = if args.flag("--naive") {
        router.route_with_accessor(|_, _| None)
    } else {
        let result = PinAccessOracle::new().analyze(&tech, &design);
        router.route_with_pao(&result)
    };
    let drcs = pao_router::score::count_drcs(&tech, &design, &routed);
    let access = pao_router::score::access_drcs(&tech, &design, &routed);
    let mut out = String::new();
    out.push_str(&format!(
        "routed nets      : {} / {}\nfallback routes  : {}\nwirelength (dbu) : {}\nvias             : {}\ntotal DRCs       : {drcs}\npin-access DRCs  : {access}\n",
        routed.routed_nets,
        design.nets().len(),
        routed.fallback_routes,
        routed.wirelength,
        routed.via_count,
    ));
    for (rule, n) in pao_router::score::drc_breakdown(&tech, &design, &routed) {
        out.push_str(&format!("  {rule:<20} {n}\n"));
    }
    emit(args.value("--report"), &out)
}

fn cmd_drc(args: &Args) -> Result<(), CliError> {
    use pao_core::unique::pin_owner;
    use pao_drc::{DrcEngine, DrcSink, Owner, ShapeSet};
    let (tech, design) = load_world(
        args.positional(1).map_err(CliError::Usage)?,
        args.positional(2).map_err(CliError::Usage)?,
    )?;
    let mut ctx = ShapeSet::new(tech.layers().len());
    for (ci, comp) in design.components().iter().enumerate() {
        let id = pao_design::CompId(ci as u32);
        let Some(master) = comp.master_in(&tech) else {
            continue;
        };
        for (pi, layer, rect) in design.placed_pin_shapes(&tech, id) {
            // Supply rails of all cells are one electrical net each;
            // abutting rails are intended, not shorts.
            let owner = match master.pins[pi].use_ {
                pao_tech::PinUse::Power => Owner::net(u64::MAX),
                pao_tech::PinUse::Ground => Owner::net(u64::MAX - 1),
                _ => pin_owner(id, pi),
            };
            ctx.insert(layer, rect, owner);
        }
        for (layer, rect) in design.placed_obs_shapes(&tech, id) {
            ctx.insert(layer, rect, Owner::obs(ci as u64));
        }
    }
    ctx.rebuild();
    let mut sink = DrcSink::all();
    DrcEngine::new(&tech).audit(&ctx, &mut sink);
    let violations = sink.violations();
    println!("{} static violations", violations.len());
    for v in violations.iter().take(50) {
        println!("  {v}");
    }
    if violations.len() > 50 {
        println!("  … ({} more)", violations.len() - 50);
    }
    Ok(())
}

fn cmd_gen(args: &Args) -> Result<(), CliError> {
    let name = args.positional(1).map_err(CliError::Usage)?;
    if name == "list" {
        for c in pao_testgen::ispd18s_suite() {
            println!("{} ({:?}, {} cells)", c.name, c.flavor, c.cells);
        }
        println!(
            "aes14 ({:?}, {} cells)",
            pao_testgen::aes14_case().flavor,
            pao_testgen::aes14_case().cells
        );
        println!("smoke (N45, 60 cells)");
        for c in pao_testgen::scale_cases() {
            println!(
                "{} ({}x{} tiles of {} cells, streamed)",
                c.name, c.tiles_x, c.tiles_y, c.tile.cells
            );
        }
        return Ok(());
    }
    let lef_path = args
        .value("--lef")
        .ok_or_else(|| CliError::usage("--lef FILE is required"))?;
    let def_path = args
        .value("--def")
        .ok_or_else(|| CliError::usage("--def FILE is required"))?;
    let Some((comps, nets, streamed)) = write_case(name, Path::new(lef_path), Path::new(def_path))?
    else {
        return Err(CliError::usage(format!(
            "unknown case `{name}` (try `pao gen list`)"
        )));
    };
    let streamed = if streamed { ", streamed" } else { "" };
    eprintln!("wrote {lef_path} + {def_path} ({comps} components, {nets} nets{streamed})");
    Ok(())
}

/// Writes case `name`'s LEF and DEF for `pao gen` and `pao sweep`. Scale
/// cases stream their DEF tile by tile; suite cases go through the
/// in-memory generator. Returns the component and net counts and whether
/// the DEF was streamed, or `None`, writing nothing, for an unknown case.
fn write_case(
    name: &str,
    lef_path: &Path,
    def_path: &Path,
) -> Result<Option<(usize, usize, bool)>, CliError> {
    use std::io::Write as _;
    let write_err = |p: &Path, e: std::io::Error| {
        CliError::input(format!("cannot write `{}`: {e}", p.display()))
    };
    let write_lef = |tech: &Tech| {
        std::fs::write(lef_path, pao_tech::lef::write_lef(tech)).map_err(|e| write_err(lef_path, e))
    };
    let create_def = || {
        std::fs::File::create(def_path)
            .map(std::io::BufWriter::new)
            .map_err(|e| write_err(def_path, e))
    };
    if let Some(case) = pao_testgen::scaled_case_by_name(name) {
        let tech = pao_testgen::scaled_tech(&case);
        write_lef(&tech)?;
        let mut w = create_def()?;
        let (comps, nets) = pao_testgen::write_scaled_def(&tech, &case, &mut w)
            .and_then(|r| w.flush().map(|()| r))
            .map_err(|e| write_err(def_path, e))?;
        return Ok(Some((comps, nets, true)));
    }
    let Some(case) = pao_testgen::case_by_name(name) else {
        return Ok(None);
    };
    let (tech, design) = pao_testgen::generate(&case);
    write_lef(&tech)?;
    let mut w = create_def()?;
    pao_design::def::write_def_to(&design, &tech, &mut w)
        .and_then(|()| w.flush())
        .map_err(|e| write_err(def_path, e))?;
    let (comps, nets) = (design.components().len(), design.nets().len());
    Ok(Some((comps, nets, false)))
}

/// One run's phase timings + executor telemetry as a JSON object (no
/// external JSON dependency — the schema is flat and fixed).
fn stats_json(stats: &pao_core::PaoStats) -> String {
    let exec = |r: &pao_core::ExecReport| {
        format!(
            "{{\"threads\": {}, \"busy_s\": {:.6}}}",
            r.threads.max(1),
            r.total_busy_us() as f64 / 1e6
        )
    };
    format!(
        concat!(
            "{{\"apgen_s\": {:.6}, \"pattern_s\": {:.6}, \"cluster_s\": {:.6}, ",
            "\"total_s\": {:.6}, \"failed_pins\": {}, \"total_aps\": {}, ",
            "\"exec\": {{\"apgen\": {}, \"pattern\": {}, \"select\": {}, ",
            "\"repair\": {}, \"audit\": {}}}}}"
        ),
        stats.apgen_time.as_secs_f64(),
        stats.pattern_time.as_secs_f64(),
        stats.cluster_time.as_secs_f64(),
        stats.total_time().as_secs_f64(),
        stats.failed_pins,
        stats.total_aps,
        exec(&stats.apgen_exec),
        exec(&stats.pattern_exec),
        exec(&stats.cluster_exec),
        exec(&stats.repair_exec),
        exec(&stats.audit_exec),
    )
}

/// Workload selection shared by `bench` and `profile`: either an
/// explicit LEF/DEF pair or a generated case (`--case`, default smoke).
fn load_workload(args: &Args) -> Result<(Tech, Design, String), CliError> {
    match (args.positional(1), args.positional(2)) {
        (Ok(lef), Ok(def)) => {
            let def = def.to_owned();
            let (t, d) = load_world(lef, &def)?;
            Ok((t, d, def))
        }
        _ => {
            let name = args.value("--case").unwrap_or("smoke");
            let case = pao_testgen::case_by_name(name).ok_or_else(|| {
                CliError::usage(format!("unknown case `{name}` (try `pao gen list`)"))
            })?;
            let (t, d) = pao_testgen::generate(&case);
            Ok((t, d, case.name))
        }
    }
}

fn parse_threads(args: &Args) -> Result<usize, CliError> {
    match args.value("--threads") {
        Some(t) => t
            .parse()
            .map_err(|_| CliError::usage("--threads expects a number")),
        None => Ok(pao_core::default_threads()),
    }
}

/// Short git revision of the working tree, or `unknown` outside a repo.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cmd_bench(args: &Args) -> Result<(), CliError> {
    let (tech, design, workload) = load_workload(args)?;
    let threads = parse_threads(args)?;
    // Honesty about parallelism: record what was asked for and what the
    // host can actually deliver. On a 1-core host the "parallel" run is
    // physically the baseline again — still valuable as a determinism
    // check, but its speedup is not a performance number.
    let host_threads = pao_core::default_threads();
    let threads_effective = threads.min(host_threads).max(1);
    if threads_effective < threads {
        eprintln!(
            "note: host has {host_threads} thread(s); requested {threads} — speedup reflects {threads_effective}-way parallelism at best"
        );
    }
    let analyze = |threads: usize| {
        let cfg = PaoConfig {
            threads,
            ..PaoConfig::default()
        };
        PinAccessOracle::with_config(cfg).analyze(&tech, &design)
    };
    eprintln!("benchmarking `{workload}`: baseline (1 thread) …");
    let baseline = analyze(1);
    eprintln!("benchmarking `{workload}`: parallel ({threads} threads) …");
    let parallel = analyze(threads);
    if !baseline.stats.counters_eq(&parallel.stats) {
        return Err(CliError::Internal(
            "parallel run diverged from single-threaded baseline".to_owned(),
        ));
    }
    // Deadline-mode overhead: the same parallel run with an effectively
    // infinite (but finite, so every poll is live) budget measures the
    // pure cancellation-poll cost of the anytime machinery.
    eprintln!("benchmarking `{workload}`: deadline mode ({threads} threads) …");
    let budgeted = PinAccessOracle::with_config(PaoConfig {
        threads,
        ..PaoConfig::default()
    })
    .analyze_with_budget(
        &tech,
        &design,
        RunBudget::with_deadline(Duration::from_secs(86_400)),
    );
    if !baseline.stats.counters_eq(&budgeted.stats) {
        return Err(CliError::Internal(
            "deadline-mode run diverged from unbudgeted baseline".to_owned(),
        ));
    }
    // Selection-identity evidence backing `identical_output`: the group
    // fan-out must not change a single selection. Compare the
    // full selection vector and the repair overrides — not just the
    // aggregate counters — between thread counts.
    if baseline.selection != parallel.selection || baseline.overrides != parallel.overrides {
        return Err(CliError::Internal(
            "parallel selection diverged from single-threaded baseline".to_owned(),
        ));
    }
    let tel = parallel.stats.select_telemetry;
    let select_json = format!(
        concat!(
            "{{\"edges\": {}, \"probes\": {}, ",
            "\"edges_pruned\": {}, \"pairs_far\": {}}}"
        ),
        tel.edges, tel.probes, tel.edges_pruned, tel.pairs_far,
    );
    let speedup =
        baseline.stats.total_time().as_secs_f64() / parallel.stats.total_time().as_secs_f64();
    let deadline_overhead_pct = (budgeted.stats.total_time().as_secs_f64()
        / parallel.stats.total_time().as_secs_f64()
        - 1.0)
        * 100.0;
    let json = format!(
        concat!(
            "{{\n  \"workload\": \"{}\",\n  \"components\": {},\n  \"nets\": {},\n",
            "  \"threads\": {},\n  \"threads_requested\": {},\n",
            "  \"threads_effective\": {},\n  \"git_rev\": \"{}\",\n  \"host_threads\": {},\n",
            "  \"timestamp\": \"{}\",\n  \"baseline\": {},\n  \"parallel\": {},\n",
            "  \"deadline_mode\": {},\n  \"deadline_overhead_pct\": {:.3},\n",
            "  \"select\": {},\n",
            "  \"speedup\": {:.3},\n  \"identical_output\": true\n}}\n"
        ),
        workload,
        design.components().len(),
        design.nets().len(),
        threads,
        threads,
        threads_effective,
        git_rev(),
        host_threads,
        pao_obs::clock::now_iso8601(),
        stats_json(&baseline.stats),
        stats_json(&parallel.stats),
        stats_json(&budgeted.stats),
        deadline_overhead_pct,
        select_json,
        speedup,
    );
    // Without --out the JSON goes to stdout: the committed BENCH_pao.json
    // is a history array that scripts/bench_steps.sh appends to.
    emit(args.value("--out"), &json)?;
    let speedup_label = if threads_effective == 1 {
        " (single-core host: determinism check only, not a performance number)"
    } else {
        ""
    };
    eprintln!(
        "speedup {speedup:.2}x{speedup_label}, deadline-mode overhead {deadline_overhead_pct:+.2}%"
    );
    Ok(())
}

/// `pao sweep --case NAME [--threads N] [--dir DIR]`: one point of the
/// size-sweep matrix. Generates the case **streamed to disk** (scale
/// cases never materialize in memory), then measures the full
/// cold-start pipeline — streaming DEF parse, analysis phases — and
/// prints one JSON object with timings and the process peak RSS.
///
/// Run each size in its own process: `VmHWM` is a per-process
/// high-water mark, so sharing a process would attribute the largest
/// size's memory to every smaller one. `scripts/bench_sweep.sh` does
/// exactly that and folds the points into BENCH_pao.json.
fn cmd_sweep(args: &Args) -> Result<(), CliError> {
    use std::time::Instant;
    let name = args.value("--case").unwrap_or("ispd18s_test2");
    let threads = parse_threads(args)?;
    let dir = std::path::PathBuf::from(args.value("--dir").unwrap_or("target/sweep"));
    std::fs::create_dir_all(&dir)
        .map_err(|e| CliError::input(format!("cannot create `{}`: {e}", dir.display())))?;
    let lef_path = dir.join(format!("{name}.lef"));
    let def_path = dir.join(format!("{name}.def"));

    let gen_start = Instant::now();
    if write_case(name, &lef_path, &def_path)?.is_none() {
        return Err(CliError::usage(format!(
            "unknown case `{name}` (suite cases via `pao gen list`, scale cases: scale_20k, scale_200k, scale_1m)"
        )));
    }
    let gen_s = gen_start.elapsed().as_secs_f64();

    // Cold-start parse, timed: LEF (small, in-memory) + streaming DEF.
    let parse_start = Instant::now();
    let lef_text = std::fs::read_to_string(&lef_path)
        .map_err(|e| CliError::input(format!("cannot read `{}`: {e}", lef_path.display())))?;
    let tech = pao_tech::lef::parse_lef(&lef_text).map_err(|e| {
        CliError::Input(PaoError::input_at(
            lef_path.display().to_string(),
            e.line,
            e.message,
        ))
    })?;
    drop(lef_text);
    let design = pao_design::def::parse_def_file(&def_path, &tech).map_err(|e| {
        CliError::Input(PaoError::input_at(
            def_path.display().to_string(),
            e.line,
            e.message,
        ))
    })?;
    let parse_s = parse_start.elapsed().as_secs_f64();

    eprintln!(
        "sweep `{name}`: {} components parsed in {parse_s:.2}s, analyzing ({threads} thread(s)) …",
        design.components().len()
    );
    let result = PinAccessOracle::with_config(PaoConfig {
        threads,
        ..PaoConfig::default()
    })
    .analyze(&tech, &design);
    let stats = &result.stats;
    println!(
        concat!(
            "{{\"case\": \"{}\", \"components\": {}, \"nets\": {}, \"threads\": {}, ",
            "\"gen_s\": {:.3}, \"parse_s\": {:.3}, \"apgen_s\": {:.3}, \"pattern_s\": {:.3}, ",
            "\"cluster_s\": {:.3}, \"total_s\": {:.3}, \"unique_instances\": {}, ",
            "\"total_aps\": {}, \"failed_pins\": {}, \"peak_rss_mb\": {}}}"
        ),
        name,
        design.components().len(),
        design.nets().len(),
        threads,
        gen_s,
        parse_s,
        stats.apgen_time.as_secs_f64(),
        stats.pattern_time.as_secs_f64(),
        stats.cluster_time.as_secs_f64(),
        stats.total_time().as_secs_f64(),
        stats.unique_instances,
        stats.total_aps,
        stats.failed_pins,
        pao_obs::peak_rss_mb().unwrap_or(0),
    );
    Ok(())
}

/// Appends a warning when a memo cache's hit rate is under 5% — at that
/// point the cache is pure bookkeeping cost. Runs with fewer than 1000
/// lookups stay quiet (tiny workloads say nothing about the cache).
fn cache_warning(out: &mut String, name: &str, hits: u64, lookups: u64) {
    if lookups >= 1000 && hits * 20 < lookups {
        out.push_str(&format!(
            "warning: {name} hit rate {:.1}% (< 5% over {lookups} lookups) — the cache is nearly dead; prefer running without it\n",
            100.0 * hits as f64 / lookups as f64,
        ));
    }
}

fn cmd_profile(args: &Args) -> Result<(), CliError> {
    // `pao profile --socket|--tcp` queries a *live* daemon's stats
    // instead of running a local workload.
    if args.value("--socket").is_some() || args.value("--tcp").is_some() {
        return serve::cmd_profile_serve(args);
    }
    let (tech, design, workload) = load_workload(args)?;
    let threads = parse_threads(args)?;
    if let Some(spec) = args.value("--inject-fault") {
        arm_injected_fault(spec)?;
    }
    let (deadline, watchdog) = parse_budget_flags(args)?;
    pao_obs::reset();
    pao_obs::enable_metrics();
    if args.value("--trace").is_some() {
        pao_obs::enable_trace();
    }
    let cfg = PaoConfig {
        threads,
        ..PaoConfig::default()
    };
    let cfg_ab = cfg.clone();
    let budget = RunBudget {
        deadline,
        watchdog,
        ..RunBudget::unlimited()
    };
    let result = PinAccessOracle::with_config(cfg).analyze_with_budget(&tech, &design, budget);
    pao_core::fault::disarm();
    pao_obs::disable_all();
    let dump = pao_obs::take_trace();
    let stats = &result.stats;
    let mut out = String::new();
    out.push_str(&format!(
        "profile: {workload} ({} components, {} nets, {threads} threads)\n\n",
        design.components().len(),
        design.nets().len(),
    ));
    // Per-phase wall vs busy time. select/repair/audit split the cluster
    // step's wall clock (repair includes the shared context build);
    // utilization is busy / (wall x threads).
    out.push_str("phase        wall_s     busy_s  thr   util%\n");
    let row = |out: &mut String, name: &str, w: Duration, busy_us: u64, thr: usize| {
        let (w, busy_s) = (w.as_secs_f64(), busy_us as f64 / 1e6);
        let util = if w > 0.0 {
            100.0 * busy_s / (w * thr.max(1) as f64)
        } else {
            0.0
        };
        out.push_str(&format!(
            "{name:<10} {w:>8.3} {busy_s:>10.3} {thr:>4} {util:>6.1}\n"
        ));
    };
    row(
        &mut out,
        "apgen",
        stats.apgen_time,
        stats.apgen_exec.total_busy_us(),
        stats.apgen_exec.threads,
    );
    row(
        &mut out,
        "pattern",
        stats.pattern_time,
        stats.pattern_exec.total_busy_us(),
        stats.pattern_exec.threads,
    );
    let cluster_busy = stats.cluster_exec.total_busy_us()
        + stats.repair_exec.total_busy_us()
        + stats.audit_exec.total_busy_us();
    let cluster_thr = stats
        .cluster_exec
        .threads
        .max(stats.repair_exec.threads)
        .max(stats.audit_exec.threads);
    row(
        &mut out,
        "cluster",
        stats.cluster_time,
        cluster_busy,
        cluster_thr,
    );
    row(
        &mut out,
        "  select",
        stats.select_time,
        stats.cluster_exec.total_busy_us(),
        stats.cluster_exec.threads,
    );
    row(
        &mut out,
        "  repair",
        stats.repair_time,
        stats.repair_exec.total_busy_us(),
        stats.repair_exec.threads,
    );
    row(
        &mut out,
        "  audit",
        stats.audit_time,
        stats.audit_exec.total_busy_us(),
        stats.audit_exec.threads,
    );
    out.push_str(&format!(
        "run        {:>8.3}\n",
        stats.total_time().as_secs_f64()
    ));
    if let Some(mb) = pao_obs::peak_rss_mb() {
        out.push_str(&format!("peak RSS   {mb:>8} MB\n"));
    }
    // Symbol interner high-water marks (also exported as the
    // `symbol.interned` / `symbol.arena_bytes` gauges): distinct names
    // interned process-wide and the leaked bytes backing them. Reloading
    // the same design names costs nothing — interning dedups.
    let sym = pao_tech::symbol_stats();
    pao_obs::gauge_max("symbol.interned", sym.interned as u64);
    pao_obs::gauge_max("symbol.arena_bytes", sym.arena_bytes as u64);
    out.push_str(&format!(
        "symbols    {:>8} interned, {} KB arena\n",
        sym.interned,
        sym.arena_bytes / 1024,
    ));
    if !stats.quarantined.is_empty() {
        out.push_str(&format!(
            "\nquarantined items : {} (run completed degraded)\n",
            stats.quarantined.len()
        ));
        for fault in &stats.quarantined {
            out.push_str(&format!("  {fault}\n"));
        }
    }
    if stats.deadline.budget.is_some() || stats.deadline.is_partial() {
        out.push_str(&format!("\ndeadline          : {}\n", stats.deadline));
        for skip in &stats.deadline.skipped {
            out.push_str(&format!("  skipped {skip}\n"));
        }
        for stall in &stats.deadline.stalls {
            out.push_str(&format!("  {stall}\n"));
        }
        let beats = stats.metrics.gauge("watchdog.heartbeats");
        let stalls_n = stats.metrics.counter("watchdog.stalls");
        if beats > 0 || stalls_n > 0 {
            out.push_str(&format!(
                "watchdog          : {stalls_n} stall(s) detected, {beats} heartbeat(s) observed\n"
            ));
        }
    }
    let m = &stats.metrics;
    out.push_str("\nmetrics:\n");
    out.push_str(&m.to_table());
    let hits = m.counter("apgen.via_memo.hits");
    let misses = m.counter("apgen.via_memo.misses");
    if hits + misses > 0 {
        out.push_str(&format!(
            "\nvia-memo hit rate : {:.1}% ({hits} hits / {} probes)\n",
            100.0 * hits as f64 / (hits + misses) as f64,
            hits + misses,
        ));
    }
    // Intra-cell sharing (DESIGN.md §7), beside the paper's dedup of
    // components into unique instances: unique instances per (master,
    // orientation) class, candidates tried per distinct candidate
    // validated, and unique instances per pattern DP group.
    let classes = m.counter("apgen.classes");
    if classes > 0 {
        let per = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
        let unique = stats.unique_instances as u64;
        let tried: u64 = m
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("apgen.tried."))
            .map(|(_, &n)| n)
            .sum();
        let validated = m.counter("apgen.validated");
        let groups = m.counter("pattern.groups");
        out.push_str(&format!(
            "sharing           : {} components -> {unique} unique instances ({:.2}x dedup) -> {classes} (master, orient) classes\n",
            design.components().len(),
            per(design.components().len() as u64, unique),
        ));
        out.push_str(&format!(
            "                    {validated} distinct candidates validated of {tried} tried ({:.2}x); {groups} pattern groups ({:.2}x)\n",
            per(tried, validated),
            per(unique, groups),
        ));
    }
    let probes = m.counter("drc.probes");
    let rejects = m.counter("drc.rejects");
    let early = m.counter("drc.early_exit");
    if probes > 0 {
        out.push_str(&format!(
            "drc early-exit    : {:.1}% of {rejects} rejects ({probes} probes)\n",
            if rejects > 0 {
                100.0 * early as f64 / rejects as f64
            } else {
                0.0
            },
        ));
    }
    // Cluster-selection fast path: how much work the DP pruning and the
    // pair-distance early-out saved this run.
    let tel = &stats.select_telemetry;
    if tel.edges > 0 {
        let total_edges = tel.edges + tel.edges_pruned;
        out.push_str("\nselection fast path:\n");
        out.push_str(&format!(
            "  edges pruned    : {:.1}% ({} of {total_edges} DP edges)\n",
            if total_edges > 0 {
                100.0 * tel.edges_pruned as f64 / total_edges as f64
            } else {
                0.0
            },
            tel.edges_pruned,
        ));
        out.push_str(&format!(
            "  via-pair probes : {} ({} pairs skipped as far)\n",
            tel.probes, tel.pairs_far,
        ));
    }
    cache_warning(&mut out, "apgen via-memo", hits, hits + misses);
    // Per-type-pair acceptance, derived from the apgen.tried.* /
    // apgen.accepted.* counter families (pair = pref_nonpref classes).
    let mut acceptance = String::new();
    for (name, &tried) in &m.counters {
        let Some(pair) = name.strip_prefix("apgen.tried.") else {
            continue;
        };
        if tried == 0 {
            continue;
        }
        let accepted = m.counter(&format!("apgen.accepted.{pair}"));
        acceptance.push_str(&format!(
            "  {pair:<14} {accepted:>9} / {tried:<9} {:>5.1}%\n",
            100.0 * accepted as f64 / tried as f64,
        ));
    }
    if !acceptance.is_empty() {
        out.push_str("AP acceptance by type pair (accepted / tried):\n");
        out.push_str(&acceptance);
    }
    // Decision-ledger A/B (--ledger): rerun the same configuration with
    // the ledger off and then on — neither rerun has metrics or tracing
    // active — to isolate the ledger's own overhead. DESIGN.md §15
    // budgets it at under 2% of analysis time.
    if args.flag("--ledger") {
        let run = |ledger_on: bool| {
            pao_obs::reset();
            if ledger_on {
                pao_obs::enable_ledger();
            }
            let r = PinAccessOracle::with_config(cfg_ab.clone()).analyze(&tech, &design);
            pao_obs::disable_all();
            (r.stats.total_time().as_secs_f64(), pao_obs::take_ledger())
        };
        eprintln!("profiling `{workload}`: ledger-off reference …");
        let (off_s, _) = run(false);
        eprintln!("profiling `{workload}`: ledger-on rerun …");
        let (on_s, ledger) = run(true);
        let overhead_pct = if off_s > 0.0 {
            (on_s / off_s - 1.0) * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "\ndecision ledger   : {} records ({} dropped), overhead {overhead_pct:+.2}% (on {on_s:.3}s vs off {off_s:.3}s)\n",
            ledger.records.len(),
            ledger.dropped,
        ));
    }
    if let Some(path) = args.value("--trace") {
        // Item spans are recorded from the executor's own busy-time
        // stopwatch, so their total should cover the reported busy time.
        let item_ns: u64 = dump
            .events
            .iter()
            .filter(|e| !e.name.starts_with("phase."))
            .map(|e| e.dur_ns)
            .sum();
        let busy_us: u64 = [
            &stats.apgen_exec,
            &stats.pattern_exec,
            &stats.cluster_exec,
            &stats.repair_exec,
            &stats.audit_exec,
        ]
        .iter()
        .map(|r| r.total_busy_us())
        .sum();
        if busy_us > 0 {
            out.push_str(&format!(
                "\ntrace: item spans cover {:.1}% of reported worker busy time\n",
                (item_ns as f64 / 1e3) / busy_us as f64 * 100.0,
            ));
        }
        write_trace(path, &dump)?;
    }
    emit(args.value("--report"), &out)
}

const USAGE: &str = "\
pao — pin access oracle for detailed routing

USAGE:
  pao analyze <tech.lef> <design.def> [--threads N] [--k N] [--no-bca]
              [--report FILE] [--svg INSTANCE:FILE]
              [--metrics] [--trace FILE] [--degraded-ok]
              [--inject-fault PHASE[:INDEX]]
              [--deadline-ms MS] [--deadline-ok] [--checkpoint DIR]
              [--resume] [--watchdog-ms MS]
              [--inject-stall PHASE[:INDEX[:MS]]]
              [--dump-selection FILE]
  pao route   <tech.lef> <design.def> [--naive] [--report FILE]
  pao drc     <tech.lef> <design.def>
  pao gen     <case|list> --lef FILE --def FILE
  pao bench   [<tech.lef> <design.def>] [--case NAME] [--threads N]
              [--out FILE]
  pao sweep   [--case NAME] [--threads N] [--dir DIR]
  pao profile [<tech.lef> <design.def>] [--case NAME] [--threads N]
              [--trace FILE] [--report FILE] [--deadline-ms MS]
              [--watchdog-ms MS] [--inject-stall PHASE[:INDEX[:MS]]]
              [--ledger]
  pao explain <tech.lef> <design.def> (--pin INSTANCE/PIN | --inst NAME)
              [--threads N] [--report FILE]
  pao report  <tech.lef> <design.def> [--out FILE] [--top N]
              [--heatmap FILE] [--threads N]
  pao serve   <tech.lef> <design.def> (--socket PATH | --tcp ADDR)
              [--threads N] [--deadline-ms MS] [--checkpoint DIR]
              [--resume] [--no-ledger] [--journal FILE]
              [--max-frame-bytes N] [--max-conns N] [--max-requests N]
              [--idle-ms MS] [--max-inflight N]
              [--inject-fault PHASE[:INDEX]]
              [--inject-stall PHASE[:INDEX[:MS]]]
  pao call    (--socket PATH | --tcp ADDR) [--timeout-ms MS] [REQUEST …]
  pao soak    (--socket PATH | --tcp ADDR) --mode hostile|eco|emit
              [--seed N] [--clients N] [--duration-ms MS] [--count N]
              [--inst NAME] [--pin NAME] [--journal FILE]
              [--timeout-ms MS]

  analyze runs all compute phases on every available core by default;
  --threads 1 reproduces the paper's single-threaded measurement mode
  (output is identical for every thread count). bench times a
  single-threaded baseline against a parallel run and prints the JSON
  comparison (to --out FILE if given; scripts/bench_steps.sh appends it
  to the BENCH_pao.json history). profile re-runs the analysis with
  pipeline instrumentation enabled and prints a per-phase breakdown:
  wall vs per-worker busy time, utilization, counters and histograms
  (via-memo hit rate, AP acceptance per type pair, DP sizes, …) plus
  the process peak RSS. sweep measures one size point end to end —
  generate (streamed to disk), cold-start parse, analyze — and prints
  a one-line JSON record with per-phase seconds and peak RSS; scale
  cases (scale_20k, scale_200k, scale_1m) are tiled replications of
  the ispd18s_test2 shape that never materialize in memory during
  generation. Run each size in its own process so peak RSS stays
  per-size (scripts/bench_sweep.sh automates the matrix).
  --trace (on analyze or profile) additionally writes a Chrome
  trace-event JSON with one track per worker, viewable in Perfetto
  (https://ui.perfetto.dev) or chrome://tracing.

  Fault isolation: a work item that panics is quarantined — the run
  completes without it and reports it under `quarantined` in the stats.
  By default a degraded run exits 5; pass --degraded-ok to accept it
  (exit 0). --inject-fault PHASE[:INDEX] deterministically panics one
  work item (phases: apgen, pattern, select, repair, audit) to exercise
  that path.

  Selection fast path: cluster selection prunes dominated DP edges.
  Pruning is output-invariant, and --dump-selection FILE (analyze)
  writes a deterministic per-component selection dump to prove it;
  dumps from any thread count are byte-identical. bench fails with exit 4 if a single
  selection differs between thread counts; profile prints the
  pruned-edge share and probe counts under `selection fast path`, and
  warns when any memo cache's hit rate drops below 5%.

  Decision ledger: explain re-runs the analysis with the decision
  ledger enabled and prints one instance's causal chain — every AP
  candidate tried with its reject rule and sub-check, the surviving
  APs, pattern-DP penalties, the selected pattern, boundary conflicts
  with neighbors and repair actions. report aggregates the same ledger
  into deterministic JSONL (per-master and per-pin AP counts, a reject
  histogram by rule, the --top N access-poorest pins), validating every
  line with the in-repo JSON parser; --heatmap FILE additionally
  renders a per-layer reject-density SVG. Both commands are
  byte-identical across --threads values. profile --ledger measures
  the ledger's cost with an off/on A/B rerun (budget: < 2%).

  Deadlines: --deadline-ms MS makes the analysis *anytime* — the budget
  is split across phases (by this checkpoint directory's recorded phase
  history when available), in-flight items finish when it expires, and
  unstarted items degrade like quarantined ones. A partial run exits 6
  unless --deadline-ok is given. --checkpoint DIR keeps a
  signature-keyed analysis store there, written after each phase;
  --resume reloads it so a cut (or killed) run restores finished work
  instead of redoing it, matching an uninterrupted run as long as the
  store's input stamp (LEF, apgen/pattern settings, track patterns)
  matches — otherwise it is rejected with a warning and recomputed. A
  watchdog (armed automatically with any deadline flag; threshold floor
  --watchdog-ms) detects stalled workers and converts the stall into a
  degraded run. --inject-stall PHASE[:INDEX[:MS]] deterministically
  stalls one work item to exercise that path. Exit codes: 0 ok, 2 usage,
  3 bad input, 4 internal bug, 5 degraded without --degraded-ok,
  6 deadline-partial without --deadline-ok, 7 client transport failure
  (call/soak could not reach or keep talking to the daemon).

  Service mode: serve loads LEF/DEF once, analyzes, and answers
  line-delimited JSON-RPC over a Unix socket or TCP. Methods:
  get_pin_access {inst,pin}, get_instance_patterns {inst},
  get_cluster_selection {inst}, eco_update {moves:[{inst,x,y|dx,dy}],
  deadline_ms?}, dump_selection, stats, batch (params = array of
  requests, fanned across --threads workers), shutdown. Queries are
  pure reads over immutable snapshots — concurrent clients get
  byte-identical answers — and eco_update re-analyzes copy-on-write.
  A move that keeps every signature cached over a repair-free snapshot
  takes the window tail: clusters re-form only in the row stripes the
  move touches, only the selection groups holding a changed cluster
  are re-solved (selection is local to a group), and only the pins
  whose probe windows can reach a moved or re-patterned cell are
  re-probed (a verdict depends only on shapes inside its windows).
  Otherwise, or when a re-probed pin is dirty, the full select →
  repair → audit tail runs; the reply's tail field says which. Both equal
  a one-shot analyze of the moved placement (--deadline-ms sets the
  default per-ECO budget; --checkpoint DIR [--resume] warm-starts the
  load). call is the matching client: each REQUEST argument (or stdin
  line) is sent as one request, responses print one per line; it
  retries connecting with bounded exponential backoff (deterministic
  jitter) until --timeout-ms (default 15000), which also bounds each
  response read — transport failures exit 7, in-band JSON-RPC errors
  print normally and exit 0.

  Hardening: the daemon bounds frame size (--max-frame-bytes, default
  1 MiB; oversized input is drained and rejected with error -32002
  without closing the connection), concurrent connections (--max-conns,
  default 64; excess is shed with -32001 + data.retry_after_ms),
  requests per connection (--max-requests → -32003), connection idle
  lifetime (--idle-ms, default 300000; 0 disables) and concurrently
  dispatching requests (--max-inflight → -32001). Accepted eco_update
  batches are fsynced to a write-ahead journal (--journal FILE, or
  <checkpoint-dir>/eco.journal with --checkpoint) before analysis and
  replayed on --resume, so a killed daemon restarts bit-identical to
  one that never died. An ECO whose re-analysis degrades (deadline,
  watchdog stall, injected or real fault) keeps the previous snapshot
  serving and answers -32004 with the {quarantined,skipped,stalls}
  breakdown. Counters for all of it live in the `serve` object of the
  stats method; `pao profile --socket|--tcp` renders them from a live
  daemon. soak is the chaos client (scripts/soak_serve.sh drives it):
  --mode hostile floods concurrent valid/malformed/oversized/half-open
  traffic, --mode eco streams random ECO batches (tolerates the daemon
  dying mid-burst), --mode emit prints a journal's batches back as
  eco_update request lines for serial replay through call.
";

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1).collect());
    let result = match args.positional(0).ok() {
        Some("analyze") => cmd_analyze(&args),
        Some("route") => cmd_route(&args),
        Some("drc") => cmd_drc(&args),
        Some("gen") => cmd_gen(&args),
        Some("bench") => cmd_bench(&args),
        Some("sweep") => cmd_sweep(&args),
        Some("profile") => cmd_profile(&args),
        Some("explain") => explain::cmd_explain(&args),
        Some("report") => explain::cmd_report(&args),
        Some("serve") => serve::cmd_serve(&args),
        Some("call") => serve::cmd_call(&args),
        Some("soak") => soak::cmd_soak(&args),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            e.report();
            ExitCode::from(e.exit_code())
        }
    }
}
