//! `perfbench` — the benchmark of record for the PAAF pin access oracle.
//!
//! ```text
//! perfbench --workload suite_cold|scale_200k --seed N
//!           --seconds S --trace 0|1 --pao PATH [--work DIR] [--threads N]
//! ```
//!
//! Every workload runs the same steps on its seeded designs: a reference
//! analysis at one thread, then segments of set-up (LEF+DEF parse), cold
//! analysis passes at `--threads` and a serve slice in which a
//! `pao serve --journal` daemon answers a closed-loop reader and an ECO
//! writer, and finally an in-process replay of the ECOs. With
//! `--trace 0` the last stdout line reports the end-to-end metrics; with
//! `--trace 1` the per-layer ones, and a Chrome trace is written. See
//! README.md for the workloads and the metric → layer → workload map.

mod inputs;
mod layers;
mod serve;
mod stats;
mod trace;

use inputs::{Case, Files, Mover};
use layers::Query;
use pao_design::Design;
use pao_ptest::Rng;
use pao_tech::Tech;
use serve::EcoLoad;
use stats::{median, quantile, ratio};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Connected pins sampled as the read population.
const READ_POPULATION: usize = 20_000;
/// In-process reads timed in the traced run.
const INPROCESS_READS: usize = 20_000;

/// One workload: which designs, which one is served, and how the run's
/// seconds split between analysis passes and the serve window.
struct Workload {
    cases: Vec<Case>,
    /// Index into `cases` of the design the daemon serves.
    serve: usize,
    /// Share of `--seconds` spent on analysis passes.
    analyze_share: f64,
    /// How each serve slice loads the writer.
    eco_load: EcoLoad,
    /// Target length of one segment (set-up, passes, serve slice).
    segment_s: f64,
}

fn workload(name: &str, seed: u64) -> Option<Workload> {
    Some(match name {
        "suite_cold" => Workload {
            cases: ["ispd18s_test4", "ispd18s_test5", "ispd18s_test6", "aes14"]
                .iter()
                .map(|c| Case::suite(c, seed))
                .collect(),
            serve: 3,
            analyze_share: 0.6,
            eco_load: EcoLoad::Mixed(Duration::from_millis(150)),
            segment_s: 6.0,
        },
        "scale_200k" => Workload {
            cases: vec![Case::scale("scale_200k", seed)],
            serve: 0,
            analyze_share: 0.6,
            eco_load: EcoLoad::After(2),
            segment_s: 12.0,
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pao: PathBuf,
    work: PathBuf,
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |key: &str| get(key).ok_or_else(|| format!("missing {key}"));
    let num = |key: &str, v: &str| -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("{key} expects a whole number, got `{v}`"))
    };
    let nproc = pao_core::default_threads();
    Ok(Args {
        workload: need("--workload")?.to_owned(),
        seed: num("--seed", need("--seed")?)?,
        seconds: num("--seconds", need("--seconds")?)? as f64,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            v => return Err(format!("--trace expects 0 or 1, got `{v}`")),
        },
        pao: PathBuf::from(need("--pao")?),
        work: PathBuf::from(get("--work").unwrap_or(".bench_build/work")),
        threads: match get("--threads") {
            Some(v) => num("--threads", v)?.max(1) as usize,
            None => nproc,
        },
    })
}

/// Attempted and failed operations; a failure also prints why.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: FAILED {}", what());
            }
        }
    }
}

/// Named metrics in print order, with units and sample counts.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str, usize)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.0.push((name, value, unit, samples));
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u, _)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", items.join(","))
    }
}

/// FNV-1a digest of a selection dump.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Per-pass sums over the workload's designs, read from the `PaoStats`
/// each traced analysis returns plus the timed outside layer calls.
#[derive(Default)]
struct PassLayers {
    run_s: f64,
    apgen_s: f64,
    apgen_busy_s: f64,
    pattern_s: f64,
    pattern_busy_s: f64,
    post_pattern_s: f64,
    select_busy_s: f64,
    repair_busy_s: f64,
    audit_busy_s: f64,
    unique_extract_s: f64,
    cluster_build_s: f64,
    select_s: f64,
    audit_s: f64,
    clusters: f64,
    select_probes: f64,
    select_edges: f64,
    select_pruned: f64,
    drc_probes: f64,
    drc_rejects: f64,
    drc_early: f64,
    memo_hits: f64,
    memo_misses: f64,
    repair_rounds: f64,
    fast_clean: f64,
    scan_memo: f64,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, tally, metrics)) => {
            println!("{:<24} {:>16} unit   samples", "metric", "value");
            for (n, v, u, samples) in &metrics.0 {
                println!("{n:<24} {v:>16.6} {u:<6} {samples}");
            }
            println!(
                "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
                tally.attempted.max(1),
                tally.failed,
                metrics.json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::from(1)
        }
    }
}

/// The result stamp: revision, toolchain, host cores, threads, seed.
fn stamp(args: &Args) {
    let nproc = pao_core::default_threads();
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    let oversubscribed = args.threads > nproc;
    println!(
        "stamp: {{\"git_rev\":{},\"rustc\":{},\"nproc\":{nproc},\"threads\":{},\"client_threads\":2,\
         \"oversubscribed\":{oversubscribed},\"workload\":{},\"seed\":{},\"trace\":{}}}",
        pao_obs::json::quote(&env("PERFBENCH_REV")),
        pao_obs::json::quote(&env("PERFBENCH_RUSTC")),
        args.threads,
        pao_obs::json::quote(&args.workload),
        args.seed,
        u8::from(args.trace),
    );
    if oversubscribed {
        eprintln!(
            "perfbench: WARNING threads {} > nproc {nproc}: results are oversubscribed",
            args.threads
        );
    }
}

/// The state one run accumulates across its phases.
struct Run<'a> {
    args: &'a Args,
    w: Workload,
    pao: PathBuf,
    files: Vec<Files>,
    tr: Tracer,
    tally: Tally,
    /// One-thread reference: selection digest and total APs per design.
    refs: Vec<(u64, usize)>,
    setup_s: Vec<f64>,
    tech_parse_s: Vec<f64>,
    design_parse_s: Vec<f64>,
    plain_pass_s: Vec<f64>,
    traced_pass_s: Vec<f64>,
    layers: Vec<PassLayers>,
    passes: usize,
}

impl Run<'_> {
    /// Parses every design `reps` times (one `setup_s` sample each) and
    /// returns the last parse.
    fn setup(&mut self, reps: usize) -> Result<Vec<(Tech, Design)>, String> {
        let mut world = Vec::new();
        for _ in 0..reps {
            world.clear();
            let rep = self.tr.open("setup", None);
            let t0 = Instant::now();
            let (mut ts, mut ds) = (0.0, 0.0);
            for f in &self.files {
                let (tech, s) = self
                    .tr
                    .time("tech.parse", rep, || layers::parse_lef(&f.lef));
                let tech = tech?;
                ts += s;
                let (design, s) = self
                    .tr
                    .time("design.parse", rep, || layers::parse_def(&f.def, &tech));
                ds += s;
                world.push((tech, design?));
            }
            self.setup_s.push(secs(t0.elapsed()));
            self.tr.close(rep);
            self.tech_parse_s.push(ts);
            self.design_parse_s.push(ds);
        }
        Ok(world)
    }

    /// Analysis passes over `world` for `budget` (at least one). In the
    /// traced run every other pass runs with `pao_obs` metrics and tracing
    /// on and is followed by timed calls into the individual layers.
    fn analyze(&mut self, world: &[(Tech, Design)], budget: Duration) {
        let threads = self.args.threads;
        let t_start = Instant::now();
        loop {
            let traced = self.args.trace && self.passes % 2 == 1;
            if traced {
                pao_obs::enable_metrics();
                pao_obs::enable_trace();
            }
            let p = self.tr.open("pass", None);
            let t0 = Instant::now();
            let results: Vec<_> = world
                .iter()
                .map(|(tech, design)| {
                    self.tr
                        .time("analyze", p, || layers::analyze(tech, design, threads))
                        .0
                })
                .collect();
            let wall = secs(t0.elapsed());
            pao_obs::disable_all();
            for (i, r) in results.iter().enumerate() {
                let s = &r.stats;
                let pass = self.passes;
                self.tally.check(
                    digest(&layers::selection_dump(&world[i].1, r)) == self.refs[i].0
                        && s.failed_pins == 0
                        && s.dirty_aps == 0,
                    || {
                        format!(
                            "pass {pass} {}: selection differs from the 1-thread reference",
                            self.w.cases[i].name()
                        )
                    },
                );
            }
            if traced {
                self.traced_pass_s.push(wall);
                let l = self.layer_calls(world, &results, p);
                self.layers.push(l);
            } else {
                self.plain_pass_s.push(wall);
            }
            self.tr.close(p);
            self.passes += 1;
            if t_start.elapsed() >= budget {
                return;
            }
        }
    }

    /// One traced pass's layer figures: `PaoStats` fields and counters,
    /// plus timed calls into the public layer entry points.
    fn layer_calls(
        &mut self,
        world: &[(Tech, Design)],
        results: &[pao_core::PaoResult],
        p: Option<usize>,
    ) -> PassLayers {
        let threads = self.args.threads;
        let mut l = PassLayers::default();
        for ((tech, design), r) in world.iter().zip(results) {
            let s = &r.stats;
            let busy = |e: &pao_core::ExecReport| e.total_busy_us() as f64 / 1e6;
            l.run_s += secs(s.run_time);
            l.apgen_s += secs(s.apgen_time);
            l.pattern_s += secs(s.pattern_time);
            l.post_pattern_s += secs(s.cluster_time);
            l.apgen_busy_s += busy(&s.apgen_exec);
            l.pattern_busy_s += busy(&s.pattern_exec);
            l.select_busy_s += busy(&s.cluster_exec);
            l.repair_busy_s += busy(&s.repair_exec);
            l.audit_busy_s += busy(&s.audit_exec);
            let t = &s.select_telemetry;
            l.select_probes += t.probes as f64;
            l.select_edges += t.edges as f64;
            l.select_pruned += t.edges_pruned as f64;
            let c = |n: &str| s.metrics.counter(n) as f64;
            l.drc_probes += c("drc.probes");
            l.drc_rejects += c("drc.rejects");
            l.drc_early += c("drc.early_exit");
            l.memo_hits += c("apgen.via_memo.hits");
            l.memo_misses += c("apgen.via_memo.misses");
            l.repair_rounds += c("repair.rounds");
            l.fast_clean += c("repair.scan.fast_clean");
            l.scan_memo += c("repair.scan.memo_hits") + c("repair.scan.memo_misses");

            let (n, t) = self
                .tr
                .time("unique.extract", p, || layers::extract_unique(tech, design));
            self.tally.check(n == s.unique_instances, || {
                "unique.extract count differs".to_owned()
            });
            l.unique_extract_s += t;
            let (n, t) = self
                .tr
                .time("cluster.build", p, || layers::cluster_count(tech, design));
            l.clusters += n as f64;
            l.cluster_build_s += t;
            let ((sel, _), t) = self
                .tr
                .time("select", p, || layers::select(tech, design, r, threads));
            self.tally.check(sel == r.selection, || {
                "select differs from the analysis".to_owned()
            });
            l.select_s += t;
            let ((pins, failed), t) = self
                .tr
                .time("audit", p, || layers::audit(tech, design, r, threads));
            self.tally.check(pins == s.total_pins && failed == 0, || {
                "audit differs".to_owned()
            });
            l.audit_s += t;
        }
        l
    }
}

fn run(args: &Args) -> Result<(bool, Tally, Metrics), String> {
    let w = workload(&args.workload, args.seed)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let pao = std::fs::canonicalize(&args.pao)
        .map_err(|e| format!("pao binary {}: {e}", args.pao.display()))?;
    std::fs::create_dir_all(&args.work).map_err(|e| e.to_string())?;
    std::env::set_current_dir(&args.work).map_err(|e| e.to_string())?;
    stamp(args);
    let threads = args.threads;
    let files: Vec<Files> = w
        .cases
        .iter()
        .map(Case::write)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("writing inputs: {e}"))?;
    let mut run = Run {
        args,
        w,
        pao,
        files,
        tr: Tracer::new(args.trace),
        tally: Tally::default(),
        refs: Vec::new(),
        setup_s: Vec::new(),
        tech_parse_s: Vec::new(),
        design_parse_s: Vec::new(),
        plain_pass_s: Vec::new(),
        traced_pass_s: Vec::new(),
        layers: Vec::new(),
        passes: 0,
    };
    if args.trace {
        pao_obs::reset();
    }

    // Reference: one-thread analysis digests (the correctness gate).
    let mut world = run.setup(SETUP_REPS)?;
    let comps: usize = world.iter().map(|(_, d)| d.components().len()).sum();
    let mut unique_instances = 0usize;
    for (i, (tech, design)) in world.iter().enumerate() {
        let r = layers::analyze(tech, design, 1);
        let s = &r.stats;
        run.tally.check(
            s.failed_pins == 0 && s.dirty_aps == 0 && s.quarantined.is_empty(),
            || {
                format!(
                    "reference {}: failed {} dirty {}",
                    run.w.cases[i].name(),
                    s.failed_pins,
                    s.dirty_aps
                )
            },
        );
        unique_instances += s.unique_instances;
        run.refs
            .push((digest(&layers::selection_dump(design, &r)), s.total_aps));
    }
    let total_aps: usize = run.refs.iter().map(|r| r.1).sum();

    // The read population and the ECO mover come from the served design.
    let (serve_tech, serve_design) = &world[run.w.serve];
    let mut rng = Rng::new(args.seed ^ 0x9EAD_5EED);
    let pins = layers::connected_pins(serve_design);
    if pins.is_empty() {
        return Err("served design has no connected pins".to_owned());
    }
    let queries: Vec<Query> = (0..READ_POPULATION)
        .map(|_| {
            let (inst, pin) = rng.pick(&pins).clone();
            match rng.gen_range(0..3u32) {
                0 => Query::PinAccess { inst, pin },
                1 => Query::Patterns { inst },
                _ => Query::Cluster { inst },
            }
        })
        .collect();
    drop(pins);
    let mut mover = Mover::new(serve_tech, serve_design, args.seed);
    let daemon = serve::Daemon::spawn(&run.pao, &run.files[run.w.serve], threads)?;

    // The measured time is cut into segments of set-up, analysis passes
    // and a serve slice, so every metric samples the whole run rather
    // than one stretch of a host whose speed drifts.
    let segments = (args.seconds / run.w.segment_s).round().max(1.0);
    let seg = args.seconds / segments;
    let mut log = serve::ServeLog::default();
    for k in 0..segments as u64 {
        if k > 0 {
            world = run.setup(SETUP_REPS)?;
        }
        run.analyze(&world, Duration::from_secs_f64(seg * run.w.analyze_share));
        world.clear();
        let (reads0, ecos0) = (log.reads.len(), log.ecos.len());
        let slice = run.tr.open("serve", None);
        let window = Duration::from_secs_f64(seg * (1.0 - run.w.analyze_share));
        log.drive(
            &daemon,
            &queries,
            &mut mover,
            run.w.eco_load,
            window,
            args.seed,
        )?;
        run.tr.close(slice);
        for op in log.reads[reads0..].iter().chain(&log.ecos[ecos0..]) {
            let name = match op.method {
                "get_pin_access" => "wire.get_pin_access",
                "get_instance_patterns" => "wire.get_instance_patterns",
                "get_cluster_selection" => "wire.get_cluster_selection",
                _ => "wire.eco_update",
            };
            run.tr.record(name, op.sent, op.done, slice, Some(op.id));
        }
    }
    drop(world);
    let (daemon_dump, daemon_aps) = serve::final_state(&daemon)?;
    daemon.shutdown()?;
    for op in log.reads.iter().chain(&log.ecos) {
        run.tally.check(op.ok, || {
            format!("{} request {} failed its checks", op.method, op.id)
        });
    }

    // ---- Replay: the same applied batches on an in-process service
    // must land on the daemon's final selection.
    let rp = run.tr.open("replay", None);
    let f = &run.files[run.w.serve];
    let serve_tech = layers::parse_lef(&f.lef)?;
    let serve_design = layers::parse_def(&f.def, &serve_tech)?;
    let (mut svc, _) = run.tr.time("service.start", rp, || {
        layers::start_service(serve_tech, serve_design, threads)
    });
    let (mut eco_ms, mut fast, mut hits) = (Vec::new(), 0usize, 0usize);
    for batch in &log.applied {
        let (reply, s) = run
            .tr
            .time("service.eco", rp, || layers::eco(&mut svc, batch));
        eco_ms.push(s * 1e3);
        match reply {
            Ok(r) => {
                run.tally.check(r.failed_pins == 0, || {
                    "replayed ECO left failed pins".to_owned()
                });
                fast += usize::from(!r.full_reanalysis);
                hits += r.cache_hits;
            }
            Err(e) => run
                .tally
                .check(false, || format!("replayed ECO rejected: {e}")),
        }
    }
    run.tally.check(svc.selection_dump() == daemon_dump, || {
        "daemon selection differs from the in-process replay".to_owned()
    });
    run.tally
        .check(svc.result().stats.total_aps == daemon_aps, || {
            "daemon total_aps differs from the in-process replay".to_owned()
        });
    let mut query_us = Vec::new();
    let mut append_ms = Vec::new();
    if args.trace {
        for i in 0..INPROCESS_READS {
            let q = &queries[i % queries.len()];
            let (ok, s) = run.tr.time("service.query", rp, || q.run(&svc));
            run.tally
                .check(ok, || format!("in-process {} failed", q.method()));
            query_us.push(s * 1e6);
        }
        let mut journal = layers::journal(std::path::Path::new("bench.journal"))?;
        for batch in &log.applied {
            let (r, s) = run.tr.time("journal.append", rp, || {
                layers::journal_append(&mut journal, batch)
            });
            r?;
            append_ms.push(s * 1e3);
        }
    }
    drop(svc);
    run.tr.close(rp);

    let program_spans = pao_obs::take_trace();
    let bench_rss = pao_obs::peak_rss_bytes().map_or(0.0, |b| b as f64 / f64::from(1u32 << 20));

    // ---- Report.
    let read_lat: Vec<f64> = log.reads.iter().map(serve::Op::latency).collect();
    let eco_lat: Vec<f64> = log.ecos.iter().map(serve::Op::latency).collect();
    let reads_ok = log.reads.iter().filter(|o| o.ok).count();
    let read_p50_us = median(&read_lat) * 1e6;
    // The read tail per bucket of serve time, then the median bucket: a
    // burst of host noise moves one bucket, not the figure. Even so it
    // spreads too much from run to run on a shared host to carry a bound,
    // so it is reported beside the metrics and as a per-layer figure.
    let buckets = log.reads_per_bucket();
    let p99: Vec<f64> = buckets
        .iter()
        .map(|ops| quantile(&ops.iter().map(|o| o.latency()).collect::<Vec<_>>(), 0.99))
        .collect();
    let read_p99_us = median(&p99) * 1e6;
    let late_ms = log
        .ecos
        .iter()
        .map(|o| (o.sent - o.due).as_secs_f64() * 1e3)
        .fold(0.0, f64::max);
    println!(
        "serve: {} reads (p99 {read_p99_us:.3} us), {} ECOs ({} applied), window {:.2} s, \
         writer ran up to {late_ms:.3} ms late",
        log.reads.len(),
        log.ecos.len(),
        log.applied.len(),
        log.window_s
    );
    let Run {
        tally,
        tr,
        setup_s,
        tech_parse_s,
        design_parse_s,
        plain_pass_s,
        traced_pass_s,
        layers,
        w,
        ..
    } = run;
    let correct = tally.failed == 0 && reads_ok > 0 && !log.applied.is_empty();
    let mut m = Metrics::default();
    if !args.trace {
        m.put("setup_s", median(&setup_s), "s", setup_s.len());
        m.put("analyze_s", median(&plain_pass_s), "s", plain_pass_s.len());
        m.put("peak_rss_mb", bench_rss, "MiB", 1);
        m.put("total_aps", total_aps as f64, "count", w.cases.len());
        m.put("read_p50_us", read_p50_us, "us", read_lat.len());
        m.put(
            "read_qps",
            ratio(reads_ok as f64, log.window_s),
            "1/s",
            read_lat.len(),
        );
        m.put("eco_p50_ms", median(&eco_lat) * 1e3, "ms", eco_lat.len());
        return Ok((correct, tally, m));
    }

    let n = layers.len();
    let med = |f: &dyn Fn(&PassLayers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let threads_f = threads as f64;
    m.put(
        "tech.parse_s",
        median(&tech_parse_s),
        "s",
        tech_parse_s.len(),
    );
    m.put(
        "design.parse_s",
        median(&design_parse_s),
        "s",
        design_parse_s.len(),
    );
    m.put(
        "design.comps_per_s",
        ratio(comps as f64, median(&design_parse_s)),
        "1/s",
        design_parse_s.len(),
    );
    m.put("unique.extract_s", med(&|l| l.unique_extract_s), "s", n);
    m.put("unique.instances", unique_instances as f64, "count", 1);
    m.put(
        "unique.dedup_ratio",
        ratio(comps as f64, unique_instances as f64),
        "ratio",
        1,
    );
    m.put("apgen.s", med(&|l| l.apgen_s), "s", n);
    m.put("apgen.busy_s", med(&|l| l.apgen_busy_s), "s", n);
    m.put(
        "apgen.accept_frac",
        med(&|l| 1.0 - ratio(l.drc_rejects, l.drc_probes)),
        "frac",
        n,
    );
    m.put(
        "apgen.via_memo_hit_frac",
        med(&|l| ratio(l.memo_hits, l.memo_hits + l.memo_misses)),
        "frac",
        n,
    );
    m.put("drc.probes", med(&|l| l.drc_probes), "count", n);
    m.put(
        "drc.early_exit_frac",
        med(&|l| ratio(l.drc_early, l.drc_probes)),
        "frac",
        n,
    );
    m.put("pattern.s", med(&|l| l.pattern_s), "s", n);
    m.put("pattern.busy_s", med(&|l| l.pattern_busy_s), "s", n);
    m.put("cluster.build_s", med(&|l| l.cluster_build_s), "s", n);
    m.put("cluster.count", med(&|l| l.clusters), "count", n);
    m.put("select.s", med(&|l| l.select_s), "s", n);
    m.put("select.busy_s", med(&|l| l.select_busy_s), "s", n);
    m.put("select.probes", med(&|l| l.select_probes), "count", n);
    m.put(
        "select.prune_frac",
        med(&|l| ratio(l.select_pruned, l.select_edges + l.select_pruned)),
        "frac",
        n,
    );
    m.put("post_pattern.s", med(&|l| l.post_pattern_s), "s", n);
    m.put("repair.busy_s", med(&|l| l.repair_busy_s), "s", n);
    m.put("repair.rounds", med(&|l| l.repair_rounds), "count", n);
    m.put(
        "repair.fast_clean_frac",
        med(&|l| ratio(l.fast_clean, l.fast_clean + l.scan_memo)),
        "frac",
        n,
    );
    m.put("audit.s", med(&|l| l.audit_s), "s", n);
    m.put("audit.busy_s", med(&|l| l.audit_busy_s), "s", n);
    m.put(
        "layers.coverage_frac",
        med(&|l| ratio(l.apgen_s + l.pattern_s + l.select_s, l.run_s)),
        "frac",
        n,
    );
    m.put(
        "exec.util",
        med(&|l| {
            let busy = l.apgen_busy_s
                + l.pattern_busy_s
                + l.select_busy_s
                + l.repair_busy_s
                + l.audit_busy_s;
            ratio(busy, l.run_s * threads_f)
        }),
        "frac",
        n,
    );
    let query_med = median(&query_us);
    m.put("service.query_us", query_med, "us", query_us.len());
    m.put("service.eco_ms", median(&eco_ms), "ms", eco_ms.len());
    m.put(
        "eco.fast_path_frac",
        ratio(fast as f64, eco_ms.len() as f64),
        "frac",
        eco_ms.len(),
    );
    m.put("eco.cache_hits", hits as f64, "count", eco_ms.len());
    m.put(
        "journal.append_ms",
        median(&append_ms),
        "ms",
        append_ms.len(),
    );
    m.put(
        "wire.overhead_us",
        read_p50_us - query_med,
        "us",
        read_lat.len(),
    );
    m.put("read.p99_us", read_p99_us, "us", buckets.len());
    m.put(
        "eco.p90_ms",
        quantile(&eco_lat, 0.9) * 1e3,
        "ms",
        eco_lat.len(),
    );
    m.put(
        "read.blocked_frac",
        ratio(log.blocked_reads() as f64, log.reads.len() as f64),
        "frac",
        log.reads.len(),
    );
    m.put(
        "trace.overhead_frac",
        ratio(median(&traced_pass_s), median(&plain_pass_s)) - 1.0,
        "frac",
        traced_pass_s.len(),
    );

    // Self time per layer from the recorded spans, then the trace file.
    println!("self time per span: median (us), total (s), count");
    for (name, v) in tr.self_times() {
        let total: f64 = v.iter().sum();
        println!(
            "  {name:<28} {:>14.3} {total:>12.6} {:>8}",
            median(&v) * 1e6,
            v.len()
        );
    }
    let path = format!("trace-{}-{}.json", args.workload, args.seed);
    std::fs::write(&path, tr.to_chrome_json(&program_spans)?).map_err(|e| e.to_string())?;
    println!("trace: {}", args.work.join(&path).display());
    Ok((correct, tally, m))
}
