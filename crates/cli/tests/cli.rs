//! End-to-end tests of the `pao` binary.

use std::path::PathBuf;
use std::process::Command;

fn pao() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pao"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pao-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = pao().output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn gen_list_names_all_cases() {
    let out = pao().args(["gen", "list"]).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ispd18s_test1"));
    assert!(text.contains("ispd18s_test10"));
    assert!(text.contains("aes14"));
}

#[test]
fn gen_analyze_drc_pipeline() {
    let lef = tmp("p.lef");
    let def = tmp("p.def");
    let out = pao()
        .args(["gen", "smoke", "--lef"])
        .arg(&lef)
        .arg("--def")
        .arg(&def)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = pao()
        .arg("analyze")
        .arg(&lef)
        .arg(&def)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("failed pins      : 0"), "{text}");

    let out = pao()
        .arg("drc")
        .arg(&lef)
        .arg(&def)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 static violations"));
}

#[test]
fn analyze_svg_renders_instance() {
    let lef = tmp("s.lef");
    let def = tmp("s.def");
    assert!(pao()
        .args(["gen", "smoke", "--lef"])
        .arg(&lef)
        .arg("--def")
        .arg(&def)
        .status()
        .expect("spawn")
        .success());
    let svg = tmp("u0.svg");
    let out = pao()
        .arg("analyze")
        .arg(&lef)
        .arg(&def)
        .arg("--svg")
        .arg(format!("u0:{}", svg.display()))
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let content = std::fs::read_to_string(&svg).expect("svg written");
    assert!(content.starts_with("<svg"));
}

#[test]
fn profile_smoke_writes_valid_chrome_trace() {
    let trace = tmp("profile_trace.json");
    let out = pao()
        .args(["profile", "--case", "smoke", "--threads", "2", "--trace"])
        .arg(&trace)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("via-memo hit rate"), "{text}");
    assert!(text.contains("(master, orient) classes"), "{text}");
    assert!(text.contains("distinct candidates validated"), "{text}");
    assert!(text.contains("pattern groups"), "{text}");
    assert!(text.contains("AP acceptance by type pair"), "{text}");
    assert!(text.contains("trace: item spans cover"), "{text}");
    // The trace must be valid JSON carrying the Chrome trace envelope
    // with at least one complete ("ph":"X") span event.
    let json = std::fs::read_to_string(&trace).expect("trace written");
    pao_obs::json::validate(&json).expect("trace is valid JSON");
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""));
    for phase in ["apgen", "pattern", "select", "repair", "audit"] {
        let name = format!("\"name\":\"phase.{phase}\"");
        assert_eq!(json.matches(&name).count(), 1, "one {name} span");
    }
}

#[test]
fn analyze_metrics_flag_prints_counter_table() {
    let lef = tmp("m.lef");
    let def = tmp("m.def");
    assert!(pao()
        .args(["gen", "smoke", "--lef"])
        .arg(&lef)
        .arg("--def")
        .arg(&def)
        .status()
        .expect("spawn")
        .success());
    let out = pao()
        .arg("analyze")
        .arg(&lef)
        .arg(&def)
        .arg("--metrics")
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("metrics:"), "{text}");
    assert!(text.contains("apgen.via_memo."), "{text}");
    assert!(text.contains("select.cluster_size"), "{text}");
}

#[test]
fn bench_json_is_stamped_with_provenance() {
    let out_path = tmp("bench.json");
    let out = pao()
        .args(["bench", "--case", "smoke", "--threads", "2", "--out"])
        .arg(&out_path)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&out_path).expect("bench json written");
    pao_obs::json::validate(&json).expect("bench output is valid JSON");
    for key in ["\"git_rev\":", "\"host_threads\":", "\"timestamp\":"] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    // ISO-8601 UTC stamp: "YYYY-MM-DDTHH:MM:SSZ".
    let stamp = json
        .split("\"timestamp\": \"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("timestamp value");
    assert_eq!(stamp.len(), 20, "unexpected timestamp shape: {stamp}");
    assert!(stamp.ends_with('Z') && stamp.as_bytes()[10] == b'T');
}

#[test]
fn bench_without_out_prints_json_and_leaves_history_alone() {
    let dir = tmp("bench-cwd");
    std::fs::create_dir_all(&dir).expect("bench dir");
    let history = dir.join("BENCH_pao.json");
    let sentinel = "[{\"workload\": \"sentinel\"}]\n";
    std::fs::write(&history, sentinel).expect("sentinel written");
    let out = pao()
        .args(["bench", "--case", "smoke", "--threads", "2"])
        .current_dir(&dir)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    pao_obs::json::validate(&json).expect("stdout is valid JSON");
    assert!(json.contains("\"identical_output\": true"), "{json}");
    let kept = std::fs::read_to_string(&history).expect("history readable");
    assert_eq!(kept, sentinel, "bench must not overwrite BENCH_pao.json");
}

#[test]
fn missing_file_reports_error() {
    let out = pao()
        .args(["analyze", "/nonexistent.lef", "/nonexistent.def"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(3), "input errors exit 3");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn exit_codes_distinguish_usage_input_and_degraded() {
    // Usage: no arguments at all.
    let out = pao().output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    // Usage: bad flag value.
    let out = pao()
        .args(["profile", "--case", "smoke", "--threads", "banana"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    // Input: malformed LEF names the file and line in the error chain.
    let lef = tmp("bad.lef");
    std::fs::write(&lef, "LAYER M1\nTHIS IS NOT LEF\n").expect("write");
    let out = pao()
        .arg("analyze")
        .arg(&lef)
        .arg("/nonexistent.def")
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("input error"), "{err}");
    assert!(err.contains("bad.lef"), "{err}");
}

#[test]
fn def_coordinate_beyond_32_bits_is_an_input_error() {
    // A component placed far outside 32-bit DBU used to panic analysis
    // items in the geometry arithmetic (exit 5); it is rejected at parse
    // time instead, naming the file and line.
    let lef = tmp("far.lef");
    let def = tmp("far.def");
    let out = pao()
        .args(["gen", "smoke", "--lef"])
        .arg(&lef)
        .arg("--def")
        .arg(&def)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&def).expect("read def");
    let mut line = 0;
    let mut far = String::new();
    for (i, l) in text.lines().enumerate() {
        match l.find("PLACED ( ") {
            Some(at) if l.trim_start().starts_with("- u0 ") => {
                let at = at + "PLACED ( ".len();
                let end = at + l[at..].find(' ').expect("x coordinate");
                far += &format!("{}9223372036854775000{}\n", &l[..at], &l[end..]);
                line = i + 1;
            }
            _ => far += &format!("{l}\n"),
        }
    }
    assert!(line > 0, "u0 not placed in the smoke DEF");
    std::fs::write(&def, far).expect("write def");
    let out = pao()
        .arg("analyze")
        .arg(&lef)
        .arg(&def)
        .output()
        .expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "input errors exit 3: {err}");
    assert!(
        err.contains("far.def") && err.contains(&format!("line {line}")),
        "{err}"
    );
    assert!(err.contains("does not fit in 32 bits"), "{err}");
}

#[test]
fn injected_fault_degrades_and_exit_codes_honor_degraded_ok() {
    let lef = tmp("f.lef");
    let def = tmp("f.def");
    assert!(pao()
        .args(["gen", "smoke", "--lef"])
        .arg(&lef)
        .arg("--def")
        .arg(&def)
        .status()
        .expect("spawn")
        .success());
    // Without --degraded-ok: the run completes, reports the quarantined
    // item, and exits 5.
    let out = pao()
        .arg("analyze")
        .arg(&lef)
        .arg(&def)
        .args(["--inject-fault", "apgen:0"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(5), "degraded without --degraded-ok");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("quarantined      : 1"), "{text}");
    assert!(text.contains("[apgen]"), "{text}");
    assert!(
        text.contains("injected fault at apgen.instance[0]"),
        "{text}"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("degraded"), "{err}");
    // With --degraded-ok: same degraded report, exit 0.
    let out = pao()
        .arg("analyze")
        .arg(&lef)
        .arg(&def)
        .args(["--inject-fault", "audit:1", "--degraded-ok"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0), "--degraded-ok accepts degraded");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("quarantined      : 1"), "{text}");
    assert!(text.contains("[audit]"), "{text}");
    // Unknown phase name is a usage error.
    let out = pao()
        .arg("analyze")
        .arg(&lef)
        .arg(&def)
        .args(["--inject-fault", "bogus"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn corrupt_cache_is_rejected_and_rebuilt() {
    let lef = tmp("c.lef");
    let def = tmp("c.def");
    assert!(pao()
        .args(["gen", "smoke", "--lef"])
        .arg(&lef)
        .arg("--def")
        .arg(&def)
        .status()
        .expect("spawn")
        .success());
    let ckpt = tmp("c-ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    std::fs::create_dir_all(&ckpt).expect("checkpoint dir");
    // Seed the store with garbage (e.g. a truncated write from a killed
    // process): the resumed analysis must warn, recompute, and exit 0.
    std::fs::write(
        ckpt.join("analysis.ckpt"),
        "PAO-CACHE v1\nENTRY master=X orient=N",
    )
    .expect("write");
    let resume = || {
        pao()
            .arg("analyze")
            .arg(&lef)
            .arg(&def)
            .arg("--checkpoint")
            .arg(&ckpt)
            .arg("--resume")
            .output()
            .expect("spawn")
    };
    let out = resume();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("rejected, recomputing"), "{err}");
    // The rebuilt store is valid: a second resume loads it cleanly (all
    // hits, no rejection warning).
    let out = resume();
    assert_eq!(out.status.code(), Some(0));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("rejected"), "{err}");
    assert!(err.contains(" hits, 0 misses"), "{err}");
}

/// `lef` without the `VIA` blocks whose name `keep` refuses.
fn drop_vias(lef: &str, keep: impl Fn(&str) -> bool) -> String {
    let mut out = String::new();
    let mut skipping: Option<String> = None;
    for line in lef.lines() {
        let t: Vec<&str> = line.split_whitespace().collect();
        if skipping.is_none() && t.len() > 1 && t[0] == "VIA" && !keep(t[1]) {
            skipping = Some(t[1].to_owned());
        }
        match &skipping {
            None => {
                out.push_str(line);
                out.push('\n');
            }
            Some(name) if t.len() > 1 && t[0] == "END" && t[1] == name => skipping = None,
            Some(_) => {}
        }
    }
    out
}

/// A store written from one set of inputs, resumed with another — BCA
/// off, a via removed, all but one via removed, a coarser metal2 track
/// step — is rejected with a warning and recomputed: exit 0, and the
/// selection dump and counter lines equal a fresh run's exactly.
#[test]
fn resumed_store_of_other_inputs_matches_fresh_run() {
    let gen = |case: &str| {
        let (lef, def) = (
            tmp(&format!("in-{case}.lef")),
            tmp(&format!("in-{case}.def")),
        );
        assert!(pao()
            .args(["gen", case, "--lef"])
            .arg(&lef)
            .arg("--def")
            .arg(&def)
            .status()
            .expect("spawn")
            .success());
        (lef, def)
    };
    let (t2_lef, t2_def) = gen("ispd18s_test2");
    let (lef, def) = gen("smoke");
    let text = |p: &PathBuf| std::fs::read_to_string(p).expect("read input");
    let write = |name: &str, body: String| {
        let p = tmp(name);
        std::fs::write(&p, body).expect("write input");
        p
    };
    let no_via11 = write("in-no-via11.lef", drop_vias(&text(&lef), |v| v != "via1_1"));
    let via10 = write("in-via10.lef", drop_vias(&text(&lef), |v| v == "via1_0"));
    let step800 = write(
        "in-step800.def",
        text(&def).replace("STEP 400 LAYER metal2 ;", "STEP 800 LAYER metal2 ;"),
    );
    assert_ne!(
        text(&step800),
        text(&def),
        "fixture must change a track step"
    );
    let cases = [
        ("no-bca", (&t2_lef, &t2_def), (&t2_lef, &t2_def), "--no-bca"),
        ("no-via1_1", (&lef, &def), (&no_via11, &def), ""),
        ("via1_0-only", (&lef, &def), (&via10, &def), ""),
        ("metal2-step-800", (&lef, &def), (&lef, &step800), ""),
    ];
    for (name, (lef1, def1), (lef2, def2), flags) in cases {
        let ckpt = tmp(&format!("stamp-{name}"));
        let _ = std::fs::remove_dir_all(&ckpt);
        let out = pao()
            .arg("analyze")
            .arg(lef1)
            .arg(def1)
            .arg("--checkpoint")
            .arg(&ckpt)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(0), "{name}: store-writing run");
        let run = |tag: &str, resume: bool| {
            let (report, dump) = (
                tmp(&format!("stamp-{name}-{tag}.txt")),
                tmp(&format!("stamp-{name}-{tag}.sel")),
            );
            let mut cmd = pao();
            cmd.arg("analyze")
                .arg(lef2)
                .arg(def2)
                .args(flags.split_whitespace());
            if resume {
                cmd.arg("--checkpoint").arg(&ckpt).arg("--resume");
            }
            let out = cmd
                .arg("--report")
                .arg(&report)
                .arg("--dump-selection")
                .arg(&dump)
                .output()
                .expect("spawn");
            let err = String::from_utf8_lossy(&out.stderr).into_owned();
            assert_eq!(out.status.code(), Some(0), "{name} {tag}: {err}");
            let report = std::fs::read_to_string(report).expect("report");
            (report, std::fs::read(dump).expect("dump"), err)
        };
        let (resumed, resumed_dump, err) = run("resumed", true);
        let (fresh, fresh_dump, _) = run("fresh", false);
        assert!(err.contains("rejected, recomputing"), "{name}: {err}");
        assert!(resumed_dump == fresh_dump, "{name}: selection dump differs");
        assert_eq!(
            counter_lines(&resumed),
            counter_lines(&fresh),
            "{name}: counters differ"
        );
        let _ = std::fs::remove_dir_all(&ckpt);
    }
}

#[test]
fn profile_reports_quarantined_section_on_injected_fault() {
    // Healthy run: no quarantine section.
    let out = pao()
        .args(["profile", "--case", "smoke", "--threads", "2"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        !text.contains("quarantined items"),
        "healthy run must not print a quarantine section: {text}"
    );
    // Faulted run: the section lists the item and the fault.quarantined.*
    // counter shows up in the metrics table.
    let out = pao()
        .args([
            "profile",
            "--case",
            "smoke",
            "--threads",
            "2",
            "--inject-fault",
            "pattern:0",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("quarantined items : 1"), "{text}");
    assert!(text.contains("[pattern]"), "{text}");
    assert!(text.contains("fault.quarantined.pattern"), "{text}");
}

/// Stat lines that must be reproducible across runs (timings and
/// parallel-executor lines are wall-clock and excluded).
fn counter_lines(report: &str) -> Vec<&str> {
    const STABLE: [&str; 10] = [
        "unique instances",
        "total APs",
        "dirty APs",
        "pins without APs",
        "off-track APs",
        "repaired pins",
        "total pins",
        "failed pins",
        "quarantined",
        "  FAILED",
    ];
    report
        .lines()
        .filter(|l| STABLE.iter().any(|p| l.starts_with(p)))
        .collect()
}

#[test]
fn deadline_exit_codes_honor_deadline_ok() {
    let lef = tmp("d.lef");
    let def = tmp("d.def");
    assert!(pao()
        .args(["gen", "smoke", "--lef"])
        .arg(&lef)
        .arg("--def")
        .arg(&def)
        .status()
        .expect("spawn")
        .success());
    // A zero budget skips everything skippable: the run still completes,
    // prints the partial stats, and exits 6 without --deadline-ok.
    let out = pao()
        .arg("analyze")
        .arg(&lef)
        .arg(&def)
        .args(["--deadline-ms", "0"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(6), "deadline-partial exits 6");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("deadline         :"), "{text}");
    assert!(text.contains("deadline)"), "skip reasons shown: {text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("deadline hit"), "{err}");
    assert!(err.contains("--deadline-ok"), "{err}");
    // With --deadline-ok: same partial report, exit 0.
    let out = pao()
        .arg("analyze")
        .arg(&lef)
        .arg(&def)
        .args(["--deadline-ms", "0", "--deadline-ok"])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "--deadline-ok accepts partial: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn checkpoint_resume_reproduces_uninterrupted_report() {
    let lef = tmp("r.lef");
    let def = tmp("r.def");
    assert!(pao()
        .args(["gen", "smoke", "--lef"])
        .arg(&lef)
        .arg("--def")
        .arg(&def)
        .status()
        .expect("spawn")
        .success());
    for threads in ["1", "4"] {
        let t = format!("--threads={threads}");
        // Uninterrupted reference run.
        let clean_report = tmp(&format!("clean-{threads}.txt"));
        assert!(pao()
            .arg("analyze")
            .arg(&lef)
            .arg(&def)
            .arg(&t)
            .arg("--report")
            .arg(&clean_report)
            .status()
            .expect("spawn")
            .success());
        // Budget-cut run persisting finished work into a checkpoint dir.
        let ckpt = tmp(&format!("ckpt-{threads}"));
        let _ = std::fs::remove_dir_all(&ckpt);
        let out = pao()
            .arg("analyze")
            .arg(&lef)
            .arg(&def)
            .arg(&t)
            .args(["--deadline-ms", "3", "--deadline-ok", "--checkpoint"])
            .arg(&ckpt)
            .output()
            .expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Resume with a fresh (unlimited) budget: exit 0, and the stable
        // stat lines match the uninterrupted run exactly.
        let resumed_report = tmp(&format!("resumed-{threads}.txt"));
        let out = pao()
            .arg("analyze")
            .arg(&lef)
            .arg(&def)
            .arg(&t)
            .args(["--checkpoint"])
            .arg(&ckpt)
            .arg("--resume")
            .arg("--report")
            .arg(&resumed_report)
            .output()
            .expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("rejected"), "clean checkpoints reload: {err}");
        let clean = std::fs::read_to_string(&clean_report).expect("clean report");
        let resumed = std::fs::read_to_string(&resumed_report).expect("resumed report");
        assert_eq!(
            counter_lines(&clean),
            counter_lines(&resumed),
            "resume x{threads} reproduces the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&ckpt);
    }
}

#[test]
fn injected_stall_is_detected_never_hangs() {
    let lef = tmp("w.lef");
    let def = tmp("w.def");
    assert!(pao()
        .args(["gen", "smoke", "--lef"])
        .arg(&lef)
        .arg("--def")
        .arg(&def)
        .status()
        .expect("spawn")
        .success());
    // One apgen worker sleeps 600 ms mid-item; a 100 ms stall floor makes
    // the watchdog trip long before the sleep ends. The run must complete
    // degraded (exit 6: partial without --deadline-ok), never hang.
    let out = pao()
        .arg("analyze")
        .arg(&lef)
        .arg(&def)
        .args([
            "--threads",
            "2",
            "--inject-stall",
            "apgen:0:600",
            "--watchdog-ms",
            "100",
            "--metrics",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(6), "stall-cut run is partial");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stalled on item 0"), "{text}");
    assert!(text.contains("stalls 1"), "{text}");
    assert!(text.contains("watchdog.stalls"), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("1 worker stall(s)"), "{err}");
}

#[test]
fn budget_flag_misuse_is_a_usage_error() {
    let lef = tmp("u.lef");
    let def = tmp("u.def");
    assert!(pao()
        .args(["gen", "smoke", "--lef"])
        .arg(&lef)
        .arg("--def")
        .arg(&def)
        .status()
        .expect("spawn")
        .success());
    // (flags..., expected stderr fragment) — all exit 2 (usage), not 4.
    let cases: &[(&[&str], &str)] = &[
        (&["--inject-fault"], "requires a value"),
        (&["--inject-stall"], "requires a value"),
        (&["--inject-stall", "bogus:0"], "unknown phase"),
        (&["--inject-stall", "apgen:0:5:9"], "PHASE[:INDEX[:MS]]"),
        (&["--deadline-ms", "banana"], "--deadline-ms"),
        (&["--watchdog-ms", "-3"], "--watchdog-ms"),
        (&["--resume"], "--resume requires --checkpoint"),
    ];
    for (flags, fragment) in cases {
        let out = pao()
            .arg("analyze")
            .arg(&lef)
            .arg(&def)
            .args(*flags)
            .output()
            .expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flags:?} is a usage error: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(fragment), "{flags:?}: {err}");
    }
}

#[test]
fn profile_prints_deadline_section_when_budgeted() {
    let out = pao()
        .args([
            "profile",
            "--case",
            "smoke",
            "--threads",
            "2",
            "--deadline-ms",
            "60000",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("deadline          :"), "{text}");
}

#[test]
fn report_is_deterministic_jsonl_and_heatmap_renders() {
    let lef = tmp("rep.lef");
    let def = tmp("rep.def");
    assert!(pao()
        .args(["gen", "smoke", "--lef"])
        .arg(&lef)
        .arg("--def")
        .arg(&def)
        .status()
        .expect("spawn")
        .success());
    let r1 = tmp("report1.jsonl");
    let r4 = tmp("report4.jsonl");
    let heat = tmp("rejects.svg");
    for (threads, out_path) in [("1", &r1), ("4", &r4)] {
        let mut cmd = pao();
        cmd.arg("report")
            .arg(&lef)
            .arg(&def)
            .args(["--threads", threads, "--top", "3", "--out"])
            .arg(out_path);
        if threads == "4" {
            cmd.arg("--heatmap").arg(&heat);
        }
        let out = cmd.output().expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let a = std::fs::read_to_string(&r1).expect("report written");
    let b = std::fs::read_to_string(&r4).expect("report written");
    assert_eq!(a, b, "report must be byte-identical across thread counts");
    // Round-trip contract: every JSONL line survives the in-repo strict
    // JSON parser, and the aggregate kinds are all present.
    for line in a.lines() {
        pao_obs::json::validate(line).expect("report line is valid JSON");
    }
    for kind in ["summary", "reject", "master", "pin", "access_poor"] {
        assert!(a.contains(&format!("\"kind\": \"{kind}\"")), "{a}");
    }
    let svg = std::fs::read_to_string(&heat).expect("heatmap written");
    assert!(svg.starts_with("<svg") && svg.contains("rejects"), "{svg}");
}

#[test]
fn explain_prints_causal_chain_and_validates_targets() {
    let lef = tmp("ex.lef");
    let def = tmp("ex.def");
    assert!(pao()
        .args(["gen", "smoke", "--lef"])
        .arg(&lef)
        .arg("--def")
        .arg(&def)
        .status()
        .expect("spawn")
        .success());
    let out = pao()
        .arg("explain")
        .arg(&lef)
        .arg(&def)
        .args(["--pin", "u1/CK", "--threads", "2"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("explain: u1"), "{text}");
    assert!(text.contains("candidate(s) tried"), "{text}");
    assert!(text.contains("surviving access points"), "{text}");
    assert!(text.contains("final access"), "{text}");
    assert!(text.contains("selected pattern"), "{text}");
    // Missing target: usage error. Unknown instance: input error.
    let out = pao()
        .arg("explain")
        .arg(&lef)
        .arg(&def)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let out = pao()
        .arg("explain")
        .arg(&lef)
        .arg(&def)
        .args(["--inst", "nosuchinst"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn profile_ledger_overhead_coexists_with_trace_export() {
    let trace = tmp("ledger_trace.json");
    let out = pao()
        .args([
            "profile",
            "--case",
            "smoke",
            "--threads",
            "2",
            "--ledger",
            "--trace",
        ])
        .arg(&trace)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("decision ledger"), "{text}");
    assert!(text.contains("records"), "{text}");
    // The ledger A/B rerun must not corrupt the Chrome trace of the
    // instrumented run: the export still validates end to end.
    let json = std::fs::read_to_string(&trace).expect("trace written");
    pao_obs::json::validate(&json).expect("trace is valid JSON");
    assert!(json.contains("\"ph\":\"X\""));
}

#[test]
fn unknown_case_reports_error() {
    let out = pao()
        .args(["gen", "bogus", "--lef", "/tmp/x.lef", "--def", "/tmp/x.def"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown case"));
}

/// Full daemon round trip: serve a generated design over a Unix socket,
/// script a query batch through `pao call` (pin access, patterns,
/// selection, a batch, one ECO), and require the daemon's selection dump
/// to match a one-shot `pao analyze --dump-selection` byte-for-byte —
/// before and after a signature-preserving ECO. Shutdown must exit 0.
#[test]
fn serve_daemon_matches_one_shot_analyze_and_shuts_down() {
    use std::process::Stdio;
    let lef = tmp("srv.lef");
    let def = tmp("srv.def");
    assert!(pao()
        .args(["gen", "smoke", "--lef"])
        .arg(&lef)
        .arg("--def")
        .arg(&def)
        .status()
        .expect("spawn")
        .success());

    // One-shot reference dump (the determinism contract makes the thread
    // count irrelevant; use 2 to match the daemon).
    let refdump = tmp("srv_ref.txt");
    assert!(pao()
        .arg("analyze")
        .arg(&lef)
        .arg(&def)
        .args(["--threads", "2", "--dump-selection"])
        .arg(&refdump)
        .status()
        .expect("spawn")
        .success());
    let reference = std::fs::read_to_string(&refdump).expect("ref dump");

    let sock = tmp("srv.sock");
    let mut daemon = pao()
        .arg("serve")
        .arg(&lef)
        .arg(&def)
        .arg("--socket")
        .arg(&sock)
        .args(["--threads", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");

    let call = |requests: &[String]| -> Vec<String> {
        let mut c = pao();
        c.arg("call").arg("--socket").arg(&sock);
        for r in requests {
            c.arg(r);
        }
        let out = c.output().expect("call");
        assert!(
            out.status.success(),
            "call failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(str::to_owned)
            .collect()
    };
    let result_of = |line: &str| -> pao_obs::json::Value {
        let resp = pao_obs::json::parse(line).expect("response is valid JSON");
        resp.get("result").expect("result present").clone()
    };

    // The daemon's dump must equal the one-shot dump.
    let lines = call(&[r#"{"id":1,"method":"dump_selection"}"#.to_owned()]);
    let dump = result_of(&lines[0])
        .get("dump")
        .and_then(|d| d.as_str().map(str::to_owned))
        .expect("dump string");
    assert_eq!(dump, reference, "daemon dump must match one-shot analyze");

    // Pick an instance whose master has a pin named A — not every smoke
    // master does (the flops use D/CK/Q), so scan the generated LEF for
    // qualifying masters and the DEF for the first component using one.
    let lef_text = std::fs::read_to_string(&lef).expect("lef");
    let mut masters_with_a = std::collections::HashSet::new();
    let mut cur = None;
    for line in lef_text.lines() {
        let mut t = line.split_whitespace();
        match (t.next(), t.next()) {
            (Some("MACRO"), Some(name)) => cur = Some(name),
            (Some("PIN"), Some("A")) => {
                if let Some(m) = cur {
                    masters_with_a.insert(m);
                }
            }
            _ => {}
        }
    }
    let def_text = std::fs::read_to_string(&def).expect("def");
    let inst = def_text
        .lines()
        .filter_map(|line| {
            let mut t = line.split_whitespace();
            (t.next() == Some("-")).then(|| (t.next(), t.next()))
        })
        .find_map(|(i, m)| match (i, m) {
            (Some(i), Some(m)) if masters_with_a.contains(m) => Some(i.to_owned()),
            _ => None,
        })
        .expect("smoke design has an instance with pin A");

    let lines = call(&[
        format!(r#"{{"id":2,"method":"get_pin_access","params":{{"inst":"{inst}","pin":"A"}}}}"#),
        format!(
            concat!(
                r#"{{"id":3,"method":"batch","params":["#,
                r#"{{"id":31,"method":"get_instance_patterns","params":{{"inst":"{i}"}}}},"#,
                r#"{{"id":32,"method":"get_cluster_selection","params":{{"inst":"{i}"}}}}]}}"#
            ),
            i = inst
        ),
        format!(
            r#"{{"id":4,"method":"eco_update","params":{{"moves":[{{"inst":"{inst}","dx":0,"dy":0}}]}}}}"#
        ),
        r#"{"id":5,"method":"dump_selection"}"#.to_owned(),
        r#"{"id":6,"method":"stats"}"#.to_owned(),
        r#"{"id":7,"method":"nonsense"}"#.to_owned(),
    ]);
    assert_eq!(lines.len(), 6, "one response line per request");
    for l in &lines {
        pao_obs::json::parse(l).expect("every response line is valid JSON");
    }
    let pin = result_of(&lines[0]);
    assert!(
        !pin.get("selected").expect("selected field").is_null(),
        "smoke pins all have access"
    );
    let batch = result_of(&lines[1]);
    assert_eq!(batch.as_array().map(<[_]>::len), Some(2));
    let eco = result_of(&lines[2]);
    assert_eq!(eco.get("eco_seq").and_then(|v| v.as_i64()), Some(1));
    assert_eq!(
        eco.get("cache_misses").and_then(|v| v.as_i64()),
        Some(0),
        "zero-delta ECO keeps every signature cached"
    );
    assert_eq!(
        eco.get("tail").and_then(|v| v.as_str().map(str::to_owned)),
        Some("window".to_owned()),
        "zero-delta ECO over a repair-free snapshot takes the window tail"
    );
    let dump2 = result_of(&lines[3])
        .get("dump")
        .and_then(|d| d.as_str().map(str::to_owned))
        .expect("dump string");
    assert_eq!(
        dump2, reference,
        "selection after a no-op ECO must still match the one-shot dump"
    );
    let stats = result_of(&lines[4]);
    assert_eq!(stats.get("eco_updates").and_then(|v| v.as_i64()), Some(1));
    let interned = stats
        .get("symbol")
        .and_then(|s| s.get("interned"))
        .and_then(|v| v.as_i64())
        .unwrap_or(0);
    assert!(interned > 0, "symbol gauges must be surfaced in stats");
    let bad = pao_obs::json::parse(&lines[5]).expect("valid");
    assert_eq!(
        bad.get("error")
            .and_then(|e| e.get("code"))
            .and_then(|v| v.as_i64()),
        Some(-32601),
        "unknown method maps to METHOD_NOT_FOUND"
    );

    let lines = call(&[r#"{"id":9,"method":"shutdown"}"#.to_owned()]);
    assert!(lines[0].contains("\"result\""), "{}", lines[0]);
    let status = daemon.wait().expect("daemon exit");
    assert!(status.success(), "daemon must exit 0 after shutdown");
    assert!(!sock.exists(), "socket file is unlinked on shutdown");
}
