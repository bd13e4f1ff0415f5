//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p pao-bench --bin tables -- [COMMAND] [--fast]
//!
//! COMMANDS
//!   table1       Table I   — testcase information
//!   table2       Table II  — Expt 1: per-unique-instance AP quality
//!   table3       Table III — Expt 2: per-instance-pin quality
//!   expt3        Expt 3    — routed #DRCs, naive vs PAAF (+ Fig. 8 SVGs)
//!   expt3-14nm   14 nm AES study (+ Fig. 9 SVG)
//!   ablations    design-choice sweeps (k, α, BCA, history, coord types)
//!   all          everything above
//!
//! --fast restricts the suite to the three 45 nm testcases.
//! ```
//!
//! Rendered tables are also written under `out/`.

use pao_bench::experiments::{run_expt1, run_expt2, run_fig9};
use pao_bench::report::{print_table, Table};
use pao_core::oracle::count_failed_pins_with;
use pao_core::{CoordType, PaoConfig, PinAccessOracle};
use pao_router::route::{RouteConfig, Router};
use pao_router::score;
use pao_testgen::{aes14_case, generate, ispd18s_suite, SuiteCase, TechFlavor};
use std::fs;
use std::path::Path;

fn out_dir() -> &'static Path {
    let p = Path::new("out");
    let _ = fs::create_dir_all(p);
    p
}

fn save(name: &str, content: &str) {
    let path = out_dir().join(name);
    if let Err(e) = fs::write(&path, content) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("  -> wrote {}", path.display());
    }
}

fn suite(fast: bool) -> Vec<SuiteCase> {
    let mut s = ispd18s_suite();
    if fast {
        s.truncate(3);
    }
    s
}

fn flavor_name(f: TechFlavor) -> &'static str {
    match f {
        TechFlavor::N45 => "45nm",
        TechFlavor::N32A | TechFlavor::N32B => "32nm",
        TechFlavor::N14 => "14nm",
    }
}

fn table1(fast: bool) {
    let mut t = Table::new(
        "Table I: testcase information (ispd18s suite, 1/20 scale)",
        &[
            "Benchmark",
            "#StdCell",
            "#Macro",
            "#Net",
            "#IO",
            "#Layer",
            "Die (mm^2)",
            "Node",
        ],
    );
    for case in suite(fast) {
        let (tech, design) = generate(&case);
        let die = design.die_area;
        let die_mm = format!(
            "{:.2}x{:.2}",
            die.width() as f64 / 1e6,
            die.height() as f64 / 1e6
        );
        let std_cells = design
            .components()
            .iter()
            .filter(|c| c.master != "RAM16X4")
            .count();
        let macros = design.components().len() - std_cells;
        t.row(vec![
            case.name.clone(),
            std_cells.to_string(),
            macros.to_string(),
            design.nets().len().to_string(),
            design.io_pins().len().to_string(),
            tech.routing_layers().len().to_string(),
            die_mm,
            flavor_name(case.flavor).to_owned(),
        ]);
    }
    print_table(&t);
    save("table1.txt", &t.render());
}

fn table2(fast: bool) {
    let mut t = Table::new(
        "Table II (Expt 1): unique-instance access points, TrRte baseline vs PAAF",
        &[
            "Benchmark",
            "#UniqInst",
            "APs TrRte",
            "APs PAAF",
            "Dirty TrRte",
            "Dirty PAAF",
            "t TrRte (s)",
            "t PAAF (s)",
        ],
    );
    for case in suite(fast) {
        let row = run_expt1(&case);
        t.row(vec![
            row.name,
            row.unique_insts.to_string(),
            row.trrte_aps.to_string(),
            row.paaf_aps.to_string(),
            row.trrte_dirty.to_string(),
            row.paaf_dirty.to_string(),
            format!("{:.2}", row.trrte_time.as_secs_f64()),
            format!("{:.2}", row.paaf_time.as_secs_f64()),
        ]);
    }
    print_table(&t);
    save("table2.txt", &t.render());
}

fn table3(fast: bool) {
    let mut t = Table::new(
        "Table III (Expt 2): instance-pin access, TrRte vs PAAF w/o BCA vs w/ BCA",
        &[
            "Benchmark",
            "#Pins",
            "Fail TrRte",
            "Fail w/oBCA",
            "Fail w/BCA",
            "t TrRte (s)",
            "t w/oBCA (s)",
            "t w/BCA (s)",
        ],
    );
    for case in suite(fast) {
        let row = run_expt2(&case);
        t.row(vec![
            row.name,
            row.total_pins.to_string(),
            row.trrte_failed.to_string(),
            row.paaf_failed_no_bca.to_string(),
            row.paaf_failed_bca.to_string(),
            format!("{:.2}", row.trrte_time.as_secs_f64()),
            format!("{:.2}", row.no_bca_time.as_secs_f64()),
            format!("{:.2}", row.bca_time.as_secs_f64()),
        ]);
    }
    print_table(&t);
    save("table3.txt", &t.render());
}

fn expt3(fast: bool) {
    let case = if fast {
        SuiteCase {
            name: "ispd18s_test5(fast)".into(),
            cells: 400,
            nets: 380,
            ..ispd18s_suite()[4].clone()
        }
    } else {
        ispd18s_suite()[4].clone()
    };
    println!(
        "Experiment 3: routed-design DRC comparison on {}",
        case.name
    );
    let t0 = std::time::Instant::now();
    let (tech, design) = generate(&case);
    let router = Router::new(&tech, &design, RouteConfig::default());
    let naive = router.route_with_accessor(|_, _| None);
    let naive_viol = score::audit_routed(&tech, &design, &naive);
    let pao = PinAccessOracle::new().analyze(&tech, &design);
    let routed = router.route_with_pao(&pao);
    let pao_viol = score::audit_routed(&tech, &design, &routed);
    let naive_access = score::access_drcs(&tech, &design, &naive);
    let pao_access = score::access_drcs(&tech, &design, &routed);
    let mut t = Table::new(
        "Expt 3: final routed #DRCs (shared router, different pin access)",
        &[
            "Benchmark",
            "#Nets",
            "DRCs naive",
            "DRCs PAAF",
            "AccessDRC naive",
            "AccessDRC PAAF",
            "t (s)",
        ],
    );
    t.row(vec![
        case.name.clone(),
        design.nets().len().to_string(),
        naive_viol.len().to_string(),
        pao_viol.len().to_string(),
        naive_access.to_string(),
        pao_access.to_string(),
        format!("{:.1}", t0.elapsed().as_secs_f64()),
    ]);
    print_table(&t);
    save("expt3.txt", &t.render());

    // Fig. 8: two windows around naive-arm violations, both arms rendered.
    for (i, v) in naive_viol.iter().take(2).enumerate() {
        let window = v.marker.expanded(4000);
        let svg = pao_viz::render_window(
            &tech,
            &design,
            Some(&naive.shapes),
            &[],
            &naive_viol,
            window,
            &pao_viz::RenderOptions::default(),
        );
        save(&format!("fig8_case{}_naive.svg", i + 1), &svg);
        let svg = pao_viz::render_window(
            &tech,
            &design,
            Some(&routed.shapes),
            &[],
            &pao_viol,
            window,
            &pao_viz::RenderOptions::default(),
        );
        save(&format!("fig8_case{}_paaf.svg", i + 1), &svg);
    }
}

fn expt3_14nm(fast: bool) {
    let mut case = aes14_case();
    if fast {
        case.cells = 400;
        case.nets = 380;
    }
    println!("14 nm study: {} ({} instances)", case.name, case.cells);
    let o = run_fig9(&case);
    let mut t = Table::new(
        "14 nm AES study (Fig. 9): PAAF on the 14 nm flavour",
        &[
            "Benchmark",
            "#Inst",
            "#UniqInst",
            "#Pins",
            "Failed",
            "Off-track APs",
            "t (s)",
        ],
    );
    t.row(vec![
        o.name.clone(),
        o.insts.to_string(),
        o.unique_insts.to_string(),
        o.total_pins.to_string(),
        o.failed_pins.to_string(),
        format!(
            "{}/{} ({:.0}%)",
            o.off_track_aps,
            o.total_aps,
            100.0 * o.off_track_aps as f64 / o.total_aps.max(1) as f64
        ),
        format!("{:.2}", o.time.as_secs_f64()),
    ]);
    print_table(&t);
    save("expt3_14nm.txt", &t.render());
    // Fig. 9: a cell access overview (off-track APs enabled automatically).
    save("fig9_aes14.svg", &o.svg);
}

/// A time column in milliseconds, one decimal: the ablation and scaling
/// runs take tens of milliseconds, which whole centiseconds would hide.
fn ms(d: std::time::Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

fn ablations(fast: bool) {
    let case = if fast {
        SuiteCase::small_smoke()
    } else {
        ispd18s_suite()[4].clone()
    };
    let (tech, design) = generate(&case);
    println!("Ablations on {}:", case.name);

    // k sweep (Algorithm 1 early termination).
    let mut t = Table::new(
        "Ablation: APs per pin (k)",
        &["k", "total APs", "failed pins", "t apgen (ms)"],
    );
    for k in [1usize, 2, 3, 5, 8] {
        let mut cfg = PaoConfig::default();
        cfg.apgen.k = k;
        let r = PinAccessOracle::with_config(cfg).analyze(&tech, &design);
        t.row(vec![
            k.to_string(),
            r.stats.total_aps.to_string(),
            r.stats.failed_pins.to_string(),
            ms(r.stats.apgen_time),
        ]);
    }
    print_table(&t);
    save("ablation_k.txt", &t.render());

    // Coordinate-type restriction.
    let mut t = Table::new(
        "Ablation: coordinate types enabled",
        &["types", "total APs", "pins w/o APs", "failed pins"],
    );
    let settings: Vec<(&str, Vec<CoordType>, Vec<CoordType>)> = vec![
        (
            "on-track only",
            vec![CoordType::OnTrack],
            vec![CoordType::OnTrack],
        ),
        (
            "+half-track",
            vec![CoordType::OnTrack, CoordType::HalfTrack],
            vec![CoordType::OnTrack, CoordType::HalfTrack],
        ),
        (
            "+shape-center",
            vec![
                CoordType::OnTrack,
                CoordType::HalfTrack,
                CoordType::ShapeCenter,
            ],
            CoordType::NON_PREFERRED.to_vec(),
        ),
        (
            "all four (paper)",
            CoordType::PREFERRED.to_vec(),
            CoordType::NON_PREFERRED.to_vec(),
        ),
    ];
    for (label, pref, nonpref) in settings {
        let mut cfg = PaoConfig::default();
        cfg.apgen.pref_types = pref;
        cfg.apgen.nonpref_types = nonpref;
        let r = PinAccessOracle::with_config(cfg).analyze(&tech, &design);
        t.row(vec![
            label.to_owned(),
            r.stats.total_aps.to_string(),
            r.stats.pins_without_aps.to_string(),
            r.stats.failed_pins.to_string(),
        ]);
    }
    print_table(&t);
    save("ablation_coords.txt", &t.render());

    // BCA / history / max_patterns (repair disabled so the selection
    // stage is measured in isolation).
    let mut t = Table::new(
        "Ablation: pattern DP features (repair off)",
        &["setting", "failed pins", "t total (ms)"],
    );
    let settings: Vec<(&str, bool, bool, usize)> = vec![
        ("BCA + history, 3 patterns (paper)", true, true, 3),
        ("no BCA, 1 pattern", false, true, 1),
        ("BCA, no history", true, false, 3),
        ("BCA, 5 patterns", true, true, 5),
    ];
    for (label, bca, history, max_patterns) in settings {
        let mut cfg = PaoConfig::default();
        cfg.pattern.bca = bca;
        cfg.pattern.history = history;
        cfg.pattern.max_patterns = max_patterns;
        cfg.repair_rounds = 0;
        let r = PinAccessOracle::with_config(cfg).analyze(&tech, &design);
        t.row(vec![
            label.to_owned(),
            r.stats.failed_pins.to_string(),
            ms(r.stats.total_time()),
        ]);
    }
    print_table(&t);
    save("ablation_patterns.txt", &t.render());

    // Alpha sweep (pin ordering weight).
    let mut t = Table::new(
        "Ablation: pin-ordering weight alpha",
        &["alpha", "failed pins"],
    );
    for alpha in [0.0, 0.1, 0.3, 0.6, 1.0] {
        let mut cfg = PaoConfig::default();
        cfg.pattern.alpha = alpha;
        let r = PinAccessOracle::with_config(cfg).analyze(&tech, &design);
        t.row(vec![format!("{alpha:.1}"), r.stats.failed_pins.to_string()]);
    }
    print_table(&t);
    save("ablation_alpha.txt", &t.render());

    // Sanity: baseline comparison on the same case via the generic counter.
    let base =
        pao_router::baseline_pin_access(&tech, &design, &pao_router::BaselineConfig::default());
    let (_, failed) =
        count_failed_pins_with(&tech, &design, |c, p| base.access_point(&design, c, p));
    println!("(reference: baseline fails {failed} pins on this case)");
}

fn scaling(fast: bool) {
    // The paper's "scalable" claim, quantified: single-threaded analysis
    // runtime and unique-instance count vs design size.
    let sizes: &[usize] = if fast {
        &[250, 500, 1000]
    } else {
        &[500, 1000, 2000, 4000, 8000, 14519]
    };
    let mut t = Table::new(
        "Scaling: PAAF analysis vs design size (N32B flavour, 1 thread)",
        &[
            "#Cells",
            "#Pins",
            "#UniqInst",
            "APs",
            "t apgen (ms)",
            "t total (ms)",
            "us/pin",
        ],
    );
    for &cells in sizes {
        let case = SuiteCase {
            name: format!("scale{cells}"),
            cells,
            nets: cells,
            ..ispd18s_suite()[8].clone()
        };
        let (tech, design) = generate(&case);
        let cfg = PaoConfig {
            threads: 1,
            ..PaoConfig::default()
        };
        let r = PinAccessOracle::with_config(cfg).analyze(&tech, &design);
        let s = &r.stats;
        t.row(vec![
            cells.to_string(),
            s.total_pins.to_string(),
            s.unique_instances.to_string(),
            s.total_aps.to_string(),
            ms(s.apgen_time),
            ms(s.total_time()),
            format!(
                "{:.1}",
                s.total_time().as_secs_f64() * 1e6 / s.total_pins.max(1) as f64
            ),
        ]);
    }
    print_table(&t);
    save("scaling.txt", &t.render());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let cmd = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map_or("all", |s| s.as_str());
    match cmd {
        "table1" => table1(fast),
        "table2" => table2(fast),
        "table3" => table3(fast),
        "expt3" => expt3(fast),
        "expt3-14nm" => expt3_14nm(fast),
        "ablations" => ablations(fast),
        "scaling" => scaling(fast),
        "all" => {
            table1(fast);
            table2(fast);
            table3(fast);
            scaling(fast);
            expt3(fast);
            expt3_14nm(fast);
            ablations(fast);
        }
        other => {
            eprintln!("unknown command `{other}`; see the source header for usage");
            std::process::exit(2);
        }
    }
}
