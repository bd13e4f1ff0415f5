//! Integration: the full text-format flow — generate, write LEF/DEF,
//! re-parse, and verify the analysis is identical on both copies.

use paaf::design::def;
use paaf::pao::{PaoConfig, PinAccessOracle};
use paaf::tech::{lef, Tech};
use paaf::testgen::{generate, SuiteCase};

#[test]
fn analysis_identical_after_lefdef_roundtrip() {
    let (tech, design) = generate(&SuiteCase::small_smoke());

    let lef_text = lef::write_lef(&tech);
    let def_text = def::write_def(&design, &tech);
    let tech2 = lef::parse_lef(&lef_text).expect("LEF parses");
    let design2 = def::parse_def(&def_text, &tech2).expect("DEF parses");

    let r1 = PinAccessOracle::new().analyze(&tech, &design);
    let r2 = PinAccessOracle::new().analyze(&tech2, &design2);

    assert_eq!(r1.stats.unique_instances, r2.stats.unique_instances);
    assert_eq!(r1.stats.total_aps, r2.stats.total_aps);
    assert_eq!(r1.stats.failed_pins, r2.stats.failed_pins);
    // Identical selected access points for every connected pin.
    for net in design.nets() {
        for (comp, pin_name) in net.comp_pins() {
            let master = design.component(comp).master_in(&tech).unwrap();
            let pi = master.pins.iter().position(|p| p.name == pin_name).unwrap();
            let a = r1.access_point(&design, comp, pi).map(|a| a.pos);
            let b = r2.access_point(&design2, comp, pi).map(|a| a.pos);
            assert_eq!(a, b, "{comp} {pin_name}");
        }
    }
}

#[test]
fn def_text_references_resolve() {
    let (tech, design) = generate(&SuiteCase::small_smoke());
    let def_text = def::write_def(&design, &tech);
    // Every component master named in the DEF exists in the tech.
    let design2 = def::parse_def(&def_text, &tech).expect("DEF parses");
    for c in design2.components() {
        assert!(tech.macro_by_name(&c.master).is_some(), "{}", c.master);
    }
    // Every net terminal resolves to a pin of its master.
    for net in design2.nets() {
        for (comp, pin) in net.comp_pins() {
            let m = design2.component(comp).master_in(&tech).unwrap();
            assert!(m.pin(&pin).is_some(), "{} {pin}", m.name);
        }
    }
}

/// Truncation at every line boundary and 1–3 random byte flips of a
/// generated suite LEF (ispd18s_test8's, with a block macro) and the
/// checked-in `benchmarks/smoke.lef`: each gives a library or a typed
/// [`lef::ParseLefError`], never a panic.
#[test]
fn lef_parser_never_panics_on_truncation_or_byte_flips() {
    let case = paaf::testgen::case_by_name("ispd18s_test8").expect("suite case");
    let smoke = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmarks/smoke.lef");
    let sources = [
        lef::write_lef(&generate(&case).0),
        std::fs::read_to_string(smoke).expect("smoke LEF readable"),
    ];
    for src in &sources {
        assert!(lef::parse_lef(src).is_ok());
        let lines: Vec<&str> = src.lines().collect();
        for k in 0..lines.len() {
            let _ = lef::parse_lef(&lines[..k].join("\n"));
        }
    }
    // Half the flips write a byte that tends to matter to the parser:
    // digits, signs, exponents, separators.
    const LEXICAL: &[u8] = b"0123456789.-+eE; \nXNinfa";
    pao_ptest::check("lef.byte_flips", 512, |rng| {
        let mut bytes = sources[rng.gen_range(0..sources.len())]
            .clone()
            .into_bytes();
        for _ in 0..rng.gen_range(1..=3usize) {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = if rng.gen_range(0..2u32) == 0 {
                LEXICAL[rng.gen_range(0..LEXICAL.len())]
            } else {
                rng.gen_range(0..=255u8)
            };
        }
        let _ = lef::parse_lef(&String::from_utf8_lossy(&bytes));
    });
}

/// The DEF twin of the LEF test above: truncation at line boundaries
/// (every 7th of a generated ispd18s_test2 DEF, every one of the
/// checked-in `benchmarks/smoke.def`) and 1–3 random byte flips of
/// either. Each gives a design or a typed [`def::ParseDefError`], never a
/// panic, and a smoke variant that parses also analyzes on one thread
/// without a panic (the analysis may quarantine items). Some smoke
/// variants must parse, so the analysis half runs.
#[test]
fn def_parser_never_panics_on_truncation_or_byte_flips() {
    let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmarks");
    let read = |name: &str| std::fs::read_to_string(format!("{bench}/{name}")).expect("readable");
    let smoke_tech = lef::parse_lef(&read("smoke.lef")).expect("smoke LEF parses");
    let case = paaf::testgen::case_by_name("ispd18s_test2").expect("suite case");
    let (t2_tech, t2) = generate(&case);
    // (text, tech, truncation stride, analyze what parses)
    let sources = [
        (def::write_def(&t2, &t2_tech), &t2_tech, 7, false),
        (read("smoke.def"), &smoke_tech, 1, true),
    ];
    let oracle = PinAccessOracle::with_config(PaoConfig {
        threads: 1,
        ..PaoConfig::default()
    });
    let analyzed = std::cell::Cell::new(0usize);
    let check = |text: &str, (_, tech, _, analyze): &(String, &Tech, usize, bool)| {
        if let Ok(design) = def::parse_def(text, tech) {
            if *analyze {
                let _ = oracle.analyze(tech, &design);
                analyzed.set(analyzed.get() + 1);
            }
        }
    };
    for source in &sources {
        let (src, tech, stride, _) = source;
        assert!(def::parse_def(src, tech).is_ok());
        let lines: Vec<&str> = src.lines().collect();
        for k in (0..lines.len()).step_by(*stride) {
            check(&lines[..k].join("\n"), source);
        }
    }
    // Half the flips write a byte that tends to matter to the parser:
    // digits, signs, terminators, parentheses and the `*` of a
    // repeated coordinate.
    const LEXICAL: &[u8] = b"0123456789-+;()*";
    pao_ptest::check("def.byte_flips", 512, |rng| {
        let source = &sources[rng.gen_range(0..sources.len())];
        let mut bytes = source.0.clone().into_bytes();
        for _ in 0..rng.gen_range(1..=3usize) {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = if rng.gen_range(0..2u32) == 0 {
                LEXICAL[rng.gen_range(0..LEXICAL.len())]
            } else {
                rng.gen_range(0..=255u8)
            };
        }
        check(&String::from_utf8_lossy(&bytes), source);
    });
    assert!(analyzed.get() > 0, "no smoke variant parsed");
}

#[test]
fn lef_parser_rejects_garbage_gracefully() {
    assert!(lef::parse_lef("LAYER M1 TYPE ROUTING ; WIDTH banana ; END M1").is_err());
    // An empty file is a valid (empty) library.
    let t = lef::parse_lef("").expect("empty LEF ok");
    assert!(t.layers().is_empty());
}
