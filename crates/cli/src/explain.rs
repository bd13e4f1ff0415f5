//! `pao explain` and `pao report` — the decision-ledger consumers.
//!
//! Both commands re-run the analysis with the ledger enabled and present
//! the resulting attribution stream: `explain` as one instance's causal
//! chain (candidate → reject reason → surviving APs → chosen pattern →
//! boundary conflicts → repair), `report` as deterministic JSONL
//! aggregates plus an optional reject-density heatmap. Everything here is
//! a pure function of the canonical ledger dump and the design, so the
//! output is byte-identical across `--threads` values.

use crate::args::Args;
use crate::{emit, load_world, parse_threads, CliError};
use pao_core::{PaoConfig, PaoResult, PinAccessOracle};
use pao_design::{CompId, Design};
use pao_drc::{reject_label, RuleKind, SubCheck};
use pao_geom::Point;
use pao_obs::json::quote;
use pao_obs::{LedgerDump, LedgerEvent};
use pao_tech::Tech;
use std::collections::BTreeMap;

/// Runs one ledger-enabled analysis. The ledger is process-global, so
/// the switch is scoped tightly: reset → enable → analyze → disable →
/// drain, leaving nothing armed for later commands in this process.
fn ledger_analyze(tech: &Tech, design: &Design, threads: usize) -> (PaoResult, LedgerDump) {
    pao_obs::reset();
    pao_obs::enable_ledger();
    let cfg = PaoConfig {
        threads,
        ..PaoConfig::default()
    };
    let result = PinAccessOracle::with_config(cfg).analyze(tech, design);
    pao_obs::disable_all();
    let dump = pao_obs::take_ledger();
    if dump.dropped > 0 {
        eprintln!(
            "warning: ledger dropped {} records (sink full) — counts below are incomplete",
            dump.dropped
        );
    }
    (result, dump)
}

/// Layer name for a record's `aux` layer index, or a stable fallback.
fn layer_name(tech: &Tech, idx: u32) -> String {
    tech.layers()
        .get(idx as usize)
        .map_or_else(|| format!("layer{idx}"), |l| l.name.to_string())
}

/// `pao explain <lef> <def> (--pin INSTANCE/PIN | --inst INSTANCE)`:
/// one instance's decision chain, reconstructed from the ledger.
pub(crate) fn cmd_explain(args: &Args) -> Result<(), CliError> {
    let (tech, design) = load_world(
        args.positional(1).map_err(CliError::Usage)?,
        args.positional(2).map_err(CliError::Usage)?,
    )?;
    for name in ["--pin", "--inst"] {
        if args.value_missing(name) {
            return Err(CliError::usage(format!("{name} requires a value")));
        }
    }
    let threads = parse_threads(args)?;
    let lookup = |inst: &str| {
        design
            .component_by_name(inst)
            .ok_or_else(|| CliError::input(format!("unknown instance `{inst}`")))
    };
    let (comp, pin_filter) = match (args.value("--pin"), args.value("--inst")) {
        (Some(spec), None) => {
            let (inst, pin) = spec
                .split_once('/')
                .ok_or_else(|| CliError::usage("--pin expects INSTANCE/PIN"))?;
            let comp = lookup(inst)?;
            let master = design.component(comp).master_in(&tech).ok_or_else(|| {
                CliError::input(format!("instance `{inst}` has an unknown master"))
            })?;
            let pi = master
                .pins
                .iter()
                .position(|p| p.name == pin)
                .ok_or_else(|| {
                    CliError::input(format!("master `{}` has no pin `{pin}`", master.name))
                })?;
            (comp, Some(pi))
        }
        (None, Some(inst)) => (lookup(inst)?, None),
        _ => {
            return Err(CliError::usage(
                "explain requires exactly one of --pin INSTANCE/PIN or --inst INSTANCE",
            ))
        }
    };
    let (result, dump) = ledger_analyze(&tech, &design, threads);
    let ui = result
        .comp_uniq
        .get(comp.index())
        .copied()
        .flatten()
        .ok_or_else(|| {
            CliError::input(format!(
                "instance `{}` was not analyzed (unplaced or unknown master)",
                design.component(comp).name
            ))
        })?;
    let ua = &result.unique[ui.index()];
    let comp_name = &design.component(comp).name;
    let base = (ui.index() as u64) << 16;
    let mut out = String::new();
    out.push_str(&format!(
        "explain: {comp_name} (master {}, unique instance {}, {} member(s), representative {})\n",
        ua.info.master,
        ui.index(),
        ua.info.members.len(),
        design.component(ua.info.rep).name,
    ));
    out.push_str(&format!(
        "ledger : {} records, {} dropped\n",
        dump.records.len(),
        dump.dropped
    ));

    let pins: Vec<usize> = match pin_filter {
        Some(pi) => vec![pi],
        None => (0..ua.pin_aps.len()).collect(),
    };
    for pi in pins {
        let pin_name = design
            .component(comp)
            .master_in(&tech)
            .and_then(|m| m.pins.get(pi))
            .map_or_else(|| format!("pin{pi}"), |p| p.name.to_string());
        out.push_str(&format!("\npin {comp_name}/{pin_name}\n"));
        let entity = base | pi as u64;
        // Step 1: every candidate tried, with its verdict.
        let mut accepted = 0u64;
        let mut reasons: BTreeMap<(u8, u8), u64> = BTreeMap::new();
        let mut survivors = String::new();
        for r in &dump.records {
            if r.entity != entity {
                continue;
            }
            match r.decode_event() {
                Some(LedgerEvent::ApAccept) => {
                    accepted += 1;
                    survivors.push_str(&format!(
                        "    #{:<3} layer {} at ({}, {})\n",
                        r.candidate,
                        layer_name(&tech, r.aux),
                        r.x,
                        r.y
                    ));
                }
                Some(LedgerEvent::ApReject) => {
                    *reasons.entry((r.rule, r.subcheck)).or_default() += 1;
                }
                _ => {}
            }
        }
        let rejected: u64 = reasons.values().sum();
        if accepted + rejected == 0 {
            out.push_str("  apgen: no candidates recorded (supply pin or no pin geometry)\n");
            continue;
        }
        out.push_str(&format!(
            "  apgen: {} candidate(s) tried -> {accepted} accepted, {rejected} rejected\n",
            accepted + rejected
        ));
        for ((rule, sub), n) in &reasons {
            out.push_str(&format!("    {:<28} {n}\n", reject_label(*rule, *sub)));
        }
        if !survivors.is_empty() {
            out.push_str("  surviving access points:\n");
            out.push_str(&survivors);
        }
        // Step 2: pattern-DP penalties that touched this pin's choices.
        let (mut drc_e, mut hist_e, mut bca_l, mut bca_r) = (0u64, 0u64, 0u64, 0u64);
        for r in &dump.records {
            if r.entity != entity {
                continue;
            }
            match r.decode_event() {
                Some(LedgerEvent::PatEdgeDrc) => drc_e += 1,
                Some(LedgerEvent::PatEdgeHistory) => hist_e += 1,
                Some(LedgerEvent::PatEdgeBca) if r.aux == 0 => bca_l += 1,
                Some(LedgerEvent::PatEdgeBca) => bca_r += 1,
                _ => {}
            }
        }
        if drc_e + hist_e + bca_l + bca_r > 0 {
            out.push_str(&format!(
                "  pattern DP penalties: {drc_e} drc-dirty edge(s), {hist_e} history pair(s), boundary-conflict {bca_l} left / {bca_r} right\n"
            ));
        }
        // Final verdict for this pin after selection + repair.
        match result.access_point(&design, comp, pi) {
            Some(ap) => out.push_str(&format!(
                "  final access: layer {} at ({}, {}){}\n",
                layer_name(&tech, ap.layer.0),
                ap.pos.x,
                ap.pos.y,
                if result.overrides.contains_key(&(comp, pi)) {
                    " [repair override]"
                } else {
                    ""
                },
            )),
            None => out.push_str("  final access: FAILED (no clean access point)\n"),
        }
        // Repair history (die frame — specific to this component).
        let rent = (u64::from(comp.0) << 16) | pi as u64;
        for r in &dump.records {
            if r.entity != rent {
                continue;
            }
            match r.decode_event() {
                Some(LedgerEvent::RepairDirty) => {
                    out.push_str(&format!("  repair round {}: pin probed dirty\n", r.aux))
                }
                Some(LedgerEvent::RepairReplaced) => out.push_str(&format!(
                    "  repair round {}: replaced with candidate #{} at ({}, {})\n",
                    r.aux, r.candidate, r.x, r.y
                )),
                Some(LedgerEvent::RepairStuck) => out.push_str(&format!(
                    "  repair round {}: no clean alternative (stuck)\n",
                    r.aux
                )),
                _ => {}
            }
        }
    }

    // Instance-level chain: pattern audits, the selected pattern, and
    // boundary edges that probed dirty against neighbors.
    out.push_str("\ninstance:\n");
    let (mut audited, mut clean_n) = (0u64, 0u64);
    let mut fallback = None;
    for r in &dump.records {
        if r.entity != base {
            continue;
        }
        match r.decode_event() {
            Some(LedgerEvent::PatternValidated) => {
                audited += 1;
                clean_n += u64::from(r.aux);
            }
            Some(LedgerEvent::PatternFallback) => fallback = Some(r.x),
            _ => {}
        }
    }
    if audited > 0 {
        out.push_str(&format!(
            "  patterns audited : {audited} ({clean_n} clean)\n"
        ));
    }
    if let Some(cost) = fallback {
        out.push_str(&format!(
            "  pattern fallback : no clean pattern; kept best dirty (cost {cost})\n"
        ));
    }
    match result.selection.get(comp.index()).copied().flatten() {
        Some(p) => out.push_str(&format!(
            "  selected pattern : {p} (of {} generated)\n",
            ua.patterns.len()
        )),
        None => out.push_str("  selected pattern : none\n"),
    }
    let mut neighbors: BTreeMap<u32, u64> = BTreeMap::new();
    for r in &dump.records {
        if r.decode_event() != Some(LedgerEvent::SelectEdgeDirty) {
            continue;
        }
        let (l, rr) = ((r.entity >> 32) as u32, (r.entity & 0xFFFF_FFFF) as u32);
        if l == comp.0 {
            *neighbors.entry(rr).or_default() += 1;
        } else if rr == comp.0 {
            *neighbors.entry(l).or_default() += 1;
        }
    }
    for (n, edges) in &neighbors {
        out.push_str(&format!(
            "  boundary dirty   : {edges} selection edge(s) vs neighbor {}\n",
            design.component(CompId(*n)).name
        ));
    }
    emit(args.value("--report"), &out)
}

/// `pao report <lef> <def> [--out FILE] [--top N] [--heatmap FILE]`:
/// deterministic JSONL aggregates of one ledger-enabled analysis.
pub(crate) fn cmd_report(args: &Args) -> Result<(), CliError> {
    let (tech, design) = load_world(
        args.positional(1).map_err(CliError::Usage)?,
        args.positional(2).map_err(CliError::Usage)?,
    )?;
    for name in ["--out", "--top", "--heatmap"] {
        if args.value_missing(name) {
            return Err(CliError::usage(format!("{name} requires a value")));
        }
    }
    let threads = parse_threads(args)?;
    let top: usize = args
        .value("--top")
        .map_or(Ok(10), str::parse)
        .map_err(|_| CliError::usage("--top expects a count"))?;
    let (result, dump) = ledger_analyze(&tech, &design, threads);

    // One pass over the canonical stream: per-(unique-instance, pin)
    // accept/reject tallies, the reject histogram, and the per-layer
    // reject positions feeding the heatmap.
    let mut per_pin: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new();
    let mut rejects: BTreeMap<(u8, u8), u64> = BTreeMap::new();
    let mut heat: BTreeMap<u32, Vec<Point>> = BTreeMap::new();
    for r in &dump.records {
        let key = ((r.entity >> 16) as u32, (r.entity & 0xFFFF) as u32);
        match r.decode_event() {
            Some(LedgerEvent::ApAccept) => per_pin.entry(key).or_default().0 += 1,
            Some(LedgerEvent::ApReject) => {
                per_pin.entry(key).or_default().1 += 1;
                *rejects.entry((r.rule, r.subcheck)).or_default() += 1;
                heat.entry(r.aux).or_default().push(Point::new(r.x, r.y));
            }
            _ => {}
        }
    }

    let mut lines: Vec<String> = Vec::new();
    lines.push(format!(
        concat!(
            "{{\"kind\": \"summary\", \"design\": {}, \"components\": {}, ",
            "\"unique_instances\": {}, \"records\": {}, \"dropped\": {}, ",
            "\"total_aps\": {}, \"failed_pins\": {}}}"
        ),
        quote(&design.name),
        design.components().len(),
        result.unique.len(),
        dump.records.len(),
        dump.dropped,
        result.stats.total_aps,
        result.stats.failed_pins,
    ));
    // Reject histogram by rule and sub-check, in stable code order
    // (attribution-less rejects sort last as "none").
    for ((rule, sub), count) in &rejects {
        let (rname, sname) = match (RuleKind::from_code(*rule), SubCheck::from_code(*sub)) {
            (Some(r), Some(s)) => (r.to_string(), s.to_string()),
            _ => ("none".to_owned(), "none".to_owned()),
        };
        lines.push(format!(
            "{{\"kind\": \"reject\", \"rule\": {}, \"subcheck\": {}, \"count\": {count}}}",
            quote(&rname),
            quote(&sname),
        ));
    }
    // Per-master aggregates over the master's unique instances (each
    // unique instance is analyzed once; members share its APs).
    let mut masters: BTreeMap<&str, [u64; 4]> = BTreeMap::new();
    for ua in &result.unique {
        let e = masters.entry(ua.info.master.as_str()).or_default();
        e[0] += 1;
        e[1] += ua.info.members.len() as u64;
        for pi in 0..ua.pin_aps.len() {
            if let Some(&(a, rj)) = per_pin.get(&(ua.info.id.0, pi as u32)) {
                e[2] += a;
                e[3] += rj;
            }
        }
    }
    for (master, [insts, members, aps, rej]) in &masters {
        lines.push(format!(
            concat!(
                "{{\"kind\": \"master\", \"master\": {}, \"unique_instances\": {insts}, ",
                "\"members\": {members}, \"aps\": {aps}, \"rejects\": {rej}}}"
            ),
            quote(master),
            insts = insts,
            members = members,
            aps = aps,
            rej = rej,
        ));
    }
    // Per-pin counts, one line per analyzed unique-instance pin.
    for ua in &result.unique {
        let rep = &design.component(ua.info.rep).name;
        let master = design.component(ua.info.rep).master_in(&tech);
        for pi in 0..ua.pin_aps.len() {
            let (aps, rej) = per_pin
                .get(&(ua.info.id.0, pi as u32))
                .copied()
                .unwrap_or((0, 0));
            if aps + rej == 0 {
                continue; // supply pin / no geometry: nothing was tried
            }
            let pin = master
                .and_then(|m| m.pins.get(pi))
                .map_or_else(|| format!("pin{pi}"), |p| p.name.to_string());
            lines.push(format!(
                concat!(
                    "{{\"kind\": \"pin\", \"inst\": {}, \"master\": {}, \"pin\": {}, ",
                    "\"members\": {}, \"aps\": {aps}, \"rejects\": {rej}}}"
                ),
                quote(rep),
                quote(&ua.info.master),
                quote(&pin),
                ua.info.members.len(),
                aps = aps,
                rej = rej,
            ));
        }
    }
    // Worst-N access-poor pins: fewest surviving APs first, most rejects
    // breaking ties (they tried hard and still came up short).
    let mut poor: Vec<(u64, u64, u32, u32)> = per_pin
        .iter()
        .filter(|(_, &(a, rj))| a + rj > 0)
        .map(|(&(ui, pi), &(a, rj))| (a, rj, ui, pi))
        .collect();
    poor.sort_by_key(|x| (x.0, std::cmp::Reverse(x.1), x.2, x.3));
    for (rank, (aps, rej, ui, pi)) in poor.iter().take(top).enumerate() {
        let ua = &result.unique[*ui as usize];
        let rep = &design.component(ua.info.rep).name;
        let pin = design
            .component(ua.info.rep)
            .master_in(&tech)
            .and_then(|m| m.pins.get(*pi as usize))
            .map_or_else(|| format!("pin{pi}"), |p| p.name.to_string());
        lines.push(format!(
            concat!(
                "{{\"kind\": \"access_poor\", \"rank\": {}, \"inst\": {}, \"pin\": {}, ",
                "\"aps\": {aps}, \"rejects\": {rej}}}"
            ),
            rank + 1,
            quote(rep),
            quote(&pin),
            aps = aps,
            rej = rej,
        ));
    }
    // Every line must survive the crate's own strict JSON parser — the
    // same round-trip contract the Chrome trace export has.
    for line in &lines {
        pao_obs::json::validate(line)
            .map_err(|e| CliError::Internal(format!("report line is not valid JSON: {e}")))?;
    }
    let mut text = lines.join("\n");
    text.push('\n');
    emit(args.value("--out"), &text)?;

    if let Some(path) = args.value("--heatmap") {
        let layers: Vec<(String, Vec<Point>)> = heat
            .into_iter()
            .map(|(li, pts)| (layer_name(&tech, li), pts))
            .collect();
        let svg = pao_viz::render_reject_heatmap(design.die_area, &layers, 64);
        std::fs::write(path, svg)
            .map_err(|e| CliError::input(format!("cannot write `{path}`: {e}")))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}
