//! Incremental re-analysis across placement changes — the paper's
//! motivating use case for a *fast* pin access oracle (placement
//! optimization loops re-query pin access after every move).
//!
//! ```text
//! cargo run --release --example incremental
//! ```

use paaf::design::CompId;
use paaf::pao::{AnalysisCache, PinAccessOracle, RunBudget};
use paaf::testgen::{generate, ispd18s_suite, SuiteCase};
use std::time::Instant;

fn main() {
    let case = SuiteCase {
        cells: 1200,
        nets: 1000,
        ..ispd18s_suite()[1].clone()
    };
    let (tech, mut design) = generate(&case);
    let oracle = PinAccessOracle::new();
    let mut cache = AnalysisCache::new();

    // Cold run: full three-step analysis (fills the store).
    let t0 = Instant::now();
    let budget = RunBudget {
        store: Some(&mut cache),
        ..RunBudget::unlimited()
    };
    let cold = oracle.analyze_with_budget(&tech, &design, budget);
    let cold_t = t0.elapsed();
    println!(
        "cold analysis : {:.3}s  ({} unique instances, {} failed pins)",
        cold_t.as_secs_f64(),
        cold.stats.unique_instances,
        cold.stats.failed_pins
    );

    // A placement-optimizer-style loop: swap same-master instance pairs
    // (signature-preserving moves) and re-analyze after each change.
    let mut warm_total = 0.0f64;
    let mut moves = 0usize;
    for step in 0..5 {
        // Find two same-master instances and swap their locations.
        let mut swapped = false;
        'outer: for i in 0..design.components().len() {
            for j in (i + 1)..design.components().len() {
                let (a, b) = (
                    design.component(CompId(i as u32)),
                    design.component(CompId(j as u32)),
                );
                if a.master == b.master
                    && a.orient == b.orient
                    && a.location != b.location
                    && (i + j) % 7 == step % 7
                {
                    let (la, lb) = (a.location, b.location);
                    design.component_mut(CompId(i as u32)).location = lb;
                    design.component_mut(CompId(j as u32)).location = la;
                    swapped = true;
                    break 'outer;
                }
            }
        }
        if !swapped {
            continue;
        }
        moves += 1;
        let t0 = Instant::now();
        let budget = RunBudget {
            store: Some(&mut cache),
            ..RunBudget::unlimited()
        };
        let warm = oracle.analyze_with_budget(&tech, &design, budget);
        warm_total += t0.elapsed().as_secs_f64();
        assert_eq!(warm.stats.failed_pins, 0);
    }
    let (hits, misses) = cache.stats();
    println!(
        "warm analyses : {moves} moves in {warm_total:.3}s ({:.3}s each)",
        warm_total / moves.max(1) as f64
    );
    println!("cache         : {hits} signature hits, {misses} misses");
    println!(
        "speedup       : {:.1}x per placement iteration",
        cold_t.as_secs_f64() / (warm_total / moves.max(1) as f64)
    );
}
