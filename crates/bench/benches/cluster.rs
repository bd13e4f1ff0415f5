//! Benchmarks step 3 (cluster-based pattern selection) in isolation.

use criterion::{criterion_group, criterion_main, Criterion};
use pao_core::cluster::{build_clusters, select_patterns};
use pao_core::PinAccessOracle;
use pao_drc::DrcEngine;
use pao_testgen::{generate, SuiteCase, TechFlavor};

fn bench_cluster(c: &mut Criterion) {
    let case = SuiteCase {
        name: "bench600".into(),
        flavor: TechFlavor::N45,
        cells: 600,
        macros: 0,
        nets: 450,
        io_pins: 8,
        utilization: 85,
        seed: 79,
    };
    let (tech, design) = generate(&case);
    let result = PinAccessOracle::new().analyze(&tech, &design);
    let engine = DrcEngine::new(&tech);
    let mut g = c.benchmark_group("cluster");
    g.bench_function("build_clusters", |b| {
        b.iter(|| build_clusters(&tech, &design))
    });
    g.bench_function("select_patterns", |b| {
        b.iter(|| select_patterns(&tech, &engine, &design, &result.comp_uniq, &result.unique))
    });
    g.finish();
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
