//! Criterion micro-benchmarks for EvalLipschitzExtension (Algorithm 2): the
//! spanning-forest fast path and the constraint-generation LP path.

use ccdp_core::LipschitzExtension;
use ccdp_graph::generators;
use ccdp_lp::CombinatorialSolver;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench_fast_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("extension_fast_path");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for &n in &[500usize, 2000] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = generators::erdos_renyi(n, 2.0 / n as f64, &mut rng);
        group.bench_with_input(BenchmarkId::new("er_delta_8", n), &g, |b, g| {
            b.iter(|| LipschitzExtension::new(8).evaluate(g).unwrap())
        });
    }
    group.finish();
}

fn bench_lp_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("extension_lp_path");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for &cliques in &[5usize, 15] {
        let g = generators::caveman(cliques, 5);
        group.bench_with_input(
            BenchmarkId::new("caveman_delta_1", g.num_vertices()),
            &g,
            |b, g| b.iter(|| CombinatorialSolver::new().solve(g, 1.0).unwrap().value),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fast_path, bench_lp_path);
criterion_main!(benches);
