//! Criterion micro-benchmarks for the streaming tier.
//!
//! Three slices of the streaming stack:
//! * `mutation_throughput_inserts` — an insert-only epoch (the union-find
//!   fast path, no rebuilds),
//! * `mutation_throughput_mixed` — the CI mutation mix with real deletions
//!   (epoch compaction + lazy rebuilds included),
//! * `release_pipeline` — one full scheduler release through a 1-worker
//!   `Server`: snapshot → publish → submit → charge → estimate → invalidate.

use ccdp_serve::{BudgetLedger, GraphRegistry, ServeConfig, Server, TenantId};
use ccdp_stream::{
    GraphStream, Mutation, MutationSpec, ReleasePolicy, ReleaseScheduler, SchedulerConfig,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn bench_mutation_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));

    // Pure growth: 2000 scripted insertions over a 500-vertex universe.
    let inserts: Vec<Mutation> = (0..2000u64)
        .map(|i| Mutation::insert(i + 1, (i as usize * 7) % 500, (i as usize * 13 + 1) % 500))
        .filter(|m| m.u != m.v)
        .collect();
    group.bench_function("mutation_throughput_inserts_2000", |b| {
        b.iter(|| {
            let mut stream = GraphStream::new("bench/inserts");
            stream.apply_batch(&inserts).unwrap();
            stream.num_components()
        })
    });

    // The CI mix: 30% real deletions, so counts pay epoch rebuilds.
    let spec = MutationSpec {
        graphs: 1,
        vertices: 200,
        initial_avg_degree: 2.0,
        mutations_per_graph: 2000,
        delete_fraction: 0.3,
        seed: 77,
    };
    let script = spec.mutations(0);
    let initial = spec.initial_graph(0);
    group.bench_function("mutation_throughput_mixed_2000", |b| {
        b.iter(|| {
            let mut stream = GraphStream::from_graph("bench/mixed", initial.clone());
            for chunk in script.chunks(50) {
                stream.apply_batch(chunk).unwrap();
                // Count per chunk: the serving pattern (scheduler observes
                // between batches), so rebuild cost is actually exercised.
                std::hint::black_box(stream.num_components());
            }
            stream.stats().rebuilds
        })
    });
    group.finish();
}

fn bench_release_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    let ledger = Arc::new(BudgetLedger::new());
    ledger.register("bench", 1e9).unwrap();
    let tenant = TenantId::new("bench");
    let server = Arc::new(Server::start(
        ServeConfig::new().with_workers(1),
        Arc::new(GraphRegistry::new()),
        ledger,
    ));
    let scheduler = ReleaseScheduler::with_server(
        SchedulerConfig::new(ReleasePolicy::OnDemand)
            .with_epsilon(0.1)
            .with_retain_versions(4),
        server,
    );
    let spec = MutationSpec::ci_smoke();
    let mut stream = spec.stream(0);
    let script = spec.mutations(0);
    let mut next = 0usize;

    group.bench_function("release_pipeline_48v", |b| {
        b.iter(|| {
            // A few mutations between releases keep every snapshot distinct.
            let end = (next + 4).min(script.len());
            if next < end {
                stream.apply_batch(&script[next..end]).unwrap();
                next = end;
            }
            scheduler.release_now(&mut stream, &tenant).unwrap().value
        })
    });
    group.finish();
}

criterion_group!(
    stream_benches,
    bench_mutation_throughput,
    bench_release_pipeline
);
criterion_main!(stream_benches);
