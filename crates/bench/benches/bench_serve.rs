//! Criterion micro-benchmarks for the serving tier.
//!
//! Two slices of the serving stack:
//! * `submit_roundtrip` — one request end-to-end through the worker pool on
//!   a warm cache (the steady-state serving latency),
//! * `coalesced_burst` — a burst of identical requests racing the
//!   single-flight table.

use ccdp_graph::generators;
use ccdp_serve::{BudgetLedger, GraphRegistry, ServeConfig, ServeRequest, Server};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn warm_server() -> Server {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("stars", generators::planted_star_forest(15, 3, 5));
    let ledger = Arc::new(BudgetLedger::new());
    ledger.register("bench", 1e9).unwrap();
    let server = Server::start(
        ServeConfig::new().with_workers(2).with_queue_capacity(64),
        registry,
        ledger,
    );
    // One request to warm the family cache.
    server
        .submit(ServeRequest::new("bench", "stars", 0.1))
        .unwrap()
        .wait()
        .result
        .unwrap();
    server
}

fn bench_submit_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let server = warm_server();
    group.bench_function("submit_roundtrip_warm", |b| {
        b.iter(|| {
            server
                .submit(ServeRequest::new("bench", "stars", 0.1))
                .unwrap()
                .wait()
                .result
                .unwrap()
                .value()
        })
    });
    group.finish();
}

fn bench_coalesced_burst(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let server = warm_server();
    group.bench_function("burst_16_same_graph", |b| {
        b.iter(|| {
            let pending: Vec<_> = (0..16)
                .map(|_| {
                    server
                        .submit(ServeRequest::new("bench", "stars", 0.01))
                        .unwrap()
                })
                .collect();
            pending
                .into_iter()
                .map(|p| p.wait().result.unwrap().value())
                .sum::<f64>()
        })
    });
    group.finish();
}

criterion_group!(serve_benches, bench_submit_roundtrip, bench_coalesced_burst);
criterion_main!(serve_benches);
