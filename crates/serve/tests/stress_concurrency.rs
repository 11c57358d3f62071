//! Concurrent-correctness stress tests for the serving tier.
//!
//! (a) Single-flight coalescing: 16 racing clients asking for the same
//!     (graph, grid) key must trigger exactly one family
//!     evaluation — the rest are cache hits or in-flight joins.
//! (b) Budget-ledger safety: under arbitrary interleavings of concurrent
//!     spends, no tenant's granted ε ever exceeds its quota, and the ledger's
//!     accounting equals the sum of the grants the clients observed.

use ccdp_core::ExtensionCache;
use ccdp_graph::{generators, CsrGraph};
use ccdp_serve::{
    BudgetLedger, GraphRegistry, ServeConfig, ServeError, ServeRequest, Server, TenantId,
};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};

/// 16 clients race one cache key through a barrier: exactly one evaluation.
#[test]
fn sixteen_racing_clients_coalesce_to_one_family_evaluation() {
    let cache = Arc::new(ExtensionCache::new(8));
    let g = CsrGraph::from_graph(&generators::caveman(5, 5));
    let grid = [1usize, 2, 4, 8, 16];
    let clients = 16;
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let g = g.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                cache
                    .evaluate_family(&g, &grid, None, 1, None, None)
                    .unwrap()
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for r in &results {
        assert!((r[0].value - results[0][0].value).abs() < 1e-12);
    }
    let stats = cache.stats();
    assert_eq!(
        stats.misses, 1,
        "16 racing clients must share one evaluation: {stats:?}"
    );
    assert_eq!(
        stats.hits + stats.coalesced,
        (clients - 1) as u64,
        "all other lookups must be hits or in-flight joins: {stats:?}"
    );
    assert_eq!(stats.entries, 1);
}

/// The same race end-to-end through the server: 16 clients, one graph, one
/// shared cache — exactly one family evaluation per unique key.
#[test]
fn racing_server_requests_share_one_evaluation_per_unique_key() {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("a", generators::caveman(4, 5));
    registry.insert("b", generators::planted_star_forest(12, 3, 4));
    let ledger = Arc::new(BudgetLedger::new());
    ledger.register("acme", 1e6).unwrap();
    let server = Arc::new(Server::start(
        ServeConfig::new().with_workers(8).with_queue_capacity(64),
        registry,
        ledger,
    ));
    let clients = 16;
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let graph = if i % 2 == 0 { "a" } else { "b" };
                server
                    .submit(ServeRequest::new("acme", graph, 0.1))
                    .unwrap()
                    .wait()
                    .result
                    .unwrap()
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let cache = server.cache_stats();
    assert_eq!(
        cache.misses, 2,
        "two unique keys → two evaluations, all other requests coalesce or hit: {cache:?}"
    );
    assert_eq!(cache.hits + cache.coalesced, (clients - 2) as u64);
    let metrics = Arc::clone(server.metrics());
    Arc::try_unwrap(server).unwrap().shutdown();
    let snap = metrics.snapshot();
    assert_eq!(
        snap.value("ccdp_serve_completed_total"),
        Some(clients as f64)
    );
    assert_eq!(snap.value("ccdp_serve_failed_total"), Some(0.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A shared ledger under arbitrary concurrent interleavings never grants
    /// a tenant more than its quota, and its books match what clients saw.
    #[test]
    fn ledger_never_overspends_under_concurrency(
        quota_tenths in 5u64..60,        // quota ε in [0.5, 6.0)
        threads in 2usize..8,
        spends_per_thread in 1usize..12,
        spend_tenths in 1u64..10,        // per-spend ε in [0.1, 1.0)
    ) {
        let quota = quota_tenths as f64 / 10.0;
        let eps = spend_tenths as f64 / 10.0;
        let ledger = Arc::new(BudgetLedger::new());
        ledger.register("tenant", quota).unwrap();
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let ledger = Arc::clone(&ledger);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let tenant = TenantId::new("tenant");
                    let mut granted = 0.0f64;
                    let mut grants = 0usize;
                    for _ in 0..spends_per_thread {
                        match ledger.try_spend(&tenant, "stress", eps) {
                            Ok(spent) => {
                                granted += spent;
                                grants += 1;
                            }
                            Err(ServeError::BudgetExhausted { .. }) => {}
                            Err(other) => panic!("unexpected ledger error: {other:?}"),
                        }
                    }
                    (granted, grants)
                })
            })
            .collect();
        let mut total_granted = 0.0f64;
        let mut total_grants = 0usize;
        for h in handles {
            let (granted, grants) = h.join().unwrap();
            total_granted += granted;
            total_grants += grants;
        }
        // The invariant: granted ε never exceeds the quota (beyond the
        // accountant's numerical slack), under ANY interleaving.
        prop_assert!(
            total_granted <= quota + 1e-9,
            "granted {total_granted} ε exceeds quota {quota}"
        );
        let view = ledger.account_view(&TenantId::new("tenant")).unwrap();
        prop_assert!((view.spent_epsilon - total_granted).abs() < 1e-9);
        prop_assert_eq!(view.grants, total_grants);
        // No under-refusal either: refusals only happen once the quota
        // genuinely cannot fund another spend of this size.
        let attempts = (threads * spends_per_thread) as f64;
        if attempts * eps <= quota + 1e-9 {
            prop_assert_eq!(
                total_grants,
                threads * spends_per_thread,
                "nothing should be refused while the quota covers every spend"
            );
        } else {
            prop_assert!(
                view.remaining_epsilon < eps + 1e-9,
                "refusals happened while {} ε remained for {} ε spends",
                view.remaining_epsilon,
                eps
            );
        }
    }

    /// Independent tenants are isolated: hammering one tenant's quota cannot
    /// consume another's.
    #[test]
    fn tenants_are_isolated_under_concurrency(
        threads in 2usize..6,
        spends in 2usize..10,
    ) {
        let ledger = Arc::new(BudgetLedger::new());
        ledger.register("hot", 1.0).unwrap();
        ledger.register("cold", 1.0).unwrap();
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let ledger = Arc::clone(&ledger);
                std::thread::spawn(move || {
                    let hot = TenantId::new("hot");
                    for _ in 0..spends {
                        let _ = ledger.try_spend(&hot, "x", 0.3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let cold = ledger.account_view(&TenantId::new("cold")).unwrap();
        prop_assert_eq!(cold.grants, 0);
        prop_assert!((cold.remaining_epsilon - 1.0).abs() < 1e-12);
        let hot = ledger.account_view(&TenantId::new("hot")).unwrap();
        prop_assert!(hot.spent_epsilon <= 1.0 + 1e-9);
    }
}
