//! End-to-end serving-tier integration through the `ccdp` facade: catalog
//! ingestion, multi-tenant metering and coalesced family evaluations, all
//! via `ccdp::prelude`.

use ccdp::prelude::*;
use std::sync::Arc;

#[test]
fn facade_serves_a_multi_tenant_fleet() {
    let registry = Arc::new(GraphRegistry::new());
    // Ingest one graph from the wire format, build one programmatically.
    registry
        .ingest_edge_list_version(
            "wire",
            GraphVersion::INITIAL,
            &io::to_edge_list(&generators::caveman(3, 4)),
        )
        .unwrap();
    registry.insert("gen", generators::planted_star_forest(8, 2, 2));
    assert_eq!(registry.len(), 2);

    let ledger = Arc::new(BudgetLedger::new());
    ledger.register("teamA", 5.0).unwrap();
    ledger.register("teamB", 0.4).unwrap();

    let server = Server::start(
        ServeConfig::new().with_workers(3).with_seed(17),
        Arc::clone(&registry),
        Arc::clone(&ledger),
    );

    // teamA: several releases across both graphs.
    let pending: Vec<_> = (0..6)
        .map(|i| {
            let graph = if i % 2 == 0 { "wire" } else { "gen" };
            server
                .submit(ServeRequest::new("teamA", graph, 0.5))
                .unwrap()
        })
        .collect();
    for p in pending {
        let response = p.wait();
        let release = response.result.expect("teamA is funded");
        assert!(release.value().is_finite());
    }

    // teamB: first release fits the quota, the second is a typed refusal.
    let ok = server
        .submit(ServeRequest::new("teamB", "gen", 0.3))
        .unwrap()
        .wait();
    assert!(ok.result.is_ok());
    let refused = server
        .submit(ServeRequest::new("teamB", "gen", 0.3))
        .unwrap()
        .wait();
    assert!(matches!(
        refused.result,
        Err(ServeError::BudgetExhausted { .. })
    ));

    // The shared cache did one evaluation per unique graph.
    let cache = server.cache_stats();
    assert_eq!(cache.misses, 2, "{cache:?}");

    let metrics = Arc::clone(server.metrics());
    server.shutdown();
    let snap = metrics.snapshot();
    assert_eq!(snap.value("ccdp_serve_completed_total"), Some(7.0));
    assert_eq!(snap.value("ccdp_serve_budget_refusals_total"), Some(1.0));

    // The ledger survives the server: accounts are inspectable afterwards.
    let team_a = ledger.account_view(&TenantId::new("teamA")).unwrap();
    assert!((team_a.spent_epsilon - 3.0).abs() < 1e-9);
    assert_eq!(team_a.grants, 6);
}
