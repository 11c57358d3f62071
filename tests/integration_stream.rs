//! End-to-end integration of the streaming tier with the serving stack:
//! streams publish versioned snapshots, the scheduler re-estimates under
//! budget, and the server answers version-pinned requests from the same
//! registry — all through the `ccdp` facade.

use ccdp::prelude::*;
use std::sync::Arc;

/// A 2-worker server over a fresh registry, with one tenant of `quota` ε.
fn server(quota: f64) -> Arc<Server> {
    let ledger = Arc::new(BudgetLedger::new());
    ledger.register("tenant", quota).unwrap();
    Arc::new(Server::start(
        ServeConfig::new().with_workers(2),
        Arc::new(GraphRegistry::new()),
        ledger,
    ))
}

#[test]
fn evolving_fleet_releases_match_their_snapshots() {
    let spec = MutationSpec {
        graphs: 3,
        vertices: 24,
        initial_avg_degree: 1.5,
        mutations_per_graph: 60,
        delete_fraction: 0.3,
        seed: 7,
    };
    let server = server(1e6);
    let registry = Arc::clone(server.registry());
    let scheduler = ReleaseScheduler::with_server(
        SchedulerConfig::new(ReleasePolicy::EveryKMutations(12))
            .with_epsilon(0.5)
            .with_retain_versions(3),
        Arc::clone(&server),
    );
    let tenant = TenantId::new("tenant");

    let mut releases = Vec::new();
    for index in 0..spec.graphs {
        let mut stream = spec.stream(index);
        for batch in spec.mutations(index).chunks(6) {
            for m in batch {
                stream.apply(m).unwrap();
                // Cross-check the arena's count after every mutation.
                assert_eq!(
                    CsrGraph::from_graph(stream.graph()).num_components(),
                    stream.graph().num_connected_components(),
                    "arena count diverged at {m:?}"
                );
            }
            if let Some(r) = scheduler.observe(&mut stream, &tenant).unwrap() {
                // Verified at release time, before retention can expire the
                // snapshot: the release names a resolvable version whose
                // from-scratch count matches the one the release recorded.
                let (_, snapshot) = registry.resolve_arena(&r.graph, Some(r.version)).unwrap();
                assert_eq!(
                    components::num_connected_components(&snapshot.to_graph()),
                    r.true_components,
                    "{}@{} diverged",
                    r.graph,
                    r.version
                );
                assert!(r.value.is_finite());
                releases.push(r);
            }
        }
        // Retention keeps histories bounded without unpublishing.
        let id = GraphId::new(spec.graph_id(index));
        assert!(registry.versions(&id).len() <= 3);
        assert!(registry.resolve_latest(&id).is_ok());
    }
    assert!(releases.len() >= spec.graphs * 4, "policy must keep firing");
    // No cross-version cache replay: one miss per release, no hits.
    let stats = server.cache_stats();
    assert_eq!(stats.misses, releases.len() as u64, "{stats:?}");
    assert_eq!(stats.hits, 0, "{stats:?}");
    assert!(stats.invalidations > 0, "{stats:?}");
    // Every release maps to exactly one ledger grant.
    let ledger = server.ledger();
    let grants: usize = ledger
        .tenants()
        .iter()
        .map(|t| ledger.account_view(t).unwrap().grants)
        .sum();
    assert_eq!(grants, releases.len());
}

#[test]
fn server_serves_version_pinned_requests_from_published_snapshots() {
    // A stream publishes versions; a Server over the SAME registry answers
    // both pinned and latest requests about them.
    let registry = Arc::new(GraphRegistry::new());
    let ledger = Arc::new(BudgetLedger::new());
    ledger.register("tenant", 1e6).unwrap();
    let mut stream = GraphStream::new("live/graph");
    stream.apply(&Mutation::insert(1, 0, 1)).unwrap();
    stream.apply(&Mutation::insert(2, 2, 3)).unwrap();
    let snap0 = stream.snapshot();
    registry
        .insert_version(
            snap0.id().clone(),
            snap0.version(),
            Arc::clone(snap0.graph()),
        )
        .unwrap();
    stream.apply(&Mutation::insert(3, 1, 2)).unwrap();
    let snap1 = stream.snapshot();
    registry
        .insert_version(
            snap1.id().clone(),
            snap1.version(),
            Arc::clone(snap1.graph()),
        )
        .unwrap();

    let server = Server::start(
        ServeConfig::new().with_workers(2).with_seed(5),
        Arc::clone(&registry),
        ledger,
    );
    // Pinned to v0: served exactly from the first snapshot.
    let r0 = server
        .submit(ServeRequest::new("tenant", "live/graph", 0.5).at_version(snap0.version()))
        .unwrap()
        .wait();
    assert_eq!(r0.version, Some(snap0.version()));
    assert!(r0.result.unwrap().value().is_finite());
    // Unpinned: bound to the latest version at execution.
    let r1 = server
        .submit(ServeRequest::new("tenant", "live/graph", 0.5))
        .unwrap()
        .wait();
    assert_eq!(r1.version, Some(snap1.version()));
    // A never-published version is a typed refusal.
    let missing = server
        .submit(ServeRequest::new("tenant", "live/graph", 0.5).at_version(GraphVersion::new(9)))
        .unwrap()
        .wait();
    assert!(matches!(
        missing.result,
        Err(ServeError::UnknownVersion { .. })
    ));
    // The two versions used distinct cache slots even though they share an
    // id: no replay across versions.
    assert_eq!(server.cache_stats().misses, 2);
    server.shutdown();
}

#[test]
fn budget_exhaustion_stops_releases_not_ingestion() {
    // Quota funds exactly 2 releases at ε = 0.5.
    let server = server(1.0);
    let ledger = Arc::clone(server.ledger());
    let scheduler = ReleaseScheduler::with_server(
        SchedulerConfig::new(ReleasePolicy::OnDemand).with_epsilon(0.5),
        server,
    );
    let tenant = TenantId::new("tenant");
    let mut stream = GraphStream::new("metered");
    stream.apply(&Mutation::insert(1, 0, 1)).unwrap();
    scheduler.release_now(&mut stream, &tenant).unwrap();
    stream.apply(&Mutation::insert(2, 1, 2)).unwrap();
    scheduler.release_now(&mut stream, &tenant).unwrap();
    stream.apply(&Mutation::insert(3, 2, 3)).unwrap();
    let err = scheduler.release_now(&mut stream, &tenant).unwrap_err();
    assert!(matches!(
        err,
        StreamError::Serve(ServeError::BudgetExhausted { .. })
    ));
    // Ingestion continues untouched after the refusal.
    stream.apply(&Mutation::insert(4, 3, 4)).unwrap();
    assert_eq!(stream.graph().num_connected_components(), 1);
    assert_eq!(scheduler.releases(), 2);
    // The ledger audit trail names each released snapshot.
    let account = ledger.account_view(&tenant).unwrap();
    assert_eq!(account.grants, 2);
    assert!(account.remaining_epsilon < 1e-9);
}
