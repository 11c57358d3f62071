//! End-to-end observability over real sockets.
//!
//! The acceptance contract of the obs tier, exercised through the wire:
//! every `POST /estimate` on a tracing server answers with an
//! `X-Ccdp-Trace` id that `GET /trace/{id}` resolves to the full span tree
//! (queue admission, cache outcome, solver phases, budget decision,
//! release), refusals included; and `GET /metrics` exposes every island's
//! counters as one coherent Prometheus exposition.

use ccdp_net::{NetClient, NetConfig, NetError, NetServer};
use ccdp_obs::parse_exposition;
use ccdp_serve::json::JsonValue;
use ccdp_serve::{BudgetLedger, GraphRegistry, ServeConfig, Server};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A traced fleet: a cheap cached graph, a CSR-sized graph (work ≥ the
/// parallel threshold, so the solver runs its partition/anchor/lp phases),
/// a funded tenant and a nearly-broke one.
fn start_traced_fleet(seed: u64) -> NetServer {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert(
        "stars",
        ccdp_graph::generators::planted_star_forest(10, 2, 3),
    );
    registry.insert("big", ccdp_graph::generators::path(2500));
    let ledger = Arc::new(BudgetLedger::new());
    ledger.register("acme", 1.0e6).unwrap();
    ledger.register("broke", 1e-6).unwrap();
    let server = Arc::new(Server::start(
        ServeConfig::new()
            .with_workers(2)
            .with_seed(seed)
            .with_tracing(true),
        registry,
        ledger,
    ));
    NetServer::start(NetConfig::new(), server).unwrap()
}

/// Every span name in a `/trace/{id}` JSON answer, depth-first.
fn span_names(tree: &JsonValue) -> Vec<String> {
    fn walk(spans: &JsonValue, out: &mut Vec<String>) {
        if let JsonValue::Array(items) = spans {
            for span in items {
                if let Some(name) = span.get("name").and_then(JsonValue::as_str) {
                    out.push(name.to_string());
                }
                if let Some(children) = span.get("children") {
                    walk(children, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    if let Some(spans) = tree.get("spans") {
        walk(spans, &mut out);
    }
    out
}

/// Max span duration in the tree (the "non-zero timings" check).
fn max_duration_nanos(tree: &JsonValue) -> u64 {
    fn walk(spans: &JsonValue, max: &mut u64) {
        if let JsonValue::Array(items) = spans {
            for span in items {
                if let Some(d) = span.get("duration_nanos").and_then(JsonValue::as_u64) {
                    *max = (*max).max(d);
                }
                if let Some(children) = span.get("children") {
                    walk(children, max);
                }
            }
        }
    }
    let mut max = 0;
    if let Some(spans) = tree.get("spans") {
        walk(spans, &mut max);
    }
    max
}

#[test]
fn estimate_trace_resolves_to_the_full_span_tree() {
    let net = start_traced_fleet(41);
    let mut client = NetClient::connect(net.local_addr());

    // A CSR-sized miss: the solver's own phases must appear in the tree.
    let est = client.estimate("acme", "big", 0.5, None).unwrap();
    let id = est.trace.expect("tracing server must attach a trace id");
    let tree = client.trace(&id).unwrap();
    assert_eq!(
        tree.get("trace").and_then(JsonValue::as_str),
        Some(id.as_str())
    );

    let names = span_names(&tree);
    for must in [
        "queued",
        "dequeued",
        "cache/miss",
        "budget/charge",
        "noise/draw",
        "release",
    ] {
        assert!(
            names.iter().any(|n| n == must),
            "missing `{must}`: {names:?}"
        );
    }
    // ≥ 3 solver phases: the CSR family pipeline plus the release stages.
    let phases: Vec<_> = names.iter().filter(|n| n.starts_with("phase/")).collect();
    assert!(phases.len() >= 3, "expected ≥3 phase spans, got {phases:?}");
    for must in [
        "phase/family/partition",
        "phase/family/anchor",
        "phase/family/lp",
        "phase/release/true-value",
        "phase/release/mechanisms",
    ] {
        assert!(
            names.iter().any(|n| n == must),
            "missing `{must}`: {names:?}"
        );
    }
    assert!(
        max_duration_nanos(&tree) > 0,
        "a 2500-vertex solve must have non-zero span timings"
    );
    assert!(
        tree.get("total_nanos").and_then(JsonValue::as_u64).unwrap() > 0,
        "trace wall clock must be non-zero"
    );

    // The same graph again: a cache hit, with its own fresh trace.
    let est2 = client.estimate("acme", "big", 0.5, None).unwrap();
    let id2 = est2.trace.unwrap();
    assert_ne!(id, id2, "every request mints its own trace id");
    let names2 = span_names(&client.trace(&id2).unwrap());
    assert!(
        names2
            .iter()
            .any(|n| n == "cache/hit" || n == "cache/coalesced"),
        "second request should hit the family cache: {names2:?}"
    );

    // An unknown id (after the real ones, so it cannot collide) is a typed 404.
    let err = client
        .trace("00000000000000000000000000000000")
        .unwrap_err();
    assert!(
        matches!(&err, NetError::Api { status: 404, code, .. } if code == "unknown_trace"),
        "{err:?}"
    );
    net.shutdown();
}

#[test]
fn budget_refusals_are_traced_end_to_end() {
    let net = start_traced_fleet(43);
    let mut client = NetClient::connect(net.local_addr());
    let err = client.estimate("broke", "stars", 1.0, None).unwrap_err();
    let NetError::Api {
        status: 403,
        code,
        trace: Some(id),
        ..
    } = &err
    else {
        panic!("expected a traced 403, got {err:?}");
    };
    assert_eq!(code, "budget_exhausted");
    let names = span_names(&client.trace(id).unwrap());
    for must in ["queued", "dequeued", "budget/refusal", "failed"] {
        assert!(
            names.iter().any(|n| n == must),
            "missing `{must}`: {names:?}"
        );
    }
    net.shutdown();
}

#[test]
fn queue_full_refusals_still_carry_a_trace() {
    // One worker, a one-slot queue, and the worker wedged on a big solve:
    // concurrent submissions overflow deterministically soon.
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("big", ccdp_graph::generators::path(6000));
    let ledger = Arc::new(BudgetLedger::new());
    ledger.register("acme", 1.0e6).unwrap();
    let server = Arc::new(Server::start(
        ServeConfig::new()
            .with_workers(1)
            .with_queue_capacity(1)
            .with_seed(5)
            .with_tracing(true),
        registry,
        ledger,
    ));
    let net = NetServer::start(NetConfig::new(), server).unwrap();
    let addr = net.local_addr();

    // Saturate: each estimate blocks its own connection, so drive them from
    // threads until one bounces off the full queue.
    let mut handles = Vec::new();
    for _ in 0..6 {
        handles.push(std::thread::spawn(move || {
            NetClient::connect(addr).estimate("acme", "big", 0.25, None)
        }));
    }
    let mut refused_trace = None;
    for handle in handles {
        if let Err(NetError::Api {
            status: 429, trace, ..
        }) = handle.join().unwrap()
        {
            refused_trace = trace;
        }
    }
    let id = refused_trace.expect("six clients against a 1-slot queue must see a 429 with a trace");
    let names = span_names(&NetClient::connect(addr).trace(&id).unwrap());
    assert!(
        names.iter().any(|n| n == "queue/refused"),
        "a queue-full trace records its refusal: {names:?}"
    );
    net.shutdown();
}

#[test]
fn metrics_exposition_covers_every_island() {
    let net = start_traced_fleet(47);
    let mut client = NetClient::connect(net.local_addr());
    let before = parse_exposition(&client.metrics().unwrap());
    client.estimate("acme", "big", 0.5, None).unwrap();
    client.estimate("acme", "big", 0.5, None).unwrap();
    client.estimate("acme", "stars", 0.5, None).unwrap();
    let _ = client.estimate("broke", "stars", 1.0, None);

    let text = client.metrics().unwrap();
    let series = parse_exposition(&text);

    // Counters are monotone: every `*_total` series of the first scrape is
    // still exported and has not moved backwards.
    let counters: Vec<_> = before
        .iter()
        .filter(|(n, _)| n.split('{').next().unwrap_or(n).ends_with("_total"))
        .collect();
    assert!(!counters.is_empty(), "no counters before the first request");
    for (name, was) in counters {
        let now = series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter `{name}` vanished between scrapes"));
        assert!(
            now >= *was,
            "counter `{name}` moved backwards: {was} -> {now}"
        );
    }
    let names: BTreeSet<&str> = series.iter().map(|(n, _)| n.as_str()).collect();
    assert!(
        names.len() >= 20,
        "expected ≥20 named series, got {}: {names:?}",
        names.len()
    );
    for island in [
        "ccdp_net_",
        "ccdp_serve_",
        "ccdp_core_cache_",
        "ccdp_dp_budget_",
        "ccdp_exec_phase_",
    ] {
        assert!(
            names.iter().any(|n| n.starts_with(island)),
            "no `{island}*` series in the exposition: {names:?}"
        );
    }

    // Cross-island consistency: the serve, budget and cache islands agree
    // on the four requests, and the catalog gauges count the fleet.
    let value = |name: &str| {
        series
            .iter()
            .filter(|(n, _)| n == name || n.starts_with(&format!("{name}{{")))
            .map(|(_, v)| v)
            .sum::<f64>()
    };
    assert_eq!(value("ccdp_serve_requests_total"), 4.0);
    assert_eq!(value("ccdp_serve_completed_total"), 3.0);
    assert_eq!(value("ccdp_dp_budget_charges_total"), 3.0);
    assert_eq!(value("ccdp_dp_budget_refusals_total"), 1.0);
    assert!(value("ccdp_core_cache_misses_total") >= 2.0);
    assert!(value("ccdp_core_cache_hits_total") + value("ccdp_core_cache_coalesced_total") >= 1.0);
    assert_eq!(value("ccdp_serve_catalog_graphs"), 2.0);
    assert_eq!(value("ccdp_serve_catalog_versions"), 2.0);
    assert_eq!(value("ccdp_serve_tenants"), 2.0);
    net.shutdown();
}

/// One request's expected wire outcome in the random schedule.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `acme` on `stars`: succeeds (miss on first touch, hit after).
    Served,
    /// `broke` on `stars`: a traced `403 budget_exhausted`.
    Refused,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any interleaving of served and refused requests: every answer
    /// carries a trace id, and every id resolves to a tree whose skeleton
    /// matches the outcome the client observed.
    #[test]
    fn every_wire_answer_resolves_to_its_skeleton(
        ops in vec(any::<bool>(), 1..8),
        seed in 0u64..1000,
    ) {
        let net = start_traced_fleet(1000 + seed);
        let mut client = NetClient::connect(net.local_addr());
        for served in ops {
            let op = if served { Op::Served } else { Op::Refused };
            let (id, expected) = match op {
                Op::Served => {
                    let est = client.estimate("acme", "stars", 0.25, None).unwrap();
                    (est.trace.unwrap(), vec!["queued", "dequeued", "budget/charge", "release"])
                }
                Op::Refused => {
                    let err = client.estimate("broke", "stars", 1.0, None).unwrap_err();
                    let NetError::Api { status: 403, trace: Some(id), .. } = err else {
                        panic!("expected a traced 403, got another outcome");
                    };
                    (id, vec!["queued", "dequeued", "budget/refusal", "failed"])
                }
            };
            let names = span_names(&client.trace(&id).unwrap());
            for must in expected {
                prop_assert!(names.iter().any(|n| n == must), "missing `{must}`: {names:?}");
            }
            if matches!(op, Op::Served) {
                prop_assert!(
                    names.iter().any(|n| n.starts_with("cache/")),
                    "a served request records its cache outcome: {names:?}"
                );
            }
        }
        net.shutdown();
    }
}
