//! Shutdown is a drain, not a guillotine. This test tears the listener down
//! in the middle of live traffic and checks the contract end to end:
//!
//! * every request a client saw succeed was really counted by the server —
//!   nothing in flight is silently dropped;
//! * every request refused during the drain failed *typed* (`503` over the
//!   wire or a connection-level `NetError`), never a hang or a panic;
//! * once `shutdown` returns, the port no longer answers.

use ccdp_net::{NetClient, NetConfig, NetError, NetServer};
use ccdp_serve::{BudgetLedger, GraphRegistry, ServeConfig, Server};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

#[test]
fn shutdown_mid_load_drops_nothing_in_flight() {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert(
        "work",
        ccdp_graph::generators::planted_star_forest(16, 3, 8),
    );
    let ledger = Arc::new(BudgetLedger::new());
    ledger.register("drain", 1.0e9).unwrap();
    let server = Arc::new(Server::start(
        ServeConfig::new().with_workers(3).with_seed(41),
        registry,
        ledger,
    ));
    let net = NetServer::start(
        NetConfig::new().with_max_connections(32),
        Arc::clone(&server),
    )
    .unwrap();
    let addr = net.local_addr();

    // Eight clients hammer /estimate until the drain cuts them off. Each
    // thread reports (successes, first failure if any).
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..8)
        .map(|_| {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut client = NetClient::connect(addr).with_timeout(Duration::from_secs(10));
                let mut ok = 0u64;
                let mut refusal: Option<NetError> = None;
                while !stop.load(Ordering::Relaxed) {
                    match client.estimate("drain", "work", 0.05, None) {
                        Ok(est) => {
                            assert!(est.value.is_finite());
                            ok += 1;
                        }
                        Err(e) => {
                            refusal = Some(e);
                            break;
                        }
                    }
                }
                (ok, refusal)
            })
        })
        .collect();

    // Let traffic build, then drain while requests are in flight.
    thread::sleep(Duration::from_millis(300));
    net.shutdown();
    let snap = server.metrics().snapshot();
    stop.store(true, Ordering::Relaxed);

    let mut client_ok = 0u64;
    let mut refusals = 0u64;
    for w in workers {
        let (ok, refusal) = w.join().expect("client thread must not panic");
        client_ok += ok;
        if let Some(err) = refusal {
            refusals += 1;
            // Typed refusal: either the drain's 503 answer or a
            // connection-level error once the socket is gone — never an
            // Api error with a success status, never a parse wreck.
            match &err {
                NetError::Api { status, .. } => {
                    assert_eq!(*status, 503, "drain refusal was {err:?}")
                }
                NetError::Io { .. } | NetError::Protocol { .. } => {}
                other => panic!("untyped drain failure: {other:?}"),
            }
        }
    }

    // The drain really drained: the server answered every request a client
    // counted as a success (the listener's OK counter can only exceed the
    // clients' count by responses cut off on the wire, never undercount).
    assert!(client_ok > 0, "no traffic made it before the drain");
    // Every client that was still in its loop at shutdown hit the cutoff.
    assert!(refusals > 0, "the drain never refused a live client");
    let responses_ok = snap.value("ccdp_net_responses_ok_total").unwrap() as u64;
    assert!(
        responses_ok >= client_ok,
        "clients saw {client_ok} successes but the server only answered {responses_ok}"
    );
    // And the pool behind it agrees end-to-end: completions cover every
    // wire-level success.
    let completed = server
        .metrics()
        .snapshot()
        .value("ccdp_serve_completed_total")
        .unwrap() as u64;
    assert!(
        completed >= client_ok,
        "worker pool completed {completed} < client successes {client_ok}"
    );

    // The port is dead after shutdown returns.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener still answering after shutdown"
    );
}
