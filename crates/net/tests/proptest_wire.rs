//! Property: the wire parser is *total*. Whatever bytes arrive — random
//! garbage, truncated prefixes of valid requests, oversized frames — the
//! parser answers with `Ok(ReadOutcome)` or a typed [`NetError`] whose HTTP
//! status is a real refusal code. It never panics, and a live listener fed
//! the same garbage stays healthy for the next well-formed client.

use ccdp_net::http::{self, ReadOutcome};
use ccdp_net::{NetClient, NetConfig, NetError, NetServer, WireLimits};
use ccdp_serve::{BudgetLedger, GraphRegistry, ServeConfig, Server};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{BufReader, Cursor, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A complete, valid request serialized to bytes (the happy frame the
/// truncation property carves prefixes from).
fn valid_frame(target: &str, body: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    http::write_request(&mut buf, "POST", target, Some(body)).unwrap();
    buf
}

/// Parses one frame in memory and translates the result into the property
/// surface: either an outcome or a typed error with its wire status.
fn parse(bytes: &[u8], limits: &WireLimits) -> Result<ReadOutcome, (u16, String)> {
    let mut reader = BufReader::new(Cursor::new(bytes));
    http::read_request(&mut reader, limits).map_err(|e| (e.http_status(), e.code().to_string()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary bytes: never a panic, and every refusal is a 4xx/5xx with
    /// a stable machine code.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..512)) {
        match parse(&bytes, &WireLimits::default()) {
            Ok(_) => {}
            Err((status, code)) => {
                prop_assert!((400..=599).contains(&status), "status {status}");
                prop_assert!(!code.is_empty());
            }
        }
    }

    /// Every strict prefix of a valid request is a clean close (empty), or
    /// a typed truncation/parse refusal — never a successfully parsed
    /// request, and never a panic.
    #[test]
    fn truncated_requests_are_typed_refusals(
        body_len in 0usize..96,
        cut in 0usize..400,
    ) {
        let body: String = "x".repeat(body_len);
        let frame = valid_frame("/estimate", &body);
        let cut = cut.min(frame.len());
        match parse(&frame[..cut], &WireLimits::default()) {
            Ok(ReadOutcome::Request(req)) => {
                // Only the complete frame parses as a request.
                prop_assert_eq!(cut, frame.len());
                prop_assert_eq!(req.body.len(), body_len);
            }
            Ok(ReadOutcome::Closed) => prop_assert_eq!(cut, 0),
            Ok(ReadOutcome::Idle) => prop_assert!(false, "in-memory reads cannot idle"),
            Err((status, _)) => {
                prop_assert!(cut < frame.len(), "complete frame refused ({status})");
                prop_assert!((400..=599).contains(&status));
            }
        }
    }

    /// Any complete frame that overruns the configured body cap is exactly
    /// `413 body_too_large`, and frames within the cap round-trip intact.
    #[test]
    fn body_cap_is_enforced_exactly(body_len in 0usize..256) {
        let limits = WireLimits { max_body_bytes: 128, ..WireLimits::default() };
        let body: String = "y".repeat(body_len);
        match parse(&valid_frame("/ingest", &body), &limits) {
            Ok(ReadOutcome::Request(req)) => {
                prop_assert!(body_len <= 128);
                prop_assert_eq!(req.body_str().unwrap(), body.as_str());
            }
            Err((status, code)) => {
                prop_assert!(body_len > 128, "in-cap body refused ({code})");
                prop_assert_eq!(status, 413);
                prop_assert_eq!(code.as_str(), "body_too_large");
            }
            Ok(other) => prop_assert!(false, "unexpected outcome {other:?}"),
        }
    }
}

/// One listener shared across all live-socket cases (a server per proptest
/// case would dominate the run). `OnceLock` keeps it for the process.
fn shared_server() -> &'static NetServer {
    static SERVER: OnceLock<NetServer> = OnceLock::new();
    SERVER.get_or_init(|| {
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("probe", ccdp_graph::generators::path(8));
        let ledger = Arc::new(BudgetLedger::new());
        ledger.register("prop", 1.0e6).unwrap();
        let server = Arc::new(Server::start(
            ServeConfig::new().with_workers(2).with_seed(23),
            registry,
            ledger,
        ));
        NetServer::start(NetConfig::new().with_max_connections(64), server).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Garbage over a real socket: the listener answers with a typed error
    /// response (or just closes an empty connection), never wedges — the
    /// next well-formed client on a fresh connection is served normally.
    #[test]
    fn live_listener_survives_garbage(bytes in vec(any::<u8>(), 0..256)) {
        let net = shared_server();
        let mut stream = TcpStream::connect(net.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(&bytes).unwrap();
        // Half-close so the listener sees EOF instead of waiting out its
        // idle timeout on frames that happen to be valid prefixes.
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut answer = String::new();
        stream.read_to_string(&mut answer).unwrap();
        if !bytes.is_empty() {
            // Anything beyond a clean EOF earns a typed HTTP refusal. A
            // random blob is never a complete valid request (it would need
            // "METHOD /target HTTP/1.1" plus exact framing), so the answer
            // here is always an error status with a JSON error body.
            prop_assert!(answer.starts_with("HTTP/1.1 4") || answer.starts_with("HTTP/1.1 5"),
                "unexpected answer {answer:?}");
            prop_assert!(answer.contains("\"error\""));
        }
        drop(stream);

        let mut client = NetClient::connect(net.local_addr());
        let est = client.estimate("prop", "probe", 0.25, None);
        prop_assert!(est.is_ok(), "healthy client refused after garbage: {est:?}");
    }
}

/// The legitimate frames the fuzz cases above can never hit by chance:
/// a well-formed request with an unknown method is `405`, an unknown path
/// `404`, and both leave the connection reusable.
#[test]
fn well_formed_but_wrong_requests_keep_the_connection() {
    let net = shared_server();
    let mut stream = TcpStream::connect(net.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"DELETE /estimate HTTP/1.1\r\ncontent-length: 0\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let limits = WireLimits::default();
    let first = http::read_response(&mut reader, &limits).unwrap();
    assert_eq!(first.status, 405);

    // Same socket, next frame: the 405 kept framing intact.
    stream
        .write_all(b"GET /no-such-route HTTP/1.1\r\n\r\n")
        .unwrap();
    let second = http::read_response(&mut reader, &limits).unwrap();
    assert_eq!(second.status, 404);
    assert!(second.body_str().unwrap().contains("unknown_route"));
}

/// A 17-byte edge list naming vertex 10^17, or a header declaring 10^11
/// vertices, is a typed `400 ingest_failed` on both the latest and the
/// pinned-version ingest path — never an allocation abort — and the next
/// request on the same connection is served.
#[test]
fn oversized_edge_lists_are_refused_and_the_server_keeps_serving() {
    let net = shared_server();
    let mut client = NetClient::connect(net.local_addr());
    for edges in ["0 99999999999999999", "# 100000000000 0"] {
        for version in [None, Some(7)] {
            match client.ingest("oversized", edges, version) {
                Err(NetError::Api { status, code, .. }) => {
                    assert_eq!((status, code.as_str()), (400, "ingest_failed"), "{edges:?}");
                }
                other => panic!("{edges:?} (version {version:?}) was not refused: {other:?}"),
            }
        }
    }
    let est = client.estimate("prop", "probe", 0.25, None);
    assert!(
        est.is_ok(),
        "client refused after an oversized ingest: {est:?}"
    );
}

/// `NetError` statuses quoted in the README mapping table are locked here.
#[test]
fn readme_error_code_mapping_is_stable() {
    use ccdp_serve::{BudgetExceeded, ServeError};
    let cases: &[(ServeError, u16, &str)] = &[
        (ServeError::QueueFull { capacity: 1 }, 429, "queue_full"),
        (ServeError::ShuttingDown, 503, "shutting_down"),
        (
            ServeError::BudgetExhausted {
                tenant: "t".into(),
                exceeded: BudgetExceeded {
                    requested: 1.0,
                    remaining: 0.0,
                },
            },
            403,
            "budget_exhausted",
        ),
        (
            ServeError::UnknownGraph { graph: "g".into() },
            404,
            "unknown_graph",
        ),
        (
            ServeError::UnknownTenant { tenant: "t".into() },
            404,
            "unknown_tenant",
        ),
    ];
    for (err, status, code) in cases {
        let (s, c) = ccdp_net::serve_error_status(err);
        assert_eq!((s, c), (*status, *code), "{err:?}");
    }
}
