//! The wire front-end: a TCP listener feeding the [`Server`] worker pool.
//!
//! [`NetServer::start`] binds a [`std::net::TcpListener`] and runs a
//! thread-per-connection accept loop with a hard connection cap: a peer
//! beyond the cap is answered `503 connection_cap` and closed, never
//! silently queued. Each connection thread speaks keep-alive HTTP/1.1
//! ([`crate::http`]) and routes
//!
//! * `POST /estimate` — submit a [`ServeRequest`] to the worker pool and
//!   block this connection (only) until the release arrives; queue
//!   backpressure surfaces as `429`, budget exhaustion as `403`,
//! * `POST /ingest`  — publish an edge-list snapshot into the catalog,
//! * `GET /healthz`  — liveness always, plus a `ready` verdict (pool
//!   accepting, catalog non-empty, not draining),
//! * `GET /metrics`  — the Prometheus exposition of every counter: pool,
//!   cache, catalog, budget, phases and the `ccdp_net_*` wire counters,
//! * `GET /trace/{id}` and `GET /audit/{tenant}` — one request's span tree
//!   and one tenant's audit trail.
//!
//! Shutdown drains: [`NetServer::shutdown`] flips the draining flag, wakes
//! the accept loop with a self-connection, answers new connections (and idle
//! keep-alive peers) `503 draining`, waits for every in-flight connection to
//! finish its current request, and only then joins the listener thread. No
//! accepted request is ever dropped mid-flight.

use crate::error::NetError;
use crate::http::{self, ReadOutcome, Request, WireLimits};
use ccdp_graph::GraphVersion;
use ccdp_obs::{replay_tenant, AuditEvent, Counter, MetricsRegistry, Span, TraceId, TraceTree};
use ccdp_serve::json::{self, JsonValue, JsonWriter};
use ccdp_serve::{ServeRequest, Server};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The socket read timeout of every connection: the keep-alive poll
/// interval, which bounds how long an idle peer can delay a drain.
const READ_TIMEOUT: Duration = Duration::from_millis(500);

/// Configuration of a [`NetServer`]. Every connection parses under
/// [`WireLimits::default`] and polls with a 500 ms read timeout.
#[derive(Clone, Debug)]
pub struct NetConfig {
    addr: String,
    max_connections: usize,
}

impl NetConfig {
    /// Defaults: an OS-assigned loopback port, 64 concurrent connections.
    pub fn new() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
        }
    }

    /// The bind address, e.g. `127.0.0.1:8787` (`:0` lets the OS pick).
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// The concurrent-connection cap (clamped to ≥ 1); connections beyond it
    /// are answered `503 connection_cap`.
    pub fn with_max_connections(mut self, cap: usize) -> Self {
        self.max_connections = cap.max(1);
        self
    }

    /// The configured connection cap.
    pub fn max_connections(&self) -> usize {
        self.max_connections
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Wire-tier counters. Each lives in the backing server's
/// [`MetricsRegistry`] as a `ccdp_net_*` series, so `GET /metrics` exposes
/// the wire island alongside serve/cache/budget/phase.
#[derive(Debug)]
struct NetCounters {
    accepted: Counter,
    refused_cap: Counter,
    refused_draining: Counter,
    requests: Counter,
    responses_ok: Counter,
    responses_client_error: Counter,
    responses_server_error: Counter,
}

impl NetCounters {
    fn registered(registry: &MetricsRegistry) -> Self {
        NetCounters {
            accepted: registry.counter("ccdp_net_connections_accepted_total"),
            refused_cap: registry.counter("ccdp_net_connections_refused_cap_total"),
            refused_draining: registry.counter("ccdp_net_connections_refused_draining_total"),
            requests: registry.counter("ccdp_net_requests_total"),
            responses_ok: registry.counter("ccdp_net_responses_ok_total"),
            responses_client_error: registry.counter("ccdp_net_responses_client_error_total"),
            responses_server_error: registry.counter("ccdp_net_responses_server_error_total"),
        }
    }
}

struct Shared {
    server: Arc<Server>,
    config: NetConfig,
    draining: AtomicBool,
    /// Count of live connection threads, guarded for the drain rendezvous.
    active: Mutex<usize>,
    idle: Condvar,
    counters: NetCounters,
}

impl Shared {
    fn count_response(&self, status: u16) {
        let c = &self.counters;
        match status {
            200..=299 => c.responses_ok.inc(),
            400..=499 => c.responses_client_error.inc(),
            _ => c.responses_server_error.inc(),
        };
    }
}

/// Decrements the active-connection count (and wakes the drain rendezvous)
/// however the connection thread exits, panics included.
struct ActiveGuard(Arc<Shared>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        let mut active = self.0.active.lock().unwrap_or_else(|p| p.into_inner());
        *active -= 1;
        self.0.idle.notify_all();
    }
}

/// A running wire front-end over one [`Server`].
pub struct NetServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    listener_thread: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds the listener and starts the accept loop.
    ///
    /// # Errors
    /// The bind error, if the address is unusable.
    pub fn start(config: NetConfig, server: Arc<Server>) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let counters = NetCounters::registered(server.metrics());
        let shared = Arc::new(Shared {
            server,
            config,
            draining: AtomicBool::new(false),
            active: Mutex::new(0),
            idle: Condvar::new(),
            counters,
        });
        let loop_shared = Arc::clone(&shared);
        let listener_thread = std::thread::spawn(move || accept_loop(&listener, &loop_shared));
        Ok(NetServer {
            local_addr,
            shared,
            listener_thread: Some(listener_thread),
        })
    }

    /// The bound address (useful with `:0` bindings).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The backing worker pool.
    pub fn server(&self) -> &Arc<Server> {
        &self.shared.server
    }

    /// Whether shutdown has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Drains and stops the listener: new connections are answered
    /// `503 draining`, every in-flight request runs to completion, then the
    /// accept loop joins. The backing [`Server`] is *not* shut down — it
    /// belongs to the caller, and its [`metrics`](Server::metrics) keep the
    /// final wire counters.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.shared.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop is blocked in accept(); a throwaway self-connection
        // wakes it so it can observe the flag and exit.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.listener_thread.take() {
            let _ = handle.join();
        }
        // Drain rendezvous: every connection thread finishes its in-flight
        // request (idle keep-alive peers notice the flag within one read
        // timeout) and the guard drops the count to zero.
        let mut active = self.shared.active.lock().unwrap_or_else(|p| p.into_inner());
        while *active > 0 {
            let (guard, _) = self
                .shared
                .idle
                .wait_timeout(active, Duration::from_millis(100))
                .unwrap_or_else(|p| p.into_inner());
            active = guard;
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .field("draining", &self.is_draining())
            .finish()
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                // Transient accept failures (EMFILE, aborted handshakes) must
                // not kill the listener; only a drain ends the loop.
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.draining.load(Ordering::SeqCst) {
            refuse(stream, shared, NetError::Draining);
            // Keep looping until the drain flag is the reason accept woke:
            // the wake connection itself lands here and ends the loop.
            return;
        }
        {
            let mut active = shared.active.lock().unwrap_or_else(|p| p.into_inner());
            if *active >= shared.config.max_connections {
                drop(active);
                refuse(
                    stream,
                    shared,
                    NetError::ConnectionCap {
                        limit: shared.config.max_connections,
                    },
                );
                continue;
            }
            *active += 1;
        }
        shared.counters.accepted.inc();
        let conn_shared = Arc::clone(shared);
        std::thread::spawn(move || {
            let _guard = ActiveGuard(Arc::clone(&conn_shared));
            connection_loop(stream, &conn_shared);
        });
    }
}

/// Answers a connection we will not serve with one typed refusal and closes
/// it. Best-effort: the peer may already be gone.
fn refuse(mut stream: TcpStream, shared: &Shared, error: NetError) {
    match &error {
        NetError::Draining => &shared.counters.refused_draining,
        _ => &shared.counters.refused_cap,
    }
    .inc();
    let body = json::error_body(error.code(), &error.to_string());
    let _ = http::write_response(&mut stream, error.http_status(), &body, true);
}

/// The per-connection keep-alive loop: parse, route, answer, repeat.
fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    // Responses are single buffered frames; Nagle would only add latency.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let limits = WireLimits::default();
    loop {
        let draining = shared.draining.load(Ordering::SeqCst);
        let request = match http::read_request(&mut reader, &limits) {
            Ok(ReadOutcome::Request(r)) => r,
            Ok(ReadOutcome::Closed) => return,
            Ok(ReadOutcome::Idle) => {
                if draining {
                    // An idle keep-alive peer must not stall the drain: tell
                    // it we are going away and close.
                    let body = json::error_body("draining", &NetError::Draining.to_string());
                    let _ = http::write_response(&mut writer, 503, &body, true);
                    return;
                }
                continue;
            }
            Err(e) => {
                // A malformed wire leaves the connection unframed: answer
                // typed and close — never guess where the next request starts.
                shared.counters.requests.inc();
                let status = e.http_status();
                shared.count_response(status);
                let body = json::error_body(e.code(), &e.message());
                let _ = http::write_response(&mut writer, status, &body, true);
                return;
            }
        };
        shared.counters.requests.inc();
        // A request already parsed is in-flight: draining lets it complete
        // but closes the connection behind it.
        let close = request.wants_close() || draining;
        let reply = route(&request, shared);
        shared.count_response(reply.status);
        let written = http::write_response_with(
            &mut writer,
            reply.status,
            &reply.body,
            reply.content_type,
            &reply.headers,
            close,
        );
        if written.is_err() || close {
            return;
        }
    }
}

/// One routed answer: status, body, content type and extra headers
/// (`X-Ccdp-Trace` on traced `/estimate` answers, successes and refusals
/// alike).
struct Reply {
    status: u16,
    body: String,
    content_type: &'static str,
    headers: Vec<(String, String)>,
}

impl Reply {
    fn json(body: String) -> Self {
        Reply {
            status: 200,
            body,
            content_type: "application/json",
            headers: Vec::new(),
        }
    }

    /// Prometheus text exposition (the content type its scrapers expect).
    fn exposition(body: String) -> Self {
        Reply {
            status: 200,
            body,
            content_type: "text/plain; version=0.0.4",
            headers: Vec::new(),
        }
    }

    fn error(e: &NetError) -> Self {
        Reply {
            status: e.http_status(),
            body: json::error_body(e.code(), &e.message()),
            content_type: "application/json",
            headers: Vec::new(),
        }
    }

    /// An error envelope that names the request's trace id — a refused
    /// request (429/403) is traced too, and the peer needs the id to pull
    /// the trace.
    fn error_traced(e: &NetError, trace: Option<TraceId>) -> Self {
        let mut reply = match trace {
            Some(id) => {
                let mut w = JsonWriter::object();
                w.begin_object("error")
                    .field_str("code", e.code())
                    .field_str("message", &e.message())
                    .field_str("trace", &id.to_string())
                    .end();
                Reply {
                    status: e.http_status(),
                    body: w.finish(),
                    content_type: "application/json",
                    headers: Vec::new(),
                }
            }
            None => Reply::error(e),
        };
        reply.attach_trace(trace);
        reply
    }

    fn attach_trace(&mut self, trace: Option<TraceId>) {
        if let Some(id) = trace {
            self.headers.push(("X-Ccdp-Trace".into(), id.to_string()));
        }
    }
}

/// Dispatches one parsed request to its route.
fn route(request: &Request, shared: &Shared) -> Reply {
    let result = match (request.method.as_str(), request.path()) {
        ("POST", "/estimate") => return route_estimate(request, shared),
        ("POST", "/ingest") => route_ingest(request, shared).map(Reply::json),
        ("GET", "/healthz") => Ok(Reply::json(healthz_body(shared))),
        // render_metrics (not the raw registry) so the pulled series (drop
        // counts, catalog sizes, uptime) are refreshed on every scrape.
        ("GET", "/metrics") => Ok(Reply::exposition(shared.server.render_metrics())),
        ("GET", path) if path.starts_with("/trace/") => route_trace(path, shared).map(Reply::json),
        ("GET", path) if path.starts_with("/audit/") => route_audit(path, shared).map(Reply::json),
        (_, path @ ("/estimate" | "/ingest" | "/healthz" | "/metrics")) => {
            Err(NetError::MethodNotAllowed {
                method: request.method.clone(),
                path: path.to_string(),
            })
        }
        (_, path) if path.starts_with("/trace/") || path.starts_with("/audit/") => {
            Err(NetError::MethodNotAllowed {
                method: request.method.clone(),
                path: path.to_string(),
            })
        }
        (_, path) => Err(NetError::UnknownRoute {
            path: path.to_string(),
        }),
    };
    result.unwrap_or_else(|e| Reply::error(&e))
}

/// `POST /estimate` — `{"tenant", "graph", "epsilon", "version"?}` through
/// the worker pool; blocks this connection until the release arrives. When
/// tracing is on, the trace id is minted *here*, before submission, so even
/// a `429`/`403` refusal carries `X-Ccdp-Trace` and its trace is pullable.
fn route_estimate(request: &Request, shared: &Shared) -> Reply {
    let trace = shared
        .server
        .tracer()
        .enabled()
        .then(|| shared.server.mint_trace());
    match estimate_body(request, shared, trace) {
        Ok(body) => {
            let mut reply = Reply::json(body);
            reply.attach_trace(trace);
            reply
        }
        Err(e) => Reply::error_traced(&e, trace),
    }
}

fn estimate_body(
    request: &Request,
    shared: &Shared,
    trace: Option<TraceId>,
) -> Result<String, NetError> {
    let body = parse_body(request)?;
    let tenant = require_str(&body, "tenant")?;
    let graph = require_str(&body, "graph")?;
    let epsilon = require_f64(&body, "epsilon")?;
    let mut serve_request = ServeRequest::new(tenant, graph, epsilon);
    if let Some(v) = body.get("version") {
        let v = v.as_u64().ok_or(NetError::BadField {
            field: "version",
            detail: "must be a non-negative integer".into(),
        })?;
        serve_request = serve_request.at_version(GraphVersion::new(v));
    }
    if let Some(id) = trace {
        serve_request = serve_request.with_trace(id);
    }
    // QueueFull / ShuttingDown surface here, before anything was enqueued.
    let pending = shared.server.submit(serve_request)?;
    let response = pending.wait();
    let release = response.result?;
    let mut w = JsonWriter::object();
    w.field_u64("request_id", response.request_id)
        .field_str("tenant", tenant)
        .field_str("graph", graph)
        .field_f64("value", release.value())
        .field_str("estimator", release.estimator());
    if let Some(eps) = release.privacy().epsilon() {
        w.field_f64("epsilon", eps);
    }
    if let Some(version) = response.version {
        w.field_u64("version", version.value());
    }
    w.field_f64_rounded("latency_ms", response.latency.as_secs_f64() * 1e3, 3);
    if let Some(id) = trace {
        w.field_str("trace", &id.to_string());
    }
    Ok(w.finish())
}

/// `GET /trace/{id}` — the assembled span tree of one request, while the
/// bounded span store still holds its events.
fn route_trace(path: &str, shared: &Shared) -> Result<String, NetError> {
    let raw = &path["/trace/".len()..];
    let id: TraceId = raw.parse().map_err(|()| NetError::BadField {
        field: "trace",
        detail: "must be a hex trace id".into(),
    })?;
    let tree = shared
        .server
        .tracer()
        .assemble(id)
        .ok_or_else(|| NetError::UnknownTrace {
            id: raw.to_string(),
        })?;
    Ok(trace_body(&tree))
}

fn trace_body(tree: &TraceTree) -> String {
    fn write_span(w: &mut JsonWriter, span: &Span) {
        w.begin_element_object()
            .field_str("name", &span.name)
            .field_u64("start_micros", span.start_micros)
            .field_u64("duration_nanos", span.duration_nanos);
        if let Some(detail) = &span.detail {
            w.field_str("detail", detail);
        }
        w.begin_array("children");
        for child in &span.children {
            write_span(w, child);
        }
        w.end().end();
    }
    let mut w = JsonWriter::object();
    w.field_str("trace", &tree.id.to_string())
        .field_u64("start_micros", tree.start_micros)
        .field_u64("total_nanos", tree.total_nanos)
        .begin_array("spans");
    for span in &tree.spans {
        write_span(&mut w, span);
    }
    w.end();
    w.finish()
}

/// `GET /audit/{tenant}` — the tenant's retained audit events, their live
/// account, and the replay verdict: whether folding the journaled events
/// reconstructs the ledger's accountant bit-for-bit.
fn route_audit(path: &str, shared: &Shared) -> Result<String, NetError> {
    let raw = &path["/audit/".len()..];
    if raw.is_empty() {
        return Err(NetError::BadField {
            field: "tenant",
            detail: "must be a tenant id".into(),
        });
    }
    let tenant = ccdp_serve::TenantId::new(raw);
    let account = shared.server.ledger().account_view(&tenant)?;
    let journal = shared.server.journal();
    let events = journal.events_for_tenant(raw);
    let replay = replay_tenant(raw, &events);
    // Replay equality is only claimable while the ring has dropped nothing
    // of this tenant's history; a wrapped ring reports `complete: false`
    // rather than a spurious mismatch.
    let complete = journal.dropped() == 0;
    let matches = complete && account.check_replay(&replay).is_ok();
    let mut w = JsonWriter::object();
    w.field_str("tenant", raw)
        .begin_object("account")
        .field_f64("quota_epsilon", account.quota_epsilon)
        .field_f64("spent_epsilon", account.spent_epsilon)
        .field_f64_rounded("utilization", account.utilization, 6)
        .field_u64("charges", account.grants as u64)
        .field_u64("refusals", account.refusals)
        .end()
        .begin_object("replay")
        .field_f64("quota_epsilon", replay.quota_epsilon)
        .field_f64("spent_epsilon", replay.spent_epsilon)
        .field_u64("charges", replay.charges)
        .field_u64("refusals", replay.refusals)
        .field_bool("complete", complete)
        .field_bool("matches", matches)
        .end()
        .begin_array("events");
    for event in &events {
        write_audit_event(&mut w, event);
    }
    w.end();
    Ok(w.finish())
}

fn write_audit_event(w: &mut JsonWriter, event: &AuditEvent) {
    w.begin_element_object()
        .field_u64("seq", event.seq)
        .field_u64("at_micros", event.at_micros)
        .field_str("kind", event.kind.name());
    if !event.graph.is_empty() {
        w.field_str("graph", &event.graph);
    }
    if let Some(version) = event.version {
        w.field_u64("version", version);
    }
    if !event.stage.is_empty() {
        w.field_str("stage", &event.stage);
    }
    w.field_f64("epsilon_requested", event.epsilon_requested)
        .field_f64("epsilon_granted", event.epsilon_granted);
    if let Some(trace) = event.trace {
        w.field_str("trace", &trace.to_string());
    }
    if !event.detail.is_empty() {
        w.field_str("detail", &event.detail);
    }
    w.end();
}

/// `POST /ingest` — `{"graph", "edges", "version"?}` parses the edge list
/// straight into a CSR arena and publishes it: at the explicit version when
/// pinned, else as latest-plus-one.
fn route_ingest(request: &Request, shared: &Shared) -> Result<String, NetError> {
    let body = parse_body(request)?;
    let id = require_str(&body, "graph")?;
    let edges = require_str(&body, "edges")?;
    let registry = shared.server.registry();
    let (version, graph) = match body.get("version") {
        Some(v) => {
            let v = v.as_u64().ok_or(NetError::BadField {
                field: "version",
                detail: "must be a non-negative integer".into(),
            })?;
            let version = GraphVersion::new(v);
            (
                version,
                registry.ingest_edge_list_version(id, version, edges)?,
            )
        }
        None => {
            let graph = Arc::new(
                ccdp_graph::io::from_edge_list_csr(edges)
                    .map_err(ccdp_serve::ServeError::Ingest)?,
            );
            // The registry picks latest-plus-one under its shard lock, so
            // concurrent unpinned ingests never collide.
            (registry.insert(id, Arc::clone(&graph)), graph)
        }
    };
    let mut w = JsonWriter::object();
    w.field_str("graph", id)
        .field_u64("version", version.value())
        .field_u64("vertices", graph.num_vertices() as u64)
        .field_u64("edges", graph.num_edges() as u64);
    Ok(w.finish())
}

/// `GET /healthz` — liveness is answering at all; readiness is the worker
/// pool accepting, the catalog non-empty and the listener not draining.
fn healthz_body(shared: &Shared) -> String {
    let accepting = shared.server.is_accepting();
    let draining = shared.draining.load(Ordering::SeqCst);
    let graphs = shared.server.registry().len();
    let ready = accepting && !draining && graphs > 0;
    let mut w = JsonWriter::object();
    w.field_str("status", if ready { "ok" } else { "degraded" })
        .field_bool("ready", ready)
        .field_bool("accepting", accepting)
        .field_bool("draining", draining)
        .field_u64("graphs", graphs as u64);
    w.finish()
}

fn parse_body(request: &Request) -> Result<JsonValue, NetError> {
    Ok(json::parse(request.body_str()?)?)
}

fn require_str<'a>(body: &'a JsonValue, field: &'static str) -> Result<&'a str, NetError> {
    let value = body.get(field).ok_or(NetError::MissingField { field })?;
    value.as_str().ok_or(NetError::BadField {
        field,
        detail: "must be a string".into(),
    })
}

fn require_f64(body: &JsonValue, field: &'static str) -> Result<f64, NetError> {
    let value = body.get(field).ok_or(NetError::MissingField { field })?;
    value.as_f64().ok_or(NetError::BadField {
        field,
        detail: "must be a number".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::NetClient;
    use ccdp_graph::generators;
    use ccdp_serve::{BudgetLedger, GraphRegistry, ServeConfig};

    /// Shuts `net` down and returns the final value of each series in
    /// `names`, read from the backing server's registry.
    fn shutdown_counts<const N: usize>(net: NetServer, names: [&str; N]) -> [u64; N] {
        let metrics = Arc::clone(net.server().metrics());
        net.shutdown();
        let snap = metrics.snapshot();
        names.map(|name| snap.value(name).unwrap_or(0.0) as u64)
    }

    fn start_fleet() -> NetServer {
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("stars", generators::planted_star_forest(10, 2, 3));
        registry.insert("path", generators::path(12));
        let ledger = Arc::new(BudgetLedger::new());
        ledger.register("acme", 100.0).unwrap();
        let server = Arc::new(Server::start(
            ServeConfig::new().with_workers(2).with_seed(7),
            registry,
            ledger,
        ));
        NetServer::start(NetConfig::new(), server).unwrap()
    }

    #[test]
    fn estimator_failures_render_without_their_inner_text() {
        // A worker copies a panic payload into the estimator error; the
        // wire body must name the failure, never echo the payload.
        let marker = "SECRET-PANIC-PAYLOAD";
        let e = NetError::Serve(ccdp_serve::ServeError::Estimator(
            ccdp_core::CcdpError::Algorithm(ccdp_core::CoreError::InvalidParameter(
                marker.to_string(),
            )),
        ));
        for reply in [Reply::error(&e), Reply::error_traced(&e, Some(TraceId(7)))] {
            assert_eq!(reply.status, 500);
            assert!(reply.body.contains("estimator_failed"), "{}", reply.body);
            assert!(reply.body.contains("estimator failed"), "{}", reply.body);
            assert!(!reply.body.contains(marker), "{}", reply.body);
        }
    }

    #[test]
    fn serves_an_estimate_over_the_wire() {
        let net = start_fleet();
        let mut client = NetClient::connect(net.local_addr());
        let est = client.estimate("acme", "stars", 0.5, None).unwrap();
        assert!(est.value.is_finite());
        assert_eq!(est.graph, "stars");
        assert_eq!(est.version, Some(0));
        let [ok, requests] = shutdown_counts(
            net,
            ["ccdp_net_responses_ok_total", "ccdp_net_requests_total"],
        );
        assert_eq!((ok, requests), (1, 1));
    }

    #[test]
    fn ingest_health_and_stats_round_trip() {
        let net = start_fleet();
        let mut client = NetClient::connect(net.local_addr());
        let health = client.health().unwrap();
        assert!(health.ready && health.accepting && !health.draining);
        assert_eq!(health.graphs, 2);

        let ingested = client
            .ingest("tri", "# 3 3\n0 1\n1 2\n0 2\n", None)
            .unwrap();
        assert_eq!((ingested.vertices, ingested.edges), (3, 3));
        assert_eq!(ingested.version, 0);
        // Unpinned re-ingest publishes latest-plus-one, pinned duplicates
        // are a typed 409.
        let again = client
            .ingest("tri", "# 4 3\n0 1\n1 2\n2 3\n", None)
            .unwrap();
        assert_eq!(again.version, 1);
        let err = client.ingest("tri", "# 2 1\n0 1\n", Some(1)).unwrap_err();
        assert!(
            matches!(&err, NetError::Api { status: 409, code, .. } if code == "version_exists"),
            "{err:?}"
        );

        let est = client.estimate("acme", "tri", 0.5, Some(1)).unwrap();
        assert_eq!(est.version, Some(1));

        // The catalog and serve counters are on `/metrics`; `/stats` is gone.
        let metrics = client.metrics().unwrap();
        assert!(
            metrics.contains("\nccdp_serve_catalog_graphs 3\n"),
            "{metrics}"
        );
        assert!(
            metrics.contains("\nccdp_serve_completed_total 1\n"),
            "{metrics}"
        );
        let err = client.get_json("/stats").unwrap_err();
        assert!(
            matches!(&err, NetError::Api { status: 404, code, .. } if code == "unknown_route"),
            "{err:?}"
        );
        net.shutdown();
    }

    #[test]
    fn typed_refusals_cross_the_wire_with_their_status() {
        let net = start_fleet();
        let mut client = NetClient::connect(net.local_addr());
        // Unknown tenant → 404 from the worker pool.
        let err = client.estimate("ghost", "stars", 0.5, None).unwrap_err();
        assert!(
            matches!(&err, NetError::Api { status: 404, code, .. } if code == "unknown_tenant")
        );
        // Budget exhaustion → 403, and the refused spend changed nothing.
        let err = client.estimate("acme", "stars", 1e9, None).unwrap_err();
        assert!(
            matches!(&err, NetError::Api { status: 403, code, .. } if code == "budget_exhausted")
        );
        // Invalid epsilon → 400 at submission.
        let err = client.estimate("acme", "stars", -1.0, None).unwrap_err();
        assert!(
            matches!(&err, NetError::Api { status: 400, code, .. } if code == "invalid_epsilon")
        );
        // Unknown route → 404 with its own code.
        let err = client.get_json("/nope").unwrap_err();
        assert!(matches!(&err, NetError::Api { status: 404, code, .. } if code == "unknown_route"));
        // Wrong method → 405.
        let err = client.get_json("/estimate").unwrap_err();
        assert!(
            matches!(&err, NetError::Api { status: 405, code, .. } if code == "method_not_allowed")
        );
        let [ok, client_errors] = shutdown_counts(
            net,
            [
                "ccdp_net_responses_ok_total",
                "ccdp_net_responses_client_error_total",
            ],
        );
        assert_eq!(ok, 0);
        assert!(client_errors >= 5);
    }

    #[test]
    fn audit_journal_surfaces_round_trip() {
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("stars", generators::planted_star_forest(10, 2, 3));
        let ledger = Arc::new(BudgetLedger::new());
        ledger.register("acme", 2.5).unwrap();
        let serve = Arc::new(Server::start(
            ServeConfig::new().with_workers(2).with_seed(7),
            registry,
            ledger,
        ));
        let net = NetServer::start(NetConfig::new(), Arc::clone(&serve)).unwrap();
        let mut client = NetClient::connect(net.local_addr());
        client.estimate("acme", "stars", 2.0, None).unwrap();
        let err = client.estimate("acme", "stars", 1.0, None).unwrap_err();
        assert!(matches!(&err, NetError::Api { status: 403, .. }));

        let audit = client.audit("acme").unwrap();
        let account = audit.get("account").unwrap();
        assert_eq!(account.get("charges").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(account.get("refusals").and_then(JsonValue::as_u64), Some(1));
        let replay = audit.get("replay").unwrap();
        assert_eq!(
            replay.get("matches").and_then(JsonValue::as_bool),
            Some(true)
        );
        assert_eq!(
            replay.get("spent_epsilon").and_then(JsonValue::as_f64),
            Some(2.0)
        );
        let events = match audit.get("events") {
            Some(JsonValue::Array(events)) => events,
            other => panic!("events must be an array, got {other:?}"),
        };
        let kind = |e: &JsonValue| {
            e.get("kind")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        };
        assert!(events
            .iter()
            .any(|e| kind(e).as_deref() == Some("budget_charge")));
        assert!(events
            .iter()
            .any(|e| kind(e).as_deref() == Some("budget_refusal")));

        // Unknown tenants are a typed 404; wrong methods a typed 405.
        let err = client.audit("ghost").unwrap_err();
        assert!(
            matches!(&err, NetError::Api { status: 404, code, .. } if code == "unknown_tenant")
        );
        // No SLO surface: `/slo` is an unknown route for every method.
        for err in [
            client.get_json("/slo").unwrap_err(),
            client.post_json("/slo", "{}").unwrap_err(),
        ] {
            assert!(
                matches!(&err, NetError::Api { status: 404, code, .. } if code == "unknown_route"),
                "{err:?}"
            );
        }
        let err = client.post_json("/audit/acme", "{}").unwrap_err();
        assert!(matches!(&err, NetError::Api { status: 405, .. }));

        // The exposition satellite: versioned content type, drop counters,
        // per-tenant spend series, `# EOF` terminator.
        let metrics = client.metrics().unwrap();
        assert!(metrics.contains("ccdp_obs_trace_dropped_total"));
        assert!(metrics.contains("ccdp_obs_audit_dropped_total"));
        assert!(metrics.contains("ccdp_serve_budget_spent_total{tenant=\"acme\"}"));
        assert!(metrics.ends_with("# EOF\n"));
        net.shutdown();
    }

    #[test]
    fn malformed_wire_input_is_answered_typed() {
        use std::io::Write as _;
        let net = start_fleet();
        for (raw, want) in [
            // Unframed garbage: answered and closed.
            (&b"GARBAGE\r\n\r\n"[..], 400),
            // Well-framed request, bad JSON body: answered, framing intact.
            (
                b"POST /estimate HTTP/1.1\r\nContent-Length: 3\r\n\r\n{ni",
                400,
            ),
            (b"GET / HTTP/5.0\r\n\r\n", 505),
        ] {
            let mut s = TcpStream::connect(net.local_addr()).unwrap();
            s.write_all(raw).unwrap();
            let mut reader = BufReader::new(s.try_clone().unwrap());
            let reply = http::read_response(&mut reader, &WireLimits::default()).unwrap();
            assert_eq!(reply.status, want, "{raw:?}");
            assert!(reply.body_str().unwrap().contains("\"error\""), "{raw:?}");
        }
        net.shutdown();
    }

    #[test]
    fn connection_cap_is_a_typed_refusal() {
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("path", generators::path(8));
        let ledger = Arc::new(BudgetLedger::new());
        ledger.register("acme", 10.0).unwrap();
        let server = Arc::new(Server::start(ServeConfig::new(), registry, ledger));
        let net = NetServer::start(NetConfig::new().with_max_connections(1), server).unwrap();
        // Hold one connection open (it counts against the cap once served).
        let mut first = NetClient::connect(net.local_addr());
        first.health().unwrap();
        // A second concurrent connection must be refused, not queued.
        let mut refused = None;
        for _ in 0..50 {
            let mut probe = NetClient::connect(net.local_addr());
            match probe.health() {
                Err(NetError::Api {
                    status: 503, code, ..
                }) if code == "connection_cap" => {
                    refused = Some(code);
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        assert!(
            refused.is_some(),
            "cap of 1 never refused a second connection"
        );
        let [refused_cap] = shutdown_counts(net, ["ccdp_net_connections_refused_cap_total"]);
        assert!(refused_cap >= 1);
    }

    #[test]
    fn shutdown_drains_and_refuses_new_connections() {
        let net = start_fleet();
        let addr = net.local_addr();
        let [refused_draining] =
            shutdown_counts(net, ["ccdp_net_connections_refused_draining_total"]);
        // The shutdown wake is a real connection and gets the same typed
        // `503 draining` any client racing the drain would see.
        assert_eq!(refused_draining, 1);
        // The port is released: a fresh bind either fails to connect or the
        // old listener is gone. Either way no new server answers.
        assert!(NetClient::connect(addr).health().is_err());
    }
}
