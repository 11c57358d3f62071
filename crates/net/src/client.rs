//! A blocking, typed client for the wire front-end.
//!
//! [`NetClient`] speaks the same hand-rolled HTTP/1.1 as the listener:
//! lazy connect, keep-alive reuse, one transparent reconnect when a reused
//! connection turns out to have been closed under us (the only retry the
//! client ever does on its own — a request that *reached* the server is
//! never silently resent). Responses decode into typed structs; every
//! non-2xx decodes the server's `{"error":{code,message}}` body into
//! [`NetError::Api`], so callers match on stable codes, not substrings.

use crate::error::NetError;
use crate::http::{self, Response, WireLimits};
use ccdp_serve::json::{JsonValue, JsonWriter};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Resolves `addr` (e.g. `127.0.0.1:8787` or `localhost:8787`) to a socket
/// address, as a typed error rather than an io panic.
pub fn resolve(addr: &str) -> Result<SocketAddr, NetError> {
    addr.to_socket_addrs()
        .map_err(|e| NetError::Io {
            detail: format!("cannot resolve `{addr}`: {e}"),
        })?
        .next()
        .ok_or_else(|| NetError::Io {
            detail: format!("`{addr}` resolved to no address"),
        })
}

/// The decoded answer of `POST /estimate`.
#[derive(Clone, Debug)]
pub struct EstimateResponse {
    /// Server-assigned request id.
    pub request_id: u64,
    /// The tenant that funded the release.
    pub tenant: String,
    /// The graph released on.
    pub graph: String,
    /// The private estimate.
    pub value: f64,
    /// The estimator that produced it.
    pub estimator: String,
    /// The ε spent (absent for non-private baselines).
    pub epsilon: Option<f64>,
    /// The snapshot version served from.
    pub version: Option<u64>,
    /// Server-side end-to-end latency in milliseconds (queue included).
    pub latency_ms: f64,
    /// The request's trace id (the `X-Ccdp-Trace` header / `trace` body
    /// field), when the server traced it. Feed it to
    /// [`NetClient::trace`] / `GET /trace/{id}`.
    pub trace: Option<String>,
}

/// The decoded answer of `POST /ingest`.
#[derive(Clone, Debug)]
pub struct IngestResponse {
    /// The catalog id published under.
    pub graph: String,
    /// The version the snapshot landed at.
    pub version: u64,
    /// Parsed vertex count.
    pub vertices: u64,
    /// Parsed edge count.
    pub edges: u64,
}

/// The decoded answer of `GET /healthz`.
#[derive(Clone, Debug)]
pub struct HealthResponse {
    /// `ok` when ready, `degraded` otherwise.
    pub status: String,
    /// Readiness verdict: accepting, catalog non-empty, not draining.
    pub ready: bool,
    /// Whether the worker pool accepts submissions.
    pub accepting: bool,
    /// Whether the listener is draining for shutdown.
    pub draining: bool,
    /// Catalog size.
    pub graphs: u64,
}

/// One keep-alive connection to a [`crate::NetServer`] (or anything speaking
/// its protocol).
pub struct NetClient {
    addr: SocketAddr,
    limits: WireLimits,
    timeout: Duration,
    conn: Option<Conn>,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl NetClient {
    /// A client for `addr`. No connection is made until the first request.
    pub fn connect(addr: SocketAddr) -> Self {
        NetClient {
            addr,
            limits: WireLimits::default(),
            timeout: Duration::from_secs(30),
            conn: None,
        }
    }

    /// Overrides the per-read socket timeout (default 30 s — an estimate
    /// blocks server-side until a worker finishes it).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout.max(Duration::from_millis(10));
        self
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `POST /estimate`: one private release through the worker pool.
    pub fn estimate(
        &mut self,
        tenant: &str,
        graph: &str,
        epsilon: f64,
        version: Option<u64>,
    ) -> Result<EstimateResponse, NetError> {
        let mut w = JsonWriter::object();
        w.field_str("tenant", tenant)
            .field_str("graph", graph)
            .field_f64("epsilon", epsilon);
        if let Some(v) = version {
            w.field_u64("version", v);
        }
        let response = self.request("POST", "/estimate", Some(&w.finish()))?;
        let trace = response.header("x-ccdp-trace").map(str::to_string);
        let body = decode(response)?;
        Ok(EstimateResponse {
            request_id: field_u64(&body, "request_id")?,
            tenant: field_str(&body, "tenant")?,
            graph: field_str(&body, "graph")?,
            value: field_f64(&body, "value")?,
            estimator: field_str(&body, "estimator")?,
            epsilon: body.get("epsilon").and_then(JsonValue::as_f64),
            version: body.get("version").and_then(JsonValue::as_u64),
            latency_ms: field_f64(&body, "latency_ms")?,
            trace,
        })
    }

    /// `POST /ingest`: publish an edge-list snapshot (pinned when `version`
    /// is given, latest-plus-one otherwise).
    pub fn ingest(
        &mut self,
        graph: &str,
        edges: &str,
        version: Option<u64>,
    ) -> Result<IngestResponse, NetError> {
        let mut w = JsonWriter::object();
        w.field_str("graph", graph).field_str("edges", edges);
        if let Some(v) = version {
            w.field_u64("version", v);
        }
        let body = self.post_json("/ingest", &w.finish())?;
        Ok(IngestResponse {
            graph: field_str(&body, "graph")?,
            version: field_u64(&body, "version")?,
            vertices: field_u64(&body, "vertices")?,
            edges: field_u64(&body, "edges")?,
        })
    }

    /// `GET /metrics`: the Prometheus text exposition of every registered
    /// series, verbatim.
    pub fn metrics(&mut self) -> Result<String, NetError> {
        self.get_text("/metrics")
    }

    /// `GET /trace/{id}`: the assembled span tree of one traced request,
    /// as parsed JSON (`404 unknown_trace` once the trace is evicted).
    pub fn trace(&mut self, id: &str) -> Result<JsonValue, NetError> {
        self.get_json(&format!("/trace/{id}"))
    }

    /// `GET /audit/{tenant}`: the tenant's audit events, live account, and
    /// replay verdict, as parsed JSON (`404 unknown_tenant` for strangers).
    pub fn audit(&mut self, tenant: &str) -> Result<JsonValue, NetError> {
        self.get_json(&format!("/audit/{tenant}"))
    }

    /// `GET /healthz`: typed liveness/readiness.
    pub fn health(&mut self) -> Result<HealthResponse, NetError> {
        let body = self.get_json("/healthz")?;
        Ok(HealthResponse {
            status: field_str(&body, "status")?,
            ready: field_bool(&body, "ready")?,
            accepting: field_bool(&body, "accepting")?,
            draining: field_bool(&body, "draining")?,
            graphs: field_u64(&body, "graphs")?,
        })
    }

    /// `GET` any path and decode the JSON answer (2xx) or the typed error.
    pub fn get_json(&mut self, path: &str) -> Result<JsonValue, NetError> {
        let response = self.request("GET", path, None)?;
        decode(response)
    }

    /// `GET` any path and return the raw 2xx body (non-JSON surfaces like
    /// `/metrics`); non-2xx still decodes the typed error envelope.
    pub fn get_text(&mut self, path: &str) -> Result<String, NetError> {
        let response = self.request("GET", path, None)?;
        if (200..300).contains(&response.status) {
            Ok(response.body_str()?.to_string())
        } else {
            Err(decode_error(&response))
        }
    }

    /// `POST` a JSON body to any path and decode the answer.
    pub fn post_json(&mut self, path: &str, body: &str) -> Result<JsonValue, NetError> {
        let response = self.request("POST", path, Some(body))?;
        decode(response)
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, NetError> {
        let reused = self.conn.is_some();
        match self.try_request(method, path, body) {
            Ok(resp) => Ok(resp),
            // A reused keep-alive connection may have been closed by the
            // server between requests; one reconnect on a *fresh* connection
            // is safe — the failed attempt never reached a live socket.
            Err(_) if reused => {
                self.conn = None;
                self.try_request(method, path, body)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, NetError> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            // Requests are single buffered frames; don't let Nagle hold them.
            stream.set_nodelay(true)?;
            let reader = BufReader::new(stream.try_clone()?);
            self.conn = Some(Conn {
                reader,
                writer: stream,
            });
        }
        let conn = self.conn.as_mut().expect("connection established above");
        http::write_request(&mut conn.writer, method, path, body).map_err(NetError::from)?;
        let response = match http::read_response(&mut conn.reader, &self.limits) {
            Ok(r) => r,
            Err(e) => {
                self.conn = None;
                return Err(e);
            }
        };
        if response.closes_connection() {
            self.conn = None;
        }
        Ok(response)
    }
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("addr", &self.addr)
            .field("connected", &self.conn.is_some())
            .finish()
    }
}

/// 2xx → parsed body; anything else → [`NetError::Api`] decoded from the
/// standard error envelope (or a protocol error if the envelope is absent).
fn decode(response: Response) -> Result<JsonValue, NetError> {
    if (200..300).contains(&response.status) {
        let text = response.body_str()?;
        return ccdp_serve::json::parse(text).map_err(|e| NetError::Protocol {
            detail: format!("2xx body is not JSON: {e}"),
        });
    }
    Err(decode_error(&response))
}

/// Decodes a non-2xx response's `{"error":{code,message,trace?}}` envelope.
fn decode_error(response: &Response) -> NetError {
    let text = match response.body_str() {
        Ok(t) => t,
        Err(e) => return e,
    };
    let (code, message, trace) = match ccdp_serve::json::parse(text) {
        Ok(body) => {
            let err = body.get("error");
            (
                err.and_then(|e| e.get("code"))
                    .and_then(JsonValue::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                err.and_then(|e| e.get("message"))
                    .and_then(JsonValue::as_str)
                    .unwrap_or(text)
                    .to_string(),
                err.and_then(|e| e.get("trace"))
                    .and_then(JsonValue::as_str)
                    .map(str::to_string),
            )
        }
        Err(_) => ("unknown".to_string(), text.to_string(), None),
    };
    NetError::Api {
        status: response.status,
        code,
        message,
        trace: trace.or_else(|| response.header("x-ccdp-trace").map(str::to_string)),
    }
}

fn field_str(body: &JsonValue, field: &'static str) -> Result<String, NetError> {
    body.get(field)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| missing(field))
}

fn field_u64(body: &JsonValue, field: &'static str) -> Result<u64, NetError> {
    body.get(field)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| missing(field))
}

fn field_f64(body: &JsonValue, field: &'static str) -> Result<f64, NetError> {
    body.get(field)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| missing(field))
}

fn field_bool(body: &JsonValue, field: &'static str) -> Result<bool, NetError> {
    body.get(field)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| missing(field))
}

fn missing(field: &'static str) -> NetError {
    NetError::Protocol {
        detail: format!("response is missing field `{field}`"),
    }
}
