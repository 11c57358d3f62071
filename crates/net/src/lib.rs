//! # ccdp-net — the wire-level serving front-end
//!
//! The first out-of-process surface of the ccdp stack: a dependency-free
//! HTTP/1.1 tier over [`std::net::TcpListener`] in front of the
//! [`ccdp_serve::Server`] worker pool, plus the matching typed client.
//! Everything is hand-rolled on `std` — the wire framing, the JSON codec
//! (shared with the serve tier via [`ccdp_serve::json`]), the connection
//! management — because the build environment grants no registry access,
//! and because a serving tier this small is easier to make *total* (every
//! malformed byte stream a typed refusal, never a panic) than to wrap.
//!
//! * [`http`] — bounded HTTP/1.1 request/response framing ([`WireLimits`]).
//! * [`server`] — [`NetServer`]: thread-per-connection accept loop with a
//!   connection cap, routing `POST /estimate`, `POST /ingest`,
//!   `GET /healthz`, `GET /metrics`, `GET /trace/{id}` and
//!   `GET /audit/{tenant}` into the worker pool; queue backpressure surfaces
//!   as `429`, budget exhaustion as `403`, drain as `503`. Shutdown
//!   completes every in-flight request before the listener joins.
//! * [`client`] — [`NetClient`]: blocking keep-alive client with typed
//!   responses; non-2xx answers decode to [`NetError::Api`] with the
//!   server's stable error code.
//! * [`error`] — [`NetError`]: the typed failure surface and its HTTP
//!   status/code mapping ([`serve_error_status`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod http;
pub mod server;

/// The shared hand-rolled JSON codec (re-exported from the serve tier: one
/// writer for every JSON byte the stack emits, one parser for every byte it
/// accepts).
pub use ccdp_serve::json;

pub use client::{EstimateResponse, HealthResponse, IngestResponse, NetClient};
pub use error::{serve_error_status, NetError};
pub use http::{Request, Response, WireLimits};
pub use server::{NetConfig, NetServer};
