//! Concurrent multi-tenant serving tier for node-private
//! connected-components releases.
//!
//! The estimator crates make a *single* estimate fast; this crate makes a
//! *fleet* of them servable. It owns everything a caller would otherwise
//! hand-roll around [`PrivateCcEstimator`](ccdp_core::PrivateCcEstimator):
//!
//! * [`registry`] — the sharded, lock-striped, version-aware
//!   [`GraphRegistry`]: a shared catalog of immutable `Arc<Graph>` snapshot
//!   histories (insert/resolve by `(GraphId, GraphVersion)`, a latest
//!   pointer, expiry of stale versions) with plain-text edge-list ingestion.
//! * [`ledger`] — the per-tenant [`BudgetLedger`]: one
//!   [`PrivacyBudget`](ccdp_dp::PrivacyBudget) accountant per tenant behind a
//!   per-tenant lock, so no interleaving of concurrent requests can overdraw
//!   an ε quota (overspending is a typed refusal).
//! * [`server`] — the [`Server`]: a fixed worker pool over a bounded queue
//!   with typed [`ServeError::QueueFull`] backpressure and graceful
//!   drain-on-shutdown. All workers share one
//!   [`ExtensionCache`](ccdp_core::ExtensionCache), whose once-cell per
//!   entry coalesces concurrent misses on the same (graph, grid) key into
//!   one family evaluation.
//! * [`stats`] — [`ServeStats`]: the recorder behind the `ccdp_serve_*`
//!   series (counters, queue depth, a lock-free [`ccdp_obs::LogHistogram`]
//!   of latencies); `GET /metrics` is the one surface that reads them.
//! * [`json`] — the one hand-rolled JSON codec every tier emits and parses
//!   with ([`JsonWriter`] / [`json::parse`]); the wire format has a single
//!   source of truth.
//! * [`error`] — the typed [`ServeError`] failure surface.
//!
//! # Quick start
//!
//! ```
//! use ccdp_serve::{
//!     BudgetLedger, GraphRegistry, ServeConfig, ServeRequest, Server,
//! };
//! use ccdp_graph::generators;
//! use std::sync::Arc;
//!
//! // A catalog of graphs and a ledger of tenant ε quotas, shared by fleets.
//! let registry = Arc::new(GraphRegistry::new());
//! registry.insert("social/day-0", generators::planted_star_forest(20, 3, 5));
//! let ledger = Arc::new(BudgetLedger::new());
//! ledger.register("analytics-team", 5.0).unwrap();
//!
//! // A 2-worker server; requests are answered with typed releases.
//! let server = Server::start(ServeConfig::new().with_workers(2), registry, ledger);
//! let response = server
//!     .submit(ServeRequest::new("analytics-team", "social/day-0", 1.0))
//!     .unwrap()
//!     .wait();
//! let release = response.result.unwrap();
//! assert!(release.value().is_finite());
//! let metrics = Arc::clone(server.metrics());
//! server.shutdown();
//! assert_eq!(metrics.snapshot().value("ccdp_serve_completed_total"), Some(1.0));
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod ids;
pub mod json;
pub mod ledger;
pub mod registry;
pub mod server;
pub mod stats;

pub use ccdp_dp::BudgetExceeded;
pub use ccdp_graph::GraphVersion;
pub use error::ServeError;
pub use json::{JsonParseError, JsonValue, JsonWriter};
pub use ledger::{BudgetLedger, TenantAccount, TenantId};
pub use registry::{GraphId, GraphRegistry};
pub use server::{PendingResponse, ServeConfig, ServeRequest, ServeResponse, Server};
pub use stats::ServeStats;
