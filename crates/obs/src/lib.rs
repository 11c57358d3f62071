//! # ccdp-obs — the unified observability layer
//!
//! Before this crate the stack's telemetry was three disconnected islands —
//! `ServeStats` in the serving tier, `CacheStats` in the estimator core,
//! `PhaseProfiler` in the execution layer — with no way to follow a single
//! request from the wire through the worker pool, cache, solver phases and
//! budget ledger. This crate is the one layer they all register into:
//!
//! * [`metrics`] — [`MetricsRegistry`]: named counters, gauges and
//!   log-bucket histograms (the serving tier's latency bucketing, lifted
//!   here as [`LogHistogram`]) behind cheap cloneable handles, with a
//!   stable sorted [`snapshot`](MetricsRegistry::snapshot) and a
//!   Prometheus-style [text
//!   exposition](MetricsRegistry::render_prometheus) served at
//!   `GET /metrics`.
//! * [`trace`] — request-scoped tracing: a 128-bit [`TraceId`]
//!   (deterministic from a seeded [`TraceIdGen`] in tests) minted at the
//!   serving boundary, threaded through the request path as a
//!   [`TraceCtx`], emitting typed [`SpanKind`] events into the bounded
//!   per-trace store of a [`Tracer`] (one mutex over a map from trace id to
//!   events), assembled on demand into a [`TraceTree`] (`GET /trace/{id}`,
//!   `ccdp trace`).
//! * [`audit`] — the privacy-budget audit journal: typed [`AuditEvent`]s
//!   recorded at every budget decision point into a bounded
//!   [`AuditJournal`] ring (optional JSONL file sink), with
//!   [`replay_tenant`] reconstructing a tenant's budget accountant
//!   bit-for-bit from their events (`GET /audit/{tenant}`, `ccdp audit`).
//!
//! The layer is std-only and dependency-free so every crate in the
//! workspace can sit on top of it, and its hot-path costs are explicit:
//! one relaxed atomic per counter bump and one branch per span emission
//! when tracing is off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod metrics;
pub mod trace;

pub use audit::{replay_tenant, AuditEvent, AuditJournal, AuditKind, BudgetReplay};
pub use metrics::{
    bucket_percentile, parse_exposition, Counter, FloatCounter, Gauge, HistogramSnapshot,
    LogHistogram, MetricsRegistry, MetricsSnapshot, SeriesSnapshot, SeriesValue,
};
pub use trace::{
    Span, SpanEvent, SpanKind, TraceCtx, TraceId, TraceIdGen, TraceSummary, TraceTree, Tracer,
};
