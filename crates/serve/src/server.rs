//! The serving core: a fixed worker pool over a bounded request queue.
//!
//! [`Server::start`] spins up `workers` OS threads that pull
//! [`ServeRequest`]s from one bounded `mpsc` channel. Submission is
//! non-blocking: a full queue is a typed [`ServeError::QueueFull`] refusal
//! (backpressure the caller can act on), never a silent block. Each request
//! flows through the same pipeline:
//!
//! 1. resolve the graph in the shared [`GraphRegistry`],
//! 2. atomically reserve the request's ε against the tenant's
//!    [`BudgetLedger`] account (typed refusal if the quota can't fund it),
//! 3. run the private estimator with the server's shared
//!    [`ExtensionCache`] — concurrent requests for the same graph coalesce
//!    into one family evaluation on the cache entry's once-cell,
//! 4. answer the caller through a per-request response channel.
//!
//! Shutdown is graceful: [`Server::shutdown`] closes the queue, lets the
//! workers drain every accepted request, and joins them.
//!
//! Randomness is deterministic per request: worker threads derive a
//! [`StdRng`] from the server seed and the request id, so a seeded server
//! replays identical releases for an identical request schedule regardless
//! of thread interleaving. A server configured without a seed draws its base
//! seed from OS entropy, so nobody can recompute its noise from the request
//! order.

use crate::error::ServeError;
use crate::ledger::{BudgetLedger, TenantId};
use crate::registry::{GraphId, GraphRegistry};
use crate::stats::{RequestOutcome, ServeStats};
use ccdp_core::cache::DEFAULT_FAMILY_CACHE_CAPACITY;
use ccdp_core::{CacheStats, EstimatorConfig, ExtensionCache, PrivateCcEstimator, Release};
use ccdp_exec::PhaseProfiler;
use ccdp_graph::GraphVersion;
use ccdp_obs::{
    AuditEvent, AuditJournal, AuditKind, Counter, Gauge, MetricsRegistry, SpanKind, TraceCtx,
    TraceId, TraceIdGen, Tracer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`Server`] (non-panicking builder; values are clamped
/// to sane minimums at start).
///
/// Two things are deliberately not configurable: the shared family cache
/// always holds [`DEFAULT_FAMILY_CACHE_CAPACITY`] entries, and the audit
/// journal is always on, so no configuration lets a budget charge go
/// unjournaled.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    workers: usize,
    queue_capacity: usize,
    seed: u64,
    delta_max: Option<usize>,
    tracing: bool,
}

impl ServeConfig {
    /// Defaults: 4 workers, queue capacity 256, a base seed drawn from OS
    /// entropy (see [`with_seed`](Self::with_seed)), tracing off.
    pub fn new() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 256,
            seed: entropy_seed(),
            delta_max: None,
            tracing: false,
        }
    }

    /// Enables request-scoped tracing (default off). Off, every would-be
    /// span emission costs exactly one branch; on, requests get a minted
    /// [`TraceId`] and their span events land in the server's [`Tracer`]
    /// store for `GET /trace/{id}` / `ccdp trace` assembly.
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Whether request-scoped tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Number of worker threads (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Bounded queue capacity (clamped to ≥ 1); beyond it submissions get
    /// [`ServeError::QueueFull`].
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Base seed of the per-request RNG derivation. Every release's noise is
    /// a function of this seed and the sequential request id, so whoever
    /// knows the seed can recompute the noise; trace ids are seeded
    /// independently and do not reveal it. This is the replay path: without
    /// it the seed comes from OS entropy and no two servers share one.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Δmax override forwarded to every estimator (see
    /// [`EstimatorConfig::with_delta_max`]).
    pub fn with_delta_max(mut self, delta_max: usize) -> Self {
        self.delta_max = Some(delta_max);
        self
    }

    /// The configured worker count (after clamping).
    pub fn workers(&self) -> usize {
        self.workers.max(1)
    }

    /// The configured queue capacity (after clamping).
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity.max(1)
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// One request for a private connected-components release.
#[derive(Clone, Debug)]
pub struct ServeRequest {
    /// The tenant whose budget funds the release.
    pub tenant: TenantId,
    /// The catalog graph to estimate on.
    pub graph: GraphId,
    /// The snapshot version to serve from: a pinned version, or `None` for
    /// the latest at execution time.
    pub version: Option<GraphVersion>,
    /// The ε of this release (spent from the tenant's quota).
    pub epsilon: f64,
    /// The request's trace id: pre-minted by a boundary (the net tier mints
    /// before submission so even refusals carry an id), or `None` to let
    /// [`Server::submit`] mint one when tracing is on.
    pub trace: Option<TraceId>,
}

impl ServeRequest {
    /// Convenience constructor (serves the latest snapshot).
    pub fn new(tenant: impl Into<TenantId>, graph: impl Into<GraphId>, epsilon: f64) -> Self {
        ServeRequest {
            tenant: tenant.into(),
            graph: graph.into(),
            version: None,
            epsilon,
            trace: None,
        }
    }

    /// Pins the request to an exact snapshot version; resolution fails with
    /// [`ServeError::UnknownVersion`] rather than silently serving another
    /// version.
    pub fn at_version(mut self, version: GraphVersion) -> Self {
        self.version = Some(version);
        self
    }

    /// Attaches a pre-minted trace id (see [`Server::mint_trace`]).
    pub fn with_trace(mut self, trace: TraceId) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// The server's answer to one request.
#[derive(Debug)]
pub struct ServeResponse {
    /// Server-assigned id (submission order).
    pub request_id: u64,
    /// The request this answers.
    pub request: ServeRequest,
    /// The snapshot version the release was served from. `None` whenever no
    /// release was produced — including failures (budget refusals, estimator
    /// errors) that happened *after* a snapshot had been resolved.
    pub version: Option<GraphVersion>,
    /// The release, or the typed refusal/failure.
    pub result: Result<Release, ServeError>,
    /// End-to-end latency (accepted → answered), including queue time.
    pub latency: Duration,
    /// The request's trace id, when tracing was on.
    pub trace: Option<TraceId>,
}

/// A handle to a response that has not necessarily been produced yet.
#[derive(Debug)]
pub struct PendingResponse {
    request_id: u64,
    rx: Receiver<ServeResponse>,
}

impl PendingResponse {
    /// The server-assigned request id.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Blocks until the response arrives.
    pub fn wait(self) -> ServeResponse {
        self.rx
            .recv()
            .expect("worker pool dropped a request without answering")
    }

    /// Blocks up to `timeout`; `Err(self)` if the response is still pending.
    pub fn wait_timeout(self, timeout: Duration) -> Result<ServeResponse, PendingResponse> {
        match self.rx.recv_timeout(timeout) {
            Ok(resp) => Ok(resp),
            Err(_) => Err(self),
        }
    }
}

/// One queued unit of work.
struct Job {
    request_id: u64,
    request: ServeRequest,
    accepted: Instant,
    reply: SyncSender<ServeResponse>,
}

/// The state every worker shares: catalog, ledger, cache, stats, config and
/// the observability tier (one bundle so the loop signature stays legible).
struct WorkerShared {
    registry: Arc<GraphRegistry>,
    ledger: Arc<BudgetLedger>,
    cache: Arc<ExtensionCache>,
    stats: Arc<ServeStats>,
    config: ServeConfig,
    metrics: Arc<MetricsRegistry>,
    tracer: Arc<Tracer>,
}

/// A multi-tenant serving instance: shared graph catalog, shared budget
/// ledger, shared family cache, fixed worker pool.
pub struct Server {
    registry: Arc<GraphRegistry>,
    ledger: Arc<BudgetLedger>,
    cache: Arc<ExtensionCache>,
    stats: Arc<ServeStats>,
    config: ServeConfig,
    queue: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    next_request_id: AtomicU64,
    metrics: Arc<MetricsRegistry>,
    tracer: Arc<Tracer>,
    trace_ids: TraceIdGen,
    journal: Arc<AuditJournal>,
    trace_dropped: Counter,
    audit_dropped: Counter,
    catalog_graphs: Gauge,
    catalog_versions: Gauge,
    tenants: Gauge,
}

impl Server {
    /// Starts the worker pool over the given catalog and ledger.
    pub fn start(
        config: ServeConfig,
        registry: Arc<GraphRegistry>,
        ledger: Arc<BudgetLedger>,
    ) -> Self {
        // One registry per server: every telemetry island registers into it,
        // so a single scrape covers serve, cache, budget and phase series.
        let metrics = Arc::new(MetricsRegistry::new());
        let cache = Arc::new(ExtensionCache::with_metrics(
            DEFAULT_FAMILY_CACHE_CAPACITY,
            &metrics,
        ));
        let stats = Arc::new(ServeStats::with_metrics(&metrics));
        ledger.publish_metrics(&metrics);
        let tracer = Arc::new(Tracer::new());
        tracer.set_enabled(config.tracing);
        // The audit journal is shared by every decision point: the ledger
        // (charges/refusals), the registry (publishes) and the scheduler
        // (fires/invalidations, via its server handle). One ring means one
        // totally-ordered sequence.
        let journal = Arc::new(AuditJournal::new());
        ledger.set_journal(Arc::clone(&journal));
        registry.set_journal(Arc::clone(&journal));
        // Drop accounting and the catalog sizes are pull-based (the tracer,
        // the journal, the registry and the ledger keep their own counts),
        // surfaced as series refreshed on every metrics render.
        let trace_dropped = metrics.counter("ccdp_obs_trace_dropped_total");
        let audit_dropped = metrics.counter("ccdp_obs_audit_dropped_total");
        let catalog_graphs = metrics.gauge("ccdp_serve_catalog_graphs");
        let catalog_versions = metrics.gauge("ccdp_serve_catalog_versions");
        let tenants = metrics.gauge("ccdp_serve_tenants");
        let (tx, rx) = sync_channel::<Job>(config.queue_capacity());
        let rx = Arc::new(Mutex::new(rx));
        let shared = Arc::new(WorkerShared {
            registry: Arc::clone(&registry),
            ledger: Arc::clone(&ledger),
            cache: Arc::clone(&cache),
            stats: Arc::clone(&stats),
            config: config.clone(),
            metrics: Arc::clone(&metrics),
            tracer: Arc::clone(&tracer),
        });
        let workers = (0..config.workers())
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&rx, &shared))
            })
            .collect();
        // Trace ids are public, so their generator is keyed from std's
        // OS-seeded hasher keys, never from the noise seed.
        let trace_ids = TraceIdGen::new(RandomState::new().build_hasher().finish());
        Server {
            registry,
            ledger,
            cache,
            stats,
            config,
            queue: Some(tx),
            workers,
            next_request_id: AtomicU64::new(0),
            metrics,
            tracer,
            trace_ids,
            journal,
            trace_dropped,
            audit_dropped,
            catalog_graphs,
            catalog_versions,
            tenants,
        }
    }

    /// The server's unified metrics registry (the `GET /metrics` source).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The server's span store (the `GET /trace/{id}` / `ccdp top` source).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The server's audit journal (the `GET /audit/{tenant}` / `ccdp audit`
    /// source); attach a JSONL file sink with
    /// [`AuditJournal::set_sink_path`].
    pub fn journal(&self) -> &Arc<AuditJournal> {
        &self.journal
    }

    /// Renders the Prometheus text exposition — the one call every scrape
    /// path (net tier, CLI) should use instead of rendering the registry
    /// directly. It first refreshes the pulled series: the span store's and
    /// the audit ring's drop counts (`ccdp_obs_{trace,audit}_dropped_total`),
    /// the catalog sizes (`ccdp_serve_catalog_{graphs,versions}`,
    /// `ccdp_serve_tenants`) and `ccdp_serve_uptime_seconds`. Each refresh
    /// is a `raise_to` or a `set`, so racing scrapes cannot over-count.
    pub fn render_metrics(&self) -> String {
        self.trace_dropped.raise_to(self.tracer.dropped());
        self.audit_dropped.raise_to(self.journal.dropped());
        self.catalog_graphs.set(self.registry.len() as i64);
        self.catalog_versions
            .set(self.registry.num_versions() as i64);
        self.tenants.set(self.ledger.tenants().len() as i64);
        self.stats.refresh_uptime();
        self.metrics.render_prometheus()
    }

    /// Mints the next trace id from the server's generator.
    /// Boundaries (the net tier) mint *before* submission so refusals carry
    /// an id too; [`Server::submit`] mints automatically otherwise.
    pub fn mint_trace(&self) -> TraceId {
        self.trace_ids.mint()
    }

    /// Submits a request without blocking.
    ///
    /// # Errors
    /// [`ServeError::QueueFull`] when the bounded queue is at capacity
    /// (typed backpressure — nothing was enqueued) and
    /// [`ServeError::ShuttingDown`] after [`Server::shutdown`] began.
    pub fn submit(&self, mut request: ServeRequest) -> Result<PendingResponse, ServeError> {
        if !(request.epsilon.is_finite() && request.epsilon > 0.0) {
            // Reject malformed requests before they consume queue space (and
            // long before the budget accountant could panic on them).
            return Err(ServeError::InvalidEpsilon {
                value: request.epsilon,
            });
        }
        // Tracing on and no boundary-minted id yet: mint here, so direct
        // submitters (tests, the release scheduler) get traced for free.
        if request.trace.is_none() && self.tracer.enabled() {
            request.trace = Some(self.trace_ids.mint());
        }
        // Emit boundary events straight through the tracer: a TraceCtx here
        // would clone the tracer Arc per submission, and its refcount line
        // bounces between the submitting core and the workers.
        let trace = request.trace;
        let queue = self.queue.as_ref().ok_or(ServeError::ShuttingDown)?;
        let request_id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = sync_channel(1);
        let job = Job {
            request_id,
            request,
            accepted: Instant::now(),
            reply: reply_tx,
        };
        match queue.try_send(job) {
            Ok(()) => {
                // Counted only after acceptance, so rejected submissions can
                // never inflate the depth gauge or its peak; the gauge is
                // signed because a worker may record the matching dequeue
                // first.
                let depth = self.stats.on_enqueue();
                if let Some(id) = trace {
                    self.tracer
                        .emit(id, SpanKind::Queued, Duration::ZERO, depth.max(0) as u64);
                }
                Ok(PendingResponse {
                    request_id,
                    rx: reply_rx,
                })
            }
            Err(TrySendError::Full(_)) => {
                self.stats.on_queue_full();
                if let Some(id) = trace {
                    self.tracer
                        .emit(id, SpanKind::QueueRefused, Duration::ZERO, 0);
                }
                Err(ServeError::QueueFull {
                    capacity: self.config.queue_capacity(),
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// The shared graph catalog.
    pub fn registry(&self) -> &Arc<GraphRegistry> {
        &self.registry
    }

    /// The shared budget ledger.
    pub fn ledger(&self) -> &Arc<BudgetLedger> {
        &self.ledger
    }

    /// The shared extension-family cache itself (for co-located engines —
    /// e.g. a release scheduler invalidating superseded versions of what the
    /// worker pool computed). Counters only: see
    /// [`cache_stats`](Server::cache_stats).
    pub fn cache(&self) -> &Arc<ExtensionCache> {
        &self.cache
    }

    /// Whether the worker pool is still accepting submissions (readiness:
    /// `false` once shutdown has begun).
    pub fn is_accepting(&self) -> bool {
        self.queue.is_some()
    }

    /// The server's configuration (as clamped at start).
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The shared extension-family cache (hit/miss/coalesce counters).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Closes the queue, drains every accepted request and joins the
    /// workers. The final counters stay readable through a clone of
    /// [`metrics`](Server::metrics) taken before the call.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.queue.is_some() {
            // One Drain event marks the boundary: every event after it in
            // the journal belongs to the drain, none to new admissions.
            self.journal.record(
                AuditEvent::new(AuditKind::Drain)
                    .detail("queue closed; draining accepted requests"),
            );
        }
        // Dropping the sender closes the channel; workers finish what was
        // accepted, then their `recv` errors out and they exit.
        self.queue = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.config)
            .field("graphs", &self.registry.len())
            .field("tenants", &self.ledger.tenants().len())
            .finish()
    }
}

/// Pulls jobs until the queue closes. The mutex is held only for the `recv`
/// itself, so workers hand off jobs one at a time but process in parallel.
fn worker_loop(rx: &Mutex<Receiver<Job>>, shared: &WorkerShared) {
    loop {
        let job = {
            let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
            guard.recv()
        };
        let job = match job {
            Ok(job) => job,
            Err(_) => return, // queue closed and drained: graceful exit
        };
        shared.stats.on_dequeue();
        // A traced request's events are held back and appended to its trace
        // under one lock when the batch ends, before the reply goes out.
        let result = match job.request.trace {
            Some(id) => shared.tracer.batch(id, || run_job(&job, shared)),
            None => run_job(&job, shared),
        };
        let outcome = match &result {
            Ok(_) => RequestOutcome::Completed,
            Err(ServeError::BudgetExhausted { .. }) => RequestOutcome::BudgetRefused,
            Err(_) => RequestOutcome::Failed,
        };
        let latency = job.accepted.elapsed();
        shared.stats.on_done(latency, outcome);
        let version = result.as_ref().ok().map(|(_, v)| *v);
        // A dropped PendingResponse just means nobody is listening; the
        // request was still served and accounted.
        let _ = job.reply.try_send(ServeResponse {
            request_id: job.request_id,
            trace: job.request.trace,
            request: job.request,
            version,
            result: result.map(|(release, _)| release),
            latency,
        });
    }
}

/// Runs one dequeued job: emits its `dequeued` span, handles it with panics
/// contained, publishes its phase timings and, when traced, emits its phases
/// and its `release`/`failed` span.
fn run_job(job: &Job, shared: &WorkerShared) -> Result<(Release, GraphVersion), ServeError> {
    // The worker emits through `shared.tracer` directly and materializes
    // a TraceCtx only to hand the estimator config an owned handle: every
    // tracer-Arc clone is a refcount bump on a line every worker shares.
    let trace_id = job.request.trace;
    if let Some(id) = trace_id {
        shared
            .tracer
            .emit(id, SpanKind::Dequeued, job.accepted.elapsed(), 0);
    }
    // Every request gets a fresh profiler: its per-phase wall clock is
    // published into the registry afterwards (fresh-then-publish keeps
    // the `ccdp_exec_phase_*` series monotone) and, when traced, its
    // phases become `phase/*` spans of this trace.
    let profiler = Arc::new(PhaseProfiler::new());
    let handle_started = Instant::now();
    // Contain panics: a pathological request must cost its caller a typed
    // error, never a worker (a shrinking pool would be a silent brownout).
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let trace = trace_id.map(|id| TraceCtx::new(id, Arc::clone(&shared.tracer)));
        handle_request(job, shared, trace, Arc::clone(&profiler))
    }))
    .unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "worker panicked".to_string());
        Err(ServeError::Estimator(ccdp_core::CcdpError::Algorithm(
            ccdp_core::CoreError::InvalidParameter(msg),
        )))
    });
    let handle_time = handle_started.elapsed();
    profiler.publish(&shared.metrics);
    if let Some(id) = trace_id {
        // Walk the profiler in place: cloning and sorting its report per
        // request would add to every traced request.
        profiler.visit(|name, seconds, _invocations, _count| {
            shared
                .tracer
                .emit_phase(id, name, Duration::from_secs_f64(seconds));
        });
        let kind = match &result {
            Ok(_) => SpanKind::Release,
            // The budget refusal span was already emitted at the ledger;
            // the trace still terminates with a typed failure marker so
            // `slowest`/assembly see a finished trace.
            Err(_) => SpanKind::Failed,
        };
        shared.tracer.emit(id, kind, handle_time, 0);
    }
    result
}

/// The per-request pipeline: resolve snapshot → reserve budget → estimate.
fn handle_request(
    job: &Job,
    shared: &WorkerShared,
    trace: Option<TraceCtx>,
    profiler: Arc<PhaseProfiler>,
) -> Result<(Release, GraphVersion), ServeError> {
    let registry = &shared.registry;
    let ledger = &shared.ledger;
    let config = &shared.config;
    // A pinned version resolves exactly or fails typed; an unpinned request
    // binds to the latest snapshot *now*, and the bound version is what the
    // cache is tagged with and what the response reports. What resolves is
    // the arena built once at publish: with its fingerprint and component
    // count memoized and the cache confirming a hit on it by pointer, a
    // cache hit does no O(n + m) graph work.
    let (version, arena) = registry.resolve_arena(&job.request.graph, job.request.version)?;
    // Reserve the whole request ε atomically *before* any computation: a
    // refused request consumes neither budget nor solver time. Spent budget
    // is never refunded on estimator failure — conservative accounting that
    // can only over-count, never under-count, a tenant's exposure. The stage
    // name is the graph id (borrowed, not formatted — this is the hot path),
    // so the tenant ledger records which graph each grant funded.
    let spend = ledger.try_spend_traced(
        &job.request.tenant,
        job.request.graph.as_str(),
        job.request.epsilon,
        job.request.trace,
    );
    if let Some(ctx) = &trace {
        let kind = match &spend {
            Ok(_) => SpanKind::BudgetCharge,
            Err(ServeError::BudgetExhausted { .. }) => SpanKind::BudgetRefusal,
            Err(_) => SpanKind::BudgetRefusal, // unknown tenant / bad ε
        };
        ctx.event_full(kind, Duration::ZERO, job.request.epsilon.to_bits());
    }
    spend?;
    let mut est_config = EstimatorConfig::new(job.request.epsilon)
        .with_shared_family_cache(Arc::clone(&shared.cache))
        .with_graph_tag(job.request.graph.as_str(), version)
        .with_profiler(profiler);
    if let Some(ctx) = trace {
        est_config = est_config.with_trace(ctx);
    }
    if let Some(delta_max) = config.delta_max {
        est_config = est_config.with_delta_max(delta_max);
    }
    let estimator =
        PrivateCcEstimator::from_config(est_config).map_err(|e| ServeError::Estimator(e.into()))?;
    let mut rng = request_rng(config.seed, job.request_id);
    let release = estimator.estimate_csr(&arena, &mut rng)?;
    Ok((release, version))
}

/// A base seed from OS entropy: std seeds its hasher keys from the
/// operating system, and each `RandomState` differs from the last. The label
/// keeps this draw apart from the trace-id generator's.
fn entropy_seed() -> u64 {
    let mut hasher = RandomState::new().build_hasher();
    hasher.write(b"ccdp serve base noise seed");
    hasher.finish()
}

/// Deterministic per-request stream: the same (seed, request id) pair draws
/// the same noise whichever worker runs it.
fn request_rng(seed: u64, request_id: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(request_id),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdp_graph::generators;
    use std::sync::atomic::AtomicBool;

    /// The value of the unlabeled series `name` in `metrics`.
    fn series(metrics: &MetricsRegistry, name: &str) -> u64 {
        metrics
            .snapshot()
            .value(name)
            .unwrap_or_else(|| panic!("no series `{name}`")) as u64
    }

    fn fleet() -> (Arc<GraphRegistry>, Arc<BudgetLedger>) {
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("stars", generators::planted_star_forest(10, 2, 3));
        registry.insert("path", generators::path(12));
        let ledger = Arc::new(BudgetLedger::new());
        ledger.register("acme", 10.0).unwrap();
        (registry, ledger)
    }

    #[test]
    fn serves_a_release_end_to_end() {
        let (registry, ledger) = fleet();
        let server = Server::start(ServeConfig::new().with_workers(2), registry, ledger);
        let pending = server
            .submit(ServeRequest::new("acme", "stars", 1.0))
            .unwrap();
        let response = pending.wait();
        let release = response.result.unwrap();
        assert!(release.value().is_finite());
        let metrics = Arc::clone(server.metrics());
        server.shutdown();
        assert_eq!(series(&metrics, "ccdp_serve_completed_total"), 1);
        assert_eq!(series(&metrics, "ccdp_serve_failed_total"), 0);
    }

    #[test]
    fn unknown_graph_and_tenant_are_typed_failures() {
        let (registry, ledger) = fleet();
        let server = Server::start(ServeConfig::new().with_workers(1), registry, ledger);
        let r = server
            .submit(ServeRequest::new("acme", "nope", 1.0))
            .unwrap()
            .wait();
        assert!(matches!(r.result, Err(ServeError::UnknownGraph { .. })));
        let r = server
            .submit(ServeRequest::new("ghost", "stars", 1.0))
            .unwrap()
            .wait();
        assert!(matches!(r.result, Err(ServeError::UnknownTenant { .. })));
        let metrics = Arc::clone(server.metrics());
        server.shutdown();
        assert_eq!(series(&metrics, "ccdp_serve_failed_total"), 2);
    }

    #[test]
    fn budget_exhaustion_is_refused_not_served() {
        let (registry, ledger) = fleet();
        let server = Server::start(
            ServeConfig::new().with_workers(1),
            registry,
            Arc::clone(&ledger),
        );
        let ok = server
            .submit(ServeRequest::new("acme", "path", 8.0))
            .unwrap()
            .wait();
        assert!(ok.result.is_ok());
        let refused = server
            .submit(ServeRequest::new("acme", "path", 8.0))
            .unwrap()
            .wait();
        assert!(matches!(
            refused.result,
            Err(ServeError::BudgetExhausted { .. })
        ));
        let metrics = Arc::clone(server.metrics());
        server.shutdown();
        assert_eq!(series(&metrics, "ccdp_serve_completed_total"), 1);
        assert_eq!(series(&metrics, "ccdp_serve_budget_refusals_total"), 1);
        // The refused request spent nothing.
        let view = ledger.account_view(&TenantId::new("acme")).unwrap();
        assert!((view.spent_epsilon - 8.0).abs() < 1e-9);
    }

    #[test]
    fn full_queue_is_typed_backpressure() {
        let registry = Arc::new(GraphRegistry::new());
        // A big enough graph that one request occupies the lone worker for a
        // moment, letting the queue fill behind it.
        registry.insert("g", generators::caveman(6, 6));
        let ledger = Arc::new(BudgetLedger::new());
        ledger.register("acme", 1e6).unwrap();
        let server = Server::start(
            ServeConfig::new().with_workers(1).with_queue_capacity(1),
            registry,
            ledger,
        );
        let mut pending = Vec::new();
        let mut saw_queue_full = false;
        for _ in 0..50 {
            match server.submit(ServeRequest::new("acme", "g", 0.1)) {
                Ok(p) => pending.push(p),
                Err(ServeError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 1);
                    saw_queue_full = true;
                }
                Err(other) => panic!("unexpected submit error: {other:?}"),
            }
        }
        assert!(saw_queue_full, "queue of capacity 1 never reported full");
        for p in pending {
            assert!(p.wait().result.is_ok());
        }
        let metrics = Arc::clone(server.metrics());
        server.shutdown();
        assert!(series(&metrics, "ccdp_serve_rejected_queue_full_total") > 0);
        assert_eq!(series(&metrics, "ccdp_serve_failed_total"), 0);
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let (registry, ledger) = fleet();
        let server = Server::start(
            ServeConfig::new().with_workers(2).with_queue_capacity(64),
            registry,
            ledger,
        );
        let pending: Vec<_> = (0..16)
            .map(|_| {
                server
                    .submit(ServeRequest::new("acme", "path", 0.05))
                    .unwrap()
            })
            .collect();
        let metrics = Arc::clone(server.metrics());
        server.shutdown();
        assert_eq!(
            series(&metrics, "ccdp_serve_completed_total"),
            16,
            "graceful shutdown must drain the queue"
        );
        for p in pending {
            assert!(p.wait().result.is_ok());
        }
    }

    #[test]
    fn malformed_epsilon_is_refused_at_submission() {
        let (registry, ledger) = fleet();
        let server = Server::start(ServeConfig::new().with_workers(1), registry, ledger);
        for bad in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    server.submit(ServeRequest::new("acme", "path", bad)),
                    Err(ServeError::InvalidEpsilon { .. })
                ),
                "epsilon {bad} must be refused"
            );
        }
        // The refusals consumed no queue slots, workers or budget, and the
        // pool still serves.
        let ok = server
            .submit(ServeRequest::new("acme", "path", 0.5))
            .unwrap()
            .wait();
        assert!(ok.result.is_ok());
        let metrics = Arc::clone(server.metrics());
        server.shutdown();
        assert_eq!(
            (
                series(&metrics, "ccdp_serve_requests_total"),
                series(&metrics, "ccdp_serve_completed_total"),
                series(&metrics, "ccdp_serve_failed_total"),
            ),
            (1, 1, 0)
        );
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let (registry, ledger) = fleet();
        let mut server = Server::start(ServeConfig::new(), registry, ledger);
        server.shutdown_in_place();
        assert!(matches!(
            server.submit(ServeRequest::new("acme", "path", 0.1)),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn version_pinned_requests_serve_the_pinned_snapshot() {
        let (registry, ledger) = fleet();
        // Publish a second version of "path" with a different vertex count.
        registry.insert("path", generators::path(30));
        let server = Server::start(ServeConfig::new().with_workers(2), registry, ledger);
        // Unpinned binds to the latest; pinned resolves each exact version.
        let latest = server
            .submit(ServeRequest::new("acme", "path", 0.5))
            .unwrap()
            .wait();
        assert_eq!(latest.version, Some(GraphVersion::new(1)));
        assert!(latest.result.is_ok());
        let pinned = server
            .submit(ServeRequest::new("acme", "path", 0.5).at_version(GraphVersion::INITIAL))
            .unwrap()
            .wait();
        assert_eq!(pinned.version, Some(GraphVersion::INITIAL));
        assert!(pinned.result.is_ok());
        // A pinned miss is a typed UnknownVersion, not a silent fallback, and
        // resolution failures report no served version.
        let missing = server
            .submit(ServeRequest::new("acme", "path", 0.5).at_version(GraphVersion::new(9)))
            .unwrap()
            .wait();
        assert!(matches!(
            missing.result,
            Err(ServeError::UnknownVersion { .. })
        ));
        assert_eq!(missing.version, None);
        // The two served versions used distinct cache slots: two misses,
        // never a cross-version replay.
        let cache = server.cache_stats();
        assert_eq!(cache.misses, 2, "{cache:?}");
        server.shutdown();
    }

    #[test]
    fn unseeded_configs_draw_distinct_base_seeds() {
        // Without `with_seed`, the base seed is an OS-entropy draw, not a
        // constant anyone could recompute the noise from.
        let seeds: Vec<u64> = (0..4).map(|_| ServeConfig::new().seed).collect();
        for (i, a) in seeds.iter().enumerate() {
            assert_ne!(*a, 0);
            for b in &seeds[i + 1..] {
                assert_ne!(a, b, "two unseeded configs share a seed");
            }
        }
        // Across threads too: each thread's hasher keys are drawn anew.
        let other = std::thread::spawn(|| ServeConfig::new().seed)
            .join()
            .unwrap();
        assert!(!seeds.contains(&other));
        assert_eq!(ServeConfig::new().with_seed(9).seed, 9);
    }

    #[test]
    fn identical_seeded_runs_release_identical_values() {
        let run = || {
            let (registry, ledger) = fleet();
            let server = Server::start(
                ServeConfig::new().with_workers(3).with_seed(7),
                registry,
                ledger,
            );
            let pending: Vec<_> = (0..8)
                .map(|i| {
                    let graph = if i % 2 == 0 { "stars" } else { "path" };
                    server
                        .submit(ServeRequest::new("acme", graph, 0.5))
                        .unwrap()
                })
                .collect();
            let mut values: Vec<(u64, f64)> = pending
                .into_iter()
                .map(|p| {
                    let r = p.wait();
                    (r.request_id, r.result.unwrap().value())
                })
                .collect();
            values.sort_by_key(|&(id, _)| id);
            values
        };
        assert_eq!(
            run(),
            run(),
            "per-request seeding must make runs replayable"
        );
    }

    #[test]
    fn registry_releases_are_bitwise_identical_to_direct_graph_releases() {
        // Extends the Graph/CSR bit-identity invariant to the serving path:
        // a release on the registry's published arena (a miss, then hits on
        // the same `Arc`, latest and pinned) draws exactly the bits
        // `PrivateCcEstimator::estimate(&graph)` draws from the same stream.
        let (registry, ledger) = fleet();
        let (_, graph) = registry.resolve_latest(&GraphId::new("stars")).unwrap();
        let server = Server::start(
            ServeConfig::new().with_workers(2).with_seed(11),
            registry,
            ledger,
        );
        let direct = PrivateCcEstimator::new(0.5).unwrap();
        for pinned in [None, None, Some(GraphVersion::INITIAL)] {
            let mut request = ServeRequest::new("acme", "stars", 0.5);
            if let Some(v) = pinned {
                request = request.at_version(v);
            }
            let response = server.submit(request).unwrap().wait();
            let expected = direct
                .estimate(&graph, &mut request_rng(11, response.request_id))
                .unwrap();
            let served = response.result.unwrap();
            assert_eq!(served.value().to_bits(), expected.value().to_bits());
        }
        let cache = server.cache_stats();
        assert_eq!((cache.misses, cache.hits), (1, 2), "{cache:?}");
        server.shutdown();
    }

    #[test]
    fn tracing_off_records_nothing_and_mints_no_ids() {
        let (registry, ledger) = fleet();
        let server = Server::start(ServeConfig::new().with_workers(1), registry, ledger);
        let response = server
            .submit(ServeRequest::new("acme", "stars", 0.5))
            .unwrap()
            .wait();
        assert!(response.result.is_ok());
        assert_eq!(response.trace, None);
        assert_eq!(server.tracer().recorded(), 0);
        server.shutdown();
    }

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Inverts the splitmix mint `hi = splitmix64(seed ^ splitmix64(c))`:
    /// the seed that would have minted `hi` as the `c`-th id's high word.
    fn seed_behind(hi: u64, c: u64) -> u64 {
        fn unshift(y: u64, s: u32) -> u64 {
            (0..64 / s).fold(y, |x, _| y ^ (x >> s))
        }
        fn inverse(a: u64) -> u64 {
            (0..6).fold(a, |x, _| {
                x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)))
            })
        }
        let x = unshift(hi, 31).wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
        let x = unshift(x, 27).wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
        let x = unshift(x, 30).wrapping_sub(0x9E37_79B9_7F4A_7C15);
        x ^ splitmix64(c)
    }

    #[test]
    fn trace_ids_do_not_reveal_the_noise_seed() {
        const SEED: u64 = 0x5EED_CAFE_F00D_1234;
        // The inversion recovers the seed from a splitmix-minted high word.
        assert_eq!(seed_behind(splitmix64(SEED ^ splitmix64(0)), 0), SEED);

        let (registry, ledger) = fleet();
        let server = Server::start(
            ServeConfig::new()
                .with_workers(1)
                .with_seed(SEED)
                .with_tracing(true),
            registry,
            ledger,
        );
        let response = server
            .submit(ServeRequest::new("acme", "stars", 0.5))
            .unwrap()
            .wait();
        let id = response.trace.expect("tracing on must mint an id");
        let hi = (id.0 >> 64) as u64;
        for c in 0..64 {
            assert_ne!(seed_behind(hi, c), SEED, "trace id gives the seed away");
        }
        // Nor is the generator keyed by the noise seed.
        assert_ne!(id, TraceIdGen::new(SEED).mint());
        server.shutdown();
    }

    #[test]
    fn traced_requests_assemble_a_full_span_tree() {
        let (registry, ledger) = fleet();
        let server = Server::start(
            ServeConfig::new()
                .with_workers(1)
                .with_seed(5)
                .with_tracing(true),
            registry,
            ledger,
        );
        let response = server
            .submit(ServeRequest::new("acme", "stars", 0.5))
            .unwrap()
            .wait();
        assert!(response.result.is_ok());
        let id = response.trace.expect("tracing on must mint an id");
        let tree = server.tracer().assemble(id).expect("trace must assemble");
        let names = tree.span_names();
        for expected in [
            "queued",
            "dequeued",
            "budget/charge",
            "cache/miss",
            "noise/draw",
            "release",
        ] {
            assert!(
                names.iter().any(|n| n == expected),
                "missing {expected}: {names:?}"
            );
        }
        // Solver phases from the per-request profiler ride along: the
        // family partition plus the two release phases.
        for expected in [
            "phase/family/partition",
            "phase/release/true-value",
            "phase/release/mechanisms",
        ] {
            assert!(
                names.iter().any(|n| n == expected),
                "missing {expected}: {names:?}"
            );
        }
        // A budget refusal still produces a finished trace (the 403 path).
        let t = TenantId::new("acme");
        let view = server.ledger().account_view(&t).unwrap();
        let refused = server
            .submit(ServeRequest::new(
                "acme",
                "stars",
                view.remaining_epsilon + 1.0,
            ))
            .unwrap()
            .wait();
        assert!(matches!(
            refused.result,
            Err(ServeError::BudgetExhausted { .. })
        ));
        let refused_tree = server
            .tracer()
            .assemble(refused.trace.unwrap())
            .expect("refusal trace must assemble");
        let refused_names = refused_tree.span_names();
        for expected in ["queued", "dequeued", "budget/refusal", "failed"] {
            assert!(
                refused_names.iter().any(|n| n == expected),
                "missing {expected}: {refused_names:?}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn metrics_registry_agrees_with_the_island_snapshots() {
        let (registry, ledger) = fleet();
        let server = Server::start(
            ServeConfig::new().with_workers(2),
            registry,
            Arc::clone(&ledger),
        );
        let pending: Vec<_> = (0..6)
            .map(|_| {
                server
                    .submit(ServeRequest::new("acme", "stars", 0.25))
                    .unwrap()
            })
            .collect();
        for p in pending {
            assert!(p.wait().result.is_ok());
        }
        let snap = server.metrics().snapshot();
        let cache = server.cache_stats();
        assert_eq!(snap.value("ccdp_serve_requests_total"), Some(6.0));
        assert_eq!(snap.value("ccdp_serve_completed_total"), Some(6.0));
        assert_eq!(
            snap.value("ccdp_core_cache_hits_total").unwrap()
                + snap.value("ccdp_core_cache_coalesced_total").unwrap(),
            (cache.hits + cache.coalesced) as f64
        );
        assert_eq!(
            snap.value("ccdp_core_cache_misses_total"),
            Some(cache.misses as f64)
        );
        assert_eq!(
            snap.value("ccdp_dp_budget_charges_total"),
            Some(ledger.charges() as f64)
        );
        // The per-request profilers published solver phases into the
        // registry even with tracing off.
        assert!(
            snap.sum("ccdp_exec_phase_invocations_total") > 0.0,
            "exec phase island missing from the scrape"
        );
        server.shutdown();
    }

    #[test]
    fn metrics_carry_no_exact_solve_counts_of_a_tenant_graph() {
        // Solve counts (components, dedup classes, closed forms) are exact
        // statistics of the graph; one request on an idle server would
        // reveal them as counter deltas on `/metrics`. Only timed phases
        // may be published.
        let (registry, ledger) = fleet();
        let server = Server::start(ServeConfig::new().with_workers(1), registry, ledger);
        let ok = server
            .submit(ServeRequest::new("acme", "path", 0.5))
            .unwrap()
            .wait();
        assert!(ok.result.is_ok());
        let snap = server.metrics().snapshot();
        assert!(snap.sum("ccdp_exec_phase_invocations_total") > 0.0);
        assert!(
            !snap
                .series
                .iter()
                .any(|s| s.name == "ccdp_exec_phase_count_total"),
            "exact solve counts leaked into the registry"
        );
        server.shutdown();
    }

    #[test]
    fn repeated_requests_share_one_family_evaluation() {
        let (registry, ledger) = fleet();
        let server = Server::start(
            ServeConfig::new().with_workers(4).with_seed(3),
            registry,
            ledger,
        );
        let pending: Vec<_> = (0..12)
            .map(|_| {
                server
                    .submit(ServeRequest::new("acme", "stars", 0.25))
                    .unwrap()
            })
            .collect();
        for p in pending {
            assert!(p.wait().result.is_ok());
        }
        let cache = server.cache_stats();
        assert_eq!(
            cache.misses, 1,
            "12 requests for one graph must evaluate the family once: {cache:?}"
        );
        assert_eq!(cache.hits + cache.coalesced, 11);
        server.shutdown();
    }

    #[test]
    fn audit_journal_records_decisions_and_replays_the_ledger() {
        let (registry, ledger) = fleet();
        let server = Server::start(
            ServeConfig::new().with_workers(1).with_tracing(true),
            registry,
            Arc::clone(&ledger),
        );
        let journal = Arc::clone(server.journal());
        let ok = server
            .submit(ServeRequest::new("acme", "stars", 2.0))
            .unwrap()
            .wait();
        assert!(ok.result.is_ok());
        let refused = server
            .submit(ServeRequest::new("acme", "stars", 100.0))
            .unwrap()
            .wait();
        assert!(matches!(
            refused.result,
            Err(ServeError::BudgetExhausted { .. })
        ));
        // The charge and the refusal carry the request's trace id.
        let events = journal.events_for_tenant("acme");
        let charge = events
            .iter()
            .find(|e| e.kind == AuditKind::BudgetCharge)
            .expect("charge event");
        assert_eq!(charge.trace, ok.trace);
        assert_eq!(charge.epsilon_granted.to_bits(), 2.0f64.to_bits());
        let refusal = events
            .iter()
            .find(|e| e.kind == AuditKind::BudgetRefusal)
            .expect("refusal event");
        assert_eq!(refusal.trace, refused.trace);
        // Replaying the journal reconstructs the live accountant exactly.
        assert_eq!(ledger.verify_replay(&journal), Ok(1));
        // Shutdown marks the drain boundary in the same stream.
        server.shutdown();
        assert!(journal
            .snapshot()
            .iter()
            .any(|e| e.kind == AuditKind::Drain));
    }

    #[test]
    fn audit_events_name_the_graph_id_verbatim() {
        // Regression: graph ids are not validated, and a charge on `db@2`
        // used to be journaled as graph `db` at version 2.
        let (registry, ledger) = fleet();
        registry.insert("db@2", generators::path(4));
        let server = Server::start(ServeConfig::new().with_workers(1), registry, ledger);
        let ok = server
            .submit(ServeRequest::new("acme", "db@2", 0.5))
            .unwrap()
            .wait();
        assert!(ok.result.is_ok());
        let events = server.journal().events_for_tenant("acme");
        let charge = events
            .iter()
            .find(|e| e.kind == AuditKind::BudgetCharge)
            .expect("charge event");
        assert_eq!((charge.graph.as_str(), charge.version), ("db@2", None));
        server.shutdown();
    }

    #[test]
    fn drop_counters_surface_ring_overwrites_in_the_exposition() {
        let (registry, ledger) = fleet();
        let server = Server::start(ServeConfig::new().with_workers(1), registry, ledger);
        let ok = server
            .submit(ServeRequest::new("acme", "stars", 0.5))
            .unwrap()
            .wait();
        assert!(ok.result.is_ok());
        let text = server.render_metrics();
        assert!(
            text.contains("ccdp_obs_trace_dropped_total 0"),
            "missing trace drop counter:\n{text}"
        );
        assert!(
            text.contains("ccdp_obs_audit_dropped_total 0"),
            "missing audit drop counter:\n{text}"
        );
        // The catalog sizes are refreshed on the same scrape.
        for line in [
            "ccdp_serve_catalog_graphs 2",
            "ccdp_serve_catalog_versions 2",
            "ccdp_serve_tenants 1",
        ] {
            assert!(text.contains(line), "missing `{line}`:\n{text}");
        }
        assert!(text.ends_with("# EOF\n"));
        server.shutdown();
    }

    #[test]
    fn concurrent_scrapes_fold_drop_counts_exactly() {
        // Scrapes race each other while both rings overflow; each exported
        // drop counter must end at the ring's own count, never above it.
        let (registry, ledger) = fleet();
        let server = Server::start(
            ServeConfig::new().with_workers(1).with_tracing(true),
            registry,
            ledger,
        );
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        server.render_metrics();
                    }
                });
            }
            for _ in 0..50_000 {
                server.journal().record(AuditEvent::new(AuditKind::Drain));
                let id = server.mint_trace();
                server
                    .tracer()
                    .emit(id, SpanKind::Queued, Duration::ZERO, 0);
                server
                    .tracer()
                    .emit(id, SpanKind::Dequeued, Duration::ZERO, 0);
            }
            stop.store(true, Ordering::Relaxed);
        });
        server.render_metrics();
        let (journal_dropped, tracer_dropped) =
            (server.journal().dropped(), server.tracer().dropped());
        assert!(journal_dropped > 0 && tracer_dropped > 0);
        assert_eq!(
            series(server.metrics(), "ccdp_obs_audit_dropped_total"),
            journal_dropped
        );
        assert_eq!(
            series(server.metrics(), "ccdp_obs_trace_dropped_total"),
            tracer_dropped
        );
        server.shutdown();
    }
}
