//! Policy-driven continual re-estimation of evolving graphs.
//!
//! A stream mutating forever is only useful to tenants if someone decides
//! *when* a fresh differentially private release is worth its ε. The
//! [`ReleaseScheduler`] is that decision point: it watches streams through
//! [`observe`](ReleaseScheduler::observe), fires by [`ReleasePolicy`] (every
//! k mutations, on component-count drift, or on demand), and when it fires it
//! runs the full serving pipeline on an immutable snapshot:
//!
//! 1. atomically charge the release ε to the owning tenant's
//!    [`BudgetLedger`] account (an exhausted quota is a typed refusal that
//!    changes *nothing* — no version burned, no snapshot published, no
//!    cache touched; the stream keeps mutating, the tenant just stops
//!    getting releases),
//! 2. freeze the stream into a versioned
//!    [`GraphSnapshot`] and publish it to
//!    the shared version-aware [`GraphRegistry`] (a typed
//!    [`VersionExists`](ccdp_serve::ServeError::VersionExists) refusal if the
//!    version was somehow already taken — snapshots are never overwritten),
//! 3. bulk-invalidate the superseded versions' extension families from the
//!    shared [`ExtensionCache`] and expire stale registry snapshots beyond
//!    the configured retention,
//! 4. estimate on the *registry-resolved* snapshot — the graph served is
//!    provably the one named by `(id, version)` — with cache lookups tagged
//!    by that same pair, so no family computed for another version can ever
//!    be replayed,
//! 5. append a [`ReleaseRecord`] to the versioned release log.
//!
//! # Budget semantics
//!
//! Every fired release spends [`SchedulerConfig::epsilon_per_release`] from
//! the tenant's quota *before* the snapshot is even frozen, under the
//! ledger's atomic check-and-spend; the ledger stage name is `id@version`,
//! so a tenant's account reads as a versioned audit trail. Spent ε is never
//! refunded if estimation later fails — accounting only ever over-counts a
//! tenant's exposure. Releases about *different snapshots of one graph*
//! still compose sequentially against the same quota: node-DP composition
//! is per tenant, not per version.

use crate::error::StreamError;
use crate::stream::{GraphSnapshot, GraphStream};
use ccdp_core::{EstimatorConfig, ExtensionCache, PrivateCcEstimator};
use ccdp_graph::GraphVersion;
use ccdp_obs::{AuditEvent, AuditJournal, AuditKind, Counter, MetricsRegistry};
use ccdp_serve::{
    BudgetLedger, GraphId, GraphRegistry, ServeError, ServeRequest, Server, TenantId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// When the scheduler fires a fresh release for a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReleasePolicy {
    /// After every `k` accepted mutations since the last release (`k ≥ 1`;
    /// the first observation of a stream always fires a baseline release).
    EveryKMutations(u64),
    /// When the exact component count has drifted at least `threshold` away
    /// from the count at the last release (the first observation fires).
    /// The trigger reads only the stream's internal true count — the
    /// *decision to release* is data-dependent, which is why the released
    /// value itself still carries the full ε noise.
    OnComponentDrift {
        /// Minimum absolute drift that fires.
        threshold: usize,
    },
    /// Only [`ReleaseScheduler::release_now`] fires.
    OnDemand,
}

/// Configuration of a [`ReleaseScheduler`].
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// The firing policy.
    pub policy: ReleasePolicy,
    /// ε charged to the owning tenant per fired release.
    pub epsilon_per_release: f64,
    /// Base seed of the per-release RNG derivation.
    pub seed: u64,
    /// Δmax override forwarded to the estimator, if any.
    pub delta_max: Option<usize>,
    /// How many registry snapshots the *scheduler* actively retains per
    /// graph (0 = no scheduler-driven expiry). Older versions are expired
    /// right after a new one is published. Note the registry enforces its
    /// own bound on every publish
    /// ([`DEFAULT_VERSION_RETENTION`](ccdp_serve::registry::DEFAULT_VERSION_RETENTION)
    /// unless built with [`GraphRegistry::with_retention`]) — the *tighter*
    /// of the two wins, so retaining more than the registry's bound requires
    /// a registry configured to match.
    pub retain_versions: usize,
}

impl SchedulerConfig {
    /// A config with the given policy, ε = 0.5 per release, seed 0 and a 4-version registry retention.
    pub fn new(policy: ReleasePolicy) -> Self {
        SchedulerConfig {
            policy,
            epsilon_per_release: 0.5,
            seed: 0,
            delta_max: None,
            retain_versions: 4,
        }
    }

    /// Sets the ε charged per release.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon_per_release = epsilon;
        self
    }

    /// Sets the RNG base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the Δmax estimator override.
    pub fn with_delta_max(mut self, delta_max: usize) -> Self {
        self.delta_max = Some(delta_max);
        self
    }

    /// Sets the per-graph registry retention (0 = keep all versions).
    pub fn with_retain_versions(mut self, retain: usize) -> Self {
        self.retain_versions = retain;
        self
    }
}

/// Why a release fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReleaseTrigger {
    /// First observation of the stream (baseline).
    Baseline,
    /// The mutation budget of [`ReleasePolicy::EveryKMutations`] elapsed.
    Mutations,
    /// The drift threshold of [`ReleasePolicy::OnComponentDrift`] tripped.
    Drift,
    /// [`ReleaseScheduler::release_now`] was called.
    Demand,
}

impl ReleaseTrigger {
    /// Stable snake_case name (audit-event detail field).
    pub fn name(self) -> &'static str {
        match self {
            ReleaseTrigger::Baseline => "baseline",
            ReleaseTrigger::Mutations => "mutations",
            ReleaseTrigger::Drift => "drift",
            ReleaseTrigger::Demand => "demand",
        }
    }
}

/// One entry of the versioned release log.
#[derive(Clone, Debug)]
pub struct ReleaseRecord {
    /// The graph released.
    pub graph: GraphId,
    /// The exact snapshot version the release was served from.
    pub version: GraphVersion,
    /// The tenant whose quota funded it.
    pub tenant: TenantId,
    /// ε spent.
    pub epsilon: f64,
    /// The differentially private estimate of the component count.
    pub value: f64,
    /// The exact count at the snapshot (diagnostic; never tenant-visible).
    pub true_components: usize,
    /// Stream clock at the snapshot.
    pub time: u64,
    /// Mutations the stream had accepted at the snapshot.
    pub mutations_applied: u64,
    /// What fired the release.
    pub trigger: ReleaseTrigger,
}

/// Per-stream trigger bookkeeping.
#[derive(Clone, Copy, Debug)]
struct TriggerState {
    mutations_at_last: u64,
    components_at_last: usize,
}

/// The continual-release engine over shared serving infrastructure.
pub struct ReleaseScheduler {
    config: SchedulerConfig,
    registry: Arc<GraphRegistry>,
    ledger: Arc<BudgetLedger>,
    cache: Arc<ExtensionCache>,
    /// When set, fired releases run through this worker pool instead of
    /// estimating inline (see [`ReleaseScheduler::with_server`]).
    server: Option<Arc<Server>>,
    state: Mutex<HashMap<GraphId, TriggerState>>,
    log: Mutex<Vec<ReleaseRecord>>,
    /// Successful releases, as `ccdp_stream_releases_total` once published
    /// into a [`MetricsRegistry`] (automatic under
    /// [`ReleaseScheduler::with_server`]).
    releases_total: Counter,
    /// Audit journal for `scheduler_fire` / `cache_invalidation` events
    /// (taken from the server under [`ReleaseScheduler::with_server`],
    /// attachable via [`ReleaseScheduler::set_journal`] otherwise).
    journal: RwLock<Option<Arc<AuditJournal>>>,
}

impl ReleaseScheduler {
    /// A scheduler over the shared registry, ledger and family cache,
    /// estimating inline on the calling thread.
    pub fn new(
        config: SchedulerConfig,
        registry: Arc<GraphRegistry>,
        ledger: Arc<BudgetLedger>,
        cache: Arc<ExtensionCache>,
    ) -> Self {
        ReleaseScheduler {
            config,
            registry,
            ledger,
            cache,
            server: None,
            state: Mutex::new(HashMap::new()),
            log: Mutex::new(Vec::new()),
            releases_total: Counter::detached(),
            journal: RwLock::new(None),
        }
    }

    /// A scheduler whose fired releases run through `server`'s worker pool:
    /// the published snapshot is estimated by the same workers, admitted by
    /// the same bounded queue and charged by the same ledger admission path
    /// as every wire request, and its extension family lands in the pool's
    /// shared cache. Registry, ledger and cache are taken from the server,
    /// so they are shared by construction.
    ///
    /// Differences from the inline path, both typed and bounded:
    ///
    /// * Queue backpressure surfaces as
    ///   [`ServeError::QueueFull`] — the release is refused, the
    ///   just-published snapshot is unpublished, and *no budget is charged*
    ///   (the charge lives inside the worker, past admission). The stream's
    ///   version number is burned; versions never recycle.
    /// * The ledger stage name is the graph id (the worker pool's hot-path
    ///   naming), not the inline path's `id@version`.
    pub fn with_server(config: SchedulerConfig, server: Arc<Server>) -> Self {
        let mut scheduler = ReleaseScheduler {
            config,
            registry: Arc::clone(server.registry()),
            ledger: Arc::clone(server.ledger()),
            cache: Arc::clone(server.cache()),
            releases_total: Counter::detached(),
            journal: RwLock::new(Some(Arc::clone(server.journal()))),
            server: Some(server),
            state: Mutex::new(HashMap::new()),
            log: Mutex::new(Vec::new()),
        };
        let metrics = Arc::clone(scheduler.server.as_ref().expect("just set").metrics());
        scheduler.publish_metrics(&metrics);
        scheduler
    }

    /// Attaches the audit journal scheduler decisions are recorded into.
    /// [`ReleaseScheduler::with_server`] attaches the server's journal
    /// automatically; the inline constructor leaves it to the caller.
    pub fn set_journal(&self, journal: Arc<AuditJournal>) {
        *self.journal.write().unwrap_or_else(|p| p.into_inner()) = Some(journal);
    }

    /// Records one event into the attached journal, if any.
    fn audit(&self, event: AuditEvent) {
        let guard = self.journal.read().unwrap_or_else(|p| p.into_inner());
        if let Some(journal) = guard.as_ref() {
            journal.record(event);
        }
    }

    /// Registers the scheduler's counters into `registry` (as
    /// `ccdp_stream_releases_total`), carrying over any releases already
    /// recorded. [`ReleaseScheduler::with_server`] does this automatically
    /// against the server's registry; the inline constructor leaves it to
    /// the caller, who owns the registry there.
    pub fn publish_metrics(&mut self, registry: &MetricsRegistry) {
        self.releases_total =
            registry.adopt_counter("ccdp_stream_releases_total", &self.releases_total);
    }

    /// The configuration the scheduler fires with.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The shared registry snapshots are published into.
    pub fn registry(&self) -> &Arc<GraphRegistry> {
        &self.registry
    }

    /// Checks the policy against `stream` and, if it fires, runs the full
    /// release pipeline charged to `tenant`. `Ok(None)` means the policy did
    /// not fire — the common case on the mutation hot path.
    pub fn observe(
        &self,
        stream: &mut GraphStream,
        tenant: &TenantId,
    ) -> Result<Option<ReleaseRecord>, StreamError> {
        // Copy the prior trigger state out before evaluating the policy:
        // `num_components` can pay a post-deletion union-find rebuild, which
        // must not run under the mutex shared by every stream's observe().
        let prior = self.lock_state().get(stream.id()).copied();
        let trigger = match (self.config.policy, prior) {
            // On-demand streams only release through `release_now`.
            (ReleasePolicy::OnDemand, _) => None,
            // The automatic policies fire a baseline on first sight.
            (_, None) => Some(ReleaseTrigger::Baseline),
            (ReleasePolicy::EveryKMutations(k), Some(s)) => {
                // Saturating: a stream rebuilt under a previously seen id can
                // report fewer mutations than the recorded state — that must
                // read as "nothing elapsed", not an underflow.
                let elapsed = stream
                    .stats()
                    .mutations_applied
                    .saturating_sub(s.mutations_at_last);
                (elapsed >= k.max(1)).then_some(ReleaseTrigger::Mutations)
            }
            (ReleasePolicy::OnComponentDrift { threshold }, Some(s)) => {
                let drift = stream.num_components().abs_diff(s.components_at_last);
                (drift >= threshold.max(1)).then_some(ReleaseTrigger::Drift)
            }
        };
        match trigger {
            Some(trigger) => self.release(stream, tenant, trigger).map(Some),
            None => Ok(None),
        }
    }

    /// Fires a release unconditionally (the [`ReleasePolicy::OnDemand`]
    /// path; also resets the policy counters of the other modes).
    pub fn release_now(
        &self,
        stream: &mut GraphStream,
        tenant: &TenantId,
    ) -> Result<ReleaseRecord, StreamError> {
        self.release(stream, tenant, ReleaseTrigger::Demand)
    }

    /// The versioned release log so far (clone; the log keeps growing).
    pub fn log(&self) -> Vec<ReleaseRecord> {
        self.lock_log().clone()
    }

    /// Number of releases fired so far.
    pub fn releases(&self) -> usize {
        self.lock_log().len()
    }

    /// The full pipeline: charge → snapshot → publish → invalidate/expire →
    /// estimate → record. The charge comes first so a refused release
    /// changes nothing (see the module docs and the
    /// `refused_releases_leave_all_shared_state_untouched` regression test).
    fn release(
        &self,
        stream: &mut GraphStream,
        tenant: &TenantId,
        trigger: ReleaseTrigger,
    ) -> Result<ReleaseRecord, StreamError> {
        if let Some(server) = self.server.as_ref().map(Arc::clone) {
            return self.release_via_server(&server, stream, tenant, trigger);
        }
        // Charge the tenant *first*: a refused release must cost nothing and
        // change nothing — no version burned, no snapshot published, no
        // cache invalidated, no solver time. The version the snapshot will
        // carry is known before freezing, so the ledger stage `id@version`
        // still makes the account a versioned audit trail.
        let id = stream.id().clone();
        let version = stream.next_version();
        let stage = format!("{id}@{version}");
        // The fire *decision* is journaled before the charge: a refused
        // release still shows up as "the policy fired here", followed by the
        // ledger's own refusal event — the audit stream explains both what
        // was attempted and why nothing changed.
        self.audit(
            AuditEvent::new(AuditKind::SchedulerFire)
                .tenant(tenant.as_str())
                .graph(id.as_str(), Some(version.value()))
                .epsilon(self.config.epsilon_per_release, 0.0)
                .detail(trigger.name()),
        );
        self.ledger
            .try_spend(tenant, &stage, self.config.epsilon_per_release)?;

        let snapshot = stream.snapshot();
        debug_assert_eq!(snapshot.version(), version);

        // Publish the immutable snapshot (shared, not copied); a version
        // collision is a typed refusal (two streams claiming one catalog id,
        // or a replayed feed).
        self.registry
            .insert_version(id.clone(), version, Arc::clone(snapshot.graph()))?;
        // Superseded versions can never be served again: drop their cached
        // families in bulk and expire their registry snapshots beyond the
        // retention window.
        let invalidated = self.cache.invalidate_versions_below(id.as_str(), version);
        let mut expired = 0;
        if self.config.retain_versions > 0 {
            expired = self
                .registry
                .retain_latest(&id, self.config.retain_versions);
        }
        if invalidated > 0 || expired > 0 {
            self.audit(
                AuditEvent::new(AuditKind::CacheInvalidation)
                    .tenant(tenant.as_str())
                    .graph(id.as_str(), Some(version.value()))
                    .detail(format!(
                        "{invalidated} cached families invalidated, {expired} snapshots expired"
                    )),
            );
        }

        // Record the trigger state *before* estimating: the charge already
        // happened, so a failing estimator must not leave the policy primed
        // to re-fire on the very next observe() and drain the tenant's quota
        // on a pathological graph — the damage is bounded to one charge per
        // policy period.
        self.mark_released(&id, &snapshot);

        // Estimate on the registry-resolved arena (not the local copy): what
        // we release is provably what `(id, version)` names, and the arena is
        // the one built at publish.
        let (_, arena) = self.registry.resolve_arena(&id, Some(version))?;
        let mut est_config = EstimatorConfig::new(self.config.epsilon_per_release)
            .with_shared_family_cache(Arc::clone(&self.cache))
            .with_graph_tag(id.as_str(), version);
        if let Some(delta_max) = self.config.delta_max {
            est_config = est_config.with_delta_max(delta_max);
        }
        let estimator = PrivateCcEstimator::from_config(est_config)
            .map_err(|e| StreamError::Serve(ServeError::Estimator(e.into())))?;
        let mut rng = StdRng::seed_from_u64(self.release_seed(&id, version));
        let release = estimator
            .estimate_shared(&arena, &mut rng)
            .map_err(|e| StreamError::Serve(ServeError::Estimator(e)))?;

        let record = ReleaseRecord {
            graph: id,
            version,
            tenant: tenant.clone(),
            epsilon: self.config.epsilon_per_release,
            value: release.value(),
            true_components: snapshot.num_components(),
            time: snapshot.time(),
            mutations_applied: snapshot.mutations_applied(),
            trigger,
        };
        self.lock_log().push(record.clone());
        self.releases_total.inc();
        Ok(record)
    }

    /// The worker-pool pipeline: snapshot → publish → submit → await →
    /// invalidate/expire → record. Publication must precede submission (a
    /// worker can only serve what the registry resolves), so refusals roll
    /// the publish back instead of never making it — either way a refused
    /// release leaves no resolvable snapshot and no charge (see
    /// [`ReleaseScheduler::with_server`]).
    fn release_via_server(
        &self,
        server: &Server,
        stream: &mut GraphStream,
        tenant: &TenantId,
        trigger: ReleaseTrigger,
    ) -> Result<ReleaseRecord, StreamError> {
        let id = stream.id().clone();
        let snapshot = stream.snapshot();
        let version = snapshot.version();
        self.audit(
            AuditEvent::new(AuditKind::SchedulerFire)
                .tenant(tenant.as_str())
                .graph(id.as_str(), Some(version.value()))
                .epsilon(self.config.epsilon_per_release, 0.0)
                .detail(trigger.name()),
        );
        self.registry
            .insert_version(id.clone(), version, Arc::clone(snapshot.graph()))?;

        // Pin the exact published version: the worker provably estimates the
        // snapshot this release names, never "latest at dequeue time".
        let request =
            ServeRequest::new(tenant.clone(), id.clone(), self.config.epsilon_per_release)
                .at_version(version);
        let pending = match server.submit(request) {
            Ok(pending) => pending,
            Err(refusal) => {
                // Typed backpressure (QueueFull / ShuttingDown): nothing was
                // enqueued and nothing charged — the worker-side ledger spend
                // never ran. Unpublish the unfunded snapshot so shared state
                // is as before; only the stream's version number is burned.
                self.registry.remove_version(&id, version);
                return Err(StreamError::Serve(refusal));
            }
        };
        let response = pending.wait();
        let release = match response.result {
            Ok(release) => release,
            Err(refusal @ ServeError::BudgetExhausted { .. }) => {
                // The worker's atomic check-and-spend refused: no charge
                // landed, so the unfunded snapshot must not stay resolvable
                // and the policy state must not advance.
                self.registry.remove_version(&id, version);
                return Err(StreamError::Serve(refusal));
            }
            Err(failure) => {
                // The charge landed (failures past admission are never
                // refunded — same conservative accounting as the inline
                // path), so advance the policy state: a pathological graph
                // drains at most one charge per policy period.
                self.mark_released(&id, &snapshot);
                return Err(StreamError::Serve(failure));
            }
        };
        self.mark_released(&id, &snapshot);
        let invalidated = self.cache.invalidate_versions_below(id.as_str(), version);
        let mut expired = 0;
        if self.config.retain_versions > 0 {
            expired = self
                .registry
                .retain_latest(&id, self.config.retain_versions);
        }
        if invalidated > 0 || expired > 0 {
            self.audit(
                AuditEvent::new(AuditKind::CacheInvalidation)
                    .tenant(tenant.as_str())
                    .graph(id.as_str(), Some(version.value()))
                    .detail(format!(
                        "{invalidated} cached families invalidated, {expired} snapshots expired"
                    )),
            );
        }

        let record = ReleaseRecord {
            graph: id,
            version,
            tenant: tenant.clone(),
            epsilon: self.config.epsilon_per_release,
            value: release.value(),
            true_components: snapshot.num_components(),
            time: snapshot.time(),
            mutations_applied: snapshot.mutations_applied(),
            trigger,
        };
        self.lock_log().push(record.clone());
        self.releases_total.inc();
        Ok(record)
    }

    /// Advances the per-stream policy state to `snapshot`.
    fn mark_released(&self, id: &GraphId, snapshot: &GraphSnapshot) {
        self.lock_state().insert(
            id.clone(),
            TriggerState {
                mutations_at_last: snapshot.mutations_applied(),
                components_at_last: snapshot.num_components(),
            },
        );
    }

    /// Deterministic per-release noise stream: the same (seed, graph,
    /// version) triple draws the same noise on any run.
    fn release_seed(&self, id: &GraphId, version: GraphVersion) -> u64 {
        let mut h = DefaultHasher::new();
        id.hash(&mut h);
        self.config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(h.finish())
            .wrapping_add(version.value())
    }

    fn lock_state(&self) -> MutexGuard<'_, HashMap<GraphId, TriggerState>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lock_log(&self) -> MutexGuard<'_, Vec<ReleaseRecord>> {
        self.log.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl std::fmt::Debug for ReleaseScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReleaseScheduler")
            .field("config", &self.config)
            .field("releases", &self.releases())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Mutation;

    fn infra() -> (Arc<GraphRegistry>, Arc<BudgetLedger>, Arc<ExtensionCache>) {
        let registry = Arc::new(GraphRegistry::new());
        let ledger = Arc::new(BudgetLedger::new());
        ledger.register("acme", 100.0).unwrap();
        let cache = Arc::new(ExtensionCache::new(64));
        (registry, ledger, cache)
    }

    fn grow_stream(id: &str, edges: usize) -> GraphStream {
        let mut s = GraphStream::new(id);
        for i in 0..edges {
            s.apply(&Mutation::insert(i as u64 + 1, i, i + 1)).unwrap();
        }
        s
    }

    #[test]
    fn every_k_mutations_fires_baseline_then_periodically() {
        let (registry, ledger, cache) = infra();
        let sched = ReleaseScheduler::new(
            SchedulerConfig::new(ReleasePolicy::EveryKMutations(4)).with_epsilon(0.5),
            Arc::clone(&registry),
            ledger,
            cache,
        );
        let tenant = TenantId::new("acme");
        let mut s = grow_stream("g", 2);
        // First observation: baseline release at v0.
        let r = sched.observe(&mut s, &tenant).unwrap().unwrap();
        assert_eq!(r.trigger, ReleaseTrigger::Baseline);
        assert_eq!(r.version, GraphVersion::INITIAL);
        // Two more mutations: not yet.
        s.apply(&Mutation::insert(10, 3, 4)).unwrap();
        s.apply(&Mutation::insert(11, 4, 5)).unwrap();
        assert!(sched.observe(&mut s, &tenant).unwrap().is_none());
        // Two more reach k = 4.
        s.apply(&Mutation::insert(12, 5, 6)).unwrap();
        s.apply(&Mutation::insert(13, 6, 7)).unwrap();
        let r = sched.observe(&mut s, &tenant).unwrap().unwrap();
        assert_eq!(r.trigger, ReleaseTrigger::Mutations);
        assert_eq!(r.version, GraphVersion::new(1));
        assert_eq!(sched.releases(), 2);
        // The log is versioned and ordered.
        let log = sched.log();
        assert_eq!(log[0].version, GraphVersion::INITIAL);
        assert_eq!(log[1].version, GraphVersion::new(1));
        // Both snapshots live in the registry.
        assert_eq!(registry.num_versions(), 2);
    }

    #[test]
    fn drift_policy_fires_on_component_change() {
        let (registry, ledger, cache) = infra();
        let sched = ReleaseScheduler::new(
            SchedulerConfig::new(ReleasePolicy::OnComponentDrift { threshold: 2 }),
            registry,
            ledger,
            cache,
        );
        let tenant = TenantId::new("acme");
        let mut s = grow_stream("g", 3); // path on 4 vertices, 1 component
        let r = sched.observe(&mut s, &tenant).unwrap().unwrap();
        assert_eq!(r.trigger, ReleaseTrigger::Baseline);
        assert_eq!(r.true_components, 1);
        // One extra component {4, 5} appears: drift 1 < 2.
        s.apply(&Mutation::insert(10, 4, 5)).unwrap();
        assert!(sched.observe(&mut s, &tenant).unwrap().is_none());
        // Break the path twice: {0}, {1,2}, {3}, {4,5} — drift ≥ 2 fires.
        s.apply(&Mutation::delete(11, 0, 1)).unwrap();
        s.apply(&Mutation::delete(12, 2, 3)).unwrap();
        let r = sched.observe(&mut s, &tenant).unwrap().unwrap();
        assert_eq!(r.trigger, ReleaseTrigger::Drift);
        assert_eq!(r.true_components, 4);
    }

    #[test]
    fn on_demand_only_fires_when_asked() {
        let (registry, ledger, cache) = infra();
        let sched = ReleaseScheduler::new(
            SchedulerConfig::new(ReleasePolicy::OnDemand),
            registry,
            ledger,
            cache,
        );
        let tenant = TenantId::new("acme");
        let mut s = grow_stream("g", 5);
        assert!(sched.observe(&mut s, &tenant).unwrap().is_none());
        let r = sched.release_now(&mut s, &tenant).unwrap();
        assert_eq!(r.trigger, ReleaseTrigger::Demand);
        assert_eq!(sched.releases(), 1);
    }

    #[test]
    fn budget_exhaustion_is_a_typed_refusal_and_spends_nothing_more() {
        let (registry, ledger, cache) = infra();
        ledger.register("poor", 0.6).unwrap();
        let sched = ReleaseScheduler::new(
            SchedulerConfig::new(ReleasePolicy::OnDemand).with_epsilon(0.5),
            registry,
            ledger.clone(),
            cache,
        );
        let tenant = TenantId::new("poor");
        let mut s = grow_stream("g", 4);
        sched.release_now(&mut s, &tenant).unwrap();
        let err = sched.release_now(&mut s, &tenant).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Serve(ServeError::BudgetExhausted { .. })
        ));
        // The refusal charged nothing and logged nothing.
        assert_eq!(sched.releases(), 1);
        let view = ledger.account_view(&tenant).unwrap();
        assert!((view.spent_epsilon - 0.5).abs() < 1e-12);
        // The ledger audit trail names the snapshot.
        assert_eq!(view.grants, 1);
    }

    #[test]
    fn refused_releases_leave_all_shared_state_untouched() {
        // Regression: the budget check must come before any side effect. A
        // refused release may not burn a stream version, publish an unfunded
        // snapshot, invalidate cached families or expire registry history.
        let (registry, ledger, cache) = infra();
        ledger.register("poor", 0.5).unwrap();
        let sched = ReleaseScheduler::new(
            SchedulerConfig::new(ReleasePolicy::OnDemand)
                .with_epsilon(0.5)
                .with_retain_versions(2),
            Arc::clone(&registry),
            ledger,
            Arc::clone(&cache),
        );
        let tenant = TenantId::new("poor");
        let mut s = grow_stream("g", 4);
        sched.release_now(&mut s, &tenant).unwrap();
        let id = GraphId::new("g");
        let versions_before = registry.versions(&id);
        let cache_before = cache.stats();
        let next_before = s.next_version();
        for _ in 0..3 {
            let err = sched.release_now(&mut s, &tenant).unwrap_err();
            assert!(matches!(
                err,
                StreamError::Serve(ServeError::BudgetExhausted { .. })
            ));
        }
        assert_eq!(s.next_version(), next_before, "no version may be burned");
        assert_eq!(registry.versions(&id), versions_before);
        assert_eq!(cache.stats(), cache_before);
        assert_eq!(s.stats().snapshots, 1, "refusals never snapshot");
    }

    #[test]
    fn superseded_versions_are_invalidated_and_expired() {
        let (registry, ledger, cache) = infra();
        let sched = ReleaseScheduler::new(
            SchedulerConfig::new(ReleasePolicy::OnDemand)
                .with_epsilon(0.25)
                .with_retain_versions(2),
            Arc::clone(&registry),
            ledger,
            Arc::clone(&cache),
        );
        let tenant = TenantId::new("acme");
        let mut s = grow_stream("g", 3);
        for i in 0..5 {
            sched.release_now(&mut s, &tenant).unwrap();
            s.apply(&Mutation::insert(100 + i, 10 + i as usize, 11 + i as usize))
                .unwrap();
        }
        // Registry retains only the 2 newest versions.
        let id = GraphId::new("g");
        assert_eq!(registry.versions(&id).len(), 2);
        assert_eq!(registry.latest_version(&id), Some(GraphVersion::new(4)));
        // Every release evaluated its own version's family: 5 misses, no
        // cross-version replay, and superseded entries were invalidated.
        let stats = cache.stats();
        assert_eq!(stats.misses, 5);
        assert_eq!(stats.hits, 0);
        assert!(stats.invalidations >= 4, "{stats:?}");
    }

    #[test]
    fn server_pool_releases_share_cache_ledger_and_log() {
        use ccdp_serve::ServeConfig;
        let registry = Arc::new(GraphRegistry::new());
        let ledger = Arc::new(BudgetLedger::new());
        ledger.register("acme", 100.0).unwrap();
        let server = Arc::new(Server::start(
            ServeConfig::new().with_workers(2).with_seed(5),
            Arc::clone(&registry),
            Arc::clone(&ledger),
        ));
        let sched = ReleaseScheduler::with_server(
            SchedulerConfig::new(ReleasePolicy::EveryKMutations(3)).with_epsilon(0.5),
            Arc::clone(&server),
        );
        let tenant = TenantId::new("acme");
        let mut s = grow_stream("g", 2);
        let baseline = sched.observe(&mut s, &tenant).unwrap().unwrap();
        assert_eq!(baseline.trigger, ReleaseTrigger::Baseline);
        assert_eq!(baseline.version, GraphVersion::INITIAL);
        for i in 0..3u64 {
            s.apply(&Mutation::insert(20 + i, 30 + i as usize, 31 + i as usize))
                .unwrap();
        }
        let next = sched.observe(&mut s, &tenant).unwrap().unwrap();
        assert_eq!(next.trigger, ReleaseTrigger::Mutations);
        assert_eq!(next.version, GraphVersion::new(1));
        // Both releases went through the pool: its stats counted them, its
        // cache holds their families, the shared ledger funded them.
        let snap = server.stats();
        assert_eq!(snap.completed, 2);
        assert_eq!(server.cache_stats().misses, 2);
        let view = ledger.account_view(&tenant).unwrap();
        assert!((view.spent_epsilon - 1.0).abs() < 1e-12);
        assert_eq!(sched.releases(), 2);
        assert_eq!(registry.versions(&GraphId::new("g")).len(), 2);
    }

    #[test]
    fn pool_backpressure_refuses_the_release_and_charges_nothing() {
        // Regression (wire-era invariant): a scheduler release that meets a
        // full worker queue must surface `QueueFull` as a typed refusal,
        // charge no budget and leave no resolvable snapshot behind.
        use ccdp_serve::ServeConfig;
        let registry = Arc::new(GraphRegistry::new());
        // A slow graph occupies the lone worker long enough for the 1-slot
        // queue to stay full behind it.
        registry.insert("slow", ccdp_graph::generators::caveman(6, 6));
        let ledger = Arc::new(BudgetLedger::new());
        ledger.register("filler", 1e6).unwrap();
        ledger.register("acme", 100.0).unwrap();
        let server = Arc::new(Server::start(
            ServeConfig::new().with_workers(1).with_queue_capacity(1),
            Arc::clone(&registry),
            Arc::clone(&ledger),
        ));
        let sched = ReleaseScheduler::with_server(
            SchedulerConfig::new(ReleasePolicy::OnDemand).with_epsilon(0.5),
            Arc::clone(&server),
        );
        let tenant = TenantId::new("acme");
        let mut s = grow_stream("g", 4);
        let id = GraphId::new("g");

        let mut pending = Vec::new();
        let mut refused = false;
        for _ in 0..20 {
            // Saturate the pool: keep submitting slow filler work until the
            // bounded queue pushes back.
            loop {
                match server.submit(ccdp_serve::ServeRequest::new("filler", "slow", 0.001)) {
                    Ok(p) => pending.push(p),
                    Err(ServeError::QueueFull { .. }) => break,
                    Err(other) => panic!("unexpected filler refusal: {other:?}"),
                }
            }
            let spent_before = ledger.account_view(&tenant).unwrap().spent_epsilon;
            let releases_before = sched.releases();
            let refused_version = s.next_version();
            match sched.release_now(&mut s, &tenant) {
                Err(StreamError::Serve(ServeError::QueueFull { capacity })) => {
                    assert_eq!(capacity, 1);
                    let view = ledger.account_view(&tenant).unwrap();
                    assert_eq!(
                        view.spent_epsilon, spent_before,
                        "a refused release must charge nothing"
                    );
                    // The refused snapshot was unpublished and not logged.
                    assert!(registry.get_version(&id, refused_version).is_none());
                    assert_eq!(sched.releases(), releases_before);
                    refused = true;
                    break;
                }
                // The lone worker won the race and drained the queue first;
                // that release went through — re-saturate and try again.
                Ok(r) => {
                    assert_eq!(r.version, refused_version);
                    continue;
                }
                Err(other) => panic!("unexpected release failure: {other:?}"),
            }
        }
        assert!(refused, "a 1-slot queue never refused a release");
    }

    #[test]
    fn scheduler_decisions_land_in_the_audit_journal() {
        let (registry, ledger, cache) = infra();
        ledger.register("poor", 0.6).unwrap();
        let journal = Arc::new(AuditJournal::new());
        let sched = ReleaseScheduler::new(
            SchedulerConfig::new(ReleasePolicy::OnDemand)
                .with_epsilon(0.5)
                .with_retain_versions(1),
            registry,
            Arc::clone(&ledger),
            cache,
        );
        sched.set_journal(Arc::clone(&journal));
        ledger.set_journal(Arc::clone(&journal));
        let tenant = TenantId::new("poor");
        let mut s = grow_stream("g", 3);
        sched.release_now(&mut s, &tenant).unwrap();
        s.apply(&Mutation::insert(10, 5, 6)).unwrap();
        // Second release: refused (0.1 ε left) — the fire decision is still
        // journaled, followed by the ledger's refusal.
        assert!(sched.release_now(&mut s, &tenant).is_err());
        let events = journal.events_for_tenant("poor");
        let kinds: Vec<AuditKind> = events.iter().map(|e| e.kind).collect();
        let fires = kinds
            .iter()
            .filter(|k| **k == AuditKind::SchedulerFire)
            .count();
        assert_eq!(fires, 2, "{kinds:?}");
        assert!(kinds.contains(&AuditKind::BudgetCharge));
        assert!(kinds.contains(&AuditKind::BudgetRefusal));
        let fire = events
            .iter()
            .find(|e| e.kind == AuditKind::SchedulerFire)
            .unwrap();
        assert_eq!(fire.detail, "demand");
        assert_eq!((fire.graph.as_str(), fire.version), ("g", Some(0)));
        // The inline stage name is `id@version`; replay still reconstructs
        // the account exactly from the journal.
        assert_eq!(ledger.verify_replay(&journal), Ok(2));
    }

    #[test]
    fn superseding_releases_journal_their_invalidations() {
        let (registry, ledger, cache) = infra();
        let journal = Arc::new(AuditJournal::new());
        let sched = ReleaseScheduler::new(
            SchedulerConfig::new(ReleasePolicy::OnDemand)
                .with_epsilon(0.1)
                .with_retain_versions(1),
            registry,
            ledger,
            cache,
        );
        sched.set_journal(Arc::clone(&journal));
        let tenant = TenantId::new("acme");
        let mut s = grow_stream("g", 3);
        sched.release_now(&mut s, &tenant).unwrap();
        s.apply(&Mutation::insert(10, 5, 6)).unwrap();
        sched.release_now(&mut s, &tenant).unwrap();
        let invalidations: Vec<_> = journal
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == AuditKind::CacheInvalidation)
            .collect();
        assert_eq!(invalidations.len(), 1, "{invalidations:?}");
        assert_eq!(invalidations[0].version, Some(1));
        assert!(invalidations[0].detail.contains("1 cached families"));
    }

    #[test]
    fn identical_seeds_replay_identical_release_values() {
        let run = || {
            let (registry, ledger, cache) = infra();
            let sched = ReleaseScheduler::new(
                SchedulerConfig::new(ReleasePolicy::EveryKMutations(3)).with_seed(42),
                registry,
                ledger,
                cache,
            );
            let tenant = TenantId::new("acme");
            let mut s = grow_stream("g", 2);
            let mut values = Vec::new();
            for i in 0..9u64 {
                s.apply(&Mutation::insert(50 + i, 20 + i as usize, 21 + i as usize))
                    .unwrap();
                if let Some(r) = sched.observe(&mut s, &tenant).unwrap() {
                    values.push((r.version, r.value.to_bits()));
                }
            }
            values
        };
        let a = run();
        assert!(!a.is_empty());
        assert_eq!(a, run(), "seeded schedulers must replay exactly");
    }
}
