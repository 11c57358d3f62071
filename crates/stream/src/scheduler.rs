//! Policy-driven continual re-estimation of evolving graphs.
//!
//! A stream mutating forever is only useful to tenants if someone decides
//! *when* a fresh differentially private release is worth its ε. The
//! [`ReleaseScheduler`] is that decision point: it watches streams through
//! [`observe`](ReleaseScheduler::observe), fires by [`ReleasePolicy`] (every
//! k mutations or on demand), and when it fires it runs one more serving
//! request — Algorithm 1 on an immutable snapshot, through the same
//! [`Server`] worker pool as every wire request:
//!
//! 1. freeze the stream into a versioned [`GraphSnapshot`] (one CSR arena)
//!    and publish that arena to the server's version-aware
//!    [`GraphRegistry`](ccdp_serve::GraphRegistry)
//!    (a typed [`VersionExists`](ccdp_serve::ServeError::VersionExists)
//!    refusal if the version was somehow already taken — snapshots are never
//!    overwritten),
//! 2. submit a request pinned to that exact `(id, version)` and wait for it:
//!    the worker charges the tenant's
//!    [`BudgetLedger`](ccdp_serve::BudgetLedger) account and estimates on the
//!    registry-resolved arena, with cache lookups tagged by the same pair,
//! 3. bulk-invalidate the superseded versions' extension families from the
//!    server's family cache and expire stale registry snapshots beyond the
//!    configured retention,
//! 4. return the [`ReleaseRecord`].
//!
//! # Budget semantics
//!
//! Every fired release spends [`SchedulerConfig::epsilon_per_release`] from
//! the tenant's quota under the ledger's atomic check-and-spend, with the
//! ledger stage named by the graph id. A refusal that comes before the
//! charge — queue backpressure, an exhausted or unknown tenant, a malformed
//! ε, an unresolvable snapshot — unpublishes the snapshot and leaves the
//! policy where it was; only the stream's version number is burned
//! (versions never recycle). The registry history is then exactly as before,
//! because the scheduler retains fewer versions than the registry's bound
//! (see [`SchedulerConfig::retain_versions`]). Spent ε is never refunded if
//! estimation later fails — accounting only ever over-counts a tenant's
//! exposure. Releases
//! about *different snapshots of one graph* still compose sequentially
//! against the same quota: node-DP composition is per tenant, not per
//! version.
//!
//! # Fire decisions
//!
//! Whether a release fires reads only the stream's mutation count or the
//! caller, never the graph. The fire pattern is visible (the audit journal's
//! `scheduler_fire` events, the tenant's ledger charges,
//! `ccdp_stream_releases_total`), so a trigger that tested the private graph
//! would leak through it outside the ε accounting.
//!
//! The noise seed and any Δmax override are the server's
//! ([`ServeConfig`](ccdp_serve::ServeConfig)): a stream release draws from
//! the same per-request RNG derivation as any other request.

use crate::error::StreamError;
use crate::stream::{GraphSnapshot, GraphStream};
use ccdp_graph::GraphVersion;
use ccdp_obs::{AuditEvent, AuditKind, Counter};
use ccdp_serve::registry::DEFAULT_VERSION_RETENTION;
use ccdp_serve::{GraphId, ServeError, ServeRequest, Server, TenantId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// When the scheduler fires a fresh release for a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReleasePolicy {
    /// After every `k` accepted mutations since the last release (`k ≥ 1`;
    /// the first observation of a stream always fires a baseline release).
    EveryKMutations(u64),
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
    /// How many registry snapshots the *scheduler* retains per graph (at
    /// least 1: 0 keeps only the newest). Older versions are expired right
    /// after a new one is released. The value is capped one below the
    /// registry's own bound ([`DEFAULT_VERSION_RETENTION`]), so the next
    /// publish never makes the registry expire a version: a refused release
    /// that unpublishes its snapshot then leaves the history exactly as it
    /// found it.
    pub retain_versions: usize,
}

impl SchedulerConfig {
    /// A config with the given policy, ε = 0.5 per release and a 4-version registry retention.
    pub fn new(policy: ReleasePolicy) -> Self {
        SchedulerConfig {
            policy,
            epsilon_per_release: 0.5,
            retain_versions: 4,
        }
    }

    /// Sets the ε charged per release.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon_per_release = epsilon;
        self
    }

    /// Sets the per-graph registry retention (clamped to
    /// `1..DEFAULT_VERSION_RETENTION` when applied).
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
    /// [`ReleaseScheduler::release_now`] was called.
    Demand,
}

impl ReleaseTrigger {
    /// Stable snake_case name (audit-event detail field).
    pub fn name(self) -> &'static str {
        match self {
            ReleaseTrigger::Baseline => "baseline",
            ReleaseTrigger::Mutations => "mutations",
            ReleaseTrigger::Demand => "demand",
        }
    }
}

/// One fired release.
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

/// The continual-release engine over a serving [`Server`].
pub struct ReleaseScheduler {
    config: SchedulerConfig,
    server: Arc<Server>,
    /// Per stream: the mutation count at its last release.
    state: Mutex<HashMap<GraphId, u64>>,
    /// Successful releases: the server's `ccdp_stream_releases_total`.
    releases_total: Counter,
}

impl ReleaseScheduler {
    /// A scheduler whose fired releases run through `server`'s worker pool:
    /// the published snapshot is estimated by the same workers, admitted by
    /// the same bounded queue and charged by the same ledger admission path
    /// as every wire request, and its extension family lands in the pool's
    /// shared cache. Registry, ledger, cache and audit journal are the
    /// server's, so they are shared by construction.
    ///
    /// Queue backpressure surfaces as [`ServeError::QueueFull`]: the release
    /// is refused, the just-published snapshot is unpublished and no budget
    /// is charged (the charge lives inside the worker, past admission). The
    /// stream's version number is burned; versions never recycle.
    pub fn with_server(config: SchedulerConfig, server: Arc<Server>) -> Self {
        let releases_total = server.metrics().counter("ccdp_stream_releases_total");
        ReleaseScheduler {
            config,
            server,
            state: Mutex::new(HashMap::new()),
            releases_total,
        }
    }

    /// Checks the policy against `stream` and, if it fires, runs the full
    /// release pipeline charged to `tenant`. `Ok(None)` means the policy did
    /// not fire — the common case on the mutation hot path.
    pub fn observe(
        &self,
        stream: &mut GraphStream,
        tenant: &TenantId,
    ) -> Result<Option<ReleaseRecord>, StreamError> {
        let prior = self.lock_state().get(stream.id()).copied();
        let trigger = match (self.config.policy, prior) {
            // On-demand streams only release through `release_now`.
            (ReleasePolicy::OnDemand, _) => None,
            // The automatic policies fire a baseline on first sight.
            (_, None) => Some(ReleaseTrigger::Baseline),
            (ReleasePolicy::EveryKMutations(k), Some(at_last)) => {
                // Saturating: a stream rebuilt under a previously seen id can
                // report fewer mutations than the recorded state — that must
                // read as "nothing elapsed", not an underflow.
                let elapsed = stream.stats().mutations_applied.saturating_sub(at_last);
                (elapsed >= k.max(1)).then_some(ReleaseTrigger::Mutations)
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

    /// Number of successful stream releases on this scheduler's server (the
    /// `ccdp_stream_releases_total` counter, shared by every scheduler over
    /// the same server).
    pub fn releases(&self) -> usize {
        self.releases_total.get() as usize
    }

    /// The pipeline: snapshot → publish → submit → await → invalidate/expire
    /// → record. Publication must precede submission (a worker can only serve
    /// what the registry resolves), so a refusal before the worker's charge
    /// rolls the publish back: it leaves no resolvable snapshot, no charge
    /// and an unadvanced policy.
    fn release(
        &self,
        stream: &mut GraphStream,
        tenant: &TenantId,
        trigger: ReleaseTrigger,
    ) -> Result<ReleaseRecord, StreamError> {
        let registry = self.server.registry();
        let id = stream.id().clone();
        let snapshot = stream.snapshot();
        let version = snapshot.version();
        // The fire *decision* is journaled first: a refused release still
        // shows up as "the policy fired here", followed by the refusal's own
        // event — the audit stream explains both what was attempted and why
        // nothing changed.
        self.server.journal().record(
            AuditEvent::new(AuditKind::SchedulerFire)
                .tenant(tenant.as_str())
                .graph(id.as_str(), Some(version.value()))
                .epsilon(self.config.epsilon_per_release, 0.0)
                .detail(trigger.name()),
        );
        registry.insert_version(id.clone(), version, Arc::clone(snapshot.graph()))?;

        // Pin the exact published version: the worker provably estimates the
        // snapshot this release names, never "latest at dequeue time".
        let request =
            ServeRequest::new(tenant.clone(), id.clone(), self.config.epsilon_per_release)
                .at_version(version);
        let result = self
            .server
            .submit(request)
            .and_then(|pending| pending.wait().result);
        let release = match result {
            Ok(release) => release,
            Err(failure @ ServeError::Estimator(_)) => {
                // Only the estimator runs past the worker's charge, and spent
                // ε is never refunded: advance the policy state, so a
                // pathological graph drains at most one charge per policy
                // period. The charged snapshot stays published, so the
                // history is trimmed as after a release.
                self.mark_released(&id, &snapshot);
                registry.retain_latest(&id, self.retention());
                return Err(failure.into());
            }
            Err(refusal) => {
                // Every other refusal comes before the charge: unpublish the
                // unfunded snapshot so shared state is as before; only the
                // stream's version number is burned.
                registry.remove_version(&id, version);
                return Err(refusal.into());
            }
        };
        self.mark_released(&id, &snapshot);
        // Superseded versions can never be served again: drop their cached
        // families in bulk and expire their registry snapshots beyond the
        // retention window.
        let invalidated = self
            .server
            .cache()
            .invalidate_versions_below(id.as_str(), version);
        let expired = registry.retain_latest(&id, self.retention());
        if invalidated > 0 || expired > 0 {
            self.server.journal().record(
                AuditEvent::new(AuditKind::CacheInvalidation)
                    .tenant(tenant.as_str())
                    .graph(id.as_str(), Some(version.value()))
                    .detail(format!(
                        "{invalidated} cached families invalidated, {expired} snapshots expired"
                    )),
            );
        }
        self.releases_total.inc();
        Ok(ReleaseRecord {
            graph: id,
            version,
            tenant: tenant.clone(),
            epsilon: self.config.epsilon_per_release,
            value: release.value(),
            true_components: snapshot.num_components(),
            time: snapshot.time(),
            mutations_applied: snapshot.mutations_applied(),
            trigger,
        })
    }

    /// The retention the scheduler applies: `retain_versions` capped one
    /// below the registry's bound, so a publish on top of the retained
    /// history expires nothing and a refusal's unpublish restores it.
    fn retention(&self) -> usize {
        self.config
            .retain_versions
            .min(DEFAULT_VERSION_RETENTION - 1)
    }

    /// Advances the per-stream policy state to `snapshot`.
    fn mark_released(&self, id: &GraphId, snapshot: &GraphSnapshot) {
        self.lock_state()
            .insert(id.clone(), snapshot.mutations_applied());
    }

    fn lock_state(&self) -> MutexGuard<'_, HashMap<GraphId, u64>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
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
    use ccdp_serve::{BudgetLedger, GraphRegistry, ServeConfig};

    /// A 2-worker server over a fresh registry, with tenant `acme` funded.
    fn server() -> Arc<Server> {
        let ledger = Arc::new(BudgetLedger::new());
        ledger.register("acme", 100.0).unwrap();
        Arc::new(Server::start(
            ServeConfig::new().with_workers(2),
            Arc::new(GraphRegistry::new()),
            ledger,
        ))
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
        let server = server();
        let sched = ReleaseScheduler::with_server(
            SchedulerConfig::new(ReleasePolicy::EveryKMutations(4)).with_epsilon(0.5),
            Arc::clone(&server),
        );
        let tenant = TenantId::new("acme");
        let mut s = grow_stream("g", 2);
        // First observation: baseline release at v0.
        let first = sched.observe(&mut s, &tenant).unwrap().unwrap();
        assert_eq!(first.trigger, ReleaseTrigger::Baseline);
        assert_eq!(first.version, GraphVersion::INITIAL);
        // Two more mutations: not yet.
        s.apply(&Mutation::insert(10, 3, 4)).unwrap();
        s.apply(&Mutation::insert(11, 4, 5)).unwrap();
        assert!(sched.observe(&mut s, &tenant).unwrap().is_none());
        // Two more reach k = 4.
        s.apply(&Mutation::insert(12, 5, 6)).unwrap();
        s.apply(&Mutation::insert(13, 6, 7)).unwrap();
        let second = sched.observe(&mut s, &tenant).unwrap().unwrap();
        assert_eq!(second.trigger, ReleaseTrigger::Mutations);
        assert_eq!(second.version, GraphVersion::new(1));
        assert_eq!(sched.releases(), 2);
        // Both snapshots live in the registry.
        assert_eq!(server.registry().num_versions(), 2);

        // The fire decision reads only the mutation count. A second stream,
        // {0, 1, 2} and {3, 4}, takes four mutations that move its component
        // count differently from the first stream's four (+1, 0, 0, 0): a
        // merge (−1) and three edges inside a component (0). It fires at the
        // same observations with the same triggers and versions.
        let mut t = grow_stream("h", 2);
        t.apply(&Mutation::insert(3, 3, 4)).unwrap();
        assert_eq!(t.graph().num_connected_components(), 2);
        let first = sched.observe(&mut t, &tenant).unwrap().unwrap();
        assert_eq!(
            (first.trigger, first.version),
            (ReleaseTrigger::Baseline, GraphVersion::INITIAL)
        );
        t.apply(&Mutation::insert(10, 2, 3)).unwrap();
        t.apply(&Mutation::insert(11, 0, 2)).unwrap();
        assert_eq!(t.graph().num_connected_components(), 1);
        assert!(sched.observe(&mut t, &tenant).unwrap().is_none());
        t.apply(&Mutation::insert(12, 1, 3)).unwrap();
        t.apply(&Mutation::insert(13, 0, 4)).unwrap();
        assert_eq!(t.graph().num_connected_components(), 1);
        let second = sched.observe(&mut t, &tenant).unwrap().unwrap();
        assert_eq!(
            (second.trigger, second.version),
            (ReleaseTrigger::Mutations, GraphVersion::new(1))
        );
        assert_eq!(sched.releases(), 4);
    }

    #[test]
    fn on_demand_only_fires_when_asked() {
        let sched =
            ReleaseScheduler::with_server(SchedulerConfig::new(ReleasePolicy::OnDemand), server());
        let tenant = TenantId::new("acme");
        let mut s = grow_stream("g", 5);
        assert!(sched.observe(&mut s, &tenant).unwrap().is_none());
        let r = sched.release_now(&mut s, &tenant).unwrap();
        assert_eq!(r.trigger, ReleaseTrigger::Demand);
        assert_eq!(sched.releases(), 1);
    }

    #[test]
    fn budget_exhaustion_is_a_typed_refusal_and_spends_nothing_more() {
        let server = server();
        let ledger = Arc::clone(server.ledger());
        ledger.register("poor", 0.6).unwrap();
        let sched = ReleaseScheduler::with_server(
            SchedulerConfig::new(ReleasePolicy::OnDemand).with_epsilon(0.5),
            server,
        );
        let tenant = TenantId::new("poor");
        let mut s = grow_stream("g", 4);
        sched.release_now(&mut s, &tenant).unwrap();
        let err = sched.release_now(&mut s, &tenant).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Serve(ServeError::BudgetExhausted { .. })
        ));
        // The refusal charged nothing and counted no release.
        assert_eq!(sched.releases(), 1);
        let view = ledger.account_view(&tenant).unwrap();
        assert!((view.spent_epsilon - 0.5).abs() < 1e-12);
        // The ledger audit trail names the one funded release.
        assert_eq!(view.grants, 1);
    }

    #[test]
    fn refused_releases_leave_all_shared_state_untouched() {
        // A refused release may not charge, leave an unfunded snapshot
        // published, invalidate cached families, expire registry history or
        // count as a release. (Its stream version number is burned.)
        let server = server();
        let ledger = Arc::clone(server.ledger());
        ledger.register("poor", 0.5).unwrap();
        let sched = ReleaseScheduler::with_server(
            SchedulerConfig::new(ReleasePolicy::OnDemand)
                .with_epsilon(0.5)
                .with_retain_versions(2),
            Arc::clone(&server),
        );
        let tenant = TenantId::new("poor");
        let mut s = grow_stream("g", 4);
        sched.release_now(&mut s, &tenant).unwrap();
        let id = GraphId::new("g");
        let versions_before = server.registry().versions(&id);
        let cache_before = server.cache_stats();
        let charges_before = ledger.charges();
        for _ in 0..3 {
            let err = sched.release_now(&mut s, &tenant).unwrap_err();
            assert!(matches!(
                err,
                StreamError::Serve(ServeError::BudgetExhausted { .. })
            ));
        }
        assert_eq!(ledger.charges(), charges_before, "refusals never charge");
        assert_eq!(server.registry().versions(&id), versions_before);
        assert_eq!(server.cache_stats(), cache_before);
        assert_eq!(sched.releases(), 1);
    }

    #[test]
    fn a_refusal_at_full_registry_retention_keeps_every_snapshot() {
        // Regression: at a retention of DEFAULT_VERSION_RETENTION the refused
        // release's publish expired the oldest snapshot, and its unpublish
        // then left one version fewer than before.
        let server = server();
        let ledger = Arc::clone(server.ledger());
        let per_release = 0.5;
        ledger
            .register("eight", per_release * DEFAULT_VERSION_RETENTION as f64)
            .unwrap();
        let sched = ReleaseScheduler::with_server(
            SchedulerConfig::new(ReleasePolicy::OnDemand)
                .with_epsilon(per_release)
                .with_retain_versions(DEFAULT_VERSION_RETENTION),
            Arc::clone(&server),
        );
        let tenant = TenantId::new("eight");
        let mut s = grow_stream("g", 3);
        for i in 0..DEFAULT_VERSION_RETENTION {
            sched.release_now(&mut s, &tenant).unwrap();
            s.apply(&Mutation::insert(100 + i as u64, 10 + i, 11 + i))
                .unwrap();
        }
        let id = GraphId::new("g");
        let versions_before = server.registry().versions(&id);
        let err = sched.release_now(&mut s, &tenant).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Serve(ServeError::BudgetExhausted { .. })
        ));
        assert_eq!(server.registry().versions(&id), versions_before);
        // The scheduler keeps one version fewer than the registry's bound.
        assert_eq!(versions_before.len(), DEFAULT_VERSION_RETENTION - 1);
    }

    #[test]
    fn true_components_follow_deletions_that_split_a_component() {
        // The record's count is read off the released arena: deletions
        // that split the path must show in the next release's count.
        let sched = ReleaseScheduler::with_server(
            SchedulerConfig::new(ReleasePolicy::OnDemand).with_epsilon(0.25),
            server(),
        );
        let tenant = TenantId::new("acme");
        let mut s = grow_stream("g", 5);
        let (mut counts, mut expected) = (Vec::new(), Vec::new());
        for deleted in [None, Some((1, 2)), Some((3, 4)), Some((0, 1))] {
            if let Some((u, v)) = deleted {
                let time = 10 + counts.len() as u64;
                assert!(s.apply(&Mutation::delete(time, u, v)).unwrap());
            }
            let record = sched.release_now(&mut s, &tenant).unwrap();
            counts.push(record.true_components);
            expected.push(ccdp_graph::components::num_connected_components(s.graph()));
        }
        assert_eq!(counts, vec![1, 2, 3, 4]);
        assert_eq!(counts, expected);
        assert_eq!(s.stats().rebuilds, 0, "a snapshot never recounts");
    }

    #[test]
    fn pre_charge_refusals_roll_the_release_back() {
        // Regression: every refusal that comes before the worker's ledger
        // charge (not only BudgetExhausted and queue backpressure) must
        // unpublish the snapshot and leave the policy unadvanced — an
        // unknown tenant used to keep an unfunded snapshot published and
        // silence the next observe().
        let cases: [(&str, &str, f64); 4] = [
            ("queue_full", "acme", 0.5),
            ("budget_exhausted", "poor", 0.5),
            ("unknown_tenant", "ghost", 0.5),
            ("invalid_epsilon", "acme", -1.0),
        ];
        for (case, tenant, epsilon) in cases {
            // A slow graph occupies the lone worker long enough for the
            // 1-slot queue to stay full behind it.
            let registry = Arc::new(GraphRegistry::new());
            registry.insert("slow", ccdp_graph::generators::caveman(6, 6));
            let ledger = Arc::new(BudgetLedger::new());
            ledger.register("filler", 1e6).unwrap();
            ledger.register("acme", 100.0).unwrap();
            ledger.register("poor", 0.1).unwrap();
            let server = Arc::new(Server::start(
                ServeConfig::new().with_workers(1).with_queue_capacity(1),
                registry,
                Arc::clone(&ledger),
            ));
            let sched = ReleaseScheduler::with_server(
                SchedulerConfig::new(ReleasePolicy::EveryKMutations(2)).with_epsilon(epsilon),
                Arc::clone(&server),
            );
            let tenant = TenantId::new(tenant);
            let grants = || ledger.account_view(&tenant).map_or(0, |a| a.grants);
            let mut fillers = Vec::new();
            let mut refused = None;
            // Only the queue-full case can lose a race (the lone worker may
            // drain the queue first); each attempt uses a fresh stream.
            for attempt in 0..20 {
                let mut s = grow_stream(&format!("g{attempt}"), 2);
                // Saturate the pool: submit filler work until the bounded
                // queue pushes back.
                if case == "queue_full" {
                    loop {
                        match server.submit(ServeRequest::new("filler", "slow", 0.001)) {
                            Ok(p) => fillers.push(p),
                            Err(ServeError::QueueFull { .. }) => break,
                            Err(other) => panic!("unexpected filler refusal: {other:?}"),
                        }
                    }
                }
                let (grants_before, releases_before) = (grants(), sched.releases());
                match sched.observe(&mut s, &tenant) {
                    Err(StreamError::Serve(err)) => {
                        refused = Some((s.id().clone(), err, grants_before, releases_before));
                        break;
                    }
                    Ok(Some(_)) if case == "queue_full" => continue,
                    other => panic!("{case}: expected a refusal, got {other:?}"),
                }
            }
            let (id, err, grants_before, releases_before) =
                refused.unwrap_or_else(|| panic!("{case}: never refused"));
            let expected = match case {
                "queue_full" => matches!(err, ServeError::QueueFull { capacity: 1 }),
                "budget_exhausted" => matches!(err, ServeError::BudgetExhausted { .. }),
                "unknown_tenant" => matches!(err, ServeError::UnknownTenant { .. }),
                _ => matches!(err, ServeError::InvalidEpsilon { .. }),
            };
            assert!(expected, "{case}: unexpected refusal {err:?}");
            assert_eq!(
                grants(),
                grants_before,
                "{case}: a refusal must charge nothing"
            );
            assert!(
                server
                    .registry()
                    .resolve_arena(&id, Some(GraphVersion::INITIAL))
                    .is_err(),
                "{case}: the refused snapshot must not stay resolvable"
            );
            assert!(
                !sched.lock_state().contains_key(&id),
                "{case}: a refusal must not advance the policy"
            );
            assert_eq!(sched.releases(), releases_before, "{case}");
        }
    }

    #[test]
    fn superseded_versions_are_invalidated_and_expired() {
        // A retention of 0 clamps to 1: only the newest version stays.
        for (retain, kept) in [(2, 2), (0, 1)] {
            let server = server();
            let sched = ReleaseScheduler::with_server(
                SchedulerConfig::new(ReleasePolicy::OnDemand)
                    .with_epsilon(0.25)
                    .with_retain_versions(retain),
                Arc::clone(&server),
            );
            let tenant = TenantId::new("acme");
            let mut s = grow_stream("g", 3);
            for i in 0..5 {
                sched.release_now(&mut s, &tenant).unwrap();
                s.apply(&Mutation::insert(100 + i, 10 + i as usize, 11 + i as usize))
                    .unwrap();
            }
            // Registry retains only the `kept` newest versions.
            let id = GraphId::new("g");
            assert_eq!(server.registry().versions(&id).len(), kept, "{retain}");
            assert_eq!(
                server.registry().latest_version(&id),
                Some(GraphVersion::new(4))
            );
            // Every release evaluated its own version's family: 5 misses, no
            // cross-version replay, and superseded entries were invalidated.
            let stats = server.cache_stats();
            assert_eq!(stats.misses, 5);
            assert_eq!(stats.hits, 0);
            assert!(stats.invalidations >= 4, "{stats:?}");
        }
    }

    #[test]
    fn releases_share_the_servers_cache_ledger_and_stats() {
        let server = server();
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
        let snap = server.metrics().snapshot();
        assert_eq!(snap.value("ccdp_serve_completed_total"), Some(2.0));
        assert_eq!(server.cache_stats().misses, 2);
        let view = server.ledger().account_view(&tenant).unwrap();
        assert!((view.spent_epsilon - 1.0).abs() < 1e-12);
        assert_eq!(sched.releases(), 2);
        assert_eq!(server.registry().versions(&GraphId::new("g")).len(), 2);
        assert_eq!(
            server
                .metrics()
                .snapshot()
                .value("ccdp_stream_releases_total"),
            Some(2.0)
        );
    }

    #[test]
    fn scheduler_decisions_land_in_the_audit_journal() {
        let server = server();
        let ledger = Arc::clone(server.ledger());
        ledger.register("poor", 0.6).unwrap();
        let journal = Arc::clone(server.journal());
        let sched = ReleaseScheduler::with_server(
            SchedulerConfig::new(ReleasePolicy::OnDemand)
                .with_epsilon(0.5)
                .with_retain_versions(1),
            server,
        );
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
        // Replay reconstructs both accounts exactly from the journal.
        assert_eq!(ledger.verify_replay(&journal), Ok(2));
    }

    #[test]
    fn superseding_releases_journal_their_invalidations() {
        let server = server();
        let journal = Arc::clone(server.journal());
        let sched = ReleaseScheduler::with_server(
            SchedulerConfig::new(ReleasePolicy::OnDemand)
                .with_epsilon(0.1)
                .with_retain_versions(1),
            server,
        );
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
            let ledger = Arc::new(BudgetLedger::new());
            ledger.register("acme", 100.0).unwrap();
            let server = Arc::new(Server::start(
                ServeConfig::new().with_workers(2).with_seed(42),
                Arc::new(GraphRegistry::new()),
                ledger,
            ));
            let sched = ReleaseScheduler::with_server(
                SchedulerConfig::new(ReleasePolicy::EveryKMutations(3)),
                server,
            );
            let tenant = TenantId::new("acme");
            let mut s = grow_stream("g", 2);
            let mut values = Vec::new();
            for i in 0..9u64 {
                s.apply(&Mutation::insert(50 + i, 20 + i as usize, 21 + i as usize))
                    .unwrap();
                if let Some(r) = sched.observe(&mut s, &tenant).unwrap() {
                    values.push((r.version.value(), r.value.to_bits()));
                }
            }
            values
        };
        let a = run();
        assert_eq!(a, run(), "seeded schedulers must replay exactly");
        // Pinned bits: the server's per-request RNG derivation (seed 42,
        // request ids in submission order) fixes them, so a change here
        // means the same stream now releases different values.
        assert_eq!(
            a,
            vec![
                (0, 0x4009_1f0c_b435_c498),
                (1, 0x4039_7d90_eebe_f376),
                (2, 0x4039_dab2_b086_b8b0),
            ]
        );
    }
}
