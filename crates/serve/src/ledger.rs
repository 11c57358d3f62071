//! Per-tenant privacy-budget accounting for the serving tier.
//!
//! Differential privacy composes: every ε-release a tenant receives adds to
//! the total ε spent on their behalf, so a server answering many requests
//! must meter each tenant against a quota *centrally* — per-request checks in
//! client code cannot see each other. [`BudgetLedger`] wraps one
//! [`PrivacyBudget`] accountant per tenant behind a per-tenant mutex:
//! admission is an atomic check-and-spend, so no interleaving of concurrent
//! requests can push a tenant past its quota (overspending is a typed
//! [`ServeError::BudgetExhausted`] refusal, never a silent grant).
//!
//! # Continual releases (the streaming tier)
//!
//! The `ccdp_stream` release scheduler charges this same ledger: every fired
//! re-estimation of an evolving graph spends its ε here *before* the
//! estimator runs, under the identical check-and-spend, with the ledger
//! stage named `graph-id@version` so a tenant's account reads as a versioned
//! audit trail of which snapshot each grant funded. Releases about
//! *different versions of one graph* still compose sequentially against the
//! tenant's single quota — node-DP composition is per tenant, not per
//! snapshot — and an exhausted quota stops that tenant's releases (typed
//! refusal) while ingestion and other tenants continue untouched.

use crate::error::ServeError;
use ccdp_dp::PrivacyBudget;
use ccdp_obs::{
    replay_tenant, AuditEvent, AuditJournal, AuditKind, Counter, FloatCounter, Gauge,
    MetricsRegistry, TraceId,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

pub use crate::ids::TenantId;

/// Point-in-time view of one tenant's account.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantAccount {
    /// The tenant.
    pub tenant: TenantId,
    /// The tenant's total ε quota.
    pub quota_epsilon: f64,
    /// ε spent so far.
    pub spent_epsilon: f64,
    /// ε still available.
    pub remaining_epsilon: f64,
    /// Number of granted spends.
    pub grants: usize,
}

/// One tenant's full auditable state: everything the audit journal must
/// be able to reconstruct (compared bit-for-bit by
/// [`BudgetLedger::verify_replay`]).
#[derive(Clone, Debug, PartialEq)]
pub struct TenantAuditSnapshot {
    /// The tenant.
    pub tenant: TenantId,
    /// The tenant's total ε quota.
    pub quota_epsilon: f64,
    /// ε spent so far (the accountant's exact running sum).
    pub spent_epsilon: f64,
    /// Quota utilization in `[0, 1]` (the accountant's exact expression).
    pub utilization: f64,
    /// Granted spends.
    pub charges: u64,
    /// Refused spends (exhausted quota; malformed requests don't count).
    pub refusals: u64,
    /// One `(stage, ε)` entry per grant, in grant order.
    pub stages: Vec<(String, f64)>,
}

/// Per-tenant ledger state: the accountant, the refusal tally, and the
/// tenant's labeled metric series (created when metrics are published).
#[derive(Debug)]
struct TenantEntry {
    budget: Mutex<PrivacyBudget>,
    refusals: AtomicU64,
    series: OnceLock<TenantSeries>,
}

/// The per-tenant labeled series in the unified registry.
#[derive(Debug)]
struct TenantSeries {
    /// `ccdp_serve_budget_spent_total{tenant=...}`.
    spent: FloatCounter,
    /// `ccdp_serve_budget_utilization_ppm{tenant=...}` (parts-per-million,
    /// integer-encoded so a gauge can carry it).
    utilization_ppm: Gauge,
}

/// A thread-safe map from tenant to privacy-budget accountant.
///
/// The tenant map is guarded by an `RwLock` (registration is rare, spending
/// is hot), and each tenant's [`PrivacyBudget`] sits behind its own `Mutex`,
/// so tenants never contend with each other on the spend path.
///
/// # Audit journal
///
/// With a journal attached ([`set_journal`](Self::set_journal)), every
/// decision this ledger makes is recorded as a typed [`AuditEvent`]
/// *inside the tenant's lock*: registrations (carrying the quota), grants
/// (carrying the granted ε and the request's [`TraceId`]) and
/// exhausted-quota refusals. Because the events are emitted under the same
/// lock that orders the spends, one tenant's journal is a linearization of
/// their account history — replaying it with [`ccdp_obs::replay_tenant`]
/// reconstructs the accountant bit-for-bit
/// ([`verify_replay`](Self::verify_replay) checks exactly that, and the
/// serve tier's property tests drive it under concurrent load).
#[derive(Debug)]
pub struct BudgetLedger {
    tenants: RwLock<HashMap<TenantId, Arc<TenantEntry>>>,
    /// Granted spends across all tenants (detached until
    /// [`publish_metrics`](Self::publish_metrics) adopts it into a registry).
    charges: Counter,
    /// Spends refused for an exhausted quota.
    refusals: Counter,
    /// Total ε granted across all tenants.
    epsilon_spent: FloatCounter,
    /// The audit journal decisions are recorded into, once attached.
    journal: RwLock<Option<Arc<AuditJournal>>>,
    /// The registry per-tenant labeled series are created in, once shared.
    metrics: RwLock<Option<Arc<MetricsRegistry>>>,
}

impl Default for BudgetLedger {
    fn default() -> Self {
        BudgetLedger {
            tenants: RwLock::new(HashMap::new()),
            charges: Counter::detached(),
            refusals: Counter::detached(),
            epsilon_spent: FloatCounter::detached(),
            journal: RwLock::new(None),
            metrics: RwLock::new(None),
        }
    }
}

impl BudgetLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the ledger's counters in `registry` as the
    /// `ccdp_dp_budget_*` island. The ledger is typically constructed before
    /// any registry exists, so the counters start detached and are *adopted*
    /// here — grants recorded before publication stay visible in the scrape.
    pub fn publish_metrics(&self, registry: &MetricsRegistry) {
        registry.adopt_counter("ccdp_dp_budget_charges_total", &self.charges);
        registry.adopt_counter("ccdp_dp_budget_refusals_total", &self.refusals);
        registry.adopt_float_counter("ccdp_dp_budget_epsilon_spent_total", &self.epsilon_spent);
    }

    /// [`publish_metrics`](Self::publish_metrics), plus per-tenant labeled
    /// series: keeps the registry handle so every current *and future*
    /// tenant gets `ccdp_serve_budget_spent_total{tenant=...}` (granted ε)
    /// and `ccdp_serve_budget_utilization_ppm{tenant=...}` (quota
    /// utilization in parts-per-million).
    pub fn publish_metrics_shared(&self, registry: &Arc<MetricsRegistry>) {
        self.publish_metrics(registry);
        *self.metrics.write().unwrap_or_else(|p| p.into_inner()) = Some(Arc::clone(registry));
        for (tenant, entry) in self.read().iter() {
            Self::ensure_series(registry, tenant, entry);
            if let Some(series) = entry.series.get() {
                // Backfill spends recorded before publication so the scrape
                // agrees with the account view from the first scrape on.
                let budget = entry.budget.lock().unwrap_or_else(|p| p.into_inner());
                let already = series.spent.get();
                series.spent.add(budget.spent_epsilon() - already);
                series
                    .utilization_ppm
                    .set((budget.utilization() * 1e6) as i64);
            }
        }
    }

    /// Attaches the audit journal every subsequent ledger decision is
    /// recorded into.
    ///
    /// Accounts that already exist are *checkpointed* into the journal
    /// first — one `tenant_registered` event carrying the quota, one
    /// `budget_charge` per already-granted stage (in grant order) and one
    /// `budget_refusal` per past refusal — so replaying the journal
    /// reconstructs every account exactly even when the journal arrives
    /// after traffic (the seed path for attaching a replica mid-flight).
    pub fn set_journal(&self, journal: Arc<AuditJournal>) {
        for (tenant, entry) in self.read().iter() {
            let budget = entry.budget.lock().unwrap_or_else(|p| p.into_inner());
            journal.record(
                AuditEvent::new(AuditKind::TenantRegistered)
                    .tenant(tenant.as_str())
                    .epsilon(budget.total_epsilon(), 0.0)
                    .detail("checkpoint: account predates journal"),
            );
            for (stage, granted) in budget.ledger() {
                let (graph, version) = split_stage(stage);
                journal.record(
                    AuditEvent::new(AuditKind::BudgetCharge)
                        .tenant(tenant.as_str())
                        .graph(graph, version)
                        .stage(stage.as_str())
                        .epsilon(*granted, *granted)
                        .detail("checkpoint: grant predates journal"),
                );
            }
            for _ in 0..entry.refusals.load(Ordering::Relaxed) {
                journal.record(
                    AuditEvent::new(AuditKind::BudgetRefusal)
                        .tenant(tenant.as_str())
                        .epsilon(0.0, 0.0)
                        .detail("checkpoint: refusal predates journal"),
                );
            }
        }
        *self.journal.write().unwrap_or_else(|p| p.into_inner()) = Some(journal);
    }

    /// The attached audit journal, if any.
    pub fn journal(&self) -> Option<Arc<AuditJournal>> {
        self.journal
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Creates (idempotently) the tenant's labeled series in `registry`.
    fn ensure_series(registry: &MetricsRegistry, tenant: &TenantId, entry: &TenantEntry) {
        let _ = entry.series.set(TenantSeries {
            spent: registry.float_counter_with(
                "ccdp_serve_budget_spent_total",
                &[("tenant", tenant.as_str())],
            ),
            utilization_ppm: registry.gauge_with(
                "ccdp_serve_budget_utilization_ppm",
                &[("tenant", tenant.as_str())],
            ),
        });
    }

    /// Granted spends across all tenants so far.
    pub fn charges(&self) -> u64 {
        self.charges.get()
    }

    /// Spends refused for an exhausted quota so far.
    pub fn refusals(&self) -> u64 {
        self.refusals.get()
    }

    /// Total ε granted across all tenants so far.
    pub fn epsilon_spent(&self) -> f64 {
        self.epsilon_spent.get()
    }

    /// Registers `tenant` with a total ε quota.
    ///
    /// # Errors
    /// [`ServeError::TenantAlreadyRegistered`] if the tenant exists (quotas
    /// are immutable once granted — re-registering cannot launder a spent
    /// budget).
    ///
    /// # Panics
    /// Panics if `quota_epsilon` is not strictly positive and finite (same
    /// contract as [`PrivacyBudget::new`]).
    pub fn register(
        &self,
        tenant: impl Into<TenantId>,
        quota_epsilon: f64,
    ) -> Result<(), ServeError> {
        let tenant = tenant.into();
        let entry = Arc::new(TenantEntry {
            budget: Mutex::new(PrivacyBudget::new(quota_epsilon)),
            refusals: AtomicU64::new(0),
            series: OnceLock::new(),
        });
        {
            let mut map = self.write();
            if map.contains_key(&tenant) {
                return Err(ServeError::TenantAlreadyRegistered { tenant });
            }
            map.insert(tenant.clone(), Arc::clone(&entry));
        }
        if let Some(registry) = self
            .metrics
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .as_ref()
        {
            Self::ensure_series(registry, &tenant, &entry);
        }
        if let Some(journal) = self.journal() {
            journal.record(
                AuditEvent::new(AuditKind::TenantRegistered)
                    .tenant(tenant.as_str())
                    .epsilon(quota_epsilon, 0.0)
                    .detail("quota granted"),
            );
        }
        Ok(())
    }

    /// Atomically spends `epsilon` of `tenant`'s quota for `stage`.
    ///
    /// This is the single admission point of the serving tier: the check and
    /// the spend happen under the tenant's lock, so concurrent requests can
    /// never jointly overdraw the quota.
    pub fn try_spend(
        &self,
        tenant: &TenantId,
        stage: &str,
        epsilon: f64,
    ) -> Result<f64, ServeError> {
        self.try_spend_traced(tenant, stage, epsilon, None)
    }

    /// [`try_spend`](Self::try_spend), carrying the request's [`TraceId`]
    /// into the audit event for cross-correlation with the span trace.
    ///
    /// The audit event (grant or refusal) is recorded while the tenant's
    /// budget lock is held, so a tenant's journal sequence numbers strictly
    /// follow their spend order — the property replay depends on.
    pub fn try_spend_traced(
        &self,
        tenant: &TenantId,
        stage: &str,
        epsilon: f64,
        trace: Option<TraceId>,
    ) -> Result<f64, ServeError> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            // PrivacyBudget::spend would panic on this; a serving tier must
            // refuse it as a typed error instead. Malformed requests are not
            // budget decisions, so nothing lands in the journal either.
            return Err(ServeError::InvalidEpsilon { value: epsilon });
        }
        let entry = self.account(tenant)?;
        let mut budget = entry.budget.lock().unwrap_or_else(|p| p.into_inner());
        match budget.spend(stage, epsilon) {
            Ok(granted) => {
                self.charges.inc();
                self.epsilon_spent.add(granted);
                if let Some(series) = entry.series.get() {
                    series.spent.add(granted);
                    series
                        .utilization_ppm
                        .set((budget.utilization() * 1e6) as i64);
                }
                if let Some(journal) = self.journal() {
                    let (graph, version) = split_stage(stage);
                    journal.record(
                        AuditEvent::new(AuditKind::BudgetCharge)
                            .tenant(tenant.as_str())
                            .graph(graph, version)
                            .stage(stage)
                            .epsilon(epsilon, granted)
                            .trace(trace),
                    );
                }
                Ok(granted)
            }
            Err(exceeded) => {
                self.refusals.inc();
                entry.refusals.fetch_add(1, Ordering::Relaxed);
                if let Some(journal) = self.journal() {
                    let (graph, version) = split_stage(stage);
                    journal.record(
                        AuditEvent::new(AuditKind::BudgetRefusal)
                            .tenant(tenant.as_str())
                            .graph(graph, version)
                            .stage(stage)
                            .epsilon(epsilon, 0.0)
                            .trace(trace)
                            .detail(format!(
                                "requested {} with {} remaining",
                                exceeded.requested, exceeded.remaining
                            )),
                    );
                }
                Err(ServeError::BudgetExhausted {
                    tenant: tenant.clone(),
                    exceeded,
                })
            }
        }
    }

    /// Whether `tenant` could fund a spend of `epsilon` right now (advisory:
    /// another request may win the budget between this check and a spend).
    pub fn can_spend(&self, tenant: &TenantId, epsilon: f64) -> Result<bool, ServeError> {
        let entry = self.account(tenant)?;
        let budget = entry.budget.lock().unwrap_or_else(|p| p.into_inner());
        Ok(budget.can_spend(epsilon))
    }

    /// Point-in-time account view for `tenant`.
    pub fn account_view(&self, tenant: &TenantId) -> Result<TenantAccount, ServeError> {
        let entry = self.account(tenant)?;
        let budget = entry.budget.lock().unwrap_or_else(|p| p.into_inner());
        Ok(TenantAccount {
            tenant: tenant.clone(),
            quota_epsilon: budget.total_epsilon(),
            spent_epsilon: budget.spent_epsilon(),
            remaining_epsilon: budget.remaining_epsilon(),
            grants: budget.num_stages(),
        })
    }

    /// The full auditable state of `tenant`'s account: quota, exact spent
    /// sum, utilization, grant/refusal tallies and the per-stage ledger —
    /// the live side of the replay-equality contract.
    pub fn audit_snapshot(&self, tenant: &TenantId) -> Result<TenantAuditSnapshot, ServeError> {
        let entry = self.account(tenant)?;
        let budget = entry.budget.lock().unwrap_or_else(|p| p.into_inner());
        Ok(TenantAuditSnapshot {
            tenant: tenant.clone(),
            quota_epsilon: budget.total_epsilon(),
            spent_epsilon: budget.spent_epsilon(),
            utilization: budget.utilization(),
            charges: budget.num_stages() as u64,
            refusals: entry.refusals.load(Ordering::Relaxed),
            stages: budget.ledger().to_vec(),
        })
    }

    /// Verifies that replaying every tenant's journal reconstructs their
    /// live account **bit-for-bit** (spent sum, utilization, per-stage
    /// spends, grant and refusal counts). Returns the number of tenants
    /// verified, or a description of the first divergence.
    ///
    /// Only sound while the journal has not wrapped past any of the
    /// ledger's events (`journal.dropped() == 0` for the ledger's lifetime,
    /// or a complete JSONL sink replayed externally).
    pub fn verify_replay(&self, journal: &AuditJournal) -> Result<usize, String> {
        let tenants = self.tenants();
        for tenant in &tenants {
            let live = self
                .audit_snapshot(tenant)
                .map_err(|e| format!("tenant `{tenant}` vanished mid-verify: {e}"))?;
            let replay =
                replay_tenant(tenant.as_str(), &journal.events_for_tenant(tenant.as_str()));
            if replay.quota_epsilon.to_bits() != live.quota_epsilon.to_bits() {
                return Err(format!(
                    "tenant `{tenant}`: replayed quota {} != live {}",
                    replay.quota_epsilon, live.quota_epsilon
                ));
            }
            if replay.spent_epsilon.to_bits() != live.spent_epsilon.to_bits() {
                return Err(format!(
                    "tenant `{tenant}`: replayed spent {} != live {} (bitwise)",
                    replay.spent_epsilon, live.spent_epsilon
                ));
            }
            if replay.utilization().to_bits() != live.utilization.to_bits() {
                return Err(format!(
                    "tenant `{tenant}`: replayed utilization {} != live {}",
                    replay.utilization(),
                    live.utilization
                ));
            }
            if replay.charges != live.charges || replay.refusals != live.refusals {
                return Err(format!(
                    "tenant `{tenant}`: replayed charges/refusals {}/{} != live {}/{}",
                    replay.charges, replay.refusals, live.charges, live.refusals
                ));
            }
            if replay.stages.len() != live.stages.len()
                || replay
                    .stages
                    .iter()
                    .zip(live.stages.iter())
                    .any(|(a, b)| a.0 != b.0 || a.1.to_bits() != b.1.to_bits())
            {
                return Err(format!(
                    "tenant `{tenant}`: replayed stage ledger diverges from live ({} vs {} entries)",
                    replay.stages.len(),
                    live.stages.len()
                ));
            }
        }
        Ok(tenants.len())
    }

    /// All tenants, sorted.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut out: Vec<TenantId> = self.read().keys().cloned().collect();
        out.sort();
        out
    }

    /// Point-in-time snapshot of every account, sorted by tenant.
    pub fn snapshot(&self) -> Vec<TenantAccount> {
        self.tenants()
            .into_iter()
            .filter_map(|t| self.account_view(&t).ok())
            .collect()
    }

    fn account(&self, tenant: &TenantId) -> Result<Arc<TenantEntry>, ServeError> {
        self.read()
            .get(tenant)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTenant {
                tenant: tenant.clone(),
            })
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<TenantId, Arc<TenantEntry>>> {
        self.tenants.read().unwrap_or_else(|p| p.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<TenantId, Arc<TenantEntry>>> {
        self.tenants.write().unwrap_or_else(|p| p.into_inner())
    }
}

/// Splits a ledger stage into its graph coordinates: the streaming tier
/// names stages `id@version`, the serving tier names them by graph id.
fn split_stage(stage: &str) -> (&str, Option<u64>) {
    match stage.rsplit_once('@') {
        Some((graph, version)) => match version.parse() {
            Ok(v) => (graph, Some(v)),
            Err(_) => (stage, None),
        },
        None => (stage, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_once_only() {
        let ledger = BudgetLedger::new();
        ledger.register("acme", 2.0).unwrap();
        let err = ledger.register("acme", 100.0).unwrap_err();
        assert!(matches!(err, ServeError::TenantAlreadyRegistered { .. }));
        // The original quota survives the failed re-registration.
        let view = ledger.account_view(&TenantId::new("acme")).unwrap();
        assert_eq!(view.quota_epsilon, 2.0);
    }

    #[test]
    fn spending_is_metered_against_the_quota() {
        let ledger = BudgetLedger::new();
        ledger.register("acme", 1.0).unwrap();
        let t = TenantId::new("acme");
        assert!(ledger.can_spend(&t, 1.0).unwrap());
        ledger.try_spend(&t, "release", 0.6).unwrap();
        let err = ledger.try_spend(&t, "release", 0.6).unwrap_err();
        match err {
            ServeError::BudgetExhausted { tenant, exceeded } => {
                assert_eq!(tenant, t);
                assert!(exceeded.requested > exceeded.remaining);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // The refused spend consumed nothing.
        let view = ledger.account_view(&t).unwrap();
        assert!((view.spent_epsilon - 0.6).abs() < 1e-12);
        assert_eq!(view.grants, 1);
        // What remains is still spendable.
        ledger.try_spend(&t, "release", 0.4).unwrap();
        assert!(ledger.account_view(&t).unwrap().remaining_epsilon < 1e-9);
    }

    #[test]
    fn an_exhausted_tenant_is_refused_dust_releases() {
        let ledger = BudgetLedger::new();
        ledger.register("acme", 1.0).unwrap();
        let t = TenantId::new("acme");
        ledger.try_spend(&t, "release", 1.0).unwrap();
        // Each refused 1e-12 request would otherwise be one more release
        // funded by the same rounding slack: composition must stay bounded.
        let admitted = (0..1000)
            .filter(|_| ledger.try_spend(&t, "release", 1e-12).is_ok())
            .count();
        assert!(admitted <= 1, "{admitted} dust releases admitted");
        assert!(!ledger.can_spend(&t, 1e-12).unwrap());
        assert!(ledger.account_view(&t).unwrap().spent_epsilon <= 1.0 + 1e-12);
    }

    #[test]
    fn malformed_epsilon_is_a_typed_refusal_not_a_panic() {
        let ledger = BudgetLedger::new();
        ledger.register("t", 1.0).unwrap();
        let t = TenantId::new("t");
        for bad in [-0.5, 0.0, f64::NAN, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    ledger.try_spend(&t, "x", bad),
                    Err(ServeError::InvalidEpsilon { .. })
                ),
                "epsilon {bad} must be a typed refusal"
            );
        }
        assert_eq!(ledger.account_view(&t).unwrap().grants, 0);
    }

    #[test]
    fn unknown_tenants_are_typed_refusals() {
        let ledger = BudgetLedger::new();
        let t = TenantId::new("ghost");
        assert!(matches!(
            ledger.try_spend(&t, "x", 0.1).unwrap_err(),
            ServeError::UnknownTenant { .. }
        ));
        assert!(matches!(
            ledger.account_view(&t).unwrap_err(),
            ServeError::UnknownTenant { .. }
        ));
    }

    #[test]
    fn counters_track_charges_refusals_and_epsilon_and_survive_adoption() {
        let ledger = BudgetLedger::new();
        ledger.register("t", 1.0).unwrap();
        let t = TenantId::new("t");
        // Grants and an exhausted-quota refusal recorded while detached.
        ledger.try_spend(&t, "a", 0.25).unwrap();
        ledger.try_spend(&t, "b", 0.25).unwrap();
        assert!(ledger.try_spend(&t, "c", 0.75).is_err());
        // Invalid ε and unknown tenants are malformed requests, not budget
        // refusals — they must not count.
        let _ = ledger.try_spend(&t, "x", -1.0);
        let _ = ledger.try_spend(&TenantId::new("ghost"), "x", 0.1);
        assert_eq!((ledger.charges(), ledger.refusals()), (2, 1));
        assert!((ledger.epsilon_spent() - 0.5).abs() < 1e-12);
        // Adoption into a registry preserves the pre-publication history.
        let registry = MetricsRegistry::new();
        ledger.publish_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.value("ccdp_dp_budget_charges_total"), Some(2.0));
        assert_eq!(snap.value("ccdp_dp_budget_refusals_total"), Some(1.0));
        // And post-publication spends land in the same series.
        ledger.try_spend(&t, "d", 0.25).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.value("ccdp_dp_budget_charges_total"), Some(3.0));
        assert!((snap.value("ccdp_dp_budget_epsilon_spent_total").unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn journal_records_ledger_decisions_in_tenant_order() {
        let ledger = BudgetLedger::new();
        let journal = Arc::new(AuditJournal::with_capacity(64));
        ledger.set_journal(Arc::clone(&journal));
        ledger.register("acme", 1.0).unwrap();
        let t = TenantId::new("acme");
        ledger.try_spend(&t, "g0", 0.5).unwrap();
        assert!(ledger.try_spend(&t, "g0@3", 0.75).is_err());
        // Malformed requests are not budget decisions: no events.
        let _ = ledger.try_spend(&t, "x", -1.0);
        let _ = ledger.try_spend(&TenantId::new("ghost"), "x", 0.1);
        let events = journal.events_for_tenant("acme");
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, AuditKind::TenantRegistered);
        assert_eq!(events[0].epsilon_requested, 1.0);
        assert_eq!(events[1].kind, AuditKind::BudgetCharge);
        assert_eq!((events[1].graph.as_str(), events[1].version), ("g0", None));
        assert_eq!(events[2].kind, AuditKind::BudgetRefusal);
        assert_eq!(
            (events[2].graph.as_str(), events[2].version),
            ("g0", Some(3))
        );
        assert!(events[2].detail.contains("remaining"));
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn replay_reconstructs_the_live_account_bit_for_bit() {
        let ledger = BudgetLedger::new();
        let journal = Arc::new(AuditJournal::with_capacity(256));
        ledger.set_journal(Arc::clone(&journal));
        ledger.register("a", 1.0).unwrap();
        ledger.register("b", 0.3).unwrap();
        let (a, b) = (TenantId::new("a"), TenantId::new("b"));
        // An awkward float mix so the bitwise claim is actually exercised.
        for eps in [0.1, 0.2, 0.3, 0.1] {
            let _ = ledger.try_spend(&a, "g", eps);
        }
        let _ = ledger.try_spend(&a, "g", 0.9); // refusal
        let _ = ledger.try_spend(&b, "h@1", 0.2);
        let _ = ledger.try_spend(&b, "h@2", 0.2); // refusal
        let verified = ledger
            .verify_replay(&journal)
            .expect("replay must match live");
        assert_eq!(verified, 2);
        // And the replayed values really are the fold of the events.
        let replay = ccdp_obs::replay_tenant("a", &journal.events_for_tenant("a"));
        let live = ledger.audit_snapshot(&a).unwrap();
        assert_eq!(replay.spent_epsilon.to_bits(), live.spent_epsilon.to_bits());
        assert_eq!(replay.refusals, 1);
        assert_eq!(live.stages.len(), 4);
    }

    #[test]
    fn per_tenant_series_track_spends_and_survive_late_registration() {
        let ledger = BudgetLedger::new();
        ledger.register("early", 1.0).unwrap();
        ledger
            .try_spend(&TenantId::new("early"), "g", 0.25)
            .unwrap();
        let registry = Arc::new(MetricsRegistry::new());
        ledger.publish_metrics_shared(&registry);
        // Pre-publication spends are backfilled into the labeled series.
        let snap = registry.snapshot();
        assert!((snap.sum("ccdp_serve_budget_spent_total") - 0.25).abs() < 1e-12);
        // Tenants registered after publication get series too.
        ledger.register("late", 2.0).unwrap();
        ledger.try_spend(&TenantId::new("late"), "g", 1.0).unwrap();
        ledger
            .try_spend(&TenantId::new("early"), "g", 0.25)
            .unwrap();
        let snap = registry.snapshot();
        assert!((snap.sum("ccdp_serve_budget_spent_total") - 1.5).abs() < 1e-12);
        let ppm: Vec<(String, f64)> = snap
            .series
            .iter()
            .filter(|s| s.name == "ccdp_serve_budget_utilization_ppm")
            .map(|s| (s.labels[0].1.clone(), snap.sum(&s.name)))
            .collect();
        assert_eq!(ppm.len(), 2, "one utilization gauge per tenant");
        let early =
            registry.gauge_with("ccdp_serve_budget_utilization_ppm", &[("tenant", "early")]);
        assert_eq!(early.get(), 500_000, "0.5 utilization = 500000 ppm");
    }

    #[test]
    fn snapshot_lists_every_tenant_sorted() {
        let ledger = BudgetLedger::new();
        ledger.register("b", 1.0).unwrap();
        ledger.register("a", 2.0).unwrap();
        ledger.try_spend(&TenantId::new("a"), "s", 0.5).unwrap();
        let snap = ledger.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].tenant, TenantId::new("a"));
        assert!((snap[0].spent_epsilon - 0.5).abs() < 1e-12);
        assert_eq!(snap[1].tenant, TenantId::new("b"));
        assert_eq!(snap[1].grants, 0);
    }
}
