//! Shared, validating configuration for every estimator in this crate.
//!
//! The estimators used to carry ad-hoc `with_*` setters that `assert!`-panicked
//! on bad input. [`EstimatorConfig`] replaces them with one builder whose
//! setters never panic; validation happens once, in
//! [`EstimatorConfig::validate`] (called by every `from_config` constructor),
//! and reports typed [`ConfigError`]s so services can reject bad requests
//! without catching panics.

use crate::cache::{ExtensionCache, GraphTag};
use ccdp_exec::PhaseProfiler;
use ccdp_graph::GraphVersion;
use ccdp_obs::TraceCtx;
use std::fmt;
use std::sync::Arc;

/// Per-request observability handles threaded through an estimator run:
/// an optional trace context (span events land in its tracer's store) and an
/// optional phase profiler (solver phase timings land in its report).
///
/// Both are pure observation — they never consume randomness or change a
/// released value — and both default to `None`, which costs one branch per
/// would-be event. Excluded from [`EstimatorConfig`] equality: two configs
/// that differ only in who is watching are the same configuration.
#[derive(Clone, Default)]
pub struct ObsHandles {
    /// Trace context events are emitted into, if this run is traced.
    pub trace: Option<TraceCtx>,
    /// Profiler solver phases are recorded into, if this run is profiled.
    pub profiler: Option<Arc<PhaseProfiler>>,
}

impl fmt::Debug for ObsHandles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsHandles")
            .field("trace", &self.trace.as_ref().map(|t| t.id))
            .field("profiler", &self.profiler.is_some())
            .finish()
    }
}

/// Typed validation errors produced by [`EstimatorConfig::validate`] and the
/// estimator constructors.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// ε must be strictly positive and finite.
    InvalidEpsilon {
        /// The rejected value.
        value: f64,
    },
    /// β must lie strictly between 0 and 1.
    InvalidBeta {
        /// The rejected value.
        value: f64,
    },
    /// Δmax must be at least 1.
    InvalidDeltaMax {
        /// The rejected value.
        value: usize,
    },
    /// The node-count budget fraction must lie strictly between 0 and 1.
    InvalidNodeCountFraction {
        /// The rejected value.
        value: f64,
    },
    /// A fixed Lipschitz parameter must be at least 1.
    InvalidDelta {
        /// The rejected value.
        value: usize,
    },
    /// The thread budget must be at least 1.
    InvalidThreads {
        /// The rejected value.
        value: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidEpsilon { value } => {
                write!(f, "epsilon must be positive and finite, got {value}")
            }
            ConfigError::InvalidBeta { value } => {
                write!(f, "beta must lie strictly in (0, 1), got {value}")
            }
            ConfigError::InvalidDeltaMax { value } => {
                write!(f, "delta_max must be at least 1, got {value}")
            }
            ConfigError::InvalidNodeCountFraction { value } => {
                write!(
                    f,
                    "node-count budget fraction must lie strictly in (0, 1), got {value}"
                )
            }
            ConfigError::InvalidDelta { value } => {
                write!(f, "delta must be at least 1, got {value}")
            }
            ConfigError::InvalidThreads { value } => {
                write!(f, "threads must be at least 1, got {value}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder-style configuration shared by the private estimators (and reused by
/// the baselines for their common ε validation).
///
/// Setters store raw values and never panic; call [`EstimatorConfig::validate`]
/// (or any `from_config` constructor, which does it for you) to surface typed
/// errors.
///
/// ```
/// use ccdp_core::{ConfigError, EstimatorConfig};
///
/// let ok = EstimatorConfig::new(1.0).with_beta(0.1).with_delta_max(64);
/// assert!(ok.validate().is_ok());
///
/// let bad = EstimatorConfig::new(1.0).with_beta(1.5);
/// assert_eq!(bad.validate(), Err(ConfigError::InvalidBeta { value: 1.5 }));
/// ```
#[derive(Clone, Debug)]
pub struct EstimatorConfig {
    epsilon: f64,
    beta: Option<f64>,
    delta_max: Option<usize>,
    node_count_fraction: f64,
    family_cache_enabled: bool,
    shared_family_cache: Option<Arc<ExtensionCache>>,
    graph_tag: Option<GraphTag>,
    threads: Option<usize>,
    obs: ObsHandles,
}

impl PartialEq for EstimatorConfig {
    fn eq(&self, other: &Self) -> bool {
        let same_cache = match (&self.shared_family_cache, &other.shared_family_cache) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        self.epsilon == other.epsilon
            && self.beta == other.beta
            && self.delta_max == other.delta_max
            && self.node_count_fraction == other.node_count_fraction
            && self.family_cache_enabled == other.family_cache_enabled
            && same_cache
            && self.graph_tag == other.graph_tag
            && self.threads == other.threads
    }
}

impl EstimatorConfig {
    /// Default share of ε spent on the node-count release by the
    /// connected-components estimator.
    pub const DEFAULT_NODE_COUNT_FRACTION: f64 = 0.1;

    /// Starts a configuration with total privacy parameter `epsilon`.
    pub fn new(epsilon: f64) -> Self {
        EstimatorConfig {
            epsilon,
            beta: None,
            delta_max: None,
            node_count_fraction: Self::DEFAULT_NODE_COUNT_FRACTION,
            family_cache_enabled: true,
            shared_family_cache: None,
            graph_tag: None,
            threads: None,
            obs: ObsHandles::default(),
        }
    }

    /// Attaches a trace context: estimator runs emit cache, phase, noise and
    /// release span events into it. Observation only — never changes values.
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.obs.trace = Some(trace);
        self
    }

    /// Attaches a phase profiler: solver phases record wall clock into it.
    /// Observation only — never changes values.
    pub fn with_profiler(mut self, profiler: Arc<PhaseProfiler>) -> Self {
        self.obs.profiler = Some(profiler);
        self
    }

    /// The observability handles threaded through this configuration.
    pub fn obs(&self) -> &ObsHandles {
        &self.obs
    }

    /// Sets the thread budget for per-release parallel solving (default:
    /// the machine's available parallelism). `1` runs today's sequential path;
    /// any other value fans the independent family/component subproblems out
    /// over a scoped work-stealing map. A data-independent execution knob: the
    /// release is **bit-for-bit identical for every thread budget** (results
    /// merge in deterministic order), so this affects wall-clock only, never
    /// privacy or accuracy.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Overrides the GEM failure probability β (default `1 / ln ln n`, clamped
    /// to `(0.001, 0.5)`).
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = Some(beta);
        self
    }

    /// Overrides the largest Δ of the selection grid (default `|V(G)|`).
    ///
    /// This is a public, data-independent parameter; choosing it below the
    /// graph's Δ* degrades accuracy but never privacy.
    pub fn with_delta_max(mut self, delta_max: usize) -> Self {
        self.delta_max = Some(delta_max);
        self
    }

    /// Sets the fraction of ε spent on the node-count release (in `(0, 1)`).
    pub fn with_node_count_fraction(mut self, fraction: f64) -> Self {
        self.node_count_fraction = fraction;
        self
    }

    /// Enables or disables the per-estimator Lipschitz-extension family cache
    /// (default enabled). Caching only memoizes a deterministic,
    /// never-released intermediate, so it does not affect privacy.
    pub fn with_family_caching(mut self, enabled: bool) -> Self {
        self.family_cache_enabled = enabled;
        self
    }

    /// Shares an existing [`ExtensionCache`] across estimators (e.g. one
    /// cache for a whole serving fleet answering queries about the same
    /// graphs). Implies family caching is enabled.
    pub fn with_shared_family_cache(mut self, cache: Arc<ExtensionCache>) -> Self {
        self.family_cache_enabled = true;
        self.shared_family_cache = Some(cache);
        self
    }

    /// Tags the estimator's cache lookups with the catalog identity of the
    /// graph snapshot it serves (`id` at `version`). Tagged entries never
    /// answer for another version of the same graph and can be invalidated in
    /// bulk (see [`ExtensionCache::invalidate_versions_below`]). A
    /// data-independent serving annotation: it changes which cache slot is
    /// used, never what is computed.
    pub fn with_graph_tag(mut self, id: impl Into<String>, version: GraphVersion) -> Self {
        self.graph_tag = Some(GraphTag::new(id, version));
        self
    }

    /// The total privacy parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The Δmax override, if any.
    pub fn delta_max(&self) -> Option<usize> {
        self.delta_max
    }

    /// The node-count budget fraction.
    pub fn node_count_fraction(&self) -> f64 {
        self.node_count_fraction
    }

    /// The catalog tag cache lookups carry, if one was set.
    pub fn graph_tag(&self) -> Option<&GraphTag> {
        self.graph_tag.as_ref()
    }

    /// The thread-budget override, if any.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The thread budget to run with: the override if set, otherwise the
    /// machine's available parallelism — and never *more* than the machine's
    /// available parallelism. Oversubscribing physical cores with scoped
    /// workers slows the solve down instead of speeding it up (each worker
    /// adds scheduling and cache pressure but no extra compute), so an
    /// explicit budget above the hardware limit is clamped. Results are
    /// bit-for-bit identical for every budget, so the clamp never changes
    /// output.
    pub fn resolved_threads(&self) -> usize {
        let hardware = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        match self.threads {
            Some(requested) => requested.min(hardware).max(1),
            None => hardware,
        }
    }

    /// Resolves the family cache this configuration asks for: the shared one
    /// if supplied, a fresh private one if caching is enabled, `None` if
    /// disabled. Called once per estimator construction.
    pub(crate) fn resolve_family_cache(&self) -> Option<Arc<ExtensionCache>> {
        if !self.family_cache_enabled {
            return None;
        }
        Some(
            self.shared_family_cache
                .clone()
                .unwrap_or_else(|| Arc::new(ExtensionCache::default())),
        )
    }

    /// The β to use on an `n`-vertex graph: the override if set, otherwise the
    /// paper's default `1 / ln ln n` clamped to `(0.001, 0.5)`.
    pub fn resolved_beta(&self, n: usize) -> f64 {
        self.beta.unwrap_or_else(|| {
            let lnln = (n.max(3) as f64).ln().ln();
            (1.0 / lnln).clamp(0.001, 0.5)
        })
    }

    /// Checks every field, returning the first violation as a typed error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) {
            return Err(ConfigError::InvalidEpsilon {
                value: self.epsilon,
            });
        }
        if let Some(beta) = self.beta {
            if !(beta.is_finite() && beta > 0.0 && beta < 1.0) {
                return Err(ConfigError::InvalidBeta { value: beta });
            }
        }
        if let Some(delta_max) = self.delta_max {
            if delta_max == 0 {
                return Err(ConfigError::InvalidDeltaMax { value: delta_max });
            }
        }
        let f = self.node_count_fraction;
        if !(f.is_finite() && f > 0.0 && f < 1.0) {
            return Err(ConfigError::InvalidNodeCountFraction { value: f });
        }
        if let Some(threads) = self.threads {
            if threads == 0 {
                return Err(ConfigError::InvalidThreads { value: threads });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(EstimatorConfig::new(1.0).validate().is_ok());
    }

    #[test]
    fn invalid_epsilon_is_typed() {
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = EstimatorConfig::new(eps).validate().unwrap_err();
            assert!(
                matches!(err, ConfigError::InvalidEpsilon { .. }),
                "{eps} -> {err}"
            );
        }
    }

    #[test]
    fn invalid_beta_is_typed() {
        for beta in [0.0, 1.0, -0.5, 2.0, f64::NAN] {
            let err = EstimatorConfig::new(1.0)
                .with_beta(beta)
                .validate()
                .unwrap_err();
            assert!(
                matches!(err, ConfigError::InvalidBeta { .. }),
                "{beta} -> {err}"
            );
        }
    }

    #[test]
    fn invalid_delta_max_is_typed() {
        let err = EstimatorConfig::new(1.0)
            .with_delta_max(0)
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidDeltaMax { value: 0 });
    }

    #[test]
    fn invalid_fraction_is_typed() {
        for frac in [0.0, 1.0, -0.2, f64::NAN] {
            let err = EstimatorConfig::new(1.0)
                .with_node_count_fraction(frac)
                .validate()
                .unwrap_err();
            assert!(
                matches!(err, ConfigError::InvalidNodeCountFraction { .. }),
                "{frac} -> {err}"
            );
        }
    }

    #[test]
    fn resolved_beta_uses_override_then_default() {
        assert_eq!(
            EstimatorConfig::new(1.0)
                .with_beta(0.25)
                .resolved_beta(1000),
            0.25
        );
        let default = EstimatorConfig::new(1.0).resolved_beta(1000);
        assert!(default > 0.0 && default <= 0.5);
    }

    #[test]
    fn display_messages_name_the_offender() {
        let msg = ConfigError::InvalidBeta { value: 3.0 }.to_string();
        assert!(msg.contains("beta") && msg.contains('3'));
    }

    #[test]
    fn family_cache_resolution_honors_the_knobs() {
        // Default: caching on, fresh private cache.
        assert!(EstimatorConfig::new(1.0).resolve_family_cache().is_some());
        // Disabled: no cache.
        assert!(EstimatorConfig::new(1.0)
            .with_family_caching(false)
            .resolve_family_cache()
            .is_none());
        // Shared: the supplied handle is returned.
        let shared = Arc::new(ExtensionCache::default());
        let resolved = EstimatorConfig::new(1.0)
            .with_shared_family_cache(Arc::clone(&shared))
            .resolve_family_cache()
            .unwrap();
        assert!(Arc::ptr_eq(&shared, &resolved));
    }

    #[test]
    fn graph_tag_round_trips() {
        let config = EstimatorConfig::new(1.0);
        assert!(config.graph_tag().is_none());
        let config = config.with_graph_tag("fleet/g0", GraphVersion::new(3));
        let tag = config.graph_tag().unwrap();
        assert_eq!(tag.id, "fleet/g0");
        assert_eq!(tag.version, GraphVersion::new(3));
        assert!(config.validate().is_ok());
    }

    #[test]
    fn threads_knob_validates_and_resolves() {
        let err = EstimatorConfig::new(1.0)
            .with_threads(0)
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidThreads { value: 0 });
        let cfg = EstimatorConfig::new(1.0).with_threads(8);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.threads(), Some(8));
        // An explicit budget is honored up to the machine's parallelism and
        // clamped above it (oversubscription only slows the solve down).
        let hardware = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(cfg.resolved_threads(), 8.min(hardware));
        assert_eq!(
            EstimatorConfig::new(1.0).with_threads(1).resolved_threads(),
            1
        );
        // Default resolves to the machine's parallelism, never below 1.
        assert!(EstimatorConfig::new(1.0).resolved_threads() >= 1);
    }

    #[test]
    fn config_equality_accounts_for_the_new_fields() {
        assert_eq!(EstimatorConfig::new(1.0), EstimatorConfig::new(1.0));
        assert_ne!(
            EstimatorConfig::new(1.0),
            EstimatorConfig::new(1.0).with_threads(4)
        );
        assert_ne!(
            EstimatorConfig::new(1.0).with_graph_tag("g", GraphVersion::INITIAL),
            EstimatorConfig::new(1.0).with_graph_tag("g", GraphVersion::new(1))
        );
        let shared = Arc::new(ExtensionCache::default());
        assert_eq!(
            EstimatorConfig::new(1.0).with_shared_family_cache(Arc::clone(&shared)),
            EstimatorConfig::new(1.0).with_shared_family_cache(shared)
        );
    }
}
