//! Algorithm 1: the node-differentially private estimator for the size of the
//! spanning forest, and the derived estimator for the number of connected
//! components.
//!
//! The pipeline is exactly the paper's:
//!
//! 1. Evaluate the family of Lipschitz extensions `f_Δ` on the doubling grid
//!    `Δ ∈ {1, 2, 4, …, Δmax}` (Algorithm 4, steps 2–4).
//! 2. Select `Δ̂` with the Generalized Exponential Mechanism using privacy budget
//!    `ε/2` and failure probability `β` (default `1 / ln ln n`).
//! 3. Release `f_Δ̂(G) + Lap(2Δ̂/ε)` (the Laplace mechanism with the remaining
//!    `ε/2` budget and sensitivity `Δ̂`).
//!
//! The connected-components estimator uses `f_cc(G) = |V(G)| − f_sf(G)`
//! (Equation (1)): it spends a small share of the budget on a Laplace release of
//! the node count (sensitivity 1 under node-DP) and the rest on the spanning-forest
//! estimate.
//!
//! Both estimators are configured through [`EstimatorConfig`] (typed validation,
//! no panics), account every ε through one [`PrivacyBudget`] threaded down the
//! call chain, and release typed [`Release`] values whose non-private
//! diagnostics are gated behind [`DiagnosticsAccess`](crate::DiagnosticsAccess).

use crate::cache::{ArenaRef, ExtensionCache};
use crate::config::{ConfigError, EstimatorConfig};
use crate::error::CcdpError;
use crate::estimator::Estimator;
use crate::extension::{evaluate_family, EvaluationPath};
use crate::release::{Diagnostics, Privacy, Release};
use ccdp_dp::composition::{BudgetExceeded, PrivacyBudget};
use ccdp_dp::gem::{generalized_exponential_mechanism, power_of_two_grid, GemCandidate};
use ccdp_dp::laplace::laplace_mechanism;
use ccdp_exec::PhaseProfiler;
use ccdp_graph::{CsrGraph, Graph};
use rand::{Rng, RngCore};
use std::sync::Arc;

/// Node-private estimator for `f_sf(G)` (Algorithm 1).
#[derive(Clone, Debug)]
pub struct PrivateSpanningForestEstimator {
    config: EstimatorConfig,
    /// Memo for the deterministic family evaluation (`None` when disabled).
    /// Clones share it, so a cloned serving fleet warms one cache.
    family_cache: Option<Arc<ExtensionCache>>,
}

impl PrivateSpanningForestEstimator {
    /// Name reported by the [`Estimator`] implementation.
    pub const NAME: &'static str = "private-spanning-forest";

    /// Creates an estimator with privacy parameter `epsilon`.
    pub fn new(epsilon: f64) -> Result<Self, ConfigError> {
        Self::from_config(EstimatorConfig::new(epsilon))
    }

    /// Creates an estimator from a validated configuration.
    pub fn from_config(config: EstimatorConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let family_cache = config.resolve_family_cache();
        Ok(PrivateSpanningForestEstimator {
            config,
            family_cache,
        })
    }

    /// The privacy parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.config.epsilon()
    }

    /// The configuration this estimator runs with.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// The family cache this estimator consults, if caching is enabled.
    pub fn family_cache(&self) -> Option<&Arc<ExtensionCache>> {
        self.family_cache.as_ref()
    }

    /// Runs Algorithm 1 on `g` and returns the private release of `f_sf(G)`.
    pub fn estimate<R: Rng + ?Sized>(&self, g: &Graph, rng: &mut R) -> Result<Release, CcdpError> {
        let mut budget = PrivacyBudget::new(self.config.epsilon());
        self.estimate_with_budget(g, &mut budget, rng)
    }

    /// Runs Algorithm 1 drawing from an externally owned [`PrivacyBudget`].
    ///
    /// The entire remaining budget is consumed: half on GEM selection, half
    /// on the Laplace release.
    pub fn estimate_with_budget<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        budget: &mut PrivacyBudget,
        rng: &mut R,
    ) -> Result<Release, CcdpError> {
        // Shared, so a cache miss keeps this arena as its witness uncopied.
        let arena = Arc::new(CsrGraph::from_graph(g));
        self.release((&arena).into(), budget, rng, None)
    }

    /// Runs Algorithm 1 directly on a CSR arena — the large-scale entry
    /// point for graphs that never exist as an adjacency-list [`Graph`]. The
    /// release is bit-for-bit identical to [`Self::estimate`] on the
    /// equivalent `Graph` with the same RNG state.
    ///
    /// `arena` is a `&CsrGraph` or a shared `&Arc<CsrGraph>` (see
    /// [`ArenaRef`]). The release is the same either way; what differs is the
    /// cost. A family-cache miss keeps a shared `Arc` as its witness instead
    /// of copying the arena, and a hit on it is confirmed by pointer
    /// equality, so a hit on an arena released before does no O(n + m) work.
    pub fn estimate_csr<'a, R: Rng + ?Sized>(
        &self,
        arena: impl Into<ArenaRef<'a>>,
        rng: &mut R,
    ) -> Result<Release, CcdpError> {
        let mut budget = PrivacyBudget::new(self.config.epsilon());
        self.release(arena.into(), &mut budget, rng, None)
    }

    /// [`Self::estimate_csr`] with per-phase wall-clock attribution: the
    /// family phases of [`evaluate_family`] (on a cache miss) plus
    /// `release/true-value` (the exact spanning-forest size fed to GEM) and
    /// `release/mechanisms` (GEM selection plus the Laplace release).
    pub fn estimate_csr_profiled<'a, R: Rng + ?Sized>(
        &self,
        arena: impl Into<ArenaRef<'a>>,
        rng: &mut R,
        profiler: &PhaseProfiler,
    ) -> Result<Release, CcdpError> {
        let mut budget = PrivacyBudget::new(self.config.epsilon());
        self.release(arena.into(), &mut budget, rng, Some(profiler))
    }

    /// The one release path of Algorithm 1 — the single accountant seam of
    /// the crate: composed estimators (e.g. [`PrivateCcEstimator`]) pass
    /// their budget down instead of re-deriving ε splits, so one ledger
    /// records every stage.
    fn release<R: Rng + ?Sized>(
        &self,
        arena: ArenaRef<'_>,
        budget: &mut PrivacyBudget,
        rng: &mut R,
        profiler: Option<&PhaseProfiler>,
    ) -> Result<Release, CcdpError> {
        // An explicit profiler argument wins; otherwise the one threaded
        // through the configuration (the serving tier's per-request handle).
        let obs = self.config.obs();
        let profiler = profiler.or(obs.profiler.as_deref());
        let n = arena.get().num_vertices();
        let epsilon = budget.remaining_epsilon();
        if epsilon <= 0.0 {
            // An exhausted accountant cannot fund another stage: any positive
            // request exceeds what remains.
            return Err(CcdpError::Budget(BudgetExceeded {
                requested: f64::MIN_POSITIVE,
                remaining: epsilon,
            }));
        }
        let eps_gem = budget.spend("gem-threshold-selection", epsilon / 2.0)?;
        let eps_release = budget.spend("laplace-release", epsilon / 2.0)?;
        let beta = self.config.resolved_beta(n);
        let delta_max = self.config.delta_max().unwrap_or(n).min(n.max(1));
        let grid = power_of_two_grid(delta_max);

        // Steps 2–4 of Algorithm 4: evaluate the family on the doubling grid,
        // through the cache when it is enabled. The empty graph takes the
        // same path as everything else: the grid degenerates to {1}, the
        // extension value to 0.
        let threads = self.config.resolved_threads();
        let evals = match &self.family_cache {
            Some(cache) => cache.evaluate_family(
                arena,
                &grid,
                self.config.graph_tag(),
                threads,
                profiler,
                obs.trace.as_ref(),
            )?,
            None => Arc::new(evaluate_family(
                arena.get(),
                &grid,
                threads,
                profiler,
                None,
            )?),
        };
        // A memo read: the family evaluation's partition (on a miss) or an
        // earlier release of this arena (on a hit) already counted the
        // components.
        let true_value = {
            let _t = profiler.map(|p| p.phase("release/true-value"));
            arena.get().spanning_forest_size() as f64
        };
        let _t = profiler.map(|p| p.phase("release/mechanisms"));
        let used_lp = evals
            .iter()
            .any(|e| e.path == EvaluationPath::LinearProgram);
        let candidates: Vec<GemCandidate> = grid
            .iter()
            .zip(evals.iter())
            .map(|(&d, e)| GemCandidate {
                delta: d as f64,
                value: e.value,
            })
            .collect();

        // The release draws two words from `rng`: one for the GEM draw, one
        // for the Laplace release (a test pins the count).
        if let Some(ctx) = &obs.trace {
            ctx.event_full(ccdp_obs::SpanKind::NoiseDraw, std::time::Duration::ZERO, 2);
        }

        // Step 1 of Algorithm 1: GEM with ε/2.
        let selection =
            generalized_exponential_mechanism(&candidates, true_value, eps_gem, beta, rng);
        let selected_delta = grid[selection.index];
        let extension_value = selection.value;

        // Step 3: Laplace release with the remaining ε/2 and sensitivity Δ̂,
        // i.e. noise scale 2Δ̂/ε.
        let noise_scale = selected_delta as f64 / eps_release;
        let value = laplace_mechanism(extension_value, selected_delta as f64, eps_release, rng);

        Ok(Release::new(
            value,
            Privacy::NodeDp { epsilon },
            Self::NAME,
            Diagnostics {
                selected_delta: Some(selected_delta),
                extension_value: Some(extension_value),
                noise_scale: Some(noise_scale),
                beta: Some(beta),
                used_lp,
                family_values: grid
                    .iter()
                    .copied()
                    .zip(evals.iter().map(|e| e.value))
                    .collect(),
                node_count_estimate: None,
                spanning_forest_estimate: None,
                budget_ledger: budget.ledger().to_vec(),
            },
        ))
    }
}

impl Estimator for PrivateSpanningForestEstimator {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn privacy(&self) -> Privacy {
        Privacy::NodeDp {
            epsilon: self.config.epsilon(),
        }
    }

    fn estimate(&self, g: &Graph, rng: &mut dyn RngCore) -> Result<Release, CcdpError> {
        PrivateSpanningForestEstimator::estimate(self, g, rng)
    }
}

/// Node-private estimator for the number of connected components `f_cc(G)`.
///
/// Combines a Laplace release of `|V(G)|` (sensitivity 1) with the Algorithm 1
/// estimate of `f_sf(G)` via `f_cc = |V| − f_sf`. A single [`PrivacyBudget`]
/// accounts both stages.
#[derive(Clone, Debug)]
pub struct PrivateCcEstimator {
    config: EstimatorConfig,
    spanning_forest: PrivateSpanningForestEstimator,
}

impl PrivateCcEstimator {
    /// Name reported by the [`Estimator`] implementation.
    pub const NAME: &'static str = "private-connected-components";

    /// Creates an estimator with total privacy parameter `epsilon`.
    ///
    /// By default 10% of the budget is spent on the node count and 90% on the
    /// spanning-forest size ([`EstimatorConfig::DEFAULT_NODE_COUNT_FRACTION`]).
    pub fn new(epsilon: f64) -> Result<Self, ConfigError> {
        Self::from_config(EstimatorConfig::new(epsilon))
    }

    /// Creates an estimator from a validated configuration.
    pub fn from_config(config: EstimatorConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let spanning_forest = PrivateSpanningForestEstimator::from_config(config.clone())?;
        Ok(PrivateCcEstimator {
            config,
            spanning_forest,
        })
    }

    /// The total privacy parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.config.epsilon()
    }

    /// The configuration this estimator runs with.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// Runs the estimator on `g` and returns the private release of `f_cc(G)`.
    pub fn estimate<R: Rng + ?Sized>(&self, g: &Graph, rng: &mut R) -> Result<Release, CcdpError> {
        let arena = Arc::new(CsrGraph::from_graph(g));
        self.release((&arena).into(), rng, None)
    }

    /// Runs the estimator directly on a CSR arena — the large-scale twin of
    /// [`Self::estimate`], bit-for-bit identical on the equivalent `Graph`
    /// with the same RNG state. Serving passes the registry's shared
    /// `&Arc<CsrGraph>`, so a family-cache hit on it does no O(n + m) work
    /// (see [`PrivateSpanningForestEstimator::estimate_csr`]).
    pub fn estimate_csr<'a, R: Rng + ?Sized>(
        &self,
        arena: impl Into<ArenaRef<'a>>,
        rng: &mut R,
    ) -> Result<Release, CcdpError> {
        self.release(arena.into(), rng, None)
    }

    /// [`Self::estimate_csr`] with per-phase wall-clock attribution recorded
    /// into `profiler` (see [`PrivateSpanningForestEstimator::estimate_csr_profiled`]).
    pub fn estimate_csr_profiled<'a, R: Rng + ?Sized>(
        &self,
        arena: impl Into<ArenaRef<'a>>,
        rng: &mut R,
        profiler: &PhaseProfiler,
    ) -> Result<Release, CcdpError> {
        self.release(arena.into(), rng, Some(profiler))
    }

    /// The one release path: spend the node-count slice and release `|V|`
    /// with sensitivity 1, then hand everything that remains of the same
    /// accountant to the spanning-forest stage.
    ///
    /// The node-count release draws one word from `rng` before the
    /// spanning-forest stage's two, so a full release consumes exactly three
    /// words in a fixed order.
    fn release<R: Rng + ?Sized>(
        &self,
        arena: ArenaRef<'_>,
        rng: &mut R,
        profiler: Option<&PhaseProfiler>,
    ) -> Result<Release, CcdpError> {
        let epsilon = self.config.epsilon();
        let mut budget = PrivacyBudget::new(epsilon);
        let eps_count = budget.spend(
            "node-count",
            epsilon * EstimatorConfig::DEFAULT_NODE_COUNT_FRACTION,
        )?;
        if let Some(ctx) = &self.config.obs().trace {
            ctx.event_full(ccdp_obs::SpanKind::NoiseDraw, std::time::Duration::ZERO, 1);
        }
        let node_count_estimate =
            laplace_mechanism(arena.get().num_vertices() as f64, 1.0, eps_count, rng);

        let sf_release = self
            .spanning_forest
            .release(arena, &mut budget, rng, profiler)?;
        let sf_value = sf_release.value();
        let mut diagnostics = sf_release
            .into_diagnostics(crate::release::DiagnosticsAccess::acknowledge_non_private());
        diagnostics.node_count_estimate = Some(node_count_estimate);
        diagnostics.spanning_forest_estimate = Some(sf_value);
        diagnostics.budget_ledger = budget.ledger().to_vec();

        Ok(Release::new(
            node_count_estimate - sf_value,
            Privacy::NodeDp { epsilon },
            Self::NAME,
            diagnostics,
        ))
    }
}

impl Estimator for PrivateCcEstimator {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn privacy(&self) -> Privacy {
        Privacy::NodeDp {
            epsilon: self.config.epsilon(),
        }
    }

    fn estimate(&self, g: &Graph, rng: &mut dyn RngCore) -> Result<Release, CcdpError> {
        PrivateCcEstimator::estimate(self, g, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::release::DiagnosticsAccess;
    use ccdp_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn token() -> DiagnosticsAccess {
        DiagnosticsAccess::acknowledge_non_private()
    }

    #[test]
    fn estimator_is_reasonably_accurate_on_star_forests() {
        // Δ* = 3 for this family, so errors should be O(Δ* ln ln n / ε) ≪ f_cc.
        let mut rng = StdRng::seed_from_u64(100);
        let g = generators::planted_star_forest(40, 3, 20);
        let est = PrivateSpanningForestEstimator::new(1.0).unwrap();
        let truth = g.spanning_forest_size() as f64;
        let mut total_err = 0.0;
        let runs = 20;
        for _ in 0..runs {
            let r = est.estimate(&g, &mut rng).unwrap();
            total_err += (r.value() - truth).abs();
        }
        let mean_err = total_err / runs as f64;
        assert!(
            mean_err < 60.0,
            "mean error {mean_err} too large for a Δ*=3 instance"
        );
    }

    #[test]
    fn selected_delta_is_small_for_low_degree_graphs() {
        let mut rng = StdRng::seed_from_u64(101);
        let g = generators::planted_star_forest(60, 2, 0);
        let est = PrivateSpanningForestEstimator::new(2.0).unwrap();
        let mut small = 0;
        for _ in 0..10 {
            let r = est.estimate(&g, &mut rng).unwrap();
            if r.diagnostics(token()).selected_delta.unwrap() <= 8 {
                small += 1;
            }
        }
        assert!(
            small >= 8,
            "GEM selected a large Δ too often ({small}/10 small)"
        );
    }

    #[test]
    fn csr_release_is_bitwise_identical_to_graph_release() {
        // The CSR entry points must release the exact bits the Graph path
        // does for the same RNG stream: same family values, same GEM draw,
        // same Laplace sample — with and without the family cache.
        let g = generators::erdos_renyi(600, 1.3 / 600.0, &mut StdRng::seed_from_u64(77));
        let arena = CsrGraph::from_graph(&g);
        for caching in [true, false] {
            let config = EstimatorConfig::new(1.0).with_family_caching(caching);
            let sf = PrivateSpanningForestEstimator::from_config(config.clone()).unwrap();
            let base = sf.estimate(&g, &mut StdRng::seed_from_u64(9)).unwrap();
            let csr = sf
                .estimate_csr(&arena, &mut StdRng::seed_from_u64(9))
                .unwrap();
            assert_eq!(base.value().to_bits(), csr.value().to_bits());
            let (bd, cd) = (base.diagnostics(token()), csr.diagnostics(token()));
            assert_eq!(bd.selected_delta, cd.selected_delta);
            assert_eq!(bd.family_values, cd.family_values);

            let cc = PrivateCcEstimator::from_config(config).unwrap();
            let base = cc.estimate(&g, &mut StdRng::seed_from_u64(10)).unwrap();
            let csr = cc
                .estimate_csr(&arena, &mut StdRng::seed_from_u64(10))
                .unwrap();
            assert_eq!(base.value().to_bits(), csr.value().to_bits());
            let shared = cc
                .estimate_csr(&Arc::new(arena.clone()), &mut StdRng::seed_from_u64(10))
                .unwrap();
            assert_eq!(base.value().to_bits(), shared.value().to_bits());
        }

        // The profiled variant is the same release and records the phases
        // (uncached, so the second release evaluates the family again).
        let est = PrivateSpanningForestEstimator::from_config(
            EstimatorConfig::new(1.0).with_family_caching(false),
        )
        .unwrap();
        let profiler = ccdp_exec::PhaseProfiler::new();
        let plain = est
            .estimate_csr(&arena, &mut StdRng::seed_from_u64(11))
            .unwrap();
        let profiled = est
            .estimate_csr_profiled(&arena, &mut StdRng::seed_from_u64(11), &profiler)
            .unwrap();
        assert_eq!(plain.value().to_bits(), profiled.value().to_bits());
        let phases: Vec<String> = profiler.report().into_iter().map(|p| p.name).collect();
        assert!(phases.iter().any(|p| p == "release/mechanisms"));
        assert!(phases.iter().any(|p| p == "release/true-value"));
        assert!(phases.iter().any(|p| p == "family/partition"));
    }

    #[test]
    fn cc_estimator_matches_identity() {
        let mut rng = StdRng::seed_from_u64(102);
        let g = generators::planted_star_forest(30, 2, 10);
        let est = PrivateCcEstimator::new(1.0).unwrap();
        let r = est.estimate(&g, &mut rng).unwrap();
        let d = r.diagnostics(token());
        let identity = d.node_count_estimate.unwrap() - d.spanning_forest_estimate.unwrap();
        assert!((r.value() - identity).abs() < 1e-9);
        let truth = g.num_connected_components() as f64;
        // Very loose sanity bound: the estimate is in the right ballpark.
        assert!(
            (r.value() - truth).abs() < 80.0,
            "estimate {} vs truth {}",
            r.value(),
            truth
        );
    }

    #[test]
    fn empty_graph_takes_the_standard_path() {
        let mut rng = StdRng::seed_from_u64(103);
        let g = ccdp_graph::Graph::new(0);
        let est = PrivateSpanningForestEstimator::new(1.0).unwrap();
        let r = est.estimate(&g, &mut rng).unwrap();
        assert!(r.value().abs() < 50.0);
        let d = r.diagnostics(token()).clone();
        // Same release/diagnostics shape as the non-empty path: the grid
        // degenerates to {1}, β comes from the shared default, the ledger
        // records both stages.
        assert_eq!(d.selected_delta, Some(1));
        assert_eq!(d.extension_value, Some(0.0));
        assert_eq!(d.family_values, vec![(1, 0.0)]);
        assert_eq!(d.beta, Some(EstimatorConfig::new(1.0).resolved_beta(0)));
        assert_eq!(d.noise_scale, Some(1.0 / 0.5));
        assert_eq!(d.budget_ledger.len(), 2);
    }

    #[test]
    fn noise_scale_reflects_selected_delta() {
        let mut rng = StdRng::seed_from_u64(104);
        let g = generators::star(20);
        let est = PrivateSpanningForestEstimator::new(1.0).unwrap();
        let r = est.estimate(&g, &mut rng).unwrap();
        let d = r.diagnostics(token());
        assert!((d.noise_scale.unwrap() - d.selected_delta.unwrap() as f64 / 0.5).abs() < 1e-9);
    }

    #[test]
    fn family_values_are_monotone_and_bounded_by_fsf() {
        let mut rng = StdRng::seed_from_u64(105);
        let g = generators::caveman(4, 4);
        let est = PrivateSpanningForestEstimator::new(1.0).unwrap();
        let r = est.estimate(&g, &mut rng).unwrap();
        let fsf = g.spanning_forest_size() as f64;
        let d = r.diagnostics(token());
        for w in d.family_values.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-9);
        }
        for &(_, v) in &d.family_values {
            assert!(v <= fsf + 1e-6);
        }
    }

    #[test]
    fn delta_max_override_limits_grid() {
        let mut rng = StdRng::seed_from_u64(106);
        let g = generators::path(50);
        let est = PrivateSpanningForestEstimator::from_config(
            EstimatorConfig::new(1.0).with_delta_max(4),
        )
        .unwrap();
        let r = est.estimate(&g, &mut rng).unwrap();
        let d = r.diagnostics(token());
        assert!(d.family_values.iter().all(|&(delta, _)| delta <= 4));
        assert!(d.selected_delta.unwrap() <= 4);
    }

    #[test]
    fn releases_are_identical_for_every_thread_budget() {
        let g = generators::planted_star_forest(40, 3, 20);
        let baseline_cfg = EstimatorConfig::new(1.0).with_threads(1);
        let mut rng = StdRng::seed_from_u64(2024);
        let baseline = PrivateCcEstimator::from_config(baseline_cfg)
            .unwrap()
            .estimate(&g, &mut rng)
            .unwrap();
        for threads in [2usize, 4, 8] {
            let cfg = EstimatorConfig::new(1.0).with_threads(threads);
            let mut rng = StdRng::seed_from_u64(2024);
            let r = PrivateCcEstimator::from_config(cfg)
                .unwrap()
                .estimate(&g, &mut rng)
                .unwrap();
            assert_eq!(
                baseline.value().to_bits(),
                r.value().to_bits(),
                "threads={threads}"
            );
            assert_eq!(
                baseline.diagnostics(token()).selected_delta,
                r.diagnostics(token()).selected_delta
            );
        }
    }

    #[test]
    fn invalid_epsilon_is_a_typed_error_not_a_panic() {
        let err = PrivateSpanningForestEstimator::new(-1.0).unwrap_err();
        assert_eq!(err, ConfigError::InvalidEpsilon { value: -1.0 });
        let err = PrivateCcEstimator::new(f64::NAN).unwrap_err();
        assert!(matches!(err, ConfigError::InvalidEpsilon { .. }));
    }

    #[test]
    fn budget_ledger_accounts_the_advertised_epsilon() {
        let mut rng = StdRng::seed_from_u64(107);
        let g = generators::planted_star_forest(20, 2, 5);
        let est = PrivateCcEstimator::new(2.0).unwrap();
        let r = est.estimate(&g, &mut rng).unwrap();
        let ledger = &r.diagnostics(token()).budget_ledger;
        assert_eq!(ledger.len(), 3, "node-count + gem + laplace stages");
        let spent: f64 = ledger.iter().map(|(_, e)| e).sum();
        assert!(
            (spent - 2.0).abs() < 1e-9,
            "ledger {ledger:?} must sum to ε"
        );
    }

    #[test]
    fn the_three_stage_split_fits_its_budget_at_every_scale() {
        // Node count, GEM and Laplace draw ε·f, then half of the remainder
        // twice; rounding must never push the lifetime total past the slack
        // the accountant grants.
        let g = generators::planted_star_forest(4, 2, 3);
        for epsilon in [1e-3, 1.0, 1e6] {
            let mut rng = StdRng::seed_from_u64(109);
            let est = PrivateCcEstimator::new(epsilon).unwrap();
            let r = est.estimate(&g, &mut rng).unwrap();
            assert_eq!(
                r.diagnostics(token()).budget_ledger.len(),
                3,
                "ε = {epsilon}"
            );
        }
    }

    /// Counts the words a release draws from the source generator.
    struct CountingRng {
        inner: StdRng,
        words: usize,
    }

    impl RngCore for CountingRng {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn releases_draw_a_fixed_number_of_noise_words() {
        // GEM plus Laplace for the spanning forest; one more Laplace word for
        // the node count. The count must not depend on the graph.
        let graphs = [
            Graph::new(0),
            generators::path(1),
            generators::planted_star_forest(20, 3, 5),
            generators::erdos_renyi(300, 1.5 / 300.0, &mut StdRng::seed_from_u64(3)),
        ];
        let sf = PrivateSpanningForestEstimator::new(1.0).unwrap();
        let cc = PrivateCcEstimator::new(1.0).unwrap();
        for (i, g) in graphs.iter().enumerate() {
            let mut rng = CountingRng {
                inner: StdRng::seed_from_u64(i as u64),
                words: 0,
            };
            sf.estimate(g, &mut rng).unwrap();
            assert_eq!(rng.words, 2, "spanning-forest release on graph {i}");
            rng.words = 0;
            cc.estimate(g, &mut rng).unwrap();
            assert_eq!(rng.words, 3, "connected-components release on graph {i}");
        }
    }
}
