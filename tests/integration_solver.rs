//! Integration tests for the solver layer and the family cache through the
//! public facade: the extension and the family engine against the
//! independent simplex oracle, cache-correctness (cached and uncached
//! `estimate()` agree exactly) and cache observability.

use ccdp::prelude::*;
use ccdp_lp::{CombinatorialSolver, SimplexSolver};
use std::sync::Arc;

fn diagnostics(r: &Release) -> &Diagnostics {
    r.diagnostics(DiagnosticsAccess::acknowledge_non_private())
}

#[test]
fn cached_and_uncached_estimates_match_exactly() {
    // The family evaluation is deterministic, so with identical RNG seeds a
    // caching estimator and a cache-disabled estimator must produce the same
    // release value and the same diagnostics — on every repeat.
    let mut rng_a = StdRng::seed_from_u64(21);
    let mut rng_b = StdRng::seed_from_u64(21);
    let mut rng_gen = StdRng::seed_from_u64(5);
    let g = generators::erdos_renyi(60, 2.5 / 60.0, &mut rng_gen);

    let cached = PrivateSpanningForestEstimator::from_config(EstimatorConfig::new(1.0)).unwrap();
    let uncached = PrivateSpanningForestEstimator::from_config(
        EstimatorConfig::new(1.0).with_family_caching(false),
    )
    .unwrap();
    for _ in 0..3 {
        let ra = cached.estimate(&g, &mut rng_a).unwrap();
        let rb = uncached.estimate(&g, &mut rng_b).unwrap();
        assert_eq!(ra.value(), rb.value());
        assert_eq!(diagnostics(&ra), diagnostics(&rb));
    }
    // The caching estimator actually hit its cache after the first call.
    let stats = cached.family_cache().unwrap().stats();
    assert_eq!(stats.misses, 1, "one family evaluation expected");
    assert_eq!(stats.hits, 2, "two replays expected");
}

#[test]
fn shared_cache_serves_a_fleet() {
    let shared = Arc::new(ExtensionCache::default());
    let config = EstimatorConfig::new(1.0).with_shared_family_cache(Arc::clone(&shared));
    let a = PrivateSpanningForestEstimator::from_config(config.clone()).unwrap();
    let b = PrivateSpanningForestEstimator::from_config(config).unwrap();
    let g = generators::caveman(5, 4);
    let mut rng = StdRng::seed_from_u64(31);
    a.estimate(&g, &mut rng).unwrap();
    b.estimate(&g, &mut rng).unwrap();
    let stats = shared.stats();
    assert_eq!(
        (stats.misses, stats.hits),
        (1, 1),
        "second estimator must reuse the first one's family evaluation"
    );
}

#[test]
fn backends_agree_through_the_lipschitz_extension() {
    // The extension and the independent simplex oracle give the same f_Δ,
    // and the family engine the estimators run agrees with them: same family
    // values ⇒ identical releases, whichever exact solver computed them.
    let mut rng_gen = StdRng::seed_from_u64(9);
    let g = generators::erdos_renyi(80, 3.0 / 80.0, &mut rng_gen);
    let grid = [1usize, 2, 4, 8];
    let family = evaluate_family(&CsrGraph::from_graph(&g), &grid, 1, None, None).unwrap();
    for (&delta, eval) in grid.iter().zip(&family) {
        let comb = LipschitzExtension::new(delta).evaluate(&g).unwrap();
        let simp = SimplexSolver::new().solve(&g, delta as f64).unwrap().value;
        assert!(
            (comb - simp).abs() < 1e-6,
            "solvers disagreed at Δ={delta}: {comb} vs {simp}"
        );
        assert!(
            (eval.value - simp).abs() < 1e-6,
            "family engine disagreed at Δ={delta}: {} vs {simp}",
            eval.value
        );
    }
}

#[test]
fn direct_polytope_api_exposes_both_backends() {
    let g = generators::complete(6);
    let comb = CombinatorialSolver::new().solve(&g, 2.0).unwrap();
    let simp = SimplexSolver::new().solve(&g, 2.0).unwrap();
    assert!((comb.value - simp.value).abs() < 1e-6);
    assert!((comb.value - 5.0).abs() < 1e-5);
}
