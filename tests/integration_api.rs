//! Tests for the unified estimator API: object safety of `dyn Estimator`
//! across private estimators and all four baselines, typed (panic-free)
//! configuration errors, the gated `Release` surface, and privacy-budget
//! accounting — all through the `ccdp` facade prelude.

use ccdp::prelude::*;
use proptest::prelude::*;

fn fleet(epsilon: f64) -> Vec<Box<dyn Estimator>> {
    vec![
        Box::new(PrivateCcEstimator::from_config(EstimatorConfig::new(epsilon)).unwrap()),
        Box::new(PrivateSpanningForestEstimator::new(epsilon).unwrap()),
        Box::new(NonPrivateBaseline),
        Box::new(EdgeDpBaseline::new(epsilon).unwrap()),
        Box::new(NaiveNodeDpBaseline::new(epsilon).unwrap()),
        Box::new(FixedDeltaBaseline::new(epsilon, 2).unwrap()),
    ]
}

#[test]
fn heterogeneous_estimators_serve_through_one_trait_object() {
    let g = generators::planted_star_forest(40, 2, 10);
    let mut rng = StdRng::seed_from_u64(42);
    let estimators = fleet(1.0);

    let names: std::collections::HashSet<&str> = estimators.iter().map(|e| e.name()).collect();
    assert_eq!(
        names.len(),
        estimators.len(),
        "estimator names must be distinct"
    );

    for est in &estimators {
        let release = est.estimate(&g, &mut rng).unwrap();
        assert!(
            release.value().is_finite(),
            "{} released a non-finite value",
            est.name()
        );
        assert_eq!(release.estimator(), est.name());
        assert_eq!(
            release.privacy(),
            est.privacy(),
            "{} must release under its advertised guarantee",
            est.name()
        );
    }
}

#[test]
fn release_default_surface_hides_diagnostics() {
    let g = generators::planted_star_forest(20, 2, 5);
    let mut rng = StdRng::seed_from_u64(7);
    let est = PrivateCcEstimator::new(1.0).unwrap();
    let release = est.estimate(&g, &mut rng).unwrap();

    // Logging a release must never print non-private intermediate values.
    let printed = format!("{release} / {release:?}");
    assert!(printed.contains("private-connected-components"));
    assert!(printed.contains("gated"));
    assert!(!printed.contains("family_values: [("), "{printed}");

    // The diagnostics are reachable only through the explicit token.
    let diagnostics = release.diagnostics(DiagnosticsAccess::acknowledge_non_private());
    assert!(diagnostics.selected_delta.is_some());
    assert!(!diagnostics.family_values.is_empty());
}

#[test]
fn private_and_baseline_estimators_advertise_correct_privacy() {
    let estimators = fleet(0.5);
    let epsilons: Vec<Option<f64>> = estimators.iter().map(|e| e.privacy().epsilon()).collect();
    // NonPrivateBaseline is the only estimator without an ε.
    assert_eq!(epsilons.iter().filter(|e| e.is_none()).count(), 1);
    for (est, eps) in estimators.iter().zip(&epsilons) {
        if let Some(eps) = eps {
            assert_eq!(*eps, 0.5, "{} must advertise the configured ε", est.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invalid_epsilon_yields_typed_error_not_panic(eps in -10.0f64..0.0) {
        // Covers ε < 0; ε = 0, NaN and ∞ are covered below.
        let err = EstimatorConfig::new(eps).validate().unwrap_err();
        prop_assert_eq!(err, ConfigError::InvalidEpsilon { value: eps });
        prop_assert!(PrivateCcEstimator::new(eps).is_err());
        prop_assert!(PrivateSpanningForestEstimator::new(eps).is_err());
        prop_assert!(EdgeDpBaseline::new(eps).is_err());
        prop_assert!(NaiveNodeDpBaseline::new(eps).is_err());
        prop_assert!(FixedDeltaBaseline::new(eps, 2).is_err());
    }

    #[test]
    fn valid_configs_always_build(eps in 0.01f64..50.0, delta_max in 1usize..10_000) {
        let config = EstimatorConfig::new(eps).with_delta_max(delta_max);
        prop_assert!(config.validate().is_ok());
        prop_assert!(PrivateCcEstimator::from_config(config.clone()).is_ok());
        prop_assert!(PrivateSpanningForestEstimator::from_config(config).is_ok());
    }

    #[test]
    fn privacy_budget_never_overspends(
        total in 0.05f64..20.0,
        requests in proptest::collection::vec(0.01f64..5.0, 1..12),
    ) {
        let mut budget = PrivacyBudget::new(total);
        for (i, &eps) in requests.iter().enumerate() {
            let before = budget.spent_epsilon();
            match budget.spend(&format!("stage-{i}"), eps) {
                Ok(spent) => prop_assert!((spent - eps).abs() < 1e-12),
                Err(BudgetExceeded { requested, remaining }) => {
                    // A rejected request changes nothing and was indeed too big.
                    prop_assert!((budget.spent_epsilon() - before).abs() < 1e-12);
                    prop_assert!(requested > remaining);
                }
            }
            prop_assert!(budget.spent_epsilon() <= total + 1e-9);
            prop_assert!(budget.remaining_epsilon() >= 0.0);
        }
        let ledger_total: f64 = budget.ledger().iter().map(|(_, e)| e).sum();
        prop_assert!((ledger_total - budget.spent_epsilon()).abs() < 1e-9);
    }
}

#[test]
fn degenerate_epsilons_are_rejected_without_panic() {
    for eps in [0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(
            matches!(
                EstimatorConfig::new(eps).validate(),
                Err(ConfigError::InvalidEpsilon { .. })
            ),
            "ε = {eps} must be rejected"
        );
    }
    assert!(matches!(
        EstimatorConfig::new(1.0).with_delta_max(0).validate(),
        Err(ConfigError::InvalidDeltaMax { value: 0 })
    ));
}

#[test]
fn estimator_errors_unify_under_ccdp_error() {
    // A budget failure driven through the public seam surfaces as CcdpError.
    let g = generators::planted_star_forest(5, 2, 0);
    let mut rng = StdRng::seed_from_u64(3);
    let est = PrivateSpanningForestEstimator::new(1.0).unwrap();
    let mut exhausted = PrivacyBudget::new(1.0);
    exhausted.spend("already-spent", 1.0).unwrap();
    let err = est
        .estimate_with_budget(&g, &mut exhausted, &mut rng)
        .unwrap_err();
    assert!(matches!(err, CcdpError::Budget(_)), "{err}");
    assert!(err.to_string().contains("budget"));
}
