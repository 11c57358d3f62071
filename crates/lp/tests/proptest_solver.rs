//! Cross-solver equivalence: the combinatorial solver and the cutting-plane
//! simplex oracle are both exact, so on any graph and any
//! `Δ > 0` they must agree on `max x(E)` over the Δ-bounded forest polytope
//! (within LP tolerance), and both must return feasible optimal points.

use ccdp_graph::Graph;
use ccdp_lp::{violated_forest_constraints, CombinatorialSolver, SimplexSolver};
use proptest::prelude::*;

/// A random graph encoded as (n, edge picks) so proptest can shrink it.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..12,
        proptest::collection::vec(0.0f64..1.0, 0..70),
        0.05f64..0.6,
    )
        .prop_map(|(n, picks, p)| {
            let mut g = Graph::new(n);
            let mut k = 0;
            for u in 0..n {
                for v in (u + 1)..n {
                    if let Some(&pick) = picks.get(k) {
                        if pick < p {
                            g.add_edge(u, v);
                        }
                    }
                    k += 1;
                }
            }
            g
        })
}

/// `arb_graph()` with some edges subdivided 1–6 times: long chains of
/// degree-2 vertices, the structure series contraction removes. Each pick
/// `(i, t)` replaces edge `i mod m` (if still present) by a path through `t`
/// new vertices.
fn arb_subdivided_graph() -> impl Strategy<Value = Graph> {
    (
        arb_graph(),
        proptest::collection::vec((0usize..70, 1usize..=6), 1..8),
    )
        .prop_map(|(mut g, picks)| {
            let edges = g.edge_vec();
            if edges.is_empty() {
                return g;
            }
            for (i, t) in picks {
                let (a, b) = edges[i % edges.len()];
                if !g.remove_edge(a, b) {
                    continue;
                }
                let mut prev = a;
                for _ in 0..t {
                    let v = g.add_vertex();
                    g.add_edge(prev, v);
                    prev = v;
                }
                g.add_edge(prev, b);
            }
            g
        })
}

/// Asserts that `weights` is a feasible point of `P_Δ(g)` attaining `value`.
fn assert_feasible_and_attains(g: &Graph, delta: f64, weights: &[f64], value: f64) {
    let edges = g.edge_vec();
    assert_eq!(weights.len(), edges.len());
    for &w in weights {
        assert!((-1e-6..=1.0 + 1e-6).contains(&w), "weight {w} out of box");
    }
    for v in g.vertices() {
        let load: f64 = edges
            .iter()
            .zip(weights)
            .filter(|(&(a, b), _)| a == v || b == v)
            .map(|(_, &w)| w)
            .sum();
        assert!(load <= delta + 1e-5, "degree cap violated at {v}: {load}");
    }
    assert!(
        violated_forest_constraints(g, &edges, weights).is_empty(),
        "returned point violates a forest constraint"
    );
    let total: f64 = weights.iter().sum();
    assert!(
        (total - value).abs() < 1e-5,
        "value {value} vs point {total}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn backends_agree_on_integer_delta(g in arb_graph(), delta in 1usize..6) {
        let delta = delta as f64;
        let comb = CombinatorialSolver::new().solve(&g, delta).unwrap();
        let simp = SimplexSolver::new().solve(&g, delta).unwrap();
        prop_assert!(
            (comb.value - simp.value).abs() < 1e-5,
            "combinatorial {} vs simplex {} on {:?} edges, delta {delta}",
            comb.value, simp.value, g.num_edges()
        );
        assert_feasible_and_attains(&g, delta, &comb.edge_weights, comb.value);
        assert_feasible_and_attains(&g, delta, &simp.edge_weights, simp.value);
    }

    #[test]
    fn backends_agree_on_fractional_delta(g in arb_graph(), delta in 0.3f64..5.5) {
        let comb = CombinatorialSolver::new().solve(&g, delta).unwrap();
        let simp = SimplexSolver::new().solve(&g, delta).unwrap();
        prop_assert!(
            (comb.value - simp.value).abs() < 1e-5,
            "combinatorial {} vs simplex {} at fractional delta {delta}",
            comb.value, simp.value
        );
        assert_feasible_and_attains(&g, delta, &comb.edge_weights, comb.value);
    }

    #[test]
    fn backends_agree_on_chain_subdivided_graphs(
        g in arb_subdivided_graph(),
        delta in 0.3f64..5.5,
        integral in 0u8..2,
    ) {
        // Half the cases at an integer Δ, half at a fractional one.
        let delta = if integral == 1 { delta.ceil() } else { delta };
        // The combinatorial solver contracts the chains before its LP tail
        // and expands the weights back; the simplex oracle solves the
        // subdivided graph as it is.
        let comb = CombinatorialSolver::new().solve(&g, delta).unwrap();
        let simp = SimplexSolver::new().solve(&g, delta).unwrap();
        prop_assert!(
            (comb.value - simp.value).abs() < 1e-5,
            "combinatorial {} vs simplex {} on {} vertices, delta {delta}",
            comb.value, simp.value, g.num_vertices()
        );
        assert_feasible_and_attains(&g, delta, &comb.edge_weights, comb.value);
    }

    #[test]
    fn combinatorial_value_is_monotone_in_delta(g in arb_graph()) {
        let solver = CombinatorialSolver::new();
        let mut prev = 0.0;
        for delta in [0.5, 1.0, 1.5, 2.0, 3.0, 4.0] {
            let v = solver.solve(&g, delta).unwrap().value;
            prop_assert!(v + 1e-6 >= prev, "f_Δ not monotone at {delta}");
            prev = v;
        }
    }

    #[test]
    fn bound_paired_simplex_matches_pure_cutting_planes(g in arb_graph(), delta in 1usize..5) {
        // The simplex oracle's default (cuts + column-generation
        // bounds) and its historical pure-cutting-plane mode are both exact,
        // so they must agree wherever the pure mode converges at all.
        let delta = delta as f64;
        let paired = SimplexSolver::new().solve(&g, delta).unwrap();
        let pure = SimplexSolver::pure_cutting_planes().solve(&g, delta).unwrap();
        prop_assert!(
            (paired.value - pure.value).abs() < 1e-5,
            "paired {} vs pure {} at delta {delta}",
            paired.value, pure.value
        );
        assert_feasible_and_attains(&g, delta, &paired.edge_weights, paired.value);
    }
}

/// The workload class pure cutting planes stall on: a dense supercritical
/// core whose optimum sits on the massively symmetric rank-bound face. With
/// bound pairing the simplex oracle must terminate (quickly) at the rank
/// bound `n − 1` and agree with the combinatorial solver.
#[test]
fn bound_paired_simplex_handles_supercritical_cores() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let n = 120;
    let mut rng = StdRng::seed_from_u64(23);
    let mut g = Graph::new(n);
    // ER with expected average degree 8: far supercritical, one giant core.
    let p = 8.0 / n as f64;
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    for delta in [4.0, 8.0] {
        let simp = SimplexSolver::new().solve(&g, delta).unwrap();
        let comb = CombinatorialSolver::new().solve(&g, delta).unwrap();
        assert!(
            (simp.value - comb.value).abs() < 1e-5,
            "paired simplex {} vs combinatorial {} at delta {delta}",
            simp.value,
            comb.value
        );
        assert_feasible_and_attains(&g, delta, &simp.edge_weights, simp.value);
    }
}
