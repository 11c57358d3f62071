//! The Δ-bounded forest polytope (Definition 3.1) — core-layer entry point
//! to the solvers in `ccdp_lp`.
//!
//! For a graph `G = (V, E)` and a bound `Δ > 0`, the polytope `P_Δ(G) ⊆ R^E`
//! consists of all `x ≥ 0` with
//!
//! * `x(E[S]) ≤ |S| − 1` for every `S ⊆ V`, `|S| ≥ 2`  (forest constraints),
//! * `x(δ(v)) ≤ Δ` for every vertex `v`                 (degree constraints),
//!
//! and the Lipschitz extension is `f_Δ(G) = max_{x ∈ P_Δ(G)} x(E)`.
//!
//! Any exact maximizer gives the same value, so there is no solver choice:
//! [`forest_polytope_max`] runs `ccdp_lp`'s `CombinatorialSolver` —
//! certified combinatorial reductions (fractional leaf peeling, capped
//! Kruskal greedy, Lemma 1.8 local repair) with column generation for the
//! irreducible fractional core — on an adjacency-list [`Graph`]. The
//! estimators evaluate whole Δ grids on the CSR-native engine instead (see
//! [`evaluate_family`](crate::evaluate_family)), which replicates this
//! solver bit for bit.
//!
//! Everything is per-connected-component: the objective and all constraints
//! decompose, which keeps the subproblems small.

use crate::error::CoreError;
use ccdp_graph::Graph;
use ccdp_lp::CombinatorialSolver;
pub use ccdp_lp::PolytopeSolution;

/// Maximizes `x(E)` over the Δ-bounded forest polytope of `g`.
///
/// `delta` may be fractional (the polytope is defined for any `Δ > 0`),
/// although the paper's algorithm only uses integer values.
pub fn forest_polytope_max(g: &Graph, delta: f64) -> Result<PolytopeSolution, CoreError> {
    CombinatorialSolver::new()
        .solve(g, delta)
        .map_err(CoreError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdp_graph::generators;
    use ccdp_lp::SimplexSolver;

    type Solve = fn(&Graph, f64) -> Result<PolytopeSolution, CoreError>;

    fn simplex(g: &Graph, delta: f64) -> Result<PolytopeSolution, CoreError> {
        SimplexSolver::new()
            .solve(g, delta)
            .map_err(CoreError::from)
    }

    /// Both exact solvers: the one `forest_polytope_max` runs and the
    /// independent simplex oracle.
    const SOLVERS: [(&str, Solve); 2] =
        [("combinatorial", forest_polytope_max), ("simplex", simplex)];

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn empty_graph_has_value_zero() {
        let g = Graph::new(5);
        for (_, solve) in SOLVERS {
            let sol = solve(&g, 3.0).unwrap();
            assert!(approx(sol.value, 0.0));
        }
    }

    #[test]
    fn single_edge_value_is_min_of_one_and_delta() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        for (_, solve) in SOLVERS {
            assert!(approx(solve(&g, 1.0).unwrap().value, 1.0));
            assert!(approx(solve(&g, 0.5).unwrap().value, 0.5));
            assert!(approx(solve(&g, 4.0).unwrap().value, 1.0));
        }
    }

    #[test]
    fn triangle_with_large_delta_gives_spanning_tree_size() {
        let g = generators::cycle(3);
        for (_, solve) in SOLVERS {
            let sol = solve(&g, 2.0).unwrap();
            assert!(approx(sol.value, 2.0));
        }
    }

    #[test]
    fn star_value_is_capped_by_delta() {
        // K_{1,5}: the center's degree constraint caps the objective at Δ.
        let g = generators::star(5);
        for (name, solve) in SOLVERS {
            for delta in [1.0, 2.0, 3.0, 4.0] {
                let sol = solve(&g, delta).unwrap();
                assert!(
                    approx(sol.value, delta),
                    "star value {} != delta {delta} ({name})",
                    sol.value
                );
            }
            assert!(approx(solve(&g, 5.0).unwrap().value, 5.0));
            assert!(approx(solve(&g, 7.0).unwrap().value, 5.0));
        }
    }

    #[test]
    fn complete_graph_forest_constraint_binds() {
        // K_4 with Δ = 3: without forest constraints the degree bound would allow
        // x(E) = 6, but the spanning-tree bound caps it at 3.
        let g = generators::complete(4);
        for (_, solve) in SOLVERS {
            let sol = solve(&g, 3.0).unwrap();
            assert!(approx(sol.value, 3.0), "K4 value was {}", sol.value);
            // With Δ = 1 the answer is the fractional matching bound: each vertex
            // has degree weight ≤ 1, so x(E) ≤ 4/2 = 2.
            let sol1 = solve(&g, 1.0).unwrap();
            assert!(
                approx(sol1.value, 2.0),
                "K4 with delta=1 was {}",
                sol1.value
            );
        }
    }

    #[test]
    fn two_components_decompose() {
        let g = generators::disjoint_union(&generators::cycle(3), &generators::star(3));
        for (_, solve) in SOLVERS {
            let sol = solve(&g, 2.0).unwrap();
            // Cycle contributes 2 (spanning tree), star contributes min(2, 3) = 2.
            assert!(approx(sol.value, 4.0));
        }
    }

    #[test]
    fn edge_weights_are_a_feasible_point() {
        let g = generators::complete(5);
        let delta = 2.0;
        for (_, solve) in SOLVERS {
            let sol = solve(&g, delta).unwrap();
            let edges = g.edge_vec();
            // Degree constraints.
            for v in g.vertices() {
                let total: f64 = edges
                    .iter()
                    .zip(&sol.edge_weights)
                    .filter(|(&(a, b), _)| a == v || b == v)
                    .map(|(_, &w)| w)
                    .sum();
                assert!(total <= delta + 1e-6);
            }
            // Value consistency.
            assert!(approx(sol.edge_weights.iter().sum::<f64>(), sol.value));
            // All weights within [0, 1].
            for &w in &sol.edge_weights {
                assert!((-1e-9..=1.0 + 1e-9).contains(&w));
            }
        }
    }

    #[test]
    fn value_is_monotone_in_delta() {
        let g = generators::caveman(3, 4);
        for (_, solve) in SOLVERS {
            let mut prev = 0.0;
            for delta in [1.0, 2.0, 3.0, 4.0, 5.0] {
                let v = solve(&g, delta).unwrap().value;
                assert!(v + 1e-9 >= prev, "not monotone at delta {delta}");
                prev = v;
            }
        }
    }

    #[test]
    fn value_never_exceeds_spanning_forest_size() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..10 {
            let g = generators::erdos_renyi(12, 0.3, &mut rng);
            for delta in [1.0, 2.0, 3.0] {
                let v = forest_polytope_max(&g, delta).unwrap().value;
                assert!(v <= g.spanning_forest_size() as f64 + 1e-6);
            }
        }
    }

    #[test]
    fn final_point_satisfies_every_forest_constraint() {
        // K_4 with a pendant path: the whole-vertex-set constraint is loose
        // (|V| - 1 = 7), so the degree bounds alone would allow up to 6 units of
        // weight inside the clique; the returned point must nevertheless satisfy
        // x(E[S]) ≤ |S| - 1 for every subset S — for both solvers.
        let mut g = generators::complete(4);
        for _ in 0..4 {
            g.add_vertex();
        }
        g.add_edge(3, 4);
        g.add_edge(4, 5);
        g.add_edge(5, 6);
        g.add_edge(6, 7);
        for (_, solve) in SOLVERS {
            let sol = solve(&g, 3.0).unwrap();
            assert!(
                approx(sol.value, g.spanning_forest_size() as f64),
                "value {}",
                sol.value
            );
            let edges = g.edge_vec();
            let n = g.num_vertices();
            for mask in 0u32..(1 << n) {
                let set: Vec<usize> = (0..n).filter(|&v| mask >> v & 1 == 1).collect();
                if set.len() < 2 {
                    continue;
                }
                let inside: f64 = edges
                    .iter()
                    .zip(&sol.edge_weights)
                    .filter(|(&(a, b), _)| set.contains(&a) && set.contains(&b))
                    .map(|(_, &w)| w)
                    .sum();
                assert!(
                    inside <= (set.len() - 1) as f64 + 1e-6,
                    "forest constraint violated for S = {set:?}: {inside}"
                );
            }
        }
    }

    #[test]
    fn invalid_delta_is_rejected() {
        let g = generators::path(3);
        for (_, solve) in SOLVERS {
            assert!(matches!(
                solve(&g, 0.0),
                Err(CoreError::InvalidParameter(_))
            ));
            assert!(matches!(
                solve(&g, -1.0),
                Err(CoreError::InvalidParameter(_))
            ));
        }
    }
}
