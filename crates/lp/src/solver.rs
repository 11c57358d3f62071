//! The reference solvers for the Δ-bounded forest polytope.
//!
//! The paper's Lipschitz extension `f_Δ(G)` is the maximum of `x(E)` over the
//! polytope `P_Δ(G)` (Definition 3.1): `x ≥ 0`, `x(E[S]) ≤ |S| − 1` for every
//! vertex set `S`, and `x(δ(v)) ≤ Δ` for every vertex. Any exact maximizer
//! gives the same value, so the estimators run one engine — the CSR-native
//! [`solve_partition`](crate::solve_partition) — and this module keeps two
//! independent exact solvers on adjacency-list graphs as its oracles:
//!
//! * [`CombinatorialSolver`] — the reduction loop the engine replicates
//!   (fractional leaf peeling with δ-capping, exhausted-vertex elimination,
//!   Kruskal-style capped greedy over the graphic matroid, and the
//!   local-repair spanning-forest construction of Lemma 1.8), with column
//!   generation for the irreducible fractional core. It is the bitwise
//!   oracle of the engine.
//! * [`SimplexSolver`] — the independent LP oracle: one LP per connected
//!   component with no combinatorial reductions, cutting planes paired with
//!   the column-generation lower bound.
//!
//! Only tests and benchmarks call them. Both decompose per connected
//! component (the objective and every constraint of `P_Δ(G)` do) and return
//! the same [`PolytopeSolution`].
//! The graph stops at that split: each component reaches its solver as a
//! vertex count and a canonical edge list.

use crate::column_generation;
use crate::combinatorial::edge_position;
use crate::problem::LpError;
use ccdp_graph::components::components;
use ccdp_graph::subgraph::induced_subgraph;
use ccdp_graph::Graph;

/// Errors surfaced by the polytope solvers.
#[derive(Clone, Debug, PartialEq)]
pub enum PolytopeError {
    /// `Δ` must be positive and finite.
    InvalidDelta {
        /// The rejected value.
        delta: f64,
    },
    /// The underlying LP solver failed.
    Lp(LpError),
    /// The cutting-plane loop did not converge within its round limit.
    SeparationDidNotConverge {
        /// Number of rounds the loop ran before giving up.
        rounds: usize,
    },
}

impl std::fmt::Display for PolytopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolytopeError::InvalidDelta { delta } => {
                write!(f, "delta must be positive and finite, got {delta}")
            }
            PolytopeError::Lp(e) => write!(f, "LP solver error: {e}"),
            PolytopeError::SeparationDidNotConverge { rounds } => {
                write!(
                    f,
                    "constraint generation did not converge within {rounds} rounds"
                )
            }
        }
    }
}

impl std::error::Error for PolytopeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PolytopeError::Lp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LpError> for PolytopeError {
    fn from(e: LpError) -> Self {
        PolytopeError::Lp(e)
    }
}

/// Result of maximizing `x(E)` over the Δ-bounded forest polytope.
#[derive(Clone, Debug)]
pub struct PolytopeSolution {
    /// The optimum `f_Δ(G)`.
    pub value: f64,
    /// Optimal edge weights, in the graph's canonical edge order (pairs
    /// `(u, v)` with `u < v`, sorted).
    pub edge_weights: Vec<f64>,
    /// Number of violated forest constraints that had to be generated.
    pub generated_cuts: usize,
    /// Total simplex pivots across all LP re-solves.
    pub lp_iterations: usize,
    /// Number of LP solves (including warm-started re-solves after cuts).
    pub lp_solves: usize,
    /// Components (after combinatorial reduction) that needed the LP fallback;
    /// always equals the number of LP-solved components for [`SimplexSolver`].
    pub lp_fallback_components: usize,
}

impl PolytopeSolution {
    /// An all-zero solution for a graph with `num_edges` edges (empty polytope
    /// optimum, e.g. an edgeless graph).
    pub fn zero(num_edges: usize) -> Self {
        PolytopeSolution {
            value: 0.0,
            edge_weights: vec![0.0; num_edges],
            generated_cuts: 0,
            lp_iterations: 0,
            lp_solves: 0,
            lp_fallback_components: 0,
        }
    }

    /// Adds `times` × `other`'s LP work counters (cuts, pivots, solves,
    /// fallbacks) to `self`'s.
    pub(crate) fn add_lp_work(&mut self, other: &PolytopeSolution, times: usize) {
        self.generated_cuts += times * other.generated_cuts;
        self.lp_iterations += times * other.lp_iterations;
        self.lp_solves += times * other.lp_solves;
        self.lp_fallback_components += times * other.lp_fallback_components;
    }
}

/// Shared driver: validates `delta`, splits `g` into connected components and
/// folds per-component solutions back into a whole-graph
/// [`PolytopeSolution`]. `solve_component` gets each component with at
/// least one edge as its vertex count and canonical edge list (local ids).
pub(crate) fn solve_per_component<F>(
    g: &Graph,
    delta: f64,
    mut solve_component: F,
) -> Result<PolytopeSolution, PolytopeError>
where
    F: FnMut(usize, &[(usize, usize)]) -> Result<PolytopeSolution, PolytopeError>,
{
    if delta <= 0.0 || !delta.is_finite() {
        return Err(PolytopeError::InvalidDelta { delta });
    }
    let all_edges = g.edge_vec();
    let mut total = PolytopeSolution::zero(all_edges.len());
    for comp in components(g) {
        if comp.len() < 2 {
            continue;
        }
        let (local, map) = induced_subgraph(g, &comp);
        if local.has_no_edges() {
            continue;
        }
        let local_edges = local.edge_vec();
        let sol = solve_component(local.num_vertices(), &local_edges)?;
        total.value += sol.value;
        total.add_lp_work(&sol, 1);
        for (&(a, b), w) in local_edges.iter().zip(sol.edge_weights) {
            total.edge_weights[edge_position(&all_edges, map[a], map[b])] = w;
        }
    }
    Ok(total)
}

/// The independent LP oracle: cutting planes over the warm-started incremental
/// simplex, one LP per connected component (no combinatorial reductions).
///
/// Each component LP pairs the cutting-plane upper bound with the
/// column-generation lower bound — the same combined engine the piece solver
/// uses on its irreducible cores — so the oracle does not stall on the
/// rank-bound face of large supercritical cores.
#[derive(Clone, Debug)]
pub struct SimplexSolver {
    _private: (),
}

impl SimplexSolver {
    /// The oracle.
    pub const fn new() -> Self {
        SimplexSolver { _private: () }
    }

    /// Maximizes `x(E)` over `P_Δ(G)`. `delta` may be fractional — the
    /// polytope is defined for any `Δ > 0`.
    pub fn solve(&self, g: &Graph, delta: f64) -> Result<PolytopeSolution, PolytopeError> {
        solve_per_component(g, delta, |n, edges| {
            column_generation::solve_component_with_caps(n, edges, &vec![delta; n])
        })
    }
}

impl Default for SimplexSolver {
    fn default() -> Self {
        Self::new()
    }
}

pub use crate::combinatorial::CombinatorialSolver;

#[cfg(test)]
mod tests {
    use super::*;
    use ccdp_graph::generators;

    type Solve = fn(&Graph, f64) -> Result<PolytopeSolution, PolytopeError>;

    fn combinatorial(g: &Graph, delta: f64) -> Result<PolytopeSolution, PolytopeError> {
        CombinatorialSolver::new().solve(g, delta)
    }

    fn simplex(g: &Graph, delta: f64) -> Result<PolytopeSolution, PolytopeError> {
        SimplexSolver::new().solve(g, delta)
    }

    /// Both exact solvers: the engine's bitwise oracle and the independent
    /// simplex oracle.
    const SOLVERS: [(&str, Solve); 2] = [("combinatorial", combinatorial), ("simplex", simplex)];

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
                let v = combinatorial(&g, delta).unwrap().value;
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
                Err(PolytopeError::InvalidDelta { .. })
            ));
            assert!(matches!(
                solve(&g, -1.0),
                Err(PolytopeError::InvalidDelta { .. })
            ));
        }
    }
}
