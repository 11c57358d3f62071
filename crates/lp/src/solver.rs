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
//!   generation for the irreducible fractional core. It backs
//!   `forest_polytope_max` and is the bitwise oracle of the engine.
//! * [`SimplexSolver`] — the independent LP oracle: one LP per connected
//!   component with no combinatorial reductions, cutting planes paired with
//!   the column-generation lower bound.
//!
//! Both decompose per connected component (the objective and every
//! constraint of `P_Δ(G)` do) and return the same [`PolytopeSolution`].
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

    /// Adds `other`'s LP work counters (cuts, pivots, solves, fallbacks) to
    /// `self`'s.
    pub(crate) fn add_lp_work(&mut self, other: &PolytopeSolution) {
        self.generated_cuts += other.generated_cuts;
        self.lp_iterations += other.lp_iterations;
        self.lp_solves += other.lp_solves;
        self.lp_fallback_components += other.lp_fallback_components;
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
        total.add_lp_work(&sol);
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
