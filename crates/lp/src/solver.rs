//! The reference solvers for the Δ-bounded forest polytope.
//!
//! The paper's Lipschitz extension `f_Δ(G)` is the maximum of `x(E)` over the
//! polytope `P_Δ(G)` (Definition 3.1): `x ≥ 0`, `x(E[S]) ≤ |S| − 1` for every
//! vertex set `S`, and `x(δ(v)) ≤ Δ` for every vertex. Any exact maximizer
//! gives the same value, so the estimators run one engine — the CSR-native
//! [`solve_partition`](crate::solve_partition) — and this module keeps two
//! independent exact solvers on adjacency-list [`Graph`]s as its oracles:
//!
//! * [`CombinatorialSolver`] — the reduction loop the engine replicates
//!   (fractional leaf peeling with δ-capping, exhausted-vertex elimination,
//!   Kruskal-style capped greedy over the graphic matroid, and the
//!   local-repair spanning-forest construction of Lemma 1.8), with column
//!   generation for the irreducible fractional core. It backs
//!   `forest_polytope_max` and is the bitwise oracle of the engine.
//! * [`SimplexSolver`] — the independent LP oracle: one LP per connected
//!   component with no combinatorial reductions, cutting planes paired with
//!   the column-generation lower bound (pure cutting planes available via
//!   [`SimplexSolver::pure_cutting_planes`]).
//!
//! Both decompose per connected component (the objective and every
//! constraint of `P_Δ(G)` do) and return the same [`PolytopeSolution`].

use crate::cutting_plane;
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
    /// Optimal edge weights, indexed like [`Graph::edge_vec`].
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

    /// Folds a component-local solution into `self` using the component's
    /// local edge list and the local→global vertex map.
    fn absorb_component(
        &mut self,
        local: &Graph,
        map: &[usize],
        sol: PolytopeSolution,
        edge_index: &std::collections::HashMap<(usize, usize), usize>,
    ) {
        self.value += sol.value;
        self.add_lp_work(&sol);
        for ((lu, lv), w) in local.edge_vec().into_iter().zip(sol.edge_weights) {
            let (gu, gv) = (map[lu], map[lv]);
            let key = if gu < gv { (gu, gv) } else { (gv, gu) };
            self.edge_weights[edge_index[&key]] = w;
        }
    }
}

/// Shared driver: validates `delta`, splits `g` into connected components and
/// folds per-component solutions (computed by `solve_component`) back into a
/// whole-graph [`PolytopeSolution`].
pub(crate) fn solve_per_component<F>(
    g: &Graph,
    delta: f64,
    mut solve_component: F,
) -> Result<PolytopeSolution, PolytopeError>
where
    F: FnMut(&Graph) -> Result<PolytopeSolution, PolytopeError>,
{
    if delta <= 0.0 || !delta.is_finite() {
        return Err(PolytopeError::InvalidDelta { delta });
    }
    let all_edges = g.edge_vec();
    let edge_index: std::collections::HashMap<(usize, usize), usize> = all_edges
        .iter()
        .copied()
        .enumerate()
        .map(|(i, e)| (e, i))
        .collect();

    let mut total = PolytopeSolution::zero(all_edges.len());
    for comp in components(g) {
        if comp.len() < 2 {
            continue;
        }
        let (local, map) = induced_subgraph(g, &comp);
        if local.has_no_edges() {
            continue;
        }
        let sol = solve_component(&local)?;
        total.absorb_component(&local, &map, sol, &edge_index);
    }
    Ok(total)
}

/// The independent LP oracle: cutting planes over the warm-started incremental
/// simplex, one LP per connected component (no combinatorial reductions).
///
/// By default each component LP pairs the cutting-plane upper bound with the
/// column-generation lower bound — the same combined engine the combinatorial
/// solver uses on its irreducible cores — so the oracle does not stall on
/// the rank-bound face of large supercritical cores. The historical
/// pure-cutting-plane behavior remains available through
/// [`SimplexSolver::pure_cutting_planes`] for cross-validating the cut engine
/// in isolation.
#[derive(Clone, Debug)]
pub struct SimplexSolver {
    max_rounds: usize,
    max_cuts_per_round: usize,
    bound_pairing: bool,
}

impl SimplexSolver {
    /// The oracle with default limits and column-generation bound pairing.
    pub const fn new() -> Self {
        SimplexSolver {
            max_rounds: cutting_plane::MAX_ROUNDS,
            max_cuts_per_round: cutting_plane::MAX_CUTS_PER_ROUND,
            bound_pairing: true,
        }
    }

    /// The historical reference behavior: cutting planes only, no
    /// column-generation lower bound. Viable on small and medium instances;
    /// can stall on the rank-bound face of large supercritical cores.
    pub const fn pure_cutting_planes() -> Self {
        SimplexSolver {
            max_rounds: cutting_plane::MAX_ROUNDS,
            max_cuts_per_round: cutting_plane::MAX_CUTS_PER_ROUND,
            bound_pairing: false,
        }
    }

    /// Maximizes `x(E)` over `P_Δ(G)`. `delta` may be fractional — the
    /// polytope is defined for any `Δ > 0`.
    pub fn solve(&self, g: &Graph, delta: f64) -> Result<PolytopeSolution, PolytopeError> {
        solve_per_component(g, delta, |local| self.solve_local(local, delta))
    }

    fn solve_local(&self, local: &Graph, delta: f64) -> Result<PolytopeSolution, PolytopeError> {
        let caps = vec![delta; local.num_vertices()];
        if self.bound_pairing {
            crate::column_generation::solve_component_with_caps(local, &caps)
        } else {
            cutting_plane::solve_component_with_caps(
                local,
                &caps,
                self.max_rounds,
                self.max_cuts_per_round,
            )
        }
    }
}

impl Default for SimplexSolver {
    fn default() -> Self {
        Self::new()
    }
}

pub use crate::combinatorial::CombinatorialSolver;
