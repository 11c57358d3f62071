//! The pluggable solver layer for the Δ-bounded forest polytope.
//!
//! The paper's Lipschitz extension `f_Δ(G)` is the maximum of `x(E)` over the
//! polytope `P_Δ(G)` (Definition 3.1): `x ≥ 0`, `x(E[S]) ≤ |S| − 1` for every
//! vertex set `S`, and `x(δ(v)) ≤ Δ` for every vertex. Everything upstream
//! (extension family, private estimators, benches) only needs *some* exact
//! maximizer, so the choice of algorithm is abstracted behind the
//! [`PolytopeSolver`] trait with two interchangeable backends:
//!
//! * [`CombinatorialSolver`] (the default) — graph-algorithm-speed solver
//!   built from exact combinatorial reductions (fractional leaf peeling with
//!   δ-capping, exhausted-vertex elimination, Kruskal-style capped greedy over
//!   the graphic matroid, and the local-repair spanning-forest construction of
//!   Lemma 1.8). Every reduction is justified by an exchange argument or a
//!   matching upper-bound certificate, so the backend is exact; only the
//!   irreducible fractional core of a component — typically a small remnant of
//!   its 2-core — falls back to the cutting-plane engine.
//! * [`SimplexSolver`] — the reference backend: one LP per connected
//!   component with no combinatorial reductions, cutting planes paired with
//!   the column-generation lower bound (pure cutting planes available via
//!   [`SimplexSolver::pure_cutting_planes`]).
//!
//! Both backends decompose per connected component (the objective and every
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
        self.generated_cuts += sol.generated_cuts;
        self.lp_iterations += sol.lp_iterations;
        self.lp_solves += sol.lp_solves;
        self.lp_fallback_components += sol.lp_fallback_components;
        for ((lu, lv), w) in local.edge_vec().into_iter().zip(sol.edge_weights) {
            let (gu, gv) = (map[lu], map[lv]);
            let key = if gu < gv { (gu, gv) } else { (gv, gu) };
            self.edge_weights[edge_index[&key]] = w;
        }
    }
}

/// An exact maximizer of `x(E)` over the Δ-bounded forest polytope `P_Δ(G)`.
///
/// Implementations must return the true LP optimum (all backends are exact;
/// they differ in *how* they get there and how fast). The returned
/// [`PolytopeSolution::edge_weights`] must be a feasible point of `P_Δ(G)`
/// attaining [`PolytopeSolution::value`].
pub trait PolytopeSolver: std::fmt::Debug + Send + Sync {
    /// A short, stable backend name (used in logs and diagnostics).
    fn name(&self) -> &'static str;

    /// Maximizes `x(E)` over `P_Δ(G)`. `delta` may be fractional — the
    /// polytope is defined for any `Δ > 0` — although the paper's algorithm
    /// only uses integer values.
    fn solve(&self, g: &Graph, delta: f64) -> Result<PolytopeSolution, PolytopeError>;
}

/// Selects one of the built-in [`PolytopeSolver`] backends by name.
///
/// This is the value carried by estimator configurations: it is `Copy`,
/// comparable and has a stable `Debug` form, while still resolving to a
/// `&'static dyn PolytopeSolver` for dispatch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SolverBackend {
    /// Combinatorial reductions with a cutting-plane fallback (the default).
    #[default]
    Combinatorial,
    /// Pure warm-started cutting planes (the reference backend).
    Simplex,
}

static COMBINATORIAL: CombinatorialSolver = CombinatorialSolver::new();
static SIMPLEX: SimplexSolver = SimplexSolver::new();

impl SolverBackend {
    /// The backend instance this selector names.
    pub fn solver(self) -> &'static dyn PolytopeSolver {
        match self {
            SolverBackend::Combinatorial => &COMBINATORIAL,
            SolverBackend::Simplex => &SIMPLEX,
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

/// The reference backend: cutting planes over the warm-started incremental
/// simplex, one LP per connected component (no combinatorial reductions).
///
/// By default each component LP pairs the cutting-plane upper bound with the
/// column-generation lower bound — the same combined engine the combinatorial
/// backend uses on its irreducible cores — so the backend no longer stalls on
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
    /// The backend with default limits and column-generation bound pairing.
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

    /// Whether this instance pairs cuts with column-generation bounds.
    pub fn bound_pairing(&self) -> bool {
        self.bound_pairing
    }
}

impl Default for SimplexSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl PolytopeSolver for SimplexSolver {
    fn name(&self) -> &'static str {
        if self.bound_pairing {
            "simplex-cutting-planes"
        } else {
            "simplex-pure-cutting-planes"
        }
    }

    fn solve(&self, g: &Graph, delta: f64) -> Result<PolytopeSolution, PolytopeError> {
        solve_per_component(g, delta, |local| self.solve_local(local, delta))
    }
}

impl SimplexSolver {
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

pub use crate::combinatorial::CombinatorialSolver;
