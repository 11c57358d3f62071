//! Dantzig–Wolfe column generation for the Δ-bounded forest polytope, and
//! the combined dual-bound engine used by the combinatorial solver.
//!
//! The forest polytope is integral: it is exactly the convex hull of the
//! indicator vectors of forests. Maximizing `x(E)` over it intersected with
//! degree capacities is therefore the small LP
//!
//! ```text
//! max Σ_F λ_F |F|   s.t.   Σ_F λ_F deg_F(v) ≤ cap_v  (∀v),
//!                          Σ_F λ_F ≤ 1,   λ ≥ 0,
//! ```
//!
//! over one variable per *forest* — exponentially many, but handled by
//! column generation: the master LP only ever holds the forests generated so
//! far, and the pricing problem "find the forest of maximum reduced cost
//! `Σ_{e=(u,v) ∈ F} (1 − y_u − y_v) − μ`" is a maximum-weight forest, solved
//! exactly by Kruskal's greedy over the graphic matroid. When no forest
//! prices positive, LP duality certifies the master optimum over the *whole*
//! polytope.
//!
//! Column generation and cutting planes fail on complementary regimes:
//!
//! * when the optimum sits on the massively symmetric rank-bound face
//!   (supercritical Erdős–Rényi cores), cutting planes stall fencing
//!   exponentially many cycle-heavy integral points, while a handful of
//!   mixed forest columns reach the bound immediately;
//! * when the optimum is fractional and below the rank bound, cuts bind and
//!   converge quickly, while column generation tails off.
//!
//! Each engine also produces a valid bound at every step — the master value
//! is a **lower** bound (its solution is a feasible point), a fresh
//! relaxation solve an **upper** bound — so `solve_component_with_caps`
//! interleaves the two, cost-balanced by pivots spent, and stops as soon as
//! either engine terminates exactly or the bounds meet.

use crate::cutting_plane::CuttingPlaneState;
use crate::simplex::IncrementalSimplex;
use crate::solver::{PolytopeError, PolytopeSolution};
use ccdp_graph::unionfind::UnionFind;
use ccdp_graph::Graph;

/// A generated forest prices positive only above this threshold; on
/// termination the master value is within this of the true optimum.
const PRICE_TOL: f64 = 1e-7;

/// Bounds within this of each other certify the current feasible point.
const GAP_TOL: f64 = 1e-6;

/// Hard bound on combined engine steps (a stall backstop far above need).
const MAX_STEPS: usize = 6000;

/// Per-round cut budget of the embedded cutting-plane engine.
const CUTS_PER_ROUND: usize = 64;

/// Pieces with more than this many vertices + edges run column generation
/// alone: the cutting-plane engine's dense tableau (one variable per edge)
/// is quadratic in the piece, and so is its per-root separation oracle on
/// supports with cycles (a forest-supported point is certified in one
/// union-find pass), which is what capped the release pipeline at n = 10⁶.
/// Column generation terminates on its own via the pricing certificate; the
/// pieces this large in practice (peeled 2-cores of supercritical ER giants)
/// have few binding capacities, which keeps its master tiny.
///
/// Series contraction brings the n = 10⁷ release's Δ = 4 piece to 3 763
/// vertices and 4 029 edges (7 792 work units), which this bound admits:
/// paired with cutting planes that piece solves in ≈ 1 s to a verified
/// integral optimum. Alone, column generation took 3.5–4.7 s there and its
/// warm master drifted to a point that breaks the degree caps.
const CUT_ENGINE_MAX_WORK: usize = 8192;

/// Stepwise column generation over forests for one connected component with
/// per-vertex degree capacities.
struct ColumnGenState {
    edges: Vec<(usize, usize)>,
    caps: Vec<f64>,
    /// Master row index of each vertex, or `usize::MAX` for vertices whose
    /// capacity constraint is redundant (`cap_v ≥ deg_v`): every column is a
    /// forest, so `Σ_F λ_F deg_F(v) ≤ deg_v` holds for any convex
    /// combination, the constraint can never bind and its dual is exactly 0.
    /// Skipping those rows keeps the master at the scale of the *binding*
    /// vertices — on peeled ER-giant cores a few percent of the piece.
    row_of_vertex: Vec<usize>,
    /// Number of vertex rows in the master (the convexity row comes after).
    rows: usize,
    /// Generated forests (sorted edge-index lists).
    columns: Vec<Vec<usize>>,
    seen: std::collections::HashSet<Vec<usize>>,
    /// The master LP, kept **warm across rounds**: each priced forest enters
    /// via [`IncrementalSimplex::add_variable`] and re-solves with a few
    /// primal pivots. Rebuilding the master from scratch every round made
    /// each step quadratic in the column pool — on the thousand-row masters
    /// of peeled 10⁷-scale giants that was minutes per step.
    master: IncrementalSimplex,
    /// Best feasible value proven so far (master optimum).
    lower_bound: f64,
    /// Best Lagrangian upper bound proven so far: for any duals `y ≥ 0` the
    /// pricing round's exact max-weight forest gives the valid bound
    /// `Σ_v cap_v·y_v + max_F Σ_{e∈F}(1 − y_u − y_v)` — valid even on a
    /// drifted warm basis, so the driver can stop when the bounds meet.
    upper_bound: f64,
    /// Feasible point attaining `lower_bound`.
    best_point: Vec<f64>,
    lp_iterations: usize,
    lp_solves: usize,
    /// Set when pricing certifies optimality of the master.
    priced_out: bool,
    /// Set when pricing re-proposes an existing column (numerically stuck);
    /// the engine stops stepping but its bounds remain valid.
    stuck: bool,
}

impl ColumnGenState {
    fn new(g: &Graph, caps: &[f64]) -> Self {
        let mut row_of_vertex = vec![usize::MAX; g.num_vertices()];
        let mut rows = 0usize;
        for (v, slot) in row_of_vertex.iter_mut().enumerate() {
            if caps[v] < g.degree(v) as f64 {
                *slot = rows;
                rows += 1;
            }
        }
        // The empty master: one capacity row per binding vertex plus the
        // convexity row, no columns yet. Forest columns stream in one per
        // pricing round via `add_variable`.
        let mut master = IncrementalSimplex::new(&[]);
        for (v, &row) in row_of_vertex.iter().enumerate() {
            if row != usize::MAX {
                master
                    .add_constraint(&[], caps[v])
                    .expect("capacities are non-negative");
            }
        }
        master
            .add_constraint(&[], 1.0)
            .expect("convexity rhs is positive");
        ColumnGenState {
            edges: g.edge_vec(),
            caps: caps.to_vec(),
            row_of_vertex,
            rows,
            columns: Vec::new(),
            seen: std::collections::HashSet::new(),
            master,
            lower_bound: 0.0,
            upper_bound: f64::INFINITY,
            best_point: vec![0.0; g.num_edges()],
            lp_iterations: 0,
            lp_solves: 0,
            priced_out: false,
            stuck: false,
        }
    }

    /// One master solve plus one pricing round.
    fn step(&mut self) -> Result<(), PolytopeError> {
        // ----- Warm master re-solve over the current columns. -----
        let sol = self.master.solve()?;
        self.lp_iterations += sol.iterations;
        self.lp_solves += 1;
        if sol.objective_value > self.lower_bound {
            self.lower_bound = sol.objective_value;
            let mut point = vec![0.0f64; self.edges.len()];
            for (forest, &lambda) in self.columns.iter().zip(&sol.values) {
                if lambda > 0.0 {
                    for &e in forest {
                        point[e] += lambda;
                    }
                }
            }
            self.best_point = point;
        }

        // ----- Pricing: maximum-weight forest under the master duals. -----
        // Skipped rows have dual exactly 0 (their constraints are redundant,
        // never tight), so the reduced cost of an edge only involves the
        // duals of its row endpoints.
        let duals = self.master.duals();
        let mu = duals[self.rows];
        let y = |v: usize| {
            let row = self.row_of_vertex[v];
            if row == usize::MAX {
                0.0
            } else {
                duals[row]
            }
        };
        let mut weighted: Vec<(f64, usize)> = self
            .edges
            .iter()
            .enumerate()
            .filter_map(|(i, &(a, b))| {
                let w = 1.0 - y(a) - y(b);
                (w > 0.0).then_some((w, i))
            })
            .collect();
        weighted.sort_by(|p, q| q.0.partial_cmp(&p.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut uf = UnionFind::new(self.row_of_vertex.len());
        let mut forest: Vec<usize> = Vec::new();
        let mut forest_weight = 0.0;
        for &(w, i) in &weighted {
            let (a, b) = self.edges[i];
            if uf.union(a, b) {
                forest.push(i);
                forest_weight += w;
            }
        }
        forest.sort_unstable();

        // Lagrangian bound: `(y, μ')` with `μ' = forest_weight` is dual
        // feasible for ANY `y ≥ 0` (the pricer solves the inner max
        // exactly), so this is a valid upper bound even when the warm basis
        // has drifted. It lets the driver stop on a closed gap long before
        // pricing fully dries up.
        let mut lagrangian = forest_weight;
        for (v, &row) in self.row_of_vertex.iter().enumerate() {
            if row != usize::MAX {
                lagrangian += self.caps[v] * duals[row];
            }
        }
        if lagrangian < self.upper_bound {
            self.upper_bound = lagrangian;
        }

        if forest_weight - mu <= PRICE_TOL || forest.is_empty() {
            // No forest prices positive. On a fresh factorization that
            // certifies optimality; on a drifted warm basis it might be a
            // numerical artifact, so refactorize and let the next round
            // re-price against a clean solve before certifying.
            if self.master.last_solve_was_fresh() {
                self.priced_out = true;
            } else {
                self.master.refactorize();
            }
            return Ok(());
        }
        if !self.seen.insert(forest.clone()) {
            // The pricer re-proposed an existing column: the master duals
            // are numerically off. Stop this engine; its bounds stay valid.
            self.stuck = true;
            return Ok(());
        }
        // Only degrees at row vertices matter to the master; the rest feed
        // constraints that were proven redundant above. BTreeMap keeps the
        // column's term order deterministic.
        let mut degrees = std::collections::BTreeMap::new();
        for &e in &forest {
            let (a, b) = self.edges[e];
            for v in [a, b] {
                let row = self.row_of_vertex[v];
                if row != usize::MAX {
                    *degrees.entry(row).or_insert(0.0) += 1.0;
                }
            }
        }
        let mut terms: Vec<(usize, f64)> = degrees.into_iter().collect();
        terms.push((self.rows, 1.0)); // convexity row
        self.master
            .add_variable(forest.len() as f64, f64::INFINITY, &terms);
        self.columns.push(forest);
        Ok(())
    }

    fn solution(&self, value: f64) -> PolytopeSolution {
        PolytopeSolution {
            value,
            edge_weights: self.best_point.clone(),
            generated_cuts: self.columns.len(),
            lp_iterations: self.lp_iterations,
            lp_solves: self.lp_solves,
            lp_fallback_components: 1,
        }
    }
}

/// Exactly solves one connected component with per-vertex degree capacities
/// by interleaving column generation (lower bounds) and cutting planes
/// (upper bounds), cost-balanced by pivots spent. Terminates when either
/// engine finishes exactly or when the bounds meet within [`GAP_TOL`].
pub(crate) fn solve_component_with_caps(
    g: &Graph,
    caps: &[f64],
) -> Result<PolytopeSolution, PolytopeError> {
    let n = g.num_vertices();
    debug_assert_eq!(caps.len(), n);
    let mut cg = ColumnGenState::new(g, caps);
    // Above the work threshold the cutting-plane engine is not constructed
    // at all: its dense edge-variable tableau and per-root separation oracle
    // are quadratic in the piece. Column generation terminates exactly on
    // its own (pricing certificate), just without the early bound pairing.
    let mut cp = if n + g.num_edges() <= CUT_ENGINE_MAX_WORK {
        Some(CuttingPlaneState::new(g, caps, CUTS_PER_ROUND)?)
    } else {
        None
    };
    let mut cp_alive = cp.is_some();

    for _ in 0..MAX_STEPS {
        // Step the engine that has consumed fewer pivots so far, so neither
        // pathology can dominate the wall clock.
        let cp_pivots = cp.as_ref().map_or(0, |cp| cp.lp_iterations());
        let step_cg = !cp_alive || (!cg.priced_out && !cg.stuck && cg.lp_iterations <= cp_pivots);
        if step_cg {
            cg.step()?;
        } else if let Some(cp) = cp.as_mut() {
            match cp.step(g) {
                Ok(()) => {}
                Err(PolytopeError::Lp(crate::problem::LpError::Stalled { .. })) => {
                    // The cutting-plane engine drowned numerically; column
                    // generation still carries exact termination.
                    cp_alive = false;
                }
                Err(e) => return Err(e),
            }
        }
        // Whichever engine finishes, report the *combined* work of both in
        // the solution counters (they surface in release diagnostics).
        let merge =
            |mut sol: PolytopeSolution, cg: &ColumnGenState, cp: Option<&CuttingPlaneState>| {
                sol.lp_iterations = cg.lp_iterations + cp.map_or(0, |cp| cp.lp_iterations());
                sol.lp_solves = cg.lp_solves + cp.map_or(0, |cp| cp.lp_solves());
                sol.generated_cuts = cg.columns.len() + cp.map_or(0, |cp| cp.generated_cuts());
                sol
            };
        if let Some(sol) = cp.as_mut().and_then(|cp| cp.take_finished()) {
            return Ok(merge(sol, &cg, cp.as_ref()));
        }
        if cg.priced_out {
            return Ok(merge(cg.solution(cg.lower_bound), &cg, cp.as_ref()));
        }
        if cg.stuck && !cp_alive {
            return Err(PolytopeError::Lp(crate::problem::LpError::Stalled {
                pivots: cg.lp_iterations + cp.as_ref().map_or(0, |cp| cp.lp_iterations()),
            }));
        }
        let upper = cp
            .as_ref()
            .map_or(f64::INFINITY, |cp| cp.upper_bound())
            .min(cg.upper_bound);
        if upper - cg.lower_bound <= GAP_TOL {
            // The feasible master point is within tolerance of the proven
            // relaxation bound: certified optimal.
            return Ok(merge(cg.solution(cg.lower_bound), &cg, cp.as_ref()));
        }
    }
    Err(PolytopeError::SeparationDidNotConverge { rounds: MAX_STEPS })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdp_graph::generators;

    fn value(g: &Graph, delta: f64) -> f64 {
        let caps = vec![delta; g.num_vertices()];
        solve_component_with_caps(g, &caps).unwrap().value
    }

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn known_small_values() {
        assert!(approx(value(&generators::cycle(3), 1.0), 1.5));
        assert!(approx(value(&generators::cycle(5), 1.0), 2.5));
        assert!(approx(value(&generators::cycle(6), 1.0), 3.0));
        assert!(approx(value(&generators::complete(4), 1.0), 2.0));
        assert!(approx(value(&generators::complete(4), 3.0), 3.0));
        assert!(approx(value(&generators::complete(5), 2.0), 4.0));
        assert!(approx(value(&generators::star(5), 3.0), 3.0));
    }

    #[test]
    fn heterogeneous_caps() {
        // Path a–b–c with cap 0.5 at b: optimum 0.5.
        let g = generators::path(3);
        let sol = solve_component_with_caps(&g, &[1.0, 0.5, 1.0]).unwrap();
        assert!(approx(sol.value, 0.5), "value {}", sol.value);
    }

    #[test]
    fn large_piece_runs_column_generation_alone() {
        // Two capacity-tight triangles joined by a long chain, sized past
        // CUT_ENGINE_MAX_WORK so the cutting-plane engine is skipped. The
        // optimum is integral: a spanning tree dropping one junction-incident
        // edge per triangle respects every cap, so the value is n − 1 — and
        // the pure column-generation path must certify it by pricing alone.
        let chain = 4500usize;
        let n = chain + 4;
        let mut edges: Vec<(usize, usize)> = (0..chain - 1).map(|i| (i, i + 1)).collect();
        // Triangle at the left end: {0, chain, chain+1}.
        edges.push((0, chain));
        edges.push((0, chain + 1));
        edges.push((chain, chain + 1));
        // Triangle at the right end: {chain-1, chain+2, chain+3}.
        edges.push((chain - 1, chain + 2));
        edges.push((chain - 1, chain + 3));
        edges.push((chain + 2, chain + 3));
        let g = Graph::from_edges(n, &edges);
        assert!(g.num_vertices() + g.num_edges() > CUT_ENGINE_MAX_WORK);
        let sol = solve_component_with_caps(&g, &vec![2.0; n]).unwrap();
        assert!(
            approx(sol.value, (n - 1) as f64),
            "value {} vs {}",
            sol.value,
            n - 1
        );
    }

    #[test]
    fn returned_point_is_feasible_and_attains_the_value() {
        let g = generators::complete(5);
        let sol = solve_component_with_caps(&g, &[2.0; 5]).unwrap();
        let edges = g.edge_vec();
        for &w in &sol.edge_weights {
            assert!((-1e-9..=1.0 + 1e-9).contains(&w));
        }
        for v in g.vertices() {
            let load: f64 = edges
                .iter()
                .zip(&sol.edge_weights)
                .filter(|(&(a, b), _)| a == v || b == v)
                .map(|(_, &w)| w)
                .sum();
            assert!(load <= 2.0 + 1e-6);
        }
        assert!(approx(sol.value, 4.0));
        assert!(approx(sol.edge_weights.iter().sum::<f64>(), sol.value));
    }
}
