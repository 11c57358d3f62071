//! Constraint generation for the Δ-bounded forest polytope.
//!
//! The polytope has exponentially many forest constraints
//! `x(E[S]) ≤ |S| − 1`, so the LP is solved by cutting planes: start with the
//! degree constraints, the per-edge bounds and the whole-vertex-set
//! constraint, then repeatedly ask a separation oracle for violated forest
//! constraints and re-solve. The separation problem — maximize
//! `x(E[S]) − (|S| − 1)` over sets `S` containing a fixed root — is a
//! maximum-weight-closure (project-selection) problem and is solved exactly
//! with one min-cut per root (Padberg–Wolsey's observation that this family
//! of constraints admits a polynomial separation oracle).
//!
//! The engine reads only what the LP is made of: a piece's vertex count and
//! its canonical edge list (pairs `(u, v)` with `u < v`, sorted), which is
//! also the variable order of every returned point.
//!
//! Four engine properties matter to its users:
//!
//! * **Warm starts.** One [`IncrementalSimplex`] lives for the whole
//!   cutting-plane loop; each generated cut is reduced against the current
//!   optimal basis and repaired with a few dual-simplex pivots instead of a
//!   dense from-scratch re-solve (with refactorization containing drift).
//! * **Per-vertex capacities.** The engine accepts heterogeneous degree caps
//!   `x(δ(v)) ≤ cap_v`, which is what lets the combinatorial solver peel
//!   off the easy parts of a graph exactly and hand only the irreducible
//!   core to the LP.
//! * **Valid upper bounds while running.** Every fresh relaxation solve is a
//!   proven upper bound on the true optimum, which the combined core engine
//!   in [`crate::column_generation`] pairs with the column-generation lower
//!   bound — cutting planes alone can stall on the massively symmetric
//!   rank-bound face of supercritical Erdős–Rényi cores, where the bound
//!   pairing terminates immediately.
//! * **Linear-time feasibility certificate.** A point whose support is a
//!   forest (and whose entries exceed 1 by at most the tolerance in total)
//!   satisfies every forest constraint; one union-find pass over the edges
//!   proves it and skips the per-root min-cuts, which return nothing on such
//!   a point. Integral optima of peeled cores are usually of this kind, so
//!   the oracle's cost is paid only on supports with cycles.

use crate::simplex::IncrementalSimplex;
use crate::solver::{PolytopeError, PolytopeSolution};
use ccdp_flow::{max_weight_closure, ClosureInstance};
use ccdp_graph::unionfind::UnionFind;

/// Tolerance for constraint violation in the separation oracle.
const VIOLATION_TOL: f64 = 1e-6;
/// Most-violated cuts admitted per round. With warm-started re-solves an
/// added row costs only a few dual pivots, so (unlike the old from-scratch
/// dense solver, where 5 was the measured sweet spot) a larger budget pays
/// for itself by saving whole separation rounds.
const MAX_CUTS_PER_ROUND: usize = 64;

/// Stepwise cutting-plane solver for one connected component with per-vertex
/// degree capacities (`caps[v]` is the right-hand side of `x(δ(v)) ≤ cap_v`).
/// Every capacity must be positive — exhausted vertices are expected to have
/// been eliminated by the caller.
///
/// Each [`CuttingPlaneState::step`] performs one LP (re-)solve plus one
/// separation round. The relaxation value after any *fresh* solve is a valid
/// **upper bound** on the true optimum, exposed via
/// [`CuttingPlaneState::upper_bound`] — which is what lets the combined
/// core-piece driver pair this engine with the column-generation lower bound
/// and stop when the two meet.
pub(crate) struct CuttingPlaneState<'a> {
    num_vertices: usize,
    edges: &'a [(usize, usize)],
    simplex: IncrementalSimplex,
    seen_cuts: std::collections::HashSet<Vec<usize>>,
    refactorized_in_a_row: usize,
    /// Best proven upper bound (from fresh relaxation solves only).
    upper_bound: f64,
    generated_cuts: usize,
    lp_iterations: usize,
    lp_solves: usize,
    finished: Option<PolytopeSolution>,
}

impl<'a> CuttingPlaneState<'a> {
    pub(crate) fn new(
        n: usize,
        edges: &'a [(usize, usize)],
        caps: &[f64],
    ) -> Result<Self, PolytopeError> {
        debug_assert_eq!(caps.len(), n);
        let m = edges.len();

        // Per-edge bounds (the |S| = 2 forest constraints, tightened by the
        // caps) are handled as *implicit variable bounds*, not rows: this
        // keeps the tableau one row per vertex instead of one per vertex +
        // edge, and — decisively — removes the massive ratio-test degeneracy
        // that a zero-slack row per weight-1 edge causes at near-integral
        // vertices.
        let edge_bounds: Vec<f64> = edges
            .iter()
            .map(|&(a, b)| 1.0f64.min(caps[a]).min(caps[b]))
            .collect();
        let mut simplex = IncrementalSimplex::with_upper_bounds(&vec![1.0; m], edge_bounds);
        // Degree constraints x(δ(v)) ≤ cap_v.
        for (v, &cap) in caps.iter().enumerate() {
            let terms: Vec<(usize, f64)> = edges
                .iter()
                .enumerate()
                .filter(|(_, &(a, b))| a == v || b == v)
                .map(|(i, _)| (i, 1.0))
                .collect();
            if !terms.is_empty() {
                simplex.add_constraint(&terms, cap)?;
            }
        }
        // Whole-component constraint x(E) ≤ n − 1.
        simplex.add_constraint(
            &(0..m).map(|i| (i, 1.0)).collect::<Vec<_>>(),
            (n - 1) as f64,
        )?;
        Ok(CuttingPlaneState {
            num_vertices: n,
            edges,
            simplex,
            seen_cuts: std::collections::HashSet::new(),
            refactorized_in_a_row: 0,
            upper_bound: f64::INFINITY,
            generated_cuts: 0,
            lp_iterations: 0,
            lp_solves: 0,
            finished: None,
        })
    }

    /// Simplex pivots spent so far (the driver's cost-balancing signal).
    pub(crate) fn lp_iterations(&self) -> usize {
        self.lp_iterations
    }

    /// LP solves performed so far.
    pub(crate) fn lp_solves(&self) -> usize {
        self.lp_solves
    }

    /// Cuts generated so far.
    pub(crate) fn generated_cuts(&self) -> usize {
        self.generated_cuts
    }

    /// Best proven upper bound on the component optimum.
    pub(crate) fn upper_bound(&self) -> f64 {
        self.upper_bound
    }

    /// The exact solution, once a step has converged.
    pub(crate) fn take_finished(&mut self) -> Option<PolytopeSolution> {
        self.finished.take()
    }

    /// One LP (re-)solve plus one separation round.
    pub(crate) fn step(&mut self) -> Result<(), PolytopeError> {
        let sol = self.simplex.solve()?;
        self.lp_iterations += sol.iterations;
        self.lp_solves += 1;
        if self.simplex.last_solve_was_fresh() {
            // Fresh relaxation optima are trustworthy upper bounds; warm
            // re-solves may have drifted below the true relaxation optimum
            // and must not tighten the bound.
            self.upper_bound = self.upper_bound.min(sol.objective_value);
        }

        let n = self.num_vertices;
        let mut violated = violated_forest_constraints(n, self.edges, &sol.values);
        // Near-integral optima of the relaxation are unions of paths and
        // *cycles* (degree-feasible, rank-valued, forest-infeasible); cutting
        // their support cycles directly is far more surgical than the
        // closure sets, so feed those cuts in first.
        let cycles = support_cycle_cuts(n, self.edges, &sol.values);
        if !cycles.is_empty() {
            violated.splice(0..0, cycles);
        }
        if violated.is_empty() {
            // Only accept convergence off a freshly factorized tableau: a
            // warm-started tableau can drift into declaring a feasible but
            // *suboptimal* point optimal, which the separation oracle cannot
            // detect. The extra from-scratch solve is one round's cost.
            if !self.simplex.last_solve_was_fresh() {
                self.simplex.refactorize();
                return Ok(());
            }
            self.upper_bound = self.upper_bound.min(sol.objective_value);
            self.finished = Some(PolytopeSolution {
                value: sol.objective_value,
                edge_weights: sol.values,
                generated_cuts: self.generated_cuts,
                lp_iterations: self.lp_iterations,
                lp_solves: self.lp_solves,
                lp_fallback_components: 1,
            });
            return Ok(());
        }
        let mut added = 0usize;
        for set in violated {
            if added == MAX_CUTS_PER_ROUND {
                break;
            }
            if self.seen_cuts.insert(set.clone()) {
                let terms: Vec<(usize, f64)> = self
                    .edges
                    .iter()
                    .enumerate()
                    .filter(|(_, &(a, b))| {
                        set.binary_search(&a).is_ok() && set.binary_search(&b).is_ok()
                    })
                    .map(|(i, _)| (i, 1.0))
                    .collect();
                self.simplex
                    .add_constraint(&terms, (set.len() - 1) as f64)?;
                self.generated_cuts += 1;
                added += 1;
            }
        }
        if added == 0 {
            // Every violated constraint is already a row of the LP: the
            // returned point is numerically inconsistent with its own
            // constraint system. Refactorize and re-solve on clean numbers;
            // if that does not clear the inconsistency, give up loudly
            // rather than returning a wrong optimum.
            self.refactorized_in_a_row += 1;
            if self.refactorized_in_a_row > 1 {
                return Err(PolytopeError::Lp(crate::problem::LpError::Stalled {
                    pivots: self.lp_iterations,
                }));
            }
            self.simplex.refactorize();
        } else {
            self.refactorized_in_a_row = 0;
        }
        Ok(())
    }
}

/// Separation oracle for the forest constraints: returns vertex sets `S`
/// (each sorted ascending) whose constraint `x(E[S]) ≤ |S| − 1` is violated
/// by `x`, most violated first, or an empty vector if `x` satisfies them all.
///
/// A point whose support is acyclic and whose entries exceed 1 by at most
/// the tolerance in total is accepted by `forest_supported` in one
/// union-find pass; any other point goes to `violated_by_closure`, one
/// min-cut per root. The graph is `n` vertices and the canonical edge list
/// `edges` (pairs `(u, v)` with `u < v`, sorted); `x` holds the edge
/// weights in the same order.
pub fn violated_forest_constraints(
    n: usize,
    edges: &[(usize, usize)],
    x: &[f64],
) -> Vec<Vec<usize>> {
    debug_assert_eq!(x.len(), edges.len());
    if forest_supported(n, edges, x) {
        return Vec::new();
    }
    violated_by_closure(n, edges, x)
}

/// Certificate that `x` violates no forest constraint: the support (edges
/// with `x_e` above the tolerance, as in [`violated_by_closure`]) has no
/// cycle and `excess = Σ max(0, x_e − 1)` over it is within the tolerance.
/// The support edges inside any `S` then form a forest, so
/// `x(E[S]) ≤ |S| − 1 + excess` and no root's closure can exceed the
/// tolerance — the oracle would return nothing.
fn forest_supported(n: usize, edges: &[(usize, usize)], x: &[f64]) -> bool {
    let mut uf = UnionFind::new(n);
    let mut excess = 0.0;
    for (&(a, b), &w) in edges.iter().zip(x) {
        if w <= VIOLATION_TOL {
            continue;
        }
        if !uf.union(a, b) {
            return false;
        }
        excess += (w - 1.0).max(0.0);
    }
    excess <= VIOLATION_TOL
}

/// The Padberg–Wolsey oracle: for each root `r` it solves a
/// maximum-weight-closure instance whose optimum is
/// `max_{S ∋ r} [x(E[S]) − |S| + 1]`; a positive optimum certifies a
/// violation and the optimal closure yields the violating set.
fn violated_by_closure(n: usize, edges: &[(usize, usize)], x: &[f64]) -> Vec<Vec<usize>> {
    let mut has_edge = vec![false; n];
    for &(a, b) in edges {
        has_edge[a] = true;
        has_edge[b] = true;
    }
    let mut best_per_root: Vec<(f64, Vec<usize>)> = Vec::new();

    for (root, &incident) in has_edge.iter().enumerate() {
        if !incident {
            continue;
        }
        let mut inst = ClosureInstance::new();
        // One item per non-root vertex, cost 1.
        let mut vertex_item = vec![usize::MAX; n];
        for (v, item) in vertex_item.iter_mut().enumerate() {
            if v != root {
                *item = inst.add_item(-1.0);
            }
        }
        // One item per edge with positive weight; edges incident to the root
        // only require their non-root endpoint.
        let mut useful = false;
        for (i, &(a, b)) in edges.iter().enumerate() {
            if x[i] <= VIOLATION_TOL {
                continue;
            }
            let e = inst.add_item(x[i]);
            if a != root {
                inst.add_requirement(e, vertex_item[a]);
            }
            if b != root {
                inst.add_requirement(e, vertex_item[b]);
            }
            useful = true;
        }
        if !useful {
            continue;
        }
        let closure = max_weight_closure(&inst);
        // closure.weight = max_{S ∋ root} x(E[S]) − (|S| − 1).
        if closure.weight > VIOLATION_TOL {
            let mut set: Vec<usize> = vec![root];
            for (v, &item) in vertex_item.iter().enumerate() {
                if v != root && closure.selected[item] {
                    set.push(v);
                }
            }
            set.sort_unstable();
            if set.len() >= 2 {
                best_per_root.push((closure.weight, set));
            }
        }
    }

    // Minimalize each set before ranking: removing a vertex that carries
    // less than one unit of weight inside `S` *increases* the violation
    // (`x(E[S]) − |S| + 1` gains `1 − w_v(S) > 0`), so minimal sets are both
    // smaller and strictly stronger cuts.
    for (violation, set) in &mut best_per_root {
        minimalize_violated_set(edges, x, set, violation);
    }

    // Most violated first, deduplicated (many roots find the same set).
    best_per_root.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut results: Vec<Vec<usize>> = Vec::new();
    for (_, set) in best_per_root {
        if set.len() >= 2 && !results.contains(&set) {
            results.push(set);
        }
    }
    results
}

/// Shrinks a violated set `S` to a minimal violated subset by repeatedly
/// removing vertices whose weight into the set is below 1 (each removal
/// strictly increases the violation). `violation` is updated in place.
fn minimalize_violated_set(
    edges: &[(usize, usize)],
    x: &[f64],
    set: &mut Vec<usize>,
    violation: &mut f64,
) {
    loop {
        // Weight carried by each member vertex inside the set.
        let mut inside_weight: std::collections::HashMap<usize, f64> =
            set.iter().map(|&v| (v, 0.0)).collect();
        for (i, &(a, b)) in edges.iter().enumerate() {
            if x[i] > 0.0 && set.binary_search(&a).is_ok() && set.binary_search(&b).is_ok() {
                *inside_weight.get_mut(&a).expect("member") += x[i];
                *inside_weight.get_mut(&b).expect("member") += x[i];
            }
        }
        // Remove the lightest vertex if it strengthens the cut.
        let lightest = set
            .iter()
            .map(|&v| (v, inside_weight[&v]))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        match lightest {
            Some((v, w)) if w < 1.0 - 1e-12 && set.len() > 2 => {
                *violation += 1.0 - w;
                set.retain(|&u| u != v);
            }
            _ => return,
        }
    }
}

/// Finds cycles in the near-integral support of `x` (edges with weight
/// ≥ 1 − tol) and returns their vertex sets: every such cycle `C` violates
/// its forest constraint by ≈ 1, and these cuts dispatch the cycle-heavy
/// integral optima of the relaxation wholesale.
fn support_cycle_cuts(n: usize, edges: &[(usize, usize)], x: &[f64]) -> Vec<Vec<usize>> {
    let support: Vec<usize> = (0..edges.len())
        .filter(|&i| x[i] >= 1.0 - VIOLATION_TOL)
        .collect();
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for &i in &support {
        let (a, b) = edges[i];
        adj[a].push((b, i));
        adj[b].push((a, i));
    }
    // Iterative DFS; each non-tree edge closes one fundamental cycle.
    let mut parent = vec![usize::MAX; n];
    let mut parent_edge = vec![usize::MAX; n];
    let mut state = vec![0u8; n]; // 0 = unseen, 1 = on stack/done
    let mut cuts: Vec<Vec<usize>> = Vec::new();
    for start in 0..n {
        if state[start] != 0 || adj[start].is_empty() {
            continue;
        }
        let mut stack = vec![start];
        state[start] = 1;
        while let Some(u) = stack.pop() {
            for &(v, e) in &adj[u] {
                if e == parent_edge[u] {
                    continue;
                }
                if state[v] == 0 {
                    state[v] = 1;
                    parent[v] = u;
                    parent_edge[v] = e;
                    stack.push(v);
                } else {
                    // Non-tree edge (u, v): walk parents of u up to v.
                    let mut cycle = vec![v, u];
                    let mut w = u;
                    let mut hops = 0;
                    while parent[w] != usize::MAX && w != v && hops <= n {
                        w = parent[w];
                        if w != v {
                            cycle.push(w);
                        }
                        hops += 1;
                    }
                    if w == v {
                        cycle.sort_unstable();
                        cycle.dedup();
                        if cycle.len() >= 2 && !cuts.contains(&cycle) {
                            cuts.push(cycle);
                        }
                    }
                }
            }
        }
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve_per_component;
    use crate::SimplexSolver;
    use ccdp_graph::{generators, Graph};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Safety bound on cutting-plane rounds per component.
    const MAX_ROUNDS: usize = 400;

    /// Runs the cutting-plane loop alone to completion on one connected
    /// component.
    fn solve_component_with_caps(
        n: usize,
        edges: &[(usize, usize)],
        caps: &[f64],
    ) -> Result<PolytopeSolution, PolytopeError> {
        let mut state = CuttingPlaneState::new(n, edges, caps)?;
        for _ in 0..MAX_ROUNDS {
            state.step()?;
            if let Some(sol) = state.take_finished() {
                return Ok(sol);
            }
        }
        Err(PolytopeError::SeparationDidNotConverge { rounds: MAX_ROUNDS })
    }

    /// The simplex oracle without its column-generation bound: cutting
    /// planes alone on every component. Viable on small and medium
    /// instances; it can stall on the rank-bound face of large
    /// supercritical cores.
    fn pure_cutting_planes(g: &Graph, delta: f64) -> Result<PolytopeSolution, PolytopeError> {
        solve_per_component(g, delta, |n, edges| {
            solve_component_with_caps(n, edges, &vec![delta; n])
        })
    }

    #[test]
    fn separation_oracle_finds_a_violated_clique_constraint() {
        // Hand-craft an infeasible point: every edge of K_4 at weight 1
        // violates x(E[V]) ≤ 3. The oracle must report a violating set.
        let g = generators::complete(4);
        let edges = g.edge_vec();
        let x = vec![1.0; edges.len()];
        let violated = violated_forest_constraints(4, &edges, &x);
        assert!(!violated.is_empty());
        let set = &violated[0];
        let inside: f64 = edges
            .iter()
            .zip(&x)
            .filter(|(&(a, b), _)| set.contains(&a) && set.contains(&b))
            .map(|(_, &w)| w)
            .sum();
        assert!(inside > (set.len() - 1) as f64 + 1e-6);
    }

    #[test]
    fn separation_oracle_accepts_a_feasible_point() {
        let g = generators::complete(4);
        let edges = g.edge_vec();
        // A spanning star (indicator vector) is in the forest polytope.
        let x: Vec<f64> = edges
            .iter()
            .map(|&(a, _)| if a == 0 { 1.0 } else { 0.0 })
            .collect();
        assert!(violated_forest_constraints(4, &edges, &x).is_empty());
    }

    #[test]
    fn heterogeneous_caps_bind_per_vertex() {
        // A path a–b–c with cap 0.5 at b and 1.0 elsewhere: both edges are
        // limited by b's capacity in total, so the optimum is 1.0? No — each
        // edge individually may use b up to its cap: x_ab + x_bc ≤ 0.5 at b,
        // and each edge is also bounded by min(1, caps). Optimum 0.5.
        let g = generators::path(3);
        let sol = solve_component_with_caps(3, &g.edge_vec(), &[1.0, 0.5, 1.0]).unwrap();
        assert!((sol.value - 0.5).abs() < 1e-6, "value {}", sol.value);
    }

    #[test]
    fn uniform_caps_match_expected_triangle_value() {
        let g = generators::cycle(3);
        let sol = solve_component_with_caps(3, &g.edge_vec(), &[1.0; 3]).unwrap();
        assert!((sol.value - 1.5).abs() < 1e-6, "value {}", sol.value);
    }

    /// One graph from the named family, deterministic in `rng`.
    fn family_graph(family: u8, n: usize, rng: &mut StdRng) -> Graph {
        match family {
            0 => {
                let mut g = Graph::new(n);
                for i in 1..n {
                    let j = rng.gen_range(0..i);
                    g.add_edge(j, i);
                }
                g
            }
            1 => generators::erdos_renyi(n, 3.0 / n as f64, rng),
            2 => generators::barabasi_albert(n, 2, rng),
            _ => generators::random_geometric(n, 0.3, rng),
        }
    }

    /// Membership mask of a random spanning forest: Kruskal over edges in a
    /// random order.
    fn random_spanning_forest(g: &Graph, edges: &[(usize, usize)], rng: &mut StdRng) -> Vec<bool> {
        let mut order: Vec<(u64, usize)> = (0..edges.len()).map(|i| (rng.gen(), i)).collect();
        order.sort_unstable();
        let mut uf = UnionFind::new(g.num_vertices());
        let mut in_forest = vec![false; edges.len()];
        for (_, i) in order {
            in_forest[i] = uf.union(edges[i].0, edges[i].1);
        }
        in_forest
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The union-find certificate never changes the oracle's answer:
        /// forest-supported points (integral, fractional, or with an entry
        /// just over the tolerance above 1) and cyclic supports alike.
        #[test]
        fn certificate_matches_the_closure_oracle(
            family in 0u8..4,
            n in 4usize..40,
            point in 0u8..4,
            seed in 0u64..1u64 << 48,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = family_graph(family, n, &mut rng);
            let edges = g.edge_vec();
            let forest = random_spanning_forest(&g, &edges, &mut rng);
            let mut x: Vec<f64> = match point {
                0 => forest.iter().map(|&f| if f { 1.0 } else { 0.0 }).collect(),
                1 | 3 => forest
                    .iter()
                    .map(|&f| if f { rng.gen_range(2e-6..=1.0) } else { 0.0 })
                    .collect(),
                _ => edges.iter().map(|_| rng.gen_range(0.0..=1.0)).collect(),
            };
            if point == 3 {
                if let Some(i) = forest.iter().position(|&f| f) {
                    x[i] = 1.0 + 2e-6;
                    prop_assert!(!forest_supported(g.num_vertices(), &edges, &x));
                }
            }
            if point < 2 {
                prop_assert!(forest_supported(g.num_vertices(), &edges, &x));
            }
            prop_assert_eq!(
                violated_forest_constraints(g.num_vertices(), &edges, &x),
                violated_by_closure(g.num_vertices(), &edges, &x)
            );
        }
    }

    /// A random graph on fewer than 12 vertices, encoded as (n, edge picks)
    /// so proptest can shrink it.
    fn arb_graph() -> impl Strategy<Value = Graph> {
        (
            2usize..12,
            proptest::collection::vec(0.0f64..1.0, 0..70),
            0.05f64..0.6,
        )
            .prop_map(|(n, picks, p)| {
                let mut g = Graph::new(n);
                let pairs = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v)));
                for ((u, v), &pick) in pairs.zip(&picks) {
                    if pick < p {
                        g.add_edge(u, v);
                    }
                }
                g
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn bound_paired_simplex_matches_pure_cutting_planes(g in arb_graph(), delta in 1usize..5) {
            // The simplex oracle (cuts + column-generation bounds) and cutting
            // planes alone are both exact, so they must agree wherever the
            // pure loop converges at all.
            let delta = delta as f64;
            let paired = SimplexSolver::new().solve(&g, delta).unwrap();
            let pure = pure_cutting_planes(&g, delta).unwrap();
            prop_assert!(
                (paired.value - pure.value).abs() < 1e-5,
                "paired {} vs pure {} at delta {delta}",
                paired.value, pure.value
            );
            // The paired point is feasible and attains its value.
            let edges = g.edge_vec();
            for &w in &paired.edge_weights {
                prop_assert!((-1e-6..=1.0 + 1e-6).contains(&w), "weight {} out of box", w);
            }
            for v in g.vertices() {
                let load: f64 = edges
                    .iter()
                    .zip(&paired.edge_weights)
                    .filter(|(&(a, b), _)| a == v || b == v)
                    .map(|(_, &w)| w)
                    .sum();
                prop_assert!(load <= delta + 1e-5, "degree cap violated at {}: {}", v, load);
            }
            prop_assert!(
                violated_forest_constraints(g.num_vertices(), &edges, &paired.edge_weights)
                    .is_empty()
            );
            let total: f64 = paired.edge_weights.iter().sum();
            prop_assert!((total - paired.value).abs() < 1e-5);
        }
    }
}
