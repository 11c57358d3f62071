//! The combinatorial reference solver for the Δ-bounded forest polytope.
//!
//! The degree-bounded forest LP inherits a lot of structure from the graphic
//! matroid, and most of a real graph can be solved exactly *without an LP* by
//! chaining certified combinatorial reductions. Each reduction either carries
//! an exchange-argument proof (some optimal solution agrees with it) or a
//! matching upper-bound certificate (the produced point attains a valid bound),
//! so the solver as a whole returns the exact LP optimum:
//!
//! 1. **Exhausted-vertex elimination.** A vertex whose residual capacity is 0
//!    forces weight 0 on all its edges; delete it. (Certificate: the degree
//!    constraint `x(δ(v)) ≤ 0` plus `x ≥ 0`.)
//! 2. **Fractional leaf peeling with δ-capping.** For a leaf `v` with
//!    neighbor `u` and residual capacities `c_v, c_u`, some optimal solution
//!    has `x_uv = min(1, c_v, c_u)`: no forest constraint through a leaf can
//!    be tight while `x_uv < 1` (removing `v` from a tight set would violate
//!    the set's own constraint), so the only binding structure is `δ(u)` —
//!    and weight can be shifted from another `u`-edge without loss. Peel `v`,
//!    charge `u`'s capacity, repeat. On supercritical Erdős–Rényi graphs this
//!    dissolves everything outside the 2-core.
//! 3. **Kruskal-style capped greedy.** On a remaining core piece, grow a
//!    forest over the graphic matroid taking any edge whose endpoints both
//!    have ≥ 1 unit of residual (floored) capacity. If the forest spans the
//!    piece, weight-1 edges attain the rank bound `x(E) ≤ |S| − 1` — optimal.
//! 4. **Local-repair spanning forest (Lemma 1.8, capacity-generalized).**
//!    Where the plain greedy fails, the paper's local-repair construction —
//!    generalized to per-vertex capacities as
//!    [`capacity_bounded_spanning_forest`] — searches much harder for a
//!    capacity-respecting spanning forest; any forest it returns is a
//!    genuine optimality certificate.
//! 5. **Column-generation fallback.** Whatever survives — the genuinely
//!    fractional core of the instance — goes to exact Dantzig–Wolfe column
//!    generation over forests (tiny master LPs priced by Kruskal's greedy;
//!    see [`crate::column_generation`]), with the peeled capacities as
//!    per-vertex bounds.
//!
//! The solution assembled from peeled edges and core solutions is feasible
//! for the *original* polytope: peeled edges form a forest with per-edge
//! weight ≤ 1, and adding a ≤ 1-weight leaf edge to a feasible point can
//! violate no forest constraint (`x(E[S]) ≤ x(E[S∖v]) + 1 ≤ |S| − 1`).

use crate::column_generation;
use crate::solver::{solve_per_component, PolytopeError, PolytopeSolution};
use ccdp_graph::components::components;
use ccdp_graph::forest::capacity_bounded_spanning_forest;
use ccdp_graph::subgraph::induced_subgraph;
use ccdp_graph::unionfind::UnionFind;
use ccdp_graph::Graph;
use std::collections::HashMap;

/// Residual capacities at or below this are treated as exhausted.
pub(crate) const CAP_TOL: f64 = 1e-9;

/// Graph-algorithm-speed exact solver: certified combinatorial reductions
/// with a column-generation fallback for the irreducible core.
///
/// The CSR-native engine ([`crate::solve_partition`]) replicates this
/// reduction loop float operation for float operation, so this type is its
/// bitwise oracle on every component.
#[derive(Clone, Debug)]
pub struct CombinatorialSolver {
    _private: (),
}

impl CombinatorialSolver {
    /// The solver with default settings.
    pub const fn new() -> Self {
        CombinatorialSolver { _private: () }
    }

    /// Maximizes `x(E)` over `P_Δ(G)`. `delta` may be fractional — the
    /// polytope is defined for any `Δ > 0` — although the paper's algorithm
    /// only uses integer values.
    pub fn solve(&self, g: &Graph, delta: f64) -> Result<PolytopeSolution, PolytopeError> {
        solve_per_component(g, delta, |local| self.solve_component(local, delta))
    }

    /// Solves one connected component (local vertex indices, ≥ 1 edge).
    fn solve_component(&self, g: &Graph, delta: f64) -> Result<PolytopeSolution, PolytopeError> {
        let n = g.num_vertices();
        let edges = g.edge_vec();
        let m = edges.len();

        // Adjacency as (neighbor, edge index) pairs.
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (i, &(a, b)) in edges.iter().enumerate() {
            adj[a].push((b, i));
            adj[b].push((a, i));
        }

        let mut caps = vec![delta; n];
        let mut alive = vec![true; n];
        let mut edge_alive = vec![true; m];
        let mut weights = vec![0.0f64; m];
        let mut deg: Vec<usize> = (0..n).map(|v| adj[v].len()).collect();

        // Reductions 1 + 2: eliminate exhausted vertices, peel leaves.
        let mut work: Vec<usize> = (0..n).collect();
        while let Some(v) = work.pop() {
            if !alive[v] {
                continue;
            }
            if caps[v] <= CAP_TOL {
                // Exhausted: all incident edges are forced to 0.
                for &(u, e) in &adj[v] {
                    if edge_alive[e] {
                        edge_alive[e] = false;
                        deg[u] -= 1;
                        deg[v] -= 1;
                        work.push(u);
                    }
                }
                alive[v] = false;
            } else if deg[v] == 0 {
                alive[v] = false;
            } else if deg[v] == 1 {
                let &(u, e) = adj[v]
                    .iter()
                    .find(|&&(_, e)| edge_alive[e])
                    .expect("degree-1 vertex has an alive edge");
                let w = 1.0f64.min(caps[v]).min(caps[u]).max(0.0);
                weights[e] = w;
                caps[u] -= w;
                edge_alive[e] = false;
                deg[u] -= 1;
                deg[v] = 0;
                alive[v] = false;
                work.push(u);
            }
        }

        // Extract the surviving core and solve each of its pieces.
        let alive_vertices: Vec<usize> = (0..n).filter(|&v| alive[v]).collect();
        let mut generated_cuts = 0;
        let mut lp_iterations = 0;
        let mut lp_solves = 0;
        let mut lp_fallback_components = 0;

        if !alive_vertices.is_empty() {
            let edge_index: HashMap<(usize, usize), usize> = edges
                .iter()
                .copied()
                .enumerate()
                .map(|(i, e)| (e, i))
                .collect();
            let (core, core_map) = induced_subgraph(g, &alive_vertices);
            for piece_vertices in components(&core) {
                if piece_vertices.len() < 2 {
                    continue;
                }
                let (piece, piece_map) = induced_subgraph(&core, &piece_vertices);
                if piece.has_no_edges() {
                    continue;
                }
                // Capacities and edge-index mapping in component coordinates.
                let to_component = |local: usize| core_map[piece_map[local]];
                let piece_caps: Vec<f64> = (0..piece.num_vertices())
                    .map(|local| caps[to_component(local)])
                    .collect();
                let piece_edges = piece.edge_vec();
                let component_edge = |&(a, b): &(usize, usize)| {
                    let (ga, gb) = (to_component(a), to_component(b));
                    let key = if ga < gb { (ga, gb) } else { (gb, ga) };
                    edge_index[&key]
                };

                if let Some(forest_edges) = spanning_certificate(&piece, &piece_caps) {
                    // Reductions 3 / 4 succeeded: the rank bound is attained.
                    for &(a, b) in &forest_edges {
                        let key = if a < b { (a, b) } else { (b, a) };
                        weights[component_edge(&key)] = 1.0;
                    }
                } else {
                    let sol = column_generation::solve_component_with_caps(&piece, &piece_caps)?;
                    generated_cuts += sol.generated_cuts;
                    lp_iterations += sol.lp_iterations;
                    lp_solves += sol.lp_solves;
                    lp_fallback_components += 1;
                    for (local_edge, w) in piece_edges.iter().zip(sol.edge_weights) {
                        weights[component_edge(local_edge)] = w;
                    }
                }
            }
        }

        Ok(PolytopeSolution {
            value: weights.iter().sum(),
            edge_weights: weights,
            generated_cuts,
            lp_iterations,
            lp_solves,
            lp_fallback_components,
        })
    }
}

impl Default for CombinatorialSolver {
    fn default() -> Self {
        Self::new()
    }
}

/// Tries to certify that the optimum of a connected core piece is its rank
/// bound `|V| − 1` by exhibiting a spanning forest whose every vertex degree
/// fits the (floored) residual capacity. Returns the forest's edge list
/// (piece-local endpoints) on success.
///
/// Three attempts: a capped Kruskal-style greedy over the graphic matroid
/// (cheap, order-sensitive), then the local-repair construction of Lemma 1.8
/// generalized to per-vertex capacities
/// ([`capacity_bounded_spanning_forest`]), which recovers the many instances
/// where a fixed greedy order paints itself into a corner, and finally — for
/// pieces small enough to search exhaustively — a complete branch-and-prune
/// over edge subsets ([`tiny_exhaustive_certificate`]), which is decisive
/// where the local-repair heuristic gives up even though a certificate
/// exists.
///
/// Shared by [`CombinatorialSolver`] and the CSR-native engine, so both
/// produce identical certificates on identical pieces.
pub(crate) fn spanning_certificate(piece: &Graph, caps: &[f64]) -> Option<Vec<(usize, usize)>> {
    let n = piece.num_vertices();
    let target = n - 1; // the piece is connected
    let icaps: Vec<usize> = caps
        .iter()
        .map(|&c| (c + CAP_TOL).floor() as usize)
        .collect();
    if icaps.iter().any(|&c| c < 1) {
        return None;
    }
    if icaps.iter().sum::<usize>() < 2 * target {
        // Degree sum of any spanning tree is 2(n − 1); caps cannot carry it.
        return None;
    }
    let mut greedy_caps = icaps.clone();
    let mut uf = UnionFind::new(n);
    let mut chosen = Vec::with_capacity(target);
    for (a, b) in piece.edges() {
        if greedy_caps[a] >= 1 && greedy_caps[b] >= 1 && uf.union(a, b) {
            greedy_caps[a] -= 1;
            greedy_caps[b] -= 1;
            chosen.push((a, b));
            if chosen.len() == target {
                return Some(chosen);
            }
        }
    }
    // Greedy failed; the insertion-with-local-repairs procedure searches much
    // harder for a capacity-respecting spanning forest.
    if let Some(forest) = capacity_bounded_spanning_forest(piece, &icaps)
        .filter(|forest| forest.num_edges() == target)
    {
        return Some(forest.edges().to_vec());
    }
    tiny_exhaustive_certificate(piece, &icaps)
}

/// Pieces at most this large go through the complete exhaustive search when
/// both heuristic certificate attempts fail.
const TINY_DP_MAX_VERTICES: usize = 10;
const TINY_DP_MAX_EDGES: usize = 24;
/// Branch-node budget: the search is abandoned (fall through to the LP) if
/// pruning is not biting. Purely a cost guard — abandoning is always sound.
const TINY_DP_NODE_BUDGET: usize = 200_000;

/// Complete include/exclude search for a capacity-respecting spanning tree of
/// a connected piece with ≤ [`TINY_DP_MAX_VERTICES`] vertices. Either returns
/// a genuine certificate, proves none exists, or runs out of budget — in the
/// latter two cases the caller falls back to the exact LP, so the overall
/// solver stays exact.
fn tiny_exhaustive_certificate(piece: &Graph, icaps: &[usize]) -> Option<Vec<(usize, usize)>> {
    let n = piece.num_vertices();
    let edges = piece.edge_vec();
    let m = edges.len();
    if n > TINY_DP_MAX_VERTICES || m > TINY_DP_MAX_EDGES {
        return None;
    }
    let target = n - 1;

    struct Search<'a> {
        edges: &'a [(usize, usize)],
        target: usize,
        budget: usize,
        chosen: Vec<(usize, usize)>,
    }

    impl Search<'_> {
        /// `parent` is a flat union-find (path halving unnecessary at n ≤ 10);
        /// cloned per include-branch so exclude-backtracking is trivial.
        fn go(&mut self, i: usize, parent: &mut [usize], caps: &mut [usize]) -> bool {
            if self.chosen.len() == self.target {
                return true;
            }
            if i >= self.edges.len() || self.edges.len() - i < self.target - self.chosen.len() {
                return false;
            }
            if self.budget == 0 {
                return false;
            }
            self.budget -= 1;
            let (a, b) = self.edges[i];
            let (ra, rb) = (root(parent, a), root(parent, b));
            if ra != rb && caps[a] >= 1 && caps[b] >= 1 {
                // Include branch.
                let mut p2 = parent.to_vec();
                p2[ra] = rb;
                caps[a] -= 1;
                caps[b] -= 1;
                self.chosen.push((a, b));
                if self.go(i + 1, &mut p2, caps) {
                    return true;
                }
                self.chosen.pop();
                caps[a] += 1;
                caps[b] += 1;
            }
            // Exclude branch.
            self.go(i + 1, parent, caps)
        }
    }

    fn root(parent: &[usize], mut v: usize) -> usize {
        while parent[v] != v {
            v = parent[v];
        }
        v
    }

    let mut search = Search {
        edges: &edges,
        target,
        budget: TINY_DP_NODE_BUDGET,
        chosen: Vec::with_capacity(target),
    };
    let mut parent: Vec<usize> = (0..n).collect();
    let mut caps = icaps.to_vec();
    if search.go(0, &mut parent, &mut caps) {
        Some(search.chosen)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdp_graph::generators;

    fn value(g: &Graph, delta: f64) -> f64 {
        CombinatorialSolver::new().solve(g, delta).unwrap().value
    }

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn star_peels_to_exact_fractional_value() {
        // K_{1,5}: leaves peel one by one, charging the center's capacity;
        // f_Δ = min(Δ, 5) including fractional Δ — all without any LP.
        let g = generators::star(5);
        for delta in [0.5, 1.0, 2.5, 3.0, 4.9, 5.0, 7.0] {
            let sol = CombinatorialSolver::new().solve(&g, delta).unwrap();
            assert!(
                approx(sol.value, delta.min(5.0)),
                "star f_{delta} = {}",
                sol.value
            );
            assert_eq!(sol.lp_fallback_components, 0, "star must not need the LP");
        }
    }

    #[test]
    fn path_is_fully_peeled() {
        let g = generators::path(7);
        let sol = CombinatorialSolver::new().solve(&g, 2.0).unwrap();
        assert!(approx(sol.value, 6.0));
        assert_eq!(sol.lp_fallback_components, 0);
    }

    #[test]
    fn triangle_core_falls_back_to_lp() {
        let g = generators::cycle(3);
        let sol = CombinatorialSolver::new().solve(&g, 1.0).unwrap();
        assert!(approx(sol.value, 1.5), "triangle f_1 = {}", sol.value);
        assert_eq!(sol.lp_fallback_components, 1);
    }

    #[test]
    fn complete_graph_spanning_certificate_avoids_lp() {
        // K_6 with Δ = 2 has a Hamiltonian path; the repair construction (or
        // the greedy) certifies the rank bound without an LP.
        let g = generators::complete(6);
        let sol = CombinatorialSolver::new().solve(&g, 2.0).unwrap();
        assert!(approx(sol.value, 5.0));
        assert_eq!(sol.lp_fallback_components, 0);
    }

    #[test]
    fn pendant_trees_peel_and_core_solves() {
        // A triangle with a pendant path: the path peels at weight 1, the
        // triangle is the core.
        let mut g = generators::cycle(3);
        for _ in 0..3 {
            g.add_vertex();
        }
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        g.add_edge(4, 5);
        // Δ = 2: spanning 2-forest exists (path around the triangle plus the
        // pendant path), so the whole thing is certified at f_sf = 5.
        assert!(approx(value(&g, 2.0), 5.0));
        // Δ = 1: pendant edges peel 5–4 at 1, then 3 has cap 0 … the exact
        // value must match the simplex oracle; spot-check feasibility-level
        // sanity here (cross-solver equality is proptested separately).
        let sol = CombinatorialSolver::new().solve(&g, 1.0).unwrap();
        assert!(sol.value <= 3.0 + 1e-9);
        assert!(sol.value >= 2.0 - 1e-9);
    }

    #[test]
    fn exhausted_vertices_disconnect_the_core() {
        // Two triangles joined through a middle vertex of capacity Δ = 1:
        // peeling never fires (no leaves), both triangles go fractional.
        let mut g = Graph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        g.add_edge(2, 4);
        let sol = CombinatorialSolver::new().solve(&g, 1.0).unwrap();
        // Fractional matching bound: vertex 2 is shared; optimum is 2.5
        // (e.g. one full edge in each triangle giving 2, plus a half cycle —
        // exact value pinned by the cross-solver proptest; sanity bounds
        // here).
        assert!(sol.value <= 2.5 + 1e-6);
        assert!(sol.value >= 2.0 - 1e-9);
    }

    #[test]
    fn weights_are_within_unit_box_and_caps() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        use rand::SeedableRng;
        for _ in 0..10 {
            let g = generators::erdos_renyi(14, 0.25, &mut rng);
            for delta in [0.7, 1.0, 2.0, 3.5] {
                let sol = CombinatorialSolver::new().solve(&g, delta).unwrap();
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
                    assert!(load <= delta + 1e-6, "degree cap violated at {v}");
                }
                assert!(approx(sol.edge_weights.iter().sum::<f64>(), sol.value));
            }
        }
    }
}
