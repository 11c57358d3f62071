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
//! 3. **Series contraction.** On a remaining core piece, call a vertex
//!    *series* if it has degree 2 and a floored capacity of at least 2: its
//!    degree constraint can never bind. Replace every maximal chain of
//!    `t ≥ 2` series vertices between two distinct ends `a ≠ b` by one
//!    capacity-2 vertex `w` joined to both ends, and add the constant
//!    `t − 1` for the chain's internal edges. Exchange argument: write an
//!    optimum as a convex combination of forests and add the internal edges
//!    to each forest. A cycle this closes runs through the whole chain, so
//!    dropping the end edge at `a` breaks it. No forest shrinks (the chain
//!    was missing an internal edge), no end's degree grows, and every
//!    series vertex keeps degree ≤ 2. So some optimum takes every internal
//!    edge at 1, and mapping the chain to `a–w–b` is a bijection of the
//!    remaining forests that preserves acyclicity and the ends' degrees.
//!    The end edges keep their own weights, so a chain cannot contract to a
//!    plain edge `a–b`. A chain closing on one end (`a = b`) would become a
//!    parallel edge and stays as it is. At n = 10⁶ this shrinks the Δ = 4
//!    core of the giant component from 1 328 to 209 vertices.
//! 4. **Kruskal-style capped greedy.** Grow a forest over the graphic
//!    matroid of the (contracted) piece taking any edge whose endpoints both
//!    have ≥ 1 unit of residual (floored) capacity. If the forest spans the
//!    piece, weight-1 edges attain the rank bound `x(E) ≤ |S| − 1` — optimal.
//! 5. **Local-repair spanning forest (Lemma 1.8, capacity-generalized).**
//!    Where the plain greedy fails, the paper's local-repair construction —
//!    generalized to per-vertex capacities as
//!    [`capacity_bounded_spanning_forest`] — searches much harder for a
//!    capacity-respecting spanning forest; any forest it returns is a
//!    genuine optimality certificate.
//! 6. **Column-generation fallback.** Whatever survives — the genuinely
//!    fractional core of the instance — goes to exact Dantzig–Wolfe column
//!    generation over forests (tiny master LPs priced by Kruskal's greedy;
//!    see [`crate::column_generation`]), with the peeled capacities as
//!    per-vertex bounds.
//!
//! Reductions 3–6 are one function, `solve_piece`, which the CSR-native
//! engine calls too. It takes the piece as a [`CsrGraph`] with local ids, and
//! its weights come back expanded to the piece's own edges: chain-internal
//! edges at 1, each end edge at the weight of its edge to `w`. The reduction
//! loop (1 and 2) reads each component as a vertex count and an edge list,
//! so the adjacency-list graph is read only at the solver's entry point.
//!
//! The solution assembled from peeled edges and core solutions is feasible
//! for the *original* polytope: peeled edges form a forest with per-edge
//! weight ≤ 1, and adding a ≤ 1-weight leaf edge to a feasible point can
//! violate no forest constraint (`x(E[S]) ≤ x(E[S∖v]) + 1 ≤ |S| − 1`).

use crate::column_generation;
use crate::solver::{solve_per_component, PolytopeError, PolytopeSolution};
use ccdp_graph::forest::capacity_bounded_spanning_forest;
use ccdp_graph::unionfind::UnionFind;
use ccdp_graph::{CsrGraph, Graph};

/// Residual capacities at or below this are treated as exhausted.
pub(crate) const CAP_TOL: f64 = 1e-9;

/// Exact solver at graph-algorithm speed: certified combinatorial reductions
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
        solve_per_component(g, delta, |n, edges| self.solve_component(n, edges, delta))
    }

    /// Solves one connected component: `n` vertices (local ids) and its
    /// canonical edge list, at least one edge.
    fn solve_component(
        &self,
        n: usize,
        edges: &[(usize, usize)],
        delta: f64,
    ) -> Result<PolytopeSolution, PolytopeError> {
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

        // Solve each piece of the surviving core (the alive vertices; every
        // dead edge has a dead end, so the alive edges are exactly the
        // edges among them), in order of smallest vertex, with local ids
        // ascending. `adj[v]` is sorted by neighbor, so walking the piece's
        // vertices in order lists its edges in canonical order.
        let mut lp = PolytopeSolution::zero(0);
        let mut local = vec![usize::MAX; n];
        for start in 0..n {
            if !alive[start] || local[start] != usize::MAX {
                continue;
            }
            let mut piece = vec![start];
            local[start] = 0;
            let mut next = 0;
            while let Some(&v) = piece.get(next) {
                next += 1;
                for &(u, e) in &adj[v] {
                    if edge_alive[e] && local[u] == usize::MAX {
                        local[u] = 0;
                        piece.push(u);
                    }
                }
            }
            if piece.len() < 2 {
                continue;
            }
            piece.sort_unstable();
            for (id, &v) in piece.iter().enumerate() {
                local[v] = id;
            }
            let mut piece_edges = Vec::new();
            let mut positions = Vec::new();
            for &v in &piece {
                for &(u, e) in &adj[v] {
                    if edge_alive[e] && u > v {
                        piece_edges.push((local[v], local[u]));
                        positions.push(e);
                    }
                }
            }
            let piece_caps: Vec<f64> = piece.iter().map(|&v| caps[v]).collect();
            let sol = solve_piece(&csr_piece(piece.len(), &piece_edges), &piece_caps)?;
            for (&e, &w) in positions.iter().zip(&sol.edge_weights) {
                weights[e] = w;
            }
            lp.add_lp_work(&sol, 1);
        }

        lp.value = weights.iter().sum();
        lp.edge_weights = weights;
        Ok(lp)
    }
}

impl Default for CombinatorialSolver {
    fn default() -> Self {
        Self::new()
    }
}

/// A piece with `n` vertices and the canonical edge list `edges` (pairs
/// `(u, v)` with `u < v`, sorted), as a [`CsrGraph`] whose
/// [`edges`](CsrGraph::edges) come back in the same order.
pub(crate) fn csr_piece(n: usize, edges: &[(usize, usize)]) -> CsrGraph {
    CsrGraph::from_edge_stream(n, || edges.iter().map(|&(a, b)| (a as u32, b as u32)))
}

/// Solves one connected core piece exactly with per-vertex capacities `caps`
/// and returns its weights in `piece`'s canonical edge order
/// ([`CsrGraph::edges`]).
///
/// Series contraction first (reduction 3), then on the contracted piece the
/// spanning certificate (reductions 4 / 5), else column generation
/// (reduction 6); the contracted weights are expanded back to `piece`.
/// Shared by [`CombinatorialSolver`] and the CSR-native engine, so both
/// produce identical weights on identical pieces.
pub(crate) fn solve_piece(
    piece: &CsrGraph,
    caps: &[f64],
) -> Result<PolytopeSolution, PolytopeError> {
    match SeriesContraction::of(piece, caps) {
        Some(series) => Ok(series.expand(solve_contracted(&series.graph, &series.caps)?)),
        None => solve_contracted(piece, caps),
    }
}

/// The certificate / column-generation tail of [`solve_piece`].
fn solve_contracted(piece: &CsrGraph, caps: &[f64]) -> Result<PolytopeSolution, PolytopeError> {
    let edges: Vec<(usize, usize)> = piece.edges().collect();
    let Some(forest) = spanning_certificate(piece, caps) else {
        return column_generation::solve_component_with_caps(piece.num_vertices(), &edges, caps);
    };
    // The rank bound is attained: the forest's edges at weight 1.
    let mut sol = PolytopeSolution::zero(edges.len());
    for &(a, b) in &forest {
        sol.edge_weights[edge_position(&edges, a, b)] = 1.0;
    }
    sol.value = forest.len() as f64;
    Ok(sol)
}

/// A core piece with every maximal chain of `t ≥ 2` series vertices between
/// two distinct ends replaced by one capacity-2 vertex joined to both ends.
struct SeriesContraction {
    /// The contracted piece.
    graph: CsrGraph,
    /// Its capacities: the piece's, and 2 at each chain vertex.
    caps: Vec<f64>,
    /// Per piece edge (canonical order): the contracted edge whose weight it
    /// takes, or `None` for a chain-internal edge, which takes 1.
    source: Vec<Option<usize>>,
    /// Number of chain-internal edges, `Σ (t − 1)`.
    internal_edges: usize,
}

impl SeriesContraction {
    /// Contracts `piece`, or `None` when no chain qualifies. A chain that
    /// closes on one end (a cycle through a single non-series vertex) stays,
    /// since contracting it would make a parallel edge, as does a cycle of
    /// series vertices only and any chain of one vertex.
    fn of(piece: &CsrGraph, caps: &[f64]) -> Option<Self> {
        const NONE: usize = usize::MAX;
        let n = piece.num_vertices();
        // A series vertex has degree 2 and a floored capacity of at least 2,
        // so its degree constraint can never bind.
        let series = |v: usize| piece.degree(v) == 2 && (caps[v] + CAP_TOL).floor() >= 2.0;
        // The next vertex along a chain entered from `prev`.
        let step = |prev: usize, cur: usize| {
            let nbrs = piece.neighbors(cur);
            if nbrs[0] as usize == prev {
                nbrs[1] as usize
            } else {
                nbrs[0] as usize
            }
        };
        let mut chain_of = vec![NONE; n];
        let mut seen = vec![false; n];
        let mut chains = 0usize;
        let mut internal_edges = 0usize;
        for v in 0..n {
            if seen[v] || !series(v) {
                continue;
            }
            // Walk both ways from `v` to the chain's ends.
            let mut chain = vec![v];
            let mut ends = [NONE; 2];
            for (side, end) in ends.iter_mut().enumerate() {
                let (mut prev, mut cur) = (v, piece.neighbors(v)[side] as usize);
                while cur != v && series(cur) {
                    chain.push(cur);
                    (prev, cur) = (cur, step(prev, cur));
                }
                if cur == v {
                    break; // a cycle of series vertices only
                }
                *end = cur;
            }
            for &u in &chain {
                seen[u] = true;
            }
            if chain.len() >= 2 && ends[1] != NONE && ends[0] != ends[1] {
                for &u in &chain {
                    chain_of[u] = chains;
                }
                chains += 1;
                internal_edges += chain.len() - 1;
            }
        }
        if chains == 0 {
            return None;
        }

        // Relabel in ascending vertex order; a chain takes its smallest
        // vertex's slot.
        let mut new_id = vec![NONE; n];
        let mut chain_id = vec![NONE; chains];
        let mut new_caps = Vec::with_capacity(n - internal_edges);
        for v in 0..n {
            let c = chain_of[v];
            if c == NONE {
                new_id[v] = new_caps.len();
                new_caps.push(caps[v]);
            } else {
                if chain_id[c] == NONE {
                    chain_id[c] = new_caps.len();
                    new_caps.push(2.0);
                }
                new_id[v] = chain_id[c];
            }
        }
        let mapped: Vec<Option<(usize, usize)>> = piece
            .edges()
            .map(|(a, b)| {
                let internal = chain_of[a] != NONE && chain_of[a] == chain_of[b];
                let (a, b) = (new_id[a], new_id[b]);
                (!internal).then_some((a.min(b), a.max(b)))
            })
            .collect();
        // Sorted, the kept edges are the contracted graph's canonical order.
        let mut kept: Vec<(usize, usize)> = mapped.iter().flatten().copied().collect();
        kept.sort_unstable();
        let graph = csr_piece(new_caps.len(), &kept);
        debug_assert_eq!(
            graph.num_edges(),
            kept.len(),
            "contraction made a parallel edge"
        );
        let source = mapped
            .iter()
            .map(|e| e.map(|(a, b)| edge_position(&kept, a, b)))
            .collect();
        Some(SeriesContraction {
            graph,
            caps: new_caps,
            source,
            internal_edges,
        })
    }

    /// Maps a solution of the contracted piece back to the piece: internal
    /// edges at 1, every other edge at its contracted edge's weight (a
    /// chain's two end edges at the chain vertex's two edge weights).
    fn expand(&self, mut sol: PolytopeSolution) -> PolytopeSolution {
        sol.edge_weights = self
            .source
            .iter()
            .map(|e| e.map_or(1.0, |e| sol.edge_weights[e]))
            .collect();
        sol.value += self.internal_edges as f64;
        sol
    }
}

/// Position of the edge `{a, b}` in a canonical (sorted) edge list that
/// contains it.
pub(crate) fn edge_position(edges: &[(usize, usize)], a: usize, b: usize) -> usize {
    edges
        .binary_search(&(a.min(b), a.max(b)))
        .expect("edge present")
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
fn spanning_certificate(piece: &CsrGraph, caps: &[f64]) -> Option<Vec<(usize, usize)>> {
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
fn tiny_exhaustive_certificate(piece: &CsrGraph, icaps: &[usize]) -> Option<Vec<(usize, usize)>> {
    let n = piece.num_vertices();
    if n > TINY_DP_MAX_VERTICES || piece.num_edges() > TINY_DP_MAX_EDGES {
        return None;
    }
    let edges: Vec<(usize, usize)> = piece.edges().collect();
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

    /// Joins `a` and `b` by a chain of `t` new vertices.
    fn add_chain(g: &mut Graph, a: usize, b: usize, t: usize) {
        let mut prev = a;
        for _ in 0..t {
            let v = g.add_vertex();
            g.add_edge(prev, v);
            prev = v;
        }
        g.add_edge(prev, b);
    }

    /// Capacity `core_cap` on the `K_4` vertices `0..4`, `chain_cap` on the
    /// chain vertices added after them.
    fn caps_of(piece: &Graph, core_cap: f64, chain_cap: f64) -> Vec<f64> {
        piece
            .vertices()
            .map(|v| if v < 4 { core_cap } else { chain_cap })
            .collect()
    }

    /// Checks that series contraction leaves `want_vertices` vertices, makes
    /// no parallel edge, and that the piece solver's expanded point is
    /// feasible and attains the uncontracted LP optimum.
    fn check_contraction(piece: &Graph, caps: &[f64], want_vertices: usize) {
        let edges = piece.edge_vec();
        let csr = CsrGraph::from_graph(piece);
        let contracted = SeriesContraction::of(&csr, caps);
        let vertices = contracted
            .as_ref()
            .map_or(piece.num_vertices(), |c| c.graph.num_vertices());
        assert_eq!(vertices, want_vertices, "caps {caps:?}");
        if let Some(c) = &contracted {
            assert_eq!(c.graph.num_edges() + c.internal_edges, piece.num_edges());
        }

        let sol = solve_piece(&csr, caps).unwrap();
        let exact =
            column_generation::solve_component_with_caps(piece.num_vertices(), &edges, caps)
                .unwrap();
        assert!(
            approx(sol.value, exact.value),
            "contracted {} vs exact {} (caps {caps:?})",
            sol.value,
            exact.value
        );
        assert_eq!(sol.edge_weights.len(), edges.len());
        for &w in &sol.edge_weights {
            assert!((-1e-9..=1.0 + 1e-9).contains(&w));
        }
        for v in piece.vertices() {
            let load: f64 = edges
                .iter()
                .zip(&sol.edge_weights)
                .filter(|(&(a, b), _)| a == v || b == v)
                .map(|(_, &w)| w)
                .sum();
            assert!(load <= caps[v] + 1e-6, "degree cap violated at {v}");
        }
        assert!(crate::violated_forest_constraints(
            piece.num_vertices(),
            &edges,
            &sol.edge_weights
        )
        .is_empty());
        assert!(approx(sol.edge_weights.iter().sum::<f64>(), sol.value));
    }

    #[test]
    fn lollipop_chain_is_not_contracted() {
        // A chain from vertex 0 back to itself would become a parallel
        // edge; only the 1–2 chain contracts.
        let mut g = generators::complete(4);
        add_chain(&mut g, 0, 0, 3);
        add_chain(&mut g, 1, 2, 2);
        for core_cap in [1.0, 2.0, 4.0] {
            check_contraction(&g, &caps_of(&g, core_cap, 4.0), 8);
        }
    }

    #[test]
    fn parallel_chains_contract_to_two_vertices() {
        let mut g = generators::complete(4);
        add_chain(&mut g, 0, 1, 2);
        add_chain(&mut g, 0, 1, 3);
        for core_cap in [1.0, 2.0, 4.0] {
            check_contraction(&g, &caps_of(&g, core_cap, 2.0), 6);
        }
    }

    #[test]
    fn chain_beside_an_edge_contracts_to_a_triangle() {
        let mut g = generators::complete(4);
        add_chain(&mut g, 0, 1, 3);
        for core_cap in [1.0, 2.0, 4.0] {
            check_contraction(&g, &caps_of(&g, core_cap, 3.0), 5);
        }
    }

    #[test]
    fn binding_interior_vertex_splits_the_chain() {
        // 0–4–5–6–7–8–1 with a binding cap at 6: the chains 4–5 and 7–8
        // contract separately around it.
        let mut g = generators::complete(4);
        add_chain(&mut g, 0, 1, 5);
        for core_cap in [1.0, 2.0, 4.0] {
            let mut caps = caps_of(&g, core_cap, 2.0);
            caps[6] = 1.5;
            check_contraction(&g, &caps, 7);
        }
    }

    #[test]
    fn fractional_delta_contracts_only_non_binding_chains() {
        let mut g = generators::complete(4);
        add_chain(&mut g, 0, 1, 4);
        add_chain(&mut g, 2, 3, 2);
        // A floored cap of 2 keeps the chain vertices non-binding…
        for delta in [2.0, 2.5, 3.7] {
            check_contraction(&g, &caps_of(&g, delta, delta), 6);
        }
        // …and below 2 every one of them binds, so nothing contracts.
        for delta in [0.6, 1.0, 1.5, 1.99] {
            check_contraction(&g, &caps_of(&g, delta, delta), 10);
        }
    }
}
