//! Spanning forests, degree-bounded spanning forests and the local-repair
//! procedure of the paper.
//!
//! The key combinatorial fact (Lemma 1.8) is: *a graph with no induced Δ-star has a
//! spanning Δ-forest*. Its proof is constructive; [`bounded_degree_spanning_forest`]
//! implements that construction, including the sequence of local repairs described
//! in Algorithm 3 and illustrated by Figure 1 of the paper.
//!
//! The quantity `Δ*` — the smallest possible maximum degree of a spanning forest —
//! parameterizes the accuracy of the paper's algorithm (Theorem 1.3). Computing it
//! exactly is NP-hard in general (it contains the minimum-degree spanning tree
//! problem), so this module exposes:
//!
//! * [`delta_star_upper_bound`]: the constructive upper bound obtained by running
//!   the local-repair procedure with increasing Δ (always ≤ `s(G) + 1` by
//!   Lemma 1.6, and never worse than the maximum degree),
//! * [`delta_star_exact`]: an exact branch-and-bound search intended for small
//!   graphs, used by tests and the optimality experiments.

use crate::csr::{ComponentPartition, CsrComponent, CsrGraph};
use crate::graph::Graph;
use crate::unionfind::UnionFind;

/// The minimal graph interface the constructive forest machinery needs, so the
/// same code runs on the adjacency-list [`Graph`], the flat [`CsrGraph`] and
/// one component of a CSR partition without duplicating the repair logic.
/// Private by design: the public surface stays the concrete entry points.
trait ForestHost {
    fn num_vertices(&self) -> usize;
    fn degree(&self, v: usize) -> usize;
    fn has_edge(&self, u: usize, v: usize) -> bool;
    /// Calls `f` for every neighbor of `v`, in ascending order.
    fn for_each_neighbor(&self, v: usize, f: &mut dyn FnMut(usize));
    /// First neighbor of `v` (in ascending order) satisfying `pred`.
    fn first_neighbor_where(&self, v: usize, pred: &mut dyn FnMut(usize) -> bool) -> Option<usize>;
}

impl ForestHost for Graph {
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }
    fn degree(&self, v: usize) -> usize {
        Graph::degree(self, v)
    }
    fn has_edge(&self, u: usize, v: usize) -> bool {
        Graph::has_edge(self, u, v)
    }
    fn for_each_neighbor(&self, v: usize, f: &mut dyn FnMut(usize)) {
        for &w in self.neighbors(v) {
            f(w);
        }
    }
    fn first_neighbor_where(&self, v: usize, pred: &mut dyn FnMut(usize) -> bool) -> Option<usize> {
        self.neighbors(v).iter().copied().find(|&w| pred(w))
    }
}

impl ForestHost for CsrGraph {
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }
    fn degree(&self, v: usize) -> usize {
        CsrGraph::degree(self, v)
    }
    fn has_edge(&self, u: usize, v: usize) -> bool {
        CsrGraph::has_edge(self, u, v)
    }
    fn for_each_neighbor(&self, v: usize, f: &mut dyn FnMut(usize)) {
        for &w in self.neighbors(v) {
            f(w as usize);
        }
    }
    fn first_neighbor_where(&self, v: usize, pred: &mut dyn FnMut(usize) -> bool) -> Option<usize> {
        self.neighbors(v)
            .iter()
            .map(|&w| w as usize)
            .find(|&w| pred(w))
    }
}

impl ForestHost for CsrComponent<'_> {
    fn num_vertices(&self) -> usize {
        CsrComponent::num_vertices(self)
    }
    fn degree(&self, v: usize) -> usize {
        CsrComponent::degree(self, v)
    }
    fn has_edge(&self, u: usize, v: usize) -> bool {
        CsrComponent::has_edge(self, u, v)
    }
    fn for_each_neighbor(&self, v: usize, f: &mut dyn FnMut(usize)) {
        for w in self.neighbors(v) {
            f(w);
        }
    }
    fn first_neighbor_where(&self, v: usize, pred: &mut dyn FnMut(usize) -> bool) -> Option<usize> {
        self.neighbors(v).find(|&w| pred(w))
    }
}

/// A spanning forest of a host graph, stored as an explicit edge list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanningForest {
    num_vertices: usize,
    edges: Vec<(usize, usize)>,
}

impl SpanningForest {
    /// Creates a forest over `num_vertices` vertices from an edge list.
    pub fn new(num_vertices: usize, edges: Vec<(usize, usize)>) -> Self {
        SpanningForest {
            num_vertices,
            edges,
        }
    }

    /// Number of vertices of the host graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of forest edges (this is `f_sf(G)` when the forest spans `G`).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The forest edges.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Degree of every vertex within the forest.
    pub fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.num_vertices];
        for &(u, v) in &self.edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        deg
    }

    /// Maximum degree of the forest (0 if it has no edges).
    pub fn max_degree(&self) -> usize {
        self.degrees().into_iter().max().unwrap_or(0)
    }

    /// Converts the forest into a [`Graph`] on the same vertex set.
    pub fn to_graph(&self) -> Graph {
        Graph::from_edges(self.num_vertices, &self.edges)
    }

    /// Checks that this is a spanning forest of `g`: every edge belongs to `g`,
    /// the edge set is acyclic, and it connects exactly the components of `g`
    /// (i.e. it has `f_sf(g)` edges).
    pub fn is_spanning_forest_of(&self, g: &Graph) -> bool {
        if self.num_vertices != g.num_vertices() {
            return false;
        }
        let mut uf = UnionFind::new(self.num_vertices);
        for &(u, v) in &self.edges {
            if !g.has_edge(u, v) {
                return false;
            }
            if !uf.union(u, v) {
                return false; // cycle
            }
        }
        self.edges.len() == g.spanning_forest_size()
    }
}

/// A BFS spanning forest of `g` (one BFS tree per connected component).
pub fn bfs_spanning_forest(g: &Graph) -> SpanningForest {
    let n = g.num_vertices();
    let mut visited = vec![false; n];
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if !visited[v] {
                    visited[v] = true;
                    edges.push((u, v));
                    queue.push_back(v);
                }
            }
        }
    }
    SpanningForest::new(n, edges)
}

/// Adjacency-list view of a forest under construction, used by the local repair.
struct ForestBuilder {
    adj: Vec<Vec<usize>>,
    num_edges: usize,
}

impl ForestBuilder {
    fn new(n: usize) -> Self {
        ForestBuilder {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    fn add_edge(&mut self, u: usize, v: usize) {
        debug_assert!(!self.adj[u].contains(&v));
        self.adj[u].push(v);
        self.adj[v].push(u);
        self.num_edges += 1;
    }

    fn remove_edge(&mut self, u: usize, v: usize) {
        let pu = self.adj[u]
            .iter()
            .position(|&x| x == v)
            .expect("edge not present");
        self.adj[u].swap_remove(pu);
        let pv = self.adj[v]
            .iter()
            .position(|&x| x == u)
            .expect("edge not present");
        self.adj[v].swap_remove(pv);
        self.num_edges -= 1;
    }

    fn into_forest(self) -> SpanningForest {
        let n = self.adj.len();
        let mut edges = Vec::with_capacity(self.num_edges);
        for (u, nbrs) in self.adj.iter().enumerate() {
            for &v in nbrs {
                if u < v {
                    edges.push((u, v));
                }
            }
        }
        SpanningForest::new(n, edges)
    }
}

/// Computes an elimination order for the constructive proof of Lemma 1.8:
/// repeatedly remove a vertex that is isolated in the remaining graph or a leaf of
/// a spanning forest of the remaining graph (such a vertex is never a cut vertex).
///
/// Returns the vertices in removal order together with a flag saying whether the
/// vertex was isolated in the remaining graph at the time of its removal.
///
/// Implementation: one BFS per component, removal order = reverse discovery
/// order. In any discovery-order prefix, the parent edges of the non-root
/// prefix vertices form a spanning forest of the induced prefix graph (every
/// parent precedes its child; distinct trees are distinct graph components),
/// and the last-discovered vertex has no children in the prefix, so it is a
/// leaf of that forest. A BFS root is removed last of its component, when all
/// its component-mates are gone, so it is isolated at removal time. This is
/// O(n + m) total, replacing the old leaf scan that rebuilt a BFS forest per
/// removal (Θ(n·(n+m)) on connected graphs).
fn elimination_order<H: ForestHost + ?Sized>(g: &H) -> Vec<(usize, bool)> {
    let n = g.num_vertices();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n {
        if visited[s] {
            continue;
        }
        visited[s] = true;
        order.push((s, true)); // component root: isolated once removal reaches it
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            g.for_each_neighbor(u, &mut |w| {
                if !visited[w] {
                    visited[w] = true;
                    order.push((w, false));
                    queue.push_back(w);
                }
            });
        }
    }
    order.reverse();
    order
}

/// Constructs a spanning forest of `g` with maximum degree at most `delta`,
/// following the constructive proof of Lemma 1.8 (vertex-by-vertex insertion with
/// local repairs as in Algorithm 3).
///
/// Guaranteed to succeed whenever `g` has no induced `delta`-star
/// (`s(G) < delta`, see Lemma 1.7/1.8); it may also succeed on other graphs. When a
/// repair step cannot find the required adjacent pair of neighbors, `None` is
/// returned.
///
/// # Panics
/// Panics if `delta == 0`.
pub fn bounded_degree_spanning_forest(g: &Graph, delta: usize) -> Option<SpanningForest> {
    assert!(delta >= 1, "delta must be at least 1");
    capacity_bounded_forest_host(g, &vec![delta; g.num_vertices()], g.num_vertices())
}

/// Heterogeneous-capacity generalization of [`bounded_degree_spanning_forest`]
/// on a CSR graph: looks for a spanning forest in which every vertex `v` has
/// degree at most `caps[v]`, by the same insertion-with-local-repairs
/// procedure. Both rows are sorted, so on the same graph and uniform
/// capacities it builds the same forest as the adjacency-list search.
///
/// With uniform capacities this is exactly the constructive proof of
/// Lemma 1.8 (guaranteed to succeed when `G` has no induced Δ-star). With
/// non-uniform capacities no such guarantee exists, so this is a *certifying
/// heuristic*: a returned forest always satisfies the capacities (callers get
/// a genuine certificate), while `None` means the procedure got stuck, not
/// that no such forest exists. The combinatorial polytope solver uses it to
/// certify rank-bound optimality on peeled cores whose residual capacities
/// are no longer uniform.
///
/// # Panics
/// Panics if `caps.len() != g.num_vertices()`.
pub fn capacity_bounded_spanning_forest(g: &CsrGraph, caps: &[usize]) -> Option<SpanningForest> {
    capacity_bounded_forest_host(g, caps, g.num_vertices())
}

/// [`bounded_degree_spanning_forest`] on component `c` of a CSR partition,
/// in the component's local ids.
///
/// The search on a whole graph succeeds iff it succeeds on every component
/// of its arena's partition: its elimination order is a BFS from each
/// component's smallest vertex over sorted rows, which the partition's
/// relabelling (monotone within a component) preserves, and an insertion
/// and its repairs only ever touch one component. The repair loop keeps the
/// whole arena's vertex count as its safety bound, so the bound is as
/// strong here as in the whole-arena search.
///
/// # Panics
/// Panics if `delta == 0`.
pub fn component_bounded_degree_spanning_forest(
    part: &ComponentPartition,
    c: usize,
    delta: usize,
) -> Option<SpanningForest> {
    assert!(delta >= 1, "delta must be at least 1");
    let view = part.component(c);
    capacity_bounded_forest_host(
        &view,
        &vec![delta; view.num_vertices()],
        part.arena().num_vertices(),
    )
}

/// The shared insertion-with-local-repairs search. `repair_limit` bounds the
/// repairs of one insertion (the host graph's vertex count for a whole graph,
/// the whole arena's for one component of it).
fn capacity_bounded_forest_host<H: ForestHost + ?Sized>(
    g: &H,
    caps: &[usize],
    repair_limit: usize,
) -> Option<SpanningForest> {
    let n = g.num_vertices();
    assert_eq!(caps.len(), n, "capacity vector length mismatch");
    if n == 0 {
        return Some(SpanningForest::new(0, Vec::new()));
    }
    // A vertex with capacity 0 cannot take any forest edge; bail out early
    // unless it is isolated.
    if (0..n).any(|v| caps[v] == 0 && g.degree(v) > 0) {
        return None;
    }

    let order = elimination_order(g);
    let mut active = vec![false; n];
    let mut forest = ForestBuilder::new(n);

    // Insert vertices in reverse removal order; `active` is the vertex set of the
    // current induced subgraph G_i.
    for &(v0, was_isolated) in order.iter().rev() {
        active[v0] = true;
        if was_isolated {
            continue;
        }
        // v0 had at least one neighbor among the currently active vertices, and is
        // not a cut vertex of the current induced subgraph (it was a forest leaf).
        let v1 = g
            .first_neighbor_where(v0, &mut |w| active[w])
            .expect("non-isolated vertex must have an active neighbor");
        forest.add_edge(v0, v1);

        // Local repair loop (Algorithm 3): only the most recently touched vertex can
        // exceed its bound, and the repaired vertices form a path, so at most n
        // repairs can happen per insertion (`repair_limit` ≥ n is the safety bound).
        let mut prev = v0;
        let mut cur = v1;
        let mut repairs = 0usize;
        while forest.degree(cur) > caps[cur] {
            repairs += 1;
            if repairs > repair_limit {
                return None;
            }
            // The forest-neighbors of `cur`, excluding `prev`.
            let candidates: Vec<usize> = forest.adj[cur]
                .iter()
                .copied()
                .filter(|&w| w != prev)
                .collect();
            debug_assert!(candidates.len() >= caps[cur]);
            // Find a pair (a, b) of candidates adjacent in G, preferring a
            // replacement endpoint `a` with slack capacity so the repair
            // path terminates sooner. With uniform capacities, failure here
            // means G has an induced Δ-star centered at `cur` and the caller
            // asked for an infeasible Δ.
            let mut found: Option<(usize, usize)> = None;
            'outer: for (i, &a) in candidates.iter().enumerate() {
                for &b in candidates.iter().skip(i + 1) {
                    if g.has_edge(a, b) {
                        let (a, b) = if forest.degree(b) < forest.degree(a) || caps[b] > caps[a] {
                            (b, a)
                        } else {
                            (a, b)
                        };
                        if found.is_none() || forest.degree(a) < caps[a] {
                            found = Some((a, b));
                        }
                        if forest.degree(a) < caps[a] {
                            break 'outer;
                        }
                    }
                }
            }
            let (a, b) = found?;
            // Replace (cur, b) by (a, b); the degree of `cur` drops below its
            // capacity and only `a` may now exceed its own.
            forest.remove_edge(cur, b);
            forest.add_edge(a, b);
            prev = cur;
            cur = a;
        }
    }

    let result = forest.into_forest();
    #[cfg(debug_assertions)]
    {
        // Generic invariant check: forest edges belong to the host, are
        // acyclic, and the edge count matches n − #components (= #roots).
        let mut uf = UnionFind::new(n);
        for &(u, v) in result.edges() {
            debug_assert!(g.has_edge(u, v), "forest edge ({u},{v}) not in host");
            debug_assert!(uf.union(u, v), "forest edge ({u},{v}) closes a cycle");
        }
        let roots = order.iter().filter(|&&(_, iso)| iso).count();
        debug_assert_eq!(result.num_edges(), n - roots);
    }
    let degrees = result.degrees();
    if (0..n).all(|v| degrees[v] <= caps[v]) {
        Some(result)
    } else {
        None
    }
}

/// Smallest `Δ` for which the constructive procedure of Lemma 1.8 returns a
/// spanning Δ-forest. This is an upper bound on `Δ*` and, by Lemma 1.6, at most
/// `s(G) + 1`.
///
/// Returns 1 for graphs with no edges (every graph has a spanning 1-forest when it
/// has at most one edge per component).
pub fn delta_star_upper_bound(g: &Graph) -> usize {
    if g.has_no_edges() {
        return 1;
    }
    let max_deg = g.max_degree();
    for delta in 1..=max_deg {
        if bounded_degree_spanning_forest(g, delta).is_some() {
            return delta;
        }
    }
    // A BFS forest always has degree at most the maximum degree.
    max_deg
}

/// Exact `Δ*`: the smallest possible maximum degree of a spanning forest of `g`.
///
/// Uses backtracking over forest edges and is intended for small graphs; returns
/// `None` if the search budget (`node_limit` recursive calls) is exceeded.
pub fn delta_star_exact(g: &Graph, node_limit: usize) -> Option<usize> {
    if g.has_no_edges() {
        return Some(if g.num_vertices() == 0 { 0 } else { 1 });
    }
    let target_edges = g.spanning_forest_size();
    let max_deg = g.max_degree();
    for delta in 1..=max_deg {
        let mut budget = node_limit;
        match has_spanning_forest_with_degree(g, delta, target_edges, &mut budget) {
            Some(true) => return Some(delta),
            Some(false) => continue,
            None => return None,
        }
    }
    Some(max_deg)
}

/// Backtracking search: does `g` have a spanning forest with `target_edges` edges
/// and maximum degree ≤ `delta`? Returns `None` when the budget is exhausted.
fn has_spanning_forest_with_degree(
    g: &Graph,
    delta: usize,
    target_edges: usize,
    budget: &mut usize,
) -> Option<bool> {
    let edges = g.edge_vec();
    let n = g.num_vertices();
    let mut uf = UnionFind::new(n);
    let mut deg = vec![0usize; n];
    #[allow(clippy::too_many_arguments)]
    fn recurse(
        edges: &[(usize, usize)],
        idx: usize,
        chosen: usize,
        target: usize,
        delta: usize,
        uf: &mut UnionFind,
        deg: &mut [usize],
        budget: &mut usize,
    ) -> Option<bool> {
        if chosen == target {
            return Some(true);
        }
        if *budget == 0 {
            return None;
        }
        *budget -= 1;
        // Not enough edges left to reach the target.
        if idx >= edges.len() || edges.len() - idx < target - chosen {
            return Some(false);
        }
        let (u, v) = edges[idx];
        // Branch 1: take the edge if it keeps the forest valid.
        if deg[u] < delta && deg[v] < delta {
            let mut uf2 = uf.clone();
            if uf2.union(u, v) {
                deg[u] += 1;
                deg[v] += 1;
                let r = recurse(
                    edges,
                    idx + 1,
                    chosen + 1,
                    target,
                    delta,
                    &mut uf2,
                    deg,
                    budget,
                );
                deg[u] -= 1;
                deg[v] -= 1;
                match r {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => return None,
                }
            }
        }
        // Branch 2: skip the edge.
        recurse(edges, idx + 1, chosen, target, delta, uf, deg, budget)
    }
    recurse(&edges, 0, 0, target_edges, delta, &mut uf, &mut deg, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::stars::induced_star_number;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bfs_forest_of_path() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let f = bfs_spanning_forest(&g);
        assert_eq!(f.num_edges(), 3);
        assert!(f.is_spanning_forest_of(&g));
        assert_eq!(f.max_degree(), 2);
    }

    #[test]
    fn bfs_forest_of_disconnected_graph() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let f = bfs_spanning_forest(&g);
        assert_eq!(f.num_edges(), g.spanning_forest_size());
        assert!(f.is_spanning_forest_of(&g));
    }

    #[test]
    fn spanning_forest_validation_rejects_cycles_and_foreign_edges() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let cycle = SpanningForest::new(3, vec![(0, 1), (1, 2), (0, 2)]);
        assert!(!cycle.is_spanning_forest_of(&g));
        let foreign = SpanningForest::new(3, vec![(0, 1), (1, 2)]);
        assert!(foreign.is_spanning_forest_of(&g));
        let h = Graph::from_edges(3, &[(0, 1)]);
        assert!(!foreign.is_spanning_forest_of(&h));
    }

    #[test]
    fn degrees_of_star_forest() {
        let f = SpanningForest::new(4, vec![(0, 1), (0, 2), (0, 3)]);
        assert_eq!(f.degrees(), vec![3, 1, 1, 1]);
        assert_eq!(f.max_degree(), 3);
    }

    #[test]
    fn bounded_forest_on_triangle() {
        // A triangle has no induced 2-star, so it must have a spanning 2-forest.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(induced_star_number(&g).value(), 1);
        let f = bounded_degree_spanning_forest(&g, 2).expect("triangle has a spanning path");
        assert!(f.is_spanning_forest_of(&g));
        assert!(f.max_degree() <= 2);
    }

    #[test]
    fn bounded_forest_on_complete_graph() {
        // K_n has no induced 2-star, so a Hamiltonian path (spanning 2-forest) exists.
        let g = generators::complete(7);
        let f =
            bounded_degree_spanning_forest(&g, 2).expect("complete graph has a Hamiltonian path");
        assert!(f.is_spanning_forest_of(&g));
        assert!(f.max_degree() <= 2);
    }

    #[test]
    fn star_requires_full_degree() {
        // K_{1,4}: the only spanning tree is the star itself.
        let g = generators::star(4);
        assert!(bounded_degree_spanning_forest(&g, 3).is_none());
        let f = bounded_degree_spanning_forest(&g, 4).unwrap();
        assert_eq!(f.max_degree(), 4);
        assert_eq!(delta_star_exact(&g, 1 << 20), Some(4));
        assert_eq!(delta_star_upper_bound(&g), 4);
    }

    #[test]
    fn figure_1_style_local_repair() {
        // A wheel-like configuration where inserting the last vertex forces a
        // repair, mirroring Figure 1: center c adjacent to a,b,d,e with (a,b) in G.
        let mut g = generators::complete(5); // no induced 2-stars anywhere
        g.add_vertex();
        g.add_edge(5, 0);
        let f = bounded_degree_spanning_forest(&g, 2);
        // s(G) = 2 here because vertex 5 and a non-neighbor form an induced 2-star
        // at 0; so only Δ = 3 is guaranteed, but Δ=2 may still succeed. Either way
        // Δ=3 must succeed.
        if let Some(f) = f {
            assert!(f.is_spanning_forest_of(&g));
            assert!(f.max_degree() <= 2);
        }
        let f3 = bounded_degree_spanning_forest(&g, 3).expect("s(G)=2 < 3 guarantees success");
        assert!(f3.is_spanning_forest_of(&g));
        assert!(f3.max_degree() <= 3);
    }

    #[test]
    fn lemma_1_8_on_random_graphs() {
        // For random graphs: if s(G) < Δ then the constructive procedure succeeds.
        let mut rng = StdRng::seed_from_u64(7);
        for n in [6, 10, 14] {
            for p in [0.15, 0.3, 0.6] {
                let g = generators::erdos_renyi(n, p, &mut rng);
                let s = induced_star_number(&g).value();
                let delta = s + 1;
                let f = bounded_degree_spanning_forest(&g, delta.max(1))
                    .expect("Lemma 1.8: no induced Δ-star implies spanning Δ-forest");
                assert!(f.is_spanning_forest_of(&g));
                assert!(f.max_degree() <= delta.max(1));
            }
        }
    }

    #[test]
    fn csr_forest_matches_adjacency_forest() {
        let mut rng = StdRng::seed_from_u64(23);
        for n in [6, 12, 20] {
            for p in [0.1, 0.25, 0.5] {
                let g = generators::erdos_renyi(n, p, &mut rng);
                let csr = CsrGraph::from_graph(&g);
                for delta in 1..=4usize {
                    let a = bounded_degree_spanning_forest(&g, delta);
                    let b = capacity_bounded_spanning_forest(&csr, &vec![delta; n]);
                    assert_eq!(a, b, "n={n} p={p} delta={delta}");
                    if let Some(f) = b {
                        assert!(f.is_spanning_forest_of(&g));
                    }
                }
            }
        }
    }

    #[test]
    fn delta_star_exact_on_known_graphs() {
        let path = generators::path(6);
        assert_eq!(delta_star_exact(&path, 1 << 20), Some(2));
        let star = generators::star(5);
        assert_eq!(delta_star_exact(&star, 1 << 20), Some(5));
        let cycle = generators::cycle(5);
        assert_eq!(delta_star_exact(&cycle, 1 << 20), Some(2));
        let complete = generators::complete(5);
        assert_eq!(delta_star_exact(&complete, 1 << 20), Some(2));
        let empty = Graph::new(4);
        assert_eq!(delta_star_exact(&empty, 1 << 20), Some(1));
    }

    #[test]
    fn upper_bound_is_at_least_exact_value() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let g = generators::erdos_renyi(8, 0.35, &mut rng);
            let exact = delta_star_exact(&g, 1 << 22).expect("small graph");
            let ub = delta_star_upper_bound(&g);
            assert!(ub >= exact, "upper bound {ub} below exact {exact}");
            // By Lemma 1.6 the bound from the constructive procedure is ≤ s(G)+1.
            assert!(ub <= induced_star_number(&g).value() + 1);
        }
    }

    #[test]
    fn elimination_order_removes_leaves_or_isolated() {
        // Re-verify the reverse-BFS order against the definition on random
        // graphs: at each step the removed vertex is isolated in the remaining
        // graph or a non-cut vertex with a neighbor remaining.
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..10 {
            let g = generators::erdos_renyi(14, 0.2, &mut rng);
            let order = elimination_order(&g);
            assert_eq!(order.len(), g.num_vertices());
            let mut remaining: Vec<usize> = g.vertices().collect();
            for &(v, was_isolated) in &order {
                let idx = remaining.iter().position(|&u| u == v).expect("in graph");
                let deg = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&w| remaining.contains(&w))
                    .count();
                assert_eq!(was_isolated, deg == 0, "isolation flag for {v}");
                if deg > 0 {
                    // Removing v must not increase the component count by more
                    // than the vanished vertex itself (v is not a cut vertex).
                    let (before, _) = crate::subgraph::induced_subgraph(&g, &remaining);
                    remaining.remove(idx);
                    let (after, _) = crate::subgraph::induced_subgraph(&g, &remaining);
                    assert_eq!(
                        crate::components::num_connected_components(&after),
                        crate::components::num_connected_components(&before) + deg.min(1) - 1,
                        "vertex {v} was a cut vertex"
                    );
                } else {
                    remaining.remove(idx);
                }
            }
        }
    }

    #[test]
    fn single_edge_graph() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let f = bounded_degree_spanning_forest(&g, 1).unwrap();
        assert_eq!(f.num_edges(), 1);
        assert_eq!(delta_star_exact(&g, 1000), Some(1));
        assert_eq!(delta_star_upper_bound(&g), 1);
    }
}
