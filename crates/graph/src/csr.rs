//! Flat compressed-sparse-row (CSR) graph arena — the hot-path memory layout.
//!
//! [`Graph`] keeps one heap-allocated `Vec<usize>` per vertex, which is
//! convenient for mutation but hostile to the cache once n reaches 10^5–10^6:
//! every neighbor scan chases a fresh pointer and every vertex id costs eight
//! bytes. [`CsrGraph`] is the immutable counterpart used by the solving hot
//! path: all adjacency lives in two contiguous arrays of `u32`,
//!
//! ```text
//! offsets: [0, d(0), d(0)+d(1), …, 2m]        (n + 1 entries)
//! targets: [nbrs(0)…, nbrs(1)…, …, nbrs(n-1)…] (2m entries, each row sorted)
//! ```
//!
//! so `degree` is one subtraction, neighbor iteration is a linear scan of one
//! slice, and the whole structure is `Send + Sync` without locks. Construction
//! from a [`Graph`] is a single O(n + m) copy.
//!
//! [`CsrGraph::partition_components`] goes one step further: it relabels the
//! vertices so every connected component occupies a *contiguous* range of the
//! arena. Per-component subproblems then borrow slices of the shared arrays
//! ([`CsrComponent`]) instead of re-allocating adjacency per component — the
//! allocation that used to dominate repeated `induced_subgraph` extraction.
//!
//! Because the arena never changes after construction, the two per-graph
//! facts a release needs — [`CsrGraph::fingerprint`] and
//! [`CsrGraph::num_components`] — are memoized: the first call pays one
//! O(n + m) pass, every later call on the same arena (or a clone of it) is a
//! load.

use crate::graph::Graph;
use crate::unionfind::UnionFind;
use std::sync::OnceLock;

/// An immutable, flat CSR view of an undirected simple graph.
///
/// Vertex ids are `u32` (the arena refuses graphs with ≥ 2^32 − 1 vertices or
/// half-edges, far beyond the 10^6–10^7 target scale). Neighbor rows are
/// sorted ascending, mirroring [`Graph`]'s invariant, so `has_edge` stays a
/// binary search and row-wise comparisons against a [`Graph`] are linear.
///
/// Equality compares the two arrays only; the memos never affect it.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// Memo of [`CsrGraph::fingerprint`].
    fingerprint: OnceLock<u128>,
    /// Memo of [`CsrGraph::num_components`], also filled by
    /// [`CsrGraph::component_labels`] (and so by `partition_components`).
    components: OnceLock<usize>,
}

impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets && self.targets == other.targets
    }
}

impl Eq for CsrGraph {}

impl CsrGraph {
    /// The one constructor every build path ends in: arrays in, memos empty.
    fn from_parts(offsets: Vec<u32>, targets: Vec<u32>) -> Self {
        CsrGraph {
            offsets,
            targets,
            fingerprint: OnceLock::new(),
            components: OnceLock::new(),
        }
    }

    /// Builds the flat arena from an adjacency-list graph in O(n + m).
    ///
    /// # Panics
    /// Panics if the graph has too many vertices or half-edges for `u32`
    /// indexing.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.num_vertices();
        let half_edges = 2 * g.num_edges();
        assert!(
            n < u32::MAX as usize && half_edges < u32::MAX as usize,
            "graph exceeds u32 CSR indexing"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(half_edges);
        offsets.push(0u32);
        for v in 0..n {
            for &w in g.neighbors(v) {
                targets.push(w as u32);
            }
            offsets.push(targets.len() as u32);
        }
        CsrGraph::from_parts(offsets, targets)
    }

    /// Builds the arena directly from a re-playable edge stream in two
    /// counting passes, never materializing an adjacency-list [`Graph`].
    ///
    /// `edges` is called twice and must yield the same multiset of edges both
    /// times (a deterministic generator, or a re-read of an edge list). Pass
    /// one counts degrees, pass two scatters the half-edges into the arena;
    /// rows are then sorted and exact duplicates removed. Self-loops are
    /// rejected. Peak memory is the arena itself plus one `u32` cursor per
    /// vertex — this is what unlocks n = 10⁷, where building the intermediate
    /// `Vec<Vec<usize>>` adjacency first costs more than the whole solve.
    ///
    /// # Panics
    /// Panics on an endpoint `>= n`, a self-loop, a stream that yields a
    /// different edge count on the second pass, or a graph too large for
    /// `u32` indexing.
    pub fn from_edge_stream<I, F>(n: usize, mut edges: F) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
        F: FnMut() -> I,
    {
        assert!(n < u32::MAX as usize, "graph exceeds u32 CSR indexing");
        let nu = n as u32;
        // Pass 1: degree counts.
        let mut degree = vec![0u32; n];
        let mut half_edges = 0usize;
        for (u, v) in edges() {
            assert!(u < nu && v < nu, "edge ({u}, {v}) out of range for n = {n}");
            assert!(u != v, "self-loop ({u}, {v}) is not a simple-graph edge");
            degree[u as usize] += 1;
            degree[v as usize] += 1;
            half_edges += 2;
        }
        assert!(
            half_edges < u32::MAX as usize,
            "graph exceeds u32 CSR indexing"
        );
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        // Pass 2: scatter half-edges; `degree` becomes the per-row cursor.
        degree.iter_mut().for_each(|d| *d = 0);
        let mut targets = vec![0u32; half_edges];
        let mut seen = 0usize;
        for (u, v) in edges() {
            targets[(offsets[u as usize] + degree[u as usize]) as usize] = v;
            degree[u as usize] += 1;
            targets[(offsets[v as usize] + degree[v as usize]) as usize] = u;
            degree[v as usize] += 1;
            seen += 2;
        }
        assert_eq!(seen, half_edges, "edge stream changed between passes");
        for v in 0..n {
            targets[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        let csr = CsrGraph::from_parts(offsets, targets);
        if csr.has_duplicate_half_edges() {
            csr.deduplicated()
        } else {
            csr
        }
    }

    /// `true` if any sorted row contains a repeated target (duplicate edge).
    fn has_duplicate_half_edges(&self) -> bool {
        (0..self.num_vertices()).any(|v| self.neighbors(v).windows(2).any(|w| w[0] == w[1]))
    }

    /// Rebuilds the arena with duplicate edges collapsed (rows stay sorted).
    fn deduplicated(&self) -> Self {
        let n = self.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(self.targets.len());
        offsets.push(0u32);
        for v in 0..n {
            let row = self.neighbors(v);
            for (i, &w) in row.iter().enumerate() {
                if i == 0 || row[i - 1] != w {
                    targets.push(w);
                }
            }
            offsets.push(targets.len() as u32);
        }
        CsrGraph::from_parts(offsets, targets)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// `true` if the graph has no edges.
    #[inline]
    pub fn has_no_edges(&self) -> bool {
        self.targets.is_empty()
    }

    /// Degree of vertex `v` — one subtraction, no pointer chase.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Sorted slice of the neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// `true` if the edge `(u, v)` is present (binary search over one row).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        if u >= self.num_vertices() || v >= self.num_vertices() {
            return false;
        }
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Iterator over edges as `(u, v)` pairs with `u < v`, in the same
    /// canonical order as [`Graph::edges`].
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.num_vertices()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| u < v as usize)
                .map(move |&v| (u, v as usize))
        })
    }

    /// Converts back to an adjacency-list [`Graph`] in O(n + m) (exact-size
    /// row allocations, no binary-search insertion).
    pub fn to_graph(&self) -> Graph {
        let n = self.num_vertices();
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|v| self.neighbors(v).iter().map(|&w| w as usize).collect())
            .collect();
        Graph::from_sorted_adjacency(adj, self.num_edges())
    }

    /// Structural equality against an adjacency-list graph, allocation-free:
    /// same vertex count, same sorted neighbor rows.
    pub fn matches_graph(&self, g: &Graph) -> bool {
        if g.num_vertices() != self.num_vertices() || g.num_edges() != self.num_edges() {
            return false;
        }
        (0..self.num_vertices()).all(|v| {
            let row = self.neighbors(v);
            let nbrs = g.neighbors(v);
            row.len() == nbrs.len() && row.iter().zip(nbrs).all(|(&a, &b)| a as usize == b)
        })
    }

    /// A 128-bit structural fingerprint (FNV-1a over the offset and target
    /// arrays), streamed with zero allocation. Used by cache keys: two equal
    /// graphs always fingerprint equally; collisions between distinct graphs
    /// are guarded by a full arena-equality witness check. Memoized: only the
    /// first call on an arena hashes it.
    pub fn fingerprint(&self) -> u128 {
        *self.fingerprint.get_or_init(|| {
            let mut h = fingerprint_seed(self.num_vertices());
            for &o in &self.offsets {
                h = fnv1a_128(h, o);
            }
            for &t in &self.targets {
                h = fnv1a_128(h, t);
            }
            h
        })
    }

    /// Labels every vertex with its connected component, numbered `0..k` in
    /// order of smallest vertex — identical numbering to
    /// [`connected_component_labels`](crate::components::connected_component_labels).
    pub fn component_labels(&self) -> Vec<u32> {
        let n = self.num_vertices();
        let mut label = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut stack: Vec<u32> = Vec::new();
        for start in 0..n {
            if label[start] != u32::MAX {
                continue;
            }
            label[start] = next;
            stack.push(start as u32);
            while let Some(u) = stack.pop() {
                for &v in self.neighbors(u as usize) {
                    if label[v as usize] == u32::MAX {
                        label[v as usize] = next;
                        stack.push(v);
                    }
                }
            }
            next += 1;
        }
        // The labelling just counted the components: fill the memo for free.
        let _ = self.components.set(next as usize);
        label
    }

    /// Number of connected components. Memoized: the first call (or the
    /// first [`component_labels`](Self::component_labels)) runs one pass of
    /// the union-find; later calls are a load.
    pub fn num_components(&self) -> usize {
        *self.components.get_or_init(|| {
            let n = self.num_vertices();
            let mut uf = UnionFind::new(n);
            for u in 0..n {
                for &v in self.neighbors(u) {
                    if (v as usize) > u {
                        uf.union(u, v as usize);
                    }
                }
            }
            uf.num_sets()
        })
    }

    /// Spanning-forest size `f_sf = n − f_cc` (reads the component memo).
    pub fn spanning_forest_size(&self) -> usize {
        self.num_vertices() - self.num_components()
    }

    /// Vertex sets of the components, ordered by smallest vertex, vertices
    /// ascending within each — identical to
    /// [`components`](crate::components::components) on the same graph.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let labels = self.component_labels();
        let k = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut comps = vec![Vec::new(); k];
        for (v, &l) in labels.iter().enumerate() {
            comps[l as usize].push(v);
        }
        comps
    }

    /// Re-labels the graph so every connected component occupies a contiguous
    /// vertex range of one shared arena. One O(n + m) pass; afterwards each
    /// component's adjacency is a borrowed slice ([`CsrComponent`]) — no
    /// per-component allocation.
    pub fn partition_components(&self) -> ComponentPartition {
        let n = self.num_vertices();
        let labels = self.component_labels();
        let k = labels.iter().copied().max().map_or(0, |m| m as usize + 1);

        // New order: vertices sorted by (component, old id). Since labels are
        // assigned in order of smallest vertex, a counting pass in old-id
        // order lands every component's vertices ascending — the same local
        // numbering `induced_subgraph` would assign.
        let mut comp_sizes = vec![0u32; k];
        for &l in &labels {
            comp_sizes[l as usize] += 1;
        }
        let mut comp_starts = vec![0u32; k + 1];
        for c in 0..k {
            comp_starts[c + 1] = comp_starts[c] + comp_sizes[c];
        }
        let mut order = vec![0u32; n]; // new position -> old vertex
        let mut new_of = vec![0u32; n]; // old vertex -> new position
        let mut cursor = comp_starts[..k].to_vec();
        for (old, &l) in labels.iter().enumerate() {
            let pos = cursor[l as usize];
            cursor[l as usize] += 1;
            order[pos as usize] = old as u32;
            new_of[old] = pos;
        }

        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(self.targets.len());
        offsets.push(0u32);
        for &old in &order {
            // Old rows are sorted by old id; within one component the
            // relabeling is monotone (ascending old ids -> ascending new
            // positions), so the new row stays sorted without a sort.
            for &w in self.neighbors(old as usize) {
                targets.push(new_of[w as usize]);
            }
            offsets.push(targets.len() as u32);
        }

        // Relabeling preserves the component count.
        let arena = CsrGraph::from_parts(offsets, targets);
        let _ = arena.components.set(k);
        ComponentPartition {
            arena,
            comp_starts,
            order,
        }
    }
}

/// A component-contiguous relabeling of a [`CsrGraph`]: one shared arena plus
/// the ranges and the permutation needed to map results back to original ids.
#[derive(Clone, Debug)]
pub struct ComponentPartition {
    arena: CsrGraph,
    /// `comp_starts[c]..comp_starts[c + 1]` is component `c`'s vertex range.
    comp_starts: Vec<u32>,
    /// New position → original vertex id.
    order: Vec<u32>,
}

impl ComponentPartition {
    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.comp_starts.len() - 1
    }

    /// The shared relabeled arena.
    pub fn arena(&self) -> &CsrGraph {
        &self.arena
    }

    /// Borrowed view of component `c` — slices of the shared arena, no
    /// allocation.
    pub fn component(&self, c: usize) -> CsrComponent<'_> {
        let start = self.comp_starts[c];
        let end = self.comp_starts[c + 1];
        CsrComponent {
            arena: &self.arena,
            start,
            len: (end - start) as usize,
        }
    }

    /// Original vertex ids of component `c`, ascending (identical to the
    /// corresponding entry of [`components`](crate::components::components)).
    pub fn component_vertices(&self, c: usize) -> &[u32] {
        &self.order[self.comp_starts[c] as usize..self.comp_starts[c + 1] as usize]
    }
}

/// A borrowed, zero-allocation view of one connected component inside a
/// [`ComponentPartition`]. Local vertex ids are `0..len`, ordered by original
/// id, matching what `induced_subgraph` on the component's vertex set would
/// produce.
#[derive(Clone, Copy, Debug)]
pub struct CsrComponent<'a> {
    arena: &'a CsrGraph,
    start: u32,
    len: usize,
}

impl<'a> CsrComponent<'a> {
    /// Number of vertices in the component.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.len
    }

    /// Number of edges in the component.
    pub fn num_edges(&self) -> usize {
        let s = self.arena.offsets[self.start as usize] as usize;
        let e = self.arena.offsets[self.start as usize + self.len] as usize;
        (e - s) / 2
    }

    /// Degree of local vertex `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.arena.degree(self.start as usize + v)
    }

    /// Whether local vertices `u` and `v` are adjacent (binary search).
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.arena
            .has_edge(self.start as usize + u, self.start as usize + v)
    }

    /// Iterator over the local-id neighbors of local vertex `v` (sorted).
    #[inline]
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + 'a {
        let start = self.start;
        self.arena
            .neighbors(start as usize + v)
            .iter()
            .map(move |&w| (w - start) as usize)
    }

    /// Materializes the component as an adjacency-list [`Graph`] with local
    /// ids, using exact-size sorted row copies (no binary-search insertion).
    /// This is what the polytope solver pieces consume.
    pub fn to_graph(&self) -> Graph {
        let adj: Vec<Vec<usize>> = (0..self.len).map(|v| self.neighbors(v).collect()).collect();
        Graph::from_sorted_adjacency(adj, self.num_edges())
    }
}

/// FNV-1a offset basis folded with the vertex count, so graphs differing only
/// in trailing isolated vertices fingerprint differently even with equal
/// arrays... (they don't have equal arrays — `offsets` length differs — but
/// seeding with n keeps the property obvious).
fn fingerprint_seed(n: usize) -> u128 {
    fnv1a_128(0x6c62_272e_07bb_0142_62b8_2175_6295_c58d, n as u32)
}

#[inline]
fn fnv1a_128(mut h: u128, word: u32) -> u128 {
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    for byte in word.to_le_bytes() {
        h ^= byte as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_graphs() -> Vec<Graph> {
        let mut rng = StdRng::seed_from_u64(7);
        vec![
            Graph::new(0),
            Graph::new(5),
            generators::path(9),
            generators::cycle(6),
            generators::star(7),
            generators::complete(5),
            generators::planted_star_forest(6, 2, 3),
            generators::erdos_renyi(40, 0.08, &mut rng),
            generators::erdos_renyi(60, 2.5 / 60.0, &mut rng),
        ]
    }

    #[test]
    fn round_trips_every_sample_graph() {
        for g in sample_graphs() {
            let csr = CsrGraph::from_graph(&g);
            assert_eq!(csr.num_vertices(), g.num_vertices());
            assert_eq!(csr.num_edges(), g.num_edges());
            assert_eq!(csr.max_degree(), g.max_degree());
            for v in g.vertices() {
                assert_eq!(csr.degree(v), g.degree(v));
                let row: Vec<usize> = csr.neighbors(v).iter().map(|&w| w as usize).collect();
                assert_eq!(row, g.neighbors(v));
            }
            assert!(csr.matches_graph(&g));
            assert_eq!(csr.to_graph(), g);
            assert_eq!(csr.edges().collect::<Vec<_>>(), g.edge_vec());
        }
    }

    #[test]
    fn component_structure_matches_adjacency_path() {
        for g in sample_graphs() {
            let csr = CsrGraph::from_graph(&g);
            assert_eq!(
                csr.num_components(),
                components::num_connected_components(&g)
            );
            assert_eq!(
                csr.spanning_forest_size(),
                components::spanning_forest_size(&g)
            );
            assert_eq!(csr.components(), components::components(&g));
            let labels: Vec<usize> = csr.component_labels().iter().map(|&l| l as usize).collect();
            assert_eq!(labels, components::connected_component_labels(&g));
        }
    }

    #[test]
    fn memos_agree_with_from_scratch_counts_and_never_affect_equality() {
        for g in sample_graphs() {
            let truth = components::num_connected_components(&g);
            let fresh = CsrGraph::from_graph(&g);
            let cold_clone = fresh.clone();
            let print = fresh.fingerprint();
            assert_eq!(fresh.num_components(), truth);
            // A clone taken after the fill carries the memos; one taken
            // before and an independent build do not.
            let warm_clone = fresh.clone();
            assert_eq!(warm_clone.fingerprint.get(), Some(&print));
            assert_eq!(warm_clone.components.get(), Some(&truth));
            let independent = CsrGraph::from_graph(&g);
            assert!(independent.fingerprint.get().is_none());
            assert!(independent == fresh && cold_clone == fresh);
            for arena in [&cold_clone, &warm_clone, &independent] {
                assert_eq!(arena.fingerprint(), print);
                assert_eq!(arena.num_components(), truth);
                assert_eq!(arena.spanning_forest_size(), g.num_vertices() - truth);
                assert_eq!(*arena, fresh);
            }
            // Labelling and partitioning fill the memo with the same count
            // a from-scratch union-find pass finds.
            let labelled = CsrGraph::from_graph(&g);
            labelled.component_labels();
            assert_eq!(labelled.components.get(), Some(&truth));
            let part = CsrGraph::from_graph(&g).partition_components();
            let relabeled = part.arena();
            assert_eq!(relabeled.components.get(), Some(&truth));
            let recount =
                CsrGraph::from_parts(relabeled.offsets.clone(), relabeled.targets.clone());
            assert_eq!(recount.num_components(), truth);
            assert_eq!(recount, *relabeled);
        }
    }

    #[test]
    fn partition_slices_agree_with_induced_subgraphs() {
        for g in sample_graphs() {
            let csr = CsrGraph::from_graph(&g);
            let part = csr.partition_components();
            let comps = components::components(&g);
            assert_eq!(part.num_components(), comps.len());
            for (c, comp) in comps.iter().enumerate() {
                let verts: Vec<usize> = part
                    .component_vertices(c)
                    .iter()
                    .map(|&v| v as usize)
                    .collect();
                assert_eq!(&verts, comp, "component {c} vertex set");
                let view = part.component(c);
                let (expected, map) = crate::subgraph::induced_subgraph(&g, comp);
                assert_eq!(map, *comp);
                assert_eq!(view.num_vertices(), expected.num_vertices());
                assert_eq!(view.num_edges(), expected.num_edges());
                assert_eq!(view.to_graph(), expected, "component {c} adjacency");
            }
        }
    }

    #[test]
    fn fingerprints_separate_structurally_distinct_graphs() {
        let graphs = sample_graphs();
        let prints: Vec<u128> = graphs
            .iter()
            .map(|g| CsrGraph::from_graph(g).fingerprint())
            .collect();
        for i in 0..graphs.len() {
            for j in i + 1..graphs.len() {
                if graphs[i] != graphs[j] {
                    assert_ne!(prints[i], prints[j], "graphs {i} and {j} collided");
                }
            }
        }
        // Deterministic across constructions.
        let g = generators::cycle(12);
        assert_eq!(
            CsrGraph::from_graph(&g).fingerprint(),
            CsrGraph::from_graph(&g).fingerprint()
        );
    }

    #[test]
    fn isolated_vertices_change_the_fingerprint() {
        let a = Graph::from_edges(2, &[(0, 1)]);
        let b = Graph::from_edges(3, &[(0, 1)]);
        assert_ne!(
            CsrGraph::from_graph(&a).fingerprint(),
            CsrGraph::from_graph(&b).fingerprint()
        );
    }

    #[test]
    fn edge_stream_build_matches_from_graph() {
        for g in sample_graphs() {
            let edges: Vec<(u32, u32)> = g
                .edge_vec()
                .iter()
                .map(|&(u, v)| (u as u32, v as u32))
                .collect();
            let streamed = CsrGraph::from_edge_stream(g.num_vertices(), || edges.iter().copied());
            assert_eq!(streamed, CsrGraph::from_graph(&g));
        }
    }

    #[test]
    fn edge_stream_build_sorts_unordered_input() {
        // Reversed endpoints and shuffled order must land in the same arena.
        let edges = [(4u32, 0u32), (2, 1), (0, 1), (3, 4)];
        let csr = CsrGraph::from_edge_stream(5, || edges.iter().copied());
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 4), (3, 4)]);
        assert!(csr.matches_graph(&g));
    }

    #[test]
    fn edge_stream_build_collapses_duplicates() {
        let edges = [(0u32, 1u32), (1, 0), (0, 1), (1, 2)];
        let csr = CsrGraph::from_edge_stream(3, || edges.iter().copied());
        assert_eq!(csr.num_edges(), 2);
        assert!(csr.matches_graph(&Graph::from_edges(3, &[(0, 1), (1, 2)])));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn edge_stream_build_rejects_self_loops() {
        let edges = [(1u32, 1u32)];
        let _ = CsrGraph::from_edge_stream(3, || edges.iter().copied());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_stream_build_rejects_out_of_range_endpoints() {
        let edges = [(0u32, 7u32)];
        let _ = CsrGraph::from_edge_stream(3, || edges.iter().copied());
    }

    #[test]
    fn has_edge_matches_graph() {
        let g = generators::erdos_renyi(25, 0.15, &mut StdRng::seed_from_u64(3));
        let csr = CsrGraph::from_graph(&g);
        for u in 0..25 {
            for v in 0..25 {
                assert_eq!(csr.has_edge(u, v), g.has_edge(u, v));
            }
        }
        assert!(!csr.has_edge(0, 99));
    }
}
