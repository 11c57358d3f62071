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
//!
//! An arena built together with its partition ([`CsrGraph::partitioned`],
//! or [`CsrGraph::patched`] from the arena of an earlier state of the same
//! graph) has that partition *attached*: [`CsrGraph::attached_partition`]
//! hands it out for as long as the builder holds it, so the family
//! evaluation does not partition the arena again.

mod patch;

pub use patch::PatchScratch;

use crate::graph::Graph;
use crate::unionfind::UnionFind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock, Weak};

/// An immutable, flat CSR view of an undirected simple graph.
///
/// Vertex ids are `u32` (the arena refuses graphs with ≥ 2^32 − 1 vertices or
/// half-edges, far beyond the 10^6–10^7 target scale). Neighbor rows are
/// sorted ascending, mirroring [`Graph`]'s invariant, so `has_edge` stays a
/// binary search and row-wise comparisons against a [`Graph`] are linear.
///
/// Equality compares the two arrays only; the memos and the attached
/// partition never affect it.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// Memo of [`CsrGraph::fingerprint`].
    fingerprint: OnceLock<u128>,
    /// Memo of [`CsrGraph::num_components`], also filled by
    /// [`CsrGraph::partition_components`].
    components: OnceLock<usize>,
    /// The partition built with the arena, held weakly: it lives as long as
    /// its builder (a stream, until its next snapshot) holds it, so older
    /// retained arenas keep no partition. Empty for every other arena.
    partition: Weak<ComponentPartition>,
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
            partition: Weak::new(),
        }
    }

    /// [`from_graph`](Self::from_graph) plus
    /// [`partition_components_with`](Self::partition_components_with) on
    /// `threads`, with the partition attached to the arena (see
    /// [`attached_partition`](Self::attached_partition)). The caller holds
    /// the returned `Arc`; the arena only refers to it.
    ///
    /// A graph of at most one hand-off batch of vertices partitions on the
    /// caller's thread: its stage A hands off a single batch, so a second
    /// thread would overlap nothing and only add its spawn.
    pub fn partitioned(g: &Graph, threads: usize) -> (Self, Arc<ComponentPartition>) {
        let threads = if g.num_vertices() > PARTITION_BATCH {
            threads
        } else {
            1
        };
        let mut arena = CsrGraph::from_graph(g);
        let part = Arc::new(arena.partition_components_with(threads));
        arena.partition = Arc::downgrade(&part);
        (arena, part)
    }

    /// The partition built together with this arena
    /// ([`partitioned`](Self::partitioned), [`patched`](Self::patched)),
    /// while its builder still holds it: equal, array for array, to
    /// [`partition_components`](Self::partition_components). `None` for an
    /// arena built any other way, and once the builder has dropped it.
    pub fn attached_partition(&self) -> Option<Arc<ComponentPartition>> {
        self.partition.upgrade()
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
    /// arrays), streamed with zero allocation. The family cache keys its
    /// *untagged* lookups by it (a lookup tagged with a catalog snapshot is
    /// keyed by the tag, so served and streamed snapshots are never hashed):
    /// two equal graphs always fingerprint equally; collisions between
    /// distinct graphs are guarded by a full arena-equality witness check.
    /// Memoized: only the first call on an arena hashes it.
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

    /// Number of connected components. Memoized: the first call (or the
    /// first [`partition_components`](Self::partition_components)) runs one
    /// pass; later calls are a load.
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

    /// Re-labels the graph so every connected component occupies a contiguous
    /// vertex range of one shared arena: components ordered by smallest
    /// vertex, vertices ascending within each (the local numbering
    /// `induced_subgraph` would assign). Afterwards each component's adjacency
    /// is a borrowed slice ([`CsrComponent`]) — no per-component allocation.
    ///
    /// Sequential; [`partition_components_with`](Self::partition_components_with)
    /// is the same pass on a thread budget, and returns identical arrays.
    pub fn partition_components(&self) -> ComponentPartition {
        self.partition_components_with(1)
    }

    /// [`partition_components`](Self::partition_components) as two stages
    /// that overlap on a thread budget.
    ///
    /// * **Stage A** walks the vertices in ascending order over a visited
    ///   bitset: from each unvisited vertex a traversal collects the
    ///   component. Whole components go out in batches of about 4096
    ///   vertices.
    /// * **Stage B** sorts each component, numbers its vertices into
    ///   `order`, relabels its rows while they are in cache (the numbering
    ///   is monotone within a component, so each row stays sorted) and reads
    ///   its size and maximum degree off the rows it just wrote, for the
    ///   cyclic list and tree degrees the partition keeps.
    ///
    /// With `threads ≥ 2`, stage A runs on one scoped thread and stage B on
    /// the caller's, joined by a bounded channel that holds at most two
    /// batches; with `threads ≤ 1` both run inline on the caller's thread.
    /// Callers gate the budget on the work size (the family evaluation
    /// passes `effective_parallelism(threads, n + m)`). The partition is the
    /// same either way, and a panic in either stage propagates to the
    /// caller. Fills the component-count memo of both this arena and the
    /// relabeled one.
    pub fn partition_components_with(&self, threads: usize) -> ComponentPartition {
        let mut relabel = Relabel::new(self);
        if threads < 2 {
            self.collect_components(|mut batch| {
                relabel.take(&mut batch);
                true
            });
        } else {
            std::thread::scope(|s| {
                let (tx, rx) = mpsc::sync_channel::<Batch>(PARTITION_BATCHES_IN_FLIGHT);
                // A send fails only when stage B has hung up (it panicked),
                // and then stage A stops early.
                let stage_a = s.spawn(move || self.collect_components(|b| tx.send(b).is_ok()));
                for mut batch in rx {
                    relabel.take(&mut batch);
                }
                if let Err(payload) = stage_a.join() {
                    std::panic::resume_unwind(payload);
                }
            });
        }
        relabel.finish()
    }

    /// Stage A of the partition: components in ascending order of their
    /// smallest vertex, handed off in batches until `hand_off` returns
    /// `false` or every vertex is collected.
    fn collect_components(&self, mut hand_off: impl FnMut(Batch) -> bool) {
        let n = self.num_vertices();
        let mut visited = vec![0u64; n.div_ceil(64)];
        let mut batch = Batch::default();
        for start in 0..n {
            if visited[start / 64] & (1 << (start % 64)) != 0 {
                continue;
            }
            visited[start / 64] |= 1 << (start % 64);
            // The batch's vertex list doubles as the traversal queue.
            let base = batch.vertices.len();
            batch.vertices.push(start as u32);
            let mut head = base;
            while head < batch.vertices.len() {
                for &w in self.neighbors(batch.vertices[head] as usize) {
                    let (word, bit) = (w as usize / 64, 1 << (w % 64));
                    if visited[word] & bit == 0 {
                        visited[word] |= bit;
                        batch.vertices.push(w);
                    }
                }
                head += 1;
            }
            batch.ends.push(batch.vertices.len() as u32);
            if batch.vertices.len() >= PARTITION_BATCH && !hand_off(std::mem::take(&mut batch)) {
                return;
            }
        }
        if !batch.ends.is_empty() {
            hand_off(batch);
        }
    }
}

/// Vertices per hand-off batch of the partition's stages (a batch holds
/// whole components, so one larger than this holds a batch alone).
const PARTITION_BATCH: usize = 4096;

/// Batches the partition's channel holds before stage A waits for stage B.
const PARTITION_BATCHES_IN_FLIGHT: usize = 2;

/// A component's size and maximum degree, as the partition reads them off
/// its rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ComponentSummary {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of edges.
    pub edges: usize,
    /// Maximum degree (0 for an isolated vertex).
    pub max_degree: usize,
}

/// Stage A's hand-off: whole components, back to back, each in traversal
/// order until stage B sorts it.
#[derive(Default)]
struct Batch {
    vertices: Vec<u32>,
    /// Exclusive end of each component in `vertices`.
    ends: Vec<u32>,
}

/// Stage B's state: the partition's arrays as they grow.
struct Relabel<'a> {
    src: &'a CsrGraph,
    /// Old vertex → new position (set one component at a time).
    new_of: Vec<u32>,
    /// New position → old vertex.
    order: Vec<u32>,
    comp_starts: Vec<u32>,
    offsets: Vec<u32>,
    targets: Vec<u32>,
    shape: Shape,
}

impl<'a> Relabel<'a> {
    fn new(src: &'a CsrGraph) -> Self {
        let n = src.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        Relabel {
            src,
            new_of: vec![0; n],
            order: Vec::with_capacity(n),
            comp_starts: vec![0],
            offsets,
            targets: Vec::with_capacity(src.targets.len()),
            shape: Shape::default(),
        }
    }

    fn take(&mut self, batch: &mut Batch) {
        let mut lo = 0;
        for &end in &batch.ends {
            let comp = &mut batch.vertices[lo..end as usize];
            comp.sort_unstable();
            let comp = &*comp;
            lo = end as usize;
            for (pos, &old) in (self.order.len() as u32..).zip(comp) {
                self.new_of[old as usize] = pos;
            }
            let first_target = self.targets.len();
            let mut max_degree = 0;
            for &old in comp {
                let row = self.src.neighbors(old as usize);
                max_degree = max_degree.max(row.len());
                self.targets
                    .extend(row.iter().map(|&w| self.new_of[w as usize]));
                self.offsets.push(self.targets.len() as u32);
            }
            self.order.extend_from_slice(comp);
            self.comp_starts.push(self.order.len() as u32);
            let summary = ComponentSummary {
                vertices: comp.len(),
                edges: (self.targets.len() - first_target) / 2,
                max_degree,
            };
            let c = self.comp_starts.len() - 2;
            #[cfg(test)]
            RELABEL_LIMIT.with(|limit| assert!(c < limit.get(), "relabel refused"));
            self.shape.add(c, summary);
        }
    }

    fn finish(self) -> ComponentPartition {
        // Relabeling preserves the component count.
        let k = self.comp_starts.len() - 1;
        let _ = self.src.components.set(k);
        let arena = CsrGraph::from_parts(self.offsets, self.targets);
        let _ = arena.components.set(k);
        ComponentPartition {
            arena,
            comp_starts: self.comp_starts,
            order: self.order,
            shape: self.shape,
            id: PartitionId::fresh(),
            carried: None,
        }
    }
}

/// What the anchor test of the family evaluation reads of a partition's
/// summaries, kept up to date as components are added (and, by a patch,
/// removed).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Shape {
    /// Each non-tree component and its maximum degree, in component order.
    cyclic: Vec<(u32, u32)>,
    /// `tree_degrees[d]`: the number of tree components (isolated vertices
    /// included) whose maximum degree is `d`. Its last entry is never 0.
    tree_degrees: Vec<u32>,
}

impl Shape {
    /// Adds component `c`, the last one so far, with its summary.
    fn add(&mut self, c: usize, summary: ComponentSummary) {
        let d = summary.max_degree;
        if summary.edges + 1 == summary.vertices {
            if self.tree_degrees.len() <= d {
                self.tree_degrees.resize(d + 1, 0);
            }
            self.tree_degrees[d] += 1;
        } else {
            self.cyclic.push((c as u32, d as u32));
        }
    }

    /// Removes one tree component of maximum degree `d`.
    fn remove_tree(&mut self, d: usize) {
        self.tree_degrees[d] -= 1;
        while self.tree_degrees.last() == Some(&0) {
            self.tree_degrees.pop();
        }
    }
}

/// Names one built [`ComponentPartition`]: every partition gets a fresh id
/// when it is built (clones share it), and no id is ever reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PartitionId(u64);

impl PartitionId {
    fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        PartitionId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// What a patched partition carried over from the partition it was patched
/// from.
#[derive(Clone, Debug)]
struct Carried {
    from: PartitionId,
    /// Every component, in runs (see [`CarriedRun`]).
    runs: Vec<CarriedRun>,
}

/// A run of consecutive components of a [patched](CsrGraph::patched)
/// partition, either copied from the partition it was patched from or
/// relabeled. [`ComponentPartition::carried_from`] lists the runs in
/// component order; together they cover every component once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CarriedRun {
    /// The run's first component in the earlier partition, whose next
    /// `len - 1` components follow it in the same order with the same
    /// labeled slices; [`NOT_CARRIED`] for a run of relabeled components.
    pub from: u32,
    /// The run's first component in this partition.
    pub start: u32,
    /// Number of components in the run.
    pub len: u32,
}

/// The [`CarriedRun::from`] of a run of components [`CsrGraph::patched`]
/// relabeled.
pub const NOT_CARRIED: u32 = u32::MAX;

/// A component-contiguous relabeling of a [`CsrGraph`]: one shared arena plus
/// the ranges and the permutation needed to map results back to original ids.
///
/// Equality compares the arrays (and the cyclic components and tree degrees
/// derived from them) only; the partition's id and what it carried never
/// affect it.
#[derive(Clone, Debug)]
pub struct ComponentPartition {
    arena: CsrGraph,
    /// `comp_starts[c]..comp_starts[c + 1]` is component `c`'s vertex range.
    comp_starts: Vec<u32>,
    /// New position → original vertex id.
    order: Vec<u32>,
    shape: Shape,
    id: PartitionId,
    /// Set on a partition [`CsrGraph::patched`] built.
    carried: Option<Carried>,
}

impl PartialEq for ComponentPartition {
    fn eq(&self, other: &Self) -> bool {
        self.arena == other.arena
            && self.comp_starts == other.comp_starts
            && self.order == other.order
            && self.shape == other.shape
    }
}

impl Eq for ComponentPartition {}

impl ComponentPartition {
    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.comp_starts.len() - 1
    }

    /// This partition's id.
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// If this partition was [patched](CsrGraph::patched) from the
    /// partition `from`: its components in runs, in component order, each
    /// run either copied from `from` (the same labeled slices, in the same
    /// order) or relabeled ([`NOT_CARRIED`]). `None` for any other `from`,
    /// and for a partition built from scratch. The components of `from` no
    /// copied run names are the ones the patch replaced.
    pub fn carried_from(&self, from: PartitionId) -> Option<&[CarriedRun]> {
        self.carried
            .as_ref()
            .filter(|carried| carried.from == from)
            .map(|carried| &carried.runs[..])
    }

    /// Component `c`'s summary, read off the component's rows.
    pub(crate) fn summary(&self, c: usize) -> ComponentSummary {
        let view = self.component(c);
        ComponentSummary {
            vertices: view.num_vertices(),
            edges: view.num_edges(),
            max_degree: (0..view.num_vertices())
                .map(|v| view.degree(v))
                .max()
                .unwrap_or(0),
        }
    }

    /// Each component that is not a tree (it holds a cycle), with its
    /// maximum degree, in component order. Every partition keeps this list
    /// as it builds (a patch carries it), so reading it is free.
    pub fn cyclic_components(&self) -> &[(u32, u32)] {
        &self.shape.cyclic
    }

    /// The largest maximum degree of a tree component (isolated vertices
    /// included), 0 without one. Kept like
    /// [`cyclic_components`](Self::cyclic_components).
    pub fn tree_max_degree(&self) -> usize {
        self.shape.tree_degrees.len().saturating_sub(1)
    }

    /// The graph's maximum degree: the larger of
    /// [`tree_max_degree`](Self::tree_max_degree) and the cyclic
    /// components' maximum degrees.
    pub fn max_degree(&self) -> usize {
        let cyclic = self.shape.cyclic.iter().map(|&(_, d)| d as usize);
        cyclic.fold(self.tree_max_degree(), usize::max)
    }

    /// The smallest original vertex of component `c` (components are
    /// ordered by it).
    fn first_vertex(&self, c: usize) -> u32 {
        self.order[self.comp_starts[c] as usize]
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

    /// Number of bridges at each local vertex: the incident edges whose
    /// removal would disconnect their endpoints.
    ///
    /// Every spanning forest holds every bridge, so a vertex with more than
    /// Δ bridges proves the component has no spanning Δ-forest. Two steps,
    /// O(n + m) in all:
    ///
    /// 1. Peel the component to its 2-core. Every peeled edge hangs a tree
    ///    off the rest, so it is a bridge. A leaf's one live neighbor is the
    ///    XOR of its live neighbors, so peeling reads no rows, and it
    ///    follows each new leaf at once.
    /// 2. One iterative lowpoint DFS (Tarjan, 1974) over the 2-core alone
    ///    finds the bridges between its cycles. On sparse random graphs the
    ///    2-core is a small fraction of the component.
    pub fn bridge_degrees(&self) -> Vec<u32> {
        let n = self.len;
        let row = |v: usize| {
            self.arena
                .neighbors(self.start as usize + v)
                .iter()
                .map(|&w| (w - self.start) as usize)
        };
        // Per vertex, side by side: live degree (0 once peeled), the XOR
        // of its live neighbors (so a leaf's one live neighbor is a load,
        // not a row scan) and its bridge count.
        let mut peel: Vec<[u32; 3]> = (0..n)
            .map(|v| {
                [
                    self.degree(v) as u32,
                    row(v).fold(0, |x, w| x ^ w as u32),
                    0,
                ]
            })
            .collect();
        for leaf in 0..n {
            let mut v = leaf;
            while peel[v][0] == 1 {
                let u = peel[v][1] as usize;
                peel[v][0] = 0;
                peel[v][2] += 1;
                peel[u][0] -= 1;
                peel[u][1] ^= v as u32;
                peel[u][2] += 1;
                v = u;
            }
        }
        let live = |v: usize| peel[v][0] > 0;
        let mut bridges: Vec<u32> = peel.iter().map(|p| p[2]).collect();

        // Preorder number (from 1; 0 = unvisited) and lowpoint per vertex.
        let mut pre = vec![0u32; n];
        let mut low = vec![0u32; n];
        // DFS frames: (vertex, tree parent or `usize::MAX`, neighbors left).
        let mut stack = Vec::new();
        let mut clock = 0u32;
        for root in 0..n {
            if !live(root) || pre[root] != 0 {
                continue;
            }
            clock += 1;
            pre[root] = clock;
            low[root] = clock;
            stack.push((root, usize::MAX, row(root)));
            while let Some((v, parent, rest)) = stack.last_mut() {
                let (v, parent) = (*v, *parent);
                match rest.next() {
                    // Simple graph: the one edge back to the parent is the
                    // tree edge itself.
                    Some(w) if !live(w) || w == parent => {}
                    Some(w) if pre[w] == 0 => {
                        clock += 1;
                        pre[w] = clock;
                        low[w] = clock;
                        stack.push((w, v, row(w)));
                    }
                    Some(w) => low[v] = low[v].min(pre[w]),
                    None => {
                        stack.pop();
                        if parent != usize::MAX {
                            low[parent] = low[parent].min(low[v]);
                            if low[v] > pre[parent] {
                                bridges[v] += 1;
                                bridges[parent] += 1;
                            }
                        }
                    }
                }
            }
        }
        bridges
    }

    /// Materializes the component as an adjacency-list [`Graph`] with local
    /// ids, using exact-size sorted row copies (no binary-search insertion).
    /// This is what the polytope solver pieces consume.
    pub fn to_graph(&self) -> Graph {
        let adj: Vec<Vec<usize>> = (0..self.len).map(|v| self.neighbors(v).collect()).collect();
        Graph::from_sorted_adjacency(adj, self.num_edges())
    }
}

/// FNV-1a offset basis folded with the vertex count. Graphs that differ only
/// in trailing isolated vertices already hash different `offsets` arrays
/// (one entry per vertex); seeding with n makes that separation explicit
/// rather than a side effect of the array length.
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
thread_local! {
    /// Stage B panics on reaching this component on this thread, for the
    /// test that a panic there reaches the caller.
    static RELABEL_LIMIT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
            let part = csr.partition_components();
            let comps: Vec<Vec<usize>> = (0..part.num_components())
                .map(|c| {
                    part.component_vertices(c)
                        .iter()
                        .map(|&v| v as usize)
                        .collect()
                })
                .collect();
            assert_eq!(comps, components::components(&g));
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
            // Partitioning fills both memos with the same count a
            // from-scratch union-find pass finds.
            let source = CsrGraph::from_graph(&g);
            let part = source.partition_components();
            assert_eq!(source.components.get(), Some(&truth));
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

    /// The partition the fused pass must reproduce, built the long way:
    /// label every vertex, counting-sort the vertices by label, relabel
    /// every row. Returns `(offsets, targets, comp_starts, order)`.
    fn three_pass_partition(csr: &CsrGraph) -> [Vec<u32>; 4] {
        let n = csr.num_vertices();
        let mut label = vec![u32::MAX; n];
        let mut k = 0u32;
        for start in 0..n {
            if label[start] != u32::MAX {
                continue;
            }
            label[start] = k;
            let mut stack = vec![start];
            while let Some(u) = stack.pop() {
                for &v in csr.neighbors(u) {
                    if label[v as usize] == u32::MAX {
                        label[v as usize] = k;
                        stack.push(v as usize);
                    }
                }
            }
            k += 1;
        }
        let mut comp_starts = vec![0u32; k as usize + 1];
        for &l in &label {
            comp_starts[l as usize + 1] += 1;
        }
        for c in 0..k as usize {
            comp_starts[c + 1] += comp_starts[c];
        }
        let mut cursor = comp_starts.clone();
        let (mut order, mut new_of) = (vec![0u32; n], vec![0u32; n]);
        for (old, &l) in label.iter().enumerate() {
            let pos = cursor[l as usize];
            cursor[l as usize] += 1;
            order[pos as usize] = old as u32;
            new_of[old] = pos;
        }
        let (mut offsets, mut targets) = (vec![0u32], Vec::new());
        for &old in &order {
            targets.extend(
                csr.neighbors(old as usize)
                    .iter()
                    .map(|&w| new_of[w as usize]),
            );
            offsets.push(targets.len() as u32);
        }
        [offsets, targets, comp_starts, order]
    }

    #[test]
    fn fused_partition_matches_the_three_pass_reference() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut graphs = sample_graphs();
        graphs.extend([
            Graph::new(1),
            Graph::new(40),
            generators::caveman(4, 5),
            generators::grid(5, 6),
            generators::barabasi_albert(300, 2, &mut rng),
            generators::random_geometric(200, 0.08, &mut rng),
            generators::erdos_renyi(2000, 1.05 / 2000.0, &mut rng),
            generators::erdos_renyi(500, 4.0 / 500.0, &mut rng),
        ]);
        // Scrambled ids: a giant whose vertices are far from ascending in
        // traversal order, plus isolated vertices interleaved with it.
        let mut scrambled = Graph::new(60);
        for i in 0..29 {
            scrambled.add_edge((7 * i) % 59 + 1, (7 * (i + 1)) % 59 + 1);
        }
        graphs.push(scrambled);
        // A scrambled giant cycle plus enough paths, edges and isolated
        // vertices to fill at least three hand-off batches after it.
        let n = 4 * PARTITION_BATCH + 2000;
        let mut mixed = Graph::new(n);
        let giant = 1500;
        for i in 0..giant {
            mixed.add_edge((37 * i) % giant, (37 * (i + 1)) % giant);
        }
        let mut v = giant;
        while v + 3 < n {
            match v % 4 {
                0 => {
                    mixed.add_edge(v, v + 2);
                    mixed.add_edge(v + 2, v + 1);
                }
                1 => {
                    mixed.add_edge(v, v + 1);
                }
                _ => {}
            }
            v += 3;
        }
        graphs.push(mixed);

        for (i, g) in graphs.iter().enumerate() {
            let csr = CsrGraph::from_graph(g);
            let [offsets, targets, comp_starts, order] = three_pass_partition(&csr);
            let k = comp_starts.len() - 1;
            if g.num_vertices() == n {
                let mut batches = 0;
                csr.collect_components(|_| {
                    batches += 1;
                    true
                });
                assert!(batches >= 3, "graph {i} spans {batches} batches");
            }
            for threads in 1..=3 {
                // A fresh arena, so the partition (not an earlier call)
                // fills its memo.
                let csr = CsrGraph::from_graph(g);
                let part = csr.partition_components_with(threads);
                assert_eq!(part.arena().offsets, offsets, "graph {i} threads {threads}");
                assert_eq!(part.arena().targets, targets, "graph {i} threads {threads}");
                assert_eq!(part.comp_starts, comp_starts, "graph {i} threads {threads}");
                assert_eq!(part.order, order, "graph {i} threads {threads}");
                assert_eq!(csr.components.get(), Some(&k));
                assert_eq!(part.arena().components.get(), Some(&k));
                // Each component's summary equals a direct scan of its
                // rows in the three-pass arrays.
                let direct: Vec<ComponentSummary> = (0..k)
                    .map(|c| {
                        let rows = comp_starts[c] as usize..comp_starts[c + 1] as usize;
                        let degrees = rows.clone().map(|v| offsets[v + 1] - offsets[v]);
                        let half_edges = offsets[rows.end] - offsets[rows.start];
                        ComponentSummary {
                            vertices: rows.len(),
                            edges: half_edges as usize / 2,
                            max_degree: degrees.max().unwrap_or(0) as usize,
                        }
                    })
                    .collect();
                for (c, &direct) in direct.iter().enumerate() {
                    assert_eq!(part.summary(c), direct, "graph {i} component {c}");
                }
                // The cyclic list and the tree degrees the pass kept are
                // those of the direct scans.
                let is_tree = |s: &ComponentSummary| s.edges + 1 == s.vertices;
                let cyclic: Vec<(u32, u32)> = (0..k)
                    .filter(|&c| !is_tree(&direct[c]))
                    .map(|c| (c as u32, direct[c].max_degree as u32))
                    .collect();
                assert_eq!(part.cyclic_components(), cyclic, "graph {i}");
                let tree_max = direct.iter().filter(|s| is_tree(s));
                let tree_max = tree_max.map(|s| s.max_degree).max().unwrap_or(0);
                assert_eq!(part.tree_max_degree(), tree_max, "graph {i}");
                let max_degree = direct.iter().map(|s| s.max_degree).max().unwrap_or(0);
                assert_eq!(part.max_degree(), max_degree, "graph {i}");
                assert_eq!(part.max_degree(), csr.max_degree(), "graph {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "relabel refused")]
    fn a_panic_in_the_relabel_stage_reaches_the_caller() {
        let csr = CsrGraph::from_graph(&Graph::new(4 * PARTITION_BATCH));
        // Stage B runs on the caller's thread, so the limit applies to it.
        RELABEL_LIMIT.with(|limit| limit.set(PARTITION_BATCH));
        csr.partition_components_with(2);
    }

    /// Per-vertex bridge counts by brute force: delete each edge and see
    /// whether the component count rises.
    fn brute_force_bridge_degrees(g: &Graph) -> Vec<u32> {
        let components = g.num_connected_components();
        let mut bridges = vec![0u32; g.num_vertices()];
        for (u, v) in g.edge_vec() {
            let mut cut = g.clone();
            cut.remove_edge(u, v);
            if cut.num_connected_components() > components {
                bridges[u] += 1;
                bridges[v] += 1;
            }
        }
        bridges
    }

    #[test]
    fn bridge_degrees_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut graphs = sample_graphs();
        for n in [12usize, 25, 40] {
            for p in [1.2, 2.0, 3.0] {
                graphs.push(generators::erdos_renyi(n, p / n as f64, &mut rng));
            }
            graphs.push(generators::barabasi_albert(n, 1, &mut rng));
            graphs.push(generators::barabasi_albert(n, 2, &mut rng));
        }
        // Cycles with pendant trees hung off random cycle vertices.
        for (len, extra) in [(3usize, 5usize), (6, 12), (10, 30)] {
            let mut g = generators::cycle(len);
            for _ in 0..extra {
                let v = g.add_vertex();
                g.add_edge(rng.gen_range(0..v), v);
            }
            graphs.push(g);
        }
        // Two triangles joined through a path: bridges inside the 2-core.
        graphs.push(Graph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 5),
            ],
        ));
        for (i, g) in graphs.iter().enumerate() {
            let part = CsrGraph::from_graph(g).partition_components();
            let mut got = vec![0u32; g.num_vertices()];
            for c in 0..part.num_components() {
                let local = part.component(c).bridge_degrees();
                for (&old, &b) in part.component_vertices(c).iter().zip(&local) {
                    got[old as usize] = b;
                }
            }
            assert_eq!(got, brute_force_bridge_degrees(g), "graph {i}");
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
