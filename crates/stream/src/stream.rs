//! Timestamped edge-mutation ingestion and immutable versioned snapshots.
//!
//! A [`GraphStream`] owns one evolving graph and consumes a time-ordered
//! feed of [`Mutation`]s (edge insertions and deletions, single or batched).
//! Applying a mutation touches only the adjacency rows of its two
//! endpoints, and the stream records those two vertices as *touched*.
//!
//! Insertions are capped at [`DEFAULT_MAX_VERTICES`] (or the initial graph's
//! size, if larger), so one malformed feed line cannot exhaust memory.
//!
//! Calling [`GraphStream::snapshot`] freezes the current state into an
//! immutable [`GraphSnapshot`] stamped with the stream's next
//! [`GraphVersion`]; versions increase monotonically and are never reused,
//! so downstream consumers (registry, cache, release records) can treat
//! `(id, version)` as a permanent name for one exact edge set. A snapshot is
//! one [`CsrGraph`] arena with its [`ComponentPartition`] attached, and the
//! registry publishes that `Arc` as is. The first snapshot builds both from
//! the live graph. Every later one patches them from the previous
//! snapshot's ([`CsrGraph::patched`]): untouched rows and components are
//! copied, and only the components that hold a touched vertex (or a vertex
//! the universe grew by) are relabeled. The partition fills the snapshot's
//! component count, and the release on the snapshot reads it instead of
//! partitioning the arena again. The stream holds the latest partition
//! until its next snapshot; an older snapshot's arena keeps none.

use crate::error::StreamError;
use ccdp_graph::io::DEFAULT_MAX_VERTICES;
use ccdp_graph::{ComponentPartition, CsrGraph, Graph, GraphVersion, PatchScratch};
use ccdp_serve::GraphId;
use std::sync::Arc;

/// What one mutation does to an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeOp {
    /// Add the edge (no-op if present).
    Insert,
    /// Remove the edge (no-op if absent).
    Delete,
}

/// One timestamped edge mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Mutation {
    /// Stream time of the mutation (non-decreasing within a feed).
    pub time: u64,
    /// Insert or delete.
    pub op: EdgeOp,
    /// One endpoint.
    pub u: usize,
    /// The other endpoint.
    pub v: usize,
}

impl Mutation {
    /// An insertion of `(u, v)` at `time`.
    pub fn insert(time: u64, u: usize, v: usize) -> Self {
        Mutation {
            time,
            op: EdgeOp::Insert,
            u,
            v,
        }
    }

    /// A deletion of `(u, v)` at `time`.
    pub fn delete(time: u64, u: usize, v: usize) -> Self {
        Mutation {
            time,
            op: EdgeOp::Delete,
            u,
            v,
        }
    }
}

/// An immutable, versioned freeze of one stream's state.
#[derive(Clone, Debug)]
pub struct GraphSnapshot {
    id: GraphId,
    version: GraphVersion,
    graph: Arc<CsrGraph>,
    time: u64,
    mutations_applied: u64,
}

impl GraphSnapshot {
    /// The stream's catalog id.
    pub fn id(&self) -> &GraphId {
        &self.id
    }

    /// The snapshot's monotonically increasing version.
    pub fn version(&self) -> GraphVersion {
        self.version
    }

    /// The frozen graph's arena (shared, never mutated).
    pub fn graph(&self) -> &Arc<CsrGraph> {
        &self.graph
    }

    /// Exact number of connected components at the freeze point.
    ///
    /// This is the *true* (non-private) count, read from the arena's
    /// component memo, which the snapshot's partition filled when the
    /// stream built it. It exists for validation and must never be released
    /// to a tenant as-is.
    pub fn num_components(&self) -> usize {
        self.graph.num_components()
    }

    /// Stream clock at the freeze point.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Mutations the stream had accepted when frozen.
    pub fn mutations_applied(&self) -> u64 {
        self.mutations_applied
    }
}

/// Counters of one stream's lifetime (cheap copies for reports).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Mutations accepted (including no-ops on already-present/absent edges).
    pub mutations_applied: u64,
    /// Insertions that changed the graph.
    pub edges_inserted: u64,
    /// Deletions that changed the graph.
    pub edges_deleted: u64,
    /// Component-structure rebuilds. Every snapshot after the first patches
    /// the previous one's partition, so this always reads 0; it stays
    /// because the benchmark's stream workload reports it.
    pub rebuilds: u64,
    /// Snapshots published.
    pub snapshots: u64,
}

/// One evolving graph fed by timestamped edge mutations.
#[derive(Clone, Debug)]
pub struct GraphStream {
    id: GraphId,
    graph: Graph,
    clock: u64,
    next_version: GraphVersion,
    stats: StreamStats,
    /// The last snapshot's arena and partition, which the next snapshot is
    /// patched from; `None` before the first snapshot.
    last: Option<(Arc<CsrGraph>, Arc<ComponentPartition>)>,
    /// Endpoints below the last snapshot's vertex count of the mutations
    /// that changed the graph since, with repeats, but never more than
    /// twice that vertex count of them.
    touched: Vec<u32>,
    scratch: PatchScratch,
}

impl GraphStream {
    /// An empty stream (no vertices, no edges) named `id`.
    pub fn new(id: impl Into<GraphId>) -> Self {
        Self::from_graph(id, Graph::default())
    }

    /// A stream starting from an existing graph (version numbering starts at
    /// [`GraphVersion::INITIAL`] with the first snapshot).
    pub fn from_graph(id: impl Into<GraphId>, graph: Graph) -> Self {
        GraphStream {
            id: id.into(),
            graph,
            clock: 0,
            next_version: GraphVersion::INITIAL,
            stats: StreamStats::default(),
            last: None,
            touched: Vec::new(),
            scratch: PatchScratch::default(),
        }
    }

    /// The stream's catalog id.
    pub fn id(&self) -> &GraphId {
        &self.id
    }

    /// The current graph (read-only; mutate through [`GraphStream::apply`]).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The stream clock: the timestamp of the last accepted mutation.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The version the *next* snapshot will carry.
    pub fn next_version(&self) -> GraphVersion {
        self.next_version
    }

    /// Lifetime counters.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Applies one mutation. Returns whether the graph changed (re-inserting
    /// a present edge or deleting an absent one is an accepted no-op).
    ///
    /// Only *insertions* grow the vertex universe (up to the cap of
    /// [`DEFAULT_MAX_VERTICES`], or the initial graph's size if larger): a
    /// deletion
    /// naming unseen vertices cannot possibly remove an edge, so it is a
    /// plain no-op — a typoed delete line never inflates the component
    /// count.
    ///
    /// # Errors
    /// [`StreamError::TimestampRegression`] if `m.time` is before the stream
    /// clock, [`StreamError::SelfLoop`] on `u == v`,
    /// and [`StreamError::VertexOutOfRange`] if an insertion names a vertex
    /// at or beyond the cap.
    pub fn apply(&mut self, m: &Mutation) -> Result<bool, StreamError> {
        if m.time < self.clock {
            return Err(StreamError::TimestampRegression {
                last: self.clock,
                got: m.time,
            });
        }
        if m.u == m.v {
            return Err(StreamError::SelfLoop { vertex: m.u });
        }
        let top = m.u.max(m.v);
        // Insertions never grow the universe past the cap, so the current
        // size exceeds the default cap only when the initial graph did.
        let max_vertices = DEFAULT_MAX_VERTICES.max(self.graph.num_vertices());
        if m.op == EdgeOp::Insert && top >= max_vertices {
            return Err(StreamError::VertexOutOfRange {
                vertex: top,
                max_vertices,
            });
        }
        self.clock = m.time;
        let changed = match m.op {
            EdgeOp::Insert => {
                self.grow_to(top + 1);
                let changed = self.graph.add_edge(m.u, m.v);
                if changed {
                    self.stats.edges_inserted += 1;
                }
                changed
            }
            EdgeOp::Delete => {
                // Endpoints beyond the current universe cannot hold an edge;
                // remove_edge treats them as the absent-edge no-op.
                let changed = self.graph.remove_edge(m.u, m.v);
                if changed {
                    self.stats.edges_deleted += 1;
                }
                changed
            }
        };
        self.stats.mutations_applied += 1;
        if changed {
            self.touch(m.u, m.v);
        }
        Ok(changed)
    }

    /// Records the endpoints of a mutation that changed the graph. Vertices
    /// the last snapshot lacks need no record: the next patch relabels every
    /// added vertex. Once the records reach twice the vertex count they are
    /// sorted and deduplicated, which leaves at most one per vertex, so a
    /// long run of mutations between snapshots holds O(n) records.
    fn touch(&mut self, u: usize, v: usize) {
        let Some((last, _)) = &self.last else {
            return;
        };
        let n = last.num_vertices();
        self.touched
            .extend([u, v].into_iter().filter(|&x| x < n).map(|x| x as u32));
        if self.touched.len() >= 2 * n {
            self.touched.sort_unstable();
            self.touched.dedup();
        }
    }

    /// Applies a batch in order; returns how many mutations changed the
    /// graph. Fails fast: on error, mutations before the offender are
    /// already applied.
    pub fn apply_batch(&mut self, batch: &[Mutation]) -> Result<usize, StreamError> {
        let mut changed = 0;
        for m in batch {
            if self.apply(m)? {
                changed += 1;
            }
        }
        Ok(changed)
    }

    /// Freezes the current state into an immutable snapshot and advances the
    /// stream's version counter. The snapshot's arena carries its partition
    /// (see the module docs): the first snapshot builds both in O(n + m);
    /// every later one copies what the mutations since the last snapshot
    /// left untouched and relabels only the components they touched, and
    /// allocates a constant number of times.
    pub fn snapshot(&mut self) -> GraphSnapshot {
        let version = self.next_version;
        self.next_version = version.next();
        self.stats.snapshots += 1;
        let (arena, part) = match &self.last {
            Some((last, last_part)) => {
                self.touched.sort_unstable();
                self.touched.dedup();
                CsrGraph::patched(
                    &self.graph,
                    last,
                    last_part,
                    &self.touched,
                    &mut self.scratch,
                )
            }
            // The partition's two stages overlap on two threads.
            None => CsrGraph::partitioned(&self.graph, 2),
        };
        self.touched.clear();
        let graph = Arc::new(arena);
        self.last = Some((Arc::clone(&graph), part));
        GraphSnapshot {
            id: self.id.clone(),
            version,
            graph,
            time: self.clock,
            mutations_applied: self.stats.mutations_applied,
        }
    }

    fn grow_to(&mut self, n: usize) {
        while self.graph.num_vertices() < n {
            self.graph.add_vertex();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream graph's component count, recounted.
    fn components(s: &GraphStream) -> usize {
        s.graph().num_connected_components()
    }

    #[test]
    fn insertions_merge_components_without_rebuilds() {
        let mut s = GraphStream::new("g");
        s.apply(&Mutation::insert(1, 0, 1)).unwrap();
        s.apply(&Mutation::insert(2, 2, 3)).unwrap();
        assert_eq!(components(&s), 2);
        s.apply(&Mutation::insert(3, 1, 2)).unwrap();
        assert_eq!(components(&s), 1);
        // Re-inserting is an accepted no-op.
        assert!(!s.apply(&Mutation::insert(4, 0, 1)).unwrap());
        let stats = s.stats();
        assert_eq!(stats.mutations_applied, 4);
        assert_eq!(stats.edges_inserted, 3);
        assert_eq!(stats.rebuilds, 0, "the stream never rebuilds");
    }

    #[test]
    fn deletions_split_components_without_rebuilds() {
        let mut s = GraphStream::from_graph("g", Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]));
        assert_eq!(components(&s), 2);
        // A deletion storm: three deletes, no rebuild before or after the
        // count is read.
        s.apply(&Mutation::delete(1, 0, 1)).unwrap();
        s.apply(&Mutation::delete(1, 1, 2)).unwrap();
        s.apply(&Mutation::delete(1, 3, 4)).unwrap();
        assert_eq!(s.stats().rebuilds, 0);
        assert_eq!(components(&s), 5);
        assert_eq!(s.stats().rebuilds, 0, "the stream never rebuilds");
        // Insertions after the storm merge again.
        s.apply(&Mutation::insert(2, 0, 4)).unwrap();
        assert_eq!(components(&s), 4);
        assert_eq!(s.stats().rebuilds, 0);
    }

    #[test]
    fn long_runs_between_snapshots_keep_the_touched_set_bounded() {
        let n = 10;
        let mut s = GraphStream::from_graph("g", Graph::from_edges(n, &[(0, 1), (2, 3)]));
        s.snapshot();
        let mut time = 0;
        // 31 rounds over the path's 9 edges, inserting on even rounds and
        // deleting on odd ones: far more records than 2n, ending on inserts.
        for round in 0..31 {
            for u in 0..n - 1 {
                time += 1;
                let m = if round % 2 == 0 {
                    Mutation::insert(time, u, u + 1)
                } else {
                    Mutation::delete(time, u, u + 1)
                };
                s.apply(&m).unwrap();
                assert!(s.touched.len() <= 2 * n, "{} records", s.touched.len());
            }
        }
        let snap = s.snapshot();
        assert_eq!(**snap.graph(), CsrGraph::from_graph(s.graph()));
        let part = snap.graph().attached_partition().expect("patched");
        assert_eq!(*part, snap.graph().partition_components());
        assert_eq!(snap.num_components(), 1);
        assert_eq!(s.stats().rebuilds, 0, "the stream never rebuilds");
    }

    #[test]
    fn deleting_a_cycle_edge_keeps_components() {
        let mut s = GraphStream::from_graph("g", Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]));
        s.apply(&Mutation::delete(1, 0, 1)).unwrap();
        assert_eq!(components(&s), 1, "cycle edge removal cannot split");
        // Deleting an absent edge is an accepted no-op.
        assert!(!s.apply(&Mutation::delete(2, 0, 1)).unwrap());
    }

    #[test]
    fn mutations_grow_the_vertex_universe() {
        let mut s = GraphStream::new("g");
        s.apply(&Mutation::insert(1, 7, 2)).unwrap();
        assert_eq!(s.graph().num_vertices(), 8);
        // 6 isolated vertices + the {2,7} component.
        assert_eq!(components(&s), 7);
    }

    #[test]
    fn deletes_of_unseen_vertices_never_grow_the_universe() {
        // Regression: a typoed delete line must not inflate the component
        // count by materializing isolated vertices.
        let mut s = GraphStream::from_graph("g", Graph::from_edges(2, &[(0, 1)]));
        assert!(!s.apply(&Mutation::delete(1, 0, 999)).unwrap());
        assert_eq!(s.graph().num_vertices(), 2);
        assert_eq!(components(&s), 1);
    }

    #[test]
    fn insertions_beyond_the_cap_are_typed_refusals() {
        let mut s = GraphStream::new("g");
        s.apply(&Mutation::insert(1, 0, 9)).unwrap();
        let err = s
            .apply(&Mutation::insert(2, 0, DEFAULT_MAX_VERTICES))
            .unwrap_err();
        assert_eq!(
            err,
            StreamError::VertexOutOfRange {
                vertex: DEFAULT_MAX_VERTICES,
                max_vertices: DEFAULT_MAX_VERTICES
            }
        );
        // usize::MAX cannot overflow the growth arithmetic: it is refused
        // before any growth happens.
        let err = s.apply(&Mutation::insert(3, 0, usize::MAX)).unwrap_err();
        assert!(matches!(err, StreamError::VertexOutOfRange { .. }));
        assert_eq!(s.graph().num_vertices(), 10);
        // Refused insertions are not counted as applied.
        assert_eq!(s.stats().mutations_applied, 1);
    }

    #[test]
    fn timestamps_must_be_monotone() {
        let mut s = GraphStream::new("g");
        s.apply(&Mutation::insert(5, 0, 1)).unwrap();
        let err = s.apply(&Mutation::insert(3, 1, 2)).unwrap_err();
        assert_eq!(err, StreamError::TimestampRegression { last: 5, got: 3 });
        // Equal timestamps are fine (batches share a tick).
        s.apply(&Mutation::insert(5, 1, 2)).unwrap();
        assert_eq!(s.clock(), 5);
    }

    #[test]
    fn self_loops_are_typed_refusals() {
        let mut s = GraphStream::new("g");
        let err = s.apply(&Mutation::insert(1, 3, 3)).unwrap_err();
        assert_eq!(err, StreamError::SelfLoop { vertex: 3 });
        assert_eq!(s.stats().mutations_applied, 0);
    }

    #[test]
    fn snapshots_are_immutable_and_versioned() {
        let mut s = GraphStream::new("g");
        s.apply(&Mutation::insert(1, 0, 1)).unwrap();
        let snap0 = s.snapshot();
        assert_eq!(snap0.version(), GraphVersion::INITIAL);
        assert_eq!(snap0.num_components(), 1);
        assert_eq!(snap0.mutations_applied(), 1);
        // Mutating the stream after the freeze does not touch the snapshot.
        s.apply(&Mutation::insert(2, 2, 3)).unwrap();
        let snap1 = s.snapshot();
        assert_eq!(snap1.version(), GraphVersion::new(1));
        assert_eq!(snap0.graph().num_vertices(), 2);
        assert_eq!(snap1.graph().num_vertices(), 4);
        assert_eq!(snap1.num_components(), 2);
        assert_eq!(s.stats().snapshots, 2);
        assert_eq!(s.next_version(), GraphVersion::new(2));
    }

    #[test]
    fn snapshot_counts_match_recount_on_a_mixed_workload() {
        let mut s = GraphStream::new("g");
        let script = [
            Mutation::insert(1, 0, 1),
            Mutation::insert(2, 1, 2),
            Mutation::insert(3, 3, 4),
            Mutation::delete(4, 1, 2),
            Mutation::insert(5, 2, 3),
            Mutation::delete(6, 0, 1),
            Mutation::insert(7, 0, 4),
        ];
        for m in &script {
            assert!(s.apply(m).unwrap(), "every scripted mutation is real");
            assert_eq!(
                s.snapshot().num_components(),
                ccdp_graph::components::num_connected_components(s.graph()),
                "divergence after {m:?}"
            );
        }
        // End state: {0, 2, 3, 4} connected via 2-3 and 0-4, {1} isolated.
        assert_eq!(components(&s), 2);
    }

    #[test]
    fn batch_failures_report_and_keep_the_prefix() {
        let mut s = GraphStream::new("g");
        let script = [
            Mutation::insert(1, 0, 1),
            Mutation::insert(0, 1, 2), // regression
            Mutation::insert(3, 2, 3),
        ];
        let err = s.apply_batch(&script).unwrap_err();
        assert!(matches!(err, StreamError::TimestampRegression { .. }));
        // The prefix before the offender was applied.
        assert_eq!(s.graph().num_edges(), 1);
        assert_eq!(s.stats().mutations_applied, 1);
    }
}
