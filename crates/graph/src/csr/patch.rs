//! An arena and its partition, patched from the arena and partition of an
//! earlier state of the same graph.
//!
//! Only the components that hold a *touched* vertex (one whose row may have
//! changed) can change: every other component of the earlier partition is a
//! component of the new graph with the same rows. So the patch copies those
//! components' slices, each shifted by one constant, and relabels only the
//! components reachable from the touched vertices — the simplest batch form
//! of incremental connectivity (Holm, de Lichtenberg and Thorup, J. ACM
//! 2001, maintain the same components one edge at a time).

use super::{Carried, ComponentPartition, CsrGraph, PartitionId, NOT_CARRIED};
use crate::graph::Graph;
use std::sync::Arc;

/// `new_of` of a vertex no relabeled component holds.
const UNSEEN: u32 = u32::MAX;

/// The buffers [`CsrGraph::patched`] keeps from one patch to the next, so
/// a patch allocates only its outputs (plus a buffer that has to grow).
#[derive(Clone, Debug, Default)]
pub struct PatchScratch {
    /// Vertex → its position in the patched partition, for the vertices of
    /// relabeled components while a patch runs; [`UNSEEN`] everywhere
    /// between patches.
    new_of: Vec<u32>,
    /// The relabeled components' vertices, component after component, each
    /// sorted.
    queue: Vec<u32>,
    /// Each relabeled component: its smallest vertex and its range in
    /// `queue`.
    comps: Vec<(u32, u32, u32)>,
}

impl CsrGraph {
    /// The arena of `g` with its partition attached (see
    /// [`attached_partition`](Self::attached_partition)), patched from
    /// `prev`, the arena of an earlier state of `g`, and `prev_part`, the
    /// partition of `prev`.
    ///
    /// `touched` lists, ascending and without repeats, every vertex below
    /// `prev`'s vertex count whose row may differ between `prev` and `g`;
    /// every vertex `g` added is touched too. The arena copies the other
    /// rows from `prev`. The partition copies every component of
    /// `prev_part` that holds no touched vertex, each with one constant
    /// shift, and relabels the components of `g` that hold one. It equals
    /// [`partition_components`](Self::partition_components) of the arena
    /// array for array, and
    /// [`carried_from`](ComponentPartition::carried_from)`(prev_part.id())`
    /// gives each copied component's index in `prev_part`. Both arenas'
    /// component-count memos are filled. The caller holds the returned
    /// `Arc`; the arena only refers to it.
    ///
    /// The work is one copy of the arrays, a traversal and sort of the
    /// relabeled components, and one read per earlier component (was its
    /// smallest vertex relabeled?). It allocates the outputs only
    /// (`scratch` keeps the rest from one call to the next).
    ///
    /// # Panics
    /// Panics if `g` has fewer vertices than `prev`, if `prev_part` is not
    /// a partition of an arena of `prev`'s size, if `touched` is not
    /// ascending or names a vertex `prev` lacks, or if the graph is too
    /// large for `u32` indexing. It also panics where an unlisted changed
    /// row shows in a count: if the rows do not add up to `g`'s edge count,
    /// or if the relabeled vertices below `prev`'s vertex count are not
    /// exactly those of the components they replace. An unlisted row whose
    /// length did not change can pass both counts, and then the arena keeps
    /// its old neighbours: listing every changed row is the caller's part.
    pub fn patched(
        g: &Graph,
        prev: &CsrGraph,
        prev_part: &ComponentPartition,
        touched: &[u32],
        scratch: &mut PatchScratch,
    ) -> (Self, Arc<ComponentPartition>) {
        let n0 = prev.num_vertices();
        assert!(
            g.num_vertices() >= n0 && prev_part.arena.num_vertices() == n0,
            "the earlier arena and partition do not fit the graph"
        );
        assert!(
            touched.windows(2).all(|w| w[0] < w[1])
                && touched.last().is_none_or(|&t| (t as usize) < n0),
            "touched vertices must be ascending and below the earlier vertex count"
        );
        let mut arena = copy_rows(g, prev, touched);
        let part = Arc::new(patch_partition(&arena, prev_part, touched, scratch));
        let _ = arena.components.set(part.num_components());
        arena.partition = Arc::downgrade(&part);
        (arena, part)
    }
}

/// The arena of `g`: touched and added vertices' rows from `g`, every other
/// row from `prev`, each run of untouched rows in one copy.
fn copy_rows(g: &Graph, prev: &CsrGraph, touched: &[u32]) -> CsrGraph {
    let (n0, n) = (prev.num_vertices(), g.num_vertices());
    let half_edges = 2 * g.num_edges();
    assert!(
        n < u32::MAX as usize && half_edges < u32::MAX as usize,
        "graph exceeds u32 CSR indexing"
    );
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(half_edges);
    offsets.push(0u32);
    // Rows `lo..hi` of `prev`, offsets shifted by one constant.
    let copy = |lo: usize, hi: usize, offsets: &mut Vec<u32>, targets: &mut Vec<u32>| {
        let (start, end) = (prev.offsets[lo], prev.offsets[hi]);
        let shift = (targets.len() as u32).wrapping_sub(start);
        targets.extend_from_slice(&prev.targets[start as usize..end as usize]);
        offsets.extend(
            prev.offsets[lo + 1..=hi]
                .iter()
                .map(|&o| o.wrapping_add(shift)),
        );
    };
    let row = |v: usize, offsets: &mut Vec<u32>, targets: &mut Vec<u32>| {
        targets.extend(g.neighbors(v).iter().map(|&w| w as u32));
        offsets.push(targets.len() as u32);
    };
    let mut next = 0;
    for &t in touched {
        copy(next, t as usize, &mut offsets, &mut targets);
        row(t as usize, &mut offsets, &mut targets);
        next = t as usize + 1;
    }
    copy(next, n0, &mut offsets, &mut targets);
    for v in n0..n {
        row(v, &mut offsets, &mut targets);
    }
    assert_eq!(
        targets.len(),
        half_edges,
        "a row that changed was not listed as touched"
    );
    CsrGraph::from_parts(offsets, targets)
}

/// The partition of `arena`, patched from `prev` (see
/// [`CsrGraph::patched`]).
fn patch_partition(
    arena: &CsrGraph,
    prev: &ComponentPartition,
    touched: &[u32],
    s: &mut PatchScratch,
) -> ComponentPartition {
    let PatchScratch {
        new_of,
        queue,
        comps,
    } = s;
    let (n0, n) = (prev.arena.num_vertices(), arena.num_vertices());
    if new_of.len() < n {
        new_of.resize(n, UNSEEN);
    }
    // One allocation each at most: `queue` holds at most every vertex, and
    // each relabeled component holds a touched or added vertex.
    queue.reserve(n);
    comps.reserve(touched.len() + (n - n0));

    // 1. The relabeled components: a traversal of the new arena from every
    //    touched and every added vertex. Until positions are assigned,
    //    `new_of` 0 marks a vertex as reached.
    for root in touched.iter().map(|&t| t as usize).chain(n0..n) {
        if new_of[root] != UNSEEN {
            continue;
        }
        let lo = queue.len();
        new_of[root] = 0;
        queue.push(root as u32);
        let mut head = lo;
        while head < queue.len() {
            for &w in arena.neighbors(queue[head] as usize) {
                if new_of[w as usize] == UNSEEN {
                    new_of[w as usize] = 0;
                    queue.push(w);
                }
            }
            head += 1;
        }
        queue[lo..].sort_unstable();
        comps.push((queue[lo], lo as u32, queue.len() as u32));
    }
    comps.sort_unstable();

    // 2. Merge the copied and the relabeled components by smallest vertex.
    //    A vertex that lies on no changed row keeps its path to the nearest
    //    touched vertex, so the relabeled vertices below `n0` are exactly
    //    the vertices of the earlier components that hold a touched vertex:
    //    those whose smallest vertex is relabeled. The merge skips them.
    let k0 = prev.num_components();
    let bound = k0 + comps.len();
    let mut out = Patched {
        offsets: Vec::with_capacity(n + 1),
        targets: Vec::with_capacity(arena.targets.len()),
        comp_starts: Vec::with_capacity(bound + 1),
        order: Vec::with_capacity(n),
        max_degrees: Vec::with_capacity(bound),
        carried: Vec::with_capacity(bound),
    };
    out.offsets.push(0);
    out.comp_starts.push(0);
    let mut relabeled = comps.iter().peekable();
    let mut run = 0;
    let mut replaced_vertices = 0;
    for c in 0..k0 {
        let first = prev.first_vertex(c);
        let replaced = new_of[first as usize] != UNSEEN;
        if !replaced && relabeled.peek().is_none_or(|&&(min, ..)| min >= first) {
            continue;
        }
        out.copy_run(prev, run, c);
        while let Some(&(_, lo, hi)) = relabeled.next_if(|&&(min, ..)| min < first) {
            out.relabel(arena, &queue[lo as usize..hi as usize], new_of);
        }
        run = c;
        if replaced {
            replaced_vertices += prev.component_vertices(c).len();
            run += 1;
        }
    }
    out.copy_run(prev, run, k0);
    for &(_, lo, hi) in relabeled {
        out.relabel(arena, &queue[lo as usize..hi as usize], new_of);
    }
    let below = queue.iter().filter(|&&v| (v as usize) < n0).count();
    assert_eq!(
        below, replaced_vertices,
        "a row that changed was not listed as touched"
    );
    let k = out.carried.len();
    debug_assert_eq!(out.order.len(), n);

    for &v in queue.iter() {
        new_of[v as usize] = UNSEEN;
    }
    queue.clear();
    comps.clear();

    let arena = CsrGraph::from_parts(out.offsets, out.targets);
    let _ = arena.components.set(k);
    ComponentPartition {
        arena,
        comp_starts: out.comp_starts,
        order: out.order,
        max_degrees: out.max_degrees,
        id: PartitionId::fresh(),
        carried: Some(Carried {
            from: prev.id,
            index: out.carried,
        }),
    }
}

/// The patched partition's arrays as they grow.
struct Patched {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    comp_starts: Vec<u32>,
    order: Vec<u32>,
    max_degrees: Vec<u32>,
    carried: Vec<u32>,
}

impl Patched {
    /// Copies `prev`'s components `from..to`, none of them replaced: their
    /// positions shift by one constant and their half-edges by another.
    fn copy_run(&mut self, prev: &ComponentPartition, from: usize, to: usize) {
        let (p0, p1) = (
            prev.comp_starts[from] as usize,
            prev.comp_starts[to] as usize,
        );
        let shift = (self.order.len() as u32).wrapping_sub(p0 as u32);
        self.order.extend_from_slice(&prev.order[p0..p1]);
        self.comp_starts.extend(
            prev.comp_starts[from + 1..=to]
                .iter()
                .map(|&s| s.wrapping_add(shift)),
        );
        self.carried.extend(from as u32..to as u32);
        if prev.max_degrees.is_empty() {
            self.max_degrees
                .extend((from..to).map(|c| prev.summary(c).max_degree as u32));
        } else {
            self.max_degrees
                .extend_from_slice(&prev.max_degrees[from..to]);
        }
        let offsets = &prev.arena.offsets;
        let (e0, e1) = (offsets[p0], offsets[p1]);
        let edge_shift = (self.targets.len() as u32).wrapping_sub(e0);
        self.offsets.extend(
            offsets[p0 + 1..=p1]
                .iter()
                .map(|&o| o.wrapping_add(edge_shift)),
        );
        self.targets.extend(
            prev.arena.targets[e0 as usize..e1 as usize]
                .iter()
                .map(|&w| w.wrapping_add(shift)),
        );
    }

    /// Appends one relabeled component, its vertices ascending: the same
    /// numbering and rows the partition pass gives it.
    fn relabel(&mut self, arena: &CsrGraph, vertices: &[u32], new_of: &mut [u32]) {
        for (pos, &v) in (self.order.len() as u32..).zip(vertices) {
            new_of[v as usize] = pos;
        }
        let mut max_degree = 0;
        for &v in vertices {
            let row = arena.neighbors(v as usize);
            max_degree = max_degree.max(row.len());
            self.targets.extend(row.iter().map(|&w| new_of[w as usize]));
            self.offsets.push(self.targets.len() as u32);
        }
        self.order.extend_from_slice(vertices);
        self.comp_starts.push(self.order.len() as u32);
        self.max_degrees.push(max_degree as u32);
        self.carried.push(NOT_CARRIED);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Patches `next` from `prev` with `touched` and checks the result
    /// against a build from scratch.
    fn check(prev: &Graph, next: &Graph, touched: &[u32], scratch: &mut PatchScratch) {
        let (prev_arena, prev_part) = CsrGraph::partitioned(prev, 1);
        let (arena, part) = CsrGraph::patched(next, &prev_arena, &prev_part, touched, scratch);
        assert_eq!(arena, CsrGraph::from_graph(next));
        let cold = CsrGraph::from_graph(next).partition_components();
        assert_eq!(*part, cold);
        assert_eq!(arena.components.get(), Some(&cold.num_components()));
        assert!(Arc::ptr_eq(&arena.attached_partition().unwrap(), &part));
        let carried = part.carried_from(prev_part.id()).unwrap();
        for (c, &from) in carried.iter().enumerate() {
            if from != NOT_CARRIED {
                let (a, b) = (part.component(c), prev_part.component(from as usize));
                assert_eq!(a.to_graph(), b.to_graph(), "component {c} from {from}");
                assert_eq!(
                    part.component_vertices(c),
                    prev_part.component_vertices(from as usize)
                );
            }
        }
        assert!(part.carried_from(part.id()).is_none());
        // The patch keeps each maximum degree; the cold partition reads
        // them off its rows.
        assert!(cold.max_degrees.is_empty());
        for c in 0..cold.num_components() {
            assert_eq!(part.summary(c), cold.summary(c), "component {c}");
        }
        // The scratch is ready for the next patch.
        assert!(new_of_is_clear(scratch));
    }

    fn new_of_is_clear(s: &PatchScratch) -> bool {
        s.new_of.iter().all(|&p| p == UNSEEN) && s.queue.is_empty()
    }

    #[test]
    fn patches_match_builds_from_scratch() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut scratch = PatchScratch::default();
        for round in 0..60 {
            // Graphs of a few thousand vertices, and graphs so small that a
            // relabeled component is often most of the graph.
            let n = match round % 3 {
                0 => rng.gen_range(300..3000),
                _ => rng.gen_range(1..120),
            };
            let prev = generators::erdos_renyi(n, (1.3 / n as f64).min(1.0), &mut rng);
            let mut next = prev.clone();
            let mut touched = Vec::new();
            for _ in 0..rng.gen_range(0..6) {
                let (u, v) = (rng.gen_range(0..n + 3), rng.gen_range(0..n + 3));
                if u == v {
                    continue;
                }
                while next.num_vertices() <= u.max(v) {
                    next.add_vertex();
                }
                if round % 2 == 0 && next.has_edge(u, v) {
                    next.remove_edge(u, v);
                } else {
                    next.add_edge(u, v);
                }
                touched.extend([u, v].into_iter().filter(|&x| x < n).map(|x| x as u32));
            }
            touched.sort_unstable();
            touched.dedup();
            check(&prev, &next, &touched, &mut scratch);
        }
    }

    #[test]
    #[should_panic(expected = "not listed as touched")]
    fn an_unlisted_changed_row_is_refused() {
        let prev = generators::path(5);
        let mut next = prev.clone();
        next.remove_edge(1, 2);
        let (arena, part) = CsrGraph::partitioned(&prev, 1);
        let _ = CsrGraph::patched(&next, &arena, &part, &[1], &mut PatchScratch::default());
    }
}
