//! Induced subgraphs.
//!
//! Node-differential privacy is defined over node-neighboring graphs
//! (Definition 1.1): `G` and `G'` are neighbors if one is obtained from the other
//! by removing a vertex and its adjacent edges. The node distance between a graph
//! and an induced subgraph is simply the number of removed vertices, which is what
//! the paper's Lipschitz extensions and the down-sensitivity use; this module
//! builds those induced subgraphs.

use crate::graph::Graph;

/// Induced subgraph on the vertex set `keep`.
///
/// Returns the new graph (with vertices renumbered `0..keep.len()` in the order of
/// `keep`) and the mapping from new indices to original indices.
///
/// # Panics
/// Panics if `keep` contains duplicates or out-of-range vertices.
pub fn induced_subgraph(g: &Graph, keep: &[usize]) -> (Graph, Vec<usize>) {
    let n = g.num_vertices();
    let mut new_index = vec![usize::MAX; n];
    for (new, &old) in keep.iter().enumerate() {
        assert!(old < n, "vertex {old} out of range");
        assert!(
            new_index[old] == usize::MAX,
            "duplicate vertex {old} in keep set"
        );
        new_index[old] = new;
    }
    // Build each adjacency row in one pass with at most one allocation,
    // instead of binary-search-inserting every edge twice (which made
    // repeated per-component extraction quadratic in row length and
    // allocation-heavy at n = 10^5). When `keep` is ascending — the
    // per-component case — the relabeling is monotone, so rows come out
    // sorted for free; otherwise one sort per row restores the invariant.
    let ascending = keep.windows(2).all(|w| w[0] < w[1]);
    let mut adj: Vec<Vec<usize>> = Vec::with_capacity(keep.len());
    let mut half_edges = 0usize;
    for &old_u in keep {
        let mut row = Vec::with_capacity(g.degree(old_u));
        for &old_v in g.neighbors(old_u) {
            let new_v = new_index[old_v];
            if new_v != usize::MAX {
                row.push(new_v);
            }
        }
        if !ascending {
            row.sort_unstable();
        }
        half_edges += row.len();
        adj.push(row);
    }
    (
        Graph::from_sorted_adjacency(adj, half_edges / 2),
        keep.to_vec(),
    )
}

/// Induced subgraph obtained by removing vertex `v` (a node-neighbor of `g`).
///
/// Returns the new graph and the mapping from new indices to original indices.
pub fn remove_vertex(g: &Graph, v: usize) -> (Graph, Vec<usize>) {
    let keep: Vec<usize> = (0..g.num_vertices()).filter(|&u| u != v).collect();
    induced_subgraph(g, &keep)
}

/// Enumerates all induced subgraphs of `g` as vertex subsets (bitmask order).
///
/// Intended for brute-force validation on small graphs only.
///
/// # Panics
/// Panics if the graph has more than 20 vertices.
pub fn all_vertex_subsets(g: &Graph) -> impl Iterator<Item = Vec<usize>> + '_ {
    let n = g.num_vertices();
    assert!(n <= 20, "subset enumeration is limited to 20 vertices");
    (0u32..(1u32 << n)).map(move |mask| (0..n).filter(|&v| mask >> v & 1 == 1).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let (h, map) = induced_subgraph(&g, &[0, 1, 2]);
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 2);
        assert!(h.has_edge(0, 1));
        assert!(h.has_edge(1, 2));
        assert!(!h.has_edge(0, 2));
        assert_eq!(map, vec![0, 1, 2]);
    }

    #[test]
    fn induced_subgraph_respects_keep_order() {
        let g = Graph::from_edges(4, &[(0, 3)]);
        let (h, map) = induced_subgraph(&g, &[3, 0]);
        assert!(h.has_edge(0, 1));
        assert_eq!(map, vec![3, 0]);
    }

    #[test]
    fn remove_vertex_drops_adjacent_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (2, 3)]);
        let (h, map) = remove_vertex(&g, 0);
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 1);
        assert_eq!(map, vec![1, 2, 3]);
        // vertices 2 and 3 map to new indices 1 and 2
        assert!(h.has_edge(1, 2));
    }

    #[test]
    fn all_subsets_count() {
        let g = Graph::new(4);
        assert_eq!(all_vertex_subsets(&g).count(), 16);
    }

    #[test]
    #[should_panic]
    fn induced_subgraph_rejects_duplicates() {
        let g = Graph::new(3);
        induced_subgraph(&g, &[0, 0]);
    }

    #[test]
    fn empty_keep_set_gives_empty_graph() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let (h, _) = induced_subgraph(&g, &[]);
        assert_eq!(h.num_vertices(), 0);
        assert_eq!(h.num_edges(), 0);
    }
}
