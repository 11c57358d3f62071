//! Induced stars and the star number `s(G)`.
//!
//! An induced `k`-star centered at `v₀` is a set `{v₀, v₁, …, v_k}` such that `v₀`
//! is adjacent to every `vᵢ` and the `vᵢ` are pairwise non-adjacent. The star
//! number `s(G)` is the largest `k` such that `G` has an induced `k`-star.
//! Lemma 1.7 of the paper shows `DS_{f_sf}(G) = s(G)`, which is how the paper's
//! accuracy guarantee connects to the structure of the input graph.
//!
//! Computing `s(G)` requires a maximum independent set inside each neighborhood,
//! which is NP-hard in general. This module provides an exact branch-and-bound
//! search for neighborhoods of at most 128 vertices (more than enough for the
//! sparse workloads evaluated in the paper) and falls back to a greedy lower bound
//! for larger neighborhoods, reporting which one was used.

use crate::graph::Graph;

/// Result of a star-number computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StarNumber {
    value: usize,
    exact: bool,
}

impl StarNumber {
    /// The computed star number (a lower bound if `!is_exact()`).
    pub fn value(&self) -> usize {
        self.value
    }

    /// Whether the value is exact.
    pub fn is_exact(&self) -> bool {
        self.exact
    }
}

/// Largest independent set size of the small graph described by `adj_masks`,
/// where vertex `i`'s neighbors are the set bits of `adj_masks[i]`.
///
/// Exact branch-and-bound, suitable for up to 128 vertices.
pub fn max_independent_set_size(adj_masks: &[u128]) -> usize {
    let n = adj_masks.len();
    assert!(n <= 128, "bitset MIS limited to 128 vertices");
    let all: u128 = if n == 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    };
    fn mis(candidates: u128, adj: &[u128], best: &mut usize, current: usize) {
        if candidates == 0 {
            *best = (*best).max(current);
            return;
        }
        // Bound: even taking every candidate cannot beat the best.
        if current + candidates.count_ones() as usize <= *best {
            return;
        }
        // Pick the candidate with the largest degree within the candidate set; we
        // branch on taking it or discarding it.
        let mut pick = u32::MAX;
        let mut pick_deg = 0u32;
        let mut c = candidates;
        while c != 0 {
            let v = c.trailing_zeros();
            c &= c - 1;
            let d = (adj[v as usize] & candidates).count_ones();
            if pick == u32::MAX || d > pick_deg {
                pick = v;
                pick_deg = d;
            }
        }
        let v = pick as usize;
        // Branch 1: take v.
        mis(candidates & !(1u128 << v) & !adj[v], adj, best, current + 1);
        // Branch 2: discard v.
        mis(candidates & !(1u128 << v), adj, best, current);
    }
    let mut best = 0;
    mis(all, adj_masks, &mut best, 0);
    best
}

/// Greedy (minimum-degree) independent set: a lower bound on the MIS size.
fn greedy_independent_set_size(adj_masks: &[Vec<usize>]) -> usize {
    let n = adj_masks.len();
    let mut alive: Vec<bool> = vec![true; n];
    let mut deg: Vec<usize> = adj_masks.iter().map(Vec::len).collect();
    let mut size = 0;
    while let Some(v) = (0..n).filter(|&v| alive[v]).min_by_key(|&v| deg[v]) {
        size += 1;
        alive[v] = false;
        for &w in &adj_masks[v] {
            if alive[w] {
                alive[w] = false;
                for &x in &adj_masks[w] {
                    deg[x] = deg[x].saturating_sub(1);
                }
            }
        }
    }
    size
}

/// Largest induced star centered at `center`: the MIS size of the subgraph induced
/// by the neighborhood of `center`. Returns the value and whether it is exact.
pub fn induced_star_at(g: &Graph, center: usize) -> StarNumber {
    let nbrs = g.neighbors(center);
    let k = nbrs.len();
    if k == 0 {
        return StarNumber {
            value: 0,
            exact: true,
        };
    }
    // Count edges inside the neighborhood; if there are none, the whole
    // neighborhood is an induced star.
    let internal_edges = g.edges_within(nbrs);
    if internal_edges == 0 {
        return StarNumber {
            value: k,
            exact: true,
        };
    }
    if k <= 128 {
        let index_of = |v: usize| nbrs.binary_search(&v).unwrap();
        let mut masks = vec![0u128; k];
        for (i, &u) in nbrs.iter().enumerate() {
            for &w in g.neighbors(u) {
                if w != center && nbrs.binary_search(&w).is_ok() {
                    masks[i] |= 1u128 << index_of(w);
                }
            }
        }
        StarNumber {
            value: max_independent_set_size(&masks),
            exact: true,
        }
    } else {
        let mut local_adj = vec![Vec::new(); k];
        for (i, &u) in nbrs.iter().enumerate() {
            for &w in g.neighbors(u) {
                if w != center {
                    if let Ok(j) = nbrs.binary_search(&w) {
                        local_adj[i].push(j);
                    }
                }
            }
        }
        StarNumber {
            value: greedy_independent_set_size(&local_adj),
            exact: false,
        }
    }
}

/// The star number `s(G)`: the largest `k` such that `G` has an induced `k`-star.
///
/// Exact whenever every neighborhood has at most 128 vertices (the result reports
/// exactness). A graph with no edges has `s(G) = 0`.
pub fn induced_star_number(g: &Graph) -> StarNumber {
    let mut value = 0;
    let mut exact = true;
    for v in g.vertices() {
        // A vertex whose degree is not larger than the current best cannot improve it.
        if g.degree(v) <= value {
            continue;
        }
        let s = induced_star_at(g, v);
        if s.value() > value {
            value = s.value();
            exact = s.is_exact();
        } else if !s.is_exact() {
            // A non-exact neighborhood might have hidden a larger star.
            exact = false;
        }
    }
    StarNumber { value, exact }
}

/// Brute-force star number by checking all center/leaf subsets. Exponential; only
/// for validation on tiny graphs (≤ 20 vertices).
pub fn induced_star_number_brute_force(g: &Graph) -> usize {
    let n = g.num_vertices();
    assert!(n <= 20, "brute force limited to 20 vertices");
    let mut best = 0;
    for center in 0..n {
        let nbrs = g.neighbors(center);
        let k = nbrs.len();
        for mask in 0u32..(1 << k) {
            let leaves: Vec<usize> = (0..k)
                .filter(|&i| mask >> i & 1 == 1)
                .map(|i| nbrs[i])
                .collect();
            if leaves.len() <= best {
                continue;
            }
            let independent = leaves
                .iter()
                .enumerate()
                .all(|(i, &u)| leaves.iter().skip(i + 1).all(|&v| !g.has_edge(u, v)));
            if independent {
                best = leaves.len();
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_graph_has_no_stars() {
        let g = Graph::new(5);
        let s = induced_star_number(&g);
        assert_eq!(s.value(), 0);
        assert!(s.is_exact());
    }

    #[test]
    fn single_edge_is_a_one_star() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        assert_eq!(induced_star_number(&g).value(), 1);
    }

    #[test]
    fn star_graph_has_full_star() {
        let g = generators::star(6);
        assert_eq!(induced_star_number(&g).value(), 6);
    }

    #[test]
    fn complete_graph_has_only_one_stars() {
        let g = generators::complete(6);
        assert_eq!(induced_star_number(&g).value(), 1);
    }

    #[test]
    fn path_has_two_stars() {
        let g = generators::path(6);
        assert_eq!(induced_star_number(&g).value(), 2);
    }

    #[test]
    fn cycle_four_has_two_star() {
        let g = generators::cycle(4);
        assert_eq!(induced_star_number(&g).value(), 2);
        let g5 = generators::cycle(5);
        assert_eq!(induced_star_number(&g5).value(), 2);
        let g3 = generators::cycle(3);
        assert_eq!(induced_star_number(&g3).value(), 1);
    }

    #[test]
    fn mis_on_small_graphs() {
        // Triangle: MIS = 1.
        let tri = vec![0b110u128, 0b101, 0b011];
        assert_eq!(max_independent_set_size(&tri), 1);
        // Path on 4 vertices: MIS = 2.
        let p4 = vec![0b0010u128, 0b0101, 0b1010, 0b0100];
        assert_eq!(max_independent_set_size(&p4), 2);
        // Empty graph on 5 vertices: MIS = 5.
        let e5 = vec![0u128; 5];
        assert_eq!(max_independent_set_size(&e5), 5);
    }

    #[test]
    fn star_number_matches_brute_force_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            let g = generators::erdos_renyi(9, 0.3, &mut rng);
            let fast = induced_star_number(&g);
            assert!(fast.is_exact());
            assert_eq!(fast.value(), induced_star_number_brute_force(&g));
        }
    }

    #[test]
    fn geometric_graphs_have_no_induced_six_stars() {
        // Section 1.1.4: a geometric graph has no induced 6-star (six points within
        // distance r of a center must contain two points within distance r of each
        // other).
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let g = generators::random_geometric(200, 0.12, &mut rng);
            let s = induced_star_number(&g);
            assert!(
                s.value() <= 5,
                "geometric graph had an induced {}-star",
                s.value()
            );
        }
    }

    #[test]
    fn star_at_specific_center() {
        // Center 0 adjacent to 1,2,3; edge (1,2) present, so best star at 0 is {1,3} or {2,3}.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        assert_eq!(induced_star_at(&g, 0).value(), 2);
        assert_eq!(induced_star_at(&g, 3).value(), 1);
        assert_eq!(induced_star_number(&g).value(), 2);
    }
}
