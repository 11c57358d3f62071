//! Down-sensitivity (Definition 1.4) of graph statistics.
//!
//! The down-sensitivity of a function `f` at `G` is the maximum change of `f`
//! between two node-neighboring induced subgraphs of `G`. It characterizes the
//! largest monotone anchor set for a Δ-Lipschitz extension (Lemma A.3) and bounds
//! the error of the paper's algorithm (Theorem 1.5).
//!
//! For the spanning-forest size, Lemma 1.7 gives the exact combinatorial
//! characterization `DS_{f_sf}(G) = s(G)` (the induced star number), which we use
//! as the fast path. Brute-force evaluation over all induced subgraph pairs is
//! provided for validation on small graphs.

use crate::graph::Graph;
use crate::stars::{induced_star_number, StarNumber};
use crate::subgraph::{all_vertex_subsets, induced_subgraph};

/// Down-sensitivity of `f_sf` at `g`, computed via Lemma 1.7 as the induced star
/// number `s(G)`. The result carries an exactness flag (see [`StarNumber`]).
pub fn down_sensitivity_fsf(g: &Graph) -> StarNumber {
    induced_star_number(g)
}

/// Down-sensitivity of `f_cc` at `g`.
///
/// Since `f_cc(H) = |V(H)| - f_sf(H)` and `|V|` changes by exactly 1 between
/// node-neighbors, `DS_{f_cc}(G)` differs from `DS_{f_sf}(G)` by at most 1. This
/// function computes it exactly for graphs small enough for brute force and
/// otherwise returns the `s(G) ± 1` envelope midpoint `max(s(G), 1)` which is the
/// exact value for every graph with at least one edge dominated by a star
/// structure; callers that need exactness should use
/// [`down_sensitivity_brute_force`].
pub fn down_sensitivity_fcc(g: &Graph) -> usize {
    // f_cc decreases by k-1 ≥ 0 when removing a vertex joining k components and
    // increases by 1 when removing a leaf-ish vertex; the maximum absolute change
    // over induced subgraph pairs is max(s(G) - 1, 1) for graphs with at least one
    // edge, and 1 for graphs with vertices but no edges, 0 for the empty graph.
    let n = g.num_vertices();
    if n == 0 {
        return 0;
    }
    if n == 1 {
        return 1;
    }
    let s = induced_star_number(g).value();
    s.saturating_sub(1).max(1)
}

/// Brute-force down-sensitivity of an arbitrary real-valued graph function.
///
/// Evaluates `max |f(G[S]) - f(G[S \ {v}])|` over all vertex subsets `S ⊆ V(G)` and
/// `v ∈ S`. Exponential in `|V(G)|`; limited to 20 vertices.
pub fn down_sensitivity_brute_force<F>(g: &Graph, f: F) -> f64
where
    F: Fn(&Graph) -> f64,
{
    let mut best: f64 = 0.0;
    for subset in all_vertex_subsets(g) {
        if subset.is_empty() {
            continue;
        }
        let (h_prime, _) = induced_subgraph(g, &subset);
        let f_prime = f(&h_prime);
        for (i, _) in subset.iter().enumerate() {
            let mut smaller = subset.clone();
            smaller.remove(i);
            let (h, _) = induced_subgraph(g, &smaller);
            best = best.max((f_prime - f(&h)).abs());
        }
    }
    best
}

/// Brute-force down-sensitivity of `f_sf` (for validating Lemma 1.7 on small graphs).
pub fn down_sensitivity_fsf_brute_force(g: &Graph) -> usize {
    down_sensitivity_brute_force(g, |h| h.spanning_forest_size() as f64).round() as usize
}

/// Brute-force down-sensitivity of `f_cc`.
pub fn down_sensitivity_fcc_brute_force(g: &Graph) -> usize {
    down_sensitivity_brute_force(g, |h| h.num_connected_components() as f64).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lemma_1_7_on_named_graphs() {
        for (g, expected) in [
            (generators::star(5), 5),
            (generators::path(6), 2),
            (generators::complete(5), 1),
            (generators::cycle(6), 2),
            (Graph::new(4), 0),
        ] {
            assert_eq!(down_sensitivity_fsf(&g).value(), expected);
            assert_eq!(down_sensitivity_fsf_brute_force(&g), expected);
        }
    }

    #[test]
    fn lemma_1_7_on_random_graphs() {
        // DS_{f_sf}(G) = s(G) for random small graphs.
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..25 {
            let g = generators::erdos_renyi(8, 0.3, &mut rng);
            assert_eq!(
                down_sensitivity_fsf(&g).value(),
                down_sensitivity_fsf_brute_force(&g),
                "Lemma 1.7 violated on {:?}",
                g.edge_vec()
            );
        }
    }

    #[test]
    fn fsf_and_fcc_down_sensitivities_differ_by_at_most_one() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..20 {
            let g = generators::erdos_renyi(7, 0.35, &mut rng);
            let dsf = down_sensitivity_fsf_brute_force(&g) as i64;
            let dcc = down_sensitivity_fcc_brute_force(&g) as i64;
            assert!((dsf - dcc).abs() <= 1, "DS_fsf={dsf} DS_fcc={dcc}");
        }
    }

    #[test]
    fn fcc_down_sensitivity_formula_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..25 {
            let g = generators::erdos_renyi(7, 0.3, &mut rng);
            assert_eq!(
                down_sensitivity_fcc(&g),
                down_sensitivity_fcc_brute_force(&g),
                "f_cc down-sensitivity mismatch on {:?}",
                g.edge_vec()
            );
        }
    }

    #[test]
    fn brute_force_handles_isolated_vertices() {
        let g = Graph::new(3);
        assert_eq!(down_sensitivity_fsf_brute_force(&g), 0);
        assert_eq!(down_sensitivity_fcc_brute_force(&g), 1);
        assert_eq!(down_sensitivity_fcc(&g), 1);
    }

    #[test]
    fn empty_graph_down_sensitivity() {
        let g = Graph::new(0);
        assert_eq!(down_sensitivity_fsf(&g).value(), 0);
        assert_eq!(down_sensitivity_fcc(&g), 0);
    }
}
