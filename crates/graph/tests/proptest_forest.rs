//! Property tests for the per-component Lemma 1.8 search: the whole-graph
//! spanning-Δ-forest construction succeeds iff the construction succeeds on
//! every component of the graph's CSR partition. The
//! graphs are disjoint unions of random trees, Erdős–Rényi graphs near the
//! 1/n threshold, Barabási–Albert graphs, random geometric graphs and planted
//! star forests, with their vertex ids shuffled so that components are not
//! contiguous in the original labelling.

use ccdp_graph::forest::{
    bounded_degree_spanning_forest, component_bounded_degree_spanning_forest,
};
use ccdp_graph::{generators, CsrGraph, Graph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One graph of the named family on about `n` vertices.
fn family_graph(family: u8, n: usize, rng: &mut StdRng) -> Graph {
    match family {
        0 => {
            let mut g = Graph::new(n);
            for v in 1..n {
                g.add_edge(rng.gen_range(0..v), v);
            }
            g
        }
        1 => generators::erdos_renyi(n, 1.1 / n as f64, rng),
        2 => generators::barabasi_albert(n.max(4), 2, rng),
        3 => generators::random_geometric(n, 0.2, rng),
        _ => {
            // Planted stars with a few chords between leaves, so some star
            // components carry cycles and keep their high-degree centre.
            let size = 2 + n % 5;
            let mut g = generators::planted_star_forest(1 + n / 8, size, n % 3);
            let stars = 1 + n / 8;
            for s in 0..stars {
                if rng.gen_bool(0.5) {
                    let base = s * (size + 1);
                    g.add_edge(base + 1, base + 2);
                }
            }
            g
        }
    }
}

/// A disjoint union of the given family graphs with shuffled vertex ids.
fn shuffled_union(parts: &[(u8, usize)], seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    let mut n = 0;
    for &(family, size) in parts {
        let h = family_graph(family, size, &mut rng);
        edges.extend(h.edges().map(|(u, v)| (u + n, v + n)));
        n += h.num_vertices();
    }
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    let mut g = Graph::new(n);
    for (u, v) in edges {
        g.add_edge(perm[u], perm[v]);
    }
    g
}

/// `(whole-graph search succeeds, every component's search succeeds)`.
fn both_searches(g: &Graph, delta: usize) -> (bool, bool) {
    let whole = bounded_degree_spanning_forest(g, delta).is_some();
    let part = CsrGraph::from_graph(g).partition_components();
    let per_component = (0..part.num_components())
        .all(|c| component_bounded_degree_spanning_forest(&part, c, delta).is_some());
    (whole, per_component)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn whole_search_succeeds_iff_every_component_search_succeeds(
        parts in proptest::collection::vec((0u8..5, 3usize..60), 1..6),
        seed in 0u64..1u64 << 48,
        delta in 1usize..=5,
    ) {
        let g = shuffled_union(&parts, seed);
        let (whole, per_component) = both_searches(&g, delta);
        prop_assert_eq!(whole, per_component, "parts={:?} Δ={}", parts, delta);
    }
}

#[test]
fn per_component_equivalence_covers_successes_and_failures() {
    // A fixed sweep that must see both outcomes, including failures on
    // graphs whose every tree component fits Δ (the search itself fails on
    // a cyclic component rather than being ruled out by a tree).
    let mut seen = [false; 3];
    for seed in 0..120u64 {
        let parts: Vec<(u8, usize)> = (0..4)
            .map(|i| {
                (
                    ((seed + i) % 5) as u8,
                    6 + ((seed * 7 + i * 13) % 50) as usize,
                )
            })
            .collect();
        let g = shuffled_union(&parts, seed);
        let arena = CsrGraph::from_graph(&g);
        let part = arena.partition_components();
        let tree_max = (0..part.num_components())
            .map(|c| part.component(c))
            .filter(|view| view.num_edges() + 1 == view.num_vertices())
            .flat_map(|view| (0..view.num_vertices()).map(move |v| view.degree(v)))
            .max()
            .unwrap_or(0);
        for delta in 1..=5usize {
            let (whole, per_component) = both_searches(&g, delta);
            assert_eq!(whole, per_component, "seed {seed} Δ={delta}");
            seen[0] |= whole;
            seen[1] |= !whole;
            seen[2] |= !whole && delta >= tree_max && delta < arena.max_degree();
        }
    }
    assert_eq!(
        seen, [true; 3],
        "[success, failure, cyclic failure] coverage"
    );
}
