//! Property tests for the micro-component engine: on every generator
//! family (chain-subdivided multicyclic graphs included, so contracted
//! remnant pieces are covered), every Δ in the small grid and every thread
//! budget,
//! `solve_partition` must return the exact bits of the reference
//! `CombinatorialSolver` run on each component — micro closed forms and
//! labeled-slice class dedup are pure work-savers, never value-changers.
//! Graphs reach 120 vertices, so
//! multicyclic Barabási–Albert and geometric components far above 24
//! vertices (the size up to which the micro solver once took multicyclic
//! components) are covered, and a grid sweep must give every Δ the bits of
//! a one-element call. Across random edit sequences, a solve that reads the
//! previous version's class memo must give the bits of a cold solve.

use ccdp_graph::{generators, ComponentPartition, CsrGraph, Graph};
use ccdp_lp::{solve_partition, solve_partition_with_memo, ClassMemo, CombinatorialSolver};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random tree: vertex `i ≥ 1` attaches to a uniform earlier vertex.
fn random_tree(n: usize, rng: &mut StdRng) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        let j = rng.gen_range(0..i);
        g.add_edge(j, i);
    }
    g
}

/// `g` with every edge replaced by a path through 0–4 new vertices: chains
/// of degree-2 vertices for the piece solver's series contraction.
fn subdivided(g: &Graph, rng: &mut StdRng) -> Graph {
    let mut out = Graph::new(g.num_vertices());
    for (a, b) in g.edges() {
        let mut prev = a;
        for _ in 0..rng.gen_range(0..5) {
            let v = out.add_vertex();
            out.add_edge(prev, v);
            prev = v;
        }
        out.add_edge(prev, b);
    }
    out
}

/// Number of generator families `family_graph` knows.
const FAMILIES: u8 = 6;

/// One graph from the named family, deterministic in `seed`.
fn family_graph(family: u8, n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match family {
        0 => random_tree(n.max(1), &mut rng),
        1 => generators::cycle(n.max(3)),
        2 => generators::erdos_renyi(n.max(2), 1.4 / n.max(2) as f64, &mut rng),
        3 => generators::barabasi_albert(n.max(4), 2, &mut rng),
        4 => generators::random_geometric(n.max(2), 0.18, &mut rng),
        _ => {
            let core = generators::barabasi_albert((n / 3).max(4), 2, &mut rng);
            subdivided(&core, &mut rng)
        }
    }
}

/// The bits `solve_partition` must reproduce: the reference solver on every
/// component that has edges, weights concatenated and values summed in
/// component order.
fn oracle(part: &ComponentPartition, delta: f64) -> (f64, Vec<f64>) {
    let mut value = 0.0;
    let mut weights = Vec::new();
    for c in 0..part.num_components() {
        let local = part.component(c).to_graph();
        if local.has_no_edges() {
            continue;
        }
        let sol = CombinatorialSolver::new().solve(&local, delta).unwrap();
        value += sol.value;
        weights.extend(sol.edge_weights);
    }
    (value, weights)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The engine vs the reference solver: identical value bits and
    /// identical per-edge weight bits (arena order), for every family, Δ and
    /// thread budget.
    #[test]
    fn micro_and_dedup_match_general_bitwise(
        family in 0u8..FAMILIES,
        n in 4usize..=120,
        seed in 0u64..1u64 << 48,
        delta in 1u8..=4,
    ) {
        let g = family_graph(family, n, seed);
        let arena = CsrGraph::from_graph(&g);
        let part = arena.partition_components();
        let delta = delta as f64;

        let (value, weights) = oracle(&part, delta);
        for threads in [1usize, 3] {
            let fast = solve_partition(&part, &[delta], threads, true).unwrap().remove(0);
            prop_assert_eq!(
                value.to_bits(),
                fast.solution.value.to_bits(),
                "value bits diverged: family={} threads={}",
                family, threads
            );
            prop_assert_eq!(weights.len(), fast.solution.edge_weights.len());
            for (i, (a, b)) in weights.iter().zip(&fast.solution.edge_weights).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "weight bits diverged at edge {}: threads={}",
                    i, threads
                );
            }
        }
    }

    /// Dedup never pairs non-isomorphic components: a graph made of two
    /// independently random components must release the reference solver's
    /// bits — a false cache pairing would hand one component the other's
    /// weights and break this immediately. The class/hit counters must also
    /// stay consistent with the component count.
    #[test]
    fn dedup_separates_random_component_pairs(
        fam_a in 0u8..FAMILIES,
        fam_b in 0u8..FAMILIES,
        na in 4usize..20,
        nb in 4usize..20,
        seed in 0u64..1u64 << 48,
        delta in 1u8..=4,
    ) {
        let a = family_graph(fam_a, na, seed);
        let b = family_graph(fam_b, nb, seed ^ 0x9E37_79B9);
        // Disjoint union: b's vertices shifted past a's.
        let mut g = Graph::new(a.num_vertices() + b.num_vertices());
        for (u, v) in a.edges() {
            g.add_edge(u, v);
        }
        for (u, v) in b.edges() {
            g.add_edge(a.num_vertices() + u, a.num_vertices() + v);
        }
        let part = CsrGraph::from_graph(&g).partition_components();
        let delta = delta as f64;

        let (value, weights) = oracle(&part, delta);
        for threads in [1usize, 3] {
            let deduped = solve_partition(&part, &[delta], threads, true).unwrap().remove(0);
            prop_assert_eq!(value.to_bits(), deduped.solution.value.to_bits());
            prop_assert_eq!(weights.len(), deduped.solution.edge_weights.len());
            for (x, y) in weights.iter().zip(&deduped.solution.edge_weights) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            // Every dedup-eligible solve is either a new class or a hit;
            // these components are all small enough to be eligible.
            let stats = deduped.stats;
            prop_assert!(stats.dedup_classes + stats.dedup_hits <= stats.components);
            prop_assert!(stats.components == 0 || stats.dedup_classes >= 1);
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One grid sweep gives every Δ exactly the bits (value, per-edge
    /// weights and attribution counters) of a one-element call, for every
    /// thread budget. The graph is a disjoint union of 6 to 13 family
    /// graphs (repeated small components for the class dedup to merge) and
    /// one 1000-vertex random tree, so the fan-out has enough work to run on
    /// every requested worker.
    #[test]
    fn grid_sweep_matches_one_element_calls(
        parts in proptest::collection::vec((0u8..FAMILIES, 4usize..=60), 6..14),
        seed in 0u64..1u64 << 48,
    ) {
        let mut g = Graph::new(0);
        for (i, &(family, n)) in parts.iter().chain([&(0, 1000)]).enumerate() {
            let h = family_graph(family, n, seed.wrapping_add(i as u64 % 3));
            let base = g.num_vertices();
            for _ in 0..h.num_vertices() {
                g.add_vertex();
            }
            for (u, v) in h.edges() {
                g.add_edge(base + u, base + v);
            }
        }
        let part = CsrGraph::from_graph(&g).partition_components();
        let grid = [1.0, 2.0, 4.0, 3.0, 8.0];
        let alone: Vec<_> = grid
            .iter()
            .map(|&delta| {
                solve_partition(&part, &[delta], 1, true).unwrap().remove(0)
            })
            .collect();
        for threads in [1usize, 2, 3] {
            let swept = solve_partition(&part, &grid, threads, true).unwrap();
            prop_assert_eq!(swept.len(), grid.len());
            for ((delta, want), got) in grid.iter().zip(&alone).zip(&swept) {
                prop_assert_eq!(
                    want.solution.value.to_bits(),
                    got.solution.value.to_bits(),
                    "value bits diverged: Δ={} threads={}",
                    delta, threads
                );
                prop_assert_eq!(want.stats, got.stats);
                let want_bits: Vec<u64> =
                    want.solution.edge_weights.iter().map(|w| w.to_bits()).collect();
                let got_bits: Vec<u64> =
                    got.solution.edge_weights.iter().map(|w| w.to_bits()).collect();
                prop_assert_eq!(want_bits, got_bits, "weights: Δ={} threads={}", delta, threads);
            }
        }
    }
}

/// One random edit: remove a random present edge, or join a random pair of
/// vertices (usually two components).
fn edit(g: &mut Graph, rng: &mut StdRng) {
    let n = g.num_vertices();
    let edges: Vec<(usize, usize)> = g.edges().collect();
    if rng.gen_bool(0.5) && !edges.is_empty() {
        let (u, v) = edges[rng.gen_range(0..edges.len())];
        g.remove_edge(u, v);
    } else {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            g.add_edge(u, v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A version solved with the previous version's [`ClassMemo`] gives
    /// the bits of a cold solve: values, attribution counters and LP work
    /// counters, for every thread budget. The graph is a disjoint union of
    /// family graphs, each twice (so light classes repeat), and a
    /// 400-vertex random tree (a heavy class); every version applies a few
    /// random edits, and the grid changes from one version to the next, so
    /// memo hits, partial hits (a Δ the memo lacks) and misses all occur.
    #[test]
    fn class_memo_replays_cold_solves_across_random_edits(
        parts in proptest::collection::vec((0u8..FAMILIES, 4usize..=40), 3..8),
        edits in proptest::collection::vec(1usize..6, 3..7),
        seed in 0u64..1u64 << 48,
    ) {
        let mut g = Graph::new(0);
        for (i, &(family, n)) in parts.iter().chain([&(0, 400)]).enumerate() {
            let h = family_graph(family, n, seed.wrapping_add(i as u64));
            g = generators::disjoint_union(&g, &h);
            if n < 400 {
                g = generators::disjoint_union(&g, &h);
            }
        }
        let grids: [&[f64]; 3] = [&[1.0, 2.0, 4.0], &[2.0, 1.0, 3.0], &[4.0, 1.0]];
        let mut memos: Vec<ClassMemo> = (0..3).map(|_| ClassMemo::default()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for (version, &count) in edits.iter().enumerate() {
            if version > 0 {
                for _ in 0..count {
                    edit(&mut g, &mut rng);
                }
            }
            let part = CsrGraph::from_graph(&g).partition_components();
            let grid = grids[version % grids.len()];
            let cold = solve_partition(&part, grid, 1, false).unwrap();
            for (threads, memo) in (1usize..=3).zip(&mut memos) {
                let warm = solve_partition_with_memo(&part, grid, threads, memo).unwrap();
                prop_assert_eq!(warm.len(), grid.len());
                for ((delta, want), got) in grid.iter().zip(&cold).zip(&warm) {
                    let at = format!("version={version} Δ={delta} threads={threads}");
                    prop_assert_eq!(
                        want.solution.value.to_bits(),
                        got.solution.value.to_bits(),
                        "value bits: {}", at
                    );
                    prop_assert_eq!(want.stats, got.stats, "stats: {}", at);
                    let work = |s: &ccdp_lp::PolytopeSolution| {
                        [s.generated_cuts, s.lp_iterations, s.lp_solves, s.lp_fallback_components]
                    };
                    prop_assert_eq!(work(&want.solution), work(&got.solution), "LP work: {}", at);
                }
                // The memo holds this version's classes and nothing else.
                let stats = cold[0].stats;
                prop_assert_eq!(memo.len(), stats.components - stats.dedup_hits);
            }
        }
    }
}
