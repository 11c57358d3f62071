//! Property: across arbitrary interleavings of insertions and deletions, at
//! every step, the CSR arena of a [`GraphStream`]'s graph counts exactly the
//! components `ccdp_graph::components` recounts from its adjacency lists,
//! and every snapshot is the exact arena of the graph it froze, with that
//! graph's exact count and, attached, that arena's exact partition.

use ccdp_graph::{components, CsrGraph, Graph, NOT_CARRIED};
use ccdp_stream::{GraphStream, Mutation};
use proptest::collection::vec;
use proptest::prelude::*;

/// One raw scripted op: endpoints drawn from a small universe plus a delete
/// flag. Self-loop draws are skewed to `(u, u+1)` so every op is valid.
fn op_strategy(n: usize) -> impl Strategy<Value = (usize, usize, bool)> {
    (0..n, 0..n, any::<bool>()).prop_map(move |(u, v, del)| {
        if u == v {
            (u, (u + 1) % n, del)
        } else {
            (u, v, del)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arena_counts_always_match_recomputation(
        n in 2usize..14,
        raw_ops in vec(op_strategy(14), 1..120),
    ) {
        let mut stream = GraphStream::new("prop");
        for (t, &(u, v, del)) in raw_ops.iter().enumerate() {
            // Clamp endpoints into the drawn universe (the strategy draws
            // from the maximal one so the vec strategy stays simple).
            let (u, v) = (u % n, v % n);
            if u == v {
                continue;
            }
            let m = if del {
                Mutation::delete(t as u64 + 1, u, v)
            } else {
                Mutation::insert(t as u64 + 1, u, v)
            };
            stream.apply(&m).unwrap();
            let expected = components::num_connected_components(stream.graph());
            prop_assert_eq!(
                CsrGraph::from_graph(stream.graph()).num_components(),
                expected,
                "divergence after op {} ({:?})",
                t,
                m
            );
        }
    }

    #[test]
    fn cross_check_never_trips(
        n in 2usize..10,
        raw_ops in vec(op_strategy(10), 1..80),
    ) {
        // A snapshot's count must agree with a from-scratch recount after
        // every mutation: a divergence is a bug in the arena build or its
        // count.
        let mut stream = GraphStream::new("prop-canary");
        for (t, &(u, v, del)) in raw_ops.iter().enumerate() {
            let (u, v) = (u % n, v % n);
            if u == v {
                continue;
            }
            let m = if del {
                Mutation::delete(t as u64 + 1, u, v)
            } else {
                Mutation::insert(t as u64 + 1, u, v)
            };
            prop_assert!(stream.apply(&m).is_ok(), "mutation refused at op {}", t);
            prop_assert_eq!(
                stream.snapshot().num_components(),
                components::num_connected_components(stream.graph()),
                "cross-check tripped at op {}",
                t
            );
        }
    }

    #[test]
    fn snapshots_pin_the_count_at_the_freeze_point(
        raw_ops in vec(op_strategy(8), 2..60),
    ) {
        // Snapshot after every op: each snapshot's arena must be the one
        // `CsrGraph::from_graph` builds from the live graph at the freeze,
        // and its count must match a from-scratch recount of that graph,
        // not of the graph the stream later holds.
        let mut stream = GraphStream::new("prop-snap");
        let mut snapshots = Vec::new();
        for (t, &(u, v, del)) in raw_ops.iter().enumerate() {
            let m = if del {
                Mutation::delete(t as u64 + 1, u, v)
            } else {
                Mutation::insert(t as u64 + 1, u, v)
            };
            stream.apply(&m).unwrap();
            let expected = (
                CsrGraph::from_graph(stream.graph()),
                components::num_connected_components(stream.graph()),
            );
            snapshots.push((stream.snapshot(), expected));
        }
        for (i, (snap, (arena, count))) in snapshots.iter().enumerate() {
            prop_assert_eq!(&**snap.graph(), arena, "snapshot {} arena", i);
            prop_assert_eq!(
                snap.num_components(),
                *count,
                "snapshot {} disagrees with its own frozen graph",
                i
            );
            prop_assert_eq!(snap.version().value(), i as u64);
        }
    }

    #[test]
    fn snapshots_stay_exact_under_deletion_heavy_feeds(
        seed_edges in vec((0usize..12, 0usize..12), 10..40),
        raw_ops in vec((op_strategy(12), 0u8..4), 1..120),
        every in 1usize..6,
    ) {
        // Three of four ops delete: components split again and again. A
        // snapshot every `every` ops must still carry the live graph's exact
        // arena and a component count equal to a recount of that graph.
        let seed: Vec<(usize, usize)> =
            seed_edges.into_iter().filter(|(u, v)| u != v).collect();
        let mut stream = GraphStream::from_graph("prop-del", Graph::from_edges(12, &seed));
        for (t, &((u, v, _), kind)) in raw_ops.iter().enumerate() {
            let m = if kind == 0 {
                Mutation::insert(t as u64 + 1, u, v)
            } else {
                Mutation::delete(t as u64 + 1, u, v)
            };
            stream.apply(&m).unwrap();
            if t % every == 0 {
                let snap = stream.snapshot();
                prop_assert_eq!(&**snap.graph(), &CsrGraph::from_graph(stream.graph()));
                prop_assert_eq!(
                    snap.num_components(),
                    components::num_connected_components(stream.graph()),
                    "snapshot after op {} ({:?})",
                    t,
                    m
                );
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn patched_snapshots_match_cold_partitions(
        n0 in 1usize..24,
        seed_edges in vec((0usize..24, 0usize..24), 0..30),
        batches in vec(vec((0u8..6, 0usize..UNIVERSE, 0usize..UNIVERSE), 0..8), 1..12),
    ) {
        // Batches of edits between snapshots: inserts that merge components
        // (and grow the universe when an endpoint is new), deletes of
        // present edges that split them, an insert and a delete of the same
        // edge (touched vertices, often isolated, whose components do not
        // change), no-ops, and empty batches. Every snapshot after the first
        // is patched from the one before. Its arena must be the live graph's,
        // its partition must equal a cold partition of that arena (the cyclic
        // list and tree degrees included), and every component it carried
        // must have the labeled slice of the component it names in the
        // previous partition.
        let seed: Vec<(usize, usize)> = seed_edges
            .into_iter()
            .map(|(u, v)| (u % n0, v % n0))
            .filter(|(u, v)| u != v)
            .collect();
        let mut stream = GraphStream::from_graph("prop-patch", Graph::from_edges(n0, &seed));
        let mut prev = None;
        let mut t = 0;
        for (b, batch) in batches.iter().enumerate() {
            for &(kind, u, v) in batch {
                t += 1;
                let g = stream.graph();
                let n = g.num_vertices();
                let edges: Vec<(usize, usize)> = g.edges().collect();
                let ops = match kind {
                    0 | 1 if u != v => vec![Mutation::insert(t, u, v)],
                    2 | 3 if !edges.is_empty() => {
                        let (a, b) = edges[(u * UNIVERSE + v) % edges.len()];
                        vec![Mutation::delete(t, a, b)]
                    }
                    4 if u % n != v % n && !g.has_edge(u % n, v % n) => vec![
                        Mutation::insert(t, u % n, v % n),
                        Mutation::delete(t, u % n, v % n),
                    ],
                    _ if u % n != v % n => {
                        // A no-op: re-insert a present edge or delete an
                        // absent one.
                        let (a, b) = (u % n, v % n);
                        if g.has_edge(a, b) {
                            vec![Mutation::insert(t, a, b)]
                        } else {
                            vec![Mutation::delete(t, a, b)]
                        }
                    }
                    _ => Vec::new(),
                };
                for m in ops {
                    stream.apply(&m).unwrap();
                }
            }
            let snap = stream.snapshot();
            let arena = snap.graph();
            let cold_arena = CsrGraph::from_graph(stream.graph());
            prop_assert_eq!(&**arena, &cold_arena, "batch {} arena", b);
            let part = arena.attached_partition().expect("the stream holds it");
            let cold = cold_arena.partition_components();
            prop_assert_eq!(&*part, &cold, "batch {} partition", b);
            prop_assert_eq!(snap.num_components(), cold.num_components());
            prop_assert_eq!(
                snap.num_components(),
                components::num_connected_components(stream.graph())
            );
            if let Some(prev) = prev.replace(std::sync::Arc::clone(&part)) {
                let runs = part.carried_from(prev.id()).expect("patched from the last one");
                let mut next = 0;
                for run in runs {
                    prop_assert_eq!(run.start, next, "batch {} runs are contiguous", b);
                    next += run.len;
                    if run.from == NOT_CARRIED {
                        continue;
                    }
                    for k in 0..run.len as usize {
                        let (c, from) = (run.start as usize + k, run.from as usize + k);
                        prop_assert_eq!(
                            part.component(c).to_graph(),
                            prev.component(from).to_graph(),
                            "batch {} component {} carried from {}", b, c, from
                        );
                        prop_assert_eq!(
                            part.component_vertices(c),
                            prev.component_vertices(from)
                        );
                    }
                }
                prop_assert_eq!(next as usize, part.num_components());
            }
        }
        prop_assert_eq!(stream.stats().rebuilds, 0);
    }
}

/// Vertex ids the patched-partition property draws from; inserts beyond the
/// base graph grow the universe up to it.
const UNIVERSE: usize = 48;
