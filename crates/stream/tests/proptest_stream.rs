//! Property: across arbitrary interleavings of insertions and deletions, at
//! every step, the CSR arena of a [`GraphStream`]'s graph counts exactly the
//! components `ccdp_graph::components` recounts from its adjacency lists,
//! and every snapshot is the exact arena of the graph it froze, with that
//! graph's exact count.

use ccdp_graph::{components, CsrGraph, Graph};
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
