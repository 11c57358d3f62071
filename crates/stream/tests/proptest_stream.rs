//! Property: the incremental component count a [`GraphStream`] maintains is
//! *always* equal to `ccdp_graph::components` recomputing from scratch —
//! across arbitrary interleavings of insertions and deletions, at every
//! step, whatever epoch compactions happen underneath.

use ccdp_graph::components;
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
    fn incremental_counts_always_match_recomputation(
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
                stream.num_components(),
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
        // The incremental count must agree with a from-scratch recount after
        // every mutation: a divergence is a bug in the incremental
        // maintenance.
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
                stream.num_components(),
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
        // Snapshot after every op: each snapshot's stored count must match a
        // from-scratch recount of its own frozen graph, not the live one.
        let mut stream = GraphStream::new("prop-snap");
        let mut snapshots = Vec::new();
        for (t, &(u, v, del)) in raw_ops.iter().enumerate() {
            let m = if del {
                Mutation::delete(t as u64 + 1, u, v)
            } else {
                Mutation::insert(t as u64 + 1, u, v)
            };
            stream.apply(&m).unwrap();
            snapshots.push(stream.snapshot());
        }
        for (i, snap) in snapshots.iter().enumerate() {
            prop_assert_eq!(
                snap.num_components(),
                components::num_connected_components(snap.graph()),
                "snapshot {} disagrees with its own frozen graph",
                i
            );
            prop_assert_eq!(snap.version().value(), i as u64);
        }
    }
}
