//! Property-based tests for the CSR arena: `CsrGraph` must be a lossless,
//! structurally faithful view of `Graph` for every graph the generators can
//! produce, and the component partition must slice the arena exactly the way
//! induced subgraphs would. The edge-list parser that builds the arena
//! directly must agree with the `Graph` parser on every input.

use ccdp_graph::generators;
use ccdp_graph::io::{from_edge_list, from_edge_list_csr};
use ccdp_graph::subgraph::induced_subgraph;
use ccdp_graph::{CsrGraph, Graph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random graph on at most `max_n` vertices given by an edge bitmask.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (1..=max_n).prop_flat_map(move |n| {
        let num_pairs = n * (n - 1) / 2;
        proptest::collection::vec(any::<bool>(), num_pairs).prop_map(move |bits| {
            let mut g = Graph::new(n);
            let mut idx = 0;
            for u in 0..n {
                for v in (u + 1)..n {
                    if bits[idx] {
                        g.add_edge(u, v);
                    }
                    idx += 1;
                }
            }
            g
        })
    })
}

/// Strategy: one graph from every generator family, driven by a seed.
fn arb_generated_graph() -> impl Strategy<Value = Graph> {
    (0u64..1_000, 0usize..10).prop_map(|(seed, family)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 5 + (seed % 20) as usize;
        match family {
            0 => generators::erdos_renyi(n, 0.2, &mut rng),
            1 => generators::path(n),
            2 => generators::cycle(n),
            3 => generators::star(n),
            4 => generators::complete(2 + n / 3),
            5 => generators::grid(2 + n / 5, 2 + n / 5),
            6 => generators::caveman(2 + n / 8, 3),
            7 => generators::planted_star_forest(n / 2 + 1, 3, n / 4),
            8 => generators::barabasi_albert(n.max(4), 2, &mut rng),
            _ => generators::random_geometric(n, 0.4, &mut rng),
        }
    })
}

/// Strategy: edge-list text mixing edges (duplicate, reversed and
/// self-loop pairs included), comments, blank lines, malformed lines and an
/// optional `# n m` header that may be too small for the endpoints.
fn arb_edge_list() -> impl Strategy<Value = String> {
    let line = (0u8..10, 0usize..12, 0usize..12);
    (
        any::<bool>(),
        0usize..16,
        proptest::collection::vec(line, 0..40),
    )
        .prop_map(|(header, n, lines)| {
            let mut text = String::new();
            if header {
                text.push_str(&format!("# {n} {}\n", lines.len()));
            }
            for (kind, u, v) in lines {
                let line = match kind {
                    0..=5 => format!("{u} {v}"),
                    6 => format!("{u} {u}"),
                    7 => "# a comment".to_string(),
                    8 => "   ".to_string(),
                    // Rare, so most drawn lists are accepted.
                    _ if u == 0 => format!("{u} x{v}"),
                    _ => format!("{v}\t{u}  "),
                };
                text.push_str(&line);
                text.push('\n');
            }
            text
        })
}

fn assert_csr_round_trips(g: &Graph) {
    let csr = CsrGraph::from_graph(g);
    // Scalar invariants.
    assert_eq!(csr.num_vertices(), g.num_vertices());
    assert_eq!(csr.num_edges(), g.num_edges());
    assert_eq!(csr.max_degree(), g.max_degree());
    assert_eq!(csr.num_components(), g.num_connected_components());
    assert_eq!(csr.spanning_forest_size(), g.spanning_forest_size());
    // Per-vertex structure.
    for v in g.vertices() {
        assert_eq!(csr.degree(v), g.degree(v));
        let from_csr: Vec<usize> = csr.neighbors(v).iter().map(|&w| w as usize).collect();
        let mut from_adj: Vec<usize> = g.neighbors(v).to_vec();
        from_adj.sort_unstable();
        assert_eq!(from_csr, from_adj);
    }
    // Full structural witness and exact graph round-trip.
    assert!(csr.matches_graph(g));
    let back = csr.to_graph();
    assert_eq!(back.num_vertices(), g.num_vertices());
    assert_eq!(back.edge_vec(), g.edge_vec());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_round_trips_arbitrary_graphs(g in arb_graph(12)) {
        assert_csr_round_trips(&g);
    }

    #[test]
    fn csr_round_trips_every_generator_family(g in arb_generated_graph()) {
        assert_csr_round_trips(&g);
    }

    #[test]
    fn fingerprints_agree_exactly_when_graphs_agree(
        a in arb_graph(9),
        b in arb_graph(9),
    ) {
        let fa = CsrGraph::from_graph(&a).fingerprint();
        let fb = CsrGraph::from_graph(&b).fingerprint();
        if a.num_vertices() == b.num_vertices() && a.edge_vec() == b.edge_vec() {
            prop_assert_eq!(fa, fb);
        } else {
            // Not a guarantee in general (collisions exist), but on these
            // tiny instances a collision would almost surely be a bug.
            prop_assert!(fa != fb);
        }
    }

    #[test]
    fn partition_slices_match_induced_subgraphs(g in arb_graph(12)) {
        let csr = CsrGraph::from_graph(&g);
        let part = csr.partition_components();
        prop_assert_eq!(part.num_components(), g.num_connected_components());
        let mut seen = 0usize;
        for c in 0..part.num_components() {
            let comp = part.component(c);
            let vertices: Vec<usize> = part
                .component_vertices(c)
                .iter()
                .map(|&v| v as usize)
                .collect();
            seen += vertices.len();
            let (induced, _) = induced_subgraph(&g, &vertices);
            let local = comp.to_graph();
            prop_assert_eq!(local.num_vertices(), induced.num_vertices());
            prop_assert_eq!(local.edge_vec(), induced.edge_vec());
        }
        prop_assert_eq!(seen, g.num_vertices());
    }

    #[test]
    fn csr_parser_matches_the_graph_parser(text in arb_edge_list()) {
        // Accepted: the same arena `from_graph` builds. Refused: the same
        // error, line number included.
        let expected = from_edge_list(&text).map(|g| CsrGraph::from_graph(&g));
        prop_assert_eq!(from_edge_list_csr(&text), expected, "{}", text);
    }
}
