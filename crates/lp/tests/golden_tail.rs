//! Pins the exact bits of f_Δ on one fixed input per path of the LP tail
//! (the part of the solver that runs on the pieces peeling leaves behind).
//!
//! The engine ([`solve_partition`]) and the reference
//! [`CombinatorialSolver`] call the same piece solver, so comparing them to
//! each other cannot catch a change that moves both. These constants can:
//! both solvers' value `to_bits()`, the engine's attribution counters and
//! the reference solver's LP work counters must stay exactly as recorded.
//! (The engine reports no LP work; the reference solver runs the same piece
//! solver on the same piece, so its counters pin the path for both.) Each
//! input is built so that its one remnant piece takes a known path; the
//! counters show it (`micro_reduced`, `lp_fallback_components` and the LP
//! work).
//!
//! | input | remnant piece | tail path |
//! |---|---|---|
//! | `series` | 18 vertices, 30 edges | series contraction to 13 vertices, then column generation paired with cutting planes |
//! | `greedy` | a 4-cycle with one capacity-1 vertex | the capped Kruskal greedy certificate |
//! | `repair` | 5 vertices | greedy fails, the local-repair spanning forest certifies |
//! | `tiny` | 8 vertices | greedy and local repair fail, the exhaustive search certifies |
//! | `paired` | 89 vertices, 135 edges | no certificate: column generation paired with cutting planes |
//! | `alone` | 3 409 vertices, 5 115 edges | no certificate, above the cut engine's work bound: column generation alone |

use ccdp_graph::{CsrGraph, Graph};
use ccdp_lp::{solve_partition, CombinatorialSolver, PartitionSolveStats, PolytopeSolution};

/// One pinned input.
struct Case {
    name: &'static str,
    graph: Graph,
    delta: f64,
    /// `f_Δ(graph).to_bits()`.
    bits: u64,
    /// `(generated_cuts, lp_iterations, lp_solves, lp_fallback_components)`
    /// of the reference solver.
    lp_work: [usize; 4],
    /// `(components, micro_closed_form, micro_reduced, dedup_classes,
    /// dedup_hits)` of the partition solve.
    stats: [usize; 5],
}

/// Two `l`-cycles joined by rungs (every vertex of degree 3), hubs `a`, `b`
/// both joined to `k` spokes of degree 2, and `a` joined to vertex 0. At
/// Δ = 3 the spokes need more than the hubs' six edge slots, so no spanning
/// forest fits the caps and the piece goes to the LP; no vertex has degree
/// 1 and no two degree-2 vertices are adjacent, so nothing peels or
/// contracts.
fn ladder_with_hubs(l: usize, k: usize) -> Graph {
    let mut g = Graph::new(2 * l + 2 + k);
    for i in 0..l {
        g.add_edge(i, (i + 1) % l);
        g.add_edge(l + i, l + (i + 1) % l);
        g.add_edge(i, l + i);
    }
    let (a, b) = (2 * l, 2 * l + 1);
    for j in 0..k {
        g.add_edge(a, 2 * l + 2 + j);
        g.add_edge(b, 2 * l + 2 + j);
    }
    g.add_edge(a, 0);
    g
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "series",
            graph: Graph::from_edges(
                18,
                &[
                    (0, 4),
                    (0, 6),
                    (0, 8),
                    (0, 10),
                    (1, 3),
                    (1, 4),
                    (1, 6),
                    (1, 9),
                    (2, 3),
                    (2, 4),
                    (2, 6),
                    (2, 11),
                    (2, 14),
                    (2, 16),
                    (3, 7),
                    (3, 9),
                    (4, 7),
                    (4, 8),
                    (5, 10),
                    (5, 15),
                    (6, 9),
                    (7, 9),
                    (8, 9),
                    (8, 17),
                    (9, 10),
                    (10, 13),
                    (11, 12),
                    (12, 13),
                    (14, 15),
                    (16, 17),
                ],
            ),
            delta: 2.0,
            bits: 0x4030_ffff_ffff_fffb,
            lp_work: [28, 125, 26, 1],
            stats: [1, 0, 1, 1, 0],
        },
        Case {
            name: "greedy",
            graph: Graph::from_edges(7, &[(0, 1), (0, 5), (1, 2), (2, 5), (3, 6), (5, 6)]),
            delta: 2.0,
            bits: 0x4014_0000_0000_0000,
            lp_work: [0; 4],
            stats: [1, 0, 1, 1, 0],
        },
        Case {
            name: "repair",
            graph: Graph::from_edges(6, &[(0, 1), (0, 2), (0, 4), (1, 2), (2, 3), (3, 4), (3, 5)]),
            delta: 2.0,
            bits: 0x4014_0000_0000_0000,
            lp_work: [0; 4],
            stats: [1, 0, 1, 1, 0],
        },
        Case {
            name: "tiny",
            graph: Graph::from_edges(
                10,
                &[
                    (0, 2),
                    (0, 3),
                    (0, 5),
                    (0, 7),
                    (1, 9),
                    (2, 4),
                    (2, 6),
                    (3, 6),
                    (3, 8),
                    (3, 9),
                    (4, 7),
                    (5, 6),
                    (5, 9),
                    (7, 9),
                ],
            ),
            delta: 2.0,
            bits: 0x4022_0000_0000_0000,
            lp_work: [0; 4],
            stats: [1, 0, 1, 1, 0],
        },
        Case {
            name: "paired",
            graph: ladder_with_hubs(40, 7),
            delta: 3.0,
            bits: 0x4055_4000_0000_0007,
            lp_work: [37, 97, 7, 1],
            stats: [1, 0, 1, 0, 0],
        },
        Case {
            name: "alone",
            graph: ladder_with_hubs(1700, 7),
            delta: 3.0,
            bits: 0x40aa_99ff_ffff_fffd,
            lp_work: [5, 7, 6, 1],
            stats: [1, 0, 1, 0, 0],
        },
    ]
}

fn lp_work(sol: &PolytopeSolution) -> [usize; 4] {
    [
        sol.generated_cuts,
        sol.lp_iterations,
        sol.lp_solves,
        sol.lp_fallback_components,
    ]
}

fn stats(s: &PartitionSolveStats) -> [usize; 5] {
    [
        s.components,
        s.micro_closed_form,
        s.micro_reduced,
        s.dedup_classes,
        s.dedup_hits,
    ]
}

#[test]
fn every_tail_path_keeps_its_bits() {
    for case in cases() {
        let part = CsrGraph::from_graph(&case.graph).partition_components();
        let engine = solve_partition(&part, &[case.delta], 2, false)
            .unwrap()
            .remove(0);
        let oracle = CombinatorialSolver::new()
            .solve(&case.graph, case.delta)
            .unwrap();
        for (solver, value) in [
            ("solve_partition", engine.value),
            ("CombinatorialSolver", oracle.value),
        ] {
            assert_eq!(
                value.to_bits(),
                case.bits,
                "{}: {solver} returned {value}, pinned {}",
                case.name,
                f64::from_bits(case.bits)
            );
        }
        assert_eq!(
            lp_work(&oracle),
            case.lp_work,
            "{}: CombinatorialSolver LP work",
            case.name
        );
        assert_eq!(
            stats(&engine.stats),
            case.stats,
            "{}: solve path",
            case.name
        );
    }
}
