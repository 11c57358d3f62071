//! Exact-value tests for the Lipschitz extension on instances where the
//! Δ-bounded forest polytope optimum is fractional or otherwise known in closed
//! form. These pin down the LP + separation-oracle pipeline beyond the anchored
//! cases (where f_Δ = f_sf).

use ccdp_core::LipschitzExtension;
use ccdp_graph::{generators, Graph};
use ccdp_lp::CombinatorialSolver;

fn approx(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-5
}

#[test]
fn triangle_with_delta_one_is_three_halves() {
    // Degree constraints allow x_e = 1/2 on every edge of the triangle: value 1.5,
    // strictly above the integral maximum matching (1). The forest constraint
    // x(E) ≤ 2 is slack.
    let g = generators::cycle(3);
    let v = LipschitzExtension::new(1).evaluate(&g).unwrap();
    assert!(approx(v, 1.5), "triangle f_1 = {v}");
}

#[test]
fn odd_cycle_with_delta_one_is_half_the_length() {
    // C_5 with Δ = 1: the optimum of the degree-constrained relaxation is 2.5.
    let g = generators::cycle(5);
    let v = LipschitzExtension::new(1).evaluate(&g).unwrap();
    assert!(approx(v, 2.5), "C5 f_1 = {v}");
}

#[test]
fn even_cycle_with_delta_one_is_perfect_matching() {
    let g = generators::cycle(6);
    let v = LipschitzExtension::new(1).evaluate(&g).unwrap();
    assert!(approx(v, 3.0), "C6 f_1 = {v}");
}

#[test]
fn complete_graph_with_delta_one_is_n_over_two() {
    // K_5 with Δ = 1: fractional matching number is 5/2.
    let g = generators::complete(5);
    let v = LipschitzExtension::new(1).evaluate(&g).unwrap();
    assert!(approx(v, 2.5), "K5 f_1 = {v}");
}

#[test]
fn complete_graph_with_delta_two_hits_the_forest_bound() {
    // K_5 with Δ = 2: degree constraints would allow 5, but the spanning-forest
    // bound caps the value at 4 (a Hamiltonian path attains it).
    let g = generators::complete(5);
    let v = LipschitzExtension::new(2).evaluate(&g).unwrap();
    assert!(approx(v, 4.0), "K5 f_2 = {v}");
}

#[test]
fn double_star_with_delta_three() {
    // Two centers joined by an edge, each with 3 pendant leaves. With Δ = 3 the
    // centers can carry weight 3 each; the optimum is 6 (drop the bridge).
    let mut g = Graph::new(8);
    g.add_edge(0, 1);
    for leaf in 2..5 {
        g.add_edge(0, leaf);
    }
    for leaf in 5..8 {
        g.add_edge(1, leaf);
    }
    let v = LipschitzExtension::new(3).evaluate(&g).unwrap();
    assert!(approx(v, 6.0), "double star f_3 = {v}");
    // Δ = 4 anchors the graph (the whole tree is a spanning 4-forest).
    let v4 = LipschitzExtension::new(4).evaluate(&g).unwrap();
    assert!(approx(v4, 7.0), "double star f_4 = {v4}");
}

#[test]
fn values_decompose_over_components() {
    let a = generators::cycle(3);
    let b = generators::star(4);
    let union = generators::disjoint_union(&a, &b);
    for delta in 1..=4usize {
        let va = LipschitzExtension::new(delta).evaluate(&a).unwrap();
        let vb = LipschitzExtension::new(delta).evaluate(&b).unwrap();
        let vu = LipschitzExtension::new(delta).evaluate(&union).unwrap();
        assert!(approx(va + vb, vu), "Δ={delta}: {va} + {vb} != {vu}");
    }
}

#[test]
fn lp_details_are_consistent_on_the_lp_path() {
    let g = generators::complete(6);
    let sol = CombinatorialSolver::new().solve(&g, 1.0).unwrap();
    assert!(sol.lp_solves >= 1);
    assert!(approx(sol.edge_weights.iter().sum::<f64>(), sol.value));
    assert_eq!(sol.edge_weights.len(), g.num_edges());
}
