//! The down-sensitivity-based Lipschitz extension (Lemma A.1 of the paper).
//!
//! For a monotone nondecreasing function `f` and a parameter Δ we evaluate
//!
//! ```text
//! b f_Δ(G) = min over induced subgraphs H ⪯ G of  f(H) + Δ · d(H, G),
//! ```
//!
//! where `d(H, G)` is the node distance (the number of removed vertices). This is
//! the McShane-style lower extension restricted to the induced-subgraph order. It
//! is a family of monotone-in-Δ, Δ-Lipschitz underestimates of `f`, and whenever
//! `DS_f(G) ≤ Δ` it equals `f(G)` exactly (the telescoping argument of Lemma A.1),
//! so its monotone anchor set is the largest possible one, `S*_Δ` (Lemma A.3).
//!
//! **Deviation from the paper's displayed formula.** The statement of Lemma A.1 in
//! the arXiv text restricts the minimum to subgraphs `H` with `DS_f(H) ≤ Δ`. With
//! that restriction the function can *overestimate* `f` on graphs whose
//! down-sensitivity exceeds Δ (dense graphs where every low-sensitivity subgraph is
//! far away), which would break the underestimation property required by
//! Definition 3.2 and by the GEM analysis. Dropping the restriction — as done
//! here — restores all three properties while leaving the anchor behaviour
//! unchanged; see DESIGN.md for the worked counterexample.
//!
//! Evaluating the extension costs `2^{|V|}` subgraph evaluations, so it is meant
//! for graphs with at most ~20 vertices. It serves three purposes:
//!
//! * validating Lemma 1.9 (`S*_{Δ-1} ⊆ S_Δ`) on enumerated small graphs,
//! * serving as the comparator `f*` in the ℓ∞-optimality experiment (E7,
//!   Theorem 1.11), since it is Δ-Lipschitz,
//! * cross-checking the polytope-based extension on small instances: with
//!   `f = f_Δ` the McShane step is the identity (`f_Δ` is already
//!   Δ-Lipschitz, Lemma 3.3), so any non-Lipschitz glitch in a polytope
//!   solver's values shows up as a strict gap.

use ccdp_graph::subgraph::{all_vertex_subsets, induced_subgraph};
use ccdp_graph::Graph;

/// Evaluates the down-sensitivity-based extension of an arbitrary monotone
/// nondecreasing function at `g` with parameter `delta`.
///
/// Intended for graphs with at most 20 vertices (the subset enumeration is
/// exponential).
pub fn downsens_extension<F>(g: &Graph, delta: f64, f: F) -> f64
where
    F: Fn(&Graph) -> f64,
{
    let n = g.num_vertices() as f64;
    let mut best = f64::INFINITY;
    for subset in all_vertex_subsets(g) {
        let (h, _) = induced_subgraph(g, &subset);
        let distance = n - subset.len() as f64;
        best = best.min(f(&h) + delta * distance);
    }
    best
}

/// The down-sensitivity-based extension of `f_sf` with parameter `delta`.
pub fn downsens_extension_fsf(g: &Graph, delta: usize) -> f64 {
    downsens_extension(g, delta as f64, |h| h.spanning_forest_size() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdp_graph::generators;
    use ccdp_graph::sensitivity::down_sensitivity_fsf;
    use ccdp_graph::subgraph::remove_vertex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn anchor_property_of_lemma_a1() {
        // If DS_fsf(G) ≤ Δ then the extension equals f_sf(G).
        let g = generators::path(6); // DS = s(G) = 2
        assert!(approx(downsens_extension_fsf(&g, 2), 5.0));
        assert!(approx(downsens_extension_fsf(&g, 3), 5.0));
        let star = generators::star(4); // DS = 4
        assert!(approx(downsens_extension_fsf(&star, 4), 4.0));
    }

    #[test]
    fn underestimation_below_anchor() {
        // For Δ < DS the extension strictly underestimates on the star.
        let star = generators::star(4);
        let v = downsens_extension_fsf(&star, 2);
        assert!(v < 4.0);
        // Removing the center gives 4 isolated vertices (f_sf = 0, distance 1):
        // value ≤ 0 + 2·1 = 2.
        assert!(v <= 2.0 + 1e-9);
    }

    #[test]
    fn extension_is_lipschitz_under_vertex_removal() {
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..10 {
            let g = generators::erdos_renyi(7, 0.35, &mut rng);
            for delta in 1..=3usize {
                let base = downsens_extension_fsf(&g, delta);
                for v in g.vertices() {
                    let (h, _) = remove_vertex(&g, v);
                    let val = downsens_extension_fsf(&h, delta);
                    assert!(
                        (base - val).abs() <= delta as f64 + 1e-9,
                        "Lemma A.1 extension not {delta}-Lipschitz"
                    );
                }
            }
        }
    }

    #[test]
    fn extension_underestimates_fsf() {
        let mut rng = StdRng::seed_from_u64(53);
        for _ in 0..10 {
            let g = generators::erdos_renyi(7, 0.4, &mut rng);
            for delta in 1..=4usize {
                assert!(
                    downsens_extension_fsf(&g, delta) <= g.spanning_forest_size() as f64 + 1e-9
                );
            }
        }
    }

    #[test]
    fn extension_is_monotone_in_delta() {
        let mut rng = StdRng::seed_from_u64(57);
        for _ in 0..10 {
            let g = generators::erdos_renyi(7, 0.4, &mut rng);
            let mut prev = f64::NEG_INFINITY;
            for delta in 1..=5usize {
                let v = downsens_extension_fsf(&g, delta);
                assert!(v + 1e-9 >= prev);
                prev = v;
            }
        }
    }

    #[test]
    fn anchor_holds_exactly_when_ds_at_most_delta() {
        let mut rng = StdRng::seed_from_u64(59);
        for _ in 0..15 {
            let g = generators::erdos_renyi(6, 0.4, &mut rng);
            let ds = down_sensitivity_fsf(&g).value();
            if ds >= 1 {
                let at_ds = downsens_extension_fsf(&g, ds);
                assert!(approx(at_ds, g.spanning_forest_size() as f64));
            }
        }
    }

    #[test]
    fn restricting_to_low_sensitivity_subgraphs_would_overestimate() {
        // The worked counterexample documented in DESIGN.md: on this dense graph
        // with DS = 3, restricting the minimum to subgraphs of down-sensitivity ≤ 2
        // (as in the arXiv statement) yields 7 > f_sf = 6; the unrestricted minimum
        // used by this module stays ≤ f_sf.
        let g = Graph::from_edges(
            7,
            &[
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (1, 3),
                (1, 4),
                (1, 5),
                (1, 6),
                (2, 5),
                (3, 6),
                (4, 6),
            ],
        );
        assert_eq!(down_sensitivity_fsf(&g).value(), 3);
        let restricted = {
            let n = g.num_vertices() as f64;
            let mut best = f64::INFINITY;
            for subset in ccdp_graph::subgraph::all_vertex_subsets(&g) {
                let (h, _) = ccdp_graph::subgraph::induced_subgraph(&g, &subset);
                if down_sensitivity_fsf(&h).value() <= 2 {
                    best =
                        best.min(h.spanning_forest_size() as f64 + 2.0 * (n - subset.len() as f64));
                }
            }
            best
        };
        assert!(restricted > g.spanning_forest_size() as f64);
        assert!(downsens_extension_fsf(&g, 2) <= g.spanning_forest_size() as f64);
    }

    #[test]
    fn generic_interface_matches_fsf_specialization() {
        let g = generators::cycle(5);
        let generic = downsens_extension(&g, 2.0, |h| h.spanning_forest_size() as f64);
        assert!(approx(generic, downsens_extension_fsf(&g, 2)));
    }

    #[test]
    fn mcshane_step_is_the_identity_on_fdelta_for_both_backends() {
        // f_Δ is Δ-Lipschitz, so min_H f_Δ(H) + Δ·d(H, G) = f_Δ(G) exactly;
        // a strict gap would expose a non-Lipschitz solver bug.
        fn combinatorial(h: &Graph, delta: f64) -> f64 {
            ccdp_lp::CombinatorialSolver::new()
                .solve(h, delta)
                .unwrap()
                .value
        }
        fn simplex(h: &Graph, delta: f64) -> f64 {
            ccdp_lp::SimplexSolver::new().solve(h, delta).unwrap().value
        }
        let solvers = [
            ("combinatorial", combinatorial as fn(&Graph, f64) -> f64),
            ("simplex", simplex),
        ];
        let mut rng = StdRng::seed_from_u64(61);
        let approx5 = |a: f64, b: f64| (a - b).abs() < 1e-5;
        for _ in 0..3 {
            let g = generators::erdos_renyi(7, 0.4, &mut rng);
            for delta in 1..=3usize {
                let delta = delta as f64;
                for (name, f_delta) in solvers {
                    let direct = f_delta(&g, delta);
                    let mcshane = downsens_extension(&g, delta, |h| f_delta(h, delta));
                    assert!(
                        approx5(direct, mcshane),
                        "{name} Δ={delta}: f_Δ={direct} vs McShane={mcshane}"
                    );
                }
            }
        }
    }

    #[test]
    fn downsens_extension_dominates_the_polytope_extension() {
        // b f_Δ is the largest Δ-Lipschitz underestimate over the induced
        // order, so it dominates f_Δ pointwise.
        let mut rng = StdRng::seed_from_u64(63);
        for _ in 0..5 {
            let g = generators::erdos_renyi(7, 0.4, &mut rng);
            for delta in 1..=3usize {
                let fdelta = crate::extension::LipschitzExtension::new(delta)
                    .evaluate(&g)
                    .unwrap();
                let bf = downsens_extension_fsf(&g, delta);
                assert!(
                    fdelta <= bf + 1e-6,
                    "Δ={delta}: f_Δ = {fdelta} exceeds b f_Δ = {bf}"
                );
            }
        }
    }
}
