//! Anchor sets of the Lipschitz extensions (Lemma 1.9 and Lemma A.3).
//!
//! The anchor set `S_Δ` of our extension `f_Δ` is the set of graphs where the
//! extension is exact: `f_Δ(G) = f_sf(G)`. The largest *monotone* anchor set any
//! Δ-Lipschitz extension can have is `S*_Δ = {G : DS_{f_sf}(G) ≤ Δ}` (Lemma A.3),
//! and Lemma 1.9 shows our anchor sets nearly match it: `S*_{Δ-1} ⊆ S_Δ`.
//!
//! These helpers are used by the anchor-set experiment (E5) and the integration
//! tests.

use crate::error::CoreError;
use crate::extension::{evaluate_family, LipschitzExtension};
use ccdp_graph::sensitivity::down_sensitivity_fsf;
use ccdp_graph::{CsrGraph, Graph};

/// Tolerance used when comparing the LP value against the integer `f_sf`.
const TOL: f64 = 1e-6;

/// Returns `true` if `g` belongs to the anchor set `S_Δ` of our extension,
/// i.e. `f_Δ(G) = f_sf(G)`.
pub fn in_anchor_set(g: &Graph, delta: usize) -> Result<bool, CoreError> {
    let value = LipschitzExtension::new(delta).evaluate(g)?;
    Ok((value - g.spanning_forest_size() as f64).abs() <= TOL)
}

/// Returns `true` if `g` belongs to the largest monotone anchor set `S*_Δ`,
/// i.e. `DS_{f_sf}(G) ≤ Δ`.
pub fn in_optimal_monotone_anchor_set(g: &Graph, delta: usize) -> bool {
    down_sensitivity_fsf(g).value() <= delta
}

/// The smallest Δ for which `g` is in the anchor set `S_Δ` of our extension.
///
/// This equals the smallest Δ such that `g` has a spanning Δ-forest (Lemma 3.3 /
/// Theorem 1.11), i.e. Δ*. One [`evaluate_family`] sweep covers the grid
/// `1..=max_degree`; the answer is its first point within tolerance of
/// `f_sf`. The family's running-max clamp cannot move that point: a clamped
/// value reaches `f_sf` only after an earlier point already has.
pub fn smallest_anchor_delta(g: &Graph) -> Result<usize, CoreError> {
    let grid: Vec<usize> = (1..=g.max_degree().max(1)).collect();
    let fsf = g.spanning_forest_size() as f64;
    let family = evaluate_family(&CsrGraph::from_graph(g), &grid, 1, None, None)?;
    Ok(grid
        .iter()
        .zip(&family)
        .find(|(_, eval)| (eval.value - fsf).abs() <= TOL)
        .map_or(grid.len(), |(&delta, _)| delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdp_graph::forest::delta_star_exact;
    use ccdp_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn star_anchor_threshold_is_its_degree() {
        let g = generators::star(4);
        assert!(!in_anchor_set(&g, 3).unwrap());
        assert!(in_anchor_set(&g, 4).unwrap());
        assert_eq!(smallest_anchor_delta(&g).unwrap(), 4);
    }

    #[test]
    fn path_is_anchored_at_two() {
        let g = generators::path(8);
        assert!(!in_anchor_set(&g, 1).unwrap());
        assert!(in_anchor_set(&g, 2).unwrap());
        assert_eq!(smallest_anchor_delta(&g).unwrap(), 2);
    }

    #[test]
    fn lemma_1_9_optimal_anchor_set_is_contained() {
        // S*_{Δ-1} ⊆ S_Δ: if DS_{f_sf}(G) ≤ Δ − 1 then f_Δ(G) = f_sf(G).
        let mut rng = StdRng::seed_from_u64(61);
        for _ in 0..15 {
            let g = generators::erdos_renyi(8, 0.3, &mut rng);
            for delta in 1..=4usize {
                if in_optimal_monotone_anchor_set(&g, delta - 1) {
                    assert!(
                        in_anchor_set(&g, delta).unwrap(),
                        "Lemma 1.9 violated at Δ = {delta} on {:?}",
                        g.edge_vec()
                    );
                }
            }
        }
    }

    #[test]
    fn smallest_anchor_delta_equals_delta_star() {
        // Lemma 3.3 item 1 plus Theorem 1.11 give S_Δ = {G with a spanning Δ-forest},
        // so the smallest anchored Δ is exactly Δ*.
        let mut rng = StdRng::seed_from_u64(67);
        for _ in 0..10 {
            let g = generators::erdos_renyi(7, 0.35, &mut rng);
            if g.has_no_edges() {
                continue;
            }
            let exact = delta_star_exact(&g, 1 << 22).expect("small graph");
            assert_eq!(smallest_anchor_delta(&g).unwrap(), exact);
        }
    }

    #[test]
    fn empty_graph_is_anchored_everywhere() {
        let g = Graph::new(5);
        assert!(in_anchor_set(&g, 1).unwrap());
        assert_eq!(smallest_anchor_delta(&g).unwrap(), 1);
    }
}
