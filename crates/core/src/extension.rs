//! The family of Lipschitz extensions `{f_Δ}` of the spanning-forest size
//! (Definition 3.1 / Lemma 3.3 of the paper).
//!
//! `f_Δ(G)` is the maximum of `x(E)` over the Δ-bounded forest polytope of `G`.
//! Lemma 3.3 establishes the properties our private algorithm needs:
//!
//! 1. **Underestimation**: `f_Δ(G) ≤ f_sf(G)` for every Δ and G.
//! 2. **Monotonicity in Δ**: `f_Δ₁(G) ≤ f_Δ₂(G)` for `Δ₁ ≤ Δ₂`.
//! 3. **Δ-Lipschitzness** with respect to node distance.
//! 4. **Anchor**: if `G` has a spanning Δ-forest then `f_Δ(G) = f_sf(G)`.
//!
//! Property 4 doubles as a fast path: when the constructive procedure of Lemma 1.8
//! produces a spanning Δ-forest we can skip the LP entirely and return `f_sf(G)`.
//! This is exactly the case for the well-behaved graphs the paper's accuracy
//! analysis targets; the LP is only exercised when Δ is below the graph's Δ*.
//!
//! Both `f_Δ` and the Lemma 1.8 construction split over connected components,
//! so [`evaluate_family`] evaluates a whole grid of Δ values in one sweep over
//! the component partition: it runs the anchor search only on the non-tree
//! components whose maximum degree exceeds Δ, and solves every non-anchored
//! Δ in one [`solve_partition`] fan-out. [`LipschitzExtension`] is the
//! single-Δ, whole-graph reference it is tested against bit for bit.

use crate::error::CoreError;
use crate::polytope::{forest_polytope_max, PolytopeSolution};
use ccdp_exec::PhaseProfiler;
use ccdp_graph::forest::{
    bounded_degree_spanning_forest, component_bounded_degree_spanning_forest,
};
use ccdp_graph::{CsrGraph, Graph};
use ccdp_lp::solve_partition;

/// How `f_Δ(G)` was computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvaluationPath {
    /// A spanning Δ-forest was found, so `f_Δ(G) = f_sf(G)` (Lemma 3.3, item 1).
    SpanningForestFastPath,
    /// The Δ-bounded forest polytope LP was solved by constraint generation.
    LinearProgram,
}

/// Detailed result of evaluating `f_Δ(G)`.
#[derive(Clone, Debug)]
pub struct ExtensionEvaluation {
    /// The value `f_Δ(G)`.
    pub value: f64,
    /// The Lipschitz parameter Δ used.
    pub delta: usize,
    /// Which evaluation path was taken.
    pub path: EvaluationPath,
    /// LP details (present only when the LP path was taken).
    pub lp: Option<PolytopeSolution>,
}

/// The Lipschitz extension `f_Δ` for the size of the spanning forest.
///
/// This is the single-Δ, adjacency-list evaluation. The private estimators
/// evaluate the whole grid through [`evaluate_family`] instead; this type is
/// the reference it is tested against. To maximize the polytope without the
/// fast path, call [`forest_polytope_max`] directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LipschitzExtension {
    delta: usize,
}

impl LipschitzExtension {
    /// Creates the extension with Lipschitz parameter `delta ≥ 1`.
    ///
    /// # Panics
    /// Panics if `delta == 0`.
    pub fn new(delta: usize) -> Self {
        assert!(delta >= 1, "delta must be at least 1");
        LipschitzExtension { delta }
    }

    /// The Lipschitz parameter Δ.
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// Evaluates `f_Δ(G)` (this is `EvalLipschitzExtension` of Algorithm 2).
    pub fn evaluate(&self, g: &Graph) -> Result<f64, CoreError> {
        Ok(self.evaluate_detailed(g)?.value)
    }

    /// Evaluates `f_Δ(G)` and reports how the value was obtained.
    pub fn evaluate_detailed(&self, g: &Graph) -> Result<ExtensionEvaluation, CoreError> {
        if g.has_no_edges() {
            return Ok(ExtensionEvaluation {
                value: 0.0,
                delta: self.delta,
                path: EvaluationPath::SpanningForestFastPath,
                lp: None,
            });
        }
        if self.delta >= g.max_degree() || bounded_degree_spanning_forest(g, self.delta).is_some() {
            return Ok(ExtensionEvaluation {
                value: g.spanning_forest_size() as f64,
                delta: self.delta,
                path: EvaluationPath::SpanningForestFastPath,
                lp: None,
            });
        }
        let lp = forest_polytope_max(g, self.delta as f64)?;
        Ok(ExtensionEvaluation {
            value: lp.value,
            delta: self.delta,
            path: EvaluationPath::LinearProgram,
            lp: Some(lp),
        })
    }
}

/// Evaluates the whole family `{f_Δ}` of a CSR arena on the given grid of Δ
/// values — the loop of Algorithm 4 (steps 2–4) that feeds the Generalized
/// Exponential Mechanism.
///
/// `f_Δ` is a sum over connected components (Lemma 3.3) and so is the anchor
/// test, so the whole grid is evaluated in **one sweep** over the arena's
/// component partition, decision for decision like
/// [`LipschitzExtension::evaluate_detailed`] on every Δ:
///
/// * **Anchor, per component.** The spanning-forest fast path fires iff
///   `Δ ≥ max_degree` or the Lemma 1.8 construction finds a spanning
///   Δ-forest of the whole graph, which it does iff it does on every
///   component. A tree component has a spanning Δ-forest iff its maximum
///   degree is ≤ Δ (its only spanning forest is itself), and on any
///   component whose maximum degree is ≤ Δ the construction never repairs
///   and succeeds; so the search runs only on the non-tree components whose
///   maximum degree exceeds Δ, through
///   [`component_bounded_degree_spanning_forest`].
/// * **LP, one fan-out.** Every non-anchored Δ is solved by one
///   [`solve_partition`] call over the shared partition on up to `threads`
///   workers: every component on the micro solver, identical small
///   components solved once per class, each heavy class in one task per Δ
///   over one shared local copy, and the light classes in fixed-size chunks
///   that each run the whole LP grid. Values merge in component order per Δ.
///
/// Values are clamped to be monotone non-decreasing in Δ, which they are
/// mathematically (Lemma 3.3) but may fail to be by a hair numerically when
/// different Δ values take different evaluation paths. The result is
/// bit-for-bit identical for every thread budget and to the per-Δ
/// [`LipschitzExtension`] reference on the equivalent [`Graph`]. LP
/// evaluations carry solver statistics but empty `edge_weights` (the family
/// never uses the maximizing point itself).
///
/// With a [`PhaseProfiler`], time is attributed under stable phase names:
/// `family/partition` (the fused partition pass + per-component degree
/// scan),
/// `family/anchor` (fast-path checks including the per-component Lemma 1.8
/// searches) and `family/lp` (polytope solving over the partition), plus
/// per-Δ solve counts (component totals, closed forms, dedup hits).
/// Profiling never changes values.
///
/// Repeated evaluations of the same graph should go through
/// [`ExtensionCache`](crate::cache::ExtensionCache), which wraps this
/// function with a graph-keyed memo.
pub fn evaluate_family(
    arena: &CsrGraph,
    grid: &[usize],
    threads: usize,
    profiler: Option<&PhaseProfiler>,
) -> Result<Vec<ExtensionEvaluation>, CoreError> {
    assert!(grid.iter().all(|&d| d >= 1), "delta must be at least 1");
    if arena.num_edges() == 0 {
        return Ok(grid
            .iter()
            .map(|&delta| ExtensionEvaluation {
                value: 0.0,
                delta,
                path: EvaluationPath::SpanningForestFastPath,
                lp: None,
            })
            .collect());
    }
    let partition_timer = profiler.map(|p| p.phase("family/partition"));
    let max_degree = arena.max_degree();
    let part = arena.partition_components();
    // The partition filled the arena's component memo, so this (and the
    // release's true value after it) is a load, not a second pass.
    let fsf = arena.spanning_forest_size() as f64;
    // Largest maximum degree over *tree* components (for Δ below it no
    // spanning Δ-forest exists), and the non-tree components with their
    // maximum degrees (the only ones the Lemma 1.8 search can fail on).
    let mut tree_max_degree = 0usize;
    let mut cyclic: Vec<(usize, usize)> = Vec::new();
    for c in 0..part.num_components() {
        let view = part.component(c);
        let local_max = (0..view.num_vertices())
            .map(|v| view.degree(v))
            .max()
            .unwrap_or(0);
        if view.num_edges() + 1 == view.num_vertices() {
            tree_max_degree = tree_max_degree.max(local_max);
        } else {
            cyclic.push((c, local_max));
        }
    }
    drop(partition_timer);

    let anchored: Vec<bool> = {
        let _t = profiler.map(|p| p.phase("family/anchor"));
        grid.iter()
            .map(|&delta| {
                delta >= max_degree
                    || (delta >= tree_max_degree
                        && cyclic
                            .iter()
                            .filter(|&&(_, local_max)| local_max > delta)
                            .all(|&(c, _)| {
                                component_bounded_degree_spanning_forest(&part, c, delta).is_some()
                            }))
            })
            .collect()
    };
    let lp_deltas: Vec<f64> = grid
        .iter()
        .zip(&anchored)
        .filter(|&(_, &anchored)| !anchored)
        .map(|(&delta, _)| delta as f64)
        .collect();
    let mut solved = if lp_deltas.is_empty() {
        Vec::new()
    } else {
        let _t = profiler.map(|p| p.phase("family/lp"));
        // The family only feeds values into the GEM selection, so it asks
        // for no per-edge weights.
        solve_partition(&part, &lp_deltas, threads, false).map_err(CoreError::from)?
    }
    .into_iter();

    let mut out = Vec::with_capacity(grid.len());
    let mut running_max = 0.0f64;
    for (&delta, &anchored) in grid.iter().zip(&anchored) {
        let mut eval = if anchored {
            ExtensionEvaluation {
                value: fsf,
                delta,
                path: EvaluationPath::SpanningForestFastPath,
                lp: None,
            }
        } else {
            let solved = solved
                .next()
                .expect("one partition solution per LP grid point");
            if let Some(p) = profiler {
                let stats = solved.stats;
                p.add_count("solve/components", stats.components as u64);
                p.add_count("solve/micro-closed-form", stats.micro_closed_form as u64);
                p.add_count("solve/micro-reduced", stats.micro_reduced as u64);
                p.add_count("solve/dedup-classes", stats.dedup_classes as u64);
                p.add_count("solve/dedup-hits", stats.dedup_hits as u64);
            }
            ExtensionEvaluation {
                value: solved.solution.value,
                delta,
                path: EvaluationPath::LinearProgram,
                lp: Some(solved.solution),
            }
        };
        running_max = running_max.max(eval.value);
        eval.value = running_max;
        out.push(eval);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdp_graph::generators;
    use ccdp_graph::subgraph::remove_vertex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn empty_graph_evaluates_to_zero() {
        let g = Graph::new(6);
        assert!(approx(
            LipschitzExtension::new(3).evaluate(&g).unwrap(),
            0.0
        ));
    }

    #[test]
    fn anchor_property_on_path() {
        // A path has a spanning 2-forest, so f_2 = f_sf; and f_1 < f_sf.
        let g = generators::path(7);
        assert!(approx(
            LipschitzExtension::new(2).evaluate(&g).unwrap(),
            6.0
        ));
        let f1 = LipschitzExtension::new(1).evaluate(&g).unwrap();
        assert!(f1 < 6.0);
        // With Δ=1 the polytope is the fractional matching polytope of the path:
        // optimum 3 (alternating edges).
        assert!(approx(f1, 3.0));
    }

    #[test]
    fn remark_3_4_star_values() {
        // Remark 3.4: on K_{1,Δ} built from Δ isolated vertices plus a center,
        // f_Δ jumps from 0 to Δ, showing the Lipschitz constant is tight.
        for delta in 1..=4usize {
            let isolated = Graph::new(delta);
            let star = generators::star(delta);
            let ext = LipschitzExtension::new(delta);
            assert!(approx(ext.evaluate(&isolated).unwrap(), 0.0));
            assert!(approx(ext.evaluate(&star).unwrap(), delta as f64));
        }
    }

    #[test]
    fn underestimation_and_monotonicity_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..8 {
            let g = generators::erdos_renyi(10, 0.35, &mut rng);
            let fsf = g.spanning_forest_size() as f64;
            let mut prev = 0.0;
            for delta in 1..=5 {
                let v = LipschitzExtension::new(delta).evaluate(&g).unwrap();
                assert!(v <= fsf + 1e-6, "f_{delta} = {v} exceeds f_sf = {fsf}");
                assert!(v + 1e-6 >= prev, "f_Δ not monotone in Δ");
                prev = v;
            }
        }
    }

    #[test]
    fn fast_path_and_lp_agree() {
        // Where a spanning Δ-forest exists, the LP must give the same value as the
        // fast path (this cross-checks the constraint generation).
        let mut rng = StdRng::seed_from_u64(37);
        for _ in 0..5 {
            let g = generators::erdos_renyi(9, 0.3, &mut rng);
            for delta in 2..=4usize {
                let fast = LipschitzExtension::new(delta)
                    .evaluate_detailed(&g)
                    .unwrap();
                let slow = forest_polytope_max(&g, delta as f64).unwrap();
                assert!(
                    approx(fast.value, slow.value),
                    "fast {} vs lp {} at delta {delta}",
                    fast.value,
                    slow.value
                );
            }
        }
    }

    #[test]
    fn lipschitz_property_under_vertex_removal() {
        // |f_Δ(G) − f_Δ(G \ v)| ≤ Δ for every vertex v (one step of node distance).
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..5 {
            let g = generators::erdos_renyi(9, 0.35, &mut rng);
            for delta in 1..=3usize {
                let ext = LipschitzExtension::new(delta);
                let base = ext.evaluate(&g).unwrap();
                for v in g.vertices() {
                    let (h, _) = remove_vertex(&g, v);
                    let val = ext.evaluate(&h).unwrap();
                    assert!(
                        (base - val).abs() <= delta as f64 + 1e-6,
                        "|f_Δ(G) - f_Δ(G-v)| = {} > Δ = {delta}",
                        (base - val).abs()
                    );
                }
            }
        }
    }

    #[test]
    fn family_evaluation_is_monotone() {
        let g = generators::caveman(3, 4);
        let grid = [1usize, 2, 4, 8];
        let evals = evaluate_family(&CsrGraph::from_graph(&g), &grid, 1, None).unwrap();
        assert_eq!(evals.len(), 4);
        for w in evals.windows(2) {
            assert!(w[0].value <= w[1].value + 1e-9);
        }
        // The largest Δ exceeds the max degree, so the last value is exactly f_sf.
        assert!(approx(evals[3].value, g.spanning_forest_size() as f64));
    }

    /// The per-Δ reference: [`LipschitzExtension::evaluate_detailed`] on the
    /// adjacency list plus the running-max clamp, in grid order.
    fn reference_family(g: &Graph, grid: &[usize]) -> Vec<ExtensionEvaluation> {
        let mut running_max = 0.0f64;
        grid.iter()
            .map(|&delta| {
                let mut eval = LipschitzExtension::new(delta).evaluate_detailed(g).unwrap();
                running_max = running_max.max(eval.value);
                eval.value = running_max;
                eval
            })
            .collect()
    }

    #[test]
    fn family_engine_matches_the_per_delta_reference_bit_for_bit() {
        // The generator families of the micro-solver proptests at n 4..60
        // (small graphs: trees, cycles, ER, BA, geometric), plus a
        // barely-supercritical ER graph of 3000 vertices whose trees,
        // unicyclic and multicyclic components exercise the parallel fan-out.
        let mut graphs = Vec::new();
        for n in (4usize..60).step_by(5) {
            for seed in 0..2u64 {
                let mut rng = StdRng::seed_from_u64(seed * 1000 + n as u64);
                let mut tree = Graph::new(n);
                for v in 1..n {
                    tree.add_edge(rng.gen_range(0..v), v);
                }
                graphs.push(tree);
                graphs.push(generators::cycle(n.max(3)));
                graphs.push(generators::erdos_renyi(n, 1.4 / n as f64, &mut rng));
                graphs.push(generators::barabasi_albert(n, 2, &mut rng));
                graphs.push(generators::random_geometric(n, 0.18, &mut rng));
            }
        }
        let mut rng = StdRng::seed_from_u64(9);
        graphs.push(generators::erdos_renyi(3000, 1.25 / 3000.0, &mut rng));
        let grid = [1usize, 2, 4, 8, 16];
        for (i, g) in graphs.iter().enumerate() {
            let want = reference_family(g, &grid);
            let arena = CsrGraph::from_graph(g);
            for threads in [1usize, 3] {
                let got = evaluate_family(&arena, &grid, threads, None).unwrap();
                assert_eq!(want.len(), got.len());
                for (w, e) in want.iter().zip(&got) {
                    assert_eq!(
                        w.value.to_bits(),
                        e.value.to_bits(),
                        "graph {i} Δ={} threads={threads}",
                        w.delta
                    );
                    assert_eq!(w.path, e.path, "graph {i} Δ={}", w.delta);
                    assert_eq!(w.delta, e.delta);
                }
            }
        }
        // On the n = 3000 graph every component, the multicyclic giant
        // included, takes the micro path: each one is a closed form, a
        // reduced micro solve or a dedup hit.
        let big = CsrGraph::from_graph(graphs.last().expect("the ER graph"));
        let part = big.partition_components();
        let giant = (0..part.num_components())
            .map(|c| part.component(c))
            .max_by_key(|view| view.num_vertices())
            .expect("non-empty graph");
        assert!(giant.num_vertices() > 100 && giant.num_edges() > giant.num_vertices());
        let profiler = PhaseProfiler::new();
        evaluate_family(&big, &grid, 3, Some(&profiler)).unwrap();
        let count = |name: &str| {
            profiler
                .report()
                .into_iter()
                .find(|r| r.name == name)
                .map_or(0, |r| r.count)
        };
        assert!(count("solve/components") > 0);
        assert!(count("solve/micro-reduced") > 0);
        assert_eq!(
            count("solve/micro-closed-form")
                + count("solve/micro-reduced")
                + count("solve/dedup-hits"),
            count("solve/components")
        );
    }

    #[test]
    fn evaluation_path_is_reported() {
        let star = generators::star(5);
        let fast = LipschitzExtension::new(5).evaluate_detailed(&star).unwrap();
        assert_eq!(fast.path, EvaluationPath::SpanningForestFastPath);
        let lp = LipschitzExtension::new(2).evaluate_detailed(&star).unwrap();
        assert_eq!(lp.path, EvaluationPath::LinearProgram);
        assert!(lp.lp.is_some());
    }

    #[test]
    #[should_panic]
    fn zero_delta_is_rejected() {
        LipschitzExtension::new(0);
    }

    #[test]
    fn backends_agree_through_the_extension() {
        // Both exact solvers give the extension's value: the one
        // `forest_polytope_max` runs and the independent simplex oracle.
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..4 {
            let g = generators::erdos_renyi(10, 0.35, &mut rng);
            for delta in 1..=3usize {
                let ext = LipschitzExtension::new(delta).evaluate(&g).unwrap();
                let comb = forest_polytope_max(&g, delta as f64).unwrap().value;
                let simp = ccdp_lp::SimplexSolver::new()
                    .solve(&g, delta as f64)
                    .unwrap()
                    .value;
                assert!(approx(comb, simp), "Δ={delta}: {comb} vs {simp}");
                assert!(approx(ext, simp), "Δ={delta}: {ext} vs {simp}");
            }
        }
    }
}
