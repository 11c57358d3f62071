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
//! Δ in one [`solve_partition`] fan-out. It is the only evaluator of `f_Δ`:
//! [`LipschitzExtension`] is its one-point grid.

use crate::error::CoreError;
use ccdp_exec::{effective_parallelism, PhaseProfiler};
use ccdp_graph::forest::component_bounded_degree_spanning_forest;
use ccdp_graph::{ComponentSummary, CsrGraph, Graph};
use ccdp_lp::{solve_partition, solve_partition_with_memo, ClassMemo};
use std::cell::OnceCell;
use std::sync::Arc;

/// How `f_Δ(G)` was computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvaluationPath {
    /// A spanning Δ-forest was found, so `f_Δ(G) = f_sf(G)` (Lemma 3.3, item 1).
    SpanningForestFastPath,
    /// The Δ-bounded forest polytope LP was solved by constraint generation.
    LinearProgram,
}

/// One grid point of [`evaluate_family`]: `f_Δ(G)` and how it was obtained.
/// Its Δ is the grid entry at the same index.
#[derive(Clone, Debug)]
pub struct ExtensionEvaluation {
    /// The value `f_Δ(G)`.
    pub value: f64,
    /// Which evaluation path was taken.
    pub path: EvaluationPath,
}

/// The Lipschitz extension `f_Δ` for the size of the spanning forest, at one Δ.
///
/// [`evaluate`](Self::evaluate) is the one-point family: [`evaluate_family`]
/// on the graph's CSR arena with the grid `[Δ]`, on one thread. The private
/// estimators evaluate their whole grid through [`evaluate_family`] at once.
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
        let family = evaluate_family(&CsrGraph::from_graph(g), &[self.delta], 1, None, None)?;
        Ok(family[0].value)
    }
}

/// Evaluates the whole family `{f_Δ}` of a CSR arena on the given grid of Δ
/// values — the loop of Algorithm 4 (steps 2–4) that feeds the Generalized
/// Exponential Mechanism.
///
/// `f_Δ` is a sum over connected components (Lemma 3.3) and so is the anchor
/// test, so the whole grid is evaluated in **one sweep** over the arena's
/// component partition:
///
/// * **Anchor, per component.** The spanning-forest fast path fires iff
///   `Δ ≥ max_degree` or the Lemma 1.8 construction finds a spanning
///   Δ-forest of the whole graph, which it does iff it does on every
///   component. A tree component has a spanning Δ-forest iff its maximum
///   degree is ≤ Δ (its only spanning forest is itself), and on any
///   component whose maximum degree is ≤ Δ the construction never repairs
///   and succeeds; so the search runs only on the non-tree components whose
///   maximum degree exceeds Δ, through
///   [`component_bounded_degree_spanning_forest`]. Before any search for a
///   Δ, a **bridge certificate** is checked: every spanning forest holds
///   every bridge, so a component with a vertex of more than Δ bridges
///   ([`CsrComponent::bridge_degrees`](ccdp_graph::CsrComponent::bridge_degrees),
///   computed once per component) has no spanning Δ-forest, the search
///   must fail, and it is skipped.
/// * **LP, one fan-out.** Every non-anchored Δ is solved by one
///   [`solve_partition`] call over the shared partition on up to `threads`
///   workers: every component on the micro solver, identical small
///   components solved once per class, each heavy class in one task per Δ
///   over one shared local copy, with the small components' classification
///   running beside those tasks, and the light classes in fixed-size chunks
///   that each run the whole LP grid. Values land in one dense row per Δ,
///   and each Δ's merge gathers from its row in component order.
///
/// Values are clamped to be monotone non-decreasing in Δ, which they are
/// mathematically (Lemma 3.3) but may fail to be by a hair numerically when
/// different Δ values take different evaluation paths. The result is
/// bit-for-bit identical for every thread budget, and the tests pin it bit
/// for bit to a per-Δ reference on the equivalent adjacency-list [`Graph`]:
/// the whole-graph Lemma 1.8 construction, then `ccdp_lp`'s combinatorial
/// oracle.
///
/// The partition is the arena's
/// [attached partition](CsrGraph::attached_partition) when it has one (a
/// stream snapshot's, which the stream patched from the previous
/// snapshot's), and otherwise
/// [`partition_components_with`](CsrGraph::partition_components_with) on
/// `effective_parallelism(threads, n + m)` threads: its traversal and its
/// relabelling overlap on two threads, and the per-component summaries it
/// streams (vertex count, edge count, maximum degree) are all the anchor
/// test reads, so there is no separate degree scan. An attached partition
/// equals that one array for array and reports the same summaries
/// ([`ComponentPartition::summary`](ccdp_graph::ComponentPartition::summary)),
/// so the values do not depend on which one the evaluation used.
///
/// With a [`PhaseProfiler`], time is attributed under stable phase names:
/// `family/partition` (the two-stage partition and its summaries, or the
/// attached partition's summaries),
/// `family/anchor` (fast-path checks including the bridge certificates and
/// the per-component Lemma 1.8 searches) and `family/lp` (polytope solving
/// over the partition), plus
/// per-Δ solve counts (component totals, closed forms, dedup hits).
/// Profiling never changes values.
///
/// A [`ClassMemo`] carries solved classes from one version of a graph to
/// the next: with `Some(memo)` the LP sweep is
/// [`solve_partition_with_memo`], so every class whose labeled slice the
/// memo holds takes the stored result for each Δ it needs, and on success
/// the memo holds this evaluation's classes (unchanged when no Δ reached
/// the LP). When the attached partition was patched from the partition the
/// memo was taken from, a component the patch copied finds its memo class
/// through its carried index, without hashing. The values are those of the
/// evaluation without a memo, bit for bit.
///
/// Repeated evaluations of the same graph should go through
/// [`ExtensionCache`](crate::cache::ExtensionCache), which wraps this
/// function with a graph-keyed memo and keeps one [`ClassMemo`] per graph
/// it has seen at two versions or more.
pub fn evaluate_family(
    arena: &CsrGraph,
    grid: &[usize],
    threads: usize,
    profiler: Option<&PhaseProfiler>,
    memo: Option<&mut ClassMemo>,
) -> Result<Vec<ExtensionEvaluation>, CoreError> {
    assert!(grid.iter().all(|&d| d >= 1), "delta must be at least 1");
    if arena.num_edges() == 0 {
        return Ok(grid
            .iter()
            .map(|_| ExtensionEvaluation {
                value: 0.0,
                path: EvaluationPath::SpanningForestFastPath,
            })
            .collect());
    }
    let partition_timer = profiler.map(|p| p.phase("family/partition"));
    // The partition reports each component's summary as it relabels it:
    // the graph's maximum degree, the largest maximum degree over *tree*
    // components (for Δ below it no spanning Δ-forest exists), and the
    // non-tree components with their maximum degrees (the only ones the
    // Lemma 1.8 search can fail on).
    let mut max_degree = 0usize;
    let mut tree_max_degree = 0usize;
    let mut cyclic: Vec<(usize, usize)> = Vec::new();
    let mut fold = |c, summary: ComponentSummary| {
        max_degree = max_degree.max(summary.max_degree);
        if summary.edges + 1 == summary.vertices {
            tree_max_degree = tree_max_degree.max(summary.max_degree);
        } else {
            cyclic.push((c, summary.max_degree));
        }
    };
    let part = match arena.attached_partition() {
        Some(part) => {
            for c in 0..part.num_components() {
                fold(c, part.summary(c));
            }
            part
        }
        None => {
            let work = arena.num_vertices() + arena.num_edges();
            let threads = effective_parallelism(threads, work);
            Arc::new(arena.partition_components_with(threads, fold))
        }
    };
    // The partition filled the arena's component memo, so this (and the
    // release's true value after it) is a load, not a second pass.
    let fsf = arena.spanning_forest_size() as f64;
    drop(partition_timer);

    let anchored: Vec<bool> = {
        let _t = profiler.map(|p| p.phase("family/anchor"));
        // Each cyclic component's largest bridge count at one vertex,
        // computed the first time a Δ needs it.
        let bridge_max: Vec<OnceCell<usize>> = cyclic.iter().map(|_| OnceCell::new()).collect();
        let bridge_max_of = |i: usize| {
            *bridge_max[i].get_or_init(|| {
                let bridges = part.component(cyclic[i].0).bridge_degrees();
                bridges.into_iter().max().unwrap_or(0) as usize
            })
        };
        grid.iter()
            .map(|&delta| {
                let over = || (0..cyclic.len()).filter(|&i| cyclic[i].1 > delta);
                // Every spanning forest holds every bridge, so a vertex with
                // more than Δ bridges means the search must fail: skip it.
                delta >= max_degree
                    || (delta >= tree_max_degree
                        && over().all(|i| bridge_max_of(i) <= delta)
                        && over().all(|i| {
                            component_bounded_degree_spanning_forest(&part, cyclic[i].0, delta)
                                .is_some()
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
        match memo {
            Some(memo) => solve_partition_with_memo(&part, &lp_deltas, threads, memo),
            None => solve_partition(&part, &lp_deltas, threads, false),
        }
        .map_err(CoreError::from)?
    }
    .into_iter();

    let mut out = Vec::with_capacity(grid.len());
    let mut running_max = 0.0f64;
    for &anchored in &anchored {
        let mut eval = if anchored {
            ExtensionEvaluation {
                value: fsf,
                path: EvaluationPath::SpanningForestFastPath,
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
                path: EvaluationPath::LinearProgram,
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
    use ccdp_graph::forest::bounded_degree_spanning_forest;
    use ccdp_graph::generators;
    use ccdp_graph::subgraph::remove_vertex;
    use ccdp_lp::CombinatorialSolver;
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
                let fast = LipschitzExtension::new(delta).evaluate(&g).unwrap();
                let slow = CombinatorialSolver::new().solve(&g, delta as f64).unwrap();
                assert!(
                    approx(fast, slow.value),
                    "fast {fast} vs lp {} at delta {delta}",
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
        // Inputs that reach the engine paths ER(9, 0.35) does not: four
        // identical light cyclic components (one dedup class), a heavy
        // piece that series contraction and the LP tail solve, and stars
        // whose centre degree is a grid point or one below it.
        let mut graphs = vec![
            cycles_with_leaf_tufts(4, 4, 3),
            ladder_with_hub_chains(10, 6),
        ];
        for k in 3..=5 {
            graphs.push(generators::star((1 << k) - 1));
            graphs.push(generators::star(1 << k));
        }
        let grid = ccdp_dp::gem::power_of_two_grid(64);
        for (i, g) in graphs.iter().enumerate() {
            for threads in [1usize, 2] {
                let family = |h: &Graph| {
                    evaluate_family(&CsrGraph::from_graph(h), &grid, threads, None, None)
                };
                let base = family(g).unwrap();
                for v in g.vertices() {
                    let (h, _) = remove_vertex(g, v);
                    let neighbour = family(&h).unwrap();
                    for ((b, e), &delta) in base.iter().zip(&neighbour).zip(&grid) {
                        assert!(
                            (b.value - e.value).abs() <= delta as f64 + 1e-6,
                            "graph {i} v={v} threads={threads}: \
                             |f_Δ(G) - f_Δ(G-v)| = {} > Δ = {delta}",
                            (b.value - e.value).abs()
                        );
                    }
                }
            }
        }
        // The heavy piece is not anchored at Δ = 2, so it reaches the LP.
        let heavy = CsrGraph::from_graph(&ladder_with_hub_chains(10, 6));
        let family = evaluate_family(&heavy, &[2], 1, None, None).unwrap();
        assert_eq!(family[0].path, EvaluationPath::LinearProgram);
    }

    /// Two `l`-cycles joined by rungs, hubs `a`, `b` joined by `k` chains of
    /// two degree-2 vertices each, and `a` joined to vertex 0. At Δ = 2 and
    /// 3 the chains need more hub edges than the hubs' caps allow, so the
    /// piece goes to the LP, where series contraction folds each chain into
    /// one vertex.
    fn ladder_with_hub_chains(l: usize, k: usize) -> Graph {
        let mut g = Graph::new(2 * l + 2 + 2 * k);
        for i in 0..l {
            g.add_edge(i, (i + 1) % l);
            g.add_edge(l + i, l + (i + 1) % l);
            g.add_edge(i, l + i);
        }
        let (a, b) = (2 * l, 2 * l + 1);
        for j in 0..k {
            let s = 2 * l + 2 + 2 * j;
            g.add_edge(a, s);
            g.add_edge(s, s + 1);
            g.add_edge(s + 1, b);
        }
        g.add_edge(a, 0);
        g
    }

    #[test]
    fn family_evaluation_is_monotone() {
        let g = generators::caveman(3, 4);
        let grid = [1usize, 2, 4, 8];
        let evals = evaluate_family(&CsrGraph::from_graph(&g), &grid, 1, None, None).unwrap();
        assert_eq!(evals.len(), 4);
        for w in evals.windows(2) {
            assert!(w[0].value <= w[1].value + 1e-9);
        }
        // The largest Δ exceeds the max degree, so the last value is exactly f_sf.
        assert!(approx(evals[3].value, g.spanning_forest_size() as f64));
    }

    /// The per-Δ reference on the adjacency list, in grid order: the fast
    /// path when `Δ ≥ max_degree` or the whole-graph Lemma 1.8 construction
    /// finds a spanning Δ-forest, else `CombinatorialSolver`; then the
    /// running-max clamp.
    fn reference_family(g: &Graph, grid: &[usize]) -> Vec<ExtensionEvaluation> {
        let mut running_max = 0.0f64;
        grid.iter()
            .map(|&delta| {
                let mut eval = if g.has_no_edges() {
                    ExtensionEvaluation {
                        value: 0.0,
                        path: EvaluationPath::SpanningForestFastPath,
                    }
                } else if delta >= g.max_degree()
                    || bounded_degree_spanning_forest(g, delta).is_some()
                {
                    ExtensionEvaluation {
                        value: g.spanning_forest_size() as f64,
                        path: EvaluationPath::SpanningForestFastPath,
                    }
                } else {
                    ExtensionEvaluation {
                        value: CombinatorialSolver::new()
                            .solve(g, delta as f64)
                            .unwrap()
                            .value,
                        path: EvaluationPath::LinearProgram,
                    }
                };
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
                let got = evaluate_family(&arena, &grid, threads, None, None).unwrap();
                assert_eq!(want.len(), got.len());
                for ((w, e), delta) in want.iter().zip(&got).zip(grid) {
                    assert_eq!(
                        w.value.to_bits(),
                        e.value.to_bits(),
                        "graph {i} Δ={delta} threads={threads}"
                    );
                    assert_eq!(w.path, e.path, "graph {i} Δ={delta}");
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
        evaluate_family(&big, &grid, 3, Some(&profiler), None).unwrap();
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

    /// `copies` disjoint copies of a `len`-cycle whose vertex 0 carries
    /// `leaves` pendant leaves: vertex 0 has `leaves` bridges and needs one
    /// more forest edge to reach its cycle.
    fn cycles_with_leaf_tufts(copies: usize, len: usize, leaves: usize) -> Graph {
        let size = len + leaves;
        let mut g = Graph::new(copies * size);
        for k in 0..copies {
            let base = k * size;
            for i in 0..len {
                g.add_edge(base + i, base + (i + 1) % len);
            }
            for leaf in len..size {
                g.add_edge(base, base + leaf);
            }
        }
        g
    }

    #[test]
    fn bridge_certificate_keeps_the_family_bit_for_bit() {
        let grid = [1usize, 2, 3, 4, 8];
        // Vertex 0 of the tufted triangle has 3 bridges and degree 5. At
        // Δ = 2 the certificate fires; at Δ = 3 it is silent and the search
        // fails (vertex 0 needs a fourth forest edge); at Δ = 4 the search
        // succeeds.
        let tufted = cycles_with_leaf_tufts(1, 3, 3);
        let view_bridges = |g: &Graph| {
            let part = CsrGraph::from_graph(g).partition_components();
            part.component(0)
                .bridge_degrees()
                .into_iter()
                .max()
                .unwrap_or(0) as usize
        };
        assert_eq!(view_bridges(&tufted), 3);
        let paths: Vec<EvaluationPath> = reference_family(&tufted, &grid)
            .iter()
            .map(|e| e.path)
            .collect();
        use EvaluationPath::{LinearProgram as Lp, SpanningForestFastPath as Fast};
        assert_eq!(paths, [Lp, Lp, Lp, Fast, Fast]);
        // A triangle whose vertex 0 is joined by bridges to three more
        // triangles: the bridges lie inside the 2-core, and the
        // certificate fires at Δ = 2 and 3.
        let mut hub = Graph::new(12);
        for t in 0..4 {
            let b = 3 * t;
            hub.add_edge(b, b + 1);
            hub.add_edge(b + 1, b + 2);
            hub.add_edge(b + 2, b);
            if t > 0 {
                hub.add_edge(0, b);
            }
        }
        assert_eq!(view_bridges(&hub), 3);
        // Vertex 0 hangs two leaves and a K4 off three bridges: at Δ = 3
        // it has exactly Δ bridges and the search succeeds, so a
        // certificate firing at Δ bridges would change the path.
        let mut exact = Graph::from_edges(7, &[(0, 1), (0, 2), (0, 3)]);
        for u in 3..7 {
            for v in u + 1..7 {
                exact.add_edge(u, v);
            }
        }
        assert_eq!(view_bridges(&exact), 3);
        let paths: Vec<EvaluationPath> = reference_family(&exact, &grid)
            .iter()
            .map(|e| e.path)
            .collect();
        assert_eq!(paths, [Lp, Lp, Fast, Fast, Fast]);
        let mut graphs = vec![tufted, hub, exact];
        // Large enough (n + m ≥ 4096) that threads 3 runs the pipelined
        // partition.
        graphs.push(cycles_with_leaf_tufts(400, 3, 3));
        let mut rng = StdRng::seed_from_u64(17);
        let mut tufted_er = generators::erdos_renyi(3000, 1.3 / 3000.0, &mut rng);
        for _ in 0..4 {
            let v = tufted_er.add_vertex();
            tufted_er.add_edge(0, v);
        }
        graphs.push(tufted_er);
        for (i, g) in graphs.iter().enumerate() {
            let want = reference_family(g, &grid);
            let arena = CsrGraph::from_graph(g);
            for threads in [1usize, 3] {
                let got = evaluate_family(&arena, &grid, threads, None, None).unwrap();
                assert_eq!(want.len(), got.len());
                for ((w, e), delta) in want.iter().zip(&got).zip(grid) {
                    assert_eq!(
                        w.value.to_bits(),
                        e.value.to_bits(),
                        "graph {i} Δ={delta} threads={threads}"
                    );
                    assert_eq!(w.path, e.path, "graph {i} Δ={delta}");
                }
            }
        }
    }

    #[test]
    fn evaluation_path_is_reported() {
        let star = CsrGraph::from_graph(&generators::star(5));
        let family = evaluate_family(&star, &[2, 5], 1, None, None).unwrap();
        assert_eq!(family[1].path, EvaluationPath::SpanningForestFastPath);
        assert_eq!(family[0].path, EvaluationPath::LinearProgram);
    }

    #[test]
    #[should_panic]
    fn zero_delta_is_rejected() {
        LipschitzExtension::new(0);
    }

    #[test]
    fn backends_agree_through_the_extension() {
        // Both exact solvers give the extension's value: the engine's
        // bitwise oracle and the independent simplex oracle.
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..4 {
            let g = generators::erdos_renyi(10, 0.35, &mut rng);
            for delta in 1..=3usize {
                let ext = LipschitzExtension::new(delta).evaluate(&g).unwrap();
                let comb = CombinatorialSolver::new()
                    .solve(&g, delta as f64)
                    .unwrap()
                    .value;
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
