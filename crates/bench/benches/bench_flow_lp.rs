//! Criterion micro-benchmarks for the max-flow, LP and polytope-solver
//! substrates.

use ccdp_flow::{max_weight_closure, ClosureInstance, FlowNetwork};
use ccdp_graph::{bounded_degree_spanning_forest, generators, CsrGraph, Graph};
use ccdp_lp::{
    solve_partition, violated_forest_constraints, CombinatorialSolver, IncrementalSimplex,
    SimplexSolver,
};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn grid_network(side: usize) -> (FlowNetwork, usize, usize) {
    // Source -> left column, right column -> sink, unit-ish capacities.
    let n = side * side;
    let mut net = FlowNetwork::new(n + 2);
    let source = n;
    let sink = n + 1;
    let idx = |r: usize, c: usize| r * side + c;
    for r in 0..side {
        net.add_edge(source, idx(r, 0), 1.0);
        net.add_edge(idx(r, side - 1), sink, 1.0);
        for c in 0..side {
            if c + 1 < side {
                net.add_edge(idx(r, c), idx(r, c + 1), 1.0);
            }
            if r + 1 < side {
                net.add_edge(idx(r, c), idx(r + 1, c), 0.5);
                net.add_edge(idx(r + 1, c), idx(r, c), 0.5);
            }
        }
    }
    (net, source, sink)
}

fn bench_dinic(c: &mut Criterion) {
    let mut group = c.benchmark_group("dinic");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for &side in &[10usize, 20] {
        group.bench_function(format!("grid_{side}x{side}"), |b| {
            b.iter(|| {
                let (net, s, t) = grid_network(side);
                net.max_flow(s, t).value
            })
        });
    }
    group.finish();
}

fn bench_closure(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_weight_closure");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(1);
    let num_vertices: usize = 200;
    let num_edges = 600;
    let mut inst = ClosureInstance::new();
    let vs: Vec<usize> = (0..num_vertices).map(|_| inst.add_item(-1.0)).collect();
    for _ in 0..num_edges {
        let e = inst.add_item(rng.gen_range(0.1..1.0));
        let a = rng.gen_range(0..num_vertices);
        let b = rng.gen_range(0..num_vertices);
        inst.add_requirement(e, vs[a]);
        inst.add_requirement(e, vs[b]);
    }
    group.bench_function("separation_like_200v_600e", |b| {
        b.iter(|| max_weight_closure(&inst).weight)
    });

    // The separation oracle on a core-sized piece (a random spanning tree
    // plus a few dozen chords, like the Δ = 4 core of the n = 10^6 release).
    // At the tree's indicator vector the support is a forest, so the
    // union-find certificate answers; one chord at 0.5 closes a support
    // cycle and sends the same graph through the per-root min-cuts.
    let (num_vertices, num_chords) = (1_300usize, 40usize);
    let mut core = Graph::new(num_vertices);
    for v in 1..num_vertices {
        core.add_edge(rng.gen_range(0..v), v);
    }
    let tree = core.clone();
    while core.num_edges() < num_vertices - 1 + num_chords {
        core.add_edge(
            rng.gen_range(0..num_vertices),
            rng.gen_range(0..num_vertices),
        );
    }
    let edges = core.edge_vec();
    let forest_point: Vec<f64> = edges
        .iter()
        .map(|&(a, b)| if tree.has_edge(a, b) { 1.0 } else { 0.0 })
        .collect();
    let mut cycle_point = forest_point.clone();
    let chord = forest_point
        .iter()
        .position(|&w| w == 0.0)
        .expect("a chord");
    cycle_point[chord] = 0.5;
    group.bench_function("violated_forest_constraints_1300v_forest_support", |b| {
        b.iter(|| violated_forest_constraints(num_vertices, &edges, &forest_point).len())
    });
    group.bench_function("violated_forest_constraints_1300v_one_support_cycle", |b| {
        b.iter(|| violated_forest_constraints(num_vertices, &edges, &cycle_point).len())
    });
    group.finish();
}

fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(2);
    for &(vars, cons) in &[(50usize, 100usize), (150, 300)] {
        let mut rows: Vec<(Vec<(usize, f64)>, f64)> = Vec::with_capacity(cons);
        for _ in 0..cons {
            let mut terms = Vec::new();
            for j in 0..vars {
                if rng.gen_bool(0.2) {
                    terms.push((j, rng.gen_range(0.0..1.0)));
                }
            }
            rows.push((terms, rng.gen_range(1.0..5.0)));
        }
        // A cold solve per iteration: a fresh tableau over the same rows.
        group.bench_function(format!("random_{vars}v_{cons}c"), |b| {
            b.iter(|| {
                let mut lp = IncrementalSimplex::new(&vec![1.0; vars]);
                for (terms, rhs) in &rows {
                    lp.add_constraint(terms, *rhs).expect("non-negative rhs");
                }
                lp.solve().map(|s| s.objective_value).unwrap_or(0.0)
            })
        });
    }
    group.finish();
}

fn bench_forest_polytope(c: &mut Criterion) {
    let mut group = c.benchmark_group("forest_polytope");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    // Both reference solvers on a modest instance (the simplex oracle is
    // only viable at this scale)…
    let mut rng = StdRng::seed_from_u64(3);
    let small = generators::erdos_renyi(40, 3.0 / 40.0, &mut rng);
    group.bench_function("er40_d2_combinatorial-forest", |b| {
        b.iter(|| CombinatorialSolver::new().solve(&small, 2.0).unwrap().value)
    });
    group.bench_function("er40_d2_simplex-cutting-planes", |b| {
        b.iter(|| SimplexSolver::new().solve(&small, 2.0).unwrap().value)
    });
    // …and the combinatorial solver on the supercritical giant-component
    // workload that motivated the solver layer (minutes with the old dense
    // simplex).
    let giant = generators::erdos_renyi(300, 3.0 / 300.0, &mut rng);
    for delta in [2.0, 3.0] {
        group.bench_function(format!("er300_giant_d{delta}_combinatorial"), |b| {
            b.iter(|| {
                CombinatorialSolver::new()
                    .solve(&giant, delta)
                    .unwrap()
                    .value
            })
        });
    }
    // …and a chain-heavy core at Δ = 4, the shape of the n = 10^6 release's
    // one LP piece: series contraction shrinks it before the LP tail.
    let chains = chain_heavy_core(24, 4);
    group.bench_function("chain_core_d4_combinatorial", |b| {
        b.iter(|| {
            CombinatorialSolver::new()
                .solve(&chains, 4.0)
                .unwrap()
                .value
        })
    });
    group.finish();
}

/// A chain-heavy core shaped like the peeled giant of a barely-supercritical
/// ER graph: a random connected core on `k` vertices with average degree 3
/// (a random tree plus chords) whose edges are subdivided into chains of
/// 20–49 degree-2 vertices, with three pendant leaves on ~6 % of all
/// vertices so that, after peeling at Δ = 4, their capacity is 1 and binds.
fn chain_heavy_core(k: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut core = Graph::new(k);
    for v in 1..k {
        core.add_edge(rng.gen_range(0..v), v);
    }
    while core.num_edges() < 3 * k / 2 {
        core.add_edge(rng.gen_range(0..k), rng.gen_range(0..k));
    }
    let mut g = Graph::new(k);
    for (a, b) in core.edges() {
        let mut prev = a;
        for _ in 0..rng.gen_range(20..50) {
            let v = g.add_vertex();
            g.add_edge(prev, v);
            prev = v;
        }
        g.add_edge(prev, b);
    }
    for v in 0..g.num_vertices() {
        if rng.gen_bool(0.06) {
            for _ in 0..3 {
                let leaf = g.add_vertex();
                g.add_edge(v, leaf);
            }
        }
    }
    g
}

fn supercritical_er(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::erdos_renyi(n, 1.05 / n as f64, &mut rng)
}

fn bench_csr_vs_adjacency(c: &mut Criterion) {
    let mut group = c.benchmark_group("csr_vs_adjacency");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let g = supercritical_er(n, 7);
        let csr = CsrGraph::from_graph(&g);
        // Arena construction from the mutable graph (the snapshot-publish
        // cost of the streaming tier).
        group.bench_function(format!("construct_csr_n{n}"), |b| {
            b.iter(|| CsrGraph::from_graph(&g).num_edges())
        });
        // Whole-graph components: a union-find pass over the adjacency
        // rows vs the fused partition of the arena (its `num_components` is
        // a memo load after the first call, so the partition is what gets
        // timed; it also relabels the arena into component order).
        group.bench_function(format!("components_adjacency_n{n}"), |b| {
            b.iter(|| g.num_connected_components())
        });
        group.bench_function(format!("components_csr_n{n}"), |b| {
            b.iter(|| csr.partition_components().num_components())
        });
    }
    // The Lemma 1.8 forest construction. 10^6 would dominate the run.
    for &n in &[10_000usize, 100_000] {
        let g = supercritical_er(n, 11);
        group.bench_function(format!("forest_adjacency_n{n}"), |b| {
            b.iter(|| bounded_degree_spanning_forest(&g, 2).map(|f| f.num_edges()))
        });
    }
    group.finish();
}

fn bench_thread_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("thread_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    // One grid sweep over a barely-supercritical ER graph: thousands of
    // small tree/unicyclic pieces plus one giant component, solved at every
    // Δ of {1, 2, 4, 8} on one fan-out. The partition is built once, as the
    // family engine does for a whole grid.
    let grid = [1.0, 2.0, 4.0, 8.0];
    for &n in &[20_000usize, 100_000] {
        let part = CsrGraph::from_graph(&supercritical_er(n, 13)).partition_components();
        for &threads in &[1usize, 2, 4, 8] {
            group.bench_function(format!("solve_grid_er_n{n}_t{threads}"), |b| {
                b.iter(|| {
                    solve_partition(&part, &grid, threads, true)
                        .unwrap()
                        .iter()
                        .map(|s| s.solution.value)
                        .sum::<f64>()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dinic,
    bench_closure,
    bench_simplex,
    bench_forest_polytope,
    bench_csr_vs_adjacency,
    bench_thread_scaling
);
criterion_main!(benches);
