//! Experiment E10 (polynomial-time claim, Section 3 and the conclusion): wall-clock
//! scaling of EvalLipschitzExtension (the constraint-generation LP) and of the full
//! Algorithm 1, plus the effect of the spanning-forest fast path.

use ccdp_bench::Table;
use ccdp_core::{DiagnosticsAccess, LipschitzExtension, PrivateSpanningForestEstimator};
use ccdp_graph::generators;
use ccdp_lp::CombinatorialSolver;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let mut lp_table = Table::new(
        "E10a: EvalLipschitzExtension via the LP (fast path disabled), caveman graphs, Δ = 1",
        &[
            "n",
            "edges",
            "time (ms)",
            "generated cuts",
            "LP solves",
            "simplex pivots",
        ],
    );
    for cliques in [5usize, 10, 20, 30] {
        let g = generators::caveman(cliques, 5);
        let start = Instant::now();
        let lp = CombinatorialSolver::new().solve(&g, 1.0).unwrap();
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        lp_table.add_row(vec![
            g.num_vertices().to_string(),
            g.num_edges().to_string(),
            format!("{elapsed:.1}"),
            lp.generated_cuts.to_string(),
            lp.lp_solves.to_string(),
            lp.lp_iterations.to_string(),
        ]);
    }
    lp_table.print();

    let mut fast_table = Table::new(
        "E10b: fast path (spanning Δ-forest found) vs LP on the same instance, Δ = 3",
        &["n", "fast path (ms)", "LP path (ms)"],
    );
    for cliques in [10usize, 20, 40] {
        let g = generators::caveman(cliques, 4);
        let t0 = Instant::now();
        let _ = LipschitzExtension::new(3).evaluate(&g).unwrap();
        let fast = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let _ = CombinatorialSolver::new().solve(&g, 3.0).unwrap();
        let slow = t1.elapsed().as_secs_f64() * 1e3;
        fast_table.add_row(vec![
            g.num_vertices().to_string(),
            format!("{fast:.1}"),
            format!("{slow:.1}"),
        ]);
    }
    fast_table.print();

    let mut alg_table = Table::new(
        "E10c: full Algorithm 1 wall-clock time (ε = 1)",
        &["graph", "n", "time (ms)", "used LP"],
    );
    let mut rng = StdRng::seed_from_u64(10);
    let cases = vec![
        (
            "G(1000, 0.8/n)".to_string(),
            generators::erdos_renyi(1000, 0.8 / 1000.0, &mut rng),
        ),
        (
            "G(4000, 0.8/n)".to_string(),
            generators::erdos_renyi(4000, 0.8 / 4000.0, &mut rng),
        ),
        (
            "geometric(2000)".to_string(),
            generators::random_geometric(2000, 0.015, &mut rng),
        ),
        ("grid(12x12)".to_string(), generators::grid(12, 12)),
    ];
    for (name, g) in cases {
        let est = PrivateSpanningForestEstimator::new(1.0).unwrap();
        let start = Instant::now();
        let r = est.estimate(&g, &mut rng).unwrap();
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        alg_table.add_row(vec![
            name,
            g.num_vertices().to_string(),
            format!("{elapsed:.1}"),
            r.diagnostics(DiagnosticsAccess::acknowledge_non_private())
                .used_lp
                .to_string(),
        ]);
    }
    alg_table.print();
    println!("Expected shape: LP time grows polynomially (roughly cubically) in component size;");
    println!("the fast path avoids the LP whenever a spanning Δ-forest exists.");
}
