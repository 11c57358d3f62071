//! `cold_release`: one full private release at n = 10^6, repeatedly.
//!
//! Set-up streams barely-supercritical Erdős–Rényi (p = 1.05/n) into the CSR
//! arena with `CsrGraph::from_edge_stream`. Each operation is one
//! `PrivateCcEstimator::estimate_csr` release — no family cache, ε = 1,
//! Δmax = 64, the default thread budget, one caller thread and a fresh
//! replay seed per release. `family/lp` dominates, so this is where changes
//! to `lp`, `graph`, `exec` and `core::extension` show; `net`, `serve` and
//! the cache do no work here.
//!
//! The traced run alternates plain and profiled releases, so the profiler's
//! cost is measured against interleaved plain releases.

use crate::report::{Report, Samples};
use crate::{check_family, check_value, derive_seed, error_bound, grid_top, timed_setup, Args};
use ccdp::prelude::*;
use std::time::{Duration, Instant};

const N: usize = 1_000_000;
const AVG_DEGREE: f64 = 1.05;
const EPSILON: f64 = 1.0;

/// Profiler phases, in pipeline order; together they cover the release.
const PHASES: [&str; 5] = [
    "family/partition",
    "family/anchor",
    "family/lp",
    "release/true-value",
    "release/mechanisms",
];

pub fn run(args: &Args, report: &mut Report) {
    let p = AVG_DEGREE / N as f64;
    let mut build_s = Samples::default();
    let ((arena, components, forest, max_degree), setup_s) = timed_setup(|| {
        let started = Instant::now();
        let arena = CsrGraph::from_edge_stream(N, || {
            generators::erdos_renyi_edges(N, p, StdRng::seed_from_u64(crate::GRAPH_SEED))
        });
        build_s.push(started.elapsed().as_secs_f64());
        let components = arena.num_components();
        let forest = arena.spanning_forest_size();
        let max_degree = arena.max_degree();
        (arena, components, forest, max_degree)
    });
    println!(
        "graph: n = {N}, m = {}, components = {components}, max degree = {max_degree}",
        arena.num_edges()
    );
    report.op(if components + forest != N {
        Err(format!("components {components} + forest {forest} != n"))
    } else if max_degree > grid_top(N) {
        Err(format!(
            "max degree {max_degree} above the grid: the error bound does not apply"
        ))
    } else {
        Ok(())
    });

    let estimator = PrivateCcEstimator::from_config(
        EstimatorConfig::new(EPSILON)
            .with_delta_max(crate::DELTA_MAX)
            .with_family_caching(false),
    )
    .expect("valid estimator config");
    let bound = error_bound(EPSILON, N);
    let noise_seed = derive_seed(args.seed, 2);

    // One unmeasured release first: it spawns the worker pool and faults in
    // the solver's memory, and the peak resident set is read after it, so
    // the metric holds set-up plus one release and not the allocator's drift
    // over a run of variable length.
    let warm = estimator.estimate_csr(&arena, &mut StdRng::seed_from_u64(noise_seed));
    report.op(match warm {
        Ok(release) => check_value(release.value(), components, bound)
            .and_then(|()| check_family(&release, forest, max_degree)),
        Err(e) => Err(format!("warm-up release failed: {e}")),
    });
    report.metric("peak_rss_mb", crate::peak_rss_mb());

    let mut plain = Samples::default();
    let mut profiled = Samples::default();
    let mut phase_s: Vec<Samples> = vec![Samples::default(); PHASES.len()];
    let mut counts: Vec<(String, u64)> = Vec::new();
    let mut errors = Samples::default();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    // The traced run alternates plain and profiled releases, so it needs
    // at least one of each.
    let min_releases = if report.traced() { 2 } else { 1 };
    let mut i = 0u64;
    while i < min_releases || Instant::now() < deadline {
        let traced = report.traced() && i % 2 == 1;
        let profiler = PhaseProfiler::new();
        let mut rng = StdRng::seed_from_u64(derive_seed(noise_seed, i + 1));
        let t = Instant::now();
        let result = if traced {
            estimator.estimate_csr_profiled(&arena, &mut rng, &profiler)
        } else {
            estimator.estimate_csr(&arena, &mut rng)
        };
        let elapsed = t.elapsed().as_secs_f64();
        i += 1;
        match result {
            Ok(release) => {
                errors.push((release.value() - components as f64).abs());
                report.op(check_value(release.value(), components, bound)
                    .and_then(|()| check_family(&release, forest, max_degree)));
            }
            Err(e) => report.op(Err(format!("release failed: {e}"))),
        }
        if traced {
            profiled.push(elapsed);
            for (slot, name) in phase_s.iter_mut().zip(PHASES) {
                slot.push(profiler.seconds(name));
            }
            counts = profiler
                .report()
                .into_iter()
                .filter(|r| r.invocations == 0)
                .map(|r| (r.name, r.count))
                .collect();
        } else {
            plain.push(elapsed);
        }
    }

    println!("cold_release:");
    report.note("setup_s", setup_s, "s");
    let release_s = report.timing("release_s", "s", &plain);
    report.timing("abs_error", "components", &errors);
    report.note("error_bound (beta = 1e-9)", bound, "components");
    let throughput = (plain.len() + profiled.len()) as f64 / (plain.sum() + profiled.sum());
    report.note("releases_per_s", throughput, "1/s");
    report.metric("setup_s", setup_s);
    report.metric("latency_ms.p50", release_s * 1e3);
    report.metric("throughput_per_s", throughput);
    if !report.traced() {
        return;
    }

    let per_release =
        |name: &str| phase_s[PHASES.iter().position(|p| *p == name).expect("phase")].mean();
    report.metric("family.partition_s", per_release("family/partition"));
    report.metric("family.anchor_s", per_release("family/anchor"));
    report.metric("family.lp_s", per_release("family/lp"));
    report.metric("graph.true_value_ms.p50", 1e3 * phase_s[3].p50());
    report.metric("dp.mechanisms_us.p50", 1e6 * phase_s[4].p50());
    report.metric("graph.csr_build_s", build_s.p50());
    let count = |name: &str| {
        counts
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, c)| c as f64)
    };
    report.metric("solve.components", count("solve/components"));
    report.metric("solve.micro_closed_form", count("solve/micro-closed-form"));
    report.metric("solve.dedup_hits", count("solve/dedup-hits"));
    report.metric("solve.general_fallback", count("solve/general-fallback"));
    report.metric(
        "solve.dedup_hit_rate",
        count("solve/dedup-hits") / count("solve/components").max(1.0),
    );
    report.metric(
        "obs.trace_overhead_frac",
        profiled.p50() / plain.p50() - 1.0,
    );
    let layers: Vec<(&str, f64)> = PHASES
        .iter()
        .zip(&phase_s)
        .map(|(name, s)| (*name, s.sum()))
        .collect();
    report.reconcile(profiled.sum(), &layers);
}
