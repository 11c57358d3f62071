//! End-to-end scale smoke: one full private release of the number of
//! connected components on a barely-supercritical Erdős–Rényi graph,
//! default n = 10^5, streaming-built straight into the CSR arena.
//!
//! Asserts the acceptance invariants the CI `scale-smoke` job relies on:
//!
//! * the release completes at this scale — the arena is built by
//!   [`CsrGraph::from_edge_stream`] in two counting passes, so no
//!   adjacency-list `Graph` is ever materialized and n = 10^7 fits,
//! * the sequential and 8-thread releases are **bit-for-bit identical** on
//!   the same seed (`with_threads` is a pure scheduling knob),
//! * at moderate n the CSR release matches the adjacency-list `Graph`
//!   release bit-for-bit (same RNG stream, same mechanisms),
//! * the released value is in the right ballpark of the true component
//!   count (a loose, noise-tolerant sanity band — not an accuracy claim).
//!
//! With `--json PATH`, writes the measurements (including the per-phase
//! wall-clock breakdown from [`PhaseProfiler`], published through the
//! unified [`MetricsRegistry`](ccdp::MetricsRegistry) as the same
//! `ccdp_exec_phase_*` series the serving tier scrapes, plus the solve counts
//! from the profiler report) archived as `BENCH_scale.json`. With
//! `--baseline PATH`, loads a committed phase baseline and fails if any phase regressed more than 3×
//! against it — the CI regression gate.
//!
//! ```text
//! cargo run --release --example scale_smoke
//! cargo run --release --example scale_smoke -- --n 1000000 --json BENCH_scale.json
//! cargo run --release --example scale_smoke -- --n 1000000 --baseline BENCH_scale_baseline.json
//! cargo run --release --example scale_smoke -- --n 10000000
//! ```

use ccdp::prelude::*;
use ccdp::{CsrGraph, PhaseProfiler, PhaseReport};
use std::time::Instant;

const SEED_GRAPH: u64 = 20_230_605;
const SEED_NOISE: u64 = 1_729;
const AVG_DEGREE: f64 = 1.05;

/// Above this size the `Graph`-path cross-check is skipped: it would build
/// the adjacency list the streaming path exists to avoid.
const GRAPH_CROSSCHECK_MAX_N: usize = 300_000;

/// Allowed slowdown per phase against the committed baseline before the
/// regression gate trips.
const PHASE_REGRESSION_FACTOR: f64 = 3.0;
/// Phases faster than this in the baseline are too noisy to gate on. At
/// 10 ms the per-component anchor search (~17 ms at n = 10^6) is gated too,
/// so a return to the whole-arena search (~170 ms) trips the gate.
const PHASE_GATE_FLOOR_S: f64 = 0.01;

/// Each release runs on a fresh estimator, so the family cache could never
/// hit; it is disabled so a miss does not clone the arena as its witness.
fn config(threads: usize) -> EstimatorConfig {
    EstimatorConfig::new(1.0)
        .with_threads(threads)
        .with_delta_max(64)
        .with_family_caching(false)
}

fn release_csr(arena: &CsrGraph, threads: usize, profiler: Option<&PhaseProfiler>) -> (f64, f64) {
    let est = PrivateCcEstimator::from_config(config(threads)).expect("valid config");
    let mut rng = StdRng::seed_from_u64(SEED_NOISE);
    let start = Instant::now();
    let release = match profiler {
        Some(p) => est.estimate_csr_profiled(arena, &mut rng, p),
        None => est.estimate_csr(arena, &mut rng),
    }
    .expect("estimate completes");
    (release.value(), start.elapsed().as_secs_f64())
}

/// Pulls `"name":seconds` pairs out of the committed baseline JSON. The file
/// is written by this very example (flat, no nesting inside `"phases"`), so
/// a scanning parser is enough — no JSON dependency needed.
fn baseline_phases(raw: &str) -> Vec<(String, f64)> {
    let Some(start) = raw.find("\"phases\":{") else {
        return Vec::new();
    };
    let rest = &raw[start + "\"phases\":{".len()..];
    let Some(end) = rest.find('}') else {
        return Vec::new();
    };
    rest[..end]
        .split(',')
        .filter_map(|pair| {
            let (name, secs) = pair.split_once(':')?;
            Some((
                name.trim().trim_matches('"').to_string(),
                secs.trim().parse().ok()?,
            ))
        })
        .collect()
}

/// Renders a registry snapshot's `ccdp_exec_phase_*` series (timed phases
/// sorted by wall-clock spent), then the count-only profiler slots, which the
/// registry never receives.
fn print_phase_table(snapshot: &MetricsSnapshot, phases: &[PhaseReport]) {
    use ccdp::obs::{SeriesSnapshot, SeriesValue};
    let phase_label = |s: &SeriesSnapshot| -> Option<String> {
        s.labels
            .iter()
            .find(|(k, _)| k == "phase")
            .map(|(_, v)| v.clone())
    };
    let mut timed: Vec<(String, f64, u64)> = Vec::new();
    for s in &snapshot.series {
        let SeriesValue::Float(seconds) = &s.value else {
            continue;
        };
        if s.name != "ccdp_exec_phase_seconds_total" {
            continue;
        }
        let Some(phase) = phase_label(s) else {
            continue;
        };
        let calls = snapshot
            .series
            .iter()
            .find(|o| o.name == "ccdp_exec_phase_invocations_total" && o.labels == s.labels)
            .map(|o| match o.value {
                SeriesValue::Counter(v) => v,
                _ => 0,
            })
            .unwrap_or(0);
        timed.push((phase, *seconds, calls));
    }
    timed.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (phase, seconds, calls) in &timed {
        println!("  phase {phase:<24} {seconds:>9.3}s ({calls} calls)");
    }
    for p in phases.iter().filter(|p| p.invocations == 0) {
        println!("  count {:<24} {:>12}", p.name, p.count);
    }
}

fn main() {
    let mut n: usize = 100_000;
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--n" => {
                i += 1;
                n = args[i].parse().expect("--n takes an integer");
            }
            "--json" => {
                i += 1;
                json_path = Some(args[i].clone());
            }
            "--baseline" => {
                i += 1;
                baseline_path = Some(args[i].clone());
            }
            other => panic!("unknown flag `{other}` (use --n N, --json PATH, --baseline PATH)"),
        }
        i += 1;
    }

    // Barely supercritical: c = 1.05 keeps the giant component small enough
    // that its 2-core stays within the LP engines' reach, while still
    // exercising every path (giant piece, unicyclic pieces, tree fast paths).
    // The stream is re-playable from the seed, which is exactly what the
    // two-pass CSR build needs.
    let p = AVG_DEGREE / n as f64;
    let build_start = Instant::now();
    let arena = CsrGraph::from_edge_stream(n, || {
        generators::erdos_renyi_edges(n, p, StdRng::seed_from_u64(SEED_GRAPH))
    });
    let build_s = build_start.elapsed().as_secs_f64();
    let m = arena.num_edges();
    let truth = arena.num_components();
    println!("graph: n={n} m={m} components={truth} (streamed into CSR in {build_s:.2}s)");

    // The per-phase breakdown is attributed on the sequential run.
    let profiler = PhaseProfiler::new();
    let (v1, t1) = release_csr(&arena, 1, Some(&profiler));
    println!("threads=1: value={v1:.3} in {t1:.2}s");
    let (v8, t8) = release_csr(&arena, 8, None);
    println!("threads=8: value={v8:.3} in {t8:.2}s");
    assert_eq!(
        v1.to_bits(),
        v8.to_bits(),
        "sequential and 8-thread releases must be bit-for-bit identical"
    );

    // The breakdown flows through the same registry the serving tier
    // scrapes as `ccdp_exec_phase_*`: publish once, print from the snapshot.
    let phases = profiler.report();
    let registry = MetricsRegistry::new();
    profiler.publish(&registry);
    print_phase_table(&registry.snapshot(), &phases);

    // At moderate n, pin the CSR entry point against the historical
    // adjacency-list path: same RNG stream, same released bits.
    if n <= GRAPH_CROSSCHECK_MAX_N {
        let g = generators::erdos_renyi(n, p, &mut StdRng::seed_from_u64(SEED_GRAPH));
        assert!(arena.matches_graph(&g), "stream and Graph builds diverged");
        let est = PrivateCcEstimator::from_config(config(1)).expect("valid config");
        let gv = est
            .estimate(&g, &mut StdRng::seed_from_u64(SEED_NOISE))
            .expect("estimate completes")
            .value();
        assert_eq!(
            v1.to_bits(),
            gv.to_bits(),
            "CSR release must match the Graph release bit-for-bit"
        );
        println!("graph-path cross-check: bit-identical");
    }

    // Loose sanity band: ε = 1 noise at Δ̂ ≤ 64 is far below 20% of the
    // component count at this scale.
    let err = (v1 - truth as f64).abs();
    assert!(
        err < truth as f64 * 0.2,
        "released {v1:.1} strays too far from truth {truth}"
    );

    let speedup = t1 / t8.max(1e-9);
    println!("speedup (t1/t8): {speedup:.2}x");

    // The CI regression gate: no phase may run 3× slower than the committed
    // baseline (tiny phases are below measurement noise and skipped).
    if let Some(path) = baseline_path {
        let raw = std::fs::read_to_string(&path).expect("read baseline");
        let mut gated = 0;
        for (name, base_s) in baseline_phases(&raw) {
            if base_s < PHASE_GATE_FLOOR_S {
                continue;
            }
            let now_s = profiler.seconds(&name);
            assert!(
                now_s <= base_s * PHASE_REGRESSION_FACTOR,
                "phase `{name}` regressed: {now_s:.3}s vs baseline {base_s:.3}s (>{PHASE_REGRESSION_FACTOR}x)"
            );
            gated += 1;
        }
        println!("baseline check: {gated} phase(s) within {PHASE_REGRESSION_FACTOR}x of {path}");
    }

    if let Some(path) = json_path {
        let phase_json: Vec<String> = phases
            .iter()
            .filter(|p| p.invocations > 0)
            .map(|p| format!("\"{}\":{:.3}", p.name, p.seconds))
            .collect();
        let count_json: Vec<String> = phases
            .iter()
            .filter(|p| p.invocations == 0)
            .map(|p| format!("\"{}\":{}", p.name, p.count))
            .collect();
        let json = format!(
            "{{\"n\":{n},\"m\":{m},\"components\":{truth},\"build_s\":{build_s:.3},\
\"t1_s\":{t1:.3},\"t8_s\":{t8:.3},\"speedup\":{speedup:.3},\
\"value_t1\":{v1:.6},\"value_t8\":{v8:.6},\"identical\":true,\
\"phases\":{{{}}},\"counts\":{{{}}}}}",
            phase_json.join(","),
            count_json.join(",")
        );
        std::fs::write(&path, format!("{json}\n")).expect("write json");
        println!("wrote {path}");
    }
    println!("scale smoke OK");
}
