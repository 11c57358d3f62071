//! `stream_release`: the write path from a stream mutation to its release.
//!
//! One `GraphStream` over a fixed ER base graph with n = 10^5, c = 1.05 is
//! fed a seeded script in batches of 8: 4 deletes of random present edges
//! and 4 re-inserts of absent ones (see [`script`]), so the edge count holds
//! steady and the graph, and with it the cost of a release, is stationary.
//! `ReleaseScheduler::with_server` fires every 64 mutations through a
//! 2-worker pool and retains 4 versions. One thread feeds the stream.
//!
//! Each release clones the snapshot and builds its CSR arena, publishes to
//! the registry and expires old versions, invalidates the superseded cache
//! entries, misses the cache and runs a fresh family solve. `publish_ms`
//! runs from the start of the triggering batch to the release record, so a
//! change that moves work out of cache hits and into publishing shows here
//! as a loss.
//!
//! The traced run traces every other release. Before a traced release fires
//! it times a snapshot of a clone of the stream and a registry publish of
//! that snapshot under a probe id, outside the measured window.

use crate::report::{Report, Samples, Windows};
use crate::{check_family, check_value, derive_seed, error_bound, grid_top, ms, timed_setup, Args};
use ccdp::obs::SpanKind;
use ccdp::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 100_000;
const AVG_DEGREE: f64 = 1.05;
const EPSILON: f64 = 0.5;
const EVERY: u64 = 64;
const BATCH: usize = 8;
const RETAIN: usize = 4;
/// Base-graph edges absent at every batch boundary (see [`script`]).
const LAG: usize = 32;
const WORKERS: usize = 2;
/// Scripted mutations; a run stops early if it exhausts them.
const SCRIPT_LEN: usize = 1 << 16;
const STREAM_ID: &str = "stream/er";
const PROBE_ID: &str = "probe/stream";
const TENANT: &str = "stream-owner";

/// Profiler phases a release's spans carry, beside the cache miss.
const PHASES: [&str; 5] = [
    "family/partition",
    "family/anchor",
    "family/lp",
    "release/true-value",
    "release/mechanisms",
];

/// The seeded mutation script: batches of 4 deletes of uniformly random
/// present edges and 4 re-inserts of the edges deleted [`LAG`] mutations
/// earlier, in a seeded order. Every batch boundary therefore sees the base
/// graph minus the [`LAG`] most recently deleted edges, so the graph (and the
/// cost of a release) is stationary instead of drifting. O(1) expected work
/// per mutation: present edges sit in a vector with an index map, so a
/// uniform delete is a swap-remove. Returns the stream's starting graph (the
/// base minus the first [`LAG`] deletions) and the script.
fn script(base: &Graph, seed: u64) -> (Graph, Vec<Mutation>) {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 31));
    let mut present: Vec<(usize, usize)> = base.edges().collect();
    let mut index: HashMap<(usize, usize), usize> =
        present.iter().enumerate().map(|(i, &e)| (e, i)).collect();
    let mut deleted: VecDeque<(usize, usize)> = (0..LAG)
        .map(|_| delete_random(&mut present, &mut index, &mut rng))
        .collect();
    let mut start = base.clone();
    for &(u, v) in &deleted {
        start.remove_edge(u, v);
    }
    let mut out = Vec::with_capacity(SCRIPT_LEN);
    while out.len() < SCRIPT_LEN {
        let mut ops = [true, true, true, true, false, false, false, false];
        for i in (1..ops.len()).rev() {
            ops.swap(i, rng.gen_range(0..=i));
        }
        for insert in ops {
            let t = out.len() as u64 + 1;
            if insert {
                let e = deleted.pop_front().expect("LAG exceeds a batch's deletes");
                index.insert(e, present.len());
                present.push(e);
                out.push(Mutation::insert(t, e.0, e.1));
            } else {
                let e = delete_random(&mut present, &mut index, &mut rng);
                deleted.push_back(e);
                out.push(Mutation::delete(t, e.0, e.1));
            }
        }
    }
    (start, out)
}

/// Removes a uniformly random present edge in O(1) by swap-remove.
fn delete_random(
    present: &mut Vec<(usize, usize)>,
    index: &mut HashMap<(usize, usize), usize>,
    rng: &mut StdRng,
) -> (usize, usize) {
    let i = rng.gen_range(0..present.len());
    let e = present.swap_remove(i);
    index.remove(&e);
    if let Some(&moved) = present.get(i) {
        index.insert(moved, i);
    }
    e
}

struct Stack {
    server: Arc<Server>,
    scheduler: ReleaseScheduler,
    stream: GraphStream,
    script: Vec<Mutation>,
    baseline: Result<(), String>,
}

/// Generates the inputs, starts the pool and fires the baseline release.
fn start(seed: u64) -> Stack {
    let mut rng = StdRng::seed_from_u64(crate::GRAPH_SEED);
    let base = generators::erdos_renyi(N, AVG_DEGREE / N as f64, &mut rng);
    let (initial, script) = script(&base, seed);
    let ledger = Arc::new(BudgetLedger::new());
    let releases = SCRIPT_LEN as f64 / EVERY as f64 + 2.0;
    ledger
        .register(TENANT, releases * EPSILON * 1.01)
        .expect("fresh tenant");
    let server = Arc::new(Server::start(
        ServeConfig::new()
            .with_workers(WORKERS)
            .with_seed(derive_seed(seed, 32))
            .with_delta_max(crate::DELTA_MAX),
        Arc::new(GraphRegistry::new()),
        ledger,
    ));
    let scheduler = ReleaseScheduler::with_server(
        SchedulerConfig::new(ReleasePolicy::EveryKMutations(EVERY))
            .with_epsilon(EPSILON)
            .with_retain_versions(RETAIN),
        Arc::clone(&server),
    );
    let mut stream = GraphStream::from_graph(STREAM_ID, initial);
    let baseline = match scheduler.observe(&mut stream, &TenantId::new(TENANT)) {
        Ok(Some(r)) => check_value(r.value, r.true_components, error_bound(EPSILON, N)),
        Ok(None) => Err("the first observation fired no baseline release".into()),
        Err(e) => Err(format!("baseline release failed: {e}")),
    };
    Stack {
        server,
        scheduler,
        stream,
        script,
        baseline,
    }
}

/// In-process check of the paper's facts on the stream's current graph.
fn check_current(stream: &GraphStream) -> Result<(), String> {
    let g = stream.graph();
    if g.max_degree() > grid_top(g.num_vertices()) {
        return Err(format!("max degree {} above the grid", g.max_degree()));
    }
    let estimator = PrivateCcEstimator::from_config(
        EstimatorConfig::new(EPSILON)
            .with_delta_max(crate::DELTA_MAX)
            .with_family_caching(false),
    )
    .expect("valid estimator config");
    let release = estimator
        .estimate(g, &mut StdRng::seed_from_u64(0))
        .map_err(|e| format!("in-process estimate failed: {e}"))?;
    check_value(
        release.value(),
        g.num_connected_components(),
        error_bound(EPSILON, N),
    )?;
    check_family(&release, g.spanning_forest_size(), g.max_degree())
}

/// Per-layer samples of the traced releases.
#[derive(Default)]
struct Layers {
    publish_ms: Samples,
    apply_ms: Samples,
    snapshot_ms: Samples,
    registry_ms: Samples,
    queue_ms: Samples,
    handle_ms: Samples,
    miss_ms: Samples,
    phase_ms: [Samples; PHASES.len()],
    missing_spans: usize,
}

/// Reads the spans of the release traces that finished since `seen`.
fn read_spans(tracer: &Tracer, seen: &mut HashSet<TraceId>, layers: &mut Layers) -> bool {
    let fresh: Vec<TraceId> = tracer
        .slowest(usize::MAX)
        .into_iter()
        .map(|t| t.id)
        .filter(|id| seen.insert(*id))
        .collect();
    let [id] = fresh[..] else {
        layers.missing_spans += 1;
        return false;
    };
    let (mut queue, mut handle, mut miss) = (None, None, None);
    let mut phases = [0.0; PHASES.len()];
    for ev in tracer.events(id) {
        let dur_ms = ev.dur_nanos as f64 / 1e6;
        match ev.kind {
            SpanKind::Dequeued => queue = Some(dur_ms),
            SpanKind::Release => handle = Some(dur_ms),
            SpanKind::CacheMiss => miss = Some(dur_ms),
            SpanKind::Phase => {
                if let Some(i) = PHASES.iter().position(|p| *p == ev.name) {
                    phases[i] += dur_ms;
                }
            }
            _ => {}
        }
    }
    let (Some(queue), Some(handle), Some(miss)) = (queue, handle, miss) else {
        layers.missing_spans += 1;
        return false;
    };
    layers.queue_ms.push(queue);
    layers.handle_ms.push(handle);
    layers.miss_ms.push(miss);
    for (slot, v) in layers.phase_ms.iter_mut().zip(phases) {
        slot.push(v);
    }
    true
}

pub fn run(args: &Args, report: &mut Report) {
    let (stack, setup_s) = timed_setup(|| start(args.seed));
    let Stack {
        server,
        scheduler,
        mut stream,
        script,
        baseline,
    } = stack;
    report.op(baseline);
    report.op(check_current(&stream));
    report.metric("peak_rss_mb", crate::peak_rss_mb());
    let tenant = TenantId::new(TENANT);
    let tracer = Arc::clone(server.tracer());
    let probe_id = GraphId::new(PROBE_ID);
    let bound = error_bound(EPSILON, N);
    let cache_before = server.cache_stats();
    let charges_before = server.ledger().charges();
    let rebuilds_before = stream.stats().rebuilds;

    let mut plain = Samples::default();
    let mut layers = Layers::default();
    let mut seen = HashSet::new();
    let mut errors = Samples::default();
    let mut busy = Duration::ZERO;
    let mut apply_total = Duration::ZERO;
    let mut mutations = 0usize;
    let mut releases = 0u64;
    let mut next_version = stream.next_version();
    let batches_per_release = EVERY as usize / BATCH;
    let mut windows = Windows::default();
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(args.seconds);
    for (b, batch) in script.chunks_exact(BATCH).enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let fires = (b + 1) % batches_per_release == 0;
        let traced = report.traced() && fires && releases % 2 == 1;
        let started = Instant::now();
        let applied = stream.apply_batch(batch);
        let apply = started.elapsed();
        apply_total += apply;
        mutations += BATCH;
        if let Err(e) = applied {
            report.op(Err(format!("mutation batch {b} failed: {e}")));
            continue;
        }
        if traced {
            // Probes of the snapshot and publish the scheduler is about to
            // run, on a clone, outside the measured window.
            let mut probe = stream.clone();
            let t = Instant::now();
            let snapshot = probe.snapshot();
            layers.snapshot_ms.push(ms(t.elapsed()));
            let t = Instant::now();
            let published = server.registry().insert_version(
                probe_id.clone(),
                snapshot.version(),
                Arc::clone(snapshot.graph()),
            );
            server.registry().retain_latest(&probe_id, RETAIN);
            layers.registry_ms.push(ms(t.elapsed()));
            if let Err(e) = published {
                report.op(Err(format!("probe publish failed: {e}")));
            }
        }
        tracer.set_enabled(traced);
        let started = Instant::now();
        let observed = scheduler.observe(&mut stream, &tenant);
        let observe = started.elapsed();
        tracer.set_enabled(false);
        busy += apply + observe;
        let done_s = origin.elapsed().as_secs_f64();
        windows.work(done_s, BATCH as f64, (apply + observe).as_secs_f64());
        let record = match observed {
            Ok(Some(record)) => record,
            Ok(None) if !fires => continue,
            Ok(None) => {
                report.op(Err(format!(
                    "batch {b} completed 64 mutations but fired no release"
                )));
                continue;
            }
            Err(e) => {
                report.op(Err(format!("release after batch {b} failed: {e}")));
                continue;
            }
        };
        releases += 1;
        let publish_ms = ms(apply + observe);
        errors.push((record.value - record.true_components as f64).abs());
        let truth = stream.graph().num_connected_components();
        report.op(if !fires {
            Err(format!("batch {b} fired an unscheduled release"))
        } else if record.version != next_version {
            Err(format!(
                "released version {} but expected {}",
                record.version, next_version
            ))
        } else if record.true_components != truth {
            Err(format!(
                "record says {} components, recount says {truth}",
                record.true_components
            ))
        } else {
            check_value(record.value, truth, bound)
        });
        next_version = record.version.next();
        if traced {
            if read_spans(&tracer, &mut seen, &mut layers) {
                layers.publish_ms.push(publish_ms);
                layers.apply_ms.push(ms(apply));
            }
        } else {
            plain.push(publish_ms);
            windows.value(done_s, publish_ms);
        }
    }
    let total_s = origin.elapsed().as_secs_f64();
    report.op(check_current(&stream));
    let cache = server.cache_stats();

    println!("stream_release:");
    report.note("setup_s", setup_s, "s");
    report.timing("publish_ms", "ms", &plain);
    report.note(
        "mutations_per_s",
        mutations as f64 / busy.as_secs_f64(),
        "1/s",
    );
    report.note("releases", releases as f64, "count");
    report.timing("abs_error", "components", &errors);
    let (p50, rate) = (windows.median_p50(total_s), windows.median_rate(total_s));
    report.note("publish_ms.p50 (median of window medians)", p50, "ms");
    report.note("mutations_per_s (median of window rates)", rate, "1/s");
    report.note("windows", windows.count(total_s) as f64, "count");
    report.metric("setup_s", setup_s);
    report.metric("latency_ms.p50", p50);
    report.metric("throughput_per_s", rate);
    if !report.traced() {
        return;
    }

    let lookups = (cache.hits + cache.misses + cache.coalesced)
        - (cache_before.hits + cache_before.misses + cache_before.coalesced);
    report.metric(
        "cache.hit_rate",
        (cache.hits - cache_before.hits) as f64 / lookups.max(1) as f64,
    );
    report.metric(
        "cache.invalidations",
        (cache.invalidations - cache_before.invalidations) as f64,
    );
    report.metric(
        "ledger.charges",
        (server.ledger().charges() - charges_before) as f64,
    );
    report.metric(
        "stream.apply_us",
        1e6 * apply_total.as_secs_f64() / mutations.max(1) as f64,
    );
    report.metric(
        "stream.rebuilds",
        (stream.stats().rebuilds - rebuilds_before) as f64 / releases.max(1) as f64,
    );
    report.metric(
        "stream.snapshot_ms.p50",
        report.timing("stream.snapshot_ms", "ms", &layers.snapshot_ms),
    );
    report.metric(
        "registry.publish_ms.p50",
        report.timing("registry.publish_ms", "ms", &layers.registry_ms),
    );
    report.metric(
        "serve.queue_wait_ms.p50",
        report.timing("serve.queue_wait_ms", "ms", &layers.queue_ms),
    );
    report.metric(
        "serve.queue_wait_ms.p99",
        layers.queue_ms.tail(0.99).unwrap_or(0.0),
    );
    report.metric(
        "serve.handle_ms.p50",
        report.timing("serve.handle_ms", "ms", &layers.handle_ms),
    );
    report.metric(
        "family.miss_ms.p50",
        report.timing("family.miss_ms", "ms", &layers.miss_ms),
    );
    report.metric("family.partition_s", layers.phase_ms[0].mean() / 1e3);
    report.metric("family.anchor_s", layers.phase_ms[1].mean() / 1e3);
    report.metric("family.lp_s", layers.phase_ms[2].mean() / 1e3);
    report.metric("graph.true_value_ms.p50", layers.phase_ms[3].p50());
    report.metric("dp.mechanisms_us.p50", 1e3 * layers.phase_ms[4].p50());
    report.metric(
        "obs.trace_overhead_frac",
        layers.publish_ms.p50() / plain.p50() - 1.0,
    );
    report.note(
        "traced releases without spans",
        layers.missing_spans as f64,
        "count",
    );
    let family_ms: f64 = layers.phase_ms[..3].iter().map(Samples::sum).sum();
    let release_ms = layers.phase_ms[3].sum() + layers.phase_ms[4].sum();
    let s = |v: f64| v / 1e3;
    report.reconcile(
        s(layers.publish_ms.sum()),
        &[
            ("stream/apply", s(layers.apply_ms.sum())),
            ("stream/snapshot", s(layers.snapshot_ms.sum())),
            ("registry/publish", s(layers.registry_ms.sum())),
            ("serve/queue", s(layers.queue_ms.sum())),
            (
                "serve/handle (self)",
                s(layers.handle_ms.sum() - layers.miss_ms.sum() - release_ms),
            ),
            ("cache/miss (self)", s(layers.miss_ms.sum() - family_ms)),
            ("family/partition", s(layers.phase_ms[0].sum())),
            ("family/anchor", s(layers.phase_ms[1].sum())),
            ("family/lp", s(layers.phase_ms[2].sum())),
            ("graph/true-value", s(layers.phase_ms[3].sum())),
            ("dp/mechanisms", s(layers.phase_ms[4].sum())),
        ],
    );
}
