//! `wire_serve`: warm-cache serving over loopback HTTP.
//!
//! A `NetServer` in front of a 2-worker pool serves 16 graphs: 12 small
//! ER/star/path graphs of at most 100 vertices and 4 ER graphs with
//! n = 10^5, c = 1.05. The seeded schedule sends 3 of every 4 requests to a
//! small graph; each spends ε = 0.25 from a tenant funded for the whole
//! schedule. Every graph is estimated once during set-up, so the misses
//! count toward `setup_s` and the measured requests all hit the cache.
//! Load: 2 keep-alive `NetClient`s in a closed loop.
//!
//! The solver does no work here. Small-graph requests set the median, and
//! HTTP is a large share of it; the n = 10^5 hits set the tail and the
//! throughput, because every hit still rebuilds a CSR arena, fingerprints it
//! and compares the witness under the cache mutex, and the release computes
//! an exact spanning-forest size.
//!
//! The traced run alternates untraced and traced chunks of requests. After
//! each traced chunk it reads the chunk's spans from the server's `Tracer`
//! and times its own calls to the registry, the ledger and the estimator
//! against the server's shared cache.

use crate::report::{Report, Samples, Windows};
use crate::{check_family, check_value, derive_seed, error_bound, grid_top, ms, timed_setup, Args};
use ccdp::obs::SpanKind;
use ccdp::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SMALL: usize = 12;
const LARGE: usize = 4;
const LARGE_N: usize = 100_000;
const AVG_DEGREE: f64 = 1.05;
const EPSILON: f64 = 0.25;
const TENANTS: [&str; 4] = ["tenant-a", "tenant-b", "tenant-c", "tenant-d"];
/// Funded separately, so in-process probes leave the served tenants alone.
const PROBE_TENANT: &str = "probe";
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Scheduled requests; a run stops early if it exhausts them.
const SCHEDULE_LEN: usize = 1 << 18;
/// Requests per chunk of the traced run (chunks alternate tracing off/on).
const TRACE_CHUNK: usize = 256;
/// In-process probes of each kind after every traced chunk.
const PROBES_PER_CHUNK: usize = 8;

struct FleetGraph {
    id: GraphId,
    graph: Arc<Graph>,
    components: usize,
    forest: usize,
    max_degree: usize,
    bound: f64,
    large: bool,
}

/// The seeded fleet: small graphs first, then the n = 10^5 graphs.
fn fleet(seed: u64) -> Vec<FleetGraph> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 10));
    let mut graphs: Vec<(String, Graph)> = (0..SMALL)
        .map(|i| {
            let g = match i % 3 {
                0 => {
                    let n = rng.gen_range(40..101usize);
                    let c = rng.gen_range(0.8..1.6f64);
                    generators::erdos_renyi(n, c / n as f64, &mut rng)
                }
                1 => generators::planted_star_forest(
                    rng.gen_range(2..7usize),
                    rng.gen_range(3..11usize),
                    rng.gen_range(0..11usize),
                ),
                _ => generators::path(rng.gen_range(20..101usize)),
            };
            (format!("small/{i}"), g)
        })
        .collect();
    for i in 0..LARGE {
        let mut rng = StdRng::seed_from_u64(crate::GRAPH_SEED + 1 + i as u64);
        let g = generators::erdos_renyi(LARGE_N, AVG_DEGREE / LARGE_N as f64, &mut rng);
        graphs.push((format!("large/{i}"), g));
    }
    graphs
        .into_iter()
        .enumerate()
        .map(|(i, (id, graph))| {
            let n = graph.num_vertices();
            let max_degree = graph.max_degree();
            assert!(
                max_degree <= grid_top(n),
                "fleet graph {id} has max degree {max_degree} above its grid"
            );
            FleetGraph {
                id: GraphId::new(id),
                components: graph.num_connected_components(),
                forest: graph.spanning_forest_size(),
                max_degree,
                bound: error_bound(EPSILON, n),
                large: i >= SMALL,
                graph: Arc::new(graph),
            }
        })
        .collect()
}

/// The seeded request schedule: (tenant, graph) pairs, exactly one large
/// graph in every block of four.
fn schedule(seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 11));
    let mut out = Vec::with_capacity(SCHEDULE_LEN);
    while out.len() < SCHEDULE_LEN {
        let large_slot = rng.gen_range(0..4usize);
        for slot in 0..4 {
            let graph = if slot == large_slot {
                SMALL + rng.gen_range(0..LARGE)
            } else {
                rng.gen_range(0..SMALL)
            };
            out.push((rng.gen_range(0..TENANTS.len()), graph));
        }
    }
    out
}

/// One answered request.
struct Answer {
    graph: usize,
    /// Completion time, seconds after the measurement began.
    done_s: f64,
    rtt_ms: f64,
    server_ms: f64,
    value: f64,
    trace: Option<TraceId>,
}

/// Starts the serving stack, funds every tenant for the whole schedule and
/// warms the cache with one wire request per graph.
fn start(
    fleet: &[FleetGraph],
    schedule: &[(usize, usize)],
    server_seed: u64,
) -> (NetServer, Vec<Result<(), String>>) {
    let registry = Arc::new(GraphRegistry::new());
    for g in fleet {
        registry.insert(g.id.clone(), Arc::clone(&g.graph));
    }
    let ledger = Arc::new(BudgetLedger::new());
    for (t, tenant) in TENANTS.iter().enumerate() {
        let mut requests = schedule.iter().filter(|(rt, _)| *rt == t).count();
        if t == 0 {
            requests += fleet.len();
        }
        ledger
            .register(*tenant, (requests as f64 + 1.0) * EPSILON * 1.01)
            .expect("fresh tenant");
    }
    ledger.register(PROBE_TENANT, 1e12).expect("fresh tenant");
    let server = Arc::new(Server::start(
        ServeConfig::new()
            .with_workers(WORKERS)
            .with_seed(server_seed)
            .with_delta_max(crate::DELTA_MAX),
        registry,
        ledger,
    ));
    let net = NetServer::start(NetConfig::new().with_max_connections(CLIENTS + 4), server)
        .expect("loopback listener must bind");
    let mut client = NetClient::connect(net.local_addr());
    let checks = fleet
        .iter()
        .map(
            |g| match client.estimate(TENANTS[0], g.id.as_str(), EPSILON, None) {
                Ok(r) => check_value(r.value, g.components, g.bound),
                Err(e) => Err(format!("warm-up request for {} failed: {e}", g.id)),
            },
        )
        .collect();
    (net, checks)
}

/// Runs the clients over schedule indices `[*next, end)` until `deadline`.
fn drive(
    clients: &mut [NetClient],
    fleet: &[FleetGraph],
    schedule: &[(usize, usize)],
    next: &AtomicUsize,
    end: usize,
    (origin, deadline): (Instant, Instant),
) -> Vec<Result<Answer, String>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= end {
                            break;
                        }
                        let (tenant, graph) = schedule[i];
                        let started = Instant::now();
                        let result = client.estimate(
                            TENANTS[tenant],
                            fleet[graph].id.as_str(),
                            EPSILON,
                            None,
                        );
                        let rtt_ms = ms(started.elapsed());
                        out.push(match result {
                            Ok(r) => Ok(Answer {
                                graph,
                                done_s: origin.elapsed().as_secs_f64(),
                                rtt_ms,
                                server_ms: r.latency_ms,
                                value: r.value,
                                trace: r.trace.as_deref().and_then(|t| t.parse().ok()),
                            }),
                            Err(e) => Err(format!("request for {} failed: {e}", fleet[graph].id)),
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Estimates `g` in process against the server's shared cache, checks the
/// release and the paper's facts about its family, and returns the call's
/// time minus its profiled release phases: the cost of the cache hit.
fn estimate_in_process(server: &Server, g: &FleetGraph, seed: u64) -> Result<f64, String> {
    let (version, graph) = server
        .registry()
        .resolve_latest(&g.id)
        .map_err(|e| format!("resolve of {} failed: {e}", g.id))?;
    let profiler = Arc::new(PhaseProfiler::new());
    let estimator = PrivateCcEstimator::from_config(
        EstimatorConfig::new(EPSILON)
            .with_delta_max(crate::DELTA_MAX)
            .with_shared_family_cache(Arc::clone(server.cache()))
            .with_graph_tag(g.id.as_str(), version)
            .with_profiler(Arc::clone(&profiler)),
    )
    .expect("valid estimator config");
    let started = Instant::now();
    let release = estimator
        .estimate(&graph, &mut StdRng::seed_from_u64(seed))
        .map_err(|e| format!("in-process estimate of {} failed: {e}", g.id))?;
    let call_ms = ms(started.elapsed());
    check_value(release.value(), g.components, g.bound)?;
    check_family(&release, g.forest, g.max_degree)?;
    Ok(call_ms
        - 1e3 * (profiler.seconds("release/true-value") + profiler.seconds("release/mechanisms")))
}

/// Per-layer samples of the traced run.
#[derive(Default)]
struct Layers {
    rtt_ms: Samples,
    net_ms: Samples,
    queue_ms: Samples,
    handle_ms: Samples,
    true_value_ms: Samples,
    mechanisms_ms: Samples,
    resolve_us: Samples,
    charge_us: Samples,
    hit_small_ms: Samples,
    hit_large_ms: Samples,
    missing_spans: usize,
    probe_charges: u64,
    probe_lookups: u64,
}

/// Reads the spans of one traced chunk's answers.
fn read_spans(tracer: &Tracer, answers: &[Answer], layers: &mut Layers) {
    for a in answers {
        let Some(id) = a.trace else {
            layers.missing_spans += 1;
            continue;
        };
        let (mut queue, mut handle, mut true_value, mut mechanisms) = (None, None, None, None);
        for ev in tracer.events(id) {
            let dur_ms = ev.dur_nanos as f64 / 1e6;
            match ev.kind {
                SpanKind::Dequeued => queue = Some(dur_ms),
                SpanKind::Release => handle = Some(dur_ms),
                SpanKind::Phase if ev.name == "release/true-value" => true_value = Some(dur_ms),
                SpanKind::Phase if ev.name == "release/mechanisms" => mechanisms = Some(dur_ms),
                _ => {}
            }
        }
        let (Some(queue), Some(handle), Some(true_value), Some(mechanisms)) =
            (queue, handle, true_value, mechanisms)
        else {
            layers.missing_spans += 1;
            continue;
        };
        layers.rtt_ms.push(a.rtt_ms);
        layers.net_ms.push(a.rtt_ms - a.server_ms);
        layers.queue_ms.push(queue);
        layers.handle_ms.push(handle);
        layers.true_value_ms.push(true_value);
        layers.mechanisms_ms.push(mechanisms);
    }
}

/// Times the benchmark's own calls into the registry, the ledger and the
/// estimator against the server's shared cache.
fn probe(
    server: &Server,
    fleet: &[FleetGraph],
    round: usize,
    layers: &mut Layers,
    report: &mut Report,
) {
    let probe_tenant = TenantId::new(PROBE_TENANT);
    for k in 0..PROBES_PER_CHUNK {
        let g = &fleet[(round * PROBES_PER_CHUNK + k) % fleet.len()];
        let started = Instant::now();
        let resolved = server.registry().resolve_latest(&g.id);
        layers
            .resolve_us
            .push(started.elapsed().as_secs_f64() * 1e6);
        let started = Instant::now();
        let charged = server.ledger().try_spend(&probe_tenant, "probe", EPSILON);
        layers.charge_us.push(started.elapsed().as_secs_f64() * 1e6);
        layers.probe_charges += 1;
        report.op(match (resolved, charged) {
            (Ok(_), Ok(_)) => Ok(()),
            (r, c) => Err(format!(
                "probe of {} failed: {:?} / {:?}",
                g.id,
                r.err(),
                c.err()
            )),
        });

        // The cache-hit probe alternates small and large graphs.
        let g = if k % 2 == 0 {
            &fleet[(round + k) % SMALL]
        } else {
            &fleet[SMALL + (round + k) % LARGE]
        };
        let hit = estimate_in_process(server, g, derive_seed(round as u64, k as u64));
        if let Ok(hit_ms) = hit {
            layers.probe_lookups += 1;
            if g.large {
                layers.hit_large_ms.push(hit_ms);
            } else {
                layers.hit_small_ms.push(hit_ms);
            }
        }
        report.op(hit.map(|_| ()));
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let fleet = fleet(args.seed);
    let schedule = schedule(args.seed);
    let server_seed = derive_seed(args.seed, 12);
    let ((net, warm_checks), setup_s) = timed_setup(|| start(&fleet, &schedule, server_seed));
    for check in warm_checks {
        report.op(check);
    }
    report.metric("peak_rss_mb", crate::peak_rss_mb());
    let server = Arc::clone(net.server());
    for (i, g) in fleet.iter().enumerate() {
        let checked = estimate_in_process(&server, g, derive_seed(args.seed, 13 + i as u64));
        report.op(checked.map(|_| ()));
    }
    let tracer = Arc::clone(server.tracer());
    let mut clients: Vec<NetClient> = (0..CLIENTS)
        .map(|_| NetClient::connect(net.local_addr()))
        .collect();
    let cache_before = server.cache_stats();
    let charges_before = server.ledger().charges();

    let next = AtomicUsize::new(0);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut load = Duration::ZERO;
    let mut answers: Vec<Answer> = Vec::new();
    let mut plain_rtt = Samples::default();
    let mut layers = Layers::default();
    let mut start_index = 0;
    let mut round = 0;
    let origin = Instant::now();
    while load < budget && start_index < SCHEDULE_LEN {
        let traced = report.traced() && round % 2 == 1;
        let end = if report.traced() {
            (start_index + TRACE_CHUNK).min(SCHEDULE_LEN)
        } else {
            SCHEDULE_LEN
        };
        tracer.set_enabled(traced);
        next.store(start_index, Ordering::Relaxed);
        let started = Instant::now();
        let results = drive(
            &mut clients,
            &fleet,
            &schedule,
            &next,
            end,
            (origin, started + (budget - load)),
        );
        load += started.elapsed();
        tracer.set_enabled(false);
        start_index = end.min(next.load(Ordering::Relaxed));
        let mut chunk = Vec::with_capacity(results.len());
        for r in results {
            match r {
                Ok(a) => {
                    let g = &fleet[a.graph];
                    report.op(check_value(a.value, g.components, g.bound));
                    chunk.push(a);
                }
                Err(e) => report.op(Err(e)),
            }
        }
        if traced {
            read_spans(&tracer, &chunk, &mut layers);
            probe(&server, &fleet, round, &mut layers, report);
        } else {
            for a in &chunk {
                plain_rtt.push(a.rtt_ms);
            }
        }
        answers.extend(chunk);
        round += 1;
    }
    let cache = server.cache_stats();
    let charges = server.ledger().charges() - charges_before - layers.probe_charges;
    drop(clients);
    drop(server);
    net.shutdown();

    println!("wire_serve:");
    report.note("setup_s", setup_s, "s");
    let mut rtt = Samples::default();
    let mut errors = Samples::default();
    let mut windows = Windows::default();
    for a in &answers {
        rtt.push(a.rtt_ms);
        errors.push((a.value - fleet[a.graph].components as f64).abs());
        windows.value(a.done_s, a.rtt_ms);
        windows.work(a.done_s, 1.0, 0.0);
    }
    let load_s = load.as_secs_f64();
    report.timing("latency_ms", "ms", &rtt);
    report.note("throughput_rps", answers.len() as f64 / load_s, "1/s");
    report.timing("abs_error", "components", &errors);
    let (p50, rate) = (windows.median_p50(load_s), windows.median_rate(load_s));
    report.note("latency_ms.p50 (median of window medians)", p50, "ms");
    report.note("throughput_rps (median of window rates)", rate, "1/s");
    report.note("windows", windows.count(load_s) as f64, "count");
    report.metric("setup_s", setup_s);
    report.metric("latency_ms.p50", p50);
    report.metric("throughput_per_s", rate);
    if !report.traced() {
        return;
    }

    let lookups = (cache.hits + cache.misses + cache.coalesced)
        - (cache_before.hits + cache_before.misses + cache_before.coalesced);
    let hits = cache.hits - cache_before.hits;
    report.metric(
        "cache.hit_rate",
        hits.saturating_sub(layers.probe_lookups) as f64
            / lookups.saturating_sub(layers.probe_lookups).max(1) as f64,
    );
    report.metric(
        "cache.invalidations",
        (cache.invalidations - cache_before.invalidations) as f64,
    );
    report.metric("ledger.charges", charges as f64);
    report.metric(
        "net.overhead_ms.p50",
        report.timing("net.overhead_ms", "ms", &layers.net_ms),
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
        "registry.resolve_us.p50",
        report.timing("registry.resolve_us", "us", &layers.resolve_us),
    );
    report.metric(
        "ledger.charge_us.p50",
        report.timing("ledger.charge_us", "us", &layers.charge_us),
    );
    report.metric(
        "cache.hit_ms.small.p50",
        report.timing("cache.hit_ms.small", "ms", &layers.hit_small_ms),
    );
    report.metric(
        "cache.hit_ms.large.p50",
        report.timing("cache.hit_ms.large", "ms", &layers.hit_large_ms),
    );
    report.metric(
        "graph.true_value_ms.p50",
        report.timing("graph.true_value_ms", "ms", &layers.true_value_ms),
    );
    report.metric(
        "dp.mechanisms_us.p50",
        1e3 * report.timing("dp.mechanisms_ms", "ms", &layers.mechanisms_ms),
    );
    report.metric(
        "obs.trace_overhead_frac",
        layers.rtt_ms.p50() / plain_rtt.p50() - 1.0,
    );
    report.note(
        "traced requests without spans",
        layers.missing_spans as f64,
        "count",
    );
    let handle_self =
        layers.handle_ms.sum() - layers.true_value_ms.sum() - layers.mechanisms_ms.sum();
    report.reconcile(
        layers.rtt_ms.sum() / 1e3,
        &[
            ("net", layers.net_ms.sum() / 1e3),
            ("serve/queue", layers.queue_ms.sum() / 1e3),
            ("serve/handle (self)", handle_self / 1e3),
            ("graph/true-value", layers.true_value_ms.sum() / 1e3),
            ("dp/mechanisms", layers.mechanisms_ms.sum() / 1e3),
        ],
    );
}
