//! Deterministic load generation for the serving tier.
//!
//! A [`LoadSpec`] fully describes a serving workload — the graph fleet, the
//! tenant mix with ε quotas, the client count and the request schedule — and
//! [`LoadSpec::run`] executes it against a freshly started [`Server`]:
//! closed-loop clients on OS threads, each submitting its share of the
//! schedule and waiting for every response (retrying with a short backoff on
//! [`QueueFull`](crate::ServeError::QueueFull) backpressure). Everything is
//! seeded, so a spec is a reproducible benchmark: same graphs, same tenant
//! assignment, same request order per client.
//!
//! The summary [`LoadReport`] carries the acceptance metrics the CI smoke
//! job tracks (throughput, p50/p99 latency, cache hit rate, refusal counts)
//! and serializes itself to JSON without external dependencies.

use crate::ledger::BudgetLedger;
use crate::registry::{GraphId, GraphRegistry};
use crate::server::{ServeConfig, ServeRequest, Server};
use crate::stats::StatsSnapshot;
use crate::ServeError;
use ccdp_core::CacheStats;
use ccdp_graph::{generators, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A deterministic description of one catalog graph.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphSpec {
    /// `G(n, p)` with `p = avg_degree / n`, generated from `seed`.
    ErdosRenyi {
        /// Number of vertices.
        n: usize,
        /// Expected average degree (`p = avg_degree / n`).
        avg_degree: f64,
        /// Generation seed.
        seed: u64,
    },
    /// A star with `leaves` leaves.
    Star {
        /// Number of leaves.
        leaves: usize,
    },
    /// A path on `n` vertices.
    Path {
        /// Number of vertices.
        n: usize,
    },
}

impl GraphSpec {
    /// Materializes the graph (deterministic per spec).
    pub fn build(&self) -> Graph {
        match *self {
            GraphSpec::ErdosRenyi {
                n,
                avg_degree,
                seed,
            } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let p = (avg_degree / n.max(1) as f64).clamp(0.0, 1.0);
                generators::erdos_renyi(n, p, &mut rng)
            }
            GraphSpec::Star { leaves } => generators::star(leaves),
            GraphSpec::Path { n } => generators::path(n),
        }
    }
}

/// One tenant of the workload.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSpec {
    /// Tenant name.
    pub name: String,
    /// Total ε quota registered in the ledger.
    pub quota_epsilon: f64,
    /// Relative share of the request schedule (≥ 0).
    pub weight: f64,
}

/// A full serving workload: fleet × tenant mix × request schedule.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// The graph fleet, registered as `fleet/g0`, `fleet/g1`, ….
    pub graphs: Vec<GraphSpec>,
    /// The tenant mix.
    pub tenants: Vec<TenantSpec>,
    /// Number of closed-loop client threads.
    pub clients: usize,
    /// Total number of requests across all clients.
    pub requests: usize,
    /// ε spent per request.
    pub epsilon_per_request: f64,
    /// Seed for tenant/graph assignment and server noise.
    pub seed: u64,
    /// Server configuration the workload runs against.
    pub server: ServeConfig,
}

impl LoadSpec {
    /// The fixed CI smoke spec: 64 clients, an 8-graph fleet (mixed ER, star
    /// and path), 4 tenants, 256 requests at ε = 0.25 each.
    ///
    /// Quotas are sized so three tenants serve their whole share while the
    /// `burst` tenant exhausts its small quota partway — the run must
    /// demonstrate typed budget refusals under concurrency, not just happy
    /// paths.
    pub fn ci_smoke() -> Self {
        LoadSpec {
            graphs: vec![
                GraphSpec::ErdosRenyi {
                    n: 60,
                    avg_degree: 3.0,
                    seed: 11,
                },
                GraphSpec::ErdosRenyi {
                    n: 80,
                    avg_degree: 2.0,
                    seed: 12,
                },
                GraphSpec::ErdosRenyi {
                    n: 50,
                    avg_degree: 4.0,
                    seed: 13,
                },
                GraphSpec::Star { leaves: 40 },
                GraphSpec::Star { leaves: 25 },
                GraphSpec::Path { n: 64 },
                GraphSpec::Path { n: 32 },
                GraphSpec::ErdosRenyi {
                    n: 40,
                    avg_degree: 1.5,
                    seed: 14,
                },
            ],
            tenants: vec![
                TenantSpec {
                    name: "alpha".into(),
                    quota_epsilon: 40.0,
                    weight: 1.0,
                },
                TenantSpec {
                    name: "beta".into(),
                    quota_epsilon: 40.0,
                    weight: 1.0,
                },
                TenantSpec {
                    name: "gamma".into(),
                    quota_epsilon: 40.0,
                    weight: 1.0,
                },
                TenantSpec {
                    name: "burst".into(),
                    quota_epsilon: 4.0,
                    weight: 1.0,
                },
            ],
            clients: 64,
            requests: 256,
            epsilon_per_request: 0.25,
            seed: 2023,
            server: ServeConfig::new().with_workers(4).with_queue_capacity(128),
        }
    }

    /// The catalog ids this spec's fleet registers under (`fleet/g0`,
    /// `fleet/g1`, …) — the single naming scheme shared by
    /// [`provision`](Self::provision) and anything that needs to address the
    /// fleet later (e.g. the wire-level load generator building its schedule
    /// against an already-provisioned remote server).
    pub fn graph_ids(&self) -> Vec<GraphId> {
        (0..self.graphs.len())
            .map(|i| GraphId::new(format!("fleet/g{i}")))
            .collect()
    }

    /// Builds the fleet into `registry` and registers the tenants in
    /// `ledger`, returning the catalog ids (`fleet/g0`, `fleet/g1`, …).
    /// Shared by the in-process run and the wire-level load generator, so
    /// both drive the identical workload.
    ///
    /// # Panics
    /// Panics on a duplicate tenant or graph id — a `LoadSpec` provisions a
    /// fresh fleet, it never merges into one.
    pub fn provision(&self, registry: &GraphRegistry, ledger: &BudgetLedger) -> Vec<GraphId> {
        let graph_ids = self.graph_ids();
        for (id, spec) in graph_ids.iter().zip(&self.graphs) {
            registry.insert(id.clone(), spec.build());
        }
        for t in &self.tenants {
            ledger
                .register(t.name.as_str(), t.quota_epsilon)
                .expect("duplicate tenant in LoadSpec");
        }
        graph_ids
    }

    /// The deterministic request schedule over `graph_ids`: tenant drawn by
    /// weight, graph uniform, fully derived from the spec seed.
    pub fn schedule(&self, graph_ids: &[GraphId]) -> Vec<ServeRequest> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let total_weight: f64 = self.tenants.iter().map(|t| t.weight.max(0.0)).sum();
        (0..self.requests)
            .map(|_| {
                let mut pick = rng.gen_range(0.0..total_weight.max(f64::MIN_POSITIVE));
                let mut tenant = &self.tenants[0];
                for t in &self.tenants {
                    tenant = t;
                    pick -= t.weight.max(0.0);
                    if pick <= 0.0 {
                        break;
                    }
                }
                let graph = &graph_ids[rng.gen_range(0..graph_ids.len())];
                ServeRequest::new(
                    tenant.name.as_str(),
                    graph.clone(),
                    self.epsilon_per_request,
                )
            })
            .collect()
    }

    /// Registers the fleet and tenants, starts a server, runs the schedule
    /// with closed-loop clients and returns the summary report.
    pub fn run(&self) -> LoadReport {
        let registry = Arc::new(GraphRegistry::new());
        let ledger = Arc::new(BudgetLedger::new());
        let graph_ids = self.provision(&registry, &ledger);
        let schedule = self.schedule(&graph_ids);

        let server = Arc::new(Server::start(
            self.server.clone().with_seed(self.seed),
            Arc::clone(&registry),
            Arc::clone(&ledger),
        ));

        // Closed-loop clients: each takes a strided share of the schedule,
        // submits one request at a time and waits for its response, retrying
        // with a short backoff when the bounded queue pushes back.
        let started = Instant::now();
        let clients = self.clients.max(1);
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let server = Arc::clone(&server);
                let mine: Vec<ServeRequest> =
                    schedule.iter().skip(c).step_by(clients).cloned().collect();
                std::thread::spawn(move || {
                    let mut outcomes = ClientOutcomes::default();
                    for request in mine {
                        let pending = loop {
                            match server.submit(request.clone()) {
                                Ok(p) => break Some(p),
                                Err(ServeError::QueueFull { .. }) => {
                                    outcomes.backpressure_retries += 1;
                                    std::thread::sleep(Duration::from_micros(200));
                                }
                                Err(_) => break None,
                            }
                        };
                        let Some(pending) = pending else {
                            outcomes.submit_failures += 1;
                            continue;
                        };
                        match pending.wait().result {
                            Ok(_) => outcomes.completed += 1,
                            Err(ServeError::BudgetExhausted { .. }) => {
                                outcomes.budget_refusals += 1
                            }
                            Err(_) => outcomes.failed += 1,
                        }
                    }
                    outcomes
                })
            })
            .collect();
        let mut outcomes = ClientOutcomes::default();
        for h in handles {
            outcomes.absorb(h.join().expect("load client panicked"));
        }
        let wall_clock = started.elapsed();

        let cache = server.cache_stats();
        let server = Arc::try_unwrap(server).expect("all clients joined");
        let snapshot = server.shutdown();
        LoadReport {
            spec_requests: self.requests,
            completed: outcomes.completed,
            budget_refusals: outcomes.budget_refusals,
            failed: outcomes.failed,
            submit_failures: outcomes.submit_failures,
            backpressure_retries: outcomes.backpressure_retries,
            wall_clock,
            throughput_rps: if wall_clock.as_secs_f64() > 0.0 {
                outcomes.completed as f64 / wall_clock.as_secs_f64()
            } else {
                0.0
            },
            cache,
            snapshot,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct ClientOutcomes {
    completed: u64,
    budget_refusals: u64,
    failed: u64,
    submit_failures: u64,
    backpressure_retries: u64,
}

impl ClientOutcomes {
    fn absorb(&mut self, other: ClientOutcomes) {
        self.completed += other.completed;
        self.budget_refusals += other.budget_refusals;
        self.failed += other.failed;
        self.submit_failures += other.submit_failures;
        self.backpressure_retries += other.backpressure_retries;
    }
}

/// Summary of one [`LoadSpec::run`].
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Requests the spec scheduled.
    pub spec_requests: usize,
    /// Requests answered with a release.
    pub completed: u64,
    /// Requests refused by a tenant budget (typed, expected under quota
    /// pressure).
    pub budget_refusals: u64,
    /// Requests that failed any other way.
    pub failed: u64,
    /// Requests never accepted (server shut down mid-run).
    pub submit_failures: u64,
    /// Total client retries caused by queue backpressure.
    pub backpressure_retries: u64,
    /// Wall-clock time of the whole run.
    pub wall_clock: Duration,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
    /// Shared family-cache counters at the end of the run.
    pub cache: CacheStats,
    /// Final server metrics (queue depth, latency percentiles, …).
    pub snapshot: StatsSnapshot,
}

impl LoadReport {
    /// Fraction of family lookups served without a fresh evaluation.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Whether every scheduled request was answered one way or another.
    pub fn is_complete(&self) -> bool {
        self.completed + self.budget_refusals + self.failed + self.submit_failures
            == self.spec_requests as u64
    }

    /// Serializes the metrics the CI smoke job tracks, through the shared
    /// [`json`](crate::json) writer (the single source of truth for every
    /// JSON byte the stack emits).
    pub fn to_json(&self) -> String {
        let mut w = crate::json::JsonWriter::object();
        w.field_u64("requests", self.spec_requests as u64);
        w.field_u64("completed", self.completed);
        w.field_u64("budget_refusals", self.budget_refusals);
        w.field_u64("failed", self.failed);
        w.field_u64("backpressure_retries", self.backpressure_retries);
        w.field_f64_rounded("wall_clock_s", self.wall_clock.as_secs_f64(), 6);
        w.field_f64_rounded("throughput_rps", self.throughput_rps, 3);
        w.field_f64_rounded(
            "p50_latency_ms",
            self.snapshot.p50_latency.as_secs_f64() * 1e3,
            3,
        );
        w.field_f64_rounded(
            "p99_latency_ms",
            self.snapshot.p99_latency.as_secs_f64() * 1e3,
            3,
        );
        w.field_u64("peak_queue_depth", self.snapshot.peak_queue_depth);
        w.field_u64("cache_hits", self.cache.hits);
        w.field_u64("cache_misses", self.cache.misses);
        w.field_u64("cache_coalesced", self.cache.coalesced);
        w.field_u64("cache_evictions", self.cache.evictions);
        w.field_f64_rounded("cache_hit_rate", self.cache_hit_rate(), 4);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_specs_build_deterministically() {
        let spec = GraphSpec::ErdosRenyi {
            n: 30,
            avg_degree: 3.0,
            seed: 5,
        };
        assert_eq!(spec.build(), spec.build());
        assert_eq!(GraphSpec::Star { leaves: 4 }.build().num_edges(), 4);
        assert_eq!(GraphSpec::Path { n: 5 }.build().num_edges(), 4);
    }

    #[test]
    fn small_load_runs_to_completion_with_warm_cache() {
        let spec = LoadSpec {
            graphs: vec![GraphSpec::Path { n: 20 }, GraphSpec::Star { leaves: 10 }],
            tenants: vec![TenantSpec {
                name: "t".into(),
                quota_epsilon: 100.0,
                weight: 1.0,
            }],
            clients: 8,
            requests: 40,
            epsilon_per_request: 0.2,
            seed: 1,
            server: ServeConfig::new().with_workers(4).with_queue_capacity(16),
        };
        let report = spec.run();
        assert!(report.is_complete(), "{report:?}");
        assert_eq!(report.completed, 40);
        assert_eq!(report.failed, 0);
        // Two unique (graph, grid) keys → at most two fresh
        // evaluations; everything else is a hit or a coalesced join.
        assert_eq!(report.cache.misses, 2, "{:?}", report.cache);
        assert!(report.cache_hit_rate() > 0.9);
        // The report round-trips through the shared JSON codec.
        let json = crate::json::parse(&report.to_json()).unwrap();
        assert_eq!(json.get("completed").unwrap().as_u64(), Some(40));
        assert!(json.get("cache_hit_rate").unwrap().as_f64().unwrap() > 0.9);
    }

    #[test]
    fn quota_pressure_surfaces_as_budget_refusals_not_failures() {
        let spec = LoadSpec {
            graphs: vec![GraphSpec::Path { n: 10 }],
            tenants: vec![TenantSpec {
                name: "small".into(),
                // Funds exactly 4 of the 12 scheduled requests.
                quota_epsilon: 2.0,
                weight: 1.0,
            }],
            clients: 4,
            requests: 12,
            epsilon_per_request: 0.5,
            seed: 2,
            server: ServeConfig::new().with_workers(2).with_queue_capacity(8),
        };
        let report = spec.run();
        assert!(report.is_complete());
        assert_eq!(report.completed, 4);
        assert_eq!(report.budget_refusals, 8);
        assert_eq!(report.failed, 0);
    }
}
