//! Networked load generation: the [`ccdp_serve::LoadSpec`] workload driven
//! over real sockets.
//!
//! [`WireLoadSpec`] reuses the serve tier's deterministic workload
//! description — same fleet, same tenant mix, same seeded schedule — but
//! each closed-loop client is a [`NetClient`] on its own OS thread talking
//! HTTP/1.1 to a [`crate::NetServer`] address. What the in-process load
//! generator observes as typed `ServeError`s arrives here as wire statuses:
//! `429 queue_full` is retried with backoff (counted), `403
//! budget_exhausted` is a terminal refusal (counted, never retried), and
//! anything else is a failure. Latencies are measured client-side —
//! connect-to-decoded-response, the number a real tenant would see — in the
//! same lock-free [`LogHistogram`] the server uses, so p50/p99 carry
//! identical bucket semantics on both sides of the wire.

use crate::client::NetClient;
use crate::error::NetError;
use ccdp_obs::LogHistogram;
use ccdp_serve::json::JsonWriter;
use ccdp_serve::{BudgetLedger, GraphId, GraphRegistry, LoadSpec};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A [`LoadSpec`] workload executed over the wire.
#[derive(Clone, Debug)]
pub struct WireLoadSpec {
    /// The workload: fleet, tenants, client count, schedule, seed. The
    /// embedded `server` config is ignored here — the target server is
    /// whoever answers at the address given to [`run`](Self::run).
    pub base: LoadSpec,
    /// How many times one request retries `429 queue_full` before counting
    /// as a failure.
    pub max_retries: usize,
    /// Sleep between backpressure retries.
    pub retry_backoff: Duration,
}

impl WireLoadSpec {
    /// Wraps a workload with default retry policy (64 retries, 500 µs
    /// backoff — enough patience that transient queue pressure never fails
    /// a CI run, bounded so a wedged server cannot hang one).
    pub fn new(base: LoadSpec) -> Self {
        WireLoadSpec {
            base,
            max_retries: 64,
            retry_backoff: Duration::from_micros(500),
        }
    }

    /// The fixed net-smoke workload: the serve tier's CI fleet and tenant
    /// mix, scaled to 32 socket clients and 512 requests.
    pub fn ci_smoke() -> Self {
        let mut base = LoadSpec::ci_smoke();
        base.clients = 32;
        base.requests = 512;
        // The quota mix keeps its CI shape: three tenants fund their whole
        // share, `burst` exhausts partway — refusals double at double the
        // request count, so scale the funded quotas with the schedule.
        for t in &mut base.tenants {
            if t.name != "burst" {
                t.quota_epsilon *= 2.0;
            }
        }
        WireLoadSpec::new(base)
    }

    /// Provisions the fleet and tenants into a server's registry and ledger
    /// (delegates to [`LoadSpec::provision`]).
    pub fn provision(&self, registry: &GraphRegistry, ledger: &BudgetLedger) -> Vec<GraphId> {
        self.base.provision(registry, ledger)
    }

    /// Runs the workload against the listener at `addr` (whose server must
    /// already hold this spec's fleet — see [`provision`](Self::provision))
    /// and returns the client-side report.
    pub fn run(&self, addr: SocketAddr) -> WireLoadReport {
        let schedule = self.base.schedule(&self.base.graph_ids());
        let clients = self.base.clients.max(1);
        let histogram = Arc::new(LogHistogram::new());
        let started = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mine: Vec<_> = schedule.iter().skip(c).step_by(clients).cloned().collect();
                let histogram = Arc::clone(&histogram);
                let max_retries = self.max_retries;
                let backoff = self.retry_backoff;
                std::thread::spawn(move || {
                    let mut client = NetClient::connect(addr);
                    let mut outcomes = WireOutcomes::default();
                    for request in mine {
                        let version = request.version.map(|v| v.value());
                        let sent = Instant::now();
                        let mut retries = 0;
                        let outcome = loop {
                            match client.estimate(
                                request.tenant.as_str(),
                                request.graph.as_str(),
                                request.epsilon,
                                version,
                            ) {
                                Ok(est) => break Ok(est),
                                Err(NetError::Api { status: 429, .. }) if retries < max_retries => {
                                    retries += 1;
                                    outcomes.backpressure_retries += 1;
                                    std::thread::sleep(backoff);
                                }
                                Err(e) => break Err(e),
                            }
                        };
                        match outcome {
                            Ok(_) => {
                                // Only answered requests are latency samples;
                                // a refusal's round trip measures the error
                                // path, not serving.
                                histogram.record(sent.elapsed());
                                outcomes.completed += 1;
                            }
                            Err(NetError::Api { code, .. }) if code == "budget_exhausted" => {
                                outcomes.budget_refusals += 1;
                            }
                            Err(_) => outcomes.failed += 1,
                        }
                    }
                    outcomes
                })
            })
            .collect();
        let mut outcomes = WireOutcomes::default();
        for h in handles {
            outcomes.absorb(h.join().expect("wire load client panicked"));
        }
        let wall_clock = started.elapsed();
        WireLoadReport {
            spec_requests: self.base.requests,
            clients,
            completed: outcomes.completed,
            budget_refusals: outcomes.budget_refusals,
            failed: outcomes.failed,
            backpressure_retries: outcomes.backpressure_retries,
            wall_clock,
            throughput_rps: if wall_clock.as_secs_f64() > 0.0 {
                outcomes.completed as f64 / wall_clock.as_secs_f64()
            } else {
                0.0
            },
            p50_latency: histogram.quantile(0.50),
            p99_latency: histogram.quantile(0.99),
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct WireOutcomes {
    completed: u64,
    budget_refusals: u64,
    failed: u64,
    backpressure_retries: u64,
}

impl WireOutcomes {
    fn absorb(&mut self, other: WireOutcomes) {
        self.completed += other.completed;
        self.budget_refusals += other.budget_refusals;
        self.failed += other.failed;
        self.backpressure_retries += other.backpressure_retries;
    }
}

/// Client-side summary of one [`WireLoadSpec::run`].
#[derive(Clone, Debug)]
pub struct WireLoadReport {
    /// Requests the spec scheduled.
    pub spec_requests: usize,
    /// Socket clients that drove them.
    pub clients: usize,
    /// Requests answered with a release.
    pub completed: u64,
    /// Requests refused `403 budget_exhausted` (typed, never retried).
    pub budget_refusals: u64,
    /// Requests that failed any other way (including retries exhausted).
    pub failed: u64,
    /// Total `429 queue_full` retries across all clients.
    pub backpressure_retries: u64,
    /// Wall-clock time of the whole run.
    pub wall_clock: Duration,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
    /// Client-side median latency (send → decoded response).
    pub p50_latency: Duration,
    /// Client-side 99th-percentile latency.
    pub p99_latency: Duration,
}

impl WireLoadReport {
    /// Whether every scheduled request was answered one way or another.
    pub fn is_complete(&self) -> bool {
        self.completed + self.budget_refusals + self.failed == self.spec_requests as u64
    }

    /// Serializes the report through the shared [`ccdp_serve::json`] writer,
    /// field-compatible with [`ccdp_serve::LoadReport::to_json`] where the
    /// metrics coincide.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.field_u64("requests", self.spec_requests as u64)
            .field_u64("clients", self.clients as u64)
            .field_u64("completed", self.completed)
            .field_u64("budget_refusals", self.budget_refusals)
            .field_u64("failed", self.failed)
            .field_u64("backpressure_retries", self.backpressure_retries)
            .field_f64_rounded("wall_clock_s", self.wall_clock.as_secs_f64(), 6)
            .field_f64_rounded("throughput_rps", self.throughput_rps, 3)
            .field_f64_rounded("p50_latency_ms", self.p50_latency.as_secs_f64() * 1e3, 3)
            .field_f64_rounded("p99_latency_ms", self.p99_latency.as_secs_f64() * 1e3, 3);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{NetConfig, NetServer};
    use ccdp_serve::{GraphSpec, ServeConfig, Server, TenantSpec};

    fn small_spec() -> WireLoadSpec {
        WireLoadSpec::new(LoadSpec {
            graphs: vec![GraphSpec::Path { n: 16 }, GraphSpec::Star { leaves: 8 }],
            tenants: vec![
                TenantSpec {
                    name: "t".into(),
                    quota_epsilon: 100.0,
                    weight: 1.0,
                },
                TenantSpec {
                    name: "tiny".into(),
                    // Funds roughly half of `tiny`'s share of 48 requests.
                    quota_epsilon: 2.0,
                    weight: 1.0,
                },
            ],
            clients: 6,
            requests: 48,
            epsilon_per_request: 0.2,
            seed: 9,
            server: ServeConfig::new(),
        })
    }

    #[test]
    fn wire_load_runs_to_completion_with_typed_refusals() {
        let spec = small_spec();
        let registry = Arc::new(GraphRegistry::new());
        let ledger = Arc::new(BudgetLedger::new());
        spec.provision(&registry, &ledger);
        let server = Arc::new(Server::start(
            ServeConfig::new().with_workers(4).with_queue_capacity(32),
            registry,
            ledger,
        ));
        let net = NetServer::start(NetConfig::new(), server).unwrap();

        let report = spec.run(net.local_addr());
        assert!(report.is_complete(), "{report:?}");
        assert_eq!(report.failed, 0, "{report:?}");
        assert!(report.completed >= 30, "{report:?}");
        assert!(
            report.budget_refusals > 0,
            "the tiny tenant must hit its quota: {report:?}"
        );
        assert!(report.p99_latency >= report.p50_latency);

        let json = ccdp_serve::json::parse(&report.to_json()).unwrap();
        assert_eq!(
            json.get("completed").and_then(|v| v.as_u64()),
            Some(report.completed)
        );
        assert_eq!(json.get("failed").and_then(|v| v.as_u64()), Some(0));

        // The wire counters saw exactly the client fleet.
        let stats = net.shutdown();
        assert_eq!(stats.accepted, spec.base.clients as u64);
    }
}
