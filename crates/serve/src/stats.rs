//! Serving metrics: counters, queue depth and latency percentiles.
//!
//! [`ServeStats`] is the server's always-on instrument panel: lock-free
//! counters on the hot path (one atomic bump per event), a queue-depth gauge
//! with a high-water mark, and a log-bucket latency histogram (the
//! [`ccdp_obs::LogHistogram`] bucketing) from which [`StatsSnapshot`]
//! computes p50/p99. Recording a latency is one atomic increment into a
//! log-spaced bucket — no lock, no allocation, no reservoir to contend on —
//! so the instrument costs the same at the millionth request as at the
//! first.
//!
//! The counters are [`ccdp_obs`] registry handles: built with
//! [`ServeStats::with_metrics`], the same atomics back
//! both [`snapshot`](ServeStats::snapshot) (`GET /stats`) and the
//! `ccdp_serve_*` series of the Prometheus exposition (`GET /metrics`), so
//! the two surfaces can never disagree about a counter.
//!
//! # Snapshot coherence
//!
//! A snapshot is taken while recorders race it, and it is **racy by
//! design**: it never stops the world, so the set of counters it reads is
//! not a single atomic cut. What *is* guaranteed is a one-sided invariant:
//! outcome counters never run ahead of `received`. Every recorder publishes
//! its outcome increment behind a release fence, and the snapshot reads all
//! outcome counters **before** one acquire fence and `received` **after**
//! it; if the snapshot observes an outcome increment, the matching
//! `received` increment (which happens-before it via the queue handoff) is
//! guaranteed visible. So `completed + budget_refusals + failed ≤ received`
//! always holds in a snapshot, and `/stats` and `/metrics` can never report
//! more answered requests than accepted ones. The converse is deliberately
//! weak — a snapshot may see `received` bumps whose outcomes land a
//! microsecond later; that skew is the in-flight window, not an error.

use ccdp_obs::{Counter, Gauge, LogHistogram, MetricsRegistry};
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live counters of a running server, backed by [`ccdp_obs`] instruments.
#[derive(Debug)]
pub struct ServeStats {
    started: Instant,
    received: Counter,
    completed: Counter,
    rejected_queue_full: Counter,
    budget_refusals: Counter,
    failed: Counter,
    /// Signed: a worker may record its dequeue before the submitting thread
    /// records the matching enqueue, so the gauge can transiently dip below
    /// zero (snapshots clamp it).
    queue_depth: Gauge,
    peak_queue_depth: Gauge,
    latencies: Arc<LogHistogram>,
}

impl ServeStats {
    /// Counters registered into `registry` as the `ccdp_serve_*` series,
    /// with the clock started now: the snapshot and the Prometheus
    /// exposition share one set of atomics.
    pub fn with_metrics(registry: &MetricsRegistry) -> Self {
        ServeStats {
            started: Instant::now(),
            received: registry.counter("ccdp_serve_requests_total"),
            completed: registry.counter("ccdp_serve_completed_total"),
            rejected_queue_full: registry.counter("ccdp_serve_rejected_queue_full_total"),
            budget_refusals: registry.counter("ccdp_serve_budget_refusals_total"),
            failed: registry.counter("ccdp_serve_failed_total"),
            queue_depth: registry.gauge("ccdp_serve_queue_depth"),
            peak_queue_depth: registry.gauge("ccdp_serve_queue_depth_peak"),
            latencies: registry.histogram("ccdp_serve_latency_seconds"),
        }
    }

    /// Records an *accepted* enqueue (rejected submissions never touch the
    /// depth gauge or the peak, so backpressure storms cannot inflate them);
    /// returns the new queue depth.
    pub(crate) fn on_enqueue(&self) -> i64 {
        self.received.inc();
        let depth = self.queue_depth.add(1);
        self.peak_queue_depth.raise_to(depth);
        depth
    }

    /// Records a dequeue by a worker.
    pub(crate) fn on_dequeue(&self) {
        self.queue_depth.add(-1);
    }

    /// Records a queue-full rejection.
    pub(crate) fn on_queue_full(&self) {
        self.rejected_queue_full.inc();
    }

    /// Records a finished request and its latency. The release fence orders
    /// this outcome increment after everything the request did — in
    /// particular after its `received` increment, whose visibility the
    /// snapshot's acquire fence relies on (see the module docs).
    pub(crate) fn on_done(&self, latency: Duration, outcome: RequestOutcome) {
        fence(Ordering::Release);
        match outcome {
            RequestOutcome::Completed => self.completed.inc(),
            RequestOutcome::BudgetRefused => self.budget_refusals.inc(),
            RequestOutcome::Failed => self.failed.inc(),
        };
        self.latencies.record(latency);
    }

    /// Current queue depth (requests accepted but not yet picked up).
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.get().max(0) as u64
    }

    /// Point-in-time snapshot (percentiles computed from the latency
    /// histogram buckets).
    ///
    /// Racy by design — recorders are never paused — but one-sided
    /// coherent: all outcome counters are loaded **before** a single
    /// acquire fence and `received` **after** it, so the snapshot can never
    /// report more outcomes than accepted requests (module docs have the
    /// full argument).
    pub fn snapshot(&self) -> StatsSnapshot {
        let elapsed = self.started.elapsed();
        // Outcome counters first…
        let completed = self.completed.get();
        let budget_refusals = self.budget_refusals.get();
        let failed = self.failed.get();
        let rejected_queue_full = self.rejected_queue_full.get();
        let p50_latency = self.latencies.quantile(0.50);
        let p99_latency = self.latencies.quantile(0.99);
        // …then the single acquire fence pairing with `on_done`'s release
        // fence…
        fence(Ordering::Acquire);
        // …then the acceptance counter, guaranteed to include the enqueue of
        // every outcome observed above.
        let received = self.received.get();
        StatsSnapshot {
            elapsed,
            received,
            completed,
            rejected_queue_full,
            budget_refusals,
            failed,
            queue_depth: self.queue_depth.get().max(0) as u64,
            peak_queue_depth: self.peak_queue_depth.get().max(0) as u64,
            throughput_rps: if elapsed.as_secs_f64() > 0.0 {
                completed as f64 / elapsed.as_secs_f64()
            } else {
                0.0
            },
            p50_latency,
            p99_latency,
        }
    }
}

/// How one request ended (for counter purposes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RequestOutcome {
    /// A release was produced.
    Completed,
    /// The tenant's budget refused the spend.
    BudgetRefused,
    /// Any other failure (unknown graph/tenant/version, estimator error).
    Failed,
}

/// Point-in-time metrics of a server.
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    /// Time since the stats were created (≈ server start).
    pub elapsed: Duration,
    /// Requests accepted into the queue.
    pub received: u64,
    /// Requests that produced a release.
    pub completed: u64,
    /// Submissions refused with [`QueueFull`](crate::ServeError::QueueFull).
    pub rejected_queue_full: u64,
    /// Requests refused by a tenant's budget ledger.
    pub budget_refusals: u64,
    /// Requests that failed for any other reason.
    pub failed: u64,
    /// Requests accepted but not yet picked up by a worker.
    pub queue_depth: u64,
    /// Highest queue depth observed.
    pub peak_queue_depth: u64,
    /// Completed requests per second of elapsed time.
    pub throughput_rps: f64,
    /// Median end-to-end latency (submit → response), reported at histogram
    /// bucket resolution (within 12.5% above ~8 µs, never under-reported).
    pub p50_latency: Duration,
    /// 99th-percentile end-to-end latency (same bucket resolution).
    pub p99_latency: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact-sample tolerance of the histogram: quantiles land on a
    /// bucket upper edge, at most 12.5% above the exact value.
    fn assert_within_bucket(got: Duration, exact: Duration) {
        assert!(
            got >= exact,
            "bucket quantile must never under-report: got {got:?} < exact {exact:?}"
        );
        assert!(
            got.as_secs_f64() <= exact.as_secs_f64() * 1.125 + 1e-6,
            "bucket quantile {got:?} too far above exact {exact:?}"
        );
    }

    #[test]
    fn counters_track_the_request_lifecycle() {
        let stats = ServeStats::with_metrics(&MetricsRegistry::new());
        assert_eq!(stats.on_enqueue(), 1);
        assert_eq!(stats.on_enqueue(), 2);
        stats.on_dequeue();
        stats.on_done(Duration::from_millis(3), RequestOutcome::Completed);
        stats.on_dequeue();
        stats.on_done(Duration::from_millis(5), RequestOutcome::BudgetRefused);
        stats.on_queue_full();
        let snap = stats.snapshot();
        assert_eq!(snap.received, 2);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.budget_refusals, 1);
        assert_eq!(snap.rejected_queue_full, 1);
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.peak_queue_depth, 2);
    }

    #[test]
    fn registry_backed_stats_share_atomics_with_the_exposition() {
        let registry = MetricsRegistry::new();
        let stats = ServeStats::with_metrics(&registry);
        stats.on_enqueue();
        stats.on_dequeue();
        stats.on_done(Duration::from_millis(2), RequestOutcome::Completed);
        let snap = registry.snapshot();
        assert_eq!(snap.value("ccdp_serve_requests_total"), Some(1.0));
        assert_eq!(snap.value("ccdp_serve_completed_total"), Some(1.0));
        assert_eq!(snap.value("ccdp_serve_latency_seconds"), Some(1.0));
        let text = registry.render_prometheus();
        assert!(text.contains("ccdp_serve_requests_total 1"));
    }

    #[test]
    fn percentiles_come_from_log_spaced_buckets() {
        let hist = LogHistogram::new();
        for us in 1..=100u64 {
            hist.record(Duration::from_micros(us));
        }
        assert_within_bucket(hist.quantile(0.50), Duration::from_micros(50));
        assert_within_bucket(hist.quantile(0.99), Duration::from_micros(99));
        assert_within_bucket(hist.quantile(1.0), Duration::from_micros(100));
        assert_eq!(hist.count(), 100);
        assert_eq!(LogHistogram::default().quantile(0.5), Duration::ZERO);
    }

    #[test]
    fn snapshot_percentiles_reflect_recorded_latencies() {
        let stats = ServeStats::with_metrics(&MetricsRegistry::new());
        for ms in [1u64, 2, 3, 4, 100] {
            stats.on_enqueue();
            stats.on_dequeue();
            stats.on_done(Duration::from_millis(ms), RequestOutcome::Completed);
        }
        let snap = stats.snapshot();
        assert_within_bucket(snap.p50_latency, Duration::from_millis(3));
        assert_within_bucket(snap.p99_latency, Duration::from_millis(100));
        assert!(snap.throughput_rps > 0.0);
    }

    #[test]
    fn histogram_recording_is_lock_free_under_contention() {
        // 8 threads hammer one histogram; every sample must be accounted for.
        let stats = std::sync::Arc::new(ServeStats::with_metrics(&MetricsRegistry::new()));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let stats = std::sync::Arc::clone(&stats);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        stats.on_enqueue();
                        stats.on_dequeue();
                        stats.on_done(
                            Duration::from_micros(1 + (t * 1000 + i) % 5000),
                            RequestOutcome::Completed,
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = stats.snapshot();
        assert_eq!(snap.completed, 8000);
        assert_eq!(stats.latencies.count(), 8000, "no sample may be dropped");
        assert!(snap.p50_latency > Duration::ZERO);
        assert!(snap.p99_latency >= snap.p50_latency);
    }

    #[test]
    fn snapshot_never_reports_more_outcomes_than_received() {
        // Racing recorders: each worker thread runs the full lifecycle in a
        // tight loop while the main thread snapshots continuously. Any
        // snapshot observing `outcomes > received` would mean the acquire
        // fence ordering is broken.
        let stats = std::sync::Arc::new(ServeStats::with_metrics(&MetricsRegistry::new()));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let stats = std::sync::Arc::clone(&stats);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        stats.on_enqueue();
                        stats.on_dequeue();
                        let outcome = match (w + i) % 3 {
                            0 => RequestOutcome::Completed,
                            1 => RequestOutcome::BudgetRefused,
                            _ => RequestOutcome::Failed,
                        };
                        stats.on_done(Duration::from_micros(1), outcome);
                        i += 1;
                    }
                })
            })
            .collect();
        for _ in 0..20_000 {
            let snap = stats.snapshot();
            let outcomes = snap.completed + snap.budget_refusals + snap.failed;
            assert!(
                outcomes <= snap.received,
                "snapshot incoherent: {outcomes} outcomes > {} received",
                snap.received
            );
        }
        stop.store(true, Ordering::Relaxed);
        for h in workers {
            h.join().unwrap();
        }
        let snap = stats.snapshot();
        assert_eq!(
            snap.completed + snap.budget_refusals + snap.failed,
            snap.received,
            "quiescent snapshot must balance exactly"
        );
    }
}
