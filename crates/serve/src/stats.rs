//! Serving metrics: the recorder behind the `ccdp_serve_*` series.
//!
//! [`ServeStats`] is the server's always-on instrument panel: lock-free
//! counters on the hot path (one atomic bump per event), a queue-depth gauge
//! with a high-water mark, and a log-bucket latency histogram (the
//! [`ccdp_obs::LogHistogram`] bucketing) whose p50/p99 the exposition
//! reports. Recording a latency is one atomic increment into a log-spaced
//! bucket — no lock, no allocation, no reservoir to contend on — so the
//! instrument costs the same at the millionth request as at the first.
//!
//! Every instrument is a handle into the server's [`MetricsRegistry`]
//! (built with [`ServeStats::with_metrics`]), so the Prometheus exposition
//! (`GET /metrics`) is the one surface that reads them.
//!
//! # Snapshot coherence
//!
//! A [`MetricsRegistry::snapshot`] is taken while recorders race it, and it
//! is **racy by design**: it never stops the world, so the set of counters
//! it reads is not a single atomic cut. What *is* guaranteed is a one-sided
//! invariant: outcome counters never run ahead of `received`. Every
//! recorder publishes its outcome increment behind a release fence, after
//! the request's `received` increment (which happens-before it via the
//! queue handoff). The snapshot loads series in sorted order with an
//! acquire fence between loads, and `ccdp_serve_requests_total` sorts after
//! every outcome counter (`ccdp_serve_budget_refusals_total`,
//! `ccdp_serve_completed_total`, `ccdp_serve_failed_total`): if the snapshot
//! observes an outcome increment, the matching `received` increment is
//! visible when `received` is loaded. So
//! `completed + budget_refusals + failed ≤ received` always holds in a
//! snapshot, and `/metrics` can never report more answered requests than
//! accepted ones. The converse is deliberately weak — a snapshot may see
//! `received` bumps whose outcomes land a microsecond later; that skew is
//! the in-flight window, not an error.

use ccdp_obs::{Counter, FloatCounter, Gauge, LogHistogram, MetricsRegistry};
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
    /// zero.
    queue_depth: Gauge,
    peak_queue_depth: Gauge,
    latencies: Arc<LogHistogram>,
    /// Seconds since `started`, raised on every scrape: completed requests
    /// over uptime is the lifetime throughput.
    uptime: FloatCounter,
}

impl ServeStats {
    /// Counters registered into `registry` as the `ccdp_serve_*` series,
    /// with the clock started now.
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
            uptime: registry.float_counter("ccdp_serve_uptime_seconds"),
        }
    }

    /// Raises `ccdp_serve_uptime_seconds` to the time since start.
    pub(crate) fn refresh_uptime(&self) {
        self.uptime.raise_to(self.started.elapsed().as_secs_f64());
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
    /// registry snapshot's acquire fences rely on (see the module docs).
    pub(crate) fn on_done(&self, latency: Duration, outcome: RequestOutcome) {
        fence(Ordering::Release);
        match outcome {
            RequestOutcome::Completed => self.completed.inc(),
            RequestOutcome::BudgetRefused => self.budget_refusals.inc(),
            RequestOutcome::Failed => self.failed.inc(),
        };
        self.latencies.record(latency);
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

#[cfg(test)]
mod tests {
    use super::*;
    use ccdp_obs::{HistogramSnapshot, MetricsSnapshot, SeriesValue};

    /// The value of the unlabeled series `name` in `snap`.
    fn value(snap: &MetricsSnapshot, name: &str) -> u64 {
        snap.value(name)
            .unwrap_or_else(|| panic!("no series `{name}`")) as u64
    }

    /// The latency histogram's digest in `snap`.
    fn latencies(snap: &MetricsSnapshot) -> HistogramSnapshot {
        snap.series
            .iter()
            .find_map(|s| match &s.value {
                SeriesValue::Histogram(h) if s.name == "ccdp_serve_latency_seconds" => Some(*h),
                _ => None,
            })
            .expect("latency histogram registered")
    }

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
        let registry = MetricsRegistry::new();
        let stats = ServeStats::with_metrics(&registry);
        assert_eq!(stats.on_enqueue(), 1);
        assert_eq!(stats.on_enqueue(), 2);
        stats.on_dequeue();
        stats.on_done(Duration::from_millis(3), RequestOutcome::Completed);
        stats.on_dequeue();
        stats.on_done(Duration::from_millis(5), RequestOutcome::BudgetRefused);
        stats.on_queue_full();
        let snap = registry.snapshot();
        assert_eq!(value(&snap, "ccdp_serve_requests_total"), 2);
        assert_eq!(value(&snap, "ccdp_serve_completed_total"), 1);
        assert_eq!(value(&snap, "ccdp_serve_budget_refusals_total"), 1);
        assert_eq!(value(&snap, "ccdp_serve_rejected_queue_full_total"), 1);
        assert_eq!(value(&snap, "ccdp_serve_queue_depth"), 0);
        assert_eq!(value(&snap, "ccdp_serve_queue_depth_peak"), 2);
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
        let registry = MetricsRegistry::new();
        let stats = ServeStats::with_metrics(&registry);
        for ms in [1u64, 2, 3, 4, 100] {
            stats.on_enqueue();
            stats.on_dequeue();
            stats.on_done(Duration::from_millis(ms), RequestOutcome::Completed);
        }
        stats.refresh_uptime();
        let snap = registry.snapshot();
        let hist = latencies(&snap);
        assert_within_bucket(
            Duration::from_secs_f64(hist.p50_seconds),
            Duration::from_millis(3),
        );
        assert_within_bucket(
            Duration::from_secs_f64(hist.p99_seconds),
            Duration::from_millis(100),
        );
        // Lifetime throughput is completed over uptime.
        let uptime = snap.value("ccdp_serve_uptime_seconds").unwrap();
        assert!(uptime > 0.0);
        assert!(value(&snap, "ccdp_serve_completed_total") as f64 / uptime > 0.0);
    }

    #[test]
    fn histogram_recording_is_lock_free_under_contention() {
        // 8 threads hammer one histogram; every sample must be accounted for.
        let registry = MetricsRegistry::new();
        let stats = std::sync::Arc::new(ServeStats::with_metrics(&registry));
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
        let snap = registry.snapshot();
        assert_eq!(value(&snap, "ccdp_serve_completed_total"), 8000);
        assert_eq!(stats.latencies.count(), 8000, "no sample may be dropped");
        let hist = latencies(&snap);
        assert!(hist.p50_seconds > 0.0);
        assert!(hist.p99_seconds >= hist.p50_seconds);
    }

    #[test]
    fn snapshot_never_reports_more_outcomes_than_received() {
        // Racing recorders: each worker thread runs the full lifecycle in a
        // tight loop while the main thread snapshots the registry
        // continuously. Any snapshot observing `outcomes > received` would
        // mean the fence ordering (or the series sort order) is broken.
        let registry = MetricsRegistry::new();
        let stats = std::sync::Arc::new(ServeStats::with_metrics(&registry));
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
        let outcomes = |snap: &MetricsSnapshot| {
            value(snap, "ccdp_serve_completed_total")
                + value(snap, "ccdp_serve_budget_refusals_total")
                + value(snap, "ccdp_serve_failed_total")
        };
        for _ in 0..20_000 {
            let snap = registry.snapshot();
            let received = value(&snap, "ccdp_serve_requests_total");
            assert!(
                outcomes(&snap) <= received,
                "snapshot incoherent: {} outcomes > {received} received",
                outcomes(&snap)
            );
        }
        stop.store(true, Ordering::Relaxed);
        for h in workers {
            h.join().unwrap();
        }
        let snap = registry.snapshot();
        assert_eq!(
            outcomes(&snap),
            value(&snap, "ccdp_serve_requests_total"),
            "quiescent snapshot must balance exactly"
        );
    }
}
