//! Raw-sample statistics, output checks and the run report.
//!
//! Percentiles are exact nearest-rank values over every recorded sample —
//! never histogram buckets — and a tail percentile is reported only when at
//! least [`TAIL_MIN_BEYOND`] samples lie beyond it.

/// Samples a tail percentile needs beyond it before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// The tail percentiles considered, highest first.
const TAILS: [(f64, &str); 3] = [(0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")];

/// Largest |residual| / end-to-end time the traced run accepts before it
/// fails: the layer self-times must add up to the end-to-end time.
const RECONCILE_TOLERANCE: f64 = 0.10;

/// Every end-to-end metric, printed by every untraced run. The operation is
/// the workload's own: one release (`cold_release`), one wire round trip
/// (`wire_serve`), one stream publish (`stream_release`).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, printed by every traced run; a layer a workload
/// does not exercise reads 0.
const PER_LAYER: [(&str, &str); 30] = [
    ("net.overhead_ms.p50", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.handle_ms.p50", "ms"),
    ("registry.resolve_us.p50", "us"),
    ("registry.publish_ms.p50", "ms"),
    ("ledger.charge_us.p50", "us"),
    ("ledger.charges", "count"),
    ("cache.hit_ms.small.p50", "ms"),
    ("cache.hit_ms.large.p50", "ms"),
    ("cache.hit_rate", "ratio"),
    ("cache.invalidations", "count"),
    ("family.partition_s", "s"),
    ("family.anchor_s", "s"),
    ("family.lp_s", "s"),
    ("family.miss_ms.p50", "ms"),
    ("solve.components", "count"),
    ("solve.micro_closed_form", "count"),
    ("solve.dedup_hits", "count"),
    ("solve.general_fallback", "count"),
    ("solve.dedup_hit_rate", "ratio"),
    ("graph.true_value_ms.p50", "ms"),
    ("graph.csr_build_s", "s"),
    ("stream.apply_us", "us"),
    ("stream.snapshot_ms.p50", "ms"),
    ("stream.rebuilds", "count"),
    ("dp.mechanisms_us.p50", "us"),
    ("obs.trace_overhead_frac", "ratio"),
    ("reconcile.residual_frac", "ratio"),
    ("exec.threads", "count"),
];

/// Raw per-operation samples of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The nearest-rank median (0 when empty).
    pub fn p50(&self) -> f64 {
        nearest_rank(&self.sorted(), 0.5).unwrap_or(0.0)
    }

    /// The nearest-rank `q`-quantile, or `None` when fewer than
    /// [`TAIL_MIN_BEYOND`] samples lie beyond it.
    pub fn tail(&self, q: f64) -> Option<f64> {
        let sorted = self.sorted();
        let rank = rank(sorted.len(), q)?;
        (sorted.len() - rank >= TAIL_MIN_BEYOND).then(|| sorted[rank - 1])
    }

    /// The highest tail percentile that has enough samples beyond it.
    fn highest_tail(&self) -> Option<(&'static str, f64)> {
        TAILS
            .iter()
            .find_map(|&(q, name)| self.tail(q).map(|v| (name, v)))
    }
}

/// Length of the windows the headline metrics are taken over.
const WINDOW_S: f64 = 1.0;

/// Per-operation samples and work binned into [`WINDOW_S`] windows of the
/// measured interval. The machine is shared, and other tenants slow it in
/// bursts lasting seconds; a headline metric is the median over the
/// windows of each window's own median or rate, so a burst moves it only
/// when it covers half the run.
#[derive(Default)]
pub struct Windows(Vec<Bin>);

#[derive(Clone, Default)]
struct Bin {
    values: Samples,
    work: f64,
    busy_s: f64,
}

impl Windows {
    fn bin(&mut self, t_s: f64) -> &mut Bin {
        let i = (t_s / WINDOW_S).max(0.0) as usize;
        if self.0.len() <= i {
            self.0.resize(i + 1, Bin::default());
        }
        &mut self.0[i]
    }

    /// Records one operation's value, completed `t_s` into the interval.
    pub fn value(&mut self, t_s: f64, v: f64) {
        self.bin(t_s).values.push(v);
    }

    /// Records `work` units done in `busy_s` seconds, completed `t_s` into
    /// the interval.
    pub fn work(&mut self, t_s: f64, work: f64, busy_s: f64) {
        let bin = self.bin(t_s);
        bin.work += work;
        bin.busy_s += busy_s;
    }

    /// The windows that lie wholly inside an interval of `total_s` seconds.
    fn full(&self, total_s: f64) -> &[Bin] {
        let n = ((total_s / WINDOW_S) as usize).clamp(1, self.0.len().max(1));
        &self.0[..n.min(self.0.len())]
    }

    /// Median over full windows of each window's median value.
    pub fn median_p50(&self, total_s: f64) -> f64 {
        let mut medians = Samples::default();
        for bin in self.full(total_s).iter().filter(|b| b.values.len() > 0) {
            medians.push(bin.values.p50());
        }
        medians.p50()
    }

    /// Median over full windows of work per busy second (per window second
    /// when no busy time was recorded).
    pub fn median_rate(&self, total_s: f64) -> f64 {
        let mut rates = Samples::default();
        for bin in self.full(total_s) {
            let busy = if bin.busy_s > 0.0 {
                bin.busy_s
            } else {
                WINDOW_S
            };
            rates.push(bin.work / busy);
        }
        rates.p50()
    }

    /// Number of full windows in an interval of `total_s` seconds.
    pub fn count(&self, total_s: f64) -> usize {
        self.full(total_s).len()
    }
}

fn rank(n: usize, q: f64) -> Option<usize> {
    (n > 0).then(|| ((q * n as f64).ceil() as usize).clamp(1, n))
}

fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    rank(sorted.len(), q).map(|r| sorted[r - 1])
}

/// What one run measured and checked.
pub struct Report {
    trace: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn new(trace: bool) -> Self {
        Report {
            trace,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Whether this is the traced run (per-layer metrics) rather than the
    /// untraced one (end-to-end metrics).
    pub fn traced(&self) -> bool {
        self.trace
    }

    /// Counts one checked operation; an `Err` counts it as failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = outcome {
            self.failed += 1;
            if self.problems.len() < 8 {
                eprintln!("check failed: {problem}");
                self.problems.push(problem);
            }
        }
    }

    /// Records one metric of this run's kind (end-to-end when untraced,
    /// per-layer when traced). Metrics of the other kind are ignored, so a
    /// workload can record both unconditionally.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let table: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        if table.iter().any(|(n, _)| *n == name) {
            self.metrics.retain(|(n, _)| *n != name);
            self.metrics.push((name, value));
        }
    }

    /// Prints a timing's median and qualifying tail with its sample count,
    /// and returns the median.
    pub fn timing(&self, name: &str, unit: &str, samples: &Samples) -> f64 {
        let p50 = samples.p50();
        let tail = samples
            .highest_tail()
            .map(|(q, v)| format!(", {q} {v:.4} {unit}"))
            .unwrap_or_default();
        println!(
            "  {name}: p50 {p50:.4} {unit}{tail} (n = {})",
            samples.len()
        );
        p50
    }

    /// Prints one value with its unit.
    pub fn note(&self, name: &str, value: f64, unit: &str) {
        println!("  {name} = {value:.4} {unit}");
    }

    /// Compares the end-to-end total with the sum of the layer self-times,
    /// records `reconcile.residual_frac`, and fails the run when the
    /// residual exceeds [`RECONCILE_TOLERANCE`].
    pub fn reconcile(&mut self, e2e_s: f64, layers: &[(&str, f64)]) {
        let covered: f64 = layers.iter().map(|(_, s)| s).sum();
        let residual = if e2e_s > 0.0 {
            (e2e_s - covered) / e2e_s
        } else {
            0.0
        };
        println!("  layer self-times (share of {e2e_s:.4} s end to end):");
        for (name, s) in layers {
            println!(
                "    {name:<24} {s:>10.4} s  {:>6.1} %",
                100.0 * s / e2e_s.max(1e-12)
            );
        }
        println!(
            "    {:<24} {:>10.4} s  {:>6.1} % (tolerance ±{:.0} %)",
            "residual",
            e2e_s - covered,
            100.0 * residual,
            100.0 * RECONCILE_TOLERANCE
        );
        self.metric("reconcile.residual_frac", residual);
        if residual.abs() > RECONCILE_TOLERANCE || !residual.is_finite() {
            self.problems.push(format!(
                "layer times do not add up: residual {:.1} % of the end-to-end time",
                100.0 * residual
            ));
        }
    }

    /// Prints the metrics and, as the last line, the JSON result; exits
    /// non-zero when an output check or the reconciliation failed.
    pub fn finish(mut self) -> ! {
        self.attempted = self.attempted.max(1);
        let table: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(table.len());
        println!(
            "metrics ({}):",
            if self.trace {
                "per layer"
            } else {
                "end to end"
            }
        );
        for &(name, unit) in table {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v);
            if value.is_none() && !self.trace {
                self.problems
                    .push(format!("metric {name} was not measured"));
            }
            let value = value.unwrap_or(0.0);
            if !value.is_finite() {
                self.problems.push(format!("metric {name} is not finite"));
            }
            let value = if value.is_finite() { value } else { 0.0 };
            println!("  {name} = {value} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let error_rate = self.failed as f64 / self.attempted as f64;
        println!(
            "  error_rate = {error_rate} ({} of {} operations failed)",
            self.failed, self.attempted
        );
        let correct = self.failed == 0 && self.problems.is_empty();
        for p in &self.problems {
            println!("  problem: {p}");
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        std::process::exit(if correct { 0 } else { 1 });
    }
}
