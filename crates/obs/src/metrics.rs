//! The unified metrics registry: named counters, gauges and log-bucket
//! histograms with a stable snapshot API and a Prometheus-style text
//! exposition.
//!
//! Every instrument is a cheap cloneable handle over an `Arc`'d atomic; the
//! registry owns one clone per series so a scrape sees every increment ever
//! made through any handle. Handles can also be created *detached* (no
//! registry), which lets a subsystem keep a single code path — always bump
//! the handle — whether or not anyone wired it into an exposition.
//!
//! Naming convention (see `crates/obs/README.md`):
//! `ccdp_<layer>_<thing>_{total,seconds}` with at most one label dimension.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{fence, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Number of octaves (powers of two of microseconds) a [`LogHistogram`]
/// spans: 1 µs up to ~2^40 µs ≈ 12.7 days.
const OCTAVES: usize = 40;
/// Sub-buckets per octave: one eighth of an octave, bounding the relative
/// quantile error at 12.5%.
const SUBS: usize = 8;
/// Total bucket count of a [`LogHistogram`].
pub const NUM_BUCKETS: usize = OCTAVES * SUBS;

/// A monotone `u64` counter handle. Cloning shares the underlying atomic.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not (yet) owned by any registry.
    pub fn detached() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds one (relaxed; pair with explicit fences where ordering against
    /// other counters matters).
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` (relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to `v` if it is below it: folds a monotone count
    /// kept elsewhere into the counter. Idempotent, so concurrent folds of
    /// the same count never add it twice.
    #[inline]
    pub fn raise_to(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value (relaxed).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A monotone `f64` counter handle (seconds, epsilons): CAS-add over the
/// bit pattern, lock-free.
#[derive(Clone, Debug)]
pub struct FloatCounter(Arc<AtomicU64>);

impl FloatCounter {
    /// A float counter not (yet) owned by any registry.
    pub fn detached() -> Self {
        FloatCounter(Arc::new(AtomicU64::new(0f64.to_bits())))
    }

    /// Adds `v` with a CAS loop (lock-free; contention retries are rare at
    /// serving rates).
    pub fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Raises the counter to `v` if it is below it (a monotone reading such
    /// as an uptime). Idempotent like [`Counter::raise_to`]: non-negative
    /// floats order like their bit patterns, so one `fetch_max` does it.
    pub fn raise_to(&self, v: f64) {
        self.0.fetch_max(v.max(0.0).to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A signed gauge handle (queue depths, entry counts).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge not (yet) owned by any registry.
    pub fn detached() -> Self {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative); returns the new value.
    #[inline]
    pub fn add(&self, d: i64) -> i64 {
        self.0.fetch_add(d, Ordering::Relaxed) + d
    }

    /// Raises the gauge to `v` if it is below it (high-water marks).
    #[inline]
    pub fn raise_to(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-size, lock-free histogram of durations with log-spaced buckets —
/// the one bucketing scheme every layer shares.
///
/// Bucket `i = octave · 8 + sub` covers
/// `[2^octave · (1 + sub/8), 2^octave · (1 + (sub+1)/8))` microseconds;
/// quantiles report a bucket's upper edge, so they are conservative (never
/// under-report) and within 12.5% of the exact sample quantile above ~8 µs.
/// Below 8 µs the integer-microsecond bucket edges dominate: the error is
/// bounded by 1 µs absolute instead (e.g. all-1 µs samples report 2 µs).
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Vec<AtomicU64>,
    sum_nanos: AtomicU64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// Records one duration (sub-microsecond values land in the first
    /// bucket; values beyond the range land in the last). Lock-free: two
    /// relaxed atomic adds.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[Self::index(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    /// The `q`-quantile (`q` in `[0, 1]`) of everything recorded so far:
    /// the upper edge of the bucket where the cumulative count crosses the
    /// rank. `Duration::ZERO` when nothing was recorded.
    pub fn quantile(&self, q: f64) -> Duration {
        bucket_percentile(&self.counts(), q)
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Sum of all recorded durations in seconds (saturating at ~584 years).
    pub fn sum_seconds(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Which bucket a microsecond value lands in.
    pub fn index(us: u64) -> usize {
        let us = us.max(1);
        let octave = 63 - us.leading_zeros() as usize;
        if octave >= OCTAVES {
            return NUM_BUCKETS - 1;
        }
        let base = 1u64 << octave;
        // (us - base) * SUBS / base, exact in u64: us - base < 2^40.
        let sub = (((us - base) * SUBS as u64) >> octave) as usize;
        octave * SUBS + sub.min(SUBS - 1)
    }

    /// Exclusive upper edge of bucket `idx` in microseconds. The division
    /// rounds up so the edge stays exclusive even in the lowest octaves,
    /// where an eighth of the octave is below one microsecond.
    pub fn upper_edge_us(idx: usize) -> u64 {
        let (octave, sub) = (idx / SUBS, idx % SUBS);
        let base = 1u64 << octave;
        base + ((sub as u64 + 1) * base).div_ceil(SUBS as u64)
    }

    /// Point-in-time copy of the bucket counts.
    pub fn counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Nearest-rank percentile over a bucket-count vector: the upper edge of the
/// bucket where the cumulative count crosses the rank.
pub fn bucket_percentile(counts: &[u64], q: f64) -> Duration {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return Duration::ZERO;
    }
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (idx, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Duration::from_micros(LogHistogram::upper_edge_us(idx));
        }
    }
    Duration::from_micros(LogHistogram::upper_edge_us(NUM_BUCKETS - 1))
}

/// One instrument as stored in the registry.
#[derive(Clone, Debug)]
enum Instrument {
    Counter(Counter),
    Float(FloatCounter),
    Gauge(Gauge),
    Histogram(Arc<LogHistogram>),
}

type SeriesKey = (String, Vec<(String, String)>);

/// The process-wide (or per-server) registry every telemetry island
/// registers into. `get-or-create` by `(name, labels)`: two subsystems
/// asking for the same series share one atomic, so a scrape is always the
/// whole truth.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    series: RwLock<HashMap<SeriesKey, Instrument>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        (
            name.to_string(),
            labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        )
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let key = Self::key(name, labels);
        if let Some(found) = self.series.read().unwrap().get(&key) {
            return found.clone();
        }
        let mut map = self.series.write().unwrap();
        map.entry(key).or_insert_with(make).clone()
    }

    /// Get-or-create a counter series (no labels).
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Get-or-create a labeled counter series.
    ///
    /// # Panics
    /// If the series exists with a different instrument kind — that is a
    /// naming bug, not a runtime condition.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, labels, || Instrument::Counter(Counter::detached())) {
            Instrument::Counter(c) => c,
            other => panic!("series `{name}` already registered as {other:?}, wanted counter"),
        }
    }

    /// Get-or-create a float counter series (no labels).
    pub fn float_counter(&self, name: &str) -> FloatCounter {
        self.float_counter_with(name, &[])
    }

    /// Get-or-create a labeled float counter series.
    pub fn float_counter_with(&self, name: &str, labels: &[(&str, &str)]) -> FloatCounter {
        match self.get_or_insert(name, labels, || Instrument::Float(FloatCounter::detached())) {
            Instrument::Float(c) => c,
            other => {
                panic!("series `{name}` already registered as {other:?}, wanted float counter")
            }
        }
    }

    /// Get-or-create a gauge series (no labels).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Get-or-create a labeled gauge series.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, labels, || Instrument::Gauge(Gauge::detached())) {
            Instrument::Gauge(g) => g,
            other => panic!("series `{name}` already registered as {other:?}, wanted gauge"),
        }
    }

    /// Registers an *existing* counter handle under `name` (no labels),
    /// preserving every increment made before the subsystem was wired into
    /// a registry. If the series already exists, the registered handle wins
    /// and is returned — the caller should swap to it.
    pub fn adopt_counter(&self, name: &str, handle: &Counter) -> Counter {
        match self.get_or_insert(name, &[], || Instrument::Counter(handle.clone())) {
            Instrument::Counter(c) => c,
            other => panic!("series `{name}` already registered as {other:?}, wanted counter"),
        }
    }

    /// Registers an existing float-counter handle under `name` (no labels);
    /// see [`MetricsRegistry::adopt_counter`].
    pub fn adopt_float_counter(&self, name: &str, handle: &FloatCounter) -> FloatCounter {
        match self.get_or_insert(name, &[], || Instrument::Float(handle.clone())) {
            Instrument::Float(c) => c,
            other => {
                panic!("series `{name}` already registered as {other:?}, wanted float counter")
            }
        }
    }

    /// Get-or-create a histogram series (no labels).
    pub fn histogram(&self, name: &str) -> Arc<LogHistogram> {
        self.histogram_with(name, &[])
    }

    /// Get-or-create a labeled histogram series.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<LogHistogram> {
        match self.get_or_insert(name, labels, || {
            Instrument::Histogram(Arc::new(LogHistogram::new()))
        }) {
            Instrument::Histogram(h) => h,
            other => panic!("series `{name}` already registered as {other:?}, wanted histogram"),
        }
    }

    /// A stable (name-then-label sorted) point-in-time snapshot of every
    /// registered series.
    ///
    /// Racy by design (recorders are never paused), but one-sided coherent:
    /// series are loaded in sorted order with an acquire fence between
    /// loads. If a recorder bumps series `X`, then runs a release fence,
    /// then bumps `Y`, and `Y` sorts before `X`, a snapshot that sees the
    /// bump of `Y` sees the bump of `X` too. `ccdp_serve_requests_total`
    /// sorts after every `ccdp_serve_*` outcome counter, so a snapshot never
    /// shows more answered requests than accepted ones.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut handles: Vec<(SeriesKey, Instrument)> = self
            .series
            .read()
            .unwrap()
            .iter()
            .map(|(key, inst)| (key.clone(), inst.clone()))
            .collect();
        handles.sort_by(|a, b| a.0.cmp(&b.0));
        let series = handles
            .into_iter()
            .map(|((name, labels), inst)| {
                fence(Ordering::Acquire);
                let value = match inst {
                    Instrument::Counter(c) => SeriesValue::Counter(c.get()),
                    Instrument::Float(f) => SeriesValue::Float(f.get()),
                    Instrument::Gauge(g) => SeriesValue::Gauge(g.get()),
                    Instrument::Histogram(h) => SeriesValue::Histogram(HistogramSnapshot {
                        count: h.count(),
                        sum_seconds: h.sum_seconds(),
                        p50_seconds: h.quantile(0.50).as_secs_f64(),
                        p90_seconds: h.quantile(0.90).as_secs_f64(),
                        p99_seconds: h.quantile(0.99).as_secs_f64(),
                    }),
                };
                SeriesSnapshot {
                    name,
                    labels,
                    value,
                }
            })
            .collect();
        MetricsSnapshot { series }
    }

    /// Prometheus-style text exposition (the `GET /metrics` body): one
    /// `# TYPE` line per metric name, histograms rendered as summaries
    /// (`{quantile=...}`, `_count`, `_sum`), terminated by the `# EOF`
    /// marker strict scrapers require (served with
    /// `Content-Type: text/plain; version=0.0.4`).
    pub fn render_prometheus(&self) -> String {
        let snapshot = self.snapshot();
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for s in &snapshot.series {
            if last_name != Some(s.name.as_str()) {
                let kind = match s.value {
                    SeriesValue::Counter(_) | SeriesValue::Float(_) => "counter",
                    SeriesValue::Gauge(_) => "gauge",
                    SeriesValue::Histogram(_) => "summary",
                };
                let _ = writeln!(out, "# TYPE {} {}", s.name, kind);
                last_name = Some(s.name.as_str());
            }
            match &s.value {
                SeriesValue::Counter(v) => {
                    let _ = writeln!(out, "{} {}", render_key(&s.name, &s.labels, &[]), v);
                }
                SeriesValue::Float(v) => {
                    let _ = writeln!(
                        out,
                        "{} {}",
                        render_key(&s.name, &s.labels, &[]),
                        fmt_f64(*v)
                    );
                }
                SeriesValue::Gauge(v) => {
                    let _ = writeln!(out, "{} {}", render_key(&s.name, &s.labels, &[]), v);
                }
                SeriesValue::Histogram(h) => {
                    for (q, v) in [
                        ("0.5", h.p50_seconds),
                        ("0.9", h.p90_seconds),
                        ("0.99", h.p99_seconds),
                    ] {
                        let _ = writeln!(
                            out,
                            "{} {}",
                            render_key(&s.name, &s.labels, &[("quantile", q)]),
                            fmt_f64(v)
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{} {}",
                        render_key(&format!("{}_count", s.name), &s.labels, &[]),
                        h.count
                    );
                    let _ = writeln!(
                        out,
                        "{} {}",
                        render_key(&format!("{}_sum", s.name), &s.labels, &[]),
                        fmt_f64(h.sum_seconds)
                    );
                }
            }
        }
        out.push_str("# EOF\n");
        out
    }
}

fn fmt_f64(v: f64) -> String {
    // Enough precision to round-trip serving-scale values; no exponent
    // notation so the scrape parser stays trivial.
    let s = format!("{v:.9}");
    let s = s.trim_end_matches('0');
    let s = s.trim_end_matches('.');
    if s.is_empty() {
        "0".to_string()
    } else {
        s.to_string()
    }
}

fn render_key(name: &str, labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return name.to_string();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    parts.extend(extra.iter().map(|(k, v)| format!("{k}=\"{v}\"")));
    format!("{name}{{{}}}", parts.join(","))
}

/// Point-in-time value of one series.
#[derive(Clone, Debug)]
pub struct SeriesSnapshot {
    /// Metric name (`ccdp_<layer>_<thing>_{total,seconds}`).
    pub name: String,
    /// Label dimensions (at most one by convention).
    pub labels: Vec<(String, String)>,
    /// The value, typed by instrument kind.
    pub value: SeriesValue,
}

/// A snapshot value, typed by instrument kind.
#[derive(Clone, Debug)]
pub enum SeriesValue {
    /// Monotone integer counter.
    Counter(u64),
    /// Monotone float counter.
    Float(f64),
    /// Signed gauge.
    Gauge(i64),
    /// Log-bucket histogram digest.
    Histogram(HistogramSnapshot),
}

/// Digest of a histogram at snapshot time.
#[derive(Clone, Copy, Debug)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples in seconds.
    pub sum_seconds: f64,
    /// Median (bucket upper edge, conservative).
    pub p50_seconds: f64,
    /// 90th percentile.
    pub p90_seconds: f64,
    /// 99th percentile.
    pub p99_seconds: f64,
}

/// A stable, sorted point-in-time snapshot of a whole registry.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// All series, sorted by `(name, labels)`.
    pub series: Vec<SeriesSnapshot>,
}

impl MetricsSnapshot {
    /// The scalar value of the unlabeled series `name` (counters and floats
    /// and gauges; histograms report their count), if registered.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .map(|s| match &s.value {
                SeriesValue::Counter(v) => *v as f64,
                SeriesValue::Float(v) => *v,
                SeriesValue::Gauge(v) => *v as f64,
                SeriesValue::Histogram(h) => h.count as f64,
            })
    }

    /// Sum of the scalar values of every series named `name` across all
    /// label values (for cross-island consistency checks).
    pub fn sum(&self, name: &str) -> f64 {
        self.series
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match &s.value {
                SeriesValue::Counter(v) => *v as f64,
                SeriesValue::Float(v) => *v,
                SeriesValue::Gauge(v) => *v as f64,
                SeriesValue::Histogram(h) => h.count as f64,
            })
            .sum()
    }
}

/// Parses a Prometheus-style exposition back into `(series_key, value)`
/// pairs — the consumer side of [`MetricsRegistry::render_prometheus`],
/// shared by `ccdp top` and the obs smoke's consistency checks. Comment
/// lines are skipped; the series key keeps its label block verbatim.
pub fn parse_exposition(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_one_atomic_per_series() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("ccdp_test_requests_total");
        let b = reg.counter("ccdp_test_requests_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = reg.gauge("ccdp_test_depth");
        g.add(5);
        reg.gauge("ccdp_test_depth").add(-2);
        assert_eq!(g.get(), 3);
        g.raise_to(10);
        g.raise_to(7);
        assert_eq!(g.get(), 10);
        a.raise_to(9);
        a.raise_to(5);
        assert_eq!(b.get(), 9);
        let f = reg.float_counter("ccdp_test_uptime_seconds");
        f.raise_to(2.5);
        f.raise_to(1.0);
        assert_eq!(f.get(), 2.5);
    }

    #[test]
    fn float_counter_accumulates_under_contention() {
        let reg = MetricsRegistry::new();
        let f = reg.float_counter("ccdp_test_seconds");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let f = f.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        f.add(0.5);
                    }
                });
            }
        });
        assert!((f.get() - 4000.0).abs() < 1e-6);
    }

    #[test]
    fn histogram_buckets_are_consistent() {
        for us in [0u64, 1, 2, 3, 7, 8, 100, 1000, 2048, 3000, 1 << 20, 1 << 45] {
            let idx = LogHistogram::index(us);
            let hi = LogHistogram::upper_edge_us(idx);
            if (1..1u64 << OCTAVES).contains(&us) {
                assert!(us < hi, "us {us} must fall below its bucket edge {hi}");
                assert!(
                    hi as f64 <= (us.max(1) as f64) * 1.125 + 1.0,
                    "edge {hi} too far above {us}"
                );
            }
            assert!(idx < NUM_BUCKETS);
        }
        let mut last = 0;
        for us in 1..10_000u64 {
            let idx = LogHistogram::index(us);
            assert!(idx >= last, "bucket index regressed at {us}");
            last = idx;
        }
    }

    #[test]
    fn histogram_quantiles_are_conservative() {
        let h = LogHistogram::new();
        for us in 1..=100u64 {
            h.record(Duration::from_micros(us));
        }
        let p50 = h.quantile(0.5);
        assert!(p50 >= Duration::from_micros(50));
        assert!(p50.as_secs_f64() <= 50e-6 * 1.125 + 1e-6);
        assert_eq!(h.count(), 100);
        assert!(h.sum_seconds() > 0.0);
        assert_eq!(LogHistogram::default().quantile(0.5), Duration::ZERO);
    }

    #[test]
    fn snapshot_is_stable_and_exposition_round_trips() {
        let reg = MetricsRegistry::new();
        reg.counter("ccdp_b_total").add(7);
        reg.counter("ccdp_a_total").add(3);
        reg.counter_with("ccdp_c_total", &[("phase", "lp")]).add(1);
        reg.counter_with("ccdp_c_total", &[("phase", "anchor")])
            .add(2);
        reg.float_counter("ccdp_d_seconds").add(1.25);
        reg.gauge("ccdp_e_depth").set(-4);
        reg.histogram("ccdp_f_latency_seconds")
            .record(Duration::from_millis(3));

        let snap = reg.snapshot();
        let names: Vec<&str> = snap.series.iter().map(|s| s.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "snapshot must be name-sorted");
        assert_eq!(snap.value("ccdp_a_total"), Some(3.0));
        assert_eq!(snap.sum("ccdp_c_total"), 3.0);

        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE ccdp_a_total counter"));
        assert!(text.contains("ccdp_c_total{phase=\"anchor\"} 2"));
        assert!(text.contains("# TYPE ccdp_f_latency_seconds summary"));
        assert!(text.contains("ccdp_f_latency_seconds_count 1"));
        assert!(
            text.ends_with("# EOF\n"),
            "exposition must terminate with the `# EOF` marker"
        );

        let parsed = parse_exposition(&text);
        let lookup: HashMap<_, _> = parsed.into_iter().collect();
        assert_eq!(lookup["ccdp_a_total"], 3.0);
        assert_eq!(lookup["ccdp_b_total"], 7.0);
        assert_eq!(lookup["ccdp_c_total{phase=\"lp\"}"], 1.0);
        assert!((lookup["ccdp_d_seconds"] - 1.25).abs() < 1e-9);
        assert_eq!(lookup["ccdp_e_depth"], -4.0);
        assert_eq!(lookup["ccdp_f_latency_seconds_count"], 1.0);
    }
}
