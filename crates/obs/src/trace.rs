//! Request-scoped tracing: 128-bit trace ids minted at the serving boundary,
//! typed span events recorded into a bounded per-trace store, and per-trace
//! assembly into a span tree.
//!
//! With tracing disabled, every emission is **one branch** (a relaxed load of
//! the enabled flag) and nothing else. With tracing enabled, an emission locks
//! the store, stamps the event and appends it to its trace's event list, so
//! each trace's events are held in emission order. Inside
//! [`Tracer::batch`], a thread's emissions for the batched trace are stamped
//! and held back instead, then appended under one lock when the batch ends:
//! a serving worker takes the lock once per request.
//!
//! The store is bounded: past its capacity it evicts whole traces, oldest
//! first, and counts their events as dropped. A trace still running when it
//! is evicted resumes as a new entry that holds only its later events.
//! Tracing is a diagnostic surface, never backpressure.
//!
//! Reading one trace ([`Tracer::events`]) is one map lookup and a copy of
//! that trace's events.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A 128-bit request trace id, rendered as 32 lowercase hex digits (the
/// `X-Ccdp-Trace` header value and the `/trace/{id}` path segment).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u128);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl FromStr for TraceId {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        if s.is_empty() || s.len() > 32 {
            return Err(());
        }
        u128::from_str_radix(s, 16).map(TraceId).map_err(|_| ())
    }
}

/// Trace-id generator: a key plus an atomic counter. Each id is a hash of
/// the key and the counter, so ids stay collision-free across requests and
/// none of them gives away the key or the ids minted before or after it. A
/// seeded test mints the same id sequence every run; a server keys its
/// generator from a secret that nothing else uses.
#[derive(Debug)]
pub struct TraceIdGen {
    key: u64,
    counter: AtomicU64,
}

impl TraceIdGen {
    /// A generator whose mint sequence is a pure function of `key`.
    pub fn new(key: u64) -> Self {
        TraceIdGen {
            key,
            counter: AtomicU64::new(0),
        }
    }

    /// Mints the next id (never zero).
    pub fn mint(&self) -> TraceId {
        let c = self.counter.fetch_add(1, Ordering::Relaxed);
        let word = |lane: u64| {
            let mut h = DefaultHasher::new();
            (self.key, c, lane).hash(&mut h);
            h.finish()
        };
        let id = ((word(0) as u128) << 64) | word(1) as u128;
        TraceId(if id == 0 { 1 } else { id })
    }
}

/// The typed span events a request emits on its way through the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Accepted into the worker queue (`aux` = queue depth after enqueue).
    Queued,
    /// Refused at submission with a full queue (the 429 path).
    QueueRefused,
    /// Picked up by a worker (`dur` = time spent queued).
    Dequeued,
    /// Budget ledger accepted the spend (`aux` = ε as `f64` bits).
    BudgetCharge,
    /// Budget ledger refused the spend (`aux` = ε as `f64` bits; 403 path).
    BudgetRefusal,
    /// Family cache hit.
    CacheHit,
    /// Family cache miss (`dur` = the family evaluation this trace led).
    CacheMiss,
    /// Family cache miss coalesced onto another trace's in-flight
    /// evaluation (`dur` = time spent waiting on the leader).
    CacheCoalesced,
    /// One solver phase (named; `dur` = phase wall clock).
    Phase,
    /// Release noise drawn (`aux` = words drawn from the release's RNG).
    NoiseDraw,
    /// A release was produced (`dur` = worker handle time).
    Release,
    /// The request failed after dequeue (`dur` = worker handle time).
    Failed,
}

impl SpanKind {
    /// The stable span name this event assembles into.
    pub fn span_name(self) -> &'static str {
        match self {
            SpanKind::Queued => "queued",
            SpanKind::QueueRefused => "queue/refused",
            SpanKind::Dequeued => "dequeued",
            SpanKind::BudgetCharge => "budget/charge",
            SpanKind::BudgetRefusal => "budget/refusal",
            SpanKind::CacheHit => "cache/hit",
            SpanKind::CacheMiss => "cache/miss",
            SpanKind::CacheCoalesced => "cache/coalesced",
            SpanKind::Phase => "phase",
            SpanKind::NoiseDraw => "noise/draw",
            SpanKind::Release => "release",
            SpanKind::Failed => "failed",
        }
    }
}

/// One recorded span event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// The trace this event belongs to.
    pub trace: TraceId,
    /// What happened.
    pub kind: SpanKind,
    /// Phase name for [`SpanKind::Phase`] events, empty otherwise.
    pub name: &'static str,
    /// Event time in microseconds since the tracer's epoch.
    pub at_micros: u64,
    /// Duration in nanoseconds (0 for instantaneous markers).
    pub dur_nanos: u64,
    /// Kind-specific payload (ε bits, queue depth, noise words).
    pub aux: u64,
}

/// Default store bound: 64Ki held events ≈ a few thousand full request
/// traces.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// What the tracer holds: each trace's events in emission order, plus the
/// traces oldest first, so eviction can drop whole traces.
#[derive(Debug, Default)]
struct Store {
    traces: HashMap<TraceId, Vec<SpanEvent>>,
    oldest_first: VecDeque<TraceId>,
    /// The emptied buffer of the last evicted trace, which the next new
    /// trace takes over: a full store records without allocating.
    spare: Vec<SpanEvent>,
    held: usize,
    dropped: u64,
}

impl Store {
    /// The held trace `id`, created empty (as the newest) if absent.
    fn trace(&mut self, id: TraceId) -> &mut Vec<SpanEvent> {
        let (oldest_first, spare) = (&mut self.oldest_first, &mut self.spare);
        self.traces.entry(id).or_insert_with(|| {
            oldest_first.push_back(id);
            std::mem::take(spare)
        })
    }

    /// Counts `added` new events, then evicts whole traces, oldest first,
    /// until at most `capacity` events are held.
    fn added(&mut self, added: usize, capacity: usize) {
        self.held += added;
        while self.held > capacity {
            let Some(oldest) = self.oldest_first.pop_front() else {
                break;
            };
            if let Some(mut evicted) = self.traces.remove(&oldest) {
                self.held -= evicted.len();
                self.dropped += evicted.len() as u64;
                evicted.clear();
                self.spare = evicted;
            }
        }
    }
}

/// The events [`Tracer::batch`] holds back on this thread: the tracer and
/// trace being batched, if any, and a buffer kept across batches.
struct Batch {
    open: Option<(*const Tracer, TraceId)>,
    events: Vec<SpanEvent>,
}

thread_local! {
    static BATCH: RefCell<Batch> = const {
        RefCell::new(Batch {
            open: None,
            events: Vec::new(),
        })
    };
}

/// The bounded per-trace span store.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    capacity: usize,
    store: Mutex<Store>,
}

impl Tracer {
    /// A tracer holding up to [`DEFAULT_TRACE_CAPACITY`] events, enabled.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A tracer holding up to `capacity` events. Nothing is allocated until
    /// an event is recorded.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            capacity,
            store: Mutex::new(Store::default()),
        }
    }

    /// Whether emissions record anything. The load is the *entire* cost of
    /// a disabled emission.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (held events stay readable).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Locks the store. No update can panic halfway, so a store whose lock
    /// was poisoned by a panicking emitter is still consistent.
    fn lock(&self) -> MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Total events ever recorded (including since-evicted ones).
    pub fn recorded(&self) -> u64 {
        let store = self.lock();
        store.held as u64 + store.dropped
    }

    /// Events lost to eviction.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Emits an unnamed event. One branch when disabled.
    #[inline]
    pub fn emit(&self, trace: TraceId, kind: SpanKind, dur: Duration, aux: u64) {
        if !self.enabled() {
            return;
        }
        self.record(trace, kind, "", dur, aux);
    }

    /// Emits a named [`SpanKind::Phase`] event. One branch when disabled.
    #[inline]
    pub fn emit_phase(&self, trace: TraceId, name: &'static str, dur: Duration) {
        if !self.enabled() {
            return;
        }
        self.record(trace, SpanKind::Phase, name, dur, 0);
    }

    /// Runs `f` with this thread's emissions for `trace` held back, then
    /// appends them to the trace under one lock, however `f` ends: a
    /// request's worker takes the store's lock once, not once per event.
    /// Emissions for other traces or tracers, and from other threads, are
    /// recorded as usual; inside a batch for another trace, `f` just runs.
    pub fn batch<R>(&self, trace: TraceId, f: impl FnOnce() -> R) -> R {
        let key = (self as *const Tracer, trace);
        if !self.enabled() || BATCH.with(|b| *b.borrow_mut().open.get_or_insert(key) != key) {
            return f();
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        BATCH.with(|b| {
            let mut b = b.borrow_mut();
            b.open = None;
            let added = b.events.len();
            if added > 0 {
                let mut store = self.lock();
                store.trace(trace).append(&mut b.events);
                store.added(added, self.capacity);
            }
        });
        outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    /// Appends one event to its trace: to this thread's open batch for it if
    /// there is one, else to the store, evicting whole traces, oldest first,
    /// until it holds at most `capacity` events.
    fn record(&self, trace: TraceId, kind: SpanKind, name: &'static str, dur: Duration, aux: u64) {
        let event = || SpanEvent {
            trace,
            kind,
            name,
            at_micros: self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64,
            dur_nanos: dur.as_nanos().min(u64::MAX as u128) as u64,
            aux,
        };
        let batched = BATCH
            .try_with(|b| {
                let mut b = b.borrow_mut();
                let held = b.open == Some((self as *const Tracer, trace));
                if held {
                    b.events.push(event());
                }
                held
            })
            .unwrap_or(false);
        if batched {
            return;
        }
        let mut store = self.lock();
        store.trace(trace).push(event());
        store.added(1, self.capacity);
    }

    /// The events of one trace, in emission order. Cost: one map lookup and
    /// a copy of this trace's events.
    pub fn events(&self, trace: TraceId) -> Vec<SpanEvent> {
        self.lock().traces.get(&trace).cloned().unwrap_or_default()
    }

    /// Assembles one trace's events into a span tree. `None` if the store
    /// no longer holds this trace.
    pub fn assemble(&self, trace: TraceId) -> Option<TraceTree> {
        let events = self.events(trace);
        if events.is_empty() {
            return None;
        }
        Some(assemble_tree(trace, &events))
    }

    /// The `n` slowest fully-finished traces currently held (by
    /// first-event-to-last-event-end wall clock), slowest first.
    pub fn slowest(&self, n: usize) -> Vec<TraceSummary> {
        let mut summaries: Vec<TraceSummary> = self
            .lock()
            .traces
            .iter()
            .filter(|(_, evs)| {
                evs.iter().any(|ev| {
                    matches!(
                        ev.kind,
                        SpanKind::Release | SpanKind::Failed | SpanKind::BudgetRefusal
                    )
                })
            })
            .map(|(&id, evs)| {
                let start = evs.iter().map(|ev| ev.at_micros).min().unwrap_or(0);
                let end = evs
                    .iter()
                    .map(|ev| ev.at_micros * 1000 + ev.dur_nanos)
                    .max()
                    .unwrap_or(0);
                TraceSummary {
                    id,
                    start_micros: start,
                    total_nanos: end.saturating_sub(start * 1000),
                    events: evs.len(),
                }
            })
            .collect();
        summaries.sort_by(|a, b| b.total_nanos.cmp(&a.total_nanos).then(a.id.cmp(&b.id)));
        summaries.truncate(n);
        summaries
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// A trace id bound to the tracer it emits into — the value threaded through
/// `ServeRequest` → worker → `EstimatorConfig` → release. Cloning shares the
/// tracer.
#[derive(Clone, Debug)]
pub struct TraceCtx {
    /// The request's trace id.
    pub id: TraceId,
    /// Where its events go.
    pub tracer: Arc<Tracer>,
}

impl TraceCtx {
    /// Binds an id to a tracer.
    pub fn new(id: TraceId, tracer: Arc<Tracer>) -> Self {
        TraceCtx { id, tracer }
    }

    /// Emits an instantaneous marker.
    #[inline]
    pub fn event(&self, kind: SpanKind) {
        self.tracer.emit(self.id, kind, Duration::ZERO, 0);
    }

    /// Emits a marker with a duration.
    #[inline]
    pub fn event_timed(&self, kind: SpanKind, dur: Duration) {
        self.tracer.emit(self.id, kind, dur, 0);
    }

    /// Emits a marker with a duration and payload.
    #[inline]
    pub fn event_full(&self, kind: SpanKind, dur: Duration, aux: u64) {
        self.tracer.emit(self.id, kind, dur, aux);
    }

    /// Emits a named solver-phase span.
    #[inline]
    pub fn phase(&self, name: &'static str, dur: Duration) {
        self.tracer.emit_phase(self.id, name, dur);
    }
}

/// One assembled span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Stable span name (`queued`, `cache/miss`, `phase/family/lp`, …).
    pub name: String,
    /// Start in microseconds since the tracer epoch.
    pub start_micros: u64,
    /// Duration in nanoseconds (0 for markers).
    pub duration_nanos: u64,
    /// Kind-specific detail (`ε=0.25`, `words=2`, `depth=3`).
    pub detail: Option<String>,
    /// Nested spans (solver phases under their cache miss).
    pub children: Vec<Span>,
}

/// A fully assembled trace.
#[derive(Clone, Debug)]
pub struct TraceTree {
    /// The trace id.
    pub id: TraceId,
    /// First event time (µs since tracer epoch).
    pub start_micros: u64,
    /// First-event-to-last-event-end wall clock.
    pub total_nanos: u64,
    /// Top-level spans in time order.
    pub spans: Vec<Span>,
}

impl TraceTree {
    /// Every span name in the tree (depth-first), for skeleton assertions.
    pub fn span_names(&self) -> Vec<String> {
        fn walk(spans: &[Span], out: &mut Vec<String>) {
            for s in spans {
                out.push(s.name.clone());
                walk(&s.children, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.spans, &mut out);
        out
    }
}

/// Digest of one trace for `slowest`-style rankings.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// The trace id.
    pub id: TraceId,
    /// First event time (µs since tracer epoch).
    pub start_micros: u64,
    /// First-event-to-last-event-end wall clock.
    pub total_nanos: u64,
    /// Events currently held for this trace.
    pub events: usize,
}

fn assemble_tree(id: TraceId, events: &[SpanEvent]) -> TraceTree {
    let start = events.iter().map(|e| e.at_micros).min().unwrap_or(0);
    let end = events
        .iter()
        .map(|e| e.at_micros * 1000 + e.dur_nanos)
        .max()
        .unwrap_or(0);
    let mut spans: Vec<Span> = Vec::new();
    for ev in events {
        let span = Span {
            name: match ev.kind {
                SpanKind::Phase => format!("phase/{}", ev.name),
                other => other.span_name().to_string(),
            },
            start_micros: ev.at_micros,
            duration_nanos: ev.dur_nanos,
            detail: match ev.kind {
                SpanKind::Queued => Some(format!("depth={}", ev.aux)),
                SpanKind::BudgetCharge | SpanKind::BudgetRefusal => {
                    Some(format!("epsilon={}", f64::from_bits(ev.aux)))
                }
                SpanKind::NoiseDraw => Some(format!("words={}", ev.aux)),
                _ => None,
            },
            children: Vec::new(),
        };
        // Solver phases from the family evaluation nest under the cache miss
        // that led it; release-side phases stay top-level.
        let nest_under_miss = ev.kind == SpanKind::Phase && ev.name.starts_with("family/");
        if nest_under_miss {
            if let Some(miss) = spans.iter_mut().rev().find(|s| s.name == "cache/miss") {
                miss.children.push(span);
                continue;
            }
        }
        spans.push(span);
    }
    TraceTree {
        id,
        start_micros: start,
        total_nanos: end.saturating_sub(start * 1000),
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_per_seed_and_round_trip() {
        let a = TraceIdGen::new(42);
        let b = TraceIdGen::new(42);
        let ids: Vec<TraceId> = (0..16).map(|_| a.mint()).collect();
        let again: Vec<TraceId> = (0..16).map(|_| b.mint()).collect();
        assert_eq!(ids, again);
        let mut uniq = ids.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), ids.len(), "no collisions in a short mint run");
        assert_ne!(TraceIdGen::new(43).mint(), ids[0]);
        for id in ids {
            assert_eq!(id.to_string().parse::<TraceId>().unwrap(), id);
            assert_eq!(id.to_string().len(), 32);
        }
        assert!("not-hex".parse::<TraceId>().is_err());
        assert!("".parse::<TraceId>().is_err());
    }

    #[test]
    fn emitted_events_assemble_into_the_request_skeleton() {
        let tracer = Arc::new(Tracer::new());
        let id = TraceIdGen::new(7).mint();
        let ctx = TraceCtx::new(id, Arc::clone(&tracer));
        ctx.event_full(SpanKind::Queued, Duration::ZERO, 3);
        ctx.event_timed(SpanKind::Dequeued, Duration::from_micros(120));
        ctx.event_full(SpanKind::BudgetCharge, Duration::ZERO, 0.25f64.to_bits());
        ctx.event_timed(SpanKind::CacheMiss, Duration::from_millis(4));
        ctx.phase("family/partition", Duration::from_millis(1));
        ctx.phase("family/lp", Duration::from_millis(2));
        ctx.phase("release/mechanisms", Duration::from_micros(80));
        ctx.event_full(SpanKind::NoiseDraw, Duration::from_micros(5), 2);
        ctx.event_timed(SpanKind::Release, Duration::from_millis(5));

        let tree = tracer.assemble(id).expect("trace is in the store");
        let names = tree.span_names();
        assert_eq!(
            names,
            vec![
                "queued",
                "dequeued",
                "budget/charge",
                "cache/miss",
                "phase/family/partition",
                "phase/family/lp",
                "phase/release/mechanisms",
                "noise/draw",
                "release",
            ]
        );
        // Family phases are children of the miss; release phases are not.
        let miss = tree.spans.iter().find(|s| s.name == "cache/miss").unwrap();
        assert_eq!(miss.children.len(), 2);
        assert!(tree.total_nanos > 0);
        let budget = tree
            .spans
            .iter()
            .find(|s| s.name == "budget/charge")
            .unwrap();
        assert_eq!(budget.detail.as_deref(), Some("epsilon=0.25"));

        assert!(tracer.assemble(TraceId(0xDEAD)).is_none());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Arc::new(Tracer::new());
        tracer.set_enabled(false);
        let ctx = TraceCtx::new(TraceId(9), Arc::clone(&tracer));
        ctx.event(SpanKind::Queued);
        ctx.phase("family/lp", Duration::from_millis(1));
        assert_eq!(tracer.recorded(), 0);
        assert!(tracer.assemble(TraceId(9)).is_none());
        tracer.set_enabled(true);
        ctx.event(SpanKind::Queued);
        assert_eq!(tracer.recorded(), 1);
    }

    #[test]
    fn ring_wraps_and_counts_drops_without_blocking() {
        let tracer = Tracer::with_capacity(8);
        for i in 0..20u64 {
            tracer.emit(TraceId(i as u128 + 1), SpanKind::Queued, Duration::ZERO, 0);
        }
        assert_eq!(tracer.recorded(), 20);
        assert_eq!(tracer.dropped(), 12);
        // Only the newest 8 traces survive.
        assert!(tracer.assemble(TraceId(20)).is_some());
        assert!(tracer.assemble(TraceId(1)).is_none());
    }

    #[test]
    fn concurrent_emitters_never_corrupt_the_ring() {
        let tracer = Arc::new(Tracer::with_capacity(8 * 8 * 128));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let tracer = Arc::clone(&tracer);
                s.spawn(move || {
                    let ctx = TraceCtx::new(TraceId(t as u128 + 1), tracer);
                    for _ in 0..64 {
                        ctx.event(SpanKind::Queued);
                        ctx.event_timed(SpanKind::Release, Duration::from_micros(10));
                    }
                });
            }
        });
        assert_eq!(tracer.recorded(), 8 * 128);
        // Every decodable event carries a valid kind and one of the 8 ids.
        for t in 1..=8u128 {
            let events = tracer.events(TraceId(t));
            assert!(!events.is_empty());
            for ev in events {
                assert!(matches!(ev.kind, SpanKind::Queued | SpanKind::Release));
            }
        }
    }

    #[test]
    fn events_of_one_trace_are_what_its_thread_emitted() {
        // Interleave several traces from several threads (phases included,
        // so names are recorded), then check each per-trace read against the
        // sequence its thread emitted.
        let tracer = Arc::new(Tracer::with_capacity(8 * 4 * 96));
        std::thread::scope(|s| {
            for t in 0..4u128 {
                let tracer = Arc::clone(&tracer);
                s.spawn(move || {
                    for round in 0..8u128 {
                        let ctx = TraceCtx::new(TraceId(round * 4 + t + 1), Arc::clone(&tracer));
                        ctx.event_full(SpanKind::Queued, Duration::ZERO, round as u64);
                        ctx.phase("family/lp", Duration::from_micros(3));
                        ctx.event_timed(SpanKind::Release, Duration::from_micros(7));
                    }
                });
            }
        });
        assert_eq!(tracer.recorded(), 4 * 8 * 3);
        for id in 1..=32u128 {
            let round = (id - 1) / 4;
            let events = tracer.events(TraceId(id));
            let got: Vec<(SpanKind, &str, u64, u64)> = events
                .iter()
                .map(|ev| (ev.kind, ev.name, ev.dur_nanos, ev.aux))
                .collect();
            assert_eq!(
                got,
                vec![
                    (SpanKind::Queued, "", 0, round as u64),
                    (SpanKind::Phase, "family/lp", 3_000, 0),
                    (SpanKind::Release, "", 7_000, 0),
                ],
                "trace {id}"
            );
            assert!(events.iter().all(|ev| ev.trace == TraceId(id)));
            assert!(events.windows(2).all(|w| w[0].at_micros <= w[1].at_micros));
        }
        assert!(tracer.events(TraceId(u128::MAX)).is_empty());
        // Ids that share a low word but not a high word stay apart.
        tracer.emit(TraceId(1 | (1 << 64)), SpanKind::Queued, Duration::ZERO, 0);
        assert_eq!(tracer.events(TraceId(1)).len(), 3);
        assert_eq!(tracer.events(TraceId(1 | (1 << 64))).len(), 1);
    }

    #[test]
    fn eviction_never_tears_a_trace() {
        // Four threads emit 3-event traces in lockstep rounds until the store
        // has wrapped many times. A round adds at most 12 events and the
        // store holds 24, so eviction only ever takes finished traces.
        const THREADS: u128 = 4;
        const ROUNDS: u128 = 64;
        let tracer = Arc::new(Tracer::with_capacity(24));
        let barrier = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (tracer, barrier) = (Arc::clone(&tracer), &barrier);
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        let id = TraceId(round * THREADS + t + 1);
                        for step in 0..3 {
                            tracer.emit(id, SpanKind::Queued, Duration::ZERO, step);
                        }
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(tracer.recorded(), (THREADS * ROUNDS * 3) as u64);
        assert!(
            tracer.dropped() >= 3 * 24,
            "the store wrapped several times"
        );
        let mut held = 0;
        for id in 1..=THREADS * ROUNDS {
            let events = tracer.events(TraceId(id));
            if events.is_empty() {
                continue;
            }
            let steps: Vec<u64> = events.iter().map(|ev| ev.aux).collect();
            assert_eq!(steps, vec![0, 1, 2], "trace {id} is whole and in order");
            held += events.len() as u64;
        }
        assert!(held > 0 && held <= 24);
        assert_eq!(tracer.recorded(), held + tracer.dropped());
    }

    #[test]
    fn a_batch_appends_its_events_when_it_ends() {
        let tracer = Tracer::new();
        let (id, other) = (TraceId(1), TraceId(2));
        tracer.emit(id, SpanKind::Queued, Duration::ZERO, 0);
        let answer = tracer.batch(id, || {
            tracer.emit(id, SpanKind::Dequeued, Duration::ZERO, 0);
            tracer.emit_phase(id, "release/mechanisms", Duration::from_micros(2));
            // Held back until the batch ends; other traces record at once.
            assert_eq!(tracer.events(id).len(), 1);
            tracer.emit(other, SpanKind::Queued, Duration::ZERO, 0);
            assert_eq!(tracer.events(other).len(), 1);
            // A nested batch just runs.
            tracer.batch(other, || {
                tracer.emit(id, SpanKind::Release, Duration::ZERO, 0)
            });
            42
        });
        assert_eq!(answer, 42);
        let events = tracer.events(id);
        let got: Vec<(SpanKind, &str)> = events.iter().map(|e| (e.kind, e.name)).collect();
        assert_eq!(
            got,
            vec![
                (SpanKind::Queued, ""),
                (SpanKind::Dequeued, ""),
                (SpanKind::Phase, "release/mechanisms"),
                (SpanKind::Release, ""),
            ]
        );
        assert!(events.windows(2).all(|w| w[0].at_micros <= w[1].at_micros));
        assert_eq!(tracer.recorded(), 5);

        // A batch that unwinds still appends what it held.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tracer.batch(TraceId(3), || {
                tracer.emit(TraceId(3), SpanKind::Dequeued, Duration::ZERO, 0);
                panic!("request handler failed");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(tracer.events(TraceId(3)).len(), 1);

        // A disabled tracer opens no batch and records nothing.
        tracer.set_enabled(false);
        tracer.batch(TraceId(4), || {
            tracer.emit(TraceId(4), SpanKind::Queued, Duration::ZERO, 0)
        });
        tracer.set_enabled(true);
        assert!(tracer.events(TraceId(4)).is_empty());
    }

    #[test]
    fn slowest_ranks_finished_traces_by_wall_clock() {
        let tracer = Arc::new(Tracer::new());
        for (id, ms) in [(1u128, 5u64), (2, 50), (3, 1)] {
            let ctx = TraceCtx::new(TraceId(id), Arc::clone(&tracer));
            ctx.event(SpanKind::Queued);
            ctx.event_timed(SpanKind::Release, Duration::from_millis(ms));
        }
        // An unfinished trace never ranks.
        tracer.emit(TraceId(99), SpanKind::Queued, Duration::ZERO, 0);
        let top = tracer.slowest(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].id, TraceId(2));
        assert!(top[0].total_nanos >= top[1].total_nanos);
        assert!(tracer.slowest(10).iter().all(|t| t.id != TraceId(99)));
    }
}
