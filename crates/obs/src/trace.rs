//! Request-scoped tracing: 128-bit trace ids minted at the serving boundary,
//! typed span events emitted into a bounded lock-free ring, and per-trace
//! assembly into a span tree.
//!
//! The hot-path contract is strict: with tracing disabled, every emission is
//! **one branch** (a relaxed load of the enabled flag) and nothing else; with
//! tracing enabled, an emission is one `fetch_add` to claim a slot plus a
//! handful of relaxed stores stamped by a per-slot sequence word (a seqlock)
//! and one store into the stripe's trace-id index,
//! so writers never block each other or readers. The ring is striped per
//! emitting thread (cacheline-aligned slots, thread-sticky stripes), so the
//! lines a worker dirties stay in its own core's cache rather than bouncing
//! between workers. The ring is bounded: old events are overwritten, dropped
//! counts are observable, and assembly of an evicted trace simply comes back
//! incomplete or absent — tracing is a diagnostic surface, never
//! backpressure.
//!
//! Reading one trace ([`Tracer::events`]) walks a dense per-slot index of
//! trace ids (8 bytes per slot) rather than every slot's cacheline, and
//! decodes and sorts only that trace's events, so a caller that reads back
//! every traced request pays per read a small fraction of a full-ring
//! decode.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
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

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic trace-id generator: a seed plus an atomic counter, so a
/// seeded test mints the same id sequence every run while production servers
/// seed from their config and stay collision-free across requests.
#[derive(Debug)]
pub struct TraceIdGen {
    seed: u64,
    counter: AtomicU64,
}

impl TraceIdGen {
    /// A generator whose mint sequence is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        TraceIdGen {
            seed,
            counter: AtomicU64::new(0),
        }
    }

    /// Mints the next id (never zero).
    pub fn mint(&self) -> TraceId {
        let c = self.counter.fetch_add(1, Ordering::Relaxed);
        let hi = splitmix64(self.seed ^ splitmix64(c));
        let lo = splitmix64(c.wrapping_mul(0xD131_0BA6_985F_F3A7) ^ self.seed.rotate_left(17));
        let id = ((hi as u128) << 64) | lo as u128;
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
    /// Release noise drawn (`aux` = words consumed from the prefetch batch).
    NoiseDraw,
    /// A release was produced (`dur` = worker handle time).
    Release,
    /// The request failed after dequeue (`dur` = worker handle time).
    Failed,
}

impl SpanKind {
    fn code(self) -> u64 {
        match self {
            SpanKind::Queued => 1,
            SpanKind::QueueRefused => 2,
            SpanKind::Dequeued => 3,
            SpanKind::BudgetCharge => 4,
            SpanKind::BudgetRefusal => 5,
            SpanKind::CacheHit => 6,
            SpanKind::CacheMiss => 7,
            SpanKind::CacheCoalesced => 8,
            SpanKind::Phase => 9,
            SpanKind::NoiseDraw => 10,
            SpanKind::Release => 11,
            SpanKind::Failed => 12,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        Some(match code {
            1 => SpanKind::Queued,
            2 => SpanKind::QueueRefused,
            3 => SpanKind::Dequeued,
            4 => SpanKind::BudgetCharge,
            5 => SpanKind::BudgetRefusal,
            6 => SpanKind::CacheHit,
            7 => SpanKind::CacheMiss,
            8 => SpanKind::CacheCoalesced,
            9 => SpanKind::Phase,
            10 => SpanKind::NoiseDraw,
            11 => SpanKind::Release,
            12 => SpanKind::Failed,
            _ => return None,
        })
    }

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

/// One decoded event from the ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// The trace this event belongs to.
    pub trace: TraceId,
    /// What happened.
    pub kind: SpanKind,
    /// Phase name for [`SpanKind::Phase`] events, empty otherwise.
    pub name: String,
    /// Event time in microseconds since the tracer's epoch.
    pub at_micros: u64,
    /// Duration in nanoseconds (0 for instantaneous markers).
    pub dur_nanos: u64,
    /// Kind-specific payload (ε bits, queue depth, noise words).
    pub aux: u64,
}

const SLOT_WORDS: usize = 6;

/// One seqlocked ring slot: a stamp word plus the event fields. The stamp
/// holds `2·idx+1` while a writer owns the slot and `2·idx+2` once the
/// fields are complete, so readers detect both in-progress and reused slots.
///
/// Cacheline-aligned so an emission dirties exactly one slot line: the ring
/// is larger than cache, so every write is a read-for-ownership miss, and an
/// unaligned 56-byte slot would straddle two lines and pay that miss twice.
/// (The stripe's id index adds one more line per eight emissions.)
#[derive(Debug)]
#[repr(align(64))]
struct Slot {
    stamp: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn new() -> Self {
        Slot {
            stamp: AtomicU64::new(0),
            words: Default::default(),
        }
    }
}

/// Ring stripes (power of two). Each emitting thread is pinned to one
/// stripe, so the cachelines a thread dirties stay in its own core's cache
/// instead of bouncing between workers: with a single shared ring,
/// consecutive slots are claimed by whichever worker emits next, and every
/// emission pays a cross-core read-for-ownership miss on a line some other
/// core wrote last.
const STRIPES: usize = 8;

/// One per-thread-group ring stripe: its own head and slot array. Aligned
/// so neighboring stripes' heads never share a cacheline.
#[repr(align(64))]
#[derive(Debug)]
struct Stripe {
    head: AtomicU64,
    slots: Box<[Slot]>,
    /// `ids[i]` is the low word of the trace id last written to `slots[i]`:
    /// a dense index that lets a per-trace read skip a slot after one
    /// 8-byte load instead of pulling in the slot's whole cacheline. Only a
    /// hint; the seqlocked slot words decide.
    ids: Box<[AtomicU64]>,
}

/// Round-robin thread → stripe coloring, assigned on a thread's first
/// emission and sticky for its lifetime. Process-global on purpose: stripe
/// affinity is about which *core* owns which cachelines, not about which
/// tracer is written.
fn thread_stripe() -> usize {
    use std::cell::Cell;
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|c| {
        let mut v = c.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
            c.set(v);
        }
        v
    })
}

/// Default ring capacity: 64Ki events (8Ki per stripe) ≈ a few thousand
/// full request traces.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// The bounded lock-free span ring plus the phase-name interner.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    stripes: Box<[Stripe]>,
    stripe_mask: u64,
    names: RwLock<Vec<String>>,
    name_ids: RwLock<HashMap<String, u32>>,
}

impl Tracer {
    /// A tracer with the default ring capacity, enabled.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A tracer holding `capacity` events total, split evenly across the
    /// stripes (per-stripe capacity rounded up to a power of two, min 8).
    pub fn with_capacity(capacity: usize) -> Self {
        let per_stripe = (capacity / STRIPES).max(8).next_power_of_two();
        Tracer {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            stripes: (0..STRIPES)
                .map(|_| Stripe {
                    head: AtomicU64::new(0),
                    slots: (0..per_stripe).map(|_| Slot::new()).collect(),
                    ids: (0..per_stripe).map(|_| AtomicU64::new(0)).collect(),
                })
                .collect(),
            stripe_mask: per_stripe as u64 - 1,
            names: RwLock::new(Vec::new()),
            name_ids: RwLock::new(HashMap::new()),
        }
    }

    /// Whether emissions record anything. The load is the *entire* cost of
    /// a disabled emission.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (existing ring contents stay readable).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Microseconds since this tracer's epoch.
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Total events ever recorded (including since-overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.head.load(Ordering::Relaxed))
            .sum()
    }

    /// Events lost to ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| {
                s.head
                    .load(Ordering::Relaxed)
                    .saturating_sub(s.slots.len() as u64)
            })
            .sum()
    }

    fn intern(&self, name: &str) -> u32 {
        if let Some(&id) = self.name_ids.read().unwrap().get(name) {
            return id;
        }
        let mut ids = self.name_ids.write().unwrap();
        if let Some(&id) = ids.get(name) {
            return id;
        }
        let mut names = self.names.write().unwrap();
        let id = names.len() as u32;
        names.push(name.to_string());
        ids.insert(name.to_string(), id);
        id
    }

    fn name_of(&self, id: u32) -> String {
        self.names
            .read()
            .unwrap()
            .get(id as usize)
            .cloned()
            .unwrap_or_default()
    }

    /// Emits an unnamed event. One branch when disabled.
    #[inline]
    pub fn emit(&self, trace: TraceId, kind: SpanKind, dur: Duration, aux: u64) {
        if !self.enabled() {
            return;
        }
        self.write(trace, kind, u32::MAX, dur, aux);
    }

    /// Emits a named [`SpanKind::Phase`] event. One branch when disabled.
    #[inline]
    pub fn emit_phase(&self, trace: TraceId, name: &str, dur: Duration) {
        if !self.enabled() {
            return;
        }
        let name_id = self.intern(name);
        self.write(trace, SpanKind::Phase, name_id, dur, 0);
    }

    /// Interns `name` and returns the id [`emit_phase_id`](Self::emit_phase_id)
    /// takes. Ids are stable for the tracer's lifetime, so an emission
    /// boundary that replays the same few phase names per request can cache
    /// them and skip the interner's lock on the hot path.
    pub fn intern_name(&self, name: &str) -> u32 {
        self.intern(name)
    }

    /// Emits a [`SpanKind::Phase`] event under a pre-interned name id. One
    /// branch when disabled.
    #[inline]
    pub fn emit_phase_id(&self, trace: TraceId, name_id: u32, dur: Duration) {
        if !self.enabled() {
            return;
        }
        self.write(trace, SpanKind::Phase, name_id, dur, 0);
    }

    fn write(&self, trace: TraceId, kind: SpanKind, name_id: u32, dur: Duration, aux: u64) {
        // Stored in nanoseconds and truncated to micros at decode: `as_micros`
        // is a u128 division, and this is the per-event hot path.
        let at = self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let stripe = &self.stripes[thread_stripe()];
        let idx = stripe.head.fetch_add(1, Ordering::Relaxed);
        let pos = (idx & self.stripe_mask) as usize;
        let slot = &stripe.slots[pos];
        // Pull the *next* slot's line toward this core now, so its
        // read-for-ownership miss overlaps with the request work between
        // emissions instead of stalling the next emission. Stripes make the
        // prefetch sound: the next slot of this stripe is written by this
        // thread, not by whichever worker emits next process-wide.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let next = &stripe.slots[((idx + 1) & self.stripe_mask) as usize];
            _mm_prefetch(next as *const Slot as *const i8, _MM_HINT_T0);
        }
        // Seqlock write: odd stamp while the fields are torn, then the final
        // even stamp published with release ordering.
        slot.stamp.store(idx * 2 + 1, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Release);
        slot.words[0].store(trace.0 as u64, Ordering::Relaxed);
        slot.words[1].store((trace.0 >> 64) as u64, Ordering::Relaxed);
        stripe.ids[pos].store(trace.0 as u64, Ordering::Relaxed);
        slot.words[2].store(kind.code() | ((name_id as u64) << 8), Ordering::Relaxed);
        slot.words[3].store(at, Ordering::Relaxed);
        slot.words[4].store(
            dur.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        slot.words[5].store(aux, Ordering::Relaxed);
        slot.stamp.store(idx * 2 + 2, Ordering::Release);
    }

    fn read_slot(&self, slot: &Slot) -> Option<(u64, [u64; SLOT_WORDS])> {
        let s1 = slot.stamp.load(Ordering::Acquire);
        if s1 == 0 || s1 % 2 == 1 {
            return None;
        }
        let mut words = [0u64; SLOT_WORDS];
        for (i, w) in words.iter_mut().enumerate() {
            *w = slot.words[i].load(Ordering::Relaxed);
        }
        std::sync::atomic::fence(Ordering::Acquire);
        let s2 = slot.stamp.load(Ordering::Relaxed);
        if s1 != s2 {
            return None;
        }
        Some((s1 / 2 - 1, words))
    }

    fn decode(&self, words: [u64; SLOT_WORDS]) -> Option<SpanEvent> {
        let kind = SpanKind::from_code(words[2] & 0xFF)?;
        let name_id = (words[2] >> 8) as u32;
        Some(SpanEvent {
            trace: TraceId((words[0] as u128) | ((words[1] as u128) << 64)),
            kind,
            name: if kind == SpanKind::Phase && name_id != u32::MAX {
                self.name_of(name_id)
            } else {
                String::new()
            },
            at_micros: words[3] / 1000,
            dur_nanos: words[4],
            aux: words[5],
        })
    }

    /// All currently-held events, in emission order.
    fn scan(&self) -> Vec<SpanEvent> {
        self.scan_where(None)
    }

    /// The currently-held events — of one trace, or all of them — in
    /// emission order. With a trace, a slot whose [`Stripe::ids`] entry
    /// differs is skipped before its seqlocked read, and only the matches
    /// are decoded (no phase-name `String` for the rest) and sorted.
    /// Stripe-local indices only order events within a stripe, so the
    /// global order is the raw nanosecond timestamp, tie-broken by
    /// (stripe, index) for determinism.
    fn scan_where(&self, trace: Option<TraceId>) -> Vec<SpanEvent> {
        let (lo, hi) = trace.map_or((0, 0), |t| (t.0 as u64, (t.0 >> 64) as u64));
        let mut raw = Vec::new();
        for (stripe_idx, stripe) in self.stripes.iter().enumerate() {
            for (slot, id) in stripe.slots.iter().zip(stripe.ids.iter()) {
                if trace.is_some() && id.load(Ordering::Relaxed) != lo {
                    continue;
                }
                if let Some((idx, words)) = self.read_slot(slot) {
                    if trace.is_none() || (words[0] == lo && words[1] == hi) {
                        raw.push((words[3], stripe_idx, idx, words));
                    }
                }
            }
        }
        raw.sort_by_key(|&(at, stripe, idx, _)| (at, stripe, idx));
        raw.into_iter()
            .filter_map(|(_, _, _, words)| self.decode(words))
            .collect()
    }

    /// The events of one trace, in emission order. Cost: one pass over the
    /// dense id index (8 bytes per slot, not the slot's cacheline) plus a
    /// seqlocked read, decode and sort of this trace's events only.
    pub fn events(&self, trace: TraceId) -> Vec<SpanEvent> {
        self.scan_where(Some(trace))
    }

    /// Assembles one trace's events into a span tree. `None` if the ring no
    /// longer holds any event of this trace.
    pub fn assemble(&self, trace: TraceId) -> Option<TraceTree> {
        let events = self.events(trace);
        if events.is_empty() {
            return None;
        }
        Some(assemble_tree(trace, &events))
    }

    /// The `n` slowest fully-finished traces currently in the ring (by
    /// first-event-to-last-event-end wall clock), slowest first.
    pub fn slowest(&self, n: usize) -> Vec<TraceSummary> {
        let mut per_trace: HashMap<TraceId, (u64, u64, usize, bool)> = HashMap::new();
        for ev in self.scan() {
            let end = ev.at_micros * 1000 + ev.dur_nanos;
            let entry = per_trace
                .entry(ev.trace)
                .or_insert((ev.at_micros, end, 0, false));
            entry.0 = entry.0.min(ev.at_micros);
            entry.1 = entry.1.max(end);
            entry.2 += 1;
            entry.3 |= matches!(
                ev.kind,
                SpanKind::Release | SpanKind::Failed | SpanKind::BudgetRefusal
            );
        }
        let mut summaries: Vec<TraceSummary> = per_trace
            .into_iter()
            .filter(|(_, (_, _, _, finished))| *finished)
            .map(|(id, (start, end, events, _))| TraceSummary {
                id,
                start_micros: start,
                total_nanos: end.saturating_sub(start * 1000),
                events,
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
    pub fn phase(&self, name: &str, dur: Duration) {
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

        let tree = tracer.assemble(id).expect("trace is in the ring");
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
        // Stripes are assigned round-robin from a process-global counter, so
        // concurrent tests can push any number of these 8 emitters onto one
        // stripe. Size every stripe to hold all 8 × 128 events: no emitter
        // can then overwrite another's whole trace.
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
    fn events_of_one_trace_equal_the_filtered_full_scan() {
        // Interleave several traces from several threads (phases included,
        // so names are decoded), then check the per-trace read against the
        // full decode-and-sort it replaced.
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
        let all = tracer.scan();
        assert_eq!(all.len(), 4 * 8 * 3);
        for id in (1..=32u128).map(TraceId).chain([TraceId(u128::MAX)]) {
            let expected: Vec<SpanEvent> =
                all.iter().filter(|ev| ev.trace == id).cloned().collect();
            assert_eq!(tracer.events(id), expected, "trace {id}");
        }
        // Ids that share a low word but not a high word stay apart.
        tracer.emit(TraceId(1 | (1 << 64)), SpanKind::Queued, Duration::ZERO, 0);
        assert_eq!(tracer.events(TraceId(1)).len(), 3);
        assert_eq!(tracer.events(TraceId(1 | (1 << 64))).len(), 1);
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
