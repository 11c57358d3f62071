//! Graph-keyed cache for the deterministic Lipschitz-extension family.
//!
//! Evaluating `{f_Δ}` on the selection grid is by far the most expensive part
//! of [`estimate()`](crate::PrivateSpanningForestEstimator::estimate) — and it
//! is *deterministic*: the same graph and grid always produce the same
//! family values (all randomness lives downstream, in GEM selection
//! and the Laplace release, and privacy is unaffected by caching a
//! data-dependent intermediate that never leaves the process). Multi-release
//! serving — several ε releases of one graph, error-measurement harnesses,
//! baseline comparisons — therefore pays the family cost once and replays it
//! from this cache afterwards (~20× cheaper repeated estimates).
//!
//! A lookup tagged with the snapshot it serves ([`GraphTag`]: graph id and
//! version) is keyed by that tag and the grid; no graph hashing happens on
//! that path. Only an untagged lookup is keyed by a 128-bit fingerprint of
//! the graph's CSR arena (plus vertex count and grid); the fingerprint is
//! memoized on the arena ([`CsrGraph::fingerprint`]), so only the first
//! untagged lookup of an arena hashes it. The cache is bounded in size with
//! LRU eviction (hits refresh an entry's recency), and safe to share across
//! estimators and threads. Every entry keeps the [`CsrGraph`] it was
//! computed from as a *witness*, and a key hit is confirmed against it
//! before it is served:
//!
//! * a request for the *same allocation* as the witness — the arena a
//!   serving registry published, passed as [`ArenaRef::Shared`] — is
//!   confirmed by pointer equality, so a hit on a published graph does no
//!   O(n + m) work;
//! * any other arena is compared with the witness (two flat `u32` arrays, a
//!   memory compare), so a fingerprint collision, or one tag used for two
//!   different graphs, degrades to a safe miss evaluated on the side, never
//!   to a wrong answer.
//!
//! The first caller of a key inserts its entry — the witness plus an empty
//! [`OnceLock`] — before it evaluates, and keeps a shared arena's `Arc` as
//! the witness; only a borrowed arena is copied, once per miss.
//!
//! Concurrent misses on the same key are **single-flighted** by that
//! once-cell: every caller runs `get_or_init`, so one evaluates while the
//! others wait and receive the same shared result, and a thundering herd of
//! identical requests costs one family evaluation instead of one per thread.
//! An error reaches everyone who waited on it and is then dropped, never
//! stored; a panicking evaluation leaves the cell empty, so the next waiter
//! evaluates instead of blocking forever, and its entry leaves the map as the
//! panic unwinds, so a later lookup is a plain miss. Because in-flight
//! entries live in the map, invalidating a superseded version drops them
//! too: their waiters still get the value, and nothing is stored.
//! Hit/miss/coalesce/eviction counters are exposed for tests and capacity
//! planning.
//!
//! The thread budget of an evaluation is deliberately **not** part of the
//! key: family values are bit-for-bit identical for every budget, so an
//! entry computed with 8 workers answers a sequential request and vice versa.
//!
//! Versions of one graph mostly share their components, so the cache also
//! carries solved classes across them: once it has evaluated a second
//! version of a graph id, it keeps one [`ClassMemo`] for that id, passes it
//! to the evaluation of each tagged miss on the id and replaces it with that
//! evaluation's classes. A graph served at one version keeps none, untagged
//! lookups never use one, and the memo leaves with the id's last entry. The
//! memo changes only how much work a miss does, never its values.

use crate::error::CoreError;
use crate::extension::{evaluate_family, ExtensionEvaluation};
use ccdp_exec::PhaseProfiler;
use ccdp_graph::{CsrGraph, GraphVersion};
use ccdp_lp::ClassMemo;
use ccdp_obs::{Counter, Gauge, MetricsRegistry, SpanKind, TraceCtx};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Default number of (graph, grid) entries kept per cache.
pub const DEFAULT_FAMILY_CACHE_CAPACITY: usize = 64;

/// Catalog identity of a graph snapshot: which graph, at which version.
///
/// Untagged evaluations are keyed by the arena's fingerprint. A serving or
/// streaming tier that names its graphs tags each evaluation with the
/// snapshot it came from, and the tag replaces the fingerprint in the key,
/// which buys three things: a new snapshot is never hashed, entries of
/// superseded versions can be [invalidated in
/// bulk](ExtensionCache::invalidate_versions_below), and a release served for
/// version `v` can never replay a family cached under any other version —
/// even if two versions happen to share an edge list, their cache entries
/// stay distinct. The witness still confirms every tagged hit, so a tag
/// reused for a different graph is a miss, never a replay.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct GraphTag {
    /// Catalog id of the graph.
    pub id: String,
    /// Snapshot version the evaluation belongs to.
    pub version: GraphVersion,
}

impl GraphTag {
    /// A tag for `id` at `version`.
    pub fn new(id: impl Into<String>, version: GraphVersion) -> Self {
        GraphTag {
            id: id.into(),
            version,
        }
    }
}

impl std::fmt::Display for GraphTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.id, self.version)
    }
}

/// A request arena as the cache sees it.
#[derive(Clone, Copy, Debug)]
pub enum ArenaRef<'a> {
    /// A caller-owned arena: the caller that inserts an entry copies it into
    /// the witness.
    Borrowed(&'a CsrGraph),
    /// A shared arena (such as the one a registry published): the caller
    /// that inserts an entry keeps the `Arc` as its witness, and later
    /// lookups with the same `Arc` are confirmed by pointer equality.
    Shared(&'a Arc<CsrGraph>),
}

impl<'a> ArenaRef<'a> {
    /// The arena itself.
    pub(crate) fn get(self) -> &'a CsrGraph {
        match self {
            ArenaRef::Borrowed(arena) => arena,
            ArenaRef::Shared(arena) => arena,
        }
    }

    /// The witness a new entry stores: the shared `Arc`, or a copy of a
    /// borrowed arena.
    fn to_witness(self) -> Arc<CsrGraph> {
        match self {
            ArenaRef::Borrowed(arena) => Arc::new(arena.clone()),
            ArenaRef::Shared(arena) => Arc::clone(arena),
        }
    }

    /// `true` if the request arena is the witness's graph: pointer equality
    /// first (one allocation has one content), the content compare only for
    /// a distinct allocation.
    fn matches(self, witness: &CsrGraph) -> bool {
        std::ptr::eq(self.get(), witness) || *self.get() == *witness
    }
}

impl<'a> From<&'a CsrGraph> for ArenaRef<'a> {
    fn from(arena: &'a CsrGraph) -> Self {
        ArenaRef::Borrowed(arena)
    }
}

impl<'a> From<&'a Arc<CsrGraph>> for ArenaRef<'a> {
    fn from(arena: &'a Arc<CsrGraph>) -> Self {
        ArenaRef::Shared(arena)
    }
}

/// Identity of one family evaluation: the snapshot tag plus the grid, or
/// for an untagged lookup the arena's vertex count and fingerprint plus the
/// grid. A key hit is confirmed against the stored witness arena before it
/// is served.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
enum CacheKey {
    Tagged {
        tag: GraphTag,
        grid: Vec<usize>,
    },
    Untagged {
        num_vertices: usize,
        fingerprint: u128,
        grid: Vec<usize>,
    },
}

impl CacheKey {
    fn of(arena: &CsrGraph, grid: &[usize], tag: Option<&GraphTag>) -> Self {
        let grid = grid.to_vec();
        match tag {
            Some(tag) => CacheKey::Tagged {
                tag: tag.clone(),
                grid,
            },
            None => CacheKey::Untagged {
                num_vertices: arena.num_vertices(),
                fingerprint: arena.fingerprint(),
                grid,
            },
        }
    }

    fn tag(&self) -> Option<&GraphTag> {
        match self {
            CacheKey::Tagged { tag, .. } => Some(tag),
            CacheKey::Untagged { .. } => None,
        }
    }
}

/// One entry, in flight or done.
struct Slot {
    /// The CSR arena the family is computed from. A key hit is served only
    /// after the request arena equals this witness, so a colliding key can
    /// never replay another graph's family.
    witness: Arc<CsrGraph>,
    /// Empty while the family is being evaluated; `get_or_init` on it is the
    /// single flight.
    family: OnceLock<Result<Arc<Vec<ExtensionEvaluation>>, CoreError>>,
}

#[derive(Default)]
struct CacheInner {
    /// Every entry with the monotonic tick of its last lookup (or its
    /// insert); the eviction victim is the minimum. Lookups are O(1); the
    /// scan cost lives on the rare over-capacity insert instead.
    map: HashMap<CacheKey, (Arc<Slot>, u64)>,
    /// Monotonic recency clock, bumped per lookup.
    tick: u64,
    /// Graph id → the classes of the id's most recent tagged evaluation,
    /// for ids evaluated at two versions or more that still have an entry.
    /// Taken out while an evaluation reads it.
    memos: HashMap<String, ClassMemo>,
}

impl CacheInner {
    /// `true` if an entry of graph `id` is stored, at any version or grid.
    fn holds(&self, id: &str) -> bool {
        self.map
            .keys()
            .any(|key| key.tag().is_some_and(|tag| tag.id == id))
    }

    /// The memo a tagged miss on `tag` evaluates with: the id's memo, taken
    /// out of the map, or a fresh one once another version of the id is
    /// stored; `None` for an id seen at this version only.
    fn take_memo(&mut self, tag: &GraphTag) -> Option<ClassMemo> {
        if let Some(memo) = self.memos.remove(&tag.id) {
            return Some(memo);
        }
        let other_version = self.map.keys().any(|key| {
            key.tag()
                .is_some_and(|t| t.id == tag.id && t.version != tag.version)
        });
        other_version.then(ClassMemo::default)
    }

    /// Drops `id`'s memo once no entry of the id is left.
    fn drop_orphan_memo(&mut self, id: &str) {
        if !self.holds(id) {
            self.memos.remove(id);
        }
    }
}

/// Point-in-time cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to evaluate the family (one per inserted entry, plus
    /// one per key hit whose witness is a different graph, evaluated on the
    /// side).
    pub misses: u64,
    /// Lookups that joined another caller's in-flight evaluation instead of
    /// racing it (single-flight coalescing).
    pub coalesced: u64,
    /// Entries dropped to enforce the capacity bound.
    pub evictions: u64,
    /// Entries dropped by explicit invalidation
    /// ([`invalidate_versions_below`](ExtensionCache::invalidate_versions_below)).
    pub invalidations: u64,
    /// Entries currently stored, in-flight ones included.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups that avoided a fresh family evaluation (hits plus
    /// coalesced joins over all lookups); 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let avoided = self.hits + self.coalesced;
        let total = avoided + self.misses;
        if total == 0 {
            0.0
        } else {
            avoided as f64 / total as f64
        }
    }
}

/// A bounded, thread-safe, graph-keyed cache of family evaluations with
/// LRU eviction and single-flight coalescing of concurrent misses.
pub struct ExtensionCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hits: Counter,
    misses: Counter,
    coalesced: Counter,
    evictions: Counter,
    invalidations: Counter,
    entries_gauge: Gauge,
}

impl ExtensionCache {
    /// A cache holding at most `capacity` family evaluations (≥ 1), with
    /// detached counters (no registry; see
    /// [`with_metrics`](Self::with_metrics)).
    pub fn new(capacity: usize) -> Self {
        ExtensionCache {
            inner: Mutex::new(CacheInner::default()),
            capacity: capacity.max(1),
            hits: Counter::detached(),
            misses: Counter::detached(),
            coalesced: Counter::detached(),
            evictions: Counter::detached(),
            invalidations: Counter::detached(),
            entries_gauge: Gauge::detached(),
        }
    }

    /// A cache whose counters are registered in `registry` as the
    /// `ccdp_core_cache_*` island, so a `/metrics` scrape sees exactly what
    /// [`stats`](Self::stats) reports.
    pub fn with_metrics(capacity: usize, registry: &MetricsRegistry) -> Self {
        let mut cache = Self::new(capacity);
        cache.hits = registry.counter("ccdp_core_cache_hits_total");
        cache.misses = registry.counter("ccdp_core_cache_misses_total");
        cache.coalesced = registry.counter("ccdp_core_cache_coalesced_total");
        cache.evictions = registry.counter("ccdp_core_cache_evictions_total");
        cache.invalidations = registry.counter("ccdp_core_cache_invalidations_total");
        cache.entries_gauge = registry.gauge("ccdp_core_cache_entries");
        cache
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            coalesced: self.coalesced.get(),
            evictions: self.evictions.get(),
            invalidations: self.invalidations.get(),
            entries: self.lock().map.len(),
        }
    }

    /// Evicts every entry of `graph_id` with a version strictly below
    /// `version` (bulk invalidation of superseded snapshots); returns how
    /// many entries were dropped (also added to the `invalidations`
    /// counter). Untagged entries and other ids are never touched.
    ///
    /// An in-flight evaluation of a dropped entry is not interrupted: its
    /// result still reaches the callers waiting on it, but it is not stored.
    pub fn invalidate_versions_below(&self, graph_id: &str, version: GraphVersion) -> usize {
        let mut inner = self.lock();
        let before = inner.map.len();
        inner.map.retain(|key, _| {
            !key.tag()
                .is_some_and(|tag| tag.id == graph_id && tag.version < version)
        });
        inner.drop_orphan_memo(graph_id);
        let dropped = before - inner.map.len();
        self.invalidations.add(dropped as u64);
        self.entries_gauge.set(inner.map.len() as i64);
        dropped
    }

    /// Evaluates the family `{f_Δ}` of `arena` on `grid`, answering from the
    /// cache when this exact evaluation has been done before, and joining an
    /// in-flight evaluation when another thread is already computing this
    /// exact key.
    ///
    /// A catalog [`GraphTag`] keys the entry by `(id, version)` *instead of*
    /// the graph fingerprint, so a new snapshot is never hashed, evaluations
    /// of different snapshot versions never answer for each other, and they
    /// can be invalidated per version range. A tagged miss on an id the
    /// cache holds at another version evaluates with the id's
    /// [`ClassMemo`]. `threads` is the budget of the evaluation on a miss; it
    /// never enters the key. The profiler records family phase timings in
    /// whichever caller evaluates, and the trace context receives a
    /// `cache/hit`, `cache/miss` (timed over the evaluation) or
    /// `cache/coalesced` (timed over the wait) span event. Observation only —
    /// values, keys and counters are unchanged.
    ///
    /// `arena` is a `&CsrGraph` or a `&Arc<CsrGraph>` (see [`ArenaRef`]);
    /// passing the `Arc` lets a miss keep it as the witness and lets every
    /// later hit on it skip the content compare.
    pub fn evaluate_family<'a>(
        &self,
        arena: impl Into<ArenaRef<'a>>,
        grid: &[usize],
        tag: Option<&GraphTag>,
        threads: usize,
        profiler: Option<&PhaseProfiler>,
        trace: Option<&TraceCtx>,
    ) -> Result<Arc<Vec<ExtensionEvaluation>>, CoreError> {
        let request = arena.into();
        let arena = request.get();
        let key = CacheKey::of(arena, grid, tag);

        let started = trace.map(|_| Instant::now());
        // Decide the outcome under the lock: a set cell is a hit, an unset
        // one a coalesced join, a fresh insert a miss.
        let (slot, kind, memo) = {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            match inner.map.get_mut(&key) {
                // Confirm the key hit against the witness before serving it:
                // a collision must degrade to a miss, never replay another
                // graph's family.
                Some((slot, last_used)) if request.matches(&slot.witness) => {
                    *last_used = tick;
                    if let Some(Ok(evals)) = slot.family.get() {
                        self.hits.inc();
                        if let Some(ctx) = trace {
                            ctx.event(SpanKind::CacheHit);
                        }
                        return Ok(Arc::clone(evals));
                    }
                    self.coalesced.inc();
                    (Some(Arc::clone(slot)), SpanKind::CacheCoalesced, None)
                }
                // The key names a different graph (a fingerprint collision,
                // or one tag on two graphs): evaluate on the side without
                // touching the map.
                Some(_) => {
                    self.misses.inc();
                    (None, SpanKind::CacheMiss, None)
                }
                None => {
                    let mut victim = None;
                    if inner.map.len() >= self.capacity {
                        // Evict the least recently used entry; an in-flight
                        // victim still answers the callers holding its slot.
                        let lru = inner.map.iter().min_by_key(|(_, (_, used))| *used);
                        victim = lru.map(|(k, _)| k.clone());
                        if let Some(victim) = &victim {
                            inner.map.remove(victim);
                            self.evictions.inc();
                        }
                    }
                    let slot = Arc::new(Slot {
                        witness: request.to_witness(),
                        family: OnceLock::new(),
                    });
                    inner.map.insert(key.clone(), (Arc::clone(&slot), tick));
                    if let Some(id) = victim.as_ref().and_then(CacheKey::tag) {
                        inner.drop_orphan_memo(&id.id);
                    }
                    let memo = tag.and_then(|tag| inner.take_memo(tag));
                    self.entries_gauge.set(inner.map.len() as i64);
                    self.misses.inc();
                    (Some(slot), SpanKind::CacheMiss, memo)
                }
            }
        };
        // Evaluate outside the lock: family evaluation can take a while and
        // lookups of other graphs must not serialize on it. A memo goes back
        // after a successful evaluation, while its id still has an entry.
        let evaluate = || {
            let mut memo = memo;
            let result = evaluate_family(arena, grid, threads, profiler, memo.as_mut());
            if let (Ok(_), Some(memo), Some(tag)) = (&result, memo, tag) {
                let mut inner = self.lock();
                if inner.holds(&tag.id) {
                    inner.memos.insert(tag.id.clone(), memo);
                }
            }
            result.map(Arc::new)
        };
        let result = match slot {
            Some(slot) => {
                let guard = SlotGuard {
                    cache: self,
                    key: &key,
                    slot,
                };
                guard.slot.family.get_or_init(evaluate).clone()
            }
            None => evaluate(),
        };
        if let Some(ctx) = trace {
            ctx.event_timed(kind, started.expect("timed").elapsed());
        }
        result
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Drops a slot from the map when the caller is done with it, unless its
/// cell holds a family: errors are never stored, and since `Drop` also runs
/// on unwind, neither is the empty cell a panicking evaluation leaves. Only
/// the guarded slot itself is removed, never a later insert under its key.
struct SlotGuard<'c> {
    cache: &'c ExtensionCache,
    key: &'c CacheKey,
    slot: Arc<Slot>,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        if matches!(self.slot.family.get(), Some(Ok(_))) {
            return;
        }
        let mut inner = self.cache.lock();
        if inner
            .map
            .get(self.key)
            .is_some_and(|(s, _)| Arc::ptr_eq(s, &self.slot))
        {
            inner.map.remove(self.key);
            if let Some(tag) = self.key.tag() {
                inner.drop_orphan_memo(&tag.id);
            }
            self.cache.entries_gauge.set(inner.map.len() as i64);
        }
    }
}

impl Default for ExtensionCache {
    fn default() -> Self {
        Self::new(DEFAULT_FAMILY_CACHE_CAPACITY)
    }
}

impl std::fmt::Debug for ExtensionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ExtensionCache")
            .field("capacity", &self.capacity)
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("coalesced", &stats.coalesced)
            .field("evictions", &stats.evictions)
            .field("invalidations", &stats.invalidations)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdp_graph::{generators, Graph};
    use rand::{rngs::StdRng, SeedableRng};

    /// An untagged sequential lookup of an adjacency-list graph.
    fn family(cache: &ExtensionCache, g: &Graph, grid: &[usize]) -> Arc<Vec<ExtensionEvaluation>> {
        tagged(cache, g, grid, None)
    }

    fn tagged(
        cache: &ExtensionCache,
        g: &Graph,
        grid: &[usize],
        tag: Option<&GraphTag>,
    ) -> Arc<Vec<ExtensionEvaluation>> {
        cache
            .evaluate_family(&CsrGraph::from_graph(g), grid, tag, 1, None, None)
            .unwrap()
    }

    #[test]
    fn repeated_evaluations_hit_the_cache() {
        let cache = ExtensionCache::new(8);
        let g = generators::caveman(3, 4);
        let grid = [1usize, 2, 4, 8];
        let first = family(&cache, &g, &grid);
        let second = family(&cache, &g, &grid);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!((stats.coalesced, stats.evictions), (0, 0));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_graphs_and_grids_are_distinct_entries() {
        let cache = ExtensionCache::new(8);
        let a = generators::path(5);
        let b = generators::cycle(5);
        let grid = [1usize, 2, 4];
        family(&cache, &a, &grid);
        family(&cache, &b, &grid);
        family(&cache, &a, &grid[..2]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 3, 3));
    }

    #[test]
    fn capacity_is_enforced_lru() {
        let cache = ExtensionCache::new(2);
        let grid = [1usize, 2];
        let graphs: Vec<Graph> = (3..6).map(generators::path).collect();
        for g in &graphs {
            family(&cache, g, &grid);
        }
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().evictions, 1);
        // The least recently used entry (path(3)) was evicted: re-evaluating
        // it misses.
        family(&cache, &graphs[0], &grid);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn hits_refresh_recency_so_eviction_is_lru_not_fifo() {
        let cache = ExtensionCache::new(2);
        let grid = [1usize, 2];
        let a = generators::path(3);
        let b = generators::path(4);
        let c = generators::path(5);
        family(&cache, &a, &grid);
        family(&cache, &b, &grid);
        // Touch `a`: under FIFO it would still be evicted next; under LRU the
        // victim becomes `b`.
        family(&cache, &a, &grid);
        family(&cache, &c, &grid);
        let before = cache.stats();
        assert_eq!((before.evictions, before.entries), (1, 2));
        // `a` must still be resident (hit), `b` must have been evicted (miss).
        family(&cache, &a, &grid);
        assert_eq!(cache.stats().hits, before.hits + 1);
        family(&cache, &b, &grid);
        assert_eq!(cache.stats().misses, before.misses + 1);
    }

    #[test]
    fn cached_values_match_direct_evaluation() {
        let cache = ExtensionCache::default();
        let g = generators::complete(5);
        let grid = [1usize, 2, 4];
        let cached = family(&cache, &g, &grid);
        let direct = evaluate_family(&CsrGraph::from_graph(&g), &grid, 1, None, None).unwrap();
        assert_eq!(cached.len(), direct.len());
        for (c, d) in cached.iter().zip(&direct) {
            assert!((c.value - d.value).abs() < 1e-12);
            assert_eq!(c.path, d.path);
        }
    }

    #[test]
    fn thread_budget_is_not_part_of_the_key() {
        // A sequential evaluation answers a threaded request and vice versa:
        // values are identical for every budget, so the entries are shared.
        let cache = ExtensionCache::new(8);
        let g = generators::caveman(3, 4);
        let grid = [1usize, 2, 4, 8];
        let seq = family(&cache, &g, &grid);
        let par = cache
            .evaluate_family(&CsrGraph::from_graph(&g), &grid, None, 8, None, None)
            .unwrap();
        assert!(Arc::ptr_eq(&seq, &par));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn tags_separate_versions_of_one_graph() {
        let cache = ExtensionCache::new(8);
        let g = generators::path(5);
        let grid = [1usize, 2, 4];
        let v0 = GraphTag::new("fleet/g0", GraphVersion::INITIAL);
        let v1 = GraphTag::new("fleet/g0", GraphVersion::new(1));
        // Same edge list, different versions: distinct entries, no replay.
        tagged(&cache, &g, &grid, Some(&v0));
        tagged(&cache, &g, &grid, Some(&v1));
        // And distinct from the untagged entry of the same edge list.
        family(&cache, &g, &grid);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 3, 3));
        // Re-asking for a version is a hit.
        tagged(&cache, &g, &grid, Some(&v0));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn invalidate_versions_below_keeps_the_frontier() {
        let cache = ExtensionCache::new(16);
        let g = generators::star(4);
        let grid = [1usize, 2];
        for v in 0..4 {
            let tag = GraphTag::new("g", GraphVersion::new(v));
            tagged(&cache, &g, &grid, Some(&tag));
        }
        // Another id's entry and an untagged entry of the same edge list.
        let other = GraphTag::new("h", GraphVersion::INITIAL);
        tagged(&cache, &g, &grid, Some(&other));
        family(&cache, &g, &grid);
        assert_eq!(
            cache.invalidate_versions_below("g", GraphVersion::new(3)),
            3
        );
        let stats = cache.stats();
        // The frontier, `h` and the untagged entry survive; invalidations are
        // counted apart from capacity evictions.
        assert_eq!(
            (stats.entries, stats.invalidations, stats.evictions),
            (3, 3, 0)
        );
        // The frontier version is still a hit.
        let tag = GraphTag::new("g", GraphVersion::new(3));
        tagged(&cache, &g, &grid, Some(&tag));
        assert_eq!(cache.stats().hits, 1);
        // An invalidated version re-evaluates.
        let tag = GraphTag::new("g", GraphVersion::new(1));
        tagged(&cache, &g, &grid, Some(&tag));
        assert_eq!(cache.stats().misses, stats.misses + 1);
    }

    #[test]
    fn shared_and_equal_arenas_hit_while_a_forged_collision_misses() {
        let cache = ExtensionCache::new(8);
        let grid = [1usize, 2, 4];
        let g = generators::caveman(3, 4);
        let arena = Arc::new(CsrGraph::from_graph(&g));
        let lookup = |a: ArenaRef<'_>| cache.evaluate_family(a, &grid, None, 1, None, None);
        let first = lookup((&arena).into()).unwrap();
        // The leader kept the caller's `Arc` as its witness instead of a copy.
        assert_eq!(Arc::strong_count(&arena), 2);
        // The same `Arc` hits (pointer check), and so does a distinct
        // allocation with equal content (content compare).
        let same = lookup((&arena).into()).unwrap();
        let equal = CsrGraph::from_graph(&g);
        let copy = lookup((&equal).into()).unwrap();
        assert!(Arc::ptr_eq(&first, &same) && Arc::ptr_eq(&first, &copy));
        assert_eq!((cache.stats().hits, cache.stats().misses), (2, 1));

        // Forge a fingerprint collision: the entry under this key now claims
        // another graph as its witness, with that graph's family.
        let other = Arc::new(CsrGraph::from_graph(&generators::path(12)));
        let other_evals = Arc::new(evaluate_family(&other, &grid, 1, None, None).unwrap());
        {
            let mut inner = cache.lock();
            let (slot, _) = inner
                .map
                .values_mut()
                .find(|(s, _)| Arc::ptr_eq(&s.witness, &arena))
                .expect("the shared arena is the stored witness");
            *slot = Arc::new(Slot {
                witness: other,
                family: OnceLock::from(Ok(other_evals)),
            });
        }
        // Neither the shared arena nor an equal copy is served the forged
        // family: each lookup degrades to a miss that evaluates this graph.
        for request in [ArenaRef::Shared(&arena), ArenaRef::Borrowed(&equal)] {
            let misses = cache.stats().misses;
            let replayed = lookup(request).unwrap();
            assert_eq!(cache.stats().misses, misses + 1);
            let bits = |e: &[ExtensionEvaluation]| -> Vec<u64> {
                e.iter().map(|x| x.value.to_bits()).collect()
            };
            assert_eq!(bits(&replayed), bits(&first));
        }
    }

    #[test]
    fn racing_threads_coalesce_to_one_evaluation() {
        // Untagged lookups share a fingerprint key, tagged ones a tag key.
        for tag in [None, Some(GraphTag::new("fleet/g0", GraphVersion::new(2)))] {
            let cache = Arc::new(ExtensionCache::new(8));
            let g = generators::caveman(4, 5);
            let grid = [1usize, 2, 4, 8, 16];
            let threads = 8;
            let barrier = Arc::new(std::sync::Barrier::new(threads));
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let g = g.clone();
                    let barrier = Arc::clone(&barrier);
                    let tag = tag.clone();
                    std::thread::spawn(move || {
                        barrier.wait();
                        tagged(&cache, &g, &grid, tag.as_ref())
                    })
                })
                .collect();
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for r in &results[1..] {
                assert!((r[0].value - results[0][0].value).abs() < 1e-12);
            }
            let stats = cache.stats();
            assert_eq!(stats.misses, 1, "exactly one leader must have evaluated");
            assert_eq!(
                stats.hits + stats.coalesced + stats.misses,
                threads as u64,
                "every lookup is a hit, a coalesced join or the one miss: {stats:?}"
            );
        }
    }

    #[test]
    fn one_tag_on_two_graphs_misses_and_never_replays() {
        let cache = ExtensionCache::new(8);
        let grid = [1usize, 2, 4];
        let tag = GraphTag::new("fleet/g0", GraphVersion::INITIAL);
        let a = generators::caveman(3, 4);
        let b = generators::star(12);
        let first = tagged(&cache, &a, &grid, Some(&tag));
        // Same tag, different arena: a miss evaluated on the side, which
        // returns this graph's family and stores nothing.
        let other = tagged(&cache, &b, &grid, Some(&tag));
        let direct = evaluate_family(&CsrGraph::from_graph(&b), &grid, 1, None, None).unwrap();
        let bits = |e: &[ExtensionEvaluation]| -> Vec<u64> {
            e.iter().map(|x| x.value.to_bits()).collect()
        };
        assert_eq!(bits(&other), bits(&direct));
        assert_ne!(bits(&other), bits(&first));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 1));
        // The stored entry still answers its own graph.
        let again = tagged(&cache, &a, &grid, Some(&tag));
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn a_borrowed_graph_hits_the_entry_a_shared_arena_inserted_under_its_tag() {
        let cache = ExtensionCache::new(8);
        let grid = [1usize, 2, 4, 8];
        let g = generators::caveman(3, 4);
        let tag = GraphTag::new("fleet/g1", GraphVersion::new(3));
        let arena = Arc::new(CsrGraph::from_graph(&g));
        let first = cache
            .evaluate_family(&arena, &grid, Some(&tag), 1, None, None)
            .unwrap();
        // An estimate of the `Graph` builds its own arena and borrows it.
        let probe = tagged(&cache, &g, &grid, Some(&tag));
        assert!(Arc::ptr_eq(&first, &probe));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn class_memo_starts_at_a_second_version_and_leaves_with_the_last_entry() {
        let cache = ExtensionCache::new(8);
        let grid = [1usize, 2, 4, 8];
        let memos = |cache: &ExtensionCache| -> Vec<(String, usize)> {
            let inner = cache.lock();
            let mut memos: Vec<_> = inner
                .memos
                .iter()
                .map(|(id, m)| (id.clone(), m.len()))
                .collect();
            memos.sort();
            memos
        };
        // Version `v` is the last plus one larger clique: K3, …, K(3 + v),
        // each its own class, so the memo serves every earlier clique.
        let mut versions = vec![generators::complete(3)];
        for k in 4..7 {
            let last = versions.last().expect("non-empty");
            versions.push(generators::disjoint_union(last, &generators::complete(k)));
        }
        let tag = |v: u64| GraphTag::new("g", GraphVersion::new(v));
        let check = |family: &[ExtensionEvaluation], g: &Graph| {
            let cold = evaluate_family(&CsrGraph::from_graph(g), &grid, 1, None, None).unwrap();
            for (a, b) in family.iter().zip(&cold) {
                assert_eq!(a.value.to_bits(), b.value.to_bits());
                assert_eq!(a.path, b.path);
            }
        };
        // One version, or a graph served at one version: no memo.
        check(
            &tagged(&cache, &versions[0], &grid, Some(&tag(0))),
            &versions[0],
        );
        tagged(
            &cache,
            &versions[1],
            &grid,
            Some(&GraphTag::new("h", GraphVersion::INITIAL)),
        );
        family(&cache, &versions[2], &grid);
        assert!(memos(&cache).is_empty());
        // The second version starts one; it holds that version's classes
        // (one per clique) and no earlier ones.
        for (v, g) in versions.iter().enumerate().skip(1) {
            check(&tagged(&cache, g, &grid, Some(&tag(v as u64))), g);
            assert_eq!(memos(&cache), [("g".to_string(), v + 1)]);
            assert_eq!(
                cache.invalidate_versions_below("g", GraphVersion::new(v as u64)),
                1
            );
            assert_eq!(memos(&cache).len(), 1);
        }
        // The memo leaves with the id's last entry.
        cache.invalidate_versions_below("g", GraphVersion::new(4));
        assert!(memos(&cache).is_empty());
        // Eviction drops it too.
        let small = ExtensionCache::new(2);
        tagged(&small, &versions[0], &grid, Some(&tag(0)));
        tagged(&small, &versions[1], &grid, Some(&tag(1)));
        assert_eq!(memos(&small).len(), 1);
        family(&small, &versions[2], &grid);
        family(&small, &versions[3], &grid);
        assert!(memos(&small).is_empty());
        assert_eq!(small.stats().evictions, 2);
    }

    #[test]
    fn invalidation_during_a_flight_stores_nothing() {
        let n = 100_000;
        let arena = Arc::new(CsrGraph::from_edge_stream(n, || {
            generators::erdos_renyi_edges(n, 1.05 / n as f64, StdRng::seed_from_u64(5))
        }));
        let cache = Arc::new(ExtensionCache::new(8));
        let grid = [1usize, 2, 4, 8];
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (cache, arena, barrier) =
                    (Arc::clone(&cache), Arc::clone(&arena), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    let tag = GraphTag::new("g", GraphVersion::INITIAL);
                    cache
                        .evaluate_family(&arena, &grid, Some(&tag), 1, None, None)
                        .unwrap()
                })
            })
            .collect();
        // Invalidate the version while the follower waits on the leader.
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while cache.stats().coalesced < 1 {
            assert!(
                Instant::now() < deadline,
                "no follower joined: {:?}",
                cache.stats()
            );
            std::thread::yield_now();
        }
        cache.invalidate_versions_below("g", GraphVersion::new(1));
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(Arc::ptr_eq(&results[0], &results[1]));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.invalidations), (0, 1), "{stats:?}");
    }

    #[test]
    fn a_panicking_leader_never_strands_its_followers() {
        let cache = Arc::new(ExtensionCache::new(8));
        let arena = Arc::new(CsrGraph::from_graph(&generators::caveman(4, 5)));
        // `evaluate_family` asserts every Δ ≥ 1, so this grid panics inside
        // the evaluation.
        let bad_grid = [0usize, 1, 2];
        let callers = 6;
        let barrier = Arc::new(std::sync::Barrier::new(callers));
        let (done, finished) = std::sync::mpsc::channel();
        for _ in 0..callers {
            let (cache, arena, barrier, done) = (
                Arc::clone(&cache),
                Arc::clone(&arena),
                Arc::clone(&barrier),
                done.clone(),
            );
            std::thread::spawn(move || {
                barrier.wait();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.evaluate_family(&arena, &bad_grid, None, 1, None, None)
                }));
                done.send(matches!(outcome, Err(_) | Ok(Err(_)))).unwrap();
            });
        }
        for _ in 0..callers {
            let failed = finished
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("a caller is stranded on a panicked flight");
            assert!(failed, "a panicking evaluation cannot succeed");
        }
        // No panicked slot stays behind, so the next lookup of the key is a
        // miss with nothing in flight, not a coalesced join.
        let after = cache.stats();
        assert_eq!(after.entries, 0, "{after:?}");
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.evaluate_family(&arena, &bad_grid, None, 1, None, None)
        }));
        assert!(matches!(again, Err(_) | Ok(Err(_))));
        let last = cache.stats();
        assert_eq!(last.misses, after.misses + 1, "{last:?}");
        assert_eq!(last.coalesced, after.coalesced, "{last:?}");
        assert_eq!(last.entries, 0, "{last:?}");
        // A valid grid on the same arena evaluates once, then hits.
        let grid = [1usize, 2, 4];
        let misses = cache.stats().misses;
        let first = cache
            .evaluate_family(&arena, &grid, None, 1, None, None)
            .unwrap();
        assert_eq!(cache.stats().misses, misses + 1);
        let hits = cache.stats().hits;
        let second = cache
            .evaluate_family(&arena, &grid, None, 1, None, None)
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats().hits, hits + 1);
    }
}
