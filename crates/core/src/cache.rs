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
//! The cache is keyed by a 128-bit fingerprint of the graph's CSR arena
//! (plus vertex count and grid), bounded in size with LRU eviction
//! (hits refresh an entry's recency), and safe to share across estimators and
//! threads. The fingerprint is memoized on the arena
//! ([`CsrGraph::fingerprint`]), so only the first lookup of an arena hashes
//! it. Every entry keeps the [`CsrGraph`] it was computed from as a
//! *witness*, and a fingerprint hit is confirmed against it before it is
//! served:
//!
//! * a request for the *same allocation* as the witness — the arena a
//!   serving registry published, passed as [`ArenaRef::Shared`] — is
//!   confirmed by pointer equality, so a hit on a published graph does no
//!   O(n + m) work;
//! * any other arena is compared with the witness (two flat `u32` arrays, a
//!   memory compare), so a fingerprint collision degrades to a safe miss,
//!   never to a wrong answer.
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
//! evaluates instead of blocking forever. Because in-flight entries live in
//! the map, invalidating a superseded version drops them too: their waiters
//! still get the value, and nothing is stored. Hit/miss/coalesce/eviction
//! counters are exposed for tests and capacity planning.
//!
//! The thread budget of an evaluation is deliberately **not** part of the
//! key: family values are bit-for-bit identical for every budget, so an
//! entry computed with 8 workers answers a sequential request and vice versa.

use crate::error::CoreError;
use crate::extension::{evaluate_family, ExtensionEvaluation};
use ccdp_exec::PhaseProfiler;
use ccdp_graph::{CsrGraph, GraphVersion};
use ccdp_obs::{Counter, Gauge, MetricsRegistry, SpanKind, TraceCtx};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Default number of (graph, grid) entries kept per cache.
pub const DEFAULT_FAMILY_CACHE_CAPACITY: usize = 64;

/// Catalog identity of a graph snapshot: which graph, at which version.
///
/// Untagged evaluations are keyed by the exact edge list alone. A serving or
/// streaming tier that names its graphs tags each evaluation with the
/// snapshot it came from, which buys two things the edge list cannot:
/// entries of superseded versions can be [invalidated in
/// bulk](ExtensionCache::invalidate_versions_below), and a release served for
/// version `v` can never replay a family cached under any other version —
/// even if two versions happen to share an edge list, their cache entries
/// stay distinct.
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

/// Identity of one family evaluation: graph fingerprint plus grid and
/// optional catalog tag. The fingerprint is confirmed against the stored
/// witness arena before a hit is served (collisions become safe misses).
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
struct CacheKey {
    num_vertices: usize,
    fingerprint: u128,
    grid: Vec<usize>,
    /// Catalog identity, when the caller serves versioned snapshots.
    tag: Option<GraphTag>,
}

/// One entry, in flight or done.
struct Slot {
    /// The CSR arena the family is computed from. A fingerprint hit is
    /// served only after the request arena equals this witness, so a
    /// colliding key can never replay another graph's family.
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
}

/// Point-in-time cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to evaluate the family (one per inserted entry, plus
    /// one per fingerprint collision evaluated on the side).
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
            !key.tag
                .as_ref()
                .is_some_and(|tag| tag.id == graph_id && tag.version < version)
        });
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
    /// A catalog [`GraphTag`] keys the entry by `(id, version)` *in addition
    /// to* the graph fingerprint, so evaluations of different snapshot
    /// versions never answer for each other and can be invalidated per
    /// version range. `threads` is the budget of the evaluation on a miss; it
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
        let key = CacheKey {
            num_vertices: arena.num_vertices(),
            fingerprint: arena.fingerprint(),
            grid: grid.to_vec(),
            tag: tag.cloned(),
        };

        let started = trace.map(|_| Instant::now());
        // Decide the outcome under the lock: a set cell is a hit, an unset
        // one a coalesced join, a fresh insert a miss.
        let (slot, kind) = {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            match inner.map.get_mut(&key) {
                // Confirm the fingerprint hit against the witness before
                // serving it: a collision must degrade to a miss, never
                // replay another graph's family.
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
                    (Some(Arc::clone(slot)), SpanKind::CacheCoalesced)
                }
                // Fingerprint collision with a different graph: evaluate on
                // the side without touching the map.
                Some(_) => {
                    self.misses.inc();
                    (None, SpanKind::CacheMiss)
                }
                None => {
                    if inner.map.len() >= self.capacity {
                        // Evict the least recently used entry; an in-flight
                        // victim still answers the callers holding its slot.
                        let victim = inner.map.iter().min_by_key(|(_, (_, used))| *used);
                        if let Some(victim) = victim.map(|(k, _)| k.clone()) {
                            inner.map.remove(&victim);
                            self.evictions.inc();
                        }
                    }
                    let slot = Arc::new(Slot {
                        witness: request.to_witness(),
                        family: OnceLock::new(),
                    });
                    inner.map.insert(key.clone(), (Arc::clone(&slot), tick));
                    self.entries_gauge.set(inner.map.len() as i64);
                    self.misses.inc();
                    (Some(slot), SpanKind::CacheMiss)
                }
            }
        };
        // Evaluate outside the lock: family evaluation can take a while and
        // lookups of other graphs must not serialize on it.
        let evaluate = || evaluate_family(arena, grid, threads, profiler).map(Arc::new);
        let result = match &slot {
            Some(slot) => slot.family.get_or_init(evaluate).clone(),
            None => evaluate(),
        };
        if let (Some(slot), Err(_)) = (&slot, &result) {
            // Errors are never stored: drop the slot unless a later insert
            // already replaced it.
            let mut inner = self.lock();
            if inner
                .map
                .get(&key)
                .is_some_and(|(s, _)| Arc::ptr_eq(s, slot))
            {
                inner.map.remove(&key);
                self.entries_gauge.set(inner.map.len() as i64);
            }
        }
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
        let direct = evaluate_family(&CsrGraph::from_graph(&g), &grid, 1, None).unwrap();
        assert_eq!(cached.len(), direct.len());
        for (c, d) in cached.iter().zip(&direct) {
            assert!((c.value - d.value).abs() < 1e-12);
            assert_eq!(c.delta, d.delta);
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
        let other_evals = Arc::new(evaluate_family(&other, &grid, 1, None).unwrap());
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
                std::thread::spawn(move || {
                    barrier.wait();
                    family(&cache, &g, &grid)
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
