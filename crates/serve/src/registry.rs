//! The sharded, lock-striped, version-aware graph catalog behind a serving
//! fleet.
//!
//! A serving tier answers releases over a *catalog* of graphs, so the graphs
//! live in one shared [`GraphRegistry`] rather than being owned by any single
//! estimator. The registry is striped across shards, each guarded by its own
//! `RwLock`, so concurrent lookups of different graphs never contend on one
//! lock, and graphs are handed out as `Arc`s so requests share storage with
//! the registry instead of cloning edge lists.
//!
//! Every published snapshot is one `Arc<CsrGraph>` arena and nothing else.
//! A publish takes anything that converts through [`IntoArena`]: an arena
//! already shared by its builder (a stream snapshot, an ingested edge list)
//! is stored as is, and a `Graph` is converted once, before the shard lock
//! is taken, so no O(n + m) work ever runs under a registry lock. Requests
//! resolve the arena ([`GraphRegistry::resolve_arena`]) and release on it:
//! the arena memoizes its fingerprint and component count, and the family
//! cache confirms a hit on it by pointer equality, so a cache hit on a
//! published graph does no O(n + m) work.
//!
//! Each catalog id holds a *history* of immutable snapshot versions (see
//! [`GraphVersion`]): a streaming layer publishes new versions as the graph
//! mutates, requests resolve either a pinned `(id, version)` pair or the
//! latest pointer, and stale versions can be expired without disturbing the
//! frontier. Expired snapshots are split out under the shard lock but freed
//! after it is released, so freeing their arenas never runs under a registry
//! lock either. Publishing the same `(id, version)` twice is a typed
//! [`ServeError::VersionExists`] refusal — snapshots are immutable, so
//! re-publishing could only mean two different graphs claiming one identity.

use crate::error::ServeError;
use ccdp_graph::{io, CsrGraph, Graph, GraphVersion};
use ccdp_obs::{AuditEvent, AuditJournal, AuditKind};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

pub use crate::ids::GraphId;

/// Number of lock stripes.
pub const DEFAULT_SHARDS: usize = 16;

/// Number of snapshot versions retained per graph id. Publishing beyond it
/// silently expires the oldest versions, so an update-style caller that
/// republishes one id forever holds bounded memory.
pub const DEFAULT_VERSION_RETENTION: usize = 8;

/// What a publish accepts: a shared CSR arena, or an adjacency-list graph,
/// owned or shared. The one conversion point of [`GraphRegistry::insert`] and
/// [`GraphRegistry::insert_version`]; the registry calls it before taking a
/// shard lock.
pub trait IntoArena {
    /// The arena the registry stores: a shared arena as is, anything else
    /// built once with [`CsrGraph::from_graph`] (O(n + m)).
    fn into_arena(self) -> Arc<CsrGraph>;
}

impl IntoArena for Arc<CsrGraph> {
    fn into_arena(self) -> Arc<CsrGraph> {
        self
    }
}

impl IntoArena for Graph {
    fn into_arena(self) -> Arc<CsrGraph> {
        Arc::new(CsrGraph::from_graph(&self))
    }
}

impl IntoArena for Arc<Graph> {
    fn into_arena(self) -> Arc<CsrGraph> {
        Arc::new(CsrGraph::from_graph(&self))
    }
}

/// The version history of one catalog id. The `BTreeMap` keeps versions
/// ordered, so the latest pointer is the last key and range expiry is a
/// split.
type History = BTreeMap<GraphVersion, Arc<CsrGraph>>;

type Shard = HashMap<GraphId, History>;

/// A sharded map from [`GraphId`] to a version history of published
/// snapshots, each one `Arc<CsrGraph>` arena.
#[derive(Debug)]
pub struct GraphRegistry {
    shards: Vec<RwLock<Shard>>,
    /// Audit journal for `release_published` events (attached by the
    /// serving tier; `None` for a standalone catalog).
    journal: RwLock<Option<Arc<AuditJournal>>>,
}

impl GraphRegistry {
    /// An empty registry striped across [`DEFAULT_SHARDS`] locks, keeping
    /// at most [`DEFAULT_VERSION_RETENTION`] snapshot versions per id:
    /// publishing past the bound expires the oldest versions, never the newly
    /// published frontier.
    pub fn new() -> Self {
        GraphRegistry {
            shards: (0..DEFAULT_SHARDS)
                .map(|_| RwLock::new(Shard::new()))
                .collect(),
            journal: RwLock::new(None),
        }
    }

    /// Attaches the audit journal every publish decision is recorded into
    /// (the serving tier attaches its shared journal at
    /// [`Server::start`](crate::Server::start)).
    pub fn set_journal(&self, journal: Arc<AuditJournal>) {
        *self
            .journal
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(journal);
    }

    /// Records one `release_published` event, if a journal is attached.
    fn audit_publish(&self, id: &GraphId, version: GraphVersion, detail: &str) {
        let guard = self
            .journal
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(journal) = guard.as_ref() {
            journal.record(
                AuditEvent::new(AuditKind::ReleasePublished)
                    .graph(id.as_str(), Some(version.value()))
                    .detail(detail),
            );
        }
    }

    fn shard_of(&self, id: &GraphId) -> usize {
        let mut h = DefaultHasher::new();
        id.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn read(&self, id: &GraphId) -> RwLockReadGuard<'_, Shard> {
        self.shards[self.shard_of(id)]
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn write(&self, id: &GraphId) -> RwLockWriteGuard<'_, Shard> {
        self.shards[self.shard_of(id)]
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Publishes `graph` under `id` as the next version after the current
    /// latest ([`GraphVersion::INITIAL`] for a fresh id) and returns that
    /// version. The version is picked under the shard's write lock, so
    /// concurrent publishers of one id never collide.
    ///
    /// Prior versions are retained up to [`DEFAULT_VERSION_RETENTION`] —
    /// republishing one id forever holds bounded memory (see also
    /// [`GraphRegistry::retain_latest`] for explicit expiry).
    pub fn insert(&self, id: impl Into<GraphId>, graph: impl IntoArena) -> GraphVersion {
        let id = id.into();
        let arena = graph.into_arena();
        let mut shard = self.write(&id);
        let history = shard.entry(id.clone()).or_default();
        let version = next_version(history);
        history.insert(version, arena);
        let expired = split_off_oldest(history, DEFAULT_VERSION_RETENTION);
        drop(shard);
        drop(expired);
        self.audit_publish(&id, version, "published as next version");
        version
    }

    /// Publishes `graph` under the exact `(id, version)` pair and returns
    /// the stored arena (see [`IntoArena`]: an already-shared arena is
    /// published without copying).
    ///
    /// # Errors
    /// [`ServeError::VersionExists`] if that snapshot is already published
    /// (snapshots are immutable; nothing is overwritten), and
    /// [`ServeError::VersionExpired`] if the version is a backfill older
    /// than the retention window can hold — accepting it would expire it on
    /// the spot, so `Ok` always means the snapshot is actually resolvable.
    pub fn insert_version(
        &self,
        id: impl Into<GraphId>,
        version: GraphVersion,
        graph: impl IntoArena,
    ) -> Result<Arc<CsrGraph>, ServeError> {
        let id = id.into();
        let arena = graph.into_arena();
        let mut shard = self.write(&id);
        let history = shard.entry(id.clone()).or_default();
        if history.contains_key(&version) {
            return Err(ServeError::VersionExists { graph: id, version });
        }
        if history.len() >= DEFAULT_VERSION_RETENTION {
            if let Some((&oldest, _)) = history.first_key_value() {
                if version < oldest {
                    return Err(ServeError::VersionExpired {
                        graph: id,
                        version,
                        oldest_retained: oldest,
                    });
                }
            }
        }
        history.insert(version, Arc::clone(&arena));
        let expired = split_off_oldest(history, DEFAULT_VERSION_RETENTION);
        drop(shard);
        drop(expired);
        self.audit_publish(&id, version, "published at explicit version");
        Ok(arena)
    }

    /// Parses `text` as a plain-text edge list straight into a CSR arena
    /// (see [`io::from_edge_list_csr`]) and publishes it under the exact
    /// `(id, version)` pair.
    ///
    /// # Errors
    /// [`ServeError::Ingest`] on a malformed edge list, and the refusals of
    /// [`insert_version`](Self::insert_version) — re-ingesting a published
    /// `(id, version)` is a typed [`ServeError::VersionExists`], never a
    /// silent overwrite.
    pub fn ingest_edge_list_version(
        &self,
        id: impl Into<GraphId>,
        version: GraphVersion,
        text: &str,
    ) -> Result<Arc<CsrGraph>, ServeError> {
        let arena = io::from_edge_list_csr(text)?;
        self.insert_version(id, version, Arc::new(arena))
    }

    /// The latest published version of `id`, if any.
    pub fn latest_version(&self, id: &GraphId) -> Option<GraphVersion> {
        self.read(id)
            .get(id)
            .and_then(|h| h.last_key_value())
            .map(|(&v, _)| v)
    }

    /// All published versions of `id`, ascending.
    pub fn versions(&self, id: &GraphId) -> Vec<GraphVersion> {
        self.read(id)
            .get(id)
            .map(|h| h.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Resolves the latest snapshot of `id` together with its version, or
    /// reports the typed refusal a request would get. The registry stores
    /// only arenas, so each call builds a fresh adjacency-list `Graph` from
    /// the arena (O(n + m), outside the shard lock); requests resolve the
    /// arena itself with [`resolve_arena`](Self::resolve_arena).
    pub fn resolve_latest(&self, id: &GraphId) -> Result<(GraphVersion, Arc<Graph>), ServeError> {
        let (version, arena) = self.resolve_arena(id, None)?;
        Ok((version, Arc::new(arena.to_graph())))
    }

    /// Resolves the CSR arena published for `id` — at the pinned `version`,
    /// or the latest one — together with the version it belongs to. This is
    /// what a release runs on: the arena was built once at publish, and every
    /// resolve of one snapshot returns the same `Arc`. An unknown id is
    /// [`ServeError::UnknownGraph`]; a known id whose pinned version is
    /// unpublished or expired is [`ServeError::UnknownVersion`].
    pub fn resolve_arena(
        &self,
        id: &GraphId,
        version: Option<GraphVersion>,
    ) -> Result<(GraphVersion, Arc<CsrGraph>), ServeError> {
        let shard = self.read(id);
        let history = shard
            .get(id)
            .ok_or_else(|| ServeError::UnknownGraph { graph: id.clone() })?;
        let found = match version {
            Some(v) => history.get_key_value(&v),
            None => history.last_key_value(),
        };
        let (&v, arena) = found.ok_or_else(|| match version {
            Some(version) => ServeError::UnknownVersion {
                graph: id.clone(),
                version,
            },
            None => ServeError::UnknownGraph { graph: id.clone() },
        })?;
        Ok((v, Arc::clone(arena)))
    }

    /// Keeps only the `keep` most recent snapshots of `id` (≥ 1), returning
    /// how many older ones were evicted.
    pub fn retain_latest(&self, id: &GraphId, keep: usize) -> usize {
        let mut shard = self.write(id);
        let Some(history) = shard.get_mut(id) else {
            return 0;
        };
        let expired = split_off_oldest(history, keep.max(1));
        drop(shard);
        expired.len()
    }

    /// Removes and returns exactly one published snapshot, dropping the id
    /// entirely when its history empties.
    ///
    /// Snapshots are normally immutable once published; this exists for the
    /// one caller with a legitimate claim — a publisher rolling back a
    /// version *it just published* that was never served (the release
    /// scheduler unwinding a publish whose release was refused before its
    /// budget charge). Concurrent readers that already resolved the snapshot
    /// keep their `Arc` — removal unlists, it never invalidates.
    pub fn remove_version(&self, id: &GraphId, version: GraphVersion) -> Option<Arc<CsrGraph>> {
        let mut shard = self.write(id);
        let history = shard.get_mut(id)?;
        let removed = history.remove(&version);
        if history.is_empty() {
            shard.remove(id);
        }
        removed
    }

    /// Number of catalog ids across all shards (not versions; see
    /// [`GraphRegistry::num_versions`]).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }

    /// Total number of stored snapshots across all ids and versions.
    pub fn num_versions(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(|p| p.into_inner())
                    .values()
                    .map(BTreeMap::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Whether the registry holds no graphs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The version `insert` publishes next: one past the latest, or the initial
/// version for a fresh history.
fn next_version(history: &History) -> GraphVersion {
    history
        .last_key_value()
        .map(|(&v, _)| v.next())
        .unwrap_or(GraphVersion::INITIAL)
}

/// Splits the oldest versions beyond `keep` (≥ 1) off `history` and returns
/// them, so the caller frees them after releasing the shard lock. Called on
/// every publish, so histories can exceed the retention bound only between a
/// publish and this sweep — never observably.
fn split_off_oldest(history: &mut History, keep: usize) -> History {
    if history.len() <= keep {
        return History::new();
    }
    let cutoff = *history.keys().nth_back(keep - 1).expect("len > keep");
    let kept = history.split_off(&cutoff);
    std::mem::replace(history, kept)
}

impl Default for GraphRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdp_graph::generators;

    #[test]
    fn insert_resolve_remove_round_trip() {
        let reg = GraphRegistry::new();
        assert!(reg.is_empty());
        let g = generators::path(5);
        let id = GraphId::new("p5");
        assert_eq!(reg.insert("p5", g.clone()), GraphVersion::INITIAL);
        assert_eq!(reg.len(), 1);
        let (_, old) = reg.resolve_latest(&id).unwrap();
        assert_eq!(*old, g);
        // Superseding publishes the next version; a resolved snapshot stays.
        assert_eq!(reg.insert("p5", generators::star(3)), GraphVersion::new(1));
        assert_eq!(*old, g);
        assert_eq!(reg.len(), 1);
        // Removing the last version drops the id.
        assert_eq!(
            *reg.remove_version(&id, GraphVersion::INITIAL).unwrap(),
            CsrGraph::from_graph(&g)
        );
        assert!(reg.remove_version(&id, GraphVersion::new(1)).is_some());
        assert!(reg.remove_version(&id, GraphVersion::new(1)).is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn insert_advances_the_version_history() {
        let reg = GraphRegistry::new();
        let id = GraphId::new("g");
        reg.insert(id.clone(), generators::path(2));
        reg.insert(id.clone(), generators::path(3));
        reg.insert(id.clone(), generators::path(4));
        assert_eq!(reg.latest_version(&id), Some(GraphVersion::new(2)));
        assert_eq!(
            reg.versions(&id),
            vec![
                GraphVersion::INITIAL,
                GraphVersion::new(1),
                GraphVersion::new(2)
            ]
        );
        assert_eq!(reg.num_versions(), 3);
        assert_eq!(reg.len(), 1);
        // Pinned resolution sees every retained version.
        assert_eq!(
            reg.resolve_arena(&id, Some(GraphVersion::INITIAL))
                .unwrap()
                .1
                .num_vertices(),
            2
        );
        let (v, g) = reg.resolve_latest(&id).unwrap();
        assert_eq!(v, GraphVersion::new(2));
        assert_eq!(g.num_vertices(), 4);
    }

    #[test]
    fn insert_version_refuses_republishing() {
        let reg = GraphRegistry::new();
        let id = GraphId::new("g");
        reg.insert_version(id.clone(), GraphVersion::new(5), generators::path(3))
            .unwrap();
        let err = reg
            .insert_version(id.clone(), GraphVersion::new(5), generators::star(4))
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::VersionExists {
                graph: id.clone(),
                version: GraphVersion::new(5)
            }
        );
        // The original snapshot survived the refused re-publish.
        assert_eq!(
            reg.resolve_arena(&id, Some(GraphVersion::new(5)))
                .unwrap()
                .1
                .num_vertices(),
            3
        );
    }

    #[test]
    fn resolve_reports_typed_unknown_graph_and_version() {
        let reg = GraphRegistry::new();
        let err = reg.resolve_latest(&GraphId::new("missing")).unwrap_err();
        assert_eq!(
            err,
            ServeError::UnknownGraph {
                graph: GraphId::new("missing")
            }
        );
        // Unknown id vs known id at an unpublished version are distinct
        // refusals.
        let id = GraphId::new("g");
        reg.insert(id.clone(), generators::path(3));
        let err = reg
            .resolve_arena(&GraphId::new("missing"), Some(GraphVersion::INITIAL))
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownGraph { .. }));
        let err = reg
            .resolve_arena(&id, Some(GraphVersion::new(9)))
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::UnknownVersion {
                graph: id,
                version: GraphVersion::new(9)
            }
        );
    }

    #[test]
    fn published_arena_mirrors_the_graph_and_is_shared_by_every_resolve() {
        let reg = GraphRegistry::new();
        let id = GraphId::new("g");
        let first = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        reg.insert(id.clone(), first.clone());
        reg.insert_version(id.clone(), GraphVersion::new(3), generators::path(4))
            .unwrap();
        let (v, latest) = reg.resolve_arena(&id, None).unwrap();
        assert_eq!(v, GraphVersion::new(3));
        assert_eq!(*latest, CsrGraph::from_graph(&generators::path(4)));
        let (v, pinned) = reg.resolve_arena(&id, Some(GraphVersion::INITIAL)).unwrap();
        assert_eq!(v, GraphVersion::INITIAL);
        assert_eq!(*pinned, CsrGraph::from_graph(&first));
        assert!(pinned.matches_graph(&first));
        assert_eq!(pinned.num_components(), first.num_connected_components());
        // Publishing built each arena once: every resolve shares it.
        assert!(Arc::ptr_eq(
            &latest,
            &reg.resolve_arena(&id, None).unwrap().1
        ));
        assert!(Arc::ptr_eq(
            &pinned,
            &reg.resolve_arena(&id, Some(GraphVersion::INITIAL))
                .unwrap()
                .1
        ));
        // Refusals are typed like a latest resolve's.
        assert_eq!(
            reg.resolve_arena(&id, Some(GraphVersion::new(9)))
                .unwrap_err(),
            ServeError::UnknownVersion {
                graph: id,
                version: GraphVersion::new(9)
            }
        );
        assert!(matches!(
            reg.resolve_arena(&GraphId::new("missing"), None),
            Err(ServeError::UnknownGraph { .. })
        ));
    }

    #[test]
    fn every_publish_input_converts_to_the_same_arena() {
        // A shared arena is stored as is; a `Graph` and an `Arc<Graph>` both
        // store the arena `from_graph` builds.
        let reg = GraphRegistry::new();
        let g = generators::caveman(3, 4);
        let expected = CsrGraph::from_graph(&g);
        let shared = Arc::new(expected.clone());
        let stored = reg
            .insert_version("g", GraphVersion::new(0), Arc::clone(&shared))
            .unwrap();
        assert!(Arc::ptr_eq(&stored, &shared));
        let stored = reg
            .insert_version("g", GraphVersion::new(1), g.clone())
            .unwrap();
        assert_eq!(*stored, expected);
        reg.insert("g", Arc::new(g.clone()));
        let id = GraphId::new("g");
        for v in 0..3 {
            let (_, arena) = reg.resolve_arena(&id, Some(GraphVersion::new(v))).unwrap();
            assert_eq!(*arena, expected, "version {v}");
        }
        // The one `Graph` view left is built from the arena on demand.
        let (v, graph) = reg.resolve_latest(&id).unwrap();
        assert_eq!((v, &*graph), (GraphVersion::new(2), &g));
        // Removal hands the arena back.
        let removed = reg.remove_version(&id, GraphVersion::new(0)).unwrap();
        assert!(Arc::ptr_eq(&removed, &shared));
    }

    #[test]
    fn ingestion_parses_edge_lists_and_rejects_garbage() {
        let reg = GraphRegistry::new();
        let g = reg
            .ingest_edge_list_version("tri", GraphVersion::INITIAL, "# 3 3\n0 1\n1 2\n0 2\n")
            .unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(reg.resolve_latest(&GraphId::new("tri")).is_ok());
        let err = reg
            .ingest_edge_list_version("bad", GraphVersion::INITIAL, "0 1\nnope\n")
            .unwrap_err();
        assert!(matches!(err, ServeError::Ingest(_)));
        assert!(reg.resolve_latest(&GraphId::new("bad")).is_err());
    }

    #[test]
    fn reingesting_an_existing_id_is_a_typed_refusal_not_an_overwrite() {
        // Regression: this used to silently overwrite the stored graph.
        let reg = GraphRegistry::new();
        let v0 = GraphVersion::INITIAL;
        reg.ingest_edge_list_version("g", v0, "# 3 2\n0 1\n1 2\n")
            .unwrap();
        let err = reg
            .ingest_edge_list_version("g", v0, "# 2 1\n0 1\n")
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::VersionExists {
                graph: GraphId::new("g"),
                version: v0
            }
        );
        // The original graph is untouched.
        assert_eq!(
            reg.resolve_latest(&GraphId::new("g"))
                .unwrap()
                .1
                .num_vertices(),
            3
        );
        assert_eq!(reg.num_versions(), 1);
        // Publishing the same id at a *new* version is fine.
        reg.ingest_edge_list_version("g", GraphVersion::new(1), "# 2 1\n0 1\n")
            .unwrap();
        assert_eq!(
            reg.resolve_latest(&GraphId::new("g"))
                .unwrap()
                .1
                .num_vertices(),
            2
        );
    }

    #[test]
    fn readers_keep_expired_snapshots_and_expiry_counts_are_exact() {
        // Every expiry path frees the registry's share of a snapshot, while a
        // reader that resolved it keeps a valid `Arc`.
        let reg = GraphRegistry::new();
        let id = GraphId::new("g");
        let v0 = reg.insert(id.clone(), generators::path(2));
        let (_, latest) = reg.resolve_arena(&id, None).unwrap();
        for n in 3..2 + DEFAULT_VERSION_RETENTION {
            reg.insert(id.clone(), generators::path(n));
        }
        let (_, arena) = reg.resolve_arena(&id, Some(v0)).unwrap();
        assert!(Arc::ptr_eq(&latest, &arena));
        drop(latest);

        // Publish-time retention expires v0.
        reg.insert(id.clone(), generators::path(100));
        assert!(reg.resolve_arena(&id, Some(v0)).is_err());
        assert_eq!(Arc::strong_count(&arena), 1);
        assert!(arena.matches_graph(&generators::path(2)));

        // Explicit expiry: counts are unchanged by freeing outside the lock.
        let v1 = GraphVersion::new(1);
        let (_, held) = reg.resolve_arena(&id, Some(v1)).unwrap();
        let keep = DEFAULT_VERSION_RETENTION - 1;
        assert_eq!(reg.retain_latest(&id, keep), 1);
        assert_eq!(Arc::strong_count(&held), 1);
        assert!(held.matches_graph(&generators::path(3)));
        assert_eq!(reg.retain_latest(&id, keep), 0);
        assert_eq!(reg.retain_latest(&id, 1), keep - 1);
        assert_eq!(reg.retain_latest(&id, 1), 0);
        assert_eq!(
            reg.versions(&id),
            vec![GraphVersion::new(DEFAULT_VERSION_RETENTION as u64)]
        );
        assert_eq!(reg.num_versions(), 1);
    }

    #[test]
    fn retain_latest_bounds_history_depth_without_unpublishing() {
        let reg = GraphRegistry::new();
        let id = GraphId::new("g");
        for n in 2..10 {
            reg.insert(id.clone(), generators::path(n));
        }
        assert_eq!(reg.retain_latest(&id, 3), 5);
        assert_eq!(
            reg.versions(&id),
            vec![
                GraphVersion::new(5),
                GraphVersion::new(6),
                GraphVersion::new(7)
            ]
        );
        // An expired version is a typed UnknownVersion, the frontier remains.
        assert!(matches!(
            reg.resolve_arena(&id, Some(GraphVersion::INITIAL)),
            Err(ServeError::UnknownVersion { .. })
        ));
        assert!(reg.resolve_latest(&id).is_ok());
        // Already within bound: nothing to do. keep=0 clamps to 1.
        assert_eq!(reg.retain_latest(&id, 3), 0);
        assert_eq!(reg.retain_latest(&id, 0), 2);
        assert_eq!(reg.versions(&id), vec![GraphVersion::new(7)]);
        // Version numbering continues after expiry — versions never recycle.
        reg.insert(id.clone(), generators::path(20));
        assert_eq!(reg.latest_version(&id), Some(GraphVersion::new(8)));
    }

    #[test]
    fn shard_striping_distributes_graphs() {
        let reg = GraphRegistry::new();
        for i in 0..64 {
            reg.insert(format!("graph-{i}"), generators::path(2));
        }
        // Not a distribution test, just that striping is actually in use: no
        // single shard holds everything.
        let max_shard = reg
            .shards
            .iter()
            .map(|s| s.read().unwrap().len())
            .max()
            .unwrap();
        assert!(max_shard < 64);
        assert_eq!(reg.len(), 64);
    }

    #[test]
    fn concurrent_readers_and_writers_do_not_lose_graphs() {
        let reg = Arc::new(GraphRegistry::new());
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for i in 0..25 {
                        reg.insert(format!("t{t}-g{i}"), generators::star(3));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(reg.len(), 100);
    }

    #[test]
    fn default_retention_bounds_update_style_callers() {
        // Republishing one id forever must hold bounded memory: the history
        // stays at the retention bound, always keeping the frontier.
        let reg = GraphRegistry::new();
        let id = GraphId::new("refreshed");
        for n in 2..42 {
            reg.insert(id.clone(), generators::path(n));
        }
        assert_eq!(reg.num_versions(), DEFAULT_VERSION_RETENTION);
        assert_eq!(reg.latest_version(&id), Some(GraphVersion::new(39)));
        assert_eq!(reg.resolve_latest(&id).unwrap().1.num_vertices(), 41);
    }

    #[test]
    fn backfills_behind_the_retention_window_are_refused_not_dropped() {
        // Regression: insert_version used to return Ok while enforce_retention
        // immediately expired the just-inserted backfill.
        let reg = GraphRegistry::new();
        let id = GraphId::new("g");
        let full = DEFAULT_VERSION_RETENTION as u64;
        for v in 1..=full {
            reg.insert_version(id.clone(), GraphVersion::new(v), generators::path(3))
                .unwrap();
        }
        let err = reg
            .insert_version(id.clone(), GraphVersion::new(0), generators::path(3))
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::VersionExpired {
                graph: id.clone(),
                version: GraphVersion::new(0),
                oldest_retained: GraphVersion::new(1),
            }
        );
        assert_eq!(reg.num_versions(), DEFAULT_VERSION_RETENTION);
        // A backfill that fits inside the window (above the current oldest)
        // is accepted and resolvable; the oldest is expired to make room.
        for v in [full + 2, full + 3] {
            reg.insert_version(id.clone(), GraphVersion::new(v), generators::path(3))
                .unwrap();
        }
        let backfill = GraphVersion::new(full + 1);
        let ok = reg.insert_version(id.clone(), backfill, generators::path(3));
        assert!(ok.is_ok());
        assert!(reg.resolve_arena(&id, Some(backfill)).is_ok());
        assert_eq!(reg.num_versions(), DEFAULT_VERSION_RETENTION);
    }

    #[test]
    fn publishes_land_in_an_attached_audit_journal() {
        let reg = GraphRegistry::new();
        let journal = Arc::new(AuditJournal::new());
        reg.set_journal(Arc::clone(&journal));
        reg.insert("g", generators::path(3));
        reg.insert_version("g", GraphVersion::new(7), generators::path(4))
            .unwrap();
        // A refused re-publish emits nothing: the journal records decisions
        // that changed the catalog, not attempts.
        assert!(reg
            .insert_version("g", GraphVersion::new(7), generators::path(4))
            .is_err());
        let events = journal.snapshot();
        assert_eq!(events.len(), 2, "{events:?}");
        assert!(events
            .iter()
            .all(|e| e.kind == AuditKind::ReleasePublished && e.graph == "g"));
        assert_eq!(events[0].version, Some(0));
        assert_eq!(events[1].version, Some(7));
    }

    #[test]
    fn concurrent_version_publishers_never_collide() {
        // Four writers each publish 25 versions of ONE graph via `insert`;
        // every publish must claim a distinct version (the returned versions
        // are exactly 0..100), and retention must keep exactly the newest
        // ones.
        let reg = Arc::new(GraphRegistry::new());
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    (0..25)
                        .map(|_| reg.insert("shared", generators::path(3)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut claimed: Vec<GraphVersion> = writers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        claimed.sort();
        assert_eq!(claimed, (0..100).map(GraphVersion::new).collect::<Vec<_>>());
        let id = GraphId::new("shared");
        assert_eq!(reg.latest_version(&id), Some(GraphVersion::new(99)));
        assert_eq!(
            reg.versions(&id),
            (100 - DEFAULT_VERSION_RETENTION as u64..100)
                .map(GraphVersion::new)
                .collect::<Vec<_>>()
        );
    }
}
