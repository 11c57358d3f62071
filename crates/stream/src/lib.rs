//! Dynamic-graph ingestion and continual node-DP re-estimation.
//!
//! The serving tier (`ccdp_serve`) answers releases over a *static* catalog;
//! real graph workloads mutate — edges arrive and retire — while tenants
//! keep asking "how many connected components *now*?". This crate is the
//! layer that closes that gap:
//!
//! * [`stream`] — [`GraphStream`]: timestamped edge insertions/deletions
//!   (single and batched), incremental component counts (union-find in
//!   insert-only epochs, lazy epoch compaction + rebuild on deletions), and
//!   immutable versioned [`GraphSnapshot`]s.
//! * [`replay`] — plain-text mutation-list I/O in the style of
//!   [`ccdp_graph::io`]: `t + u v` / `t - u v` lines, so feeds can be
//!   archived and replayed.
//! * [`scheduler`] — [`ReleaseScheduler`]: fires DP re-estimation by
//!   [`ReleasePolicy`] (every k mutations, on component drift, on demand),
//!   publishes each snapshot into the shared version-aware
//!   [`GraphRegistry`](ccdp_serve::GraphRegistry), bulk-invalidates
//!   superseded versions from the shared
//!   [`ExtensionCache`](ccdp_core::ExtensionCache), charges each release to
//!   the owning tenant's [`BudgetLedger`](ccdp_serve::BudgetLedger) and
//!   appends to a versioned release log.
//! * [`mutationgen`] — the deterministic [`MutationSpec`] workload
//!   generator driving the evolving-fleet example and CI smoke job.
//! * [`error`] — the typed [`StreamError`] failure surface.
//!
//! # Quick start
//!
//! ```
//! use ccdp_stream::{
//!     GraphStream, Mutation, ReleasePolicy, ReleaseScheduler, SchedulerConfig,
//! };
//! use ccdp_core::ExtensionCache;
//! use ccdp_serve::{BudgetLedger, GraphRegistry, TenantId};
//! use std::sync::Arc;
//!
//! // Shared serving infrastructure: versioned catalog, tenant quotas, cache.
//! let registry = Arc::new(GraphRegistry::new());
//! let ledger = Arc::new(BudgetLedger::new());
//! ledger.register("analytics-team", 5.0).unwrap();
//! let cache = Arc::new(ExtensionCache::new(64));
//!
//! // A stream ingests mutations; the scheduler re-releases every 2 of them.
//! let sched = ReleaseScheduler::new(
//!     SchedulerConfig::new(ReleasePolicy::EveryKMutations(2)).with_epsilon(0.5),
//!     registry,
//!     ledger,
//!     cache,
//! );
//! let mut stream = GraphStream::new("social/live");
//! let tenant = TenantId::new("analytics-team");
//! stream.apply(&Mutation::insert(1, 0, 1)).unwrap();
//! let baseline = sched.observe(&mut stream, &tenant).unwrap().unwrap();
//! assert!(baseline.value.is_finite());
//! stream.apply(&Mutation::insert(2, 1, 2)).unwrap();
//! stream.apply(&Mutation::delete(3, 0, 1)).unwrap();
//! let update = sched.observe(&mut stream, &tenant).unwrap().unwrap();
//! assert!(update.version > baseline.version);
//! ```

pub mod error;
pub mod mutationgen;
pub mod replay;
pub mod scheduler;
pub mod stream;

pub use error::StreamError;
pub use mutationgen::MutationSpec;
pub use replay::{from_mutation_list, to_mutation_list, ReplayParseError};
pub use scheduler::{
    ReleasePolicy, ReleaseRecord, ReleaseScheduler, ReleaseTrigger, SchedulerConfig,
};
pub use stream::{EdgeOp, GraphSnapshot, GraphStream, Mutation, StreamStats};
