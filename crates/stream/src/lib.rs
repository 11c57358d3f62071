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
//!   immutable versioned [`GraphSnapshot`]s, each one CSR arena the
//!   registry publishes as is.
//! * [`scheduler`] — [`ReleaseScheduler`]: fires DP re-estimation by
//!   [`ReleasePolicy`] (every k mutations or on demand — never on the
//!   graph's contents),
//!   publishes each snapshot into a [`Server`](ccdp_serve::Server)'s
//!   version-aware [`GraphRegistry`](ccdp_serve::GraphRegistry), releases it
//!   through the server's worker pool (charged to the owning tenant's
//!   [`BudgetLedger`](ccdp_serve::BudgetLedger)) and bulk-invalidates
//!   superseded versions from the server's family cache.
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
//! use ccdp_serve::{BudgetLedger, GraphRegistry, ServeConfig, Server, TenantId};
//! use std::sync::Arc;
//!
//! // Shared serving infrastructure: versioned catalog, tenant quotas, workers.
//! let ledger = Arc::new(BudgetLedger::new());
//! ledger.register("analytics-team", 5.0).unwrap();
//! let server = Arc::new(Server::start(
//!     ServeConfig::new().with_workers(2),
//!     Arc::new(GraphRegistry::new()),
//!     ledger,
//! ));
//!
//! // A stream ingests mutations; the scheduler re-releases every 2 of them.
//! let sched = ReleaseScheduler::with_server(
//!     SchedulerConfig::new(ReleasePolicy::EveryKMutations(2)).with_epsilon(0.5),
//!     server,
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

#![forbid(unsafe_code)]

pub mod error;
pub mod mutationgen;
pub mod scheduler;
pub mod stream;

pub use error::StreamError;
pub use mutationgen::MutationSpec;
pub use scheduler::{
    ReleasePolicy, ReleaseRecord, ReleaseScheduler, ReleaseTrigger, SchedulerConfig,
};
pub use stream::{EdgeOp, GraphSnapshot, GraphStream, Mutation, StreamStats};
