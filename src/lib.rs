//! `ccdp` — the facade crate for node-differentially private estimation of the
//! number of connected components (Kalemaj–Raskhodnikova–Smith–Tsourakakis,
//! PODS 2023).
//!
//! Applications depend on this one crate and program against one coherent API:
//!
//! * [`Estimator`] — the object-safe trait implemented by the paper's private
//!   estimators **and** every baseline, so heterogeneous estimators can be
//!   served as `Box<dyn Estimator>`.
//! * [`Release`] — the type-safe output: the differentially private
//!   [`Release::value`] is the default surface; non-private [`Diagnostics`]
//!   require an explicit [`DiagnosticsAccess`] token.
//! * [`EstimatorConfig`] — the validating builder shared by all estimators,
//!   returning typed [`ConfigError`]s instead of panicking.
//! * [`CcdpError`] — the unified error type every estimator returns.
//!
//! # Quick start
//!
//! ```
//! use ccdp::prelude::*;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let g = generators::planted_star_forest(30, 3, 10); // 40 components
//!
//! let estimator = PrivateCcEstimator::from_config(EstimatorConfig::new(1.0))?;
//! let release = estimator.estimate(&g, &mut rng)?;
//! println!("{release}"); // prints the private value, never the diagnostics
//! assert!((release.value() - g.num_connected_components() as f64).abs() < 60.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A serving loop over heterogeneous estimators:
//!
//! ```
//! use ccdp::prelude::*;
//!
//! let fleet: Vec<Box<dyn Estimator>> = vec![
//!     Box::new(PrivateCcEstimator::new(1.0)?),
//!     Box::new(EdgeDpBaseline::new(1.0)?),
//!     Box::new(NonPrivateBaseline),
//! ];
//! let g = generators::planted_star_forest(10, 2, 0);
//! let mut rng = StdRng::seed_from_u64(1);
//! for est in &fleet {
//!     let r = est.estimate(&g, &mut rng)?;
//!     println!("{:>24} [{}]: {:.1}", est.name(), est.privacy(), r.value());
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// The layer crates, re-exported whole for advanced use.
pub use ccdp_core as core;
pub use ccdp_dp as dp;
pub use ccdp_graph as graph;
pub use ccdp_net as net;
pub use ccdp_obs as obs;
pub use ccdp_serve as serve;
pub use ccdp_stream as stream;

// The curated public API at the crate root.
pub use ccdp_core::{
    measure_errors, CacheStats, CcdpError, ConfigError, CoreError, Diagnostics, DiagnosticsAccess,
    EdgeDpBaseline, ErrorStats, Estimator, EstimatorConfig, EvaluationPath, ExtensionCache,
    ExtensionEvaluation, FixedDeltaBaseline, LipschitzExtension, NaiveNodeDpBaseline,
    NonPrivateBaseline, Privacy, PrivateCcEstimator, PrivateSpanningForestEstimator, Release,
    SolverBackend,
};
pub use ccdp_dp::{BudgetExceeded, PrivacyBudget};
pub use ccdp_exec::{PhaseProfiler, PhaseReport};
pub use ccdp_graph::{CsrGraph, Graph, GraphVersion};
pub use ccdp_obs::{
    replay_tenant, AuditEvent, AuditJournal, AuditKind, BudgetReplay, MetricsRegistry,
    MetricsSnapshot, SpanKind, TraceCtx, TraceId, TraceTree, Tracer,
};

/// Everything an application needs in one import: the estimator API, the graph
/// layer (including its submodules for generators, I/O, sensitivities, …) and
/// the seeded RNG plumbing.
pub mod prelude {
    pub use ccdp_core::{
        downsens_extension_fsf, in_anchor_set, in_optimal_monotone_anchor_set,
        smallest_anchor_delta,
    };
    pub use ccdp_core::{
        evaluate_family, forest_polytope_max, forest_polytope_max_with, measure_errors, CacheStats,
        CcdpError, ConfigError, CoreError, Diagnostics, DiagnosticsAccess, EdgeDpBaseline,
        ErrorStats, Estimator, EstimatorConfig, EvaluationPath, ExtensionCache, FixedDeltaBaseline,
        LipschitzExtension, NaiveNodeDpBaseline, NonPrivateBaseline, Privacy, PrivateCcEstimator,
        PrivateSpanningForestEstimator, Release, SolverBackend,
    };
    pub use ccdp_dp::{BudgetExceeded, PrivacyBudget};
    pub use ccdp_exec::{PhaseProfiler, PhaseReport};
    pub use ccdp_graph::{
        components, forest, generators, io, sensitivity, stars, subgraph, CsrGraph, Graph,
        GraphVersion,
    };
    pub use ccdp_net::{NetClient, NetConfig, NetError, NetServer, NetStatsSnapshot};
    pub use ccdp_obs::{
        replay_tenant, AuditEvent, AuditJournal, AuditKind, BudgetReplay, Counter, FloatCounter,
        Gauge, MetricsRegistry, MetricsSnapshot, SpanKind, TraceCtx, TraceId, TraceTree, Tracer,
    };
    pub use ccdp_serve::{
        BudgetLedger, GraphId, GraphRegistry, PendingResponse, ServeConfig, ServeError,
        ServeRequest, ServeResponse, Server, StatsSnapshot, TenantAuditSnapshot, TenantId,
    };
    pub use ccdp_stream::{
        EdgeOp, GraphSnapshot, GraphStream, Mutation, MutationSpec, ReleasePolicy, ReleaseRecord,
        ReleaseScheduler, ReleaseTrigger, SchedulerConfig, StreamError, StreamStats,
    };
    pub use rand::rngs::StdRng;
    pub use rand::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn facade_prelude_is_self_sufficient() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::planted_star_forest(12, 2, 4);
        let est = PrivateCcEstimator::from_config(EstimatorConfig::new(1.0)).unwrap();
        let release = est.estimate(&g, &mut rng).unwrap();
        assert!(release.value().is_finite());
        assert_eq!(release.privacy(), Privacy::NodeDp { epsilon: 1.0 });
    }
}
