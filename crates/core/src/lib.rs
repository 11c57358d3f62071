//! Node-differentially private estimation of the number of connected components.
//!
//! This crate reproduces the algorithm of Kalemaj, Raskhodnikova, Smith and
//! Tsourakakis, *"Node-Differentially Private Estimation of the Number of
//! Connected Components"* (PODS 2023): the first node-private algorithm for
//! releasing `f_cc(G)`, built from an efficiently computable family of Lipschitz
//! extensions of the spanning-forest size.
//!
//! The public surface is one coherent API: every estimator — private algorithms
//! and baselines alike — implements the object-safe [`Estimator`] trait, is
//! configured through the validating [`EstimatorConfig`] builder, and produces
//! a typed [`Release`] whose non-private diagnostics are gated behind
//! [`DiagnosticsAccess`]. (Applications usually depend on the `ccdp` facade
//! crate, which re-exports all of this plus the graph layer as a prelude.)
//!
//! # Quick start
//!
//! ```
//! use ccdp_core::{
//!     DiagnosticsAccess, Estimator, EstimatorConfig, LipschitzExtension, PrivateCcEstimator,
//! };
//! use ccdp_graph::generators;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // A forest of 30 small stars plus 10 isolated sensors: 40 components.
//! let g = generators::planted_star_forest(30, 3, 10);
//!
//! // Release the number of connected components with ε = 1 node-DP.
//! let estimator = PrivateCcEstimator::from_config(EstimatorConfig::new(1.0))?;
//! let release = estimator.estimate(&g, &mut rng)?;
//! let truth = g.num_connected_components() as f64;
//! assert!((release.value() - truth).abs() < 60.0);
//!
//! // Non-private diagnostics require an explicit acknowledgement token.
//! let diagnostics = release.diagnostics(DiagnosticsAccess::acknowledge_non_private());
//! assert!(diagnostics.selected_delta.unwrap() >= 1);
//!
//! // The Lipschitz extension underlying the algorithm can be evaluated directly.
//! let f2 = LipschitzExtension::new(2).evaluate(&g)?;
//! assert!(f2 <= g.spanning_forest_size() as f64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Module map
//!
//! * [`estimator`] — the unified, object-safe [`Estimator`] trait.
//! * [`release`] — the type-safe [`Release`] output: private value by default,
//!   [`Diagnostics`] gated behind [`DiagnosticsAccess`].
//! * [`config`] — the shared [`EstimatorConfig`] builder with typed
//!   [`ConfigError`] validation.
//! * [`error`] — [`CoreError`] (algorithm internals) and the unified
//!   [`CcdpError`] returned by every estimator.
//! * [`extension`] — the Lipschitz extension family `{f_Δ}` (Lemma 3.3), the
//!   maximum of `x(E)` over the Δ-bounded forest polytope (Definition 3.1),
//!   with the spanning-forest fast path. [`evaluate_family`] evaluates it
//!   over a partitioned CSR arena and is its only evaluator:
//!   [`LipschitzExtension`] is its one-point grid.
//! * [`cache`] — the graph-keyed [`ExtensionCache`] that makes repeated
//!   `estimate()` calls on the same graph ~20× cheaper.
//! * [`algorithm`] — Algorithm 1 (private spanning-forest size) and the derived
//!   connected-components estimator, threading one
//!   [`PrivacyBudget`](ccdp_dp::PrivacyBudget) accountant through both stages.
//! * [`downsens_extension`](mod@downsens_extension) — the exponential-time Lemma A.1 extension used as an
//!   optimality comparator.
//! * [`anchor`] — anchor-set membership checks (Lemma 1.9 / A.3).
//! * [`baselines`] — non-private, edge-DP, naive node-DP and fixed-Δ baselines,
//!   all behind the same [`Estimator`] trait.
//! * [`accuracy`] — the error-measurement harness shared by the experiments.

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod algorithm;
pub mod anchor;
pub mod baselines;
pub mod cache;
pub mod config;
pub mod downsens_extension;
pub mod error;
pub mod estimator;
pub mod extension;
pub mod release;

pub use accuracy::{measure_errors, ErrorStats};
pub use algorithm::{PrivateCcEstimator, PrivateSpanningForestEstimator};
pub use anchor::{in_anchor_set, in_optimal_monotone_anchor_set, smallest_anchor_delta};
pub use baselines::{EdgeDpBaseline, FixedDeltaBaseline, NaiveNodeDpBaseline, NonPrivateBaseline};
pub use cache::{CacheStats, ExtensionCache, GraphTag};
pub use ccdp_lp::ClassMemo;
pub use config::{ConfigError, EstimatorConfig, ObsHandles};
pub use downsens_extension::{downsens_extension, downsens_extension_fsf};
pub use error::{CcdpError, CoreError};
pub use estimator::Estimator;
pub use extension::{evaluate_family, EvaluationPath, ExtensionEvaluation, LipschitzExtension};
pub use release::{Diagnostics, DiagnosticsAccess, Privacy, Release};
