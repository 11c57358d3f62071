//! Maximum-flow / minimum-cut substrate.
//!
//! The forest-polytope separation oracle of the core crate reduces to a sequence
//! of maximum-weight-closure (project-selection) problems, each of which is a
//! single s-t minimum cut. This crate provides:
//!
//! * [`dinic`]: Dinic's maximum-flow algorithm on a capacitated directed graph,
//! * [`closure`]: the maximum-weight closure reduction built on top of it.

#![forbid(unsafe_code)]

pub mod closure;
pub mod dinic;

pub use closure::{max_weight_closure, ClosureInstance, ClosureSolution};
pub use dinic::{FlowNetwork, MaxFlowResult};
