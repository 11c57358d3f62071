//! Linear-programming and polytope-solving substrate.
//!
//! The paper evaluates its Lipschitz extensions by maximizing `x(E)` over the
//! Δ-bounded forest polytope (Definition 3.1). Any exact maximizer gives the
//! same value, so this crate has one engine and two reference solvers that
//! test it:
//!
//! * [`micro`] — the engine: [`solve_partition`] solves every component of
//!   a CSR component partition for a whole grid of Δ values in one
//!   parallel sweep, with closed forms for trees and cycles and
//!   labeled-slice class dedup; [`solve_partition_with_memo`] also reuses
//!   the classes a graph's previous version solved ([`ClassMemo`]).
//! * [`solver`] / [`combinatorial`] — the reference solvers on adjacency-list
//!   graphs, which only tests and benchmarks call: [`CombinatorialSolver`]
//!   (the reduction loop the engine replicates bit for bit) and
//!   [`SimplexSolver`] (the independent LP oracle: cutting planes paired
//!   with the column-generation bound). The adjacency-list graph stops at
//!   their entry points: each component goes on as a vertex count and a
//!   canonical edge list.
//! * [`column_generation`] / [`cutting_plane`] — the exact LP tail for the
//!   irreducible fractional core: Dantzig–Wolfe column generation over
//!   forests, and constraint generation with the min-cut separation oracle.
//!   Both read a piece's vertex count and canonical edge list only. The
//!   engine and [`CombinatorialSolver`] reach them through one piece solver
//!   in [`combinatorial`], which takes the piece as a small `CsrGraph` with
//!   local ids and first series-contracts it: every chain of non-binding
//!   degree-2 vertices between two distinct ends becomes one vertex, and
//!   the weights are expanded back afterwards.
//! * [`simplex`] / [`problem`] — the LP substrate: an incremental tableau
//!   simplex ([`IncrementalSimplex`]) whose basis survives across added cuts
//!   and columns (dual-simplex repair), with Bland's anti-cycling rule.

#![forbid(unsafe_code)]

pub mod column_generation;
pub mod combinatorial;
pub mod cutting_plane;
pub mod micro;
pub mod problem;
pub mod simplex;
pub mod solver;

pub use combinatorial::CombinatorialSolver;
pub use cutting_plane::violated_forest_constraints;
pub use micro::{
    solve_partition, solve_partition_with_memo, ClassMemo, PartitionSolution, PartitionSolveStats,
    DEDUP_MAX_VERTICES,
};
pub use problem::{LpError, LpSolution};
pub use simplex::IncrementalSimplex;
pub use solver::{PolytopeError, PolytopeSolution, SimplexSolver};
