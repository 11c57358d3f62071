//! Linear-programming and polytope-solving substrate.
//!
//! The paper evaluates its Lipschitz extensions by maximizing `x(E)` over the
//! Δ-bounded forest polytope (Definition 3.1). This crate owns the whole
//! solver stack for that problem, organized in three layers:
//!
//! * [`solver`] — the pluggable [`PolytopeSolver`] trait with two exact
//!   backends: the default [`CombinatorialSolver`] (certified graph-algorithm
//!   reductions, LP only for the irreducible fractional core) and the
//!   reference [`SimplexSolver`] (no reductions; cutting planes paired with
//!   the column-generation bound).
//! * [`cutting_plane`] — constraint generation with the min-cut separation
//!   oracle, per-vertex degree capacities and warm-started re-solves.
//! * [`simplex`] / [`problem`] — the LP substrate: an incremental tableau
//!   simplex ([`IncrementalSimplex`]) whose basis survives across added cuts
//!   (dual-simplex repair), with Bland's anti-cycling rule, plus the
//!   container type [`LinearProgram`] for one-shot solves.

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
    solve_partition, PartitionSolution, PartitionSolveStats, SolveOptions, DEDUP_MAX_VERTICES,
};
pub use problem::{LinearProgram, LpError, LpSolution};
pub use simplex::IncrementalSimplex;
pub use solver::{PolytopeError, PolytopeSolution, PolytopeSolver, SimplexSolver, SolverBackend};
