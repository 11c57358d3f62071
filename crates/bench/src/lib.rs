//! Experiment harness shared by the benchmark targets.
//!
//! Each `exp_*` bench target (run via `cargo bench`) regenerates one table of the
//! evaluation described in EXPERIMENTS.md; the `bench_*` targets are Criterion
//! micro-benchmarks for the performance-sensitive building blocks.

#![forbid(unsafe_code)]

pub mod report;

pub use report::Table;
