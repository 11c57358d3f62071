//! Graph substrate for the node-differentially private connected-components library.
//!
//! This crate provides everything the paper's algorithm needs from a graph:
//!
//! * a simple undirected, unweighted [`Graph`] representation ([`graph`]),
//! * connected components and spanning-forest size (`f_cc`, `f_sf`) ([`components`](mod@components)),
//! * spanning forests, the local-repair procedure of Algorithm 3 and
//!   degree-bounded spanning forests (Lemma 1.8) ([`forest`]),
//! * the induced star number `s(G)` (Lemma 1.7) ([`stars`]),
//! * down-sensitivity of `f_sf` and `f_cc` ([`sensitivity`]),
//! * induced subgraphs ([`subgraph`]),
//! * random and structured graph generators used by the paper's analysis
//!   ([`generators`]),
//! * plain-text edge-list I/O ([`io`]).
//!
//! Vertices are `usize` indices in `0..n`. Graphs are undirected, simple
//! (no self-loops, no parallel edges) and unweighted, exactly as in the paper.

#![forbid(unsafe_code)]

pub mod components;
pub mod csr;
pub mod forest;
pub mod generators;
pub mod graph;
pub mod io;
pub mod sensitivity;
pub mod stars;
pub mod subgraph;
pub mod unionfind;
pub mod version;

pub use components::{component_sizes, components, num_connected_components, spanning_forest_size};
pub use csr::{ComponentPartition, ComponentSummary, CsrComponent, CsrGraph};
pub use forest::{bfs_spanning_forest, bounded_degree_spanning_forest, SpanningForest};
pub use graph::Graph;
pub use sensitivity::{down_sensitivity_fcc, down_sensitivity_fsf};
pub use stars::induced_star_number;
pub use unionfind::UnionFind;
pub use version::GraphVersion;
