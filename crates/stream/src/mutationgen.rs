//! Deterministic mutation-load generation: the seeded fixture behind the
//! streaming tests and benches.
//!
//! A [`MutationSpec`] fully describes a streaming workload — fleet size,
//! per-graph vertex universe, initial density, mutation count, delete mix —
//! and materializes, per graph, a reproducible initial [`Graph`] plus a
//! timestamped [`Mutation`] script. Everything derives from the spec seed,
//! so a spec is a benchmark: the same spec always produces the same fleet
//! evolving through the same states, which is what lets tests assert exact
//! cache/registry/count invariants on top of it.
//!
//! Deletion mutations are drawn against a mirror of the evolving edge set,
//! so a scripted delete always removes a *present* edge (the interesting
//! case — it ends an insert-only epoch and may split a component); no-op
//! mutations arise only from scripted duplicate insertions.

use crate::stream::{GraphStream, Mutation};
use ccdp_graph::{generators, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic description of one evolving-fleet workload.
#[derive(Clone, Debug)]
pub struct MutationSpec {
    /// Number of streams in the fleet (graph ids `stream/g0`, `stream/g1`, …).
    pub graphs: usize,
    /// Vertex universe per graph (mutations draw endpoints from `0..vertices`).
    pub vertices: usize,
    /// Expected average degree of the initial Erdős–Rényi graphs.
    pub initial_avg_degree: f64,
    /// Scripted mutations per graph.
    pub mutations_per_graph: usize,
    /// Fraction of mutations that delete a present edge (when one exists).
    pub delete_fraction: f64,
    /// Seed of the whole workload.
    pub seed: u64,
}

impl MutationSpec {
    /// The fixed CI smoke spec: an 8-graph fleet on 48-vertex universes,
    /// 240 mutations each with a 30% delete mix.
    pub fn ci_smoke() -> Self {
        MutationSpec {
            graphs: 8,
            vertices: 48,
            initial_avg_degree: 1.5,
            mutations_per_graph: 240,
            delete_fraction: 0.3,
            seed: 2026,
        }
    }

    /// The catalog id of fleet member `index`.
    pub fn graph_id(&self, index: usize) -> String {
        format!("stream/g{index}")
    }

    /// The deterministic initial graph of fleet member `index`.
    pub fn initial_graph(&self, index: usize) -> Graph {
        let mut rng = StdRng::seed_from_u64(self.member_seed(index, 0x1));
        let n = self.vertices.max(2);
        let p = (self.initial_avg_degree / n as f64).clamp(0.0, 1.0);
        generators::erdos_renyi(n, p, &mut rng)
    }

    /// The deterministic mutation script of fleet member `index`
    /// (timestamps `1..=mutations_per_graph`).
    pub fn mutations(&self, index: usize) -> Vec<Mutation> {
        let mut rng = StdRng::seed_from_u64(self.member_seed(index, 0x2));
        let n = self.vertices.max(2);
        // Mirror of the evolving edge set, so deletes target present edges.
        let mut mirror = self.initial_graph(index);
        let mut script = Vec::with_capacity(self.mutations_per_graph);
        for t in 1..=self.mutations_per_graph as u64 {
            let delete =
                mirror.num_edges() > 0 && rng.gen_bool(self.delete_fraction.clamp(0.0, 1.0));
            if delete {
                let edges = mirror.edge_vec();
                let (u, v) = edges[rng.gen_range(0..edges.len())];
                mirror.remove_edge(u, v);
                script.push(Mutation::delete(t, u, v));
            } else {
                let u = rng.gen_range(0..n);
                let mut v = rng.gen_range(0..n - 1);
                if v >= u {
                    v += 1;
                }
                mirror.add_edge(u, v);
                script.push(Mutation::insert(t, u, v));
            }
        }
        script
    }

    /// Builds the ready-to-run stream of fleet member `index` (initial graph
    /// loaded, no mutations applied yet).
    pub fn stream(&self, index: usize) -> GraphStream {
        GraphStream::from_graph(self.graph_id(index), self.initial_graph(index))
    }

    /// Total scripted mutations across the fleet.
    pub fn total_mutations(&self) -> usize {
        self.graphs * self.mutations_per_graph
    }

    fn member_seed(&self, index: usize, salt: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index as u64)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(salt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::EdgeOp;
    use ccdp_graph::components;

    #[test]
    fn specs_are_deterministic_per_member() {
        let spec = MutationSpec::ci_smoke();
        assert_eq!(spec.initial_graph(3), spec.initial_graph(3));
        assert_eq!(spec.mutations(3), spec.mutations(3));
        // Members differ from each other.
        assert_ne!(spec.mutations(0), spec.mutations(1));
        assert_eq!(spec.graph_id(5), "stream/g5");
        assert_eq!(spec.total_mutations(), 8 * 240);
    }

    #[test]
    fn scripts_mix_real_deletes_with_inserts() {
        let spec = MutationSpec::ci_smoke();
        let script = spec.mutations(0);
        assert_eq!(script.len(), 240);
        let deletes = script.iter().filter(|m| m.op == EdgeOp::Delete).count();
        // ~30% of 240, with generous slack for the RNG.
        assert!(
            (40..=110).contains(&deletes),
            "delete mix {deletes}/240 is far off the 30% target"
        );
        // Timestamps are strictly increasing, so any replay order is valid.
        assert!(script.windows(2).all(|w| w[0].time < w[1].time));
    }

    #[test]
    fn scripted_deletes_always_remove_present_edges() {
        let spec = MutationSpec::ci_smoke();
        for index in 0..spec.graphs {
            let mut stream = spec.stream(index);
            for m in spec.mutations(index) {
                let had_edge = stream.graph().has_edge(m.u, m.v);
                let changed = stream.apply(&m).unwrap();
                if m.op == EdgeOp::Delete {
                    assert!(had_edge && changed, "scripted delete must be real");
                }
            }
            // End-state sanity: the incremental count matches from scratch.
            let expected = components::num_connected_components(stream.graph());
            assert_eq!(stream.num_components(), expected);
        }
    }
}
