//! Graph generators: the random models analyzed in the paper (Section 1.1.4) and
//! structured families used throughout its proofs and our experiments.

use crate::graph::Graph;
use rand::seq::SliceRandom;
use rand::Rng;

/// Path on `n` vertices (`P_n`).
pub fn path(n: usize) -> Graph {
    let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    Graph::from_edges(n, &edges)
}

/// Cycle on `n` vertices (`C_n`, requires `n >= 3`).
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    edges.push((n - 1, 0));
    Graph::from_edges(n, &edges)
}

/// Star `K_{1,k}`: one center (vertex 0) adjacent to `k` leaves.
pub fn star(k: usize) -> Graph {
    let edges: Vec<(usize, usize)> = (1..=k).map(|i| (0, i)).collect();
    Graph::from_edges(k + 1, &edges)
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n * (n.saturating_sub(1)) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, &edges)
}

/// Two-dimensional grid graph with `rows × cols` vertices.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut g = Graph::new(rows * cols);
    let idx = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(idx(r, c), idx(r, c + 1));
            }
            if r + 1 < rows {
                g.add_edge(idx(r, c), idx(r + 1, c));
            }
        }
    }
    g
}

/// Disjoint union of two graphs (vertices of `b` are shifted by `|V(a)|`).
pub fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
    let offset = a.num_vertices();
    let mut g = Graph::new(offset + b.num_vertices());
    for (u, v) in a.edges() {
        g.add_edge(u, v);
    }
    for (u, v) in b.edges() {
        g.add_edge(u + offset, v + offset);
    }
    g
}

/// A forest of `num_stars` disjoint stars `K_{1,star_size}` plus `isolated`
/// isolated vertices. Its `f_cc` is `num_stars + isolated` and its `Δ*` is
/// `star_size` (for `star_size ≥ 1`), making it the canonical family for the
/// error-versus-`Δ*` experiment (E3).
pub fn planted_star_forest(num_stars: usize, star_size: usize, isolated: usize) -> Graph {
    let n = num_stars * (star_size + 1) + isolated;
    let mut g = Graph::new(n);
    for s in 0..num_stars {
        let center = s * (star_size + 1);
        for leaf in 1..=star_size {
            g.add_edge(center, center + leaf);
        }
    }
    g
}

/// Connected caveman-style graph: `num_cliques` cliques of size `clique_size`, with
/// consecutive cliques joined by a single edge.
pub fn caveman(num_cliques: usize, clique_size: usize) -> Graph {
    assert!(clique_size >= 1);
    let n = num_cliques * clique_size;
    let mut g = Graph::new(n);
    for c in 0..num_cliques {
        let base = c * clique_size;
        for u in 0..clique_size {
            for v in (u + 1)..clique_size {
                g.add_edge(base + u, base + v);
            }
        }
        if c + 1 < num_cliques {
            g.add_edge(base + clique_size - 1, base + clique_size);
        }
    }
    g
}

/// Erdős–Rényi random graph `G(n, p)`: each of the `n·(n-1)/2` possible edges is
/// present independently with probability `p`.
///
/// Uses the standard geometric skipping technique, so the cost is proportional to
/// the number of generated edges rather than `n²` when `p` is small.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut g = Graph::new(n);
    if n < 2 || p == 0.0 {
        return g;
    }
    if p >= 1.0 {
        return complete(n);
    }
    // Iterate over pairs in lexicographic order, skipping ahead by geometric jumps.
    let log_q = (1.0 - p).ln();
    let mut v: usize = 1;
    let mut w: i64 = -1;
    while v < n {
        let r: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let skip = (r.ln() / log_q).floor() as i64;
        w += 1 + skip;
        while w >= v as i64 && v < n {
            w -= v as i64;
            v += 1;
        }
        if v < n {
            g.add_edge(w as usize, v);
        }
    }
    g
}

/// Streaming counterpart of [`erdos_renyi`]: yields the same edges (same
/// geometric-skipping walk, same RNG consumption) as `(u32, u32)` pairs
/// without building a [`Graph`].
///
/// Takes the RNG by value so the stream can be re-created from the same seed —
/// exactly what [`CsrGraph::from_edge_stream`](crate::csr::CsrGraph::from_edge_stream)
/// needs for its two counting passes:
///
/// ```
/// use ccdp_graph::{generators, CsrGraph};
/// use rand::{rngs::StdRng, SeedableRng};
/// let csr = CsrGraph::from_edge_stream(1000, || {
///     generators::erdos_renyi_edges(1000, 1.05 / 1000.0, StdRng::seed_from_u64(7))
/// });
/// let g = generators::erdos_renyi(1000, 1.05 / 1000.0, &mut StdRng::seed_from_u64(7));
/// assert!(csr.matches_graph(&g));
/// ```
pub fn erdos_renyi_edges<R: Rng>(n: usize, p: f64, rng: R) -> ErdosRenyiEdges<R> {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    ErdosRenyiEdges {
        n,
        dense: p >= 1.0,
        log_q: if p > 0.0 && p < 1.0 {
            (1.0 - p).ln()
        } else {
            0.0
        },
        exhausted: n < 2 || p == 0.0,
        v: 1,
        w: -1,
        rng,
    }
}

/// Iterator state for [`erdos_renyi_edges`].
pub struct ErdosRenyiEdges<R> {
    n: usize,
    dense: bool,
    log_q: f64,
    exhausted: bool,
    v: usize,
    w: i64,
    rng: R,
}

impl<R: Rng> Iterator for ErdosRenyiEdges<R> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        if self.exhausted {
            return None;
        }
        if self.dense {
            // p >= 1: every pair, lexicographic, matching `complete(n)`.
            self.w += 1;
            if self.w >= self.v as i64 {
                self.w = 0;
                self.v += 1;
                if self.v >= self.n {
                    self.exhausted = true;
                    return None;
                }
            }
            return Some((self.w as u32, self.v as u32));
        }
        // Same lexicographic (w, v) walk with geometric jumps as `erdos_renyi`.
        let r: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let skip = (r.ln() / self.log_q).floor() as i64;
        self.w += 1 + skip;
        while self.w >= self.v as i64 && self.v < self.n {
            self.w -= self.v as i64;
            self.v += 1;
        }
        if self.v >= self.n {
            self.exhausted = true;
            return None;
        }
        Some((self.w as u32, self.v as u32))
    }
}

/// Random geometric graph: `n` points placed uniformly at random in the unit
/// square, with an edge whenever the Euclidean distance is at most `radius`.
///
/// Uses a grid of cells of side `radius` so the expected cost is near-linear for
/// sparse regimes. Geometric graphs have no induced 6-star (Section 1.1.4), hence
/// `Δ* ≤ 6`.
pub fn random_geometric<R: Rng + ?Sized>(n: usize, radius: f64, rng: &mut R) -> Graph {
    assert!(radius > 0.0 && radius <= 1.0, "radius must lie in (0, 1]");
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    geometric_from_points(&points, radius)
}

/// Geometric graph over explicitly given points in the unit square.
pub fn geometric_from_points(points: &[(f64, f64)], radius: f64) -> Graph {
    let n = points.len();
    let mut g = Graph::new(n);
    if n == 0 {
        return g;
    }
    let cells_per_side = (1.0 / radius).floor().max(1.0) as usize;
    let cell_of = |x: f64| ((x * cells_per_side as f64) as usize).min(cells_per_side - 1);
    let mut buckets: std::collections::HashMap<(usize, usize), Vec<usize>> =
        std::collections::HashMap::new();
    for (i, &(x, y)) in points.iter().enumerate() {
        buckets.entry((cell_of(x), cell_of(y))).or_default().push(i);
    }
    let r2 = radius * radius;
    for (&(cx, cy), members) in &buckets {
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                let nx = cx as i64 + dx;
                let ny = cy as i64 + dy;
                if nx < 0 || ny < 0 {
                    continue;
                }
                if let Some(other) = buckets.get(&(nx as usize, ny as usize)) {
                    for &i in members {
                        for &j in other {
                            if i < j {
                                let (xi, yi) = points[i];
                                let (xj, yj) = points[j];
                                let d2 = (xi - xj).powi(2) + (yi - yj).powi(2);
                                if d2 <= r2 {
                                    g.add_edge(i, j);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    g
}

/// Barabási–Albert preferential-attachment graph: starts from a clique on
/// `m` vertices and attaches each new vertex to `m` existing vertices chosen with
/// probability proportional to their degree.
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    assert!(m >= 1 && n > m, "need n > m >= 1");
    let mut g = complete(m);
    // Persistent sampling pool: every edge contributes both endpoints once, so
    // a uniform draw from the pool is a degree-proportional vertex draw. The
    // pool grows incrementally as edges are added — O(1) amortized per edge —
    // replacing the old per-vertex rebuild of the full endpoint list, which
    // made generation quadratic in n and unusable at bench scale.
    let mut endpoints: Vec<usize> = Vec::with_capacity(2 * (m * (n - m) + m * (m - 1) / 2));
    for (a, b) in g.edges() {
        endpoints.push(a);
        endpoints.push(b);
    }
    let mut targets = std::collections::BTreeSet::new();
    for _ in m..n {
        let v = g.add_vertex();
        targets.clear();
        let mut guard = 0;
        // A 10% uniform mix keeps isolated-ish vertices reachable; the guard
        // bounds the rejection loop on pathological draws.
        while targets.len() < m && guard < 50 * m {
            guard += 1;
            let t = if endpoints.is_empty() || rng.gen_bool(0.1) {
                rng.gen_range(0..v)
            } else {
                *endpoints.choose(rng).expect("non-empty")
            };
            targets.insert(t);
        }
        for &t in &targets {
            if g.add_edge(v, t) {
                endpoints.push(v);
                endpoints.push(t);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_properties() {
        let g = path(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_connected_components(), 1);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(path(1).num_edges(), 0);
        assert_eq!(path(0).num_vertices(), 0);
    }

    #[test]
    fn cycle_properties() {
        let g = cycle(6);
        assert_eq!(g.num_edges(), 6);
        assert!(g.vertices().all(|v| g.degree(v) == 2));
    }

    #[test]
    fn star_properties() {
        let g = star(7);
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.num_edges(), 7);
        assert_eq!(g.degree(0), 7);
    }

    #[test]
    fn complete_properties() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 15);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn grid_properties() {
        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4);
        assert_eq!(g.num_connected_components(), 1);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn disjoint_union_adds_components() {
        let g = disjoint_union(&path(3), &cycle(4));
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 2 + 4);
        assert_eq!(g.num_connected_components(), 2);
    }

    #[test]
    fn planted_star_forest_statistics() {
        let g = planted_star_forest(4, 3, 5);
        assert_eq!(g.num_vertices(), 4 * 4 + 5);
        assert_eq!(g.num_edges(), 12);
        assert_eq!(g.num_connected_components(), 4 + 5);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn caveman_is_connected() {
        let g = caveman(4, 5);
        assert_eq!(g.num_vertices(), 20);
        assert_eq!(g.num_connected_components(), 1);
    }

    #[test]
    fn erdos_renyi_edge_count_is_plausible() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 400;
        let p = 0.02;
        let g = erdos_renyi(n, p, &mut rng);
        assert!(g.check_invariants().is_ok());
        let expected = (n * (n - 1) / 2) as f64 * p;
        let m = g.num_edges() as f64;
        assert!(
            (m - expected).abs() < 5.0 * expected.sqrt() + 10.0,
            "edge count {m} too far from expectation {expected}"
        );
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(erdos_renyi(10, 0.0, &mut rng).num_edges(), 0);
        assert_eq!(erdos_renyi(10, 1.0, &mut rng).num_edges(), 45);
        assert_eq!(erdos_renyi(1, 0.5, &mut rng).num_edges(), 0);
    }

    #[test]
    fn erdos_renyi_edge_stream_matches_graph_builder() {
        for (n, p, seed) in [
            (0usize, 0.5, 1u64),
            (1, 0.5, 2),
            (50, 0.0, 3),
            (10, 1.0, 4),
            (300, 0.02, 5),
            (1000, 1.05 / 1000.0, 6),
        ] {
            let g = erdos_renyi(n, p, &mut StdRng::seed_from_u64(seed));
            let stream: Vec<(u32, u32)> =
                erdos_renyi_edges(n, p, StdRng::seed_from_u64(seed)).collect();
            let expected: Vec<(u32, u32)> = g
                .edge_vec()
                .iter()
                .map(|&(u, v)| (u as u32, v as u32))
                .collect();
            let mut sorted = stream.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, expected, "n={n} p={p}");
            // Re-playable: the same seed yields the same stream.
            let replay: Vec<(u32, u32)> =
                erdos_renyi_edges(n, p, StdRng::seed_from_u64(seed)).collect();
            assert_eq!(stream, replay);
            // And the CSR two-pass build lands on the same arena.
            let csr = crate::csr::CsrGraph::from_edge_stream(n, || {
                erdos_renyi_edges(n, p, StdRng::seed_from_u64(seed))
            });
            assert!(csr.matches_graph(&g), "n={n} p={p}");
        }
    }

    #[test]
    fn geometric_graph_matches_naive_construction() {
        let mut rng = StdRng::seed_from_u64(9);
        let points: Vec<(f64, f64)> = (0..150).map(|_| (rng.gen(), rng.gen())).collect();
        let r = 0.17;
        let fast = geometric_from_points(&points, r);
        // Naive O(n²) cross-check.
        let mut slow = Graph::new(points.len());
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                let d2 = (points[i].0 - points[j].0).powi(2) + (points[i].1 - points[j].1).powi(2);
                if d2 <= r * r {
                    slow.add_edge(i, j);
                }
            }
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn barabasi_albert_is_connected_and_sized() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = barabasi_albert(100, 2, &mut rng);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_connected_components(), 1);
        assert!(g.num_edges() >= 99);
    }

    #[test]
    fn barabasi_albert_scales_and_skews() {
        // The incremental pool makes 20k vertices cheap even unoptimized; the
        // resulting degree distribution must be heavily right-skewed (hubs),
        // unlike ER at the same density.
        let mut rng = StdRng::seed_from_u64(99);
        let n = 20_000;
        let g = barabasi_albert(n, 3, &mut rng);
        assert_eq!(g.num_vertices(), n);
        assert_eq!(g.num_connected_components(), 1);
        let avg = 2.0 * g.num_edges() as f64 / n as f64;
        assert!(
            g.max_degree() as f64 > 10.0 * avg,
            "expected a hub: max degree {} vs average {avg:.2}",
            g.max_degree()
        );
    }
}
