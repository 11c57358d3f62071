//! Micro-component solving and labeled-slice class dedup over a
//! component-contiguous CSR partition, for a whole grid of Δ values.
//!
//! On the barely-supercritical workloads the scale tier targets, a graph with
//! 10⁶ vertices decomposes into ~476k components that are overwhelmingly tiny
//! trees and unicyclic graphs — exactly the structures for which the
//! Δ-bounded forest-polytope maximum has a closed form — plus one multicyclic
//! giant. The reference [`CombinatorialSolver`](crate::CombinatorialSolver)
//! solves each of them exactly, but pays a fixed per-component toll
//! (materializing an adjacency-list [`Graph`], half a dozen allocations, a
//! `HashMap` for the remnant phase) that dominates once components are this
//! small and this numerous, and copies the giant out of the arena on every
//! call.
//!
//! This module is the engine the estimators run. It removes that toll while
//! keeping the results **bit-for-bit identical** to the reference solver:
//!
//! * [`solve_partition`] — the driver: one sweep over a
//!   [`ComponentPartition`] for every Δ of a grid. It classifies the
//!   components once and fans out one task per (heavy class, Δ) pair plus
//!   one task per fixed-size chunk of light classes for the whole grid, then
//!   merges each Δ's values in component order, so the result is the same
//!   for every thread budget and for every grid the Δ appears in.
//! * **Micro solver** — every component, of any size or cycle rank, takes a
//!   CSR-native replica of the reference solver's reduction loop (same float
//!   operations in the same order), with two provably-identical closed-form
//!   short-circuits: a tree whose maximum degree is ≤ Δ gets all-ones weights
//!   (every leaf peel charges exactly 1.0), and a remnant cycle whose floored
//!   caps are all ≥ 2 keeps its first `k − 1` canonical edges (the capped
//!   greedy accepts exactly those). Remnant pieces that fit neither case are
//!   materialized and sent through the *same* piece solver as the reference
//!   solver (series contraction, then the spanning certificate, else column
//!   generation), so the weight vector — and hence the value, summed in the
//!   same edge order — is identical by construction.
//! * **Class dedup** — components with at most [`DEDUP_MAX_VERTICES`]
//!   vertices (the *light* ones) are classed by their exact labeled CSR slice
//!   (size, degree sequence, neighbor lists): a 64-bit hash of the slice
//!   picks the candidate class, and an in-place comparison against the
//!   representative's slice is the witness, so two components share a class
//!   only when they are *identical as labeled graphs* — a safe subset of
//!   isomorphism. Every larger (*heavy*) component is its own class. On ER
//!   at p = 1.05/n and n = 10⁶ there are ~15k labeled classes versus ~125k
//!   components with an edge (~476k in all), so nearly every solve becomes
//!   a lookup.

use crate::combinatorial::{solve_piece, CAP_TOL};
use crate::solver::{PolytopeError, PolytopeSolution};
use ccdp_exec::{effective_parallelism, parallel_map};
use ccdp_graph::{ComponentPartition, CsrComponent, Graph};
use std::cmp::Reverse;
use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;
use std::sync::OnceLock;

/// Components with at most this many vertices participate in class dedup.
pub const DEDUP_MAX_VERTICES: usize = 32;

/// Light classes per task; one task solves its chunk at every Δ of the grid.
const LIGHT_CHUNK: usize = 64;

/// Where each component's solution came from, for one Δ of a
/// [`solve_partition`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartitionSolveStats {
    /// Components actually solved or served from dedup (≥ 2 vertices, ≥ 1 edge).
    pub components: usize,
    /// Micro solves that never materialized a remnant piece (closed forms).
    pub micro_closed_form: usize,
    /// Micro solves whose remnant went through the shared certificate/LP tail.
    pub micro_reduced: usize,
    /// Distinct labeled classes among the dedup-eligible components.
    pub dedup_classes: usize,
    /// Components served from another component's class solution.
    pub dedup_hits: usize,
}

/// One Δ's result of [`solve_partition`]: the merged polytope solution
/// (weights in *arena* edge order when requested, empty otherwise) plus
/// attribution counters.
#[derive(Clone, Debug)]
pub struct PartitionSolution {
    /// Merged solution; `edge_weights` is indexed like the arena's canonical
    /// edge order (component-contiguous) and empty unless `want_weights` was
    /// requested.
    pub solution: PolytopeSolution,
    /// Per-path attribution.
    pub stats: PartitionSolveStats,
}

/// One component's solution, weights in local (component) edge order and
/// empty unless the caller wants weights.
struct CompSolution {
    sol: PolytopeSolution,
    /// Whether a remnant piece went through the shared certificate/LP tail.
    reduced: bool,
}

/// Solves every component of a partition at every Δ of `deltas` and returns
/// one [`PartitionSolution`] per Δ, in `deltas` order.
///
/// One sweep serves the whole grid:
///
/// 1. **Classify once.** Every component with ≥ 2 vertices and ≥ 1 edge is
///    assigned a class, sequentially: components of at most
///    [`DEDUP_MAX_VERTICES`] vertices share a class iff their labeled slices
///    are identical; every other (heavy) component is its own class.
/// 2. **One fan-out** on [`parallel_map`], in Δ-major blocks. Block `d`
///    holds one task per heavy class at `deltas[d]`, largest first, then an
///    even share of the light chunks (`LIGHT_CHUNK` consecutive light
///    classes, solved at every Δ by one task with a task-owned scratch). A
///    heavy class's local CSR copy does not depend on Δ: the first of its
///    tasks to need it builds it, the others share it read-only. So the
///    giant's Δ solves spread over workers, and light classes pay no
///    per-(class, Δ) task overhead.
/// 3. **Merge per Δ** in component order — the exact order the sequential
///    per-component driver uses.
///
/// Each (class, Δ) solve is a pure function of the class's labeled slice
/// and Δ, so the result is identical for every thread budget and for every
/// grid a Δ appears in. `want_weights` asks for per-edge weights in arena
/// edge order; the family evaluation only needs values, and without weights
/// no solve returns a weight vector.
pub fn solve_partition(
    part: &ComponentPartition,
    deltas: &[f64],
    threads: usize,
    want_weights: bool,
) -> Result<Vec<PartitionSolution>, PolytopeError> {
    if let Some(&delta) = deltas.iter().find(|d| **d <= 0.0 || !d.is_finite()) {
        return Err(PolytopeError::InvalidDelta { delta });
    }
    let arena = part.arena();
    let num_edges = arena.num_edges();

    // Eligible components plus their arena-edge offsets (components are
    // edge-contiguous in the arena, so offsets are a running prefix sum).
    let mut eligible: Vec<(usize, usize)> = Vec::new();
    let mut edge_cursor = 0usize;
    for c in 0..part.num_components() {
        let view = part.component(c);
        let m = view.num_edges();
        if view.num_vertices() >= 2 && m > 0 {
            eligible.push((c, edge_cursor));
        }
        edge_cursor += m;
    }
    debug_assert_eq!(edge_cursor, num_edges);

    let classes = Classes::of(part, &eligible);
    let num_classes = classes.reps.len();
    let view_of = |class: u32| part.component(eligible[classes.reps[class as usize]].0);
    // Class ranks, heavy classes first, each group by descending size
    // (stable): `by_size[r]` is the class solved at rank `r`, `rank_of`
    // inverts it.
    let heavy = |class: u32| view_of(class).num_vertices() > DEDUP_MAX_VERTICES;
    let mut by_size: Vec<u32> = (0..num_classes as u32).collect();
    by_size.sort_by_key(|&class| {
        let view = view_of(class);
        Reverse((heavy(class), view.num_vertices() + view.num_edges()))
    });
    let mut rank_of = vec![0u32; num_classes];
    for (rank, &class) in by_size.iter().enumerate() {
        rank_of[class as usize] = rank as u32;
    }
    let num_heavy = by_size.partition_point(|&class| heavy(class));

    // Tasks as (ranks, Δ indices), in the Δ-major blocks described above.
    let grid = deltas.len();
    let chunks = (num_classes - num_heavy).div_ceil(LIGHT_CHUNK);
    let mut tasks: Vec<(Range<usize>, Range<usize>)> = Vec::new();
    for d in 0..grid {
        tasks.extend((0..num_heavy).map(|rank| (rank..rank + 1, d..d + 1)));
        tasks.extend((d * chunks / grid..(d + 1) * chunks / grid).map(|chunk| {
            let lo = num_heavy + chunk * LIGHT_CHUNK;
            (lo..num_classes.min(lo + LIGHT_CHUNK), 0..grid)
        }));
    }
    let heavy_csr: Vec<OnceLock<LocalCsr>> = (0..num_heavy).map(|_| OnceLock::new()).collect();
    let run = |task: usize| -> Result<Vec<CompSolution>, PolytopeError> {
        let (ranks, ds) = &tasks[task];
        let mut s = MicroScratch::default();
        let mut out = Vec::with_capacity(ranks.len() * ds.len());
        for rank in ranks.clone() {
            let view = view_of(by_size[rank]);
            let light_csr = OnceLock::new();
            let csr = heavy_csr.get(rank).unwrap_or(&light_csr);
            for d in ds.clone() {
                out.push(micro_solve(&view, csr, deltas[d], &mut s, want_weights)?);
            }
        }
        Ok(out)
    };

    let eff = effective_parallelism(threads, grid * (arena.num_vertices() + num_edges));
    // `table[d * num_classes + rank]` solves the class at `rank` at Δ `d`.
    let mut table: Vec<Option<CompSolution>> = (0..num_classes * grid).map(|_| None).collect();
    for ((ranks, ds), solved) in tasks.iter().zip(parallel_map(eff, tasks.len(), run)) {
        let mut solved = solved?.into_iter();
        for rank in ranks.clone() {
            for d in ds.clone() {
                table[d * num_classes + rank] = solved.next();
            }
        }
    }

    let mut out = Vec::with_capacity(grid);
    for d in 0..grid {
        let mut solution = PolytopeSolution::zero(if want_weights { num_edges } else { 0 });
        let mut stats = PartitionSolveStats {
            components: eligible.len(),
            dedup_classes: classes.keyed,
            ..PartitionSolveStats::default()
        };
        for (i, &(_, off)) in eligible.iter().enumerate() {
            let class = classes.of[i] as usize;
            let CompSolution { sol, reduced } = table[d * num_classes + rank_of[class] as usize]
                .as_ref()
                .expect("every (class, Δ) pair is solved");
            solution.value += sol.value;
            solution.add_lp_work(sol);
            if classes.reps[class] != i {
                stats.dedup_hits += 1;
            } else if *reduced {
                stats.micro_reduced += 1;
            } else {
                stats.micro_closed_form += 1;
            }
            if want_weights {
                let weights = &sol.edge_weights;
                solution.edge_weights[off..off + weights.len()].copy_from_slice(weights);
            }
        }
        out.push(PartitionSolution { solution, stats });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Micro solver: CSR-native replica of `CombinatorialSolver::solve_component`.
// ---------------------------------------------------------------------------

/// A component's local CSR copy with canonical edge ids: edge `e` is the
/// `e`-th pair `(u, w)`, `u < w`, in row order. It does not depend on Δ.
struct LocalCsr {
    off: Vec<u32>,
    nbr: Vec<u32>,
    eid: Vec<u32>,
}

impl LocalCsr {
    fn of(view: &CsrComponent<'_>) -> Self {
        let n = view.num_vertices();
        let mut csr = LocalCsr {
            off: Vec::with_capacity(n + 1),
            nbr: Vec::with_capacity(2 * view.num_edges()),
            eid: vec![0; 2 * view.num_edges()],
        };
        csr.off.push(0);
        for v in 0..n {
            csr.nbr.extend(view.neighbors(v).map(|w| w as u32));
            csr.off.push(csr.nbr.len() as u32);
        }
        let mut e = 0u32;
        for u in 0..n {
            for j in csr.row(u) {
                let w = csr.nbr[j] as usize;
                if w > u {
                    let back = csr.row(w).start
                        + csr.nbr[csr.row(w)]
                            .binary_search(&(u as u32))
                            .expect("reverse half-edge present");
                    csr.eid[j] = e;
                    csr.eid[back] = e;
                    e += 1;
                }
            }
        }
        debug_assert_eq!(e as usize, view.num_edges());
        csr
    }

    #[inline]
    fn row(&self, v: usize) -> Range<usize> {
        self.off[v] as usize..self.off[v + 1] as usize
    }
}

/// Reusable Δ-dependent buffers of a micro solve, owned by one task so its
/// (overwhelmingly common) tree and unicyclic solves perform no allocation.
#[derive(Default)]
struct MicroScratch {
    caps: Vec<f64>,
    alive: Vec<bool>,
    edge_alive: Vec<bool>,
    deg: Vec<u32>,
    work: Vec<u32>,
    label: Vec<u32>,
    stack: Vec<u32>,
    piece: Vec<u32>,
    weights: Vec<f64>,
}

fn micro_solve(
    view: &CsrComponent<'_>,
    csr: &OnceLock<LocalCsr>,
    delta: f64,
    s: &mut MicroScratch,
    want_weights: bool,
) -> Result<CompSolution, PolytopeError> {
    let n = view.num_vertices();
    let m = view.num_edges();

    // Closed form: a tree whose maximum degree fits Δ peels entirely at
    // weight exactly 1.0 (every peel sees caps ≥ 1), so the reference solver's
    // weight vector is all ones and its value the exact integer n − 1.
    if m == n - 1 {
        let max_deg = (0..n).map(|v| view.degree(v)).max().unwrap_or(0);
        if delta >= max_deg as f64 {
            let mut sol = PolytopeSolution::zero(0);
            sol.value = (n - 1) as f64;
            sol.edge_weights = vec![1.0; if want_weights { m } else { 0 }];
            let reduced = false;
            return Ok(CompSolution { sol, reduced });
        }
    }
    let csr = csr.get_or_init(|| LocalCsr::of(view));

    s.caps.clear();
    s.caps.resize(n, delta);
    s.alive.clear();
    s.alive.resize(n, true);
    s.edge_alive.clear();
    s.edge_alive.resize(m, true);
    s.deg.clear();
    s.deg.extend((0..n).map(|v| view.degree(v) as u32));
    s.weights.clear();
    s.weights.resize(m, 0.0);

    // --- Reductions 1 + 2, mirroring the reference solver operation by
    // operation (same work-stack order, same float arithmetic). ------------
    s.work.clear();
    s.work.extend(0..n as u32);
    while let Some(v) = s.work.pop() {
        let v = v as usize;
        if !s.alive[v] {
            continue;
        }
        if s.caps[v] <= CAP_TOL {
            for j in csr.row(v) {
                let e = csr.eid[j] as usize;
                if s.edge_alive[e] {
                    let u = csr.nbr[j] as usize;
                    s.edge_alive[e] = false;
                    s.deg[u] -= 1;
                    s.deg[v] -= 1;
                    s.work.push(u as u32);
                }
            }
            s.alive[v] = false;
        } else if s.deg[v] == 0 {
            s.alive[v] = false;
        } else if s.deg[v] == 1 {
            let j = csr
                .row(v)
                .find(|&j| s.edge_alive[csr.eid[j] as usize])
                .expect("degree-1 vertex has an alive edge");
            let (u, e) = (csr.nbr[j] as usize, csr.eid[j] as usize);
            let w = 1.0f64.min(s.caps[v]).min(s.caps[u]).max(0.0);
            s.weights[e] = w;
            s.caps[u] -= w;
            s.edge_alive[e] = false;
            s.deg[u] -= 1;
            s.deg[v] = 0;
            s.alive[v] = false;
            s.work.push(u as u32);
        }
    }

    // --- Remnant pieces, in the same order (by smallest vertex) and local
    // labeling (ascending) the reference solver's induced-subgraph path uses.
    let mut lp = PolytopeSolution::zero(0);
    let mut reduced = false;

    s.label.clear();
    s.label.resize(n, u32::MAX);
    let mut next_label = 0u32;
    for start in 0..n {
        if !s.alive[start] || s.label[start] != u32::MAX {
            continue;
        }
        // Collect one piece (DFS over alive edges), then process it.
        s.stack.clear();
        s.stack.push(start as u32);
        s.label[start] = next_label;
        s.piece.clear();
        s.piece.push(start as u32);
        while let Some(v) = s.stack.pop() {
            for j in csr.row(v as usize) {
                if !s.edge_alive[csr.eid[j] as usize] {
                    continue;
                }
                let w = csr.nbr[j];
                if s.label[w as usize] == u32::MAX {
                    s.label[w as usize] = next_label;
                    s.stack.push(w);
                    s.piece.push(w);
                }
            }
        }
        next_label += 1;
        if s.piece.len() < 2 {
            continue;
        }
        s.piece.sort_unstable();
        if let Some(sol) = solve_remnant_piece(csr, s)? {
            lp.add_lp_work(&sol);
            reduced = true;
        }
    }

    lp.value = s.weights.iter().sum();
    if want_weights {
        lp.edge_weights = std::mem::take(&mut s.weights);
    }
    Ok(CompSolution { sol: lp, reduced })
}

/// Solves the remnant piece in `s.piece` (component-local vertex ids, sorted
/// ascending), writing weights into `s.weights`. Returns the piece solver's
/// solution (for its LP work counters) when the piece had to be
/// materialized as a `Graph`, `None` for the cycle closed form.
fn solve_remnant_piece(
    csr: &LocalCsr,
    s: &mut MicroScratch,
) -> Result<Option<PolytopeSolution>, PolytopeError> {
    // Closed form: a remnant cycle whose floored caps are all ≥ 2. Series
    // contraction leaves a cycle without ends as it is, and the capped greedy
    // of the spanning certificate accepts the first k − 1 canonical edges
    // (any proper subset of cycle edges is acyclic; no cap below 2 ever
    // gates) and rejects the last, so the reference solver's weights are 1.0
    // everywhere except the final canonical edge — written here directly.
    let is_cycle = s
        .piece
        .iter()
        .all(|&v| s.deg[v as usize] == 2 && (s.caps[v as usize] + CAP_TOL).floor() >= 2.0);
    if is_cycle {
        let mut last_eid = None;
        for &u in &s.piece {
            for j in csr.row(u as usize) {
                let e = csr.eid[j] as usize;
                if s.edge_alive[e] && csr.nbr[j] > u {
                    s.weights[e] = 1.0;
                    last_eid = Some(e);
                }
            }
        }
        if let Some(e) = last_eid {
            s.weights[e] = 0.0;
        }
        return Ok(None);
    }

    // General tail: materialize the piece with ascending local ids (the same
    // labeling `induced_subgraph` produces) and run the shared piece solver.
    let k = s.piece.len();
    // Reuse `stack` as the component-local → piece-local rank map.
    for (rank, &v) in s.piece.iter().enumerate() {
        if s.stack.len() <= v as usize {
            s.stack.resize(v as usize + 1, 0);
        }
        s.stack[v as usize] = rank as u32;
    }
    // Edges in the piece's canonical order, with their component edge ids.
    let mut piece_edges: Vec<(usize, usize)> = Vec::new();
    let mut piece_eids: Vec<u32> = Vec::new();
    for &u in &s.piece {
        for j in csr.row(u as usize) {
            let e = csr.eid[j] as usize;
            if s.edge_alive[e] && csr.nbr[j] > u {
                piece_edges.push((
                    s.stack[u as usize] as usize,
                    s.stack[csr.nbr[j] as usize] as usize,
                ));
                piece_eids.push(e as u32);
            }
        }
    }
    let local = Graph::from_edges(k, &piece_edges);
    let piece_caps: Vec<f64> = s.piece.iter().map(|&v| s.caps[v as usize]).collect();
    let sol = solve_piece(&local, &piece_caps)?;
    for (&eid, &w) in piece_eids.iter().zip(&sol.edge_weights) {
        s.weights[eid as usize] = w;
    }
    Ok(Some(sol))
}

// ---------------------------------------------------------------------------
// Closed form for cycles (analysis + test oracle).
// ---------------------------------------------------------------------------

/// Exact forest-polytope maximum of a cycle `C_k` with integer per-vertex
/// capacities `caps[i]` (cyclic vertex order): `min(k − 1, B)`, where `B` is
/// the degree-capped fractional b-matching optimum, computed half-integrally
/// by a three-state DP over doubled edge weights `u_e ∈ {0, 1, 2}` with
/// `u_{i−1} + u_i ≤ 2·caps[i]`.
///
/// Every sub-path constraint `x(E[S]) ≤ |S| − 1` is implied by `x ≤ 1`, so
/// only the whole-cycle rank bound `k − 1` can bind on top of the degree
/// caps; if `B > k − 1`, scaling the b-matching optimum down to `k − 1` stays
/// feasible (the polytope is down-closed). This is the analytical form behind
/// the production cycle short-circuit (all caps ≥ 2 ⇒ value `k − 1`) and the
/// oracle the equivalence proptests check both solvers against.
pub fn cycle_polytope_value(caps: &[usize]) -> f64 {
    let k = caps.len();
    assert!(k >= 3, "a cycle needs at least 3 vertices");
    // Edge e_i joins v_i and v_{i+1 mod k}; the cap at v_i constrains
    // u_{i-1} + u_i (indices mod k).
    let mut best_doubled = 0u64;
    for u0 in 0u64..=2 {
        // dp[state of u_i] = best doubled sum of u_1..u_i.
        let mut dp = [i64::MIN; 3];
        // Transition into u_1 constrained by v_1: u_0 + u_1 <= 2 caps[1].
        for (u1, slot) in dp.iter_mut().enumerate() {
            if u0 + u1 as u64 <= (2 * caps[1 % k]) as u64 {
                *slot = u1 as i64;
            }
        }
        for &cap in caps.iter().take(k).skip(2) {
            let mut next = [i64::MIN; 3];
            for (prev, &acc) in dp.iter().enumerate() {
                if acc == i64::MIN {
                    continue;
                }
                for (cur, slot) in next.iter_mut().enumerate() {
                    if prev + cur <= 2 * cap {
                        *slot = (*slot).max(acc + cur as i64);
                    }
                }
            }
            dp = next;
        }
        // Close the cycle: the cap at v_0 constrains u_{k-1} + u_0.
        for (last, &acc) in dp.iter().enumerate() {
            if acc == i64::MIN {
                continue;
            }
            if last as u64 + u0 <= (2 * caps[0]) as u64 {
                best_doubled = best_doubled.max(acc as u64 + u0);
            }
        }
    }
    let b = best_doubled as f64 / 2.0;
    ((k - 1) as f64).min(b)
}

// ---------------------------------------------------------------------------
// Labeled-slice classes.
// ---------------------------------------------------------------------------

/// The class assignment of one partition's eligible components.
struct Classes {
    /// Eligible-component index → class id.
    of: Vec<u32>,
    /// Class id → its representative, the first eligible component of the
    /// class (the one whose solve every other member replays).
    reps: Vec<usize>,
    /// Number of classes keyed by a labeled slice (the dedup-eligible ones).
    keyed: usize,
}

impl Classes {
    /// Sequential, lock-free classification in component order.
    fn of(part: &ComponentPartition, eligible: &[(usize, usize)]) -> Self {
        let mut of = Vec::with_capacity(eligible.len());
        let mut reps: Vec<usize> = Vec::new();
        // Slice hash → class. A key already taken by a different slice
        // probes on to the next key, so a lookup follows its insert's path.
        let mut table: HashMap<u64, u32> = HashMap::new();
        'components: for (i, &(c, _)) in eligible.iter().enumerate() {
            let view = part.component(c);
            let class = reps.len() as u32;
            if view.num_vertices() <= DEDUP_MAX_VERTICES {
                let mut key = slice_hash(&view);
                loop {
                    match table.entry(key) {
                        Entry::Vacant(slot) => {
                            slot.insert(class);
                            break;
                        }
                        // Slice equality is the witness: a hash collision
                        // between different slices never merges classes.
                        Entry::Occupied(hit) => {
                            let rep = part.component(eligible[reps[*hit.get() as usize]].0);
                            if same_labeled_slice(&view, &rep) {
                                of.push(*hit.get());
                                continue 'components;
                            }
                            key = key.wrapping_add(1);
                        }
                    }
                }
            }
            of.push(class);
            reps.push(i);
        }
        Classes {
            of,
            reps,
            keyed: table.len(),
        }
    }
}

/// 64-bit hash of a component's labeled CSR slice: vertex count, then every
/// local neighbor row behind its degree.
fn slice_hash(view: &CsrComponent<'_>) -> u64 {
    let mix = |h: u64, x: usize| (h.rotate_left(5) ^ x as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    (0..view.num_vertices()).fold(mix(0, view.num_vertices()), |h, v| {
        view.neighbors(v).fold(mix(h, view.degree(v)), mix)
    })
}

/// `true` iff two components are identical as labeled graphs.
fn same_labeled_slice(a: &CsrComponent<'_>, b: &CsrComponent<'_>) -> bool {
    a.num_vertices() == b.num_vertices()
        && (0..a.num_vertices())
            .all(|v| a.degree(v) == b.degree(v) && a.neighbors(v).eq(b.neighbors(v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CombinatorialSolver;
    use ccdp_graph::{generators, CsrGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn partition_value(g: &Graph, delta: f64, want_weights: bool) -> PartitionSolution {
        let part = CsrGraph::from_graph(g).partition_components();
        solve_partition(&part, &[delta], 1, want_weights)
            .unwrap()
            .remove(0)
    }

    fn general_value(g: &Graph, delta: f64) -> PolytopeSolution {
        CombinatorialSolver::new().solve(g, delta).unwrap()
    }

    #[test]
    fn micro_matches_general_bitwise_on_structured_families() {
        let mut graphs = vec![
            generators::path(2),
            generators::path(9),
            generators::star(6),
            generators::cycle(3),
            generators::cycle(8),
            generators::complete(5),
            generators::planted_star_forest(5, 3, 4),
            generators::caveman(3, 4),
        ];
        // Unicyclic with pendants: a cycle with trees hanging off.
        let mut uni = generators::cycle(6);
        for _ in 0..4 {
            uni.add_vertex();
        }
        uni.add_edge(0, 6);
        uni.add_edge(6, 7);
        uni.add_edge(2, 8);
        uni.add_edge(8, 9);
        graphs.push(uni);

        for g in &graphs {
            for delta in [1.0, 2.0, 3.0, 4.0] {
                let reference = general_value(g, delta);
                let got = partition_value(g, delta, true);
                assert_eq!(
                    reference.value.to_bits(),
                    got.solution.value.to_bits(),
                    "value mismatch (delta={delta})"
                );
                // The partition may permute edges across components, but
                // every component is solved with identical local labels, so
                // the weight vectors agree as multisets of bits.
                let mut want: Vec<u64> =
                    reference.edge_weights.iter().map(|w| w.to_bits()).collect();
                let mut have: Vec<u64> = got
                    .solution
                    .edge_weights
                    .iter()
                    .map(|w| w.to_bits())
                    .collect();
                want.sort_unstable();
                have.sort_unstable();
                assert_eq!(want, have, "weight multiset (delta={delta})");
            }
        }
    }

    #[test]
    fn micro_matches_general_bitwise_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(77);
        for round in 0..12 {
            let g = generators::erdos_renyi(60, 1.4 / 60.0, &mut rng);
            for delta in [1.0, 2.0, 3.0] {
                let reference = general_value(&g, delta);
                let got = partition_value(&g, delta, true);
                assert_eq!(
                    reference.value.to_bits(),
                    got.solution.value.to_bits(),
                    "round {round}, delta {delta}"
                );
            }
        }
    }

    #[test]
    fn dedup_reuses_identical_components() {
        // 50 identical triangles: 1 class, 49 hits, and the value still
        // matches the general solver bitwise.
        let mut g = Graph::new(150);
        for c in 0..50 {
            let b = 3 * c;
            g.add_edge(b, b + 1);
            g.add_edge(b + 1, b + 2);
            g.add_edge(b, b + 2);
        }
        let got = partition_value(&g, 1.0, true);
        assert_eq!(got.stats.dedup_classes, 1);
        assert_eq!(got.stats.dedup_hits, 49);
        let reference = general_value(&g, 1.0);
        assert_eq!(reference.value.to_bits(), got.solution.value.to_bits());
    }

    #[test]
    fn dedup_witness_separates_distinct_labeled_slices() {
        // A triangle and a path on 3 vertices have the same size but
        // different labeled structure: they must land in different classes.
        let mut g = Graph::new(6);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g.add_edge(3, 4);
        g.add_edge(4, 5);
        let got = partition_value(&g, 2.0, true);
        assert_eq!(got.stats.dedup_classes, 2);
        assert_eq!(got.stats.dedup_hits, 0);
    }

    fn weight_bits(sol: &PartitionSolution) -> Vec<u64> {
        sol.solution
            .edge_weights
            .iter()
            .map(|w| w.to_bits())
            .collect()
    }

    #[test]
    fn partition_solve_is_thread_invariant() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::erdos_renyi(3000, 1.05 / 3000.0, &mut rng);
        let part = CsrGraph::from_graph(&g).partition_components();
        let grid = [1.0, 2.0, 4.0];
        let seq = solve_partition(&part, &grid, 1, true).unwrap();
        for threads in [2, 4, 8] {
            let par = solve_partition(&part, &grid, threads, true).unwrap();
            for (d, (s, p)) in seq.iter().zip(&par).enumerate() {
                assert_eq!(
                    s.solution.value.to_bits(),
                    p.solution.value.to_bits(),
                    "threads={threads} Δ={}",
                    grid[d]
                );
                assert_eq!(weight_bits(s), weight_bits(p));
                assert_eq!(s.stats, p.stats);
            }
        }
    }

    #[test]
    fn grid_sweep_matches_single_delta_calls() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = generators::erdos_renyi(1500, 1.3 / 1500.0, &mut rng);
        let part = CsrGraph::from_graph(&g).partition_components();
        let grid = [4.0, 1.0, 2.0, 1.0];
        let swept = solve_partition(&part, &grid, 3, true).unwrap();
        assert_eq!(swept.len(), grid.len());
        for (&delta, got) in grid.iter().zip(&swept) {
            let alone = solve_partition(&part, &[delta], 1, true).unwrap().remove(0);
            assert_eq!(alone.solution.value.to_bits(), got.solution.value.to_bits());
            assert_eq!(weight_bits(&alone), weight_bits(got));
            assert_eq!(alone.stats, got.stats);
        }
        assert!(solve_partition(&part, &[], 2, true).unwrap().is_empty());
    }

    #[test]
    fn light_chunks_and_shared_heavy_copies_match_one_element_calls_and_the_oracle() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(31);
        // Heavy classes: two multicyclic components and a tree, each above
        // the dedup bound, so each is its own class with one task per Δ.
        let mut g = generators::disjoint_union(
            &generators::barabasi_albert(45, 2, &mut rng),
            &generators::barabasi_albert(80, 2, &mut rng),
        );
        g = generators::disjoint_union(&g, &generators::path(DEDUP_MAX_VERTICES + 6));
        // Light classes: random trees with a few chords on 2..=32 vertices,
        // enough distinct labeled slices for more than two light chunks;
        // every fifth one is repeated, so dedup hits occur too.
        for i in 0..400 {
            let k = 2 + i % (DEDUP_MAX_VERTICES - 1);
            let mut h = Graph::new(k);
            for v in 1..k {
                h.add_edge(rng.gen_range(0..v), v);
            }
            for _ in 0..rng.gen_range(0..3) {
                let (a, b) = (rng.gen_range(0..k), rng.gen_range(0..k));
                if a != b && !h.has_edge(a, b) {
                    h.add_edge(a, b);
                }
            }
            g = generators::disjoint_union(&g, &h);
            if i % 5 == 0 {
                g = generators::disjoint_union(&g, &h);
            }
        }
        let part = CsrGraph::from_graph(&g).partition_components();
        let heavy = (0..part.num_components())
            .filter(|&c| part.component(c).num_vertices() > DEDUP_MAX_VERTICES)
            .count();
        assert_eq!(heavy, 3);

        let grid = [4.0, 1.0, 2.5, 1.0];
        let alone: Vec<PartitionSolution> = grid
            .iter()
            .map(|&delta| solve_partition(&part, &[delta], 1, true).unwrap().remove(0))
            .collect();
        assert!(alone[0].stats.dedup_classes > 2 * LIGHT_CHUNK);
        assert!(alone[0].stats.dedup_hits > 0);
        for (&delta, one) in grid.iter().zip(&alone) {
            // The per-component reference solver, summed in component order.
            let (mut value, mut weights) = (0.0f64, Vec::new());
            for c in 0..part.num_components() {
                let local = part.component(c).to_graph();
                if local.num_edges() > 0 {
                    let sol = general_value(&local, delta);
                    value += sol.value;
                    weights.extend(sol.edge_weights.iter().map(|w| w.to_bits()));
                }
            }
            assert_eq!(one.solution.value.to_bits(), value.to_bits(), "Δ={delta}");
            assert_eq!(weight_bits(one), weights, "Δ={delta}");
        }
        for threads in [1, 2, 3] {
            let swept = solve_partition(&part, &grid, threads, true).unwrap();
            for ((&delta, got), one) in grid.iter().zip(&swept).zip(&alone) {
                assert_eq!(
                    got.solution.value.to_bits(),
                    one.solution.value.to_bits(),
                    "threads={threads} Δ={delta}"
                );
                assert_eq!(weight_bits(got), weight_bits(one));
                assert_eq!(got.stats, one.stats);
            }
        }
    }

    #[test]
    fn multicyclic_components_of_any_size_take_the_micro_path() {
        // Barabási–Albert graphs are connected and multicyclic; at 40..120
        // vertices they are far above the size at which the micro solver
        // used to hand components to the reference solver.
        let mut rng = StdRng::seed_from_u64(12);
        for n in [40usize, 80, 120] {
            let g = generators::barabasi_albert(n, 2, &mut rng);
            for delta in [1.0, 2.0, 3.0] {
                let reference = general_value(&g, delta);
                let got = partition_value(&g, delta, true);
                assert_eq!(got.stats.components, 1);
                assert_eq!(
                    got.stats.micro_closed_form + got.stats.micro_reduced,
                    1,
                    "n={n} Δ={delta}"
                );
                assert_eq!(reference.value.to_bits(), got.solution.value.to_bits());
                let want: Vec<u64> = reference.edge_weights.iter().map(|w| w.to_bits()).collect();
                assert_eq!(want, weight_bits(&got), "n={n} Δ={delta}");
            }
        }
    }

    #[test]
    fn value_only_mode_matches_weighted_mode() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::erdos_renyi(200, 1.2 / 200.0, &mut rng);
        let with = partition_value(&g, 2.0, true);
        let without = partition_value(&g, 2.0, false);
        assert_eq!(
            with.solution.value.to_bits(),
            without.solution.value.to_bits()
        );
        assert!(without.solution.edge_weights.is_empty());
        assert_eq!(with.solution.edge_weights.len(), g.num_edges());
    }

    #[test]
    fn cycle_closed_form_matches_both_solvers() {
        for k in [3usize, 4, 5, 6, 9, 12] {
            let g = generators::cycle(k);
            for delta in 1..=4usize {
                let oracle = cycle_polytope_value(&vec![delta; k]);
                let general = general_value(&g, delta as f64).value;
                let micro = partition_value(&g, delta as f64, true).solution.value;
                assert!(
                    (general - oracle).abs() < 1e-6,
                    "general C_{k} Δ={delta}: {general} vs oracle {oracle}"
                );
                assert!(
                    (micro - oracle).abs() < 1e-6,
                    "micro C_{k} Δ={delta}: {micro} vs oracle {oracle}"
                );
            }
        }
        // Δ = 1 on C_k: fractional matching optimum k/2 for even k,
        // (k-1)/2 + ... the DP pins the exact half-integral values.
        assert_eq!(cycle_polytope_value(&[1, 1, 1]), 1.5);
        assert_eq!(cycle_polytope_value(&[1, 1, 1, 1]), 2.0);
        assert_eq!(cycle_polytope_value(&[2, 2, 2, 2]), 3.0);
        assert_eq!(cycle_polytope_value(&[1, 1, 1, 1, 1]), 2.5);
    }

    #[test]
    fn invalid_delta_is_rejected() {
        let part = CsrGraph::from_graph(&generators::path(4)).partition_components();
        for grid in [&[0.0][..], &[1.0, f64::NAN]] {
            assert!(matches!(
                solve_partition(&part, grid, 1, true),
                Err(PolytopeError::InvalidDelta { .. })
            ));
        }
    }
}
