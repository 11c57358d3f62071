//! Micro-component solving and labeled-slice class dedup over a
//! component-contiguous CSR partition, for a whole grid of Δ values.
//!
//! On the barely-supercritical workloads the scale tier targets, a graph with
//! 10⁶ vertices decomposes into ~476k components that are overwhelmingly tiny
//! trees and unicyclic graphs — exactly the structures for which the
//! Δ-bounded forest-polytope maximum has a closed form — plus one multicyclic
//! giant. The general [`CombinatorialSolver`] solves each of them exactly,
//! but pays a fixed per-component toll (materializing an adjacency-list
//! [`Graph`], half a dozen allocations, a `HashMap` for the remnant phase)
//! that dominates once components are this small and this numerous, and
//! copies the giant out of the arena on every call.
//!
//! This module removes that toll while keeping the results **bit-for-bit
//! identical** to the general solver:
//!
//! * [`solve_partition`] — the driver: one sweep over a
//!   [`ComponentPartition`] for every Δ of a grid. It classifies the
//!   components once, solves every (class, Δ) pair on one work-stealing
//!   fan-out, and merges each Δ's values in component order, so the result
//!   is the same for every thread budget and for every grid the Δ appears in.
//! * **Micro solver** — every component, of any size or cycle rank, takes a
//!   CSR-native replica of the general solver's reduction loop (same float
//!   operations in the same order), with two provably-identical closed-form
//!   short-circuits: a tree whose maximum degree is ≤ Δ gets all-ones weights
//!   (every leaf peel charges exactly 1.0), and a remnant cycle whose floored
//!   caps are all ≥ 2 keeps its first `k − 1` canonical edges (the capped
//!   greedy accepts exactly those). Remnant pieces that fit neither case are
//!   materialized and sent through the *same* `spanning_certificate` /
//!   column-generation tail as the general solver, so the weight vector —
//!   and hence the value, summed in the same edge order — is identical by
//!   construction.
//! * **Class dedup** — components with at most [`DEDUP_MAX_VERTICES`]
//!   vertices are keyed by their exact labeled CSR slice (size, degree
//!   sequence, neighbor lists); a hash map with full key equality is the
//!   witness check, so two components share a class only when they are
//!   *identical as labeled graphs* — a safe subset of isomorphism. Every
//!   larger component is its own class. On ER at p = 1.05/n the labeled-class
//!   count is a few hundred versus ~476k components, so nearly every solve
//!   becomes a lookup.

use crate::column_generation;
use crate::combinatorial::{spanning_certificate, CombinatorialSolver, CAP_TOL};
use crate::solver::{PolytopeError, PolytopeSolution};
use ccdp_exec::{effective_parallelism, parallel_map};
use ccdp_graph::{ComponentPartition, CsrComponent, Graph};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::Mutex;

/// Components with at most this many vertices participate in class dedup.
pub const DEDUP_MAX_VERTICES: usize = 32;

/// Knobs for [`solve_partition`]. Both fast paths default to on; turning
/// either off changes cost only — never values (`micro` replicates the
/// general solver bit-for-bit, `dedup` reuses solutions only across
/// identical labeled slices).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolveOptions {
    /// Solve with the micro solver rather than the general
    /// [`CombinatorialSolver`] (the equivalence oracle).
    pub micro: bool,
    /// Enable labeled-slice class dedup.
    pub dedup: bool,
    /// Assemble per-edge weights in arena edge order. The family evaluation
    /// only needs values; skipping assembly saves one `f64` per edge per Δ.
    pub want_weights: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            micro: true,
            dedup: true,
            want_weights: true,
        }
    }
}

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
    /// Components handed to the general [`CombinatorialSolver`].
    pub general_fallback: usize,
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
    /// edge order (component-contiguous) and empty when
    /// [`SolveOptions::want_weights`] is off.
    pub solution: PolytopeSolution,
    /// Per-path attribution.
    pub stats: PartitionSolveStats,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SolveKind {
    MicroClosedForm,
    MicroReduced,
    General,
}

/// One component's solution in local (component) edge order.
#[derive(Clone, Debug)]
struct CompSolution {
    weights: Vec<f64>,
    value: f64,
    generated_cuts: usize,
    lp_iterations: usize,
    lp_solves: usize,
    lp_fallback_components: usize,
    kind: SolveKind,
}

impl CompSolution {
    fn from_general(sol: PolytopeSolution) -> Self {
        CompSolution {
            value: sol.value,
            weights: sol.edge_weights,
            generated_cuts: sol.generated_cuts,
            lp_iterations: sol.lp_iterations,
            lp_solves: sol.lp_solves,
            lp_fallback_components: sol.lp_fallback_components,
            kind: SolveKind::General,
        }
    }
}

/// Solves every component of a partition at every Δ of `deltas` and returns
/// one [`PartitionSolution`] per Δ, in `deltas` order.
///
/// One sweep serves the whole grid:
///
/// 1. **Classify once.** Every component with ≥ 2 vertices and ≥ 1 edge is
///    assigned a class, sequentially: with dedup on, components of at most
///    [`DEDUP_MAX_VERTICES`] vertices share a class iff their labeled slices
///    are identical; every other component is its own class.
/// 2. **One fan-out.** Every (class, Δ) pair is solved on one
///    [`parallel_map`], Δ-major with the largest classes first, so one heavy
///    component's Δ solves sit at evenly spread task indices and land on
///    different workers.
/// 3. **Merge per Δ** in component order — the exact order the sequential
///    per-component driver uses.
///
/// Each (class, Δ) solve is a pure function of the class's labeled slice
/// and Δ, so the result is identical for every thread budget, for every
/// [`SolveOptions`] combination and for every grid a Δ appears in.
pub fn solve_partition(
    part: &ComponentPartition,
    deltas: &[f64],
    threads: usize,
    opts: &SolveOptions,
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

    let classes = Classes::of(part, &eligible, opts.dedup);
    let num_classes = classes.reps.len();
    // Class ranks by descending size (stable): `by_size[r]` is the class
    // solved at rank `r` of every Δ's block of tasks, `rank_of` inverts it.
    let mut by_size: Vec<u32> = (0..num_classes as u32).collect();
    by_size.sort_by_key(|&class| {
        let view = part.component(eligible[classes.reps[class as usize]].0);
        Reverse(view.num_vertices() + view.num_edges())
    });
    let mut rank_of = vec![0u32; num_classes];
    for (rank, &class) in by_size.iter().enumerate() {
        rank_of[class as usize] = rank as u32;
    }

    let scratch_pool: Mutex<Vec<MicroScratch>> = Mutex::new(Vec::new());
    let run_one = |task: usize| -> Result<CompSolution, PolytopeError> {
        let (d, rank) = (task / num_classes, task % num_classes);
        let rep = classes.reps[by_size[rank] as usize];
        let view = part.component(eligible[rep].0);
        let mut scratch = scratch_pool
            .lock()
            .expect("scratch pool lock")
            .pop()
            .unwrap_or_default();
        let out = solve_component(&view, deltas[d], opts.micro, &mut scratch);
        scratch_pool
            .lock()
            .expect("scratch pool lock")
            .push(scratch);
        out
    };

    let tasks = deltas.len() * num_classes;
    let eff = effective_parallelism(threads, deltas.len() * (arena.num_vertices() + num_edges));
    let solved: Vec<CompSolution> = if eff >= 2 {
        parallel_map(eff, tasks, run_one)
    } else {
        (0..tasks).map(run_one).collect()
    }
    .into_iter()
    .collect::<Result<_, _>>()?;

    let mut out = Vec::with_capacity(deltas.len());
    for block in (0..deltas.len()).map(|d| &solved[d * num_classes..(d + 1) * num_classes]) {
        let mut solution = PolytopeSolution::zero(if opts.want_weights { num_edges } else { 0 });
        let mut stats = PartitionSolveStats {
            components: eligible.len(),
            dedup_classes: classes.keyed,
            ..PartitionSolveStats::default()
        };
        for (i, &(_, off)) in eligible.iter().enumerate() {
            let class = classes.of[i] as usize;
            let sol = &block[rank_of[class] as usize];
            solution.value += sol.value;
            solution.generated_cuts += sol.generated_cuts;
            solution.lp_iterations += sol.lp_iterations;
            solution.lp_solves += sol.lp_solves;
            solution.lp_fallback_components += sol.lp_fallback_components;
            if classes.reps[class] != i {
                stats.dedup_hits += 1;
            } else {
                match sol.kind {
                    SolveKind::MicroClosedForm => stats.micro_closed_form += 1,
                    SolveKind::MicroReduced => stats.micro_reduced += 1,
                    SolveKind::General => stats.general_fallback += 1,
                }
            }
            if opts.want_weights {
                solution.edge_weights[off..off + sol.weights.len()].copy_from_slice(&sol.weights);
            }
        }
        out.push(PartitionSolution { solution, stats });
    }
    Ok(out)
}

fn solve_component(
    view: &CsrComponent<'_>,
    delta: f64,
    micro: bool,
    scratch: &mut MicroScratch,
) -> Result<CompSolution, PolytopeError> {
    if micro {
        micro_solve(view, delta, scratch)
    } else {
        let local = view.to_graph();
        CombinatorialSolver::new()
            .solve_component(&local, delta)
            .map(CompSolution::from_general)
    }
}

// ---------------------------------------------------------------------------
// Micro solver: CSR-native replica of `CombinatorialSolver::solve_component`.
// ---------------------------------------------------------------------------

/// Reusable buffers for one micro solve; pooled across components so the hot
/// loop performs no allocation for the (overwhelmingly common) tree and
/// unicyclic cases.
#[derive(Default)]
struct MicroScratch {
    adj_off: Vec<u32>,
    adj_nbr: Vec<u32>,
    adj_eid: Vec<u32>,
    caps: Vec<f64>,
    alive: Vec<bool>,
    edge_alive: Vec<bool>,
    deg: Vec<u32>,
    work: Vec<u32>,
    label: Vec<u32>,
    stack: Vec<u32>,
}

fn micro_solve(
    view: &CsrComponent<'_>,
    delta: f64,
    s: &mut MicroScratch,
) -> Result<CompSolution, PolytopeError> {
    let n = view.num_vertices();
    let m = view.num_edges();

    // Closed form: a tree whose maximum degree fits Δ peels entirely at
    // weight exactly 1.0 (every peel sees caps ≥ 1), so the general solver's
    // weight vector is all ones and its value the exact integer n − 1.
    if m == n - 1 {
        let max_deg = (0..n).map(|v| view.degree(v)).max().unwrap_or(0);
        if delta >= max_deg as f64 {
            return Ok(CompSolution {
                weights: vec![1.0; m],
                value: (n - 1) as f64,
                generated_cuts: 0,
                lp_iterations: 0,
                lp_solves: 0,
                lp_fallback_components: 0,
                kind: SolveKind::MicroClosedForm,
            });
        }
    }

    // --- Scratch setup: local CSR copy with canonical edge ids. -----------
    s.adj_off.clear();
    s.adj_off.reserve(n + 1);
    s.adj_off.push(0);
    s.adj_nbr.clear();
    s.adj_nbr.reserve(2 * m);
    for v in 0..n {
        for w in view.neighbors(v) {
            s.adj_nbr.push(w as u32);
        }
        s.adj_off.push(s.adj_nbr.len() as u32);
    }
    s.adj_eid.clear();
    s.adj_eid.resize(2 * m, 0);
    let row = |off: &[u32], v: usize| (off[v] as usize, off[v + 1] as usize);
    {
        let mut e = 0u32;
        for u in 0..n {
            let (lo, hi) = row(&s.adj_off, u);
            for j in lo..hi {
                let w = s.adj_nbr[j] as usize;
                if w > u {
                    s.adj_eid[j] = e;
                    let (wlo, whi) = row(&s.adj_off, w);
                    let pos = s.adj_nbr[wlo..whi]
                        .binary_search(&(u as u32))
                        .expect("reverse half-edge present");
                    s.adj_eid[wlo + pos] = e;
                    e += 1;
                }
            }
        }
        debug_assert_eq!(e as usize, m);
    }

    s.caps.clear();
    s.caps.resize(n, delta);
    s.alive.clear();
    s.alive.resize(n, true);
    s.edge_alive.clear();
    s.edge_alive.resize(m, true);
    s.deg.clear();
    s.deg.extend((0..n).map(|v| view.degree(v) as u32));
    let mut weights = vec![0.0f64; m];

    // --- Reductions 1 + 2, mirroring the general solver operation by
    // operation (same work-stack order, same float arithmetic). ------------
    s.work.clear();
    s.work.extend(0..n as u32);
    while let Some(v) = s.work.pop() {
        let v = v as usize;
        if !s.alive[v] {
            continue;
        }
        if s.caps[v] <= CAP_TOL {
            let (lo, hi) = row(&s.adj_off, v);
            for j in lo..hi {
                let e = s.adj_eid[j] as usize;
                if s.edge_alive[e] {
                    let u = s.adj_nbr[j] as usize;
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
            let (lo, hi) = row(&s.adj_off, v);
            let j = (lo..hi)
                .find(|&j| s.edge_alive[s.adj_eid[j] as usize])
                .expect("degree-1 vertex has an alive edge");
            let (u, e) = (s.adj_nbr[j] as usize, s.adj_eid[j] as usize);
            let w = 1.0f64.min(s.caps[v]).min(s.caps[u]).max(0.0);
            weights[e] = w;
            s.caps[u] -= w;
            s.edge_alive[e] = false;
            s.deg[u] -= 1;
            s.deg[v] = 0;
            s.alive[v] = false;
            s.work.push(u as u32);
        }
    }

    // --- Remnant pieces, in the same order (by smallest vertex) and local
    // labeling (ascending) the general solver's induced-subgraph path uses.
    let mut generated_cuts = 0;
    let mut lp_iterations = 0;
    let mut lp_solves = 0;
    let mut lp_fallback_components = 0;
    let mut materialized_any = false;

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
        let mut piece: Vec<u32> = vec![start as u32];
        while let Some(v) = s.stack.pop() {
            let (lo, hi) = row(&s.adj_off, v as usize);
            for j in lo..hi {
                if !s.edge_alive[s.adj_eid[j] as usize] {
                    continue;
                }
                let w = s.adj_nbr[j];
                if s.label[w as usize] == u32::MAX {
                    s.label[w as usize] = next_label;
                    s.stack.push(w);
                    piece.push(w);
                }
            }
        }
        next_label += 1;
        if piece.len() < 2 {
            continue;
        }
        piece.sort_unstable();
        materialized_any |= solve_remnant_piece(
            s,
            &piece,
            &mut weights,
            &mut generated_cuts,
            &mut lp_iterations,
            &mut lp_solves,
            &mut lp_fallback_components,
        )?;
    }

    Ok(CompSolution {
        value: weights.iter().sum(),
        weights,
        generated_cuts,
        lp_iterations,
        lp_solves,
        lp_fallback_components,
        kind: if materialized_any {
            SolveKind::MicroReduced
        } else {
            SolveKind::MicroClosedForm
        },
    })
}

/// Solves one remnant piece (component-local vertex ids, sorted ascending),
/// writing weights into the component's weight vector. Returns whether the
/// piece had to be materialized as a `Graph` (vs the cycle closed form).
#[allow(clippy::too_many_arguments)]
fn solve_remnant_piece(
    s: &mut MicroScratch,
    piece: &[u32],
    weights: &mut [f64],
    generated_cuts: &mut usize,
    lp_iterations: &mut usize,
    lp_solves: &mut usize,
    lp_fallback_components: &mut usize,
) -> Result<bool, PolytopeError> {
    let row = |off: &[u32], v: usize| (off[v] as usize, off[v + 1] as usize);

    // Closed form: a remnant cycle whose floored caps are all ≥ 2. The capped
    // greedy inside `spanning_certificate` accepts the first k − 1 canonical
    // edges (any proper subset of cycle edges is acyclic; no cap below 2 ever
    // gates) and rejects the last, so the general solver's weights are 1.0
    // everywhere except the final canonical edge — written here directly.
    let is_cycle = piece
        .iter()
        .all(|&v| s.deg[v as usize] == 2 && (s.caps[v as usize] + CAP_TOL).floor() >= 2.0);
    if is_cycle {
        let mut last_eid = None;
        for &u in piece {
            let (lo, hi) = row(&s.adj_off, u as usize);
            for j in lo..hi {
                let e = s.adj_eid[j] as usize;
                if s.edge_alive[e] && s.adj_nbr[j] > u {
                    weights[e] = 1.0;
                    last_eid = Some(e);
                }
            }
        }
        if let Some(e) = last_eid {
            weights[e] = 0.0;
        }
        return Ok(false);
    }

    // General tail: materialize the piece with ascending local ids (the same
    // labeling `induced_subgraph` produces) and run the shared certificate /
    // column-generation chain.
    let k = piece.len();
    // Reuse `stack` as the component-local → piece-local rank map.
    for (rank, &v) in piece.iter().enumerate() {
        if s.stack.len() <= v as usize {
            s.stack.resize(v as usize + 1, 0);
        }
        s.stack[v as usize] = rank as u32;
    }
    let mut piece_edges: Vec<(usize, usize)> = Vec::new();
    let mut piece_eids: Vec<u32> = Vec::new();
    for &u in piece {
        let (lo, hi) = row(&s.adj_off, u as usize);
        for j in lo..hi {
            let e = s.adj_eid[j] as usize;
            if s.edge_alive[e] && s.adj_nbr[j] > u {
                piece_edges.push((
                    s.stack[u as usize] as usize,
                    s.stack[s.adj_nbr[j] as usize] as usize,
                ));
                piece_eids.push(e as u32);
            }
        }
    }
    let local = Graph::from_edges(k, &piece_edges);
    let piece_caps: Vec<f64> = piece.iter().map(|&v| s.caps[v as usize]).collect();

    if let Some(forest_edges) = spanning_certificate(&local, &piece_caps) {
        let eid_of: HashMap<(usize, usize), u32> = piece_edges
            .iter()
            .copied()
            .zip(piece_eids.iter().copied())
            .collect();
        for &(a, b) in &forest_edges {
            let key = if a < b { (a, b) } else { (b, a) };
            weights[eid_of[&key] as usize] = 1.0;
        }
    } else {
        let sol = column_generation::solve_component_with_caps(&local, &piece_caps)?;
        *generated_cuts += sol.generated_cuts;
        *lp_iterations += sol.lp_iterations;
        *lp_solves += sol.lp_solves;
        *lp_fallback_components += 1;
        for (&eid, w) in piece_eids.iter().zip(sol.edge_weights) {
            weights[eid as usize] = w;
        }
    }
    Ok(true)
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
    fn of(part: &ComponentPartition, eligible: &[(usize, usize)], dedup: bool) -> Self {
        let mut of = Vec::with_capacity(eligible.len());
        let mut reps = Vec::new();
        let mut table: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut key = Vec::new();
        for (i, &(c, _)) in eligible.iter().enumerate() {
            let view = part.component(c);
            let class = reps.len() as u32;
            if dedup && view.num_vertices() <= DEDUP_MAX_VERTICES {
                key.clear();
                encode_labeled_slice(&view, &mut key);
                // Key equality is the witness check: a hash collision between
                // different slices never merges their classes.
                if let Some(&hit) = table.get(key.as_slice()) {
                    of.push(hit);
                    continue;
                }
                table.insert(key.clone(), class);
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

/// Canonical encoding of a component's labeled CSR slice: vertex count,
/// degree sequence, then the concatenated local neighbor rows. Two
/// components encode equally iff they are identical as labeled graphs.
fn encode_labeled_slice(view: &CsrComponent<'_>, out: &mut Vec<u32>) {
    let n = view.num_vertices();
    out.push(n as u32);
    for v in 0..n {
        out.push(view.degree(v) as u32);
    }
    for v in 0..n {
        for w in view.neighbors(v) {
            out.push(w as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::PolytopeSolver;
    use ccdp_graph::{generators, CsrGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn partition_value(g: &Graph, delta: f64, opts: &SolveOptions) -> PartitionSolution {
        let part = CsrGraph::from_graph(g).partition_components();
        solve_partition(&part, &[delta], 1, opts).unwrap().remove(0)
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
                for opts in [
                    SolveOptions::default(),
                    SolveOptions {
                        micro: true,
                        dedup: false,
                        want_weights: true,
                    },
                    SolveOptions {
                        micro: false,
                        dedup: true,
                        want_weights: true,
                    },
                    SolveOptions {
                        micro: false,
                        dedup: false,
                        want_weights: true,
                    },
                ] {
                    let got = partition_value(g, delta, &opts);
                    assert_eq!(
                        reference.value.to_bits(),
                        got.solution.value.to_bits(),
                        "value mismatch (delta={delta}, opts={opts:?})"
                    );
                    // The partition may permute edges across components, but
                    // every component is solved with identical local labels,
                    // so the weight vectors agree as multisets of bits.
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
                    assert_eq!(want, have, "weight multiset (delta={delta}, opts={opts:?})");
                }
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
                let got = partition_value(&g, delta, &SolveOptions::default());
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
        let got = partition_value(&g, 1.0, &SolveOptions::default());
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
        let got = partition_value(&g, 2.0, &SolveOptions::default());
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
        let seq = solve_partition(&part, &grid, 1, &SolveOptions::default()).unwrap();
        for threads in [2, 4, 8] {
            let par = solve_partition(&part, &grid, threads, &SolveOptions::default()).unwrap();
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
        let swept = solve_partition(&part, &grid, 3, &SolveOptions::default()).unwrap();
        assert_eq!(swept.len(), grid.len());
        for (&delta, got) in grid.iter().zip(&swept) {
            let alone = solve_partition(&part, &[delta], 1, &SolveOptions::default())
                .unwrap()
                .remove(0);
            assert_eq!(alone.solution.value.to_bits(), got.solution.value.to_bits());
            assert_eq!(weight_bits(&alone), weight_bits(got));
            assert_eq!(alone.stats, got.stats);
        }
        assert!(solve_partition(&part, &[], 2, &SolveOptions::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn multicyclic_components_of_any_size_take_the_micro_path() {
        // Barabási–Albert graphs are connected and multicyclic; at 40..120
        // vertices they are far above the size at which the micro solver
        // used to hand components to the general solver.
        let mut rng = StdRng::seed_from_u64(12);
        for n in [40usize, 80, 120] {
            let g = generators::barabasi_albert(n, 2, &mut rng);
            for delta in [1.0, 2.0, 3.0] {
                let reference = general_value(&g, delta);
                let got = partition_value(&g, delta, &SolveOptions::default());
                assert_eq!(got.stats.general_fallback, 0, "n={n} Δ={delta}");
                assert_eq!(got.stats.components, 1);
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
        let with = partition_value(&g, 2.0, &SolveOptions::default());
        let without = partition_value(
            &g,
            2.0,
            &SolveOptions {
                want_weights: false,
                ..SolveOptions::default()
            },
        );
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
                let micro = partition_value(&g, delta as f64, &SolveOptions::default())
                    .solution
                    .value;
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
                solve_partition(&part, grid, 1, &SolveOptions::default()),
                Err(PolytopeError::InvalidDelta { .. })
            ));
        }
    }
}
