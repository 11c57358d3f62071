//! Micro-component solving and labeled-slice class dedup over a
//! component-contiguous CSR partition, for a whole grid of Δ values.
//!
//! On the barely-supercritical workloads the scale tier targets, a graph with
//! 10⁶ vertices decomposes into ~476k components that are overwhelmingly tiny
//! trees and unicyclic graphs — exactly the structures for which the
//! Δ-bounded forest-polytope maximum has a closed form — plus one multicyclic
//! giant. The reference [`CombinatorialSolver`](crate::CombinatorialSolver)
//! solves each of them exactly, but pays a fixed per-component toll
//! (an induced adjacency-list copy, its edge list and half a dozen
//! allocations) that dominates once components are this small and this
//! numerous, and copies the giant out of the arena on every call.
//!
//! This module is the engine the estimators run. It removes that toll while
//! keeping the results **bit-for-bit identical** to the reference solver:
//!
//! * [`solve_partition`] — the driver: one sweep over a
//!   [`ComponentPartition`] for every Δ of a grid. One fan-out classifies
//!   the light components beside the heavy classes' (class, Δ) solves, then
//!   solves the light classes in fixed-size chunks for the whole grid. The
//!   results land in one dense value row per Δ, and each Δ's merge gathers
//!   from its row in component order, so the result is the same for every
//!   thread budget and for every grid the Δ appears in.
//! * **Micro solver** — every component, of any size or cycle rank, takes a
//!   CSR-native replica of the reference solver's reduction loop (same float
//!   operations in the same order), with two provably-identical closed-form
//!   short-circuits: a tree whose maximum degree is ≤ Δ gets all-ones weights
//!   (every leaf peel charges exactly 1.0), and a remnant cycle whose floored
//!   caps are all ≥ 2 keeps its first `k − 1` canonical edges (the capped
//!   greedy accepts exactly those). Remnant pieces that fit neither case are
//!   copied into a small [`CsrGraph`](ccdp_graph::CsrGraph) with local ids
//!   and sent through the *same* piece solver as the reference solver
//!   (series contraction, then the spanning certificate, else column
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
//! * **Class memo across versions** — [`solve_partition_with_memo`] reads
//!   the [`ClassMemo`] of a graph's previous version: a class (light class
//!   or heavy component, of any size) whose labeled slice the memo holds
//!   takes the stored value, `reduced` flag and LP work counters of each Δ
//!   the memo has, again with slice equality as the witness. The memo then
//!   holds this version's classes. A stream's versions share most of their
//!   components, so most of a release's solves become lookups. When the
//!   partition was patched from the very partition the memo was taken from
//!   ([`ComponentPartition::carried_from`]), a component the patch copied
//!   finds its memo class through its carried index, with no hash and no
//!   slice compare.

use crate::combinatorial::{csr_piece, solve_piece, CAP_TOL};
use crate::solver::{PolytopeError, PolytopeSolution};
use ccdp_exec::{effective_parallelism, parallel_map};
use ccdp_graph::{ComponentPartition, CsrComponent, PartitionId};
use std::cmp::Reverse;
use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// The classes one [`solve_partition_with_memo`] call solved, kept for the
/// call on the graph's next version.
///
/// A class — a light class or a heavy component — is stored as a copy of its
/// labeled slice and, for each Δ of the call that recorded it, the class's
/// value, whether a remnant went through the LP tail, and its LP work
/// counters. Classes are found by slice hash and confirmed by slice
/// equality, so a hash collision never serves another slice's result. A
/// call replaces the whole memo with its own classes, so the memo never
/// holds more than one call's classes.
///
/// The memo also records which partition it was taken from and the class of
/// each of that partition's components. A call on a partition patched from
/// exactly that one ([`ComponentPartition::carried_from`]) reads a copied
/// component's class through the component's carried index, with no hash
/// and no compare; every other component, and every component of a call on
/// any other partition, takes the hash and the witness.
#[derive(Debug, Default)]
pub struct ClassMemo {
    /// Slice hash → class. A key already taken by a different slice probes
    /// on to the next key, so a lookup follows its insert's path.
    table: HashMap<u64, u32>,
    /// Class `i`'s slice hash.
    hashes: Vec<u64>,
    /// The partition of the recording call.
    partition: Option<PartitionId>,
    /// That partition's component → its class, [`NO_CLASS`] for an isolated
    /// vertex.
    comp_classes: Vec<u32>,
    /// Class `i`'s labeled slice (see [`push_slice_words`]) is
    /// `words[ends[i - 1]..ends[i]]`, from 0 for the first class.
    ends: Vec<usize>,
    words: Vec<u32>,
    /// The Δ grid of the recording call.
    deltas: Vec<f64>,
    /// Class `i` solved at `deltas[d]` is `solved[i * deltas.len() + d]`.
    solved: Vec<Solved>,
}

/// The class of a component that belongs to none (an isolated vertex).
const NO_CLASS: u32 = u32::MAX;

/// One (class, Δ) solve as a [`ClassMemo`] keeps it: the value, whether a
/// remnant went through the LP tail, and the LP work counters.
#[derive(Clone, Copy, Debug, Default)]
struct Solved {
    value: f64,
    reduced: bool,
    /// Cuts, pivots, LP solves and fallbacks, as in [`PolytopeSolution`].
    work: [usize; 4],
}

impl Solved {
    fn of(comp: &CompSolution) -> Self {
        let sol = &comp.sol;
        Solved {
            value: sol.value,
            reduced: comp.reduced,
            work: [
                sol.generated_cuts,
                sol.lp_iterations,
                sol.lp_solves,
                sol.lp_fallback_components,
            ],
        }
    }

    /// The solve it records, without weights.
    fn replay(self) -> CompSolution {
        let mut sol = PolytopeSolution::zero(0);
        sol.value = self.value;
        [
            sol.generated_cuts,
            sol.lp_iterations,
            sol.lp_solves,
            sol.lp_fallback_components,
        ] = self.work;
        CompSolution {
            sol,
            reduced: self.reduced,
        }
    }
}

impl ClassMemo {
    /// Number of classes stored.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` if no class is stored.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Class `i`'s labeled slice.
    fn slice(&self, i: u32) -> &[u32] {
        let i = i as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.words[start..self.ends[i]]
    }

    /// The class of component `from` of the recording call's partition.
    fn class_of(&self, from: u32) -> Option<u32> {
        let class = *self.comp_classes.get(from as usize)?;
        (class != NO_CLASS).then_some(class)
    }

    /// The class whose slice is `view`'s, given `view`'s slice hash.
    fn find(&self, hash: u64, view: &CsrComponent<'_>) -> Option<u32> {
        let mut key = hash;
        loop {
            let &at = self.table.get(&key)?;
            if slice_is(view, self.slice(at)) {
                return Some(at);
            }
            key = key.wrapping_add(1);
        }
    }

    /// Makes class `i` findable under `hash`, unless a class with the same
    /// slice already is (two heavy components can be identical, and the
    /// first one answers for both).
    fn index(&mut self, i: u32, hash: u64) {
        let mut key = hash;
        loop {
            match self.table.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(i);
                    return;
                }
                Entry::Occupied(hit) => {
                    let at = *hit.get();
                    if self.slice(at) == self.slice(i) {
                        return;
                    }
                    key = key.wrapping_add(1);
                }
            }
        }
    }
}

/// Solves every component of a partition at every Δ of `deltas` and returns
/// one [`PartitionSolution`] per Δ, in `deltas` order.
///
/// Each eligible component (≥ 2 vertices, so ≥ 1 edge) belongs to one class,
/// and each class has a *rank*, the index of its results. A *heavy*
/// component (more than [`DEDUP_MAX_VERTICES`] vertices) is its own class,
/// ranked in component order; the *light* ones share a class iff their
/// labeled slices are identical, and their classes rank after the heavy
/// ones, in order of first appearance. One sweep serves the whole grid:
///
/// 1. **Find the heavy components**, from their vertex counts alone.
/// 2. **One fan-out**: one [`parallel_map`] index per worker, each with its
///    own `MicroScratch`, taking the next task off a shared cursor, so
///    tasks start in list order and no phase waits for another to end. The
///    first task classifies the light components; the next ones solve each
///    heavy class at each Δ, largest class first, so the giant's Δ solves
///    start at once and classification runs beside them. A heavy class's
///    local CSR copy does not depend on Δ: the first of its tasks to need it
///    builds it, the others share it read-only. The remaining tasks solve
///    `LIGHT_CHUNK` consecutive light classes each, at every Δ; a worker
///    that reaches them before classification ends waits for it.
/// 3. **Dense tables.** Every (Δ, rank) value goes into one dense row per Δ,
///    and with `want_weights` its weights into a table laid out alike. A
///    solve whose remnant went through the LP tail adds its work counters
///    to its Δ's total, scaled by the number of members of its class.
/// 4. **Merge per Δ** on [`parallel_map`] over the grid: a gather through
///    the component → rank array into the Δ's value row, summed in
///    component order — the exact order of the reference solver's
///    per-component loop.
///
/// Each (class, Δ) solve is a pure function of the class's labeled slice
/// and Δ, so the result is identical for every thread budget and for every
/// grid a Δ appears in. `want_weights` asks for per-edge weights in arena
/// edge order; the family evaluation only needs values, and without weights
/// no solve returns a weight vector.
///
/// [`solve_partition_with_memo`] is the same sweep for a graph solved
/// version after version: it also reads and replaces a [`ClassMemo`].
pub fn solve_partition(
    part: &ComponentPartition,
    deltas: &[f64],
    threads: usize,
    want_weights: bool,
) -> Result<Vec<PartitionSolution>, PolytopeError> {
    solve_classes(part, deltas, threads, want_weights, None)
}

/// [`solve_partition`] without weights, for one version of a graph that is
/// solved version after version: a class whose labeled slice `memo` holds
/// takes the stored result for each Δ the memo has, and only the other
/// (class, Δ) cells are solved. On success `memo` is replaced by this
/// call's classes, ready for the next version; on an error it is left as it
/// was.
///
/// Values are still merged through the component → rank array in component
/// order, and a stored result is the result of the same pure (slice, Δ)
/// solve, so the values, the [`PartitionSolveStats`] and the LP work
/// counters are those of [`solve_partition`] by construction.
pub fn solve_partition_with_memo(
    part: &ComponentPartition,
    deltas: &[f64],
    threads: usize,
    memo: &mut ClassMemo,
) -> Result<Vec<PartitionSolution>, PolytopeError> {
    solve_classes(part, deltas, threads, false, Some(memo))
}

/// The sweep behind [`solve_partition`] and [`solve_partition_with_memo`].
fn solve_classes(
    part: &ComponentPartition,
    deltas: &[f64],
    threads: usize,
    want_weights: bool,
    memo: Option<&mut ClassMemo>,
) -> Result<Vec<PartitionSolution>, PolytopeError> {
    if let Some(&delta) = deltas.iter().find(|d| **d <= 0.0 || !d.is_finite()) {
        return Err(PolytopeError::InvalidDelta { delta });
    }
    let grid = deltas.len();
    if grid == 0 {
        return Ok(Vec::new());
    }
    let arena = part.arena();
    let num_edges = arena.num_edges();
    let prev = memo.as_deref();
    // Component → its memo class, known without a lookup: the class of its
    // carried index, when the memo is taken from the partition this one was
    // patched from and the patch copied the component.
    let carried = prev.and_then(|memo| part.carried_from(memo.partition?));
    let carried_class = |c: usize| prev?.class_of(carried?[c]);
    // Each Δ's index in the memo's grid, if the memo has the Δ.
    let prev_d: Vec<Option<usize>> = match prev {
        Some(memo) => deltas
            .iter()
            .map(|d| memo.deltas.iter().position(|m| m.to_bits() == d.to_bits()))
            .collect(),
        None => Vec::new(),
    };
    // Class `at` of the memo solved at Δ `d`, if the memo has it.
    let stored = |at: Option<u32>, d: usize| {
        let memo = prev?;
        let cell = at? as usize * memo.deltas.len() + prev_d[d]?;
        Some(memo.solved[cell].replay())
    };

    // Heavy components in component order (their ranks). With a memo, each
    // one's slice hash and memo class.
    let heavy: Vec<usize> = (0..part.num_components())
        .filter(|&c| part.component(c).num_vertices() > DEDUP_MAX_VERTICES)
        .collect();
    let num_heavy = heavy.len();
    let heavy_found: Vec<(u64, Option<u32>)> = match prev {
        Some(memo) => heavy
            .iter()
            .map(|&c| match carried_class(c) {
                Some(at) => (memo.hashes[at as usize], Some(at)),
                None => {
                    let view = part.component(c);
                    let hash = slice_hash(&view);
                    (hash, memo.find(hash, &view))
                }
            })
            .collect(),
        None => Vec::new(),
    };
    // The heavy tasks, by descending class size, stable: one per Δ, or one
    // for the whole grid when the memo holds the class at every Δ.
    let mut heavy_order: Vec<usize> = (0..num_heavy).collect();
    heavy_order.sort_by_key(|&rank| {
        let view = part.component(heavy[rank]);
        Reverse(view.num_vertices() + view.num_edges())
    });
    let mut heavy_cells: Vec<(usize, Range<usize>)> = Vec::with_capacity(num_heavy * grid);
    for rank in heavy_order {
        let at = heavy_found.get(rank).and_then(|&(_, at)| at);
        if (0..grid).all(|d| stored(at, d).is_some()) {
            heavy_cells.push((rank, 0..grid));
        } else {
            heavy_cells.extend((0..grid).map(|d| (rank, d..d + 1)));
        }
    }
    let heavy_csr: Vec<OnceLock<LocalCsr>> = (0..num_heavy).map(|_| OnceLock::new()).collect();
    let classified = OnceLock::new();
    let classes = || classified.get_or_init(|| Classes::of(part, num_heavy, prev, carried_class));
    // The component a rank's solves read: the heavy component itself, or
    // the light class's representative.
    let class_view = |rank: usize| match heavy.get(rank) {
        Some(&c) => part.component(c),
        None => part.component(classes().reps[rank - num_heavy] as usize),
    };
    // With a memo, a rank's class in it.
    let memo_class = |rank: usize| {
        prev?;
        match heavy_found.get(rank) {
            Some(&(_, at)) => at,
            None => classes().found[rank - num_heavy],
        }
    };
    // With a memo, the next memo: this call's classes, in rank order, with
    // every solve but the results. A class the memo held copies its slice
    // from there, a new one from the arena. It needs the classes only, so
    // task 0 builds it beside the solves.
    let next_memo = OnceLock::new();
    let build_next_memo = |old: &ClassMemo| {
        let classes = classes();
        let num_ranks = classes.num_ranks();
        let size = |rank| {
            let view = class_view(rank);
            view.num_vertices() + 2 * view.num_edges()
        };
        let mut words = Vec::with_capacity((0..num_ranks).map(size).sum());
        let mut ends = Vec::with_capacity(num_ranks);
        for rank in 0..num_ranks {
            match memo_class(rank) {
                Some(at) => words.extend_from_slice(old.slice(at)),
                None => push_slice_words(&mut words, &class_view(rank)),
            }
            ends.push(words.len());
        }
        let mut eligible = classes.rank.iter();
        let mut next = ClassMemo {
            table: HashMap::with_capacity(num_ranks),
            hashes: heavy_found
                .iter()
                .map(|&(hash, _)| hash)
                .chain(classes.hashes.iter().copied())
                .collect(),
            partition: Some(part.id()),
            comp_classes: (0..part.num_components())
                .map(|c| match part.component(c).num_vertices() {
                    0 | 1 => NO_CLASS,
                    _ => *eligible.next().expect("one rank per eligible component"),
                })
                .collect(),
            ends,
            words,
            deltas: deltas.to_vec(),
            solved: Vec::new(),
        };
        for rank in 0..num_ranks {
            next.index(rank as u32, next.hashes[rank]);
        }
        next
    };

    // Task 0 classifies (and with a memo builds the next one); tasks
    // 1..=heavy_tasks are the heavy cells; task `heavy_tasks + 1 + k` is
    // light chunk `k` at every Δ. Returns the task's (ranks, Δ indices),
    // `None` past the last light chunk.
    let heavy_tasks = heavy_cells.len();
    let cells = |task: usize| -> Option<(Range<usize>, Range<usize>)> {
        if task <= heavy_tasks {
            let (rank, ds) = heavy_cells[task - 1].clone();
            return Some((rank..rank + 1, ds));
        }
        let num_ranks = classes().num_ranks();
        let lo = num_heavy + (task - heavy_tasks - 1) * LIGHT_CHUNK;
        (lo < num_ranks).then(|| (lo..num_ranks.min(lo + LIGHT_CHUNK), 0..grid))
    };
    let next_task = AtomicUsize::new(0);
    let worker = |_| {
        let mut s = MicroScratch::default();
        let mut done = Vec::new();
        loop {
            let task = next_task.fetch_add(1, Ordering::Relaxed);
            if task == 0 {
                classes();
                if let Some(old) = prev {
                    let _ = next_memo.set(build_next_memo(old));
                }
                continue;
            }
            let Some((ranks, ds)) = cells(task) else {
                break done;
            };
            let mut solve = || -> Result<Vec<CompSolution>, PolytopeError> {
                let mut out = Vec::with_capacity(ranks.len() * ds.len());
                for rank in ranks.clone() {
                    let view = class_view(rank);
                    let light_csr = OnceLock::new();
                    let csr = heavy_csr.get(rank).unwrap_or(&light_csr);
                    let at = memo_class(rank);
                    for d in ds.clone() {
                        out.push(match stored(at, d) {
                            Some(sol) => sol,
                            None => micro_solve(&view, csr, deltas[d], &mut s, want_weights)?,
                        });
                    }
                }
                Ok(out)
            };
            let solved = solve();
            done.push((task, ranks, ds, solved));
        }
    };
    let eff = effective_parallelism(threads, grid * (arena.num_vertices() + num_edges));
    let mut done: Vec<_> = parallel_map(eff, eff, worker)
        .into_iter()
        .flatten()
        .collect();
    // Task order, so the first error is the same for every thread budget.
    done.sort_unstable_by_key(|&(task, ..)| task);
    let done = done
        .into_iter()
        .map(|(_, ranks, ds, solved)| Ok((ranks, ds, solved?)))
        .collect::<Result<Vec<_>, PolytopeError>>()?;

    // `values[d * num_ranks + rank]` is the class at `rank` solved at Δ `d`;
    // `weights`, filled only with `want_weights`, is laid out alike.
    // `lp_work[d]` sums Δ `d`'s LP work counters over every eligible
    // component: each member of a class repeats its LP work, as it would
    // alone. With a memo, `record[rank * grid + d]` is the same cell as the
    // next memo keeps it.
    let classes = classes();
    let num_ranks = classes.num_ranks();
    let mut values = vec![0.0f64; grid * num_ranks];
    let mut weights: Vec<Vec<f64>> = vec![Vec::new(); if want_weights { values.len() } else { 0 }];
    let mut lp_work: Vec<PolytopeSolution> = (0..grid).map(|_| PolytopeSolution::zero(0)).collect();
    let mut reduced = vec![0usize; grid];
    let mut record = Vec::new();
    if memo.is_some() {
        record = vec![Solved::default(); num_ranks * grid];
    }
    for (ranks, ds, solved) in done {
        let mut solved = solved.into_iter();
        for rank in ranks {
            for d in ds.clone() {
                let comp = solved.next().expect("one solve per cell");
                let cell = d * num_ranks + rank;
                values[cell] = comp.sol.value;
                if comp.reduced {
                    reduced[d] += 1;
                    lp_work[d].add_lp_work(&comp.sol, classes.uses[rank] as usize);
                }
                if let Some(slot) = record.get_mut(rank * grid + d) {
                    *slot = Solved::of(&comp);
                }
                if want_weights {
                    weights[cell] = comp.sol.edge_weights;
                }
            }
        }
    }
    if let (Some(memo), Some(mut next)) = (memo, next_memo.into_inner()) {
        next.solved = record;
        *memo = next;
    }

    let merge = |d: usize| {
        let span = d * num_ranks..(d + 1) * num_ranks;
        let mut solution = PolytopeSolution::zero(if want_weights { num_edges } else { 0 });
        solution.add_lp_work(&lp_work[d], 1);
        let row = &values[span.clone()];
        for &rank in &classes.rank {
            solution.value += row[rank as usize];
        }
        if want_weights {
            // Eligible components own every edge, contiguously, in order.
            let row = &weights[span];
            let mut off = 0;
            for &rank in &classes.rank {
                let w = &row[rank as usize];
                solution.edge_weights[off..off + w.len()].copy_from_slice(w);
                off += w.len();
            }
        }
        let stats = PartitionSolveStats {
            components: classes.rank.len(),
            micro_closed_form: num_ranks - reduced[d],
            micro_reduced: reduced[d],
            dedup_classes: classes.reps.len(),
            dedup_hits: classes.rank.len() - num_ranks,
        };
        PartitionSolution { solution, stats }
    };
    Ok(parallel_map(eff, grid, merge))
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

/// Reusable Δ-dependent buffers of a micro solve, owned by one worker so its
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
    // labeling (ascending) the reference solver uses.
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
            lp.add_lp_work(&sol, 1);
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
/// copied out as a CSR piece, `None` for the cycle closed form.
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

    // General tail: copy the piece out with ascending local ids (the
    // reference solver's labeling) and run the shared piece solver.
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
    let local = csr_piece(k, &piece_edges);
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

/// The ranks of one partition's eligible components.
struct Classes {
    /// Eligible component, in component order → its class's rank.
    rank: Vec<u32>,
    /// Light class → its representative component, the first of the class
    /// (the one whose solve every other member replays).
    reps: Vec<u32>,
    /// Rank → number of eligible components of the class.
    uses: Vec<u32>,
    /// Light class → the slice hash of its members, kept only with a memo.
    hashes: Vec<u64>,
    /// Light class → its class in the memo, kept only with a memo.
    found: Vec<Option<u32>>,
}

impl Classes {
    /// Sequential, lock-free classification in component order. The first
    /// `num_heavy` ranks are the heavy components', in component order.
    ///
    /// With a `memo`, each light class keeps its slice hash and its memo
    /// class. A component whose memo class `carried` knows joins the class
    /// already made for that memo class, or makes it under the memo's hash,
    /// with no hash and no compare; every other component is hashed and
    /// confirmed against its class's representative slice, and a class it
    /// makes is looked up in the memo.
    fn of(
        part: &ComponentPartition,
        num_heavy: usize,
        memo: Option<&ClassMemo>,
        carried: impl Fn(usize) -> Option<u32>,
    ) -> Self {
        let mut classes = Classes {
            rank: Vec::new(),
            reps: Vec::new(),
            uses: vec![1; num_heavy],
            hashes: Vec::new(),
            found: Vec::new(),
        };
        let mut heavy_seen = 0u32;
        // Slice hash → light class. A key already taken by a different slice
        // probes on to the next key, so a lookup follows its insert's path.
        let mut table: HashMap<u64, u32> = HashMap::new();
        // Memo class → the light class made for it, [`NO_CLASS`] before.
        let mut of_memo = vec![NO_CLASS; memo.map_or(0, ClassMemo::len)];
        'components: for c in 0..part.num_components() {
            let view = part.component(c);
            // A component is connected: with ≥ 2 vertices it has an edge.
            if view.num_vertices() < 2 {
                continue;
            }
            if view.num_vertices() > DEDUP_MAX_VERTICES {
                classes.rank.push(heavy_seen);
                heavy_seen += 1;
                continue;
            }
            let at = carried(c);
            let joined = at.map_or(NO_CLASS, |at| of_memo[at as usize]);
            if joined != NO_CLASS {
                classes.join(num_heavy + joined as usize);
                continue;
            }
            let class = classes.reps.len() as u32;
            let hash = match (at, memo) {
                (Some(at), Some(memo)) => memo.hashes[at as usize],
                _ => slice_hash(&view),
            };
            let mut key = hash;
            loop {
                match table.entry(key) {
                    Entry::Vacant(slot) => {
                        slot.insert(class);
                        break;
                    }
                    // Slice equality is the witness: a hash collision
                    // between different slices never merges classes.
                    Entry::Occupied(hit) => {
                        let hit = *hit.get();
                        let rep = part.component(classes.reps[hit as usize] as usize);
                        if same_labeled_slice(&view, &rep) {
                            classes.join(num_heavy + hit as usize);
                            continue 'components;
                        }
                        key = key.wrapping_add(1);
                    }
                }
            }
            classes.rank.push((num_heavy + class as usize) as u32);
            classes.reps.push(c as u32);
            classes.uses.push(1);
            if let Some(memo) = memo {
                let at = at.or_else(|| memo.find(hash, &view));
                if let Some(at) = at {
                    of_memo[at as usize] = class;
                }
                classes.hashes.push(hash);
                classes.found.push(at);
            }
        }
        debug_assert_eq!(heavy_seen as usize, num_heavy);
        classes
    }

    /// Adds the next eligible component to the class at `rank`.
    fn join(&mut self, rank: usize) {
        self.rank.push(rank as u32);
        self.uses[rank] += 1;
    }

    /// Number of ranks: heavy components plus light classes.
    fn num_ranks(&self) -> usize {
        self.uses.len()
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

/// Appends a copy of a component's labeled slice to `words`: each local
/// vertex's degree, then its neighbor row. The degrees delimit the rows, so
/// two copies are equal iff the components are identical as labeled graphs.
fn push_slice_words(words: &mut Vec<u32>, view: &CsrComponent<'_>) {
    for v in 0..view.num_vertices() {
        words.push(view.degree(v) as u32);
        words.extend(view.neighbors(v).map(|w| w as u32));
    }
}

/// `true` iff `words` is a copy of `view`'s labeled slice
/// ([`push_slice_words`]).
fn slice_is(view: &CsrComponent<'_>, words: &[u32]) -> bool {
    let mut at = 0;
    for v in 0..view.num_vertices() {
        let degree = view.degree(v);
        let row = words.get(at + 1..at + 1 + degree);
        if words.get(at) != Some(&(degree as u32))
            || !row.is_some_and(|row| row.iter().map(|&w| w as usize).eq(view.neighbors(v)))
        {
            return false;
        }
        at += 1 + degree;
    }
    at == words.len()
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
    use ccdp_graph::{generators, CsrGraph, Graph};
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

    /// A random tree on `k` vertices with up to two chords.
    fn chorded_tree(k: usize, rng: &mut StdRng) -> Graph {
        use rand::Rng;
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
        h
    }

    #[test]
    fn schedule_edge_shapes_match_one_element_calls_and_the_oracle() {
        let mut rng = StdRng::seed_from_u64(47);
        // Light classes only, more than one chunk of them, with repeats.
        let mut no_heavy = Graph::new(0);
        for i in 0..300 {
            let h = chorded_tree(2 + i % (DEDUP_MAX_VERTICES - 1), &mut rng);
            no_heavy = generators::disjoint_union(&no_heavy, &h);
            if i % 4 == 0 {
                no_heavy = generators::disjoint_union(&no_heavy, &h);
            }
        }
        // Heavy classes only (trees, chorded trees and two multicyclic
        // components), beside isolated vertices, which no class holds.
        let mut no_light = generators::disjoint_union(
            &generators::barabasi_albert(60, 2, &mut rng),
            &generators::barabasi_albert(90, 2, &mut rng),
        );
        for i in 0..16 {
            let h = chorded_tree(DEDUP_MAX_VERTICES + 1 + 25 * i, &mut rng);
            no_light = generators::disjoint_union(&no_light, &h);
        }
        no_light = generators::disjoint_union(&no_light, &Graph::new(50));
        // Both kinds, so light ranks follow heavy ones.
        let mixed = generators::disjoint_union(&no_light, &no_heavy);
        // No eligible component at all.
        let isolated = Graph::new(7000);

        let shapes = [
            ("no heavy", no_heavy),
            ("no light", no_light),
            ("mixed", mixed),
            ("isolated", isolated),
        ];
        for (name, g) in shapes {
            let part = CsrGraph::from_graph(&g).partition_components();
            // Every budget below really fans out, even on a one-Δ grid.
            assert_eq!(
                effective_parallelism(3, g.num_vertices() + g.num_edges()),
                3
            );
            let heavy = (0..part.num_components())
                .filter(|&c| part.component(c).num_vertices() > DEDUP_MAX_VERTICES)
                .count();
            for grid in [&[2.0][..], &[1.0, 3.0, 1.0, 1.0]] {
                let alone = assert_sweeps_match_alone_and_oracle(&part, grid);
                let stats = alone[0].stats;
                match name {
                    "no heavy" => {
                        assert_eq!(heavy, 0);
                        assert!(stats.dedup_classes > LIGHT_CHUNK && stats.dedup_hits > 0);
                        // At Δ = 1 light classes with repeats take the LP
                        // tail, so their LP work counts once per member.
                        if grid[0] == 1.0 {
                            assert!(stats.micro_reduced > 0 && alone[0].solution.lp_solves > 0);
                        }
                    }
                    "no light" => {
                        assert_eq!((heavy, stats.components), (18, 18));
                        assert_eq!((stats.dedup_classes, stats.dedup_hits), (0, 0));
                    }
                    "mixed" => assert!(heavy == 18 && stats.dedup_hits > 0),
                    _ => {
                        assert_eq!(stats, PartitionSolveStats::default());
                        assert_eq!(alone[0].solution.value.to_bits(), 0.0f64.to_bits());
                    }
                }
            }
        }
    }

    fn lp_work(s: &PolytopeSolution) -> [usize; 4] {
        [
            s.generated_cuts,
            s.lp_iterations,
            s.lp_solves,
            s.lp_fallback_components,
        ]
    }

    /// Checks one-element calls at every Δ of `grid` against the
    /// per-component reference solver, summed in component order, and every
    /// sweep of `grid` (thread budgets 1–3, with and without weights)
    /// against those calls. Returns the one-element results.
    fn assert_sweeps_match_alone_and_oracle(
        part: &ComponentPartition,
        grid: &[f64],
    ) -> Vec<PartitionSolution> {
        let alone: Vec<PartitionSolution> = grid
            .iter()
            .map(|&delta| solve_partition(part, &[delta], 1, true).unwrap().remove(0))
            .collect();
        for (&delta, one) in grid.iter().zip(&alone) {
            let (mut value, mut weights, mut components) = (0.0f64, Vec::new(), 0);
            let mut work = PolytopeSolution::zero(0);
            for c in 0..part.num_components() {
                let local = part.component(c).to_graph();
                if local.num_edges() > 0 {
                    let sol = general_value(&local, delta);
                    value += sol.value;
                    weights.extend(sol.edge_weights.iter().map(|w| w.to_bits()));
                    components += 1;
                    work.add_lp_work(&sol, 1);
                }
            }
            assert_eq!(one.solution.value.to_bits(), value.to_bits(), "Δ={delta}");
            assert_eq!(weight_bits(one), weights, "Δ={delta}");
            assert_eq!(one.stats.components, components, "Δ={delta}");
            assert_eq!(lp_work(&one.solution), lp_work(&work), "Δ={delta}");
        }
        for threads in [1, 2, 3] {
            for want_weights in [true, false] {
                let swept = solve_partition(part, grid, threads, want_weights).unwrap();
                assert_eq!(swept.len(), grid.len());
                for ((&delta, got), one) in grid.iter().zip(&swept).zip(&alone) {
                    let at = format!("threads={threads} weights={want_weights} Δ={delta}");
                    let value = got.solution.value.to_bits();
                    assert_eq!(value, one.solution.value.to_bits(), "{at}");
                    if want_weights {
                        assert_eq!(weight_bits(got), weight_bits(one), "{at}");
                    } else {
                        assert!(got.solution.edge_weights.is_empty(), "{at}");
                    }
                    assert_eq!(got.stats, one.stats, "{at}");
                    let work = lp_work(&got.solution);
                    assert_eq!(work, lp_work(&one.solution), "{at}");
                }
            }
        }
        alone
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
    fn memo_hits_are_confirmed_against_the_stored_slice() {
        let grid = [1.0, 2.0];
        // Version 0: a path on 3 vertices and a triangle, whose values at
        // Δ = 1 differ (1.0 and 1.5).
        let mut v0 = generators::path(3);
        v0 = generators::disjoint_union(&v0, &generators::cycle(3));
        let part0 = CsrGraph::from_graph(&v0).partition_components();
        let mut memo = ClassMemo::default();
        solve_partition_with_memo(&part0, &grid, 1, &mut memo).unwrap();
        assert_eq!(memo.len(), 2);
        // Forge a slice-hash collision: the triangle's hash now leads to the
        // path's class.
        let path = part0.component(0);
        let path_class = memo.find(slice_hash(&path), &path).expect("stored");
        let tri = part0.component(1);
        memo.table.clear();
        memo.table.insert(slice_hash(&tri), path_class);
        // Version 1 is the triangle alone: the lookup reaches the path's
        // class, the slice compare rejects it, and the triangle is solved.
        let part1 = CsrGraph::from_graph(&generators::cycle(3)).partition_components();
        let cold = solve_partition(&part1, &grid, 1, false).unwrap();
        let warm = solve_partition_with_memo(&part1, &grid, 1, &mut memo).unwrap();
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.solution.value.to_bits(), w.solution.value.to_bits());
            assert_eq!(c.stats, w.stats);
        }
        assert_eq!(warm[0].solution.value, 1.5);
        assert_eq!(memo.len(), 1);
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
