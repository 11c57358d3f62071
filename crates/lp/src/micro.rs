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
//!   the light components beside the heavy classes' solves, then solves the
//!   light classes in fixed-size chunks for the whole grid. The results
//!   land in one dense value row per Δ, and each Δ's merge gathers from its
//!   row in component order, so the result is the same for every thread
//!   budget and for every grid the Δ appears in.
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
//! * **Class memo across versions** — [`solve_partition_with_memo`] keeps a
//!   graph's classes in a [`ClassMemo`] from one version to the next: each
//!   class's labeled slice, member count and, for each Δ, its value and
//!   `reduced` flag. Class ids are stable across versions. When the
//!   partition was patched from the very partition the memo last saw
//!   ([`ComponentPartition::carried_from`]), a copied component keeps its
//!   class by a bulk copy of its run, and only the relabeled components are
//!   hashed, compared and counted (a large one, such as a giant, takes a
//!   new class unhashed); only classes the memo has not solved are solved.
//!   Any other partition is classified in full against the memo. Either way
//!   the values and the attribution counters are those of
//!   [`solve_partition`] by construction; the counters come from one pass
//!   over the classes, not over the components.

use crate::combinatorial::{csr_piece, solve_piece, CAP_TOL};
use crate::solver::PolytopeError;
use ccdp_exec::{effective_parallelism, parallel_map};
use ccdp_graph::{ComponentPartition, CsrComponent, PartitionId, NOT_CARRIED};
use std::cmp::Reverse;
use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Components with at most this many vertices participate in class dedup.
pub const DEDUP_MAX_VERTICES: usize = 32;

/// Light classes per task; one task solves its chunk at every Δ of the grid.
const LIGHT_CHUNK: usize = 64;

/// A heavy class whose vertices plus edges are below this solves its whole
/// grid in one task, as a light chunk does; a larger one gets one task per
/// Δ, so its Δ solves run side by side.
const HEAVY_TASK_WORK: usize = 8192;

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

/// One Δ's result of [`solve_partition`]: f_Δ, the weights when requested,
/// and attribution counters.
#[derive(Clone, Debug)]
pub struct PartitionSolution {
    /// The sum over components of the Δ-bounded forest-polytope maximum.
    pub value: f64,
    /// Indexed like the arena's canonical edge order (component-contiguous);
    /// empty unless `want_weights` was requested.
    pub edge_weights: Vec<f64>,
    /// Per-path attribution.
    pub stats: PartitionSolveStats,
}

/// One component's solution, weights in local (component) edge order and
/// empty unless the caller wants weights.
struct CompSolution {
    value: f64,
    weights: Vec<f64>,
    /// Whether a remnant piece went through the shared certificate/LP tail.
    reduced: bool,
}

/// A graph's classes, kept by [`solve_partition_with_memo`] from one
/// version of the graph to the next.
///
/// A class is a labeled slice: every light class, and every distinct heavy
/// slice (two identical heavy components share a class here, yet each
/// still counts as its own rank in [`PartitionSolveStats`]). The memo keeps
/// a copy of each class's slice, its size, its member count in the last
/// partition it saw, and for each Δ of the last call the class's value and
/// whether a remnant went through the LP tail. Classes are found by slice
/// hash and confirmed by slice equality, so a hash collision never serves
/// another slice's result. A *large* component (vertices plus edges at
/// least `HEAVY_TASK_WORK`; in practice a giant, which a batch changes
/// almost every time) is neither hashed nor copied: it gets a class of its
/// own that no lookup finds, and keeps it only through copied runs.
///
/// Class ids are stable: a new slice is appended, and a class left with no
/// member keeps its slice and its results (a later version may bring it
/// back) until the dead classes outweigh the live ones, in classes or in
/// slice words; then they are compacted away, so the memo stays within
/// twice its live size. The memo also keeps the last partition's
/// component → class array. A call on a partition
/// [patched](ccdp_graph::CsrGraph::patched) from exactly that partition
/// ([`ComponentPartition::carried_from`]) copies the class array over the
/// copied runs, drops the replaced components' memberships and classifies
/// the relabeled components only; a call on any other partition
/// classifies every component.
#[derive(Debug, Default)]
pub struct ClassMemo {
    /// Slice hash → class. A key already taken by a different slice probes
    /// on to the next key, so a lookup follows its insert's path.
    table: HashMap<u64, u32>,
    /// Class `i`'s slice hash.
    hashes: Vec<u64>,
    /// Class `i`'s labeled slice (see [`push_slice_words`]) is
    /// `words[ends[i - 1]..ends[i]]`, from 0 for the first class.
    ends: Vec<usize>,
    words: Vec<u32>,
    /// Class `i`'s vertex and edge counts.
    sizes: Vec<(u32, u32)>,
    /// Class `i`'s members in the last partition.
    members: Vec<u32>,
    /// The last partition, `None` before the first call and after an error.
    partition: Option<PartitionId>,
    /// Its component → class, [`NO_CLASS`] for an isolated vertex.
    comp_classes: Vec<u32>,
    /// The buffer the next class array is built in.
    spare: Vec<u32>,
    /// One column per Δ of the last call.
    columns: Vec<Column>,
}

/// The class of a component that belongs to none (an isolated vertex).
const NO_CLASS: u32 = u32::MAX;

/// Every class solved at one Δ, as far as the memo knows.
#[derive(Debug)]
struct Column {
    delta: f64,
    /// Class → its value at `delta`, then one 0.0 that an isolated vertex
    /// reads in the merge ([`NO_CLASS`] clamps to it).
    values: Vec<f64>,
    /// Class → its cell at `delta`: `None` until it is solved, then whether
    /// its remnant went through the LP tail.
    cells: Vec<Option<bool>>,
}

impl Column {
    /// A column of `classes` classes, none of them solved.
    fn new(delta: f64, classes: usize) -> Self {
        Column {
            delta,
            values: vec![0.0; classes + 1],
            cells: vec![None; classes],
        }
    }
}

/// Keeps `v[i]` for each `i` of `live` (ascending), in order.
fn keep<T: Copy>(v: &mut Vec<T>, live: &[usize]) {
    for (to, &i) in live.iter().enumerate() {
        v[to] = v[i];
    }
    v.truncate(live.len());
}

impl ClassMemo {
    /// Class `i`'s labeled slice.
    fn slice(&self, i: u32) -> &[u32] {
        let i = i as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.words[start..self.ends[i]]
    }

    /// Whether class `i` is heavy.
    fn is_heavy(&self, i: usize) -> bool {
        self.sizes[i].0 as usize > DEDUP_MAX_VERTICES
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

    /// Makes class `i` findable under `hash`. Every class has its own
    /// slice, so an occupied key always holds another one.
    fn index(&mut self, i: u32, hash: u64) {
        let mut key = hash;
        while let Entry::Occupied(_) = self.table.entry(key) {
            key = key.wrapping_add(1);
        }
        self.table.insert(key, i);
    }

    /// Appends a class for `view`'s slice, solved at no Δ, findable under
    /// `hash`; a large class (`None`) keeps no slice and is never found.
    fn push_class(&mut self, hash: Option<u64>, view: &CsrComponent<'_>) -> u32 {
        #[cfg(test)]
        count_slice_read(2);
        let i = self.hashes.len() as u32;
        if hash.is_some() {
            push_slice_words(&mut self.words, view);
        }
        self.ends.push(self.words.len());
        self.hashes.push(hash.unwrap_or(0));
        self.sizes
            .push((view.num_vertices() as u32, view.num_edges() as u32));
        self.members.push(0);
        for column in &mut self.columns {
            column.cells.push(None);
            column.values.insert(i as usize, 0.0);
        }
        if let Some(hash) = hash {
            self.index(i, hash);
        }
        i
    }

    /// Whether class `i` is large: its vertices plus edges reach
    /// [`HEAVY_TASK_WORK`].
    fn is_large(&self, i: usize) -> bool {
        let (v, e) = self.sizes[i];
        (v + e) as usize >= HEAVY_TASK_WORK
    }

    /// Component `c`'s class, found or made, and counts it as a member. A
    /// class that had no member before is listed in `fresh` with `c`.
    fn join(&mut self, part: &ComponentPartition, c: usize, fresh: &mut Vec<(u32, u32)>) -> u32 {
        let view = part.component(c);
        // A component is connected: with ≥ 2 vertices it has an edge.
        if view.num_vertices() < 2 {
            return NO_CLASS;
        }
        // A large component (in practice a giant, which a batch changes
        // almost every time) gets a class of its own without a hash or a
        // copy of its slice.
        let i = if work_of(&view) >= HEAVY_TASK_WORK {
            self.push_class(None, &view)
        } else {
            let hash = slice_hash(&view);
            match self.find(hash, &view) {
                Some(i) => i,
                None => self.push_class(Some(hash), &view),
            }
        };
        if self.members[i as usize] == 0 {
            fresh.push((i, c as u32));
        }
        self.members[i as usize] += 1;
        i
    }

    /// Keeps one column per distinct Δ of `deltas`, solved as far as the
    /// memo knows, and drops the others. Returns each Δ's column and
    /// whether any column is new.
    fn set_grid(&mut self, deltas: &[f64]) -> (Vec<usize>, bool) {
        let mut old = std::mem::take(&mut self.columns);
        let mut fresh = false;
        let cols = deltas
            .iter()
            .map(|d| {
                let same = |c: &Column| c.delta.to_bits() == d.to_bits();
                if let Some(at) = self.columns.iter().position(same) {
                    return at;
                }
                let column = match old.iter().position(same) {
                    Some(at) => old.swap_remove(at),
                    None => {
                        fresh = true;
                        Column::new(*d, self.hashes.len())
                    }
                };
                self.columns.push(column);
                self.columns.len() - 1
            })
            .collect();
        (cols, fresh)
    }

    /// Points the class array at `part` and returns the classes that had no
    /// member before, each with its first member.
    ///
    /// If `part` was patched from the memo's last partition, a copied run
    /// copies its classes, the replaced components leave theirs, and the
    /// relabeled components are classified; otherwise every component is.
    fn classify(&mut self, part: &ComponentPartition) -> Vec<(u32, u32)> {
        let mut fresh = Vec::new();
        let mut next = std::mem::take(&mut self.spare);
        next.clear();
        next.reserve(part.num_components());
        match self.partition.and_then(|id| part.carried_from(id)) {
            Some(runs) => {
                let replaced = |from: usize, to: usize, memo: &mut Self| {
                    for c in from..to {
                        let i = memo.comp_classes[c];
                        if i != NO_CLASS {
                            memo.members[i as usize] -= 1;
                        }
                    }
                };
                let mut old = 0;
                for run in runs.iter().filter(|run| run.from != NOT_CARRIED) {
                    replaced(old, run.from as usize, self);
                    old = (run.from + run.len) as usize;
                }
                replaced(old, self.comp_classes.len(), self);
                for run in runs {
                    let (start, len) = (run.start as usize, run.len as usize);
                    if run.from == NOT_CARRIED {
                        for c in start..start + len {
                            next.push(self.join(part, c, &mut fresh));
                        }
                    } else {
                        let from = run.from as usize;
                        next.extend_from_slice(&self.comp_classes[from..from + len]);
                    }
                }
            }
            None => {
                self.members.fill(0);
                for c in 0..part.num_components() {
                    next.push(self.join(part, c, &mut fresh));
                }
            }
        }
        self.spare = std::mem::replace(&mut self.comp_classes, next);
        self.partition = Some(part.id());
        fresh
    }

    /// One pass over the classes: each column's stats over the live
    /// classes, and the number of live classes and of their slice words.
    fn live_stats(&self) -> (Vec<PartitionSolveStats>, usize, usize) {
        let mut stats = vec![PartitionSolveStats::default(); self.columns.len()];
        let (mut live_classes, mut live_words) = (0, 0);
        for (i, &members) in self.members.iter().enumerate() {
            if members == 0 {
                continue;
            }
            live_classes += 1;
            live_words += self.slice(i as u32).len();
            // Each member of a heavy class is its own rank; a light class
            // is one rank, whatever its members.
            let members = members as usize;
            let heavy = self.is_heavy(i);
            let ranks = if heavy { members } else { 1 };
            for (s, column) in stats.iter_mut().zip(&self.columns) {
                s.components += members;
                s.dedup_hits += members - ranks;
                s.dedup_classes += usize::from(!heavy);
                if column.cells[i] == Some(true) {
                    s.micro_reduced += ranks;
                } else {
                    s.micro_closed_form += ranks;
                }
            }
        }
        (stats, live_classes, live_words)
    }

    /// Drops the classes without members once they outweigh the
    /// `live_classes` live ones, in classes or in slice words
    /// (`live_words`), renumbering the live ones in order.
    fn compact(&mut self, live_classes: usize, live_words: usize) {
        let dead_classes = self.hashes.len() - live_classes;
        let dead_words = self.words.len() - live_words;
        if dead_classes <= live_classes && dead_words <= live_words {
            return;
        }
        let live: Vec<usize> = (0..self.hashes.len())
            .filter(|&i| self.members[i] > 0)
            .collect();
        let mut remap = vec![NO_CLASS; self.hashes.len()];
        for (to, &i) in live.iter().enumerate() {
            remap[i] = to as u32;
        }
        // In place, keeping every buffer's capacity: a live class only
        // moves down.
        let mut end = 0;
        for (to, &i) in live.iter().enumerate() {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            let len = self.ends[i] - start;
            self.words.copy_within(start..start + len, end);
            end += len;
            self.ends[to] = end;
        }
        self.words.truncate(end);
        self.ends.truncate(live.len());
        keep(&mut self.hashes, &live);
        keep(&mut self.sizes, &live);
        keep(&mut self.members, &live);
        for column in &mut self.columns {
            keep(&mut column.cells, &live);
            keep(&mut column.values, &live);
            column.values.push(0.0);
        }
        for class in self.comp_classes.iter_mut().filter(|i| **i != NO_CLASS) {
            *class = remap[*class as usize];
        }
        self.table.clear();
        for i in 0..self.hashes.len() {
            if !self.is_large(i) {
                self.index(i as u32, self.hashes[i]);
            }
        }
    }

    /// Records class `i` solved at column `col`, which did not have it.
    fn record(&mut self, col: usize, i: u32, comp: &CompSolution) {
        let column = &mut self.columns[col];
        column.values[i as usize] = comp.value;
        column.cells[i as usize] = Some(comp.reduced);
    }

    /// Each live class with its first member, in class order: one pass
    /// over the class array.
    fn first_members(&self) -> Vec<(u32, u32)> {
        let mut first = vec![NO_CLASS; self.hashes.len()];
        for (c, &i) in self.comp_classes.iter().enumerate().rev() {
            if i != NO_CLASS {
                first[i as usize] = c as u32;
            }
        }
        (0..self.hashes.len() as u32)
            .zip(first)
            .filter(|&(_, c)| c != NO_CLASS)
            .collect()
    }

    /// The result at each column of `cols`: the values of the class array's
    /// components summed in component order, one pass for every column,
    /// with that column's entry of `stats`.
    fn merge(&self, cols: &[usize], stats: &[PartitionSolveStats]) -> Vec<PartitionSolution> {
        let columns: Vec<&Column> = cols.iter().map(|&col| &self.columns[col]).collect();
        let mut sums = vec![0.0f64; cols.len()];
        // An isolated vertex's `NO_CLASS` clamps to the trailing 0.0, which
        // leaves a sum's bits as they are (it starts at +0.0, so it is
        // never −0.0).
        let isolated = self.hashes.len();
        for &i in &self.comp_classes {
            let i = (i as usize).min(isolated);
            for (sum, column) in sums.iter_mut().zip(&columns) {
                *sum += column.values[i];
            }
        }
        cols.iter()
            .zip(sums)
            .map(|(&col, value)| PartitionSolution {
                value,
                edge_weights: Vec::new(),
                stats: stats[col],
            })
            .collect()
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
///    first task classifies the light components; the next ones solve the
///    heavy classes, largest first, so the giant's solves start at once and
///    classification runs beside them. A heavy class below
///    `HEAVY_TASK_WORK` vertices plus edges is one task for the whole grid;
///    a larger one is one task per Δ, and its local CSR copy, which does
///    not depend on Δ, is shared: the first task to need it builds it, and
///    a task that finds it still being built builds its own rather than
///    wait. The remaining tasks solve `LIGHT_CHUNK` consecutive light
///    classes each, at every Δ; a worker that reaches them before
///    classification ends waits for it.
/// 3. **Dense tables.** Every (Δ, rank) value goes into one dense row per Δ,
///    and with `want_weights` its weights into a table laid out alike. A
///    solve whose remnant went through the LP tail counts toward its Δ's
///    `micro_reduced`.
/// 4. **Merge per Δ** on [`parallel_map`] over the grid: a gather through
///    the component → rank array into the Δ's value row, summed in
///    component order — the exact order of the reference solver's
///    per-component loop.
///
/// Each (class, Δ) solve is a pure function of the class's labeled slice
/// and Δ, so the result is identical for every thread budget and for every
/// grid a Δ appears in. On an error, the error returned is the first in
/// task order (heavy classes largest first, then light classes in rank
/// order; Δs in grid order). `want_weights` asks for per-edge weights in
/// arena edge order; the family evaluation only needs values, and without
/// weights no solve returns a weight vector.
///
/// [`solve_partition_with_memo`] is the same sweep for a graph solved
/// version after version, which keeps its classes in a [`ClassMemo`].
pub fn solve_partition(
    part: &ComponentPartition,
    deltas: &[f64],
    threads: usize,
    want_weights: bool,
) -> Result<Vec<PartitionSolution>, PolytopeError> {
    check_deltas(deltas)?;
    let grid = deltas.len();
    if grid == 0 {
        return Ok(Vec::new());
    }
    let arena = part.arena();
    let num_edges = arena.num_edges();

    // Heavy components in component order (their ranks).
    let heavy: Vec<usize> = (0..part.num_components())
        .filter(|&c| part.component(c).num_vertices() > DEDUP_MAX_VERTICES)
        .collect();
    let num_heavy = heavy.len();
    // The heavy tasks, by descending class size, stable.
    let mut heavy_order: Vec<usize> = (0..num_heavy).collect();
    heavy_order.sort_by_key(|&rank| Reverse(work_of(&part.component(heavy[rank]))));
    let mut heavy_cells: Vec<(usize, Range<usize>)> = Vec::with_capacity(num_heavy * grid);
    for rank in heavy_order {
        if work_of(&part.component(heavy[rank])) < HEAVY_TASK_WORK {
            heavy_cells.push((rank, 0..grid));
        } else {
            heavy_cells.extend((0..grid).map(|d| (rank, d..d + 1)));
        }
    }
    let heavy_csr: Vec<OnceLock<LocalCsr>> = (0..num_heavy).map(|_| OnceLock::new()).collect();
    let classified = OnceLock::new();
    let classes = || classified.get_or_init(|| Classes::of(part, num_heavy));
    // The component a rank's solves read: the heavy component itself, or
    // the light class's representative.
    let class_view = |rank: usize| match heavy.get(rank) {
        Some(&c) => part.component(c),
        None => part.component(classes().reps[rank - num_heavy] as usize),
    };

    // Task 0 classifies; tasks 1..=heavy_tasks are the heavy cells; task
    // `heavy_tasks + 1 + k` is light chunk `k` at every Δ. Returns the
    // task's (ranks, Δ indices), `None` past the last light chunk.
    let heavy_tasks = heavy_cells.len();
    let cells = |task: usize| -> Option<(Range<usize>, Range<usize>)> {
        if task <= heavy_tasks {
            let (rank, ds) = heavy_cells[task - 1].clone();
            return Some((rank..rank + 1, ds));
        }
        let num_ranks = num_heavy + classes().reps.len();
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
                    for d in ds.clone() {
                        out.push(micro_solve(&view, csr, deltas[d], &mut s, want_weights)?);
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
    let classes = classes();
    let num_ranks = num_heavy + classes.reps.len();
    let mut values = vec![0.0f64; grid * num_ranks];
    let mut weights: Vec<Vec<f64>> = vec![Vec::new(); if want_weights { values.len() } else { 0 }];
    let mut reduced = vec![0usize; grid];
    for (ranks, ds, solved) in done {
        let mut solved = solved.into_iter();
        for rank in ranks {
            for d in ds.clone() {
                let comp = solved.next().expect("one solve per cell");
                let cell = d * num_ranks + rank;
                values[cell] = comp.value;
                reduced[d] += usize::from(comp.reduced);
                if want_weights {
                    weights[cell] = comp.weights;
                }
            }
        }
    }

    let merge = |d: usize| {
        let span = d * num_ranks..(d + 1) * num_ranks;
        let row = &values[span.clone()];
        let mut value = 0.0f64;
        for &rank in &classes.rank {
            value += row[rank as usize];
        }
        let mut edge_weights = Vec::new();
        if want_weights {
            // Eligible components own every edge, contiguously, in order.
            edge_weights.reserve(num_edges);
            for &rank in &classes.rank {
                edge_weights.extend_from_slice(&weights[span.start + rank as usize]);
            }
        }
        let stats = PartitionSolveStats {
            components: classes.rank.len(),
            micro_closed_form: num_ranks - reduced[d],
            micro_reduced: reduced[d],
            dedup_classes: classes.reps.len(),
            dedup_hits: classes.rank.len() - num_ranks,
        };
        PartitionSolution {
            value,
            edge_weights,
            stats,
        }
    };
    Ok(parallel_map(eff, grid, merge))
}

/// [`solve_partition`] without weights, for one version of a graph that is
/// solved version after version, with the graph's [`ClassMemo`].
///
/// The call first brings the memo to `part`: on a partition patched from
/// the memo's last one, each copied run copies its components' classes in
/// bulk, the replaced components leave their classes, and only the
/// relabeled components are hashed and compared (a large one takes a new
/// class without either); on any other partition every component is. Then
/// only the (class, Δ) cells the memo lacks are solved: the classes new to
/// the memo or back in it, and every live class at a Δ the memo's last call
/// did not have. They run in one fan-out with the same task shapes as
/// [`solve_partition`] (heavy classes largest first, light classes in
/// chunks), and no worker waits for another. Each Δ's result is a merge of
/// the memo's value column through the class array, in component order.
/// The stats come from one pass over the memo's classes (reading each live
/// class's member count and `reduced` flags), which also weighs whether to
/// compact the dead classes away, so on a patched partition the only passes
/// over every component are those merges and the class array's bulk
/// copies.
///
/// A stored result is the result of the same pure (slice, Δ) solve, and the
/// merge sums the same values in the same order, so the values and the
/// [`PartitionSolveStats`] are those of [`solve_partition`] by
/// construction, and so is the error returned: of
/// every cell that fails, the first in [`solve_partition`]'s task order.
/// After an error the memo keeps its classes but forgets its partition, so
/// the next call classifies every component again.
pub fn solve_partition_with_memo(
    part: &ComponentPartition,
    deltas: &[f64],
    threads: usize,
    memo: &mut ClassMemo,
) -> Result<Vec<PartitionSolution>, PolytopeError> {
    check_deltas(deltas)?;
    if deltas.is_empty() {
        return Ok(Vec::new());
    }
    let (cols, new_column) = memo.set_grid(deltas);
    let fresh = memo.classify(part);
    // The live classes the memo lacks a cell of, each with its first member
    // (the cold solve's representative): only fresh classes, unless a Δ is
    // new to the memo.
    let mut todo = if new_column {
        memo.first_members()
    } else {
        fresh
    };
    let missing = |memo: &ClassMemo, i: u32| -> Vec<usize> {
        (0..memo.columns.len())
            .filter(|&col| memo.columns[col].cells[i as usize].is_none())
            .collect()
    };
    todo.retain(|&(i, _)| !missing(memo, i).is_empty());
    // Heavy classes first, largest first as in the cold task order, then
    // the light ones.
    let size = |i: u32| {
        let (v, e) = memo.sizes[i as usize];
        (v + e) as usize
    };
    todo.sort_by_key(|&(i, c)| match memo.is_heavy(i as usize) {
        true => (false, Reverse(size(i)), c),
        false => (true, Reverse(0), c),
    });
    let num_heavy = todo.partition_point(|&(i, _)| memo.is_heavy(i as usize));
    // Each task: a range of `todo` and its columns (`None`: every column
    // its class lacks).
    let mut tasks: Vec<(Range<usize>, Option<usize>)> = Vec::new();
    for (k, &(i, _)) in todo[..num_heavy].iter().enumerate() {
        let cols = missing(memo, i);
        if !memo.is_large(i as usize) || cols.len() == 1 {
            tasks.push((k..k + 1, None));
        } else {
            tasks.extend(cols.into_iter().map(|col| (k..k + 1, Some(col))));
        }
    }
    tasks.extend(
        (num_heavy..todo.len())
            .step_by(LIGHT_CHUNK)
            .map(|lo| (lo..todo.len().min(lo + LIGHT_CHUNK), None)),
    );
    let heavy_csr: Vec<OnceLock<LocalCsr>> = (0..num_heavy).map(|_| OnceLock::new()).collect();
    let memo_ref = &*memo;
    let solve_task = |t: usize| {
        let (range, only) = tasks[t].clone();
        let mut s = MicroScratch::default();
        let mut out = Vec::new();
        for k in range {
            let (i, c) = todo[k];
            let view = part.component(c as usize);
            let light_csr = OnceLock::new();
            let csr = heavy_csr.get(k).unwrap_or(&light_csr);
            let cols = only.map_or_else(|| missing(memo_ref, i), |col| vec![col]);
            for col in cols {
                let delta = memo_ref.columns[col].delta;
                out.push((k, col, micro_solve(&view, csr, delta, &mut s, false)));
            }
        }
        out
    };
    let arena = part.arena();
    let work = deltas.len() * (arena.num_vertices() + arena.num_edges());
    let eff = effective_parallelism(threads, work);
    let mut solved: Vec<_> = parallel_map(eff, tasks.len(), solve_task)
        .into_iter()
        .flatten()
        .collect();

    // The first failing cell in the cold task order: heavy before light,
    // larger before smaller, then by first member, then by Δ.
    let first_grid_index = |col: usize| cols.iter().position(|&at| at == col);
    let failed = (0..solved.len())
        .filter(|&at| solved[at].2.is_err())
        .min_by_key(|&at| (solved[at].0, first_grid_index(solved[at].1)));
    if let Some(at) = failed {
        memo.partition = None;
        return Err(solved.swap_remove(at).2.err().expect("a failed cell"));
    }
    for (k, col, result) in solved {
        let comp = result.expect("no cell failed");
        memo.record(col, todo[k].0, &comp);
    }
    let (stats, live_classes, live_words) = memo.live_stats();
    memo.compact(live_classes, live_words);
    Ok(memo.merge(&cols, &stats))
}

/// Refuses a Δ that is not positive and finite.
fn check_deltas(deltas: &[f64]) -> Result<(), PolytopeError> {
    match deltas.iter().find(|d| **d <= 0.0 || !d.is_finite()) {
        Some(&delta) => Err(PolytopeError::InvalidDelta { delta }),
        None => Ok(()),
    }
}

/// A component's vertices plus edges: the size heavy classes are ordered
/// and split by.
fn work_of(view: &CsrComponent<'_>) -> usize {
    view.num_vertices() + view.num_edges()
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
            return Ok(CompSolution {
                value: (n - 1) as f64,
                weights: vec![1.0; if want_weights { m } else { 0 }],
                reduced: false,
            });
        }
    }
    // A task that finds the copy missing builds one rather than wait for a
    // build another task may have under way; the first one set is kept.
    if csr.get().is_none() {
        let _ = csr.set(LocalCsr::of(view));
    }
    let csr = csr.get().expect("set above");

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
        reduced |= solve_remnant_piece(csr, s)?;
    }

    let value = s.weights.iter().sum();
    let weights = if want_weights {
        std::mem::take(&mut s.weights)
    } else {
        Vec::new()
    };
    Ok(CompSolution {
        value,
        weights,
        reduced,
    })
}

/// Solves the remnant piece in `s.piece` (component-local vertex ids, sorted
/// ascending), writing weights into `s.weights`. Returns `true` when the
/// piece had to be copied out as a CSR piece for the shared tail, `false`
/// for the cycle closed form.
fn solve_remnant_piece(csr: &LocalCsr, s: &mut MicroScratch) -> Result<bool, PolytopeError> {
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
        return Ok(false);
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

/// The ranks of one partition's eligible components.
struct Classes {
    /// Eligible component, in component order → its class's rank.
    rank: Vec<u32>,
    /// Light class → its representative component, the first of the class
    /// (the one whose solve every other member replays).
    reps: Vec<u32>,
}

impl Classes {
    /// Sequential, lock-free classification in component order. The first
    /// `num_heavy` ranks are the heavy components', in component order;
    /// every light component is hashed and confirmed against its class's
    /// representative slice.
    fn of(part: &ComponentPartition, num_heavy: usize) -> Self {
        let mut classes = Classes {
            rank: Vec::new(),
            reps: Vec::new(),
        };
        let mut heavy_seen = 0u32;
        // Slice hash → light class. A key already taken by a different slice
        // probes on to the next key, so a lookup follows its insert's path.
        let mut table: HashMap<u64, u32> = HashMap::new();
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
            let class = classes.reps.len() as u32;
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
                        let hit = *hit.get();
                        let rep = part.component(classes.reps[hit as usize] as usize);
                        if same_labeled_slice(&view, &rep) {
                            classes.rank.push((num_heavy + hit as usize) as u32);
                            continue 'components;
                        }
                        key = key.wrapping_add(1);
                    }
                }
            }
            classes.rank.push((num_heavy + class as usize) as u32);
            classes.reps.push(c as u32);
        }
        debug_assert_eq!(heavy_seen as usize, num_heavy);
        classes
    }
}

/// 64-bit hash of a component's labeled CSR slice: vertex count, then every
/// local neighbor row behind its degree.
fn slice_hash(view: &CsrComponent<'_>) -> u64 {
    #[cfg(test)]
    count_slice_read(0);
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
    #[cfg(test)]
    count_slice_read(1);
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
thread_local! {
    /// Slice hashes, slice-to-memo compares and classes appended to a memo
    /// on this thread, for the tests that bound a memo call's work.
    static SLICE_READS: std::cell::Cell<[usize; 3]> = const { std::cell::Cell::new([0; 3]) };
}

/// Counts one slice hash (0), compare (1) or appended class (2).
#[cfg(test)]
fn count_slice_read(kind: usize) {
    SLICE_READS.with(|reads| {
        let mut counts = reads.get();
        counts[kind] += 1;
        reads.set(counts);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CombinatorialSolver, PolytopeSolution};
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
                    got.value.to_bits(),
                    "value mismatch (delta={delta})"
                );
                // The partition may permute edges across components, but
                // every component is solved with identical local labels, so
                // the weight vectors agree as multisets of bits.
                let mut want: Vec<u64> =
                    reference.edge_weights.iter().map(|w| w.to_bits()).collect();
                let mut have: Vec<u64> = got.edge_weights.iter().map(|w| w.to_bits()).collect();
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
                    got.value.to_bits(),
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
        assert_eq!(reference.value.to_bits(), got.value.to_bits());
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
        sol.edge_weights.iter().map(|w| w.to_bits()).collect()
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
                    s.value.to_bits(),
                    p.value.to_bits(),
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
            assert_eq!(alone.value.to_bits(), got.value.to_bits());
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
            assert_eq!(one.value.to_bits(), value.to_bits(), "Δ={delta}");
            assert_eq!(weight_bits(one), weights, "Δ={delta}");
        }
        for threads in [1, 2, 3] {
            let swept = solve_partition(&part, &grid, threads, true).unwrap();
            for ((&delta, got), one) in grid.iter().zip(&swept).zip(&alone) {
                assert_eq!(
                    got.value.to_bits(),
                    one.value.to_bits(),
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
                        // At Δ = 1 some light classes take the LP tail.
                        if grid[0] == 1.0 {
                            assert!(stats.micro_reduced > 0);
                        }
                    }
                    "no light" => {
                        assert_eq!((heavy, stats.components), (18, 18));
                        assert_eq!((stats.dedup_classes, stats.dedup_hits), (0, 0));
                    }
                    "mixed" => assert!(heavy == 18 && stats.dedup_hits > 0),
                    _ => {
                        assert_eq!(stats, PartitionSolveStats::default());
                        assert_eq!(alone[0].value.to_bits(), 0.0f64.to_bits());
                    }
                }
            }
        }
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
            for c in 0..part.num_components() {
                let local = part.component(c).to_graph();
                if local.num_edges() > 0 {
                    let sol = general_value(&local, delta);
                    value += sol.value;
                    weights.extend(sol.edge_weights.iter().map(|w| w.to_bits()));
                    components += 1;
                }
            }
            assert_eq!(one.value.to_bits(), value.to_bits(), "Δ={delta}");
            assert_eq!(weight_bits(one), weights, "Δ={delta}");
            assert_eq!(one.stats.components, components, "Δ={delta}");
        }
        for threads in [1, 2, 3] {
            for want_weights in [true, false] {
                let swept = solve_partition(part, grid, threads, want_weights).unwrap();
                assert_eq!(swept.len(), grid.len());
                for ((&delta, got), one) in grid.iter().zip(&swept).zip(&alone) {
                    let at = format!("threads={threads} weights={want_weights} Δ={delta}");
                    let value = got.value.to_bits();
                    assert_eq!(value, one.value.to_bits(), "{at}");
                    if want_weights {
                        assert_eq!(weight_bits(got), weight_bits(one), "{at}");
                    } else {
                        assert!(got.edge_weights.is_empty(), "{at}");
                    }
                    assert_eq!(got.stats, one.stats, "{at}");
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
                assert_eq!(reference.value.to_bits(), got.value.to_bits());
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
        assert_eq!(with.value.to_bits(), without.value.to_bits());
        assert!(without.edge_weights.is_empty());
        assert_eq!(with.edge_weights.len(), g.num_edges());
    }

    #[test]
    fn cycle_closed_form_matches_both_solvers() {
        for k in [3usize, 4, 5, 6, 9, 12] {
            let g = generators::cycle(k);
            for delta in 1..=4usize {
                let oracle = cycle_polytope_value(&vec![delta; k]);
                let general = general_value(&g, delta as f64).value;
                let micro = partition_value(&g, delta as f64, true).value;
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

    /// The memo's live classes, read off its member counts.
    fn live_classes(memo: &ClassMemo) -> impl Iterator<Item = usize> + '_ {
        (0..memo.members.len()).filter(|&i| memo.members[i] > 0)
    }

    /// The memo's ranks, read off its member counts: one per member of a
    /// heavy class, one per light class with a member.
    fn live_ranks(memo: &ClassMemo) -> usize {
        let ranks = |i: usize| match memo.is_heavy(i) {
            true => memo.members[i] as usize,
            false => 1,
        };
        live_classes(memo).map(ranks).sum()
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
        assert_eq!(live_ranks(&memo), 2);
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
            assert_eq!(c.value.to_bits(), w.value.to_bits());
            assert_eq!(c.stats, w.stats);
        }
        assert_eq!(warm[0].value, 1.5);
        assert_eq!(live_ranks(&memo), 1);
    }

    /// The solves of `part` on `grid` with `memo` at budget `threads`, checked
    /// against a cold solve: value bits and stats at every Δ, and the memo's
    /// member counts against this version's classes. Returns the slice
    /// hashes, compares and appended classes of the memo call.
    fn assert_memo_matches_cold(
        part: &ComponentPartition,
        grid: &[f64],
        threads: usize,
        memo: &mut ClassMemo,
    ) -> [usize; 3] {
        let cold = solve_partition(part, grid, 1, false).unwrap();
        SLICE_READS.with(|reads| reads.set([0; 3]));
        let warm = solve_partition_with_memo(part, grid, threads, memo).unwrap();
        let reads = SLICE_READS.with(|reads| reads.get());
        assert_eq!(warm.len(), grid.len());
        for ((delta, c), w) in grid.iter().zip(&cold).zip(&warm) {
            let value = w.value.to_bits();
            assert_eq!(c.value.to_bits(), value, "Δ={delta}");
            assert_eq!(c.stats, w.stats, "Δ={delta}");
        }
        // The memo's live classes are exactly this version's: their members
        // are its eligible components, and their ranks its classes.
        let stats = cold[0].stats;
        let members: usize = memo.members.iter().map(|&m| m as usize).sum();
        assert_eq!(members, stats.components);
        assert_eq!(live_ranks(memo), stats.components - stats.dedup_hits);
        reads
    }

    /// The eligible components in the relabeled runs of a patched
    /// partition, and how many of them are large.
    fn relabeled_eligible(
        part: &ComponentPartition,
        runs: &[ccdp_graph::CarriedRun],
    ) -> (usize, usize) {
        let relabeled = runs
            .iter()
            .filter(|run| run.from == NOT_CARRIED)
            .flat_map(|run| run.start..run.start + run.len)
            .map(|c| part.component(c as usize))
            .filter(|view| view.num_vertices() >= 2);
        let large = relabeled
            .clone()
            .filter(|view| work_of(view) >= HEAVY_TASK_WORK);
        (relabeled.count(), large.count())
    }

    #[test]
    fn a_patched_call_reads_only_the_relabeled_slices() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(19);
        // Small components, and one large one that edits hit often.
        let mut g = generators::erdos_renyi(4000, 1.1 / 4000.0, &mut rng);
        g = generators::disjoint_union(&g, &chorded_tree(HEAVY_TASK_WORK / 2 + 1, &mut rng));
        let n = g.num_vertices();
        let grid = [1.0, 2.0, 4.0];
        let (mut arena, mut part) = CsrGraph::partitioned(&g, 1);
        let mut scratch = ccdp_graph::PatchScratch::default();
        let mut memo = ClassMemo::default();
        assert_memo_matches_cold(&part, &grid, 2, &mut memo);
        let (mut compactions, mut large_seen) = (0, 0);
        for version in 1..60 {
            let mut touched = Vec::new();
            // Every fifth version changes nothing.
            for _ in 0..if version % 5 == 0 { 0 } else { 4 } {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u == v {
                    continue;
                }
                if g.has_edge(u, v) {
                    g.remove_edge(u, v);
                } else {
                    g.add_edge(u, v);
                }
                touched.extend([u as u32, v as u32]);
            }
            touched.sort_unstable();
            touched.dedup();
            (arena, part) = CsrGraph::patched(&g, &arena, &part, &touched, &mut scratch);
            let runs = part.carried_from(memo.partition.unwrap()).unwrap();
            let (relabeled, large) = relabeled_eligible(&part, runs);
            let classes = memo.hashes.len();
            let reads = assert_memo_matches_cold(&part, &grid, 1 + version % 3, &mut memo);
            // One hash per relabeled eligible component that is not large,
            // and then either one compare (a class the memo holds) or one
            // appended class; a large one appends a class unhashed.
            let [hashes, compares, appended] = reads;
            assert_eq!(hashes, relabeled - large, "version {version}");
            assert_eq!(compares + appended, relabeled, "version {version}");
            large_seen += large;
            if touched.is_empty() {
                assert_eq!(reads, [0; 3]);
            }
            if memo.hashes.len() < classes + appended {
                compactions += 1;
            }
            // The memo stays within twice its live size.
            let live = live_classes(&memo).count();
            let live_words: usize = live_classes(&memo)
                .map(|i| memo.slice(i as u32).len())
                .sum();
            assert!(memo.hashes.len() <= 2 * live.max(1));
            assert!(memo.words.len() <= 2 * live_words.max(1));
        }
        assert!(compactions > 0, "the chain crossed no compaction");
        assert!(large_seen > 0, "no large component was relabeled");
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
