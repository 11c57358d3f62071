//! Hand-rolled, std-only execution layer for per-component solving.
//!
//! One primitive, built directly on `std::thread` (the build environment has
//! no registry access, so no rayon/crossbeam): [`parallel_map`], a *scoped*
//! fork/join that maps a function over `0..len` on `t` threads and returns
//! the results **in index order**. It borrows its closure (no `'static`
//! bound, no `Arc`), and its workers take indices one at a time from one
//! shared atomic cursor, so skewed workloads (one giant component among
//! thousands of tiny ones) still balance. Because results are assembled by
//! index, the output is **identical for every thread count** — determinism
//! is positional, not scheduling-dependent.
//!
//! Alongside it: [`effective_parallelism`], the work-size gate callers use to
//! decide whether fanning out pays, and [`PhaseProfiler`], the per-phase
//! wall-clock aggregator that attributes release cost.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `0..len` using up to `threads` workers, returning results in
/// index order.
///
/// Determinism: the result vector depends only on `f`, never on the thread
/// count or the scheduling — `parallel_map(1, …)` and `parallel_map(8, …)`
/// return identical vectors whenever `f` is a pure function of its index.
///
/// Scheduling: each worker takes the next index from one shared atomic
/// cursor until the range is exhausted, so an idle worker always picks up
/// the next unstarted index. No lock is taken.
///
/// `threads` is clamped to `[1, len]`; with one thread (or `len <= 1`) the map
/// runs inline on the caller's stack with zero thread overhead.
///
/// # Panics
/// Propagates the first panic raised by `f`.
pub fn parallel_map<T, F>(threads: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(len.max(1));
    if threads == 1 {
        return (0..len).map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let (cursor, f) = (&cursor, &f);
    let buffers: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            break out;
                        }
                        out.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(buf) => buf,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
    for (i, val) in buffers.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} computed twice");
        slots[i] = Some(val);
    }
    slots
        .into_iter()
        .map(|o| o.expect("every index computed exactly once"))
        .collect()
}

/// Minimum units of work (vertices + edges, or any comparable cost proxy) a
/// worker thread must have before fanning out is worth its scheduling cost.
/// The old fixed gate `work < 4096 → sequential` is the special case of two
/// workers; this constant makes the gate scale with the requested budget.
pub const MIN_WORK_PER_THREAD: usize = 2048;

/// Adapts a requested thread budget to the actual work size: at least
/// [`MIN_WORK_PER_THREAD`] units per worker, never more workers than
/// requested. Returns 1 (sequential) when the work cannot feed two workers —
/// callers gate their parallel path on `effective_parallelism(..) >= 2`,
/// which for 2 requested threads reduces exactly to the historical
/// `work < 4096` cutoff.
///
/// Purely a function of its arguments (no machine probing), so gating never
/// changes results across hosts; capping at the *hardware* parallelism is the
/// estimator configuration's job.
pub fn effective_parallelism(threads: usize, work: usize) -> usize {
    threads.max(1).min((work / MIN_WORK_PER_THREAD).max(1))
}

/// A thread-safe per-phase wall-clock aggregator for attributing release cost.
///
/// Phases are named slots; [`PhaseProfiler::phase`] returns a [`PhaseTimer`]
/// RAII guard that adds its scope's elapsed wall time (and one invocation) to
/// the slot on drop. Counters ([`add_count`](Self::add_count)) ride along for
/// unitless totals (components solved, dedup hits). The profiler is purely
/// observational: it never influences values, ordering, or scheduling, so a
/// profiled release is bit-for-bit identical to an unprofiled one.
///
/// Overhead is two `Instant` reads plus one mutex acquisition per scope —
/// intended for coarse pipeline phases (build, partition, solve, noise), not
/// per-edge instrumentation.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    slots: Mutex<Vec<PhaseSlot>>,
}

#[derive(Debug, Clone)]
struct PhaseSlot {
    name: &'static str,
    seconds: f64,
    invocations: u64,
    count: u64,
}

/// One aggregated profiler slot, as reported by [`PhaseProfiler::report`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Phase name as passed to [`PhaseProfiler::phase`].
    pub name: String,
    /// Total wall-clock seconds across all finished scopes.
    pub seconds: f64,
    /// Number of finished scopes.
    pub invocations: u64,
    /// Unitless counter total from [`PhaseProfiler::add_count`].
    pub count: u64,
}

impl PhaseProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a scoped timer for the phase `name`; elapsed time is recorded
    /// on drop. Phase names are static, so timing a scope allocates nothing.
    pub fn phase<'p>(&'p self, name: &'static str) -> PhaseTimer<'p> {
        PhaseTimer {
            profiler: self,
            name,
            started: std::time::Instant::now(),
        }
    }

    /// Adds `n` to the unitless counter of `name` (creating the slot if new).
    pub fn add_count(&self, name: &'static str, n: u64) {
        let mut slots = self.slots.lock().expect("profiler lock");
        let slot = Self::slot(&mut slots, name);
        slot.count += n;
    }

    fn add_seconds(&self, name: &'static str, seconds: f64) {
        let mut slots = self.slots.lock().expect("profiler lock");
        let slot = Self::slot(&mut slots, name);
        slot.seconds += seconds;
        slot.invocations += 1;
    }

    fn slot<'a>(slots: &'a mut Vec<PhaseSlot>, name: &'static str) -> &'a mut PhaseSlot {
        // Linear scan keeps first-use registration order for reporting; the
        // slot count is the number of pipeline phases, i.e. tiny.
        if let Some(i) = slots.iter().position(|s| s.name == name) {
            return &mut slots[i];
        }
        slots.push(PhaseSlot {
            name,
            seconds: 0.0,
            invocations: 0,
            count: 0,
        });
        slots.last_mut().expect("just pushed")
    }

    /// Snapshot of every slot in first-use order.
    pub fn report(&self) -> Vec<PhaseReport> {
        self.slots
            .lock()
            .expect("profiler lock")
            .iter()
            .map(|s| PhaseReport {
                name: s.name.to_string(),
                seconds: s.seconds,
                invocations: s.invocations,
                count: s.count,
            })
            .collect()
    }

    /// Walks every slot in first-use order without allocating:
    /// `f(name, seconds, invocations, count)`. The slot lock is held for the
    /// whole walk, so keep `f` cheap — this exists for per-request boundaries
    /// (span emission) where [`report`](Self::report)'s per-slot `String`
    /// clones and `Vec` are measurable.
    pub fn visit(&self, mut f: impl FnMut(&'static str, f64, u64, u64)) {
        for s in self.slots.lock().expect("profiler lock").iter() {
            f(s.name, s.seconds, s.invocations, s.count);
        }
    }

    /// Adds this profiler's timed slots into a metrics registry as the
    /// `ccdp_exec_phase_seconds_total` / `ccdp_exec_phase_invocations_total`
    /// series (one `phase` label per slot). Counts from
    /// [`add_count`](Self::add_count) are **not** published: they are exact
    /// statistics of the graph being solved (components, dedup classes), and
    /// a scrape of a shared registry must not reveal them. They stay in
    /// [`report`](Self::report). Counters are monotone, so call this once per
    /// short-lived profiler (e.g. per request) — not repeatedly on one
    /// long-lived aggregate.
    pub fn publish(&self, registry: &ccdp_obs::MetricsRegistry) {
        self.visit(|name, seconds, invocations, _count| {
            if invocations > 0 {
                let labels = [("phase", name)];
                registry
                    .float_counter_with("ccdp_exec_phase_seconds_total", &labels)
                    .add(seconds);
                registry
                    .counter_with("ccdp_exec_phase_invocations_total", &labels)
                    .add(invocations);
            }
        });
    }

    /// Total seconds recorded for `name`, or 0.0 if the phase never ran.
    pub fn seconds(&self, name: &str) -> f64 {
        self.slots
            .lock()
            .expect("profiler lock")
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.seconds)
            .unwrap_or(0.0)
    }
}

/// RAII guard from [`PhaseProfiler::phase`]: records elapsed wall time into
/// its phase slot when dropped.
#[must_use = "the timer records on drop; binding it to `_` ends the scope immediately"]
pub struct PhaseTimer<'p> {
    profiler: &'p PhaseProfiler,
    name: &'static str,
    started: std::time::Instant,
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        self.profiler
            .add_seconds(self.name, self.started.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn parallel_map_matches_sequential_for_every_thread_count() {
        let expected: Vec<u64> = (0..257u64).map(|i| i * i + 1).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            let got = parallel_map(threads, 257, |i| (i as u64) * (i as u64) + 1);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_handles_edge_sizes() {
        assert_eq!(parallel_map(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(4, 1, |i| i + 7), vec![7]);
        assert_eq!(parallel_map(1, 3, |i| i), vec![0, 1, 2]);
        // More threads than items.
        assert_eq!(parallel_map(64, 3, |i| i * 2), vec![0, 2, 4]);
    }

    #[test]
    fn parallel_map_balances_skewed_work() {
        // One expensive index among many cheap ones; every index must still be
        // computed exactly once with the right value.
        let touched = AtomicU64::new(0);
        let got = parallel_map(4, 64, |i| {
            touched.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            i
        });
        assert_eq!(got, (0..64).collect::<Vec<_>>());
        assert_eq!(touched.load(Ordering::Relaxed), 64);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn parallel_map_propagates_panics() {
        parallel_map(4, 16, |i| {
            if i == 9 {
                panic!("deliberate");
            }
            i
        });
    }

    #[test]
    fn profiler_aggregates_scopes_and_counts() {
        let prof = PhaseProfiler::new();
        for _ in 0..3 {
            let _t = prof.phase("solve");
            std::thread::sleep(Duration::from_millis(2));
        }
        {
            let _t = prof.phase("noise");
        }
        prof.add_count("solve", 10);
        prof.add_count("solve", 5);
        let report = prof.report();
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].name, "solve");
        assert_eq!(report[0].invocations, 3);
        assert_eq!(report[0].count, 15);
        assert!(report[0].seconds >= 0.004, "slept ~6ms across 3 scopes");
        assert_eq!(report[1].name, "noise");
        assert_eq!(report[1].invocations, 1);
        assert_eq!(prof.seconds("missing"), 0.0);
        assert!(prof.seconds("solve") > 0.0);
    }

    #[test]
    fn profiler_publishes_timed_totals_but_not_counts() {
        let prof = PhaseProfiler::new();
        prof.add_seconds("solve", 1.0);
        prof.add_seconds("solve", 2.0);
        prof.add_count("solve", 4);
        prof.add_seconds("noise", 0.5);
        prof.add_count("anchor", 7);

        // Publishing lands the timed totals in the registry under phase
        // labels; the counts stay in the report only.
        let registry = ccdp_obs::MetricsRegistry::new();
        prof.publish(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.sum("ccdp_exec_phase_invocations_total"), 3.0);
        assert!((snap.sum("ccdp_exec_phase_seconds_total") - 3.5).abs() < 1e-9);
        assert!(snap
            .series
            .iter()
            .all(|s| s.name != "ccdp_exec_phase_count_total"));
    }

    #[test]
    fn profiler_is_usable_across_threads() {
        let prof = PhaseProfiler::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _t = prof.phase("worker");
                    prof.add_count("worker", 1);
                });
            }
        });
        let report = prof.report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].invocations, 4);
        assert_eq!(report[0].count, 4);
    }
}
