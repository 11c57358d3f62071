//! Hand-rolled, std-only execution layer for per-component solving.
//!
//! Two primitives, both built directly on `std::thread` (the build environment
//! has no registry access, so no rayon/crossbeam):
//!
//! * [`parallel_map`] — a *scoped* work-stealing fork/join: map a function over
//!   `0..len` on `t` threads and return the results **in index order**. This is
//!   the hot-path primitive: it borrows its closure (no `'static` bound, no
//!   `Arc`), splits the index range into per-worker deques, and lets idle
//!   workers steal from the back of busy ones, so skewed workloads (one giant
//!   component among thousands of tiny ones) still balance. Because results
//!   are assembled by index, the output is **identical for every thread
//!   count** — determinism is positional, not scheduling-dependent.
//! * [`WorkStealingPool`] — a persistent bounded pool for `'static` jobs, the
//!   serve tier's worker-pool pattern (bounded injection, typed
//!   [`PoolError::QueueFull`] backpressure, graceful drain, panic containment)
//!   generalized with per-worker deques and stealing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Maps `f` over `0..len` using up to `threads` workers, returning results in
/// index order.
///
/// Determinism: the result vector depends only on `f`, never on the thread
/// count or the scheduling — `parallel_map(1, …)` and `parallel_map(8, …)`
/// return identical vectors whenever `f` is a pure function of its index.
///
/// Scheduling: the index range is pre-split into contiguous per-worker deques;
/// a worker exhausting its own deque steals single indices from the back of
/// other workers' deques (round-robin victim scan). Locks are held only for
/// queue pops, never while `f` runs.
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

    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| {
            let lo = w * len / threads;
            let hi = (w + 1) * len / threads;
            Mutex::new((lo..hi).collect())
        })
        .collect();
    let queues = &queues;
    let f = &f;

    let buffers: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                s.spawn(move || {
                    let mut out: Vec<(usize, T)> = Vec::new();
                    loop {
                        // Own deque first (front: preserves locality), then
                        // steal from the back of a victim's deque.
                        let mut task = queues[w].lock().expect("queue lock").pop_front();
                        if task.is_none() {
                            for d in 1..threads {
                                let v = (w + d) % threads;
                                if let Some(t) = queues[v].lock().expect("queue lock").pop_back() {
                                    task = Some(t);
                                    break;
                                }
                            }
                        }
                        match task {
                            // No task anywhere: since indices are never
                            // re-enqueued, empty-everywhere means done.
                            None => break,
                            Some(i) => out.push((i, f(i))),
                        }
                    }
                    out
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
    for buf in buffers {
        for (i, val) in buf {
            debug_assert!(slots[i].is_none(), "index {i} computed twice");
            slots[i] = Some(val);
        }
    }
    slots
        .into_iter()
        .map(|o| o.expect("every index computed exactly once"))
        .collect()
}

/// Typed refusals from [`WorkStealingPool::try_spawn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The pool's bounded backlog is full; the caller should shed load or
    /// retry later (same contract as the serve tier's queue).
    QueueFull,
    /// The pool is shutting down and accepts no new jobs.
    ShuttingDown,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::QueueFull => write!(f, "pool queue is full"),
            PoolError::ShuttingDown => write!(f, "pool is shutting down"),
        }
    }
}

impl std::error::Error for PoolError {}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    /// One deque per worker; submissions round-robin across them, idle
    /// workers steal from the back of busy ones.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs submitted but not yet finished (backlog + running).
    pending: AtomicUsize,
    /// Capacity bound on `pending`; `try_spawn` refuses beyond it.
    capacity: usize,
    shutdown: AtomicBool,
    completed: AtomicUsize,
    panicked: AtomicUsize,
    steals: AtomicUsize,
    /// Parked-worker rendezvous (timed waits make lost wakeups harmless).
    idle: Mutex<()>,
    idle_cv: Condvar,
    /// Drain rendezvous: signaled whenever `pending` hits zero.
    drained: Mutex<()>,
    drained_cv: Condvar,
}

/// A persistent, bounded, work-stealing thread pool for `'static` jobs.
///
/// This generalizes the serving tier's fixed worker pool: submissions go to
/// per-worker deques round-robin, idle workers steal, the backlog is bounded
/// with a typed [`PoolError::QueueFull`] refusal, job panics are contained
/// (counted, pool survives), and [`drain`](Self::drain) waits for quiescence.
/// Dropping the pool shuts it down gracefully: already-queued jobs finish.
pub struct WorkStealingPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    next_queue: AtomicUsize,
}

impl WorkStealingPool {
    /// Spawns a pool with `threads` workers and a backlog bound of `capacity`
    /// jobs (submitted-but-unfinished).
    ///
    /// # Panics
    /// Panics if `threads == 0` or `capacity == 0`.
    pub fn new(threads: usize, capacity: usize) -> Self {
        assert!(threads >= 1, "pool needs at least one worker");
        assert!(capacity >= 1, "pool needs a positive capacity");
        let shared = Arc::new(PoolShared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            capacity,
            shutdown: AtomicBool::new(false),
            completed: AtomicUsize::new(0),
            panicked: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
            idle: Mutex::new(()),
            idle_cv: Condvar::new(),
            drained: Mutex::new(()),
            drained_cv: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ccdp-exec-{w}"))
                    .spawn(move || worker_loop(w, &shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkStealingPool {
            shared,
            handles,
            next_queue: AtomicUsize::new(0),
        }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.shared.queues.len()
    }

    /// Submits a job, refusing with a typed error when the backlog is at
    /// capacity or the pool is shutting down.
    pub fn try_spawn<F>(&self, job: F) -> Result<(), PoolError>
    where
        F: FnOnce() + Send + 'static,
    {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(PoolError::ShuttingDown);
        }
        // Optimistic reserve of a backlog slot.
        let mut cur = self.shared.pending.load(Ordering::Relaxed);
        loop {
            if cur >= self.shared.capacity {
                return Err(PoolError::QueueFull);
            }
            match self.shared.pending.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        let w = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.shared.queues.len();
        self.shared.queues[w]
            .lock()
            .expect("queue lock")
            .push_back(Box::new(job));
        self.shared.idle_cv.notify_one();
        Ok(())
    }

    /// Blocks until every submitted job has finished (backlog empty, nothing
    /// running). New submissions during a drain extend it.
    pub fn drain(&self) {
        let mut guard = self.shared.drained.lock().expect("drain lock");
        while self.shared.pending.load(Ordering::Acquire) != 0 {
            let (g, _) = self
                .shared
                .drained_cv
                .wait_timeout(guard, Duration::from_millis(20))
                .expect("drain wait");
            guard = g;
        }
    }

    /// Jobs completed successfully since the pool started.
    pub fn completed(&self) -> usize {
        self.shared.completed.load(Ordering::Acquire)
    }

    /// Jobs whose closure panicked (contained, pool kept running).
    pub fn panicked(&self) -> usize {
        self.shared.panicked.load(Ordering::Acquire)
    }

    /// Jobs executed by a worker other than the one they were queued on.
    pub fn steals(&self) -> usize {
        self.shared.steals.load(Ordering::Acquire)
    }

    /// Graceful shutdown: already-queued jobs finish, then workers exit.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.idle_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.shutdown_inner();
        }
    }
}

fn worker_loop(w: usize, shared: &PoolShared) {
    let threads = shared.queues.len();
    loop {
        let mut job = shared.queues[w].lock().expect("queue lock").pop_front();
        if job.is_none() {
            for d in 1..threads {
                let v = (w + d) % threads;
                if let Some(j) = shared.queues[v].lock().expect("queue lock").pop_back() {
                    shared.steals.fetch_add(1, Ordering::Relaxed);
                    job = Some(j);
                    break;
                }
            }
        }
        match job {
            Some(job) => {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                match outcome {
                    Ok(()) => shared.completed.fetch_add(1, Ordering::AcqRel),
                    Err(_) => shared.panicked.fetch_add(1, Ordering::AcqRel),
                };
                if shared.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let _g = shared.drained.lock().expect("drain lock");
                    shared.drained_cv.notify_all();
                }
            }
            None => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let guard = shared.idle.lock().expect("idle lock");
                // Timed wait: a wakeup lost between the queue scan and this
                // park costs at most one timeout period, never a deadlock.
                let _ = shared
                    .idle_cv
                    .wait_timeout(guard, Duration::from_millis(10))
                    .expect("idle wait");
            }
        }
    }
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
    name: String,
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

    /// Starts a scoped timer for `name`; elapsed time is recorded on drop.
    pub fn phase<'p>(&'p self, name: &str) -> PhaseTimer<'p> {
        PhaseTimer {
            profiler: self,
            name: name.to_string(),
            started: std::time::Instant::now(),
        }
    }

    /// Adds `n` to the unitless counter of `name` (creating the slot if new).
    pub fn add_count(&self, name: &str, n: u64) {
        let mut slots = self.slots.lock().expect("profiler lock");
        let slot = Self::slot(&mut slots, name);
        slot.count += n;
    }

    fn add_seconds(&self, name: &str, seconds: f64) {
        let mut slots = self.slots.lock().expect("profiler lock");
        let slot = Self::slot(&mut slots, name);
        slot.seconds += seconds;
        slot.invocations += 1;
    }

    fn slot<'a>(slots: &'a mut Vec<PhaseSlot>, name: &str) -> &'a mut PhaseSlot {
        // Linear scan keeps first-use registration order for reporting; the
        // slot count is the number of pipeline phases, i.e. tiny.
        if let Some(i) = slots.iter().position(|s| s.name == name) {
            return &mut slots[i];
        }
        slots.push(PhaseSlot {
            name: name.to_string(),
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
                name: s.name.clone(),
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
    pub fn visit(&self, mut f: impl FnMut(&str, f64, u64, u64)) {
        for s in self.slots.lock().expect("profiler lock").iter() {
            f(&s.name, s.seconds, s.invocations, s.count);
        }
    }

    /// Snapshot of every slot in **stable name order** — the form to diff,
    /// log, or assert on, independent of which phase happened to run first.
    pub fn report_sorted(&self) -> Vec<PhaseReport> {
        let mut report = self.report();
        report.sort_by(|a, b| a.name.cmp(&b.name));
        report
    }

    /// Folds another profiler's slots into this one (summing seconds,
    /// invocations and counts per name). This is how per-thread or
    /// per-request profilers aggregate without sharing a global mutex on the
    /// hot path: each worker times into its own profiler, then merges once.
    pub fn merge(&self, other: &PhaseProfiler) {
        let theirs = other.report();
        let mut slots = self.slots.lock().expect("profiler lock");
        for r in theirs {
            let slot = Self::slot(&mut slots, &r.name);
            slot.seconds += r.seconds;
            slot.invocations += r.invocations;
            slot.count += r.count;
        }
    }

    /// Adds this profiler's timed slots into a metrics registry as the
    /// `ccdp_exec_phase_seconds_total` / `ccdp_exec_phase_invocations_total`
    /// series (one `phase` label per slot). Counts from
    /// [`add_count`](Self::add_count) are **not** published: they are exact
    /// statistics of the graph being solved (components, dedup classes), and
    /// a scrape of a shared registry must not reveal them. They stay in
    /// [`report`](Self::report). Counters are monotone, so call this once per
    /// short-lived profiler (e.g. per request, after [`merge`](Self::merge)-ing
    /// worker profilers) — not repeatedly on one long-lived aggregate.
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
    name: String,
    started: std::time::Instant,
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        self.profiler
            .add_seconds(&self.name, self.started.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
    fn pool_runs_all_jobs_and_drains() {
        let pool = WorkStealingPool::new(4, 1024);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..500 {
            let counter = Arc::clone(&counter);
            pool.try_spawn(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .expect("capacity is ample");
        }
        pool.drain();
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(pool.completed(), 500);
        assert_eq!(pool.panicked(), 0);
        pool.shutdown();
    }

    #[test]
    fn pool_refuses_beyond_capacity() {
        let pool = WorkStealingPool::new(1, 2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Park the single worker so the backlog fills deterministically.
        {
            let gate = Arc::clone(&gate);
            pool.try_spawn(move || {
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            })
            .unwrap();
        }
        // Wait until the worker has picked the blocker up, then fill the rest.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.try_spawn(|| {}).is_ok() {
            assert!(std::time::Instant::now() < deadline, "backlog never filled");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.try_spawn(|| {}), Err(PoolError::QueueFull));
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.drain();
        assert_eq!(pool.panicked(), 0);
    }

    #[test]
    fn pool_contains_job_panics() {
        let pool = WorkStealingPool::new(2, 64);
        pool.try_spawn(|| panic!("contained")).unwrap();
        pool.try_spawn(|| {}).unwrap();
        pool.drain();
        assert_eq!(pool.panicked(), 1);
        assert_eq!(pool.completed(), 1);
        // Pool still works after a panic.
        let ok = Arc::new(AtomicBool::new(false));
        let ok2 = Arc::clone(&ok);
        pool.try_spawn(move || ok2.store(true, Ordering::Release))
            .unwrap();
        pool.drain();
        assert!(ok.load(Ordering::Acquire));
    }

    #[test]
    fn pool_rejects_after_shutdown_flag() {
        let mut pool = WorkStealingPool::new(2, 8);
        pool.shutdown_inner();
        assert_eq!(pool.try_spawn(|| {}), Err(PoolError::ShuttingDown));
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
    fn profiler_sorted_report_and_merge_aggregate_per_thread_profilers() {
        // Three "worker" profilers with overlapping phases in different
        // first-use orders; the merged sorted report must be deterministic.
        let workers: Vec<PhaseProfiler> = (0..3).map(|_| PhaseProfiler::new()).collect();
        workers[0].add_seconds("solve", 1.0);
        workers[0].add_count("solve", 4);
        workers[1].add_seconds("noise", 0.5);
        workers[1].add_seconds("solve", 2.0);
        workers[2].add_count("anchor", 7);
        let total = PhaseProfiler::new();
        for w in &workers {
            total.merge(w);
        }
        let sorted = total.report_sorted();
        let names: Vec<&str> = sorted.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["anchor", "noise", "solve"]);
        let solve = &sorted[2];
        assert_eq!(solve.invocations, 2);
        assert_eq!(solve.count, 4);
        assert!((solve.seconds - 3.0).abs() < 1e-9);
        assert_eq!(sorted[0].count, 7);
        assert_eq!(sorted[0].invocations, 0);

        // Publishing lands the timed totals in the registry under phase
        // labels; the counts stay in the report only.
        let registry = ccdp_obs::MetricsRegistry::new();
        total.publish(&registry);
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

    #[test]
    fn idle_workers_steal_queued_jobs() {
        // Submissions round-robin over 4 queues but one worker is blocked;
        // the others must steal its queued jobs for the drain to finish.
        let pool = WorkStealingPool::new(4, 1024);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..200 {
            let counter = Arc::clone(&counter);
            pool.try_spawn(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(100));
            })
            .unwrap();
        }
        pool.drain();
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }
}
