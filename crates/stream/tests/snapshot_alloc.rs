//! Allocation guard for a stream snapshot published into a registry at
//! n = 10^5.
//!
//! A snapshot is one CSR arena built in one pass over the live graph, and
//! the registry stores that `Arc` as is. So freezing and publishing a stream
//! must make a small constant number of heap allocations: the arena's two
//! arrays, its `Arc` and a few registry entries. Cloning the adjacency-list
//! graph instead costs one allocation per row; this test pins the constant
//! with a counting global allocator so that cannot come back silently.
//!
//! This file deliberately holds a single `#[test]`: the counter is global,
//! and a sibling test running concurrently would pollute the measurement.

use ccdp_graph::{generators, CsrGraph};
use ccdp_serve::GraphRegistry;
use ccdp_stream::{GraphStream, Mutation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow counts as an allocation: the arena sizes both arrays up
        // front, so none should happen.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (out, after - before)
}

#[test]
fn a_published_snapshot_allocates_a_constant_number_of_times() {
    let n = 100_000;
    let mut rng = StdRng::seed_from_u64(4242);
    let mut stream = GraphStream::from_graph(
        "live",
        generators::erdos_renyi(n, 1.05 / n as f64, &mut rng),
    );
    let registry = GraphRegistry::new();
    // Steady state: the id already holds a published version.
    let first = stream.snapshot();
    registry
        .insert_version("live", first.version(), Arc::clone(first.graph()))
        .unwrap();
    stream.apply(&Mutation::delete(1, 0, 1)).unwrap();
    stream.apply(&Mutation::insert(2, 0, n - 1)).unwrap();

    let (snapshot, allocs) = allocations_during(|| {
        let snapshot = stream.snapshot();
        registry
            .insert_version("live", snapshot.version(), Arc::clone(snapshot.graph()))
            .unwrap();
        snapshot
    });
    // Today exactly 4: the arena's two arrays, its `Arc` and the published
    // id. The slack absorbs allocator or std drift, far below the 10^5 row
    // allocations of a `Graph` clone.
    assert!(
        allocs <= 16,
        "snapshot + publish made {allocs} allocations at n = {n}"
    );
    // The publish stored the snapshot's own arena, and it is exact.
    let (_, arena) = registry
        .resolve_arena(snapshot.id(), Some(snapshot.version()))
        .unwrap();
    assert!(Arc::ptr_eq(&arena, snapshot.graph()));
    assert_eq!(*arena, CsrGraph::from_graph(stream.graph()));
}
