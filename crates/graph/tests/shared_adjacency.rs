//! Allocation-counting proof that a [`SocialGraph`] clone shares its
//! adjacency: cloning allocates nothing, mutating a graph nobody else holds
//! never copies it, and mutating a clone copies once and leaves the original
//! untouched.
//!
//! A counting global allocator wraps the system allocator. The counter is
//! per thread, so the harness running sibling tests concurrently cannot
//! pollute a measured window.
#![allow(unsafe_code)] // the GlobalAlloc trait is unsafe by construction

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_types::UserId;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates every operation to the system allocator unchanged; the
// counter is a plain thread-local side effect that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// The first `count` pairs `(u, (7u + 13) mod n)` that are not yet edges of
/// `graph`.
fn missing_edges(graph: &SocialGraph, count: usize) -> Vec<(UserId, UserId)> {
    let n = graph.user_count() as u32;
    (0..n)
        .map(|u| (UserId::new(u), UserId::new((u * 7 + 13) % n)))
        .filter(|&(u, v)| u != v && !graph.contains_edge(u, v))
        .take(count)
        .collect()
}

#[test]
fn cloning_a_graph_allocates_nothing() {
    let graph = SocialGraph::generate(GraphPreset::FacebookLike, 10_000, 42).unwrap();
    let (copy, allocated) = allocations(|| graph.clone());
    assert_eq!(allocated, 0, "cloning a 10k-user graph allocated");
    assert_eq!(copy, graph);
}

#[test]
fn mutating_an_unshared_graph_never_copies_it() {
    const MUTATIONS: usize = 64;
    for users in [1_000, 10_000] {
        let mut graph = SocialGraph::generate(GraphPreset::FacebookLike, users, 42).unwrap();
        let edges = missing_edges(&graph, MUTATIONS);
        assert_eq!(edges.len(), MUTATIONS);
        let edge_count = graph.edge_count();
        let ((), allocated) = allocations(|| {
            for &(u, v) in &edges {
                assert!(graph.add_edge(u, v));
            }
            for &(u, v) in &edges {
                assert!(graph.remove_edge(u, v));
            }
        });
        // An insert may grow its two lists; a copy of the adjacency would
        // cost two allocations per user.
        assert!(
            allocated <= 2 * MUTATIONS as u64,
            "{MUTATIONS} adds and removes on a {users}-user graph allocated {allocated} times"
        );
        assert_eq!(graph.edge_count(), edge_count);
        graph.validate().unwrap();
    }
}

#[test]
fn mutating_a_clone_copies_once_and_leaves_the_original_alone() {
    let original = SocialGraph::generate(GraphPreset::FacebookLike, 2_000, 7).unwrap();
    let pristine =
        SocialGraph::from_edges_bulk(original.user_count(), original.edges().collect()).unwrap();
    assert_eq!(original, pristine);

    let mut clone = original.clone();
    let added = missing_edges(&original, 2);
    let removed = original.edges().next().unwrap();
    let (_, first) = allocations(|| clone.add_edge(added[0].0, added[0].1));
    assert!(
        first >= original.user_count() as u64,
        "the first mutation of a shared graph copies it ({first} allocations)"
    );
    let (_, second) = allocations(|| {
        clone.add_edge(added[1].0, added[1].1);
        clone.remove_edge(removed.0, removed.1);
    });
    assert!(
        second <= 2,
        "a later mutation copied again ({second} allocations)"
    );

    assert_eq!(original, pristine);
    assert_ne!(clone, original);
    assert!(clone.contains_edge(added[0].0, added[0].1));
    assert!(!clone.contains_edge(removed.0, removed.1));
    assert!(!original.contains_edge(added[0].0, added[0].1));
    assert!(original.contains_edge(removed.0, removed.1));
    assert_eq!(clone.edge_count(), original.edge_count() + 1);
    original.validate().unwrap();
    clone.validate().unwrap();
}
