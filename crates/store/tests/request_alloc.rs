//! Allocation count of the store's request paths: once the placement has
//! converged, a fixed sequence of 1,000 `Cluster::read_feed` hits and 1,000
//! `Cluster::write`s over the in-memory durable tier makes a pinned number
//! of heap allocations.
//!
//! The engine itself allocates nothing on these paths
//! (`core/tests/hotpath_alloc.rs`); what is pinned here is the store's own
//! share — the lookup batch, the returned views and events, the reply
//! channels, the new version of a written view and its pushes — so a
//! change that adds an allocation per request, or per view, fails here on
//! any machine.
//!
//! A counting global allocator wraps the system allocator. It counts every
//! thread, because the cache worker is a second thread: its allocations
//! (a shard's table growing, a detached copy) are the store's too.
//!
//! One allocation depends on timing, not on the code: every hand-off to the
//! worker waits on a fresh reply channel, and std's channel allocates a
//! 96-byte waiter entry (on a 64-bit target) when its receiver blocks, that
//! is when the worker has not answered yet. So allocations of 96 bytes are
//! counted apart: every other size is pinned exactly, and the 96-byte ones
//! lie between the store's own (one lookup batch per request) and that plus
//! one waiter per hand-off.
#![allow(unsafe_code)] // the GlobalAlloc trait is unsafe by construction

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dynasore_graph::SocialGraph;
use dynasore_store::{Cluster, StoreConfig};
use dynasore_topology::Topology;
use dynasore_types::UserId;

/// Allocations of any size but 96 bytes.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Allocations of 96 bytes: a channel's waiter entry, or a lookup batch of
/// up to four views.
static WAITER_SIZED: AtomicU64 = AtomicU64::new(0);

/// Allocations of the 1,000 measured feed reads, besides those of 96 bytes.
const READ_ALLOCATIONS: u64 = 5_032;
/// Allocations of the 1,000 measured writes, besides those of 96 bytes.
const WRITE_ALLOCATIONS: u64 = 35_716;
/// Hand-offs to the cache worker per read: one batch of lookups.
const READ_HANDOFFS: u64 = 1;
/// Hand-offs per write: one probe of every server the write did not
/// update (16 servers, one replica per view).
const WRITE_HANDOFFS: u64 = 15;

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged; the
// counters are relaxed atomic side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() == 96 {
            WAITER_SIZED.fetch_add(1, Ordering::Relaxed);
        } else {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Both counters' growth while `request` runs.
fn count(request: impl FnOnce()) -> (u64, u64) {
    let before = (
        ALLOCATIONS.load(Ordering::SeqCst),
        WAITER_SIZED.load(Ordering::SeqCst),
    );
    request();
    (
        ALLOCATIONS.load(Ordering::SeqCst) - before.0,
        WAITER_SIZED.load(Ordering::SeqCst) - before.1,
    )
}

/// Single test on purpose: the allocation counters are process-global, and
/// a sibling test running concurrently would pollute the measured window.
#[test]
fn feed_reads_and_writes_allocate_a_pinned_amount() {
    // Every user follows the next one, and every third user reads: each
    // view is read by one reader, so the read proxies move to the data, the
    // placement reaches a fixed point and every read hits. Each read's one
    // followee then writes, so the next read finds a new version.
    let users = 300u32;
    let next = |user: UserId| UserId::new((user.index() + 1) % users);
    let edges = (0..users).map(UserId::new).map(|user| (user, next(user)));
    let graph = SocialGraph::from_edges(users as usize, edges).unwrap();
    let topology = Topology::tree(2, 2, 5, 1).unwrap();
    let cluster = Cluster::spawn(&graph, topology, StoreConfig::default()).unwrap();
    let readers: Vec<UserId> = (0..users).step_by(3).map(UserId::new).collect();
    let round = |measured: &mut [(u64, u64); 2], events: &mut usize| {
        for &user in &readers {
            let read = count(|| *events += cluster.read_feed(user).unwrap().len());
            let payload = vec![7u8; 100];
            let write = count(|| cluster.write(next(user), payload).unwrap());
            for (total, request) in measured.iter_mut().zip([read, write]) {
                *total = (total.0 + request.0, total.1 + request.1);
            }
        }
    };

    // Warm up past the placement's fixed point, and past the views'
    // capacity, so every write replaces its view's oldest event.
    let mut events = 0;
    for _ in 0..150 {
        round(&mut [(0, 0); 2], &mut events);
    }

    let misses = cluster.stats().cache_misses;
    let (mut measured, mut events) = ([(0, 0); 2], 0);
    for _ in 0..10 {
        round(&mut measured, &mut events);
    }
    let requests = 10 * readers.len() as u64;
    assert_eq!(requests, 1_000);
    assert_eq!(
        cluster.stats().cache_misses,
        misses,
        "a measured read missed"
    );
    assert_eq!(events, 1_000 * 128, "every feed is one full view");

    let [(reads, read_96), (writes, write_96)] = measured;
    assert_eq!(
        (reads, writes),
        (READ_ALLOCATIONS, WRITE_ALLOCATIONS),
        "allocations of 1,000 feed reads and 1,000 writes"
    );
    for (what, sized_96, handoffs) in [
        ("reads", read_96, READ_HANDOFFS),
        ("writes", write_96, WRITE_HANDOFFS),
    ] {
        assert!(
            (requests..=requests * (1 + handoffs)).contains(&sized_96),
            "{sized_96} allocations of 96 bytes in 1,000 {what}"
        );
    }
    cluster.shutdown().unwrap();
}
