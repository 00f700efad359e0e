//! Allocation count of the serving front end: once the placement has
//! converged, a fixed sequence of 1,000 `ReadFeed` envelopes and 1,000
//! `Write` envelopes through `LoopbackServer::handle` makes a pinned number
//! of heap allocations.
//!
//! The store's own share is pinned by `store/tests/request_alloc.rs` over
//! the same workload; what this adds is the pipeline around it — tracing,
//! admission and flow-budget stages, the backend adapter and the response
//! envelope — so a stage that starts allocating per envelope fails here on
//! any machine. Building the request envelope is the caller's and is not
//! counted.
//!
//! A counting global allocator wraps the system allocator and counts every
//! thread, because the store's cache worker is a second thread.
//!
//! As in the store's test, allocations of 96 bytes are counted apart: each
//! hand-off to the cache worker waits on a fresh reply channel, and std's
//! channel allocates a 96-byte waiter entry (on a 64-bit target) only when
//! its receiver blocks, which depends on timing. Every other size is pinned
//! exactly, and the 96-byte ones lie between the store's own (one lookup
//! batch per feed read) and that plus one waiter per hand-off.
#![allow(unsafe_code)] // the GlobalAlloc trait is unsafe by construction

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dynasore_graph::SocialGraph;
use dynasore_serve::{LoopbackServer, RequestEnvelope, ResponseBody, ServeConfig};
use dynasore_store::StoreConfig;
use dynasore_topology::Topology;
use dynasore_types::UserId;

/// Allocations of any size but 96 bytes.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Allocations of 96 bytes: a channel's waiter entry, or a lookup batch of
/// up to four views.
static WAITER_SIZED: AtomicU64 = AtomicU64::new(0);

/// Allocations of the 1,000 measured `ReadFeed` envelopes, besides those of
/// 96 bytes: exactly the store's 1,000 `Cluster::read_feed`s — the pipeline
/// adds none to a read.
const READ_ALLOCATIONS: u64 = 5_032;
/// Allocations of the 1,000 measured `Write` envelopes, besides those of
/// 96 bytes: the store's 35,716 for 1,000 `Cluster::write`s, plus the
/// backend's one copy of each payload (the envelope keeps its own).
const WRITE_ALLOCATIONS: u64 = 36_716;
/// Hand-offs to the cache worker per feed read: one batch of lookups.
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
fn feed_read_and_write_envelopes_allocate_a_pinned_amount() {
    // The store test's workload: every user follows the next one and every
    // third user reads, so the placement reaches a fixed point and every
    // read hits; each read's one followee then writes.
    let users = 300u32;
    let next = |user: UserId| UserId::new((user.index() + 1) % users);
    let edges = (0..users).map(UserId::new).map(|user| (user, next(user)));
    let graph = SocialGraph::from_edges(users as usize, edges).unwrap();
    let topology = Topology::tree(2, 2, 5, 1).unwrap();
    let server = LoopbackServer::spawn(
        &graph,
        topology,
        StoreConfig::default(),
        ServeConfig::default(),
    )
    .unwrap();
    let readers: Vec<UserId> = (0..users).step_by(3).map(UserId::new).collect();
    let round = |measured: &mut [(u64, u64); 2], events: &mut usize| {
        for &user in &readers {
            let envelope = RequestEnvelope::read_feed(user);
            let read = count(|| match server.handle(envelope).body {
                ResponseBody::Feed(feed) => *events += feed.len(),
                body => panic!("a feed read answered {body:?}"),
            });
            let envelope = RequestEnvelope::write(next(user), vec![7u8; 100]);
            let write = count(|| assert!(server.handle(envelope).is_success()));
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

    let misses = server.store_stats().cache_misses;
    let (mut measured, mut events) = ([(0, 0); 2], 0);
    for _ in 0..10 {
        round(&mut measured, &mut events);
    }
    let requests = 10 * readers.len() as u64;
    assert_eq!(requests, 1_000);
    assert_eq!(
        server.store_stats().cache_misses,
        misses,
        "a measured read missed"
    );
    assert_eq!(events, 1_000 * 128, "every feed is one full view");

    let [(reads, read_96), (writes, write_96)] = measured;
    assert_eq!(
        (reads, writes),
        (READ_ALLOCATIONS, WRITE_ALLOCATIONS),
        "allocations of 1,000 feed-read and 1,000 write envelopes"
    );
    for (what, sized_96, handoffs) in [
        ("feed reads", read_96, READ_HANDOFFS),
        ("writes", write_96, WRITE_HANDOFFS),
    ] {
        assert!(
            (requests..=requests * (1 + handoffs)).contains(&sized_96),
            "{sized_96} allocations of 96 bytes in 1,000 {what}"
        );
    }
    server.shutdown().unwrap();
}
