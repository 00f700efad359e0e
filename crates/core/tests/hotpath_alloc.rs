//! Allocation-counting proof of the zero-allocation hot path: once the
//! placement has converged, `handle_read` and `handle_write` must not touch
//! the heap at all — replica routing, transfer tallies, statistics updates
//! and proxy placement all run on reused buffers.
//!
//! A counting global allocator wraps the system allocator; the workload is
//! replayed until the engine stops changing placement, then the same
//! requests are measured with the counter armed.
//!
//! The sink also carries a pre-allocated [`FlightRecorder`] and a
//! [`MetricsRegistry`] and folds every engine trace into both, so the
//! measurement covers observability-enabled mode: recording a trace event
//! must be as alloc-free as the read/write paths it rides on. It counts the
//! engine's [`TrafficSink::served`] and [`TrafficSink::unlinked`] reports
//! too — the live store builds its lookups, pushes and evictions from them —
//! the warm-up checks that replicas were unlinked, and the armed window that
//! there is one `served` per read target and one per written replica.
//!
//! A churn phase follows on the same engine: fan-in feed reads that create
//! and evict replicas by the hundred, where the count armed is allocations
//! per created replica, held under a bound.
#![allow(unsafe_code)] // the GlobalAlloc trait is unsafe by construction

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dynasore_core::{DynaSoReEngine, InitialPlacement};
use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_topology::Topology;
use dynasore_types::{
    ClusterEvent, FlightRecorder, MachineId, MemoryBudget, Message, MetricsRegistry,
    PlacementEngine, SimTime, TraceEventKind, TrafficSink, UserId,
};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Engine allocations per replica created in the churn phase: 0.07
/// measured, about 2 if each new replica allocated its own statistics
/// instead of taking over its victim's. What is left is mostly replicas
/// whose victim held statistics too large to keep.
const MAX_ALLOCATIONS_PER_CREATION: f64 = 0.3;

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged; the
// counter is a relaxed atomic side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// A sink that counts messages and records every trace event into a
/// pre-allocated flight recorder + metrics registry — the
/// observability-enabled configuration, with storage charged up front so
/// steady-state recording costs nothing.
struct CountingSink {
    messages: u64,
    traces: u64,
    created: u64,
    served: u64,
    unlinked: u64,
    recorder: FlightRecorder,
    registry: MetricsRegistry,
}

impl TrafficSink for CountingSink {
    fn record(&mut self, _message: Message) {
        self.messages += 1;
    }

    fn trace(&mut self, kind: TraceEventKind) {
        self.traces += 1;
        self.created += u64::from(matches!(kind, TraceEventKind::ReplicaCreated { .. }));
        self.registry.apply(kind);
        self.recorder.record(self.traces, kind);
    }

    fn served(&mut self, _view: UserId, _server: MachineId) {
        self.served += 1;
    }

    fn unlinked(&mut self, _view: UserId, _server: MachineId) {
        self.unlinked += 1;
    }
}

/// Single test on purpose: the allocation counter is process-global, and a
/// sibling test running concurrently would pollute the measured window.
#[test]
fn steady_state_reads_and_writes_do_not_allocate() {
    let users = 400usize;
    let graph = SocialGraph::generate(GraphPreset::FacebookLike, users, 11).unwrap();
    let topology = Topology::tree(2, 2, 5, 1).unwrap();
    let mut engine = DynaSoReEngine::builder()
        .topology(topology)
        .budget(MemoryBudget::with_extra_percent(users, 30))
        .initial_placement(InitialPlacement::Random { seed: 1 })
        .build(&graph)
        .unwrap();

    let mut sink = CountingSink {
        messages: 0,
        traces: 0,
        created: 0,
        served: 0,
        unlinked: 0,
        recorder: FlightRecorder::new(4096),
        registry: MetricsRegistry::new(),
    };
    // Every view is read by exactly one reader (u reads u+1), so once the
    // read proxies migrate to the data and the placement settles there is
    // no cross-rack read pressure left and the engine reaches a fixed
    // point. (Fan-in workloads keep migrating replicas between equally good
    // positions forever — by design — and a replica change may allocate:
    // the churn phase at the end bounds how often.)
    let workload: Vec<(UserId, Vec<UserId>)> = (0..users as u32)
        .step_by(3)
        .map(UserId::new)
        .map(|u| (u, vec![UserId::new((u.index() + 1) % users as u32)]))
        .collect();

    // Warm up until the placement reaches its fixed point: replicas get
    // created and migrated while the engine adapts, after which repeating
    // the identical workload changes nothing. A server crashes and returns
    // early on, so the warm-up also unlinks replicas and recovers masters.
    let crashed = engine.topology().servers()[0].machine();
    for round in 0..30 {
        if round == 5 {
            for event in [
                ClusterEvent::MachineDown { machine: crashed },
                ClusterEvent::MachineUp { machine: crashed },
            ] {
                engine.on_cluster_change(event, &mut sink).unwrap();
            }
        }
        for (user, targets) in &workload {
            engine.handle_read(*user, targets, SimTime::from_secs(5), &mut sink);
            engine.handle_write(*user, SimTime::from_secs(5), &mut sink);
        }
    }

    let warmup_traces = sink.traces;
    assert!(sink.unlinked > 0, "the warm-up moved or evicted no replica");

    // Measure the same workload with the counter armed. Steady state emits
    // no organic trace events (nothing changes placement any more), so the
    // recording path is exercised explicitly inside the armed window: a
    // full ring's worth of events through the same sink, wrapping the ring
    // at least once.
    let (mut read_reports, mut write_reports) = (0, 0);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..3 {
        for (user, targets) in &workload {
            let served = sink.served;
            engine.handle_read(*user, targets, SimTime::from_secs(6), &mut sink);
            read_reports += sink.served - served;
            let served = sink.served;
            engine.handle_write(*user, SimTime::from_secs(6), &mut sink);
            write_reports += sink.served - served;
        }
    }
    for tick_secs in 0..8192u64 {
        sink.trace(TraceEventKind::TickSample {
            tick_secs,
            unreachable_reads: 0,
        });
    }
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert!(sink.messages > 0, "the workload produced no traffic");
    assert!(
        warmup_traces > 0,
        "placement convergence traced no decisions during warmup"
    );
    assert!(
        !sink.recorder.is_empty(),
        "the flight recorder stayed empty"
    );
    assert_eq!(
        allocations, 0,
        "steady-state handle_read/handle_write/trace allocated {allocations} times"
    );
    // The placement is at its fixed point, so every pass wrote the same
    // replicas.
    let targets: usize = workload.iter().map(|(_, targets)| targets.len()).sum();
    let replicas: usize = workload
        .iter()
        .map(|&(user, _)| engine.replica_count(user))
        .sum();
    assert_eq!(read_reports, 3 * targets as u64, "one per read target");
    assert_eq!(
        write_reports,
        3 * replicas as u64,
        "one per written replica"
    );

    // Churn: fan-in feed reads on the same full cluster, never ticked, so
    // every admission threshold stays 0 and most evaluations create a
    // replica and evict another to make room — the serving workloads'
    // regime. A replica admitted into a full server takes over its
    // victim's statistics, so creating one barely allocates. One round
    // warms the buffers that grow with the fan-in.
    let feeds: Vec<UserId> = graph
        .users()
        .filter(|&user| !graph.followees(user).is_empty())
        .collect();
    let feed_round = |engine: &mut DynaSoReEngine, sink: &mut CountingSink| {
        for &user in &feeds {
            engine.handle_read(user, graph.followees(user), SimTime::from_secs(7), sink);
        }
    };
    feed_round(&mut engine, &mut sink);
    let (created, unlinked) = (sink.created, sink.unlinked);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    feed_round(&mut engine, &mut sink);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    let (created, unlinked) = (sink.created - created, sink.unlinked - unlinked);
    assert!(
        created >= 300 && unlinked >= 300,
        "the churn created {created} and unlinked {unlinked} replicas"
    );
    let per_creation = allocations as f64 / created as f64;
    assert!(
        per_creation <= MAX_ALLOCATIONS_PER_CREATION,
        "{allocations} allocations for {created} created replicas"
    );
}
