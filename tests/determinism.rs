//! Determinism and accounting-equivalence guards for the request hot path.
//!
//! The dense-slab replica storage and the inline `TrafficSink` accounting
//! must not reintroduce run-to-run nondeterminism (the PR-1 flakiness came
//! from hash-seed-dependent iteration) nor change what the old
//! `Vec<Message>` push-then-account protocol measured: the same seed must
//! produce a byte-identical [`SimReport`], and inline accounting must match
//! a manual replay that buffers every message and charges it afterwards.

use dynasore::prelude::*;
use dynasore_baselines::{SparEngine, StaticPlacement};
use dynasore_sim::SimReport;
use dynasore_topology::Tier;
use dynasore_types::{MachineId, Message, MessageClass, RackId};

const USERS: usize = 500;
const SEED: u64 = 97;

fn graph() -> SocialGraph {
    SocialGraph::generate(GraphPreset::FacebookLike, USERS, SEED).unwrap()
}

fn topology() -> Topology {
    Topology::tree(3, 2, 5, 1).unwrap()
}

fn run_once<E: PlacementEngine>(engine: E, graph: &SocialGraph, topology: &Topology) -> SimReport {
    let trace = SyntheticTraceGenerator::paper_defaults(graph, 2, SEED).unwrap();
    let mut sim = Simulation::new(topology.clone(), engine, graph);
    sim.run(trace).unwrap()
}

fn dynasore(graph: &SocialGraph, topology: &Topology) -> DynaSoReEngine {
    DynaSoReEngine::builder()
        .topology(topology.clone())
        .budget(MemoryBudget::with_extra_percent(USERS, 40))
        .initial_placement(InitialPlacement::Random { seed: SEED })
        .build(graph)
        .unwrap()
}

/// Two runs with the same seed must agree on every measured quantity, for
/// every engine kind — byte-identical reports, including the per-switch
/// traffic and its time series.
#[test]
fn same_seed_produces_identical_reports() {
    let graph = graph();
    let topology = topology();

    let runs: Vec<(SimReport, SimReport)> = vec![
        (
            run_once(dynasore(&graph, &topology), &graph, &topology),
            run_once(dynasore(&graph, &topology), &graph, &topology),
        ),
        (
            run_once(
                SparEngine::new(
                    &graph,
                    &topology,
                    MemoryBudget::with_extra_percent(USERS, 40),
                    SEED,
                )
                .unwrap(),
                &graph,
                &topology,
            ),
            run_once(
                SparEngine::new(
                    &graph,
                    &topology,
                    MemoryBudget::with_extra_percent(USERS, 40),
                    SEED,
                )
                .unwrap(),
                &graph,
                &topology,
            ),
        ),
        (
            run_once(
                StaticPlacement::random(&graph, &topology, SEED).unwrap(),
                &graph,
                &topology,
            ),
            run_once(
                StaticPlacement::random(&graph, &topology, SEED).unwrap(),
                &graph,
                &topology,
            ),
        ),
    ];
    for (a, b) in &runs {
        assert_eq!(a, b, "engine {} is not deterministic", a.engine_name());
        // Belt and braces: the debug rendering (which includes every field,
        // time series included) must match byte for byte.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

/// A failure schedule interleaved with the trace: machine m1 (a rack-0
/// server) crashes at hour 6 and returns at hour 18, with a drain and a
/// capacity addition later in the run.
fn failure_schedule() -> Vec<TimedClusterEvent> {
    vec![
        TimedClusterEvent {
            time: SimTime::from_hours(6),
            event: ClusterEvent::MachineDown {
                machine: MachineId::new(1),
            },
        },
        TimedClusterEvent {
            time: SimTime::from_hours(18),
            event: ClusterEvent::MachineUp {
                machine: MachineId::new(1),
            },
        },
        TimedClusterEvent {
            time: SimTime::from_hours(26),
            event: ClusterEvent::RackDown {
                rack: RackId::new(1),
            },
        },
        TimedClusterEvent {
            time: SimTime::from_hours(30),
            event: ClusterEvent::RackUp {
                rack: RackId::new(1),
            },
        },
        TimedClusterEvent {
            time: SimTime::from_hours(34),
            event: ClusterEvent::DrainMachine {
                machine: MachineId::new(2),
            },
        },
        TimedClusterEvent {
            time: SimTime::from_hours(40),
            event: ClusterEvent::AddRack,
        },
    ]
}

fn run_with_failures<E: PlacementEngine>(
    engine: E,
    graph: &SocialGraph,
    topology: &Topology,
) -> SimReport {
    let trace = SyntheticTraceGenerator::paper_defaults(graph, 2, SEED).unwrap();
    let mut sim =
        Simulation::new(topology.clone(), engine, graph).with_cluster_events(failure_schedule());
    sim.run(trace).unwrap()
}

/// A seeded simulation with a scheduled MachineDown/MachineUp pair (plus a
/// rack outage, a drain and a capacity addition) must be byte-identical
/// across runs for every engine kind, report nonzero recovery traffic, and
/// reach 100% eventual availability.
#[test]
fn failure_schedules_interleave_deterministically() {
    let graph = graph();
    let topology = topology();

    let runs: Vec<(SimReport, SimReport)> = vec![
        (
            run_with_failures(dynasore(&graph, &topology), &graph, &topology),
            run_with_failures(dynasore(&graph, &topology), &graph, &topology),
        ),
        (
            run_with_failures(
                SparEngine::new(
                    &graph,
                    &topology,
                    MemoryBudget::with_extra_percent(USERS, 40),
                    SEED,
                )
                .unwrap(),
                &graph,
                &topology,
            ),
            run_with_failures(
                SparEngine::new(
                    &graph,
                    &topology,
                    MemoryBudget::with_extra_percent(USERS, 40),
                    SEED,
                )
                .unwrap(),
                &graph,
                &topology,
            ),
        ),
        (
            run_with_failures(
                StaticPlacement::random(&graph, &topology, SEED).unwrap(),
                &graph,
                &topology,
            ),
            run_with_failures(
                StaticPlacement::random(&graph, &topology, SEED).unwrap(),
                &graph,
                &topology,
            ),
        ),
    ];
    for (a, b) in &runs {
        assert_eq!(
            a,
            b,
            "engine {} is not deterministic under failures",
            a.engine_name()
        );
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(
            a.recovery_messages() > 0,
            "engine {}: machine loss must cost recovery traffic",
            a.engine_name()
        );
        assert_eq!(
            a.availability(),
            1.0,
            "engine {}: every lost master must be recovered",
            a.engine_name()
        );
        assert_eq!(a.unreachable_reads(), 0, "engine {}", a.engine_name());
    }
}

/// Inline sink accounting must measure exactly what the old protocol did:
/// buffer every message in a `Vec`, then charge each non-local one to the
/// switches on its path. Replays the same trace manually and compares every
/// tier total and message count against `Simulation::run`.
#[test]
fn inline_accounting_matches_buffered_replay() {
    let graph = graph();
    let topology = topology();

    // Keep the trace within the first tick interval so the manual replay
    // does not need to reproduce the simulator's tick/mutation scheduling.
    let trace: Vec<_> = SyntheticTraceGenerator::paper_defaults(&graph, 1, SEED)
        .unwrap()
        .filter(|r| r.time.as_secs() < 3_600)
        .collect();
    assert!(!trace.is_empty());

    let report = Simulation::new(topology.clone(), dynasore(&graph, &topology), &graph)
        .run(trace.clone())
        .unwrap();

    // Manual replay with the Vec<Message> protocol.
    let mut engine = dynasore(&graph, &topology);
    let mut account = dynasore_topology::TrafficAccount::new(NetworkModel::infinite());
    let mut app = 0u64;
    let mut proto = 0u64;
    let mut sink: Vec<Message> = Vec::new();
    for request in &trace {
        sink.clear();
        if request.is_read() {
            let targets = graph.followees(request.user).to_vec();
            engine.handle_read(request.user, &targets, request.time, &mut sink);
        } else {
            engine.handle_write(request.user, request.time, &mut sink);
        }
        for message in &sink {
            match message.class {
                MessageClass::Application => app += 1,
                MessageClass::Protocol => proto += 1,
            }
            if message.is_local() {
                continue;
            }
            let path = topology.path_switches(message.from, message.to);
            account.record(&path, message.class, request.time);
        }
    }

    assert_eq!(report.total_application_messages(), app);
    assert_eq!(report.total_protocol_messages(), proto);
    for tier in Tier::all() {
        assert_eq!(
            report.traffic().tier_total(tier),
            account.tier_total(tier),
            "tier {tier} totals diverge"
        );
    }
    assert_eq!(report.traffic().grand_total(), account.grand_total());
    assert_eq!(report.traffic().message_count(), account.message_count());
}
