//! Fault-injection scenarios across every engine and the live store: the
//! cluster-dynamics subsystem must survive machine and rack failures with
//! full eventual availability, pay for lost masters with persistent-tier
//! recovery traffic, drain machines without touching the durable store, and
//! absorb capacity added under load.

use dynasore::prelude::*;
use dynasore::types::{MachineId, RackId};
use dynasore_baselines::{SparEngine, StaticPlacement};

const USERS: usize = 600;
const SEED: u64 = 23;

fn graph() -> SocialGraph {
    SocialGraph::generate(GraphPreset::FacebookLike, USERS, SEED).unwrap()
}

fn topology() -> Topology {
    Topology::tree(3, 2, 5, 1).unwrap() // 6 racks, 24 servers, 6 brokers.
}

fn dynasore(graph: &SocialGraph, topology: &Topology) -> DynaSoReEngine {
    DynaSoReEngine::builder()
        .topology(topology.clone())
        .budget(MemoryBudget::with_extra_percent(USERS, 50))
        .initial_placement(InitialPlacement::Random { seed: SEED })
        .build(graph)
        .unwrap()
}

fn outage_schedule() -> Vec<TimedClusterEvent> {
    vec![
        TimedClusterEvent {
            time: SimTime::from_hours(4),
            event: ClusterEvent::RackDown {
                rack: RackId::new(0),
            },
        },
        TimedClusterEvent {
            time: SimTime::from_hours(16),
            event: ClusterEvent::RackUp {
                rack: RackId::new(0),
            },
        },
    ]
}

/// Every engine survives a scheduled rack outage with 100% availability and
/// (for the engines that lose masters) nonzero recovery traffic.
#[test]
fn all_engines_survive_a_rack_outage() {
    let graph = graph();
    let topology = topology();
    let engines: Vec<Box<dyn PlacementEngine>> = vec![
        Box::new(dynasore(&graph, &topology)),
        Box::new(
            SparEngine::new(
                &graph,
                &topology,
                MemoryBudget::with_extra_percent(USERS, 50),
                SEED,
            )
            .unwrap(),
        ),
        Box::new(StaticPlacement::random(&graph, &topology, SEED).unwrap()),
    ];
    for engine in engines {
        let name = engine.name().to_string();
        let trace = SyntheticTraceGenerator::paper_defaults(&graph, 1, SEED).unwrap();
        let mut sim = Simulation::new(topology.clone(), engine, &graph)
            .with_cluster_events(outage_schedule());
        let report = sim.run(trace).unwrap();
        assert_eq!(
            report.availability(),
            1.0,
            "{name}: a rack outage must not lose any view for good"
        );
        assert_eq!(report.unreachable_reads(), 0, "{name}");
        assert!(
            report.recovery_messages() > 0,
            "{name}: re-creating lost masters must cost persistent-tier traffic"
        );
    }
}

/// A flash event *during* a rack outage: the two failure axes compose. The
/// suddenly popular view must still gain replicas while part of the cluster
/// is dark.
#[test]
fn flash_event_during_an_outage_still_replicates() {
    let graph = graph();
    let topology = topology();
    let engine = dynasore(&graph, &topology);
    let celebrity = UserId::new(7);
    let flash = FlashEventPlan::random(
        &graph,
        celebrity,
        80,
        SimTime::from_hours(6),
        SimTime::from_hours(20),
        SEED,
    )
    .unwrap();
    let trace = SyntheticTraceGenerator::paper_defaults(&graph, 1, SEED).unwrap();
    let mut sim = Simulation::new(topology, engine, &graph)
        .with_mutations(flash.mutations())
        .with_cluster_events(outage_schedule());
    let mut peak_replicas = 0usize;
    let report = sim
        .run_with_probe(trace, 3_600, |_, engine, _| {
            peak_replicas = peak_replicas.max(engine.replica_count(celebrity));
        })
        .unwrap();
    assert_eq!(report.availability(), 1.0);
    assert!(
        peak_replicas >= 2,
        "the hot view should gain replicas despite the outage (peak {peak_replicas})"
    );
}

/// A rolling restart: drain every server of a rack one by one (no recovery
/// traffic), bring the rack back, then crash a machine of another rack (which
/// does cost recovery traffic). Capacity accounting follows along.
#[test]
fn rolling_drain_then_crash() {
    let graph = graph();
    let topology = topology();
    let mut engine = dynasore(&graph, &topology);
    let mut out: Vec<Message> = Vec::new();

    // Warm the placement so drains actually move state.
    for u in 0..USERS as u32 {
        let user = UserId::new(u);
        let targets = graph.followees(user).to_vec();
        engine.handle_read(user, &targets, SimTime::from_secs(u as u64), &mut out);
        out.clear();
    }

    let healthy_capacity = engine.memory_usage().capacity_slots;
    let rack0: Vec<MachineId> = topology
        .servers()
        .iter()
        .map(|s| s.machine())
        .filter(|&m| topology.rack_of(m).unwrap() == RackId::new(0))
        .collect();
    for &machine in &rack0 {
        engine
            .on_cluster_change(ClusterEvent::DrainMachine { machine }, &mut out)
            .unwrap();
    }
    assert!(
        out.iter().all(|m| !m.involves_persistent()),
        "rolling drains must never touch the persistent tier"
    );
    assert!(engine.memory_usage().capacity_slots < healthy_capacity);
    for user in graph.users() {
        assert!(engine.replica_count(user) >= 1);
    }

    for &machine in &rack0 {
        engine
            .on_cluster_change(ClusterEvent::MachineUp { machine }, &mut out)
            .unwrap();
    }
    assert_eq!(engine.memory_usage().capacity_slots, healthy_capacity);

    out.clear();
    let victim = topology.servers()[20].machine(); // a rack-5 server
    engine
        .on_cluster_change(ClusterEvent::MachineDown { machine: victim }, &mut out)
        .unwrap();
    for user in graph.users() {
        assert!(engine.replica_count(user) >= 1);
    }
    assert_eq!(engine.unreachable_reads(), 0);
}

/// The optional file-backed recovery path: the same rack-outage simulation,
/// with a one-shard file-backed durable tier attached. Every write is
/// mirrored to disk and each recovery replays the log from real bytes, so the
/// report measures actual recovery I/O next to the message counts — and
/// stays deterministic across runs.
#[test]
fn simulated_outage_replays_real_bytes_with_a_file_backed_tier() {
    let graph = graph();
    let topology = topology();

    let run = |tag: &str| {
        let dir =
            std::env::temp_dir().join(format!("dynasore-faults-tier-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tier = SimDurableTier::open(&dir, 1).unwrap();
        let engine = dynasore(&graph, &topology);
        let trace = SyntheticTraceGenerator::paper_defaults(&graph, 1, SEED).unwrap();
        let mut sim = Simulation::new(topology.clone(), engine, &graph)
            .with_cluster_events(outage_schedule())
            .with_durable_tier(tier);
        let report = sim.run(trace).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        report
    };

    let report = run("a");
    let io = report.durable_io().expect("durable tier was attached");
    assert_eq!(io.appends, report.write_count());
    assert!(io.replays >= 1, "the rack outage must trigger a replay");
    assert!(io.bytes_replayed > 0, "recovery must read real bytes");
    assert_eq!(report.availability(), 1.0);
    assert!(report.recovery_messages() > 0);

    // Byte-deterministic: a second run over a fresh directory produces the
    // identical report, durable I/O included.
    let report_b = run("b");
    assert_eq!(report, report_b);

    // And the tier-less run of the same schedule is unaffected: no durable
    // section, same traffic as before the feature existed.
    let engine = dynasore(&graph, &topology);
    let trace = SyntheticTraceGenerator::paper_defaults(&graph, 1, SEED).unwrap();
    let mut sim =
        Simulation::new(topology.clone(), engine, &graph).with_cluster_events(outage_schedule());
    let plain = sim.run(trace).unwrap();
    assert!(plain.durable_io().is_none());
    assert_eq!(
        plain.traffic().grand_total(),
        report.traffic().grand_total()
    );
}

/// The same outage simulation over the *sharded* durable tier: recovery
/// replays all shards, the report carries the parallel-recovery critical
/// path (the slowest shard's bytes), and the whole thing stays
/// byte-deterministic — the wall-clock flusher is forced off inside
/// `SimDurableTier::open`, so batch boundaries depend only on the
/// trace.
#[test]
fn simulated_outage_over_a_sharded_tier_reports_the_critical_path() {
    let graph = graph();
    let topology = topology();

    let run = |tag: &str| {
        let dir = std::env::temp_dir().join(format!(
            "dynasore-faults-sharded-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let tier = SimDurableTier::open(&dir, 4).unwrap();
        let engine = dynasore(&graph, &topology);
        let trace = SyntheticTraceGenerator::paper_defaults(&graph, 1, SEED).unwrap();
        let mut sim = Simulation::new(topology.clone(), engine, &graph)
            .with_cluster_events(outage_schedule())
            .with_durable_tier(tier);
        let report = sim.run(trace).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        report
    };

    let report = run("a");
    let io = report.durable_io().expect("durable tier was attached");
    assert_eq!(io.appends, report.write_count());
    assert_eq!(io.tier_shards, 4);
    assert!(io.replays >= 1, "the rack outage must trigger a replay");
    assert!(io.bytes_replayed > 0, "recovery must read real bytes");
    assert!(
        io.critical_path_bytes > 0 && io.critical_path_bytes <= io.bytes_replayed,
        "the critical path is the max shard, bounded by the total \
         (critical {} vs total {})",
        io.critical_path_bytes,
        io.bytes_replayed
    );
    // With 600 users spread over 4 shards, no shard holds everything: the
    // parallel replay bound is strictly better than the serial one.
    assert!(
        io.critical_path_bytes < io.bytes_replayed,
        "4 shards must split the replay work"
    );
    assert_eq!(report.availability(), 1.0);

    // Byte-deterministic, shards included.
    let report_b = run("b");
    assert_eq!(report, report_b);
}

/// Capacity doubling mid-run: schedule AddRack events inside a simulation
/// and verify the run completes with the grown cluster accounted for.
#[test]
fn capacity_grows_mid_run() {
    let graph = graph();
    let topology = topology();
    let engine = dynasore(&graph, &topology);
    let before_racks = topology.rack_count();
    let growth: Vec<TimedClusterEvent> = (0..3)
        .map(|i| TimedClusterEvent {
            time: SimTime::from_hours(6 + i),
            event: ClusterEvent::AddRack,
        })
        .collect();
    let trace = SyntheticTraceGenerator::paper_defaults(&graph, 1, SEED).unwrap();
    let mut sim = Simulation::new(topology, engine, &graph).with_cluster_events(growth);
    let report = sim.run(trace).unwrap();
    assert_eq!(sim.topology().rack_count(), before_racks + 3);
    assert_eq!(report.availability(), 1.0);
    assert_eq!(report.recovery_messages(), 0);
    // The grown cluster's memory is visible in the report.
    let slots_per_rack = report.memory_usage().capacity_slots / (before_racks + 3);
    assert!(slots_per_rack > 0);
}
