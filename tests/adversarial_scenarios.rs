//! Adversarial-scenario integration: the scripted scenario engine is
//! seed-deterministic end to end, a rack can be decommissioned (and the
//! cluster re-grown) mid-run without losing a single view, a removal
//! landing mid-drain stays graceful, and every write acknowledged before an
//! elastic shrink survives a cold reopen of the sharded durable tier.

use std::collections::BTreeMap;

use dynasore::prelude::*;
use dynasore::sim::SIM_EVENT_BYTES;
use dynasore::types::{MachineId, RackId};

const USERS: usize = 500;
const SEED: u64 = 19;

fn graph() -> SocialGraph {
    SocialGraph::generate(GraphPreset::FacebookLike, USERS, SEED).unwrap()
}

fn topology() -> Topology {
    Topology::tree(3, 2, 4, 1).unwrap() // 6 racks, 18 servers, 6 brokers.
}

fn dynasore(graph: &SocialGraph, topology: &Topology) -> DynaSoReEngine {
    DynaSoReEngine::builder()
        .topology(topology.clone())
        .budget(MemoryBudget::with_extra_percent(USERS, 50))
        .initial_placement(InitialPlacement::Random { seed: SEED })
        .build(graph)
        .unwrap()
}

fn runner() -> ScenarioRunner {
    ScenarioRunner::new(
        ScenarioConfig {
            seed: SEED,
            days: 1,
        },
        NetworkModel::infinite(),
    )
}

/// The full scenario pipeline — script expansion, simulation, degradation
/// scoring — is a pure function of the seed: two runs of the same scenario
/// produce identical [`DegradationReport`]s, embedded [`SimReport`]
/// included.
#[test]
fn scenario_runs_are_seed_deterministic() {
    let graph = graph();
    let topology = topology();
    let runner = runner();
    for kind in [
        ScenarioKind::HotKeyFlood,
        ScenarioKind::DecommissionUnderLoad,
    ] {
        let run = || {
            let quiet = runner
                .quiet_baseline(topology.clone(), &graph, dynasore(&graph, &topology))
                .unwrap();
            runner
                .run(
                    kind,
                    topology.clone(),
                    &graph,
                    dynasore(&graph, &topology),
                    &quiet,
                    None,
                    None,
                )
                .unwrap()
                .0
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "{} must be seed-deterministic", kind.name());
        assert!(a.report.read_count() > 0);
        assert!(a.availability > 0.0);
    }
}

/// Elastic shrink then re-growth: decommission the last rack mid-run, add a
/// fresh rack later. The retired rack never rejoins (dense indices are
/// kept, the liveness mask does the retiring), the new rack extends the
/// index space, no view is ever lost, and the whole schedule replays
/// byte-identically under the same seed.
#[test]
fn remove_then_re_add_is_deterministic_and_lossless() {
    let graph = graph();
    let topology = topology();
    let doomed = RackId::new((topology.rack_count() - 1) as u32);
    let schedule = vec![
        TimedClusterEvent {
            time: SimTime::from_hours(6),
            event: ClusterEvent::RemoveRack { rack: doomed },
        },
        TimedClusterEvent {
            time: SimTime::from_hours(12),
            event: ClusterEvent::AddRack,
        },
    ];
    let run = || {
        let trace = SyntheticTraceGenerator::paper_defaults(&graph, 1, SEED).unwrap();
        let mut sim = Simulation::new(topology.clone(), dynasore(&graph, &topology), &graph)
            .with_cluster_events(schedule.clone());
        let report = sim.run(trace).unwrap();
        let after = sim.topology().clone();
        (report, after)
    };
    let (report, after) = run();
    assert_eq!(report.availability(), 1.0, "shrink must not lose any view");
    assert_eq!(report.unreachable_reads(), 0);
    assert!(after.is_rack_retired(doomed));
    // Dense indices survive: the retired rack keeps its slot, the new rack
    // extends the index space, and one rack's worth of capacity is back.
    assert_eq!(after.rack_count(), topology.rack_count() + 1);
    assert_eq!(after.active_rack_count(), topology.rack_count());
    // Byte-identical replay.
    let (report_b, _) = run();
    assert_eq!(report, report_b);
}

/// A decommission landing *mid-drain*: one of the rack's servers is already
/// draining when the whole rack is removed. Both steps are graceful
/// (machine-to-machine evacuation), so the composition costs no
/// persistent-tier recovery and loses nothing.
#[test]
fn remove_rack_mid_drain_stays_graceful() {
    let graph = graph();
    let topology = topology();
    let doomed = RackId::new((topology.rack_count() - 1) as u32);
    let draining: MachineId = topology
        .servers()
        .iter()
        .map(|s| s.machine())
        .find(|&m| topology.rack_of(m).unwrap() == doomed)
        .unwrap();
    let schedule = vec![
        TimedClusterEvent {
            time: SimTime::from_hours(6),
            event: ClusterEvent::DrainMachine { machine: draining },
        },
        TimedClusterEvent {
            time: SimTime::from_hours(8),
            event: ClusterEvent::RemoveRack { rack: doomed },
        },
    ];
    let trace = SyntheticTraceGenerator::paper_defaults(&graph, 1, SEED).unwrap();
    let mut sim = Simulation::new(topology.clone(), dynasore(&graph, &topology), &graph)
        .with_cluster_events(schedule);
    let report = sim.run(trace).unwrap();
    assert_eq!(report.availability(), 1.0);
    assert_eq!(report.unreachable_reads(), 0);
    assert_eq!(
        report.recovery_messages(),
        0,
        "drain + decommission is a graceful ladder: no persistent-tier recovery"
    );
    assert!(sim.topology().is_rack_retired(doomed));
}

/// The acceptance gate for elastic shrink: run the decommission-under-load
/// scenario with the *sharded* durable tier attached, then cold-reopen the
/// on-disk shards and fetch every user who wrote during the run — the set
/// of acknowledged-durable views is a superset of everything evacuated off
/// the removed rack, so zero of them may be missing and each must carry its
/// last acknowledged payload.
#[test]
fn decommission_under_load_survives_a_cold_sharded_reopen() {
    let graph = graph();
    let topology = topology();
    let runner = runner();
    let dir = std::env::temp_dir().join(format!(
        "dynasore-adversarial-shrink-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let shards = ShardedConfig {
        shards: 4,
        ..ShardedConfig::default()
    };
    let tier = SimDurableTier::open(&dir, shards.shards).unwrap();

    let quiet = runner
        .quiet_baseline(topology.clone(), &graph, dynasore(&graph, &topology))
        .unwrap();
    let (cell, _) = runner
        .run(
            ScenarioKind::DecommissionUnderLoad,
            topology.clone(),
            &graph,
            dynasore(&graph, &topology),
            &quiet,
            Some(tier),
            None,
        )
        .unwrap();
    assert_eq!(
        cell.availability, 1.0,
        "a graceful decommission must not lose any view"
    );
    assert_eq!(
        cell.report.durable_io().unwrap().appends,
        cell.report.write_count()
    );

    // The same script the runner expanded: every writer and her last
    // acknowledged write time (the trace is time-sorted, so the last insert
    // wins).
    let script = ScenarioKind::DecommissionUnderLoad
        .script(&graph, &topology, &runner.scenario)
        .unwrap();
    let mut last_write: BTreeMap<UserId, SimTime> = BTreeMap::new();
    for request in &script.trace {
        if !request.is_read() {
            last_write.insert(request.user, request.time);
        }
    }
    assert!(!last_write.is_empty());

    // Cold reopen: the tier was dropped when the run finished, so this
    // replays the shard files from disk exactly as a restart would.
    let reopened = ShardedLogStore::open(&dir, shards).unwrap();
    assert_eq!(reopened.user_count(), last_write.len());
    for (&user, &time) in &last_write {
        let view = reopened.fetch(user).unwrap();
        let latest = view
            .latest()
            .unwrap_or_else(|| panic!("user {user} lost across the shrink"));
        let fill = (user.index() as u8).wrapping_add(time.as_secs() as u8);
        assert_eq!(latest.payload().len(), SIM_EVENT_BYTES);
        assert!(
            latest.payload().iter().all(|&b| b == fill),
            "user {user}: stale payload after cold reopen"
        );
    }
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}
