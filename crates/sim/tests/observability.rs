//! Observability contract tests: observation must be passive (a report from
//! an observed run is identical to an unobserved one for every engine and
//! every outage schedule), deterministic (same seed, same timeline), and
//! complete (a decommission traces its whole evacuation sequence).

use dynasore_baselines::{SparEngine, StaticPlacement};
use dynasore_core::{DynaSoReEngine, InitialPlacement};
use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_sim::{
    ScenarioConfig, ScenarioKind, ScenarioRunner, SimDurableTier, SimObs, SIM_EVENT_BYTES,
};
use dynasore_topology::Topology;
use dynasore_types::{
    ClusterEvent, MemoryBudget, MetricId, NetworkModel, PlacementEngine, ReplicaChangeReason,
    SimTime, TraceEventKind, NANOS_PER_SEC,
};

const ENGINES: [&str; 3] = ["dynasore", "spar", "static-random"];
const USERS: usize = 150;
const SEED: u64 = 11;

fn graph() -> SocialGraph {
    SocialGraph::generate(GraphPreset::FacebookLike, USERS, SEED).expect("graph")
}

fn topology() -> Topology {
    Topology::tree(2, 2, 4, 1).expect("topology")
}

fn runner() -> ScenarioRunner {
    ScenarioRunner::new(
        ScenarioConfig {
            seed: SEED,
            days: 1,
        },
        NetworkModel::datacenter(),
    )
}

fn build_engine(name: &str, graph: &SocialGraph, topology: &Topology) -> Box<dyn PlacementEngine> {
    let budget = MemoryBudget::with_extra_percent(USERS, 30);
    match name {
        "dynasore" => Box::new(
            DynaSoReEngine::builder()
                .topology(topology.clone())
                .budget(budget)
                .initial_placement(InitialPlacement::Random { seed: SEED })
                .build(graph)
                .expect("dynasore engine"),
        ),
        "spar" => Box::new(SparEngine::new(graph, topology, budget, SEED).expect("spar engine")),
        "static-random" => {
            Box::new(StaticPlacement::random(graph, topology, SEED).expect("static engine"))
        }
        other => panic!("unknown engine {other}"),
    }
}

/// Satellite (a): attaching the observer changes nothing the simulation
/// measures — the `DegradationReport` (including the embedded `SimReport`)
/// is equal for every engine under every outage schedule.
#[test]
fn observed_reports_equal_unobserved_for_every_engine_and_scenario() {
    let graph = graph();
    let topology = topology();
    let runner = runner();
    for engine_name in ENGINES {
        let quiet = runner
            .quiet_baseline(
                topology.clone(),
                &graph,
                build_engine(engine_name, &graph, &topology),
            )
            .expect("quiet baseline");
        for kind in ScenarioKind::ALL {
            let (plain, none) = runner
                .run(
                    kind,
                    topology.clone(),
                    &graph,
                    build_engine(engine_name, &graph, &topology),
                    &quiet,
                    None,
                    None,
                )
                .expect("unobserved run");
            assert!(none.is_none(), "an unobserved run returns no observer");
            let (observed, obs) = runner
                .run(
                    kind,
                    topology.clone(),
                    &graph,
                    build_engine(engine_name, &graph, &topology),
                    &quiet,
                    None,
                    Some(SimObs::default()),
                )
                .expect("observed run");
            let obs = obs.expect("observer round-trips");
            assert_eq!(
                plain,
                observed,
                "{engine_name} x {} degradation report diverged under observation",
                kind.name()
            );
            assert!(
                !obs.recorder().is_empty(),
                "{engine_name} x {} recorded no events",
                kind.name()
            );
            assert!(
                obs.registry().get(MetricId::TickSamples) > 0,
                "{engine_name} x {} took no tick samples",
                kind.name()
            );
        }
    }
}

/// Satellite (c): the timeline is a pure function of the seed — two
/// observed runs of the same scenario produce byte-identical JSONL and
/// metrics.
#[test]
fn same_seed_runs_record_identical_timelines() {
    let graph = graph();
    let topology = topology();
    let runner = runner();
    let run_once = || {
        let quiet = runner
            .quiet_baseline(
                topology.clone(),
                &graph,
                build_engine("dynasore", &graph, &topology),
            )
            .expect("quiet baseline");
        let (_, obs) = runner
            .run(
                ScenarioKind::RegionalFailure,
                topology.clone(),
                &graph,
                build_engine("dynasore", &graph, &topology),
                &quiet,
                None,
                Some(SimObs::default()),
            )
            .expect("observed run");
        obs.expect("observer round-trips")
    };
    let a = run_once();
    let b = run_once();
    assert!(!a.recorder().is_empty(), "timeline is empty");
    assert_eq!(a.to_jsonl(), b.to_jsonl(), "timelines diverged across runs");
    assert_eq!(
        a.render_prometheus(),
        b.render_prometheus(),
        "metrics diverged across runs"
    );
}

/// Satellite (c): a `RemoveRack` landing mid-run traces the complete
/// evacuation sequence — the cluster-change event first, every
/// evacuation-reason replica change strictly after it.
#[test]
fn decommission_traces_the_full_evacuation_sequence() {
    let graph = graph();
    let topology = topology();
    let runner = runner();
    let quiet = runner
        .quiet_baseline(
            topology.clone(),
            &graph,
            build_engine("dynasore", &graph, &topology),
        )
        .expect("quiet baseline");
    let (_, obs) = runner
        .run(
            ScenarioKind::DecommissionUnderLoad,
            topology.clone(),
            &graph,
            build_engine("dynasore", &graph, &topology),
            &quiet,
            None,
            Some(SimObs::default()),
        )
        .expect("observed run");
    let obs = obs.expect("observer round-trips");

    let events: Vec<_> = obs.recorder().iter().cloned().collect();
    let remove_idx = events
        .iter()
        .position(|e| {
            matches!(
                e.kind,
                TraceEventKind::ClusterChange {
                    event: ClusterEvent::RemoveRack { .. }
                }
            )
        })
        .expect("remove-rack cluster change missing from the timeline");
    let is_evacuation = |kind: &TraceEventKind| {
        matches!(
            kind,
            TraceEventKind::ReplicaCreated {
                reason: ReplicaChangeReason::Evacuation,
                ..
            } | TraceEventKind::ReplicaDropped {
                reason: ReplicaChangeReason::Evacuation,
                ..
            } | TraceEventKind::ReplicaMoved {
                reason: ReplicaChangeReason::Evacuation,
                ..
            }
        )
    };
    let before = events[..remove_idx]
        .iter()
        .filter(|e| is_evacuation(&e.kind))
        .count();
    let after = events[remove_idx..]
        .iter()
        .filter(|e| is_evacuation(&e.kind))
        .count();
    assert_eq!(before, 0, "evacuations traced before the rack was removed");
    assert!(after > 0, "rack removal traced no evacuation events");
    assert!(
        obs.registry().get(MetricId::ClusterEvents) >= 1,
        "cluster-change counter never incremented"
    );
    // The JSONL rendering of the same timeline round-trips the lint.
    let jsonl = obs.to_jsonl();
    assert_eq!(
        dynasore_types::validate_jsonl(&jsonl).expect("timeline JSONL is valid"),
        events.len()
    );
    assert!(jsonl.contains("\"event\":\"remove-rack"));
    assert!(jsonl.contains("\"reason\":\"evacuation\""));
}

/// With a 4-shard durable tier attached, observation stays passive and every
/// tick samples each shard's lag exactly once: summed over the shards, the
/// lag is the bytes of every write mirrored since the last recovery replay
/// (which syncs the tier), so a tick can be read off the trace alone. The
/// decommission is graceful and never replays; the regional failure loses
/// masters, so its replays reset the lag mid-run.
#[test]
fn observed_durable_tier_samples_every_shards_lag_at_every_tick() {
    const SHARDS: usize = 4;
    let graph = graph();
    let topology = topology();
    let runner = runner();
    let quiet = runner
        .quiet_baseline(
            topology.clone(),
            &graph,
            build_engine("dynasore", &graph, &topology),
        )
        .expect("quiet baseline");
    let base = std::env::temp_dir().join(format!("dynasore-obs-lag-{}", std::process::id()));
    let run = |kind: ScenarioKind, obs: Option<SimObs>| {
        let dir = base.join(if obs.is_some() { "observed" } else { "plain" });
        let tier = SimDurableTier::open(&dir, SHARDS).expect("open durable tier");
        let result = runner
            .run(
                kind,
                topology.clone(),
                &graph,
                build_engine("dynasore", &graph, &topology),
                &quiet,
                Some(tier),
                obs,
            )
            .expect("scenario run");
        std::fs::remove_dir_all(&dir).expect("remove tier directory");
        result
    };
    let mut replays = [0; 2];
    for (kind, replays) in [
        ScenarioKind::DecommissionUnderLoad,
        ScenarioKind::RegionalFailure,
    ]
    .into_iter()
    .zip(&mut replays)
    {
        let (plain, _) = run(kind, None);
        let (observed, obs) = run(kind, Some(SimObs::default()));
        assert_eq!(
            plain,
            observed,
            "{}: lag sampling changed the run",
            kind.name()
        );
        let obs = obs.expect("observer round-trips");
        assert_eq!(obs.recorder().dropped(), 0, "the timeline must be whole");

        // Writes strictly before `t_ns`: an event or tick due at `t` is
        // handled before the first request at or after `t`, so these are
        // exactly the writes the tier had mirrored when it fired.
        let script = kind
            .script(&graph, &topology, &runner.scenario)
            .expect("script");
        let writes_before = |t_ns: u64| {
            let t = SimTime::from_secs(t_ns / NANOS_PER_SEC);
            script
                .trace
                .iter()
                .filter(|r| !r.is_read() && r.time < t)
                .count() as u64
        };

        // Walk the timeline in recording order, one group of lag samples
        // per tick; a replay syncs the tier, so the expected lag restarts.
        let mut synced_writes = 0u64;
        let mut ticks: Vec<(u64, Vec<(u32, u64)>)> = Vec::new();
        for event in obs.recorder().iter() {
            match event.kind {
                TraceEventKind::ReplayCompleted { .. } => {
                    *replays += 1;
                    synced_writes = writes_before(event.t_ns);
                }
                TraceEventKind::TickSample { .. } => {
                    let unsynced = writes_before(event.t_ns) - synced_writes;
                    ticks.push((unsynced * SIM_EVENT_BYTES as u64, Vec::new()));
                }
                TraceEventKind::ShardLag { shard, lag_bytes } => ticks
                    .last_mut()
                    .expect("shard lag sampled outside a tick")
                    .1
                    .push((shard, lag_bytes)),
                _ => {}
            }
        }
        // Every replay syncs the tier first, and the run's shutdown syncs
        // it once more.
        assert_eq!(
            obs.registry().get(MetricId::DurableSyncs),
            *replays + 1,
            "{}: durable syncs are not the replays plus the shutdown sync",
            kind.name()
        );
        assert!(
            ticks.iter().any(|(lag, _)| *lag > 0),
            "{}: no tick saw an unsynced write",
            kind.name()
        );
        for (tick, (expected, lags)) in ticks.iter().enumerate() {
            let shards: Vec<u32> = lags.iter().map(|&(shard, _)| shard).collect();
            assert_eq!(shards, [0, 1, 2, 3], "tick {tick}: one sample per shard");
            let total: u64 = lags.iter().map(|&(_, lag)| lag).sum();
            assert_eq!(
                total, *expected,
                "tick {tick}: lag is not the unsynced writes"
            );
        }
    }
    std::fs::remove_dir_all(&base).expect("remove tier root");
    assert_eq!(replays[0], 0, "a graceful decommission replays nothing");
    assert!(replays[1] > 0, "the regional failure triggered no replay");
}
