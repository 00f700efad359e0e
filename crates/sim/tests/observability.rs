//! Observability contract tests: observation must be passive (a report from
//! an observed run is identical to an unobserved one for every engine and
//! every outage schedule), deterministic (same seed, same timeline), and
//! complete (a decommission traces its whole evacuation sequence).

use dynasore_baselines::{SparEngine, StaticPlacement};
use dynasore_core::{DynaSoReEngine, InitialPlacement};
use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_sim::{ScenarioConfig, ScenarioKind, ScenarioRunner, SimObs};
use dynasore_topology::Topology;
use dynasore_types::{
    ClusterEvent, MemoryBudget, MetricId, NetworkModel, PlacementEngine, ReplicaChangeReason,
    TraceEventKind,
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
            let plain = runner
                .run(
                    kind,
                    topology.clone(),
                    &graph,
                    build_engine(engine_name, &graph, &topology),
                    &quiet,
                    None,
                )
                .expect("unobserved run");
            let (observed, obs) = runner
                .run_observed(
                    kind,
                    topology.clone(),
                    &graph,
                    build_engine(engine_name, &graph, &topology),
                    &quiet,
                    None,
                    SimObs::default(),
                )
                .expect("observed run");
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
            .run_observed(
                ScenarioKind::RegionalFailure,
                topology.clone(),
                &graph,
                build_engine("dynasore", &graph, &topology),
                &quiet,
                None,
                SimObs::default(),
            )
            .expect("observed run");
        obs
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
        .run_observed(
            ScenarioKind::DecommissionUnderLoad,
            topology.clone(),
            &graph,
            build_engine("dynasore", &graph, &topology),
            &quiet,
            None,
            SimObs::default(),
        )
        .expect("observed run");

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
