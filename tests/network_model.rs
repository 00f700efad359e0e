//! Property-based equivalence guard for the time-aware network model.
//!
//! The degenerate infinite-capacity [`NetworkModel`] must be *exactly* the
//! historical unit-count accounting: for every engine (DynaSoRe, SPAR,
//! static) and every seeded workload, a simulation configured with
//! `NetworkModel::infinite()` must produce a byte-identical [`SimReport`]
//! to one that never mentions the model, and both must match a manual
//! replay that buffers every message and charges a model-free
//! [`TrafficAccount`] afterwards. This is what lets every pre-existing
//! experiment (flash crowds, rack failures, drains, elastic growth) keep
//! its measured numbers while the latency machinery rides along.

use dynasore::prelude::*;
use dynasore_types::MessageClass;
use proptest::prelude::*;

const USERS: usize = 120;

fn graph(seed: u64) -> SocialGraph {
    SocialGraph::generate(GraphPreset::FacebookLike, USERS, seed).unwrap()
}

fn topology() -> Topology {
    Topology::tree(2, 2, 4, 1).unwrap()
}

fn engines(graph: &SocialGraph, topology: &Topology, seed: u64) -> Vec<Box<dyn PlacementEngine>> {
    vec![
        Box::new(
            DynaSoReEngine::builder()
                .topology(topology.clone())
                .budget(MemoryBudget::with_extra_percent(USERS, 40))
                .initial_placement(InitialPlacement::Random { seed })
                .build(graph)
                .unwrap(),
        ),
        Box::new(
            SparEngine::new(
                graph,
                topology,
                MemoryBudget::with_extra_percent(USERS, 40),
                seed,
            )
            .unwrap(),
        ),
        Box::new(StaticPlacement::random(graph, topology, seed).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Unit-count runs and explicit infinite-model runs are byte-identical
    /// for all three engines, and the infinite model never fabricates
    /// latency.
    #[test]
    fn infinite_model_reproduces_unit_count_reports(seed in 0u64..1_000) {
        let graph = graph(seed);
        let topology = topology();
        for (unit_engine, modelled_engine) in
            engines(&graph, &topology, seed).into_iter().zip(engines(&graph, &topology, seed))
        {
            let name = unit_engine.name().to_string();
            let trace = SyntheticTraceGenerator::paper_defaults(&graph, 1, seed).unwrap();
            let unit_report = Simulation::new(topology.clone(), unit_engine, &graph)
                .run(trace)
                .unwrap();
            let trace = SyntheticTraceGenerator::paper_defaults(&graph, 1, seed).unwrap();
            let modelled_report = Simulation::new(topology.clone(), modelled_engine, &graph)
                .with_network(NetworkModel::infinite())
                .run(trace)
                .unwrap();
            prop_assert_eq!(&unit_report, &modelled_report, "{} diverged", name.clone());
            // Belt and braces: the debug rendering (every field, series and
            // histogram included) matches byte for byte.
            prop_assert_eq!(format!("{unit_report:?}"), format!("{modelled_report:?}"));
            prop_assert_eq!(unit_report.read_latency_p99(), Latency::ZERO, "{}", name.clone());
            prop_assert_eq!(unit_report.latency().max_queue_delay, Latency::ZERO);
            prop_assert_eq!(unit_report.max_switch_backlog(), 0);
            prop_assert!(!unit_report.congestion_collapsed(), "{}", name);
        }
    }

    /// The infinite-model simulation measures exactly what the historical
    /// Vec<Message>-buffered protocol measured: replaying the trace by hand
    /// and charging a model-free account afterwards lands on the same tier
    /// totals, grand total and message counts, for all three engines.
    #[test]
    fn infinite_model_matches_buffered_unit_replay(seed in 0u64..1_000) {
        let graph = graph(seed);
        let topology = topology();
        // One tick-free hour of trace, so the manual replay does not need
        // to reproduce the simulator's tick scheduling.
        let trace: Vec<Request> = SyntheticTraceGenerator::paper_defaults(&graph, 1, seed)
            .unwrap()
            .filter(|r| r.time.as_secs() < 3_600)
            .collect();
        prop_assert!(!trace.is_empty(), "paper defaults always fill the first hour");
        for (sim_engine, mut replay_engine) in
            engines(&graph, &topology, seed).into_iter().zip(engines(&graph, &topology, seed))
        {
            let name = sim_engine.name().to_string();
            let report = Simulation::new(topology.clone(), sim_engine, &graph)
                .with_network(NetworkModel::infinite())
                .run(trace.clone())
                .unwrap();

            let mut account = TrafficAccount::new(NetworkModel::infinite());
            let mut messages: Vec<Message> = Vec::new();
            let (mut app, mut proto) = (0u64, 0u64);
            for request in &trace {
                messages.clear();
                if request.is_read() {
                    let targets = graph.followees(request.user).to_vec();
                    replay_engine.handle_read(request.user, &targets, request.time, &mut messages);
                } else {
                    replay_engine.handle_write(request.user, request.time, &mut messages);
                }
                for message in &messages {
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

            prop_assert_eq!(report.total_application_messages(), app, "{}", name.clone());
            prop_assert_eq!(report.total_protocol_messages(), proto, "{}", name.clone());
            for tier in Tier::all() {
                prop_assert_eq!(
                    report.traffic().tier_total(tier),
                    account.tier_total(tier),
                    "{}: tier {} totals diverge", name.clone(), tier
                );
            }
            prop_assert_eq!(report.traffic().grand_total(), account.grand_total());
            prop_assert_eq!(report.traffic().message_count(), account.message_count());
        }
    }
}

/// A finite model changes *when* messages get through, never *what* crosses
/// a switch — as long as the engine does not act on congestion feedback.
/// SPAR and static placement ignore the signal entirely. DynaSoRe charges a
/// candidate rack 500 profit units per second of queueing, truncated to
/// whole units, so a fabric whose queues stay under 2 ms leaves every
/// decision alone and the unit totals match; over a congested fabric its
/// placement legitimately diverges (that divergence *is* congestion-aware
/// placement). All timed runs gain nonzero percentiles.
#[test]
fn finite_model_keeps_unit_totals_and_adds_latency() {
    let seed = 42;
    let graph = graph(seed);
    let topology = topology();
    let congested = NetworkModel {
        top_service: Bandwidth::units_per_sec(5_000),
        intermediate_service: Bandwidth::units_per_sec(2_000),
        rack_service: Bandwidth::units_per_sec(1_000),
        hop_latency: Latency::from_micros(5),
        collapse_threshold: Latency::from_secs(1),
    };
    // One unit per nanosecond everywhere: even a maintenance tick's burst
    // of protocol messages clears a switch in well under a millisecond.
    let fast = NetworkModel {
        top_service: Bandwidth::units_per_sec(1_000_000_000),
        intermediate_service: Bandwidth::units_per_sec(1_000_000_000),
        rack_service: Bandwidth::units_per_sec(1_000_000_000),
        ..congested
    };
    let pairs = engines(&graph, &topology, seed)
        .into_iter()
        .zip(engines(&graph, &topology, seed));
    for (i, (unit_engine, timed_engine)) in pairs.enumerate() {
        let name = unit_engine.name().to_string();
        let model = if i == 0 { fast } else { congested };
        let trace = SyntheticTraceGenerator::paper_defaults(&graph, 1, seed).unwrap();
        let unit_report = Simulation::new(topology.clone(), unit_engine, &graph)
            .run(trace)
            .unwrap();
        let trace = SyntheticTraceGenerator::paper_defaults(&graph, 1, seed).unwrap();
        let timed_report = Simulation::new(topology.clone(), timed_engine, &graph)
            .with_network(model)
            .run(trace)
            .unwrap();
        if i == 0 {
            assert!(
                timed_report.latency().max_queue_delay < Latency::from_millis(2),
                "{name}: the fast fabric must stay below one penalty unit"
            );
        }
        assert_eq!(
            unit_report.traffic().grand_total(),
            timed_report.traffic().grand_total(),
            "{name}: the time model must not change unit totals"
        );
        assert!(
            timed_report.read_latency_p50() > Latency::ZERO,
            "{name}: reads over finite switches must take time"
        );
        assert!(timed_report.read_latency_p99() >= timed_report.read_latency_p95());
        assert!(timed_report.read_latency_p95() >= timed_report.read_latency_p50());
    }

    // Over the congested fabric, congestion feedback is allowed to steer
    // DynaSoRe's placement — the run stays deterministic but may spend
    // traffic differently. Pin only that it executes and measures.
    let trace = SyntheticTraceGenerator::paper_defaults(&graph, 1, seed).unwrap();
    let feedback_report = Simulation::new(
        topology.clone(),
        engines(&graph, &topology, seed).remove(0),
        &graph,
    )
    .with_network(congested)
    .run(trace)
    .unwrap();
    assert!(feedback_report.read_latency_p50() > Latency::ZERO);
}
