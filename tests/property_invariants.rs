//! Property-based tests of the core invariants, using `proptest`.
//!
//! These cover the guarantees the paper relies on implicitly:
//! * the partitioner always produces a balanced, complete assignment;
//! * the topology's distances and switch paths agree and behave like a tree
//!   metric;
//! * trace generators produce time-ordered requests over valid users;
//! * after any request sequence, DynaSoRe never loses a view and never
//!   exceeds any server's capacity.

use dynasore::prelude::*;
use proptest::prelude::*;

/// A small deterministic graph family driven by proptest inputs.
fn arbitrary_graph(users: usize, edges: &[(u32, u32)]) -> SocialGraph {
    let mut g = SocialGraph::new(users);
    for &(a, b) in edges {
        let u = UserId::new(a % users as u32);
        let v = UserId::new(b % users as u32);
        let _ = g.try_add_edge(u, v);
    }
    // Ensure nobody is isolated so that reads always have targets.
    for u in 0..users as u32 {
        let user = UserId::new(u);
        if g.out_degree(user) == 0 {
            let other = UserId::new((u + 1) % users as u32);
            let _ = g.try_add_edge(user, other);
        }
    }
    g
}

/// Drives `engine` through `events` — `(id pick, event kind)` pairs over all
/// seven [`ClusterEvent`]s, stale repeats and ids past the end included —
/// with reads in between. Whatever order machines fail, recover, drain or
/// racks come and go, the engine's topology equals a mirror fed the same
/// events directly, and once every rack is revived no view stayed lost.
fn survive<E: PlacementEngine>(
    mut engine: E,
    topology_of: fn(&E) -> &Topology,
    graph: &SocialGraph,
    events: &[(u32, usize)],
) -> Result<E, TestCaseError> {
    use dynasore::types::{MachineId, RackId};
    let mut mirror = topology_of(&engine).clone();
    let mut out = Vec::new();
    let mut time = 0u64;
    let mut apply = |engine: &mut E, event: ClusterEvent, time: u64| {
        let engine_result = engine.on_cluster_change(event, &mut out);
        out.clear();
        // A refusal must leave both untouched, so its `Err` is not one
        // here; the engine refuses exactly what its topology refuses.
        let mirror_result = mirror.apply_cluster_event(event);
        prop_assert_eq!(engine_result.is_ok(), mirror_result.is_ok(), "{}", event);
        prop_assert_eq!(topology_of(engine), &mirror, "after {}", event);
        // Interleave some traffic.
        let user = UserId::new((time % graph.user_count() as u64) as u32);
        engine.handle_read(
            user,
            graph.followees(user),
            SimTime::from_secs(time),
            &mut out,
        );
        out.clear();
        Ok(())
    };
    for &(pick, kind) in events {
        time += 600;
        let machine = MachineId::new(pick);
        let rack = RackId::new(pick % 6);
        let event = match kind {
            0 => ClusterEvent::MachineDown { machine },
            1 => ClusterEvent::MachineUp { machine },
            2 => ClusterEvent::DrainMachine { machine },
            3 => ClusterEvent::RackDown { rack },
            4 => ClusterEvent::RackUp { rack },
            5 => ClusterEvent::AddRack,
            _ => ClusterEvent::RemoveRack { rack },
        };
        apply(&mut engine, event, time)?;
    }
    // Revive everything: full availability must return.
    for rack in 0..topology_of(&engine).rack_count() as u32 {
        let rack = RackId::new(rack);
        apply(&mut engine, ClusterEvent::RackUp { rack }, time + 600)?;
    }
    for u in graph.users() {
        prop_assert!(engine.replica_count(u) >= 1, "view of {} lost", u);
    }
    Ok(engine)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn partitioner_assigns_every_user_within_balance(
        seed in 0u64..1_000,
        parts in 2usize..7,
        edges in proptest::collection::vec((0u32..120, 0u32..120), 60..400),
    ) {
        let graph = arbitrary_graph(120, &edges);
        let partitioning = Partitioner::new(parts)
            .imbalance(0.10)
            .seed(seed)
            .partition(&graph)
            .unwrap();
        prop_assert_eq!(partitioning.user_count(), 120);
        prop_assert_eq!(partitioning.part_sizes().iter().sum::<usize>(), 120);
        // Every user is assigned to a valid part.
        for u in graph.users() {
            prop_assert!(partitioning.part_of(u) < parts);
        }
        // Balance within tolerance plus integer slack.
        let ideal = 120f64 / parts as f64;
        prop_assert!(
            partitioning.max_part_size() as f64 <= ideal * 1.10 + 1.0,
            "max part {} vs ideal {}", partitioning.max_part_size(), ideal
        );
    }

    #[test]
    fn tree_distances_match_switch_paths(
        inter in 1usize..5,
        racks in 1usize..5,
        machines in 2usize..6,
        a_pick in 0usize..1_000,
        b_pick in 0usize..1_000,
    ) {
        let topo = Topology::tree(inter, racks, machines, 1).unwrap();
        let n = topo.machine_count();
        let a = dynasore::types::MachineId::new((a_pick % n) as u32);
        let b = dynasore::types::MachineId::new((b_pick % n) as u32);
        let d_ab = topo.distance(a, b);
        let d_ba = topo.distance(b, a);
        prop_assert_eq!(d_ab, d_ba, "distance must be symmetric");
        prop_assert_eq!(topo.path_switches(a, b).len() as u32, d_ab);
        prop_assert!(d_ab <= 5);
        if a == b {
            prop_assert_eq!(d_ab, 0);
        } else {
            prop_assert!(d_ab >= 1);
            prop_assert!(d_ab % 2 == 1, "tree distances are 1, 3 or 5 switches");
        }
    }

    #[test]
    fn synthetic_traces_are_ordered_and_reference_valid_users(
        users in 20usize..100,
        days in 1u64..3,
        seed in 0u64..500,
    ) {
        let graph = SocialGraph::generate(GraphPreset::TwitterLike, users, seed).unwrap();
        let trace = SyntheticTraceGenerator::paper_defaults(&graph, days, seed).unwrap();
        let mut last = SimTime::ZERO;
        let mut count = 0u64;
        for request in trace {
            prop_assert!(request.time >= last);
            prop_assert!(graph.contains_user(request.user));
            prop_assert!(request.time.as_secs() < days * 86_400);
            last = request.time;
            count += 1;
        }
        prop_assert_eq!(count, (users as u64) * days * 5);
    }

    #[test]
    fn workload_samplers_are_deterministic_and_time_ordered(
        users in 20usize..100,
        days in 1u64..3,
        seed in 0u64..500,
    ) {
        // Failure schedules interleave with generated traces by timestamp,
        // so reproducible fault experiments need every sampler to be a pure
        // function of its seed AND to emit time-ordered requests. Pin both
        // properties for each generator family.
        let graph = SocialGraph::generate(GraphPreset::FacebookLike, users, seed).unwrap();

        // Synthetic: identical replay, different seed diverges.
        let a: Vec<_> = SyntheticTraceGenerator::paper_defaults(&graph, days, seed)
            .unwrap()
            .collect();
        let b: Vec<_> = SyntheticTraceGenerator::paper_defaults(&graph, days, seed)
            .unwrap()
            .collect();
        prop_assert_eq!(&a, &b);
        let other: Vec<_> = SyntheticTraceGenerator::paper_defaults(&graph, days, seed + 1)
            .unwrap()
            .collect();
        prop_assert!(a != other, "different seeds must diverge");
        prop_assert!(a.windows(2).all(|w| w[0].time <= w[1].time));

        // Diurnal: same contract despite the non-homogeneous clock.
        let a: Vec<_> = DiurnalTraceGenerator::new(&graph, days, seed).unwrap().collect();
        let b: Vec<_> = DiurnalTraceGenerator::new(&graph, days, seed).unwrap().collect();
        prop_assert_eq!(&a, &b);
        prop_assert!(a.windows(2).all(|w| w[0].time <= w[1].time));
        prop_assert!(a.iter().all(|r| graph.contains_user(r.user)));

        // Flash events: same plan per seed, time-ordered mutations. Dense
        // little graphs may leave few non-followers, so size the spike to
        // what is available.
        let target = UserId::new(seed as u32 % users as u32);
        let existing: std::collections::HashSet<UserId> =
            graph.followers(target).iter().copied().collect();
        let candidates = graph
            .users()
            .filter(|&u| u != target && !existing.contains(&u))
            .count();
        if candidates > 0 {
            let spike = candidates.min(5);
            let plan_a = FlashEventPlan::random(
                &graph,
                target,
                spike,
                SimTime::from_hours(1),
                SimTime::from_hours(20),
                seed,
            )
            .unwrap();
            let plan_b = FlashEventPlan::random(
                &graph,
                target,
                spike,
                SimTime::from_hours(1),
                SimTime::from_hours(20),
                seed,
            )
            .unwrap();
            prop_assert_eq!(&plan_a, &plan_b);
            let muts = plan_a.mutations();
            prop_assert!(muts.windows(2).all(|w| w[0].time <= w[1].time));
        }
    }

    #[test]
    fn dynasore_survives_arbitrary_failure_sequences(
        seed in 0u64..100,
        events in proptest::collection::vec((0u32..16, 0usize..7), 1..14),
    ) {
        // Random walks over the event space (see `survive`), through all
        // three engines.
        let users = 80usize;
        let graph = SocialGraph::generate(GraphPreset::TwitterLike, users, seed).unwrap();
        let topology = Topology::tree(2, 2, 3, 1).unwrap(); // 8 servers
        // One rack alone (2 servers) can hold every view, so shrinking to
        // the last rack loses nothing.
        let budget = MemoryBudget::with_extra_percent(users, 400);
        let engine = DynaSoReEngine::builder()
            .topology(topology.clone())
            .budget(budget)
            .initial_placement(InitialPlacement::Random { seed })
            .build(&graph)
            .unwrap();
        let engine = survive(engine, DynaSoReEngine::topology, &graph, &events)?;
        let usage = engine.memory_usage();
        prop_assert!(usage.used_slots <= usage.capacity_slots);
        let spar = SparEngine::new(&graph, &topology, budget, seed).unwrap();
        survive(spar, SparEngine::topology, &graph, &events)?;
        let random = StaticPlacement::random(&graph, &topology, seed).unwrap();
        survive(random, StaticPlacement::topology, &graph, &events)?;
    }

    #[test]
    fn dynasore_never_loses_views_nor_overflows_servers(
        seed in 0u64..200,
        extra in 0u32..120,
        edges in proptest::collection::vec((0u32..80, 0u32..80), 40..200),
        requests in proptest::collection::vec((0u32..80, proptest::bool::ANY), 30..120),
    ) {
        let users = 80usize;
        let graph = arbitrary_graph(users, &edges);
        let topology = Topology::tree(2, 2, 3, 1).unwrap();
        let mut engine = DynaSoReEngine::builder()
            .topology(topology)
            .budget(MemoryBudget::with_extra_percent(users, extra))
            .initial_placement(InitialPlacement::Random { seed })
            .build(&graph)
            .unwrap();
        let capacity = engine.capacity_per_server();

        let mut out = Vec::new();
        let mut time = 0u64;
        for &(user_raw, is_read) in &requests {
            let user = UserId::new(user_raw % users as u32);
            time += 60;
            out.clear();
            if is_read {
                let targets = graph.followees(user).to_vec();
                engine.handle_read(user, &targets, SimTime::from_secs(time), &mut out);
            } else {
                engine.handle_write(user, SimTime::from_secs(time), &mut out);
            }
            if time.is_multiple_of(3_600) {
                engine.on_tick(SimTime::from_secs(time), &mut out);
            }
        }
        engine.on_tick(SimTime::from_secs(time + 3_600), &mut out);

        // Invariant 1: every view keeps at least one replica.
        for u in graph.users() {
            prop_assert!(engine.replica_count(u) >= 1, "view of {} lost", u);
        }
        // Invariant 2: no server exceeds its capacity.
        let usage = engine.memory_usage();
        prop_assert!(usage.used_slots <= usage.capacity_slots);
        for (machine, occupancy) in engine.server_occupancies() {
            prop_assert!(occupancy <= 1.0 + 1e-9, "{} over capacity ({})", machine, occupancy);
        }
        // Invariant 3: replica counts are consistent with capacity.
        prop_assert!(usage.used_slots >= users);
        prop_assert!(usage.capacity_slots >= capacity);
    }

    #[test]
    fn spar_respects_capacity_for_any_budget(
        seed in 0u64..200,
        extra in 0u32..200,
        edges in proptest::collection::vec((0u32..60, 0u32..60), 30..150),
    ) {
        let users = 60usize;
        let graph = arbitrary_graph(users, &edges);
        let topology = Topology::tree(2, 2, 3, 1).unwrap();
        let budget = MemoryBudget::with_extra_percent(users, extra);
        let spar = SparEngine::new(&graph, &topology, budget, seed).unwrap();
        let usage = spar.memory_usage();
        prop_assert!(usage.used_slots <= usage.capacity_slots);
        for u in graph.users() {
            prop_assert!(spar.replica_count(u) >= 1);
        }
    }
}
