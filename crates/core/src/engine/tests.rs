//! Engine tests: construction, replication and eviction driven through
//! the public interface, and the reactions of `engine/dynamics.rs` to every
//! cluster event.

use super::evaluation_tests::{test_engine, test_topology, RecordingSink, USERS};
use super::eviction_tests::apply_step;
use super::*;
use dynasore_graph::GraphPreset;
use proptest::prelude::*;
use std::collections::BTreeSet;

pub(super) fn small_world() -> (SocialGraph, Topology) {
    let graph = SocialGraph::generate(GraphPreset::FacebookLike, 400, 11).unwrap();
    let topology = Topology::tree(2, 2, 5, 1).unwrap(); // 16 servers, 4 brokers
    (graph, topology)
}

pub(super) fn engine_with_extra(extra: u32) -> (DynaSoReEngine, SocialGraph, Topology) {
    let (graph, topology) = small_world();
    let engine = DynaSoReEngine::builder()
        .topology(topology.clone())
        .budget(MemoryBudget::with_extra_percent(graph.user_count(), extra))
        .initial_placement(InitialPlacement::Random { seed: 1 })
        .build(&graph)
        .unwrap();
    (engine, graph, topology)
}

#[test]
fn builder_validates_inputs() {
    let (graph, topology) = small_world();
    // Missing topology.
    assert!(DynaSoReEngine::builder().build(&graph).is_err());
    // Budget view count mismatch.
    assert!(DynaSoReEngine::builder()
        .topology(topology.clone())
        .budget(MemoryBudget::exact(10))
        .build(&graph)
        .is_err());
    // No cluster is too small: the per-server capacity rounds up, so a
    // single server holds every view.
    let tiny = Topology::tree(1, 1, 2, 1).unwrap(); // a single server
    let big_graph = SocialGraph::generate(GraphPreset::TwitterLike, 400, 1).unwrap();
    let engine = DynaSoReEngine::builder()
        .topology(tiny)
        .budget(MemoryBudget::exact(400))
        .build(&big_graph)
        .unwrap();
    assert_eq!(engine.servers.len(), 1);
    assert_eq!(engine.servers[0].len(), 400);
}

#[test]
fn initial_state_has_one_replica_per_view() {
    let (engine, graph, _) = engine_with_extra(30);
    for user in graph.users() {
        assert_eq!(engine.replica_count(user), 1, "user {user}");
        assert_eq!(engine.replica_servers(user).len(), 1);
        // Proxies live in the rack of the view.
        let server = engine.replica_servers(user)[0];
        let proxy = engine.read_proxy(user).unwrap();
        assert_eq!(
            engine.topology.rack_of(server).unwrap(),
            engine.topology.rack_of(proxy.machine()).unwrap()
        );
    }
    let usage = engine.memory_usage();
    assert_eq!(usage.used_slots, graph.user_count());
    assert!(usage.capacity_slots >= usage.used_slots);
    assert_eq!(engine.name(), "dynasore-from-random");
    assert!(engine.capacity_per_server() > 0);
}

#[test]
fn remote_reads_trigger_replication_towards_the_readers() {
    let (mut engine, _graph, topology) = engine_with_extra(100);
    let mut out = Vec::new();

    // Pick a view and a reader whose proxy is in a different
    // intermediate sub-tree.
    let view = UserId::new(0);
    let view_server = engine.replica_servers(view)[0];
    let view_inter = topology.intermediate_of(view_server).unwrap();
    let reader = (0..400u32)
        .map(UserId::new)
        .find(|&u| {
            let proxy = engine.read_proxy(u).unwrap().machine();
            topology.intermediate_of(proxy).unwrap() != view_inter
        })
        .expect("some reader lives in another sub-tree");

    assert_eq!(engine.replica_count(view), 1);
    for i in 0..200 {
        engine.handle_read(reader, &[view], SimTime::from_secs(i), &mut out);
    }
    assert!(
        engine.replica_count(view) >= 2,
        "expected a replica near the remote reader, got {}",
        engine.replica_count(view)
    );
    // The new replica is in the reader's sub-tree.
    let reader_proxy = engine.read_proxy(reader).unwrap().machine();
    let reader_inter = topology.intermediate_of(reader_proxy).unwrap();
    assert!(engine
        .replica_servers(view)
        .iter()
        .any(|&m| topology.intermediate_of(m).unwrap() == reader_inter));
    // Replication generated protocol traffic.
    assert!(out
        .iter()
        .any(|m| m.class == dynasore_types::MessageClass::Protocol));
}

#[test]
fn write_heavy_views_are_not_replicated() {
    let (mut engine, _graph, topology) = engine_with_extra(100);
    let mut out = Vec::new();
    let view = UserId::new(1);
    let view_server = engine.replica_servers(view)[0];
    let view_inter = topology.intermediate_of(view_server).unwrap();
    let reader = (0..400u32)
        .map(UserId::new)
        .find(|&u| {
            let proxy = engine.read_proxy(u).unwrap().machine();
            topology.intermediate_of(proxy).unwrap() != view_inter
        })
        .unwrap();

    // Interleave every remote read with many writes: the write cost of a
    // second replica always exceeds the read gain.
    for i in 0..100 {
        engine.handle_read(reader, &[view], SimTime::from_secs(i * 10), &mut out);
        for w in 0..8 {
            engine.handle_write(view, SimTime::from_secs(i * 10 + w), &mut out);
        }
    }
    assert_eq!(
        engine.replica_count(view),
        1,
        "write-dominated view should keep a single replica"
    );
}

#[test]
fn writes_update_every_replica() {
    let (mut engine, _graph, topology) = engine_with_extra(100);
    let mut out = Vec::new();
    let view = UserId::new(2);
    let view_server = engine.replica_servers(view)[0];
    let view_inter = topology.intermediate_of(view_server).unwrap();
    let reader = (0..400u32)
        .map(UserId::new)
        .find(|&u| {
            let proxy = engine.read_proxy(u).unwrap().machine();
            topology.intermediate_of(proxy).unwrap() != view_inter
        })
        .unwrap();
    for i in 0..200 {
        engine.handle_read(reader, &[view], SimTime::from_secs(i), &mut out);
    }
    let replicas = engine.replica_count(view);
    assert!(replicas >= 2);
    out.clear();
    engine.handle_write(view, SimTime::from_secs(10_000), &mut out);
    let app_messages = out
        .iter()
        .filter(|m| m.class == dynasore_types::MessageClass::Application)
        .count();
    assert_eq!(app_messages, replicas);
}

#[test]
fn capacity_is_never_exceeded_and_every_view_keeps_a_replica() {
    let (mut engine, graph, _topology) = engine_with_extra(30);
    let mut out = Vec::new();
    // Hammer the engine with reads from many users and periodic ticks.
    for round in 0..20u64 {
        for u in (0..400u32).step_by(7) {
            let user = UserId::new(u);
            let targets: Vec<UserId> = graph.followees(user).to_vec();
            engine.handle_read(
                user,
                &targets,
                SimTime::from_secs(round * 100 + u as u64),
                &mut out,
            );
        }
        engine.on_tick(SimTime::from_hours(round + 1), &mut out);
        out.clear();
    }
    for (machine, occupancy) in engine.server_occupancies() {
        assert!(
            occupancy <= 1.0 + 1e-9,
            "server {machine} over capacity: {occupancy}"
        );
    }
    for user in graph.users() {
        assert!(engine.replica_count(user) >= 1, "view of {user} lost");
    }
    let usage = engine.memory_usage();
    assert!(usage.used_slots <= usage.capacity_slots);
}

#[test]
fn idle_replicas_are_evicted_after_the_window_expires() {
    let (mut engine, _graph, topology) = engine_with_extra(100);
    let mut out = Vec::new();
    let view = UserId::new(3);
    let view_server = engine.replica_servers(view)[0];
    let view_inter = topology.intermediate_of(view_server).unwrap();
    let reader = (0..400u32)
        .map(UserId::new)
        .find(|&u| {
            let proxy = engine.read_proxy(u).unwrap().machine();
            topology.intermediate_of(proxy).unwrap() != view_inter
        })
        .unwrap();
    for i in 0..200 {
        engine.handle_read(reader, &[view], SimTime::from_secs(i), &mut out);
    }
    assert!(engine.replica_count(view) >= 2);

    // Keep writing to the view (so extra replicas cost traffic) while
    // nobody reads it any more; rotate the whole statistics window.
    for hour in 0..30u64 {
        engine.handle_write(view, SimTime::from_hours(hour), &mut out);
        engine.on_tick(SimTime::from_hours(hour + 1), &mut out);
    }
    assert_eq!(
        engine.replica_count(view),
        1,
        "useless replicas should have been evicted"
    );
}

#[test]
fn read_proxy_migrates_towards_the_data() {
    let (mut engine, _graph, topology) = engine_with_extra(0);
    let mut out = Vec::new();
    // Pick a reader and a target rack different from the reader's
    // current one, then read only views whose single replica lives in
    // that rack: the read proxy must migrate there.
    let reader = UserId::new(4);
    let before = engine.read_proxy(reader).unwrap();
    let reader_rack = topology.rack_of(before.machine()).unwrap();
    let target_rack = (0..topology.rack_count() as u32)
        .map(dynasore_types::RackId::new)
        .find(|&r| r != reader_rack)
        .unwrap();
    let targets: Vec<UserId> = (0..400u32)
        .map(UserId::new)
        .filter(|&u| u != reader)
        .filter(|&u| {
            let server = engine.replica_servers(u)[0];
            topology.rack_of(server).unwrap() == target_rack
        })
        .take(10)
        .collect();
    assert!(!targets.is_empty(), "no views found in the target rack");
    for i in 0..50 {
        engine.handle_read(reader, &targets, SimTime::from_secs(i), &mut out);
    }
    let after = engine.read_proxy(reader).unwrap();
    assert_eq!(
        topology.rack_of(after.machine()).unwrap(),
        target_rack,
        "proxy (was {before}, now {after}) should sit in the rack holding the data"
    );
}

#[test]
fn unknown_users_are_ignored_gracefully() {
    let (mut engine, _graph, _topology) = engine_with_extra(30);
    let mut out = Vec::new();
    engine.handle_read(
        UserId::new(9_999),
        &[UserId::new(1)],
        SimTime::ZERO,
        &mut out,
    );
    engine.handle_write(UserId::new(9_999), SimTime::ZERO, &mut out);
    engine.handle_read(
        UserId::new(1),
        &[UserId::new(9_999)],
        SimTime::ZERO,
        &mut out,
    );
    assert_eq!(engine.replica_count(UserId::new(9_999)), 0);
    // Only the valid read produced messages (none for unknown targets).
    assert!(out.iter().all(|m| !m.is_local()));
}

/// A sink that reports heavy congestion on every rack except one,
/// mimicking what the simulator's accounting sink exposes when switch
/// queues are backed up.
struct CongestedRacksSink {
    messages: Vec<Message>,
    clear_rack: u32,
    delay: Latency,
}

impl TrafficSink for CongestedRacksSink {
    fn record(&mut self, message: Message) {
        self.messages.push(message);
    }

    fn congestion(&self, subtree: SubtreeId) -> Latency {
        match subtree {
            SubtreeId::Rack(r) if r == self.clear_rack => Latency::ZERO,
            _ => self.delay,
        }
    }
}

#[test]
fn congestion_penalty_steers_replication_away_from_congested_racks() {
    // Remote reads that would normally trigger replication towards the
    // reader: with every rack congested the penalty outweighs any
    // possible profit, so no replica is created at all.
    let (mut engine, _graph, topology) = engine_with_extra(100);
    let view = UserId::new(0);
    let view_server = engine.replica_servers(view)[0];
    let view_inter = topology.intermediate_of(view_server).unwrap();
    let reader = (0..400u32)
        .map(UserId::new)
        .find(|&u| {
            let proxy = engine.read_proxy(u).unwrap().machine();
            topology.intermediate_of(proxy).unwrap() != view_inter
        })
        .expect("some reader lives in another sub-tree");
    let mut congested = CongestedRacksSink {
        messages: Vec::new(),
        clear_rack: u32::MAX, // every rack congested
        delay: Latency::from_secs(10),
    };
    for i in 0..200 {
        engine.handle_read(reader, &[view], SimTime::from_secs(i), &mut congested);
    }
    assert_eq!(
        engine.replica_count(view),
        1,
        "congestion everywhere must suppress replica creation"
    );

    // Control: the identical engine and workload over a congestion-free
    // sink replicates towards the reader (same as the existing
    // remote_reads_trigger_replication test).
    let (mut control, _graph2, _) = engine_with_extra(100);
    let mut out = Vec::new();
    for i in 0..200 {
        control.handle_read(reader, &[view], SimTime::from_secs(i), &mut out);
    }
    assert!(control.replica_count(view) >= 2);

    // And with exactly one uncongested rack, creation lands there.
    let (mut steered, _graph3, _) = engine_with_extra(100);
    let reader_rack = topology
        .rack_of(steered.read_proxy(reader).unwrap().machine())
        .unwrap();
    let mut one_clear = CongestedRacksSink {
        messages: Vec::new(),
        clear_rack: reader_rack.index(),
        delay: Latency::from_secs(10),
    };
    for i in 0..200 {
        steered.handle_read(reader, &[view], SimTime::from_secs(i), &mut one_clear);
    }
    assert!(steered.replica_count(view) >= 2);
    for machine in steered.replica_servers(view) {
        let rack = topology.rack_of(machine).unwrap();
        assert!(
            rack == reader_rack || machine == view_server,
            "replica landed in congested rack {rack}"
        );
    }
}

#[test]
fn machine_failure_recovers_lost_masters_from_the_persistent_tier() {
    let (mut engine, graph, _topology) = engine_with_extra(30);
    let mut out = Vec::new();
    let victim = engine.replica_servers(UserId::new(0))[0];
    engine
        .on_cluster_change(ClusterEvent::MachineDown { machine: victim }, &mut out)
        .unwrap();
    assert!(!engine.topology().is_live(victim));
    for user in graph.users() {
        assert!(engine.replica_count(user) >= 1, "view of {user} lost");
        assert!(
            !engine.replica_servers(user).contains(&victim),
            "replica of {user} still on the dead machine"
        );
    }
    assert!(engine.recovered_views() > 0);
    assert!(
        out.iter().any(|m| m.involves_persistent()),
        "recovery must charge persistent-tier traffic"
    );
    for (machine, occupancy) in engine.server_occupancies() {
        assert!(
            occupancy <= 1.0 + 1e-9,
            "server {machine} over capacity: {occupancy}"
        );
    }
    // Reads keep working against the shrunken cluster.
    out.clear();
    let reader = UserId::new(1);
    let targets: Vec<UserId> = graph.followees(reader).to_vec();
    engine.handle_read(reader, &targets, SimTime::from_secs(1), &mut out);
    assert_eq!(engine.unreachable_reads(), 0);

    // The machine rejoins empty and becomes a replication target again.
    out.clear();
    engine
        .on_cluster_change(ClusterEvent::MachineUp { machine: victim }, &mut out)
        .unwrap();
    assert!(engine.topology().is_live(victim));
    let usage = engine.memory_usage();
    assert!(usage.used_slots >= graph.user_count());
}

#[test]
fn broker_failure_rehomes_proxies() {
    let (mut engine, graph, topology) = engine_with_extra(30);
    let mut out = Vec::new();
    // Machine 0 is the broker of rack 0 in the 2x2x5 tree.
    let broker = dynasore_types::MachineId::new(0);
    assert!(topology.is_broker(broker));
    let affected: Vec<UserId> = graph
        .users()
        .filter(|&u| engine.read_proxy(u).unwrap().machine() == broker)
        .collect();
    assert!(!affected.is_empty());
    engine
        .on_cluster_change(ClusterEvent::MachineDown { machine: broker }, &mut out)
        .unwrap();
    for &user in &affected {
        let new_proxy = engine.read_proxy(user).unwrap().machine();
        assert_ne!(new_proxy, broker);
        assert!(engine.topology().is_live(new_proxy));
        assert!(topology.is_broker(new_proxy));
    }
    // Reads from an affected user still execute.
    out.clear();
    let reader = affected[0];
    let targets: Vec<UserId> = graph.followees(reader).to_vec();
    engine.handle_read(reader, &targets, SimTime::from_secs(1), &mut out);
    assert_eq!(engine.unreachable_reads(), 0);
}

#[test]
fn rack_failure_is_survived_as_a_batch() {
    let (mut engine, graph, _topology) = engine_with_extra(50);
    let mut out = Vec::new();
    let rack = dynasore_types::RackId::new(0);
    engine
        .on_cluster_change(ClusterEvent::RackDown { rack }, &mut out)
        .unwrap();
    for user in graph.users() {
        assert!(engine.replica_count(user) >= 1, "view of {user} lost");
        for machine in engine.replica_servers(user) {
            assert!(engine.topology().is_live(machine));
            assert_ne!(engine.topology().rack_of(machine).unwrap(), rack);
        }
    }
    assert!(out.iter().any(|m| m.involves_persistent()));
    out.clear();
    engine
        .on_cluster_change(ClusterEvent::RackUp { rack }, &mut out)
        .unwrap();
    assert!(engine.topology().is_live(dynasore_types::MachineId::new(0)));
}

#[test]
fn drain_migrates_without_touching_the_persistent_tier() {
    let (mut engine, graph, _topology) = engine_with_extra(50);
    let mut out = Vec::new();
    let victim = engine.replica_servers(UserId::new(0))[0];
    engine
        .on_cluster_change(ClusterEvent::DrainMachine { machine: victim }, &mut out)
        .unwrap();
    assert!(!engine.topology().is_live(victim));
    assert!(
        out.iter().all(|m| !m.involves_persistent()),
        "drain must move state machine-to-machine, not via the durable store"
    );
    assert!(
        out.iter().any(|m| m.from == victim),
        "drained state travels from the draining machine"
    );
    for user in graph.users() {
        assert!(engine.replica_count(user) >= 1, "view of {user} lost");
        assert!(!engine.replica_servers(user).contains(&victim));
    }
    assert_eq!(engine.recovered_views(), 0);
}

#[test]
fn drain_spreads_sole_replicas_across_destination_racks() {
    let (mut engine, _graph, topology) = engine_with_extra(50);
    let victim = engine.replica_servers(UserId::new(0))[0];
    let sidx = topology.server_ordinal(victim).unwrap();
    let on_victim: Vec<UserId> = engine.servers[sidx].views().map(|(v, _)| v).collect();
    let sole: Vec<UserId> = on_victim
        .into_iter()
        .filter(|&v| engine.replica_count(v) == 1)
        .collect();
    assert!(sole.len() > 4, "victim must hold enough sole replicas");
    let mut out = Vec::new();
    engine
        .on_cluster_change(ClusterEvent::DrainMachine { machine: victim }, &mut out)
        .unwrap();
    // The evacuated sole replicas land on several racks, not on one
    // least-loaded dumping ground.
    let mut dest_racks: Vec<_> = sole
        .iter()
        .map(|&v| {
            let homes = engine.replica_servers(v);
            assert_eq!(homes.len(), 1);
            engine.topology().rack_of(homes[0]).unwrap()
        })
        .collect();
    dest_racks.sort_unstable();
    dest_racks.dedup();
    assert!(
        dest_racks.len() > 1,
        "sole replicas all dumped on one rack: {dest_racks:?}"
    );
    // And no live server becomes a post-drain hot spot.
    let loads: Vec<usize> = engine
        .servers
        .iter()
        .filter(|s| engine.topology().is_live(s.machine()))
        .map(ServerState::len)
        .collect();
    let max = *loads.iter().max().unwrap() as f64;
    let mean = loads.iter().sum::<usize>() as f64 / loads.len() as f64;
    assert!(
        max <= 1.5 * mean + 1.0,
        "post-drain hot spot: max load {max} vs mean {mean:.1}"
    );
}

#[test]
fn remove_rack_evacuates_and_retires_under_the_engine() {
    let (mut engine, graph, _topology) = engine_with_extra(50);
    let mut out = Vec::new();
    let rack = dynasore_types::RackId::new(0);
    engine
        .on_cluster_change(ClusterEvent::RemoveRack { rack }, &mut out)
        .unwrap();
    assert!(engine.topology().is_rack_retired(rack));
    assert!(
        out.iter().all(|m| !m.involves_persistent()),
        "elastic shrink must move state machine-to-machine"
    );
    assert_eq!(engine.recovered_views(), 0);
    for user in graph.users() {
        assert!(engine.replica_count(user) >= 1, "view of {user} lost");
        for machine in engine.replica_servers(user) {
            assert!(engine.topology().is_live(machine));
            assert_ne!(engine.topology().rack_of(machine).unwrap(), rack);
        }
        let proxy = engine.read_proxy(user).unwrap().machine();
        assert!(engine.topology().is_live(proxy));
    }
    // The retired rack never comes back, even through a RackUp.
    out.clear();
    engine
        .on_cluster_change(ClusterEvent::RackUp { rack }, &mut out)
        .unwrap();
    assert!(!engine.topology().is_live(dynasore_types::MachineId::new(0)));
    // Traffic keeps flowing on the shrunken cluster.
    for i in 0..20u32 {
        let user = UserId::new(i);
        let targets: Vec<UserId> = graph.followees(user).to_vec();
        engine.handle_read(user, &targets, SimTime::from_secs(i as u64), &mut out);
        engine.handle_write(user, SimTime::from_secs(i as u64), &mut out);
    }
    assert_eq!(engine.unreachable_reads(), 0);
}

#[test]
fn added_rack_grows_capacity_and_absorbs_replicas() {
    let (mut engine, graph, _topology) = engine_with_extra(30);
    let mut out = Vec::new();
    let before = engine.memory_usage();
    let old_rack_count = engine.topology().rack_count();
    engine
        .on_cluster_change(ClusterEvent::AddRack, &mut out)
        .unwrap();
    assert_eq!(engine.topology().rack_count(), old_rack_count + 1);
    let after = engine.memory_usage();
    assert!(after.capacity_slots > before.capacity_slots);
    assert_eq!(after.used_slots, before.used_slots);
    // Old servers and new, one capacity: the candidate sets keep a single
    // list per subtree on the strength of it.
    assert_eq!(engine.servers.len(), engine.topology().server_count());
    let capacity = engine.capacity_per_server();
    assert!(engine.servers.iter().all(|s| s.capacity() == capacity));
    // The announcement reached the pre-existing brokers.
    assert!(!out.is_empty());
    // The cached least-loaded answers agree with the exact scan over the
    // grown cluster, and the empty servers are the preferred targets.
    let root_pick = engine.least_loaded_server_in(SubtreeId::Root, &[]).unwrap();
    assert_eq!(
        Some(root_pick),
        engine.least_loaded_scan(SubtreeId::Root, &[])
    );
    assert_eq!(engine.servers[root_pick].len(), 0);
    // Traffic keeps flowing after the resize (tally was re-sized too).
    out.clear();
    for i in 0..20u32 {
        let user = UserId::new(i);
        let targets: Vec<UserId> = graph.followees(user).to_vec();
        engine.handle_read(user, &targets, SimTime::from_secs(i as u64), &mut out);
        engine.handle_write(user, SimTime::from_secs(i as u64), &mut out);
    }
    engine.on_tick(SimTime::from_hours(1), &mut out);
    for user in graph.users() {
        assert!(engine.replica_count(user) >= 1);
    }
}

#[test]
fn flat_topology_is_supported() {
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, 200, 3).unwrap();
    let topology = Topology::flat(10).unwrap();
    let mut engine = DynaSoReEngine::builder()
        .topology(topology)
        .budget(MemoryBudget::with_extra_percent(200, 50))
        .initial_placement(InitialPlacement::Random { seed: 2 })
        .build(&graph)
        .unwrap();
    let mut out = Vec::new();
    for i in 0..50u32 {
        let user = UserId::new(i % 200);
        let targets = graph.followees(user).to_vec();
        engine.handle_read(user, &targets, SimTime::from_secs(i as u64), &mut out);
        engine.handle_write(user, SimTime::from_secs(i as u64), &mut out);
    }
    engine.on_tick(SimTime::from_hours(1), &mut out);
    let usage = engine.memory_usage();
    assert!(usage.used_slots >= 200);
}

impl DynaSoReEngine {
    /// Panics unless every user's replica list and the server slabs agree:
    /// each `(server, slot)` pair names an occupied slot holding that user,
    /// each server stores exactly the replicas that name it, and no user
    /// lists a server twice (the list is sorted by server).
    pub(super) fn check_replica_links(&self) {
        let mut named = vec![0usize; self.servers.len()];
        for (uidx, user) in self.users.iter().enumerate() {
            let view = UserId::new(uidx as u32);
            assert!(
                user.replicas.windows(2).all(|w| w[0].server < w[1].server),
                "{view} lists a server twice or out of order: {:?}",
                user.replicas
            );
            for r in &user.replicas {
                assert_eq!(
                    self.servers[r.server()].view_at(r.slot()),
                    Some(view),
                    "{view}'s replica {r:?} names a slot that does not hold it"
                );
                named[r.server()] += 1;
            }
        }
        for (sidx, server) in self.servers.iter().enumerate() {
            assert_eq!(server.len(), named[sidx], "server {sidx}: stored vs linked");
        }
    }

    /// Every `(view, server)` pair of the placement.
    fn placement_pairs(&self) -> BTreeSet<(UserId, MachineId)> {
        let users = (0..self.users.len() as u32).map(UserId::new);
        let pairs = users.flat_map(|u| self.replica_servers(u).into_iter().map(move |m| (u, m)));
        pairs.collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The replica lists and the slabs never drift apart: after every read,
    /// write, tick and cluster event (machine and rack down and up, drain,
    /// added and removed racks), on a tree and on a flat cluster, with
    /// memory tight enough that admissions evict.
    #[test]
    fn replica_links_name_the_slots_that_hold_them(
        flat in proptest::bool::ANY,
        extra in 5u32..60,
        steps in proptest::collection::vec((0u32..100, (0u32..10_000, 0u32..10_000)), 300..301),
    ) {
        let graph = SocialGraph::generate(GraphPreset::FacebookLike, USERS, 3).unwrap();
        let mut engine = test_engine(&graph, &test_topology(flat), extra);
        let mut out = RecordingSink::default();
        engine.check_replica_links();
        for (n, &step) in steps.iter().enumerate() {
            let time = SimTime::from_secs(n as u64 * 600);
            apply_step(&mut engine, &graph, &mut out, time, step);
            engine.check_replica_links();
        }
    }

    /// No replica leaves the placement silently: over the same churn, every
    /// `(view, server)` pair held before a step and gone after it was
    /// reported through [`TrafficSink::unlinked`] during the step — evicted,
    /// dropped, moved, evacuated or lost with its machine — so a driver that
    /// evicts what is reported (the live store) holds no copy the engine
    /// does not list.
    #[test]
    fn every_replica_that_leaves_the_placement_is_reported(
        flat in proptest::bool::ANY,
        extra in 5u32..60,
        steps in proptest::collection::vec((0u32..100, (0u32..10_000, 0u32..10_000)), 300..301),
    ) {
        let graph = SocialGraph::generate(GraphPreset::FacebookLike, USERS, 3).unwrap();
        let mut engine = test_engine(&graph, &test_topology(flat), extra);
        let mut out = RecordingSink::default();
        let mut reported = 0;
        for (n, &step) in steps.iter().enumerate() {
            let before = engine.placement_pairs();
            out.unlinked.clear();
            let time = SimTime::from_secs(n as u64 * 600);
            let what = apply_step(&mut engine, &graph, &mut out, time, step);
            for pair in before.difference(&engine.placement_pairs()) {
                prop_assert!(out.unlinked.contains(pair), "step {}, {}: {:?} unreported", n, what, pair);
            }
            reported += out.unlinked.len();
        }
        prop_assert!(reported > 0, "nothing was unlinked");
    }
}

/// The message stream a `Vec<Message>` sink receives — every
/// [`TrafficSink::record_n`] arriving as its copies — over a seeded run of
/// un-ticked feed reads (every admission evicts), writes, cluster events
/// and then hourly ticks, pinned by length, recovery share and an FNV-1a
/// digest of every message's endpoints and class in order: how a view
/// transfer is handed to a sink does not change which messages it is. Three
/// layouts: the small tree with a server crash and its recovery; the flat
/// layout, where every machine is a server and a broker, with the same; and
/// a two-broker-per-rack tree grown by two racks (the first opens an
/// intermediate switch, which renumbers the path table's nodes) whose rack-0
/// broker crashes and returns (its proxies re-home, and a walk ending in
/// rack 0 meanwhile lands on the rack's other, live broker).
#[test]
fn the_message_stream_of_a_seeded_run_is_pinned() {
    let down = |m| ClusterEvent::MachineDown {
        machine: MachineId::new(m),
    };
    let up = |m| ClusterEvent::MachineUp {
        machine: MachineId::new(m),
    };
    // (layout, the cluster events and the step each follows, the pin)
    let cases = [
        (
            "tree",
            Topology::tree(2, 2, 5, 1),
            vec![(1_000, down(4)), (1_500, up(4))],
            (245_678, 180, 0x2e7c_3266_f67e_9b01),
        ),
        (
            "flat",
            Topology::flat(16),
            vec![(1_000, down(3)), (1_500, up(3))],
            (837_643, 210, 0x9366_a4ac_321b_e7d8),
        ),
        (
            "grown tree",
            Topology::tree(2, 2, 6, 2),
            vec![
                (600, ClusterEvent::AddRack),
                (900, ClusterEvent::AddRack),
                (1_200, down(0)),
                (1_800, up(0)),
            ],
            (239_532, 0, 0x969b_603a_c3cb_e1ba),
        ),
    ];
    let (graph, _) = small_world();
    let users = graph.user_count() as u32;
    for (layout, topology, events, pinned) in cases {
        let mut engine = DynaSoReEngine::builder()
            .topology(topology.unwrap())
            .budget(MemoryBudget::with_extra_percent(graph.user_count(), 30))
            .initial_placement(InitialPlacement::Random { seed: 1 })
            .build(&graph)
            .unwrap();
        let mut out: Vec<Message> = Vec::new();
        for step in 0..3_000u32 {
            let user = UserId::new(step.wrapping_mul(7_919) % users);
            let time = SimTime::from_secs(u64::from(step) * 30);
            if step % 5 == 4 {
                engine.handle_write(user, time, &mut out);
            } else {
                engine.handle_read(user, graph.followees(user), time, &mut out);
            }
            if step >= 2_000 && step % 120 == 119 {
                engine.on_tick(time, &mut out);
            }
            for &(_, event) in events.iter().filter(|&&(at, _)| at == step) {
                engine.on_cluster_change(event, &mut out).unwrap();
            }
        }
        let digest = out.iter().fold(0xcbf2_9ce4_8422_2325_u64, |hash, m| {
            let words = [
                m.from.index(),
                m.to.index(),
                m.class.is_application() as u32,
            ];
            words.iter().fold(hash, |hash, &word| {
                (hash ^ u64::from(word)).wrapping_mul(0x0100_0000_01b3)
            })
        });
        let recovery = out.iter().filter(|m| m.involves_persistent()).count();
        assert_eq!((out.len(), recovery, digest), pinned, "{layout}");
    }
}

/// Records what a read emits: its messages and its `served` reports.
#[derive(Debug, Default, PartialEq)]
struct ReadLog {
    messages: Vec<Message>,
    served: Vec<(UserId, MachineId)>,
}

impl TrafficSink for ReadLog {
    fn record(&mut self, message: Message) {
        self.messages.push(message);
    }

    fn served(&mut self, view: UserId, server: MachineId) {
        self.served.push((view, server));
    }
}

/// A read's warm pass changes nothing it reads about: a read whose targets
/// hold unknown ids, a repeated target and a lost view awaiting recovery
/// (no replica) emits the same messages and `served` reports, counts the
/// same unreachable reads and leaves the same engine as the read without
/// the pass.
#[test]
fn the_warm_pass_skips_unknown_repeated_and_lost_targets() {
    let (mut engine, graph, _) = engine_with_extra(30);
    let lost = UserId::new(7);
    let server = engine.users[lost.as_usize()].replicas[0].server();
    engine.unlink_replica(lost, server, &mut Vec::new());
    assert!(engine.users[lost.as_usize()].replicas.is_empty());

    let reader = UserId::new(1);
    let known = graph.followees(reader)[0];
    let unknown = UserId::new(graph.user_count() as u32);
    let targets = [unknown, known, lost, known, UserId::new(u32::MAX), known];
    let mut without = engine.clone();
    let (mut with_log, mut without_log) = (ReadLog::default(), ReadLog::default());
    engine.handle_read(reader, &targets, SimTime::ZERO, &mut with_log);
    without.read_targets(reader, &targets, &mut without_log);

    assert_eq!(with_log, without_log);
    assert_eq!(with_log.served.len(), 3, "{:?}", with_log.served);
    assert!(with_log.served.iter().all(|&(view, _)| view == known));
    assert_eq!(engine.unreachable_reads(), 1);
    assert_eq!(without.unreachable_reads(), 1);
    assert_eq!(format!("{engine:?}"), format!("{without:?}"));
}
