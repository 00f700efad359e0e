//! The evaluation the linear path replaced, kept as test-only reference
//! code, and the tests that pin the linear path to it and to the
//! specification in `utility.rs`.

use super::eviction_tests::assert_cache_matches_rescan;
use super::*;
use crate::evaluation::tests::origin_from_pick;
use crate::stats::COUNTER_SLOTS;
use crate::utility::{estimate_creation_profit, estimate_profit};
use dynasore_graph::GraphPreset;
use proptest::prelude::*;

impl DynaSoReEngine {
    /// A read as [`PlacementEngine::handle_read`] serves it, each target
    /// evaluated by [`evaluate_replica_reference`](Self::evaluate_replica_reference):
    /// the twin engine the whole-run test replays next to the engine's own.
    fn read_targets_reference(
        &mut self,
        user: UserId,
        targets: &[UserId],
        out: &mut dyn TrafficSink,
    ) {
        if user.as_usize() >= self.users.len() {
            return;
        }
        let broker = self.users[user.as_usize()].read_proxy.machine();
        self.scratch.tally.clear();
        for &target in targets {
            if target.as_usize() >= self.users.len() {
                continue;
            }
            let replicas = self.users[target.as_usize()].replicas.iter().copied();
            let Some((replica, server_machine)) = self.closest_of(broker, replicas) else {
                self.unreachable_reads += 1;
                continue;
            };
            out.served(target, server_machine);
            out.record(Message::application(broker, server_machine));
            out.record(Message::application(server_machine, broker));
            self.scratch.tally.add(server_machine, 1);
            let origin = self.topology.access_origin(server_machine, broker);
            self.servers[replica.server()]
                .stats_mut(replica.slot())
                .record_read(origin);
            self.evaluate_replica_reference(target, replica, out);
        }
        self.maybe_migrate_proxy(user, false, out);
    }

    /// Algorithms 2 and 3 exactly as they ran before the linear evaluation:
    /// every candidate of every origin priced by a full
    /// `estimate_creation_profit` / `estimate_profit` sum, candidates looked
    /// up once per algorithm.
    pub(super) fn evaluate_replica_reference(
        &mut self,
        view: UserId,
        replica: Replica,
        out: &mut dyn TrafficSink,
    ) {
        let (sidx, slot) = (replica.server(), replica.slot());
        let server_machine = self.servers[sidx].machine();
        let write_proxy = self.users[view.as_usize()].write_proxy.machine();

        // --- Algorithm 2: try to create a replica near one of the origins.
        // The profit of adding a replica only counts the readers the routing
        // policy would redirect to it (§3.2, "simulating its addition").
        // Decisions are computed over borrowed state (no statistics clone);
        // mutations are deferred until the borrows end.
        let new_replica = {
            let stats = self.servers[sidx].stats(slot);
            let replicas = &self.users[view.as_usize()].replicas;
            let mut best_profit = 0i64;
            let mut new_replica: Option<usize> = None;
            for (origin, _reads) in stats.reads() {
                let candidate = match self.least_loaded_server_in(origin, replicas) {
                    Some(c) => c,
                    None => continue,
                };
                let candidate_machine = self.servers[candidate].machine();
                let profit = estimate_creation_profit(
                    &self.topology,
                    stats,
                    candidate_machine,
                    server_machine,
                    write_proxy,
                ) - self.rack_congestion_penalty(out, candidate_machine);
                let threshold = self.admission_threshold_of(origin);
                if (profit as f64) > threshold && profit > best_profit {
                    best_profit = profit;
                    new_replica = Some(candidate);
                }
            }
            new_replica
        };
        if let Some(target) = new_replica {
            if self.create_replica(view, sidx, target, out) {
                out.trace(TraceEventKind::ReplicaCreated {
                    user: view,
                    server: self.servers[target].machine(),
                    reason: ReplicaChangeReason::Placement,
                });
                return;
            }
            // The chosen server had no space it could free: fall through to
            // the migration logic, as the paper does when no replica can be
            // created. (A failed creation mutates nothing, so the state the
            // migration decision sees is unchanged.)
        }

        // --- Algorithm 3: no replica can be created; consider migrating (or
        // dropping) this replica.
        enum Decision {
            Keep,
            Drop,
            Migrate(usize),
        }
        let decision = {
            let stats = self.servers[sidx].stats(slot);
            let replicas = &self.users[view.as_usize()].replicas;
            let nearest = self
                .nearest_other_replica(view, sidx)
                .unwrap_or(server_machine);
            let has_other_replicas = replicas.len() > 1;
            let mut best_profit =
                estimate_profit(&self.topology, stats, server_machine, nearest, write_proxy);
            let mut best_position: Option<usize> = None;
            for (origin, _reads) in stats.reads() {
                let candidate = match self.least_loaded_server_in(origin, replicas) {
                    Some(c) => c,
                    None => continue,
                };
                let candidate_machine = self.servers[candidate].machine();
                let profit = estimate_profit(
                    &self.topology,
                    stats,
                    candidate_machine,
                    nearest,
                    write_proxy,
                ) - self.rack_congestion_penalty(out, candidate_machine);
                let threshold = self.admission_threshold_of(origin);
                if profit > best_profit && (profit as f64) > threshold {
                    best_profit = profit;
                    best_position = Some(candidate);
                }
            }
            if best_profit < 0 && has_other_replicas {
                Decision::Drop
            } else if let Some(target) = best_position {
                Decision::Migrate(target)
            } else {
                Decision::Keep
            }
        };
        match decision {
            // This replica costs more than it saves: drop it.
            Decision::Drop => {
                if self.remove_replica(view, sidx, out) {
                    out.trace(TraceEventKind::ReplicaDropped {
                        user: view,
                        server: server_machine,
                        reason: ReplicaChangeReason::Placement,
                    });
                }
            }
            // Migrate: create the replica at the better position, then
            // remove the local copy (the view keeps at least one replica
            // because the new one was just created).
            Decision::Migrate(target) => {
                if self.create_replica(view, sidx, target, out)
                    && self.remove_replica(view, sidx, out)
                {
                    out.trace(TraceEventKind::ReplicaMoved {
                        user: view,
                        from: server_machine,
                        to: self.servers[target].machine(),
                        reason: ReplicaChangeReason::Placement,
                    });
                }
            }
            Decision::Keep => {}
        }
    }
}

/// Buffers messages, traces and unlinked replicas, and (when `congested`)
/// reports a queueing delay that differs by rack, so congestion penalties
/// are non-zero and unequal across candidates.
#[derive(Default)]
pub(super) struct RecordingSink {
    messages: Vec<Message>,
    traces: Vec<TraceEventKind>,
    pub(super) unlinked: Vec<(UserId, MachineId)>,
    congested: bool,
}

impl TrafficSink for RecordingSink {
    fn record(&mut self, message: Message) {
        self.messages.push(message);
    }

    fn congestion(&self, subtree: SubtreeId) -> Latency {
        match subtree {
            SubtreeId::Rack(r) if self.congested => Latency::from_millis(4 * (r as u64 % 3)),
            _ => Latency::ZERO,
        }
    }

    fn trace(&mut self, event: TraceEventKind) {
        self.traces.push(event);
    }

    fn unlinked(&mut self, view: UserId, server: MachineId) {
        self.unlinked.push((view, server));
    }
}

pub(super) const USERS: usize = 160;

/// A tree whose racks hold more servers (6) than a candidate set remembers
/// (`LOAD_TOP_K`), so exclusion lists can exhaust a truncated set; or a flat
/// cluster, where every origin is one machine.
pub(super) fn test_topology(flat: bool) -> Topology {
    if flat {
        Topology::flat(9).unwrap()
    } else {
        Topology::tree(2, 2, 7, 1).unwrap()
    }
}

pub(super) fn test_engine(graph: &SocialGraph, topology: &Topology, extra: u32) -> DynaSoReEngine {
    DynaSoReEngine::builder()
        .topology(topology.clone())
        .budget(MemoryBudget::with_extra_percent(graph.user_count(), extra))
        .initial_placement(InitialPlacement::Random { seed: 5 })
        .build(graph)
        .unwrap()
}

impl DynaSoReEngine {
    /// What `gather_candidates` must produce, from the specification: the
    /// exact least-loaded scan for the candidates, `utility.rs` for the
    /// profits.
    fn expected_candidates(
        &self,
        view: UserId,
        replica: Replica,
        out: &dyn TrafficSink,
    ) -> (i64, Vec<Candidate>) {
        let sidx = replica.server();
        let stats = self.servers[sidx].stats(replica.slot());
        let topology = &self.topology;
        let server = self.servers[sidx].machine();
        let write_proxy = self.users[view.as_usize()].write_proxy.machine();
        let replicas = &self.users[view.as_usize()].replicas;
        let nearest = self.nearest_other_replica(view, sidx).unwrap_or(server);
        let mut candidates = Vec::new();
        for (origin, _) in stats.reads() {
            let candidate = match origin {
                SubtreeId::Machine(m) => topology.server_ordinal(MachineId::new(m)).filter(|&i| {
                    topology.is_live(MachineId::new(m)) && self.replica_on(view, i).is_none()
                }),
                _ => self.least_loaded_scan(origin, replicas),
            };
            let Some(candidate) = candidate else { continue };
            let machine = self.servers[candidate].machine();
            let penalty = self.rack_congestion_penalty(out, machine);
            candidates.push(Candidate {
                server: candidate,
                threshold: self.admission_threshold_of(origin),
                creation_profit: estimate_creation_profit(
                    topology,
                    stats,
                    machine,
                    server,
                    write_proxy,
                ) - penalty,
                position_profit: estimate_profit(topology, stats, machine, nearest, write_proxy)
                    - penalty,
            });
        }
        let keep = estimate_profit(topology, stats, server, nearest, write_proxy);
        (keep, candidates)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) The gathered candidates and their profits equal the
    /// specification for random statistics on tree and flat topologies,
    /// with dead machines among the origins and candidates, and with
    /// replica sets that exhaust a rack's candidate set.
    #[test]
    fn gathered_candidates_match_the_specification(
        shape in (proptest::bool::ANY, 20u32..150),
        fill in (0u32..6, 0usize..3),
        replica_picks in proptest::collection::vec((0u32..10_000, 0u32..10_000), 0..40),
        dead_picks in proptest::collection::vec(0u32..10_000, 0..4),
        stat_picks in proptest::collection::vec((0u32..10_000, (0u32..10_000, 1u32..40)), 1..80),
        flags in (proptest::bool::ANY, proptest::bool::ANY),
    ) {
        let (flat, extra) = shape;
        let (congested, tick) = flags;
        let graph = SocialGraph::generate(GraphPreset::FacebookLike, USERS, 3).unwrap();
        let topology = test_topology(flat);
        let mut engine = test_engine(&graph, &topology, extra);
        let mut out = RecordingSink { congested, ..RecordingSink::default() };
        let servers = engine.servers.len();
        // A few hot views collect most of the replicas and statistics.
        let hot = |pick: u32| UserId::new(pick % 6);

        // View 0 covers rack `fill.0` except its last `fill.1` servers: the
        // rack's candidate set is exhausted (nothing eligible) or its
        // truncated top-K list is (exact-scan fallback).
        let rack_servers = topology.servers_in_subtree_slice(SubtreeId::Rack(fill.0)).len();
        for server in topology
            .servers_in_subtree_slice(SubtreeId::Rack(fill.0))
            .iter()
            .take(rack_servers.saturating_sub(fill.1))
        {
            let target = topology.server_ordinal(server.machine()).unwrap();
            let source = engine.users[0].replicas[0].server();
            engine.create_replica(UserId::new(0), source, target, &mut out);
        }
        for &(view, target) in &replica_picks {
            let source = engine.users[hot(view).as_usize()].replicas[0].server();
            engine.create_replica(hot(view), source, target as usize % servers, &mut out);
        }
        for &pick in &dead_picks {
            let machine = MachineId::new(pick % topology.machine_count() as u32);
            engine.on_cluster_change(ClusterEvent::MachineDown { machine }, &mut out).unwrap();
        }
        for &(view, (pick, reads)) in &stat_picks {
            let view = hot(view);
            let replicas = &engine.users[view.as_usize()].replicas;
            if replicas.is_empty() {
                continue; // Lost to the failures and not recoverable.
            }
            let replica = replicas[pick as usize % replicas.len()];
            let origin = origin_from_pick(&topology, pick);
            let stats = engine.servers[replica.server()].stats_mut(replica.slot());
            stats.record_reads(origin, reads as u64);
            if pick % 3 == 0 {
                stats.record_write();
            }
        }
        if tick {
            // Non-zero admission thresholds (and an eviction sweep).
            engine.on_tick(SimTime::from_hours(1), &mut out);
        }

        let mut costs = OriginCosts::new(&engine.topology);
        let mut candidates = Vec::new();
        let mut compared = 0;
        for view in (0..6).map(UserId::new) {
            for replica in engine.users[view.as_usize()].replicas.clone() {
                let keep = engine.gather_candidates(view, replica, &out, &mut costs, &mut candidates);
                let expected = engine.expected_candidates(view, replica, &out);
                prop_assert_eq!(
                    (keep, candidates.clone()),
                    expected,
                    "view {} on server {}", view, replica.server()
                );
                compared += candidates.len();
                costs.clear();
                candidates.clear();
            }
        }
        prop_assert!(compared > 0 || engine.users[..6].iter().all(|u| u.replicas.is_empty()));
    }
}

/// Drives `engine` through a seeded mix of feed reads (evaluated by the
/// reference path if `reference`), writes, hourly ticks, a machine failure
/// and repair, (on a tree) elastic growth and a drain, and returns
/// everything observable: the full message and trace streams and the final
/// placement. Every 100 steps every cached utility and eviction victim is
/// checked against the rescan.
fn seeded_run(
    engine: &mut DynaSoReEngine,
    graph: &SocialGraph,
    congested: bool,
    reference: bool,
) -> (
    RecordingSink,
    Vec<Vec<MachineId>>,
    Vec<(BrokerId, BrokerId)>,
) {
    let mut out = RecordingSink {
        congested,
        ..RecordingSink::default()
    };
    let users = graph.user_count() as u32;
    let victim = engine.servers[2].machine();
    let drained = engine.servers[5].machine();
    for step in 0..6_000u32 {
        let user = UserId::new(step.wrapping_mul(7_919) % users);
        let time = SimTime::from_secs(step as u64 * 30);
        if step % 5 == 4 {
            engine.handle_write(user, time, &mut out);
        } else if reference {
            engine.read_targets_reference(user, graph.followees(user), &mut out);
        } else {
            engine.handle_read(user, graph.followees(user), time, &mut out);
        }
        if step % 120 == 119 {
            engine.on_tick(time, &mut out);
        }
        let event = match step {
            1_500 => Some(ClusterEvent::MachineDown { machine: victim }),
            2_500 => Some(ClusterEvent::MachineUp { machine: victim }),
            // Growth before the drain: the drain deals sole replicas across
            // all racks, so the new rack's servers get evaluated too.
            3_500 => Some(ClusterEvent::AddRack),
            4_500 => Some(ClusterEvent::DrainMachine { machine: drained }),
            _ => None,
        };
        if let Some(event) = event {
            // A flat layout refuses to grow, which changes nothing.
            let _ = engine.on_cluster_change(event, &mut out);
        }
        if step % 100 == 0 {
            assert_cache_matches_rescan(engine, &format!("step {step}")).unwrap();
        }
    }
    let placement = graph.users().map(|u| engine.replica_servers(u)).collect();
    let proxies = graph
        .users()
        .map(|u| {
            (
                engine.read_proxy(u).unwrap(),
                engine.write_proxy(u).unwrap(),
            )
        })
        .collect();
    (out, placement, proxies)
}

/// (c) Same seed, same requests: the engine and a twin whose reads use the
/// reference evaluation produce the same message stream, the same trace
/// stream and the same final placement — on a tree and on a flat cluster,
/// with memory tight enough that creations fail and fall through to
/// Algorithm 3, with and without congestion penalties.
#[test]
fn linear_evaluation_replays_the_reference_run_exactly() {
    let graph = SocialGraph::generate(GraphPreset::FacebookLike, USERS, 3).unwrap();
    for (flat, extra, congested) in [
        (false, 10, false),
        (false, 40, false),
        (false, 40, true),
        (true, 25, false),
    ] {
        let topology = test_topology(flat);
        let mut linear = test_engine(&graph, &topology, extra);
        let mut reference = linear.clone();
        let (out, placement, proxies) = seeded_run(&mut linear, &graph, congested, false);
        let (ref_out, ref_placement, ref_proxies) =
            seeded_run(&mut reference, &graph, congested, true);
        let context = format!("flat={flat} extra={extra} congested={congested}");
        assert!(
            out.traces
                .iter()
                .any(|t| matches!(t, TraceEventKind::ReplicaCreated { .. })),
            "{context}: the run made no placement decisions"
        );
        assert_eq!(out.messages.len(), ref_out.messages.len(), "{context}");
        assert!(
            out.messages == ref_out.messages,
            "{context}: message streams differ"
        );
        assert!(
            out.traces == ref_out.traces,
            "{context}: trace streams differ"
        );
        assert!(
            out.unlinked == ref_out.unlinked,
            "{context}: unlink streams differ"
        );
        assert_eq!(placement, ref_placement, "{context}");
        assert_eq!(proxies, ref_proxies, "{context}");
        assert_eq!(
            linear.unreachable_reads, reference.unreachable_reads,
            "{context}"
        );
    }
}

/// The statistics' heap follows the traffic in the window — origin keys and
/// non-zero period counters — and not window × origins, which a dense ring
/// per origin would cost.
#[test]
fn statistics_heap_is_proportional_to_the_traffic_in_the_window() {
    let graph = SocialGraph::generate(GraphPreset::FacebookLike, USERS, 3).unwrap();
    let mut engine = test_engine(&graph, &test_topology(false), 40);
    let mut out = seeded_run(&mut engine, &graph, false, false).0;
    // Quiet hours: most of the busy run leaves the window, a few reads per
    // period enter it.
    for hour in 0..20u32 {
        for user in (0..8).map(|i| UserId::new((hour * 8 + i) % USERS as u32)) {
            engine.handle_read(user, graph.followees(user), SimTime::ZERO, &mut out);
        }
        engine.on_tick(SimTime::ZERO, &mut out);
    }
    let (mut replicas, mut origins, mut cells) = (0, 0, 0);
    for (_, stats) in engine.servers.iter().flat_map(ServerState::views) {
        replicas += 1;
        origins += stats.reads().count();
        cells += stats.cell_count();
    }
    assert!(origins > 0 && cells > origins, "the run left no statistics");
    // `slack` is the capacity the list may hold beyond its length: 8 bytes
    // per origin, 4 per cell.
    let slack = 4;
    let bound = slack * (8 * origins + 4 * cells);
    assert!(engine.stats_heap_bytes() <= bound);
    // A ring of period counters for the writes and for each origin of every
    // replica would not pass.
    let dense = 8 * COUNTER_SLOTS * (replicas + origins);
    assert!(bound < dense, "{bound} bounds nothing: rings cost {dense}");
}
