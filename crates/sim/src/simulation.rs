//! The trace-driven cluster simulation.

use dynasore_graph::SocialGraph;
use dynasore_topology::{Switch, Topology, TopologyKind, TrafficAccount};
use dynasore_types::{
    ClusterEvent, CountingSink, Error, Latency, LatencyHistogram, MachineId, Message, NetworkModel,
    PlacementEngine, Result, SimTime, SubtreeId, TimedClusterEvent, TraceEventKind, TrafficSink,
    HOUR_SECS, NANOS_PER_SEC,
};
use dynasore_workload::{GraphMutation, Request, TimedMutation};

use crate::durable_tier::{DurableIoStats, SimDurableTier};
use crate::obs::SimObs;
use crate::report::{LatencyStats, ReliabilityStats, SimReport};

/// A [`TrafficSink`] that charges every message to the switches on its path
/// the moment the engine emits it — the simulation never materializes a
/// message buffer, so the per-request accounting path is allocation-free.
///
/// Under a finite [`NetworkModel`] each message additionally samples its
/// end-to-end latency from the per-switch queues; `request_latency` keeps
/// the slowest *application-class* sample of the current request (a read
/// fans out to its target servers in parallel, so the slowest leg gates the
/// response). Protocol messages — replica transfers, routing updates and
/// other control-plane work an engine may kick off while serving a request
/// — still charge the queues they cross (they consume real bandwidth) but
/// never count towards the request's response time: they complete
/// asynchronously, off the read's critical path. Finally,
/// [`TrafficSink::congestion`] answers placement engines from the live
/// queue state, closing the loop for congestion-aware replica placement.
struct AccountingSink<'a> {
    topology: &'a Topology,
    counters: &'a mut RunCounters,
    time: SimTime,
    request_latency: Latency,
    /// Optional flight recorder for the engine's `trace` events. `None` —
    /// the default — makes `trace` a no-op, so unobserved runs do exactly
    /// what they did before observability existed.
    obs: Option<&'a mut SimObs>,
}

/// What the sinks of one run accumulate: the traffic account and the
/// message tally of the report.
struct RunCounters {
    traffic: TrafficAccount,
    messages: CountingSink,
}

impl RunCounters {
    /// The sink for whatever the engine emits at `time`.
    fn sink<'a>(
        &'a mut self,
        topology: &'a Topology,
        obs: Option<&'a mut SimObs>,
        time: SimTime,
    ) -> AccountingSink<'a> {
        AccountingSink {
            topology,
            counters: self,
            time,
            request_latency: Latency::ZERO,
            obs,
        }
    }
}

impl TrafficSink for AccountingSink<'_> {
    fn record(&mut self, message: Message) {
        self.counters.messages.record(message);
        if message.is_local() {
            return;
        }
        let latency = self.topology.record_path_timed(
            message.from,
            message.to,
            message.class,
            self.time,
            &mut self.counters.traffic,
        );
        if message.class.is_application() && latency > self.request_latency {
            self.request_latency = latency;
        }
    }

    fn congestion(&self, subtree: SubtreeId) -> Latency {
        let switch = match subtree {
            SubtreeId::Root => Switch::Top,
            SubtreeId::Intermediate(i) => Switch::Intermediate(i),
            SubtreeId::Rack(r) => Switch::Rack(r),
            SubtreeId::Machine(m) => match self.topology.rack_of(MachineId::new(m)) {
                Ok(rack) => Switch::Rack(rack.index()),
                Err(_) => return Latency::ZERO,
            },
        };
        self.counters.traffic.queued_delay(switch, self.time)
    }

    fn trace(&mut self, event: TraceEventKind) {
        if let Some(obs) = self.obs.as_mut() {
            obs.trace(self.time.as_secs().saturating_mul(NANOS_PER_SEC), event);
        }
    }
}

/// Interval between engine maintenance ticks (counter rotation, threshold
/// refresh, eviction sweeps): the paper rotates statistics hourly (§4.3).
const TICK_SECS: u64 = HOUR_SECS;

/// One scheduled change to the simulated world.
#[derive(Debug, Clone, Copy)]
enum Change {
    Graph(GraphMutation),
    Cluster(ClusterEvent),
}

/// Drives a request trace through a [`PlacementEngine`] over a [`Topology`]
/// and measures the traffic of every switch.
///
/// The simulation shares the caller's social graph and copies it only when a
/// scheduled mutation (flash events, §4.6) first applies mid-run, so the
/// caller's graph never changes; read requests look up the *current*
/// followee list at execution time.
#[derive(Debug)]
pub struct Simulation<E> {
    topology: Topology,
    engine: E,
    graph: SocialGraph,
    /// Graph mutations and cluster events in the order they apply: by
    /// time, a mutation before an event due at the same instant, and each
    /// kind in its schedule order.
    schedule: Vec<(SimTime, Change)>,
    /// The time model the run charges switch queues under; without
    /// [`Simulation::with_network`], the degenerate
    /// [`NetworkModel::infinite`]: no queueing, zero latency samples, unit
    /// counts only.
    network: NetworkModel,
    durable: Option<SimDurableTier>,
    obs: Option<SimObs>,
}

impl<E: PlacementEngine> Simulation<E> {
    /// Creates a simulation over `topology` driving `engine`, sharing
    /// `graph` (see [`SocialGraph`]: a clone is `O(1)` and copy-on-write).
    pub fn new(topology: Topology, engine: E, graph: &SocialGraph) -> Self {
        Simulation {
            topology,
            engine,
            graph: graph.clone(),
            schedule: Vec::new(),
            network: NetworkModel::infinite(),
            durable: None,
            obs: None,
        }
    }

    /// Schedules social-graph mutations to be applied during the run
    /// (unsorted input is accepted and sorted by time). A second call adds
    /// to the schedule; it does not replace the first.
    pub fn with_mutations(self, mutations: Vec<TimedMutation>) -> Self {
        let changes = mutations
            .into_iter()
            .map(|m| (m.time, Change::Graph(m.mutation)));
        self.schedule(changes)
    }

    /// Schedules a failure/elasticity schedule: machine and rack outages,
    /// drains and capacity additions applied at their due times, interleaved
    /// deterministically with the request trace and the graph mutations.
    /// Unsorted input is accepted and sorted by time; events due at the same
    /// time apply in schedule order, after any mutation due then. Events
    /// dated after the last request do not fire (the simulation ends with
    /// the trace). A second call adds to the schedule; it does not replace
    /// the first.
    pub fn with_cluster_events(self, events: Vec<TimedClusterEvent>) -> Self {
        let changes = events
            .into_iter()
            .map(|e| (e.time, Change::Cluster(e.event)));
        self.schedule(changes)
    }

    fn schedule(mut self, changes: impl Iterator<Item = (SimTime, Change)>) -> Self {
        self.schedule.extend(changes);
        // Stable: equal keys keep the order they were scheduled in.
        self.schedule
            .sort_by_key(|&(time, change)| (time, matches!(change, Change::Cluster(_))));
        self
    }

    /// Runs the simulation under a time-aware [`NetworkModel`]: switch
    /// queues fill and drain, every read samples a latency, and the report
    /// gains meaningful percentiles and congestion-collapse detection.
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Mirrors the run into a durable tier (optional file-backed recovery
    /// path): every write request is appended to `tier`, and each cluster
    /// event that makes the engine fetch lost views from the persistent
    /// store triggers a sync-and-replay of the tier, so the report's
    /// [`DurableIoStats`] measure recovery from real bytes instead of
    /// message counts alone. Without this call, runs are byte-identical to
    /// the historical tier-less behaviour.
    pub fn with_durable_tier(mut self, tier: SimDurableTier) -> Self {
        self.durable = Some(tier);
        self
    }

    /// Attaches a flight-recorder observer. The run records engine trace
    /// events (replica lifecycle, cluster changes) stamped with simulated
    /// time plus a per-tick sampling pass (availability, switch-queue
    /// gauges, per-shard durable lag, collapse onset) into the observer,
    /// retrievable afterwards with [`Simulation::take_observer`].
    ///
    /// Observation is a write-only side channel: an observed run produces a
    /// [`SimReport`] equal to an unobserved one, and without this call the
    /// simulation takes the structurally identical pre-observability path.
    pub fn with_observer(mut self, obs: SimObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&SimObs> {
        self.obs.as_ref()
    }

    /// Detaches and returns the observer (with everything recorded so far).
    pub fn take_observer(&mut self) -> Option<SimObs> {
        self.obs.take()
    }

    /// The engine being driven.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The simulation's current view of the social graph.
    pub fn graph(&self) -> &SocialGraph {
        &self.graph
    }

    /// The topology the simulation runs on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Runs the whole trace and returns the measurements.
    ///
    /// # Errors
    ///
    /// Propagates engine or configuration errors (none are produced by the
    /// built-in engines, but custom engines may fail).
    pub fn run<I>(&mut self, trace: I) -> Result<SimReport>
    where
        I: IntoIterator<Item = Request>,
    {
        self.run_with_probe(trace, u64::MAX, |_, _, _| {})
    }

    /// Runs the trace, invoking `probe` every `probe_secs` of simulated time
    /// with the current time, engine and graph. Used by experiments that
    /// track engine state over time (e.g. the replica count of a view during
    /// a flash event, Figure 5).
    ///
    /// Before each request, the scheduled changes and engine ticks due by its
    /// time run in time order (a change before a tick of the same time, and
    /// changes of one time in schedule order), then the due probes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] before anything runs when
    /// `probe_secs` is 0, and propagates engine or configuration errors.
    pub fn run_with_probe<I, F>(
        &mut self,
        trace: I,
        probe_secs: u64,
        mut probe: F,
    ) -> Result<SimReport>
    where
        I: IntoIterator<Item = Request>,
        F: FnMut(SimTime, &E, &SocialGraph),
    {
        if probe_secs == 0 {
            return Err(Error::invalid_config("probe_secs must be at least 1"));
        }
        let mut counters = RunCounters {
            traffic: TrafficAccount::new(self.network),
            messages: CountingSink::default(),
        };
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut read_targets = 0u64;
        let mut read_latency = LatencyHistogram::new();
        let mut write_latency = LatencyHistogram::new();
        let mut durable_io = DurableIoStats::default();
        let mut durable_syncs = 0u64;

        // (time, cumulative unreachable, cumulative read_targets) at each
        // tick boundary from the implicit t=0 origin: adjacent pairs are the
        // ticks the reliability stats are read from.
        let mut tick_snaps: Vec<(SimTime, u64, u64)> = vec![(SimTime::ZERO, 0, 0)];

        let mut next_change = 0usize;
        let mut next_tick = TICK_SECS;
        let mut next_probe = probe_secs;
        let mut now = SimTime::ZERO;

        for request in trace {
            now = request.time;

            // The changes and engine ticks due by now, in time order; a
            // change applies before a tick of the same time. For a cluster
            // event the driver's own topology copy is updated first so that
            // traffic accounting knows about machines added at runtime; the
            // engine then reacts through its cluster-change hook, reporting
            // any recovery traffic inline.
            loop {
                let due = request.time.min(SimTime::from_secs(next_tick));
                let next = self.schedule.get(next_change);
                if let Some(&(time, change)) = next.filter(|&&(time, _)| time <= due) {
                    next_change += 1;
                    match change {
                        Change::Graph(mutation) => {
                            match mutation {
                                GraphMutation::AddEdge { follower, followee } => {
                                    let _ = self.graph.try_add_edge(follower, followee);
                                }
                                GraphMutation::RemoveEdge { follower, followee } => {
                                    self.graph.remove_edge(follower, followee);
                                }
                            }
                            let mut sink = counters.sink(&self.topology, self.obs.as_mut(), time);
                            self.engine.on_graph_change(mutation, &mut sink);
                        }
                        Change::Cluster(event) => {
                            self.topology.apply_cluster_event(event)?;
                            let recovery_before = counters.messages.persistent;
                            let mut sink = counters.sink(&self.topology, self.obs.as_mut(), time);
                            self.engine.on_cluster_change(event, &mut sink)?;
                            // The engine fetched lost views from the persistent
                            // tier: with a durable tier attached, that recovery
                            // re-reads real bytes.
                            if counters.messages.persistent > recovery_before {
                                if let Some(tier) = self.durable.as_mut() {
                                    tier.sync()?;
                                    durable_syncs += 1;
                                    let replay = tier.replay()?;
                                    durable_io.bytes_replayed += replay.total.bytes_replayed;
                                    durable_io.critical_path_bytes +=
                                        replay.max_shard_bytes_replayed();
                                    durable_io.tier_shards = replay.per_shard.len();
                                    durable_io.replays += 1;
                                    if let Some(obs) = self.obs.as_mut() {
                                        obs.trace(
                                            time.as_secs().saturating_mul(NANOS_PER_SEC),
                                            TraceEventKind::ReplayCompleted {
                                                bytes: replay.total.bytes_replayed,
                                                shards: replay.per_shard.len() as u32,
                                            },
                                        );
                                    }
                                }
                            }
                        }
                    }
                } else if next_tick <= request.time.as_secs() {
                    let tick_time = SimTime::from_secs(next_tick);
                    let mut sink = counters.sink(&self.topology, self.obs.as_mut(), tick_time);
                    self.engine.on_tick(tick_time, &mut sink);
                    // The per-tick observability sample rides the tick cadence,
                    // so its cost scales with simulated hours, not requests.
                    if let Some(obs) = self.obs.as_mut() {
                        obs.sample_tick(
                            next_tick,
                            self.engine.unreachable_reads(),
                            &self.topology,
                            &counters.traffic,
                            self.durable.as_ref(),
                            &self.network,
                        );
                    }
                    next_tick += TICK_SECS;
                    tick_snaps.push((tick_time, self.engine.unreachable_reads(), read_targets));
                } else {
                    break;
                }
            }

            // Probes.
            while next_probe <= request.time.as_secs() {
                probe(SimTime::from_secs(next_probe), &self.engine, &self.graph);
                next_probe = next_probe.saturating_add(probe_secs);
            }

            // Execute the request. Messages are accounted inline as the
            // engine emits them.
            let mut sink = counters.sink(&self.topology, self.obs.as_mut(), request.time);
            if request.is_read() {
                reads += 1;
                let targets = self.graph.followees(request.user);
                read_targets += targets.len() as u64;
                self.engine
                    .handle_read(request.user, targets, request.time, &mut sink);
                read_latency.record(sink.request_latency);
            } else {
                writes += 1;
                // Persist-then-notify, as the paper's write path does:
                // updates land in the durable tier before the caches see
                // them.
                if let Some(tier) = self.durable.as_mut() {
                    tier.append(request.user, request.time)?;
                    durable_io.appends += 1;
                }
                self.engine
                    .handle_write(request.user, request.time, &mut sink);
                write_latency.record(sink.request_latency);
            }
        }

        // Graceful shutdown: commit and fsync any batched durable appends,
        // so every write the run acknowledged survives a cold reopen of the
        // tier's files (the report's counters are unaffected — syncs are not
        // replays — but the observer's sync counter counts it).
        if let Some(tier) = self.durable.as_mut() {
            tier.sync()?;
            durable_syncs += 1;
        }

        // Final probe at the end of the trace.
        if probe_secs != u64::MAX {
            probe(now, &self.engine, &self.graph);
        }

        // Fold the run's message totals and durable I/O into the observer's
        // registry (counters the per-message hot path deliberately skips).
        if let Some(obs) = self.obs.as_mut() {
            obs.finish_run(
                &counters.messages,
                self.durable.as_ref().map(|_| (&durable_io, durable_syncs)),
            );
        }

        // Close the last (partial) tick at the end of the run, then find
        // the tick with the highest unserved fraction and the last tick
        // that added unreachable reads. Ratios are compared by u128
        // cross-multiplication: no floats touch the report's integers.
        tick_snaps.push((now, self.engine.unreachable_reads(), read_targets));
        let mut worst: (u64, u64) = (0, 0);
        let mut last_unreachable_growth = SimTime::ZERO;
        for pair in tick_snaps.windows(2) {
            let (_, unreachable_before, targets_before) = pair[0];
            let (time, unreachable, targets) = pair[1];
            let delta = (unreachable - unreachable_before, targets - targets_before);
            if delta.0 > 0 {
                last_unreachable_growth = time;
            }
            let is_worse = delta.1 > 0
                && (worst.1 == 0
                    || u128::from(delta.0) * u128::from(worst.1)
                        > u128::from(worst.0) * u128::from(delta.1));
            if is_worse {
                worst = delta;
            }
        }

        let latency = LatencyStats {
            collapsed: !self.network.is_infinite()
                && counters.traffic.max_queue_delay() >= self.network.collapse_threshold,
            max_queue_delay: counters.traffic.max_queue_delay(),
            max_switch_backlog: counters.traffic.max_switch_backlog(),
            read: read_latency,
            write: write_latency,
        };

        Ok(SimReport {
            engine_name: self.engine.name().to_string(),
            traffic: counters.traffic,
            reads,
            writes,
            messages: counters.messages,
            end_time: now,
            memory: self.engine.memory_usage(),
            switch_counts: switch_counts(&self.topology),
            reliability: ReliabilityStats {
                unreachable_reads: self.engine.unreachable_reads(),
                read_targets,
                worst_window_unreachable: worst.0,
                worst_window_read_targets: worst.1,
                last_unreachable_growth,
            },
            latency,
            durable: self.durable.as_ref().map(|_| durable_io),
        })
    }
}

/// Convenience: the number of switches per tier of a topology, `[top,
/// intermediate, rack]`, as used by [`SimReport::tier_average`].
pub fn switch_counts(topology: &Topology) -> [usize; 3] {
    match topology.kind() {
        TopologyKind::Flat => [1, 0, 0],
        TopologyKind::Tree => [1, topology.intermediate_count(), topology.rack_count()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_graph::GraphPreset;
    use dynasore_topology::Tier;
    use dynasore_types::{MachineId, MemoryUsage, UserId};
    use dynasore_workload::{FlashEventPlan, SyntheticTraceGenerator};

    /// Test engine: view of user `u` lives on server `u % server_count`;
    /// requests are executed by the broker in the view's rack. Ticks and
    /// graph changes emit one protocol message each so their accounting can
    /// be asserted.
    struct ModuloEngine {
        topology: Topology,
        ticks: u64,
        graph_changes: u64,
        cluster_changes: u64,
    }

    impl ModuloEngine {
        fn new(topology: Topology) -> Self {
            ModuloEngine {
                topology,
                ticks: 0,
                graph_changes: 0,
                cluster_changes: 0,
            }
        }

        fn server_of(&self, user: UserId) -> MachineId {
            let servers = self.topology.servers();
            servers[user.as_usize() % servers.len()].machine()
        }

        fn broker_of(&self, user: UserId) -> MachineId {
            self.topology
                .local_broker(self.server_of(user))
                .expect("server has a broker")
                .machine()
        }
    }

    impl PlacementEngine for ModuloEngine {
        fn name(&self) -> &str {
            "modulo"
        }

        fn handle_read(
            &mut self,
            user: UserId,
            targets: &[UserId],
            _time: SimTime,
            out: &mut dyn TrafficSink,
        ) {
            let broker = self.broker_of(user);
            for &t in targets {
                let server = self.server_of(t);
                out.record(Message::application(broker, server));
                out.record(Message::application(server, broker));
            }
        }

        fn handle_write(&mut self, user: UserId, _time: SimTime, out: &mut dyn TrafficSink) {
            let broker = self.broker_of(user);
            out.record(Message::application(broker, self.server_of(user)));
        }

        fn on_tick(&mut self, _time: SimTime, out: &mut dyn TrafficSink) {
            self.ticks += 1;
            let brokers = self.topology.brokers();
            out.record(Message::protocol(
                brokers[0].machine(),
                brokers[1].machine(),
            ));
        }

        fn on_graph_change(&mut self, _mutation: GraphMutation, out: &mut dyn TrafficSink) {
            self.graph_changes += 1;
            let brokers = self.topology.brokers();
            out.record(Message::protocol(
                brokers[0].machine(),
                brokers[0].machine(),
            ));
        }

        fn on_cluster_change(
            &mut self,
            _event: dynasore_types::ClusterEvent,
            out: &mut dyn TrafficSink,
        ) -> Result<()> {
            self.cluster_changes += 1;
            // One recovery fetch per event so the accounting can be
            // asserted.
            out.record(Message::persistent_fetch(
                self.topology.servers()[0].machine(),
            ));
            Ok(())
        }

        fn unreachable_reads(&self) -> u64 {
            self.cluster_changes // Arbitrary nonzero value to test plumbing.
        }

        fn replica_count(&self, _user: UserId) -> usize {
            1
        }

        fn memory_usage(&self) -> MemoryUsage {
            MemoryUsage {
                used_slots: 42,
                capacity_slots: 100,
            }
        }
    }

    fn small_setup() -> (SocialGraph, Topology) {
        let graph = SocialGraph::generate(GraphPreset::TwitterLike, 120, 3).unwrap();
        let topology = Topology::tree(2, 2, 4, 1).unwrap();
        (graph, topology)
    }

    #[test]
    fn run_counts_requests_and_traffic() {
        let (graph, topology) = small_setup();
        let engine = ModuloEngine::new(topology.clone());
        let trace = SyntheticTraceGenerator::paper_defaults(&graph, 1, 5).unwrap();
        let expected_requests = trace.request_count();
        let mut sim = Simulation::new(topology, engine, &graph);
        let report = sim.run(trace).unwrap();
        assert_eq!(
            report.read_count() + report.write_count(),
            expected_requests
        );
        assert!(report.traffic().grand_total() > 0);
        assert!(report.top_switch_total() > 0);
        assert_eq!(report.engine_name(), "modulo");
        assert_eq!(report.memory_usage().used_slots, 42);
        // Hourly ticks over one day of trace.
        assert!(sim.engine().ticks >= 22, "ticks: {}", sim.engine().ticks);
    }

    #[test]
    fn local_messages_produce_no_switch_traffic() {
        let (graph, topology) = small_setup();
        // Flat single-rack topology variant: use a tree where the engine
        // sends machine-local protocol messages on graph change (see
        // ModuloEngine::on_graph_change) and verify they are counted as
        // messages but not as traffic.
        let engine = ModuloEngine::new(topology.clone());
        let plan = FlashEventPlan::random(
            &graph,
            UserId::new(0),
            5,
            SimTime::from_secs(10),
            SimTime::from_secs(20),
            1,
        )
        .unwrap();
        let trace = vec![
            Request::read(SimTime::from_secs(5), UserId::new(1)),
            Request::read(SimTime::from_secs(30), UserId::new(2)),
        ];
        let mut sim = Simulation::new(topology, engine, &graph).with_mutations(plan.mutations());
        let report = sim.run(trace).unwrap();
        // 10 mutations (5 adds + 5 removes) → 10 local protocol messages.
        assert_eq!(sim.engine().graph_changes, 10);
        assert_eq!(report.total_protocol_messages(), 10);
        // Local protocol messages cross no switch.
        assert_eq!(report.traffic().tier_total(Tier::Top).protocol, 0);
    }

    #[test]
    fn mutations_change_read_targets() {
        // User 0 follows nobody initially; after the mutation she follows
        // user 1, so her second read generates traffic.
        let mut graph = SocialGraph::new(4);
        graph.add_edge(UserId::new(2), UserId::new(3));
        let topology = Topology::tree(2, 2, 4, 1).unwrap();
        let engine = ModuloEngine::new(topology.clone());
        let mutation = TimedMutation {
            time: SimTime::from_secs(50),
            mutation: GraphMutation::AddEdge {
                follower: UserId::new(0),
                followee: UserId::new(1),
            },
        };
        let trace = vec![
            Request::read(SimTime::from_secs(10), UserId::new(0)),
            Request::read(SimTime::from_secs(100), UserId::new(0)),
        ];
        let mut sim = Simulation::new(topology, engine, &graph).with_mutations(vec![mutation]);
        let report = sim.run(trace).unwrap();
        // Only the second read touched a followee: 2 application messages.
        assert_eq!(report.total_application_messages(), 2);
    }

    #[test]
    fn probe_is_invoked_periodically() {
        let (graph, topology) = small_setup();
        let engine = ModuloEngine::new(topology.clone());
        let trace = SyntheticTraceGenerator::paper_defaults(&graph, 1, 7).unwrap();
        let mut sim = Simulation::new(topology, engine, &graph);
        let mut probes = 0usize;
        let report = sim
            .run_with_probe(trace, 6 * HOUR_SECS, |_, engine, graph| {
                probes += 1;
                assert_eq!(engine.replica_count(UserId::new(0)), 1);
                assert_eq!(graph.user_count(), 120);
            })
            .unwrap();
        // 4 probes within the day (6h, 12h, 18h) — at least 3 — plus the
        // final probe at the end of the trace.
        assert!(probes >= 4, "probes: {probes}");
        assert!(report.end_time().as_secs() > 0);
    }

    #[test]
    fn cluster_events_fire_in_time_order_and_are_accounted() {
        let (graph, topology) = small_setup();
        let engine = ModuloEngine::new(topology.clone());
        let victim = topology.servers()[0].machine();
        let events = vec![
            TimedClusterEvent {
                time: SimTime::from_secs(200),
                event: dynasore_types::ClusterEvent::MachineUp { machine: victim },
            },
            TimedClusterEvent {
                time: SimTime::from_secs(50),
                event: dynasore_types::ClusterEvent::MachineDown { machine: victim },
            },
            // Dated after the last request: must not fire.
            TimedClusterEvent {
                time: SimTime::from_secs(10_000),
                event: dynasore_types::ClusterEvent::AddRack,
            },
        ];
        let trace = vec![
            Request::read(SimTime::from_secs(10), UserId::new(1)),
            Request::read(SimTime::from_secs(300), UserId::new(2)),
        ];
        let mut sim = Simulation::new(topology.clone(), engine, &graph).with_cluster_events(events);
        let report = sim.run(trace).unwrap();
        // Both due events fired (unsorted input was sorted), the late one
        // did not.
        assert_eq!(sim.engine().cluster_changes, 2);
        // The driver's topology tracked the liveness flips: down then up.
        assert!(sim.topology().is_live(victim));
        assert_eq!(sim.topology().rack_count(), topology.rack_count());
        // Each event's persistent fetch was counted as recovery traffic and
        // charged through the top switch.
        assert_eq!(report.recovery_messages(), 2);
        assert!(report.traffic().tier_total(Tier::Top).protocol >= 2);
        // The engine's unreachable counter is surfaced, and availability is
        // derived from it.
        assert_eq!(report.unreachable_reads(), 2);
        assert!(report.availability() < 1.0);
        assert!(report.reliability().read_targets > 0);
    }

    #[test]
    fn worst_window_availability_exposes_blackouts_the_run_average_hides() {
        // User 0 follows users 1 and 2: every read attempts 2 targets.
        let mut graph = SocialGraph::new(4);
        graph.add_edge(UserId::new(0), UserId::new(1));
        graph.add_edge(UserId::new(0), UserId::new(2));
        let topology = Topology::tree(2, 2, 4, 1).unwrap();
        let engine = ModuloEngine::new(topology.clone());
        let victim = topology.servers()[0].machine();
        // Quiet first tick (4 targets), then a cluster event (ModuloEngine
        // reports one unreachable read per event) inside the second tick
        // window (4 targets).
        let events = vec![TimedClusterEvent {
            time: SimTime::from_secs(5_000),
            event: dynasore_types::ClusterEvent::MachineDown { machine: victim },
        }];
        let trace = vec![
            Request::read(SimTime::from_secs(100), UserId::new(0)),
            Request::read(SimTime::from_secs(200), UserId::new(0)),
            Request::read(SimTime::from_secs(4_000), UserId::new(0)),
            Request::read(SimTime::from_secs(6_000), UserId::new(0)),
        ];
        let mut sim = Simulation::new(topology, engine, &graph).with_cluster_events(events);
        let report = sim.run(trace).unwrap();
        // Run-average: 1 unreachable over 8 targets.
        assert!((report.availability() - 0.875).abs() < 1e-12);
        // Worst single-tick window: the 1 unreachable landed among the 4
        // targets after the first hourly tick.
        assert_eq!(report.reliability().worst_window_unreachable, 1);
        assert_eq!(report.reliability().worst_window_read_targets, 4);
        assert!((report.worst_window_availability() - 0.75).abs() < 1e-12);
        assert!(report.worst_window_availability() < report.availability());
        // No tick closed after the growth: the run's end dates it.
        assert_eq!(
            report.reliability().last_unreachable_growth,
            SimTime::from_secs(6_000)
        );
    }

    #[test]
    fn last_unreachable_growth_is_read_at_tick_resolution() {
        let (graph, topology) = small_setup();
        let victim = topology.servers()[0].machine();
        let trace = vec![
            Request::read(SimTime::from_secs(100), UserId::new(0)),
            Request::read(SimTime::from_secs(6_000), UserId::new(0)),
            Request::read(SimTime::from_secs(8_000), UserId::new(0)),
        ];
        // ModuloEngine counts one unreachable read per cluster event: the
        // event at t=5000 lands in the tick that closes at t=7200, although
        // the read at t=6000 is the first to see both it and the tick that
        // closes at t=3600.
        let events = vec![TimedClusterEvent {
            time: SimTime::from_secs(5_000),
            event: dynasore_types::ClusterEvent::MachineDown { machine: victim },
        }];
        let report = Simulation::new(
            topology.clone(),
            ModuloEngine::new(topology.clone()),
            &graph,
        )
        .with_cluster_events(events)
        .run(trace.clone())
        .unwrap();
        assert_eq!(
            report.reliability().last_unreachable_growth,
            SimTime::from_secs(2 * TICK_SECS)
        );
        let quiet = Simulation::new(topology.clone(), ModuloEngine::new(topology), &graph)
            .run(trace)
            .unwrap();
        assert_eq!(quiet.reliability().last_unreachable_growth, SimTime::ZERO);
    }

    #[test]
    fn zero_probe_interval_is_rejected_before_anything_runs() {
        let (graph, topology) = small_setup();
        let trace = vec![Request::read(SimTime::from_secs(10), UserId::new(1))];
        let mut sim = Simulation::new(topology.clone(), ModuloEngine::new(topology), &graph);
        let mut probes = 0u32;
        let result = sim.run_with_probe(trace, 0, |_, _, _| {
            probes += 1;
            // A zero interval never advances the next probe time: cap the
            // calls so that bug fails here instead of spinning forever.
            assert!(probes < 1_000, "the probe loop does not advance");
        });
        assert!(matches!(
            result,
            Err(dynasore_types::Error::InvalidConfig(_))
        ));
        assert_eq!(probes, 0);
        assert_eq!(sim.engine().ticks + sim.engine().graph_changes, 0);
    }

    /// Records the order in which schedule callbacks fire, to pin the
    /// merged mutation/event interleaving.
    struct OrderRecorder {
        log: std::cell::RefCell<Vec<&'static str>>,
    }

    impl PlacementEngine for OrderRecorder {
        fn name(&self) -> &str {
            "order-recorder"
        }
        fn handle_read(
            &mut self,
            _user: UserId,
            _targets: &[UserId],
            _time: SimTime,
            _out: &mut dyn TrafficSink,
        ) {
        }
        fn handle_write(&mut self, _user: UserId, _time: SimTime, _out: &mut dyn TrafficSink) {}
        fn on_graph_change(&mut self, mutation: GraphMutation, _out: &mut dyn TrafficSink) {
            self.log.borrow_mut().push(match mutation {
                GraphMutation::AddEdge { .. } => "add-edge",
                GraphMutation::RemoveEdge { .. } => "remove-edge",
            });
        }
        fn on_cluster_change(
            &mut self,
            event: dynasore_types::ClusterEvent,
            _out: &mut dyn TrafficSink,
        ) -> Result<()> {
            self.log.borrow_mut().push(match event {
                dynasore_types::ClusterEvent::MachineDown { .. } => "machine-down",
                dynasore_types::ClusterEvent::MachineUp { .. } => "machine-up",
                _ => "other",
            });
            Ok(())
        }
        fn replica_count(&self, _user: UserId) -> usize {
            1
        }
        fn memory_usage(&self) -> MemoryUsage {
            MemoryUsage::default()
        }
    }

    #[test]
    fn mutations_and_cluster_events_merge_by_timestamp() {
        let (graph, topology) = small_setup();
        let victim = topology.servers()[0].machine();
        // Event at t=50 (machine-down) predates the mutation at t=60
        // (add-edge); both are pending at the t=100 request and must apply
        // in simulated-time order. The t=70 mutation/event tie (remove-edge,
        // machine-up) applies mutation-first.
        let mutations = vec![
            TimedMutation {
                time: SimTime::from_secs(60),
                mutation: GraphMutation::AddEdge {
                    follower: UserId::new(0),
                    followee: UserId::new(1),
                },
            },
            TimedMutation {
                time: SimTime::from_secs(70),
                mutation: GraphMutation::RemoveEdge {
                    follower: UserId::new(0),
                    followee: UserId::new(1),
                },
            },
        ];
        let events = vec![
            TimedClusterEvent {
                time: SimTime::from_secs(50),
                event: dynasore_types::ClusterEvent::MachineDown { machine: victim },
            },
            TimedClusterEvent {
                time: SimTime::from_secs(70),
                event: dynasore_types::ClusterEvent::MachineUp { machine: victim },
            },
        ];
        let engine = OrderRecorder {
            log: std::cell::RefCell::new(Vec::new()),
        };
        let trace = vec![Request::read(SimTime::from_secs(100), UserId::new(1))];
        let mut sim = Simulation::new(topology, engine, &graph)
            .with_mutations(mutations)
            .with_cluster_events(events);
        sim.run(trace).unwrap();
        assert_eq!(
            *sim.engine().log.borrow(),
            vec!["machine-down", "add-edge", "remove-edge", "machine-up"]
        );
    }

    #[test]
    fn builder_order_does_not_change_the_run() {
        let (graph, topology) = small_setup();
        let victim = topology.servers()[0].machine();
        let plan = FlashEventPlan::random(
            &graph,
            UserId::new(0),
            5,
            SimTime::from_secs(3 * HOUR_SECS),
            SimTime::from_secs(9 * HOUR_SECS),
            1,
        )
        .unwrap();
        let events = vec![
            TimedClusterEvent {
                time: SimTime::from_secs(3 * HOUR_SECS),
                event: dynasore_types::ClusterEvent::MachineDown { machine: victim },
            },
            TimedClusterEvent {
                time: SimTime::from_secs(9 * HOUR_SECS),
                event: dynasore_types::ClusterEvent::MachineUp { machine: victim },
            },
        ];
        let trace: Vec<Request> = SyntheticTraceGenerator::paper_defaults(&graph, 1, 5)
            .unwrap()
            .collect();
        let sim = || {
            Simulation::new(
                topology.clone(),
                ModuloEngine::new(topology.clone()),
                &graph,
            )
        };
        let mut mutations_first = sim()
            .with_mutations(plan.mutations())
            .with_cluster_events(events.clone());
        let mut events_first = sim()
            .with_cluster_events(events)
            .with_mutations(plan.mutations());
        let report = mutations_first.run(trace.clone()).unwrap();
        assert_eq!(report, events_first.run(trace).unwrap());
        for sim in [&mutations_first, &events_first] {
            assert_eq!(sim.engine().graph_changes, 10);
            assert_eq!(sim.engine().cluster_changes, 2);
        }
    }

    #[test]
    fn a_second_builder_call_adds_to_the_schedule() {
        let (graph, topology) = small_setup();
        let victim = topology.servers()[0].machine();
        let mutation = |time, follower| TimedMutation {
            time: SimTime::from_secs(time),
            mutation: GraphMutation::AddEdge {
                follower: UserId::new(follower),
                followee: UserId::new(1),
            },
        };
        let event = |time, event| TimedClusterEvent {
            time: SimTime::from_secs(time),
            event,
        };
        let engine = OrderRecorder {
            log: std::cell::RefCell::new(Vec::new()),
        };
        let mut sim = Simulation::new(topology, engine, &graph)
            .with_mutations(vec![mutation(20, 0)])
            .with_cluster_events(vec![event(
                10,
                dynasore_types::ClusterEvent::MachineDown { machine: victim },
            )])
            .with_mutations(vec![mutation(5, 2)])
            .with_cluster_events(vec![event(
                20,
                dynasore_types::ClusterEvent::MachineUp { machine: victim },
            )]);
        sim.run(vec![Request::read(SimTime::from_secs(30), UserId::new(3))])
            .unwrap();
        assert_eq!(
            *sim.engine().log.borrow(),
            vec!["add-edge", "machine-down", "add-edge", "machine-up"]
        );
        assert!(sim.graph().contains_edge(UserId::new(0), UserId::new(1)));
        assert!(sim.graph().contains_edge(UserId::new(2), UserId::new(1)));
    }

    #[test]
    fn add_rack_events_grow_the_accounting_topology() {
        let (graph, topology) = small_setup();
        let engine = ModuloEngine::new(topology.clone());
        let events = vec![TimedClusterEvent {
            time: SimTime::from_secs(20),
            event: dynasore_types::ClusterEvent::AddRack,
        }];
        let trace = vec![
            Request::read(SimTime::from_secs(10), UserId::new(1)),
            Request::read(SimTime::from_secs(30), UserId::new(2)),
        ];
        let mut sim = Simulation::new(topology.clone(), engine, &graph).with_cluster_events(events);
        let report = sim.run(trace).unwrap();
        assert_eq!(sim.topology().rack_count(), topology.rack_count() + 1);
        // The report's per-tier averages use the final switch counts.
        assert!(report.tier_average(Tier::Rack) >= 0.0);
    }

    #[test]
    fn finite_network_model_produces_latency_samples() {
        use dynasore_types::Bandwidth;
        let (graph, topology) = small_setup();
        let engine = ModuloEngine::new(topology.clone());
        let trace: Vec<Request> = SyntheticTraceGenerator::paper_defaults(&graph, 1, 5)
            .unwrap()
            .collect();
        // Slow switches: 1 unit takes 1 ms everywhere.
        let model = dynasore_types::NetworkModel {
            top_service: Bandwidth::units_per_sec(1_000),
            intermediate_service: Bandwidth::units_per_sec(1_000),
            rack_service: Bandwidth::units_per_sec(1_000),
            hop_latency: dynasore_types::Latency::from_micros(5),
            collapse_threshold: dynasore_types::Latency::from_secs(1),
        };
        let engine2 = ModuloEngine::new(topology.clone());
        let report_a = Simulation::new(topology.clone(), engine, &graph)
            .with_network(model)
            .run(trace.clone())
            .unwrap();
        let report_b = Simulation::new(topology.clone(), engine2, &graph)
            .with_network(model)
            .run(trace.clone())
            .unwrap();
        // Reads fan out over several 10-unit application messages, so the
        // slowest leg takes at least one service time.
        assert!(report_a.read_latency_p50() >= dynasore_types::Latency::from_millis(10));
        assert!(report_a.read_latency_p99() >= report_a.read_latency_p50());
        assert!(report_a.latency().read.len() == report_a.read_count());
        assert!(report_a.latency().write.len() == report_a.write_count());
        // Time-aware runs stay deterministic.
        assert_eq!(report_a, report_b);

        // The same trace under the infinite model samples only zeros.
        let engine3 = ModuloEngine::new(topology.clone());
        let unit_report = Simulation::new(topology, engine3, &graph)
            .run(trace)
            .unwrap();
        assert_eq!(
            unit_report.read_latency_p99(),
            dynasore_types::Latency::ZERO
        );
        assert!(!unit_report.congestion_collapsed());
        // Unit totals agree between the modes: time never changes *what*
        // crosses a switch, only *when* it gets through.
        assert_eq!(
            unit_report.traffic().grand_total(),
            report_a.traffic().grand_total()
        );
    }

    /// An engine that records the congestion feedback it sees, proving the
    /// sink exposes live queue state to placement decisions.
    struct CongestionProbe {
        topology: Topology,
        observed: std::cell::Cell<u64>,
    }

    impl PlacementEngine for CongestionProbe {
        fn name(&self) -> &str {
            "congestion-probe"
        }
        fn handle_read(
            &mut self,
            _user: UserId,
            targets: &[UserId],
            _time: SimTime,
            out: &mut dyn TrafficSink,
        ) {
            let broker = self.topology.brokers()[0].machine();
            let server = self.topology.servers()[10].machine(); // another rack
            for _ in targets {
                out.record(Message::application(broker, server));
            }
            let seen = out
                .congestion(dynasore_types::SubtreeId::Rack(0))
                .as_nanos();
            self.observed.set(self.observed.get().max(seen));
        }
        fn handle_write(&mut self, _user: UserId, _time: SimTime, _out: &mut dyn TrafficSink) {}
        fn replica_count(&self, _user: UserId) -> usize {
            1
        }
        fn memory_usage(&self) -> MemoryUsage {
            MemoryUsage::default()
        }
    }

    #[test]
    fn sink_reports_congestion_from_live_queue_state() {
        use dynasore_types::Bandwidth;
        let (graph, topology) = small_setup();
        let engine = CongestionProbe {
            topology: topology.clone(),
            observed: std::cell::Cell::new(0),
        };
        let model = dynasore_types::NetworkModel {
            top_service: Bandwidth::INFINITE,
            intermediate_service: Bandwidth::INFINITE,
            rack_service: Bandwidth::units_per_sec(10), // 1 unit = 100 ms
            hop_latency: dynasore_types::Latency::ZERO,
            collapse_threshold: dynasore_types::Latency::from_secs(1),
        };
        let trace = vec![
            Request::read(SimTime::from_secs(1), UserId::new(1)),
            Request::read(SimTime::from_secs(1), UserId::new(2)),
        ];
        let mut sim = Simulation::new(topology, engine, &graph).with_network(model);
        sim.run(trace).unwrap();
        // The second read observes the backlog the first one left behind on
        // rack 0's switch.
        assert!(sim.engine().observed.get() > 0);
    }

    #[test]
    fn switch_counts_helper() {
        let tree = Topology::paper_tree().unwrap();
        assert_eq!(switch_counts(&tree), [1, 5, 25]);
        let flat = Topology::flat(10).unwrap();
        assert_eq!(switch_counts(&flat), [1, 0, 0]);
    }
}
