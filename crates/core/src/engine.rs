//! The DynaSoRe placement engine (§3 of the paper).
//!
//! The engine tracks, for every view replica, how often it is read from each
//! part of the cluster and how often it is written, and uses those rates to
//! replicate views close to their readers (Algorithm 2), migrate them to
//! better locations (Algorithm 3), and evict replicas that stopped paying
//! for themselves, all within a fixed cluster-wide memory budget.

use dynasore_graph::SocialGraph;
use dynasore_topology::Topology;
use dynasore_types::{
    BrokerId, ClusterEvent, Error, Latency, MachineId, MemoryBudget, MemoryUsage, Message,
    PlacementEngine, ReplicaChangeReason, Result, SimTime, SubtreeId, TraceEventKind, TrafficSink,
    UserId, VIEW_TRANSFER_PROTOCOL_MESSAGES,
};
use dynasore_workload::GraphMutation;

use crate::config::InitialPlacement;
use crate::evaluation::OriginCosts;
use crate::placement::initial_assignment;
use crate::routing::{optimal_proxy_broker, TransferTally};
use crate::server::ServerState;

mod dynamics;
mod eviction;
mod load;

use eviction::ThresholdCache;
use load::LoadCache;

/// Congestion-aware placement (reproduction choice): the profit units —
/// switch crossings saved per statistics window — that one second of
/// queueing delay at a candidate rack's switch costs. Replica creation and
/// migration subtract `delay_secs × this` from a candidate's profit, so
/// replicas steer away from congested racks; unit-count sinks report zero
/// delay and leave every decision untouched.
const CONGESTION_PENALTY_PER_SEC: f64 = 500.0;

/// Per-user routing state: the brokers hosting the user's proxies and the
/// servers holding replicas of her view.
#[derive(Debug, Clone)]
struct UserState {
    read_proxy: BrokerId,
    write_proxy: BrokerId,
    /// Where this user's view is stored, sorted by server, at most one entry
    /// per server. Non-empty except while a lost view awaits recovery.
    /// Changed only by `link_replica` and `unlink_replica`.
    replicas: Vec<Replica>,
}

/// One replica of a view: the server holding it and the slab slot it
/// occupies there, so the replica's statistics are found by indexing, not
/// by a per-server lookup. 8 bytes, like the bare server index it replaced.
#[derive(Debug, Clone, Copy)]
struct Replica {
    /// Dense server index (a position in `DynaSoReEngine::servers`).
    server: u32,
    /// Slot in that server's slab ([`ServerState::insert`]).
    slot: u32,
}

impl Replica {
    fn server(self) -> usize {
        self.server as usize
    }

    fn slot(self) -> usize {
        self.slot as usize
    }
}

/// The DynaSoRe engine. Create one with [`DynaSoReEngine::builder`].
///
/// # Example
///
/// ```
/// use dynasore_core::{DynaSoReEngine, InitialPlacement};
/// use dynasore_graph::{GraphPreset, SocialGraph};
/// use dynasore_types::PlacementEngine;
/// use dynasore_topology::Topology;
/// use dynasore_types::MemoryBudget;
///
/// let graph = SocialGraph::generate(GraphPreset::TwitterLike, 500, 1).unwrap();
/// let topology = Topology::tree(2, 2, 5, 1).unwrap();
/// let engine = DynaSoReEngine::builder()
///     .topology(topology)
///     .budget(MemoryBudget::with_extra_percent(500, 30))
///     .initial_placement(InitialPlacement::Random { seed: 7 })
///     .build(&graph)
///     .unwrap();
/// assert_eq!(engine.name(), "dynasore-from-random");
/// ```
#[derive(Debug, Clone)]
pub struct DynaSoReEngine {
    name: String,
    topology: Topology,
    servers: Vec<ServerState>,
    users: Vec<UserState>,
    scratch: Scratch,
    thresholds: ThresholdCache,
    loads: LoadCache,
    /// Read targets that could not be served because the view had no live
    /// replica (only possible while the cluster lacks the capacity to
    /// re-create every lost master).
    unreachable_reads: u64,
    /// Views whose last replica was lost to a failure and re-created from
    /// the persistent tier.
    recovered_views: u64,
    /// Evaluate replicas with the per-candidate reference path the linear
    /// evaluation replaced (`engine/evaluation_tests.rs`) and pick eviction
    /// victims, sweep and set thresholds by rescanning every stored view
    /// with `replica_utility` (`engine/eviction_tests.rs`), so tests can
    /// compare whole runs against the specification.
    #[cfg(test)]
    reference_evaluation: bool,
}

/// Reusable per-request buffers: allocated once at engine construction and
/// recycled so that steady-state `handle_read`/`handle_write` perform zero
/// heap allocations.
#[derive(Debug, Clone)]
struct Scratch {
    /// Views transferred per machine during the current request (replaces a
    /// per-request `HashMap<MachineId, u64>`).
    tally: TransferTally,
    /// Per-server utility list for the admission-threshold refresh.
    utilities: Vec<f64>,
    /// Victim list for the eviction sweep.
    views: Vec<UserId>,
    /// Origins whose read history moves to a newly created replica.
    origins: Vec<SubtreeId>,
    /// Per-origin sums of the replica under evaluation.
    costs: OriginCosts,
    /// The candidate positions of the replica under evaluation.
    candidates: Vec<Candidate>,
}

/// One position Algorithms 2 and 3 consider for the replica under
/// evaluation: the least-loaded server under one of its read origins.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    /// Dense index of the candidate server.
    server: usize,
    /// Admission threshold of the origin that proposed it.
    threshold: f64,
    /// Algorithm 2: profit of *adding* a replica there
    /// ([`estimate_creation_profit`](crate::estimate_creation_profit) minus
    /// the congestion penalty).
    creation_profit: i64,
    /// Algorithm 3: profit of serving the recorded readers from there
    /// instead of from the nearest other replica
    /// ([`estimate_profit`](crate::estimate_profit) minus the congestion
    /// penalty).
    position_profit: i64,
}

/// Builder for [`DynaSoReEngine`].
#[derive(Debug, Clone)]
pub struct DynaSoReEngineBuilder {
    topology: Option<Topology>,
    budget: Option<MemoryBudget>,
    initial_placement: InitialPlacement,
}

impl Default for DynaSoReEngineBuilder {
    fn default() -> Self {
        DynaSoReEngineBuilder {
            topology: None,
            budget: None,
            initial_placement: InitialPlacement::Random { seed: 0 },
        }
    }
}

impl DynaSoReEngineBuilder {
    /// Sets the cluster topology (required).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Sets the memory budget (defaults to exactly one slot per view).
    pub fn budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the initial view placement (defaults to random with seed 0).
    pub fn initial_placement(mut self, placement: InitialPlacement) -> Self {
        self.initial_placement = placement;
        self
    }

    /// Builds the engine over `graph`. The budget's per-server capacity is
    /// rounded up, so the cluster always holds one copy of every view.
    ///
    /// # Errors
    ///
    /// Returns an error if the topology is missing, the budget does not
    /// cover the graph's users, or the initial placement cannot be
    /// computed.
    pub fn build(self, graph: &SocialGraph) -> Result<DynaSoReEngine> {
        let topology = self
            .topology
            .ok_or_else(|| Error::invalid_config("DynaSoReEngine requires a topology"))?;
        let budget = self
            .budget
            .unwrap_or_else(|| MemoryBudget::exact(graph.user_count()));
        if budget.view_count() != graph.user_count() {
            return Err(Error::invalid_config(format!(
                "memory budget covers {} views but the graph has {} users",
                budget.view_count(),
                graph.user_count()
            )));
        }
        let capacity = budget.slots_per_server(topology.server_count())?;
        let assignment = initial_assignment(&self.initial_placement, graph, &topology)?;

        // `servers[i]` mirrors `topology.servers()[i]`, so a machine's dense
        // engine index is exactly `topology.server_ordinal(machine)`.
        let mut servers: Vec<ServerState> = topology
            .servers()
            .iter()
            .map(|s| ServerState::new(s.machine(), capacity))
            .collect();

        let mut users = Vec::with_capacity(graph.user_count());
        for user in graph.users() {
            let mut sidx = assignment[user.as_usize()] as usize;
            // The initial assignment is balanced, but capacity rounding can
            // leave a server one view short of room; fall back to the least
            // loaded server in that case.
            if servers[sidx].is_full() {
                sidx = (0..servers.len())
                    .min_by_key(|&i| servers[i].len())
                    .expect("at least one server");
            }
            let slot = servers[sidx].insert(user);
            let broker = topology.local_broker(servers[sidx].machine())?;
            users.push(UserState {
                read_proxy: broker,
                write_proxy: broker,
                replicas: vec![Replica {
                    server: sidx as u32,
                    slot: slot as u32,
                }],
            });
        }

        let name = format!("dynasore-from-{}", self.initial_placement.label());
        let scratch = Scratch {
            tally: TransferTally::new(&topology),
            utilities: Vec::new(),
            views: Vec::new(),
            origins: Vec::new(),
            costs: OriginCosts::new(&topology),
            candidates: Vec::new(),
        };
        let mut engine = DynaSoReEngine {
            name,
            topology,
            servers,
            users,
            scratch,
            thresholds: ThresholdCache::default(),
            loads: LoadCache::default(),
            unreachable_reads: 0,
            recovered_views: 0,
            #[cfg(test)]
            reference_evaluation: false,
        };
        engine.rebuild_load_cache();
        engine.refresh_threshold_cache();
        Ok(engine)
    }
}

impl DynaSoReEngine {
    /// Starts building an engine.
    pub fn builder() -> DynaSoReEngineBuilder {
        DynaSoReEngineBuilder::default()
    }

    /// The topology (including its liveness mask) as this engine sees it.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Views whose last replica was lost to a failure and re-created from
    /// the persistent tier (cumulative).
    pub fn recovered_views(&self) -> u64 {
        self.recovered_views
    }

    /// The machines currently holding a replica of `user`'s view.
    pub fn replica_servers(&self, user: UserId) -> Vec<MachineId> {
        self.users
            .get(user.as_usize())
            .map(|u| {
                u.replicas
                    .iter()
                    .map(|r| self.servers[r.server()].machine())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The broker hosting `user`'s read proxy.
    pub fn read_proxy(&self, user: UserId) -> Option<BrokerId> {
        self.users.get(user.as_usize()).map(|u| u.read_proxy)
    }

    /// The broker hosting `user`'s write proxy.
    pub fn write_proxy(&self, user: UserId) -> Option<BrokerId> {
        self.users.get(user.as_usize()).map(|u| u.write_proxy)
    }

    /// Occupancy of every server, as `(machine, fraction in use)`.
    pub fn server_occupancies(&self) -> Vec<(MachineId, f64)> {
        self.servers
            .iter()
            .map(|s| (s.machine(), s.occupancy()))
            .collect()
    }

    /// The per-server view capacity derived from the memory budget.
    pub fn capacity_per_server(&self) -> usize {
        self.servers.first().map(ServerState::capacity).unwrap_or(0)
    }

    /// Bytes of heap held by the access statistics of all replicas
    /// (allocated capacity; the fixed per-slot part is not included).
    pub fn stats_heap_bytes(&self) -> usize {
        self.servers
            .iter()
            .flat_map(ServerState::views)
            .map(|(_, stats)| stats.heap_bytes())
            .sum()
    }

    /// Total reads recorded in the current statistics window across all
    /// replicas of `user`'s view. Used by the flash-event experiment to
    /// report reads per replica.
    pub fn recorded_reads(&self, user: UserId) -> u64 {
        self.users
            .get(user.as_usize())
            .map(|u| {
                u.replicas
                    .iter()
                    .map(|r| self.servers[r.server()].stats(r.slot()).total_reads())
                    .sum()
            })
            .unwrap_or(0)
    }

    /// The machine holding the replica of `user`'s view that a broker on
    /// `from` reads — the routing policy (§3.2): the replica with which it
    /// shares the lowest common ancestor, ties by machine id — or `None`
    /// for unknown users and views without a live replica.
    /// Allocation-free, unlike [`DynaSoReEngine::replica_servers`].
    pub fn closest_replica(&self, user: UserId, from: MachineId) -> Option<MachineId> {
        if user.as_usize() >= self.users.len() || !self.topology.contains(from) {
            return None;
        }
        let replicas = self.users[user.as_usize()].replicas.iter().copied();
        self.closest_of(from, replicas).map(|(_, machine)| machine)
    }

    /// The replica among `replicas` closest to `from` (LCA routing policy,
    /// ties by machine id), with its machine. Allocation-free.
    #[inline]
    fn closest_of(
        &self,
        from: MachineId,
        replicas: impl Iterator<Item = Replica>,
    ) -> Option<(Replica, MachineId)> {
        let from = self.topology.machine_path(from);
        let mut best: Option<(u32, u32, Replica)> = None;
        for replica in replicas {
            let machine = self.servers[replica.server()].machine();
            let path = self.topology.machine_path(machine);
            let key = (
                self.topology.path_distance(from, path),
                machine.index(),
                replica,
            );
            if best.is_none_or(|b| (key.0, key.1) < (b.0, b.1)) {
                best = Some(key);
            }
        }
        best.map(|(_, machine, replica)| (replica, MachineId::new(machine)))
    }

    /// The closest other replica of `view` as seen from `sidx`, if any.
    fn nearest_other_replica(&self, view: UserId, sidx: usize) -> Option<MachineId> {
        let replicas = self.users[view.as_usize()].replicas.iter().copied();
        let others = replicas.filter(|r| r.server() != sidx);
        let nearest = self.closest_of(self.servers[sidx].machine(), others);
        nearest.map(|(_, machine)| machine)
    }

    /// The replica of `view` on server `sidx`, if it has one there.
    fn replica_on(&self, view: UserId, sidx: usize) -> Option<Replica> {
        let replicas = &self.users[view.as_usize()].replicas;
        replicas.iter().copied().find(|r| r.server() == sidx)
    }

    /// Stores a replica of `view` on server `target`, first evicting the
    /// server's least useful replica if it is full. Returns `false`, with
    /// nothing changed, if the view is already there or no room can be made.
    fn admit(&mut self, view: UserId, target: usize, out: &mut dyn TrafficSink) -> bool {
        if self.replica_on(view, target).is_some() {
            return false;
        }
        // Admitting to a full server swaps one view for another: its load,
        // and with it every candidate set, ends where it started, so the
        // eviction leaves the load cache alone and the one update below
        // compares against the load before it.
        let old_len = self.servers[target].len();
        if !self.ensure_space(target, out) {
            return false;
        }
        self.link_replica(view, target);
        self.update_load_cache(target, old_len);
        true
    }

    /// Creates a replica of `view` on server `target`, copying its data from
    /// the replica on `source`. Statistics for the origins the new replica
    /// will serve are transferred from the source replica.
    fn create_replica(
        &mut self,
        view: UserId,
        source: usize,
        target: usize,
        out: &mut dyn TrafficSink,
    ) -> bool {
        if source == target || !self.admit(view, target, out) {
            return false;
        }
        let source_machine = self.servers[source].machine();
        let target_machine = self.servers[target].machine();
        let write_proxy = self.users[view.as_usize()].write_proxy.machine();

        // Control messages: the storing server asks the write proxy to
        // create the replica; the write proxy instructs the target server;
        // the view data is then transferred from the source replica.
        out.record(Message::protocol(source_machine, write_proxy));
        out.record(Message::protocol(write_proxy, target_machine));
        out.record_n(
            Message::protocol(source_machine, target_machine),
            VIEW_TRANSFER_PROTOCOL_MESSAGES,
        );
        // Routing-table updates for the brokers that will now read the new
        // replica (the brokers of the target's rack).
        if let Ok(rack) = self.topology.rack_of(target_machine) {
            let rack = SubtreeId::Rack(rack.index());
            for broker in self.topology.brokers_in_subtree_slice(rack) {
                out.record(Message::protocol(write_proxy, broker.machine()));
            }
        }

        // Hand over the read history of the origins the new replica is now
        // closest to, so the source stops proposing replicas for readers it
        // no longer serves.
        let [from, to] = [source, target].map(|sidx| {
            self.replica_on(view, sidx)
                .expect("source and target hold the view")
        });
        let mut origins = std::mem::take(&mut self.scratch.origins);
        origins.clear();
        let from_stats = self.servers[source].stats(from.slot());
        origins.extend(from_stats.reads().map(|(origin, _)| origin));
        let topology = &self.topology;
        let source_path = topology.machine_path(source_machine);
        let target_path = topology.machine_path(target_machine);
        for origin in origins.drain(..) {
            let origin_path = topology.origin_path(origin);
            if topology.path_distance(target_path, origin_path)
                < topology.path_distance(source_path, origin_path)
            {
                let moved = self.servers[source]
                    .stats_mut(from.slot())
                    .take_origin(origin);
                self.servers[target]
                    .stats_mut(to.slot())
                    .record_reads(origin, moved);
            }
        }
        self.scratch.origins = origins;
        true
    }

    /// Removes the replica of `view` stored on server `sidx`. Never removes
    /// the last replica.
    fn remove_replica(&mut self, view: UserId, sidx: usize, out: &mut dyn TrafficSink) -> bool {
        let old_len = self.servers[sidx].len();
        let removed = self.detach_replica(view, sidx, out);
        if removed {
            self.update_load_cache(sidx, old_len);
        }
        removed
    }

    /// [`DynaSoReEngine::remove_replica`] without the load-cache update: for
    /// a caller that changes the server's load again before anything reads
    /// the candidate sets, and then reports the net change itself.
    fn detach_replica(&mut self, view: UserId, sidx: usize, out: &mut dyn TrafficSink) -> bool {
        if self.users[view.as_usize()].replicas.len() <= 1 || self.replica_on(view, sidx).is_none()
        {
            return false;
        }
        let server_machine = self.servers[sidx].machine();
        let write_proxy = self.users[view.as_usize()].write_proxy.machine();
        // The write proxy is the synchronisation point for evictions and the
        // brokers that used to read this replica must update their routing
        // tables.
        out.record(Message::protocol(server_machine, write_proxy));
        if let Ok(rack) = self.topology.rack_of(server_machine) {
            let rack = SubtreeId::Rack(rack.index());
            for broker in self.topology.brokers_in_subtree_slice(rack) {
                out.record(Message::protocol(write_proxy, broker.machine()));
            }
        }
        self.unlink_replica(view, sidx, out);
        true
    }

    /// Traces that server `sidx` gave up its replica of `view`.
    fn trace_dropped(
        &self,
        view: UserId,
        sidx: usize,
        reason: ReplicaChangeReason,
        out: &mut dyn TrafficSink,
    ) {
        out.trace(TraceEventKind::ReplicaDropped {
            user: view,
            server: self.servers[sidx].machine(),
            reason,
        });
    }

    /// Migrates the replica of `view` on server `from` to server `to`:
    /// created there, then removed here (the view keeps at least one replica
    /// because the new one was just created).
    fn move_replica(
        &mut self,
        view: UserId,
        from: usize,
        to: usize,
        reason: ReplicaChangeReason,
        out: &mut dyn TrafficSink,
    ) -> bool {
        let moved =
            self.create_replica(view, from, to, out) && self.remove_replica(view, from, out);
        if moved {
            out.trace(TraceEventKind::ReplicaMoved {
                user: view,
                from: self.servers[from].machine(),
                to: self.servers[to].machine(),
                reason,
            });
        }
        moved
    }

    /// Stores a replica of `view` in server `sidx`'s slab, which must not
    /// hold one, and records where. Every replica's nearest other replica
    /// may have moved.
    fn link_replica(&mut self, view: UserId, sidx: usize) {
        let slot = self.servers[sidx].insert(view);
        let replicas = &mut self.users[view.as_usize()].replicas;
        let at = replicas.partition_point(|r| r.server() < sidx);
        debug_assert!(replicas.get(at).is_none_or(|r| r.server() != sidx));
        let replica = Replica {
            server: sidx as u32,
            slot: slot as u32,
        };
        replicas.insert(at, replica);
        self.invalidate_view(view);
    }

    /// Removes the replica of `view` from server `sidx`'s slab, forgets it
    /// and reports it to `out` ([`TrafficSink::unlinked`]). Every other
    /// replica's nearest other replica may have moved.
    ///
    /// # Panics
    ///
    /// Panics if the server holds no replica of `view`.
    fn unlink_replica(&mut self, view: UserId, sidx: usize, out: &mut dyn TrafficSink) {
        let replicas = &mut self.users[view.as_usize()].replicas;
        let at = replicas
            .iter()
            .position(|r| r.server() == sidx)
            .expect("unlinking a replica the view does not have");
        let replica = replicas.remove(at);
        self.servers[sidx].remove(replica.slot());
        self.invalidate_view(view);
        out.unlinked(view, self.servers[sidx].machine());
    }

    /// Moves `user`'s write proxy to `broker` and announces the move to
    /// every replica of her view: each stores the proxy's location, and its
    /// utility counts the distance to it.
    fn set_write_proxy(&mut self, user: UserId, broker: BrokerId, out: &mut dyn TrafficSink) {
        self.users[user.as_usize()].write_proxy = broker;
        self.invalidate_view(user);
        for r in &self.users[user.as_usize()].replicas {
            out.record(Message::protocol(
                broker.machine(),
                self.servers[r.server()].machine(),
            ));
        }
    }

    /// Profit penalty for placing a replica on `machine`, derived from the
    /// sink's live congestion signal for the machine's rack switch: seconds
    /// of pending queueing delay × [`CONGESTION_PENALTY_PER_SEC`]. Unit-count
    /// sinks report zero delay, so decisions are untouched outside a
    /// time-aware run. Allocation-free.
    fn rack_congestion_penalty(&self, out: &dyn TrafficSink, machine: MachineId) -> i64 {
        let Ok(rack) = self.topology.rack_of(machine) else {
            return 0;
        };
        let delay = out.congestion(SubtreeId::Rack(rack.index()));
        if delay == Latency::ZERO {
            return 0;
        }
        (delay.as_secs_f64() * CONGESTION_PENALTY_PER_SEC) as i64
    }

    /// Gathers everything Algorithms 2 and 3 need to know about `replica`
    /// of `view`, in time linear in its `k` read origins: the per-origin
    /// sums into `costs`, then one [`Candidate`] per origin that has an
    /// eligible server into `candidates` (origin order), each priced in
    /// `O(1)` from the sums. Returns the profit of keeping the replica where
    /// it is (against the nearest other replica, or against itself for a
    /// sole replica). Mutates nothing but the two scratch buffers, which a
    /// failed `create_replica` leaves valid: both algorithms share one
    /// gather.
    fn gather_candidates(
        &self,
        view: UserId,
        replica: Replica,
        out: &dyn TrafficSink,
        costs: &mut OriginCosts,
        candidates: &mut Vec<Candidate>,
    ) -> i64 {
        let sidx = replica.server();
        let stats = self.servers[sidx].stats(replica.slot());
        let topology = &self.topology;
        let server_machine = self.servers[sidx].machine();
        let write_proxy = topology.machine_path(self.users[view.as_usize()].write_proxy.machine());
        let writes = stats.total_writes() as i64;
        let write_distance = |path| i64::from(topology.path_distance(write_proxy, path));

        costs.begin(topology, server_machine);
        for (origin, reads) in stats.reads() {
            costs.push(topology, origin, reads);
        }
        let nearest = self
            .nearest_other_replica(view, sidx)
            .unwrap_or(server_machine);
        let nearest_read_cost = costs.read_cost(topology.machine_path(nearest));

        let replicas = &self.users[view.as_usize()].replicas;
        for (origin, _reads) in stats.reads() {
            let Some(candidate) = self.least_loaded_server_in(origin, replicas) else {
                continue;
            };
            let machine = self.servers[candidate].machine();
            let path = topology.machine_path(machine);
            // What the position costs whichever algorithm picks it: keeping
            // it up to date on writes, and queueing at a congested rack.
            let overhead =
                writes * write_distance(path) + self.rack_congestion_penalty(out, machine);
            candidates.push(Candidate {
                server: candidate,
                threshold: self.admission_threshold_of(origin),
                creation_profit: costs.creation_gain(path) - overhead,
                position_profit: nearest_read_cost - costs.read_cost(path) - overhead,
            });
        }
        let server_path = topology.machine_path(server_machine);
        nearest_read_cost - costs.read_cost(server_path) - writes * write_distance(server_path)
    }

    /// Algorithm 2 (*Evaluate Creation of Replica*) followed, when no
    /// replica is created, by Algorithm 3 (*Compute Optimal Position of
    /// Replica*), run by the server holding `replica` after serving a read
    /// of `view`.
    ///
    /// Both algorithms are congestion-aware: a candidate position's profit
    /// is reduced by [`DynaSoReEngine::rack_congestion_penalty`], so under a
    /// time-aware network model replicas steer away from racks whose switch
    /// queues are backed up instead of piling further load onto them.
    ///
    /// Linear in the number of read origins and allocation-free: see
    /// [`DynaSoReEngine::gather_candidates`].
    fn evaluate_replica(&mut self, view: UserId, replica: Replica, out: &mut dyn TrafficSink) {
        let mut costs = std::mem::take(&mut self.scratch.costs);
        let mut candidates = std::mem::take(&mut self.scratch.candidates);
        let keep_profit = self.gather_candidates(view, replica, out, &mut costs, &mut candidates);
        self.decide_replica(view, replica.server(), keep_profit, &candidates, out);
        costs.clear();
        candidates.clear();
        self.scratch.costs = costs;
        self.scratch.candidates = candidates;
    }

    /// Applies Algorithms 2 and 3 to the gathered `candidates`.
    fn decide_replica(
        &mut self,
        view: UserId,
        sidx: usize,
        keep_profit: i64,
        candidates: &[Candidate],
        out: &mut dyn TrafficSink,
    ) {
        // --- Algorithm 2: try to create a replica near one of the origins.
        // The profit of adding a replica only counts the readers the routing
        // policy would redirect to it (§3.2, "simulating its addition").
        let mut best_profit = 0i64;
        let mut new_replica: Option<usize> = None;
        for c in candidates {
            if (c.creation_profit as f64) > c.threshold && c.creation_profit > best_profit {
                best_profit = c.creation_profit;
                new_replica = Some(c.server);
            }
        }
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
            // created. (A failed creation mutates nothing, so the gathered
            // candidates still describe the state the migration decision
            // sees.)
        }

        // --- Algorithm 3: no replica can be created; consider migrating (or
        // dropping) this replica.
        let mut best_profit = keep_profit;
        let mut best_position: Option<usize> = None;
        for c in candidates {
            if c.position_profit > best_profit && (c.position_profit as f64) > c.threshold {
                best_profit = c.position_profit;
                best_position = Some(c.server);
            }
        }
        if best_profit < 0 && self.users[view.as_usize()].replicas.len() > 1 {
            // This replica costs more than it saves: drop it.
            if self.remove_replica(view, sidx, out) {
                self.trace_dropped(view, sidx, ReplicaChangeReason::Placement, out);
            }
        } else if let Some(target) = best_position {
            self.move_replica(view, sidx, target, ReplicaChangeReason::Placement, out);
        }
    }

    /// Post-request proxy placement (§3.2): move the proxy towards the part
    /// of the cluster most of the data came from, as tallied in
    /// `scratch.tally` by the request that just executed.
    fn maybe_migrate_proxy(
        &mut self,
        user: UserId,
        is_write_proxy: bool,
        out: &mut dyn TrafficSink,
    ) {
        let Some(best) = optimal_proxy_broker(&self.topology, &mut self.scratch.tally) else {
            return;
        };
        let state = &mut self.users[user.as_usize()];
        if !is_write_proxy {
            state.read_proxy = best;
        } else if state.write_proxy != best {
            self.set_write_proxy(user, best, out);
        }
    }

    /// [`PlacementEngine::handle_read`] after its warm pass.
    fn read_targets(&mut self, user: UserId, targets: &[UserId], out: &mut dyn TrafficSink) {
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
                // Only possible while a lost master awaits recovery capacity.
                self.unreachable_reads += 1;
                continue;
            };
            out.served(target, server_machine);
            // Request and answer.
            out.record(Message::application(broker, server_machine));
            out.record(Message::application(server_machine, broker));
            self.scratch.tally.add(server_machine, 1);

            let origin = self.topology.access_origin(server_machine, broker);
            self.servers[replica.server()]
                .stats_mut(replica.slot())
                .record_read(origin);
            // "Upon receiving a request for a view, a server updates its
            // access statistics and evaluates the possibility of replicating
            // it" (§3.2).
            #[cfg(test)]
            if self.reference_evaluation {
                self.evaluate_replica_reference(target, replica, out);
                continue;
            }
            self.evaluate_replica(target, replica, out);
        }

        self.maybe_migrate_proxy(user, false, out);
    }
}

impl PlacementEngine for DynaSoReEngine {
    fn name(&self) -> &str {
        &self.name
    }

    /// Steady-state reads perform zero heap allocations: replica routing
    /// scans the (borrowed) replica index list, transfer bookkeeping uses
    /// the reusable dense tally, statistics updates hit existing counters,
    /// and messages stream straight into the sink.
    ///
    /// A read first warms its targets: one pass loads each known target's
    /// state, replica list, slab entries and first statistics words, so their
    /// misses overlap and the per-target loop finds them in cache (group
    /// prefetching). It only reads: it marks nothing stale and decides nothing.
    fn handle_read(
        &mut self,
        user: UserId,
        targets: &[UserId],
        _time: SimTime,
        out: &mut dyn TrafficSink,
    ) {
        let mut fold = 0;
        for state in targets.iter().filter_map(|t| self.users.get(t.as_usize())) {
            for r in &state.replicas {
                fold ^= self.servers[r.server()].first_stats_word(r.slot());
            }
        }
        std::hint::black_box(fold);
        self.read_targets(user, targets, out);
    }

    /// Steady-state writes perform zero heap allocations: the replica list
    /// is borrowed and the transfer tally is reused.
    fn handle_write(&mut self, user: UserId, _time: SimTime, out: &mut dyn TrafficSink) {
        if user.as_usize() >= self.users.len() {
            return;
        }
        let write_proxy = self.users[user.as_usize()].write_proxy.machine();
        self.scratch.tally.clear();
        for r in &self.users[user.as_usize()].replicas {
            let server = &mut self.servers[r.server()];
            let machine = server.machine();
            out.served(user, machine);
            out.record(Message::application(write_proxy, machine));
            self.scratch.tally.add(machine, 1);
            server.stats_mut(r.slot()).record_write();
        }
        self.maybe_migrate_proxy(user, true, out);
    }

    fn on_tick(&mut self, _time: SimTime, out: &mut dyn TrafficSink) {
        // 1. Rotate the access counters of every replica.
        for server in &mut self.servers {
            server.rotate_counters();
        }
        // 2. Refresh the admission thresholds, 3. sweep for evictions.
        self.run_memory_policy(out);
    }

    fn on_graph_change(&mut self, _mutation: GraphMutation, _out: &mut dyn TrafficSink) {
        // "DynaSoRe adapts to the modifications to the social network
        // transparently, without requiring any specific action" (§3.3): the
        // new read targets simply start showing up in the access statistics.
    }

    /// Threads one [`ClusterEvent`] through the engine. The topology alone
    /// decides what the event changes
    /// ([`Topology::apply_cluster_event`]); the engine reacts to the
    /// machines it reports: crash-failed machines lose their replicas
    /// (masters are re-filled from the persistent tier, charged to `out`),
    /// returning machines rejoin empty, drained and decommissioned machines
    /// migrate their state away, and a new rack is mirrored with empty
    /// server slabs. Every distance the engine computes comes from the
    /// topology's path table, which grows with the tree, so nothing is
    /// re-derived for it beyond re-sized evaluation sums and stale utilities.
    /// The per-subtree candidate and threshold caches are rebuilt against the
    /// updated liveness mask. Every replica a machine
    /// loses — with its crash, its evacuation, or to make room for a
    /// recovered master — is reported to `out` ([`TrafficSink::unlinked`]),
    /// so a driver that holds the data itself (the live store's cache
    /// shards) evicts exactly those copies and needs nothing else from the
    /// event: a returning or added machine holds no replica until the
    /// engine places one there.
    ///
    /// # Errors
    ///
    /// The topology's error when it refuses the event (an unknown machine or
    /// rack, growth of a flat layout, removing a retired or the last rack);
    /// nothing has changed then.
    fn on_cluster_change(&mut self, event: ClusterEvent, out: &mut dyn TrafficSink) -> Result<()> {
        out.trace(TraceEventKind::ClusterChange { event });
        let change = self.topology.apply_cluster_event(event)?;
        // A stale event moved nothing and needs no reaction — except that a
        // removed rack whose machines had all died earlier may still host
        // stranded proxies on its dead brokers.
        let stale = change.down.is_empty() && change.up.is_empty();
        if stale && !matches!(event, ClusterEvent::RemoveRack { .. }) {
            return Ok(());
        }
        match event {
            ClusterEvent::MachineDown { .. } | ClusterEvent::RackDown { .. } => {
                self.take_down(&change.down, out)
            }
            ClusterEvent::MachineUp { .. } | ClusterEvent::RackUp { .. } => self.bring_up(out),
            ClusterEvent::DrainMachine { machine } => {
                self.evacuate(SubtreeId::Machine(machine.index()), &change.down, out)
            }
            ClusterEvent::RemoveRack { rack } => {
                self.evacuate(SubtreeId::Rack(rack.index()), &change.down, out)
            }
            ClusterEvent::AddRack => self.absorb_new_rack(&change.up, out),
        }
        Ok(())
    }

    fn unreachable_reads(&self) -> u64 {
        self.unreachable_reads
    }

    fn replica_count(&self, user: UserId) -> usize {
        self.users
            .get(user.as_usize())
            .map(|u| u.replicas.len())
            .unwrap_or(0)
    }

    fn memory_usage(&self) -> MemoryUsage {
        // Dead servers contribute neither stored views (their slabs are
        // cleared on failure) nor capacity (their memory is unreachable).
        let live = || {
            self.servers
                .iter()
                .filter(|s| self.topology.is_live(s.machine()))
        };
        MemoryUsage {
            used_slots: live().map(ServerState::len).sum(),
            capacity_slots: live().map(ServerState::capacity).sum(),
        }
    }
}

#[cfg(test)]
mod evaluation_tests;
#[cfg(test)]
mod eviction_tests;
#[cfg(test)]
mod load_tests;
#[cfg(test)]
mod tests;
