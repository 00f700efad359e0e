//! SPAR (Pujol et al., SIGCOMM 2010) adapted to a bounded memory budget, as
//! described in §4.1 of the DynaSoRe paper.
//!
//! SPAR "ensures the views of the social friends of a user are stored on the
//! same server as her own view", which makes reads server-local at the price
//! of updating many replicas on every write. The original SPAR assumes
//! unbounded storage; the paper's adaptation replicates a friend's view onto
//! a user's server only "as long as storage is available".

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use dynasore_graph::SocialGraph;
use dynasore_topology::Topology;
use dynasore_types::{
    ClusterEvent, Error, MachineId, MemoryBudget, Result, SimTime, UserId,
    VIEW_TRANSFER_PROTOCOL_MESSAGES,
};
use dynasore_types::{MemoryUsage, Message, PlacementEngine, TrafficSink};
use dynasore_workload::GraphMutation;

#[derive(Debug, Clone)]
struct SparServer {
    machine: MachineId,
    capacity: usize,
    views: HashSet<UserId>,
}

impl SparServer {
    fn is_full(&self) -> bool {
        self.views.len() >= self.capacity
    }
}

/// The SPAR placement engine with a memory budget.
///
/// # Example
///
/// ```
/// use dynasore_baselines::SparEngine;
/// use dynasore_graph::{GraphPreset, SocialGraph};
/// use dynasore_types::PlacementEngine;
/// use dynasore_topology::Topology;
/// use dynasore_types::MemoryBudget;
///
/// let graph = SocialGraph::generate(GraphPreset::TwitterLike, 300, 1).unwrap();
/// let topology = Topology::tree(2, 2, 4, 1).unwrap();
/// let budget = MemoryBudget::with_extra_percent(300, 50);
/// let spar = SparEngine::new(&graph, &topology, budget, 7).unwrap();
/// assert_eq!(spar.name(), "spar");
/// // Every view exists at least once; replication uses the extra memory.
/// assert!(spar.memory_usage().used_slots >= 300);
/// ```
#[derive(Debug, Clone)]
pub struct SparEngine {
    topology: Topology,
    servers: Vec<SparServer>,
    /// Dense server index of each user's primary (master) replica.
    primary: Vec<usize>,
    /// All dense server indices holding a replica of each user's view
    /// (primary included).
    replicas: Vec<Vec<usize>>,
    /// Broker executing each user's requests: the broker of her primary's
    /// rack.
    proxies: Vec<MachineId>,
    /// Read targets that could not be served because the view had no live
    /// replica.
    unreachable_reads: u64,
}

impl SparEngine {
    /// Builds the SPAR placement for `graph` on `topology` within `budget`.
    ///
    /// Following §4.4, one replica is first created per user (on the least
    /// loaded server at her arrival), then every edge of the social graph is
    /// added in random order, each addition replicating the followee's view
    /// onto the follower's primary server while space remains.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is empty or the budget does not cover
    /// the user count. The budget's per-server capacity is rounded up, so
    /// the cluster always holds one copy of every view.
    pub fn new(
        graph: &SocialGraph,
        topology: &Topology,
        budget: MemoryBudget,
        seed: u64,
    ) -> Result<Self> {
        if graph.user_count() == 0 {
            return Err(Error::invalid_config(
                "cannot place views for an empty graph",
            ));
        }
        if budget.view_count() != graph.user_count() {
            return Err(Error::invalid_config(format!(
                "memory budget covers {} views but the graph has {} users",
                budget.view_count(),
                graph.user_count()
            )));
        }
        let capacity = budget.slots_per_server(topology.server_count())?;
        let mut servers: Vec<SparServer> = topology
            .servers()
            .iter()
            .map(|s| SparServer {
                machine: s.machine(),
                capacity,
                views: HashSet::new(),
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(seed);

        // Phase 1: primaries, in random user order, on the least loaded
        // server.
        let mut user_order: Vec<u32> = (0..graph.user_count() as u32).collect();
        user_order.shuffle(&mut rng);
        let mut primary = vec![0usize; graph.user_count()];
        let mut replicas = vec![Vec::new(); graph.user_count()];
        for &u in &user_order {
            let user = UserId::new(u);
            let target = (0..servers.len())
                .min_by_key(|&i| servers[i].views.len())
                .expect("at least one server");
            servers[target].views.insert(user);
            primary[user.as_usize()] = target;
            replicas[user.as_usize()].push(target);
        }

        // Phase 2: simulate the addition of all social edges in random
        // order, co-locating followee views with their readers while space
        // remains.
        let mut edges: Vec<(UserId, UserId)> = graph.edges().collect();
        edges.shuffle(&mut rng);
        for (follower, followee) in edges {
            Self::try_colocate_static(&mut servers, &primary, &mut replicas, follower, followee);
        }

        let proxies = primary
            .iter()
            .map(|&s| {
                topology
                    .local_broker(servers[s].machine)
                    .map(|b| b.machine())
            })
            .collect::<Result<Vec<_>>>()?;

        Ok(SparEngine {
            topology: topology.clone(),
            servers,
            primary,
            replicas,
            proxies,
            unreachable_reads: 0,
        })
    }

    /// Replicates `followee`'s view onto `follower`'s primary server if it
    /// is not already there and the server has space. Returns the target
    /// server index if a replica was created.
    fn try_colocate_static(
        servers: &mut [SparServer],
        primary: &[usize],
        replicas: &mut [Vec<usize>],
        follower: UserId,
        followee: UserId,
    ) -> Option<usize> {
        if follower.as_usize() >= primary.len() || followee.as_usize() >= primary.len() {
            return None;
        }
        let target = primary[follower.as_usize()];
        if replicas[followee.as_usize()].contains(&target) {
            return None;
        }
        if servers[target].is_full() {
            return None;
        }
        servers[target].views.insert(followee);
        replicas[followee.as_usize()].push(target);
        Some(target)
    }

    /// The machines holding any replica of `user`'s view.
    pub fn replica_servers(&self, user: UserId) -> Vec<MachineId> {
        self.replicas
            .get(user.as_usize())
            .map(|r| r.iter().map(|&i| self.servers[i].machine).collect())
            .unwrap_or_default()
    }

    // --- Cluster dynamics --------------------------------------------------
    //
    // SPAR's reactions are correct-if-simple: replicas on failed machines
    // vanish, a surviving replica is promoted to primary, views whose last
    // copy died are re-filled from the persistent tier onto the least
    // loaded live server, and drained machines move their sole copies
    // machine-to-machine. SPAR never rebuilds co-location after a failure —
    // its read locality degrades, which is exactly the behaviour the
    // comparison experiments should show.

    /// The live server with the fewest stored views (free space preferred,
    /// ties by dense index).
    fn least_loaded_live_server(&self) -> Option<usize> {
        let mut best_any: Option<(usize, usize)> = None;
        let mut best_free: Option<(usize, usize)> = None;
        for (i, server) in self.servers.iter().enumerate() {
            if !self.topology.is_live(server.machine) {
                continue;
            }
            let key = (server.views.len(), i);
            if best_any.is_none_or(|b| key < b) {
                best_any = Some(key);
            }
            if !server.is_full() && best_free.is_none_or(|b| key < b) {
                best_free = Some(key);
            }
        }
        best_free.or(best_any).map(|(_, i)| i)
    }

    /// The broker that should execute requests for a user whose primary
    /// lives on server `sidx`: the closest live broker to that machine.
    fn proxy_near(&self, sidx: usize) -> MachineId {
        let machine = self.servers[sidx].machine;
        self.topology
            .closest_live_broker(machine)
            .map(|b| b.machine())
            .unwrap_or(machine)
    }

    /// Promotes the lowest-indexed surviving replica of `user` to primary
    /// and re-homes her proxy next to it.
    fn promote_primary(&mut self, user: usize) {
        if let Some(&new_primary) = self.replicas[user].iter().min() {
            self.primary[user] = new_primary;
            self.proxies[user] = self.proxy_near(new_primary);
        }
    }

    /// Re-creates the view of `user`, who has no live copy left, on the least
    /// loaded live server: transferred machine-to-machine from `source` (the
    /// machine a drain or decommission is emptying), or re-filled from the
    /// persistent tier when there is none.
    fn recover_view(&mut self, user: usize, source: Option<MachineId>, out: &mut dyn TrafficSink) {
        let Some(target) = self.least_loaded_live_server() else {
            return; // Every server is dead; the view stays lost.
        };
        let target_machine = self.servers[target].machine;
        self.servers[target].views.insert(UserId::new(user as u32));
        self.replicas[user].push(target);
        self.primary[user] = target;
        self.proxies[user] = self.proxy_near(target);
        let transfer = match source {
            Some(source) => Message::protocol(source, target_machine),
            None => Message::persistent_fetch(target_machine),
        };
        out.record_n(transfer, VIEW_TRANSFER_PROTOCOL_MESSAGES);
    }

    /// Re-homes every proxy hosted on a machine that is no longer live to
    /// the closest live broker.
    fn rehome_dead_proxies(&mut self) {
        for user in 0..self.proxies.len() {
            if !self.topology.is_live(self.proxies[user]) {
                if let Some(broker) = self.topology.closest_live_broker(self.proxies[user]) {
                    self.proxies[user] = broker.machine();
                }
            }
        }
    }

    /// Reacts to a batch of machines leaving (the topology already has all
    /// of them dead, so nothing moves from one leaving machine to another):
    /// their copies vanish, a surviving copy is promoted to primary, and a
    /// view left without one is re-created — from the persistent tier after
    /// a crash, machine-to-machine when the exit is `graceful` (a drained
    /// machine, or a whole decommissioned rack).
    fn take_down(&mut self, gone: &[MachineId], graceful: bool, out: &mut dyn TrafficSink) {
        let ordinal = |&m| self.topology.server_ordinal(m);
        let gone: Vec<usize> = gone.iter().filter_map(ordinal).collect();
        for &sidx in &gone {
            self.servers[sidx].views.clear();
        }
        // Iterate users in id order (never the servers' hash sets) so the
        // recovery sequence — and therefore the message stream — is
        // deterministic.
        for user in 0..self.replicas.len() {
            // The copy a graceful exit transfers a view from.
            let source = self.replicas[user].first().filter(|_| graceful);
            let source = source.map(|&i| self.servers[i].machine);
            self.replicas[user].retain(|i| !gone.contains(i));
            if !self.replicas[user].is_empty() {
                if !self.replicas[user].contains(&self.primary[user]) {
                    self.promote_primary(user);
                }
            } else if !graceful || source.is_some() {
                // A crash also retries the views that stayed lost earlier.
                self.recover_view(user, source, out);
            }
        }
        self.rehome_dead_proxies();
    }

    /// Reacts to machines coming back (empty): any still-lost views are
    /// recovered onto the returned capacity.
    fn bring_up(&mut self, out: &mut dyn TrafficSink) {
        for user in 0..self.replicas.len() {
            if self.replicas[user].is_empty() {
                self.recover_view(user, None, out);
            }
        }
    }

    /// Mirrors a freshly added rack with empty SPAR servers.
    fn absorb_new_rack(&mut self) {
        let capacity = self.servers.first().map(|s| s.capacity).unwrap_or(0);
        for server in &self.topology.servers()[self.servers.len()..] {
            self.servers.push(SparServer {
                machine: server.machine(),
                capacity,
                views: HashSet::new(),
            });
        }
    }

    /// The topology (including its liveness mask) as this engine sees it.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

impl PlacementEngine for SparEngine {
    fn name(&self) -> &str {
        "spar"
    }

    fn handle_read(
        &mut self,
        user: UserId,
        targets: &[UserId],
        _time: SimTime,
        out: &mut dyn TrafficSink,
    ) {
        let Some(&broker) = self.proxies.get(user.as_usize()) else {
            return;
        };
        for &target in targets {
            let Some(replica_idxs) = self.replicas.get(target.as_usize()) else {
                continue;
            };
            if replica_idxs.is_empty() {
                // Known user with no live replica: only possible while a
                // lost view awaits recovery capacity.
                self.unreachable_reads += 1;
                continue;
            }
            // Route to the closest replica (usually the reader's own
            // server thanks to co-location).
            let server = replica_idxs
                .iter()
                .map(|&i| self.servers[i].machine)
                .min_by_key(|&m| (self.topology.distance(broker, m), m.index()))
                .expect("non-empty replica set");
            out.record(Message::application(broker, server));
            out.record(Message::application(server, broker));
        }
    }

    fn handle_write(&mut self, user: UserId, _time: SimTime, out: &mut dyn TrafficSink) {
        let Some(&broker) = self.proxies.get(user.as_usize()) else {
            return;
        };
        // Every replica of the user's view must be updated.
        for &ridx in &self.replicas[user.as_usize()] {
            out.record(Message::application(broker, self.servers[ridx].machine));
        }
    }

    fn on_graph_change(&mut self, mutation: GraphMutation, out: &mut dyn TrafficSink) {
        if let GraphMutation::AddEdge { follower, followee } = mutation {
            // SPAR reacts to the evolution of the social network by
            // co-locating the new friend's view, if memory allows.
            let created = Self::try_colocate_static(
                &mut self.servers,
                &self.primary,
                &mut self.replicas,
                follower,
                followee,
            );
            if let Some(target) = created {
                let source = self.servers[self.primary[followee.as_usize()]].machine;
                let target_machine = self.servers[target].machine;
                out.record(Message::protocol(source, target_machine));
                out.record_n(
                    Message::protocol(source, target_machine),
                    VIEW_TRANSFER_PROTOCOL_MESSAGES,
                );
            }
        }
        // SPAR never reclaims replicas on edge removal.
    }

    fn on_cluster_change(&mut self, event: ClusterEvent, out: &mut dyn TrafficSink) -> Result<()> {
        let change = self.topology.apply_cluster_event(event)?;
        // A stale event moved nothing and needs no reaction — except that a
        // removed rack whose machines had all died earlier may still host
        // stranded proxies.
        let stale = change.down.is_empty() && change.up.is_empty();
        if stale && !matches!(event, ClusterEvent::RemoveRack { .. }) {
            return Ok(());
        }
        match event {
            ClusterEvent::MachineDown { .. } | ClusterEvent::RackDown { .. } => {
                self.take_down(&change.down, false, out)
            }
            ClusterEvent::DrainMachine { .. } | ClusterEvent::RemoveRack { .. } => {
                self.take_down(&change.down, true, out)
            }
            ClusterEvent::MachineUp { .. } | ClusterEvent::RackUp { .. } => self.bring_up(out),
            ClusterEvent::AddRack => self.absorb_new_rack(),
        }
        Ok(())
    }

    fn unreachable_reads(&self) -> u64 {
        self.unreachable_reads
    }

    fn replica_count(&self, user: UserId) -> usize {
        self.replicas
            .get(user.as_usize())
            .map(Vec::len)
            .unwrap_or(0)
    }

    fn memory_usage(&self) -> MemoryUsage {
        // Dead servers hold nothing and their capacity is unreachable.
        MemoryUsage {
            used_slots: self
                .servers
                .iter()
                .filter(|s| self.topology.is_live(s.machine))
                .map(|s| s.views.len())
                .sum(),
            capacity_slots: self
                .servers
                .iter()
                .filter(|s| self.topology.is_live(s.machine))
                .map(|s| s.capacity)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_graph::GraphPreset;
    use dynasore_types::MessageClass;

    fn setup() -> (SocialGraph, Topology) {
        let graph = SocialGraph::generate(GraphPreset::FacebookLike, 400, 4).unwrap();
        let topology = Topology::tree(2, 2, 5, 1).unwrap();
        (graph, topology)
    }

    /// The machine holding `user`'s primary replica.
    fn primary(spar: &SparEngine, user: UserId) -> MachineId {
        spar.servers[spar.primary[user.as_usize()]].machine
    }

    #[test]
    fn construction_validates_inputs() {
        let (graph, topology) = setup();
        assert!(
            SparEngine::new(&SocialGraph::new(0), &topology, MemoryBudget::exact(0), 1).is_err()
        );
        assert!(SparEngine::new(&graph, &topology, MemoryBudget::exact(10), 1).is_err());
        assert!(SparEngine::new(&graph, &topology, MemoryBudget::exact(400), 1).is_ok());
    }

    #[test]
    fn every_view_has_a_primary_and_capacity_is_respected() {
        let (graph, topology) = setup();
        let budget = MemoryBudget::with_extra_percent(400, 100);
        let spar = SparEngine::new(&graph, &topology, budget, 2).unwrap();
        for user in graph.users() {
            assert!(spar.replica_count(user) >= 1);
            assert!(spar.replica_servers(user).contains(&primary(&spar, user)));
        }
        let capacity = budget.slots_per_server(topology.server_count()).unwrap();
        for server in &spar.servers {
            assert!(server.views.len() <= capacity);
        }
        let usage = spar.memory_usage();
        assert!(
            usage.used_slots > 400,
            "extra memory should be used for replication"
        );
        assert!(usage.used_slots <= usage.capacity_slots);
    }

    #[test]
    fn more_memory_means_more_colocation() {
        let (graph, topology) = setup();
        let tight = SparEngine::new(&graph, &topology, MemoryBudget::exact(400), 3).unwrap();
        let roomy = SparEngine::new(
            &graph,
            &topology,
            MemoryBudget::with_extra_percent(400, 200),
            3,
        )
        .unwrap();
        // Follower→followee pairs whose followee view is stored on the
        // follower's primary server, and replicas over all views.
        let colocated = |spar: &SparEngine| {
            let on_primary = |(u, v): (UserId, UserId)| {
                spar.replicas[v.as_usize()].contains(&spar.primary[u.as_usize()])
            };
            graph.edges().filter(|&edge| on_primary(edge)).count()
        };
        let replicas = |spar: &SparEngine| spar.replicas.iter().map(Vec::len).sum::<usize>();
        assert!(colocated(&roomy) > colocated(&tight));
        assert!(replicas(&roomy) > replicas(&tight));
        // With 0% extra memory there is essentially no room to replicate.
        assert!(replicas(&tight) < 440);
    }

    #[test]
    fn reads_prefer_the_local_server_and_writes_update_all_replicas() {
        let (graph, topology) = setup();
        let budget = MemoryBudget::with_extra_percent(400, 200);
        let mut spar = SparEngine::new(&graph, &topology, budget, 5).unwrap();
        // Find a user with at least one followee co-located on her server.
        let user = graph
            .users()
            .find(|&u| {
                !graph.followees(u).is_empty()
                    && graph
                        .followees(u)
                        .iter()
                        .any(|&v| spar.replica_servers(v).contains(&primary(&spar, u)))
            })
            .expect("co-located pair exists");
        let targets = graph.followees(user).to_vec();
        let mut out = Vec::new();
        spar.handle_read(user, &targets, SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 2 * targets.len());
        // At least one read stayed within the user's own rack.
        let broker = spar.proxies[user.as_usize()];
        assert!(out
            .iter()
            .any(|m| topology.distance(m.from, m.to) <= 1 && (m.from == broker || m.to == broker)));

        out.clear();
        let writer = graph
            .users()
            .max_by_key(|&u| spar.replica_count(u))
            .unwrap();
        spar.handle_write(writer, SimTime::ZERO, &mut out);
        assert_eq!(out.len(), spar.replica_count(writer));
        assert!(out.iter().all(|m| m.class == MessageClass::Application));
    }

    #[test]
    fn graph_changes_trigger_colocation_when_space_allows() {
        // A small, sparse graph with ample memory so that servers keep spare
        // capacity after the initial placement.
        let mut graph = SocialGraph::new(40);
        for i in 0..20u32 {
            graph.add_edge(UserId::new(i), UserId::new(i + 20));
        }
        let topology = Topology::tree(2, 2, 5, 1).unwrap();
        let budget = MemoryBudget::with_extra_percent(40, 200);
        let mut spar = SparEngine::new(&graph, &topology, budget, 6).unwrap();
        // Find a (follower, followee) pair that is not yet co-located.
        let pair = graph
            .users()
            .flat_map(|u| graph.users().map(move |v| (u, v)))
            .find(|&(u, v)| {
                u != v
                    && !graph.contains_edge(u, v)
                    && !spar.replica_servers(v).contains(&primary(&spar, u))
                    && !spar.servers[spar.primary[u.as_usize()]].is_full()
            })
            .expect("some non-colocated pair with spare capacity");
        let before = spar.replica_count(pair.1);
        let mut out = Vec::new();
        spar.on_graph_change(
            GraphMutation::AddEdge {
                follower: pair.0,
                followee: pair.1,
            },
            &mut out,
        );
        assert_eq!(spar.replica_count(pair.1), before + 1);
        assert!(!out.is_empty());
        assert!(out.iter().all(|m| m.class == MessageClass::Protocol));
        // Removing the edge does not reclaim the replica.
        spar.on_graph_change(
            GraphMutation::RemoveEdge {
                follower: pair.0,
                followee: pair.1,
            },
            &mut out,
        );
        assert_eq!(spar.replica_count(pair.1), before + 1);
    }

    #[test]
    fn machine_failure_promotes_or_recovers_every_view() {
        let (graph, topology) = setup();
        let budget = MemoryBudget::with_extra_percent(400, 50);
        let mut spar = SparEngine::new(&graph, &topology, budget, 9).unwrap();
        let victim = topology.servers()[0].machine();
        let mut out = Vec::new();
        spar.on_cluster_change(ClusterEvent::MachineDown { machine: victim }, &mut out)
            .unwrap();
        for user in graph.users() {
            assert!(spar.replica_count(user) >= 1, "view of {user} lost");
            assert!(!spar.replica_servers(user).contains(&victim));
            let primary = primary(&spar, user);
            assert_ne!(primary, victim);
            assert!(spar.replica_servers(user).contains(&primary));
            let proxy = spar.proxies[user.as_usize()];
            assert_ne!(proxy, victim);
        }
        assert!(out.iter().any(|m| m.involves_persistent()));
        // Reads and writes keep working; nothing is unreachable.
        let reader = graph
            .users()
            .find(|&u| !graph.followees(u).is_empty())
            .unwrap();
        let targets = graph.followees(reader).to_vec();
        out.clear();
        spar.handle_read(reader, &targets, SimTime::ZERO, &mut out);
        assert_eq!(spar.unreachable_reads(), 0);
        // The machine rejoins empty.
        spar.on_cluster_change(ClusterEvent::MachineUp { machine: victim }, &mut out)
            .unwrap();
        assert_eq!(spar.servers[0].views.len(), 0);
    }

    #[test]
    fn drain_and_add_rack_keep_spar_consistent() {
        let (graph, topology) = setup();
        let budget = MemoryBudget::with_extra_percent(400, 50);
        let mut spar = SparEngine::new(&graph, &topology, budget, 4).unwrap();
        let victim = topology.servers()[3].machine();
        let mut out = Vec::new();
        spar.on_cluster_change(ClusterEvent::DrainMachine { machine: victim }, &mut out)
            .unwrap();
        assert!(out.iter().all(|m| !m.involves_persistent()));
        for user in graph.users() {
            assert!(spar.replica_count(user) >= 1);
            assert!(!spar.replica_servers(user).contains(&victim));
        }
        let before_capacity = spar.memory_usage().capacity_slots;
        spar.on_cluster_change(ClusterEvent::AddRack, &mut out)
            .unwrap();
        assert!(spar.memory_usage().capacity_slots > before_capacity);
        assert_eq!(spar.servers.len(), spar.topology.server_count());
    }

    #[test]
    fn unknown_users_are_ignored() {
        let (graph, topology) = setup();
        let mut spar = SparEngine::new(&graph, &topology, MemoryBudget::exact(400), 7).unwrap();
        let mut out = Vec::new();
        spar.handle_read(
            UserId::new(9_999),
            &[UserId::new(0)],
            SimTime::ZERO,
            &mut out,
        );
        spar.handle_write(UserId::new(9_999), SimTime::ZERO, &mut out);
        assert!(out.is_empty());
        assert_eq!(spar.replica_count(UserId::new(9_999)), 0);
    }
}
