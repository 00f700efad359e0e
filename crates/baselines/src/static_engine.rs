//! Static placements: Random, METIS and hierarchical METIS.

use dynasore_core::{placement::initial_assignment, InitialPlacement};
use dynasore_graph::SocialGraph;
use dynasore_topology::Topology;
use dynasore_types::{
    ClusterEvent, MachineId, Result, SimTime, UserId, VIEW_TRANSFER_PROTOCOL_MESSAGES,
};
use dynasore_types::{MemoryUsage, Message, PlacementEngine, TrafficSink};

/// A static view placement: every user's view is stored on exactly one
/// server, chosen before the experiment starts and never changed.
///
/// "The random placement and graph partitioning approaches produce static
/// assignments of views to servers, which persists during the whole
/// experiment" (§4.4). The proxies of a user are deployed on the broker of
/// the rack hosting her view (§4.1).
///
/// # Example
///
/// ```
/// use dynasore_baselines::StaticPlacement;
/// use dynasore_graph::{GraphPreset, SocialGraph};
/// use dynasore_types::PlacementEngine;
/// use dynasore_topology::Topology;
///
/// let graph = SocialGraph::generate(GraphPreset::TwitterLike, 300, 1).unwrap();
/// let topology = Topology::tree(2, 2, 4, 1).unwrap();
/// let random = StaticPlacement::random(&graph, &topology, 7).unwrap();
/// assert_eq!(random.name(), "random");
/// let metis = StaticPlacement::metis(&graph, &topology, 7).unwrap();
/// assert_eq!(metis.name(), "metis");
/// ```
#[derive(Debug, Clone)]
pub struct StaticPlacement {
    name: String,
    topology: Topology,
    /// `servers[assignment[user]]` is the machine holding the user's view.
    assignment: Vec<u32>,
    servers: Vec<MachineId>,
    /// Broker executing each user's requests (the broker of the view's
    /// rack).
    proxies: Vec<MachineId>,
    /// Read targets that could not be served because every server was dead.
    unreachable_reads: u64,
}

impl StaticPlacement {
    fn build(
        name: &str,
        placement: &InitialPlacement,
        graph: &SocialGraph,
        topology: &Topology,
    ) -> Result<Self> {
        let assignment = initial_assignment(placement, graph, topology)?;
        let servers: Vec<MachineId> = topology.servers().iter().map(|s| s.machine()).collect();
        let proxies = assignment
            .iter()
            .map(|&s| {
                topology
                    .local_broker(servers[s as usize])
                    .map(|b| b.machine())
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(StaticPlacement {
            name: name.to_string(),
            topology: topology.clone(),
            assignment,
            servers,
            proxies,
            unreachable_reads: 0,
        })
    }

    /// Uniform random placement (the paper's *Random* baseline).
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is empty or the topology has no
    /// servers.
    pub fn random(graph: &SocialGraph, topology: &Topology, seed: u64) -> Result<Self> {
        StaticPlacement::build(
            "random",
            &InitialPlacement::Random { seed },
            graph,
            topology,
        )
    }

    /// Flat graph-partitioning placement (the paper's *METIS* baseline).
    ///
    /// # Errors
    ///
    /// Returns an error if the graph has fewer users than the cluster has
    /// servers.
    pub fn metis(graph: &SocialGraph, topology: &Topology, seed: u64) -> Result<Self> {
        StaticPlacement::build("metis", &InitialPlacement::Metis { seed }, graph, topology)
    }

    /// Hierarchical graph-partitioning placement (the paper's *hMETIS*
    /// baseline).
    ///
    /// # Errors
    ///
    /// Returns an error if the graph has fewer users than the cluster has
    /// servers.
    pub fn hierarchical_metis(graph: &SocialGraph, topology: &Topology, seed: u64) -> Result<Self> {
        StaticPlacement::build(
            "hmetis",
            &InitialPlacement::HierarchicalMetis { seed },
            graph,
            topology,
        )
    }

    /// The machine storing `user`'s view.
    pub fn server_of(&self, user: UserId) -> Option<MachineId> {
        self.assignment
            .get(user.as_usize())
            .map(|&s| self.servers[s as usize])
    }

    /// The broker executing `user`'s requests.
    pub fn proxy_of(&self, user: UserId) -> Option<MachineId> {
        self.proxies.get(user.as_usize()).copied()
    }

    /// The raw user → dense-server-index assignment.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    // --- Cluster dynamics --------------------------------------------------
    //
    // A static placement has no statistics to optimise with, so its
    // reactions are the minimum needed for correctness: views on failed
    // machines are re-filled from the persistent tier onto the live server
    // with the fewest views (drained machines transfer machine-to-machine
    // instead), proxies follow their views, and recovered machines simply
    // rejoin as empty re-assignment targets. Nothing ever moves *back*.

    /// Per-server view counts derived from the current assignment.
    fn server_loads(&self) -> Vec<u32> {
        let mut loads = vec![0u32; self.servers.len()];
        for &s in &self.assignment {
            loads[s as usize] += 1;
        }
        loads
    }

    /// The live server with the fewest assigned views (ties by index),
    /// excluding `exclude`.
    fn least_loaded_live(&self, loads: &[u32], exclude: Option<usize>) -> Option<usize> {
        let mut best: Option<(u32, usize)> = None;
        for (i, &load) in loads.iter().enumerate() {
            if Some(i) == exclude || !self.topology.is_live(self.servers[i]) {
                continue;
            }
            if best.is_none_or(|b| (load, i) < b) {
                best = Some((load, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Moves every view assigned to a newly dead/draining server in
    /// `sources` to live servers, charging the refill either to the
    /// persistent tier (crash) or to the vacated machine (drain).
    fn reassign_views(
        &mut self,
        sources: &[usize],
        from_persistent: bool,
        out: &mut dyn TrafficSink,
    ) {
        let mut loads = self.server_loads();
        for user in 0..self.assignment.len() {
            let current = self.assignment[user] as usize;
            if !sources.contains(&current) {
                continue;
            }
            let Some(target) = self.least_loaded_live(&loads, None) else {
                continue; // Every server is dead; reads will be unreachable.
            };
            let old_machine = self.servers[current];
            let new_machine = self.servers[target];
            self.assignment[user] = target as u32;
            loads[current] -= 1;
            loads[target] += 1;
            self.proxies[user] = self
                .topology
                .closest_live_broker(new_machine)
                .map(|b| b.machine())
                .unwrap_or(new_machine);
            let transfer = if from_persistent {
                Message::persistent_fetch(new_machine)
            } else {
                Message::protocol(old_machine, new_machine)
            };
            out.record_n(transfer, VIEW_TRANSFER_PROTOCOL_MESSAGES);
        }
        // Proxies hosted on dead brokers re-home even if their view stayed
        // put.
        for user in 0..self.proxies.len() {
            if !self.topology.is_live(self.proxies[user]) {
                if let Some(broker) = self.topology.closest_live_broker(self.proxies[user]) {
                    self.proxies[user] = broker.machine();
                }
            }
        }
    }

    /// The topology (including its liveness mask) as this placement sees it.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Reacts to a batch of machines leaving (the topology already has them
    /// dead): their views are re-filled from the persistent tier (`crash`)
    /// or transferred machine-to-machine (drain, decommission).
    fn take_down(&mut self, newly_dead: &[MachineId], crash: bool, out: &mut dyn TrafficSink) {
        let ordinal = |&m| self.topology.server_ordinal(m);
        let dead_servers: Vec<usize> = newly_dead.iter().filter_map(ordinal).collect();
        self.reassign_views(&dead_servers, crash, out);
    }

    /// Reacts to machines coming back. The placement stays static — views
    /// that were reassigned do not move back — but views stranded on servers
    /// that died while *no* live target existed are re-filled from the
    /// persistent tier now that capacity has returned.
    fn bring_up(&mut self, out: &mut dyn TrafficSink) {
        let stranded: Vec<usize> = (0..self.servers.len())
            .filter(|&i| !self.topology.is_live(self.servers[i]))
            .filter(|&i| self.assignment.iter().any(|&s| s as usize == i))
            .collect();
        if !stranded.is_empty() {
            self.reassign_views(&stranded, true, out);
        }
    }
}

impl PlacementEngine for StaticPlacement {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle_read(
        &mut self,
        user: UserId,
        targets: &[UserId],
        _time: SimTime,
        out: &mut dyn TrafficSink,
    ) {
        let Some(broker) = self.proxy_of(user) else {
            return;
        };
        for &target in targets {
            let Some(server) = self.server_of(target) else {
                continue;
            };
            if !self.topology.is_live(server) {
                // Only possible while every server is dead and the view
                // could not be reassigned.
                self.unreachable_reads += 1;
                continue;
            }
            out.record(Message::application(broker, server));
            out.record(Message::application(server, broker));
        }
    }

    fn handle_write(&mut self, user: UserId, _time: SimTime, out: &mut dyn TrafficSink) {
        let (Some(broker), Some(server)) = (self.proxy_of(user), self.server_of(user)) else {
            return;
        };
        out.record(Message::application(broker, server));
    }

    fn on_cluster_change(&mut self, event: ClusterEvent, out: &mut dyn TrafficSink) -> Result<()> {
        let change = self.topology.apply_cluster_event(event)?;
        if change.down.is_empty() && change.up.is_empty() {
            return Ok(()); // A stale event: nothing moved.
        }
        match event {
            ClusterEvent::MachineDown { .. } | ClusterEvent::RackDown { .. } => {
                self.take_down(&change.down, true, out)
            }
            // Drains and elastic shrink evacuate machine-to-machine, with no
            // persistent refill.
            ClusterEvent::DrainMachine { .. } | ClusterEvent::RemoveRack { .. } => {
                self.take_down(&change.down, false, out)
            }
            ClusterEvent::MachineUp { .. } | ClusterEvent::RackUp { .. } => self.bring_up(out),
            ClusterEvent::AddRack => {
                self.servers = self
                    .topology
                    .servers()
                    .iter()
                    .map(|s| s.machine())
                    .collect();
            }
        }
        Ok(())
    }

    fn unreachable_reads(&self) -> u64 {
        self.unreachable_reads
    }

    fn replica_count(&self, user: UserId) -> usize {
        usize::from(user.as_usize() < self.assignment.len())
    }

    fn memory_usage(&self) -> MemoryUsage {
        MemoryUsage {
            used_slots: self.assignment.len(),
            capacity_slots: self.assignment.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_graph::GraphPreset;
    use dynasore_types::MessageClass;

    fn setup() -> (SocialGraph, Topology) {
        let graph = SocialGraph::generate(GraphPreset::FacebookLike, 400, 2).unwrap();
        let topology = Topology::tree(2, 2, 5, 1).unwrap();
        (graph, topology)
    }

    #[test]
    fn every_user_has_a_server_and_a_local_proxy() {
        let (graph, topology) = setup();
        for engine in [
            StaticPlacement::random(&graph, &topology, 1).unwrap(),
            StaticPlacement::metis(&graph, &topology, 1).unwrap(),
            StaticPlacement::hierarchical_metis(&graph, &topology, 1).unwrap(),
        ] {
            for user in graph.users() {
                let server = engine.server_of(user).unwrap();
                let proxy = engine.proxy_of(user).unwrap();
                assert!(topology.is_server(server));
                assert!(topology.is_broker(proxy));
                assert_eq!(
                    topology.rack_of(server).unwrap(),
                    topology.rack_of(proxy).unwrap(),
                    "{}: proxy must be in the view's rack",
                    engine.name()
                );
                assert_eq!(engine.replica_count(user), 1);
            }
            assert_eq!(engine.memory_usage().used_slots, 400);
            assert_eq!(engine.replica_count(UserId::new(9_999)), 0);
            assert_eq!(engine.topology().server_count(), topology.server_count());
        }
    }

    #[test]
    fn reads_contact_the_target_servers() {
        let (graph, topology) = setup();
        let mut engine = StaticPlacement::random(&graph, &topology, 3).unwrap();
        let reader = UserId::new(0);
        let targets: Vec<UserId> = graph.followees(reader).to_vec();
        let mut out = Vec::new();
        engine.handle_read(reader, &targets, SimTime::ZERO, &mut out);
        // One request and one answer per target.
        assert_eq!(out.len(), 2 * targets.len());
        assert!(out.iter().all(|m| m.class == MessageClass::Application));
        out.clear();
        engine.handle_write(reader, SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn unknown_users_are_ignored() {
        let (graph, topology) = setup();
        let mut engine = StaticPlacement::metis(&graph, &topology, 3).unwrap();
        let mut out = Vec::new();
        engine.handle_read(
            UserId::new(9_999),
            &[UserId::new(1)],
            SimTime::ZERO,
            &mut out,
        );
        engine.handle_write(UserId::new(9_999), SimTime::ZERO, &mut out);
        assert!(out.is_empty());
        out.clear();
        engine.handle_read(
            UserId::new(0),
            &[UserId::new(9_999)],
            SimTime::ZERO,
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn failures_reassign_views_to_live_servers() {
        let (graph, topology) = setup();
        let mut engine = StaticPlacement::random(&graph, &topology, 8).unwrap();
        let victim = topology.servers()[0].machine();
        let displaced: Vec<UserId> = graph
            .users()
            .filter(|&u| engine.server_of(u) == Some(victim))
            .collect();
        assert!(!displaced.is_empty());
        let mut out = Vec::new();
        engine
            .on_cluster_change(ClusterEvent::MachineDown { machine: victim }, &mut out)
            .unwrap();
        for &user in &displaced {
            let server = engine.server_of(user).unwrap();
            assert_ne!(server, victim);
            assert!(engine.topology.is_live(server));
            let proxy = engine.proxy_of(user).unwrap();
            assert!(engine.topology.is_live(proxy));
        }
        assert!(out.iter().any(|m| m.involves_persistent()));
        // Drains transfer machine-to-machine instead.
        let drained = topology.servers()[1].machine();
        out.clear();
        engine
            .on_cluster_change(ClusterEvent::DrainMachine { machine: drained }, &mut out)
            .unwrap();
        assert!(out.iter().all(|m| !m.involves_persistent()));
        for user in graph.users() {
            assert_ne!(engine.server_of(user), Some(drained));
        }
        // Recovery makes the machine a valid future target again; AddRack
        // extends the server table.
        engine
            .on_cluster_change(ClusterEvent::MachineUp { machine: victim }, &mut out)
            .unwrap();
        assert!(engine.topology.is_live(victim));
        let before = engine.servers.len();
        engine
            .on_cluster_change(ClusterEvent::AddRack, &mut out)
            .unwrap();
        assert!(engine.servers.len() > before);
        assert_eq!(engine.unreachable_reads(), 0);
    }

    #[test]
    fn total_outage_then_revival_recovers_stranded_views() {
        let (graph, topology) = setup();
        let mut engine = StaticPlacement::random(&graph, &topology, 11).unwrap();
        let mut out = Vec::new();
        // Kill every rack: no live target exists, views stay stranded.
        for rack in 0..topology.rack_count() as u32 {
            engine
                .on_cluster_change(
                    ClusterEvent::RackDown {
                        rack: dynasore_types::RackId::new(rack),
                    },
                    &mut out,
                )
                .unwrap();
        }
        let reader = UserId::new(0);
        let targets: Vec<UserId> = graph.followees(reader).to_vec();
        engine.handle_read(reader, &targets, SimTime::ZERO, &mut out);
        assert!(engine.unreachable_reads() > 0, "total outage must be felt");

        // Revive a single server: every stranded view is re-filled from the
        // persistent tier onto it and reads work again.
        let survivor = topology.servers()[0].machine();
        out.clear();
        engine
            .on_cluster_change(ClusterEvent::MachineUp { machine: survivor }, &mut out)
            .unwrap();
        assert!(out.iter().any(|m| m.involves_persistent()));
        for user in graph.users() {
            assert_eq!(engine.server_of(user), Some(survivor));
        }
        let before = engine.unreachable_reads();
        engine.handle_read(reader, &targets, SimTime::ZERO, &mut out);
        assert_eq!(engine.unreachable_reads(), before);
    }

    #[test]
    fn metis_keeps_more_reads_inside_racks_than_random() {
        let (graph, topology) = setup();
        let random = StaticPlacement::random(&graph, &topology, 5).unwrap();
        let metis = StaticPlacement::metis(&graph, &topology, 5).unwrap();
        let local_fraction = |engine: &StaticPlacement| {
            let mut local = 0usize;
            let mut total = 0usize;
            for user in graph.users() {
                let broker = engine.proxy_of(user).unwrap();
                for &t in graph.followees(user) {
                    let server = engine.server_of(t).unwrap();
                    total += 1;
                    if topology.rack_of(broker).unwrap() == topology.rack_of(server).unwrap() {
                        local += 1;
                    }
                }
            }
            local as f64 / total as f64
        };
        assert!(
            local_fraction(&metis) > local_fraction(&random),
            "graph partitioning should keep more reads rack-local"
        );
    }
}
