//! Cluster dynamics: how the engine reacts once the topology has applied a
//! [`ClusterEvent`](dynasore_types::ClusterEvent) and reported the
//! [`MembershipChange`](dynasore_topology::MembershipChange) — crash
//! failures ([`take_down`](DynaSoReEngine::take_down)), returning machines
//! ([`bring_up`](DynaSoReEngine::bring_up)), graceful drains and rack
//! removals ([`evacuate`](DynaSoReEngine::evacuate)) and elastic growth
//! ([`absorb_new_rack`](DynaSoReEngine::absorb_new_rack)).
//! The engine's
//! [`on_cluster_change`](dynasore_types::PlacementEngine::on_cluster_change)
//! dispatches here.

use dynasore_types::{
    MachineId, Message, ReplicaChangeReason, SubtreeId, TraceEventKind, TrafficSink, UserId,
    VIEW_TRANSFER_PROTOCOL_MESSAGES,
};

use super::DynaSoReEngine;
use crate::evaluation::OriginCosts;
use crate::routing::TransferTally;
use crate::server::ServerState;

impl DynaSoReEngine {
    /// Rebuilds the candidate and threshold caches against the liveness
    /// mask (and tree size) the topology has now. Every reaction calls this
    /// once its machines' state is settled and before it picks a landing
    /// server.
    fn rebuild_subtree_caches(&mut self, out: &mut dyn TrafficSink) {
        self.rebuild_load_cache();
        self.refresh_threshold_cache();
        out.trace(TraceEventKind::CacheRebuilt);
    }

    /// Re-homes every proxy hosted on the (dead or draining) broker machine
    /// `broker` to the closest live broker.
    fn reassign_proxies(&mut self, broker: MachineId, out: &mut dyn TrafficSink) {
        let Some(new_broker) = self.topology.closest_live_broker(broker) else {
            return; // No live broker anywhere: proxies are unreachable anyway.
        };
        for uidx in 0..self.users.len() {
            if self.users[uidx].read_proxy.machine() == broker {
                self.users[uidx].read_proxy = new_broker;
            }
            if self.users[uidx].write_proxy.machine() == broker {
                self.set_write_proxy(UserId::new(uidx as u32), new_broker, out);
            }
        }
    }

    /// Finds `view` a new home; `false` if no server took it. The ladder:
    /// the least-loaded live server of each `preferred` rack in turn, then
    /// the cluster-wide least-loaded pick, then — because a converged
    /// cluster runs its memory nearly full, so placement is about who can
    /// still *evict*, not who has free slots — every live server in ordinal
    /// order until one can make room. `place` attempts one server (told the
    /// preferred rack that proposed it, if one did) and mutates nothing when
    /// it fails.
    fn land(
        &mut self,
        view: UserId,
        preferred: impl Iterator<Item = usize>,
        mut place: impl FnMut(&mut Self, Option<usize>, usize) -> bool,
    ) -> bool {
        let racks = preferred.map(|rack| (Some(rack), SubtreeId::Rack(rack as u32)));
        for (rack, subtree) in racks.chain([(None, SubtreeId::Root)]) {
            let holders = &self.users[view.as_usize()].replicas;
            if let Some(target) = self.least_loaded_server_in(subtree, holders) {
                if place(self, rack, target) {
                    return true;
                }
            }
        }
        (0..self.servers.len()).any(|target| {
            self.topology.is_live(self.servers[target].machine()) && place(self, None, target)
        })
    }

    /// Re-creates the (lost) sole replica of `view` from the persistent
    /// tier. The view data travels from the durable store down through the
    /// top switch — that is the recovery traffic the paper's §3.3 makes
    /// possible by keeping cache servers disposable. Returns `false` when no
    /// live server can take the view (it stays lost until capacity returns).
    ///
    /// The preferred rack is the write proxy's (the recovered master lands
    /// near its writer), taken only if its least-loaded server has room.
    fn recover_view(&mut self, view: UserId, out: &mut dyn TrafficSink) -> bool {
        let write_proxy = self.users[view.as_usize()].write_proxy.machine();
        let preferred = self.topology.rack_of(write_proxy).ok();
        let preferred = preferred.map(|rack| rack.as_usize()).into_iter();
        self.land(view, preferred, |engine, rack, target| {
            (rack.is_none() || !engine.servers[target].is_full())
                && engine.place_recovered(view, target, out)
        })
    }

    /// Tries to place the recovered master of `view` on server `target`,
    /// evicting a redundant replica if the server is full. Charges the
    /// persistent-tier transfer on success.
    fn place_recovered(&mut self, view: UserId, target: usize, out: &mut dyn TrafficSink) -> bool {
        if !self.admit(view, target, out) {
            return false;
        }
        let write_proxy = self.users[view.as_usize()].write_proxy.machine();
        let target_machine = self.servers[target].machine();
        // The write proxy orchestrates the refill; the view data streams
        // from the persistent tier across the core switch.
        out.record(Message::protocol(write_proxy, target_machine));
        out.record_n(
            Message::persistent_fetch(target_machine),
            VIEW_TRANSFER_PROTOCOL_MESSAGES,
        );
        self.recovered_views += 1;
        out.trace(TraceEventKind::ReplicaCreated {
            user: view,
            server: target_machine,
            reason: ReplicaChangeReason::Recovery,
        });
        true
    }

    /// Reacts to a set of machines crash-failing at once (one machine, or a
    /// whole rack for correlated failures; the topology already has them
    /// dead): re-homes proxies off dead brokers, drops every replica they
    /// held, and re-creates lost masters from the persistent tier. Handling
    /// the set as a batch means views replicated only within a failing rack
    /// are recovered once, not moved from dying machine to dying machine.
    pub(super) fn take_down(&mut self, newly_dead: &[MachineId], out: &mut dyn TrafficSink) {
        for &machine in newly_dead {
            if self.topology.is_broker(machine) {
                self.reassign_proxies(machine, out);
            }
        }
        let mut lost: Vec<UserId> = Vec::new();
        for &machine in newly_dead {
            let Some(sidx) = self.topology.server_ordinal(machine) else {
                continue;
            };
            // The machine is dead: its replicas vanish without eviction
            // protocol traffic. Unlinking empties the slab; the clear resets
            // its free list and threshold to the freshly built state.
            for view in self.servers[sidx].view_ids() {
                self.unlink_replica(view, sidx, out);
                if self.users[view.as_usize()].replicas.is_empty() {
                    lost.push(view);
                }
            }
            debug_assert!(self.servers[sidx].is_empty());
            self.servers[sidx].clear();
        }
        self.rebuild_subtree_caches(out);
        lost.sort_unstable();
        for view in lost {
            self.recover_view(view, out);
        }
    }

    /// Reacts to machines coming back (empty caches; the topology already
    /// has them live). The returning capacity immediately becomes the
    /// least-loaded landing spot for new replicas, and any view that stayed
    /// lost for lack of capacity is recovered now.
    pub(super) fn bring_up(&mut self, out: &mut dyn TrafficSink) {
        self.rebuild_subtree_caches(out);
        for uidx in 0..self.users.len() {
            if self.users[uidx].replicas.is_empty() {
                self.recover_view(UserId::new(uidx as u32), out);
            }
        }
    }

    /// Gracefully empties `subtree` — one drained machine, or a whole
    /// decommissioned rack (elastic shrink) — which the topology has just
    /// taken out of service. `leaving` are its machines that were still
    /// live; all of them are already dead, so no evacuated view shuffles from
    /// one leaving machine to another. Proxies on the sub-tree's brokers are
    /// re-homed (also off brokers that died earlier and may host stranded
    /// proxies), extra replicas are dropped and sole replicas migrate
    /// machine-to-machine (no persistent-tier traffic in the happy path). A
    /// sole replica that fits nowhere falls back to the crash path and is
    /// recovered from the persistent tier when capacity returns.
    pub(super) fn evacuate(
        &mut self,
        subtree: SubtreeId,
        leaving: &[MachineId],
        out: &mut dyn TrafficSink,
    ) {
        self.rebuild_subtree_caches(out);
        for broker in self.topology.brokers_in_subtree_slice(subtree).to_vec() {
            self.reassign_proxies(broker.machine(), out);
        }
        let Some(rack) = leaving.first().and_then(|&m| self.topology.rack_of(m).ok()) else {
            return;
        };
        let mut cursor = (rack.as_usize() + 1) % self.topology.rack_count();
        for &machine in leaving {
            if let Some(sidx) = self.topology.server_ordinal(machine) {
                self.evacuate_server(sidx, &mut cursor, out);
            }
        }
    }

    /// Evacuates every view stored on server `sidx` (its machine is already
    /// marked dead): redundant replicas are dropped, sole replicas migrate
    /// machine-to-machine. A single cluster-wide least-loaded target would
    /// absorb the whole machine and become the next hot spot, so the
    /// preferred racks are all of them, dealt round-robin through
    /// `rack_cursor`. Views that fit nowhere fall back to the crash path.
    /// Clears the slab.
    fn evacuate_server(&mut self, sidx: usize, rack_cursor: &mut usize, out: &mut dyn TrafficSink) {
        let racks = self.topology.rack_count();
        let mut views = self.servers[sidx].view_ids();
        views.sort_unstable();
        for view in views {
            if self.users[view.as_usize()].replicas.len() > 1 {
                if self.remove_replica(view, sidx, out) {
                    self.trace_dropped(view, sidx, ReplicaChangeReason::Evacuation, out);
                }
                continue;
            }
            // Sole replica: it must land somewhere before the machine goes.
            let first = *rack_cursor;
            let migrated = self.land(
                view,
                (0..racks).map(|step| (first + step) % racks),
                |engine, rack, target| {
                    let reason = ReplicaChangeReason::Evacuation;
                    let moved = engine.move_replica(view, sidx, target, reason, out);
                    if let (true, Some(rack)) = (moved, rack) {
                        *rack_cursor = (rack + 1) % racks;
                    }
                    moved
                },
            );
            if !migrated {
                // Genuinely no live capacity anywhere: lose the replica as a
                // crash would (a later MachineUp/RackUp recovers it from the
                // persistent tier).
                self.unlink_replica(view, sidx, out);
                self.trace_dropped(view, sidx, ReplicaChangeReason::Evacuation, out);
            }
        }
        // The machine is already dead (and thus absent from every candidate
        // set), so clearing its slab needs no cache update.
        debug_assert!(self.servers[sidx].is_empty());
        self.servers[sidx].clear();
    }

    /// Absorbs a freshly added rack: mirrors the new topology servers with
    /// empty [`ServerState`]s of the capacity every server has, re-sizes
    /// the per-subtree caches and the transfer tally, and announces the new
    /// brokers to the old ones. The empty servers become the least-loaded
    /// candidates everywhere, so regular replication/migration traffic
    /// spreads load onto them.
    pub(super) fn absorb_new_rack(&mut self, added: &[MachineId], out: &mut dyn TrafficSink) {
        let capacity = self.capacity_per_server();
        for server in &self.topology.servers()[self.servers.len()..] {
            self.servers
                .push(ServerState::new(server.machine(), capacity));
        }
        self.scratch.tally = TransferTally::new(&self.topology);
        // The tree grew: sums for its new nodes, and utilities computed
        // before are not trusted (an origin id past the old end of the tree
        // was far from everything and may now name a real subtree).
        self.scratch.costs = OriginCosts::new(&self.topology);
        self.servers
            .iter_mut()
            .for_each(ServerState::mark_all_stale);
        self.rebuild_subtree_caches(out);
        // Routing-table propagation: the new rack's broker introduces itself
        // to every existing broker.
        if let Some(&new_broker) = added.iter().find(|&&m| self.topology.is_broker(m)) {
            for broker in self.topology.brokers() {
                if broker.machine() != new_broker {
                    out.record(Message::protocol(new_broker, broker.machine()));
                }
            }
        }
    }
}
