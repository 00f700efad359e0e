//! The memory-management policy of §3.2: replica utilities, the eviction
//! victim and background sweep (*Eviction of views*), and the admission
//! thresholds that gate new replicas (*Replication of views*).
//!
//! With the paper's 30 % extra memory every server runs full, so admitting a
//! replica means evicting one and victim selection sits on the read path.
//! Recomputing every stored view's utility for each victim costs
//! `O(capacity · origins)`; instead each slab slot caches its replica's
//! utility ([`ServerState`](crate::ServerState)) and only the slots whose
//! inputs moved are recomputed. A utility (the test oracle
//! `utility::replica_utility` is the specification) depends on exactly four
//! things, and each has one place that marks the cache stale:
//!
//! | input | changes in | marked by |
//! |---|---|---|
//! | the replica's statistics | reads, writes, origin hand-over | `ServerState::stats_mut` |
//! | … their window | a period with traffic expiring at the tick | `ServerState::rotate_counters` |
//! | the nearest other replica | any change of the view's replica set | `link_replica`, `unlink_replica` → [`DynaSoReEngine::invalidate_view`] |
//! | the view's write proxy | proxy migration, broker failure | `set_write_proxy` → [`DynaSoReEngine::invalidate_view`] |
//!
//! Distances between machines never change. A grown cluster marks every
//! utility stale at once: an origin id past the old end of the tree was far
//! from everything and may now name a real sub-tree.

use dynasore_types::{MachineId, ReplicaChangeReason, SubtreeId, TrafficSink, UserId};

use super::load::{subtrees_above, PerSubtree};
use super::DynaSoReEngine;
use crate::server::admission_threshold_from_utilities;
use crate::stats::ReplicaStats;

/// Fraction of a server's memory the admission threshold protects: only
/// replicas more useful than what fills 90 % of it are admitted (§3.2,
/// *Replication of views*).
const ADMISSION_FILL_TARGET: f64 = 0.90;

/// Occupancy above which the background sweep evicts the least useful
/// replicas: servers keep 5 % of their memory free (§3.2, *Eviction of
/// views*).
const EVICTION_THRESHOLD: f64 = 0.95;

/// Occupancy the eviction sweep brings a server back to (reproduction
/// choice: the paper names only the trigger).
const EVICTION_TARGET: f64 = 0.90;

/// Cached per-subtree minima of the servers' admission thresholds (all zero
/// until the first tick, like the thresholds themselves).
///
/// Thresholds only change during the maintenance tick (the paper
/// disseminates them by piggybacking, i.e. they are stale between periods
/// anyway), so the per-origin minimum the hot path needs is refreshed once
/// per tick and read in O(1) instead of scanning the origin's servers on
/// every request.
pub(super) type ThresholdCache = PerSubtree<f64>;

impl DynaSoReEngine {
    /// Utility of the replica of `view` stored on server `sidx`, whose
    /// statistics are `stats` (infinite for sole replicas): Algorithm 1's
    /// profit against the nearest other replica, with every distance read
    /// from the topology's paths.
    fn utility_of(&self, view: UserId, stats: &ReplicaStats, sidx: usize) -> f64 {
        let Some(nearest) = self.nearest_other_replica(view, sidx) else {
            return f64::INFINITY;
        };
        let topology = &self.topology;
        let distance = |a, b| i64::from(topology.path_distance(a, b));
        let server = topology.machine_path(self.servers[sidx].machine());
        let nearest = topology.machine_path(nearest);
        let write_proxy = topology.machine_path(self.users[view.as_usize()].write_proxy.machine());
        let mut profit = -(stats.total_writes() as i64) * distance(write_proxy, server);
        for (origin, reads) in stats.reads() {
            let origin = topology.origin_path(origin);
            profit += reads as i64 * (distance(nearest, origin) - distance(server, origin));
        }
        profit as f64
    }

    /// Marks the cached utility of every replica of `view` stale. Follows
    /// every change of the view's replica set (each replica's nearest other
    /// replica may have moved) and of its write proxy: `link_replica`,
    /// `unlink_replica` and `set_write_proxy` are the only places that make
    /// one, and they call this.
    pub(super) fn invalidate_view(&mut self, view: UserId) {
        for r in &self.users[view.as_usize()].replicas {
            self.servers[r.server()].mark_stale(r.slot());
        }
    }

    /// Brings every cached utility of server `sidx` up to date.
    pub(super) fn refresh_utilities(&mut self, sidx: usize) {
        while let Some(slot) = self.servers[sidx].next_stale_slot() {
            let (view, stats) = self.servers[sidx].replica_at(slot);
            let utility = self.utility_of(view, stats, sidx);
            self.servers[sidx].store_utility(slot, utility);
        }
    }

    /// The lowest-utility evictable view on server `sidx`: more than one
    /// replica (a sole replica's utility is infinite), ties broken by
    /// [`UserId`] (matching the ascending-id iteration of the former
    /// `BTreeMap` storage, so victim choice is independent of slab slot
    /// layout).
    pub(super) fn eviction_victim(&mut self, sidx: usize) -> Option<UserId> {
        self.refresh_utilities(sidx);
        self.servers[sidx].lowest_utility_view()
    }

    /// Frees one slot on `target` if it is full, by evicting its
    /// lowest-utility replica that has copies elsewhere. Returns `true` if
    /// the server has room afterwards. The caller is about to fill the slot
    /// and owes the load cache one update for the net change
    /// (`update_load_cache(target, load before this call)`).
    pub(super) fn ensure_space(&mut self, target: usize, out: &mut dyn TrafficSink) -> bool {
        if !self.servers[target].is_full() {
            return true;
        }
        let Some(view) = self.eviction_victim(target) else {
            return false;
        };
        if self.detach_replica(view, target, out) {
            self.trace_dropped(view, target, ReplicaChangeReason::Eviction, out);
        }
        !self.servers[target].is_full()
    }

    /// Removes the replica of `view` on server `sidx` as an eviction.
    fn evict(&mut self, view: UserId, sidx: usize, out: &mut dyn TrafficSink) -> bool {
        let removed = self.remove_replica(view, sidx, out);
        if removed {
            self.trace_dropped(view, sidx, ReplicaChangeReason::Eviction, out);
        }
        removed
    }

    /// Background eviction sweep for one server (§3.2, *Eviction of views*):
    /// first drop replicas with negative utility, then, if occupancy still
    /// exceeds the threshold, evict the least useful evictable replicas
    /// until the target occupancy is reached.
    fn eviction_sweep(&mut self, sidx: usize, out: &mut dyn TrafficSink) {
        // Drop negative-utility replicas (never a sole replica: its utility
        // is infinite). The victim list reuses a scratch buffer and is
        // sorted by id so removal order matches the former ascending-UserId
        // storage iteration.
        self.refresh_utilities(sidx);
        let mut negative = std::mem::take(&mut self.scratch.views);
        negative.clear();
        negative.extend(self.servers[sidx].views_with_utility_below(0.0));
        negative.sort_unstable();
        for &view in &negative {
            self.evict(view, sidx, out);
        }
        negative.clear();
        self.scratch.views = negative;

        if self.servers[sidx].occupancy() <= EVICTION_THRESHOLD {
            return;
        }
        // Evict lowest-utility replicas until the target occupancy.
        while self.servers[sidx].occupancy() > EVICTION_TARGET {
            let Some(view) = self.eviction_victim(sidx) else {
                break;
            };
            if !self.evict(view, sidx, out) {
                break;
            }
        }
    }

    /// The maintenance tick's share of the policy, after the counters
    /// rotated: refresh every live server's admission threshold, then sweep.
    /// Each utility is computed at most once — the rotation left the slots
    /// that lost traffic stale, the threshold pass refreshes them, and the
    /// sweep finds the cache clean except where an earlier server's
    /// evictions reached into it.
    /// Dead servers are empty and excluded from the threshold caches.
    pub(super) fn run_memory_policy(&mut self, out: &mut dyn TrafficSink) {
        let mut utilities = std::mem::take(&mut self.scratch.utilities);
        for sidx in 0..self.servers.len() {
            if !self.topology.is_live(self.servers[sidx].machine()) {
                continue;
            }
            self.refresh_utilities(sidx);
            let server = &mut self.servers[sidx];
            utilities.clear();
            utilities.extend(server.cached_utilities().map(|(_, utility)| utility));
            let threshold = admission_threshold_from_utilities(
                &mut utilities,
                server.capacity(),
                ADMISSION_FILL_TARGET,
            );
            server.set_admission_threshold(threshold);
        }
        self.scratch.utilities = utilities;
        self.refresh_threshold_cache();
        for sidx in 0..self.servers.len() {
            if self.topology.is_live(self.servers[sidx].machine()) {
                self.eviction_sweep(sidx, out);
            }
        }
    }

    /// The lowest admission threshold among the servers under `origin`
    /// (disseminated by piggybacking in the paper; served from the
    /// per-subtree cache here — thresholds only move during the tick).
    pub(super) fn admission_threshold_of(&self, origin: SubtreeId) -> f64 {
        let threshold = match origin {
            SubtreeId::Machine(m) => {
                let machine = MachineId::new(m);
                let server = self.topology.server_ordinal(machine);
                server
                    .filter(|_| self.topology.is_live(machine))
                    .map(|i| self.servers[i].admission_threshold())
            }
            _ => self.thresholds.get(&self.topology, origin).copied(),
        };
        threshold.unwrap_or(f64::INFINITY)
    }

    /// Rebuilds the per-subtree threshold minima from the current server
    /// thresholds, sized for the current tree. Called once per maintenance
    /// tick, right after the thresholds themselves are refreshed, and
    /// whenever the set of live servers changes.
    pub(super) fn refresh_threshold_cache(&mut self) {
        self.thresholds.reset(&self.topology, f64::INFINITY);
        for server in &self.servers {
            if !self.topology.is_live(server.machine()) {
                continue;
            }
            for slot in subtrees_above(&self.topology, server.machine()) {
                let min = self.thresholds.entry(slot);
                *min = min.min(server.admission_threshold());
            }
        }
    }
}
