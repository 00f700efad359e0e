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
    BrokerId, ClusterEvent, Error, Latency, MachineId, MemoryBudget, Result, SimTime, SubtreeId,
    UserId, VIEW_TRANSFER_PROTOCOL_MESSAGES,
};
use dynasore_types::{
    MemoryUsage, Message, PlacementEngine, ReplicaChangeReason, TraceEventKind, TrafficSink,
};
use dynasore_workload::GraphMutation;

use crate::config::{DynaSoReConfig, InitialPlacement};
use crate::evaluation::{OriginCosts, PathTable};
use crate::placement::initial_assignment;
use crate::routing::{optimal_proxy_broker, TransferTally};
use crate::server::ServerState;

mod eviction;

use eviction::ThresholdCache;

/// Per-user routing state: the brokers hosting the user's proxies and the
/// servers holding replicas of her view.
#[derive(Debug, Clone)]
struct UserState {
    read_proxy: BrokerId,
    write_proxy: BrokerId,
    /// Dense server indices (positions in `DynaSoReEngine::servers`) holding
    /// a replica of this user's view. Always non-empty.
    replicas: Vec<usize>,
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
    config: DynaSoReConfig,
    servers: Vec<ServerState>,
    users: Vec<UserState>,
    /// Every machine's and origin's position in the tree: the distances of
    /// routing, evaluation and utilities come from here.
    paths: PathTable,
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

/// How many least-loaded servers each subtree candidate set remembers.
/// Views rarely hold more replicas than this inside one subtree, so the
/// exact fallback scan is almost never taken.
const LOAD_TOP_K: usize = 4;

/// The `(len, ordinal)` keys of the up-to-`LOAD_TOP_K` least-loaded servers
/// of one subtree, ascending, split into "has free space" and "any" lists.
///
/// Server loads only change when a replica is created or evicted, so the
/// engine rebuilds the affected sets on those (rare) events and the
/// per-read candidate query becomes a couple of comparisons instead of a
/// scan over the subtree's servers. `*_seen` counts every offered server;
/// when it exceeds `LOAD_TOP_K` the list is a truncation, and a query whose
/// exclusions swallow the whole list falls back to the exact scan.
#[derive(Debug, Clone, Default)]
struct CandidateSet {
    free: [(u32, u32); LOAD_TOP_K],
    free_count: u8,
    free_seen: u32,
    any: [(u32, u32); LOAD_TOP_K],
    any_count: u8,
    any_seen: u32,
}

/// Equality over the *live* list prefixes only: slots beyond `count` are
/// never read, and incremental removals leave stale keys there that a fresh
/// rebuild zero-fills.
impl PartialEq for CandidateSet {
    fn eq(&self, other: &Self) -> bool {
        self.free_seen == other.free_seen
            && self.any_seen == other.any_seen
            && self.free[..self.free_count as usize] == other.free[..other.free_count as usize]
            && self.any[..self.any_count as usize] == other.any[..other.any_count as usize]
    }
}

impl Eq for CandidateSet {}

impl CandidateSet {
    fn offer_into(
        list: &mut [(u32, u32); LOAD_TOP_K],
        count: &mut u8,
        seen: &mut u32,
        key: (u32, u32),
    ) {
        *seen += 1;
        Self::list_insert(list, count, key);
    }

    /// Inserts `key` into a sorted top-K list, dropping the largest entry
    /// when the list is full and `key` beats it. Does not touch `seen` —
    /// callers account for the population change themselves.
    fn list_insert(list: &mut [(u32, u32); LOAD_TOP_K], count: &mut u8, key: (u32, u32)) {
        let n = *count as usize;
        let mut pos = n;
        for (k, entry) in list.iter().enumerate().take(n) {
            if key < *entry {
                pos = k;
                break;
            }
        }
        if pos == n {
            if n < LOAD_TOP_K {
                list[n] = key;
                *count += 1;
            }
            return;
        }
        let last = if n < LOAD_TOP_K { n } else { LOAD_TOP_K - 1 };
        for k in (pos..last).rev() {
            list[k + 1] = list[k];
        }
        list[pos] = key;
        if n < LOAD_TOP_K {
            *count += 1;
        }
    }

    /// Applies one list's share of an incremental update: the tracked
    /// server's key changed from `old` to `new`, where `None` means the
    /// server was/is not part of this list's population (e.g. it gained or
    /// lost its free slot for the `free` list).
    ///
    /// Returns `false` when the list can no longer prove it holds the K
    /// smallest keys — removing a listed entry from a truncated list, or a
    /// listed server whose key grew past the retained tail — and the caller
    /// must rebuild from an exact scan. Every other transition is resolved
    /// in O(K): the surviving entries are provably still the smallest, and
    /// any unseen key is no smaller than the old full list's maximum.
    fn list_update(
        list: &mut [(u32, u32); LOAD_TOP_K],
        count: &mut u8,
        seen: &mut u32,
        old: Option<(u32, u32)>,
        new: Option<(u32, u32)>,
    ) -> bool {
        let n = *count as usize;
        let pos = old.and_then(|key| list[..n].iter().position(|e| *e == key));
        match (old, new) {
            (None, None) => true,
            (None, Some(key)) => {
                *seen += 1;
                Self::list_insert(list, count, key);
                true
            }
            (Some(_), None) => match pos {
                Some(p) => {
                    if *seen > n as u32 {
                        // Truncated: the successor that should take the
                        // freed slot was never recorded.
                        return false;
                    }
                    for k in p..n - 1 {
                        list[k] = list[k + 1];
                    }
                    *count -= 1;
                    *seen -= 1;
                    true
                }
                None => {
                    // The server sat beyond the truncated tail; the listed
                    // entries are still the K smallest of what remains.
                    debug_assert!(*seen > n as u32, "complete list missing a member");
                    *seen = seen.saturating_sub(1);
                    true
                }
            },
            (Some(_), Some(key)) => match pos {
                Some(p) => {
                    // Every unseen key is ≥ the old K-th smallest (the list
                    // maximum), so the new key can be re-inserted exactly as
                    // long as it does not grow past that bound.
                    let old_max = list[n - 1];
                    for k in p..n - 1 {
                        list[k] = list[k + 1];
                    }
                    *count -= 1;
                    let truncated = *seen > n as u32;
                    if truncated && key > old_max {
                        // The key may have fallen behind an unseen one.
                        return false;
                    }
                    Self::list_insert(list, count, key);
                    true
                }
                None => {
                    if n < LOAD_TOP_K {
                        // A complete list contains its whole population; a
                        // miss means the caller's bookkeeping drifted.
                        debug_assert!(*seen > n as u32, "complete list missing a member");
                        return false;
                    }
                    // Beyond the truncated tail: pulls into the top-K only
                    // by beating the current largest listed key.
                    if key < list[n - 1] {
                        Self::list_insert(list, count, key);
                    }
                    true
                }
            },
        }
    }

    /// Incrementally applies a load change of server `ord` (`old_len` →
    /// `new_len` views, `old_space`/`new_space` = had/has a free slot) to
    /// both top-K lists. Returns `false` when either list lost track of its
    /// top-K and the whole set must be rebuilt with an exact scan.
    fn update(
        &mut self,
        ord: u32,
        old_len: u32,
        new_len: u32,
        old_space: bool,
        new_space: bool,
    ) -> bool {
        let old_key = (old_len, ord);
        let new_key = (new_len, ord);
        let any_ok = Self::list_update(
            &mut self.any,
            &mut self.any_count,
            &mut self.any_seen,
            Some(old_key),
            Some(new_key),
        );
        let free_ok = Self::list_update(
            &mut self.free,
            &mut self.free_count,
            &mut self.free_seen,
            old_space.then_some(old_key),
            new_space.then_some(new_key),
        );
        any_ok && free_ok
    }

    fn offer(&mut self, key: (u32, u32), has_space: bool) {
        Self::offer_into(&mut self.any, &mut self.any_count, &mut self.any_seen, key);
        if has_space {
            Self::offer_into(
                &mut self.free,
                &mut self.free_count,
                &mut self.free_seen,
                key,
            );
        }
    }

    /// `Some(answer)` when the cache can answer exactly (preferring servers
    /// with free space, then any server, `(len, ordinal)` ascending, never
    /// an excluded server); `None` when the exclusions exhaust a truncated
    /// list and the caller must fall back to the exact scan.
    fn query(&self, exclude: &[usize]) -> Option<Option<usize>> {
        for k in 0..self.free_count as usize {
            let ord = self.free[k].1 as usize;
            if !exclude.contains(&ord) {
                return Some(Some(ord));
            }
        }
        if self.free_seen > LOAD_TOP_K as u32 {
            return None;
        }
        for k in 0..self.any_count as usize {
            let ord = self.any[k].1 as usize;
            if !exclude.contains(&ord) {
                return Some(Some(ord));
            }
        }
        if self.any_seen > LOAD_TOP_K as u32 {
            return None;
        }
        Some(None)
    }
}

/// Per-subtree [`CandidateSet`]s: one per rack, one per intermediate
/// switch, one for the whole cluster.
#[derive(Debug, Clone)]
struct LoadCache {
    rack: Vec<CandidateSet>,
    inter: Vec<CandidateSet>,
    root: CandidateSet,
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
    counter_slots: usize,
    admission_fill_target: f64,
    eviction_threshold: f64,
    eviction_target: f64,
    congestion_penalty_per_sec: f64,
    name: Option<String>,
}

impl Default for DynaSoReEngineBuilder {
    fn default() -> Self {
        DynaSoReEngineBuilder {
            topology: None,
            budget: None,
            initial_placement: InitialPlacement::Random { seed: 0 },
            counter_slots: 24,
            admission_fill_target: 0.90,
            eviction_threshold: 0.95,
            eviction_target: 0.90,
            congestion_penalty_per_sec: 500.0,
            name: None,
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

    /// Number of periods in the rotating statistics window (default 24).
    pub fn counter_slots(mut self, slots: usize) -> Self {
        self.counter_slots = slots;
        self
    }

    /// Fraction of memory protected by the admission threshold (default
    /// 0.9).
    pub fn admission_fill_target(mut self, target: f64) -> Self {
        self.admission_fill_target = target;
        self
    }

    /// Occupancy that triggers the background eviction sweep (default 0.95).
    pub fn eviction_threshold(mut self, threshold: f64) -> Self {
        self.eviction_threshold = threshold;
        self
    }

    /// Occupancy the eviction sweep aims for (default 0.90).
    pub fn eviction_target(mut self, target: f64) -> Self {
        self.eviction_target = target;
        self
    }

    /// Profit units one second of queueing delay at a candidate rack's
    /// switch costs in replica-placement decisions (default 500; 0 disables
    /// congestion-aware placement). Only effective when the driving sink
    /// reports real congestion, i.e. under a time-aware network model.
    pub fn congestion_penalty_per_sec(mut self, per_sec: f64) -> Self {
        self.congestion_penalty_per_sec = per_sec;
        self
    }

    /// Overrides the engine name used in reports.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Builds the engine over `graph`.
    ///
    /// # Errors
    ///
    /// Returns an error if the topology or budget is missing/inconsistent,
    /// the cluster cannot hold one copy of every view, or the initial
    /// placement cannot be computed.
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
        let mut config = DynaSoReConfig::new(budget);
        config.counter_slots = self.counter_slots;
        config.admission_fill_target = self.admission_fill_target;
        config.eviction_threshold = self.eviction_threshold;
        config.eviction_target = self.eviction_target;
        config.congestion_penalty_per_sec = self.congestion_penalty_per_sec;
        config.validate()?;

        let server_count = topology.server_count();
        let capacity = config.budget.slots_per_server(server_count)?;
        let total_capacity = capacity * server_count;
        if total_capacity < graph.user_count() {
            return Err(Error::InsufficientCapacity {
                required: graph.user_count(),
                available: total_capacity,
            });
        }

        let assignment = initial_assignment(&self.initial_placement, graph, &topology)?;

        // `servers[i]` mirrors `topology.servers()[i]`, so a machine's dense
        // engine index is exactly `topology.server_ordinal(machine)`.
        let mut servers: Vec<ServerState> = topology
            .servers()
            .iter()
            .map(|s| ServerState::new(s.machine(), capacity, config.counter_slots))
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
            servers[sidx].insert(user);
            let broker = topology.local_broker(servers[sidx].machine())?;
            users.push(UserState {
                read_proxy: broker,
                write_proxy: broker,
                replicas: vec![sidx],
            });
        }

        let name = self
            .name
            .unwrap_or_else(|| format!("dynasore-from-{}", self.initial_placement.label()));

        let paths = PathTable::new(&topology);
        let scratch = Scratch {
            tally: TransferTally::new(&topology),
            utilities: Vec::new(),
            views: Vec::new(),
            origins: Vec::new(),
            costs: OriginCosts::new(&paths),
            candidates: Vec::new(),
        };
        let thresholds = ThresholdCache::new(&topology);
        let loads = LoadCache {
            rack: vec![CandidateSet::default(); topology.rack_count()],
            inter: vec![CandidateSet::default(); topology.intermediate_count()],
            root: CandidateSet::default(),
        };
        let mut engine = DynaSoReEngine {
            name,
            topology,
            config,
            servers,
            users,
            paths,
            scratch,
            thresholds,
            loads,
            unreachable_reads: 0,
            recovered_views: 0,
            #[cfg(test)]
            reference_evaluation: false,
        };
        engine.rebuild_load_cache();
        Ok(engine)
    }
}

impl DynaSoReEngine {
    /// Starts building an engine.
    pub fn builder() -> DynaSoReEngineBuilder {
        DynaSoReEngineBuilder::default()
    }

    /// The engine configuration in effect.
    pub fn config(&self) -> &DynaSoReConfig {
        &self.config
    }

    /// The machines currently holding a replica of `user`'s view.
    pub fn replica_servers(&self, user: UserId) -> Vec<MachineId> {
        self.users
            .get(user.as_usize())
            .map(|u| {
                u.replicas
                    .iter()
                    .map(|&i| self.servers[i].machine())
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
                    .filter_map(|&i| self.servers[i].stats(user))
                    .map(|s| s.total_reads())
                    .sum()
            })
            .unwrap_or(0)
    }

    /// The machine holding the replica of `user`'s view that a broker on
    /// `from` reads (LCA routing policy, ties by machine id — the policy of
    /// [`routing::closest_replica`](crate::routing::closest_replica)), or
    /// `None` for unknown users and views without a live replica.
    /// Allocation-free, unlike [`DynaSoReEngine::replica_servers`].
    pub fn closest_replica(&self, user: UserId, from: MachineId) -> Option<MachineId> {
        if user.as_usize() >= self.users.len() || !self.topology.contains(from) {
            return None;
        }
        self.closest_replica_of(user, from)
            .map(|(_, machine)| machine)
    }

    /// The replica of `view` closest to `from` (LCA routing policy, ties by
    /// machine id), as `(engine index, machine)`. Allocation-free.
    fn closest_replica_of(&self, view: UserId, from: MachineId) -> Option<(usize, MachineId)> {
        let from = self.paths.machine_path(from);
        let mut best: Option<(i64, u32, usize)> = None;
        for &i in &self.users[view.as_usize()].replicas {
            let machine = self.servers[i].machine();
            let distance = self
                .paths
                .distance(&from, &self.paths.machine_path(machine));
            let key = (distance, machine.index(), i);
            if best.map_or(true, |b| (key.0, key.1) < (b.0, b.1)) {
                best = Some(key);
            }
        }
        best.map(|(_, machine, i)| (i, MachineId::new(machine)))
    }

    /// The closest other replica of `view` as seen from `sidx`, if any.
    fn nearest_other_replica(&self, view: UserId, sidx: usize) -> Option<MachineId> {
        let from = self.paths.machine_path(self.servers[sidx].machine());
        let mut best: Option<(i64, u32)> = None;
        for &i in &self.users[view.as_usize()].replicas {
            if i == sidx {
                continue;
            }
            let other = self.servers[i].machine();
            let distance = self.paths.distance(&from, &self.paths.machine_path(other));
            let key = (distance, other.index());
            if best.map_or(true, |b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, machine)| MachineId::new(machine))
    }

    /// The least-loaded server under `origin` that does not already hold a
    /// replica of the view (`exclude`). Servers with free space are
    /// preferred; a full server may be returned (the caller then evicts).
    fn least_loaded_server_in(&self, origin: SubtreeId, exclude: &[usize]) -> Option<usize> {
        if let SubtreeId::Machine(m) = origin {
            let machine = MachineId::new(m);
            if !self.topology.is_live(machine) {
                return None;
            }
            let i = self.topology.server_ordinal(machine)?;
            return if exclude.contains(&i) { None } else { Some(i) };
        }
        let set = match origin {
            SubtreeId::Root => Some(&self.loads.root),
            SubtreeId::Intermediate(i) => self.loads.inter.get(i as usize),
            SubtreeId::Rack(r) => self.loads.rack.get(r as usize),
            SubtreeId::Machine(_) => unreachable!("handled above"),
        }?;
        match set.query(exclude) {
            Some(answer) => answer,
            None => self.least_loaded_scan(origin, exclude),
        }
    }

    /// The exact form of [`DynaSoReEngine::least_loaded_server_in`]: a scan
    /// over the origin's servers. Used as the fallback when the view's
    /// exclusions swallow a whole (truncated) candidate set.
    fn least_loaded_scan(&self, origin: SubtreeId, exclude: &[usize]) -> Option<usize> {
        // `servers_in_subtree_slice` is a contiguous range in machine order,
        // so scanning it keeps the old "first least-loaded in machine order"
        // tie-breaking without collecting candidates.
        let mut best_any: Option<(usize, usize)> = None; // (len, index)
        let mut best_free: Option<(usize, usize)> = None;
        for server in self.topology.servers_in_subtree_slice(origin) {
            if !self.topology.is_live(server.machine()) {
                continue;
            }
            let Some(i) = self.topology.server_ordinal(server.machine()) else {
                continue;
            };
            if exclude.contains(&i) {
                continue;
            }
            let key = (self.servers[i].len(), i);
            if best_any.map_or(true, |b| key < b) {
                best_any = Some(key);
            }
            if !self.servers[i].is_full() && best_free.map_or(true, |b| key < b) {
                best_free = Some(key);
            }
        }
        best_free.or(best_any).map(|(_, i)| i)
    }

    /// Rebuilds the candidate set of one subtree from the current server
    /// loads.
    fn build_candidate_set(&self, subtree: SubtreeId) -> CandidateSet {
        let mut set = CandidateSet::default();
        for server in self.topology.servers_in_subtree_slice(subtree) {
            // Dead servers never receive replicas: the liveness mask filters
            // them out of the candidate sets here, so the per-request query
            // path stays mask-free.
            if !self.topology.is_live(server.machine()) {
                continue;
            }
            let Some(i) = self.topology.server_ordinal(server.machine()) else {
                continue;
            };
            let key = (self.servers[i].len() as u32, i as u32);
            set.offer(key, !self.servers[i].is_full());
        }
        set
    }

    /// Rebuilds every candidate set (used once after construction).
    fn rebuild_load_cache(&mut self) {
        for r in 0..self.topology.rack_count() {
            self.loads.rack[r] = self.build_candidate_set(SubtreeId::Rack(r as u32));
        }
        for i in 0..self.topology.intermediate_count() {
            self.loads.inter[i] = self.build_candidate_set(SubtreeId::Intermediate(i as u32));
        }
        self.loads.root = self.build_candidate_set(SubtreeId::Root);
    }

    /// Refreshes the candidate sets containing server `sidx` after its load
    /// changed from `old_len` views (a replica was created or evicted).
    ///
    /// The changed key moves by ±1, so each per-subtree top-K list is
    /// patched in O(K) instead of rescanning its servers; only when a
    /// truncated list can no longer prove its top-K (the changed server fell
    /// past the retained tail) does that one set fall back to the exact
    /// rebuild scan. This is what keeps replica churn cheap when the cluster
    /// grows past the paper's 225 servers: the former full rescan of the
    /// root set cost O(servers) per churn event.
    fn update_load_cache(&mut self, sidx: usize, old_len: usize) {
        let machine = self.servers[sidx].machine();
        // Dead machines are filtered out of every candidate set when the
        // liveness mask changes (bulk rebuild), so their load changes cannot
        // move a top-K list.
        if !self.topology.is_live(machine) {
            return;
        }
        let new_len = self.servers[sidx].len();
        if new_len == old_len {
            return;
        }
        let capacity = self.servers[sidx].capacity();
        let old_space = old_len < capacity;
        let new_space = new_len < capacity;
        let (ord, old_len, new_len) = (sidx as u32, old_len as u32, new_len as u32);
        if let Ok(rack) = self.topology.rack_of(machine) {
            if !self.loads.rack[rack.as_usize()].update(ord, old_len, new_len, old_space, new_space)
            {
                self.loads.rack[rack.as_usize()] =
                    self.build_candidate_set(SubtreeId::Rack(rack.index()));
            }
            // Flat topologies have no intermediate tier: their (empty) inter
            // sets track no servers, so there is nothing to patch.
            if self.topology.kind() == dynasore_topology::TopologyKind::Tree {
                let inter = self.topology.intermediate_of_rack(rack) as usize;
                if !self.loads.inter[inter].update(ord, old_len, new_len, old_space, new_space) {
                    self.loads.inter[inter] =
                        self.build_candidate_set(SubtreeId::Intermediate(inter as u32));
                }
            }
        }
        if !self
            .loads
            .root
            .update(ord, old_len, new_len, old_space, new_space)
        {
            self.loads.root = self.build_candidate_set(SubtreeId::Root);
        }
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
        if self.servers[target].contains(view) || source == target {
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
        let source_machine = self.servers[source].machine();
        let target_machine = self.servers[target].machine();
        let write_proxy = self.users[view.as_usize()].write_proxy.machine();

        // Control messages: the storing server asks the write proxy to
        // create the replica; the write proxy instructs the target server;
        // the view data is then transferred from the source replica.
        out.record(Message::protocol(source_machine, write_proxy));
        out.record(Message::protocol(write_proxy, target_machine));
        for _ in 0..VIEW_TRANSFER_PROTOCOL_MESSAGES {
            out.record(Message::protocol(source_machine, target_machine));
        }
        // Routing-table updates for the brokers that will now read the new
        // replica (the brokers of the target's rack).
        if let Ok(rack) = self.topology.rack_of(target_machine) {
            for broker in self.topology.brokers_in_rack_slice(rack) {
                out.record(Message::protocol(write_proxy, broker.machine()));
            }
        }

        self.servers[target].insert(view);
        self.update_load_cache(target, old_len);
        self.link_replica(view, target);

        // Hand over the read history of the origins the new replica is now
        // closest to, so the source stops proposing replicas for readers it
        // no longer serves.
        let mut origins = std::mem::take(&mut self.scratch.origins);
        origins.clear();
        if let Some(stats) = self.servers[source].stats(view) {
            origins.extend(stats.reads().map(|(origin, _)| origin));
        }
        let source_path = self.paths.machine_path(source_machine);
        let target_path = self.paths.machine_path(target_machine);
        for origin in origins.drain(..) {
            let origin_path = self.paths.origin_path(origin);
            if self.paths.distance(&target_path, &origin_path)
                < self.paths.distance(&source_path, &origin_path)
            {
                let moved = self.servers[source]
                    .stats_mut(view)
                    .map(|s| s.take_origin(origin))
                    .unwrap_or(0);
                if let Some(stats) = self.servers[target].stats_mut(view) {
                    stats.record_reads(origin, moved);
                }
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
        if self.users[view.as_usize()].replicas.len() <= 1 {
            return false;
        }
        if !self.servers[sidx].contains(view) {
            return false;
        }
        let server_machine = self.servers[sidx].machine();
        let write_proxy = self.users[view.as_usize()].write_proxy.machine();
        // The write proxy is the synchronisation point for evictions and the
        // brokers that used to read this replica must update their routing
        // tables.
        out.record(Message::protocol(server_machine, write_proxy));
        if let Ok(rack) = self.topology.rack_of(server_machine) {
            for broker in self.topology.brokers_in_rack_slice(rack) {
                out.record(Message::protocol(write_proxy, broker.machine()));
            }
        }
        self.servers[sidx].remove(view);
        self.unlink_replica(view, sidx);
        true
    }

    /// Records that server `sidx` now holds a replica of `view`. Every
    /// replica's nearest other replica may have moved.
    fn link_replica(&mut self, view: UserId, sidx: usize) {
        let replicas = &mut self.users[view.as_usize()].replicas;
        replicas.push(sidx);
        replicas.sort_unstable();
        self.invalidate_view(view);
    }

    /// Records that server `sidx` no longer holds a replica of `view`.
    fn unlink_replica(&mut self, view: UserId, sidx: usize) {
        self.users[view.as_usize()].replicas.retain(|&i| i != sidx);
        self.invalidate_view(view);
    }

    /// Moves `user`'s write proxy to `broker`; the utility of every replica
    /// of her view counts the distance to it.
    fn set_write_proxy(&mut self, user: UserId, broker: BrokerId) {
        self.users[user.as_usize()].write_proxy = broker;
        self.invalidate_view(user);
    }

    /// Profit penalty for placing a replica on `machine`, derived from the
    /// sink's live congestion signal for the machine's rack switch: seconds
    /// of pending queueing delay × the configured penalty rate. Unit-count
    /// sinks report zero delay, so decisions are untouched outside a
    /// time-aware run. Allocation-free.
    fn rack_congestion_penalty(&self, out: &dyn TrafficSink, machine: MachineId) -> i64 {
        if self.config.congestion_penalty_per_sec <= 0.0 {
            return 0;
        }
        let Ok(rack) = self.topology.rack_of(machine) else {
            return 0;
        };
        let delay = out.congestion(SubtreeId::Rack(rack.index()));
        if delay == Latency::ZERO {
            return 0;
        }
        (delay.as_secs_f64() * self.config.congestion_penalty_per_sec) as i64
    }

    /// Gathers everything Algorithms 2 and 3 need to know about the replica
    /// of `view` on server `sidx`, in time linear in its `k` read origins:
    /// the per-origin sums into `costs`, then one [`Candidate`] per origin
    /// that has an eligible server into `candidates` (origin order), each
    /// priced in `O(1)` from the sums. Returns the profit of keeping the
    /// replica where it is (against the nearest other replica, or against
    /// itself for a sole replica), or `None` if the replica is not stored
    /// here. Mutates nothing but the two scratch buffers, which a failed
    /// `create_replica` leaves valid: both algorithms share one gather.
    fn gather_candidates(
        &self,
        view: UserId,
        sidx: usize,
        out: &dyn TrafficSink,
        costs: &mut OriginCosts,
        candidates: &mut Vec<Candidate>,
    ) -> Option<i64> {
        let stats = self.servers[sidx].stats(view)?;
        let paths = &self.paths;
        let server_machine = self.servers[sidx].machine();
        let write_proxy = paths.machine_path(self.users[view.as_usize()].write_proxy.machine());
        let writes = stats.total_writes() as i64;

        costs.begin(paths, server_machine);
        for (origin, reads) in stats.reads() {
            costs.push(paths, origin, reads);
        }
        let nearest = self
            .nearest_other_replica(view, sidx)
            .unwrap_or(server_machine);
        let nearest_read_cost = costs.read_cost(&paths.machine_path(nearest));

        let replicas = &self.users[view.as_usize()].replicas;
        for (origin, _reads) in stats.reads() {
            let Some(candidate) = self.least_loaded_server_in(origin, replicas) else {
                continue;
            };
            let machine = self.servers[candidate].machine();
            let path = paths.machine_path(machine);
            // What the position costs whichever algorithm picks it: keeping
            // it up to date on writes, and queueing at a congested rack.
            let overhead = writes * paths.distance(&write_proxy, &path)
                + self.rack_congestion_penalty(out, machine);
            candidates.push(Candidate {
                server: candidate,
                threshold: self.admission_threshold_of(origin),
                creation_profit: costs.creation_gain(&path) - overhead,
                position_profit: nearest_read_cost - costs.read_cost(&path) - overhead,
            });
        }
        let server_path = paths.machine_path(server_machine);
        Some(
            nearest_read_cost
                - costs.read_cost(&server_path)
                - writes * paths.distance(&write_proxy, &server_path),
        )
    }

    /// Algorithm 2 (*Evaluate Creation of Replica*) followed, when no
    /// replica is created, by Algorithm 3 (*Compute Optimal Position of
    /// Replica*), run by server `sidx` after serving a read of `view`.
    ///
    /// Both algorithms are congestion-aware: a candidate position's profit
    /// is reduced by [`DynaSoReEngine::rack_congestion_penalty`], so under a
    /// time-aware network model replicas steer away from racks whose switch
    /// queues are backed up instead of piling further load onto them.
    ///
    /// Linear in the number of read origins and allocation-free: see
    /// [`DynaSoReEngine::gather_candidates`].
    fn evaluate_replica(&mut self, view: UserId, sidx: usize, out: &mut dyn TrafficSink) {
        let mut costs = std::mem::take(&mut self.scratch.costs);
        let mut candidates = std::mem::take(&mut self.scratch.candidates);
        if let Some(keep_profit) =
            self.gather_candidates(view, sidx, out, &mut costs, &mut candidates)
        {
            self.decide_replica(view, sidx, keep_profit, &candidates, out);
        }
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
        let server_machine = self.servers[sidx].machine();
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
                out.trace(TraceEventKind::ReplicaDropped {
                    user: view,
                    server: server_machine,
                    reason: ReplicaChangeReason::Placement,
                });
            }
        } else if let Some(target) = best_position {
            // Migrate: create the replica at the better position, then
            // remove the local copy (the view keeps at least one replica
            // because the new one was just created).
            if self.create_replica(view, sidx, target, out) && self.remove_replica(view, sidx, out)
            {
                out.trace(TraceEventKind::ReplicaMoved {
                    user: view,
                    from: server_machine,
                    to: self.servers[target].machine(),
                    reason: ReplicaChangeReason::Placement,
                });
            }
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
        let uidx = user.as_usize();
        if is_write_proxy {
            if self.users[uidx].write_proxy != best {
                self.set_write_proxy(user, best);
                // The write proxy's location is stored by every replica, so
                // they must be notified of the move (iterate by index — the
                // replica list is not mutated here).
                for k in 0..self.users[uidx].replicas.len() {
                    let ridx = self.users[uidx].replicas[k];
                    out.record(Message::protocol(
                        best.machine(),
                        self.servers[ridx].machine(),
                    ));
                }
            }
        } else if self.users[uidx].read_proxy != best {
            self.users[uidx].read_proxy = best;
        }
    }

    // --- Cluster dynamics --------------------------------------------------

    /// The topology (including its liveness mask) as this engine sees it.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Views whose last replica was lost to a failure and re-created from
    /// the persistent tier (cumulative).
    pub fn recovered_views(&self) -> u64 {
        self.recovered_views
    }

    /// Re-homes every proxy hosted on the (dead or draining) broker machine
    /// `broker` to the closest live broker. Write-proxy moves are announced
    /// to the affected replicas, as in [`DynaSoReEngine::maybe_migrate_proxy`].
    fn reassign_proxies(&mut self, broker: MachineId, out: &mut dyn TrafficSink) {
        let Some(new_broker) = self.topology.closest_live_broker(broker) else {
            return; // No live broker anywhere: proxies are unreachable anyway.
        };
        for uidx in 0..self.users.len() {
            if self.users[uidx].read_proxy.machine() == broker {
                self.users[uidx].read_proxy = new_broker;
            }
            if self.users[uidx].write_proxy.machine() == broker {
                self.set_write_proxy(UserId::new(uidx as u32), new_broker);
                for k in 0..self.users[uidx].replicas.len() {
                    let ridx = self.users[uidx].replicas[k];
                    out.record(Message::protocol(
                        new_broker.machine(),
                        self.servers[ridx].machine(),
                    ));
                }
            }
        }
    }

    /// Re-creates the (lost) sole replica of `view` from the persistent
    /// tier. The view data travels from the durable store down through the
    /// top switch — that is the recovery traffic the paper's §3.3 makes
    /// possible by keeping cache servers disposable. Returns `false` when no
    /// live server can take the view (it stays lost until capacity returns).
    ///
    /// Target order: the least-loaded live server of the write proxy's rack
    /// (the recovered master lands near its writer), then the cluster-wide
    /// least-loaded pick, then — because a converged cluster runs its
    /// memory nearly full, so placement is about who can still *evict*, not
    /// who has free slots — every live server in ordinal order until one
    /// can make room.
    fn recover_view(&mut self, view: UserId, out: &mut dyn TrafficSink) -> bool {
        let write_proxy = self.users[view.as_usize()].write_proxy.machine();
        let preferred = self
            .topology
            .rack_of(write_proxy)
            .ok()
            .and_then(|rack| self.least_loaded_server_in(SubtreeId::Rack(rack.index()), &[]))
            .filter(|&i| !self.servers[i].is_full());
        if let Some(target) = preferred {
            if self.place_recovered(view, target, out) {
                return true;
            }
        }
        if let Some(target) = self.least_loaded_server_in(SubtreeId::Root, &[]) {
            if self.place_recovered(view, target, out) {
                return true;
            }
        }
        for target in 0..self.servers.len() {
            if !self.topology.is_live(self.servers[target].machine()) {
                continue;
            }
            if self.place_recovered(view, target, out) {
                return true;
            }
        }
        false
    }

    /// Tries to place the recovered master of `view` on server `target`,
    /// evicting a redundant replica if the server is full. Charges the
    /// persistent-tier transfer on success.
    fn place_recovered(&mut self, view: UserId, target: usize, out: &mut dyn TrafficSink) -> bool {
        if self.servers[target].contains(view) {
            return false;
        }
        // As in `create_replica`: one load-cache update for the swap.
        let old_len = self.servers[target].len();
        if !self.ensure_space(target, out) {
            return false;
        }
        let write_proxy = self.users[view.as_usize()].write_proxy.machine();
        let target_machine = self.servers[target].machine();
        // The write proxy orchestrates the refill; the view data streams
        // from the persistent tier across the core switch.
        out.record(Message::protocol(write_proxy, target_machine));
        for _ in 0..VIEW_TRANSFER_PROTOCOL_MESSAGES {
            out.record(Message::persistent_fetch(target_machine));
        }
        self.servers[target].insert(view);
        self.link_replica(view, target);
        self.update_load_cache(target, old_len);
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
    fn take_down(&mut self, newly_dead: &[MachineId], out: &mut dyn TrafficSink) {
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
            // protocol traffic.
            let mut views = std::mem::take(&mut self.scratch.views);
            views.clear();
            views.extend(self.servers[sidx].views().map(|(view, _)| view));
            self.servers[sidx].clear();
            for &view in &views {
                self.unlink_replica(view, sidx);
                if self.users[view.as_usize()].replicas.is_empty() {
                    lost.push(view);
                }
            }
            views.clear();
            self.scratch.views = views;
        }
        // Candidate and threshold caches must exclude the dead machines
        // before recovery picks targets.
        self.rebuild_load_cache();
        self.refresh_threshold_cache();
        out.trace(TraceEventKind::CacheRebuilt);
        lost.sort_unstable();
        for view in lost {
            self.recover_view(view, out);
        }
    }

    /// Reacts to machines coming back (empty caches; the topology already
    /// has them live). The returning capacity immediately becomes the
    /// least-loaded landing spot for new replicas, and any view that stayed
    /// lost for lack of capacity is recovered now.
    fn bring_up(&mut self, out: &mut dyn TrafficSink) {
        self.rebuild_load_cache();
        self.refresh_threshold_cache();
        out.trace(TraceEventKind::CacheRebuilt);
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
    fn evacuate(&mut self, subtree: SubtreeId, leaving: &[MachineId], out: &mut dyn TrafficSink) {
        // Placement decisions below must already exclude the leaving machines.
        self.rebuild_load_cache();
        self.refresh_threshold_cache();
        out.trace(TraceEventKind::CacheRebuilt);
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
    /// absorb the whole machine and become the next hot spot, so sole
    /// replicas are dealt round-robin across destination racks through
    /// `rack_cursor` (least-loaded server *within* each rack), falling back
    /// to the cluster-wide pick and then an ordinal eviction scan. Views
    /// that fit nowhere fall back to the crash path. Clears the slab.
    fn evacuate_server(&mut self, sidx: usize, rack_cursor: &mut usize, out: &mut dyn TrafficSink) {
        let racks = self.topology.rack_count();
        let evac_machine = self.servers[sidx].machine();
        let mut views = std::mem::take(&mut self.scratch.views);
        views.clear();
        views.extend(self.servers[sidx].views().map(|(view, _)| view));
        views.sort_unstable();
        for &view in &views {
            if self.users[view.as_usize()].replicas.len() > 1 {
                if self.remove_replica(view, sidx, out) {
                    out.trace(TraceEventKind::ReplicaDropped {
                        user: view,
                        server: evac_machine,
                        reason: ReplicaChangeReason::Evacuation,
                    });
                }
                continue;
            }
            // Sole replica: it must land somewhere before the machine goes.
            let mut migrated_to: Option<usize> = None;
            for step in 0..racks {
                let r = (*rack_cursor + step) % racks;
                let Some(target) = self.least_loaded_server_in(
                    SubtreeId::Rack(r as u32),
                    &self.users[view.as_usize()].replicas,
                ) else {
                    continue;
                };
                if self.create_replica(view, sidx, target, out)
                    && self.remove_replica(view, sidx, out)
                {
                    migrated_to = Some(target);
                    *rack_cursor = (r + 1) % racks;
                    break;
                }
            }
            if migrated_to.is_none() {
                if let Some(target) = self
                    .least_loaded_server_in(SubtreeId::Root, &self.users[view.as_usize()].replicas)
                {
                    if self.create_replica(view, sidx, target, out)
                        && self.remove_replica(view, sidx, out)
                    {
                        migrated_to = Some(target);
                    }
                }
            }
            if migrated_to.is_none() {
                // A draining rack can outsize any single server's evictable
                // stock: walk every live server in ordinal order until one
                // can make room.
                for target in 0..self.servers.len() {
                    if target == sidx || !self.topology.is_live(self.servers[target].machine()) {
                        continue;
                    }
                    if self.create_replica(view, sidx, target, out) {
                        if self.remove_replica(view, sidx, out) {
                            migrated_to = Some(target);
                        }
                        break;
                    }
                }
            }
            match migrated_to {
                Some(target) => out.trace(TraceEventKind::ReplicaMoved {
                    user: view,
                    from: evac_machine,
                    to: self.servers[target].machine(),
                    reason: ReplicaChangeReason::Evacuation,
                }),
                None => {
                    // Genuinely no live capacity anywhere: lose the replica
                    // as a crash would (a later MachineUp/RackUp recovers it
                    // from the persistent tier).
                    self.servers[sidx].remove(view);
                    self.unlink_replica(view, sidx);
                    out.trace(TraceEventKind::ReplicaDropped {
                        user: view,
                        server: evac_machine,
                        reason: ReplicaChangeReason::Evacuation,
                    });
                }
            }
        }
        views.clear();
        self.scratch.views = views;
        // The machine is already dead (and thus absent from every candidate
        // set), so clearing its slab needs no cache update.
        self.servers[sidx].clear();
    }

    /// Absorbs a freshly added rack: mirrors the new topology servers with
    /// empty [`ServerState`]s, grows the per-subtree caches and the
    /// transfer tally, and announces the new brokers to the old ones. The
    /// empty servers become the least-loaded candidates everywhere, so
    /// regular replication/migration traffic spreads load onto them.
    fn absorb_new_rack(&mut self, added: &[MachineId], out: &mut dyn TrafficSink) {
        let capacity = self.capacity_per_server();
        for server in &self.topology.servers()[self.servers.len()..] {
            self.servers.push(ServerState::new(
                server.machine(),
                capacity,
                self.config.counter_slots,
            ));
        }
        self.scratch.tally = TransferTally::new(&self.topology);
        // The tree grew: a new position table, and utilities computed from
        // the old one are not trusted (an origin id past the old table's end
        // was far from everything and may now name a real subtree).
        self.paths = PathTable::new(&self.topology);
        self.scratch.costs = OriginCosts::new(&self.paths);
        self.servers
            .iter_mut()
            .for_each(ServerState::mark_all_stale);
        self.thresholds.grow(&self.topology);
        self.loads
            .rack
            .resize(self.topology.rack_count(), CandidateSet::default());
        self.loads
            .inter
            .resize(self.topology.intermediate_count(), CandidateSet::default());
        self.rebuild_load_cache();
        self.refresh_threshold_cache();
        out.trace(TraceEventKind::CacheRebuilt);
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

impl PlacementEngine for DynaSoReEngine {
    fn name(&self) -> &str {
        &self.name
    }

    /// Steady-state reads perform zero heap allocations: replica routing
    /// scans the (borrowed) replica index list, transfer bookkeeping uses
    /// the reusable dense tally, statistics updates hit existing counters,
    /// and messages stream straight into the sink.
    fn handle_read(
        &mut self,
        user: UserId,
        targets: &[UserId],
        _time: SimTime,
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
            let Some((sidx, server_machine)) = self.closest_replica_of(target, broker) else {
                // Only possible while a lost master awaits recovery capacity.
                self.unreachable_reads += 1;
                continue;
            };
            // Request and answer.
            out.record(Message::application(broker, server_machine));
            out.record(Message::application(server_machine, broker));
            self.scratch.tally.add(server_machine, 1);

            let origin = self.topology.access_origin(server_machine, broker);
            if let Some(stats) = self.servers[sidx].stats_mut(target) {
                stats.record_read(origin);
            }
            // "Upon receiving a request for a view, a server updates its
            // access statistics and evaluates the possibility of replicating
            // it" (§3.2).
            #[cfg(test)]
            if self.reference_evaluation {
                self.evaluate_replica_reference(target, sidx, out);
                continue;
            }
            self.evaluate_replica(target, sidx, out);
        }

        self.maybe_migrate_proxy(user, false, out);
    }

    /// Steady-state writes perform zero heap allocations: the replica list
    /// is iterated by index and the transfer tally is reused.
    fn handle_write(&mut self, user: UserId, _time: SimTime, out: &mut dyn TrafficSink) {
        if user.as_usize() >= self.users.len() {
            return;
        }
        let write_proxy = self.users[user.as_usize()].write_proxy.machine();
        self.scratch.tally.clear();
        for k in 0..self.users[user.as_usize()].replicas.len() {
            let ridx = self.users[user.as_usize()].replicas[k];
            let machine = self.servers[ridx].machine();
            out.record(Message::application(write_proxy, machine));
            self.scratch.tally.add(machine, 1);
            if let Some(stats) = self.servers[ridx].stats_mut(user) {
                stats.record_write();
            }
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

    fn on_graph_change(
        &mut self,
        _mutation: GraphMutation,
        _time: SimTime,
        _out: &mut dyn TrafficSink,
    ) {
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
    /// server slabs. The per-subtree candidate and threshold caches are
    /// rebuilt against the updated liveness mask.
    fn on_cluster_change(
        &mut self,
        event: ClusterEvent,
        _time: SimTime,
        out: &mut dyn TrafficSink,
    ) {
        out.trace(TraceEventKind::ClusterChange { event });
        let Ok(change) = self.topology.apply_cluster_event(event) else {
            return; // Refused by the topology: nothing moved.
        };
        // A stale event moved nothing and needs no reaction — except that a
        // removed rack whose machines had all died earlier may still host
        // stranded proxies on its dead brokers.
        let stale = change.down.is_empty() && change.up.is_empty();
        if stale && !matches!(event, ClusterEvent::RemoveRack { .. }) {
            return;
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
        MemoryUsage {
            used_slots: self
                .servers
                .iter()
                .filter(|s| self.topology.is_live(s.machine()))
                .map(ServerState::len)
                .sum(),
            capacity_slots: self
                .servers
                .iter()
                .filter(|s| self.topology.is_live(s.machine()))
                .map(ServerState::capacity)
                .sum(),
        }
    }
}

#[cfg(test)]
mod evaluation_tests;
#[cfg(test)]
mod eviction_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_graph::GraphPreset;

    fn small_world() -> (SocialGraph, Topology) {
        let graph = SocialGraph::generate(GraphPreset::FacebookLike, 400, 11).unwrap();
        let topology = Topology::tree(2, 2, 5, 1).unwrap(); // 16 servers, 4 brokers
        (graph, topology)
    }

    fn engine_with_extra(extra: u32) -> (DynaSoReEngine, SocialGraph, Topology) {
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
        // Degenerate tuning parameter.
        assert!(DynaSoReEngine::builder()
            .topology(topology.clone())
            .eviction_threshold(0.0)
            .build(&graph)
            .is_err());
        // Cluster too small to hold one copy of every view.
        let tiny = Topology::tree(1, 1, 2, 1).unwrap(); // a single server
        let big_graph = SocialGraph::generate(GraphPreset::TwitterLike, 400, 1).unwrap();
        let result = DynaSoReEngine::builder()
            .topology(tiny)
            .budget(MemoryBudget::exact(400))
            .build(&big_graph);
        assert!(result.is_ok() || result.is_err());
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

    #[test]
    fn load_cache_matches_exact_scan_after_heavy_churn() {
        // Hammer the engine so replicas are created, migrated and evicted,
        // then check the cached least-loaded answers against the exact scan
        // for every subtree and several realistic exclusion lists.
        let (mut engine, graph, topology) = engine_with_extra(30);
        let mut out = Vec::new();
        for round in 0..10u64 {
            for u in (0..400u32).step_by(5) {
                let user = UserId::new(u);
                let targets: Vec<UserId> = graph.followees(user).to_vec();
                engine.handle_read(user, &targets, SimTime::from_secs(round * 60), &mut out);
            }
            engine.on_tick(SimTime::from_hours(round + 1), &mut out);
            out.clear();
        }
        let mut origins: Vec<SubtreeId> = Vec::new();
        for r in 0..topology.rack_count() as u32 {
            origins.push(SubtreeId::Rack(r));
        }
        for i in 0..topology.intermediate_count() as u32 {
            origins.push(SubtreeId::Intermediate(i));
        }
        origins.push(SubtreeId::Root);
        let exclusions: Vec<Vec<usize>> = (0..40)
            .map(|u| engine.users[u].replicas.clone())
            .chain([vec![], vec![0, 1, 2, 3, 4, 5]])
            .collect();
        for &origin in &origins {
            for exclude in &exclusions {
                assert_eq!(
                    engine.least_loaded_server_in(origin, exclude),
                    engine.least_loaded_scan(origin, exclude),
                    "origin {origin}, exclude {exclude:?}"
                );
            }
        }
    }

    /// The incremental top-K update must leave every candidate set exactly
    /// as an exact rescan would build it.
    fn assert_cache_equals_rescan(engine: &DynaSoReEngine, context: &str) {
        for r in 0..engine.topology.rack_count() {
            assert_eq!(
                engine.loads.rack[r],
                engine.build_candidate_set(SubtreeId::Rack(r as u32)),
                "{context}: rack {r} candidate set diverged from rescan"
            );
        }
        for i in 0..engine.topology.intermediate_count() {
            assert_eq!(
                engine.loads.inter[i],
                engine.build_candidate_set(SubtreeId::Intermediate(i as u32)),
                "{context}: intermediate {i} candidate set diverged from rescan"
            );
        }
        assert_eq!(
            engine.loads.root,
            engine.build_candidate_set(SubtreeId::Root),
            "{context}: root candidate set diverged from rescan"
        );
    }

    #[test]
    fn incremental_load_cache_is_equivalent_to_rescan_under_churn() {
        // Tight memory (10% extra) keeps servers near full so the truncated
        // fallback paths, the free-list transitions (full ↔ has-space) and
        // evictions are all exercised; checking after every single request
        // pins each individual ±1 update, not just the end state.
        let (mut engine, graph, _topology) = engine_with_extra(10);
        let mut out = Vec::new();
        assert_cache_equals_rescan(&engine, "initial");
        for round in 0..6u64 {
            for u in (0..400u32).step_by(11) {
                let user = UserId::new(u);
                let targets: Vec<UserId> = graph.followees(user).to_vec();
                engine.handle_read(user, &targets, SimTime::from_secs(round * 60), &mut out);
                assert_cache_equals_rescan(&engine, "after read");
                engine.handle_write(user, SimTime::from_secs(round * 60), &mut out);
            }
            engine.on_tick(SimTime::from_hours(round + 1), &mut out);
            assert_cache_equals_rescan(&engine, "after tick");
            out.clear();
        }
        // Failures and recoveries interleave bulk rebuilds with incremental
        // recovery placements; the invariant must survive the mix.
        let victim = engine.replica_servers(UserId::new(0))[0];
        engine.on_cluster_change(
            ClusterEvent::MachineDown { machine: victim },
            SimTime::ZERO,
            &mut out,
        );
        assert_cache_equals_rescan(&engine, "after machine-down");
        for u in (0..400u32).step_by(17) {
            let user = UserId::new(u);
            let targets: Vec<UserId> = graph.followees(user).to_vec();
            engine.handle_read(user, &targets, SimTime::from_secs(9_000), &mut out);
            assert_cache_equals_rescan(&engine, "degraded read");
        }
        engine.on_cluster_change(
            ClusterEvent::MachineUp { machine: victim },
            SimTime::ZERO,
            &mut out,
        );
        assert_cache_equals_rescan(&engine, "after machine-up");
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
        engine.on_cluster_change(
            ClusterEvent::MachineDown { machine: victim },
            SimTime::ZERO,
            &mut out,
        );
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
        engine.on_cluster_change(
            ClusterEvent::MachineUp { machine: victim },
            SimTime::ZERO,
            &mut out,
        );
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
        engine.on_cluster_change(
            ClusterEvent::MachineDown { machine: broker },
            SimTime::ZERO,
            &mut out,
        );
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
        engine.on_cluster_change(ClusterEvent::RackDown { rack }, SimTime::ZERO, &mut out);
        for user in graph.users() {
            assert!(engine.replica_count(user) >= 1, "view of {user} lost");
            for machine in engine.replica_servers(user) {
                assert!(engine.topology().is_live(machine));
                assert_ne!(engine.topology().rack_of(machine).unwrap(), rack);
            }
        }
        assert!(out.iter().any(|m| m.involves_persistent()));
        out.clear();
        engine.on_cluster_change(ClusterEvent::RackUp { rack }, SimTime::ZERO, &mut out);
        assert!(engine.topology().is_live(dynasore_types::MachineId::new(0)));
    }

    #[test]
    fn drain_migrates_without_touching_the_persistent_tier() {
        let (mut engine, graph, _topology) = engine_with_extra(50);
        let mut out = Vec::new();
        let victim = engine.replica_servers(UserId::new(0))[0];
        engine.on_cluster_change(
            ClusterEvent::DrainMachine { machine: victim },
            SimTime::ZERO,
            &mut out,
        );
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
        engine.on_cluster_change(
            ClusterEvent::DrainMachine { machine: victim },
            SimTime::ZERO,
            &mut out,
        );
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
        engine.on_cluster_change(ClusterEvent::RemoveRack { rack }, SimTime::ZERO, &mut out);
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
        engine.on_cluster_change(ClusterEvent::RackUp { rack }, SimTime::ZERO, &mut out);
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
        engine.on_cluster_change(ClusterEvent::AddRack, SimTime::ZERO, &mut out);
        assert_eq!(engine.topology().rack_count(), old_rack_count + 1);
        let after = engine.memory_usage();
        assert!(after.capacity_slots > before.capacity_slots);
        assert_eq!(after.used_slots, before.used_slots);
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
}
