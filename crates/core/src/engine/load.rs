//! Per-subtree bookkeeping: the table shape both of the engine's subtree
//! caches share ([`PerSubtree`]: one array over the topology's nodes above
//! the machine level, then the root, so a machine's entries are the nodes
//! on its path) and the least-loaded candidate sets ([`LoadCache`]) that
//! tell Algorithms 2 and 3, recovery and evacuation which server under a
//! rack, an intermediate switch or the root should take a new replica.
//!
//! Every server has the same capacity (§3.2: "a fixed memory capacity,
//! expressed as the number of views"; the builder and `absorb_new_rack`
//! size them alike, and [`DynaSoReEngine::rebuild_load_cache`] asserts it).
//! The least `(len, ordinal)` server of a subtree is therefore also the one
//! to prefer for its free space — if it is full, every other server there
//! holds at least as many views and is full too — so one ascending list per
//! subtree answers "a server with room if there is one, else the
//! least-loaded full one" (`engine/load_tests.rs` keeps that two-list rule
//! as the specification).

use dynasore_topology::Topology;
use dynasore_types::{MachineId, ServerId, SubtreeId};

use super::{DynaSoReEngine, Replica};

/// One `T` per subtree above the machine level: each intermediate switch
/// and rack at its node in the topology's node table (which lists them
/// first), then the whole cluster. A subtree's position in the table is its
/// *slot*.
#[derive(Debug, Clone, Default)]
pub(super) struct PerSubtree<T>(Vec<T>);

/// The root's slot: one past the nodes above the machine level.
fn root_slot(topology: &Topology) -> usize {
    topology.first_machine_node()
}

impl<T: Clone> PerSubtree<T> {
    /// Sets the entry of every subtree of `topology` to `fill`, growing the
    /// table if the tree grew.
    pub(super) fn reset(&mut self, topology: &Topology, fill: T) {
        self.0.clear();
        self.0.resize(root_slot(topology) + 1, fill);
    }

    /// The entry of `subtree`; `None` for a single machine (which has none)
    /// and for an id past the end of the tree.
    pub(super) fn get(&self, topology: &Topology, subtree: SubtreeId) -> Option<&T> {
        let root = self.0.len() - 1;
        match topology.subtree_node(subtree) {
            Some(node) if node < root => self.0.get(node),
            None if subtree == SubtreeId::Root => self.0.get(root),
            _ => None,
        }
    }

    /// Mutable access to the entry at a slot [`subtrees_above`] named.
    pub(super) fn entry(&mut self, slot: usize) -> &mut T {
        &mut self.0[slot]
    }
}

/// The slots whose entry covers `machine`: the nodes above it on its path,
/// then the root.
pub(super) fn subtrees_above(
    topology: &Topology,
    machine: MachineId,
) -> impl Iterator<Item = usize> {
    let root = root_slot(topology);
    let nodes = topology.machine_path(machine).nodes();
    let above = nodes.map(|(_, node)| node).filter(move |&node| node < root);
    above.chain([root])
}

/// The servers under the subtree at `slot`.
fn servers_at(topology: &Topology, slot: usize) -> &[ServerId] {
    if slot == root_slot(topology) {
        topology.servers()
    } else {
        topology.servers_under(slot)
    }
}

/// How many least-loaded servers each subtree candidate set remembers.
/// Views rarely hold more replicas than this inside one subtree, so the
/// exact fallback scan is almost never taken.
const LOAD_TOP_K: usize = 4;

/// The `(len, ordinal)` keys of the up-to-`LOAD_TOP_K` least-loaded live
/// servers of one subtree, ascending.
///
/// Server loads only change when a replica is created or evicted, so the
/// engine patches the affected sets on those (rare) events and the
/// per-read candidate query becomes a couple of comparisons instead of a
/// scan over the subtree's servers. `seen` counts the subtree's live
/// servers; when it exceeds `LOAD_TOP_K` the list is a truncation, and a
/// query whose exclusions swallow the whole list falls back to the exact
/// scan. Membership only changes in bulk
/// ([`DynaSoReEngine::rebuild_load_cache`]), never through an update.
#[derive(Debug, Clone, Default)]
pub(super) struct CandidateSet {
    list: [(u32, u32); LOAD_TOP_K],
    count: u8,
    seen: u32,
}

/// Equality over the *live* list prefix only: slots beyond `count` are
/// never read, and incremental removals leave stale keys there that a fresh
/// rebuild zero-fills.
impl PartialEq for CandidateSet {
    fn eq(&self, other: &Self) -> bool {
        self.seen == other.seen && self.listed() == other.listed()
    }
}

impl Eq for CandidateSet {}

impl CandidateSet {
    fn listed(&self) -> &[(u32, u32)] {
        &self.list[..self.count as usize]
    }

    /// Inserts `key` into the sorted top-K list, dropping the largest entry
    /// when the list is full and `key` beats it. Does not touch `seen`.
    fn insert(&mut self, key: (u32, u32)) {
        let n = self.count as usize;
        let pos = self.listed().partition_point(|entry| *entry < key);
        if pos == LOAD_TOP_K {
            return; // Behind every entry of a full list.
        }
        let len = (n + 1).min(LOAD_TOP_K);
        self.list.copy_within(pos..len - 1, pos + 1);
        self.list[pos] = key;
        self.count = len as u8;
    }

    /// Incrementally applies a load change of one of the subtree's servers,
    /// whose key moved from `old` to `new`.
    ///
    /// Returns `false` when the list can no longer prove it holds the K
    /// smallest keys — a listed server whose key grew past the retained
    /// tail of a truncated list — and the caller must rebuild the set from
    /// an exact scan. Every other transition is resolved in O(K): the
    /// surviving entries are provably still the smallest, and any unseen
    /// key is no smaller than the old full list's maximum.
    fn update(&mut self, old: (u32, u32), new: (u32, u32)) -> bool {
        let n = self.count as usize;
        let Some(pos) = self.listed().iter().position(|entry| *entry == old) else {
            if n < LOAD_TOP_K {
                // A complete list contains its whole population; a miss
                // means the caller's bookkeeping drifted.
                debug_assert!(self.seen > n as u32, "complete list missing a member");
                return false;
            }
            // Beyond the truncated tail: pulls into the top-K only by
            // beating the current largest listed key.
            if new < self.list[n - 1] {
                self.insert(new);
            }
            return true;
        };
        // Every unseen key is ≥ the old K-th smallest (the list maximum),
        // so the new key can be re-inserted exactly as long as it does not
        // grow past that bound.
        let old_max = self.list[n - 1];
        self.list.copy_within(pos + 1..n, pos);
        self.count -= 1;
        if self.seen > n as u32 && new > old_max {
            // The key may have fallen behind an unseen one.
            return false;
        }
        self.insert(new);
        true
    }

    /// `Some(answer)` when the cache can answer exactly (`(len, ordinal)`
    /// ascending, never an excluded server); `None` when the exclusions
    /// exhaust a truncated list and the caller must fall back to the exact
    /// scan.
    fn query(&self, exclude: &[Replica]) -> Option<Option<usize>> {
        let mut listed = self.listed().iter().map(|&(_, ord)| ord as usize);
        match listed.find(|&ord| !holds(exclude, ord)) {
            Some(ord) => Some(Some(ord)),
            None if self.seen > LOAD_TOP_K as u32 => None,
            None => Some(None),
        }
    }
}

/// Whether one of `replicas` is on server `sidx`.
fn holds(replicas: &[Replica], sidx: usize) -> bool {
    replicas.iter().any(|r| r.server() == sidx)
}

/// Per-subtree [`CandidateSet`]s: one per intermediate switch and rack
/// node, one for the whole cluster.
pub(super) type LoadCache = PerSubtree<CandidateSet>;

impl DynaSoReEngine {
    /// The least-loaded live server under `origin` that does not already
    /// hold one of the view's replicas (`exclude`). A full server is returned
    /// only when no eligible server has room (the caller then evicts).
    pub(super) fn least_loaded_server_in(
        &self,
        origin: SubtreeId,
        exclude: &[Replica],
    ) -> Option<usize> {
        // A single machine keeps no set: it is its own exact scan.
        let set = self.loads.get(&self.topology, origin);
        match set.and_then(|set| set.query(exclude)) {
            Some(answer) => answer,
            None => self.least_loaded_scan(origin, exclude),
        }
    }

    /// The `(len, ordinal)` keys of the live ones among `servers`, in
    /// ordinal order. Dead servers never receive replicas: filtering them
    /// here keeps the per-request query path mask-free.
    fn live_loads<'a>(&'a self, servers: &'a [ServerId]) -> impl Iterator<Item = (u32, u32)> + 'a {
        servers.iter().filter_map(|server| {
            let machine = server.machine();
            let i = self.topology.server_ordinal(machine)?;
            let live = self.topology.is_live(machine);
            live.then(|| (self.servers[i].len() as u32, i as u32))
        })
    }

    /// The exact form of [`DynaSoReEngine::least_loaded_server_in`]: a scan
    /// over the origin's servers. Used as the fallback when the view's
    /// exclusions swallow a whole (truncated) candidate set.
    pub(super) fn least_loaded_scan(
        &self,
        origin: SubtreeId,
        exclude: &[Replica],
    ) -> Option<usize> {
        self.live_loads(self.topology.servers_in_subtree_slice(origin))
            .filter(|&(_, i)| !holds(exclude, i as usize))
            .min()
            .map(|(_, i)| i as usize)
    }

    /// Builds the candidate set of the subtree holding `servers` from the
    /// current server loads.
    pub(super) fn build_candidate_set(&self, servers: &[ServerId]) -> CandidateSet {
        let mut set = CandidateSet::default();
        for key in self.live_loads(servers) {
            set.seen += 1;
            set.insert(key);
        }
        set
    }

    /// Rebuilds every candidate set, sized for the current tree: after
    /// construction and whenever the set of live servers changes.
    pub(super) fn rebuild_load_cache(&mut self) {
        let capacity = self.capacity_per_server();
        assert!(
            self.servers.iter().all(|s| s.capacity() == capacity),
            "candidate sets keep one list per subtree because every server has the same capacity"
        );
        let slots = 0..=root_slot(&self.topology);
        let sets = slots.map(|slot| self.build_candidate_set(servers_at(&self.topology, slot)));
        self.loads = PerSubtree(sets.collect());
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
    pub(super) fn update_load_cache(&mut self, sidx: usize, old_len: usize) {
        let machine = self.servers[sidx].machine();
        let new_len = self.servers[sidx].len();
        // Dead machines are filtered out of every candidate set when the
        // liveness mask changes (bulk rebuild), so their load changes cannot
        // move a top-K list.
        if new_len == old_len || !self.topology.is_live(machine) {
            return;
        }
        let (old, new) = ((old_len as u32, sidx as u32), (new_len as u32, sidx as u32));
        for slot in subtrees_above(&self.topology, machine) {
            if !self.loads.entry(slot).update(old, new) {
                let servers = servers_at(&self.topology, slot);
                *self.loads.entry(slot) = self.build_candidate_set(servers);
            }
        }
    }
}
