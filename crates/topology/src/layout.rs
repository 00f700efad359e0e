//! Cluster layout: machines, racks, switches, distances and sub-trees.
//!
//! The tree is one table of nodes — every intermediate switch, rack and
//! machine — built at construction and when a rack is added. Each node has
//! its [`Path`] from the root and the ranges of the servers and brokers
//! under it, and every sub-tree but the root is one node
//! ([`Topology::subtree_node`]). Every distance (`distance`,
//! `origin_distance`, `path_distance`), every switch walk
//! ([`Topology::record_path_timed`]) and every access origin is derived from
//! the paths and the one [`Topology::metric`]; every membership
//! (`subtree_contains`, the `*_in_subtree_slice` families, the server and
//! broker ordinals, `local_broker`) from the ranges. The request hot path
//! performs only table lookups — no tree walks and no heap allocation.

use std::ops::Range;

use dynasore_types::{
    BrokerId, ClusterEvent, Error, MachineId, MessageClass, RackId, Result, ServerId, SimTime,
    SubtreeId, Tier,
};

use crate::traffic::TrafficAccount;

/// A network switch, identified by its tier and index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Switch {
    /// The core (top-level) switch. A tree has exactly one; a flat topology
    /// uses it as its single switch.
    Top,
    /// An intermediate switch, connecting a group of racks.
    Intermediate(u32),
    /// A rack (edge) switch, connecting the machines of one rack.
    Rack(u32),
}

impl Switch {
    /// The tier this switch belongs to.
    pub fn tier(self) -> Tier {
        match self {
            Switch::Top => Tier::Top,
            Switch::Intermediate(_) => Tier::Intermediate,
            Switch::Rack(_) => Tier::Rack,
        }
    }
}

impl std::fmt::Display for Switch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Switch::Top => write!(f, "ST"),
            Switch::Intermediate(i) => write!(f, "SI{i}"),
            Switch::Rack(r) => write!(f, "SR{r}"),
        }
    }
}

/// Whether the cluster is the paper's three-level tree or the flat
/// single-switch layout of §4.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Three-level tree: top switch → intermediate switches → rack switches.
    Tree,
    /// All machines behind a single switch; every machine is both a server
    /// and a broker.
    Flat,
}

/// "This path has no node at this level."
const NO_NODE: u32 = u32::MAX;

/// A position in the tree: the nodes on the way down from the root to it —
/// intermediate switch, rack, machine — as indices into the topology's node
/// table, which lists the intermediate switches, then the racks, then the
/// machines. A position above a level (an origin wider than a machine, the
/// root, the persistent tier) has no node there.
///
/// Every [`ClusterEvent::AddRack`] renumbers nodes: it shifts every
/// machine's node, because the table lists the machines after all racks,
/// and one that opens an intermediate switch shifts every rack's node too.
/// So a path is only good until the next `AddRack`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Path([u32; 3]);

impl Path {
    /// The root's path, which shares no node with any other.
    const ROOT: Path = Path([NO_NODE; 3]);

    /// The path's nodes, top first, each with its level (0 intermediate,
    /// 1 rack, 2 machine) and its index in the node table.
    #[inline]
    pub fn nodes(self) -> impl Iterator<Item = (usize, usize)> {
        (0..3).filter_map(move |level| Some((level, self.node(level)?)))
    }

    /// The path's node at `level` (0 intermediate, 1 rack, 2 machine), if
    /// it has one there.
    ///
    /// # Panics
    ///
    /// Panics if `level` is past the machine level.
    #[inline]
    pub fn node(self, level: usize) -> Option<usize> {
        let node = self.0[level];
        (node != NO_NODE).then_some(node as usize)
    }
}

impl Default for Path {
    fn default() -> Self {
        Path::ROOT
    }
}

/// Dense routing tables, rebuilt whenever a rack is added, so every
/// hot-path query is an array lookup.
///
/// Every sub-tree but the root is a node of the path table. Machines are
/// numbered rack by rack, so the servers under any node are contiguous in
/// the machine-ordered `Topology::servers`, and its brokers in
/// `Topology::brokers`: the `*_under` tables store those ranges and turn
/// every membership query — a machine's server or broker ordinal included —
/// into a range lookup or a slice borrow.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct RoutingTables {
    /// node → the path from the root to it, itself included: every
    /// distance, origin, switch walk and membership is read from here.
    paths: Vec<Path>,
    /// node → `(start, end)` range in `Topology::servers` of the servers
    /// under it.
    servers_under: Vec<(u32, u32)>,
    /// node → `(start, end)` range in `Topology::brokers` of the brokers
    /// under it.
    brokers_under: Vec<(u32, u32)>,
}

impl RoutingTables {
    fn build(topology: &Topology) -> Self {
        let (inters, racks) = (
            topology.intermediate_count as u32,
            topology.rack_count as u32,
        );
        let rack_of = |m: u32| m / topology.machines_per_rack as u32;
        let inter_of = |rack: u32| rack / topology.racks_per_intermediate as u32;
        let machines = topology.machine_count() as u32;
        let mut paths = Vec::with_capacity((inters + racks + machines) as usize);
        paths.extend((0..inters).map(|i| Path([i, NO_NODE, NO_NODE])));
        paths.extend((0..racks).map(|r| Path([inter_of(r), inters + r, NO_NODE])));
        paths.extend((0..machines).map(|m| {
            let rack = rack_of(m);
            Path([inter_of(rack), inters + rack, inters + racks + m])
        }));
        let first_machine = topology.first_machine_node();
        let servers = topology.servers.iter().map(|s| s.machine());
        let brokers = topology.brokers.iter().map(|b| b.machine());
        RoutingTables {
            servers_under: members_under(&paths, first_machine, servers),
            brokers_under: members_under(&paths, first_machine, brokers),
            paths,
        }
    }
}

/// node → the `(start, end)` range, in the machine-ordered `members`, of
/// the members under it: each member extends the range of every node on
/// its path, and numbering machines rack by rack keeps every range
/// contiguous.
fn members_under(
    paths: &[Path],
    first_machine: usize,
    members: impl Iterator<Item = MachineId>,
) -> Vec<(u32, u32)> {
    let mut ranges = vec![(0, 0); paths.len()];
    for (i, member) in (0u32..).zip(members) {
        for (_, node) in paths[first_machine + member.as_usize()].nodes() {
            let range: &mut (u32, u32) = &mut ranges[node];
            if range.0 == range.1 {
                range.0 = i;
            }
            range.1 = i + 1;
        }
    }
    ranges
}

/// The cluster layout.
///
/// Machines are numbered densely, rack by rack; within a rack the brokers
/// come first. Racks are numbered densely, intermediate switch by
/// intermediate switch, so `intermediate = rack / racks_per_intermediate`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    kind: TopologyKind,
    intermediate_count: usize,
    racks_per_intermediate: usize,
    machines_per_rack: usize,
    brokers_per_rack: usize,
    rack_count: usize,
    servers: Vec<ServerId>,
    brokers: Vec<BrokerId>,
    tables: RoutingTables,
    /// Liveness mask, one entry per machine. All machines start live;
    /// [`Topology::apply_cluster_event`] flips entries when the
    /// cluster-dynamics layer kills or revives machines. Hot-path queries
    /// stay mask-free (engines maintain the invariant that replica lists
    /// only reference live machines); placement-decision paths consult
    /// [`Topology::is_live`] in O(1).
    live: Vec<bool>,
    /// rack → its first *live* broker, kept in sync by `set_live` so the
    /// per-request proxy-placement walk stays an O(1) table lookup
    /// even while machines are down. `None` when every broker of the rack is
    /// dead.
    rack_first_live_broker: Vec<Option<BrokerId>>,
    /// rack → permanently decommissioned ([`ClusterEvent::RemoveRack`]).
    /// Retired racks keep their dense indices — machine ids, server
    /// ordinals and table shapes never shift — but their machines are dead
    /// forever: `RackUp`/`MachineUp` events targeting them are ignored.
    retired_racks: Vec<bool>,
}

impl Topology {
    /// Builds the paper's evaluation tree (§4.3): 5 intermediate switches,
    /// 5 racks each, 10 machines per rack of which 1 is a broker and 9 are
    /// servers — 225 servers and 25 brokers in total.
    pub fn paper_tree() -> Result<Self> {
        Topology::tree(5, 5, 10, 1)
    }

    /// Builds the paper's flat evaluation cluster (§4.5): 250 machines
    /// behind a single switch, each acting as both cache and broker.
    pub fn paper_flat() -> Result<Self> {
        Topology::flat(250)
    }

    /// Builds a three-level tree.
    ///
    /// * `intermediate_count` — number of intermediate switches;
    /// * `racks_per_intermediate` — racks under each intermediate switch;
    /// * `machines_per_rack` — machines in each rack;
    /// * `brokers_per_rack` — how many of those machines are brokers (the
    ///   rest are view servers).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any count is zero or a rack would
    /// contain no servers.
    pub fn tree(
        intermediate_count: usize,
        racks_per_intermediate: usize,
        machines_per_rack: usize,
        brokers_per_rack: usize,
    ) -> Result<Self> {
        if intermediate_count == 0 || racks_per_intermediate == 0 || machines_per_rack == 0 {
            return Err(Error::invalid_config(
                "tree topology dimensions must be positive",
            ));
        }
        if brokers_per_rack == 0 {
            return Err(Error::invalid_config("each rack needs at least one broker"));
        }
        if brokers_per_rack >= machines_per_rack {
            return Err(Error::invalid_config(
                "each rack needs at least one server (brokers_per_rack < machines_per_rack)",
            ));
        }
        let mut topology = Topology::empty(
            TopologyKind::Tree,
            racks_per_intermediate,
            machines_per_rack,
            brokers_per_rack,
        );
        topology.push_racks(intermediate_count * racks_per_intermediate);
        Ok(topology)
    }

    /// Builds a flat topology: `machine_count` machines behind one switch,
    /// each machine acting as both a server and a broker (§4.5).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `machine_count` is zero.
    pub fn flat(machine_count: usize) -> Result<Self> {
        if machine_count == 0 {
            return Err(Error::invalid_config("flat topology needs machines"));
        }
        // One rack of brokers under one intermediate node.
        let mut topology = Topology::empty(TopologyKind::Flat, 1, machine_count, machine_count);
        topology.push_racks(1);
        Ok(topology)
    }

    /// A layout of `kind` with racks of the given shape, but no racks yet.
    fn empty(
        kind: TopologyKind,
        racks_per_intermediate: usize,
        machines_per_rack: usize,
        brokers_per_rack: usize,
    ) -> Self {
        Topology {
            kind,
            intermediate_count: 0,
            racks_per_intermediate,
            machines_per_rack,
            brokers_per_rack,
            rack_count: 0,
            servers: Vec::new(),
            brokers: Vec::new(),
            tables: RoutingTables::default(),
            live: Vec::new(),
            rack_first_live_broker: Vec::new(),
            retired_racks: Vec::new(),
        }
    }

    /// Appends `count` live racks — each of `machines_per_rack` machines,
    /// the first `brokers_per_rack` of them brokers and the rest servers (on
    /// a flat layout every machine is both) — filling the last intermediate
    /// switch before opening a new one, rebuilds the routing tables and
    /// returns the new machines. They get the highest machine ids, so
    /// existing ids, server ordinals and rack indices are unchanged. Their
    /// nodes in the path table are not: every new rack shifts every
    /// machine's node (the table lists the machines after all racks), and a
    /// new intermediate switch shifts every rack's node too.
    fn push_racks(&mut self, count: usize) -> Vec<MachineId> {
        let (first_machine, first_rack) = (self.machine_count() as u32, self.rack_count as u32);
        for slot in (0..count).flat_map(|_| 0..self.machines_per_rack) {
            let id = MachineId::new(self.machine_count() as u32);
            let is_broker = slot < self.brokers_per_rack;
            if is_broker {
                self.brokers.push(BrokerId::new(id));
            }
            if !is_broker || self.kind == TopologyKind::Flat {
                self.servers.push(ServerId::new(id));
            }
            self.live.push(true);
        }
        self.retired_racks.resize(self.rack_count + count, false);
        self.rack_count += count;
        self.intermediate_count = self.rack_count.div_ceil(self.racks_per_intermediate);
        self.tables = RoutingTables::build(self);
        // The new racks' brokers are all live; no other rack's changed.
        for rack in first_rack..self.rack_count as u32 {
            let broker = self.first_live_broker_under(rack);
            self.rack_first_live_broker.push(broker);
        }
        (first_machine..self.machine_count() as u32)
            .map(MachineId::new)
            .collect()
    }

    /// Whether this is a tree or flat layout.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Total number of machines (servers + brokers).
    #[inline]
    pub fn machine_count(&self) -> usize {
        self.live.len()
    }

    /// Number of view servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Number of racks.
    pub fn rack_count(&self) -> usize {
        self.rack_count
    }

    /// Number of intermediate switches.
    pub fn intermediate_count(&self) -> usize {
        self.intermediate_count
    }

    /// Number of racks under each intermediate switch.
    pub fn racks_per_intermediate(&self) -> usize {
        self.racks_per_intermediate
    }

    /// All view servers, in machine order.
    pub fn servers(&self) -> &[ServerId] {
        &self.servers
    }

    /// All brokers, in machine order.
    pub fn brokers(&self) -> &[BrokerId] {
        &self.brokers
    }

    /// Whether `machine` exists in this topology.
    #[inline]
    pub fn contains(&self, machine: MachineId) -> bool {
        machine.as_usize() < self.machine_count()
    }

    #[inline]
    fn check_machine(&self, machine: MachineId) -> Result<()> {
        if self.contains(machine) {
            Ok(())
        } else {
            Err(Error::UnknownMachine(machine))
        }
    }

    /// Whether `machine` stores views.
    pub fn is_server(&self, machine: MachineId) -> bool {
        self.server_ordinal(machine).is_some()
    }

    /// Whether `machine` executes requests.
    #[inline]
    pub fn is_broker(&self, machine: MachineId) -> bool {
        self.broker_ordinal(machine).is_some()
    }

    /// The rack a machine belongs to.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownMachine`] for out-of-range ids.
    #[inline]
    pub fn rack_of(&self, machine: MachineId) -> Result<RackId> {
        self.check_machine(machine)?;
        Ok(RackId::new(self.rack_index(machine)))
    }

    /// The intermediate switch above a machine.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownMachine`] for out-of-range ids.
    #[inline]
    pub fn intermediate_of(&self, machine: MachineId) -> Result<u32> {
        self.check_machine(machine)?;
        Ok(self.machine_path(machine).0[0])
    }

    /// The position of `machine` in [`Topology::servers`], if it is a
    /// server. Engines that mirror the server list (one state entry per
    /// server, in the same order) use this to map machines to their dense
    /// state index without a hash lookup.
    #[inline]
    pub fn server_ordinal(&self, machine: MachineId) -> Option<usize> {
        self.ordinal(machine, &self.tables.servers_under)
    }

    /// The position of `machine` in [`Topology::brokers`], if it is a
    /// broker.
    #[inline]
    pub fn broker_ordinal(&self, machine: MachineId) -> Option<usize> {
        self.ordinal(machine, &self.tables.brokers_under)
    }

    /// The start of `machine`'s own range in a `*_under` table, if the
    /// machine is one of that table's members.
    #[inline]
    fn ordinal(&self, machine: MachineId, under: &[(u32, u32)]) -> Option<usize> {
        match under.get(self.first_machine_node() + machine.as_usize()) {
            Some(&(start, end)) if start < end => Some(start as usize),
            _ => None,
        }
    }

    /// Index of the first rack in the node table.
    #[inline]
    fn first_rack(&self) -> usize {
        self.intermediate_count
    }

    /// Index of machine 0 in the node table, and so the number of nodes
    /// above the machine level, which come first.
    #[inline]
    pub fn first_machine_node(&self) -> usize {
        self.intermediate_count + self.rack_count
    }

    /// The rack of a machine of this topology.
    #[inline]
    fn rack_index(&self, machine: MachineId) -> u32 {
        self.machine_path(machine).0[1] - self.first_rack() as u32
    }

    /// The tree's metric, as `(far, savings)`: two positions are `far`
    /// switches apart, less `savings[level]` for every level at which their
    /// paths share a node (§2.2, *Locality*).
    #[inline]
    pub fn metric(&self) -> (u32, [u32; 3]) {
        match self.kind {
            // Rack, intermediate, top, intermediate, rack. Sharing an
            // intermediate switch or a rack saves the two switches above
            // it; sharing the machine saves the last one.
            TopologyKind::Tree => (5, [2, 2, 1]),
            // The one switch: only the machine tells positions apart.
            TopologyKind::Flat => (1, [0, 0, 1]),
        }
    }

    /// The path of a machine.
    ///
    /// # Panics
    ///
    /// Panics if the machine is out of range.
    #[inline]
    pub fn machine_path(&self, machine: MachineId) -> Path {
        self.tables.paths[self.first_machine_node() + machine.as_usize()]
    }

    /// The node of `subtree` in the node table: `None` for the root, which
    /// has none, and for sub-trees the topology does not have.
    #[inline]
    pub fn subtree_node(&self, subtree: SubtreeId) -> Option<usize> {
        let (nodes, index) = match subtree {
            SubtreeId::Root => return None,
            SubtreeId::Intermediate(i) => (0..self.first_rack(), i),
            SubtreeId::Rack(r) => (self.first_rack()..self.first_machine_node(), r),
            SubtreeId::Machine(m) => (self.first_machine_node()..self.node_count(), m),
        };
        let node = nodes.start + index as usize;
        (node < nodes.end).then_some(node)
    }

    /// The path of a sub-tree, as a read origin. Sub-trees the topology
    /// does not have are far from everything, like the root.
    #[inline]
    pub fn origin_path(&self, origin: SubtreeId) -> Path {
        self.subtree_node(origin)
            .map_or(Path::ROOT, |node| self.tables.paths[node])
    }

    /// Number of switches between the positions at two paths, by
    /// [`Topology::metric`]: every distance the topology answers.
    #[inline]
    pub fn path_distance(&self, a: Path, b: Path) -> u32 {
        let (far, savings) = self.metric();
        let shared = (0..3).filter(|&level| a.0[level] != NO_NODE && a.0[level] == b.0[level]);
        far - shared.map(|level| savings[level]).sum::<u32>()
    }

    /// Number of nodes in the tree below the root — intermediate switches,
    /// racks and machines — and so one past the highest node index a
    /// [`Path`] holds.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.tables.paths.len()
    }

    /// Network distance between two machines: the number of switches on the
    /// path connecting them (§2.2, *Locality*) — 0 (same machine), 1 (same
    /// rack), 3 (same intermediate) or 5 (across the core) on a tree. Zero
    /// when `a == b`.
    ///
    /// # Panics
    ///
    /// Panics if either machine is out of range.
    #[inline]
    pub fn distance(&self, a: MachineId, b: MachineId) -> u32 {
        self.path_distance(self.machine_path(a), self.machine_path(b))
    }

    /// Writes the switches a message from `a` to `b` traverses into `buf`
    /// (path order) and returns how many were written. Zero when `a == b`.
    ///
    /// Either endpoint may be [`MachineId::PERSISTENT`]: the durable store
    /// attaches above the core switch, so its messages cross the top switch
    /// and then descend through the other endpoint's intermediate and rack
    /// switches.
    fn fill_path(&self, a: MachineId, b: MachineId, buf: &mut [Switch; 5]) -> usize {
        if a == b {
            return 0;
        }
        // A flat layout's racks and intermediate switch are not switches.
        if self.kind == TopologyKind::Flat {
            buf[0] = Switch::Top;
            return 1;
        }
        let endpoint = |m: MachineId| {
            if m.is_persistent() {
                Path::ROOT
            } else {
                self.machine_path(m)
            }
        };
        let ([ia, ra, _], [ib, rb, _]) = (endpoint(a).0, endpoint(b).0);
        let rack = |node: u32| Switch::Rack(node - self.first_rack() as u32);
        // The lowest switch both paths hold, else the top switch between
        // the legs of the endpoints that are machines.
        if ra == rb && ra != NO_NODE {
            buf[0] = rack(ra);
            return 1;
        }
        if ia == ib && ia != NO_NODE {
            buf[..3].copy_from_slice(&[rack(ra), Switch::Intermediate(ia), rack(rb)]);
            return 3;
        }
        let mut len = 0;
        if ra != NO_NODE {
            buf[..2].copy_from_slice(&[rack(ra), Switch::Intermediate(ia)]);
            len = 2;
        }
        buf[len] = Switch::Top;
        len += 1;
        if rb != NO_NODE {
            buf[len..len + 2].copy_from_slice(&[Switch::Intermediate(ib), rack(rb)]);
            len += 2;
        }
        len
    }

    /// The switches a message from `a` to `b` traverses, in path order.
    /// Empty when `a == b` (local delivery).
    ///
    /// Hot paths should prefer [`Topology::record_path_timed`], which charges a
    /// [`TrafficAccount`] directly without materializing this vector.
    ///
    /// # Panics
    ///
    /// Panics if either machine is out of range.
    pub fn path_switches(&self, a: MachineId, b: MachineId) -> Vec<Switch> {
        let mut buf = [Switch::Top; 5];
        let len = self.fill_path(a, b, &mut buf);
        buf[..len].to_vec()
    }

    /// Charges one message from `from` to `to` to every switch on its path,
    /// without materializing the path, and returns the message's end-to-end
    /// latency sample under the account's [`dynasore_types::NetworkModel`]:
    /// per hop, the model's forwarding latency plus the wait behind that
    /// switch's queued work plus the transmission time. Local messages
    /// (`from == to`) cost nothing, are not counted and — like every message
    /// under the infinite model — sample zero. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if either machine is out of range.
    pub fn record_path_timed(
        &self,
        from: MachineId,
        to: MachineId,
        class: MessageClass,
        time: SimTime,
        account: &mut TrafficAccount,
    ) -> dynasore_types::Latency {
        let mut buf = [Switch::Top; 5];
        let len = self.fill_path(from, to, &mut buf);
        account.record_timed(&buf[..len], class, time)
    }

    /// Whether `machine` lies under `subtree`: whether the sub-tree is the
    /// root or its node lies on the machine's path.
    pub fn subtree_contains(&self, subtree: SubtreeId, machine: MachineId) -> bool {
        if !self.contains(machine) {
            return false;
        }
        match self.subtree_node(subtree) {
            Some(node) => self.machine_path(machine).0.contains(&(node as u32)),
            None => subtree == SubtreeId::Root,
        }
    }

    /// All machines under a sub-tree.
    pub fn machines_in_subtree(&self, subtree: SubtreeId) -> Vec<MachineId> {
        (0..self.machine_count() as u32)
            .map(MachineId::new)
            .filter(|&m| self.subtree_contains(subtree, m))
            .collect()
    }

    /// The range, in a role list of `len` members, of the members under
    /// `subtree` by its `*_under` table: all of them under the root, none
    /// under a sub-tree the topology does not have.
    #[inline]
    fn members(&self, subtree: SubtreeId, under: &[(u32, u32)], len: usize) -> Range<usize> {
        match self.subtree_node(subtree) {
            Some(node) => under[node].0 as usize..under[node].1 as usize,
            None if subtree == SubtreeId::Root => 0..len,
            None => 0..0,
        }
    }

    /// The view servers under node `node` of the node table, as a borrowed
    /// slice in machine order.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    #[inline]
    pub fn servers_under(&self, node: usize) -> &[ServerId] {
        let (start, end) = self.tables.servers_under[node];
        &self.servers[start as usize..end as usize]
    }

    /// The view servers under a sub-tree, as a borrowed slice in machine
    /// order. Because machines are numbered rack by rack, every sub-tree's
    /// servers are contiguous in [`Topology::servers`], so this is a range
    /// lookup with no allocation — the form the request hot path uses.
    pub fn servers_in_subtree_slice(&self, subtree: SubtreeId) -> &[ServerId] {
        let under = &self.tables.servers_under;
        &self.servers[self.members(subtree, under, self.servers.len())]
    }

    /// The brokers under a sub-tree, as a borrowed slice in machine order.
    pub fn brokers_in_subtree_slice(&self, subtree: SubtreeId) -> &[BrokerId] {
        let under = &self.tables.brokers_under;
        &self.brokers[self.members(subtree, under, self.brokers.len())]
    }

    /// The coarse *origin* a server records for an access coming from
    /// `requester` (§3.2, *Access statistics*).
    ///
    /// A server keeps one counter per rack switch under its own intermediate
    /// switch (including its own rack) and one counter per sibling
    /// intermediate switch — `m − 1 + n` origins instead of `m × n`. In a
    /// flat topology the origin is the requesting machine itself.
    #[inline]
    pub fn access_origin(&self, server: MachineId, requester: MachineId) -> SubtreeId {
        match self.kind {
            TopologyKind::Flat => SubtreeId::Machine(requester.index()),
            TopologyKind::Tree => {
                let [inter, rack, _] = self.machine_path(requester).0;
                if self.machine_path(server).0[0] == inter {
                    SubtreeId::Rack(rack - self.first_rack() as u32)
                } else {
                    SubtreeId::Intermediate(inter)
                }
            }
        }
    }

    /// Number of switches a message crosses between `machine` and a
    /// representative machine of `origin`. Used when estimating the network
    /// cost of serving an origin's reads from a given server (Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics if the machine is out of range.
    pub fn origin_distance(&self, machine: MachineId, origin: SubtreeId) -> u32 {
        self.path_distance(self.machine_path(machine), self.origin_path(origin))
    }

    /// The first broker in the same rack as `machine` — the default place to
    /// deploy a user's proxies when her view lives on `machine`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownMachine`] if the machine is out of range.
    pub fn local_broker(&self, machine: MachineId) -> Result<BrokerId> {
        let rack = self.rack_of(machine)?;
        if self.kind == TopologyKind::Flat {
            // In a flat topology every machine is its own broker.
            return Ok(BrokerId::new(machine));
        }
        let brokers = self.brokers_in_subtree_slice(SubtreeId::Rack(rack.index()));
        Ok(brokers[0])
    }

    // --- Liveness and elasticity -------------------------------------------
    //
    // The queries below power the cluster-dynamics subsystem. The mask
    // itself is a dense per-machine bit vector; the derived per-rack
    // first-live-broker table is maintained eagerly by `set_live` so the
    // per-request proxy-placement walk stays an O(1) lookup while machines
    // are down.

    /// Whether `machine` is currently live. Unknown machines (including
    /// [`MachineId::PERSISTENT`]) report `false`.
    #[inline]
    pub fn is_live(&self, machine: MachineId) -> bool {
        self.live.get(machine.as_usize()).copied().unwrap_or(false)
    }

    /// Flips `machine` (which must exist) to `live`, keeping the rack's
    /// first-live-broker entry in step. Returns whether the
    /// state changed; callers refuse revivals of retired racks beforehand.
    fn set_live(&mut self, machine: MachineId, live: bool) -> bool {
        let idx = machine.as_usize();
        if self.live[idx] == live {
            return false;
        }
        self.live[idx] = live;
        if self.is_broker(machine) {
            let rack = self.rack_index(machine);
            self.rack_first_live_broker[rack as usize] = self.first_live_broker_under(rack);
        }
        true
    }

    /// The first live broker of `rack`, by a scan of its brokers.
    fn first_live_broker_under(&self, rack: u32) -> Option<BrokerId> {
        let brokers = self.brokers_in_subtree_slice(SubtreeId::Rack(rack));
        brokers.iter().copied().find(|b| self.is_live(b.machine()))
    }

    /// Flips every machine of `rack` to `live` and returns, in machine
    /// order, the ones whose state changed.
    fn set_rack_live(&mut self, rack: RackId, live: bool) -> Vec<MachineId> {
        let mut machines = self.machines_in_subtree(SubtreeId::Rack(rack.index()));
        machines.retain(|&m| self.set_live(m, live));
        machines
    }

    /// Whether `rack` has been permanently decommissioned by
    /// [`ClusterEvent::RemoveRack`]. Unknown racks report `false`.
    #[inline]
    pub fn is_rack_retired(&self, rack: RackId) -> bool {
        self.retired_racks
            .get(rack.as_usize())
            .copied()
            .unwrap_or(false)
    }

    /// Whether `machine` belongs to a retired rack (and therefore can never
    /// come back). Unknown machines report `false`.
    #[inline]
    pub fn is_retired(&self, machine: MachineId) -> bool {
        self.contains(machine) && self.retired_racks[self.rack_index(machine) as usize]
    }

    /// Number of racks still in service (total minus retired).
    pub fn active_rack_count(&self) -> usize {
        self.rack_count - self.retired_racks.iter().filter(|&&r| r).count()
    }

    /// The first *live* broker of `rack`, an O(1) lookup in the liveness
    /// table. `None` when the rack does not exist or all its brokers are
    /// dead.
    #[inline]
    pub fn first_live_broker_in_rack(&self, rack: RackId) -> Option<BrokerId> {
        self.rack_first_live_broker
            .get(rack.as_usize())
            .copied()
            .flatten()
    }

    /// The live broker closest to `machine`: the first live broker of its
    /// own rack, then of the sibling racks under its intermediate switch
    /// (index order), then of any rack. Used to re-home proxies after a
    /// broker failure. `None` only when every broker in the cluster is dead
    /// or `machine` is unknown.
    pub fn closest_live_broker(&self, machine: MachineId) -> Option<BrokerId> {
        if !self.contains(machine) {
            return None;
        }
        if self.kind == TopologyKind::Flat {
            if self.is_live(machine) {
                return Some(BrokerId::new(machine));
            }
            return self
                .brokers
                .iter()
                .copied()
                .find(|b| self.is_live(b.machine()));
        }
        if let Some(broker) = self.first_live_broker_in_rack(RackId::new(self.rack_index(machine)))
        {
            return Some(broker);
        }
        let inter = self.machine_path(machine).0[0] as usize;
        let first = inter * self.racks_per_intermediate;
        let last = (first + self.racks_per_intermediate).min(self.rack_count);
        for r in first..last {
            if let Some(broker) = self.first_live_broker_in_rack(RackId::new(r as u32)) {
                return Some(broker);
            }
        }
        (0..self.rack_count).find_map(|r| self.first_live_broker_in_rack(RackId::new(r as u32)))
    }

    /// Appends one rack of machines of the same shape as the existing
    /// ones (`push_racks`); flat layouts cannot grow.
    fn add_rack(&mut self) -> Result<Vec<MachineId>> {
        if self.kind != TopologyKind::Tree {
            return Err(Error::invalid_config(
                "only tree topologies can grow by racks",
            ));
        }
        Ok(self.push_racks(1))
    }

    /// Permanently decommissions `rack` — the reverse of `add_rack` — and
    /// returns the machines that were still live. The rack keeps its dense
    /// index (machine ids, server ordinals and routing-table shapes never
    /// shift); its machines are marked dead and the rack is flagged retired
    /// so nothing can revive them.
    fn remove_rack(&mut self, rack: RackId) -> Result<Vec<MachineId>> {
        if self.kind != TopologyKind::Tree {
            return Err(Error::invalid_config(
                "only tree topologies can shrink by racks",
            ));
        }
        self.check_rack(rack)?;
        if self.retired_racks[rack.as_usize()] {
            return Err(Error::invalid_config(format!("{rack} is already retired")));
        }
        if self.active_rack_count() <= 1 {
            return Err(Error::invalid_config(
                "cannot remove the last rack in service",
            ));
        }
        self.retired_racks[rack.as_usize()] = true;
        Ok(self.set_rack_live(rack, false))
    }

    fn check_rack(&self, rack: RackId) -> Result<()> {
        if rack.as_usize() < self.rack_count {
            Ok(())
        } else {
            Err(Error::invalid_config(format!(
                "{rack} does not exist in this topology"
            )))
        }
    }

    /// Applies a [`ClusterEvent`] to the liveness mask, the retired flags
    /// and (for [`ClusterEvent::AddRack`]) the shape and its path table,
    /// and reports what it moved. This is the only code that flips liveness, retires or grows:
    /// a dead machine does not die twice, retired capacity never returns
    /// (repairs scheduled before a decommission are stale, not errors) and
    /// the last rack in service stays. Engines and drivers each own a
    /// topology clone and apply the same event stream, so the clones stay
    /// equal. Draining marks the machine dead here — the graceful part
    /// (migrating its state away) is the engine's reaction to the change.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownMachine`] or [`Error::InvalidConfig`] — with
    /// the topology untouched — for events naming machines or racks outside
    /// the topology, growth or shrink of a flat layout, and removal of a
    /// retired rack or of the last rack in service.
    pub fn apply_cluster_event(&mut self, event: ClusterEvent) -> Result<MembershipChange> {
        let mut change = MembershipChange::default();
        match event {
            ClusterEvent::MachineDown { machine } | ClusterEvent::DrainMachine { machine } => {
                self.check_machine(machine)?;
                if self.set_live(machine, false) {
                    change.down.push(machine);
                }
            }
            ClusterEvent::MachineUp { machine } => {
                self.check_machine(machine)?;
                if !self.is_retired(machine) && self.set_live(machine, true) {
                    change.up.push(machine);
                }
            }
            ClusterEvent::RackDown { rack } => {
                self.check_rack(rack)?;
                change.down = self.set_rack_live(rack, false);
            }
            ClusterEvent::RackUp { rack } => {
                self.check_rack(rack)?;
                if !self.retired_racks[rack.as_usize()] {
                    change.up = self.set_rack_live(rack, true);
                }
            }
            ClusterEvent::AddRack => change.up = self.add_rack()?,
            ClusterEvent::RemoveRack { rack } => change.down = self.remove_rack(rack)?,
        }
        Ok(change)
    }
}

/// What one [`ClusterEvent`] actually moved, as reported by
/// [`Topology::apply_cluster_event`]. Both lists are in machine order and
/// both are empty for a stale event (a crash of a dead machine, a repair of
/// a live or retired one), which leaves the topology as it was — except
/// that removing a rack whose machines had all died earlier still retires
/// it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MembershipChange {
    /// Machines that were live and are now dead: crashed, drained or
    /// retired.
    pub down: Vec<MachineId>,
    /// Machines that are now live and were dead (revived) or did not exist
    /// (added).
    pub up: Vec<MachineId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(i: u32) -> MachineId {
        MachineId::new(i)
    }

    /// Number of machines currently live.
    fn live_count(t: &Topology) -> usize {
        t.live.iter().filter(|&&live| live).count()
    }

    #[test]
    fn paper_tree_dimensions() {
        let t = Topology::paper_tree().unwrap();
        assert_eq!(t.kind(), TopologyKind::Tree);
        assert_eq!(t.machine_count(), 250);
        assert_eq!(t.server_count(), 225);
        assert_eq!(t.brokers().len(), 25);
        assert_eq!(t.rack_count(), 25);
        assert_eq!(t.intermediate_count(), 5);
        assert_eq!(t.racks_per_intermediate(), 5);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(Topology::tree(0, 5, 10, 1).is_err());
        assert!(Topology::tree(5, 0, 10, 1).is_err());
        assert!(Topology::tree(5, 5, 0, 1).is_err());
        assert!(Topology::tree(5, 5, 10, 0).is_err());
        assert!(Topology::tree(5, 5, 2, 2).is_err());
        assert!(Topology::flat(0).is_err());
    }

    #[test]
    fn machine_roles_follow_rack_layout() {
        let t = Topology::tree(2, 2, 3, 1).unwrap();
        // Machines 0..3 are rack 0: machine 0 is the broker.
        assert!(t.is_broker(m(0)));
        assert!(!t.is_server(m(0)));
        assert!(t.is_server(m(1)));
        assert!(t.is_server(m(2)));
        assert_eq!(t.rack_of(m(4)).unwrap(), RackId::new(1));
        assert_eq!(
            t.brokers_in_subtree_slice(SubtreeId::Rack(1)),
            [BrokerId::new(m(3))]
        );
        assert_eq!(t.servers_in_subtree_slice(SubtreeId::Rack(0)).len(), 2);
        assert!(t.rack_of(m(99)).is_err());
    }

    #[test]
    fn tree_distances_follow_the_paper() {
        let t = Topology::paper_tree().unwrap();
        // Same machine.
        assert_eq!(t.distance(m(1), m(1)), 0);
        // Same rack (machines 1 and 2 are servers of rack 0): 1 rack switch.
        assert_eq!(t.distance(m(1), m(2)), 1);
        // Same intermediate, different rack (rack 0 and rack 1): 3 switches.
        assert_eq!(t.distance(m(1), m(11)), 3);
        // Different intermediates (rack 0 and rack 5): 5 switches.
        assert_eq!(t.distance(m(1), m(51)), 5);
        // Distance is symmetric.
        assert_eq!(t.distance(m(51), m(1)), 5);
    }

    #[test]
    fn path_switches_match_distance() {
        let t = Topology::paper_tree().unwrap();
        for (a, b) in [(1u32, 1u32), (1, 2), (1, 11), (1, 51), (240, 3)] {
            let path = t.path_switches(m(a), m(b));
            assert_eq!(path.len() as u32, t.distance(m(a), m(b)), "{a}->{b}");
        }
        let cross = t.path_switches(m(1), m(51));
        assert_eq!(
            cross,
            vec![
                Switch::Rack(0),
                Switch::Intermediate(0),
                Switch::Top,
                Switch::Intermediate(1),
                Switch::Rack(5)
            ]
        );
    }

    #[test]
    fn flat_topology_is_one_hop() {
        let t = Topology::paper_flat().unwrap();
        assert_eq!(t.kind(), TopologyKind::Flat);
        assert_eq!(t.machine_count(), 250);
        // Everyone is both server and broker.
        assert_eq!(t.server_count(), 250);
        assert_eq!(t.brokers().len(), 250);
        assert_eq!(t.distance(m(0), m(249)), 1);
        assert_eq!(t.distance(m(3), m(3)), 0);
        assert_eq!(t.path_switches(m(0), m(1)), vec![Switch::Top]);
        assert_eq!(t.local_broker(m(7)).unwrap(), BrokerId::new(m(7)));
    }

    #[test]
    fn subtree_containment() {
        let t = Topology::tree(2, 2, 3, 1).unwrap();
        assert!(t.subtree_contains(SubtreeId::Root, m(0)));
        assert!(t.subtree_contains(SubtreeId::Intermediate(0), m(5)));
        assert!(!t.subtree_contains(SubtreeId::Intermediate(0), m(6)));
        assert!(t.subtree_contains(SubtreeId::Rack(1), m(4)));
        assert!(!t.subtree_contains(SubtreeId::Rack(1), m(7)));
        assert!(t.subtree_contains(SubtreeId::Machine(3), m(3)));
        assert!(!t.subtree_contains(SubtreeId::Machine(3), m(4)));

        assert_eq!(t.machines_in_subtree(SubtreeId::Intermediate(0)).len(), 6);
        assert_eq!(t.servers_in_subtree_slice(SubtreeId::Rack(0)).len(), 2);
        assert_eq!(t.brokers_in_subtree_slice(SubtreeId::Root).len(), 4);
    }

    #[test]
    fn coarse_origins_match_the_paper() {
        // Figure 1 example: server S111 records accesses from SR11..SR1n and
        // from SI2..SIm — its sibling racks individually, remote
        // intermediates in aggregate.
        let t = Topology::paper_tree().unwrap();
        let server = m(1); // rack 0, intermediate 0
        let local_broker = m(0); // same rack
        let nearby_broker = m(10); // rack 1, same intermediate
        let far_broker = m(60); // rack 6, intermediate 1
        assert_eq!(t.access_origin(server, local_broker), SubtreeId::Rack(0));
        assert_eq!(t.access_origin(server, nearby_broker), SubtreeId::Rack(1));
        assert_eq!(
            t.access_origin(server, far_broker),
            SubtreeId::Intermediate(1)
        );
    }

    #[test]
    fn origin_distance_reflects_switch_hops() {
        let t = Topology::paper_tree().unwrap();
        let server = m(1); // rack 0, intermediate 0
        assert_eq!(t.origin_distance(server, SubtreeId::Rack(0)), 1);
        assert_eq!(t.origin_distance(server, SubtreeId::Rack(1)), 3);
        assert_eq!(t.origin_distance(server, SubtreeId::Rack(6)), 5);
        assert_eq!(t.origin_distance(server, SubtreeId::Intermediate(0)), 3);
        assert_eq!(t.origin_distance(server, SubtreeId::Intermediate(3)), 5);
        assert_eq!(t.origin_distance(server, SubtreeId::Root), 5);
        assert_eq!(t.origin_distance(server, SubtreeId::Machine(1)), 0);
        assert_eq!(t.origin_distance(server, SubtreeId::Machine(2)), 1);
    }

    #[test]
    fn local_broker_is_in_the_same_rack() {
        let t = Topology::paper_tree().unwrap();
        let server = m(13); // rack 1
        let broker = t.local_broker(server).unwrap();
        assert_eq!(
            t.rack_of(broker.machine()).unwrap(),
            t.rack_of(server).unwrap()
        );
        assert!(t.is_broker(broker.machine()));
        assert!(t.local_broker(m(9_999)).is_err());
    }

    fn machine_down(i: u32) -> ClusterEvent {
        ClusterEvent::MachineDown { machine: m(i) }
    }

    fn machine_up(i: u32) -> ClusterEvent {
        ClusterEvent::MachineUp { machine: m(i) }
    }

    fn rack_down(r: u32) -> ClusterEvent {
        let rack = RackId::new(r);
        ClusterEvent::RackDown { rack }
    }

    fn rack_up(r: u32) -> ClusterEvent {
        let rack = RackId::new(r);
        ClusterEvent::RackUp { rack }
    }

    fn remove_rack(r: u32) -> ClusterEvent {
        let rack = RackId::new(r);
        ClusterEvent::RemoveRack { rack }
    }

    #[test]
    fn liveness_mask_tracks_machines_and_brokers() {
        let mut t = Topology::tree(2, 2, 3, 1).unwrap();
        assert_eq!(live_count(&t), 12);
        assert!(t.is_live(m(0)));
        assert!(!t.is_live(MachineId::PERSISTENT));
        // Killing a server changes nothing broker-wise.
        t.apply_cluster_event(machine_down(1)).unwrap();
        assert!(!t.is_live(m(1)));
        assert_eq!(live_count(&t), 11);
        assert_eq!(
            t.first_live_broker_in_rack(RackId::new(0)),
            Some(BrokerId::new(m(0)))
        );
        // Killing rack 0's only broker empties its live-broker slot and
        // re-homes to the sibling rack under the same intermediate.
        t.apply_cluster_event(machine_down(0)).unwrap();
        assert_eq!(t.first_live_broker_in_rack(RackId::new(0)), None);
        assert_eq!(t.closest_live_broker(m(2)), Some(BrokerId::new(m(3))));
        // Idempotent sets do not corrupt the counters.
        t.apply_cluster_event(machine_down(0)).unwrap();
        assert_eq!(live_count(&t), 10);
        t.apply_cluster_event(machine_up(0)).unwrap();
        assert_eq!(
            t.first_live_broker_in_rack(RackId::new(0)),
            Some(BrokerId::new(m(0)))
        );
        assert!(t.apply_cluster_event(machine_down(99)).is_err());
    }

    #[test]
    fn closest_live_broker_escalates_to_remote_intermediates() {
        let mut t = Topology::tree(2, 2, 3, 1).unwrap();
        // Kill every broker under intermediate 0 (racks 0 and 1).
        t.apply_cluster_event(machine_down(0)).unwrap();
        t.apply_cluster_event(machine_down(3)).unwrap();
        assert_eq!(t.closest_live_broker(m(1)), Some(BrokerId::new(m(6))));
        // Kill the rest: no live broker anywhere.
        t.apply_cluster_event(machine_down(6)).unwrap();
        t.apply_cluster_event(machine_down(9)).unwrap();
        assert_eq!(t.closest_live_broker(m(1)), None);
        assert_eq!(t.closest_live_broker(m(999)), None);
    }

    #[test]
    fn flat_closest_live_broker_prefers_self() {
        let mut t = Topology::flat(4).unwrap();
        assert_eq!(t.closest_live_broker(m(2)), Some(BrokerId::new(m(2))));
        t.apply_cluster_event(machine_down(2)).unwrap();
        assert_eq!(t.closest_live_broker(m(2)), Some(BrokerId::new(m(0))));
    }

    #[test]
    fn persistent_tier_paths_cross_the_top_switch() {
        let t = Topology::paper_tree().unwrap();
        let down = t.path_switches(MachineId::PERSISTENT, m(51));
        assert_eq!(
            down,
            vec![Switch::Top, Switch::Intermediate(1), Switch::Rack(5)]
        );
        let up = t.path_switches(m(51), MachineId::PERSISTENT);
        assert_eq!(
            up,
            vec![Switch::Rack(5), Switch::Intermediate(1), Switch::Top]
        );
        let flat = Topology::flat(3).unwrap();
        assert_eq!(
            flat.path_switches(MachineId::PERSISTENT, m(1)),
            vec![Switch::Top]
        );
    }

    #[test]
    fn add_rack_grows_the_tree_without_renumbering() {
        let mut t = Topology::tree(2, 2, 3, 1).unwrap();
        let before_servers: Vec<_> = t.servers().to_vec();
        t.apply_cluster_event(machine_down(0)).unwrap();
        // 4 racks over 2 intermediates: the next rack opens intermediate 2.
        let change = t.apply_cluster_event(ClusterEvent::AddRack).unwrap();
        assert_eq!(change.up, [m(12), m(13), m(14)]);
        assert!(change.down.is_empty());
        assert_eq!(t.rack_count(), 5);
        assert_eq!(t.intermediate_count(), 3);
        assert_eq!(t.machine_count(), 15);
        assert_eq!(live_count(&t), 14);
        // Growth leaves the other racks' liveness as it was.
        assert_eq!(t.first_live_broker_in_rack(RackId::new(0)), None);
        // Existing ids and ordinals are untouched; new machines append.
        assert_eq!(&t.servers()[..before_servers.len()], &before_servers[..]);
        assert_eq!(t.rack_of(m(12)).unwrap(), RackId::new(4));
        assert!(t.is_broker(m(12)));
        assert!(t.is_server(m(13)));
        assert_eq!(t.intermediate_of(m(13)).unwrap(), 2);
        assert_eq!(t.servers_in_subtree_slice(SubtreeId::Rack(4)).len(), 2);
        assert_eq!(
            t.first_live_broker_in_rack(RackId::new(4)),
            Some(BrokerId::new(m(12)))
        );
        // Partial intermediate 2 holds only the new rack.
        assert_eq!(
            t.servers_in_subtree_slice(SubtreeId::Intermediate(2)),
            t.servers_in_subtree_slice(SubtreeId::Rack(4))
        );
        // Distances to the new rack cross the core.
        assert_eq!(t.distance(m(1), m(13)), 5);
        // Flat topologies cannot grow by racks.
        assert!(Topology::flat(3)
            .unwrap()
            .apply_cluster_event(ClusterEvent::AddRack)
            .is_err());
    }

    /// Ids survive `AddRack`, node indices do not: every new rack shifts
    /// every machine's node, and one that opens an intermediate switch
    /// shifts the racks' nodes too.
    #[test]
    fn add_rack_shifts_machine_nodes() {
        let mut t = Topology::tree(2, 2, 3, 1).unwrap();
        let node = |t: &Topology, subtree| t.subtree_node(subtree).unwrap();
        let (machine, rack) = (SubtreeId::Machine(0), SubtreeId::Rack(1));
        assert_eq!((node(&t, machine), node(&t, rack)), (6, 3));
        // Opens intermediate 2: racks and machines shift.
        t.apply_cluster_event(ClusterEvent::AddRack).unwrap();
        assert_eq!((node(&t, machine), node(&t, rack)), (8, 4));
        // Fills intermediate 2: only the machines shift.
        t.apply_cluster_event(ClusterEvent::AddRack).unwrap();
        assert_eq!((node(&t, machine), node(&t, rack)), (9, 4));
    }

    /// All seven events, each fresh (it moves something), stale (repeated,
    /// or overtaken by a decommission) and refused: the reported change is
    /// exactly what moved, the mask and the shape follow it, and an `Err` or
    /// an empty change leaves the topology as it was.
    #[test]
    fn apply_cluster_event_updates_the_mask_and_shape() {
        let drain = |i| ClusterEvent::DrainMachine { machine: m(i) };
        let add_rack = ClusterEvent::AddRack;
        // What a case expects: `(down, up)` machine indices, `None` = refused.
        type Moved = Option<(&'static [u32], &'static [u32])>;
        let down = |ids: &'static [u32]| -> Moved { Some((ids, &[])) };
        let up = |ids: &'static [u32]| -> Moved { Some((&[], ids)) };
        let nothing: Moved = Some((&[], &[]));
        // (events applied first, the event under test, what it must report)
        let cases: Vec<(Vec<ClusterEvent>, ClusterEvent, Moved)> = vec![
            (vec![], machine_down(4), down(&[4])),
            (vec![machine_down(4)], machine_down(4), nothing),
            (vec![], machine_down(12), None),
            (vec![machine_down(4)], machine_up(4), up(&[4])),
            (vec![], machine_up(4), nothing),
            (vec![remove_rack(1)], machine_up(4), nothing),
            (vec![], machine_up(12), None),
            (vec![], drain(3), down(&[3])),
            (vec![machine_down(3)], drain(3), nothing),
            (vec![], drain(12), None),
            (vec![], rack_down(1), down(&[3, 4, 5])),
            // Only the machines that were still live go down.
            (vec![machine_down(4)], rack_down(1), down(&[3, 5])),
            (vec![rack_down(1)], rack_down(1), nothing),
            (vec![], rack_down(4), None),
            (vec![rack_down(1)], rack_up(1), up(&[3, 4, 5])),
            (vec![drain(5)], rack_up(1), up(&[5])),
            (vec![], rack_up(1), nothing),
            (vec![remove_rack(1)], rack_up(1), nothing),
            (vec![], rack_up(4), None),
            (vec![], add_rack, up(&[12, 13, 14])),
            (vec![add_rack], add_rack, up(&[15, 16, 17])),
            (vec![], remove_rack(1), down(&[3, 4, 5])),
            (vec![machine_down(4)], remove_rack(1), down(&[3, 5])),
            (vec![remove_rack(1)], remove_rack(1), None),
            (vec![], remove_rack(4), None),
            // Three of four racks gone: the last one in service stays.
            (
                vec![remove_rack(0), remove_rack(2), remove_rack(3)],
                remove_rack(1),
                None,
            ),
        ];
        for (setup, event, expected) in cases {
            let mut t = Topology::tree(2, 2, 3, 1).unwrap();
            for e in &setup {
                t.apply_cluster_event(*e).unwrap();
            }
            let before = t.clone();
            let change = t.apply_cluster_event(event).ok();
            let ids = |ids: &[u32]| ids.iter().copied().map(m).collect::<Vec<_>>();
            let expected = expected.map(|(down, up)| MembershipChange {
                down: ids(down),
                up: ids(up),
            });
            assert_eq!(change, expected, "{event} after {setup:?}");
            let change = change.unwrap_or_default();
            assert!(change.down.iter().all(|&id| !t.is_live(id)));
            assert!(change.up.iter().all(|&id| t.is_live(id)));
            assert_eq!(
                live_count(&t) + change.down.len(),
                live_count(&before) + change.up.len()
            );
            assert_eq!(
                t == before,
                change == MembershipChange::default(),
                "{event} after {setup:?}"
            );
        }
        // A flat layout has no racks to add or remove, but its one rack
        // fails as a whole.
        let mut flat = Topology::flat(3).unwrap();
        let before = flat.clone();
        assert!(flat.apply_cluster_event(add_rack).is_err());
        assert!(flat.apply_cluster_event(remove_rack(0)).is_err());
        assert_eq!(flat, before);
        let change = flat.apply_cluster_event(rack_down(0)).unwrap();
        assert_eq!(change.down, [m(0), m(1), m(2)]);
    }

    #[test]
    fn remove_rack_retires_without_renumbering() {
        let mut t = Topology::tree(2, 2, 3, 1).unwrap();
        let servers_before: Vec<_> = t.servers().to_vec();
        t.apply_cluster_event(remove_rack(1)).unwrap();
        assert!(t.is_rack_retired(RackId::new(1)));
        assert!(!t.is_rack_retired(RackId::new(0)));
        assert_eq!(t.active_rack_count(), 3);
        // Dense shape is untouched: ids, ordinals and counts stay put.
        assert_eq!(t.rack_count(), 4);
        assert_eq!(t.machine_count(), 12);
        assert_eq!(t.servers(), &servers_before[..]);
        // All of rack 1's machines are dead and flagged retired.
        assert!((3..6).all(|i| !t.is_live(m(i)) && t.is_retired(m(i))));
        assert!(!t.is_retired(m(0)));
        assert_eq!(live_count(&t), 9);
        assert_eq!(t.first_live_broker_in_rack(RackId::new(1)), None);
        // Retired capacity never comes back.
        t.apply_cluster_event(machine_up(4)).unwrap();
        t.apply_cluster_event(rack_up(1)).unwrap();
        assert!(!t.is_live(m(4)));
        // Double removal and unknown racks are rejected.
        assert!(t.apply_cluster_event(remove_rack(1)).is_err());
        assert!(t.apply_cluster_event(remove_rack(99)).is_err());
        // Growth after shrink appends a fresh rack with new ids.
        let change = t.apply_cluster_event(ClusterEvent::AddRack).unwrap();
        assert_eq!(t.rack_of(change.up[0]).unwrap(), RackId::new(4));
        assert!(!t.is_rack_retired(RackId::new(4)));
        assert_eq!(t.active_rack_count(), 4);
        // A rack whose machines all died earlier still retires, although
        // nothing goes down.
        t.apply_cluster_event(rack_down(2)).unwrap();
        let change = t.apply_cluster_event(remove_rack(2)).unwrap();
        assert_eq!(change, MembershipChange::default());
        assert!(t.is_rack_retired(RackId::new(2)));
    }

    #[test]
    fn remove_rack_rejects_the_last_rack_in_service() {
        let mut t = Topology::tree(1, 2, 3, 1).unwrap();
        t.apply_cluster_event(remove_rack(0)).unwrap();
        let err = t.apply_cluster_event(remove_rack(1)).unwrap_err();
        assert!(err.to_string().contains("last rack"));
        // Flat topologies cannot shrink at all.
        assert!(Topology::flat(3)
            .unwrap()
            .apply_cluster_event(remove_rack(0))
            .is_err());
    }

    #[test]
    fn switch_and_tier_helpers() {
        assert_eq!(Switch::Top.tier(), Tier::Top);
        assert_eq!(Switch::Intermediate(2).tier(), Tier::Intermediate);
        assert_eq!(Switch::Rack(4).tier(), Tier::Rack);
        assert_eq!(Switch::Top.to_string(), "ST");
        assert_eq!(Switch::Intermediate(1).to_string(), "SI1");
        assert_eq!(Switch::Rack(3).to_string(), "SR3");
        assert_eq!(Tier::all().map(|t| t.index()), [0, 1, 2]);
        assert_eq!(Tier::Top.to_string(), "top");
    }
}
