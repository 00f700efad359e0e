//! The read-side cost model behind Algorithms 2 and 3, in closed form.
//!
//! [`utility`](crate::utility) is the executable specification: the cost of
//! serving a replica's recorded readers from a machine is a sum over the
//! `k` origins of `reads(origin) · distance(machine, origin)`. Evaluating
//! one candidate per origin that way costs `O(k²)` distance look-ups per
//! request. [`OriginCosts`] answers the same questions in `O(1)` per
//! candidate after one `O(k)` pass over the origins, using the shape of the
//! distance function: the distance between a machine and an origin only
//! depends on how deep into the tree their positions agree,
//!
//! ```text
//! distance = far − 2·[same intermediate] − 2·[same rack] − 1·[same machine]
//! ```
//!
//! with `far = 5` on a tree, and `far = 1` with only the machine term on a
//! flat topology. So per tree node it is enough to know the total reads of
//! the origins at or below it (for the plain read cost of Algorithm 3) and
//! how much creation gain a candidate collects by agreeing with those
//! origins one level deeper (for Algorithm 2, where only origins that get
//! strictly closer than they are to the current server count).
//!
//! The positions themselves live in a [`PathTable`], which also serves
//! every other distance the engine asks for per request (routing, nearest
//! replica, cached utilities) from one small array.

use dynasore_topology::{Topology, TopologyKind};
use dynasore_types::{MachineId, RackId, SubtreeId};

/// "This position has no node at this level" (origins above the level, and
/// every rack/intermediate level of a flat topology).
const NONE: u32 = u32::MAX;

/// Distance saved by agreeing at the intermediate, rack and machine level.
const LEVEL_SAVING: [i64; 3] = [2, 2, 1];

/// The tree nodes above (and including) a machine or an origin, as indices
/// into a [`PathTable`]: intermediate, rack, machine.
pub(crate) type Path = [u32; 3];

/// What the origins at or below one tree node add up to.
#[derive(Debug, Clone, Copy, Default)]
struct NodeSum {
    /// `Σ reads · saving` of this level: what a machine under this node
    /// saves on its read cost compared to agreeing one level higher.
    read_saving: i64,
    /// The same for the creation gain, where each origin's saving is capped
    /// by its distance to the current server.
    creation_gain: i64,
}

/// The topology's tree nodes (intermediates, then racks, then machines) and
/// the path from the root to each: every distance the engine needs, without
/// calling into the topology. Built once per topology shape — machines never
/// change rack, so only [`dynasore_types::ClusterEvent::AddRack`] calls for a
/// new one.
#[derive(Debug, Clone)]
pub(crate) struct PathTable {
    far: i64,
    /// Node index of the first rack and of the first machine.
    first_rack: u32,
    first_machine: u32,
    /// The path from the root to every node, itself included.
    paths: Vec<Path>,
}

impl PathTable {
    /// Lays out the node table of `topology`.
    pub(crate) fn new(topology: &Topology) -> Self {
        let inters = topology.intermediate_count() as u32;
        let racks = topology.rack_count() as u32;
        let machines = topology.machine_count() as u32;
        let (far, tree) = match topology.kind() {
            TopologyKind::Tree => (5, true),
            // One switch: only the machine level tells positions apart.
            TopologyKind::Flat => (1, false),
        };
        let mut paths: Vec<Path> = Vec::with_capacity((inters + racks + machines) as usize);
        paths.extend((0..inters).map(|i| if tree { [i, NONE, NONE] } else { [NONE; 3] }));
        paths.extend((0..racks).map(|r| {
            if tree {
                let inter = topology.intermediate_of_rack(RackId::new(r));
                [inter, inters + r, NONE]
            } else {
                [NONE; 3]
            }
        }));
        for m in 0..machines {
            let rack = topology
                .rack_of(MachineId::new(m))
                .expect("machine ids are dense");
            let [inter, rack_node, _] = paths[(inters + rack.index()) as usize];
            paths.push([inter, rack_node, inters + racks + m]);
        }
        PathTable {
            far,
            first_rack: inters,
            first_machine: inters + racks,
            paths,
        }
    }

    /// The path of a machine of the topology the table was built for;
    /// panics on any other (a table that missed a cluster growth must not
    /// quietly price the new machines as far from everything).
    pub(crate) fn machine_path(&self, machine: MachineId) -> Path {
        self.paths[self.first_machine as usize + machine.as_usize()]
    }

    /// The path of a read origin. Origins the topology does not have are
    /// far from everything, as [`Topology::origin_distance`] treats them.
    pub(crate) fn origin_path(&self, origin: SubtreeId) -> Path {
        let (first, end, index) = match origin {
            SubtreeId::Root => return [NONE; 3],
            SubtreeId::Intermediate(i) => (0, self.first_rack, i),
            SubtreeId::Rack(r) => (self.first_rack, self.first_machine, r),
            SubtreeId::Machine(m) => (self.first_machine, self.paths.len() as u32, m),
        };
        match first.checked_add(index) {
            Some(node) if node < end => self.paths[node as usize],
            _ => [NONE; 3],
        }
    }

    /// Number of switches between the machines (or origins) at two paths:
    /// [`Topology::distance`] and [`Topology::origin_distance`].
    pub(crate) fn distance(&self, a: &Path, b: &Path) -> i64 {
        let agreed: i64 = (0..3)
            .filter(|&level| a[level] != NONE && a[level] == b[level])
            .map(|level| LEVEL_SAVING[level])
            .sum();
        self.far - agreed
    }
}

/// Per-evaluation sums over the origins of one replica, one per node of a
/// [`PathTable`]. Reused across evaluations: [`OriginCosts::begin`] and
/// [`OriginCosts::clear`] bracket one, and clearing only visits the nodes
/// the evaluation touched, so a steady-state evaluation neither allocates,
/// nor scales with the cluster, nor calls into the topology.
#[derive(Debug, Clone, Default)]
pub(crate) struct OriginCosts {
    far: i64,
    sums: Vec<NodeSum>,
    server: Path,
    total_reads: i64,
    /// The path of every pushed origin, to undo it in `clear`.
    touched: Vec<Path>,
}

impl OriginCosts {
    /// Zeroed sums for every node of `table`.
    pub(crate) fn new(table: &PathTable) -> Self {
        OriginCosts {
            far: table.far,
            sums: vec![NodeSum::default(); table.paths.len()],
            server: [NONE; 3],
            total_reads: 0,
            touched: Vec::new(),
        }
    }

    /// Starts an evaluation of a replica stored on `server`. The previous
    /// evaluation must have been [`clear`](OriginCosts::clear)ed.
    pub(crate) fn begin(&mut self, table: &PathTable, server: MachineId) {
        debug_assert!(self.touched.is_empty(), "evaluation not cleared");
        self.total_reads = 0;
        self.server = table.machine_path(server);
    }

    /// Adds `reads` recorded from `origin`.
    pub(crate) fn push(&mut self, table: &PathTable, origin: SubtreeId, reads: u64) {
        let reads = reads as i64;
        let path = table.origin_path(origin);
        let from_server = table.distance(&self.server, &path);
        self.total_reads += reads;
        // Walk down the origin's path: a machine that agrees with it up to
        // `level` sees it at distance `below`, one level less at `above`.
        let mut above = self.far;
        for (level, &node) in path.iter().enumerate() {
            if node == NONE {
                continue;
            }
            let below = above - LEVEL_SAVING[level];
            let sum = &mut self.sums[node as usize];
            sum.read_saving += reads * LEVEL_SAVING[level];
            sum.creation_gain +=
                reads * ((from_server - below).max(0) - (from_server - above).max(0));
            above = below;
        }
        self.touched.push(path);
    }

    /// `Σ reads(origin) · distance(machine, origin)` over the pushed origins,
    /// for the machine at `path`.
    pub(crate) fn read_cost(&self, path: &Path) -> i64 {
        let saved: i64 = self.sums_on(path).map(|sum| sum.read_saving).sum();
        self.far * self.total_reads - saved
    }

    /// `Σ reads(origin) · max(0, distance(server, origin) − distance(machine,
    /// origin))` over the pushed origins, for the machine at `path`: the read
    /// traffic a new replica there takes off the current server.
    pub(crate) fn creation_gain(&self, path: &Path) -> i64 {
        self.sums_on(path).map(|sum| sum.creation_gain).sum()
    }

    /// Resets the sums of every node the evaluation touched.
    pub(crate) fn clear(&mut self) {
        for path in self.touched.drain(..) {
            for node in path.into_iter().filter(|&node| node != NONE) {
                self.sums[node as usize] = NodeSum::default();
            }
        }
    }

    fn sums_on<'a>(&'a self, path: &'a Path) -> impl Iterator<Item = &'a NodeSum> + 'a {
        path.iter()
            .filter(|&&node| node != NONE)
            .map(|&node| &self.sums[node as usize])
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::stats::ReplicaStats;
    use crate::utility::{estimate_creation_profit, estimate_profit};
    use dynasore_types::ClusterEvent;
    use proptest::prelude::*;

    /// Turns a random number into an origin of any kind the topology can
    /// name — including kinds its servers never record (a machine origin on
    /// a tree, a rack origin on a flat cluster) and rack/intermediate ids one
    /// past the end.
    pub(crate) fn origin_from_pick(topology: &Topology, pick: u32) -> SubtreeId {
        let id = pick / 4;
        match pick % 4 {
            0 => SubtreeId::Root,
            1 => SubtreeId::Intermediate(id % (topology.intermediate_count() as u32 + 1)),
            2 => SubtreeId::Rack(id % (topology.rack_count() as u32 + 1)),
            _ => SubtreeId::Machine(id % topology.machine_count() as u32),
        }
    }

    fn random_stats(topology: &Topology, picks: &[(u32, u32)], writes: u32) -> ReplicaStats {
        let mut stats = ReplicaStats::new();
        for &(pick, reads) in picks {
            stats.record_reads(origin_from_pick(topology, pick), reads as u64);
        }
        for _ in 0..writes {
            stats.record_write();
        }
        stats
    }

    /// Every number the engine derives from the sums equals the
    /// specification in `utility.rs`, for every machine of the cluster as
    /// candidate.
    fn assert_matches_specification(
        topology: &Topology,
        stats: &ReplicaStats,
        server: MachineId,
        nearest: MachineId,
        write_proxy: MachineId,
        table: &PathTable,
        costs: &mut OriginCosts,
    ) -> Result<(), TestCaseError> {
        costs.begin(table, server);
        for (origin, reads) in stats.reads() {
            costs.push(table, origin, reads);
            prop_assert_eq!(
                table.distance(&table.machine_path(server), &table.origin_path(origin)),
                topology.origin_distance(server, origin) as i64
            );
        }
        let nearest_cost = costs.read_cost(&table.machine_path(nearest));
        let writes = stats.total_writes() as i64;
        for m in 0..topology.machine_count() as u32 {
            let candidate = MachineId::new(m);
            let path = table.machine_path(candidate);
            let proxy_distance = table.distance(&table.machine_path(write_proxy), &path);
            let write_cost = writes * proxy_distance;
            prop_assert_eq!(
                proxy_distance,
                topology.distance(write_proxy, candidate) as i64
            );
            prop_assert_eq!(
                nearest_cost - costs.read_cost(&path) - write_cost,
                estimate_profit(topology, stats, candidate, nearest, write_proxy),
                "profit of {} (server {}, nearest {})",
                candidate,
                server,
                nearest
            );
            prop_assert_eq!(
                costs.creation_gain(&path) - write_cost,
                estimate_creation_profit(topology, stats, candidate, server, write_proxy),
                "creation profit of {} (server {})",
                candidate,
                server
            );
        }
        costs.clear();
        prop_assert!(costs
            .sums
            .iter()
            .all(|n| n.read_saving == 0 && n.creation_gain == 0));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn sums_match_the_specification_on_trees(
            shape in (1usize..4, 1usize..4),
            machines in 2usize..5,
            grow in proptest::bool::ANY,
            picks in proptest::collection::vec((0u32..10_000, 1u32..50), 0..14),
            writes in 0u32..6,
            machine_picks in (0u32..10_000, (0u32..10_000, 0u32..10_000)),
        ) {
            let mut topology = Topology::tree(shape.0, shape.1, machines, 1).unwrap();
            if grow {
                // A partial last intermediate, as after elastic growth.
                topology.apply_cluster_event(ClusterEvent::AddRack).unwrap();
            }
            let n = topology.machine_count() as u32;
            let stats = random_stats(&topology, &picks, writes);
            let (server, (nearest, proxy)) = machine_picks;
            // One scratch across two evaluations: `clear` must leave nothing.
            let table = PathTable::new(&topology);
            let mut costs = OriginCosts::new(&table);
            for shift in 0..2 {
                assert_matches_specification(
                    &topology,
                    &stats,
                    MachineId::new((server + shift) % n),
                    MachineId::new(nearest % n),
                    MachineId::new(proxy % n),
                    &table,
                    &mut costs,
                )?;
            }
        }

        #[test]
        fn sums_match_the_specification_on_flat_clusters(
            machines in 1usize..12,
            picks in proptest::collection::vec((0u32..10_000, 1u32..50), 0..14),
            writes in 0u32..6,
            machine_picks in (0u32..10_000, (0u32..10_000, 0u32..10_000)),
        ) {
            let topology = Topology::flat(machines).unwrap();
            let n = machines as u32;
            let stats = random_stats(&topology, &picks, writes);
            let (server, (nearest, proxy)) = machine_picks;
            let table = PathTable::new(&topology);
            assert_matches_specification(
                &topology,
                &stats,
                MachineId::new(server % n),
                MachineId::new(nearest % n),
                MachineId::new(proxy % n),
                &table,
                &mut OriginCosts::new(&table),
            )?;
        }
    }
}
