//! The read-side cost model behind Algorithms 2 and 3, in closed form.
//!
//! The test oracle `utility.rs` is the executable specification: the cost of
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
//! The positions are the topology's [`Path`]s, and `far` and the per-level
//! savings its [`Topology::metric`], the one definition every other distance
//! the engine asks for per request (routing, nearest replica, cached
//! utilities) also comes from.

use dynasore_topology::{Path, Topology};
use dynasore_types::{MachineId, SubtreeId};

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

/// Per-evaluation sums over the origins of one replica, one per node of the
/// topology's tree. Reused across evaluations: [`OriginCosts::begin`] and
/// [`OriginCosts::clear`] bracket one, and clearing only visits the nodes
/// the evaluation touched, so a steady-state evaluation neither allocates,
/// nor scales with the cluster. A topology that gained a rack renumbers its
/// nodes and needs new sums.
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
    /// Zeroed sums for every node of `topology`.
    pub(crate) fn new(topology: &Topology) -> Self {
        OriginCosts {
            sums: vec![NodeSum::default(); topology.node_count()],
            ..OriginCosts::default()
        }
    }

    /// Starts an evaluation of a replica stored on `server`. The previous
    /// evaluation must have been [`clear`](OriginCosts::clear)ed.
    pub(crate) fn begin(&mut self, topology: &Topology, server: MachineId) {
        debug_assert!(self.touched.is_empty(), "evaluation not cleared");
        self.far = i64::from(topology.metric().0);
        self.total_reads = 0;
        self.server = topology.machine_path(server);
    }

    /// Adds `reads` recorded from `origin`.
    pub(crate) fn push(&mut self, topology: &Topology, origin: SubtreeId, reads: u64) {
        let reads = reads as i64;
        let path = topology.origin_path(origin);
        let from_server = i64::from(topology.path_distance(self.server, path));
        let savings = topology.metric().1;
        self.total_reads += reads;
        // Walk down the origin's path: a machine that agrees with it up to
        // `level` sees it at distance `below`, one level less at `above`.
        let mut above = self.far;
        for (level, node) in path.nodes() {
            let saving = i64::from(savings[level]);
            let below = above - saving;
            let sum = &mut self.sums[node];
            sum.read_saving += reads * saving;
            sum.creation_gain +=
                reads * ((from_server - below).max(0) - (from_server - above).max(0));
            above = below;
        }
        self.touched.push(path);
    }

    /// `Σ reads(origin) · distance(machine, origin)` over the pushed origins,
    /// for the machine at `path`.
    pub(crate) fn read_cost(&self, path: Path) -> i64 {
        let saved: i64 = self.sums_on(path).map(|sum| sum.read_saving).sum();
        self.far * self.total_reads - saved
    }

    /// `Σ reads(origin) · max(0, distance(server, origin) − distance(machine,
    /// origin))` over the pushed origins, for the machine at `path`: the read
    /// traffic a new replica there takes off the current server.
    pub(crate) fn creation_gain(&self, path: Path) -> i64 {
        self.sums_on(path).map(|sum| sum.creation_gain).sum()
    }

    /// Resets the sums of every node the evaluation touched.
    pub(crate) fn clear(&mut self) {
        for path in self.touched.drain(..) {
            for (_, node) in path.nodes() {
                self.sums[node] = NodeSum::default();
            }
        }
    }

    fn sums_on(&self, path: Path) -> impl Iterator<Item = &NodeSum> + '_ {
        path.nodes().map(|(_, node)| &self.sums[node])
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
        costs: &mut OriginCosts,
    ) -> Result<(), TestCaseError> {
        costs.begin(topology, server);
        for (origin, reads) in stats.reads() {
            costs.push(topology, origin, reads);
        }
        let nearest_cost = costs.read_cost(topology.machine_path(nearest));
        let writes = stats.total_writes() as i64;
        for m in 0..topology.machine_count() as u32 {
            let candidate = MachineId::new(m);
            let path = topology.machine_path(candidate);
            let write_cost = writes * topology.distance(write_proxy, candidate) as i64;
            prop_assert_eq!(
                nearest_cost - costs.read_cost(path) - write_cost,
                estimate_profit(topology, stats, candidate, nearest, write_proxy),
                "profit of {} (server {}, nearest {})",
                candidate,
                server,
                nearest
            );
            prop_assert_eq!(
                costs.creation_gain(path) - write_cost,
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
            let mut costs = OriginCosts::new(&topology);
            for shift in 0..2 {
                assert_matches_specification(
                    &topology,
                    &stats,
                    MachineId::new((server + shift) % n),
                    MachineId::new(nearest % n),
                    MachineId::new(proxy % n),
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
            assert_matches_specification(
                &topology,
                &stats,
                MachineId::new(server % n),
                MachineId::new(nearest % n),
                MachineId::new(proxy % n),
                &mut OriginCosts::new(&topology),
            )?;
        }
    }
}
