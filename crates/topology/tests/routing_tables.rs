//! Property tests: the topology's answers must agree with a naive tree-walk
//! reference on random topologies.
//!
//! These properties recompute every distance, origin, switch path, broker
//! and sub-tree answer from first principles — the numbering rules of the
//! tree (machines rack by rack, racks intermediate switch by intermediate
//! switch, brokers first in each rack) — and compare, on trees as built, on
//! trees grown by `ClusterEvent::AddRack` (whose last intermediate switch
//! may be partial) and on the flat layout.

use dynasore_topology::{Switch, Topology, TopologyKind};
use dynasore_types::{ClusterEvent, MachineId, SubtreeId};
use proptest::prelude::*;

/// The shape a topology was built with, and the naive reference answers
/// derived from it.
#[derive(Debug, Clone, Copy)]
struct Shape {
    kind: TopologyKind,
    machines_per_rack: u32,
    racks_per_intermediate: u32,
    racks: u32,
}

impl Shape {
    fn machines(self) -> u32 {
        self.racks * self.machines_per_rack
    }

    fn intermediates(self) -> u32 {
        self.racks.div_ceil(self.racks_per_intermediate)
    }

    fn rack(self, machine: MachineId) -> u32 {
        machine.index() / self.machines_per_rack
    }

    fn intermediate(self, rack: u32) -> u32 {
        rack / self.racks_per_intermediate
    }

    /// The switches and machine from the root down to `subtree`, both
    /// included. A node the topology does not have is nowhere below the
    /// root, and a flat layout has one switch, so only its machines are
    /// below its root (its intermediate and rack nodes, which hold every
    /// machine, are no switches).
    fn ancestors(self, subtree: SubtreeId) -> Vec<SubtreeId> {
        let mut chain = vec![SubtreeId::Root];
        match (self.kind, subtree) {
            (TopologyKind::Flat, SubtreeId::Machine(m)) if m < self.machines() => {
                chain.push(subtree)
            }
            (TopologyKind::Tree, SubtreeId::Intermediate(i)) if i < self.intermediates() => {
                chain.push(subtree)
            }
            (TopologyKind::Tree, SubtreeId::Rack(r)) if r < self.racks => {
                chain.extend([SubtreeId::Intermediate(self.intermediate(r)), subtree])
            }
            (TopologyKind::Tree, SubtreeId::Machine(m)) if m < self.machines() => {
                let rack = self.rack(MachineId::new(m));
                chain.extend([
                    SubtreeId::Intermediate(self.intermediate(rack)),
                    SubtreeId::Rack(rack),
                    subtree,
                ])
            }
            _ => {}
        }
        chain
    }

    /// Switches between `machine` and a machine under `origin` that leaves
    /// `machine`'s ancestors no deeper than `origin` does. Two machines at
    /// depth `d` sharing `s` ancestors are `d − s` levels below their lowest
    /// common ancestor: the walk crosses the `d − s − 1` switches above each
    /// machine below it, and its own.
    fn origin_distance(self, machine: MachineId, origin: SubtreeId) -> u32 {
        let own = self.ancestors(SubtreeId::Machine(machine.index()));
        let shared = shared_prefix(&own, &self.ancestors(origin)) as u32;
        let depth = own.len() as u32;
        if shared == depth {
            0
        } else {
            2 * (depth - shared) - 1
        }
    }

    /// The switches above `machine`, root first; none above the persistent
    /// tier, which attaches above the core switch.
    fn switches_above(self, machine: MachineId) -> Vec<SubtreeId> {
        if machine.is_persistent() {
            return Vec::new();
        }
        let mut chain = self.ancestors(SubtreeId::Machine(machine.index()));
        chain.pop();
        chain
    }

    /// The switches a message from `a` to `b` crosses: up from `a` to the
    /// lowest common ancestor, its switch, and down to `b`.
    fn path(self, a: MachineId, b: MachineId) -> Vec<Switch> {
        if a == b {
            return Vec::new();
        }
        let (up, down) = (self.switches_above(a), self.switches_above(b));
        let shared = shared_prefix(&up, &down);
        let mut path: Vec<SubtreeId> = up[shared..].iter().rev().copied().collect();
        path.extend(shared.checked_sub(1).map(|lca| up[lca]));
        path.extend(&down[shared..]);
        path.into_iter()
            .map(|node| match node {
                SubtreeId::Intermediate(i) => Switch::Intermediate(i),
                SubtreeId::Rack(r) => Switch::Rack(r),
                _ => Switch::Top,
            })
            .collect()
    }

    /// The coarse access origin (§3.2): on a tree, sibling racks
    /// individually and remote intermediates in aggregate; on a flat
    /// layout, the requesting machine.
    fn access_origin(self, server: MachineId, requester: MachineId) -> SubtreeId {
        let (rs, rr) = (self.rack(server), self.rack(requester));
        match self.kind {
            TopologyKind::Flat => SubtreeId::Machine(requester.index()),
            _ if self.intermediate(rs) == self.intermediate(rr) => SubtreeId::Rack(rr),
            _ => SubtreeId::Intermediate(self.intermediate(rr)),
        }
    }

    /// Every origin a server could be asked about: the root, each
    /// intermediate switch, each rack and each machine, plus the first
    /// intermediate and rack ids past the end.
    fn origins(self) -> Vec<SubtreeId> {
        let mut origins = vec![SubtreeId::Root];
        origins.extend((0..=self.intermediates()).map(SubtreeId::Intermediate));
        origins.extend((0..=self.racks).map(SubtreeId::Rack));
        origins.extend((0..self.machines()).map(SubtreeId::Machine));
        origins
    }
}

fn shared_prefix(a: &[SubtreeId], b: &[SubtreeId]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// A tree of `inter × racks` racks of `machines` machines, grown by `grow`
/// [`ClusterEvent::AddRack`]s, and its shape.
fn grown_tree(
    inter: usize,
    racks: usize,
    machines: usize,
    brokers: usize,
    grow: usize,
) -> (Topology, Shape) {
    let mut topo = Topology::tree(inter, racks, machines, brokers).unwrap();
    for _ in 0..grow {
        topo.apply_cluster_event(ClusterEvent::AddRack).unwrap();
    }
    let shape = Shape {
        kind: TopologyKind::Tree,
        machines_per_rack: machines as u32,
        racks_per_intermediate: racks as u32,
        racks: (inter * racks + grow) as u32,
    };
    assert_eq!(topo.rack_count() as u32, shape.racks);
    assert_eq!(topo.intermediate_count() as u32, shape.intermediates());
    assert_eq!(topo.machine_count() as u32, shape.machines());
    (topo, shape)
}

/// `origin_distance` from every machine to every origin matches the walk.
fn assert_origin_distances(topo: &Topology, shape: Shape) -> Result<(), TestCaseError> {
    for m in 0..shape.machines() {
        let machine = MachineId::new(m);
        for origin in shape.origins() {
            prop_assert_eq!(
                topo.origin_distance(machine, origin),
                shape.origin_distance(machine, origin),
                "{} to {} in {:?}",
                machine,
                origin,
                shape
            );
        }
    }
    Ok(())
}

/// Membership follows the paths: `subtree_contains(s, m)` holds exactly
/// when `s` is the root or `s`'s node lies on `m`'s path, and the sub-tree
/// slices hold exactly the servers and brokers that membership selects, in
/// machine order — for every origin, the ids past the end included.
fn assert_membership_follows_paths(topo: &Topology, shape: Shape) -> Result<(), TestCaseError> {
    for subtree in shape.origins() {
        // The sub-tree's own node is the last on its path; the root and ids
        // the topology does not have have none.
        let node = topo
            .origin_path(subtree)
            .nodes()
            .last()
            .map(|(_, node)| node);
        prop_assert_eq!(topo.subtree_node(subtree), node, "node of {}", subtree);
        let under = |m: MachineId| {
            subtree == SubtreeId::Root
                || node.is_some_and(|node| topo.machine_path(m).nodes().any(|(_, n)| n == node))
        };
        for m in (0..shape.machines()).map(MachineId::new) {
            prop_assert_eq!(
                topo.subtree_contains(subtree, m),
                under(m),
                "{} under {} in {:?}",
                m,
                subtree,
                shape
            );
        }
        let servers: Vec<_> = topo
            .servers()
            .iter()
            .copied()
            .filter(|s| under(s.machine()))
            .collect();
        prop_assert_eq!(
            topo.servers_in_subtree_slice(subtree),
            &servers[..],
            "servers under {}",
            subtree
        );
        let brokers: Vec<_> = topo
            .brokers()
            .iter()
            .copied()
            .filter(|b| under(b.machine()))
            .collect();
        prop_assert_eq!(
            topo.brokers_in_subtree_slice(subtree),
            &brokers[..],
            "brokers under {}",
            subtree
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `distance`, `rack_of`, `intermediate_of`, `access_origin` and
    /// `local_broker` agree with naive tree walks on random trees, grown or
    /// not.
    #[test]
    fn tables_agree_with_naive_tree_walk(
        inter in 1usize..6,
        racks in 1usize..6,
        machines in 2usize..8,
        brokers in 1usize..3,
        grow in 0usize..4,
        a_pick in 0usize..10_000,
        b_pick in 0usize..10_000,
    ) {
        let brokers = brokers.min(machines - 1);
        let (topo, shape) = grown_tree(inter, racks, machines, brokers, grow);
        let n = topo.machine_count();
        let a = MachineId::new((a_pick % n) as u32);
        let b = MachineId::new((b_pick % n) as u32);

        prop_assert_eq!(
            topo.distance(a, b),
            shape.origin_distance(a, SubtreeId::Machine(b.index()))
        );
        prop_assert_eq!(topo.distance(a, b), topo.distance(b, a));
        prop_assert_eq!(topo.rack_of(a).unwrap().index(), shape.rack(a));
        prop_assert_eq!(
            topo.intermediate_of(a).unwrap(),
            shape.intermediate(shape.rack(a))
        );
        prop_assert_eq!(topo.access_origin(a, b), shape.access_origin(a, b));

        // The local broker is the first machine of the machine's rack.
        let broker = topo.local_broker(a).unwrap();
        prop_assert_eq!(broker.machine().index(), shape.rack(a) * shape.machines_per_rack);
        prop_assert!(topo.is_broker(broker.machine()));
    }

    /// `origin_distance` agrees with the naive walk from every machine of a
    /// random tree, grown or not, to every origin kind.
    #[test]
    fn origin_distance_agrees_with_naive_tree_walk(
        inter in 1usize..5,
        racks in 1usize..5,
        machines in 2usize..6,
        grow in 0usize..4,
    ) {
        let (topo, shape) = grown_tree(inter, racks, machines, 1, grow);
        assert_origin_distances(&topo, shape)?;
    }

    /// `subtree_contains` is the naive membership on random trees, grown or
    /// not, with one or two brokers per rack, and membership and the
    /// contiguous-range sub-tree slices follow the paths.
    #[test]
    fn subtree_slices_match_membership_filter(
        inter in 1usize..5,
        racks in 1usize..5,
        machines in 2usize..7,
        brokers in 1usize..3,
        grow in 0usize..4,
    ) {
        let brokers = brokers.min(machines - 1);
        let (topo, shape) = grown_tree(inter, racks, machines, brokers, grow);
        for subtree in shape.origins() {
            for m in (0..shape.machines()).map(MachineId::new) {
                let under = shape.ancestors(SubtreeId::Machine(m.index())).contains(&subtree);
                prop_assert_eq!(topo.subtree_contains(subtree, m), under);
            }
        }
        assert_membership_follows_paths(&topo, shape)?;
    }

    /// `path_switches` lists the switches of the naive walk between two
    /// machines of a random tree, grown or not, or between a machine and the
    /// persistent tier; `record_path_timed` charges exactly those; and
    /// between two machines there are as many as their distance.
    #[test]
    fn record_path_matches_path_switches(
        inter in 1usize..5,
        racks in 1usize..5,
        machines in 2usize..7,
        grow in 0usize..4,
        a_pick in 0usize..10_000,
        b_pick in 0usize..10_000,
    ) {
        use dynasore_topology::TrafficAccount;
        use dynasore_types::{MessageClass, NetworkModel, SimTime};

        let (topo, shape) = grown_tree(inter, racks, machines, 1, grow);
        let n = topo.machine_count();
        // One pick past the machines stands for the persistent tier.
        let endpoint = |pick: usize| match pick % (n + 1) {
            m if m == n => MachineId::PERSISTENT,
            m => MachineId::new(m as u32),
        };
        let (a, b) = (endpoint(a_pick), endpoint(b_pick));

        let path = topo.path_switches(a, b);
        prop_assert_eq!(&path, &shape.path(a, b), "{} to {}", a, b);
        let mut by_path = TrafficAccount::new(NetworkModel::infinite());
        by_path.record(&path, MessageClass::Application, SimTime::ZERO);
        let mut by_record = TrafficAccount::new(NetworkModel::infinite());
        topo.record_path_timed(a, b, MessageClass::Application, SimTime::ZERO, &mut by_record);
        prop_assert_eq!(&by_path, &by_record);
        if !a.is_persistent() && !b.is_persistent() {
            prop_assert_eq!(path.len() as u32, topo.distance(a, b));
        }
    }
}

/// The flat topology routes everything through the single switch, reports
/// machine-granular origins, agrees with the naive walk on every distance,
/// origin distance and path, and its membership follows its paths.
#[test]
fn flat_topology_tables() {
    for n in [1u32, 2, 12] {
        let topo = Topology::flat(n as usize).unwrap();
        assert_eq!(topo.kind(), TopologyKind::Flat);
        let shape = Shape {
            kind: TopologyKind::Flat,
            machines_per_rack: n,
            racks_per_intermediate: 1,
            racks: 1,
        };
        assert_origin_distances(&topo, shape).unwrap();
        assert_membership_follows_paths(&topo, shape).unwrap();
        for a in (0..n).map(MachineId::new) {
            assert_eq!(topo.rack_of(a).unwrap().index(), 0);
            assert_eq!(topo.local_broker(a).unwrap().machine(), a);
            for b in (0..n).map(MachineId::new).chain([MachineId::PERSISTENT]) {
                assert_eq!(topo.path_switches(a, b), shape.path(a, b));
                assert_eq!(topo.path_switches(b, a), shape.path(b, a));
                if !b.is_persistent() {
                    assert_eq!(topo.distance(a, b), topo.path_switches(a, b).len() as u32);
                    assert_eq!(topo.access_origin(a, b), shape.access_origin(a, b));
                }
            }
        }
        assert_eq!(
            topo.servers_in_subtree_slice(SubtreeId::Root).len(),
            n as usize
        );
        assert_eq!(
            topo.servers_in_subtree_slice(SubtreeId::Rack(0)).len(),
            n as usize
        );
        // The one intermediate node holds every machine, as their paths say.
        assert_eq!(
            topo.servers_in_subtree_slice(SubtreeId::Intermediate(0))
                .len(),
            n as usize
        );
    }
}
