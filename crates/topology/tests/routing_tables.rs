//! Property tests: the dense routing tables must agree with a naive
//! tree-walk reference on random topologies.
//!
//! The `Topology` constructor precomputes per-machine rack/intermediate
//! tables, contiguous per-subtree server/broker ranges and first-broker
//! tables; every hot-path query is answered from them. These properties
//! recompute each answer from first principles (the machine-numbering
//! invariants of the tree) and compare.

use dynasore_topology::{Topology, TopologyKind};
use dynasore_types::{MachineId, RackId, SubtreeId};
use proptest::prelude::*;

/// Naive reference: rack of a machine, from the machine-numbering rule
/// (machines are numbered densely, rack by rack).
fn naive_rack(machines_per_rack: usize, machine: MachineId) -> u32 {
    (machine.as_usize() / machines_per_rack) as u32
}

/// Naive reference: intermediate switch above a rack.
fn naive_intermediate(racks_per_intermediate: usize, rack: u32) -> u32 {
    rack / racks_per_intermediate as u32
}

/// Naive reference for the switch distance, walking up the tree level by
/// level.
fn naive_distance(
    machines_per_rack: usize,
    racks_per_intermediate: usize,
    a: MachineId,
    b: MachineId,
) -> u32 {
    if a == b {
        return 0;
    }
    let (ra, rb) = (
        naive_rack(machines_per_rack, a),
        naive_rack(machines_per_rack, b),
    );
    if ra == rb {
        return 1;
    }
    if naive_intermediate(racks_per_intermediate, ra)
        == naive_intermediate(racks_per_intermediate, rb)
    {
        return 3;
    }
    5
}

/// Naive reference for the coarse access origin (§3.2): sibling racks
/// individually, remote intermediates in aggregate.
fn naive_access_origin(
    machines_per_rack: usize,
    racks_per_intermediate: usize,
    server: MachineId,
    requester: MachineId,
) -> SubtreeId {
    let rs = naive_rack(machines_per_rack, server);
    let rr = naive_rack(machines_per_rack, requester);
    if naive_intermediate(racks_per_intermediate, rs)
        == naive_intermediate(racks_per_intermediate, rr)
    {
        SubtreeId::Rack(rr)
    } else {
        SubtreeId::Intermediate(naive_intermediate(racks_per_intermediate, rr))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Table-based `distance`, `lowest_common_ancestor`, `access_origin`
    /// and `local_broker` agree with naive tree walks on random trees.
    #[test]
    fn tables_agree_with_naive_tree_walk(
        inter in 1usize..6,
        racks in 1usize..6,
        machines in 2usize..8,
        brokers in 1usize..3,
        a_pick in 0usize..10_000,
        b_pick in 0usize..10_000,
    ) {
        let brokers = brokers.min(machines - 1);
        let topo = Topology::tree(inter, racks, machines, brokers).unwrap();
        let n = topo.machine_count();
        let a = MachineId::new((a_pick % n) as u32);
        let b = MachineId::new((b_pick % n) as u32);

        // Distance (the pairwise hop class).
        prop_assert_eq!(
            topo.distance(a, b),
            naive_distance(machines, racks, a, b)
        );
        prop_assert_eq!(topo.distance(a, b), topo.distance(b, a));

        // Rack / intermediate tables.
        prop_assert_eq!(topo.rack_of(a).unwrap().index(), naive_rack(machines, a));
        prop_assert_eq!(
            topo.intermediate_of(a).unwrap(),
            naive_intermediate(racks, naive_rack(machines, a))
        );

        // LCA tier follows from the shared-prefix rule.
        let lca = topo.lowest_common_ancestor(a, b);
        let expected = if a == b {
            SubtreeId::Machine(a.index())
        } else if naive_rack(machines, a) == naive_rack(machines, b) {
            SubtreeId::Rack(naive_rack(machines, a))
        } else if naive_intermediate(racks, naive_rack(machines, a))
            == naive_intermediate(racks, naive_rack(machines, b))
        {
            SubtreeId::Intermediate(naive_intermediate(racks, naive_rack(machines, a)))
        } else {
            SubtreeId::Root
        };
        prop_assert_eq!(lca, expected);

        // Access origins.
        prop_assert_eq!(
            topo.access_origin(a, b),
            naive_access_origin(machines, racks, a, b)
        );

        // The local broker is the first broker of the machine's rack.
        let broker = topo.local_broker(a).unwrap();
        prop_assert_eq!(
            naive_rack(machines, broker.machine()),
            naive_rack(machines, a)
        );
        prop_assert!(topo.is_broker(broker.machine()));
        prop_assert_eq!(
            Some(broker),
            topo.first_broker_in_rack(RackId::new(naive_rack(machines, a)))
        );
    }

    /// The contiguous-range subtree slices contain exactly the servers and
    /// brokers a naive membership filter selects, in the same order.
    #[test]
    fn subtree_slices_match_membership_filter(
        inter in 1usize..5,
        racks in 1usize..5,
        machines in 2usize..7,
        pick in 0usize..10_000,
    ) {
        let topo = Topology::tree(inter, racks, machines, 1).unwrap();
        let n = topo.machine_count();
        let probe = MachineId::new((pick % n) as u32);
        let mut subtrees = vec![SubtreeId::Root, SubtreeId::Machine(probe.index())];
        for r in 0..topo.rack_count() as u32 {
            subtrees.push(SubtreeId::Rack(r));
        }
        for i in 0..topo.intermediate_count() as u32 {
            subtrees.push(SubtreeId::Intermediate(i));
        }
        for subtree in subtrees {
            let servers: Vec<_> = topo
                .servers()
                .iter()
                .copied()
                .filter(|s| topo.subtree_contains(subtree, s.machine()))
                .collect();
            prop_assert_eq!(
                topo.servers_in_subtree_slice(subtree),
                &servers[..],
                "servers under {}", subtree
            );
            let brokers: Vec<_> = topo
                .brokers()
                .iter()
                .copied()
                .filter(|b| topo.subtree_contains(subtree, b.machine()))
                .collect();
            prop_assert_eq!(
                topo.brokers_in_subtree_slice(subtree),
                &brokers[..],
                "brokers under {}", subtree
            );
        }
    }

    /// `record_path_timed` charges exactly the switches `path_switches` lists, and
    /// the origin distance matches a switch count derived from the naive
    /// walk.
    #[test]
    fn record_path_matches_path_switches(
        inter in 1usize..5,
        racks in 1usize..5,
        machines in 2usize..7,
        a_pick in 0usize..10_000,
        b_pick in 0usize..10_000,
    ) {
        use dynasore_topology::TrafficAccount;
        use dynasore_types::{MessageClass, NetworkModel, SimTime};

        let topo = Topology::tree(inter, racks, machines, 1).unwrap();
        let n = topo.machine_count();
        let a = MachineId::new((a_pick % n) as u32);
        let b = MachineId::new((b_pick % n) as u32);

        let mut by_path = TrafficAccount::new(NetworkModel::infinite());
        by_path.record(
            &topo.path_switches(a, b),
            MessageClass::Application,
            SimTime::ZERO,
        );
        let mut by_record = TrafficAccount::new(NetworkModel::infinite());
        topo.record_path_timed(a, b, MessageClass::Application, SimTime::ZERO, &mut by_record);
        prop_assert_eq!(&by_path, &by_record);
        prop_assert_eq!(
            topo.path_switches(a, b).len() as u32,
            topo.distance(a, b)
        );
    }
}

/// The flat topology routes everything through the single switch and
/// reports machine-granular origins.
#[test]
fn flat_topology_tables() {
    let topo = Topology::flat(12).unwrap();
    assert_eq!(topo.kind(), TopologyKind::Flat);
    for i in 0..12u32 {
        let m = MachineId::new(i);
        assert_eq!(topo.rack_of(m).unwrap().index(), 0);
        assert_eq!(topo.local_broker(m).unwrap().machine(), m);
        assert_eq!(
            topo.access_origin(MachineId::new(0), m),
            SubtreeId::Machine(i)
        );
    }
    assert_eq!(topo.servers_in_subtree_slice(SubtreeId::Root).len(), 12);
    assert_eq!(topo.servers_in_subtree_slice(SubtreeId::Rack(0)).len(), 12);
    assert!(topo
        .servers_in_subtree_slice(SubtreeId::Intermediate(0))
        .is_empty());
}
