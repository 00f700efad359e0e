//! Property test: the routing policy that runs — the engine's
//! `closest_replica`, the replica `handle_read` reads — must agree with a
//! naive reference that recomputes switch distances from the numbering rules
//! of the layout, on random trees and flat layouts whose views were spread
//! over several replicas by seeded reads.

use dynasore_core::{DynaSoReEngine, InitialPlacement};
use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_topology::Topology;
use dynasore_types::{MachineId, MemoryBudget, Message, PlacementEngine, SimTime, UserId};
use proptest::prelude::*;

const USERS: usize = 200;

/// Naive switch distance: derived from the dense rack-by-rack machine
/// numbering, independent of the `Topology` tables. A flat layout has one
/// switch between any two machines.
fn naive_distance(tree: Option<(u32, u32)>, a: u32, b: u32) -> u32 {
    let Some((machines_per_rack, racks_per_intermediate)) = tree else {
        return u32::from(a != b);
    };
    let (ra, rb) = (a / machines_per_rack, b / machines_per_rack);
    if a == b {
        0
    } else if ra == rb {
        1
    } else if ra / racks_per_intermediate == rb / racks_per_intermediate {
        3
    } else {
        5
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn closest_replica_matches_naive_reference(
        flat in proptest::bool::ANY,
        inter in 1usize..4,
        racks in 1usize..4,
        machines in 2usize..6,
        seed in 0u64..1_000,
        broker_picks in proptest::collection::vec(0usize..10_000, 6..7),
    ) {
        let (topology, tree) = if flat {
            (Topology::flat(inter * racks * machines).unwrap(), None)
        } else {
            let tree = Topology::tree(inter, racks, machines, 1).unwrap();
            (tree, Some((machines as u32, racks as u32)))
        };
        let graph = SocialGraph::generate(GraphPreset::FacebookLike, USERS, seed).unwrap();
        let mut engine = DynaSoReEngine::builder()
            .topology(topology.clone())
            .budget(MemoryBudget::with_extra_percent(USERS, 100))
            .initial_placement(InitialPlacement::Random { seed })
            .build(&graph)
            .unwrap();
        let mut out: Vec<Message> = Vec::new();
        for step in 0..600u32 {
            let user = UserId::new((step.wrapping_mul(7_919) + seed as u32) % USERS as u32);
            let time = SimTime::from_secs(u64::from(step) * 30);
            engine.handle_read(user, graph.followees(user), time, &mut out);
            out.clear();
        }
        prop_assert!(graph.users().any(|user| engine.replica_count(user) > 1));

        let brokers = topology.brokers();
        for user in graph.users() {
            let replicas = engine.replica_servers(user);
            for pick in &broker_picks {
                let broker = brokers[pick % brokers.len()].machine();
                let expected = replicas.iter().copied().min_by_key(|&server| {
                    (naive_distance(tree, broker.index(), server.index()), server.index())
                });
                let got: Option<MachineId> = engine.closest_replica(user, broker);
                prop_assert_eq!(got, expected, "{} read from {}", user, broker);
            }
        }
    }
}
