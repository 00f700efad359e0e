//! Computation of the initial view placement (§4.4), shared with the static
//! baseline engines.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use dynasore_graph::SocialGraph;
use dynasore_partition::{hierarchical, Partitioner, TreeShape};
use dynasore_topology::{Topology, TopologyKind};
use dynasore_types::{Error, Result};

use crate::config::InitialPlacement;

/// Computes `assignment[user_index] = dense server index` for the requested
/// initial placement.
///
/// This is also used by the static baselines (Random, METIS, hMETIS), which
/// keep the initial assignment for the whole experiment.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] if the graph is empty or the
/// partitioner cannot split the graph (fewer users than servers).
pub fn initial_assignment(
    placement: &InitialPlacement,
    graph: &SocialGraph,
    topology: &Topology,
) -> Result<Vec<u32>> {
    let users = graph.user_count();
    let servers = topology.server_count();
    if users == 0 {
        return Err(Error::invalid_config(
            "cannot place views for an empty graph",
        ));
    }
    if servers == 0 {
        return Err(Error::invalid_config("topology has no view servers"));
    }

    match placement {
        InitialPlacement::Random { seed } => {
            // Shuffle users and deal them round-robin over a shuffled server
            // order, which yields a balanced random assignment.
            let mut rng = StdRng::seed_from_u64(*seed);
            let mut user_order: Vec<u32> = (0..users as u32).collect();
            user_order.shuffle(&mut rng);
            let mut server_order: Vec<u32> = (0..servers as u32).collect();
            server_order.shuffle(&mut rng);
            let mut assignment = vec![0u32; users];
            for (i, &u) in user_order.iter().enumerate() {
                assignment[u as usize] = server_order[i % servers];
            }
            Ok(assignment)
        }
        InitialPlacement::Metis { seed } => {
            let partitioning = Partitioner::new(servers).seed(*seed).partition(graph)?;
            // "We rely on the METIS library to generate partitions, and
            // randomly assign each of them to a server" (§4.1).
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x5eed));
            let mut part_to_server: Vec<u32> = (0..servers as u32).collect();
            part_to_server.shuffle(&mut rng);
            Ok(partitioning
                .assignment()
                .iter()
                .map(|&p| part_to_server[p as usize])
                .collect())
        }
        InitialPlacement::HierarchicalMetis { seed } => match topology.kind() {
            TopologyKind::Flat => {
                // A flat cluster has no hierarchy: hierarchical partitioning
                // degenerates to the flat METIS placement.
                initial_assignment(&InitialPlacement::Metis { seed: *seed }, graph, topology)
            }
            TopologyKind::Tree => {
                let servers_per_rack = servers / topology.rack_count();
                let shape = TreeShape::new(vec![
                    topology.intermediate_count(),
                    topology.racks_per_intermediate(),
                    servers_per_rack,
                ])?;
                let hier = hierarchical(graph, &shape, 0.05, *seed)?;
                let leaves = hier.leaves()?;
                // Leaf index i encodes (intermediate, rack, server-in-rack)
                // in exactly the order `Topology::servers()` lists servers.
                Ok(leaves.assignment().to_vec())
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_graph::GraphPreset;

    fn setup() -> (SocialGraph, Topology) {
        let graph = SocialGraph::generate(GraphPreset::FacebookLike, 600, 1).unwrap();
        let topology = Topology::tree(2, 2, 4, 1).unwrap(); // 12 servers
        (graph, topology)
    }

    #[test]
    fn random_assignment_is_balanced_and_deterministic() {
        let (graph, topology) = setup();
        let a =
            initial_assignment(&InitialPlacement::Random { seed: 3 }, &graph, &topology).unwrap();
        let b =
            initial_assignment(&InitialPlacement::Random { seed: 3 }, &graph, &topology).unwrap();
        assert_eq!(a, b);
        let mut counts = vec![0usize; topology.server_count()];
        for &s in &a {
            counts[s as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min <= 1, "random placement imbalance: {min}..{max}");
    }

    #[test]
    fn metis_assignment_covers_all_servers_and_cuts_fewer_edges() {
        let (graph, topology) = setup();
        let random =
            initial_assignment(&InitialPlacement::Random { seed: 3 }, &graph, &topology).unwrap();
        let metis =
            initial_assignment(&InitialPlacement::Metis { seed: 3 }, &graph, &topology).unwrap();
        assert_eq!(metis.len(), graph.user_count());
        let cut = |assignment: &[u32]| {
            graph
                .edges()
                .filter(|&(u, v)| assignment[u.as_usize()] != assignment[v.as_usize()])
                .count()
        };
        assert!(cut(&metis) < cut(&random));
    }

    #[test]
    fn hmetis_assignment_respects_the_tree() {
        let (graph, topology) = setup();
        let hmetis = initial_assignment(
            &InitialPlacement::HierarchicalMetis { seed: 5 },
            &graph,
            &topology,
        )
        .unwrap();
        let metis =
            initial_assignment(&InitialPlacement::Metis { seed: 5 }, &graph, &topology).unwrap();
        // Count edges separated by the *top switch* (different intermediate
        // sub-trees): hierarchical partitioning should do at least as well.
        let servers = topology.servers().to_vec();
        let inter_of = |srv: u32| {
            topology
                .intermediate_of(servers[srv as usize].machine())
                .unwrap()
        };
        let top_cut = |assignment: &[u32]| {
            graph
                .edges()
                .filter(|&(u, v)| {
                    inter_of(assignment[u.as_usize()]) != inter_of(assignment[v.as_usize()])
                })
                .count()
        };
        assert!(top_cut(&hmetis) <= top_cut(&metis));
    }

    #[test]
    fn hmetis_on_flat_topology_falls_back_to_metis() {
        let graph = SocialGraph::generate(GraphPreset::TwitterLike, 300, 2).unwrap();
        let flat = Topology::flat(10).unwrap();
        let a = initial_assignment(
            &InitialPlacement::HierarchicalMetis { seed: 2 },
            &graph,
            &flat,
        )
        .unwrap();
        let b = initial_assignment(&InitialPlacement::Metis { seed: 2 }, &graph, &flat).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph_is_rejected() {
        let topology = Topology::tree(2, 2, 4, 1).unwrap();
        let empty = SocialGraph::new(0);
        assert!(
            initial_assignment(&InitialPlacement::Random { seed: 1 }, &empty, &topology).is_err()
        );
    }
}
