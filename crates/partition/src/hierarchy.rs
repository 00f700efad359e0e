//! Hierarchical partitioning (the paper's *hMETIS* baseline).
//!
//! Standard partitioning assigns users directly to servers and ignores the
//! data-centre tree. The hierarchical variant "first generate\[s\] one
//! partition for each intermediate switch, and then recursively
//! re-partition\[s\] them to assign views to rack switches and then servers"
//! (§4.1), so that friends who end up on different servers still tend to
//! share a rack or an intermediate switch.

use dynasore_graph::SocialGraph;
use dynasore_types::{Error, Result};

use crate::multilevel::WeightedGraph;
use crate::partitioner::{Partitioner, Partitioning};

/// The shape of the cluster tree used to drive hierarchical partitioning:
/// how many children each level has.
///
/// For the paper's evaluation cluster (5 intermediate switches × 5 racks ×
/// 9 servers) the shape is `[5, 5, 9]`, producing `5 × 5 × 9 = 225` leaf
/// parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeShape {
    fanouts: Vec<usize>,
}

impl TreeShape {
    /// Creates a tree shape from per-level fan-outs, root first.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the shape is empty or any fan-out
    /// is zero.
    pub fn new(fanouts: Vec<usize>) -> Result<Self> {
        if fanouts.is_empty() {
            return Err(Error::invalid_config(
                "tree shape must have at least one level",
            ));
        }
        if fanouts.contains(&0) {
            return Err(Error::invalid_config("tree fan-outs must be positive"));
        }
        Ok(TreeShape { fanouts })
    }

    /// Per-level fan-outs, root first.
    pub fn fanouts(&self) -> &[usize] {
        &self.fanouts
    }

    /// Total number of leaves (`product of fan-outs`).
    pub fn leaf_count(&self) -> usize {
        self.fanouts.iter().product()
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.fanouts.len()
    }
}

/// A hierarchical partitioning: the leaf-level [`Partitioning`] plus the
/// assignment at every intermediate level.
#[derive(Debug, Clone)]
pub struct HierarchicalPartitioning {
    shape: TreeShape,
    /// `levels[l][user] = index of the level-`l` group the user belongs to`.
    /// Level 0 groups users per intermediate switch; the last level is the
    /// leaf (server) assignment.
    levels: Vec<Vec<u32>>,
}

impl HierarchicalPartitioning {
    /// The tree shape that was partitioned against.
    pub fn shape(&self) -> &TreeShape {
        &self.shape
    }

    /// The leaf-level partitioning (user → server slot index).
    pub fn leaves(&self) -> Result<Partitioning> {
        let leaf = self
            .levels
            .last()
            .expect("hierarchical partitioning always has at least one level")
            .clone();
        Partitioning::from_assignment(leaf, self.shape.leaf_count())
    }

    /// Edge cut at a given level: number of directed edges whose endpoints
    /// fall under different level-`level` groups. Lower levels (closer to
    /// the leaves) always cut at least as much as higher levels.
    pub fn edge_cut_at_level(&self, graph: &SocialGraph, level: usize) -> usize {
        let assignment = &self.levels[level];
        graph
            .edges()
            .filter(|&(u, v)| assignment[u.as_usize()] != assignment[v.as_usize()])
            .count()
    }
}

/// Recursively partitions `graph` following `shape`.
///
/// The returned leaf index encodes the path from the root: for shape
/// `[a, b, c]`, leaf = `(i_intermediate * b + i_rack) * c + i_server`, which
/// is exactly the order in which the topology crate numbers servers.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] if the graph has fewer users than leaves
/// or the shape is degenerate.
pub fn hierarchical(
    graph: &SocialGraph,
    shape: &TreeShape,
    imbalance: f64,
    seed: u64,
) -> Result<HierarchicalPartitioning> {
    if graph.user_count() < shape.leaf_count() {
        return Err(Error::invalid_config(format!(
            "cannot split {} users into {} leaves",
            graph.user_count(),
            shape.leaf_count()
        )));
    }

    let working = WeightedGraph::from_social(graph);
    let n = graph.user_count();

    // groups[user] = group id at the current level; starts with everyone in
    // group 0 (the root).
    let mut groups: Vec<u32> = vec![0; n];
    let mut group_count = 1usize;
    let mut levels: Vec<Vec<u32>> = Vec::with_capacity(shape.depth());

    for (level, &fanout) in shape.fanouts().iter().enumerate() {
        let mut next_groups = vec![0u32; n];
        // Partition each current group independently into `fanout` children.
        for g in 0..group_count {
            let members: Vec<u32> = (0..n as u32)
                .filter(|&u| groups[u as usize] == g as u32)
                .collect();
            if members.is_empty() {
                continue;
            }
            let child_assignment = if fanout == 1 {
                vec![0u32; members.len()]
            } else if members.len() <= fanout {
                // Degenerate: one member per child (round-robin).
                (0..members.len() as u32)
                    .map(|i| i % fanout as u32)
                    .collect()
            } else {
                let sub = induced_subgraph(&working, &members);
                let partitioner = Partitioner::new(fanout).imbalance(imbalance).seed(
                    seed.wrapping_add((level as u64) << 32)
                        .wrapping_add(g as u64),
                );
                partitioner.partition_weighted(&sub)
            };
            for (local, &user) in members.iter().enumerate() {
                next_groups[user as usize] =
                    groups[user as usize] * fanout as u32 + child_assignment[local];
            }
        }
        groups = next_groups;
        group_count *= fanout;
        levels.push(groups.clone());
    }

    Ok(HierarchicalPartitioning {
        shape: shape.clone(),
        levels,
    })
}

/// Extracts the subgraph induced by `members` (global vertex ids), relabelled
/// to local ids `0..members.len()`.
fn induced_subgraph(graph: &WeightedGraph, members: &[u32]) -> WeightedGraph {
    let mut global_to_local: std::collections::HashMap<u32, u32> =
        std::collections::HashMap::with_capacity(members.len());
    for (local, &g) in members.iter().enumerate() {
        global_to_local.insert(g, local as u32);
    }
    let mut vertex_weight = Vec::with_capacity(members.len());
    let mut adj = Vec::with_capacity(members.len());
    for &g in members {
        vertex_weight.push(graph.vertex_weight[g as usize]);
        let mut local_adj: Vec<(u32, u64)> = graph.adj[g as usize]
            .iter()
            .filter_map(|&(w, ew)| global_to_local.get(&w).map(|&lw| (lw, ew)))
            .collect();
        local_adj.sort_unstable();
        adj.push(local_adj);
    }
    WeightedGraph { vertex_weight, adj }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_graph::GraphPreset;

    #[test]
    fn tree_shape_validation() {
        assert!(TreeShape::new(vec![]).is_err());
        assert!(TreeShape::new(vec![2, 0]).is_err());
        let s = TreeShape::new(vec![5, 5, 9]).unwrap();
        assert_eq!(s.leaf_count(), 225);
        assert_eq!(s.depth(), 3);
        assert_eq!(s.fanouts(), &[5, 5, 9]);
    }

    #[test]
    fn hierarchical_rejects_too_small_graphs() {
        let g = SocialGraph::new(10);
        let shape = TreeShape::new(vec![4, 4]).unwrap();
        assert!(hierarchical(&g, &shape, 0.05, 1).is_err());
    }

    #[test]
    fn leaf_assignment_covers_all_leaves_reasonably() {
        let g = SocialGraph::generate(GraphPreset::FacebookLike, 1_000, 3).unwrap();
        let shape = TreeShape::new(vec![2, 2, 3]).unwrap();
        let h = hierarchical(&g, &shape, 0.05, 3).unwrap();
        let leaves = h.leaves().unwrap();
        assert_eq!(leaves.part_count(), 12);
        let sizes = leaves.part_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 1_000);
        // Every leaf receives a reasonable share (within 2x of ideal).
        let ideal = 1_000 / 12;
        for (leaf, &size) in sizes.iter().enumerate() {
            assert!(size > ideal / 3, "leaf {leaf} too small: {size}");
            assert!(size < ideal * 2, "leaf {leaf} too large: {size}");
        }
    }

    #[test]
    fn leaf_index_encodes_the_path() {
        let g = SocialGraph::generate(GraphPreset::TwitterLike, 600, 9).unwrap();
        let shape = TreeShape::new(vec![3, 2, 2]).unwrap();
        let h = hierarchical(&g, &shape, 0.1, 5).unwrap();
        let leaves = h.leaves().unwrap();
        for u in g.users() {
            let [top, mid, leaf] = [0, 1, 2].map(|level| h.levels[level][u.as_usize()] as usize);
            assert_eq!(mid / 2, top, "rack group must refine the switch group");
            assert_eq!(leaf / 2, mid, "server group must refine the rack group");
            assert_eq!(leaves.part_of(u), leaf);
        }
    }

    #[test]
    fn upper_levels_cut_fewer_edges_than_leaves() {
        let g = SocialGraph::generate(GraphPreset::FacebookLike, 800, 13).unwrap();
        let shape = TreeShape::new(vec![3, 3, 3]).unwrap();
        let h = hierarchical(&g, &shape, 0.05, 13).unwrap();
        let top_cut = h.edge_cut_at_level(&g, 0);
        let rack_cut = h.edge_cut_at_level(&g, 1);
        let leaf_cut = h.edge_cut_at_level(&g, 2);
        assert!(top_cut <= rack_cut);
        assert!(rack_cut <= leaf_cut);
        // Hierarchical partitioning keeps most edges below the top switch.
        assert!(
            (top_cut as f64) < 0.8 * g.edge_count() as f64,
            "top cut {top_cut} of {} edges",
            g.edge_count()
        );
    }

    #[test]
    fn hierarchical_beats_flat_partitioning_at_the_top_level() {
        // This is the property the hMETIS baseline relies on (§4.4): when the
        // cluster hierarchy is taken into account, fewer friend pairs are
        // separated by the top switch than with a direct flat partition.
        let g = SocialGraph::generate(GraphPreset::FacebookLike, 900, 21).unwrap();
        let shape = TreeShape::new(vec![3, 3]).unwrap();
        let h = hierarchical(&g, &shape, 0.05, 21).unwrap();

        let flat = Partitioner::new(9).seed(21).partition(&g).unwrap();
        // Group the flat parts arbitrarily into 3 "switches" of 3 parts each.
        let flat_top_cut = g
            .edges()
            .filter(|&(u, v)| flat.part_of(u) / 3 != flat.part_of(v) / 3)
            .count();
        let hier_top_cut = h.edge_cut_at_level(&g, 0);
        assert!(
            hier_top_cut <= flat_top_cut,
            "hierarchical top cut {hier_top_cut} vs flat grouped cut {flat_top_cut}"
        );
    }
}
