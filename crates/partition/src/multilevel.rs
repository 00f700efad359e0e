//! Internal multilevel machinery: weighted undirected graphs, heavy-edge
//! matching coarsening, greedy initial partitioning and boundary
//! Kernighan–Lin refinement.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use dynasore_graph::SocialGraph;

/// An undirected weighted graph in adjacency-list form, the working
/// representation of the multilevel partitioner.
#[derive(Debug, Clone)]
pub(crate) struct WeightedGraph {
    /// Vertex weights (number of original users collapsed into the vertex).
    pub vertex_weight: Vec<u64>,
    /// `adj[v]` = list of `(neighbour, edge_weight)`, deduplicated.
    pub adj: Vec<Vec<(u32, u64)>>,
}

impl WeightedGraph {
    pub fn vertex_count(&self) -> usize {
        self.vertex_weight.len()
    }

    pub fn total_weight(&self) -> u64 {
        self.vertex_weight.iter().sum()
    }

    /// Builds the undirected working graph from a directed social graph.
    /// Reciprocated links get weight 2, single-direction links weight 1, so
    /// mutual friendships bind users more strongly — matching how METIS is
    /// typically fed symmetrised social graphs.
    pub fn from_social(graph: &SocialGraph) -> Self {
        let n = graph.user_count();
        let mut maps: Vec<HashMap<u32, u64>> = vec![HashMap::new(); n];
        for (u, v) in graph.edges() {
            let (a, b) = (u.index(), v.index());
            *maps[a as usize].entry(b).or_insert(0) += 1;
            *maps[b as usize].entry(a).or_insert(0) += 1;
        }
        let adj = maps
            .into_iter()
            .map(|m| {
                let mut v: Vec<(u32, u64)> = m.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect();
        WeightedGraph {
            vertex_weight: vec![1; n],
            adj,
        }
    }
}

/// Result of one coarsening step.
pub(crate) struct Coarsening {
    pub coarse: WeightedGraph,
    /// `fine_to_coarse[v]` = coarse vertex containing fine vertex `v`.
    pub fine_to_coarse: Vec<u32>,
}

/// One level of heavy-edge matching: visits vertices in random order and
/// matches each unmatched vertex with its unmatched neighbour of maximum
/// edge weight (ties broken by smaller vertex weight to keep the coarse
/// graph balanced).
pub(crate) fn coarsen(graph: &WeightedGraph, rng: &mut StdRng) -> Coarsening {
    let n = graph.vertex_count();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);

    const UNMATCHED: u32 = u32::MAX;
    let mut mate = vec![UNMATCHED; n];
    for &v in &order {
        let v = v as usize;
        if mate[v] != UNMATCHED {
            continue;
        }
        let mut best: Option<(u32, u64, u64)> = None; // (neighbour, edge w, vertex w)
        for &(w, ew) in &graph.adj[v] {
            if mate[w as usize] != UNMATCHED || w as usize == v {
                continue;
            }
            let vw = graph.vertex_weight[w as usize];
            let better = match best {
                None => true,
                Some((_, bew, bvw)) => ew > bew || (ew == bew && vw < bvw),
            };
            if better {
                best = Some((w, ew, vw));
            }
        }
        match best {
            Some((w, _, _)) => {
                mate[v] = w;
                mate[w as usize] = v as u32;
            }
            None => mate[v] = v as u32, // matched with itself
        }
    }

    // Number coarse vertices.
    let mut fine_to_coarse = vec![UNMATCHED; n];
    let mut next = 0u32;
    for v in 0..n {
        if fine_to_coarse[v] != UNMATCHED {
            continue;
        }
        let m = mate[v] as usize;
        fine_to_coarse[v] = next;
        fine_to_coarse[m] = next;
        next += 1;
    }
    let coarse_n = next as usize;

    // Build the coarse graph.
    let mut vertex_weight = vec![0u64; coarse_n];
    for v in 0..n {
        vertex_weight[fine_to_coarse[v] as usize] += graph.vertex_weight[v];
    }
    let mut maps: Vec<HashMap<u32, u64>> = vec![HashMap::new(); coarse_n];
    for v in 0..n {
        let cv = fine_to_coarse[v];
        for &(w, ew) in &graph.adj[v] {
            let cw = fine_to_coarse[w as usize];
            if cv == cw {
                continue;
            }
            *maps[cv as usize].entry(cw).or_insert(0) += ew;
        }
    }
    let adj = maps
        .into_iter()
        .map(|m| {
            let mut v: Vec<(u32, u64)> = m.into_iter().collect();
            v.sort_unstable();
            v
        })
        .collect();

    Coarsening {
        coarse: WeightedGraph { vertex_weight, adj },
        fine_to_coarse,
    }
}

/// Greedy region-growing k-way initial partition of (a small) graph.
///
/// Seeds one random vertex per part, then repeatedly assigns the unassigned
/// vertex with the strongest connection to an under-full part; vertices with
/// no assigned neighbours fall back to the lightest part.
pub(crate) fn initial_partition(
    graph: &WeightedGraph,
    parts: usize,
    max_part_weight: u64,
    rng: &mut StdRng,
) -> Vec<u32> {
    let n = graph.vertex_count();
    let mut assignment = vec![u32::MAX; n];
    let mut part_weight = vec![0u64; parts];
    if n == 0 {
        return assignment;
    }

    // Seed each part with a distinct random vertex (when possible).
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    for (p, &v) in order.iter().take(parts).enumerate() {
        assignment[v as usize] = p as u32;
        part_weight[p] += graph.vertex_weight[v as usize];
    }

    // Assign the rest greedily in random order.
    for &v in order.iter().skip(parts.min(n)) {
        let v = v as usize;
        if assignment[v] != u32::MAX {
            continue;
        }
        // Connectivity of v towards each part.
        let mut conn = vec![0u64; parts];
        for &(w, ew) in &graph.adj[v] {
            let p = assignment[w as usize];
            if p != u32::MAX {
                conn[p as usize] += ew;
            }
        }
        let vw = graph.vertex_weight[v];
        let mut best: Option<usize> = None;
        for p in 0..parts {
            if part_weight[p] + vw > max_part_weight {
                continue;
            }
            let better = match best {
                None => true,
                Some(bp) => {
                    conn[p] > conn[bp] || (conn[p] == conn[bp] && part_weight[p] < part_weight[bp])
                }
            };
            if better {
                best = Some(p);
            }
        }
        // If every part is over the cap (can happen with very skewed coarse
        // vertices), fall back to the lightest part.
        let chosen = best.unwrap_or_else(|| {
            (0..parts)
                .min_by_key(|&p| part_weight[p])
                .expect("at least one part")
        });
        assignment[v] = chosen as u32;
        part_weight[chosen] += vw;
    }
    assignment
}

/// Boundary Kernighan–Lin refinement: repeatedly moves boundary vertices to
/// the neighbouring part with the highest gain, as long as the balance
/// constraint is respected. `passes` full sweeps are performed (2–4 is
/// plenty in practice).
pub(crate) fn refine(
    graph: &WeightedGraph,
    assignment: &mut [u32],
    parts: usize,
    max_part_weight: u64,
    passes: usize,
    rng: &mut StdRng,
) {
    let n = graph.vertex_count();
    let mut part_weight = vec![0u64; parts];
    for v in 0..n {
        part_weight[assignment[v] as usize] += graph.vertex_weight[v];
    }

    let mut order: Vec<u32> = (0..n as u32).collect();
    for _ in 0..passes {
        order.shuffle(rng);
        let mut moved = 0usize;
        for &v in &order {
            let v = v as usize;
            if graph.adj[v].is_empty() {
                continue;
            }
            let from = assignment[v] as usize;
            // Connectivity towards each part present in the neighbourhood.
            // A BTreeMap keeps the iteration order deterministic, which in
            // turn keeps the whole partitioner deterministic per seed.
            let mut conn: std::collections::BTreeMap<usize, u64> =
                std::collections::BTreeMap::new();
            for &(w, ew) in &graph.adj[v] {
                *conn.entry(assignment[w as usize] as usize).or_insert(0) += ew;
            }
            let internal = conn.get(&from).copied().unwrap_or(0);
            let vw = graph.vertex_weight[v];
            let mut best_gain = 0i64;
            let mut best_part = from;
            for (&p, &c) in &conn {
                if p == from {
                    continue;
                }
                if part_weight[p] + vw > max_part_weight {
                    continue;
                }
                let gain = c as i64 - internal as i64;
                if gain > best_gain {
                    best_gain = gain;
                    best_part = p;
                }
            }
            if best_part != from && best_gain > 0 {
                assignment[v] = best_part as u32;
                part_weight[from] -= vw;
                part_weight[best_part] += vw;
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
}

/// Projects a coarse assignment back to the finer graph.
pub(crate) fn project(fine_to_coarse: &[u32], coarse_assignment: &[u32]) -> Vec<u32> {
    fine_to_coarse
        .iter()
        .map(|&cv| coarse_assignment[cv as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_types::UserId;
    use rand::SeedableRng;

    fn u(i: u32) -> UserId {
        UserId::new(i)
    }

    /// Sum of the weights of edges crossing between different parts.
    fn edge_cut(graph: &WeightedGraph, assignment: &[u32]) -> u64 {
        let mut cut = 0u64;
        for (v, neigh) in graph.adj.iter().enumerate() {
            for &(w, weight) in neigh {
                if (w as usize) > v && assignment[v] != assignment[w as usize] {
                    cut += weight;
                }
            }
        }
        cut
    }

    /// Two 4-cliques joined by a single edge.
    fn two_cliques() -> SocialGraph {
        let mut g = SocialGraph::new(8);
        for base in [0u32, 4u32] {
            for i in 0..4 {
                for j in 0..4 {
                    if i != j {
                        g.add_edge(u(base + i), u(base + j));
                    }
                }
            }
        }
        g.add_edge(u(0), u(4));
        g
    }

    #[test]
    fn weighted_graph_from_social_symmetrises() {
        let g = two_cliques();
        let wg = WeightedGraph::from_social(&g);
        assert_eq!(wg.vertex_count(), 8);
        // Within a clique every pair is reciprocated, weight 2.
        let w01 = wg.adj[0].iter().find(|&&(n, _)| n == 1).unwrap().1;
        assert_eq!(w01, 2);
        // The bridge 0-4 is one-directional, weight 1.
        let w04 = wg.adj[0].iter().find(|&&(n, _)| n == 4).unwrap().1;
        assert_eq!(w04, 1);
        assert_eq!(wg.total_weight(), 8);
    }

    #[test]
    fn coarsening_halves_the_graph_roughly() {
        let g = two_cliques();
        let wg = WeightedGraph::from_social(&g);
        let mut rng = StdRng::seed_from_u64(1);
        let c = coarsen(&wg, &mut rng);
        assert!(c.coarse.vertex_count() <= wg.vertex_count());
        assert!(c.coarse.vertex_count() >= wg.vertex_count() / 2);
        // Weight is conserved.
        assert_eq!(c.coarse.total_weight(), wg.total_weight());
        // Every fine vertex maps to a valid coarse vertex.
        for &cv in &c.fine_to_coarse {
            assert!((cv as usize) < c.coarse.vertex_count());
        }
    }

    #[test]
    fn initial_partition_respects_capacity() {
        let g = two_cliques();
        let wg = WeightedGraph::from_social(&g);
        let mut rng = StdRng::seed_from_u64(3);
        let a = initial_partition(&wg, 2, 5, &mut rng);
        let mut sizes = [0u64; 2];
        for (v, &p) in a.iter().enumerate() {
            sizes[p as usize] += wg.vertex_weight[v];
        }
        assert!(sizes[0] <= 5 && sizes[1] <= 5);
        assert_eq!(sizes[0] + sizes[1], 8);
    }

    #[test]
    fn refinement_finds_the_clique_cut() {
        let g = two_cliques();
        let wg = WeightedGraph::from_social(&g);
        let mut rng = StdRng::seed_from_u64(5);
        // Deliberately bad start: interleaved assignment.
        let mut assignment: Vec<u32> = (0..8).map(|v| (v % 2) as u32).collect();
        let before = edge_cut(&wg, &assignment);
        refine(&wg, &mut assignment, 2, 5, 4, &mut rng);
        let after = edge_cut(&wg, &assignment);
        assert!(after < before, "refinement should reduce the cut");
        // The optimal cut separates the two cliques (cut weight 1).
        assert!(after <= 4, "cut after refinement: {after}");
    }

    #[test]
    fn project_maps_through_coarse_assignment() {
        let fine_to_coarse = vec![0u32, 0, 1, 1, 2];
        let coarse_assignment = vec![5u32, 6, 7];
        assert_eq!(
            project(&fine_to_coarse, &coarse_assignment),
            vec![5, 5, 6, 6, 7]
        );
    }
}
