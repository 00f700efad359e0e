//! Public multilevel k-way partitioner.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dynasore_graph::SocialGraph;
use dynasore_types::{Error, Result, UserId};

use crate::multilevel::{coarsen, initial_partition, project, refine, WeightedGraph};

/// Default allowed imbalance (5%), the same default METIS uses.
pub const DEFAULT_IMBALANCE: f64 = 0.05;

/// A multilevel k-way graph partitioner in the style of METIS.
///
/// See the [crate documentation](crate) for the role partitioning plays in
/// the paper. The partitioner is deterministic for a given seed.
///
/// # Example
///
/// ```
/// use dynasore_graph::{GraphPreset, SocialGraph};
/// use dynasore_partition::Partitioner;
///
/// let g = SocialGraph::generate(GraphPreset::TwitterLike, 400, 1).unwrap();
/// let p = Partitioner::new(4).imbalance(0.1).seed(9).partition(&g).unwrap();
/// assert_eq!(p.part_count(), 4);
/// assert_eq!(p.assignment().len(), 400);
/// ```
#[derive(Debug, Clone)]
pub struct Partitioner {
    parts: usize,
    imbalance: f64,
    seed: u64,
}

impl Partitioner {
    /// Creates a partitioner producing `parts` balanced parts.
    pub fn new(parts: usize) -> Self {
        Partitioner {
            parts,
            imbalance: DEFAULT_IMBALANCE,
            seed: 0,
        }
    }

    /// Sets the allowed imbalance: the heaviest part may weigh at most
    /// `(1 + imbalance) × total / parts`.
    pub fn imbalance(mut self, imbalance: f64) -> Self {
        self.imbalance = imbalance;
        self
    }

    /// Sets the random seed controlling matching and tie-breaking.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Partitions the social graph.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `parts` is zero, the graph is
    /// empty, there are fewer users than parts, or the imbalance is
    /// negative.
    pub fn partition(&self, graph: &SocialGraph) -> Result<Partitioning> {
        if self.parts == 0 {
            return Err(Error::invalid_config("parts must be positive"));
        }
        if graph.user_count() == 0 {
            return Err(Error::invalid_config("cannot partition an empty graph"));
        }
        if graph.user_count() < self.parts {
            return Err(Error::invalid_config(format!(
                "cannot split {} users into {} parts",
                graph.user_count(),
                self.parts
            )));
        }
        if self.imbalance < 0.0 {
            return Err(Error::invalid_config("imbalance must be non-negative"));
        }

        let working = WeightedGraph::from_social(graph);
        let assignment = self.partition_weighted(&working);
        Ok(Partitioning {
            assignment,
            parts: self.parts,
        })
    }

    /// Multilevel partition of an already-built working graph. Also used by
    /// the hierarchical partitioner on induced subgraphs.
    pub(crate) fn partition_weighted(&self, working: &WeightedGraph) -> Vec<u32> {
        /// Coarsening stops once the graph has at most this many vertices
        /// per part, or `MIN_COARSE_VERTICES`, whichever is more.
        const COARSEN_VERTICES_PER_PART: usize = 20;
        const MIN_COARSE_VERTICES: usize = 200;
        /// Boundary-refinement sweeps per level.
        const REFINEMENT_PASSES: usize = 3;

        let mut rng = StdRng::seed_from_u64(self.seed);
        let total = working.total_weight();
        let max_part_weight = (((total as f64) / self.parts as f64) * (1.0 + self.imbalance))
            .ceil()
            .max(1.0) as u64;
        let coarsen_until = (COARSEN_VERTICES_PER_PART * self.parts).max(MIN_COARSE_VERTICES);

        // Coarsening phase.
        let mut levels: Vec<(WeightedGraph, Vec<u32>)> = Vec::new(); // (fine graph, fine_to_coarse)
        let mut current = working.clone();
        while current.vertex_count() > coarsen_until {
            let c = coarsen(&current, &mut rng);
            // Stop if coarsening stalls (graph too dense to shrink further).
            if c.coarse.vertex_count() as f64 > 0.95 * current.vertex_count() as f64 {
                break;
            }
            levels.push((current, c.fine_to_coarse));
            current = c.coarse;
        }

        // Initial partition on the coarsest graph.
        let mut assignment = initial_partition(&current, self.parts, max_part_weight, &mut rng);
        refine(
            &current,
            &mut assignment,
            self.parts,
            max_part_weight,
            REFINEMENT_PASSES,
            &mut rng,
        );

        // Uncoarsening with refinement.
        while let Some((fine, fine_to_coarse)) = levels.pop() {
            assignment = project(&fine_to_coarse, &assignment);
            refine(
                &fine,
                &mut assignment,
                self.parts,
                max_part_weight,
                REFINEMENT_PASSES,
                &mut rng,
            );
        }
        assignment
    }
}

/// The result of partitioning: a dense map from user to part.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    assignment: Vec<u32>,
    parts: usize,
}

impl Partitioning {
    /// Builds a partitioning from a raw assignment vector.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any entry is `>= parts`.
    pub fn from_assignment(assignment: Vec<u32>, parts: usize) -> Result<Self> {
        if let Some(&bad) = assignment.iter().find(|&&p| p as usize >= parts) {
            return Err(Error::invalid_config(format!(
                "assignment references part {bad} but only {parts} parts exist"
            )));
        }
        Ok(Partitioning { assignment, parts })
    }

    /// Number of parts.
    pub fn part_count(&self) -> usize {
        self.parts
    }

    /// Number of users assigned.
    pub fn user_count(&self) -> usize {
        self.assignment.len()
    }

    /// The part a user belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn part_of(&self, user: UserId) -> usize {
        self.assignment[user.as_usize()] as usize
    }

    /// The raw assignment vector (`assignment[user_index] = part`).
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Number of users in each part.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.parts];
        for &p in &self.assignment {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// The size of the largest part.
    pub fn max_part_size(&self) -> usize {
        self.part_sizes().into_iter().max().unwrap_or(0)
    }

    /// Ratio of the largest part to the ideal size (1.0 = perfectly
    /// balanced).
    pub fn balance(&self) -> f64 {
        if self.assignment.is_empty() || self.parts == 0 {
            return 1.0;
        }
        let ideal = self.assignment.len() as f64 / self.parts as f64;
        self.max_part_size() as f64 / ideal
    }

    /// Number of directed edges of `graph` whose endpoints lie in different
    /// parts — the quantity partitioning minimises.
    pub fn edge_cut(&self, graph: &SocialGraph) -> usize {
        graph
            .edges()
            .filter(|&(u, v)| self.part_of(u) != self.part_of(v))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_graph::GraphPreset;

    fn ring_of_cliques(cliques: usize, size: usize) -> SocialGraph {
        let mut g = SocialGraph::new(cliques * size);
        for c in 0..cliques {
            let base = (c * size) as u32;
            for i in 0..size as u32 {
                for j in 0..size as u32 {
                    if i != j {
                        g.add_edge(UserId::new(base + i), UserId::new(base + j));
                    }
                }
            }
            // one bridge to the next clique
            let next = (((c + 1) % cliques) * size) as u32;
            g.add_edge(UserId::new(base), UserId::new(next));
        }
        g
    }

    #[test]
    fn rejects_invalid_inputs() {
        let g = ring_of_cliques(2, 3);
        assert!(Partitioner::new(0).partition(&g).is_err());
        assert!(Partitioner::new(10).partition(&g).is_err());
        assert!(Partitioner::new(2).imbalance(-0.5).partition(&g).is_err());
        assert!(Partitioner::new(1).partition(&SocialGraph::new(0)).is_err());
    }

    #[test]
    fn partitions_are_deterministic_per_seed() {
        let g = ring_of_cliques(4, 5);
        let a = Partitioner::new(4).seed(1).partition(&g).unwrap();
        let b = Partitioner::new(4).seed(1).partition(&g).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn clique_ring_is_cut_at_bridges() {
        let g = ring_of_cliques(4, 6);
        let p = Partitioner::new(4).seed(7).partition(&g).unwrap();
        // Ideal cut: 4 bridge edges. Allow some slack but require far better
        // than a random split (expected cut ~ 3/4 of 124 edges ≈ 93).
        let cut = p.edge_cut(&g);
        assert!(cut <= 20, "edge cut too high: {cut}");
        assert!(p.balance() <= 1.34, "imbalance too high: {}", p.balance());
    }

    #[test]
    fn partitioning_beats_random_assignment_on_social_graphs() {
        let g = SocialGraph::generate(GraphPreset::FacebookLike, 800, 5).unwrap();
        let p = Partitioner::new(8).seed(5).partition(&g).unwrap();
        // Random assignment cuts ~ (1 - 1/8) of edges.
        let random_cut = (g.edge_count() as f64 * (1.0 - 1.0 / 8.0)) as usize;
        let cut = p.edge_cut(&g);
        assert!(
            (cut as f64) < 0.8 * random_cut as f64,
            "cut {cut} not better than random {random_cut}"
        );
    }

    #[test]
    fn balance_holds_on_generated_graphs() {
        let g = SocialGraph::generate(GraphPreset::TwitterLike, 600, 2).unwrap();
        let p = Partitioner::new(6)
            .imbalance(0.05)
            .seed(3)
            .partition(&g)
            .unwrap();
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 600);
        assert!(p.balance() <= 1.12, "balance {}", p.balance());
        assert_eq!(p.part_count(), 6);
    }

    #[test]
    fn single_part_puts_everything_together() {
        let g = ring_of_cliques(2, 4);
        let p = Partitioner::new(1).partition(&g).unwrap();
        assert_eq!(p.part_sizes(), vec![8]);
        assert_eq!(p.edge_cut(&g), 0);
        assert!((p.balance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn from_assignment_validates_parts() {
        assert!(Partitioning::from_assignment(vec![0, 1, 2], 3).is_ok());
        assert!(Partitioning::from_assignment(vec![0, 3], 3).is_err());
    }
}
