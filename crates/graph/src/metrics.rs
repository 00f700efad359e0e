//! Structural metrics over social graphs.
//!
//! These are used to sanity-check the synthetic generators against the
//! published dataset characteristics (Table 1) and by the workload
//! generators, which scale each user's activity with the logarithm of her
//! degree (§4.2, citing Huberman et al.).

use crate::graph::SocialGraph;

/// Summary statistics of a graph's degree distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Number of users.
    pub user_count: usize,
    /// Number of directed edges.
    pub edge_count: usize,
    /// Mean out-degree (views fetched per read).
    pub mean_out_degree: f64,
    /// Mean in-degree (readers per view).
    pub mean_in_degree: f64,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Number of users with no followees.
    pub isolated_readers: usize,
    /// Number of users with no followers.
    pub unread_producers: usize,
}

/// Computes [`DegreeStats`] for a graph.
pub fn degree_stats(graph: &SocialGraph) -> DegreeStats {
    let n = graph.user_count();
    let mut max_out = 0usize;
    let mut max_in = 0usize;
    let mut isolated_readers = 0usize;
    let mut unread_producers = 0usize;
    for u in graph.users() {
        let od = graph.out_degree(u);
        let id = graph.in_degree(u);
        max_out = max_out.max(od);
        max_in = max_in.max(id);
        if od == 0 {
            isolated_readers += 1;
        }
        if id == 0 {
            unread_producers += 1;
        }
    }
    let e = graph.edge_count() as f64;
    DegreeStats {
        user_count: n,
        edge_count: graph.edge_count(),
        mean_out_degree: if n == 0 { 0.0 } else { e / n as f64 },
        mean_in_degree: if n == 0 { 0.0 } else { e / n as f64 },
        max_out_degree: max_out,
        max_in_degree: max_in,
        isolated_readers,
        unread_producers,
    }
}

/// Fraction of directed edges `u → v` for which the reverse edge `v → u`
/// also exists. 1.0 for an undirected (friendship) graph, lower for
/// follower-style graphs.
pub fn reciprocity(graph: &SocialGraph) -> f64 {
    if graph.edge_count() == 0 {
        return 0.0;
    }
    let mut reciprocated = 0usize;
    for (u, v) in graph.edges() {
        if graph.contains_edge(v, u) {
            reciprocated += 1;
        }
    }
    reciprocated as f64 / graph.edge_count() as f64
}

/// The per-user activity weight used by the synthetic workload generator:
/// `ln(1 + degree)`, following Huberman et al. as adopted in §4.2.
pub fn log_activity_weight(degree: usize) -> f64 {
    (1.0 + degree as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_types::UserId;

    fn u(i: u32) -> UserId {
        UserId::new(i)
    }

    fn triangle() -> SocialGraph {
        let mut g = SocialGraph::new(3);
        g.add_edge(u(0), u(1));
        g.add_edge(u(1), u(2));
        g.add_edge(u(0), u(2));
        g
    }

    #[test]
    fn degree_stats_on_small_graph() {
        let g = triangle();
        let s = degree_stats(&g);
        assert_eq!(s.user_count, 3);
        assert_eq!(s.edge_count, 3);
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.max_in_degree, 2);
        assert_eq!(s.isolated_readers, 1); // user 2 follows nobody
        assert_eq!(s.unread_producers, 1); // user 0 has no followers
        assert!((s.mean_out_degree - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degree_stats_on_empty_graph() {
        let g = SocialGraph::new(0);
        let s = degree_stats(&g);
        assert_eq!(s.user_count, 0);
        assert_eq!(s.mean_out_degree, 0.0);
    }

    #[test]
    fn reciprocity_bounds() {
        let g = triangle();
        assert_eq!(reciprocity(&g), 0.0);
        let mut g2 = triangle();
        g2.add_edge(u(1), u(0));
        g2.add_edge(u(2), u(1));
        g2.add_edge(u(2), u(0));
        assert!((reciprocity(&g2) - 1.0).abs() < 1e-9);
        assert_eq!(reciprocity(&SocialGraph::new(4)), 0.0);
    }

    #[test]
    fn log_activity_weight_is_monotone() {
        assert!(log_activity_weight(0) >= 0.0);
        assert!(log_activity_weight(10) > log_activity_weight(2));
        assert!(log_activity_weight(1000) > log_activity_weight(100));
    }
}
