//! The directed social graph.

use std::sync::Arc;

use dynasore_types::{Error, Result, UserId};

/// A directed social graph over densely numbered users.
///
/// The edge `u → v` means *"u follows v"*: a read request from `u` fetches
/// the view of `v` (together with every other user `u` follows), and a write
/// by `v` is eventually read by `u`. Both directions are indexed:
/// [`followees`](SocialGraph::followees) returns the views a user reads,
/// [`followers`](SocialGraph::followers) returns the readers of a user's
/// view.
///
/// The graph is mutable — social networks evolve over time, and both SPAR and
/// the flash-event experiment (§4.6) add and remove edges while the system is
/// running.
///
/// Cloning is `O(1)`: clones share one adjacency. Mutation is copy-on-write:
/// the first edge change to a shared graph copies it once, unseen by clones.
///
/// # Example
///
/// ```
/// use dynasore_graph::SocialGraph;
/// use dynasore_types::UserId;
///
/// let mut g = SocialGraph::new(3);
/// let (a, b, c) = (UserId::new(0), UserId::new(1), UserId::new(2));
/// g.add_edge(a, b);
/// g.add_edge(a, c);
/// g.add_edge(b, c);
/// assert_eq!(g.out_degree(a), 2);
/// assert_eq!(g.in_degree(c), 2);
/// assert_eq!(g.edge_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocialGraph {
    adjacency: Arc<Adjacency>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Adjacency {
    /// `out[u]` = users that `u` follows (sorted, deduplicated).
    out: Vec<Vec<UserId>>,
    /// `inc[v]` = users that follow `v` (sorted, deduplicated).
    inc: Vec<Vec<UserId>>,
    edge_count: usize,
}

impl SocialGraph {
    /// Creates an empty graph over `user_count` users numbered
    /// `0..user_count`.
    pub fn new(user_count: usize) -> Self {
        let lists = vec![Vec::new(); user_count];
        Self::from_lists(lists.clone(), lists, 0)
    }

    fn from_lists(out: Vec<Vec<UserId>>, inc: Vec<Vec<UserId>>, edge_count: usize) -> Self {
        SocialGraph {
            adjacency: Arc::new(Adjacency {
                out,
                inc,
                edge_count,
            }),
        }
    }

    /// Builds a graph from an iterator of `(follower, followee)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownUser`] if any endpoint is outside
    /// `0..user_count`.
    pub fn from_edges<I>(user_count: usize, edges: I) -> Result<Self>
    where
        I: IntoIterator<Item = (UserId, UserId)>,
    {
        let mut graph = SocialGraph::new(user_count);
        for (u, v) in edges {
            graph.try_add_edge(u, v)?;
        }
        graph.shrink_to_fit();
        Ok(graph)
    }

    /// Builds a graph from a vector of `(follower, followee)` pairs in
    /// bulk: one sort + dedup pass instead of a per-edge sorted insert,
    /// which turns multi-million-edge ingestion (public SNAP snapshots)
    /// from quadratic memmove churn into `O(E log E)`. Self-loops and
    /// duplicate edges are tolerated and skipped, exactly as
    /// [`try_add_edge`](SocialGraph::try_add_edge) skips them, so the
    /// result equals [`from_edges`](SocialGraph::from_edges) on the same
    /// input.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownUser`] if any endpoint is outside
    /// `0..user_count`.
    pub fn from_edges_bulk(user_count: usize, mut edges: Vec<(UserId, UserId)>) -> Result<Self> {
        for &(u, v) in &edges {
            if u.as_usize() >= user_count {
                return Err(Error::UnknownUser(u));
            }
            if v.as_usize() >= user_count {
                return Err(Error::UnknownUser(v));
            }
        }
        edges.retain(|&(u, v)| u != v);
        edges.sort_unstable();
        edges.dedup();
        let mut out_degree = vec![0usize; user_count];
        let mut inc_degree = vec![0usize; user_count];
        for &(u, v) in &edges {
            out_degree[u.as_usize()] += 1;
            inc_degree[v.as_usize()] += 1;
        }
        let mut out: Vec<Vec<UserId>> = out_degree.into_iter().map(Vec::with_capacity).collect();
        let mut inc: Vec<Vec<UserId>> = inc_degree.into_iter().map(Vec::with_capacity).collect();
        for &(u, v) in &edges {
            // Sorted by (follower, followee): every out and inc list fills
            // in ascending order.
            out[u.as_usize()].push(v);
            inc[v.as_usize()].push(u);
        }
        Ok(Self::from_lists(out, inc, edges.len()))
    }

    /// Drops every list's spare capacity; builders call it before returning.
    pub(crate) fn shrink_to_fit(&mut self) {
        let adjacency = Arc::make_mut(&mut self.adjacency);
        for list in adjacency.out.iter_mut().chain(&mut adjacency.inc) {
            list.shrink_to_fit();
        }
    }

    /// Number of users in the graph.
    pub fn user_count(&self) -> usize {
        self.adjacency.out.len()
    }

    /// Number of directed edges currently in the graph.
    pub fn edge_count(&self) -> usize {
        self.adjacency.edge_count
    }

    /// Whether the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edge_count() == 0
    }

    /// Returns an iterator over all user ids.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.user_count() as u32).map(UserId::new)
    }

    /// Returns `true` if `user` is a valid id for this graph.
    pub fn contains_user(&self, user: UserId) -> bool {
        user.as_usize() < self.user_count()
    }

    fn check_user(&self, user: UserId) -> Result<()> {
        if self.contains_user(user) {
            Ok(())
        } else {
            Err(Error::UnknownUser(user))
        }
    }

    /// Adds the edge `follower → followee`. Returns `true` if the edge was
    /// inserted, `false` if it already existed or is a self-loop.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range; use
    /// [`try_add_edge`](SocialGraph::try_add_edge) for fallible insertion.
    pub fn add_edge(&mut self, follower: UserId, followee: UserId) -> bool {
        self.try_add_edge(follower, followee)
            .expect("user id out of range")
    }

    /// Fallible version of [`add_edge`](SocialGraph::add_edge).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownUser`] if either endpoint is out of range.
    pub fn try_add_edge(&mut self, follower: UserId, followee: UserId) -> Result<bool> {
        self.check_user(follower)?;
        self.check_user(followee)?;
        if follower == followee {
            return Ok(false);
        }
        let Err(pos) = self.followees(follower).binary_search(&followee) else {
            return Ok(false);
        };
        let adjacency = Arc::make_mut(&mut self.adjacency);
        adjacency.out[follower.as_usize()].insert(pos, followee);
        let inc = &mut adjacency.inc[followee.as_usize()];
        let ipos = inc.binary_search(&follower).expect_err("inc mirrors out");
        inc.insert(ipos, follower);
        adjacency.edge_count += 1;
        Ok(true)
    }

    /// Removes the edge `follower → followee`. Returns `true` if the edge
    /// existed.
    pub fn remove_edge(&mut self, follower: UserId, followee: UserId) -> bool {
        if !self.contains_edge(follower, followee) {
            return false;
        }
        let adjacency = Arc::make_mut(&mut self.adjacency);
        let out = &mut adjacency.out[follower.as_usize()];
        out.remove(out.binary_search(&followee).expect("the edge exists"));
        let inc = &mut adjacency.inc[followee.as_usize()];
        inc.remove(inc.binary_search(&follower).expect("inc mirrors out"));
        adjacency.edge_count -= 1;
        true
    }

    /// Returns `true` if the edge `follower → followee` exists.
    pub fn contains_edge(&self, follower: UserId, followee: UserId) -> bool {
        self.contains_user(follower) && self.followees(follower).binary_search(&followee).is_ok()
    }

    /// The users that `user` follows — the views fetched by a read request
    /// from `user` (§2.1).
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn followees(&self, user: UserId) -> &[UserId] {
        &self.adjacency.out[user.as_usize()]
    }

    /// The users that follow `user` — the readers affected by a write from
    /// `user`.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn followers(&self, user: UserId) -> &[UserId] {
        &self.adjacency.inc[user.as_usize()]
    }

    /// Out-degree of `user` (number of views her reads fetch).
    pub fn out_degree(&self, user: UserId) -> usize {
        self.followees(user).len()
    }

    /// In-degree of `user` (number of users whose reads fetch her view).
    pub fn in_degree(&self, user: UserId) -> usize {
        self.followers(user).len()
    }

    /// Iterates over every directed edge as `(follower, followee)` pairs.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            graph: self,
            user: 0,
            pos: 0,
        }
    }

    /// Validates internal consistency (forward and reverse indices agree).
    /// Intended for tests and debug assertions; runs in `O(V + E log E)`.
    pub fn validate(&self) -> Result<()> {
        let mut forward = 0usize;
        for (u, outs) in self.adjacency.out.iter().enumerate() {
            forward += outs.len();
            for &v in outs {
                if !self.contains_user(v) {
                    return Err(Error::UnknownUser(v));
                }
                if self.adjacency.inc[v.as_usize()]
                    .binary_search(&UserId::new(u as u32))
                    .is_err()
                {
                    return Err(Error::invalid_config(format!(
                        "edge {u} -> {} missing from reverse index",
                        v.index()
                    )));
                }
            }
        }
        let reverse: usize = self.adjacency.inc.iter().map(Vec::len).sum();
        if forward != reverse || forward != self.edge_count() {
            return Err(Error::invalid_config(format!(
                "edge count mismatch: forward={forward} reverse={reverse} cached={}",
                self.edge_count()
            )));
        }
        Ok(())
    }
}

/// Iterator over all directed edges of a [`SocialGraph`].
#[derive(Debug)]
pub struct EdgeIter<'a> {
    graph: &'a SocialGraph,
    user: usize,
    pos: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (UserId, UserId);

    fn next(&mut self) -> Option<Self::Item> {
        while self.user < self.graph.user_count() {
            let outs = self.graph.followees(UserId::new(self.user as u32));
            if self.pos < outs.len() {
                let item = (UserId::new(self.user as u32), outs[self.pos]);
                self.pos += 1;
                return Some(item);
            }
            self.user += 1;
            self.pos = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u32) -> UserId {
        UserId::new(i)
    }

    #[test]
    fn new_graph_is_empty() {
        let g = SocialGraph::new(5);
        assert_eq!(g.user_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_empty());
        assert_eq!(g.users().count(), 5);
    }

    #[test]
    fn add_edge_updates_both_directions() {
        let mut g = SocialGraph::new(4);
        assert!(g.add_edge(u(0), u(1)));
        assert!(g.add_edge(u(2), u(1)));
        assert_eq!(g.followees(u(0)), &[u(1)]);
        assert_eq!(g.followers(u(1)), &[u(0), u(2)]);
        assert_eq!(g.out_degree(u(0)), 1);
        assert_eq!(g.in_degree(u(1)), 2);
        g.validate().unwrap();
    }

    #[test]
    fn duplicate_and_self_edges_are_ignored() {
        let mut g = SocialGraph::new(3);
        assert!(g.add_edge(u(0), u(1)));
        assert!(!g.add_edge(u(0), u(1)));
        assert!(!g.add_edge(u(2), u(2)));
        assert_eq!(g.edge_count(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn out_of_range_edges_error() {
        let mut g = SocialGraph::new(2);
        assert!(g.try_add_edge(u(0), u(5)).is_err());
        assert!(g.try_add_edge(u(5), u(0)).is_err());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn remove_edge_round_trip() {
        let mut g = SocialGraph::new(3);
        g.add_edge(u(0), u(1));
        g.add_edge(u(0), u(2));
        assert!(g.remove_edge(u(0), u(1)));
        assert!(!g.remove_edge(u(0), u(1)));
        assert!(!g.contains_edge(u(0), u(1)));
        assert!(g.contains_edge(u(0), u(2)));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.followers(u(1)), &[] as &[UserId]);
        g.validate().unwrap();
    }

    #[test]
    fn remove_edge_out_of_range_is_false() {
        let mut g = SocialGraph::new(2);
        assert!(!g.remove_edge(u(0), u(9)));
        assert!(!g.remove_edge(u(9), u(0)));
    }

    #[test]
    fn from_edges_builds_graph() {
        let g = SocialGraph::from_edges(3, vec![(u(0), u(1)), (u(1), u(2)), (u(0), u(2))]).unwrap();
        assert_eq!(g.edge_count(), 3);
        assert!(g.contains_edge(u(1), u(2)));
        assert!(SocialGraph::from_edges(2, vec![(u(0), u(7))]).is_err());
    }

    #[test]
    fn edge_iterator_visits_every_edge_once() {
        let edges = vec![(u(0), u(1)), (u(0), u(2)), (u(2), u(1)), (u(3), u(0))];
        let g = SocialGraph::from_edges(4, edges.clone()).unwrap();
        let mut seen: Vec<(UserId, UserId)> = g.edges().collect();
        seen.sort();
        let mut expected = edges;
        expected.sort();
        assert_eq!(seen, expected);
    }

    #[test]
    fn every_builder_leaves_each_list_its_exact_length() {
        fn exact(g: &SocialGraph) -> bool {
            let a = &g.adjacency;
            a.out.iter().chain(&a.inc).all(|l| l.len() == l.capacity())
        }
        let generated = SocialGraph::generate(crate::GraphPreset::TwitterLike, 500, 3).unwrap();
        // Reversed, so that the per-edge inserts grow the lists out of order.
        let mut edges: Vec<(UserId, UserId)> = generated.edges().collect();
        edges.reverse();
        let bulk = SocialGraph::from_edges_bulk(500, edges.clone()).unwrap();
        let inserted = SocialGraph::from_edges(500, edges).unwrap();
        assert!(exact(&generated));
        assert!(exact(&bulk));
        assert!(exact(&inserted));
        assert_eq!(bulk, inserted);
    }

    #[test]
    fn followees_are_sorted() {
        let mut g = SocialGraph::new(5);
        g.add_edge(u(0), u(4));
        g.add_edge(u(0), u(2));
        g.add_edge(u(0), u(3));
        assert_eq!(g.followees(u(0)), &[u(2), u(3), u(4)]);
    }
}
