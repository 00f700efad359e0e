//! Plain-text edge-list input.
//!
//! The format is one directed edge per line, `follower followee`, with `#`
//! comments and blank lines ignored — the same format distributed with the
//! SNAP versions of the datasets the paper uses, so externally obtained
//! copies of the Twitter/Facebook/LiveJournal crawls can be loaded directly.

use std::io::{BufRead, BufReader, Read};

use dynasore_types::{Error, Result, UserId};

use crate::graph::SocialGraph;

/// Reads a SNAP-style `src dst` edge list: `#` comment headers and blank
/// lines are skipped, fields may be tab- or space-separated, and self-loops
/// and duplicate edges — both present in the public
/// Twitter/Flickr/LiveJournal snapshots — are tolerated and dropped.
///
/// The number of users comes from a `# dynasore edge list: N users` header
/// when present, so trailing isolated users and edgeless graphs keep their
/// exact size; for foreign SNAP files without the header it falls back to
/// `max id + 1`.
///
/// Construction is bulk (one sort over the whole edge vector rather than a
/// per-edge sorted insert), so multi-million-edge snapshots load in
/// `O(E log E)`.
///
/// # Errors
///
/// Returns [`Error::Io`] on malformed lines, a dynasore header whose user
/// count an edge endpoint exceeds, or reader failures.
///
/// # Example
///
/// ```
/// use dynasore_graph::io;
/// use dynasore_types::UserId;
///
/// # fn main() -> Result<(), dynasore_types::Error> {
/// let text = "# dynasore edge list: 3 users\n0\t1\n";
/// let graph = io::read_edge_list(text.as_bytes())?;
/// assert_eq!(graph.user_count(), 3);
/// assert!(graph.contains_edge(UserId::new(0), UserId::new(1)));
/// # Ok(())
/// # }
/// ```
pub fn read_edge_list<R: Read>(reader: R) -> Result<SocialGraph> {
    let buf = BufReader::new(reader);
    let mut edges: Vec<(UserId, UserId)> = Vec::new();
    let mut max_id = 0u32;
    let mut declared_users: Option<usize> = None;
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            if declared_users.is_none() {
                declared_users = parse_user_count_header(trimmed);
            }
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let src = parts
            .next()
            .ok_or_else(|| Error::io(format!("line {}: missing source", lineno + 1)))?;
        let dst = parts
            .next()
            .ok_or_else(|| Error::io(format!("line {}: missing destination", lineno + 1)))?;
        let src: u32 = src
            .parse()
            .map_err(|_| Error::io(format!("line {}: bad source id {src:?}", lineno + 1)))?;
        let dst: u32 = dst
            .parse()
            .map_err(|_| Error::io(format!("line {}: bad destination id {dst:?}", lineno + 1)))?;
        max_id = max_id.max(src).max(dst);
        edges.push((UserId::new(src), UserId::new(dst)));
    }
    let inferred = if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    };
    let users = match declared_users {
        Some(declared) if declared < inferred => {
            return Err(Error::io(format!(
                "header declares {declared} users but an edge references user {max_id}"
            )));
        }
        Some(declared) => declared,
        None => inferred,
    };
    if edges.is_empty() {
        return Ok(SocialGraph::new(users));
    }
    SocialGraph::from_edges_bulk(users, edges)
}

/// Parses the `# dynasore edge list: N users` header. Returns `None` for
/// every other comment line (SNAP headers and the like), leaving the user
/// count to be inferred from the edges.
fn parse_user_count_header(comment: &str) -> Option<usize> {
    let rest = comment.strip_prefix("# dynasore edge list:")?;
    let count = rest.trim().strip_suffix("users")?;
    count.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u32) -> UserId {
        UserId::new(i)
    }

    /// `graph` as an edge list with the user-count header.
    fn edge_list(graph: &SocialGraph) -> String {
        let mut text = format!("# dynasore edge list: {} users\n", graph.user_count());
        for (a, b) in graph.edges() {
            text += &format!("{} {}\n", a.index(), b.index());
        }
        text
    }

    #[test]
    fn round_trip_preserves_graph() {
        let mut g = SocialGraph::new(5);
        g.add_edge(u(0), u(1));
        g.add_edge(u(3), u(4));
        g.add_edge(u(4), u(0));
        let parsed = read_edge_list(edge_list(&g).as_bytes()).unwrap();
        assert_eq!(parsed.edge_count(), g.edge_count());
        for (a, b) in g.edges() {
            assert!(parsed.contains_edge(a, b));
        }
    }

    #[test]
    fn round_trip_preserves_trailing_isolated_users() {
        // Regression: users 2..5 have no edges, so `max id + 1` inference
        // would shrink this to a 2-user graph on reopen. The dynasore
        // header must restore the exact count.
        let mut g = SocialGraph::new(5);
        g.add_edge(u(0), u(1));
        let parsed = read_edge_list(edge_list(&g).as_bytes()).unwrap();
        assert_eq!(parsed, g);
        assert_eq!(parsed.user_count(), 5);
    }

    #[test]
    fn round_trip_preserves_edgeless_graph() {
        let g = SocialGraph::new(7);
        let parsed = read_edge_list(edge_list(&g).as_bytes()).unwrap();
        assert_eq!(parsed, g);
        assert_eq!(parsed.user_count(), 7);
        assert_eq!(parsed.edge_count(), 0);

        // The empty graph also survives.
        let empty = SocialGraph::new(0);
        assert_eq!(read_edge_list(edge_list(&empty).as_bytes()).unwrap(), empty);
    }

    #[test]
    fn header_smaller_than_edge_ids_is_rejected() {
        let text = "# dynasore edge list: 2 users\n0 1\n3 1\n";
        assert!(read_edge_list(text.as_bytes()).is_err());
    }

    #[test]
    fn foreign_snap_headers_do_not_declare_a_count() {
        // A SNAP `# Nodes: 4 Edges: 5` header is not a dynasore header;
        // the count still comes from the edges.
        let text = "# Nodes: 9 Edges: 1\n0 1\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.user_count(), 2);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header\n\n0 1\n  # another\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.user_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn malformed_lines_error() {
        assert!(read_edge_list("0\n".as_bytes()).is_err());
        assert!(read_edge_list("a b\n".as_bytes()).is_err());
        assert!(read_edge_list("1 x\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_input_yields_empty_graph() {
        let g = read_edge_list("# nothing\n".as_bytes()).unwrap();
        assert_eq!(g.user_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn snap_style_input_is_tolerated() {
        // Tab separators, a self-loop, and a duplicate edge — all present
        // in real SNAP snapshots.
        let text = "# Directed graph: ./twitter_combined.txt\n\
                    # Nodes: 4 Edges: 5\n\
                    0\t1\n\
                    2\t2\n\
                    0\t1\n\
                    3 1\n\
                    1\t0\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.user_count(), 4);
        // Self-loop and duplicate dropped: 0→1, 3→1, 1→0 remain.
        assert_eq!(g.edge_count(), 3);
        assert!(g.contains_edge(u(0), u(1)));
        assert!(g.contains_edge(u(1), u(0)));
        assert!(g.contains_edge(u(3), u(1)));
        assert!(!g.contains_edge(u(2), u(2)));
    }

    #[test]
    fn bulk_construction_matches_incremental() {
        let edges = vec![
            (u(4), u(0)),
            (u(0), u(1)),
            (u(0), u(1)), // duplicate
            (u(3), u(3)), // self-loop
            (u(3), u(4)),
            (u(1), u(2)),
            (u(0), u(3)),
        ];
        let bulk = SocialGraph::from_edges_bulk(5, edges.clone()).unwrap();
        let incremental =
            SocialGraph::from_edges(5, edges.into_iter().filter(|(a, b)| a != b)).unwrap();
        assert_eq!(bulk, incremental);
        for user in bulk.users() {
            assert_eq!(bulk.followees(user), incremental.followees(user));
            assert_eq!(bulk.followers(user), incremental.followers(user));
        }
    }
}
