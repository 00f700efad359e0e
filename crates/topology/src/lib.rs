//! Data-centre network topologies and traffic accounting.
//!
//! The paper assumes servers are organised in a **three-level tree of
//! switches**: a top (core) switch connecting intermediate switches, each of
//! which connects a set of racks; every rack holds one broker and several
//! view servers behind a rack switch (§2.1, Figure 1). DynaSoRe's entire
//! objective is expressed against this tree: the *network distance* between
//! two machines is the number of switches on the path between them, and the
//! system tries to keep messages away from the top of the tree.
//!
//! This crate provides:
//!
//! * [`Topology`] — the cluster layout (tree or flat), machine roles, the
//!   [`Path`] from the root to every machine and sub-tree, and what follows
//!   from it: network distances, switch paths, sub-tree enumeration and the
//!   coarse *access origins* used by DynaSoRe's statistics (§3.2);
//! * [`TrafficAccount`] — per-switch, per-tier, per-message-class traffic
//!   counters with a time series, which is what every figure and table of
//!   the evaluation reports.
//!
//! # Example
//!
//! ```
//! use dynasore_topology::{Switch, Topology};
//!
//! // The evaluation cluster of §4.3: 5 intermediate switches × 5 racks ×
//! // 10 machines (1 broker + 9 servers per rack).
//! let topo = Topology::paper_tree().unwrap();
//! assert_eq!(topo.machine_count(), 250);
//! assert_eq!(topo.server_count(), 225);
//! assert_eq!(topo.brokers().len(), 25);
//!
//! let a = topo.servers()[0].machine();
//! let b = topo.servers()[224].machine();
//! // Machines in different intermediate sub-trees are 5 switches apart.
//! assert_eq!(topo.distance(a, b), 5);
//! assert!(topo.path_switches(a, b).contains(&Switch::Top));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod layout;
mod traffic;

pub use dynasore_types::Tier;
pub use layout::{MembershipChange, Path, Switch, Topology, TopologyKind};
pub use traffic::{TierTraffic, TrafficAccount};
