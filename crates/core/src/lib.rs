//! The DynaSoRe view-placement engine — the primary contribution of
//! *"DynaSoRe: Efficient In-Memory Store for Social Applications"*
//! (Middleware 2013).
//!
//! DynaSoRe is an in-memory store for social feeds that dynamically adapts
//! the placement of *views* (per-user event lists) to the observed request
//! traffic. Its goal is to minimise the traffic crossing the upper tiers of
//! the data-centre network tree while respecting a cluster-wide memory
//! budget. The mechanisms, following §3 of the paper, are:
//!
//! * **Access statistics** — every replica records how often it is read from
//!   each coarse origin (sibling racks and sibling intermediate switches)
//!   and how often it is written, in a rotating window of 24 hourly periods
//!   ([`ReplicaStats`]).
//! * **Utility estimation** (Algorithm 1) — the benefit of a replica is the
//!   read traffic it saves compared to the next closest replica, minus the
//!   write traffic needed to keep it fresh. The engine keeps each replica's
//!   utility cached in its server's slab and evaluates the algorithms'
//!   candidates in one pass over the replica's statistics.
//! * **Replication and migration** (Algorithms 2 and 3) — when a replica is
//!   read from a distant part of the cluster, a new replica is proposed near
//!   those readers, subject to the target servers' admission thresholds;
//!   when no replica can be created the view may migrate instead.
//! * **Eviction** — servers keep ~5% of their memory free by evicting the
//!   least useful replicas; views with a single replica are never evicted.
//! * **Proxies and routing** — each user has a read proxy and a write proxy
//!   hosted on brokers; proxies migrate towards the data they access
//!   ([`routing`]), and reads are routed to the closest replica
//!   ([`DynaSoReEngine::closest_replica`]).
//!
//! The engine implements
//! [`PlacementEngine`](dynasore_types::PlacementEngine), so it can be driven
//! by the simulator in `dynasore-sim` and compared against the baselines in
//! `dynasore-baselines`.
//!
//! # Example
//!
//! ```
//! use dynasore_core::{DynaSoReEngine, InitialPlacement};
//! use dynasore_graph::{GraphPreset, SocialGraph};
//! use dynasore_topology::Topology;
//! use dynasore_types::{MemoryBudget, PlacementEngine, SimTime, UserId};
//!
//! # fn main() -> Result<(), dynasore_types::Error> {
//! let graph = SocialGraph::generate(GraphPreset::TwitterLike, 400, 42)?;
//! let topology = Topology::tree(2, 2, 5, 1)?;
//! let mut engine = DynaSoReEngine::builder()
//!     .topology(topology.clone())
//!     .budget(MemoryBudget::with_extra_percent(graph.user_count(), 30))
//!     .initial_placement(InitialPlacement::HierarchicalMetis { seed: 1 })
//!     .build(&graph)?;
//!
//! // Drive one read through the engine directly (the `dynasore-sim` crate
//! // automates this over a whole trace).
//! let reader = UserId::new(0);
//! let targets = graph.followees(reader).to_vec();
//! let mut messages = Vec::new();
//! engine.handle_read(reader, &targets, SimTime::from_secs(1), &mut messages);
//! assert!(engine.replica_count(reader) >= 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod evaluation;
pub mod placement;
pub mod routing;
mod server;
mod stats;

pub use config::InitialPlacement;
pub use engine::{DynaSoReEngine, DynaSoReEngineBuilder};
pub use server::{admission_threshold_from_utilities, ServerState};
pub use stats::ReplicaStats;

// The single rotating counter and Algorithm 1 as written in the paper: the
// specifications the tests hold the engine's packed statistics and
// incremental evaluation to.
#[cfg(test)]
mod counters;
#[cfg(test)]
mod utility;
