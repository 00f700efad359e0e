//! # DynaSoRe
//!
//! A reproduction of *"DynaSoRe: Efficient In-Memory Store for Social
//! Applications"* (Bai, Jégou, Junqueira, Leroy — Middleware 2013).
//!
//! DynaSoRe is an in-memory view store for social applications. Each user has
//! a *producer-pivoted view* holding the events she produced; a read request
//! fetches the views of all of the user's social connections, a write request
//! updates the user's own view. The store spans many servers organised in a
//! data-centre network tree, and dynamically replicates, migrates and evicts
//! view replicas to minimise the traffic crossing the upper tiers of the
//! tree, subject to a global memory budget.
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`types`] — identifiers, events, views, configuration, errors.
//! * [`graph`] — social-graph substrate and synthetic generators.
//! * [`partition`] — multilevel (METIS-like) and hierarchical partitioning.
//! * [`topology`] — data-centre tree/flat topologies and traffic accounting.
//! * [`workload`] — synthetic, diurnal and flash-event trace generators.
//! * [`sim`] — the cluster simulator used for every experiment in the paper.
//! * [`core`] — the DynaSoRe placement engine (the paper's contribution).
//! * [`baselines`] — Random, METIS, hierarchical METIS and SPAR baselines.
//! * [`store`] — a runnable multi-threaded in-memory store built on the
//!   placement engine.
//! * [`serve`] — the serving front-end: envelope pipeline with auth,
//!   admission control and flow budgets over the store.
//!
//! ## Quickstart
//!
//! ```
//! use dynasore::prelude::*;
//!
//! # fn main() -> Result<(), dynasore::types::Error> {
//! // A small social graph and the paper's cluster scaled down.
//! let graph = SocialGraph::generate(GraphPreset::TwitterLike, 1_000, 42)?;
//! let topology = Topology::tree(2, 2, 5, 1)?;
//!
//! // DynaSoRe with 30% extra memory, warm-started from random placement.
//! let engine = DynaSoReEngine::builder()
//!     .topology(topology.clone())
//!     .budget(MemoryBudget::with_extra_percent(graph.user_count(), 30))
//!     .initial_placement(InitialPlacement::Random { seed: 7 })
//!     .build(&graph)?;
//!
//! // Drive it with one simulated day of synthetic traffic.
//! let trace = SyntheticTraceGenerator::paper_defaults(&graph, 1, 42)?;
//! let mut sim = Simulation::new(topology, engine, &graph);
//! let report = sim.run(trace)?;
//! assert!(report.total_application_messages() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use dynasore_baselines as baselines;
pub use dynasore_core as core;
pub use dynasore_graph as graph;
pub use dynasore_partition as partition;
pub use dynasore_serve as serve;
pub use dynasore_sim as sim;
pub use dynasore_store as store;
pub use dynasore_topology as topology;
pub use dynasore_types as types;
pub use dynasore_workload as workload;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use dynasore_baselines::{SparEngine, StaticPlacement};
    pub use dynasore_core::{DynaSoReEngine, InitialPlacement};
    pub use dynasore_graph::{GraphPreset, SocialGraph};
    pub use dynasore_partition::{Partitioner, Partitioning, TreeShape};
    pub use dynasore_serve::{
        LoopbackServer, Middleware, PipelineExecutor, RequestEnvelope, ResponseEnvelope,
        ServeConfig,
    };
    pub use dynasore_sim::{
        generate_failure_schedule, DegradationReport, DurableIoStats, LatencyStats,
        ReliabilityStats, ScenarioConfig, ScenarioKind, ScenarioRunner, ScenarioScript,
        SimDurableTier, SimReport, Simulation,
    };
    pub use dynasore_store::{
        Cluster, ClusterChangeReport, PersistentStore, ShardedConfig, ShardedLogStore, StoreConfig,
    };
    pub use dynasore_topology::{Switch, Tier, Topology, TrafficAccount};
    pub use dynasore_types::{
        Bandwidth, ClusterEvent, Error, Event, FlowBudget, Latency, LatencyHistogram, MemoryBudget,
        MemoryUsage, Message, NetworkModel, Operation, PlacementEngine, SimTime, StatusCode,
        TimedClusterEvent, UserId, View,
    };
    pub use dynasore_workload::{
        DiurnalTraceGenerator, FlashEventPlan, Request, SyntheticConfig, SyntheticTraceGenerator,
    };
}
