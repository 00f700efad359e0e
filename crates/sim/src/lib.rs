//! Cluster simulator and measurement harness.
//!
//! The paper evaluates every system with a cluster simulator that
//! "represents all the servers and network devices in order to simulate
//! their message exchanges and measure them" (§4.3). This crate is that
//! simulator:
//!
//! * [`PlacementEngine`](dynasore_types::PlacementEngine) — the interface
//!   every view-placement strategy implements (DynaSoRe itself and the
//!   Random/METIS/hMETIS/SPAR baselines), defined with its message and
//!   event types in `dynasore-types` so engines need not depend on the
//!   simulator. For each read or write request the engine decides which
//!   broker executes it and which servers are contacted, and reports the
//!   resulting [`Message`](dynasore_types::Message)s.
//! * [`Simulation`] — drives a request trace through an engine, applies
//!   scheduled social-graph mutations (flash events), periodically ticks the
//!   engine for maintenance (counter rotation, eviction sweeps), charges
//!   every message to the switches it traverses and produces a
//!   [`SimReport`].
//! * [`SimDurableTier`] — an optional file-backed tier, a
//!   `dynasore_store::ShardedLogStore` underneath, that a simulation
//!   mirrors its writes into and replays on recovery, so the report
//!   measures recovery I/O in real bytes.
//!
//! # Example
//!
//! ```
//! use dynasore_sim::Simulation;
//! use dynasore_graph::{GraphPreset, SocialGraph};
//! use dynasore_topology::Topology;
//! use dynasore_types::{
//!     MemoryUsage, Message, PlacementEngine, SimTime, TrafficSink, UserId,
//! };
//! use dynasore_workload::SyntheticTraceGenerator;
//!
//! /// A deliberately naive engine: every view lives on server 0 and every
//! /// request is executed by the first broker.
//! struct Centralised {
//!     topology: Topology,
//! }
//!
//! impl PlacementEngine for Centralised {
//!     fn name(&self) -> &str {
//!         "centralised"
//!     }
//!     fn handle_read(
//!         &mut self,
//!         _user: UserId,
//!         targets: &[UserId],
//!         _time: SimTime,
//!         out: &mut dyn TrafficSink,
//!     ) {
//!         let broker = self.topology.brokers()[0].machine();
//!         let server = self.topology.servers()[0].machine();
//!         for _ in targets {
//!             out.record(Message::application(broker, server));
//!             out.record(Message::application(server, broker));
//!         }
//!     }
//!     fn handle_write(&mut self, _user: UserId, _time: SimTime, out: &mut dyn TrafficSink) {
//!         let broker = self.topology.brokers()[0].machine();
//!         let server = self.topology.servers()[0].machine();
//!         out.record(Message::application(broker, server));
//!     }
//!     fn replica_count(&self, _user: UserId) -> usize {
//!         1
//!     }
//!     fn memory_usage(&self) -> MemoryUsage {
//!         MemoryUsage { used_slots: 0, capacity_slots: 0 }
//!     }
//! }
//!
//! let graph = SocialGraph::generate(GraphPreset::TwitterLike, 100, 1).unwrap();
//! let topology = Topology::tree(2, 2, 3, 1).unwrap();
//! let engine = Centralised { topology: topology.clone() };
//! let trace = SyntheticTraceGenerator::paper_defaults(&graph, 1, 2).unwrap();
//! let mut sim = Simulation::new(topology, engine, &graph);
//! let report = sim.run(trace).unwrap();
//! assert!(report.read_count() > 0);
//! assert!(report.traffic().grand_total() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod durable_tier;
pub mod faults;
mod obs;
mod report;
pub mod scenario;
mod simulation;

pub use durable_tier::{DurableIoStats, SimDurableTier, SIM_EVENT_BYTES};
pub use faults::generate_failure_schedule;
pub use obs::SimObs;
pub use report::{LatencyStats, ReliabilityStats, SimReport};
pub use scenario::{
    DegradationReport, ScenarioConfig, ScenarioKind, ScenarioRunner, ScenarioScript,
};
pub use simulation::{switch_counts, Simulation};
