//! The serving front-end: a protocol-agnostic envelope pipeline over the
//! live store (layer 5).
//!
//! `store::Cluster` is a library; this crate makes it a service. A
//! [`RequestEnvelope`] enters the [`PipelineExecutor`], flows through the
//! composable [`Middleware`] stages, reaches the cluster backend if every
//! stage accepts it, and returns as a [`ResponseEnvelope`] with a typed
//! [`dynasore_types::StatusCode`]:
//!
//! ```text
//!             ┌──────────────────── PipelineExecutor ───────────────────┐
//! client ──▶  │ tracing ─▶ token-auth ─▶ admission ─▶ flow-budget ─▶ ═╗ │
//!             │                                                       ║ │
//!             │            store::Cluster (read/write/read_feed)  ◀───╝ │
//!             │                                                       ║ │
//! client ◀──  │ tracing ◀─ token-auth ◀─ admission ◀─ flow-budget ◀─ ═╝ │
//!             └─────────────────────────────────────────────────────────┘
//! ```
//!
//! The four production stages:
//!
//! * **[`TracingStage`]** — one `envelope-served` flight-recorder event per
//!   envelope through the shared [`dynasore_store::StoreObs`], folded into
//!   the same metrics registry the `/metrics` endpoint renders.
//! * **[`TokenAuth`]** — credential check; failures are
//!   [`dynasore_types::StatusCode::Unauthorized`] and *only* credential
//!   failures are (harmony's 401-vs-500 rule, see [`StageError::status`]).
//! * **[`AdmissionControl`]** — sheds load with
//!   [`dynasore_types::StatusCode::Overloaded`] when the live in-flight
//!   gauge exceeds the ceiling, before requests queue on the engine.
//! * **[`FlowBudgetStage`]** — monotone per-user
//!   [`dynasore_types::FlowBudget`] ledgers (`limit` merges by min, `spent`
//!   by max); a spammy user is rejected with
//!   [`dynasore_types::StatusCode::Throttled`] and generates **zero** engine
//!   messages.
//!
//! Stages and backend take `&self` and are `Sync`, so one executor serves
//! every thread with no lock of its own; a stage with state (the flow budget
//! is the only one) synchronises it itself.
//!
//! The in-process transport is [`LoopbackServer`]: spawn, serve from any
//! thread, probe `/healthz`, scrape `/metrics`, and shut down gracefully —
//! draining in-flight envelopes, then syncing the durable tier
//! through [`dynasore_store::Cluster::shutdown`].
//!
//! # Example
//!
//! ```
//! use dynasore_graph::{GraphPreset, SocialGraph};
//! use dynasore_serve::{LoopbackServer, RequestEnvelope, ServeConfig};
//! use dynasore_store::StoreConfig;
//! use dynasore_topology::Topology;
//! use dynasore_types::UserId;
//!
//! # fn main() -> dynasore_types::Result<()> {
//! let graph = SocialGraph::generate(GraphPreset::TwitterLike, 60, 7)?;
//! let topology = Topology::tree(2, 1, 2, 1)?;
//! let server = LoopbackServer::spawn(
//!     &graph,
//!     topology,
//!     StoreConfig::default(),
//!     ServeConfig::default(),
//! )?;
//! assert!(server.healthz().ready);
//! let resp = server.handle(RequestEnvelope::write(UserId::new(1), b"post".to_vec()));
//! assert!(resp.is_success());
//! server.shutdown()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod envelope;
mod middleware;
mod pipeline;
mod server;

pub use envelope::{RequestEnvelope, RequestOp, ResponseBody, ResponseEnvelope};
pub use middleware::{
    AdmissionControl, FlowBudgetStage, LoadProbe, Middleware, StageError, TokenAuth, TracingStage,
};
pub use pipeline::{backend_status, Backend, PipelineExecutor};
pub use server::{Health, LoopbackServer, ServeConfig};
