//! Core identifiers, events, views, configuration and errors shared by every
//! DynaSoRe crate.
//!
//! The paper ("DynaSoRe: Efficient In-Memory Store for Social Applications",
//! Middleware 2013) models the system around a handful of primitive notions:
//!
//! * **users** produce *events* (status updates, micro-blogs, …);
//! * each user has a **producer-pivoted view** holding the events she
//!   produced;
//! * the store spans **machines** (servers and brokers) grouped in racks under
//!   a tree of switches;
//! * servers have a **bounded memory capacity** expressed in number of views,
//!   and the cluster-wide budget is described as *x% extra memory* over the
//!   minimum required to store every view exactly once;
//! * traffic is measured in message units where an **application message is
//!   ten times the size of a protocol message** (§4.3 of the paper).
//!
//! This crate defines those primitives as small, strongly-typed values so the
//! remaining crates cannot confuse, say, a server index with a user id.
//!
//! # Example
//!
//! ```
//! use dynasore_types::{Event, MemoryBudget, SimTime, UserId, View};
//!
//! let alice = UserId::new(1);
//! let mut view = View::new(alice);
//! view.push(Event::new(alice, SimTime::from_secs(10), b"hello".to_vec()));
//! assert_eq!(view.len(), 1);
//!
//! // A cluster holding 1_000 views with 30% extra memory has 1_300 slots.
//! let budget = MemoryBudget::with_extra_percent(1_000, 30);
//! assert_eq!(budget.total_slots(), 1_300);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod engine;
mod error;
mod event;
mod flow;
mod ids;
mod network;
mod obs;
mod time;
mod traffic;

pub use budget::MemoryBudget;
pub use engine::{
    ClusterEvent, CountingSink, GraphMutation, MemoryUsage, Message, PlacementEngine,
    TimedClusterEvent, TrafficSink,
};
pub use error::{Error, Result};
pub use event::{Event, View, VIEW_CAPACITY};
pub use flow::{FlowBudget, StatusCode};
pub use ids::{BrokerId, MachineId, RackId, ServerId, SubtreeId, UserId};
pub use network::{Bandwidth, Latency, LatencyHistogram, NetworkModel, NANOS_PER_SEC};
pub use obs::{
    lint_prometheus, validate_jsonl, FlightRecorder, MetricId, MetricKind, MetricsRegistry,
    ReplicaChangeReason, Tier, TraceEvent, TraceEventKind,
};
pub use time::{SimTime, DAY_SECS, HOUR_SECS, MINUTE_SECS};
pub use traffic::{
    MessageClass, TrafficUnits, APP_MESSAGE_UNITS, PROTOCOL_MESSAGE_UNITS,
    VIEW_TRANSFER_PROTOCOL_MESSAGES,
};

/// The kind of request a user submits to the store.
///
/// A read request from user `u` reads the views of all of `u`'s social
/// connections; a write request from `u` updates `u`'s own view (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Operation {
    /// Fetch the views of the user's connections.
    Read,
    /// Update the user's own view from the persistent store.
    Write,
}

impl std::fmt::Display for Operation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operation::Read => write!(f, "read"),
            Operation::Write => write!(f, "write"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operation_display() {
        assert_eq!(Operation::Read.to_string(), "read");
        assert_eq!(Operation::Write.to_string(), "write");
    }

    #[test]
    fn operation_ordering_is_stable() {
        assert!(Operation::Read < Operation::Write);
    }
}
