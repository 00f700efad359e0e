//! Social-graph substrate for DynaSoRe.
//!
//! The paper evaluates DynaSoRe on three crawled social graphs (Twitter 2009,
//! Facebook 2008, LiveJournal — Table 1). Those datasets are not
//! redistributable, so this crate provides:
//!
//! * [`SocialGraph`] — a mutable directed graph keyed by dense [`UserId`]s,
//!   storing both out-edges (the users whose views `u` reads) and in-edges
//!   (the followers whose feeds include `u`);
//! * seeded synthetic [generators](GeneratorConfig) whose degree
//!   distributions match the published datasets' density and skew, including
//!   presets ([`GraphPreset`]) for Twitter-, Facebook- and LiveJournal-like
//!   graphs;
//! * [degree and structure metrics](metrics) used to sanity-check the
//!   generators and to drive the workload generators (read/write activity is
//!   proportional to the logarithm of a user's degree, §4.2);
//! * plain-text edge-list [input](io) so externally obtained datasets can be
//!   plugged in unchanged.
//!
//! # Example
//!
//! ```
//! use dynasore_graph::{GraphPreset, SocialGraph};
//!
//! let graph = SocialGraph::generate(GraphPreset::TwitterLike, 1_000, 42).unwrap();
//! assert_eq!(graph.user_count(), 1_000);
//! // Twitter-like graphs are sparse: roughly 3 links per user.
//! let avg = graph.edge_count() as f64 / graph.user_count() as f64;
//! assert!(avg > 1.0 && avg < 6.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generate;
mod graph;
pub mod io;
pub mod metrics;

pub use dynasore_types::UserId;
pub use generate::{GeneratorConfig, GraphPreset};
pub use graph::{EdgeIter, SocialGraph};
