//! A runnable, multi-threaded in-memory view store built on the DynaSoRe
//! placement engine.
//!
//! The simulator in `dynasore-sim` reproduces the paper's *measurements*;
//! this crate demonstrates the paper's *API* (§3.1) as an actual system you
//! can embed: a [`Cluster`] keeps every view server's cache as a shard of
//! one cache worker thread, reached over a FIFO channel — a read ships all
//! its lookups in one message — backed by a durable tier (the store of
//! §3.3) behind the [`PersistentStore`] trait, and routed by a
//! [`DynaSoReEngine`](dynasore_core::DynaSoReEngine) that replicates hot
//! views close to their readers. Two durable tiers ship with the crate:
//!
//! * [`MockPersistentStore`] — an in-memory map, the default
//!   ([`Cluster::spawn`]), right for pure simulations;
//! * [`ShardedLogStore`] — the file-backed tier, and the one public store
//!   over files ([`Cluster::spawn_with_store`]): N independent shards
//!   routed by a stable hash of the user id (`shards: 1` is one log) under
//!   one root lock, each an append-only log file of checksummed batch
//!   frames with replay-on-open recovery, writing by group commit —
//!   so killed-and-restarted servers recover views from real bytes, the
//!   tier keeps pace with the hot path (one fsync covers a whole batch)
//!   and shards recover concurrently on reopen. It holds no view in
//!   memory: only where each view's entries lie in its log, from which a
//!   fetch reads the view back.
//!
//! The API mirrors the paper's memcache-compatible interface:
//!
//! * `Write(u)` — [`Cluster::write`] persists a new event for `u` and pushes
//!   the new version of `u`'s view to every cached replica;
//! * `Read(u, L)` — [`Cluster::read`] returns the views of the users in `L`,
//!   served from the cache servers and demand-filled from the persistent
//!   store on a miss;
//! * [`Cluster::read_feed`] is the convenience social-feed call: it reads
//!   the views of all of `u`'s connections and merges them by timestamp.
//!
//! # Example
//!
//! ```
//! use dynasore_graph::{GraphPreset, SocialGraph};
//! use dynasore_store::{Cluster, StoreConfig};
//! use dynasore_topology::Topology;
//! use dynasore_types::UserId;
//!
//! # fn main() -> Result<(), dynasore_types::Error> {
//! let graph = SocialGraph::generate(GraphPreset::TwitterLike, 200, 7)?;
//! let topology = Topology::tree(2, 2, 4, 1)?;
//! let cluster = Cluster::spawn(&graph, topology, StoreConfig::default())?;
//!
//! let alice = UserId::new(0);
//! let follower = graph.followers(alice).first().copied();
//! cluster.write(alice, b"hello world".to_vec())?;
//! if let Some(reader) = follower {
//!     let feed = cluster.read_feed(reader)?;
//!     assert!(feed.iter().any(|e| e.payload() == b"hello world"));
//! }
//! cluster.shutdown()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod log;
mod obs;
mod persistent;
mod segment;
mod server;
mod sharded;

pub use cluster::{Cluster, StoreConfig, StoreStats};
pub use log::RecoveryStats;
pub use obs::StoreObs;
pub use persistent::{MockPersistentStore, PersistentStore};
pub use sharded::{ShardedConfig, ShardedLogStore, ShardedRecoveryStats};
