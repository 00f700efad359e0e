//! Strongly-typed identifiers for users, machines and cluster locations.
//!
//! All identifiers are thin newtypes over unsigned integers so they are
//! `Copy`, hashable and cheap to store in the large routing and statistics
//! tables the system maintains, while still preventing accidental mix-ups
//! between, e.g., a server index and a user id.

use std::fmt;

/// Identifier of a user of the social application.
///
/// Users both produce events (written to their own view) and consume the
/// views of their social connections.
///
/// # Example
///
/// ```
/// use dynasore_types::UserId;
/// let u = UserId::new(42);
/// assert_eq!(u.index(), 42);
/// assert_eq!(u.to_string(), "u42");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct UserId(u32);

impl UserId {
    /// Creates a user id from its dense index.
    pub fn new(index: u32) -> Self {
        UserId(index)
    }

    /// Returns the dense index of this user.
    ///
    /// Graphs, traces and placement tables index their per-user arrays with
    /// this value, so ids are expected to be dense in `0..user_count`.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Returns the index as a `usize`, convenient for array indexing.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for UserId {
    fn from(v: u32) -> Self {
        UserId(v)
    }
}

impl From<UserId> for u32 {
    fn from(v: UserId) -> Self {
        v.0
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Identifier of a physical machine in the cluster (either a server or a
/// broker).
///
/// Machines are numbered densely in `0..machine_count` by the topology that
/// creates them; the topology also knows which rack each machine belongs to
/// and whether it acts as a view server or as a broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MachineId(u32);

impl MachineId {
    /// Sentinel id for the durable persistent tier (§3.3 of the paper). It
    /// is not a cluster machine — topologies never contain it — but it can
    /// appear as a message endpoint so that recovery and demand-fill traffic
    /// is charged to the switches between a cache machine and the store,
    /// which attaches above the core switch.
    pub const PERSISTENT: MachineId = MachineId(u32::MAX);

    /// Creates a machine id from its dense index.
    pub fn new(index: u32) -> Self {
        MachineId(index)
    }

    /// Whether this is the persistent-tier sentinel rather than a cluster
    /// machine.
    pub fn is_persistent(self) -> bool {
        self == MachineId::PERSISTENT
    }

    /// Returns the dense index of this machine.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Returns the index as a `usize`, convenient for array indexing.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for MachineId {
    fn from(v: u32) -> Self {
        MachineId(v)
    }
}

impl From<MachineId> for u32 {
    fn from(v: MachineId) -> Self {
        v.0
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Identifier of a view server. A thin wrapper over [`MachineId`] that is
/// only handed out for machines that store views.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(MachineId);

impl ServerId {
    /// Wraps a machine id that is known to be a server.
    pub fn new(machine: MachineId) -> Self {
        ServerId(machine)
    }

    /// Returns the underlying machine id.
    pub fn machine(self) -> MachineId {
        self.0
    }

    /// Returns the dense machine index.
    pub fn index(self) -> u32 {
        self.0.index()
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0.index())
    }
}

/// Identifier of a broker. A thin wrapper over [`MachineId`] that is only
/// handed out for machines that execute requests and host proxies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BrokerId(MachineId);

impl BrokerId {
    /// Wraps a machine id that is known to be a broker.
    pub fn new(machine: MachineId) -> Self {
        BrokerId(machine)
    }

    /// Returns the underlying machine id.
    pub fn machine(self) -> MachineId {
        self.0
    }

    /// Returns the dense machine index.
    pub fn index(self) -> u32 {
        self.0.index()
    }
}

impl fmt::Display for BrokerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0.index())
    }
}

/// Identifier of a rack (the edge tier of the network tree).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RackId(u32);

impl RackId {
    /// Creates a rack id from its dense index.
    pub fn new(index: u32) -> Self {
        RackId(index)
    }

    /// Returns the dense index of this rack.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Returns the index as a `usize`.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rack{}", self.0)
    }
}

/// Identifier of a sub-tree of the cluster (a switch together with everything
/// below it).
///
/// DynaSoRe records access origins and makes replication decisions at the
/// granularity of sub-trees: a replica serves either the whole cluster or the
/// machines under one switch (§3.2, *Access statistics*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SubtreeId {
    /// The whole cluster (rooted at the top switch).
    Root,
    /// The sub-tree rooted at an intermediate switch.
    Intermediate(u32),
    /// The sub-tree rooted at a rack switch.
    Rack(u32),
    /// A single machine (leaf).
    Machine(u32),
}

impl fmt::Display for SubtreeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubtreeId::Root => write!(f, "root"),
            SubtreeId::Intermediate(i) => write!(f, "inter{i}"),
            SubtreeId::Rack(r) => write!(f, "rack{r}"),
            SubtreeId::Machine(m) => write!(f, "machine{m}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn user_id_round_trip() {
        let u = UserId::new(7);
        assert_eq!(u.index(), 7);
        assert_eq!(u.as_usize(), 7usize);
        assert_eq!(u32::from(u), 7);
        assert_eq!(UserId::from(7u32), u);
    }

    #[test]
    fn ids_are_hashable_and_distinct() {
        let mut set = HashSet::new();
        for i in 0..100 {
            set.insert(UserId::new(i));
        }
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn machine_wrappers_preserve_index() {
        let m = MachineId::new(12);
        assert_eq!(ServerId::new(m).index(), 12);
        assert_eq!(BrokerId::new(m).index(), 12);
        assert_eq!(ServerId::new(m).machine(), m);
        assert_eq!(BrokerId::new(m).machine(), m);
    }

    #[test]
    fn display_formats() {
        assert_eq!(UserId::new(3).to_string(), "u3");
        assert_eq!(MachineId::new(4).to_string(), "m4");
        assert_eq!(ServerId::new(MachineId::new(4)).to_string(), "s4");
        assert_eq!(BrokerId::new(MachineId::new(5)).to_string(), "b5");
        assert_eq!(RackId::new(2).to_string(), "rack2");
        assert_eq!(SubtreeId::Root.to_string(), "root");
        assert_eq!(SubtreeId::Intermediate(1).to_string(), "inter1");
        assert_eq!(SubtreeId::Rack(9).to_string(), "rack9");
        assert_eq!(SubtreeId::Machine(8).to_string(), "machine8");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(UserId::new(1) < UserId::new(2));
        assert!(RackId::new(0) < RackId::new(5));
        assert!(MachineId::new(3) < MachineId::new(30));
    }
}
