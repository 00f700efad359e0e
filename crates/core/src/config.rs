//! Configuration of the DynaSoRe engine: where the views start. Everything
//! else the paper fixes is a constant beside the code that reads it.

/// How the views are laid out before DynaSoRe starts reacting to traffic
/// (§4.4, *Initial data placement*).
///
/// "For DynaSoRe, the system is deployed on an existing social platform and
/// uses this configuration as an initial setup. It then modifies this
/// initial view placement by reacting to the request traffic."
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitialPlacement {
    /// Views are assigned to servers uniformly at random (hash placement,
    /// like Memcached/Redis).
    Random {
        /// Seed of the random assignment.
        seed: u64,
    },
    /// Views are assigned according to a flat METIS-style partition of the
    /// social graph into one part per server.
    Metis {
        /// Seed of the partitioner.
        seed: u64,
    },
    /// Views are assigned according to a hierarchical partition following
    /// the cluster tree (intermediate switches → racks → servers).
    HierarchicalMetis {
        /// Seed of the partitioner.
        seed: u64,
    },
}

impl InitialPlacement {
    /// A short label used in engine names and reports.
    pub fn label(&self) -> &'static str {
        match self {
            InitialPlacement::Random { .. } => "random",
            InitialPlacement::Metis { .. } => "metis",
            InitialPlacement::HierarchicalMetis { .. } => "hmetis",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_labels() {
        assert_eq!(InitialPlacement::Random { seed: 1 }.label(), "random");
        assert_eq!(InitialPlacement::Metis { seed: 1 }.label(), "metis");
        assert_eq!(
            InitialPlacement::HierarchicalMetis { seed: 1 }.label(),
            "hmetis"
        );
    }
}
