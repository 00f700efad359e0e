//! Configuration of the DynaSoRe engine.

use dynasore_types::{Error, MemoryBudget, Result};

use crate::stats::MAX_WINDOW_SLOTS;

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
    /// An explicit assignment: `placement[user_index]` is the index of the
    /// server (position in `Topology::servers()`) holding the user's view.
    Explicit(Vec<u32>),
}

impl InitialPlacement {
    /// A short label used in engine names and reports.
    pub fn label(&self) -> &'static str {
        match self {
            InitialPlacement::Random { .. } => "random",
            InitialPlacement::Metis { .. } => "metis",
            InitialPlacement::HierarchicalMetis { .. } => "hmetis",
            InitialPlacement::Explicit(_) => "explicit",
        }
    }
}

/// Tuning parameters of the DynaSoRe engine. The defaults follow the values
/// given in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct DynaSoReConfig {
    /// Cluster-wide memory budget (number of views plus *x%* extra memory).
    pub budget: MemoryBudget,
    /// Number of periods in the rotating access-statistics window
    /// (24 one-hour slots in §4.3), at most [`MAX_WINDOW_SLOTS`].
    pub counter_slots: usize,
    /// Fraction of a server's memory that should be occupied by views whose
    /// utility exceeds the admission threshold (0.9 in §3.2, *Replication of
    /// views*).
    pub admission_fill_target: f64,
    /// Occupancy above which the background eviction process starts
    /// removing the least useful replicas (0.95 in §3.2, *Eviction of
    /// views*).
    pub eviction_threshold: f64,
    /// Occupancy the eviction sweep tries to bring a server back to.
    pub eviction_target: f64,
    /// Congestion-aware placement: how many profit units (switch crossings
    /// saved per statistics window) one full second of queueing delay at a
    /// candidate rack's switch costs. Replica creation and migration
    /// subtract `delay_secs × this` from a candidate's estimated profit, so
    /// replicas steer away from congested racks. The congestion signal comes
    /// from the driver's [`dynasore_types::TrafficSink::congestion`]; unit
    /// count sinks report zero delay, leaving decisions untouched. Set to 0
    /// to disable entirely.
    pub congestion_penalty_per_sec: f64,
}

impl DynaSoReConfig {
    /// Creates a configuration with the paper's defaults for the given
    /// memory budget.
    pub fn new(budget: MemoryBudget) -> Self {
        DynaSoReConfig {
            budget,
            counter_slots: 24,
            admission_fill_target: 0.90,
            eviction_threshold: 0.95,
            eviction_target: 0.90,
            congestion_penalty_per_sec: 500.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any fraction is outside `(0, 1]`,
    /// the eviction target is not below the eviction threshold, or the
    /// counter window is empty or longer than the statistics can keep apart.
    pub fn validate(&self) -> Result<()> {
        if !(1..=MAX_WINDOW_SLOTS).contains(&self.counter_slots) {
            return Err(Error::invalid_config(format!(
                "counter_slots must be in 1..={MAX_WINDOW_SLOTS}"
            )));
        }
        for (name, value) in [
            ("admission_fill_target", self.admission_fill_target),
            ("eviction_threshold", self.eviction_threshold),
            ("eviction_target", self.eviction_target),
        ] {
            if !(0.0..=1.0).contains(&value) || value == 0.0 {
                return Err(Error::invalid_config(format!("{name} must be in (0, 1]")));
            }
        }
        if self.eviction_target > self.eviction_threshold {
            return Err(Error::invalid_config(
                "eviction_target must not exceed eviction_threshold",
            ));
        }
        if !self.congestion_penalty_per_sec.is_finite() || self.congestion_penalty_per_sec < 0.0 {
            return Err(Error::invalid_config(
                "congestion_penalty_per_sec must be finite and non-negative",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let c = DynaSoReConfig::new(MemoryBudget::with_extra_percent(100, 30));
        assert_eq!(c.counter_slots, 24);
        assert!((c.admission_fill_target - 0.90).abs() < 1e-12);
        assert!((c.eviction_threshold - 0.95).abs() < 1e-12);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_fractions() {
        let budget = MemoryBudget::exact(10);
        let mut c = DynaSoReConfig::new(budget);
        c.counter_slots = 0;
        assert!(c.validate().is_err());
        // One period label per slot: the limit passes, one past it would
        // make periods alias.
        c.counter_slots = MAX_WINDOW_SLOTS;
        assert!(c.validate().is_ok());
        c.counter_slots = MAX_WINDOW_SLOTS + 1;
        assert!(c.validate().is_err());

        let mut c = DynaSoReConfig::new(budget);
        c.admission_fill_target = 0.0;
        assert!(c.validate().is_err());

        let mut c = DynaSoReConfig::new(budget);
        c.eviction_threshold = 1.2;
        assert!(c.validate().is_err());

        let mut c = DynaSoReConfig::new(budget);
        c.eviction_target = 0.99;
        c.eviction_threshold = 0.95;
        assert!(c.validate().is_err());
    }

    #[test]
    fn congestion_penalty_is_validated() {
        let budget = MemoryBudget::exact(10);
        let mut c = DynaSoReConfig::new(budget);
        assert!((c.congestion_penalty_per_sec - 500.0).abs() < 1e-12);
        c.congestion_penalty_per_sec = -1.0;
        assert!(c.validate().is_err());
        c.congestion_penalty_per_sec = f64::NAN;
        assert!(c.validate().is_err());
        c.congestion_penalty_per_sec = 0.0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn placement_labels() {
        assert_eq!(InitialPlacement::Random { seed: 1 }.label(), "random");
        assert_eq!(InitialPlacement::Metis { seed: 1 }.label(), "metis");
        assert_eq!(
            InitialPlacement::HierarchicalMetis { seed: 1 }.label(),
            "hmetis"
        );
        assert_eq!(InitialPlacement::Explicit(vec![0, 1]).label(), "explicit");
    }
}
