//! View utility estimation — Algorithm 1 of the paper (*Estimate Profit*).
//!
//! The utility of storing a replica of a view on a given server is the
//! network cost saved on reads (compared to serving its readers from the
//! next closest replica) minus the network cost of keeping the replica
//! up to date on writes:
//!
//! ```text
//! serverReadCost   = Σ_origins reads(origin) · cost(origin, server)
//! nearestReadCost  = Σ_origins reads(origin) · cost(origin, nearest)
//! serverWriteCost  = writes · cost(writeProxy, server)
//! profit           = nearestReadCost − serverReadCost − serverWriteCost
//! ```
//!
//! where `cost(a, b)` is the number of switches between the two locations.
//!
//! These functions are the algorithm as the paper writes it, one full sum
//! per question. The engine answers the same questions incrementally
//! (`evaluation.rs`, and the cached utilities of `engine/eviction.rs`);
//! this module is the specification the tests compare it with, and is
//! compiled for tests only.

use dynasore_topology::Topology;
use dynasore_types::MachineId;

use crate::stats::ReplicaStats;

/// Estimates the profit (in switch-crossings saved per statistics window) of
/// serving the readers recorded in `stats` from `candidate` rather than from
/// `nearest`, given that writes originate at `write_proxy`.
///
/// A positive profit means the candidate location saves more read traffic
/// than the writes it would additionally cost.
pub fn estimate_profit(
    topology: &Topology,
    stats: &ReplicaStats,
    candidate: MachineId,
    nearest: MachineId,
    write_proxy: MachineId,
) -> i64 {
    let mut candidate_read_cost = 0i64;
    let mut nearest_read_cost = 0i64;
    for (origin, reads) in stats.reads() {
        candidate_read_cost += reads as i64 * topology.origin_distance(candidate, origin) as i64;
        nearest_read_cost += reads as i64 * topology.origin_distance(nearest, origin) as i64;
    }
    let write_cost = stats.total_writes() as i64 * topology.distance(write_proxy, candidate) as i64;
    nearest_read_cost - candidate_read_cost - write_cost
}

/// Estimates the profit of *adding* a new replica of the view on
/// `candidate`, while the current replica on `current` stays in place.
///
/// This "simulat\[es\] its addition on one of the servers" (§3.2): only the
/// origins that the routing policy would redirect to the new replica — those
/// strictly closer to `candidate` than to `current` — contribute read gains;
/// all other readers keep using the existing replica. The cost of keeping
/// the new replica up to date on writes is charged in full.
pub fn estimate_creation_profit(
    topology: &Topology,
    stats: &ReplicaStats,
    candidate: MachineId,
    current: MachineId,
    write_proxy: MachineId,
) -> i64 {
    let mut gain = 0i64;
    for (origin, reads) in stats.reads() {
        let current_cost = topology.origin_distance(current, origin) as i64;
        let candidate_cost = topology.origin_distance(candidate, origin) as i64;
        if candidate_cost < current_cost {
            gain += reads as i64 * (current_cost - candidate_cost);
        }
    }
    let write_cost = stats.total_writes() as i64 * topology.distance(write_proxy, candidate) as i64;
    gain - write_cost
}

/// The utility of keeping an existing replica on `server`: the profit of
/// serving its current readers locally instead of from `nearest_other`
/// (the closest other replica). Sole replicas have infinite utility and can
/// never be evicted (§3.2, *Eviction of views*).
pub fn replica_utility(
    topology: &Topology,
    stats: &ReplicaStats,
    server: MachineId,
    nearest_other: Option<MachineId>,
    write_proxy: MachineId,
) -> f64 {
    match nearest_other {
        None => f64::INFINITY,
        Some(nearest) => estimate_profit(topology, stats, server, nearest, write_proxy) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_types::SubtreeId;

    fn topo() -> Topology {
        Topology::paper_tree().unwrap()
    }

    fn m(i: u32) -> MachineId {
        MachineId::new(i)
    }

    #[test]
    fn profit_rewards_moving_close_to_readers() {
        let topo = topo();
        let mut stats = ReplicaStats::new();
        // 10 reads from intermediate 1 (racks 5..10), currently served from
        // rack 0 (intermediate 0) at distance 5 per read.
        stats.record_reads(SubtreeId::Intermediate(1), 10);
        let current = m(1); // rack 0
        let candidate = m(51); // rack 5, intermediate 1
        let write_proxy = m(0); // broker of rack 0
                                // No writes: pure read gain (5 - 3) * 10 = 20.
        let profit = estimate_profit(&topo, &stats, candidate, current, write_proxy);
        assert_eq!(profit, 20);
        // Moving "to where it already is" gains nothing.
        assert_eq!(
            estimate_profit(&topo, &stats, current, current, write_proxy),
            0
        );
    }

    #[test]
    fn profit_charges_write_traffic() {
        let topo = topo();
        let mut stats = ReplicaStats::new();
        stats.record_reads(SubtreeId::Intermediate(1), 4);
        for _ in 0..10 {
            stats.record_write();
        }
        let current = m(1);
        let candidate = m(51);
        let write_proxy = m(0); // rack 0: writes to the candidate cross 5 switches
                                // Read gain (5-3)*4 = 8; write cost 10*5 = 50 → clearly negative.
        let profit = estimate_profit(&topo, &stats, candidate, current, write_proxy);
        assert_eq!(profit, 8 - 50);
    }

    #[test]
    fn creation_profit_only_counts_redirected_origins() {
        let topo = topo();
        let mut stats = ReplicaStats::new();
        // Readers spread over the local rack (well served already) and a
        // remote intermediate (badly served).
        stats.record_reads(SubtreeId::Rack(0), 50);
        stats.record_reads(SubtreeId::Intermediate(1), 10);
        let current = m(1); // rack 0
        let candidate = m(51); // intermediate 1
        let write_proxy = m(0);
        // Full-sum profit is dominated by the 50 local reads getting worse
        // (they would not actually move), so it is negative…
        assert!(estimate_profit(&topo, &stats, candidate, current, write_proxy) < 0);
        // …but the creation profit only counts the 10 redirected reads:
        // 10 × (5 − 3) = 20, minus no writes.
        assert_eq!(
            estimate_creation_profit(&topo, &stats, candidate, current, write_proxy),
            20
        );
        // Creating a replica right next to the current one gains nothing.
        assert_eq!(
            estimate_creation_profit(&topo, &stats, m(2), current, write_proxy),
            0
        );
    }

    #[test]
    fn creation_profit_still_charges_writes() {
        let topo = topo();
        let mut stats = ReplicaStats::new();
        stats.record_reads(SubtreeId::Intermediate(1), 4);
        for _ in 0..10 {
            stats.record_write();
        }
        let profit = estimate_creation_profit(&topo, &stats, m(51), m(1), m(0));
        // Read gain (5−3)×4 = 8, write cost 10×5 = 50.
        assert_eq!(profit, 8 - 50);
    }

    #[test]
    fn sole_replicas_have_infinite_utility() {
        let topo = topo();
        let stats = ReplicaStats::new();
        let u = replica_utility(&topo, &stats, m(1), None, m(0));
        assert!(u.is_infinite() && u > 0.0);
    }

    #[test]
    fn utility_is_profit_against_the_nearest_other_replica() {
        let topo = topo();
        let mut stats = ReplicaStats::new();
        // 6 reads from the local rack: served here at cost 1 each, or from a
        // replica in another intermediate at cost 5 each.
        stats.record_reads(SubtreeId::Rack(0), 6);
        stats.record_write();
        let here = m(1); // rack 0
        let other = m(51); // intermediate 1
        let write_proxy = m(0); // rack 0 broker, distance 1 to here
        let u = replica_utility(&topo, &stats, here, Some(other), write_proxy);
        // Read gain (5-1)*6 = 24, write cost 1*1 = 1.
        assert!((u - 23.0).abs() < 1e-9);
    }

    #[test]
    fn idle_replicas_have_non_positive_utility_against_alternatives() {
        let topo = topo();
        let mut stats = ReplicaStats::new();
        for _ in 0..3 {
            stats.record_write();
        }
        // No reads at all: utility is minus the write cost.
        let u = replica_utility(&topo, &stats, m(51), Some(m(1)), m(0));
        assert!(u < 0.0);
    }
}
