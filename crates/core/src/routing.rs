//! Routing policy and proxy placement.
//!
//! * **Routing policy** (§3.2, *Routing policy*): when several servers store
//!   a view, a broker reads the one with which it shares the lowest common
//!   ancestor, i.e. the replica reached through the fewest switches; ties
//!   are broken by server identifier.
//! * **Proxy placement** (§3.2, *Proxy placement*): after executing a
//!   request, the proxy walks down from the root of the tree, at every step
//!   following the branch from which most view data was transferred, until
//!   it reaches a broker. If that broker differs from the current one, the
//!   proxy migrates.
//!
//! The per-request transfer bookkeeping uses [`TransferTally`], a dense
//! counter array with a touched-list that the engine reuses across requests,
//! so the steady-state read/write path neither hashes nor allocates.

use dynasore_topology::{Topology, TopologyKind};
use dynasore_types::{BrokerId, MachineId, RackId};

/// Selects the replica a broker should read, following the lowest-common-
/// ancestor policy with server-id tie-breaking. Returns `None` when
/// `replicas` is empty.
pub fn closest_replica(
    topology: &Topology,
    broker: MachineId,
    replicas: &[MachineId],
) -> Option<MachineId> {
    replicas
        .iter()
        .copied()
        .min_by_key(|&server| (topology.distance(broker, server), server.index()))
}

/// Reusable per-request tally of how many views were transferred from each
/// machine: a dense `units` array indexed by machine plus the list of
/// touched machines, so clearing costs O(touched) and recording costs O(1)
/// with no hashing or allocation. Two scratch arrays (per rack and per
/// intermediate switch) support the proxy-placement tree walk.
#[derive(Debug, Clone)]
pub struct TransferTally {
    units: Vec<u64>,
    touched: Vec<u32>,
    rack_units: Vec<u64>,
    inter_units: Vec<u64>,
}

impl TransferTally {
    /// Creates a tally sized for `topology`.
    pub fn new(topology: &Topology) -> Self {
        TransferTally {
            units: vec![0; topology.machine_count()],
            touched: Vec::with_capacity(32),
            rack_units: vec![0; topology.rack_count()],
            inter_units: vec![0; topology.intermediate_count()],
        }
    }

    /// Forgets every recorded transfer (O(touched), keeps capacity).
    pub fn clear(&mut self) {
        for &m in &self.touched {
            self.units[m as usize] = 0;
        }
        self.touched.clear();
    }

    /// Records `units` views transferred from `machine`. Zero-unit records
    /// are ignored.
    pub fn add(&mut self, machine: MachineId, units: u64) {
        if units == 0 {
            return;
        }
        let m = machine.as_usize();
        if self.units[m] == 0 {
            self.touched.push(m as u32);
        }
        self.units[m] += units;
    }

    /// Whether nothing was transferred.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }
}

/// Computes the broker that minimises network transfers for a proxy whose
/// requests fetched the views `tally` recorded from each server, by
/// walking down the tree from the root along the heaviest branch (§3.2,
/// *Proxy placement*). Returns `None` if nothing was transferred. Ties are
/// broken towards the lowest-indexed branch, and in a flat cluster the
/// proxy co-locates with the heaviest server (ties by machine id).
///
/// Takes the tally mutably only to use its internal per-rack/per-
/// intermediate scratch arrays; the recorded transfers are unchanged.
pub fn optimal_proxy_broker(topology: &Topology, tally: &mut TransferTally) -> Option<BrokerId> {
    if tally.is_empty() {
        return None;
    }
    match topology.kind() {
        TopologyKind::Flat => {
            // In a flat cluster every machine is a broker: co-locate the
            // proxy with the heaviest server (ties by machine id).
            let mut best_machine = u32::MAX;
            let mut best_units = 0u64;
            for &m in &tally.touched {
                let units = tally.units[m as usize];
                if units > best_units || (units == best_units && m < best_machine) {
                    best_units = units;
                    best_machine = m;
                }
            }
            Some(BrokerId::new(MachineId::new(best_machine)))
        }
        TopologyKind::Tree => {
            // Weight each rack and intermediate switch by the views
            // transferred from the servers under it.
            for &m in &tally.touched {
                let machine = MachineId::new(m);
                let units = tally.units[m as usize];
                let rack = topology
                    .rack_of(machine)
                    .expect("tally only holds topology machines");
                let inter = topology.intermediate_of(machine).expect("checked above");
                tally.rack_units[rack.as_usize()] += units;
                tally.inter_units[inter as usize] += units;
            }
            // Walk root → heaviest intermediate → heaviest rack; a strict
            // `>` scan in index order matches the old walk's tie-breaking
            // (lowest-indexed branch wins).
            let mut best_inter = 0usize;
            let mut best_units = 0u64;
            for (i, &units) in tally.inter_units.iter().enumerate() {
                if units > best_units {
                    best_units = units;
                    best_inter = i;
                }
            }
            let first_rack = best_inter * topology.racks_per_intermediate();
            let mut best_rack = first_rack;
            let mut best_rack_units = 0u64;
            for r in first_rack
                ..(first_rack + topology.racks_per_intermediate()).min(tally.rack_units.len())
            {
                if tally.rack_units[r] > best_rack_units {
                    best_rack_units = tally.rack_units[r];
                    best_rack = r;
                }
            }
            // Reset the scratch accumulators for the next request.
            for &m in &tally.touched {
                let machine = MachineId::new(m);
                let rack = topology.rack_of(machine).expect("checked above");
                let inter = topology.intermediate_of(machine).expect("checked above");
                tally.rack_units[rack.as_usize()] = 0;
                tally.inter_units[inter as usize] = 0;
            }
            // O(1) liveness-table lookup: never migrate a proxy onto a dead
            // broker (the heaviest rack's servers can outlive its brokers).
            topology.first_live_broker_in_rack(RackId::new(best_rack as u32))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(i: u32) -> MachineId {
        MachineId::new(i)
    }

    fn tally_of(topology: &Topology, entries: &[(u32, u64)]) -> TransferTally {
        let mut tally = TransferTally::new(topology);
        for &(machine, units) in entries {
            tally.add(m(machine), units);
        }
        tally
    }

    #[test]
    fn closest_replica_prefers_lower_common_ancestor() {
        let topo = Topology::paper_tree().unwrap();
        let broker = m(0); // rack 0
                           // Candidate replicas: same rack (1), same intermediate (11), remote (51).
        let replicas = vec![m(51), m(11), m(1)];
        assert_eq!(closest_replica(&topo, broker, &replicas), Some(m(1)));
        let replicas = vec![m(51), m(11)];
        assert_eq!(closest_replica(&topo, broker, &replicas), Some(m(11)));
        assert_eq!(closest_replica(&topo, broker, &[]), None);
    }

    #[test]
    fn closest_replica_breaks_ties_by_server_id() {
        let topo = Topology::paper_tree().unwrap();
        let broker = m(0);
        // Machines 1 and 2 are both in rack 0 at distance 1.
        assert_eq!(closest_replica(&topo, broker, &[m(2), m(1)]), Some(m(1)));
    }

    #[test]
    fn proxy_walks_to_the_heaviest_rack() {
        let topo = Topology::paper_tree().unwrap();
        // 3 views transferred from rack 6 (machines 60..), 1 from rack 0.
        let mut tally = tally_of(&topo, &[(61, 2), (62, 1), (1, 1)]);
        let broker = optimal_proxy_broker(&topo, &mut tally).unwrap();
        assert_eq!(topo.rack_of(broker.machine()).unwrap().index(), 6);
        assert!(topo.is_broker(broker.machine()));
        // The walk's scratch is reset: the same tally yields the same
        // answer again.
        let again = optimal_proxy_broker(&topo, &mut tally).unwrap();
        assert_eq!(again, broker);
    }

    #[test]
    fn proxy_stays_put_when_nothing_was_transferred() {
        let topo = Topology::paper_tree().unwrap();
        let mut empty = TransferTally::new(&topo);
        assert!(optimal_proxy_broker(&topo, &mut empty).is_none());
        // Zero-unit records are ignored entirely.
        let mut zeros = TransferTally::new(&topo);
        zeros.add(m(1), 0);
        assert!(zeros.is_empty());
        assert!(optimal_proxy_broker(&topo, &mut zeros).is_none());
    }

    #[test]
    fn tally_clear_resets_counts() {
        let topo = Topology::paper_tree().unwrap();
        let mut tally = tally_of(&topo, &[(3, 5), (7, 2)]);
        assert_eq!((tally.units[3], tally.units[7]), (5, 2));
        tally.clear();
        assert!(tally.is_empty());
        assert_eq!(tally.units[3], 0);
        tally.add(m(3), 1);
        assert_eq!(tally.units[3], 1);
    }

    #[test]
    fn flat_topology_colocates_proxy_with_heaviest_server() {
        let topo = Topology::flat(10).unwrap();
        let mut tally = tally_of(&topo, &[(3, 5), (7, 2)]);
        let broker = optimal_proxy_broker(&topo, &mut tally).unwrap();
        assert_eq!(broker.machine(), m(3));
        // Ties go to the lowest machine id.
        let mut tied = tally_of(&topo, &[(8, 4), (2, 4)]);
        let broker = optimal_proxy_broker(&topo, &mut tied).unwrap();
        assert_eq!(broker.machine(), m(2));
    }
}
