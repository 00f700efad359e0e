//! Proxy placement (§3.2, *Proxy placement*): after executing a request,
//! the proxy walks down from the root of the tree, at every step following
//! the branch from which most view data was transferred, until it reaches a
//! broker. If that broker differs from the current one, the proxy migrates.
//!
//! The routing policy (§3.2, *Routing policy*: a broker reads the replica
//! with which it shares the lowest common ancestor, ties by server id) is
//! [`DynaSoReEngine::closest_replica`](crate::DynaSoReEngine::closest_replica).
//!
//! The per-request transfer bookkeeping uses [`TransferTally`], a dense
//! counter array over the topology's node table with a touched list that the
//! engine reuses across requests, so the steady-state read/write path
//! neither hashes nor allocates.

use dynasore_topology::Topology;
use dynasore_types::{BrokerId, MachineId};

/// Reusable per-request tally of how many views were transferred from
/// under each node of the topology's node table, plus the list of touched
/// machines, so clearing costs O(touched) and recording costs O(1) with no
/// hashing or allocation. [`TransferTally::add`] counts at the machine's
/// node; the proxy walk sums the switches' nodes from the machines'.
#[derive(Debug, Clone)]
pub struct TransferTally {
    units: Vec<u64>,
    /// [`Topology::first_machine_node`].
    first_machine: usize,
    touched: Vec<u32>,
}

impl TransferTally {
    /// Creates a tally sized for `topology`.
    pub fn new(topology: &Topology) -> Self {
        TransferTally {
            units: vec![0; topology.node_count()],
            first_machine: topology.first_machine_node(),
            touched: Vec::with_capacity(32),
        }
    }

    /// Forgets every recorded transfer (O(touched), keeps capacity).
    pub fn clear(&mut self) {
        for &m in &self.touched {
            self.units[self.first_machine + m as usize] = 0;
        }
        self.touched.clear();
    }

    /// Records `units` views transferred from `machine`. Zero-unit records
    /// are ignored.
    pub fn add(&mut self, machine: MachineId, units: u64) {
        if units == 0 {
            return;
        }
        let node = self.first_machine + machine.as_usize();
        if self.units[node] == 0 {
            self.touched.push(machine.index());
        }
        self.units[node] += units;
    }

    /// Whether nothing was transferred.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }
}

/// Computes the broker that minimises network transfers for a proxy whose
/// requests fetched the views `tally` recorded from each server, by
/// walking down the tree from the root along the heaviest branch (§3.2,
/// *Proxy placement*): the heaviest intermediate node, the heaviest rack
/// node under it, then the heaviest touched broker in that rack or, if none
/// was touched, the rack's first live broker. Ties go to the lowest node.
/// On a tree no server is a broker, so the walk ends at the rack's first
/// live broker; on a flat layout every machine is one, so the proxy
/// co-locates with the heaviest server. Returns `None` if nothing was
/// transferred (or the chosen rack has no live broker).
///
/// Takes the tally mutably only to sum the switches' nodes, which it leaves
/// at zero again; the recorded transfers are unchanged.
pub fn optimal_proxy_broker(topology: &Topology, tally: &mut TransferTally) -> Option<BrokerId> {
    let TransferTally {
        units,
        first_machine,
        touched,
    } = tally;
    let first_machine = *first_machine;
    let switches = |m: u32| {
        let path = topology.machine_path(MachineId::new(m));
        let node = |level| path.node(level).expect("a machine is under a rack");
        (node(0), node(1))
    };
    // Weight each switch node by the views transferred from under it.
    for &m in touched.iter() {
        let transferred = units[first_machine + m as usize];
        let (inter, rack) = switches(m);
        units[inter] += transferred;
        units[rack] += transferred;
    }
    // The walk ends at the touched machine first in this order: heaviest
    // intermediate node, heaviest rack node, brokers before servers, then
    // its own weight — each weight's ties to the lower node.
    let heavier = |a: usize, b: usize| units[a].cmp(&units[b]).then(b.cmp(&a));
    let is_broker = |m: u32| topology.is_broker(MachineId::new(m));
    let mut end: Option<(u32, usize, usize)> = None;
    for &m in touched.iter() {
        let (inter, rack) = switches(m);
        let first = end.is_none_or(|(e, e_inter, e_rack)| {
            heavier(inter, e_inter)
                .then_with(|| heavier(rack, e_rack))
                .then_with(|| is_broker(m).cmp(&is_broker(e)))
                .then_with(|| heavier(first_machine + m as usize, first_machine + e as usize))
                .is_gt()
        });
        if first {
            end = Some((m, inter, rack));
        }
    }
    for &m in touched.iter() {
        let (inter, rack) = switches(m);
        units[inter] = 0;
        units[rack] = 0;
    }
    let machine = MachineId::new(end?.0);
    if topology.is_broker(machine) {
        return Some(BrokerId::new(machine));
    }
    // O(1) liveness-table lookup: never migrate a proxy onto a dead
    // broker (the heaviest rack's servers can outlive its brokers).
    topology.first_live_broker_in_rack(topology.rack_of(machine).ok()?)
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
        let units =
            |tally: &TransferTally, machine: usize| tally.units[tally.first_machine + machine];
        assert_eq!((units(&tally, 3), units(&tally, 7)), (5, 2));
        tally.clear();
        assert!(tally.is_empty());
        assert_eq!(units(&tally, 3), 0);
        tally.add(m(3), 1);
        assert_eq!(units(&tally, 3), 1);
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
