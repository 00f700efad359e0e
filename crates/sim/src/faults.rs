//! Probabilistic failure injection: seeded MTBF-driven outage schedules.
//!
//! Explicit [`TimedClusterEvent`] schedules are great for pinning one
//! scenario, but long soak runs need the scenario space explored
//! automatically. This module turns a [`Topology`], a seed and a horizon
//! into a deterministic failure schedule: every machine fails as an
//! independent exponential process (30-day MTBF), repairs take exponential
//! time (2-hour MTTR), and 5 % of failures escalate to the whole rack — the
//! correlated failure mode (shared switch or power domain) that rack-aware
//! placement exists for.
//!
//! The generator is a discrete-event loop over a priority queue of pending
//! per-machine failure times, so the produced stream is fully determined by
//! the seed: the same `(topology, seed, horizon)` always yields byte-identical
//! schedules, which keeps soak runs reproducible and lets the determinism
//! tests compare entire simulation reports.
//!
//! Outage processes are independent, exactly like real repair crews: a
//! machine repaired during an overlapping rack outage comes back early, and
//! a rack outage may re-kill a machine that was already down. Engines and
//! topologies treat cluster events idempotently, so such overlaps are
//! harmless by construction.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dynasore_topology::Topology;
use dynasore_types::{
    ClusterEvent, Error, MachineId, Result, SimTime, SubtreeId, TimedClusterEvent, DAY_SECS,
    HOUR_SECS,
};

/// Mean time between failures of one machine (reproduction choice: the
/// paper models no failures). Failure inter-arrivals are exponential with
/// this mean.
const MACHINE_MTBF_SECS: u64 = 30 * DAY_SECS;

/// Mean time to repair a machine or rack (reproduction choice;
/// exponential).
const MACHINE_MTTR_SECS: u64 = 2 * HOUR_SECS;

/// Probability that a machine failure escalates to its whole rack — the
/// correlated-failure factor of a shared top-of-rack switch or power domain
/// (reproduction choice).
const RACK_FAILURE_FRACTION: f64 = 0.05;

/// Draws an exponential duration with the given mean, clamped to ≥ 1 s.
fn exponential_secs(rng: &mut StdRng, mean_secs: u64) -> u64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    ((-(1.0 - u).ln()) * mean_secs as f64).max(1.0) as u64
}

/// Generates a deterministic failure schedule for `topology`: a time-sorted
/// stream of machine/rack outages and their repairs, ready for
/// [`crate::Simulation::with_cluster_events`]. The stream is fully
/// determined by `seed`. Failures are generated up to (excluding)
/// `horizon_secs`; matching repairs may land after it so every outage ends.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when the horizon is zero.
pub fn generate_failure_schedule(
    topology: &Topology,
    seed: u64,
    horizon_secs: u64,
) -> Result<Vec<TimedClusterEvent>> {
    if horizon_secs == 0 {
        return Err(Error::invalid_config("failure horizon must be positive"));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let machines = topology.machine_count() as u32;

    // Pending next-failure instant per machine; the heap may hold stale
    // entries (a rack escalation reschedules all its members), recognised by
    // disagreeing with this table and skipped.
    let mut next_failure: Vec<u64> = Vec::with_capacity(machines as usize);
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(machines as usize);
    for m in 0..machines {
        let t = exponential_secs(&mut rng, MACHINE_MTBF_SECS);
        next_failure.push(t);
        heap.push(Reverse((t, m)));
    }

    let mut events = Vec::new();
    while let Some(Reverse((t, m))) = heap.pop() {
        if next_failure[m as usize] != t {
            continue; // Stale entry superseded by a rack escalation.
        }
        if t >= horizon_secs {
            break; // Heap pops in time order: everything left is beyond.
        }
        let machine = MachineId::new(m);
        let down_at = SimTime::from_secs(t);
        let repair = exponential_secs(&mut rng, MACHINE_MTTR_SECS);
        let up_at = SimTime::from_secs(t + repair);
        if rng.gen_bool(RACK_FAILURE_FRACTION) {
            let rack = topology.rack_of(machine)?;
            events.push(TimedClusterEvent {
                time: down_at,
                event: ClusterEvent::RackDown { rack },
            });
            events.push(TimedClusterEvent {
                time: up_at,
                event: ClusterEvent::RackUp { rack },
            });
            // Every machine of the rack restarts its failure clock after
            // the rack repair (machine-id order keeps the rng stream
            // deterministic).
            for member in topology.machines_in_subtree(SubtreeId::Rack(rack.index())) {
                let next = t + repair + exponential_secs(&mut rng, MACHINE_MTBF_SECS);
                next_failure[member.as_usize()] = next;
                heap.push(Reverse((next, member.index())));
            }
        } else {
            events.push(TimedClusterEvent {
                time: down_at,
                event: ClusterEvent::MachineDown { machine },
            });
            events.push(TimedClusterEvent {
                time: up_at,
                event: ClusterEvent::MachineUp { machine },
            });
            let next = t + repair + exponential_secs(&mut rng, MACHINE_MTBF_SECS);
            next_failure[m as usize] = next;
            heap.push(Reverse((next, m)));
        }
    }
    events.sort_by_key(|e| e.time);
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOAK_SEED: u64 = 7;
    /// A year of a 16-machine tree: ≈ 195 machine failures at the 30-day
    /// MTBF, so the 5 % rack escalation shows up too.
    const SOAK_HORIZON_SECS: u64 = 365 * DAY_SECS;

    fn soak_topology() -> Topology {
        Topology::tree(2, 2, 4, 1).unwrap()
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        assert!(generate_failure_schedule(&soak_topology(), SOAK_SEED, 0).is_err());
        assert!(generate_failure_schedule(&soak_topology(), SOAK_SEED, 1).is_ok());
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let topology = soak_topology();
        let a = generate_failure_schedule(&topology, SOAK_SEED, SOAK_HORIZON_SECS).unwrap();
        let b = generate_failure_schedule(&topology, SOAK_SEED, SOAK_HORIZON_SECS).unwrap();
        assert_eq!(a, b, "same seed must reproduce the schedule exactly");
        assert!(!a.is_empty(), "a year of outages must produce failures");
        let other = generate_failure_schedule(&topology, SOAK_SEED + 1, SOAK_HORIZON_SECS).unwrap();
        assert_ne!(a, other, "different seeds must explore different runs");
    }

    #[test]
    fn schedules_are_sorted_valid_and_paired() {
        let topology = soak_topology();
        let events = generate_failure_schedule(&topology, SOAK_SEED, SOAK_HORIZON_SECS).unwrap();
        let mut last = SimTime::ZERO;
        let mut downs = 0usize;
        let mut ups = 0usize;
        for e in &events {
            assert!(e.time >= last, "events must be time-sorted");
            last = e.time;
            match e.event {
                ClusterEvent::MachineDown { machine } | ClusterEvent::MachineUp { machine } => {
                    assert!(topology.contains(machine));
                    if matches!(e.event, ClusterEvent::MachineDown { .. }) {
                        assert!(e.time.as_secs() < SOAK_HORIZON_SECS);
                        downs += 1;
                    } else {
                        ups += 1;
                    }
                }
                ClusterEvent::RackDown { rack } | ClusterEvent::RackUp { rack } => {
                    assert!(rack.as_usize() < topology.rack_count());
                    if matches!(e.event, ClusterEvent::RackDown { .. }) {
                        assert!(e.time.as_secs() < SOAK_HORIZON_SECS);
                        downs += 1;
                    } else {
                        ups += 1;
                    }
                }
                ClusterEvent::DrainMachine { .. }
                | ClusterEvent::AddRack
                | ClusterEvent::RemoveRack { .. } => {
                    panic!("failure injection only produces outages and repairs");
                }
            }
        }
        assert_eq!(downs, ups, "every outage must come with a repair");
        // A year of 16 machines sees both failure modes.
        assert!(events
            .iter()
            .any(|e| matches!(e.event, ClusterEvent::RackDown { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.event, ClusterEvent::MachineDown { .. })));
    }

    #[test]
    fn generated_schedules_drive_a_simulation_deterministically() {
        use crate::Simulation;
        use dynasore_core::{DynaSoReEngine, InitialPlacement};
        use dynasore_graph::{GraphPreset, SocialGraph};
        use dynasore_types::MemoryBudget;
        use dynasore_workload::SyntheticTraceGenerator;

        let users = 200usize;
        let graph = SocialGraph::generate(GraphPreset::FacebookLike, users, 3).unwrap();
        let topology = soak_topology();
        // Two days of 16 machines at a 30-day MTBF: seed 11 downs a server.
        let schedule = generate_failure_schedule(&topology, 11, 2 * DAY_SECS).unwrap();
        assert!(!schedule.is_empty());
        let run = || {
            let engine = DynaSoReEngine::builder()
                .topology(topology.clone())
                .budget(MemoryBudget::with_extra_percent(users, 40))
                .initial_placement(InitialPlacement::Random { seed: 3 })
                .build(&graph)
                .unwrap();
            let trace = SyntheticTraceGenerator::paper_defaults(&graph, 2, 3).unwrap();
            Simulation::new(topology.clone(), engine, &graph)
                .with_cluster_events(schedule.clone())
                .run(trace)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "soak run must be reproducible");
        assert!(
            a.recovery_messages() > 0,
            "outages must cost recovery traffic"
        );
    }
}
