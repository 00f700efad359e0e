//! One engine, two drivers, the same decisions. The trace-driven
//! `Simulation` and the serving `Cluster` both drive a `DynaSoReEngine`;
//! fed the same requests and cluster events in the same order, the engine
//! must leave every view with the same replicas and fetch the same lost
//! views from the persistent tier under either driver.
//!
//! `Cluster` never runs the engine's hourly maintenance tick, so the replay
//! stops before the simulator's first tick: it covers the requests of the
//! first simulated hour, with machine and rack outages and repairs inside
//! that hour.

use dynasore::prelude::*;
use dynasore::types::RackId;

const USERS: usize = 800;
const EXTRA_MEMORY_PERCENT: u32 = 30;

fn topology() -> Topology {
    Topology::tree(3, 3, 4, 1).unwrap() // 9 racks, 27 servers, 9 brokers.
}

/// An outage and a repair of one server and of one rack, inside the hour.
fn outages(topology: &Topology) -> Vec<TimedClusterEvent> {
    let machine = topology.servers()[0].machine();
    let rack = RackId::new(4);
    let at = |minutes: u64, event| TimedClusterEvent {
        time: SimTime::from_secs(minutes * 60),
        event,
    };
    vec![
        at(10, ClusterEvent::MachineDown { machine }),
        at(20, ClusterEvent::RackDown { rack }),
        at(30, ClusterEvent::MachineUp { machine }),
        at(40, ClusterEvent::RackUp { rack }),
    ]
}

#[test]
fn simulation_and_cluster_make_the_same_placement_decisions() {
    for seed in [1, 7, 23, 42] {
        let graph = SocialGraph::generate(GraphPreset::FacebookLike, USERS, seed).unwrap();
        let topology = topology();
        let config = StoreConfig {
            extra_memory_percent: EXTRA_MEMORY_PERCENT,
            placement: InitialPlacement::Random { seed },
            seed,
        };
        let trace: Vec<Request> = SyntheticTraceGenerator::paper_defaults(&graph, 1, seed)
            .unwrap()
            .take_while(|r| r.time < SimTime::from_hours(1))
            .collect();
        assert!(trace.iter().any(Request::is_read) && !trace.iter().all(Request::is_read));
        let events = outages(&topology);

        let engine = DynaSoReEngine::builder()
            .topology(topology.clone())
            .budget(MemoryBudget::with_extra_percent(
                USERS,
                EXTRA_MEMORY_PERCENT,
            ))
            .initial_placement(config.placement.clone())
            .build(&graph)
            .unwrap();
        let mut sim =
            Simulation::new(topology.clone(), engine, &graph).with_cluster_events(events.clone());
        let report = sim.run(trace.clone()).unwrap();

        // Each event applies before the first request at or after its time,
        // as the simulator applies it.
        let mut cluster = Cluster::spawn(&graph, topology, config).unwrap();
        let mut pending = events.iter().peekable();
        let mut recovery_messages = 0;
        for request in &trace {
            while let Some(e) = pending.next_if(|e| e.time <= request.time) {
                recovery_messages += cluster.apply_event(e.event).unwrap().recovery_messages;
            }
            if request.is_read() {
                cluster.read_feed(request.user).unwrap();
            } else {
                cluster.write(request.user, vec![0; 8]).unwrap();
            }
        }
        assert!(pending.next().is_none(), "seed {seed}: every event fired");

        for user in graph.users() {
            assert_eq!(
                sim.engine().replica_count(user),
                cluster.replica_count(user),
                "seed {seed}: replicas of {user:?}"
            );
        }
        assert!(recovery_messages > 0, "seed {seed}: no lost master");
        assert_eq!(recovery_messages, report.recovery_messages(), "seed {seed}");
        cluster.shutdown().unwrap();
    }
}
