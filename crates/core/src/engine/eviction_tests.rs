//! The rescan the cached utilities replaced, kept as test-only oracle code,
//! and the property test that pins the cache to it.

use super::evaluation_tests::{test_engine, test_topology, RecordingSink, USERS};
use super::*;
use crate::stats::{ReplicaStats, COUNTER_SLOTS};
use crate::utility::replica_utility;
use dynasore_graph::GraphPreset;
use dynasore_types::RackId;
use proptest::prelude::*;

impl DynaSoReEngine {
    /// The closest other replica of `view` as seen from `sidx`, by the
    /// topology's own distances.
    fn rescan_nearest_other(&self, view: UserId, sidx: usize) -> Option<MachineId> {
        let machine = self.servers[sidx].machine();
        self.users[view.as_usize()]
            .replicas
            .iter()
            .filter(|r| r.server() != sidx)
            .map(|r| self.servers[r.server()].machine())
            .min_by_key(|&other| (self.topology.distance(machine, other), other.index()))
    }

    /// The utility of a stored replica straight from the specification.
    fn rescan_utility(&self, view: UserId, stats: &ReplicaStats, sidx: usize) -> f64 {
        replica_utility(
            &self.topology,
            stats,
            self.servers[sidx].machine(),
            self.rescan_nearest_other(view, sidx),
            self.users[view.as_usize()].write_proxy.machine(),
        )
    }

    /// Victim selection exactly as it ran before utilities were cached: the
    /// utility of every stored view recomputed, the lowest finite one of a
    /// view with other replicas wins, ties by [`UserId`].
    fn rescan_victim(&self, sidx: usize) -> Option<UserId> {
        let mut victim: Option<(f64, UserId)> = None;
        for (view, stats) in self.servers[sidx].views() {
            if self.users[view.as_usize()].replicas.len() <= 1 {
                continue;
            }
            let utility = self.rescan_utility(view, stats, sidx);
            if !utility.is_finite() {
                continue;
            }
            let better = match victim {
                None => true,
                Some((best, best_view)) => utility < best || (utility == best && view < best_view),
            };
            if better {
                victim = Some((utility, view));
            }
        }
        victim.map(|(_, view)| view)
    }
}

/// After refreshing only the slots marked stale, every cached utility must
/// equal the specification and the cached victim the rescan victim, on
/// every server.
pub(super) fn assert_cache_matches_rescan(
    engine: &mut DynaSoReEngine,
    context: &str,
) -> Result<(), TestCaseError> {
    for sidx in 0..engine.servers.len() {
        engine.refresh_utilities(sidx);
        let server = &engine.servers[sidx];
        // Both iterate the occupied slots in slot order.
        for ((view, stats), (_, cached)) in server.views().zip(server.cached_utilities()) {
            let expected = engine.rescan_utility(view, stats, sidx);
            prop_assert!(
                cached == expected,
                "{}: view {} on server {}: cached {} but rescan {}",
                context,
                view,
                sidx,
                cached,
                expected
            );
        }
        prop_assert_eq!(
            engine.eviction_victim(sidx),
            engine.rescan_victim(sidx),
            "{}: victim of server {}",
            context,
            sidx
        );
    }
    Ok(())
}

/// Applies step `(kind, (a, b))` of a random run to `engine`: a read, a
/// write, half a window of ticks, a write burst or a [`ClusterEvent`].
pub(super) fn apply_step(
    engine: &mut DynaSoReEngine,
    graph: &SocialGraph,
    out: &mut RecordingSink,
    time: SimTime,
    (kind, (a, b)): (u32, (u32, u32)),
) -> String {
    let user = UserId::new(a % USERS as u32);
    let machine = MachineId::new(a % engine.topology.machine_count() as u32);
    let rack = RackId::new(a % engine.topology.rack_count() as u32);
    let event = match kind {
        0..=39 => {
            engine.handle_read(user, graph.followees(user), time, out);
            return format!("read by {user}");
        }
        40..=57 => {
            // Enough writes that replicas outweigh the proxy's own rack and
            // the write proxy migrates.
            engine.handle_write(user, time, out);
            return format!("write by {user}");
        }
        58..=65 => {
            // Half the statistics window per step, so the ticks of a run
            // expire counters: traffic leaves the window two steps later.
            for _ in 0..COUNTER_SLOTS / 2 {
                engine.on_tick(time, out);
            }
            return "tick".to_string();
        }
        66..=75 => {
            // A write burst over many users, so proxy migrations pile up
            // between two checks.
            for k in 0..40 {
                let writer = UserId::new((a + k * (1 + b % 7)) % USERS as u32);
                engine.handle_write(writer, time, out);
            }
            return format!("write burst from {user}");
        }
        76..=80 => ClusterEvent::MachineDown { machine },
        81..=85 => ClusterEvent::MachineUp { machine },
        86..=89 => ClusterEvent::DrainMachine { machine },
        90..=92 => ClusterEvent::AddRack,
        93..=95 => ClusterEvent::RemoveRack { rack },
        96..=97 => ClusterEvent::RackDown { rack },
        _ => ClusterEvent::RackUp { rack },
    };
    // Random picks include events the topology refuses (a retired rack,
    // say); a refusal changes nothing.
    match engine.on_cluster_change(event, out) {
        Ok(()) => format!("{event:?}"),
        Err(e) => format!("{event:?}, refused: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The cache is equivalent to the rescan under churn: reads, writes,
    /// ticks, write-proxy migrations (write-heavy users, failed brokers),
    /// write bursts, machine and rack failures and repairs, drains,
    /// elastic growth and shrink, on a tree and on a flat cluster, with
    /// memory tight enough that admissions evict. Checked after every step,
    /// or — so stale marks also pile up across steps — after every few.
    #[test]
    fn cached_utilities_are_equivalent_to_rescan_under_churn(
        shape in (proptest::bool::ANY, 5u32..150),
        check_every in 1usize..4,
        steps in proptest::collection::vec((0u32..100, (0u32..10_000, 0u32..10_000)), 40..140),
    ) {
        // Little extra memory makes admissions evict; a lot lets views grow
        // third replicas, whose nearest other replica a creation moves.
        let (flat, extra) = shape;
        let graph = SocialGraph::generate(GraphPreset::FacebookLike, USERS, 3).unwrap();
        let mut engine = DynaSoReEngine::builder()
            .topology(test_topology(flat))
            .budget(MemoryBudget::with_extra_percent(USERS, extra))
            .initial_placement(InitialPlacement::Random { seed: 5 })
            .build(&graph)
            .unwrap();
        let mut out = RecordingSink::default();
        assert_cache_matches_rescan(&mut engine, "initial")?;
        for (n, &step) in steps.iter().enumerate() {
            let time = SimTime::from_secs(n as u64 * 600);
            let what = apply_step(&mut engine, &graph, &mut out, time, step);
            if n % check_every == 0 {
                assert_cache_matches_rescan(&mut engine, &format!("step {n}, after {what}"))?;
            }
        }
        assert_cache_matches_rescan(&mut engine, "final")?;
    }
}

/// Every replica's view, server, window totals and utility, in server and
/// slot order.
type ReplicaRecord = (usize, UserId, Vec<(SubtreeId, u64)>, u64, f64);

fn replica_records(engine: &DynaSoReEngine) -> Vec<ReplicaRecord> {
    let servers = 0..engine.servers.len();
    let records = servers.flat_map(|sidx| {
        engine.servers[sidx].views().map(move |(view, stats)| {
            let utility = engine.rescan_utility(view, stats, sidx);
            let reads = stats.reads().collect();
            (sidx, view, reads, stats.total_writes(), utility)
        })
    });
    records.collect()
}

/// Statistics are keyed by sub-tree ids, which an `AddRack` does not
/// shift — it does shift the topology's node indices, of the racks too
/// when it opens an intermediate switch, as here. Statistics recorded
/// before it read the same and give the same utilities after it.
#[test]
fn statistics_recorded_before_an_added_rack_read_the_same_after_it() {
    let graph = SocialGraph::generate(GraphPreset::FacebookLike, USERS, 3).unwrap();
    let mut engine = test_engine(&graph, &test_topology(false), 30);
    let mut out = RecordingSink::default();
    for n in 0..600u64 {
        let user = UserId::new((n * 7 % USERS as u64) as u32);
        let time = SimTime::from_secs(n * 600);
        engine.handle_read(user, graph.followees(user), time, &mut out);
        if n % 3 == 0 {
            engine.handle_write(user, time, &mut out);
        }
        if n % 6 == 5 {
            engine.on_tick(time, &mut out);
        }
    }
    let before = replica_records(&engine);
    let origins: Vec<SubtreeId> = before
        .iter()
        .flat_map(|(_, _, reads, _, _)| reads.iter().map(|&(origin, _)| origin))
        .collect();
    assert!(origins.iter().any(|o| matches!(o, SubtreeId::Rack(_))));
    assert!(origins
        .iter()
        .any(|o| matches!(o, SubtreeId::Intermediate(_))));
    let cached = |engine: &mut DynaSoReEngine| -> Vec<Vec<(UserId, f64)>> {
        let servers = 0..engine.servers.len();
        servers
            .map(|sidx| {
                engine.refresh_utilities(sidx);
                engine.servers[sidx].cached_utilities().collect()
            })
            .collect()
    };
    let cached_before = cached(&mut engine);

    let intermediates = engine.topology.intermediate_count();
    engine
        .on_cluster_change(ClusterEvent::AddRack, &mut out)
        .unwrap();
    assert_eq!(engine.topology.intermediate_count(), intermediates + 1);
    assert_eq!(replica_records(&engine), before);
    let mut cached_after = cached(&mut engine);
    assert!(cached_after
        .drain(cached_before.len()..)
        .all(|c| c.is_empty()));
    assert_eq!(cached_after, cached_before);
}
