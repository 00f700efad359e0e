//! Tests of the per-subtree candidate sets (`engine/load.rs`): the
//! two-list rule the single list replaced, kept as the specification, and
//! the checks that the cached answers, the exact scan and the incremental
//! updates all agree with it.

use super::tests::engine_with_extra;
use super::*;
use proptest::prelude::*;

/// Every subtree of `topology` that keeps a candidate set: each rack, each
/// intermediate switch and the root.
fn subtrees_with_sets(topology: &Topology) -> impl Iterator<Item = SubtreeId> {
    let racks = (0..topology.rack_count() as u32).map(SubtreeId::Rack);
    let inters = (0..topology.intermediate_count() as u32).map(SubtreeId::Intermediate);
    racks.chain(inters).chain([SubtreeId::Root])
}

/// An exclusion list naming `servers`: only the server half of a replica
/// takes part in a least-loaded query.
fn on_servers(servers: impl IntoIterator<Item = usize>) -> Vec<Replica> {
    let replica = |server: usize| Replica {
        server: server as u32,
        slot: 0,
    };
    servers.into_iter().map(replica).collect()
}

impl DynaSoReEngine {
    /// The specification of [`DynaSoReEngine::least_loaded_server_in`] for
    /// a rack, intermediate or root `origin`: the least `(len, ordinal)`
    /// among the live servers with a free slot, else among all live
    /// servers, never an excluded one. Written as the two separate minima
    /// the candidate sets used to keep, so it does not assume what the
    /// single list relies on (every server has the same capacity).
    fn least_loaded_two_list_rule(&self, origin: SubtreeId, exclude: &[Replica]) -> Option<usize> {
        let mut best_any: Option<(usize, usize)> = None; // (len, index)
        let mut best_with_room: Option<(usize, usize)> = None;
        for server in self.topology.servers_in_subtree_slice(origin) {
            if !self.topology.is_live(server.machine()) {
                continue;
            }
            let Some(i) = self.topology.server_ordinal(server.machine()) else {
                continue;
            };
            if exclude.iter().any(|r| r.server() == i) {
                continue;
            }
            let key = (self.servers[i].len(), i);
            if best_any.is_none_or(|b| key < b) {
                best_any = Some(key);
            }
            if !self.servers[i].is_full() && best_with_room.is_none_or(|b| key < b) {
                best_with_room = Some(key);
            }
        }
        best_with_room.or(best_any).map(|(_, i)| i)
    }
}

#[test]
fn load_cache_matches_exact_scan_after_heavy_churn() {
    // Hammer the engine so replicas are created, migrated and evicted,
    // then check the cached least-loaded answers against the exact scan
    // for every subtree and several realistic exclusion lists.
    let (mut engine, graph, topology) = engine_with_extra(30);
    let mut out = Vec::new();
    for round in 0..10u64 {
        for u in (0..400u32).step_by(5) {
            let user = UserId::new(u);
            let targets: Vec<UserId> = graph.followees(user).to_vec();
            engine.handle_read(user, &targets, SimTime::from_secs(round * 60), &mut out);
        }
        engine.on_tick(SimTime::from_hours(round + 1), &mut out);
        out.clear();
    }
    let origins: Vec<SubtreeId> = subtrees_with_sets(&topology).collect();
    let exclusions: Vec<Vec<Replica>> = (0..40)
        .map(|u| engine.users[u].replicas.clone())
        .chain([vec![], on_servers(0..6)])
        .collect();
    for &origin in &origins {
        for exclude in &exclusions {
            assert_eq!(
                engine.least_loaded_server_in(origin, exclude),
                engine.least_loaded_scan(origin, exclude),
                "origin {origin}, exclude {exclude:?}"
            );
        }
    }
}

/// The incremental top-K update must leave every candidate set exactly
/// as an exact rescan would build it.
fn assert_cache_equals_rescan(engine: &DynaSoReEngine, context: &str) {
    for subtree in subtrees_with_sets(&engine.topology) {
        assert_eq!(
            engine.loads.get(&engine.topology, subtree),
            Some(&engine.build_candidate_set(engine.topology.servers_in_subtree_slice(subtree))),
            "{context}: {subtree} candidate set diverged from rescan"
        );
    }
}

#[test]
fn incremental_load_cache_is_equivalent_to_rescan_under_churn() {
    // Tight memory (10% extra) keeps servers near full so the truncated
    // fallback paths, the full ↔ has-space transitions and evictions are
    // all exercised; checking after every single request pins each
    // individual ±1 update, not just the end state.
    let (mut engine, graph, _topology) = engine_with_extra(10);
    let mut out = Vec::new();
    assert_cache_equals_rescan(&engine, "initial");
    for round in 0..6u64 {
        for u in (0..400u32).step_by(11) {
            let user = UserId::new(u);
            let targets: Vec<UserId> = graph.followees(user).to_vec();
            engine.handle_read(user, &targets, SimTime::from_secs(round * 60), &mut out);
            assert_cache_equals_rescan(&engine, "after read");
            engine.handle_write(user, SimTime::from_secs(round * 60), &mut out);
        }
        engine.on_tick(SimTime::from_hours(round + 1), &mut out);
        assert_cache_equals_rescan(&engine, "after tick");
        out.clear();
    }
    // Failures and recoveries interleave bulk rebuilds with incremental
    // recovery placements; the invariant must survive the mix.
    let victim = engine.replica_servers(UserId::new(0))[0];
    engine
        .on_cluster_change(ClusterEvent::MachineDown { machine: victim }, &mut out)
        .unwrap();
    assert_cache_equals_rescan(&engine, "after machine-down");
    for u in (0..400u32).step_by(17) {
        let user = UserId::new(u);
        let targets: Vec<UserId> = graph.followees(user).to_vec();
        engine.handle_read(user, &targets, SimTime::from_secs(9_000), &mut out);
        assert_cache_equals_rescan(&engine, "degraded read");
    }
    engine
        .on_cluster_change(ClusterEvent::MachineUp { machine: victim }, &mut out)
        .unwrap();
    assert_cache_equals_rescan(&engine, "after machine-up");
}

/// The cached answer and the exact scan both follow the two-list rule, for
/// every rack, intermediate switch and the root and every exclusion list,
/// and the incremental updates kept the sets equal to a rescan.
fn assert_answers_follow_the_rule(engine: &DynaSoReEngine, exclusions: &[Vec<Replica>]) {
    assert_cache_equals_rescan(engine, "after churn step");
    for exclude in exclusions {
        for origin in subtrees_with_sets(&engine.topology) {
            let rule = engine.least_loaded_two_list_rule(origin, exclude);
            assert_eq!(
                engine.least_loaded_server_in(origin, exclude),
                rule,
                "cached answer, origin {origin}, exclude {exclude:?}"
            );
            assert_eq!(
                engine.least_loaded_scan(origin, exclude),
                rule,
                "exact scan, origin {origin}, exclude {exclude:?}"
            );
        }
    }
}

impl DynaSoReEngine {
    /// Stores a replica of `view` on `sidx` whether or not the server has
    /// room (`ServerState::insert` does not enforce capacity). `false` if
    /// the server already holds one.
    fn force_replica(&mut self, view: UserId, sidx: usize) -> bool {
        if self.replica_on(view, sidx).is_some() {
            return false;
        }
        let old_len = self.servers[sidx].len();
        self.link_replica(view, sidx);
        self.update_load_cache(sidx, old_len);
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The single list answers exactly as the two-list rule whatever is
    /// excluded, while replicas churn, machines fail and return and racks
    /// are added — and while a server sits *over* capacity, which the
    /// engine never causes itself but the rule must not depend on.
    #[test]
    fn least_loaded_answers_follow_the_two_list_rule_under_churn(
        tightness in 0usize..3,
        steps in proptest::collection::vec((0u8..12, (0u32..10_000, 0u32..10_000)), 1..100),
        excluded in proptest::collection::vec(proptest::collection::vec(0u32..10_000, 0..10), 1..5),
    ) {
        // No headroom (every server starts full), a little, the paper's.
        let (mut engine, graph, _topology) = engine_with_extra([0, 5, 30][tightness]);
        let mut out = Vec::new();
        for (kind, (a, b)) in steps {
            let sidx = a as usize % engine.servers.len();
            let live = engine.topology.is_live(engine.servers[sidx].machine());
            let machine = MachineId::new(a % engine.topology.machine_count() as u32);
            let user = UserId::new(b % graph.user_count() as u32);
            let mut exclusions: Vec<Vec<Replica>> = excluded
                .iter()
                .map(|picks| on_servers(picks.iter().map(|&p| p as usize % engine.servers.len())))
                .collect();
            exclusions.push(Vec::new());
            match kind {
                // Push a live server up to three views past its capacity
                // with extra replicas of views stored elsewhere, check, and
                // take the overshoot away again: the engine's own admissions
                // rely on no server being over capacity (`ensure_space`
                // evicts one view and expects room).
                0..=2 if live => {
                    let capacity = engine.servers[sidx].capacity();
                    let mut forced = Vec::new();
                    for view in graph.users() {
                        if engine.servers[sidx].len() > capacity + b as usize % 3 {
                            break;
                        }
                        if engine.replica_count(view) > 0 && engine.force_replica(view, sidx) {
                            forced.push(view);
                        }
                    }
                    assert!(engine.servers[sidx].len() > capacity);
                    assert_answers_follow_the_rule(&engine, &exclusions);
                    while engine.servers[sidx].len() > capacity {
                        let view = forced.pop().expect("the overshoot was forced");
                        assert!(engine.remove_replica(view, sidx, &mut out));
                    }
                }
                0..=2 => {}
                // Drop a redundant replica.
                3..=4 => {
                    let stored = engine.servers[sidx].len().max(1);
                    let view = engine.servers[sidx].views().nth(b as usize % stored);
                    if let Some((view, _)) = view {
                        engine.remove_replica(view, sidx, &mut out);
                    }
                }
                // The engine's own churn: creations, migrations, evictions.
                5..=6 => engine.handle_read(user, graph.followees(user), SimTime::ZERO, &mut out),
                7 => engine.on_tick(SimTime::from_hours(1), &mut out),
                8..=9 => engine
                    .on_cluster_change(ClusterEvent::MachineDown { machine }, &mut out)
                    .unwrap(),
                10 => engine
                    .on_cluster_change(ClusterEvent::MachineUp { machine }, &mut out)
                    .unwrap(),
                _ if engine.topology.rack_count() < 6 => engine
                    .on_cluster_change(ClusterEvent::AddRack, &mut out)
                    .unwrap(),
                _ => {}
            }
            out.clear();
            exclusions.push(engine.users[user.as_usize()].replicas.clone());
            assert_answers_follow_the_rule(&engine, &exclusions);
        }
    }
}
