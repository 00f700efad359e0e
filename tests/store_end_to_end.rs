//! End-to-end tests of the runnable store: correctness of the social-feed
//! semantics on top of dynamic replica placement, with both the in-memory
//! mock tier and the file-backed tier (one shard and several).

use std::sync::Arc;

use dynasore::prelude::*;
use dynasore::store::MockPersistentStore;
use dynasore::types::{ClusterEvent, RackId};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dynasore-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One log over files: a one-shard tier with no flusher thread, so nothing
/// reaches the disk before a batch fills or the owner flushes.
fn open_one_log(dir: &std::path::Path) -> Arc<ShardedLogStore> {
    let config = ShardedConfig {
        shards: 1,
        flush_interval: None,
    };
    Arc::new(ShardedLogStore::open(dir, config).unwrap())
}

fn spawn_cluster(users: usize, seed: u64) -> (Cluster, SocialGraph) {
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, users, seed).unwrap();
    let topology = Topology::tree(2, 2, 4, 1).unwrap();
    let cluster = Cluster::spawn(
        &graph,
        topology,
        StoreConfig {
            extra_memory_percent: 50,
            placement: InitialPlacement::Metis { seed },
            seed,
        },
    )
    .unwrap();
    (cluster, graph)
}

#[test]
fn feeds_contain_exactly_the_followees_events_in_order() {
    let (cluster, graph) = spawn_cluster(300, 3);
    let reader = graph
        .users()
        .find(|&u| graph.followees(u).len() >= 2)
        .expect("reader with at least two followees");
    let followees = graph.followees(reader).to_vec();

    for (i, &followee) in followees.iter().enumerate() {
        cluster
            .write(followee, format!("post-{i}-from-{followee}").into_bytes())
            .unwrap();
    }
    // Someone the reader does not follow also posts; it must not leak into
    // the feed.
    let stranger = graph
        .users()
        .find(|&u| u != reader && !followees.contains(&u))
        .unwrap();
    cluster.write(stranger, b"noise".to_vec()).unwrap();

    let feed = cluster.read_feed(reader).unwrap();
    assert_eq!(feed.len(), followees.len());
    assert!(feed.iter().all(|e| followees.contains(&e.author())));
    // Newest first.
    assert!(feed
        .windows(2)
        .all(|w| w[0].timestamp() >= w[1].timestamp()));
    cluster.shutdown().unwrap();
}

#[test]
fn repeated_reads_are_served_from_cache() {
    let (cluster, graph) = spawn_cluster(300, 9);
    let reader = graph
        .users()
        .find(|&u| !graph.followees(u).is_empty())
        .unwrap();
    for _ in 0..5 {
        cluster.read_feed(reader).unwrap();
    }
    let stats = cluster.stats();
    assert!(
        stats.cache_hits > stats.cache_misses,
        "expected mostly cache hits, got {stats:?}"
    );
    cluster.shutdown().unwrap();
}

#[test]
fn hot_views_gain_replicas_in_the_live_store() {
    let (cluster, graph) = spawn_cluster(400, 13);
    // The most-followed user becomes hot: every follower refreshes her feed
    // repeatedly.
    let celebrity = graph
        .users()
        .max_by_key(|&u| graph.followers(u).len())
        .unwrap();
    cluster.write(celebrity, b"going viral".to_vec()).unwrap();
    let before = cluster.replica_count(celebrity);
    for _ in 0..30 {
        for &fan in graph.followers(celebrity) {
            cluster.read(fan, &[celebrity]).unwrap();
        }
    }
    let after = cluster.replica_count(celebrity);
    assert!(
        after >= before,
        "replication should not shrink under read pressure ({before} -> {after})"
    );
    // Reads still return the right content after any replication.
    let fan = graph.followers(celebrity)[0];
    let views = cluster.read(fan, &[celebrity]).unwrap();
    assert_eq!(views.len(), 1);
    assert_eq!(views[0].latest().unwrap().payload(), b"going viral");
    cluster.shutdown().unwrap();
}

#[test]
fn writes_remain_visible_after_heavy_mixed_traffic() {
    let (cluster, graph) = spawn_cluster(300, 21);
    let author = graph
        .users()
        .find(|&u| !graph.followers(u).is_empty())
        .unwrap();
    let reader = graph.followers(author)[0];
    for i in 0..50u32 {
        cluster
            .write(author, format!("update {i}").into_bytes())
            .unwrap();
        // Interleave unrelated traffic.
        let other = UserId::new(i % 300);
        let _ = cluster.read_feed(other);
    }
    let feed = cluster.read_feed(reader).unwrap();
    let latest_from_author = feed
        .iter()
        .find(|e| e.author() == author)
        .expect("author's events visible");
    assert_eq!(latest_from_author.payload(), b"update 49");
    cluster.shutdown().unwrap();
}

/// Reads every user's followees in one `read` and holds the answer against
/// the persistent tier: one view per target, in target order, each the
/// tier's current version, and every one counted as a hit or a miss.
fn assert_reads_mirror_the_tier(cluster: &Cluster, tier: &MockPersistentStore) {
    let graph = cluster.graph().clone();
    for reader in graph.users() {
        let targets = graph.followees(reader);
        let before = cluster.stats();
        let views = cluster.read(reader, targets).unwrap();
        let after = cluster.stats();
        assert_eq!(views.len(), targets.len());
        assert_eq!(
            (after.cache_hits + after.cache_misses) - (before.cache_hits + before.cache_misses),
            views.len() as u64
        );
        for (view, &target) in views.iter().zip(targets) {
            let durable = tier.fetch(target).unwrap();
            assert_eq!(view.owner(), target, "views come back in target order");
            assert_eq!(view.version(), durable.version(), "{target} is stale");
            assert_eq!(
                view.latest().map(Event::payload),
                durable.latest().map(Event::payload)
            );
        }
    }
}

#[test]
fn batched_reads_mirror_the_persistent_tier_across_failures_and_growth() {
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, 200, 17).unwrap();
    let tier = Arc::new(MockPersistentStore::new());
    let topology = Topology::tree(2, 2, 4, 1).unwrap();
    let mut cluster = Cluster::spawn_with_store(
        &graph,
        topology.clone(),
        // Room for every view on the 8 of 12 servers that survive below.
        StoreConfig {
            extra_memory_percent: 100,
            ..StoreConfig::default()
        },
        tier.clone(),
    )
    .unwrap();
    let write_round = |cluster: &Cluster, round: u32| {
        for user in graph.users().filter(|u| u.index() % 3 == round % 3) {
            let payload = format!("round {round} by {user}").into_bytes();
            cluster.write(user, payload).unwrap();
        }
    };

    write_round(&cluster, 0);
    assert_reads_mirror_the_tier(&cluster, &tier);

    let machine = topology.servers()[1].machine();
    cluster
        .apply_event(ClusterEvent::MachineDown { machine })
        .unwrap();
    write_round(&cluster, 1);
    assert_reads_mirror_the_tier(&cluster, &tier);

    let rack = RackId::new(1);
    cluster
        .apply_event(ClusterEvent::RackDown { rack })
        .unwrap();
    write_round(&cluster, 2);
    assert_reads_mirror_the_tier(&cluster, &tier);
    cluster.apply_event(ClusterEvent::RackUp { rack }).unwrap();
    assert_reads_mirror_the_tier(&cluster, &tier);

    cluster.apply_event(ClusterEvent::AddRack).unwrap();
    write_round(&cluster, 3);
    assert_reads_mirror_the_tier(&cluster, &tier);
    cluster.shutdown().unwrap();
}

/// Each client's commands reach the cache in the order it sent them, on
/// every shard: the `Put`s of its write are applied before its next read
/// looks anything up, whatever the other clients are doing.
#[test]
fn concurrent_clients_read_their_own_latest_write() {
    let (cluster, graph) = spawn_cluster(200, 5);
    let authors: Vec<UserId> = graph
        .users()
        .filter(|&u| !graph.followers(u).is_empty())
        .take(4)
        .collect();
    assert_eq!(authors.len(), 4);
    let start = std::sync::Barrier::new(authors.len());
    std::thread::scope(|scope| {
        for &author in &authors {
            let (cluster, graph, start) = (&cluster, &graph, &start);
            scope.spawn(move || {
                let reader = graph.followers(author)[0];
                start.wait();
                for i in 0..150u32 {
                    let payload = format!("{author} #{i}").into_bytes();
                    cluster.write(author, payload.clone()).unwrap();
                    let views = cluster.read(reader, &[author]).unwrap();
                    assert_eq!(views.len(), 1);
                    assert_eq!(views[0].version(), u64::from(i) + 1);
                    assert_eq!(views[0].latest().unwrap().payload(), payload);
                }
            });
        }
    });
    cluster.shutdown().unwrap();
}

/// The file-backed variant of the kill/restart scenario from
/// `tests/fault_tolerance.rs`: a cache server is killed mid-traffic and
/// restarted against the on-disk tier. Reads keep returning the pre-crash
/// values throughout (availability stays 100%), served by demand-filling the
/// restarted cache from a one-shard file-backed tier.
#[test]
fn file_backed_cluster_survives_kill_and_restart_mid_traffic() {
    let dir = temp_dir("kill-restart");
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, 300, 3).unwrap();
    let topology = Topology::tree(2, 2, 4, 1).unwrap();
    let store = open_one_log(&dir);
    let mut cluster = Cluster::spawn_with_store(
        &graph,
        topology.clone(),
        StoreConfig {
            extra_memory_percent: 50,
            placement: InitialPlacement::Metis { seed: 3 },
            seed: 3,
        },
        store.clone(),
    )
    .unwrap();

    let author = graph
        .users()
        .find(|&u| !graph.followers(u).is_empty())
        .unwrap();
    let reader = graph.followers(author)[0];
    for i in 0..20u32 {
        cluster
            .write(author, format!("pre-crash {i}").into_bytes())
            .unwrap();
    }

    // Kill server machines mid-traffic, rotating through the racks.
    cluster.read(reader, &[author]).unwrap(); // warm the routing
    let victim = topology.servers()[0].machine();
    let mut killed_and_restarted = 0;
    let mut latest_payload = b"pre-crash 19".to_vec();
    for round in 0..3u32 {
        let machine = if round == 0 {
            victim
        } else {
            topology.servers()[round as usize * 3].machine()
        };
        cluster
            .apply_event(ClusterEvent::MachineDown { machine })
            .unwrap();
        // Every read during the outage succeeds with the pre-crash values:
        // availability stays 100%.
        let views = cluster.read(reader, &[author]).unwrap();
        assert_eq!(views.len(), 1, "read failed during outage round {round}");
        assert_eq!(
            views[0].latest().unwrap().payload(),
            latest_payload,
            "stale or lost data during outage round {round}"
        );
        // Interleave more traffic while the machine is down.
        latest_payload = format!("during-outage {round}").into_bytes();
        cluster.write(author, latest_payload.clone()).unwrap();
        cluster
            .apply_event(ClusterEvent::MachineUp { machine })
            .unwrap();
        killed_and_restarted += 1;
        let views = cluster.read(reader, &[author]).unwrap();
        assert_eq!(
            views[0].latest().unwrap().payload(),
            latest_payload,
            "restarted server served stale data"
        );
    }
    assert_eq!(killed_and_restarted, 3);
    let feed = cluster.read_feed(reader).unwrap();
    assert!(feed.iter().any(|e| e.payload() == b"during-outage 2"));
    // Demand-fills (never-written followees, caches emptied by the kills)
    // came from the file-backed tier.
    assert!(store.read_count() > 0);
    cluster.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The sharded tier drops into `Cluster::spawn_with_store` unchanged: the
/// same kill/restart choreography as the single-log test above, but with
/// writes fanning out over 4 shards (group commit on, background flusher
/// running). Availability stays 100% and restarted servers demand-fill from
/// the sharded tier.
#[test]
fn sharded_cluster_survives_kill_and_restart_mid_traffic() {
    let dir = temp_dir("sharded-kill-restart");
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, 300, 5).unwrap();
    let topology = Topology::tree(2, 2, 4, 1).unwrap();
    let store = Arc::new(
        ShardedLogStore::open(
            &dir,
            ShardedConfig {
                shards: 4,
                ..ShardedConfig::default()
            },
        )
        .unwrap(),
    );
    assert_eq!(store.shard_count(), 4);
    let mut cluster = Cluster::spawn_with_store(
        &graph,
        topology.clone(),
        StoreConfig {
            extra_memory_percent: 50,
            placement: InitialPlacement::Metis { seed: 5 },
            seed: 5,
        },
        store.clone(),
    )
    .unwrap();

    let author = graph
        .users()
        .find(|&u| !graph.followers(u).is_empty())
        .unwrap();
    let reader = graph.followers(author)[0];
    // Spread traffic across every shard, not just the author's.
    for i in 0..40u32 {
        cluster
            .write(UserId::new(i % 300), format!("spread {i}").into_bytes())
            .unwrap();
    }
    cluster.write(author, b"pre-crash".to_vec()).unwrap();

    cluster.read(reader, &[author]).unwrap(); // warm the routing
    let mut latest_payload = b"pre-crash".to_vec();
    for round in 0..3u32 {
        let machine = topology.servers()[round as usize * 3].machine();
        cluster
            .apply_event(ClusterEvent::MachineDown { machine })
            .unwrap();
        let views = cluster.read(reader, &[author]).unwrap();
        assert_eq!(views.len(), 1, "read failed during outage round {round}");
        assert_eq!(
            views[0].latest().unwrap().payload(),
            latest_payload,
            "stale or lost data during outage round {round}"
        );
        latest_payload = format!("during-outage {round}").into_bytes();
        cluster.write(author, latest_payload.clone()).unwrap();
        cluster
            .apply_event(ClusterEvent::MachineUp { machine })
            .unwrap();
        let views = cluster.read(reader, &[author]).unwrap();
        assert_eq!(
            views[0].latest().unwrap().payload(),
            latest_payload,
            "restarted server served stale data"
        );
    }
    // Sweep every user's view: the kills emptied three machines' caches,
    // so some of these reads miss and demand-fill from the sharded tier.
    for u in 0..300u32 {
        let user = UserId::new(u);
        cluster.read(user, &[user]).unwrap();
    }
    let feed = cluster.read_feed(reader).unwrap();
    assert!(feed.iter().any(|e| e.payload() == b"during-outage 2"));
    assert!(store.read_count() > 0, "demand-fills must hit the tier");
    cluster.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `Cluster::shutdown` over the sharded tier: every acknowledged write —
/// including those sitting in per-shard group-commit batches — is on disk
/// afterwards, visible to a non-destructive `ShardedLogStore::read_back`.
#[test]
fn shutdown_flushes_every_shards_pending_batch() {
    let dir = temp_dir("sharded-shutdown");
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, 200, 17).unwrap();
    let topology = Topology::tree(2, 2, 4, 1).unwrap();
    // No flusher and a fill trigger far above the write count: only the
    // explicit flush+sync in shutdown can move these batches to disk.
    let store = Arc::new(
        ShardedLogStore::open(
            &dir,
            ShardedConfig {
                shards: 4,
                flush_interval: None,
            },
        )
        .unwrap(),
    );
    let cluster =
        Cluster::spawn_with_store(&graph, topology, StoreConfig::default(), store.clone()).unwrap();
    let authors: Vec<UserId> = graph.users().take(12).collect();
    for (i, &author) in authors.iter().enumerate() {
        cluster
            .write(author, format!("durable {i}").into_bytes())
            .unwrap();
    }
    assert!(
        store.pending_records() > 0,
        "writes should be batched, not yet committed"
    );
    cluster.shutdown().unwrap();
    assert_eq!(store.pending_records(), 0);

    let (index, stats) = ShardedLogStore::read_back(&dir).unwrap();
    for (i, &author) in authors.iter().enumerate() {
        let view = index.get(&author).expect("author view on disk");
        assert_eq!(
            view.latest().map(|e| e.payload().to_vec()),
            Some(format!("durable {i}").into_bytes()),
            "acknowledged write for {author} lost across shutdown"
        );
    }
    assert_eq!(index.len(), authors.len());
    assert_eq!(stats.total.torn_bytes, 0);
    assert_eq!(stats.per_shard.len(), 4);
    drop(cluster);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression test for the shutdown fix: `Cluster::shutdown` must flush and
/// sync the persistent tier before joining the cache worker, so a reopen
/// of the same directory — while the original store object is still alive
/// and holding its write buffers — sees every acknowledged write.
#[test]
fn shutdown_makes_every_acknowledged_write_visible_to_a_reopen() {
    let dir = temp_dir("shutdown-sync");
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, 200, 7).unwrap();
    let topology = Topology::tree(2, 2, 4, 1).unwrap();
    // Without the explicit flush+sync in shutdown, these appends would
    // still sit in the log's pending batch.
    let store = open_one_log(&dir);
    let cluster =
        Cluster::spawn_with_store(&graph, topology, StoreConfig::default(), store.clone()).unwrap();
    let authors: Vec<UserId> = graph.users().take(10).collect();
    for (i, &author) in authors.iter().enumerate() {
        cluster
            .write(author, format!("durable {i}").into_bytes())
            .unwrap();
    }
    assert_eq!(store.pending_records(), authors.len() as u64);
    cluster.shutdown().unwrap();

    // Read the directory back while `store` (and its buffers) are still
    // alive — `read_back` replays the segment files non-destructively, so
    // only what shutdown flushed to disk is visible.
    let (index, stats) = ShardedLogStore::read_back(&dir).unwrap();
    for (i, &author) in authors.iter().enumerate() {
        let view = index.get(&author).expect("author view on disk");
        assert_eq!(
            view.latest().map(|e| e.payload().to_vec()),
            Some(format!("durable {i}").into_bytes()),
            "acknowledged write for {author} lost across shutdown"
        );
    }
    assert_eq!(index.len(), authors.len());
    assert_eq!(stats.total.torn_bytes, 0);
    drop(cluster);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A full stop-and-restart of the cluster over the same directory: the new
/// cluster's tier rebuilds its index from the old cluster's bytes, and the
/// feed semantics carry over.
#[test]
fn file_backed_cluster_restarts_from_real_bytes() {
    let dir = temp_dir("restart");
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, 250, 11).unwrap();
    let topology = Topology::tree(2, 2, 4, 1).unwrap();
    let author = graph
        .users()
        .find(|&u| !graph.followers(u).is_empty())
        .unwrap();
    let reader = graph.followers(author)[0];

    {
        let cluster = Cluster::spawn_with_store(
            &graph,
            topology.clone(),
            StoreConfig::default(),
            open_one_log(&dir),
        )
        .unwrap();
        cluster.write(author, b"before restart".to_vec()).unwrap();
        cluster.shutdown().unwrap();
    }

    let store = open_one_log(&dir);
    let recovered = store.recovery_stats().total;
    assert!(
        recovered.bytes_replayed > 0,
        "restart must replay real bytes"
    );
    assert_eq!(recovered.torn_bytes, 0);
    let cluster =
        Cluster::spawn_with_store(&graph, topology, StoreConfig::default(), store).unwrap();
    let views = cluster.read(reader, &[author]).unwrap();
    assert_eq!(views.len(), 1);
    assert_eq!(views[0].latest().unwrap().payload(), b"before restart");
    cluster.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
