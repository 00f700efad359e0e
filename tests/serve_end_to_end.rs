//! End-to-end acceptance test of the serving front-end: a client drives
//! reads and writes through the full auth → admission → flow-budget
//! pipeline against a live cluster; a spammy user is throttled with
//! `Throttled` *before* the engine while everyone else proceeds; the
//! `/metrics` scrape is lint-clean; a graceful shutdown followed by a cold
//! reopen of the durable tier serves every acknowledged write; and a crash
//! that skips shutdown still leaves every acknowledged write in the files.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dynasore::prelude::*;
use dynasore::serve::{RequestEnvelope, ResponseBody};
use dynasore::types::{lint_prometheus, validate_jsonl, StatusCode};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dynasore-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The headline scenario from the issue: authenticated clients read and
/// write through the pipeline; the spammy user exhausts her flow budget and
/// is rejected with `Throttled` before generating a single engine message;
/// the bystanders' requests keep flowing; `/metrics` lints clean and counts
/// the rejections.
#[test]
fn spammy_user_is_throttled_before_the_engine_while_others_proceed() {
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, 200, 13).unwrap();
    let topology = Topology::tree(2, 2, 3, 1).unwrap();
    let spammer = UserId::new(0);
    let alice = UserId::new(1);
    let bob = UserId::new(2);
    let spam_limit = 4u64;

    let server = LoopbackServer::spawn(
        &graph,
        topology,
        StoreConfig::default(),
        ServeConfig {
            tokens: vec![
                ("tok-spammer".to_string(), spammer),
                ("tok-alice".to_string(), alice),
                ("tok-bob".to_string(), bob),
            ],
            flow_limits: vec![(spammer, spam_limit)],
            ..ServeConfig::default()
        },
    )
    .unwrap();
    assert!(server.healthz().ready);

    // An unauthenticated envelope never reaches the engine.
    let resp = server.handle(RequestEnvelope::write(alice, b"no token".to_vec()));
    assert_eq!(resp.status, StatusCode::Unauthorized);

    // Baseline engine write count: the flow-budget gate must keep the
    // spammer from adding to it once her budget is gone.
    let writes_before = server.store_stats().persistent_writes;

    // The spammer burns her whole budget, then keeps hammering.
    let mut spam_ok = 0u64;
    let mut spam_throttled = 0u64;
    for i in 0..(spam_limit + 6) {
        let resp = server.handle(
            RequestEnvelope::write(spammer, format!("spam {i}").into_bytes())
                .with_token("tok-spammer"),
        );
        match resp.status {
            StatusCode::Ok => spam_ok += 1,
            StatusCode::Throttled => spam_throttled += 1,
            other => panic!("spammer got {other}"),
        }
    }
    assert_eq!(spam_ok, spam_limit);
    assert_eq!(spam_throttled, 6);
    // Exactly `spam_limit` writes reached the engine: throttled envelopes
    // generated zero engine messages.
    assert_eq!(
        server.store_stats().persistent_writes - writes_before,
        spam_limit
    );

    // The bystanders are untouched by the spammer's exhaustion.
    let resp = server.handle(
        RequestEnvelope::write(alice, b"hello from alice".to_vec()).with_token("tok-alice"),
    );
    assert_eq!(resp.status, StatusCode::Ok);
    let resp = server.handle(RequestEnvelope::read_feed(bob).with_token("tok-bob"));
    assert_eq!(resp.status, StatusCode::Ok);
    let resp =
        server.handle(RequestEnvelope::read(bob, vec![alice, spammer]).with_token("tok-bob"));
    assert_eq!(resp.status, StatusCode::Ok);
    match resp.body {
        ResponseBody::Views(views) => assert_eq!(views.len(), 2),
        other => panic!("expected views, got {other:?}"),
    }

    // `/metrics` lints clean and the counters agree with what we observed.
    let metrics = server.metrics();
    lint_prometheus(&metrics).expect("metrics pass the Prometheus lint");
    assert!(
        metrics.contains("dynasore_throttled_envelopes_total 6"),
        "throttle counter missing: {metrics}"
    );
    assert!(
        metrics.contains("dynasore_auth_failures_total 1"),
        "auth-failure counter missing: {metrics}"
    );
    // The trace timeline is a valid flight-recorder export.
    validate_jsonl(&server.trace_jsonl()).expect("trace timeline validates");

    server.shutdown().unwrap();
    assert!(!server.healthz().ready);
}

/// Graceful shutdown drains and syncs the durable tier: a cold reopen of
/// the same directory — a brand-new cluster and pipeline over the same
/// bytes — serves every acknowledged write through the front-end.
#[test]
fn acknowledged_writes_survive_shutdown_and_cold_reopen() {
    let dir = temp_dir("cold-reopen");
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, 150, 17).unwrap();
    let topology = Topology::tree(2, 2, 3, 1).unwrap();
    let authors: Vec<UserId> = graph.users().take(8).collect();

    // First life: acknowledged writes through the pipeline, then a graceful
    // shutdown (drain + flush + sync).
    {
        let store = Arc::new(
            ShardedLogStore::open(
                &dir,
                ShardedConfig {
                    shards: 2,
                    ..ShardedConfig::default()
                },
            )
            .unwrap(),
        );
        let server = LoopbackServer::spawn_with_store(
            &graph,
            topology.clone(),
            StoreConfig::default(),
            ServeConfig::default(),
            store,
        )
        .unwrap();
        for (i, &author) in authors.iter().enumerate() {
            let resp = server.handle(RequestEnvelope::write(
                author,
                format!("durable {i}").into_bytes(),
            ));
            assert!(resp.is_success(), "write {i} not acknowledged: {resp:?}");
        }
        server.shutdown().unwrap();
        // Shutdown is idempotent.
        server.shutdown().unwrap();
    }

    // Second life: a cold reopen over the same directory (the shard count is
    // pinned by the manifest). Every acknowledged write must be served back
    // through the read path.
    let store = Arc::new(
        ShardedLogStore::open(
            &dir,
            ShardedConfig {
                shards: 2,
                ..ShardedConfig::default()
            },
        )
        .unwrap(),
    );
    let server = LoopbackServer::spawn_with_store(
        &graph,
        topology,
        StoreConfig::default(),
        ServeConfig::default(),
        store,
    )
    .unwrap();
    assert!(server.healthz().ready);
    for (i, &author) in authors.iter().enumerate() {
        let resp = server.handle(RequestEnvelope::read(author, vec![author]));
        assert_eq!(resp.status, StatusCode::Ok);
        let views = match resp.body {
            ResponseBody::Views(views) => views,
            other => panic!("expected views, got {other:?}"),
        };
        let latest = views[0].latest().expect("author view has the write");
        assert_eq!(
            latest.payload(),
            format!("durable {i}").as_bytes(),
            "acknowledged write for {author} lost across the cold reopen"
        );
    }
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash injection through the front-end: writes acknowledged by a server
/// over a sharded store with the default background flusher reach the
/// segment files with no shutdown, no `Drop` and no explicit sync — the
/// flusher alone writes each idle shard's batch out within a few intervals
/// (README, *fsync / crash semantics*). The server is leaked with
/// `mem::forget`, as a killed process would leave it, and the directory is
/// polled through `ShardedLogStore::read_back`, which takes no lock.
#[test]
fn acknowledged_writes_reach_the_files_without_a_shutdown() {
    let dir = temp_dir("crash-injection");
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, 150, 17).unwrap();
    let topology = Topology::tree(2, 2, 3, 1).unwrap();
    let store = Arc::new(
        ShardedLogStore::open(
            &dir,
            ShardedConfig {
                shards: 2,
                ..ShardedConfig::default()
            },
        )
        .unwrap(),
    );
    let server = LoopbackServer::spawn_with_store(
        &graph,
        topology,
        StoreConfig::default(),
        ServeConfig::default(),
        store,
    )
    .unwrap();
    let writes: Vec<(UserId, Vec<u8>)> = graph
        .users()
        .take(8)
        .enumerate()
        .map(|(i, user)| (user, format!("crash {i}").into_bytes()))
        .collect();
    for (user, payload) in &writes {
        let resp = server.handle(RequestEnvelope::write(*user, payload.clone()));
        assert!(
            resp.is_success(),
            "write for {user} not acknowledged: {resp:?}"
        );
    }
    let acknowledged = Instant::now();
    // The crash: neither `shutdown` nor `Drop` ever runs.
    std::mem::forget(server);

    // Seconds, not milliseconds: the bound is a few 5 ms flusher intervals,
    // and the slack only keeps a loaded CI machine from flaking the test.
    const DEADLINE: Duration = Duration::from_secs(10);
    loop {
        let (index, _) = ShardedLogStore::read_back(&dir).unwrap();
        let missing: Vec<UserId> = writes
            .iter()
            .filter(|(user, payload)| {
                !index
                    .get(user)
                    .is_some_and(|view| view.iter().any(|e| e.payload() == payload.as_slice()))
            })
            .map(|&(user, _)| user)
            .collect();
        if missing.is_empty() {
            break;
        }
        let waited = acknowledged.elapsed();
        assert!(
            waited < DEADLINE,
            "{waited:?} after acknowledgement the writes of {missing:?} are still not in the \
             segment files"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
