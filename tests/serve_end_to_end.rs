//! End-to-end acceptance test of the serving front-end: a client drives
//! reads and writes through the full auth → admission → flow-budget
//! pipeline against a live cluster; a spammy user is throttled with
//! `Throttled` *before* the engine while everyone else proceeds; the
//! `/metrics` scrape is lint-clean; a graceful shutdown followed by a cold
//! reopen of the durable tier serves every acknowledged write, as one that
//! drains concurrent writers keeps theirs; and a crash that skips shutdown
//! still leaves every acknowledged write in the files.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
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
    assert!(
        metrics.contains("dynasore_envelopes_served_total 14"),
        "envelope counter missing: {metrics}"
    );
    // A valid flight-recorder export, with one event per envelope.
    assert_eq!(validate_jsonl(&server.trace_jsonl()), Ok(14));

    server.shutdown().unwrap();
    assert!(!server.healthz().ready);
}

/// A server over a 2-shard `ShardedLogStore` in `dir`.
fn sharded_server(dir: &Path, graph: &SocialGraph) -> LoopbackServer {
    let config = ShardedConfig {
        shards: 2,
        ..ShardedConfig::default()
    };
    let store = Arc::new(ShardedLogStore::open(dir, config).unwrap());
    let topology = Topology::tree(2, 2, 3, 1).unwrap();
    let (store_config, serve_config) = (StoreConfig::default(), ServeConfig::default());
    LoopbackServer::spawn_with_store(graph, topology, store_config, serve_config, store).unwrap()
}

/// The users whose acknowledged payload is not in the segment files in
/// `dir`, read through `ShardedLogStore::read_back`, which takes no lock.
fn missing_from_files(dir: &Path, writes: &[(UserId, Vec<u8>)]) -> Vec<UserId> {
    let (index, _) = ShardedLogStore::read_back(dir).unwrap();
    let on_disk = |user, payload: &[u8]| {
        index
            .get(user)
            .is_some_and(|view| view.iter().any(|e| e.payload() == payload))
    };
    writes
        .iter()
        .filter(|(user, payload)| !on_disk(user, payload))
        .map(|&(user, _)| user)
        .collect()
}

/// Graceful shutdown drains and syncs the durable tier: a cold reopen of
/// the same directory — a brand-new cluster and pipeline over the same
/// bytes — serves every acknowledged write through the front-end.
#[test]
fn acknowledged_writes_survive_shutdown_and_cold_reopen() {
    let dir = temp_dir("cold-reopen");
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, 150, 17).unwrap();
    let authors: Vec<UserId> = graph.users().take(8).collect();

    // First life: acknowledged writes through the pipeline, then a graceful
    // shutdown (drain + flush + sync).
    {
        let server = sharded_server(&dir, &graph);
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
    let server = sharded_server(&dir, &graph);
    assert!(server.healthz().live && server.healthz().ready);
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

/// Graceful shutdown under concurrent clients. The pipeline does not
/// serialise envelopes, so the drain alone keeps shutdown safe: four clients
/// write distinct payloads until they are refused while the main thread
/// shuts the server down. Every response is `Ok` or `Unavailable`; nothing
/// is in flight afterwards, the server is down, every envelope was counted
/// once, and the files hold every acknowledged payload.
#[test]
fn graceful_shutdown_under_concurrent_clients_keeps_every_acknowledged_write() {
    const CLIENTS: usize = 4;
    let dir = temp_dir("shutdown-under-load");
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, 150, 17).unwrap();
    let server = sharded_server(&dir, &graph);
    let responses = AtomicU64::new(0);
    // Each client writes until it is refused and returns what was acknowledged.
    let client = |c: usize| {
        let mut acknowledged = Vec::new();
        for i in 0.. {
            let user = UserId::new(((c + CLIENTS * i) % graph.user_count()) as u32);
            let payload = format!("client {c} write {i}").into_bytes();
            let resp = server.handle(RequestEnvelope::write(user, payload.clone()));
            responses.fetch_add(1, Ordering::SeqCst);
            match resp.status {
                StatusCode::Ok => acknowledged.push((user, payload)),
                StatusCode::Unavailable => break,
                other => panic!("client {c} write {i} got {other}: {resp:?}"),
            }
        }
        acknowledged
    };
    let acknowledged: Vec<(UserId, Vec<u8>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client(c)))
            .collect();
        // Shut down once the clients are well under way.
        let start = Instant::now();
        while responses.load(Ordering::SeqCst) < 40 {
            assert!(start.elapsed() < Duration::from_secs(10), "no progress");
            std::thread::sleep(Duration::from_millis(1));
        }
        server.shutdown().unwrap();
        clients
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });

    assert_eq!(server.inflight(), 0);
    let health = server.healthz();
    assert!(!health.live && !health.ready, "{health:?}");
    let responses = responses.into_inner();
    let served = format!("dynasore_envelopes_served_total {responses}\n");
    assert!(server.metrics().contains(&served), "expected {served}");
    // Latecomers bounce without touching the cluster; shutdown is idempotent.
    let late = server.handle(RequestEnvelope::write(UserId::new(0), vec![]));
    assert_eq!(late.status, StatusCode::Unavailable);
    server.shutdown().unwrap();
    drop(server);
    assert_eq!(missing_from_files(&dir, &acknowledged), []);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(!dir.exists());
}

/// Crash injection through the front-end: writes acknowledged by a server
/// over a sharded store with the default background flusher reach the
/// segment files with no shutdown, no `Drop` and no explicit sync — the
/// flusher alone commits every shard's batch within one interval
/// (README, *fsync / crash semantics*). The server is leaked with
/// `mem::forget`, as a killed process would leave it, and the directory is
/// polled.
#[test]
fn acknowledged_writes_reach_the_files_without_a_shutdown() {
    let dir = temp_dir("crash-injection");
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, 150, 17).unwrap();
    let server = sharded_server(&dir, &graph);
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
        let missing = missing_from_files(&dir, &writes);
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
