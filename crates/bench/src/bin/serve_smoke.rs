//! **Serving-front-end smoke test** — CI gate for the loopback ingress.
//!
//! ```text
//! cargo run --release -p dynasore-bench --bin serve_smoke \
//!     [-- --users N --seed N --requests N]
//! ```
//!
//! Spawns a [`LoopbackServer`] over a small Twitter-like graph on the paper
//! tree and drives the full envelope pipeline end to end:
//!
//! 1. `/healthz` reports live **and** ready immediately after spawn.
//! 2. A mix of writes, reads and feed reads round-trips through the
//!    auth-free default pipeline; every response must be `ok`.
//! 3. A budget-capped spammy user is throttled with `throttled` before the
//!    engine — the server's flight recorder must count the rejections.
//! 4. The `/metrics` scrape passes [`lint_prometheus`] (HELP/TYPE headers,
//!    valid names, parsable values) and the trace timeline passes
//!    [`validate_jsonl`].
//! 5. Graceful shutdown drains, flips `/healthz` off (a fully shut-down
//!    server is neither live nor ready — an orchestrator should replace
//!    it), and a post-shutdown request bounces with `unavailable` instead
//!    of hanging.
//!
//! Exits 0 on success, 1 with a diagnostic on the first violated check.

use dynasore_bench::{parse_args_or_exit, Args};
use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_serve::{LoopbackServer, RequestEnvelope, ServeConfig};
use dynasore_store::StoreConfig;
use dynasore_topology::Topology;
use dynasore_types::{lint_prometheus, validate_jsonl, StatusCode, UserId};

struct Options {
    users: usize,
    seed: u64,
    requests: u64,
}

const USAGE: &str = "usage: serve_smoke [--users N] [--seed N] [--requests N]";

impl Options {
    /// Parses the command line (program name excluded) with the strict [`Args`].
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            users: 300,
            seed: 42,
            requests: 50,
        };
        let mut args = Args::new(args);
        while let Some(flag) = args.flag() {
            match flag {
                "--users" => o.users = args.parsed()?,
                "--seed" => o.seed = args.parsed()?,
                "--requests" => o.requests = args.parsed()?,
                _ => return args.unknown(),
            }
        }
        Ok(o)
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("serve_smoke: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let opts = parse_args_or_exit(USAGE, Options::parse);
    let spammer = UserId::new(0);
    let spam_limit = 3u64;

    let graph = SocialGraph::generate(GraphPreset::TwitterLike, opts.users, opts.seed)
        .unwrap_or_else(|e| fail(&format!("graph generation: {e}")));
    let topology = Topology::tree(2, 2, 3, 1).unwrap_or_else(|e| fail(&format!("topology: {e}")));
    let serve_config = ServeConfig {
        flow_limits: vec![(spammer, spam_limit)],
        ..ServeConfig::default()
    };
    let server = LoopbackServer::spawn(&graph, topology, StoreConfig::default(), serve_config)
        .unwrap_or_else(|e| fail(&format!("spawn: {e}")));

    // 1. Liveness and readiness flip on at spawn.
    let health = server.healthz();
    if !health.live || !health.ready {
        fail(&format!(
            "healthz after spawn: {health:?} (want live+ready)"
        ));
    }

    // 2. Writes, reads and feed reads all round-trip as `ok`.
    let mut served = 0u64;
    for i in 0..opts.requests {
        let user = UserId::new(1 + (i % (opts.users as u64 - 1)) as u32);
        let req = match i % 3 {
            0 => RequestEnvelope::write(user, format!("post {i}").into_bytes()),
            1 => RequestEnvelope::read_feed(user),
            _ => RequestEnvelope::read(user, vec![user]),
        };
        let resp = server.handle(req);
        if !resp.is_success() {
            fail(&format!(
                "request {i} for user {user:?} returned {} ({:?})",
                resp.status, resp.detail
            ));
        }
        served += 1;
    }

    // 3. The spammy user is throttled before the engine once the budget runs
    //    dry; other users keep being served.
    let mut throttled = 0u64;
    for i in 0..(spam_limit + 5) {
        let resp = server.handle(RequestEnvelope::write(
            spammer,
            format!("spam {i}").into_bytes(),
        ));
        match resp.status {
            StatusCode::Ok => served += 1,
            StatusCode::Throttled => throttled += 1,
            other => fail(&format!("spammer got unexpected status {other}")),
        }
    }
    if throttled != 5 {
        fail(&format!(
            "expected 5 throttled spam writes, got {throttled}"
        ));
    }
    let bystander = server.handle(RequestEnvelope::read_feed(UserId::new(1)));
    if !bystander.is_success() {
        fail(&format!(
            "bystander read failed after spam burst: {}",
            bystander.status
        ));
    }
    served += 1;

    // 4. The metrics scrape lints clean and agrees with the request ledger.
    let metrics = server.metrics();
    let samples = lint_prometheus(&metrics).unwrap_or_else(|e| fail(&format!("metrics lint: {e}")));
    let served_line = format!("dynasore_envelopes_served_total {}", served + throttled);
    let throttled_line = format!("dynasore_throttled_envelopes_total {throttled}");
    for needle in [served_line.as_str(), throttled_line.as_str()] {
        if !metrics.contains(needle) {
            fail(&format!("metrics missing expected sample `{needle}`"));
        }
    }
    let events =
        validate_jsonl(&server.trace_jsonl()).unwrap_or_else(|e| fail(&format!("trace: {e}")));

    // 5. Graceful shutdown drains, flips readiness, and bounces latecomers.
    server
        .shutdown()
        .unwrap_or_else(|e| fail(&format!("shutdown: {e}")));
    let health = server.healthz();
    if health.live || health.ready {
        fail(&format!(
            "healthz after shutdown: {health:?} (want neither live nor ready)"
        ));
    }
    let late = server.handle(RequestEnvelope::read_feed(UserId::new(1)));
    if late.status != StatusCode::Unavailable {
        fail(&format!(
            "post-shutdown request got {} (want unavailable)",
            late.status
        ));
    }

    println!(
        "serve_smoke: OK — {served} served, {throttled} throttled, \
         {samples} metric samples, {events} trace events"
    );
}
