//! The four serving workloads: deployment, the closed-loop client with its
//! response checks, and the measured segments.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dynasore_core::InitialPlacement;
use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_serve::{
    LoopbackServer, RequestEnvelope, ResponseBody, ResponseEnvelope, ServeConfig,
};
use dynasore_store::{
    MockPersistentStore, PersistentStore, ShardedConfig, ShardedLogStore, StoreConfig, StoreStats,
};
use dynasore_topology::Topology;
use dynasore_types::Result;

use crate::env::DataDir;
use crate::load::{Op, RequestStream, Spec, USERS};
use crate::machine::Meter;
use crate::shadow::{payload, Shadow, PAYLOAD_BYTES};
use crate::spans::SharedRecorder;
use crate::stats::{p50_p99_us, percentile};
use crate::traced::{MirrorReport, TracedStack};

/// Events appended to every user's view before the server is spawned.
const PRELOAD_EVENTS: u64 = 3;

/// The stack under test as the client sees it: the real `LoopbackServer`
/// for end-to-end numbers, the bench-assembled `TracedStack` for the split.
pub trait Stack {
    /// Serves one request and returns the response with its latency in ns.
    fn call(&mut self, op: &Op, req: RequestEnvelope) -> (ResponseEnvelope, u64);
    fn store_stats(&self) -> StoreStats;
    /// The flight-recorder registry in Prometheus text format.
    fn metrics_text(&self) -> String;
    fn shutdown(&mut self) -> Result<()>;
    /// Marks the end of the warm-up: a traced stack forgets what it recorded.
    fn end_warm_up(&mut self) {}
    /// The engine mirror's report; only a traced stack has one.
    fn mirror_report(&mut self) -> Option<MirrorReport> {
        None
    }
}

impl Stack for LoopbackServer {
    fn call(&mut self, _op: &Op, req: RequestEnvelope) -> (ResponseEnvelope, u64) {
        let start = Instant::now();
        let resp = self.handle(req);
        (resp, start.elapsed().as_nanos() as u64)
    }

    fn store_stats(&self) -> StoreStats {
        LoopbackServer::store_stats(self)
    }

    fn metrics_text(&self) -> String {
        self.metrics()
    }

    fn shutdown(&mut self) -> Result<()> {
        LoopbackServer::shutdown(self)
    }
}

/// Reads one counter out of the Prometheus text.
pub fn prometheus_counter(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0)
}

/// How long a measured phase lasts.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Seconds of service time (`--seconds`).
    Seconds(f64),
    /// A fixed number of slices (`--fixed-work`), so counts repeat exactly.
    Slices(u64),
}

impl Budget {
    pub fn halved(self) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s / 2.0),
            Budget::Slices(n) => Budget::Slices(n / 2),
        }
    }

    /// Whether a phase that has run `slices` slices in `busy_s` seconds of
    /// service time is over. A phase has at least one slice.
    pub fn spent(self, slices: usize, busy_s: f64) -> bool {
        slices >= 1
            && match self {
                Budget::Seconds(s) => busy_s >= s,
                Budget::Slices(n) => slices as u64 >= n,
            }
    }
}

/// Latencies and counts of one slice of a measured phase: a fixed number of
/// consecutive requests, about 30 ms on the seed commit.
#[derive(Debug, Clone)]
pub struct Slice {
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    /// Views returned by reads plus views appended to by writes.
    pub views: u64,
    /// How many times slower than nominal the machine ran the reference
    /// around this slice (`machine::Meter::lap`); its times are divided by it.
    pub slowdown: f64,
}

impl Default for Slice {
    fn default() -> Self {
        Slice {
            read_ns: Vec::new(),
            write_ns: Vec::new(),
            views: 0,
            slowdown: 1.0,
        }
    }
}

impl Slice {
    pub fn record(&mut self, is_read: bool, latency_ns: u64, views: u64) {
        if is_read {
            self.read_ns.push(latency_ns);
        } else {
            self.write_ns.push(latency_ns);
        }
        self.views += views;
    }

    pub fn requests(&self) -> u64 {
        (self.read_ns.len() + self.write_ns.len()) as u64
    }

    /// Views the reads asked for.
    pub fn read_views(&self) -> u64 {
        self.views - self.write_ns.len() as u64
    }

    /// Service time as the clock gave it: the sum of the request latencies.
    /// The generator and the response checks run between requests and are
    /// not part of it.
    pub fn busy_s(&self) -> f64 {
        self.read_ns.iter().chain(&self.write_ns).sum::<u64>() as f64 / 1e9
    }

    /// Service time at nominal machine speed.
    pub fn nominal_busy_s(&self) -> f64 {
        self.busy_s() / self.slowdown
    }

    /// Adds `other`'s counts, and its latencies brought to nominal speed;
    /// `self` is a pool whose own `slowdown` stays 1.
    fn absorb_nominal(&mut self, other: &Slice) {
        let nominal = |ns: &u64| (*ns as f64 / other.slowdown).round() as u64;
        self.read_ns.extend(other.read_ns.iter().map(nominal));
        self.write_ns.extend(other.write_ns.iter().map(nominal));
        self.views += other.views;
    }
}

/// The end-to-end numbers of a measured phase, at nominal machine speed.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub reqs_per_s: f64,
    pub views_per_s: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub read_p50_p99_us: Option<(f64, f64)>,
    pub write_p50_p99_us: Option<(f64, f64)>,
    /// The slices pooled: their counts, and their latencies at nominal speed.
    pub pool: Slice,
    /// Requests per second as the clock gave it.
    pub raw_reqs_per_s: f64,
    /// The reference's slowdown over the slices: least, median, greatest.
    pub slowdown: [f64; 3],
    pub slices: usize,
    pub reads: u64,
    pub writes: u64,
}

/// Every timing of a phase is computed over all its slices, each slice's
/// times divided by the reference's slowdown around it (`machine`): service
/// time is the sum of the slices' nominal service times, and the percentiles
/// are those of the nominal latencies pooled. No slice is left out: which
/// slices a disturbed run would drop differs from run to run, and with them
/// the requests the numbers are about.
pub fn summarize(slices: &[Slice]) -> Summary {
    let mut pool = Slice::default();
    let (mut busy, mut raw_busy) = (0.0, 0.0);
    for slice in slices {
        pool.absorb_nominal(slice);
        busy += slice.nominal_busy_s();
        raw_busy += slice.busy_s();
    }
    let mut slowdowns: Vec<f64> = slices.iter().map(|s| s.slowdown).collect();
    slowdowns.sort_by(f64::total_cmp);
    let slowdown = match slowdowns[..] {
        [] => [1.0; 3],
        [least, .., greatest] => [least, slowdowns[slowdowns.len() / 2], greatest],
        [only] => [only; 3],
    };
    let mut latencies: Vec<u64> = pool.read_ns.iter().chain(&pool.write_ns).copied().collect();
    let (p50_us, p99_us) = p50_p99_us(&mut latencies).unwrap_or_default();
    let p90_us = percentile(&latencies, 0.90).unwrap_or(0) as f64 / 1e3;
    let (reads, writes) = (pool.read_ns.len() as u64, pool.write_ns.len() as u64);
    Summary {
        reqs_per_s: pool.requests() as f64 / busy,
        views_per_s: pool.views as f64 / busy,
        p50_us,
        p90_us,
        p99_us,
        // Sorts the pooled latencies in place; nothing reads them in order.
        read_p50_p99_us: p50_p99_us(&mut pool.read_ns),
        write_p50_p99_us: p50_p99_us(&mut pool.write_ns),
        raw_reqs_per_s: pool.requests() as f64 / raw_busy,
        pool,
        slowdown,
        slices: slices.len(),
        reads,
        writes,
    }
}

/// Operations attempted and failed, with the first few failures kept for
/// the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub examples: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.examples.len() < 5 {
            self.examples.push(what);
        }
    }

    pub fn check(&mut self, result: std::result::Result<(), String>) {
        match result {
            Ok(()) => self.attempted += 1,
            Err(what) => self.fail(what),
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.examples.extend(other.examples);
        self.examples.truncate(5);
    }
}

/// The envelope of one request; a write carries the payload of `write_seq`.
fn envelope(op: Op, write_seq: u64) -> RequestEnvelope {
    match op {
        Op::Feed(user) => RequestEnvelope::read_feed(user),
        Op::Point(user, target) => RequestEnvelope::read(user, vec![target]),
        Op::Write(user) => RequestEnvelope::write(user, payload(write_seq)),
    }
}

/// One closed-loop client: it sends its next request only after the reply to
/// the previous one, as a front-end thread calling the store does.
pub struct Client {
    pub graph: SocialGraph,
    pub stack: Box<dyn Stack>,
    pub shadow: Shadow,
    pub tally: Tally,
    /// Requests issued so far, the warm-up's included.
    pub sent: u64,
    stream: RequestStream,
}

/// A measured phase: its slices, and the reads' views the store counted as
/// cache hits.
pub struct Measured {
    pub slices: Vec<Slice>,
    pub cache_hits: u64,
}

impl Client {
    /// Issues one request, checks the response against the shadow model and
    /// returns `(is_read, latency_ns, views touched)`.
    fn issue(&mut self) -> Result<(bool, u64, u64)> {
        let op = self.stream.next_op(&self.graph)?;
        let write_seq = match op {
            Op::Write(_) => self.shadow.next_seq(),
            Op::Feed(_) | Op::Point(..) => 0,
        };
        let (resp, latency_ns) = self.stack.call(&op, envelope(op, write_seq));
        self.sent += 1;
        let views = match op {
            Op::Feed(user) => self.graph.followees(user).len() as u64,
            Op::Point(..) | Op::Write(_) => 1,
        };
        let verdict = match (&op, &resp.body) {
            _ if !resp.is_success() => Err(format!("{:?} {:?}", resp.status, resp.detail)),
            (Op::Feed(user), ResponseBody::Feed(feed)) => {
                self.shadow.check_feed(self.graph.followees(*user), feed)
            }
            (Op::Point(_, target), ResponseBody::Views(views)) if views.len() == 1 => {
                self.shadow.check_view(*target, &views[0])
            }
            (Op::Write(user), ResponseBody::Empty) => {
                self.shadow.acknowledge(*user, write_seq);
                Ok(())
            }
            (_, body) => Err(format!("unexpected body {body:?}")),
        };
        self.tally
            .check(verdict.map_err(|e| format!("{op:?}: {e}")));
        Ok((!matches!(op, Op::Write(_)), latency_ns, views))
    }

    /// Issues the warm-up's requests and returns how long they took, in
    /// seconds of wall-clock at nominal machine speed: like a measured phase
    /// it is cut into slices with a reading of the reference between them.
    pub fn warm_up(
        &mut self,
        requests: u64,
        slice_requests: u64,
        meter: &mut Meter,
    ) -> Result<f64> {
        let mut nominal_s = 0.0;
        let mut left = requests;
        meter.lap();
        while left > 0 {
            let start = Instant::now();
            for _ in 0..left.min(slice_requests) {
                self.issue()?;
            }
            left -= left.min(slice_requests);
            nominal_s += start.elapsed().as_secs_f64() / meter.lap();
        }
        Ok(nominal_s)
    }

    /// The measured phase: slices of `slice_requests` requests, a reading of
    /// the reference after each, until the budget is spent. Also checks that
    /// the store counted exactly the views the reads asked for.
    pub fn measure(
        &mut self,
        budget: Budget,
        slice_requests: u64,
        meter: &mut Meter,
    ) -> Result<Measured> {
        let before = self.stack.store_stats();
        let mut slices = Vec::new();
        let mut busy_s = 0.0;
        meter.lap();
        while !budget.spent(slices.len(), busy_s) {
            let mut slice = Slice::default();
            for _ in 0..slice_requests {
                let (is_read, latency_ns, views) = self.issue()?;
                slice.record(is_read, latency_ns, views);
            }
            slice.slowdown = meter.lap();
            busy_s += slice.busy_s();
            slices.push(slice);
        }
        let after = self.stack.store_stats();
        let served =
            (after.cache_hits + after.cache_misses) - (before.cache_hits + before.cache_misses);
        let asked: u64 = slices
            .iter()
            .map(|s| s.views - s.write_ns.len() as u64)
            .sum();
        self.tally.check(if served == asked {
            Ok(())
        } else {
            Err(format!(
                "store served {served} views, reads asked for {asked}"
            ))
        });
        Ok(Measured {
            slices,
            cache_hits: after.cache_hits - before.cache_hits,
        })
    }
}

/// Where set-up time went, in seconds at nominal machine speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSplit {
    pub graph_s: f64,
    pub preload_s: f64,
    pub spawn_s: f64,
    pub warmup_s: f64,
}

impl SetupSplit {
    pub fn total_s(&self) -> f64 {
        self.graph_s + self.preload_s + self.spawn_s + self.warmup_s
    }
}

/// A deployed, warmed-up stack with its client.
pub struct Deployment {
    pub client: Client,
    pub setup: SetupSplit,
    durable: Option<(Arc<ShardedLogStore>, DataDir)>,
}

/// What the durable tier reports after a clean shutdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct DurableReport {
    pub shutdown_sync_ms: f64,
    pub disk_bytes_per_user_byte: f64,
    pub segments: f64,
}

/// Everything a server is spawned from.
struct Parts {
    graph: SocialGraph,
    topology: Topology,
    store_config: StoreConfig,
    tier: Arc<dyn PersistentStore>,
    durable: Option<(Arc<ShardedLogStore>, DataDir)>,
    shadow: Shadow,
    graph_s: f64,
    preload_s: f64,
}

/// The deployment every serving workload shares: FacebookLike graph, the
/// paper's tree, 30 % extra memory, random initial placement. Views are
/// preloaded straight into the durable tier, before any server exists, so
/// set-up does not go through the write path.
fn prepare(spec: &Spec, seed: u64, data_root: &Path, meter: &mut Meter) -> Result<Parts> {
    let (made, graph_s) = meter.timed(|| -> Result<_> {
        let graph = SocialGraph::generate(GraphPreset::FacebookLike, USERS, seed)?;
        Ok((graph, Topology::paper_tree()?))
    });
    let (graph, topology) = made?;

    let (preloaded, preload_s) = meter.timed(|| -> Result<_> {
        let durable = if spec.kind.is_durable() {
            let dir = DataDir::create(data_root)?;
            let store = Arc::new(ShardedLogStore::open(dir.path(), ShardedConfig::default())?);
            Some((store, dir))
        } else {
            None
        };
        let tier: Arc<dyn PersistentStore> = match &durable {
            Some((store, _)) => Arc::clone(store) as Arc<dyn PersistentStore>,
            None => Arc::new(MockPersistentStore::new()),
        };
        let mut shadow = Shadow::new(graph.user_count());
        for user in graph.users() {
            for _ in 0..PRELOAD_EVENTS {
                let seq = shadow.next_seq();
                tier.append(user, payload(seq))?;
                shadow.acknowledge(user, seq);
            }
        }
        Ok((durable, tier, shadow))
    });
    let (durable, tier, shadow) = preloaded?;
    Ok(Parts {
        graph,
        topology,
        store_config: StoreConfig {
            extra_memory_percent: 30,
            placement: InitialPlacement::Random { seed },
            seed,
        },
        tier,
        durable,
        shadow,
        graph_s,
        preload_s,
    })
}

/// Spawns the stack over the prepared parts — the real `LoopbackServer`
/// with the default `ServeConfig`, or with `recorder` the bench-assembled
/// traced stack — and warms it up; caches fill by demand. Every part of the
/// set-up is timed at nominal machine speed.
pub fn deploy(
    spec: &Spec,
    seed: u64,
    data_root: &Path,
    recorder: Option<SharedRecorder>,
    meter: &mut Meter,
) -> Result<Deployment> {
    let parts = prepare(spec, seed, data_root, meter)?;
    let (stack, spawn_s) = meter.timed(|| -> Result<Box<dyn Stack>> {
        Ok(match recorder {
            None => Box::new(LoopbackServer::spawn_with_store(
                &parts.graph,
                parts.topology,
                parts.store_config,
                ServeConfig::default(),
                parts.tier,
            )?),
            Some(rec) => Box::new(TracedStack::spawn(
                &parts.graph,
                parts.topology,
                parts.store_config,
                parts.tier,
                rec,
            )?),
        })
    });

    let mut client = Client {
        stream: RequestStream::new(spec.kind, seed, 0),
        graph: parts.graph,
        stack: stack?,
        shadow: parts.shadow,
        tally: Tally::default(),
        sent: 0,
    };
    let warmup_s = client.warm_up(spec.warmup, spec.slice, meter)?;
    client.stack.end_warm_up();
    Ok(Deployment {
        client,
        setup: SetupSplit {
            graph_s: parts.graph_s,
            preload_s: parts.preload_s,
            spawn_s,
            warmup_s,
        },
        durable: parts.durable,
    })
}

impl Deployment {
    /// Graceful shutdown, then the durable checks: with the server gone, a
    /// cold `read_back` of the data directory must hold every acknowledged
    /// write. The data directory is removed on return, error or not.
    pub fn finish(mut self) -> Result<(Tally, DurableReport)> {
        let t = Instant::now();
        self.client.stack.shutdown()?;
        let mut report = DurableReport {
            shutdown_sync_ms: t.elapsed().as_secs_f64() * 1e3,
            ..DurableReport::default()
        };
        let Client {
            stack,
            shadow,
            mut tally,
            ..
        } = self.client;
        drop(stack);
        if let Some((store, dir)) = self.durable {
            let user_bytes = shadow.acknowledged() * PAYLOAD_BYTES as u64;
            report.disk_bytes_per_user_byte = store.bytes_on_disk() as f64 / user_bytes as f64;
            report.segments = store.segment_count() as f64;
            drop(store);
            let (index, _) = ShardedLogStore::read_back(dir.path())?;
            let (checked, failures) = shadow.check_read_back(&index);
            tally.attempted += checked - failures.len() as u64;
            for failure in failures {
                tally.fail(failure);
            }
        }
        Ok((tally, report))
    }
}

/// The contention pass: `clients` closed-loop clients on as many CPUs drive
/// one real server for `seconds` of wall-clock. Concurrent writers reorder,
/// so responses are checked for status and feed order only. Returns the
/// requests completed per second over all clients.
pub fn contention_pass(
    spec: &Spec,
    seed: u64,
    data_root: &Path,
    clients: u64,
    seconds: f64,
) -> Result<(f64, Tally)> {
    /// Short, because every request of this pass pays cross-CPU wake-ups.
    const WARMUP: u64 = 1_000;
    let parts = prepare(spec, seed, data_root, &mut Meter::new())?;
    let server = LoopbackServer::spawn_with_store(
        &parts.graph,
        parts.topology,
        parts.store_config,
        ServeConfig::default(),
        parts.tier,
    )?;
    let graph = &parts.graph;
    let next_seq = std::sync::atomic::AtomicU64::new(1 << 32);
    let drive = |client: u64, until: &dyn Fn(u64) -> bool| -> Result<Tally> {
        let mut stream = RequestStream::new(spec.kind, seed, client);
        let mut tally = Tally::default();
        while !until(tally.attempted) {
            let op = stream.next_op(graph)?;
            let write_seq = next_seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let resp = server.handle(envelope(op, write_seq));
            tally.check(match &resp.body {
                _ if !resp.is_success() => Err(format!("{op:?}: {:?}", resp.status)),
                ResponseBody::Feed(feed)
                    if feed.windows(2).any(|w| w[0].timestamp() < w[1].timestamp()) =>
                {
                    Err(format!("{op:?}: feed is not newest first"))
                }
                _ => Ok(()),
            });
        }
        Ok(tally)
    };
    drive(0, &|done| done >= WARMUP)?;
    let start = Instant::now();
    let tallies: Vec<Result<Tally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let drive = &drive;
                scope.spawn(move || drive(c, &|_| start.elapsed().as_secs_f64() >= seconds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a contention client panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    server.shutdown()?;
    let mut total = Tally::default();
    for tally in tallies {
        total.absorb(tally?);
    }
    Ok((total.attempted as f64 / wall_s, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(read_ns: &[u64], write_ns: &[u64], views: u64, slowdown: f64) -> Slice {
        Slice {
            read_ns: read_ns.to_vec(),
            write_ns: write_ns.to_vec(),
            views,
            slowdown,
        }
    }

    #[test]
    fn summary_pools_every_slice_at_nominal_speed() {
        // Eight slices of 4 requests: 3 reads of 1 us and a write of 5 us at
        // nominal speed. The machine ran at its nominal speed around two of
        // them, 1.25 times slower around two, and twice slower around the
        // rest; every slice took what the machine made of it.
        let at = |slowdown: f64| {
            let t = |ns: f64| (ns * slowdown) as u64;
            slice(&[t(1_000.0); 3], &[t(5_000.0)], 10, slowdown)
        };
        let mut slices = vec![at(2.0); 8];
        (slices[2], slices[7]) = (at(1.0), at(1.0));
        (slices[0], slices[5]) = (at(1.25), at(1.25));
        let s = summarize(&slices);
        assert_eq!((s.slices, s.reads, s.writes, s.pool.views), (8, 24, 8, 80));
        assert_eq!(s.slowdown, [1.0, 2.0, 2.0]);
        // At nominal speed every slice takes 8 us.
        assert!((s.reqs_per_s - 500_000.0).abs() < 1e-6, "{}", s.reqs_per_s);
        assert!((s.views_per_s - 1_250_000.0).abs() < 1e-6);
        assert_eq!(s.read_p50_p99_us, Some((1.0, 1.0)));
        assert_eq!(s.write_p50_p99_us, Some((5.0, 5.0)));
        assert_eq!((s.p50_us, s.p90_us, s.p99_us), (1.0, 5.0, 5.0));
        // As the clock gave it: 32 requests in (2 + 2 x 1.25 + 4 x 2) x 8 us.
        assert!((s.raw_reqs_per_s - 32.0 / 100e-6).abs() < 1e-3);
    }

    #[test]
    fn a_read_only_phase_has_no_write_percentiles() {
        let s = summarize(&[slice(&[3_000, 1_000], &[], 15, 1.0)]);
        assert_eq!(s.write_p50_p99_us, None);
        assert_eq!(s.read_p50_p99_us, Some((1.0, 3.0)));
        assert_eq!(s.slowdown, [1.0; 3]);
    }

    #[test]
    fn a_phase_has_at_least_one_slice() {
        assert!(!Budget::Seconds(1.0).spent(0, 5.0));
        assert!(Budget::Seconds(1.0).spent(1, 1.0));
        assert!(!Budget::Seconds(1.0).spent(4, 0.9));
        assert!(!Budget::Slices(330).halved().spent(164, 100.0));
        assert!(Budget::Slices(330).halved().spent(165, 0.0));
    }

    #[test]
    fn prometheus_counters_are_read_by_exact_name() {
        let text = "# HELP x\ndynasore_envelopes_served_total 42\n\
                    dynasore_envelopes_rejected_total 0\n";
        assert_eq!(
            prometheus_counter(text, "dynasore_envelopes_served_total"),
            42
        );
        assert_eq!(prometheus_counter(text, "dynasore_envelopes_served"), 0);
        assert_eq!(prometheus_counter(text, "missing"), 0);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut tally = Tally::default();
        tally.check(Ok(()));
        tally.check(Err("bad".into()));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.examples, vec!["bad".to_string()]);
    }
}
