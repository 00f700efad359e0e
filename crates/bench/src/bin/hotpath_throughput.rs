//! **Hot-path throughput** — steady-state requests/sec of the DynaSoRe
//! read and write paths over the paper tree (§4.3 topology), measured by
//! driving `handle_read`/`handle_write` directly after the placement has
//! converged. This is the perf trajectory anchor for the request hot path:
//! every change to routing, replica storage or traffic accounting is
//! measured against the numbers recorded in `BENCH_hotpath.json`.
//!
//! ```text
//! cargo run --release -p dynasore-bench --bin hotpath_throughput \
//!     [-- --users N --seed N --iters N --out PATH --quick \
//!         --check-against PATH --tolerance F --data-dir PATH \
//!         --warmup-secs S --graph PATH --trace-out PATH --metrics-out PATH]
//! ```
//!
//! `--graph PATH` replays a real dataset: the file is parsed as a
//! SNAP-style edge list (`#` comments, tab- or space-separated, self-loops
//! and duplicates tolerated), and its `max id + 1` users replace the
//! synthetic `--users N` graph — so public Twitter/Flickr snapshots drive
//! the same measured phases directly.
//!
//! `--warmup-secs S` caps the convergence warm-up by wall time (the full
//! warm-up is sized for measurement runs and dominates dev iteration at
//! quick scale).
//!
//! `--trace-out PATH` / `--metrics-out PATH` attach a flight-recorder
//! observer to the durable phase's sharded store and dump its event
//! timeline (JSONL) and metrics registry (Prometheus text exposition):
//! group-commit fills and the background flusher's
//! fsyncs with their lag-in-bytes. Without the flags the stores run the
//! unobserved code.
//!
//! `--quick` shrinks the graph and iteration counts so the binary doubles as
//! a CI smoke test; the JSON is written either way (default:
//! `BENCH_hotpath.json` in the current directory).
//!
//! `--check-against PATH` turns the run into a regression guard: after
//! measuring, the binary reads the committed snapshot at `PATH` and exits
//! nonzero if `read.reqs_per_sec`, `write.reqs_per_sec`,
//! `read_accounted.reqs_per_sec` or `durable.reqs_per_sec` dropped more than
//! `--tolerance` (default 0.30, i.e. 30%) below it, or if
//! `stats_bytes_per_replica`, the engine phases' `peak_rss_mb` or
//! `durable.peak_rss_mb` rose more than that above it. When the run has
//! the snapshot's scale (same `users`, `seed` and `iters`, the synthetic
//! graph and an uncapped warm-up) it also exits nonzero if any exact
//! engine count differs from the snapshot at all: `read.messages`,
//! `write.messages`, `read_accounted.messages`,
//! `read.evictions` and `read_accounted.evictions` are the same on every
//! run of one build, so a change to one is a changed placement decision.
//! At that scale `stats_bytes_per_replica`, the same on every run of one
//! build as well, may not rise above the snapshot at all.
//! CI runs `--quick --check-against BENCH_hotpath_quick.json` (the
//! quick-scale snapshot, so the comparison is same-scale) so hot-path
//! regressions fail the pipeline.
//!
//! The `read_accounted` phase drives the same reads through a sink that
//! charges a queue-tracking [`TrafficAccount`] under the datacenter
//! [`NetworkModel`] — the simulator's full per-message latency bookkeeping —
//! so the guard also proves the time-aware accounting does not regress the
//! hot path.
//!
//! Both read rows also report the memory policy the reads exercise: the
//! replicas evicted during the phase to admit new ones (`evictions`), the
//! phase's wall time per eviction (`ns_per_eviction` — a ceiling on what
//! one costs, and the number that falls when victim selection gets
//! cheaper), and the wall time of one maintenance tick on a copy of the
//! engine as the phase left it (`tick_ms`: counter rotation, threshold
//! refresh and eviction sweep over every server).
//!
//! `stats_bytes_per_replica` is the heap the engine's access statistics
//! hold per replica when the read phase ends
//! ([`DynaSoReEngine::stats_heap_bytes`]; a count, identical on every run
//! of one build), `peak_rss_mb` the process's peak resident set (`VmHWM`)
//! after the engine phases — up to three engines at that point: the measured
//! one, the copy the accounted phase starts from and the copy a tick is
//! timed on, besides the graph — and `durable.peak_rss_mb` the same
//! high-water mark of the child process that runs the durable phases:
//! what the store holds while it appends (its positions and batch
//! buffers), and nothing of the engines'.
//!
//! The durable phases run in a child process, this binary started again
//! with the same flags. The `durable` phase writes small fixed-size
//! payloads through a [`ShardedLogStore`] (group commit plus the pipelined
//! background flusher, default shard count) in a scratch directory
//! (`--data-dir`, default under the system temp dir) and times them
//! *including the final sync*, so the number is a true durable rate. It
//! appends at least 1,000,000 events, `--quick` included, so the flusher
//! reaches its fsync wakes under load.
//! A short `durable_single_sync` phase then measures the same store type at
//! one shard with no flusher and a `sync()` after each append — which
//! commits that append's frame and fsyncs it: one fsync per append, the
//! pre-sharding durability baseline — and the JSON records the speedup
//! between the two.

use std::time::Instant;

use dynasore_bench::{parse_args_or_exit, read_snapshot_or_exit, snapshot_field, Args};
use dynasore_core::{DynaSoReEngine, InitialPlacement};
use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_store::{PersistentStore, ShardedConfig, ShardedLogStore, StoreObs};
use dynasore_topology::{Topology, TrafficAccount};
use dynasore_types::{
    CountingSink, MemoryBudget, Message, NetworkModel, PlacementEngine, ReplicaChangeReason,
    SimTime, TraceEventKind, TrafficSink, UserId, HOUR_SECS,
};

/// Payload size of the durable phase. 64 bytes (80 per framed record) keeps
/// the phase inside a modest disk's sequential bandwidth at
/// million-writes-per-second rates, so the number measures the tier —
/// lock + batch + pipelined fsync — rather than raw platter speed; the
/// tweet-sized 140-byte payloads of the simulator (`SIM_EVENT_BYTES`) are
/// bandwidth-bound at that rate on ~100 MB/s disks.
const DURABLE_EVENT_BYTES: usize = 64;

#[derive(Debug, PartialEq)]
struct Options {
    users: usize,
    seed: u64,
    iters: u64,
    out: String,
    quick: bool,
    check_against: Option<String>,
    tolerance: f64,
    data_dir: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    /// Wall-clock cap on the warm-up loop, if any.
    warmup_secs: Option<f64>,
    /// SNAP-style edge list to replay instead of the synthetic graph.
    graph: Option<String>,
}

/// The flags [`Options::parse`] accepts, printed when it rejects a command line.
const USAGE: &str = "usage: hotpath_throughput [--users N] [--seed N] [--iters N] [--out PATH] \
     [--quick] [--check-against PATH] [--tolerance F] [--data-dir PATH] [--warmup-secs S] \
     [--graph PATH] [--trace-out PATH] [--metrics-out PATH]";

impl Options {
    /// Parses the command line (program name excluded) with the strict [`Args`].
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            users: 100_000,
            seed: 42,
            iters: 0,
            out: "BENCH_hotpath.json".to_string(),
            quick: false,
            check_against: None,
            tolerance: 0.30,
            data_dir: None,
            trace_out: None,
            metrics_out: None,
            warmup_secs: None,
            graph: None,
        };
        let mut args = Args::new(args);
        while let Some(flag) = args.flag() {
            match flag {
                "--users" => o.users = args.parsed()?,
                "--seed" => o.seed = args.parsed()?,
                "--iters" => o.iters = args.parsed()?,
                "--out" => o.out = args.value()?,
                "--check-against" => o.check_against = Some(args.value()?),
                "--tolerance" => o.tolerance = args.tolerance()?,
                "--data-dir" => o.data_dir = Some(args.value()?),
                "--trace-out" => o.trace_out = Some(args.value()?),
                "--metrics-out" => o.metrics_out = Some(args.value()?),
                "--warmup-secs" => o.warmup_secs = Some(args.parsed()?),
                "--graph" => o.graph = Some(args.value()?),
                "--quick" => o.quick = true,
                _ => return args.unknown(),
            }
        }
        if o.quick {
            o.users = o.users.min(2_000);
        }
        if o.iters == 0 {
            o.iters = if o.quick { 20_000 } else { 200_000 };
        }
        Ok(o)
    }
}

/// The user the `k`-th request of every phase comes from: a stride through
/// all `users`.
fn nth_user(users: u64, k: u64) -> UserId {
    UserId::new((k.wrapping_mul(7_919) % users) as u32)
}

/// Whether a trace event is a replica evicted to make room.
fn is_eviction(event: &TraceEventKind) -> bool {
    matches!(
        event,
        TraceEventKind::ReplicaDropped {
            reason: ReplicaChangeReason::Eviction,
            ..
        }
    )
}

/// Wall time in milliseconds of one maintenance tick on a copy of `engine`,
/// so the phases that follow start from the state the reads left.
fn tick_ms(engine: &DynaSoReEngine) -> f64 {
    let mut copy = engine.clone();
    let start = Instant::now();
    copy.on_tick(SimTime::from_secs(HOUR_SECS), &mut CountingSink::default());
    start.elapsed().as_secs_f64() * 1e3
}

/// Heap bytes of access statistics per replica `engine` holds.
fn stats_bytes_per_replica(engine: &DynaSoReEngine, graph: &SocialGraph) -> f64 {
    let replicas: usize = graph
        .users()
        .map(|user| engine.replica_servers(user).len())
        .sum();
    engine.stats_heap_bytes() as f64 / replicas.max(1) as f64
}

/// The process's peak resident set in MiB (`VmHWM`), 0 where `/proc` does
/// not report it.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Buffers one request's messages, as the `Vec<Message>` sink of the other
/// phases does, and counts the evictions the engine traces.
#[derive(Default)]
struct ReadSink {
    messages: Vec<Message>,
    evictions: u64,
}

impl TrafficSink for ReadSink {
    fn record(&mut self, message: Message) {
        self.messages.push(message);
    }

    fn trace(&mut self, event: TraceEventKind) {
        self.evictions += u64::from(is_eviction(&event));
    }
}

/// Counts messages while charging each non-local one to a queue-tracking
/// account — the same work the simulator's accounting sink performs per
/// message under a time-aware network model.
struct AccountedSink<'a> {
    topology: &'a Topology,
    account: TrafficAccount,
    messages: u64,
    evictions: u64,
}

impl TrafficSink for AccountedSink<'_> {
    fn record(&mut self, message: Message) {
        self.messages += 1;
        if message.is_local() {
            return;
        }
        self.topology.record_path_timed(
            message.from,
            message.to,
            message.class,
            SimTime::from_secs(4),
            &mut self.account,
        );
    }

    fn trace(&mut self, event: TraceEventKind) {
        self.evictions += u64::from(is_eviction(&event));
    }
}

fn main() {
    let mut opts = parse_args_or_exit(USAGE, Options::parse);
    if let Ok(users) = std::env::var(DURABLE_CHILD) {
        opts.users = users.parse().expect("the parent's user count");
        println!("{}", durable_phases(&opts).to_line());
        return;
    }
    let setup_start = Instant::now();
    let graph = match &opts.graph {
        Some(path) => {
            let file = std::fs::File::open(path)
                .unwrap_or_else(|err| panic!("open graph file {path}: {err}"));
            let g = dynasore_graph::io::read_edge_list(std::io::BufReader::new(file))
                .unwrap_or_else(|err| panic!("parse edge list {path}: {err}"));
            eprintln!(
                "# hotpath_throughput: replaying {path} — {} users, {} edges",
                g.user_count(),
                g.edge_count()
            );
            // Every per-user table below is sized from the real user count.
            opts.users = g.user_count();
            g
        }
        None => SocialGraph::generate(GraphPreset::FacebookLike, opts.users, opts.seed)
            .expect("graph generation"),
    };
    let topology = Topology::paper_tree().expect("paper tree");
    let mut engine = DynaSoReEngine::builder()
        .topology(topology.clone())
        .budget(MemoryBudget::with_extra_percent(opts.users, 30))
        .initial_placement(InitialPlacement::Random { seed: opts.seed })
        .build(&graph)
        .expect("engine build");
    let setup_secs = setup_start.elapsed().as_secs_f64();

    let users = opts.users as u64;
    let user_at = |k: u64| nth_user(users, k);
    let mut out = Vec::new();

    // Warm-up: drive enough mixed traffic through every part of the cluster
    // that replica placement and proxies converge; steady state is what the
    // measured phases see.
    let warmup_start = Instant::now();
    let warmup_iters = (2 * users).min(opts.iters.max(users));
    let mut warmup_capped = false;
    for k in 0..warmup_iters {
        // `--warmup-secs` caps convergence by wall time for dev iteration;
        // the coarse check keeps the cap off the per-request path.
        if k % 1024 == 0 {
            if let Some(budget) = opts.warmup_secs {
                if warmup_start.elapsed().as_secs_f64() >= budget {
                    eprintln!(
                        "# hotpath_throughput: warmup capped at {budget}s \
                         ({k} of {warmup_iters} iters)"
                    );
                    warmup_capped = true;
                    break;
                }
            }
        }
        let user = user_at(k);
        out.clear();
        engine.handle_read(user, graph.followees(user), SimTime::from_secs(1), &mut out);
        out.clear();
        engine.handle_write(user, SimTime::from_secs(1), &mut out);
    }
    let warmup_secs = warmup_start.elapsed().as_secs_f64();

    // Snapshot the converged engine so the accounted-read phase below can
    // replay the *same* requests from the *same* starting state as the
    // plain read phase — otherwise placement keeps converging during the
    // earlier phases and the two read measurements cover unlike workloads.
    let mut accounted_engine = engine.clone();

    // Measured read phase.
    // Both read phases replay these requests, so they touch the same number
    // of views: a read fans out to every followee, and the engine's read
    // cost is per view touched, not per request.
    let read_views: u64 = (0..opts.iters)
        .map(|k| graph.followees(user_at(k)).len() as u64)
        .sum();
    let mut read_sink = ReadSink::default();
    let read_start = Instant::now();
    let mut read_messages = 0u64;
    for k in 0..opts.iters {
        let user = user_at(k);
        read_sink.messages.clear();
        engine.handle_read(
            user,
            graph.followees(user),
            SimTime::from_secs(2),
            &mut read_sink,
        );
        read_messages += read_sink.messages.len() as u64;
    }
    let read_secs = read_start.elapsed().as_secs_f64();
    let read_evictions = read_sink.evictions;
    let read_tick_ms = tick_ms(&engine);
    let stats_bytes = stats_bytes_per_replica(&engine, &graph);

    // Measured write phase. Writes are orders of magnitude faster than
    // reads, so the phase gets an iteration floor: measuring 20k quick-mode
    // writes takes ~1 ms and the resulting rate is noisy enough to trip the
    // regression guard on its own.
    let write_iters = opts.iters.max(1_000_000);
    let write_start = Instant::now();
    let mut write_messages = 0u64;
    for k in 0..write_iters {
        let user = user_at(k);
        out.clear();
        engine.handle_write(user, SimTime::from_secs(3), &mut out);
        write_messages += out.len() as u64;
    }
    let write_secs = write_start.elapsed().as_secs_f64();

    // Measured accounted-read phase: the identical reads from the identical
    // pre-read-phase engine state, but every message is charged to the
    // time-aware account (switch totals + queue bookkeeping), which is what
    // the simulator's hot path does per message — so the rate is directly
    // comparable to the plain read phase.
    let mut accounted = AccountedSink {
        topology: &topology,
        account: TrafficAccount::new(NetworkModel::datacenter()),
        messages: 0,
        evictions: 0,
    };
    let accounted_start = Instant::now();
    for k in 0..opts.iters {
        let user = user_at(k);
        accounted_engine.handle_read(
            user,
            graph.followees(user),
            SimTime::from_secs(2),
            &mut accounted,
        );
    }
    let accounted_secs = accounted_start.elapsed().as_secs_f64();
    let accounted_messages = accounted.messages;
    let accounted_evictions = accounted.evictions;
    let accounted_tick_ms = tick_ms(&accounted_engine);
    let peak_rss = peak_rss_mb();
    // Phase wall time per eviction; 0 when the phase evicted nothing.
    let ns_per_eviction = |secs: f64, evictions: u64| match evictions {
        0 => 0.0,
        n => secs * 1e9 / n as f64,
    };

    let reads_per_sec = opts.iters as f64 / read_secs;
    let read_ns_per_view = read_secs * 1e9 / read_views as f64;
    let writes_per_sec = write_iters as f64 / write_secs;
    let accounted_reads_per_sec = opts.iters as f64 / accounted_secs;

    // Free the engines and the graph before the durable phases, which run
    // in a child process: hundreds of megabytes of live heap shrink the
    // kernel's dirty-page headroom, which throttles the store's appends on
    // writeback, and a high-water mark cannot be reset, so only a process
    // of its own reports what the store holds. Only the numbers above
    // survive.
    drop(accounted);
    drop(accounted_engine);
    drop(engine);
    drop(graph);
    let DurableRun {
        iters: durable_iters,
        secs: durable_secs,
        bytes_on_disk: durable_bytes,
        peak_rss_mb: durable_peak_rss,
        single_iters,
        single_secs,
    } = run_durable_child(opts.users);
    let durable_shards = ShardedConfig::default().shards;

    let durable_per_sec = durable_iters as f64 / durable_secs;
    let single_sync_per_sec = single_iters as f64 / single_secs;
    let durable_speedup = durable_per_sec / single_sync_per_sec;

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"hotpath_throughput\",\n",
            "  \"users\": {users},\n",
            "  \"seed\": {seed},\n",
            "  \"iters\": {iters},\n",
            "  \"quick\": {quick},\n",
            "  \"setup_secs\": {setup:.3},\n",
            "  \"warmup_secs\": {warmup:.3},\n",
            "  \"stats_bytes_per_replica\": {stats_bytes:.1},\n",
            "  \"peak_rss_mb\": {peak_rss:.1},\n",
            "  \"read\": {{\n",
            "    \"reqs_per_sec\": {rps:.0},\n",
            "    \"views_per_sec\": {rvps:.0},\n",
            "    \"ns_per_view\": {rnspv:.0},\n",
            "    \"evictions\": {revict},\n",
            "    \"ns_per_eviction\": {rnspe:.0},\n",
            "    \"tick_ms\": {rtick:.3},\n",
            "    \"elapsed_secs\": {rsecs:.3},\n",
            "    \"messages\": {rmsgs}\n",
            "  }},\n",
            "  \"write\": {{\n",
            "    \"reqs_per_sec\": {wps:.0},\n",
            "    \"iters\": {witers},\n",
            "    \"elapsed_secs\": {wsecs:.3},\n",
            "    \"messages\": {wmsgs}\n",
            "  }},\n",
            "  \"read_accounted\": {{\n",
            "    \"reqs_per_sec\": {aps:.0},\n",
            "    \"views_per_sec\": {avps:.0},\n",
            "    \"ns_per_view\": {anspv:.0},\n",
            "    \"evictions\": {aevict},\n",
            "    \"ns_per_eviction\": {anspe:.0},\n",
            "    \"tick_ms\": {atick:.3},\n",
            "    \"elapsed_secs\": {asecs:.3},\n",
            "    \"messages\": {amsgs}\n",
            "  }},\n",
            "  \"durable\": {{\n",
            "    \"reqs_per_sec\": {dps:.0},\n",
            "    \"iters\": {diters},\n",
            "    \"elapsed_secs\": {dsecs:.3},\n",
            "    \"shards\": {dshards},\n",
            "    \"bytes_on_disk\": {dbytes},\n",
            "    \"peak_rss_mb\": {dpeak:.1}\n",
            "  }},\n",
            "  \"durable_single_sync\": {{\n",
            "    \"reqs_per_sec\": {sps:.0},\n",
            "    \"iters\": {siters},\n",
            "    \"elapsed_secs\": {ssecs:.3}\n",
            "  }},\n",
            "  \"durable_speedup_vs_single_sync\": {dspeed:.1}\n",
            "}}\n"
        ),
        users = opts.users,
        seed = opts.seed,
        iters = opts.iters,
        quick = opts.quick,
        setup = setup_secs,
        warmup = warmup_secs,
        stats_bytes = stats_bytes,
        peak_rss = peak_rss,
        rps = reads_per_sec,
        rvps = read_views as f64 / read_secs,
        rnspv = read_ns_per_view,
        revict = read_evictions,
        rnspe = ns_per_eviction(read_secs, read_evictions),
        rtick = read_tick_ms,
        rsecs = read_secs,
        rmsgs = read_messages,
        wps = writes_per_sec,
        witers = write_iters,
        wsecs = write_secs,
        wmsgs = write_messages,
        aps = accounted_reads_per_sec,
        avps = read_views as f64 / accounted_secs,
        anspv = accounted_secs * 1e9 / read_views as f64,
        aevict = accounted_evictions,
        anspe = ns_per_eviction(accounted_secs, accounted_evictions),
        atick = accounted_tick_ms,
        asecs = accounted_secs,
        amsgs = accounted_messages,
        dps = durable_per_sec,
        diters = durable_iters,
        dsecs = durable_secs,
        dshards = durable_shards,
        dbytes = durable_bytes,
        dpeak = durable_peak_rss,
        sps = single_sync_per_sec,
        siters = single_iters,
        ssecs = single_secs,
        dspeed = durable_speedup,
    );
    std::fs::write(&opts.out, &json).expect("write BENCH_hotpath.json");
    eprintln!(
        "# hotpath_throughput: {} users, {} iters — reads {:.0}/s ({:.0} ns/view), \
         writes {:.0}/s, accounted reads {:.0}/s, durable writes {:.0}/s \
         ({:.0}x single-sync) → {}",
        opts.users,
        opts.iters,
        reads_per_sec,
        read_ns_per_view,
        writes_per_sec,
        accounted_reads_per_sec,
        durable_per_sec,
        durable_speedup,
        opts.out
    );
    print!("{json}");

    if let Some(path) = &opts.check_against {
        let run = GuardedRun {
            users: opts.users,
            seed: opts.seed,
            iters: opts.iters,
            exact_counts: opts.graph.is_none() && !warmup_capped,
            reads_per_sec,
            writes_per_sec,
            accounted_reads_per_sec,
            durable_per_sec,
            stats_bytes_per_replica: stats_bytes,
            peak_rss_mb: peak_rss,
            durable_peak_rss_mb: durable_peak_rss,
            counts: [
                ("read", "messages", read_messages),
                ("write", "messages", write_messages),
                ("read_accounted", "messages", accounted_messages),
                ("read", "evictions", read_evictions),
                ("read_accounted", "evictions", accounted_evictions),
            ],
        };
        check_against_snapshot(path, &run, opts.tolerance);
    }
}

/// Set, to the parent's user count, in the environment of the child process
/// that runs the durable phases.
const DURABLE_CHILD: &str = "DYNASORE_HOTPATH_DURABLE_CHILD";

/// What the durable phases measured, as the child reports it to the parent
/// in one line of stdout.
#[derive(Debug, PartialEq)]
struct DurableRun {
    iters: u64,
    secs: f64,
    bytes_on_disk: u64,
    /// The child's own peak resident set: the store and nothing else.
    peak_rss_mb: f64,
    single_iters: u64,
    single_secs: f64,
}

impl DurableRun {
    const TAG: &'static str = "durable-run";

    fn to_line(&self) -> String {
        format!(
            "{} {} {} {} {} {} {}",
            DurableRun::TAG,
            self.iters,
            self.secs,
            self.bytes_on_disk,
            self.peak_rss_mb,
            self.single_iters,
            self.single_secs
        )
    }

    fn parse(line: &str) -> Option<DurableRun> {
        let mut fields = line.strip_prefix(DurableRun::TAG)?.split_whitespace();
        let mut next = || fields.next();
        let run = DurableRun {
            iters: next()?.parse().ok()?,
            secs: next()?.parse().ok()?,
            bytes_on_disk: next()?.parse().ok()?,
            peak_rss_mb: next()?.parse().ok()?,
            single_iters: next()?.parse().ok()?,
            single_secs: next()?.parse().ok()?,
        };
        next().is_none().then_some(run)
    }
}

/// Runs the durable phases in a child process — this binary again, with
/// the same flags and [`DURABLE_CHILD`] set to `users` — and returns what
/// it measured. Exits as the child did if it failed.
fn run_durable_child(users: usize) -> DurableRun {
    let exe = std::env::current_exe().expect("the path of this binary");
    let output = std::process::Command::new(exe)
        .args(std::env::args().skip(1))
        .env(DURABLE_CHILD, users.to_string())
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start the durable phases' child process");
    if !output.status.success() {
        eprintln!(
            "# hotpath_throughput: the durable phases failed ({})",
            output.status
        );
        std::process::exit(output.status.code().unwrap_or(1));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .find_map(DurableRun::parse)
        .unwrap_or_else(|| panic!("no durable-run line in the child's output: {stdout:?}"))
}

/// The durable phases, run in the child process.
fn durable_phases(opts: &Options) -> DurableRun {
    let users = opts.users as u64;
    let user_at = |k: u64| nth_user(users, k);
    // Measured durable phase: tweet-sized appends through the sharded,
    // group-committed store, timed *including the final sync* — every write
    // counted is actually fsynced by the time the clock stops.
    let data_dir = opts
        .data_dir
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "dynasore-bench-hotpath-durable-{}",
                std::process::id()
            ))
        });
    if data_dir.exists()
        && data_dir
            .read_dir()
            .map(|mut d| d.next().is_some())
            .unwrap_or(true)
    {
        eprintln!(
            "# hotpath_throughput: refusing to benchmark into non-empty {}",
            data_dir.display()
        );
        std::process::exit(2);
    }
    let durable_iters = opts.iters.max(1_000_000);
    let sharded_config = ShardedConfig::default();
    let payload_at = |k: u64| vec![(k as u8) ^ 0x5A; DURABLE_EVENT_BYTES];
    let sharded_dir = data_dir.join("sharded");
    let obs = (opts.trace_out.is_some() || opts.metrics_out.is_some()).then(StoreObs::default);
    let store = match &obs {
        Some(obs) => ShardedLogStore::open_observed(&sharded_dir, sharded_config, obs.clone())
            .expect("open sharded store"),
        None => ShardedLogStore::open(&sharded_dir, sharded_config).expect("open sharded store"),
    };
    let durable_start = Instant::now();
    for k in 0..durable_iters {
        store
            .append_version(user_at(k), payload_at(k))
            .expect("durable append");
    }
    store.sync().expect("final sync");
    let durable_secs = durable_start.elapsed().as_secs_f64();
    let durable_bytes = store.bytes_on_disk();
    drop(store);
    let durable_peak_rss = peak_rss_mb();
    if let Some(obs) = &obs {
        if let Some(path) = &opts.trace_out {
            std::fs::write(path, obs.to_jsonl()).expect("write trace JSONL");
            eprintln!("# hotpath_throughput: durable-phase trace written to {path}");
        }
        if let Some(path) = &opts.metrics_out {
            std::fs::write(path, obs.render_prometheus()).expect("write metrics exposition");
            eprintln!("# hotpath_throughput: durable-phase metrics written to {path}");
        }
    }

    // The pre-sharding durability baseline: one shard and a sync after
    // each append, which commits its frame — one fsync per append. At ~4k
    // appends/s this phase is time-boxed by a small iteration count rather
    // than matched to the phase above.
    let single_iters = if opts.quick { 300 } else { 2_000 };
    let single_dir = data_dir.join("single-sync");
    let single = ShardedLogStore::open(
        &single_dir,
        ShardedConfig {
            shards: 1,
            flush_interval: None,
        },
    )
    .expect("open single-sync store");
    let single_start = Instant::now();
    for k in 0..single_iters {
        single
            .append_version(user_at(k), payload_at(k))
            .expect("single-sync append");
        single.sync().expect("single-sync sync");
    }
    let single_secs = single_start.elapsed().as_secs_f64();
    drop(single);
    std::fs::remove_dir_all(&data_dir).expect("remove the durable phases' data directory");

    DurableRun {
        iters: durable_iters,
        secs: durable_secs,
        bytes_on_disk: durable_bytes,
        peak_rss_mb: durable_peak_rss,
        single_iters,
        single_secs,
    }
}

/// What the regression guard compares with a snapshot.
struct GuardedRun {
    users: usize,
    seed: u64,
    iters: u64,
    /// The run replayed the synthetic graph through the full warm-up, so
    /// its engine counts are exact for its `(users, seed, iters)`.
    exact_counts: bool,
    reads_per_sec: f64,
    writes_per_sec: f64,
    accounted_reads_per_sec: f64,
    durable_per_sec: f64,
    stats_bytes_per_replica: f64,
    /// The engine phases' peak resident set, graph included.
    peak_rss_mb: f64,
    durable_peak_rss_mb: f64,
    /// `(section, key, value)` of the engine counts that must equal the
    /// snapshot's exactly.
    counts: [(&'static str, &'static str, u64); 5],
}

/// The regression guard: prints every comparison of [`guard_verdicts`] and
/// fails the process if one failed.
fn check_against_snapshot(path: &str, run: &GuardedRun, tolerance: f64) {
    let snapshot = read_snapshot_or_exit(path);
    let verdicts = guard_verdicts(&snapshot, run, tolerance).unwrap_or_else(|err| {
        eprintln!("# regression guard: snapshot {path} {err}");
        std::process::exit(2);
    });
    let mut failed = false;
    for (ok, line) in verdicts {
        failed |= !ok;
        let verdict = if ok { "ok" } else { "FAIL" };
        eprintln!("# regression guard [{verdict}]: {line}");
    }
    if failed {
        eprintln!("# regression guard: the hot path regressed against {path}");
        std::process::exit(1);
    }
}

/// Compares `run` with the snapshot text: a measured rate may not drop more
/// than `tolerance` below its snapshot, the statistics' heap per replica
/// and the engine and durable phases' peak resident sets not rise more than
/// that above it, and — when the run has the snapshot's
/// scale — an engine count not differ at all. One `(passed, description)`
/// per comparison; a comparison is skipped (with a line saying so) for a
/// snapshot predating its field. `Err` if the snapshot has no rates.
fn guard_verdicts(
    snapshot: &str,
    run: &GuardedRun,
    tolerance: f64,
) -> Result<Vec<(bool, String)>, String> {
    let rate = |section| snapshot_field(snapshot, Some(section), "reqs_per_sec");
    let (Some(snap_read), Some(snap_write)) = (rate("read"), rate("write")) else {
        return Err("has no reqs_per_sec fields".to_string());
    };
    // `(name, measured, snapshot, what may not be crossed)`: a rate has a
    // floor below its snapshot, a memory figure a ceiling above it.
    let (floor, ceiling) = (1.0 - tolerance, 1.0 + tolerance);
    let mut checks = vec![
        ("read/s", run.reads_per_sec, Some(snap_read), floor),
        ("write/s", run.writes_per_sec, Some(snap_write), floor),
        (
            "read_accounted/s",
            run.accounted_reads_per_sec,
            rate("read_accounted"),
            floor,
        ),
        // `find` matches the quoted key, so "durable" cannot hit the
        // "durable_single_sync" section. The single-sync phase itself is not
        // guarded: a few thousand fsyncs is too noisy a sample.
        ("durable/s", run.durable_per_sec, rate("durable"), floor),
    ];
    // The top-level fields precede the first section, so a section's field
    // of the same name is never read as one.
    let top_level = snapshot.split("\"read\"").next().unwrap_or(snapshot);
    let field = |key| snapshot_field(top_level, None, key);
    let same_scale = run.exact_counts
        && field("users") == Some(run.users as f64)
        && field("seed") == Some(run.seed as f64)
        && field("iters") == Some(run.iters as f64);
    // The statistics' heap is a count too: at the snapshot's scale it may
    // not rise at all, at the one decimal the snapshot records.
    let (stats_bytes, stats_ceiling) = if same_scale {
        ((run.stats_bytes_per_replica * 10.0).round() / 10.0, 1.0)
    } else {
        (run.stats_bytes_per_replica, ceiling)
    };
    let name = "stats_bytes_per_replica";
    checks.push((name, stats_bytes, field(name), stats_ceiling));
    let name = "peak_rss_mb";
    checks.push((name, run.peak_rss_mb, field(name), ceiling));
    let snap_durable_rss = snapshot_field(snapshot, Some("durable"), "peak_rss_mb");
    checks.push((
        "durable.peak_rss_mb",
        run.durable_peak_rss_mb,
        snap_durable_rss,
        ceiling,
    ));

    let mut verdicts = Vec::new();
    for (name, measured, snap, limit) in checks {
        let Some(snap) = snap else {
            verdicts.push((true, format!("snapshot predates {name}; skipped")));
            continue;
        };
        let ratio = if snap > 0.0 { measured / snap } else { 1.0 };
        let crossed = if limit < 1.0 {
            ratio < limit
        } else {
            ratio > limit
        };
        verdicts.push((
            !crossed,
            format!(
                "{name} {measured:.1} vs snapshot {snap:.1} (ratio {ratio:.2}, limit {limit:.2})"
            ),
        ));
    }

    if !same_scale {
        let why = "not the snapshot's users, seed, iters, graph or full warm-up";
        verdicts.push((true, format!("exact counts skipped: {why}")));
        return Ok(verdicts);
    }
    for (section, key, measured) in run.counts {
        let name = format!("{section}.{key}");
        match snapshot_field(snapshot, Some(section), key) {
            None => verdicts.push((true, format!("snapshot predates {name}; skipped"))),
            Some(snap) => verdicts.push((
                measured as f64 == snap,
                format!("{name} {measured} vs snapshot {snap:.0} (must be equal)"),
            )),
        }
    }
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_fields_are_found_by_section_and_by_key() {
        let json = "{\n  \"stats_bytes_per_replica\": 301.5,\n  \"read\": {\n    \
                    \"reqs_per_sec\": 10,\n    \"messages\": 3\n  },\n  \"write\": {\n    \
                    \"reqs_per_sec\": 20\n  }\n}\n";
        assert_eq!(
            snapshot_field(json, None, "stats_bytes_per_replica"),
            Some(301.5)
        );
        let rate = |section| snapshot_field(json, Some(section), "reqs_per_sec");
        assert_eq!(rate("read"), Some(10.0));
        assert_eq!(rate("write"), Some(20.0));
        assert_eq!(rate("durable"), None);
        assert_eq!(snapshot_field(json, None, "peak_rss_mb"), None);
    }

    /// A run equal to the snapshot `guard_snapshot` describes.
    fn guarded_run() -> GuardedRun {
        GuardedRun {
            users: 2_000,
            seed: 42,
            iters: 20_000,
            exact_counts: true,
            reads_per_sec: 100.0,
            writes_per_sec: 200.0,
            accounted_reads_per_sec: 50.0,
            durable_per_sec: 400.0,
            stats_bytes_per_replica: 150.0,
            peak_rss_mb: 20.0,
            durable_peak_rss_mb: 30.0,
            counts: [
                ("read", "messages", 1_551_638),
                ("write", "messages", 1_350_320),
                ("read_accounted", "messages", 1_551_638),
                ("read", "evictions", 65_144),
                ("read_accounted", "evictions", 65_144),
            ],
        }
    }

    fn guard_snapshot() -> &'static str {
        "{\n  \"users\": 2000,\n  \"seed\": 42,\n  \"iters\": 20000,\n  \
         \"stats_bytes_per_replica\": 150.0,\n  \"peak_rss_mb\": 20.0,\n  \"read\": {\n    \
         \"reqs_per_sec\": 100,\n    \
         \"evictions\": 65144,\n    \"messages\": 1551638\n  },\n  \"write\": {\n    \
         \"reqs_per_sec\": 200,\n    \"iters\": 1000000,\n    \"messages\": 1350320\n  },\n  \
         \"read_accounted\": {\n    \"reqs_per_sec\": 50,\n    \"evictions\": 65144,\n    \
         \"messages\": 1551638\n  },\n  \"durable\": {\n    \"reqs_per_sec\": 400,\n    \
         \"peak_rss_mb\": 30.0\n  }\n}\n"
    }

    /// The descriptions of the failed comparisons.
    fn failures(run: &GuardedRun, tolerance: f64) -> Vec<String> {
        let verdicts = guard_verdicts(guard_snapshot(), run, tolerance).unwrap();
        verdicts
            .into_iter()
            .filter(|(ok, _)| !ok)
            .map(|(_, line)| line)
            .collect()
    }

    #[test]
    fn the_guard_holds_rates_within_tolerance_and_counts_exactly() {
        let verdicts = guard_verdicts(guard_snapshot(), &guarded_run(), 0.30).unwrap();
        // Four rates, three memory figures and five exact counts.
        assert_eq!(verdicts.len(), 12);
        assert!(verdicts.iter().all(|(ok, _)| *ok), "{verdicts:?}");

        // Rates may drift inside the tolerance; one eviction more may not.
        let mut run = guarded_run();
        run.reads_per_sec = 75.0;
        run.counts[4].2 += 1;
        assert_eq!(
            failures(&run, 0.30),
            ["read_accounted.evictions 65145 vs snapshot 65144 (must be equal)"]
        );
        // Every count is guarded, in either direction.
        for i in 0..5 {
            let mut run = guarded_run();
            run.counts[i].2 -= 1;
            assert_eq!(failures(&run, 0.30).len(), 1, "count {i}");
        }
        // A rate below its floor and memory above its ceiling fail.
        let mut run = guarded_run();
        run.writes_per_sec = 130.0;
        run.stats_bytes_per_replica = 200.0;
        run.peak_rss_mb = 26.5;
        run.durable_peak_rss_mb = 39.5;
        assert_eq!(failures(&run, 0.30).len(), 4);
        // Each peak resident set is read from its own section: the engine
        // phases' may rise to its ceiling while the durable one holds.
        let mut run = guarded_run();
        run.peak_rss_mb = 25.9;
        assert!(failures(&run, 0.30).is_empty());
    }

    #[test]
    fn stats_bytes_may_not_rise_at_the_snapshots_scale() {
        let stats_failures = |run: &GuardedRun| {
            let failed = failures(run, 0.30);
            assert!(failed.iter().all(|line| line.starts_with("stats_bytes")));
            failed.len()
        };
        // At the snapshot's scale, the figure as recorded may not rise.
        let mut run = guarded_run();
        run.stats_bytes_per_replica = 150.04;
        assert_eq!(stats_failures(&run), 0);
        run.stats_bytes_per_replica = 150.1;
        assert_eq!(stats_failures(&run), 1);
        run.stats_bytes_per_replica = 120.0;
        assert_eq!(stats_failures(&run), 0);
        // At another scale it may drift within the tolerance.
        run.users = 5_000;
        run.stats_bytes_per_replica = 190.0;
        assert_eq!(stats_failures(&run), 0);
        run.stats_bytes_per_replica = 200.0;
        assert_eq!(stats_failures(&run), 1);
    }

    #[test]
    fn exact_counts_are_compared_only_at_the_snapshots_scale() {
        let mut other_scale = guarded_run();
        other_scale.users = 5_000;
        let mut capped = guarded_run();
        capped.exact_counts = false;
        for mut run in [other_scale, capped] {
            run.counts[0].2 = 7;
            let verdicts = guard_verdicts(guard_snapshot(), &run, 0.30).unwrap();
            assert!(verdicts.iter().all(|(ok, _)| *ok), "{verdicts:?}");
            assert!(verdicts
                .last()
                .unwrap()
                .1
                .starts_with("exact counts skipped"));
        }
        // A snapshot predating the counts skips them; one without rates is
        // refused.
        let old = "{\"users\": 2000, \"seed\": 42, \"iters\": 20000,\n\
                   \"read\": {\"reqs_per_sec\": 100},\n\"write\": {\"reqs_per_sec\": 200}}";
        let verdicts = guard_verdicts(old, &guarded_run(), 0.30).unwrap();
        assert!(verdicts.iter().all(|(ok, _)| *ok), "{verdicts:?}");
        assert!(guard_verdicts("{}", &guarded_run(), 0.30).is_err());
        // One predating the engine phases' peak resident set skips it rather
        // than reading the durable section's.
        let old = "{\"users\": 2000,\n\"read\": {\"reqs_per_sec\": 100},\n\
                   \"write\": {\"reqs_per_sec\": 200},\n\
                   \"durable\": {\"reqs_per_sec\": 400, \"peak_rss_mb\": 1.0}}";
        let mut run = guarded_run();
        run.durable_peak_rss_mb = 1.0;
        let verdicts = guard_verdicts(old, &run, 0.30).unwrap();
        assert!(verdicts.iter().all(|(ok, _)| *ok), "{verdicts:?}");
        assert!(verdicts
            .iter()
            .any(|(_, line)| line == "snapshot predates peak_rss_mb; skipped"));
    }

    #[test]
    fn the_durable_child_reports_in_one_line() {
        let run = DurableRun {
            iters: 1_000_000,
            secs: 0.457_123,
            bytes_on_disk: 80_005_184,
            peak_rss_mb: 9.8,
            single_iters: 2_000,
            single_secs: 0.133,
        };
        assert_eq!(DurableRun::parse(&run.to_line()), Some(run));
        assert_eq!(DurableRun::parse("durable-run 1 2"), None);
        assert_eq!(DurableRun::parse("# hotpath_throughput: 1 2 3 4 5 6"), None);
    }

    fn parse(args: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Options::parse(&args)
    }

    #[test]
    fn every_documented_flag_round_trips() {
        let defaults = parse(&[]).unwrap();
        assert_eq!((defaults.users, defaults.iters), (100_000, 200_000));
        assert_eq!(defaults.tolerance, 0.30);
        let all = "--users 5000 --seed 7 --iters 300 --out o.json --check-against snap.json \
                   --tolerance 0.05 --data-dir d --warmup-secs 1.5 --graph g.txt \
                   --trace-out t.jsonl --metrics-out m.prom";
        let args: Vec<&str> = all.split_whitespace().collect();
        let expected = Options {
            users: 5_000,
            seed: 7,
            iters: 300,
            out: "o.json".to_string(),
            quick: false,
            check_against: Some("snap.json".to_string()),
            tolerance: 0.05,
            data_dir: Some("d".to_string()),
            trace_out: Some("t.jsonl".to_string()),
            metrics_out: Some("m.prom".to_string()),
            warmup_secs: Some(1.5),
            graph: Some("g.txt".to_string()),
        };
        assert_eq!(parse(&args), Ok(expected));
        // `--quick` caps the graph and, with `--iters` unset, the iterations.
        let quick = parse(&["--quick", "--users", "5000"]).unwrap();
        assert!(quick.quick);
        assert_eq!((quick.users, quick.iters), (2_000, 20_000));
        // The parallel phase's flag went with it.
        assert!(parse(&["--threads", "4"]).is_err());
    }
}
