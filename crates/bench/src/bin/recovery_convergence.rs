//! **Recovery convergence** — how fast the system returns to steady state
//! after losing a whole rack, the headline scenario the cluster-dynamics
//! subsystem exists for. The paper's §3.3 argues cache servers are
//! disposable because the durable tier can regenerate any view; this bench
//! quantifies the price: the recovery traffic burst at the moment of the
//! failure, and the number of requests until per-read traffic re-converges
//! to its pre-failure level.
//!
//! ```text
//! cargo run --release -p dynasore-bench --bin recovery_convergence \
//!     [-- --users N --seed N --quick]
//! ```
//!
//! Method: drive a converged DynaSoRe engine directly (as
//! `hotpath_throughput` does), measure the average messages per read over a
//! healthy window, kill rack 0, then replay read windows until the per-read
//! message average plateaus (two consecutive windows within 5% of each
//! other). The shrunken cluster settles at a *new* steady state — reported
//! as a ratio over the healthy level, since 4% of the capacity is gone —
//! and the windows spent getting there are the convergence time. The same
//! is repeated after bringing the rack back. The replay is compressed time
//! (no maintenance ticks run between windows), so the trajectory isolates
//! the placement's reaction from statistics-window rotation.
//!
//! Convergence is additionally reported as **wall-clock estimates**: the
//! reads consumed until the plateau, divided by the paper workload's read
//! rate (4 reads per user per day), give the real time a production cluster
//! would spend re-converging; and the recovery burst's persistent-tier
//! units, pushed through the [`NetworkModel::datacenter`] core switch,
//! give the time the refill transfer itself occupies the fabric.
//!
//! Finally, the bench *measures* recovery bandwidth from real bytes: it
//! writes every user's view into a file-backed
//! [`LogStructuredStore`](dynasore_store::LogStructuredStore) (140-byte
//! tweet-sized events), syncs, then times a cold reopen — the replay that
//! rebuilds the durable tier's index from disk. `bytes replayed ÷
//! wall-clock` is printed next to the message-count estimate above.
//! `--data-dir PATH` chooses where the throwaway segment files live
//! (default: a per-process directory under the system temp dir); the
//! directory is removed before the bench exits.
//!
//! `--shards N` (N ≥ 2) additionally measures the sharded tier: the same
//! data volume split over N [`ShardedLogStore`] shards, replayed serially
//! (shard after shard — the single-threaded bound) and in parallel (the
//! tier's concurrent reopen, whose wall-clock is the largest shard's replay,
//! reported as `max_shard_bytes`), with per-shard byte counts alongside.
//!
//! `--trace-out PATH` / `--metrics-out PATH` attach a
//! [`StoreObs`] to the measured stores and dump
//! the flight-recorder timeline (JSON Lines: group-commit fills, segment
//! rotations, replay completions stamped with monotonic nanoseconds) and
//! the metrics registry (Prometheus text format). Observation is passive:
//! the JSON report is unchanged by either flag.
//!
//! [`ShardedLogStore`]: dynasore_store::ShardedLogStore

use std::path::PathBuf;
use std::time::Instant;

use dynasore_bench::{parse_args_or_exit, Args};
use dynasore_core::{DynaSoReEngine, InitialPlacement};
use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_store::StoreObs;
use dynasore_topology::Topology;
use dynasore_types::{
    ClusterEvent, MemoryBudget, Message, NetworkModel, PlacementEngine, RackId, SimTime,
    TraceEventKind, UserId, DAY_SECS, PROTOCOL_MESSAGE_UNITS,
};

struct Options {
    users: usize,
    seed: u64,
    quick: bool,
    data_dir: Option<PathBuf>,
    shards: usize,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

const USAGE: &str = "usage: recovery_convergence [--users N] [--seed N] [--quick] \
     [--data-dir PATH] [--shards N] [--trace-out PATH] [--metrics-out PATH]";

impl Options {
    /// Parses the command line (program name excluded) with the strict [`Args`].
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            users: 50_000,
            seed: 42,
            quick: false,
            data_dir: None,
            shards: 1,
            trace_out: None,
            metrics_out: None,
        };
        let mut args = Args::new(args);
        while let Some(flag) = args.flag() {
            match flag {
                "--users" => o.users = args.parsed()?,
                "--seed" => o.seed = args.parsed()?,
                "--data-dir" => o.data_dir = Some(args.value()?.into()),
                "--shards" => o.shards = args.parsed::<usize>()?.max(1),
                "--trace-out" => o.trace_out = Some(args.value()?.into()),
                "--metrics-out" => o.metrics_out = Some(args.value()?.into()),
                "--quick" => o.quick = true,
                _ => return args.unknown(),
            }
        }
        if o.quick {
            o.users = o.users.min(2_000);
        }
        Ok(o)
    }
}

/// Measured (not estimated) recovery I/O of the file-backed durable tier.
struct MeasuredRecovery {
    views: usize,
    events: u64,
    log_bytes: u64,
    segments: usize,
    replayed_bytes: u64,
    replay_secs: f64,
    bandwidth_bytes_per_sec: f64,
}

/// Writes every user's view into a file-backed log store under `dir`, syncs,
/// then times a cold reopen — the real recovery path: the index is rebuilt
/// by reading the segment bytes back off disk. The directory is removed
/// before returning. Because the bench deletes the directory when done, it
/// refuses to run in one that already has contents: only files this run
/// created are ever removed.
fn measure_file_backed_recovery(
    dir: &PathBuf,
    users: usize,
    obs: Option<&StoreObs>,
) -> MeasuredRecovery {
    // Event size shared with the simulator's durable tier (tweet-sized, as
    // the paper assumes), so the bench and `Simulation::with_durable_tier`
    // measure the same bytes-per-write calibration.
    use dynasore_store::{LogConfig, LogStructuredStore, SIM_EVENT_BYTES};

    const EVENTS_PER_USER: u64 = 2;

    if let Ok(mut entries) = std::fs::read_dir(dir) {
        if entries.next().is_some() {
            eprintln!(
                "error: --data-dir {} already exists and is not empty; the bench deletes \
                 its data directory when done, so pick a fresh (or empty) path",
                dir.display()
            );
            std::process::exit(2);
        }
    }

    let result = (|| -> dynasore_types::Result<MeasuredRecovery> {
        let store = LogStructuredStore::open(dir, LogConfig::default())?;
        if let Some(obs) = obs {
            store.set_observer(obs.clone());
        }
        for u in 0..users as u32 {
            for k in 0..EVENTS_PER_USER {
                store.append(UserId::new(u), vec![(u as u8) ^ (k as u8); SIM_EVENT_BYTES])?;
            }
        }
        store.sync()?;
        let log_bytes = store.bytes_on_disk();
        let segments = store.segment_count();
        drop(store);

        let start = Instant::now();
        let recovered = LogStructuredStore::open(dir, LogConfig::default())?;
        let replay_secs = start.elapsed().as_secs_f64();
        let stats = recovered.recovery_stats();
        let views = recovered.user_count();
        if let Some(obs) = obs {
            obs.trace(TraceEventKind::ReplayCompleted {
                bytes: stats.bytes_replayed,
                shards: 1,
            });
        }
        Ok(MeasuredRecovery {
            views,
            events: stats.records_replayed,
            log_bytes,
            segments,
            replayed_bytes: stats.bytes_replayed,
            replay_secs,
            bandwidth_bytes_per_sec: stats.bytes_replayed as f64 / replay_secs.max(1e-9),
        })
    })();
    let cleanup = std::fs::remove_dir_all(dir);
    let measured = result.expect("file-backed recovery measurement");
    cleanup.expect("remove file-backed store directory");
    measured
}

/// Measured recovery of the *sharded* durable tier: the same data volume as
/// the single-log measurement, split over N shards, replayed both serially
/// (one shard after another) and in parallel (the tier's concurrent reopen,
/// whose critical path is the largest shard).
struct MeasuredShardedRecovery {
    shards: usize,
    log_bytes: u64,
    replayed_bytes: u64,
    max_shard_bytes: u64,
    per_shard_bytes: Vec<u64>,
    serial_replay_secs: f64,
    parallel_replay_secs: f64,
}

/// Writes the same per-user events as [`measure_file_backed_recovery`] into
/// a sharded store under `dir`, syncs, then times recovery twice: a serial
/// shard-by-shard `read_back`, and the tier's own parallel reopen. The
/// directory is removed before returning.
fn measure_sharded_recovery(
    dir: &PathBuf,
    users: usize,
    shards: usize,
    obs: Option<&StoreObs>,
) -> MeasuredShardedRecovery {
    use dynasore_store::{LogStructuredStore, ShardedConfig, ShardedLogStore, SIM_EVENT_BYTES};

    const EVENTS_PER_USER: u64 = 2;

    if let Ok(mut entries) = std::fs::read_dir(dir) {
        if entries.next().is_some() {
            eprintln!(
                "error: sharded data dir {} already exists and is not empty",
                dir.display()
            );
            std::process::exit(2);
        }
    }

    let result = (|| -> dynasore_types::Result<MeasuredShardedRecovery> {
        let config = ShardedConfig {
            shards,
            flush_interval: None,
            ..ShardedConfig::default()
        };
        let store = match obs {
            Some(obs) => ShardedLogStore::open_observed(dir, config, obs.clone())?,
            None => ShardedLogStore::open(dir, config)?,
        };
        for u in 0..users as u32 {
            for k in 0..EVENTS_PER_USER {
                store
                    .append_version(UserId::new(u), vec![(u as u8) ^ (k as u8); SIM_EVENT_BYTES])?;
            }
        }
        store.sync()?;
        let log_bytes = store.bytes_on_disk();
        drop(store);

        // Serial: replay one shard after another — the lower bound a
        // single-threaded recovery pays regardless of layout.
        let serial_start = Instant::now();
        for i in 0..shards {
            LogStructuredStore::read_back(dir.join(format!("shard-{i:04}")))?;
        }
        let serial_replay_secs = serial_start.elapsed().as_secs_f64();

        // Parallel: the tier's own reopen, one replay thread per shard; the
        // wall-clock tracks the largest shard, not the sum.
        let parallel_start = Instant::now();
        let recovered = ShardedLogStore::open(dir, config)?;
        let parallel_replay_secs = parallel_start.elapsed().as_secs_f64();
        let stats = recovered.recovery_stats();
        if let Some(obs) = obs {
            obs.trace(TraceEventKind::ReplayCompleted {
                bytes: stats.total.bytes_replayed,
                shards: shards as u32,
            });
        }
        Ok(MeasuredShardedRecovery {
            shards,
            log_bytes,
            replayed_bytes: stats.total.bytes_replayed,
            max_shard_bytes: stats.max_shard_bytes_replayed(),
            per_shard_bytes: stats.per_shard.iter().map(|s| s.bytes_replayed).collect(),
            serial_replay_secs,
            parallel_replay_secs,
        })
    })();
    let cleanup = std::fs::remove_dir_all(dir);
    let measured = result.expect("sharded recovery measurement");
    cleanup.expect("remove sharded store directory");
    measured
}

/// Drives one window of reads and returns the average application messages
/// per read (the per-request network cost the placement is minimising).
fn read_window(
    engine: &mut DynaSoReEngine,
    graph: &SocialGraph,
    out: &mut Vec<Message>,
    start: u64,
    len: u64,
    users: u64,
) -> f64 {
    let mut messages = 0u64;
    for k in start..start + len {
        let user = UserId::new(((k.wrapping_mul(7_919)) % users) as u32);
        out.clear();
        engine.handle_read(user, graph.followees(user), SimTime::from_secs(2), out);
        messages += out.len() as u64;
    }
    messages as f64 / len as f64
}

/// Replays read windows until two consecutive windows agree within 5%
/// (steady state), or `max_windows` is hit. Returns `(windows, peak, final
/// window average)`.
fn run_until_plateau(
    engine: &mut DynaSoReEngine,
    graph: &SocialGraph,
    out: &mut Vec<Message>,
    window: u64,
    max_windows: u64,
    window_offset: u64,
    users: u64,
) -> (u64, f64, f64) {
    let mut peak = 0f64;
    let mut prev: Option<f64> = None;
    let mut last = 0f64;
    for w in 0..max_windows {
        let avg = read_window(
            engine,
            graph,
            out,
            (window_offset + w) * window,
            window,
            users,
        );
        peak = peak.max(avg);
        last = avg;
        if let Some(prev) = prev {
            if (avg - prev).abs() <= 0.05 * prev {
                return (w + 1, peak, avg);
            }
        }
        prev = Some(avg);
    }
    (max_windows, peak, last)
}

fn main() {
    let opts = parse_args_or_exit(USAGE, Options::parse);
    let graph = SocialGraph::generate(GraphPreset::FacebookLike, opts.users, opts.seed)
        .expect("graph generation");
    let topology = Topology::paper_tree().expect("paper tree");
    let mut engine = DynaSoReEngine::builder()
        .topology(topology)
        .budget(MemoryBudget::with_extra_percent(opts.users, 30))
        .initial_placement(InitialPlacement::Random { seed: opts.seed })
        .build(&graph)
        .expect("engine build");

    let users = opts.users as u64;
    let window = if opts.quick { 5_000 } else { 20_000 };
    let max_windows = 40u64;
    let mut out: Vec<Message> = Vec::new();

    // Converge the placement, then take the healthy baseline.
    for k in 0..2 * users {
        let user = UserId::new(((k.wrapping_mul(7_919)) % users) as u32);
        out.clear();
        engine.handle_read(user, graph.followees(user), SimTime::from_secs(1), &mut out);
        out.clear();
        engine.handle_write(user, SimTime::from_secs(1), &mut out);
    }
    let healthy = read_window(&mut engine, &graph, &mut out, 0, window, users);
    let healthy_replicas: usize = (0..users)
        .map(|u| engine.replica_count(UserId::new(u as u32)))
        .sum();

    // Kill rack 0 and measure the recovery burst.
    let event_start = Instant::now();
    out.clear();
    engine.on_cluster_change(
        ClusterEvent::RackDown {
            rack: RackId::new(0),
        },
        SimTime::from_secs(2),
        &mut out,
    );
    let failover_secs = event_start.elapsed().as_secs_f64();
    let recovery_messages = out.iter().filter(|m| m.involves_persistent()).count();
    let recovered_views = engine.recovered_views();

    // Replay read windows until per-read traffic plateaus: the placement
    // re-replicates towards the readers the dead rack used to serve, and
    // settles at the degraded cluster's own steady state.
    let (windows_to_converge, degraded_peak, degraded_steady) =
        run_until_plateau(&mut engine, &graph, &mut out, window, max_windows, 1, users);

    // Bring the rack back and measure re-absorption of the capacity.
    out.clear();
    engine.on_cluster_change(
        ClusterEvent::RackUp {
            rack: RackId::new(0),
        },
        SimTime::from_secs(3),
        &mut out,
    );
    let (windows_to_reabsorb, _, restored_steady) = run_until_plateau(
        &mut engine,
        &graph,
        &mut out,
        window,
        max_windows,
        max_windows + 1,
        users,
    );

    let unreachable = engine.unreachable_reads();

    // Measured recovery bandwidth from real bytes: persist every view in a
    // file-backed log store and time the cold reopen that replays it.
    let data_dir = opts.data_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("dynasore-recovery-{}", std::process::id()))
    });
    let obs = (opts.trace_out.is_some() || opts.metrics_out.is_some()).then(StoreObs::default);
    let measured = measure_file_backed_recovery(&data_dir, opts.users, obs.as_ref());

    // With `--shards N`, repeat the measurement over the sharded tier and
    // report parallel (max-shard) replay next to the serial bound.
    let measured_sharded = (opts.shards > 1).then(|| {
        let mut sharded_dir = data_dir.clone().into_os_string();
        sharded_dir.push("-sharded");
        measure_sharded_recovery(
            &PathBuf::from(sharded_dir),
            opts.users,
            opts.shards,
            obs.as_ref(),
        )
    });

    // Wall-clock estimates: the paper workload reads at 4 reads per user per
    // day, so a window of N reads spans N / (users × 4 / 86400) seconds of
    // real time; the recovery burst itself occupies the datacenter model's
    // core switch for its protocol units divided by the top service rate.
    let reads_per_sec = opts.users as f64 * 4.0 / DAY_SECS as f64;
    let converge_wallclock_secs = (windows_to_converge * window) as f64 / reads_per_sec;
    let reabsorb_wallclock_secs = (windows_to_reabsorb * window) as f64 / reads_per_sec;
    let fabric = NetworkModel::datacenter();
    let recovery_transfer_secs = recovery_messages as f64 * PROTOCOL_MESSAGE_UNITS as f64
        / fabric.top_service.as_units_per_sec() as f64;

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"recovery_convergence\",\n",
            "  \"users\": {users},\n",
            "  \"seed\": {seed},\n",
            "  \"quick\": {quick},\n",
            "  \"window_reads\": {window},\n",
            "  \"assumed_read_rate_per_sec\": {read_rate:.3},\n",
            "  \"healthy_app_messages_per_read\": {healthy:.2},\n",
            "  \"healthy_total_replicas\": {healthy_replicas},\n",
            "  \"rack_down\": {{\n",
            "    \"handling_secs\": {failover:.6},\n",
            "    \"recovery_messages\": {recovery},\n",
            "    \"recovered_views\": {recovered},\n",
            "    \"peak_messages_per_read\": {peak:.2},\n",
            "    \"steady_messages_per_read\": {steady:.2},\n",
            "    \"steady_over_healthy\": {steady_ratio:.3},\n",
            "    \"windows_to_converge\": {converge},\n",
            "    \"reads_to_converge\": {converge_reads},\n",
            "    \"estimated_wallclock_secs\": {converge_wallclock:.1},\n",
            "    \"recovery_transfer_secs\": {recovery_transfer:.6}\n",
            "  }},\n",
            "  \"rack_up\": {{\n",
            "    \"windows_to_reabsorb\": {reabsorb},\n",
            "    \"estimated_wallclock_secs\": {reabsorb_wallclock:.1},\n",
            "    \"steady_messages_per_read\": {restored:.2}\n",
            "  }},\n",
            "  \"persistent_tier\": {{\n",
            "    \"views_persisted\": {pt_views},\n",
            "    \"events_replayed\": {pt_events},\n",
            "    \"log_bytes\": {pt_log_bytes},\n",
            "    \"segments\": {pt_segments},\n",
            "    \"replayed_bytes\": {pt_replayed},\n",
            "    \"replay_secs\": {pt_secs:.6},\n",
            "    \"measured_recovery_bandwidth_bytes_per_sec\": {pt_bw:.0}\n",
            "  }},\n",
            "{sharded_section}",
            "  \"unreachable_reads\": {unreachable}\n",
            "}}\n"
        ),
        users = opts.users,
        seed = opts.seed,
        quick = opts.quick,
        window = window,
        read_rate = reads_per_sec,
        healthy = healthy,
        healthy_replicas = healthy_replicas,
        failover = failover_secs,
        recovery = recovery_messages,
        recovered = recovered_views,
        peak = degraded_peak,
        steady = degraded_steady,
        steady_ratio = degraded_steady / healthy,
        converge = windows_to_converge,
        converge_reads = windows_to_converge * window,
        converge_wallclock = converge_wallclock_secs,
        recovery_transfer = recovery_transfer_secs,
        reabsorb = windows_to_reabsorb,
        reabsorb_wallclock = reabsorb_wallclock_secs,
        restored = restored_steady,
        pt_views = measured.views,
        pt_events = measured.events,
        pt_log_bytes = measured.log_bytes,
        pt_segments = measured.segments,
        pt_replayed = measured.replayed_bytes,
        pt_secs = measured.replay_secs,
        pt_bw = measured.bandwidth_bytes_per_sec,
        sharded_section = measured_sharded
            .as_ref()
            .map(|m| {
                let per_shard = m
                    .per_shard_bytes
                    .iter()
                    .map(|b| b.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    concat!(
                        "  \"persistent_tier_sharded\": {{\n",
                        "    \"shards\": {shards},\n",
                        "    \"log_bytes\": {log_bytes},\n",
                        "    \"replayed_bytes\": {replayed},\n",
                        "    \"max_shard_bytes\": {max_shard},\n",
                        "    \"per_shard_replayed_bytes\": [{per_shard}],\n",
                        "    \"serial_replay_secs\": {serial:.6},\n",
                        "    \"parallel_replay_secs\": {parallel:.6},\n",
                        "    \"serial_bandwidth_bytes_per_sec\": {serial_bw:.0},\n",
                        "    \"parallel_bandwidth_bytes_per_sec\": {parallel_bw:.0}\n",
                        "  }},\n",
                    ),
                    shards = m.shards,
                    log_bytes = m.log_bytes,
                    replayed = m.replayed_bytes,
                    max_shard = m.max_shard_bytes,
                    per_shard = per_shard,
                    serial = m.serial_replay_secs,
                    parallel = m.parallel_replay_secs,
                    serial_bw = m.replayed_bytes as f64 / m.serial_replay_secs.max(1e-9),
                    parallel_bw = m.replayed_bytes as f64 / m.parallel_replay_secs.max(1e-9),
                )
            })
            .unwrap_or_default(),
        unreachable = unreachable,
    );
    eprintln!(
        "# recovery_convergence: rack loss recovered {recovered_views} views with \
         {recovery_messages} persistent-tier messages in {failover_secs:.3}s; \
         converged after {windows_to_converge} windows \
         (~{converge_wallclock_secs:.0}s wall-clock at the paper's read rate, \
         refill transfer {recovery_transfer_secs:.3}s on the core switch)"
    );
    eprintln!(
        "# recovery_convergence: file-backed tier replayed {} views / {} bytes in {:.3}s \
         = {:.1} MB/s measured recovery bandwidth",
        measured.views,
        measured.replayed_bytes,
        measured.replay_secs,
        measured.bandwidth_bytes_per_sec / 1e6,
    );
    if let Some(m) = &measured_sharded {
        eprintln!(
            "# recovery_convergence: {} shards replayed {} bytes — serial {:.3}s, \
             parallel {:.3}s (critical path {} bytes = largest shard)",
            m.shards,
            m.replayed_bytes,
            m.serial_replay_secs,
            m.parallel_replay_secs,
            m.max_shard_bytes,
        );
    }
    if let Some(obs) = &obs {
        if let Some(path) = &opts.trace_out {
            std::fs::write(path, obs.to_jsonl()).expect("write trace timeline");
            eprintln!(
                "# recovery_convergence: wrote {} trace events to {}",
                obs.event_count(),
                path.display()
            );
        }
        if let Some(path) = &opts.metrics_out {
            std::fs::write(path, obs.render_prometheus()).expect("write metrics");
            eprintln!(
                "# recovery_convergence: wrote metrics to {}",
                path.display()
            );
        }
    }
    print!("{json}");
}
