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
//! writes every user's view into the file-backed tier — a
//! [`ShardedLogStore`] of `--shards N` shards (default 1), 140-byte
//! tweet-sized events — syncs, then times a cold reopen: the replay that
//! rebuilds the durable tier's index from disk, one thread per shard, so its
//! wall-clock tracks the largest shard (`max_shard_bytes`). `bytes replayed
//! ÷ wall-clock` is printed next to the message-count estimate above. With
//! N ≥ 2 the same directory is first read back serially and both timings
//! are reported. They time different work: `read_back` replays shard after
//! shard and decodes every event into a view, while the reopen records
//! only where each user's entries lie, so the serial figure is not the
//! reopen run on one thread. `--data-dir PATH`
//! chooses where the throwaway shard files live (default: a per-process
//! directory under the system temp dir); the directory is removed before
//! the bench exits.
//!
//! `--trace-out PATH` / `--metrics-out PATH` attach a
//! [`StoreObs`] to the measured stores and dump
//! the flight-recorder timeline (JSON Lines: group-commit fills and replay
//! completions, stamped with monotonic nanoseconds) and
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
    ClusterEvent, CountingSink, MemoryBudget, NetworkModel, PlacementEngine, RackId, SimTime,
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
    replayed_bytes: u64,
    max_shard_bytes: u64,
    per_shard_bytes: Vec<u64>,
    /// The tier's own reopen: one replay thread per shard.
    replay_secs: f64,
    /// Shard-after-shard `read_back`, which decodes every event into a
    /// view; `None` at one shard.
    serial_replay_secs: Option<f64>,
}

/// Writes every user's view into a file-backed tier of `shards` shards under
/// `dir`, syncs, then times a cold reopen — the real recovery path: the
/// index is rebuilt by reading the log bytes back off disk. The
/// directory is removed before returning. Because the bench deletes the
/// directory when done, it refuses to run in one that already has contents:
/// only files this run created are ever removed.
fn measure_recovery(
    dir: &PathBuf,
    users: usize,
    shards: usize,
    obs: Option<&StoreObs>,
) -> MeasuredRecovery {
    // Event size shared with the simulator's durable tier (tweet-sized, as
    // the paper assumes), so the bench and `Simulation::with_durable_tier`
    // measure the same bytes-per-write calibration.
    use dynasore_sim::SIM_EVENT_BYTES;
    use dynasore_store::{PersistentStore, ShardedConfig, ShardedLogStore};

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
        let config = ShardedConfig {
            shards,
            flush_interval: None,
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
        let events = store.write_count();
        let log_bytes = store.bytes_on_disk();
        drop(store);

        // Serial: `read_back` replays one shard after another and decodes
        // every event into a view — not the reopen's work on one thread.
        let serial_replay_secs = if shards > 1 {
            let start = Instant::now();
            ShardedLogStore::read_back(dir)?;
            Some(start.elapsed().as_secs_f64())
        } else {
            None
        };

        // Parallel: the tier's own reopen, one replay thread per shard,
        // recording positions only; the wall-clock tracks the largest shard,
        // not the sum.
        let start = Instant::now();
        let recovered = ShardedLogStore::open(dir, config)?;
        let replay_secs = start.elapsed().as_secs_f64();
        let stats = recovered.recovery_stats();
        if let Some(obs) = obs {
            obs.trace(TraceEventKind::ReplayCompleted {
                bytes: stats.total.bytes_replayed,
                shards: shards as u32,
            });
        }
        Ok(MeasuredRecovery {
            views: recovered.user_count(),
            events,
            log_bytes,
            replayed_bytes: stats.total.bytes_replayed,
            max_shard_bytes: stats.max_shard_bytes_replayed(),
            per_shard_bytes: stats.per_shard.iter().map(|s| s.bytes_replayed).collect(),
            replay_secs,
            serial_replay_secs,
        })
    })();
    let cleanup = std::fs::remove_dir_all(dir);
    let measured = result.expect("file-backed recovery measurement");
    cleanup.expect("remove file-backed store directory");
    measured
}

/// Drives one window of reads and returns the average application messages
/// per read (the per-request network cost the placement is minimising).
fn read_window(
    engine: &mut DynaSoReEngine,
    graph: &SocialGraph,
    start: u64,
    len: u64,
    users: u64,
) -> f64 {
    let mut messages = CountingSink::default();
    for k in start..start + len {
        let user = UserId::new(((k.wrapping_mul(7_919)) % users) as u32);
        engine.handle_read(
            user,
            graph.followees(user),
            SimTime::from_secs(2),
            &mut messages,
        );
    }
    messages.total() as f64 / len as f64
}

/// Replays read windows until two consecutive windows agree within 5%
/// (steady state), or `max_windows` is hit. Returns `(windows, peak, final
/// window average)`.
fn run_until_plateau(
    engine: &mut DynaSoReEngine,
    graph: &SocialGraph,
    window: u64,
    max_windows: u64,
    window_offset: u64,
    users: u64,
) -> (u64, f64, f64) {
    let mut peak = 0f64;
    let mut prev: Option<f64> = None;
    let mut last = 0f64;
    for w in 0..max_windows {
        let avg = read_window(engine, graph, (window_offset + w) * window, window, users);
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
    let mut out = CountingSink::default();

    // Converge the placement, then take the healthy baseline.
    for k in 0..2 * users {
        let user = UserId::new(((k.wrapping_mul(7_919)) % users) as u32);
        engine.handle_read(user, graph.followees(user), SimTime::from_secs(1), &mut out);
        engine.handle_write(user, SimTime::from_secs(1), &mut out);
    }
    let healthy = read_window(&mut engine, &graph, 0, window, users);
    let healthy_replicas: usize = (0..users)
        .map(|u| engine.replica_count(UserId::new(u as u32)))
        .sum();

    // Kill rack 0 and measure the recovery burst.
    let event_start = Instant::now();
    let mut failover = CountingSink::default();
    engine
        .on_cluster_change(
            ClusterEvent::RackDown {
                rack: RackId::new(0),
            },
            &mut failover,
        )
        .unwrap();
    let failover_secs = event_start.elapsed().as_secs_f64();
    let recovery_messages = failover.persistent;
    let recovered_views = engine.recovered_views();

    // Replay read windows until per-read traffic plateaus: the placement
    // re-replicates towards the readers the dead rack used to serve, and
    // settles at the degraded cluster's own steady state.
    let (windows_to_converge, degraded_peak, degraded_steady) =
        run_until_plateau(&mut engine, &graph, window, max_windows, 1, users);

    // Bring the rack back and measure re-absorption of the capacity.
    engine
        .on_cluster_change(
            ClusterEvent::RackUp {
                rack: RackId::new(0),
            },
            &mut out,
        )
        .unwrap();
    let (windows_to_reabsorb, _, restored_steady) = run_until_plateau(
        &mut engine,
        &graph,
        window,
        max_windows,
        max_windows + 1,
        users,
    );

    let unreachable = engine.unreachable_reads();

    // Measured recovery bandwidth from real bytes: persist every view in
    // the file-backed tier and time the cold reopen that replays it.
    let data_dir = opts.data_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("dynasore-recovery-{}", std::process::id()))
    });
    let obs = (opts.trace_out.is_some() || opts.metrics_out.is_some()).then(StoreObs::default);
    let measured = measure_recovery(&data_dir, opts.users, opts.shards, obs.as_ref());
    let bandwidth = |secs: f64| measured.replayed_bytes as f64 / secs.max(1e-9);
    let per_shard_bytes = measured
        .per_shard_bytes
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let serial_fields = measured
        .serial_replay_secs
        .map(|secs| {
            format!(
                "    \"serial_replay_secs\": {secs:.6},\n    \
                 \"serial_bandwidth_bytes_per_sec\": {:.0},\n",
                bandwidth(secs)
            )
        })
        .unwrap_or_default();

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
            "    \"shards\": {pt_shards},\n",
            "    \"views_persisted\": {pt_views},\n",
            "    \"events_persisted\": {pt_events},\n",
            "    \"log_bytes\": {pt_log_bytes},\n",
            "    \"replayed_bytes\": {pt_replayed},\n",
            "    \"max_shard_bytes\": {pt_max_shard},\n",
            "    \"per_shard_replayed_bytes\": [{pt_per_shard}],\n",
            "{pt_serial}",
            "    \"replay_secs\": {pt_secs:.6},\n",
            "    \"measured_recovery_bandwidth_bytes_per_sec\": {pt_bw:.0}\n",
            "  }},\n",
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
        pt_shards = opts.shards,
        pt_views = measured.views,
        pt_events = measured.events,
        pt_log_bytes = measured.log_bytes,
        pt_replayed = measured.replayed_bytes,
        pt_max_shard = measured.max_shard_bytes,
        pt_per_shard = per_shard_bytes,
        pt_serial = serial_fields,
        pt_secs = measured.replay_secs,
        pt_bw = bandwidth(measured.replay_secs),
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
        "# recovery_convergence: file-backed tier ({} shards) replayed {} views / {} bytes in \
         {:.3}s = {:.1} MB/s measured recovery bandwidth (critical path {} bytes = largest shard)",
        opts.shards,
        measured.views,
        measured.replayed_bytes,
        measured.replay_secs,
        bandwidth(measured.replay_secs) / 1e6,
        measured.max_shard_bytes,
    );
    if let Some(serial) = measured.serial_replay_secs {
        eprintln!(
            "# recovery_convergence: read_back of the same shards, one after another and \
             decoding every event into a view, took {serial:.3}s"
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
