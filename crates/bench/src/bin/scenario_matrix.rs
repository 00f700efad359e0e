//! **Scenario matrix** — the adversarial degradation scorecard: every
//! placement engine crossed with every scripted scenario from
//! [`dynasore_sim::scenario`], scored against its own quiet baseline.
//!
//! ```text
//! cargo run --release -p dynasore-bench --bin scenario_matrix \
//!     [-- --users N --seed N --days N --quick --out PATH \
//!         --check-against PATH --tolerance F \
//!         --trace-out DIR --metrics-out PATH]
//! ```
//!
//! Each cell of the matrix runs one freshly built engine through one
//! [`ScenarioKind`] — hot-key flood, flash crowd with a downed neighbor
//! rack, read/write-ratio inversion, regional multi-rack failure, and a
//! decommission under load — over the [`NetworkModel::datacenter`] fabric
//! with a file-backed durable tier attached, so the scorecard's recovery
//! column measures real replayed bytes. The whole matrix is a pure
//! function of `(users, seed, days)`: rerunning it reproduces the JSON
//! artifact byte for byte.
//!
//! `--check-against PATH` turns the run into a regression guard: the
//! process exits non-zero when any cell's availability drops more than
//! `--tolerance` (default 0.05, absolute) below the committed snapshot.
//! CI runs `--quick --check-against BENCH_scenarios_quick.json`.
//!
//! `--trace-out DIR` attaches a flight recorder to every cell and dumps
//! each cell's event timeline to `DIR/<engine>-<scenario>.jsonl`;
//! `--metrics-out PATH` merges every cell's metrics registry and writes
//! one Prometheus text exposition. Observation is passive: the scorecard
//! (and the `--out` artifact) is byte-identical with or without the flags.

use dynasore_baselines::{SparEngine, StaticPlacement};
use dynasore_bench::{parse_args_or_exit, read_snapshot_or_exit, snapshot_field, Args};
use dynasore_core::{DynaSoReEngine, InitialPlacement};
use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_sim::{
    DegradationReport, ScenarioConfig, ScenarioKind, ScenarioRunner, SimDurableTier, SimObs,
};
use dynasore_topology::Topology;
use dynasore_types::{MemoryBudget, MetricsRegistry, NetworkModel, PlacementEngine};

struct Options {
    users: usize,
    seed: u64,
    days: u64,
    quick: bool,
    out: String,
    check_against: Option<String>,
    tolerance: f64,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

const USAGE: &str = "usage: scenario_matrix [--users N] [--seed N] [--days N] [--quick] \
     [--out PATH] [--check-against PATH] [--tolerance F] [--trace-out DIR] [--metrics-out PATH]";

impl Options {
    /// Parses the command line (program name excluded) with the strict [`Args`].
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            users: 2_000,
            seed: 42,
            days: 2,
            quick: false,
            out: "BENCH_scenarios.json".to_string(),
            check_against: None,
            tolerance: 0.05,
            trace_out: None,
            metrics_out: None,
        };
        let mut args = Args::new(args);
        while let Some(flag) = args.flag() {
            match flag {
                "--users" => o.users = args.parsed()?,
                "--seed" => o.seed = args.parsed()?,
                "--days" => o.days = args.parsed()?,
                "--out" => o.out = args.value()?,
                "--check-against" => o.check_against = Some(args.value()?),
                "--tolerance" => o.tolerance = args.tolerance()?,
                "--trace-out" => o.trace_out = Some(args.value()?),
                "--metrics-out" => o.metrics_out = Some(args.value()?),
                "--quick" => o.quick = true,
                _ => return args.unknown(),
            }
        }
        if o.quick {
            o.users = o.users.min(600);
            o.days = o.days.min(1);
            if o.out == "BENCH_scenarios.json" {
                o.out = "BENCH_scenarios_quick.json".to_string();
            }
        }
        Ok(o)
    }
}

const ENGINES: [&str; 3] = ["dynasore", "spar", "static-random"];

/// Builds a fresh engine by matrix row name — every cell starts from the
/// same initial placement, so degradation is attributable to the scenario.
fn build_engine(
    name: &str,
    graph: &SocialGraph,
    topology: &Topology,
    users: usize,
    seed: u64,
) -> Box<dyn PlacementEngine> {
    let budget = MemoryBudget::with_extra_percent(users, 30);
    match name {
        "dynasore" => Box::new(
            DynaSoReEngine::builder()
                .topology(topology.clone())
                .budget(budget)
                .initial_placement(InitialPlacement::Random { seed })
                .build(graph)
                .expect("dynasore engine"),
        ),
        "spar" => Box::new(SparEngine::new(graph, topology, budget, seed).expect("spar engine")),
        "static-random" => {
            Box::new(StaticPlacement::random(graph, topology, seed).expect("static engine"))
        }
        other => panic!("unknown engine {other}"),
    }
}

fn main() {
    let opts = parse_args_or_exit(USAGE, Options::parse);
    let graph = SocialGraph::generate(GraphPreset::FacebookLike, opts.users, opts.seed)
        .expect("graph generation");
    // The scaled-down paper cluster: 9 racks, 1 broker + 3 servers each.
    let topology = Topology::tree(3, 3, 4, 1).expect("tree topology");
    let runner = ScenarioRunner::new(
        ScenarioConfig {
            seed: opts.seed,
            days: opts.days,
        },
        NetworkModel::datacenter(),
    );

    // Per-run durable tiers live in a throwaway directory, removed on exit;
    // the tier turns the recovery column into real replayed bytes.
    let data_root = std::env::temp_dir().join(format!("dynasore-scenarios-{}", std::process::id()));

    let observing = opts.trace_out.is_some() || opts.metrics_out.is_some();
    if let Some(dir) = &opts.trace_out {
        std::fs::create_dir_all(dir).expect("create trace-out directory");
    }
    let mut merged_metrics = MetricsRegistry::new();
    let mut cells: Vec<DegradationReport> = Vec::new();
    eprintln!(
        "# scenario_matrix: {} users, {} day(s), seed {} — {} engines x {} scenarios",
        opts.users,
        opts.days,
        opts.seed,
        ENGINES.len(),
        ScenarioKind::ALL.len()
    );
    for engine_name in ENGINES {
        let quiet = runner
            .quiet_baseline(
                topology.clone(),
                &graph,
                build_engine(engine_name, &graph, &topology, opts.users, opts.seed),
            )
            .expect("quiet baseline");
        for kind in ScenarioKind::ALL {
            let tier_dir = data_root.join(format!("{engine_name}-{}", kind.name()));
            // Four shards so the observer's per-tick samples include
            // per-shard durable lag, not one aggregate number.
            let tier = SimDurableTier::open(&tier_dir, 4).expect("open durable tier");
            let engine = build_engine(engine_name, &graph, &topology, opts.users, opts.seed);
            let (cell, obs) = runner
                .run(
                    kind,
                    topology.clone(),
                    &graph,
                    engine,
                    &quiet,
                    Some(tier),
                    observing.then(SimObs::default),
                )
                .expect("scenario run");
            if let Some(obs) = obs {
                if let Some(dir) = &opts.trace_out {
                    let path = format!("{dir}/{engine_name}-{}.jsonl", kind.name());
                    std::fs::write(&path, obs.to_jsonl()).expect("write trace JSONL");
                }
                merged_metrics.merge(obs.registry());
            }
            eprintln!(
                "# {:>13} x {:<26} avail {:.4}  worst-window {:.4}  \
                 p99 {}ns (quiet {}ns, x{:.2})  recovery {} msgs / {} bytes  steady {}s",
                cell.engine,
                cell.scenario,
                cell.availability,
                cell.worst_window_availability,
                cell.read_p99.as_nanos(),
                cell.quiet_read_p99.as_nanos(),
                cell.p99_ratio,
                cell.recovery_messages,
                cell.recovery_bytes,
                cell.time_to_steady_secs,
            );
            cells.push(cell);
        }
    }
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, merged_metrics.render_prometheus()).expect("write metrics exposition");
        eprintln!("# scenario_matrix: merged metrics written to {path}");
    }
    if data_root.exists() {
        std::fs::remove_dir_all(&data_root).expect("remove scenario durable tiers");
    }

    let scorecard = cells
        .iter()
        .map(|c| {
            format!(
                concat!(
                    "    \"{engine}/{scenario}\": {{\n",
                    "      \"availability\": {availability:.6},\n",
                    "      \"worst_window_availability\": {worst:.6},\n",
                    "      \"p99_ratio\": {p99:.4},\n",
                    "      \"recovery_messages\": {recovery_messages},\n",
                    "      \"recovery_bytes\": {recovery_bytes},\n",
                    "      \"time_to_steady_secs\": {steady},\n",
                    "      \"read_p99_ns\": {read_p99_ns},\n",
                    "      \"quiet_read_p99_ns\": {quiet_read_p99_ns}\n",
                    "    }}"
                ),
                engine = c.engine,
                scenario = c.scenario,
                availability = c.availability,
                worst = c.worst_window_availability,
                p99 = c.p99_ratio,
                recovery_messages = c.recovery_messages,
                recovery_bytes = c.recovery_bytes,
                steady = c.time_to_steady_secs,
                read_p99_ns = c.read_p99.as_nanos(),
                quiet_read_p99_ns = c.quiet_read_p99.as_nanos(),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"scenario_matrix\",\n",
            "  \"users\": {users},\n",
            "  \"seed\": {seed},\n",
            "  \"days\": {days},\n",
            "  \"quick\": {quick},\n",
            "  \"scorecard\": {{\n",
            "{scorecard}\n",
            "  }}\n",
            "}}\n"
        ),
        users = opts.users,
        seed = opts.seed,
        days = opts.days,
        quick = opts.quick,
        scorecard = scorecard,
    );
    std::fs::write(&opts.out, &json).expect("write scorecard JSON");
    eprintln!("# scenario_matrix: scorecard written to {}", opts.out);
    print!("{json}");

    if let Some(path) = &opts.check_against {
        check_against_snapshot(path, &cells, opts.tolerance);
    }
}

/// The regression guard: fails the process when any cell's availability
/// drops more than `tolerance` (absolute) below the committed snapshot.
fn check_against_snapshot(path: &str, cells: &[DegradationReport], tolerance: f64) {
    let snapshot = read_snapshot_or_exit(path);
    let mut failed = false;
    let mut checked = 0usize;
    for cell in cells {
        let section = format!("{}/{}", cell.engine, cell.scenario);
        // The scorecard prints `availability` first in each section.
        let Some(snap) = snapshot_field(&snapshot, Some(&section), "availability") else {
            eprintln!("# regression guard: snapshot {path} has no section {section}; skipping");
            continue;
        };
        checked += 1;
        let floor = snap - tolerance;
        let verdict = if cell.availability < floor {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        eprintln!(
            "# regression guard [{verdict}]: {section} availability {:.4} vs snapshot {snap:.4} \
             (floor {floor:.4})",
            cell.availability,
        );
    }
    if checked == 0 {
        eprintln!("# regression guard: snapshot {path} matched no scorecard cells");
        std::process::exit(2);
    }
    if failed {
        eprintln!(
            "# regression guard: availability regressed more than {tolerance:.3} below {path}"
        );
        std::process::exit(1);
    }
}
