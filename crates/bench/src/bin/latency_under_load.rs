//! **Latency under load** — read-latency percentiles of DynaSoRe vs SPAR vs
//! static placement at rising request rates, up to congestion collapse.
//!
//! ```text
//! cargo run --release -p dynasore-bench --bin latency_under_load \
//!     [-- --users N --seed N --quick]
//! ```
//!
//! Method: the request mix is the paper's synthetic day (1 write + 4 reads
//! per user); rate is raised by compressing that day into a `1/multiplier`
//! window, so a 64× run pushes the same requests in 1/64th of the time.
//! The fabric is calibrated once from a probe run (static placement,
//! unit-count mode): each tier's service rate is a fixed multiple of the
//! probe's average per-switch load — with *less* headroom up the tree
//! (top 4×, intermediate 8×, rack 32×), mirroring real oversubscribed
//! data-centre fabrics — and never below the rate that drains one request's
//! whole tier burst in 20 ms, so individual requests are fast when the
//! fabric is idle. Each engine then runs at 1×, 2×, 4×, … the baseline
//! rate until its run congestion-collapses (some switch accumulates more
//! than the threshold of queued work).
//!
//! Because the top tier saturates first, an engine that keeps traffic out
//! of the core (DynaSoRe's whole point) fits a higher request rate through
//! the same switches before latency explodes — the time-domain reading of
//! the paper's traffic-reduction claim. Latency percentiles come from the
//! simulator's per-read histogram (log-scale, ≤12.5% bucket width).

use dynasore_baselines::{SparEngine, StaticPlacement};
use dynasore_bench::{parse_args_or_exit, Args};
use dynasore_core::{DynaSoReEngine, InitialPlacement};
use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_sim::{SimReport, Simulation};
use dynasore_topology::{Tier, Topology};
use dynasore_types::{
    Bandwidth, Latency, MemoryBudget, NetworkModel, PlacementEngine, SimTime, DAY_SECS,
};
use dynasore_workload::{Request, SyntheticTraceGenerator};

/// Per-tier service capacity as a multiple of the probe run's average
/// per-switch load: tight at the core, generous at the edge.
const TIER_HEADROOM: [f64; 3] = [4.0, 8.0, 32.0]; // [top, intermediate, rack]
/// Floor: every tier must drain one request's whole tier burst within this
/// many seconds, so requests are fast on an idle fabric.
const BURST_DRAIN_SECS: f64 = 0.020;
/// Rate multipliers tried, in order, until an engine collapses.
const MULTIPLIERS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

struct Options {
    users: usize,
    seed: u64,
    quick: bool,
}

const USAGE: &str = "usage: latency_under_load [--users N] [--seed N] [--quick]";

impl Options {
    /// Parses the command line (program name excluded) with the strict [`Args`].
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            users: 20_000,
            seed: 42,
            quick: false,
        };
        let mut args = Args::new(args);
        while let Some(flag) = args.flag() {
            match flag {
                "--users" => o.users = args.parsed()?,
                "--seed" => o.seed = args.parsed()?,
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

/// The paper's synthetic day, compressed `multiplier`-fold: same request
/// mix, `multiplier` times the arrival rate.
fn trace(graph: &SocialGraph, seed: u64, multiplier: u64) -> Vec<Request> {
    SyntheticTraceGenerator::paper_defaults(graph, 1, seed)
        .expect("trace generation")
        .map(|r| Request {
            time: SimTime::from_secs(r.time.as_secs() / multiplier),
            ..r
        })
        .collect()
}

fn build_engine(
    kind: &str,
    graph: &SocialGraph,
    topology: &Topology,
    users: usize,
    seed: u64,
) -> Box<dyn PlacementEngine> {
    let budget = MemoryBudget::with_extra_percent(users, 30);
    match kind {
        "dynasore" => Box::new(
            DynaSoReEngine::builder()
                .topology(topology.clone())
                .budget(budget)
                .initial_placement(InitialPlacement::Random { seed })
                .build(graph)
                .expect("dynasore build"),
        ),
        "spar" => Box::new(SparEngine::new(graph, topology, budget, seed).expect("spar build")),
        "static" => Box::new(StaticPlacement::random(graph, topology, seed).expect("static build")),
        other => panic!("unknown engine {other}"),
    }
}

/// Calibrates the fabric from the probe run's measured switch loads.
fn calibrate(probe: &SimReport, topology: &Topology) -> NetworkModel {
    let duration = probe.end_time().as_secs().max(1) as f64;
    let requests = (probe.read_count() + probe.write_count()).max(1) as f64;
    let service = |tier: Tier, switches: usize, headroom: f64| -> Bandwidth {
        let total = probe.traffic().tier_total(tier).total() as f64;
        let sustained = total / duration / switches as f64 * headroom;
        let burst_floor = total / requests / BURST_DRAIN_SECS;
        Bandwidth::units_per_sec((sustained.max(burst_floor).ceil() as u64).max(10))
    };
    NetworkModel {
        top_service: service(Tier::Top, 1, TIER_HEADROOM[0]),
        intermediate_service: service(
            Tier::Intermediate,
            topology.intermediate_count(),
            TIER_HEADROOM[1],
        ),
        rack_service: service(Tier::Rack, topology.rack_count(), TIER_HEADROOM[2]),
        hop_latency: Latency::from_micros(5),
        collapse_threshold: Latency::from_secs(2),
    }
}

struct Measurement {
    multiplier: u64,
    p50: Latency,
    p95: Latency,
    p99: Latency,
    max_backlog: u64,
    collapsed: bool,
}

fn main() {
    let opts = parse_args_or_exit(USAGE, Options::parse);
    let graph = SocialGraph::generate(GraphPreset::FacebookLike, opts.users, opts.seed)
        .expect("graph generation");
    let topology = Topology::paper_tree().expect("paper tree");

    // Probe: measure the 1× per-switch load with static-random placement in
    // unit-count mode, then freeze the fabric capacity.
    let probe_engine = build_engine("static", &graph, &topology, opts.users, opts.seed);
    let probe = Simulation::new(topology.clone(), probe_engine, &graph)
        .run(trace(&graph, opts.seed, 1))
        .expect("probe run");
    let model = calibrate(&probe, &topology);
    eprintln!(
        "# latency_under_load: calibrated fabric top={} inter={} rack={}",
        model.top_service, model.intermediate_service, model.rack_service
    );

    let mut sections = Vec::new();
    for kind in ["dynasore", "spar", "static"] {
        let mut rows: Vec<Measurement> = Vec::new();
        for &multiplier in &MULTIPLIERS {
            let engine = build_engine(kind, &graph, &topology, opts.users, opts.seed);
            let report = Simulation::new(topology.clone(), engine, &graph)
                .with_network(model)
                .run(trace(&graph, opts.seed, multiplier))
                .expect("measured run");
            let collapsed = report.congestion_collapsed();
            rows.push(Measurement {
                multiplier,
                p50: report.read_latency_p50(),
                p95: report.read_latency_p95(),
                p99: report.read_latency_p99(),
                max_backlog: report.max_switch_backlog(),
                collapsed,
            });
            eprintln!(
                "# {kind} x{multiplier}: p50={} p95={} p99={} backlog={}u{}",
                report.read_latency_p50(),
                report.read_latency_p95(),
                report.read_latency_p99(),
                report.max_switch_backlog(),
                if collapsed { " COLLAPSED" } else { "" }
            );
            if collapsed {
                break;
            }
        }
        let survived = rows
            .iter()
            .filter(|r| !r.collapsed)
            .map(|r| r.multiplier)
            .max()
            .unwrap_or(0);
        let rows_json: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "      {{ \"rate_multiplier\": {}, \"p50_us\": {:.1}, ",
                        "\"p95_us\": {:.1}, \"p99_us\": {:.1}, ",
                        "\"max_switch_backlog_units\": {}, \"collapsed\": {} }}"
                    ),
                    r.multiplier,
                    r.p50.as_nanos() as f64 / 1_000.0,
                    r.p95.as_nanos() as f64 / 1_000.0,
                    r.p99.as_nanos() as f64 / 1_000.0,
                    r.max_backlog,
                    r.collapsed
                )
            })
            .collect();
        sections.push(format!(
            "    \"{kind}\": {{\n      \"max_survived_multiplier\": {survived},\n      \
             \"rates\": [\n{}\n      ]\n    }}",
            rows_json.join(",\n")
        ));
    }

    let requests_per_day = opts.users as u64 * 5;
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"latency_under_load\",\n",
            "  \"users\": {users},\n",
            "  \"seed\": {seed},\n",
            "  \"quick\": {quick},\n",
            "  \"baseline_requests_per_sec\": {base_rps:.3},\n",
            "  \"fabric\": {{\n",
            "    \"tier_headroom\": [{headroom_top}, {headroom_inter}, {headroom_rack}],\n",
            "    \"top_units_per_sec\": {top},\n",
            "    \"intermediate_units_per_sec\": {inter},\n",
            "    \"rack_units_per_sec\": {rack},\n",
            "    \"hop_latency_us\": {hop_us:.1},\n",
            "    \"collapse_threshold_secs\": {collapse_secs:.1}\n",
            "  }},\n",
            "  \"engines\": {{\n{engines}\n  }}\n",
            "}}\n"
        ),
        users = opts.users,
        seed = opts.seed,
        quick = opts.quick,
        base_rps = requests_per_day as f64 / DAY_SECS as f64,
        headroom_top = TIER_HEADROOM[0],
        headroom_inter = TIER_HEADROOM[1],
        headroom_rack = TIER_HEADROOM[2],
        top = model.top_service.as_units_per_sec(),
        inter = model.intermediate_service.as_units_per_sec(),
        rack = model.rack_service.as_units_per_sec(),
        hop_us = model.hop_latency.as_nanos() as f64 / 1_000.0,
        collapse_secs = model.collapse_threshold.as_secs_f64(),
        engines = sections.join(",\n"),
    );
    print!("{json}");
}
