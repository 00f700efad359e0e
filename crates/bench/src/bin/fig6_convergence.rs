//! **Figure 6 (a, b)** — convergence of DynaSoRe: top-switch *application*
//! traffic and *system* (protocol) traffic over time, starting from a Random
//! or hierarchical-METIS placement with 150% extra memory, under the
//! synthetic trace (6a) or the diurnal "real" trace (6b).
//!
//! ```text
//! cargo run --release -p dynasore-bench --bin fig6_convergence -- --trace synthetic
//! cargo run --release -p dynasore-bench --bin fig6_convergence -- --trace diurnal
//! ```

use dynasore_baselines::StaticPlacement;
use dynasore_bench::{
    dataset, dynasore_engine, fmt_norm, paper_topology, parse_args_or_exit, print_row, Args,
    ExperimentScale,
};
use dynasore_core::InitialPlacement;
use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_sim::{SimReport, Simulation};
use dynasore_topology::{TierTraffic, Topology};
use dynasore_types::PlacementEngine;
use dynasore_workload::{DiurnalTraceGenerator, Request, SyntheticTraceGenerator};

/// Parses the command line (program name excluded), strictly: `--trace`
/// next to the [`ExperimentScale`] flags. Without `--days`, the diurnal
/// trace runs 5 days and the synthetic one 2.
fn parse(args: &[String]) -> Result<(String, ExperimentScale), String> {
    let mut kind = "synthetic".to_string();
    let mut scale = ExperimentScale {
        users: 8_000,
        days: 0,
        extra_memory: 150,
        ..ExperimentScale::default()
    };
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--trace" => kind = args.one_of(&["synthetic", "diurnal"])?,
            _ => scale.parse_flag(flag, &mut args)?,
        }
    }
    if scale.days == 0 {
        scale.days = if kind == "diurnal" { 5 } else { 2 };
    }
    Ok((kind, scale))
}

fn build_trace(
    kind: &str,
    graph: &SocialGraph,
    days: u64,
    seed: u64,
) -> Result<Vec<Request>, dynasore_types::Error> {
    Ok(match kind {
        "diurnal" => DiurnalTraceGenerator::new(graph, days, seed)?.collect(),
        _ => SyntheticTraceGenerator::paper_defaults(graph, days, seed)?.collect(),
    })
}

fn run<E: PlacementEngine>(
    engine: E,
    graph: &SocialGraph,
    topology: &Topology,
    trace: &[Request],
) -> Result<SimReport, dynasore_types::Error> {
    Simulation::new(topology.clone(), engine, graph).run(trace.to_vec())
}

fn hourly(series: &[TierTraffic]) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
    series
        .iter()
        .enumerate()
        .map(|(h, t)| (h, t.application, t.protocol))
}

fn main() -> Result<(), dynasore_types::Error> {
    let usage = format!(
        "usage: fig6_convergence [--trace synthetic|diurnal] {}",
        ExperimentScale::FLAGS
    );
    let (kind, scale) = parse_args_or_exit(&usage, parse);
    let topology = paper_topology()?;
    let graph = dataset(GraphPreset::FacebookLike, &scale)?;
    let trace = build_trace(&kind, &graph, scale.days, scale.seed)?;

    // Baseline for normalisation: Random placement on the same trace.
    let random = run(
        StaticPlacement::random(&graph, &topology, scale.seed)?,
        &graph,
        &topology,
        &trace,
    )?;
    let random_total = random.top_switch_total().max(1);

    let from_random = run(
        dynasore_engine(
            &graph,
            &topology,
            scale.extra_memory,
            InitialPlacement::Random { seed: scale.seed },
        )?,
        &graph,
        &topology,
        &trace,
    )?;
    let from_hmetis = run(
        dynasore_engine(
            &graph,
            &topology,
            scale.extra_memory,
            InitialPlacement::HierarchicalMetis { seed: scale.seed },
        )?,
        &graph,
        &topology,
        &trace,
    )?;

    println!(
        "# Figure 6{}: top-switch application vs system traffic over time, Facebook, {}% extra memory, {} trace",
        if kind == "diurnal" { "b" } else { "a" },
        scale.extra_memory,
        kind
    );
    println!(
        "# values are per-hour traffic normalised by Random's average hourly top-switch traffic"
    );
    print_row(
        [
            "hour",
            "app_from_random",
            "sys_from_random",
            "app_from_hmetis",
            "sys_from_hmetis",
        ]
        .map(String::from),
    );
    let hours = (scale.days * 24) as usize;
    let random_hourly_avg = random_total as f64 / hours as f64;
    let series_r = from_random.top_switch_series();
    let series_h = from_hmetis.top_switch_series();
    for hour in 0..hours {
        let (ar, sr) = hourly(&series_r)
            .nth(hour)
            .map(|(_, a, s)| (a, s))
            .unwrap_or((0, 0));
        let (ah, sh) = hourly(&series_h)
            .nth(hour)
            .map(|(_, a, s)| (a, s))
            .unwrap_or((0, 0));
        print_row([
            hour.to_string(),
            fmt_norm(ar as f64 / random_hourly_avg),
            fmt_norm(sr as f64 / random_hourly_avg),
            fmt_norm(ah as f64 / random_hourly_avg),
            fmt_norm(sh as f64 / random_hourly_avg),
        ]);
    }
    println!("# expected shape: system traffic spikes in the first hours and then decays;");
    println!("# application traffic settles near its converged level within ~1 day.");
    Ok(())
}
