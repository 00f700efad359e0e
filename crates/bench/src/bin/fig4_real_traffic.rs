//! **Figure 4** — top-switch traffic over time under the real (diurnal,
//! Yahoo!-News-Activity-like) trace on the Facebook graph with 50% extra
//! memory: Random, SPAR, DynaSoRe from Random and DynaSoRe from METIS.
//!
//! ```text
//! cargo run --release -p dynasore-bench --bin fig4_real_traffic [-- --users N --days N]
//! ```
//!
//! Output: one row per simulated day with the top-switch traffic of each
//! system normalised to Random's traffic on the same day, which is how the
//! paper plots the curves (the diurnal shape cancels out and the placement
//! quality remains).

use dynasore_baselines::{SparEngine, StaticPlacement};
use dynasore_bench::{
    dataset, dynasore_engine, fmt_norm, paper_topology, print_row, ExperimentScale,
};
use dynasore_core::InitialPlacement;
use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_sim::{SimReport, Simulation};
use dynasore_topology::Topology;
use dynasore_types::{MemoryBudget, PlacementEngine};
use dynasore_workload::DiurnalTraceGenerator;

fn run_diurnal<E: PlacementEngine>(
    engine: E,
    graph: &SocialGraph,
    topology: &Topology,
    days: u64,
    seed: u64,
) -> Result<SimReport, dynasore_types::Error> {
    let trace = DiurnalTraceGenerator::new(graph, days, seed)?;
    Simulation::new(topology.clone(), engine, graph).run(trace)
}

fn daily_totals(report: &SimReport, days: u64) -> Vec<u64> {
    let series = report.top_switch_series();
    let buckets_per_day = 24usize;
    (0..days as usize)
        .map(|d| {
            series
                .iter()
                .skip(d * buckets_per_day)
                .take(buckets_per_day)
                .map(|t| t.total())
                .sum()
        })
        .collect()
}

fn main() -> Result<(), dynasore_types::Error> {
    let scale = ExperimentScale::from_args(ExperimentScale {
        users: 8_000,
        days: 7,
        extra_memory: 50,
        ..ExperimentScale::default()
    });
    let topology = paper_topology()?;
    let graph = dataset(GraphPreset::FacebookLike, &scale)?;
    let budget = MemoryBudget::with_extra_percent(graph.user_count(), scale.extra_memory);

    let random = run_diurnal(
        StaticPlacement::random(&graph, &topology, scale.seed)?,
        &graph,
        &topology,
        scale.days,
        scale.seed,
    )?;
    let spar = run_diurnal(
        SparEngine::new(&graph, &topology, budget, scale.seed)?,
        &graph,
        &topology,
        scale.days,
        scale.seed,
    )?;
    let dyn_random = run_diurnal(
        dynasore_engine(
            &graph,
            &topology,
            scale.extra_memory,
            InitialPlacement::Random { seed: scale.seed },
        )?,
        &graph,
        &topology,
        scale.days,
        scale.seed,
    )?;
    let dyn_metis = run_diurnal(
        dynasore_engine(
            &graph,
            &topology,
            scale.extra_memory,
            InitialPlacement::Metis { seed: scale.seed },
        )?,
        &graph,
        &topology,
        scale.days,
        scale.seed,
    )?;

    println!(
        "# Figure 4: top-switch traffic over time, diurnal trace, Facebook graph, {}% extra memory",
        scale.extra_memory
    );
    print_row(
        [
            "day",
            "random",
            "spar_50%",
            "dynasore_from_random_50%",
            "dynasore_from_metis_50%",
        ]
        .map(String::from),
    );
    let base = daily_totals(&random, scale.days);
    let spar_days = daily_totals(&spar, scale.days);
    let dyn_r_days = daily_totals(&dyn_random, scale.days);
    let dyn_m_days = daily_totals(&dyn_metis, scale.days);
    for day in 0..scale.days as usize {
        let norm = |v: u64| {
            if base[day] == 0 {
                0.0
            } else {
                v as f64 / base[day] as f64
            }
        };
        print_row([
            (day + 1).to_string(),
            fmt_norm(1.0),
            fmt_norm(norm(spar_days[day])),
            fmt_norm(norm(dyn_r_days[day])),
            fmt_norm(norm(dyn_m_days[day])),
        ]);
    }
    Ok(())
}
