//! **Figure 5** — flash event: a user gains 100 followers at day 2 (removed
//! at day 7); DynaSoRe should replicate her view while it is hot and evict
//! the replicas within roughly a day of the spike ending. The paper repeats
//! the experiment 100 times on the Facebook graph with 30% extra memory and
//! plots the average number of replicas and the reads handled per replica.
//!
//! ```text
//! cargo run --release -p dynasore-bench --bin fig5_flash_event [-- --users N --seed N]
//! ```
//!
//! The number of repetitions defaults to 10 (the paper uses 100); pass
//! `--days` to change the trace length (default 10, as in the paper).

use dynasore_bench::{dataset, dynasore_engine, paper_topology, print_row, ExperimentScale};
use dynasore_core::InitialPlacement;
use dynasore_graph::GraphPreset;
use dynasore_sim::Simulation;
use dynasore_types::{PlacementEngine, SimTime, UserId};
use dynasore_workload::{FlashEventPlan, SyntheticTraceGenerator};

const REPETITIONS: usize = 10;
const PROBE_SECS: u64 = 6 * 3_600;

fn main() -> Result<(), dynasore_types::Error> {
    let scale = ExperimentScale::from_args(ExperimentScale {
        users: 6_000,
        days: 10,
        extra_memory: 30,
        ..ExperimentScale::default()
    });
    let topology = paper_topology()?;
    let graph = dataset(GraphPreset::FacebookLike, &scale)?;

    let probes_per_run = (scale.days * 86_400 / PROBE_SECS) as usize + 1;
    let mut replica_sums = vec![0f64; probes_per_run];
    let mut reads_per_replica_sums = vec![0f64; probes_per_run];
    let mut counts = vec![0usize; probes_per_run];

    for rep in 0..REPETITIONS {
        let seed = scale.seed + rep as u64;
        // Pick a random, not-too-popular target user, as the paper does.
        let target = UserId::new(((seed * 7_919) % scale.users as u64) as u32);
        let plan = FlashEventPlan::paper_defaults(&graph, target, seed)?;
        let engine = dynasore_engine(
            &graph,
            &topology,
            scale.extra_memory,
            InitialPlacement::HierarchicalMetis { seed: scale.seed },
        )?;
        let trace = SyntheticTraceGenerator::paper_defaults(&graph, scale.days, seed)?;
        let mut sim =
            Simulation::new(topology.clone(), engine, &graph).with_mutations(plan.mutations());

        let mut last_reads = 0u64;
        let mut probe_idx = 0usize;
        sim.run_with_probe(trace, PROBE_SECS, |_time, engine, _graph| {
            if probe_idx >= probes_per_run {
                return;
            }
            let replicas = engine.replica_count(target).max(1);
            let reads_now = engine.recorded_reads(target);
            // Reads observed since the previous probe, per replica.
            let delta = reads_now.saturating_sub(last_reads);
            last_reads = reads_now;
            replica_sums[probe_idx] += replicas as f64;
            reads_per_replica_sums[probe_idx] += delta as f64 / replicas as f64;
            counts[probe_idx] += 1;
            probe_idx += 1;
        })?;
    }

    println!(
        "# Figure 5: flash event (+100 followers at day 2, removed at day 7), Facebook, {}% extra memory, {} repetitions",
        scale.extra_memory, REPETITIONS
    );
    print_row(["day", "avg_replicas", "avg_reads_per_replica_per_probe"].map(String::from));
    for i in 0..probes_per_run {
        if counts[i] == 0 {
            continue;
        }
        let day = (i as u64 * PROBE_SECS) as f64 / 86_400.0;
        print_row([
            format!("{day:.2}"),
            format!("{:.2}", replica_sums[i] / counts[i] as f64),
            format!("{:.2}", reads_per_replica_sums[i] / counts[i] as f64),
        ]);
    }
    println!("# expected shape: ~1 replica before day 2, several during the spike,");
    println!(
        "# and back to ~1 within a day of the spike ending at day {}.",
        7.min(scale.days)
    );
    let _ = SimTime::ZERO; // keep the import used even if probes are skipped
    Ok(())
}
