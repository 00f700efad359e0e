//! **Figure 2** — number of reads and writes per day in the Yahoo! News
//! Activity trace (here: its diurnal synthetic stand-in).
//!
//! ```text
//! cargo run --release -p dynasore-bench --bin fig2_workload_profile [-- --users N --days N]
//! ```

use dynasore_bench::{dataset, print_row, ExperimentScale};
use dynasore_graph::GraphPreset;
use dynasore_workload::DiurnalTraceGenerator;

fn main() -> Result<(), dynasore_types::Error> {
    let scale = ExperimentScale::from_args(ExperimentScale {
        users: 8_000,
        days: 14,
        ..ExperimentScale::default()
    });
    let graph = dataset(GraphPreset::FacebookLike, &scale)?;
    let trace = DiurnalTraceGenerator::new(&graph, scale.days, scale.seed)?;

    let mut reads_per_day = vec![0u64; scale.days as usize];
    let mut writes_per_day = vec![0u64; scale.days as usize];
    for request in trace {
        let day = request.time.whole_days() as usize;
        if request.is_read() {
            reads_per_day[day] += 1;
        } else {
            writes_per_day[day] += 1;
        }
    }

    println!("# Figure 2: reads and writes per day, diurnal (Yahoo!-like) trace");
    println!("# paper: 2.5M users, 17M writes and 9.8M reads over 14 days (writes dominate)");
    print_row(["day", "writes", "reads"].map(String::from));
    for day in 0..scale.days as usize {
        print_row([
            (day + 1).to_string(),
            writes_per_day[day].to_string(),
            reads_per_day[day].to_string(),
        ]);
    }
    let total_w: u64 = writes_per_day.iter().sum();
    let total_r: u64 = reads_per_day.iter().sum();
    println!(
        "# totals: {total_w} writes, {total_r} reads (write fraction {:.2}; paper ≈ 0.63)",
        total_w as f64 / (total_w + total_r) as f64
    );
    Ok(())
}
