//! Social-feed workload walkthrough: the scenario the paper's introduction
//! motivates. A Facebook-like friendship graph is served by the live store;
//! active users post status updates while their friends poll their feeds,
//! and we watch DynaSoRe replicate the hottest views and keep feed reads
//! cheap.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example social_feed
//! ```

use dynasore::prelude::*;

fn main() -> Result<(), Error> {
    let users = 1_500;
    let graph = SocialGraph::generate(GraphPreset::FacebookLike, users, 11)?;
    let topology = Topology::tree(2, 3, 4, 1)?;
    let cluster = Cluster::spawn(
        &graph,
        topology,
        StoreConfig {
            extra_memory_percent: 50,
            placement: InitialPlacement::HierarchicalMetis { seed: 11 },
            seed: 11,
        },
    )?;

    // The most-followed users are the celebrities of this small world.
    let mut by_followers: Vec<UserId> = graph.users().collect();
    by_followers.sort_by_key(|&u| std::cmp::Reverse(graph.followers(u).len()));
    let celebrities: Vec<UserId> = by_followers.into_iter().take(5).collect();

    // Celebrities post, everyone else refreshes their feed repeatedly.
    for round in 0..20u32 {
        for &celebrity in &celebrities {
            cluster.write(celebrity, format!("status update #{round}").into_bytes())?;
        }
        for &celebrity in &celebrities {
            for &fan in graph.followers(celebrity).iter().take(40) {
                let _ = cluster.read_feed(fan)?;
            }
        }
    }

    println!("celebrity view replication after 20 rounds of activity:");
    for &celebrity in &celebrities {
        println!(
            "  {celebrity}: {} followers → {} replicas",
            graph.followers(celebrity).len(),
            cluster.replica_count(celebrity)
        );
    }

    let stats = cluster.stats();
    let total_reads = stats.cache_hits + stats.cache_misses;
    println!(
        "served {} view reads: {:.1}% from cache ({} misses filled from the persistent store)",
        total_reads,
        100.0 * stats.cache_hits as f64 / total_reads.max(1) as f64,
        stats.cache_misses
    );
    println!(
        "persistent store saw {} writes and {} reads",
        stats.persistent_writes, stats.persistent_reads
    );

    cluster.shutdown().unwrap();
    Ok(())
}
