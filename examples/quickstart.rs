//! Quickstart: build a social graph, run the actual multi-threaded store,
//! post a few events and read a feed, then simulate a day of traffic and
//! compare DynaSoRe against the Random baseline.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dynasore::prelude::*;

fn main() -> Result<(), Error> {
    // ── 1. A small social world ────────────────────────────────────────────
    let users = 2_000;
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, users, 42)?;
    println!(
        "social graph: {} users, {} follow links",
        graph.user_count(),
        graph.edge_count()
    );

    // ── 2. The live store: cache worker, channel, persistent backing ──────
    let topology = Topology::tree(2, 2, 5, 1)?;
    let cluster = Cluster::spawn(&graph, topology.clone(), StoreConfig::default())?;

    let author = UserId::new(0);
    cluster.write(author, b"hello, social world!".to_vec())?;
    cluster.write(author, b"second post".to_vec())?;

    if let Some(&reader) = graph.followers(author).first() {
        let feed = cluster.read_feed(reader)?;
        println!(
            "user {reader} follows {author}; her feed has {} events, newest: {:?}",
            feed.len(),
            feed.first()
                .map(|e| String::from_utf8_lossy(e.payload()).into_owned())
        );
    }
    let stats = cluster.stats();
    println!(
        "store stats: {} cache hits, {} misses, {} cached views",
        stats.cache_hits, stats.cache_misses, stats.cached_views
    );
    cluster.shutdown().unwrap();

    // ── 3. The simulator: one day of traffic, DynaSoRe vs Random ──────────
    let budget = MemoryBudget::with_extra_percent(users, 30);

    let random = StaticPlacement::random(&graph, &topology, 7)?;
    let trace = SyntheticTraceGenerator::paper_defaults(&graph, 1, 7)?;
    let random_report = Simulation::new(topology.clone(), random, &graph).run(trace)?;

    let dynasore = DynaSoReEngine::builder()
        .topology(topology.clone())
        .budget(budget)
        .initial_placement(InitialPlacement::HierarchicalMetis { seed: 7 })
        .build(&graph)?;
    let trace = SyntheticTraceGenerator::paper_defaults(&graph, 1, 7)?;
    let dynasore_report = Simulation::new(topology, dynasore, &graph).run(trace)?;

    println!(
        "top-switch traffic: random = {} units, dynasore = {} units ({:.0}% reduction)",
        random_report.top_switch_total(),
        dynasore_report.top_switch_total(),
        100.0 * (1.0 - dynasore_report.normalized_top_traffic(&random_report))
    );
    Ok(())
}
