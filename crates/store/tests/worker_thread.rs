//! The cache is one thread, however many servers the topology has.
//!
//! This file holds a single test on purpose: it counts the threads of the
//! whole process, so nothing else may start or stop one while it runs.

#![cfg(target_os = "linux")]

use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_store::{Cluster, StoreConfig};
use dynasore_topology::Topology;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn a_cluster_on_the_paper_tree_runs_exactly_one_thread() {
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, 1_000, 1).unwrap();
    let topology = Topology::paper_tree().unwrap();
    assert_eq!(topology.server_count(), 225);

    let before = threads();
    let cluster = Cluster::spawn(&graph, topology, StoreConfig::default()).unwrap();
    assert_eq!(threads(), before + 1);
    // A thread names itself as it starts; an answer means it has.
    assert_eq!(cluster.stats().cached_views, 0);
    let names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .map(|task| std::fs::read_to_string(task.unwrap().path().join("comm")).unwrap())
        .collect();
    assert!(names.iter().any(|name| name.trim() == "dynasore-cache"));

    // Dropping without `shutdown` joins it. A joined thread has exited, but
    // the kernel may take a moment more to unlist its task.
    drop(cluster);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while threads() != before && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(threads(), before);
}
