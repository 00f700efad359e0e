//! Criterion micro-benchmarks of the mechanisms DynaSoRe runs on every
//! request: routing, utility estimation, the full read/write path of each
//! engine, graph partitioning, and simulator throughput. These are not
//! figures from the paper; they document the cost of the machinery
//! (ablation-style) so regressions in the hot paths are visible.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use dynasore_baselines::{SparEngine, StaticPlacement};
use dynasore_core::{routing, DynaSoReEngine, InitialPlacement};
use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_partition::Partitioner;
use dynasore_sim::Simulation;
use dynasore_topology::Topology;
use dynasore_types::{MemoryBudget, PlacementEngine, SimTime, UserId};
use dynasore_workload::SyntheticTraceGenerator;

const USERS: usize = 2_000;
const SEED: u64 = 7;

fn graph() -> SocialGraph {
    SocialGraph::generate(GraphPreset::FacebookLike, USERS, SEED).unwrap()
}

fn topology() -> Topology {
    Topology::paper_tree().unwrap()
}

fn bench_partitioner(c: &mut Criterion) {
    let graph = graph();
    c.bench_function("partition/metis_225_parts", |b| {
        b.iter(|| {
            Partitioner::new(225)
                .seed(SEED)
                .partition(&graph)
                .unwrap()
                .part_count()
        })
    });
}

fn bench_routing(c: &mut Criterion) {
    let topology = topology();
    let broker = topology.brokers()[0].machine();
    let replicas: Vec<_> = topology
        .servers()
        .iter()
        .step_by(40)
        .map(|s| s.machine())
        .collect();
    c.bench_function("routing/closest_replica_6_candidates", |b| {
        b.iter(|| routing::closest_replica(&topology, broker, &replicas))
    });
}

fn bench_engine_read(c: &mut Criterion) {
    let graph = graph();
    let topology = topology();
    let mut group = c.benchmark_group("engine_read_path");
    let targets: Vec<UserId> = graph.followees(UserId::new(0)).to_vec();

    group.bench_function("dynasore", |b| {
        let engine = DynaSoReEngine::builder()
            .topology(topology.clone())
            .budget(MemoryBudget::with_extra_percent(USERS, 30))
            .initial_placement(InitialPlacement::Random { seed: SEED })
            .build(&graph)
            .unwrap();
        b.iter_batched(
            || engine.clone(),
            |mut engine| {
                let mut out = Vec::new();
                engine.handle_read(UserId::new(0), &targets, SimTime::from_secs(1), &mut out);
                out.len()
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("random_static", |b| {
        let engine = StaticPlacement::random(&graph, &topology, SEED).unwrap();
        b.iter_batched(
            || engine.clone(),
            |mut engine| {
                let mut out = Vec::new();
                engine.handle_read(UserId::new(0), &targets, SimTime::from_secs(1), &mut out);
                out.len()
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("spar", |b| {
        let engine = SparEngine::new(
            &graph,
            &topology,
            MemoryBudget::with_extra_percent(USERS, 30),
            SEED,
        )
        .unwrap();
        b.iter_batched(
            || engine.clone(),
            |mut engine| {
                let mut out = Vec::new();
                engine.handle_read(UserId::new(0), &targets, SimTime::from_secs(1), &mut out);
                out.len()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Steady-state hot-path throughput at paper-plus scale: 100k users on the
/// paper tree, measured after the placement has been warmed up. This is the
/// criterion-side companion of the `hotpath_throughput` binary (which emits
/// `BENCH_hotpath.json`).
fn bench_hotpath_steady_state(c: &mut Criterion) {
    const HOT_USERS: usize = 100_000;
    let graph = SocialGraph::generate(GraphPreset::FacebookLike, HOT_USERS, SEED).unwrap();
    let topology = topology();
    let mut engine = DynaSoReEngine::builder()
        .topology(topology)
        .budget(MemoryBudget::with_extra_percent(HOT_USERS, 30))
        .initial_placement(InitialPlacement::Random { seed: SEED })
        .build(&graph)
        .unwrap();
    let user_at = |k: u64| UserId::new(((k.wrapping_mul(7_919)) % HOT_USERS as u64) as u32);
    let mut out = Vec::new();
    for k in 0..50_000u64 {
        let user = user_at(k);
        out.clear();
        engine.handle_read(user, graph.followees(user), SimTime::from_secs(1), &mut out);
        out.clear();
        engine.handle_write(user, SimTime::from_secs(1), &mut out);
    }

    let mut group = c.benchmark_group("hotpath_100k_users");
    let mut k = 0u64;
    group.bench_function("steady_state_read", |b| {
        b.iter(|| {
            k = k.wrapping_add(1);
            let user = user_at(k);
            out.clear();
            engine.handle_read(user, graph.followees(user), SimTime::from_secs(2), &mut out);
            out.len()
        })
    });
    group.bench_function("steady_state_write", |b| {
        b.iter(|| {
            k = k.wrapping_add(1);
            let user = user_at(k);
            out.clear();
            engine.handle_write(user, SimTime::from_secs(3), &mut out);
            out.len()
        })
    });
    group.finish();
}

fn bench_simulation_hour(c: &mut Criterion) {
    let graph = graph();
    let topology = topology();
    let requests: Vec<_> = SyntheticTraceGenerator::paper_defaults(&graph, 1, SEED)
        .unwrap()
        .take(2_000)
        .collect();
    c.bench_function("simulation/2000_requests_dynasore", |b| {
        b.iter_batched(
            || {
                let engine = DynaSoReEngine::builder()
                    .topology(topology.clone())
                    .budget(MemoryBudget::with_extra_percent(USERS, 30))
                    .initial_placement(InitialPlacement::Random { seed: SEED })
                    .build(&graph)
                    .unwrap();
                Simulation::new(topology.clone(), engine, &graph)
            },
            |mut sim| sim.run(requests.clone()).unwrap().top_switch_total(),
            BatchSize::LargeInput,
        )
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    let graph = graph();
    c.bench_function("workload/synthetic_one_day", |b| {
        b.iter(|| {
            SyntheticTraceGenerator::paper_defaults(&graph, 1, SEED)
                .unwrap()
                .count()
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_partitioner,
        bench_routing,
        bench_engine_read,
        bench_hotpath_steady_state,
        bench_simulation_hour,
        bench_trace_generation
);
criterion_main!(benches);
