//! `sim_replay`: the placement engine and the simulator's traffic accounting
//! alone, with the paper's quality metric.

use std::time::Instant;

use dynasore_baselines::StaticPlacement;
use dynasore_core::{DynaSoReEngine, InitialPlacement};
use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_sim::{SimReport, Simulation};
use dynasore_topology::Topology;
use dynasore_types::{
    MemoryBudget, Message, PlacementEngine, Result, SimTime, TrafficSink, HOUR_SECS,
};
use dynasore_workload::{Request, SyntheticTraceGenerator};

use crate::load::{Spec, USERS};
use crate::machine::Meter;
use crate::serving::{Budget, SetupSplit, Slice, Tally};

/// Measured days behind `top_switch_vs_random`. Every run replays at least
/// these, so the quality metric depends on the seed alone.
pub const QUALITY_DAYS: u64 = 4;

fn engine(graph: &SocialGraph, topology: &Topology, seed: u64) -> Result<DynaSoReEngine> {
    DynaSoReEngine::builder()
        .topology(topology.clone())
        .budget(MemoryBudget::with_extra_percent(graph.user_count(), 30))
        .initial_placement(InitialPlacement::Random { seed })
        .build(graph)
}

/// Day `day` of the seeded trace; day 0 is the first warm-up day.
fn day_trace(graph: &SocialGraph, seed: u64, day: u64) -> Result<SyntheticTraceGenerator> {
    SyntheticTraceGenerator::paper_defaults(graph, 1, seed.wrapping_add(day))
}

/// Times a trace from outside `Simulation::run`: the serial driver pulls one
/// request, executes it, and pulls the next, so the time between handing a
/// request out and being asked for the next one is that request's latency
/// (engine, accounting, and any hourly tick that came due with it). Between
/// slices, and outside every latency, it reads the machine's reference.
struct TimedTrace<'g, I> {
    inner: I,
    graph: &'g SocialGraph,
    meter: &'g mut Meter,
    handed: Option<(Instant, Request)>,
    slice_requests: u64,
    /// The slices completed so far and the one being filled.
    slices: &'g mut Vec<Slice>,
    current: Slice,
}

impl<I> TimedTrace<'_, I> {
    fn close_slice(&mut self) {
        self.current.slowdown = self.meter.lap();
        self.slices.push(std::mem::take(&mut self.current));
    }
}

impl<I: Iterator<Item = Request>> Iterator for TimedTrace<'_, I> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let now = Instant::now();
        if let Some((at, request)) = self.handed.take() {
            let views = if request.is_read() {
                self.graph.out_degree(request.user) as u64
            } else {
                1
            };
            self.current
                .record(request.is_read(), (now - at).as_nanos() as u64, views);
            if self.current.requests() == self.slice_requests {
                self.close_slice();
            }
        } else {
            // The first request of the trace: the reading its slice starts at.
            self.meter.lap();
        }
        let Some(request) = self.inner.next() else {
            // A day that does not divide into slices ends with a short one.
            if self.current.requests() > 0 {
                self.close_slice();
            }
            return None;
        };
        self.handed = Some((Instant::now(), request));
        Some(request)
    }
}

pub struct SimDeployment {
    graph: SocialGraph,
    topology: Topology,
    sim: Simulation<DynaSoReEngine>,
    /// The random-placement baseline over the first `QUALITY_DAYS` days.
    baseline: Vec<SimReport>,
    seed: u64,
    warmup_days: u64,
    slice_requests: u64,
    pub setup: SetupSplit,
}

/// What a measured phase produced: its slices, and one report per simulated
/// day.
pub struct SimRun {
    pub slices: Vec<Slice>,
    pub reports: Vec<SimReport>,
    pub top_switch_vs_random: f64,
}

/// Replays day `day` through `sim`, timed slice by slice into `slices`.
/// Returns the day's report and the number of requests its trace holds.
fn replay_day<E: PlacementEngine>(
    sim: &mut Simulation<E>,
    graph: &SocialGraph,
    (seed, day): (u64, u64),
    slice_requests: u64,
    meter: &mut Meter,
    slices: &mut Vec<Slice>,
) -> Result<(SimReport, u64)> {
    let trace = day_trace(graph, seed, day)?;
    let requests = trace.request_count();
    let report = sim.run(&mut TimedTrace {
        inner: trace,
        graph,
        meter,
        handed: None,
        slice_requests,
        slices,
        current: Slice::default(),
    })?;
    Ok((report, requests))
}

fn nominal_busy_s(slices: &[Slice]) -> f64 {
    slices.iter().map(Slice::nominal_busy_s).sum()
}

/// FacebookLike graph on the paper's tree, DynaSoRe from random placement
/// with 30 % extra memory, warmed up for `spec.warmup` days. The
/// `StaticPlacement::random` baseline replays the same days here, in set-up
/// (`preload_s` in the split). Set-up is timed at nominal machine speed; of
/// the replays it counts the requests' service time.
pub fn deploy(spec: &Spec, seed: u64, meter: &mut Meter) -> Result<SimDeployment> {
    let (made, graph_s) = meter.timed(|| -> Result<_> {
        let graph = SocialGraph::generate(GraphPreset::FacebookLike, USERS, seed)?;
        Ok((graph, Topology::paper_tree()?))
    });
    let (graph, topology) = made?;

    let random = StaticPlacement::random(&graph, &topology, seed)?;
    let mut base = Simulation::new(topology.clone(), random, &graph);
    let mut baseline = Vec::new();
    let mut slices = Vec::new();
    for day in 0..spec.warmup + QUALITY_DAYS {
        let at = (seed, day);
        let (report, _) = replay_day(&mut base, &graph, at, spec.slice, meter, &mut slices)?;
        if day >= spec.warmup {
            baseline.push(report);
        }
    }
    let preload_s = nominal_busy_s(&slices);

    let (sim, spawn_s) = meter.timed(|| -> Result<_> {
        let engine = engine(&graph, &topology, seed)?;
        Ok(Simulation::new(topology.clone(), engine, &graph))
    });
    let mut sim = sim?;

    slices.clear();
    for day in 0..spec.warmup {
        replay_day(
            &mut sim,
            &graph,
            (seed, day),
            spec.slice,
            meter,
            &mut slices,
        )?;
    }
    Ok(SimDeployment {
        setup: SetupSplit {
            graph_s,
            preload_s,
            spawn_s,
            warmup_s: nominal_busy_s(&slices),
        },
        graph,
        topology,
        sim,
        baseline,
        seed,
        warmup_days: spec.warmup,
        slice_requests: spec.slice,
    })
}

impl SimDeployment {
    /// Replays whole days until the budget is spent, and never fewer than
    /// `QUALITY_DAYS`.
    pub fn measure(
        &mut self,
        budget: Budget,
        meter: &mut Meter,
        tally: &mut Tally,
    ) -> Result<SimRun> {
        let mut run = SimRun {
            slices: Vec::new(),
            reports: Vec::new(),
            top_switch_vs_random: 0.0,
        };
        let mut busy_s = 0.0;
        loop {
            let days = run.reports.len() as u64;
            if days >= QUALITY_DAYS && budget.spent(run.slices.len(), busy_s) {
                break;
            }
            let first_slice = run.slices.len();
            let (report, expected) = replay_day(
                &mut self.sim,
                &self.graph,
                (self.seed, self.warmup_days + days),
                self.slice_requests,
                meter,
                &mut run.slices,
            )?;
            let replayed = report.read_count() + report.write_count();
            let timed: u64 = run.slices[first_slice..].iter().map(Slice::requests).sum();
            tally.attempted += replayed;
            if replayed != expected || timed != expected {
                tally.fail(format!(
                    "day {days}: {replayed} of {expected} requests replayed, {timed} timed"
                ));
            }
            busy_s += run.slices[first_slice..]
                .iter()
                .map(Slice::busy_s)
                .sum::<f64>();
            run.reports.push(report);
        }
        let top = |reports: &[SimReport]| -> f64 {
            let days = &reports[..QUALITY_DAYS as usize];
            days.iter().map(|r| r.top_switch_total() as f64).sum()
        };
        run.top_switch_vs_random = top(&run.reports) / top(&self.baseline);
        // The paper's headline: DynaSoRe must beat random placement.
        tally.check(if run.top_switch_vs_random < 1.0 {
            Ok(())
        } else {
            Err(format!(
                "top-switch traffic is {} of random placement's",
                run.top_switch_vs_random
            ))
        });
        Ok(run)
    }

    pub fn replicas_per_view(&self) -> f64 {
        replicas_per_view(self.sim.engine(), &self.graph)
    }

    /// Replays the warm-up and the first `QUALITY_DAYS` days through a fresh
    /// engine with a counting sink: the `core` layer without the simulator.
    pub fn engine_only(&self, meter: &mut Meter) -> Result<EngineOnly> {
        let mut engine = engine(&self.graph, &self.topology, self.seed)?;
        let mut out = EngineOnly::default();
        let mut current = Slice::default();
        for day in 0..self.warmup_days + QUALITY_DAYS {
            if day == self.warmup_days {
                out = EngineOnly::default();
                current = Slice::default();
                meter.lap();
            }
            // `Simulation::run` restarts its hourly tick schedule each run.
            let mut next_tick = HOUR_SECS;
            for request in day_trace(&self.graph, self.seed, day)? {
                let mut sink = CountSink::default();
                let targets = self.graph.followees(request.user);
                let start = Instant::now();
                while next_tick <= request.time.as_secs() {
                    engine.on_tick(SimTime::from_secs(next_tick), &mut sink);
                    next_tick += HOUR_SECS;
                }
                let (views, msgs) = if request.is_read() {
                    engine.handle_read(request.user, targets, request.time, &mut sink);
                    (targets.len() as u64, &mut out.read_msgs)
                } else {
                    engine.handle_write(request.user, request.time, &mut sink);
                    (1, &mut out.write_msgs)
                };
                let latency_ns = start.elapsed().as_nanos() as u64;
                current.record(request.is_read(), latency_ns, views);
                *msgs += sink.app + sink.proto;
                out.proto_msgs += sink.proto;
                if current.requests() == self.slice_requests {
                    current.slowdown = meter.lap();
                    out.slices.push(std::mem::take(&mut current));
                }
            }
        }
        out.replicas_per_view = replicas_per_view(&engine, &self.graph);
        Ok(out)
    }
}

fn replicas_per_view(engine: &DynaSoReEngine, graph: &SocialGraph) -> f64 {
    let replicas: usize = graph.users().map(|u| engine.replica_count(u)).sum();
    replicas as f64 / graph.user_count() as f64
}

#[derive(Debug, Default)]
struct CountSink {
    app: u64,
    proto: u64,
}

impl TrafficSink for CountSink {
    fn record(&mut self, message: Message) {
        if message.class.is_application() {
            self.app += 1;
        } else {
            self.proto += 1;
        }
    }
}

/// The engine alone over the first `QUALITY_DAYS` days: its slices, cut like
/// the simulator's, and its message counts.
#[derive(Debug, Default)]
pub struct EngineOnly {
    pub slices: Vec<Slice>,
    /// Messages of read and write requests, the hourly ticks' included.
    pub read_msgs: u64,
    pub write_msgs: u64,
    pub proto_msgs: u64,
    pub replicas_per_view: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_trace_records_one_latency_per_request_and_cuts_slices() {
        let graph = SocialGraph::generate(GraphPreset::FacebookLike, 200, 5).unwrap();
        let requests: Vec<Request> = day_trace(&graph, 5, 0).unwrap().collect();
        assert_eq!(requests.len(), 1000);
        let mut slices = Vec::new();
        let mut meter = Meter::new();
        let mut timed = TimedTrace {
            inner: requests.iter().copied(),
            graph: &graph,
            meter: &mut meter,
            handed: None,
            slice_requests: 300,
            slices: &mut slices,
            current: Slice::default(),
        };
        assert_eq!((&mut timed).count(), requests.len());
        // The last request's latency is recorded by the call that ends the
        // trace, which also closes the short last slice.
        let sizes: Vec<u64> = slices.iter().map(Slice::requests).collect();
        assert_eq!(sizes, vec![300, 300, 300, 100]);
        // One reading to start with, one when the trace starts, one per slice.
        assert_eq!(meter.kernel_readings.len(), 2 + slices.len());
        assert!(slices.iter().all(|s| s.slowdown > 0.0));
        let reads = requests.iter().filter(|r| r.is_read());
        let views: u64 = reads.clone().map(|r| graph.out_degree(r.user) as u64).sum();
        let writes = requests.len() as u64 - reads.count() as u64;
        assert_eq!(slices.iter().map(|s| s.views).sum::<u64>(), views + writes);
        assert_eq!(
            slices.iter().map(|s| s.write_ns.len() as u64).sum::<u64>(),
            writes
        );
    }
}
