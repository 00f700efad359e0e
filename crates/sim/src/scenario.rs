//! Declarative adversarial scenario engine.
//!
//! The simulator's individual knobs — trace generators, graph mutations,
//! cluster-event schedules, fault injection — each exercise one stressor.
//! Real incidents stack several at once: an attack lands during an outage,
//! a decommission overlaps a traffic spike. This module composes those
//! knobs into named, seed-deterministic *scenarios*: a [`ScenarioKind`]
//! plus a [`ScenarioConfig`] expands into one [`ScenarioScript`] — a
//! request trace, a graph-mutation schedule and a cluster-event schedule
//! sharing a single timeline — and [`ScenarioRunner::run`] drives any
//! [`PlacementEngine`] through it, scoring the damage in a
//! [`DegradationReport`] against a quiet baseline run of the same engine.
//!
//! Everything is a pure function of `(graph, topology, ScenarioConfig)`:
//! the same inputs always produce byte-identical scripts and therefore
//! byte-identical [`SimReport`]s, so scorecards can be diffed across
//! commits like any other benchmark snapshot.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dynasore_graph::SocialGraph;
use dynasore_topology::{Topology, TopologyKind};
use dynasore_types::{
    ClusterEvent, Error, Latency, NetworkModel, PlacementEngine, RackId, Result, SimTime,
    TimedClusterEvent, UserId, DAY_SECS, HOUR_SECS,
};
use dynasore_workload::{
    FlashEventPlan, Request, SyntheticConfig, SyntheticTraceGenerator, TimedMutation,
};

use crate::durable_tier::SimDurableTier;
use crate::faults::generate_failure_schedule;
use crate::obs::SimObs;
use crate::report::SimReport;
use crate::simulation::Simulation;

/// Attack intensity (reproduction choice): reads issued per attacker per
/// hour while an attack window is open (hot-key flood, flash crowd).
const FLOOD_FACTOR: f64 = 8.0;

/// Fraction of the user base recruited as colluding attackers by the
/// hot-key flood (reproduction choice).
const ATTACKER_FRACTION: f64 = 0.02;

/// Racks the regional-failure scenario takes down together (reproduction
/// choice), clamped so at least one rack stays up. Four of the scaled-down
/// paper cluster's nine racks exceed the engines' 30 % memory slack, so
/// some lost masters cannot be re-created until the repair.
const REGIONAL_RACKS: usize = 4;

/// Knobs shared by every scenario. The seed fully determines each script:
/// same `(graph, topology, config)` → byte-identical scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Seed of every random choice a script makes (attacker selection,
    /// flash-crowd membership, MTBF schedules).
    pub seed: u64,
    /// Length of each scenario in days of simulated time.
    pub days: u64,
}

impl Default for ScenarioConfig {
    /// Two simulated days.
    fn default() -> Self {
        ScenarioConfig { seed: 0, days: 2 }
    }
}

impl ScenarioConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any knob is degenerate.
    pub fn validate(&self) -> Result<()> {
        if self.days == 0 {
            return Err(Error::invalid_config("scenarios must last at least a day"));
        }
        Ok(())
    }
}

/// The five scripted adversarial scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// A colluding subset of users all start following the most-followed
    /// user and hammer her view with reads for a quarter of the run —
    /// the hot-key analogue of a cache-busting attack.
    HotKeyFlood,
    /// A flash crowd (sudden followers plus a read storm) lands on the
    /// most-followed user *while a rack is down*, so the spill-over
    /// capacity the crowd would normally absorb into is missing.
    FlashCrowdNeighborDown,
    /// The read/write ratio inverts mid-run (4 : 1 becomes 1 : 4),
    /// punishing placements tuned for the historical read mix.
    RatioInversion,
    /// A correlated multi-rack outage lands on top of a seeded MTBF
    /// failure schedule — the region-loss case rack-aware replication
    /// exists for.
    RegionalFailure,
    /// A rack is permanently decommissioned ([`ClusterEvent::RemoveRack`])
    /// a third of the way into the run while traffic keeps flowing: an
    /// elastic shrink under load.
    DecommissionUnderLoad,
}

impl ScenarioKind {
    /// Every scenario, in scorecard order.
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::HotKeyFlood,
        ScenarioKind::FlashCrowdNeighborDown,
        ScenarioKind::RatioInversion,
        ScenarioKind::RegionalFailure,
        ScenarioKind::DecommissionUnderLoad,
    ];

    /// Stable kebab-case name used in scorecards and JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::HotKeyFlood => "hot-key-flood",
            ScenarioKind::FlashCrowdNeighborDown => "flash-crowd-neighbor-down",
            ScenarioKind::RatioInversion => "ratio-inversion",
            ScenarioKind::RegionalFailure => "regional-failure",
            ScenarioKind::DecommissionUnderLoad => "decommission-under-load",
        }
    }

    /// Expands this scenario into a concrete script for `graph` on
    /// `topology`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the config is degenerate or
    /// the topology cannot host the scenario (rack-level scenarios need a
    /// tree with at least two racks).
    pub fn script(
        self,
        graph: &SocialGraph,
        topology: &Topology,
        config: &ScenarioConfig,
    ) -> Result<ScenarioScript> {
        config.validate()?;
        if graph.user_count() < 2 {
            return Err(Error::invalid_config(
                "adversarial scenarios need at least two users",
            ));
        }
        match self {
            ScenarioKind::HotKeyFlood => hot_key_flood(graph, config),
            ScenarioKind::FlashCrowdNeighborDown => {
                flash_crowd_neighbor_down(graph, require_racks(topology, 2)?, config)
            }
            ScenarioKind::RatioInversion => ratio_inversion(graph, config),
            ScenarioKind::RegionalFailure => {
                regional_failure(graph, require_racks(topology, 2)?, config)
            }
            ScenarioKind::DecommissionUnderLoad => {
                decommission_under_load(graph, require_racks(topology, 2)?, config)
            }
        }
    }
}

/// One fully expanded scenario: a request trace, graph mutations and
/// cluster events on a shared timeline, plus the disruption window the
/// degradation metrics are anchored to.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioScript {
    /// The scenario's stable name ([`ScenarioKind::name`]).
    pub name: &'static str,
    /// The complete time-sorted request trace (base load plus any attack
    /// traffic).
    pub trace: Vec<Request>,
    /// Scheduled graph mutations (attack follows, flash crowds).
    pub mutations: Vec<TimedMutation>,
    /// Scheduled cluster events (outages, repairs, decommissions).
    pub events: Vec<TimedClusterEvent>,
    /// When the disruption opens.
    pub disruption_start: SimTime,
    /// When the disruption closes (end of trace for permanent damage such
    /// as a decommission).
    pub disruption_end: SimTime,
}

/// How badly one engine degraded under one scenario, relative to its own
/// quiet baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// The scenario's stable name.
    pub scenario: &'static str,
    /// The engine that was driven.
    pub engine: String,
    /// Whole-run availability ([`SimReport::availability`]).
    pub availability: f64,
    /// Worst sliding-window availability
    /// ([`SimReport::worst_window_availability`]).
    pub worst_window_availability: f64,
    /// p99 read latency under the scenario.
    pub read_p99: Latency,
    /// p99 read latency of the quiet baseline run.
    pub quiet_read_p99: Latency,
    /// Degradation ratio `(read_p99 + 1ns) / (quiet_read_p99 + 1ns)` — the
    /// +1ns keeps the ratio finite under the zero-latency infinite network
    /// model.
    pub p99_ratio: f64,
    /// Bytes replayed from the durable tier during recovery (0 when the
    /// run had no durable tier attached).
    pub recovery_bytes: u64,
    /// Seconds from the disruption opening until the engine last accrued
    /// an unreachable read — its time back to steady state (0 if reads
    /// never became unreachable).
    pub time_to_steady_secs: u64,
    /// The full measurement, for determinism checks and drill-down.
    pub report: SimReport,
}

/// Expands scenarios and drives engines through them.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioRunner {
    /// Scenario knobs (seed, duration, regional outage size).
    pub scenario: ScenarioConfig,
    /// The network model shared by quiet and disrupted runs
    /// ([`Simulation::with_network`]).
    pub network: NetworkModel,
}

impl ScenarioRunner {
    /// Creates a runner from the scenario knobs and the network model.
    pub fn new(scenario: ScenarioConfig, network: NetworkModel) -> Self {
        ScenarioRunner { scenario, network }
    }

    /// Runs `engine` over the undisturbed base trace — the baseline every
    /// [`DegradationReport`] is scored against. Use a freshly built engine;
    /// the run mutates it.
    ///
    /// # Errors
    ///
    /// Propagates configuration and engine errors.
    pub fn quiet_baseline<E: PlacementEngine>(
        &self,
        topology: Topology,
        graph: &SocialGraph,
        engine: E,
    ) -> Result<SimReport> {
        self.scenario.validate()?;
        let trace =
            SyntheticTraceGenerator::paper_defaults(graph, self.scenario.days, self.scenario.seed)?;
        Simulation::new(topology, engine, graph)
            .with_network(self.network)
            .run(trace)
    }

    /// Drives a freshly built `engine` through `kind` and scores the
    /// damage against `quiet` (that same engine's [`Self::quiet_baseline`]
    /// report). Attach a durable tier to measure recovery bytes instead of
    /// message counts alone, and an observer to get the scenario's
    /// decision timeline and metrics registry back next to the scorecard.
    /// Observation is passive: the [`DegradationReport`] is identical to an
    /// unobserved run of the same inputs.
    ///
    /// # Errors
    ///
    /// Propagates script-expansion, configuration and engine errors.
    #[allow(clippy::too_many_arguments)]
    pub fn run<E: PlacementEngine>(
        &self,
        kind: ScenarioKind,
        topology: Topology,
        graph: &SocialGraph,
        engine: E,
        quiet: &SimReport,
        durable: Option<SimDurableTier>,
        obs: Option<SimObs>,
    ) -> Result<(DegradationReport, Option<SimObs>)> {
        let script = kind.script(graph, &topology, &self.scenario)?;
        let mut sim = Simulation::new(topology, engine, graph)
            .with_network(self.network)
            .with_mutations(script.mutations)
            .with_cluster_events(script.events);
        if let Some(tier) = durable {
            sim = sim.with_durable_tier(tier);
        }
        if let Some(obs) = obs {
            sim = sim.with_observer(obs);
        }
        let report = sim.run(script.trace)?;
        let time_to_steady_secs = report
            .reliability()
            .last_unreachable_growth
            .saturating_secs_since(script.disruption_start);
        let read_p99 = report.read_latency_p99();
        let quiet_read_p99 = quiet.read_latency_p99();
        let obs = sim.take_observer();
        Ok((
            DegradationReport {
                scenario: script.name,
                engine: report.engine_name().to_string(),
                availability: report.availability(),
                worst_window_availability: report.worst_window_availability(),
                read_p99,
                quiet_read_p99,
                p99_ratio: (read_p99.as_nanos() + 1) as f64
                    / (quiet_read_p99.as_nanos() + 1) as f64,
                recovery_bytes: report.durable_io().map(|io| io.bytes_replayed).unwrap_or(0),
                time_to_steady_secs,
                report,
            },
            obs,
        ))
    }
}

/// The rack-level scenarios need a tree with enough racks to lose one.
fn require_racks(topology: &Topology, racks: usize) -> Result<&Topology> {
    if topology.kind() != TopologyKind::Tree || topology.rack_count() < racks {
        return Err(Error::invalid_config(format!(
            "this scenario needs a tree topology with at least {racks} racks"
        )));
    }
    Ok(topology)
}

/// The most-followed user (smallest id on ties) — the natural hot key.
fn most_followed(graph: &SocialGraph) -> UserId {
    let mut best = UserId::new(0);
    let mut best_degree = 0usize;
    for user in graph.users() {
        let degree = graph.in_degree(user);
        if degree > best_degree {
            best = user;
            best_degree = degree;
        }
    }
    best
}

/// Merges two time-sorted traces; `base` requests win ties so attack
/// traffic lands after the organic request due at the same instant.
fn merge_traces(mut base: Vec<Request>, extra: Vec<Request>) -> Vec<Request> {
    base.extend(extra);
    // Stable: equal times keep `base` before `extra`.
    base.sort_by_key(|r| r.time);
    base
}

/// Evenly spread reads from `readers` (round-robin) across `[start, end)`:
/// `per_reader_per_hour × readers × hours` requests in time order.
fn read_storm(
    readers: &[UserId],
    start: SimTime,
    end: SimTime,
    per_reader_per_hour: f64,
) -> Vec<Request> {
    let window_secs = end.saturating_secs_since(start);
    if readers.is_empty() || window_secs == 0 {
        return Vec::new();
    }
    let hours = window_secs as f64 / HOUR_SECS as f64;
    let total = (per_reader_per_hour * readers.len() as f64 * hours).round() as u64;
    (0..total)
        .map(|slot| {
            let offset = slot as u128 * window_secs as u128 / total as u128;
            Request::read(
                SimTime::from_secs(start.as_secs() + offset as u64),
                readers[slot as usize % readers.len()],
            )
        })
        .collect()
}

/// The base organic load every scenario layers its disruption over.
fn base_trace(graph: &SocialGraph, config: &ScenarioConfig) -> Result<Vec<Request>> {
    Ok(SyntheticTraceGenerator::paper_defaults(graph, config.days, config.seed)?.collect())
}

fn hot_key_flood(graph: &SocialGraph, config: &ScenarioConfig) -> Result<ScenarioScript> {
    let duration = config.days * DAY_SECS;
    let start = SimTime::from_secs(duration / 4);
    let end = SimTime::from_secs(duration / 2);
    let victim = most_followed(graph);

    // Recruit the colluding subset: distinct users who do not already
    // follow the victim, drawn from the scenario seed. BTreeSet keeps the
    // recruitment order-independent and the script deterministic.
    let users = graph.user_count();
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0xA77AC4)); // attacker stream
    let wanted = ((users as f64 * ATTACKER_FRACTION).round() as usize).max(1);
    let mut attackers: BTreeSet<UserId> = BTreeSet::new();
    let mut draws = 0usize;
    while attackers.len() < wanted && draws < users * 20 {
        draws += 1;
        let candidate = UserId::new(rng.gen_range(0..users as u64) as u32);
        if candidate != victim && !graph.contains_edge(candidate, victim) {
            attackers.insert(candidate);
        }
    }
    if attackers.is_empty() {
        return Err(Error::invalid_config(
            "no candidate attackers: everyone already follows the victim",
        ));
    }
    let attackers: Vec<UserId> = attackers.into_iter().collect();

    // The colluders follow the victim for the attack window, so every one
    // of their flood reads fans in on her view.
    let mut mutations: Vec<TimedMutation> = attackers
        .iter()
        .map(|&a| TimedMutation {
            time: start,
            mutation: dynasore_workload::GraphMutation::AddEdge {
                follower: a,
                followee: victim,
            },
        })
        .collect();
    mutations.extend(attackers.iter().map(|&a| TimedMutation {
        time: end,
        mutation: dynasore_workload::GraphMutation::RemoveEdge {
            follower: a,
            followee: victim,
        },
    }));

    let flood = read_storm(&attackers, start, end, FLOOD_FACTOR);
    Ok(ScenarioScript {
        name: ScenarioKind::HotKeyFlood.name(),
        trace: merge_traces(base_trace(graph, config)?, flood),
        mutations,
        events: Vec::new(),
        disruption_start: start,
        disruption_end: end,
    })
}

fn flash_crowd_neighbor_down(
    graph: &SocialGraph,
    topology: &Topology,
    config: &ScenarioConfig,
) -> Result<ScenarioScript> {
    let duration = config.days * DAY_SECS;
    let start = SimTime::from_secs(duration / 3);
    let end = SimTime::from_secs(duration / 2);
    let target = most_followed(graph);

    // The crowd: up to 10% of the user base suddenly follows the hot user.
    // Locality-aware engines keep her replica set on a handful of machines,
    // so the crowd's reads concentrate on that rack.
    let crowd_size = (graph.user_count() / 10).clamp(
        1,
        graph
            .user_count()
            .saturating_sub(graph.in_degree(target) + 1),
    );
    let plan = FlashEventPlan::random(
        graph,
        target,
        crowd_size,
        start,
        end,
        config.seed.wrapping_add(0xF1A54),
    )?;
    let storm = read_storm(plan.new_followers(), start, end, FLOOD_FACTOR);

    // Meanwhile the adjacent rack is down for the whole crowd window, so
    // the capacity the spike would spill into is missing.
    let neighbor = RackId::new((topology.rack_count() - 1).min(1) as u32);
    let events = vec![
        TimedClusterEvent {
            time: start,
            event: ClusterEvent::RackDown { rack: neighbor },
        },
        TimedClusterEvent {
            time: end,
            event: ClusterEvent::RackUp { rack: neighbor },
        },
    ];
    Ok(ScenarioScript {
        name: ScenarioKind::FlashCrowdNeighborDown.name(),
        trace: merge_traces(base_trace(graph, config)?, storm),
        mutations: plan.mutations(),
        events,
        disruption_start: start,
        disruption_end: end,
    })
}

fn ratio_inversion(graph: &SocialGraph, config: &ScenarioConfig) -> Result<ScenarioScript> {
    let duration = config.days * DAY_SECS;
    let flip = duration / 2;
    // Two full-length generators with inverted read/write mixes; the trace
    // takes the first half of the read-heavy one and the second half of
    // the write-heavy one. Both spread requests evenly, so the splice
    // preserves each generator's request rate.
    let read_heavy = SyntheticTraceGenerator::new(
        graph,
        SyntheticConfig {
            days: config.days,
            read_write_ratio: 4.0,
        },
        config.seed,
    )?;
    let write_heavy = SyntheticTraceGenerator::new(
        graph,
        SyntheticConfig {
            days: config.days,
            read_write_ratio: 0.25,
        },
        config.seed.wrapping_add(1),
    )?;
    let mut trace: Vec<Request> = read_heavy.filter(|r| r.time.as_secs() < flip).collect();
    trace.extend(write_heavy.filter(|r| r.time.as_secs() >= flip));
    Ok(ScenarioScript {
        name: ScenarioKind::RatioInversion.name(),
        trace,
        mutations: Vec::new(),
        events: Vec::new(),
        disruption_start: SimTime::from_secs(flip),
        disruption_end: SimTime::from_secs(duration),
    })
}

fn regional_failure(
    graph: &SocialGraph,
    topology: &Topology,
    config: &ScenarioConfig,
) -> Result<ScenarioScript> {
    let duration = config.days * DAY_SECS;
    let start = SimTime::from_secs(duration / 3);
    let end = SimTime::from_secs(duration / 3 + 2 * HOUR_SECS);

    // Background noise: the seeded MTBF/MTTR failure process, so the
    // regional outage lands on a cluster that is already imperfect.
    let mut events = generate_failure_schedule(topology, config.seed, duration)?;

    // The region: the first `REGIONAL_RACKS` racks fail together, leaving
    // at least one rack standing.
    let racks = REGIONAL_RACKS.min(topology.rack_count() - 1);
    for rack in 0..racks {
        let rack = RackId::new(rack as u32);
        events.push(TimedClusterEvent {
            time: start,
            event: ClusterEvent::RackDown { rack },
        });
        events.push(TimedClusterEvent {
            time: end,
            event: ClusterEvent::RackUp { rack },
        });
    }
    Ok(ScenarioScript {
        name: ScenarioKind::RegionalFailure.name(),
        trace: base_trace(graph, config)?,
        mutations: Vec::new(),
        events,
        disruption_start: start,
        disruption_end: end,
    })
}

fn decommission_under_load(
    graph: &SocialGraph,
    topology: &Topology,
    config: &ScenarioConfig,
) -> Result<ScenarioScript> {
    let duration = config.days * DAY_SECS;
    let start = SimTime::from_secs(duration / 3);
    let rack = RackId::new((topology.rack_count() - 1) as u32);
    let events = vec![TimedClusterEvent {
        time: start,
        event: ClusterEvent::RemoveRack { rack },
    }];
    Ok(ScenarioScript {
        name: ScenarioKind::DecommissionUnderLoad.name(),
        trace: base_trace(graph, config)?,
        mutations: Vec::new(),
        events,
        // The capacity never comes back: the engine must reach steady
        // state on the shrunken cluster by the end of the trace.
        disruption_start: start,
        disruption_end: SimTime::from_secs(duration),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_graph::GraphPreset;
    use dynasore_types::Operation;
    use dynasore_workload::GraphMutation;

    fn setup() -> (SocialGraph, Topology) {
        let graph = SocialGraph::generate(GraphPreset::TwitterLike, 150, 11).unwrap();
        let topology = Topology::tree(2, 2, 4, 1).unwrap();
        (graph, topology)
    }

    fn config() -> ScenarioConfig {
        ScenarioConfig { seed: 42, days: 1 }
    }

    #[test]
    fn config_validation_rejects_degenerate_knobs() {
        assert!(ScenarioConfig::default().validate().is_ok());
        let broken = ScenarioConfig {
            days: 0,
            ..config()
        };
        assert!(broken.validate().is_err(), "{broken:?}");
    }

    #[test]
    fn scripts_are_deterministic_and_time_sorted() {
        let (graph, topology) = setup();
        for kind in ScenarioKind::ALL {
            let a = kind.script(&graph, &topology, &config()).unwrap();
            let b = kind.script(&graph, &topology, &config()).unwrap();
            assert_eq!(a, b, "{} must be seed-deterministic", kind.name());
            assert_eq!(a.name, kind.name());
            assert!(!a.trace.is_empty());
            assert!(a.trace.windows(2).all(|w| w[0].time <= w[1].time));
            assert!(a.disruption_start < a.disruption_end);
            // A different seed changes the trace or the schedules.
            let other = kind
                .script(
                    &graph,
                    &topology,
                    &ScenarioConfig {
                        seed: 43,
                        ..config()
                    },
                )
                .unwrap();
            assert!(
                other.trace != a.trace
                    || other.mutations != a.mutations
                    || other.events != a.events,
                "{} must vary with the seed",
                kind.name()
            );
        }
    }

    #[test]
    fn hot_key_flood_recruits_attackers_and_floods_the_window() {
        let (graph, topology) = setup();
        let script = ScenarioKind::HotKeyFlood
            .script(&graph, &topology, &config())
            .unwrap();
        // 2 % of the users follow the victim for the window, then unfollow.
        let attackers: BTreeSet<UserId> = script
            .mutations
            .iter()
            .map(|m| match m.mutation {
                GraphMutation::AddEdge { follower, .. }
                | GraphMutation::RemoveEdge { follower, .. } => follower,
            })
            .collect();
        let wanted = (graph.user_count() as f64 * ATTACKER_FRACTION).round() as usize;
        assert_eq!(attackers.len(), wanted);
        assert_eq!(script.mutations.len(), 2 * wanted);
        // Each attacker reads the flood factor per hour of the window, which
        // dwarfs their organic reads of the same span before it.
        let window = script.disruption_end.as_secs() - script.disruption_start.as_secs();
        let attacker_reads = |lo: u64, hi: u64| {
            script
                .trace
                .iter()
                .filter(|r| r.op == Operation::Read && attackers.contains(&r.user))
                .filter(|r| (lo..hi).contains(&r.time.as_secs()))
                .count() as f64
        };
        let start = script.disruption_start.as_secs();
        let in_window = attacker_reads(start, start + window);
        let before = attacker_reads(start - window, start);
        let flood = FLOOD_FACTOR * wanted as f64 * window as f64 / HOUR_SECS as f64;
        assert!(
            in_window >= flood && in_window > 4.0 * before,
            "flood window: {in_window} attacker reads vs {before} quiet"
        );
    }

    #[test]
    fn ratio_inversion_flips_the_write_share() {
        let (graph, topology) = setup();
        let script = ScenarioKind::RatioInversion
            .script(&graph, &topology, &config())
            .unwrap();
        let flip = script.disruption_start;
        let writes = |lo: SimTime, hi: SimTime| {
            script
                .trace
                .iter()
                .filter(|r| r.op == Operation::Write && r.time >= lo && r.time < hi)
                .count() as f64
        };
        let total = |lo: SimTime, hi: SimTime| {
            script
                .trace
                .iter()
                .filter(|r| r.time >= lo && r.time < hi)
                .count() as f64
        };
        let first_half_share = writes(SimTime::ZERO, flip) / total(SimTime::ZERO, flip);
        let second_half_share =
            writes(flip, script.disruption_end) / total(flip, script.disruption_end);
        assert!(first_half_share < 0.3, "{first_half_share}");
        assert!(second_half_share > 0.6, "{second_half_share}");
    }

    #[test]
    fn rack_scenarios_reject_flat_and_single_rack_topologies() {
        let (graph, _) = setup();
        let flat = Topology::flat(8).unwrap();
        for kind in [
            ScenarioKind::FlashCrowdNeighborDown,
            ScenarioKind::RegionalFailure,
            ScenarioKind::DecommissionUnderLoad,
        ] {
            assert!(kind.script(&graph, &flat, &config()).is_err());
        }
        // The workload-only scenarios run anywhere.
        assert!(ScenarioKind::HotKeyFlood
            .script(&graph, &flat, &config())
            .is_ok());
        assert!(ScenarioKind::RatioInversion
            .script(&graph, &flat, &config())
            .is_ok());
    }

    #[test]
    fn regional_failure_spares_at_least_one_rack() {
        // Four racks: the clamp, not `REGIONAL_RACKS`, decides the region.
        let (graph, topology) = setup();
        assert!(REGIONAL_RACKS >= topology.rack_count());
        let script = ScenarioKind::RegionalFailure
            .script(&graph, &topology, &config())
            .unwrap();
        let downed: BTreeSet<u32> = script
            .events
            .iter()
            .filter(|e| e.time == script.disruption_start)
            .filter_map(|e| match e.event {
                ClusterEvent::RackDown { rack } => Some(rack.index()),
                _ => None,
            })
            .collect();
        assert_eq!(downed.len(), topology.rack_count() - 1);
    }
}
