//! The simulator-side observer: a [`FlightRecorder`] plus a
//! [`MetricsRegistry`] stamped with simulated time.
//!
//! A [`SimObs`] is attached to a [`crate::Simulation`] with
//! [`crate::Simulation::with_observer`] and retrieved after the run with
//! [`crate::Simulation::take_observer`]. It is a passive, write-only side
//! channel: nothing the simulation measures ever reads it back, so an
//! observed run produces a `SimReport` equal to an unobserved one — and
//! when no observer is attached the simulation takes the structurally
//! identical pre-observability path (an `Option` that stays `None`), which
//! keeps disabled-mode runs byte-identical and zero-cost.

use dynasore_topology::{Switch, Tier, Topology, TrafficAccount};
use dynasore_types::{
    FlightRecorder, MetricId, MetricsRegistry, NetworkModel, SimTime, TraceEventKind, NANOS_PER_SEC,
};

use crate::durable_tier::{DurableIoStats, SimDurableTier};

/// Flight-recorder capacity of a simulation observer (reproduction choice):
/// enough to keep a full adversarial scenario's decision timeline without
/// rewinding.
const RECORDER_CAPACITY: usize = 65_536;

/// Simulation observer: flight recorder + metrics registry, both updated
/// from the accounting sink's [`dynasore_types::TrafficSink::trace`] hook
/// and from the simulator's per-tick sampling pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SimObs {
    recorder: FlightRecorder,
    registry: MetricsRegistry,
    collapse_onset_seen: bool,
}

impl Default for SimObs {
    /// An observer whose flight recorder keeps the newest 65,536 events.
    /// All storage is allocated here, up front.
    fn default() -> Self {
        SimObs {
            recorder: FlightRecorder::new(RECORDER_CAPACITY),
            registry: MetricsRegistry::new(),
            collapse_onset_seen: false,
        }
    }
}

impl SimObs {
    /// The recorded event timeline.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Renders the timeline as JSON Lines (oldest event first).
    pub fn to_jsonl(&self) -> String {
        self.recorder.to_jsonl()
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Records one event stamped `t_ns` and folds it into the registry.
    /// Alloc-free: the ring is pre-allocated and every event is `Copy`.
    pub(crate) fn trace(&mut self, t_ns: u64, kind: TraceEventKind) {
        self.registry.apply(kind);
        self.recorder.record(t_ns, kind);
    }

    /// The per-tick sampling pass: one `TickSample`, the worst queueing
    /// delay of every switch tier, per-shard durable lag samples, and the
    /// congestion-collapse onset (once, the first tick past the threshold).
    pub(crate) fn sample_tick(
        &mut self,
        tick_secs: u64,
        unreachable_reads: u64,
        topology: &Topology,
        traffic: &TrafficAccount,
        durable: Option<&SimDurableTier>,
        network: &NetworkModel,
    ) {
        let t_ns = tick_secs.saturating_mul(NANOS_PER_SEC);
        let time = SimTime::from_secs(tick_secs);
        self.trace(
            t_ns,
            TraceEventKind::TickSample {
                tick_secs,
                unreachable_reads,
            },
        );
        self.trace(
            t_ns,
            TraceEventKind::SwitchQueueDepth {
                tier: Tier::Top,
                max_delay_ns: traffic.queued_delay(Switch::Top, time).as_nanos(),
            },
        );
        if topology.intermediate_count() > 0 {
            let mut worst = 0u64;
            for i in 0..topology.intermediate_count() {
                let delay = traffic.queued_delay(Switch::Intermediate(i as u32), time);
                worst = worst.max(delay.as_nanos());
            }
            self.trace(
                t_ns,
                TraceEventKind::SwitchQueueDepth {
                    tier: Tier::Intermediate,
                    max_delay_ns: worst,
                },
            );
        }
        if topology.rack_count() > 0 {
            let mut worst = 0u64;
            for r in 0..topology.rack_count() {
                let delay = traffic.queued_delay(Switch::Rack(r as u32), time);
                worst = worst.max(delay.as_nanos());
            }
            self.trace(
                t_ns,
                TraceEventKind::SwitchQueueDepth {
                    tier: Tier::Rack,
                    max_delay_ns: worst,
                },
            );
        }
        if let Some(tier) = durable {
            let lags = tier.shard_lags();
            self.registry.ensure_shards(lags.len());
            for (shard, lag_bytes) in lags.enumerate() {
                self.trace(
                    t_ns,
                    TraceEventKind::ShardLag {
                        shard: shard as u32,
                        lag_bytes,
                    },
                );
            }
        }
        if !self.collapse_onset_seen && !network.is_infinite() {
            let queue_delay = traffic.max_queue_delay();
            if queue_delay >= network.collapse_threshold {
                self.collapse_onset_seen = true;
                self.trace(
                    t_ns,
                    TraceEventKind::CollapseOnset {
                        queue_delay_ns: queue_delay.as_nanos(),
                    },
                );
            }
        }
    }

    /// End-of-run bookkeeping: folds the run's message totals, durable I/O
    /// stats and the number of tier syncs the run issued into the registry
    /// (counters the hot path deliberately does not touch per message).
    pub(crate) fn finish_run(
        &mut self,
        app_messages: u64,
        proto_messages: u64,
        recovery_messages: u64,
        durable_io: Option<(&DurableIoStats, u64)>,
    ) {
        self.registry.add(MetricId::AppMessages, app_messages);
        self.registry.add(MetricId::ProtoMessages, proto_messages);
        self.registry
            .add(MetricId::RecoveryMessages, recovery_messages);
        if let Some((io, syncs)) = durable_io {
            self.registry.add(MetricId::DurableAppends, io.appends);
            self.registry.add(MetricId::DurableSyncs, syncs);
        }
    }
}
