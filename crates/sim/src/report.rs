//! Simulation results.

use dynasore_topology::{Tier, TierTraffic, TrafficAccount};
use dynasore_types::{CountingSink, Latency, LatencyHistogram, MemoryUsage, SimTime, TrafficUnits};

use crate::durable_tier::DurableIoStats;

/// Latency measurements of one run under the configured
/// [`dynasore_types::NetworkModel`].
///
/// With the default infinite-capacity model every sample is zero and
/// `collapsed` is always `false` — the section exists so unit-count runs
/// stay byte-identical while time-aware runs read latency percentiles, the
/// worst switch backlog and congestion collapse off the same report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyStats {
    /// Per-read response-time samples: the slowest *application* message of
    /// each read request (fan-out legs run in parallel, the slowest gates
    /// the answer; protocol messages an engine emits while serving the read
    /// are asynchronous control-plane work and do not count).
    pub read: LatencyHistogram,
    /// Per-write response-time samples (slowest replica-update leg).
    pub write: LatencyHistogram,
    /// Largest queueing delay any single message experienced at one switch.
    pub max_queue_delay: Latency,
    /// Largest backlog (queued traffic units) any switch held at a message
    /// arrival.
    pub max_switch_backlog: u64,
    /// Whether any switch's queue exceeded the model's collapse threshold:
    /// arrivals outran service long enough that latencies stopped being
    /// meaningful. Always `false` under the infinite model.
    pub collapsed: bool,
}

/// Availability measurements of one run, which fault-injection experiments
/// read next to [`SimReport::recovery_messages`]: how many read targets went
/// unserved while masters awaited recovery capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReliabilityStats {
    /// Read targets the engine could not serve because the view had no live
    /// replica.
    pub unreachable_reads: u64,
    /// Total read targets attempted, the denominator of
    /// [`SimReport::availability`].
    pub read_targets: u64,
    /// Unserved read targets inside the worst single engine tick — the
    /// tick that maximises the unserved fraction. Stored as raw
    /// counts (with [`ReliabilityStats::worst_window_read_targets`]) so the
    /// report stays integer-exact and byte-deterministic.
    pub worst_window_unreachable: u64,
    /// Read targets attempted inside that same worst tick.
    pub worst_window_read_targets: u64,
    /// When unreachable reads last grew: the end of the last tick that
    /// added any (the end of the run for reads after the last tick), so
    /// one-tick resolution. [`SimTime::ZERO`] when no read was unreachable.
    pub last_unreachable_growth: SimTime,
}

/// The measurements produced by one simulation run.
///
/// All of the paper's figures and tables are derived from these quantities:
/// per-tier traffic (Figure 3, Tables 2–3), the top-switch time series split
/// into application and system traffic (Figures 4 and 6), and request
/// counts.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    pub(crate) engine_name: String,
    pub(crate) traffic: TrafficAccount,
    pub(crate) reads: u64,
    pub(crate) writes: u64,
    pub(crate) messages: CountingSink,
    pub(crate) end_time: SimTime,
    pub(crate) memory: MemoryUsage,
    /// Switch counts per tier `[top, intermediate, rack]`, used to compute
    /// per-switch averages.
    pub(crate) switch_counts: [usize; 3],
    pub(crate) reliability: ReliabilityStats,
    pub(crate) latency: LatencyStats,
    /// Durable-tier I/O; `Some` only when the run attached a
    /// [`crate::SimDurableTier`].
    pub(crate) durable: Option<DurableIoStats>,
}

impl SimReport {
    /// Name of the engine that produced this report.
    pub fn engine_name(&self) -> &str {
        &self.engine_name
    }

    /// The full per-switch traffic account.
    pub fn traffic(&self) -> &TrafficAccount {
        &self.traffic
    }

    /// Number of read requests executed.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Number of write requests executed.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Number of application messages exchanged (including machine-local
    /// ones, which cross no switch).
    pub fn total_application_messages(&self) -> u64 {
        self.messages.application
    }

    /// Number of protocol messages exchanged.
    pub fn total_protocol_messages(&self) -> u64 {
        self.messages.protocol
    }

    /// Simulated time of the last processed event.
    pub fn end_time(&self) -> SimTime {
        self.end_time
    }

    /// Memory usage of the engine at the end of the run.
    pub fn memory_usage(&self) -> MemoryUsage {
        self.memory
    }

    /// Availability and recovery measurements of the run.
    pub fn reliability(&self) -> ReliabilityStats {
        self.reliability
    }

    /// Latency measurements of the run (all-zero under the default
    /// infinite-capacity network model).
    pub fn latency(&self) -> &LatencyStats {
        &self.latency
    }

    /// Durable-tier I/O of the run: `Some` only when a
    /// [`crate::SimDurableTier`] was attached via
    /// [`crate::Simulation::with_durable_tier`], so default runs stay
    /// byte-identical to tier-less ones.
    pub fn durable_io(&self) -> Option<DurableIoStats> {
        self.durable
    }

    /// Median read response time.
    pub fn read_latency_p50(&self) -> Latency {
        self.latency.read.percentile(0.50)
    }

    /// 95th-percentile read response time.
    pub fn read_latency_p95(&self) -> Latency {
        self.latency.read.percentile(0.95)
    }

    /// 99th-percentile read response time.
    pub fn read_latency_p99(&self) -> Latency {
        self.latency.read.percentile(0.99)
    }

    /// Largest backlog (queued traffic units) any switch held during the
    /// run.
    pub fn max_switch_backlog(&self) -> u64 {
        self.latency.max_switch_backlog
    }

    /// Whether the run hit congestion collapse: some switch's queue exceeded
    /// the network model's collapse threshold.
    pub fn congestion_collapsed(&self) -> bool {
        self.latency.collapsed
    }

    /// Messages exchanged with the persistent tier to re-create views lost
    /// to failures. Zero in a run without failures.
    pub fn recovery_messages(&self) -> u64 {
        self.messages.persistent
    }

    /// Read targets that went unserved because the view had no live replica.
    pub fn unreachable_reads(&self) -> u64 {
        self.reliability.unreachable_reads
    }

    /// Fraction of read targets served, in `[0, 1]`. A run in which every
    /// lost master was re-created before anyone asked for it reports 1.0
    /// even though machines failed — that is the disposable-cache-server
    /// property the paper's §3.3 design buys.
    pub fn availability(&self) -> f64 {
        if self.reliability.read_targets == 0 {
            return 1.0;
        }
        1.0 - self.reliability.unreachable_reads as f64 / self.reliability.read_targets as f64
    }

    /// Availability of the worst single engine tick — the run-average
    /// [`SimReport::availability`] can hide a short total blackout inside a
    /// long quiet run; this cannot. 1.0 when no tick saw read traffic.
    pub fn worst_window_availability(&self) -> f64 {
        if self.reliability.worst_window_read_targets == 0 {
            return 1.0;
        }
        1.0 - self.reliability.worst_window_unreachable as f64
            / self.reliability.worst_window_read_targets as f64
    }

    /// Total traffic (application + protocol) through the top switch — the
    /// headline quantity of the paper.
    pub fn top_switch_total(&self) -> TrafficUnits {
        self.traffic.tier_total(Tier::Top).total()
    }

    /// Traffic through the top switch, split by class.
    pub fn top_switch_traffic(&self) -> TierTraffic {
        self.traffic.tier_total(Tier::Top)
    }

    /// Average per-switch traffic of a tier, the quantity reported in
    /// Tables 2 and 3.
    pub fn tier_average(&self, tier: Tier) -> f64 {
        self.traffic
            .tier_average(tier, self.switch_counts[tier.index()])
    }

    /// Hourly (or configured-bucket) time series of top-switch traffic,
    /// as plotted in Figures 4 and 6.
    pub fn top_switch_series(&self) -> Vec<TierTraffic> {
        self.traffic.top_switch_series()
    }

    /// Ratio of this run's top-switch traffic to a baseline run's, the
    /// normalisation used throughout the evaluation ("traffic normalised
    /// with respect to Random").
    pub fn normalized_top_traffic(&self, baseline: &SimReport) -> f64 {
        let base = baseline.top_switch_total();
        if base == 0 {
            return 0.0;
        }
        self.top_switch_total() as f64 / base as f64
    }

    /// Ratio of this run's per-switch tier average to a baseline's.
    pub fn normalized_tier_average(&self, tier: Tier, baseline: &SimReport) -> f64 {
        let base = baseline.tier_average(tier);
        if base == 0.0 {
            return 0.0;
        }
        self.tier_average(tier) / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_topology::Switch;
    use dynasore_types::{MessageClass, NetworkModel};

    fn report_with_top_units(units_messages: u64) -> SimReport {
        let mut traffic = TrafficAccount::new(NetworkModel::infinite());
        for _ in 0..units_messages {
            traffic.record(
                &[Switch::Rack(0), Switch::Intermediate(0), Switch::Top],
                MessageClass::Application,
                SimTime::ZERO,
            );
        }
        SimReport {
            engine_name: "test".into(),
            traffic,
            reads: 10,
            writes: 5,
            messages: CountingSink {
                application: 15,
                protocol: 2,
                persistent: 40,
            },
            end_time: SimTime::from_hours(1),
            memory: MemoryUsage {
                used_slots: 10,
                capacity_slots: 20,
            },
            switch_counts: [1, 5, 25],
            reliability: ReliabilityStats {
                unreachable_reads: 2,
                read_targets: 50,
                worst_window_unreachable: 2,
                worst_window_read_targets: 10,
                last_unreachable_growth: SimTime::from_hours(1),
            },
            latency: LatencyStats::default(),
            durable: None,
        }
    }

    #[test]
    fn accessors_expose_run_counters() {
        let r = report_with_top_units(3);
        assert_eq!(r.engine_name(), "test");
        assert_eq!(r.read_count(), 10);
        assert_eq!(r.write_count(), 5);
        assert_eq!(r.total_application_messages(), 15);
        assert_eq!(r.total_protocol_messages(), 2);
        assert_eq!(r.end_time(), SimTime::from_hours(1));
        assert_eq!(r.memory_usage().used_slots, 10);
        assert_eq!(r.top_switch_total(), 30);
        assert_eq!(r.top_switch_traffic().application, 30);
        assert_eq!(r.top_switch_series().len(), 1);
        assert_eq!(r.recovery_messages(), 40);
        assert_eq!(r.unreachable_reads(), 2);
        assert_eq!(r.reliability().read_targets, 50);
        assert!((r.availability() - 0.96).abs() < 1e-12);
        // The worst window concentrates the same 2 misses over 10 targets.
        assert!((r.worst_window_availability() - 0.80).abs() < 1e-12);
    }

    #[test]
    fn latency_section_exposes_percentiles_and_collapse() {
        let mut r = report_with_top_units(1);
        assert_eq!(r.read_latency_p50(), Latency::ZERO);
        assert!(!r.congestion_collapsed());
        assert_eq!(r.max_switch_backlog(), 0);
        let mut read = LatencyHistogram::new();
        for ms in 1..=100u64 {
            read.record(Latency::from_millis(ms));
        }
        r.latency = LatencyStats {
            read,
            write: LatencyHistogram::new(),
            max_queue_delay: Latency::from_millis(80),
            max_switch_backlog: 1_234,
            collapsed: true,
        };
        assert!(r.read_latency_p50() >= Latency::from_millis(50));
        assert!(r.read_latency_p95() >= Latency::from_millis(95));
        assert!(r.read_latency_p99() >= Latency::from_millis(99));
        assert!(r.read_latency_p99() <= Latency::from_millis(100));
        assert_eq!(r.max_switch_backlog(), 1_234);
        assert!(r.congestion_collapsed());
        assert_eq!(r.latency().max_queue_delay, Latency::from_millis(80));
    }

    #[test]
    fn availability_defaults_to_full_without_read_targets() {
        let mut r = report_with_top_units(1);
        r.reliability = ReliabilityStats::default();
        assert_eq!(r.availability(), 1.0);
        assert_eq!(r.worst_window_availability(), 1.0);
    }

    #[test]
    fn tier_average_uses_switch_counts() {
        let r = report_with_top_units(5);
        assert!((r.tier_average(Tier::Top) - 50.0).abs() < 1e-9);
        assert!((r.tier_average(Tier::Intermediate) - 10.0).abs() < 1e-9);
        assert!((r.tier_average(Tier::Rack) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn normalisation_against_baseline() {
        let baseline = report_with_top_units(10);
        let better = report_with_top_units(1);
        assert!((better.normalized_top_traffic(&baseline) - 0.1).abs() < 1e-9);
        assert!((better.normalized_tier_average(Tier::Top, &baseline) - 0.1).abs() < 1e-9);
        let empty = report_with_top_units(0);
        assert_eq!(better.normalized_top_traffic(&empty), 0.0);
        assert_eq!(better.normalized_tier_average(Tier::Top, &empty), 0.0);
    }
}
