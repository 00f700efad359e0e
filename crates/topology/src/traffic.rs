//! Per-switch traffic accounting.
//!
//! Every experiment in the paper reports traffic as the number of message
//! units traversing switches: Figure 3 and Figure 4 report the traffic of
//! the top switch, Tables 2 and 3 the average per-switch traffic of each
//! tier, and Figure 6 splits application from system (protocol) traffic.
//! [`TrafficAccount`] accumulates exactly those quantities.

use dynasore_types::{
    Latency, MessageClass, NetworkModel, SimTime, Tier, TrafficUnits, HOUR_SECS, NANOS_PER_SEC,
};

use crate::layout::Switch;

/// Width of a time-series bucket: the hour, the finest grain the paper
/// plots (Figures 4 and 6) and the engines' maintenance period (§4.3).
const BUCKET_SECS: u64 = HOUR_SECS;

/// Traffic accumulated at one tier, split by message class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierTraffic {
    /// Units of application traffic (reads/writes and their answers).
    pub application: TrafficUnits,
    /// Units of protocol traffic (replica management, notifications).
    pub protocol: TrafficUnits,
}

impl TierTraffic {
    /// Application + protocol units.
    pub fn total(&self) -> TrafficUnits {
        self.application + self.protocol
    }

    fn add(&mut self, class: MessageClass, units: TrafficUnits) {
        match class {
            MessageClass::Application => self.application += units,
            MessageClass::Protocol => self.protocol += units,
        }
    }
}

/// Records the traffic of every tier of a topology over time, in hourly
/// buckets, and queues each switch's work under the network model.
///
/// # Example
///
/// ```
/// use dynasore_topology::{Switch, Tier, TrafficAccount};
/// use dynasore_types::{MessageClass, NetworkModel, SimTime};
///
/// let mut account = TrafficAccount::new(NetworkModel::infinite());
/// account.record(
///     &[Switch::Rack(0), Switch::Intermediate(0), Switch::Top],
///     MessageClass::Application,
///     SimTime::from_secs(10),
/// );
/// assert_eq!(account.tier_total(Tier::Top).application, 10);
/// assert_eq!(account.grand_total(), 30);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficAccount {
    tier_totals: [TierTraffic; 3],
    /// `series[bucket][tier]`, grown on demand.
    series: Vec<[TierTraffic; 3]>,
    messages: u64,
    /// The time model. With [`NetworkModel::infinite`] the queue state
    /// below is never touched and accounting is byte-identical to the
    /// historical unit-count behaviour.
    model: NetworkModel,
    /// Per-switch deterministic queues: the absolute instant (ns) until
    /// which each switch is busy transmitting already-accepted work. A
    /// message arriving earlier waits for the difference (M/D/1-style:
    /// deterministic service, drain happens implicitly as simulated time
    /// advances). Dense, index-addressed and grown on demand, so charging a
    /// message does no hashing.
    top_busy_until: u64,
    inter_busy_until: Vec<u64>,
    rack_busy_until: Vec<u64>,
    /// Largest queueing delay any message experienced at a single switch.
    max_queue_delay_ns: u64,
    /// Largest backlog (queued traffic units) any switch held at a message
    /// arrival.
    max_backlog_units: u64,
}

impl TrafficAccount {
    /// Creates an empty account charging queues under the given time model.
    /// Under a finite model [`TrafficAccount::record_timed`] returns a
    /// nonzero latency sample per message and the account accumulates the
    /// maximum queueing delay and backlog any switch reached; under
    /// [`NetworkModel::infinite`] it counts units only.
    pub fn new(model: NetworkModel) -> Self {
        TrafficAccount {
            tier_totals: [TierTraffic::default(); 3],
            series: Vec::new(),
            messages: 0,
            model,
            top_busy_until: 0,
            inter_busy_until: Vec::new(),
            rack_busy_until: Vec::new(),
            max_queue_delay_ns: 0,
            max_backlog_units: 0,
        }
    }

    /// The time model this account charges queues under.
    pub fn model(&self) -> NetworkModel {
        self.model
    }

    /// Records one message of `class` traversing the given switches at time
    /// `time`. A message with an empty path (local delivery) costs nothing.
    pub fn record(&mut self, path: &[Switch], class: MessageClass, time: SimTime) {
        self.record_timed(path, class, time);
    }

    /// Records one message and returns its end-to-end latency sample: per
    /// hop, the fixed forwarding latency plus the wait behind the switch's
    /// queued work plus the message's own transmission time. With the
    /// infinite model every sample is [`Latency::ZERO`] and the queue state
    /// is untouched, so unit-count accounting stays byte-identical.
    ///
    /// Hops are charged in path order: the arrival time at hop *k* includes
    /// the delays accumulated at hops *0..k*, so a congested rack switch
    /// delays the message's arrival at the intermediate tier, exactly as a
    /// store-and-forward fabric would.
    pub fn record_timed(&mut self, path: &[Switch], class: MessageClass, time: SimTime) -> Latency {
        if path.is_empty() {
            return Latency::ZERO;
        }
        self.messages += 1;
        let units = class.units();
        let bucket = time.bucket(BUCKET_SECS) as usize;
        if bucket >= self.series.len() {
            self.series.resize(bucket + 1, [TierTraffic::default(); 3]);
        }
        let infinite = self.model.is_infinite();
        let hop_ns = self.model.hop_latency.as_nanos();
        let base_ns = time.as_secs().saturating_mul(NANOS_PER_SEC);
        let mut latency_ns = 0u64;
        for &switch in path {
            let tier = switch.tier().index();
            self.tier_totals[tier].add(class, units);
            self.series[bucket][tier].add(class, units);
            if infinite {
                continue;
            }
            latency_ns += hop_ns;
            let ns_per_unit = match switch.tier() {
                Tier::Top => self.model.top_service.ns_per_unit(),
                Tier::Intermediate => self.model.intermediate_service.ns_per_unit(),
                Tier::Rack => self.model.rack_service.ns_per_unit(),
            };
            if ns_per_unit == 0 {
                continue;
            }
            let arrival = base_ns + latency_ns;
            let busy_until = self.busy_slot(switch);
            let start = (*busy_until).max(arrival);
            let wait = start - arrival;
            let service = units * ns_per_unit;
            *busy_until = start + service;
            latency_ns += wait + service;
            if wait > self.max_queue_delay_ns {
                self.max_queue_delay_ns = wait;
            }
            let backlog_units = wait / ns_per_unit;
            if backlog_units > self.max_backlog_units {
                self.max_backlog_units = backlog_units;
            }
        }
        Latency::from_nanos(latency_ns)
    }

    fn busy_slot(&mut self, switch: Switch) -> &mut u64 {
        match switch {
            Switch::Top => &mut self.top_busy_until,
            Switch::Intermediate(i) => {
                let i = i as usize;
                if i >= self.inter_busy_until.len() {
                    self.inter_busy_until.resize(i + 1, 0);
                }
                &mut self.inter_busy_until[i]
            }
            Switch::Rack(r) => {
                let r = r as usize;
                if r >= self.rack_busy_until.len() {
                    self.rack_busy_until.resize(r + 1, 0);
                }
                &mut self.rack_busy_until[r]
            }
        }
    }

    /// The queueing delay a message arriving at `switch` at `time` would
    /// experience before transmission begins: the switch's pending work not
    /// yet drained at that instant. The congestion signal placement
    /// decisions consume. Always zero under the infinite model.
    pub fn queued_delay(&self, switch: Switch, time: SimTime) -> Latency {
        let busy_until = match switch {
            Switch::Top => self.top_busy_until,
            Switch::Intermediate(i) => self.inter_busy_until.get(i as usize).copied().unwrap_or(0),
            Switch::Rack(r) => self.rack_busy_until.get(r as usize).copied().unwrap_or(0),
        };
        let now = time.as_secs().saturating_mul(NANOS_PER_SEC);
        Latency::from_nanos(busy_until.saturating_sub(now))
    }

    /// Largest queueing delay any message experienced at a single switch
    /// over the account's lifetime. Zero under the infinite model.
    pub fn max_queue_delay(&self) -> Latency {
        Latency::from_nanos(self.max_queue_delay_ns)
    }

    /// Largest backlog — queued traffic units awaiting transmission — any
    /// switch held when a message arrived. Zero under the infinite model.
    pub fn max_switch_backlog(&self) -> u64 {
        self.max_backlog_units
    }

    /// Number of (non-local) messages recorded.
    pub fn message_count(&self) -> u64 {
        self.messages
    }

    /// Total traffic accumulated at a tier (summed over all its switches).
    pub fn tier_total(&self, tier: Tier) -> TierTraffic {
        self.tier_totals[tier.index()]
    }

    /// Average per-switch traffic of a tier, given how many switches that
    /// tier has in the topology (Tables 2 and 3 report this quantity).
    pub fn tier_average(&self, tier: Tier, switch_count: usize) -> f64 {
        if switch_count == 0 {
            return 0.0;
        }
        self.tier_total(tier).total() as f64 / switch_count as f64
    }

    /// The per-bucket time series of a tier. Buckets with no traffic are
    /// zero-filled up to the last bucket that saw any message.
    pub fn tier_series(&self, tier: Tier) -> Vec<TierTraffic> {
        self.series.iter().map(|b| b[tier.index()]).collect()
    }

    /// Time series of the top switch only, the quantity plotted by
    /// Figures 4 and 6.
    pub fn top_switch_series(&self) -> Vec<TierTraffic> {
        self.tier_series(Tier::Top)
    }

    /// Grand total over every switch and class.
    pub fn grand_total(&self) -> TrafficUnits {
        self.tier_totals.iter().map(TierTraffic::total).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_account() -> TrafficAccount {
        TrafficAccount::new(NetworkModel::infinite())
    }

    fn cross_cluster_path() -> Vec<Switch> {
        vec![
            Switch::Rack(0),
            Switch::Intermediate(0),
            Switch::Top,
            Switch::Intermediate(1),
            Switch::Rack(5),
        ]
    }

    #[test]
    fn record_accumulates_per_tier_and_switch() {
        let mut acc = unit_account();
        acc.record(
            &cross_cluster_path(),
            MessageClass::Application,
            SimTime::ZERO,
        );
        acc.record(&[Switch::Rack(0)], MessageClass::Protocol, SimTime::ZERO);

        assert_eq!(acc.message_count(), 2);
        assert_eq!(acc.tier_total(Tier::Top).application, 10);
        assert_eq!(acc.tier_total(Tier::Top).protocol, 0);
        // Two intermediate switches were crossed by the application message.
        assert_eq!(acc.tier_total(Tier::Intermediate).application, 20);
        assert_eq!(acc.tier_total(Tier::Rack).application, 20);
        assert_eq!(acc.tier_total(Tier::Rack).protocol, 1);
        assert_eq!(acc.grand_total(), 51);
    }

    #[test]
    fn local_messages_cost_nothing() {
        let mut acc = unit_account();
        acc.record(&[], MessageClass::Application, SimTime::ZERO);
        assert_eq!(acc.message_count(), 0);
        assert_eq!(acc.grand_total(), 0);
    }

    #[test]
    fn series_is_bucketed_by_time() {
        let mut acc = unit_account();
        for (secs, class) in [
            (1_800, MessageClass::Application),
            (HOUR_SECS, MessageClass::Application),
            (5_700, MessageClass::Protocol),
            (3 * HOUR_SECS - 1, MessageClass::Protocol),
        ] {
            acc.record(&[Switch::Top], class, SimTime::from_secs(secs));
        }
        // One bucket per hour, quiet hours included.
        let series = acc.top_switch_series();
        assert_eq!(series.len(), 3);
        assert_eq!(series[0].application, 10);
        assert_eq!(series[1].application, 10);
        assert_eq!(series[1].protocol, 1);
        assert_eq!(series[2].protocol, 1);
    }

    #[test]
    fn tier_average_divides_by_switch_count() {
        let mut acc = unit_account();
        acc.record(
            &cross_cluster_path(),
            MessageClass::Application,
            SimTime::ZERO,
        );
        // 20 units over 2 intermediate switches observed, but the cluster has
        // 5 intermediate switches in total.
        assert!((acc.tier_average(Tier::Intermediate, 5) - 4.0).abs() < 1e-9);
        assert_eq!(acc.tier_average(Tier::Top, 0), 0.0);
    }

    #[test]
    fn infinite_model_keeps_unit_accounting_byte_identical() {
        let mut plain = unit_account();
        let mut modelled = unit_account();
        for t in [0u64, 30, 4_000] {
            plain.record(
                &cross_cluster_path(),
                MessageClass::Application,
                SimTime::from_secs(t),
            );
            let latency = modelled.record_timed(
                &cross_cluster_path(),
                MessageClass::Application,
                SimTime::from_secs(t),
            );
            assert_eq!(latency, Latency::ZERO);
        }
        assert_eq!(plain, modelled);
        assert_eq!(modelled.max_queue_delay(), Latency::ZERO);
        assert_eq!(modelled.max_switch_backlog(), 0);
        assert_eq!(
            modelled.queued_delay(Switch::Top, SimTime::ZERO),
            Latency::ZERO
        );
    }

    #[test]
    fn finite_model_charges_queues_deterministically() {
        // 1 unit takes 1 ms at every tier; 1 µs per hop.
        let model = NetworkModel {
            top_service: dynasore_types::Bandwidth::units_per_sec(1_000),
            intermediate_service: dynasore_types::Bandwidth::units_per_sec(1_000),
            rack_service: dynasore_types::Bandwidth::units_per_sec(1_000),
            hop_latency: Latency::from_micros(1),
            collapse_threshold: Latency::from_secs(1),
        };
        let mut acc = TrafficAccount::new(model);
        // First protocol message through an idle top switch: 1 hop latency
        // plus 1 unit × 1 ms service, no wait.
        let first = acc.record_timed(&[Switch::Top], MessageClass::Protocol, SimTime::ZERO);
        assert_eq!(first, Latency::from_nanos(1_000 + 1_000_000));
        // Second message at the same instant queues behind the first: its
        // arrival (after the hop) is at 1 µs, the switch is busy until
        // 1 001 µs, so it waits exactly one service quantum.
        let second = acc.record_timed(&[Switch::Top], MessageClass::Protocol, SimTime::ZERO);
        assert_eq!(second, Latency::from_nanos(1_000 + 1_000_000 + 1_000_000));
        assert_eq!(acc.max_queue_delay(), Latency::from_millis(1));
        assert_eq!(acc.max_switch_backlog(), 1); // one full unit was queued
        assert!(acc.queued_delay(Switch::Top, SimTime::ZERO) > Latency::ZERO);
        // After the queue drained (2 ms of work, ask at t=1s) delay is zero.
        assert_eq!(
            acc.queued_delay(Switch::Top, SimTime::from_secs(1)),
            Latency::ZERO
        );
        // Unit totals are charged exactly as in unit mode.
        assert_eq!(acc.tier_total(Tier::Top).protocol, 2);
        assert_eq!(acc.message_count(), 2);
        // Determinism: an identical replay produces an identical account.
        let mut replay = TrafficAccount::new(model);
        replay.record_timed(&[Switch::Top], MessageClass::Protocol, SimTime::ZERO);
        replay.record_timed(&[Switch::Top], MessageClass::Protocol, SimTime::ZERO);
        assert_eq!(acc, replay);
    }

    #[test]
    fn upstream_congestion_delays_downstream_arrival() {
        // Rack switch is slow (1 unit = 1 s), top switch is fast. A message
        // crossing rack → top arrives at the top only after the rack's
        // service completes, so a message right behind it on the same rack
        // still finds the top switch idle.
        let model = NetworkModel {
            top_service: dynasore_types::Bandwidth::units_per_sec(1_000_000),
            intermediate_service: dynasore_types::Bandwidth::INFINITE,
            rack_service: dynasore_types::Bandwidth::units_per_sec(1),
            hop_latency: Latency::ZERO,
            collapse_threshold: Latency::from_secs(1),
        };
        let mut acc = TrafficAccount::new(model);
        let path = [Switch::Rack(0), Switch::Top];
        let first = acc.record_timed(&path, MessageClass::Protocol, SimTime::ZERO);
        // 1 s rack service + 1 µs top service.
        assert_eq!(first, Latency::from_nanos(NANOS_PER_SEC + 1_000));
        let second = acc.record_timed(&path, MessageClass::Protocol, SimTime::ZERO);
        // Waits 1 s behind the first at the rack, transmits for 1 s, then
        // reaches the top at t=2s — after the first cleared it: no top wait.
        assert_eq!(second, Latency::from_nanos(2 * NANOS_PER_SEC + 1_000));
        assert_eq!(acc.max_switch_backlog(), 1);
    }

    #[test]
    fn tier_traffic_total() {
        let t = TierTraffic {
            application: 30,
            protocol: 4,
        };
        assert_eq!(t.total(), 34);
        assert_eq!(TierTraffic::default().total(), 0);
    }
}
