//! The time-aware network model: latencies, switch service rates and the
//! fixed-footprint histogram the simulator uses for latency percentiles.
//!
//! The paper reports placement quality as *traffic units per switch*; this
//! module adds the time dimension so the same message streams can also be
//! read as *latency*. Every switch is modelled as a deterministic
//! single-server queue (M/D/1-style: deterministic service at the switch's
//! rate, arrivals given by the trace): a message of `u` units arriving at a
//! switch waits for the queued work ahead of it, then occupies the switch
//! for `u / service_rate` seconds. Queues drain deterministically as
//! simulated time advances, so two runs with the same seed observe the same
//! waits — latency is as reproducible as the traffic totals.
//!
//! The degenerate [`NetworkModel::infinite`] model (infinite service rates,
//! zero hop latency) is the classic unit-count mode: queues never build up,
//! every latency sample is zero and traffic accounting is byte-identical to
//! a model-free account.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Nanoseconds per second, the base resolution of [`Latency`].
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// A network latency (or queueing delay), measured in whole nanoseconds.
///
/// Stored as an integer so latency arithmetic is exact and deterministic —
/// percentile reports must be byte-identical across runs with the same seed.
///
/// # Example
///
/// ```
/// use dynasore_types::Latency;
///
/// let l = Latency::from_micros(5) + Latency::from_nanos(250);
/// assert_eq!(l.as_nanos(), 5_250);
/// assert_eq!(l.to_string(), "5.250us");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Latency(u64);

impl Latency {
    /// Zero latency (local delivery, or the infinite-capacity model).
    pub const ZERO: Latency = Latency(0);

    /// Creates a latency from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        Latency(nanos)
    }

    /// Creates a latency from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Latency(micros * 1_000)
    }

    /// Creates a latency from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Latency(millis * 1_000_000)
    }

    /// Creates a latency from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Latency(secs * NANOS_PER_SEC)
    }

    /// This latency in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This latency in (fractional) seconds, for human-facing reports.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Saturating difference of two latencies.
    pub fn saturating_sub(self, other: Latency) -> Latency {
        Latency(self.0.saturating_sub(other.0))
    }
}

impl Add for Latency {
    type Output = Latency;

    fn add(self, rhs: Latency) -> Latency {
        Latency(self.0 + rhs.0)
    }
}

impl AddAssign for Latency {
    fn add_assign(&mut self, rhs: Latency) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for Latency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{}.{:03}us", ns / 1_000, ns % 1_000)
        } else if ns < NANOS_PER_SEC {
            write!(f, "{}.{:03}ms", ns / 1_000_000, (ns / 1_000) % 1_000)
        } else {
            write!(f, "{}.{:03}s", ns / NANOS_PER_SEC, (ns / 1_000_000) % 1_000)
        }
    }
}

/// A switch (or link) service rate, in traffic units per second.
///
/// Traffic units are the paper's abstract message sizes (an application
/// message is 10 units, a protocol message 1 unit); calibrating one unit to
/// ≈1 KB makes a 10 Gb/s rack switch about 1.25 million units per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Infinite service rate: messages pass through without queueing or
    /// transmission delay. The sentinel of the unit-count degenerate model.
    pub const INFINITE: Bandwidth = Bandwidth(u64::MAX);

    /// Creates a service rate from traffic units per second.
    ///
    /// # Panics
    ///
    /// Panics on a zero rate — a switch that never drains is a configuration
    /// error, not a model.
    pub fn units_per_sec(rate: u64) -> Self {
        assert!(rate > 0, "service rate must be positive");
        Bandwidth(rate)
    }

    /// The rate in traffic units per second ([`u64::MAX`] when infinite).
    pub const fn as_units_per_sec(self) -> u64 {
        self.0
    }

    /// Whether this is the infinite-rate sentinel.
    pub const fn is_infinite(self) -> bool {
        self.0 == u64::MAX
    }

    /// Nanoseconds a single traffic unit occupies the switch: the service
    /// time quantum of the deterministic queue. Zero only for the
    /// [`Bandwidth::INFINITE`] sentinel.
    ///
    /// Finite rates are quantized to the nearest whole nanosecond per unit
    /// and never below 1 ns, so a finite model always keeps its queue
    /// bookkeeping: rates above ~10⁹ units/s behave as 10⁹ units/s (a
    /// calibration that coarse should use larger traffic units instead).
    pub const fn ns_per_unit(self) -> u64 {
        if self.is_infinite() {
            0
        } else {
            let rounded = (NANOS_PER_SEC + self.0 / 2) / self.0;
            if rounded == 0 {
                1
            } else {
                rounded
            }
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            write!(f, "inf")
        } else {
            write!(f, "{}u/s", self.0)
        }
    }
}

/// The time model of the switch tree: per-tier service rates, a fixed
/// per-hop forwarding latency, and the queueing-delay threshold past which a
/// run is declared congestion-collapsed.
///
/// The three tiers follow the paper's tree (§2.1): rack (edge) switches,
/// intermediate switches, and the core (top) switch. Capacity normally grows
/// up the tree, mirroring real data-centre fabrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetworkModel {
    /// Service rate of the top (core) switch.
    pub top_service: Bandwidth,
    /// Service rate of each intermediate switch.
    pub intermediate_service: Bandwidth,
    /// Service rate of each rack (edge) switch.
    pub rack_service: Bandwidth,
    /// Fixed forwarding latency added per switch hop (propagation plus
    /// lookup), independent of load.
    pub hop_latency: Latency,
    /// A switch whose queue ever holds more than this much drain time is
    /// congestion-collapsed: arrivals outpaced service for long enough that
    /// waiting times stop being meaningful.
    pub collapse_threshold: Latency,
}

impl NetworkModel {
    /// The degenerate unit-count model: infinite service rates and zero hop
    /// latency. Queues never build, every latency sample is zero, and
    /// traffic accounting is byte-identical to a model-free account. This is
    /// the default everywhere, so existing experiments keep their exact
    /// semantics.
    pub const fn infinite() -> Self {
        NetworkModel {
            top_service: Bandwidth::INFINITE,
            intermediate_service: Bandwidth::INFINITE,
            rack_service: Bandwidth::INFINITE,
            hop_latency: Latency::ZERO,
            collapse_threshold: Latency::from_secs(1),
        }
    }

    /// A data-centre-flavoured default, calibrated at one traffic unit ≈
    /// 1 KB: 10 Gb/s rack switches (1.25 M units/s), 40 Gb/s intermediates,
    /// 100 Gb/s core, 5 µs per hop, collapse at one second of queued work.
    pub fn datacenter() -> Self {
        NetworkModel {
            top_service: Bandwidth::units_per_sec(12_500_000),
            intermediate_service: Bandwidth::units_per_sec(5_000_000),
            rack_service: Bandwidth::units_per_sec(1_250_000),
            hop_latency: Latency::from_micros(5),
            collapse_threshold: Latency::from_secs(1),
        }
    }

    /// Whether this is the degenerate unit-count model.
    pub fn is_infinite(&self) -> bool {
        self.top_service.is_infinite()
            && self.intermediate_service.is_infinite()
            && self.rack_service.is_infinite()
            && self.hop_latency == Latency::ZERO
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::infinite()
    }
}

/// Number of buckets in a [`LatencyHistogram`]: 8 exact low buckets plus
/// 8 sub-buckets per power of two up to `u64::MAX` nanoseconds.
const HISTOGRAM_BUCKETS: usize = 512;

/// A fixed-footprint log-scale latency histogram (HDR-histogram style:
/// 3 significant bits per power of two, ≤ 12.5% relative bucket width).
///
/// Recording is O(1) with no allocation, so the simulator can take one
/// sample per request on the zero-allocation hot path; percentiles are read
/// at report time as the upper bound of the bucket containing the requested
/// rank.
///
/// # Example
///
/// ```
/// use dynasore_types::{Latency, LatencyHistogram};
///
/// let mut h = LatencyHistogram::new();
/// for us in 1..=100 {
///     h.record(Latency::from_micros(us));
/// }
/// assert_eq!(h.len(), 100);
/// assert!(h.percentile(0.50) >= Latency::from_micros(50));
/// assert!(h.percentile(0.50) <= Latency::from_micros(57)); // ≤12.5% over
/// assert_eq!(h.max(), Latency::from_micros(100));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    total: u64,
    max: Latency,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: [0; HISTOGRAM_BUCKETS],
            total: 0,
            max: Latency::ZERO,
        }
    }

    fn bucket_of(nanos: u64) -> usize {
        if nanos < 8 {
            nanos as usize
        } else {
            let log2 = 63 - nanos.leading_zeros() as u64; // ≥ 3
            let minor = (nanos >> (log2 - 3)) & 0b111;
            ((log2 - 3) * 8 + 8 + minor) as usize
        }
    }

    /// Upper bound of a bucket: the largest nanosecond value mapping to it.
    fn bucket_upper_bound(bucket: usize) -> u64 {
        if bucket < 8 {
            bucket as u64
        } else {
            let log2 = (bucket as u64 - 8) / 8 + 3;
            let minor = (bucket as u64 - 8) % 8;
            let low = (1u64 << log2) + minor * (1u64 << (log2 - 3));
            low + (1u64 << (log2 - 3)) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, latency: Latency) {
        self.counts[Self::bucket_of(latency.as_nanos())] += 1;
        self.total += 1;
        if latency > self.max {
            self.max = latency;
        }
    }

    /// Number of samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether no sample was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The exact maximum sample (not bucketed). Zero when empty.
    pub fn max(&self) -> Latency {
        self.max
    }

    /// The latency below which a fraction `p` in `[0, 1]` of the samples
    /// fall, reported as the upper bound of the bucket containing that rank
    /// (≤ 12.5% above the true value). Zero when the histogram is empty.
    pub fn percentile(&self, p: f64) -> Latency {
        if self.total == 0 {
            return Latency::ZERO;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                // Never report past the true maximum.
                return Latency::from_nanos(Self::bucket_upper_bound(bucket)).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl fmt::Debug for LatencyHistogram {
    /// Compact rendering: the 512 raw buckets would drown every report
    /// debug dump, so print the derived quantities (which still pin the
    /// byte-identity of two runs — equal histograms render equally, and
    /// diverging ones differ in at least count/percentile/max).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("samples", &self.total)
            .field("p50", &self.percentile(0.50))
            .field("p95", &self.percentile(0.95))
            .field("p99", &self.percentile(0.99))
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_construction_and_arithmetic() {
        assert_eq!(Latency::from_secs(1).as_nanos(), NANOS_PER_SEC);
        assert_eq!(Latency::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(Latency::from_micros(3).as_nanos(), 3_000);
        let mut l = Latency::from_nanos(5) + Latency::from_nanos(7);
        l += Latency::from_nanos(1);
        assert_eq!(l.as_nanos(), 13);
        assert_eq!(
            Latency::from_nanos(5).saturating_sub(Latency::from_nanos(9)),
            Latency::ZERO
        );
        assert!((Latency::from_millis(1).as_secs_f64() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn latency_display_scales_units() {
        assert_eq!(Latency::from_nanos(999).to_string(), "999ns");
        assert_eq!(Latency::from_nanos(5_250).to_string(), "5.250us");
        assert_eq!(Latency::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(Latency::from_millis(2_030).to_string(), "2.030s");
    }

    #[test]
    fn bandwidth_service_quantum() {
        assert_eq!(Bandwidth::units_per_sec(1_000).ns_per_unit(), 1_000_000);
        assert_eq!(Bandwidth::INFINITE.ns_per_unit(), 0);
        assert!(Bandwidth::INFINITE.is_infinite());
        assert!(!Bandwidth::units_per_sec(5).is_infinite());
        // Finite rates never quantize to a zero service time: a finite
        // model must keep its queue bookkeeping.
        assert_eq!(Bandwidth::units_per_sec(2_000_000_000).ns_per_unit(), 1);
        assert_eq!(Bandwidth::units_per_sec(u64::MAX - 1).ns_per_unit(), 1);
        // In-between rates round to nearest rather than truncating.
        assert_eq!(Bandwidth::units_per_sec(600_000_000).ns_per_unit(), 2);
        assert_eq!(Bandwidth::units_per_sec(7).to_string(), "7u/s");
        assert_eq!(Bandwidth::INFINITE.to_string(), "inf");
    }

    #[test]
    #[should_panic(expected = "service rate must be positive")]
    fn zero_bandwidth_is_rejected() {
        Bandwidth::units_per_sec(0);
    }

    #[test]
    fn model_infinite_and_datacenter() {
        let inf = NetworkModel::infinite();
        assert!(inf.is_infinite());
        assert_eq!(NetworkModel::default(), inf);
        let dc = NetworkModel::datacenter();
        assert!(!dc.is_infinite());
        assert!(dc.top_service > dc.intermediate_service);
        assert!(dc.intermediate_service > dc.rack_service);
        // A nonzero hop latency alone makes the model finite.
        let mut hop_only = NetworkModel::infinite();
        hop_only.hop_latency = Latency::from_micros(1);
        assert!(!hop_only.is_infinite());
    }

    #[test]
    fn histogram_buckets_are_exact_below_16ns() {
        for ns in 0..16u64 {
            assert_eq!(
                LatencyHistogram::bucket_upper_bound(LatencyHistogram::bucket_of(ns)),
                ns
            );
        }
    }

    #[test]
    fn histogram_bucket_bounds_are_consistent() {
        // Every bucket's upper bound maps back to the same bucket, and the
        // next nanosecond maps to the next bucket.
        for ns in [
            1u64,
            7,
            8,
            15,
            16,
            100,
            1_000,
            4_095,
            1 << 20,
            123_456_789,
            u64::MAX / 2,
        ] {
            let b = LatencyHistogram::bucket_of(ns);
            let hi = LatencyHistogram::bucket_upper_bound(b);
            assert!(hi >= ns, "upper bound below sample for {ns}");
            assert_eq!(LatencyHistogram::bucket_of(hi), b, "bound moved bucket");
            // ≤12.5% relative width.
            assert!(
                hi as f64 <= ns as f64 * 1.125 + 1.0,
                "bucket too wide at {ns}"
            );
        }
    }

    #[test]
    fn histogram_percentiles_bound_the_true_rank() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1_000u64 {
            h.record(Latency::from_micros(us));
        }
        assert_eq!(h.len(), 1_000);
        assert!(!h.is_empty());
        for (p, true_value) in [(0.50, 500_000u64), (0.95, 950_000), (0.99, 990_000)] {
            let got = h.percentile(p).as_nanos();
            assert!(got >= true_value, "p{p}: {got} < {true_value}");
            assert!(
                got as f64 <= true_value as f64 * 1.125,
                "p{p}: {got} too far above {true_value}"
            );
        }
        assert_eq!(h.percentile(1.0), Latency::from_micros(1_000));
        assert_eq!(h.max(), Latency::from_micros(1_000));
        assert_eq!(LatencyHistogram::new().percentile(0.5), Latency::ZERO);
    }

    #[test]
    fn histogram_merge_combines_samples() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Latency::from_micros(10));
        b.record(Latency::from_micros(20));
        b.record(Latency::from_micros(30));
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.max(), Latency::from_micros(30));
        let mut all = LatencyHistogram::new();
        all.record(Latency::from_micros(10));
        all.record(Latency::from_micros(20));
        all.record(Latency::from_micros(30));
        assert_eq!(a, all);
    }

    #[test]
    fn histogram_debug_is_compact() {
        let mut h = LatencyHistogram::new();
        h.record(Latency::from_micros(5));
        let dbg = format!("{h:?}");
        assert!(dbg.contains("samples: 1"), "{dbg}");
        assert!(!dbg.contains("counts"), "{dbg}");
    }
}
