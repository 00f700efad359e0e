//! Diurnal (Yahoo!-News-Activity-like) trace generator.
//!
//! The real trace used in §4.2 is proprietary. Its properties, as reported
//! by the paper, are: 2.5 M users, 17 M writes and 9.8 M reads over two
//! weeks (writes dominate because many reads happen on Facebook and bypass
//! the logging), a pronounced daily activity cycle (Figure 2), and user
//! activity mapped to the Facebook graph by degree rank. This generator
//! reproduces those properties synthetically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dynasore_graph::{metrics::log_activity_weight, SocialGraph};
use dynasore_types::{Error, Result, SimTime, DAY_SECS};

use crate::request::Request;
use crate::sampler::WeightedSampler;

/// Length of the paper's trace sample, in days (§4.2).
const PAPER_DAYS: u64 = 14;

/// Average number of requests (reads + writes) per user per day: the
/// paper's sample has (17 M + 9.8 M) / 2.5 M / 14 ≈ 0.77 (§4.2).
const EVENTS_PER_USER_PER_DAY: f64 = 0.77;

/// Fraction of requests that are reads: 9.8 M of 26.8 M in the paper's
/// sample, so writes dominate (§4.2).
const READ_FRACTION: f64 = 9.8 / 26.8;

/// Ratio between the busiest and the quietest moment of a day: the
/// activity rate follows a raised cosine with this peak-to-trough ratio
/// (reproduction choice, read off the shape of Figure 2).
const PEAK_TO_TROUGH: f64 = 3.0;

/// Relative day-to-day jitter of the total volume, ±15 % (reproduction
/// choice).
const DAILY_JITTER: f64 = 0.15;

/// Streaming generator of a diurnal, write-heavy trace standing in for the
/// Yahoo! News Activity log.
///
/// Unlike the uniform synthetic log, request timestamps are drawn from a
/// non-homogeneous process whose intensity follows a day/night cycle, so the
/// per-hour request count reproduces the shape of Figure 2 of the paper.
///
/// # Example
///
/// ```
/// use dynasore_graph::{GraphPreset, SocialGraph};
/// use dynasore_workload::DiurnalTraceGenerator;
///
/// let g = SocialGraph::generate(GraphPreset::FacebookLike, 300, 2).unwrap();
/// let trace = DiurnalTraceGenerator::new(&g, 2, 5).unwrap();
/// let requests: Vec<_> = trace.collect();
/// assert!(!requests.is_empty());
/// // Writes dominate, as in the Yahoo! News Activity sample.
/// let writes = requests.iter().filter(|r| !r.is_read()).count();
/// assert!(writes * 2 > requests.len());
/// ```
#[derive(Debug, Clone)]
pub struct DiurnalTraceGenerator {
    rng: StdRng,
    sampler: WeightedSampler,
    /// Precomputed per-day total request counts (jittered).
    daily_requests: Vec<u64>,
    day: usize,
    emitted_today: u64,
    duration_secs: u64,
}

impl DiurnalTraceGenerator {
    /// Creates a generator of `days` days over `graph`.
    ///
    /// Per-user activity is proportional to `ln(1 + degree)`, mirroring the
    /// paper's mapping of trace users to graph users by degree rank: the
    /// most active trace users are attached to the best-connected graph
    /// users.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `days` is zero or the graph is
    /// empty.
    pub fn new(graph: &SocialGraph, days: u64, seed: u64) -> Result<Self> {
        if days == 0 {
            return Err(Error::invalid_config("trace must last at least one day"));
        }
        if graph.user_count() == 0 {
            return Err(Error::invalid_config(
                "cannot generate traffic for an empty graph",
            ));
        }
        let weights: Vec<f64> = graph
            .users()
            .map(|u| log_activity_weight(graph.in_degree(u) + graph.out_degree(u)).max(0.05))
            .collect();
        let sampler = WeightedSampler::new(weights)
            .ok_or_else(|| Error::invalid_config("degenerate activity weights"))?;

        let mut rng = StdRng::seed_from_u64(seed);
        let base = EVENTS_PER_USER_PER_DAY * graph.user_count() as f64;
        let daily_requests: Vec<u64> = (0..days)
            .map(|_| {
                let jitter = 1.0 + rng.gen_range(-DAILY_JITTER..=DAILY_JITTER);
                (base * jitter).round().max(1.0) as u64
            })
            .collect();

        Ok(DiurnalTraceGenerator {
            rng,
            sampler,
            daily_requests,
            day: 0,
            emitted_today: 0,
            duration_secs: days * DAY_SECS,
        })
    }

    /// Creates a generator as long as the paper's sample (14 days).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the graph is empty.
    pub fn paper_defaults(graph: &SocialGraph, seed: u64) -> Result<Self> {
        DiurnalTraceGenerator::new(graph, PAPER_DAYS, seed)
    }

    /// Total number of requests across the whole trace.
    pub fn request_count(&self) -> u64 {
        self.daily_requests.iter().sum()
    }

    /// Trace duration in seconds.
    pub fn duration_secs(&self) -> u64 {
        self.duration_secs
    }
}

/// Maps a uniform position `q ∈ [0, 1)` within a day to a second of the
/// day, following the diurnal intensity profile (inverse-CDF of a raised
/// cosine). Busier hours receive proportionally more requests.
fn diurnal_second(q: f64) -> u64 {
    // Intensity λ(x) ∝ 1 + a·cos(2π(x - peak)), with `a` derived from the
    // peak-to-trough ratio and the peak in the evening (x=0.8).
    let p = PEAK_TO_TROUGH;
    let a = (p - 1.0) / (p + 1.0);
    // Invert the CDF numerically with a small fixed-point iteration; the
    // CDF is F(x) = x + (a / 2π)·(sin(2π(x - peak)) + sin(2π·peak)).
    let peak = 0.8;
    let two_pi = std::f64::consts::TAU;
    let cdf = |x: f64| x + a / two_pi * ((two_pi * (x - peak)).sin() + (two_pi * peak).sin());
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    for _ in 0..30 {
        let mid = (lo + hi) / 2.0;
        if cdf(mid) < q {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    ((lo + hi) / 2.0 * DAY_SECS as f64) as u64
}

impl Iterator for DiurnalTraceGenerator {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        while self.day < self.daily_requests.len()
            && self.emitted_today >= self.daily_requests[self.day]
        {
            self.day += 1;
            self.emitted_today = 0;
        }
        if self.day >= self.daily_requests.len() {
            return None;
        }
        let today_total = self.daily_requests[self.day];
        // Position within the day, mapped through the diurnal profile. Using
        // the sequential index keeps output time-ordered.
        let q = (self.emitted_today as f64 + 0.5) / today_total as f64;
        let second_of_day = diurnal_second(q);
        let time = SimTime::from_secs(self.day as u64 * DAY_SECS + second_of_day);
        self.emitted_today += 1;

        let user = self.sampler.sample(&mut self.rng);
        let request = if self.rng.gen_bool(READ_FRACTION) {
            Request::read(time, user)
        } else {
            Request::write(time, user)
        };
        Some(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_graph::GraphPreset;
    use dynasore_types::{UserId, HOUR_SECS};

    fn graph() -> SocialGraph {
        SocialGraph::generate(GraphPreset::FacebookLike, 200, 3).unwrap()
    }

    /// The Yahoo!-like stand-in pinned: counts, first and last request,
    /// recorded while its rates were still options.
    #[test]
    fn paper_defaults_are_golden() {
        let g = SocialGraph::generate(GraphPreset::FacebookLike, 300, 7).unwrap();
        let requests: Vec<_> = DiurnalTraceGenerator::paper_defaults(&g, 42)
            .unwrap()
            .collect();
        assert_eq!(requests.len(), 3_318);
        assert_eq!(requests.iter().filter(|r| r.is_read()).count(), 1_242);
        assert_eq!(
            requests[0],
            Request::write(SimTime::from_secs(148), UserId::new(121))
        );
        assert_eq!(
            requests[requests.len() - 1],
            Request::write(SimTime::from_secs(1_209_414), UserId::new(147))
        );
    }

    #[test]
    fn config_validation() {
        assert!(DiurnalTraceGenerator::new(&graph(), 0, 1).is_err());
        assert!(DiurnalTraceGenerator::paper_defaults(&SocialGraph::new(0), 1).is_err());
    }

    #[test]
    fn volume_and_duration_match_config() {
        let g = graph();
        let gen = DiurnalTraceGenerator::new(&g, 3, 1).unwrap();
        let expected = gen.request_count();
        assert_eq!(gen.duration_secs(), 3 * DAY_SECS);
        let requests: Vec<_> = gen.collect();
        assert_eq!(requests.len() as u64, expected);
        // 200 users × 0.77 events × 3 days ≈ 462 (±15% jitter/day).
        assert!(requests.len() > 390 && requests.len() < 535);
        assert!(requests.iter().all(|r| r.time.as_secs() < 3 * DAY_SECS));
    }

    #[test]
    fn writes_dominate() {
        let g = graph();
        let requests: Vec<_> = DiurnalTraceGenerator::paper_defaults(&g, 2)
            .unwrap()
            .collect();
        let writes = requests.iter().filter(|r| !r.is_read()).count();
        let fraction = writes as f64 / requests.len() as f64;
        assert!(
            (fraction - (1.0 - 9.8 / 26.8)).abs() < 0.08,
            "write fraction {fraction}"
        );
    }

    #[test]
    fn requests_are_time_ordered() {
        let g = graph();
        let gen = DiurnalTraceGenerator::new(&g, 2, 3).unwrap();
        let mut last = SimTime::ZERO;
        for r in gen {
            assert!(r.time >= last, "time went backwards");
            last = r.time;
        }
    }

    #[test]
    fn traffic_has_a_daily_cycle() {
        // Fourteen days folded onto one: ≈ 90 requests per hour of the day.
        let gen = DiurnalTraceGenerator::paper_defaults(&graph(), 4).unwrap();
        let mut hourly = [0u64; 24];
        for r in gen {
            hourly[(r.time.as_secs() % DAY_SECS / HOUR_SECS) as usize] += 1;
        }
        let max = *hourly.iter().max().unwrap();
        let min = *hourly.iter().filter(|&&h| h > 0).min().unwrap();
        assert!(
            max as f64 >= 1.8 * min as f64,
            "expected pronounced diurnal cycle, got max={max} min={min}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = graph();
        let a: Vec<_> = DiurnalTraceGenerator::new(&g, 1, 5).unwrap().collect();
        let b: Vec<_> = DiurnalTraceGenerator::new(&g, 1, 5).unwrap().collect();
        assert_eq!(a, b);
    }
}
