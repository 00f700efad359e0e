//! Synthetic request log following the paper's recipe (§4.2).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dynasore_graph::{metrics::log_activity_weight, SocialGraph};
use dynasore_types::{Error, Result, SimTime, DAY_SECS};

use crate::request::Request;
use crate::sampler::WeightedSampler;

/// Average number of writes each user issues per day: the paper assumes one
/// (§4.2).
const WRITES_PER_USER_PER_DAY: f64 = 1.0;

/// Parameters of the synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Duration of the trace in days.
    pub days: u64,
    /// Global ratio of reads to writes (the paper assumes 4).
    pub read_write_ratio: f64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            days: 1,
            read_write_ratio: 4.0,
        }
    }
}

impl SyntheticConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any parameter is non-positive.
    pub fn validate(&self) -> Result<()> {
        if self.days == 0 {
            return Err(Error::invalid_config("trace must last at least one day"));
        }
        if self.read_write_ratio <= 0.0 {
            return Err(Error::invalid_config("read_write_ratio must be positive"));
        }
        Ok(())
    }
}

/// Streaming generator of the synthetic request log.
///
/// Requests are spread evenly over the trace duration; each request is a
/// write with probability `1 / (1 + read_write_ratio)`, otherwise a read.
/// Writers are drawn proportionally to `ln(1 + in-degree)` (popular users
/// post more), readers proportionally to `ln(1 + out-degree)` (users who
/// follow many people consult their feed more often), following the
/// log-degree activity model of Huberman et al. adopted by the paper.
///
/// # Example
///
/// ```
/// use dynasore_graph::{GraphPreset, SocialGraph};
/// use dynasore_workload::SyntheticTraceGenerator;
///
/// let g = SocialGraph::generate(GraphPreset::TwitterLike, 200, 1).unwrap();
/// let trace = SyntheticTraceGenerator::paper_defaults(&g, 1, 7).unwrap();
/// let requests: Vec<_> = trace.collect();
/// // About 5 requests per user per day (1 write + 4 reads).
/// assert!(requests.len() > 600 && requests.len() < 1_400);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticTraceGenerator {
    rng: StdRng,
    read_sampler: WeightedSampler,
    write_sampler: WeightedSampler,
    write_probability: f64,
    total_requests: u64,
    emitted: u64,
    duration_secs: u64,
}

impl SyntheticTraceGenerator {
    /// Creates a generator with explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the configuration is invalid or
    /// the graph is empty.
    pub fn new(graph: &SocialGraph, config: SyntheticConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        let n = graph.user_count();
        if n == 0 {
            return Err(Error::invalid_config(
                "cannot generate traffic for an empty graph",
            ));
        }

        let write_weights: Vec<f64> = graph
            .users()
            .map(|u| log_activity_weight(graph.in_degree(u)).max(0.05))
            .collect();
        let read_weights: Vec<f64> = graph
            .users()
            .map(|u| log_activity_weight(graph.out_degree(u)).max(0.05))
            .collect();
        let write_sampler = WeightedSampler::new(write_weights)
            .ok_or_else(|| Error::invalid_config("degenerate write weights"))?;
        let read_sampler = WeightedSampler::new(read_weights)
            .ok_or_else(|| Error::invalid_config("degenerate read weights"))?;

        let writes_total = WRITES_PER_USER_PER_DAY * n as f64 * config.days as f64;
        let total_requests = (writes_total * (1.0 + config.read_write_ratio)).round() as u64;
        let write_probability = 1.0 / (1.0 + config.read_write_ratio);

        Ok(SyntheticTraceGenerator {
            rng: StdRng::seed_from_u64(seed),
            read_sampler,
            write_sampler,
            write_probability,
            total_requests: total_requests.max(1),
            emitted: 0,
            duration_secs: config.days * DAY_SECS,
        })
    }

    /// Creates a generator with the paper's default parameters (1 write per
    /// user per day, 4 reads per write) lasting `days` days.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the graph is empty or `days` is
    /// zero.
    pub fn paper_defaults(graph: &SocialGraph, days: u64, seed: u64) -> Result<Self> {
        SyntheticTraceGenerator::new(
            graph,
            SyntheticConfig {
                days,
                ..SyntheticConfig::default()
            },
            seed,
        )
    }

    /// Total number of requests this generator will produce.
    pub fn request_count(&self) -> u64 {
        self.total_requests
    }

    /// Trace duration in seconds.
    pub fn duration_secs(&self) -> u64 {
        self.duration_secs
    }
}

impl Iterator for SyntheticTraceGenerator {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.emitted >= self.total_requests {
            return None;
        }
        // Requests are evenly distributed over the duration.
        let time_secs = (self.emitted as u128 * self.duration_secs as u128
            / self.total_requests as u128) as u64;
        let time = SimTime::from_secs(time_secs);
        self.emitted += 1;
        let request = if self.rng.gen_bool(self.write_probability) {
            Request::write(time, self.write_sampler.sample(&mut self.rng))
        } else {
            Request::read(time, self.read_sampler.sample(&mut self.rng))
        };
        Some(request)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.total_requests - self.emitted) as usize;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for SyntheticTraceGenerator {}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_graph::GraphPreset;
    use dynasore_types::{Operation, UserId};

    fn graph() -> SocialGraph {
        SocialGraph::generate(GraphPreset::TwitterLike, 300, 5).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(SyntheticConfig::default().validate().is_ok());
        assert!(SyntheticConfig {
            days: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SyntheticConfig {
            read_write_ratio: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SyntheticTraceGenerator::paper_defaults(&SocialGraph::new(0), 1, 1).is_err());
    }

    /// The paper's §4.2 log (one write per user per day, four reads per
    /// write) pinned: counts, first and last request, recorded while the
    /// write rate was still an option.
    #[test]
    fn paper_defaults_are_golden() {
        let g = SocialGraph::generate(GraphPreset::FacebookLike, 300, 7).unwrap();
        let requests: Vec<_> = SyntheticTraceGenerator::paper_defaults(&g, 2, 42)
            .unwrap()
            .collect();
        assert_eq!(requests.len(), 3_000);
        assert_eq!(requests.iter().filter(|r| r.is_read()).count(), 2_428);
        assert_eq!(requests[0], Request::read(SimTime::ZERO, UserId::new(97)));
        assert_eq!(
            requests[requests.len() - 1],
            Request::read(SimTime::from_secs(172_742), UserId::new(203))
        );
    }

    #[test]
    fn request_volume_matches_configuration() {
        let g = graph();
        let gen = SyntheticTraceGenerator::paper_defaults(&g, 2, 1).unwrap();
        // 300 users × 1 write/day × 2 days × (1 + 4) = 3000 requests.
        assert_eq!(gen.request_count(), 3_000);
        assert_eq!(gen.len(), 3_000);
        assert_eq!(gen.count(), 3_000);
    }

    #[test]
    fn read_write_ratio_is_respected() {
        let g = graph();
        let gen = SyntheticTraceGenerator::paper_defaults(&g, 4, 2).unwrap();
        let (mut reads, mut writes) = (0u64, 0u64);
        for r in gen {
            match r.op {
                Operation::Read => reads += 1,
                Operation::Write => writes += 1,
            }
        }
        let ratio = reads as f64 / writes as f64;
        assert!((ratio - 4.0).abs() < 0.5, "read/write ratio {ratio}");
    }

    #[test]
    fn requests_are_time_ordered_and_within_duration() {
        let g = graph();
        let gen = SyntheticTraceGenerator::paper_defaults(&g, 1, 3).unwrap();
        let mut last = SimTime::ZERO;
        for r in gen {
            assert!(r.time >= last);
            assert!(r.time.as_secs() < DAY_SECS);
            last = r.time;
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = graph();
        let a: Vec<_> = SyntheticTraceGenerator::paper_defaults(&g, 1, 9)
            .unwrap()
            .collect();
        let b: Vec<_> = SyntheticTraceGenerator::paper_defaults(&g, 1, 9)
            .unwrap()
            .collect();
        let c: Vec<_> = SyntheticTraceGenerator::paper_defaults(&g, 1, 10)
            .unwrap()
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn active_users_are_weighted_by_degree() {
        // Build a star: user 0 is followed by everyone else.
        let mut g = SocialGraph::new(50);
        for i in 1..50 {
            g.add_edge(UserId::new(i), UserId::new(0));
        }
        let gen = SyntheticTraceGenerator::new(
            &g,
            SyntheticConfig {
                days: 4,
                read_write_ratio: 4.0,
            },
            4,
        )
        .unwrap();
        let mut writes_by_center = 0u64;
        let mut total_writes = 0u64;
        for r in gen {
            if r.op == Operation::Write {
                total_writes += 1;
                if r.user == UserId::new(0) {
                    writes_by_center += 1;
                }
            }
        }
        // The center has in-degree 49 vs 0 for everyone else, so it should
        // produce a clearly disproportionate share of writes (weights:
        // ln(50) ≈ 3.9 vs 0.05 floor).
        let share = writes_by_center as f64 / total_writes as f64;
        assert!(share > 0.3, "center write share {share}");
    }
}
