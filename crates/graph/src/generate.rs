//! Synthetic social-graph generators.
//!
//! The crawled datasets used in the paper (Table 1) cannot be redistributed,
//! so experiments run on seeded synthetic graphs that reproduce the
//! properties DynaSoRe is sensitive to:
//!
//! * **density** — average number of links per user (Twitter ≈ 2.9,
//!   Facebook ≈ 15.7, LiveJournal ≈ 14.4);
//! * **degree skew** — heavy-tailed in-degree (a few very popular users read
//!   by many), produced by preferential attachment;
//! * **community locality** — friends of friends are likely to be connected,
//!   produced by attaching part of each user's edges to neighbours of
//!   already-chosen targets (triadic closure), which is what graph
//!   partitioning (METIS/hMETIS) and SPAR exploit.
//!
//! All generators are deterministic given a seed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use dynasore_types::{Error, Result, UserId};

use crate::graph::SocialGraph;

/// Presets matching the three datasets of Table 1 in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphPreset {
    /// Twitter sample, August 2009: 1.7 M users, 5 M directed links
    /// (average out-degree ≈ 2.9, strongly skewed in-degree).
    TwitterLike,
    /// Facebook sample, 2008: 3 M users, 47 M links (average degree ≈ 15.7,
    /// mutual friendships, strong community structure).
    FacebookLike,
    /// LiveJournal sample: 4.8 M users, 69 M links (average degree ≈ 14.4).
    LiveJournalLike,
}

impl GraphPreset {
    /// The generator configuration used for this preset.
    pub fn config(self) -> GeneratorConfig {
        match self {
            GraphPreset::TwitterLike => GeneratorConfig {
                mean_out_degree: 3.0,
                reciprocity: 0.2,
                closure_probability: 0.3,
                zipf_exponent: 1.2,
            },
            GraphPreset::FacebookLike => GeneratorConfig {
                mean_out_degree: 15.7,
                reciprocity: 1.0,
                closure_probability: 0.5,
                zipf_exponent: 0.9,
            },
            GraphPreset::LiveJournalLike => GeneratorConfig {
                mean_out_degree: 14.4,
                reciprocity: 0.6,
                closure_probability: 0.4,
                zipf_exponent: 1.0,
            },
        }
    }

    /// Number of users in the original dataset (Table 1), used by the
    /// benchmark harness to report the scale factor of each run.
    pub fn paper_user_count(self) -> usize {
        match self {
            GraphPreset::TwitterLike => 1_700_000,
            GraphPreset::FacebookLike => 3_000_000,
            GraphPreset::LiveJournalLike => 4_800_000,
        }
    }

    /// Number of links in the original dataset (Table 1).
    pub fn paper_link_count(self) -> usize {
        match self {
            GraphPreset::TwitterLike => 5_000_000,
            GraphPreset::FacebookLike => 47_000_000,
            GraphPreset::LiveJournalLike => 69_000_000,
        }
    }

    /// Human-readable dataset name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            GraphPreset::TwitterLike => "Twitter",
            GraphPreset::FacebookLike => "Facebook",
            GraphPreset::LiveJournalLike => "LiveJournal",
        }
    }

    /// All presets, in the order the paper lists them.
    pub fn all() -> [GraphPreset; 3] {
        [
            GraphPreset::TwitterLike,
            GraphPreset::FacebookLike,
            GraphPreset::LiveJournalLike,
        ]
    }
}

impl std::fmt::Display for GraphPreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tunable parameters of the synthetic generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Average number of outgoing links per user.
    pub mean_out_degree: f64,
    /// Probability that a link `u → v` is reciprocated by `v → u`
    /// (1.0 yields an undirected, Facebook-like friendship graph).
    pub reciprocity: f64,
    /// Probability that a new link closes a triangle (attaches to a
    /// neighbour of an existing neighbour) instead of following preferential
    /// attachment. Higher values produce stronger community structure.
    pub closure_probability: f64,
    /// Exponent of the Zipf distribution used to draw per-user out-degrees;
    /// larger values produce more skewed activity.
    pub zipf_exponent: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GraphPreset::TwitterLike.config()
    }
}

impl GeneratorConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any probability is outside
    /// `[0, 1]`, the mean degree is not positive, or the Zipf exponent is
    /// negative.
    pub fn validate(&self) -> Result<()> {
        if self.mean_out_degree <= 0.0 {
            return Err(Error::invalid_config("mean_out_degree must be positive"));
        }
        if !(0.0..=1.0).contains(&self.reciprocity) {
            return Err(Error::invalid_config("reciprocity must be in [0, 1]"));
        }
        if !(0.0..=1.0).contains(&self.closure_probability) {
            return Err(Error::invalid_config(
                "closure_probability must be in [0, 1]",
            ));
        }
        if self.zipf_exponent < 0.0 {
            return Err(Error::invalid_config("zipf_exponent must be non-negative"));
        }
        Ok(())
    }

    /// Generates a graph over `user_count` users with this configuration.
    ///
    /// The generator combines preferential attachment (targets are drawn
    /// proportionally to their current in-degree plus one) with triadic
    /// closure and optional reciprocation; out-degrees follow a truncated
    /// Zipf distribution scaled to the configured mean.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the configuration is invalid or
    /// `user_count < 2`.
    pub fn generate(&self, user_count: usize, seed: u64) -> Result<SocialGraph> {
        self.validate()?;
        if user_count < 2 {
            return Err(Error::invalid_config(
                "a social graph needs at least two users",
            ));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut graph = SocialGraph::new(user_count);

        // Draw target out-degrees from a truncated Zipf distribution and
        // rescale to the requested mean.
        let raw: Vec<f64> = (0..user_count)
            .map(|_| zipf_sample(&mut rng, self.zipf_exponent, user_count.min(10_000)))
            .collect();
        let raw_mean = raw.iter().sum::<f64>() / user_count as f64;
        // Every reciprocated edge also raises the partner's out-degree, so
        // scale the per-user target down to keep the overall mean on target.
        let effective_mean = self.mean_out_degree / (1.0 + self.reciprocity);
        let scale = effective_mean / raw_mean;
        let degrees: Vec<usize> = raw
            .iter()
            .map(|d| ((d * scale).round() as usize).max(1).min(user_count - 1))
            .collect();

        // Preferential-attachment repository: every time a user gains an
        // in-link it is pushed once more, so sampling uniformly from the
        // repository is proportional to (in-degree + 1).
        let mut repository: Vec<UserId> = (0..user_count as u32).map(UserId::new).collect();
        repository.shuffle(&mut rng);

        // Process users in random order so early ids are not favoured.
        let mut order: Vec<u32> = (0..user_count as u32).collect();
        order.shuffle(&mut rng);

        for &uraw in &order {
            let u = UserId::new(uraw);
            let want = degrees[u.as_usize()];
            let mut attempts = 0usize;
            while graph.out_degree(u) < want && attempts < want * 8 + 16 {
                attempts += 1;
                let target =
                    if !graph.followees(u).is_empty() && rng.gen_bool(self.closure_probability) {
                        // Triadic closure: pick a random followee, then one of its
                        // followees.
                        let vs = graph.followees(u);
                        let v = vs[rng.gen_range(0..vs.len())];
                        let ws = graph.followees(v);
                        if ws.is_empty() {
                            repository[rng.gen_range(0..repository.len())]
                        } else {
                            ws[rng.gen_range(0..ws.len())]
                        }
                    } else {
                        repository[rng.gen_range(0..repository.len())]
                    };
                if target == u {
                    continue;
                }
                if graph.add_edge(u, target) {
                    repository.push(target);
                    if self.reciprocity > 0.0 && rng.gen_bool(self.reciprocity) {
                        graph.add_edge(target, u);
                        repository.push(u);
                    }
                }
            }
        }

        // Guarantee that nobody is completely isolated: an isolated user
        // would never issue reads touching other servers, which is both
        // unrealistic and degenerate for placement.
        for idx in 0..user_count as u32 {
            let u = UserId::new(idx);
            if graph.out_degree(u) == 0 {
                let target = loop {
                    let t = repository[rng.gen_range(0..repository.len())];
                    if t != u {
                        break t;
                    }
                };
                graph.add_edge(u, target);
            }
        }

        graph.shrink_to_fit();
        Ok(graph)
    }
}

/// Draws one sample from a Zipf-like distribution over `1..=max_rank`.
fn zipf_sample(rng: &mut StdRng, exponent: f64, max_rank: usize) -> f64 {
    // Inverse-transform sampling over a bounded Pareto distribution, which
    // approximates the Zipf rank-frequency curve well enough for degree
    // generation.
    let u: f64 = rng.gen_range(0.0f64..1.0f64);
    if exponent <= 0.0 {
        return 1.0 + u * (max_rank as f64 - 1.0);
    }
    let alpha = exponent;
    let xmin = 1.0f64;
    let xmax = max_rank as f64;
    let ha = xmin.powf(1.0 - alpha);
    let hb = xmax.powf(1.0 - alpha);
    if (1.0 - alpha).abs() < 1e-9 {
        // alpha == 1: logarithmic inverse CDF.
        (xmin.ln() + u * (xmax.ln() - xmin.ln())).exp()
    } else {
        (ha + u * (hb - ha)).powf(1.0 / (1.0 - alpha))
    }
}

impl SocialGraph {
    /// Generates a synthetic graph following one of the paper's dataset
    /// presets.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `user_count < 2`.
    ///
    /// # Example
    ///
    /// ```
    /// use dynasore_graph::{GraphPreset, SocialGraph};
    /// let g = SocialGraph::generate(GraphPreset::FacebookLike, 500, 1).unwrap();
    /// assert_eq!(g.user_count(), 500);
    /// ```
    pub fn generate(preset: GraphPreset, user_count: usize, seed: u64) -> Result<SocialGraph> {
        preset.config().generate(user_count, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn presets_expose_paper_numbers() {
        assert_eq!(GraphPreset::TwitterLike.paper_user_count(), 1_700_000);
        assert_eq!(GraphPreset::TwitterLike.paper_link_count(), 5_000_000);
        assert_eq!(GraphPreset::FacebookLike.paper_user_count(), 3_000_000);
        assert_eq!(GraphPreset::LiveJournalLike.paper_link_count(), 69_000_000);
        assert_eq!(GraphPreset::all().len(), 3);
        assert_eq!(GraphPreset::TwitterLike.to_string(), "Twitter");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = SocialGraph::generate(GraphPreset::TwitterLike, 300, 7).unwrap();
        let b = SocialGraph::generate(GraphPreset::TwitterLike, 300, 7).unwrap();
        let c = SocialGraph::generate(GraphPreset::TwitterLike, 300, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_graphs_are_consistent() {
        for preset in GraphPreset::all() {
            let g = SocialGraph::generate(preset, 400, 3).unwrap();
            g.validate().unwrap();
            // No isolated producers/readers.
            for u in g.users() {
                assert!(g.out_degree(u) > 0, "{preset}: user {u} has no followees");
            }
        }
    }

    #[test]
    fn densities_roughly_match_presets() {
        let n = 2_000;
        let tw = SocialGraph::generate(GraphPreset::TwitterLike, n, 11).unwrap();
        let fb = SocialGraph::generate(GraphPreset::FacebookLike, n, 11).unwrap();
        let tw_avg = tw.edge_count() as f64 / n as f64;
        let fb_avg = fb.edge_count() as f64 / n as f64;
        assert!(tw_avg > 1.5 && tw_avg < 6.0, "twitter avg degree {tw_avg}");
        assert!(
            fb_avg > 9.0 && fb_avg < 25.0,
            "facebook avg degree {fb_avg}"
        );
        assert!(fb_avg > tw_avg);
    }

    #[test]
    fn in_degree_distribution_is_skewed() {
        let g = SocialGraph::generate(GraphPreset::TwitterLike, 2_000, 5).unwrap();
        let stats = metrics::degree_stats(&g);
        // The most-followed user should have far more followers than the
        // average user — the "million follower fallacy" shape.
        assert!(stats.max_in_degree as f64 > 5.0 * stats.mean_in_degree);
    }

    #[test]
    fn facebook_preset_is_mostly_reciprocal() {
        let g = SocialGraph::generate(GraphPreset::FacebookLike, 500, 9).unwrap();
        let recip = metrics::reciprocity(&g);
        assert!(recip > 0.9, "facebook reciprocity {recip}");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cfg = GeneratorConfig {
            mean_out_degree: 0.0,
            ..GeneratorConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = GeneratorConfig {
            reciprocity: 1.5,
            ..GeneratorConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = GeneratorConfig {
            closure_probability: -0.1,
            ..GeneratorConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = GeneratorConfig {
            zipf_exponent: -1.0,
            ..GeneratorConfig::default()
        };
        assert!(cfg.validate().is_err());
        assert!(GeneratorConfig::default().generate(1, 0).is_err());
    }
}
