//! The five workloads and the seeded request streams that drive them.

use dynasore_graph::SocialGraph;
use dynasore_types::{Result, UserId};
use dynasore_workload::SyntheticTraceGenerator;

/// Users of the `GraphPreset::FacebookLike` graph every workload runs on.
pub const USERS: usize = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FeedRead,
    PointRead,
    WriteDurable,
    PaperMix,
    SimReplay,
}

impl Kind {
    /// Whether the workload runs over `ShardedLogStore` (the mock tier
    /// otherwise).
    pub fn is_durable(self) -> bool {
        matches!(self, Kind::WriteDurable | Kind::PaperMix)
    }
}

/// Slices of the measured phase under `--fixed-work`: about ten seconds on
/// the seed commit.
pub const FIXED_WORK_SLICES: u64 = 330;

/// One workload. `warmup` counts requests, or simulated days for
/// `sim_replay`; `slice` is the number of requests in one slice of the
/// measured phase, about 30 ms on the seed commit: short enough that the
/// machine's speed at its two ends says what it was in between.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub warmup: u64,
    pub slice: u64,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "feed_read",
        why: "ReadFeed of uniform users over the mock tier, about 15 views per request: \
              per-view cost (cache-server round trip, View clone, replica evaluation) dominates",
        kind: Kind::FeedRead,
        warmup: 10_000,
        slice: 180,
    },
    Spec {
        name: "point_read",
        why: "Read of one followee over the mock tier: the same read layers with one view per \
              request, so per-request overhead (pipeline, locks, allocations, routing) dominates",
        kind: Kind::PointRead,
        warmup: 100_000,
        slice: 2_700,
    },
    Spec {
        name: "write_durable",
        why: "100-byte Write by uniform users over ShardedLogStore: durable append, replica \
              push and the every-server eviction probe; shows a read-side gain that costs writes",
        kind: Kind::WriteDurable,
        warmup: 1_500,
        slice: 22,
    },
    Spec {
        name: "paper_mix",
        why:
            "Paper section 4.2 traffic (4:1 ReadFeed:Write, log-degree activity) over \
              ShardedLogStore: placement adapts while writes invalidate caches and the flusher runs",
        kind: Kind::PaperMix,
        warmup: 3_000,
        slice: 55,
    },
    Spec {
        name: "sim_replay",
        why:
            "Simulation of DynaSoRe from random placement on the paper tree, bypassing serve \
              and store: engine and traffic accounting only, carrying the top-switch quality metric",
        kind: Kind::SimReplay,
        warmup: 1,
        slice: 900,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// SplitMix64: the benchmark's own generator, so request streams depend on
/// the seed alone.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2^-40 for the sizes used).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One request as the client issues it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Feed(UserId),
    Point(UserId, UserId),
    Write(UserId),
}

/// The request stream of one serving workload. `client` separates the
/// streams of concurrent clients.
#[derive(Debug)]
pub struct RequestStream {
    kind: Kind,
    rng: SplitMix64,
    trace_seed: u64,
    trace: Option<SyntheticTraceGenerator>,
}

impl RequestStream {
    pub fn new(kind: Kind, seed: u64, client: u64) -> Self {
        let seed = seed.wrapping_add(client.wrapping_mul(0x5851_F42D_4C95_7F2D));
        RequestStream {
            kind,
            rng: SplitMix64::new(seed),
            trace_seed: seed,
            trace: None,
        }
    }

    pub fn next_op(&mut self, graph: &SocialGraph) -> Result<Op> {
        let n = graph.user_count();
        Ok(match self.kind {
            Kind::FeedRead => Op::Feed(UserId::new(self.rng.below(n) as u32)),
            Kind::WriteDurable => Op::Write(UserId::new(self.rng.below(n) as u32)),
            Kind::PointRead => loop {
                let user = UserId::new(self.rng.below(n) as u32);
                let followees = graph.followees(user);
                if !followees.is_empty() {
                    break Op::Point(user, followees[self.rng.below(followees.len())]);
                }
            },
            Kind::PaperMix => {
                let request = loop {
                    if let Some(request) = self.trace.as_mut().and_then(Iterator::next) {
                        break request;
                    }
                    // One generated day at a time; a faster store simply
                    // consumes more days.
                    self.trace = Some(SyntheticTraceGenerator::paper_defaults(
                        graph,
                        1,
                        self.trace_seed,
                    )?);
                    self.trace_seed = self.trace_seed.wrapping_add(1);
                };
                if request.is_read() {
                    Op::Feed(request.user)
                } else {
                    Op::Write(request.user)
                }
            }
            Kind::SimReplay => unreachable!("sim_replay replays traces, not request streams"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_graph::GraphPreset;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds_and_clients() {
        let graph = SocialGraph::generate(GraphPreset::FacebookLike, 300, 1).unwrap();
        let ops = |kind, seed, client| -> Vec<Op> {
            let mut s = RequestStream::new(kind, seed, client);
            (0..200).map(|_| s.next_op(&graph).unwrap()).collect()
        };
        for kind in [
            Kind::FeedRead,
            Kind::PointRead,
            Kind::WriteDurable,
            Kind::PaperMix,
        ] {
            assert_eq!(ops(kind, 7, 0), ops(kind, 7, 0));
            assert_ne!(ops(kind, 7, 0), ops(kind, 8, 0));
            assert_ne!(ops(kind, 7, 0), ops(kind, 7, 1));
        }
    }

    #[test]
    fn point_reads_target_a_followee_and_the_mix_is_read_heavy() {
        let graph = SocialGraph::generate(GraphPreset::FacebookLike, 300, 1).unwrap();
        let mut s = RequestStream::new(Kind::PointRead, 3, 0);
        for _ in 0..500 {
            let Op::Point(user, target) = s.next_op(&graph).unwrap() else {
                panic!("point_read issues point reads only");
            };
            assert!(graph.followees(user).contains(&target));
        }
        // The mix outlives one generated day (300 users x 5 requests).
        let mut s = RequestStream::new(Kind::PaperMix, 3, 0);
        let ops: Vec<Op> = (0..4000).map(|_| s.next_op(&graph).unwrap()).collect();
        let writes = ops.iter().filter(|op| matches!(op, Op::Write(_))).count();
        assert!((600..1000).contains(&writes), "{writes} writes of 4000");
    }

    #[test]
    fn workload_names_are_unique_and_whys_fit_one_line() {
        for s in &SPECS {
            assert_eq!(spec(s.name).unwrap().name, s.name);
            assert!(s.why.len() <= 200 && !s.why.contains('\n') && !s.why.contains('"'));
        }
        assert!(spec("nope").is_none());
    }
}
