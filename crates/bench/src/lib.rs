//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the DynaSoRe paper.
//!
//! Each binary in `src/bin/` reproduces one table or figure (README.md has
//! the index under *Paper-figure binaries* and the recorded results under
//! *Performance*). The table
//! and figure binaries accept the [`ExperimentScale`] overrides so the
//! default quick runs can be scaled up towards the paper's dimensions, and
//! every binary parses its command line with the one strict cursor, [`Args`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dynasore_core::{DynaSoReEngine, InitialPlacement};
use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_sim::{SimReport, Simulation};
use dynasore_topology::Topology;
use dynasore_types::{MemoryBudget, PlacementEngine, Result};
use dynasore_workload::SyntheticTraceGenerator;

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Number of users in the synthetic social graph.
    pub users: usize,
    /// Number of measured days of traffic.
    pub days: u64,
    /// Seed for graphs, traces and placement.
    pub seed: u64,
    /// Extra-memory percentage, where a single value is needed.
    pub extra_memory: u32,
    /// Use the flat topology instead of the tree.
    pub flat: bool,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale {
            users: 8_000,
            days: 1,
            seed: 42,
            extra_memory: 30,
            flat: false,
        }
    }
}

impl ExperimentScale {
    /// The flags [`ExperimentScale::parse_flag`] accepts, for usage lines.
    pub const FLAGS: &'static str =
        "[--users N] [--days N] [--seed N] [--extra-memory N] [--topology flat|tree]";

    /// Sets the field that `flag` (just taken from `args`) names; any flag
    /// outside [`ExperimentScale::FLAGS`] is unknown.
    pub fn parse_flag(&mut self, flag: &str, args: &mut Args<'_>) -> Result<(), String> {
        match flag {
            "--users" => self.users = args.parsed()?,
            "--days" => self.days = args.parsed()?,
            "--seed" => self.seed = args.parsed()?,
            "--extra-memory" => self.extra_memory = args.parsed()?,
            "--topology" => self.flat = args.one_of(&["flat", "tree"])? == "flat",
            _ => return args.unknown(),
        }
        Ok(())
    }

    /// Parses a command line (program name excluded) of
    /// [`ExperimentScale::FLAGS`], starting from these defaults.
    pub fn parse(mut self, args: &[String]) -> Result<ExperimentScale, String> {
        let mut args = Args::new(args);
        while let Some(flag) = args.flag() {
            self.parse_flag(flag, &mut args)?;
        }
        Ok(self)
    }

    /// [`ExperimentScale::parse`] over the process arguments; a rejected
    /// command line prints the usage line and exits 2.
    pub fn from_args(defaults: ExperimentScale) -> ExperimentScale {
        let program = std::env::args().next().unwrap_or_default();
        let usage = format!("usage: {program} {}", ExperimentScale::FLAGS);
        parse_args_or_exit(&usage, |args| defaults.parse(args))
    }
}

/// A strict cursor over a command line — the one argument parser of every
/// `dynasore-bench` binary. An unknown flag, a flag without its value and a
/// value that does not parse are errors, never ignored: a mistyped
/// `--check-against` or `--tolerance` must not leave a regression guard
/// switched off or running at its default.
#[derive(Debug)]
pub struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Args<'a> {
    /// A cursor at the start of `args` (program name excluded).
    pub fn new(args: &'a [String]) -> Self {
        Args {
            rest: args.iter(),
            flag: "",
        }
    }

    /// Advances to the next flag; `None` at the end of the line.
    pub fn flag(&mut self) -> Option<&'a str> {
        self.flag = self.rest.next()?;
        Some(self.flag)
    }

    /// The value of the current flag, as text.
    pub fn value(&mut self) -> Result<String, String> {
        self.rest
            .next()
            .cloned()
            .ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The value of the current flag, parsed.
    pub fn parsed<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let value = self.value()?;
        value
            .parse()
            .map_err(|_| format!("{}: cannot parse {value:?}", self.flag))
    }

    /// The value of the current flag, which must be one of `choices`.
    pub fn one_of(&mut self, choices: &[&str]) -> Result<String, String> {
        let value = self.value()?;
        if choices.contains(&value.as_str()) {
            Ok(value)
        } else {
            let choices = choices.join("|");
            Err(format!("{}: {value:?} is not {choices}", self.flag))
        }
    }

    /// The value of the current flag as a regression guard's tolerance: a
    /// finite, non-negative fraction (NaN would make every comparison of a
    /// guard pass).
    pub fn tolerance(&mut self) -> Result<f64, String> {
        let tolerance: f64 = self.parsed()?;
        if (0.0..f64::INFINITY).contains(&tolerance) {
            Ok(tolerance)
        } else {
            Err(format!("{}: {tolerance} is not a fraction", self.flag))
        }
    }

    /// The error for a current flag the binary does not know.
    pub fn unknown<T>(&self) -> Result<T, String> {
        Err(format!("unknown flag {}", self.flag))
    }
}

/// Runs `parse` over the process arguments (program name excluded); if it
/// rejects them, prints its error and `usage` and exits 2.
pub fn parse_args_or_exit<T>(usage: &str, parse: impl FnOnce(&[String]) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse(&args).unwrap_or_else(|err| {
        eprintln!("{err}\n{usage}");
        std::process::exit(2);
    })
}

/// The committed `BENCH_*.json` snapshot a regression guard compares
/// against; exits 2 if it cannot be read.
pub fn read_snapshot_or_exit(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|err| {
        eprintln!("# regression guard: cannot read snapshot {path}: {err}");
        std::process::exit(2);
    })
}

/// The number after the first `"key":` of a `BENCH_*.json` snapshot —
/// searched from the first `"section"` on when one is given, so the
/// binaries print the guarded key first in each section. A hand-rolled scan
/// keeps the regression guards dependency-free: the format is the
/// binaries' own, fixed output.
pub fn snapshot_field(json: &str, section: Option<&str>, key: &str) -> Option<f64> {
    let json = match section {
        Some(section) => &json[json.find(&format!("\"{section}\""))?..],
        None => json,
    };
    let quoted = format!("\"{key}\"");
    let after = &json[json.find(&quoted)? + quoted.len()..];
    let colon = after.find(':')?;
    let value = after[colon + 1..]
        .trim_start()
        .split([',', '\n', '}'])
        .next()?
        .trim();
    value.parse().ok()
}

/// The evaluation cluster of §4.3: 5 intermediate switches × 5 racks × 10
/// machines (1 broker + 9 servers per rack).
pub fn paper_topology() -> Result<Topology> {
    Topology::paper_tree()
}

/// The flat cluster of §4.5: 250 machines behind one switch.
pub fn paper_flat_topology() -> Result<Topology> {
    Topology::paper_flat()
}

/// The topology selected by an [`ExperimentScale`].
pub fn topology_for(scale: &ExperimentScale) -> Result<Topology> {
    if scale.flat {
        paper_flat_topology()
    } else {
        paper_topology()
    }
}

/// Runs an engine through one warm-up day of synthetic traffic (not
/// measured — the paper reports traffic after convergence, §4.4) followed by
/// `days` measured days, and returns the measured report.
pub fn run_synthetic_after_warmup<E: PlacementEngine>(
    engine: E,
    graph: &SocialGraph,
    topology: &Topology,
    days: u64,
    seed: u64,
) -> Result<SimReport> {
    let mut sim = Simulation::new(topology.clone(), engine, graph);
    let warmup = SyntheticTraceGenerator::paper_defaults(graph, 1, seed)?;
    sim.run(warmup)?;
    let trace = SyntheticTraceGenerator::paper_defaults(graph, days, seed.wrapping_add(1))?;
    sim.run(trace)
}

/// Convenience constructor for a DynaSoRe engine on the given setup.
pub fn dynasore_engine(
    graph: &SocialGraph,
    topology: &Topology,
    extra_memory: u32,
    placement: InitialPlacement,
) -> Result<DynaSoReEngine> {
    DynaSoReEngine::builder()
        .topology(topology.clone())
        .budget(MemoryBudget::with_extra_percent(
            graph.user_count(),
            extra_memory,
        ))
        .initial_placement(placement)
        .build(graph)
}

/// Generates the scaled-down synthetic stand-in of one of the paper's
/// datasets and prints the scale factor relative to Table 1.
pub fn dataset(preset: GraphPreset, scale: &ExperimentScale) -> Result<SocialGraph> {
    let graph = SocialGraph::generate(preset, scale.users, scale.seed)?;
    eprintln!(
        "# dataset {preset}: {} users, {} links (paper: {} users, {} links; scale ≈ 1/{:.0})",
        graph.user_count(),
        graph.edge_count(),
        preset.paper_user_count(),
        preset.paper_link_count(),
        preset.paper_user_count() as f64 / graph.user_count() as f64
    );
    Ok(graph)
}

/// Prints a row of tab-separated values (the output format of every
/// experiment binary, easy to paste into a plotting tool).
pub fn print_row<I: IntoIterator<Item = String>>(cells: I) {
    let cells: Vec<String> = cells.into_iter().collect();
    println!("{}", cells.join("\t"));
}

/// Formats a normalised traffic value the way the paper's figures do.
pub fn fmt_norm(value: f64) -> String {
    format!("{value:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_and_topologies() {
        let scale = ExperimentScale::default();
        assert_eq!(scale.users, 8_000);
        assert!(!scale.flat);
        assert_eq!(paper_topology().unwrap().server_count(), 225);
        assert_eq!(paper_flat_topology().unwrap().server_count(), 250);
        assert_eq!(topology_for(&scale).unwrap().server_count(), 225);
        let flat = ExperimentScale {
            flat: true,
            ..scale
        };
        assert_eq!(topology_for(&flat).unwrap().server_count(), 250);
    }

    fn line(args: &str) -> Vec<String> {
        args.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn every_documented_flag_round_trips() {
        let defaults = ExperimentScale::default();
        assert_eq!(defaults.parse(&[]), Ok(defaults));
        let all = "--users 500 --days 3 --seed 7 --extra-memory 150 --topology flat";
        let expected = ExperimentScale {
            users: 500,
            days: 3,
            seed: 7,
            extra_memory: 150,
            flat: true,
        };
        assert_eq!(defaults.parse(&line(all)), Ok(expected));
        assert_eq!(
            expected.parse(&line("--topology tree")).map(|s| s.flat),
            Ok(false)
        );
    }

    /// `--tolerance <value>` as the regression guards read it.
    fn tolerance(value: &str) -> Result<f64, String> {
        let line = line(&format!("--tolerance {value}"));
        let mut args = Args::new(&line);
        args.flag();
        args.tolerance()
    }

    #[test]
    fn bad_command_lines_are_errors() {
        assert_eq!(tolerance("0.05"), Ok(0.05));
        // NaN would make every comparison of a guard pass.
        for bad in ["nan", "NaN", "inf", "-0.1", "0.3O", ""] {
            assert!(tolerance(bad).is_err(), "--tolerance {bad:?} was accepted");
        }
        for bad in [
            // A typo must not switch a guard off, nor a removed flag linger.
            "--check-agianst snap.json",
            "--threads 4",
            "--users",
            "--users abc",
            "--seed -1",
            "--topology ring",
            "extra",
        ] {
            let scale = ExperimentScale::default().parse(&line(bad));
            assert!(scale.is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn harness_runs_a_small_experiment_end_to_end() {
        let scale = ExperimentScale {
            users: 600,
            days: 1,
            seed: 3,
            extra_memory: 30,
            flat: false,
        };
        let topology = Topology::tree(2, 2, 4, 1).unwrap();
        let graph = dataset(GraphPreset::TwitterLike, &scale).unwrap();
        let engine = dynasore_engine(
            &graph,
            &topology,
            scale.extra_memory,
            InitialPlacement::Random { seed: scale.seed },
        )
        .unwrap();
        let report =
            run_synthetic_after_warmup(engine, &graph, &topology, scale.days, scale.seed).unwrap();
        assert!(report.top_switch_total() > 0);
        assert_eq!(
            report.read_count() + report.write_count(),
            (scale.users as u64) * 5 * scale.days
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_norm(0.123456), "0.123");
        // print_row only writes to stdout; just exercise it.
        print_row(["a".to_string(), "b".to_string()]);
    }
}
