//! **Observability lint** — CI gate for the flight-recorder exporters.
//!
//! ```text
//! cargo run --release -p dynasore-bench --bin obs_lint -- \
//!     [--traces DIR] [--metrics FILE]
//! ```
//!
//! `--traces DIR` validates every `*.jsonl` file in `DIR` with
//! [`validate_jsonl`]: each line must parse as a trace event with
//! monotonically non-decreasing sequence numbers, and each file must hold
//! at least one event (an empty timeline means the exporter wiring
//! silently dropped the run). `--metrics FILE` lints the Prometheus text
//! exposition with [`lint_prometheus`]: every sample needs `# HELP` /
//! `# TYPE` headers, names must be valid, values must parse.
//!
//! Exits 0 when everything passes, 1 with a per-file diagnostic on the
//! first failure class encountered. At least one of the two flags is
//! required — linting nothing is a configuration error (exit 2), not a
//! pass.

use std::path::PathBuf;

use dynasore_bench::{parse_args_or_exit, Args};
use dynasore_types::{lint_prometheus, validate_jsonl};

struct Options {
    traces: Option<PathBuf>,
    metrics: Option<PathBuf>,
}

const USAGE: &str = "usage: obs_lint [--traces DIR] [--metrics FILE] (at least one)";

impl Options {
    /// Parses the command line (program name excluded), strictly: see
    /// [`Args`]. Linting nothing is a configuration error, not a pass.
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            traces: None,
            metrics: None,
        };
        let mut args = Args::new(args);
        while let Some(flag) = args.flag() {
            match flag {
                "--traces" => o.traces = Some(args.value()?.into()),
                "--metrics" => o.metrics = Some(args.value()?.into()),
                _ => return args.unknown(),
            }
        }
        if o.traces.is_none() && o.metrics.is_none() {
            return Err("nothing to lint".to_string());
        }
        Ok(o)
    }
}

fn main() {
    let opts = parse_args_or_exit(USAGE, Options::parse);
    let mut failures = 0usize;

    if let Some(dir) = &opts.traces {
        let mut timelines = 0usize;
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| {
                eprintln!("obs_lint: cannot read traces dir {}: {e}", dir.display());
                std::process::exit(2);
            })
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
            .collect();
        entries.sort();
        for path in &entries {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("obs_lint: FAIL {}: unreadable: {e}", path.display());
                    failures += 1;
                    continue;
                }
            };
            match validate_jsonl(&text) {
                Ok(0) => {
                    eprintln!(
                        "obs_lint: FAIL {}: timeline is empty (expected >= 1 event)",
                        path.display()
                    );
                    failures += 1;
                }
                Ok(events) => {
                    timelines += 1;
                    eprintln!("obs_lint: ok {} ({events} events)", path.display());
                }
                Err(e) => {
                    eprintln!("obs_lint: FAIL {}: {e}", path.display());
                    failures += 1;
                }
            }
        }
        if entries.is_empty() {
            eprintln!(
                "obs_lint: FAIL {}: no .jsonl timelines found",
                dir.display()
            );
            failures += 1;
        } else {
            eprintln!(
                "obs_lint: {timelines}/{} timelines valid in {}",
                entries.len(),
                dir.display()
            );
        }
    }

    if let Some(path) = &opts.metrics {
        match std::fs::read_to_string(path) {
            Ok(text) => match lint_prometheus(&text) {
                Ok(samples) => {
                    eprintln!("obs_lint: ok {} ({samples} samples)", path.display());
                }
                Err(e) => {
                    eprintln!("obs_lint: FAIL {}: {e}", path.display());
                    failures += 1;
                }
            },
            Err(e) => {
                eprintln!("obs_lint: FAIL {}: unreadable: {e}", path.display());
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("obs_lint: {failures} failure(s)");
        std::process::exit(1);
    }
    eprintln!("obs_lint: all checks passed");
}
