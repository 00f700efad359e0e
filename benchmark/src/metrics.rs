//! The benchmark's metric table — the single source `BENCHMARK.json` is
//! printed from — and the comparison of two runs against its bounds.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// By how much a metric may get worse before two runs disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Reported for explanation only.
    None,
    /// Share of the reference run's value.
    Relative(f64),
    /// Absolute difference (for metrics whose good value is 0).
    Absolute(f64),
    /// A count that repeats exactly for one seed under `--fixed-work`.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};
use Bound::{Absolute, Exact, Relative};

/// What a user of the store sees. Every workload reports every one of them,
/// untraced, and every time among them at nominal machine speed (`machine`).
/// The timings' bounds are the largest the driver takes: what this machine
/// leaves resolvable (README, "Observed spread").
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower, Relative(0.25)),
    def("reqs_per_s", "1/s", Higher, Relative(0.25)),
    def("views_per_s", "1/s", Higher, Relative(0.25)),
    def("p50_us", "us", Lower, Relative(0.25)),
    def("p90_us", "us", Lower, Relative(0.25)),
    def("peak_rss_mb", "MB", Lower, Relative(0.1)),
];

/// Single layers, reported by the traced run; 0 where a metric does not apply
/// to a workload. The first block holds user-visible metrics that cannot sit
/// in `END_TO_END`: the 99th percentiles, which this machine's bursts move by
/// more than any bound the driver takes, and the metrics only some workloads
/// have, where every workload must report `END_TO_END` in full. `agree.sh`
/// holds them to the bounds here.
pub const PER_LAYER: &[MetricDef] = &[
    def("p99_us", "us", Lower, Relative(0.5)),
    def("read_p50_us", "us", Lower, Relative(0.25)),
    def("read_p99_us", "us", Lower, Relative(0.5)),
    def("write_p50_us", "us", Lower, Relative(0.25)),
    def("write_p99_us", "us", Lower, Relative(0.5)),
    def("fail_frac", "1", Lower, Absolute(0.0)),
    def("top_switch_vs_random", "1", Lower, Relative(0.01)),
    def("disk_bytes_per_user_byte", "1", Lower, Relative(0.03)),
    def("load.requests", "count", Higher, Exact),
    def("load.views", "count", Higher, Exact),
    def("serve.self_ns_per_req", "ns", Lower, Bound::None),
    def("serve.share", "1", Lower, Bound::None),
    def("serve.envelopes_served", "count", Higher, Exact),
    def("serve.rejected", "count", Lower, Exact),
    def("serve.c2_reqs_per_s", "1/s", Higher, Bound::None),
    def("serve.c2_over_c1", "1", Higher, Bound::None),
    def("store.read_ns_per_view", "ns", Lower, Bound::None),
    def("store.write_ns_per_req", "ns", Lower, Bound::None),
    def("store.share", "1", Lower, Bound::None),
    def("store.cache_ns_per_view", "ns", Lower, Bound::None),
    def("store.probe_ns_per_write", "ns", Lower, Bound::None),
    def("store.cache_hit_frac", "1", Higher, Exact),
    def("store.views_per_read", "1", Lower, Exact),
    def("store.cached_views", "count", Higher, Exact),
    def("core.read_ns_per_view", "ns", Lower, Bound::None),
    def("core.write_ns_per_req", "ns", Lower, Bound::None),
    def("core.share", "1", Lower, Bound::None),
    def("core.msgs_per_read", "1", Lower, Exact),
    def("core.msgs_per_write", "1", Lower, Exact),
    def("core.proto_msgs_per_req", "1", Lower, Exact),
    def("core.replicas_per_view", "1", Lower, Exact),
    def("durable.append_ns_p50", "ns", Lower, Bound::None),
    def("durable.append_ns_p99", "ns", Lower, Bound::None),
    def("durable.fetch_ns_p50", "ns", Lower, Bound::None),
    def("durable.fetches_per_read", "1", Lower, Exact),
    def("durable.share", "1", Lower, Bound::None),
    def("durable.shutdown_sync_ms", "ms", Lower, Bound::None),
    def("durable.segments", "count", Lower, Bound::None),
    def("sim.accounting_share", "1", Lower, Bound::None),
    def("setup.graph_s", "s", Lower, Bound::None),
    def("setup.preload_s", "s", Lower, Bound::None),
    def("setup.spawn_s", "s", Lower, Bound::None),
    def("setup.warmup_s", "s", Lower, Bound::None),
    def("trace.overhead_frac", "1", Lower, Bound::None),
    def("trace.spans", "count", Lower, Bound::None),
    def("machine.slowdown", "1", Lower, Bound::None),
    def("machine.raw_reqs_per_s", "1/s", Higher, Bound::None),
];

pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Whether `change` is worse than `reference` by more than the metric's
/// bound.
pub fn regressed(def: &MetricDef, reference: f64, change: f64) -> bool {
    let worse_by = match def.better {
        Lower => change - reference,
        Higher => reference - change,
    };
    match def.bound {
        Bound::None => false,
        Relative(share) => worse_by > share * reference.abs(),
        Absolute(limit) => worse_by > limit,
        Exact => change != reference,
    }
}

/// Two runs of one build agree when neither is worse than the other by more
/// than the bound.
pub fn agrees(def: &MetricDef, a: f64, b: f64) -> bool {
    !regressed(def, a, b) && !regressed(def, b, a)
}

/// The values a run reported, by metric name.
pub type Values = BTreeMap<String, f64>;

/// Picks the `workload metric value unit` lines out of a run's output.
pub fn parse_metric_lines(text: &str) -> Values {
    let mut values = Values::new();
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [_workload, name, value, _unit] = fields[..] {
            if let (Some(_), Ok(v)) = (lookup(name), value.parse::<f64>()) {
                values.insert(name.to_string(), v);
            }
        }
    }
    values
}

/// Compares two runs of the same workload, seed and build; returns one line
/// per metric that disagrees.
pub fn disagreements(a: &Values, b: &Values) -> Vec<String> {
    let mut out = Vec::new();
    for (name, &va) in a {
        let def = lookup(name).expect("parse_metric_lines keeps known metrics only");
        match b.get(name) {
            None => out.push(format!("{name}: missing from the second run")),
            Some(&vb) if !agrees(def, va, vb) => {
                out.push(format!("{name}: {va} vs {vb} ({:?})", def.bound));
            }
            Some(_) => {}
        }
    }
    for name in b.keys().filter(|n| !a.contains_key(*n)) {
        out.push(format!("{name}: missing from the first run"));
    }
    out
}

fn better_str(b: Better) -> &'static str {
    match b {
        Higher => "higher",
        Lower => "lower",
    }
}

/// `BENCHMARK.json`, printed from the tables above and the workload list.
pub fn manifest(workloads: &[(&str, &str)], run_seconds: u32) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = workloads
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            let Relative(bound) = d.bound else {
                panic!("end-to-end metric {} needs a relative bound", d.name)
            };
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                d.name,
                d.unit,
                better_str(d.better)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                better_str(d.better)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_comparison_is_direction_aware() {
        let rps = lookup("reqs_per_s").unwrap(); // higher is better, 25 %
        assert!(!regressed(rps, 1000.0, 760.0));
        assert!(regressed(rps, 1000.0, 740.0));
        assert!(
            !regressed(rps, 1000.0, 5000.0),
            "a gain is not a regression"
        );

        let p50 = lookup("p50_us").unwrap(); // lower is better, 25 %
        assert!(!regressed(p50, 100.0, 124.0));
        assert!(regressed(p50, 100.0, 126.0));
        assert!(!regressed(p50, 100.0, 10.0));

        // Agreement is symmetric: neither side may be worse than the other.
        assert!(agrees(rps, 1000.0, 900.0));
        assert!(!agrees(rps, 1000.0, 1400.0));
    }

    #[test]
    fn fail_frac_has_an_absolute_bound_of_zero() {
        let ff = lookup("fail_frac").unwrap();
        assert!(!regressed(ff, 0.0, 0.0));
        // A relative bound on 0 would accept nothing or everything; the
        // absolute bound rejects any failure at all.
        assert!(regressed(ff, 0.0, 1e-9));
        assert!(!regressed(ff, 0.5, 0.0));
    }

    #[test]
    fn exact_counts_must_repeat_and_unbounded_metrics_always_agree() {
        let msgs = lookup("core.msgs_per_read").unwrap();
        assert!(agrees(msgs, 29.25, 29.25));
        assert!(!agrees(msgs, 29.25, 29.250001));
        let share = lookup("serve.share").unwrap();
        assert!(agrees(share, 0.1, 0.9));
    }

    #[test]
    fn metric_lines_are_parsed_and_compared() {
        let a = "# env nproc=2\nfeed_read reqs_per_s 5900.5 1/s\nfeed_read p50_us 150 us\n\
                 feed_read not_a_metric 1 1\n{\"correct\": true}\n";
        let b = "feed_read reqs_per_s 4000 1/s\n";
        let (va, vb) = (parse_metric_lines(a), parse_metric_lines(b));
        assert_eq!(va.len(), 2);
        assert_eq!(va["reqs_per_s"], 5900.5);
        let report = disagreements(&va, &vb);
        assert_eq!(report.len(), 2, "{report:?}");
        assert!(report[0].starts_with("p50_us: missing"));
        assert!(
            report[1].starts_with("reqs_per_s: 5900.5 vs 4000"),
            "{report:?}"
        );
        assert!(disagreements(&va, &va).is_empty());
    }

    #[test]
    fn names_are_unique_and_setup_has_the_largest_bound() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        let bound = |d: &MetricDef| match d.bound {
            Relative(b) => b,
            _ => panic!("{} needs a relative bound", d.name),
        };
        let setup = bound(lookup("setup_s").unwrap());
        assert!(setup <= 0.25);
        assert!(END_TO_END.iter().all(|d| bound(d) <= setup));
    }
}
