//! `dynabench`: one end-to-end serving benchmark with a per-layer split.
//!
//! A single-process load generator that drives the real stack (`serve` →
//! `store::Cluster` → `core` engine → cache-server threads → durable tier)
//! from outside, through public functions only, verifies every response, and
//! in a separate traced run attributes wall-clock to layers. `run.sh` builds
//! it, confines it to its CPUs and runs one workload per process; see
//! `README.md` beside it for the workloads, the metrics and how they interact.

mod env;
mod load;
mod machine;
mod metrics;
mod serving;
mod shadow;
mod sim;
mod spans;
mod stats;
mod traced;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dynasore_types::{Error, Result};

use load::{Kind, Spec};
use machine::Meter;
use metrics::{Values, END_TO_END, PER_LAYER};
use serving::{prometheus_counter, Budget, Deployment, Slice, Summary, Tally};
use spans::Recorder;
use stats::median;
use traced::LayerSplit;

/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u32 = 10;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Spans written to the JSONL file: all of them go into the split, but
/// `point_read` records over a million, and a file of the first quarter
/// million (about 25 MB) shows the same request shapes.
const JSONL_SPANS: usize = 250_000;

const USAGE: &str = "usage:
  dynabench --workload NAME --seed N --seconds S --trace 0|1 [--fixed-work]
            [--cpus N] [--data-root DIR] [--c2-reqs-per-s V] [--slice-log FILE]
  dynabench --contention --workload NAME --seed N --seconds S --cpus N [--data-root DIR]
  dynabench --agree RUN_A RUN_B
  dynabench --print-manifest";

#[derive(Debug)]
struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    fixed_work: bool,
    cpus: usize,
    data_root: PathBuf,
    contention: bool,
    c2_reqs_per_s: Option<f64>,
    slice_log: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> std::result::Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut cpus) = (42, f64::from(RUN_SECONDS), false, 1);
    let (mut fixed_work, mut contention, mut c2_reqs_per_s) = (false, false, None);
    let mut slice_log = None;
    let mut data_root = PathBuf::from("benchmark/target/dynabench");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> std::result::Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
        }
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = num(flag, value()?)?,
            "--seconds" => seconds = num(flag, value()?)?,
            "--trace" => trace = num::<u8>(flag, value()?)? != 0,
            "--cpus" => cpus = num(flag, value()?)?,
            "--data-root" => data_root = PathBuf::from(value()?),
            "--c2-reqs-per-s" => c2_reqs_per_s = Some(num(flag, value()?)?),
            "--slice-log" => slice_log = Some(PathBuf::from(value()?)),
            "--fixed-work" => fixed_work = true,
            "--contention" => contention = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = load::spec(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
        fixed_work,
        cpus,
        data_root,
        contention,
        c2_reqs_per_s,
        slice_log,
    })
}

impl Args {
    fn budget(&self) -> Budget {
        if self.fixed_work {
            Budget::Slices(load::FIXED_WORK_SLICES)
        } else {
            Budget::Seconds(self.seconds)
        }
    }
}

/// The values a run reports, plus what was attempted and what failed.
#[derive(Default)]
struct Report {
    values: Values,
    tally: Tally,
    notes: Vec<String>,
}

impl Report {
    fn set(&mut self, name: &str, value: f64) {
        assert!(metrics::lookup(name).is_some(), "unknown metric {name}");
        self.values.insert(name.to_string(), value);
    }

    /// The timings every workload has, and a note on where they came from.
    fn set_summary(&mut self, s: &Summary) {
        self.set("reqs_per_s", s.reqs_per_s);
        self.set("views_per_s", s.views_per_s);
        self.set("p50_us", s.p50_us);
        self.set("p90_us", s.p90_us);
        self.note_slices(s);
    }

    /// Where the timings came from, and what the machine did meanwhile:
    /// the reference's slowdown and the rate the clock gave, both per-layer
    /// metrics of their own.
    fn note_slices(&mut self, s: &Summary) {
        let [least, median, greatest] = s.slowdown;
        self.set("machine.slowdown", median);
        self.set("machine.raw_reqs_per_s", s.raw_reqs_per_s);
        self.notes.push(format!(
            "{} slices at nominal machine speed: percentiles over n={} reads, n={} writes; the \
             reference ran {least:.3} to {greatest:.3} times its nominal time, median \
             {median:.3}; {:.1} req/s as the clock gave it",
            s.slices, s.reads, s.writes, s.raw_reqs_per_s,
        ));
    }

    /// The 99th percentile, read and write latencies apart, and the totals of
    /// the phase: what the serving workloads report beside the end-to-end set.
    fn set_load(&mut self, s: &Summary) {
        self.set("p99_us", s.p99_us);
        if let Some((p50, p99)) = s.read_p50_p99_us {
            self.set("read_p50_us", p50);
            self.set("read_p99_us", p99);
        }
        if let Some((p50, p99)) = s.write_p50_p99_us {
            self.set("write_p50_us", p50);
            self.set("write_p99_us", p99);
        }
        self.set("load.requests", s.pool.requests() as f64);
        self.set("load.views", s.pool.views as f64);
    }

    /// `sim_replay` has no read and write latencies worth telling apart (a
    /// write is under a microsecond of engine work) but it has the paper's
    /// quality metric.
    fn set_sim_load(&mut self, s: &Summary, top_switch_vs_random: f64) {
        self.set("p99_us", s.p99_us);
        self.set("load.requests", s.pool.requests() as f64);
        self.set("load.views", s.pool.views as f64);
        self.set("top_switch_vs_random", top_switch_vs_random);
    }

    fn set_setup_split(&mut self, s: &serving::SetupSplit) {
        self.set("setup.graph_s", s.graph_s);
        self.set("setup.preload_s", s.preload_s);
        self.set("setup.spawn_s", s.spawn_s);
        self.set("setup.warmup_s", s.warmup_s);
    }

    /// Prints every metric as `workload metric value unit`, then the result
    /// object the driver reads from the last line.
    fn print(mut self, workload: &str, trace: bool) -> ExitCode {
        let fail_frac = self.tally.failed as f64 / self.tally.attempted.max(1) as f64;
        self.set("fail_frac", fail_frac);
        for note in &self.notes {
            println!("# {workload}: {note}");
        }
        for failure in &self.tally.examples {
            println!("# {workload}: FAILED {failure}");
        }
        for def in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(value) = self.values.get(def.name) {
                println!("{workload} {} {value} {}", def.name, def.unit);
            }
        }
        // The driver wants every metric of the set on every workload; a
        // per-layer metric that does not apply to this one reads 0.
        let set = if trace { PER_LAYER } else { END_TO_END };
        let mut correct = self.tally.failed == 0 && self.tally.attempted > 0;
        let mut fields = Vec::new();
        for def in set {
            let value = match self.values.get(def.name) {
                Some(&v) if v.is_finite() => v,
                None if trace => 0.0,
                other => {
                    println!("# {workload}: FAILED {} is {other:?}", def.name);
                    correct = false;
                    0.0
                }
            };
            fields.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            ));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.attempted.max(1),
            self.tally.failed,
            fields.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// `--slice-log`: one line per slice of the measured phase — requests, read
/// views, writes, service time in ns, then the reference's kernel times in
/// ns at the reading before the slice and at the one after it. What the
/// kernels' weights are fitted to (README, "The reference").
fn write_slice_log(args: &Args, slices: &[Slice], meter: &Meter) -> std::io::Result<()> {
    let Some(path) = &args.slice_log else {
        return Ok(());
    };
    let readings = &meter.kernel_readings[meter.kernel_readings.len() - slices.len() - 1..];
    let mut out = String::new();
    for (slice, around) in slices.iter().zip(readings.windows(2)) {
        let kernels: Vec<String> = around.iter().flatten().map(|t| format!("{t:.0}")).collect();
        out.push_str(&format!(
            "{} {} {} {:.0} {}\n",
            slice.requests(),
            slice.read_views(),
            slice.write_ns.len(),
            slice.busy_s() * 1e9,
            kernels.join(" ")
        ));
    }
    std::fs::write(path, out)
}

/// Checks the flight recorder's envelope counters against what was sent.
fn check_envelopes(deployment: &mut Deployment, report: Option<&mut Report>) {
    let text = deployment.client.stack.metrics_text();
    let served = prometheus_counter(&text, "dynasore_envelopes_served_total");
    let rejected = prometheus_counter(&text, "dynasore_envelopes_rejected_total")
        + prometheus_counter(&text, "dynasore_throttled_envelopes_total");
    let sent = deployment.client.sent;
    deployment
        .client
        .tally
        .check(if served == sent && rejected == 0 {
            Ok(())
        } else {
            Err(format!(
                "{served} envelopes served and {rejected} rejected for {sent} requests"
            ))
        });
    if let Some(report) = report {
        report.set("serve.envelopes_served", served as f64);
        report.set("serve.rejected", rejected as f64);
    }
}

/// `--trace 0` on a serving workload: the real `LoopbackServer`, set up
/// `SETUPS` times, measured once.
fn serving_end_to_end(args: &Args) -> Result<Report> {
    let mut report = Report::default();
    let mut meter = Meter::new();
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(previous) = last.take() {
            report.tally.absorb(Deployment::finish(previous)?.0);
        }
        let deployment = serving::deploy(args.spec, args.seed, &args.data_root, None, &mut meter)?;
        setups.push(deployment.setup.total_s());
        last = Some(deployment);
    }
    let mut deployment = last.expect("SETUPS is at least 1");
    report.set("setup_s", median(&setups).expect("SETUPS is at least 1"));

    let measured = deployment
        .client
        .measure(args.budget(), args.spec.slice, &mut meter)?;
    // Before the benchmark pools the latencies it recorded, and before the
    // durable check reads the whole data directory back.
    let peak_rss = env::peak_rss_mb();
    write_slice_log(args, &measured.slices, &meter)?;
    let summary = serving::summarize(&measured.slices);
    report.set_summary(&summary);
    report.set_load(&summary);
    check_envelopes(&mut deployment, None);
    let (tally, durable) = deployment.finish()?;
    report.tally.absorb(tally);
    if args.spec.kind.is_durable() {
        report.set("disk_bytes_per_user_byte", durable.disk_bytes_per_user_byte);
    }
    report.set("peak_rss_mb", peak_rss.unwrap_or(f64::NAN));
    Ok(report)
}

/// `--trace 1` on a serving workload: half the budget untraced on the real
/// server (the reference for the tracing overhead, and the split read/write
/// percentiles), half on the traced stack.
fn serving_traced(args: &Args) -> Result<Report> {
    let mut report = Report::default();
    let mut meter = Meter::new();
    let half = args.budget().halved();

    let mut deployment = serving::deploy(args.spec, args.seed, &args.data_root, None, &mut meter)?;
    report.set_setup_split(&deployment.setup);
    let measured = deployment
        .client
        .measure(half, args.spec.slice, &mut meter)?;
    let untraced = serving::summarize(&measured.slices);
    report.note_slices(&untraced);
    report.set_load(&untraced);
    check_envelopes(&mut deployment, Some(&mut report));
    let (tally, durable) = deployment.finish()?;
    report.tally.absorb(tally);
    if args.spec.kind.is_durable() {
        report.set("disk_bytes_per_user_byte", durable.disk_bytes_per_user_byte);
        report.set("durable.shutdown_sync_ms", durable.shutdown_sync_ms);
        report.set("durable.segments", durable.segments);
    }

    let recorder = Recorder::shared();
    let mut deployment = serving::deploy(
        args.spec,
        args.seed,
        &args.data_root,
        Some(recorder.clone()),
        &mut meter,
    )?;
    let measured = deployment
        .client
        .measure(half, args.spec.slice, &mut meter)?;
    let traced = serving::summarize(&measured.slices);
    check_envelopes(&mut deployment, None);
    let mirror = deployment
        .client
        .stack
        .mirror_report()
        .expect("the traced stack has a mirror");
    let cached_views = deployment.client.stack.store_stats().cached_views;
    report.tally.absorb(deployment.finish()?.0);

    let guard = spans::lock(&recorder);
    std::fs::create_dir_all(&args.data_root)?;
    let jsonl = args
        .data_root
        .join(format!("spans-{}.jsonl", args.spec.name));
    let written = &guard.spans()[..guard.spans().len().min(JSONL_SPANS)];
    spans::write_jsonl(written, &jsonl)?;
    report.notes.push(format!(
        "first {} of {} spans written to {}",
        written.len(),
        guard.spans().len(),
        jsonl.display()
    ));

    // Every span at nominal machine speed, like the end-to-end timings.
    let split = LayerSplit::from_spans(guard.spans(), |req| {
        1.0 / measured.slices[((req - 1) / args.spec.slice) as usize].slowdown
    });
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    let requests = traced.pool.requests();
    let read_views = traced.pool.read_views();
    let [serve, store, core, durable] = split.shares();
    let (append_p50, append_p99) = split.append_p50_p99();
    let overhead = 1.0 - traced.reqs_per_s / untraced.reqs_per_s;
    for (name, value) in [
        ("serve.self_ns_per_req", per(split.serve_self_ns, requests)),
        ("serve.share", serve),
        (
            "store.read_ns_per_view",
            per(split.store_read_ns, read_views),
        ),
        (
            "store.write_ns_per_req",
            per(split.store_write_ns, traced.writes),
        ),
        ("store.share", store),
        ("store.cache_ns_per_view", per(split.cache_ns(), read_views)),
        (
            "store.probe_ns_per_write",
            per(split.probe_ns(), traced.writes),
        ),
        (
            "store.cache_hit_frac",
            per(measured.cache_hits as f64, read_views),
        ),
        ("store.views_per_read", per(read_views as f64, traced.reads)),
        ("store.cached_views", cached_views as f64),
        (
            "core.read_ns_per_view",
            per(split.mirror_read_ns, read_views),
        ),
        (
            "core.write_ns_per_req",
            per(split.mirror_write_ns, traced.writes),
        ),
        ("core.share", core),
        (
            "core.msgs_per_read",
            per(mirror.counts.read_msgs as f64, traced.reads),
        ),
        (
            "core.msgs_per_write",
            per(mirror.counts.write_msgs as f64, traced.writes),
        ),
        (
            "core.proto_msgs_per_req",
            per(mirror.counts.proto_msgs as f64, requests),
        ),
        ("core.replicas_per_view", mirror.replicas_per_view),
        ("durable.append_ns_p50", append_p50),
        ("durable.append_ns_p99", append_p99),
        ("durable.fetch_ns_p50", split.fetch_p50()),
        (
            "durable.fetches_per_read",
            per(split.fetch_ns.len() as f64, traced.reads),
        ),
        ("durable.share", durable),
        ("trace.overhead_frac", overhead),
        ("trace.spans", split.spans as f64),
    ] {
        report.set(name, value);
    }
    if let Some(c2) = args.c2_reqs_per_s {
        report.set("serve.c2_reqs_per_s", c2);
        report.set("serve.c2_over_c1", c2 / untraced.reqs_per_s);
    }

    let sum = serve + store + core + durable;
    report.notes.push(format!(
        "wall-clock split: serve {serve:.3} + store {store:.3} + core {core:.3} + durable \
         {durable:.3} = {sum:.3} of {:.0} ns per request",
        per(split.total_ns, requests)
    ));
    report.tally.check(if (sum - 1.0).abs() <= 0.02 {
        Ok(())
    } else {
        Err(format!("layer shares sum to {sum}"))
    });
    report.tally.check(if mirror.diverged_users == 0 {
        Ok(())
    } else {
        Err(format!(
            "the engine mirror diverged from the cluster on {} users",
            mirror.diverged_users
        ))
    });
    Ok(report)
}

/// `sim_replay`, end to end: set up `SETUPS` times, replay days for the
/// budget.
fn sim_end_to_end(args: &Args) -> Result<Report> {
    let mut report = Report::default();
    let mut meter = Meter::new();
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let deployment = sim::deploy(args.spec, args.seed, &mut meter)?;
        setups.push(deployment.setup.total_s());
        last = Some(deployment);
    }
    let mut deployment = last.expect("SETUPS is at least 1");
    report.set("setup_s", median(&setups).expect("SETUPS is at least 1"));
    let run = deployment.measure(args.budget(), &mut meter, &mut report.tally)?;
    report.set("peak_rss_mb", env::peak_rss_mb().unwrap_or(f64::NAN));
    write_slice_log(args, &run.slices, &meter)?;
    let summary = serving::summarize(&run.slices);
    report.set_summary(&summary);
    report.set_sim_load(&summary, run.top_switch_vs_random);
    Ok(report)
}

/// `sim_replay`, traced: exactly `QUALITY_DAYS` days through the simulator,
/// then the same days through the engine alone.
fn sim_traced(args: &Args) -> Result<Report> {
    let mut report = Report::default();
    let mut meter = Meter::new();
    let mut deployment = sim::deploy(args.spec, args.seed, &mut meter)?;
    report.set_setup_split(&deployment.setup);
    // No budget beyond the `QUALITY_DAYS` every run replays.
    let run = deployment.measure(Budget::Slices(0), &mut meter, &mut report.tally)?;
    let simulated = serving::summarize(&run.slices);
    report.note_slices(&simulated);
    report.set_sim_load(&simulated, run.top_switch_vs_random);

    let engine = deployment.engine_only(&mut meter)?;
    let alone = serving::summarize(&engine.slices);
    // The same slice holds the same requests in both replays, and a share of
    // a few percent is below what two separately disturbed runs resolve: the
    // median of the per-slice ratios is what repeats.
    let ratios: Vec<f64> = engine
        .slices
        .iter()
        .zip(&run.slices)
        .map(|(alone, simulated)| alone.nominal_busy_s() / simulated.nominal_busy_s())
        .collect();
    let engine_share = median(&ratios).unwrap_or(f64::NAN);
    let sum_ns = |ns: &[u64]| ns.iter().sum::<u64>() as f64;
    for (name, value) in [
        ("sim.accounting_share", 1.0 - engine_share),
        ("core.share", engine_share),
        (
            "core.read_ns_per_view",
            sum_ns(&alone.pool.read_ns) / alone.pool.read_views() as f64,
        ),
        (
            "core.write_ns_per_req",
            sum_ns(&alone.pool.write_ns) / alone.writes as f64,
        ),
        (
            "core.msgs_per_read",
            engine.read_msgs as f64 / alone.reads as f64,
        ),
        (
            "core.msgs_per_write",
            engine.write_msgs as f64 / alone.writes as f64,
        ),
        (
            "core.proto_msgs_per_req",
            engine.proto_msgs as f64 / alone.pool.requests() as f64,
        ),
        ("core.replicas_per_view", engine.replicas_per_view),
        (
            "store.views_per_read",
            alone.pool.read_views() as f64 / alone.reads as f64,
        ),
    ] {
        report.set(name, value);
    }

    // The engine-only replay stands in for the simulator's engine only if it
    // emitted the same messages and ended in the same placement.
    let in_sim: u64 = run
        .reports
        .iter()
        .map(|r| r.total_application_messages() + r.total_protocol_messages())
        .sum();
    let replayed = engine.read_msgs + engine.write_msgs;
    report.tally.check(
        if in_sim == replayed && engine.replicas_per_view == deployment.replicas_per_view() {
            Ok(())
        } else {
            Err(format!(
                "engine-only replay diverged: {replayed} messages against the simulator's \
                 {in_sim}"
            ))
        },
    );
    Ok(report)
}

fn contention(args: &Args) -> Result<ExitCode> {
    let (reqs_per_s, tally) = serving::contention_pass(
        args.spec,
        args.seed,
        &args.data_root,
        args.cpus as u64,
        args.seconds,
    )?;
    for failure in &tally.examples {
        println!("# {}: FAILED {failure}", args.spec.name);
    }
    println!("{} serve.c2_reqs_per_s {reqs_per_s} 1/s", args.spec.name);
    Ok(if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Refuses to run unless the process is confined to the declared CPU count.
fn check_confinement(declared: usize) -> std::result::Result<String, String> {
    let list = env::cpus_allowed_list().ok_or("cannot read Cpus_allowed_list")?;
    match env::count_cpus(&list) {
        Some(n) if n == declared => Ok(list),
        n => Err(format!(
            "this run declares {declared} CPU(s) but Cpus_allowed_list is {list:?} ({n:?} CPUs); \
             start it through benchmark/run.sh, which confines it with taskset"
        )),
    }
}

fn run(args: &Args) -> Result<ExitCode> {
    let cpus_allowed = check_confinement(args.cpus).map_err(Error::invalid_config)?;
    let var = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".to_string());
    println!(
        "# env workload={} seed={} trace={} fixed_work={} cpus_allowed={cpus_allowed} nproc={} \
         rustc={:?} commit={}",
        args.spec.name,
        args.seed,
        u8::from(args.trace),
        args.fixed_work,
        std::thread::available_parallelism().map_or(0, usize::from),
        var("DYNABENCH_RUSTC"),
        var("DYNABENCH_COMMIT"),
    );
    if args.contention {
        return contention(args);
    }
    let report = match (args.spec.kind, args.trace) {
        (Kind::SimReplay, false) => sim_end_to_end(args)?,
        (Kind::SimReplay, true) => sim_traced(args)?,
        (_, false) => serving_end_to_end(args)?,
        (_, true) => serving_traced(args)?,
    };
    Ok(report.print(args.spec.name, args.trace))
}

fn agree(a: &Path, b: &Path) -> std::io::Result<ExitCode> {
    let a = metrics::parse_metric_lines(&std::fs::read_to_string(a)?);
    let b = metrics::parse_metric_lines(&std::fs::read_to_string(b)?);
    let report = metrics::disagreements(&a, &b);
    for line in &report {
        println!("disagree {line}");
    }
    Ok(if report.is_empty() && !a.is_empty() {
        println!("agree on {} metrics", a.len());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn manifest() -> String {
    let workloads: Vec<(&str, &str)> = load::SPECS.iter().map(|s| (s.name, s.why)).collect();
    metrics::manifest(&workloads, RUN_SECONDS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [flag] if flag == "--print-manifest" => {
            print!("{}", manifest());
            Ok(ExitCode::SUCCESS)
        }
        [flag, a, b] if flag == "--agree" => {
            agree(Path::new(a), Path::new(b)).map_err(|e| e.to_string())
        }
        _ => parse_run_args(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|args| run(&args).map_err(|e| e.to_string())),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("dynabench: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_arguments_parse() {
        let args = parse_run_args(&strings(&[
            "--workload",
            "paper_mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.spec.name, "paper_mix");
        assert_eq!(
            (args.seed, args.seconds, args.trace, args.cpus),
            (7, 10.0, true, 1)
        );
        assert!(matches!(args.budget(), Budget::Seconds(s) if s == 10.0));
        let fixed = parse_run_args(&strings(&["--workload", "feed_read", "--fixed-work"])).unwrap();
        assert!(matches!(fixed.budget(), Budget::Slices(330)));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "feed_read", "--seed", "x"],
            &["--workload", "feed_read", "--seconds", "0"],
            &["--workload", "feed_read", "--seconds"],
            &["--workload", "feed_read", "--frobnicate"],
        ] {
            assert!(parse_run_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_committed_manifest_is_the_printed_one() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with dynabench --print-manifest"
        );
    }

    #[test]
    fn confinement_is_checked_against_the_declared_cpu_count() {
        let list = env::cpus_allowed_list().unwrap();
        let n = env::count_cpus(&list).unwrap();
        assert_eq!(check_confinement(n), Ok(list));
        assert!(check_confinement(n + 1).unwrap_err().contains("run.sh"));
    }
}
