//! The repository benchmark: fixed simulation workloads timed in host
//! time, with outputs checked against pinned digests. See `README.md`
//! beside this file for the workloads, metrics and how to compare two
//! commits.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|PATH] [--out PATH]
//! benchmark --check PATH
//! ```
//!
//! Run from the repository root. Without `--workload` the three engine
//! workloads `BENCHMARK.json` lists run; `paper_figures` runs only when
//! named. Each engine workload runs one discarded warm-up rep, then a
//! fixed number of timed reps that fills about `--seconds` (at least
//! five). Unless `--trace 0`, a separate traced pass follows and gives
//! the per-layer metrics; its spans go to PATH (`--trace 1`:
//! `benchmark-trace.jsonl`). Every metric prints as `name value unit`;
//! the last stdout line is one JSON object with the end-to-end metrics
//! (untraced) or the per-layer ones (traced). Exit status 1 means an
//! output check failed; the failing workload is named on stderr.

mod check;
mod cpu;
mod digest;
mod engine;
mod figures;
mod golden;
mod micro;
mod stats;
mod timed_cc;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use netsim::alloc::CountingAlloc;
use netsim::units::MS;
use simstats::json::Value;

use engine::{Engine, Rep};
use stats::Summary;
use timed_cc::Hook;
use trace::{Scope, Tracer};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const DEFAULT_SEED: u64 = 7;
/// Timed reps per run at the least, whatever `--seconds` says.
const MIN_REPS: usize = 5;
/// A run stops timing early once it has taken this many times
/// `--seconds`, so a much slower host or build still ends in time.
const MAX_STRETCH: f64 = 3.0;
/// Reps of the traced pass.
const TRACED_REPS: usize = 3;
/// Alternating single-engine and sharded rep pairs behind
/// `shard.speedup` on a traced run.
const SPEEDUP_PAIRS: usize = 5;
const DEFAULT_TRACE_PATH: &str = "benchmark-trace.jsonl";

/// End-to-end metrics (untraced reps) and their units, as listed in
/// `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 3] = [("run_s", "s"), ("setup_s", "s"), ("peak_heap_mb", "MB")];

/// Per-layer metrics every engine workload reports on a traced run, as
/// listed in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 38] = [
    ("workload.generate_s", "s"),
    ("workload.flows", "count"),
    ("topology.build_s", "s"),
    ("topology.links", "count"),
    ("sim.new_s", "s"),
    ("sim.add_flow_ns", "ns"),
    ("sim.add_flow_calls", "count"),
    ("engine.events", "count"),
    ("engine.events_scheduled", "count"),
    ("engine.peak_queue_depth", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.cpu_s", "s"),
    ("engine.parallelism", "ratio"),
    ("engine.sim_ms", "ms"),
    ("engine.run_calls", "count"),
    ("event.hold_ns", "ns"),
    ("pfq.op_ns", "ns"),
    ("int.fold_ns", "ns"),
    ("cc.calls", "count"),
    ("cc.busy_s", "s"),
    ("cc.share", "ratio"),
    ("cc.ns_per_call", "ns"),
    ("cc.on_ack.calls", "count"),
    ("cc.on_sent.calls", "count"),
    ("cc.on_cnp.calls", "count"),
    ("cc.on_switch_int.calls", "count"),
    ("cc.on_timer.calls", "count"),
    ("cc.on_data.calls", "count"),
    ("cc.getter.calls", "count"),
    ("ecn.marks", "count"),
    ("pfc.pauses", "count"),
    ("buffer.drops", "count"),
    ("host.retransmits", "count"),
    ("shard.threads", "count"),
    ("shard.partitions", "count"),
    ("shard.extra_events", "count"),
    ("alloc.calls", "count"),
    ("trace.overhead", "ratio"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Engine(Engine),
    PaperFigures,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Engine(Engine::TwoDcHadoop),
        Workload::Engine(Engine::TwoDcHadoopMc2),
        Workload::Engine(Engine::FatTreeLockstepDcqcn),
        Workload::PaperFigures,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Engine(e) => e.name(),
            Workload::PaperFigures => "paper_figures",
        }
    }

    /// Listed in `BENCHMARK.json` and run when no `--workload` is given.
    /// A `paper_figures` pass outlasts a run and its children's heap and
    /// set-up are out of reach, so it runs only when named.
    fn is_listed(self) -> bool {
        matches!(self, Workload::Engine(_))
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<PathBuf>,
    out: Option<PathBuf>,
    check: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: Some(PathBuf::from(DEFAULT_TRACE_PATH)),
        out: None,
        check: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == v)
                    .ok_or_else(|| format!("unknown workload {v}"))?;
                a.workload = Some(w);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&a.seconds) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(PathBuf::from(DEFAULT_TRACE_PATH)),
                    path => Some(PathBuf::from(path)),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--check" => a.check = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Which sample of a timing is its reported value.
#[derive(Clone, Copy)]
enum Stat {
    Median,
    /// For the engine loop. On a shared host, interference only ever
    /// adds time, and it comes in episodes long enough to move the
    /// median of a whole run; the fastest rep is the program's own cost.
    /// The fastest of more reps is lower, so every build times the same
    /// number of reps (see [`timed_reps`]).
    Fastest,
}

/// One reported number; timings carry the summary of their samples.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    summary: Option<Summary>,
    layer: bool,
}

/// Everything one workload reports.
struct Report {
    workload: &'static str,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn new(workload: &'static str) -> Self {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
        }
    }

    fn push(
        &mut self,
        name: &str,
        unit: &'static str,
        value: f64,
        summary: Option<Summary>,
        layer: bool,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            summary,
            layer,
        });
    }

    fn timing(&mut self, name: &str, unit: &'static str, samples: &[f64], layer: bool, stat: Stat) {
        let s = Summary::of(samples).expect("every timing has samples");
        let value = match stat {
            Stat::Median => s.median,
            Stat::Fastest => s.min,
        };
        self.push(name, unit, value, Some(s), layer);
    }

    /// A declared end-to-end timing.
    fn end_to_end(&mut self, name: &str, samples: &[f64], stat: Stat) {
        self.timing(name, unit_of(&END_TO_END, name), samples, false, stat);
    }

    /// A declared per-layer count or ratio.
    fn layer(&mut self, name: &str, value: f64) {
        self.push(name, unit_of(&PER_LAYER, name), value, None, true);
    }

    /// A declared per-layer timing, reported as its median.
    fn layer_timing(&mut self, name: &str, samples: &[f64]) {
        self.timing(name, unit_of(&PER_LAYER, name), samples, true, Stat::Median);
    }

    fn fail(&mut self, problem: String) {
        self.problems.push(problem);
    }
}

fn unit_of(table: &[(&str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

fn samples(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// Timed reps of one run: fixed by the workload and `--seconds` alone,
/// never by how fast the build is, so two builds are measured on the
/// same number of samples. The count fills about `--seconds` at the rep
/// times this benchmark was defined with.
fn timed_reps(w: Engine, seconds: f64) -> usize {
    MIN_REPS.max((seconds / w.nominal_rep_s()).round() as usize)
}

/// Output checks of an engine workload: every rep of the seed gives the
/// warm-up's outcome digest, which equals the pinned one at the default
/// seed and, for the sharded variant, the single engine's at any seed.
fn verify_outcomes(
    w: Engine,
    seed: u64,
    digest: u64,
    reps: &[u64],
    single_engine: Option<u64>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if reps.iter().any(|&d| d != digest) {
        problems.push("outcomes differ between reps of one seed".to_string());
    }
    if let Some(pinned) = golden::engine(w.name()).filter(|&p| seed == DEFAULT_SEED && p != digest)
    {
        problems.push(format!(
            "outcome digest {digest:016x} != pinned {pinned:016x}"
        ));
    }
    if let Some(single) = single_engine.filter(|&s| s != digest) {
        problems.push(format!(
            "outcome digest {digest:016x} != single-engine {single:016x}"
        ));
    }
    problems
}

/// Warm-up, timed reps, output checks and, with a tracer, the traced
/// pass of one in-process workload.
fn measure_engine(w: Engine, a: &Args, tracer: Option<&Tracer>) -> Result<Report, String> {
    let mut report = Report::new(w.name());
    let untraced = Scope::untraced();
    // The sharded variant must reproduce the single engine at any seed.
    let reference = if w == Engine::TwoDcHadoopMc2 {
        Some(engine::rep(Engine::TwoDcHadoop, a.seed, &untraced)?)
    } else {
        None
    };
    let warm = engine::rep(w, a.seed, &untraced)?;
    let n = timed_reps(w, a.seconds);
    let mut reps = Vec::with_capacity(n);
    let t0 = Instant::now();
    while reps.len() < n
        && (reps.len() < MIN_REPS || t0.elapsed().as_secs_f64() < MAX_STRETCH * a.seconds)
    {
        reps.push(engine::rep(w, a.seed, &untraced)?);
    }

    let digest = warm.digest;
    let digests: Vec<u64> = reps.iter().map(|r| r.digest).collect();
    let single = reference.as_ref().map(|r| r.digest);
    report.problems = verify_outcomes(w, a.seed, digest, &digests, single);
    report.attempted = reps.iter().map(|r| r.flows).sum();
    report.failed = reps.iter().map(|r| r.failed).sum();
    if report.failed > 0 {
        report.fail(format!(
            "{} of {} flows did not complete",
            report.failed, report.attempted
        ));
    }

    report.end_to_end("run_s", &samples(&reps, |r| r.run_s), Stat::Fastest);
    report.end_to_end("setup_s", &samples(&reps, |r| r.setup_s), Stat::Median);
    let heap = samples(&reps, |r| r.peak_heap_bytes as f64 / 1e6);
    report.end_to_end("peak_heap_mb", &heap, Stat::Median);

    let Some(tracer) = tracer else {
        return Ok(report);
    };
    // Each traced rep follows an untraced one, so `trace.overhead`
    // compares reps run on the same host conditions, as many of each.
    let mut traced = Vec::with_capacity(TRACED_REPS);
    let mut overhead = Vec::with_capacity(TRACED_REPS);
    for i in 0..TRACED_REPS {
        let plain = engine::rep(w, a.seed, &untraced)?;
        let t = engine::rep(w, a.seed, &tracer.run(format!("{}/{i}", w.name())))?;
        overhead.push(t.run_s / plain.run_s - 1.0);
        traced.push(t);
    }
    if traced.iter().any(|r| r.digest != digest) {
        report.fail("the traced pass changed the outcomes".into());
    }
    let first = &reps[0];
    let cc = &traced[0].cc;
    report.layer_timing("workload.generate_s", &samples(&traced, |r| r.generate_s));
    report.layer("workload.flows", first.flows as f64);
    report.layer_timing("topology.build_s", &samples(&traced, |r| r.build_s));
    report.layer("topology.links", first.links as f64);
    report.layer_timing("sim.new_s", &samples(&traced, |r| r.new_s));
    report.layer_timing(
        "sim.add_flow_ns",
        &samples(&traced, |r| r.add_flow_s * 1e9 / r.add_flow_calls as f64),
    );
    report.layer("sim.add_flow_calls", first.add_flow_calls as f64);
    report.layer("engine.events", first.events as f64);
    report.layer("engine.events_scheduled", first.events_scheduled as f64);
    report.layer("engine.peak_queue_depth", first.peak_queue_depth as f64);
    // run_s = engine.events × engine.ns_per_event, both from the fastest rep.
    report.timing(
        "engine.ns_per_event",
        unit_of(&PER_LAYER, "engine.ns_per_event"),
        &samples(&reps, |r| r.run_s * 1e9 / r.events as f64),
        true,
        Stat::Fastest,
    );
    report.layer_timing("engine.cpu_s", &samples(&reps, |r| r.cpu_s));
    let cpu: f64 = reps.iter().map(|r| r.cpu_s).sum();
    let wall: f64 = reps.iter().map(|r| r.engine_wall_s).sum();
    report.layer("engine.parallelism", cpu / wall);
    report.layer("engine.sim_ms", first.sim_time as f64 / MS as f64);
    report.layer("engine.run_calls", first.run_calls as f64);

    let hold = micro::event_hold_ns(first.peak_queue_depth as usize, &w.link_delays(), a.seed);
    report.layer_timing("event.hold_ns", &hold);
    report.layer_timing("pfq.op_ns", &micro::pfq_op_ns());
    report.layer_timing("int.fold_ns", &micro::int_fold_ns());

    report.layer("cc.calls", cc.total_calls() as f64);
    report.layer_timing(
        "cc.busy_s",
        &samples(&traced, |r| r.cc.busy_ns as f64 / 1e9),
    );
    // Busy time summed over engine threads, as a share of their time.
    let threads = f64::from(w.threads());
    report.layer_timing(
        "cc.share",
        &samples(&traced, |r| r.cc.busy_ns as f64 / 1e9 / (threads * r.run_s)),
    );
    report.layer_timing(
        "cc.ns_per_call",
        &samples(&traced, |r| r.cc.busy_ns as f64 / r.cc.timed_calls() as f64),
    );
    for h in Hook::ALL {
        report.layer(&format!("cc.{}.calls", h.name()), cc.calls(h) as f64);
    }
    report.layer("ecn.marks", first.ecn_marks as f64);
    report.layer("pfc.pauses", first.pfc_pauses as f64);
    report.layer("buffer.drops", first.buffer_drops as f64);
    report.layer("host.retransmits", first.retransmits as f64);
    report.layer("shard.threads", threads);
    report.layer("shard.partitions", first.partitions as f64);
    let extra = reference
        .as_ref()
        .map_or(0.0, |r| first.events as f64 - r.events as f64);
    report.layer("shard.extra_events", extra);
    report.layer("alloc.calls", first.alloc_calls as f64);
    report.layer_timing("trace.overhead", &overhead);
    if reference.is_some() {
        // Not in BENCHMARK.json: only the sharded workload has them.
        // Single-engine and sharded reps alternate, the same number of
        // each, so both sides see the same host and the same odds of a
        // fast rep.
        let ratios = (0..SPEEDUP_PAIRS)
            .map(|_| {
                let single = engine::rep(Engine::TwoDcHadoop, a.seed, &untraced)?;
                let sharded = engine::rep(w, a.seed, &untraced)?;
                Ok(single.run_s / sharded.run_s)
            })
            .collect::<Result<Vec<f64>, String>>()?;
        report.timing("shard.speedup", "ratio", &ratios, true, Stat::Median);
        report.push(
            "shard.wait_s",
            "s",
            (threads * wall - cpu) / reps.len() as f64,
            None,
            true,
        );
    }
    Ok(report)
}

/// Build check, one timed pass over every figure binary, stdout digests
/// and, with a tracer, one traced pass. `--seconds` does not apply: a
/// pass is the unit of work.
fn measure_figures(tracer: Option<&Tracer>) -> Result<Report, String> {
    let mut report = Report::new("paper_figures");
    let t0 = Instant::now();
    let dir = figures::build()?;
    let build_s = t0.elapsed().as_secs_f64();

    let pass = |scope: &Scope| -> Result<Vec<figures::FigureRun>, String> {
        figures::FIGURES
            .iter()
            .map(|&f| scope.span(f, |_| figures::run(&dir, f)).value)
            .collect()
    };
    let cpu_before = cpu::cpu_seconds().map_or(0.0, |c| c.1);
    let runs = pass(&Scope::untraced())?;
    let child_cpu = cpu::cpu_seconds().map_or(0.0, |c| c.1) - cpu_before;
    for (f, r) in figures::FIGURES.iter().zip(&runs) {
        report.attempted += 1;
        if !r.ok {
            report.failed += 1;
            report.fail(format!("{f} exited non-zero"));
        }
        if let Some(pinned) = golden::figure(f).filter(|&p| p != r.digest) {
            report.fail(format!(
                "{f} stdout digest {:016x} != pinned {pinned:016x}",
                r.digest
            ));
        }
    }
    let total: f64 = runs.iter().map(|r| r.secs).sum();
    report.end_to_end("run_s", &[total], Stat::Median);
    report.push("figures.build_check_s", "s", build_s, None, true);
    report.push("figures.cpu_s", "s", child_cpu, None, true);
    for (f, r) in figures::FIGURES.iter().zip(&runs) {
        report.push(&format!("figures.{f}_s"), "s", r.secs, None, true);
    }
    if let Some(tracer) = tracer {
        let traced = pass(&tracer.run("paper_figures/0".into()))?;
        let traced_total: f64 = traced.iter().map(|r| r.secs).sum();
        report.layer("trace.overhead", traced_total / total - 1.0);
    }
    Ok(report)
}

fn print_report(r: &Report, seed: u64) {
    println!("# {} (seed {seed})", r.workload);
    for m in &r.metrics {
        match &m.summary {
            Some(s) => println!(
                "{} {} {}  median {} q1 {} q3 {} min {} max {} n {} spread {:.4}",
                m.name,
                m.value,
                m.unit,
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.max,
                s.n,
                s.spread()
            ),
            None => println!("{} {} {}", m.name, m.value, m.unit),
        }
    }
    let verdict = if r.problems.is_empty() {
        "correct"
    } else {
        "WRONG"
    };
    println!(
        "# {}: outputs {verdict}; {} attempted, {} failed",
        r.workload, r.attempted, r.failed
    );
}

fn metric_json(m: &Metric) -> Value {
    let mut v = Value::object().with("value", m.value).with("unit", m.unit);
    if let Some(s) = &m.summary {
        v = v
            .with("median", s.median)
            .with("q1", s.q1)
            .with("q3", s.q3)
            .with("min", s.min)
            .with("max", s.max)
            .with("n", s.n);
    }
    v
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn run(a: &Args) -> Result<bool, String> {
    let tracer = a.trace.as_ref().map(|_| Tracer::new());
    let selected: Vec<Workload> = match a.workload {
        Some(w) => vec![w],
        None => Workload::ALL.into_iter().filter(|w| w.is_listed()).collect(),
    };
    let mut reports = Vec::new();
    for w in selected {
        eprintln!(
            "benchmark: {} (seed {}, nproc {})",
            w.name(),
            a.seed,
            nproc()
        );
        let r = match w {
            Workload::Engine(e) => measure_engine(e, a, tracer.as_ref()),
            Workload::PaperFigures => measure_figures(tracer.as_ref()),
        }
        .map_err(|e| format!("{}: {e}", w.name()))?;
        print_report(&r, a.seed);
        for p in &r.problems {
            eprintln!("benchmark: FAILED {}: {p}", r.workload);
        }
        reports.push(r);
    }
    if let (Some(t), Some(path)) = (&tracer, &a.trace) {
        std::fs::write(path, t.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let correct = reports.iter().all(|r| r.problems.is_empty());
    if let Some(path) = &a.out {
        let mut workloads = Value::object();
        for r in &reports {
            let mut metrics = Value::object();
            for m in &r.metrics {
                metrics.set(&m.name, metric_json(m));
            }
            let problems: Vec<Value> = r.problems.iter().map(|p| Value::from(p.as_str())).collect();
            workloads.set(
                r.workload,
                Value::object()
                    .with("correct", r.problems.is_empty())
                    .with("attempted", r.attempted)
                    .with("failed", r.failed)
                    .with("problems", Value::Array(problems))
                    .with("metrics", metrics),
            );
        }
        let doc = Value::object()
            .with("seed", a.seed)
            .with("seconds", a.seconds)
            .with("nproc", nproc())
            .with("trace", a.trace.is_some())
            .with("workloads", workloads);
        std::fs::write(path, doc.to_json_pretty() + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    // The last line: the metrics BENCHMARK.json lists, end-to-end ones
    // on an untraced run and per-layer ones on a traced run, keyed
    // `workload/metric` when several workloads ran.
    let mut metrics = Value::object();
    for r in &reports {
        let listed = r
            .metrics
            .iter()
            .filter(|m| m.layer == a.trace.is_some() && declared(&m.name));
        for m in listed {
            let key = match a.workload {
                Some(_) => m.name.clone(),
                None => format!("{}/{}", r.workload, m.name),
            };
            metrics.set(
                &key,
                Value::object().with("value", m.value).with("unit", m.unit),
            );
        }
    }
    let line = Value::object()
        .with("correct", correct)
        .with(
            "attempted",
            reports.iter().map(|r| r.attempted).sum::<u64>(),
        )
        .with("failed", reports.iter().map(|r| r.failed).sum::<u64>())
        .with("metrics", metrics);
    println!("{}", line.to_json());
    Ok(correct)
}

/// Whether `name` is listed in `BENCHMARK.json`.
fn declared(name: &str) -> bool {
    END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &a.check {
        let read = |p: &std::path::Path| {
            std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))
        };
        let verdict = read(path)
            .and_then(|results| Ok((results, read("BENCHMARK.json".as_ref())?)))
            .and_then(|(results, spec)| check::check(&results, &spec));
        match verdict {
            Ok(problems) if problems.is_empty() => println!("{}: ok", path.display()),
            Ok(problems) => {
                for p in problems {
                    eprintln!("benchmark --check: {p}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("benchmark --check: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    match run(&a) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::flow::{FlowOutcome, OutcomeRecord};
    use netsim::types::{FlowId, NodeId};

    /// The metric tables here and the lists in `BENCHMARK.json` agree.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|p| p.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the package");
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
        let spec = check::parse(&text).unwrap();
        let own = |t: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(
            check::listed(&spec, "end_to_end").unwrap(),
            own(&END_TO_END)
        );
        assert_eq!(check::listed(&spec, "per_layer").unwrap(), own(&PER_LAYER));
        let workloads: Vec<(String, Option<String>)> = Workload::ALL
            .iter()
            .filter(|w| w.is_listed())
            .map(|w| (w.name().to_string(), None))
            .collect();
        assert_eq!(check::listed(&spec, "workloads").unwrap(), workloads);
    }

    #[test]
    fn output_check_rejects_a_one_field_change() {
        let w = Engine::TwoDcHadoopMc2;
        let pinned = golden::engine(w.name()).unwrap();
        assert!(verify_outcomes(w, DEFAULT_SEED, pinned, &[pinned], Some(pinned)).is_empty());

        let rec = OutcomeRecord {
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: 1000,
            bytes_acked: 1000,
            start: 0,
            ended: 5_000,
            outcome: FlowOutcome::Completed,
        };
        let d = digest::outcome_digest(&[rec]);
        let edited = digest::outcome_digest(&[OutcomeRecord {
            ended: 5_001,
            ..rec
        }]);
        assert!(verify_outcomes(w, 11, d, &[d, d], Some(d)).is_empty());
        // The edit shows as a rep that disagrees, as a sharded run that
        // disagrees with the single engine, and against the pin.
        assert_eq!(verify_outcomes(w, 11, d, &[d, edited], Some(d)).len(), 1);
        assert_eq!(verify_outcomes(w, 11, edited, &[edited], Some(d)).len(), 1);
        assert_eq!(
            verify_outcomes(w, DEFAULT_SEED, edited, &[edited], Some(edited)).len(),
            1
        );
    }

    #[test]
    fn timed_rep_count_depends_on_seconds_only() {
        assert_eq!(timed_reps(Engine::TwoDcHadoop, 0.0), MIN_REPS);
        assert_eq!(timed_reps(Engine::TwoDcHadoop, 20.0), 20);
        assert_eq!(timed_reps(Engine::TwoDcHadoopMc2, 20.0), 36);
    }

    #[test]
    fn arguments_parse_and_reject_unknown_flags() {
        let args = [
            "--workload",
            "two_dc_hadoop",
            "--seed",
            "11",
            "--seconds",
            "20",
            "--trace",
            "0",
        ];
        let a = parse_args(&args.map(String::from)).unwrap();
        assert_eq!(a.workload, Some(Workload::Engine(Engine::TwoDcHadoop)));
        assert_eq!((a.seed, a.seconds, a.trace.is_none()), (11, 20.0, true));
        let traced = parse_args(&["--trace", "spans.jsonl"].map(String::from)).unwrap();
        assert_eq!(traced.trace, Some(PathBuf::from("spans.jsonl")));
        assert!(parse_args(&["--bogus".to_string()]).is_err());
        assert!(parse_args(&["--seed".to_string()]).is_err());
        assert!(parse_args(&["--workload", "nope"].map(String::from)).is_err());
    }
}
