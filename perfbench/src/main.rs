//! Campaign benchmark for RustFI: whole fault-injection campaigns run
//! through the public API, timed from outside.
//!
//! Three workloads, each putting most of its work in a different layer:
//!
//! - `vgg19-neuron-backhalf`: `tensor`/`nn` kernels with every throughput
//!   mechanism on (prefix cache, trial fusion, compiled plans, tensor pool);
//! - `resnet110-weight-int8`: INT8 weight faults, where fusion stands down
//!   and each trial writes into the weights it reads;
//! - `lenet-fleet-2shard`: the `fleet`/journal/telemetry I/O path, two shard
//!   worker processes (this executable, re-executed as the worker).
//!
//! Every campaign is a closed loop with one client, this process. An
//! in-process campaign runs on one thread confined to one CPU; each fleet
//! worker likewise, on a CPU of its own. A run measures for `--seconds`,
//! checks that the records it produced equal an unaccelerated single-thread
//! reference, and prints as its last line one JSON object: the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics of a traced run.
//! `trials_per_s` is the rate of the fastest timed repetition, `setup_s`
//! the median of set-up repetitions spread over the run (one before each
//! timed repetition), `peak_rss_mb` the median over timed repetitions.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! `--workload all` runs every workload and prints each metric with its
//! unit. `--smoke` runs all three workloads at tiny sizes, traced and
//! untraced, and checks that every metric named in `BENCHMARK.json` is
//! emitted. Scratch files (fleet journals, traces) go to `.perfbench/` in
//! the working directory; fleet journals are deleted after each fleet.

mod campaigns;
mod fleet;
mod kernels;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

// Counts heap allocations per thread for `tensor.forward_allocs`.
#[global_allocator]
static ALLOC: rustfi_bench::alloc_count::CountingAlloc = rustfi_bench::alloc_count::CountingAlloc;

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = [
    "vgg19-neuron-backhalf",
    "resnet110-weight-int8",
    "lenet-fleet-2shard",
];

/// End-to-end metrics `(name, unit)`, emitted by untraced runs.
const END_TO_END: [(&str, &str); 3] = [
    ("trials_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, emitted by traced runs. Every
/// workload emits all of them; one that does not exercise a layer reports
/// 0 for it (no journal bytes in an in-process campaign, for example).
const PER_LAYER: [(&str, &str); 42] = [
    ("failed_frac", "frac"),
    ("core.build_s", "s"),
    ("core.golden_s", "s"),
    ("core.trial_p50_us", "us"),
    ("core.trial_p99_us", "us"),
    ("core.trial_samples", "count"),
    ("core.prefix_hit_rate", "frac"),
    ("core.prefix_skipped_mflop_per_trial", "MFLOP"),
    ("core.fused_frac", "frac"),
    ("core.fused_mean_width", "count"),
    ("core.journal_bytes_per_trial", "B"),
    ("core.journal_read_s", "s"),
    ("core.merge_s", "s"),
    ("nn.self_us_per_trial.conv", "us"),
    ("nn.self_us_per_trial.linear", "us"),
    ("nn.self_us_per_trial.norm", "us"),
    ("nn.self_us_per_trial.act", "us"),
    ("nn.self_us_per_trial.pool", "us"),
    ("nn.self_us_per_trial.container", "us"),
    ("nn.layer_calls_per_trial", "count"),
    ("nn.hook_dispatches_per_trial", "count"),
    ("nn.conv_gflops", "GFLOP/s"),
    ("tensor.conv2d_calls_per_trial", "count"),
    ("tensor.matmul_calls_per_trial", "count"),
    ("tensor.matmul_i8_calls_per_trial", "count"),
    ("tensor.elementwise_calls_per_trial", "count"),
    ("tensor.gemm_f32_gflops", "GFLOP/s"),
    ("tensor.gemm_f32_packed_gflops", "GFLOP/s"),
    ("tensor.gemm_i8_gops", "GOP/s"),
    ("tensor.gemm_peak_gflops", "GFLOP/s"),
    ("tensor.pool_hit_rate", "frac"),
    ("tensor.forward_allocs", "count"),
    ("obs.sidecar_bytes_per_trial", "B"),
    ("obs.telemetry_merge_s", "s"),
    ("obs.trace_overhead", "frac"),
    ("fleet.worker_setup_s", "s"),
    ("fleet.worker_run_s", "s"),
    ("fleet.supervise_overhead_s", "s"),
    ("fleet.orchestrator_cpu_s", "s"),
    ("fleet.spawns", "count"),
    ("fleet.restarts", "count"),
    ("fleet.hung_kills", "count"),
];

/// How one run is to be made.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Tiny sizes for the self-test.
    pub smoke: bool,
}

impl RunSpec {
    /// Whether another repetition of an untimed preparation step is due:
    /// at least 11, and more until they have taken 1.5 s, at most 101.
    pub fn setup_due(&self, done: usize, started: Instant) -> bool {
        if self.smoke {
            return done < 2;
        }
        done < 11 || (done < 101 && started.elapsed().as_secs_f64() < 1.5)
    }

    /// Fewest set-up repetitions of a run (`setup_s` is their median).
    /// Workloads set up once before each timed repetition, so that the
    /// median spans the whole run, and top up to this count at the end.
    pub fn min_setups(&self) -> usize {
        if self.smoke {
            2
        } else {
            11
        }
    }

    /// Minimum timed repetitions of each kind (untraced, traced).
    fn min_reps(&self) -> usize {
        if self.smoke {
            2
        } else {
            5
        }
    }

    /// Untimed repetitions first: the first few run measurably slower.
    fn warmup_reps(&self) -> usize {
        if self.smoke {
            0
        } else {
            3
        }
    }
}

/// What a repetition of a run's timed phase is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rep {
    /// Run but not timed.
    Warmup,
    /// Untraced: gives `trials_per_s`.
    Plain,
    /// Traced: feeds the per-layer metrics.
    Traced,
}

/// Schedules a run's repetitions: warm-up first, then untraced ones (in
/// the traced run alternating with traced ones) until each kind has its
/// minimum count and `seconds` have passed since timing began.
pub struct Reps {
    spec: RunSpec,
    done: usize,
    start: Option<Instant>,
    /// Trials per second of each untraced repetition.
    pub plain: Vec<f64>,
    /// Peak resident megabytes of each untraced repetition.
    pub plain_rss: Vec<f64>,
    /// Trials per second of each traced repetition.
    pub traced: Vec<f64>,
    /// Trials of one repetition.
    trials: f64,
    /// Shortest wall time each part of a repetition took (one part per
    /// campaign, or the whole fleet) over the untraced repetitions.
    best_parts: Vec<f64>,
}

impl Reps {
    pub fn new(spec: RunSpec) -> Self {
        Self {
            spec,
            done: 0,
            start: None,
            plain: Vec::new(),
            plain_rss: Vec::new(),
            traced: Vec::new(),
            trials: 0.0,
            best_parts: Vec::new(),
        }
    }

    /// The next repetition's kind, or `None` when the run is over.
    pub fn next_rep(&mut self) -> Option<Rep> {
        let warmup = self.spec.warmup_reps();
        if self.done < warmup {
            return Some(Rep::Warmup);
        }
        let start = *self.start.get_or_insert_with(Instant::now);
        let min = self.spec.min_reps();
        let enough = self.plain.len() >= min && (!self.spec.trace || self.traced.len() >= min);
        if enough && start.elapsed().as_secs_f64() >= self.spec.seconds {
            return None;
        }
        let traced = self.spec.trace && (self.done - warmup) % 2 == 1;
        Some(if traced { Rep::Traced } else { Rep::Plain })
    }

    /// Books a finished repetition of `kind` that ran `trials` trials in
    /// parts taking `part_secs` of wall time each, and peaked at
    /// `peak_rss_mb`. Every repetition of a run has the same parts.
    pub fn record(&mut self, kind: Rep, trials: f64, part_secs: &[f64], peak_rss_mb: f64) {
        self.done += 1;
        let trials_per_s = trials / part_secs.iter().sum::<f64>();
        match kind {
            Rep::Warmup => {}
            Rep::Plain => {
                self.plain.push(trials_per_s);
                self.plain_rss.push(peak_rss_mb);
                if self.best_parts.is_empty() {
                    self.trials = trials;
                    self.best_parts = part_secs.to_vec();
                }
                for (best, &s) in self.best_parts.iter_mut().zip(part_secs) {
                    *best = best.min(s);
                }
            }
            Rep::Traced => self.traced.push(trials_per_s),
        }
    }

    /// `trials_per_s`: a repetition's trials over the sum of the shortest
    /// time each of its parts took in any untraced repetition. On a shared
    /// host, other tenants' load comes and goes over seconds to minutes and
    /// only ever slows a part down, so the median rate of a run moves with
    /// the load it happened to meet, while the best of many short runs of
    /// each part tracks what the program can do.
    pub fn best_rate(&self) -> f64 {
        ratio(self.trials, self.best_parts.iter().sum())
    }

    /// Untraced over traced median rate, minus one.
    pub fn trace_overhead(&self) -> f64 {
        ratio(median(&self.plain), median(&self.traced)) - 1.0
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Trials the timed phase attempted.
    pub attempted: u64,
    /// Trials missing from a result, or whose record diverged.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Keeps only the metrics the run reports (end-to-end or per-layer).
    fn select(&mut self, trace: bool) {
        if trace {
            let frac = ratio(self.failed as f64, self.attempted as f64);
            self.metrics.insert("failed_frac", frac);
        }
        let names = reported(trace);
        self.metrics.retain(|k, _| names.contains(k));
    }
}

/// The metrics a run reports: per-layer when traced, else end-to-end.
fn reported(trace: bool) -> Vec<&'static str> {
    let table: &[(&'static str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    table.iter().map(|m| m.0).collect()
}

/// The result line: `correct`, `attempted`, `failed` and each metric with
/// its unit.
fn json_line(out: &Outcome, metrics: &[(String, f64)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(k, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{k}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                unit_of(k)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// The unit of a metric, whose name may carry a `<workload>.` prefix.
fn unit_of(key: &str) -> &'static str {
    let name = WORKLOADS
        .iter()
        .find_map(|w| key.strip_prefix(w)?.strip_prefix('.'))
        .unwrap_or(key);
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.0 == name)
        .map_or("", |m| m.1)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Where scratch files go: `.perfbench/` in the working directory.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

fn run_workload(name: &str, spec: RunSpec) -> Outcome {
    let mut out = match name {
        "vgg19-neuron-backhalf" => campaigns::run(&campaigns::vgg19_neuron_backhalf(spec), spec),
        "resnet110-weight-int8" => campaigns::run(&campaigns::resnet110_weight_int8(spec), spec),
        "lenet-fleet-2shard" => fleet::run(spec),
        other => unreachable!("workload {other} was validated"),
    };
    out.select(spec.trace);
    out
}

fn print_table(workload: &str, out: &Outcome) {
    println!(
        "{workload}: {} trials attempted, {} failed",
        out.attempted, out.failed
    );
    for (k, v) in &out.metrics {
        println!("  {k:<40} {v:>16.6} {}", unit_of(k));
    }
}

struct Args {
    workload: String,
    spec: RunSpec,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --smoke",
        WORKLOADS.join("|")
    );
    std::process::exit(64);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut spec = RunSpec {
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            spec.smoke = true;
            continue;
        }
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => spec.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => spec.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                spec.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let workload = match (workload, spec.smoke) {
        (Some(w), false) if w == "all" || WORKLOADS.contains(&w.as_str()) => w,
        (None, true) => String::from("all"),
        _ => usage(),
    };
    Args { workload, spec }
}

/// Runs every workload at tiny sizes, untraced and traced, and checks that
/// each emits exactly the metrics `BENCHMARK.json` names.
fn smoke(seed: u64) -> bool {
    let mut ok = true;
    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        let names = WORKLOADS
            .iter()
            .chain(END_TO_END.iter().map(|m| &m.0))
            .chain(PER_LAYER.iter().map(|m| &m.0));
        for name in names {
            if !text.contains(&format!("\"name\": \"{name}\"")) {
                eprintln!("smoke: BENCHMARK.json does not name {name}");
                ok = false;
            }
        }
        let listed = text.matches("\"name\":").count();
        let known = WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len();
        if listed != known {
            eprintln!("smoke: BENCHMARK.json lists {listed} names, the benchmark knows {known}");
            ok = false;
        }
    }
    for workload in WORKLOADS {
        for trace in [false, true] {
            let spec = RunSpec {
                seed,
                seconds: 0.0,
                trace,
                smoke: true,
            };
            let out = run_workload(workload, spec);
            let emitted: Vec<&str> = out.metrics.keys().copied().collect();
            let mut expected = reported(trace);
            expected.sort_unstable();
            let good = emitted == expected && out.correct();
            println!(
                "smoke {workload} trace={}: {} metrics, correct={} {}",
                u8::from(trace),
                emitted.len(),
                out.correct(),
                if good { "ok" } else { "FAILED" }
            );
            ok &= good;
        }
    }
    ok
}

fn main() {
    if let Some(w) = rustfi_fleet::worker_env() {
        fleet::worker_main(&w);
        return;
    }
    let args = parse_args();
    // The fleet testbed reads its campaign from the environment; export it
    // while this process is still single-threaded.
    fleet::export_testbed_env(args.spec.seed);
    if args.spec.smoke {
        let ok = smoke(args.spec.seed);
        println!("{{\"smoke\": {ok}}}");
        std::process::exit(if ok { 0 } else { 1 });
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut total = Outcome::default();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for name in &names {
        let out = run_workload(name, args.spec);
        print_table(name, &out);
        total.attempted += out.attempted;
        total.failed += out.failed;
        for (k, v) in out.metrics {
            let key = if names.len() == 1 {
                k.to_string()
            } else {
                format!("{name}.{k}")
            };
            metrics.push((key, v));
        }
    }
    println!("{}", json_line(&total, &metrics));
    if !total.correct() {
        std::process::exit(1);
    }
}
