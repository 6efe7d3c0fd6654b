//! `lenet-fleet-2shard`: a campaign sharded over two worker processes by
//! `rustfi_fleet::orchestrate`, each worker this executable re-executed.
//!
//! Per-trial compute is tiny, so journal appends, telemetry sidecar writes,
//! the orchestrator's journal polling and the merges dominate. Workers run
//! `run_shard_worker_observed` over the fleet `Testbed` (lenet, neuron FP32
//! bit flips, fusion width 8, one thread and one CPU each), and report
//! their own set-up and run times in a small file next to their journal.

use crate::campaigns::{diverging, net_metrics, op_metrics, reference};
use crate::trace::{timed, BenchRecorder};
use crate::{median, ratio, scratch_dir, sys, Outcome, Rep, Reps, RunSpec};
use rustfi::shard::{merge_shard_journals, plan_shards};
use rustfi::{read_journal, ModelProfile, TrialRecord};
use rustfi_fleet::testbed::Testbed;
use rustfi_fleet::{
    orchestrate, run_shard_worker_observed, FleetConfig, FleetReport, WorkerEnv, ENV_SHARD_ATTEMPT,
    ENV_SHARD_COUNT, ENV_SHARD_INDEX, ENV_SHARD_JOURNAL, ENV_SHARD_TELEMETRY,
};
use rustfi_obs::{merge_shard_telemetry, names, Recorder};
use rustfi_tensor::opcount::{self, OpCounts};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tells a worker to count kernel calls (traced run only).
const ENV_OPCOUNT: &str = "PERFBENCH_OPCOUNT";

/// Per-layer metrics only a fleet exercises; in-process workloads report 0.
pub const FLEET_ONLY: [&str; 12] = [
    "core.journal_bytes_per_trial",
    "core.journal_read_s",
    "core.merge_s",
    "obs.sidecar_bytes_per_trial",
    "obs.telemetry_merge_s",
    "fleet.worker_setup_s",
    "fleet.worker_run_s",
    "fleet.supervise_overhead_s",
    "fleet.orchestrator_cpu_s",
    "fleet.spawns",
    "fleet.restarts",
    "fleet.hung_kills",
];

/// The testbed campaign every fleet process rebuilds from the environment:
/// lenet over 6 images, seeded trials, fusion width 8, one thread per
/// worker. Exported into this process so workers inherit it and the
/// in-process reference sees the same campaign.
pub fn export_testbed_env(seed: u64) {
    for (k, v) in [
        ("RUSTFI_MODEL", String::from("lenet")),
        ("RUSTFI_SEED", seed.to_string()),
        ("RUSTFI_IMAGES", String::from("6")),
        ("RUSTFI_FUSION", String::from("8")),
        ("RUSTFI_THREADS", String::from("1")),
    ] {
        std::env::set_var(k, v);
    }
}

/// The fleet over `trials` trials: two shards, journals in `dir`, stock
/// supervision settings.
fn fleet_config(trials: usize, dir: PathBuf) -> FleetConfig {
    FleetConfig::new(trials, 2, dir)
}

/// What a worker measured around its own calls.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerStats {
    /// Testbed build: model, images and label probe.
    setup_s: f64,
    /// `run_shard_worker_observed`, golden pass included.
    run_s: f64,
    /// The worker's `VmHWM` at exit.
    peak_rss_mb: f64,
    /// Kernel calls, counted in the traced run only.
    ops: OpCounts,
}

impl WorkerStats {
    /// Where a worker leaves its stats: next to its journal.
    fn path(journal: &Path) -> PathBuf {
        journal.with_extension("perfbench")
    }

    fn write(&self, journal: &Path) -> std::io::Result<()> {
        let o = &self.ops;
        let line = format!(
            "{} {} {} {} {} {} {}\n",
            self.setup_s,
            self.run_s,
            self.peak_rss_mb,
            o.conv2d,
            o.matmul,
            o.matmul_i8,
            o.elementwise
        );
        std::fs::write(Self::path(journal), line)
    }

    fn read(journal: &Path) -> Option<Self> {
        let text = std::fs::read_to_string(Self::path(journal)).ok()?;
        let v: Vec<f64> = text
            .split_whitespace()
            .map(|x| x.parse().ok())
            .collect::<Option<_>>()?;
        let &[setup_s, run_s, peak_rss_mb, conv2d, matmul, matmul_i8, elementwise] = v.as_slice()
        else {
            return None;
        };
        let ops = OpCounts {
            conv2d: conv2d as u64,
            matmul: matmul as u64,
            matmul_i8: matmul_i8 as u64,
            elementwise: elementwise as u64,
            ..OpCounts::default()
        };
        Some(Self {
            setup_s,
            run_s,
            peak_rss_mb,
            ops,
        })
    }
}

/// Worker mode: run this shard and leave its [`WorkerStats`].
pub fn worker_main(w: &WorkerEnv) {
    // One core per worker, shard `i` on the `i`-th: the shards then run
    // side by side and each one's kernels run inline.
    let _one_cpu = sys::one_cpu(w.index);
    let start = Instant::now();
    opcount::enable(std::env::var(ENV_OPCOUNT).is_ok_and(|v| v == "1"));
    let tb = Testbed::from_env();
    let cfg = tb.campaign_config();
    let factory = tb.factory();
    let campaign = tb.campaign(&factory);
    let spec = plan_shards(cfg.trials, w.count)[w.index];
    let setup_s = start.elapsed().as_secs_f64();
    let run_start = Instant::now();
    let result = run_shard_worker_observed(
        &campaign,
        &cfg,
        &spec,
        &w.journal,
        w.attempt as u32,
        Duration::from_secs(1),
    );
    let run_s = run_start.elapsed().as_secs_f64();
    if let Err(e) = result {
        eprintln!("shard {} failed: {e}", w.index);
        std::process::exit(1);
    }
    let stats = WorkerStats {
        setup_s,
        run_s,
        peak_rss_mb: sys::peak_rss_mb(),
        ops: opcount::counts(),
    };
    stats.write(&w.journal).expect("write worker stats");
}

/// One fleet, start to merged report.
struct FleetRun {
    wall_s: f64,
    /// Largest `VmHWM` of the orchestrator (during this fleet) and workers.
    peak_rss_mb: f64,
    report: FleetReport,
}

/// The I/O and supervision figures of a traced fleet.
#[derive(Default)]
struct FleetStats {
    journal_bytes: f64,
    sidecar_bytes: f64,
    journal_read_s: f64,
    merge_s: f64,
    telemetry_merge_s: f64,
    worker_setup_s: f64,
    worker_run_s: f64,
    supervise_overhead_s: f64,
    orchestrator_cpu_s: f64,
    ops: [u64; 4],
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// Runs one fleet of `trials` trials in a fresh journal directory, which is
/// deleted afterwards. With `rec`, also measures the journal and telemetry
/// I/O the fleet left behind and folds the workers' spans into `rec`.
fn fleet(trials: usize, rec: Option<&Arc<BenchRecorder>>) -> (FleetRun, Option<FleetStats>) {
    static FLEETS: AtomicUsize = AtomicUsize::new(0);
    let n = FLEETS.fetch_add(1, Ordering::Relaxed);
    let dir = scratch_dir().join(format!("fleet-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = fleet_config(trials, dir.clone());
    cfg.recorder = rec.map(|r| Arc::clone(r) as Arc<dyn Recorder>);
    let r = rec.map(|r| &**r);
    let exe = std::env::current_exe().expect("own executable path");
    sys::reset_peak_rss();
    let cpu0 = sys::cpu_s();
    let (report, wall_s) = timed(r, "fleet.orchestrate", || {
        orchestrate(&cfg, |spec, path, attempt| {
            Command::new(&exe)
                .env(ENV_SHARD_INDEX, spec.index.to_string())
                .env(ENV_SHARD_COUNT, spec.count.to_string())
                .env(ENV_SHARD_JOURNAL, path)
                .env(ENV_SHARD_ATTEMPT, attempt.to_string())
                .env(ENV_SHARD_TELEMETRY, "1")
                .env("RUSTFI_TRIALS", trials.to_string())
                .env(ENV_OPCOUNT, if rec.is_some() { "1" } else { "0" })
                .stdout(Stdio::null())
                .spawn()
        })
    });
    let orchestrator_cpu_s = sys::cpu_s() - cpu0;
    let report = report.expect("fleet orchestration");
    let journals: Vec<PathBuf> = plan_shards(trials, cfg.shards)
        .iter()
        .map(|s| s.journal_path(&dir))
        .collect();
    let workers: Vec<WorkerStats> = journals
        .iter()
        .filter_map(|j| WorkerStats::read(j))
        .collect();
    let peak_rss_mb = workers
        .iter()
        .map(|w| w.peak_rss_mb)
        .fold(sys::peak_rss_mb(), f64::max);
    let stats = rec.map(|rec| {
        let sidecars: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("fleet dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.to_string_lossy().ends_with(".telemetry.jsonl"))
            .collect();
        let count = workers.len().max(1) as f64;
        let slowest = workers
            .iter()
            .map(|w| w.setup_s + w.run_s)
            .fold(0.0, f64::max);
        let mut st = FleetStats {
            journal_bytes: journals.iter().map(|p| file_len(p)).sum(),
            sidecar_bytes: sidecars.iter().map(|p| file_len(p)).sum(),
            worker_setup_s: workers.iter().map(|w| w.setup_s).sum::<f64>() / count,
            worker_run_s: workers.iter().map(|w| w.run_s).sum::<f64>() / count,
            supervise_overhead_s: wall_s - slowest,
            orchestrator_cpu_s,
            ..FleetStats::default()
        };
        for w in &workers {
            let o = &w.ops;
            for (total, n) in
                st.ops
                    .iter_mut()
                    .zip([o.conv2d, o.matmul, o.matmul_i8, o.elementwise])
            {
                *total += n;
            }
        }
        (_, st.journal_read_s) = timed(Some(rec), "core.read_journal", || {
            read_journal(&journals[0]).expect("read shard journal")
        });
        (_, st.merge_s) = timed(Some(rec), "core.merge_shard_journals", || {
            merge_shard_journals(&journals).expect("merge shard journals")
        });
        let (telemetry, secs) = timed(Some(rec), "obs.merge_shard_telemetry", || {
            merge_shard_telemetry(&sidecars)
        });
        st.telemetry_merge_s = secs;
        // The workers' spans and counters, as their sidecars kept them.
        for lane in telemetry.lanes {
            rec.merge(lane.batch);
        }
        st
    });
    let _ = std::fs::remove_dir_all(&dir);
    let run = FleetRun {
        wall_s,
        peak_rss_mb,
        report,
    };
    (run, stats)
}

/// Trials missing from a fleet's merged report; at least one when the
/// report is incomplete.
fn missing(run: &FleetRun, trials: usize) -> u64 {
    let got = run.report.merged.as_ref().map_or(0, |m| m.records.len());
    let incomplete = usize::from(!run.report.is_complete());
    (trials - got).max(incomplete) as u64
}

/// Runs the fleet workload for `spec.seconds` and reports its metrics.
pub fn run(spec: RunSpec) -> Outcome {
    let trials = if spec.smoke { 48 } else { 10_000 };
    let check_trials = if spec.smoke { 8 } else { 200 };
    let mut out = Outcome::default();

    // In-process build and golden pass of the same testbed.
    let tb = Testbed::from_env();
    let factory = tb.factory();
    let input_dims = {
        let d = tb.images.dims();
        [1, d[1], d[2], d[3]]
    };
    let profile = ModelProfile::discover(&mut factory(), input_dims);
    let rec = spec.trace.then(|| Arc::new(BenchRecorder::new(&profile)));
    let r = rec.as_deref();
    let (mut build_s, mut golden_s) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while spec.setup_due(build_s.len(), started) {
        let (tb, b) = timed(r, "core.build", || {
            let tb = Testbed::from_env();
            ModelProfile::discover(&mut tb.factory()(), input_dims);
            tb
        });
        let factory = tb.factory();
        let golden = rustfi::CampaignConfig {
            trials: 0,
            ..tb.campaign_config()
        };
        let (res, g) = timed(r, "core.golden", || tb.campaign(&factory).run(&golden));
        res.expect("golden pass");
        build_s.push(b);
        golden_s.push(g);
    }

    // Set-up: the same fleet over one trial per shard, before each timed
    // fleet.
    let mut setup_s = Vec::new();
    let mut set_up = |out: &mut Outcome| {
        let (run, _) = fleet(2, None);
        out.failed += missing(&run, 2);
        setup_s.push(run.wall_s);
    };

    // Timed fleets; traced ones carry the recorder and I/O measurements.
    let mut reps = Reps::new(spec);
    let mut stats: Vec<FleetStats> = Vec::new();
    let (mut spawns, mut restarts, mut hung_kills) = (0u64, 0u64, 0u64);
    let mut first: Option<Vec<TrialRecord>> = None;
    let mut setups = 0;
    while let Some(kind) = reps.next_rep() {
        if kind != Rep::Warmup {
            set_up(&mut out);
            setups += 1;
        }
        let traced = kind == Rep::Traced;
        let (run, st) = fleet(trials, if traced { rec.as_ref() } else { None });
        out.attempted += trials as u64;
        out.failed += missing(&run, trials);
        spawns += run.report.spawns;
        restarts += run.report.restarts;
        hung_kills += run.report.hung_kills;
        stats.extend(st);
        reps.record(kind, trials as f64, &[run.wall_s], run.peak_rss_mb);
        let records = run.report.merged.map(|m| m.records).unwrap_or_default();
        match &first {
            Some(f) => out.failed += diverging(f, &records),
            None => first = Some(records),
        }
    }
    while setups < spec.min_setups() {
        set_up(&mut out);
        setups += 1;
    }
    let fleets = (out.attempted / trials as u64) as f64;
    let first = first.expect("at least one fleet");

    // Outputs check: the merged report's leading trials against the same
    // range run in process, unaccelerated, through `run_shard`.
    let dir = scratch_dir().join(format!("reference-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create reference dir");
    let timed_cfg = rustfi::CampaignConfig {
        trials,
        ..tb.campaign_config()
    };
    let cfg = reference(&timed_cfg, check_trials);
    let shard = plan_shards(cfg.trials, 1)[0];
    match tb
        .campaign(&factory)
        .run_shard(&cfg, &shard, &shard.journal_path(&dir))
    {
        Ok(want) => out.failed += diverging(&want.records, &first[..check_trials.min(first.len())]),
        Err(e) => {
            eprintln!("lenet-fleet-2shard: reference shard failed: {e}");
            out.failed += check_trials as u64;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let m = &mut out.metrics;
    m.insert("trials_per_s", reps.best_rate());
    m.insert("setup_s", median(&setup_s));
    m.insert("peak_rss_mb", median(&reps.plain_rss));
    m.insert("core.build_s", median(&build_s));
    m.insert("core.golden_s", median(&golden_s));
    m.insert("fleet.spawns", spawns as f64 / fleets);
    m.insert("fleet.restarts", restarts as f64 / fleets);
    m.insert("fleet.hung_kills", hung_kills as f64 / fleets);
    if let Some(rec) = &rec {
        let traced_trials = (trials * stats.len()).max(1) as f64;
        let (agg, counters) = rec.take();
        agg.report(m, &counters, traced_trials);
        let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
        let hits = counter(names::CAMPAIGN_PREFIX_HITS);
        let lookups = hits + counter(names::CAMPAIGN_PREFIX_MISSES);
        m.insert("core.prefix_hit_rate", ratio(hits, lookups));
        m.insert(
            "core.prefix_skipped_mflop_per_trial",
            counter(names::CAMPAIGN_PREFIX_SKIPPED_FLOPS) / traced_trials * 1e-6,
        );
        let fused = counter(names::CAMPAIGN_FUSED_TRIALS);
        m.insert("core.fused_frac", fused / traced_trials);
        m.insert(
            "core.fused_mean_width",
            ratio(fused, counter(names::CAMPAIGN_FUSED_GROUPS)),
        );
        let per = |f: fn(&FleetStats) -> f64| median(&stats.iter().map(f).collect::<Vec<_>>());
        let trials = trials as f64;
        m.insert(
            "core.journal_bytes_per_trial",
            per(|s| s.journal_bytes) / trials,
        );
        m.insert("core.journal_read_s", per(|s| s.journal_read_s));
        m.insert("core.merge_s", per(|s| s.merge_s));
        m.insert(
            "obs.sidecar_bytes_per_trial",
            per(|s| s.sidecar_bytes) / trials,
        );
        m.insert("obs.telemetry_merge_s", per(|s| s.telemetry_merge_s));
        m.insert("fleet.worker_setup_s", per(|s| s.worker_setup_s));
        m.insert("fleet.worker_run_s", per(|s| s.worker_run_s));
        m.insert(
            "fleet.supervise_overhead_s",
            per(|s| s.supervise_overhead_s),
        );
        m.insert("fleet.orchestrator_cpu_s", per(|s| s.orchestrator_cpu_s));
        let mut ops = OpCounts::default();
        for st in &stats {
            ops.conv2d += st.ops[0];
            ops.matmul += st.ops[1];
            ops.matmul_i8 += st.ops[2];
            ops.elementwise += st.ops[3];
        }
        op_metrics(m, ops, traced_trials);
        m.insert("obs.trace_overhead", reps.trace_overhead());
        let mut net = factory();
        let input = tb.images.select_batch(0);
        let pool = tb.campaign_config().pool_budget_bytes;
        net_metrics(m, rec, &profile, &mut net, &input, pool);
        let path = scratch_dir().join("lenet-fleet-2shard.trace.json");
        if let Err(e) = rec.write_trace(&path) {
            eprintln!("writing {}: {e}", path.display());
        }
    }
    out
}
