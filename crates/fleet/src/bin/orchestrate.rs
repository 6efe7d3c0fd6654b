//! Fleet orchestrator: runs a sharded campaign across worker processes
//! with crash-tolerant supervision, then prints the merged report.
//!
//! One binary, two modes. Launched plainly it is the **orchestrator**: it
//! plans shards, re-executes itself once per shard with the
//! `RUSTFI_SHARD_*` environment set, watches journals and heartbeats,
//! restarts dead or hung workers with exponential backoff (each restart
//! resumes from the shard journal), and finally merges the shard journals.
//! With `RUSTFI_SHARD_INDEX` set it is a **worker**: it rebuilds the same
//! deterministic campaign from the environment and runs just its shard's
//! trial range.
//!
//! Run with: `cargo run -p rustfi-fleet --bin orchestrate --release`
//!
//! Report: a complete fleet prints its merged outcome totals and the
//! per-layer SDC/DUE table with 95% Wilson intervals, both counted from the
//! shard journals, so the report is the same for any shard count.
//!
//! Observability: `--trace <out.json>` turns on fleet telemetry — each
//! worker attempt streams spans/events to its own crash-safe sidecar next
//! to its journal (a killed attempt's final moments are that file's tail),
//! and once the fleet ends this binary merges every sidecar in the fleet
//! dir (restarts included) into one clock-normalized Chrome trace at
//! `out.json` (open in Perfetto) and prints trial and fused-chunk latency
//! quantiles; `--prom <out.prom>` also writes the aggregated Prometheus
//! dump. Without either flag no sidecar is written or read.
//!
//! Knobs (on top of the testbed's `RUSTFI_MODEL`/`RUSTFI_TRIALS`/
//! `RUSTFI_SEED`/`RUSTFI_IMAGES`/`RUSTFI_FUSION`/`RUSTFI_THREADS`):
//! `RUSTFI_SHARDS` (default 4), `RUSTFI_FLEET_DIR` (default
//! `fleet-journals`), `RUSTFI_MAX_RESTARTS` (default 3),
//! `RUSTFI_HEARTBEAT_TIMEOUT_MS` (default 30000), `RUSTFI_POLL_MS`
//! (default 50), `RUSTFI_FLEET_DEADLINE_MS` (optional wall-clock budget).

use rustfi::report::per_layer_table;
use rustfi::shard::plan_shards;
use rustfi::ProgressRecorder;
use rustfi_fleet::testbed::{env_usize, Testbed};
use rustfi_fleet::{
    orchestrate, run_shard_worker, run_shard_worker_observed, worker_env, FleetConfig,
    ENV_SHARD_ATTEMPT, ENV_SHARD_COUNT, ENV_SHARD_INDEX, ENV_SHARD_JOURNAL, ENV_SHARD_TELEMETRY,
};
use rustfi_obs::{latency_summary, MergedTelemetry};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

fn main() {
    if let Some(w) = worker_env() {
        worker_main(&w);
        return;
    }

    let (trace_out, prom_out) = parse_args();
    let telemetry_on = trace_out.is_some() || prom_out.is_some();

    let tb = Testbed::from_env();
    let cam_cfg = tb.campaign_config();
    let shards = env_usize("RUSTFI_SHARDS", 4);
    let dir = PathBuf::from(
        std::env::var("RUSTFI_FLEET_DIR").unwrap_or_else(|_| String::from("fleet-journals")),
    );
    let mut fleet = FleetConfig::new(cam_cfg.trials, shards, dir);
    fleet.max_restarts = env_usize("RUSTFI_MAX_RESTARTS", 3);
    fleet.heartbeat_timeout =
        Duration::from_millis(env_usize("RUSTFI_HEARTBEAT_TIMEOUT_MS", 30_000) as u64);
    fleet.poll_interval = Duration::from_millis(env_usize("RUSTFI_POLL_MS", 50) as u64);
    if let Ok(ms) = std::env::var("RUSTFI_FLEET_DEADLINE_MS") {
        fleet.deadline = ms.parse().ok().map(Duration::from_millis);
    }
    fleet.progress = Some(ProgressRecorder::stderr(cam_cfg.trials.div_ceil(20).max(1)));

    let exe = std::env::current_exe().expect("own executable path");
    eprintln!(
        "orchestrate — {} trials over {} shards (journals in {}{})",
        cam_cfg.trials,
        shards,
        fleet.dir.display(),
        if telemetry_on { ", telemetry on" } else { "" }
    );
    let report = orchestrate(&fleet, |spec, path, attempt| {
        let mut cmd = Command::new(&exe);
        cmd.env(ENV_SHARD_INDEX, spec.index.to_string())
            .env(ENV_SHARD_COUNT, spec.count.to_string())
            .env(ENV_SHARD_JOURNAL, path)
            .env(ENV_SHARD_ATTEMPT, attempt.to_string());
        if telemetry_on {
            cmd.env(ENV_SHARD_TELEMETRY, "1");
        }
        cmd.spawn()
    })
    .expect("fleet failed");

    println!(
        "fleet finished in {:.2}s: {} spawns, {} restarts, {} hung kills",
        report.elapsed.as_secs_f64(),
        report.spawns,
        report.restarts,
        report.hung_kills
    );
    if telemetry_on {
        render_telemetry(&fleet.dir, trace_out.as_deref(), prom_out.as_deref());
    }
    match &report.merged {
        Some(m) if report.is_complete() => {
            println!(
                "merged report: {} records | masked {} sdc {} due {} crash {} hang {}",
                m.records.len(),
                m.counts.masked,
                m.counts.sdc,
                m.counts.due,
                m.counts.crash,
                m.counts.hang
            );
            print!("{}", per_layer_table(&m.per_layer, &m.counts));
        }
        Some(m) => {
            println!(
                "PARTIAL merged report: {} of {} trials, missing shards {:?}",
                m.records.len(),
                m.trials,
                m.missing_shards,
            );
            for d in &report.abandoned_detail {
                println!(
                    "  abandoned shard {}: {} restart(s), {}/{} records, \
                     last activity {:.1}s before the fleet ended",
                    d.shard,
                    d.restarts,
                    d.records,
                    d.trials,
                    d.last_activity_age.as_secs_f64()
                );
            }
            std::process::exit(2);
        }
        None => {
            println!(
                "no shard journal was ever written; abandoned {:?}",
                report.abandoned
            );
            std::process::exit(2);
        }
    }
}

/// Parses `--trace <path>` and `--prom <path>`; anything else is refused so
/// a typo can't silently run without the trace the user asked for.
fn parse_args() -> (Option<PathBuf>, Option<PathBuf>) {
    let mut trace = None;
    let mut prom = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--trace" => &mut trace,
            "--prom" => &mut prom,
            other => {
                eprintln!("unknown argument {other:?}; usage: orchestrate [--trace out.json] [--prom out.prom]");
                std::process::exit(64);
            }
        };
        match args.next() {
            Some(path) => *slot = Some(PathBuf::from(path)),
            None => {
                eprintln!("{arg} needs a path argument");
                std::process::exit(64);
            }
        }
    }
    (trace, prom)
}

/// Merges the telemetry sidecars in the fleet dir, writes the Chrome trace /
/// Prometheus dump, and prints the latency summary.
fn render_telemetry(dir: &Path, trace_out: Option<&Path>, prom_out: Option<&Path>) {
    let telemetry = match MergedTelemetry::from_dir(dir) {
        Ok(t) if !t.lanes.is_empty() => t,
        _ => {
            eprintln!("no telemetry sidecars found; nothing to export");
            return;
        }
    };
    if let Some(path) = trace_out {
        match telemetry.write_chrome_trace(path) {
            Ok(()) => println!(
                "merged trace: {} ({} lanes, load in https://ui.perfetto.dev)",
                path.display(),
                telemetry.lanes.len()
            ),
            Err(e) => eprintln!("writing trace {}: {e}", path.display()),
        }
    }
    if let Some(path) = prom_out {
        match std::fs::write(path, telemetry.prometheus()) {
            Ok(()) => println!("prometheus dump: {}", path.display()),
            Err(e) => eprintln!("writing prometheus dump {}: {e}", path.display()),
        }
    }
    print!(
        "{}",
        latency_summary(&telemetry.aggregated_snapshot().timings)
    );
}

fn worker_main(w: &rustfi_fleet::WorkerEnv) {
    let tb = Testbed::from_env();
    let cfg = tb.campaign_config();
    let factory = tb.factory();
    let campaign = tb.campaign(&factory);
    let spec = plan_shards(cfg.trials, w.count)[w.index];
    let every = Duration::from_secs(1);
    let result = if w.telemetry {
        run_shard_worker_observed(&campaign, &cfg, &spec, &w.journal, w.attempt as u32, every)
    } else {
        run_shard_worker(&campaign, &cfg, &spec, &w.journal, every)
    }
    .expect("shard run failed");
    eprintln!(
        "shard {}/{} (attempt {}) done: {} records this range",
        w.index,
        w.count,
        w.attempt,
        result.records.len()
    );
}
