//! CI chaos gate: proves the fleet's crash story end to end.
//!
//! Two legs, both against the same single-process reference run and both
//! with fleet telemetry on (one sidecar per worker attempt):
//!
//! 1. **kill leg** — a 4-shard fleet where the orchestrator SIGKILLs one
//!    worker mid-run (after it has journaled a few records). The gate
//!    asserts the death was detected, the shard restarted with backoff and
//!    resumed from its torn journal, and the merged report is
//!    **bit-identical** to the uninterrupted reference. It then reads the
//!    fleet dir's sidecars and asserts the telemetry survived the murder:
//!    the merged Chrome trace has a lane for every shard *and* a restart
//!    sub-lane for the victim, the killed attempt's sidecar (its postmortem)
//!    reads back with at most one torn line, and the victim's last attempt
//!    recorded trial outcomes.
//! 2. **hang leg** — one worker (first attempt only) hangs before writing a
//!    byte. The gate asserts the heartbeat deadline caught it, the restart
//!    recovered, and the merged report is again bit-identical.
//!
//! Artifacts (merged trace + the killed attempt's sidecar) are copied into
//! `RUSTFI_CHAOS_ARTIFACTS` (default `chaos-artifacts/`) for CI upload.
//!
//! Exits non-zero on any violation. Run with:
//! `cargo run -p rustfi-fleet --bin chaos_gate --release`

use rustfi::shard::plan_shards;
use rustfi::ProgressRecorder;
use rustfi_fleet::testbed::Testbed;
use rustfi_fleet::{
    orchestrate, run_shard_worker_observed, worker_env, ChaosKill, FleetConfig, WorkerEnv,
    ENV_SHARD_ATTEMPT, ENV_SHARD_COUNT, ENV_SHARD_INDEX, ENV_SHARD_JOURNAL, ENV_SHARD_TELEMETRY,
};
use rustfi_obs::json::{parse_json, Value};
use rustfi_obs::{Event, MergedTelemetry};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

/// Shard the chaos hits, in both legs.
const VICTIM: usize = 1;
const SHARDS: usize = 4;

fn main() {
    if let Some(w) = worker_env() {
        worker_main(&w);
        return;
    }

    // The campaign every process agrees on. Fixed here (not inherited) so
    // the gate is deterministic; workers inherit these via the environment.
    // The model is the one knob the caller may override: nightly CI points
    // it at a fuzzer-generated architecture (`RUSTFI_MODEL=fuzz:<seed>`).
    if std::env::var("RUSTFI_MODEL").is_err() {
        std::env::set_var("RUSTFI_MODEL", "lenet");
    }
    std::env::set_var("RUSTFI_TRIALS", "96");
    std::env::set_var("RUSTFI_SEED", "51966");
    std::env::set_var("RUSTFI_IMAGES", "6");
    std::env::set_var("RUSTFI_FUSION", "8");
    std::env::set_var("RUSTFI_THREADS", "2");

    let artifacts = PathBuf::from(
        std::env::var("RUSTFI_CHAOS_ARTIFACTS").unwrap_or_else(|_| String::from("chaos-artifacts")),
    );
    std::fs::create_dir_all(&artifacts).expect("artifact dir");

    let tb = Testbed::from_env();
    let cfg = tb.campaign_config();
    let factory = tb.factory();
    let campaign = tb.campaign(&factory);
    println!("chaos_gate — reference run ({} trials, fused)", cfg.trials);
    let reference = campaign.run(&cfg).expect("reference run");
    assert!(
        !reference.records.is_empty(),
        "reference produced no records; the gate would be vacuous"
    );

    let exe = std::env::current_exe().expect("own executable path");
    let base = std::env::temp_dir().join(format!("rustfi-chaos-gate-{}", std::process::id()));

    // Leg 1: SIGKILL a worker mid-run; it must resume from its journal.
    let dir = base.join("kill");
    let _ = std::fs::remove_dir_all(&dir);
    let mut fleet = fleet_config(cfg.trials, dir);
    fleet.chaos_kill = Some(ChaosKill {
        shard: VICTIM,
        after_records: 4,
    });
    println!("chaos_gate — kill leg: SIGKILL shard {VICTIM} after 4 records");
    let report = orchestrate(&fleet, |spec, path, attempt| {
        let mut cmd = worker_cmd(&exe, spec.index, path, attempt);
        if spec.index == VICTIM && attempt == 0 {
            // Throttle the victim so the kill reliably lands mid-run.
            cmd.env("RUSTFI_CHAOS_SLOW_MS", "40");
        }
        cmd.spawn()
    })
    .expect("kill-leg fleet");
    assert!(
        report.restarts >= 1,
        "the killed shard was never restarted: {report:?}"
    );
    check_identical("kill leg", &reference, &report);
    check_telemetry(&fleet.dir, &artifacts);

    // Leg 2: a worker hangs before writing anything; the heartbeat
    // deadline must catch it.
    let dir = base.join("hang");
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = fleet_config(cfg.trials, dir);
    println!("chaos_gate — hang leg: shard {VICTIM} hangs on first attempt");
    let report = orchestrate(&fleet, |spec, path, attempt| {
        let mut cmd = worker_cmd(&exe, spec.index, path, attempt);
        if spec.index == VICTIM && attempt == 0 {
            cmd.env("RUSTFI_CHAOS_HANG", "1");
        }
        cmd.spawn()
    })
    .expect("hang-leg fleet");
    assert!(
        report.hung_kills >= 1,
        "the hung shard was never killed: {report:?}"
    );
    check_identical("hang leg", &reference, &report);

    let _ = std::fs::remove_dir_all(&base);
    println!("chaos gate PASS: merged reports bit-identical to the uninterrupted reference");
}

fn fleet_config(trials: usize, dir: PathBuf) -> FleetConfig {
    let mut fleet = FleetConfig::new(trials, SHARDS, dir);
    fleet.poll_interval = Duration::from_millis(10);
    fleet.heartbeat_timeout = Duration::from_millis(1_500);
    fleet.backoff_base = Duration::from_millis(50);
    fleet.backoff_cap = Duration::from_millis(500);
    fleet.max_restarts = 3;
    // Hard stop well under the CI job timeout; a healthy gate finishes in
    // seconds.
    fleet.deadline = Some(Duration::from_secs(120));
    fleet.progress = Some(ProgressRecorder::stderr(24));
    fleet
}

fn worker_cmd(exe: &PathBuf, index: usize, path: &Path, attempt: usize) -> Command {
    let mut cmd = Command::new(exe);
    cmd.env(ENV_SHARD_INDEX, index.to_string())
        .env(ENV_SHARD_COUNT, SHARDS.to_string())
        .env(ENV_SHARD_JOURNAL, path)
        .env(ENV_SHARD_ATTEMPT, attempt.to_string())
        .env(ENV_SHARD_TELEMETRY, "1");
    cmd
}

fn check_identical(
    leg: &str,
    reference: &rustfi::CampaignResult,
    report: &rustfi_fleet::FleetReport,
) {
    assert!(
        report.is_complete(),
        "{leg}: fleet did not complete: {report:?}"
    );
    let merged = report.merged.as_ref().expect("complete fleet has a merge");
    assert_eq!(
        merged.records.len(),
        reference.records.len(),
        "{leg}: record count"
    );
    for (m, r) in merged.records.iter().zip(&reference.records) {
        assert_eq!(m, r, "{leg}: record {} diverged", r.trial);
    }
    assert_eq!(merged.counts, reference.counts, "{leg}: outcome counts");
    println!(
        "{leg} OK: {} records bit-identical ({} spawns, {} restarts, {} hung kills, {:.2}s)",
        merged.records.len(),
        report.spawns,
        report.restarts,
        report.hung_kills,
        report.elapsed.as_secs_f64()
    );
}

/// The kill leg's telemetry assertions, over the sidecars in the fleet dir:
/// a lane for every shard, a restart sub-lane for the victim, a parseable
/// merged Chrome trace, the killed attempt's sidecar readable with at most
/// the one torn line a kill leaves, and trial outcomes in the victim's last
/// attempt. The killed attempt's own lane may hold no outcome: a worker
/// appends a unit's records to its journal before it writes the unit's
/// telemetry, so the kill can land between the two. Copies the artifacts
/// out for CI upload.
fn check_telemetry(dir: &Path, artifacts: &Path) {
    let telemetry = MergedTelemetry::from_dir(dir).expect("kill leg: reading the fleet dir");
    assert!(
        telemetry.skipped.is_empty(),
        "kill leg: unreadable sidecars: {:?}",
        telemetry.skipped
    );
    let shards_present = telemetry.shards_present();
    assert_eq!(
        shards_present.len(),
        SHARDS,
        "kill leg: trace is missing shard lanes: {shards_present:?}"
    );
    let victim_attempts = telemetry.attempts_for(VICTIM);
    assert!(
        victim_attempts.len() >= 2,
        "kill leg: victim shard {VICTIM} should have a restart sub-lane, got attempts {victim_attempts:?}"
    );

    // The merged trace must be valid JSON with one ph:"X" stream per lane.
    let trace_path = artifacts.join("fleet-trace.json");
    telemetry
        .write_chrome_trace(&trace_path)
        .expect("writing merged trace");
    let trace = parse_json(&std::fs::read_to_string(&trace_path).expect("reading trace back"))
        .expect("merged trace is not valid JSON");
    let events = trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("trace has no traceEvents array");
    assert!(!events.is_empty(), "merged trace is empty");
    let mut pids: Vec<f64> = events
        .iter()
        .filter_map(|e| e.get("pid").and_then(Value::as_f64))
        .collect();
    pids.sort_by(f64::total_cmp);
    pids.dedup();
    assert_eq!(
        pids.len(),
        SHARDS,
        "trace lanes (pids) don't cover every shard: {pids:?}"
    );

    // The victim's postmortem is its killed attempt's own sidecar.
    let victim: Vec<_> = telemetry
        .lanes
        .iter()
        .filter(|l| l.header.shard == VICTIM)
        .collect();
    let killed = victim
        .iter()
        .find(|l| l.header.attempt == 0)
        .expect("kill leg: the killed attempt left no sidecar");
    assert!(
        killed.torn_lines <= 1,
        "killed attempt's sidecar has {} torn lines; a kill tears at most one",
        killed.torn_lines
    );
    let outcomes = |lane: &rustfi_obs::ShardLane| {
        lane.batch
            .events
            .iter()
            .filter(|e| matches!(e, Event::TrialOutcome(_)))
            .count()
    };
    let last = victim.last().expect("victim lanes");
    assert!(
        outcomes(last) > 0,
        "victim's last attempt {} recorded no trial outcome",
        last.header.attempt
    );
    let artifact = artifacts.join("victim.attempt-0000.telemetry.jsonl");
    std::fs::copy(&killed.path, &artifact).expect("copying the killed attempt's sidecar");

    println!(
        "kill leg telemetry OK: {} lanes (victim attempts {:?}), {} trace events, \
         killed attempt's sidecar holds {} spans and {} events ({} torn), \
         last attempt {} outcomes — artifacts in {}",
        telemetry.lanes.len(),
        victim_attempts,
        events.len(),
        killed.batch.spans.len(),
        killed.batch.events.len(),
        killed.torn_lines,
        outcomes(last),
        artifacts.display()
    );
}

fn worker_main(w: &WorkerEnv) {
    if std::env::var("RUSTFI_CHAOS_HANG").is_ok() {
        // Chaos: hang before touching the journal; the orchestrator's
        // heartbeat deadline must catch and kill us.
        loop {
            std::thread::sleep(Duration::from_secs(1));
        }
    }
    let tb = Testbed::from_env();
    let mut cfg = tb.campaign_config();
    if let Some(ms) = std::env::var("RUSTFI_CHAOS_SLOW_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        // Chaos: throttle via a per-record progress sink so the
        // orchestrator's kill lands mid-run. Progress reporting is
        // record-invariant, so the throttled attempt's journal stays
        // bit-compatible with the fast retry's.
        cfg.progress = Some(ProgressRecorder::new(1, move |_| {
            std::thread::sleep(Duration::from_millis(ms));
        }));
    }
    let factory = tb.factory();
    let campaign = tb.campaign(&factory);
    let spec = plan_shards(cfg.trials, w.count)[w.index];
    run_shard_worker_observed(
        &campaign,
        &cfg,
        &spec,
        &w.journal,
        w.attempt as u32,
        Duration::from_millis(200),
    )
    .expect("shard run failed");
}
