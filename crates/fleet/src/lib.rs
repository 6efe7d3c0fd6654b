//! Crash-tolerant multi-process campaign orchestration.
//!
//! `rustfi-fleet` scales a campaign across worker *processes* the same way
//! `rustfi` scales it across threads — without changing a single record.
//! The shard planner ([`rustfi::shard::plan_shards`]) deterministically
//! splits the trial space into contiguous ranges; each worker runs its
//! range through [`rustfi::Campaign::run_shard`] with its own crash-safe
//! journal; and [`orchestrate`] supervises the fleet:
//!
//! - **dead shard** (non-zero exit, SIGKILL, OOM): restarted with
//!   exponential backoff; the restarted worker resumes from its journal via
//!   the torn-tail-repairing resume, so completed trials never rerun;
//! - **hung shard** (no journal growth — records *or* heartbeats — within
//!   the heartbeat deadline): killed, then treated as dead. Workers keep a
//!   [`Heartbeat`] thread appending liveness lines so a slow-but-alive
//!   shard is never mistaken for a hung one; a live process stuck inside a
//!   single forward pass is the campaign watchdog's job
//!   (`CampaignConfig::max_steps`), not the fleet's;
//! - **retry budget exhausted**: the shard is abandoned and the final
//!   report degrades gracefully — [`rustfi::shard::merge_shard_journals`]
//!   still merges every journal that exists and lists the gap in
//!   `missing_shards` instead of failing.
//!
//! Because trial randomness is position-based (`(seed, trial)`), the merged
//! report is record-identical to a single-process run for any shard count
//! and any interleaving of crashes and restarts; `tests/properties.rs`
//! enforces the invariance and the `chaos_gate` binary enforces the
//! crash-recovery path in CI.
//!
//! The orchestrator is a dependency-free poll loop over
//! [`std::process::Child`] handles — no async runtime — which keeps the
//! fleet layer as auditable as the journal format it builds on. It reads
//! each journal incrementally ([`rustfi::JournalTail`]) for progress and
//! liveness, and reads nothing else.
//!
//! An observed worker ([`run_shard_worker_observed`]) streams its telemetry
//! to one crash-safe sidecar per attempt, next to its journal; that sidecar
//! is all the telemetry a fleet writes. A killed attempt's final moments are
//! the tail of its own sidecar, which its restart never touches. Callers
//! that want the fleet's trace read the sidecars themselves with
//! [`rustfi_obs::MergedTelemetry::from_dir`] on the fleet dir.

use rustfi::campaign::{ProgressRecorder, ProgressUpdate};
use rustfi::shard::{merge_shard_journals, plan_shards, MergedCampaign, ShardSpec};
use rustfi::{
    append_heartbeat, Campaign, CampaignConfig, CampaignResult, FiError, JournalTail, OutcomeCounts,
};
use rustfi_obs::{names as obs_names, Recorder, SidecarRecorder};
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod testbed;

/// Environment variable carrying a worker's shard index; its presence is
/// what switches a fleet binary into worker mode.
pub const ENV_SHARD_INDEX: &str = "RUSTFI_SHARD_INDEX";
/// Environment variable carrying the fleet's shard count.
pub const ENV_SHARD_COUNT: &str = "RUSTFI_SHARD_COUNT";
/// Environment variable carrying the worker's journal path.
pub const ENV_SHARD_JOURNAL: &str = "RUSTFI_SHARD_JOURNAL";
/// Environment variable carrying the launch attempt (0 = first launch),
/// so chaos harnesses can misbehave on one attempt only.
pub const ENV_SHARD_ATTEMPT: &str = "RUSTFI_SHARD_ATTEMPT";
/// Environment variable switching workers into observed mode (`"1"`):
/// each worker streams its telemetry to a per-attempt sidecar next to its
/// journal (see [`run_shard_worker_observed`]).
pub const ENV_SHARD_TELEMETRY: &str = "RUSTFI_SHARD_TELEMETRY";

/// A worker process's shard assignment, decoded from the environment.
#[derive(Debug, Clone)]
pub struct WorkerEnv {
    /// Which shard this worker runs.
    pub index: usize,
    /// Total shard count of the fleet.
    pub count: usize,
    /// The shard's journal path.
    pub journal: PathBuf,
    /// Launch attempt, 0 for the first launch.
    pub attempt: usize,
    /// Whether the orchestrator asked for telemetry ([`ENV_SHARD_TELEMETRY`]).
    pub telemetry: bool,
}

/// Decodes the worker-mode environment ([`ENV_SHARD_INDEX`] and friends).
/// Returns `None` when [`ENV_SHARD_INDEX`] is unset — i.e. the process is
/// the orchestrator, not a worker.
///
/// # Panics
///
/// Panics when the variables are present but unparsable: that is a bug in
/// the launcher, not a recoverable state.
pub fn worker_env() -> Option<WorkerEnv> {
    let index = std::env::var(ENV_SHARD_INDEX).ok()?;
    let get =
        |k: &str| std::env::var(k).unwrap_or_else(|_| panic!("worker environment is missing {k}"));
    let parse = |k: &str, v: &str| -> usize {
        v.parse()
            .unwrap_or_else(|_| panic!("worker environment has unparsable {k}={v:?}"))
    };
    Some(WorkerEnv {
        index: parse(ENV_SHARD_INDEX, &index),
        count: parse(ENV_SHARD_COUNT, &get(ENV_SHARD_COUNT)),
        journal: PathBuf::from(get(ENV_SHARD_JOURNAL)),
        attempt: parse(ENV_SHARD_ATTEMPT, &get(ENV_SHARD_ATTEMPT)),
        telemetry: std::env::var(ENV_SHARD_TELEMETRY).is_ok_and(|v| v == "1"),
    })
}

/// A background thread appending `{"heartbeat":...}` lines to a shard
/// journal so the orchestrator can tell a slow worker from a dead one.
/// Stops (and joins) on drop, at once: drop unparks the waiting thread.
pub struct Heartbeat {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    /// Starts beating `every` interval. Beats are best-effort: before the
    /// campaign creates the journal, [`append_heartbeat`] declines without
    /// error (it must never create the file — an empty journal would look
    /// resumable), and I/O failures are swallowed; liveness reporting must
    /// never take a worker down.
    pub fn start(path: PathBuf, every: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !seen.load(Ordering::Relaxed) {
                let _ = append_heartbeat(&path);
                // Park until the next beat; drop() unparks the thread (an
                // unpark that comes first is not lost).
                let due = Instant::now() + every;
                while !seen.load(Ordering::Relaxed) && Instant::now() < due {
                    std::thread::park_timeout(due.saturating_duration_since(Instant::now()));
                }
            }
        });
        Self {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

/// Removes a journal that a kill left without even one complete line. Such
/// a file holds no durable state (the header never finished writing), but
/// it would make every subsequent resume fail — so a restarted worker
/// discards it and starts the shard fresh.
pub fn discard_stillborn_journal(path: &Path) -> std::io::Result<()> {
    match std::fs::read(path) {
        Ok(bytes) if !bytes.contains(&b'\n') => std::fs::remove_file(path),
        Ok(_) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Runs one shard as a fleet worker: clears a stillborn journal if the
/// previous attempt died before the header landed, keeps a [`Heartbeat`]
/// alive for the duration, and runs (or resumes) the shard's trial range.
pub fn run_shard_worker(
    campaign: &Campaign<'_>,
    cfg: &CampaignConfig,
    spec: &ShardSpec,
    journal: &Path,
    heartbeat_every: Duration,
) -> Result<CampaignResult, FiError> {
    discard_stillborn_journal(journal)
        .map_err(|e| FiError::io(format!("inspecting journal {}", journal.display()), e))?;
    let _beat = Heartbeat::start(journal.to_path_buf(), heartbeat_every);
    campaign.run_shard(cfg, spec, journal)
}

/// [`run_shard_worker`] with the worker's telemetry streamed to a crash-safe
/// sidecar for this attempt (`<journal stem>.attempt-NNNN.telemetry.jsonl`,
/// see [`rustfi_obs::sidecar_path`]). The sidecar replaces any recorder in
/// `cfg.recorder`. It is flushed after every trial or fused chunk, so a
/// killed attempt's final moments are the tail of its own file.
///
/// Recording is proven record-invariant by the workspace property tests, so
/// an observed worker's journal stays bit-identical to an unobserved one's.
/// A sidecar that cannot be created never fails the shard: it then runs with
/// `cfg` as given.
pub fn run_shard_worker_observed(
    campaign: &Campaign<'_>,
    cfg: &CampaignConfig,
    spec: &ShardSpec,
    journal: &Path,
    attempt: u32,
    heartbeat_every: Duration,
) -> Result<CampaignResult, FiError> {
    let mut cfg = cfg.clone();
    if let Ok(sidecar) =
        SidecarRecorder::create_for_journal(journal, spec.index, spec.count, attempt)
    {
        cfg.recorder = Some(Arc::new(sidecar));
    }
    run_shard_worker(campaign, &cfg, spec, journal, heartbeat_every)
}

/// Test-only fault injection for the fleet itself (a fault-injection tool's
/// orchestrator deserves fault injection too): SIGKILL `shard`'s worker the
/// first time its journal holds at least `after_records` records. Fires on
/// the shard's first launch only, so the restarted worker can finish — the
/// CI chaos gate uses this to prove kill-and-resume end to end.
#[derive(Debug, Clone, Copy)]
pub struct ChaosKill {
    /// Which shard to kill.
    pub shard: usize,
    /// How many journaled records to let it write first.
    pub after_records: usize,
}

/// Fleet-level knobs for [`orchestrate`].
#[derive(Clone)]
pub struct FleetConfig {
    /// The campaign's total trial count (shared by every shard).
    pub trials: usize,
    /// How many shard worker processes to run.
    pub shards: usize,
    /// Directory holding the shard journals
    /// ([`ShardSpec::journal_path`] naming).
    pub dir: PathBuf,
    /// How often the orchestrator polls children and journals; a worker's
    /// exit is seen within about a millisecond regardless.
    pub poll_interval: Duration,
    /// A shard whose journal shows no growth (records or heartbeats) for
    /// this long is declared hung, killed, and restarted.
    pub heartbeat_timeout: Duration,
    /// Restarts allowed per shard beyond its first launch; a shard that
    /// dies more often is abandoned (and reported in `missing_shards`).
    pub max_restarts: usize,
    /// First restart delay; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: Duration,
    /// Optional whole-fleet wall-clock budget: when exceeded, running
    /// shards are killed and reported as abandoned rather than waited on.
    pub deadline: Option<Duration>,
    /// Aggregate progress across all shard journals, emitted through the
    /// same [`ProgressRecorder`] campaigns use.
    pub progress: Option<ProgressRecorder>,
    /// Observability sink for the `fleet.*` counters.
    pub recorder: Option<Arc<dyn Recorder>>,
    /// Deterministic chaos injection; see [`ChaosKill`].
    pub chaos_kill: Option<ChaosKill>,
}

impl FleetConfig {
    /// A fleet over `trials` trials in `shards` shards, journaling into
    /// `dir`, with defaults tuned for interactive runs (50 ms polls, 30 s
    /// heartbeat deadline, 3 restarts with 250 ms → 5 s backoff).
    pub fn new(trials: usize, shards: usize, dir: PathBuf) -> Self {
        Self {
            trials,
            shards,
            dir,
            poll_interval: Duration::from_millis(50),
            heartbeat_timeout: Duration::from_secs(30),
            max_restarts: 3,
            backoff_base: Duration::from_millis(250),
            backoff_cap: Duration::from_secs(5),
            deadline: None,
            progress: None,
            recorder: None,
            chaos_kill: None,
        }
    }
}

/// Everything worth knowing about one abandoned shard, so a partial
/// report can say *why* the gap exists instead of just numbering it.
#[derive(Debug, Clone)]
pub struct AbandonedShard {
    /// The shard's index.
    pub shard: usize,
    /// Restarts performed before giving up (launches minus one).
    pub restarts: usize,
    /// How long before the fleet ended the shard's journal last grew
    /// (records or heartbeats) — large values mean it died early and
    /// stayed dead, small ones mean it was still thrashing at the end.
    pub last_activity_age: Duration,
    /// Trial records its journal holds.
    pub records: usize,
    /// Trials its shard plan assigned.
    pub trials: usize,
}

/// What a fleet run produced.
#[derive(Debug)]
pub struct FleetReport {
    /// The merged campaign, `None` only if no shard ever wrote a journal.
    pub merged: Option<MergedCampaign>,
    /// Worker processes launched (first launches and restarts).
    pub spawns: u64,
    /// Restarts performed after worker deaths.
    pub restarts: u64,
    /// Workers killed for missing the heartbeat deadline.
    pub hung_kills: u64,
    /// Shards abandoned after exhausting their restart budget (or cut off
    /// by the fleet deadline).
    pub abandoned: Vec<usize>,
    /// Per-shard postmortem detail for every entry in `abandoned`.
    pub abandoned_detail: Vec<AbandonedShard>,
    /// Fleet wall time.
    pub elapsed: Duration,
}

impl FleetReport {
    /// Whether every trial of the campaign is accounted for.
    pub fn is_complete(&self) -> bool {
        self.abandoned.is_empty()
            && self
                .merged
                .as_ref()
                .is_some_and(MergedCampaign::is_complete)
    }
}

/// Per-shard supervision state.
struct ShardState {
    spec: ShardSpec,
    path: PathBuf,
    child: Option<Child>,
    /// Deaths (and failed launches) so far; drives backoff and the budget.
    failures: usize,
    /// When to (re)launch; `None` while running, done, or abandoned.
    launch_at: Option<Instant>,
    /// The journal's length at the last poll: any change is activity.
    last_len: u64,
    last_activity: Instant,
    /// Records and outcomes read from the journal so far.
    journal: JournalTail,
    attempt: usize,
    chaos_fired: bool,
    done: bool,
    abandoned: bool,
}

impl ShardState {
    fn live(&self) -> bool {
        !self.done && !self.abandoned
    }

    /// Reads what was appended to the shard journal if its length changed;
    /// growth (records or heartbeats) is the liveness signal.
    fn observe(&mut self, now: Instant) {
        let Ok(meta) = std::fs::metadata(&self.path) else {
            return;
        };
        if meta.len() == self.last_len {
            return;
        }
        self.last_len = meta.len();
        self.last_activity = now;
        // A torn tail (a worker mid-append) waits for the next poll. A read
        // error keeps the totals so far; the final merge reports it.
        let _ = self.journal.read_new(&self.path);
    }

    /// Books one failure: schedules a backed-off relaunch while budget
    /// remains, abandons the shard once it runs out.
    fn book_failure(&mut self, cfg: &FleetConfig, now: Instant, restarts: &mut u64) {
        self.failures += 1;
        if self.failures > cfg.max_restarts {
            self.abandoned = true;
            self.launch_at = None;
            return;
        }
        let exp = (self.failures - 1).min(20) as u32;
        let backoff = cfg
            .backoff_base
            .saturating_mul(2u32.saturating_pow(exp))
            .min(cfg.backoff_cap);
        self.launch_at = Some(now + backoff);
        *restarts += 1;
    }

    fn kill_and_reap(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Sleeps until the next poll is due, checking the running workers every
/// millisecond and returning early when one has exited. The poll then sees
/// the exit too: [`Child::try_wait`] keeps a reaped status.
fn wait_for_next_poll(shards: &mut [ShardState], poll_interval: Duration) {
    let due = Instant::now() + poll_interval;
    while Instant::now() < due {
        let mut children = shards.iter_mut().filter_map(|s| s.child.as_mut());
        if children.any(|c| !matches!(c.try_wait(), Ok(None))) {
            return;
        }
        let left = due.saturating_duration_since(Instant::now());
        std::thread::sleep(left.min(Duration::from_millis(1)));
    }
}

/// Runs a sharded campaign to completion (or graceful degradation) under
/// crash-tolerant supervision.
///
/// `launch` spawns one worker process for `(shard, journal path, attempt)`
/// — typically the current executable re-executed with the [`ENV_SHARD_INDEX`]
/// family set (see the `orchestrate` binary). The orchestrator polls
/// children and journals, restarts dead or hung workers with exponential
/// backoff (each restart resumes from the shard journal), abandons shards
/// that exhaust `max_restarts`, and finally merges whatever journals exist.
/// A worker's exit cuts the wait for the next poll short, so a fleet ends
/// when its last worker does.
///
/// Pre-existing shard journals in `FleetConfig::dir` are resumed, so a
/// killed *orchestrator* can itself be rerun and will pick up where the
/// fleet left off.
pub fn orchestrate<F>(cfg: &FleetConfig, mut launch: F) -> Result<FleetReport, FiError>
where
    F: FnMut(&ShardSpec, &Path, usize) -> std::io::Result<Child>,
{
    assert!(cfg.shards > 0, "a fleet needs at least one shard");
    std::fs::create_dir_all(&cfg.dir)
        .map_err(|e| FiError::io(format!("creating fleet dir {}", cfg.dir.display()), e))?;
    let start = Instant::now();
    let mut shards: Vec<ShardState> = plan_shards(cfg.trials, cfg.shards)
        .into_iter()
        .map(|spec| {
            let path = spec.journal_path(&cfg.dir);
            let mut s = ShardState {
                spec,
                path,
                child: None,
                failures: 0,
                launch_at: Some(start),
                last_len: 0,
                last_activity: start,
                journal: JournalTail::default(),
                attempt: 0,
                chaos_fired: false,
                done: false,
                abandoned: false,
            };
            s.observe(start);
            // A shard whose journal already covers its whole range (a rerun
            // orchestrator over a finished fleet) needs no worker at all.
            if s.journal.records() >= s.spec.trials() && s.last_len > 0 {
                s.done = true;
                s.launch_at = None;
            }
            s
        })
        .collect();
    let resumed: usize = shards.iter().map(|s| s.journal.records()).sum();
    let (mut spawns, mut restarts, mut hung_kills) = (0u64, 0u64, 0u64);
    let mut last_reported = usize::MAX;

    loop {
        let now = Instant::now();
        if cfg.deadline.is_some_and(|d| now.duration_since(start) > d) {
            for s in shards.iter_mut().filter(|s| s.live()) {
                s.kill_and_reap();
                s.abandoned = true;
            }
            break;
        }
        for s in shards.iter_mut().filter(|s| s.live()) {
            s.observe(now);
            if let Some(child) = s.child.as_mut() {
                if let Some(chaos) = cfg.chaos_kill {
                    if chaos.shard == s.spec.index
                        && s.attempt == 1
                        && !s.chaos_fired
                        && s.journal.records() >= chaos.after_records
                    {
                        s.chaos_fired = true;
                        let _ = child.kill(); // SIGKILL on unix
                    }
                }
                match child.try_wait() {
                    Ok(Some(status)) => {
                        s.child = None;
                        if status.success() {
                            s.done = true;
                        } else {
                            s.book_failure(cfg, now, &mut restarts);
                        }
                    }
                    Ok(None) => {
                        if now.duration_since(s.last_activity) > cfg.heartbeat_timeout {
                            s.kill_and_reap();
                            hung_kills += 1;
                            s.book_failure(cfg, now, &mut restarts);
                        }
                    }
                    Err(_) => {
                        s.kill_and_reap();
                        s.book_failure(cfg, now, &mut restarts);
                    }
                }
            } else if s.launch_at.is_some_and(|t| now >= t) {
                s.launch_at = None;
                match launch(&s.spec, &s.path, s.attempt) {
                    Ok(child) => {
                        s.child = Some(child);
                        s.attempt += 1;
                        s.last_activity = Instant::now();
                        spawns += 1;
                    }
                    Err(_) => s.book_failure(cfg, now, &mut restarts),
                }
            }
        }

        let done: usize = shards.iter().map(|s| s.journal.records()).sum();
        if let Some(pr) = &cfg.progress {
            if done != last_reported {
                last_reported = done;
                let mut counts = OutcomeCounts::default();
                for s in &shards {
                    counts += s.journal.counts();
                }
                pr.emit(&ProgressUpdate {
                    done,
                    total: cfg.trials,
                    resumed,
                    elapsed: start.elapsed(),
                    counts,
                });
            }
        }
        if shards.iter().all(|s| !s.live()) {
            break;
        }
        wait_for_next_poll(&mut shards, cfg.poll_interval);
    }

    // One final observation pass so the report reflects each journal's
    // state at exit, then merge whatever exists.
    let now = Instant::now();
    for s in shards.iter_mut() {
        s.observe(now);
    }
    let abandoned: Vec<usize> = shards
        .iter()
        .filter(|s| s.abandoned)
        .map(|s| s.spec.index)
        .collect();
    let abandoned_detail: Vec<AbandonedShard> = shards
        .iter()
        .filter(|s| s.abandoned)
        .map(|s| AbandonedShard {
            shard: s.spec.index,
            restarts: s.attempt.saturating_sub(1),
            last_activity_age: now.duration_since(s.last_activity),
            records: s.journal.records(),
            trials: s.spec.trials(),
        })
        .collect();
    if let Some(r) = &cfg.recorder {
        r.counter_add(obs_names::FLEET_SPAWNS, spawns);
        r.counter_add(obs_names::FLEET_RESTARTS, restarts);
        r.counter_add(obs_names::FLEET_HUNG_KILLS, hung_kills);
        r.counter_add(obs_names::FLEET_ABANDONED, abandoned.len() as u64);
    }
    let paths: Vec<PathBuf> = shards.iter().map(|s| s.path.clone()).collect();
    let merged = if paths.iter().any(|p| p.exists()) {
        Some(merge_shard_journals(&paths)?)
    } else {
        None
    };
    Ok(FleetReport {
        merged,
        spawns,
        restarts,
        hung_kills,
        abandoned,
        abandoned_detail,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustfi::{
        read_journal, JournalHeader, JournalWriter, NeuronSite, OutcomeKind, TrialRecord,
    };
    use std::process::Command;

    fn record(trial: usize) -> TrialRecord {
        TrialRecord {
            trial,
            image_index: trial % 2,
            layer: 0,
            site: Some(NeuronSite {
                layer: 0,
                batch: None,
                channel: 0,
                y: 0,
                x: trial,
            }),
            outcome: OutcomeKind::Masked,
            due_layer: None,
            top5_miss: false,
            confidence_delta: 0.0,
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rustfi-fleet-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes a complete journal for `spec` to a staging path the fake
    /// workers `cp` into place.
    fn stage_shard(dir: &Path, spec: &ShardSpec, trials: usize) -> PathBuf {
        let staged = dir.join(format!("staged-{}.jsonl", spec.index));
        let mut w = JournalWriter::create(
            &staged,
            JournalHeader {
                seed: 5,
                trials,
                config_hash: 0xC0FFEE,
                shard_index: spec.index,
                shard_count: spec.count,
            },
        )
        .unwrap();
        for t in spec.start..spec.end {
            w.append(&record(t), &staged).unwrap();
        }
        staged
    }

    fn fast_cfg(trials: usize, shards: usize, dir: PathBuf) -> FleetConfig {
        let mut cfg = FleetConfig::new(trials, shards, dir);
        cfg.poll_interval = Duration::from_millis(10);
        cfg.heartbeat_timeout = Duration::from_millis(400);
        cfg.backoff_base = Duration::from_millis(10);
        cfg.backoff_cap = Duration::from_millis(50);
        cfg.deadline = Some(Duration::from_secs(30));
        cfg
    }

    /// Three `cp` workers copy complete staged journals into place; the
    /// fleet must merge them into a complete report.
    fn healthy_fleet(name: &str, poll_interval: Duration) -> FleetReport {
        let trials = 9;
        let dir = tmp_dir(name);
        let staged: Vec<PathBuf> = plan_shards(trials, 3)
            .iter()
            .map(|s| stage_shard(&dir, s, trials))
            .collect();
        let mut cfg = fast_cfg(trials, 3, dir);
        cfg.poll_interval = poll_interval;
        let report = orchestrate(&cfg, |spec, path, _attempt| {
            Command::new("cp")
                .arg(&staged[spec.index])
                .arg(path)
                .spawn()
        })
        .unwrap();
        assert!(report.is_complete(), "{report:?}");
        assert_eq!(report.spawns, 3);
        assert_eq!(report.restarts, 0);
        let merged = report.merged.as_ref().unwrap();
        assert_eq!(merged.records.len(), trials);
        assert_eq!(merged.counts.masked, trials);
        report
    }

    #[test]
    fn healthy_fleet_merges_to_a_complete_report() {
        healthy_fleet("healthy", Duration::from_millis(10));
    }

    #[test]
    fn orchestrator_returns_when_its_workers_do() {
        // The `cp` workers finish in milliseconds: the fleet must end with
        // them, not a poll interval later.
        let report = healthy_fleet("prompt", Duration::from_secs(2));
        assert!(
            report.elapsed < Duration::from_secs(1),
            "fleet took {:?} for workers that exit at once",
            report.elapsed
        );
    }

    #[test]
    fn dead_worker_is_restarted_with_backoff_and_the_fleet_recovers() {
        let trials = 6;
        let dir = tmp_dir("dead");
        let staged: Vec<PathBuf> = plan_shards(trials, 2)
            .iter()
            .map(|s| stage_shard(&dir, s, trials))
            .collect();
        let report = orchestrate(&fast_cfg(trials, 2, dir), |spec, path, attempt| {
            if spec.index == 1 && attempt == 0 {
                // First launch of shard 1 dies immediately.
                Command::new("false").spawn()
            } else {
                Command::new("cp")
                    .arg(&staged[spec.index])
                    .arg(path)
                    .spawn()
            }
        })
        .unwrap();
        assert!(report.is_complete(), "{report:?}");
        assert!(report.restarts >= 1);
        assert_eq!(report.spawns, 3, "2 first launches + 1 restart");
    }

    #[test]
    fn hung_worker_is_killed_and_restarted() {
        let trials = 4;
        let dir = tmp_dir("hung");
        let staged: Vec<PathBuf> = plan_shards(trials, 2)
            .iter()
            .map(|s| stage_shard(&dir, s, trials))
            .collect();
        let report = orchestrate(&fast_cfg(trials, 2, dir), |spec, path, attempt| {
            if spec.index == 0 && attempt == 0 {
                // Never writes a byte: the heartbeat deadline must catch it.
                Command::new("sleep").arg("600").spawn()
            } else {
                Command::new("cp")
                    .arg(&staged[spec.index])
                    .arg(path)
                    .spawn()
            }
        })
        .unwrap();
        assert!(report.is_complete(), "{report:?}");
        assert!(report.hung_kills >= 1, "{report:?}");
    }

    #[test]
    fn exhausted_retry_budget_degrades_to_a_partial_report() {
        let trials = 8;
        let dir = tmp_dir("abandon");
        let plan = plan_shards(trials, 2);
        let staged = stage_shard(&dir, &plan[0], trials);
        let mut cfg = fast_cfg(trials, 2, dir);
        cfg.max_restarts = 1;
        let report = orchestrate(&cfg, |spec, path, _attempt| {
            if spec.index == 1 {
                Command::new("false").spawn() // dies every time
            } else {
                Command::new("cp").arg(&staged).arg(path).spawn()
            }
        })
        .unwrap();
        assert!(!report.is_complete());
        assert_eq!(report.abandoned, vec![1]);
        assert_eq!(report.abandoned_detail.len(), 1);
        let detail = &report.abandoned_detail[0];
        assert_eq!(detail.shard, 1);
        assert_eq!(detail.restarts, 1, "one restart before the budget ran out");
        assert_eq!(detail.records, 0, "`false` never journals anything");
        assert_eq!(detail.trials, plan[1].trials());
        let merged = report.merged.unwrap();
        assert_eq!(merged.missing_shards, vec![1]);
        assert_eq!(merged.records.len(), plan[0].trials());
        assert_eq!(merged.missing_trials, plan[1].trials());
    }

    #[test]
    fn rerunning_the_orchestrator_over_a_finished_fleet_spawns_nothing() {
        let trials = 6;
        let dir = tmp_dir("rerun");
        let staged: Vec<PathBuf> = plan_shards(trials, 2)
            .iter()
            .map(|s| stage_shard(&dir, s, trials))
            .collect();
        let cfg = fast_cfg(trials, 2, dir.clone());
        // First fleet completes normally; its journals are in place.
        for (spec, staged) in plan_shards(trials, 2).iter().zip(&staged) {
            std::fs::copy(staged, spec.journal_path(&dir)).unwrap();
        }
        let report = orchestrate(&cfg, |_spec, _path, _attempt| {
            panic!("finished shards must not be relaunched")
        })
        .unwrap();
        assert!(report.is_complete(), "{report:?}");
        assert_eq!(report.spawns, 0);
    }

    #[test]
    fn stillborn_journal_is_discarded_but_real_ones_are_kept() {
        let dir = tmp_dir("stillborn");
        let torn = dir.join("torn.jsonl");
        std::fs::write(&torn, "{\"rustfi_jour").unwrap();
        discard_stillborn_journal(&torn).unwrap();
        assert!(!torn.exists(), "headerless journal removed");

        let real = dir.join("real.jsonl");
        std::fs::write(&real, "{\"rustfi_journal\":2}\npartial-tail").unwrap();
        discard_stillborn_journal(&real).unwrap();
        assert!(real.exists(), "journal with a complete line survives");

        discard_stillborn_journal(&dir.join("absent.jsonl")).unwrap();
    }

    fn outcome_events(batch: &rustfi_obs::ObsBatch) -> usize {
        batch
            .events
            .iter()
            .filter(|e| matches!(e, rustfi_obs::Event::TrialOutcome(_)))
            .count()
    }

    #[test]
    fn observed_worker_leaves_a_sidecar_and_identical_records() {
        use rustfi_obs::{read_sidecar, sidecar_path, MergedTelemetry};

        let dir = tmp_dir("observed");
        let tb = testbed::Testbed::from_env();
        let mut cfg = tb.campaign_config();
        cfg.trials = 12;
        let factory = tb.factory();
        let campaign = tb.campaign(&factory);
        let spec = plan_shards(cfg.trials, 1)[0];

        // Unobserved reference first, then the observed worker in a second
        // directory: telemetry must not perturb a single record.
        let plain = run_shard_worker(
            &campaign,
            &cfg,
            &spec,
            &dir.join("plain.jsonl"),
            Duration::from_millis(50),
        )
        .unwrap();
        let journal = dir.join("shard-0000-of-0001.jsonl");
        let observed = run_shard_worker_observed(
            &campaign,
            &cfg,
            &spec,
            &journal,
            2,
            Duration::from_millis(50),
        )
        .unwrap();
        assert_eq!(
            observed.records, plain.records,
            "telemetry perturbed records"
        );

        // The sidecar for attempt 2 exists, reads clean, and saw the run:
        // trial outcomes for every trial plus per-trial timings.
        let sc = read_sidecar(&sidecar_path(&journal, 2)).unwrap();
        assert_eq!(sc.torn_lines, 0);
        assert_eq!(
            (sc.header.shard, sc.header.shards, sc.header.attempt),
            (0, 1, 2)
        );
        assert_eq!(
            outcome_events(&sc.batch),
            cfg.trials,
            "one outcome event per trial"
        );

        // It is the only file telemetry adds, and the fleet dir's merge
        // reads it.
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(
            files,
            [
                "plain.jsonl",
                "shard-0000-of-0001.attempt-0002.telemetry.jsonl",
                "shard-0000-of-0001.jsonl"
            ]
        );
        let telemetry = MergedTelemetry::from_dir(&dir).unwrap();
        assert_eq!(telemetry.lanes.len(), 1);
        assert!(telemetry.skipped.is_empty());
        assert!(telemetry.chrome_trace().contains("\"traceEvents\""));
    }

    #[test]
    fn a_killed_attempts_sidecar_survives_its_restart() {
        use rustfi_obs::{sidecar_path, MergedTelemetry};

        let dir = tmp_dir("postmortem");
        let tb = testbed::Testbed::from_env();
        let mut cfg = tb.campaign_config();
        cfg.trials = 12;
        let factory = tb.factory();
        let campaign = tb.campaign(&factory);
        let spec = plan_shards(cfg.trials, 1)[0];
        let every = Duration::from_millis(50);
        let plain =
            run_shard_worker(&campaign, &cfg, &spec, &dir.join("plain.jsonl"), every).unwrap();

        // Attempt 0 runs; a kill then leaves its journal at `kept` records
        // and a torn half line.
        let journal = dir.join("shard-0000-of-0001.jsonl");
        run_shard_worker_observed(&campaign, &cfg, &spec, &journal, 0, every).unwrap();
        let kept = 5;
        let text = std::fs::read_to_string(&journal).unwrap();
        let body: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with("{\"heartbeat\""))
            .collect();
        let next = body[kept + 1];
        let killed = format!("{}\n{}", body[..=kept].join("\n"), &next[..next.len() / 2]);
        std::fs::write(&journal, killed).unwrap();
        let first = sidecar_path(&journal, 0);
        let postmortem = std::fs::read(&first).unwrap();

        // Attempt 1 resumes the shard, writing its own sidecar.
        let resumed =
            run_shard_worker_observed(&campaign, &cfg, &spec, &journal, 1, every).unwrap();
        assert_eq!(
            std::fs::read(&first).unwrap(),
            postmortem,
            "the restart rewrote the killed attempt's sidecar"
        );
        assert_eq!(
            resumed.records, plain.records,
            "the resumed shard's records"
        );

        let telemetry = MergedTelemetry::from_dir(&dir).unwrap();
        assert_eq!(telemetry.attempts_for(0), vec![0, 1]);
        let lanes: Vec<usize> = telemetry
            .lanes
            .iter()
            .map(|l| outcome_events(&l.batch))
            .collect();
        assert_eq!(
            lanes,
            vec![cfg.trials, cfg.trials - kept],
            "attempt 1 reruns only the trials its journal lacked"
        );
    }

    #[test]
    fn heartbeat_thread_beats_into_existing_journals_only() {
        let dir = tmp_dir("beat");
        let path = dir.join("shard.jsonl");
        {
            let _beat = Heartbeat::start(path.clone(), Duration::from_millis(10));
            std::thread::sleep(Duration::from_millis(80));
            assert!(!path.exists(), "no journal yet: no beats");
            JournalWriter::create(&path, JournalHeader::solo(1, 1, 0)).unwrap();
            std::thread::sleep(Duration::from_millis(120));
        } // drop stops the thread
        let (_, records) = read_journal(&path).unwrap();
        assert!(records.is_empty(), "heartbeats are not records");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("heartbeat"),
            "beats landed once the file existed"
        );
    }
}
