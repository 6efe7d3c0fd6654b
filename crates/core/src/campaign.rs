//! Seeded, parallel, crash-safe error-injection campaigns.
//!
//! A campaign repeats: pick a correctly-classified input, plan a fresh fault
//! from a template, run the perturbed inference, classify the outcome. Trials
//! are distributed across worker threads, but every trial's randomness is
//! derived from `(campaign seed, trial index)`, so results are identical for
//! any thread count.
//!
//! Campaigns are *resilient*:
//!
//! - every trial runs inside a panic shield — a perturbation model or layer
//!   that panics costs one [`OutcomeKind::Crash`] record, not the campaign;
//! - an optional step-budget watchdog cuts runaway forward passes short and
//!   classifies them [`OutcomeKind::Hang`];
//! - optional NaN/Inf guard hooks ([`GuardMode`]) catch non-finite
//!   activations *inside* the network — including those that downstream
//!   ReLU/pooling would launder back into finite logits — and record the
//!   originating layer as DUE provenance;
//! - [`Campaign::run_journaled`] appends each finished trial to a crash-safe
//!   JSONL journal, and [`Campaign::resume`] replays it, running only the
//!   missing trials. Because trial randomness is position-based, a resumed
//!   campaign is bit-identical to an uninterrupted one.
//!
//! Campaigns can also *fuse* trials ([`CampaignConfig::fusion`]): pending
//! neuron-fault trials that share an `(injection layer, image)` pair — the
//! prefix-cache key — execute as one batched forward pass whose batch slices
//! carry independent faults, after the fault-free prefix they share has run
//! once, at batch 1. Guards and INT8 quantization are evaluated per
//! sample, so a NaN in one trial never touches its batch siblings, and a
//! chunk whose forward pass panics or trips the watchdog is replayed
//! serially. Like prefix caching and journaling, fusion is invisible in the
//! results: records are bit-identical to serial execution for every seed,
//! worker count, and fusion width (property-tested).

use crate::config::FiConfig;
use crate::error::FiError;
use crate::injector::{FaultInjector, FusedTrialFault, NeuronFault, QuantMode, WeightFault};
use crate::journal::{read_journal_repairing, JournalHeader, JournalWriter};
use crate::location::{BatchSelect, NeuronSelect, NeuronSite, WeightSelect};
use crate::metrics::{classify_outcome, confidence, tally, top1, OutcomeCounts, OutcomeKind};
use crate::perturbation::PerturbationModel;
use crate::prefix::{GoldenPrefix, PassStart};
use parking_lot::Mutex;
use rustfi_nn::{
    CalibrationTable, DeadlineInterrupt, GuardConfig, GuardHook, LayerId, Network,
    NonFiniteInterrupt,
};
use rustfi_obs::{
    names as obs_names, now_ns, thread_tid, Event as ObsEvent, LocalRecorder, Recorder, SpanRecord,
    TrialOutcomeEvent,
};
use rustfi_tensor::{parallel, SeededRng, Tensor};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What kind of fault each trial plans.
#[derive(Debug, Clone)]
pub enum FaultMode {
    /// A neuron fault from this selection template.
    Neuron(NeuronSelect),
    /// A weight fault from this selection template.
    Weight(WeightSelect),
}

impl FaultMode {
    /// The injectable layer every trial of this mode hits, when the mode
    /// names one: every selection but `Random` does.
    fn layer(&self) -> Option<usize> {
        match self {
            FaultMode::Neuron(
                NeuronSelect::Exact { layer, .. }
                | NeuronSelect::RandomInLayer { layer }
                | NeuronSelect::RandomInChannel { layer, .. }
                | NeuronSelect::RandomPatch { layer, .. },
            )
            | FaultMode::Weight(
                WeightSelect::Exact { layer, .. } | WeightSelect::RandomInLayer { layer },
            ) => Some(*layer),
            FaultMode::Neuron(NeuronSelect::Random) | FaultMode::Weight(WeightSelect::Random) => {
                None
            }
        }
    }
}

/// How a campaign uses NaN/Inf guard hooks during trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardMode {
    /// No activation scanning; DUEs are detected from the output only.
    #[default]
    Off,
    /// Scan every layer's output; a trial whose activations go non-finite is
    /// classified DUE with the originating layer recorded, but the forward
    /// pass runs to completion.
    Record,
    /// Like [`GuardMode::Record`], but abort the forward pass at the first
    /// non-finite activation — the remaining layers' work is skipped. The
    /// classification is identical to `Record`; only the wasted compute
    /// differs.
    ShortCircuit,
}

/// Campaign trial-fusion knobs ([`CampaignConfig::fusion`]). A fused chunk
/// runs the prefix its trials share once, at batch 1, and the injection
/// layer's output and everything after it at the chunk's width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionConfig {
    /// Maximum trials fused into one batched forward pass. Values below 2
    /// disable fusion. Wider batches amortize the shared batch-1 prefix and
    /// per-pass overhead over more trials, but cost more memory per worker
    /// and waste more work when a chunk crashes and replays serially.
    pub max_batch: usize,
}

impl Default for FusionConfig {
    fn default() -> Self {
        Self { max_batch: 16 }
    }
}

impl FusionConfig {
    /// Fusion with the given maximum batch width.
    pub fn with_width(max_batch: usize) -> Self {
        Self { max_batch }
    }
}

/// Counters describing one campaign's trial-fusion behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FusionStats {
    /// Trials executed inside fused batched forward passes.
    pub fused_trials: u64,
    /// Trials that fell back to serial execution: site planning panicked,
    /// or the trial's fused chunk crashed and was replayed one-by-one.
    pub serial_trials: u64,
    /// Fused chunks (batched forward passes) executed to completion.
    pub groups: u64,
    /// Largest fused batch executed.
    pub max_width: usize,
}

/// A live snapshot of campaign progress, handed to a
/// [`ProgressRecorder`]'s sink every reporting interval.
#[derive(Debug, Clone, Copy)]
pub struct ProgressUpdate {
    /// Trials finished so far (journal-replayed trials included).
    pub done: usize,
    /// Total trials the campaign will run.
    pub total: usize,
    /// Trials replayed from a journal at startup rather than executed by
    /// this run. Counted inside [`Self::done`], but excluded from the rate:
    /// a resume that instantly replays 90% of the campaign has not observed
    /// a 90%-per-tick execution rate.
    pub resumed: usize,
    /// Wall time since the workers started.
    pub elapsed: Duration,
    /// Running outcome tallies.
    pub counts: OutcomeCounts,
}

impl ProgressUpdate {
    /// Trials *executed by this run* per second of wall time
    /// (journal-replayed trials excluded). Zero until the run has both
    /// executed a trial and observed measurable wall time.
    pub fn trials_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        let executed = self.done.saturating_sub(self.resumed);
        if secs <= 0.0 {
            0.0
        } else {
            executed as f64 / secs
        }
    }

    /// Estimated wall time until the campaign finishes, extrapolated from
    /// the current execution rate.
    ///
    /// `None` until a rate exists — on the very first tick, and right after
    /// a resume whose replayed trials say nothing about execution speed —
    /// rather than a nonsense extrapolation from a zero rate.
    pub fn eta(&self) -> Option<Duration> {
        if self.done >= self.total {
            return Some(Duration::ZERO);
        }
        let rate = self.trials_per_sec();
        if rate <= 0.0 || !rate.is_finite() {
            return None;
        }
        Some(Duration::from_secs_f64(
            (self.total - self.done) as f64 / rate,
        ))
    }

    /// One-line human-readable rendering. The ETA shows `--:--` until a
    /// rate has been observed.
    pub fn render(&self) -> String {
        let c = &self.counts;
        let eta = match self.eta() {
            Some(d) => format!("{:.1}s", d.as_secs_f64()),
            None => String::from("--:--"),
        };
        format!(
            "trials {}/{} ({:.1}/s, ETA {eta}) | masked {} sdc {} due {} crash {} hang {}",
            self.done,
            self.total,
            self.trials_per_sec(),
            c.masked,
            c.sdc,
            c.due,
            c.crash,
            c.hang
        )
    }
}

/// Periodic live progress reporting for campaigns.
///
/// The sink runs on whichever worker thread finishes the interval's last
/// trial, so it must be cheap and thread-safe. Reporting never affects trial
/// results (randomness is position-based).
#[derive(Clone)]
pub struct ProgressRecorder {
    every: usize,
    sink: Arc<dyn Fn(&ProgressUpdate) + Send + Sync>,
}

impl ProgressRecorder {
    /// Calls `sink` after every `every` finished trials (and at completion).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(every: usize, sink: impl Fn(&ProgressUpdate) + Send + Sync + 'static) -> Self {
        assert!(every > 0, "progress interval must be positive");
        Self {
            every,
            sink: Arc::new(sink),
        }
    }

    /// A reporter that prints [`ProgressUpdate::render`] to stderr.
    pub fn stderr(every: usize) -> Self {
        Self::new(every, |u| eprintln!("{}", u.render()))
    }

    /// The reporting interval in trials.
    pub fn every(&self) -> usize {
        self.every
    }

    /// Invokes the sink directly with an externally-computed update — for
    /// aggregators (e.g. a fleet orchestrator summing shard journals) that
    /// track progress themselves rather than through a running campaign.
    pub fn emit(&self, update: &ProgressUpdate) {
        (self.sink)(update);
    }
}

impl std::fmt::Debug for ProgressRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressRecorder")
            .field("every", &self.every)
            .finish_non_exhaustive()
    }
}

/// Campaign-level knobs.
#[derive(Clone)]
pub struct CampaignConfig {
    /// Number of injection trials.
    pub trials: usize,
    /// Root seed; trial `t` derives its stream from `(seed, t)`.
    pub seed: u64,
    /// The campaign's core count: trials run on this many worker threads
    /// (`None` = all available cores). Kernels inside a worker never fork
    /// threads of their own (see [`rustfi_tensor::parallel`]), so the trial
    /// loop uses exactly these cores.
    pub threads: Option<usize>,
    /// Quantization regime for trial (and golden-prediction) forwards:
    /// [`QuantMode::Simulated`] snaps activations to the INT8 grid on top of
    /// f32 kernels; [`QuantMode::Int8`] runs real integer kernels against a
    /// calibration table built from the campaign's image set, with faults
    /// flipping stored INT8 words.
    pub quant: QuantMode,
    /// NaN/Inf guard-hook behaviour during trials.
    pub guard: GuardMode,
    /// Per-trial step budget: a trial whose forward pass reaches a leaf
    /// layer whose position in a full pass exceeds this is cut short and
    /// classified [`OutcomeKind::Hang`] (see
    /// [`rustfi_nn::GuardConfig::max_steps`]). A resumed or fused pass trips
    /// at the same leaf as a full one, so the prefix cache and fusion stay
    /// on under the watchdog. `None` disables the watchdog.
    pub max_steps: Option<usize>,
    /// Golden-prefix activation caching ([`crate::prefix::PrefixCacheConfig`]):
    /// the golden pass stores, per image, the inputs of the resume points
    /// of the injectable layers from the first one the fault mode can hit
    /// (the layer every selection but `Random` names; every injectable
    /// layer under `Random`), and the golden logits, each image whole while
    /// it fits in the byte budget. A trial pass starts at the stored input
    /// of its injection layer's resume point instead of at the pixels.
    ///
    /// The stored points are also the image's golden trace: a trial pass
    /// stops at the first spine point after its fault where its activation
    /// equals the golden one bit for bit, and its record is built from the
    /// golden logits (fused chunks drop each such slice and run on with the
    /// rest). Passes stop early only where that cannot change a record (see
    /// [`crate::prefix`]): no [`Self::max_steps`] budget below the
    /// network's leaf count, no forward hook the campaign did not install,
    /// and the image stored.
    ///
    /// Purely a throughput optimization — trial records are bit-identical
    /// with or without it (property tests assert this).
    pub prefix_cache: Option<crate::prefix::PrefixCacheConfig>,
    /// Trial fusion ([`FusionConfig`]): run up to `max_batch` trials that
    /// share an `(injection layer, image)` pair as one batched forward pass
    /// whose slices carry independent faults. The pass runs the fault-free
    /// prefix the slices share once, at batch 1, with or without
    /// [`Self::prefix_cache`] (a cache hit skips that batch-1 prefix), and
    /// broadcasts to the batch at the injection layer when that layer is on
    /// the spine (see [`rustfi_nn::Network::forward_from`]).
    /// Purely a throughput optimization — records are bit-identical to
    /// serial execution (a property test asserts this). Applies to neuron
    /// faults only. A chunk whose pass trips [`Self::max_steps`] replays
    /// its trials serially.
    pub fusion: Option<FusionConfig>,
    /// Compiled forward plans: every network (golden and per-worker) packs
    /// its conv weights into the implicit-GEMM conv kernels' panel layouts
    /// at campaign setup and fuses bias + activation (+ folded inference
    /// batchnorm) into the conv's tile store. Plans cover convolutions
    /// only; linear layers run their reference forward either way. Purely
    /// a throughput optimization — trial records are bit-identical with
    /// planning on or off (a property test asserts this): the f32 conv
    /// preserves im2col's `kk` accumulation order, padding zeros included,
    /// and fused epilogues apply the exact
    /// per-element expressions of the unfused layers. Layer groups carrying
    /// forward hooks (injection targets, guards, profilers) automatically
    /// run unfused, and a weight fault repacks only the perturbed conv's
    /// panel for that trial.
    pub plan: bool,
    /// Per-worker tensor-pool budget in bytes: each worker thread recycles
    /// retired activation buffers through a thread-local free list capped at
    /// this many bytes, making steady-state forward passes allocation-free.
    /// Purely a throughput optimization — trial records are bit-identical
    /// with pooling on or off (a property test asserts this). `0` disables
    /// pooling.
    pub pool_budget_bytes: usize,
    /// Observability sink. Workers buffer spans/events/counters into
    /// per-thread recorders and merge them here at trial boundaries, so
    /// recording neither serializes workers nor perturbs results (a property
    /// test asserts bit-identical records with and without a recorder).
    pub recorder: Option<Arc<dyn Recorder>>,
    /// Live progress reporting (trials done, rate, ETA, outcome tallies).
    pub progress: Option<ProgressRecorder>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            trials: 1000,
            seed: 0xCA_4F,
            threads: None,
            quant: QuantMode::Off,
            guard: GuardMode::Off,
            max_steps: None,
            prefix_cache: None,
            fusion: None,
            plan: false,
            pool_budget_bytes: 128 << 20,
            recorder: None,
            progress: None,
        }
    }
}

impl std::fmt::Debug for CampaignConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignConfig")
            .field("trials", &self.trials)
            .field("seed", &self.seed)
            .field("threads", &self.threads)
            .field("quant", &self.quant)
            .field("guard", &self.guard)
            .field("max_steps", &self.max_steps)
            .field("prefix_cache", &self.prefix_cache)
            .field("fusion", &self.fusion)
            .field("plan", &self.plan)
            .field("pool_budget_bytes", &self.pool_budget_bytes)
            .field("recorder", &self.recorder.is_some())
            .field("progress", &self.progress)
            .finish()
    }
}

/// Shared progress bookkeeping for one campaign run.
struct ProgressState {
    done: AtomicUsize,
    /// Trials replayed from a journal at startup; see
    /// [`ProgressUpdate::resumed`].
    resumed: usize,
    counts: Mutex<OutcomeCounts>,
    start: Instant,
}

/// One trial's record.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Trial index.
    pub trial: usize,
    /// Which test image was used.
    pub image_index: usize,
    /// The injectable layer that was hit (`usize::MAX` when the trial
    /// crashed before a fault was planned).
    pub layer: usize,
    /// The resolved neuron site (weight faults report `None`).
    pub site: Option<NeuronSite>,
    /// Outcome vs. the golden prediction.
    pub outcome: OutcomeKind,
    /// For DUE outcomes caught by a guard hook: the network layer index
    /// where the first non-finite activation appeared. `None` when the DUE
    /// was only detected at the output (or the outcome is not a DUE).
    pub due_layer: Option<usize>,
    /// Whether the golden class dropped out of the Top-5 — the paper's
    /// alternative, stricter corruption criterion (§IV-A). Crashed, hung,
    /// and guard-aborted trials produced no ranking and count as misses.
    pub top5_miss: bool,
    /// Change in softmax confidence of the golden class. Zero for crashed
    /// and hung trials (no output to compare).
    pub confidence_delta: f32,
}

/// Aggregated campaign results.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Per-trial records, in trial order.
    pub records: Vec<TrialRecord>,
    /// Totals.
    pub counts: OutcomeCounts,
    /// Per-injectable-layer tallies, sized to the highest layer a record
    /// hit plus one ([`crate::metrics::tally`]); equal to the
    /// [`crate::shard::MergedCampaign::per_layer`] of the same campaign's
    /// shard journals.
    pub per_layer: Vec<OutcomeCounts>,
    /// How many test images were eligible (classified correctly clean).
    pub eligible_images: usize,
    /// Prefix-cache counters (`None` when caching was off or bypassed).
    pub prefix: Option<crate::prefix::PrefixStats>,
    /// Trial-fusion counters (`None` when fusion was off or stood down).
    pub fusion: Option<FusionStats>,
}

impl CampaignResult {
    /// SDC rate over all trials.
    pub fn sdc_rate(&self) -> f64 {
        self.counts.sdc_rate()
    }

    /// Rate of the stricter "golden class not in Top-5" corruption
    /// criterion (paper §IV-A lists this as an alternative vulnerability
    /// definition). Always at most [`CampaignResult::sdc_rate`].
    pub fn top5_miss_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.top5_miss).count() as f64 / self.records.len() as f64
    }

    /// Mean confidence drop of the golden class across trials.
    pub fn mean_confidence_delta(&self) -> f32 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.confidence_delta).sum::<f32>() / self.records.len() as f32
    }
}

/// Refuses to resume `header` when it doesn't match `expected`, with a
/// message that pinpoints *what* diverged: a configuration-fingerprint
/// mismatch (same campaign shape, different record-affecting knobs — the
/// silent-mixed-report hazard) gets called out explicitly.
fn refuse_foreign_journal(header: &JournalHeader, expected: &JournalHeader) -> Result<(), FiError> {
    if header == expected {
        return Ok(());
    }
    let detail = if (
        header.seed,
        header.trials,
        header.shard_index,
        header.shard_count,
    ) == (
        expected.seed,
        expected.trials,
        expected.shard_index,
        expected.shard_count,
    ) {
        format!(
            "journal belongs to a different campaign configuration: it was written under \
             config fingerprint {:#018x}, this campaign's record-affecting knobs hash to \
             {:#018x}; resuming would silently mix records from diverging runs",
            header.config_hash, expected.config_hash
        )
    } else {
        format!(
            "journal belongs to a different campaign: it records seed {} over {} trials \
             (shard {} of {}), the config asks for seed {} over {} trials (shard {} of {})",
            header.seed,
            header.trials,
            header.shard_index,
            header.shard_count,
            expected.seed,
            expected.trials,
            expected.shard_index,
            expected.shard_count
        )
    };
    Err(FiError::Journal { line: 1, detail })
}

/// Journal bookkeeping shared by the workers of a journaled run.
struct JournalState {
    path: PathBuf,
    writer: Mutex<JournalWriter>,
    /// Records replayed from an earlier run, keyed by trial. Workers skip
    /// these trials; the records merge into the final result.
    done: BTreeMap<usize, TrialRecord>,
}

/// An injection campaign over a fixed model and test set.
///
/// The `factory` must produce the *same* network every call (same
/// architecture and weights — e.g. rebuild from the same seed, or reload a
/// checkpoint): each worker thread constructs its own copy.
pub struct Campaign<'a> {
    factory: &'a (dyn Fn() -> Network + Sync),
    images: &'a Tensor,
    labels: &'a [usize],
    mode: FaultMode,
    model: Arc<dyn PerturbationModel>,
}

impl<'a> Campaign<'a> {
    /// Creates a campaign.
    ///
    /// # Panics
    ///
    /// Panics if `images`/`labels` lengths disagree or are empty.
    pub fn new(
        factory: &'a (dyn Fn() -> Network + Sync),
        images: &'a Tensor,
        labels: &'a [usize],
        mode: FaultMode,
        model: Arc<dyn PerturbationModel>,
    ) -> Self {
        assert_eq!(
            images.dims()[0],
            labels.len(),
            "{} images but {} labels",
            images.dims()[0],
            labels.len()
        );
        assert!(!labels.is_empty(), "empty test set");
        Self {
            factory,
            images,
            labels,
            mode,
            model,
        }
    }

    /// Runs the campaign.
    ///
    /// Only images the clean model classifies correctly participate (as in
    /// the paper); if none qualify, the result reports zero trials.
    pub fn run(&self, cfg: &CampaignConfig) -> Result<CampaignResult, FiError> {
        self.run_internal(cfg, None, (0, cfg.trials))
    }

    /// The record-affecting configuration fingerprint this campaign stamps
    /// into journal headers; see [`crate::shard::config_fingerprint`].
    pub fn config_hash(&self, cfg: &CampaignConfig) -> u64 {
        crate::shard::config_fingerprint(cfg, &self.mode, self.model.name())
    }

    /// Runs the campaign with a crash-safe journal at `path`.
    ///
    /// If the journal already exists this resumes it (see
    /// [`Campaign::resume`]); otherwise a fresh journal is created and every
    /// finished trial is appended to it, flushed line-atomically.
    pub fn run_journaled(
        &self,
        cfg: &CampaignConfig,
        path: &Path,
    ) -> Result<CampaignResult, FiError> {
        self.run_shard(cfg, &crate::shard::plan_shards(cfg.trials, 1)[0], path)
    }

    /// Resumes a journaled campaign: trials already recorded in the journal
    /// are replayed, only the missing ones run. The merged result is
    /// bit-identical to an uninterrupted [`Campaign::run`] with the same
    /// configuration. A missing journal is an error, not a fresh start.
    pub fn resume(&self, cfg: &CampaignConfig, path: &Path) -> Result<CampaignResult, FiError> {
        std::fs::metadata(path)
            .map_err(|e| FiError::io(format!("reading journal {}", path.display()), e))?;
        self.run_journaled(cfg, path)
    }

    /// Runs one shard of the campaign — trials `spec.start..spec.end` of
    /// `cfg.trials` — with a crash-safe journal at `path`, creating or
    /// resuming it exactly as [`Campaign::run_journaled`] does.
    ///
    /// Trial randomness depends only on `(cfg.seed, trial index)`, never on
    /// which shard or worker executes a trial, so the records this shard
    /// produces are bit-identical to the same trial range of an unsharded
    /// run; [`crate::shard::merge_shard_journals`] reassembles the full
    /// report. All execution-strategy knobs (threads, fusion, prefix cache,
    /// pooling) apply per shard. The returned [`CampaignResult`] covers only
    /// this shard's range.
    ///
    /// The shard spec must come from [`crate::shard::plan_shards`] for this
    /// campaign's trial count; an inconsistent spec is refused, as is an
    /// existing journal written by a different campaign, shard identity, or
    /// configuration fingerprint.
    pub fn run_shard(
        &self,
        cfg: &CampaignConfig,
        spec: &crate::shard::ShardSpec,
        path: &Path,
    ) -> Result<CampaignResult, FiError> {
        let canonical = crate::shard::plan_shards(cfg.trials, spec.count)
            .get(spec.index)
            .copied();
        if canonical != Some(*spec) {
            return Err(FiError::Journal {
                line: 1,
                detail: format!(
                    "shard spec {spec:?} does not match the canonical plan entry {canonical:?} \
                     for {} trials",
                    cfg.trials
                ),
            });
        }
        let expected = JournalHeader {
            seed: cfg.seed,
            trials: cfg.trials,
            config_hash: self.config_hash(cfg),
            shard_index: spec.index,
            shard_count: spec.count,
        };
        let journal = if path.exists() {
            let (header, replayed) = read_journal_repairing(path)?;
            refuse_foreign_journal(&header, &expected)?;
            let mut done = BTreeMap::new();
            for r in replayed {
                if spec.contains(r.trial) {
                    done.entry(r.trial).or_insert(r);
                }
            }
            JournalState {
                path: path.to_path_buf(),
                writer: Mutex::new(JournalWriter::open_append(path)?),
                done,
            }
        } else {
            JournalState {
                path: path.to_path_buf(),
                writer: Mutex::new(JournalWriter::create(path, expected)?),
                done: BTreeMap::new(),
            }
        };
        self.run_internal(cfg, Some(journal), (spec.start, spec.end))
    }

    fn run_internal(
        &self,
        cfg: &CampaignConfig,
        journal: Option<JournalState>,
        range: (usize, usize),
    ) -> Result<CampaignResult, FiError> {
        let input_dims = {
            let d = self.images.dims();
            [1, d[1], d[2], d[3]]
        };
        // Arm this thread's tensor pool for the golden pass and planning
        // forwards too, not just the worker trial loops; dropped (and
        // cleared) when the campaign returns.
        let _pool = rustfi_tensor::tpool::budget_scope(cfg.pool_budget_bytes);

        // Golden pass: find eligible images and their clean confidence —
        // and, with prefix caching on, snapshot the inputs of the resume
        // points trials start from, so they skip the fault-free layers
        // before them.
        let mut golden = FaultInjector::new((self.factory)(), FiConfig::for_input(&input_dims))?;
        golden.net_mut().set_plan(cfg.plan);
        // Built from the network as the factory made it, before the quant
        // regime or any guard installs a hook: the prefix decides from its
        // hooks whether trial passes may stop early.
        let mut prefix = cfg.prefix_cache.as_ref().map(|pc| {
            GoldenPrefix::new(
                golden.net(),
                golden.profile(),
                self.mode.layer(),
                pc.budget_bytes,
                self.labels.len(),
                cfg.max_steps,
            )
        });
        // Install the quantization regime before anything observes
        // activations: golden predictions, prefix snapshots, and trial
        // forwards all run under the same arithmetic. The INT8 calibration
        // ranges come from the *full* campaign image set, so the table — and
        // with it every trial record — is identical across shards, thread
        // counts, and fusion widths.
        let int8_table = match cfg.quant {
            QuantMode::Off => None,
            QuantMode::Simulated => {
                golden.enable_int8_activations();
                None
            }
            QuantMode::Int8 => {
                let imgs: Vec<Tensor> = (0..self.images.dims()[0])
                    .map(|i| self.images.select_batch(i))
                    .collect();
                let table = Arc::new(CalibrationTable::calibrate(golden.net_mut(), &imgs));
                golden.enable_int8_backend(Arc::clone(&table));
                Some(table)
            }
        };
        // With guard hooks in play, an uncached trial scans the prefix
        // layers' activations while a cached one skips them, and a trial
        // that exits at the golden trace skips the layers after its exit
        // point. Golden prefixes are clean, so that only matters if the
        // *golden* run itself goes non-finite (e.g. laundered by a
        // downstream ReLU) — detect that here and leave such images
        // uncached, which also keeps their trials from exiting.
        let golden_guard = (prefix.is_some() && cfg.guard != GuardMode::Off).then(|| {
            GuardHook::install(
                golden.net(),
                GuardConfig {
                    detect_non_finite: true,
                    short_circuit: false,
                    max_steps: None,
                },
            )
        });
        let mut eligible: Vec<(usize, f32)> = Vec::new(); // (image index, clean confidence)
        for i in 0..self.labels.len() {
            let x = self.images.select_batch(i);
            if let Some(g) = &golden_guard {
                g.reset();
            }
            let mut captured: Vec<(LayerId, Tensor)> = Vec::new();
            let out = golden.net_mut().forward_with_capture(&x, &mut |id, t| {
                if prefix.as_ref().is_some_and(|p| p.stores(id)) {
                    captured.push((id, t.clone()));
                }
            });
            let row = out.data();
            if top1(row) == self.labels[i] {
                eligible.push((i, confidence(row, self.labels[i])));
                let clean = golden_guard
                    .as_ref()
                    .and_then(|g| g.first_non_finite())
                    .is_none();
                if let Some(p) = prefix.as_mut().filter(|_| clean) {
                    p.insert_image(i, captured, row);
                }
            }
        }
        // `GuardHook` has no `Drop` — detach the golden guard explicitly so
        // the recycled injector doesn't carry a stale hook into the trial
        // loop (workers install their own guard with trial settings).
        if let Some(g) = &golden_guard {
            g.uninstall(golden.net());
        }
        drop(golden_guard);
        // The golden injector already paid for a model build and a profiling
        // forward; recycle both. The profile feeds fusion planning, and the
        // injector itself is handed to the first worker that asks instead of
        // being rebuilt from scratch.
        let profile = golden.profile().clone();
        let golden_cell: Mutex<Option<FaultInjector>> = Mutex::new(Some(golden));
        if eligible.is_empty() {
            // Durability point even for degenerate runs: streaming recorders
            // (telemetry sidecars) get their flush hook.
            if let Some(rec) = &cfg.recorder {
                rec.flush();
            }
            return Ok(CampaignResult {
                records: Vec::new(),
                counts: OutcomeCounts::default(),
                per_layer: Vec::new(),
                eligible_images: 0,
                prefix: None,
                fusion: None,
            });
        }

        // Fan this run's trial range across workers; trial randomness
        // depends only on (seed, trial), so the range — the whole campaign,
        // or one shard's slice — never affects a trial's record.
        let (start, end) = range;
        debug_assert!(start <= end && end <= cfg.trials);
        let span = end - start;
        let workers = cfg
            .threads
            .unwrap_or_else(parallel::worker_count)
            .clamp(1, span.max(1));
        let root = SeededRng::new(cfg.seed);
        // Trial fusion: batch trials sharing an (injection layer, image)
        // pair into one forward pass. Neuron faults only: a weight fault
        // mutates the one set of weights every slice shares.
        let fusion_width = match (&cfg.fusion, &self.mode) {
            (Some(f), FaultMode::Neuron(_)) if f.max_batch >= 2 => Some(f.max_batch),
            _ => None,
        };
        // Journal-replayed trials count as already done so a resumed
        // campaign's progress line starts from where the previous run ended.
        let progress_state = cfg.progress.as_ref().map(|_| {
            let mut counts = OutcomeCounts::default();
            let mut done = 0usize;
            if let Some(j) = journal.as_ref() {
                for r in j.done.values() {
                    counts.record(&r.outcome);
                    done += 1;
                }
            }
            ProgressState {
                done: AtomicUsize::new(done),
                resumed: done,
                counts: Mutex::new(counts),
                start: Instant::now(),
            }
        });
        let env = RunEnv {
            input_dims,
            range,
            cfg,
            int8_table: &int8_table,
            root: &root,
            eligible: &eligible,
            prefix: prefix.as_ref(),
            mode: &self.mode,
            model: &self.model,
            profile: &profile,
            factory: self.factory,
            images: self.images,
            labels: self.labels,
            journal: journal.as_ref(),
            shared_recorder: cfg.recorder.as_ref(),
            progress: cfg.progress.as_ref(),
            progress_state: progress_state.as_ref(),
            fusion: FusionCounters::default(),
        };

        // A fused run executes planned units: chunks sharing an (injection
        // layer, image) pair, plus the trials whose planning panicked. A
        // serial run strides over the pending trials.
        let units = fusion_width
            .map(|width| plan_fused_units(&env, width))
            .transpose()?;
        let worker_results = parallel::map_indexed(workers, |w| {
            // Enable this worker thread's tensor pool for the duration of
            // its trial loop; dropped (and cleared) on exit so pooling never
            // leaks outside the campaign.
            let _pool = rustfi_tensor::tpool::budget_scope(cfg.pool_budget_bytes);
            let local = env.shared_recorder.map(|_| Arc::new(LocalRecorder::new()));
            let mut worker = build_worker(&env, local, golden_cell.lock().take())?;
            let mut records = Vec::new();
            let mut run = |unit: &WorkUnit| -> Result<(), FiError> {
                match unit {
                    WorkUnit::Fused(chunk) => {
                        records.extend(run_fused_chunk(&env, &mut worker, chunk)?)
                    }
                    WorkUnit::Serial(t) => records.push(run_one_trial(&env, &mut worker, *t)?),
                }
                Ok(())
            };
            match &units {
                Some(units) => units
                    .iter()
                    .skip(w)
                    .step_by(workers)
                    .try_for_each(&mut run)?,
                None => (start + w..end)
                    .step_by(workers)
                    .filter(|&t| env.pending(t))
                    .try_for_each(|t| run(&WorkUnit::Serial(t)))?,
            }
            Ok(records)
        });
        let fusion = fusion_width.map(|_| env.fusion.into_stats());

        let mut all_records: Vec<TrialRecord> = journal
            .map(|j| j.done.into_values().collect())
            .unwrap_or_default();
        for result in worker_results {
            all_records.extend(result?);
        }
        all_records.sort_by_key(|r| r.trial);

        let (counts, per_layer) = tally(&all_records);
        // Durability point: every worker has flushed its LocalRecorder into
        // the shared recorder by now; ask the recorder to push buffered
        // state to its backing store (a telemetry sidecar) before the result
        // is reported. In-memory recorders no-op.
        if let Some(rec) = &cfg.recorder {
            rec.flush();
        }
        Ok(CampaignResult {
            records: all_records,
            counts,
            per_layer,
            eligible_images: eligible.len(),
            prefix: prefix.as_ref().map(GoldenPrefix::stats),
            fusion,
        })
    }
}

/// Borrowed per-run context shared by every campaign worker.
struct RunEnv<'e> {
    input_dims: [usize; 4],
    /// This run's trial range `[start, end)`: the whole campaign for
    /// ordinary runs, one shard's slice under [`Campaign::run_shard`].
    range: (usize, usize),
    cfg: &'e CampaignConfig,
    /// The shared calibration table under [`QuantMode::Int8`] (built once
    /// from the full image set during the golden pass), else `None`.
    int8_table: &'e Option<Arc<CalibrationTable>>,
    root: &'e SeededRng,
    eligible: &'e [(usize, f32)],
    prefix: Option<&'e GoldenPrefix>,
    mode: &'e FaultMode,
    model: &'e Arc<dyn PerturbationModel>,
    profile: &'e crate::profile::ModelProfile,
    factory: &'e (dyn Fn() -> Network + Sync),
    images: &'e Tensor,
    labels: &'e [usize],
    journal: Option<&'e JournalState>,
    shared_recorder: Option<&'e Arc<dyn Recorder>>,
    progress: Option<&'e ProgressRecorder>,
    progress_state: Option<&'e ProgressState>,
    /// Fused and serial unit tallies, reported when fusion is on.
    fusion: FusionCounters,
}

impl RunEnv<'_> {
    /// Trials in this run's range — the progress total.
    fn span(&self) -> usize {
        self.range.1 - self.range.0
    }

    /// Whether trial `t` still has to run (no journal replayed it).
    fn pending(&self, t: usize) -> bool {
        !self.journal.is_some_and(|j| j.done.contains_key(&t))
    }

    /// Trial `t`'s seed and the eligible image it runs on, as `(seed, image
    /// index, clean confidence)`: the seed is the root stream's fork `t`,
    /// and the image is drawn from fork 3 of that seed. Serial and fused
    /// trials both draw here, so they run every trial on the same image.
    fn draw(&self, t: usize) -> (u64, usize, f32) {
        let seed = self.root.fork(t as u64).seed();
        let mut pick_rng = SeededRng::new(seed).fork(3);
        let (image_index, clean_conf) = self.eligible[pick_rng.below(self.eligible.len())];
        (seed, image_index, clean_conf)
    }
}

/// Shared tallies behind [`FusionStats`].
#[derive(Default)]
struct FusionCounters {
    fused: AtomicU64,
    serial: AtomicU64,
    groups: AtomicU64,
    max_width: AtomicUsize,
}

impl FusionCounters {
    fn into_stats(self) -> FusionStats {
        FusionStats {
            fused_trials: self.fused.into_inner(),
            serial_trials: self.serial.into_inner(),
            groups: self.groups.into_inner(),
            max_width: self.max_width.into_inner(),
        }
    }
}

/// One planned (not yet executed) trial of a fused campaign.
#[derive(Clone)]
struct PlannedTrial {
    t: usize,
    seed: u64,
    image_index: usize,
    clean_conf: f32,
    sites: Vec<NeuronSite>,
}

/// Planned trials sharing an `(injection layer, image)` pair, run as one
/// batched forward pass.
struct FusedChunk {
    layer: usize,
    image_index: usize,
    trials: Vec<PlannedTrial>,
}

/// A unit of campaign work: a fused chunk, or one trial that runs serially.
enum WorkUnit {
    Fused(FusedChunk),
    Serial(usize),
}

/// One worker thread's injector (+ guard) and observability buffer.
struct Worker {
    fi: FaultInjector,
    guard: Option<GuardHook>,
    /// Per-worker observability buffer; merged into the shared recorder at
    /// unit boundaries (one short locked push per unit), so workers contend
    /// only for that push.
    local: Option<Arc<LocalRecorder>>,
}

/// A worker recording into `local`; also used to rebuild after a crashed
/// trial, whose unwind may have left the network mid-mutation.
///
/// `recycled` (when given) is the golden-pass injector, reused instead of
/// paying another model build + profiling forward. Every trial path restores
/// weights and reseeds (or carries explicit per-trial seeds) before touching
/// the injector, so a recycled one is record-identical to a fresh build.
fn build_worker(
    env: &RunEnv<'_>,
    local: Option<Arc<LocalRecorder>>,
    recycled: Option<FaultInjector>,
) -> Result<Worker, FiError> {
    let cfg = env.cfg;
    let mut fi = match recycled {
        Some(fi) => fi,
        None => FaultInjector::new((env.factory)(), FiConfig::for_input(&env.input_dims))?,
    };
    if let Some(l) = &local {
        // Before the guard install, so guard events route through the same
        // buffer.
        fi.set_recorder(Some(Arc::clone(l) as Arc<dyn Recorder>));
    }
    // A recycled golden injector arrives already planned; a fresh build
    // packs its panels lazily at the first trial forward (setup cost, not
    // steady state).
    fi.net_mut().set_plan(cfg.plan);
    match cfg.quant {
        QuantMode::Off => {}
        QuantMode::Simulated => fi.enable_int8_activations(),
        QuantMode::Int8 => fi.enable_int8_backend(Arc::clone(
            env.int8_table.as_ref().expect("Int8 mode built a table"),
        )),
    }
    // Install the guard after the quant regime so it scans the values the
    // next layer will actually consume.
    let guard = (cfg.guard != GuardMode::Off || cfg.max_steps.is_some()).then(|| {
        GuardHook::install(
            fi.net(),
            GuardConfig {
                detect_non_finite: cfg.guard != GuardMode::Off,
                short_circuit: cfg.guard == GuardMode::ShortCircuit,
                max_steps: cfg.max_steps,
            },
        )
    });
    Ok(Worker { fi, guard, local })
}

impl TrialRecord {
    /// The record of trial `trial` on image `image_index`, hitting `layer`
    /// at `site`, with the fields of a trial that produced no output: a
    /// Top-5 miss and no confidence change. Callers overwrite the
    /// placeholder outcome.
    fn unfinished(
        trial: usize,
        image_index: usize,
        layer: usize,
        site: Option<NeuronSite>,
    ) -> Self {
        Self {
            trial,
            image_index,
            layer,
            site,
            outcome: OutcomeKind::Hang,
            due_layer: None,
            top5_miss: true,
            confidence_delta: 0.0,
        }
    }
}

/// Completes `base` for a trial whose forward pass produced output `row`.
/// A guard that saw a non-finite activation in layer `non_finite` makes it
/// a DUE with that layer as provenance, whatever the output looks like;
/// otherwise `row` is classified against the golden label.
fn record_from_row(
    env: &RunEnv<'_>,
    base: TrialRecord,
    clean_conf: f32,
    row: &[f32],
    non_finite: Option<LayerId>,
) -> TrialRecord {
    if let Some(layer) = non_finite {
        return TrialRecord {
            outcome: OutcomeKind::Due,
            due_layer: Some(layer.index()),
            confidence_delta: -clean_conf,
            ..base
        };
    }
    let golden_label = env.labels[base.image_index];
    let finite = row.iter().all(|v| v.is_finite());
    TrialRecord {
        outcome: classify_outcome(golden_label, row),
        top5_miss: !finite || !crate::metrics::in_top_k(row, golden_label, 5),
        confidence_delta: if finite {
            confidence(row, golden_label) - clean_conf
        } else {
            -clean_conf
        },
        ..base
    }
}

/// Runs trial `t` serially: plan, inject, forward, classify, then
/// [`finish_unit`]. Fused campaigns call this too — for trials whose
/// planning panicked and for chunks replayed after a crash — which is what
/// makes fused records bit-identical to serial ones.
fn run_one_trial(env: &RunEnv<'_>, w: &mut Worker, t: usize) -> Result<TrialRecord, FiError> {
    let (trial_seed, image_index, clean_conf) = env.draw(t);
    let fi = &mut w.fi;
    fi.restore();
    fi.reseed(trial_seed);
    fi.set_trial(Some(t));
    let trial_start = w.local.as_ref().map(|_| now_ns());
    if let Some(g) = &w.guard {
        g.reset();
    }

    // The shield confines a panicking perturbation model (or layer) to this
    // trial; guard interrupts unwind through the same channel and are told
    // apart by payload type.
    let mut planned: Option<(usize, Option<NeuronSite>)> = None;
    let mut prefix_hit: Option<bool> = None;
    let shielded = parallel::shield::run_quietly(|| -> Result<Vec<f32>, FiError> {
        let (layer, site) = match env.mode {
            FaultMode::Neuron(select) => {
                let sites = fi
                    .declare_neuron_fi(&[NeuronFault {
                        select: select.clone(),
                        batch: BatchSelect::All,
                        model: Arc::clone(env.model),
                    }])
                    .map_err(|e| FiError::Trial {
                        trial: t,
                        source: Box::new(e),
                    })?;
                (sites[0].layer, Some(sites[0]))
            }
            FaultMode::Weight(select) => {
                let sites = fi
                    .declare_weight_fi(&[WeightFault {
                        select: select.clone(),
                        model: Arc::clone(env.model),
                    }])
                    .map_err(|e| FiError::Trial {
                        trial: t,
                        source: Box::new(e),
                    })?;
                (sites[0].layer, None)
            }
        };
        planned = Some((layer, site));
        let start = PassStart::new(env.prefix, layer, image_index);
        prefix_hit = start.hit;
        let out = start.run(fi.net_mut(), env.images, None);
        let row = start.row(fi.net(), &out, 0).to_vec();
        out.into_pool();
        Ok(row)
    });

    let (layer, site) = planned.unwrap_or((usize::MAX, None));
    let base = TrialRecord::unfinished(t, image_index, layer, site);
    let record = match shielded {
        Ok(Ok(row)) => {
            let non_finite = w.guard.as_ref().and_then(|g| g.first_non_finite());
            record_from_row(env, base, clean_conf, &row, non_finite.map(|(id, _)| id))
        }
        // Planning rejected the fault template: a configuration error, not
        // a trial outcome.
        Ok(Err(e)) => return Err(e),
        Err(payload) => {
            if let Some(nf) = payload.downcast_ref::<NonFiniteInterrupt>() {
                // Short-circuited by a guard: the DUE a recording guard
                // would report, without an output.
                record_from_row(env, base, clean_conf, &[], Some(nf.layer))
            } else if payload.downcast_ref::<DeadlineInterrupt>().is_some() {
                TrialRecord {
                    outcome: OutcomeKind::Hang,
                    ..base
                }
            } else {
                let detail = parallel::shield::payload_message(payload.as_ref());
                // The unwind may have interrupted a weight mutation or hook
                // bookkeeping: rebuild this worker's injector from scratch.
                *w = build_worker(env, w.local.take(), None)?;
                TrialRecord {
                    outcome: OutcomeKind::Crash { detail },
                    ..base
                }
            }
        }
    };
    finish_unit(
        env,
        w,
        std::slice::from_ref(&record),
        trial_start,
        prefix_hit,
        None,
    )?;
    Ok(record)
}

/// Everything that follows a unit's forward pass, given its finished
/// `records`: prefix-cache and fusion counters, journal appends, and —
/// while recording — the unit's trace span with pool, prefix and fusion
/// counters and outcome events, flushed to the shared recorder; then
/// progress. A unit is one serial trial (`fused_image` is `None`) or one
/// fused chunk on image `fused_image`. `prefix_hit` is the unit's golden
/// prefix outcome (`None` when no prefix applied), charged only now so that
/// a crashed chunk's serial replay counts its trials instead; so are the
/// trials its pass dropped at the golden trace, which the worker's network
/// still reports. `start_ns` is when the unit began (`Some` only while
/// recording).
fn finish_unit(
    env: &RunEnv<'_>,
    w: &Worker,
    records: &[TrialRecord],
    start_ns: Option<u64>,
    prefix_hit: Option<bool>,
    fused_image: Option<usize>,
) -> Result<(), FiError> {
    let n = records.len() as u64;
    let layer = records[0].layer;
    let prefix = env
        .prefix
        .zip(prefix_hit)
        .map(|(p, hit)| (hit, p.count(layer, hit, n)));
    let dropped = w.fi.net().dropped();
    let exit_skipped = env
        .prefix
        .filter(|_| !dropped.is_empty())
        .map(|p| p.count_exits(dropped));
    let counters = &env.fusion;
    if fused_image.is_some() {
        counters.fused.fetch_add(n, Ordering::Relaxed);
        counters.groups.fetch_add(1, Ordering::Relaxed);
        counters
            .max_width
            .fetch_max(records.len(), Ordering::Relaxed);
    } else {
        counters.serial.fetch_add(n, Ordering::Relaxed);
    }
    if let Some(j) = env.journal {
        let mut writer = j.writer.lock();
        for record in records {
            writer.append(record, &j.path)?;
        }
    }
    if let (Some(l), Some(start)) = (&w.local, start_ns) {
        let dur = now_ns().saturating_sub(start);
        let (name, kind, timing) = match fused_image {
            Some(image) => (
                format!("fused chunk layer {layer} image {image} x{n}"),
                "fused",
                obs_names::CAMPAIGN_FUSED_CHUNK_NS,
            ),
            None => (
                format!("trial {}", records[0].trial),
                "trial",
                obs_names::CAMPAIGN_TRIAL_NS,
            ),
        };
        l.span(SpanRecord {
            name,
            kind,
            layer: None,
            start_ns: start,
            dur_ns: dur,
            tid: thread_tid(),
        });
        l.observe_ns(timing, dur);
        if fused_image.is_some() {
            l.observe_ns(obs_names::CAMPAIGN_FUSED_WIDTH, n);
            l.counter_add(obs_names::CAMPAIGN_FUSED_TRIALS, n);
            l.counter_add(obs_names::CAMPAIGN_FUSED_GROUPS, 1);
        }
        // Pool counters since the last unit boundary on this thread; zero
        // activity (pooling disabled) emits nothing.
        let pool = rustfi_tensor::tpool::take_stats();
        if pool.hits + pool.misses > 0 {
            l.counter_add(obs_names::CAMPAIGN_POOL_HITS, pool.hits);
            l.counter_add(obs_names::CAMPAIGN_POOL_MISSES, pool.misses);
            l.counter_add(obs_names::CAMPAIGN_POOL_RECYCLED_BYTES, pool.bytes_recycled);
        }
        match prefix {
            Some((true, skipped)) => {
                l.counter_add(obs_names::CAMPAIGN_PREFIX_HITS, n);
                l.counter_add(obs_names::CAMPAIGN_PREFIX_SKIPPED_FLOPS, skipped * n);
            }
            Some((false, _)) => l.counter_add(obs_names::CAMPAIGN_PREFIX_MISSES, n),
            None => {}
        }
        if let Some(skipped) = exit_skipped {
            l.counter_add(obs_names::CAMPAIGN_PREFIX_EXITS, dropped.len() as u64);
            l.counter_add(obs_names::CAMPAIGN_PREFIX_EXIT_SKIPPED_FLOPS, skipped);
        }
        for record in records {
            l.event(ObsEvent::TrialOutcome(TrialOutcomeEvent {
                trial: record.trial,
                layer: record.layer,
                outcome: record.outcome.label(),
                due_layer: record.due_layer,
            }));
        }
        // Unit boundary: hand the whole buffer to the shared recorder in
        // one merge.
        if let Some(shared) = env.shared_recorder {
            l.flush_into(&**shared);
        }
    }
    if let Some(p) = env.progress_state {
        for record in records {
            let done = {
                let mut c = p.counts.lock();
                c.record(&record.outcome);
                p.done.fetch_add(1, Ordering::Relaxed) + 1
            };
            if let Some(pr) = env.progress {
                if done % pr.every() == 0 || done == env.span() {
                    let counts = *p.counts.lock();
                    (pr.sink)(&ProgressUpdate {
                        done,
                        total: env.span(),
                        resumed: p.resumed,
                        elapsed: p.start.elapsed(),
                        counts,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Plans every pending trial by replaying exactly the per-trial RNG streams
/// a serial run would use, then groups the plans by `(injection layer,
/// image)` and cuts each group into chunks of at most `width` trials.
///
/// Planning is cheap (site resolution against the profile; no inference),
/// so it runs single-threaded — which also makes group formation trivially
/// deterministic.
fn plan_fused_units(env: &RunEnv<'_>, width: usize) -> Result<Vec<WorkUnit>, FiError> {
    let select = match env.mode {
        FaultMode::Neuron(s) => s,
        FaultMode::Weight(_) => unreachable!("fusion stands down for weight faults"),
    };
    let profile = env.profile;
    let mut groups: BTreeMap<(usize, usize), Vec<PlannedTrial>> = BTreeMap::new();
    let mut serial: Vec<usize> = Vec::new();
    for t in (env.range.0..env.range.1).filter(|&t| env.pending(t)) {
        let (seed, image_index, clean_conf) = env.draw(t);
        // The plan stream a serial declare would draw from after
        // `reseed(seed)`.
        let mut plan_rng = SeededRng::new(seed).fork(1);
        match parallel::shield::run_quietly(|| {
            select.resolve(profile, BatchSelect::All, &mut plan_rng)
        }) {
            Ok(Ok(sites)) => groups
                .entry((sites[0].layer, image_index))
                .or_default()
                .push(PlannedTrial {
                    t,
                    seed,
                    image_index,
                    clean_conf,
                    sites,
                }),
            Ok(Err(e)) => {
                return Err(FiError::Trial {
                    trial: t,
                    source: Box::new(e),
                })
            }
            // Site resolution panicked: in serial mode that is a Crash
            // record. Route the trial to serial execution so the crash
            // reproduces with identical record and side effects.
            Err(_) => serial.push(t),
        }
    }
    let mut units: Vec<WorkUnit> = Vec::new();
    for ((layer, image_index), list) in groups {
        for trials in list.chunks(width) {
            units.push(WorkUnit::Fused(FusedChunk {
                layer,
                image_index,
                trials: trials.to_vec(),
            }));
        }
    }
    units.extend(serial.into_iter().map(WorkUnit::Serial));
    Ok(units)
}

/// Executes one fused chunk: a single batched forward pass whose slice `i`
/// carries `chunk[i]`'s fault, then per-sample classification and
/// [`finish_unit`]. If the pass panics, the whole chunk is replayed serially
/// through [`run_one_trial`], reproducing the exact serial records (crash
/// detail included).
fn run_fused_chunk(
    env: &RunEnv<'_>,
    w: &mut Worker,
    chunk: &FusedChunk,
) -> Result<Vec<TrialRecord>, FiError> {
    let FusedChunk {
        layer,
        image_index,
        ref trials,
    } = *chunk;
    let n = trials.len();
    let fi = &mut w.fi;
    fi.restore();
    fi.set_trial(None); // injection events carry per-slice trial indices
    if let Some(g) = &w.guard {
        g.reset_samples(n);
    }
    let chunk_start = w.local.as_ref().map(|_| now_ns());
    let faults: Vec<FusedTrialFault> = trials
        .iter()
        .map(|p| FusedTrialFault {
            trial: p.t,
            seed: p.seed,
            sites: p.sites.clone(),
            model: Arc::clone(env.model),
        })
        .collect();
    fi.declare_fused_neuron_fi(layer, faults)
        .map_err(|e| FiError::Trial {
            trial: trials[0].t,
            source: Box::new(e),
        })?;
    // Every slice runs the same fault-free prefix, so the pass starts once,
    // at batch 1, and broadcasts to the chunk at the injection layer when
    // that layer is on the spine.
    let start = PassStart::new(env.prefix, layer, image_index);
    let broadcast = Some((env.profile.layers()[layer].id, n));
    let net = fi.net_mut();
    let out = match parallel::shield::run_quietly(|| start.run(net, env.images, broadcast)) {
        Ok(out) => out,
        // The pass unwound: the watchdog's deadline (a per-sample pass never
        // short-circuits) or a panic in one slice's fault. Replay the chunk
        // serially: every trial re-runs in isolation and produces exactly
        // the record a serial campaign would, including which trial hung or
        // crashed. A panic may have left the network mid-mutation, so only
        // a deadline keeps the worker.
        Err(payload) => {
            if !payload.is::<DeadlineInterrupt>() {
                *w = build_worker(env, w.local.take(), None)?;
            }
            return trials.iter().map(|p| run_one_trial(env, w, p.t)).collect();
        }
    };

    // Per-sample classification — each slice judged exactly as a batch-1
    // serial trial would be.
    let records: Vec<TrialRecord> = trials
        .iter()
        .enumerate()
        .map(|(b, p)| {
            let base = TrialRecord::unfinished(p.t, p.image_index, layer, Some(p.sites[0]));
            let row = start.row(w.fi.net(), &out, b);
            let non_finite = w.guard.as_ref().and_then(|g| g.first_non_finite_for(b));
            record_from_row(env, base, p.clean_conf, row, non_finite.map(|(id, _)| id))
        })
        .collect();
    out.into_pool();
    finish_unit(env, w, &records, chunk_start, start.hit, Some(image_index))?;
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{BitFlipInt8, BitSelect, Custom, RandomUniform, StuckAt};
    use rustfi_nn::{zoo, ZooConfig};
    use rustfi_tensor::Tensor;

    fn factory() -> Network {
        zoo::lenet(&ZooConfig::tiny(4))
    }

    /// Labels that match whatever the untrained net predicts, so every image
    /// is "correctly classified" and campaigns have eligible inputs.
    fn aligned_labels(images: &Tensor) -> Vec<usize> {
        let mut net = factory();
        (0..images.dims()[0])
            .map(|i| {
                let out = net.forward(&images.select_batch(i));
                top1(out.data())
            })
            .collect()
    }

    fn images() -> Tensor {
        Tensor::from_fn(&[6, 3, 16, 16], |i| ((i as f32) * 0.013).sin())
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rustfi-campaign-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn campaign_runs_and_accounts_every_trial() {
        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(RandomUniform::default()),
        );
        let result = campaign
            .run(&CampaignConfig {
                trials: 64,
                seed: 1,
                threads: Some(2),
                ..CampaignConfig::default()
            })
            .unwrap();
        assert_eq!(result.records.len(), 64);
        assert_eq!(result.counts.total(), 64);
        assert_eq!(result.eligible_images, 6);
        let layer_trials: usize = result.per_layer.iter().map(OutcomeCounts::total).sum();
        assert_eq!(layer_trials, 64);
        for (i, r) in result.records.iter().enumerate() {
            assert_eq!(r.trial, i);
        }
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(RandomUniform::default()),
        );
        let run = |threads| {
            campaign
                .run(&CampaignConfig {
                    trials: 40,
                    seed: 5,
                    threads: Some(threads),
                    ..CampaignConfig::default()
                })
                .unwrap()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn different_seeds_sample_different_sites() {
        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(RandomUniform::default()),
        );
        let sites = |seed| {
            campaign
                .run(&CampaignConfig {
                    trials: 10,
                    seed,
                    threads: Some(1),
                    ..CampaignConfig::default()
                })
                .unwrap()
                .records
                .iter()
                .map(|r| r.site)
                .collect::<Vec<_>>()
        };
        assert_ne!(sites(1), sites(2));
    }

    #[test]
    fn egregious_faults_produce_sdcs() {
        let images = images();
        let labels = aligned_labels(&images);
        // Stuck-at a huge value in random neurons: should flip predictions
        // at least sometimes.
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(StuckAt::new(1e9)),
        );
        let result = campaign
            .run(&CampaignConfig {
                trials: 150,
                seed: 2,
                ..CampaignConfig::default()
            })
            .unwrap();
        assert!(
            result.counts.sdc + result.counts.due > 0,
            "1e9 injections should corrupt something: {:?}",
            result.counts
        );
        // On corrupted trials the saturated class outcompetes the golden
        // label, so its confidence must drop on average. (Over *all* trials
        // the sign is noise: an injection that saturates the golden class
        // itself yields a masked outcome with a large positive delta.)
        let corrupted: Vec<f32> = result
            .records
            .iter()
            .filter(|r| r.outcome != OutcomeKind::Masked)
            .map(|r| r.confidence_delta)
            .collect();
        let mean = corrupted.iter().sum::<f32>() / corrupted.len() as f32;
        assert!(mean < 0.0, "confidence drops on corrupted trials: {mean}");
    }

    #[test]
    fn top5_miss_is_stricter_than_sdc() {
        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(StuckAt::new(1e9)),
        );
        let result = campaign
            .run(&CampaignConfig {
                trials: 80,
                seed: 6,
                threads: Some(2),
                ..CampaignConfig::default()
            })
            .unwrap();
        // A Top-5 miss implies a Top-1 miss, never the other way around.
        assert!(result.top5_miss_rate() <= result.sdc_rate() + 1e-9);
        for r in &result.records {
            if r.top5_miss {
                assert_ne!(
                    r.outcome,
                    OutcomeKind::Masked,
                    "top-5 miss implies corruption"
                );
            }
        }
    }

    #[test]
    fn weight_mode_works() {
        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Weight(WeightSelect::Random),
            Arc::new(RandomUniform::default()),
        );
        let result = campaign
            .run(&CampaignConfig {
                trials: 16,
                seed: 3,
                threads: Some(2),
                ..CampaignConfig::default()
            })
            .unwrap();
        assert_eq!(result.counts.total(), 16);
        assert!(result.records.iter().all(|r| r.site.is_none()));
    }

    #[test]
    fn images_of_the_wrong_channel_count_are_a_typed_error() {
        let images = Tensor::from_fn(&[2, 1, 16, 16], |i| ((i as f32) * 0.013).sin());
        let labels = [0, 1];
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(RandomUniform::default()),
        );
        let err = campaign
            .run(&CampaignConfig {
                trials: 4,
                ..CampaignConfig::default()
            })
            .unwrap_err();
        assert!(
            matches!(&err, FiError::BadInputShape { expected, .. } if expected == &[1, 1, 16, 16]),
            "{err}"
        );
    }

    #[test]
    fn per_layer_restriction_only_hits_that_layer() {
        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::RandomInLayer { layer: 2 }),
            Arc::new(RandomUniform::default()),
        );
        let result = campaign
            .run(&CampaignConfig {
                trials: 20,
                seed: 4,
                threads: Some(2),
                ..CampaignConfig::default()
            })
            .unwrap();
        assert!(result.records.iter().all(|r| r.layer == 2));
        assert_eq!(result.per_layer[2].total(), 20);
    }

    /// A perturbation model that panics on a seeded fraction of trials.
    fn grenade(p: f64) -> Arc<Custom> {
        Arc::new(Custom::new("grenade", move |old, ctx| {
            if ctx.rng.chance(p) {
                panic!("perturbation model exploded");
            }
            old + 1e6
        }))
    }

    #[test]
    fn panicking_trials_are_recorded_as_crashes() {
        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            grenade(0.3),
        );
        let run = |threads| {
            campaign
                .run(&CampaignConfig {
                    trials: 40,
                    seed: 7,
                    threads: Some(threads),
                    ..CampaignConfig::default()
                })
                .unwrap()
        };
        let result = run(1);
        assert_eq!(result.counts.total(), 40, "every trial accounted for");
        assert!(
            result.counts.crash > 0 && result.counts.crash < 40,
            "a seeded fraction crashes: {:?}",
            result.counts
        );
        for r in &result.records {
            if let OutcomeKind::Crash { detail } = &r.outcome {
                assert!(detail.contains("exploded"), "panic message kept: {detail}");
                assert!(r.top5_miss && r.confidence_delta == 0.0);
            }
        }
        // Isolation must not break determinism: same records (including
        // which trials crashed) for any thread count.
        assert_eq!(result, run(4));
    }

    #[test]
    fn watchdog_flags_hangs() {
        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(RandomUniform::default()),
        );
        let result = campaign
            .run(&CampaignConfig {
                trials: 12,
                seed: 8,
                threads: Some(3),
                max_steps: Some(2),
                ..CampaignConfig::default()
            })
            .unwrap();
        assert_eq!(result.counts.hang, 12, "a 2-step budget hangs every trial");
        assert!(result
            .records
            .iter()
            .all(|r| r.outcome == OutcomeKind::Hang && r.top5_miss));
    }

    #[test]
    fn guard_record_and_short_circuit_classify_identically() {
        let images = images();
        let labels = aligned_labels(&images);
        // Inf floods survive downstream ReLU/max-pool (unlike NaN, which
        // `f32::max` absorbs), so the guard reliably has something to see.
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(StuckAt::new(f32::INFINITY)),
        );
        let run = |guard| {
            campaign
                .run(&CampaignConfig {
                    trials: 24,
                    seed: 9,
                    threads: Some(2),
                    guard,
                    ..CampaignConfig::default()
                })
                .unwrap()
        };
        let record = run(GuardMode::Record);
        let short = run(GuardMode::ShortCircuit);
        assert!(record.counts.due > 0, "Inf injections are DUEs");
        assert_eq!(
            record, short,
            "short-circuiting only skips work, never changes the classification"
        );
        for r in &record.records {
            if r.outcome == OutcomeKind::Due {
                assert!(r.due_layer.is_some(), "guard DUEs carry layer provenance");
            }
        }
    }

    #[test]
    fn journal_resume_is_bit_identical() {
        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            grenade(0.2),
        );
        let cfg = CampaignConfig {
            trials: 30,
            seed: 10,
            threads: Some(2),
            ..CampaignConfig::default()
        };
        let uninterrupted = campaign.run(&cfg).unwrap();

        let path = tmp("resume.jsonl");
        let journaled = campaign.run_journaled(&cfg, &path).unwrap();
        assert_eq!(journaled, uninterrupted, "journaling is invisible");

        // Simulate a kill: keep the header plus a prefix of the records,
        // with the final kept line torn mid-write.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = text.lines().take(12).collect();
        let mut truncated = keep.join("\n");
        truncated.push('\n');
        truncated.push_str(&keep[11][..keep[11].len() / 2]);
        std::fs::write(&path, truncated).unwrap();

        let resumed = campaign.resume(&cfg, &path).unwrap();
        assert_eq!(resumed, uninterrupted, "resume fills exactly the gap");
        // And the journal is now complete: resuming again runs nothing new.
        let again = campaign.run_journaled(&cfg, &path).unwrap();
        assert_eq!(again, uninterrupted);
    }

    #[test]
    fn recording_and_progress_leave_results_bit_identical() {
        use rustfi_obs::TraceRecorder;

        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(StuckAt::new(f32::INFINITY)),
        );
        let cfg = CampaignConfig {
            trials: 24,
            seed: 13,
            threads: Some(2),
            guard: GuardMode::Record,
            ..CampaignConfig::default()
        };
        let plain = campaign.run(&cfg).unwrap();

        let rec = Arc::new(TraceRecorder::new());
        let updates: Arc<Mutex<Vec<ProgressUpdate>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_updates = Arc::clone(&updates);
        let observed = campaign
            .run(&CampaignConfig {
                recorder: Some(rec.clone() as Arc<dyn Recorder>),
                progress: Some(ProgressRecorder::new(5, move |u| {
                    sink_updates.lock().push(*u);
                })),
                ..cfg.clone()
            })
            .unwrap();
        assert_eq!(observed, plain, "observation never changes outcomes");

        let snap = rec.snapshot();
        let trial_spans = snap.spans.iter().filter(|s| s.kind == "trial").count();
        assert_eq!(trial_spans, 24, "one trial span per trial");
        assert!(
            snap.spans.iter().any(|s| s.kind == "conv"),
            "layer spans flowed through the worker recorders"
        );
        let outcomes: Vec<_> = snap
            .events
            .iter()
            .filter_map(|e| match e {
                rustfi_obs::Event::TrialOutcome(o) => Some(o.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(outcomes.len(), 24);
        let mut trials_seen: Vec<usize> = outcomes.iter().map(|o| o.trial).collect();
        trials_seen.sort_unstable();
        assert_eq!(trials_seen, (0..24).collect::<Vec<_>>());
        // Inf injections under GuardMode::Record produce guard provenance
        // events and matching DUE outcome labels.
        assert!(plain.counts.due > 0);
        assert!(snap
            .events
            .iter()
            .any(|e| matches!(e, rustfi_obs::Event::Guard(_))));
        assert!(snap.counters.contains_key("fi.injections"));
        assert_eq!(snap.timings.get("campaign.trial_ns").unwrap().count(), 24);

        let updates = updates.lock();
        assert!(!updates.is_empty(), "progress fired");
        let last = updates.last().unwrap();
        assert_eq!(last.done, 24);
        assert_eq!(last.total, 24);
        assert_eq!(last.counts.total(), 24);
        for u in updates.iter() {
            assert!(u.done % 5 == 0 || u.done == 24);
        }
        assert!(last.render().contains("trials 24/24"));
    }

    #[test]
    fn recorder_is_thread_count_invariant() {
        use rustfi_obs::{NullRecorder, TraceRecorder};

        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            grenade(0.2),
        );
        let run = |threads, recorder: Option<Arc<dyn Recorder>>| {
            campaign
                .run(&CampaignConfig {
                    trials: 30,
                    seed: 14,
                    threads: Some(threads),
                    recorder,
                    ..CampaignConfig::default()
                })
                .unwrap()
        };
        let baseline = run(1, None);
        assert_eq!(baseline, run(4, Some(Arc::new(NullRecorder))));
        assert_eq!(baseline, run(3, Some(Arc::new(TraceRecorder::new()))));
    }

    #[test]
    fn resume_rejects_a_foreign_journal() {
        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(RandomUniform::default()),
        );
        let path = tmp("foreign.jsonl");
        let cfg = CampaignConfig {
            trials: 8,
            seed: 11,
            threads: Some(1),
            ..CampaignConfig::default()
        };
        campaign.run_journaled(&cfg, &path).unwrap();
        let err = campaign
            .resume(
                &CampaignConfig {
                    seed: 12,
                    ..cfg.clone()
                },
                &path,
            )
            .unwrap_err();
        assert!(
            matches!(err, FiError::Journal { .. }),
            "seed mismatch rejected: {err}"
        );
    }

    #[test]
    fn prefix_cache_leaves_records_bit_identical() {
        use crate::prefix::PrefixCacheConfig;

        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(RandomUniform::default()),
        );
        let cfg = CampaignConfig {
            trials: 48,
            seed: 21,
            threads: Some(3),
            ..CampaignConfig::default()
        };
        let plain = campaign.run(&cfg).unwrap();
        let cached = campaign
            .run(&CampaignConfig {
                prefix_cache: Some(PrefixCacheConfig::default()),
                ..cfg.clone()
            })
            .unwrap();
        assert_eq!(cached.records, plain.records, "caching is invisible");
        assert_eq!(cached.counts, plain.counts);
        let stats = cached.prefix.expect("stats reported when caching is on");
        assert_eq!(stats.hits + stats.misses, 48, "every trial looked up");
        assert!(
            stats.hits > 0,
            "default budget caches everything: {stats:?}"
        );
        assert!(stats.entries > 0 && stats.bytes > 0);
        assert!(stats.skipped_flops > 0, "mid/late layers skipped work");
        assert!(plain.prefix.is_none());
    }

    #[test]
    fn prefix_cache_is_thread_count_invariant_for_weight_faults() {
        use crate::prefix::PrefixCacheConfig;

        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Weight(WeightSelect::Random),
            Arc::new(StuckAt::new(1e9)),
        );
        let run = |threads, prefix_cache| {
            campaign
                .run(&CampaignConfig {
                    trials: 32,
                    seed: 22,
                    threads: Some(threads),
                    prefix_cache,
                    ..CampaignConfig::default()
                })
                .unwrap()
        };
        let baseline = run(1, None);
        for threads in [1, 4] {
            let cached = run(threads, Some(PrefixCacheConfig::default()));
            assert_eq!(cached.records, baseline.records);
        }
    }

    #[test]
    fn prefix_cache_preserves_guard_classification() {
        use crate::prefix::PrefixCacheConfig;

        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(StuckAt::new(f32::INFINITY)),
        );
        for guard in [GuardMode::Record, GuardMode::ShortCircuit] {
            let cfg = CampaignConfig {
                trials: 24,
                seed: 23,
                threads: Some(2),
                guard,
                ..CampaignConfig::default()
            };
            let plain = campaign.run(&cfg).unwrap();
            let cached = campaign
                .run(&CampaignConfig {
                    prefix_cache: Some(PrefixCacheConfig::default()),
                    ..cfg.clone()
                })
                .unwrap();
            assert!(plain.counts.due > 0, "Inf injections are DUEs");
            assert_eq!(
                cached.records, plain.records,
                "DUE provenance survives prefix resumption under {guard:?}"
            );
        }
    }

    #[test]
    fn prefix_cache_serves_trials_under_the_watchdog() {
        use crate::prefix::PrefixCacheConfig;

        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(RandomUniform::default()),
        );
        let cfg = CampaignConfig {
            trials: 8,
            seed: 24,
            threads: Some(2),
            max_steps: Some(1000),
            ..CampaignConfig::default()
        };
        let serial = campaign
            .run(&CampaignConfig {
                threads: Some(1),
                ..cfg.clone()
            })
            .unwrap();
        let result = campaign
            .run(&CampaignConfig {
                prefix_cache: Some(PrefixCacheConfig::default()),
                ..cfg
            })
            .unwrap();
        let stats = result
            .prefix
            .expect("the cache stays on under the watchdog");
        assert!(stats.hits > 0, "{stats:?}");
        assert_eq!(result.records, serial.records);
    }

    #[test]
    fn golden_exits_stand_down_where_a_record_could_change() {
        use crate::prefix::PrefixCacheConfig;

        let images = images();
        let labels = aligned_labels(&images);
        let leaves = factory()
            .layer_infos()
            .iter()
            .filter(|l| !l.kind.is_container())
            .count();
        // A neuron of the first conv stuck at 0: a ReLU follows, so the
        // fault dies wherever the neuron was negative.
        let hooked = || {
            let net = factory();
            net.hooks().register_forward_all(|_, _| {});
            net
        };
        let run = |factory: &(dyn Fn() -> Network + Sync), max_steps, cached: bool, fused: bool| {
            Campaign::new(
                factory,
                &images,
                &labels,
                FaultMode::Neuron(NeuronSelect::RandomInLayer { layer: 0 }),
                Arc::new(StuckAt::new(0.0)),
            )
            .run(&CampaignConfig {
                trials: 40,
                seed: 31,
                threads: Some(2),
                max_steps,
                prefix_cache: cached.then(PrefixCacheConfig::default),
                fusion: fused.then(FusionConfig::default),
                ..CampaignConfig::default()
            })
            .unwrap()
        };
        for fused in [false, true] {
            for max_steps in [None, Some(leaves)] {
                let reference = run(&factory, max_steps, false, false);
                let exited = run(&factory, max_steps, true, fused);
                assert_eq!(exited.records, reference.records, "{max_steps:?}");
                let stats = exited.prefix.unwrap();
                assert!(stats.exits > 0 && stats.exits < 40, "{stats:?}");
                assert!(stats.exit_skipped_flops > 0);
            }
            // One step less cuts every pass that reaches the end: no trial
            // may exit before the watchdog trips.
            let cut = run(&factory, Some(leaves - 1), true, fused);
            assert_eq!(cut.prefix.unwrap().exits, 0);
            assert_eq!(cut.counts.hang, 40);
            // A hook the campaign did not install might act past the exit
            // point.
            let reference = run(&hooked, None, false, false);
            let user_hook = run(&hooked, None, true, fused);
            assert_eq!(user_hook.prefix.unwrap().exits, 0);
            assert_eq!(user_hook.records, reference.records);
        }
    }

    #[test]
    fn tiny_budget_misses_but_never_changes_results() {
        use crate::prefix::PrefixCacheConfig;

        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(RandomUniform::default()),
        );
        let cfg = CampaignConfig {
            trials: 32,
            seed: 25,
            threads: Some(2),
            ..CampaignConfig::default()
        };
        let plain = campaign.run(&cfg).unwrap();
        // Room for one image's activations: the other images are not
        // stored, and their trials fall back to full forward passes.
        let cached = campaign
            .run(&CampaignConfig {
                prefix_cache: Some(PrefixCacheConfig::with_budget(8 << 10)),
                ..cfg.clone()
            })
            .unwrap();
        assert_eq!(cached.records, plain.records);
        let stats = cached.prefix.unwrap();
        assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
        assert!(stats.bytes <= 8 << 10, "budget respected");
    }

    #[test]
    fn a_named_layer_keeps_the_budget_for_its_own_entries() {
        use crate::prefix::PrefixCacheConfig;

        let images = images();
        let labels = aligned_labels(&images);
        // The budget fits every image's entry for the last injectable layer,
        // but not the entries of every layer.
        let mut net = factory();
        let layers = net.injectable_layers();
        let resume: Vec<LayerId> = layers
            .iter()
            .map(|&l| net.resume_point(l).unwrap())
            .collect();
        let mut entry = vec![0usize; resume.len()];
        net.forward_with_capture(&images.select_batch(0), &mut |id, t| {
            if let Some(i) = resume.iter().position(|&r| r == id) {
                entry[i] = t.len() * std::mem::size_of::<f32>();
            }
        });
        let n = labels.len();
        let budget = n * entry[entry.len() - 1];
        assert!(budget < n * entry.iter().sum::<usize>(), "{entry:?}");
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::RandomInLayer {
                layer: layers.len() - 1,
            }),
            Arc::new(RandomUniform::default()),
        );
        let cfg = CampaignConfig {
            trials: 40,
            seed: 26,
            threads: Some(2),
            ..CampaignConfig::default()
        };
        let plain = campaign.run(&cfg).unwrap();
        let cached = campaign
            .run(&CampaignConfig {
                prefix_cache: Some(PrefixCacheConfig::with_budget(budget)),
                ..cfg.clone()
            })
            .unwrap();
        assert_eq!(cached.records, plain.records);
        let stats = cached.prefix.unwrap();
        assert_eq!(stats.hits, 40, "{stats:?}");
        assert_eq!((stats.entries, stats.bytes), (n, budget));
    }

    #[test]
    fn a_partial_store_exits_only_on_its_stored_images() {
        use crate::prefix::PrefixCacheConfig;
        use rustfi_obs::{ObsBatch, SpanCtx, SpanToken};

        /// Each fused chunk's image and its prefix hits, misses and exits:
        /// a worker merges one batch per unit.
        #[derive(Default)]
        struct Units(Mutex<Vec<(usize, [u64; 3])>>);
        impl Recorder for Units {
            fn layer_enter(&self) -> SpanToken {
                0
            }
            fn layer_exit(&self, _: &SpanCtx<'_>, _: SpanToken) {}
            fn span(&self, _: SpanRecord) {}
            fn event(&self, _: ObsEvent) {}
            fn counter_add(&self, _: &'static str, _: u64) {}
            fn observe_ns(&self, _: &'static str, _: u64) {}
            fn merge(&self, batch: ObsBatch) {
                let chunk = batch.spans.iter().find(|s| s.kind == "fused").unwrap();
                // "fused chunk layer L image I xN"
                let image = chunk.name.split(' ').nth(5).unwrap().parse().unwrap();
                let count = |name| {
                    let deltas = batch.counters.iter().filter(|&&(n, _)| n == name);
                    deltas.map(|&(_, d)| d).sum()
                };
                let counts = [
                    count(obs_names::CAMPAIGN_PREFIX_HITS),
                    count(obs_names::CAMPAIGN_PREFIX_MISSES),
                    count(obs_names::CAMPAIGN_PREFIX_EXITS),
                ];
                self.0.lock().push((image, counts));
            }
        }

        let images = images();
        let labels = aligned_labels(&images);
        // Layer 0 on, an image stores the input of every injectable layer's
        // resume point. The budget holds three of the six images whole.
        let mut net = factory();
        let layers = net.injectable_layers();
        let resume: Vec<LayerId> = layers
            .iter()
            .map(|&l| net.resume_point(l).unwrap())
            .collect();
        let mut image_bytes = 0;
        net.forward_with_capture(&images.select_batch(0), &mut |id, t| {
            if resume.contains(&id) {
                image_bytes += t.len() * std::mem::size_of::<f32>();
            }
        });
        let stored = 3;
        let budget = stored * image_bytes + image_bytes / 2;
        // A neuron of the first conv stuck at 0: a ReLU follows, so the
        // fault dies wherever the neuron was negative.
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::RandomInLayer { layer: 0 }),
            Arc::new(StuckAt::new(0.0)),
        );
        let cfg = CampaignConfig {
            trials: 60,
            seed: 32,
            threads: Some(2),
            ..CampaignConfig::default()
        };
        let reference = campaign.run(&cfg).unwrap();
        let units = Arc::new(Units::default());
        let cached = campaign
            .run(&CampaignConfig {
                prefix_cache: Some(PrefixCacheConfig::with_budget(budget)),
                fusion: Some(FusionConfig::with_width(4)),
                recorder: Some(units.clone() as Arc<dyn Recorder>),
                ..cfg
            })
            .unwrap();
        assert_eq!(cached.records, reference.records);
        let stats = cached.prefix.unwrap();
        assert_eq!(stats.bytes, stored * image_bytes, "{stats:?}");
        let units = units.0.lock();
        let mut exits = 0;
        for &(image, [hits, misses, unit_exits]) in units.iter() {
            if image < stored {
                assert!(hits > 0 && misses == 0, "image {image}: {hits}/{misses}");
            } else {
                assert!(hits == 0 && misses > 0, "image {image}: {hits}/{misses}");
                assert_eq!(unit_exits, 0, "image {image} has no trace");
            }
            exits += unit_exits;
        }
        assert!(exits > 0 && exits == stats.exits, "{stats:?}");
        let on_stored = cached.records.iter().filter(|r| r.image_index < stored);
        assert_eq!(stats.hits, on_stored.count() as u64, "{stats:?}");
        assert!(stats.misses > 0, "{stats:?}");
    }

    #[test]
    fn fusion_leaves_records_bit_identical() {
        use crate::prefix::PrefixCacheConfig;

        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(RandomUniform::default()),
        );
        let cfg = CampaignConfig {
            trials: 48,
            seed: 31,
            threads: Some(1),
            ..CampaignConfig::default()
        };
        let plain = campaign.run(&cfg).unwrap();
        for width in [2, 5, 16] {
            for threads in [1, 3] {
                for prefix_cache in [None, Some(PrefixCacheConfig::default())] {
                    let fused = campaign
                        .run(&CampaignConfig {
                            threads: Some(threads),
                            fusion: Some(FusionConfig::with_width(width)),
                            prefix_cache: prefix_cache.clone(),
                            ..cfg.clone()
                        })
                        .unwrap();
                    assert_eq!(
                        fused.records,
                        plain.records,
                        "fusion is invisible at width {width}, {threads} threads, \
                         prefix={}",
                        prefix_cache.is_some()
                    );
                    assert_eq!(fused.counts, plain.counts);
                    let stats = fused.fusion.expect("stats reported when fusion is on");
                    assert_eq!(
                        stats.fused_trials + stats.serial_trials,
                        48,
                        "every trial ran exactly once: {stats:?}"
                    );
                    assert_eq!(stats.serial_trials, 0, "nothing crashed here");
                    assert!(stats.groups > 0 && stats.max_width <= width);
                    if prefix_cache.is_some() {
                        let p = fused.prefix.expect("prefix stats still reported");
                        assert_eq!(p.hits + p.misses, 48, "fused counting matches serial");
                    }
                }
            }
        }
        assert!(plain.fusion.is_none(), "no stats when fusion is off");
    }

    #[test]
    fn fused_crashes_replay_serially_and_stay_bit_identical() {
        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            grenade(0.3),
        );
        let cfg = CampaignConfig {
            trials: 40,
            seed: 32,
            threads: Some(2),
            ..CampaignConfig::default()
        };
        let plain = campaign.run(&cfg).unwrap();
        assert!(
            plain.counts.crash > 0,
            "the grenade fires: {:?}",
            plain.counts
        );
        let fused = campaign
            .run(&CampaignConfig {
                fusion: Some(FusionConfig::default()),
                ..cfg.clone()
            })
            .unwrap();
        assert_eq!(
            fused.records, plain.records,
            "a crashed chunk replays serially with identical records"
        );
        let stats = fused.fusion.unwrap();
        assert!(
            stats.serial_trials > 0,
            "crashed chunks fell back to serial: {stats:?}"
        );
        assert_eq!(stats.fused_trials + stats.serial_trials, 40);
        // With the prefix cache on, crashed trials are counted once each,
        // serially and in replayed chunks alike.
        for fusion in [None, Some(FusionConfig::default())] {
            let cached = campaign
                .run(&CampaignConfig {
                    fusion,
                    prefix_cache: Some(crate::prefix::PrefixCacheConfig::default()),
                    ..cfg.clone()
                })
                .unwrap();
            assert_eq!(cached.records, plain.records, "fusion {fusion:?}");
            let p = cached.prefix.expect("prefix stats reported");
            assert_eq!(p.hits + p.misses, 40, "fusion {fusion:?}: {p:?}");
        }
    }

    #[test]
    fn fused_guard_blames_only_the_corrupt_slice() {
        let images = images();
        let labels = aligned_labels(&images);
        // Inf floods make some slices DUE while their chunk-mates stay
        // clean: per-sample guards must keep those verdicts separate.
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(Custom::new("inf-sometimes", |old, ctx| {
                if ctx.rng.chance(0.5) {
                    f32::INFINITY
                } else {
                    old
                }
            })),
        );
        for guard in [GuardMode::Record, GuardMode::ShortCircuit] {
            let cfg = CampaignConfig {
                trials: 32,
                seed: 33,
                threads: Some(2),
                guard,
                ..CampaignConfig::default()
            };
            let plain = campaign.run(&cfg).unwrap();
            assert!(
                plain.counts.due > 0 && plain.counts.masked > 0,
                "mixed outcomes under {guard:?}: {:?}",
                plain.counts
            );
            let fused = campaign
                .run(&CampaignConfig {
                    fusion: Some(FusionConfig::with_width(8)),
                    ..cfg.clone()
                })
                .unwrap();
            assert_eq!(
                fused.records, plain.records,
                "an Inf in one slice never contaminates its chunk-mates \
                 under {guard:?}"
            );
        }
    }

    #[test]
    fn fused_guard_charges_a_non_finite_prefix_to_every_slice() {
        // A -Inf bias in the first conv's channel 0: the ReLU after it
        // launders the value, so golden logits stay finite and every image
        // stays eligible, yet every serial trial is DUE at that conv. An
        // uncached fused chunk runs it once, at batch 1, for all its slices.
        fn poisoned() -> Network {
            let mut net = factory();
            let conv = net.injectable_layers()[0];
            net.layer_bias_mut(conv).unwrap().data_mut()[0] = f32::NEG_INFINITY;
            net
        }
        let conv = poisoned().injectable_layers()[0];
        let images = images();
        let mut net = poisoned();
        let labels: Vec<usize> = (0..images.dims()[0])
            .map(|i| top1(net.forward(&images.select_batch(i)).data()))
            .collect();
        let campaign = Campaign::new(
            &poisoned,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(RandomUniform::default()),
        );
        for guard in [GuardMode::Record, GuardMode::ShortCircuit] {
            let cfg = CampaignConfig {
                trials: 48,
                seed: 36,
                threads: Some(2),
                guard,
                ..CampaignConfig::default()
            };
            let plain = campaign.run(&cfg).unwrap();
            assert_eq!(plain.eligible_images, 6);
            assert!(
                plain
                    .records
                    .iter()
                    .all(|r| r.outcome == OutcomeKind::Due && r.due_layer == Some(conv.index())),
                "every serial trial is DUE at the poisoned conv under {guard:?}"
            );
            let fused = campaign
                .run(&CampaignConfig {
                    fusion: Some(FusionConfig::with_width(8)),
                    ..cfg.clone()
                })
                .unwrap();
            assert_eq!(fused.fusion.unwrap().serial_trials, 0);
            assert_eq!(
                fused.records, plain.records,
                "the shared prefix condemns every slice under {guard:?}"
            );
        }
    }

    #[test]
    fn fusion_stands_down_for_weight_faults_and_width_one() {
        let images = images();
        let labels = aligned_labels(&images);
        let weight = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Weight(WeightSelect::Random),
            Arc::new(RandomUniform::default()),
        );
        let result = weight
            .run(&CampaignConfig {
                trials: 8,
                seed: 34,
                fusion: Some(FusionConfig::default()),
                ..CampaignConfig::default()
            })
            .unwrap();
        assert!(
            result.fusion.is_none(),
            "weight faults mutate shared state; fusion stands down"
        );

        let neuron = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(RandomUniform::default()),
        );
        // A width below 2 cannot fuse anything.
        let result = neuron
            .run(&CampaignConfig {
                trials: 8,
                seed: 34,
                fusion: Some(FusionConfig::with_width(1)),
                ..CampaignConfig::default()
            })
            .unwrap();
        assert!(result.fusion.is_none());
    }

    #[test]
    fn fusion_runs_under_the_watchdog() {
        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(RandomUniform::default()),
        );
        let cfg = CampaignConfig {
            trials: 8,
            seed: 34,
            max_steps: Some(1000),
            ..CampaignConfig::default()
        };
        let serial = campaign
            .run(&CampaignConfig {
                threads: Some(1),
                ..cfg.clone()
            })
            .unwrap();
        let result = campaign
            .run(&CampaignConfig {
                fusion: Some(FusionConfig::default()),
                ..cfg
            })
            .unwrap();
        let stats = result.fusion.expect("fusion stays on under the watchdog");
        assert!(stats.fused_trials > 0, "{stats:?}");
        assert_eq!(result.records, serial.records);
    }

    #[test]
    fn watchdog_classifies_every_strategy_alike() {
        use crate::prefix::PrefixCacheConfig;

        let images = images();
        let labels = aligned_labels(&images);
        // +Inf survives ReLU and pooling, so a guard sees it at the leaf
        // after the injection: a budget between the two makes the trial a
        // Hang, a budget past it a DUE under a short-circuiting guard.
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(StuckAt::new(f32::INFINITY)),
        );
        let leaves = {
            let mut net = factory();
            let probe = GuardHook::install(&net, GuardConfig::default());
            net.forward(&images.select_batch(0));
            probe.steps()
        };
        let budgets = std::iter::once(None).chain((0..=leaves + 1).map(Some));
        let mut split = false;
        let mut k = 0usize;
        for guard in [GuardMode::Off, GuardMode::Record, GuardMode::ShortCircuit] {
            for max_steps in budgets.clone() {
                let cfg = CampaignConfig {
                    trials: 24,
                    seed: 37,
                    threads: Some(1),
                    guard,
                    max_steps,
                    ..CampaignConfig::default()
                };
                let serial = campaign.run(&cfg).unwrap();
                split |= serial.counts.due > 0 && serial.counts.hang > 0;
                for prefix_cache in [None, Some(PrefixCacheConfig::default())] {
                    let (threads, width, plan) = (1 + k % 3, 2 + k % 7, k / 2 % 2 == 1);
                    k += 1;
                    let what = format!(
                        "{guard:?}, max_steps {max_steps:?}, prefix {}, width {width}, \
                         {threads} threads, plan {plan}",
                        prefix_cache.is_some()
                    );
                    let fast = campaign
                        .run(&CampaignConfig {
                            threads: Some(threads),
                            prefix_cache: prefix_cache.clone(),
                            fusion: Some(FusionConfig::with_width(width)),
                            plan,
                            ..cfg.clone()
                        })
                        .unwrap();
                    assert_eq!(fast.records, serial.records, "{what}");
                    assert_eq!(fast.counts, serial.counts, "{what}");
                    let fusion = fast.fusion.expect("fusion stats reported");
                    assert_eq!(fusion.fused_trials + fusion.serial_trials, 24, "{what}");
                    assert_eq!(fast.prefix.is_some(), prefix_cache.is_some(), "{what}");
                    if let Some(p) = fast.prefix {
                        assert_eq!(p.hits + p.misses, 24, "{what}");
                    }
                }
            }
        }
        assert!(split, "some budget splits trials into DUEs and Hangs");
    }

    #[test]
    fn fused_int8_campaigns_match_serial() {
        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(StuckAt::new(1e9)),
        );
        let cfg = CampaignConfig {
            trials: 24,
            seed: 35,
            threads: Some(2),
            quant: QuantMode::Simulated,
            ..CampaignConfig::default()
        };
        let plain = campaign.run(&cfg).unwrap();
        let fused = campaign
            .run(&CampaignConfig {
                fusion: Some(FusionConfig::default()),
                ..cfg.clone()
            })
            .unwrap();
        assert_eq!(
            fused.records, plain.records,
            "per-slice int8 scales equal the per-tensor scales of batch-1 runs"
        );
    }

    #[test]
    fn int8_campaigns_run_and_are_thread_invariant() {
        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(BitFlipInt8::new(BitSelect::Random)),
        );
        let cfg = CampaignConfig {
            trials: 24,
            seed: 37,
            threads: Some(1),
            quant: QuantMode::Int8,
            ..CampaignConfig::default()
        };
        let serial = campaign.run(&cfg).unwrap();
        assert_eq!(serial.records.len(), 24);
        let threaded = campaign
            .run(&CampaignConfig {
                threads: Some(3),
                ..cfg.clone()
            })
            .unwrap();
        assert_eq!(serial.records, threaded.records);
    }

    #[test]
    fn int8_fused_and_prefixed_campaigns_match_serial() {
        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(BitFlipInt8::new(BitSelect::Random)),
        );
        let cfg = CampaignConfig {
            trials: 24,
            seed: 38,
            threads: Some(2),
            quant: QuantMode::Int8,
            ..CampaignConfig::default()
        };
        let plain = campaign.run(&cfg).unwrap();
        let accelerated = campaign
            .run(&CampaignConfig {
                fusion: Some(FusionConfig::default()),
                prefix_cache: Some(crate::prefix::PrefixCacheConfig::default()),
                ..cfg.clone()
            })
            .unwrap();
        assert_eq!(
            accelerated.records, plain.records,
            "stored-word faults compose with fusion and prefix caching"
        );
    }

    #[test]
    fn int8_weight_campaigns_flip_stored_words() {
        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Weight(WeightSelect::Random),
            Arc::new(BitFlipInt8::new(BitSelect::Random)),
        );
        let cfg = CampaignConfig {
            trials: 16,
            seed: 39,
            threads: Some(2),
            quant: QuantMode::Int8,
            ..CampaignConfig::default()
        };
        let result = campaign.run(&cfg).unwrap();
        assert_eq!(result.records.len(), 16);
        let rerun = campaign.run(&cfg).unwrap();
        assert_eq!(result.records, rerun.records, "word flips restore cleanly");
    }

    #[test]
    fn fused_journal_resume_is_bit_identical() {
        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(RandomUniform::default()),
        );
        let cfg = CampaignConfig {
            trials: 30,
            seed: 36,
            threads: Some(2),
            fusion: Some(FusionConfig::with_width(4)),
            ..CampaignConfig::default()
        };
        let uninterrupted = campaign.run(&cfg).unwrap();

        let path = tmp("fused-resume.jsonl");
        let journaled = campaign.run_journaled(&cfg, &path).unwrap();
        assert_eq!(journaled, uninterrupted, "journaling is invisible");

        let text = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = text.lines().take(12).collect();
        let mut truncated = keep.join("\n");
        truncated.push('\n');
        std::fs::write(&path, truncated).unwrap();

        let resumed = campaign.resume(&cfg, &path).unwrap();
        assert_eq!(
            resumed.records, uninterrupted.records,
            "resume fills the gap"
        );
        assert_eq!(resumed.counts, uninterrupted.counts);
        // The journal kept 11 records, so only the 19 missing trials ran —
        // fused among themselves, never mixed with replayed history.
        let stats = resumed.fusion.unwrap();
        assert_eq!(stats.fused_trials + stats.serial_trials, 19);
    }

    #[test]
    fn fused_observability_reports_chunks_and_outcomes() {
        use rustfi_obs::TraceRecorder;

        let images = images();
        let labels = aligned_labels(&images);
        let campaign = Campaign::new(
            &factory,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(RandomUniform::default()),
        );
        let rec = Arc::new(TraceRecorder::new());
        let result = campaign
            .run(&CampaignConfig {
                trials: 24,
                seed: 37,
                threads: Some(2),
                fusion: Some(FusionConfig::with_width(4)),
                recorder: Some(rec.clone() as Arc<dyn Recorder>),
                ..CampaignConfig::default()
            })
            .unwrap();
        let stats = result.fusion.unwrap();
        let snap = rec.snapshot();
        let fused_spans = snap.spans.iter().filter(|s| s.kind == "fused").count();
        assert_eq!(fused_spans as u64, stats.groups, "one span per chunk");
        assert_eq!(
            snap.counters.get("campaign.fused_trials").copied(),
            Some(stats.fused_trials)
        );
        assert_eq!(
            snap.counters.get("campaign.fused_groups").copied(),
            Some(stats.groups)
        );
        let widths = snap.timings.get("campaign.fused_width").unwrap();
        assert_eq!(widths.count(), stats.groups);
        assert!(
            snap.timings.contains_key("campaign.fused_chunk_ns"),
            "chunk wall time recorded"
        );
        let outcomes = snap
            .events
            .iter()
            .filter(|e| matches!(e, rustfi_obs::Event::TrialOutcome(_)))
            .count();
        assert_eq!(outcomes, 24, "every trial still reports its outcome");
    }
}
