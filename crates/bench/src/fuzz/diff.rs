//! The differential runner: executes one [`FuzzCase`] through strategy
//! pairs and reports the first divergence.

use super::FuzzCase;
use rustfi::{
    merge_shard_journals, models, plan_shards, Campaign, CampaignConfig, CampaignResult,
    FaultInjector, FaultMode, FiConfig, NeuronSelect, PerturbationModel, QuantMode, WeightSelect,
};
use rustfi_nn::quantized::CalibrationTable;
use rustfi_obs::{merge_shard_telemetry, read_sidecar, Event, Recorder, SidecarRecorder};
use rustfi_tensor::{SeededRng, Tensor};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// What a passing case exercised — surfaced by `fuzz_gate -v` so soak logs
/// show the matrix actually being covered rather than a bare pass count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseReport {
    /// Images the campaign's own golden pass accepted.
    pub eligible_images: usize,
    /// Trials each campaign leg executed.
    pub trials_run: usize,
    /// Differential comparisons that ran (serial-vs-accelerated, telemetry,
    /// shard merge, …).
    pub legs: usize,
    /// Leaf layers in the sampled architecture.
    pub leaf_layers: usize,
    /// Trials (batch slices) the accelerated leg dropped at a golden match
    /// ([`rustfi::PrefixStats::exits`]); 0 without a prefix cache.
    pub exits: u64,
}

/// A divergence (or crash) found while running a case, carrying everything
/// needed to replay it.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// The offending case.
    pub case: FuzzCase,
    /// Which differential leg diverged.
    pub leg: &'static str,
    /// Human-readable mismatch description.
    pub detail: String,
}

impl fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}\n  case: {}", self.leg, self.detail, self.case)
    }
}

impl std::error::Error for CaseFailure {}

/// A scratch directory unique across threads and processes, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str, seed: u64) -> std::io::Result<Self> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rustfi-fuzz-{}-{tag}-{seed:016x}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `(trial, layer, outcome, due_layer)` tuples extracted from recorded
/// telemetry — the merge-invariant payload sidecars must agree on.
type OutcomeSet = BTreeMap<usize, (usize, &'static str, Option<usize>)>;

fn outcome_set(events: &[Event]) -> OutcomeSet {
    events
        .iter()
        .filter_map(|e| match e {
            Event::TrialOutcome(t) => Some((t.trial, (t.layer, t.outcome, t.due_layer))),
            _ => None,
        })
        .collect()
}

/// Everything a differential leg needs to build [`Campaign`]s for a case:
/// the validated architecture, seeded input images, labels probed under the
/// case's own quantization arithmetic (so the golden pass accepts every
/// image and no case is vacuous), and the matching fault mode and bit-flip
/// model.
///
/// Property tests that pin one strategy axis (fusion, pooling, sharding, …)
/// build their campaigns from this fixture instead of private per-test
/// models, so the whole suite draws from one architecture distribution.
pub struct CaseFixture {
    arch: rustfi_nn::zoo::random::ArchSpec,
    /// Campaign test images, `[images, C, H, W]`.
    pub images: Tensor,
    /// Per-image labels (the clean model's own predictions).
    pub labels: Vec<usize>,
    /// Neuron or weight faults per the case.
    pub mode: FaultMode,
    /// Bit-flip model matching the case's quantization regime.
    pub model: Arc<dyn PerturbationModel>,
}

impl CaseFixture {
    /// Builds the fixture, validating the architecture on the way: the
    /// sampled spec must pass [`infer_dims`](rustfi_nn::Network::infer_dims)
    /// and the inferred output shape must match a real forward pass.
    pub fn new(case: &FuzzCase) -> Result<CaseFixture, String> {
        let mut net = case
            .arch
            .build_checked()
            .map_err(|e| format!("sampled arch failed validation: {e}"))?;
        let hw = case.arch.image_hw;
        let input_dims = [case.images, case.arch.in_channels, hw, hw];
        let inferred = net
            .infer_dims(&input_dims)
            .map_err(|e| format!("infer_dims rejected campaign input: {e}"))?;
        let mut data_rng = SeededRng::new(case.seed).fork(3);
        let images = Tensor::rand_normal(&input_dims, 0.0, 1.0, &mut data_rng);
        let forwarded = net.forward(&images);
        if inferred != forwarded.dims() {
            return Err(format!(
                "infer_dims says {inferred:?} but forward produced {:?}",
                forwarded.dims()
            ));
        }

        // Label probe under the campaign's own arithmetic (calibrated INT8
        // backend for `QuantMode::Int8`, activation snapping for
        // `Simulated`), mirroring the campaign's golden pass exactly.
        let mut probe = FaultInjector::new(case.arch.build(), FiConfig::for_input(&input_dims))
            .map_err(|e| format!("probe injector: {e}"))?;
        match case.quant {
            QuantMode::Off => {}
            QuantMode::Simulated => probe.enable_int8_activations(),
            QuantMode::Int8 => {
                let imgs: Vec<Tensor> = (0..case.images).map(|i| images.select_batch(i)).collect();
                let table = Arc::new(CalibrationTable::calibrate(probe.net_mut(), &imgs));
                probe.enable_int8_backend(table);
            }
        }
        let labels: Vec<usize> = (0..case.images)
            .map(|i| rustfi::metrics::top1(probe.forward(&images.select_batch(i)).data()))
            .collect();

        let mode = if case.weight_fault {
            FaultMode::Weight(WeightSelect::Random)
        } else {
            FaultMode::Neuron(NeuronSelect::Random)
        };
        let model: Arc<dyn PerturbationModel> = if case.quant == QuantMode::Int8 {
            Arc::new(models::BitFlipInt8::new(models::BitSelect::Random))
        } else {
            Arc::new(models::BitFlipFp32::new(models::BitSelect::Random))
        };
        Ok(CaseFixture {
            arch: case.arch.clone(),
            images,
            labels,
            mode,
            model,
        })
    }

    /// A model factory for [`Campaign::new`], rebuilding the architecture
    /// with its seeded weights on every call.
    pub fn factory(&self) -> impl Fn() -> rustfi_nn::Network + Sync {
        let arch = self.arch.clone();
        move || arch.build()
    }
}

/// Runs one case through every differential leg, returning the first
/// divergence as a [`CaseFailure`].
///
/// Legs, in order:
///
/// 1. **build** — the sampled architecture must validate via
///    [`infer_dims`](rustfi_nn::Network::infer_dims) and the inferred output
///    shape must match the real forward pass.
/// 2. **serial-vs-accelerated** — records and counts of a single-threaded,
///    unfused, uncached, unpooled reference must equal those of the fully
///    accelerated configuration (threads, fusion, prefix cache, pooling per
///    the case's knobs).
/// 3. **accounting** — prefix and fusion statistics must account for every
///    trial.
/// 4. **telemetry** — a sidecar-recorded accelerated run must reproduce the
///    reference records, write no torn lines, and log exactly one
///    `TrialOutcome` per trial, agreeing with the record stream.
/// 5. **shard-merge** (when `case.shards > 1`) — running every shard of the
///    plan through its own journal and merging must reproduce the reference
///    records and counts.
/// 6. **shard-telemetry** — merging the per-shard sidecars must yield the
///    same `(trial, layer, outcome)` set as the unsharded sidecar.
pub fn run_case(case: &FuzzCase) -> Result<CaseReport, Box<CaseFailure>> {
    // Boxed so the hot Ok path isn't sized for the failure payload.
    let fail = |leg: &'static str, detail: String| {
        Box::new(CaseFailure {
            case: case.clone(),
            leg,
            detail,
        })
    };

    // Leg 1: fixture construction performs the build-time shape checks.
    let fixture = CaseFixture::new(case).map_err(|detail| fail("build", detail))?;
    let factory = fixture.factory();
    let campaign = Campaign::new(
        &factory,
        &fixture.images,
        &fixture.labels,
        fixture.mode.clone(),
        Arc::clone(&fixture.model),
    );

    let reference_cfg = case.reference_config();
    let accel_cfg = case.accelerated_config();

    // Leg 2: serial reference vs. the fully accelerated strategy.
    let reference = campaign
        .run(&reference_cfg)
        .map_err(|e| fail("serial-vs-accelerated", format!("reference run: {e}")))?;
    let accelerated = campaign
        .run(&accel_cfg)
        .map_err(|e| fail("serial-vs-accelerated", format!("accelerated run: {e}")))?;
    let mut legs = 2;
    diff_results("serial-vs-accelerated", &reference, &accelerated)
        .map_err(|d| fail("serial-vs-accelerated", d))?;
    let trials_run = reference.counts.total();

    // Leg 3: strategy statistics account for every trial.
    if let Some(p) = &accelerated.prefix {
        if p.hits + p.misses != trials_run as u64 {
            return Err(fail(
                "accounting",
                format!(
                    "prefix cache saw {} lookups for {trials_run} trials",
                    p.hits + p.misses
                ),
            ));
        }
    }
    if let Some(fu) = &accelerated.fusion {
        if fu.fused_trials + fu.serial_trials != trials_run as u64 {
            return Err(fail(
                "accounting",
                format!(
                    "fusion planned {} trials of {trials_run}",
                    fu.fused_trials + fu.serial_trials
                ),
            ));
        }
        if fu.max_width > case.fusion_width {
            return Err(fail(
                "accounting",
                format!(
                    "fusion width {} exceeds configured {}",
                    fu.max_width, case.fusion_width
                ),
            ));
        }
    }
    legs += 1;

    // Leg 4: recording telemetry must not perturb results, and the sidecar
    // must agree with the record stream.
    let scratch =
        Scratch::new("case", case.seed).map_err(|e| fail("telemetry", format!("scratch: {e}")))?;
    let sidecar_path = scratch.0.join("run.telemetry.jsonl");
    let sidecar = SidecarRecorder::create(&sidecar_path, 0, 1, 0)
        .map_err(|e| fail("telemetry", format!("sidecar: {e}")))?;
    let observed_cfg = CampaignConfig {
        recorder: Some(Arc::new(sidecar) as Arc<dyn Recorder>),
        ..accel_cfg.clone()
    };
    let observed = campaign
        .run(&observed_cfg)
        .map_err(|e| fail("telemetry", format!("observed run: {e}")))?;
    diff_results("telemetry", &reference, &observed).map_err(|d| fail("telemetry", d))?;
    let sc = read_sidecar(&sidecar_path).map_err(|e| fail("telemetry", format!("read: {e}")))?;
    if sc.torn_lines != 0 {
        return Err(fail(
            "telemetry",
            format!("{} torn sidecar lines", sc.torn_lines),
        ));
    }
    let unsharded_outcomes = outcome_set(&sc.batch.events);
    if unsharded_outcomes.len() != trials_run {
        return Err(fail(
            "telemetry",
            format!(
                "sidecar logged {} trial outcomes for {trials_run} trials",
                unsharded_outcomes.len()
            ),
        ));
    }
    for r in &reference.records {
        match unsharded_outcomes.get(&r.trial) {
            None => {
                return Err(fail(
                    "telemetry",
                    format!("trial {} missing from sidecar", r.trial),
                ))
            }
            Some((_, outcome, _)) if *outcome != r.outcome.label() => {
                return Err(fail(
                    "telemetry",
                    format!(
                        "trial {}: record says {}, sidecar says {outcome}",
                        r.trial,
                        r.outcome.label()
                    ),
                ))
            }
            Some(_) => {}
        }
    }
    legs += 1;

    // Legs 5+6: shard-merge invariance for both journals and telemetry.
    if case.shards > 1 {
        let mut journal_paths = Vec::new();
        let mut sidecar_paths = Vec::new();
        for spec in plan_shards(reference_cfg.trials, case.shards) {
            let journal = spec.journal_path(&scratch.0);
            let telemetry = scratch
                .0
                .join(format!("shard-{}.telemetry.jsonl", spec.index));
            let recorder = SidecarRecorder::create(&telemetry, spec.index, case.shards, 0)
                .map_err(|e| fail("shard-merge", format!("shard sidecar: {e}")))?;
            let shard_cfg = CampaignConfig {
                recorder: Some(Arc::new(recorder) as Arc<dyn Recorder>),
                ..accel_cfg.clone()
            };
            campaign
                .run_shard(&shard_cfg, &spec, &journal)
                .map_err(|e| fail("shard-merge", format!("shard {}: {e}", spec.index)))?;
            journal_paths.push(journal);
            sidecar_paths.push(telemetry);
        }
        let merged = merge_shard_journals(&journal_paths)
            .map_err(|e| fail("shard-merge", format!("merge: {e}")))?;
        if !merged.is_complete() {
            return Err(fail("shard-merge", "merged journal has gaps".into()));
        }
        if merged.records != reference.records {
            return Err(fail(
                "shard-merge",
                first_record_diff(&reference.records, &merged.records),
            ));
        }
        if merged.counts != reference.counts {
            return Err(fail(
                "shard-merge",
                format!(
                    "counts diverge: reference {:?} vs merged {:?}",
                    reference.counts, merged.counts
                ),
            ));
        }
        legs += 1;

        let telemetry = merge_shard_telemetry(&sidecar_paths);
        if let Some((path, why)) = telemetry.skipped.first() {
            return Err(fail(
                "shard-telemetry",
                format!("unreadable sidecar {}: {why}", path.display()),
            ));
        }
        let mut sharded_outcomes = OutcomeSet::new();
        for lane in &telemetry.lanes {
            if lane.torn_lines != 0 {
                return Err(fail(
                    "shard-telemetry",
                    format!("shard {} sidecar has torn lines", lane.header.shard),
                ));
            }
            sharded_outcomes.extend(outcome_set(&lane.batch.events));
        }
        if sharded_outcomes != unsharded_outcomes {
            return Err(fail(
                "shard-telemetry",
                format!(
                    "merged shard telemetry diverges: {} sharded vs {} unsharded outcomes",
                    sharded_outcomes.len(),
                    unsharded_outcomes.len()
                ),
            ));
        }
        legs += 1;
    }

    Ok(CaseReport {
        eligible_images: reference.eligible_images,
        trials_run,
        legs,
        leaf_layers: case.arch.leaf_count(),
        exits: accelerated.prefix.map_or(0, |p| p.exits),
    })
}

/// Compares two campaign results record-by-record, returning a description
/// of the first divergence.
fn diff_results(
    leg: &str,
    reference: &CampaignResult,
    other: &CampaignResult,
) -> Result<(), String> {
    if reference.records != other.records {
        return Err(first_record_diff(&reference.records, &other.records));
    }
    if reference.counts != other.counts {
        return Err(format!(
            "counts diverge on {leg}: {:?} vs {:?}",
            reference.counts, other.counts
        ));
    }
    Ok(())
}

fn first_record_diff(reference: &[rustfi::TrialRecord], other: &[rustfi::TrialRecord]) -> String {
    if reference.len() != other.len() {
        return format!(
            "record streams have different lengths: {} vs {}",
            reference.len(),
            other.len()
        );
    }
    for (a, b) in reference.iter().zip(other) {
        if a != b {
            return format!("first diverging record:\n  reference: {a:?}\n  other:     {b:?}");
        }
    }
    "records compare unequal but no element differs".into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{cases, container_cases};
    use proptest::Strategy;

    #[test]
    fn a_handful_of_cases_pass_every_leg() {
        let mut sharded = false;
        for seed in 0..4u64 {
            let case = FuzzCase::sample(seed);
            sharded |= case.shards > 1;
            let report = run_case(&case).unwrap_or_else(|f| panic!("{f}"));
            assert!(
                report.legs >= 4,
                "seed {seed} ran only {} legs",
                report.legs
            );
            assert_eq!(report.eligible_images, case.images, "seed {seed}");
            assert_eq!(report.trials_run, case.trials, "seed {seed}");
        }
        // At least one of the smoke seeds must cover the shard legs; if the
        // distribution shifts, pin different seeds here.
        assert!(sharded, "no smoke seed exercised sharding");
    }

    #[test]
    fn forced_container_case_runs() {
        let mut rng = proptest::TestRng::deterministic("forced_container_case_runs");
        let case = container_cases().generate(&mut rng);
        assert!(case.arch.has_residual() && case.arch.has_branches());
        run_case(&case).unwrap_or_else(|f| panic!("{f}"));
    }

    #[test]
    fn strategy_draws_are_replayable_by_seed() {
        let mut rng = proptest::TestRng::deterministic("strategy_draws_are_replayable");
        let drawn = cases().generate(&mut rng);
        assert_eq!(drawn, FuzzCase::sample(drawn.seed));
    }
}
