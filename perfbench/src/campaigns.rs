//! The in-process workloads: campaigns over one model, each run through
//! `Campaign::run`.

use crate::fleet::FLEET_ONLY;
use crate::trace::{timed, BenchRecorder};
use crate::{kernels, median, ratio, scratch_dir, sys, Outcome, Rep, Reps, RunSpec};
use rustfi::models::{BitFlipInt8, BitSelect, RandomUniform};
use rustfi::{
    Campaign, CampaignConfig, FaultMode, FusionConfig, ModelProfile, NeuronSelect,
    PerturbationModel, PrefixCacheConfig, QuantMode, TrialRecord, WeightSelect,
};
use rustfi_nn::{train, zoo, Backend, CalibrationTable, Network, ZooConfig};
use rustfi_obs::Recorder;
use rustfi_tensor::opcount::{self, OpCounts};
use rustfi_tensor::{tpool, SeededRng, Tensor};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One campaign of a workload.
pub struct CampaignSpec {
    mode: FaultMode,
    perturb: Arc<dyn PerturbationModel>,
    cfg: CampaignConfig,
}

/// Builds a workload's campaigns from its model's profile.
type CampaignsFn = Box<dyn Fn(&ModelProfile) -> Vec<CampaignSpec>>;

/// An in-process workload: a model, seeded test images, and the campaigns
/// run over them.
pub struct Workload {
    name: &'static str,
    model: fn() -> Network,
    images: Tensor,
    /// The workload's campaigns, given the model's profile.
    campaigns: CampaignsFn,
    /// Leading trials of each campaign the outputs check re-runs.
    check_trials: usize,
}

fn vgg19() -> Network {
    zoo::vgg19(&ZooConfig::cifar10_like())
}

fn resnet110() -> Network {
    zoo::resnet110(&ZooConfig::cifar10_like())
}

/// `n` cifar10-like images drawn from `seed`.
fn images(seed: u64, n: usize) -> Tensor {
    let c = ZooConfig::cifar10_like();
    let dims = [n, c.in_channels, c.image_hw, c.image_hw];
    Tensor::rand_normal(&dims, 0.0, 1.0, &mut SeededRng::new(seed))
}

/// `vgg19-neuron-backhalf`: one `RandomInLayer` campaign per back-half
/// layer of VGG-19 over 8 images, uniform-random neuron values, f32, with
/// prefix cache, trial fusion, compiled plan and tensor pool on. Nearly all
/// time is the planned, fused GEMM trial loop over a shared cached prefix.
pub fn vgg19_neuron_backhalf(spec: RunSpec) -> Workload {
    let (seed, smoke) = (spec.seed, spec.smoke);
    let trials = if smoke { 32 } else { 3000 };
    Workload {
        name: "vgg19-neuron-backhalf",
        model: vgg19,
        images: images(seed, 8),
        campaigns: Box::new(move |profile| {
            let n = profile.len();
            let layers = if smoke { n - 2..n } else { n / 2..n };
            layers
                .map(|layer| CampaignSpec {
                    mode: FaultMode::Neuron(NeuronSelect::RandomInLayer { layer }),
                    perturb: Arc::new(RandomUniform::default()),
                    cfg: CampaignConfig {
                        trials,
                        seed: seed ^ ((layer as u64) << 32),
                        threads: Some(1),
                        prefix_cache: Some(PrefixCacheConfig::default()),
                        fusion: Some(FusionConfig::default()),
                        plan: true,
                        ..CampaignConfig::default()
                    },
                })
                .collect()
        }),
        check_trials: if smoke { 8 } else { 40 },
    }
}

/// `resnet110-weight-int8`: random weight bit flips in stored INT8 words of
/// ResNet-110 over 32 images, real INT8 kernels, the same acceleration
/// knobs requested. Fusion stands down for weight faults; each trial
/// applies, undoes and repacks one weight panel and resumes at a random
/// depth through residual containers; calibration covers all 32 images.
pub fn resnet110_weight_int8(spec: RunSpec) -> Workload {
    let (seed, smoke) = (spec.seed, spec.smoke);
    let trials = if smoke { 48 } else { 10_000 };
    Workload {
        name: "resnet110-weight-int8",
        model: resnet110,
        images: images(seed, if smoke { 8 } else { 32 }),
        campaigns: Box::new(move |_| {
            vec![CampaignSpec {
                mode: FaultMode::Weight(WeightSelect::Random),
                perturb: Arc::new(BitFlipInt8::new(BitSelect::Random)),
                cfg: CampaignConfig {
                    trials,
                    seed,
                    threads: Some(1),
                    quant: QuantMode::Int8,
                    prefix_cache: Some(PrefixCacheConfig::default()),
                    fusion: Some(FusionConfig::default()),
                    plan: true,
                    ..CampaignConfig::default()
                },
            }]
        }),
        check_trials: if smoke { 8 } else { 200 },
    }
}

/// The outputs check's reference for `cfg`: its first `k` trials with
/// every acceleration off, on one thread.
pub fn reference(cfg: &CampaignConfig, k: usize) -> CampaignConfig {
    CampaignConfig {
        trials: k.min(cfg.trials),
        threads: Some(1),
        prefix_cache: None,
        fusion: None,
        plan: false,
        pool_budget_bytes: 0,
        recorder: None,
        progress: None,
        ..cfg.clone()
    }
}

/// Records of `got` that differ from `want`, plus any length difference.
pub fn diverging(want: &[TrialRecord], got: &[TrialRecord]) -> u64 {
    let differ = want.iter().zip(got).filter(|(a, b)| a != b).count();
    (differ + want.len().abs_diff(got.len())) as u64
}

/// Kernel-call counters, per trial.
pub fn op_metrics(metrics: &mut BTreeMap<&'static str, f64>, ops: OpCounts, trials: f64) {
    metrics.insert(
        "tensor.conv2d_calls_per_trial",
        ratio(ops.conv2d as f64, trials),
    );
    metrics.insert(
        "tensor.matmul_calls_per_trial",
        ratio(ops.matmul as f64, trials),
    );
    metrics.insert(
        "tensor.matmul_i8_calls_per_trial",
        ratio(ops.matmul_i8 as f64, trials),
    );
    metrics.insert(
        "tensor.elementwise_calls_per_trial",
        ratio(ops.elementwise as f64, trials),
    );
}

/// The kernel ceiling pass at `profile`'s GEMM shapes, and the steady-state
/// heap allocations of one forward of `net` (as the workload configures it)
/// with a tensor pool of `pool_bytes`.
pub fn net_metrics(
    metrics: &mut BTreeMap<&'static str, f64>,
    rec: &BenchRecorder,
    profile: &ModelProfile,
    net: &mut Network,
    input: &Tensor,
    pool_bytes: usize,
) {
    let (rates, _) = timed(Some(rec), "tensor.gemm", || {
        kernels::measure(&kernels::gemm_shapes(profile))
    });
    metrics.insert("tensor.gemm_f32_gflops", rates.f32_gflops);
    metrics.insert("tensor.gemm_f32_packed_gflops", rates.f32_packed_gflops);
    metrics.insert("tensor.gemm_i8_gops", rates.i8_gops);
    metrics.insert("tensor.gemm_peak_gflops", rates.peak_gflops);
    let (allocs, _) = timed(Some(rec), "tensor.forward_allocs", || {
        let _pool = tpool::budget_scope(pool_bytes);
        rustfi_bench::alloc_count::steady_state_forward_allocs(net, input, 4, 16)
    });
    metrics.insert("tensor.forward_allocs", allocs);
}

impl Workload {
    /// Model build, label probe (the untrained model's own clean
    /// predictions, so every image is eligible) and profiling.
    fn build(&self) -> (Vec<usize>, ModelProfile) {
        let mut net = (self.model)();
        let n = self.images.dims()[0];
        let labels = train::predict(&mut net, &self.images, n);
        let d = self.images.dims();
        let profile = ModelProfile::discover(&mut net, [1, d[1], d[2], d[3]]);
        (labels, profile)
    }

    fn campaign<'a>(&'a self, labels: &'a [usize], spec: &CampaignSpec) -> Campaign<'a> {
        Campaign::new(
            &self.model,
            &self.images,
            labels,
            spec.mode.clone(),
            Arc::clone(&spec.perturb),
        )
    }

    /// The model as the workload's campaigns configure it, for the
    /// allocation count.
    fn configured_net(&self, cfg: &CampaignConfig) -> Network {
        let mut net = (self.model)();
        net.set_plan(cfg.plan);
        if cfg.quant == QuantMode::Int8 {
            let n = self.images.dims()[0];
            let imgs: Vec<Tensor> = (0..n).map(|i| self.images.select_batch(i)).collect();
            let table = CalibrationTable::calibrate(&mut net, &imgs);
            net.set_backend(Backend::Int8(Arc::new(table)));
        }
        net
    }
}

/// One repetition's records and throughput counters.
#[derive(Default)]
struct RepResults {
    records: Vec<Vec<TrialRecord>>,
    prefix_hits: u64,
    prefix_lookups: u64,
    skipped_flops: u64,
    fused_trials: u64,
    fused_groups: u64,
}

/// Runs `w` for `spec.seconds` and reports its metrics.
pub fn run(w: &Workload, spec: RunSpec) -> Outcome {
    // One core per in-process campaign: the measurement then does not hang
    // on how a shared host schedules short-lived kernel threads.
    let _one_cpu = sys::one_cpu(0);
    let mut out = Outcome::default();
    // Warm-up build (untimed): the profile sizes the traced recorder.
    let (_, profile) = w.build();
    let rec = spec.trace.then(|| Arc::new(BenchRecorder::new(&profile)));
    let r = rec.as_deref();

    // Set-up: build, label probe and profiling, then the golden pass
    // (`trials: 0`) of the first campaign. Once here, then once before each
    // timed repetition.
    let (mut build_s, mut golden_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut set_up = || {
        let ((labels, profile), b) = timed(r, "core.build", || w.build());
        let specs = (w.campaigns)(&profile);
        let golden = CampaignConfig {
            trials: 0,
            ..specs[0].cfg.clone()
        };
        let (res, g) = timed(r, "core.golden", || {
            w.campaign(&labels, &specs[0]).run(&golden)
        });
        res.expect("golden pass");
        build_s.push(b);
        golden_s.push(g);
        setup_s.push(b + g);
        (labels, profile, specs)
    };
    let (labels, profile, specs) = set_up();
    let mut setups = 1;

    // Timed repetitions. Traced ones carry the recorder and kernel
    // counters; the untraced ones give the rate tracing is measured against.
    let per_rep: usize = specs.iter().map(|s| s.cfg.trials).sum();
    let mut reps = Reps::new(spec);
    let mut first: Option<RepResults> = None;
    // Kernel calls are counted during traced repetitions only.
    opcount::reset();
    while let Some(kind) = reps.next_rep() {
        if kind != Rep::Warmup {
            set_up();
            setups += 1;
        }
        let traced = kind == Rep::Traced;
        let tr = if traced { r } else { None };
        opcount::enable(traced);
        sys::reset_peak_rss();
        let mut part_secs = Vec::new();
        let mut rep_out = RepResults::default();
        for s in &specs {
            let cfg = CampaignConfig {
                recorder: tr.map(|_| rec.clone().expect("traced") as Arc<dyn Recorder>),
                ..s.cfg.clone()
            };
            let (res, secs) = timed(tr, "core.run", || w.campaign(&labels, s).run(&cfg));
            part_secs.push(secs);
            out.attempted += s.cfg.trials as u64;
            match res {
                Ok(res) => {
                    out.failed += (s.cfg.trials - res.records.len()) as u64;
                    if let Some(p) = res.prefix {
                        rep_out.prefix_hits += p.hits;
                        rep_out.prefix_lookups += p.hits + p.misses;
                        rep_out.skipped_flops += p.skipped_flops;
                    }
                    if let Some(f) = res.fusion {
                        rep_out.fused_trials += f.fused_trials;
                        rep_out.fused_groups += f.groups;
                    }
                    rep_out.records.push(res.records);
                }
                Err(e) => {
                    eprintln!("{}: campaign failed: {e}", w.name);
                    out.failed += s.cfg.trials as u64;
                    rep_out.records.push(Vec::new());
                }
            }
        }
        opcount::enable(false);
        reps.record(kind, per_rep as f64, &part_secs, sys::peak_rss_mb());
        // Every repetition runs the same campaigns: records must repeat.
        match &first {
            Some(f) => {
                for (want, got) in f.records.iter().zip(&rep_out.records) {
                    out.failed += diverging(want, got);
                }
            }
            None => first = Some(rep_out),
        }
    }
    let first = first.expect("at least one repetition");
    while setups < spec.min_setups() {
        set_up();
        setups += 1;
    }

    // Outputs check: the leading trials of each campaign, unaccelerated.
    for (s, got) in specs.iter().zip(&first.records) {
        let k = w.check_trials.min(s.cfg.trials);
        match w.campaign(&labels, s).run(&reference(&s.cfg, k)) {
            Ok(want) => out.failed += diverging(&want.records, &got[..k.min(got.len())]),
            Err(e) => {
                eprintln!("{}: reference campaign failed: {e}", w.name);
                out.failed += k as u64;
            }
        }
    }

    let m = &mut out.metrics;
    m.insert("trials_per_s", reps.best_rate());
    m.insert("setup_s", median(&setup_s));
    m.insert("peak_rss_mb", median(&reps.plain_rss));
    m.insert("core.build_s", median(&build_s));
    m.insert("core.golden_s", median(&golden_s));
    let per_rep = per_rep as f64;
    m.insert(
        "core.prefix_hit_rate",
        ratio(first.prefix_hits as f64, first.prefix_lookups as f64),
    );
    m.insert(
        "core.prefix_skipped_mflop_per_trial",
        first.skipped_flops as f64 / per_rep * 1e-6,
    );
    m.insert("core.fused_frac", first.fused_trials as f64 / per_rep);
    m.insert(
        "core.fused_mean_width",
        ratio(first.fused_trials as f64, first.fused_groups as f64),
    );
    for name in FLEET_ONLY {
        m.insert(name, 0.0);
    }
    if let Some(rec) = &rec {
        let traced_trials = (per_rep * reps.traced.len() as f64).max(1.0);
        let (agg, counters) = rec.take();
        agg.report(m, &counters, traced_trials);
        op_metrics(m, opcount::counts(), traced_trials);
        m.insert("obs.trace_overhead", reps.trace_overhead());
        let mut net = w.configured_net(&specs[0].cfg);
        let input = w.images.select_batch(0);
        net_metrics(
            m,
            rec,
            &profile,
            &mut net,
            &input,
            specs[0].cfg.pool_budget_bytes,
        );
        let path = scratch_dir().join(format!("{}.trace.json", w.name));
        if let Err(e) = rec.write_trace(&path) {
            eprintln!("writing {}: {e}", path.display());
        }
    }
    out
}
