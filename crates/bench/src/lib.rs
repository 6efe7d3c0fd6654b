//! Shared harness utilities for the experiment binaries and Criterion
//! benches that regenerate the paper's tables and figures.
//!
//! Each paper artifact maps to one binary (see `src/bin/`):
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Fig. 3 (runtime overhead, 19 networks + batch sweep) | `fig3_overhead_table` |
//! | Fig. 4 (INT8 bit-flip misclassification probability) | `fig4_classification` |
//! | Fig. 5 (object-detection perturbations) | `fig5_detection` |
//! | Fig. 6 (IBP relative vulnerability grid) | `fig6_ibp` |
//! | Table I (training with injections) | `table1_training` |
//! | Fig. 7 (Grad-CAM sensitivity) | `fig7_gradcam` |
//!
//! Criterion benches (`benches/`) cover the Fig. 3 measurement loop, the
//! four ablations `DESIGN.md` lists (hook dispatch, offline weight faults,
//! guard short-circuit, observability overhead) and campaign throughput
//! (`campaign_throughput`, summarized in `BENCH_campaign.json`).

pub mod fuzz;

use rustfi::CampaignResult;
use rustfi_data::SynthSpec;
use rustfi_nn::train::TrainConfig;
use rustfi_nn::{checkpoint, train, zoo, Network, ZooConfig};
use rustfi_obs::Z_99;
use std::path::PathBuf;

/// Reads an override from the environment (`RUSTFI_TRIALS`, …), falling back
/// to `default`.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a float override from the environment, falling back to `default`.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The quick-mode knobs shared by `benches/campaign_throughput` and the
/// `bench_gate` CI binary, read once from the `RUSTFI_*` environment instead
/// of being re-parsed at every use site.
#[derive(Debug, Clone)]
pub struct QuickMode {
    /// Zoo model under test (`RUSTFI_BENCH_MODEL`, default `vgg19`).
    pub model: String,
    /// Dataset geometry (`RUSTFI_BENCH_DATASET`, default `cifar10-like`).
    pub dataset: String,
    /// Test images (`RUSTFI_IMAGES`, default 8).
    pub images: usize,
    /// Trials per layer (`RUSTFI_TRIALS`, default 500 — per-campaign setup
    /// costs amortize over trials, so very small counts understate the
    /// steady-state throughput gain).
    pub trials: usize,
    /// Timed iterations per measurement (`RUSTFI_CAMPAIGN_ITERS`, default 3).
    pub iters: usize,
    /// Summary destination (`RUSTFI_BENCH_JSON`, default
    /// `BENCH_campaign.json` in the repository root); `None` when suppressed
    /// with `RUSTFI_BENCH_JSON=skip`.
    pub json_path: Option<String>,
}

impl QuickMode {
    /// Reads every knob from the environment.
    pub fn from_env() -> Self {
        let json = match std::env::var("RUSTFI_BENCH_JSON") {
            // Cargo runs bench harnesses with CWD = the package dir but
            // `cargo run` binaries (like bench_gate) with the caller's CWD,
            // so a relative override is anchored at the workspace root to
            // mean the same file from both sides.
            Ok(p) if p != "skip" && !std::path::Path::new(&p).is_absolute() => {
                format!("{}/../../{p}", env!("CARGO_MANIFEST_DIR"))
            }
            Ok(p) => p,
            Err(_) => format!("{}/../../BENCH_campaign.json", env!("CARGO_MANIFEST_DIR")),
        };
        Self {
            model: std::env::var("RUSTFI_BENCH_MODEL").unwrap_or_else(|_| "vgg19".into()),
            dataset: std::env::var("RUSTFI_BENCH_DATASET")
                .unwrap_or_else(|_| "cifar10-like".into()),
            images: env_usize("RUSTFI_IMAGES", 8),
            trials: env_usize("RUSTFI_TRIALS", 500),
            iters: env_usize("RUSTFI_CAMPAIGN_ITERS", 3),
            json_path: (json != "skip").then_some(json),
        }
    }
}

/// The CI perf-regression gate's comparison logic (see `src/bin/bench_gate`).
///
/// The gate compares *within-run speedup ratios* — prefix-cache speedup,
/// fused speedup, matmul kernel geomean, packed-vs-unpacked GEMM geomean,
/// planned-vs-unplanned INT8 conv geomean, planned-vs-fused campaign rate —
/// between a freshly measured
/// `BENCH_campaign.json` and the committed baseline. Ratios of two
/// measurements taken on the same machine in the same run cancel out the
/// machine's absolute speed, so the committed baseline stays meaningful on
/// any CI runner; absolute trials/sec would not.
pub mod gate {
    use rustfi_obs::json::Value;

    /// The gated ratios: each metric's name and its key path in a bench
    /// summary, outermost key first.
    const RATIOS: [(&str, &[&str]); 9] = [
        ("matmul_geomean_speedup", &["matmul_geomean_speedup"]),
        (
            "packed_vs_unpacked_geomean",
            &["packed_vs_unpacked_geomean"],
        ),
        (
            "int8_matmul_geomean_speedup",
            &["int8_matmul_geomean_speedup"],
        ),
        ("int8_conv_planned_geomean", &["int8_conv_planned_geomean"]),
        (
            "elementwise_geomean_speedup",
            &["elementwise_geomean_speedup"],
        ),
        ("prefix_cache_speedup", &["campaign", "speedup"]),
        ("fused_speedup", &["campaign", "fused_speedup"]),
        (
            "planned_fused_vs_f32_fused",
            &["campaign", "planned_fused_vs_f32_fused"],
        ),
        ("int8_fused_vs_f32", &["campaign", "int8_fused_vs_f32"]),
    ];

    /// The value at `path` (object keys, outermost first) in a parsed
    /// bench summary.
    fn lookup<'v, 'a>(summary: &'v Value<'a>, path: &[&str]) -> Option<&'v Value<'a>> {
        path.iter().try_fold(summary, |v, key| v.get(key))
    }

    /// The number at `path` in a parsed bench summary.
    fn number(summary: &Value<'_>, path: &[&str]) -> Option<f64> {
        lookup(summary, path)?.as_f64()
    }

    /// One gated metric: the fresh run must retain at least `min_ratio` of
    /// the baseline's value.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Check {
        pub name: &'static str,
        pub baseline: f64,
        pub fresh: f64,
    }

    impl Check {
        /// Fresh-to-baseline ratio (1.0 = exactly as fast as the baseline).
        pub fn ratio(&self) -> f64 {
            self.fresh / self.baseline
        }

        /// Whether this metric clears the gate.
        pub fn passes(&self, min_ratio: f64) -> bool {
            self.baseline > 0.0 && self.fresh > 0.0 && self.ratio() >= min_ratio
        }
    }

    /// Builds the gated comparisons between two parsed bench summaries
    /// ([`rustfi_obs::json::parse_json`]). A metric missing from either
    /// summary is skipped (older baselines may predate it); an empty return
    /// therefore means the summaries share no comparable metric.
    pub fn checks(baseline: &Value<'_>, fresh: &Value<'_>) -> Vec<Check> {
        RATIOS
            .iter()
            .filter_map(|&(name, path)| {
                Some(Check {
                    name,
                    baseline: number(baseline, path)?,
                    fresh: number(fresh, path)?,
                })
            })
            .collect()
    }

    /// Absolute within-run floors, judged against the fresh summary alone
    /// (pass = `ratio() >= 1.0`). Unlike the baseline-relative [`checks`],
    /// these pin a claim to a constant: the AVX2 int8 GEMM must beat its own
    /// portable compilation by at least 1.5x, and the compiled forward plan
    /// (prepacked panels + fused GEMM epilogues) must beat the plain fused
    /// campaign by at least 1.25x — both within-run ratios, so still
    /// runner-speed independent. The floors only apply when the summary
    /// says the AVX2 kernels actually dispatched; a portable-only host has
    /// no microkernel for packing to feed and is skipped.
    pub fn absolute_floors(fresh: &Value<'_>) -> Vec<Check> {
        let mut out = Vec::new();
        if lookup(fresh, &["int8_matmul_simd"]).and_then(Value::as_str) == Some("avx2") {
            if let Some(f) = number(fresh, &["int8_matmul_geomean_speedup"]) {
                out.push(Check {
                    name: "int8_matmul_floor_1.5x",
                    baseline: 1.5,
                    fresh: f,
                });
            }
            if let Some(f) = number(fresh, &["campaign", "planned_fused_vs_f32_fused"]) {
                out.push(Check {
                    name: "planned_fused_floor_1.25x",
                    baseline: 1.25,
                    fresh: f,
                });
            }
        }
        out
    }
}

/// A counting global allocator for the zero-allocation forward-path claim
/// (see `src/bin/alloc_gate` and `benches/campaign_throughput`).
///
/// Install it with `#[global_allocator]` in a binary, warm the code under
/// test, then diff [`alloc_count::thread_allocs`] around the measured
/// section. Counting is per-thread, so a single-threaded measurement is
/// immune to allocator traffic from unrelated threads.
pub mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Forwards to the system allocator, bumping a thread-local counter on
    /// every allocation (plain, zeroed, and reallocations; frees are not
    /// counted — the claim under test is about acquiring memory).
    pub struct CountingAlloc;

    thread_local! {
        // `const` init: reading the counter never itself allocates.
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// Heap allocations made by the calling thread so far.
    pub fn thread_allocs() -> u64 {
        ALLOCS.with(Cell::get)
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.with(|c| c.set(c.get() + 1));
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.with(|c| c.set(c.get() + 1));
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.with(|c| c.set(c.get() + 1));
            System.realloc(ptr, layout, new_size)
        }
    }

    /// Allocations per call of `pass` at steady state: runs `warm`
    /// un-counted calls (filling caches and the tensor pool), then counts
    /// across `iters` calls and returns the mean. Meaningful only with
    /// [`CountingAlloc`] installed; callers enable the tensor pool first.
    pub fn steady_state_allocs(warm: usize, iters: usize, mut pass: impl FnMut()) -> f64 {
        assert!(iters > 0, "need at least one counted iteration");
        for _ in 0..warm {
            pass();
        }
        let before = thread_allocs();
        for _ in 0..iters {
            pass();
        }
        (thread_allocs() - before) as f64 / iters as f64
    }

    /// [`steady_state_allocs`] of a forward pass of `net` on `input`.
    pub fn steady_state_forward_allocs(
        net: &mut rustfi_nn::Network,
        input: &rustfi_tensor::Tensor,
        warm: usize,
        iters: usize,
    ) -> f64 {
        steady_state_allocs(warm, iters, || {
            std::hint::black_box(net.forward(input)).into_pool()
        })
    }
}

/// The 19 network/dataset pairs of Fig. 3, as `(dataset, model)` names.
pub fn fig3_pairs() -> Vec<(&'static str, &'static str)> {
    let mut pairs = Vec::new();
    for model in [
        "alexnet",
        "densenet",
        "preresnet110",
        "resnet110",
        "resnext",
        "vgg19",
    ] {
        pairs.push(("cifar10-like", model));
    }
    for model in [
        "alexnet",
        "densenet",
        "preresnet110",
        "resnet110",
        "resnext",
        "vgg19",
    ] {
        pairs.push(("cifar100-like", model));
    }
    for model in [
        "alexnet",
        "googlenet",
        "mobilenet",
        "resnet50",
        "shufflenet",
        "squeezenet",
        "vgg19",
    ] {
        pairs.push(("imagenet-like", model));
    }
    pairs
}

/// The six networks of Fig. 4 (ImageNet-like).
pub fn fig4_models() -> &'static [&'static str] {
    &[
        "alexnet",
        "googlenet",
        "resnet50",
        "shufflenet",
        "squeezenet",
        "vgg19",
    ]
}

/// Zoo config for a dataset name.
///
/// # Panics
///
/// Panics on an unknown dataset name.
pub fn zoo_config_for(dataset: &str) -> ZooConfig {
    match dataset {
        "cifar10-like" => ZooConfig::cifar10_like(),
        "cifar100-like" => ZooConfig::cifar100_like(),
        "imagenet-like" => ZooConfig::imagenet_like(),
        other => panic!("unknown dataset {other}"),
    }
}

/// Per-model training recipe: architectures without batch norm need gentler
/// learning rates on the synthetic datasets; BN models converge fastest with
/// the default.
pub fn recipe(model: &str) -> TrainConfig {
    match model {
        // No batch norm: sensitive to large steps.
        "alexnet" | "vgg19" | "lenet" => TrainConfig {
            lr: 0.005,
            momentum: 0.9,
            epochs: 20,
            ..TrainConfig::default()
        },
        // Mostly-unnormalized branched nets: moderate lr, longer schedule.
        "googlenet" | "squeezenet" => TrainConfig {
            lr: 0.01,
            momentum: 0.9,
            epochs: 30,
            ..TrainConfig::default()
        },
        // Batch-normalized residual/compact nets.
        _ => TrainConfig {
            lr: 0.05,
            momentum: 0.9,
            epochs: 12,
            ..TrainConfig::default()
        },
    }
}

/// Trains `model` on `dataset`, checkpoints it, and returns the checkpoint
/// path plus test accuracy. The checkpoint lands in the temp directory and
/// is the caller's to delete.
///
/// # Panics
///
/// Panics on unknown names or checkpoint I/O failure.
pub fn train_and_checkpoint(model: &str, dataset: &SynthSpec) -> (PathBuf, f32) {
    let data = dataset.generate();
    let cfg = zoo_config_for(dataset.name);
    let mut net = zoo::by_name(model, &cfg).unwrap_or_else(|| panic!("unknown model {model}"));
    train::fit(
        &mut net,
        &data.train_images,
        &data.train_labels,
        &recipe(model),
    );
    let acc = train::accuracy(&mut net, &data.test_images, &data.test_labels, 32);
    let path = std::env::temp_dir().join(format!(
        "rustfi-bench-{}-{}-{}.ckpt",
        dataset.name,
        model,
        std::process::id()
    ));
    checkpoint::save(&mut net, &path).expect("write checkpoint");
    (path, acc)
}

/// Builds a factory closure that reconstructs the trained model from its
/// checkpoint (what campaign workers use).
pub fn factory_from_checkpoint(
    model: &'static str,
    dataset_name: &'static str,
    path: PathBuf,
) -> impl Fn() -> Network + Sync {
    move || {
        let mut net = zoo::by_name(model, &zoo_config_for(dataset_name)).expect("known model");
        checkpoint::load(&mut net, &path).expect("read checkpoint");
        net
    }
}

/// Header of the shared campaign-outcome table used by the experiment
/// binaries: one column per outcome kind of the full taxonomy plus the
/// paper's headline rates. Rows come from [`outcome_table_row`].
pub fn outcome_table_header() -> String {
    format!(
        "{:<12} {:>9} {:>9} {:>8} {:>7} {:>7} {:>6} {:>5} {:>11} {:>20} {:>10}",
        "model",
        "accuracy",
        "eligible",
        "masked",
        "SDC",
        "DUE",
        "crash",
        "hang",
        "SDC rate",
        "99% CI (Wilson)",
        "top5-miss"
    )
}

/// One row of the shared outcome table. Pass `None` for `accuracy` when the
/// table has no clean-accuracy column value (e.g. untrained ablations).
pub fn outcome_table_row(name: &str, accuracy: Option<f32>, r: &CampaignResult) -> String {
    let acc = match accuracy {
        Some(a) => format!("{:>8.1}%", 100.0 * a),
        None => format!("{:>9}", "-"),
    };
    let (lo, hi) = r.counts.wilson(r.counts.sdc, Z_99);
    let ci = format!("[{:.3}%, {:.3}%]", 100.0 * lo, 100.0 * hi);
    format!(
        "{:<12} {} {:>9} {:>8} {:>7} {:>7} {:>6} {:>5} {:>10.3}% {:>20} {:>9.3}%",
        name,
        acc,
        r.eligible_images,
        r.counts.masked,
        r.counts.sdc,
        r.counts.due,
        r.counts.crash,
        r.counts.hang,
        100.0 * r.sdc_rate(),
        ci,
        100.0 * r.top5_miss_rate()
    )
}

pub use rustfi_obs::mean_seconds;

#[cfg(test)]
mod tests {
    use super::*;
    use rustfi_obs::json::{parse_json, Value};

    #[test]
    fn fig3_has_19_pairs() {
        let pairs = fig3_pairs();
        assert_eq!(pairs.len(), 19);
        // Every pair resolves to a constructible model.
        for (dataset, model) in pairs {
            let cfg = zoo_config_for(dataset);
            assert!(zoo::by_name(model, &cfg).is_some(), "{dataset}/{model}");
        }
    }

    #[test]
    fn recipes_exist_for_all_fig4_models() {
        for model in fig4_models() {
            let r = recipe(model);
            assert!(r.lr > 0.0 && r.epochs > 0);
        }
    }

    #[test]
    fn env_usize_parses_and_defaults() {
        std::env::set_var("RUSTFI_TEST_KNOB", "123");
        assert_eq!(env_usize("RUSTFI_TEST_KNOB", 5), 123);
        assert_eq!(env_usize("RUSTFI_TEST_KNOB_MISSING", 5), 5);
        std::env::remove_var("RUSTFI_TEST_KNOB");
    }

    #[test]
    fn outcome_table_rows_line_up_with_the_header() {
        use rustfi::{OutcomeCounts, OutcomeKind};
        let mut counts = OutcomeCounts::default();
        for _ in 0..97 {
            counts.record(&OutcomeKind::Masked);
        }
        counts.record(&OutcomeKind::Sdc);
        counts.record(&OutcomeKind::Crash { detail: "x".into() });
        counts.record(&OutcomeKind::Hang);
        let result = CampaignResult {
            records: Vec::new(),
            counts,
            per_layer: Vec::new(),
            eligible_images: 42,
            prefix: None,
            fusion: None,
        };
        let header = outcome_table_header();
        let with_acc = outcome_table_row("alexnet", Some(0.935), &result);
        let without = outcome_table_row("probe", None, &result);
        assert_eq!(header.len(), with_acc.len(), "\n{header}\n{with_acc}");
        assert_eq!(header.len(), without.len(), "\n{header}\n{without}");
        assert!(with_acc.contains("93.5%"));
        assert!(with_acc.contains("42"));
        // masked, SDC, crash, hang all present.
        for needle in ["97", "1"] {
            assert!(with_acc.contains(needle), "{with_acc}");
        }
    }

    #[test]
    fn quick_mode_reads_defaults_and_overrides() {
        // Only poke knobs no other test reads, to stay order-independent.
        std::env::remove_var("RUSTFI_BENCH_MODEL");
        let qm = QuickMode::from_env();
        assert_eq!(qm.model, "vgg19");
        assert_eq!(qm.dataset, "cifar10-like");
        assert!(
            qm.json_path.is_some(),
            "default path points at the repo root"
        );

        std::env::set_var("RUSTFI_BENCH_MODEL", "alexnet");
        std::env::set_var("RUSTFI_BENCH_JSON", "skip");
        let qm = QuickMode::from_env();
        assert_eq!(qm.model, "alexnet");
        assert!(qm.json_path.is_none(), "skip suppresses the summary");
        std::env::remove_var("RUSTFI_BENCH_MODEL");
        std::env::remove_var("RUSTFI_BENCH_JSON");
    }

    const FAKE_BENCH: &str = r#"{
  "matmul": [
    {"m": 1, "k": 2, "n": 3, "speedup": 9.999}
  ],
  "matmul_geomean_speedup": 2.000,
  "elementwise_geomean_speedup": 1.500,
  "campaign": {
    "model": "vgg19",
    "speedup": 4.000,
    "fused_speedup": 8.000
  }
}"#;

    fn json(text: &str) -> Value<'static> {
        parse_json(text).unwrap()
    }

    /// `v` written back with every object's keys in reverse order and no
    /// whitespace.
    fn reordered(v: &Value<'_>) -> String {
        let join = |items: Vec<String>| items.join(",");
        match v {
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Num(n) => n.to_string(),
            Value::Str(s) => format!("{s:?}"),
            Value::Arr(items) => format!("[{}]", join(items.iter().map(reordered).collect())),
            Value::Obj(fields) => format!(
                "{{{}}}",
                join(
                    fields
                        .iter()
                        .rev()
                        .map(|(k, v)| format!("{k:?}:{}", reordered(v)))
                        .collect()
                )
            ),
        }
    }

    #[test]
    fn gate_reads_the_blessed_summary_by_key_path() {
        let blessed = json(include_str!("../../../BENCH_campaign.json"));
        let checks = gate::checks(&blessed, &blessed);
        assert_eq!(checks.len(), 9);
        assert!(checks.iter().all(|c| c.ratio() == 1.0), "{checks:?}");
        let floors = gate::absolute_floors(&blessed);
        assert_eq!(floors.len(), 2);
        // Key order and whitespace are not part of the format.
        let shuffled = json(&reordered(&blessed));
        assert_eq!(gate::checks(&blessed, &shuffled), checks);
        assert_eq!(gate::absolute_floors(&shuffled), floors);
    }

    #[test]
    fn gate_checks_compare_ratios_not_absolutes() {
        let fresh = FAKE_BENCH
            .replace("4.000", "3.200") // prefix speedup dropped to 0.8x
            .replace("8.000", "5.000"); // fused speedup dropped to 0.625x
        let checks = gate::checks(&json(FAKE_BENCH), &json(&fresh));
        assert_eq!(checks.len(), 4);
        let by_name = |n: &str| checks.iter().find(|c| c.name == n).unwrap();
        // The campaign's own "speedup", not the matmul row's.
        assert_eq!(by_name("prefix_cache_speedup").baseline, 4.0);
        assert!(by_name("matmul_geomean_speedup").passes(0.75), "unchanged");
        assert!(
            by_name("elementwise_geomean_speedup").passes(0.75),
            "unchanged"
        );
        assert!(by_name("prefix_cache_speedup").passes(0.75), "0.8 >= 0.75");
        assert!(!by_name("fused_speedup").passes(0.75), "0.625 < 0.75");
        // A metric absent from one side is skipped, not failed.
        let old_baseline = FAKE_BENCH.replace("\"fused_speedup\": 8.000", "\"x\": 0");
        assert_eq!(
            gate::checks(&json(&old_baseline), &json(FAKE_BENCH)).len(),
            3
        );
        // Nonsense values never pass.
        let broken = gate::Check {
            name: "x",
            baseline: 0.0,
            fresh: 1.0,
        };
        assert!(!broken.passes(0.75));
    }

    const FAKE_BENCH_INT8: &str = r#"{
  "matmul_geomean_speedup": 2.000,
  "int8_matmul": [
    {"m": 1, "k": 2, "n": 3, "speedup": 9.999}
  ],
  "packed_vs_unpacked_geomean": 1.300,
  "int8_matmul_geomean_speedup": 2.500,
  "int8_matmul_simd": "avx2",
  "int8_conv_planned_geomean": 2.200,
  "elementwise_geomean_speedup": 1.500,
  "campaign": {
    "model": "vgg19",
    "speedup": 4.000,
    "fused_speedup": 8.000,
    "planned_fused_vs_f32_fused": 1.600,
    "int8_fused_vs_f32": 1.200
  }
}"#;

    #[test]
    fn gate_compares_int8_metrics_when_both_sides_have_them() {
        let int8 = json(FAKE_BENCH_INT8);
        let checks = gate::checks(&int8, &int8);
        assert_eq!(checks.len(), 9);
        let by_name = |n: &str| checks.iter().find(|c| c.name == n).unwrap();
        // The int8 geomean key must not be confused with the f32 one.
        assert_eq!(by_name("int8_matmul_geomean_speedup").fresh, 2.5);
        assert_eq!(by_name("matmul_geomean_speedup").fresh, 2.0);
        assert_eq!(by_name("int8_fused_vs_f32").fresh, 1.2);
        assert_eq!(by_name("packed_vs_unpacked_geomean").fresh, 1.3);
        assert_eq!(by_name("planned_fused_vs_f32_fused").fresh, 1.6);
        assert_eq!(by_name("int8_conv_planned_geomean").fresh, 2.2);
        // An old baseline without the int8/packing keys skips them, not fails.
        assert_eq!(gate::checks(&json(FAKE_BENCH), &int8).len(), 4);
    }

    #[test]
    fn int8_floor_applies_only_when_avx2_dispatched() {
        let floors = gate::absolute_floors(&json(FAKE_BENCH_INT8));
        assert_eq!(floors.len(), 2);
        let by_name = |n: &str| floors.iter().find(|c| c.name == n).unwrap();
        assert!(
            by_name("int8_matmul_floor_1.5x").passes(1.0),
            "2.5 clears the 1.5 floor"
        );
        assert!(
            by_name("planned_fused_floor_1.25x").passes(1.0),
            "1.6 clears the 1.25 floor"
        );
        let slow = FAKE_BENCH_INT8.replace("2.500", "1.400");
        assert!(
            !gate::absolute_floors(&json(&slow))[0].passes(1.0),
            "1.4 < 1.5"
        );
        let slow_plan = FAKE_BENCH_INT8.replace("1.600", "1.100");
        assert!(
            !gate::absolute_floors(&json(&slow_plan))[1].passes(1.0),
            "1.1 < 1.25"
        );
        let portable = FAKE_BENCH_INT8.replace("\"avx2\"", "\"portable\"");
        assert!(
            gate::absolute_floors(&json(&portable)).is_empty(),
            "portable hosts measure 1.0x by construction and are exempt"
        );
        assert!(
            gate::absolute_floors(&json(FAKE_BENCH)).is_empty(),
            "no int8 data"
        );
    }

    #[test]
    fn env_f64_parses_and_defaults() {
        std::env::set_var("RUSTFI_TEST_RATIO", "0.5");
        assert!((env_f64("RUSTFI_TEST_RATIO", 0.75) - 0.5).abs() < 1e-12);
        assert!((env_f64("RUSTFI_TEST_RATIO_MISSING", 0.75) - 0.75).abs() < 1e-12);
        std::env::remove_var("RUSTFI_TEST_RATIO");
    }

    #[test]
    fn mean_seconds_is_positive() {
        let s = mean_seconds(3, || {
            std::hint::black_box(1 + 1);
        });
        assert!(s >= 0.0);
    }
}
