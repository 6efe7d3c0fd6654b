//! Campaign trial throughput: golden-prefix caching, fused batched trials,
//! and the blocked matmul kernel, with a machine-readable
//! `BENCH_campaign.json` summary.
//!
//! Three measurements back the perf claims in `EXPERIMENTS.md`:
//!
//! 1. **Kernel**: the register-blocked `matmul` against a faithful copy of
//!    the previous ikj kernel (zero-skip branch included), at im2col GEMM
//!    shapes representative of the zoo's convolutions.
//! 2. **Campaign**: a Fig. 4-style per-layer injection campaign over the
//!    mid/late layers of a CIFAR-scale network, with and without
//!    [`rustfi::PrefixCacheConfig`] — trials resume from the injection
//!    layer instead of re-running the clean prefix, so the speedup grows
//!    with injection depth. Records are asserted bit-identical.
//! 3. **Fusion**: the same campaign with [`rustfi::FusionConfig`] stacked on
//!    the prefix cache — trials sharing an `(injection layer, image)` pair
//!    execute as one batched forward pass, amortizing per-pass overhead
//!    across the batch. Records are asserted bit-identical.
//! 4. **Elementwise tail + allocations**: the runtime-dispatched
//!    [`rustfi_tensor::kernels`] against equivalent scalar loops compiled at
//!    the default target level, plus the steady-state heap allocations per
//!    forward pass with the thread-local tensor pool armed (the
//!    zero-allocation claim, measured under a counting global allocator).
//! 5. **INT8**: the AVX2-dispatched integer GEMM
//!    ([`rustfi_tensor::matmul_i8_nt`]) against its portable compilation at
//!    the same im2col shapes (outputs asserted bit-identical), and the same
//!    fused campaign re-run with [`rustfi::QuantMode::Int8`] — real integer
//!    kernels, faults landing in stored INT8 words — reported as a
//!    within-run ratio against the f32 fused campaign.
//! 6. **INT8 conv ablation**: the compiled-plan INT8 convolution
//!    ([`rustfi_tensor::conv2d_q_planned`]: implicit GEMM over a
//!    channels-last input plane, prepacked panel, fused epilogue) against
//!    the unplanned im2row [`rustfi_tensor::conv2d_q`] at every ResNet-110
//!    conv shape of the cifar10-like zoo config (outputs asserted
//!    bit-identical).
//!
//! Knobs are the shared quick-mode `RUSTFI_*` environment variables — see
//! [`rustfi_bench::QuickMode`] — which `bench_gate` reads too.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rustfi::{
    Campaign, CampaignConfig, FaultMode, FusionConfig, NeuronSelect, PrefixCacheConfig, QuantMode,
};
use rustfi_bench::{env_usize, zoo_config_for, QuickMode};
use rustfi_nn::{zoo, Network, ZooConfig};
use rustfi_tensor::pack::{matmul_packed_a, Epilogue, PackedA};
use rustfi_tensor::qkernels::{int8_conv_simd, matmul_i8_nt, matmul_i8_nt_portable};
use rustfi_tensor::{
    conv2d_q, conv2d_q_planned, kernels, matmul, matmul_into, parallel, tpool, Act, ConvSpec,
    PackedConvI16, QTensor, SeededRng, Tensor,
};
use std::sync::Arc;
use std::time::Instant;

/// Counts heap allocations so the steady-state zero-allocation claim is
/// measured in the same run that produces the throughput numbers.
#[global_allocator]
static ALLOC: rustfi_bench::alloc_count::CountingAlloc = rustfi_bench::alloc_count::CountingAlloc;

/// The pre-blocking ikj kernel, kept verbatim (including the `aik == 0.0`
/// skip and the row-parallel fan-out) as the comparison baseline.
fn matmul_ikj_baseline(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.dims2();
    let (k2, n) = b.dims2();
    assert_eq!(k, k2);
    let mut out = vec![0.0f32; m * n];
    let a_data = a.data();
    let b_data = b.data();
    parallel::for_each_chunk_mut(&mut out, n, m * n * k, |row0, rows, out_rows| {
        for (local_i, i) in (row0..row0 + rows).enumerate() {
            let out_row = &mut out_rows[local_i * n..(local_i + 1) * n];
            for kk in 0..k {
                let aik = a_data[i * k + kk];
                if aik == 0.0 {
                    continue;
                }
                let b_row = &b_data[kk * n..(kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bv;
                }
            }
        }
    });
    Tensor::from_vec(out, &[m, n])
}

/// Mean seconds per call over `iters` timed runs (after one warm-up).
fn time_mean<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() / iters as f64
}

struct MatmulRow {
    m: usize,
    k: usize,
    n: usize,
    baseline_s: f64,
    blocked_s: f64,
}

fn bench_matmul_kernels(c: &mut Criterion, rows: &mut Vec<MatmulRow>) {
    let mut rng = SeededRng::new(11);
    // im2col GEMM shapes (oc, cg*kh*kw, oh*ow) of early / mid / late zoo
    // convolutions at CIFAR scale, plus a classifier matmul.
    let shapes = [
        (64usize, 27usize, 1024usize),
        (256, 1152, 256),
        (512, 4608, 16),
        (128, 512, 128),
    ];
    let iters = env_usize("RUSTFI_MATMUL_ITERS", 12);
    let mut group = c.benchmark_group("matmul_kernel");
    group.sample_size(iters);
    for (m, k, n) in shapes {
        let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("ikj_baseline", format!("{m}x{k}x{n}")),
            &(),
            {
                let (a, b) = (a.clone(), b.clone());
                move |bch, ()| bch.iter(|| matmul_ikj_baseline(&a, &b))
            },
        );
        group.bench_with_input(BenchmarkId::new("blocked", format!("{m}x{k}x{n}")), &(), {
            let (a, b) = (a.clone(), b.clone());
            move |bch, ()| bch.iter(|| matmul(&a, &b))
        });
        let baseline_s = time_mean(iters, || matmul_ikj_baseline(&a, &b));
        let blocked_s = time_mean(iters, || matmul(&a, &b));
        println!(
            "  {m}x{k}x{n}: ikj {:.3} ms -> blocked {:.3} ms ({:.2}x)",
            baseline_s * 1e3,
            blocked_s * 1e3,
            baseline_s / blocked_s
        );
        rows.push(MatmulRow {
            m,
            k,
            n,
            baseline_s,
            blocked_s,
        });
    }
    group.finish();
}

struct PackedMatmulRow {
    m: usize,
    k: usize,
    n: usize,
    unpacked_s: f64,
    packed_s: f64,
}

/// The compiled-plan GEMM: weights pre-tiled into microkernel panels (the
/// pack cost paid once at campaign setup) against the unpacked blocked
/// kernel on the same im2col shapes. Both write into a preallocated output
/// and accumulate in the same `kk` order, so the products are bit-identical
/// — asserted after timing.
fn bench_packed_matmul(c: &mut Criterion, rows: &mut Vec<PackedMatmulRow>) {
    let mut rng = SeededRng::new(17);
    let shapes = [
        (64usize, 27usize, 1024usize),
        (256, 1152, 256),
        (512, 4608, 16),
        (128, 512, 128),
    ];
    let iters = env_usize("RUSTFI_MATMUL_ITERS", 12);
    let mut group = c.benchmark_group("packed_matmul_kernel");
    group.sample_size(iters);
    for (m, k, n) in shapes {
        let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
        let pa = PackedA::pack(a.data(), m, k);
        group.bench_with_input(BenchmarkId::new("unpacked", format!("{m}x{k}x{n}")), &(), {
            let (a, b) = (a.clone(), b.clone());
            let mut out = vec![0.0f32; m * n];
            move |bch, ()| bch.iter(|| matmul_into(a.data(), b.data(), &mut out, m, k, n, true))
        });
        group.bench_with_input(BenchmarkId::new("packed", format!("{m}x{k}x{n}")), &(), {
            let (pa, b) = (PackedA::pack(a.data(), m, k), b.clone());
            let mut out = vec![0.0f32; m * n];
            move |bch, ()| {
                bch.iter(|| matmul_packed_a(&pa, b.data(), &mut out, n, &Epilogue::None, true))
            }
        });
        let mut unpacked = vec![0.0f32; m * n];
        let mut packed = vec![0.0f32; m * n];
        let unpacked_s = time_mean(iters, || {
            matmul_into(a.data(), b.data(), &mut unpacked, m, k, n, true)
        });
        let packed_s = time_mean(iters, || {
            matmul_packed_a(&pa, b.data(), &mut packed, n, &Epilogue::None, true)
        });
        assert_eq!(
            unpacked.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            packed.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "packed GEMM diverged from the unpacked kernel"
        );
        println!(
            "  packed {m}x{k}x{n}: unpacked {:.3} ms -> packed {:.3} ms ({:.2}x)",
            unpacked_s * 1e3,
            packed_s * 1e3,
            unpacked_s / packed_s
        );
        rows.push(PackedMatmulRow {
            m,
            k,
            n,
            unpacked_s,
            packed_s,
        });
    }
    group.finish();
}

struct Int8MatmulRow {
    m: usize,
    k: usize,
    n: usize,
    portable_s: f64,
    dispatched_s: f64,
}

/// Which int8 GEMM the dispatcher resolves to on this host; the gate only
/// applies the absolute speedup floor when AVX2 actually ran (a portable-only
/// host measures 1.0x by construction).
fn int8_matmul_simd() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

/// The integer GEMM behind the quantized conv/linear layers: the
/// AVX2-dispatched kernel against its portable compilation, at the f32
/// bench's im2col shapes (weights-as-`a`, im2row patches as transposed `b`).
/// Every output element is an exact integer dot product, so the two
/// compilations must agree bit for bit — asserted after timing.
fn bench_int8_matmul(c: &mut Criterion, rows: &mut Vec<Int8MatmulRow>) {
    let mut rng = SeededRng::new(13);
    let shapes = [
        (64usize, 27usize, 1024usize),
        (256, 1152, 256),
        (512, 4608, 16),
        (128, 512, 128),
    ];
    let iters = env_usize("RUSTFI_MATMUL_ITERS", 12);
    let mut group = c.benchmark_group("int8_matmul_kernel");
    group.sample_size(iters);
    for (m, k, n) in shapes {
        let a: Vec<i8> = (0..m * k)
            .map(|_| (rng.below(255) as i64 - 127) as i8)
            .collect();
        let b: Vec<i8> = (0..n * k)
            .map(|_| (rng.below(255) as i64 - 127) as i8)
            .collect();
        group.bench_with_input(BenchmarkId::new("portable", format!("{m}x{k}x{n}")), &(), {
            let (a, b) = (a.clone(), b.clone());
            let mut out = vec![0i32; m * n];
            move |bch, ()| bch.iter(|| matmul_i8_nt_portable(&a, &b, &mut out, m, k, n))
        });
        group.bench_with_input(
            BenchmarkId::new("dispatched", format!("{m}x{k}x{n}")),
            &(),
            {
                let (a, b) = (a.clone(), b.clone());
                let mut out = vec![0i32; m * n];
                move |bch, ()| bch.iter(|| matmul_i8_nt(&a, &b, &mut out, m, k, n))
            },
        );
        let mut portable = vec![0i32; m * n];
        let mut dispatched = vec![0i32; m * n];
        let portable_s = time_mean(iters, || {
            matmul_i8_nt_portable(&a, &b, &mut portable, m, k, n)
        });
        let dispatched_s = time_mean(iters, || matmul_i8_nt(&a, &b, &mut dispatched, m, k, n));
        assert_eq!(portable, dispatched, "int8 GEMM compilations disagree");
        println!(
            "  int8 {m}x{k}x{n}: portable {:.3} ms -> dispatched {:.3} ms ({:.2}x)",
            portable_s * 1e3,
            dispatched_s * 1e3,
            portable_s / dispatched_s
        );
        rows.push(Int8MatmulRow {
            m,
            k,
            n,
            portable_s,
            dispatched_s,
        });
    }
    group.finish();
}

struct Int8ConvRow {
    c: usize,
    oc: usize,
    hw: usize,
    k: usize,
    stride: usize,
    unplanned_s: f64,
    planned_s: f64,
}

/// The INT8 convolution the weight-fault campaigns spend their trials in:
/// the planned implicit GEMM (prepacked [`PackedConvI16`] panel, input read
/// in place from a channels-last plane) against the unplanned im2row
/// [`conv2d_q`], one batch-1 sample per call, at every conv shape of
/// ResNet-110 on the cifar10-like config (16×16 inputs, widths 8/16/32).
/// Both paths produce the same bits — asserted after timing.
fn bench_int8_conv(c: &mut Criterion, rows: &mut Vec<Int8ConvRow>) {
    let mut rng = SeededRng::new(17);
    // (in_ch, out_ch, input hw, kernel, stride); padding is kernel / 2.
    let shapes = [
        (3usize, 8usize, 16usize, 3usize, 1usize),
        (8, 8, 16, 3, 1),
        (8, 16, 16, 3, 2),
        (8, 16, 16, 1, 2),
        (16, 16, 8, 3, 1),
        (16, 32, 8, 3, 2),
        (16, 32, 8, 1, 2),
        (32, 32, 4, 3, 1),
    ];
    // Each call takes microseconds: time many per sample.
    let calls = env_usize("RUSTFI_MATMUL_ITERS", 12) * 100;
    let mut group = c.benchmark_group("int8_conv");
    group.sample_size(env_usize("RUSTFI_MATMUL_ITERS", 12));
    for (ch, oc, hw, k, stride) in shapes {
        let spec = ConvSpec::new().stride(stride).padding(k / 2);
        let x = Tensor::rand_normal(&[1, ch, hw, hw], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[oc, ch, k, k], 0.0, 0.5, &mut rng);
        let b = Tensor::rand_normal(&[oc], 0.0, 0.1, &mut rng);
        let qw = QTensor::quantize_per_channel(&w);
        let panel = PackedConvI16::pack(qw.data(), [oc, ch, k, k], 1);
        let scale = 0.02f32;
        let unplanned = || conv2d_q(&x, &qw, &b, &spec, scale);
        let planned = || conv2d_q_planned(&x, &qw, &panel, &b, &spec, scale, None, Act::None);
        let label = format!("{ch}x{hw}x{hw}>{oc}k{k}s{stride}");
        group.bench_with_input(BenchmarkId::new("conv2d_q", &label), &(), |bch, ()| {
            bch.iter(unplanned)
        });
        group.bench_with_input(BenchmarkId::new("planned", &label), &(), |bch, ()| {
            bch.iter(planned)
        });
        let unplanned_s = time_mean(calls, unplanned);
        let planned_s = time_mean(calls, planned);
        assert_eq!(
            unplanned().data(),
            planned().data(),
            "planned INT8 conv diverged at {label}"
        );
        println!(
            "  int8 conv {label}: conv2d_q {:.2} us -> planned {:.2} us ({:.2}x)",
            unplanned_s * 1e6,
            planned_s * 1e6,
            unplanned_s / planned_s
        );
        rows.push(Int8ConvRow {
            c: ch,
            oc,
            hw,
            k,
            stride,
            unplanned_s,
            planned_s,
        });
    }
    group.finish();
}

struct ElemwiseRow {
    op: &'static str,
    scalar_s: f64,
    kernel_s: f64,
}

/// Plain scalar loops with the shapes the pre-kernel `ops.rs` code used,
/// compiled at the crate's default target level — the "before" side of the
/// elementwise speedup claim. The dispatched kernels run the same
/// per-element operations, so outputs are bit-identical; only codegen
/// differs.
mod scalar_ref {
    pub fn relu(a: &[f32], out: &mut [f32]) {
        for (o, &x) in out.iter_mut().zip(a) {
            *o = x.max(0.0);
        }
    }

    pub fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x + y;
        }
    }

    pub fn mul(a: &[f32], b: &[f32], out: &mut [f32]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x * y;
        }
    }

    pub fn axpy(out: &mut [f32], a: &[f32], s: f32) {
        for (o, &x) in out.iter_mut().zip(a) {
            *o += s * x;
        }
    }

    pub fn bn_fmap(
        x: &[f32],
        mean: f32,
        inv_std: f32,
        g: f32,
        b: f32,
        x_hat: &mut [f32],
        out: &mut [f32],
    ) {
        for ((&v, xh), o) in x.iter().zip(x_hat.iter_mut()).zip(out.iter_mut()) {
            let n = (v - mean) * inv_std;
            *xh = n;
            *o = g * n + b;
        }
    }

    pub fn softmax_row(row: &[f32], out: &mut [f32]) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0;
        for (o, &x) in out.iter_mut().zip(row) {
            let e = (x - m).exp();
            *o = e;
            denom += e;
        }
        for o in out.iter_mut() {
            *o /= denom;
        }
    }
}

fn bench_elementwise(c: &mut Criterion, rows: &mut Vec<ElemwiseRow>) {
    // 64 Ki elements (256 KiB) stays cache-resident, so the measurement
    // reflects codegen rather than memory bandwidth; softmax treats the
    // buffer as `cols`-wide rows.
    let len = env_usize("RUSTFI_ELEMWISE_LEN", 1 << 16).max(1);
    let cols = 256.min(len);
    let iters = env_usize("RUSTFI_ELEMWISE_ITERS", 200);
    let mut rng = SeededRng::new(29);
    let at = Tensor::rand_normal(&[len], 0.0, 1.0, &mut rng);
    let bt = Tensor::rand_normal(&[len], 0.0, 1.0, &mut rng);
    let (a, b) = (at.data(), bt.data());
    let mut out = vec![0.0f32; len];
    let mut aux = vec![0.0f32; len];

    let mut group = c.benchmark_group("elementwise_kernel");
    group.sample_size(iters);
    // Registers the scalar/dispatched pair with Criterion, times both with
    // `time_mean` for the JSON summary, and records the row.
    macro_rules! case {
        ($op:literal, $scalar:expr, $kernel:expr) => {{
            group.bench_function(BenchmarkId::new($op, "scalar"), |bch| bch.iter(|| $scalar));
            group.bench_function(BenchmarkId::new($op, "dispatched"), |bch| {
                bch.iter(|| $kernel)
            });
            let scalar_s = time_mean(iters, || $scalar);
            let kernel_s = time_mean(iters, || $kernel);
            println!(
                "  elementwise {}: scalar {:.3} µs -> dispatched {:.3} µs ({:.2}x)",
                $op,
                scalar_s * 1e6,
                kernel_s * 1e6,
                scalar_s / kernel_s
            );
            rows.push(ElemwiseRow {
                op: $op,
                scalar_s,
                kernel_s,
            });
        }};
    }

    case!(
        "relu",
        scalar_ref::relu(a, &mut out),
        kernels::relu(a, &mut out)
    );
    case!(
        "add",
        scalar_ref::add(a, b, &mut out),
        kernels::add(a, b, &mut out)
    );
    case!(
        "mul",
        scalar_ref::mul(a, b, &mut out),
        kernels::mul(a, b, &mut out)
    );
    case!(
        "axpy",
        scalar_ref::axpy(&mut out, a, 0.37),
        kernels::axpy(&mut out, a, 0.37)
    );
    case!(
        "batchnorm",
        scalar_ref::bn_fmap(a, 0.1, 1.3, 0.9, -0.2, &mut aux, &mut out),
        kernels::bn_fmap(a, 0.1, 1.3, 0.9, -0.2, &mut aux, &mut out)
    );
    case!(
        "softmax",
        for (r, o) in a.chunks_exact(cols).zip(out.chunks_exact_mut(cols)) {
            scalar_ref::softmax_row(r, o);
        },
        for (r, o) in a.chunks_exact(cols).zip(out.chunks_exact_mut(cols)) {
            kernels::softmax_row(r, o);
        }
    );
    group.finish();
}

struct CampaignNumbers {
    model: String,
    dataset: String,
    layers: Vec<usize>,
    trials_per_layer: usize,
    images: usize,
    uncached_s: f64,
    cached_s: f64,
    fused_s: f64,
    planned_fused_s: f64,
    int8_uncached_s: f64,
    int8_fused_s: f64,
    int8_planned_fused_s: f64,
    fusion_width: usize,
    hits: u64,
    misses: u64,
    skipped_flops: u64,
}

fn bench_campaign(c: &mut Criterion, qm: &QuickMode) -> CampaignNumbers {
    let QuickMode {
        model,
        dataset,
        images: n_images,
        trials,
        iters,
        ..
    } = qm.clone();
    let cfg = zoo_config_for(&dataset);
    let hw = cfg.image_hw;
    let fusion = FusionConfig::default();
    let fusion_width = fusion.max_batch;

    let model_name: &'static str = Box::leak(model.clone().into_boxed_str());
    let dataset_name: &'static str = Box::leak(dataset.clone().into_boxed_str());
    let factory = move || -> Network {
        zoo::by_name(model_name, &zoo_config_for(dataset_name)).expect("known model")
    };

    let mut rng = SeededRng::new(7);
    let images = Tensor::rand_normal(&[n_images, 3, hw, hw], 0.0, 1.0, &mut rng);
    let mut probe = factory();
    let labels: Vec<usize> = (0..n_images)
        .map(|i| rustfi::metrics::top1(probe.forward(&images.select_batch(i)).data()))
        .collect();
    let layer_count = {
        let profile = rustfi::ModelProfile::discover(&mut probe, [1, 3, hw, hw]);
        profile.len()
    };
    drop(probe);
    // Fig. 4 sweeps injections per layer; the mid/late back half is where
    // prefix caching skips the most clean recomputation.
    let layers: Vec<usize> = (layer_count / 2..layer_count).collect();

    // The f32 campaigns perturb with uniform random values (the Fig. 3
    // workload); the quantized campaigns flip a random bit in the stored
    // INT8 word — the fault model the real-INT8 backend exists for. Both
    // models cost nanoseconds per trial, so the throughput ratio reflects
    // the forward-pass kernels, not the perturbation arithmetic.
    let f32_model: Arc<dyn rustfi::PerturbationModel> =
        Arc::new(rustfi::models::RandomUniform::default());
    let int8_model: Arc<dyn rustfi::PerturbationModel> = Arc::new(
        rustfi::models::BitFlipInt8::new(rustfi::models::BitSelect::Random),
    );
    let run_plan = |prefix: Option<PrefixCacheConfig>,
                    fusion: Option<FusionConfig>,
                    quant: QuantMode,
                    pmodel: &Arc<dyn rustfi::PerturbationModel>,
                    plan: bool| {
        let mut results = Vec::new();
        for &layer in &layers {
            let campaign = Campaign::new(
                &factory,
                &images,
                &labels,
                FaultMode::Neuron(NeuronSelect::RandomInLayer { layer }),
                Arc::clone(pmodel),
            );
            results.push(
                campaign
                    .run(&CampaignConfig {
                        trials,
                        seed: 0xF164 + layer as u64,
                        prefix_cache: prefix.clone(),
                        fusion,
                        quant,
                        plan,
                        ..CampaignConfig::default()
                    })
                    .expect("campaign runs"),
            );
        }
        results
    };
    let run_all = |prefix: Option<PrefixCacheConfig>,
                   fusion: Option<FusionConfig>,
                   quant: QuantMode,
                   pmodel: &Arc<dyn rustfi::PerturbationModel>| {
        run_plan(prefix, fusion, quant, pmodel, false)
    };

    let mut group = c.benchmark_group("campaign_throughput");
    group.sample_size(iters);
    group.bench_function(BenchmarkId::new("uncached", model_name), |b| {
        b.iter(|| run_all(None, None, QuantMode::Off, &f32_model))
    });
    group.bench_function(BenchmarkId::new("prefix_cached", model_name), |b| {
        b.iter(|| {
            run_all(
                Some(PrefixCacheConfig::default()),
                None,
                QuantMode::Off,
                &f32_model,
            )
        })
    });
    group.bench_function(BenchmarkId::new("fused", model_name), |b| {
        b.iter(|| {
            run_all(
                Some(PrefixCacheConfig::default()),
                Some(fusion),
                QuantMode::Off,
                &f32_model,
            )
        })
    });
    group.bench_function(BenchmarkId::new("planned_fused", model_name), |b| {
        b.iter(|| {
            run_plan(
                Some(PrefixCacheConfig::default()),
                Some(fusion),
                QuantMode::Off,
                &f32_model,
                true,
            )
        })
    });
    group.bench_function(BenchmarkId::new("int8_fused", model_name), |b| {
        b.iter(|| {
            run_all(
                Some(PrefixCacheConfig::default()),
                Some(fusion),
                QuantMode::Int8,
                &int8_model,
            )
        })
    });
    group.finish();

    let uncached_s = time_mean(iters, || run_all(None, None, QuantMode::Off, &f32_model));
    let cached_s = time_mean(iters, || {
        run_all(
            Some(PrefixCacheConfig::default()),
            None,
            QuantMode::Off,
            &f32_model,
        )
    });
    let fused_s = time_mean(iters, || {
        run_all(
            Some(PrefixCacheConfig::default()),
            Some(fusion),
            QuantMode::Off,
            &f32_model,
        )
    });
    let planned_fused_s = time_mean(iters, || {
        run_plan(
            Some(PrefixCacheConfig::default()),
            Some(fusion),
            QuantMode::Off,
            &f32_model,
            true,
        )
    });
    let int8_uncached_s = time_mean(iters, || run_all(None, None, QuantMode::Int8, &int8_model));
    let int8_fused_s = time_mean(iters, || {
        run_all(
            Some(PrefixCacheConfig::default()),
            Some(fusion),
            QuantMode::Int8,
            &int8_model,
        )
    });
    let int8_planned_fused_s = time_mean(iters, || {
        run_plan(
            Some(PrefixCacheConfig::default()),
            Some(fusion),
            QuantMode::Int8,
            &int8_model,
            true,
        )
    });

    // The optimizations must be invisible in the records — in both
    // quantization regimes.
    let plain = run_all(None, None, QuantMode::Off, &f32_model);
    let cached = run_all(
        Some(PrefixCacheConfig::default()),
        None,
        QuantMode::Off,
        &f32_model,
    );
    let fused = run_all(
        Some(PrefixCacheConfig::default()),
        Some(fusion),
        QuantMode::Off,
        &f32_model,
    );
    let (mut hits, mut misses, mut skipped_flops) = (0u64, 0u64, 0u64);
    for ((p, cr), fr) in plain.iter().zip(&cached).zip(&fused) {
        assert_eq!(p.records, cr.records, "prefix caching changed records");
        assert_eq!(p.records, fr.records, "trial fusion changed records");
        let s = cr.prefix.expect("stats on");
        hits += s.hits;
        misses += s.misses;
        skipped_flops += s.skipped_flops;
    }
    let planned = run_plan(
        Some(PrefixCacheConfig::default()),
        Some(fusion),
        QuantMode::Off,
        &f32_model,
        true,
    );
    for (p, pr) in plain.iter().zip(&planned) {
        assert_eq!(p.records, pr.records, "compiled plan changed records");
    }
    let int8_plain = run_all(None, None, QuantMode::Int8, &int8_model);
    let int8_fused = run_all(
        Some(PrefixCacheConfig::default()),
        Some(fusion),
        QuantMode::Int8,
        &int8_model,
    );
    for (p, fr) in int8_plain.iter().zip(&int8_fused) {
        assert_eq!(p.records, fr.records, "acceleration changed INT8 records");
    }
    let int8_planned = run_plan(
        Some(PrefixCacheConfig::default()),
        Some(fusion),
        QuantMode::Int8,
        &int8_model,
        true,
    );
    for (p, pr) in int8_plain.iter().zip(&int8_planned) {
        assert_eq!(p.records, pr.records, "compiled plan changed INT8 records");
    }
    let total_trials = (trials * layers.len()) as f64;
    println!(
        "  campaign {model_name}: uncached {:.1} trials/s -> prefix-cached {:.1} trials/s \
         ({:.2}x, {hits} hits / {misses} misses) -> fused {:.1} trials/s ({:.2}x)",
        total_trials / uncached_s,
        total_trials / cached_s,
        uncached_s / cached_s,
        total_trials / fused_s,
        uncached_s / fused_s
    );
    println!(
        "  campaign {model_name} planned: fused {:.1} trials/s -> planned+fused {:.1} trials/s \
         ({:.2}x)",
        total_trials / fused_s,
        total_trials / planned_fused_s,
        fused_s / planned_fused_s
    );
    println!(
        "  campaign {model_name} int8: uncached {:.1} trials/s -> fused {:.1} trials/s \
         ({:.2}x of the f32 fused rate) -> planned+fused {:.1} trials/s ({:.2}x)",
        total_trials / int8_uncached_s,
        total_trials / int8_fused_s,
        fused_s / int8_fused_s,
        total_trials / int8_planned_fused_s,
        int8_fused_s / int8_planned_fused_s
    );

    CampaignNumbers {
        model,
        dataset,
        layers,
        trials_per_layer: trials,
        images: n_images,
        uncached_s,
        cached_s,
        fused_s,
        planned_fused_s,
        int8_uncached_s,
        int8_fused_s,
        int8_planned_fused_s,
        fusion_width,
        hits,
        misses,
        skipped_flops,
    }
}

/// Steady-state heap allocations per forward pass on a single thread with
/// the tensor pool armed — the zero-allocation claim, measured under the
/// counting global allocator. Uses a model/input small enough to stay below
/// the fork threshold (`parallel::FORK_MACS`), so the scoped-thread fan-out
/// (whose spawns allocate, and which is outside the tensor-path claim) never
/// engages.
fn measure_steady_state_allocs() -> f64 {
    let _pool = tpool::budget_scope(64 << 20);
    let cfg = ZooConfig::tiny(4);
    let mut net = zoo::lenet(&cfg);
    let mut rng = SeededRng::new(23);
    let input = Tensor::rand_normal(
        &[1, cfg.in_channels, cfg.image_hw, cfg.image_hw],
        0.0,
        1.0,
        &mut rng,
    );
    rustfi_bench::alloc_count::steady_state_forward_allocs(&mut net, &input, 8, 32)
}

fn geomean(ratios: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = ratios.fold((0.0, 0usize), |(s, n), r| (s + r.ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

// One slice per bench section, in JSON order.
#[allow(clippy::too_many_arguments)]
fn write_json(
    matmul_rows: &[MatmulRow],
    packed_matmul_rows: &[PackedMatmulRow],
    int8_matmul_rows: &[Int8MatmulRow],
    int8_conv_rows: &[Int8ConvRow],
    elemwise_rows: &[ElemwiseRow],
    steady_state_allocs: f64,
    camp: &CampaignNumbers,
    qm: &QuickMode,
) {
    let Some(path) = &qm.json_path else {
        return;
    };
    let matmul_json: Vec<String> = matmul_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"m\": {}, \"k\": {}, \"n\": {}, \"ikj_baseline_s\": {:.6e}, \
                 \"blocked_s\": {:.6e}, \"speedup\": {:.3}}}",
                r.m,
                r.k,
                r.n,
                r.baseline_s,
                r.blocked_s,
                r.baseline_s / r.blocked_s
            )
        })
        .collect();
    let packed_matmul_json: Vec<String> = packed_matmul_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"m\": {}, \"k\": {}, \"n\": {}, \"unpacked_s\": {:.6e}, \
                 \"packed_s\": {:.6e}, \"speedup\": {:.3}}}",
                r.m,
                r.k,
                r.n,
                r.unpacked_s,
                r.packed_s,
                r.unpacked_s / r.packed_s
            )
        })
        .collect();
    let int8_matmul_json: Vec<String> = int8_matmul_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"m\": {}, \"k\": {}, \"n\": {}, \"portable_s\": {:.6e}, \
                 \"dispatched_s\": {:.6e}, \"speedup\": {:.3}}}",
                r.m,
                r.k,
                r.n,
                r.portable_s,
                r.dispatched_s,
                r.portable_s / r.dispatched_s
            )
        })
        .collect();
    let int8_conv_json: Vec<String> = int8_conv_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"c\": {}, \"oc\": {}, \"hw\": {}, \"k\": {}, \"stride\": {}, \
                 \"conv2d_q_s\": {:.6e}, \"planned_s\": {:.6e}, \"speedup\": {:.3}}}",
                r.c,
                r.oc,
                r.hw,
                r.k,
                r.stride,
                r.unplanned_s,
                r.planned_s,
                r.unplanned_s / r.planned_s
            )
        })
        .collect();
    let elemwise_json: Vec<String> = elemwise_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"op\": \"{}\", \"scalar_s\": {:.6e}, \"dispatched_s\": {:.6e}, \
                 \"speedup\": {:.3}}}",
                r.op,
                r.scalar_s,
                r.kernel_s,
                r.scalar_s / r.kernel_s
            )
        })
        .collect();
    let total_trials = (camp.trials_per_layer * camp.layers.len()) as f64;
    let layers: Vec<String> = camp.layers.iter().map(|l| l.to_string()).collect();
    let json = format!(
        "{{\n\
         \x20 \"bench\": \"campaign_throughput\",\n\
         \x20 \"matmul\": [\n{}\n  ],\n\
         \x20 \"matmul_geomean_speedup\": {:.3},\n\
         \x20 \"packed_matmul\": [\n{}\n  ],\n\
         \x20 \"packed_vs_unpacked_geomean\": {:.3},\n\
         \x20 \"int8_matmul\": [\n{}\n  ],\n\
         \x20 \"int8_matmul_geomean_speedup\": {:.3},\n\
         \x20 \"int8_matmul_simd\": \"{}\",\n\
         \x20 \"int8_conv_simd\": \"{}\",\n\
         \x20 \"int8_conv\": [\n{}\n  ],\n\
         \x20 \"int8_conv_planned_geomean\": {:.3},\n\
         \x20 \"elementwise\": [\n{}\n  ],\n\
         \x20 \"elementwise_geomean_speedup\": {:.3},\n\
         \x20 \"campaign\": {{\n\
         \x20   \"model\": \"{}\",\n\
         \x20   \"dataset\": \"{}\",\n\
         \x20   \"layers\": [{}],\n\
         \x20   \"trials_per_layer\": {},\n\
         \x20   \"images\": {},\n\
         \x20   \"uncached_s\": {:.6},\n\
         \x20   \"prefix_cached_s\": {:.6},\n\
         \x20   \"fused_s\": {:.6},\n\
         \x20   \"planned_fused_s\": {:.6},\n\
         \x20   \"uncached_trials_per_s\": {:.2},\n\
         \x20   \"prefix_cached_trials_per_s\": {:.2},\n\
         \x20   \"fused_trials_per_s\": {:.2},\n\
         \x20   \"planned_fused_trials_per_s\": {:.2},\n\
         \x20   \"speedup\": {:.3},\n\
         \x20   \"fused_speedup\": {:.3},\n\
         \x20   \"planned_fused_vs_f32_fused\": {:.3},\n\
         \x20   \"int8_uncached_s\": {:.6},\n\
         \x20   \"int8_fused_s\": {:.6},\n\
         \x20   \"int8_planned_fused_s\": {:.6},\n\
         \x20   \"int8_fused_trials_per_s\": {:.2},\n\
         \x20   \"int8_planned_fused_trials_per_s\": {:.2},\n\
         \x20   \"int8_fused_vs_f32\": {:.3},\n\
         \x20   \"steady_state_allocs_per_trial\": {:.3},\n\
         \x20   \"fusion_width\": {},\n\
         \x20   \"prefix_hits\": {},\n\
         \x20   \"prefix_misses\": {},\n\
         \x20   \"prefix_skipped_flops\": {}\n\
         \x20 }}\n\
         }}\n",
        matmul_json.join(",\n"),
        geomean(matmul_rows.iter().map(|r| r.baseline_s / r.blocked_s)),
        packed_matmul_json.join(",\n"),
        geomean(packed_matmul_rows.iter().map(|r| r.unpacked_s / r.packed_s)),
        int8_matmul_json.join(",\n"),
        geomean(
            int8_matmul_rows
                .iter()
                .map(|r| r.portable_s / r.dispatched_s)
        ),
        int8_matmul_simd(),
        int8_conv_simd(),
        int8_conv_json.join(",\n"),
        geomean(int8_conv_rows.iter().map(|r| r.unplanned_s / r.planned_s)),
        elemwise_json.join(",\n"),
        geomean(elemwise_rows.iter().map(|r| r.scalar_s / r.kernel_s)),
        camp.model,
        camp.dataset,
        layers.join(", "),
        camp.trials_per_layer,
        camp.images,
        camp.uncached_s,
        camp.cached_s,
        camp.fused_s,
        camp.planned_fused_s,
        total_trials / camp.uncached_s,
        total_trials / camp.cached_s,
        total_trials / camp.fused_s,
        total_trials / camp.planned_fused_s,
        camp.uncached_s / camp.cached_s,
        camp.uncached_s / camp.fused_s,
        camp.fused_s / camp.planned_fused_s,
        camp.int8_uncached_s,
        camp.int8_fused_s,
        camp.int8_planned_fused_s,
        total_trials / camp.int8_fused_s,
        total_trials / camp.int8_planned_fused_s,
        camp.fused_s / camp.int8_fused_s,
        steady_state_allocs,
        camp.fusion_width,
        camp.hits,
        camp.misses,
        camp.skipped_flops,
    );
    std::fs::write(path, json).expect("write BENCH_campaign.json");
    println!("  wrote {path}");
}

fn bench_all(c: &mut Criterion) {
    let qm = QuickMode::from_env();
    let mut matmul_rows = Vec::new();
    bench_matmul_kernels(c, &mut matmul_rows);
    let mut packed_matmul_rows = Vec::new();
    bench_packed_matmul(c, &mut packed_matmul_rows);
    let mut int8_matmul_rows = Vec::new();
    bench_int8_matmul(c, &mut int8_matmul_rows);
    let mut int8_conv_rows = Vec::new();
    bench_int8_conv(c, &mut int8_conv_rows);
    let mut elemwise_rows = Vec::new();
    bench_elementwise(c, &mut elemwise_rows);
    let camp = bench_campaign(c, &qm);
    let steady_state_allocs = measure_steady_state_allocs();
    println!(
        "  steady-state forward allocations/pass (pool armed, single thread): \
         {steady_state_allocs:.3}"
    );
    write_json(
        &matmul_rows,
        &packed_matmul_rows,
        &int8_matmul_rows,
        &int8_conv_rows,
        &elemwise_rows,
        steady_state_allocs,
        &camp,
        &qm,
    );
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
