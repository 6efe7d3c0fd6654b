//! Kernel ceiling pass: the public GEMM kernels timed at the shapes a
//! workload's network runs, set against the best rate on a large square
//! GEMM.
//!
//! Every injectable layer is one GEMM `[m, k] x [k, n]` with the weights on
//! the left: a convolution has `m` = output channels, `k` = input channels
//! times kernel area and `n` = output pixels; a linear layer has `m` =
//! output features, `k` = input features and `n` = 1 (batch one, as in a
//! trial). Kernels run on one thread, as each campaign worker does.

use rustfi::ModelProfile;
use rustfi_tensor::{matmul_i8_nt, matmul_into, matmul_packed_a, Epilogue, PackedA, SeededRng};
use std::hint::black_box;
use std::time::Instant;

/// Minimum wall time spent timing one kernel at one shape.
const MIN_TIME_S: f64 = 0.02;

/// Square sizes tried for the ceiling.
const PEAK_DIMS: [usize; 4] = [64, 128, 192, 256];

/// Achieved kernel rates, in 10⁹ operations per second.
pub struct KernelRates {
    /// `matmul_into` over the workload's shapes.
    pub f32_gflops: f64,
    /// `matmul_packed_a` over the workload's shapes.
    pub f32_packed_gflops: f64,
    /// `matmul_i8_nt` over the workload's shapes.
    pub i8_gops: f64,
    /// Best f32 rate seen at any shape, the workload's or a square one.
    pub peak_gflops: f64,
}

/// The GEMM `(m, k, n)` of every injectable layer, in execution order.
pub fn gemm_shapes(profile: &ModelProfile) -> Vec<(usize, usize, usize)> {
    profile
        .layers()
        .iter()
        .map(|l| {
            let m = l.weight_dims[0];
            let k: usize = l.weight_dims[1..].iter().product();
            (m, k, l.output_dims[2] * l.output_dims[3])
        })
        .collect()
}

/// Seconds per call of `f`, timed over at least [`MIN_TIME_S`].
fn per_call(mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || start.elapsed().as_secs_f64() < MIN_TIME_S {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(calls)
}

/// Seconds per call of each kernel at `(m, k, n)`: `[f32, f32 packed, i8]`.
fn time_shape(m: usize, k: usize, n: usize, rng: &mut SeededRng) -> [f64; 3] {
    let a: Vec<f32> = (0..m * k).map(|_| rng.standard_normal()).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.standard_normal()).collect();
    let mut out = vec![0.0f32; m * n];
    let f32_s = per_call(|| matmul_into(black_box(&a), black_box(&b), &mut out, m, k, n, false));
    let pa = PackedA::pack(&a, m, k);
    let packed_s = per_call(|| {
        matmul_packed_a(
            black_box(&pa),
            black_box(&b),
            &mut out,
            n,
            &Epilogue::None,
            false,
        )
    });
    black_box(&out);
    let qa: Vec<i8> = a.iter().map(|v| (v * 40.0) as i8).collect();
    let qb: Vec<i8> = (0..n * k).map(|i| (b[i % b.len()] * 40.0) as i8).collect();
    let mut qout = vec![0i32; m * n];
    let i8_s = per_call(|| matmul_i8_nt(black_box(&qa), black_box(&qb), &mut qout, m, k, n));
    black_box(&qout);
    [f32_s, packed_s, i8_s]
}

/// Times the kernels at `shapes` (one forward's worth of GEMMs) and at the
/// square ceiling shapes.
pub fn measure(shapes: &[(usize, usize, usize)]) -> KernelRates {
    let mut rng = SeededRng::new(0x6E77);
    let mut unique: Vec<(usize, usize, usize)> = shapes.to_vec();
    unique.sort_unstable();
    unique.dedup();
    let mut secs = [0.0f64; 3];
    let mut ops = 0.0f64;
    let mut peak = 0.0f64;
    for &(m, k, n) in &unique {
        let uses = shapes.iter().filter(|&&s| s == (m, k, n)).count() as f64;
        let t = time_shape(m, k, n, &mut rng);
        for (total, t) in secs.iter_mut().zip(t) {
            *total += t * uses;
        }
        let flop = 2.0 * (m * k * n) as f64;
        ops += flop * uses;
        peak = peak.max(flop / t[0].min(t[1]));
    }
    for p in PEAK_DIMS {
        let t = time_shape(p, p, p, &mut rng);
        peak = peak.max(2.0 * (p * p * p) as f64 / t[0].min(t[1]));
    }
    KernelRates {
        f32_gflops: ops / secs[0] * 1e-9,
        f32_packed_gflops: ops / secs[1] * 1e-9,
        i8_gops: ops / secs[2] * 1e-9,
        peak_gflops: peak * 1e-9,
    }
}
