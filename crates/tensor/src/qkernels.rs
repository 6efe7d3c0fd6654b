//! Symmetric INT8 quantization primitives and integer microkernels.
//!
//! This module is the single home of the INT8 rounding rule for the whole
//! workspace: both the f32 *simulation* of quantization in `rustfi-quant`
//! (fake-quantize round trips) and the *real* stored-`i8` inference path
//! ([`QTensor`](crate::QTensor), [`conv2d_q`](crate::conv2d_q)) funnel every
//! float→int conversion through [`quantize_one`], so the two paths produce
//! bit-identical quantized words by construction.
//!
//! The scheme is symmetric quantization with the zero point fixed at 0 and
//! the representable range `[-127, 127]` (`-128` is left unused, as common
//! INT8 inference kernels do):
//!
//! ```text
//! scale = max|x| / 127        q = clamp(round(x / scale), -127, 127)
//! ```
//!
//! **Rounding semantics** (see [`quantize_one`]): `f32::round` — ties round
//! half *away from zero* (2.5 → 3, -2.5 → -3). NaN quantizes to 0 through
//! Rust's saturating float→int cast, and ±∞ saturates to ±127, so faulty
//! activations stay representable.
//!
//! The slice kernels use the same runtime-dispatch trio as the elementwise
//! tail (`simd_kernel!`), except [`quantize_slice`], whose rounding needs a
//! hand-vectorized AVX2 body; the planned convolution's plane prologue
//! shares that vector rounding rule. [`matmul_i8_nt`] follows the `linalg`
//! `block_rows` pattern with a hand-vectorized AVX2 body: `i8` operands are
//! widened to `i16` lanes and accumulated with `pmaddwd` into `i32`. The
//! planned convolution's implicit GEMM computes blocks of 16 output
//! channels (or, in groups of at most 8, 8 channels with two reduction
//! pairs per vector) as outer products with tiles of output pixels read
//! from a channels-last input plane, dequantizes each tile as it stores it,
//! and picks its body at run time: AVX-512 VNNI (`vpdpwssd`), AVX2
//! (`pmaddwd` + `paddd`) or portable ([`int8_conv_simd`] names the one in
//! use). Integer arithmetic is exact, so every SIMD body is bit-identical
//! to its portable twin regardless of accumulation order.
//!
//! The SIMD bodies are plain indexed loops over arrays of vectors, with no
//! closure around an intrinsic: a closure the compiler does not inline is
//! compiled without the caller's target features, so every intrinsic in it
//! becomes an out-of-line call (CI fails the build if one appears).

use crate::kernels::simd_kernel;
#[cfg(doc)]
use crate::pack::PackedConvI16;
use crate::pack::{Act, BnFoldView, CONV_LANES};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Largest representable quantized magnitude.
pub const QMAX: i32 = 127;

/// Minimum scale used to avoid division by zero for all-zero tensors.
const MIN_SCALE: f32 = 1e-12;

/// Quantization scale that maps `max_abs` to [`QMAX`].
///
/// A non-finite `max_abs` (which arises when quantizing activations that an
/// upstream fault has driven to ±∞) saturates to the largest finite range,
/// mirroring hardware that clamps at the representable maximum.
///
/// # Panics
///
/// Panics if `max_abs` is negative or NaN.
pub fn scale_for_max_abs(max_abs: f32) -> f32 {
    assert!(
        !max_abs.is_nan() && max_abs >= 0.0,
        "invalid max_abs {max_abs}"
    );
    if max_abs.is_infinite() {
        return f32::MAX / QMAX as f32;
    }
    (max_abs / QMAX as f32).max(MIN_SCALE)
}

/// Largest finite absolute value in `values`, ignoring non-finite elements
/// (possible under upstream fault injection); 0 for an all-non-finite slice.
///
/// Under AVX2 four vectors of running maxima take 32 elements at a time. A
/// maximum over finite values is exact in any order, so every path returns
/// the scalar fold's bits.
pub fn slice_max_abs_finite(values: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: reached only after runtime detection confirms AVX2.
        return unsafe { max_abs_finite_avx2(values) };
    }
    max_abs_finite_scalar(values)
}

fn max_abs_finite_scalar(values: &[f32]) -> f32 {
    values
        .iter()
        .filter(|v| v.is_finite())
        .fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// [`slice_max_abs_finite`]'s AVX2 body: `|x|` masked to 0 where it is not
/// below +∞ (±∞ and NaN), folded into four independent running maxima.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn max_abs_finite_avx2(values: &[f32]) -> f32 {
    const ACC: usize = 4;
    let n = values.len() - values.len() % (8 * ACC);
    let (sign, inf) = (_mm256_set1_ps(-0.0), _mm256_set1_ps(f32::INFINITY));
    let mut m = [_mm256_setzero_ps(); ACC];
    for i in (0..n).step_by(8 * ACC) {
        for (k, m) in m.iter_mut().enumerate() {
            // SAFETY: `i + 8 * k + 8 <= n <= values.len()`.
            let a = _mm256_andnot_ps(sign, _mm256_loadu_ps(values.as_ptr().add(i + 8 * k)));
            let finite = _mm256_and_ps(a, _mm256_cmp_ps::<_CMP_LT_OQ>(a, inf));
            *m = _mm256_max_ps(*m, finite);
        }
    }
    let v = _mm256_max_ps(_mm256_max_ps(m[0], m[1]), _mm256_max_ps(m[2], m[3]));
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), v);
    lanes
        .into_iter()
        .fold(max_abs_finite_scalar(&values[n..]), f32::max)
}

/// The one float→INT8 conversion in the workspace. `f32::round` ties round
/// half away from zero; the clamp runs in f32 so ±∞ saturates to ±127 and
/// NaN falls through to the saturating cast, which maps it to 0.
#[inline(always)]
fn quantize_raw(x: f32, scale: f32) -> i8 {
    (x / scale).round().clamp(-(QMAX as f32), QMAX as f32) as i8
}

/// Quantizes a value to INT8 with the given scale. See the module docs for
/// the rounding semantics.
///
/// # Panics
///
/// Panics if `scale` is not positive.
#[inline]
pub fn quantize_one(x: f32, scale: f32) -> i8 {
    assert!(scale > 0.0, "scale must be positive, got {scale}");
    quantize_raw(x, scale)
}

/// Dequantizes an INT8 value.
#[inline]
pub fn dequantize_one(q: i8, scale: f32) -> f32 {
    q as f32 * scale
}

/// Quantizes a slice: `dst[i] = quantize_one(src[i], scale)`.
///
/// Hand-vectorized under AVX2: `f32::round` has no vector lowering (it
/// compiles to a scalar `roundf` call per element), so the AVX2 body
/// rebuilds it from a truncation and stays bit-identical to the scalar
/// rule.
///
/// # Panics
///
/// Panics on length mismatch or a non-positive scale.
pub fn quantize_slice(src: &[f32], scale: f32, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len());
    assert!(scale > 0.0, "scale must be positive, got {scale}");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: reached only after runtime detection confirms AVX2; the
        // lengths are asserted equal above.
        unsafe { quantize_slice_avx2(src, scale, dst) };
        return;
    }
    quantize_slice_impl(src, scale, dst);
}

fn quantize_slice_impl(src: &[f32], scale: f32, dst: &mut [i8]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = quantize_raw(x, scale);
    }
}

/// Eight lanes of [`quantize_raw`] at a time through [`Quantize8`].
///
/// # Safety
///
/// The CPU must support AVX2, and `dst` must be at least as long as `src`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_slice_avx2(src: &[f32], scale: f32, dst: &mut [i8]) {
    let n8 = src.len() - src.len() % 8;
    let q = Quantize8::new(scale);
    for i in (0..n8).step_by(8) {
        let w = q.words(_mm256_loadu_ps(src.as_ptr().add(i)));
        let q16 = _mm_packs_epi32(_mm256_castsi256_si128(w), _mm256_extracti128_si256::<1>(w));
        _mm_storel_epi64(
            dst.as_mut_ptr().add(i) as *mut __m128i,
            _mm_packs_epi16(q16, q16),
        );
    }
    quantize_slice_impl(&src[n8..], scale, &mut dst[n8..]);
}

/// The AVX2 form of [`quantize_raw`], eight lanes at a time: the one vector
/// rounding rule, shared by [`quantize_slice`] and [`quantize_plane`].
///
/// With `v = x / scale` (the same IEEE division) and `t = trunc(v)`, `v - t`
/// is exact, so `t + copysign(1, v)` where `|v - t| >= 0.5`, else `t`, is
/// exactly `v.round()` (ties away from zero) for every finite `v`. ±∞ keeps
/// `t = ±∞` (its `v - t` is NaN, which fails the compare) and clamps to
/// ±127; NaN lanes are zeroed, matching the saturating cast.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Quantize8 {
    scale: __m256,
    sign: __m256,
    half: __m256,
    one: __m256,
    lo: __m256,
    hi: __m256,
}

#[cfg(target_arch = "x86_64")]
impl Quantize8 {
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline(always)]
    unsafe fn new(scale: f32) -> Self {
        Self {
            scale: _mm256_set1_ps(scale),
            sign: _mm256_set1_ps(-0.0),
            half: _mm256_set1_ps(0.5),
            one: _mm256_set1_ps(1.0),
            lo: _mm256_set1_ps(-(QMAX as f32)),
            hi: _mm256_set1_ps(QMAX as f32),
        }
    }

    /// The quantized words of `x`'s eight lanes, as `i32` lanes.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline(always)]
    unsafe fn words(self, x: __m256) -> __m256i {
        let v = _mm256_div_ps(x, self.scale);
        let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(v);
        let frac = _mm256_andnot_ps(self.sign, _mm256_sub_ps(v, t));
        let away = _mm256_or_ps(self.one, _mm256_and_ps(self.sign, v));
        let r = _mm256_add_ps(
            t,
            _mm256_and_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(frac, self.half), away),
        );
        let r = _mm256_and_ps(r, _mm256_cmp_ps::<_CMP_ORD_Q>(v, v));
        _mm256_cvttps_epi32(_mm256_min_ps(_mm256_max_ps(r, self.lo), self.hi))
    }
}

simd_kernel! {
    /// Dequantizes a slice: `dst[i] = src[i] as f32 * scale`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    dequantize_slice / dequantize_slice_avx2 / dequantize_slice_impl,
    (src: &[i8], scale: f32, dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len());
        for (d, &q) in dst.iter_mut().zip(src) {
            *d = q as f32 * scale;
        }
    }
}

simd_kernel! {
    /// Requantizes stored words onto a new grid:
    /// `dst[i] = quantize(dequantize(src[i], s_in), s_out)`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or a non-positive output scale.
    requantize_slice / requantize_slice_avx2 / requantize_slice_impl,
    (src: &[i8], s_in: f32, s_out: f32, dst: &mut [i8]) {
        assert_eq!(src.len(), dst.len());
        assert!(s_out > 0.0, "scale must be positive, got {s_out}");
        for (d, &q) in dst.iter_mut().zip(src) {
            *d = quantize_raw(q as f32 * s_in, s_out);
        }
    }
}

simd_kernel! {
    /// Dequantizes one integer GEMM output row with a scalar combined scale:
    /// `out[i] = acc[i] as f32 * scale + bias`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    dequant_bias_row / dequant_bias_row_avx2 / dequant_bias_row_impl,
    (acc: &[i32], scale: f32, bias: f32, out: &mut [f32]) {
        assert_eq!(acc.len(), out.len());
        for (o, &s) in out.iter_mut().zip(acc) {
            *o = s as f32 * scale + bias;
        }
    }
}

simd_kernel! {
    /// Dequantizes integer GEMM output rows of a `[rows, w_scales.len()]`
    /// matrix with per-column weight scales:
    /// `out[r][j] = acc[r][j] as f32 * (in_scale * w_scales[j]) + bias[j]`.
    ///
    /// # Panics
    ///
    /// Panics if lengths are inconsistent with the column count.
    dequant_bias_rows / dequant_bias_rows_avx2 / dequant_bias_rows_impl,
    (acc: &[i32], in_scale: f32, w_scales: &[f32], bias: &[f32], out: &mut [f32]) {
        let cols = w_scales.len().max(1);
        assert_eq!(acc.len(), out.len());
        assert_eq!(acc.len() % cols, 0);
        assert_eq!(bias.len(), w_scales.len());
        for (acc_row, out_row) in acc.chunks_exact(cols).zip(out.chunks_exact_mut(cols)) {
            for (((o, &s), &ws), &b) in out_row
                .iter_mut()
                .zip(acc_row)
                .zip(w_scales)
                .zip(bias)
            {
                *o = s as f32 * (in_scale * ws) + b;
            }
        }
    }
}

/// Multiplies `a [m, k] x b^T` for a row-major `b [n, k]` into `out [m, n]`
/// of `i32` accumulators ("nt": the right operand is stored transposed, so
/// both operands stream contiguously along `k`).
///
/// Every output element is an exact integer dot product — `i8` products fit
/// `i16`, the `i32` accumulator cannot overflow for `k` below the asserted
/// bound — so the AVX2 and portable compilations are bit-identical no matter
/// how the accumulation is reordered.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m`, `k`, `n`, or if `k` is
/// large enough that `k * 127 * 127` could overflow `i32`.
pub fn matmul_i8_nt(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    crate::opcount::count_matmul_i8();
    assert_eq!(a.len(), m * k, "lhs length != m*k");
    assert_eq!(b.len(), n * k, "rhs length != n*k");
    assert_eq!(out.len(), m * n, "out length != m*n");
    assert!(
        k <= i32::MAX as usize / (QMAX * QMAX) as usize,
        "k={k} could overflow the i32 accumulator"
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 kernel is only reached after runtime detection
        // confirms the CPU supports it.
        unsafe { matmul_i8_nt_avx2(a, b, out, m, k, n) };
        return;
    }
    matmul_i8_nt_impl(a, b, out, m, k, n);
}

/// The portable integer GEMM, exposed for benchmarks and the bit-identity
/// tests that pin the dispatched kernel to it. Same argument contract as
/// [`matmul_i8_nt`].
///
/// # Panics
///
/// Panics under the same conditions as [`matmul_i8_nt`].
pub fn matmul_i8_nt_portable(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs length != m*k");
    assert_eq!(b.len(), n * k, "rhs length != n*k");
    assert_eq!(out.len(), m * n, "out length != m*n");
    assert!(
        k <= i32::MAX as usize / (QMAX * QMAX) as usize,
        "k={k} could overflow the i32 accumulator"
    );
    matmul_i8_nt_impl(a, b, out, m, k, n);
}

#[inline(always)]
fn matmul_i8_nt_impl(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0i32;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x as i32 * y as i32;
            }
            out[i * n + j] = acc;
        }
    }
}

/// Hand-vectorized AVX2 integer GEMM: 16 `i8` pairs are widened to `i16`
/// lanes and folded with `pmaddwd` into 8 `i32` partial sums; four `b` rows
/// share each widened `a` segment so the accumulators stay in registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_i8_nt_avx2(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    /// 16 `i8`s at `p`, sign-extended into 16 `i16` lanes.
    #[inline(always)]
    unsafe fn widen16(p: *const i8) -> __m256i {
        _mm256_cvtepi8_epi16(_mm_loadu_si128(p as *const __m128i))
    }

    /// Sum of the 8 `i32` lanes.
    #[inline(always)]
    unsafe fn hsum(v: __m256i) -> i32 {
        let s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b01_00_11_10>(s));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b00_00_00_01>(s));
        _mm_cvtsi128_si32(s)
    }

    let kv = k - (k % 16);
    for i in 0..m {
        let a_ptr = a.as_ptr().add(i * k);
        let mut j = 0;
        // Full 4-column tiles: one widened `a` segment feeds four dot rows.
        while j + 4 <= n {
            let b0 = b.as_ptr().add(j * k);
            let b1 = b.as_ptr().add((j + 1) * k);
            let b2 = b.as_ptr().add((j + 2) * k);
            let b3 = b.as_ptr().add((j + 3) * k);
            let mut acc0 = _mm256_setzero_si256();
            let mut acc1 = _mm256_setzero_si256();
            let mut acc2 = _mm256_setzero_si256();
            let mut acc3 = _mm256_setzero_si256();
            let mut kk = 0;
            while kk < kv {
                let va = widen16(a_ptr.add(kk));
                acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(va, widen16(b0.add(kk))));
                acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(va, widen16(b1.add(kk))));
                acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(va, widen16(b2.add(kk))));
                acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(va, widen16(b3.add(kk))));
                kk += 16;
            }
            let mut sums = [hsum(acc0), hsum(acc1), hsum(acc2), hsum(acc3)];
            for kk in kv..k {
                let x = *a_ptr.add(kk) as i32;
                sums[0] += x * *b0.add(kk) as i32;
                sums[1] += x * *b1.add(kk) as i32;
                sums[2] += x * *b2.add(kk) as i32;
                sums[3] += x * *b3.add(kk) as i32;
            }
            out[i * n + j..i * n + j + 4].copy_from_slice(&sums);
            j += 4;
        }
        // Remainder columns: one dot row at a time.
        while j < n {
            let b_ptr = b.as_ptr().add(j * k);
            let mut acc = _mm256_setzero_si256();
            let mut kk = 0;
            while kk < kv {
                acc = _mm256_add_epi32(
                    acc,
                    _mm256_madd_epi16(widen16(a_ptr.add(kk)), widen16(b_ptr.add(kk))),
                );
                kk += 16;
            }
            let mut sum = hsum(acc);
            for kk in kv..k {
                sum += *a_ptr.add(kk) as i32 * *b_ptr.add(kk) as i32;
            }
            out[i * n + j] = sum;
            j += 1;
        }
    }
}

/// One sample's zero-padded, channels-last `i16` input plane: `groups`
/// regions of `[h + 2·pad][w + 2·pad][cg]` words back to back, so within a
/// group the `kw` pixels one kernel row covers are one contiguous `(kx, c)`
/// run for any stride.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InputPlane {
    /// Channel groups, one region each.
    pub groups: usize,
    /// Channels per group.
    pub cg: usize,
    /// Input rows.
    pub h: usize,
    /// Input columns.
    pub w: usize,
    /// Zero padding on every side.
    pub pad: usize,
}

impl InputPlane {
    /// Region width in pixels, padding included.
    pub fn wp(&self) -> usize {
        self.w + 2 * self.pad
    }

    /// Words per group region.
    pub fn group_len(&self) -> usize {
        (self.h + 2 * self.pad) * self.wp() * self.cg
    }

    /// Region offset of input pixel `(y, x)`'s first channel.
    #[inline(always)]
    fn word(&self, y: usize, x: usize) -> usize {
        ((y + self.pad) * self.wp() + self.pad + x) * self.cg
    }
}

/// Quantizes one sample's f32 NCHW input `src` (`groups · cg` channels of
/// `h × w`) against the static `scale` straight into its [`InputPlane`]:
/// every interior word is [`quantize_one`] of its input, and every other
/// word of `plane` (the borders, and the tail past the last region that a
/// kernel row's pad lane may reach) is zero. Each input is read once and
/// each word written once.
///
/// Every body but the portable one takes the AVX2 path: per 8 pixels, each
/// whole block of 8 channels is quantized by [`Quantize8`], transposed in
/// registers and stored as one 8-channel run per pixel; the channels past
/// the last whole block are quantized the same way and scattered one word
/// at a time.
///
/// # Panics
///
/// Panics if `src` is not the layout's input, `plane` is shorter than its
/// regions, `scale` is not positive, or the CPU does not support `body`.
pub(crate) fn quantize_plane(
    body: ConvBody,
    src: &[f32],
    scale: f32,
    lay: &InputPlane,
    plane: &mut [i16],
) {
    let (cg, hw, glen) = (lay.cg, lay.h * lay.w, lay.group_len());
    assert_eq!(src.len(), lay.groups * cg * hw, "input length");
    assert!(plane.len() >= lay.groups * glen, "plane too short");
    assert!(scale > 0.0, "scale must be positive, got {scale}");
    assert!(body.supported(), "{body:?} is not supported on this CPU");
    zero_borders(lay, plane);
    for g in 0..lay.groups {
        let fms = &src[g * cg * hw..][..cg * hw];
        let region = &mut plane[g * glen..][..glen];
        match body {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: both SIMD bodies are supported only where AVX2 is.
            ConvBody::Avx512Vnni | ConvBody::Avx2 => unsafe {
                quantize_region_avx2(fms, scale, lay, region)
            },
            _ => quantize_region_portable(fms, scale, lay, region),
        }
    }
}

/// Zeroes every word of `plane` that no input lands on: each region's
/// border rows and columns (a row's right pad and the next row's left pad
/// are one run), and the tail past the last region.
fn zero_borders(lay: &InputPlane, plane: &mut [i16]) {
    let glen = lay.group_len();
    for g in 0..lay.groups {
        let region = &mut plane[g * glen..][..glen];
        let mut start = 0;
        for y in 0..lay.h {
            region[start..lay.word(y, 0)].fill(0);
            start = lay.word(y, lay.w);
        }
        region[start..].fill(0);
    }
    plane[lay.groups * glen..].fill(0);
}

/// [`quantize_plane`]'s portable path over one group's region.
fn quantize_region_portable(fms: &[f32], scale: f32, lay: &InputPlane, region: &mut [i16]) {
    let hw = lay.h * lay.w;
    for c in 0..lay.cg {
        for y in 0..lay.h {
            let at = lay.word(y, 0) + c;
            let row = &fms[c * hw + y * lay.w..][..lay.w];
            for (x, &v) in row.iter().enumerate() {
                region[at + x * lay.cg] = quantize_raw(v, scale) as i16;
            }
        }
    }
}

/// [`quantize_plane`]'s AVX2 path over one group's region.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// Index loops name the 8×8 tile's (channel, pixel) cells.
#[allow(clippy::needless_range_loop)]
unsafe fn quantize_region_avx2(fms: &[f32], scale: f32, lay: &InputPlane, region: &mut [i16]) {
    let (cg, hw) = (lay.cg, lay.h * lay.w);
    assert_eq!(fms.len(), cg * hw, "input length");
    assert!(region.len() >= lay.group_len(), "region too short");
    let (cg8, hw8) = (cg - cg % 8, hw - hw % 8);
    let q = Quantize8::new(scale);
    let (src, dst) = (fms.as_ptr(), region.as_mut_ptr());
    let mut walk = PixelWalk::new(lay);
    for i0 in (0..hw8).step_by(8) {
        let mut px = [0usize; 8];
        for p in &mut px {
            *p = walk.advance();
        }
        // SAFETY (reads and writes below): channel `c < cg` of pixel
        // `i0 + j < hw` is input word `c * hw + i0 + j < fms.len()` and
        // region word `px[j] + c < region.len()`, as asserted above; each
        // access covers 8 such pixels (reads) or channels (writes).
        for c0 in (0..cg8).step_by(8) {
            let mut v = [_mm256_setzero_si256(); 8];
            for k in 0..8 {
                v[k] = q.words(_mm256_loadu_ps(src.add((c0 + k) * hw + i0)));
            }
            let t = transpose_8x8_i16(&v);
            for j in 0..8 {
                _mm_storeu_si128(dst.add(px[j] + c0) as *mut __m128i, t[j]);
            }
        }
        for c in cg8..cg {
            let mut words = [0i32; 8];
            let v = q.words(_mm256_loadu_ps(src.add(c * hw + i0)));
            _mm256_storeu_si256(words.as_mut_ptr() as *mut __m256i, v);
            for j in 0..8 {
                *dst.add(px[j] + c) = words[j] as i16;
            }
        }
    }
    for i in hw8..hw {
        let at = walk.advance();
        for c in 0..cg {
            region[at + c] = quantize_raw(fms[c * hw + i], scale) as i16;
        }
    }
}

/// The region words of an input's pixels in row-major order (channel 0 of
/// each), stepped rather than multiplied out: a row's end skips the right
/// and the next left pad.
#[cfg(target_arch = "x86_64")]
struct PixelWalk {
    at: usize,
    x: usize,
    w: usize,
    cg: usize,
    skip: usize,
}

#[cfg(target_arch = "x86_64")]
impl PixelWalk {
    fn new(lay: &InputPlane) -> Self {
        Self {
            at: lay.word(0, 0),
            x: 0,
            w: lay.w,
            cg: lay.cg,
            skip: 2 * lay.pad * lay.cg,
        }
    }

    /// The next pixel's word.
    #[inline(always)]
    fn advance(&mut self) -> usize {
        let at = self.at;
        self.at += self.cg;
        self.x += 1;
        if self.x == self.w {
            self.at += self.skip;
            self.x = 0;
        }
        at
    }
}

/// Transposes 8 vectors of 8 `i32` words (one per channel, lane `j` for
/// pixel `j`) into 8 runs of 8 `i16` words (one per pixel, word `k` for
/// channel `k`). Unpacks gather four channels of pixels `q` and `q + 4` in
/// each 128-bit lane; one saturating pack (a no-op on words in ±127) then
/// joins the two channel halves.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose_8x8_i16(v: &[__m256i; 8]) -> [__m128i; 8] {
    // t[2m], t[2m+1]: channels 2m and 2m+1 of pixels (0, 1, 4, 5) and
    // (2, 3, 6, 7), interleaved.
    let mut t = [_mm256_setzero_si256(); 8];
    for m in 0..4 {
        t[2 * m] = _mm256_unpacklo_epi32(v[2 * m], v[2 * m + 1]);
        t[2 * m + 1] = _mm256_unpackhi_epi32(v[2 * m], v[2 * m + 1]);
    }
    let mut out = [_mm_setzero_si128(); 8];
    for q in 0..4 {
        let (a, b) = (q / 2, q / 2 + 2);
        // Channels 0–3 and 4–7 of pixel q (low lane) and q + 4 (high lane).
        let (lo, hi) = if q % 2 == 0 {
            (
                _mm256_unpacklo_epi64(t[a], t[b]),
                _mm256_unpacklo_epi64(t[4 + a], t[4 + b]),
            )
        } else {
            (
                _mm256_unpackhi_epi64(t[a], t[b]),
                _mm256_unpackhi_epi64(t[4 + a], t[4 + b]),
            )
        };
        let p = _mm256_packs_epi32(lo, hi);
        out[q] = _mm256_castsi256_si128(p);
        out[q + 4] = _mm256_extracti128_si256::<1>(p);
    }
    out
}

/// Geometry of one implicit-GEMM convolution over a zero-padded,
/// channels-last `i16` input plane (see [`conv_i16_implicit`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlaneConv {
    /// Plane width in pixels, padding included.
    pub wp: usize,
    /// Channels per plane pixel.
    pub cg: usize,
    /// Convolution stride.
    pub stride: usize,
    /// Kernel rows.
    pub kh: usize,
    /// Kernel columns.
    pub kw: usize,
    /// Lanes per kernel-row segment ([`PackedConvI16::seg`]): `kw * cg`
    /// rounded up to a multiple of `2 * pairs`.
    pub seg: usize,
    /// K-pairs each weight vector carries per output channel
    /// ([`PackedConvI16::pairs`]): 1, or 2 for a group of at most 8.
    pub pairs: usize,
    /// Output rows.
    pub oh: usize,
    /// Output columns.
    pub ow: usize,
}

impl PlaneConv {
    /// Plane offset of output pixel `p`'s top-left input word: padding is in
    /// the plane, so every kernel row's `(kx, c)` run starts here plus
    /// `ky * wp * cg` and is contiguous for any stride.
    #[inline(always)]
    fn base(&self, p: usize) -> usize {
        ((p / self.ow) * self.wp + p % self.ow) * self.stride * self.cg
    }

    /// Plane words the kernel may read: the last pixel's last segment,
    /// including the pad lane past its run (the panel holds zeros there).
    pub fn plane_reach(&self) -> usize {
        self.base(self.oh * self.ow - 1) + (self.kh - 1) * self.wp * self.cg + self.seg
    }

    /// Panel words of one block: 16 output channels, or 8 with two k-pairs
    /// per vector; either way `kh * seg / (2 * pairs)` vectors of 32 words.
    fn block_len(&self) -> usize {
        self.kh * self.seg * CONV_LANES / self.pairs
    }
}

/// What a planned INT8 conv body applies to each output channel's exact
/// sum `s` as it stores it, in the serial chain's per-element op order:
/// `s as f32 * scale + bias` with `scale = input_scale * w_scale` (the
/// expression and the scale of [`conv2d_q`](crate::conv2d_q)'s
/// [`dequant_bias_row`]), then the folded batch-norm `gamma * ((v - mean) *
/// inv_std) + beta`, then the activation.
///
/// Without a batch-norm the bodies apply the identity fold `mean = 0`,
/// `inv_std = gamma = 1`, `beta = -0.0`, which returns every `f32` bit for
/// bit (`v - 0`, `v * 1` and `v + -0.0` are exact, signed zeros and NaN
/// payloads included), so the formula has no branch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QEpilogue<'a> {
    /// The static input scale.
    pub input_scale: f32,
    /// Weight scales, one per output channel or one for all of them (as
    /// [`QTensor::scales`](crate::QTensor::scales)).
    pub w_scales: &'a [f32],
    /// Bias per output channel.
    pub bias: &'a [f32],
    /// Folded batch-norm constants per output channel.
    pub bn: Option<BnFoldView<'a>>,
    /// The activation, applied last.
    pub act: Act,
    /// Output channel of the body's row 0 (the group's first).
    pub row0: usize,
}

/// [`QEpilogue`]'s constants for one output channel (`T = f32`), for the
/// lanes of one block of [`CONV_LANES`] channels (`[f32; CONV_LANES]`), or
/// for a vector of those lanes.
#[derive(Debug, Clone, Copy)]
struct EpiConsts<T> {
    scale: T,
    bias: T,
    mean: T,
    inv_std: T,
    gamma: T,
    beta: T,
    act: Act,
}

impl QEpilogue<'_> {
    /// Row `r`'s constants.
    #[inline(always)]
    fn row(&self, r: usize) -> EpiConsts<f32> {
        let c = self.row0 + r;
        let w_scale = self.w_scales[if self.w_scales.len() == 1 { 0 } else { c }];
        let (mean, inv_std, gamma, beta) = match self.bn {
            Some(f) => (f.mean[c], f.inv_std[c], f.gamma[c], f.beta[c]),
            None => (0.0, 1.0, 1.0, -0.0),
        };
        EpiConsts {
            scale: self.input_scale * w_scale,
            bias: self.bias[c],
            mean,
            inv_std,
            gamma,
            beta,
            act: self.act,
        }
    }

    /// The constants of rows `r0..r0 + rows`, row `r0 + r` in lane
    /// `r * stride`; every other lane is zero, and a body never stores its
    /// results.
    #[cfg(target_arch = "x86_64")]
    fn lanes(&self, r0: usize, rows: usize, stride: usize) -> EpiConsts<[f32; CONV_LANES]> {
        let z = [0.0; CONV_LANES];
        let mut l = EpiConsts {
            scale: z,
            bias: z,
            mean: z,
            inv_std: z,
            gamma: z,
            beta: z,
            act: self.act,
        };
        for r in 0..rows {
            let (k, at) = (self.row(r0 + r), r * stride);
            l.scale[at] = k.scale;
            l.bias[at] = k.bias;
            l.mean[at] = k.mean;
            l.inv_std[at] = k.inv_std;
            l.gamma[at] = k.gamma;
            l.beta[at] = k.beta;
        }
        l
    }
}

impl EpiConsts<f32> {
    /// The epilogue of one sum: the formula every vector form reproduces
    /// lane by lane.
    #[inline(always)]
    fn apply(&self, s: i32) -> f32 {
        let v = s as f32 * self.scale + self.bias;
        self.act
            .apply(self.gamma * ((v - self.mean) * self.inv_std) + self.beta)
    }
}

#[cfg(target_arch = "x86_64")]
impl EpiConsts<[f32; CONV_LANES]> {
    /// All 16 lanes as AVX-512 vectors.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[inline(always)]
    unsafe fn zmm(&self) -> EpiConsts<__m512> {
        EpiConsts {
            scale: _mm512_loadu_ps(self.scale.as_ptr()),
            bias: _mm512_loadu_ps(self.bias.as_ptr()),
            mean: _mm512_loadu_ps(self.mean.as_ptr()),
            inv_std: _mm512_loadu_ps(self.inv_std.as_ptr()),
            gamma: _mm512_loadu_ps(self.gamma.as_ptr()),
            beta: _mm512_loadu_ps(self.beta.as_ptr()),
            act: self.act,
        }
    }

    /// Lanes `8 * half..8 * half + 8` as AVX2 vectors.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline(always)]
    unsafe fn ymm(&self, half: usize) -> EpiConsts<__m256> {
        let at = 8 * half;
        EpiConsts {
            scale: _mm256_loadu_ps(self.scale[at..][..8].as_ptr()),
            bias: _mm256_loadu_ps(self.bias[at..][..8].as_ptr()),
            mean: _mm256_loadu_ps(self.mean[at..][..8].as_ptr()),
            inv_std: _mm256_loadu_ps(self.inv_std[at..][..8].as_ptr()),
            gamma: _mm256_loadu_ps(self.gamma[at..][..8].as_ptr()),
            beta: _mm256_loadu_ps(self.beta[at..][..8].as_ptr()),
            act: self.act,
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl EpiConsts<__m512> {
    /// Dequantize, bias and batch-norm of 16 channel lanes: the affine part
    /// of [`EpiConsts::<f32>::apply`], lane by lane.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[inline(always)]
    unsafe fn affine(&self, s: __m512i) -> __m512 {
        let v = _mm512_add_ps(_mm512_mul_ps(_mm512_cvtepi32_ps(s), self.scale), self.bias);
        let n = _mm512_mul_ps(_mm512_sub_ps(v, self.mean), self.inv_std);
        _mm512_add_ps(_mm512_mul_ps(self.gamma, n), self.beta)
    }

    /// The activation over every vector of `v`, with one branch for all of
    /// them. `vmaxps` returns its second operand for a NaN or an equal
    /// pair, so `max(v, 0)` is `f32::max`'s lowering, `-0.0` included.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[inline(always)]
    unsafe fn activate(&self, v: &mut [__m512]) {
        let zero = _mm512_setzero_ps();
        match self.act {
            Act::None => {}
            Act::Relu => {
                for v in v {
                    *v = _mm512_max_ps(*v, zero);
                }
            }
            Act::LeakyRelu(slope) => {
                let slope = _mm512_set1_ps(slope);
                for v in v {
                    let neg = _mm512_cmp_ps_mask::<_CMP_LE_OQ>(*v, zero);
                    *v = _mm512_mask_mul_ps(*v, neg, slope, *v);
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl EpiConsts<__m256> {
    /// [`EpiConsts::<__m512>::affine`] on 8 channel lanes.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline(always)]
    unsafe fn affine(&self, s: __m256i) -> __m256 {
        let v = _mm256_add_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(s), self.scale), self.bias);
        let n = _mm256_mul_ps(_mm256_sub_ps(v, self.mean), self.inv_std);
        _mm256_add_ps(_mm256_mul_ps(self.gamma, n), self.beta)
    }

    /// [`EpiConsts::<__m512>::activate`] on 8-lane vectors.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline(always)]
    unsafe fn activate(&self, v: &mut [__m256]) {
        let zero = _mm256_setzero_ps();
        match self.act {
            Act::None => {}
            Act::Relu => {
                for v in v {
                    *v = _mm256_max_ps(*v, zero);
                }
            }
            Act::LeakyRelu(slope) => {
                let slope = _mm256_set1_ps(slope);
                for v in v {
                    let neg = _mm256_cmp_ps::<_CMP_LE_OQ>(*v, zero);
                    *v = _mm256_blendv_ps(*v, _mm256_mul_ps(slope, *v), neg);
                }
            }
        }
    }
}

/// The bodies of [`conv_i16_implicit`]. All three walk the same
/// [`PackedConvI16`] layouts, compute the same exact integer sums and apply
/// the same epilogue formula. The planned f32 conv
/// ([`conv2d_planned`](crate::conv2d_planned)) picks its body through the
/// same dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConvBody {
    /// `vpdpwssd` into one 16-lane `zmm` accumulator per block and pixel:
    /// in groups of more than 16 channels, tiles of two blocks × 8 pixels
    /// share each broadcast input pair (an odd last block runs alone); in
    /// groups of at most 8, each channel's lane pair carries two k-pairs. (The f32 conv: `vmulps` +
    /// `vaddps`, which need only AVX-512F, on 16-pixel tiles, and the AVX2
    /// body's 8-lane tiles for a block of at most 8 channels.)
    Avx512Vnni,
    /// `vpmaddwd` + `vpaddd` into two 8-lane `ymm` halves per pixel: 8
    /// channels each, or 4 channels × two k-pairs in groups of at most 8,
    /// or the low half alone for a partial block of at most 8 channels.
    /// (The f32 conv: `vmulps` + `vaddps`, two halves, or the low half
    /// alone for a block of at most 8 channels.)
    Avx2,
    /// Plain loops: the reference the SIMD bodies are tested against.
    Portable,
}

impl ConvBody {
    /// Every body, fastest first.
    pub(crate) const ALL: [ConvBody; 3] = [Self::Avx512Vnni, Self::Avx2, Self::Portable];

    /// Whether this CPU can run the body (with [`quantize_plane`]'s path
    /// for it: AVX2 for either SIMD body).
    pub(crate) fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            match self {
                Self::Avx512Vnni => has!("avx2") && has!("avx512f") && has!("avx512vnni"),
                Self::Avx2 => has!("avx2"),
                Self::Portable => true,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Self::Portable
        }
    }

    /// The fastest body this CPU supports.
    pub(crate) fn detect() -> Self {
        Self::ALL
            .into_iter()
            .find(|b| b.supported())
            .expect("the portable body runs anywhere")
    }
}

/// Name of the INT8 convolution body this CPU dispatches to:
/// `"avx512vnni"`, `"avx2"` or `"portable"`.
pub fn int8_conv_simd() -> &'static str {
    match ConvBody::detect() {
        ConvBody::Avx512Vnni => "avx512vnni",
        ConvBody::Avx2 => "avx2",
        ConvBody::Portable => "portable",
    }
}

/// Implicit-GEMM INT8 convolution of one sample group on `body`:
/// `out[r][p] = epi(r, Σ_ky Σ_l w[r][ky][l] · plane[base(p) + ky·wp·cg + l])`
/// for `rows` output channels of one group of a [`PackedConvI16`] panel and
/// every output pixel `p`, read straight from the channels-last `plane` — no
/// im2row matrix, no gather map — and written as f32 through the
/// [`QEpilogue`] as each tile is stored.
///
/// Each block of channels is an outer product with a tile of pixels: per
/// kernel row, one vector of weight pairs meets each pixel's broadcast
/// input words in one multiply-add. With one k-pair per vector every
/// accumulator lane is one channel's running sum; with two (`geo.pairs ==
/// 2`, at most 8 rows) each channel's two lanes are added before the
/// epilogue.
///
/// Each sum is an exact integer dot product over the same `cg·kh·kw` real
/// products as the im2row GEMM of [`conv2d_q`](crate::conv2d_q), plus pad
/// lanes and pad rows whose panel words are zero, so every body is
/// bit-identical to it and to the others. Counts as one integer GEMM.
///
/// # Panics
///
/// Panics if `plane`, `panel` or `out` is shorter than the geometry needs,
/// if the segment does not hold whole vectors or a kernel row's `kw * cg`
/// lanes, if a two-k-pair panel has more than 8 rows, if the reduction
/// could overflow the `i32` accumulator, if `epi` lacks a row's constants,
/// or if the CPU does not support `body`.
pub(crate) fn conv_i16_implicit(
    body: ConvBody,
    plane: &[i16],
    panel: &[i16],
    rows: usize,
    geo: &PlaneConv,
    epi: &QEpilogue<'_>,
    out: &mut [f32],
) {
    crate::opcount::count_matmul_i8();
    assert!(
        (geo.pairs == 1 || (geo.pairs == 2 && rows <= CONV_LANES / 2))
            && geo.seg.is_multiple_of(2 * geo.pairs)
            && (1..=geo.seg).contains(&(geo.kw * geo.cg)),
        "bad segment"
    );
    assert!(geo.oh * geo.ow > 0, "empty output");
    assert!(plane.len() >= geo.plane_reach(), "plane too short");
    assert!(
        panel.len() >= rows.div_ceil(CONV_LANES) * geo.block_len(),
        "panel too short"
    );
    assert!(out.len() >= rows * geo.oh * geo.ow, "output too short");
    assert!(
        geo.kh * geo.seg <= i32::MAX as usize / (QMAX * QMAX) as usize,
        "k={} could overflow the i32 accumulator",
        geo.kh * geo.seg
    );
    assert!(body.supported(), "{body:?} is not supported on this CPU");
    match body {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the CPU supports the body, and the asserts above bound
        // every read and write it makes.
        ConvBody::Avx512Vnni => unsafe { conv_implicit_vnni(plane, panel, rows, geo, epi, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        ConvBody::Avx2 => unsafe { conv_implicit_avx2(plane, panel, rows, geo, epi, out) },
        _ => conv_implicit_portable(plane, panel, rows, geo, epi, out),
    }
}

/// Lanes of one channel's kernel row that [`conv_implicit_portable`]
/// de-interleaves at a time; a multiple of 4, so no vector is split.
const PORTABLE_LANES: usize = 256;

/// Pixels whose sums [`conv_implicit_portable`] holds at a time.
const PORTABLE_PIXELS: usize = 256;

/// Portable body: per output channel and run of [`PORTABLE_PIXELS`]
/// pixels, and per kernel row, copies the channel's `2 * pairs` words of
/// each vector out of its block into a contiguous run (in chunks of
/// [`PORTABLE_LANES`]), then takes one contiguous dot product per pixel
/// over the run's `kw * cg` real lanes (the pad lanes' weights are zero),
/// which the compiler vectorizes; the run's sums go through the epilogue
/// as they are stored.
fn conv_implicit_portable(
    plane: &[i16],
    panel: &[i16],
    rows: usize,
    geo: &PlaneConv,
    epi: &QEpilogue<'_>,
    out: &mut [f32],
) {
    // A constant run length keeps each copy a few moves, not a call.
    match geo.pairs {
        1 => portable_runs::<2>(plane, panel, rows, geo, epi, out),
        _ => portable_runs::<4>(plane, panel, rows, geo, epi, out),
    }
}

/// [`conv_implicit_portable`] over a panel with `RUN = 2 * pairs` words of
/// each channel per vector.
fn portable_runs<const RUN: usize>(
    plane: &[i16],
    panel: &[i16],
    rows: usize,
    geo: &PlaneConv,
    epi: &QEpilogue<'_>,
    out: &mut [f32],
) {
    let (ohw, ky_step, real) = (geo.oh * geo.ow, geo.wp * geo.cg, geo.kw * geo.cg);
    let (run, vector) = (RUN, 2 * CONV_LANES);
    let mut w = [0i16; PORTABLE_LANES];
    let mut sums = [0i32; PORTABLE_PIXELS];
    for (r, out) in out[..rows * ohw].chunks_exact_mut(ohw).enumerate() {
        let k = epi.row(r);
        let (block, at) = (r / CONV_LANES, run * (r % CONV_LANES));
        let block = &panel[block * geo.block_len()..][..geo.block_len()];
        for (t, out) in out.chunks_mut(PORTABLE_PIXELS).enumerate() {
            let (p0, sums) = (t * PORTABLE_PIXELS, &mut sums[..out.len()]);
            sums.fill(0);
            for (ky, wk) in block.chunks_exact(geo.seg / run * vector).enumerate() {
                for (c, wc) in wk.chunks(PORTABLE_LANES / run * vector).enumerate() {
                    let w = &mut w[..wc.len() / vector * run];
                    for (d, s) in w.chunks_exact_mut(run).zip(wc.chunks_exact(vector)) {
                        d.copy_from_slice(&s[at..][..run]);
                    }
                    // Chunks start at multiples of 4 lanes below `seg`, so
                    // below `real` too.
                    let w = &w[..w.len().min(real - c * PORTABLE_LANES)];
                    let xo = ky * ky_step + c * PORTABLE_LANES;
                    for (p, a) in sums.iter_mut().enumerate() {
                        let x = &plane[geo.base(p0 + p) + xo..][..w.len()];
                        let dot: i32 = w.iter().zip(x).map(|(&w, &x)| w as i32 * x as i32).sum();
                        *a += dot;
                    }
                }
            }
            for (o, &s) in out.iter_mut().zip(sums.iter()) {
                *o = k.apply(s);
            }
        }
    }
}

/// Pixels per single-block AVX-512 tile: one `zmm` accumulator each.
#[cfg(target_arch = "x86_64")]
const VNNI_PIXELS: usize = 16;

/// Pixels per two-block AVX-512 tile.
#[cfg(target_arch = "x86_64")]
const RUN_PIXELS: usize = 8;

/// AVX-512 VNNI body. A group of more than 16 channels takes its blocks
/// two at a time and computes each pair on tiles of [`RUN_PIXELS`] pixels
/// that share each input broadcast between the two blocks; an odd last
/// block runs alone. A single block (9–16 channels, or the odd last one)
/// keeps tiles of [`VNNI_PIXELS`] pixels, with nothing to share; so does a
/// two-k-pair block. 1-pixel tiles of one block take the pixels past the
/// last whole tile.
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512 VNNI, and the slices must
/// cover the geometry as [`conv_i16_implicit`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
unsafe fn conv_implicit_vnni(
    plane: &[i16],
    panel: &[i16],
    rows: usize,
    geo: &PlaneConv,
    epi: &QEpilogue<'_>,
    out: &mut [f32],
) {
    if geo.pairs == 2 {
        let k = epi.lanes(0, rows, 2).zmm();
        vnni_block::<2>(plane, panel.as_ptr(), Tile { r0: 0, rows }, geo, &k, out);
        return;
    }
    let blocks = rows.div_ceil(CONV_LANES);
    for b0 in (0..blocks).step_by(2) {
        if b0 + 1 < blocks {
            vnni_run(plane, panel, b0, rows, geo, epi, out);
        } else {
            let tile = Tile::block(b0, rows);
            let k = epi.lanes(tile.r0, tile.rows, 1).zmm();
            let w = panel.as_ptr().add(b0 * geo.block_len());
            vnni_block::<1>(plane, w, tile, geo, &k, out);
        }
    }
}

/// The output channels of one block: `rows` (at most [`CONV_LANES`])
/// starting at `r0`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Tile {
    r0: usize,
    rows: usize,
}

#[cfg(target_arch = "x86_64")]
impl Tile {
    /// Block `b` of a group of `rows` channels.
    fn block(b: usize, rows: usize) -> Self {
        let r0 = b * CONV_LANES;
        Self {
            r0,
            rows: (rows - r0).min(CONV_LANES),
        }
    }
}

/// Stores a tile's `[pixel][lane]` outputs transposed into `out[r][p]`,
/// row `r` from lane `r * N`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn store_transposed<const P: usize, const N: usize>(
    vals: &[[f32; CONV_LANES]; P],
    tile: Tile,
    p0: usize,
    ohw: usize,
    out: &mut [f32],
) {
    for r in 0..tile.rows {
        let dst = &mut out[(tile.r0 + r) * ohw + p0..][..P];
        for (d, s) in dst.iter_mut().zip(vals) {
            *d = s[r * N];
        }
    }
}

/// One block's pixels on the AVX-512 VNNI body: tiles of [`VNNI_PIXELS`],
/// then 1-pixel tiles, with `N` k-pairs per weight vector.
///
/// # Safety
///
/// As [`vnni_tile`], for every pixel of the output.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn vnni_block<const N: usize>(
    plane: &[i16],
    w: *const i16,
    tile: Tile,
    geo: &PlaneConv,
    k: &EpiConsts<__m512>,
    out: &mut [f32],
) {
    let ohw = geo.oh * geo.ow;
    let mut p = 0;
    while p + VNNI_PIXELS <= ohw {
        vnni_tile::<VNNI_PIXELS, N>(plane, w, tile, p, geo, k, out);
        p += VNNI_PIXELS;
    }
    while p < ohw {
        vnni_tile::<1, N>(plane, w, tile, p, geo, k, out);
        p += 1;
    }
}

/// One block × `P`-pixel tile of the AVX-512 VNNI body, with `N` k-pairs
/// per weight vector: a broadcast of `2 * N` input words meets each vector
/// in one `vpdpwssd`, and with `N == 2` each channel's odd lane is added
/// into its even lane, where the epilogue constants of row `r` sit (lane
/// `r * N`). A full tile runs the epilogue on its 16 accumulators in
/// registers, then transposes them so each channel's 16 pixels are one
/// store.
///
/// # Safety
///
/// As [`conv_implicit_vnni`], with `w` the block's first panel word and
/// `p0 + P` at most `oh * ow`: every plane read then ends by
/// `geo.plane_reach()`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// Index loops name the register tile's pixel cells.
#[allow(clippy::needless_range_loop)]
unsafe fn vnni_tile<const P: usize, const N: usize>(
    plane: &[i16],
    w: *const i16,
    tile: Tile,
    p0: usize,
    geo: &PlaneConv,
    k: &EpiConsts<__m512>,
    out: &mut [f32],
) {
    let mut x = [plane.as_ptr(); P];
    for j in 0..P {
        x[j] = plane.as_ptr().add(geo.base(p0 + j));
    }
    let mut a = [_mm512_setzero_si512(); P];
    let mut wk = w;
    for ky in 0..geo.kh {
        let xo = ky * geo.wp * geo.cg;
        let mut l = 0;
        while l < geo.seg {
            let wv = _mm512_loadu_si512(wk as *const __m512i);
            wk = wk.add(2 * CONV_LANES);
            for j in 0..P {
                let at = x[j].add(xo + l);
                let xv = if N == 1 {
                    _mm512_set1_epi32((at as *const i32).read_unaligned())
                } else {
                    _mm512_set1_epi64((at as *const i64).read_unaligned())
                };
                a[j] = _mm512_dpwssd_epi32(a[j], wv, xv);
            }
            l += 2 * N;
        }
    }
    if N == 2 {
        for j in 0..P {
            a[j] = _mm512_add_epi32(a[j], _mm512_srli_epi64::<32>(a[j]));
        }
    }
    // The affine loop indexes the accumulators with constants once
    // unrolled, so they stay in registers; the activation's branch is
    // taken once for the tile.
    let mut v = [_mm512_setzero_ps(); P];
    for j in 0..P {
        v[j] = k.affine(a[j]);
    }
    k.activate(&mut v);
    let ohw = geo.oh * geo.ow;
    if P == VNNI_PIXELS {
        let mut f = [_mm512_setzero_si512(); VNNI_PIXELS];
        for j in 0..P {
            f[j] = _mm512_castps_si512(v[j]);
        }
        let t = transpose_16x16(&f);
        for r in 0..tile.rows {
            let dst = &mut out[(tile.r0 + r) * ohw + p0..][..VNNI_PIXELS];
            _mm512_storeu_ps(dst.as_mut_ptr(), _mm512_castsi512_ps(t[r * N]));
        }
        return;
    }
    let mut vals = [[0.0f32; CONV_LANES]; P];
    for j in 0..P {
        _mm512_storeu_ps(vals[j].as_mut_ptr(), v[j]);
    }
    store_transposed::<P, N>(&vals, tile, p0, ohw, out);
}

/// Blocks `b0` and `b0 + 1` on the AVX-512 VNNI body: tiles of two blocks
/// × [`RUN_PIXELS`] pixels, then 1-pixel tiles of each block.
///
/// # Safety
///
/// As [`conv_implicit_vnni`], with both blocks inside the group.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn vnni_run(
    plane: &[i16],
    panel: &[i16],
    b0: usize,
    rows: usize,
    geo: &PlaneConv,
    epi: &QEpilogue<'_>,
    out: &mut [f32],
) {
    let ohw = geo.oh * geo.ow;
    let w = panel.as_ptr().add(b0 * geo.block_len());
    let tiles = [Tile::block(b0, rows), Tile::block(b0 + 1, rows)];
    let consts = [
        epi.lanes(tiles[0].r0, tiles[0].rows, 1),
        epi.lanes(tiles[1].r0, tiles[1].rows, 1),
    ];
    let mut p = 0;
    while p + RUN_PIXELS <= ohw {
        vnni_run_tile(plane, w, &tiles, p, geo, &consts, out);
        p += RUN_PIXELS;
    }
    if p < ohw {
        for (b, (&tile, k)) in tiles.iter().zip(&consts).enumerate() {
            let k = k.zmm();
            let wb = w.add(b * geo.block_len());
            for q in p..ohw {
                vnni_tile::<1, 1>(plane, wb, tile, q, geo, &k, out);
            }
        }
    }
}

/// One tile of two blocks × [`RUN_PIXELS`] pixels: per kernel row and
/// k-pair, both blocks' weight vectors are loaded, and each pixel's input
/// pair is broadcast once into a register that feeds both multiply-adds.
/// The epilogue constants are loaded after the loop, block by block; each
/// block's 8 pixels are stored as one 8-pixel run per channel row.
///
/// # Safety
///
/// As [`conv_implicit_vnni`], with `w` the first block's first panel word,
/// two blocks in the group from there, and `p0 + RUN_PIXELS` at most
/// `oh * ow`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// Index loops name the register tile's (block, pixel) cells.
#[allow(clippy::needless_range_loop)]
unsafe fn vnni_run_tile(
    plane: &[i16],
    w: *const i16,
    tiles: &[Tile; 2],
    p0: usize,
    geo: &PlaneConv,
    consts: &[EpiConsts<[f32; CONV_LANES]>; 2],
    out: &mut [f32],
) {
    const P: usize = RUN_PIXELS;
    let mut x = [plane.as_ptr(); P];
    for j in 0..P {
        x[j] = plane.as_ptr().add(geo.base(p0 + j));
    }
    let bl = geo.block_len();
    let mut a = [[_mm512_setzero_si512(); P]; 2];
    let mut wk = w;
    for ky in 0..geo.kh {
        let xo = ky * geo.wp * geo.cg;
        let mut l = 0;
        while l < geo.seg {
            let wv = [
                _mm512_loadu_si512(wk as *const __m512i),
                _mm512_loadu_si512(wk.add(bl) as *const __m512i),
            ];
            wk = wk.add(2 * CONV_LANES);
            for j in 0..P {
                let xv = _mm512_set1_epi32((x[j].add(xo + l) as *const i32).read_unaligned());
                for b in 0..2 {
                    a[b][j] = _mm512_dpwssd_epi32(a[b][j], wv[b], xv);
                }
            }
            l += 2;
        }
    }
    // Constant block indices: a loop over the blocks, which the compiler
    // does not unroll, would index the accumulators at run time and so
    // keep them in memory, stored on every multiply-add.
    let ohw = geo.oh * geo.ow;
    run_store(&a[0], &consts[0], tiles[0], p0, ohw, out);
    run_store(&a[1], &consts[1], tiles[1], p0, ohw, out);
}

/// The epilogue of one block's [`RUN_PIXELS`] accumulators, with its
/// constants loaded here, then the store of each channel row's 8 pixels.
///
/// # Safety
///
/// The CPU must support AVX-512F, and pixels `p0..p0 + RUN_PIXELS` of the
/// tile's rows must lie in `out`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// Index loops name the register tile's pixel cells.
#[allow(clippy::needless_range_loop)]
unsafe fn run_store(
    a: &[__m512i; RUN_PIXELS],
    k: &EpiConsts<[f32; CONV_LANES]>,
    tile: Tile,
    p0: usize,
    ohw: usize,
    out: &mut [f32],
) {
    let k = k.zmm();
    let mut v = [_mm512_setzero_ps(); RUN_PIXELS];
    for j in 0..RUN_PIXELS {
        v[j] = k.affine(a[j]);
    }
    k.activate(&mut v);
    store_8_pixels(&v, tile, p0, ohw, out);
}

/// Stores 8 pixels' 16 channel lanes (`v[j]` lane `r`: pixel `j`, channel
/// `r`) as one 8-pixel run per row of `tile`. Two rounds of unpacks, as in
/// [`transpose_16x16`], put channel `4L + q`'s pixels 0–3 in 128-bit lane
/// `L` of one vector and pixels 4–7 in lane `L` of another; one two-source
/// permute then joins channels `q` and `4 + q` (or `8 + q` and `12 + q`)
/// into the two halves of a vector.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn store_8_pixels(
    v: &[__m512; RUN_PIXELS],
    tile: Tile,
    p0: usize,
    ohw: usize,
    out: &mut [f32],
) {
    let mut b = [_mm512_setzero_si512(); 8];
    for m in 0..4 {
        let (x, y) = (
            _mm512_castps_si512(v[2 * m]),
            _mm512_castps_si512(v[2 * m + 1]),
        );
        b[2 * m] = _mm512_unpacklo_epi32(x, y);
        b[2 * m + 1] = _mm512_unpackhi_epi32(x, y);
    }
    // c[4n+q], 128-bit lane L: channel 4L+q of pixels 4n..4n+4.
    let mut c = [_mm512_setzero_si512(); 8];
    for n in 0..2 {
        for h in 0..2 {
            let (x, y) = (b[4 * n + h], b[4 * n + h + 2]);
            c[4 * n + 2 * h] = _mm512_unpacklo_epi64(x, y);
            c[4 * n + 2 * h + 1] = _mm512_unpackhi_epi64(x, y);
        }
    }
    // 64-bit lanes of (c[q], c[4+q]): 128-bit lanes 0 and 1, then 2 and 3,
    // each taken from both.
    let lanes01 = _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0);
    let lanes23 = _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4);
    let mut rows = [_mm256_setzero_si256(); CONV_LANES];
    for q in 0..4 {
        let d01 = _mm512_permutex2var_epi64(c[q], lanes01, c[4 + q]);
        let d23 = _mm512_permutex2var_epi64(c[q], lanes23, c[4 + q]);
        rows[q] = _mm512_castsi512_si256(d01);
        rows[4 + q] = _mm512_extracti64x4_epi64::<1>(d01);
        rows[8 + q] = _mm512_castsi512_si256(d23);
        rows[12 + q] = _mm512_extracti64x4_epi64::<1>(d23);
    }
    for r in 0..tile.rows {
        let dst = &mut out[(tile.r0 + r) * ohw + p0..][..RUN_PIXELS];
        _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, rows[r]);
    }
}

/// Transposes 16 vectors of 16 `i32` lanes: lane `j` of output `r` is lane
/// `r` of input `j`. Within each 128-bit lane, two rounds of unpacks
/// transpose 4×4 blocks; two rounds of 128-bit lane shuffles then put the
/// blocks in place.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose_16x16(a: &[__m512i; 16]) -> [__m512i; 16] {
    // b[2m], b[2m+1]: lane pairs (4L, 4L+1) and (4L+2, 4L+3) of a[2m],
    // a[2m+1], interleaved.
    let mut b = [_mm512_setzero_si512(); 16];
    for m in 0..8 {
        b[2 * m] = _mm512_unpacklo_epi32(a[2 * m], a[2 * m + 1]);
        b[2 * m + 1] = _mm512_unpackhi_epi32(a[2 * m], a[2 * m + 1]);
    }
    // c[4n+q], 128-bit lane L: lane 4L+q of a[4n..4n+4].
    let mut c = [_mm512_setzero_si512(); 16];
    for n in 0..4 {
        for h in 0..2 {
            let (x, y) = (b[4 * n + h], b[4 * n + h + 2]);
            c[4 * n + 2 * h] = _mm512_unpacklo_epi64(x, y);
            c[4 * n + 2 * h + 1] = _mm512_unpackhi_epi64(x, y);
        }
    }
    // Output 4L+q gathers 128-bit lane L of c[q], c[4+q], c[8+q], c[12+q].
    let mut out = [_mm512_setzero_si512(); 16];
    for q in 0..4 {
        let (d0, d1) = (even_lanes(c[q], c[4 + q]), odd_lanes(c[q], c[4 + q]));
        let (d2, d3) = (
            even_lanes(c[8 + q], c[12 + q]),
            odd_lanes(c[8 + q], c[12 + q]),
        );
        out[q] = even_lanes(d0, d2);
        out[4 + q] = even_lanes(d1, d3);
        out[8 + q] = odd_lanes(d0, d2);
        out[12 + q] = odd_lanes(d1, d3);
    }
    out
}

/// 128-bit lanes 0 and 2 of `x`, then of `y`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn even_lanes(x: __m512i, y: __m512i) -> __m512i {
    _mm512_shuffle_i32x4::<0b10_00_10_00>(x, y)
}

/// 128-bit lanes 1 and 3 of `x`, then of `y`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn odd_lanes(x: __m512i, y: __m512i) -> __m512i {
    _mm512_shuffle_i32x4::<0b11_01_11_01>(x, y)
}

/// Pixels per AVX2 tile over both halves of a vector (16 accumulators
/// would not fit the 16 `ymm` registers) and over the low half alone.
#[cfg(target_arch = "x86_64")]
const AVX2_PIXELS: (usize, usize) = (4, 8);

/// AVX2 body: per block, tiles of two 8-channel `ymm` halves, or of the low
/// half alone when the block holds at most 8 channels (its high half is all
/// pad rows), then 1-pixel tiles for the rest. A two-k-pair block runs
/// [`avx2_pairs_tile`] instead.
///
/// # Safety
///
/// The CPU must support AVX2, and the slices must cover the geometry as
/// [`conv_i16_implicit`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn conv_implicit_avx2(
    plane: &[i16],
    panel: &[i16],
    rows: usize,
    geo: &PlaneConv,
    epi: &QEpilogue<'_>,
    out: &mut [f32],
) {
    let ohw = geo.oh * geo.ow;
    if geo.pairs == 2 {
        let (w, tile) = (panel.as_ptr(), Tile { r0: 0, rows });
        let k = epi.lanes(0, rows, 1).ymm(0);
        if rows > CONV_LANES / 4 {
            avx2_pairs_block::<2, { AVX2_PIXELS.0 }>(plane, w, tile, geo, &k, out);
        } else {
            avx2_pairs_block::<1, { AVX2_PIXELS.1 }>(plane, w, tile, geo, &k, out);
        }
        return;
    }
    for (block, r0) in (0..rows).step_by(CONV_LANES).enumerate() {
        let w = panel.as_ptr().add(block * geo.block_len());
        let tile = Tile::block(block, rows);
        let lanes = epi.lanes(r0, tile.rows, 1);
        let k = [lanes.ymm(0), lanes.ymm(1)];
        let mut p = 0;
        if tile.rows > CONV_LANES / 2 {
            while p + AVX2_PIXELS.0 <= ohw {
                avx2_tile::<2, { AVX2_PIXELS.0 }>(plane, w, tile, p, geo, &k, out);
                p += AVX2_PIXELS.0;
            }
            while p < ohw {
                avx2_tile::<2, 1>(plane, w, tile, p, geo, &k, out);
                p += 1;
            }
        } else {
            while p + AVX2_PIXELS.1 <= ohw {
                avx2_tile::<1, { AVX2_PIXELS.1 }>(plane, w, tile, p, geo, &k, out);
                p += AVX2_PIXELS.1;
            }
            while p < ohw {
                avx2_tile::<1, 1>(plane, w, tile, p, geo, &k, out);
                p += 1;
            }
        }
    }
}

/// One block × `P`-pixel tile of the AVX2 body over the block's first `H`
/// 8-channel halves, with the epilogue applied to each half's channel
/// lanes before the tile is stored.
///
/// # Safety
///
/// As [`conv_implicit_avx2`], with `w` the block's first panel word, `p0 +
/// P` at most `oh * ow`, and `H == 1` only when the block's high half holds
/// pad rows alone.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// Index loops name the register tile's (half, pixel) cells.
#[allow(clippy::needless_range_loop)]
unsafe fn avx2_tile<const H: usize, const P: usize>(
    plane: &[i16],
    w: *const i16,
    tile: Tile,
    p0: usize,
    geo: &PlaneConv,
    k: &[EpiConsts<__m256>; 2],
    out: &mut [f32],
) {
    let mut x = [plane.as_ptr(); P];
    for j in 0..P {
        x[j] = plane.as_ptr().add(geo.base(p0 + j));
    }
    let mut a = [[_mm256_setzero_si256(); P]; H];
    let mut wk = w;
    for ky in 0..geo.kh {
        let xo = ky * geo.wp * geo.cg;
        let mut l = 0;
        while l < geo.seg {
            let mut wv = [_mm256_setzero_si256(); H];
            for h in 0..H {
                wv[h] = _mm256_loadu_si256(wk.add(h * CONV_LANES) as *const __m256i);
            }
            wk = wk.add(2 * CONV_LANES);
            for j in 0..P {
                let pair = (x[j].add(xo + l) as *const i32).read_unaligned();
                let xv = _mm256_set1_epi32(pair);
                for h in 0..H {
                    a[h][j] = _mm256_add_epi32(a[h][j], _mm256_madd_epi16(wv[h], xv));
                }
            }
            l += 2;
        }
    }
    // As in the AVX-512 tile: a constant-indexed affine loop, then one
    // activation branch per half.
    let mut v = [[_mm256_setzero_ps(); P]; H];
    for h in 0..H {
        for j in 0..P {
            v[h][j] = k[h].affine(a[h][j]);
        }
        k[h].activate(&mut v[h]);
    }
    avx2_store(&v, tile, p0, geo.oh * geo.ow, out);
}

/// Stores an AVX2 tile's outputs (`v[h][j]` lane `l`: pixel `j`, channel
/// `8h + l`) transposed into `out[r][p]`, for the tile's rows. A 4-pixel
/// tile is transposed in registers, each channel row one 4-pixel store;
/// other widths go through a stack array.
///
/// # Safety
///
/// The CPU must support AVX2, and pixels `p0..p0 + P` of the tile's rows
/// must lie in `out`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// Index loops name the tile's (half, pixel) cells.
#[allow(clippy::needless_range_loop)]
unsafe fn avx2_store<const H: usize, const P: usize>(
    v: &[[__m256; P]; H],
    tile: Tile,
    p0: usize,
    ohw: usize,
    out: &mut [f32],
) {
    if P == 4 {
        for h in 0..H {
            let v = v[h].first_chunk::<4>().expect("a 4-pixel tile");
            // u[q]: channel q's 4 pixels in the low 128 bits, channel
            // 4 + q's in the high ones.
            let (t0, t1) = (
                _mm256_unpacklo_ps(v[0], v[1]),
                _mm256_unpackhi_ps(v[0], v[1]),
            );
            let (t2, t3) = (
                _mm256_unpacklo_ps(v[2], v[3]),
                _mm256_unpackhi_ps(v[2], v[3]),
            );
            let u = [
                _mm256_shuffle_ps::<0b01_00_01_00>(t0, t2),
                _mm256_shuffle_ps::<0b11_10_11_10>(t0, t2),
                _mm256_shuffle_ps::<0b01_00_01_00>(t1, t3),
                _mm256_shuffle_ps::<0b11_10_11_10>(t1, t3),
            ];
            let mut rows = [_mm_setzero_ps(); 8];
            for q in 0..4 {
                rows[q] = _mm256_castps256_ps128(u[q]);
                rows[4 + q] = _mm256_extractf128_ps::<1>(u[q]);
            }
            for r in 8 * h..tile.rows.min(8 * h + 8) {
                let dst = &mut out[(tile.r0 + r) * ohw + p0..][..4];
                _mm_storeu_ps(dst.as_mut_ptr(), rows[r - 8 * h]);
            }
        }
        return;
    }
    let mut vals = [[0.0f32; CONV_LANES]; P];
    for j in 0..P {
        for h in 0..H {
            _mm256_storeu_ps(vals[j].as_mut_ptr().add(h * 8), v[h][j]);
        }
    }
    store_transposed::<P, 1>(&vals, tile, p0, ohw, out);
}

/// A two-k-pair block's pixels on the AVX2 body: tiles of `P` over its
/// first `H` halves, then 1-pixel tiles.
///
/// # Safety
///
/// As [`avx2_pairs_tile`], for every pixel of the output.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn avx2_pairs_block<const H: usize, const P: usize>(
    plane: &[i16],
    w: *const i16,
    tile: Tile,
    geo: &PlaneConv,
    k: &EpiConsts<__m256>,
    out: &mut [f32],
) {
    let ohw = geo.oh * geo.ow;
    let mut p = 0;
    while p + P <= ohw {
        avx2_pairs_tile::<H, P>(plane, w, tile, p, geo, k, out);
        p += P;
    }
    while p < ohw {
        avx2_pairs_tile::<H, 1>(plane, w, tile, p, geo, k, out);
        p += 1;
    }
}

/// One `P`-pixel tile of the AVX2 body over a two-k-pair block's first `H`
/// halves: each vector's two `ymm` halves hold channels 0–3 and 4–7, two
/// lanes each, and one 64-bit broadcast of four input words meets them.
/// One horizontal add then sums each channel's two lanes, and a 64-bit
/// permute puts the sums in channel order for the epilogue.
///
/// # Safety
///
/// As [`conv_implicit_avx2`], with `w` the block's first panel word, `p0 +
/// P` at most `oh * ow`, and `H == 1` only when the block holds at most 4
/// channels.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// Index loops name the register tile's (half, pixel) cells.
#[allow(clippy::needless_range_loop)]
unsafe fn avx2_pairs_tile<const H: usize, const P: usize>(
    plane: &[i16],
    w: *const i16,
    tile: Tile,
    p0: usize,
    geo: &PlaneConv,
    k: &EpiConsts<__m256>,
    out: &mut [f32],
) {
    let mut x = [plane.as_ptr(); P];
    for j in 0..P {
        x[j] = plane.as_ptr().add(geo.base(p0 + j));
    }
    let mut a = [[_mm256_setzero_si256(); P]; H];
    let mut wk = w;
    for ky in 0..geo.kh {
        let xo = ky * geo.wp * geo.cg;
        let mut l = 0;
        while l < geo.seg {
            let mut wv = [_mm256_setzero_si256(); H];
            for h in 0..H {
                wv[h] = _mm256_loadu_si256(wk.add(h * CONV_LANES) as *const __m256i);
            }
            wk = wk.add(2 * CONV_LANES);
            for j in 0..P {
                let xv = _mm256_set1_epi64x((x[j].add(xo + l) as *const i64).read_unaligned());
                for h in 0..H {
                    a[h][j] = _mm256_add_epi32(a[h][j], _mm256_madd_epi16(wv[h], xv));
                }
            }
            l += 4;
        }
    }
    let mut v = [_mm256_setzero_ps(); P];
    for j in 0..P {
        // Sums of channels (0, 1, 4, 5 | 2, 3, 6, 7), then in order; with
        // one half, channels 0–3 land in lanes 0–3.
        let s = _mm256_hadd_epi32(a[0][j], a[H - 1][j]);
        v[j] = k.affine(_mm256_permute4x64_epi64::<0b11_01_10_00>(s));
    }
    k.activate(&mut v);
    avx2_store(&[v], tile, p0, geo.oh * geo.ow, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::PackedConvI16;
    use crate::rng::SeededRng;

    fn probe_i8(len: usize, seed: u64) -> Vec<i8> {
        let mut rng = SeededRng::new(seed);
        (0..len)
            .map(|_| (rng.below(255) as i32 - 127) as i8)
            .collect()
    }

    #[test]
    fn quantize_matches_reference_semantics() {
        // Half-away-from-zero ties, saturation, NaN→0.
        assert_eq!(quantize_one(2.5, 1.0), 3);
        assert_eq!(quantize_one(-2.5, 1.0), -3);
        assert_eq!(quantize_one(1000.0, 1.0), 127);
        assert_eq!(quantize_one(-1000.0, 1.0), -127);
        assert_eq!(quantize_one(f32::INFINITY, 1.0), 127);
        assert_eq!(quantize_one(f32::NEG_INFINITY, 1.0), -127);
        assert_eq!(quantize_one(f32::NAN, 1.0), 0);
        assert_eq!(quantize_one(0.0, 1.0), 0);
    }

    #[test]
    fn vector_quantizer_matches_scalar_rule_across_bit_patterns() {
        // A stride through every f32 bit pattern (all exponents, both signs,
        // NaN payloads, subnormals) plus every tie and near-tie in range.
        let mut src: Vec<f32> = (0..1u64 << 32)
            .step_by(65_521)
            .map(|b| f32::from_bits(b as u32))
            .collect();
        for k in -300i32..300 {
            let tie = k as f32 + 0.5;
            src.extend([tie, tie.next_down(), tie.next_up()]);
        }
        for scale in [1.0f32, 0.019, 3.0e-7, 1.0e30] {
            let mut got = vec![0i8; src.len()];
            quantize_slice(&src, scale, &mut got);
            for (i, (&q, &x)) in got.iter().zip(&src).enumerate() {
                assert_eq!(q, quantize_one(x, scale), "x={x:e} ({i}) scale={scale}");
            }
        }
    }

    #[test]
    fn slice_kernels_match_scalar_and_dispatch_is_bit_identical() {
        let mut rng = SeededRng::new(3);
        for len in [1usize, 7, 16, 31, 257] {
            let src: Vec<f32> = (0..len)
                .map(|i| match i % 9 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => -(i as f32) * 0.37,
                    3 => f32::NEG_INFINITY,
                    // Exact ties at the scale below: k + 0.5 steps.
                    4 => (rng.below(300) as f32 - 150.0 + 0.5) * 0.019,
                    5 => -0.0,
                    6 => (rng.below(2) as f32 * 2.0 - 1.0) * 3.0e9,
                    _ => (rng.below(1000) as f32 - 500.0) * 0.01,
                })
                .collect();
            let scale = 0.019;
            let mut d = vec![0i8; len];
            let mut p = vec![0i8; len];
            quantize_slice(&src, scale, &mut d);
            quantize_slice_impl(&src, scale, &mut p);
            assert_eq!(d, p, "quantize dispatch len {len}");
            for (q, &x) in d.iter().zip(&src) {
                assert_eq!(*q, quantize_one(x, scale), "scalar parity");
            }

            let mut fd = vec![0.0f32; len];
            let mut fp = vec![0.0f32; len];
            dequantize_slice(&d, scale, &mut fd);
            dequantize_slice_impl(&p, scale, &mut fp);
            assert_eq!(fd, fp, "dequantize dispatch len {len}");

            let mut rd = vec![0i8; len];
            let mut rp = vec![0i8; len];
            requantize_slice(&d, scale, scale * 2.0, &mut rd);
            requantize_slice_impl(&p, scale, scale * 2.0, &mut rp);
            assert_eq!(rd, rp, "requantize dispatch len {len}");
            for (r, &q) in rd.iter().zip(&d) {
                assert_eq!(*r, quantize_one(dequantize_one(q, scale), scale * 2.0));
            }
        }
    }

    #[test]
    fn requantize_to_same_scale_is_identity() {
        let src = probe_i8(64, 9);
        let mut dst = vec![0i8; 64];
        requantize_slice(&src, 0.5, 0.5, &mut dst);
        assert_eq!(src, dst);
    }

    #[test]
    fn dequant_bias_kernels_match_scalar() {
        let acc: Vec<i32> = (0..24).map(|i| (i - 12) * 1000).collect();
        let mut out = vec![0.0f32; 24];
        dequant_bias_row(&acc, 0.003, -0.5, &mut out);
        for (o, &s) in out.iter().zip(&acc) {
            assert_eq!(*o, s as f32 * 0.003 + -0.5);
        }

        let w_scales = [0.01f32, 0.02, 0.04, 0.08];
        let bias = [1.0f32, -1.0, 0.0, 0.5];
        let mut out = vec![0.0f32; 24];
        dequant_bias_rows(&acc, 0.5, &w_scales, &bias, &mut out);
        for r in 0..6 {
            for j in 0..4 {
                let expect = acc[r * 4 + j] as f32 * (0.5 * w_scales[j]) + bias[j];
                assert_eq!(out[r * 4 + j], expect);
            }
        }
    }

    #[test]
    fn matmul_i8_small_known_values() {
        // a = [[1, 2, 3]], b rows = [[1, 1, 1], [-1, 0, 2]]
        let a = [1i8, 2, 3];
        let b = [1i8, 1, 1, -1, 0, 2];
        let mut out = [0i32; 2];
        matmul_i8_nt(&a, &b, &mut out, 1, 3, 2);
        assert_eq!(out, [6, 5]);
    }

    #[test]
    fn matmul_i8_dispatch_is_bit_identical_to_portable() {
        // Shapes exercise the 4-column tile, the remainder columns, and the
        // 16-wide k vector body plus its scalar tail.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 17, 5),
            (4, 16, 4),
            (7, 33, 9),
            (2, 64, 13),
            (5, 100, 6),
        ] {
            let a = probe_i8(m * k, 11 + m as u64);
            let b = probe_i8(n * k, 23 + n as u64);
            let mut fast = vec![0i32; m * n];
            let mut slow = vec![1i32; m * n];
            matmul_i8_nt(&a, &b, &mut fast, m, k, n);
            matmul_i8_nt_portable(&a, &b, &mut slow, m, k, n);
            assert_eq!(fast, slow, "{m}x{k}x{n}");
        }
    }

    /// Every body this CPU supports; the dispatched one is among them.
    fn supported_bodies() -> Vec<ConvBody> {
        let bodies: Vec<ConvBody> = ConvBody::ALL
            .into_iter()
            .filter(|b| b.supported())
            .collect();
        assert!(bodies.contains(&ConvBody::detect()));
        bodies
    }

    /// A plane exactly `reach` words long with inputs spanning ±127, and
    /// words past it in the same buffer that are poison any over-read would
    /// pick up.
    fn probe_plane(reach: usize, seed: u64) -> Vec<i16> {
        let mut buf: Vec<i16> = probe_i8(reach, seed)
            .into_iter()
            .enumerate()
            .map(|(i, v)| match i % 5 {
                0 => 127,
                1 => -127,
                _ => i16::from(v),
            })
            .collect();
        buf.resize(reach + 64, i16::MAX);
        buf
    }

    /// `[rows][oh·ow]` exact sums of `words` (`[rows, cg, kh, kw]`) over
    /// `plane`, straight from the definition.
    fn direct_sums(
        plane: &[i16],
        words: &[i8],
        rows: usize,
        geo: &PlaneConv,
        kw: usize,
    ) -> Vec<i32> {
        let (cg, ohw) = (geo.cg, geo.oh * geo.ow);
        let mut want = vec![0i32; rows * ohw];
        for r in 0..rows {
            for p in 0..ohw {
                let (oy, ox) = (p / geo.ow, p % geo.ow);
                for c in 0..cg {
                    for ky in 0..geo.kh {
                        for kx in 0..kw {
                            let x = plane
                                [((oy * geo.stride + ky) * geo.wp + ox * geo.stride + kx) * cg + c];
                            let w = words[((r * cg + c) * geo.kh + ky) * kw + kx];
                            want[r * ohw + p] += x as i32 * w as i32;
                        }
                    }
                }
            }
        }
        want
    }

    /// The epilogue that stores each sum as it is (exact for every sum
    /// below 2^24 in magnitude).
    fn raw_epilogue(bias: &[f32]) -> QEpilogue<'_> {
        QEpilogue {
            input_scale: 1.0,
            w_scales: &[1.0],
            bias,
            bn: None,
            act: Act::None,
            row0: 0,
        }
    }

    /// The geometry of `panel`'s one group over a plane `wp` pixels wide.
    fn plane_conv(
        panel: &PackedConvI16,
        wp: usize,
        stride: usize,
        oh: usize,
        ow: usize,
    ) -> PlaneConv {
        let [_, cg, kh, kw] = panel.dims();
        PlaneConv {
            wp,
            cg,
            stride,
            kh,
            kw,
            seg: panel.seg(),
            pairs: panel.pairs(),
            oh,
            ow,
        }
    }

    #[test]
    fn implicit_conv_bodies_match_direct_sums() {
        let bodies = supported_bodies();
        // (rows, cg, kh, kw, stride, oh, ow): one row; 3, 5 and 8 rows (two
        // k-pairs per vector) with `kw * cg` of 9, 5, 2 and 24 (3, 3, 2 and 0
        // pad words); 9 and 16 rows (one block); 17, 24 and 32 rows (a run
        // of two blocks, whole or with a partial second block); 33, 40 and
        // 48 rows (a run, then an odd last block alone); 64 and 80 rows (two
        // runs, then none or one last block); pixel counts off every tile
        // width; odd `kw * cg` (a pad lane); stride 2, and a 1×1 stride-2
        // conv; multi-vector segments; a segment longer than the portable
        // body's chunk.
        for &(rows, cg, kh, kw, stride, oh, ow) in &[
            (1usize, 1usize, 1usize, 1usize, 1usize, 1usize, 1usize),
            (8, 3, 3, 3, 1, 4, 5),
            (5, 5, 3, 1, 2, 3, 6),
            (3, 1, 2, 2, 1, 5, 4),
            (9, 5, 1, 1, 2, 3, 7),
            (16, 8, 3, 3, 1, 4, 4),
            (17, 7, 5, 5, 2, 2, 3),
            (24, 5, 3, 3, 1, 4, 5),
            (32, 32, 3, 3, 1, 4, 4),
            (32, 16, 1, 1, 2, 3, 5),
            (33, 32, 3, 3, 1, 3, 6),
            (40, 9, 2, 2, 2, 3, 3),
            (48, 6, 3, 3, 1, 2, 9),
            (64, 4, 3, 3, 1, 3, 3),
            (80, 3, 1, 3, 1, 2, 5),
            (16, 16, 3, 3, 2, 5, 5),
            (8, 8, 3, 3, 1, 3, 11),
            (3, 87, 2, 3, 1, 2, 3),
        ] {
            // Inputs span ±127 and the weights reach -128 (a faulted word).
            let mut words = probe_i8(rows * cg * kh * kw, 43 + cg as u64);
            for w in words.iter_mut().step_by(3) {
                *w = i8::MIN;
            }
            let panel = PackedConvI16::pack(&words, [rows, cg, kh, kw], 1);
            let geo = plane_conv(&panel, (ow - 1) * stride + kw, stride, oh, ow);
            let reach = geo.plane_reach();
            let buf = probe_plane(reach, 41 + rows as u64);
            let plane = &buf[..reach];
            let ohw = oh * ow;
            let want = direct_sums(plane, &words, rows, &geo, kw);
            let bias = vec![0.0; rows];
            let case = format!("{rows}x{cg}x{kh}x{kw}/{stride} -> {oh}x{ow}");
            for &body in &bodies {
                // A sentinel past the output must survive.
                let mut got = vec![7.0f32; rows * ohw + 1];
                let epi = raw_epilogue(&bias);
                conv_i16_implicit(body, plane, panel.data(), rows, &geo, &epi, &mut got);
                for (i, (&g, &s)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g, s as f32, "{body:?} {case}: output {i}");
                }
                assert_eq!(got[rows * ohw], 7.0, "{body:?} {case}: wrote past out");
            }
        }

        // Every word at its extreme: the largest sums any body meets, in
        // a two-k-pair block, one block, a run of two blocks, and a run
        // followed by a last block alone.
        for rows in [8usize, 16, 17, 32, 48] {
            let panel = PackedConvI16::pack(&vec![i8::MIN; rows * 32 * 9], [rows, 32, 3, 3], 1);
            let geo = plane_conv(&panel, 6, 1, 4, 4);
            let plane = vec![127i16; geo.plane_reach()];
            let bias = vec![0.0; rows];
            for &body in &bodies {
                let mut got = vec![0.0f32; rows * 16];
                let epi = raw_epilogue(&bias);
                conv_i16_implicit(body, &plane, panel.data(), rows, &geo, &epi, &mut got);
                let extreme = (288 * 127 * -128) as f32;
                assert!(got.iter().all(|&s| s == extreme), "{body:?} rows {rows}");
            }
        }
    }

    #[test]
    fn tile_epilogue_matches_scalar_formula() {
        let bodies = supported_bodies();
        let mut rng = SeededRng::new(77);
        let mut draw = |n: usize, lo: f32, span: f32| -> Vec<f32> {
            (0..n)
                .map(|_| lo + span * rng.below(1000) as f32 / 1000.0)
                .collect()
        };
        // (rows, oh, ow, row0, per-channel weight scales): 3 and 8 rows (two
        // k-pairs per vector), 24 rows (a run of two blocks, the second
        // partial), 40 rows (a run, then a partial last block alone), pixel
        // counts off every tile width, a group offset, and a per-tensor
        // weight scale.
        for &(rows, oh, ow, row0, per_channel) in &[
            (8usize, 3usize, 7usize, 0usize, true),
            (3, 5, 4, 2, true),
            (24, 4, 5, 3, true),
            (24, 5, 5, 0, false),
            (40, 3, 9, 8, true),
            (16, 4, 4, 16, true),
        ] {
            let (cg, kh, kw, stride) = (5usize, 3usize, 3usize, 1usize);
            let words = probe_i8(rows * cg * kh * kw, 51 + oh as u64);
            let panel = PackedConvI16::pack(&words, [rows, cg, kh, kw], 1);
            let geo = plane_conv(&panel, (ow - 1) * stride + kw, stride, oh, ow);
            let reach = geo.plane_reach();
            let buf = probe_plane(reach, 50 + rows as u64);
            let plane = &buf[..reach];
            let ohw = oh * ow;
            let sums = direct_sums(plane, &words, rows, &geo, kw);

            let n = row0 + rows;
            let input_scale = 0.0173f32;
            let w_scales = if per_channel {
                draw(n, 0.001, 0.02)
            } else {
                vec![0.0042]
            };
            let bias = draw(n, -0.5, 1.0);
            let mut mean = draw(n, -0.5, 1.0);
            let inv_std = draw(n, 0.5, 2.0);
            let mut gamma = draw(n, -1.5, 3.0);
            let mut beta = draw(n, -0.5, 1.0);
            // Every third channel feeds -0.0 into the activation at pixel
            // 0: its value equals the mean, so the normalized value is
            // +0.0, γ < 0 makes it -0.0, and β = -0.0 keeps it.
            let scale_of = |c: usize| input_scale * w_scales[if per_channel { c } else { 0 }];
            for r in (0..rows).step_by(3) {
                let c = row0 + r;
                mean[c] = sums[r * ohw] as f32 * scale_of(c) + bias[c];
                gamma[c] = -gamma[c].abs() - 0.25;
                beta[c] = -0.0;
            }
            let fold = BnFoldView {
                mean: &mean,
                inv_std: &inv_std,
                gamma: &gamma,
                beta: &beta,
            };
            for bn in [None, Some(fold)] {
                for act in [Act::None, Act::Relu, Act::LeakyRelu(0.1)] {
                    let want: Vec<f32> = (0..rows * ohw)
                        .map(|i| {
                            let c = row0 + i / ohw;
                            let v = sums[i] as f32 * scale_of(c) + bias[c];
                            let v = match bn {
                                Some(f) => {
                                    f.gamma[c] * ((v - f.mean[c]) * f.inv_std[c]) + f.beta[c]
                                }
                                None => v,
                            };
                            act.apply(v)
                        })
                        .collect();
                    if bn.is_some() && act == Act::None {
                        assert_eq!(want[0].to_bits(), (-0.0f32).to_bits(), "case feeds -0.0");
                    }
                    let epi = QEpilogue {
                        input_scale,
                        w_scales: &w_scales,
                        bias: &bias,
                        bn,
                        act,
                        row0,
                    };
                    for &body in &bodies {
                        let mut got = vec![f32::NAN; rows * ohw + 1];
                        conv_i16_implicit(body, plane, panel.data(), rows, &geo, &epi, &mut got);
                        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "{body:?} rows {rows} {oh}x{ow} bn {} {act:?}: output {i} {g} vs {w}",
                                bn.is_some()
                            );
                        }
                        assert!(got[rows * ohw].is_nan(), "{body:?}: wrote past out");
                    }
                }
            }
        }
    }

    #[test]
    fn plane_prologue_matches_quantize_one_and_layout() {
        let bodies = supported_bodies();
        let mut rng = SeededRng::new(88);
        // (groups, cg, h, w, pad, kernel, stride): the stem; h·w not a
        // multiple of 8 (35, 9, 30, 6 — the last all tail); 1×1 stride 2;
        // pad 0–2; groups 1/2/4; channel counts below, at and past whole
        // blocks of 8.
        for &(groups, cg, h, w, pad, k, stride) in &[
            (1usize, 3usize, 16usize, 16usize, 1usize, 3usize, 1usize),
            (1, 8, 5, 7, 0, 1, 2),
            (2, 9, 3, 3, 2, 5, 1),
            (4, 16, 4, 4, 1, 3, 2),
            (1, 17, 6, 5, 2, 3, 1),
            (2, 24, 2, 3, 1, 3, 1),
            (1, 33, 8, 8, 0, 3, 1),
            (4, 1, 7, 9, 1, 1, 2),
        ] {
            let lay = InputPlane {
                groups,
                cg,
                h,
                w,
                pad,
            };
            let (oh, ow) = (
                (h + 2 * pad - k) / stride + 1,
                (w + 2 * pad - k) / stride + 1,
            );
            let geo = PlaneConv {
                wp: lay.wp(),
                cg,
                stride,
                kh: k,
                kw: k,
                seg: (k * cg).next_multiple_of(4),
                pairs: 2,
                oh,
                ow,
            };
            let glen = lay.group_len();
            let len = (groups - 1) * glen + geo.plane_reach().max(glen);
            for scale in [0.0625f32, 1.0 / 128.0, 0.019] {
                let src: Vec<f32> = (0..groups * cg * h * w)
                    .map(|i| match rng.below(12) {
                        0 => f32::INFINITY,
                        1 => f32::NEG_INFINITY,
                        2 => f32::NAN,
                        3 => -0.0,
                        4 => 1.0e6,
                        5 => -1.0e6,
                        // ±(k + ½)·scale: exact ties at power-of-two scales.
                        6 | 7 => (rng.below(300) as f32 - 150.0 + 0.5) * scale,
                        _ => (rng.below(2000) as f32 - 1000.0) * 0.001 * (1 + i % 3) as f32,
                    })
                    .collect();
                let mut want = vec![0i16; len];
                for g in 0..groups {
                    for c in 0..cg {
                        for y in 0..h {
                            for x in 0..w {
                                let v = src[((g * cg + c) * h + y) * w + x];
                                want[g * glen + ((y + pad) * lay.wp() + pad + x) * cg + c] =
                                    i16::from(quantize_one(v, scale));
                            }
                        }
                    }
                }
                for &body in &bodies {
                    // Stale words from an earlier shape must not survive.
                    let mut got = vec![0x5a5a_i16; len];
                    quantize_plane(body, &src, scale, &lay, &mut got);
                    assert_eq!(
                        got, want,
                        "{body:?} g{groups} cg{cg} {h}x{w} pad {pad} scale {scale}"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_i8_saturating_inputs_do_not_overflow() {
        let k = 512;
        let a = vec![127i8; k];
        let b = vec![-127i8; 2 * k];
        let mut out = [0i32; 2];
        matmul_i8_nt(&a, &b, &mut out, 1, k, 2);
        assert_eq!(out, [512 * 127 * -127; 2]);
    }

    #[test]
    #[should_panic(expected = "overflow the i32 accumulator")]
    fn matmul_i8_rejects_huge_k() {
        let k = i32::MAX as usize / (127 * 127) + 1;
        // Zero-length slices fail the length asserts *after* the overflow
        // check only if ordered that way; keep slices consistent.
        let a = vec![0i8; k];
        let b = vec![0i8; k];
        let mut out = [0i32; 1];
        matmul_i8_nt(&a, &b, &mut out, 1, k, 1);
    }

    #[test]
    fn max_abs_scan_matches_the_scalar_fold() {
        let mut rng = SeededRng::new(61);
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            f32::MAX,
            -f32::MIN_POSITIVE,
        ];
        // Lengths off every vector width (8 lanes, 32 per step).
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 257] {
            for case in 0..6 {
                let src: Vec<f32> = (0..len)
                    .map(|_| match case {
                        // All non-finite.
                        0 => specials[rng.below(4)],
                        // Subnormals and signed zeros alone.
                        1 => specials[4 + rng.below(3)],
                        _ if rng.below(3) == 0 => specials[rng.below(specials.len())],
                        _ => (rng.below(20_000) as f32 - 10_000.0) * 0.013,
                    })
                    .collect();
                let got = slice_max_abs_finite(&src);
                let want = max_abs_finite_scalar(&src);
                assert_eq!(got.to_bits(), want.to_bits(), "len {len} case {case}");
            }
        }
    }

    #[test]
    fn scale_helpers_match_int8_contract() {
        assert!((scale_for_max_abs(12.7) - 0.1).abs() < 1e-6);
        assert!(scale_for_max_abs(0.0) > 0.0);
        assert!(scale_for_max_abs(f32::INFINITY).is_finite());
        assert_eq!(
            slice_max_abs_finite(&[1.0, f32::NAN, -3.0, f32::INFINITY]),
            3.0
        );
        assert_eq!(slice_max_abs_finite(&[f32::NAN]), 0.0);
    }
}
