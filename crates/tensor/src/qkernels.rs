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
//! hand-vectorized AVX2 body. [`matmul_i8_nt`] follows the `linalg`
//! `block_rows` pattern with a hand-vectorized AVX2 body: `i8` operands are
//! widened to `i16` lanes and accumulated with `pmaddwd` into `i32`. The
//! planned convolution's implicit GEMM computes blocks of 16 output
//! channels as outer products with tiles of output pixels read from a
//! channels-last input plane, and picks its body at run time: AVX-512 VNNI
//! (`vpdpwssd`), AVX2 (`pmaddwd` + `paddd`) or portable ([`int8_conv_simd`]
//! names the one in use). Integer arithmetic is exact, so every SIMD body
//! is bit-identical to its portable twin regardless of accumulation order.

use crate::kernels::simd_kernel;
#[cfg(doc)]
use crate::pack::PackedConvI16;
use crate::pack::CONV_LANES;

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
pub fn slice_max_abs_finite(values: &[f32]) -> f32 {
    values
        .iter()
        .filter(|v| v.is_finite())
        .fold(0.0f32, |m, &x| m.max(x.abs()))
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

/// Eight lanes of [`quantize_raw`] at a time. With `v = x / scale` (the same
/// IEEE division) and `t = trunc(v)`, `v - t` is exact, so
/// `t + copysign(1, v)` where `|v - t| >= 0.5`, else `t`, is exactly
/// `v.round()` (ties away from zero) for every finite `v`. ±∞ keeps
/// `t = ±∞` (its `v - t` is NaN, which fails the compare) and clamps to
/// ±127; NaN lanes are zeroed, matching the saturating cast.
///
/// # Safety
///
/// The CPU must support AVX2, and `dst` must be at least as long as `src`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_slice_avx2(src: &[f32], scale: f32, dst: &mut [i8]) {
    use std::arch::x86_64::*;
    let n8 = src.len() - src.len() % 8;
    let vscale = _mm256_set1_ps(scale);
    let sign = _mm256_set1_ps(-0.0);
    let (half, one) = (_mm256_set1_ps(0.5), _mm256_set1_ps(1.0));
    let (lo, hi) = (_mm256_set1_ps(-(QMAX as f32)), _mm256_set1_ps(QMAX as f32));
    for i in (0..n8).step_by(8) {
        let v = _mm256_div_ps(_mm256_loadu_ps(src.as_ptr().add(i)), vscale);
        let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(v);
        let frac = _mm256_andnot_ps(sign, _mm256_sub_ps(v, t));
        let away = _mm256_or_ps(one, _mm256_and_ps(sign, v));
        let r = _mm256_add_ps(
            t,
            _mm256_and_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(frac, half), away),
        );
        let r = _mm256_and_ps(r, _mm256_cmp_ps::<_CMP_ORD_Q>(v, v));
        let q = _mm256_cvttps_epi32(_mm256_min_ps(_mm256_max_ps(r, lo), hi));
        let q16 = _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256::<1>(q));
        _mm_storel_epi64(
            dst.as_mut_ptr().add(i) as *mut __m128i,
            _mm_packs_epi16(q16, q16),
        );
    }
    quantize_slice_impl(&src[n8..], scale, &mut dst[n8..]);
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
    use std::arch::x86_64::*;

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
    /// Lanes per kernel-row segment ([`PackedConvI16::seg`]): `kw * cg`
    /// rounded up to an even count.
    pub seg: usize,
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

    /// Panel words of one block of [`CONV_LANES`] output channels.
    fn block_len(&self) -> usize {
        self.kh * self.seg * CONV_LANES
    }
}

/// The bodies of [`conv_i16_implicit`]. All three walk the same
/// [`PackedConvI16`] layout and compute the same exact integer sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConvBody {
    /// `vpdpwssd` into one 16-lane `zmm` accumulator per pixel.
    Avx512Vnni,
    /// `vpmaddwd` + `vpaddd` into two 8-lane `ymm` halves per pixel, or the
    /// low half alone for a block of at most 8 channels.
    Avx2,
    /// Plain loops: the reference the SIMD bodies are tested against.
    Portable,
}

impl ConvBody {
    /// Every body, fastest first.
    pub(crate) const ALL: [ConvBody; 3] = [Self::Avx512Vnni, Self::Avx2, Self::Portable];

    /// Whether this CPU can run the body.
    pub(crate) fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            match self {
                Self::Avx512Vnni => has!("avx512f") && has!("avx512vnni"),
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

/// Implicit-GEMM INT8 convolution of one sample group:
/// `acc[r][p] = Σ_ky Σ_l w[r][ky][l] · plane[base(p) + ky·wp·cg + l]`
/// for `rows` output channels of one group of a [`PackedConvI16`] panel and
/// every output pixel `p`, read straight from the channels-last `plane` — no
/// im2row matrix, no gather map.
///
/// Each block of 16 channels is an outer product with a tile of pixels: per
/// kernel row and k-pair, one vector of the 16 channels' weight pairs meets
/// each pixel's broadcast input pair in one multiply-add, so every
/// accumulator lane is one channel's running sum and no horizontal
/// reduction is left. The tile is stored transposed into `acc[r][p]`.
///
/// Each sum is an exact integer dot product over the same `cg·kh·kw` real
/// products as the im2row GEMM of [`conv2d_q`](crate::conv2d_q), plus pad
/// lanes and pad rows whose panel words are zero, so every body is
/// bit-identical to it and to the others. Counts as one integer GEMM.
///
/// # Panics
///
/// Panics if `plane`, `panel` or `acc` is shorter than the geometry needs,
/// or if the reduction could overflow the `i32` accumulator.
pub(crate) fn conv_i16_implicit(
    plane: &[i16],
    panel: &[i16],
    rows: usize,
    geo: &PlaneConv,
    acc: &mut [i32],
) {
    crate::opcount::count_matmul_i8();
    conv_implicit_on(ConvBody::detect(), plane, panel, rows, geo, acc);
}

/// [`conv_i16_implicit`] on a chosen body.
///
/// # Panics
///
/// As [`conv_i16_implicit`], and if the CPU does not support `body`.
fn conv_implicit_on(
    body: ConvBody,
    plane: &[i16],
    panel: &[i16],
    rows: usize,
    geo: &PlaneConv,
    acc: &mut [i32],
) {
    assert!(geo.seg.is_multiple_of(2) && geo.seg > 0, "bad segment");
    assert!(geo.oh * geo.ow > 0, "empty output");
    assert!(plane.len() >= geo.plane_reach(), "plane too short");
    assert!(
        panel.len() >= rows.div_ceil(CONV_LANES) * geo.block_len(),
        "panel too short"
    );
    assert!(acc.len() >= rows * geo.oh * geo.ow, "accumulator too short");
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
        ConvBody::Avx512Vnni => unsafe { conv_implicit_vnni(plane, panel, rows, geo, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        ConvBody::Avx2 => unsafe { conv_implicit_avx2(plane, panel, rows, geo, acc) },
        _ => conv_implicit_portable(plane, panel, rows, geo, acc),
    }
}

/// Lanes of one channel's kernel row that [`conv_implicit_portable`]
/// de-interleaves at a time; even, so no k-pair is split.
const PORTABLE_LANES: usize = 256;

/// Portable body: per output channel and kernel row, copies the channel's
/// weight pairs out of its block into a contiguous run (in chunks of
/// [`PORTABLE_LANES`]), then takes one contiguous dot product per pixel,
/// which the compiler vectorizes.
fn conv_implicit_portable(
    plane: &[i16],
    panel: &[i16],
    rows: usize,
    geo: &PlaneConv,
    acc: &mut [i32],
) {
    let (ohw, ky_step) = (geo.oh * geo.ow, geo.wp * geo.cg);
    let mut w = [0i16; PORTABLE_LANES];
    for (r, acc) in acc[..rows * ohw].chunks_exact_mut(ohw).enumerate() {
        acc.fill(0);
        let (block, lane) = (r / CONV_LANES, 2 * (r % CONV_LANES));
        let block = &panel[block * geo.block_len()..][..geo.block_len()];
        for (ky, wk) in block.chunks_exact(geo.seg * CONV_LANES).enumerate() {
            for (c, wc) in wk.chunks(PORTABLE_LANES * CONV_LANES).enumerate() {
                let w = &mut w[..wc.len() / CONV_LANES];
                for (d, s) in w.chunks_exact_mut(2).zip(wc.chunks_exact(2 * CONV_LANES)) {
                    d.copy_from_slice(&s[lane..][..2]);
                }
                let xo = ky * ky_step + c * PORTABLE_LANES;
                for (p, a) in acc.iter_mut().enumerate() {
                    let x = &plane[geo.base(p) + xo..][..w.len()];
                    let dot: i32 = w.iter().zip(x).map(|(&w, &x)| w as i32 * x as i32).sum();
                    *a += dot;
                }
            }
        }
    }
}

/// Pixels per AVX-512 tile: one `zmm` accumulator each.
#[cfg(target_arch = "x86_64")]
const VNNI_PIXELS: usize = 16;

/// AVX-512 VNNI body: per 16-channel block, tiles of [`VNNI_PIXELS`]
/// pixels, then 1-pixel tiles for the rest.
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512 VNNI, and the slices must
/// cover the geometry as [`conv_implicit_on`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
unsafe fn conv_implicit_vnni(
    plane: &[i16],
    panel: &[i16],
    rows: usize,
    geo: &PlaneConv,
    acc: &mut [i32],
) {
    let ohw = geo.oh * geo.ow;
    for (block, r0) in (0..rows).step_by(CONV_LANES).enumerate() {
        let w = panel.as_ptr().add(block * geo.block_len());
        let tile = Tile {
            r0,
            rows: (rows - r0).min(CONV_LANES),
        };
        let mut p = 0;
        while p + VNNI_PIXELS <= ohw {
            vnni_tile::<VNNI_PIXELS>(plane, w, tile, p, geo, acc);
            p += VNNI_PIXELS;
        }
        while p < ohw {
            vnni_tile::<1>(plane, w, tile, p, geo, acc);
            p += 1;
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

/// Stores a tile's `[pixel][channel]` sums transposed into `acc[r][p]`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn store_transposed<const P: usize>(
    sums: &[[i32; CONV_LANES]; P],
    tile: Tile,
    p0: usize,
    ohw: usize,
    acc: &mut [i32],
) {
    for r in 0..tile.rows {
        let dst = &mut acc[(tile.r0 + r) * ohw + p0..][..P];
        for (d, s) in dst.iter_mut().zip(sums) {
            *d = s[r];
        }
    }
}

/// One block × `P`-pixel tile of the AVX-512 VNNI body.
///
/// # Safety
///
/// As [`conv_implicit_vnni`], with `w` the block's first panel word and
/// `p0 + P` at most `oh * ow`: every plane read then ends by
/// `geo.plane_reach()`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn vnni_tile<const P: usize>(
    plane: &[i16],
    w: *const i16,
    tile: Tile,
    p0: usize,
    geo: &PlaneConv,
    acc: &mut [i32],
) {
    use std::arch::x86_64::*;

    let x: [*const i16; P] = std::array::from_fn(|j| plane.as_ptr().add(geo.base(p0 + j)));
    let mut a = [_mm512_setzero_si512(); P];
    let mut wk = w;
    for ky in 0..geo.kh {
        let xo = ky * geo.wp * geo.cg;
        let mut l = 0;
        while l < geo.seg {
            let wv = _mm512_loadu_si512(wk as *const __m512i);
            wk = wk.add(2 * CONV_LANES);
            for j in 0..P {
                let pair = (x[j].add(xo + l) as *const i32).read_unaligned();
                a[j] = _mm512_dpwssd_epi32(a[j], wv, _mm512_set1_epi32(pair));
            }
            l += 2;
        }
    }
    let ohw = geo.oh * geo.ow;
    if let Ok(a) = <&[__m512i; 16]>::try_from(&a[..]) {
        for (r, v) in transpose_16x16(a).into_iter().enumerate().take(tile.rows) {
            let dst = &mut acc[(tile.r0 + r) * ohw + p0..][..16];
            _mm512_storeu_si512(dst.as_mut_ptr() as *mut __m512i, v);
        }
        return;
    }
    let mut sums = [[0i32; CONV_LANES]; P];
    for (s, v) in sums.iter_mut().zip(a) {
        _mm512_storeu_si512(s.as_mut_ptr() as *mut __m512i, v);
    }
    store_transposed(&sums, tile, p0, ohw, acc);
}

/// Transposes 16 vectors of 16 `i32` lanes: lane `j` of output `r` is lane
/// `r` of input `j`. Within each 128-bit lane, two rounds of unpacks
/// transpose 4×4 blocks; two rounds of 128-bit lane shuffles then put the
/// blocks in place.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose_16x16(
    a: &[std::arch::x86_64::__m512i; 16],
) -> [std::arch::x86_64::__m512i; 16] {
    use std::arch::x86_64::*;
    // b[2m], b[2m+1]: lane pairs (4L, 4L+1) and (4L+2, 4L+3) of a[2m],
    // a[2m+1], interleaved.
    let b: [__m512i; 16] = std::array::from_fn(|j| {
        let (x, y) = (a[j & !1], a[j | 1]);
        if j % 2 == 0 {
            _mm512_unpacklo_epi32(x, y)
        } else {
            _mm512_unpackhi_epi32(x, y)
        }
    });
    // c[4n+q], 128-bit lane L: lane 4L+q of a[4n..4n+4].
    let c: [__m512i; 16] = std::array::from_fn(|j| {
        let (n4, q) = (j & !3, j % 4);
        let (x, y) = (b[n4 + q / 2], b[n4 + q / 2 + 2]);
        if q % 2 == 0 {
            _mm512_unpacklo_epi64(x, y)
        } else {
            _mm512_unpackhi_epi64(x, y)
        }
    });
    // Output 4L+q gathers 128-bit lane L of c[q], c[4+q], c[8+q], c[12+q].
    let even = |x, y| _mm512_shuffle_i32x4::<0b10_00_10_00>(x, y);
    let odd = |x, y| _mm512_shuffle_i32x4::<0b11_01_11_01>(x, y);
    let mut out = [_mm512_setzero_si512(); 16];
    for q in 0..4 {
        let (d0, d1) = (even(c[q], c[4 + q]), odd(c[q], c[4 + q]));
        let (d2, d3) = (even(c[8 + q], c[12 + q]), odd(c[8 + q], c[12 + q]));
        out[q] = even(d0, d2);
        out[4 + q] = even(d1, d3);
        out[8 + q] = odd(d0, d2);
        out[12 + q] = odd(d1, d3);
    }
    out
}

/// Pixels per AVX2 tile of a two-half block (16 accumulators would not fit
/// the 16 `ymm` registers) and of a low-half block.
#[cfg(target_arch = "x86_64")]
const AVX2_PIXELS: (usize, usize) = (4, 8);

/// AVX2 body: per block, tiles of two 8-channel `ymm` halves, or of the low
/// half alone when the block holds at most 8 channels (its high half is all
/// pad rows), then 1-pixel tiles for the rest.
///
/// # Safety
///
/// The CPU must support AVX2, and the slices must cover the geometry as
/// [`conv_implicit_on`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn conv_implicit_avx2(
    plane: &[i16],
    panel: &[i16],
    rows: usize,
    geo: &PlaneConv,
    acc: &mut [i32],
) {
    let ohw = geo.oh * geo.ow;
    for (block, r0) in (0..rows).step_by(CONV_LANES).enumerate() {
        let w = panel.as_ptr().add(block * geo.block_len());
        let tile = Tile {
            r0,
            rows: (rows - r0).min(CONV_LANES),
        };
        let mut p = 0;
        if tile.rows > CONV_LANES / 2 {
            while p + AVX2_PIXELS.0 <= ohw {
                avx2_tile::<2, { AVX2_PIXELS.0 }>(plane, w, tile, p, geo, acc);
                p += AVX2_PIXELS.0;
            }
            while p < ohw {
                avx2_tile::<2, 1>(plane, w, tile, p, geo, acc);
                p += 1;
            }
        } else {
            while p + AVX2_PIXELS.1 <= ohw {
                avx2_tile::<1, { AVX2_PIXELS.1 }>(plane, w, tile, p, geo, acc);
                p += AVX2_PIXELS.1;
            }
            while p < ohw {
                avx2_tile::<1, 1>(plane, w, tile, p, geo, acc);
                p += 1;
            }
        }
    }
}

/// One block × `P`-pixel tile of the AVX2 body over the block's first `H`
/// 8-channel halves.
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
    acc: &mut [i32],
) {
    use std::arch::x86_64::*;

    let x: [*const i16; P] = std::array::from_fn(|j| plane.as_ptr().add(geo.base(p0 + j)));
    let mut a = [[_mm256_setzero_si256(); P]; H];
    let mut wk = w;
    for ky in 0..geo.kh {
        let xo = ky * geo.wp * geo.cg;
        let mut l = 0;
        while l < geo.seg {
            let wv: [__m256i; H] = std::array::from_fn(|h| {
                _mm256_loadu_si256(wk.add(h * CONV_LANES) as *const __m256i)
            });
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
    let mut sums = [[0i32; CONV_LANES]; P];
    for j in 0..P {
        for h in 0..H {
            _mm256_storeu_si256(sums[j].as_mut_ptr().add(h * 8) as *mut __m256i, a[h][j]);
        }
    }
    store_transposed(&sums, tile, p0, geo.oh * geo.ow, acc);
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn implicit_conv_bodies_match_direct_sums() {
        use crate::pack::PackedConvI16;
        let bodies: Vec<ConvBody> = ConvBody::ALL
            .into_iter()
            .filter(|b| b.supported())
            .collect();
        assert!(bodies.contains(&ConvBody::detect()));
        // (rows, cg, kh, kw, stride, oh, ow): one, 8 (a low-half AVX2
        // block), 9, 16, 17 and 33 rows (second and third blocks of 1 row);
        // pixel counts off every tile width; odd `kw * cg` (a pad lane);
        // stride 2; multi-vector segments; a segment longer than the
        // portable body's chunk.
        for &(rows, cg, kh, kw, stride, oh, ow) in &[
            (1usize, 1usize, 1usize, 1usize, 1usize, 1usize, 1usize),
            (8, 3, 3, 3, 1, 4, 5),
            (9, 5, 1, 1, 2, 3, 7),
            (16, 8, 3, 3, 1, 4, 4),
            (17, 7, 5, 5, 2, 2, 3),
            (33, 32, 3, 3, 1, 3, 6),
            (16, 16, 3, 3, 2, 5, 5),
            (8, 8, 3, 3, 1, 3, 11),
            (3, 87, 2, 3, 1, 2, 3),
        ] {
            let seg = (kw * cg).next_multiple_of(2);
            let wp = (ow - 1) * stride + kw;
            let geo = PlaneConv {
                wp,
                cg,
                stride,
                kh,
                seg,
                oh,
                ow,
            };
            // Inputs span ±127 and the weights reach -128 (a faulted word).
            // The plane is exactly the reach long; words past it in the
            // same buffer are poison that any over-read would pick up.
            let reach = geo.plane_reach();
            let mut buf: Vec<i16> = probe_i8(reach, 41 + rows as u64)
                .into_iter()
                .enumerate()
                .map(|(i, v)| match i % 5 {
                    0 => 127,
                    1 => -127,
                    _ => i16::from(v),
                })
                .collect();
            buf.resize(reach + 64, i16::MAX);
            let plane = &buf[..reach];
            let mut words = probe_i8(rows * cg * kh * kw, 43 + cg as u64);
            for w in words.iter_mut().step_by(3) {
                *w = i8::MIN;
            }
            let panel = PackedConvI16::pack(&words, [rows, cg, kh, kw], 1);
            let ohw = oh * ow;
            let mut want = vec![0i32; rows * ohw];
            for r in 0..rows {
                for p in 0..ohw {
                    let (oy, ox) = (p / ow, p % ow);
                    for c in 0..cg {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let x =
                                    plane[((oy * stride + ky) * wp + ox * stride + kx) * cg + c];
                                let w = words[((r * cg + c) * kh + ky) * kw + kx];
                                want[r * ohw + p] += x as i32 * w as i32;
                            }
                        }
                    }
                }
            }
            let case = format!("{rows}x{cg}x{kh}x{kw}/{stride} -> {oh}x{ow}");
            for &body in &bodies {
                // A sentinel past the accumulator must survive.
                let mut got = vec![7i32; rows * ohw + 1];
                conv_implicit_on(body, plane, panel.data(), rows, &geo, &mut got);
                assert_eq!(got[..rows * ohw], want[..], "{body:?} {case}");
                assert_eq!(got[rows * ohw], 7, "{body:?} {case}: wrote past acc");
            }
        }

        // Every word at its extreme: the largest sums any body meets.
        let geo = PlaneConv {
            wp: 6,
            cg: 32,
            stride: 1,
            kh: 3,
            seg: 96,
            oh: 4,
            ow: 4,
        };
        let plane = vec![127i16; geo.plane_reach()];
        let panel = PackedConvI16::pack(&vec![i8::MIN; 17 * 32 * 9], [17, 32, 3, 3], 1);
        for &body in &bodies {
            let mut got = vec![0i32; 17 * 16];
            conv_implicit_on(body, &plane, panel.data(), 17, &geo, &mut got);
            assert!(got.iter().all(|&s| s == 288 * 127 * -128), "{body:?}");
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
