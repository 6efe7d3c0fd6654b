//! Stored-INT8 tensors and the quantized convolution / linear kernels.
//!
//! [`QTensor`] is contiguous `i8` storage plus a per-tensor or per-channel
//! (axis 0) scale vector. [`conv2d_q`] and [`linear_q`] run real integer
//! inference on it: the f32 input is quantized once against a *static*
//! calibrated scale, lowered with an `i8` im2row, multiplied with the
//! AVX2-dispatched [`matmul_i8_nt`] kernel, and dequantized back to f32 with
//! the combined input×weight scale plus the f32 bias. Every float→int
//! conversion goes through [`qkernels`](crate::qkernels), so the stored words
//! match the f32 quantization simulation bit for bit.
//!
//! The compiled-plan twin [`conv2d_q_planned`] skips the im2row lowering
//! altogether and touches each activation twice: a prologue quantizes each
//! sample straight into a zero-padded, channels-last `i16` plane, and an
//! implicit GEMM reads every receptive field in place against a
//! [`PackedConvI16`] panel, dequantizing (with bias, folded batch-norm and
//! activation) as it stores each output tile. Integer accumulation is
//! exact, so both paths produce the same bits.
//!
//! All kernels are element-independent per batch sample (the input scale is
//! static, not derived from the batch), so a batched forward over duplicated
//! samples produces each slice bit-identical to a batch-1 forward — the
//! property trial fusion relies on.
//!
//! Scratch buffers come from a thread-local cache like the f32 conv path
//! (`i8`/`i16`/`i32` slabs cannot live in the f32 tensor pool), so warmed
//! quantized forwards allocate nothing.

use crate::conv::ConvSpec;
use crate::pack::{Act, BnFoldView, PackedConvI16};
use crate::qkernels::{
    conv_i16_implicit, dequant_bias_row, dequant_bias_rows, dequantize_slice, matmul_i8_nt,
    quantize_plane, quantize_slice, requantize_slice, scale_for_max_abs, slice_max_abs_finite,
    ConvBody, InputPlane, PlaneConv, QEpilogue,
};
use crate::tensor::Tensor;

/// A quantized tensor: contiguous `i8` words plus the scale(s) that map them
/// back to f32.
///
/// `scales` holds either one per-tensor scale or one scale per slice of
/// axis 0 (per-output-channel for conv/linear weights).
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    data: Vec<i8>,
    dims: Vec<usize>,
    scales: Vec<f32>,
}

impl QTensor {
    /// Quantizes `t` with one dynamic-range scale for the whole tensor.
    pub fn quantize_per_tensor(t: &Tensor) -> Self {
        let scale = scale_for_max_abs(slice_max_abs_finite(t.data()));
        let mut data = vec![0i8; t.len()];
        quantize_slice(t.data(), scale, &mut data);
        Self {
            data,
            dims: t.dims().to_vec(),
            scales: vec![scale],
        }
    }

    /// Quantizes `t` with one dynamic-range scale per slice of axis 0
    /// (the output-channel axis for `[oc, ...]` weight tensors).
    ///
    /// # Panics
    ///
    /// Panics on a rank-0 or empty tensor.
    pub fn quantize_per_channel(t: &Tensor) -> Self {
        let channels = *t.dims().first().expect("rank >= 1");
        assert!(channels > 0, "cannot per-channel quantize an empty tensor");
        let stride = t.len() / channels;
        let mut data = vec![0i8; t.len()];
        let mut scales = Vec::with_capacity(channels);
        for (c, dst) in data.chunks_exact_mut(stride).enumerate() {
            let src = &t.data()[c * stride..(c + 1) * stride];
            let scale = scale_for_max_abs(slice_max_abs_finite(src));
            quantize_slice(src, scale, dst);
            scales.push(scale);
        }
        Self {
            data,
            dims: t.dims().to_vec(),
            scales,
        }
    }

    /// The stored words.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Mutable access to the stored words — this is where quantized-domain
    /// fault injection flips bits.
    pub fn data_mut(&mut self) -> &mut [i8] {
        &mut self.data
    }

    /// The dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of stored words.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no words.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether the tensor carries one scale per axis-0 slice.
    pub fn is_per_channel(&self) -> bool {
        self.scales.len() > 1
    }

    /// The scale vector (length 1 or `dims[0]`).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The scale of axis-0 slice `c` (the per-tensor scale if uniform).
    pub fn channel_scale(&self, c: usize) -> f32 {
        if self.scales.len() == 1 {
            self.scales[0]
        } else {
            self.scales[c]
        }
    }

    /// The scale that applies to the word at flat index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn scale_for_index(&self, idx: usize) -> f32 {
        assert!(idx < self.data.len(), "index {idx} out of bounds");
        let stride = self.data.len() / self.scales.len().max(1);
        self.channel_scale(idx / stride.max(1))
    }

    /// Dequantizes back to an f32 tensor.
    pub fn dequantize(&self) -> Tensor {
        let mut out = Tensor::from_pool(self.dims());
        let stride = self.data.len() / self.scales.len().max(1);
        for (c, &scale) in self.scales.iter().enumerate() {
            dequantize_slice(
                &self.data[c * stride..(c + 1) * stride],
                scale,
                &mut out.data_mut()[c * stride..(c + 1) * stride],
            );
        }
        out
    }

    /// Re-grids every word onto new per-slice scales (same layout as
    /// [`scales`](Self::scales)).
    ///
    /// # Panics
    ///
    /// Panics if `new_scales` has a different length than the current scale
    /// vector or contains a non-positive scale.
    pub fn requantize(&mut self, new_scales: &[f32]) {
        assert_eq!(new_scales.len(), self.scales.len(), "scale layout change");
        let stride = self.data.len() / self.scales.len().max(1);
        for (c, &s_out) in new_scales.iter().enumerate() {
            let words = &mut self.data[c * stride..(c + 1) * stride];
            let s_in = self.scales[c];
            // In-place: requantize_slice reads each word before writing it.
            let src: Vec<i8> = words.to_vec();
            requantize_slice(&src, s_in, s_out, words);
            self.scales[c] = s_out;
        }
    }
}

/// This thread's reusable quantized-kernel scratch (none of which can live
/// in the f32 tensor pool): the unplanned paths' `i8` input words, im2row
/// matrix and `i32` accumulators, and the planned conv's `i16` input plane
/// and (for a strided 1×1 conv) the f32 input pixels it reads.
struct QScratch {
    qin: Vec<i8>,
    rows: Vec<i8>,
    plane: Vec<i16>,
    picked: Vec<f32>,
    acc: Vec<i32>,
}

/// The first `len` elements of `v`, growing it first if needed. Buffers only
/// grow, so once a forward has seen its largest shape, warmed forwards over
/// any mix of shapes allocate nothing.
fn grown<T: Copy + Default>(v: &mut Vec<T>, len: usize) -> &mut [T] {
    if v.len() < len {
        v.resize(len, T::default());
    }
    &mut v[..len]
}

/// Runs `f` with this thread's [`QScratch`]. Mirrors the f32 conv scratch:
/// stale contents are harmless because every kernel overwrites (or
/// zero-fills) the elements it exposes.
fn with_q_scratch<R>(f: impl FnOnce(&mut QScratch) -> R) -> R {
    use std::cell::RefCell;
    thread_local! {
        static SCRATCH: RefCell<QScratch> = const {
            RefCell::new(QScratch {
                qin: Vec::new(),
                rows: Vec::new(),
                plane: Vec::new(),
                picked: Vec::new(),
                acc: Vec::new(),
            })
        };
    }
    SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// Lowers one sample's group slice of the quantized input into an im2row
/// matrix of shape `[oh*ow, cg*kh*kw]` — one receptive-field patch per row,
/// the transposed-`b` layout [`matmul_i8_nt`] wants. Zero-fills first, then
/// scatters the in-bounds elements, so padding needs no special casing.
#[allow(clippy::too_many_arguments)]
fn im2row_i8(
    qin: &[i8],
    h: usize,
    w: usize,
    c_start: usize,
    cg: usize,
    kh: usize,
    kw: usize,
    spec: &ConvSpec,
    oh: usize,
    ow: usize,
    rows: &mut [i8],
) {
    let kcols = cg * kh * kw;
    assert_eq!(rows.len(), oh * ow * kcols, "im2row scratch size");
    rows.fill(0);
    for c in 0..cg {
        let fm = &qin[(c_start + c) * h * w..(c_start + c + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let col = (c * kh + ky) * kw + kx;
                for oy in 0..oh {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let src = &fm[iy as usize * w..(iy as usize + 1) * w];
                    for ox in 0..ow {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        rows[(oy * ow + ox) * kcols + col] = src[ix as usize];
                    }
                }
            }
        }
    }
}

/// Quantized 2-D convolution: integer GEMM over stored `i8` words.
///
/// - `input`: f32 `[n, c, h, w]`, quantized internally against the static
///   calibrated `input_scale` (out-of-range activations saturate at ±127)
/// - `qweight`: per-channel quantized `[oc, c/groups, kh, kw]`
/// - `bias`: f32 `[oc]`, added after dequantization
///
/// Returns f32 `[n, oc, oh, ow]` like [`conv2d`](crate::conv2d).
///
/// # Panics
///
/// Panics if shapes, the spec, or `input_scale` are inconsistent.
pub fn conv2d_q(
    input: &Tensor,
    qweight: &QTensor,
    bias: &Tensor,
    spec: &ConvSpec,
    input_scale: f32,
) -> Tensor {
    crate::opcount::count_conv2d();
    let (n, c, h, w) = input.dims4();
    let wd = qweight.dims();
    assert_eq!(wd.len(), 4, "weight must be rank 4");
    let (oc, wc, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    assert!(spec.groups > 0 && spec.stride > 0, "bad conv spec");
    assert_eq!(c % spec.groups, 0, "in_channels not divisible by groups");
    assert_eq!(oc % spec.groups, 0, "out_channels not divisible by groups");
    assert_eq!(wc, c / spec.groups, "weight channel mismatch");
    assert_eq!(bias.len(), oc, "bias length != out_channels");
    assert!(input_scale > 0.0, "input scale must be positive");
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let cg = c / spec.groups;
    let og = oc / spec.groups;
    let kcols = cg * kh * kw;
    let ohw = oh * ow;
    let chw = c * h * w;

    let bdata = bias.data();
    let spec = *spec;

    // Fully overwritten below, so the buffer may come from the pool dirty.
    let mut out = Tensor::from_pool(&[n, oc, oh, ow]);
    let batch_stride = oc * ohw;

    // Batch elements are independent, so a split that forks fans them
    // across threads, each reusing one scratch set for its run of batches.
    let total_macs = n * oc * ohw * kcols;
    crate::parallel::for_each_chunk_mut(
        out.data_mut(),
        batch_stride,
        total_macs,
        |start, _, slab| {
            with_q_scratch(|s| {
                let qin = grown(&mut s.qin, chw);
                let rows = grown(&mut s.rows, ohw * kcols);
                let acc = grown(&mut s.acc, og * ohw);
                for (i, out_bn) in slab.chunks_exact_mut(batch_stride).enumerate() {
                    // One static-scale quantization of this sample's input slab;
                    // every group's im2row reads from it.
                    let bn = start + i;
                    quantize_slice(&input.data()[bn * chw..(bn + 1) * chw], input_scale, qin);
                    for g in 0..spec.groups {
                        im2row_i8(qin, h, w, g * cg, cg, kh, kw, &spec, oh, ow, rows);
                        let wslab = &qweight.data()[g * og * kcols..(g + 1) * og * kcols];
                        matmul_i8_nt(wslab, rows, acc, og, kcols, ohw);
                        for o in 0..og {
                            let oc_idx = g * og + o;
                            dequant_bias_row(
                                &acc[o * ohw..(o + 1) * ohw],
                                input_scale * qweight.channel_scale(oc_idx),
                                bdata[oc_idx],
                                &mut out_bn[oc_idx * ohw..(oc_idx + 1) * ohw],
                            );
                        }
                    }
                }
            })
        },
    );
    out
}

/// Quantized 2-D convolution through a compiled plan, as an implicit GEMM
/// that touches each activation once on the way in and once on the way
/// out:
///
/// - **Prologue.** Each sample's f32 input is quantized straight into a
///   zero-padded, channels-last `i16` plane (one region per group). A 1×1
///   conv with stride `s > 1` and no padding reads only the input pixels
///   `(y·s, x·s)`, so it quantizes just those into an `oh × ow` plane and
///   runs at stride 1: the same words meet the same weights.
/// - **Kernel.** The integer kernel reads every output pixel's receptive
///   field in place from the plane against the [`PackedConvI16`] weight
///   panel: there is no im2row matrix and no gather map.
/// - **Epilogue.** The kernel writes f32 outputs as it stores each tile,
///   applying dequantize + bias, the optional folded batch-norm and the
///   activation to its sums; no `i32` accumulator slab is written.
///
/// Bit-identical to [`conv2d_q`] followed by the standalone batch-norm /
/// activation kernels: the plane holds the words `quantize_slice` makes
/// (one rounding rule), integer accumulation is exact in any order, and
/// the epilogue replicates the serial per-element op order with the same
/// `input_scale * channel_scale(c)` scale.
///
/// # Panics
///
/// Panics if shapes, the spec, the panel, or `input_scale` are
/// inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_q_planned(
    input: &Tensor,
    qweight: &QTensor,
    panel: &PackedConvI16,
    bias: &Tensor,
    spec: &ConvSpec,
    input_scale: f32,
    bn: Option<BnFoldView<'_>>,
    act: Act,
) -> Tensor {
    conv2d_q_planned_on(
        ConvBody::detect(),
        input,
        qweight,
        panel,
        bias,
        spec,
        input_scale,
        bn,
        act,
    )
}

/// [`conv2d_q_planned`] on a chosen kernel body (and its prologue path).
///
/// # Panics
///
/// As [`conv2d_q_planned`], and if the CPU does not support `body`.
#[allow(clippy::too_many_arguments)]
fn conv2d_q_planned_on(
    body: ConvBody,
    input: &Tensor,
    qweight: &QTensor,
    panel: &PackedConvI16,
    bias: &Tensor,
    spec: &ConvSpec,
    input_scale: f32,
    bn: Option<BnFoldView<'_>>,
    act: Act,
) -> Tensor {
    crate::opcount::count_conv2d();
    let (n, c, h, w) = input.dims4();
    let wd = qweight.dims();
    assert_eq!(wd.len(), 4, "weight must be rank 4");
    let (oc, wc, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    assert!(spec.groups > 0 && spec.stride > 0, "bad conv spec");
    assert_eq!(c % spec.groups, 0, "in_channels not divisible by groups");
    assert_eq!(oc % spec.groups, 0, "out_channels not divisible by groups");
    assert_eq!(wc, c / spec.groups, "weight channel mismatch");
    assert_eq!(bias.len(), oc, "bias length != out_channels");
    assert!(input_scale > 0.0, "input scale must be positive");
    assert_eq!(
        (panel.dims(), panel.groups()),
        ([oc, wc, kh, kw], spec.groups),
        "panel shape mismatch"
    );
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let cg = c / spec.groups;
    let og = oc / spec.groups;
    let ohw = oh * ow;
    let chw = c * h * w;
    let picks = kh == 1 && kw == 1 && spec.padding == 0 && spec.stride > 1;
    let (ph, pw, stride) = if picks {
        (oh, ow, 1)
    } else {
        (h, w, spec.stride)
    };
    let lay = InputPlane {
        groups: spec.groups,
        cg,
        h: ph,
        w: pw,
        pad: spec.padding,
    };
    let geo = PlaneConv {
        wp: lay.wp(),
        cg,
        stride,
        kh,
        kw,
        seg: panel.seg(),
        pairs: panel.pairs(),
        oh,
        ow,
    };
    let gplane = lay.group_len();
    // The last group's reads may run up to one segment past its region.
    let plane_len = (spec.groups - 1) * gplane + geo.plane_reach().max(gplane);
    let glen = panel.group_len();

    // The kernel writes every element exactly once, so the buffer may come
    // from the pool dirty.
    let mut out = Tensor::from_pool(&[n, oc, oh, ow]);
    let batch_stride = oc * ohw;

    // Planned kernels see batch > 1 only in fused campaign trials, whose
    // workers never fork, so the batch loop stays on this thread.
    with_q_scratch(|s| {
        let plane = grown(&mut s.plane, plane_len);
        let picked = grown(&mut s.picked, if picks { c * ohw } else { 0 });
        for (bn_idx, out_bn) in out.data_mut().chunks_exact_mut(batch_stride).enumerate() {
            let mut x = &input.data()[bn_idx * chw..][..chw];
            if picks {
                pick_strided(x, (h, w), spec.stride, (oh, ow), picked);
                x = picked;
            }
            quantize_plane(body, x, input_scale, &lay, plane);
            for g in 0..spec.groups {
                let epi = QEpilogue {
                    input_scale,
                    w_scales: qweight.scales(),
                    bias: bias.data(),
                    bn,
                    act,
                    row0: g * og,
                };
                conv_i16_implicit(
                    body,
                    &plane[g * gplane..],
                    &panel.data()[g * glen..][..glen],
                    og,
                    &geo,
                    &epi,
                    &mut out_bn[g * og * ohw..][..og * ohw],
                );
            }
        }
    });
    out
}

/// Copies the pixels `(y·s, x·s)` of every `h × w` channel of `src` into the
/// `oh × ow` channels of `dst`.
fn pick_strided(
    src: &[f32],
    (h, w): (usize, usize),
    s: usize,
    (oh, ow): (usize, usize),
    dst: &mut [f32],
) {
    for (fm, out) in src.chunks_exact(h * w).zip(dst.chunks_exact_mut(oh * ow)) {
        // Each chunk of `s` input rows starts with input row `y·s`.
        for (rows, out) in fm.chunks(s * w).zip(out.chunks_exact_mut(ow)) {
            for (d, &v) in out.iter_mut().zip(rows.iter().step_by(s)) {
                *d = v;
            }
        }
    }
}

/// Quantized linear layer: `y = dequant(qx · qWᵀ) + bias`.
///
/// - `input`: f32 `[batch, in_features]`, quantized against the static
///   `input_scale`
/// - `qweight`: per-channel quantized `[out_features, in_features]` — the
///   natural `[out, in]` weight layout is already the transposed-`b` layout
///   the integer GEMM wants, so no transpose scratch is needed
/// - `bias`: f32 `[out_features]`
///
/// # Panics
///
/// Panics if shapes or `input_scale` are inconsistent.
pub fn linear_q(input: &Tensor, qweight: &QTensor, bias: &Tensor, input_scale: f32) -> Tensor {
    let (batch, in_f) = input.dims2();
    let wd = qweight.dims();
    assert_eq!(wd.len(), 2, "weight must be rank 2");
    let (out_f, w_in) = (wd[0], wd[1]);
    assert_eq!(w_in, in_f, "weight expects {w_in} inputs, got {in_f}");
    assert_eq!(bias.len(), out_f, "bias length != out_features");
    assert!(input_scale > 0.0, "input scale must be positive");

    let mut out = Tensor::from_pool(&[batch, out_f]);
    with_q_scratch(|s| {
        let qx = grown(&mut s.qin, batch * in_f);
        let acc = grown(&mut s.acc, batch * out_f);
        quantize_slice(input.data(), input_scale, qx);
        matmul_i8_nt(qx, qweight.data(), acc, batch, in_f, out_f);
        if qweight.is_per_channel() {
            dequant_bias_rows(
                acc,
                input_scale,
                qweight.scales(),
                bias.data(),
                out.data_mut(),
            );
        } else {
            let scale = input_scale * qweight.channel_scale(0);
            for (acc_row, out_row) in acc
                .chunks_exact(out_f)
                .zip(out.data_mut().chunks_exact_mut(out_f))
            {
                dequant_bias_row(acc_row, scale, 0.0, out_row);
                crate::kernels::add_assign(out_row, bias.data());
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d;
    use crate::qkernels::{dequantize_one, quantize_one};
    use crate::rng::SeededRng;

    #[test]
    fn qtensor_roundtrip_error_below_half_step() {
        let mut rng = SeededRng::new(5);
        let t = Tensor::rand_normal(&[4, 3, 3, 3], 0.0, 1.0, &mut rng);
        for q in [
            QTensor::quantize_per_tensor(&t),
            QTensor::quantize_per_channel(&t),
        ] {
            let back = q.dequantize();
            for (i, (&x, &y)) in t.data().iter().zip(back.data()).enumerate() {
                let step = q.scale_for_index(i);
                assert!((x - y).abs() <= step / 2.0 + 1e-6, "idx {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn per_channel_scales_track_each_slice() {
        let t = Tensor::from_vec(vec![1.0, -1.0, 100.0, 50.0], &[2, 2]);
        let q = QTensor::quantize_per_channel(&t);
        assert!(q.is_per_channel());
        assert!(q.channel_scale(1) > q.channel_scale(0) * 50.0);
        assert_eq!(q.scale_for_index(0), q.channel_scale(0));
        assert_eq!(q.scale_for_index(3), q.channel_scale(1));
        // Each slice saturates its own grid at 127.
        assert_eq!(q.data()[2], 127);
        assert_eq!(q.data()[0], 127);
    }

    #[test]
    fn stored_words_match_scalar_quantization() {
        let mut rng = SeededRng::new(6);
        let t = Tensor::rand_normal(&[3, 8], 0.0, 2.0, &mut rng);
        let q = QTensor::quantize_per_channel(&t);
        for (i, &word) in q.data().iter().enumerate() {
            assert_eq!(word, quantize_one(t.data()[i], q.scale_for_index(i)));
        }
    }

    #[test]
    fn requantize_regrids_words() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 0.5, 2.0], &[1, 4]);
        let mut q = QTensor::quantize_per_tensor(&t);
        let old_scale = q.channel_scale(0);
        let new_scale = old_scale * 2.0;
        q.requantize(&[new_scale]);
        assert_eq!(q.channel_scale(0), new_scale);
        for (i, &word) in q.data().iter().enumerate() {
            let expect = quantize_one(
                dequantize_one(quantize_one(t.data()[i], old_scale), old_scale),
                new_scale,
            );
            assert_eq!(word, expect, "idx {i}");
        }
    }

    /// Naive reference: fake-quantize input + weight, accumulate in f64-free
    /// integer space, dequantize. Exactly what conv2d_q must compute.
    fn conv2d_q_naive(
        input: &Tensor,
        qw: &QTensor,
        bias: &Tensor,
        spec: &ConvSpec,
        input_scale: f32,
    ) -> Tensor {
        let (n, c, h, w) = input.dims4();
        let (oc, _, kh, kw) = (qw.dims()[0], qw.dims()[1], qw.dims()[2], qw.dims()[3]);
        let oh = spec.out_size(h, kh);
        let ow = spec.out_size(w, kw);
        let cg = c / spec.groups;
        let og = oc / spec.groups;
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        let wstride = cg * kh * kw;
        for bn in 0..n {
            for o in 0..oc {
                let g = o / og;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc: i32 = 0;
                        for ci in 0..cg {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy =
                                        (oy * spec.stride + ky) as isize - spec.padding as isize;
                                    let ix =
                                        (ox * spec.stride + kx) as isize - spec.padding as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    let x = input.at(&[bn, g * cg + ci, iy as usize, ix as usize]);
                                    let qx = quantize_one(x, input_scale) as i32;
                                    let qv =
                                        qw.data()[o * wstride + (ci * kh + ky) * kw + kx] as i32;
                                    acc += qx * qv;
                                }
                            }
                        }
                        let v = acc as f32 * (input_scale * qw.channel_scale(o)) + bias.data()[o];
                        out.set(&[bn, o, oy, ox], v);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn conv2d_q_matches_naive_reference() {
        let mut rng = SeededRng::new(30);
        for spec in [
            ConvSpec::new().padding(1),
            ConvSpec::new().stride(2).padding(1),
            ConvSpec::new().padding(1).groups(2),
        ] {
            let x = Tensor::rand_normal(&[2, 4, 7, 7], 0.0, 1.0, &mut rng);
            let w = Tensor::rand_normal(&[4, 4 / spec.groups, 3, 3], 0.0, 0.5, &mut rng);
            let b = Tensor::rand_normal(&[4], 0.0, 0.1, &mut rng);
            let qw = QTensor::quantize_per_channel(&w);
            let scale = scale_for_max_abs(slice_max_abs_finite(x.data()));
            let fast = conv2d_q(&x, &qw, &b, &spec, scale);
            let slow = conv2d_q_naive(&x, &qw, &b, &spec, scale);
            assert_eq!(fast.dims(), slow.dims());
            for (a, e) in fast.data().iter().zip(slow.data()) {
                assert_eq!(a.to_bits(), e.to_bits(), "exact integer path");
            }
        }
    }

    #[test]
    fn conv2d_q_approximates_f32_conv() {
        let mut rng = SeededRng::new(31);
        let x = Tensor::rand_normal(&[1, 3, 8, 8], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[5, 3, 3, 3], 0.0, 0.5, &mut rng);
        let b = Tensor::rand_normal(&[5], 0.0, 0.1, &mut rng);
        let spec = ConvSpec::new().padding(1);
        let qw = QTensor::quantize_per_channel(&w);
        let scale = scale_for_max_abs(slice_max_abs_finite(x.data()));
        let qy = conv2d_q(&x, &qw, &b, &spec, scale);
        let fy = conv2d(&x, &w, &b, &spec);
        let max_abs = fy.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        for (a, e) in qy.data().iter().zip(fy.data()) {
            assert!(
                (a - e).abs() < 0.05 * max_abs.max(1.0),
                "quantized output should track f32: {a} vs {e}"
            );
        }
    }

    #[test]
    fn conv2d_q_is_batch_independent() {
        // A batched forward over duplicated samples must reproduce the
        // batch-1 result bit for bit in every slice — the fusion invariant.
        let mut rng = SeededRng::new(32);
        let x1 = Tensor::rand_normal(&[1, 3, 6, 6], 0.0, 1.0, &mut rng);
        let mut xb = Tensor::from_pool_zeroed(&[4, 3, 6, 6]);
        for bslot in 0..4 {
            xb.data_mut()[bslot * x1.len()..(bslot + 1) * x1.len()].copy_from_slice(x1.data());
        }
        let w = Tensor::rand_normal(&[4, 3, 3, 3], 0.0, 0.5, &mut rng);
        let b = Tensor::rand_normal(&[4], 0.0, 0.1, &mut rng);
        let spec = ConvSpec::new().padding(1);
        let qw = QTensor::quantize_per_channel(&w);
        let y1 = conv2d_q(&x1, &qw, &b, &spec, 0.01);
        let yb = conv2d_q(&xb, &qw, &b, &spec, 0.01);
        for bslot in 0..4 {
            assert_eq!(
                &yb.data()[bslot * y1.len()..(bslot + 1) * y1.len()],
                y1.data(),
                "slice {bslot}"
            );
        }
    }

    #[test]
    fn linear_q_matches_scalar_reference() {
        let mut rng = SeededRng::new(33);
        let x = Tensor::rand_normal(&[3, 10], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[6, 10], 0.0, 0.5, &mut rng);
        let b = Tensor::rand_normal(&[6], 0.0, 0.1, &mut rng);
        let scale = scale_for_max_abs(slice_max_abs_finite(x.data()));
        for qw in [
            QTensor::quantize_per_channel(&w),
            QTensor::quantize_per_tensor(&w),
        ] {
            let y = linear_q(&x, &qw, &b, scale);
            assert_eq!(y.dims(), &[3, 6]);
            for r in 0..3 {
                for o in 0..6 {
                    let mut acc = 0i32;
                    for k in 0..10 {
                        acc += quantize_one(x.at(&[r, k]), scale) as i32
                            * qw.data()[o * 10 + k] as i32;
                    }
                    let expect = acc as f32 * (scale * qw.channel_scale(o)) + b.data()[o];
                    let got = y.at(&[r, o]);
                    assert_eq!(got.to_bits(), expect.to_bits(), "[{r},{o}]");
                }
            }
        }
    }

    #[test]
    fn planned_conv_q_is_bit_identical_to_serial_chain() {
        let mut rng = SeededRng::new(40);
        for spec in [
            ConvSpec::new().padding(1),
            ConvSpec::new().padding(1).groups(2),
        ] {
            let x = Tensor::rand_normal(&[2, 4, 6, 6], 0.0, 1.0, &mut rng);
            let w = Tensor::rand_normal(&[4, 4 / spec.groups, 3, 3], 0.0, 0.5, &mut rng);
            let b = Tensor::rand_normal(&[4], 0.0, 0.1, &mut rng);
            let qw = QTensor::quantize_per_channel(&w);
            let scale = 0.02f32;
            let panel = PackedConvI16::pack(qw.data(), [4, 4 / spec.groups, 3, 3], spec.groups);

            // Serial chain: conv2d_q then a standalone ReLU pass.
            let mut serial = conv2d_q(&x, &qw, &b, &spec, scale);
            for v in serial.data_mut() {
                *v = v.max(0.0);
            }
            let fused = conv2d_q_planned(&x, &qw, &panel, &b, &spec, scale, None, Act::Relu);
            assert_eq!(fused.dims(), serial.dims());
            for (p, q) in fused.data().iter().zip(serial.data()) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }
    }

    #[test]
    fn non_finite_activations_saturate_not_poison() {
        // An upstream fault can push activations to ±∞/NaN; the quantized
        // layer must stay finite (saturating quantization).
        let x = Tensor::from_vec(
            vec![f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.0],
            &[1, 4],
        );
        let w = Tensor::ones(&[2, 4]);
        let b = Tensor::zeros(&[2]);
        let y = linear_q(&x, &QTensor::quantize_per_channel(&w), &b, 0.1);
        assert!(!y.has_non_finite());
    }

    /// Per-channel folded batch-norm constants, `inv_std` computed with the
    /// layer's own expression.
    struct Fold {
        mean: Vec<f32>,
        inv_std: Vec<f32>,
        gamma: Vec<f32>,
        beta: Vec<f32>,
    }

    impl Fold {
        fn sample(oc: usize, rng: &mut SeededRng) -> Self {
            let mut draw = |lo: f32, span: f32| -> Vec<f32> {
                (0..oc)
                    .map(|_| lo + span * rng.below(1000) as f32 / 1000.0)
                    .collect()
            };
            let mean = draw(-0.5, 1.0);
            let var = draw(0.1, 2.0);
            let gamma = draw(-1.5, 3.0);
            let beta = draw(-0.5, 1.0);
            let inv_std = var.iter().map(|&v| 1.0 / (v + 1e-5f32).sqrt()).collect();
            Self {
                mean,
                inv_std,
                gamma,
                beta,
            }
        }

        fn view(&self) -> BnFoldView<'_> {
            BnFoldView {
                mean: &self.mean,
                inv_std: &self.inv_std,
                gamma: &self.gamma,
                beta: &self.beta,
            }
        }
    }

    /// `conv2d_q` followed by the standalone per-channel batch-norm and
    /// activation kernels — the unfused layer chain.
    fn serial_chain(
        x: &Tensor,
        qw: &QTensor,
        b: &Tensor,
        spec: &ConvSpec,
        scale: f32,
        bn: Option<&Fold>,
        act: Act,
    ) -> Tensor {
        use crate::kernels::{bn_fmap, leaky_relu_mask, relu_mask};
        let mut y = conv2d_q(x, qw, b, spec, scale);
        let (n, oc, oh, ow) = y.dims4();
        let hw = oh * ow;
        let mut tmp = vec![0.0f32; hw];
        let mut mask = vec![0.0f32; hw];
        for s in 0..n {
            for c in 0..oc {
                let fm = &mut y.data_mut()[(s * oc + c) * hw..][..hw];
                if let Some(f) = bn {
                    let src = fm.to_vec();
                    bn_fmap(
                        &src,
                        f.mean[c],
                        f.inv_std[c],
                        f.gamma[c],
                        f.beta[c],
                        &mut tmp,
                        fm,
                    );
                }
                match act {
                    Act::None => {}
                    Act::Relu => {
                        relu_mask(fm, &mut tmp, &mut mask);
                        fm.copy_from_slice(&tmp);
                    }
                    Act::LeakyRelu(slope) => {
                        leaky_relu_mask(fm, slope, &mut tmp, &mut mask);
                        fm.copy_from_slice(&tmp);
                    }
                }
            }
        }
        y
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(160))]

        /// The compiled-plan INT8 convolution (plane prologue, implicit
        /// GEMM, epilogue in the tile store) reproduces the unplanned chain
        /// bit for bit on every body this CPU supports. `cg` runs to 33, so
        /// whole and partial blocks of 8 channels both reach the
        /// prologue's vector path; `og` runs to 39, so groups of at most 8
        /// channels (two k-pairs per vector), single blocks, runs of two
        /// blocks and a run followed by an odd last block all occur. 8 of the 160 cases the runner draws
        /// are 1×1 convs at stride 2 without padding, which quantize only
        /// the pixels they read.
        #[test]
        fn planned_int8_conv_matches_conv2d_q_bit_for_bit(
            seed in proptest::prelude::any::<u64>(),
            kernel in 0usize..3,
            stride in 1usize..3,
            padding in 0usize..3,
            groups_idx in 0usize..3,
            cg in 1usize..34,
            og in 1usize..40,
            batch in 1usize..4,
            hw in 5usize..10,
            variant in 0usize..6,
        ) {
            let k = [1usize, 3, 5][kernel];
            let groups = [1usize, 2, 4][groups_idx];
            let (c, oc) = (cg * groups, og * groups);
            let mut rng = SeededRng::new(seed);
            let spec = ConvSpec::new().stride(stride).padding(padding).groups(groups);

            // Inputs carry ±∞, NaN and out-of-range values, which quantize to
            // ±127 and 0.
            let mut x = Tensor::rand_normal(&[batch, c, hw, hw], 0.0, 1.0, &mut rng);
            for v in x.data_mut() {
                match rng.below(24) {
                    0 => *v = f32::INFINITY,
                    1 => *v = f32::NEG_INFINITY,
                    2 => *v = f32::NAN,
                    3 => *v *= 1.0e6,
                    _ => {}
                }
            }
            let w = Tensor::rand_normal(&[oc, cg, k, k], 0.0, 0.5, &mut rng);
            let b = Tensor::rand_normal(&[oc], 0.0, 0.1, &mut rng);
            let mut qw = QTensor::quantize_per_channel(&w);
            // A faulted stored word can reach -128, outside the quantizer's range.
            let flip = rng.below(qw.len());
            qw.data_mut()[flip] = i8::MIN;
            let scale = 0.01 + rng.below(100) as f32 * 0.001;

            let fold = Fold::sample(oc, &mut rng);
            let bn = (variant >= 3).then_some(&fold);
            let act = [Act::None, Act::Relu, Act::LeakyRelu(0.1)][variant % 3];

            let panel = PackedConvI16::pack(qw.data(), [oc, cg, k, k], groups);
            let serial = serial_chain(&x, &qw, &b, &spec, scale, bn, act);
            for body in ConvBody::ALL.into_iter().filter(|b| b.supported()) {
                let planned = conv2d_q_planned_on(
                    body, &x, &qw, &panel, &b, &spec, scale, bn.map(Fold::view), act,
                );
                proptest::prop_assert_eq!(planned.dims(), serial.dims());
                for (i, (p, s)) in planned.data().iter().zip(serial.data()).enumerate() {
                    proptest::prop_assert_eq!(
                        p.to_bits(),
                        s.to_bits(),
                        "{:?}: element {} of {:?}: planned {} vs serial {} \
                         (k{} s{} p{} g{} cg{} og{} n{} hw{} variant {})",
                        body, i, serial.dims(), p, s, k, stride, padding, groups, cg, og,
                        batch, hw, variant
                    );
                }
            }
        }
    }
}
