//! 2-D convolution (im2col + matmul) and its gradients.
//!
//! Supports stride, symmetric zero padding, and grouped convolution (which
//! also covers depthwise convolution when `groups == in_channels`). These are
//! the only convolution variants the model zoo needs.

use crate::linalg::{matmul_into, transpose_into};
use crate::pack::{matmul_packed_a, Act, BnFoldView, Epilogue, GatherPlan, PackedA};
use crate::parallel;
use crate::tensor::Tensor;

/// Geometry of a convolution: stride, padding, groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Step between filter applications (same in both spatial dims).
    pub stride: usize,
    /// Symmetric zero padding (same on all four sides).
    pub padding: usize,
    /// Number of filter groups; `in_channels` and `out_channels` must both be
    /// divisible by it.
    pub groups: usize,
}

impl ConvSpec {
    /// A stride-1, unpadded, ungrouped convolution.
    pub fn new() -> Self {
        Self {
            stride: 1,
            padding: 0,
            groups: 1,
        }
    }

    /// Sets the stride.
    pub fn stride(mut self, stride: usize) -> Self {
        self.stride = stride;
        self
    }

    /// Sets the padding.
    pub fn padding(mut self, padding: usize) -> Self {
        self.padding = padding;
        self
    }

    /// Sets the group count.
    pub fn groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }

    /// Output spatial size for an input extent `in_size` and kernel `k`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel (with padding) does not fit in the input.
    pub fn out_size(&self, in_size: usize, k: usize) -> usize {
        self.checked_out_size(in_size, k)
            .unwrap_or_else(|| panic!("kernel {k} larger than padded input (in {in_size})"))
    }

    /// Non-panicking [`ConvSpec::out_size`]: `None` when the kernel (with
    /// padding) does not fit in the input. Shape validators use this to turn
    /// geometry mismatches into typed errors instead of panics.
    pub fn checked_out_size(&self, in_size: usize, k: usize) -> Option<usize> {
        let padded = in_size + 2 * self.padding;
        if padded < k || k == 0 {
            return None;
        }
        Some((padded - k) / self.stride + 1)
    }
}

impl Default for ConvSpec {
    fn default() -> Self {
        Self::new()
    }
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient w.r.t. the input, same shape as the forward input.
    pub input: Tensor,
    /// Gradient w.r.t. the weights, same shape as the weight tensor.
    pub weight: Tensor,
    /// Gradient w.r.t. the bias, shape `[out_channels]`.
    pub bias: Tensor,
}

/// Lowers one batch element's group slice into an im2col matrix of shape
/// `[cg*kh*kw, oh*ow]`, written into the caller's scratch buffer. The buffer
/// may be dirty from a previous call: the stride-1 path writes every element
/// (zeros included) exactly once, and the strided path zero-fills first.
#[allow(clippy::too_many_arguments)]
fn im2col_into(
    input: &Tensor,
    n: usize,
    c_start: usize,
    cg: usize,
    kh: usize,
    kw: usize,
    spec: &ConvSpec,
    oh: usize,
    ow: usize,
    cols: &mut [f32],
) {
    let (_, _, h, w) = input.dims4();
    assert_eq!(cols.len(), cg * kh * kw * oh * ow, "im2col scratch size");
    if spec.stride != 1 {
        cols.fill(0.0);
    }
    let ow_stride = oh * ow;
    for c in 0..cg {
        let fm = input.fmap(n, c_start + c);
        for ky in 0..kh {
            for kx in 0..kw {
                let row = ((c * kh + ky) * kw + kx) * ow_stride;
                for oy in 0..oh {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if spec.stride == 1 {
                        // Stride 1: `ix = ox + kx - padding` walks the input
                        // row contiguously, so each destination row is two
                        // zero borders around one copied span, written in one
                        // pass — no gather, no whole-buffer pre-fill. Narrow
                        // rows use an element loop: a dynamic-length memcpy
                        // call costs more than the handful of moves it does.
                        let dst = &mut cols[row + oy * ow..row + (oy + 1) * ow];
                        if iy < 0 || iy >= h as isize {
                            dst.fill(0.0);
                            continue;
                        }
                        let iy = iy as usize;
                        let src = &fm[iy * w..(iy + 1) * w];
                        if ow < 16 {
                            for (ox, d) in dst.iter_mut().enumerate() {
                                let ix = (ox + kx) as isize - spec.padding as isize;
                                *d = if ix >= 0 && ix < w as isize {
                                    src[ix as usize]
                                } else {
                                    0.0
                                };
                            }
                            continue;
                        }
                        let ox0 = spec.padding.saturating_sub(kx);
                        let ox1 = ow.min((w + spec.padding).saturating_sub(kx));
                        dst[..ox0.min(ow)].fill(0.0);
                        if ox0 < ox1 {
                            let ix0 = ox0 + kx - spec.padding;
                            dst[ox0..ox1].copy_from_slice(&src[ix0..ix0 + (ox1 - ox0)]);
                        }
                        dst[ox1.max(ox0).min(ow)..].fill(0.0);
                        continue;
                    }
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..ow {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        cols[row + oy * ow + ox] = fm[iy * w + ix as usize];
                    }
                }
            }
        }
    }
}

/// Scatters an im2col-shaped gradient matrix back onto the input gradient
/// (inverse of [`im2col`], accumulating where patches overlap).
#[allow(clippy::too_many_arguments)]
fn col2im(
    cols: &[f32],
    grad_input: &mut Tensor,
    n: usize,
    c_start: usize,
    cg: usize,
    kh: usize,
    kw: usize,
    spec: &ConvSpec,
    oh: usize,
    ow: usize,
) {
    let (_, _, h, w) = grad_input.dims4();
    let data = cols;
    let ow_stride = oh * ow;
    for c in 0..cg {
        let fm = grad_input.fmap_mut(n, c_start + c);
        for ky in 0..kh {
            for kx in 0..kw {
                let row = ((c * kh + ky) * kw + kx) * ow_stride;
                for oy in 0..oh {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..ow {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        fm[iy * w + ix as usize] += data[row + oy * ow + ox];
                    }
                }
            }
        }
    }
}

fn check_conv_args(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &ConvSpec) {
    let (_, c, _, _) = input.dims4();
    let (oc, wc, _, _) = weight.dims4();
    assert!(spec.groups > 0, "groups must be positive");
    assert!(spec.stride > 0, "stride must be positive");
    assert_eq!(
        c % spec.groups,
        0,
        "in_channels {c} not divisible by groups {}",
        spec.groups
    );
    assert_eq!(
        oc % spec.groups,
        0,
        "out_channels {oc} not divisible by groups {}",
        spec.groups
    );
    assert_eq!(
        wc,
        c / spec.groups,
        "weight expects {} input channels per group, input provides {}",
        wc,
        c / spec.groups
    );
    assert_eq!(
        bias.len(),
        oc,
        "bias length {} != out_channels {oc}",
        bias.len()
    );
}

/// 2-D convolution.
///
/// - `input`: `[n, c, h, w]`
/// - `weight`: `[oc, c/groups, kh, kw]`
/// - `bias`: `[oc]`
///
/// Returns `[n, oc, oh, ow]` with `oh/ow` given by [`ConvSpec::out_size`].
///
/// # Panics
///
/// Panics if shapes or the spec are inconsistent (see [`ConvSpec`]).
///
/// # Example
///
/// ```
/// use rustfi_tensor::{conv2d, ConvSpec, Tensor};
///
/// let x = Tensor::ones(&[1, 1, 3, 3]);
/// let w = Tensor::ones(&[1, 1, 3, 3]);
/// let b = Tensor::zeros(&[1]);
/// let y = conv2d(&x, &w, &b, &ConvSpec::new());
/// assert_eq!(y.dims(), &[1, 1, 1, 1]);
/// assert_eq!(y.at(&[0, 0, 0, 0]), 9.0);
/// ```
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &ConvSpec) -> Tensor {
    crate::opcount::count_conv2d();
    check_conv_args(input, weight, bias, spec);
    let (n, c, h, w) = input.dims4();
    let (oc, _, kh, kw) = weight.dims4();
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let cg = c / spec.groups;
    let og = oc / spec.groups;

    let kcols = cg * kh * kw;
    let ohw = oh * ow;
    // The per-group weight slab is a contiguous run of rows of the
    // [oc, cg*kh*kw] weight matrix, so it can be borrowed directly — no
    // per-batch (or even per-call) slab copy.
    let wdata = weight.data();
    let bdata = bias.data();
    let spec = *spec;

    // Fully overwritten below (`*d = s + b` covers every element), so the
    // buffer can come from the recycling pool with stale contents.
    let mut out = Tensor::from_pool(&[n, oc, oh, ow]);
    let batch_stride = oc * ohw;

    // Batch elements are independent, so a split that forks fans them
    // across threads; a chunk's per-group GEMMs then run inline on its
    // thread, and a lone batch element may still split its GEMM rows. Each
    // chunk reuses one im2col/product scratch pair for its whole run of
    // batches. Per-sample GEMMs beat one batch-wide GEMM here: each sample's
    // `[kcols, ohw]` im2col panel stays cache-resident for its whole k
    // sweep, where a merged `[kcols, n*ohw]` panel would stream from memory
    // once per row block.
    let total_macs = n * oc * ohw * kcols;
    parallel::for_each_chunk_mut(
        out.data_mut(),
        batch_stride,
        total_macs,
        |start, _, slab| {
            with_conv_scratch(kcols * ohw, og * ohw, |cols, prod| {
                for (i, out_bn) in slab.chunks_exact_mut(batch_stride).enumerate() {
                    for g in 0..spec.groups {
                        im2col_into(input, start + i, g * cg, cg, kh, kw, &spec, oh, ow, cols);
                        let wslab = &wdata[g * og * kcols..(g + 1) * og * kcols];
                        matmul_into(wslab, cols, prod, og, kcols, ohw, true);
                        for o in 0..og {
                            let b = bdata[g * og + o];
                            let dst = &mut out_bn[(g * og + o) * ohw..(g * og + o + 1) * ohw];
                            for (d, &s) in dst.iter_mut().zip(&prod[o * ohw..(o + 1) * ohw]) {
                                *d = s + b;
                            }
                        }
                    }
                }
            });
        },
    );
    out
}

/// Compiled im2col plan: a [`GatherPlan`] lowering one batch element's
/// group slice (`[cg, h, w]`, contiguous in NCHW) into the
/// `[cg*kh*kw, oh*ow]` im2col matrix that [`conv2d_planned`] feeds its
/// packed GEMM.
///
/// The map depends only on the convolution geometry and the input spatial
/// shape — not on the group index or batch element — so one plan serves
/// every `(batch, group)` lowering of a layer. Values are bit-identical to
/// the on-the-fly `im2col_into` lowering: both read the same source element
/// (or zero) for every destination slot; only the index arithmetic moves
/// from the forward pass to plan-build time.
#[derive(Debug, Clone)]
pub struct Im2colPlan {
    cg: usize,
    h: usize,
    w: usize,
    map: GatherPlan,
}

impl Im2colPlan {
    /// Builds the plan for a `[cg, h, w]` group slice under `kernel` and
    /// `spec`.
    pub fn build(cg: usize, h: usize, w: usize, kernel: (usize, usize), spec: &ConvSpec) -> Self {
        let (kh, kw) = kernel;
        let oh = spec.out_size(h, kh);
        let ow = spec.out_size(w, kw);
        let ohw = oh * ow;
        let mut idx = vec![GatherPlan::PAD; cg * kh * kw * ohw];
        for c in 0..cg {
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = ((c * kh + ky) * kw + kx) * ohw;
                    for oy in 0..oh {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            idx[row + oy * ow + ox] =
                                ((c * h + iy as usize) * w + ix as usize) as u32;
                        }
                    }
                }
            }
        }
        Self {
            cg,
            h,
            w,
            map: GatherPlan::new(cg * h * w, idx),
        }
    }

    /// Whether the plan was built for this group-slice shape. Layers key
    /// their cached plan on this to rebuild lazily when the input spatial
    /// shape changes between forwards.
    pub fn matches(&self, cg: usize, h: usize, w: usize) -> bool {
        self.cg == cg && self.h == h && self.w == w
    }
}

/// 2-D convolution through a compiled plan: pre-packed per-group weight
/// panels, a precomputed [`Im2colPlan`] gather in place of per-element
/// im2col index arithmetic, and a fused epilogue (bias, optional folded
/// batch-norm, optional activation) applied in the GEMM write-back.
///
/// Produces bit-identical results to [`conv2d`] followed by the standalone
/// batch-norm/activation kernels: the packed GEMM preserves per-element
/// `kk`-increasing accumulation, and the epilogue replicates the serial
/// per-element op order (see [`crate::pack`]). Unlike [`conv2d`] there is no
/// intermediate product buffer — the epilogue writes each output element
/// exactly once, directly into the output tensor.
///
/// - `packs`: one [`PackedA`] per group, each packing the group's
///   `[oc/groups, (c/groups)*kh*kw]` weight slab
/// - `kernel`: `(kh, kw)` of the packed filters
/// - `plan`: the gather plan for this input's group-slice shape
///
/// # Panics
///
/// Panics if shapes, the spec, the packed panels, and the gather plan are
/// inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_planned(
    input: &Tensor,
    packs: &[PackedA],
    kernel: (usize, usize),
    plan: &Im2colPlan,
    bias: &Tensor,
    spec: &ConvSpec,
    bn: Option<BnFoldView<'_>>,
    act: Act,
) -> Tensor {
    crate::opcount::count_conv2d();
    let (n, c, h, w) = input.dims4();
    let (kh, kw) = kernel;
    assert_eq!(packs.len(), spec.groups, "one packed panel set per group");
    let cg = c / spec.groups;
    let kcols = cg * kh * kw;
    let og = packs[0].rows();
    for p in packs {
        assert_eq!(p.rows(), og, "group panel row mismatch");
        assert_eq!(p.k(), kcols, "group panel k mismatch");
    }
    let oc = og * spec.groups;
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let ohw = oh * ow;
    assert!(plan.matches(cg, h, w), "gather plan shape mismatch");
    assert_eq!(plan.map.len(), kcols * ohw, "gather plan size mismatch");
    let bdata = bias.data();
    assert_eq!(bdata.len(), oc, "bias length != out_channels");
    if let Some(f) = &bn {
        assert_eq!(f.mean.len(), oc, "bn fold length != out_channels");
    }
    let chw = c * h * w;
    let ghw = cg * h * w;
    let in_data = input.data();

    // Epilogue writes every element exactly once, so pool-stale contents are
    // fine.
    let mut out = Tensor::from_pool(&[n, oc, oh, ow]);
    let batch_stride = oc * ohw;

    // Planned kernels see batch > 1 only in fused campaign trials, whose
    // workers never fork, so the batch loop stays on this thread; a GEMM
    // outside any task may still split its rows.
    with_conv_scratch(kcols * ohw, 0, |cols, _| {
        for (bn_idx, out_bn) in out.data_mut().chunks_exact_mut(batch_stride).enumerate() {
            for (g, pack) in packs.iter().enumerate() {
                plan.map
                    .gather(&in_data[bn_idx * chw + g * ghw..][..ghw], cols);
                let ep = Epilogue::PerRow {
                    bias: bdata,
                    bn,
                    act,
                    row0: g * og,
                };
                let out_g = &mut out_bn[g * og * ohw..(g + 1) * og * ohw];
                matmul_packed_a(pack, cols, out_g, ohw, &ep, true);
            }
        }
    });
    out
}

/// Runs `f` with this thread's reusable im2col/product scratch, sized to at
/// least `cols_len`/`prod_len`. Reuse skips a malloc + memset per [`conv2d`]
/// call, which dominates small convolutions; stale contents are harmless
/// because [`im2col_into`] writes (or zero-fills) every element it exposes
/// and the product buffer is fully overwritten by `matmul_into`.
fn with_conv_scratch(cols_len: usize, prod_len: usize, f: impl FnOnce(&mut [f32], &mut [f32])) {
    use std::cell::RefCell;
    thread_local! {
        static SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    }
    SCRATCH.with(|cell| {
        let mut guard = cell.borrow_mut();
        let (cols, prod) = &mut *guard;
        if cols.len() < cols_len {
            cols.resize(cols_len, 0.0);
        }
        if prod.len() < prod_len {
            prod.resize(prod_len, 0.0);
        }
        f(&mut cols[..cols_len], &mut prod[..prod_len]);
    });
}

/// Gradients of [`conv2d`] given the upstream gradient `grad_out`.
///
/// # Panics
///
/// Panics if shapes are inconsistent with the forward pass.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &ConvSpec,
) -> Conv2dGrads {
    let (n, c, h, w) = input.dims4();
    let (oc, _, kh, kw) = weight.dims4();
    let (gn, goc, oh, ow) = grad_out.dims4();
    assert_eq!(gn, n, "grad batch {gn} != input batch {n}");
    assert_eq!(goc, oc, "grad channels {goc} != out_channels {oc}");
    assert_eq!(oh, spec.out_size(h, kh), "grad height mismatch");
    assert_eq!(ow, spec.out_size(w, kw), "grad width mismatch");
    let cg = c / spec.groups;
    let og = oc / spec.groups;

    let mut grad_input = Tensor::zeros(&[n, c, h, w]);
    let mut grad_weight = Tensor::zeros(weight.dims());
    let mut grad_bias = Tensor::zeros(&[oc]);

    let kcols = cg * kh * kw;
    let ohw = oh * ow;
    // One scratch set reused across every (group, batch) iteration: the old
    // code re-ran im2col *and* allocated a fresh transpose per pair. The
    // weight transpose depends only on the group, so the loop is reordered
    // group-outer and `wt` built once per group. Per-element accumulation
    // into grad_weight/grad_bias still runs in increasing batch order, so
    // results are unchanged.
    let mut cols = vec![0.0f32; kcols * ohw];
    let mut cols_t = vec![0.0f32; kcols * ohw];
    let mut gmat = vec![0.0f32; og * ohw];
    let mut gw = vec![0.0f32; og * kcols];
    let mut gcols = vec![0.0f32; kcols * ohw];
    let mut wt = vec![0.0f32; kcols * og];

    for g in 0..spec.groups {
        let wstart = g * og * kcols;
        transpose_into(
            &weight.data()[wstart..wstart + og * kcols],
            &mut wt,
            og,
            kcols,
        );
        for bn in 0..n {
            // grad_out slab for this group: [og, oh*ow]
            for o in 0..og {
                gmat[o * ohw..(o + 1) * ohw].copy_from_slice(grad_out.fmap(bn, g * og + o));
            }

            // Bias gradient: sum over spatial positions.
            for o in 0..og {
                let s: f32 = gmat[o * ohw..(o + 1) * ohw].iter().sum();
                grad_bias.data_mut()[g * og + o] += s;
            }

            // Weight gradient: gmat [og, ohw] x cols^T [ohw, cg*kh*kw].
            im2col_into(input, bn, g * cg, cg, kh, kw, spec, oh, ow, &mut cols);
            transpose_into(&cols, &mut cols_t, kcols, ohw);
            matmul_into(&gmat, &cols_t, &mut gw, og, ohw, kcols, true);
            for (dst, src) in grad_weight.data_mut()[wstart..wstart + og * kcols]
                .iter_mut()
                .zip(&gw)
            {
                *dst += src;
            }

            // Input gradient: W^T [cg*kh*kw, og] x gmat [og, ohw] -> cols grad.
            matmul_into(&wt, &gmat, &mut gcols, kcols, og, ohw, true);
            col2im(
                &gcols,
                &mut grad_input,
                bn,
                g * cg,
                cg,
                kh,
                kw,
                spec,
                oh,
                ow,
            );
        }
    }

    Conv2dGrads {
        input: grad_input,
        weight: grad_weight,
        bias: grad_bias,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    /// Direct (naive) convolution used as a reference implementation.
    fn conv2d_naive(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &ConvSpec) -> Tensor {
        let (n, c, h, w) = input.dims4();
        let (oc, _, kh, kw) = weight.dims4();
        let oh = spec.out_size(h, kh);
        let ow = spec.out_size(w, kw);
        let cg = c / spec.groups;
        let og = oc / spec.groups;
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        for bn in 0..n {
            for o in 0..oc {
                let g = o / og;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.data()[o];
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
                                    acc += input.at(&[bn, g * cg + ci, iy as usize, ix as usize])
                                        * weight.at(&[o, ci, ky, kx]);
                                }
                            }
                        }
                        out.set(&[bn, o, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn out_size_formula() {
        let s = ConvSpec::new().stride(2).padding(1);
        assert_eq!(s.out_size(8, 3), 4);
        assert_eq!(ConvSpec::new().out_size(5, 5), 1);
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn out_size_rejects_oversized_kernel() {
        ConvSpec::new().out_size(2, 5);
    }

    #[test]
    fn conv_matches_naive_basic() {
        let mut rng = SeededRng::new(10);
        let x = Tensor::rand_normal(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[4, 3, 3, 3], 0.0, 0.5, &mut rng);
        let b = Tensor::rand_normal(&[4], 0.0, 0.1, &mut rng);
        let spec = ConvSpec::new().padding(1);
        assert_close(
            &conv2d(&x, &w, &b, &spec),
            &conv2d_naive(&x, &w, &b, &spec),
            1e-4,
        );
    }

    #[test]
    fn conv_matches_naive_strided() {
        let mut rng = SeededRng::new(11);
        let x = Tensor::rand_normal(&[1, 2, 9, 9], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[3, 2, 3, 3], 0.0, 0.5, &mut rng);
        let b = Tensor::zeros(&[3]);
        let spec = ConvSpec::new().stride(2).padding(1);
        assert_close(
            &conv2d(&x, &w, &b, &spec),
            &conv2d_naive(&x, &w, &b, &spec),
            1e-4,
        );
    }

    #[test]
    fn conv_matches_naive_grouped() {
        let mut rng = SeededRng::new(12);
        let x = Tensor::rand_normal(&[2, 4, 6, 6], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[6, 2, 3, 3], 0.0, 0.5, &mut rng);
        let b = Tensor::rand_normal(&[6], 0.0, 0.1, &mut rng);
        let spec = ConvSpec::new().padding(1).groups(2);
        assert_close(
            &conv2d(&x, &w, &b, &spec),
            &conv2d_naive(&x, &w, &b, &spec),
            1e-4,
        );
    }

    #[test]
    fn conv_depthwise() {
        let mut rng = SeededRng::new(13);
        let x = Tensor::rand_normal(&[1, 4, 5, 5], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[4, 1, 3, 3], 0.0, 0.5, &mut rng);
        let b = Tensor::zeros(&[4]);
        let spec = ConvSpec::new().padding(1).groups(4);
        assert_close(
            &conv2d(&x, &w, &b, &spec),
            &conv2d_naive(&x, &w, &b, &spec),
            1e-4,
        );
    }

    #[test]
    fn conv_1x1_is_channel_mix() {
        // A 1x1 conv with identity-like weights moves channels around exactly.
        let x = Tensor::from_fn(&[1, 2, 2, 2], |i| i as f32);
        let w = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[2, 2, 1, 1]); // swap channels
        let b = Tensor::zeros(&[2]);
        let y = conv2d(&x, &w, &b, &ConvSpec::new());
        assert_eq!(y.fmap(0, 0), x.fmap(0, 1));
        assert_eq!(y.fmap(0, 1), x.fmap(0, 0));
    }

    #[test]
    #[should_panic(expected = "not divisible by groups")]
    fn conv_rejects_bad_groups() {
        let x = Tensor::zeros(&[1, 3, 4, 4]);
        let w = Tensor::zeros(&[2, 1, 1, 1]);
        let b = Tensor::zeros(&[2]);
        conv2d(&x, &w, &b, &ConvSpec::new().groups(2));
    }

    fn pack_groups(w: &Tensor, groups: usize) -> Vec<PackedA> {
        let (oc, cg, kh, kw) = w.dims4();
        let og = oc / groups;
        let kcols = cg * kh * kw;
        (0..groups)
            .map(|g| PackedA::pack(&w.data()[g * og * kcols..(g + 1) * og * kcols], og, kcols))
            .collect()
    }

    #[test]
    fn planned_conv_is_bit_identical_to_conv2d() {
        let mut rng = SeededRng::new(31);
        for &(n, c, oc, hw, groups, stride, padding) in &[
            (2usize, 3usize, 4usize, 8usize, 1usize, 1usize, 1usize),
            (1, 4, 6, 6, 2, 1, 1),
            (3, 2, 3, 9, 1, 2, 1),
        ] {
            let spec = ConvSpec::new()
                .stride(stride)
                .padding(padding)
                .groups(groups);
            let x = Tensor::rand_normal(&[n, c, hw, hw], 0.0, 1.0, &mut rng);
            let w = Tensor::rand_normal(&[oc, c / groups, 3, 3], 0.0, 0.5, &mut rng);
            let b = Tensor::rand_normal(&[oc], 0.0, 0.1, &mut rng);
            let plain = conv2d(&x, &w, &b, &spec);
            let packs = pack_groups(&w, groups);
            let plan = Im2colPlan::build(c / groups, hw, hw, (3, 3), &spec);
            let planned = conv2d_planned(&x, &packs, (3, 3), &plan, &b, &spec, None, Act::None);
            assert_eq!(planned.dims(), plain.dims());
            for (p, q) in planned.data().iter().zip(plain.data()) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }
    }

    #[test]
    fn planned_conv_fused_relu_matches_serial_chain() {
        let mut rng = SeededRng::new(32);
        let spec = ConvSpec::new().padding(1);
        let x = Tensor::rand_normal(&[2, 3, 7, 7], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[5, 3, 3, 3], 0.0, 0.5, &mut rng);
        let b = Tensor::rand_normal(&[5], 0.0, 0.1, &mut rng);
        let mut serial = conv2d(&x, &w, &b, &spec);
        for v in serial.data_mut() {
            *v = v.max(0.0);
        }
        let packs = pack_groups(&w, 1);
        let plan = Im2colPlan::build(3, 7, 7, (3, 3), &spec);
        let fused = conv2d_planned(&x, &packs, (3, 3), &plan, &b, &spec, None, Act::Relu);
        for (p, q) in fused.data().iter().zip(serial.data()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    /// Numeric gradient check of the analytic backward pass.
    #[test]
    fn backward_matches_numeric_gradient() {
        let mut rng = SeededRng::new(20);
        let x = Tensor::rand_normal(&[1, 2, 5, 5], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[3, 2, 3, 3], 0.0, 0.5, &mut rng);
        let b = Tensor::rand_normal(&[3], 0.0, 0.1, &mut rng);
        let spec = ConvSpec::new().padding(1).stride(2);

        // Loss = sum(conv(x)), so upstream gradient is all-ones.
        let y = conv2d(&x, &w, &b, &spec);
        let gout = Tensor::ones(y.dims());
        let grads = conv2d_backward(&x, &w, &gout, &spec);

        let eps = 1e-2f32;
        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| conv2d(x, w, b, &spec).sum();

        // Check a scattering of input positions.
        for &i in &[0usize, 7, 13, 24, 49] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
            let ana = grads.input.data()[i];
            assert!((num - ana).abs() < 1e-2, "input grad {i}: {num} vs {ana}");
        }
        // Check a scattering of weight positions.
        for &i in &[0usize, 5, 17, 35, 53] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            let ana = grads.weight.data()[i];
            assert!((num - ana).abs() < 1e-2, "weight grad {i}: {num} vs {ana}");
        }
        // Bias gradient is the spatial size of the output per channel.
        let (_, _, oh, ow) = y.dims4();
        for v in grads.bias.data() {
            assert!((v - (oh * ow) as f32).abs() < 1e-3);
        }
    }

    #[test]
    fn backward_grouped_matches_numeric() {
        let mut rng = SeededRng::new(21);
        let x = Tensor::rand_normal(&[1, 4, 4, 4], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[4, 2, 3, 3], 0.0, 0.5, &mut rng);
        let b = Tensor::zeros(&[4]);
        let spec = ConvSpec::new().padding(1).groups(2);
        let y = conv2d(&x, &w, &b, &spec);
        let gout = Tensor::ones(y.dims());
        let grads = conv2d_backward(&x, &w, &gout, &spec);
        let eps = 1e-2f32;
        let loss = |x: &Tensor, w: &Tensor| conv2d(x, w, &b, &spec).sum();
        for &i in &[0usize, 11, 30, 63] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!((num - grads.input.data()[i]).abs() < 1e-2);
        }
        for &i in &[0usize, 20, 40, 71] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!((num - grads.weight.data()[i]).abs() < 1e-2);
        }
    }
}
