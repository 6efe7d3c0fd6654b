//! 2-D convolution (im2col + matmul) and its gradients, and the compiled
//! plan's implicit-GEMM convolution ([`conv2d_planned`]), which reads each
//! receptive field in place from a zero-padded copy of the input against a
//! [`PackedConvF32`] panel instead of lowering it.
//!
//! Supports stride, symmetric zero padding, and grouped convolution (which
//! also covers depthwise convolution when `groups == in_channels`). These are
//! the only convolution variants the model zoo needs.
//!
//! The implicit GEMM picks its body at run time from CPU features, like the
//! planned INT8 conv: AVX-512 where the INT8 conv's VNNI body runs, else
//! AVX2, else portable. Its SIMD bodies are plain indexed loops over arrays
//! of vectors, with no closure around an intrinsic, so every intrinsic
//! inlines into its `#[target_feature]` caller.

use crate::linalg::{matmul_into, transpose_into};
use crate::pack::{Act, BnFoldView, Epilogue, PackedConvF32, CONV_LANES};
use crate::parallel;
use crate::qkernels::ConvBody;
use crate::tensor::Tensor;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

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

/// 2-D convolution through a compiled plan, as an implicit GEMM: no im2col
/// matrix is built.
///
/// - **Plane.** Each sample's group slice is copied once into a zero-padded
///   NCHW plane `[cg][h + 2·pad][w + 2·pad]` in thread-local scratch (with
///   no padding the kernel reads the input itself).
/// - **Kernel.** Each block of 16 output channels of the [`PackedConvF32`]
///   panel is an outer product with a tile of output pixels: per reduction
///   step `(c, ky, kx)`, one vector of the block's 16 weights meets each
///   pixel's broadcast input. The body is picked at run time from CPU
///   features (AVX-512, AVX2 or portable).
/// - **Epilogue.** Bias, the optional folded batch-norm and the activation
///   are applied as each tile is stored; every output element is written
///   exactly once.
///
/// Produces bit-identical results to [`conv2d`] followed by the standalone
/// batch-norm/activation kernels: each output element starts from `+0.0`
/// and adds `w * x` for every `(c, ky, kx)` in im2col's order as a separate
/// multiply and add — padding positions included, as `+0.0` inputs, exactly
/// as im2col's zeros enter [`conv2d`]'s GEMM — and the epilogue replicates
/// the serial per-element op order (see [`crate::pack`]).
///
/// Runs on the calling thread. Counts one `conv2d` per call and one
/// `matmul` per (sample, group).
///
/// # Panics
///
/// Panics if shapes, the spec and the panel are inconsistent.
pub fn conv2d_planned(
    input: &Tensor,
    panel: &PackedConvF32,
    bias: &Tensor,
    spec: &ConvSpec,
    bn: Option<BnFoldView<'_>>,
    act: Act,
) -> Tensor {
    conv2d_planned_on(ConvBody::detect(), input, panel, bias, spec, bn, act)
}

/// [`conv2d_planned`] on a chosen kernel body.
///
/// # Panics
///
/// As [`conv2d_planned`], and if the CPU does not support `body`.
fn conv2d_planned_on(
    body: ConvBody,
    input: &Tensor,
    panel: &PackedConvF32,
    bias: &Tensor,
    spec: &ConvSpec,
    bn: Option<BnFoldView<'_>>,
    act: Act,
) -> Tensor {
    crate::opcount::count_conv2d();
    let (n, c, h, w) = input.dims4();
    let [oc, cg, kh, kw] = panel.dims();
    assert!(spec.stride > 0, "stride must be positive");
    assert_eq!(panel.groups(), spec.groups, "panel group count mismatch");
    assert_eq!(cg * spec.groups, c, "panel input channels mismatch");
    let bdata = bias.data();
    assert_eq!(bdata.len(), oc, "bias length != out_channels");
    if let Some(f) = &bn {
        assert_eq!(f.mean.len(), oc, "bn fold length != out_channels");
    }
    let pad = spec.padding;
    let geo = PlaneGeo {
        hp: h + 2 * pad,
        wp: w + 2 * pad,
        cg,
        stride: spec.stride,
        kh,
        kw,
        oh: spec.out_size(h, kh),
        ow: spec.out_size(w, kw),
    };
    let (og, ohw, ghw) = (oc / spec.groups, geo.oh * geo.ow, cg * h * w);
    let glen = panel.group_len();
    let in_data = input.data();

    // The kernel writes every element exactly once, so pool-stale contents
    // are fine.
    let mut out = Tensor::from_pool(&[n, oc, geo.oh, geo.ow]);
    with_conv_scratch(if pad > 0 { geo.len() } else { 0 }, 0, |plane, _| {
        // Only interiors are written below, so one fill per call keeps
        // every padding position `+0.0` for every (sample, group).
        plane.fill(0.0);
        for (s, out_s) in out.data_mut().chunks_exact_mut(oc * ohw).enumerate() {
            for g in 0..spec.groups {
                let src = &in_data[(s * spec.groups + g) * ghw..][..ghw];
                let x: &[f32] = if pad > 0 {
                    fill_plane(src, &geo, pad, plane);
                    plane
                } else {
                    src
                };
                conv_f32_implicit(
                    body,
                    x,
                    &panel.data()[g * glen..][..glen],
                    og,
                    &geo,
                    &Epilogue::PerRow {
                        bias: bdata,
                        bn,
                        act,
                        row0: g * og,
                    },
                    &mut out_s[g * og * ohw..][..og * ohw],
                );
            }
        }
    });
    out
}

/// Copies one sample's group slice `src` (`cg` channels of `h × w`) into the
/// interior of its zero-padded plane, row by row.
fn fill_plane(src: &[f32], geo: &PlaneGeo, pad: usize, plane: &mut [f32]) {
    let (h, w) = (geo.hp - 2 * pad, geo.wp - 2 * pad);
    for (c, fm) in src.chunks_exact(h * w).enumerate() {
        for (y, row) in fm.chunks_exact(w).enumerate() {
            plane[(c * geo.hp + y + pad) * geo.wp + pad..][..w].copy_from_slice(row);
        }
    }
}

/// Geometry of one implicit-GEMM f32 convolution over an NCHW plane
/// `[cg][hp][wp]` that holds its padding (see [`conv_f32_implicit`]).
#[derive(Debug, Clone, Copy)]
struct PlaneGeo {
    /// Plane rows, padding included.
    hp: usize,
    /// Plane columns, padding included.
    wp: usize,
    /// Channels per group.
    cg: usize,
    /// Convolution stride.
    stride: usize,
    /// Kernel rows.
    kh: usize,
    /// Kernel columns.
    kw: usize,
    /// Output rows.
    oh: usize,
    /// Output columns.
    ow: usize,
}

impl PlaneGeo {
    /// Reduction length `cg·kh·kw`.
    fn k(&self) -> usize {
        self.cg * self.kh * self.kw
    }

    /// Plane words.
    fn len(&self) -> usize {
        self.cg * self.hp * self.wp
    }
}

/// Implicit-GEMM f32 convolution of one sample group on `body`:
/// `out[r][p] = ep(r, Σ_(c,ky,kx) w[r][c][ky][kx] · plane[base(p) + (c·hp +
/// ky)·wp + kx])` for `rows` output channels of one group of a
/// [`PackedConvF32`] panel and every output pixel `p = oy·ow + ox`, read
/// straight from the padded `plane` at `base(p) = (oy·wp + ox)·stride`, with
/// the reduction in im2col's `(c, ky, kx)` order.
///
/// Every body works per block of 16 channels and per tile of output pixels
/// (row-major over `oh × ow`): per reduction step it loads the block's 16
/// weights once, then adds `w * x` for each pixel's broadcast input as a
/// separate multiply and add. Each tile's sums go to a stack array, from
/// which [`store_tile`] writes every channel row through the epilogue. A
/// last tile with fewer pixels computes its missing pixels from the tile's
/// last real one, and a last block with fewer rows computes its pad lanes;
/// neither is stored. Counts as one GEMM.
///
/// # Panics
///
/// Panics if `plane`, `panel` or `out` is shorter than the geometry needs,
/// if the kernel does not fit the plane, if `ep` lacks a row's constants,
/// or if the CPU does not support `body`.
fn conv_f32_implicit(
    body: ConvBody,
    plane: &[f32],
    panel: &[f32],
    rows: usize,
    geo: &PlaneGeo,
    ep: &Epilogue<'_>,
    out: &mut [f32],
) {
    crate::opcount::count_matmul();
    let ohw = geo.oh * geo.ow;
    assert!(ohw > 0 && geo.k() > 0, "empty convolution");
    assert!(
        (geo.oh - 1) * geo.stride + geo.kh <= geo.hp
            && (geo.ow - 1) * geo.stride + geo.kw <= geo.wp,
        "kernel reads past the plane"
    );
    assert!(plane.len() >= geo.len(), "plane too short");
    assert!(
        panel.len() >= rows.div_ceil(CONV_LANES) * geo.k() * CONV_LANES,
        "panel too short"
    );
    assert!(out.len() >= rows * ohw, "output too short");
    assert!(body.supported(), "{body:?} is not supported on this CPU");
    match body {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the CPU supports the body (AVX-512F is part of it), and
        // the asserts above bound every read it makes.
        ConvBody::Avx512Vnni => unsafe { conv_f32_avx512(plane, panel, rows, geo, ep, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        ConvBody::Avx2 => unsafe { conv_f32_avx2(plane, panel, rows, geo, ep, out) },
        _ => conv_f32_portable(plane, panel, rows, geo, ep, out),
    }
}

/// Plane offsets of the `P` pixels of the tile at `p0`, whose first `pw`
/// are real; the rest repeat the last real one. Pixels run row-major over
/// `oh × ow`, and each offset folds the stride in.
#[inline(always)]
fn tile_bases<const P: usize>(geo: &PlaneGeo, p0: usize, pw: usize) -> [usize; P] {
    let (mut oy, mut ox) = (p0 / geo.ow, p0 % geo.ow);
    let mut base = [0; P];
    for (j, b) in base.iter_mut().enumerate() {
        *b = (oy * geo.wp + ox) * geo.stride;
        if j + 1 < pw {
            ox += 1;
            if ox == geo.ow {
                (oy, ox) = (oy + 1, 0);
            }
        }
    }
    base
}

/// Stores a tile's `[pixel][lane]` sums transposed into `out[r][p]` through
/// the epilogue: the first `pw` pixels of rows `r0..r0 + rows`.
#[inline(always)]
fn store_tile<const P: usize>(
    sums: &[[f32; CONV_LANES]; P],
    pw: usize,
    (r0, rows): (usize, usize),
    (p0, ohw): (usize, usize),
    ep: &Epilogue<'_>,
    out: &mut [f32],
) {
    for r in r0..r0 + rows {
        let mut row = [0.0f32; P];
        for (d, s) in row.iter_mut().zip(sums) {
            *d = s[r - r0];
        }
        ep.apply(&row[..pw], r, &mut out[r * ohw + p0..][..pw]);
    }
}

/// Pixels per tile of the portable body.
const PORTABLE_PIXELS: usize = 8;

/// Portable body: the reference the SIMD bodies are tested against. The
/// lane loop is plain Rust, which the compiler vectorizes.
fn conv_f32_portable(
    plane: &[f32],
    panel: &[f32],
    rows: usize,
    geo: &PlaneGeo,
    ep: &Epilogue<'_>,
    out: &mut [f32],
) {
    let (ohw, k) = (geo.oh * geo.ow, geo.k());
    for (block, r0) in (0..rows).step_by(CONV_LANES).enumerate() {
        let w = &panel[block * k * CONV_LANES..][..k * CONV_LANES];
        let tile = (r0, (rows - r0).min(CONV_LANES));
        for p0 in (0..ohw).step_by(PORTABLE_PIXELS) {
            let pw = (ohw - p0).min(PORTABLE_PIXELS);
            let base = tile_bases::<PORTABLE_PIXELS>(geo, p0, pw);
            let mut acc = [[0.0f32; CONV_LANES]; PORTABLE_PIXELS];
            let mut wv = w.chunks_exact(CONV_LANES);
            for c in 0..geo.cg {
                for ky in 0..geo.kh {
                    let row = (c * geo.hp + ky) * geo.wp;
                    for kx in 0..geo.kw {
                        let wv = wv.next().expect("panel holds k vectors per block");
                        for (a, &b) in acc.iter_mut().zip(&base) {
                            let x = plane[b + row + kx];
                            for (a, &wl) in a.iter_mut().zip(wv) {
                                *a += wl * x;
                            }
                        }
                    }
                }
            }
            store_tile(&acc, pw, tile, (p0, ohw), ep, out);
        }
    }
}

/// Pixels per AVX-512 tile: one `zmm` accumulator each.
#[cfg(target_arch = "x86_64")]
const ZMM_PIXELS: usize = 16;

/// AVX-512 body: per 16-channel block, tiles of [`ZMM_PIXELS`] pixels. A
/// block of at most 8 channels runs the AVX2 body's 8-lane register tiles
/// instead, which skip the 8 pad lanes a 16-lane tile would compute.
///
/// # Safety
///
/// The CPU must support AVX-512F, and the slices must cover the geometry as
/// [`conv_f32_implicit`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn conv_f32_avx512(
    plane: &[f32],
    panel: &[f32],
    rows: usize,
    geo: &PlaneGeo,
    ep: &Epilogue<'_>,
    out: &mut [f32],
) {
    let (ohw, k) = (geo.oh * geo.ow, geo.k());
    for (block, r0) in (0..rows).step_by(CONV_LANES).enumerate() {
        let w = panel.as_ptr().add(block * k * CONV_LANES);
        let tile = (r0, (rows - r0).min(CONV_LANES));
        for p0 in (0..ohw).step_by(ZMM_PIXELS) {
            let pw = (ohw - p0).min(ZMM_PIXELS);
            let base = tile_bases(geo, p0, pw);
            let sums = if tile.1 <= CONV_LANES / 2 {
                let mut sums = [[0.0f32; CONV_LANES]; ZMM_PIXELS];
                for j in (0..pw).step_by(8) {
                    ymm_tile::<1, 8>(plane, w, &base, j, geo, &mut sums);
                }
                sums
            } else {
                zmm_tile(plane, w, base, geo)
            };
            store_tile(&sums, pw, tile, (p0, ohw), ep, out);
        }
    }
}

/// One block × [`ZMM_PIXELS`]-pixel tile of the AVX-512 body: the sums of
/// the pixels at plane offsets `base`.
///
/// # Safety
///
/// As [`conv_f32_avx512`], with `w` the block's first panel word and every
/// `base` a pixel's offset.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// Index loops name the register tile's pixel cells.
#[allow(clippy::needless_range_loop)]
unsafe fn zmm_tile(
    plane: &[f32],
    w: *const f32,
    base: [usize; ZMM_PIXELS],
    geo: &PlaneGeo,
) -> [[f32; CONV_LANES]; ZMM_PIXELS] {
    let x = plane.as_ptr();
    let mut a = [_mm512_setzero_ps(); ZMM_PIXELS];
    let mut wk = w;
    for c in 0..geo.cg {
        for ky in 0..geo.kh {
            let row = (c * geo.hp + ky) * geo.wp;
            for kx in 0..geo.kw {
                let wv = _mm512_loadu_ps(wk);
                wk = wk.add(CONV_LANES);
                for j in 0..ZMM_PIXELS {
                    let xv = _mm512_set1_ps(*x.add(base[j] + row + kx));
                    a[j] = _mm512_add_ps(a[j], _mm512_mul_ps(wv, xv));
                }
            }
        }
    }
    let mut sums = [[0.0f32; CONV_LANES]; ZMM_PIXELS];
    for j in 0..ZMM_PIXELS {
        _mm512_storeu_ps(sums[j].as_mut_ptr(), a[j]);
    }
    sums
}

/// Pixels per AVX2 tile, stored together: four register tiles of both
/// 8-channel halves, or two of the low half alone, so that each register
/// tile's accumulators, weights and broadcast fit the 16 `ymm` registers.
#[cfg(target_arch = "x86_64")]
const YMM_PIXELS: usize = 16;

/// AVX2 body: per block, tiles of [`YMM_PIXELS`] pixels, computed as
/// register tiles of 4 pixels × both 8-channel `ymm` halves, or of 8 pixels
/// × the low half alone when the block holds at most 8 channels (its high
/// half is all pad lanes). Register tiles past a short tile's last pixel
/// are skipped.
///
/// # Safety
///
/// The CPU must support AVX2, and the slices must cover the geometry as
/// [`conv_f32_implicit`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn conv_f32_avx2(
    plane: &[f32],
    panel: &[f32],
    rows: usize,
    geo: &PlaneGeo,
    ep: &Epilogue<'_>,
    out: &mut [f32],
) {
    let (ohw, k) = (geo.oh * geo.ow, geo.k());
    for (block, r0) in (0..rows).step_by(CONV_LANES).enumerate() {
        let w = panel.as_ptr().add(block * k * CONV_LANES);
        let tile = (r0, (rows - r0).min(CONV_LANES));
        for p0 in (0..ohw).step_by(YMM_PIXELS) {
            let pw = (ohw - p0).min(YMM_PIXELS);
            let base: [usize; YMM_PIXELS] = tile_bases(geo, p0, pw);
            let mut sums = [[0.0f32; CONV_LANES]; YMM_PIXELS];
            if tile.1 <= CONV_LANES / 2 {
                for j in (0..pw).step_by(8) {
                    ymm_tile::<1, 8>(plane, w, &base, j, geo, &mut sums);
                }
            } else {
                for j in (0..pw).step_by(4) {
                    ymm_tile::<2, 4>(plane, w, &base, j, geo, &mut sums);
                }
            }
            store_tile(&sums, pw, tile, (p0, ohw), ep, out);
        }
    }
}

/// One block × `P`-pixel register tile of the AVX2 body over the block's
/// first `H` 8-channel halves: the sums of the pixels at plane offsets
/// `base[j0..j0 + P]`, written into lanes `0..8 * H` of `sums[j0..j0 + P]`.
///
/// # Safety
///
/// As [`conv_f32_avx2`], with `w` the block's first panel word and every
/// `base` a pixel's offset.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// Index loops name the register tile's (half, pixel) cells.
#[allow(clippy::needless_range_loop)]
unsafe fn ymm_tile<const H: usize, const P: usize>(
    plane: &[f32],
    w: *const f32,
    base: &[usize; YMM_PIXELS],
    j0: usize,
    geo: &PlaneGeo,
    sums: &mut [[f32; CONV_LANES]; YMM_PIXELS],
) {
    let base: &[usize; P] = base[j0..][..P].try_into().expect("P offsets");
    let x = plane.as_ptr();
    let mut a = [[_mm256_setzero_ps(); P]; H];
    let mut wk = w;
    for c in 0..geo.cg {
        for ky in 0..geo.kh {
            let row = (c * geo.hp + ky) * geo.wp;
            for kx in 0..geo.kw {
                let mut wv = [_mm256_setzero_ps(); H];
                for h in 0..H {
                    wv[h] = _mm256_loadu_ps(wk.add(8 * h));
                }
                wk = wk.add(CONV_LANES);
                for j in 0..P {
                    let xv = _mm256_set1_ps(*x.add(base[j] + row + kx));
                    for h in 0..H {
                        a[h][j] = _mm256_add_ps(a[h][j], _mm256_mul_ps(wv[h], xv));
                    }
                }
            }
        }
    }
    for j in 0..P {
        for h in 0..H {
            _mm256_storeu_ps(sums[j0 + j].as_mut_ptr().add(8 * h), a[h][j]);
        }
    }
}

/// Runs `f` with this thread's reusable im2col/product scratch, sized to at
/// least `cols_len`/`prod_len`. Reuse skips a malloc + memset per [`conv2d`]
/// call, which dominates small convolutions; stale contents are harmless
/// because [`im2col_into`] writes (or zero-fills) every element it exposes,
/// the product buffer is fully overwritten by `matmul_into`, and
/// [`conv2d_planned`] zero-fills its plane before use.
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

    fn pack(w: &Tensor, groups: usize) -> PackedConvF32 {
        let &[oc, cg, kh, kw] = w.dims() else {
            unreachable!("conv weights are rank 4");
        };
        PackedConvF32::pack(w.data(), [oc, cg, kh, kw], groups)
    }

    /// Whether two outputs agree bit for bit. Any two NaNs agree: the
    /// compiler may commute a multiply's operands, and so pick either NaN
    /// operand's payload.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn assert_same(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(
                same(g, w),
                "{what}[{i}]: {g} ({:#x}) vs {w} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
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
            let planned = conv2d_planned(&x, &pack(&w, groups), &b, &spec, None, Act::None);
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
        let fused = conv2d_planned(&x, &pack(&w, 1), &b, &spec, None, Act::Relu);
        for (p, q) in fused.data().iter().zip(serial.data()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    /// `conv2d`, then the standalone batch-norm and activation kernels: the
    /// serial chain a planned conv with a fused epilogue reproduces.
    fn serial_chain(
        x: &Tensor,
        w: &Tensor,
        b: &Tensor,
        spec: &ConvSpec,
        bn: Option<BnFoldView<'_>>,
        act: Act,
    ) -> Tensor {
        let mut y = conv2d(x, w, b, spec);
        if let Some(f) = bn {
            let (mut x_hat, mut out) = (Tensor::zeros(y.dims()), Tensor::zeros(y.dims()));
            y.batchnorm2d_into(f.mean, f.inv_std, f.gamma, f.beta, &mut x_hat, &mut out);
            y = out;
        }
        let (src, mut mask) = (y.data().to_vec(), vec![0.0; y.len()]);
        match act {
            Act::None => {}
            Act::Relu => crate::kernels::relu_mask(&src, y.data_mut(), &mut mask),
            Act::LeakyRelu(s) => crate::kernels::leaky_relu_mask(&src, s, y.data_mut(), &mut mask),
        }
        y
    }

    #[test]
    fn implicit_f32_conv_bodies_match_conv2d() {
        let bodies: Vec<ConvBody> = ConvBody::ALL
            .into_iter()
            .filter(|b| b.supported())
            .collect();
        assert!(bodies.contains(&ConvBody::detect()) && bodies.contains(&ConvBody::Portable));
        let mut rng = SeededRng::new(33);
        // (n, c, oc, h, w, groups, k, stride, pad): og of 1, 6, 15, 16,
        // 17, 40, 24 and depthwise; output maps of 25, 49, 9, 16, 99, 64,
        // 36, 15, 16 and 12 pixels, off and on every tile width.
        let cases = [
            (
                2usize, 3usize, 1usize, 5usize, 5usize, 1usize, 3usize, 1usize, 1usize,
            ),
            (1, 4, 6, 7, 7, 1, 3, 1, 1),
            (1, 5, 15, 6, 6, 1, 3, 2, 1),
            (2, 8, 16, 4, 4, 1, 3, 1, 1),
            (1, 6, 34, 9, 7, 2, 3, 1, 2),
            (1, 3, 40, 8, 8, 1, 5, 1, 2),
            (2, 6, 6, 6, 6, 6, 3, 1, 1),
            (1, 16, 24, 3, 5, 1, 1, 1, 0),
            (1, 4, 8, 9, 9, 2, 3, 2, 0),
            (1, 2, 17, 11, 4, 1, 5, 2, 2),
        ];
        let acts = [Act::None, Act::Relu, Act::LeakyRelu(0.1)];
        for (i, &(n, c, oc, h, w, groups, k, stride, pad)) in cases.iter().enumerate() {
            let spec = ConvSpec::new().stride(stride).padding(pad).groups(groups);
            let mut x = Tensor::rand_normal(&[n, c, h, w], 0.0, 1.0, &mut rng);
            let mut wt = Tensor::rand_normal(&[oc, c / groups, k, k], 0.0, 0.5, &mut rng);
            let b = Tensor::rand_normal(&[oc], 0.0, 0.1, &mut rng);
            if i % 2 == 1 {
                // Non-finite and negative-zero inputs, and in output channel
                // 0 an infinite corner weight (whose products with padding
                // zeros are NaN) and a negative-zero weight.
                let len = x.len();
                for (j, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0]
                    .into_iter()
                    .enumerate()
                {
                    x.data_mut()[(j * 7919 + i) % len] = v;
                }
                let per_row = wt.len() / oc;
                wt.data_mut()[0] = f32::INFINITY;
                wt.data_mut()[1.min(per_row - 1)] = -0.0;
            }
            let per_channel = |f: fn(f32) -> f32| (0..oc).map(|o| f(o as f32)).collect::<Vec<_>>();
            let mean = per_channel(|o| 0.1 * o - 0.5);
            let inv_std = per_channel(|o| 1.0 / (0.5 + 0.07 * o + 1e-5f32).sqrt());
            let gamma = per_channel(|o| 1.0 - 0.03 * o);
            let beta = per_channel(|o| 0.02 * o - 0.1);
            let bn = (i % 3 != 0).then_some(BnFoldView {
                mean: &mean,
                inv_std: &inv_std,
                gamma: &gamma,
                beta: &beta,
            });
            let act = acts[i / 3 % 3];
            let want = serial_chain(&x, &wt, &b, &spec, bn, act);
            let panel = pack(&wt, groups);
            for &body in &bodies {
                let what = format!("case {i} on {body:?}");
                let got = conv2d_planned_on(body, &x, &panel, &b, &spec, bn, act);
                assert_eq!(got.dims(), want.dims(), "{what}");
                assert_same(got.data(), want.data(), &what);

                // Sample 0, group 0 alone, into an output that runs on past
                // the group's rows: no pad lane is ever stored.
                let (hp, wp) = (h + 2 * pad, w + 2 * pad);
                let (oh, ow) = (spec.out_size(h, k), spec.out_size(w, k));
                let geo = PlaneGeo {
                    hp,
                    wp,
                    cg: c / groups,
                    stride,
                    kh: k,
                    kw: k,
                    oh,
                    ow,
                };
                let mut plane = vec![0.0; geo.len()];
                fill_plane(&x.data()[..geo.cg * h * w], &geo, pad, &mut plane);
                let (og, ohw) = (oc / groups, oh * ow);
                let ep = Epilogue::PerRow {
                    bias: b.data(),
                    bn,
                    act,
                    row0: 0,
                };
                let poison = f32::from_bits(0x7fc0_dead);
                let mut out = vec![poison; og * ohw + 2 * CONV_LANES * ohw];
                conv_f32_implicit(
                    body,
                    &plane,
                    &panel.data()[..panel.group_len()],
                    og,
                    &geo,
                    &ep,
                    &mut out,
                );
                assert_same(&out[..og * ohw], &got.data()[..og * ohw], &what);
                assert!(
                    out[og * ohw..]
                        .iter()
                        .all(|v| v.to_bits() == poison.to_bits()),
                    "{what}: a store past the group's rows"
                );
            }
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
