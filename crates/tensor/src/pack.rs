//! Pre-packed weight panels and fused GEMM epilogues — the tensor-level half
//! of the compiled forward plan, which covers convolutions only (linear
//! layers run their reference forward under every configuration).
//!
//! A fault-injection campaign runs the same weights through the same GEMMs
//! millions of times. Packing rearranges each conv weight matrix **once**
//! into the exact panel layout the register-tiled microkernels walk
//! ([`PackedA`] for the f32 GEMM, whose left operand is the weight matrix,
//! [`PackedConvI16`] for pre-widened INT8 weights in the implicit-GEMM
//! order), so the per-trial kernel streams one contiguous buffer instead of
//! gathering strided rows.
//!
//! **Bit-identity.** The packed f32 kernels perform, for every output
//! element, the identical sequence of multiplies and adds as the unpacked
//! [`matmul_into`](crate::matmul_into) kernel: accumulation is strictly
//! `kk`-increasing into a single accumulator, Rust never contracts
//! `a * b + c` into a fused multiply-add, and packing only changes *where*
//! an operand is read from, never *when* it enters the accumulation. The
//! INT8 kernels are exact integer arithmetic, identical under any order.
//!
//! **Fused epilogues.** The [`Epilogue`] applied in the write-back loop
//! replicates the per-element op order of the serial layer chain — bias add
//! (`acc + b`), then folded batch-norm (`(v - mean) * inv_std` followed by
//! `g * n + b`), then activation (`v.max(0.0)` / leaky) — with no
//! intervening pass, so fused and unfused forwards produce the same bits
//! while the memory-bound bias/BN/ReLU passes over the output disappear.
//!
//! Packing is a pure function of the weight bytes: repacking after a
//! weight-fault undo reproduces the blessed panel bytes exactly.

use crate::linalg::{MR, NR};
use crate::parallel;

/// Activation applied in a fused GEMM write-back, replicating the exact
/// per-element ops of the standalone kernels in [`kernels`](crate::kernels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Act {
    /// Raw affine output.
    None,
    /// `v.max(0.0)` — same `f32::max` as [`relu_mask`](crate::kernels::relu_mask).
    Relu,
    /// `if v <= 0 { slope * v } else { v }` — same branch as
    /// [`leaky_relu_mask`](crate::kernels::leaky_relu_mask).
    LeakyRelu(f32),
}

impl Act {
    /// Applies the activation to one value.
    #[inline(always)]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            Act::None => v,
            Act::Relu => v.max(0.0),
            Act::LeakyRelu(slope) => {
                let neg = v <= 0.0;
                if neg {
                    slope * v
                } else {
                    v
                }
            }
        }
    }
}

/// Folded inference-mode batch-norm constants, one entry per output row
/// (= output channel). `inv_std` must be precomputed as
/// `1.0 / (var + eps).sqrt()` — the exact expression the standalone layer
/// uses — so the fused chain reproduces its bits.
#[derive(Debug, Clone, Copy)]
pub struct BnFoldView<'a> {
    /// Running mean per channel.
    pub mean: &'a [f32],
    /// `1 / sqrt(running_var + eps)` per channel.
    pub inv_std: &'a [f32],
    /// Scale (γ) per channel.
    pub gamma: &'a [f32],
    /// Shift (β) per channel.
    pub beta: &'a [f32],
}

/// What the GEMM write-back loop applies to each accumulated element before
/// storing it. Op order per element matches the serial layer chain exactly:
/// bias, then batch-norm, then activation.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// Store the raw accumulator (bit-identical to the unpacked kernel).
    None,
    /// Per-output-row constants — the convolution layout, where each GEMM
    /// row is one output channel. `row0` offsets the slice lookups for
    /// grouped convolution (group `g` computes global rows `g*og + r`).
    PerRow {
        /// Bias per output row; `v = acc + bias[row]` first, matching the
        /// conv write-back `*d = s + b`.
        bias: &'a [f32],
        /// Folded batch-norm constants, applied after the bias.
        bn: Option<BnFoldView<'a>>,
        /// Activation, applied last.
        act: Act,
        /// Global row index of the kernel's row 0.
        row0: usize,
    },
}

impl Epilogue<'_> {
    /// Full-tile write-back: takes the accumulator row **by value** so no
    /// reference into the kernel's register tile ever escapes — otherwise
    /// SROA cannot promote the tile out of its stack slot and the hot loop
    /// pays a store per accumulator per `kk` step.
    #[inline(always)]
    fn apply_row(&self, acc: [f32; NR], row: usize, dst: &mut [f32]) {
        match *self {
            Epilogue::None => dst[..NR].copy_from_slice(&acc),
            Epilogue::PerRow {
                bias,
                bn,
                act,
                row0,
            } => {
                let r = row0 + row;
                let b = bias[r];
                match bn {
                    None => {
                        for (d, s) in dst.iter_mut().zip(acc) {
                            *d = act.apply(s + b);
                        }
                    }
                    Some(f) => {
                        let (m, is) = (f.mean[r], f.inv_std[r]);
                        let (g, b2) = (f.gamma[r], f.beta[r]);
                        for (d, s) in dst.iter_mut().zip(acc) {
                            let v = s + b;
                            let n = (v - m) * is;
                            *d = act.apply(g * n + b2);
                        }
                    }
                }
            }
        }
    }

    /// Applies the epilogue to one accumulated row segment `acc`, writing
    /// into `dst`. `row` is the kernel-local output row. Partial-tile path;
    /// the hot full tiles go through [`Self::apply_row`].
    #[inline(always)]
    fn apply(&self, acc: &[f32], row: usize, dst: &mut [f32]) {
        match *self {
            Epilogue::None => dst[..acc.len()].copy_from_slice(acc),
            Epilogue::PerRow {
                bias,
                bn,
                act,
                row0,
            } => {
                let r = row0 + row;
                let b = bias[r];
                match bn {
                    None => {
                        for (d, &s) in dst.iter_mut().zip(acc) {
                            *d = act.apply(s + b);
                        }
                    }
                    Some(f) => {
                        let (m, is) = (f.mean[r], f.inv_std[r]);
                        let (g, b2) = (f.gamma[r], f.beta[r]);
                        for (d, &s) in dst.iter_mut().zip(acc) {
                            let v = s + b;
                            let n = (v - m) * is;
                            *d = act.apply(g * n + b2);
                        }
                    }
                }
            }
        }
    }
}

/// An `[m, k]` f32 matrix re-tiled for the left operand of the 4×16
/// microkernel: full `MR`-row panels stored `kk`-major (`buf[panel*MR*k +
/// kk*MR + r]`), remainder rows appended row-major. Pure function of the
/// source bytes — repacking identical weights reproduces identical panels.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedA {
    m: usize,
    k: usize,
    buf: Vec<f32>,
}

impl PackedA {
    /// Packs a row-major `[m, k]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m * k`.
    pub fn pack(a: &[f32], m: usize, k: usize) -> Self {
        let mut p = Self {
            m,
            k,
            buf: vec![0.0; m * k],
        };
        p.fill(a);
        p
    }

    /// Repacks in place from a matrix with the same dimensions, reusing the
    /// panel buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m * k`.
    pub fn repack(&mut self, a: &[f32]) {
        self.fill(a);
    }

    fn fill(&mut self, a: &[f32]) {
        let (m, k) = (self.m, self.k);
        assert_eq!(a.len(), m * k, "source length != m*k");
        let m_full = m - m % MR;
        for p in 0..m_full / MR {
            let dst = &mut self.buf[p * MR * k..(p + 1) * MR * k];
            for kk in 0..k {
                for r in 0..MR {
                    dst[kk * MR + r] = a[(p * MR + r) * k + kk];
                }
            }
        }
        // Remainder rows stay row-major; the kernel's partial-tile path
        // reads them exactly like the unpacked kernel reads `a` rows.
        self.buf[m_full * k..].copy_from_slice(&a[m_full * k..]);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Inner (k) dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The raw panel bytes (diagnostics/tests).
    pub fn panel_data(&self) -> &[f32] {
        &self.buf
    }
}

/// Output channels per [`PackedConvI16`] block: the 16 `i32` accumulator
/// lanes of one AVX-512 register (two AVX2 registers).
pub(crate) const CONV_LANES: usize = 16;

/// INT8 convolution weights `[oc, cg, kh, kw]` pre-widened to `i16` and laid
/// out for the implicit-GEMM convolution kernel, which computes each block
/// of 16 output channels as an outer product with a tile of output pixels.
///
/// The words are `[group][⌈og/16⌉ blocks][ky][seg/2 k-pairs][16 lanes][2]`.
/// Within kernel row `ky`, lane `l` of the segment is the `(kx, c)` word
/// `w[o][c][ky][kx]` at `l = kx * cg + c` — the order in which a
/// channels-last input plane stores the `kw` pixels one kernel row covers —
/// and [`seg`](Self::seg) is `kw * cg` rounded up to an even count. Segment
/// lanes go in pairs: k-pair `q` of a block holds, for each of its 16
/// channels, lanes `2q` and `2q + 1` side by side, so one 32-word vector
/// meets one broadcast input pair in a single multiply-add. The odd pad
/// lane of an odd `kw * cg` must stay zero, because the kernel multiplies
/// it against a real plane word. No block straddles two groups; rows past a
/// group's last channel (pad rows) stay zero too, and the kernel never
/// stores their sums. Every write goes through a source index, never a pad
/// slot.
///
/// Integer accumulation is exact, so this `(ky, kx, c)` order gives the same
/// sums as the `(c, ky, kx)` order of the unplanned im2row GEMM. Packing is
/// a pure function of the weight bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedConvI16 {
    dims: [usize; 4],
    groups: usize,
    seg: usize,
    buf: Vec<i16>,
}

impl PackedConvI16 {
    /// Packs `src`, the row-major `i8` words of an `[oc, cg, kh, kw]` weight
    /// tensor whose `oc` output channels form `groups` equal groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero or does not divide `oc`, or if
    /// `src.len()` disagrees with `dims`.
    pub fn pack(src: &[i8], dims: [usize; 4], groups: usize) -> Self {
        let [oc, cg, kh, kw] = dims;
        assert!(
            groups > 0 && oc.is_multiple_of(groups),
            "{oc} output channels do not split into {groups} groups"
        );
        let seg = (kw * cg).next_multiple_of(2);
        let blocks = groups * (oc / groups).div_ceil(CONV_LANES);
        let mut p = Self {
            dims,
            groups,
            seg,
            buf: vec![0; blocks * kh * seg * CONV_LANES],
        };
        p.repack(src);
        p
    }

    /// Repacks in place from a same-shaped source, reusing the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` disagrees with the packed dimensions.
    pub fn repack(&mut self, src: &[i8]) {
        let [oc, cg, kh, kw] = self.dims;
        assert_eq!(src.len(), oc * cg * kh * kw, "source length != weight dims");
        let mut words = src.iter();
        for o in 0..oc {
            let row = self.row_base(o);
            for c in 0..cg {
                for ky in 0..kh {
                    for kx in 0..kw {
                        let slot = row + self.lane_offset(ky, kx * cg + c);
                        self.buf[slot] = *words.next().expect("length checked") as i16;
                    }
                }
            }
        }
    }

    /// Writes one weight word: the panel slot of row-major source index
    /// `index` becomes `word`, exactly as a [`repack`](Self::repack) from a
    /// source holding `word` there would leave it. This is the whole cost
    /// of a stored-weight fault (and of its undo) on a compiled plan.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set_word(&mut self, index: usize, word: i8) {
        let [oc, cg, kh, kw] = self.dims;
        assert!(
            index < oc * cg * kh * kw,
            "weight index {index} out of bounds"
        );
        let (o, rem) = (index / (cg * kh * kw), index % (cg * kh * kw));
        let (c, ky, kx) = (rem / (kh * kw), rem / kw % kh, rem % kw);
        let slot = self.row_base(o) + self.lane_offset(ky, kx * cg + c);
        self.buf[slot] = word as i16;
    }

    /// Slot of output channel `o`'s word at kernel row 0, segment lane 0:
    /// its block's start plus its lane pair within the block.
    #[inline]
    fn row_base(&self, o: usize) -> usize {
        let [oc, _, kh, _] = self.dims;
        let og = oc / self.groups;
        let block = o / og * og.div_ceil(CONV_LANES) + o % og / CONV_LANES;
        block * kh * self.seg * CONV_LANES + o % og % CONV_LANES * 2
    }

    /// Offset of kernel row `ky`, segment lane `lane` from a
    /// [`row_base`](Self::row_base).
    #[inline]
    fn lane_offset(&self, ky: usize, lane: usize) -> usize {
        (ky * self.seg + lane / 2 * 2) * CONV_LANES + lane % 2
    }

    /// The packed weight dimensions `[oc, cg, kh, kw]`.
    pub fn dims(&self) -> [usize; 4] {
        self.dims
    }

    /// The number of groups the output channels split into.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Lanes per kernel-row segment: `kw * cg` rounded up to an even count.
    pub fn seg(&self) -> usize {
        self.seg
    }

    /// Words per group: `⌈og/16⌉` blocks of `kh * seg * 16`.
    pub fn group_len(&self) -> usize {
        self.buf.len() / self.groups
    }

    /// The packed words, `[group][block][ky][seg/2][16][2]`.
    pub fn data(&self) -> &[i16] {
        &self.buf
    }
}

/// Packed-A GEMM with fused epilogue: `pa [m, k] x b [k, n]` into
/// `out [m * n]`. Per-element accumulation order matches
/// [`matmul_into`](crate::matmul_into) exactly; only the epilogue transform
/// differs from a raw store.
///
/// Splits its output rows across threads in `MR`-aligned blocks, under the
/// same rule as [`matmul_into`](crate::matmul_into): only for work that
/// reaches [`parallel::FORK_MACS`] outside any parallel task, and never with
/// `allow_parallel = false`.
///
/// # Panics
///
/// Panics if slice lengths disagree with the packed dimensions.
pub fn matmul_packed_a(
    pa: &PackedA,
    b: &[f32],
    out: &mut [f32],
    n: usize,
    ep: &Epilogue<'_>,
    allow_parallel: bool,
) {
    crate::opcount::count_matmul();
    let (m, k) = (pa.m, pa.k);
    assert_eq!(b.len(), k * n, "rhs length != k*n");
    assert_eq!(out.len(), m * n, "out length != m*n");
    let macs = if allow_parallel { m * n * k } else { 0 };
    // Chunks are MR-aligned so every worker starts on a panel boundary.
    parallel::for_each_chunk_mut_aligned(out, n, MR, macs, |row0, rows, slab| {
        packed_a_rows(pa, b, row0..row0 + rows, slab, n, ep);
    });
}

/// Dispatch trio for the packed-A row kernel (see `block_rows` in `linalg`).
fn packed_a_rows(
    pa: &PackedA,
    b: &[f32],
    rows: std::ops::Range<usize>,
    out_rows: &mut [f32],
    n: usize,
    ep: &Epilogue<'_>,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: reached only after runtime detection confirms AVX2.
        unsafe { packed_a_rows_avx2(pa, b, rows, out_rows, n, ep) };
        return;
    }
    packed_a_rows_impl(pa, b, rows, out_rows, n, ep);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn packed_a_rows_avx2(
    pa: &PackedA,
    b: &[f32],
    rows: std::ops::Range<usize>,
    out_rows: &mut [f32],
    n: usize,
    ep: &Epilogue<'_>,
) {
    packed_a_rows_impl(pa, b, rows, out_rows, n, ep);
}

#[inline(always)]
fn packed_a_rows_impl(
    pa: &PackedA,
    b: &[f32],
    rows: std::ops::Range<usize>,
    out_rows: &mut [f32],
    n: usize,
    ep: &Epilogue<'_>,
) {
    let (m, k) = (pa.m, pa.k);
    let m_full = m - m % MR;
    let row0 = rows.start;
    debug_assert_eq!(row0 % MR, 0, "packed-A chunks start on panel boundaries");
    let mut i = rows.start;
    while i < rows.end {
        let mr = MR.min(rows.end - i);
        let mut jt = 0;
        while jt < n {
            let jw = NR.min(n - jt);
            if mr == MR && jw == NR && i < m_full {
                let panel = &pa.buf[i * k..(i + MR) * k];
                let mut acc = [[0.0f32; NR]; MR];
                // `chunks_exact` hands the kernel provably-MR-wide segments,
                // keeping the hot loop free of the length checks a manual
                // `panel[kk * MR..]` slice would re-derive every iteration.
                for (kk, a_seg) in panel.chunks_exact(MR).enumerate() {
                    let b_seg: &[f32; NR] = b[kk * n + jt..kk * n + jt + NR]
                        .try_into()
                        .expect("NR-wide");
                    let (v0, v1, v2, v3) = (a_seg[0], a_seg[1], a_seg[2], a_seg[3]);
                    for j in 0..NR {
                        acc[0][j] += v0 * b_seg[j];
                        acc[1][j] += v1 * b_seg[j];
                        acc[2][j] += v2 * b_seg[j];
                        acc[3][j] += v3 * b_seg[j];
                    }
                }
                for (r, acc_row) in acc.into_iter().enumerate() {
                    let base = (i - row0 + r) * n + jt;
                    ep.apply_row(acc_row, i + r, &mut out_rows[base..base + NR]);
                }
            } else {
                // Partial tiles: per-row single accumulator, kk-increasing —
                // the same order as the unpacked kernel's remainder path.
                // Rows inside full panels are gathered back out of the panel
                // layout (stride MR); tail rows are stored row-major.
                for r in 0..mr {
                    let row = i + r;
                    let mut acc = [0.0f32; NR];
                    if row < m_full {
                        let panel = &pa.buf[(row / MR) * MR * k..];
                        let rr = row % MR;
                        for kk in 0..k {
                            let av = panel[kk * MR + rr];
                            let b_seg = &b[kk * n + jt..kk * n + jt + jw];
                            for (o, &bv) in acc.iter_mut().zip(b_seg) {
                                *o += av * bv;
                            }
                        }
                    } else {
                        let a_row = &pa.buf[m_full * k + (row - m_full) * k..][..k];
                        for (kk, &av) in a_row.iter().enumerate() {
                            let b_seg = &b[kk * n + jt..kk * n + jt + jw];
                            for (o, &bv) in acc.iter_mut().zip(b_seg) {
                                *o += av * bv;
                            }
                        }
                    }
                    let base = (row - row0) * n + jt;
                    ep.apply(&acc[..jw], row, &mut out_rows[base..base + jw]);
                }
            }
            jt += jw;
        }
        i += mr;
    }
}

/// A precomputed gather map: the compiled plan's replacement for per-element
/// index arithmetic when lowering an activation slice into a GEMM operand
/// (the f32 im2col). Each entry is either a source offset or an
/// out-of-range sentinel standing for a padding zero, so the per-forward
/// lowering collapses to one flat indexed copy — no per-element coordinate
/// math, no edge-case branches.
///
/// The map is a pure function of the convolution geometry and the input
/// spatial shape, so it is built once per campaign (lazily, on the first
/// planned forward that sees the shape) and reused by every trial.
#[derive(Debug, Clone)]
pub struct GatherPlan {
    /// Expected source slice length; gathers assert against it.
    src_len: usize,
    /// One source offset per destination element; any value `>= src_len`
    /// (canonically [`GatherPlan::PAD`]) writes the type's zero instead.
    idx: Vec<u32>,
}

impl GatherPlan {
    /// Sentinel for "this destination element is a padding zero".
    pub const PAD: u32 = u32::MAX;

    /// Wraps a prebuilt index map. `idx` entries `>= src_len` gather a zero.
    ///
    /// # Panics
    ///
    /// Panics if `src_len` overflows `u32` (the map's offset width).
    pub fn new(src_len: usize, idx: Vec<u32>) -> Self {
        assert!(
            u32::try_from(src_len).is_ok(),
            "gather source too large for u32 offsets"
        );
        Self { src_len, idx }
    }

    /// Number of destination elements the map produces.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Executes the gather: `dst[i] = src[idx[i]]`, or `T::default()` where
    /// the entry is out of range (padding). The single `src.get` bound per
    /// element is the entire inner loop — padding needs no special case
    /// because the sentinel is simply an out-of-range offset.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` disagree with the map's dimensions.
    pub fn gather<T: Copy + Default>(&self, src: &[T], dst: &mut [T]) {
        assert_eq!(src.len(), self.src_len, "gather source length");
        assert_eq!(dst.len(), self.idx.len(), "gather destination length");
        for (d, &ix) in dst.iter_mut().zip(&self.idx) {
            *d = src.get(ix as usize).copied().unwrap_or_default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::matmul_into;
    use crate::rng::SeededRng;
    use crate::tensor::Tensor;

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn gather_plan_copies_and_zero_fills() {
        let plan = GatherPlan::new(4, vec![2, 0, GatherPlan::PAD, 3, 7]);
        let src = [10.0f32, 11.0, 12.0, 13.0];
        let mut dst = [f32::NAN; 5];
        plan.gather(&src, &mut dst);
        // Both the canonical PAD sentinel and any other out-of-range offset
        // produce the zero element.
        assert_eq!(dst, [12.0, 10.0, 0.0, 13.0, 0.0]);
        let qsrc = [1i8, 2, 3, 4];
        let mut qdst = [9i8; 5];
        plan.gather(&qsrc, &mut qdst);
        assert_eq!(qdst, [3, 1, 0, 4, 0]);
    }

    #[test]
    fn packed_a_matches_unpacked_bit_for_bit() {
        let mut rng = SeededRng::new(41);
        // Full tiles, remainder rows, partial column tiles.
        for &(m, k, n) in &[
            (4usize, 16usize, 16usize),
            (8, 27, 256),
            (5, 9, 3),
            (1, 37, 130),
            (13, 64, 33),
        ] {
            let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
            let mut plain = vec![0.0f32; m * n];
            matmul_into(a.data(), b.data(), &mut plain, m, k, n, false);
            let pa = PackedA::pack(a.data(), m, k);
            let mut packed = vec![9.0f32; m * n];
            matmul_packed_a(&pa, b.data(), &mut packed, n, &Epilogue::None, false);
            assert_bits_eq(&packed, &plain, &format!("packed-A {m}x{k}x{n}"));
        }
    }

    #[test]
    fn repack_reproduces_blessed_panel_bytes() {
        let mut rng = SeededRng::new(53);
        let (m, k) = (10usize, 27usize);
        let w = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        let blessed = PackedA::pack(w.data(), m, k);
        let mut live = blessed.clone();
        // Fault, repack, undo, repack — the final panels must be the
        // blessed bytes exactly.
        let mut faulty = w.clone();
        faulty.data_mut()[5] = f32::NEG_INFINITY;
        live.repack(faulty.data());
        assert_ne!(live, blessed);
        live.repack(w.data());
        assert_eq!(live.panel_data(), blessed.panel_data());
    }

    #[test]
    fn epilogue_matches_serial_chain_bit_for_bit() {
        let mut rng = SeededRng::new(59);
        let (m, k, n) = (6usize, 21usize, 40usize);
        let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
        let bias: Vec<f32> = (0..m).map(|i| (i as f32 - 2.5) * 0.3).collect();
        let mean: Vec<f32> = (0..m).map(|i| (i as f32) * 0.11).collect();
        let var: Vec<f32> = (0..m).map(|i| 0.5 + i as f32 * 0.07).collect();
        let gamma: Vec<f32> = (0..m).map(|i| 1.0 - i as f32 * 0.05).collect();
        let beta: Vec<f32> = (0..m).map(|i| i as f32 * 0.02 - 0.1).collect();
        let eps = 1e-5f32;
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();

        // Serial chain: raw GEMM, then bias, then BN, then leaky ReLU — the
        // exact per-element expressions of the standalone layers.
        let mut serial = vec![0.0f32; m * n];
        matmul_into(a.data(), b.data(), &mut serial, m, k, n, false);
        for r in 0..m {
            for v in &mut serial[r * n..(r + 1) * n] {
                let x = *v + bias[r];
                let nrm = (x - mean[r]) * inv_std[r];
                let y = gamma[r] * nrm + beta[r];
                let neg = y <= 0.0;
                *v = if neg { 0.01 * y } else { y };
            }
        }

        let pa = PackedA::pack(a.data(), m, k);
        let ep = Epilogue::PerRow {
            bias: &bias,
            bn: Some(BnFoldView {
                mean: &mean,
                inv_std: &inv_std,
                gamma: &gamma,
                beta: &beta,
            }),
            act: Act::LeakyRelu(0.01),
            row0: 0,
        };
        let mut fused = vec![0.0f32; m * n];
        matmul_packed_a(&pa, b.data(), &mut fused, n, &ep, false);
        assert_bits_eq(&fused, &serial, "fused epilogue");
    }

    #[test]
    fn row_split_packed_a_is_bit_identical() {
        let mut rng = SeededRng::new(67);
        // Crosses the fork threshold with `m` off a multiple of `MR`, so a
        // split (on a multi-core host) ends in a partial panel.
        let (m, k, n) = (37usize, 290usize, 130usize);
        assert!(m * k * n >= parallel::FORK_MACS && m % MR != 0);
        let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
        let pa = PackedA::pack(a.data(), m, k);
        let mut serial = vec![0.0f32; m * n];
        matmul_packed_a(&pa, b.data(), &mut serial, n, &Epilogue::None, false);
        let mut split = vec![0.0f32; m * n];
        matmul_packed_a(&pa, b.data(), &mut split, n, &Epilogue::None, true);
        assert_bits_eq(&split, &serial, "row-split packed-A");
    }

    #[test]
    fn conv_panel_layout_is_ky_kx_c_with_zero_padded_segments() {
        // kw*cg = 9 real lanes per 10-lane segment (one odd pad lane); 20
        // channels as one group (a full block, then 4 rows and 12 pad rows)
        // and as two groups of 10 (one block each, 6 pad rows).
        let (oc, cg, kh, kw) = (20usize, 3usize, 2usize, 3usize);
        let src: Vec<i8> = (0..oc * cg * kh * kw)
            .map(|i| (i % 127) as i8 + 1)
            .collect();
        for (groups, blocks_per_group) in [(1usize, 2usize), (2, 1)] {
            let p = PackedConvI16::pack(&src, [oc, cg, kh, kw], groups);
            let block_len = kh * 10 * 16;
            assert_eq!(
                (p.seg(), p.group_len(), p.data().len()),
                (
                    10,
                    blocks_per_group * block_len,
                    groups * blocks_per_group * block_len
                )
            );
            let og = oc / groups;
            let mut want = vec![0i16; p.data().len()];
            for o in 0..oc {
                let (g, r) = (o / og, o % og);
                let block = g * blocks_per_group + r / 16;
                for c in 0..cg {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let l = kx * cg + c;
                            let slot = (((block * kh + ky) * 5 + l / 2) * 16 + r % 16) * 2 + l % 2;
                            want[slot] = src[((o * cg + c) * kh + ky) * kw + kx] as i16;
                        }
                    }
                }
            }
            // Every other slot — pad rows and the pad lane — is zero.
            assert_eq!(p.data(), &want[..], "groups {groups}");
            assert_eq!(
                want.iter().filter(|&&v| v != 0).count(),
                src.len(),
                "every source word lands in its own slot"
            );
        }
    }

    #[test]
    fn conv_panel_word_writes_match_a_fresh_pack() {
        // A one-block panel, and two groups of 18 rows (two blocks each).
        for (dims, groups) in [([4usize, 5, 3, 3], 1usize), ([36, 3, 3, 3], 2)] {
            let len = dims.iter().product::<usize>();
            let src: Vec<i8> = (0..len).map(|i| (i * 37 % 255) as u8 as i8).collect();
            let blessed = PackedConvI16::pack(&src, dims, groups);
            let mut live = blessed.clone();
            let mut faulty = src.clone();
            for index in [0usize, 1, 44, 91, len / 2 + 3, len - 28, len - 1] {
                let flipped = (src[index] as u8 ^ 0x80) as i8;
                faulty[index] = flipped;
                live.set_word(index, flipped);
                assert_eq!(
                    live,
                    PackedConvI16::pack(&faulty, dims, groups),
                    "apply @{index}"
                );
                faulty[index] = src[index];
                live.set_word(index, src[index]);
                assert_eq!(live, blessed, "undo @{index}");
            }
            let mut repacked = blessed.clone();
            repacked.repack(&faulty);
            assert_eq!(repacked, blessed);
        }
    }
}
