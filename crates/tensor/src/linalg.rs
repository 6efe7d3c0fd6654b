//! Dense matrix multiplication.

use crate::parallel;
use crate::tensor::Tensor;

/// Rows of `a` processed together by the register-blocked microkernel: each
/// loaded `b` segment feeds this many output rows.
pub(crate) const MR: usize = 4;

/// Column-tile width of the microkernel. An `MR` × `NR` f32 accumulator tile
/// fits in SIMD registers, so the hot loop does `MR * NR` fused
/// multiply-adds per `NR`-wide load of `b`.
pub(crate) const NR: usize = 16;

/// Serial register-blocked kernel over `rows` of the output.
///
/// Accumulation order per output element is strictly `kk`-increasing — the
/// same order for every blocking factor, tile width, and thread count — so
/// results are bit-identical regardless of how the work is split.
///
/// On x86-64 the same body is also compiled with AVX2 enabled and selected
/// by runtime CPU detection. Only the SIMD lane width changes: every output
/// element still sees the identical sequence of f32 multiplies and adds
/// (Rust never contracts `a * b + c` into a fused multiply-add), so the two
/// paths are bit-identical and the dispatch is unobservable in results.
fn block_rows(
    a: &[f32],
    b: &[f32],
    rows: std::ops::Range<usize>,
    out_rows: &mut [f32],
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 compilation of the kernel is only reached after
        // runtime detection confirms the CPU supports it.
        unsafe { block_rows_avx2(a, b, rows, out_rows, k, n) };
        return;
    }
    block_rows_impl(a, b, rows, out_rows, k, n);
}

/// The portable compilation of [`block_rows_impl`], widened to AVX2 lanes.
/// Same ops in the same per-element order — see [`block_rows`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn block_rows_avx2(
    a: &[f32],
    b: &[f32],
    rows: std::ops::Range<usize>,
    out_rows: &mut [f32],
    k: usize,
    n: usize,
) {
    block_rows_impl(a, b, rows, out_rows, k, n);
}

#[inline(always)]
fn block_rows_impl(
    a: &[f32],
    b: &[f32],
    rows: std::ops::Range<usize>,
    out_rows: &mut [f32],
    k: usize,
    n: usize,
) {
    let row0 = rows.start;
    let mut i = rows.start;
    while i < rows.end {
        let mr = MR.min(rows.end - i);
        let mut jt = 0;
        while jt < n {
            let jw = NR.min(n - jt);
            if mr == MR && jw == NR {
                // Full tile: constant trip counts let the accumulators live
                // in registers across the whole k sweep.
                let a0 = &a[i * k..(i + 1) * k];
                let a1 = &a[(i + 1) * k..(i + 2) * k];
                let a2 = &a[(i + 2) * k..(i + 3) * k];
                let a3 = &a[(i + 3) * k..(i + 4) * k];
                let mut acc = [[0.0f32; NR]; MR];
                for kk in 0..k {
                    let b_seg: &[f32; NR] = b[kk * n + jt..kk * n + jt + NR]
                        .try_into()
                        .expect("NR-wide");
                    let (v0, v1, v2, v3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
                    for j in 0..NR {
                        acc[0][j] += v0 * b_seg[j];
                        acc[1][j] += v1 * b_seg[j];
                        acc[2][j] += v2 * b_seg[j];
                        acc[3][j] += v3 * b_seg[j];
                    }
                }
                for (r, acc_row) in acc.iter().enumerate() {
                    let base = (i - row0 + r) * n + jt;
                    out_rows[base..base + NR].copy_from_slice(acc_row);
                }
            } else {
                // Remainder rows/columns: same kk-increasing accumulation
                // into a partial tile.
                for r in 0..mr {
                    let mut acc = [0.0f32; NR];
                    let a_row = &a[(i + r) * k..(i + r + 1) * k];
                    for (kk, &av) in a_row.iter().enumerate() {
                        let b_seg = &b[kk * n + jt..kk * n + jt + jw];
                        for (o, &bv) in acc.iter_mut().zip(b_seg) {
                            *o += av * bv;
                        }
                    }
                    let base = (i - row0 + r) * n + jt;
                    out_rows[base..base + jw].copy_from_slice(&acc[..jw]);
                }
            }
            jt += jw;
        }
        i += mr;
    }
}

/// Multiplies `a [m, k] x b [k, n]` into `out [m * n]`, overwriting `out`.
///
/// This is the allocation-free core of [`matmul`], exposed so callers with
/// reusable scratch buffers (im2col convolution, benchmarks) can skip the
/// per-call `Tensor` allocation. Splits its output rows across threads
/// through [`parallel::for_each_chunk_mut`], which forks only for work that
/// reaches [`parallel::FORK_MACS`] outside any parallel task;
/// `allow_parallel = false` keeps every row on the calling thread.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m`, `k`, `n`.
pub fn matmul_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    allow_parallel: bool,
) {
    crate::opcount::count_matmul();
    assert_eq!(a.len(), m * k, "lhs length != m*k");
    assert_eq!(b.len(), k * n, "rhs length != k*n");
    assert_eq!(out.len(), m * n, "out length != m*n");
    // No zero-fill needed: block_rows overwrites every output element.
    let macs = if allow_parallel { m * n * k } else { 0 };
    parallel::for_each_chunk_mut(out, n, macs, |row0, rows, slab| {
        block_rows(a, b, row0..row0 + rows, slab, k, n);
    });
}

/// Multiplies two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
///
/// Uses a register-blocked microkernel (`MR` output rows share each loaded
/// `b` row, columns processed in `NR`-wide tiles) and parallelizes over
/// output rows for large problems. Accumulation order per output element is
/// identical in the serial and parallel paths, so results do not depend on
/// the thread count.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use rustfi_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
/// assert_eq!(matmul(&a, &i), a);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.dims2();
    let (k2, n) = b.dims2();
    assert_eq!(
        k,
        k2,
        "matmul inner dimension mismatch: {:?} x {:?}",
        a.dims(),
        b.dims()
    );
    let mut out = Tensor::from_pool(&[m, n]);
    matmul_into(a.data(), b.data(), out.data_mut(), m, k, n, true);
    out
}

/// Transposes an `[m, n]` row-major matrix in `src` into `dst` (`[n, m]`).
///
/// Allocation-free core of [`transpose`] for callers with scratch buffers.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m * n`.
pub fn transpose_into(src: &[f32], dst: &mut [f32], m: usize, n: usize) {
    assert_eq!(src.len(), m * n, "src length != m*n");
    assert_eq!(dst.len(), m * n, "dst length != m*n");
    for i in 0..m {
        for j in 0..n {
            dst[j * m + i] = src[i * n + j];
        }
    }
}

/// Transposes a rank-2 tensor.
///
/// # Panics
///
/// Panics if the input is not rank 2.
pub fn transpose(a: &Tensor) -> Tensor {
    let (m, n) = a.dims2();
    let mut out = Tensor::from_pool(&[n, m]);
    transpose_into(a.data(), out.data_mut(), m, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_fn(&[4, 4], |i| i as f32);
        let mut eye = Tensor::zeros(&[4, 4]);
        for i in 0..4 {
            eye.set(&[i, i], 1.0);
        }
        assert_eq!(matmul(&a, &eye), a);
        assert_eq!(matmul(&eye, &a), a);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_mismatch() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[2, 2]));
    }

    #[test]
    fn parallel_path_matches_serial() {
        use crate::rng::SeededRng;
        let mut rng = SeededRng::new(1);
        // Big enough to cross parallel::FORK_MACS.
        let a = Tensor::rand_normal(&[128, 96], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[96, 128], 0.0, 1.0, &mut rng);
        let fast = matmul(&a, &b);
        // Serial reference.
        let (m, k) = a.dims2();
        let (_, n) = b.dims2();
        let mut reference = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a.data()[i * k + kk] * b.data()[kk * n + j];
                }
                reference[i * n + j] = s;
            }
        }
        for (x, y) in fast.data().iter().zip(&reference) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn blocked_kernel_is_thread_count_and_shape_invariant() {
        use crate::rng::SeededRng;
        let mut rng = SeededRng::new(7);
        // Odd sizes exercise the remainder-row path and partial column tiles.
        for &(m, k, n) in &[(1usize, 37usize, 130usize), (5, 9, 3), (131, 64, 129)] {
            let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
            let mut serial = vec![0.0f32; m * n];
            matmul_into(a.data(), b.data(), &mut serial, m, k, n, false);
            // The Tensor front-end may take the parallel path; results must
            // match bit-for-bit because per-element accumulation order is
            // identical.
            assert_eq!(matmul(&a, &b).data(), &serial[..], "{m}x{k}x{n}");
        }
    }

    #[test]
    fn simd_dispatch_is_bit_identical_to_portable_kernel() {
        use crate::rng::SeededRng;
        let mut rng = SeededRng::new(23);
        // Full tiles, remainder rows, and partial column tiles all compared
        // against the portable compilation. On CPUs with AVX2 this pins the
        // dispatched path to the exact bits of the portable one; without it,
        // both sides run the same code and the test is trivially green.
        for &(m, k, n) in &[(8usize, 64usize, 48usize), (5, 37, 19), (1, 7, 3)] {
            let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
            let mut portable = vec![0.0f32; m * n];
            block_rows_impl(a.data(), b.data(), 0..m, &mut portable, k, n);
            assert_eq!(matmul(&a, &b).data(), &portable[..], "{m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_into_overwrites_dirty_scratch() {
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let b = [1.0f32, 0.0, 0.0, 1.0];
        let mut out = [9.0f32; 4];
        matmul_into(&a, &b, &mut out, 2, 2, 2, false);
        assert_eq!(out, a);
    }

    #[test]
    fn zeros_times_infinity_is_nan_not_skipped() {
        // The old kernel skipped `a` zeros, silently turning 0 * inf into 0.
        // IEEE says NaN; the blocked kernel must not special-case zeros.
        let a = Tensor::from_vec(vec![0.0f32], &[1, 1]);
        let b = Tensor::from_vec(vec![f32::INFINITY], &[1, 1]);
        assert!(matmul(&a, &b).data()[0].is_nan());
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_fn(&[3, 5], |i| i as f32);
        let t = transpose(&a);
        assert_eq!(t.dims(), &[5, 3]);
        assert_eq!(t.at(&[4, 2]), a.at(&[2, 4]));
        assert_eq!(transpose(&t), a);
    }
}
