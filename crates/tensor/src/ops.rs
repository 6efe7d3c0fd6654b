//! Elementwise and reduction operations on [`Tensor`].
//!
//! The elementwise producers draw their outputs from the thread-local
//! recycling pool (see [`crate::tpool`]) and run on the runtime-dispatched
//! slice kernels in [`crate::kernels`], so steady-state forward passes are
//! allocation-free and vectorized without any caller-visible API change.

use crate::kernels;
use crate::opcount;
use crate::tensor::Tensor;

impl Tensor {
    fn assert_same_shape(&self, other: &Tensor) {
        assert_eq!(
            self.dims(),
            other.dims(),
            "elementwise op on mismatched shapes {:?} vs {:?}",
            self.dims(),
            other.dims()
        );
    }

    /// Elementwise sum. Shapes must match exactly (no broadcasting).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other);
        opcount::count_elementwise();
        let mut out = Tensor::from_pool(self.dims());
        kernels::add(self.data(), other.data(), out.data_mut());
        out
    }

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other);
        opcount::count_elementwise();
        let mut out = Tensor::from_pool(self.dims());
        kernels::sub(self.data(), other.data(), out.data_mut());
        out
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other);
        opcount::count_elementwise();
        let mut out = Tensor::from_pool(self.dims());
        kernels::mul(self.data(), other.data(), out.data_mut());
        out
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.assert_same_shape(other);
        opcount::count_elementwise();
        kernels::add_assign(self.data_mut(), other.data());
    }

    /// Adds `scale * other` into `self` in place (axpy).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        self.assert_same_shape(other);
        opcount::count_elementwise();
        kernels::axpy(self.data_mut(), other.data(), scale);
    }

    /// Returns `self * scalar`.
    pub fn scale(&self, scalar: f32) -> Tensor {
        opcount::count_elementwise();
        let mut out = Tensor::from_pool(self.dims());
        kernels::scale(self.data(), scalar, out.data_mut());
        out
    }

    /// Multiplies by a scalar in place.
    pub fn scale_inplace(&mut self, scalar: f32) {
        opcount::count_elementwise();
        kernels::scale_assign(self.data_mut(), scalar);
    }

    /// Returns `self + scalar` elementwise.
    pub fn add_scalar(&self, scalar: f32) -> Tensor {
        opcount::count_elementwise();
        let mut out = Tensor::from_pool(self.dims());
        kernels::add_scalar(self.data(), scalar, out.data_mut());
        out
    }

    /// Adds a `[cols]` bias vector to every row of this `[rows, cols]`
    /// tensor in place (the linear layer's bias step).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank 2 or the column count mismatches.
    pub fn bias_add_rows(&mut self, bias: &Tensor) {
        let (_, cols) = self.dims2();
        assert_eq!(
            cols,
            bias.len(),
            "bias length {} does not match column count {cols}",
            bias.len()
        );
        opcount::count_elementwise();
        kernels::bias_add_rows(self.data_mut(), bias.data());
    }

    /// Applies `f` elementwise, returning a new (pool-backed) tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        opcount::count_elementwise();
        let mut out = Tensor::from_pool(self.dims());
        for (o, &x) in out.data_mut().iter_mut().zip(self.data()) {
            *o = f(x);
        }
        out
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data_mut() {
            *x = f(*x);
        }
    }

    /// Combines two same-shape tensors elementwise into a new (pool-backed)
    /// tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        self.assert_same_shape(other);
        opcount::count_elementwise();
        let mut out = Tensor::from_pool(self.dims());
        for ((o, &a), &b) in out.data_mut().iter_mut().zip(self.data()).zip(other.data()) {
            *o = f(a, b);
        }
        out
    }

    /// Rectified linear unit, elementwise.
    pub fn relu(&self) -> Tensor {
        opcount::count_elementwise();
        let mut out = Tensor::from_pool(self.dims());
        kernels::relu(self.data(), out.data_mut());
        out
    }

    /// Fused ReLU forward: writes `max(x, 0)` into `out` and the backward
    /// mask (`1` where `x > 0`, else `0`) into `mask`, in one pass over
    /// recycled buffers.
    ///
    /// # Panics
    ///
    /// Panics if `out` or `mask` shapes differ from `self`.
    pub fn relu_mask_into(&self, out: &mut Tensor, mask: &mut Tensor) {
        self.assert_same_shape(out);
        self.assert_same_shape(mask);
        opcount::count_elementwise();
        kernels::relu_mask(self.data(), out.data_mut(), mask.data_mut());
    }

    /// Fused leaky-ReLU forward: `out = x > 0 ? x : slope * x`, with the
    /// backward mask (`1` or `slope`) filled in the same pass.
    ///
    /// # Panics
    ///
    /// Panics if `out` or `mask` shapes differ from `self`.
    pub fn leaky_relu_mask_into(&self, slope: f32, out: &mut Tensor, mask: &mut Tensor) {
        self.assert_same_shape(out);
        self.assert_same_shape(mask);
        opcount::count_elementwise();
        kernels::leaky_relu_mask(self.data(), slope, out.data_mut(), mask.data_mut());
    }

    /// Batch-norm inference/affine step over an `NCHW` tensor: per channel
    /// `c`, writes `x_hat = (x - mean[c]) * inv_std[c]` and
    /// `out = gamma[c] * x_hat + beta[c]`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank 4, the per-channel slices are not `C`
    /// long, or `x_hat`/`out` shapes differ from `self`.
    #[allow(clippy::too_many_arguments)]
    pub fn batchnorm2d_into(
        &self,
        mean: &[f32],
        inv_std: &[f32],
        gamma: &[f32],
        beta: &[f32],
        x_hat: &mut Tensor,
        out: &mut Tensor,
    ) {
        let (n, c, _, _) = self.dims4();
        assert!(
            mean.len() == c && inv_std.len() == c && gamma.len() == c && beta.len() == c,
            "per-channel stats must have length {c}"
        );
        self.assert_same_shape(x_hat);
        self.assert_same_shape(out);
        opcount::count_norm();
        for bn in 0..n {
            for ch in 0..c {
                kernels::bn_fmap(
                    self.fmap(bn, ch),
                    mean[ch],
                    inv_std[ch],
                    gamma[ch],
                    beta[ch],
                    x_hat.fmap_mut(bn, ch),
                    out.fmap_mut(bn, ch),
                );
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn max(&self) -> f32 {
        assert!(!self.is_empty(), "max of empty tensor");
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn min(&self) -> f32 {
        assert!(!self.is_empty(), "min of empty tensor");
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Largest absolute value (0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Flat index of the maximum element (first on ties).
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn argmax(&self) -> usize {
        assert!(!self.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &x) in self.data().iter().enumerate() {
            if x > self.data()[best] {
                best = i;
            }
        }
        best
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f32 {
        self.data().iter().map(|&x| x * x).sum()
    }

    /// Largest absolute value of each leading-axis (batch) sample.
    ///
    /// The per-sample counterpart of [`Tensor::max_abs`]: element `b` equals
    /// `self` restricted to batch element `b`, so relative perturbation
    /// models scale against their own sample's range even inside a fused
    /// batch.
    pub fn max_abs_batch(&self) -> Vec<f32> {
        self.sample_slices()
            .map(|s| s.iter().fold(0.0f32, |m, &x| m.max(x.abs())))
            .collect()
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data().iter().any(|x| !x.is_finite())
    }

    /// Per-sample non-finite scan along the leading (batch) axis: element
    /// `b` is true when batch element `b` contains NaN/Inf.
    pub fn non_finite_batch(&self) -> Vec<bool> {
        self.sample_slices()
            .map(|s| s.iter().any(|x| !x.is_finite()))
            .collect()
    }

    /// Indices (flat) of the `k` largest elements, descending.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.sort_by(|&a, &b| {
            self.data()[b]
                .partial_cmp(&self.data()[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        idx.truncate(k);
        idx
    }

    /// Row-wise softmax of a rank-2 tensor `[batch, classes]`.
    ///
    /// Numerically stabilized by subtracting each row's maximum.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn softmax_rows(&self) -> Tensor {
        let (rows, cols) = self.dims2();
        opcount::count_elementwise();
        let mut out = Tensor::from_pool(self.dims());
        for r in 0..rows {
            kernels::softmax_row(
                &self.data()[r * cols..(r + 1) * cols],
                &mut out.data_mut()[r * cols..(r + 1) * cols],
            );
        }
        out
    }

    /// Concatenates rank-4 tensors along the channel axis.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or `N`, `H`, `W` disagree.
    pub fn concat_channels(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat of empty list");
        let (n, _, h, w) = parts[0].dims4();
        let total_c: usize = parts.iter().map(|p| p.dims4().1).sum();
        let mut out = Tensor::from_pool(&[n, total_c, h, w]);
        for bn in 0..n {
            let mut c_off = 0;
            for p in parts {
                let (pn, pc, ph, pw) = p.dims4();
                assert_eq!(
                    (pn, ph, pw),
                    (n, h, w),
                    "concat_channels mismatch: {:?} vs {:?}",
                    p.dims(),
                    parts[0].dims()
                );
                for c in 0..pc {
                    out.fmap_mut(bn, c_off + c).copy_from_slice(p.fmap(bn, c));
                }
                c_off += pc;
            }
        }
        out
    }

    /// Splits a rank-4 tensor along the channel axis into chunks of the given
    /// sizes (inverse of [`Tensor::concat_channels`]).
    ///
    /// # Panics
    ///
    /// Panics if the sizes do not sum to the channel count.
    pub fn split_channels(&self, sizes: &[usize]) -> Vec<Tensor> {
        let (n, c, h, w) = self.dims4();
        assert_eq!(
            sizes.iter().sum::<usize>(),
            c,
            "split sizes {:?} do not sum to channel count {}",
            sizes,
            c
        );
        let mut out = Vec::with_capacity(sizes.len());
        let mut c_off = 0;
        for &sz in sizes {
            let mut part = Tensor::from_pool(&[n, sz, h, w]);
            for bn in 0..n {
                for cc in 0..sz {
                    part.fmap_mut(bn, cc)
                        .copy_from_slice(self.fmap(bn, c_off + cc));
                }
            }
            out.push(part);
            c_off += sz;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape)
    }

    #[test]
    fn add_sub_mul() {
        let a = t(&[1.0, 2.0, 3.0], &[3]);
        let b = t(&[4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    #[should_panic(expected = "mismatched shapes")]
    fn add_rejects_shape_mismatch() {
        t(&[1.0], &[1]).add(&t(&[1.0, 2.0], &[2]));
    }

    #[test]
    fn axpy_and_inplace() {
        let mut a = t(&[1.0, 1.0], &[2]);
        a.add_scaled(&t(&[2.0, 4.0], &[2]), 0.5);
        assert_eq!(a.data(), &[2.0, 3.0]);
        a.scale_inplace(2.0);
        assert_eq!(a.data(), &[4.0, 6.0]);
        a.add_assign(&t(&[1.0, 1.0], &[2]));
        assert_eq!(a.data(), &[5.0, 7.0]);
    }

    #[test]
    fn per_sample_reductions_split_by_leading_axis() {
        let a = t(&[1.0, -4.0, 2.0, 0.5, f32::NAN, 1.0], &[3, 2]);
        // NaN is skipped by the f32::max fold, as in `max_abs`.
        assert_eq!(a.max_abs_batch(), vec![4.0, 2.0, 1.0]);
        assert_eq!(a.non_finite_batch(), vec![false, false, true]);
        // Batch-1: per-sample equals whole-tensor.
        let b = t(&[1.0, -4.0], &[1, 2]);
        assert_eq!(b.max_abs_batch(), vec![b.max_abs()]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let a = t(&[-1.0, 0.0, 2.0], &[3]);
        assert_eq!(a.relu().data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn reductions() {
        let a = t(&[-3.0, 1.0, 2.0], &[3]);
        assert_eq!(a.sum(), 0.0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.max(), 2.0);
        assert_eq!(a.min(), -3.0);
        assert_eq!(a.max_abs(), 3.0);
        assert_eq!(a.argmax(), 2);
        assert_eq!(a.sq_norm(), 14.0);
    }

    #[test]
    fn argmax_takes_first_on_ties() {
        assert_eq!(t(&[1.0, 3.0, 3.0], &[3]).argmax(), 1);
    }

    #[test]
    fn non_finite_detection() {
        assert!(!t(&[1.0, 2.0], &[2]).has_non_finite());
        assert!(t(&[1.0, f32::NAN], &[2]).has_non_finite());
        assert!(t(&[f32::INFINITY, 0.0], &[2]).has_non_finite());
    }

    #[test]
    fn top_k_orders_descending() {
        let a = t(&[0.1, 0.9, 0.5, 0.7], &[4]);
        assert_eq!(a.top_k(3), vec![1, 3, 2]);
        assert_eq!(a.top_k(10).len(), 4, "top_k clamps to length");
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = t(&[1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = (0..3).map(|c| s.at(&[r, c])).sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Uniform logits give uniform probabilities.
        assert!((s.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-6);
        // Softmax is monotone in the logits.
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let a = t(&[1000.0, 1001.0], &[1, 2]);
        let s = a.softmax_rows();
        assert!(!s.has_non_finite());
        assert!((s.at(&[0, 0]) + s.at(&[0, 1]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn concat_split_roundtrip() {
        let a = Tensor::from_fn(&[2, 2, 2, 2], |i| i as f32);
        let b = Tensor::from_fn(&[2, 3, 2, 2], |i| 100.0 + i as f32);
        let cat = Tensor::concat_channels(&[a.clone(), b.clone()]);
        assert_eq!(cat.dims(), &[2, 5, 2, 2]);
        let parts = cat.split_channels(&[2, 3]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    #[should_panic(expected = "do not sum to channel count")]
    fn split_rejects_bad_sizes() {
        Tensor::zeros(&[1, 4, 1, 1]).split_channels(&[1, 2]);
    }
}
