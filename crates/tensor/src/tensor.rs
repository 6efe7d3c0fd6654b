//! The [`Tensor`] type: a contiguous, row-major, `f32` n-dimensional array.

use crate::rng::SeededRng;
use crate::shape::{self, ShapeError};
use std::fmt;

/// A contiguous, row-major `f32` n-dimensional array.
///
/// `Tensor` is the single numeric container used throughout the RustFI stack:
/// activations, weights, gradients, images and heatmaps are all `Tensor`s.
/// Convolutional data uses the `NCHW` layout (batch, channel, height, width).
///
/// # Example
///
/// ```
/// use rustfi_tensor::Tensor;
///
/// let t = Tensor::zeros(&[1, 3, 4, 4]);
/// assert_eq!(t.dims(), &[1, 3, 4, 4]);
/// assert_eq!(t.len(), 48);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw data with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            shape::numel(shape),
            "data length {} does not match shape {:?} ({} elements)",
            data.len(),
            shape,
            shape::numel(shape)
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            shape: shape.to_vec(),
            data: vec![value; shape::numel(shape)],
        }
    }

    /// Creates a tensor by evaluating `f` at each flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let n = shape::numel(shape);
        let mut data = Vec::with_capacity(n);
        for i in 0..n {
            data.push(f(i));
        }
        Self::from_vec(data, shape)
    }

    /// Creates a tensor with i.i.d. uniform samples in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut SeededRng) -> Self {
        Self::from_fn(shape, |_| rng.uniform(lo, hi))
    }

    /// Creates a tensor with i.i.d. normal samples `N(mean, std^2)`.
    pub fn rand_normal(shape: &[usize], mean: f32, std: f32, rng: &mut SeededRng) -> Self {
        Self::from_fn(shape, |_| rng.normal(mean, std))
    }

    /// The tensor's shape.
    pub fn dims(&self) -> &[usize] {
        &self.shape
    }

    /// Number of axes.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Rewrites the shape header in place without touching storage. Used by
    /// the recycling pool, which buckets buffers by exact element count.
    ///
    /// # Panics
    ///
    /// Panics if the new shape's element count differs from the current one.
    pub(crate) fn set_shape_in_place(&mut self, shape: &[usize]) {
        assert_eq!(
            shape::numel(shape),
            self.data.len(),
            "cannot relabel {:?} ({} elements) as {:?}",
            self.shape,
            self.data.len(),
            shape
        );
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Immutable view of the underlying storage (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying storage (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or bounds are invalid.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[shape::offset(&self.shape, index)]
    }

    /// Sets the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or bounds are invalid.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = shape::offset(&self.shape, index);
        self.data[off] = value;
    }

    /// Flat row-major offset of a multi-index.
    pub fn offset_of(&self, index: &[usize]) -> usize {
        shape::offset(&self.shape, index)
    }

    /// Row-major strides of the tensor's shape.
    pub fn strides(&self) -> Vec<usize> {
        shape::strides(&self.shape)
    }

    /// Returns a reshaped copy sharing no storage with `self`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the new shape has a different element count.
    pub fn reshaped(&self, shape: &[usize]) -> Result<Tensor, ShapeError> {
        if shape::numel(shape) != self.len() {
            return Err(ShapeError::new(format!(
                "cannot reshape {:?} ({} elements) into {:?} ({} elements)",
                self.shape,
                self.len(),
                shape,
                shape::numel(shape)
            )));
        }
        Ok(Tensor::from_vec(self.data.clone(), shape))
    }

    /// Reshapes in place.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the new shape has a different element count.
    pub fn reshape(&mut self, shape: &[usize]) -> Result<(), ShapeError> {
        if shape::numel(shape) != self.len() {
            return Err(ShapeError::new(format!(
                "cannot reshape {:?} ({} elements) into {:?} ({} elements)",
                self.shape,
                self.len(),
                shape,
                shape::numel(shape)
            )));
        }
        self.shape = shape.to_vec();
        Ok(())
    }

    /// Interprets the tensor as `NCHW` and returns `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4.
    pub fn dims4(&self) -> (usize, usize, usize, usize) {
        assert_eq!(
            self.ndim(),
            4,
            "expected a rank-4 (NCHW) tensor, got shape {:?}",
            self.shape
        );
        (self.shape[0], self.shape[1], self.shape[2], self.shape[3])
    }

    /// Interprets the tensor as a matrix and returns `(rows, cols)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn dims2(&self) -> (usize, usize) {
        assert_eq!(
            self.ndim(),
            2,
            "expected a rank-2 tensor, got shape {:?}",
            self.shape
        );
        (self.shape[0], self.shape[1])
    }

    /// Immutable slice of one feature map `(n, c)` of an `NCHW` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 or the indices are out of range.
    pub fn fmap(&self, n: usize, c: usize) -> &[f32] {
        let (bn, bc, h, w) = self.dims4();
        assert!(
            n < bn && c < bc,
            "fmap ({n},{c}) out of range for {:?}",
            self.shape
        );
        let hw = h * w;
        let start = (n * bc + c) * hw;
        &self.data[start..start + hw]
    }

    /// Mutable slice of one feature map `(n, c)` of an `NCHW` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 or the indices are out of range.
    pub fn fmap_mut(&mut self, n: usize, c: usize) -> &mut [f32] {
        let (bn, bc, h, w) = self.dims4();
        assert!(
            n < bn && c < bc,
            "fmap ({n},{c}) out of range for {:?}",
            self.shape
        );
        let hw = h * w;
        let start = (n * bc + c) * hw;
        &mut self.data[start..start + hw]
    }

    /// Copies batch element `n` of an `NCHW` tensor into a `1CHW` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 or `n` is out of range.
    pub fn select_batch(&self, n: usize) -> Tensor {
        let (bn, c, h, w) = self.dims4();
        assert!(n < bn, "batch index {n} out of range for {:?}", self.shape);
        let stride = c * h * w;
        let mut out = Tensor::from_pool(&[1, c, h, w]);
        out.data_mut()
            .copy_from_slice(&self.data[n * stride..(n + 1) * stride]);
        out
    }

    /// Broadcasts a batch-1 tensor into `n` identical batch elements along
    /// the leading axis (`[1, ...] -> [n, ...]`).
    ///
    /// This is how fused campaign trials turn one cached golden activation
    /// (or input image) into a batch whose slices are then perturbed
    /// independently.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank 0, its leading dimension is not 1, or
    /// `n` is zero.
    pub fn repeat_batch(&self, n: usize) -> Tensor {
        assert!(n > 0, "cannot broadcast to an empty batch");
        assert!(
            self.ndim() >= 1 && self.shape[0] == 1,
            "repeat_batch expects a batch-1 tensor, got shape {:?}",
            self.shape
        );
        // Draw the storage as a flat buffer, then relabel its shape header in
        // place: a recycled header already has the capacity, so a warmed
        // pool serves the broadcast without a heap allocation.
        let stride = self.len();
        let mut out = Tensor::from_pool(&[n * stride]);
        out.shape.clear();
        out.shape.push(n);
        out.shape.extend_from_slice(&self.shape[1..]);
        for b in 0..n {
            out.data_mut()[b * stride..(b + 1) * stride].copy_from_slice(&self.data);
        }
        out
    }

    /// Contiguous per-sample slices along the leading (batch) axis.
    ///
    /// Rank-0/1 tensors are treated as a single sample; rank ≥ 2 tensors
    /// yield one slice per leading-axis element. Used by per-sample guard
    /// scans and per-slice injection, where one fused trial's values must be
    /// judged independently of its batch siblings.
    pub fn sample_slices(&self) -> impl Iterator<Item = &[f32]> {
        let n = if self.ndim() >= 2 { self.shape[0] } else { 1 };
        let stride = self.len().checked_div(n).unwrap_or(0);
        (0..n).map(move |b| &self.data[b * stride..(b + 1) * stride])
    }

    /// Stacks `1CHW` tensors along the batch axis.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or shapes disagree.
    pub fn stack_batch(items: &[Tensor]) -> Tensor {
        assert!(!items.is_empty(), "cannot stack an empty list of tensors");
        let (_, c, h, w) = items[0].dims4();
        let mut data = Vec::with_capacity(items.len() * c * h * w);
        for item in items {
            let (n, ic, ih, iw) = item.dims4();
            assert_eq!(n, 1, "stack_batch expects batch-1 tensors");
            assert_eq!(
                (ic, ih, iw),
                (c, h, w),
                "stack_batch shape mismatch: {:?} vs {:?}",
                item.dims(),
                items[0].dims()
            );
            data.extend_from_slice(item.data());
        }
        Tensor::from_vec(data, &[items.len(), c, h, w])
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, ... {:.4}] ({} elements)",
                self.data[0],
                self.data[1],
                self.data[self.len() - 1],
                self.len()
            )
        }
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor.
    fn default() -> Self {
        Tensor::from_vec(Vec::new(), &[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrips() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.at(&[1, 2]), 6.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_length() {
        Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros(&[3]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[3]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[3], 7.0).data().iter().all(|&x| x == 7.0));
    }

    #[test]
    fn set_and_at_agree() {
        let mut t = Tensor::zeros(&[2, 2, 2]);
        t.set(&[1, 0, 1], 9.0);
        assert_eq!(t.at(&[1, 0, 1]), 9.0);
        assert_eq!(t.data()[t.offset_of(&[1, 0, 1])], 9.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(&[2, 6], |i| i as f32);
        let r = t.reshaped(&[3, 4]).unwrap();
        assert_eq!(r.dims(), &[3, 4]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn reshape_rejects_bad_count() {
        let t = Tensor::zeros(&[2, 3]);
        assert!(t.reshaped(&[4, 2]).is_err());
        let mut t = t;
        assert!(t.reshape(&[7]).is_err());
        // Shape unchanged after failed reshape.
        assert_eq!(t.dims(), &[2, 3]);
    }

    #[test]
    fn repeat_batch_broadcasts_and_sample_slices_invert() {
        let t = Tensor::from_fn(&[1, 2, 2, 2], |i| i as f32);
        let b = t.repeat_batch(3);
        assert_eq!(b.dims(), &[3, 2, 2, 2]);
        let slices: Vec<&[f32]> = b.sample_slices().collect();
        assert_eq!(slices.len(), 3);
        for s in &slices {
            assert_eq!(*s, t.data(), "each slice is the original sample");
        }
        // Rank-1 tensors are one sample.
        let v = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        assert_eq!(v.sample_slices().count(), 1);
        assert_eq!(v.sample_slices().next().unwrap(), v.data());
    }

    #[test]
    #[should_panic(expected = "batch-1")]
    fn repeat_batch_rejects_multi_batch_input() {
        Tensor::zeros(&[2, 3]).repeat_batch(2);
    }

    #[test]
    fn fmap_views_are_contiguous() {
        let t = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32);
        let fm = t.fmap(1, 2);
        assert_eq!(fm.len(), 4);
        assert_eq!(fm[0], t.at(&[1, 2, 0, 0]));
        assert_eq!(fm[3], t.at(&[1, 2, 1, 1]));
    }

    #[test]
    fn fmap_mut_writes_through() {
        let mut t = Tensor::zeros(&[1, 2, 2, 2]);
        t.fmap_mut(0, 1)[3] = 5.0;
        assert_eq!(t.at(&[0, 1, 1, 1]), 5.0);
    }

    #[test]
    fn select_and_stack_batch_roundtrip() {
        let t = Tensor::from_fn(&[3, 2, 2, 2], |i| i as f32);
        let parts: Vec<Tensor> = (0..3).map(|n| t.select_batch(n)).collect();
        let back = Tensor::stack_batch(&parts);
        assert_eq!(back, t);
    }

    #[test]
    fn rand_tensors_are_deterministic_per_seed() {
        let mut a = SeededRng::new(42);
        let mut b = SeededRng::new(42);
        let ta = Tensor::rand_normal(&[16], 0.0, 1.0, &mut a);
        let tb = Tensor::rand_normal(&[16], 0.0, 1.0, &mut b);
        assert_eq!(ta, tb);
        let mut c = SeededRng::new(43);
        let tc = Tensor::rand_normal(&[16], 0.0, 1.0, &mut c);
        assert_ne!(ta, tc);
    }

    #[test]
    fn rand_uniform_respects_bounds() {
        let mut rng = SeededRng::new(7);
        let t = Tensor::rand_uniform(&[1000], -2.0, 3.0, &mut rng);
        assert!(t.data().iter().all(|&x| (-2.0..3.0).contains(&x)));
    }

    #[test]
    fn debug_is_never_empty() {
        let small = format!("{:?}", Tensor::zeros(&[2]));
        assert!(small.contains("Tensor[2]"));
        let large = format!("{:?}", Tensor::zeros(&[100]));
        assert!(large.contains("100 elements"));
    }
}
