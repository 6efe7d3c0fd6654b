//! Pooling layers.

use crate::module::{meta_accessors, BackwardCtx, ForwardCtx, LayerKind, LayerMeta, Module};
use rustfi_tensor::{
    avg_pool2d, avg_pool2d_backward, max_pool2d_backward, max_pool2d_into, PoolSpec, Tensor,
};

/// Max pooling over square windows.
pub struct MaxPool2d {
    pub(crate) meta: LayerMeta,
    spec: PoolSpec,
    cached: Option<(Vec<usize>, Vec<usize>)>, // (argmax, input_dims)
}

/// Rewrites a cached dims vec in place instead of reallocating each forward.
fn store_dims(slot: &mut Option<Vec<usize>>, dims: &[usize]) {
    let buf = slot.get_or_insert_with(Vec::new);
    buf.clear();
    buf.extend_from_slice(dims);
}

/// Shared shape inference for windowed pools.
fn pool_infer_dims(
    meta: &LayerMeta,
    kind: LayerKind,
    spec: &PoolSpec,
    input: &[usize],
) -> Result<Vec<usize>, crate::shape::ShapeError> {
    let label = || crate::shape::layer_label(meta, kind);
    let &[n, c, h, w] = input else {
        return Err(crate::shape::ShapeError::WrongRank {
            layer: label(),
            expected: 4,
            got: input.to_vec(),
        });
    };
    let too_large = |input| crate::shape::ShapeError::KernelTooLarge {
        layer: label(),
        kernel: spec.kernel,
        input,
    };
    let oh = spec.checked_out_size(h).ok_or_else(|| too_large(h))?;
    let ow = spec.checked_out_size(w).ok_or_else(|| too_large(w))?;
    Ok(vec![n, c, oh, ow])
}

impl MaxPool2d {
    /// A `kernel`-sized max pool moving by `stride`.
    pub fn new(kernel: usize, stride: usize) -> Self {
        Self {
            meta: LayerMeta::default(),
            spec: PoolSpec::new(kernel, stride),
            cached: None,
        }
    }
}

impl Module for MaxPool2d {
    meta_accessors!();

    fn kind(&self) -> LayerKind {
        LayerKind::MaxPool2d
    }

    fn infer_dims(&self, input: &[usize]) -> Result<Vec<usize>, crate::shape::ShapeError> {
        pool_infer_dims(&self.meta, LayerKind::MaxPool2d, &self.spec, input)
    }

    fn forward(&mut self, input: &Tensor, _ctx: &mut ForwardCtx<'_>) -> Tensor {
        // Recycle the argmax and dims vecs across forwards of the same shape.
        let (mut argmax, mut dims) = self.cached.take().unwrap_or_default();
        dims.clear();
        dims.extend_from_slice(input.dims());
        // Pre-sized from the pool (fully overwritten below) so the `_into`
        // call never has to churn a placeholder tensor.
        let (n, c, h, w) = input.dims4();
        let mut out = Tensor::from_pool(&[n, c, self.spec.out_size(h), self.spec.out_size(w)]);
        max_pool2d_into(input, &self.spec, &mut out, &mut argmax);
        self.cached = Some((argmax, dims));
        out
    }

    fn backward(&mut self, grad_out: &Tensor, _ctx: &mut BackwardCtx<'_>) -> Tensor {
        let (argmax, dims) = self
            .cached
            .as_ref()
            .expect("MaxPool2d::backward called before forward");
        max_pool2d_backward(grad_out, argmax, dims)
    }
}

/// Average pooling over square windows.
pub struct AvgPool2d {
    pub(crate) meta: LayerMeta,
    spec: PoolSpec,
    input_dims: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// A `kernel`-sized average pool moving by `stride`.
    pub fn new(kernel: usize, stride: usize) -> Self {
        Self {
            meta: LayerMeta::default(),
            spec: PoolSpec::new(kernel, stride),
            input_dims: None,
        }
    }
}

impl Module for AvgPool2d {
    meta_accessors!();

    fn kind(&self) -> LayerKind {
        LayerKind::AvgPool2d
    }

    fn infer_dims(&self, input: &[usize]) -> Result<Vec<usize>, crate::shape::ShapeError> {
        pool_infer_dims(&self.meta, LayerKind::AvgPool2d, &self.spec, input)
    }

    fn forward(&mut self, input: &Tensor, _ctx: &mut ForwardCtx<'_>) -> Tensor {
        store_dims(&mut self.input_dims, input.dims());
        avg_pool2d(input, &self.spec)
    }

    fn backward(&mut self, grad_out: &Tensor, _ctx: &mut BackwardCtx<'_>) -> Tensor {
        let dims = self
            .input_dims
            .as_ref()
            .expect("AvgPool2d::backward called before forward");
        avg_pool2d_backward(grad_out, &self.spec, dims)
    }
}

/// Global average pooling: `[n, c, h, w] -> [n, c, 1, 1]`.
pub struct GlobalAvgPool {
    pub(crate) meta: LayerMeta,
    input_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pool.
    pub fn new() -> Self {
        Self {
            meta: LayerMeta::default(),
            input_dims: None,
        }
    }
}

impl Default for GlobalAvgPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for GlobalAvgPool {
    meta_accessors!();

    fn kind(&self) -> LayerKind {
        LayerKind::GlobalAvgPool
    }

    fn infer_dims(&self, input: &[usize]) -> Result<Vec<usize>, crate::shape::ShapeError> {
        let &[n, c, _h, _w] = input else {
            return Err(crate::shape::ShapeError::WrongRank {
                layer: crate::shape::layer_label(&self.meta, LayerKind::GlobalAvgPool),
                expected: 4,
                got: input.to_vec(),
            });
        };
        Ok(vec![n, c, 1, 1])
    }

    fn forward(&mut self, input: &Tensor, _ctx: &mut ForwardCtx<'_>) -> Tensor {
        let (n, c, h, w) = input.dims4();
        store_dims(&mut self.input_dims, input.dims());
        let norm = 1.0 / (h * w) as f32;
        // Every element is assigned below, so stale pool contents are fine.
        let mut out = Tensor::from_pool(&[n, c, 1, 1]);
        for bn in 0..n {
            for ch in 0..c {
                let s: f32 = input.fmap(bn, ch).iter().sum();
                out.fmap_mut(bn, ch)[0] = s * norm;
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor, _ctx: &mut BackwardCtx<'_>) -> Tensor {
        let dims = self
            .input_dims
            .as_ref()
            .expect("GlobalAvgPool::backward called before forward");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let norm = 1.0 / (h * w) as f32;
        // Every element is assigned below, so stale pool contents are fine.
        let mut gin = Tensor::from_pool(dims);
        for bn in 0..n {
            for ch in 0..c {
                let g = grad_out.fmap(bn, ch)[0] * norm;
                for v in gin.fmap_mut(bn, ch) {
                    *v = g;
                }
            }
        }
        gin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Network;

    #[test]
    fn max_pool_layer_forward_backward() {
        let mut net = Network::new(Box::new(MaxPool2d::new(2, 2)));
        let x = Tensor::from_vec(vec![1.0, 9.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = net.forward(&x);
        assert_eq!(y.data(), &[9.0]);
        let g = net.backward(&Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn avg_pool_layer_forward_backward() {
        let mut net = Network::new(Box::new(AvgPool2d::new(2, 2)));
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        assert_eq!(net.forward(&x).data(), &[2.5]);
        let g = net.backward(&Tensor::from_vec(vec![4.0], &[1, 1, 1, 1]));
        assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn global_avg_pool_shapes_and_values() {
        let mut net = Network::new(Box::new(GlobalAvgPool::new()));
        let x = Tensor::from_fn(&[2, 3, 4, 4], |i| (i % 16) as f32);
        let y = net.forward(&x);
        assert_eq!(y.dims(), &[2, 3, 1, 1]);
        assert!((y.at(&[0, 0, 0, 0]) - 7.5).abs() < 1e-6);
        let g = net.backward(&Tensor::ones(&[2, 3, 1, 1]));
        assert_eq!(g.dims(), x.dims());
        assert!((g.data()[0] - 1.0 / 16.0).abs() < 1e-7);
        assert!((g.sum() - 6.0).abs() < 1e-4, "gradient mass is conserved");
    }
}
