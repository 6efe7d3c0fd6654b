//! Shape and regularization layers: [`Flatten`] and [`Dropout`].

use crate::module::{meta_accessors, BackwardCtx, ForwardCtx, LayerKind, LayerMeta, Module};
use rustfi_tensor::Tensor;

/// Flattens `[n, c, h, w]` (or any rank ≥ 2) into `[n, rest]`.
pub struct Flatten {
    pub(crate) meta: LayerMeta,
    input_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self {
            meta: LayerMeta::default(),
            input_dims: None,
        }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for Flatten {
    meta_accessors!();

    fn kind(&self) -> LayerKind {
        LayerKind::Flatten
    }

    fn infer_dims(&self, input: &[usize]) -> Result<Vec<usize>, crate::shape::ShapeError> {
        if input.len() < 2 {
            return Err(crate::shape::ShapeError::WrongRank {
                layer: crate::shape::layer_label(&self.meta, LayerKind::Flatten),
                expected: 2,
                got: input.to_vec(),
            });
        }
        Ok(vec![input[0], input[1..].iter().product()])
    }

    fn forward(&mut self, input: &Tensor, _ctx: &mut ForwardCtx<'_>) -> Tensor {
        assert!(input.ndim() >= 2, "flatten expects rank >= 2");
        let dims_buf = self.input_dims.get_or_insert_with(Vec::new);
        dims_buf.clear();
        dims_buf.extend_from_slice(input.dims());
        let n = input.dims()[0];
        let rest = input.len() / n;
        let mut out = Tensor::from_pool(&[n, rest]);
        out.data_mut().copy_from_slice(input.data());
        out
    }

    fn backward(&mut self, grad_out: &Tensor, _ctx: &mut BackwardCtx<'_>) -> Tensor {
        let dims = self
            .input_dims
            .as_ref()
            .expect("Flatten::backward called before forward");
        assert_eq!(
            grad_out.len(),
            dims.iter().product::<usize>(),
            "same element count"
        );
        let mut g = Tensor::from_pool(dims);
        g.data_mut().copy_from_slice(grad_out.data());
        g
    }
}

/// Inverted dropout: during training each element is zeroed with probability
/// `p` and survivors are scaled by `1/(1-p)`; inference is the identity.
pub struct Dropout {
    pub(crate) meta: LayerMeta,
    p: f32,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability {p} out of range"
        );
        Self {
            meta: LayerMeta::default(),
            p,
            mask: None,
        }
    }
}

impl Module for Dropout {
    meta_accessors!();

    fn kind(&self) -> LayerKind {
        LayerKind::Dropout
    }

    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx<'_>) -> Tensor {
        let mask = rustfi_tensor::tpool::reuse_slot(&mut self.mask, input.dims());
        if ctx.training && self.p > 0.0 {
            let keep = 1.0 - self.p;
            let scale = 1.0 / keep;
            let p = self.p as f64;
            let rng = ctx.rng();
            for m in mask.data_mut() {
                *m = if rng.chance(p) { 0.0 } else { scale };
            }
            input.mul(mask)
        } else {
            mask.data_mut().fill(1.0);
            input.pooled_copy()
        }
    }

    fn backward(&mut self, grad_out: &Tensor, _ctx: &mut BackwardCtx<'_>) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("Dropout::backward called before forward");
        grad_out.mul(mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Network;

    #[test]
    fn flatten_roundtrip() {
        let mut net = Network::new(Box::new(Flatten::new()));
        let x = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32);
        let y = net.forward(&x);
        assert_eq!(y.dims(), &[2, 12]);
        let g = net.backward(&y);
        assert_eq!(g.dims(), x.dims());
        assert_eq!(g, x);
    }

    #[test]
    fn dropout_is_identity_in_eval() {
        let mut net = Network::new(Box::new(Dropout::new(0.5)));
        let x = Tensor::from_fn(&[1, 100], |i| i as f32);
        assert_eq!(net.forward(&x), x);
    }

    #[test]
    fn dropout_zeroes_and_rescales_in_training() {
        let mut net = Network::new(Box::new(Dropout::new(0.5)));
        net.set_training(true);
        let x = Tensor::ones(&[1, 10_000]);
        let y = net.forward(&x);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        assert!(
            (zeros as f32 / 10_000.0 - 0.5).abs() < 0.05,
            "~half dropped, got {zeros}"
        );
        // Survivors are scaled to preserve expectation.
        assert!(y.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        assert!((y.mean() - 1.0).abs() < 0.05);
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut net = Network::new(Box::new(Dropout::new(0.3)));
        net.set_training(true);
        let x = Tensor::ones(&[1, 1000]);
        let y = net.forward(&x);
        let g = net.backward(&Tensor::ones(&[1, 1000]));
        assert_eq!(g, y, "gradient mask equals forward mask");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dropout_rejects_p_one() {
        Dropout::new(1.0);
    }
}
