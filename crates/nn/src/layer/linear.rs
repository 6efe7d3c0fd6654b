//! Fully-connected layer.

use crate::module::{meta_accessors, BackwardCtx, ForwardCtx, LayerKind, LayerMeta, Module, Param};
use rustfi_tensor::linalg::{self, matmul};
use rustfi_tensor::{linear_q, QTensor, SeededRng, Tensor};

/// A fully-connected (dense) layer: `y = x W^T + b`.
///
/// Input is `[batch, in_features]`; output `[batch, out_features]`. Linear
/// outputs are neurons, so forward hooks see them and the layer is injectable.
/// Compiled forward plans cover convolutions only: this layer runs the same
/// forward with or without one.
pub struct Linear {
    pub(crate) meta: LayerMeta,
    /// `[out_features, in_features]`.
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    /// Reused per-forward `W^T` scratch. Not a cache: weight-fault campaigns
    /// mutate `weight` between forwards, so the transpose is recomputed every
    /// pass — only the buffer survives.
    wt_scratch: Option<Tensor>,
    /// Per-channel quantized weight cache for the INT8 backend; dropped
    /// whenever the f32 weights are handed out mutably.
    qweight: Option<QTensor>,
}

impl Linear {
    /// Creates a dense layer with Kaiming-normal weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SeededRng) -> Self {
        let std = (2.0 / in_features as f32).sqrt();
        let weight = Tensor::rand_normal(&[out_features, in_features], 0.0, std, rng);
        Self {
            meta: LayerMeta::default(),
            grad_weight: Tensor::zeros(weight.dims()),
            grad_bias: Tensor::zeros(&[out_features]),
            bias: Tensor::zeros(&[out_features]),
            weight,
            cached_input: None,
            wt_scratch: None,
            qweight: None,
        }
    }

    /// The weight tensor (`[out_features, in_features]`).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }
}

impl Module for Linear {
    meta_accessors!();

    fn kind(&self) -> LayerKind {
        LayerKind::Linear
    }

    fn infer_dims(&self, input: &[usize]) -> Result<Vec<usize>, crate::shape::ShapeError> {
        let label = || crate::shape::layer_label(&self.meta, LayerKind::Linear);
        let &[n, f] = input else {
            return Err(crate::shape::ShapeError::WrongRank {
                layer: label(),
                expected: 2,
                got: input.to_vec(),
            });
        };
        let (out_f, in_f) = self.weight.dims2();
        if f != in_f {
            return Err(crate::shape::ShapeError::FeatureMismatch {
                layer: label(),
                expected: in_f,
                got: f,
            });
        }
        Ok(vec![n, out_f])
    }

    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx<'_>) -> Tensor {
        let (batch, in_f) = input.dims2();
        let (out_f, w_in) = self.weight.dims2();
        assert_eq!(
            in_f, w_in,
            "linear layer {} expects {} features, got {}",
            self.meta.name, w_in, in_f
        );
        rustfi_tensor::tpool::reuse_slot(&mut self.cached_input, input.dims())
            .data_mut()
            .copy_from_slice(input.data());
        match ctx.input_scale(self.meta.id) {
            Some(scale) => {
                // The quantized GEMM consumes `W` in its natural
                // `[out, in]` layout — no transpose scratch needed.
                let qw = self
                    .qweight
                    .get_or_insert_with(|| QTensor::quantize_per_channel(&self.weight));
                linear_q(input, qw, &self.bias, scale)
            }
            None => {
                let wt = rustfi_tensor::tpool::reuse_slot(&mut self.wt_scratch, &[in_f, out_f]);
                linalg::transpose_into(self.weight.data(), wt.data_mut(), out_f, in_f);
                let mut out = Tensor::from_pool(&[batch, out_f]);
                linalg::matmul_into(
                    input.data(),
                    wt.data(),
                    out.data_mut(),
                    batch,
                    in_f,
                    out_f,
                    true,
                );
                out.bias_add_rows(&self.bias);
                out
            }
        }
    }

    fn backward(&mut self, grad_out: &Tensor, _ctx: &mut BackwardCtx<'_>) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Linear::backward called before forward");
        // dW = g^T x ; db = sum_b g ; dx = g W
        let gt = linalg::transpose(grad_out);
        let gw = matmul(&gt, input);
        self.grad_weight.add_assign(&gw);
        let (batch, out_f) = grad_out.dims2();
        for b in 0..batch {
            for o in 0..out_f {
                self.grad_bias.data_mut()[o] += grad_out.data()[b * out_f + o];
            }
        }
        matmul(grad_out, &self.weight)
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(Param<'_>)) {
        self.qweight = None;
        f(Param {
            value: &mut self.weight,
            grad: &mut self.grad_weight,
        });
        f(Param {
            value: &mut self.bias,
            grad: &mut self.grad_bias,
        });
    }

    fn for_each_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.qweight = None;
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn weight_mut(&mut self) -> Option<&mut Tensor> {
        self.qweight = None;
        Some(&mut self.weight)
    }

    fn bias_mut(&mut self) -> Option<&mut Tensor> {
        Some(&mut self.bias)
    }

    fn qweight(&mut self) -> Option<&QTensor> {
        Some(
            self.qweight
                .get_or_insert_with(|| QTensor::quantize_per_channel(&self.weight)),
        )
    }

    fn set_qweight_word(&mut self, index: usize, word: i8) -> bool {
        self.qweight
            .get_or_insert_with(|| QTensor::quantize_per_channel(&self.weight))
            .data_mut()[index] = word;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Network;

    #[test]
    fn forward_computes_affine_map() {
        let mut rng = SeededRng::new(1);
        let mut lin = Linear::new(2, 2, &mut rng);
        // Overwrite with known values: W = [[1,2],[3,4]], b = [10, 20].
        *lin.weight_mut().unwrap() = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        *lin.bias_mut().unwrap() = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        let mut net = Network::new(Box::new(lin));
        let y = net.forward(&Tensor::from_vec(vec![1.0, 1.0], &[1, 2]));
        assert_eq!(y.data(), &[13.0, 27.0]);
    }

    #[test]
    fn gradient_check() {
        let mut rng = SeededRng::new(2);
        let mut net = Network::new(Box::new(Linear::new(3, 2, &mut rng)));
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.0, 0.0, -0.5], &[2, 3]);
        let y = net.forward(&x);
        let gin = net.backward(&Tensor::ones(y.dims()));

        let eps = 1e-2f32;
        // Input gradient check.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = net.forward(&xp).sum();
            let fm = net.forward(&xm).sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - gin.data()[i]).abs() < 1e-2, "input grad {i}");
        }
        // Weight gradient check (grads were accumulated once above).
        let mut grads = Vec::new();
        net.for_each_param(&mut |p| grads.push(p.grad.clone()));
        let probe = |pi: usize, i: usize, expected: f32, net: &mut Network| {
            let mut idx = 0;
            net.for_each_param(&mut |p| {
                if idx == pi {
                    p.value.data_mut()[i] += eps;
                }
                idx += 1;
            });
            let fp = net.forward(&x).sum();
            let mut idx = 0;
            net.for_each_param(&mut |p| {
                if idx == pi {
                    p.value.data_mut()[i] -= 2.0 * eps;
                }
                idx += 1;
            });
            let fm = net.forward(&x).sum();
            let mut idx = 0;
            net.for_each_param(&mut |p| {
                if idx == pi {
                    p.value.data_mut()[i] += eps;
                }
                idx += 1;
            });
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - expected).abs() < 1e-2,
                "param {pi} elem {i}: {num} vs {expected}"
            );
        };
        for i in 0..grads[0].len() {
            probe(0, i, grads[0].data()[i], &mut net);
        }
        for i in 0..grads[1].len() {
            probe(1, i, grads[1].data()[i], &mut net);
        }
    }

    #[test]
    #[should_panic(expected = "expects 3 features")]
    fn rejects_feature_mismatch() {
        let mut rng = SeededRng::new(3);
        let mut net = Network::new(Box::new(Linear::new(3, 2, &mut rng)));
        net.forward(&Tensor::zeros(&[1, 4]));
    }

    #[test]
    fn linear_is_injectable() {
        let mut rng = SeededRng::new(4);
        let net = Network::new(Box::new(Linear::new(2, 2, &mut rng)));
        assert_eq!(net.injectable_layers().len(), 1);
    }
}
