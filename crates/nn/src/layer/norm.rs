//! Batch normalization.

use crate::module::{
    meta_accessors, BackwardCtx, ForwardCtx, FusePartner, LayerKind, LayerMeta, Module, Param,
};
use rustfi_tensor::{BnFoldView, Tensor};

/// 2-D batch normalization over the channel axis of an `NCHW` tensor.
///
/// In training mode it normalizes with batch statistics and updates running
/// estimates with exponential averaging; in inference mode it uses the
/// running estimates. `weight`/`bias` are the affine `gamma`/`beta`.
pub struct BatchNorm2d {
    pub(crate) meta: LayerMeta,
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    /// Cached for backward: (normalized input, 1/std per channel, input, batch mean).
    cache: Option<BnCache>,
    /// Per-channel mean scratch, reused across forwards to stay allocation-free.
    mean_scratch: Vec<f32>,
    /// Compiled-plan fold cache: `1/sqrt(running_var + eps)` per channel,
    /// computed with the exact expression the inference forward uses so the
    /// fused epilogue is bit-identical. Stale whenever the running stats may
    /// have changed.
    fold_inv_std: Vec<f32>,
    fold_stale: bool,
}

struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    training: bool,
}

impl BatchNorm2d {
    /// Creates a batch norm over `channels` with default momentum 0.1 and
    /// epsilon 1e-5.
    pub fn new(channels: usize) -> Self {
        Self {
            meta: LayerMeta::default(),
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
            mean_scratch: Vec::new(),
            fold_inv_std: Vec::new(),
            fold_stale: true,
        }
    }

    fn channels(&self) -> usize {
        self.gamma.len()
    }
}

impl Module for BatchNorm2d {
    meta_accessors!();

    fn kind(&self) -> LayerKind {
        LayerKind::BatchNorm2d
    }

    fn infer_dims(&self, input: &[usize]) -> Result<Vec<usize>, crate::shape::ShapeError> {
        let label = || crate::shape::layer_label(&self.meta, LayerKind::BatchNorm2d);
        let &[_n, c, _h, _w] = input else {
            return Err(crate::shape::ShapeError::WrongRank {
                layer: label(),
                expected: 4,
                got: input.to_vec(),
            });
        };
        if c != self.channels() {
            return Err(crate::shape::ShapeError::ChannelMismatch {
                layer: label(),
                expected: self.channels(),
                got: c,
            });
        }
        Ok(input.to_vec())
    }

    #[allow(clippy::needless_range_loop)]
    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx<'_>) -> Tensor {
        let (n, c, h, w) = input.dims4();
        assert_eq!(
            c,
            self.channels(),
            "batch norm {} expects {} channels, got {c}",
            self.meta.name,
            self.channels()
        );
        let count = (n * h * w) as f32;
        if ctx.training {
            // Running statistics are about to change; the plan fold cache
            // must recompute on next use.
            self.fold_stale = true;
        }
        // Recycle the previous forward's cache buffers: at steady state the
        // x_hat tensor, the inv_std vector, and the mean scratch are all
        // rewritten in place.
        let (mut x_hat_slot, mut inv_stds) = match self.cache.take() {
            Some(cache) => (Some(cache.x_hat), cache.inv_std),
            None => (None, Vec::new()),
        };
        inv_stds.clear();
        inv_stds.resize(c, 0.0);
        self.mean_scratch.clear();
        self.mean_scratch.resize(c, 0.0);

        for ch in 0..c {
            let (mean, var) = if ctx.training {
                let mut mean = 0.0;
                for bn in 0..n {
                    mean += input.fmap(bn, ch).iter().sum::<f32>();
                }
                mean /= count;
                let mut var = 0.0;
                for bn in 0..n {
                    var += input
                        .fmap(bn, ch)
                        .iter()
                        .map(|x| (x - mean).powi(2))
                        .sum::<f32>();
                }
                var /= count;
                // Update running statistics.
                let m = self.momentum;
                self.running_mean.data_mut()[ch] =
                    (1.0 - m) * self.running_mean.data()[ch] + m * mean;
                self.running_var.data_mut()[ch] = (1.0 - m) * self.running_var.data()[ch] + m * var;
                (mean, var)
            } else {
                (self.running_mean.data()[ch], self.running_var.data()[ch])
            };
            self.mean_scratch[ch] = mean;
            inv_stds[ch] = 1.0 / (var + self.eps).sqrt();
        }

        let mut out = Tensor::from_pool(input.dims());
        let x_hat = rustfi_tensor::tpool::reuse_slot(&mut x_hat_slot, input.dims());
        input.batchnorm2d_into(
            &self.mean_scratch,
            &inv_stds,
            self.gamma.data(),
            self.beta.data(),
            x_hat,
            &mut out,
        );
        self.cache = Some(BnCache {
            x_hat: x_hat_slot.expect("x_hat slot was just filled"),
            inv_std: inv_stds,
            training: ctx.training,
        });
        out
    }

    fn backward(&mut self, grad_out: &Tensor, _ctx: &mut BackwardCtx<'_>) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("BatchNorm2d::backward called before forward");
        let (n, c, h, w) = grad_out.dims4();
        let hw = h * w;
        let count = (n * hw) as f32;
        // Every element is assigned below, so stale pool contents are fine.
        let mut gin = Tensor::from_pool(grad_out.dims());

        for ch in 0..c {
            let g = self.gamma.data()[ch];
            let inv_std = cache.inv_std[ch];
            // Accumulate dgamma/dbeta and intermediate sums.
            let mut sum_dy = 0.0;
            let mut sum_dy_xhat = 0.0;
            for bn in 0..n {
                let dy = grad_out.fmap(bn, ch);
                let xh = cache.x_hat.fmap(bn, ch);
                for (dyv, xhv) in dy.iter().zip(xh) {
                    sum_dy += dyv;
                    sum_dy_xhat += dyv * xhv;
                }
            }
            self.grad_gamma.data_mut()[ch] += sum_dy_xhat;
            self.grad_beta.data_mut()[ch] += sum_dy;

            if cache.training {
                // Full batch-stats backward.
                for bn in 0..n {
                    let dy = grad_out.fmap(bn, ch);
                    let xh = cache.x_hat.fmap(bn, ch);
                    let dst = gin.fmap_mut(bn, ch);
                    for i in 0..h * w {
                        dst[i] =
                            g * inv_std * (dy[i] - sum_dy / count - xh[i] * sum_dy_xhat / count);
                    }
                }
            } else {
                // Running-stats mode: mean/var are constants.
                for bn in 0..n {
                    let dy = grad_out.fmap(bn, ch);
                    let dst = gin.fmap_mut(bn, ch);
                    for i in 0..h * w {
                        dst[i] = g * inv_std * dy[i];
                    }
                }
            }
        }
        gin
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(Param<'_>)) {
        f(Param {
            value: &mut self.gamma,
            grad: &mut self.grad_gamma,
        });
        f(Param {
            value: &mut self.beta,
            grad: &mut self.grad_beta,
        });
    }

    fn for_each_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.fold_stale = true;
        f(&mut self.gamma);
        f(&mut self.beta);
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn weight_mut(&mut self) -> Option<&mut Tensor> {
        Some(&mut self.gamma)
    }

    fn bias_mut(&mut self) -> Option<&mut Tensor> {
        Some(&mut self.beta)
    }

    fn fuse_partner(&self) -> Option<FusePartner> {
        Some(FusePartner::BatchNorm)
    }

    fn bn_fold(&mut self) -> Option<BnFoldView<'_>> {
        let c = self.channels();
        if self.fold_stale || self.fold_inv_std.len() != c {
            self.fold_inv_std.clear();
            self.fold_inv_std.resize(c, 0.0);
            for ch in 0..c {
                // Exact same expression as the inference forward.
                self.fold_inv_std[ch] = 1.0 / (self.running_var.data()[ch] + self.eps).sqrt();
            }
            self.fold_stale = false;
        }
        Some(BnFoldView {
            mean: self.running_mean.data(),
            inv_std: &self.fold_inv_std,
            gamma: self.gamma.data(),
            beta: self.beta.data(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Network;
    use rustfi_tensor::SeededRng;

    #[test]
    fn training_pass_normalizes_batch() {
        let mut net = Network::new(Box::new(BatchNorm2d::new(2)));
        net.set_training(true);
        let mut rng = SeededRng::new(1);
        let x = Tensor::rand_normal(&[4, 2, 3, 3], 5.0, 2.0, &mut rng);
        let y = net.forward(&x);
        // Per-channel output should be ~N(0, 1) since gamma=1, beta=0.
        for ch in 0..2 {
            let mut vals = Vec::new();
            for bn in 0..4 {
                vals.extend_from_slice(y.fmap(bn, ch));
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut net = Network::new(Box::new(BatchNorm2d::new(1)));
        // With fresh running stats (mean 0, var 1), eval is identity.
        let x = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[1, 1, 2, 2]);
        let y = net.forward(&x);
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn running_stats_track_batches() {
        let mut net = Network::new(Box::new(BatchNorm2d::new(1)));
        net.set_training(true);
        let x = Tensor::full(&[8, 1, 2, 2], 10.0);
        for _ in 0..200 {
            net.forward(&x);
        }
        net.set_training(false);
        // After many constant batches the running mean approaches 10.
        let y = net.forward(&x);
        assert!(
            y.data().iter().all(|v| v.abs() < 0.5),
            "output ~0, got {:?}",
            &y.data()[..2]
        );
    }

    #[test]
    fn numeric_gradient_training_mode() {
        let mut net = Network::new(Box::new(BatchNorm2d::new(2)));
        net.set_training(true);
        let mut rng = SeededRng::new(3);
        let x = Tensor::rand_normal(&[2, 2, 2, 2], 1.0, 1.5, &mut rng);
        // Loss = weighted sum to break symmetry.
        let w = Tensor::from_fn(&[2, 2, 2, 2], |i| (i as f32 * 0.37).sin());
        let y = net.forward(&x);
        let _ = y;
        let gin = net.backward(&w);
        let loss = |net: &mut Network, x: &Tensor| net.forward(x).mul(&w).sum();
        let eps = 1e-2f32;
        for &i in &[0usize, 3, 7, 12, 15] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&mut net, &xp) - loss(&mut net, &xm)) / (2.0 * eps);
            assert!(
                (num - gin.data()[i]).abs() < 2e-2,
                "bn input grad {i}: {num} vs {}",
                gin.data()[i]
            );
        }
    }

    #[test]
    fn state_includes_running_buffers() {
        let mut net = Network::new(Box::new(BatchNorm2d::new(3)));
        let mut count = 0;
        net.for_each_state(&mut |_| count += 1);
        assert_eq!(count, 4, "gamma, beta, running_mean, running_var");
        let mut params = 0;
        net.for_each_param(&mut |_| params += 1);
        assert_eq!(params, 2, "only gamma/beta are trainable");
    }
}
