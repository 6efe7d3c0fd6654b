//! Activation functions.

use crate::module::{
    meta_accessors, BackwardCtx, ForwardCtx, FusePartner, LayerKind, LayerMeta, Module,
};
use rustfi_tensor::Tensor;

/// Rectified linear unit: `y = max(x, 0)`.
///
/// ReLU is the main *masking* mechanism for hardware errors in DNNs (negative
/// corruptions are squashed to zero), which is why fault-injection outcome
/// distributions depend so strongly on where in the network an error lands.
pub struct Relu {
    pub(crate) meta: LayerMeta,
    /// 1.0 where the input was positive; cached for backward.
    mask: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self {
            meta: LayerMeta::default(),
            mask: None,
        }
    }
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for Relu {
    meta_accessors!();

    fn kind(&self) -> LayerKind {
        LayerKind::Relu
    }

    fn forward(&mut self, input: &Tensor, _ctx: &mut ForwardCtx<'_>) -> Tensor {
        // One fused pass fills both the activation and the backward mask,
        // rewriting the cached mask buffer in place at steady state.
        let mut out = Tensor::from_pool(input.dims());
        let mask = rustfi_tensor::tpool::reuse_slot(&mut self.mask, input.dims());
        input.relu_mask_into(&mut out, mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor, _ctx: &mut BackwardCtx<'_>) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("Relu::backward called before forward");
        grad_out.mul(mask)
    }

    fn fuse_partner(&self) -> Option<FusePartner> {
        Some(FusePartner::Relu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Network;

    #[test]
    fn forward_clamps_negatives() {
        let mut net = Network::new(Box::new(Relu::new()));
        let y = net.forward(&Tensor::from_vec(vec![-2.0, 0.0, 3.0], &[3]));
        assert_eq!(y.data(), &[0.0, 0.0, 3.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut net = Network::new(Box::new(Relu::new()));
        net.forward(&Tensor::from_vec(vec![-2.0, 0.0, 3.0], &[3]));
        let g = net.backward(&Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_masks_negative_injections() {
        // The canonical error-masking effect: a negative corruption before a
        // ReLU disappears entirely.
        let mut net = Network::new(Box::new(Relu::new()));
        let clean = net.forward(&Tensor::from_vec(vec![-1e30, 0.5], &[2]));
        assert_eq!(clean.data(), &[0.0, 0.5]);
    }
}
