//! Additional activation functions: [`Sigmoid`], [`Tanh`], [`LeakyRelu`].
//!
//! ReLU (in [`super::activation`]) is what the zoo uses; these variants
//! round out the layer library for custom architectures — notably, sigmoid
//! and leaky-ReLU change the *error-masking* behaviour that fault-injection
//! campaigns measure (a sigmoid squashes egregious corruptions into
//! `[0, 1]`; a leaky ReLU lets negative corruptions through scaled).

use crate::module::{
    meta_accessors, BackwardCtx, ForwardCtx, FusePartner, LayerKind, LayerMeta, Module,
};
use rustfi_tensor::Tensor;

fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Logistic sigmoid: `y = 1 / (1 + e^-x)`.
pub struct Sigmoid {
    pub(crate) meta: LayerMeta,
    /// Cached outputs (`y(1-y)` is the local gradient).
    output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid activation.
    pub fn new() -> Self {
        Self {
            meta: LayerMeta::default(),
            output: None,
        }
    }
}

impl Default for Sigmoid {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for Sigmoid {
    meta_accessors!();

    fn kind(&self) -> LayerKind {
        LayerKind::Sigmoid
    }

    fn forward(&mut self, input: &Tensor, _ctx: &mut ForwardCtx<'_>) -> Tensor {
        let out = input.map(stable_sigmoid);
        rustfi_tensor::tpool::reuse_slot(&mut self.output, out.dims())
            .data_mut()
            .copy_from_slice(out.data());
        out
    }

    fn backward(&mut self, grad_out: &Tensor, _ctx: &mut BackwardCtx<'_>) -> Tensor {
        let y = self
            .output
            .as_ref()
            .expect("Sigmoid::backward called before forward");
        grad_out.zip_map(y, |g, y| g * y * (1.0 - y))
    }
}

/// Hyperbolic tangent activation.
pub struct Tanh {
    pub(crate) meta: LayerMeta,
    output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh activation.
    pub fn new() -> Self {
        Self {
            meta: LayerMeta::default(),
            output: None,
        }
    }
}

impl Default for Tanh {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for Tanh {
    meta_accessors!();

    fn kind(&self) -> LayerKind {
        LayerKind::Tanh
    }

    fn forward(&mut self, input: &Tensor, _ctx: &mut ForwardCtx<'_>) -> Tensor {
        let out = input.map(f32::tanh);
        rustfi_tensor::tpool::reuse_slot(&mut self.output, out.dims())
            .data_mut()
            .copy_from_slice(out.data());
        out
    }

    fn backward(&mut self, grad_out: &Tensor, _ctx: &mut BackwardCtx<'_>) -> Tensor {
        let y = self
            .output
            .as_ref()
            .expect("Tanh::backward called before forward");
        grad_out.zip_map(y, |g, y| g * (1.0 - y * y))
    }
}

/// Leaky ReLU: `y = x` for `x > 0`, `y = slope * x` otherwise.
pub struct LeakyRelu {
    pub(crate) meta: LayerMeta,
    slope: f32,
    mask: Option<Tensor>,
}

impl LeakyRelu {
    /// Creates a leaky ReLU with the given negative-side slope.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= slope < 1`.
    pub fn new(slope: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&slope),
            "leaky slope {slope} out of range"
        );
        Self {
            meta: LayerMeta::default(),
            slope,
            mask: None,
        }
    }
}

impl Module for LeakyRelu {
    meta_accessors!();

    fn kind(&self) -> LayerKind {
        LayerKind::LeakyRelu
    }

    fn forward(&mut self, input: &Tensor, _ctx: &mut ForwardCtx<'_>) -> Tensor {
        let mut out = Tensor::from_pool(input.dims());
        let mask = rustfi_tensor::tpool::reuse_slot(&mut self.mask, input.dims());
        input.leaky_relu_mask_into(self.slope, &mut out, mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor, _ctx: &mut BackwardCtx<'_>) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("LeakyRelu::backward called before forward");
        grad_out.mul(mask)
    }

    fn fuse_partner(&self) -> Option<FusePartner> {
        Some(FusePartner::LeakyRelu(self.slope))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Relu, Sequential};
    use crate::module::Network;

    #[test]
    fn each_activation_reports_its_own_kind_and_auto_name() {
        let net = Network::new(Box::new(Sequential::new(vec![
            Box::new(Relu::new()),
            Box::new(LeakyRelu::new(0.1)),
            Box::new(Sigmoid::new()),
            Box::new(Tanh::new()),
        ])));
        let kinds: Vec<(LayerKind, &str)> = net.layer_infos()[1..]
            .iter()
            .map(|l| (l.kind, l.name.as_str()))
            .collect();
        assert_eq!(
            kinds,
            [
                (LayerKind::Relu, "relu1"),
                (LayerKind::LeakyRelu, "lrelu2"),
                (LayerKind::Sigmoid, "sigmoid3"),
                (LayerKind::Tanh, "tanh4"),
            ]
        );
    }

    #[test]
    fn sigmoid_forward_and_gradient() {
        let mut net = Network::new(Box::new(Sigmoid::new()));
        let y = net.forward(&Tensor::from_vec(vec![0.0, 100.0, -100.0], &[3]));
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
        assert!(y.data()[1] > 0.999 && y.data()[2] < 0.001);
        let g = net.backward(&Tensor::ones(&[3]));
        assert!((g.data()[0] - 0.25).abs() < 1e-6, "sigmoid'(0) = 0.25");
        assert!(g.data()[1] < 1e-3, "saturated gradient vanishes");
    }

    #[test]
    fn sigmoid_squashes_egregious_injections() {
        // The masking property relevant to fault injection: a 1e30
        // corruption upstream of a sigmoid exits as 1.0.
        let mut net = Network::new(Box::new(Sigmoid::new()));
        let y = net.forward(&Tensor::from_vec(vec![1e30], &[1]));
        assert_eq!(y.data()[0], 1.0);
    }

    #[test]
    fn tanh_forward_and_gradient() {
        let mut net = Network::new(Box::new(Tanh::new()));
        let y = net.forward(&Tensor::from_vec(vec![0.0, 2.0], &[2]));
        assert_eq!(y.data()[0], 0.0);
        assert!((y.data()[1] - 2.0f32.tanh()).abs() < 1e-6);
        let g = net.backward(&Tensor::ones(&[2]));
        assert!((g.data()[0] - 1.0).abs() < 1e-6, "tanh'(0) = 1");
        let expect = 1.0 - 2.0f32.tanh().powi(2);
        assert!((g.data()[1] - expect).abs() < 1e-6);
    }

    #[test]
    fn leaky_relu_lets_scaled_negatives_through() {
        let mut net = Network::new(Box::new(LeakyRelu::new(0.1)));
        let y = net.forward(&Tensor::from_vec(vec![-10.0, 5.0], &[2]));
        assert_eq!(y.data(), &[-1.0, 5.0]);
        let g = net.backward(&Tensor::ones(&[2]));
        assert_eq!(g.data(), &[0.1, 1.0]);
    }

    #[test]
    fn leaky_relu_numeric_gradient() {
        let mut net = Network::new(Box::new(LeakyRelu::new(0.2)));
        let x = Tensor::from_vec(vec![-1.5, 0.5, 2.0, -0.1], &[4]);
        net.forward(&x);
        let g = net.backward(&Tensor::ones(&[4]));
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (net.forward(&xp).sum() - net.forward(&xm).sum()) / (2.0 * eps);
            assert!((num - g.data()[i]).abs() < 1e-2, "elem {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn leaky_relu_rejects_slope_one() {
        LeakyRelu::new(1.0);
    }
}
