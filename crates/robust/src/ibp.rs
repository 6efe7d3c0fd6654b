//! IBP-trainable network (paper §IV-C, Eq. 1).
//!
//! [`IbpNet`] is an ordinary AlexNet-topology [`Network`] plus an
//! **interval** path: a forward and backward through the IBP bound
//! propagation of [`crate::interval`] that read the network's weights and
//! add into its parameter gradients. The **nominal** path is the network's
//! own `forward`/`backward`, and updates are [`Sgd`] steps.
//!
//! Training minimizes `(1-α)·CE(z, y) + α·CE(z_worst, y)` with `z_worst`
//! assembled from the output bounds (`lo` for the true class, `hi` for the
//! rest). [`IbpNet::into_network`] then hands the trained network itself to
//! the fault injector: the model that is trained is the model that is
//! injected.

use crate::curriculum::Curriculum;
use crate::interval::{
    conv_interval, linear_interval, max_pool_interval, relu_interval, split_weights,
};
use rustfi_nn::layer::{Conv2d, Flatten, Linear, MaxPool2d, Relu, Sequential};
use rustfi_nn::loss::cross_entropy;
use rustfi_nn::module::{LayerId, LayerKind, Module, Network};
use rustfi_nn::optim::Sgd;
use rustfi_tensor::linalg::{matmul, transpose};
use rustfi_tensor::{conv2d_backward, max_pool2d_backward, ConvSpec, PoolSpec, SeededRng, Tensor};

/// Architecture parameters for [`IbpNet::alexnet_like`].
#[derive(Debug, Clone)]
pub struct IbpSpec {
    /// Output classes.
    pub num_classes: usize,
    /// Input channels.
    pub in_channels: usize,
    /// Square input size (multiple of 8).
    pub image_hw: usize,
    /// Base width (channels of the first conv).
    pub width: usize,
    /// Weight-init seed.
    pub seed: u64,
}

impl IbpSpec {
    /// 3×16×16 inputs, base width 8.
    pub fn tiny(num_classes: usize) -> Self {
        Self {
            num_classes,
            in_channels: 3,
            image_hw: 16,
            width: 8,
            seed: 0x1B9,
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Training hyperparameters for [`IbpNet::train`].
#[derive(Debug, Clone)]
pub struct IbpTrainConfig {
    /// Epochs over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Momentum.
    pub momentum: f32,
    /// Final worst-case loss weight α.
    pub alpha_max: f32,
    /// Final perturbation radius ε.
    pub eps_max: f32,
    /// Fraction of total steps at which the α/ε ramp starts.
    pub ramp_start_frac: f32,
    /// Fraction of total steps at which the ramp ends.
    pub ramp_end_frac: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for IbpTrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch_size: 16,
            lr: 0.01,
            momentum: 0.8,
            alpha_max: 0.1,
            eps_max: 0.25,
            // Scaled version of the paper's iteration 41 -> 123 ramp.
            ramp_start_frac: 0.25,
            ramp_end_frac: 0.75,
            seed: 0,
        }
    }
}

/// Every convolution [`IbpNet::alexnet_like`] builds: 3×3, padding 1.
fn conv_spec() -> ConvSpec {
    ConvSpec::new().padding(1)
}

/// Every max pool [`IbpNet::alexnet_like`] builds: 2×2, stride 2.
fn pool_spec() -> PoolSpec {
    PoolSpec::new(2, 2)
}

/// One layer of the interval pass, in network order, holding what its
/// backward needs from the last [`IbpNet::forward_interval`].
enum Stage {
    /// A convolution and its input bounds.
    Conv(LayerId, Option<(Tensor, Tensor)>),
    /// A dense layer and its input bounds.
    Linear(LayerId, Option<(Tensor, Tensor)>),
    /// A ReLU and its input bounds.
    Relu(Option<(Tensor, Tensor)>),
    /// A max pool: the argmax of each bound, and the input dims.
    MaxPool(Option<(Vec<usize>, Vec<usize>, Vec<usize>)>),
    /// A flatten and its input dims.
    Flatten(Option<Vec<usize>>),
}

/// Result of [`IbpNet::train`].
#[derive(Debug, Clone)]
pub struct IbpTrainReport {
    /// Mean combined loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// `(α, ε)` at the final step.
    pub final_schedule: (f32, f32),
}

/// An AlexNet-topology network trainable with Interval Bound Propagation.
pub struct IbpNet {
    net: Network,
    stages: Vec<Stage>,
}

impl IbpNet {
    /// Builds the AlexNet-like architecture: five 3×3 convolutions with
    /// three max-pools, then a two-layer fully-connected head. No batch norm
    /// (IBP bounds through batch statistics are not well-defined).
    ///
    /// # Panics
    ///
    /// Panics if `image_hw` is not a positive multiple of 8.
    pub fn alexnet_like(spec: &IbpSpec) -> Self {
        assert!(
            spec.image_hw >= 8 && spec.image_hw.is_multiple_of(8),
            "image size must be a positive multiple of 8"
        );
        let mut rng = SeededRng::new(spec.seed);
        let w = spec.width;
        let feat = spec.image_hw / 8;
        let conv = |ci: usize, co: usize, rng: &mut SeededRng| -> Box<dyn Module> {
            Box::new(Conv2d::new(ci, co, 3, conv_spec(), rng))
        };
        let linear = |fi: usize, fo: usize, rng: &mut SeededRng| -> Box<dyn Module> {
            Box::new(Linear::new(fi, fo, rng))
        };
        let relu = || -> Box<dyn Module> { Box::new(Relu::new()) };
        let pool = || -> Box<dyn Module> { Box::new(MaxPool2d::new(2, 2)) };
        let layers = vec![
            conv(spec.in_channels, w, &mut rng),
            relu(),
            pool(),
            conv(w, 2 * w, &mut rng),
            relu(),
            pool(),
            conv(2 * w, 3 * w, &mut rng),
            relu(),
            conv(3 * w, 2 * w, &mut rng),
            relu(),
            conv(2 * w, 2 * w, &mut rng),
            relu(),
            pool(),
            Box::new(Flatten::new()),
            linear(2 * w * feat * feat, 4 * w, &mut rng),
            relu(),
            linear(4 * w, spec.num_classes, &mut rng),
        ];
        let net = Network::new(Box::new(Sequential::new(layers)));
        let stages = net
            .layer_infos()
            .iter()
            .filter_map(|layer| match layer.kind {
                LayerKind::Sequential => None,
                LayerKind::Conv2d => Some(Stage::Conv(layer.id, None)),
                LayerKind::Linear => Some(Stage::Linear(layer.id, None)),
                LayerKind::Relu => Some(Stage::Relu(None)),
                LayerKind::MaxPool2d => Some(Stage::MaxPool(None)),
                LayerKind::Flatten => Some(Stage::Flatten(None)),
                kind => unreachable!("alexnet_like builds no {kind:?} layer"),
            })
            .collect();
        Self { net, stages }
    }

    /// The network: its `forward`/`backward` are the nominal path.
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Hands over the network, ready for fault injection.
    pub fn into_network(self) -> Network {
        self.net
    }

    /// Interval forward pass: sound output bounds for inputs in
    /// `[lo, hi]` (caches for `backward_interval`).
    pub fn forward_interval(&mut self, lo: &Tensor, hi: &Tensor) -> (Tensor, Tensor) {
        let mut cur = (lo.clone(), hi.clone());
        for stage in &mut self.stages {
            cur = match stage {
                Stage::Conv(id, input) => {
                    let (w, b) = weight_and_bias(&mut self.net, *id);
                    let out = conv_interval(&cur.0, &cur.1, w, &b, &conv_spec());
                    *input = Some(cur);
                    out
                }
                Stage::Linear(id, input) => {
                    let (w, b) = weight_and_bias(&mut self.net, *id);
                    let out = linear_interval(&cur.0, &cur.1, w, &b);
                    *input = Some(cur);
                    out
                }
                Stage::Relu(input) => {
                    let out = relu_interval(&cur.0, &cur.1);
                    *input = Some(cur);
                    out
                }
                Stage::MaxPool(cache) => {
                    let ((out_lo, arg_lo), (out_hi, arg_hi)) =
                        max_pool_interval(&cur.0, &cur.1, &pool_spec());
                    *cache = Some((arg_lo, arg_hi, cur.0.dims().to_vec()));
                    (out_lo, out_hi)
                }
                Stage::Flatten(dims) => {
                    *dims = Some(cur.0.dims().to_vec());
                    let n = cur.0.dims()[0];
                    let rest = cur.0.len() / n;
                    (
                        cur.0.reshaped(&[n, rest]).expect("flatten"),
                        cur.1.reshaped(&[n, rest]).expect("flatten"),
                    )
                }
            };
        }
        cur
    }

    /// Interval backward pass from output-bound gradients `(g_lo, g_hi)`;
    /// adds `scale ×` its parameter gradients into the network's.
    ///
    /// # Panics
    ///
    /// Panics if called before [`IbpNet::forward_interval`].
    pub fn backward_interval(&mut self, grad_lo: &Tensor, grad_hi: &Tensor, scale: f32) {
        let mut glo = grad_lo.scale(scale);
        let mut ghi = grad_hi.scale(scale);
        // `(dW, db)` per affine layer, last layer first.
        let mut deltas = Vec::new();
        for stage in self.stages.iter().rev() {
            match stage {
                Stage::Conv(id, input) => {
                    let (lo_in, hi_in) = input.as_ref().expect("interval forward first");
                    let w = weight(&mut self.net, *id);
                    let (wp, wn) = split_weights(w);
                    let spec = conv_spec();
                    let a = conv2d_backward(lo_in, &wp, &glo, &spec);
                    let bb = conv2d_backward(hi_in, &wn, &glo, &spec);
                    let c = conv2d_backward(hi_in, &wp, &ghi, &spec);
                    let d = conv2d_backward(lo_in, &wn, &ghi, &spec);
                    let dw = by_weight_sign(w, &a.weight.add(&c.weight), &bb.weight.add(&d.weight));
                    deltas.push((dw, a.bias.add(&c.bias)));
                    glo = a.input.add(&d.input);
                    ghi = bb.input.add(&c.input);
                }
                Stage::Relu(input) => {
                    let (lo_in, hi_in) = input.as_ref().expect("interval forward first");
                    let positive = |t: &Tensor| t.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                    glo = glo.mul(&positive(lo_in));
                    ghi = ghi.mul(&positive(hi_in));
                }
                Stage::MaxPool(cache) => {
                    let (arg_lo, arg_hi, dims) = cache.as_ref().expect("interval forward first");
                    glo = max_pool2d_backward(&glo, arg_lo, dims);
                    ghi = max_pool2d_backward(&ghi, arg_hi, dims);
                }
                Stage::Flatten(dims) => {
                    let dims = dims.as_ref().expect("interval forward first");
                    glo = glo.reshaped(dims).expect("unflatten");
                    ghi = ghi.reshaped(dims).expect("unflatten");
                }
                Stage::Linear(id, input) => {
                    let (lo_in, hi_in) = input.as_ref().expect("interval forward first");
                    let w = weight(&mut self.net, *id);
                    let (wp, wn) = split_weights(w);
                    // dWp = glo^T lo + ghi^T hi ; dWn = glo^T hi + ghi^T lo.
                    let pos_part =
                        matmul(&transpose(&glo), lo_in).add(&matmul(&transpose(&ghi), hi_in));
                    let neg_part =
                        matmul(&transpose(&glo), hi_in).add(&matmul(&transpose(&ghi), lo_in));
                    // db keeps one row per batch element (see below).
                    deltas.push((by_weight_sign(w, &pos_part, &neg_part), glo.add(&ghi)));
                    let new_glo = matmul(&glo, &wp).add(&matmul(&ghi, &wn));
                    ghi = matmul(&ghi, &wp).add(&matmul(&glo, &wn));
                    glo = new_glo;
                }
            }
        }
        let mut deltas = deltas.into_iter().rev().flat_map(|(dw, db)| [dw, db]);
        self.net.for_each_param(&mut |p| {
            let delta = deltas.next().expect("one delta per parameter");
            // A dense layer's bias delta is added one batch row at a time,
            // as the nominal backward adds its rows: summing the rows first
            // rounds differently.
            for row in delta.data().chunks(p.grad.len()) {
                for (g, &d) in p.grad.data_mut().iter_mut().zip(row) {
                    *g += d;
                }
            }
        });
    }

    /// Worst-case logits from output bounds: the true class takes its lower
    /// bound, every other class its upper bound.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or a label is out of range.
    pub fn worst_case_logits(lo: &Tensor, hi: &Tensor, labels: &[usize]) -> Tensor {
        let (batch, classes) = lo.dims2();
        assert_eq!(labels.len(), batch, "one label per batch element");
        Tensor::from_fn(lo.dims(), |i| {
            let b = i / classes;
            let k = i % classes;
            assert!(labels[b] < classes, "label out of range");
            if k == labels[b] {
                lo.data()[i]
            } else {
                hi.data()[i]
            }
        })
    }

    /// IBP training with the Eq. 1 objective and a linear α/ε curriculum.
    ///
    /// Each call steps one fresh [`Sgd`] with momentum, so momentum does not
    /// carry over from an earlier call.
    ///
    /// # Panics
    ///
    /// Panics on empty data or mismatched lengths, or if `cfg.lr` or
    /// `cfg.momentum` is out of [`Sgd`]'s range.
    pub fn train(
        &mut self,
        images: &Tensor,
        labels: &[usize],
        cfg: &IbpTrainConfig,
    ) -> IbpTrainReport {
        let n = images.dims()[0];
        assert_eq!(n, labels.len(), "{n} images, {} labels", labels.len());
        assert!(n > 0 && cfg.batch_size > 0, "empty data or batch");
        let steps_per_epoch = n.div_ceil(cfg.batch_size);
        let total_steps = steps_per_epoch * cfg.epochs;
        let schedule = Curriculum::new(
            (total_steps as f32 * cfg.ramp_start_frac) as usize,
            ((total_steps as f32 * cfg.ramp_end_frac) as usize).max(1),
            cfg.alpha_max,
            cfg.eps_max,
        );
        let mut sgd = Sgd::new(cfg.lr).momentum(cfg.momentum);
        let mut rng = SeededRng::new(cfg.seed).fork(0x1B9);
        let mut order: Vec<usize> = (0..n).collect();
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        let mut step = 0;
        let mut final_schedule = (0.0, 0.0);
        self.net.set_training(true);
        for _epoch in 0..cfg.epochs {
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(cfg.batch_size) {
                let imgs: Vec<Tensor> = chunk.iter().map(|&i| images.select_batch(i)).collect();
                let x = Tensor::stack_batch(&imgs);
                let y: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                let (alpha, eps) = schedule.at(step);
                final_schedule = (alpha, eps);

                self.net.zero_grad();
                // Nominal path.
                let z = self.net.forward(&x);
                let (loss_nom, g_nom) = cross_entropy(&z, &y);
                self.net.backward(&g_nom.scale(1.0 - alpha));
                let mut loss = (1.0 - alpha) * loss_nom;
                // Worst-case path.
                if alpha > 0.0 && eps > 0.0 {
                    let (lo, hi) = self.forward_interval(&x.add_scalar(-eps), &x.add_scalar(eps));
                    let z_wc = Self::worst_case_logits(&lo, &hi, &y);
                    let (loss_wc, g_wc) = cross_entropy(&z_wc, &y);
                    let (g_lo, g_hi) = route_to_bounds(&g_wc, &y);
                    self.backward_interval(&g_lo, &g_hi, alpha);
                    loss += alpha * loss_wc;
                }
                sgd.step(&mut self.net);
                epoch_loss += loss;
                batches += 1;
                step += 1;
            }
            epoch_losses.push(epoch_loss / batches as f32);
        }
        self.net.set_training(false);
        IbpTrainReport {
            epoch_losses,
            final_schedule,
        }
    }

    /// Fraction of `(images, labels)` whose classification is *certified*
    /// robust at radius `eps`: the worst-case logits over the input box
    /// `[x-ε, x+ε]` still rank the true class first. This is the quantity
    /// the IBP objective optimizes, so it is the natural check that robust
    /// training actually worked.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree or the set is empty.
    pub fn certified_accuracy(&mut self, images: &Tensor, labels: &[usize], eps: f32) -> f32 {
        let n = images.dims()[0];
        assert_eq!(n, labels.len(), "{n} images, {} labels", labels.len());
        assert!(n > 0, "empty evaluation set");
        let mut certified = 0;
        for (i, &label) in labels.iter().enumerate() {
            let x = images.select_batch(i);
            let (lo, hi) = self.forward_interval(&x.add_scalar(-eps), &x.add_scalar(eps));
            // Certified iff the true class's lower bound beats every other
            // class's upper bound.
            let lo_true = lo.at(&[0, label]);
            let beaten = (0..hi.dims2().1)
                .filter(|&k| k != label)
                .all(|k| hi.at(&[0, k]) < lo_true);
            if beaten {
                certified += 1;
            }
        }
        certified as f32 / n as f32
    }
}

/// Routes the gradient of [`IbpNet::worst_case_logits`] back to the bounds
/// its logits came from: `(∂/∂lo, ∂/∂hi)`.
fn route_to_bounds(g_wc: &Tensor, labels: &[usize]) -> (Tensor, Tensor) {
    let classes = g_wc.dims2().1;
    let part = |true_class: bool| {
        Tensor::from_fn(g_wc.dims(), |i| {
            if (i % classes == labels[i / classes]) == true_class {
                g_wc.data()[i]
            } else {
                0.0
            }
        })
    };
    (part(true), part(false))
}

/// Conv or linear layer `id`'s weight.
fn weight(net: &mut Network, id: LayerId) -> &Tensor {
    net.layer_weight_mut(id)
        .expect("affine layers have weights")
}

/// Conv or linear layer `id`'s weight and a copy of its bias (the network
/// lends out one tensor at a time).
fn weight_and_bias(net: &mut Network, id: LayerId) -> (&Tensor, Tensor) {
    let bias = net
        .layer_bias_mut(id)
        .expect("affine layers have biases")
        .clone();
    (weight(net, id), bias)
}

/// The gradient of each weight through its part in [`split_weights`]:
/// `pos` where `w > 0`, `neg` where `w < 0`, and 0 where `w` is 0.
fn by_weight_sign(w: &Tensor, pos: &Tensor, neg: &Tensor) -> Tensor {
    Tensor::from_fn(w.dims(), |i| {
        if w.data()[i] > 0.0 {
            pos.data()[i]
        } else if w.data()[i] < 0.0 {
            neg.data()[i]
        } else {
            0.0
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustfi_data::SynthSpec;
    use rustfi_nn::train::accuracy;

    /// The network's accumulated gradients, in `(w, b)` order per layer.
    fn grads(net: &mut Network) -> Vec<Tensor> {
        let mut out = Vec::new();
        net.for_each_param(&mut |p| out.push(p.grad.clone()));
        out
    }

    #[test]
    fn nominal_forward_shapes() {
        let mut ibp = IbpNet::alexnet_like(&IbpSpec::tiny(10));
        let z = ibp.net_mut().forward(&Tensor::zeros(&[2, 3, 16, 16]));
        assert_eq!(z.dims(), &[2, 10]);
    }

    #[test]
    fn interval_bounds_contain_nominal() {
        let mut ibp = IbpNet::alexnet_like(&IbpSpec::tiny(10));
        let mut rng = SeededRng::new(1);
        let x = Tensor::rand_normal(&[1, 3, 16, 16], 0.0, 1.0, &mut rng);
        let z = ibp.net_mut().forward(&x);
        let (lo, hi) = ibp.forward_interval(&x.add_scalar(-0.1), &x.add_scalar(0.1));
        for ((l, v), h) in lo.data().iter().zip(z.data()).zip(hi.data()) {
            assert!(l - 1e-4 <= *v && *v <= h + 1e-4, "{l} <= {v} <= {h}");
        }
    }

    #[test]
    fn zero_eps_interval_equals_nominal() {
        let mut ibp = IbpNet::alexnet_like(&IbpSpec::tiny(4));
        let mut rng = SeededRng::new(2);
        let x = Tensor::rand_normal(&[1, 3, 16, 16], 0.0, 1.0, &mut rng);
        let z = ibp.net_mut().forward(&x);
        let (lo, hi) = ibp.forward_interval(&x, &x);
        for ((l, v), h) in lo.data().iter().zip(z.data()).zip(hi.data()) {
            assert!((l - v).abs() < 1e-3 && (h - v).abs() < 1e-3);
        }
    }

    #[test]
    fn nominal_gradients_match_numeric() {
        let mut ibp = IbpNet::alexnet_like(&IbpSpec::tiny(4));
        let net = ibp.net_mut();
        let mut rng = SeededRng::new(3);
        let x = Tensor::rand_normal(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        let labels = [1usize, 2];
        net.zero_grad();
        let z = net.forward(&x);
        let (_, g) = cross_entropy(&z, &labels);
        net.backward(&g);
        // Probe first conv weight elements (the first parameter).
        let conv = net.injectable_layers()[0];
        let idx_list = [0usize, 7, 31];
        let first_grad = &grads(net)[0];
        let analytic: Vec<f32> = idx_list.iter().map(|&i| first_grad.data()[i]).collect();
        let eps = 1e-2;
        for (k, &i) in idx_list.iter().enumerate() {
            let loss_at = |net: &mut Network, delta: f32| {
                net.layer_weight_mut(conv).unwrap().data_mut()[i] += delta;
                let z = net.forward(&x);
                let (l, _) = cross_entropy(&z, &labels);
                net.layer_weight_mut(conv).unwrap().data_mut()[i] -= delta;
                l
            };
            let num = (loss_at(net, eps) - loss_at(net, -eps)) / (2.0 * eps);
            // f32 finite differences through five conv layers and max-pool
            // kinks are noisy.
            let tol = 0.03 + 0.15 * analytic[k].abs();
            assert!(
                (num - analytic[k]).abs() < tol,
                "conv grad {i}: {num} vs {}",
                analytic[k]
            );
        }
    }

    #[test]
    fn degenerate_interval_backward_equals_nominal() {
        // With lo = hi = x the interval pass computes the nominal function,
        // and backward_interval(g/2, g/2) must accumulate exactly the
        // nominal parameter gradients of g — this exercises every routing
        // path (W+/W- splits, dual pooling argmaxes, dual ReLU masks).
        let mut rng = SeededRng::new(4);
        let x = Tensor::rand_normal(&[2, 3, 16, 16], 0.0, 0.5, &mut rng);
        let labels = [0usize, 2];

        let mut net_a = IbpNet::alexnet_like(&IbpSpec::tiny(3)).into_network();
        net_a.zero_grad();
        let z = net_a.forward(&x);
        let (_, g) = cross_entropy(&z, &labels);
        net_a.backward(&g);
        let nominal_grads = grads(&mut net_a);

        let mut net_b = IbpNet::alexnet_like(&IbpSpec::tiny(3));
        net_b.net_mut().zero_grad();
        let (lo, hi) = net_b.forward_interval(&x, &x);
        assert_eq!(lo, hi, "degenerate interval stays degenerate");
        let half = g.scale(0.5);
        net_b.backward_interval(&half, &half, 1.0);
        let interval_grads = grads(net_b.net_mut());

        for (a, b) in nominal_grads.iter().zip(&interval_grads) {
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn interval_gradient_descends_worst_case_loss() {
        // First-order sanity under a real interval: a small step along the
        // negative accumulated gradient must reduce the worst-case loss.
        let mut ibp = IbpNet::alexnet_like(&IbpSpec::tiny(3));
        let mut rng = SeededRng::new(5);
        let x = Tensor::rand_normal(&[2, 3, 16, 16], 0.0, 0.5, &mut rng);
        let labels = [0usize, 1];
        // Interval widths amplify ~6e5x through the untrained stack; keep
        // eps small enough that the worst-case cross-entropy is not
        // saturated at the log clamp.
        let eps_in = 1e-5;

        let wc_loss = |ibp: &mut IbpNet| {
            let (lo, hi) = ibp.forward_interval(&x.add_scalar(-eps_in), &x.add_scalar(eps_in));
            let z_wc = IbpNet::worst_case_logits(&lo, &hi, &labels);
            cross_entropy(&z_wc, &labels).0
        };

        ibp.net_mut().zero_grad();
        let before = {
            let (lo, hi) = ibp.forward_interval(&x.add_scalar(-eps_in), &x.add_scalar(eps_in));
            let z_wc = IbpNet::worst_case_logits(&lo, &hi, &labels);
            let (loss, g_wc) = cross_entropy(&z_wc, &labels);
            assert!(loss < 27.0, "test premise: loss not saturated, got {loss}");
            let (g_lo, g_hi) = route_to_bounds(&g_wc, &labels);
            ibp.backward_interval(&g_lo, &g_hi, 1.0);
            loss
        };
        Sgd::new(1e-4).step(ibp.net_mut());
        let after = wc_loss(&mut ibp);
        assert!(after < before, "descent step: {after} !< {before}");
    }

    #[test]
    fn worst_case_logits_mix_bounds() {
        let lo = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let hi = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[1, 3]);
        let wc = IbpNet::worst_case_logits(&lo, &hi, &[1]);
        assert_eq!(wc.data(), &[4.0, 2.0, 6.0]);
    }

    #[test]
    fn ibp_training_learns_and_exports() {
        let data = SynthSpec::cifar10_like().with_budget(20, 6).generate();
        let mut ibp = IbpNet::alexnet_like(&IbpSpec::tiny(10));
        let report = ibp.train(
            &data.train_images,
            &data.train_labels,
            &IbpTrainConfig {
                epochs: 60,
                ..IbpTrainConfig::default()
            },
        );
        // The combined loss includes the ramped worst-case term, so compare
        // against the pre-ramp epochs rather than demanding monotonicity.
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
        assert!(report.final_schedule.0 > 0.0, "curriculum ramped alpha");

        let mut net = ibp.into_network();
        let acc = accuracy(&mut net, &data.test_images, &data.test_labels, 16);
        assert!(acc > 0.5, "exported IBP model accuracy {acc}");
    }
}
