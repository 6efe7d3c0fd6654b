//! 2-D convolution layer.

use crate::module::{meta_accessors, BackwardCtx, ForwardCtx, LayerKind, LayerMeta, Module, Param};
use rustfi_tensor::{
    conv2d, conv2d_backward, conv2d_planned, conv2d_q, conv2d_q_planned, Act, BnFoldView, ConvSpec,
    PackedConvF32, PackedConvI16, QTensor, SeededRng, Tensor,
};

/// A 2-D convolution with learned weights and bias.
///
/// Weights are Kaiming-normal initialized (`std = sqrt(2 / fan_in)`), biases
/// start at zero. Forward hooks see its output — convolution outputs are the
/// "neurons" that fault injection targets.
pub struct Conv2d {
    pub(crate) meta: LayerMeta,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    spec: ConvSpec,
    cached_input: Option<Tensor>,
    /// Per-channel quantized weight cache for the INT8 backend; dropped
    /// whenever the f32 weights are handed out mutably.
    qweight: Option<QTensor>,
    /// Compiled-plan f32 weight panel (all groups), laid out for the
    /// implicit-GEMM conv. A pure function of `weight`: when the weights are
    /// handed out mutably the panel is marked stale and repacked *in place*
    /// on the next planned forward — a weight-fault trial repacks only this
    /// layer and its undo restores the blessed panel bytes exactly, with no
    /// allocation.
    packed: Option<PackedConvF32>,
    packed_stale: bool,
    /// Compiled-plan pre-widened `i16` panel derived from `qweight`, laid
    /// out for the implicit-GEMM INT8 kernel. Stale whenever `qweight` is
    /// rebuilt; a stored-word write ([`Module::set_qweight_word`]) patches
    /// its one slot instead.
    wide: Option<PackedConvI16>,
    wide_stale: bool,
}

impl Conv2d {
    /// Creates a convolution: `in_ch -> out_ch` with a square `kernel`.
    ///
    /// # Panics
    ///
    /// Panics if `in_ch` or `out_ch` is not divisible by `spec.groups`.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        spec: ConvSpec,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(
            spec.groups > 0
                && in_ch.is_multiple_of(spec.groups)
                && out_ch.is_multiple_of(spec.groups),
            "conv channels ({in_ch} -> {out_ch}) must be divisible by groups {}",
            spec.groups
        );
        let cg = in_ch / spec.groups;
        let fan_in = (cg * kernel * kernel) as f32;
        let std = (2.0 / fan_in).sqrt();
        let weight = Tensor::rand_normal(&[out_ch, cg, kernel, kernel], 0.0, std, rng);
        let bias = Tensor::zeros(&[out_ch]);
        Self {
            meta: LayerMeta::default(),
            grad_weight: Tensor::zeros(weight.dims()),
            grad_bias: Tensor::zeros(bias.dims()),
            weight,
            bias,
            spec,
            cached_input: None,
            qweight: None,
            packed: None,
            packed_stale: false,
            wide: None,
            wide_stale: false,
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// The weight tensor (`[out_ch, in_ch/groups, k, k]`).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Builds or refreshes the f32 panel. First build allocates (campaign
    /// setup); stale refreshes repack in place.
    fn ensure_packed(&mut self) {
        match &mut self.packed {
            Some(panel) if self.packed_stale => panel.repack(self.weight.data()),
            Some(_) => {}
            None => {
                let &[oc, cg, kh, kw] = self.weight.dims() else {
                    unreachable!("conv weights are rank 4");
                };
                self.packed = Some(PackedConvF32::pack(
                    self.weight.data(),
                    [oc, cg, kh, kw],
                    self.spec.groups,
                ));
            }
        }
        self.packed_stale = false;
    }

    /// Builds or refreshes the pre-widened INT8 panel from `qweight`
    /// (quantizing the weights first if needed).
    fn ensure_wide(&mut self) {
        let qw = self
            .qweight
            .get_or_insert_with(|| QTensor::quantize_per_channel(&self.weight));
        match &mut self.wide {
            Some(panel) if self.wide_stale => panel.repack(qw.data()),
            Some(_) => {}
            None => {
                let &[oc, cg, kh, kw] = qw.dims() else {
                    unreachable!("conv qweights are rank 4");
                };
                self.wide = Some(PackedConvI16::pack(
                    qw.data(),
                    [oc, cg, kh, kw],
                    self.spec.groups,
                ));
            }
        }
        self.wide_stale = false;
    }

    /// Planned forward shared by the plain and fused paths: prepacked
    /// panel, partner epilogue in the kernel's tile store, no activation cache
    /// (plans are inference-only; `backward` after a planned forward
    /// panics).
    fn forward_planned(
        &mut self,
        input: &Tensor,
        ctx: &mut ForwardCtx<'_>,
        bn: Option<BnFoldView<'_>>,
        act: Act,
    ) -> Tensor {
        self.cached_input = None;
        match ctx.input_scale(self.meta.id) {
            Some(scale) => {
                self.ensure_wide();
                let qw = self.qweight.as_ref().expect("ensure_wide builds qweight");
                let panel = self.wide.as_ref().expect("ensure_wide builds the panel");
                conv2d_q_planned(input, qw, panel, &self.bias, &self.spec, scale, bn, act)
            }
            None => {
                self.ensure_packed();
                let panel = self
                    .packed
                    .as_ref()
                    .expect("ensure_packed builds the panel");
                conv2d_planned(input, panel, &self.bias, &self.spec, bn, act)
            }
        }
    }
}

impl Module for Conv2d {
    meta_accessors!();

    fn kind(&self) -> LayerKind {
        LayerKind::Conv2d
    }

    fn infer_dims(&self, input: &[usize]) -> Result<Vec<usize>, crate::shape::ShapeError> {
        let label = || crate::shape::layer_label(&self.meta, LayerKind::Conv2d);
        let &[n, c, h, w] = input else {
            return Err(crate::shape::ShapeError::WrongRank {
                layer: label(),
                expected: 4,
                got: input.to_vec(),
            });
        };
        let &[out_ch, cg, kh, _kw] = self.weight.dims() else {
            unreachable!("conv weights are rank 4");
        };
        let in_ch = cg * self.spec.groups;
        if c != in_ch {
            return Err(crate::shape::ShapeError::ChannelMismatch {
                layer: label(),
                expected: in_ch,
                got: c,
            });
        }
        let oh = self.spec.checked_out_size(h, kh).ok_or_else(|| {
            crate::shape::ShapeError::KernelTooLarge {
                layer: label(),
                kernel: kh,
                input: h,
            }
        })?;
        let ow = self.spec.checked_out_size(w, kh).ok_or_else(|| {
            crate::shape::ShapeError::KernelTooLarge {
                layer: label(),
                kernel: kh,
                input: w,
            }
        })?;
        Ok(vec![n, out_ch, oh, ow])
    }

    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx<'_>) -> Tensor {
        if ctx.plan_active() {
            return self.forward_planned(input, ctx, None, Act::None);
        }
        rustfi_tensor::tpool::reuse_slot(&mut self.cached_input, input.dims())
            .data_mut()
            .copy_from_slice(input.data());
        match ctx.input_scale(self.meta.id) {
            Some(scale) => {
                let qw = self
                    .qweight
                    .get_or_insert_with(|| QTensor::quantize_per_channel(&self.weight));
                conv2d_q(input, qw, &self.bias, &self.spec, scale)
            }
            None => conv2d(input, &self.weight, &self.bias, &self.spec),
        }
    }

    fn forward_fused(
        &mut self,
        input: &Tensor,
        ctx: &mut ForwardCtx<'_>,
        bn: Option<BnFoldView<'_>>,
        act: Act,
    ) -> Option<Tensor> {
        if !ctx.plan_active() {
            return None;
        }
        Some(self.forward_planned(input, ctx, bn, act))
    }

    fn backward(&mut self, grad_out: &Tensor, _ctx: &mut BackwardCtx<'_>) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Conv2d::backward called before forward");
        let grads = conv2d_backward(input, &self.weight, grad_out, &self.spec);
        self.grad_weight.add_assign(&grads.weight);
        self.grad_bias.add_assign(&grads.bias);
        grads.input
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(Param<'_>)) {
        self.qweight = None;
        self.packed_stale = true;
        self.wide_stale = true;
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
        self.packed_stale = true;
        self.wide_stale = true;
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn weight_mut(&mut self) -> Option<&mut Tensor> {
        self.qweight = None;
        self.packed_stale = true;
        self.wide_stale = true;
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
        if let Some(panel) = self.wide.as_mut().filter(|_| !self.wide_stale) {
            panel.set_word(index, word);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::HookRegistry;
    use crate::module::Network;

    #[test]
    fn forward_shape_and_determinism() {
        let mut rng = SeededRng::new(2);
        let conv = Conv2d::new(3, 8, 3, ConvSpec::new().padding(1).stride(2), &mut rng);
        let mut net = Network::new(Box::new(conv));
        let x = Tensor::ones(&[2, 3, 8, 8]);
        let y = net.forward(&x);
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
        assert_eq!(net.forward(&x), y, "inference is deterministic");
    }

    #[test]
    fn kaiming_init_scale() {
        let mut rng = SeededRng::new(3);
        let conv = Conv2d::new(16, 16, 3, ConvSpec::new(), &mut rng);
        let std_expect = (2.0f32 / (16.0 * 9.0)).sqrt();
        let w = conv.weight();
        let mean = w.mean();
        let var = w.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / w.len() as f32;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - std_expect).abs() < 0.02 * std_expect + 0.01);
    }

    #[test]
    fn hooks_see_conv_output() {
        let mut rng = SeededRng::new(4);
        let mut net = Network::new(Box::new(Conv2d::new(1, 1, 1, ConvSpec::new(), &mut rng)));
        let id = net.layer_infos()[0].id;
        net.hooks().register_forward(id, |ctx, out| {
            assert_eq!(ctx.kind, LayerKind::Conv2d);
            out.map_inplace(|_| 7.0);
        });
        let y = net.forward(&Tensor::ones(&[1, 1, 2, 2]));
        assert!(y.data().iter().all(|&v| v == 7.0));
    }

    #[test]
    fn backward_accumulates_until_zeroed() {
        let mut rng = SeededRng::new(5);
        let mut net = Network::new(Box::new(Conv2d::new(1, 1, 3, ConvSpec::new(), &mut rng)));
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = net.forward(&x);
        net.backward(&Tensor::ones(y.dims()));
        let mut g1 = Vec::new();
        net.for_each_param(&mut |p| g1.extend_from_slice(p.grad.data()));
        net.forward(&x);
        net.backward(&Tensor::ones(y.dims()));
        let mut g2 = Vec::new();
        net.for_each_param(&mut |p| g2.extend_from_slice(p.grad.data()));
        for (a, b) in g1.iter().zip(&g2) {
            assert!((b - 2.0 * a).abs() < 1e-5, "second backward doubles grads");
        }
    }

    #[test]
    fn stored_word_writes_patch_one_panel_slot_and_undo_restores_a_fresh_pack() {
        use crate::quantized::{Backend, CalibrationTable};
        use std::sync::Arc;
        let spec = ConvSpec::new().padding(1).stride(2);
        // 4 and 8 output channels (two k-pairs per panel vector), and 32
        // (two 16-channel blocks).
        for oc in [4usize, 8, 32] {
            let dims = [oc, 6, 3, 3];
            let fresh = |w: &[i8]| PackedConvI16::pack(w, dims, spec.groups);

            // Panel bytes: a write then its undo, at first/middle/last words.
            let mut conv = Conv2d::new(6, oc, 3, spec, &mut SeededRng::new(7));
            conv.ensure_wide();
            let words = conv.qweight().unwrap().data().to_vec();
            for index in [0usize, 29, words.len() / 2 + 1, words.len() - 1] {
                let flipped = (words[index] as u8 ^ 0x40) as i8;
                assert!(conv.set_qweight_word(index, flipped));
                let mut faulted = words.clone();
                faulted[index] = flipped;
                assert_eq!(
                    conv.wide.as_ref(),
                    Some(&fresh(&faulted)),
                    "oc {oc}: fault @{index}"
                );
                assert!(conv.set_qweight_word(index, words[index]));
                assert_eq!(
                    conv.wide.as_ref(),
                    Some(&fresh(&words)),
                    "oc {oc}: undo @{index}"
                );
            }

            // Forwards: a fault written into a live panel computes what a
            // layer whose panel was first packed from the faulted words
            // computes.
            let x = Tensor::from_fn(&[2, 6, 7, 7], |i| (i as f32 * 0.37).sin());
            let planned_int8 = || {
                let conv = Conv2d::new(6, oc, 3, spec, &mut SeededRng::new(7));
                let mut net = Network::new(Box::new(conv));
                let table = CalibrationTable::calibrate(&mut net, std::slice::from_ref(&x));
                net.set_backend(Backend::Int8(Arc::new(table)));
                net.set_plan(true);
                net
            };
            let index = words.len() - 29;
            let flipped = (words[index] as u8 ^ 0x40) as i8;
            let mut live = planned_int8();
            let id = live.injectable_layers()[0];
            let blessed = live.forward(&x);
            assert!(live.set_layer_qweight_word(id, index, flipped));
            let faulty = live.forward(&x);
            assert_ne!(
                faulty, blessed,
                "oc {oc}: the write reaches the planned kernel"
            );
            let mut packed_faulty = planned_int8();
            assert!(packed_faulty.set_layer_qweight_word(id, index, flipped));
            assert_eq!(packed_faulty.forward(&x), faulty, "oc {oc}");
            assert!(live.set_layer_qweight_word(id, index, words[index]));
            assert_eq!(
                live.forward(&x),
                blessed,
                "oc {oc}: undo restores the blessed pass"
            );
        }
    }

    #[test]
    #[should_panic(expected = "called before forward")]
    fn backward_without_forward_panics() {
        let mut rng = SeededRng::new(6);
        let mut conv = Conv2d::new(1, 1, 1, ConvSpec::new(), &mut rng);
        let reg = HookRegistry::new();
        let mut ctx = BackwardCtx::new(&reg);
        conv.backward(&Tensor::ones(&[1, 1, 1, 1]), &mut ctx);
    }
}
