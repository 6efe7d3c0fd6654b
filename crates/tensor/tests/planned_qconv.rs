//! Property: the compiled-plan INT8 convolution (implicit GEMM over a
//! channels-last input plane, fused dequantize/batch-norm/activation
//! epilogue) reproduces the unplanned chain — `conv2d_q`, then the
//! standalone batch-norm and activation kernels — bit for bit.

use proptest::prelude::*;
use rustfi_tensor::kernels::{bn_fmap, leaky_relu_mask, relu_mask};
use rustfi_tensor::{
    conv2d_q, conv2d_q_planned, Act, BnFoldView, ConvSpec, PackedConvI16, QTensor, SeededRng,
    Tensor,
};

/// Per-channel folded batch-norm constants, `inv_std` computed with the
/// layer's own expression.
struct Fold {
    mean: Vec<f32>,
    inv_std: Vec<f32>,
    gamma: Vec<f32>,
    beta: Vec<f32>,
}

impl Fold {
    fn sample(oc: usize, rng: &mut SeededRng) -> Self {
        let mut draw = |lo: f32, span: f32| -> Vec<f32> {
            (0..oc)
                .map(|_| lo + span * rng.below(1000) as f32 / 1000.0)
                .collect()
        };
        let mean = draw(-0.5, 1.0);
        let var = draw(0.1, 2.0);
        let gamma = draw(-1.5, 3.0);
        let beta = draw(-0.5, 1.0);
        let inv_std = var.iter().map(|&v| 1.0 / (v + 1e-5f32).sqrt()).collect();
        Self {
            mean,
            inv_std,
            gamma,
            beta,
        }
    }

    fn view(&self) -> BnFoldView<'_> {
        BnFoldView {
            mean: &self.mean,
            inv_std: &self.inv_std,
            gamma: &self.gamma,
            beta: &self.beta,
        }
    }
}

/// `conv2d_q` followed by the standalone per-channel batch-norm and
/// activation kernels — the unfused layer chain.
fn serial_chain(
    x: &Tensor,
    qw: &QTensor,
    b: &Tensor,
    spec: &ConvSpec,
    scale: f32,
    bn: Option<&Fold>,
    act: Act,
) -> Tensor {
    let mut y = conv2d_q(x, qw, b, spec, scale);
    let (n, oc, oh, ow) = y.dims4();
    let hw = oh * ow;
    let mut tmp = vec![0.0f32; hw];
    let mut mask = vec![0.0f32; hw];
    for s in 0..n {
        for c in 0..oc {
            let fm = &mut y.data_mut()[(s * oc + c) * hw..][..hw];
            if let Some(f) = bn {
                let src = fm.to_vec();
                bn_fmap(
                    &src,
                    f.mean[c],
                    f.inv_std[c],
                    f.gamma[c],
                    f.beta[c],
                    &mut tmp,
                    fm,
                );
            }
            match act {
                Act::None => {}
                Act::Relu => {
                    relu_mask(fm, &mut tmp, &mut mask);
                    fm.copy_from_slice(&tmp);
                }
                Act::LeakyRelu(slope) => {
                    leaky_relu_mask(fm, slope, &mut tmp, &mut mask);
                    fm.copy_from_slice(&tmp);
                }
            }
        }
    }
    y
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn planned_int8_conv_matches_conv2d_q_bit_for_bit(
        seed in any::<u64>(),
        kernel in 0usize..3,
        stride in 1usize..3,
        padding in 0usize..3,
        groups_idx in 0usize..3,
        cg in 1usize..8,
        og in 1usize..40,
        batch in 1usize..4,
        hw in 5usize..10,
        variant in 0usize..6,
    ) {
        let k = [1usize, 3, 5][kernel];
        let groups = [1usize, 2, 4][groups_idx];
        let (c, oc) = (cg * groups, og * groups);
        let mut rng = SeededRng::new(seed);
        let spec = ConvSpec::new().stride(stride).padding(padding).groups(groups);

        // Inputs carry ±∞, NaN and out-of-range values, which quantize to
        // ±127 and 0.
        let mut x = Tensor::rand_normal(&[batch, c, hw, hw], 0.0, 1.0, &mut rng);
        for v in x.data_mut() {
            match rng.below(24) {
                0 => *v = f32::INFINITY,
                1 => *v = f32::NEG_INFINITY,
                2 => *v = f32::NAN,
                3 => *v *= 1.0e6,
                _ => {}
            }
        }
        let w = Tensor::rand_normal(&[oc, cg, k, k], 0.0, 0.5, &mut rng);
        let b = Tensor::rand_normal(&[oc], 0.0, 0.1, &mut rng);
        let mut qw = QTensor::quantize_per_channel(&w);
        // A faulted stored word can reach -128, outside the quantizer's range.
        let flip = rng.below(qw.len());
        qw.data_mut()[flip] = i8::MIN;
        let scale = 0.01 + rng.below(100) as f32 * 0.001;

        let fold = Fold::sample(oc, &mut rng);
        let bn = (variant >= 3).then_some(&fold);
        let act = [Act::None, Act::Relu, Act::LeakyRelu(0.1)][variant % 3];

        let panel = PackedConvI16::pack(qw.data(), [oc, cg, k, k], groups);
        let planned =
            conv2d_q_planned(&x, &qw, &panel, &b, &spec, scale, bn.map(Fold::view), act);
        let serial = serial_chain(&x, &qw, &b, &spec, scale, bn, act);
        prop_assert_eq!(planned.dims(), serial.dims());
        for (i, (p, s)) in planned.data().iter().zip(serial.data()).enumerate() {
            prop_assert_eq!(
                p.to_bits(),
                s.to_bits(),
                "element {} of {:?}: planned {} vs serial {} \
                 (k{} s{} p{} g{} cg{} og{} n{} hw{} variant {})",
                i, serial.dims(), p, s, k, stride, padding, groups, cg, og, batch, hw, variant
            );
        }
    }
}
