//! Symmetric INT8 quantization and INT8 bit-flip fault models.
//!
//! The scheme is symmetric per-tensor quantization with the zero point fixed
//! at 0 and the representable range `[-127, 127]` (the value `-128` is left
//! unused, as common INT8 inference kernels do):
//!
//! ```text
//! scale = max|x| / 127        q = clamp(round(x / scale), -127, 127)
//! ```
//!
//! The rounding rule itself — half-away-from-zero ties, NaN→0, ±∞
//! saturation — lives in **one place**, [`rustfi_tensor::qkernels`]
//! (`scale_for_max_abs`, `quantize_one`, `dequantize_one`): this module's
//! f32-simulation helpers and the real stored-`i8` path
//! ([`rustfi_tensor::QTensor`], the quantized conv/linear kernels) both
//! call it, so the simulated and real INT8 paths produce
//! bit-identical quantized words by construction. The SIMD slice variants
//! ([`quantize_slice`], [`dequantize_slice`], [`requantize_slice`]) are
//! re-exported here for callers that work on whole buffers.

use rustfi_tensor::qkernels;
use rustfi_tensor::Tensor;

// The whole-slice kernels backing the scalar helpers below; re-exported so
// quant users get the slice API alongside the scalar one.
pub use rustfi_tensor::qkernels::{dequantize_slice, quantize_slice, requantize_slice};

/// Largest representable quantized magnitude.
pub const QMAX: i32 = 127;

/// Number of bits in the INT8 representation.
pub const INT8_BITS: u32 = 8;

/// Scale for quantizing a slice of values (dynamic range over the slice).
///
/// Non-finite elements (possible under upstream fault injection) are ignored
/// when determining the range; an all-non-finite slice falls back to the
/// minimum scale. Campaigns apply this per batch sample, so one fused
/// trial's fault cannot rescale the quantization grid of its siblings.
pub fn slice_scale(values: &[f32]) -> f32 {
    qkernels::scale_for_max_abs(qkernels::slice_max_abs_finite(values))
}

/// Scale for quantizing all values of a tensor (per-tensor dynamic range).
pub fn tensor_scale(t: &Tensor) -> f32 {
    slice_scale(t.data())
}

/// Rounds a value through the INT8 grid ("fake quantization"): the result is
/// an FP32 value representable in INT8 under `scale`.
pub fn fake_quantize(x: f32, scale: f32) -> f32 {
    qkernels::dequantize_one(qkernels::quantize_one(x, scale), scale)
}

/// Fake-quantizes every element of a tensor with its own dynamic per-tensor
/// scale; returns the quantized tensor and the scale used.
///
/// This is how the stack emulates "INT8 neuron-quantization" (paper §IV-A):
/// activations are snapped to the INT8 grid after each injectable layer.
pub fn fake_quantize_tensor(t: &Tensor) -> (Tensor, f32) {
    let scale = tensor_scale(t);
    (t.map(|x| fake_quantize(x, scale)), scale)
}

/// Flips bit `bit` (0 = LSB, 7 = sign bit of the two's-complement byte) of
/// an INT8 value.
///
/// # Panics
///
/// Panics if `bit >= 8`.
pub fn flip_bit_i8(q: i8, bit: u32) -> i8 {
    assert!(bit < INT8_BITS, "int8 bit index {bit} out of range");
    (q as u8 ^ (1u8 << bit)) as i8
}

/// Models a hardware bit flip in a quantized neuron, observed at FP32 level:
/// quantize `x`, flip one stored bit, dequantize.
///
/// # Panics
///
/// Panics if `bit >= 8` or `scale` is not positive.
pub fn flip_bit_in_quantized(x: f32, scale: f32, bit: u32) -> f32 {
    qkernels::dequantize_one(flip_bit_i8(qkernels::quantize_one(x, scale), bit), scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustfi_tensor::SeededRng;

    #[test]
    fn quantize_roundtrip_error_below_half_step() {
        let scale = qkernels::scale_for_max_abs(10.0);
        for &x in &[0.0f32, 1.0, -3.7, 9.99, -10.0] {
            let err = (fake_quantize(x, scale) - x).abs();
            assert!(err <= scale / 2.0 + 1e-6, "x={x}, err={err}");
        }
    }

    #[test]
    fn quantize_clamps_out_of_range() {
        let scale = qkernels::scale_for_max_abs(1.0);
        assert_eq!(qkernels::quantize_one(100.0, scale), 127);
        assert_eq!(qkernels::quantize_one(-100.0, scale), -127);
    }

    #[test]
    fn zero_maps_to_zero() {
        let scale = qkernels::scale_for_max_abs(5.0);
        assert_eq!(qkernels::quantize_one(0.0, scale), 0);
        assert_eq!(qkernels::dequantize_one(0, scale), 0.0);
    }

    #[test]
    fn all_zero_tensor_has_tiny_scale_but_no_nan() {
        let t = Tensor::zeros(&[8]);
        let (q, scale) = fake_quantize_tensor(&t);
        assert!(scale > 0.0);
        assert!(!q.has_non_finite());
        assert!(q.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn tensor_scale_uses_max_abs() {
        let t = Tensor::from_vec(vec![1.0, -6.35, 2.0], &[3]);
        assert!((tensor_scale(&t) - 6.35 / 127.0).abs() < 1e-7);
    }

    #[test]
    fn fake_quantize_tensor_is_idempotent() {
        let mut rng = SeededRng::new(1);
        let t = Tensor::rand_normal(&[64], 0.0, 2.0, &mut rng);
        let (q1, s1) = fake_quantize_tensor(&t);
        let (q2, s2) = fake_quantize_tensor(&q1);
        // The max element is exactly representable, so the scale is stable
        // and a second pass changes nothing (up to float rounding).
        assert!((s1 - s2).abs() < 1e-9);
        for (a, b) in q1.data().iter().zip(q2.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn bit_flip_is_involutive() {
        for q in [-127i8, -1, 0, 1, 42, 127] {
            for bit in 0..8 {
                assert_eq!(flip_bit_i8(flip_bit_i8(q, bit), bit), q);
            }
        }
    }

    #[test]
    fn sign_bit_flip_changes_sign_region() {
        // Two's complement: flipping bit 7 of a small positive value makes it
        // very negative.
        let q = flip_bit_i8(5, 7);
        assert!(q < -100, "got {q}");
    }

    #[test]
    fn high_bit_flip_moves_value_by_half_range() {
        let scale = qkernels::scale_for_max_abs(127.0); // scale = 1
        let before = 10.0;
        let after = flip_bit_in_quantized(before, scale, 6);
        assert!((after - before).abs() >= 63.9, "bit 6 is worth 64 steps");
    }

    #[test]
    fn lsb_flip_is_one_step() {
        let scale = qkernels::scale_for_max_abs(127.0);
        let after = flip_bit_in_quantized(10.0, scale, 0);
        assert!(((after - 10.0).abs() - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bit_8() {
        flip_bit_i8(0, 8);
    }

    #[test]
    #[should_panic(expected = "invalid max_abs")]
    fn rejects_nan_max() {
        qkernels::scale_for_max_abs(f32::NAN);
    }

    #[test]
    fn infinite_range_saturates() {
        let scale = qkernels::scale_for_max_abs(f32::INFINITY);
        assert!(scale.is_finite() && scale > 0.0);
        assert_eq!(qkernels::quantize_one(f32::INFINITY, scale), 127);
        assert_eq!(qkernels::quantize_one(f32::NEG_INFINITY, scale), -127);
        assert_eq!(qkernels::quantize_one(f32::NAN, scale), 0);
    }

    #[test]
    fn slice_scale_matches_tensor_scale_per_sample() {
        // Two batch samples with different ranges: quantizing each against
        // its own slice scale must match quantizing each as its own tensor.
        let a = vec![1.0f32, -2.0, 0.5];
        let b = vec![100.0f32, -50.0, 25.0];
        let sa = slice_scale(&a);
        let sb = slice_scale(&b);
        assert_eq!(sa, tensor_scale(&Tensor::from_vec(a, &[1, 3])));
        assert_eq!(sb, tensor_scale(&Tensor::from_vec(b, &[1, 3])));
        assert!(sb > sa, "wider range, coarser grid");
    }

    #[test]
    fn tensor_scale_ignores_non_finite_elements() {
        let t = Tensor::from_vec(vec![1.0, f32::INFINITY, -3.0, f32::NAN], &[4]);
        let scale = tensor_scale(&t);
        assert!(
            (scale - 3.0 / 127.0).abs() < 1e-7,
            "range from finite values only"
        );
        // Fake-quantizing the faulty tensor stays finite.
        let q = t.map(|x| fake_quantize(x, scale));
        assert!(!q.has_non_finite());
    }
}
