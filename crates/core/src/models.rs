//! Built-in perturbation models.
//!
//! This is the "default set of perturbation models" the paper ships: a
//! uniform random value, single bit flips (FP32 and INT8-quantized), zero,
//! stuck-at, and a gain model, plus [`Custom`] for user closures.

use crate::perturbation::{PerturbCtx, PerturbationModel};
use rustfi_quant::int8;
use rustfi_tensor::{bits, qkernels};
use std::sync::Arc;

/// How a bit-flip model chooses its bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitSelect {
    /// Always the same bit.
    Fixed(u32),
    /// A uniformly random bit per perturbation.
    Random,
}

/// Replace the value with a uniform sample in `[lo, hi)` — the paper's
/// default model (`[-1, 1]`).
#[derive(Debug, Clone, Copy)]
pub struct RandomUniform {
    lo: f32,
    hi: f32,
}

impl RandomUniform {
    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty or non-finite.
    pub fn new(lo: f32, hi: f32) -> Self {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "bad interval [{lo}, {hi})"
        );
        Self { lo, hi }
    }
}

impl Default for RandomUniform {
    /// The paper's default: uniform in `[-1, 1)`.
    fn default() -> Self {
        Self::new(-1.0, 1.0)
    }
}

impl PerturbationModel for RandomUniform {
    fn name(&self) -> &str {
        "random-uniform"
    }
    fn perturb(&self, _original: f32, ctx: &mut PerturbCtx<'_>) -> f32 {
        ctx.rng.uniform(self.lo, self.hi)
    }
}

/// Replace the value with zero (a common masking/ablation model).
#[derive(Debug, Clone, Copy, Default)]
pub struct Zero;

impl PerturbationModel for Zero {
    fn name(&self) -> &str {
        "zero"
    }
    fn perturb(&self, _original: f32, _ctx: &mut PerturbCtx<'_>) -> f32 {
        0.0
    }
}

/// Replace the value with a constant (stuck-at fault).
#[derive(Debug, Clone, Copy)]
pub struct StuckAt {
    value: f32,
}

impl StuckAt {
    /// Stuck at `value`.
    pub fn new(value: f32) -> Self {
        Self { value }
    }
}

impl PerturbationModel for StuckAt {
    fn name(&self) -> &str {
        "stuck-at"
    }
    fn perturb(&self, _original: f32, _ctx: &mut PerturbCtx<'_>) -> f32 {
        self.value
    }
}

/// Multiply the value by a constant gain.
#[derive(Debug, Clone, Copy)]
pub struct Gain {
    factor: f32,
}

impl Gain {
    /// Multiplies by `factor`.
    pub fn new(factor: f32) -> Self {
        Self { factor }
    }
}

impl PerturbationModel for Gain {
    fn name(&self) -> &str {
        "gain"
    }
    fn perturb(&self, original: f32, _ctx: &mut PerturbCtx<'_>) -> f32 {
        original * self.factor
    }
}

/// Flip one bit of the FP32 IEEE-754 representation.
#[derive(Debug, Clone, Copy)]
pub struct BitFlipFp32 {
    bit: BitSelect,
}

impl BitFlipFp32 {
    /// Flips the selected bit.
    ///
    /// # Panics
    ///
    /// Panics if a fixed bit index is ≥ 32.
    pub fn new(bit: BitSelect) -> Self {
        if let BitSelect::Fixed(b) = bit {
            assert!(b < 32, "f32 bit index {b} out of range");
        }
        Self { bit }
    }
}

impl PerturbationModel for BitFlipFp32 {
    fn name(&self) -> &str {
        "bitflip-fp32"
    }
    fn perturb(&self, original: f32, ctx: &mut PerturbCtx<'_>) -> f32 {
        let bit = match self.bit {
            BitSelect::Fixed(b) => b,
            BitSelect::Random => ctx.rng.below(32) as u32,
        };
        bits::flip_bit_f32(original, bit)
    }
}

/// Flip one bit of the INT8-quantized representation of the value — the
/// model behind the paper's Fig. 4 study. Uses the stored-word scale when the
/// injector runs a real INT8 path, else the dynamic per-tensor scale from
/// the context (`max|tensor| / 127`); on the real path the flip lands
/// directly in the stored `i8` word via [`PerturbationModel::perturb_i8`].
#[derive(Debug, Clone, Copy)]
pub struct BitFlipInt8 {
    bit: BitSelect,
}

impl BitFlipInt8 {
    /// Flips the selected bit of the quantized byte.
    ///
    /// # Panics
    ///
    /// Panics if a fixed bit index is ≥ 8.
    pub fn new(bit: BitSelect) -> Self {
        if let BitSelect::Fixed(b) = bit {
            assert!(b < 8, "int8 bit index {b} out of range");
        }
        Self { bit }
    }
}

impl PerturbationModel for BitFlipInt8 {
    fn name(&self) -> &str {
        "bitflip-int8"
    }
    fn perturb(&self, original: f32, ctx: &mut PerturbCtx<'_>) -> f32 {
        let bit = match self.bit {
            BitSelect::Fixed(b) => b,
            BitSelect::Random => ctx.rng.below(8) as u32,
        };
        int8::flip_bit_in_quantized(original, ctx.int8_scale(), bit)
    }
    fn perturb_i8(&self, stored: i8, ctx: &mut PerturbCtx<'_>) -> Option<i8> {
        let bit = match self.bit {
            BitSelect::Fixed(b) => b,
            BitSelect::Random => ctx.rng.below(8) as u32,
        };
        Some(int8::flip_bit_i8(stored, bit))
    }
}

/// Flip `count` *distinct* random bits of the INT8-quantized representation
/// — the "multiple-bit flips" mapping of lower-level faults (paper §III-D).
#[derive(Debug, Clone, Copy)]
pub struct MultiBitFlipInt8 {
    count: u32,
}

impl MultiBitFlipInt8 {
    /// Flips `count` distinct bits per perturbation.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= count <= 8`.
    pub fn new(count: u32) -> Self {
        assert!(
            (1..=8).contains(&count),
            "int8 multi-bit count {count} out of range"
        );
        Self { count }
    }
}

impl PerturbationModel for MultiBitFlipInt8 {
    fn name(&self) -> &str {
        "multi-bitflip-int8"
    }
    fn perturb(&self, original: f32, ctx: &mut PerturbCtx<'_>) -> f32 {
        let scale = ctx.int8_scale();
        let q = qkernels::quantize_one(original, scale);
        qkernels::dequantize_one(self.flip_word(q, ctx), scale)
    }
    fn perturb_i8(&self, stored: i8, ctx: &mut PerturbCtx<'_>) -> Option<i8> {
        Some(self.flip_word(stored, ctx))
    }
}

impl MultiBitFlipInt8 {
    /// Flips `count` distinct bits of `q`, drawing bit indices from the
    /// context RNG in the same sequence for both perturb entry points.
    fn flip_word(&self, mut q: i8, ctx: &mut PerturbCtx<'_>) -> i8 {
        let mut flipped = 0u8;
        while flipped.count_ones() < self.count {
            flipped |= 1u8 << ctx.rng.below(8);
        }
        for bit in 0..8 {
            if flipped & (1 << bit) != 0 {
                q = int8::flip_bit_i8(q, bit);
            }
        }
        q
    }
}

/// Replace the value with a uniformly random *FP32 bit pattern* (rejecting
/// NaN/Inf so outcomes stay classifiable) — the "uniformly chosen random
/// FP32 value" model of the paper's object-detection study (§IV-B). Unlike
/// [`RandomUniform`], magnitudes span the full float range, so egregious
/// corruptions (1e30-scale activations) occur regularly.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomFp32Bits;

impl PerturbationModel for RandomFp32Bits {
    fn name(&self) -> &str {
        "random-fp32-bits"
    }
    fn perturb(&self, _original: f32, ctx: &mut PerturbCtx<'_>) -> f32 {
        loop {
            let bits = (ctx.rng.below(1 << 16) as u32) << 16 | ctx.rng.below(1 << 16) as u32;
            let v = f32::from_bits(bits);
            if v.is_finite() {
                return v;
            }
        }
    }
}

type CustomFn = dyn Fn(f32, &mut PerturbCtx<'_>) -> f32 + Send + Sync;

/// A user-supplied perturbation closure.
///
/// # Example
///
/// ```
/// use rustfi::models::Custom;
///
/// // A "saturate to +10" error model in one line.
/// let model = Custom::new("saturate", |old, _ctx| old.max(10.0));
/// ```
pub struct Custom {
    name: String,
    f: Arc<CustomFn>,
}

impl Custom {
    /// Wraps a closure as a perturbation model.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(f32, &mut PerturbCtx<'_>) -> f32 + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            f: Arc::new(f),
        }
    }
}

impl PerturbationModel for Custom {
    fn name(&self) -> &str {
        &self.name
    }
    fn perturb(&self, original: f32, ctx: &mut PerturbCtx<'_>) -> f32 {
        (self.f)(original, ctx)
    }
}

impl std::fmt::Debug for Custom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Custom").field("name", &self.name).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustfi_tensor::SeededRng;

    fn ctx(rng: &mut SeededRng) -> PerturbCtx<'_> {
        PerturbCtx {
            layer: 0,
            batch: 0,
            channel: 0,
            tensor_max_abs: 12.7,
            quant_scale: None,
            rng,
        }
    }

    #[test]
    fn random_uniform_respects_range() {
        let m = RandomUniform::new(-1.0, 1.0);
        let mut rng = SeededRng::new(1);
        for _ in 0..100 {
            let v = m.perturb(99.0, &mut ctx(&mut rng));
            assert!((-1.0..1.0).contains(&v));
        }
    }

    #[test]
    fn zero_and_stuck_at() {
        let mut rng = SeededRng::new(2);
        assert_eq!(Zero.perturb(5.0, &mut ctx(&mut rng)), 0.0);
        assert_eq!(StuckAt::new(7.5).perturb(5.0, &mut ctx(&mut rng)), 7.5);
        assert_eq!(Gain::new(-2.0).perturb(5.0, &mut ctx(&mut rng)), -10.0);
    }

    #[test]
    fn fp32_fixed_sign_bit_negates() {
        let m = BitFlipFp32::new(BitSelect::Fixed(31));
        let mut rng = SeededRng::new(3);
        assert_eq!(m.perturb(2.0, &mut ctx(&mut rng)), -2.0);
    }

    #[test]
    fn fp32_random_bit_changes_representation() {
        let m = BitFlipFp32::new(BitSelect::Random);
        let mut rng = SeededRng::new(4);
        for _ in 0..50 {
            let v = m.perturb(1.5, &mut ctx(&mut rng));
            assert_ne!(v.to_bits(), 1.5f32.to_bits());
        }
    }

    #[test]
    fn int8_flip_uses_tensor_scale() {
        // tensor_max_abs = 12.7 -> scale = 0.1. Flipping bit 0 of q(1.0)=10
        // gives 11 -> 1.1.
        let m = BitFlipInt8::new(BitSelect::Fixed(0));
        let mut rng = SeededRng::new(5);
        let v = m.perturb(1.0, &mut ctx(&mut rng));
        assert!((v - 1.1).abs() < 1e-5, "got {v}");
    }

    #[test]
    fn int8_flip_is_bounded_by_quantized_range() {
        let m = BitFlipInt8::new(BitSelect::Random);
        let mut rng = SeededRng::new(6);
        for _ in 0..200 {
            let v = m.perturb(3.0, &mut ctx(&mut rng));
            // Any flipped INT8 value dequantizes within ±128 * scale (1 LSB
            // beyond the clamp range, since flips can produce -128).
            assert!(v.abs() <= 12.8 + 1e-5, "got {v}");
        }
    }

    #[test]
    fn multi_bit_flip_flips_exactly_k_bits() {
        let mut rng = SeededRng::new(11);
        for count in 1..=8u32 {
            let m = MultiBitFlipInt8::new(count);
            for _ in 0..50 {
                let mut c = ctx(&mut rng);
                let scale = qkernels::scale_for_max_abs(c.tensor_max_abs);
                let original = 1.0f32;
                let q_before = qkernels::quantize_one(original, scale);
                let v = m.perturb(original, &mut c);
                let q_after = qkernels::quantize_one(v, scale);
                // Quantizing the output may clamp at ±127 (e.g. a flip to
                // -128 reads back as -127), so compare via dequantized
                // distance only when unclamped.
                if (-127..=127).contains(&(q_after as i32))
                    && v == qkernels::dequantize_one(q_after, scale)
                {
                    let diff = (q_before as u8) ^ (q_after as u8);
                    assert_eq!(
                        diff.count_ones(),
                        count,
                        "count {count}: {q_before} -> {q_after}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn multi_bit_rejects_zero() {
        MultiBitFlipInt8::new(0);
    }

    #[test]
    fn random_fp32_bits_is_finite_and_wild() {
        let m = RandomFp32Bits;
        let mut rng = SeededRng::new(9);
        let mut big = 0;
        for _ in 0..500 {
            let v = m.perturb(1.0, &mut ctx(&mut rng));
            assert!(v.is_finite());
            if v.abs() > 1e10 {
                big += 1;
            }
        }
        assert!(
            big > 50,
            "random bit patterns regularly produce huge values: {big}"
        );
    }

    #[test]
    fn custom_closure_runs() {
        let m = Custom::new("double", |old, _| old * 2.0);
        let mut rng = SeededRng::new(7);
        assert_eq!(m.perturb(4.0, &mut ctx(&mut rng)), 8.0);
        assert_eq!(m.name(), "double");
        assert!(format!("{m:?}").contains("double"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int8_rejects_fixed_bit_8() {
        BitFlipInt8::new(BitSelect::Fixed(8));
    }

    #[test]
    fn quant_scale_overrides_dynamic_tensor_scale() {
        // With quant_scale = 0.5 the dynamic 12.7/127 = 0.1 scale must be
        // ignored: q(1.0, 0.5) = 2, flip bit 0 -> 3 -> 1.5.
        let m = BitFlipInt8::new(BitSelect::Fixed(0));
        let mut rng = SeededRng::new(12);
        let mut c = ctx(&mut rng);
        c.quant_scale = Some(0.5);
        let v = m.perturb(1.0, &mut c);
        assert!((v - 1.5).abs() < 1e-6, "got {v}");
    }

    #[test]
    fn perturb_i8_matches_perturb_rng_sequence() {
        // For the same starting RNG state, perturb and perturb_i8 must make
        // identical draws so campaign records are representation-independent.
        for seed in 0..20u64 {
            for model in [
                &BitFlipInt8::new(BitSelect::Random) as &dyn PerturbationModel,
                &MultiBitFlipInt8::new(3),
            ] {
                let scale = 0.1f32;
                let stored = qkernels::quantize_one(2.3, scale);
                let mut rng_a = SeededRng::new(seed);
                let mut ca = ctx(&mut rng_a);
                ca.quant_scale = Some(scale);
                let via_f32 = model.perturb(qkernels::dequantize_one(stored, scale), &mut ca);
                let mut rng_b = SeededRng::new(seed);
                let mut cb = ctx(&mut rng_b);
                cb.quant_scale = Some(scale);
                let via_word = model.perturb_i8(stored, &mut cb).expect("int8 form");
                assert_eq!(
                    qkernels::quantize_one(via_f32, scale),
                    via_word,
                    "seed {seed} model {}",
                    model.name()
                );
                assert_eq!(rng_a.below(1 << 30), rng_b.below(1 << 30), "draw parity");
            }
        }
    }

    #[test]
    fn default_perturb_i8_is_none() {
        let mut rng = SeededRng::new(13);
        assert_eq!(Zero.perturb_i8(5, &mut ctx(&mut rng)), None);
        assert_eq!(StuckAt::new(1.0).perturb_i8(5, &mut ctx(&mut rng)), None);
    }

    #[test]
    fn names_are_stable() {
        let mut rng = SeededRng::new(8);
        let _ = &mut rng;
        assert_eq!(RandomUniform::default().name(), "random-uniform");
        assert_eq!(Zero.name(), "zero");
        assert_eq!(BitFlipFp32::new(BitSelect::Random).name(), "bitflip-fp32");
        assert_eq!(BitFlipInt8::new(BitSelect::Random).name(), "bitflip-int8");
    }
}
