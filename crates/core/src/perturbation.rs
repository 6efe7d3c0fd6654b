//! The perturbation-model abstraction.
//!
//! The paper's key generalization is abstracting a hardware "error" into a
//! "perturbation": a function from the original value (plus context) to a
//! corrupted value. Built-in models live in [`crate::models`]; users plug in
//! their own by implementing [`PerturbationModel`] (a closure wrapper,
//! [`crate::models::Custom`], covers most cases).

use rustfi_tensor::SeededRng;

/// Context handed to a perturbation model for one corrupted value.
#[derive(Debug)]
pub struct PerturbCtx<'a> {
    /// Index of the injectable layer being perturbed.
    pub layer: usize,
    /// Batch element being perturbed.
    pub batch: usize,
    /// Feature map (channel) of the value.
    pub channel: usize,
    /// Largest absolute value in the tensor being perturbed; used by
    /// quantized fault models to derive the INT8 scale dynamically.
    pub tensor_max_abs: f32,
    /// The INT8 scale of the stored word being perturbed, when the injector
    /// runs a quantized path (real INT8 inference, or values the injector
    /// has already snapped to the INT8 grid). `None` on the plain f32 path;
    /// quantized models then derive a dynamic scale from
    /// [`Self::tensor_max_abs`].
    pub quant_scale: Option<f32>,
    /// Deterministic RNG stream for perturbation-time randomness.
    pub rng: &'a mut SeededRng,
}

impl PerturbCtx<'_> {
    /// The INT8 scale a quantized model should use: the stored-word scale
    /// when one is in effect, else the dynamic per-tensor scale
    /// `max|tensor| / 127`.
    pub fn int8_scale(&self) -> f32 {
        self.quant_scale
            .unwrap_or_else(|| rustfi_tensor::qkernels::scale_for_max_abs(self.tensor_max_abs))
    }
}

/// A perturbation model: maps an original value to a corrupted one.
///
/// Implementations must be deterministic given the `PerturbCtx` RNG state so
/// campaigns stay reproducible.
pub trait PerturbationModel: Send + Sync {
    /// Short, stable name for reports (e.g. `"bitflip-int8"`).
    fn name(&self) -> &str;

    /// Produces the corrupted value.
    fn perturb(&self, original: f32, ctx: &mut PerturbCtx<'_>) -> f32;

    /// Perturbs a *stored* INT8 word directly, for injectors running a real
    /// quantized inference path. Returns `None` (the default) when the model
    /// has no integer-domain form; the injector then falls back to
    /// dequantize → [`Self::perturb`] → requantize.
    ///
    /// Implementations **must** draw from `ctx.rng` in exactly the same
    /// sequence as their [`Self::perturb`] would for the same site, so that a
    /// campaign's records are independent of which representation the
    /// injector happens to hold the value in.
    fn perturb_i8(&self, _stored: i8, _ctx: &mut PerturbCtx<'_>) -> Option<i8> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    struct Negate;
    impl PerturbationModel for Negate {
        fn name(&self) -> &str {
            "negate"
        }
        fn perturb(&self, original: f32, _ctx: &mut PerturbCtx<'_>) -> f32 {
            -original
        }
    }

    #[test]
    fn trait_objects_work() {
        let model: Arc<dyn PerturbationModel> = Arc::new(Negate);
        let mut rng = SeededRng::new(1);
        let mut ctx = PerturbCtx {
            layer: 0,
            batch: 0,
            channel: 0,
            tensor_max_abs: 1.0,
            quant_scale: None,
            rng: &mut rng,
        };
        assert_eq!(model.perturb(2.5, &mut ctx), -2.5);
        assert_eq!(model.name(), "negate");
    }
}
