//! INT8 inference backend: calibration and backend selection.
//!
//! The quantized path mirrors how deployed INT8 inference engines work:
//! weights are quantized per output channel once (and cached on the layer),
//! while activations are quantized against a **static** per-layer input scale
//! measured by a one-pass dynamic-range calibration over representative
//! inputs. The static scale is what makes quantized forwards batch-composable
//! — a sample's quantized words do not depend on which batch it rides in —
//! which is the invariant fused fault-injection campaigns rely on.
//!
//! Usage:
//!
//! ```
//! use rustfi_nn::{zoo, Backend, CalibrationTable, ZooConfig};
//! use rustfi_tensor::Tensor;
//! use std::sync::Arc;
//!
//! let mut net = zoo::lenet(&ZooConfig::tiny(4));
//! let images = [Tensor::from_fn(&[2, 3, 16, 16], |i| (i as f32 * 0.021).sin())];
//! let table = CalibrationTable::calibrate(&mut net, &images);
//! net.set_backend(Backend::Int8(Arc::new(table)));
//! let y = net.forward(&images[0]);
//! assert_eq!(y.dims(), &[2, 4]);
//! ```

use crate::module::{LayerId, Network};
use rustfi_tensor::qkernels;
use rustfi_tensor::Tensor;
use std::sync::Arc;

/// Which arithmetic the network's injectable layers (conv/linear) use.
///
/// Installed on a [`Network`] via [`Network::set_backend`]; layers that have
/// no quantized kernel, and injectable layers absent from the calibration
/// table, always run the f32 path.
#[derive(Clone, Debug, Default)]
pub enum Backend {
    /// Plain f32 inference (the default).
    #[default]
    Fp32,
    /// Real INT8 inference: per-channel quantized weights, activations
    /// quantized against the table's static per-layer input scales, integer
    /// GEMM accumulation.
    Int8(Arc<CalibrationTable>),
}

impl Backend {
    /// The calibrated input scale for layer `id`, if this backend quantizes
    /// that layer.
    pub fn input_scale(&self, id: LayerId) -> Option<f32> {
        match self {
            Backend::Fp32 => None,
            Backend::Int8(table) => table.input_scale(id),
        }
    }

    /// Whether this is the INT8 backend.
    pub fn is_int8(&self) -> bool {
        matches!(self, Backend::Int8(_))
    }
}

/// Static per-layer input scales from a dynamic-range profiling pass.
///
/// Indexed by [`LayerId`]; only injectable layers (conv/linear) carry a
/// scale. Built once per model+dataset by [`CalibrationTable::calibrate`] and
/// shared across campaign workers behind an [`Arc`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CalibrationTable {
    /// Per-layer input scale by `LayerId::index()`; `0.0` = uncalibrated.
    scales: Vec<f32>,
}

impl CalibrationTable {
    /// One profiling pass: runs every image through `net` in f32 (the
    /// network's current backend is saved and restored), records the max
    /// finite absolute value ever seen at each injectable layer's *input*,
    /// and converts each range to a symmetric INT8 scale.
    ///
    /// Calibrate with the network in inference mode on the same inputs the
    /// campaign will use — the scales are static afterwards, so out-of-range
    /// activations at run time saturate exactly like hardware would.
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty.
    pub fn calibrate(net: &mut Network, images: &[Tensor]) -> Self {
        assert!(!images.is_empty(), "calibration needs at least one image");
        let prev = net.backend().clone();
        net.set_backend(Backend::Fp32);
        let injectable: Vec<bool> = {
            let mut v = vec![false; net.module_count()];
            for info in net.layer_infos() {
                v[info.id.index()] = info.kind.is_injectable();
            }
            v
        };
        let mut max_abs = vec![0.0f32; injectable.len()];
        for image in images {
            net.forward_with_capture(image, &mut |id, input| {
                let i = id.index();
                if injectable.get(i).copied().unwrap_or(false) {
                    let m = qkernels::slice_max_abs_finite(input.data());
                    if m > max_abs[i] {
                        max_abs[i] = m;
                    }
                }
            });
        }
        net.set_backend(prev);
        let scales = injectable
            .iter()
            .zip(&max_abs)
            .map(|(&inj, &m)| {
                if inj {
                    qkernels::scale_for_max_abs(m)
                } else {
                    0.0
                }
            })
            .collect();
        Self { scales }
    }

    /// The calibrated input scale for layer `id`, or `None` if the layer was
    /// not calibrated (not injectable, or out of range).
    pub fn input_scale(&self, id: LayerId) -> Option<f32> {
        let s = *self.scales.get(id.index())?;
        (s > 0.0).then_some(s)
    }

    /// Number of layers carrying a calibrated scale.
    pub fn calibrated_layers(&self) -> usize {
        self.scales.iter().filter(|&&s| s > 0.0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::LayerKind;
    use crate::zoo::{self, ZooConfig};
    use rustfi_tensor::Tensor;

    fn test_net() -> Network {
        zoo::lenet(&ZooConfig::tiny(4))
    }

    fn test_images() -> Vec<Tensor> {
        vec![
            Tensor::from_fn(&[2, 3, 16, 16], |i| (i as f32 * 0.023).cos()),
            Tensor::from_fn(&[1, 3, 16, 16], |i| (i as f32 * 0.017).sin() * 1.5),
        ]
    }

    #[test]
    fn calibrate_covers_exactly_the_injectable_layers() {
        let mut net = test_net();
        let table = CalibrationTable::calibrate(&mut net, &test_images());
        let inj = net.injectable_layers();
        assert_eq!(table.calibrated_layers(), inj.len());
        for info in net.layer_infos() {
            let has = table.input_scale(info.id).is_some();
            assert_eq!(
                has,
                info.kind.is_injectable(),
                "layer {} ({})",
                info.id,
                info.kind
            );
            if let Some(s) = table.input_scale(info.id) {
                assert!(s.is_finite() && s > 0.0);
            }
        }
        assert_eq!(table.input_scale(LayerId::from_index(999)), None);
    }

    #[test]
    fn int8_backend_approximates_f32_and_is_deterministic() {
        let mut net = test_net();
        let images = test_images();
        let f32_out = net.forward(&images[0]);
        let table = CalibrationTable::calibrate(&mut net, &images);
        net.set_backend(Backend::Int8(Arc::new(table)));
        assert!(net.backend().is_int8());
        let q_out = net.forward(&images[0]);
        assert_eq!(q_out.dims(), f32_out.dims());
        assert_eq!(net.forward(&images[0]), q_out, "int8 inference determinism");
        assert_ne!(q_out, f32_out, "quantization must actually engage");
        let num: f32 = q_out
            .data()
            .iter()
            .zip(f32_out.data())
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        let den: f32 = f32_out.data().iter().map(|x| x * x).sum();
        let rel = (num / den.max(1e-12)).sqrt();
        assert!(rel < 0.15, "relative L2 error {rel} too large");
    }

    #[test]
    fn calibration_is_batch_invariant() {
        // A max-abs is order-free and inference layers are pointwise in the
        // batch, so one stacked batch, the single images and a 3 + 1 split
        // give the same table, planned or not.
        let singles: Vec<Tensor> = (0..4)
            .map(|s| {
                Tensor::from_fn(&[1, 3, 16, 16], |i| {
                    ((i + 97 * s) as f32 * 0.021).sin() * (1.0 + s as f32)
                })
            })
            .collect();
        let stack = |imgs: &[Tensor]| {
            let data = imgs.iter().flat_map(|t| t.data().iter().copied()).collect();
            Tensor::from_vec(data, &[imgs.len(), 3, 16, 16])
        };
        for build in [zoo::lenet, zoo::mobilenet] {
            for plan in [false, true] {
                let mut net = build(&ZooConfig::tiny(4));
                net.set_plan(plan);
                let one_by_one = CalibrationTable::calibrate(&mut net, &singles);
                let batched = CalibrationTable::calibrate(&mut net, &[stack(&singles)]);
                let split = CalibrationTable::calibrate(
                    &mut net,
                    &[stack(&singles[..3]), singles[3].clone()],
                );
                assert!(one_by_one.calibrated_layers() > 0);
                assert_eq!(batched, one_by_one, "plan {plan}: one batch");
                assert_eq!(split, one_by_one, "plan {plan}: 3 + 1");
            }
        }
    }

    #[test]
    fn calibrate_restores_the_installed_backend() {
        let mut net = test_net();
        let images = test_images();
        let table = CalibrationTable::calibrate(&mut net, &images);
        net.set_backend(Backend::Int8(Arc::new(table)));
        let _again = CalibrationTable::calibrate(&mut net, &images);
        assert!(
            net.backend().is_int8(),
            "calibrate must restore the backend"
        );
    }

    #[test]
    fn weight_mutation_invalidates_the_qweight_cache() {
        let mut net = test_net();
        let images = test_images();
        let table = CalibrationTable::calibrate(&mut net, &images);
        net.set_backend(Backend::Int8(Arc::new(table)));
        let conv = net.injectable_layers()[0];
        let before = net.forward(&images[0]);
        net.layer_weight_mut(conv).unwrap().data_mut()[0] += 10.0;
        let after = net.forward(&images[0]);
        assert_ne!(before, after, "stale qweight cache served after mutation");
    }

    #[test]
    fn stored_weight_word_flip_perturbs_int8_but_not_f32() {
        let mut net = test_net();
        let images = test_images();
        let f32_out = net.forward(&images[0]);
        let table = CalibrationTable::calibrate(&mut net, &images);
        net.set_backend(Backend::Int8(Arc::new(table)));
        let conv = net.injectable_layers()[0];
        let clean = net.forward(&images[0]);

        // Flip a high bit of one stored weight word.
        let original = net.layer_qweight(conv).expect("conv has qweight").data()[0];
        assert!(net.set_layer_qweight_word(conv, 0, (original as u8 ^ (1u8 << 6)) as i8));
        let faulty = net.forward(&images[0]);
        assert_ne!(faulty, clean, "stored-word flip must perturb int8 output");

        // The f32 weights are untouched: switching back reproduces f32 exactly.
        net.set_backend(Backend::Fp32);
        assert_eq!(net.forward(&images[0]), f32_out);

        // Restoring the word restores the int8 output bit-exactly.
        let table2 = CalibrationTable::calibrate(&mut net, &images);
        net.set_backend(Backend::Int8(Arc::new(table2)));
        assert!(net.set_layer_qweight_word(conv, 0, original));
        assert_eq!(net.forward(&images[0]), clean);
    }

    #[test]
    fn hooks_fire_on_the_quantized_forward() {
        let mut net = test_net();
        let images = test_images();
        let table = CalibrationTable::calibrate(&mut net, &images);
        net.set_backend(Backend::Int8(Arc::new(table)));
        let conv = net.injectable_layers()[0];
        net.hooks().register_forward(conv, |ctx, out| {
            assert_eq!(ctx.kind, LayerKind::Conv2d);
            out.data_mut()[0] = 1234.5;
        });
        let before = net.forward(&images[0]);
        assert_eq!(before.dims()[0], 2, "forward still runs");
    }

    #[test]
    fn uncalibrated_layers_fall_back_to_f32() {
        let mut net = test_net();
        let images = test_images();
        let f32_out = net.forward(&images[0]);
        // An empty table quantizes nothing: int8 backend == f32 output.
        net.set_backend(Backend::Int8(Arc::new(CalibrationTable::default())));
        assert_eq!(net.forward(&images[0]), f32_out);
    }
}
