//! Fast Gradient Sign Method (FGSM) adversarial examples and robust-accuracy
//! evaluation.
//!
//! §IV-C studies models "robust to adversarial attacks"; FGSM is the
//! standard one-step attack used to sanity-check such training. An
//! IBP-trained network (see [`crate::ibp`]) should retain markedly more
//! accuracy under FGSM at its training radius than an undefended baseline —
//! which is also how the tests validate that our IBP objective really
//! produces robustness rather than just regularization.

use rustfi_nn::loss::cross_entropy;
use rustfi_nn::Network;
use rustfi_tensor::Tensor;

/// Crafts an FGSM adversarial example: `x' = x + ε · sign(∇ₓ L(x, y))`.
///
/// The returned tensor has the same shape as `image` (batch 1).
///
/// # Panics
///
/// Panics if `image` is not batch-1 or `label` is out of range.
pub fn fgsm(net: &mut Network, image: &Tensor, label: usize, eps: f32) -> Tensor {
    assert_eq!(image.dims()[0], 1, "fgsm expects a single image");
    assert!(eps >= 0.0, "negative epsilon");
    let was_training = net.is_training();
    net.set_training(false);
    let logits = net.forward(image);
    let (_, classes) = logits.dims2();
    assert!(
        label < classes,
        "label {label} out of range for {classes} classes"
    );
    let (_, grad_logits) = cross_entropy(&logits, &[label]);
    let grad_input = net.backward(&grad_logits);
    net.set_training(was_training);
    image.zip_map(&grad_input, |x, g| x + eps * g.signum())
}

/// Accuracy of `net` on FGSM-perturbed versions of `(images, labels)` at
/// radius `eps` (`eps = 0` reduces to clean accuracy).
///
/// # Panics
///
/// Panics if lengths disagree or the set is empty.
pub fn fgsm_accuracy(net: &mut Network, images: &Tensor, labels: &[usize], eps: f32) -> f32 {
    let n = images.dims()[0];
    assert_eq!(n, labels.len(), "{n} images, {} labels", labels.len());
    assert!(n > 0, "empty evaluation set");
    let mut correct = 0;
    for (i, &label) in labels.iter().enumerate() {
        let x = images.select_batch(i);
        let adv = fgsm(net, &x, label, eps);
        let out = net.forward(&adv);
        if rustfi::metrics::top1(out.data()) == label {
            correct += 1;
        }
    }
    correct as f32 / n as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ibp::{IbpNet, IbpSpec, IbpTrainConfig};
    use rustfi_data::SynthSpec;
    use rustfi_nn::train::accuracy;

    fn data() -> rustfi_data::ClassificationDataset {
        let mut spec = SynthSpec::cifar10_like().with_budget(20, 8);
        spec.noise = 0.5;
        spec.generate()
    }

    #[test]
    fn fgsm_moves_pixels_by_exactly_eps() {
        let data = data();
        let mut net = IbpNet::alexnet_like(&IbpSpec::tiny(10)).into_network();
        let x = data.test_images.select_batch(0);
        let adv = fgsm(&mut net, &x, data.test_labels[0], 0.1);
        for (a, b) in adv.data().iter().zip(x.data()) {
            let d = (a - b).abs();
            // sign() of a zero gradient contributes 0; otherwise exactly eps.
            assert!(d < 1e-6 || (d - 0.1).abs() < 1e-5, "delta {d}");
        }
    }

    #[test]
    fn zero_eps_is_identity() {
        let data = data();
        let mut net = IbpNet::alexnet_like(&IbpSpec::tiny(10)).into_network();
        let x = data.test_images.select_batch(1);
        let adv = fgsm(&mut net, &x, data.test_labels[1], 0.0);
        assert_eq!(adv, x);
    }

    #[test]
    fn attack_reduces_accuracy_of_trained_model() {
        let data = data();
        let mut ibp = IbpNet::alexnet_like(&IbpSpec::tiny(10));
        // Nominal-only training (no robustness).
        ibp.train(
            &data.train_images,
            &data.train_labels,
            &IbpTrainConfig {
                alpha_max: 0.0,
                eps_max: 0.0,
                epochs: 20,
                ..IbpTrainConfig::default()
            },
        );
        let mut net = ibp.into_network();
        let clean = accuracy(&mut net, &data.test_images, &data.test_labels, 16);
        let attacked = fgsm_accuracy(&mut net, &data.test_images, &data.test_labels, 0.15);
        assert!(clean > 0.85, "clean accuracy {clean}");
        assert!(
            attacked < clean - 0.1,
            "FGSM at eps 0.15 should bite: clean {clean}, attacked {attacked}"
        );
    }

    #[test]
    fn ibp_training_improves_certified_accuracy() {
        // The property IBP optimizes directly: at the training radius, the
        // worst-case (certified) accuracy of the defended model must beat
        // the undefended one. (One-step FGSM robustness at this scale is
        // too noisy to separate the models reliably; certification is not.)
        let data = data();
        let radius = 0.02; // certify inside the trained radius
        let train = |alpha: f32, eps: f32| {
            let mut ibp = IbpNet::alexnet_like(&IbpSpec::tiny(10));
            ibp.train(
                &data.train_images,
                &data.train_labels,
                &IbpTrainConfig {
                    alpha_max: alpha,
                    eps_max: eps,
                    epochs: 24,
                    ..IbpTrainConfig::default()
                },
            );
            ibp.certified_accuracy(&data.test_images, &data.test_labels, radius)
        };
        let undefended = train(0.0, 0.0);
        let defended = train(0.05, 0.05);
        assert!(
            defended > undefended + 0.05,
            "IBP should improve certified accuracy at its radius: {defended} vs {undefended}"
        );
    }
}
