//! Integration tests for the paper's five use cases (§IV), each exercised
//! through the public APIs end-to-end.

use rustfi::{models, BatchSelect, FaultInjector, FiConfig, NeuronFault, NeuronSelect};
use rustfi_data::{DetectionSpec, SynthSpec};
use rustfi_detect::{diff_detections, DetectorConfig, TrainDetectorConfig, YoloLite};
use rustfi_interpret::{gradcam, heatmap_divergence, rank_feature_maps};
use rustfi_nn::train::{accuracy, fit, predict, TrainConfig};
use rustfi_nn::{zoo, LayerKind, ZooConfig};
use rustfi_robust::ibp::{IbpNet, IbpSpec, IbpTrainConfig};
use rustfi_robust::TrainingInjector;
use std::sync::Arc;

/// Use case §IV-B: perturbing a trained detector creates phantom objects.
#[test]
fn detection_perturbation_creates_phantoms() {
    let scenes = DetectionSpec::coco_like().generate(20);
    let cfg = DetectorConfig::default();
    let mut det = YoloLite::new(&cfg);
    det.train(
        &scenes,
        &TrainDetectorConfig {
            epochs: 50,
            ..TrainDetectorConfig::default()
        },
    );

    // Clean detections on a held-out-ish scene (train scene is fine: we
    // compare clean vs faulty on the SAME scene).
    let scene = &scenes[1];
    let clean = det.detect(&scene.image, 0.4);
    let clean_diff = diff_detections(&clean, &scene.objects, 0.3);

    let mut fi = FaultInjector::new(det.into_net(), FiConfig::for_input(&[1, 3, 32, 32])).unwrap();
    let faults: Vec<NeuronFault> = (0..fi.profile().len())
        .map(|layer| NeuronFault {
            select: NeuronSelect::RandomInLayer { layer },
            batch: BatchSelect::All,
            model: Arc::new(models::RandomFp32Bits),
        })
        .collect();

    // Across several trials, injections must produce at least one phantom
    // or missing object (the paper's qualitative Fig. 5 finding).
    let mut disturbed = 0;
    for trial in 0..10 {
        fi.restore();
        fi.reseed(trial);
        fi.declare_neuron_fi(&faults).unwrap();
        let raw = fi.forward(&scene.image);
        let dets: Vec<_> = rustfi_detect::decode_grid(&raw, 0, cfg.num_classes)
            .into_iter()
            .filter(|d| d.score >= 0.4)
            .collect();
        let dets = rustfi_detect::nms(dets, 0.4);
        let diff = diff_detections(&dets, &scene.objects, 0.3);
        if diff.phantom > clean_diff.phantom
            || diff.missed > clean_diff.missed
            || diff.misclassified > clean_diff.misclassified
        {
            disturbed += 1;
        }
    }
    assert!(
        disturbed >= 3,
        "per-layer FP32 injections should disturb detections in several trials: {disturbed}/10"
    );
}

/// Use case §IV-C: IBP training reduces per-layer vulnerability.
#[test]
fn ibp_model_exports_and_classifies() {
    let mut spec = SynthSpec::cifar10_like().with_budget(20, 8);
    spec.noise = 0.6;
    let data = spec.generate();
    let mut ibp = IbpNet::alexnet_like(&IbpSpec::tiny(10));
    ibp.train(
        &data.train_images,
        &data.train_labels,
        &IbpTrainConfig::default(),
    );
    let mut net = ibp.into_network();
    let acc = accuracy(&mut net, &data.test_images, &data.test_labels, 16);
    assert!(acc > 0.6, "IBP-trained model accuracy {acc}");

    // The exported network is injectable like any other.
    let mut fi = FaultInjector::new(net, FiConfig::for_input(&[1, 3, 16, 16])).unwrap();
    assert!(fi.profile().len() >= 7, "five convs + two fcs");
    fi.declare_neuron_fi(&[NeuronFault {
        select: NeuronSelect::RandomInLayer { layer: 0 },
        batch: BatchSelect::All,
        model: Arc::new(models::BitFlipInt8::new(models::BitSelect::Random)),
    }])
    .unwrap();
    let out = fi.forward(&data.test_images.select_batch(0));
    assert!(!out.has_non_finite());
}

/// Use case §IV-D: training with injections yields a comparable model.
#[test]
fn fi_training_produces_comparable_model_from_same_init() {
    let mut spec = SynthSpec::cifar10_like().with_budget(16, 8);
    spec.noise = 0.6;
    let data = spec.generate();
    let cfg = TrainConfig {
        epochs: 8,
        lr: 0.02,
        batch_size: 8,
        ..TrainConfig::default()
    };

    let mut baseline = zoo::resnet18(&ZooConfig::cifar10_like());
    let base = fit(&mut baseline, &data.train_images, &data.train_labels, &cfg);
    let base_acc = accuracy(&mut baseline, &data.test_images, &data.test_labels, 16);

    let mut fi_net = zoo::resnet18(&ZooConfig::cifar10_like());
    let inj = TrainingInjector::install_hidden(&fi_net, -1.0, 1.0, 5);
    let fi_rep = fit(&mut fi_net, &data.train_images, &data.train_labels, &cfg);
    let fired = inj.injections();
    inj.remove();
    let fi_acc = accuracy(&mut fi_net, &data.test_images, &data.test_labels, 16);

    assert_eq!(base.steps, fi_rep.steps, "identical training schedule");
    assert!(fired > 0, "injections fired during training");
    assert!(base_acc > 0.7, "baseline learned: {base_acc}");
    assert!(
        (base_acc - fi_acc).abs() < 0.25,
        "FI training is accuracy-comparable: {base_acc} vs {fi_acc}"
    );
}

/// Use case §IV-E: sensitivity-ranked injections and heatmap response.
#[test]
fn gradcam_sensitivity_separates_feature_maps() {
    let mut spec = SynthSpec::cifar10_like().with_budget(16, 8);
    spec.noise = 0.6;
    let data = spec.generate();
    let mut net = zoo::lenet(&ZooConfig::cifar10_like());
    fit(
        &mut net,
        &data.train_images,
        &data.train_labels,
        &TrainConfig {
            epochs: 10,
            lr: 0.02,
            ..TrainConfig::default()
        },
    );
    let preds = predict(&mut net, &data.test_images, 16);
    let idx = preds
        .iter()
        .zip(&data.test_labels)
        .position(|(p, l)| p == l)
        .expect("a correct image exists");
    let image = data.test_images.select_batch(idx);
    let label = data.test_labels[idx];

    let conv = net
        .layer_infos()
        .iter()
        .filter(|l| l.kind == LayerKind::Conv2d)
        .map(|l| l.id)
        .nth(1)
        .unwrap();
    let clean = gradcam(&mut net, &image, label, conv);
    assert_eq!(clean.top1, label);
    let ranking = rank_feature_maps(&clean.channel_weights);
    assert!(ranking[0].1 >= ranking.last().unwrap().1);

    // Inject an egregious value into most- vs least-sensitive maps and
    // compare heatmap disturbance.
    let mut fi = FaultInjector::new(net, FiConfig::for_input(&[1, 3, 16, 16])).unwrap();
    let layer_index = fi
        .profile()
        .layers()
        .iter()
        .position(|l| l.id == conv)
        .unwrap();
    // A single random site per channel makes this comparison noisy; average
    // over several seeded sites so the ranking reflects the channel, not one
    // lucky coordinate.
    let site_samples = 5;
    let mut divergences = Vec::new();
    for (channel, _) in [*ranking.last().unwrap(), ranking[0]] {
        let mut total = 0.0;
        for sample in 0..site_samples {
            fi.restore();
            fi.reseed(0xCA11 + sample);
            fi.declare_neuron_fi(&[NeuronFault {
                select: NeuronSelect::RandomInChannel {
                    layer: layer_index,
                    channel,
                },
                batch: BatchSelect::All,
                model: Arc::new(models::StuckAt::new(10_000.0)),
            }])
            .unwrap();
            let cam = gradcam(fi.net_mut(), &image, label, conv);
            total += heatmap_divergence(&clean.heatmap, &cam.heatmap);
        }
        divergences.push(total / site_samples as f32);
    }
    // The most-sensitive-map injection disturbs the heatmap at least as
    // much as the least-sensitive one (usually far more).
    assert!(
        divergences[1] >= divergences[0],
        "most-sensitive divergence {} < least-sensitive {}",
        divergences[1],
        divergences[0]
    );
}
