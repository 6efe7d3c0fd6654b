//! End-to-end integration tests spanning the whole stack: synthetic data →
//! training → fault injection → outcome metrics.

use rustfi::{
    models, BatchSelect, Campaign, CampaignConfig, FaultInjector, FaultMode, FiConfig, NeuronFault,
    NeuronSelect, OutcomeKind, WeightFault, WeightSelect,
};
use rustfi_data::SynthSpec;
use rustfi_nn::train::{accuracy, fit, TrainConfig};
use rustfi_nn::{checkpoint, zoo, Network, ZooConfig};
use std::sync::Arc;

fn small_dataset() -> rustfi_data::ClassificationDataset {
    let mut spec = SynthSpec::cifar10_like().with_budget(12, 6);
    spec.noise = 0.6;
    spec.generate()
}

fn trained_lenet(data: &rustfi_data::ClassificationDataset) -> Network {
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
    net
}

#[test]
fn train_inject_measure_pipeline() {
    let data = small_dataset();
    let mut net = trained_lenet(&data);
    let acc = accuracy(&mut net, &data.test_images, &data.test_labels, 16);
    assert!(acc > 0.8, "trained model accuracy {acc}");

    // Zero-value injections in the logits layer must change some outcomes.
    let mut fi = FaultInjector::new(net, FiConfig::for_input(&[1, 3, 16, 16])).unwrap();
    let last = fi.profile().len() - 1;
    let mut outcomes = Vec::new();
    for i in 0..data.test_len() {
        fi.restore();
        fi.reseed(i as u64);
        fi.declare_neuron_fi(&[NeuronFault {
            select: NeuronSelect::RandomInLayer { layer: last },
            batch: BatchSelect::All,
            model: Arc::new(models::StuckAt::new(1e4)),
        }])
        .unwrap();
        let x = data.test_images.select_batch(i);
        let out = fi.forward(&x);
        outcomes.push(rustfi::classify_outcome(data.test_labels[i], out.data()));
    }
    let sdc = outcomes.iter().filter(|o| **o == OutcomeKind::Sdc).count();
    assert!(
        sdc > data.test_len() / 2,
        "a stuck-at-1e4 logit should usually win Top-1: {sdc}/{}",
        data.test_len()
    );
}

#[test]
fn campaign_over_trained_model_with_checkpoint_factory() {
    let data = small_dataset();
    let mut net = trained_lenet(&data);
    let ckpt = std::env::temp_dir().join(format!("rustfi-it-{}.ckpt", std::process::id()));
    checkpoint::save(&mut net, &ckpt).unwrap();
    let path = ckpt.clone();
    let factory = move || {
        let mut n = zoo::lenet(&ZooConfig::cifar10_like());
        checkpoint::load(&mut n, &path).unwrap();
        n
    };

    let campaign = Campaign::new(
        &factory,
        &data.test_images,
        &data.test_labels,
        FaultMode::Neuron(NeuronSelect::Random),
        Arc::new(models::BitFlipInt8::new(models::BitSelect::Random)),
    );
    let result = campaign
        .run(&CampaignConfig {
            trials: 300,
            seed: 3,
            threads: Some(3),
            quant: rustfi::QuantMode::Simulated,
            ..CampaignConfig::default()
        })
        .unwrap();
    assert_eq!(result.counts.total(), 300);
    assert!(result.eligible_images > data.test_len() / 2);
    // Single INT8 bit flips are mostly masked (the paper's headline).
    assert!(
        result.counts.masked > 250,
        "bit flips should be mostly masked: {:?}",
        result.counts
    );
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn bigger_perturbations_cause_more_corruption() {
    let data = small_dataset();
    let mut net = trained_lenet(&data);
    let ckpt = std::env::temp_dir().join(format!("rustfi-it2-{}.ckpt", std::process::id()));
    checkpoint::save(&mut net, &ckpt).unwrap();
    let path = ckpt.clone();
    let factory = move || {
        let mut n = zoo::lenet(&ZooConfig::cifar10_like());
        checkpoint::load(&mut n, &path).unwrap();
        n
    };

    let run = |model: Arc<dyn rustfi::PerturbationModel>| {
        Campaign::new(
            &factory,
            &data.test_images,
            &data.test_labels,
            FaultMode::Neuron(NeuronSelect::Random),
            model,
        )
        .run(&CampaignConfig {
            trials: 250,
            seed: 9,
            ..CampaignConfig::default()
        })
        .unwrap()
        .counts
    };
    let small = run(Arc::new(models::RandomUniform::new(-0.01, 0.01)));
    let huge = run(Arc::new(models::StuckAt::new(1e8)));
    assert!(
        huge.sdc + huge.due > small.sdc + small.due,
        "1e8 stuck-at ({huge:?}) should corrupt more than ±0.01 noise ({small:?})"
    );
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn crashy_campaign_completes_isolates_and_resumes() {
    let data = small_dataset();
    let mut net = trained_lenet(&data);
    let ckpt = std::env::temp_dir().join(format!("rustfi-it3-{}.ckpt", std::process::id()));
    checkpoint::save(&mut net, &ckpt).unwrap();
    let path = ckpt.clone();
    let factory = move || {
        let mut n = zoo::lenet(&ZooConfig::cifar10_like());
        checkpoint::load(&mut n, &path).unwrap();
        n
    };

    // A perturbation model that panics on a seeded ~15% of trials.
    let campaign = Campaign::new(
        &factory,
        &data.test_images,
        &data.test_labels,
        FaultMode::Neuron(NeuronSelect::Random),
        Arc::new(models::Custom::new("crashy", |old, ctx| {
            if ctx.rng.chance(0.15) {
                panic!("simulated perturbation bug");
            }
            old * -8.0
        })),
    );
    let cfg = CampaignConfig {
        trials: 60,
        seed: 21,
        threads: Some(2),
        ..CampaignConfig::default()
    };
    let result = campaign.run(&cfg).unwrap();
    assert_eq!(result.counts.total(), 60, "every trial completes");
    assert!(
        result.counts.crash > 0,
        "some trials crash: {:?}",
        result.counts
    );
    // Crash isolation keeps determinism across thread counts.
    let single = campaign
        .run(&CampaignConfig {
            threads: Some(1),
            ..cfg.clone()
        })
        .unwrap();
    assert_eq!(result, single);

    // Journal, kill after a prefix, resume: bit-identical result.
    let journal = std::env::temp_dir().join(format!("rustfi-it3-{}.jsonl", std::process::id()));
    std::fs::remove_file(&journal).ok();
    let journaled = campaign.run_journaled(&cfg, &journal).unwrap();
    assert_eq!(journaled, result);
    let text = std::fs::read_to_string(&journal).unwrap();
    let prefix: Vec<&str> = text.lines().take(20).collect();
    std::fs::write(&journal, format!("{}\n", prefix.join("\n"))).unwrap();
    let resumed = campaign.resume(&cfg, &journal).unwrap();
    assert_eq!(resumed, result, "resume is bit-identical");

    // Same kill-and-resume story with trial fusion enabled: the resumed
    // run re-plans fused units over only the missing trials, and must
    // still land bit-identical to the uninterrupted fused run.
    let fused_cfg = CampaignConfig {
        fusion: Some(rustfi::FusionConfig::default()),
        ..cfg.clone()
    };
    let fused = campaign.run(&fused_cfg).unwrap();
    assert_eq!(
        fused.records, result.records,
        "fusion changes no records even with crashing trials"
    );
    std::fs::remove_file(&journal).ok();
    campaign.run_journaled(&fused_cfg, &journal).unwrap();
    let text = std::fs::read_to_string(&journal).unwrap();
    let prefix: Vec<&str> = text.lines().take(20).collect();
    std::fs::write(&journal, format!("{}\n", prefix.join("\n"))).unwrap();
    let resumed = campaign.resume(&fused_cfg, &journal).unwrap();
    // Fusion *stats* legitimately differ (the resume fuses only the missing
    // trials); the report itself must be bit-identical.
    assert_eq!(resumed.records, fused.records, "fused resume records");
    assert_eq!(resumed.counts, fused.counts, "fused resume counts");
    assert_eq!(resumed.per_layer, fused.per_layer, "fused resume per-layer");

    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&journal).ok();
}

/// Cheap, untrained fixture for journal-robustness tests: a seeded tiny
/// LeNet labeled with its own clean predictions, so every image is
/// campaign-eligible without a training run.
fn tiny_fixture() -> (rustfi_tensor::Tensor, Vec<usize>) {
    let images = rustfi_tensor::Tensor::from_fn(&[5, 3, 16, 16], |i| ((i as f32) * 0.013).cos());
    let mut probe = zoo::lenet(&ZooConfig::tiny(4));
    let labels = (0..images.dims()[0])
        .map(|i| rustfi::metrics::top1(probe.forward(&images.select_batch(i)).data()))
        .collect();
    (images, labels)
}

fn tiny_net() -> Network {
    zoo::lenet(&ZooConfig::tiny(4))
}

fn tiny_campaign<'a>(images: &'a rustfi_tensor::Tensor, labels: &'a [usize]) -> Campaign<'a> {
    Campaign::new(
        &tiny_net,
        images,
        labels,
        FaultMode::Neuron(NeuronSelect::Random),
        Arc::new(models::BitFlipFp32::new(models::BitSelect::Random)),
    )
}

/// Fuzz the torn-tail repair: truncating a valid journal at *every* byte
/// offset inside the last record must still resume to a bit-identical
/// report — no trial duplicated, none dropped, no offset that wedges it.
#[test]
fn resume_survives_truncation_at_every_byte_of_the_last_record() {
    let (images, labels) = tiny_fixture();
    let campaign = tiny_campaign(&images, &labels);
    let cfg = CampaignConfig {
        trials: 10,
        seed: 77,
        ..CampaignConfig::default()
    };
    let reference = campaign.run(&cfg).unwrap();

    let journal = std::env::temp_dir().join(format!("rustfi-fuzz-{}.jsonl", std::process::id()));
    std::fs::remove_file(&journal).ok();
    campaign.run_journaled(&cfg, &journal).unwrap();
    let full = std::fs::read(&journal).unwrap();
    // Byte offset where the last record line starts (the journal ends with
    // a newline, so search from the byte before it).
    let last_line_start = full[..full.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|p| p + 1)
        .expect("journal has a header line");

    for cut in last_line_start..full.len() {
        std::fs::write(&journal, &full[..cut]).unwrap();
        let resumed = campaign
            .resume(&cfg, &journal)
            .unwrap_or_else(|e| panic!("resume failed after truncating to {cut} bytes: {e}"));
        assert_eq!(
            resumed, reference,
            "truncating to {cut} bytes changed the resumed report"
        );
        assert_eq!(resumed.counts.total(), cfg.trials, "cut at {cut}");
    }
    std::fs::remove_file(&journal).ok();
}

/// Resume refuses a journal whose campaign configuration fingerprint does
/// not match — silently mixing records from diverging configs would be
/// worse than failing.
#[test]
fn resume_refuses_a_journal_from_a_different_configuration() {
    let (images, labels) = tiny_fixture();
    let campaign = tiny_campaign(&images, &labels);
    let cfg = CampaignConfig {
        trials: 8,
        seed: 5,
        ..CampaignConfig::default()
    };
    let journal = std::env::temp_dir().join(format!("rustfi-refuse-{}.jsonl", std::process::id()));
    std::fs::remove_file(&journal).ok();
    campaign.run_journaled(&cfg, &journal).unwrap();

    // Record-affecting knob changed → typed journal error, not silence.
    let altered = CampaignConfig {
        quant: rustfi::QuantMode::Simulated,
        ..cfg.clone()
    };
    let err = campaign.resume(&altered, &journal).unwrap_err();
    assert!(
        matches!(err, rustfi::FiError::Journal { .. }),
        "expected a journal error, got {err:?}"
    );
    assert!(
        err.to_string().contains("different campaign configuration"),
        "unexpected message: {err}"
    );

    // Execution-strategy knobs (threads, fusion) are record-invariant and
    // deliberately excluded from the fingerprint: resume still works.
    let restrategized = CampaignConfig {
        threads: Some(3),
        fusion: Some(rustfi::FusionConfig::default()),
        ..cfg.clone()
    };
    let resumed = campaign.resume(&restrategized, &journal).unwrap();
    assert_eq!(resumed.counts.total(), cfg.trials);

    std::fs::remove_file(&journal).ok();
}

#[test]
fn weight_faults_persist_across_inferences_and_restore() {
    let data = small_dataset();
    let net = trained_lenet(&data);
    let mut fi = FaultInjector::new(net, FiConfig::for_input(&[1, 3, 16, 16])).unwrap();
    let x = data.test_images.select_batch(0);
    let clean = fi.forward(&x);
    fi.declare_weight_fi(&[WeightFault {
        select: WeightSelect::RandomInLayer { layer: 0 },
        model: Arc::new(models::Gain::new(-50.0)),
    }])
    .unwrap();
    let f1 = fi.forward(&x);
    let f2 = fi.forward(&x);
    assert_eq!(f1, f2, "offline weight faults are stable across inferences");
    assert_ne!(clean, f1);
    fi.restore();
    assert_eq!(fi.forward(&x), clean);
}

#[test]
fn int8_quantization_barely_moves_accuracy() {
    // The quantized-network emulation itself must not break the model —
    // otherwise Fig. 4's "quantized networks" premise is violated.
    let data = small_dataset();
    let net = trained_lenet(&data);
    let mut fi = FaultInjector::new(net, FiConfig::for_input(&[1, 3, 16, 16])).unwrap();
    let count_correct = |fi: &mut FaultInjector| {
        let mut correct = 0;
        for i in 0..data.test_len() {
            let out = fi.forward(&data.test_images.select_batch(i));
            if rustfi::metrics::top1(out.data()) == data.test_labels[i] {
                correct += 1;
            }
        }
        correct
    };
    let fp32 = count_correct(&mut fi);
    fi.enable_int8_activations();
    let int8 = count_correct(&mut fi);
    assert!(
        (fp32 as i64 - int8 as i64).abs() <= 2,
        "INT8 emulation changed accuracy too much: {fp32} vs {int8}"
    );
}

#[test]
fn every_zoo_model_survives_wrapping_and_random_injection() {
    let cfg = ZooConfig::tiny(6);
    for name in zoo::model_names() {
        let net = zoo::by_name(name, &cfg).unwrap();
        let mut fi = FaultInjector::new(net, FiConfig::for_input(&[1, 3, 16, 16]))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        fi.declare_neuron_fi(&[NeuronFault {
            select: NeuronSelect::Random,
            batch: BatchSelect::All,
            model: Arc::new(models::RandomUniform::default()),
        }])
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        let out = fi.forward(&rustfi_tensor::Tensor::ones(&[1, 3, 16, 16]));
        assert_eq!(out.dims(), &[1, 6], "{name}");
        assert_eq!(fi.injections_applied(), 1, "{name}");
    }
}

/// A planned INT8 weight-fault campaign through ResNet-110, with the prefix
/// cache and fusion on, records exactly what the reference configuration
/// (no plan, no prefix cache, no fusion, no pool) records. Its convs have
/// 8, 16 and 32 output channels, so the planned INT8 conv runs all three
/// tile kinds (two k-pairs per vector, one 16-channel block, two-block
/// runs) and every trial writes and undoes one panel slot.
#[test]
fn planned_int8_resnet110_campaign_matches_the_reference() {
    use rustfi::models::{BitFlipInt8, BitSelect};
    use rustfi::{ModelProfile, PrefixCacheConfig, QuantMode};
    use rustfi_tensor::{SeededRng, Tensor};
    let zc = ZooConfig::cifar10_like();
    let model = || zoo::resnet110(&ZooConfig::cifar10_like());
    let dims = [4, zc.in_channels, zc.image_hw, zc.image_hw];
    let images = Tensor::rand_normal(&dims, 0.0, 1.0, &mut SeededRng::new(11));
    let labels = rustfi_nn::train::predict(&mut model(), &images, dims[0]);
    let campaign = Campaign::new(
        &model,
        &images,
        &labels,
        FaultMode::Weight(WeightSelect::Random),
        Arc::new(BitFlipInt8::new(BitSelect::Random)),
    );
    let reference = CampaignConfig {
        trials: 48,
        seed: 23,
        threads: Some(1),
        quant: QuantMode::Int8,
        pool_budget_bytes: 0,
        ..CampaignConfig::default()
    };
    let want = campaign.run(&reference).unwrap();
    let got = campaign
        .run(&CampaignConfig {
            prefix_cache: Some(PrefixCacheConfig::default()),
            fusion: Some(rustfi::FusionConfig::default()),
            plan: true,
            pool_budget_bytes: CampaignConfig::default().pool_budget_bytes,
            ..reference.clone()
        })
        .unwrap();
    assert_eq!(got.records, want.records);
    assert_eq!(got.counts, want.counts);

    // The faults reach convs of every width.
    let profile = ModelProfile::discover(&mut model(), [1, dims[1], dims[2], dims[3]]);
    let widths: std::collections::BTreeSet<usize> = want
        .records
        .iter()
        .map(|r| profile.layers()[r.layer].weight_dims[0])
        .collect();
    assert!(
        [8, 16, 32].iter().all(|w| widths.contains(w)),
        "faulted widths {widths:?}"
    );
}
