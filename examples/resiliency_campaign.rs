//! Resiliency analysis of a classification network (paper §IV-A, in
//! miniature): train a CNN on the synthetic CIFAR-10-like dataset, then run
//! a single-bit-flip injection campaign on INT8-quantized neurons and report
//! SDC rates, per-layer vulnerability, and confidence impact.
//!
//! Run with: `cargo run --example resiliency_campaign --release`

use rustfi::{models, report, Campaign, CampaignConfig, FaultMode, GuardMode, NeuronSelect};
use rustfi_data::SynthSpec;
use rustfi_nn::train::{accuracy, fit, TrainConfig};
use rustfi_nn::{checkpoint, zoo, ZooConfig};
use std::sync::Arc;

fn main() {
    // Train AlexNet on the ImageNet-like synthetic dataset (the paper's
    // §IV-A setting, scaled down).
    let data = SynthSpec::imagenet_like().generate();
    let mut net = zoo::alexnet(&ZooConfig::imagenet_like());
    println!(
        "training alexnet on {} ({} images)...",
        data.name,
        data.train_len()
    );
    let report = fit(
        &mut net,
        &data.train_images,
        &data.train_labels,
        &TrainConfig::default(),
    );
    let acc = accuracy(&mut net, &data.test_images, &data.test_labels, 32);
    println!(
        "trained in {:.1?} ({} steps), test accuracy {:.1}%",
        report.wall_time,
        report.steps,
        100.0 * acc
    );

    // Campaign workers rebuild the model from a checkpoint.
    let ckpt = std::env::temp_dir().join("rustfi-example-campaign.ckpt");
    checkpoint::save(&mut net, &ckpt).expect("write checkpoint");
    let ckpt_path = ckpt.clone();
    let factory = move || {
        let mut net = zoo::alexnet(&ZooConfig::imagenet_like());
        checkpoint::load(&mut net, &ckpt_path).expect("read checkpoint");
        net
    };

    // Single INT8 bit flip in a random neuron, random bit — paper Fig. 4's
    // error model.
    let campaign = Campaign::new(
        &factory,
        &data.test_images,
        &data.test_labels,
        FaultMode::Neuron(NeuronSelect::Random),
        Arc::new(models::BitFlipInt8::new(models::BitSelect::Random)),
    );
    let trials = 4000;
    println!("running {trials} INT8 bit-flip injections (journaled, guarded)...");
    // A journaled run survives being killed: rerunning this example resumes
    // from the journal and replays finished trials bit-identically. The
    // guard hooks attribute any NaN/Inf DUE to the layer that produced it.
    let journal = std::env::temp_dir().join("rustfi-example-campaign.jsonl");
    let result = campaign
        .run_journaled(
            &CampaignConfig {
                trials,
                seed: 1,
                quant: rustfi::QuantMode::Simulated,
                guard: GuardMode::Record,
                ..CampaignConfig::default()
            },
            &journal,
        )
        .expect("campaign runs to completion");

    // Outcome totals, the SDC rate with its 99% Wilson interval, and the
    // per-layer SDC/DUE table with 95% Wilson intervals.
    print!("{}", report::summarize(&result));
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&journal).ok();
}
