//! Fig. 4: Top-1 misclassification probability of six ImageNet-like
//! networks with INT8 neuron quantization under single-bit-flip injections
//! into randomly selected neurons.
//!
//! Paper shape to reproduce: every network shows output corruptions, all
//! rates are below 1%, and rates differ across topologies (AlexNet and
//! ShuffleNet land near each other despite very different accuracy).
//!
//! The table reports the full outcome taxonomy (masked/SDC/DUE/crash/hang);
//! single bit flips never crash or hang, so those columns stay zero here and
//! act as a sanity check of the campaign's trial accounting.
//!
//! After the main table, a guard-hook ablation floods activations with Inf
//! (a worst-case DUE workload) and compares `GuardMode::Record` against
//! `GuardMode::ShortCircuit`: identical classifications, less wall clock.
//!
//! A final table puts the two quantization regimes side by side: the same
//! bit-flip campaign under `QuantMode::Simulated` (f32 kernels, activations
//! snapped to the INT8 grid) and under `QuantMode::Int8` (real integer
//! kernels, faults landing in stored INT8 words), reporting SDC rates with
//! 95% Wilson intervals. The intervals should overlap heavily — both
//! regimes model the same hardware fault, and the words they flip are
//! bit-identical by construction.
//!
//! Run with: `cargo run -p rustfi-bench --bin fig4_classification --release`
//! Knobs: `RUSTFI_TRIALS` (default 20000) injections per network,
//! `RUSTFI_GUARD_TRIALS` (default 1000) for the guard ablation,
//! `RUSTFI_INT8_TRIALS` (default `RUSTFI_TRIALS`/10) per regime for the
//! quantization comparison.

use rustfi::report::rate_ci95;
use rustfi::{models, Campaign, CampaignConfig, FaultMode, GuardMode, NeuronSelect, QuantMode};
use rustfi_bench::{
    env_usize, factory_from_checkpoint, fig4_models, outcome_table_header, outcome_table_row,
    train_and_checkpoint,
};
use rustfi_data::SynthSpec;
use std::sync::Arc;

fn main() {
    let trials = env_usize("RUSTFI_TRIALS", 20_000);
    let int8_trials = env_usize("RUSTFI_INT8_TRIALS", (trials / 10).max(1));
    let spec = SynthSpec::imagenet_like();
    let data = spec.generate();
    println!(
        "Fig. 4 — single INT8 bit flips in random neurons, {trials} trials/network, dataset {}",
        spec.name
    );
    println!("{}", outcome_table_header());

    let mut quant_rows = Vec::new();
    for model in fig4_models() {
        let (ckpt, acc) = train_and_checkpoint(model, &spec);
        let factory = factory_from_checkpoint(model, "imagenet-like", ckpt.clone());
        let campaign = Campaign::new(
            &factory,
            &data.test_images,
            &data.test_labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(models::BitFlipInt8::new(models::BitSelect::Random)),
        );
        let result = campaign
            .run(&CampaignConfig {
                trials,
                seed: 0xF164,
                quant: QuantMode::Simulated,
                ..CampaignConfig::default()
            })
            .expect("campaign config is valid");
        println!("{}", outcome_table_row(model, Some(acc), &result));

        // Same campaign, both quantization regimes, for the comparison
        // table (fewer trials: two extra campaigns per network).
        let regime = |quant| {
            campaign
                .run(&CampaignConfig {
                    trials: int8_trials,
                    seed: 0x714D,
                    quant,
                    ..CampaignConfig::default()
                })
                .expect("campaign config is valid")
        };
        quant_rows.push((
            *model,
            regime(QuantMode::Simulated),
            regime(QuantMode::Int8),
        ));

        if model == &"alexnet" {
            guard_ablation(&factory, &data);
        }
        std::fs::remove_file(&ckpt).ok();
    }

    println!(
        "\nQuantized campaigns — simulated INT8 (f32 kernels) vs real INT8 backend \
         (integer kernels, stored-word flips), {int8_trials} trials each, SDC with \
         95% Wilson intervals"
    );
    println!("{:<12} {:>26} {:>26}", "model", "simulated", "real-int8");
    for (model, sim, int8) in &quant_rows {
        println!(
            "{:<12} {:>26} {:>26}",
            model,
            rate_ci95(&sim.counts, sim.counts.sdc),
            rate_ci95(&int8.counts, int8.counts.sdc)
        );
    }
}

/// Guard-hook ablation on the first (AlexNet) checkpoint: every trial
/// injects `+Inf`, so every forward pass goes non-finite and the
/// short-circuiting guard can skip the remaining layers.
fn guard_ablation(
    factory: &(dyn Fn() -> rustfi_nn::Network + Sync),
    data: &rustfi_data::ClassificationDataset,
) {
    let trials = env_usize("RUSTFI_GUARD_TRIALS", 1000);
    let campaign = Campaign::new(
        factory,
        &data.test_images,
        &data.test_labels,
        FaultMode::Neuron(NeuronSelect::Random),
        Arc::new(models::StuckAt::new(f32::INFINITY)),
    );
    let timed = |guard| {
        let (result, elapsed) = rustfi_obs::time(|| {
            campaign
                .run(&CampaignConfig {
                    trials,
                    seed: 0x6A2D,
                    quant: rustfi::QuantMode::Simulated,
                    guard,
                    ..CampaignConfig::default()
                })
                .expect("campaign config is valid")
        });
        (elapsed.as_secs_f64(), result)
    };
    let (t_record, record) = timed(GuardMode::Record);
    let (t_short, short) = timed(GuardMode::ShortCircuit);
    println!(
        "  guard ablation (alexnet, stuck-at-Inf, {trials} trials): \
         record {t_record:.2}s | short-circuit {t_short:.2}s | speedup {:.2}x | \
         DUEs {}/{} | classifications identical: {}",
        t_record / t_short.max(1e-9),
        record.counts.due,
        record.counts.total(),
        record.records == short.records
    );
}
