//! Fig. 6: relative vulnerability (vs. a non-IBP baseline) of the first two
//! layers of AlexNet trained with Interval Bound Propagation, across
//! α ∈ {0.025, 0.1, 0.25} and the paper's ε grid rescaled to this
//! substrate's input range.
//!
//! Scaling notes (documented in DESIGN.md/EXPERIMENTS.md):
//! - The paper's ε ∈ {0.125, 0.25, 0.5, 2} are L∞ radii on [0, 1] CIFAR
//!   pixels. Our synthetic images span ≈ [-4, 4] with class noise σ = 1.0,
//!   so the same *relative* radii are ε/4: {0.03125, 0.0625, 0.125, 0.5}.
//! - The evaluation injects INT8 bit flips into magnitude bits 4–6 of
//!   first/second-layer neurons. Full-range flips (including bit 7, worth
//!   2× the layer maximum) are far outside any trainable robustness radius
//!   at this scale and are dominated by clean-margin effects rather than
//!   propagation; bits 4–6 exercise exactly the bounded-perturbation
//!   propagation IBP certifies.
//!
//! Paper shape to reproduce: relative vulnerability below 1 for most of the
//! grid, improvements up to ~4×, degrading at extreme (α, ε) (the paper's
//! "not all models trained to be robust … are equally resilient").
//!
//! Run with: `cargo run -p rustfi-bench --bin fig6_ibp --release`
//! Knobs: `RUSTFI_TRIALS` (default 12000) injections per layer per variant.

use rustfi::{models, Campaign, CampaignConfig, FaultMode, NeuronSelect};
use rustfi_bench::env_usize;
use rustfi_data::SynthSpec;
use rustfi_nn::{checkpoint, train, Network};
use rustfi_quant::int8;
use rustfi_robust::ibp::{IbpNet, IbpSpec, IbpTrainConfig};
use rustfi_tensor::qkernels;
use std::path::PathBuf;
use std::sync::Arc;

/// Trains one (α, ε) variant and returns its checkpoint + accuracy.
fn train_variant(
    data: &rustfi_data::ClassificationDataset,
    alpha: f32,
    eps: f32,
    tag: &str,
) -> (PathBuf, f32) {
    let mut ibp = IbpNet::alexnet_like(&IbpSpec::tiny(10));
    ibp.train(
        &data.train_images,
        &data.train_labels,
        &IbpTrainConfig {
            alpha_max: alpha,
            eps_max: eps,
            ..IbpTrainConfig::default()
        },
    );
    let mut net = ibp.into_network();
    let acc = train::accuracy(&mut net, &data.test_images, &data.test_labels, 32);
    let path = std::env::temp_dir().join(format!("rustfi-fig6-{tag}-{}.ckpt", std::process::id()));
    checkpoint::save(&mut net, &path).expect("write checkpoint");
    (path, acc)
}

fn ibp_factory(path: PathBuf) -> impl Fn() -> Network + Sync {
    move || {
        let mut net = IbpNet::alexnet_like(&IbpSpec::tiny(10)).into_network();
        checkpoint::load(&mut net, &path).expect("read checkpoint");
        net
    }
}

/// First-two-layer SDC+DUE rate under INT8 flips of magnitude bits 4–6.
fn first_two_layer_rate(
    factory: &(dyn Fn() -> Network + Sync),
    data: &rustfi_data::ClassificationDataset,
    trials: usize,
) -> (f64, usize) {
    let model = Arc::new(models::Custom::new("bitflip-int8-b456", |old, ctx| {
        let bit = 4 + ctx.rng.below(3) as u32;
        let scale = qkernels::scale_for_max_abs(ctx.tensor_max_abs);
        int8::flip_bit_in_quantized(old, scale, bit)
    }));
    let mut sdcs = 0;
    let mut total = 0;
    for layer in 0..2 {
        let campaign = Campaign::new(
            factory,
            &data.test_images,
            &data.test_labels,
            FaultMode::Neuron(NeuronSelect::RandomInLayer { layer }),
            Arc::clone(&model) as Arc<dyn rustfi::PerturbationModel>,
        );
        let result = campaign
            .run(&CampaignConfig {
                trials,
                seed: 0xF166 + layer as u64,
                quant: rustfi::QuantMode::Simulated,
                ..CampaignConfig::default()
            })
            .expect("campaign config is valid");
        sdcs += result.counts.sdc + result.counts.due;
        total += result.counts.total();
    }
    (sdcs as f64 / total.max(1) as f64, sdcs)
}

fn main() {
    let trials = env_usize("RUSTFI_TRIALS", 12_000);
    let mut spec = SynthSpec::cifar10_like();
    spec.noise = 1.0;
    spec.train_per_class = 60;
    let data = spec.generate();

    println!("Fig. 6 — relative first-two-layer vulnerability of IBP-trained AlexNet");
    println!("({trials} injections per layer per variant; eval = INT8 flips, bits 4-6)\n");

    let (base_ckpt, base_acc) = train_variant(&data, 0.0, 0.0, "baseline");
    let base_factory = ibp_factory(base_ckpt.clone());
    let (base_rate, base_sdcs) = first_two_layer_rate(&base_factory, &data, trials);
    println!(
        "baseline (no IBP): accuracy {:.1}%, first-two-layer SDC rate {:.4}% ({base_sdcs} SDCs)\n",
        100.0 * base_acc,
        100.0 * base_rate
    );
    println!(
        "{:>9} {:>7} {:>10} {:>12} {:>8} {:>22}",
        "eps", "alpha", "accuracy", "SDC rate", "SDCs", "relative vulnerability"
    );

    // The paper's {0.125, 0.25, 0.5, 2} rescaled by the input-range ratio.
    for eps in [0.03125f32, 0.0625, 0.125, 0.5] {
        for alpha in [0.025f32, 0.1, 0.25] {
            let tag = format!("a{alpha}e{eps}");
            let (ckpt, acc) = train_variant(&data, alpha, eps, &tag);
            let factory = ibp_factory(ckpt.clone());
            let (rate, sdcs) = first_two_layer_rate(&factory, &data, trials);
            let relative = if base_rate > 0.0 {
                rate / base_rate
            } else {
                f64::NAN
            };
            println!(
                "{:>9} {:>7} {:>9.1}% {:>11.4}% {:>8} {:>22.3}",
                eps,
                alpha,
                100.0 * acc,
                100.0 * rate,
                sdcs,
                relative
            );
            std::fs::remove_file(&ckpt).ok();
        }
    }
    std::fs::remove_file(&base_ckpt).ok();
}
