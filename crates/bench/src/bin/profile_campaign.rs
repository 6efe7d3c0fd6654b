//! Campaign profiler: runs a neuron bit-flip campaign with the full
//! observability stack armed and reports where the time goes.
//!
//! Output, each statistic printed once:
//! - a per-layer table of forward wall time (from layer spans); its `inj`
//!   column is the injectable-layer index the statistical report uses;
//! - kernel-call counters;
//! - the golden prefix's counters: hits, misses, and the trials whose pass
//!   ended at a golden match (exits), with the FLOPs hits and exits
//!   skipped;
//! - the statistical report: the per-layer SDC/DUE table with 95% Wilson
//!   intervals, counted from the campaign's trial records
//!   ([`rustfi::report::per_layer_table`]), and trial latency quantiles
//!   from the recorder's timing histograms;
//! - a Chrome `trace_event` JSON file loadable in Perfetto or
//!   `chrome://tracing` (one row per worker thread, one slice per layer);
//! - the Prometheus text exposition of all counters and timings.
//!
//! The model is untrained and labels are aligned to its own clean
//! predictions, so every image is campaign-eligible without a training run.
//!
//! Run with: `cargo run -p rustfi-bench --bin profile_campaign --release`
//! Knobs: `RUSTFI_TRIALS` (default 200), `RUSTFI_MODEL` (default alexnet),
//! `RUSTFI_THREADS` (default: all cores), `RUSTFI_TRACE_PATH` (default
//! `profile_campaign.trace.json`), `RUSTFI_EVENTS_PATH` (optional JSONL
//! event-stream dump).

use rustfi::report::per_layer_table;
use rustfi::{
    models, Campaign, CampaignConfig, FaultMode, GuardMode, ModelProfile, NeuronSelect,
    PrefixCacheConfig, ProgressRecorder,
};
use rustfi_bench::env_usize;
use rustfi_nn::{train, zoo, ZooConfig};
use rustfi_obs::{latency_summary, Recorder, TraceRecorder};
use rustfi_tensor::{opcount, Tensor};
use std::path::PathBuf;
use std::sync::Arc;

fn env_str(name: &str, default: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| default.to_string())
}

fn main() {
    let trials = env_usize("RUSTFI_TRIALS", 200);
    let model = env_str("RUSTFI_MODEL", "alexnet");
    let threads = std::env::var("RUSTFI_THREADS")
        .ok()
        .and_then(|v| v.parse().ok());
    let trace_path = PathBuf::from(env_str("RUSTFI_TRACE_PATH", "profile_campaign.trace.json"));

    let cfg = ZooConfig::imagenet_like();
    let factory = || zoo::by_name(&model, &cfg).unwrap_or_else(|| panic!("unknown model {model}"));
    let images = Tensor::from_fn(&[8, cfg.in_channels, cfg.image_hw, cfg.image_hw], |i| {
        ((i as f32) * 0.013).sin()
    });
    let labels = train::predict(&mut factory(), &images, 8);

    println!("profile_campaign — {model} (untrained, imagenet-like config), {trials} trials");
    opcount::reset();
    opcount::enable(true);
    let recorder = Arc::new(TraceRecorder::new());
    let campaign = Campaign::new(
        &factory,
        &images,
        &labels,
        FaultMode::Neuron(NeuronSelect::Random),
        Arc::new(models::BitFlipFp32::new(models::BitSelect::Random)),
    );
    let result = campaign
        .run(&CampaignConfig {
            trials,
            seed: 0x9806,
            threads,
            guard: GuardMode::Record,
            prefix_cache: Some(PrefixCacheConfig::default()),
            recorder: Some(recorder.clone() as Arc<dyn Recorder>),
            progress: Some(ProgressRecorder::stderr(trials.div_ceil(10).max(1))),
            ..CampaignConfig::default()
        })
        .expect("campaign config is valid");
    opcount::enable(false);

    // Per-layer wall time, keyed by network layer index; `inj` maps each
    // injectable layer to its row in the statistical report.
    let snap = recorder.snapshot();
    let profile = ModelProfile::discover(
        &mut factory(),
        [1, cfg.in_channels, cfg.image_hw, cfg.image_hw],
    );
    println!(
        "\n{:<5} {:<8} {:<24} {:>8} {:>10} {:>10} {:>4}",
        "layer", "kind", "name", "calls", "mean µs", "total ms", "inj"
    );
    for row in snap.layer_times() {
        let inj = profile
            .layers()
            .iter()
            .position(|l| l.id.index() == row.layer)
            .map_or(String::from("-"), |i| i.to_string());
        println!(
            "{:<5} {:<8} {:<24} {:>8} {:>10.1} {:>10.2} {:>4}",
            row.layer,
            row.kind,
            row.name,
            row.calls,
            row.mean_ns() as f64 / 1_000.0,
            row.total_ns as f64 / 1e6,
            inj
        );
    }

    let ops = opcount::counts();
    println!(
        "\nkernel calls: conv2d {} | matmul {} | elementwise {} | pool {} | norm {}",
        ops.conv2d, ops.matmul, ops.elementwise, ops.pool, ops.norm
    );
    let tail = ops.elementwise + ops.pool + ops.norm;
    let total = ops.conv2d + ops.matmul + tail;
    if total > 0 {
        println!(
            "memory-bound tail (elementwise+pool+norm): {tail} of {total} kernel calls ({:.1}%)",
            100.0 * tail as f64 / total as f64
        );
    }
    if let Some(p) = &result.prefix {
        println!(
            "golden prefix: hits {} | misses {} | exits {} | skipped {:.1} MFLOP by hits, {:.1} MFLOP by exits",
            p.hits,
            p.misses,
            p.exits,
            p.skipped_flops as f64 * 1e-6,
            p.exit_skipped_flops as f64 * 1e-6
        );
    }
    println!("\n# Statistical report (95% Wilson intervals)");
    print!("{}", per_layer_table(&result.per_layer, &result.counts));
    print!("{}", latency_summary(&snap.timings));

    recorder
        .write_chrome_trace(&trace_path)
        .expect("write chrome trace");
    println!(
        "\nwrote {} spans + {} events to {} (load in Perfetto / chrome://tracing)",
        snap.spans.len(),
        snap.events.len(),
        trace_path.display()
    );
    if let Ok(events_path) = std::env::var("RUSTFI_EVENTS_PATH") {
        let events_path = PathBuf::from(events_path);
        recorder
            .write_events_jsonl(&events_path)
            .expect("write events jsonl");
        println!("wrote event stream to {}", events_path.display());
    }

    println!("\n# Prometheus exposition\n{}", recorder.prometheus());
}
