//! # rustfi
//!
//! A runtime perturbation (fault-injection) tool for DNNs — a from-scratch
//! Rust reproduction of **PyTorchFI** (Mahmoud et al., DSN 2020) on top of
//! the hook-capable [`rustfi_nn`] framework.
//!
//! Exactly like the paper's tool, RustFI:
//!
//! - wraps a model and runs a single **dummy profiling inference** to learn
//!   every injectable layer's output geometry, which it uses to validate
//!   injection requests and produce precise error messages ([`ModelProfile`]);
//! - injects **neuron perturbations at runtime via forward hooks** — no
//!   topology rewriting, no framework patching ([`FaultInjector::declare_neuron_fi`]);
//! - applies **weight perturbations offline** by mutating the weight tensor
//!   before inference (zero runtime overhead), with undo
//!   ([`FaultInjector::declare_weight_fi`] / [`FaultInjector::restore`]);
//! - ships a library of **perturbation models** (uniform random value,
//!   FP32/INT8 single bit flip, zero, stuck-at, gain) and accepts custom
//!   ones through the [`PerturbationModel`] trait;
//! - supports single or multiple injection sites, per-layer and
//!   network-random site selection, and per-batch-element semantics
//!   ([`NeuronSelect`], [`BatchSelect`]);
//! - runs large seeded, parallel **error-injection campaigns** with SDC
//!   accounting ([`campaign`]), hardened for long unattended runs: panicking
//!   trials are isolated and recorded as crashes, a step-budget watchdog
//!   flags hangs, NaN/Inf guard hooks attribute DUEs to the layer that
//!   produced them, and a crash-safe JSONL [`journal`] lets an interrupted
//!   campaign resume bit-identically.
//!
//! # Three steps, as in the paper
//!
//! ```
//! use rustfi::{FaultInjector, FiConfig, NeuronFault, NeuronSelect, BatchSelect, models};
//! use rustfi_nn::{zoo, ZooConfig};
//! use rustfi_tensor::Tensor;
//! use std::sync::Arc;
//!
//! // (1) build a model, (2) wrap it — this profiles it with a dummy pass,
//! let net = zoo::lenet(&ZooConfig::tiny(10));
//! let mut fi = FaultInjector::new(net, FiConfig::for_input(&[1, 3, 16, 16]))?;
//! // (3) declare a perturbation and run.
//! fi.declare_neuron_fi(&[NeuronFault {
//!     select: NeuronSelect::Random,
//!     batch: BatchSelect::All,
//!     model: Arc::new(models::RandomUniform::new(-1.0, 1.0)),
//! }])?;
//! let out = fi.forward(&Tensor::zeros(&[1, 3, 16, 16]));
//! assert_eq!(out.dims(), &[1, 10]);
//! # Ok::<(), rustfi::FiError>(())
//! ```

pub mod campaign;
pub mod config;
pub mod error;
pub mod granularity;
pub mod injector;
pub mod journal;
pub mod location;
pub mod metrics;
pub mod models;
pub mod perturbation;
pub mod prefix;
pub mod profile;
pub mod report;
pub mod shard;

pub use campaign::{
    Campaign, CampaignConfig, CampaignResult, FaultMode, FusionConfig, FusionStats, GuardMode,
    ProgressRecorder, ProgressUpdate, TrialRecord,
};
pub use config::FiConfig;
pub use error::FiError;
pub use injector::{FaultInjector, NeuronFault, QuantMode, WeightFault};
pub use journal::{
    append_heartbeat, read_journal, read_journal_repairing, JournalHeader, JournalTail,
    JournalWriter, JOURNAL_VERSION,
};
pub use location::{BatchSelect, NeuronSelect, NeuronSite, WeightSelect, WeightSite};
pub use metrics::{classify_outcome, OutcomeCounts, OutcomeKind};
pub use perturbation::{PerturbCtx, PerturbationModel};
pub use prefix::{PrefixCacheConfig, PrefixStats};
pub use profile::{LayerProfile, ModelProfile};
pub use shard::{config_fingerprint, merge_shard_journals, plan_shards, MergedCampaign, ShardSpec};
