//! # rustfi-obs
//!
//! A lightweight, dependency-free observability layer for the RustFI fault
//! injection stack: span-based timing, typed injection-provenance events,
//! monotonic counters/duration histograms, and exporters for the formats
//! people actually open.
//!
//! The paper this repo reproduces (PyTorchFI, DSN 2020) claims hook-based
//! perturbation adds negligible overhead (Fig. 3); this crate is how the repo
//! *measures* that claim — and how campaigns stop running dark. Design goals:
//!
//! - **Zero cost when off.** Instrumented code holds an
//!   `Option<Arc<dyn Recorder>>`; the disabled path is a single `None` check
//!   per layer, and [`NullRecorder`]'s methods are `#[inline]` no-ops (so an
//!   always-installed recorder costs only the virtual call). The
//!   `ablation_obs_overhead` Criterion bench in `rustfi-bench` verifies both
//!   paths sit within measurement noise of uninstrumented code, and a
//!   workspace property test verifies recording never changes campaign
//!   results bit-for-bit.
//! - **Provenance, not just timing.** [`InjectionEvent`] records exactly what
//!   an injection did: layer, tensor location, flipped bit (when derivable),
//!   and the value before/after. [`GuardEvent`] attributes DUEs to the layer
//!   that produced them; [`TrialOutcomeEvent`] streams the campaign taxonomy.
//! - **Standard formats.** [`chrome_trace_json`] emits Chrome `trace_event`
//!   JSON loadable in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev);
//!   [`write_events_jsonl`] dumps a snapshot's events as JSONL;
//!   [`prometheus_text`] snapshots counters/histograms in Prometheus
//!   exposition format.
//! - **Campaign-friendly aggregation.** Workers record into a per-thread
//!   [`LocalRecorder`] and merge into a shared [`TraceRecorder`] at trial
//!   boundaries with one short locked push per batch, so workers contend
//!   only for that push and observation never perturbs thread-count
//!   invariance.
//! - **One telemetry file per fleet worker attempt.** A fleet worker streams
//!   everything to a crash-safe [`SidecarRecorder`], flushed after every
//!   trial or fused chunk, so a killed attempt's final moments are the tail
//!   of its own sidecar. [`MergedTelemetry::from_dir`] reads a fleet's
//!   sidecars onto one clock-normalized timeline when a caller asks for it.
//! - **One home per statistic.** Every duration summary — a snapshot's
//!   timings, the fleet merge, the Prometheus exporter, the
//!   [`latency_summary`] — is a fixed-memory [`StreamingHistogram`].
//!   Outcome tallies are not re-counted from the event stream here: they
//!   come from trial records (`rustfi::metrics`), whose reports take their
//!   intervals from [`wilson_interval`].
//!
//! ```
//! use rustfi_obs::{Recorder, SpanCtx, TraceRecorder};
//! use std::sync::Arc;
//!
//! let rec = Arc::new(TraceRecorder::new());
//! let token = rec.layer_enter();
//! // ... run a layer ...
//! rec.layer_exit(&SpanCtx { name: "conv1", kind: "conv", layer: Some(1) }, token);
//! rec.counter_add("nn.hook_dispatches", 1);
//! let trace = rec.chrome_trace(); // open in Perfetto
//! assert!(trace.contains("\"conv1\""));
//! ```

pub mod chrome;
pub mod clock;
pub mod event;
pub mod json;
pub mod jsonl;
pub mod local;
pub mod merge;
pub mod names;
pub mod prom;
pub mod recorder;
pub mod sidecar;
pub mod stats;
pub mod timing;
pub mod trace;

pub use chrome::chrome_trace_json;
pub use clock::{now_ns, thread_tid};
pub use event::{Event, GuardEvent, InjectionEvent, InjectionSite, TrialOutcomeEvent};
pub use jsonl::write_events_jsonl;
pub use local::LocalRecorder;
pub use merge::{merge_shard_telemetry, MergedTelemetry, ShardLane};
pub use prom::{prometheus_text, prometheus_text_labeled};
pub use recorder::{NullRecorder, ObsBatch, Recorder, SpanCtx, SpanRecord, SpanToken};
pub use sidecar::{read_sidecar, sidecar_path, SidecarHeader, SidecarRead, SidecarRecorder};
pub use stats::{latency_summary, wilson_interval, StreamingHistogram, Z_95, Z_99};
pub use timing::{mean_seconds, time};
pub use trace::{LayerTimeRow, ObsSnapshot, TraceRecorder};
