//! # RustFI reproduction package
//!
//! This crate is the umbrella package for the RustFI workspace, a from-scratch
//! Rust reproduction of *PyTorchFI: A Runtime Perturbation Tool for DNNs*
//! (DSN 2020). It re-exports the workspace crates so the runnable examples in
//! `examples/` and the integration tests in `tests/` can use one import root.
//!
//! The interesting code lives in the member crates:
//!
//! - [`rustfi`] — the fault injector itself (the paper's contribution)
//! - [`rustfi_nn`] — the hook-capable DNN framework substrate
//! - [`rustfi_tensor`] — the tensor library underneath it
//! - [`rustfi_data`] — deterministic synthetic datasets
//! - [`rustfi_quant`] — INT8 quantization and bit-flip machinery
//! - [`rustfi_detect`] — a YOLO-style object detector
//! - [`rustfi_robust`] — IBP robust training and FI-in-training
//! - [`rustfi_interpret`] — Grad-CAM interpretability
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture.

pub use rustfi;
pub use rustfi_data;
pub use rustfi_detect;
pub use rustfi_interpret;
pub use rustfi_nn;
pub use rustfi_quant;
pub use rustfi_robust;
pub use rustfi_tensor;
