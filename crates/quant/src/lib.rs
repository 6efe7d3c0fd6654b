//! # rustfi-quant
//!
//! Symmetric INT8 quantization and the bit-level fault models built on it.
//!
//! The PyTorchFI paper's headline resiliency experiment (Fig. 4) injects
//! *single bit flips into INT8-quantized neurons*. This crate provides:
//!
//! - [`int8`]: symmetric per-tensor quantization (`q = clamp(round(x/s))`,
//!   `s = max|x| / 127`), fake-quantization of whole tensors, and INT8 bit
//!   flips expressed in the dequantized domain.
//!
//! # Example
//!
//! ```
//! use rustfi_quant::int8;
//!
//! // Snap a neuron value to the INT8 grid of a feature map whose max
//! // |activation| is 6.35.
//! let scale = int8::slice_scale(&[6.35, -2.0, 1.0]);
//! let back = int8::fake_quantize(1.0, scale);
//! assert!((back - 1.0).abs() < scale, "round-trip error below one step");
//!
//! // A hardware bit flip in the stored INT8 value, seen at FP32 level:
//! let corrupted = int8::flip_bit_in_quantized(1.0, scale, 6);
//! assert!((corrupted - 1.0).abs() > 1.0, "high bit flips move the value far");
//! ```

pub mod int8;
