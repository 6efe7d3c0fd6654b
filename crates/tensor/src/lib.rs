//! # rustfi-tensor
//!
//! A minimal, dependency-light CPU tensor library used as the numerical
//! substrate of the RustFI stack (a Rust reproduction of *PyTorchFI*,
//! DSN 2020).
//!
//! Everything is `f32`, row-major, and contiguous. The library provides the
//! operations a small convolutional-network framework needs:
//!
//! - [`Tensor`]: an n-dimensional array with shape bookkeeping,
//! - elementwise and scalar arithmetic ([`ops`]),
//! - matrix multiplication ([`linalg`]),
//! - 2-D convolution with stride/padding/groups and its gradients ([`conv`]),
//! - max/avg pooling and their gradients ([`pool`]),
//! - IEEE-754 bit manipulation used by fault models ([`bits`]),
//! - a deterministic, forkable RNG ([`rng`]),
//! - scoped-thread data parallelism helpers ([`parallel`]),
//! - runtime-dispatched AVX2 slice kernels for the elementwise tail
//!   ([`kernels`]),
//! - symmetric INT8 quantization primitives, an AVX2 integer GEMM, and
//!   stored-`i8` tensors with quantized conv/linear kernels ([`qkernels`],
//!   [`qtensor`]),
//! - a thread-local buffer recycling pool for allocation-free steady-state
//!   forward passes ([`tpool`]).
//!
//! # Example
//!
//! ```
//! use rustfi_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::full(&[2, 2], 0.5);
//! let c = a.add(&b);
//! assert_eq!(c.at(&[1, 1]), 4.5);
//! ```

pub mod bits;
pub mod conv;
pub mod kernels;
pub mod linalg;
pub mod opcount;
pub mod ops;
pub mod pack;
pub mod parallel;
pub mod pool;
pub mod qkernels;
pub mod qtensor;
pub mod resize;
pub mod rng;
mod shape;
mod tensor;
pub mod tpool;

pub use conv::{conv2d, conv2d_backward, conv2d_planned, Conv2dGrads, ConvSpec, Im2colPlan};
pub use linalg::{matmul, matmul_into, transpose_into};
pub use pack::{matmul_packed_a, Act, BnFoldView, Epilogue, GatherPlan, PackedA, PackedConvI16};
pub use pool::{
    avg_pool2d, avg_pool2d_backward, max_pool2d, max_pool2d_backward, max_pool2d_into, PoolSpec,
};
pub use qkernels::matmul_i8_nt;
pub use qtensor::{conv2d_q, conv2d_q_planned, linear_q, QTensor};
pub use resize::{resize_map, upsample_nearest, zero_pad2d};
pub use rng::SeededRng;
pub use shape::ShapeError;
pub use tensor::Tensor;
