//! # rustfi-nn
//!
//! A small CPU deep-learning framework with PyTorch-style **forward hooks** —
//! the substrate on which the RustFI fault injector (a reproduction of
//! *PyTorchFI*, DSN 2020) instruments perturbations.
//!
//! The design mirrors the part of PyTorch that PyTorchFI relies on:
//!
//! - every layer implements [`Module`] and carries a stable [`LayerId`];
//! - a [`Network`] owns a module tree plus a shared [`HookRegistry`];
//! - layers only compute: as PyTorch's `Module.__call__` does, the one
//!   dispatch that runs every module ([`ForwardCtx::forward_child`]) fires
//!   the forward hooks registered for a *leaf* layer's id (or for all
//!   layers) after it returns, handing them `&mut Tensor` — exactly the
//!   mutation point PyTorchFI uses to corrupt neurons;
//! - containers only list their children ([`Module::children`]), so
//!   traversal, lookup by id and the parameter walks are written once;
//! - backward passes symmetrically fire *gradient hooks* before each leaf's
//!   `backward` ([`BackwardCtx::backward_child`]), which is what
//!   Grad-CAM-style interpretability consumes.
//!
//! Training is supported end-to-end: every layer implements `backward`,
//! [`optim::Sgd`] updates parameters, and [`train`] provides a batching
//! fit/evaluate loop. A twelve-architecture [`zoo`] provides scaled-down but
//! topologically faithful versions of the networks evaluated in the paper.
//!
//! # Example: three lines to perturb a model
//!
//! ```
//! use rustfi_nn::{zoo, ZooConfig};
//! use rustfi_tensor::Tensor;
//!
//! let mut net = zoo::lenet(&ZooConfig::tiny(10));
//! // Register a forward hook that zeroes neuron (0, 0, 0, 0) of the first
//! // conv. (Layer 0 is the root `Sequential`: hooks never fire on
//! // containers.)
//! let conv = net.injectable_layers()[0];
//! net.hooks().register_forward(conv, |_ctx, out| out.data_mut()[0] = 0.0);
//! let y = net.forward(&Tensor::zeros(&[1, 3, 16, 16]));
//! assert_eq!(y.dims()[0], 1);
//! ```

pub mod checkpoint;
pub mod guard;
pub mod hook;
pub mod layer;
pub mod loss;
pub mod module;
pub mod optim;
pub mod quantized;
pub mod shape;
pub mod train;
pub mod zoo;

pub use guard::{DeadlineInterrupt, GuardConfig, GuardHook, NonFiniteInterrupt};
pub use hook::{HookHandle, HookRegistry, LayerCtx};
pub use module::{
    BackwardCtx, ForwardCtx, FusePartner, LayerId, LayerInfo, LayerKind, LayerMeta, Module,
    Network, Param,
};
pub use quantized::{Backend, CalibrationTable};
pub use shape::ShapeError;
pub use zoo::ZooConfig;
