//! # rustfi-robust
//!
//! Robust-training machinery for two PyTorchFI use cases:
//!
//! - **Interval Bound Propagation (IBP)** training (paper §IV-C / Fig. 6):
//!   trains a network to minimize `(1-α)·CE(z) + α·CE(z_worst)`, where
//!   `z_worst` are the worst-case logits under an L∞ input perturbation of
//!   radius ε, computed by propagating `[x-ε, x+ε]` intervals through every
//!   layer ([`interval`], [`ibp`]). A curriculum schedule ramps α and ε
//!   linearly, as in Gowal et al. ([`curriculum`]). The network is an
//!   ordinary [`rustfi_nn::Network`]: only the interval forward and backward
//!   live here, and [`IbpNet::into_network`] hands the trained network
//!   itself to the fault injector.
//! - **Fault-injection-in-training** (paper §IV-D / Table I): a persistent
//!   stochastic hook that, on every forward pass during training, sets one
//!   random neuron per injectable layer to a uniform value in `[-1, 1]`
//!   ([`fi_training`]).
//!
//! # Example
//!
//! ```
//! use rustfi_robust::ibp::{IbpNet, IbpSpec};
//! use rustfi_tensor::Tensor;
//!
//! let mut net = IbpNet::alexnet_like(&IbpSpec::tiny(10));
//! let x = Tensor::zeros(&[1, 3, 16, 16]);
//! let (lo, hi) = net.forward_interval(&x.add_scalar(-0.1), &x.add_scalar(0.1));
//! // Interval soundness: lower bounds never exceed upper bounds.
//! for (l, h) in lo.data().iter().zip(hi.data()) {
//!     assert!(l <= h);
//! }
//! ```

pub mod curriculum;
pub mod fgsm;
pub mod fi_training;
pub mod ibp;
pub mod interval;

pub use curriculum::Curriculum;
pub use fgsm::{fgsm, fgsm_accuracy};
pub use fi_training::TrainingInjector;
pub use ibp::{IbpNet, IbpSpec, IbpTrainConfig};
