//! Ablation for design choice 1 (DESIGN.md §4): hook-based injection vs the
//! rejected "append a perturbation layer after every convolution" topology
//! rewrite (paper §III-A).
//!
//! Three variants run the same LeNet workload:
//! - `clean`: no instrumentation at all;
//! - `hooks_armed`: RustFI's approach — one forward hook injecting one neuron;
//! - `perturb_layers`: a network rebuilt with an explicit perturbation layer
//!   after every convolution (each one pays a full tensor copy even when it
//!   perturbs nothing, and the model graph had to be modified).

use criterion::{criterion_group, criterion_main, Criterion};
use rustfi::{models, BatchSelect, FaultInjector, FiConfig, NeuronFault, NeuronSelect};
use rustfi_nn::layer::{Conv2d, Flatten, Linear, MaxPool2d, Relu, Sequential};
use rustfi_nn::module::{BackwardCtx, ForwardCtx, LayerKind, LayerMeta, Module, Network};
use rustfi_nn::{zoo, ZooConfig};
use rustfi_tensor::{ConvSpec, SeededRng, Tensor};
use std::sync::Arc;

/// The rejected design: an explicit layer that copies its input and
/// overwrites one neuron.
struct PerturbLayer {
    meta: LayerMeta,
    offset: usize,
    value: f32,
}

impl Module for PerturbLayer {
    fn kind(&self) -> LayerKind {
        LayerKind::Dropout // reuse an inert kind; not injectable
    }
    fn meta(&self) -> &LayerMeta {
        &self.meta
    }
    fn meta_mut(&mut self) -> &mut LayerMeta {
        &mut self.meta
    }
    fn forward(&mut self, input: &Tensor, _ctx: &mut ForwardCtx<'_>) -> Tensor {
        let mut out = input.clone();
        if self.offset < out.len() {
            out.data_mut()[self.offset] = self.value;
        }
        out
    }
    fn backward(&mut self, grad_out: &Tensor, _ctx: &mut BackwardCtx<'_>) -> Tensor {
        grad_out.clone()
    }
}

/// LeNet rebuilt with a perturbation layer after each conv — the topology
/// rewrite users of the rejected design would have to perform by hand.
#[allow(clippy::vec_init_then_push)]
fn lenet_with_perturb_layers() -> Network {
    let mut rng = SeededRng::new(0x5EED);
    let mut layers: Vec<Box<dyn Module>> = Vec::new();
    layers.push(Box::new(Conv2d::new(
        3,
        6,
        5,
        ConvSpec::new().padding(2),
        &mut rng,
    )));
    layers.push(Box::new(PerturbLayer {
        meta: LayerMeta::default(),
        offset: 10,
        value: 0.42,
    }));
    layers.push(Box::new(Relu::new()));
    layers.push(Box::new(MaxPool2d::new(2, 2)));
    layers.push(Box::new(Conv2d::new(
        6,
        12,
        5,
        ConvSpec::new().padding(2),
        &mut rng,
    )));
    layers.push(Box::new(PerturbLayer {
        meta: LayerMeta::default(),
        offset: usize::MAX, // inert but still pays the copy
        value: 0.0,
    }));
    layers.push(Box::new(Relu::new()));
    layers.push(Box::new(MaxPool2d::new(2, 2)));
    layers.push(Box::new(Flatten::new()));
    layers.push(Box::new(Linear::new(12 * 16, 32, &mut rng)));
    layers.push(Box::new(Relu::new()));
    layers.push(Box::new(Linear::new(32, 10, &mut rng)));
    Network::new(Box::new(Sequential::new(layers)))
}

fn bench_dispatch(c: &mut Criterion) {
    let input = Tensor::rand_normal(&[1, 3, 16, 16], 0.0, 1.0, &mut SeededRng::new(1));
    let mut group = c.benchmark_group("ablation_hook_dispatch");
    group.sample_size(30);

    let mut clean = zoo::lenet(&ZooConfig::tiny(10));
    group.bench_function("clean", |b| {
        b.iter(|| std::hint::black_box(clean.forward(&input)))
    });

    let mut fi = FaultInjector::new(
        zoo::lenet(&ZooConfig::tiny(10)),
        FiConfig::for_input(&[1, 3, 16, 16]),
    )
    .expect("injectable");
    fi.declare_neuron_fi(&[NeuronFault {
        select: NeuronSelect::Exact {
            layer: 0,
            channel: 0,
            y: 1,
            x: 4,
        },
        batch: BatchSelect::All,
        model: Arc::new(models::StuckAt::new(0.42)),
    }])
    .expect("legal fault");
    group.bench_function("hooks_armed", |b| {
        b.iter(|| std::hint::black_box(fi.forward(&input)))
    });

    let mut rewritten = lenet_with_perturb_layers();
    group.bench_function("perturb_layers", |b| {
        b.iter(|| std::hint::black_box(rewritten.forward(&input)))
    });
    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
