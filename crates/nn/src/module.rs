//! The [`Module`] trait, layer identity, and the [`Network`] wrapper.

use crate::hook::{HookRegistry, LayerCtx};
use crate::quantized::Backend;
use rustfi_obs::{Recorder, SpanCtx};
use rustfi_tensor::{Act, BnFoldView, QTensor, SeededRng, Tensor};
use std::fmt;
use std::sync::Arc;

/// Stable identifier of a layer within a [`Network`].
///
/// Ids are assigned in deterministic pre-order when the network is built, so
/// the same architecture always yields the same ids — which is what lets a
/// fault-injection campaign describe sites as `(layer, channel, y, x)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LayerId(u32);

impl LayerId {
    /// Creates a layer id from a raw index.
    pub fn from_index(index: usize) -> Self {
        Self(index as u32)
    }

    /// The raw index of this id.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// What kind of computation a layer performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    Conv2d,
    Linear,
    Relu,
    MaxPool2d,
    AvgPool2d,
    GlobalAvgPool,
    BatchNorm2d,
    Flatten,
    Dropout,
    Sequential,
    Residual,
    Branches,
    ChannelShuffle,
}

impl LayerKind {
    /// Whether the layer computes neurons that fault-injection targets
    /// (convolution and fully-connected outputs, as in the paper).
    pub fn is_injectable(&self) -> bool {
        matches!(self, LayerKind::Conv2d | LayerKind::Linear)
    }

    /// Whether modules of this kind only compose their children. Hooks
    /// never fire on containers, only on the modules they run.
    pub fn is_container(&self) -> bool {
        matches!(
            self,
            LayerKind::Sequential | LayerKind::Residual | LayerKind::Branches
        )
    }

    /// Lower-case short name used when auto-naming layers.
    pub fn short_name(&self) -> &'static str {
        match self {
            LayerKind::Conv2d => "conv",
            LayerKind::Linear => "fc",
            LayerKind::Relu => "relu",
            LayerKind::MaxPool2d => "maxpool",
            LayerKind::AvgPool2d => "avgpool",
            LayerKind::GlobalAvgPool => "gap",
            LayerKind::BatchNorm2d => "bn",
            LayerKind::Flatten => "flatten",
            LayerKind::Dropout => "dropout",
            LayerKind::Sequential => "seq",
            LayerKind::Residual => "residual",
            LayerKind::Branches => "branches",
            LayerKind::ChannelShuffle => "shuffle",
        }
    }
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Identity data every module carries: its id and human-readable name.
#[derive(Debug, Clone, Default)]
pub struct LayerMeta {
    /// Assigned by [`Network::new`]; default placeholder until then.
    pub id: LayerId,
    /// Auto-generated (`conv3`, `fc17`, …) unless set explicitly.
    pub name: String,
}

/// A mutable view of one parameter tensor and its gradient accumulator.
#[derive(Debug)]
pub struct Param<'a> {
    /// The parameter values.
    pub value: &'a mut Tensor,
    /// The accumulated gradient (same shape as `value`).
    pub grad: &'a mut Tensor,
}

/// Activation tap installed via [`Network::forward_with_capture`]: receives
/// every module's id and *input* tensor just before the module runs.
pub type CaptureFn<'a> = &'a mut dyn FnMut(LayerId, &Tensor);

/// How a layer can be absorbed into the preceding conv layer's fused GEMM
/// epilogue when a compiled forward plan is active.
///
/// Layers advertise themselves via [`Module::fuse_partner`]; [`Sequential`]
/// scans its children for `conv → [BatchNorm] → [activation]` runs and folds
/// the partners into the conv's write-back loop. The epilogue replicates the
/// partner kernels' per-element operations exactly, so fused and unfused
/// passes are bit-identical.
///
/// [`Sequential`]: crate::layer::container::Sequential
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusePartner {
    /// `y = max(x, 0)` applied in the GEMM write-back.
    Relu,
    /// Leaky ReLU with the given negative-side slope.
    LeakyRelu(f32),
    /// Inference-mode batch norm folded to a per-channel scale/shift.
    BatchNorm,
}

/// Per-forward-pass context threaded through the module tree.
pub struct ForwardCtx<'a> {
    /// Whether the pass is a training pass (enables dropout, batch-stats BN).
    pub training: bool,
    hooks: &'a HookRegistry,
    rng: &'a mut SeededRng,
    /// Observability sink; `None` keeps the forward path entirely
    /// uninstrumented (one branch per child dispatch).
    recorder: Option<&'a dyn Recorder>,
    /// Activation tap: called with every module's id and *input* tensor just
    /// before the module runs. `None` (the default) keeps the dispatch path
    /// free of the extra call.
    capture: Option<CaptureFn<'a>>,
    /// Arithmetic backend for layers that have a quantized kernel.
    backend: &'a Backend,
    /// Whether the pass runs under a compiled forward plan (prepacked conv
    /// weight panels + fused GEMM epilogues). See [`Network::set_plan`].
    plan: bool,
    /// Where the pass starts, set by [`Network::forward_from`]: the resume
    /// point of the pass's `from` layer, or `None` when the pass starts at
    /// the root. While it is `Some(id)`, each [`Sequential`] on the way runs
    /// from its last child numbered at or below `id` — the child holding it,
    /// ids being pre-order (see [`ForwardCtx::first_child`]). The start is
    /// cleared at `id` itself, which receives the pass's input, so every
    /// module after it runs in full.
    ///
    /// [`Sequential`]: crate::layer::container::Sequential
    start: Option<LayerId>,
    /// Batch broadcast set by [`Network::forward_from`]: layer `id`'s
    /// batch-1 output is repeated `n` times before its forward hooks fire,
    /// so the pass runs at batch 1 through that layer and at batch `n`
    /// after it.
    broadcast: Option<(LayerId, usize)>,
}

impl ForwardCtx<'_> {
    /// Whether convolutions should take their planned (prepacked,
    /// fused-epilogue) forward paths. Plans are inference-only: training
    /// passes need cached activations and batch statistics, so they always
    /// run unplanned.
    pub fn plan_active(&self) -> bool {
        self.plan && !self.training
    }

    /// Whether layer `id`'s hook dispatch has work to do: a forward hook
    /// would fire on it (see [`HookRegistry::has_forward`]), or this pass
    /// broadcasts its output there. Containers consult this before fusing a
    /// group: such a member forces the unfused execution order, so the hook
    /// observes exactly the tensor it would in an unplanned pass and the
    /// broadcast happens at that member's own dispatch.
    pub fn layer_has_hooks(&self, id: LayerId) -> bool {
        self.hooks.has_forward(id) || self.broadcast.is_some_and(|(at, _)| at == id)
    }

    /// RNG stream for stochastic layers (dropout).
    pub fn rng(&mut self) -> &mut SeededRng {
        self.rng
    }

    /// The calibrated INT8 input scale for layer `id`, or `None` when the
    /// pass runs in f32 (default backend, or layer not calibrated). Layers
    /// with a quantized kernel branch on this per forward.
    pub fn input_scale(&self, id: LayerId) -> Option<f32> {
        self.backend.input_scale(id)
    }

    /// Forwards through `child`, wrapping the call in a per-layer span when a
    /// recorder is installed. Containers route every child through this so
    /// the trace shows the module tree as nested spans.
    ///
    /// This is where forward hooks fire, as PyTorch's `Module.__call__` fires
    /// them: after any non-container `child` returns, inside its span, with
    /// `&mut` access to its output. When the pass broadcasts at `child`, its
    /// batch-1 output is first replaced by the batch broadcast, so the hooks
    /// and every later module see batch `n`.
    pub fn forward_child(&mut self, child: &mut dyn Module, input: &Tensor) -> Tensor {
        self.dispatch(child, Some(input), |child, ctx| {
            let mut out = child.forward(input, ctx);
            let kind = child.kind();
            if kind.is_container() {
                return out;
            }
            let meta = child.meta();
            if let Some((_, n)) = ctx.broadcast.take_if(|(id, _)| *id == meta.id) {
                let wide = out.repeat_batch(n);
                std::mem::replace(&mut out, wide).into_pool();
            }
            let fired = ctx.hooks.dispatch_forward(
                &LayerCtx {
                    id: meta.id,
                    name: &meta.name,
                    kind,
                },
                &mut out,
            );
            if fired > 0 {
                if let Some(rec) = ctx.recorder {
                    rec.counter_add("nn.hook_dispatches", fired as u64);
                }
            }
            out
        })
    }

    /// Fused-group analogue of [`ForwardCtx::forward_child`]: runs `child`
    /// (a conv group leader) with the partner batch-norm fold and activation
    /// applied inside its GEMM write-back, firing the capture tap and
    /// recorder span exactly as a normal child dispatch would. It fires no
    /// hooks: containers fuse only groups no hook observes. Returns
    /// `None` when the child has no fused forward (default [`Module`]
    /// implementation) — by then the tap and span have fired, so callers
    /// pass only children that fuse.
    pub fn forward_child_fused(
        &mut self,
        child: &mut dyn Module,
        input: &Tensor,
        bn: Option<BnFoldView<'_>>,
        act: Act,
    ) -> Option<Tensor> {
        self.dispatch(child, Some(input), |child, ctx| {
            child.forward_fused(input, ctx, bn, act)
        })
    }

    /// The index of the first of a `Sequential` container's `children`
    /// that this pass runs: while the pass descends toward its start, the
    /// last child numbered at or below it (ids are pre-order, so that child
    /// holds the start), else 0. The start is cleared when that child is
    /// the start itself.
    pub(crate) fn first_child(&mut self, children: &[Box<dyn Module>]) -> usize {
        let Some(start) = self.start else {
            return 0;
        };
        let i = child_holding(children, start)
            .expect("a pass descends only into the container holding its start");
        if children[i].meta().id == start {
            self.start = None;
        }
        i
    }

    /// The one child dispatch: hands `tap` (the child's input, when this
    /// dispatch is tapped) to the capture tap, then runs `run` inside a
    /// per-layer recorder span when a recorder is installed.
    fn dispatch<R>(
        &mut self,
        child: &mut dyn Module,
        tap: Option<&Tensor>,
        run: impl FnOnce(&mut dyn Module, &mut Self) -> R,
    ) -> R {
        if let (Some(cap), Some(input)) = (self.capture.as_mut(), tap) {
            cap(child.meta().id, input);
        }
        let Some(rec) = self.recorder else {
            return run(child, self);
        };
        let token = rec.layer_enter();
        let out = run(child, self);
        let meta = child.meta();
        rec.layer_exit(
            &SpanCtx {
                name: &meta.name,
                kind: child.kind().short_name(),
                layer: Some(meta.id.index()),
            },
            token,
        );
        out
    }
}

/// Per-backward-pass context threaded through the module tree.
pub struct BackwardCtx<'a> {
    hooks: &'a HookRegistry,
}

impl<'a> BackwardCtx<'a> {
    pub(crate) fn new(hooks: &'a HookRegistry) -> Self {
        Self { hooks }
    }

    /// Propagates `grad_out` back through `child`. Containers route every
    /// child through this, and it is where gradient hooks fire: before any
    /// non-container `child` runs its `backward`, with the gradient flowing
    /// into that child's output.
    pub fn backward_child(&mut self, child: &mut dyn Module, grad_out: &Tensor) -> Tensor {
        let kind = child.kind();
        if !kind.is_container() {
            let meta = child.meta();
            self.hooks.dispatch_grad(
                &LayerCtx {
                    id: meta.id,
                    name: &meta.name,
                    kind,
                },
                grad_out,
            );
        }
        child.backward(grad_out, self)
    }
}

/// A differentiable computation node.
///
/// Implementations cache whatever they need during `forward` so that a
/// subsequent `backward` (with the gradient w.r.t. their output) can return
/// the gradient w.r.t. their input and accumulate parameter gradients.
pub trait Module: Send {
    /// The layer's kind.
    fn kind(&self) -> LayerKind;
    /// Identity data (id, name).
    fn meta(&self) -> &LayerMeta;
    /// Mutable identity data; used by [`Network::new`] to assign ids.
    fn meta_mut(&mut self) -> &mut LayerMeta;

    /// Computes the layer's output. A layer only computes: the dispatch
    /// that called it ([`ForwardCtx::forward_child`]) fires the forward hooks
    /// on what it returns. Containers run their children through that same
    /// dispatch.
    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx<'_>) -> Tensor;

    /// Propagates the gradient, accumulating into parameter gradients.
    /// Containers run their children through
    /// [`BackwardCtx::backward_child`], which fires the gradient hooks.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called without a preceding `forward`.
    fn backward(&mut self, grad_out: &Tensor, ctx: &mut BackwardCtx<'_>) -> Tensor;

    /// Propagates an input shape through this subtree without running it,
    /// returning the output shape or a typed [`ShapeError`] naming the first
    /// layer that cannot accept its input.
    ///
    /// The default — the identity — is correct for every element-wise layer
    /// (activations, dropout). Layers with geometry (conv, linear, pooling,
    /// norm) and all containers override it; in particular [`Residual`] and
    /// [`Branches`] report path-shape disagreements here as typed errors
    /// instead of panicking mid-forward, which is what lets the architecture
    /// fuzzer reject invalid random compositions at build time.
    ///
    /// [`ShapeError`]: crate::shape::ShapeError
    /// [`Residual`]: crate::layer::container::Residual
    /// [`Branches`]: crate::layer::container::Branches
    fn infer_dims(&self, input: &[usize]) -> Result<Vec<usize>, crate::shape::ShapeError> {
        Ok(input.to_vec())
    }

    /// The module's direct children, in the order their subtrees are
    /// numbered. Leaves have none (the default).
    fn children(&self) -> &[Box<dyn Module>] {
        &[]
    }

    /// Mutable access to [`Module::children`].
    fn children_mut(&mut self) -> &mut [Box<dyn Module>] {
        &mut []
    }

    /// Calls `f` for each `(value, grad)` parameter pair, in a deterministic
    /// order. The default walks the children; leaves with parameters
    /// override it.
    fn for_each_param(&mut self, f: &mut dyn FnMut(Param<'_>)) {
        for child in self.children_mut() {
            child.for_each_param(f);
        }
    }

    /// Calls `f` for each persistent tensor (parameters *plus* buffers such
    /// as batch-norm running statistics), in a deterministic order. Used by
    /// checkpointing. The default walks the children; leaves with state
    /// override it.
    fn for_each_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        for child in self.children_mut() {
            child.for_each_state(f);
        }
    }

    /// The layer's weight tensor, if it has one (conv/linear/batch-norm).
    fn weight_mut(&mut self) -> Option<&mut Tensor> {
        None
    }

    /// The layer's bias tensor, if it has one.
    fn bias_mut(&mut self) -> Option<&mut Tensor> {
        None
    }

    /// The layer's cached per-channel quantized weights, if the layer has a
    /// quantized kernel. Builds the cache on first access. Read-only:
    /// stored-word writes go through [`Module::set_qweight_word`], which
    /// keeps the compiled plan's weight panel in step. Mutating the f32
    /// weights (via [`Module::weight_mut`] or the parameter visitors) drops
    /// the cache, so written words do not survive a retrain.
    fn qweight(&mut self) -> Option<&QTensor> {
        None
    }

    /// Writes one stored INT8 weight word — where stored-INT8 weight-fault
    /// campaigns flip bits, and where their undo puts the old word back.
    /// Updates the cached `i8` word at flat index `index` and, when a
    /// compiled plan has packed a conv's weights, the one panel slot holding
    /// it, so a fault or its undo never repacks the layer. Returns `false`
    /// for layers without a quantized kernel.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds for the layer's weights.
    fn set_qweight_word(&mut self, _index: usize, _word: i8) -> bool {
        false
    }

    /// How this layer folds into the preceding conv layer's fused GEMM
    /// epilogue under a compiled forward plan, or `None` (the default)
    /// when it cannot be absorbed.
    fn fuse_partner(&self) -> Option<FusePartner> {
        None
    }

    /// The inference-mode batch-norm fold (running mean, `1/sqrt(var+eps)`,
    /// gamma, beta) for layers that advertise
    /// [`FusePartner::BatchNorm`]. The default — for every other layer — is
    /// `None`.
    fn bn_fold(&mut self) -> Option<BnFoldView<'_>> {
        None
    }

    /// Planned fused forward: computes this layer with the partner batch
    /// norm and activation applied inside the GEMM write-back loop, using
    /// prepacked weight panels. [`Conv2d`] is the only implementation and
    /// the only group leader [`Sequential`] fuses; it is called under an
    /// active plan after verifying that no group member has forward hooks,
    /// so the fused path skips hook dispatch. Returns `None` (the default)
    /// when the layer has no fused implementation.
    ///
    /// [`Conv2d`]: crate::layer::Conv2d
    /// [`Sequential`]: crate::layer::container::Sequential
    fn forward_fused(
        &mut self,
        _input: &Tensor,
        _ctx: &mut ForwardCtx<'_>,
        _bn: Option<BnFoldView<'_>>,
        _act: Act,
    ) -> Option<Tensor> {
        None
    }
}

impl<'m> dyn Module + 'm {
    /// Pre-order traversal over this module and all descendants.
    pub fn visit(&self, f: &mut dyn FnMut(&dyn Module)) {
        f(self);
        for child in self.children() {
            child.visit(f);
        }
    }

    /// Mutable pre-order traversal.
    pub fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Module)) {
        f(self);
        for child in self.children_mut() {
            child.visit_mut(f);
        }
    }

    /// The module numbered `id` in this subtree. The descent needs no
    /// search: ids are pre-order, so the child holding `id` is the last
    /// child numbered at or below it.
    pub fn find_mut(&mut self, id: LayerId) -> Option<&mut (dyn Module + 'm)> {
        let mut m = self;
        while m.meta().id != id {
            let i = child_holding(m.children(), id)?;
            m = m.children_mut()[i].as_mut();
        }
        Some(m)
    }
}

/// The index of the child whose subtree holds `id`: ids are pre-order, so
/// it is the last child numbered at or below `id`. `None` when every child
/// is numbered above `id` (or there are none).
fn child_holding(children: &[Box<dyn Module>], id: LayerId) -> Option<usize> {
    children
        .partition_point(|c| c.meta().id <= id)
        .checked_sub(1)
}

/// Shorthand implementations of [`Module::meta`] and [`Module::meta_mut`]
/// for modules that keep their identity in a `meta` field.
macro_rules! meta_accessors {
    () => {
        fn meta(&self) -> &$crate::module::LayerMeta {
            &self.meta
        }
        fn meta_mut(&mut self) -> &mut $crate::module::LayerMeta {
            &mut self.meta
        }
    };
}
pub(crate) use meta_accessors;

/// Summary of one layer of a built network.
#[derive(Debug, Clone)]
pub struct LayerInfo {
    /// Stable id.
    pub id: LayerId,
    /// Human-readable name.
    pub name: String,
    /// Layer kind.
    pub kind: LayerKind,
    /// Weight shape, if the layer has weights.
    pub weight_dims: Option<Vec<usize>>,
}

/// A module tree plus the shared hook registry — the unit the fault injector
/// wraps.
///
/// Building a `Network` assigns every module a [`LayerId`] in deterministic
/// pre-order, auto-names unnamed layers, and records every module's
/// [`Network::resume_point`].
pub struct Network {
    root: Box<dyn Module>,
    hooks: Arc<HookRegistry>,
    layer_infos: Vec<LayerInfo>,
    /// Each module's resume point, by id.
    resume: Vec<LayerId>,
    rng: SeededRng,
    training: bool,
    recorder: Option<Arc<dyn Recorder>>,
    backend: Backend,
    plan: bool,
}

impl Network {
    /// Wraps a module tree, assigning ids and names.
    pub fn new(root: Box<dyn Module>) -> Self {
        let mut root = root;
        let mut layer_infos = Vec::new();
        let mut resume = Vec::new();
        // The outermost module that is not a `Sequential` whose subtree the
        // visit is in, as (id, one past its last descendant's index).
        let mut block: Option<(LayerId, usize)> = None;
        root.visit_mut(&mut |m| {
            let kind = m.kind();
            let id = LayerId(layer_infos.len() as u32);
            let meta = m.meta_mut();
            meta.id = id;
            if meta.name.is_empty() {
                meta.name = format!("{}{}", kind.short_name(), id.0);
            }
            let name = meta.name.clone();
            match block {
                Some((at, end)) if id.index() < end => resume.push(at),
                _ => {
                    resume.push(id);
                    if kind != LayerKind::Sequential {
                        let mut size = 0;
                        m.visit(&mut |_| size += 1);
                        block = Some((id, id.index() + size));
                    }
                }
            }
            let weight_dims = m.weight_mut().map(|w| w.dims().to_vec());
            layer_infos.push(LayerInfo {
                id,
                name,
                kind,
                weight_dims,
            });
        });
        Self {
            root,
            hooks: Arc::new(HookRegistry::new()),
            layer_infos,
            resume,
            rng: SeededRng::new(0xD0_07),
            training: false,
            recorder: None,
            backend: Backend::Fp32,
            plan: false,
        }
    }

    /// Enables (or disables) the compiled forward plan, which covers
    /// convolutions only: conv weight panels are prepacked for the
    /// register-tiled GEMM kernels, and `conv → [bn] → [activation]` runs in
    /// [`Sequential`] containers fuse into a single GEMM with the partner ops
    /// applied in its write-back loop. Every other layer, linear layers
    /// included, runs its reference forward.
    ///
    /// Planned passes are **bit-identical** to unplanned ones (panels keep
    /// the kernels' k-accumulation order; epilogues replicate the partner
    /// kernels' per-element ops) and **inference-only**: training passes
    /// always run unplanned, and a planned forward does not cache the
    /// activations `backward` needs. Groups with forward hooks on any member
    /// automatically fall back to the unfused order, so injection hooks
    /// observe exactly the tensors they would without a plan.
    ///
    /// [`Sequential`]: crate::layer::container::Sequential
    pub fn set_plan(&mut self, plan: bool) {
        self.plan = plan;
    }

    /// Whether the compiled forward plan is enabled.
    pub fn plan(&self) -> bool {
        self.plan
    }

    /// Selects the arithmetic backend for layers with quantized kernels
    /// (conv/linear). [`Backend::Fp32`] is the default; see
    /// [`crate::quantized`] for the INT8 path.
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    /// The currently installed arithmetic backend.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// Installs (or removes, with `None`) the observability recorder.
    ///
    /// With a recorder installed, every forward pass emits one span per
    /// module and counts hook dispatches; with `None` (the default) the
    /// forward path stays uninstrumented apart from one branch per child.
    pub fn set_recorder(&mut self, recorder: Option<Arc<dyn Recorder>>) {
        self.recorder = recorder;
    }

    /// The currently installed observability recorder, if any.
    pub fn recorder(&self) -> Option<Arc<dyn Recorder>> {
        self.recorder.clone()
    }

    /// The shared hook registry.
    pub fn hooks(&self) -> &Arc<HookRegistry> {
        &self.hooks
    }

    /// Per-layer summaries in id order.
    pub fn layer_infos(&self) -> &[LayerInfo] {
        &self.layer_infos
    }

    /// Ids of layers whose outputs are injectable neurons (conv + linear).
    pub fn injectable_layers(&self) -> Vec<LayerId> {
        self.layer_infos
            .iter()
            .filter(|l| l.kind.is_injectable())
            .map(|l| l.id)
            .collect()
    }

    /// Number of modules (containers included).
    pub fn module_count(&self) -> usize {
        self.layer_infos.len()
    }

    /// Switches between training mode (dropout active, BN batch statistics)
    /// and inference mode.
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    /// Whether the network is in training mode.
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// Reseeds the stream used by stochastic layers (dropout).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SeededRng::new(seed);
    }

    /// Runs a forward pass, dispatching forward hooks after every
    /// non-container module.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let (mut ctx, root) = self.forward_ctx();
        ctx.forward_child(root, input)
    }

    /// Runs a forward pass like [`Network::forward`], additionally calling
    /// `capture` with every module's id and input activation just before
    /// that module executes. The tensors handed to `capture` are the live
    /// intermediates — clone what you keep.
    ///
    /// This is how a campaign snapshots golden prefix activations: capture
    /// the input of an injection layer's [`Network::resume_point`], then
    /// start trial passes there with [`Network::forward_from`]`(Some(layer),
    /// ..)`.
    pub fn forward_with_capture(
        &mut self,
        input: &Tensor,
        capture: &mut dyn FnMut(LayerId, &Tensor),
    ) -> Tensor {
        let (mut ctx, root) = self.forward_ctx();
        ctx.capture = Some(capture);
        ctx.forward_child(root, input)
    }

    /// The module whose input must be cached to later resume a forward pass
    /// just before `target` (see [`Network::forward_from`]): the outermost
    /// module on the path from the root to `target` that is `target` itself
    /// or not a [`Sequential`]. A `Sequential` can skip the children before
    /// the one holding `target`, but any other container (a residual or
    /// branch block) needs its whole input, so the descent stops there.
    /// `None` when `target` is not a module of this network. A lookup:
    /// [`Network::new`] computes every module's resume point once.
    ///
    /// [`Sequential`]: crate::layer::container::Sequential
    pub fn resume_point(&self, target: LayerId) -> Option<LayerId> {
        self.resume.get(target.index()).copied()
    }

    /// Runs a forward pass that starts at `from` and is `broadcast` wide.
    ///
    /// `from` is `None` for a pass from the network input. Otherwise the
    /// pass skips every module that runs before
    /// [`Network::resume_point`]`(from)` and feeds `input` — the activation
    /// that resume point received in a full pass (see
    /// [`Network::forward_with_capture`]) — to the rest. A layer inside a
    /// residual or branch block resumes at that block. The skip needs no
    /// search: ids are pre-order, so each [`Sequential`] on the way starts
    /// at its last child numbered at or below the resume point. Returns
    /// `None` when `from` is not a layer of this network.
    ///
    /// Resuming is exact only when the skipped prefix is fault-free and the
    /// pass is inference-mode: skipped layers neither run their forward
    /// hooks nor draw from the dropout RNG stream.
    ///
    /// `broadcast: Some((target, n))` runs `n` identical batch slices from
    /// the batch-1 `input`, and the result equals the pass on
    /// `input.repeat_batch(n)`. When `target` is an injectable layer that is
    /// its own resume point, the pass runs at batch 1 up to and including
    /// `target`, and `target`'s output is broadcast to batch `n` before its
    /// forward hooks fire. Inference layers are pointwise in the batch, so
    /// on `n` identical slices that output *is* the broadcast: `target`'s
    /// hooks and every later layer see exactly the tensors of the
    /// repeated-input pass, and hooks on the layers before `target` see the
    /// batch-1 tensors every slice shares. Any other target (a layer inside
    /// a residual or branch block, whose other path would carry batch 1 past
    /// it) and any training pass run on the repeated input. The target must
    /// not run before the pass's start. Without a broadcast the pass neither
    /// repeats nor copies `input`.
    ///
    /// [`Sequential`]: crate::layer::container::Sequential
    pub fn forward_from(
        &mut self,
        from: Option<LayerId>,
        input: &Tensor,
        broadcast: Option<(LayerId, usize)>,
    ) -> Option<Tensor> {
        let start = match from {
            Some(id) => Some(self.resume_point(id)?),
            None => None,
        };
        let at_target = broadcast.filter(|&(target, _)| {
            !self.training
                && self
                    .layer_infos
                    .get(target.index())
                    .is_some_and(|l| l.kind.is_injectable())
                && self.resume_point(target) == Some(target)
        });
        let wide = match (broadcast, at_target) {
            (Some((_, n)), None) => Some(input.repeat_batch(n)),
            _ => None,
        };
        let (mut ctx, root) = self.forward_ctx();
        // A pass that resumes at the root (id 0) runs all of it.
        ctx.start = start.filter(|&at| at != LayerId(0));
        ctx.broadcast = at_target;
        let out = ctx.forward_child(root, wide.as_ref().unwrap_or(input));
        debug_assert!(
            ctx.broadcast.is_none(),
            "{broadcast:?} never ran after the pass's start"
        );
        if let Some(wide) = wide {
            wide.into_pool();
        }
        Some(out)
    }

    /// A forward context over this network's mode, hooks, RNG, recorder,
    /// backend and plan, split from the root module it runs.
    fn forward_ctx(&mut self) -> (ForwardCtx<'_>, &mut dyn Module) {
        let ctx = ForwardCtx {
            training: self.training,
            hooks: &self.hooks,
            rng: &mut self.rng,
            recorder: self.recorder.as_deref(),
            capture: None,
            backend: &self.backend,
            plan: self.plan,
            start: None,
            broadcast: None,
        };
        (ctx, self.root.as_mut())
    }

    /// Runs a backward pass from the gradient of the loss w.r.t. the output
    /// of the last forward pass; returns the gradient w.r.t. the input.
    ///
    /// Parameter gradients accumulate; call [`Network::zero_grad`] between
    /// optimization steps.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        BackwardCtx::new(&self.hooks).backward_child(self.root.as_mut(), grad_out)
    }

    /// Zeroes all accumulated parameter gradients.
    pub fn zero_grad(&mut self) {
        self.root.for_each_param(&mut |p| {
            for g in p.grad.data_mut() {
                *g = 0.0;
            }
        });
    }

    /// Visits every `(value, grad)` parameter pair in deterministic order.
    pub fn for_each_param(&mut self, f: &mut dyn FnMut(Param<'_>)) {
        self.root.for_each_param(f);
    }

    /// Visits every persistent tensor (parameters + buffers).
    pub fn for_each_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.root.for_each_state(f);
    }

    /// Total number of scalar parameters.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.root.for_each_param(&mut |p| n += p.value.len());
        n
    }

    /// Mutable access to a layer's weight tensor by id.
    pub fn layer_weight_mut(&mut self, id: LayerId) -> Option<&mut Tensor> {
        self.root.find_mut(id).and_then(|m| m.weight_mut())
    }

    /// Mutable access to a layer's bias tensor by id.
    pub fn layer_bias_mut(&mut self, id: LayerId) -> Option<&mut Tensor> {
        self.root.find_mut(id).and_then(|m| m.bias_mut())
    }

    /// A layer's cached quantized weights by id, building the cache if
    /// needed (see [`Module::qweight`]). `None` for layers without a
    /// quantized kernel.
    pub fn layer_qweight(&mut self, id: LayerId) -> Option<&QTensor> {
        self.root.find_mut(id).and_then(|m| m.qweight())
    }

    /// Writes one stored INT8 weight word of a layer by id, patching a
    /// conv's compiled-plan panel slot too (see [`Module::set_qweight_word`]).
    /// Returns `false` when no such layer has a quantized kernel.
    pub fn set_layer_qweight_word(&mut self, id: LayerId, index: usize, word: i8) -> bool {
        self.root
            .find_mut(id)
            .is_some_and(|m| m.set_qweight_word(index, word))
    }

    /// Propagates an input shape through the module tree without running it
    /// (see [`Module::infer_dims`]). A forward pass on a tensor of shape
    /// `input` returns exactly the inferred shape when this succeeds; when
    /// it fails, the typed error names the first layer whose geometry
    /// rejects its input.
    pub fn infer_dims(&self, input: &[usize]) -> Result<Vec<usize>, crate::shape::ShapeError> {
        self.root.infer_dims(input)
    }

    /// Immutable visit over the module tree.
    pub fn visit(&self, f: &mut dyn FnMut(&dyn Module)) {
        self.root.visit(f);
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Network ({} modules):", self.layer_infos.len())?;
        for info in &self.layer_infos {
            write!(f, "  {} {} [{}]", info.id, info.name, info.kind)?;
            if let Some(w) = &info.weight_dims {
                write!(f, " weights {w:?}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::container::Sequential;
    use crate::layer::{Conv2d, Relu};

    fn tiny_net() -> Network {
        let mut rng = SeededRng::new(1);
        Network::new(Box::new(Sequential::new(vec![
            Box::new(Conv2d::new(
                3,
                4,
                3,
                rustfi_tensor::ConvSpec::new().padding(1),
                &mut rng,
            )),
            Box::new(Relu::new()),
            Box::new(Conv2d::new(
                4,
                2,
                3,
                rustfi_tensor::ConvSpec::new().padding(1),
                &mut rng,
            )),
        ])))
    }

    #[test]
    fn ids_are_assigned_in_preorder() {
        let net = tiny_net();
        let infos = net.layer_infos();
        // Pre-order: Sequential, conv, relu, conv.
        assert_eq!(infos.len(), 4);
        assert_eq!(infos[0].kind, LayerKind::Sequential);
        assert_eq!(infos[1].kind, LayerKind::Conv2d);
        assert_eq!(infos[2].kind, LayerKind::Relu);
        assert_eq!(infos[3].kind, LayerKind::Conv2d);
        for (i, info) in infos.iter().enumerate() {
            assert_eq!(info.id.index(), i);
        }
    }

    #[test]
    fn names_are_auto_generated() {
        let net = tiny_net();
        assert_eq!(net.layer_infos()[1].name, "conv1");
        assert_eq!(net.layer_infos()[2].name, "relu2");
    }

    #[test]
    fn injectable_layers_are_convs() {
        let net = tiny_net();
        let inj = net.injectable_layers();
        assert_eq!(inj.len(), 2);
        assert_eq!(inj[0].index(), 1);
        assert_eq!(inj[1].index(), 3);
    }

    #[test]
    fn identical_construction_gives_identical_ids_and_params() {
        let mut a = tiny_net();
        let mut b = tiny_net();
        assert_eq!(a.param_count(), b.param_count());
        let x = Tensor::ones(&[1, 3, 6, 6]);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn layer_weight_mut_finds_conv() {
        let mut net = tiny_net();
        let conv_id = net.injectable_layers()[0];
        let w = net.layer_weight_mut(conv_id).expect("conv has weights");
        assert_eq!(w.dims(), &[4, 3, 3, 3]);
        // Relu has no weights.
        let relu_id = net.layer_infos()[2].id;
        assert!(net.layer_weight_mut(relu_id).is_none());
    }

    #[test]
    fn weight_mutation_changes_output() {
        let mut net = tiny_net();
        let x = Tensor::ones(&[1, 3, 6, 6]);
        let before = net.forward(&x);
        let conv_id = net.injectable_layers()[0];
        net.layer_weight_mut(conv_id).unwrap().data_mut()[0] += 10.0;
        let after = net.forward(&x);
        assert_ne!(before, after);
    }

    #[test]
    fn param_count_matches_architecture() {
        let mut net = tiny_net();
        // conv1: 4*3*3*3 + 4 = 112; conv3: 2*4*3*3 + 2 = 74.
        assert_eq!(net.param_count(), 112 + 74);
    }

    #[test]
    fn zero_grad_clears_accumulated_gradients() {
        let mut net = tiny_net();
        let x = Tensor::ones(&[1, 3, 6, 6]);
        let y = net.forward(&x);
        net.backward(&Tensor::ones(y.dims()));
        let mut nonzero = 0;
        net.for_each_param(&mut |p| nonzero += p.grad.data().iter().filter(|&&g| g != 0.0).count());
        assert!(nonzero > 0, "backward should have produced gradients");
        net.zero_grad();
        let mut remaining = 0;
        net.for_each_param(&mut |p| {
            remaining += p.grad.data().iter().filter(|&&g| g != 0.0).count()
        });
        assert_eq!(remaining, 0);
    }

    #[test]
    fn debug_lists_layers() {
        let net = tiny_net();
        let s = format!("{net:?}");
        assert!(s.contains("conv1"));
        assert!(s.contains("weights [4, 3, 3, 3]"));
    }

    #[test]
    fn layer_id_display() {
        assert_eq!(LayerId::from_index(7).to_string(), "L7");
    }

    #[test]
    fn recorder_captures_layer_spans_without_changing_output() {
        let mut net = tiny_net();
        let x = Tensor::ones(&[1, 3, 6, 6]);
        let plain = net.forward(&x);

        let rec = Arc::new(rustfi_obs::TraceRecorder::new());
        net.set_recorder(Some(rec.clone()));
        assert!(net.recorder().is_some());
        let recorded = net.forward(&x);
        assert_eq!(plain, recorded, "recording must not perturb the forward");

        let snap = rec.snapshot();
        // One span per module: seq, conv, relu, conv.
        assert_eq!(snap.spans.len(), 4);
        let names: Vec<_> = snap.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"conv1") && names.contains(&"relu2"));
        let seq = snap.spans.iter().find(|s| s.kind == "seq").unwrap();
        assert_eq!(seq.layer, Some(0));
        for child in snap.spans.iter().filter(|s| s.layer != Some(0)) {
            assert!(
                child.start_ns >= seq.start_ns
                    && child.start_ns + child.dur_ns <= seq.start_ns + seq.dur_ns,
                "child spans nest inside the root span"
            );
        }

        net.set_recorder(None);
        assert_eq!(net.forward(&x), plain);
        assert_eq!(rec.snapshot().spans.len(), 4, "no spans after removal");
    }

    #[test]
    fn capture_taps_every_module_input_without_changing_output() {
        let mut net = tiny_net();
        let x = Tensor::ones(&[1, 3, 6, 6]);
        let plain = net.forward(&x);
        let mut taps: Vec<(usize, Vec<usize>)> = Vec::new();
        let out = net.forward_with_capture(&x, &mut |id, input| {
            taps.push((id.index(), input.dims().to_vec()));
        });
        assert_eq!(out, plain, "capturing must not perturb the forward");
        // Root (seq), conv, relu, conv — in dispatch order.
        assert_eq!(taps.len(), 4);
        assert_eq!(taps[0], (0, vec![1, 3, 6, 6]));
        assert_eq!(taps[1], (1, vec![1, 3, 6, 6]));
        assert_eq!(taps[2], (2, vec![1, 4, 6, 6]));
        assert_eq!(taps[3], (3, vec![1, 4, 6, 6]));
    }

    #[test]
    fn forward_from_cached_input_is_bit_identical() {
        let mut net = tiny_net();
        let x = Tensor::ones(&[1, 3, 6, 6]);
        // Capture the input of the second conv (id 3), then resume there.
        let target = net.injectable_layers()[1];
        assert_eq!(net.resume_point(target), Some(target), "spine layer");
        let mut cached: Option<Tensor> = None;
        let full = net.forward_with_capture(&x, &mut |id, input| {
            if id == target {
                cached = Some(input.clone());
            }
        });
        let resumed = net
            .forward_from(Some(target), &cached.expect("captured"), None)
            .unwrap();
        assert_eq!(resumed, full);
    }

    #[test]
    fn forward_from_skips_hooks_before_the_resume_point() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut net = tiny_net();
        let x = Tensor::ones(&[1, 3, 6, 6]);
        let target = net.injectable_layers()[1];
        let mut cached: Option<Tensor> = None;
        net.forward_with_capture(&x, &mut |id, input| {
            if id == target {
                cached = Some(input.clone());
            }
        });
        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        net.hooks().register_forward_all(move |_, _| {
            f.fetch_add(1, Ordering::Relaxed);
        });
        net.forward(&x);
        assert_eq!(fired.swap(0, Ordering::Relaxed), 3, "all leaves hook");
        net.forward_from(Some(target), &cached.unwrap(), None)
            .unwrap();
        assert_eq!(
            fired.load(Ordering::Relaxed),
            1,
            "only the resumed conv dispatches hooks"
        );
    }

    #[test]
    fn any_id_in_a_non_sequential_root_resumes_at_the_root() {
        use crate::layer::container::Residual;
        let mut rng = SeededRng::new(2);
        let body = Sequential::new(vec![
            Box::new(Conv2d::new(
                3,
                3,
                3,
                rustfi_tensor::ConvSpec::new().padding(1),
                &mut rng,
            )),
            Box::new(Relu::new()),
        ]);
        let mut net = Network::new(Box::new(Residual::new(Box::new(body))));
        let x = Tensor::ones(&[1, 3, 6, 6]);
        let full = net.forward(&x);
        for id in 0..net.layer_infos().len() {
            let id = LayerId::from_index(id);
            assert_eq!(net.resume_point(id), Some(LayerId::from_index(0)));
            assert_eq!(net.forward_from(Some(id), &x, None), Some(full.clone()));
        }
    }

    #[test]
    fn forward_from_unknown_target_is_none() {
        let mut net = tiny_net();
        assert!(net
            .forward_from(
                Some(LayerId::from_index(99)),
                &Tensor::ones(&[1, 3, 6, 6]),
                None
            )
            .is_none());
        assert!(net.resume_point(LayerId::from_index(99)).is_none());
    }

    #[test]
    fn grad_hooks_fire_once_per_leaf_in_reverse_preorder() {
        use crate::layer::container::Residual;
        use crate::layer::{Flatten, Linear};
        use std::sync::Mutex;
        let mut rng = SeededRng::new(3);
        let spec = rustfi_tensor::ConvSpec::new();
        let body = Sequential::new(vec![
            Box::new(Conv2d::new(2, 2, 3, spec.padding(1), &mut rng)),
            Box::new(Relu::new()),
        ]);
        let mut net = Network::new(Box::new(Sequential::new(vec![
            Box::new(Conv2d::new(3, 2, 1, spec, &mut rng)),
            Box::new(Residual::new(Box::new(body))),
            Box::new(Flatten::new()),
            Box::new(Linear::new(2 * 4 * 4, 3, &mut rng)),
        ])));
        // A hook on every module: the containers' must never fire.
        let fired = Arc::new(Mutex::new(Vec::new()));
        for info in net.layer_infos() {
            let log = Arc::clone(&fired);
            net.hooks().register_grad(info.id, move |ctx, g| {
                log.lock()
                    .unwrap()
                    .push((ctx.id, ctx.kind, g.dims().to_vec()));
            });
        }
        let y = net.forward(&Tensor::ones(&[1, 3, 4, 4]));
        net.backward(&Tensor::ones(y.dims()));
        let mut leaves: Vec<_> = net
            .layer_infos()
            .iter()
            .filter(|l| !l.kind.is_container())
            .map(|l| (l.id, l.kind))
            .collect();
        leaves.reverse();
        let fired = fired.lock().unwrap();
        let order: Vec<_> = fired.iter().map(|&(id, kind, _)| (id, kind)).collect();
        assert_eq!(order, leaves);
        assert_eq!(
            fired[0].2,
            [1, 3],
            "the head sees the gradient of its output"
        );
    }

    #[test]
    fn hook_dispatches_are_counted_when_recording() {
        let mut net = tiny_net();
        let rec = Arc::new(rustfi_obs::TraceRecorder::new());
        net.set_recorder(Some(rec.clone()));
        let x = Tensor::ones(&[1, 3, 6, 6]);
        net.forward(&x);
        assert_eq!(
            rec.snapshot().counters.get("nn.hook_dispatches"),
            None,
            "no hooks registered, nothing counted"
        );
        net.hooks().register_forward_all(|_, _| {});
        net.forward(&x);
        // Three leaf layers (conv, relu, conv) each dispatch the all-hook.
        assert_eq!(rec.snapshot().counters.get("nn.hook_dispatches"), Some(&3));
    }
}
