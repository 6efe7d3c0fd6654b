//! The [`FaultInjector`]: wraps a network, profiles it, and instruments
//! perturbations through forward hooks (neurons) or offline weight mutation.

use crate::config::FiConfig;
use crate::error::FiError;
use crate::location::{BatchSelect, NeuronSelect, NeuronSite, WeightSelect, WeightSite};
use crate::perturbation::{PerturbCtx, PerturbationModel};
use crate::profile::ModelProfile;
use parking_lot::Mutex;
use rustfi_nn::{Backend, CalibrationTable, HookHandle, LayerId, Network};
use rustfi_obs::{Event as ObsEvent, InjectionEvent, InjectionSite, Recorder};
use rustfi_quant::int8;
use rustfi_tensor::{qkernels, SeededRng, Tensor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Sentinel stored in the shared trial cell when no campaign trial is
/// active (provenance events then carry `trial: None`).
const NO_TRIAL: usize = usize::MAX;

/// Which quantization regime an injector (and by extension a campaign) runs
/// its forwards under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantMode {
    /// Plain FP32 inference — the default.
    #[default]
    Off,
    /// FP32 kernels with every injectable layer's output snapped to the
    /// INT8 grid (the paper's §IV-A emulation); see
    /// [`FaultInjector::enable_int8_activations`].
    Simulated,
    /// Real INT8 inference: integer conv/linear kernels over stored `i8`
    /// weight words with statically calibrated input scales, and faults
    /// that flip bits directly in the stored words; see
    /// [`FaultInjector::enable_int8_backend`].
    Int8,
}

/// Applies `model` to one activation value, routing through the stored-word
/// form ([`PerturbationModel::perturb_i8`]) when the injector runs real INT8
/// inference. The value is quantized against the slice's dynamic scale
/// (`max|slice| / 127` — the grid a quantized consumer would store it on),
/// the model flips bits in that word, and the word is read back. Models
/// without an integer form fall back to their f32 `perturb` (which then sees
/// the scale via [`PerturbCtx::quant_scale`]). Returns the new value plus
/// the before/after words when the fault landed in a stored word.
fn perturb_activation(
    model: &dyn PerturbationModel,
    old: f32,
    int8_words: bool,
    ctx: &mut PerturbCtx<'_>,
) -> (f32, Option<(i8, i8)>) {
    if int8_words {
        let scale = qkernels::scale_for_max_abs(ctx.tensor_max_abs);
        ctx.quant_scale = Some(scale);
        let word = qkernels::quantize_one(old, scale);
        if let Some(new_word) = model.perturb_i8(word, ctx) {
            return (
                qkernels::dequantize_one(new_word, scale),
                Some((word, new_word)),
            );
        }
    }
    (model.perturb(old, ctx), None)
}

/// The single flipped bit of a stored-word perturbation, when the two words
/// differ in exactly one bit.
fn word_bit(old_w: i8, new_w: i8) -> Option<u32> {
    let diff = (old_w as u8) ^ (new_w as u8);
    (diff.count_ones() == 1).then(|| diff.trailing_zeros())
}

/// Event `bit` field for one perturbation: the stored-word bit on the INT8
/// path, else the FP32 bit derived from the value pair.
fn event_bit(old: f32, new: f32, words: Option<(i8, i8)>) -> Option<u32> {
    match words {
        Some((ow, nw)) => word_bit(ow, nw),
        None => InjectionEvent::flipped_bit(old, new),
    }
}

/// One declared neuron fault: where ([`NeuronSelect`] × [`BatchSelect`]) and
/// what ([`PerturbationModel`]).
#[derive(Clone)]
pub struct NeuronFault {
    /// Site selection.
    pub select: NeuronSelect,
    /// Batch semantics.
    pub batch: BatchSelect,
    /// The perturbation to apply.
    pub model: Arc<dyn PerturbationModel>,
}

impl std::fmt::Debug for NeuronFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NeuronFault")
            .field("select", &self.select)
            .field("batch", &self.batch)
            .field("model", &self.model.name())
            .finish()
    }
}

/// One trial's slice of a fused campaign batch: pre-resolved sites (all in
/// one injectable layer), the perturbation model, and the trial's seed for
/// exec-time randomness. See [`FaultInjector::declare_fused_neuron_fi`].
#[derive(Clone)]
pub struct FusedTrialFault {
    /// Campaign trial index (event provenance).
    pub trial: usize,
    /// The trial's derived seed; the slice perturbs with
    /// `SeededRng::new(seed).fork(2)`, the serial exec stream.
    pub seed: u64,
    /// Resolved sites, all targeting the same layer.
    pub sites: Vec<NeuronSite>,
    /// The perturbation to apply.
    pub model: Arc<dyn PerturbationModel>,
}

impl std::fmt::Debug for FusedTrialFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusedTrialFault")
            .field("trial", &self.trial)
            .field("sites", &self.sites)
            .field("model", &self.model.name())
            .finish()
    }
}

/// One declared weight fault.
#[derive(Clone)]
pub struct WeightFault {
    /// Site selection.
    pub select: WeightSelect,
    /// The perturbation to apply.
    pub model: Arc<dyn PerturbationModel>,
}

impl std::fmt::Debug for WeightFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WeightFault")
            .field("select", &self.select)
            .field("model", &self.model.name())
            .finish()
    }
}

/// What every neuron-fault hook shares with its injector: the applied
/// count, the recorder, and whether faults flip stored INT8 words.
struct NeuronHookSink {
    applied: Arc<AtomicUsize>,
    recorder: Arc<Mutex<Option<Arc<dyn Recorder>>>>,
    int8_words: bool,
}

impl NeuronHookSink {
    /// Perturbs the neuron at `site` in batch slice `slice` of the layer
    /// output `out` (linear outputs `[n, f]` read as `[n, f, 1, 1]`): writes
    /// the new value back, counts it, and records an [`InjectionEvent`]
    /// tagged `trial` at batch `ctx.batch`. The caller's `ctx` carries its
    /// batch index, max-abs and RNG stream. A site outside the live tensor,
    /// which is smaller than the profiled one, is skipped rather than
    /// corrupting the wrong neuron.
    fn perturb(
        &self,
        out: &mut Tensor,
        slice: usize,
        site: &NeuronSite,
        model: &dyn PerturbationModel,
        mut ctx: PerturbCtx<'_>,
        trial: Option<usize>,
    ) {
        let (c, h, w) = match *out.dims() {
            [_, c, h, w] => (c, h, w),
            [_, f] => (f, 1, 1),
            ref other => panic!("injectable output of rank {}", other.len()),
        };
        if site.channel >= c || site.y >= h || site.x >= w {
            return;
        }
        let off = ((slice * c + site.channel) * h + site.y) * w + site.x;
        let old = out.data()[off];
        let (new, words) = perturb_activation(model, old, self.int8_words, &mut ctx);
        out.data_mut()[off] = new;
        self.applied.fetch_add(1, Ordering::Relaxed);
        if let Some(rec) = self.recorder.lock().as_ref() {
            rec.event(ObsEvent::Injection(InjectionEvent {
                trial,
                layer: site.layer,
                site: InjectionSite::Neuron {
                    batch: ctx.batch,
                    channel: site.channel,
                    y: site.y,
                    x: site.x,
                },
                bit: event_bit(old, new, words),
                before: old,
                after: new,
            }));
            rec.counter_add("fi.injections", 1);
            if words.is_some() {
                rec.counter_add("fi.int8_word_flips", 1);
            }
        }
    }
}

/// Runtime perturbation instrument for one network.
///
/// Construction runs a single dummy inference to profile the model (layer
/// count, feature-map geometry), used for legality checks and debugging
/// messages. Neuron faults are installed as forward hooks; weight faults
/// mutate weight tensors offline with undo records. [`restore`] returns the
/// network to its clean state.
///
/// [`restore`]: FaultInjector::restore
pub struct FaultInjector {
    net: Network,
    profile: ModelProfile,
    config: FiConfig,
    handles: Vec<HookHandle>,
    quant_handle: Option<HookHandle>,
    /// Calibration table of the real INT8 backend, when installed. Its
    /// presence is what routes declared faults through stored-word flips.
    int8_table: Option<Arc<CalibrationTable>>,
    weight_undo: Vec<(usize, usize, f32)>,
    /// Undo log for stored-word weight flips: (layer, word index, old word).
    qweight_undo: Vec<(usize, usize, i8)>,
    plan_rng: SeededRng,
    exec_rng: Arc<Mutex<SeededRng>>,
    applied: Arc<AtomicUsize>,
    /// Shared with already-installed hook closures, so `set_recorder` takes
    /// effect regardless of declare/install order.
    recorder: Arc<Mutex<Option<Arc<dyn Recorder>>>>,
    /// Current campaign trial ([`NO_TRIAL`] outside campaigns); shared with
    /// hook closures for event provenance.
    trial: Arc<AtomicUsize>,
}

impl FaultInjector {
    /// Wraps `net`, running the profiling inference described by `config`.
    ///
    /// # Errors
    ///
    /// Returns [`FiError::NoInjectableLayers`] if the model has no conv or
    /// linear layers.
    pub fn new(mut net: Network, config: FiConfig) -> Result<Self, FiError> {
        let profile = ModelProfile::discover(&mut net, config.input_dims());
        if profile.is_empty() {
            return Err(FiError::NoInjectableLayers);
        }
        let root = SeededRng::new(config.seed);
        Ok(Self {
            net,
            profile,
            config,
            handles: Vec::new(),
            quant_handle: None,
            int8_table: None,
            weight_undo: Vec::new(),
            qweight_undo: Vec::new(),
            plan_rng: root.fork(1),
            exec_rng: Arc::new(Mutex::new(root.fork(2))),
            applied: Arc::new(AtomicUsize::new(0)),
            recorder: Arc::new(Mutex::new(None)),
            trial: Arc::new(AtomicUsize::new(NO_TRIAL)),
        })
    }

    /// Installs (or removes, with `None`) an observability recorder on both
    /// the injector and the wrapped network.
    ///
    /// With a recorder installed, every applied perturbation emits an
    /// [`InjectionEvent`] (layer, site, flipped bit when derivable, value
    /// before/after) and counts under `fi.injections`; the network emits
    /// per-layer forward spans. Takes effect for faults already declared.
    pub fn set_recorder(&mut self, recorder: Option<Arc<dyn Recorder>>) {
        *self.recorder.lock() = recorder.clone();
        self.net.set_recorder(recorder);
    }

    /// Tags subsequently emitted injection events with a campaign trial
    /// index. Pass `None` outside campaigns.
    pub fn set_trial(&mut self, trial: Option<usize>) {
        self.trial
            .store(trial.unwrap_or(NO_TRIAL), Ordering::Relaxed);
    }

    /// The model profile from the dummy inference.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// The wrapped network.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the wrapped network.
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Unwraps the injector, returning the network (with any still-declared
    /// faults removed and weights restored).
    pub fn into_inner(mut self) -> Network {
        self.restore();
        self.net
    }

    /// Re-seeds fault planning and perturbation randomness; used by
    /// campaigns to give every trial an independent, reproducible stream.
    pub fn reseed(&mut self, seed: u64) {
        let root = SeededRng::new(seed);
        self.plan_rng = root.fork(1);
        *self.exec_rng.lock() = root.fork(2);
    }

    /// Number of individual value perturbations applied since construction.
    pub fn injections_applied(&self) -> usize {
        self.applied.load(Ordering::Relaxed)
    }

    /// The injector state a neuron-fault hook closure shares. The INT8
    /// routing is captured at declare time: campaigns install the quant
    /// regime before declaring faults.
    fn neuron_hook_sink(&self) -> NeuronHookSink {
        NeuronHookSink {
            applied: Arc::clone(&self.applied),
            recorder: Arc::clone(&self.recorder),
            int8_words: self.int8_table.is_some(),
        }
    }

    /// Declares neuron faults, installing one forward hook per affected
    /// layer. Returns the concrete resolved sites.
    ///
    /// Random selections are resolved *now* (against the profile, with the
    /// injector's planning RNG); perturbation-value randomness happens at
    /// hook time.
    ///
    /// # Errors
    ///
    /// Returns [`FiError`] if any selection is illegal for the profiled
    /// model; in that case no hooks are installed.
    pub fn declare_neuron_fi(
        &mut self,
        faults: &[NeuronFault],
    ) -> Result<Vec<NeuronSite>, FiError> {
        // Resolve everything first so failures leave the injector unchanged.
        let mut resolved: Vec<(NeuronSite, Arc<dyn PerturbationModel>)> = Vec::new();
        for fault in faults {
            for site in fault
                .select
                .resolve(&self.profile, fault.batch, &mut self.plan_rng)?
            {
                resolved.push((site, Arc::clone(&fault.model)));
            }
        }
        let sites: Vec<NeuronSite> = resolved.iter().map(|(s, _)| *s).collect();

        // Group per layer and install one hook per layer.
        let mut by_layer: Vec<Vec<(NeuronSite, Arc<dyn PerturbationModel>)>> =
            (0..self.profile.len()).map(|_| Vec::new()).collect();
        for (site, model) in resolved {
            by_layer[site.layer].push((site, model));
        }
        for (layer, group) in by_layer.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let layer_id = self.profile.layers()[layer].id;
            let exec_rng = Arc::clone(&self.exec_rng);
            let sink = self.neuron_hook_sink();
            let trial = Arc::clone(&self.trial);
            let handle = self
                .net
                .hooks()
                .register_forward(layer_id, move |_ctx, out| {
                    let n = out.dims()[0];
                    let max_abs = out.max_abs();
                    let t = trial.load(Ordering::Relaxed);
                    let mut rng = exec_rng.lock();
                    for (site, model) in &group {
                        let batches = match site.batch {
                            Some(b) if b < n => b..b + 1,
                            Some(_) => continue, // declared for a bigger batch
                            None => 0..n,
                        };
                        for b in batches {
                            let ctx = PerturbCtx {
                                layer: site.layer,
                                batch: b,
                                channel: site.channel,
                                tensor_max_abs: max_abs,
                                quant_scale: None,
                                rng: &mut rng,
                            };
                            sink.perturb(out, b, site, &**model, ctx, (t != NO_TRIAL).then_some(t));
                        }
                    }
                });
            self.handles.push(handle);
        }
        Ok(sites)
    }

    /// Declares a *fused* batch of neuron-fault trials on one injectable
    /// layer: batch slice `i` of the layer's output receives `trials[i]`'s
    /// perturbation, and nothing else.
    ///
    /// This is the execution half of campaign trial fusion. Sites must
    /// already be resolved (the campaign planner replays each trial's
    /// planning RNG); every site must target `layer`. Each slice perturbs
    /// with its own RNG stream — `SeededRng::new(seed).fork(2)`, exactly the
    /// exec stream a serial trial gets from [`FaultInjector::reseed`] — and
    /// sees [`PerturbCtx::batch`]` = 0` and the *slice's own* max-abs (the
    /// clean whole-tensor value a batch-1 forward would report), so the
    /// perturbed values are bit-identical to a serial run of each trial.
    ///
    /// # Errors
    ///
    /// Returns [`FiError::LayerOutOfRange`] if `layer` is not an injectable
    /// layer of the profiled model.
    pub fn declare_fused_neuron_fi(
        &mut self,
        layer: usize,
        trials: Vec<FusedTrialFault>,
    ) -> Result<(), FiError> {
        if layer >= self.profile.len() {
            return Err(FiError::LayerOutOfRange {
                requested: layer,
                available: self.profile.len(),
            });
        }
        let layer_id = self.profile.layers()[layer].id;
        let rngs: Mutex<Vec<SeededRng>> = Mutex::new(
            trials
                .iter()
                .map(|t| SeededRng::new(t.seed).fork(2))
                .collect(),
        );
        let sink = self.neuron_hook_sink();
        let handle = self
            .net
            .hooks()
            .register_forward(layer_id, move |_ctx, out| {
                let n = out.dims()[0];
                let mut rngs = rngs.lock();
                // A tensor carrying fewer slices than trials perturbs only
                // the slices it has.
                for (b, fused) in trials.iter().enumerate().take(n) {
                    let sample = out.len() / n;
                    let max_abs = out.data()[b * sample..(b + 1) * sample]
                        .iter()
                        .fold(0.0f32, |m, &x| m.max(x.abs()));
                    for site in &fused.sites {
                        let ctx = PerturbCtx {
                            layer: site.layer,
                            batch: 0,
                            channel: site.channel,
                            tensor_max_abs: max_abs,
                            quant_scale: None,
                            rng: &mut rngs[b],
                        };
                        sink.perturb(out, b, site, &*fused.model, ctx, Some(fused.trial));
                    }
                }
            });
        self.handles.push(handle);
        Ok(())
    }

    /// Declares weight faults, applying them immediately (offline, before
    /// any inference — zero runtime overhead). Returns the resolved sites.
    ///
    /// # Errors
    ///
    /// Returns [`FiError`] if any selection is illegal; in that case no
    /// weights are modified.
    pub fn declare_weight_fi(
        &mut self,
        faults: &[WeightFault],
    ) -> Result<Vec<WeightSite>, FiError> {
        let mut resolved: Vec<(WeightSite, Arc<dyn PerturbationModel>)> = Vec::new();
        for fault in faults {
            let site = fault.select.resolve(&self.profile, &mut self.plan_rng)?;
            resolved.push((site, Arc::clone(&fault.model)));
        }
        let sites: Vec<WeightSite> = resolved.iter().map(|(s, _)| *s).collect();

        let int8_words = self.int8_table.is_some();
        for (site, model) in resolved {
            let layer = &self.profile.layers()[site.layer];
            let (layer_idx, layer_id, channel_guess) = (
                site.layer,
                layer.id,
                if layer.weight_dims.is_empty() {
                    0
                } else {
                    site.index / layer.weight_dims.iter().skip(1).product::<usize>().max(1)
                },
            );
            if int8_words && self.flip_stored_weight(site, layer_id, channel_guess, &*model) {
                continue;
            }
            let weights = self
                .net
                .layer_weight_mut(layer_id)
                .expect("profiled injectable layer has weights");
            let max_abs = weights.max_abs();
            let old = weights.data()[site.index];
            let mut rng = self.exec_rng.lock();
            let mut pctx = PerturbCtx {
                layer: layer_idx,
                batch: 0,
                channel: channel_guess,
                tensor_max_abs: max_abs,
                quant_scale: None,
                rng: &mut rng,
            };
            let new = model.perturb(old, &mut pctx);
            drop(rng);
            self.net
                .layer_weight_mut(layer_id)
                .expect("still present")
                .data_mut()[site.index] = new;
            self.weight_undo.push((site.layer, site.index, old));
            self.applied.fetch_add(1, Ordering::Relaxed);
            if let Some(rec) = self.recorder.lock().as_ref() {
                let t = self.trial.load(Ordering::Relaxed);
                rec.event(ObsEvent::Injection(InjectionEvent {
                    trial: (t != NO_TRIAL).then_some(t),
                    layer: site.layer,
                    site: InjectionSite::Weight { index: site.index },
                    bit: InjectionEvent::flipped_bit(old, new),
                    before: old,
                    after: new,
                }));
                rec.counter_add("fi.injections", 1);
            }
        }
        Ok(sites)
    }

    /// Flips a declared weight fault directly in the layer's stored INT8
    /// words (real-INT8 backend path). Returns `false` — having drawn no
    /// perturbation randomness — when the model has no integer form; the
    /// caller then falls back to the f32 weight path (whose mutation drops
    /// the layer's quantized-weight cache, so the fault still propagates
    /// through the integer kernels via requantization).
    fn flip_stored_weight(
        &mut self,
        site: WeightSite,
        layer_id: LayerId,
        channel_guess: usize,
        model: &dyn PerturbationModel,
    ) -> bool {
        let qw = self
            .net
            .layer_qweight(layer_id)
            .expect("profiled injectable layer has a quantized kernel");
        let scale = qw.scale_for_index(site.index);
        let old_w = qw.data()[site.index];
        let mut rng = self.exec_rng.lock();
        let mut pctx = PerturbCtx {
            layer: site.layer,
            batch: 0,
            channel: channel_guess,
            // The channel's representable range — what max|tensor| is to a
            // dynamically scaled tensor. Derived from the stored scale so
            // this path never touches (and never invalidates) f32 weights.
            tensor_max_abs: scale * 127.0,
            quant_scale: Some(scale),
            rng: &mut rng,
        };
        let Some(new_w) = model.perturb_i8(old_w, &mut pctx) else {
            return false;
        };
        drop(rng);
        // One stored word and, in a planned conv, its one panel slot; the
        // layer is never repacked.
        let written = self.net.set_layer_qweight_word(layer_id, site.index, new_w);
        assert!(written, "profiled injectable layer has a quantized kernel");
        self.qweight_undo.push((site.layer, site.index, old_w));
        self.applied.fetch_add(1, Ordering::Relaxed);
        if let Some(rec) = self.recorder.lock().as_ref() {
            let t = self.trial.load(Ordering::Relaxed);
            let (before, after) = (
                qkernels::dequantize_one(old_w, scale),
                qkernels::dequantize_one(new_w, scale),
            );
            rec.event(ObsEvent::Injection(InjectionEvent {
                trial: (t != NO_TRIAL).then_some(t),
                layer: site.layer,
                site: InjectionSite::Weight { index: site.index },
                bit: word_bit(old_w, new_w),
                before,
                after,
            }));
            rec.counter_add("fi.injections", 1);
            rec.counter_add("fi.int8_word_flips", 1);
        }
        true
    }

    /// Removes all declared faults: unregisters this injector's hooks and
    /// restores every perturbed weight — f32 values and stored INT8 words —
    /// in reverse order.
    ///
    /// User hooks registered directly on the network, the INT8 activation
    /// mode, and the INT8 backend are left untouched.
    pub fn restore(&mut self) {
        for handle in self.handles.drain(..) {
            self.net.hooks().remove(handle);
        }
        for (layer, index, old) in self.weight_undo.drain(..).rev() {
            let id = self.profile.layers()[layer].id;
            self.net
                .layer_weight_mut(id)
                .expect("profiled layer has weights")
                .data_mut()[index] = old;
        }
        for (layer, index, old) in self.qweight_undo.drain(..).rev() {
            let id = self.profile.layers()[layer].id;
            let written = self.net.set_layer_qweight_word(id, index, old);
            assert!(written, "profiled layer has a quantized kernel");
        }
    }

    /// Emulates INT8 neuron quantization (paper §IV-A): every injectable
    /// layer's output is snapped to the INT8 grid before fault hooks run.
    ///
    /// The dynamic scale is computed *per batch sample* (identical to the
    /// per-tensor scale at batch 1), so in a fused campaign batch one
    /// trial's fault cannot rescale the quantization grid of its siblings.
    pub fn enable_int8_activations(&mut self) {
        if self.quant_handle.is_some() {
            return;
        }
        let handle = self.net.hooks().register_forward_all(|ctx, out| {
            if ctx.kind.is_injectable() {
                let n = if out.ndim() >= 2 { out.dims()[0] } else { 1 };
                if n == 0 {
                    return;
                }
                let stride = out.len() / n;
                for slice in out.data_mut().chunks_mut(stride.max(1)) {
                    let scale = int8::slice_scale(slice);
                    for v in slice.iter_mut() {
                        *v = int8::fake_quantize(*v, scale);
                    }
                }
            }
        });
        self.quant_handle = Some(handle);
    }

    /// Turns INT8 activation emulation back off.
    pub fn disable_int8_activations(&mut self) {
        if let Some(h) = self.quant_handle.take() {
            self.net.hooks().remove(h);
        }
    }

    /// Switches the wrapped network to the real INT8 inference backend:
    /// integer conv/linear kernels consuming stored `i8` weight words and
    /// `table`'s statically calibrated input scales.
    ///
    /// Faults declared *after* this call perturb stored INT8 words directly
    /// (through [`PerturbationModel::perturb_i8`]): neuron faults quantize
    /// the targeted activation against its slice's dynamic scale, flip the
    /// word, and write the dequantized value back; weight faults flip bits
    /// in the layer's cached [`rustfi_tensor::QTensor`] words in place.
    /// Models without an integer form keep their f32 behavior.
    pub fn enable_int8_backend(&mut self, table: Arc<CalibrationTable>) {
        self.net.set_backend(Backend::Int8(Arc::clone(&table)));
        self.int8_table = Some(table);
    }

    /// Returns the network to the FP32 backend.
    pub fn disable_int8_backend(&mut self) {
        self.net.set_backend(Backend::Fp32);
        self.int8_table = None;
    }

    /// The quantization regime currently active on this injector.
    pub fn quant_mode(&self) -> QuantMode {
        if self.int8_table.is_some() {
            QuantMode::Int8
        } else if self.quant_handle.is_some() {
            QuantMode::Simulated
        } else {
            QuantMode::Off
        }
    }

    /// Runs an inference through the (possibly perturbed) network.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        self.net.forward(input)
    }

    /// Runs an inference, additionally handing every module's input
    /// activation to `capture` (see
    /// [`rustfi_nn::Network::forward_with_capture`]).
    pub fn forward_with_capture(
        &mut self,
        input: &Tensor,
        capture: &mut dyn FnMut(LayerId, &Tensor),
    ) -> Tensor {
        self.net.forward_with_capture(input, capture)
    }

    /// Runs an inference that starts at `from` — the network input when
    /// `None`, else the cached activation of `from`'s resume point — and is
    /// `broadcast` wide (see [`rustfi_nn::Network::forward_from`]). With
    /// `broadcast: Some((target, n))` the result equals the pass on
    /// `input.repeat_batch(n)`, but when `target` is an injectable layer on
    /// the spine, the pass runs at batch 1 through `target` and broadcasts
    /// its output before its forward hooks (guards, INT8 emulation,
    /// per-slice fault injection) fire. Returns `None` when `from` is not in
    /// the network.
    pub fn forward_from(
        &mut self,
        from: Option<LayerId>,
        input: &Tensor,
        broadcast: Option<(LayerId, usize)>,
    ) -> Option<Tensor> {
        self.net.forward_from(from, input, broadcast)
    }

    /// The configuration this injector was built with.
    pub fn config(&self) -> &FiConfig {
        &self.config
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("injectable_layers", &self.profile.len())
            .field("active_hooks", &self.handles.len())
            .field("perturbed_weights", &self.weight_undo.len())
            .field("perturbed_qweights", &self.qweight_undo.len())
            .field("quant_mode", &self.quant_mode())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{BitFlipInt8, BitSelect, Custom, RandomUniform, StuckAt, Zero};
    use rustfi_nn::{zoo, ZooConfig};

    fn injector() -> FaultInjector {
        let net = zoo::lenet(&ZooConfig::tiny(10));
        FaultInjector::new(net, FiConfig::for_input(&[1, 3, 16, 16])).unwrap()
    }

    fn x() -> Tensor {
        Tensor::from_fn(&[1, 3, 16, 16], |i| ((i as f32) * 0.01).sin())
    }

    #[test]
    fn clean_forward_matches_unwrapped_network() {
        let mut net = zoo::lenet(&ZooConfig::tiny(10));
        let clean = net.forward(&x());
        let mut fi = FaultInjector::new(net, FiConfig::for_input(&[1, 3, 16, 16])).unwrap();
        assert_eq!(fi.forward(&x()), clean, "wrapping is transparent");
    }

    #[test]
    fn exact_neuron_fault_changes_exactly_one_value() {
        let mut fi = injector();
        let clean = fi.forward(&x());
        // Stuck a neuron in the last layer (logits) so we can observe it.
        fi.declare_neuron_fi(&[NeuronFault {
            select: NeuronSelect::Exact {
                layer: 3,
                channel: 4,
                y: 0,
                x: 0,
            },
            batch: BatchSelect::All,
            model: Arc::new(StuckAt::new(77.0)),
        }])
        .unwrap();
        let faulty = fi.forward(&x());
        assert_eq!(faulty.at(&[0, 4]), 77.0);
        let mut diffs = 0;
        for i in 0..clean.len() {
            if clean.data()[i] != faulty.data()[i] {
                diffs += 1;
            }
        }
        assert_eq!(diffs, 1, "only the stuck logit differs");
        assert_eq!(fi.injections_applied(), 1);
    }

    #[test]
    fn restore_removes_neuron_faults() {
        let mut fi = injector();
        let clean = fi.forward(&x());
        fi.declare_neuron_fi(&[NeuronFault {
            select: NeuronSelect::Random,
            batch: BatchSelect::All,
            model: Arc::new(StuckAt::new(1e6)),
        }])
        .unwrap();
        let faulty = fi.forward(&x());
        assert_ne!(clean, faulty);
        fi.restore();
        assert_eq!(fi.forward(&x()), clean);
    }

    #[test]
    fn weight_fault_applies_offline_and_restores() {
        let mut fi = injector();
        let clean = fi.forward(&x());
        let sites = fi
            .declare_weight_fi(&[WeightFault {
                select: WeightSelect::Exact { layer: 0, index: 0 },
                model: Arc::new(StuckAt::new(50.0)),
            }])
            .unwrap();
        assert_eq!(sites[0], WeightSite { layer: 0, index: 0 });
        // No hooks involved for weights.
        assert!(fi.net().hooks().is_empty());
        let faulty = fi.forward(&x());
        assert_ne!(clean, faulty);
        fi.restore();
        assert_eq!(fi.forward(&x()), clean);
    }

    #[test]
    fn multiple_faults_one_per_layer() {
        // The Fig. 5 pattern: one random neuron per conv layer.
        let mut fi = injector();
        let faults: Vec<NeuronFault> = (0..fi.profile().len())
            .map(|layer| NeuronFault {
                select: NeuronSelect::RandomInLayer { layer },
                batch: BatchSelect::All,
                model: Arc::new(StuckAt::new(1000.0)),
            })
            .collect();
        let sites = fi.declare_neuron_fi(&faults).unwrap();
        assert_eq!(sites.len(), 4);
        fi.forward(&x());
        assert_eq!(fi.injections_applied(), 4);
    }

    #[test]
    fn illegal_fault_leaves_injector_unchanged() {
        let mut fi = injector();
        let err = fi.declare_neuron_fi(&[
            NeuronFault {
                select: NeuronSelect::Random,
                batch: BatchSelect::All,
                model: Arc::new(Zero),
            },
            NeuronFault {
                select: NeuronSelect::Exact {
                    layer: 99,
                    channel: 0,
                    y: 0,
                    x: 0,
                },
                batch: BatchSelect::All,
                model: Arc::new(Zero),
            },
        ]);
        assert!(err.is_err());
        assert!(fi.net().hooks().is_empty(), "no partial installation");
    }

    #[test]
    fn batch_each_perturbs_every_element_differently() {
        let net = zoo::lenet(&ZooConfig::tiny(10));
        let mut fi = FaultInjector::new(net, FiConfig::for_input(&[3, 3, 16, 16])).unwrap();
        fi.declare_neuron_fi(&[NeuronFault {
            select: NeuronSelect::RandomInLayer { layer: 0 },
            batch: BatchSelect::Each,
            model: Arc::new(StuckAt::new(500.0)),
        }])
        .unwrap();
        let xb = Tensor::from_fn(&[3, 3, 16, 16], |i| ((i as f32) * 0.01).sin());
        fi.forward(&xb);
        assert_eq!(fi.injections_applied(), 3);
    }

    #[test]
    fn batch_element_targets_only_that_element() {
        let net = zoo::lenet(&ZooConfig::tiny(10));
        let mut fi = FaultInjector::new(net, FiConfig::for_input(&[2, 3, 16, 16])).unwrap();
        let xb = Tensor::from_fn(&[2, 3, 16, 16], |i| ((i as f32) * 0.01).sin());
        let clean = fi.forward(&xb);
        fi.declare_neuron_fi(&[NeuronFault {
            select: NeuronSelect::RandomInLayer { layer: 0 },
            batch: BatchSelect::Element(1),
            model: Arc::new(StuckAt::new(1e5)),
        }])
        .unwrap();
        let faulty = fi.forward(&xb);
        let (_, k) = clean.dims2();
        // Element 0 is untouched; element 1 changed.
        assert_eq!(&clean.data()[..k], &faulty.data()[..k]);
        assert_ne!(&clean.data()[k..], &faulty.data()[k..]);
    }

    #[test]
    fn reseed_reproduces_random_faults() {
        let run = |seed: u64| {
            let mut fi = injector();
            fi.reseed(seed);
            let sites = fi
                .declare_neuron_fi(&[NeuronFault {
                    select: NeuronSelect::Random,
                    batch: BatchSelect::All,
                    model: Arc::new(RandomUniform::default()),
                }])
                .unwrap();
            (sites, fi.forward(&x()))
        };
        let (s1, o1) = run(42);
        let (s2, o2) = run(42);
        assert_eq!(s1, s2);
        assert_eq!(o1, o2);
        let (s3, _) = run(43);
        assert_ne!(s1, s3);
    }

    #[test]
    fn int8_activation_mode_quantizes_outputs() {
        let mut fi = injector();
        let clean = fi.forward(&x());
        fi.enable_int8_activations();
        let quant = fi.forward(&x());
        assert_ne!(clean, quant, "quantization perturbs activations slightly");
        // Predictions should almost always survive 8-bit quantization.
        let same_top1 = clean.data()[..10]
            .iter()
            .cloned()
            .fold((0usize, f32::MIN, 0usize), |(i, m, best), v| {
                if v > m {
                    (i + 1, v, i)
                } else {
                    (i + 1, m, best)
                }
            })
            .2
            == quant.data()[..10]
                .iter()
                .cloned()
                .fold((0usize, f32::MIN, 0usize), |(i, m, best), v| {
                    if v > m {
                        (i + 1, v, i)
                    } else {
                        (i + 1, m, best)
                    }
                })
                .2;
        assert!(same_top1, "top-1 should survive INT8 quantization here");
        fi.disable_int8_activations();
        assert_eq!(fi.forward(&x()), clean);
    }

    #[test]
    fn int8_bitflip_model_composes_with_quantized_activations() {
        let mut fi = injector();
        fi.enable_int8_activations();
        fi.declare_neuron_fi(&[NeuronFault {
            select: NeuronSelect::Random,
            batch: BatchSelect::All,
            model: Arc::new(BitFlipInt8::new(BitSelect::Random)),
        }])
        .unwrap();
        let out = fi.forward(&x());
        assert!(!out.has_non_finite());
        assert_eq!(fi.injections_applied(), 1);
    }

    fn calibrated(fi: &mut FaultInjector) -> Arc<CalibrationTable> {
        Arc::new(CalibrationTable::calibrate(fi.net_mut(), &[x()]))
    }

    #[test]
    fn int8_backend_toggles_and_tracks_mode() {
        let mut fi = injector();
        let clean = fi.forward(&x());
        assert_eq!(fi.quant_mode(), QuantMode::Off);
        let table = calibrated(&mut fi);
        fi.enable_int8_backend(table);
        assert_eq!(fi.quant_mode(), QuantMode::Int8);
        let quant = fi.forward(&x());
        assert_ne!(clean, quant, "integer kernels round differently");
        assert_eq!(fi.forward(&x()), quant, "INT8 inference is deterministic");
        fi.disable_int8_backend();
        assert_eq!(fi.quant_mode(), QuantMode::Off);
        assert_eq!(fi.forward(&x()), clean);
    }

    #[test]
    fn int8_backend_weight_flip_lands_in_stored_word() {
        let mut fi = injector();
        let clean = fi.forward(&x());
        let table = calibrated(&mut fi);
        fi.enable_int8_backend(table);
        let golden_q = fi.forward(&x());
        let id = fi.profile().layers()[0].id;
        let word_before = fi.net_mut().layer_qweight(id).unwrap().data()[3];
        fi.declare_weight_fi(&[WeightFault {
            select: WeightSelect::Exact { layer: 0, index: 3 },
            model: Arc::new(BitFlipInt8::new(BitSelect::Fixed(6))),
        }])
        .unwrap();
        let word_after = fi.net_mut().layer_qweight(id).unwrap().data()[3];
        assert_eq!(
            (word_before as u8) ^ (word_after as u8),
            1 << 6,
            "exactly bit 6 of the stored word flipped"
        );
        let faulty = fi.forward(&x());
        assert_ne!(golden_q, faulty);
        fi.restore();
        assert_eq!(fi.forward(&x()), golden_q, "word restored in place");
        fi.disable_int8_backend();
        assert_eq!(fi.forward(&x()), clean, "f32 weights were never touched");
    }

    #[test]
    fn int8_backend_weight_fault_falls_back_for_f32_models() {
        let mut fi = injector();
        let clean = fi.forward(&x());
        let table = calibrated(&mut fi);
        fi.enable_int8_backend(table);
        let golden_q = fi.forward(&x());
        // StuckAt has no integer form: the fault goes through the f32
        // weights, and the dropped qweight cache requantizes it in.
        fi.declare_weight_fi(&[WeightFault {
            select: WeightSelect::Exact { layer: 0, index: 0 },
            model: Arc::new(StuckAt::new(50.0)),
        }])
        .unwrap();
        assert_ne!(fi.forward(&x()), golden_q);
        fi.restore();
        assert_eq!(fi.forward(&x()), golden_q);
        fi.disable_int8_backend();
        assert_eq!(fi.forward(&x()), clean);
    }

    #[test]
    fn int8_backend_neuron_flip_applies_and_restores() {
        let mut fi = injector();
        let table = calibrated(&mut fi);
        fi.enable_int8_backend(table);
        let golden_q = fi.forward(&x());
        fi.declare_neuron_fi(&[NeuronFault {
            select: NeuronSelect::Exact {
                layer: 1,
                channel: 0,
                y: 1,
                x: 1,
            },
            batch: BatchSelect::All,
            model: Arc::new(BitFlipInt8::new(BitSelect::Fixed(7))),
        }])
        .unwrap();
        let faulty = fi.forward(&x());
        assert_ne!(golden_q, faulty, "sign-bit flip propagates");
        assert!(!faulty.has_non_finite());
        assert_eq!(fi.injections_applied(), 1);
        fi.restore();
        assert_eq!(fi.forward(&x()), golden_q);
    }

    #[test]
    fn fused_slices_match_serial_batch1_runs() {
        let seeds = [101u64, 202, 303];
        // Serial reference: one batch-1 run per seed, random value at a
        // fixed site.
        let serial: Vec<Tensor> = seeds
            .iter()
            .map(|&s| {
                let mut fi = injector();
                fi.reseed(s);
                fi.declare_neuron_fi(&[NeuronFault {
                    select: NeuronSelect::Exact {
                        layer: 0,
                        channel: 1,
                        y: 2,
                        x: 3,
                    },
                    batch: BatchSelect::All,
                    model: Arc::new(RandomUniform::default()),
                }])
                .unwrap();
                fi.forward(&x())
            })
            .collect();
        // Fused: all three trials in one batch-3 forward.
        let mut fi = injector();
        fi.declare_fused_neuron_fi(
            0,
            seeds
                .iter()
                .enumerate()
                .map(|(t, &s)| FusedTrialFault {
                    trial: t,
                    seed: s,
                    sites: vec![NeuronSite {
                        layer: 0,
                        batch: None,
                        channel: 1,
                        y: 2,
                        x: 3,
                    }],
                    model: Arc::new(RandomUniform::default()),
                })
                .collect(),
        )
        .unwrap();
        let fused = fi.forward(&x().repeat_batch(3));
        let k = fused.len() / 3;
        for (b, reference) in serial.iter().enumerate() {
            assert_eq!(
                &fused.data()[b * k..(b + 1) * k],
                reference.data(),
                "fused slice {b} is bit-identical to its serial run"
            );
        }
        assert_eq!(fi.injections_applied(), 3);
    }

    #[test]
    fn broadcast_resume_matches_plain_resumed_batch_pass() {
        let seeds = [11u64, 22, 33];
        let layer = 1; // mid conv on lenet's flat spine
        let declare = |fi: &mut FaultInjector| {
            let sites = vec![NeuronSite {
                layer,
                batch: None,
                channel: 0,
                y: 1,
                x: 1,
            }];
            fi.declare_fused_neuron_fi(
                layer,
                seeds
                    .iter()
                    .enumerate()
                    .map(|(t, &s)| FusedTrialFault {
                        trial: t,
                        seed: s,
                        sites: sites.clone(),
                        model: Arc::new(RandomUniform::default()),
                    })
                    .collect(),
            )
            .unwrap();
        };
        let mut fi = injector();
        let layer_id = fi.profile().layers()[layer].id;
        let rid = fi.net().resume_point(layer_id).unwrap();
        assert_eq!(rid, layer_id, "flat spine resumes at the layer itself");
        let mut act = None;
        fi.forward_with_capture(&x(), &mut |id, input| {
            if id == rid {
                act = Some(input.clone());
            }
        });
        let act = act.unwrap();
        declare(&mut fi);
        let reference = fi
            .forward_from(Some(rid), &act.repeat_batch(3), None)
            .unwrap();
        let mut fi2 = injector();
        declare(&mut fi2);
        let fast = fi2
            .forward_from(Some(rid), &act, Some((layer_id, 3)))
            .unwrap();
        assert_eq!(fast, reference, "broadcast decomposition is bit-identical");
        assert_eq!(fi2.injections_applied(), 3);
        // From the image, the prefix runs once at batch 1.
        let mut fi3 = injector();
        declare(&mut fi3);
        let from_input = fi3.forward_from(None, &x(), Some((layer_id, 3)));
        assert_eq!(from_input, Some(reference), "broadcast from the input");
        assert_eq!(fi3.injections_applied(), 3);
    }

    #[test]
    fn broadcast_resume_declines_unknown_layer() {
        let mut fi = injector();
        let unknown = LayerId::from_index(999);
        assert!(fi
            .forward_from(Some(unknown), &x(), Some((unknown, 2)))
            .is_none());
        assert_eq!(fi.injections_applied(), 0);
    }

    #[test]
    fn fused_declare_rejects_bad_layer() {
        let mut fi = injector();
        assert!(fi.declare_fused_neuron_fi(99, Vec::new()).is_err());
        assert!(fi.net().hooks().is_empty());
    }

    #[test]
    fn custom_model_sees_context() {
        let mut fi = injector();
        fi.declare_neuron_fi(&[NeuronFault {
            select: NeuronSelect::Exact {
                layer: 1,
                channel: 2,
                y: 3,
                x: 4,
            },
            batch: BatchSelect::All,
            model: Arc::new(Custom::new("ctx-probe", |old, ctx| {
                assert_eq!(ctx.layer, 1);
                assert_eq!(ctx.channel, 2);
                assert!(ctx.tensor_max_abs > 0.0);
                old + 1000.0
            })),
        }])
        .unwrap();
        fi.forward(&x());
        assert_eq!(fi.injections_applied(), 1);
    }

    #[test]
    fn into_inner_returns_clean_network() {
        let mut fi = injector();
        let clean = fi.forward(&x());
        fi.declare_weight_fi(&[WeightFault {
            select: WeightSelect::Random,
            model: Arc::new(StuckAt::new(9.0)),
        }])
        .unwrap();
        let mut net = fi.into_inner();
        assert!(net.hooks().is_empty());
        assert_eq!(net.forward(&x()), clean);
    }

    #[test]
    fn recorder_sees_injection_provenance() {
        use rustfi_obs::TraceRecorder;

        let mut fi = injector();
        let rec = Arc::new(TraceRecorder::new());
        // Declare first, install the recorder second: order must not matter.
        fi.declare_neuron_fi(&[NeuronFault {
            select: NeuronSelect::Exact {
                layer: 3,
                channel: 4,
                y: 0,
                x: 0,
            },
            batch: BatchSelect::All,
            model: Arc::new(StuckAt::new(77.0)),
        }])
        .unwrap();
        fi.set_recorder(Some(rec.clone()));
        fi.set_trial(Some(9));
        fi.forward(&x());

        let snap = rec.snapshot();
        assert_eq!(snap.counters.get("fi.injections"), Some(&1));
        let inj = snap
            .events
            .iter()
            .find_map(|e| match e {
                ObsEvent::Injection(i) => Some(*i),
                _ => None,
            })
            .expect("injection event emitted");
        assert_eq!(inj.trial, Some(9));
        assert_eq!(inj.layer, 3);
        assert_eq!(
            inj.site,
            InjectionSite::Neuron {
                batch: 0,
                channel: 4,
                y: 0,
                x: 0
            }
        );
        assert_eq!(inj.after, 77.0);
        assert!(
            !snap.spans.is_empty(),
            "network forward emitted layer spans"
        );

        // Weight provenance, outside a trial.
        fi.set_trial(None);
        fi.declare_weight_fi(&[WeightFault {
            select: WeightSelect::Exact { layer: 0, index: 5 },
            model: Arc::new(StuckAt::new(3.0)),
        }])
        .unwrap();
        let snap = rec.snapshot();
        let weight_inj = snap
            .events
            .iter()
            .rev()
            .find_map(|e| match e {
                ObsEvent::Injection(i) => Some(*i),
                _ => None,
            })
            .unwrap();
        assert_eq!(weight_inj.trial, None);
        assert_eq!(weight_inj.site, InjectionSite::Weight { index: 5 });
        assert_eq!(weight_inj.after, 3.0);
    }

    #[test]
    fn debug_shows_state() {
        let mut fi = injector();
        fi.declare_neuron_fi(&[NeuronFault {
            select: NeuronSelect::Random,
            batch: BatchSelect::All,
            model: Arc::new(Zero),
        }])
        .unwrap();
        let s = format!("{fi:?}");
        assert!(s.contains("active_hooks: 1"), "{s}");
    }
}
