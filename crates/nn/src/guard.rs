//! Activation guard hooks: NaN/Inf detection and step-budget watchdogs.
//!
//! A fault-injection trial can drive a network into states where the final
//! logits are non-finite (a DUE in the paper's taxonomy). By the time the
//! output is inspected, *which layer* first produced the non-finite value is
//! lost — and every layer after it computed garbage for nothing. A
//! [`GuardHook`] attaches to the network's forward-hook registry and:
//!
//! - records the first layer whose output contains NaN/Inf (DUE provenance);
//! - optionally *short-circuits* the rest of the forward pass the moment a
//!   non-finite activation appears, by raising a [`NonFiniteInterrupt`];
//! - optionally enforces a step budget: a forward pass raises a
//!   [`DeadlineInterrupt`] at the first leaf layer it dispatches whose
//!   position in a full pass exceeds `max_steps` (the cooperative watchdog
//!   campaigns use to classify hangs).
//!
//! Interrupts are delivered with [`std::panic::resume_unwind`], which unwinds
//! *without* invoking the panic hook — no backtrace spew — and is caught by
//! the same `catch_unwind` isolation campaigns already wrap around trials.
//! Callers downcast the payload to tell an interrupt from a genuine panic.
//!
//! Dispatch-order note: hooks registered for *all* layers fire before a
//! layer's own injection hooks, so a guard sees the injected value at the
//! **next** leaf layer it propagates to, not at the injection site itself.

use crate::hook::HookHandle;
use crate::module::{LayerId, Network};
use parking_lot::Mutex;
use rustfi_obs::{Event as ObsEvent, GuardEvent as ObsGuardEvent};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// What a [`GuardHook`] watches for. Whether a pass is judged as one tensor
/// or per batch slice is up to the pass: see [`GuardHook::reset`] and
/// [`GuardHook::reset_samples`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardConfig {
    /// Scan every leaf layer's output for NaN/Inf.
    pub detect_non_finite: bool,
    /// Abort a whole-tensor pass on the first non-finite activation
    /// (implies `detect_non_finite`). The aborted inference has no output;
    /// the caller classifies it from the interrupt payload instead.
    pub short_circuit: bool,
    /// Step budget: a pass raises a [`DeadlineInterrupt`] at the first leaf
    /// layer it dispatches whose position in a full pass exceeds it. Leaf
    /// positions count 1.. in pre-order, the order a full pass dispatches
    /// them in, so a full pass trips after exactly `max_steps` dispatches,
    /// and a pass that resumes after its first layers (or broadcasts at a
    /// layer) trips at the same leaf as the full pass. `None` disables the
    /// watchdog.
    pub max_steps: Option<usize>,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            detect_non_finite: true,
            short_circuit: false,
            max_steps: None,
        }
    }
}

/// Interrupt payload: a non-finite activation was detected and the guard was
/// configured to short-circuit.
#[derive(Debug, Clone)]
pub struct NonFiniteInterrupt {
    /// The first layer whose output contained NaN/Inf.
    pub layer: LayerId,
    /// That layer's name.
    pub layer_name: String,
}

/// Interrupt payload: the forward pass exceeded the guard's step budget.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineInterrupt {
    /// The position in a full pass of the leaf layer that tripped the
    /// budget: how many leaf dispatches a full pass makes up to and
    /// including it.
    pub steps: usize,
}

/// The first layer (id and name) seen with a non-finite output, if any.
type Provenance = Option<(LayerId, String)>;

#[derive(Default)]
struct GuardState {
    steps: AtomicUsize,
    first_non_finite: Mutex<Provenance>,
    /// The per-sample provenance table of a pass started by
    /// [`GuardHook::reset_samples`], `None` for a whole-tensor pass: slot
    /// `b` holds the first layer whose batch element `b` went non-finite.
    sample_non_finite: Mutex<Option<Vec<Provenance>>>,
}

/// An installed guard. Dropping it does *not* unregister the hook; call
/// [`GuardHook::uninstall`] (or clear the registry) for that.
pub struct GuardHook {
    handle: HookHandle,
    state: Arc<GuardState>,
}

impl GuardHook {
    /// Installs a guard on the network's forward-hook registry.
    ///
    /// If the network has an observability recorder installed at this
    /// moment, the guard emits [`rustfi_obs::GuardEvent`]s through it (the
    /// first non-finite layer, deadline trips) and counts scans under
    /// `nn.guard_checks`.
    pub fn install(net: &Network, cfg: GuardConfig) -> Self {
        let state = Arc::new(GuardState::default());
        let hook_state = Arc::clone(&state);
        let recorder = net.recorder();
        let scan = cfg.detect_non_finite || cfg.short_circuit;
        // Each leaf's position in a full pass, by id (ids are pre-order). The
        // containers dispatch no hooks and keep position 0, which no budget
        // is below.
        let mut leaves = 0;
        let position: Vec<usize> = net
            .layer_infos()
            .iter()
            .map(|l| {
                if l.kind.is_container() {
                    return 0;
                }
                leaves += 1;
                leaves
            })
            .collect();
        let handle = net.hooks().register_forward_all(move |ctx, out| {
            hook_state.steps.fetch_add(1, Ordering::Relaxed);
            if let Some(rec) = &recorder {
                rec.counter_add("nn.guard_checks", 1);
            }
            let at = position[ctx.id.index()];
            if cfg.max_steps.is_some_and(|budget| at > budget) {
                if let Some(rec) = &recorder {
                    rec.event(ObsEvent::Guard(ObsGuardEvent::Deadline { steps: at }));
                }
                std::panic::resume_unwind(Box::new(DeadlineInterrupt { steps: at }));
            }
            if scan && out.data().iter().any(|v| !v.is_finite()) {
                let mut samples = hook_state.sample_non_finite.lock();
                let per_sample = samples.is_some();
                if let Some(table) = samples.as_mut() {
                    // Attribute the corruption to the batch slices that carry
                    // it: slot `b` keeps the *first* layer where sample `b`
                    // went bad, exactly as the global record would at batch 1.
                    let blame = |slot: &mut Provenance| {
                        slot.get_or_insert_with(|| (ctx.id, ctx.name.to_string()));
                    };
                    if ctx.rows.is_none() && out.sample_slices().count() == 1 {
                        // A batch-1 tensor during a pass over several slices
                        // that dropped none is the prefix they all share
                        // (see `Network::forward_from`): every slice
                        // carries its value.
                        table.iter_mut().for_each(blame);
                    } else {
                        for (row, slice) in out.sample_slices().enumerate() {
                            // Once the pass has dropped slices, row `r`
                            // carries slice `rows[r]`.
                            let b = ctx.rows.map_or(row, |rows| rows[row]);
                            if slice.iter().any(|v| !v.is_finite()) {
                                if let Some(slot) = table.get_mut(b) {
                                    blame(slot);
                                }
                            }
                        }
                    }
                }
                let mut first = hook_state.first_non_finite.lock();
                let fresh = first.is_none();
                if fresh {
                    *first = Some((ctx.id, ctx.name.to_string()));
                }
                drop(first);
                if fresh {
                    if let Some(rec) = &recorder {
                        rec.event(ObsEvent::Guard(ObsGuardEvent::NonFinite {
                            layer: ctx.id.index(),
                            layer_name: ctx.name.to_string(),
                        }));
                    }
                }
                if cfg.short_circuit && fresh && !per_sample {
                    std::panic::resume_unwind(Box::new(NonFiniteInterrupt {
                        layer: ctx.id,
                        layer_name: ctx.name.to_string(),
                    }));
                }
            }
        });
        Self { handle, state }
    }

    /// Starts a whole-tensor pass: clears the step counter and non-finite
    /// provenance. The pass short-circuits as configured. Call between
    /// inferences that should be judged independently.
    pub fn reset(&self) {
        self.state.steps.store(0, Ordering::Relaxed);
        *self.state.first_non_finite.lock() = None;
        *self.state.sample_non_finite.lock() = None;
    }

    /// Starts a pass over `n` batch slices that judges each slice on its own
    /// (see [`GuardHook::first_non_finite_for`]): [`GuardHook::reset`], then
    /// an empty provenance slot per slice. Fused campaigns use this so a
    /// NaN in one trial's slice never condemns its siblings, while a NaN in
    /// a batch-1 tensor (the prefix all `n` slices share) is charged to
    /// every slice. Such a pass **never short-circuits** — aborting it would
    /// discard the still-healthy slices sharing the batch — but the global
    /// first-non-finite record (and its event) is kept as in a whole-tensor
    /// pass.
    pub fn reset_samples(&self, n: usize) {
        self.reset();
        *self.state.sample_non_finite.lock() = Some(vec![None; n]);
    }

    /// The first layer observed with a non-finite output *in batch slice
    /// `b`* of the pass [`GuardHook::reset_samples`] started, if any; `None`
    /// in a whole-tensor pass.
    pub fn first_non_finite_for(&self, b: usize) -> Option<(LayerId, String)> {
        self.state
            .sample_non_finite
            .lock()
            .as_ref()
            .and_then(|table| table.get(b).cloned().flatten())
    }

    /// Leaf-layer dispatches seen since the last [`GuardHook::reset`].
    pub fn steps(&self) -> usize {
        self.state.steps.load(Ordering::Relaxed)
    }

    /// The first layer observed with a non-finite output, if any.
    pub fn first_non_finite(&self) -> Option<(LayerId, String)> {
        self.state.first_non_finite.lock().clone()
    }

    /// The registry handle (for manual removal).
    pub fn handle(&self) -> HookHandle {
        self.handle
    }

    /// Unregisters the guard from the network it was installed on.
    pub fn uninstall(&self, net: &Network) {
        net.hooks().remove(self.handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{self, ZooConfig};
    use rustfi_tensor::Tensor;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn net_and_input() -> (Network, Tensor) {
        let net = zoo::lenet(&ZooConfig::tiny(4));
        let x = Tensor::from_fn(&[1, 3, 16, 16], |i| ((i as f32) * 0.017).cos());
        (net, x)
    }

    /// Id of the first injectable (conv) layer.
    fn first_conv(net: &Network) -> LayerId {
        net.injectable_layers()[0]
    }

    #[test]
    fn guard_counts_steps_and_resets() {
        let (mut net, x) = net_and_input();
        let guard = GuardHook::install(&net, GuardConfig::default());
        net.forward(&x);
        let steps = guard.steps();
        assert!(steps > 0, "leaf layers dispatched");
        net.forward(&x);
        assert_eq!(guard.steps(), 2 * steps, "steps accumulate until reset");
        guard.reset();
        assert_eq!(guard.steps(), 0);
        assert!(guard.first_non_finite().is_none());
    }

    #[test]
    fn deadline_interrupt_fires_over_budget() {
        let (mut net, x) = net_and_input();
        let guard = GuardHook::install(
            &net,
            GuardConfig {
                max_steps: Some(2),
                ..GuardConfig::default()
            },
        );
        let err = catch_unwind(AssertUnwindSafe(|| net.forward(&x)))
            .expect_err("budget of 2 must interrupt");
        let interrupt = err
            .downcast_ref::<DeadlineInterrupt>()
            .expect("payload is a DeadlineInterrupt");
        assert_eq!(interrupt.steps, 3, "tripped on the step after the budget");
        assert_eq!(guard.steps(), 3);
    }

    /// Floods a layer's output with `+Inf` when the hook fires.
    fn flood_inf(net: &Network, layer: LayerId) {
        net.hooks().register_forward(layer, |_, out| {
            for v in out.data_mut() {
                *v = f32::INFINITY;
            }
        });
    }

    #[test]
    fn records_first_non_finite_layer_without_aborting() {
        let (mut net, x) = net_and_input();
        let conv = first_conv(&net);
        flood_inf(&net, conv);
        let guard = GuardHook::install(&net, GuardConfig::default());
        net.forward(&x);
        // The guard must catch the corruption even though downstream
        // ReLU/pooling (`x.max(0.0)` absorbs NaN) can launder it back into
        // finite logits — the case output-only DUE detection misses.
        let (layer, name) = guard.first_non_finite().expect("guard saw the corruption");
        // All-layer hooks fire before the injection hook on the same layer,
        // so detection lands on a layer *after* the injection site.
        assert!(
            layer.index() > conv.index(),
            "{name} is downstream of the injection"
        );
    }

    #[test]
    fn short_circuit_aborts_with_provenance() {
        let (mut net, x) = net_and_input();
        let conv = first_conv(&net);
        flood_inf(&net, conv);
        let guard = GuardHook::install(
            &net,
            GuardConfig {
                short_circuit: true,
                ..GuardConfig::default()
            },
        );
        let full_steps = {
            let clean = zoo::lenet(&ZooConfig::tiny(4));
            let probe = GuardHook::install(&clean, GuardConfig::default());
            let mut clean = clean;
            clean.forward(&x);
            probe.steps()
        };
        let err = catch_unwind(AssertUnwindSafe(|| net.forward(&x)))
            .expect_err("short-circuit must interrupt");
        let interrupt = err
            .downcast_ref::<NonFiniteInterrupt>()
            .expect("payload is a NonFiniteInterrupt");
        assert_eq!(
            Some((interrupt.layer, interrupt.layer_name.clone())),
            guard.first_non_finite()
        );
        assert!(
            guard.steps() < full_steps,
            "aborted early: {} of {} steps",
            guard.steps(),
            full_steps
        );
    }

    #[test]
    fn per_sample_guard_blames_only_the_corrupt_slice() {
        let (mut net, x1) = net_and_input();
        let conv = first_conv(&net);
        // Flood +Inf into batch sample 1 only.
        net.hooks().register_forward(conv, |_, out| {
            let n = out.dims()[0];
            assert!(n >= 3);
            let stride = out.len() / n;
            for v in &mut out.data_mut()[stride..2 * stride] {
                *v = f32::INFINITY;
            }
        });
        let guard = GuardHook::install(
            &net,
            GuardConfig {
                // Per-sample mode must refuse to short-circuit even when asked.
                short_circuit: true,
                ..GuardConfig::default()
            },
        );
        guard.reset_samples(3);
        let x = x1.repeat_batch(3);
        net.forward(&x); // must complete despite short_circuit
        assert!(guard.first_non_finite_for(0).is_none(), "sample 0 clean");
        let (layer, _) = guard.first_non_finite_for(1).expect("sample 1 corrupt");
        assert!(layer.index() > conv.index());
        assert!(guard.first_non_finite_for(2).is_none(), "sample 2 clean");
        // The global record still reflects the first corrupt dispatch.
        assert_eq!(guard.first_non_finite().map(|(l, _)| l), Some(layer));
        guard.reset();
        assert!(
            guard.first_non_finite_for(1).is_none(),
            "reset clears table"
        );
    }

    #[test]
    fn per_sample_guard_at_batch_one_matches_global_record() {
        let (mut net, x) = net_and_input();
        let conv = first_conv(&net);
        flood_inf(&net, conv);
        let guard = GuardHook::install(&net, GuardConfig::default());
        guard.reset_samples(1);
        net.forward(&x);
        assert_eq!(guard.first_non_finite_for(0), guard.first_non_finite());
        // A 3-slice pass that broadcasts at the last injectable layer runs
        // the corrupt prefix once, at batch 1, for every slice.
        let target = *net.injectable_layers().last().unwrap();
        guard.reset_samples(3);
        net.forward_from(None, &x, Some((target, 3)), None);
        let first = guard.first_non_finite();
        assert!(first.is_some());
        for b in 0..3 {
            assert_eq!(guard.first_non_finite_for(b), first, "slice {b}");
        }
    }

    #[test]
    fn a_chunk_compacted_to_one_slice_blames_only_that_slice() {
        use crate::module::GoldenTrace;
        let (mut net, x) = net_and_input();
        let inj = net.injectable_layers();
        let (first, second) = (inj[0], inj[1]);
        assert_eq!(net.resume_point(second), Some(second), "a spine conv");
        let mut points = Vec::new();
        net.forward_with_capture(&x, &mut |id, t| {
            if id == second {
                points.push((id, t.clone()));
            }
        });
        // Slices 0 and 1 carry no fault and rejoin the golden run at the
        // second conv; slice 2 carries one, and the second conv's output
        // goes non-finite in the one row left.
        net.hooks().register_forward(first, |_, out| {
            let stride = out.len() / out.dims()[0];
            for v in &mut out.data_mut()[2 * stride..] {
                *v = 1e3;
            }
        });
        net.hooks().register_forward(second, |ctx, out| {
            assert_eq!((ctx.rows, out.dims()[0]), (Some(&[2][..]), 1));
            out.data_mut()[0] = f32::INFINITY;
        });
        let guard = GuardHook::install(&net, GuardConfig::default());
        guard.reset_samples(3);
        let trace = GoldenTrace::new(first, &points);
        net.forward_from(None, &x, Some((first, 3)), Some(trace));
        assert_eq!(net.live_rows(), Some(&[2][..]));
        assert!(guard.first_non_finite_for(0).is_none(), "slice 0 rejoined");
        assert!(guard.first_non_finite_for(1).is_none(), "slice 1 rejoined");
        let (layer, _) = guard.first_non_finite_for(2).expect("slice 2 blamed");
        assert!(layer > second, "seen after the second conv's hook");
        assert_eq!(guard.first_non_finite().map(|(l, _)| l), Some(layer));
    }

    #[test]
    fn uninstall_removes_the_hook() {
        let (mut net, x) = net_and_input();
        let guard = GuardHook::install(&net, GuardConfig::default());
        net.forward(&x);
        assert!(guard.steps() > 0);
        guard.uninstall(&net);
        guard.reset();
        net.forward(&x);
        assert_eq!(guard.steps(), 0, "uninstalled guard no longer counts");
    }
}
