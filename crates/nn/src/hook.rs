//! Forward and gradient hooks — the instrumentation point PyTorchFI's design
//! is built on.
//!
//! Hooks attach to a [`HookRegistry`] shared by all layers of a [`Network`].
//! Layers never call them: the dispatch that runs every module fires them,
//! as PyTorch's `Module.__call__` does. A *forward hook* runs after a
//! non-container module computes its output
//! ([`ForwardCtx::forward_child`]) and may mutate it in place (this is how
//! neuron perturbations are injected without touching the network topology
//! or the framework internals). A *gradient hook* runs during the backward
//! pass, before such a module's `backward`, with the gradient flowing into
//! its output ([`BackwardCtx::backward_child`]; this is what Grad-CAM
//! consumes).
//!
//! Dispatch cost with no hooks registered is a single atomic emptiness
//! check per layer, matching the paper's "single check on every layer"
//! overhead claim (§III-C); `rustfi-bench` measures it. A dispatch that
//! fires takes a snapshot of the hook table (one `Arc` clone under the read
//! lock) and so never allocates.
//!
//! [`Network`]: crate::module::Network
//! [`ForwardCtx::forward_child`]: crate::module::ForwardCtx::forward_child
//! [`BackwardCtx::backward_child`]: crate::module::BackwardCtx::backward_child

use crate::module::{LayerId, LayerKind};
use parking_lot::RwLock;
use rustfi_tensor::Tensor;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Information about the layer a hook fired on.
#[derive(Debug)]
pub struct LayerCtx<'a> {
    /// The layer's stable id.
    pub id: LayerId,
    /// The layer's name.
    pub name: &'a str,
    /// The layer's kind.
    pub kind: LayerKind,
}

/// A forward hook: may mutate the layer output in place.
pub type ForwardHookFn = dyn Fn(&LayerCtx<'_>, &mut Tensor) + Send + Sync;
/// A gradient hook: observes the gradient w.r.t. the layer output.
pub type GradHookFn = dyn Fn(&LayerCtx<'_>, &Tensor) + Send + Sync;

/// Token returned on registration; pass to [`HookRegistry::remove`] to
/// unregister.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HookHandle(u64);

enum Target {
    Layer(LayerId),
    All,
}

/// Registry of forward and gradient hooks for one network.
///
/// Cheap to share (`Arc`) and safe to mutate while inference runs on another
/// thread; hooks fire in registration order.
///
/// Each table sits behind an `Arc`: a dispatch fires from a snapshot it
/// clones under the read lock, and registration and removal copy the table
/// only while such a snapshot is alive ([`Arc::make_mut`]) — which is what
/// lets a hook remove itself while it fires.
pub struct HookRegistry {
    forward: RwLock<Arc<HookTable<Arc<ForwardHookFn>>>>,
    grad: RwLock<Arc<HookTable<Arc<GradHookFn>>>>,
    forward_nonempty: AtomicBool,
    grad_nonempty: AtomicBool,
    next_handle: AtomicU64,
}

#[derive(Clone)]
struct HookTable<H> {
    by_layer: HashMap<LayerId, Vec<(HookHandle, H)>>,
    all: Vec<(HookHandle, H)>,
}

impl<H> HookTable<H> {
    fn new() -> Self {
        Self {
            by_layer: HashMap::new(),
            all: Vec::new(),
        }
    }

    fn insert(&mut self, target: Target, handle: HookHandle, hook: H) {
        match target {
            Target::Layer(id) => self.by_layer.entry(id).or_default().push((handle, hook)),
            Target::All => self.all.push((handle, hook)),
        }
    }

    fn remove(&mut self, handle: HookHandle) -> bool {
        let before = self.all.len();
        self.all.retain(|(h, _)| *h != handle);
        if self.all.len() != before {
            return true;
        }
        for list in self.by_layer.values_mut() {
            let before = list.len();
            list.retain(|(h, _)| *h != handle);
            if list.len() != before {
                return true;
            }
        }
        false
    }

    fn is_empty(&self) -> bool {
        self.all.is_empty() && self.by_layer.values().all(Vec::is_empty)
    }

    fn count(&self) -> usize {
        self.all.len() + self.by_layer.values().map(Vec::len).sum::<usize>()
    }

    /// The hooks that fire on layer `id`, in firing order: the all-layer
    /// hooks, then the layer's own.
    fn hooks_for(&self, id: LayerId) -> impl Iterator<Item = &H> {
        self.all
            .iter()
            .chain(self.by_layer.get(&id).into_iter().flatten())
            .map(|(_, h)| h)
    }
}

impl HookRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self {
            forward: RwLock::new(Arc::new(HookTable::new())),
            grad: RwLock::new(Arc::new(HookTable::new())),
            forward_nonempty: AtomicBool::new(false),
            grad_nonempty: AtomicBool::new(false),
            next_handle: AtomicU64::new(1),
        }
    }

    fn fresh_handle(&self) -> HookHandle {
        HookHandle(self.next_handle.fetch_add(1, Ordering::Relaxed))
    }

    /// Registers a forward hook on one layer.
    pub fn register_forward<F>(&self, layer: LayerId, hook: F) -> HookHandle
    where
        F: Fn(&LayerCtx<'_>, &mut Tensor) + Send + Sync + 'static,
    {
        let handle = self.fresh_handle();
        Arc::make_mut(&mut self.forward.write()).insert(
            Target::Layer(layer),
            handle,
            Arc::new(hook),
        );
        self.forward_nonempty.store(true, Ordering::Release);
        handle
    }

    /// Registers a forward hook that fires on *every* leaf layer (used for
    /// model profiling).
    pub fn register_forward_all<F>(&self, hook: F) -> HookHandle
    where
        F: Fn(&LayerCtx<'_>, &mut Tensor) + Send + Sync + 'static,
    {
        let handle = self.fresh_handle();
        Arc::make_mut(&mut self.forward.write()).insert(Target::All, handle, Arc::new(hook));
        self.forward_nonempty.store(true, Ordering::Release);
        handle
    }

    /// Registers a gradient hook on one layer.
    pub fn register_grad<F>(&self, layer: LayerId, hook: F) -> HookHandle
    where
        F: Fn(&LayerCtx<'_>, &Tensor) + Send + Sync + 'static,
    {
        let handle = self.fresh_handle();
        Arc::make_mut(&mut self.grad.write()).insert(Target::Layer(layer), handle, Arc::new(hook));
        self.grad_nonempty.store(true, Ordering::Release);
        handle
    }

    /// Removes a hook by handle. Returns whether anything was removed.
    pub fn remove(&self, handle: HookHandle) -> bool {
        remove_from(&self.forward, &self.forward_nonempty, handle)
            || remove_from(&self.grad, &self.grad_nonempty, handle)
    }

    /// Removes every hook.
    pub fn clear(&self) {
        *self.forward.write() = Arc::new(HookTable::new());
        *self.grad.write() = Arc::new(HookTable::new());
        self.forward_nonempty.store(false, Ordering::Release);
        self.grad_nonempty.store(false, Ordering::Release);
    }

    /// Number of registered hooks (forward + gradient).
    pub fn len(&self) -> usize {
        self.forward.read().count() + self.grad.read().count()
    }

    /// Whether no hooks are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether any forward hook would fire on layer `id` — an all-layer hook
    /// or one registered for that id. Compiled forward plans use this to
    /// decide fusion: a conv/activation group only fuses when no member is
    /// observed, so injection and profiling hooks automatically force the
    /// unfused (hook-visible) execution order. Fast path: one atomic load
    /// when nothing is registered.
    pub fn has_forward(&self, id: LayerId) -> bool {
        if !self.forward_nonempty.load(Ordering::Acquire) {
            return false;
        }
        let table = self.forward.read();
        !table.all.is_empty() || table.by_layer.get(&id).is_some_and(|v| !v.is_empty())
    }

    /// Fires forward hooks for a layer, returning how many ran. This is the
    /// per-layer fast path: a relaxed atomic load when nothing is registered.
    pub(crate) fn dispatch_forward(&self, ctx: &LayerCtx<'_>, out: &mut Tensor) -> usize {
        if !self.forward_nonempty.load(Ordering::Acquire) {
            return 0;
        }
        // Fire from a snapshot, not under the lock, so hooks can re-enter
        // the registry (e.g. a hook that removes itself).
        let table = Arc::clone(&self.forward.read());
        let mut fired = 0;
        for hook in table.hooks_for(ctx.id) {
            hook(ctx, out);
            fired += 1;
        }
        fired
    }

    /// Fires gradient hooks for a layer.
    pub(crate) fn dispatch_grad(&self, ctx: &LayerCtx<'_>, grad_out: &Tensor) {
        if !self.grad_nonempty.load(Ordering::Acquire) {
            return;
        }
        let table = Arc::clone(&self.grad.read());
        for hook in table.hooks_for(ctx.id) {
            hook(ctx, grad_out);
        }
    }
}

/// Removes `handle` from one of a registry's tables, clearing its
/// `nonempty` flag when that empties the table.
fn remove_from<H: Clone>(
    table: &RwLock<Arc<HookTable<H>>>,
    nonempty: &AtomicBool,
    handle: HookHandle,
) -> bool {
    let mut guard = table.write();
    let table = Arc::make_mut(&mut guard);
    let removed = table.remove(handle);
    if removed && table.is_empty() {
        nonempty.store(false, Ordering::Release);
    }
    removed
}

impl Default for HookRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for HookRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HookRegistry")
            .field("forward_hooks", &self.forward.read().count())
            .field("grad_hooks", &self.grad.read().count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn ctx(id: usize) -> (LayerId, LayerKind) {
        (LayerId::from_index(id), LayerKind::Conv2d)
    }

    fn fire_forward(reg: &HookRegistry, id: usize, out: &mut Tensor) {
        let (lid, kind) = ctx(id);
        reg.dispatch_forward(
            &LayerCtx {
                id: lid,
                name: "test",
                kind,
            },
            out,
        );
    }

    #[test]
    fn forward_hook_mutates_output() {
        let reg = HookRegistry::new();
        reg.register_forward(LayerId::from_index(3), |_, out| {
            out.data_mut()[0] = 42.0;
        });
        let mut t = Tensor::zeros(&[4]);
        fire_forward(&reg, 3, &mut t);
        assert_eq!(t.data()[0], 42.0);
    }

    #[test]
    fn hook_on_other_layer_does_not_fire() {
        let reg = HookRegistry::new();
        reg.register_forward(LayerId::from_index(3), |_, out| {
            out.data_mut()[0] = 42.0;
        });
        let mut t = Tensor::zeros(&[4]);
        fire_forward(&reg, 5, &mut t);
        assert_eq!(t.data()[0], 0.0);
    }

    #[test]
    fn all_hook_fires_everywhere() {
        let reg = HookRegistry::new();
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        reg.register_forward_all(move |_, _| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        let mut t = Tensor::zeros(&[1]);
        for id in 0..7 {
            fire_forward(&reg, id, &mut t);
        }
        assert_eq!(count.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn hooks_fire_in_registration_order() {
        let reg = HookRegistry::new();
        let id = LayerId::from_index(0);
        reg.register_forward(id, |_, out| out.data_mut()[0] += 1.0);
        reg.register_forward(id, |_, out| out.data_mut()[0] *= 10.0);
        let mut t = Tensor::zeros(&[1]);
        fire_forward(&reg, 0, &mut t);
        // (0 + 1) * 10, not 0 * 10 + 1.
        assert_eq!(t.data()[0], 10.0);
    }

    #[test]
    fn remove_unregisters() {
        let reg = HookRegistry::new();
        let h = reg.register_forward(LayerId::from_index(0), |_, out| out.data_mut()[0] = 1.0);
        assert_eq!(reg.len(), 1);
        assert!(reg.remove(h));
        assert!(reg.is_empty());
        assert!(!reg.remove(h), "double remove returns false");
        let mut t = Tensor::zeros(&[1]);
        fire_forward(&reg, 0, &mut t);
        assert_eq!(t.data()[0], 0.0);
    }

    #[test]
    fn clear_removes_everything() {
        let reg = HookRegistry::new();
        reg.register_forward(LayerId::from_index(0), |_, _| {});
        reg.register_forward_all(|_, _| {});
        reg.register_grad(LayerId::from_index(1), |_, _| {});
        assert_eq!(reg.len(), 3);
        reg.clear();
        assert!(reg.is_empty());
    }

    #[test]
    fn grad_hooks_observe_gradient() {
        let reg = HookRegistry::new();
        let seen = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&seen);
        reg.register_grad(LayerId::from_index(2), move |ctx, g| {
            assert_eq!(ctx.id.index(), 2);
            s.fetch_add(g.len(), Ordering::Relaxed);
        });
        let (lid, kind) = ctx(2);
        reg.dispatch_grad(
            &LayerCtx {
                id: lid,
                name: "g",
                kind,
            },
            &Tensor::zeros(&[6]),
        );
        assert_eq!(seen.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn hook_may_remove_itself_while_firing() {
        // Re-entrancy: the dispatch path must not hold the lock across calls.
        let reg = Arc::new(HookRegistry::new());
        let reg2 = Arc::clone(&reg);
        let handle_cell = Arc::new(RwLock::new(None::<HookHandle>));
        let hc = Arc::clone(&handle_cell);
        let h = reg.register_forward(LayerId::from_index(0), move |_, out| {
            out.data_mut()[0] += 1.0;
            if let Some(h) = *hc.read() {
                reg2.remove(h);
            }
        });
        *handle_cell.write() = Some(h);
        let mut t = Tensor::zeros(&[1]);
        fire_forward(&reg, 0, &mut t);
        fire_forward(&reg, 0, &mut t);
        assert_eq!(t.data()[0], 1.0, "hook removed itself after first fire");
    }

    #[test]
    fn has_forward_tracks_layer_and_all_hooks() {
        let reg = HookRegistry::new();
        let id = LayerId::from_index(3);
        let other = LayerId::from_index(4);
        assert!(!reg.has_forward(id), "empty registry");
        let h = reg.register_forward(id, |_, _| {});
        assert!(reg.has_forward(id));
        assert!(!reg.has_forward(other), "per-layer hook is scoped");
        reg.remove(h);
        assert!(!reg.has_forward(id), "removal restores the fast path");
        let h = reg.register_forward_all(|_, _| {});
        assert!(reg.has_forward(id) && reg.has_forward(other), "all-hook");
        reg.remove(h);
        // A grad hook never affects the forward check.
        reg.register_grad(id, |_, _| {});
        assert!(!reg.has_forward(id));
    }

    #[test]
    fn empty_registry_fast_path_leaves_tensor_untouched() {
        let reg = HookRegistry::new();
        let mut t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        fire_forward(&reg, 0, &mut t);
        assert_eq!(t.data(), &[1.0, 2.0]);
    }
}
