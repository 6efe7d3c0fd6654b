//! The golden prefix of a campaign, and where each trial pass starts and
//! stops.
//!
//! A campaign trial that injects into layer *L* leaves every layer executed
//! before *L* fault-free — those layers recompute exactly the activations of
//! the golden (clean) run. The campaign's golden prefix stores, per
//! evaluated image, the input activation of the injection layer's *resume
//! point* (see [`rustfi_nn::Network::resume_point`]); each trial pass then
//! starts there instead of at the pixels, through
//! [`rustfi_nn::Network::forward_from`]. Because inference is deterministic,
//! the resumed pass is bit-identical to a full one — only the skipped FLOPs
//! differ.
//!
//! The same golden pass also keeps a *golden trace* per image: the input of
//! every injectable layer's resume point from the first layer the fault
//! mode can hit, plus the golden logits. Most faults are masked, and a
//! masked fault often dies on the way: past some spine point the trial's
//! activations equal the golden ones bit for bit, so the rest of its pass
//! would recompute the golden run. A pass handed the trace
//! ([`rustfi_nn::GoldenTrace`]) drops each batch slice at the first spine
//! point after its fault where it matches, and the slice's record is built
//! from the golden logits — the record the full pass would produce. The
//! campaign hands the trace over only when skipping the rest of a pass
//! cannot change a record:
//!
//! - no `max_steps` budget, or one of at least the network's leaf count (a
//!   smaller budget trips every pass that reaches the end, so those trials
//!   must stay Hang);
//! - every forward hook on the network was installed by the campaign (a
//!   user hook past the exit point would not run);
//! - the image is cached, so its golden pass was finite everywhere (the
//!   guard would otherwise blame a layer past the exit point).
//!
//! The golden pass fills the prefix once, sequentially, and trials only read
//! it. That makes hit/miss behaviour — and therefore every trial record —
//! independent of the worker thread count. The prefix stores only what
//! trials look up: the resume point of the one layer the fault mode names
//! (every selection but `Random` names one), else that of every injectable
//! layer, and the trace points after it. A configurable byte budget bounds
//! the heap cost on deep models: when an entry a trial resumes from would
//! exceed it, the oldest such entries are evicted (earliest image and
//! shallowest layer first, which is deterministic), then the oldest
//! trace-only ones; a trace-only entry is kept only in the room left and
//! never evicts anything. A missing entry just means that trial's pass
//! starts at the image, or runs past that spine point.

use crate::injector::FaultInjector;
use crate::profile::ModelProfile;
use rustfi_nn::{GoldenTrace, LayerId, Network};
use rustfi_tensor::Tensor;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of the golden prefix
/// ([`CampaignConfig::prefix_cache`](crate::CampaignConfig::prefix_cache)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixCacheConfig {
    /// Maximum bytes of stored activations. When the golden pass would
    /// exceed it, the oldest entries are evicted; affected trials start at
    /// the image (results are unchanged either way).
    pub budget_bytes: usize,
}

impl Default for PrefixCacheConfig {
    fn default() -> Self {
        // 256 MiB holds the full prefix set for every zoo model at
        // CIFAR-scale inputs with plenty of headroom.
        Self::with_budget(256 << 20)
    }
}

impl PrefixCacheConfig {
    /// A golden prefix with the given byte budget.
    ///
    /// ```
    /// use rustfi::{CampaignConfig, PrefixCacheConfig};
    ///
    /// let cfg = CampaignConfig {
    ///     prefix_cache: Some(PrefixCacheConfig::with_budget(256 << 20)),
    ///     ..CampaignConfig::default()
    /// };
    /// assert_eq!(cfg.prefix_cache, Some(PrefixCacheConfig::default()));
    /// ```
    pub fn with_budget(budget_bytes: usize) -> Self {
        Self { budget_bytes }
    }
}

/// Counters describing one campaign's golden-prefix behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixStats {
    /// Trials that resumed from a stored activation.
    pub hits: u64,
    /// Trials whose pass started at the image.
    pub misses: u64,
    /// Entries resident when the campaign finished.
    pub entries: usize,
    /// Bytes resident when the campaign finished.
    pub bytes: usize,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Estimated floating-point operations skipped by hits.
    pub skipped_flops: u64,
    /// Trials (batch slices) whose pass ended at a golden match.
    pub exits: u64,
    /// Estimated floating-point operations of the injectable layers after
    /// each exit point, which the exiting trials skipped (2 FLOPs per MAC
    /// of conv/linear layers, as [`Self::skipped_flops`]).
    pub exit_skipped_flops: u64,
}

impl PrefixStats {
    /// Fraction of lookups that hit, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One image's stored golden activations and its golden output.
#[derive(Default)]
struct ImageTrace {
    /// Golden inputs of resume points, sorted by id.
    points: Vec<(LayerId, Tensor)>,
    /// The golden logits.
    logits: Vec<f32>,
}

/// One campaign's golden prefix: each injectable layer's resume point and
/// the FLOPs a hit on it skips, plus — per image — the golden inputs of the
/// resume points trials look up or may exit at and the golden logits,
/// bounded by a byte budget.
///
/// The golden pass fills it through `&mut` inserts; the workers then share
/// it read-only and count their outcomes in atomics.
pub(crate) struct GoldenPrefix {
    /// Each injectable layer's id, in profile order.
    ids: Vec<LayerId>,
    /// Each injectable layer's resume point, in profile order.
    resume: Vec<Option<LayerId>>,
    /// The FLOPs of each injectable layer, in profile order.
    flops: Vec<u64>,
    /// The FLOPs a hit on each injectable layer skips, in profile order.
    skipped: Vec<u64>,
    /// The resume points trials start from, sorted.
    stored: Vec<LayerId>,
    /// The resume points the trace keeps beyond `stored`, sorted.
    traced: Vec<LayerId>,
    images: HashMap<usize, ImageTrace>,
    /// Insertion order of the entries trials resume from, and of the
    /// trace-only ones, for deterministic oldest-first eviction.
    order: VecDeque<(usize, LayerId)>,
    trace_order: VecDeque<(usize, LayerId)>,
    budget_bytes: usize,
    bytes: usize,
    trace_bytes: usize,
    evictions: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    skipped_flops: AtomicU64,
    exits: AtomicU64,
    exit_skipped_flops: AtomicU64,
}

fn tensor_bytes(t: &Tensor) -> usize {
    t.len() * std::mem::size_of::<f32>()
}

/// Where `id` sits in `points`, which are sorted by id: `Ok` at its entry,
/// `Err` where it would go.
fn find(points: &[(LayerId, Tensor)], id: LayerId) -> Result<usize, usize> {
    points.binary_search_by_key(&id, |(p, _)| *p)
}

impl GoldenPrefix {
    /// An empty prefix of `net`, whose injectable layers `profile` lists,
    /// that stores the resume point of injectable layer `layer` — of every
    /// injectable layer when `None` — and traces the resume points of the
    /// layers after it, within `budget_bytes`.
    pub(crate) fn new(
        net: &Network,
        profile: &ModelProfile,
        layer: Option<usize>,
        budget_bytes: usize,
    ) -> Self {
        let layers = profile.layers();
        let ids: Vec<LayerId> = layers.iter().map(|l| l.id).collect();
        let resume: Vec<Option<LayerId>> = ids.iter().map(|&id| net.resume_point(id)).collect();
        // A hit on layer `li` skips the injectable layers that run strictly
        // before its resume point; layers sharing the resume point live
        // inside the same resumed container and re-execute. (Estimate: 2
        // FLOPs per MAC of conv/linear layers only.)
        let flops: Vec<u64> = layers
            .iter()
            .map(|l| {
                let per_neuron = l.weight_dims.get(1..).map_or(0, |d| d.iter().product());
                2 * l.neurons_per_image() as u64 * per_neuron as u64
            })
            .collect();
        let skipped = (0..layers.len())
            .map(|li| {
                (0..li)
                    .filter(|&j| resume[j] != resume[li])
                    .map(|j| flops[j])
                    .sum()
            })
            .collect();
        let sorted = |ids: &mut Vec<LayerId>| {
            ids.sort_unstable();
            ids.dedup();
        };
        let first = layer.unwrap_or(0);
        let mut stored: Vec<LayerId> = match layer {
            Some(li) => resume.get(li).copied().flatten().into_iter().collect(),
            None => resume.iter().flatten().copied().collect(),
        };
        sorted(&mut stored);
        let mut traced: Vec<LayerId> = resume
            .iter()
            .skip(first)
            .flatten()
            .copied()
            .filter(|id| stored.binary_search(id).is_err())
            .collect();
        sorted(&mut traced);
        Self {
            ids,
            resume,
            flops,
            skipped,
            stored,
            traced,
            images: HashMap::new(),
            order: VecDeque::new(),
            trace_order: VecDeque::new(),
            budget_bytes,
            bytes: 0,
            trace_bytes: 0,
            evictions: 0,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            skipped_flops: AtomicU64::new(0),
            exits: AtomicU64::new(0),
            exit_skipped_flops: AtomicU64::new(0),
        }
    }

    /// Whether the golden pass stores the input of module `id`.
    pub(crate) fn stores(&self, id: LayerId) -> bool {
        self.stored.binary_search(&id).is_ok() || self.traced.binary_search(&id).is_ok()
    }

    /// Stores image `image`'s golden pass: the activations `captured` —
    /// each the input of a module [`Self::stores`] names — and the golden
    /// `logits`.
    pub(crate) fn insert_image(
        &mut self,
        image: usize,
        captured: Vec<(LayerId, Tensor)>,
        logits: &[f32],
    ) {
        self.images.entry(image).or_default().logits = logits.to_vec();
        for (id, activation) in captured {
            self.insert(image, id, activation);
        }
    }

    /// Stores the activation `image` presented to resume point `id`,
    /// evicting as the budget requires: an entry trials resume from evicts
    /// the oldest such entries, then the oldest trace-only ones; a
    /// trace-only entry is stored only in the room left. An activation
    /// larger than the whole budget is not stored, and the first insert of
    /// a key wins.
    fn insert(&mut self, image: usize, id: LayerId, activation: Tensor) {
        let size = tensor_bytes(&activation);
        let points = &self.images.entry(image).or_default().points;
        if size > self.budget_bytes || find(points, id).is_ok() {
            return;
        }
        let resumed = self.stored.binary_search(&id).is_ok();
        if resumed {
            while self.bytes - self.trace_bytes + size > self.budget_bytes {
                let Some(oldest) = self.order.pop_front() else {
                    break;
                };
                self.evict(oldest);
            }
            while self.bytes + size > self.budget_bytes {
                let Some(oldest) = self.trace_order.pop_front() else {
                    break;
                };
                self.evict(oldest);
            }
            self.order.push_back((image, id));
        } else {
            if self.bytes + size > self.budget_bytes {
                return;
            }
            self.trace_bytes += size;
            self.trace_order.push_back((image, id));
        }
        self.bytes += size;
        let points = &mut self.images.entry(image).or_default().points;
        let (Ok(at) | Err(at)) = find(points, id);
        points.insert(at, (id, activation));
    }

    /// Drops entry `key`, if still resident.
    fn evict(&mut self, (image, id): (usize, LayerId)) {
        let Some(points) = self.images.get_mut(&image).map(|t| &mut t.points) else {
            return;
        };
        if let Ok(at) = find(points, id) {
            let (_, evicted) = points.remove(at);
            let size = tensor_bytes(&evicted);
            self.bytes -= size;
            if self.stored.binary_search(&id).is_err() {
                self.trace_bytes -= size;
            }
            self.evictions += 1;
        }
    }

    /// The resume point of injectable layer `layer` and its stored golden
    /// input on image `image`, if resident.
    fn lookup(&self, layer: usize, image: usize) -> Option<(LayerId, &Tensor)> {
        let id = self.resume.get(layer).copied().flatten()?;
        let points = &self.images.get(&image)?.points;
        let at = find(points, id).ok()?;
        Some((id, &points[at].1))
    }

    /// The golden trace a pass with a fault in injectable layer `layer` on
    /// image `image` may exit at, and the golden logits its exiting slices
    /// take; `None` when the golden pass stored nothing for the image.
    fn trace(&self, layer: usize, image: usize) -> Option<(GoldenTrace<'_>, &[f32])> {
        let t = self.images.get(&image)?;
        let after = *self.ids.get(layer)?;
        (!t.points.is_empty()).then(|| (GoldenTrace::new(after, &t.points), &t.logits[..]))
    }

    /// Counts `n` trials on injectable layer `layer` that shared one
    /// outcome: `n` hits, each skipping the FLOPs before the layer's resume
    /// point, or `n` misses. Returns the FLOPs one hit on `layer` skips.
    pub(crate) fn count(&self, layer: usize, hit: bool, n: u64) -> u64 {
        let skipped = self.skipped[layer];
        if hit {
            self.hits.fetch_add(n, Ordering::Relaxed);
            self.skipped_flops.fetch_add(skipped * n, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(n, Ordering::Relaxed);
        }
        skipped
    }

    /// Counts the trials a pass dropped, each at the spine point it
    /// rejoined the golden run at (see [`rustfi_nn::Network::dropped`]).
    /// Returns the FLOPs they skipped: those of the injectable layers from
    /// each point on.
    pub(crate) fn count_exits(&self, dropped: &[(usize, LayerId)]) -> u64 {
        let skipped = dropped
            .iter()
            .map(|&(_, at)| {
                let after = self.ids.iter().zip(&self.flops);
                after
                    .filter(|&(&id, _)| id >= at)
                    .map(|(_, f)| f)
                    .sum::<u64>()
            })
            .sum();
        self.exits
            .fetch_add(dropped.len() as u64, Ordering::Relaxed);
        self.exit_skipped_flops
            .fetch_add(skipped, Ordering::Relaxed);
        skipped
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> PrefixStats {
        PrefixStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.images.values().map(|t| t.points.len()).sum(),
            bytes: self.bytes,
            evictions: self.evictions,
            skipped_flops: self.skipped_flops.load(Ordering::Relaxed),
            exits: self.exits.load(Ordering::Relaxed),
            exit_skipped_flops: self.exit_skipped_flops.load(Ordering::Relaxed),
        }
    }
}

/// Where one campaign unit's forward pass starts, as the golden prefix
/// decides it — at the stored golden input of the injection layer's resume
/// point on a hit, at the image otherwise — and the golden trace it may
/// stop at.
pub(crate) struct PassStart<'p> {
    image: usize,
    resume: Option<(LayerId, &'p Tensor)>,
    /// `None` when the campaign keeps no golden prefix, else whether the
    /// unit hit it.
    pub(crate) hit: Option<bool>,
    /// The golden trace and logits, when the unit's pass may exit.
    golden: Option<(GoldenTrace<'p>, &'p [f32])>,
}

impl<'p> PassStart<'p> {
    /// The start of a unit that injects into injectable layer `layer` on
    /// image `image`; its pass may exit at the image's golden trace when
    /// `exits` holds (see the module docs for when the campaign allows it).
    pub(crate) fn new(
        prefix: Option<&'p GoldenPrefix>,
        layer: usize,
        image: usize,
        exits: bool,
    ) -> Self {
        let resume = prefix.and_then(|p| p.lookup(layer, image));
        Self {
            image,
            resume,
            hit: prefix.map(|_| resume.is_some()),
            golden: prefix.filter(|_| exits).and_then(|p| p.trace(layer, image)),
        }
    }

    /// The golden logits, which every slice the pass drops would have
    /// produced; `None` when the pass cannot exit.
    pub(crate) fn golden_logits(&self) -> Option<&'p [f32]> {
        self.golden.map(|(_, logits)| logits)
    }

    /// Runs the unit's pass on `fi` from this start, drawing the image from
    /// `images` on a miss; `broadcast` is as in
    /// [`FaultInjector::forward_from`]. The slices the pass dropped are
    /// then [`rustfi_nn::Network::dropped`], and the output carries the
    /// rest ([`rustfi_nn::Network::live_rows`]).
    pub(crate) fn run(
        &self,
        fi: &mut FaultInjector,
        images: &Tensor,
        broadcast: Option<(LayerId, usize)>,
    ) -> Tensor {
        let trace = self.golden.map(|(trace, _)| trace);
        let out = match self.resume {
            Some((id, act)) => fi.forward_from(Some(id), act, broadcast, trace),
            None => {
                let x = images.select_batch(self.image);
                let out = fi.forward_from(None, &x, broadcast, trace);
                x.into_pool();
                out
            }
        };
        out.expect("a resume point is a layer of its network")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustfi_nn::{zoo, ZooConfig};

    fn lenet() -> (Network, ModelProfile) {
        let mut net = zoo::lenet(&ZooConfig::tiny(4));
        let profile = ModelProfile::discover(&mut net, [1, 3, 16, 16]);
        (net, profile)
    }

    /// A lenet prefix storing every injectable layer's resume point within
    /// `budget` bytes, and the resume points of its first two layers.
    fn prefix(budget: usize) -> (GoldenPrefix, LayerId, LayerId) {
        let (net, profile) = lenet();
        let p = GoldenPrefix::new(&net, &profile, None, budget);
        let (a, b) = (p.resume[0].unwrap(), p.resume[1].unwrap());
        (p, a, b)
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let (mut p, a, b) = prefix(1 << 20);
        assert!(p.stores(a) && p.stores(b));
        p.insert(0, b, Tensor::ones(&[1, 2, 4, 4]));
        let (id, act) = p.lookup(1, 0).expect("stored");
        assert_eq!((id, act.dims()), (b, &[1, 2, 4, 4][..]));
        assert!(p.lookup(1, 1).is_none(), "other image");
        assert!(p.lookup(0, 0).is_none(), "other layer");
        // A fused unit of n trials counts n hits or n misses, and n hits
        // skip n times the FLOPs of one.
        assert_eq!(p.count(1, true, 5), p.skipped[1]);
        p.count(1, false, 2);
        let s = p.stats();
        assert_eq!(
            (s.hits, s.misses, s.skipped_flops),
            (5, 2, 5 * p.skipped[1])
        );
        assert!(p.skipped[1] > 0 && p.skipped[0] == 0, "{:?}", p.skipped);
        assert_eq!((s.entries, s.bytes), (1, 32 * 4));
        assert!((s.hit_rate() - 5.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn a_named_layer_resumes_from_its_resume_point_and_traces_the_rest() {
        let (net, profile) = lenet();
        let last = profile.len() - 1;
        let p = GoldenPrefix::new(&net, &profile, Some(last), 1 << 20);
        let stored: Vec<bool> = p.resume.iter().map(|r| p.stores(r.unwrap())).collect();
        assert_eq!(stored.iter().filter(|&&s| s).count(), 1);
        assert!(stored[last]);
        // From layer 1 on, every resume point is traced; only layer 1's
        // is one trials resume from.
        let p = GoldenPrefix::new(&net, &profile, Some(1), 1 << 20);
        let stored: Vec<bool> = p.resume.iter().map(|r| p.stores(r.unwrap())).collect();
        assert_eq!(stored, [false, true, true, true]);
        assert_eq!(p.stored, [p.resume[1].unwrap()]);
        let out_of_range = GoldenPrefix::new(&net, &profile, Some(99), 1 << 20);
        assert!(out_of_range.stored.is_empty() && out_of_range.traced.is_empty());
    }

    #[test]
    fn trace_entries_never_evict_entries_trials_resume_from() {
        let (net, profile) = lenet();
        // Layer 0 is resumed from; layers 1.. are traced. The budget holds
        // three 16-float entries.
        let mut p = GoldenPrefix::new(&net, &profile, Some(0), 3 * 16 * 4);
        let ids: Vec<LayerId> = p.resume.iter().map(|r| r.unwrap()).collect();
        let entry = || Tensor::ones(&[16]);
        p.insert_image(0, vec![(ids[0], entry()), (ids[1], entry())], &[0.5, 1.5]);
        p.insert_image(1, vec![(ids[0], entry()), (ids[1], entry())], &[2.5]);
        let traced = |p: &GoldenPrefix, image| p.images[&image].points.len();
        // Image 1's trace entry found no room and evicted nothing.
        assert!(p.lookup(0, 0).is_some() && p.lookup(0, 1).is_some());
        assert_eq!((traced(&p, 0), traced(&p, 1)), (2, 1));
        assert_eq!(p.trace(0, 0).unwrap().1, [0.5, 1.5]);
        // A third resumable entry evicts the trace entry first.
        p.insert_image(2, vec![(ids[0], entry())], &[]);
        assert!((0..3).all(|image| p.lookup(0, image).is_some()));
        assert_eq!(traced(&p, 0), 1);
        let s = p.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (3, 3 * 16 * 4, 1));
        // A fourth evicts the oldest resumable entry, as without a trace.
        p.insert_image(3, vec![(ids[0], entry())], &[]);
        assert!(p.lookup(0, 0).is_none() && p.lookup(0, 3).is_some());
        assert!(p.trace(0, 0).is_none(), "nothing left of image 0");
    }

    #[test]
    fn exits_skip_the_injectable_layers_from_their_point_on() {
        let (net, profile) = lenet();
        let p = GoldenPrefix::new(&net, &profile, None, 1 << 20);
        let ids: Vec<LayerId> = p.resume.iter().map(|r| r.unwrap()).collect();
        let tail: u64 = p.flops[2..].iter().sum();
        assert_eq!(p.count_exits(&[(0, ids[2]), (3, ids[2])]), 2 * tail);
        assert_eq!(p.count_exits(&[(1, ids[3])]), p.flops[3]);
        let s = p.stats();
        assert_eq!((s.exits, s.exit_skipped_flops), (3, 2 * tail + p.flops[3]));
        assert!(p.flops[3] > 0 && p.flops[2] > 0);
    }

    #[test]
    fn budget_evicts_oldest_first() {
        // Budget fits exactly two 16-float entries.
        let (mut p, a, _) = prefix(2 * 16 * 4);
        p.insert(0, a, Tensor::ones(&[16]));
        p.insert(1, a, Tensor::ones(&[16]));
        p.insert(2, a, Tensor::ones(&[16]));
        assert_eq!(p.stats().entries, 2);
        assert!(p.lookup(0, 0).is_none(), "oldest evicted");
        assert!(p.lookup(0, 2).is_some(), "newest kept");
        assert_eq!(p.stats().evictions, 1);
    }

    #[test]
    fn oversized_entry_is_not_stored() {
        let (mut p, a, _) = prefix(15);
        p.insert(0, a, Tensor::ones(&[16]));
        assert_eq!(p.stats().entries, 0);
        assert_eq!(p.stats().evictions, 0);
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let (mut p, a, _) = prefix(1 << 20);
        p.insert(0, a, Tensor::ones(&[4]));
        p.insert(0, a, Tensor::zeros(&[8]));
        assert_eq!(p.stats().bytes, 16, "first entry wins");
    }
}
