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
//! The points stored for an image, with its golden logits, are also its
//! *golden trace*. Most faults are masked, and a masked fault often dies on
//! the way: past some spine point the trial's activations equal the golden
//! ones bit for bit, so the rest of its pass would recompute the golden run.
//! A pass handed the trace ([`rustfi_nn::GoldenTrace`]) drops each batch
//! slice at the first spine point after its fault where it matches, and the
//! slice's record is built from the golden logits — the record the full
//! pass would produce. One function, `GoldenPrefix::trace`, decides whether
//! a pass gets the trace, and lists when skipping the rest of a pass cannot
//! change a record.
//!
//! The golden pass fills the prefix once, sequentially, and trials only read
//! it. That makes hit/miss behaviour — and therefore every trial record —
//! independent of the worker thread count. Per image, the prefix stores one
//! sorted list: the inputs of the resume points of the injectable layers
//! from the first one the fault mode can hit (every selection but `Random`
//! names one layer), else of every injectable layer. A byte budget bounds
//! the heap cost on deep models: an image's list is stored whole while it
//! fits in what is left of the budget, and nothing of it otherwise; nothing
//! is evicted. The trials on an image that is not stored start at the image
//! and run to the end.

use crate::profile::ModelProfile;
use rustfi_nn::{GoldenTrace, LayerId, Network};
use rustfi_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of the golden prefix
/// ([`CampaignConfig::prefix_cache`](crate::CampaignConfig::prefix_cache)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixCacheConfig {
    /// Maximum bytes of stored activations. The golden pass stores each
    /// image's activations whole while they fit in what is left of the
    /// budget; the trials on an image that did not fit start at the image
    /// and never stop early (results are unchanged either way).
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
    /// Activations stored, over every stored image.
    pub entries: usize,
    /// Bytes of stored activations.
    pub bytes: usize,
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

/// One stored image's golden activations and its golden output.
struct ImageTrace {
    /// Golden inputs of the stored resume points, sorted by id.
    points: Vec<(LayerId, Tensor)>,
    /// The golden logits.
    logits: Vec<f32>,
}

/// One campaign's golden prefix: each injectable layer's resume point and
/// the FLOPs a hit on it skips, plus — per image stored whole within the
/// byte budget — the golden inputs of the resume points trials start from
/// or may stop at, and the golden logits.
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
    /// The resume points stored per image, sorted.
    points: Vec<LayerId>,
    /// Each image's stored trace; `None` for an image not stored.
    images: Vec<Option<ImageTrace>>,
    /// Whether passes may stop at a stored trace (see [`Self::trace`]).
    may_exit: bool,
    budget_bytes: usize,
    bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    skipped_flops: AtomicU64,
    exits: AtomicU64,
    exit_skipped_flops: AtomicU64,
}

impl GoldenPrefix {
    /// An empty prefix for `images` images through `net`, whose injectable
    /// layers `profile` lists. It stores the resume points of the
    /// injectable layers from `layer` on — of every one when `None` —
    /// within `budget_bytes`. `net` is the network as the factory built
    /// it, before the campaign installs any hook, and `max_steps` the
    /// campaign's watchdog budget: together they decide whether passes may
    /// stop early (see [`Self::trace`]).
    pub(crate) fn new(
        net: &Network,
        profile: &ModelProfile,
        layer: Option<usize>,
        budget_bytes: usize,
        images: usize,
        max_steps: Option<usize>,
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
        let mut points: Vec<LayerId> = resume
            .iter()
            .skip(layer.unwrap_or(0))
            .flatten()
            .copied()
            .collect();
        points.sort_unstable();
        points.dedup();
        // A full pass dispatches every leaf once.
        let leaves = net
            .layer_infos()
            .iter()
            .filter(|l| !l.kind.is_container())
            .count();
        Self {
            ids,
            resume,
            flops,
            skipped,
            points,
            images: std::iter::repeat_with(|| None).take(images).collect(),
            may_exit: max_steps.is_none_or(|budget| budget >= leaves)
                && net.hooks().forward_len() == 0,
            budget_bytes,
            bytes: 0,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            skipped_flops: AtomicU64::new(0),
            exits: AtomicU64::new(0),
            exit_skipped_flops: AtomicU64::new(0),
        }
    }

    /// Whether the golden pass stores the input of module `id`.
    pub(crate) fn stores(&self, id: LayerId) -> bool {
        self.points.binary_search(&id).is_ok()
    }

    /// Stores image `image`'s golden pass whole — the activations
    /// `captured`, each the input of a module [`Self::stores`] names, in
    /// pass order (which is id order), and the golden `logits` — when the
    /// activations fit in what is left of the budget. Stores nothing
    /// otherwise.
    pub(crate) fn insert_image(
        &mut self,
        image: usize,
        captured: Vec<(LayerId, Tensor)>,
        logits: &[f32],
    ) {
        debug_assert!(captured.windows(2).all(|w| w[0].0 < w[1].0));
        let size: usize = captured
            .iter()
            .map(|(_, t)| t.len() * std::mem::size_of::<f32>())
            .sum();
        if self.bytes + size <= self.budget_bytes {
            self.bytes += size;
            self.images[image] = Some(ImageTrace {
                points: captured,
                logits: logits.to_vec(),
            });
        }
    }

    /// The resume point of injectable layer `layer` and its stored golden
    /// input on image `image`, if stored.
    fn lookup(&self, layer: usize, image: usize) -> Option<(LayerId, &Tensor)> {
        let id = self.resume.get(layer).copied().flatten()?;
        let points = &self.images.get(image)?.as_ref()?.points;
        let at = points.binary_search_by_key(&id, |(p, _)| *p).ok()?;
        Some((id, &points[at].1))
    }

    /// The golden trace a pass with a fault in injectable layer `layer` on
    /// image `image` may stop at, and the golden logits its dropped slices
    /// take. Stopping skips the rest of the pass, which cannot change a
    /// record only when all of these hold, else this is `None`:
    ///
    /// - the campaign has no `max_steps` budget, or one of at least the
    ///   network's leaf count (a smaller budget trips every pass that
    ///   reaches the end, so those trials must stay Hang);
    /// - the factory's network carries no forward hook, so every hook on a
    ///   worker's network is the campaign's own: its guard, INT8 emulation
    ///   and fault hooks (a user hook past the exit point would not run);
    /// - the image is stored, so its golden pass was finite everywhere (the
    ///   guard would otherwise blame a layer past the exit point).
    fn trace(&self, layer: usize, image: usize) -> Option<(GoldenTrace<'_>, &[f32])> {
        let t = self.images.get(image)?.as_ref().filter(|_| self.may_exit)?;
        let after = *self.ids.get(layer)?;
        Some((GoldenTrace::new(after, &t.points), &t.logits))
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
            entries: self.images.iter().flatten().map(|t| t.points.len()).sum(),
            bytes: self.bytes,
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
    /// The golden trace and logits, when the unit's pass may stop early.
    golden: Option<(GoldenTrace<'p>, &'p [f32])>,
}

impl<'p> PassStart<'p> {
    /// The start of a unit that injects into injectable layer `layer` on
    /// image `image`.
    pub(crate) fn new(prefix: Option<&'p GoldenPrefix>, layer: usize, image: usize) -> Self {
        let resume = prefix.and_then(|p| p.lookup(layer, image));
        Self {
            image,
            resume,
            hit: prefix.map(|_| resume.is_some()),
            golden: prefix.and_then(|p| p.trace(layer, image)),
        }
    }

    /// Runs the unit's pass on `net` from this start, drawing the image
    /// from `images` on a miss; `broadcast` is as in
    /// [`Network::forward_from`]. Read each slice's output with
    /// [`Self::row`].
    pub(crate) fn run(
        &self,
        net: &mut Network,
        images: &Tensor,
        broadcast: Option<(LayerId, usize)>,
    ) -> Tensor {
        let trace = self.golden.map(|(trace, _)| trace);
        let out = match self.resume {
            Some((id, act)) => net.forward_from(Some(id), act, broadcast, trace),
            None => {
                let x = images.select_batch(self.image);
                let out = net.forward_from(None, &x, broadcast, trace);
                x.into_pool();
                out
            }
        };
        out.expect("a resume point is a layer of its network")
    }

    /// Batch slice `slice`'s output row of the pass [`Self::run`] just ran
    /// on `net`, which returned `out`: the slice's row of `out`, or the
    /// golden logits when the pass dropped the slice, which are the row
    /// the full pass would produce. Output row `r` carries slice
    /// [`Network::live_rows`]`()[r]` once the pass has dropped any.
    pub(crate) fn row<'a>(&'a self, net: &Network, out: &'a Tensor, slice: usize) -> &'a [f32] {
        let row = match net.live_rows() {
            Some(rows) => rows.iter().position(|&b| b == slice),
            None => Some(slice),
        };
        match row {
            Some(r) => {
                let width = out.len() / out.dims()[0];
                &out.data()[r * width..(r + 1) * width]
            }
            None => {
                let (_, logits) = self
                    .golden
                    .expect("only a pass with a golden trace drops slices");
                logits
            }
        }
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

    /// The resume point of each of lenet's injectable layers.
    fn resume_points(p: &GoldenPrefix) -> Vec<LayerId> {
        p.resume.iter().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let (net, profile) = lenet();
        let mut p = GoldenPrefix::new(&net, &profile, None, 1 << 20, 2, None);
        let ids = resume_points(&p);
        assert!(ids.iter().all(|&id| p.stores(id)));
        p.insert_image(0, vec![(ids[1], Tensor::ones(&[1, 2, 4, 4]))], &[]);
        let (id, act) = p.lookup(1, 0).expect("stored");
        assert_eq!((id, act.dims()), (ids[1], &[1, 2, 4, 4][..]));
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
        let points = |layer| GoldenPrefix::new(&net, &profile, layer, 1 << 20, 1, None).points;
        let ids = resume_points(&GoldenPrefix::new(&net, &profile, None, 0, 1, None));
        assert_eq!(points(Some(profile.len() - 1)), [ids[3]]);
        // From layer 1 on, every resume point is stored: layer 1's, which
        // its trials resume from, and those its passes may stop at.
        assert_eq!(points(Some(1)), ids[1..]);
        assert_eq!(points(None), ids);
        assert!(points(Some(99)).is_empty());
    }

    #[test]
    fn images_are_stored_whole_while_they_fit() {
        let (net, profile) = lenet();
        // From layer 1 on, an image stores three 16-float points.
        let image = 3 * 16 * 4;
        for (budget, whole) in [(2 * image, 2), (2 * image + image / 2, 2), (image - 1, 0)] {
            let mut p = GoldenPrefix::new(&net, &profile, Some(1), budget, 4, None);
            let trace: Vec<(LayerId, Tensor)> = p
                .points
                .iter()
                .map(|&id| (id, Tensor::ones(&[16])))
                .collect();
            assert_eq!(trace.len(), 3);
            for i in 0..4 {
                p.insert_image(i, trace.clone(), &[i as f32]);
            }
            for i in 0..4 {
                let stored = i < whole;
                assert!(p.lookup(0, i).is_none(), "layer 0 is not stored");
                assert_eq!(p.lookup(1, i).is_some(), stored, "{budget}: image {i}");
                assert_eq!(p.lookup(3, i).is_some(), stored, "{budget}: image {i}");
                let logits = p.trace(1, i).map(|(_, logits)| logits.to_vec());
                assert_eq!(logits, stored.then(|| vec![i as f32]));
            }
            let s = p.stats();
            assert_eq!((s.entries, s.bytes), (3 * whole, image * whole));
        }
    }

    #[test]
    fn exits_skip_the_injectable_layers_from_their_point_on() {
        let (net, profile) = lenet();
        let p = GoldenPrefix::new(&net, &profile, None, 1 << 20, 1, None);
        let ids = resume_points(&p);
        let tail: u64 = p.flops[2..].iter().sum();
        assert_eq!(p.count_exits(&[(0, ids[2]), (3, ids[2])]), 2 * tail);
        assert_eq!(p.count_exits(&[(1, ids[3])]), p.flops[3]);
        let s = p.stats();
        assert_eq!((s.exits, s.exit_skipped_flops), (3, 2 * tail + p.flops[3]));
        assert!(p.flops[3] > 0 && p.flops[2] > 0);
    }
}
