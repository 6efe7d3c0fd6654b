//! The golden prefix of a campaign, and where each trial pass starts.
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
//! The golden pass fills the prefix once, sequentially, and trials only read
//! it. That makes hit/miss behaviour — and therefore every trial record —
//! independent of the worker thread count. The prefix stores only what
//! trials look up: the resume point of the one layer the fault mode names
//! (every selection but `Random` names one), else that of every injectable
//! layer. A configurable byte budget bounds the heap cost on deep models:
//! when an insert would exceed it, the oldest entries are evicted (earliest
//! image and shallowest layer first, which is deterministic); a missing
//! entry just means that trial's pass starts at the image.

use crate::injector::FaultInjector;
use crate::profile::ModelProfile;
use rustfi_nn::{LayerId, Network};
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

/// One campaign's golden prefix: each injectable layer's resume point and
/// the FLOPs a hit on it skips, plus the golden inputs of the resume points
/// trials look up, keyed by `(image index, resume point)` and bounded by a
/// byte budget.
///
/// The golden pass fills it through `&mut` inserts; the workers then share
/// it read-only and count their outcomes in atomics.
pub(crate) struct GoldenPrefix {
    /// Each injectable layer's resume point, in profile order.
    resume: Vec<Option<LayerId>>,
    /// The FLOPs a hit on each injectable layer skips, in profile order.
    skipped: Vec<u64>,
    /// The resume points whose inputs the golden pass stores, sorted.
    stored: Vec<LayerId>,
    map: HashMap<(usize, LayerId), Tensor>,
    /// Insertion order, for deterministic oldest-first eviction.
    order: VecDeque<(usize, LayerId)>,
    budget_bytes: usize,
    bytes: usize,
    evictions: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    skipped_flops: AtomicU64,
}

fn tensor_bytes(t: &Tensor) -> usize {
    t.len() * std::mem::size_of::<f32>()
}

impl GoldenPrefix {
    /// An empty prefix of `net`, whose injectable layers `profile` lists,
    /// that stores the resume point of injectable layer `layer` — of every
    /// injectable layer when `None` — within `budget_bytes`.
    pub(crate) fn new(
        net: &Network,
        profile: &ModelProfile,
        layer: Option<usize>,
        budget_bytes: usize,
    ) -> Self {
        let layers = profile.layers();
        let resume: Vec<Option<LayerId>> = layers.iter().map(|l| net.resume_point(l.id)).collect();
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
        let mut stored: Vec<LayerId> = match layer {
            Some(li) => resume.get(li).copied().flatten().into_iter().collect(),
            None => resume.iter().flatten().copied().collect(),
        };
        stored.sort_unstable();
        stored.dedup();
        Self {
            resume,
            skipped,
            stored,
            map: HashMap::new(),
            order: VecDeque::new(),
            budget_bytes,
            bytes: 0,
            evictions: 0,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            skipped_flops: AtomicU64::new(0),
        }
    }

    /// Whether the golden pass stores the input of module `id`.
    pub(crate) fn stores(&self, id: LayerId) -> bool {
        self.stored.binary_search(&id).is_ok()
    }

    /// Stores the activation `image` presented to resume point `id`,
    /// evicting the oldest entries as needed to respect the budget. An
    /// activation larger than the whole budget is not stored, and the first
    /// insert of a key wins.
    pub(crate) fn insert(&mut self, image: usize, id: LayerId, activation: Tensor) {
        let size = tensor_bytes(&activation);
        if size > self.budget_bytes || self.map.contains_key(&(image, id)) {
            return;
        }
        while self.bytes + size > self.budget_bytes {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if let Some(evicted) = self.map.remove(&oldest) {
                self.bytes -= tensor_bytes(&evicted);
                self.evictions += 1;
            }
        }
        self.bytes += size;
        self.order.push_back((image, id));
        self.map.insert((image, id), activation);
    }

    /// The resume point of injectable layer `layer` and its stored golden
    /// input on image `image`, if resident.
    fn lookup(&self, layer: usize, image: usize) -> Option<(LayerId, &Tensor)> {
        let id = self.resume.get(layer).copied().flatten()?;
        self.map.get(&(image, id)).map(|act| (id, act))
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

    /// Current counters.
    pub(crate) fn stats(&self) -> PrefixStats {
        PrefixStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.len(),
            bytes: self.bytes,
            evictions: self.evictions,
            skipped_flops: self.skipped_flops.load(Ordering::Relaxed),
        }
    }
}

/// Where one campaign unit's forward pass starts, as the golden prefix
/// decides it: at the stored golden input of the injection layer's resume
/// point on a hit, at the image otherwise.
pub(crate) struct PassStart<'p> {
    image: usize,
    resume: Option<(LayerId, &'p Tensor)>,
    /// `None` when the campaign keeps no golden prefix, else whether the
    /// unit hit it.
    pub(crate) hit: Option<bool>,
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
        }
    }

    /// Runs the unit's pass on `fi` from this start, drawing the image from
    /// `images` on a miss; `broadcast` is as in
    /// [`FaultInjector::forward_from`].
    pub(crate) fn run(
        &self,
        fi: &mut FaultInjector,
        images: &Tensor,
        broadcast: Option<(LayerId, usize)>,
    ) -> Tensor {
        let out = match self.resume {
            Some((id, act)) => fi.forward_from(Some(id), act, broadcast),
            None => {
                let x = images.select_batch(self.image);
                let out = fi.forward_from(None, &x, broadcast);
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
    fn a_named_layer_stores_only_its_resume_point() {
        let (net, profile) = lenet();
        let last = profile.len() - 1;
        let p = GoldenPrefix::new(&net, &profile, Some(last), 1 << 20);
        let stored: Vec<bool> = p.resume.iter().map(|r| p.stores(r.unwrap())).collect();
        assert_eq!(stored.iter().filter(|&&s| s).count(), 1);
        assert!(stored[last]);
        let out_of_range = GoldenPrefix::new(&net, &profile, Some(99), 1 << 20);
        assert!(out_of_range.stored.is_empty());
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
