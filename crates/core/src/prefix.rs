//! Golden-prefix activation cache for campaigns.
//!
//! A campaign trial that injects into layer *L* leaves every layer executed
//! before *L* fault-free — those layers recompute exactly the activations of
//! the golden (clean) run. The [`PrefixCache`] stores, per evaluated image,
//! the input activation of each injection layer's *resume point* (see
//! [`rustfi_nn::Network::resume_point`]); trials then restart the forward
//! pass there instead of from the pixels — serial trials via
//! [`rustfi_nn::Network::forward_from`], fused chunks via
//! [`rustfi_nn::Network::forward_from_broadcast`]. Because f32 inference is
//! deterministic, the resumed pass is bit-identical to a full one — only the
//! skipped FLOPs differ.
//!
//! The cache is populated once, sequentially, during the golden pass, and
//! is read-only while trials run. That makes hit/miss behaviour — and
//! therefore every trial record — independent of the worker thread count. A
//! configurable byte budget bounds the heap cost on deep models: when an
//! insert would exceed it, the oldest entries are evicted
//! (insertion-ordered, i.e. earliest image/shallowest layer first, which is
//! deterministic); a missing entry just means that trial falls back to a
//! full forward pass.

use parking_lot::Mutex;
use rustfi_nn::LayerId;
use rustfi_tensor::Tensor;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration of the golden-prefix cache
/// ([`CampaignConfig::prefix_cache`](crate::CampaignConfig::prefix_cache)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixCacheConfig {
    /// Maximum bytes of cached activations. When the golden pass would
    /// exceed it, the oldest entries are evicted; affected trials fall back
    /// to full forward passes (results are unchanged either way).
    pub budget_bytes: usize,
    /// Restrict caching to these injectable-layer indices (profile order,
    /// as in [`TrialRecord::layer`](crate::TrialRecord::layer)). `None`
    /// caches for every injectable layer. Whitelisting the mid/late layers
    /// that dominate a campaign keeps the budget for the entries that pay.
    pub layers: Option<Vec<usize>>,
}

impl Default for PrefixCacheConfig {
    fn default() -> Self {
        Self {
            // 256 MiB holds the full prefix set for every zoo model at
            // CIFAR-scale inputs with plenty of headroom.
            budget_bytes: 256 << 20,
            layers: None,
        }
    }
}

impl PrefixCacheConfig {
    /// A cache with the given byte budget and no layer whitelist.
    pub fn with_budget(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            ..Self::default()
        }
    }

    /// Whether `layer` (an injectable-layer index) may be cached.
    pub fn allows_layer(&self, layer: usize) -> bool {
        self.layers.as_ref().is_none_or(|l| l.contains(&layer))
    }
}

/// Counters describing one campaign's prefix-cache behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixStats {
    /// Trials that resumed from a cached activation.
    pub hits: u64,
    /// Trials that fell back to a full forward pass.
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

struct Inner {
    map: HashMap<(usize, LayerId), Arc<Tensor>>,
    /// Insertion order, for deterministic oldest-first eviction.
    order: VecDeque<(usize, LayerId)>,
    bytes: usize,
    evictions: u64,
}

/// Shared, budget-bounded store of golden prefix activations, keyed by
/// `(image index, resume-point layer id)`.
pub struct PrefixCache {
    inner: Mutex<Inner>,
    budget_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    skipped_flops: AtomicU64,
}

fn tensor_bytes(t: &Tensor) -> usize {
    t.len() * std::mem::size_of::<f32>()
}

impl PrefixCache {
    /// An empty cache with the given byte budget.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
                bytes: 0,
                evictions: 0,
            }),
            budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            skipped_flops: AtomicU64::new(0),
        }
    }

    /// Inserts the activation `image` presented to resume point `layer`,
    /// evicting oldest entries as needed to respect the budget. An
    /// activation larger than the whole budget is simply not cached.
    pub fn insert(&self, image: usize, layer: LayerId, activation: Tensor) {
        let size = tensor_bytes(&activation);
        if size > self.budget_bytes {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.map.contains_key(&(image, layer)) {
            return;
        }
        while inner.bytes + size > self.budget_bytes {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            if let Some(evicted) = inner.map.remove(&oldest) {
                inner.bytes -= tensor_bytes(&evicted);
                inner.evictions += 1;
            }
        }
        inner.bytes += size;
        inner.order.push_back((image, layer));
        inner.map.insert((image, layer), Arc::new(activation));
    }

    /// Looks up `(image, layer)` *without* counting the outcome.
    ///
    /// Campaign units — a serial trial or a fused chunk — peek before their
    /// forward pass and charge the counters once it is over, crashed trials
    /// included (via [`PrefixCache::record_outcome`]). A fused chunk that
    /// crashes charges nothing itself: its serial replay counts each trial,
    /// keeping `hits + misses == trials` regardless of fusion.
    pub fn peek(&self, image: usize, layer: LayerId) -> Option<Arc<Tensor>> {
        self.inner.lock().map.get(&(image, layer)).cloned()
    }

    /// Counts `n` trials that shared one peeked outcome: `n` hits (each
    /// skipping `flops`, the caller's estimate of the work a hit skips,
    /// accumulated into [`PrefixStats::skipped_flops`]) when `hit`, else
    /// `n` misses.
    pub fn record_outcome(&self, hit: bool, n: u64, flops: u64) {
        if hit {
            self.hits.fetch_add(n, Ordering::Relaxed);
            self.skipped_flops.fetch_add(flops * n, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PrefixStats {
        let inner = self.inner.lock();
        PrefixStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: inner.map.len(),
            bytes: inner.bytes,
            evictions: inner.evictions,
            skipped_flops: self.skipped_flops.load(Ordering::Relaxed),
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for PrefixCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PrefixCache")
            .field("budget_bytes", &self.budget_bytes)
            .field("entries", &stats.entries)
            .field("bytes", &stats.bytes)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> LayerId {
        LayerId::from_index(i)
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let cache = PrefixCache::new(1 << 20);
        cache.insert(0, id(3), Tensor::ones(&[1, 2, 4, 4]));
        let hit = cache.peek(0, id(3)).expect("cached");
        assert_eq!(hit.dims(), &[1, 2, 4, 4]);
        assert!(cache.peek(1, id(3)).is_none());
        assert!(cache.peek(0, id(4)).is_none());
        cache.record_outcome(true, 1, 100);
        cache.record_outcome(false, 2, 100);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert_eq!(s.skipped_flops, 100);
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, 32 * 4);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn peek_and_record_outcome_count_like_n_lookups() {
        let cache = PrefixCache::new(1 << 20);
        cache.insert(0, id(3), Tensor::ones(&[8]));
        // Peek never counts.
        assert!(cache.peek(0, id(3)).is_some());
        assert!(cache.peek(1, id(3)).is_none());
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, 0));
        // A fused chunk of 5 trials on a hit, 3 on a miss.
        cache.record_outcome(true, 5, 100);
        cache.record_outcome(false, 3, 100);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.skipped_flops), (5, 3, 500));
    }

    #[test]
    fn budget_evicts_oldest_first() {
        // Budget fits exactly two 16-float entries.
        let cache = PrefixCache::new(2 * 16 * 4);
        cache.insert(0, id(1), Tensor::ones(&[16]));
        cache.insert(1, id(1), Tensor::ones(&[16]));
        cache.insert(2, id(1), Tensor::ones(&[16]));
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(0, id(1)).is_none(), "oldest evicted");
        assert!(cache.peek(2, id(1)).is_some(), "newest kept");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn oversized_entry_is_not_cached() {
        let cache = PrefixCache::new(15);
        cache.insert(0, id(0), Tensor::ones(&[16]));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let cache = PrefixCache::new(1 << 20);
        cache.insert(0, id(0), Tensor::ones(&[4]));
        cache.insert(0, id(0), Tensor::zeros(&[8]));
        assert_eq!(cache.stats().bytes, 16, "first entry wins");
    }

    #[test]
    fn config_whitelist_filters_layers() {
        let all = PrefixCacheConfig::default();
        assert!(all.allows_layer(7));
        let some = PrefixCacheConfig {
            layers: Some(vec![2, 5]),
            ..Default::default()
        };
        assert!(some.allows_layer(2) && some.allows_layer(5));
        assert!(!some.allows_layer(0));
        assert_eq!(PrefixCacheConfig::with_budget(64).budget_bytes, 64);
    }
}
