//! Canonical metric names emitted by the RustFI stack.
//!
//! Counter and timing keys cross crate boundaries as plain strings (the
//! [`Recorder`](crate::Recorder) API is stringly-keyed on purpose — it keeps
//! the trait object-safe and dependency-free). The constants here are the
//! single source of truth for those keys, so emitters in `rustfi-nn` /
//! `rustfi` and consumers (Prometheus export, dashboards, benches) cannot
//! drift apart.

/// Forward-hook dispatches observed at leaf layers (`rustfi-nn`).
pub const NN_HOOK_DISPATCHES: &str = "nn.hook_dispatches";

/// Guard-hook activation scans (`rustfi-nn`).
pub const NN_GUARD_CHECKS: &str = "nn.guard_checks";

/// Individual value perturbations applied by a fault injector.
pub const FI_INJECTIONS: &str = "fi.injections";

/// Perturbations that landed directly in a stored INT8 word (real-INT8
/// backend: quantized activations and cached quantized weights). A subset of
/// [`FI_INJECTIONS`].
pub const FI_INT8_WORD_FLIPS: &str = "fi.int8_word_flips";

/// Per-trial wall time histogram key.
pub const CAMPAIGN_TRIAL_NS: &str = "campaign.trial_ns";

/// Trials whose forward pass resumed from a cached golden-prefix activation.
pub const CAMPAIGN_PREFIX_HITS: &str = "campaign.prefix_hits";

/// Trials that fell back to a full forward pass (entry evicted, or image not
/// cached).
pub const CAMPAIGN_PREFIX_MISSES: &str = "campaign.prefix_misses";

/// Estimated floating-point operations skipped by prefix-cache hits
/// (2 × MACs of the injectable layers that did not re-execute).
pub const CAMPAIGN_PREFIX_SKIPPED_FLOPS: &str = "campaign.prefix_skipped_flops";

/// Trials executed inside fused batched forward passes.
pub const CAMPAIGN_FUSED_TRIALS: &str = "campaign.fused_trials";

/// Fused chunks (batched forward passes) executed.
pub const CAMPAIGN_FUSED_GROUPS: &str = "campaign.fused_groups";

/// Fused chunk width histogram (trials per batched forward); recorded
/// through the generic u64 histogram channel.
pub const CAMPAIGN_FUSED_WIDTH: &str = "campaign.fused_width";

/// Per-fused-chunk wall time histogram key (replaces
/// [`CAMPAIGN_TRIAL_NS`] for trials that ran fused).
pub const CAMPAIGN_FUSED_CHUNK_NS: &str = "campaign.fused_chunk_ns";

/// Tensor-pool requests satisfied from a worker's thread-local free list.
pub const CAMPAIGN_POOL_HITS: &str = "campaign.pool_hits";

/// Tensor-pool requests that fell back to a fresh heap allocation while
/// pooling was enabled.
pub const CAMPAIGN_POOL_MISSES: &str = "campaign.pool_misses";

/// Total bytes of activation storage handed out from recycled buffers.
pub const CAMPAIGN_POOL_RECYCLED_BYTES: &str = "campaign.pool_recycled_bytes";

/// Shard worker processes spawned by a fleet orchestrator (first launches
/// and restarts alike).
pub const FLEET_SPAWNS: &str = "fleet.spawns";

/// Shard workers restarted after dying (non-zero exit, signal) before
/// finishing their range.
pub const FLEET_RESTARTS: &str = "fleet.restarts";

/// Shard workers killed by the orchestrator for missing their heartbeat
/// deadline (hung, not dead).
pub const FLEET_HUNG_KILLS: &str = "fleet.hung_kills";

/// Shards abandoned after exhausting their restart budget; the merged
/// report lists them in `missing_shards`.
pub const FLEET_ABANDONED: &str = "fleet.abandoned";

/// One-line help text for a canonical metric name (the Prometheus `# HELP`
/// line). Unknown names get a generic description rather than an error so
/// ad-hoc metrics still render scrape-clean.
pub fn metric_help(name: &str) -> &'static str {
    match name {
        NN_HOOK_DISPATCHES => "Forward-hook dispatches observed at leaf layers.",
        NN_GUARD_CHECKS => "Guard-hook activation scans.",
        FI_INJECTIONS => "Individual value perturbations applied by a fault injector.",
        FI_INT8_WORD_FLIPS => "Perturbations applied directly to stored INT8 words.",
        CAMPAIGN_TRIAL_NS => "Per-trial wall time.",
        CAMPAIGN_PREFIX_HITS => "Trials resumed from a cached golden-prefix activation.",
        CAMPAIGN_PREFIX_MISSES => "Trials that fell back to a full forward pass.",
        CAMPAIGN_PREFIX_SKIPPED_FLOPS => "Estimated FLOPs skipped by prefix-cache hits.",
        CAMPAIGN_FUSED_TRIALS => "Trials executed inside fused batched forward passes.",
        CAMPAIGN_FUSED_GROUPS => "Fused chunks (batched forward passes) executed.",
        CAMPAIGN_FUSED_WIDTH => "Fused chunk width (trials per batched forward).",
        CAMPAIGN_FUSED_CHUNK_NS => "Per-fused-chunk wall time.",
        CAMPAIGN_POOL_HITS => "Tensor-pool requests satisfied from a recycled buffer.",
        CAMPAIGN_POOL_MISSES => "Tensor-pool requests that fell back to a fresh allocation.",
        CAMPAIGN_POOL_RECYCLED_BYTES => {
            "Bytes of activation storage handed out from recycled buffers."
        }
        FLEET_SPAWNS => "Shard worker processes spawned by a fleet orchestrator.",
        FLEET_RESTARTS => "Shard workers restarted after dying before finishing their range.",
        FLEET_HUNG_KILLS => "Shard workers killed for missing their heartbeat deadline.",
        FLEET_ABANDONED => "Shards abandoned after exhausting their restart budget.",
        _ => "RustFI metric.",
    }
}

/// Interns an arbitrary string, returning a `&'static str` with the same
/// contents.
///
/// The [`Recorder`](crate::Recorder) API keys counters, timings, and span
/// kinds by `&'static str` (keeping the trait object-safe and allocation-free
/// on the hot path). Telemetry read back from sidecar/flight files arrives as
/// owned strings; interning lets the readers rebuild
/// [`ObsBatch`](crate::ObsBatch)es that flow through the existing exporters.
/// Interned strings are leaked, bounded by the number of *distinct* metric
/// names and span kinds in the fleet — a few dozen in practice.
pub fn intern(name: &str) -> &'static str {
    // Fast path: the canonical names never need the table.
    for known in CANONICAL {
        if *known == name {
            return known;
        }
    }
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static TABLE: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut table = TABLE
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .unwrap();
    if let Some(existing) = table.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    table.insert(leaked);
    leaked
}

/// The canonical name list (kept in one place for [`intern`]'s fast path and
/// the uniqueness test).
const CANONICAL: &[&str] = &[
    NN_HOOK_DISPATCHES,
    NN_GUARD_CHECKS,
    FI_INJECTIONS,
    FI_INT8_WORD_FLIPS,
    CAMPAIGN_TRIAL_NS,
    CAMPAIGN_PREFIX_HITS,
    CAMPAIGN_PREFIX_MISSES,
    CAMPAIGN_PREFIX_SKIPPED_FLOPS,
    CAMPAIGN_FUSED_TRIALS,
    CAMPAIGN_FUSED_GROUPS,
    CAMPAIGN_FUSED_WIDTH,
    CAMPAIGN_FUSED_CHUNK_NS,
    CAMPAIGN_POOL_HITS,
    CAMPAIGN_POOL_MISSES,
    CAMPAIGN_POOL_RECYCLED_BYTES,
    FLEET_SPAWNS,
    FLEET_RESTARTS,
    FLEET_HUNG_KILLS,
    FLEET_ABANDONED,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_fast_paths_canonical_names() {
        // Canonical names resolve without touching the table (content
        // equality only — `const` inlining makes pointer identity between
        // separate uses of a literal unreliable).
        assert_eq!(intern("fi.injections"), FI_INJECTIONS);
        let a = intern("custom.metric.one");
        let b = intern("custom.metric.one");
        assert_eq!(a.as_ptr(), b.as_ptr(), "same leaked allocation");
        assert_eq!(a, "custom.metric.one");
    }

    #[test]
    fn every_canonical_name_has_specific_help() {
        for name in CANONICAL {
            assert_ne!(metric_help(name), "RustFI metric.", "{name}");
        }
    }

    #[test]
    fn names_are_namespaced_and_distinct() {
        let all = CANONICAL;
        for (i, a) in all.iter().enumerate() {
            assert!(a.contains('.'), "{a} is namespaced");
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
