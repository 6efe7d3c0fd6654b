//! Property test for the fleet-telemetry layer: sidecar merge determinism.
//! Partitioning one event/timing stream across any number of shard sidecars
//! recovers the same multiset of events, counters, and timings — shard count
//! and partition boundaries must not change what the merged report sees.

use std::collections::BTreeMap;
use std::path::PathBuf;

use proptest::prelude::*;

use rustfi_obs::sidecar::{sidecar_path, SidecarRecorder};
use rustfi_obs::{
    merge_shard_telemetry, Event, InjectionEvent, InjectionSite, MergedTelemetry, ObsBatch,
    Recorder, SpanRecord, TrialOutcomeEvent,
};

/// SplitMix64 — deriving item streams from a proptest seed keeps each case
/// deterministic without needing compound strategies.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const OUTCOMES: [&str; 5] = ["masked", "sdc", "due", "crash", "hang"];

/// Builds a deterministic mixed batch of `n` telemetry items from `seed`.
fn synth_items(seed: u64, n: usize) -> Vec<ObsBatch> {
    let mut state = seed;
    (0..n)
        .map(|i| {
            let mut batch = ObsBatch::default();
            match mix(&mut state) % 5 {
                0 => batch.events.push(Event::TrialOutcome(TrialOutcomeEvent {
                    trial: i,
                    layer: (mix(&mut state) % 4) as usize,
                    outcome: OUTCOMES[(mix(&mut state) % 5) as usize],
                    due_layer: None,
                })),
                1 => {
                    let bit = (mix(&mut state) % 32) as u32;
                    batch.events.push(Event::Injection(InjectionEvent {
                        trial: Some(i),
                        layer: (mix(&mut state) % 8) as usize,
                        site: InjectionSite::Weight { index: i * 7 },
                        bit: Some(bit),
                        before: 1.5,
                        after: f32::from_bits(1.5f32.to_bits() ^ (1 << bit)),
                    }));
                }
                2 => batch.counters.push((
                    if mix(&mut state).is_multiple_of(2) {
                        "fi.injections"
                    } else {
                        "campaign.prefix_hits"
                    },
                    1 + mix(&mut state) % 9,
                )),
                3 => batch
                    .timings
                    .push(("campaign.trial_ns", 1 + mix(&mut state) % 10_000_000)),
                _ => {
                    let layer = (mix(&mut state) % 6) as usize;
                    let dur = 1 + mix(&mut state) % 100_000;
                    batch.spans.push(SpanRecord {
                        name: format!("layer{layer}"),
                        kind: "conv",
                        layer: Some(layer),
                        start_ns: dur * 3,
                        dur_ns: dur,
                        tid: 1,
                    });
                }
            }
            batch
        })
        .collect()
}

/// Canonical multiset fingerprint of a merged result: sorted event JSON,
/// counter totals, sorted timing observations, sorted span signatures.
type Fingerprint = (
    Vec<String>,
    BTreeMap<&'static str, u64>,
    Vec<(String, u64)>,
    Vec<String>,
);

fn fingerprint(merged: &MergedTelemetry) -> Fingerprint {
    let snap = merged.aggregated_snapshot();
    let mut events: Vec<String> = snap.events.iter().map(|e| e.to_json()).collect();
    events.sort();
    let mut timings: Vec<(String, u64)> = merged
        .lanes
        .iter()
        .flat_map(|lane| {
            lane.batch
                .timings
                .iter()
                .map(|(name, ns)| (name.to_string(), *ns))
        })
        .collect();
    timings.sort();
    let mut spans: Vec<String> = snap
        .spans
        .iter()
        .map(|s| format!("{}|{}|{:?}|{}|{}", s.name, s.kind, s.layer, s.dur_ns, s.tid))
        .collect();
    spans.sort();
    (events, snap.counters.clone(), timings, spans)
}

/// Writes a contiguous partition of `items` across `shards` sidecars
/// (mirroring how trials shard) and returns the sidecar paths.
fn write_partition(dir: &std::path::Path, items: &[ObsBatch], shards: usize) -> Vec<PathBuf> {
    let chunk = items.len().div_ceil(shards.max(1)).max(1);
    (0..shards)
        .map(|shard| {
            let journal = dir.join(format!("shard-{shard:04}-of-{shards:04}.jsonl"));
            let path = sidecar_path(&journal, 0);
            let rec = SidecarRecorder::create(&path, shard, shards, 0).unwrap();
            let start = (shard * chunk).min(items.len());
            let end = ((shard + 1) * chunk).min(items.len());
            for batch in &items[start..end] {
                rec.merge(batch.clone());
            }
            rec.flush();
            path
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same item stream partitioned across 1, 2, 3, or 5 shard sidecars
    /// merges to the same event/counter/timing/span multiset.
    #[test]
    fn sidecar_merge_is_shard_count_invariant(seed in any::<u64>(), n in 1usize..120) {
        let items = synth_items(seed, n);
        let dir = std::env::temp_dir().join(format!(
            "rustfi_obs_prop_{}_{seed:x}_{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let reference = fingerprint(&merge_shard_telemetry(&write_partition(&dir, &items, 1)));
        for shards in [2usize, 3, 5] {
            let sub = dir.join(format!("k{shards}"));
            std::fs::create_dir_all(&sub).unwrap();
            let merged = merge_shard_telemetry(&write_partition(&sub, &items, shards));
            prop_assert_eq!(merged.lanes.len(), shards);
            prop_assert_eq!(&fingerprint(&merged), &reference,
                "merge differs at {} shards", shards);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
