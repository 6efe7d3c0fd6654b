//! Deterministic shard planning and journal merging for distributed
//! campaigns.
//!
//! A campaign's trial space is partitioned into N contiguous-by-trial-id
//! shards ([`plan_shards`]). Each shard runs as an independent process
//! ([`crate::campaign::Campaign::run_shard`]) writing its own crash-safe
//! journal whose header records the shard identity and a fingerprint of
//! every record-affecting configuration knob ([`config_fingerprint`]).
//! Because every trial's randomness derives only from `(campaign seed,
//! trial index)` — never from which shard or worker executes it — the
//! records a shard produces are bit-identical to the same trial range of a
//! single-process run, and [`merge_shard_journals`] reassembles any set of
//! shard journals (torn tails and partially-complete shards included) into
//! one report that is record-identical regardless of shard count. A
//! property test (`shard_invariance`) enforces this the same way the
//! thread-invariance one does.
//!
//! The merger degrades gracefully: shards whose journals are missing or
//! incomplete are reported in [`MergedCampaign::missing_shards`] instead of
//! failing the merge, so an orchestrator that exhausted a shard's retry
//! budget can still deliver a partial report with an explicit gap.

use crate::campaign::{CampaignConfig, FaultMode, TrialRecord};
use crate::error::FiError;
use crate::journal::{read_journal, JournalHeader};
use crate::metrics::{tally, OutcomeCounts};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One shard of a campaign's trial space: trials `start..end` of `trials`
/// total, executed as shard `index` of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index, `0..count`.
    pub index: usize,
    /// Total shard count of the plan this spec came from.
    pub count: usize,
    /// First trial id this shard runs (inclusive).
    pub start: usize,
    /// One past the last trial id this shard runs (exclusive).
    pub end: usize,
}

impl ShardSpec {
    /// How many trials this shard runs.
    pub fn trials(&self) -> usize {
        self.end - self.start
    }

    /// Whether `trial` belongs to this shard.
    pub fn contains(&self, trial: usize) -> bool {
        (self.start..self.end).contains(&trial)
    }

    /// Canonical journal file name for this shard
    /// (`shard-<index>-of-<count>.jsonl`), used by the orchestrator and
    /// anything that wants to find shard journals later.
    pub fn journal_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!(
            "shard-{:04}-of-{:04}.jsonl",
            self.index, self.count
        ))
    }
}

/// Partitions `trials` trials into `count` contiguous-by-trial-id shards.
///
/// The split is deterministic and as even as possible: the first
/// `trials % count` shards get one extra trial. Trailing shards may be
/// empty when `count > trials`; they are still planned (and considered
/// trivially complete) so shard identities never depend on the trial count.
///
/// # Panics
///
/// Panics if `count` is zero.
pub fn plan_shards(trials: usize, count: usize) -> Vec<ShardSpec> {
    assert!(count > 0, "a campaign needs at least one shard");
    let base = trials / count;
    let extra = trials % count;
    let mut start = 0;
    (0..count)
        .map(|index| {
            let len = base + usize::from(index < extra);
            let spec = ShardSpec {
                index,
                count,
                start,
                end: start + len,
            };
            start += len;
            spec
        })
        .collect()
}

/// Fingerprints every record-affecting campaign knob into a 64-bit FNV-1a
/// hash, stored in the journal header so a resume (or merge) can refuse
/// journals written under a different configuration instead of silently
/// producing a mixed report.
///
/// Covered: seed, trial count, quantization regime, guard mode, step
/// budget, the fault mode (selection template included), and the
/// perturbation model's name. Deliberately *not* covered: threads, prefix
/// cache, fusion, pooling, recorders — those are execution strategy, proven
/// record-invariant by property tests, and a journal written under one
/// strategy must stay resumable under another. Model weights and images are
/// out of reach here; the fingerprint is a strong guard against config
/// mix-ups, not a cryptographic binding.
pub fn config_fingerprint(cfg: &CampaignConfig, mode: &FaultMode, model_name: &str) -> u64 {
    let canonical = format!(
        "seed={};trials={};quant={:?};guard={:?};max_steps={:?};mode={:?};model={}",
        cfg.seed, cfg.trials, cfg.quant, cfg.guard, cfg.max_steps, mode, model_name
    );
    fnv1a(canonical.as_bytes())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A campaign report reassembled from shard journals.
///
/// `records` holds every journaled trial in trial order, deduplicated;
/// `missing_shards` lists shards whose journals were absent or whose trial
/// range is not fully covered. When `missing_shards` is empty the report is
/// record-identical to a single-process run of the same campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedCampaign {
    /// The campaign's root seed (from the shard headers).
    pub seed: u64,
    /// The campaign's total trial count (from the shard headers).
    pub trials: usize,
    /// The record-affecting configuration fingerprint the shards agreed on.
    pub config_hash: u64,
    /// The shard count the journals were written under.
    pub shard_count: usize,
    /// Every recovered trial record, in trial order, deduplicated.
    pub records: Vec<TrialRecord>,
    /// Outcome totals over `records`.
    pub counts: OutcomeCounts,
    /// Per-injectable-layer tallies over `records`, counted by
    /// [`crate::metrics::tally`] exactly as a single-process
    /// [`crate::CampaignResult`] counts its own: a complete merge's equal
    /// that run's.
    pub per_layer: Vec<OutcomeCounts>,
    /// Shards whose journal was missing or whose trial range is incomplete.
    pub missing_shards: Vec<usize>,
    /// Trial ids in `0..trials` with no record.
    pub missing_trials: usize,
}

impl MergedCampaign {
    /// Whether every trial of the campaign is accounted for.
    pub fn is_complete(&self) -> bool {
        self.missing_shards.is_empty() && self.missing_trials == 0
    }
}

/// Reassembles a set of shard journals into one [`MergedCampaign`].
///
/// Tolerates exactly the damage a killed shard leaves behind: a journal
/// with a torn final line (ignored, like resume does), a journal covering
/// only part of its shard's range (the gap is reported via
/// `missing_shards`/`missing_trials`), or a journal file that doesn't exist
/// at all. What it refuses, with a typed [`FiError::Journal`], is evidence
/// of a *mixed* campaign: headers that disagree on seed, trial count,
/// config fingerprint, or shard count, two journals claiming the same trial
/// with different records, or records outside the campaign's trial space.
///
/// The result is record-identical for any shard count — merging the
/// journals of a 5-shard run and a 2-shard run of the same campaign yields
/// the same records, which is what makes restarting a fleet at a different
/// width safe.
pub fn merge_shard_journals(paths: &[PathBuf]) -> Result<MergedCampaign, FiError> {
    let mut identity: Option<JournalHeader> = None;
    let mut seen_shards: Vec<usize> = Vec::new();
    let mut merged: BTreeMap<usize, TrialRecord> = BTreeMap::new();
    for path in paths {
        let (header, records) = match read_journal(path) {
            Ok(ok) => ok,
            // A shard that never got far enough to write its journal is a
            // gap to report, not a merge failure.
            Err(FiError::Io { ref source, .. })
                if source.kind() == std::io::ErrorKind::NotFound =>
            {
                continue;
            }
            Err(e) => return Err(e),
        };
        match &identity {
            None => identity = Some(header),
            Some(id) => {
                if (id.seed, id.trials, id.config_hash, id.shard_count)
                    != (
                        header.seed,
                        header.trials,
                        header.config_hash,
                        header.shard_count,
                    )
                {
                    return Err(FiError::Journal {
                        line: 1,
                        detail: format!(
                            "{} belongs to a different campaign: its header records seed {} \
                             over {} trials (config {:#018x}, {} shards), the first journal \
                             records seed {} over {} trials (config {:#018x}, {} shards)",
                            path.display(),
                            header.seed,
                            header.trials,
                            header.config_hash,
                            header.shard_count,
                            id.seed,
                            id.trials,
                            id.config_hash,
                            id.shard_count
                        ),
                    });
                }
            }
        }
        seen_shards.push(header.shard_index);
        for r in records {
            if r.trial >= header.trials {
                return Err(FiError::Journal {
                    line: 1,
                    detail: format!(
                        "{} records trial {} outside the campaign's {} trials",
                        path.display(),
                        r.trial,
                        header.trials
                    ),
                });
            }
            match merged.get(&r.trial) {
                None => {
                    merged.insert(r.trial, r);
                }
                // Shards are deterministic, so overlapping journals (e.g. a
                // restarted shard's old and new journal) must agree exactly.
                Some(existing) if *existing == r => {}
                Some(_) => {
                    return Err(FiError::Journal {
                        line: 1,
                        detail: format!(
                            "{} disagrees with another shard about trial {} — the journals \
                             come from diverging campaign configurations",
                            path.display(),
                            r.trial
                        ),
                    });
                }
            }
        }
    }
    let identity = identity.ok_or(FiError::Journal {
        line: 1,
        detail: String::from("no shard journal could be read; nothing to merge"),
    })?;

    // A shard is complete when every trial of its planned range has a
    // record. The plan is recomputed here — it is a pure function of
    // (trials, shard count), which is exactly why it can be.
    let plan = plan_shards(identity.trials, identity.shard_count);
    let missing_shards: Vec<usize> = plan
        .iter()
        .filter(|spec| {
            !seen_shards.contains(&spec.index)
                || (spec.start..spec.end).any(|t| !merged.contains_key(&t))
        })
        .map(|spec| spec.index)
        .collect();
    let missing_trials = identity.trials - merged.len();

    let records: Vec<TrialRecord> = merged.into_values().collect();
    let (counts, per_layer) = tally(&records);
    Ok(MergedCampaign {
        seed: identity.seed,
        trials: identity.trials,
        config_hash: identity.config_hash,
        shard_count: identity.shard_count,
        records,
        counts,
        per_layer,
        missing_shards,
        missing_trials,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::GuardMode;
    use crate::journal::JournalWriter;
    use crate::location::{NeuronSelect, NeuronSite};
    use crate::metrics::OutcomeKind;

    #[test]
    fn plans_are_contiguous_even_and_exhaustive() {
        for trials in [0usize, 1, 7, 100, 101, 1000] {
            for count in [1usize, 2, 3, 5, 8, 13] {
                let plan = plan_shards(trials, count);
                assert_eq!(plan.len(), count);
                let mut next = 0;
                for (i, s) in plan.iter().enumerate() {
                    assert_eq!((s.index, s.count), (i, count));
                    assert_eq!(s.start, next, "contiguous by trial id");
                    next = s.end;
                    assert!(s.trials() >= trials / count);
                    assert!(s.trials() <= trials / count + 1, "near-even split");
                }
                assert_eq!(next, trials, "every trial assigned exactly once");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        plan_shards(10, 0);
    }

    #[test]
    fn fingerprint_separates_record_affecting_knobs_only() {
        let cfg = CampaignConfig::default();
        let mode = FaultMode::Neuron(NeuronSelect::Random);
        let base = config_fingerprint(&cfg, &mode, "stuck-at");
        // Same inputs, same fingerprint.
        assert_eq!(base, config_fingerprint(&cfg, &mode, "stuck-at"));
        // Record-affecting changes move it.
        let mut c = cfg.clone();
        c.seed ^= 1;
        assert_ne!(base, config_fingerprint(&c, &mode, "stuck-at"));
        let mut c = cfg.clone();
        c.guard = GuardMode::Record;
        assert_ne!(base, config_fingerprint(&c, &mode, "stuck-at"));
        let mut c = cfg.clone();
        c.quant = crate::injector::QuantMode::Simulated;
        assert_ne!(base, config_fingerprint(&c, &mode, "stuck-at"));
        c.quant = crate::injector::QuantMode::Int8;
        assert_ne!(base, config_fingerprint(&c, &mode, "stuck-at"));
        assert_ne!(
            base,
            config_fingerprint(
                &cfg,
                &FaultMode::Neuron(NeuronSelect::RandomInLayer { layer: 1 }),
                "stuck-at"
            )
        );
        assert_ne!(base, config_fingerprint(&cfg, &mode, "zero"));
        // Execution-strategy changes don't.
        let mut c = cfg.clone();
        c.threads = Some(7);
        c.fusion = Some(crate::campaign::FusionConfig::default());
        c.prefix_cache = Some(crate::prefix::PrefixCacheConfig::default());
        c.pool_budget_bytes = 0;
        assert_eq!(base, config_fingerprint(&c, &mode, "stuck-at"));
    }

    fn record(trial: usize) -> TrialRecord {
        TrialRecord {
            trial,
            image_index: trial % 3,
            layer: trial % 2,
            site: Some(NeuronSite {
                layer: trial % 2,
                batch: None,
                channel: 0,
                y: 1,
                x: 2,
            }),
            outcome: if trial.is_multiple_of(4) {
                OutcomeKind::Sdc
            } else {
                OutcomeKind::Masked
            },
            due_layer: None,
            top5_miss: trial.is_multiple_of(4),
            confidence_delta: trial as f32 * -0.01,
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rustfi-shard-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_shard(dir: &Path, spec: &ShardSpec, trials: usize, upto: usize) -> PathBuf {
        let path = spec.journal_path(dir);
        let mut w = JournalWriter::create(
            &path,
            JournalHeader {
                seed: 9,
                trials,
                config_hash: 0xFEED,
                shard_index: spec.index,
                shard_count: spec.count,
            },
        )
        .unwrap();
        for t in spec.start..spec.end.min(upto) {
            w.append(&record(t), &path).unwrap();
        }
        path
    }

    #[test]
    fn merge_is_shard_count_invariant_and_flags_gaps() {
        let trials = 11;
        let dir = tmp_dir("merge");
        let mut reference: Option<Vec<TrialRecord>> = None;
        for count in [1usize, 2, 3, 5] {
            let plan = plan_shards(trials, count);
            let paths: Vec<PathBuf> = plan
                .iter()
                .map(|s| write_shard(&dir, s, trials, trials))
                .collect();
            let merged = merge_shard_journals(&paths).unwrap();
            assert!(merged.is_complete(), "{count} shards: {merged:?}");
            assert_eq!(merged.records.len(), trials);
            assert_eq!(merged.shard_count, count);
            match &reference {
                None => reference = Some(merged.records.clone()),
                Some(r) => assert_eq!(&merged.records, r, "{count} shards"),
            }
        }

        // Drop one shard's journal entirely and truncate another mid-range:
        // the merge degrades to a partial report instead of failing.
        let plan = plan_shards(trials, 5);
        let mut paths: Vec<PathBuf> = Vec::new();
        for s in &plan {
            if s.index == 2 {
                continue; // never started
            }
            paths.push(write_shard(
                &dir,
                s,
                trials,
                if s.index == 3 { s.start + 1 } else { trials },
            ));
        }
        // A path that doesn't exist at all is skipped, not fatal.
        paths.push(dir.join("never-written.jsonl"));
        let merged = merge_shard_journals(&paths).unwrap();
        assert!(!merged.is_complete());
        assert_eq!(merged.missing_shards, vec![2, 3]);
        let expected_missing = plan[2].trials() + (plan[3].trials() - 1);
        assert_eq!(merged.missing_trials, expected_missing);
        assert_eq!(merged.records.len(), trials - expected_missing);
    }

    #[test]
    fn merge_tolerates_torn_tails_and_overlap() {
        let trials = 8;
        let dir = tmp_dir("torn");
        let plan = plan_shards(trials, 2);
        let a = write_shard(&dir, &plan[0], trials, trials);
        let b = write_shard(&dir, &plan[1], trials, trials);
        // Tear shard b's final record mid-line, as a kill would.
        let text = std::fs::read_to_string(&b).unwrap();
        std::fs::write(&b, &text[..text.len() - 9]).unwrap();
        // Overlap: a second journal for shard 0 (a restart at width 2 whose
        // plan assigned it the same range) agrees on every shared trial.
        let dup = dir.join("restarted-shard-0.jsonl");
        std::fs::copy(&a, &dup).unwrap();
        let merged = merge_shard_journals(&[a.clone(), b.clone(), dup]).unwrap();
        assert_eq!(merged.missing_trials, 1, "exactly the torn record");
        assert_eq!(merged.missing_shards, vec![1]);
        assert_eq!(merged.records.len(), trials - 1);
    }

    #[test]
    fn merge_accepts_heartbeat_only_journals_as_gaps() {
        // A worker that was spawned, wrote its header, heartbeated for a
        // while, and was killed before finishing a single trial leaves a
        // header-plus-heartbeats journal. That is a *gap*, not corruption:
        // the merge must succeed and report every one of that shard's
        // trials as missing.
        let trials = 9;
        let dir = tmp_dir("heartbeat-only");
        let plan = plan_shards(trials, 3);
        let full_a = write_shard(&dir, &plan[0], trials, trials);
        let full_c = write_shard(&dir, &plan[2], trials, trials);
        // Shard 1: header, three heartbeats, zero records.
        let idle = write_shard(&dir, &plan[1], trials, plan[1].start);
        for _ in 0..3 {
            assert!(crate::journal::append_heartbeat(&idle).unwrap());
        }
        let merged = merge_shard_journals(&[full_a, idle, full_c]).unwrap();
        assert!(!merged.is_complete());
        assert_eq!(merged.missing_shards, vec![1]);
        assert_eq!(merged.missing_trials, plan[1].trials());
        assert_eq!(merged.records.len(), trials - plan[1].trials());
        // Only trials outside shard 1's range were recovered.
        assert!(merged.records.iter().all(|r| !plan[1].contains(r.trial)));
    }

    #[test]
    fn merge_refuses_mixed_campaigns() {
        let trials = 6;
        let dir = tmp_dir("mixed");
        let plan = plan_shards(trials, 2);
        let a = write_shard(&dir, &plan[0], trials, trials);

        // Different config hash.
        let foreign = dir.join("foreign.jsonl");
        let mut w = JournalWriter::create(
            &foreign,
            JournalHeader {
                seed: 9,
                trials,
                config_hash: 0xBAD,
                shard_index: 1,
                shard_count: 2,
            },
        )
        .unwrap();
        w.append(&record(4), &foreign).unwrap();
        drop(w);
        let err = merge_shard_journals(&[a.clone(), foreign]).unwrap_err();
        assert!(
            matches!(err, FiError::Journal { .. })
                && err.to_string().contains("different campaign"),
            "{err}"
        );

        // Same identity, conflicting record for a shared trial.
        let conflicted = dir.join("conflicted.jsonl");
        let mut w = JournalWriter::create(
            &conflicted,
            JournalHeader {
                seed: 9,
                trials,
                config_hash: 0xFEED,
                shard_index: 0,
                shard_count: 2,
            },
        )
        .unwrap();
        let mut r = record(0);
        r.outcome = OutcomeKind::Hang;
        w.append(&r, &conflicted).unwrap();
        drop(w);
        let err = merge_shard_journals(&[a.clone(), conflicted]).unwrap_err();
        assert!(err.to_string().contains("disagrees"), "{err}");

        // A record outside the campaign's trial space.
        let overflow = dir.join("overflow.jsonl");
        let mut w = JournalWriter::create(
            &overflow,
            JournalHeader {
                seed: 9,
                trials,
                config_hash: 0xFEED,
                shard_index: 1,
                shard_count: 2,
            },
        )
        .unwrap();
        w.append(&record(trials + 5), &overflow).unwrap();
        drop(w);
        let err = merge_shard_journals(&[a, overflow]).unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");

        // Nothing readable at all.
        let err = merge_shard_journals(&[dir.join("ghost.jsonl")]).unwrap_err();
        assert!(err.to_string().contains("nothing to merge"), "{err}");
    }
}
