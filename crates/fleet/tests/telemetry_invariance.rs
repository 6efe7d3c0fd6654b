//! The workspace-wide "recorders never perturb campaign results" invariant,
//! extended to sidecar-enabled *fleet* runs: a sharded campaign whose
//! workers stream telemetry sidecars merges to records bit-identical to the
//! same fleet run unobserved.
//!
//! This is the property that makes `orchestrate --trace` free to recommend:
//! turning fleet observability on cannot change a single merged record.

use proptest::prelude::*;
use rustfi::shard::{merge_shard_journals, plan_shards};
use rustfi::{metrics, models, Campaign, CampaignConfig, FaultMode, NeuronSelect};
use rustfi_fleet::{run_shard_worker, run_shard_worker_observed};
use rustfi_nn::{zoo, Network, ZooConfig};
use rustfi_obs::{read_sidecar, sidecar_path};
use rustfi_tensor::Tensor;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tiny_lenet() -> Network {
    zoo::lenet(&ZooConfig::tiny(4))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sidecar_enabled_fleet_runs_merge_identically(seed in any::<u64>(), shards in 1usize..4) {
        let trials = 10;
        let images = Tensor::from_fn(&[4, 3, 16, 16], |i| ((i as f32) * 0.013).sin());
        let mut probe = tiny_lenet();
        let labels: Vec<usize> = (0..images.dims()[0])
            .map(|i| metrics::top1(probe.forward(&images.select_batch(i)).data()))
            .collect();
        let campaign = Campaign::new(
            &tiny_lenet,
            &images,
            &labels,
            FaultMode::Neuron(NeuronSelect::Random),
            // Exponent-bit flips mix masked/SDC/DUE, covering every
            // classification path the telemetry stream reports on.
            Arc::new(models::BitFlipFp32::new(models::BitSelect::Random)),
        );
        let cfg = CampaignConfig {
            trials,
            seed,
            threads: Some(2),
            guard: rustfi::GuardMode::Record,
            ..CampaignConfig::default()
        };

        let base = std::env::temp_dir().join(format!(
            "rustfi_fleet_inv_{}_{seed:x}_{shards}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        let plan = plan_shards(trials, shards);
        let run = |tag: &str, observed: bool| -> Vec<PathBuf> {
            let dir = base.join(tag);
            std::fs::create_dir_all(&dir).unwrap();
            plan.iter()
                .map(|spec| {
                    let journal = spec.journal_path(&dir);
                    let every = Duration::from_millis(50);
                    if observed {
                        run_shard_worker_observed(&campaign, &cfg, spec, &journal, 0, every)
                    } else {
                        run_shard_worker(&campaign, &cfg, spec, &journal, every)
                    }
                    .unwrap();
                    journal
                })
                .collect()
        };

        let plain = merge_shard_journals(&run("plain", false)).unwrap();
        let observed_journals = run("observed", true);
        let observed = merge_shard_journals(&observed_journals).unwrap();
        prop_assert!(plain.is_complete());
        prop_assert!(observed.is_complete());
        prop_assert_eq!(&plain.records, &observed.records,
            "telemetry perturbed the merged fleet records");
        prop_assert_eq!(plain.counts, observed.counts);

        // The telemetry itself landed: every observed shard's sidecar reads
        // back clean and saw its share of the trial outcomes.
        let mut outcomes = 0usize;
        for (spec, journal) in plan.iter().zip(&observed_journals) {
            let sc = read_sidecar(&sidecar_path(journal, 0)).unwrap();
            prop_assert_eq!(sc.torn_lines, 0);
            prop_assert_eq!(sc.header.shard, spec.index);
            outcomes += sc
                .batch
                .events
                .iter()
                .filter(|e| matches!(e, rustfi_obs::Event::TrialOutcome(_)))
                .count();
        }
        prop_assert_eq!(outcomes, trials, "one outcome event per trial, fleet-wide");
        std::fs::remove_dir_all(&base).ok();
    }
}
