//! Fuzz-case sampling and the replayable `key = value` case-file format.

use rustfi::{GuardMode, QuantMode};
use rustfi_nn::zoo::random::{ArchSpec, ForcedTopology};
use rustfi_tensor::SeededRng;
use std::fmt;

/// One complete differential test case, fully determined by [`FuzzCase::seed`]
/// (plus the [`ForcedTopology`] constraint it was sampled under).
///
/// Everything downstream — the architecture, its weights, the input images,
/// the fault configuration, every campaign knob — derives deterministically
/// from that one `u64`, so a failing case is pinned by a single number and a
/// short `key = value` file replays it bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzCase {
    /// Master seed every other field derives from.
    pub seed: u64,
    /// Topology constraint the architecture was sampled under.
    pub forced: ForcedTopology,
    /// The sampled architecture (re-derived from `seed`, never serialized).
    pub arch: ArchSpec,
    /// Test-set images (small: the differential harness runs each case
    /// through several full campaigns).
    pub images: usize,
    /// Trials per campaign.
    pub trials: usize,
    /// Weight faults instead of neuron faults.
    pub weight_fault: bool,
    /// Quantization regime (picks the matching bit-flip model).
    pub quant: QuantMode,
    /// NaN/Inf guard mode.
    pub guard: GuardMode,
    /// Worker threads for the accelerated run (the reference is serial).
    pub threads: usize,
    /// Fusion width for the accelerated run; `0` disables fusion.
    pub fusion_width: usize,
    /// Prefix-cache budget in KiB for the accelerated run; `0` disables it.
    pub prefix_budget_kib: usize,
    /// Tensor-pool budget in bytes for the accelerated run; `0` disables
    /// pooling.
    pub pool_budget_bytes: usize,
    /// Shard count for the merge-invariance leg; `1` skips it.
    pub shards: usize,
    /// Compiled forward plan (weight prepacking + fused GEMM epilogues)
    /// for the accelerated run; the reference always runs unplanned.
    pub plan: bool,
    /// Watchdog step budget for both runs; `None` disables it.
    pub max_steps: Option<usize>,
}

impl FuzzCase {
    /// Samples a case from the full architecture distribution.
    pub fn sample(seed: u64) -> Self {
        Self::sample_with(seed, ForcedTopology::default())
    }

    /// Samples a case whose architecture must contain the `forced`
    /// topologies.
    pub fn sample_with(seed: u64, forced: ForcedTopology) -> Self {
        let rng = SeededRng::new(seed);
        let arch = ArchSpec::sample_with(&mut rng.fork(1), forced);
        let leaves = arch.leaf_count();
        let mut k = rng.fork(2);
        let quant = match k.below(4) {
            0 => QuantMode::Simulated,
            1 => QuantMode::Int8,
            _ => QuantMode::Off,
        };
        let guard = match k.below(4) {
            0 => GuardMode::Off,
            1 => GuardMode::ShortCircuit,
            _ => GuardMode::Record,
        };
        FuzzCase {
            seed,
            forced,
            arch,
            images: k.range(3, 5),
            trials: k.range(6, 13),
            weight_fault: k.chance(0.5),
            quant,
            guard,
            threads: k.range(2, 5),
            fusion_width: if k.chance(1.0 / 3.0) {
                0
            } else {
                k.range(2, 9)
            },
            prefix_budget_kib: if k.chance(1.0 / 3.0) {
                0
            } else {
                1usize << k.range(2, 17)
            },
            pool_budget_bytes: if k.chance(1.0 / 3.0) { 0 } else { 128 << 20 },
            shards: if k.chance(0.5) { 1 } else { k.range(2, 4) },
            // Drawn last so older seeds keep the knobs they replayed with.
            plan: k.chance(0.5),
            // Drawn after `plan` for the same reason: no budget, one no pass
            // reaches, or one that cuts passes inside the network.
            max_steps: match k.below(3) {
                0 => None,
                1 => Some(leaves + k.below(leaves)),
                _ => Some(k.below(leaves)),
            },
        }
    }

    /// The single-threaded, unfused, uncached, unpooled reference
    /// configuration every differential leg compares against.
    pub fn reference_config(&self) -> rustfi::CampaignConfig {
        rustfi::CampaignConfig {
            trials: self.trials,
            seed: self.seed,
            threads: Some(1),
            quant: self.quant,
            guard: self.guard,
            max_steps: self.max_steps,
            pool_budget_bytes: 0,
            ..rustfi::CampaignConfig::default()
        }
    }

    /// The fully accelerated configuration: this case's thread count,
    /// fusion width, prefix budget and pool budget layered onto
    /// [`FuzzCase::reference_config`].
    pub fn accelerated_config(&self) -> rustfi::CampaignConfig {
        rustfi::CampaignConfig {
            threads: Some(self.threads),
            fusion: (self.fusion_width > 0)
                .then(|| rustfi::FusionConfig::with_width(self.fusion_width)),
            prefix_cache: (self.prefix_budget_kib > 0)
                .then(|| rustfi::PrefixCacheConfig::with_budget(self.prefix_budget_kib << 10)),
            pool_budget_bytes: self.pool_budget_bytes,
            plan: self.plan,
            ..self.reference_config()
        }
    }

    /// Serializes the case as a replayable regression file.
    ///
    /// The file pins the master seed plus every scalar knob, so a replay is
    /// stable even if the knob *distribution* in [`FuzzCase::sample_with`]
    /// shifts later; only the architecture is re-derived from the seed.
    pub fn to_case_file(&self) -> String {
        format!(
            "# rustfi differential-fuzzer regression case\n\
             # replay: cargo run --release -p rustfi-bench --bin fuzz_gate -- --replay <this file>\n\
             # arch: {arch}\n\
             seed = {seed:#018x}\n\
             forced_residual = {fr}\n\
             forced_branches = {fb}\n\
             images = {images}\n\
             trials = {trials}\n\
             weight_fault = {weight_fault}\n\
             quant = {quant}\n\
             guard = {guard}\n\
             threads = {threads}\n\
             fusion_width = {fusion_width}\n\
             prefix_budget_kib = {prefix}\n\
             pool_budget_bytes = {pool}\n\
             shards = {shards}\n\
             plan = {plan}\n\
             max_steps = {max_steps}\n",
            arch = self.arch,
            seed = self.seed,
            fr = self.forced.residual,
            fb = self.forced.branches,
            images = self.images,
            trials = self.trials,
            weight_fault = self.weight_fault,
            quant = quant_str(self.quant),
            guard = guard_str(self.guard),
            threads = self.threads,
            fusion_width = self.fusion_width,
            prefix = self.prefix_budget_kib,
            pool = self.pool_budget_bytes,
            shards = self.shards,
            plan = self.plan,
            max_steps = steps_str(self.max_steps),
        )
    }
}

impl fmt::Display for FuzzCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={:#x} {} faults={} quant={} guard={} threads={} fusion={} prefix={}KiB pool={}B shards={} plan={} max_steps={} arch=[{}]",
            self.seed,
            if self.forced.residual || self.forced.branches {
                "forced-topology"
            } else {
                "free-topology"
            },
            if self.weight_fault { "weight" } else { "neuron" },
            quant_str(self.quant),
            guard_str(self.guard),
            self.threads,
            self.fusion_width,
            self.prefix_budget_kib,
            self.pool_budget_bytes,
            self.shards,
            self.plan,
            steps_str(self.max_steps),
            self.arch,
        )
    }
}

fn quant_str(q: QuantMode) -> &'static str {
    match q {
        QuantMode::Off => "off",
        QuantMode::Simulated => "simulated",
        QuantMode::Int8 => "int8",
    }
}

fn steps_str(max_steps: Option<usize>) -> String {
    max_steps.map_or_else(|| "none".into(), |n| n.to_string())
}

fn guard_str(g: GuardMode) -> &'static str {
    match g {
        GuardMode::Off => "off",
        GuardMode::Record => "record",
        GuardMode::ShortCircuit => "short-circuit",
    }
}

/// Parses a regression case file written by [`FuzzCase::to_case_file`].
///
/// `seed` (and the two `forced_*` flags) are required and fix the
/// architecture; any scalar knob present overrides the value re-derived from
/// the seed, so old corpus files keep their exact shape as the sampler
/// evolves. Unknown keys are rejected to catch typos in hand-edited files.
pub fn parse_case_file(text: &str) -> Result<FuzzCase, String> {
    let mut seed: Option<u64> = None;
    let mut forced = ForcedTopology::default();
    let mut knobs: Vec<(String, String)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`, got {line:?}", idx + 1))?;
        let (key, value) = (key.trim(), value.trim());
        match key {
            "seed" => {
                let parsed = if let Some(hex) = value.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else {
                    value.parse()
                };
                seed = Some(parsed.map_err(|e| format!("line {}: bad seed: {e}", idx + 1))?);
            }
            "forced_residual" => forced.residual = parse_bool(value)?,
            "forced_branches" => forced.branches = parse_bool(value)?,
            _ => knobs.push((key.to_string(), value.to_string())),
        }
    }
    let seed = seed.ok_or("case file has no `seed` line")?;
    let mut case = FuzzCase::sample_with(seed, forced);
    for (key, value) in knobs {
        match key.as_str() {
            "images" => case.images = parse_usize(&value)?,
            "trials" => case.trials = parse_usize(&value)?,
            "weight_fault" => case.weight_fault = parse_bool(&value)?,
            "quant" => {
                case.quant = match value.as_str() {
                    "off" => QuantMode::Off,
                    "simulated" => QuantMode::Simulated,
                    "int8" => QuantMode::Int8,
                    other => return Err(format!("unknown quant mode {other:?}")),
                }
            }
            "guard" => {
                case.guard = match value.as_str() {
                    "off" => GuardMode::Off,
                    "record" => GuardMode::Record,
                    "short-circuit" => GuardMode::ShortCircuit,
                    other => return Err(format!("unknown guard mode {other:?}")),
                }
            }
            "threads" => case.threads = parse_usize(&value)?.max(1),
            "fusion_width" => case.fusion_width = parse_usize(&value)?,
            "prefix_budget_kib" => case.prefix_budget_kib = parse_usize(&value)?,
            "pool_budget_bytes" => case.pool_budget_bytes = parse_usize(&value)?,
            "shards" => case.shards = parse_usize(&value)?.max(1),
            "plan" => case.plan = parse_bool(&value)?,
            "max_steps" => {
                case.max_steps = match value.as_str() {
                    "none" => None,
                    n => Some(parse_usize(n)?),
                }
            }
            other => return Err(format!("unknown case-file key {other:?}")),
        }
    }
    if case.images == 0 || case.trials == 0 {
        return Err("images and trials must be nonzero".into());
    }
    Ok(case)
}

fn parse_bool(value: &str) -> Result<bool, String> {
    value
        .parse()
        .map_err(|_| format!("expected true/false, got {value:?}"))
}

fn parse_usize(value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|e| format!("bad integer {value:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_seed_pins_everything() {
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(FuzzCase::sample(seed), FuzzCase::sample(seed));
        }
        assert_ne!(FuzzCase::sample(7).arch, FuzzCase::sample(8).arch);
    }

    #[test]
    fn case_files_round_trip() {
        for seed in 0..24u64 {
            let case = FuzzCase::sample(seed);
            let parsed = parse_case_file(&case.to_case_file()).unwrap();
            assert_eq!(case, parsed, "seed {seed}");
        }
        let forced = ForcedTopology {
            residual: true,
            branches: true,
        };
        let case = FuzzCase::sample_with(99, forced);
        let parsed = parse_case_file(&case.to_case_file()).unwrap();
        assert_eq!(case, parsed);
        assert!(parsed.arch.has_residual() && parsed.arch.has_branches());
    }

    #[test]
    fn knob_overrides_survive_even_if_rederivation_differs() {
        let mut case = FuzzCase::sample(3);
        case.trials = 61;
        case.quant = QuantMode::Int8;
        case.shards = 3;
        let parsed = parse_case_file(&case.to_case_file()).unwrap();
        assert_eq!(parsed.trials, 61);
        assert_eq!(parsed.quant, QuantMode::Int8);
        assert_eq!(parsed.shards, 3);
    }

    #[test]
    fn bad_case_files_are_rejected_with_context() {
        assert!(parse_case_file("").unwrap_err().contains("no `seed`"));
        assert!(parse_case_file("seed = xyz")
            .unwrap_err()
            .contains("bad seed"));
        assert!(parse_case_file("seed = 1\nbogus_key = 2")
            .unwrap_err()
            .contains("bogus_key"));
        assert!(parse_case_file("seed = 1\nquant = float64")
            .unwrap_err()
            .contains("float64"));
    }

    #[test]
    fn knob_distribution_covers_the_matrix() {
        let mut seen_int8 = false;
        let mut seen_weight = false;
        let mut seen_sharded = false;
        let mut seen_fused = false;
        let mut seen_prefix_off = false;
        let mut seen_plan = false;
        let mut seen_unplanned = false;
        let mut seen_budgets = [false; 3];
        for seed in 0..64u64 {
            let c = FuzzCase::sample(seed);
            seen_int8 |= c.quant == QuantMode::Int8;
            seen_weight |= c.weight_fault;
            seen_sharded |= c.shards > 1;
            seen_fused |= c.fusion_width > 0;
            seen_prefix_off |= c.prefix_budget_kib == 0;
            seen_plan |= c.plan;
            seen_unplanned |= !c.plan;
            let leaves = c.arch.leaf_count();
            seen_budgets[match c.max_steps {
                None => 0,
                Some(n) if n >= leaves => 1,
                Some(_) => 2,
            }] = true;
            assert!((3..=4).contains(&c.images));
            assert!((6..=12).contains(&c.trials));
            assert!((2..=4).contains(&c.threads));
        }
        assert!(seen_int8 && seen_weight && seen_sharded && seen_fused && seen_prefix_off);
        assert!(seen_plan && seen_unplanned, "plan knob exercises both arms");
        assert_eq!(
            seen_budgets, [true; 3],
            "none, unreached and inside budgets"
        );
    }
}
