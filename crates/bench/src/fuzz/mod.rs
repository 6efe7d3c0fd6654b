//! Differential architecture fuzzer for the forward-path strategy matrix.
//!
//! The execution-strategy matrix — serial, prefix-cached, fused, pooled,
//! sharded, single- or multi-threaded, f32 or INT8 — promises **bit-identical
//! trial records** for every cell. The per-feature property tests each pin
//! one axis of that promise on one fixed model; this module is the shared
//! harness that attacks the whole matrix at once on *randomly composed*
//! networks:
//!
//! 1. [`FuzzCase::sample`] derives a complete differential test case from a
//!    single `u64` seed: a random architecture from the zoo building blocks
//!    (conv / grouped conv / norm / activation / pooling, `Residual` and
//!    `Branches` containers, via [`rustfi_nn::zoo::random::ArchSpec`]),
//!    random input data, a fault-injection configuration (neuron or weight
//!    faults, guard mode, quantization mode, watchdog budget) and campaign
//!    knobs (threads, fusion width, prefix budget, pool budget, shard
//!    count).
//! 2. [`run_case`] executes the case through strategy *pairs* — a serial
//!    reference vs. the fully accelerated path, the unsharded run vs. a
//!    merged multi-shard run — and asserts records, counts and merged
//!    telemetry are identical. Any divergence is reported as a
//!    [`CaseFailure`] carrying the replaying seed.
//! 3. [`CaseStrategy`] plugs the generator into the vendored `proptest`
//!    runner so property tests (see `tests/properties.rs`) and the
//!    `fuzz_gate` CI binary draw cases from one distribution. Failing cases
//!    serialize to `key = value` files (see [`FuzzCase::to_case_file`])
//!    that replay deterministically via `fuzz_gate --replay`.
//!
//! Case budgets are environment-tunable (`RUSTFI_FUZZ_CASES`,
//! `RUSTFI_FUZZ_SEED`), so tier-1 CI runs a quick smoke pass while the
//! nightly workflow soaks the same generator for hundreds of cases.

mod case;
mod diff;

pub use case::{parse_case_file, FuzzCase};
pub use diff::{run_case, CaseFailure, CaseFixture, CaseReport};

use proptest::{Strategy, TestRng};
use rustfi_nn::zoo::random::ForcedTopology;

/// A [`proptest::Strategy`] producing [`FuzzCase`]s.
///
/// Each generated case is fully determined by one `u64` drawn from the
/// runner's RNG, so a failure always reduces to a single replayable seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseStrategy {
    /// Topologies every sampled architecture must contain.
    pub forced: ForcedTopology,
}

impl Strategy for CaseStrategy {
    type Value = FuzzCase;

    fn generate(&self, rng: &mut TestRng) -> FuzzCase {
        FuzzCase::sample_with(rng.next_u64(), self.forced)
    }
}

/// Cases over the full architecture distribution.
pub fn cases() -> CaseStrategy {
    CaseStrategy::default()
}

/// Cases whose architectures are guaranteed to contain both a `Residual`
/// and a `Branches` container — the topologies where resume points, prefix
/// caching and fusion interact in the most intricate ways.
pub fn container_cases() -> CaseStrategy {
    CaseStrategy {
        forced: ForcedTopology {
            residual: true,
            branches: true,
        },
    }
}
