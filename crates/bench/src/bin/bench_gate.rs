//! CI perf-regression gate for the campaign bench.
//!
//! Compares a freshly measured `BENCH_campaign.json` (written by
//! `benches/campaign_throughput` in quick mode) against the committed
//! baseline at the repository root, and exits non-zero if any within-run
//! speedup ratio — prefix caching, trial fusion, matmul kernel geomean,
//! packed-panel GEMM geomean, planned-vs-unplanned INT8 conv geomean,
//! planned-vs-fused campaign rate — fell below
//! `RUSTFI_GATE_MIN_RATIO` (default 0.75, i.e. a >25% regression).
//! Speedups are ratios of two measurements from the same run on the same
//! machine, so the comparison is runner-speed independent; gating absolute
//! trials/sec would not be.
//!
//! On top of the baseline-relative ratios, the gate enforces absolute
//! within-run floors (`gate::absolute_floors`): the AVX2 int8 GEMM must
//! beat its own portable compilation by at least 1.5x, and the compiled
//! forward plan must beat the plain fused campaign by at least 1.25x,
//! whenever the fresh summary reports the AVX2 kernels dispatched.
//!
//! Run with: `cargo run -p rustfi-bench --bin bench_gate --release`
//!
//! Knobs:
//!
//! - `RUSTFI_GATE_SKIP=1` — skip the gate entirely (escape hatch for known
//!   noisy runners or intentional perf trade-offs; say why in the commit).
//! - `RUSTFI_GATE_MIN_RATIO` — minimum fresh/baseline speedup ratio
//!   (default `0.75`).
//! - `RUSTFI_GATE_BASELINE` — committed baseline path (default
//!   `BENCH_campaign.json` at the repository root).
//! - `RUSTFI_GATE_FRESH` — freshly measured summary path (default: the
//!   shared `RUSTFI_BENCH_JSON` quick-mode knob).
//!
//! To bless a new baseline after an intentional perf change, re-run the
//! bench with its defaults and commit the regenerated `BENCH_campaign.json`.

use rustfi_bench::{env_f64, gate, QuickMode};
use std::process::ExitCode;

fn main() -> ExitCode {
    if std::env::var("RUSTFI_GATE_SKIP").is_ok_and(|v| v == "1") {
        println!("bench_gate: skipped (RUSTFI_GATE_SKIP=1)");
        return ExitCode::SUCCESS;
    }
    let baseline_path = std::env::var("RUSTFI_GATE_BASELINE")
        .unwrap_or_else(|_| format!("{}/../../BENCH_campaign.json", env!("CARGO_MANIFEST_DIR")));
    let fresh_path = std::env::var("RUSTFI_GATE_FRESH")
        .ok()
        // Anchor a relative override at the workspace root, matching where
        // the bench harness resolves `RUSTFI_BENCH_JSON` (its CWD is the
        // package dir, ours is the caller's).
        .map(|p| {
            if std::path::Path::new(&p).is_absolute() {
                p
            } else {
                format!("{}/../../{p}", env!("CARGO_MANIFEST_DIR"))
            }
        })
        .or_else(|| QuickMode::from_env().json_path)
        .expect("no fresh summary path: RUSTFI_GATE_FRESH unset and RUSTFI_BENCH_JSON=skip");
    let min_ratio = env_f64("RUSTFI_GATE_MIN_RATIO", 0.75);

    let read = |path: &str| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("bench_gate: cannot read {path}: {e}"))
    };
    let baseline = read(&baseline_path);
    let fresh = read(&fresh_path);

    let checks = gate::checks(&baseline, &fresh);
    assert!(
        !checks.is_empty(),
        "bench_gate: {baseline_path} and {fresh_path} share no comparable metric"
    );

    println!("bench_gate: {fresh_path} vs {baseline_path} (min ratio {min_ratio:.2})");
    println!(
        "{:<26} {:>10} {:>10} {:>8} {:>6}",
        "metric", "baseline", "fresh", "ratio", "gate"
    );
    let mut failed = false;
    for c in &checks {
        let ok = c.passes(min_ratio);
        failed |= !ok;
        println!(
            "{:<26} {:>9.2}x {:>9.2}x {:>8.3} {:>6}",
            c.name,
            c.baseline,
            c.fresh,
            c.ratio(),
            if ok { "ok" } else { "FAIL" }
        );
    }
    // Absolute floors are judged against the fresh run alone ("baseline" is
    // the constant floor), so the full ratio is required — no min-ratio
    // slack.
    for c in gate::absolute_floors(&fresh) {
        let ok = c.passes(1.0);
        failed |= !ok;
        println!(
            "{:<26} {:>9.2}x {:>9.2}x {:>8.3} {:>6}",
            c.name,
            c.baseline,
            c.fresh,
            c.ratio(),
            if ok { "ok" } else { "FAIL" }
        );
    }
    if failed {
        println!(
            "bench_gate: FAIL — speedup regressed more than {:.0}% vs the committed baseline",
            (1.0 - min_ratio) * 100.0
        );
        println!("bench_gate: if intentional, bless a new baseline (see module docs)");
        ExitCode::FAILURE
    } else {
        println!("bench_gate: ok");
        ExitCode::SUCCESS
    }
}
