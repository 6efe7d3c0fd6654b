//! `fuzz_gate` — the differential architecture fuzzer as a CI gate.
//!
//! Runs in three layers, any failure exits nonzero:
//!
//! 1. **Corpus replay**: every `tests/regressions/*.case` file (workspace
//!    root) is parsed and re-run. A missing or empty corpus directory is
//!    fine — the gate then only fuzzes fresh cases.
//! 2. **Fresh fuzzing**: `RUSTFI_FUZZ_CASES` random cases (default 24; the
//!    nightly workflow raises this into the hundreds) drawn from
//!    [`rustfi_bench::fuzz::cases`], with every fourth case forced to
//!    contain both `Residual` and `Branches` containers. The master seed
//!    comes from `RUSTFI_FUZZ_SEED` (decimal or `0x…` hex) so a failing CI
//!    run is reproducible locally with the same budget.
//! 3. **Failure persistence**: each failing case is serialized to
//!    `RUSTFI_FUZZ_OUT` (default `target/fuzz-failures/`) as a replayable
//!    `.case` file, and the exact replay command is printed. Committing such
//!    a file into `tests/regressions/` turns it into a permanent corpus
//!    entry.
//!
//! Each passing case's line names how many trials its accelerated leg
//! dropped at a golden match (`exits`), and the closing lines count the
//! fresh cases that drew wide convs (`FuzzCase::wide`) and the cases whose
//! passes exited early and the slices they dropped, so a CI log shows the
//! wide convs and the exit path ran.
//!
//! Replay a single case with `fuzz_gate -- --replay <file>`.

use proptest::{Strategy, TestRng};
use rustfi_bench::fuzz::{cases, container_cases, parse_case_file, run_case, FuzzCase};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    PathBuf::from(format!("{}/../..", env!("CARGO_MANIFEST_DIR")))
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("fuzz_gate: ignoring unparseable {name}={raw:?}: {e}");
            None
        }
    }
}

/// Cases whose accelerated leg exited early, and the slices it dropped.
#[derive(Default)]
struct Exits {
    cases: usize,
    slices: u64,
}

/// Runs one case, printing a pass line or the full failure.
fn run_one(label: &str, case: &FuzzCase, failures: &mut Vec<FuzzCase>, exits: &mut Exits) {
    match run_case(case) {
        Ok(report) => {
            println!(
                "  ok {label}: seed={:#x} legs={} trials={} layers={} exits={}",
                case.seed, report.legs, report.trials_run, report.leaf_layers, report.exits
            );
            exits.cases += usize::from(report.exits > 0);
            exits.slices += report.exits;
        }
        Err(failure) => {
            eprintln!("  FAIL {label}:\n{failure}");
            failures.push(case.clone());
        }
    }
}

fn replay_corpus(dir: &Path, failures: &mut Vec<FuzzCase>, exits: &mut Exits) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        println!(
            "fuzz_gate: no corpus directory at {} — skipping replay",
            dir.display()
        );
        return 0;
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    paths.sort();
    for path in &paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| parse_case_file(&t))
        {
            Ok(case) => run_one(&format!("corpus/{name}"), &case, failures, exits),
            Err(e) => {
                eprintln!("  FAIL corpus/{name}: unparseable case file: {e}");
                // An unreadable corpus entry is a gate failure too — a
                // regression test that silently stops running is worse than
                // one that fails loudly. Persist nothing; the file is
                // already in the repo.
                failures.push(FuzzCase::sample(0));
            }
        }
    }
    paths.len()
}

fn persist_failures(out_dir: &Path, failures: &[FuzzCase]) {
    if failures.is_empty() {
        return;
    }
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("fuzz_gate: cannot create {}: {e}", out_dir.display());
        return;
    }
    for case in failures {
        let path = out_dir.join(format!("fuzz-{:016x}.case", case.seed));
        match std::fs::write(&path, case.to_case_file()) {
            Ok(()) => {
                eprintln!("fuzz_gate: wrote {}", path.display());
                eprintln!(
                    "fuzz_gate: replay with: cargo run --release -p rustfi-bench --bin fuzz_gate -- --replay {}",
                    path.display()
                );
                eprintln!("fuzz_gate: to pin it forever, commit it to tests/regressions/");
            }
            Err(e) => eprintln!("fuzz_gate: cannot write {}: {e}", path.display()),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut failures: Vec<FuzzCase> = Vec::new();
    let mut exits = Exits::default();

    // Single-case replay mode.
    if let Some(i) = args.iter().position(|a| a == "--replay") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("usage: fuzz_gate --replay <case-file>");
            return ExitCode::from(2);
        };
        let case = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| parse_case_file(&t))
        {
            Ok(case) => case,
            Err(e) => {
                eprintln!("fuzz_gate: cannot load {path}: {e}");
                return ExitCode::from(2);
            }
        };
        println!("fuzz_gate: replaying {path}");
        println!("  case: {case}");
        run_one("replay", &case, &mut failures, &mut exits);
        return if failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let root = workspace_root();
    let corpus = root.join("tests/regressions");
    println!("fuzz_gate: replaying corpus from {}", corpus.display());
    let replayed = replay_corpus(&corpus, &mut failures, &mut exits);

    let budget = rustfi_bench::env_usize("RUSTFI_FUZZ_CASES", 24);
    let master = env_u64("RUSTFI_FUZZ_SEED");
    let mut rng = match master {
        Some(seed) => TestRng::deterministic(&format!("fuzz_gate-{seed:#x}")),
        None => TestRng::deterministic("fuzz_gate"),
    };
    println!(
        "fuzz_gate: fuzzing {budget} fresh cases (RUSTFI_FUZZ_SEED={})",
        master.map_or_else(|| "default".into(), |s| format!("{s:#x}"))
    );
    let free = cases();
    let forced = container_cases();
    let mut wide = 0;
    for i in 0..budget {
        // Every fourth case must contain both container topologies — the
        // corner of the architecture space where resume points, fusion and
        // prefix caching interact hardest.
        let case = if i % 4 == 3 {
            forced.generate(&mut rng)
        } else {
            free.generate(&mut rng)
        };
        wide += usize::from(case.wide);
        run_one(&format!("fuzz[{i}]"), &case, &mut failures, &mut exits);
    }

    let out_dir = std::env::var("RUSTFI_FUZZ_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| root.join("target/fuzz-failures"));
    persist_failures(&out_dir, &failures);

    println!(
        "fuzz_gate: {replayed} corpus case(s) + {budget} fresh case(s), {} failure(s)",
        failures.len()
    );
    println!("fuzz_gate: {wide} of {budget} fresh case(s) drew wide convs");
    println!(
        "fuzz_gate: {} case(s) exited early at a golden match, dropping {} slice(s)",
        exits.cases, exits.slices
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
