//! Small shared timing utilities, so benches and binaries stop hand-rolling
//! `Instant::now()` pairs.

use std::time::{Duration, Instant};

/// Runs `f` once, returning its result and wall time.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let started = Instant::now();
    let r = f();
    (r, started.elapsed())
}

/// Mean wall-clock seconds of `n` runs of `f` (0.0 when `n` is 0).
pub fn mean_seconds(n: usize, mut f: impl FnMut()) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let started = Instant::now();
    for _ in 0..n {
        f();
    }
    started.elapsed().as_secs_f64() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_returns_result_and_duration() {
        let (v, d) = time(|| 40 + 2);
        assert_eq!(v, 42);
        assert!(d >= Duration::ZERO);
    }

    #[test]
    fn mean_seconds_runs_exactly_n_times() {
        let mut calls = 0;
        let mean = mean_seconds(5, || calls += 1);
        assert_eq!(calls, 5);
        assert!(mean >= 0.0);
        assert_eq!(mean_seconds(0, || unreachable!()), 0.0);
    }
}
