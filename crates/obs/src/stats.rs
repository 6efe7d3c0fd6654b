//! Campaign statistics that are not tallies: the Wilson score interval
//! every published rate carries, and the fixed-memory histogram every
//! duration summary uses.
//!
//! Outcome tallies are not kept here. They are counted from trial records
//! by `rustfi::metrics` (in process and after a journal merge alike) and
//! rendered by `rustfi::report`, every rate with its [`wilson_interval`]:
//! the paper reports point-estimate SDC rates, and its headline ("<1% SDC
//! for single INT8 flips") means little without an interval at realistic
//! trial counts. The Wilson score interval behaves well at small `n` and extreme
//! `p`, unlike the normal approximation.
//!
//! Durations fold into a **log-linear histogram** (values below 16 exact,
//! then 16 sub-buckets per octave): ~8 KB of memory, ≤ ~6% relative error
//! at any quantile, exact count, sum, min and max, and no per-observation
//! storage. Every recorder snapshot, the fleet telemetry merge and the
//! Prometheus exporter hold these, so [`latency_summary`] can quote
//! p50/p90/p99 trial latency over millions of trials from counters alone.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::names::{CAMPAIGN_FUSED_CHUNK_NS, CAMPAIGN_TRIAL_NS};

/// The two-sided Wilson score interval for a binomial proportion:
/// `hits` successes in `n` trials at critical value `z` (1.96 ≈ 95%).
/// Returns `(lo, hi)` in `[0, 1]`; `(0, 1)` when `n == 0`.
pub fn wilson_interval(hits: u64, n: u64, z: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let n_f = n as f64;
    let p = hits as f64 / n_f;
    let z2 = z * z;
    let denom = 1.0 + z2 / n_f;
    let center = (p + z2 / (2.0 * n_f)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n_f + z2 / (4.0 * n_f * n_f)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// The 95% critical value used by every rendered table.
pub const Z_95: f64 = 1.959_963_984_540_054;

/// The 99% critical value of the campaign summaries and outcome tables.
pub const Z_99: f64 = 2.575_829_303_548_9;

const LINEAR_CUTOFF: u64 = 16;
const SUB_BUCKETS: usize = 16;
/// Octaves 4..=63 each get [`SUB_BUCKETS`] buckets after the linear range.
const BUCKETS: usize = LINEAR_CUTOFF as usize + (64 - 4) * SUB_BUCKETS;

/// Fixed-memory log-linear histogram over `u64` values (nanoseconds, in
/// practice): exact below 16, then 16 sub-buckets per power of two, giving
/// ≤ ~1/16 relative quantile error with ~8 KB of state.
#[derive(Clone)]
pub struct StreamingHistogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        StreamingHistogram {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl std::fmt::Debug for StreamingHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingHistogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // ≥ 4
    let sub = ((v >> (msb - 4)) & 0xF) as usize;
    LINEAR_CUTOFF as usize + (msb - 4) * SUB_BUCKETS + sub
}

/// The midpoint of a bucket (its representative value for quantiles).
fn bucket_mid(idx: usize) -> u64 {
    if idx < LINEAR_CUTOFF as usize {
        return idx as u64;
    }
    let rel = idx - LINEAR_CUTOFF as usize;
    let msb = 4 + rel / SUB_BUCKETS;
    let sub = (rel % SUB_BUCKETS) as u64;
    let lo = (1u64 << msb) + (sub << (msb - 4));
    let width = 1u64 << (msb - 4);
    lo + width / 2
}

impl StreamingHistogram {
    /// Folds in one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0 ..= 1.0`): exact at the extremes (tracked
    /// min/max), bucket-midpoint accurate (≤ ~6% relative error) elsewhere.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (idx, c) in self.buckets.iter().enumerate() {
            if *c == 0 {
                continue;
            }
            seen += c;
            if seen > target {
                return bucket_mid(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge_from(&mut self, other: &StreamingHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The latency summary of a snapshot's timings: one line each for the
/// trial and fused-chunk streams (`n`, mean, p50, p90, p99, max); empty
/// when neither stream was observed.
pub fn latency_summary(timings: &BTreeMap<&'static str, StreamingHistogram>) -> String {
    let mut out = String::new();
    for (label, name) in [
        ("trial", CAMPAIGN_TRIAL_NS),
        ("fused chunk", CAMPAIGN_FUSED_CHUNK_NS),
    ] {
        let Some(hist) = timings.get(name).filter(|h| h.count() > 0) else {
            continue;
        };
        let _ = writeln!(
            out,
            "{label:>12} latency: n={} mean={} p50={} p90={} p99={} max={}",
            hist.count(),
            fmt_ns(hist.mean()),
            fmt_ns(hist.quantile(0.50)),
            fmt_ns(hist.quantile(0.90)),
            fmt_ns(hist.quantile(0.99)),
            fmt_ns(hist.max())
        );
    }
    out
}

/// Human nanoseconds: `950ns`, `12.3µs`, `4.56ms`, `1.23s`.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_matches_known_values() {
        // 10/100 at 95%: the canonical Wilson example ≈ [0.0552, 0.1744].
        let (lo, hi) = wilson_interval(10, 100, Z_95);
        assert!((lo - 0.0552).abs() < 5e-4, "{lo}");
        assert!((hi - 0.1744).abs() < 5e-4, "{hi}");
        // Degenerate cases stay inside [0, 1] and are sensible.
        assert_eq!(wilson_interval(0, 0, Z_95), (0.0, 1.0));
        let (lo, hi) = wilson_interval(0, 50, Z_95);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.1, "zero successes still has width: {hi}");
        let (lo, hi) = wilson_interval(50, 50, Z_95);
        assert!(lo > 0.9 && lo < 1.0);
        assert_eq!(hi, 1.0);
        // 99% is wider than 95%: 10/100 ≈ [0.0460, 0.2038].
        let (lo, hi) = wilson_interval(10, 100, Z_99);
        assert!((lo - 0.0460).abs() < 5e-4, "{lo}");
        assert!((hi - 0.2038).abs() < 5e-4, "{hi}");
    }

    #[test]
    fn histogram_buckets_are_total_and_ordered() {
        // Every value maps to a bucket whose midpoint is within 1/16.
        for v in [0u64, 1, 15, 16, 17, 1_000, 123_456, u64::MAX / 2, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "{v}");
            let mid = bucket_mid(idx);
            if v >= 16 {
                let err = mid.abs_diff(v) as f64 / v as f64;
                assert!(err <= 1.0 / 16.0, "v={v} mid={mid} err={err}");
            } else {
                assert_eq!(mid, v, "linear range is exact");
            }
        }
        // Bucket index is monotone in the value.
        let mut prev = 0;
        for v in (0..10_000u64).step_by(7) {
            let idx = bucket_index(v);
            assert!(idx >= prev);
            prev = idx;
        }
    }

    #[test]
    fn quantiles_track_a_uniform_stream() {
        let mut h = StreamingHistogram::default();
        for v in 1..=10_000u64 {
            h.observe(v * 1_000); // 1µs .. 10ms
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.quantile(0.0), 1_000);
        assert_eq!(h.quantile(1.0), 10_000_000);
        for (q, expect) in [(0.5, 5_000_000.0), (0.9, 9_000_000.0), (0.99, 9_900_000.0)] {
            let got = h.quantile(q) as f64;
            let err = (got - expect).abs() / expect;
            assert!(err < 0.07, "q={q} got={got} expect={expect} err={err}");
        }
    }

    #[test]
    fn histogram_merge_equals_union() {
        let mut a = StreamingHistogram::default();
        let mut b = StreamingHistogram::default();
        let mut whole = StreamingHistogram::default();
        for v in 0..1_000u64 {
            let target = if v % 2 == 0 { &mut a } else { &mut b };
            target.observe(v * 17);
            whole.observe(v * 17);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum(), whole.sum());
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q), "q={q}");
        }
    }

    #[test]
    fn latency_summary_reads_the_campaign_streams_only() {
        let mut timings = BTreeMap::new();
        let mut trial = StreamingHistogram::default();
        for t in 0..80u64 {
            trial.observe(1_000 + t);
        }
        timings.insert(CAMPAIGN_TRIAL_NS, trial);
        let mut other = StreamingHistogram::default();
        other.observe(5);
        timings.insert("some.other.timing", other);

        let latency = latency_summary(&timings);
        assert_eq!(latency.lines().count(), 1, "{latency}");
        assert!(latency.contains("trial latency: n=80 "), "{latency}");
        assert!(latency.contains("max=1.1µs"), "{latency}");
        assert!(latency_summary(&BTreeMap::new()).is_empty());
    }
}
