//! Streaming campaign statistics: per-layer and overall SDC/DUE rates with
//! Wilson score intervals, and latency quantiles — all computed without
//! storing per-record data.
//!
//! The paper reports point-estimate SDC rates; TensorFI-style practice adds
//! statistical confidence, which matters exactly when rates are small (the
//! paper's headline is "<1% SDC for single INT8 flips" — a claim that is
//! meaningless without an interval at realistic trial counts). The Wilson
//! score interval behaves well at small `n` and extreme `p`, unlike the
//! normal approximation.
//!
//! Latency quantiles come from a fixed-size **log-linear histogram** (values
//! below 16 exact, then 16 sub-buckets per octave): ~8 KB of memory, ≤ ~6%
//! relative error at any quantile, no per-observation storage. This is what
//! lets the fleet's merged report quote p50/p90/p99 trial latency over
//! millions of trials from counters alone.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use parking_lot::Mutex;

use crate::event::Event;
use crate::names::{CAMPAIGN_FUSED_CHUNK_NS, CAMPAIGN_TRIAL_NS};
use crate::recorder::{ObsBatch, Recorder, SpanCtx, SpanRecord, SpanToken};
use crate::trace::ObsSnapshot;

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

/// Outcome tallies for one layer (or the whole campaign).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Trials whose output matched the golden run.
    pub masked: u64,
    /// Silent data corruptions (top-1 changed).
    pub sdc: u64,
    /// Detected uncorrectable errors (guard fired).
    pub due: u64,
    /// Trials that panicked.
    pub crash: u64,
    /// Trials that tripped the step watchdog.
    pub hang: u64,
    /// Unknown labels (foreign telemetry).
    pub unknown: u64,
}

impl OutcomeCounts {
    /// Total trials observed.
    pub fn total(&self) -> u64 {
        self.masked + self.sdc + self.due + self.crash + self.hang + self.unknown
    }

    fn add(&mut self, outcome: &str) {
        match outcome {
            "masked" => self.masked += 1,
            "sdc" => self.sdc += 1,
            "due" => self.due += 1,
            "crash" => self.crash += 1,
            "hang" => self.hang += 1,
            _ => self.unknown += 1,
        }
    }
}

/// Streaming statistics over a campaign's event/timing stream: per-layer and
/// overall outcome tallies plus latency histograms. Fixed memory — nothing
/// here grows with trial count.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Outcome tallies by injectable layer index.
    pub per_layer: BTreeMap<usize, OutcomeCounts>,
    /// Whole-campaign outcome tallies.
    pub overall: OutcomeCounts,
    /// Per-trial latency (the `campaign.trial_ns` stream).
    pub trial_ns: StreamingHistogram,
    /// Per-fused-chunk latency (the `campaign.fused_chunk_ns` stream).
    pub fused_chunk_ns: StreamingHistogram,
}

impl CampaignStats {
    /// Consumes one event (only trial outcomes carry statistics).
    pub fn ingest_event(&mut self, event: &Event) {
        if let Event::TrialOutcome(e) = event {
            // A crash before fault planning reports layer usize::MAX;
            // keep it out of the per-layer table but in the overall row.
            self.overall.add(e.outcome);
            if e.layer != usize::MAX {
                self.per_layer.entry(e.layer).or_default().add(e.outcome);
            }
        }
    }

    /// Consumes one timing observation.
    pub fn ingest_timing(&mut self, name: &str, ns: u64) {
        if name == CAMPAIGN_TRIAL_NS {
            self.trial_ns.observe(ns);
        } else if name == CAMPAIGN_FUSED_CHUNK_NS {
            self.fused_chunk_ns.observe(ns);
        }
    }

    /// Builds stats from an already-collected snapshot. Timing histograms
    /// are approximated from the snapshot's [`TimingStat`] summaries when
    /// raw observations are gone; prefer feeding a [`StatsRecorder`] live
    /// or ingesting a raw [`ObsBatch`].
    ///
    /// [`TimingStat`]: crate::TimingStat
    pub fn from_events(events: &[Event]) -> CampaignStats {
        let mut stats = CampaignStats::default();
        for e in events {
            stats.ingest_event(e);
        }
        stats
    }

    /// Ingests a raw batch (events + timing observations), e.g. a merged
    /// sidecar lane.
    pub fn ingest_batch(&mut self, batch: &ObsBatch) {
        for e in &batch.events {
            self.ingest_event(e);
        }
        for (name, ns) in &batch.timings {
            self.ingest_timing(name, *ns);
        }
    }

    /// Ingests an aggregated snapshot (events plus raw-span-derived
    /// timings are already folded; only events remain to consume).
    pub fn ingest_snapshot_events(&mut self, snap: &ObsSnapshot) {
        for e in &snap.events {
            self.ingest_event(e);
        }
    }

    /// Folds another stats object into this one.
    pub fn merge_from(&mut self, other: &CampaignStats) {
        for (layer, counts) in &other.per_layer {
            let row = self.per_layer.entry(*layer).or_default();
            row.masked += counts.masked;
            row.sdc += counts.sdc;
            row.due += counts.due;
            row.crash += counts.crash;
            row.hang += counts.hang;
            row.unknown += counts.unknown;
        }
        let o = &other.overall;
        self.overall.masked += o.masked;
        self.overall.sdc += o.sdc;
        self.overall.due += o.due;
        self.overall.crash += o.crash;
        self.overall.hang += o.hang;
        self.overall.unknown += o.unknown;
        self.trial_ns.merge_from(&other.trial_ns);
        self.fused_chunk_ns.merge_from(&other.fused_chunk_ns);
    }

    /// Renders the per-layer SDC/DUE table with 95% Wilson intervals.
    pub fn sdc_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>22} {:>22} {:>6} {:>6}",
            "layer", "trials", "sdc% [95% CI]", "due% [95% CI]", "crash", "hang"
        );
        for (layer, counts) in &self.per_layer {
            let _ = writeln!(out, "{:>5} {}", layer, rate_row(counts));
        }
        let _ = writeln!(out, "{:>5} {}", "all", rate_row(&self.overall));
        out
    }

    /// Renders the latency-quantile summary (empty string when no timing
    /// stream was observed).
    pub fn latency_summary(&self) -> String {
        let mut out = String::new();
        for (label, hist) in [
            ("trial", &self.trial_ns),
            ("fused chunk", &self.fused_chunk_ns),
        ] {
            if hist.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{label:>12} latency: n={} mean={} p50={} p90={} p99={} max={}",
                hist.count(),
                fmt_ns(hist.mean()),
                fmt_ns(hist.quantile(0.50)),
                fmt_ns(hist.quantile(0.90)),
                fmt_ns(hist.quantile(0.99)),
                fmt_ns(hist.max)
            );
        }
        out
    }
}

fn rate_row(c: &OutcomeCounts) -> String {
    let n = c.total();
    format!(
        "{:>8} {:>22} {:>22} {:>6} {:>6}",
        n,
        rate_ci(c.sdc, n),
        rate_ci(c.due, n),
        c.crash,
        c.hang
    )
}

/// `"x.xx% [lo.xx, hi.xx]"` with a 95% Wilson interval.
fn rate_ci(hits: u64, n: u64) -> String {
    let (lo, hi) = wilson_interval(hits, n, Z_95);
    let p = if n == 0 { 0.0 } else { hits as f64 / n as f64 };
    format!("{:.2}% [{:.2}, {:.2}]", p * 100.0, lo * 100.0, hi * 100.0)
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

/// A [`Recorder`] that folds the event/timing stream straight into
/// [`CampaignStats`] — fixed memory, suitable for fanning alongside a
/// sidecar or trace recorder in arbitrarily long campaigns.
#[derive(Default)]
pub struct StatsRecorder {
    stats: Mutex<CampaignStats>,
}

impl StatsRecorder {
    /// An empty stats recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Owned copy of the accumulated statistics.
    pub fn snapshot(&self) -> CampaignStats {
        self.stats.lock().clone()
    }
}

impl Recorder for StatsRecorder {
    fn layer_enter(&self) -> SpanToken {
        0
    }

    fn layer_exit(&self, _ctx: &SpanCtx<'_>, _token: SpanToken) {}

    fn span(&self, _span: SpanRecord) {}

    fn event(&self, event: Event) {
        self.stats.lock().ingest_event(&event);
    }

    fn counter_add(&self, _name: &'static str, _delta: u64) {}

    fn observe_ns(&self, name: &'static str, ns: u64) {
        self.stats.lock().ingest_timing(name, ns);
    }

    fn merge(&self, batch: ObsBatch) {
        self.stats.lock().ingest_batch(&batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TrialOutcomeEvent;

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

    fn outcome(trial: usize, layer: usize, outcome: &'static str) -> Event {
        Event::TrialOutcome(TrialOutcomeEvent {
            trial,
            layer,
            outcome,
            due_layer: None,
        })
    }

    #[test]
    fn stats_recorder_accumulates_rates_and_latency() {
        let rec = StatsRecorder::new();
        for t in 0..80 {
            rec.event(outcome(
                t,
                t % 2,
                if t % 10 == 0 { "sdc" } else { "masked" },
            ));
            rec.observe_ns(CAMPAIGN_TRIAL_NS, 1_000 + t as u64);
        }
        rec.event(outcome(80, usize::MAX, "crash"));
        rec.observe_ns("some.other.timing", 5);

        let stats = rec.snapshot();
        assert_eq!(stats.overall.total(), 81);
        assert_eq!(stats.overall.sdc, 8);
        assert_eq!(stats.overall.crash, 1);
        assert_eq!(stats.per_layer.len(), 2, "usize::MAX layer excluded");
        assert_eq!(
            stats.per_layer[&0].total() + stats.per_layer[&1].total(),
            80
        );
        assert_eq!(stats.trial_ns.count(), 80);

        let table = stats.sdc_table();
        assert!(table.contains("sdc% [95% CI]"), "{table}");
        assert!(table.lines().count() >= 4, "{table}");
        let latency = stats.latency_summary();
        assert!(latency.contains("p99"), "{latency}");
    }
}
