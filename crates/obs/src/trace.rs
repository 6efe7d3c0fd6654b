//! [`TraceRecorder`]: the collecting recorder behind every exporter.
//!
//! Direct recording goes through one mutex; campaign workers avoid that
//! mutex by buffering into a [`LocalRecorder`] and handing whole
//! [`ObsBatch`]es to `merge`, which only pushes the batch onto a pending
//! list under a second, short lock. [`TraceRecorder::snapshot`] folds the
//! pending batches into the state in merge order and returns an owned
//! [`ObsSnapshot`] for export.
//!
//! [`LocalRecorder`]: crate::LocalRecorder

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use parking_lot::Mutex;

use crate::event::Event;
use crate::recorder::{close_span, ObsBatch, Recorder, SpanCtx, SpanRecord, SpanToken};
use crate::stats::StreamingHistogram;

/// Default cap on retained spans (~1M); past it, spans are counted but
/// dropped so an unbounded campaign cannot exhaust memory.
pub const DEFAULT_MAX_SPANS: usize = 1 << 20;

/// Aggregated per-layer wall time, derived from spans carrying a layer index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTimeRow {
    /// Network layer index.
    pub layer: usize,
    /// Layer name (from the first span seen for this layer).
    pub name: String,
    /// Layer kind (Chrome trace category).
    pub kind: &'static str,
    /// Number of forward spans.
    pub calls: u64,
    /// Total wall time across calls, nanoseconds.
    pub total_ns: u64,
}

impl LayerTimeRow {
    /// Mean nanoseconds per call (0 when no calls).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.calls).unwrap_or(0)
    }
}

/// Owned copy of everything a [`TraceRecorder`] collected, ready for export.
#[derive(Debug, Clone, Default)]
pub struct ObsSnapshot {
    /// All retained spans, in merge order.
    pub spans: Vec<SpanRecord>,
    /// All events, in merge order.
    pub events: Vec<Event>,
    /// Counter totals by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Duration histograms by name.
    pub timings: BTreeMap<&'static str, StreamingHistogram>,
    /// Spans discarded because the retention cap was hit.
    pub dropped_spans: u64,
}

impl ObsSnapshot {
    /// Per-layer wall-time table: spans with a layer index, aggregated by
    /// layer and sorted by layer index.
    pub fn layer_times(&self) -> Vec<LayerTimeRow> {
        let mut by_layer: BTreeMap<usize, LayerTimeRow> = BTreeMap::new();
        for span in &self.spans {
            let Some(layer) = span.layer else { continue };
            let row = by_layer.entry(layer).or_insert_with(|| LayerTimeRow {
                layer,
                name: span.name.clone(),
                kind: span.kind,
                calls: 0,
                total_ns: 0,
            });
            row.calls += 1;
            row.total_ns += span.dur_ns;
        }
        by_layer.into_values().collect()
    }

    /// Adds a batch's counter deltas and folds its timing observations
    /// into the duration histograms.
    pub(crate) fn add_totals(&mut self, batch: &ObsBatch) {
        for (name, delta) in &batch.counters {
            *self.counters.entry(name).or_insert(0) += delta;
        }
        for (name, ns) in &batch.timings {
            self.timings.entry(name).or_default().observe(*ns);
        }
    }

    /// Folds a whole batch in, retaining spans up to `max_spans`.
    fn absorb(&mut self, batch: ObsBatch, max_spans: usize) {
        self.add_totals(&batch);
        for span in batch.spans {
            if self.spans.len() < max_spans {
                self.spans.push(span);
            } else {
                self.dropped_spans += 1;
            }
        }
        self.events.extend(batch.events);
    }
}

/// In-memory collecting [`Recorder`] with deferred batch merging and
/// exporters for Chrome `trace_event` JSON, JSONL, and Prometheus text.
pub struct TraceRecorder {
    state: Mutex<ObsSnapshot>,
    /// Merged batches not yet folded into `state`, in merge order.
    pending: Mutex<Vec<ObsBatch>>,
    max_spans: usize,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// A recorder retaining up to [`DEFAULT_MAX_SPANS`] spans.
    pub fn new() -> Self {
        Self::with_max_spans(DEFAULT_MAX_SPANS)
    }

    /// A recorder retaining up to `max_spans` spans (further spans are
    /// counted in [`ObsSnapshot::dropped_spans`] and discarded).
    pub fn with_max_spans(max_spans: usize) -> Self {
        TraceRecorder {
            state: Mutex::new(ObsSnapshot::default()),
            pending: Mutex::new(Vec::new()),
            max_spans,
        }
    }

    /// Owned copy of everything collected so far.
    pub fn snapshot(&self) -> ObsSnapshot {
        let mut state = self.state.lock();
        let pending = std::mem::take(&mut *self.pending.lock());
        for batch in pending {
            state.absorb(batch, self.max_spans);
        }
        state.clone()
    }

    /// Chrome `trace_event` JSON of the current snapshot (Perfetto-loadable).
    pub fn chrome_trace(&self) -> String {
        crate::chrome::chrome_trace_json(&self.snapshot())
    }

    /// Writes [`TraceRecorder::chrome_trace`] to `path`.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.chrome_trace().as_bytes())?;
        f.flush()
    }

    /// Prometheus exposition-format text of the current snapshot.
    pub fn prometheus(&self) -> String {
        crate::prom::prometheus_text(&self.snapshot())
    }

    /// Writes the current snapshot's events as line-atomic JSONL to `path`.
    pub fn write_events_jsonl(&self, path: &Path) -> std::io::Result<()> {
        crate::jsonl::write_events_jsonl(&self.snapshot(), path)
    }
}

impl Recorder for TraceRecorder {
    fn layer_enter(&self) -> SpanToken {
        crate::clock::now_ns()
    }

    fn layer_exit(&self, ctx: &SpanCtx<'_>, token: SpanToken) {
        self.span(close_span(ctx, token));
    }

    fn span(&self, span: SpanRecord) {
        let mut state = self.state.lock();
        if state.spans.len() < self.max_spans {
            state.spans.push(span);
        } else {
            state.dropped_spans += 1;
        }
    }

    fn event(&self, event: Event) {
        self.state.lock().events.push(event);
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        *self.state.lock().counters.entry(name).or_insert(0) += delta;
    }

    fn observe_ns(&self, name: &'static str, ns: u64) {
        self.state
            .lock()
            .timings
            .entry(name)
            .or_default()
            .observe(ns);
    }

    /// Pushes the batch onto the pending list; [`TraceRecorder::snapshot`]
    /// folds it in.
    fn merge(&self, batch: ObsBatch) {
        if batch.is_empty() {
            return;
        }
        self.pending.lock().push(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{GuardEvent, TrialOutcomeEvent};
    use std::sync::Arc;

    fn span(name: &str, layer: Option<usize>, dur: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            kind: "test",
            layer,
            start_ns: 0,
            dur_ns: dur,
            tid: 1,
        }
    }

    #[test]
    fn direct_recording_round_trips_through_snapshot() {
        let rec = TraceRecorder::new();
        let token = rec.layer_enter();
        rec.layer_exit(
            &SpanCtx {
                name: "conv1",
                kind: "conv",
                layer: Some(0),
            },
            token,
        );
        rec.counter_add("c", 2);
        rec.counter_add("c", 3);
        rec.observe_ns("t", 10);
        rec.observe_ns("t", 20);
        rec.event(Event::Guard(GuardEvent::Deadline { steps: 5 }));

        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "conv1");
        assert_eq!(snap.counters.get("c"), Some(&5));
        let t = snap.timings.get("t").unwrap();
        assert_eq!((t.count(), t.sum(), t.min(), t.max()), (2, 30, 10, 20));
        assert_eq!(t.mean(), 15);
        assert_eq!(snap.events.len(), 1);
    }

    #[test]
    fn merge_is_observed_in_order_and_from_many_threads() {
        let rec = Arc::new(TraceRecorder::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        rec.merge(ObsBatch {
                            spans: vec![span(&format!("t{t}s{i}"), Some(t), 1)],
                            counters: vec![("merged", 1)],
                            ..ObsBatch::default()
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counters.get("merged"), Some(&400));
        assert_eq!(snap.spans.len(), 400);
        // Each thread's batches stay in the order it merged them.
        for t in 0..8 {
            let names: Vec<_> = snap
                .spans
                .iter()
                .filter(|s| s.layer == Some(t))
                .map(|s| s.name.as_str())
                .collect();
            let expect: Vec<_> = (0..50).map(|i| format!("t{t}s{i}")).collect();
            assert_eq!(names, expect.iter().map(|s| s.as_str()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn span_cap_drops_and_counts() {
        let rec = TraceRecorder::with_max_spans(2);
        for i in 0..5 {
            rec.span(span(&format!("s{i}"), None, 1));
        }
        rec.merge(ObsBatch {
            spans: vec![span("m", None, 1)],
            ..ObsBatch::default()
        });
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.dropped_spans, 4);
    }

    #[test]
    fn layer_times_aggregates_and_sorts() {
        let rec = TraceRecorder::new();
        rec.span(span("fc", Some(3), 30));
        rec.span(span("conv", Some(1), 10));
        rec.span(span("conv", Some(1), 14));
        rec.span(span("anon", None, 99));
        rec.event(Event::TrialOutcome(TrialOutcomeEvent {
            trial: 0,
            layer: 1,
            outcome: "masked",
            due_layer: None,
        }));
        let rows = rec.snapshot().layer_times();
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].layer, rows[0].calls, rows[0].total_ns), (1, 2, 24));
        assert_eq!(rows[0].mean_ns(), 12);
        assert_eq!((rows[1].layer, rows[1].name.as_str()), (3, "fc"));
    }
}
