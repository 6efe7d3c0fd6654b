//! The [`Recorder`] trait and the zero-cost [`NullRecorder`].
//!
//! Instrumented code (the `rustfi-nn` forward path, the `rustfi` injector
//! and campaign engine) talks to observation exclusively through this trait,
//! held as an `Option<Arc<dyn Recorder>>`. Disabled observation is therefore
//! one `None` branch at each instrumentation point; a [`NullRecorder`], for
//! code that wants a recorder unconditionally, reduces every method to an
//! `#[inline]` no-op — in particular [`NullRecorder::layer_enter`] does not
//! even read the clock.

use crate::clock::{now_ns, thread_tid};
use crate::event::Event;

/// Opaque token produced by [`Recorder::layer_enter`] and consumed by
/// [`Recorder::layer_exit`]. Collecting recorders use the span's start
/// timestamp in nanoseconds; [`NullRecorder`] returns `0` without touching
/// the clock.
pub type SpanToken = u64;

/// Identity of the code region a span covers, borrowed from the caller.
#[derive(Debug, Clone, Copy)]
pub struct SpanCtx<'a> {
    /// Human-readable name (layer name, phase name).
    pub name: &'a str,
    /// Short static category (`"conv"`, `"seq"`, `"trial"`, …) — becomes the
    /// Chrome trace `cat`.
    pub kind: &'static str,
    /// Network layer index, when the span covers a layer.
    pub layer: Option<usize>,
}

/// One finished span on the shared timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Name copied from the [`SpanCtx`].
    pub name: String,
    /// Category copied from the [`SpanCtx`].
    pub kind: &'static str,
    /// Network layer index, when the span covers a layer.
    pub layer: Option<usize>,
    /// Start, nanoseconds since the observation epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Dense id of the recording thread.
    pub tid: u32,
}

/// Everything a worker buffered between two merge points: finished spans,
/// events, counter increments, and raw histogram observations.
#[derive(Debug, Clone, Default)]
pub struct ObsBatch {
    /// Finished spans.
    pub spans: Vec<SpanRecord>,
    /// Typed events in emission order.
    pub events: Vec<Event>,
    /// Counter increments `(name, delta)`.
    pub counters: Vec<(&'static str, u64)>,
    /// Histogram observations `(name, nanoseconds)`.
    pub timings: Vec<(&'static str, u64)>,
}

impl ObsBatch {
    /// Whether the batch holds nothing.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.events.is_empty()
            && self.counters.is_empty()
            && self.timings.is_empty()
    }

    /// Appends another batch's contents.
    pub fn extend(&mut self, other: ObsBatch) {
        self.spans.extend(other.spans);
        self.events.extend(other.events);
        self.counters.extend(other.counters);
        self.timings.extend(other.timings);
    }
}

/// Sink for spans, events, counters, and duration histograms.
///
/// All methods take `&self`: recorders are shared (`Arc`) between the
/// network, the injector, and campaign workers. Implementations must be
/// cheap enough to call from inference hot paths — or be [`NullRecorder`].
pub trait Recorder: Send + Sync {
    /// Marks the start of a span (a layer forward, a trial). Returns the
    /// token to hand back to [`Recorder::layer_exit`].
    fn layer_enter(&self) -> SpanToken;

    /// Finishes the span opened by the matching [`Recorder::layer_enter`].
    fn layer_exit(&self, ctx: &SpanCtx<'_>, token: SpanToken);

    /// Records an already-finished span (used by batch merges and callers
    /// that timed a region themselves).
    fn span(&self, span: SpanRecord);

    /// Records a typed event.
    fn event(&self, event: Event);

    /// Adds `delta` to the named monotonic counter.
    fn counter_add(&self, name: &'static str, delta: u64);

    /// Records one observation into the named duration histogram.
    fn observe_ns(&self, name: &'static str, ns: u64);

    /// Bulk-merges a batch (campaigns call this once per trial per worker).
    /// The default replays every item through the single-item methods.
    fn merge(&self, batch: ObsBatch) {
        for s in batch.spans {
            self.span(s);
        }
        for e in batch.events {
            self.event(e);
        }
        for (name, delta) in batch.counters {
            self.counter_add(name, delta);
        }
        for (name, ns) in batch.timings {
            self.observe_ns(name, ns);
        }
    }

    /// Durability point: asks the recorder to push buffered state to its
    /// backing store (a telemetry sidecar). Campaigns call this once at the
    /// end of a run; streaming recorders may also flush on their own
    /// cadence. In-memory recorders need not override the default no-op.
    fn flush(&self) {}
}

/// Helper for collecting recorders: builds the [`SpanRecord`] for a span
/// closed *now* whose `layer_enter` returned `token`.
pub(crate) fn close_span(ctx: &SpanCtx<'_>, token: SpanToken) -> SpanRecord {
    let end = now_ns();
    SpanRecord {
        name: ctx.name.to_string(),
        kind: ctx.kind,
        layer: ctx.layer,
        start_ns: token,
        dur_ns: end.saturating_sub(token),
        tid: thread_tid(),
    }
}

/// The do-nothing recorder: every method is an `#[inline]` no-op, so code
/// that keeps a recorder installed unconditionally pays only the virtual
/// call (and no clock read). The `ablation_obs_overhead` bench demonstrates
/// this path is within noise of uninstrumented code.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline]
    fn layer_enter(&self) -> SpanToken {
        0
    }

    #[inline]
    fn layer_exit(&self, _ctx: &SpanCtx<'_>, _token: SpanToken) {}

    #[inline]
    fn span(&self, _span: SpanRecord) {}

    #[inline]
    fn event(&self, _event: Event) {}

    #[inline]
    fn counter_add(&self, _name: &'static str, _delta: u64) {}

    #[inline]
    fn observe_ns(&self, _name: &'static str, _ns: u64) {}

    #[inline]
    fn merge(&self, _batch: ObsBatch) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_accepts_everything_silently() {
        let rec = NullRecorder;
        let token = rec.layer_enter();
        assert_eq!(token, 0, "null recorder does not read the clock");
        rec.layer_exit(
            &SpanCtx {
                name: "x",
                kind: "test",
                layer: None,
            },
            token,
        );
        rec.counter_add("c", 1);
        rec.observe_ns("h", 5);
        rec.merge(ObsBatch::default());
    }

    #[test]
    fn batch_emptiness_and_extend() {
        let mut a = ObsBatch::default();
        assert!(a.is_empty());
        let b = ObsBatch {
            counters: vec![("c", 2)],
            ..ObsBatch::default()
        };
        a.extend(b);
        assert!(!a.is_empty());
        assert_eq!(a.counters, vec![("c", 2)]);
    }

    #[test]
    fn close_span_measures_a_nonnegative_duration() {
        let ctx = SpanCtx {
            name: "conv1",
            kind: "conv",
            layer: Some(1),
        };
        let token = now_ns();
        let span = close_span(&ctx, token);
        assert_eq!(span.name, "conv1");
        assert_eq!(span.layer, Some(1));
        assert!(span.start_ns == token && span.tid >= 1);
    }
}
