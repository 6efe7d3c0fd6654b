//! [`LocalRecorder`]: a per-worker buffer that keeps hot-path recording off
//! the shared recorder's lock.
//!
//! Campaign workers each own one of these. Every recording call appends to a
//! thread-private batch behind an uncontended mutex; at trial boundaries
//! [`LocalRecorder::flush_into`] hands the whole batch to the shared
//! recorder's [`Recorder::merge`]. The result: observation costs the worker
//! one vector push per item and one short locked push per trial, workers
//! contend only for that push, and recording never changes what they
//! compute — which is what preserves the campaign engine's
//! thread-count-invariance guarantee.

use parking_lot::Mutex;

use crate::event::Event;
use crate::recorder::{close_span, ObsBatch, Recorder, SpanCtx, SpanRecord, SpanToken};

/// Buffering [`Recorder`] for one worker thread.
#[derive(Default)]
pub struct LocalRecorder {
    buf: Mutex<ObsBatch>,
}

impl LocalRecorder {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the buffered batch, leaving the buffer empty.
    pub fn take(&self) -> ObsBatch {
        std::mem::take(&mut *self.buf.lock())
    }

    /// Moves everything buffered so far into `target` via one
    /// [`Recorder::merge`] call (no-op when the buffer is empty).
    pub fn flush_into(&self, target: &dyn Recorder) {
        let batch = self.take();
        if !batch.is_empty() {
            target.merge(batch);
        }
    }
}

impl Recorder for LocalRecorder {
    fn layer_enter(&self) -> SpanToken {
        crate::clock::now_ns()
    }

    fn layer_exit(&self, ctx: &SpanCtx<'_>, token: SpanToken) {
        self.buf.lock().spans.push(close_span(ctx, token));
    }

    fn span(&self, span: SpanRecord) {
        self.buf.lock().spans.push(span);
    }

    fn event(&self, event: Event) {
        self.buf.lock().events.push(event);
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        self.buf.lock().counters.push((name, delta));
    }

    fn observe_ns(&self, name: &'static str, ns: u64) {
        self.buf.lock().timings.push((name, ns));
    }

    fn merge(&self, batch: ObsBatch) {
        self.buf.lock().extend(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRecorder;

    #[test]
    fn buffers_then_flushes_everything_once() {
        let local = LocalRecorder::new();
        let token = local.layer_enter();
        local.layer_exit(
            &SpanCtx {
                name: "fc",
                kind: "linear",
                layer: Some(2),
            },
            token,
        );
        local.counter_add("fi.injections", 1);
        local.observe_ns("campaign.trial_ns", 123);
        local.event(Event::Guard(crate::event::GuardEvent::Deadline {
            steps: 9,
        }));

        let shared = TraceRecorder::new();
        local.flush_into(&shared);
        let snap = shared.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.counters.get("fi.injections"), Some(&1));
        assert_eq!(snap.timings.get("campaign.trial_ns").unwrap().count(), 1);

        // Buffer is now empty: a second flush merges nothing.
        local.flush_into(&shared);
        assert_eq!(shared.snapshot().spans.len(), 1);
    }
}
