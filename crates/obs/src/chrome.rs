//! Chrome `trace_event` JSON export — the format `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) load directly.
//!
//! Spans become `"ph":"X"` complete events (timestamps and durations in
//! microseconds, as the format requires); typed events become `"ph":"i"`
//! instant events carrying their payload under `"args"`. Everything runs
//! under `pid` 1 with the recorder's dense thread ids as `tid`, so the
//! viewer groups tracks per worker.

use std::fmt::Write as _;

use crate::event::Event;
use crate::json::escape_into;
use crate::trace::ObsSnapshot;

/// Renders a snapshot as a Chrome `trace_event` JSON object
/// (`{"traceEvents": [...]}`).
pub fn chrome_trace_json(snap: &ObsSnapshot) -> String {
    let mut out = String::with_capacity(64 + 160 * (snap.spans.len() + snap.events.len()));
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for span in &snap.spans {
        sep(&mut out, &mut first);
        out.push_str("{\"name\":\"");
        escape_into(&span.name, &mut out);
        let _ = write!(
            out,
            "\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
            span.kind,
            micros(span.start_ns),
            micros(span.dur_ns),
            span.tid
        );
        if let Some(layer) = span.layer {
            let _ = write!(out, ",\"args\":{{\"layer\":{layer}}}");
        }
        out.push('}');
    }
    for event in &snap.events {
        sep(&mut out, &mut first);
        instant_event(&mut out, event);
    }
    out.push_str("]}");
    out
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

/// Micro-second rendering with nanosecond precision kept as decimals
/// (Chrome's `ts`/`dur` are floating-point microseconds).
pub(crate) fn micros(ns: u64) -> String {
    let whole = ns / 1_000;
    let frac = ns % 1_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        format!("{whole}.{frac:03}")
    }
}

fn instant_event(out: &mut String, event: &Event) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"fi\",\"ph\":\"i\",\"ts\":0,\"s\":\"g\",\
         \"pid\":1,\"tid\":1,\"args\":{}}}",
        event.kind(),
        event.to_json()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{GuardEvent, InjectionEvent, InjectionSite};
    use crate::json::parse_json;
    use crate::recorder::SpanRecord;

    fn snapshot() -> ObsSnapshot {
        ObsSnapshot {
            spans: vec![
                SpanRecord {
                    name: "conv\"1\"".into(),
                    kind: "conv",
                    layer: Some(0),
                    start_ns: 1_500,
                    dur_ns: 2_000,
                    tid: 1,
                },
                SpanRecord {
                    name: "fc".into(),
                    kind: "linear",
                    layer: None,
                    start_ns: 4_000,
                    dur_ns: 250,
                    tid: 2,
                },
            ],
            events: vec![
                Event::Injection(InjectionEvent {
                    trial: Some(3),
                    layer: 0,
                    site: InjectionSite::Neuron {
                        batch: 0,
                        channel: 1,
                        y: 2,
                        x: 3,
                    },
                    bit: Some(30),
                    before: 1.0,
                    after: f32::NAN,
                }),
                Event::Guard(GuardEvent::NonFinite {
                    layer: 4,
                    layer_name: "relu4".into(),
                }),
            ],
            ..ObsSnapshot::default()
        }
    }

    #[test]
    fn trace_is_valid_json_with_all_entries() {
        let json = chrome_trace_json(&snapshot());
        let v = parse_json(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        let events = v
            .get("traceEvents")
            .and_then(|t| t.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("ph").and_then(|p| p.as_str()), Some("X"));
        assert_eq!(
            events[0].get("name").and_then(|n| n.as_str()),
            Some("conv\"1\""),
            "span names are escaped and round-trip"
        );
        assert_eq!(events[2].get("ph").and_then(|p| p.as_str()), Some("i"));
        assert_eq!(
            events[2]
                .get("args")
                .and_then(|a| a.get("type"))
                .and_then(|t| t.as_str()),
            Some("injection")
        );
    }

    #[test]
    fn timestamps_are_microseconds_with_ns_decimals() {
        assert_eq!(micros(0), "0");
        assert_eq!(micros(2_000), "2");
        assert_eq!(micros(1_500), "1.500");
        assert_eq!(micros(1_002), "1.002");
        let json = chrome_trace_json(&snapshot());
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":2"), "{json}");
    }

    #[test]
    fn empty_snapshot_is_still_valid() {
        let json = chrome_trace_json(&ObsSnapshot::default());
        assert_eq!(json, "{\"traceEvents\":[]}");
        parse_json(&json).unwrap();
    }
}
