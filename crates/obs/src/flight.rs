//! Flight recorder: a bounded ring buffer of the last N observability
//! items, flushed to a `*.flight` postmortem file so a crashed or killed
//! worker still ships its final moments.
//!
//! Unlike the telemetry sidecar (which streams *everything* to disk), the
//! flight recorder holds fixed memory — the last `cap` spans/events plus
//! running counter totals — and snapshots the whole ring to disk atomically
//! (write temp file, rename). A worker arms three flush paths:
//!
//! 1. an **initial snapshot** at startup, so even an instantly-SIGKILLed
//!    worker leaves a (possibly empty) postmortem;
//! 2. a **periodic snapshot** from the heartbeat thread (SIGKILL gives no
//!    chance to flush, so the on-disk ring trails reality by at most one
//!    heartbeat interval);
//! 3. a **panic-hook snapshot** ([`FlightRecorder::arm_panic_flush`]) that
//!    captures the exact final state on the way down.
//!
//! The orchestrator harvests the file after killing a hung worker; humans
//! read it to answer "what was shard 3 doing when it died?".

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::now_ns;
use crate::event::Event;
use crate::json::{lines, parse_line, Value};
use crate::recorder::{close_span, Recorder, SpanCtx, SpanRecord, SpanToken};
use crate::sidecar::SidecarHeader;

/// Flight-file schema version (the `rustfi_flight` header field).
pub const FLIGHT_VERSION: u64 = 1;

/// Default ring capacity: enough to see the last few trials' spans and
/// events without holding meaningful memory.
pub const DEFAULT_FLIGHT_CAP: usize = 256;

/// One retained item: a global sequence number, the capture timestamp
/// (process-local [`now_ns`]), and the item's JSON payload.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEntry {
    /// Position in the total stream (monotonic across evictions), so a
    /// reader can tell how much history scrolled off the ring.
    pub seq: u64,
    /// Capture time, nanoseconds on the worker's monotonic clock.
    pub ns: u64,
    /// The item payload as a JSON object string (an `Event::to_json`
    /// object, or `{"span":...}` for spans).
    pub payload: String,
}

struct FlightState {
    ring: VecDeque<FlightEntry>,
    counters: BTreeMap<&'static str, u64>,
    seq: u64,
    dropped: u64,
}

/// Bounded-memory [`Recorder`] retaining the last `cap` spans/events plus
/// running counter totals, snapshottable to a postmortem file at any time.
pub struct FlightRecorder {
    cap: usize,
    state: Mutex<FlightState>,
    path: Option<PathBuf>,
    /// Identity stamped into the postmortem header (shard/attempt/anchor).
    identity: Option<SidecarHeader>,
}

impl FlightRecorder {
    /// An in-memory ring of capacity `cap` (no backing file; `flush` is a
    /// no-op until a path is attached via [`FlightRecorder::with_path`]).
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            cap: cap.max(1),
            state: Mutex::new(FlightState {
                ring: VecDeque::new(),
                counters: BTreeMap::new(),
                seq: 0,
                dropped: 0,
            }),
            path: None,
            identity: None,
        }
    }

    /// Attaches the postmortem path (and optional shard identity) this
    /// recorder snapshots to on [`Recorder::flush`] / panic.
    pub fn with_path(mut self, path: &Path, identity: Option<SidecarHeader>) -> Self {
        self.path = Some(path.to_path_buf());
        self.identity = identity;
        self
    }

    /// Ring capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    fn push_payload(&self, payload: String) {
        let ns = now_ns();
        let mut state = self.state.lock();
        if state.ring.len() == self.cap {
            state.ring.pop_front();
            state.dropped += 1;
        }
        let seq = state.seq;
        state.seq += 1;
        state.ring.push_back(FlightEntry { seq, ns, payload });
    }

    /// The retained entries, oldest first (exactly the last `min(seq, cap)`
    /// items pushed).
    pub fn entries(&self) -> Vec<FlightEntry> {
        self.state.lock().ring.iter().cloned().collect()
    }

    /// Total items ever pushed.
    pub fn total_seen(&self) -> u64 {
        self.state.lock().seq
    }

    /// Renders the current ring as flight-file text: a header line, then
    /// one entry per line, oldest first.
    pub fn render(&self) -> String {
        let state = self.state.lock();
        let mut out = String::with_capacity(64 + 160 * state.ring.len());
        let _ = write!(
            out,
            "{{\"rustfi_flight\":{FLIGHT_VERSION},\"cap\":{},\"seq\":{},\"dropped\":{}",
            self.cap, state.seq, state.dropped
        );
        if let Some(id) = &self.identity {
            let _ = write!(
                out,
                ",\"shard\":{},\"shards\":{},\"attempt\":{},\"anchor_ns\":{},\"anchor_unix_ms\":{}",
                id.shard, id.shards, id.attempt, id.anchor_ns, id.anchor_unix_ms
            );
        }
        let _ = write!(out, ",\"counters\":{{");
        for (i, (name, value)) in state.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            crate::event::escape_json_into(name, &mut out);
            let _ = write!(out, "\":{value}");
        }
        out.push_str("}}\n");
        for entry in &state.ring {
            let _ = writeln!(
                out,
                "{{\"seq\":{},\"ns\":{},\"item\":{}}}",
                entry.seq, entry.ns, entry.payload
            );
        }
        out
    }

    /// Atomically writes the current ring to the attached path (temp file +
    /// rename, so a reader never sees a half-written postmortem and a crash
    /// mid-snapshot leaves the previous snapshot intact). No-op without a
    /// path. Errors are swallowed — the flight recorder must never take
    /// down the worker it is documenting.
    pub fn snapshot_to_disk(&self) {
        let Some(path) = &self.path else { return };
        let tmp = path.with_extension("flight.tmp");
        if std::fs::write(&tmp, self.render()).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }

    /// Chains a panic hook that snapshots this ring to disk before the
    /// previous hook runs, so a panicking worker's postmortem captures the
    /// exact final state. Holds only a `Weak`; once the recorder is dropped
    /// the hook is inert.
    pub fn arm_panic_flush(recorder: &Arc<FlightRecorder>) {
        let weak = Arc::downgrade(recorder);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(rec) = weak.upgrade() {
                rec.push_payload(format!("{{\"panic\":\"{}\"}}", escape(&info.to_string())));
                rec.snapshot_to_disk();
            }
            prev(info);
        }));
    }
}

fn escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    crate::event::escape_json_into(raw, &mut out);
    out
}

impl Recorder for FlightRecorder {
    fn layer_enter(&self) -> SpanToken {
        now_ns()
    }

    fn layer_exit(&self, ctx: &SpanCtx<'_>, token: SpanToken) {
        self.span(close_span(ctx, token));
    }

    fn span(&self, span: SpanRecord) {
        let mut payload = String::with_capacity(96);
        payload.push_str("{\"span\":{\"name\":\"");
        crate::event::escape_json_into(&span.name, &mut payload);
        payload.push_str("\",\"kind\":\"");
        crate::event::escape_json_into(span.kind, &mut payload);
        let _ = write!(
            payload,
            "\",\"layer\":{},\"start_ns\":{},\"dur_ns\":{},\"tid\":{}}}}}",
            span.layer
                .map(|l| l.to_string())
                .unwrap_or_else(|| "null".into()),
            span.start_ns,
            span.dur_ns,
            span.tid
        );
        self.push_payload(payload);
    }

    fn event(&self, event: Event) {
        self.push_payload(event.to_json());
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        *self.state.lock().counters.entry(name).or_insert(0) += delta;
    }

    fn observe_ns(&self, _name: &'static str, _ns: u64) {
        // Timing distributions live in the sidecar/stats path; the flight
        // ring documents *what happened last*, not how long things took.
    }

    fn flush(&self) {
        self.snapshot_to_disk();
    }
}

/// A parsed flight postmortem.
#[derive(Debug, Clone)]
pub struct FlightRead {
    /// Ring capacity at capture time.
    pub cap: usize,
    /// Total items the worker ever pushed.
    pub seq: u64,
    /// Items that scrolled off the ring before capture.
    pub dropped: u64,
    /// Shard identity, when the worker stamped one.
    pub shard: Option<usize>,
    /// Worker attempt, when stamped.
    pub attempt: Option<u32>,
    /// Running counter totals at capture time.
    pub counters: BTreeMap<String, u64>,
    /// Retained entries, oldest first: `(seq, ns, item)`.
    pub entries: Vec<(u64, u64, Value<'static>)>,
}

/// Reads a flight postmortem back. Tolerates a torn tail line (snapshots
/// are atomic via rename, but be lenient anyway); fails only if the file is
/// unreadable or the header is not a flight header.
pub fn read_flight(path: &Path) -> std::io::Result<FlightRead> {
    let bytes = std::fs::read(path)?;
    let mut lines = lines(&bytes).map(|(line, _)| line);
    let header = lines
        .next()
        .and_then(|l| parse_line(l).ok())
        .filter(|v| v.get("rustfi_flight").and_then(Value::as_u64) == Some(FLIGHT_VERSION))
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: not a flight postmortem", path.display()),
            )
        })?;
    let mut counters = BTreeMap::new();
    if let Some(Value::Obj(fields)) = header.get("counters") {
        for (k, v) in fields {
            if let Some(n) = v.as_u64() {
                counters.insert(k.to_string(), n);
            }
        }
    }
    let mut entries = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Ok(v) = parse_line(line) else {
            continue;
        };
        let (Some(seq), Some(ns), Some(item)) = (
            v.get("seq").and_then(Value::as_u64),
            v.get("ns").and_then(Value::as_u64),
            v.get("item"),
        ) else {
            continue;
        };
        entries.push((seq, ns, item.clone().into_owned()));
    }
    Ok(FlightRead {
        cap: header.get("cap").and_then(Value::as_u64).unwrap_or(0) as usize,
        seq: header.get("seq").and_then(Value::as_u64).unwrap_or(0),
        dropped: header.get("dropped").and_then(Value::as_u64).unwrap_or(0),
        shard: header
            .get("shard")
            .and_then(Value::as_u64)
            .map(|s| s as usize),
        attempt: header
            .get("attempt")
            .and_then(Value::as_u64)
            .map(|a| a as u32),
        counters,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{GuardEvent, TrialOutcomeEvent};

    fn outcome(trial: usize) -> Event {
        Event::TrialOutcome(TrialOutcomeEvent {
            trial,
            layer: 0,
            outcome: "masked",
            due_layer: None,
        })
    }

    #[test]
    fn ring_keeps_exactly_the_last_n() {
        let rec = FlightRecorder::new(4);
        for i in 0..10 {
            rec.event(outcome(i));
        }
        let entries = rec.entries();
        assert_eq!(entries.len(), 4);
        assert_eq!(
            entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(rec.total_seen(), 10);
    }

    #[test]
    fn counters_accumulate_outside_the_ring() {
        let rec = FlightRecorder::new(2);
        for _ in 0..50 {
            rec.counter_add("fi.injections", 1);
        }
        rec.event(outcome(0));
        let text = rec.render();
        assert!(text.contains("\"fi.injections\":50"), "{text}");
        assert_eq!(rec.entries().len(), 1, "counters do not occupy ring slots");
    }

    #[test]
    fn postmortem_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("rustfi_flight_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-0001-of-0003.flight");
        let identity = SidecarHeader {
            shard: 1,
            shards: 3,
            attempt: 2,
            anchor_ns: 5,
            anchor_unix_ms: 1_700_000_000_000,
        };
        let rec = FlightRecorder::new(8).with_path(&path, Some(identity));
        rec.counter_add("fi.injections", 3);
        rec.event(Event::Guard(GuardEvent::Deadline { steps: 11 }));
        rec.span(SpanRecord {
            name: "trial 9".into(),
            kind: "trial",
            layer: None,
            start_ns: 100,
            dur_ns: 50,
            tid: 1,
        });
        rec.flush();

        let read = read_flight(&path).unwrap();
        assert_eq!(read.cap, 8);
        assert_eq!(read.seq, 2);
        assert_eq!(read.shard, Some(1));
        assert_eq!(read.attempt, Some(2));
        assert_eq!(read.counters.get("fi.injections"), Some(&3));
        assert_eq!(read.entries.len(), 2);
        assert_eq!(
            read.entries[0].2.get("type").and_then(Value::as_str),
            Some("guard")
        );
        assert_eq!(
            read.entries[1]
                .2
                .get("span")
                .and_then(|s| s.get("name"))
                .and_then(Value::as_str),
            Some("trial 9")
        );
        // A re-flush overwrites atomically; no temp file lingers.
        rec.event(outcome(1));
        rec.flush();
        assert_eq!(read_flight(&path).unwrap().entries.len(), 3);
        assert!(!path.with_extension("flight.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_flight_file_is_refused() {
        let dir = std::env::temp_dir().join(format!("rustfi_flight_refuse_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.flight");
        std::fs::write(&path, "{\"rustfi_journal\":2}\n").unwrap();
        assert_eq!(
            read_flight(&path).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
