//! Telemetry sidecars: crash-safe JSONL streams of one shard worker's
//! observability data, written next to its campaign journal.
//!
//! A fleet worker's spans, events, counters, and timings die with its
//! process unless they hit disk continuously — a SIGKILLed shard gets no
//! chance to export. The [`SidecarRecorder`] therefore follows the campaign
//! journal's discipline exactly: a header line first, then one JSON object
//! per line, each write flushed whole, so a crash tears at most the final
//! line and [`read_sidecar`] recovers the valid prefix. Every worker attempt
//! writes its own sidecar ([`sidecar_path`]), so a killed attempt's final
//! moments are the tail of its own file: a restart never overwrites them.
//!
//! The header carries a **monotonic clock anchor**: the recorder's
//! process-local [`now_ns`] reading at header-write time paired with the
//! wall clock (`anchor_unix_ms`). Span timestamps in the body are raw
//! process-local nanoseconds; the merge pass
//! ([`merge_shard_telemetry`](crate::merge::merge_shard_telemetry)) uses the
//! anchor pair to place every shard — and every restart of every shard —
//! on one fleet timeline.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

use crate::clock::now_ns;
use crate::event::Event;
use crate::json::{escape_into, lines, parse_line, Value};
use crate::names::intern;
use crate::recorder::{close_span, ObsBatch, Recorder, SpanCtx, SpanRecord, SpanToken};

/// Sidecar schema version (the `rustfi_telemetry` header field).
pub const SIDECAR_VERSION: u64 = 1;

/// Identity + clock anchor from a sidecar's header line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SidecarHeader {
    /// Shard index within the fleet.
    pub shard: usize,
    /// Fleet shard count.
    pub shards: usize,
    /// Worker attempt (0 = first launch; restarts increment).
    pub attempt: u32,
    /// The writing process's [`now_ns`] at header-write time.
    pub anchor_ns: u64,
    /// Wall clock at header-write time, milliseconds since the Unix epoch.
    pub anchor_unix_ms: u64,
}

impl SidecarHeader {
    fn to_json_line(self) -> String {
        format!(
            "{{\"rustfi_telemetry\":{SIDECAR_VERSION},\"shard\":{},\"shards\":{},\
             \"attempt\":{},\"anchor_ns\":{},\"anchor_unix_ms\":{}}}\n",
            self.shard, self.shards, self.attempt, self.anchor_ns, self.anchor_unix_ms
        )
    }

    fn from_value(v: &Value<'_>) -> Result<Self, String> {
        let version = v
            .get("rustfi_telemetry")
            .and_then(Value::as_u64)
            .ok_or("not a telemetry sidecar header")?;
        if version != SIDECAR_VERSION {
            return Err(format!("unsupported sidecar version {version}"));
        }
        let field = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("header missing \"{key}\""))
        };
        Ok(SidecarHeader {
            shard: field("shard")? as usize,
            shards: field("shards")? as usize,
            attempt: field("attempt")? as u32,
            anchor_ns: field("anchor_ns")?,
            anchor_unix_ms: field("anchor_unix_ms")?,
        })
    }
}

/// The sidecar path for a given journal path and worker attempt:
/// `shard-0000-of-0003.jsonl` → `shard-0000-of-0003.attempt-0002.telemetry.jsonl`.
///
/// Keying by attempt gives every restart its own file, which is what lets
/// the merge render restarts as separate sub-lanes (and keeps a restarted
/// worker from appending into its predecessor's possibly-torn stream).
pub fn sidecar_path(journal: &Path, attempt: u32) -> PathBuf {
    let stem = journal
        .file_name()
        .and_then(|n| n.to_str())
        .map(|n| n.strip_suffix(".jsonl").unwrap_or(n))
        .unwrap_or("journal");
    journal.with_file_name(format!("{stem}.attempt-{attempt:04}.telemetry.jsonl"))
}

/// Streaming [`Recorder`] that writes every span/event/counter/timing to a
/// crash-safe JSONL sidecar file.
///
/// Writes are batched per [`Recorder::merge`] call (one `write_all` + flush
/// for a whole trial's batch) and per-line for the single-item methods, so
/// the file always ends on a line boundary except possibly the final line
/// after a crash mid-write. After the first I/O error the recorder goes
/// quiet (telemetry must never take down a worker); [`SidecarRecorder::ok`]
/// reports whether everything made it out.
pub struct SidecarRecorder {
    header: SidecarHeader,
    path: PathBuf,
    out: Mutex<BufWriter<File>>,
    poisoned: AtomicBool,
}

impl SidecarRecorder {
    /// Creates (truncating) the sidecar at `path`, writing and flushing the
    /// header line immediately so even an instantly-killed worker leaves a
    /// well-formed (if empty) stream.
    pub fn create(path: &Path, shard: usize, shards: usize, attempt: u32) -> std::io::Result<Self> {
        let header = SidecarHeader {
            shard,
            shards,
            attempt,
            anchor_ns: now_ns(),
            anchor_unix_ms: unix_ms(),
        };
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(header.to_json_line().as_bytes())?;
        out.flush()?;
        Ok(SidecarRecorder {
            header,
            path: path.to_path_buf(),
            out: Mutex::new(out),
            poisoned: AtomicBool::new(false),
        })
    }

    /// Convenience: the sidecar next to `journal` for `attempt`.
    pub fn create_for_journal(
        journal: &Path,
        shard: usize,
        shards: usize,
        attempt: u32,
    ) -> std::io::Result<Self> {
        Self::create(&sidecar_path(journal, attempt), shard, shards, attempt)
    }

    /// The header written at creation.
    pub fn header(&self) -> SidecarHeader {
        self.header
    }

    /// Where this sidecar writes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether every write so far succeeded.
    pub fn ok(&self) -> bool {
        !self.poisoned.load(Ordering::Relaxed)
    }

    fn write_chunk(&self, chunk: &str) {
        if chunk.is_empty() || self.poisoned.load(Ordering::Relaxed) {
            return;
        }
        let mut out = self.out.lock();
        if out
            .write_all(chunk.as_bytes())
            .and_then(|()| out.flush())
            .is_err()
        {
            self.poisoned.store(true, Ordering::Relaxed);
        }
    }
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Appends `span` as one `{"span":{…}}` object (no newline).
fn encode_span_into(out: &mut String, span: &SpanRecord) {
    out.push_str("{\"span\":{\"name\":\"");
    escape_into(&span.name, out);
    out.push_str("\",\"kind\":\"");
    escape_into(span.kind, out);
    out.push_str("\",\"layer\":");
    match span.layer {
        Some(l) => {
            let _ = write!(out, "{l}");
        }
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"start_ns\":{},\"dur_ns\":{},\"tid\":{}}}}}",
        span.start_ns, span.dur_ns, span.tid
    );
}

fn encode_counter_into(out: &mut String, name: &str, delta: u64) {
    out.push_str("{\"counter\":\"");
    escape_into(name, out);
    let _ = writeln!(out, "\",\"delta\":{delta}}}");
}

fn encode_timing_into(out: &mut String, name: &str, ns: u64) {
    out.push_str("{\"timing\":\"");
    escape_into(name, out);
    let _ = writeln!(out, "\",\"ns\":{ns}}}");
}

fn encode_event_into(out: &mut String, event: &Event) {
    out.push_str("{\"event\":");
    out.push_str(&event.to_json());
    out.push_str("}\n");
}

impl Recorder for SidecarRecorder {
    fn layer_enter(&self) -> SpanToken {
        now_ns()
    }

    fn layer_exit(&self, ctx: &SpanCtx<'_>, token: SpanToken) {
        self.span(close_span(ctx, token));
    }

    fn span(&self, span: SpanRecord) {
        let mut line = String::with_capacity(128);
        encode_span_into(&mut line, &span);
        line.push('\n');
        self.write_chunk(&line);
    }

    fn event(&self, event: Event) {
        let mut line = String::with_capacity(128);
        encode_event_into(&mut line, &event);
        self.write_chunk(&line);
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        let mut line = String::with_capacity(64);
        encode_counter_into(&mut line, name, delta);
        self.write_chunk(&line);
    }

    fn observe_ns(&self, name: &'static str, ns: u64) {
        let mut line = String::with_capacity(64);
        encode_timing_into(&mut line, name, ns);
        self.write_chunk(&line);
    }

    /// One `write_all` + one flush for the whole batch — the per-trial cost
    /// of streaming telemetry is a single syscall pair.
    fn merge(&self, batch: ObsBatch) {
        if batch.is_empty() {
            return;
        }
        let mut chunk = String::with_capacity(
            128 * (batch.spans.len() + batch.events.len())
                + 64 * (batch.counters.len() + batch.timings.len()),
        );
        for span in &batch.spans {
            encode_span_into(&mut chunk, span);
            chunk.push('\n');
        }
        for event in &batch.events {
            encode_event_into(&mut chunk, event);
        }
        for (name, delta) in &batch.counters {
            encode_counter_into(&mut chunk, name, *delta);
        }
        for (name, ns) in &batch.timings {
            encode_timing_into(&mut chunk, name, *ns);
        }
        self.write_chunk(&chunk);
    }

    fn flush(&self) {
        let mut out = self.out.lock();
        if out.flush().is_err() {
            self.poisoned.store(true, Ordering::Relaxed);
        }
    }
}

/// Everything recovered from one sidecar file.
#[derive(Debug, Clone)]
pub struct SidecarRead {
    /// The header line.
    pub header: SidecarHeader,
    /// All recovered items, in write order.
    pub batch: ObsBatch,
    /// Lines discarded as torn/unparseable (a crashed worker tears at most
    /// the final line; anything more indicates corruption worth surfacing).
    pub torn_lines: usize,
}

/// Reads a sidecar back, repairing a torn tail: the valid line prefix is
/// kept, unparseable lines — a line torn mid-write, or whose bytes are not
/// UTF-8 — are counted and dropped. Fails only when the file cannot be read
/// at all or its first line is not a valid telemetry header (wrong file /
/// stillborn write).
pub fn read_sidecar(path: &Path) -> std::io::Result<SidecarRead> {
    let bytes = std::fs::read(path)?;
    let mut lines = lines(&bytes).map(|(line, _)| line);
    let header = parse_line(lines.next().unwrap_or_default())
        .and_then(|v| SidecarHeader::from_value(&v))
        .map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: bad sidecar header: {e}", path.display()),
            )
        })?;
    let mut batch = ObsBatch::default();
    let mut torn_lines = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        match parse_line(line).ok().and_then(|v| decode_line(&v)) {
            Some(item) => match item {
                Line::Span(s) => batch.spans.push(s),
                Line::Event(e) => batch.events.push(e),
                Line::Counter(name, delta) => batch.counters.push((name, delta)),
                Line::Timing(name, ns) => batch.timings.push((name, ns)),
            },
            None => torn_lines += 1,
        }
    }
    Ok(SidecarRead {
        header,
        batch,
        torn_lines,
    })
}

enum Line {
    Span(SpanRecord),
    Event(Event),
    Counter(&'static str, u64),
    Timing(&'static str, u64),
}

fn decode_line(v: &Value<'_>) -> Option<Line> {
    if let Some(s) = v.get("span") {
        return Some(Line::Span(SpanRecord {
            name: s.get("name")?.as_str()?.to_string(),
            kind: intern(s.get("kind")?.as_str()?),
            layer: s.get("layer").and_then(Value::as_u64).map(|l| l as usize),
            start_ns: s.get("start_ns")?.as_u64()?,
            dur_ns: s.get("dur_ns")?.as_u64()?,
            tid: s.get("tid")?.as_u64()? as u32,
        }));
    }
    if let Some(e) = v.get("event") {
        return Event::from_json(e).ok().map(Line::Event);
    }
    if let Some(name) = v.get("counter").and_then(Value::as_str) {
        return Some(Line::Counter(
            intern(name),
            v.get("delta").and_then(Value::as_u64)?,
        ));
    }
    if let Some(name) = v.get("timing").and_then(Value::as_str) {
        return Some(Line::Timing(
            intern(name),
            v.get("ns").and_then(Value::as_u64)?,
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{GuardEvent, TrialOutcomeEvent};
    use std::fs::OpenOptions;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rustfi_sidecar_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_batch() -> ObsBatch {
        ObsBatch {
            spans: vec![SpanRecord {
                name: "conv\"1\"".into(),
                kind: "conv",
                layer: Some(3),
                start_ns: 1_000,
                dur_ns: 250,
                tid: 2,
            }],
            events: vec![
                Event::Guard(GuardEvent::Deadline { steps: 7 }),
                Event::TrialOutcome(TrialOutcomeEvent {
                    trial: 5,
                    layer: 3,
                    outcome: "sdc",
                    due_layer: None,
                }),
            ],
            counters: vec![("fi.injections", 2), ("custom.thing", 1)],
            timings: vec![("campaign.trial_ns", 123_456)],
        }
    }

    #[test]
    fn sidecar_round_trips_a_batch() {
        let dir = tmpdir("roundtrip");
        let journal = dir.join("shard-0000-of-0002.jsonl");
        let path = sidecar_path(&journal, 0);
        let rec = SidecarRecorder::create(&path, 0, 2, 0).unwrap();
        rec.merge(sample_batch());
        rec.counter_add("fi.injections", 1);
        rec.observe_ns("campaign.trial_ns", 999);
        rec.flush();
        assert!(rec.ok());
        drop(rec);

        let read = read_sidecar(&path).unwrap();
        assert_eq!(read.torn_lines, 0);
        assert_eq!(read.header.shard, 0);
        assert_eq!(read.header.shards, 2);
        assert_eq!(read.header.attempt, 0);
        assert_eq!(read.batch.spans.len(), 1);
        assert_eq!(read.batch.spans[0].name, "conv\"1\"");
        assert_eq!(read.batch.spans[0].kind, "conv");
        assert_eq!(read.batch.spans[0].layer, Some(3));
        assert_eq!(read.batch.events.len(), 2);
        assert_eq!(
            read.batch.counters,
            vec![
                ("fi.injections", 2),
                ("custom.thing", 1),
                ("fi.injections", 1)
            ]
        );
        assert_eq!(
            read.batch.timings,
            vec![("campaign.trial_ns", 123_456), ("campaign.trial_ns", 999)]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_span_with_escapes_reads_back_exactly() {
        let dir = tmpdir("span_encoding");
        let span = SpanRecord {
            name: "odd \"name\"\nsecond line".into(),
            kind: "conv",
            layer: None,
            start_ns: 42,
            dur_ns: 7,
            tid: 3,
        };
        let sidecar = dir.join("s.telemetry.jsonl");
        let rec = SidecarRecorder::create(&sidecar, 0, 1, 0).unwrap();
        rec.span(span.clone());
        drop(rec);
        assert_eq!(read_sidecar(&sidecar).unwrap().batch.spans, vec![span]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_repaired_not_fatal() {
        let dir = tmpdir("torn");
        let path = dir.join("s.telemetry.jsonl");
        let rec = SidecarRecorder::create(&path, 1, 3, 2).unwrap();
        rec.merge(sample_batch());
        drop(rec);
        // Simulate a crash mid-write: append half a line.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"counter\":\"fi.inj").unwrap();
        drop(f);

        let read = read_sidecar(&path).unwrap();
        assert_eq!(read.torn_lines, 1, "torn tail counted");
        assert_eq!(read.batch.spans.len(), 1, "valid prefix intact");
        assert_eq!(read.header.attempt, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_torn_inside_a_multibyte_character_is_repaired() {
        let dir = tmpdir("torn_utf8");
        let path = dir.join("s.telemetry.jsonl");
        let rec = SidecarRecorder::create(&path, 0, 1, 0).unwrap();
        rec.merge(sample_batch());
        drop(rec);
        // A kill one byte into the two-byte `é`.
        let torn = "{\"counter\":\"é".as_bytes();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&torn[..torn.len() - 1]).unwrap();
        drop(f);

        let read = read_sidecar(&path).unwrap();
        assert_eq!(read.torn_lines, 1, "torn tail counted");
        assert_eq!(read.batch.spans.len(), 1, "valid prefix intact");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_only_sidecar_reads_empty() {
        let dir = tmpdir("headeronly");
        let path = dir.join("s.telemetry.jsonl");
        SidecarRecorder::create(&path, 0, 1, 0).unwrap();
        let read = read_sidecar(&path).unwrap();
        assert!(read.batch.is_empty());
        assert_eq!(read.torn_lines, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_sidecar_file_is_refused() {
        let dir = tmpdir("refuse");
        let path = dir.join("not-telemetry.jsonl");
        std::fs::write(&path, "{\"rustfi_journal\":2}\n").unwrap();
        let err = read_sidecar(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paths_derive_from_the_journal_name() {
        let journal = Path::new("/tmp/fleet/shard-0002-of-0004.jsonl");
        assert_eq!(
            sidecar_path(journal, 3),
            Path::new("/tmp/fleet/shard-0002-of-0004.attempt-0003.telemetry.jsonl")
        );
    }
}
