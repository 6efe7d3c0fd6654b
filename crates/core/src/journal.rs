//! Crash-safe campaign journals: append-only JSONL with resume support.
//!
//! A long campaign that dies (power loss, OOM kill, preemption) should not
//! have to rerun completed trials. [`JournalWriter`] appends one JSON object
//! per finished [`TrialRecord`] — written and flushed line-atomically, so a
//! kill can at worst lose the line being written — and [`read_journal`]
//! replays a journal, tolerating a truncated final line.
//!
//! Because every trial's randomness derives only from `(campaign seed, trial
//! index)`, a resumed campaign that runs just the missing trials produces
//! records bit-identical to an uninterrupted run.
//!
//! The format is deliberately dependency-free: a fixed header line
//! `{"rustfi_journal":2,"seed":S,"trials":N,"config":H,"shard":I,"shards":K}`
//! followed by flat record objects, read back by the JSON reader telemetry
//! sidecars share ([`rustfi_obs::json`]): linear in the file size, with
//! numbers kept as raw text (no `u64` → `f64` detour), so `f32` fields
//! round-trip exactly through Rust's shortest-representation `Display`.
//! The torn-tail rule works on bytes: each line is checked for UTF-8 on its
//! own, and a final line that lacks its newline or does not parse is
//! dropped whatever its bytes, even one cut inside a multi-byte character.
//!
//! The header binds the journal to its campaign three ways: the root seed
//! and trial count, a fingerprint of every record-affecting configuration
//! knob ([`JournalHeader::config_hash`]) so a resume can refuse a journal
//! written under a different guard mode / fault mode / quantization setting
//! instead of silently producing a mixed report, and — for distributed
//! campaigns ([`crate::shard`]) — which shard of how many this journal
//! belongs to.
//!
//! Journals may also contain `{"heartbeat":<unix_ms>}` lines, appended by
//! fleet workers so an orchestrator can tell a slow shard from a dead one.
//! Readers skip them; they carry no trial state.

use crate::campaign::TrialRecord;
use crate::error::FiError;
use crate::location::NeuronSite;
use crate::metrics::OutcomeKind;
use rustfi_obs::json::{self, Value};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::Path;

/// Journal format version this build writes and accepts.
///
/// Version 2 added the campaign-config fingerprint and the shard fields;
/// version-1 journals (which carried neither) are refused rather than
/// guessed at.
pub const JOURNAL_VERSION: u64 = 2;

/// Identity of the campaign (and, for distributed runs, the shard) a
/// journal belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// The campaign's root seed.
    pub seed: u64,
    /// The campaign's total trial count (the *whole* campaign's, not the
    /// shard's — shards share one trial space).
    pub trials: usize,
    /// Fingerprint of every record-affecting campaign knob
    /// ([`crate::shard::config_fingerprint`]). Resume refuses a journal
    /// whose fingerprint doesn't match the resuming campaign.
    pub config_hash: u64,
    /// Which shard this journal belongs to (`0` for single-process runs).
    pub shard_index: usize,
    /// Total shard count of the run that wrote this journal (`1` for
    /// single-process runs).
    pub shard_count: usize,
}

impl JournalHeader {
    /// Header for an unsharded (single-process) campaign.
    pub fn solo(seed: u64, trials: usize, config_hash: u64) -> Self {
        Self {
            seed,
            trials,
            config_hash,
            shard_index: 0,
            shard_count: 1,
        }
    }
}

/// Append-only journal writer. Each [`JournalWriter::append`] writes one
/// line and flushes it before returning.
pub struct JournalWriter {
    out: BufWriter<File>,
}

impl JournalWriter {
    /// Creates a fresh journal at `path` (truncating any existing file) and
    /// writes the header line.
    pub fn create(path: &Path, header: JournalHeader) -> Result<Self, FiError> {
        let file = File::create(path)
            .map_err(|e| FiError::io(format!("creating journal {}", path.display()), e))?;
        let mut writer = Self {
            out: BufWriter::new(file),
        };
        let line = format!(
            "{{\"rustfi_journal\":{JOURNAL_VERSION},\"seed\":{},\"trials\":{},\
             \"config\":{},\"shard\":{},\"shards\":{}}}",
            header.seed, header.trials, header.config_hash, header.shard_index, header.shard_count
        );
        writer.write_line(&line, path)?;
        Ok(writer)
    }

    /// Reopens an existing journal at `path` for appending.
    pub fn open_append(path: &Path) -> Result<Self, FiError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| FiError::io(format!("reopening journal {}", path.display()), e))?;
        Ok(Self {
            out: BufWriter::new(file),
        })
    }

    /// Appends one record and flushes it to the OS.
    pub fn append(&mut self, record: &TrialRecord, path: &Path) -> Result<(), FiError> {
        let line = record_to_json(record);
        self.write_line(&line, path)
    }

    fn write_line(&mut self, line: &str, path: &Path) -> Result<(), FiError> {
        let ctx = || format!("appending to journal {}", path.display());
        self.out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
            .and_then(|()| self.out.flush())
            .map_err(|e| FiError::io(ctx(), e))
    }
}

/// Appends one `{"heartbeat":<unix_ms>}` line to an existing journal, so an
/// orchestrator watching the file can tell a slow shard from a dead one.
///
/// Opens the file `O_APPEND` per call — line writes this small are atomic on
/// every platform we target, so a heartbeat thread can share the file with
/// the campaign's own [`JournalWriter`] without interleaving. Returns
/// `Ok(false)` (not an error) when the journal doesn't exist yet: the
/// campaign creates it, and a heartbeat must never create a file that
/// [`crate::campaign::Campaign::run_journaled`] would then try to resume.
pub fn append_heartbeat(path: &Path) -> Result<bool, FiError> {
    let file = match OpenOptions::new().append(true).open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => {
            return Err(FiError::io(
                format!("opening journal {} for heartbeat", path.display()),
                e,
            ))
        }
    };
    let ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let mut out = BufWriter::new(file);
    out.write_all(format!("{{\"heartbeat\":{ms}}}\n").as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| {
            FiError::io(
                format!("appending heartbeat to journal {}", path.display()),
                e,
            )
        })?;
    Ok(true)
}

/// Reads a journal: header plus every complete, valid record line.
///
/// A torn *final* line — truncated mid-write, or missing its newline: the
/// signatures of a kill — is ignored; corruption anywhere earlier is an
/// error, as is a header that doesn't parse.
pub fn read_journal(path: &Path) -> Result<(JournalHeader, Vec<TrialRecord>), FiError> {
    let (header, records, _) = read_journal_inner(path)?;
    Ok((header, records))
}

/// Like [`read_journal`], but also truncates a torn trailing line off the
/// file, so that it is safe to append to. Campaign resume uses this; the
/// trial the torn line belonged to simply reruns (deterministically, so the
/// rewritten record is identical).
pub fn read_journal_repairing(path: &Path) -> Result<(JournalHeader, Vec<TrialRecord>), FiError> {
    let (header, records, valid_len) = read_journal_inner(path)?;
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| FiError::io(format!("repairing journal {}", path.display()), e))?;
    let actual = file
        .metadata()
        .map_err(|e| FiError::io(format!("repairing journal {}", path.display()), e))?
        .len();
    if actual > valid_len {
        file.set_len(valid_len).map_err(|e| {
            FiError::io(
                format!("truncating torn journal tail in {}", path.display()),
                e,
            )
        })?;
    }
    Ok((header, records))
}

/// Shared reader: returns the header, the valid records, and the byte length
/// of the valid prefix (everything up to and including the last good line).
fn read_journal_inner(path: &Path) -> Result<(JournalHeader, Vec<TrialRecord>, u64), FiError> {
    let bytes = std::fs::read(path)
        .map_err(|e| FiError::io(format!("reading journal {}", path.display()), e))?;
    let lines: Vec<(&[u8], bool)> = json::lines(&bytes).collect();

    let &(header_line, header_complete) = lines.first().ok_or(FiError::Journal {
        line: 1,
        detail: String::from("empty journal (missing header)"),
    })?;
    if !header_complete {
        return Err(FiError::Journal {
            line: 1,
            detail: String::from("header line was interrupted mid-write"),
        });
    }
    let header = parse_header(header_line)?;
    let mut valid_len = header_line.len() as u64 + 1;

    let mut records = Vec::new();
    for (i, &(line, complete)) in lines.iter().enumerate().skip(1) {
        let is_last = i + 1 == lines.len();
        // A line without its newline was interrupted mid-write; only the
        // final line may be in that state, and it doesn't count as written
        // even if the JSON happens to parse. Nor does a final line that
        // does not parse, whatever its bytes.
        match parse_journal_line(line) {
            Ok(JournalLine::Record(r)) if complete => {
                records.push(r);
                valid_len += line.len() as u64 + 1;
            }
            // Heartbeats carry no trial state; they only extend the valid
            // prefix so a repair doesn't truncate good record lines after
            // them (there are none — heartbeats are appended, not
            // interleaved — but the reader shouldn't depend on that).
            Ok(JournalLine::Heartbeat) if complete => {
                valid_len += line.len() as u64 + 1;
            }
            Ok(_) | Err(_) if is_last => break,
            Ok(_) => unreachable!("only the final segment can lack a newline"),
            Err(detail) => {
                return Err(FiError::Journal {
                    line: i + 1,
                    detail,
                })
            }
        }
    }
    Ok((header, records, valid_len))
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

fn record_to_json(r: &TrialRecord) -> String {
    let mut s = String::with_capacity(128);
    let _ = write!(
        s,
        "{{\"trial\":{},\"image_index\":{},\"layer\":{},\"site\":",
        r.trial, r.image_index, r.layer
    );
    match &r.site {
        Some(site) => {
            let _ = write!(s, "{{\"layer\":{},\"batch\":", site.layer);
            match site.batch {
                Some(b) => {
                    let _ = write!(s, "{b}");
                }
                None => s.push_str("null"),
            }
            let _ = write!(
                s,
                ",\"channel\":{},\"y\":{},\"x\":{}}}",
                site.channel, site.y, site.x
            );
        }
        None => s.push_str("null"),
    }
    let _ = write!(s, ",\"outcome\":\"{}\"", r.outcome.label());
    if let OutcomeKind::Crash { detail } = &r.outcome {
        s.push_str(",\"detail\":\"");
        escape_json_into(detail, &mut s);
        s.push('"');
    }
    s.push_str(",\"due_layer\":");
    match r.due_layer {
        Some(l) => {
            let _ = write!(s, "{l}");
        }
        None => s.push_str("null"),
    }
    // `{}` on a finite f32 is the shortest string that parses back to the
    // same bits, so confidence deltas survive the round trip exactly.
    let delta = if r.confidence_delta.is_finite() {
        r.confidence_delta
    } else {
        0.0
    };
    let _ = write!(
        s,
        ",\"top5_miss\":{},\"confidence_delta\":{delta}}}",
        r.top5_miss
    );
    s
}

fn escape_json_into(raw: &str, out: &mut String) {
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing — through the shared reader; numbers parse from their raw text.
// ---------------------------------------------------------------------------

fn num_as<T: std::str::FromStr>(v: &Value<'_>, what: &str) -> Result<T, String> {
    let raw = v
        .as_num()
        .ok_or_else(|| format!("{what} is not a number: {v:?}"))?;
    raw.parse().map_err(|_| format!("bad {what}: {raw:?}"))
}

fn field<'v, 'a>(obj: &'v Value<'a>, key: &str) -> Result<&'v Value<'a>, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn parse_header(line: &[u8]) -> Result<JournalHeader, FiError> {
    let as_err = |detail: String| FiError::Journal { line: 1, detail };
    let obj = json::parse_line(line).map_err(as_err)?;
    let version: u64 =
        num_as(field(&obj, "rustfi_journal").map_err(as_err)?, "version").map_err(as_err)?;
    if version != JOURNAL_VERSION {
        return Err(as_err(format!(
            "journal version {version} (this build reads {JOURNAL_VERSION})"
        )));
    }
    let seed = num_as(field(&obj, "seed").map_err(as_err)?, "seed").map_err(as_err)?;
    let trials = num_as(field(&obj, "trials").map_err(as_err)?, "trials").map_err(as_err)?;
    let config_hash = num_as(field(&obj, "config").map_err(as_err)?, "config").map_err(as_err)?;
    let shard_index = num_as(field(&obj, "shard").map_err(as_err)?, "shard").map_err(as_err)?;
    let shard_count = num_as(field(&obj, "shards").map_err(as_err)?, "shards").map_err(as_err)?;
    if shard_count == 0 || shard_index >= shard_count {
        return Err(as_err(format!(
            "shard {shard_index} of {shard_count} is not a valid shard identity"
        )));
    }
    Ok(JournalHeader {
        seed,
        trials,
        config_hash,
        shard_index,
        shard_count,
    })
}

/// One parsed journal body line: a trial record, or a liveness heartbeat.
enum JournalLine {
    Record(TrialRecord),
    Heartbeat,
}

fn parse_journal_line(line: &[u8]) -> Result<JournalLine, String> {
    let obj = json::parse_line(line)?;
    if obj.get("heartbeat").is_some() {
        return Ok(JournalLine::Heartbeat);
    }
    record_from_json(&obj).map(JournalLine::Record)
}

#[cfg(test)]
fn parse_record(line: &str) -> Result<TrialRecord, String> {
    record_from_json(&json::parse_json(line)?)
}

fn record_from_json(obj: &Value<'_>) -> Result<TrialRecord, String> {
    let trial = num_as(field(obj, "trial")?, "trial")?;
    let image_index = num_as(field(obj, "image_index")?, "image_index")?;
    let layer = num_as(field(obj, "layer")?, "layer")?;
    let site = match field(obj, "site")? {
        Value::Null => None,
        site @ Value::Obj(_) => Some(NeuronSite {
            layer: num_as(field(site, "layer")?, "site.layer")?,
            batch: match field(site, "batch")? {
                Value::Null => None,
                b => Some(num_as(b, "site.batch")?),
            },
            channel: num_as(field(site, "channel")?, "site.channel")?,
            y: num_as(field(site, "y")?, "site.y")?,
            x: num_as(field(site, "x")?, "site.x")?,
        }),
        other => return Err(format!("site is neither object nor null: {other:?}")),
    };
    let outcome = match field(obj, "outcome")? {
        Value::Str(label) => match label.as_ref() {
            "masked" => OutcomeKind::Masked,
            "sdc" => OutcomeKind::Sdc,
            "due" => OutcomeKind::Due,
            "hang" => OutcomeKind::Hang,
            "crash" => OutcomeKind::Crash {
                detail: obj
                    .get("detail")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
            },
            other => return Err(format!("unknown outcome label {other:?}")),
        },
        other => return Err(format!("outcome is not a string: {other:?}")),
    };
    let due_layer = match field(obj, "due_layer")? {
        Value::Null => None,
        v => Some(num_as(v, "due_layer")?),
    };
    let top5_miss = match field(obj, "top5_miss")? {
        Value::Bool(b) => *b,
        other => return Err(format!("top5_miss is not a bool: {other:?}")),
    };
    let confidence_delta = num_as(field(obj, "confidence_delta")?, "confidence_delta")?;
    Ok(TrialRecord {
        trial,
        image_index,
        layer,
        site,
        outcome,
        due_layer,
        top5_miss,
        confidence_delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TrialRecord> {
        vec![
            TrialRecord {
                trial: 0,
                image_index: 3,
                layer: 1,
                site: Some(NeuronSite {
                    layer: 1,
                    batch: None,
                    channel: 2,
                    y: 4,
                    x: 5,
                }),
                outcome: OutcomeKind::Masked,
                due_layer: None,
                top5_miss: false,
                confidence_delta: -0.012345678,
            },
            TrialRecord {
                trial: 1,
                image_index: 0,
                layer: 2,
                site: Some(NeuronSite {
                    layer: 2,
                    batch: Some(7),
                    channel: 0,
                    y: 0,
                    x: 1,
                }),
                outcome: OutcomeKind::Due,
                due_layer: Some(9),
                top5_miss: true,
                confidence_delta: -0.75,
            },
            TrialRecord {
                trial: 2,
                image_index: 5,
                layer: usize::MAX,
                site: None,
                outcome: OutcomeKind::Crash {
                    detail: "index 99 out of bounds: \"quoted\"\nsecond line \\ tab\t".into(),
                },
                due_layer: None,
                top5_miss: true,
                confidence_delta: 0.0,
            },
            TrialRecord {
                trial: 3,
                image_index: 2,
                layer: 0,
                site: None,
                outcome: OutcomeKind::Hang,
                due_layer: None,
                top5_miss: true,
                confidence_delta: 0.0,
            },
        ]
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rustfi-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn records_roundtrip_bit_exactly() {
        let path = tmp("roundtrip.jsonl");
        let header = JournalHeader {
            seed: u64::MAX - 3,
            trials: 4,
            config_hash: u64::MAX - 7,
            shard_index: 2,
            shard_count: 5,
        };
        let mut w = JournalWriter::create(&path, header).unwrap();
        for r in &sample_records() {
            w.append(r, &path).unwrap();
        }
        drop(w);
        let (h, rs) = read_journal(&path).unwrap();
        assert_eq!(h, header, "u64 seed survives without f64 precision loss");
        assert_eq!(rs, sample_records());
    }

    #[test]
    fn append_after_reopen_continues_the_file() {
        let path = tmp("reopen.jsonl");
        let header = JournalHeader::solo(1, 4, 99);
        let records = sample_records();
        let mut w = JournalWriter::create(&path, header).unwrap();
        w.append(&records[0], &path).unwrap();
        drop(w);
        let mut w = JournalWriter::open_append(&path).unwrap();
        w.append(&records[1], &path).unwrap();
        drop(w);
        let (_, rs) = read_journal(&path).unwrap();
        assert_eq!(rs, records[..2]);
    }

    #[test]
    fn torn_final_line_is_ignored() {
        let path = tmp("torn.jsonl");
        let mut w = JournalWriter::create(&path, JournalHeader::solo(2, 4, 0)).unwrap();
        w.append(&sample_records()[0], &path).unwrap();
        drop(w);
        // Simulate a kill mid-write: half a record at the end.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"trial\":1,\"image_index\":0,\"lay");
        std::fs::write(&path, text).unwrap();
        let (_, rs) = read_journal(&path).unwrap();
        assert_eq!(rs.len(), 1, "torn line dropped, valid prefix kept");
    }

    #[test]
    fn repairing_truncates_the_torn_tail_for_safe_appends() {
        let path = tmp("repair.jsonl");
        let records = sample_records();
        let mut w = JournalWriter::create(&path, JournalHeader::solo(3, 4, 0)).unwrap();
        w.append(&records[0], &path).unwrap();
        drop(w);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"trial\":1,\"ima");
        std::fs::write(&path, &text).unwrap();

        let (_, rs) = read_journal_repairing(&path).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len,
            "torn tail removed"
        );
        // The file is now safe to append to: no line merging.
        let mut w = JournalWriter::open_append(&path).unwrap();
        w.append(&records[1], &path).unwrap();
        drop(w);
        let (_, rs) = read_journal(&path).unwrap();
        assert_eq!(rs, records[..2]);
    }

    #[test]
    fn corruption_before_the_end_is_an_error() {
        let path = tmp("corrupt.jsonl");
        let records = sample_records();
        let mut w = JournalWriter::create(&path, JournalHeader::solo(2, 4, 0)).unwrap();
        w.append(&records[0], &path).unwrap();
        drop(w);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("not json at all\n");
        text.push_str(&record_to_json(&records[1]));
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(
            matches!(err, FiError::Journal { line: 3, .. }),
            "corruption at line 3 reported: {err}"
        );
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_journal(Path::new("/nonexistent/rustfi.jsonl")).unwrap_err();
        assert!(matches!(err, FiError::Io { .. }), "{err}");
    }

    #[test]
    fn bad_header_is_rejected() {
        let path = tmp("bad-header.jsonl");
        std::fs::write(&path, "{\"seed\":1}\n").unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(matches!(err, FiError::Journal { line: 1, .. }), "{err}");

        std::fs::write(&path, "{\"rustfi_journal\":99,\"seed\":1,\"trials\":2}\n").unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");

        // A v1 journal (no config fingerprint, no shard identity) is
        // refused by the version gate, never half-interpreted.
        std::fs::write(&path, "{\"rustfi_journal\":1,\"seed\":1,\"trials\":2}\n").unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(err.to_string().contains("version 1"), "{err}");

        // A self-contradictory shard identity is rejected.
        std::fs::write(
            &path,
            "{\"rustfi_journal\":2,\"seed\":1,\"trials\":2,\"config\":0,\"shard\":3,\"shards\":2}\n",
        )
        .unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(err.to_string().contains("shard 3 of 2"), "{err}");
    }

    #[test]
    fn heartbeats_are_skipped_and_survive_repair() {
        let path = tmp("heartbeat.jsonl");
        let _ = std::fs::remove_file(&path);
        let records = sample_records();
        assert!(
            !append_heartbeat(&path).unwrap(),
            "no file yet: heartbeat declines to create one"
        );
        assert!(!path.exists());

        let mut w = JournalWriter::create(&path, JournalHeader::solo(4, 4, 7)).unwrap();
        w.append(&records[0], &path).unwrap();
        assert!(append_heartbeat(&path).unwrap());
        w.append(&records[1], &path).unwrap();
        assert!(append_heartbeat(&path).unwrap());
        drop(w);

        let (h, rs) = read_journal(&path).unwrap();
        assert_eq!(h.config_hash, 7);
        assert_eq!(rs, records[..2], "heartbeats carry no trial state");

        // A torn *heartbeat* tail repairs exactly like a torn record tail.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let clean_len = text.len() as u64;
        text.push_str("{\"heartbe");
        std::fs::write(&path, &text).unwrap();
        let (_, rs) = read_journal_repairing(&path).unwrap();
        assert_eq!(rs, records[..2]);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
    }

    #[test]
    fn a_tail_torn_inside_a_multibyte_character_is_dropped() {
        let path = tmp("torn-utf8.jsonl");
        let records = sample_records();
        let mut w = JournalWriter::create(&path, JournalHeader::solo(5, 4, 0)).unwrap();
        w.append(&records[0], &path).unwrap();
        drop(w);
        let clean = std::fs::read(&path).unwrap();
        let crash = TrialRecord {
            trial: 1,
            image_index: 0,
            layer: 2,
            site: None,
            outcome: OutcomeKind::Crash {
                detail: String::from("shape 3×4 ≠ 4×3 (é)"),
            },
            due_layer: None,
            top5_miss: true,
            confidence_delta: 0.0,
        };
        let line = format!("{}\n", record_to_json(&crash));
        // Every cut short of the newline tears the record, some of them
        // inside `×`, `≠` or `é`: both readers keep the valid prefix, and
        // the repairing one truncates back to it.
        for cut in 0..line.len() {
            let mut torn = clean.clone();
            torn.extend_from_slice(&line.as_bytes()[..cut]);
            std::fs::write(&path, &torn).unwrap();
            let (_, rs) = read_journal(&path).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert_eq!(rs, records[..1], "cut {cut}");
            let (_, rs) =
                read_journal_repairing(&path).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert_eq!(rs, records[..1], "cut {cut}");
            assert_eq!(std::fs::read(&path).unwrap(), clean, "cut {cut}");
        }
        let mut whole = clean;
        whole.extend_from_slice(line.as_bytes());
        std::fs::write(&path, &whole).unwrap();
        let (_, rs) = read_journal(&path).unwrap();
        assert_eq!(rs, [records[0].clone(), crash]);
    }

    #[test]
    fn reading_is_linear_in_the_record_length() {
        // The reader scans each string once: a 1 MiB crash detail full of
        // escapes and multi-byte characters reads back in well under a
        // second (a per-character rescan of the line would take minutes).
        let path = tmp("long-detail.jsonl");
        let detail = "ab\"c\\d\n×é wxyz".repeat(1 << 16);
        assert_eq!(detail.len(), 1 << 20);
        let record = TrialRecord {
            trial: 0,
            image_index: 0,
            layer: 0,
            site: None,
            outcome: OutcomeKind::Crash { detail },
            due_layer: None,
            top5_miss: true,
            confidence_delta: 0.0,
        };
        let mut w = JournalWriter::create(&path, JournalHeader::solo(6, 1, 0)).unwrap();
        w.append(&record, &path).unwrap();
        drop(w);
        let start = std::time::Instant::now();
        let (_, rs) = read_journal(&path).unwrap();
        let took = start.elapsed();
        assert_eq!(rs, [record]);
        assert!(
            took < std::time::Duration::from_secs(1),
            "1 MiB detail took {took:?}"
        );
    }

    #[test]
    fn f32_extremes_roundtrip() {
        for delta in [
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-38,
            0.1 + 0.2,
            -0.999_999_94,
            f32::MAX,
        ] {
            let r = TrialRecord {
                trial: 0,
                image_index: 0,
                layer: 0,
                site: None,
                outcome: OutcomeKind::Sdc,
                due_layer: None,
                top5_miss: false,
                confidence_delta: delta,
            };
            let parsed = parse_record(&record_to_json(&r)).unwrap();
            assert_eq!(parsed.confidence_delta.to_bits(), delta.to_bits());
        }
    }
}
