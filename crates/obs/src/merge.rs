//! Fleet telemetry merge: reassembles any set of shard sidecars — torn,
//! partial, from restarted workers — into one clock-normalized view.
//!
//! Each sidecar's header anchors its process-local monotonic clock to the
//! wall clock (`anchor_ns` ↔ `anchor_unix_ms`). The merge picks the
//! earliest anchor as the fleet epoch and rebases every span:
//!
//! ```text
//! fleet_ns(span) = (anchor_unix_ms·10⁶ − fleet_epoch_ns) + (start_ns − anchor_ns)
//! ```
//!
//! so lanes line up to wall-clock accuracy (millisecond-ish skew — the
//! resolution of the anchor pair) while within-lane precision stays at full
//! nanoseconds.
//!
//! The merged Chrome trace gives every shard its own process lane
//! (`pid = shard + 1`) and every restart its own thread group within that
//! lane (`tid = attempt·1000 + worker tid`, named via `thread_name`
//! metadata), so a restarted shard reads as: lane 3, attempt 0 tracks go
//! quiet, attempt 1 tracks pick up where the orchestrator relaunched it.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::chrome::micros;
use crate::json::escape_into;
use crate::recorder::ObsBatch;
use crate::sidecar::{read_sidecar, SidecarHeader};
use crate::trace::ObsSnapshot;

/// One sidecar's recovered contents: a (shard, attempt) lane on the fleet
/// timeline.
#[derive(Debug, Clone)]
pub struct ShardLane {
    /// Header (shard identity + clock anchor).
    pub header: SidecarHeader,
    /// Everything recovered from the sidecar body.
    pub batch: ObsBatch,
    /// Torn/unparseable lines dropped during recovery.
    pub torn_lines: usize,
    /// Where this lane came from.
    pub path: PathBuf,
}

impl ShardLane {
    /// This lane's clock anchor as nanoseconds since the Unix epoch.
    fn anchor_unix_ns(&self) -> i128 {
        self.header.anchor_unix_ms as i128 * 1_000_000
    }

    /// Rebases a process-local timestamp onto the fleet timeline.
    fn fleet_ns(&self, local_ns: u64, fleet_epoch_unix_ns: i128) -> u64 {
        let offset = self.anchor_unix_ns() - fleet_epoch_unix_ns;
        let rebased = offset + (local_ns as i128 - self.header.anchor_ns as i128);
        rebased.clamp(0, u64::MAX as i128) as u64
    }
}

/// The merged telemetry of a fleet run.
#[derive(Debug, Clone, Default)]
pub struct MergedTelemetry {
    /// All recovered lanes, sorted by (shard, attempt).
    pub lanes: Vec<ShardLane>,
    /// Files that could not be read or were not sidecars, with the reason.
    pub skipped: Vec<(PathBuf, String)>,
}

/// Merges any set of sidecar files. Unreadable or non-sidecar files are
/// reported in [`MergedTelemetry::skipped`] rather than failing the merge —
/// a fleet that lost a disk on one shard still gets a trace for the rest.
pub fn merge_shard_telemetry<P: AsRef<Path>>(paths: &[P]) -> MergedTelemetry {
    let mut merged = MergedTelemetry::default();
    for path in paths {
        let path = path.as_ref();
        match read_sidecar(path) {
            Ok(read) => merged.lanes.push(ShardLane {
                header: read.header,
                batch: read.batch,
                torn_lines: read.torn_lines,
                path: path.to_path_buf(),
            }),
            Err(e) => merged.skipped.push((path.to_path_buf(), e.to_string())),
        }
    }
    merged
        .lanes
        .sort_by_key(|l| (l.header.shard, l.header.attempt, l.path.clone()));
    merged
}

impl MergedTelemetry {
    /// Scans `dir` for `*.telemetry.jsonl` files and merges them (the
    /// orchestrator's harvest path). Deterministic: directory entries are
    /// sorted before reading.
    pub fn from_dir(dir: &Path) -> std::io::Result<MergedTelemetry> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".telemetry.jsonl"))
            })
            .collect();
        paths.sort();
        Ok(merge_shard_telemetry(&paths))
    }

    /// The earliest lane anchor, used as the fleet timeline's zero point.
    fn fleet_epoch_unix_ns(&self) -> i128 {
        self.lanes
            .iter()
            .map(|l| l.anchor_unix_ns() - l.header.anchor_ns as i128)
            .min()
            .unwrap_or(0)
    }

    /// Distinct shard indices present.
    pub fn shards_present(&self) -> BTreeSet<usize> {
        self.lanes.iter().map(|l| l.header.shard).collect()
    }

    /// Lanes for a given shard, sorted by attempt.
    pub fn attempts_for(&self, shard: usize) -> Vec<u32> {
        self.lanes
            .iter()
            .filter(|l| l.header.shard == shard)
            .map(|l| l.header.attempt)
            .collect()
    }

    /// One aggregated snapshot across every lane: counters summed, timing
    /// histograms folded, spans rebased onto the fleet timeline, events
    /// concatenated in lane order. The fleet's latency summary reads its
    /// timings.
    pub fn aggregated_snapshot(&self) -> ObsSnapshot {
        let epoch = self.fleet_epoch_unix_ns();
        let mut snap = ObsSnapshot::default();
        for lane in &self.lanes {
            for span in &lane.batch.spans {
                let mut span = span.clone();
                span.start_ns = lane.fleet_ns(span.start_ns, epoch);
                snap.spans.push(span);
            }
            snap.events.extend(lane.batch.events.iter().cloned());
            snap.add_totals(&lane.batch);
        }
        snap
    }

    /// One lane's counter totals and timing histograms, for labeled
    /// Prometheus export (which renders nothing else).
    fn lane_snapshot(lane: &ShardLane) -> ObsSnapshot {
        let mut snap = ObsSnapshot::default();
        snap.add_totals(&lane.batch);
        snap
    }

    /// Aggregated Prometheus exposition text: one `shard`/`attempt`-labeled
    /// sample per lane under a single family header.
    pub fn prometheus(&self) -> String {
        let snaps: Vec<ObsSnapshot> = self.lanes.iter().map(Self::lane_snapshot).collect();
        let labels: Vec<(String, String)> = self
            .lanes
            .iter()
            .map(|l| (l.header.shard.to_string(), l.header.attempt.to_string()))
            .collect();
        let labeled: Vec<(&ObsSnapshot, Vec<(&str, &str)>)> = snaps
            .iter()
            .zip(&labels)
            .map(|(s, (shard, attempt))| {
                (
                    s,
                    vec![("shard", shard.as_str()), ("attempt", attempt.as_str())],
                )
            })
            .collect();
        let borrowed: Vec<(&ObsSnapshot, &[(&str, &str)])> =
            labeled.iter().map(|(s, l)| (*s, l.as_slice())).collect();
        crate::prom::prometheus_text_labeled(&borrowed)
    }

    /// The merged fleet Chrome trace: one process lane per shard, one
    /// thread group per (attempt, worker thread) within it, all spans
    /// rebased onto the fleet timeline. Loadable in Perfetto /
    /// `chrome://tracing`. The same bytes
    /// [`write_chrome_trace`](Self::write_chrome_trace) streams to a file.
    pub fn chrome_trace(&self) -> String {
        let total: usize = self.lanes.iter().map(|l| l.batch.spans.len() + 2).sum();
        let mut out = Vec::with_capacity(64 + 160 * total);
        self.render_chrome_trace(&mut out)
            .expect("writing into a Vec cannot fail");
        String::from_utf8(out).expect("the trace is rendered from strings")
    }

    /// Streams [`MergedTelemetry::chrome_trace`] to `path` through a
    /// buffered writer, so the rendered trace is never held in memory.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        self.render_chrome_trace(&mut out)?;
        out.flush()
    }

    /// Renders the trace into `out`, event by event.
    fn render_chrome_trace(&self, out: &mut impl Write) -> std::io::Result<()> {
        let epoch = self.fleet_epoch_unix_ns();
        out.write_all(b"{\"traceEvents\":[")?;
        let mut first = true;
        // Metadata: name every shard lane and every attempt sub-lane.
        for shard in self.shards_present() {
            sep(out, &mut first)?;
            write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"shard {shard}\"}}}}",
                shard + 1
            )?;
            sep(out, &mut first)?;
            write!(
                out,
                "{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"sort_index\":{shard}}}}}",
                shard + 1
            )?;
        }
        for lane in &self.lanes {
            let pid = lane.header.shard + 1;
            let tids: BTreeSet<u32> = lane.batch.spans.iter().map(|s| s.tid).collect();
            for tid in tids {
                let fleet_tid = fleet_tid(lane.header.attempt, tid);
                sep(out, &mut first)?;
                write!(
                    out,
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{fleet_tid},\
                     \"args\":{{\"name\":\"attempt {} · worker {tid}\"}}}}",
                    lane.header.attempt
                )?;
            }
        }
        // Spans, rebased. Names are escaped into one reused buffer.
        let mut name = String::new();
        for lane in &self.lanes {
            let pid = lane.header.shard + 1;
            for span in &lane.batch.spans {
                sep(out, &mut first)?;
                name.clear();
                escape_into(&span.name, &mut name);
                write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{pid},\"tid\":{}",
                    span.kind,
                    micros(lane.fleet_ns(span.start_ns, epoch)),
                    micros(span.dur_ns),
                    fleet_tid(lane.header.attempt, span.tid)
                )?;
                if let Some(layer) = span.layer {
                    write!(out, ",\"args\":{{\"layer\":{layer}}}")?;
                }
                out.write_all(b"}")?;
            }
        }
        // Events, as instants on their shard's lane (events carry no
        // timestamp; anchor them at the lane's start like the
        // single-process exporter anchors at 0).
        for lane in &self.lanes {
            let pid = lane.header.shard + 1;
            let ts = lane.fleet_ns(lane.header.anchor_ns, epoch);
            for event in &lane.batch.events {
                sep(out, &mut first)?;
                write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"fi\",\"ph\":\"i\",\"ts\":{},\"s\":\"p\",\
                     \"pid\":{pid},\"tid\":{},\"args\":{}}}",
                    event.kind(),
                    micros(ts),
                    fleet_tid(lane.header.attempt, 1),
                    event.to_json()
                )?;
            }
        }
        out.write_all(b"]}")
    }
}

/// Namespaces a worker-local thread id by attempt so restarts render as
/// separate sub-lanes within the shard's process lane.
fn fleet_tid(attempt: u32, tid: u32) -> u64 {
    attempt as u64 * 1_000 + tid as u64
}

fn sep(out: &mut impl Write, first: &mut bool) -> std::io::Result<()> {
    if *first {
        *first = false;
        Ok(())
    } else {
        out.write_all(b",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, TrialOutcomeEvent};
    use crate::json::{parse_json, Value};
    use crate::recorder::{Recorder, SpanRecord};
    use crate::sidecar::{sidecar_path, SidecarRecorder};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rustfi_merge_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn span(name: &str, start_ns: u64, tid: u32) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            kind: "trial",
            layer: None,
            start_ns,
            dur_ns: 100,
            tid,
        }
    }

    fn outcome(trial: usize, outcome: &'static str) -> Event {
        Event::TrialOutcome(TrialOutcomeEvent {
            trial,
            layer: 0,
            outcome,
            due_layer: None,
        })
    }

    #[test]
    fn merges_lanes_and_rebases_clocks() {
        let dir = tmpdir("rebase");
        // Two shards plus a restart of shard 1; fake distinct clock anchors
        // by writing headers manually (the real recorder stamps live ones).
        let mk = |shard: usize, attempt: u32, anchor_ns: u64, anchor_unix_ms: u64, body: &str| {
            let journal = dir.join(format!("shard-{shard:04}-of-0002.jsonl"));
            let path = sidecar_path(&journal, attempt);
            let header = format!(
                "{{\"rustfi_telemetry\":1,\"shard\":{shard},\"shards\":2,\"attempt\":{attempt},\
                 \"anchor_ns\":{anchor_ns},\"anchor_unix_ms\":{anchor_unix_ms}}}\n"
            );
            std::fs::write(&path, format!("{header}{body}")).unwrap();
            path
        };
        // Shard 0 started at wall 1000ms with local clock at 500ns.
        let p0 = mk(
            0,
            0,
            500,
            1_000,
            "{\"span\":{\"name\":\"a\",\"kind\":\"trial\",\"layer\":null,\
             \"start_ns\":500,\"dur_ns\":100,\"tid\":1}}\n\
             {\"counter\":\"fi.injections\",\"delta\":2}\n",
        );
        // Shard 1 attempt 0 started 5ms later.
        let p1 = mk(
            1,
            0,
            0,
            1_005,
            "{\"span\":{\"name\":\"b\",\"kind\":\"trial\",\"layer\":null,\
             \"start_ns\":1000,\"dur_ns\":100,\"tid\":1}}\n\
             {\"event\":{\"type\":\"trial_outcome\",\"trial\":3,\"layer\":0,\
             \"outcome\":\"sdc\",\"due_layer\":null}}\n",
        );
        // Restart of shard 1, 20ms after the fleet epoch.
        let p2 = mk(
            1,
            1,
            0,
            1_020,
            "{\"span\":{\"name\":\"c\",\"kind\":\"trial\",\"layer\":null,\
             \"start_ns\":0,\"dur_ns\":100,\"tid\":1}}\n\
             {\"timing\":\"campaign.trial_ns\",\"ns\":77}\n",
        );

        let merged = merge_shard_telemetry(&[p0, p1, p2]);
        assert!(merged.skipped.is_empty());
        assert_eq!(merged.lanes.len(), 3);
        assert_eq!(merged.shards_present().len(), 2);
        assert_eq!(merged.attempts_for(1), vec![0, 1]);

        let snap = merged.aggregated_snapshot();
        assert_eq!(snap.counters.get("fi.injections"), Some(&2));
        assert_eq!(snap.timings.get("campaign.trial_ns").unwrap().count(), 1);
        assert_eq!(snap.events.len(), 1);
        // Fleet epoch = shard 0's anchor (wall 1000ms, local 500ns →
        // epoch = 1000ms·1e6 − 500). Shard 0's span at local 500 lands at 500.
        let by_name = |name: &str| snap.spans.iter().find(|s| s.name == name).unwrap().start_ns;
        assert_eq!(by_name("a"), 500);
        // Shard 1 attempt 0: 5ms after epoch + local 1000ns + shard0 local anchor 500.
        assert_eq!(by_name("b"), 5_000_000 + 1_000 + 500);
        // Restart: 20ms after epoch.
        assert_eq!(by_name("c"), 20_000_000 + 500);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_trace_has_lanes_and_restart_sublanes() {
        let dir = tmpdir("lanes");
        for (shard, attempt) in [(0usize, 0u32), (1, 0), (1, 1)] {
            let journal = dir.join(format!("shard-{shard:04}-of-0002.jsonl"));
            let rec = SidecarRecorder::create(&sidecar_path(&journal, attempt), shard, 2, attempt)
                .unwrap();
            rec.span(span(&format!("s{shard}a{attempt}"), 10, 1));
            rec.event(outcome(shard, "masked"));
        }
        let merged = MergedTelemetry::from_dir(&dir).unwrap();
        let trace = merged.chrome_trace();
        let v = parse_json(&trace).unwrap_or_else(|e| panic!("{e}"));
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();

        let pids: BTreeSet<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .filter_map(|e| e.get("pid").and_then(Value::as_u64))
            .collect();
        assert_eq!(pids, BTreeSet::from([1, 2]), "one lane per shard");

        let shard1_tids: BTreeSet<u64> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Value::as_str) == Some("X")
                    && e.get("pid").and_then(Value::as_u64) == Some(2)
            })
            .filter_map(|e| e.get("tid").and_then(Value::as_u64))
            .collect();
        assert_eq!(
            shard1_tids,
            BTreeSet::from([1, 1001]),
            "restart is a separate sub-lane"
        );
        assert!(
            events.iter().any(|e| {
                e.get("name").and_then(Value::as_str) == Some("thread_name")
                    && e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Value::as_str)
                        == Some("attempt 1 · worker 1")
            }),
            "sub-lane is named"
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some("i"))
                .count(),
            3
        );

        // The streamed file holds exactly the in-memory rendering.
        let path = dir.join("fleet.trace.json");
        merged.write_chrome_trace(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), trace);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreadable_files_are_skipped_not_fatal() {
        let dir = tmpdir("skip");
        let good = dir.join("good.telemetry.jsonl");
        SidecarRecorder::create(&good, 0, 1, 0).unwrap();
        let bad = dir.join("bad.telemetry.jsonl");
        std::fs::write(&bad, "not json\n").unwrap();
        let missing = dir.join("missing.telemetry.jsonl");

        let merged = merge_shard_telemetry(&[good, bad, missing]);
        assert_eq!(merged.lanes.len(), 1);
        assert_eq!(merged.skipped.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn labeled_prometheus_emits_one_sample_per_lane() {
        let dir = tmpdir("prom");
        for shard in 0..2usize {
            let rec = SidecarRecorder::create(
                &dir.join(format!("s{shard}.telemetry.jsonl")),
                shard,
                2,
                0,
            )
            .unwrap();
            rec.counter_add("fi.injections", (shard + 1) as u64);
        }
        let merged = MergedTelemetry::from_dir(&dir).unwrap();
        let text = merged.prometheus();
        assert!(text.contains("rustfi_fi_injections_total{shard=\"0\",attempt=\"0\"} 1"));
        assert!(text.contains("rustfi_fi_injections_total{shard=\"1\",attempt=\"0\"} 2"));
        assert_eq!(text.matches("# TYPE rustfi_fi_injections_total").count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
