//! JSONL event export: a finished snapshot's events, one JSON object per
//! line.

use std::path::Path;

use crate::trace::ObsSnapshot;

/// Writes every event in `snap` to `path` as JSONL, one event per line
/// (truncating the file first). The whole file is written at once: the
/// snapshot is already finished.
pub fn write_events_jsonl(snap: &ObsSnapshot, path: &Path) -> std::io::Result<()> {
    let mut text = String::with_capacity(128 * snap.events.len());
    for event in &snap.events {
        text.push_str(&event.to_json());
        text.push('\n');
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, GuardEvent, TrialOutcomeEvent};
    use crate::json::parse_json;

    fn events() -> Vec<Event> {
        vec![
            Event::Guard(GuardEvent::NonFinite {
                layer: 2,
                layer_name: "conv2".into(),
            }),
            Event::TrialOutcome(TrialOutcomeEvent {
                trial: 0,
                layer: 2,
                outcome: "due",
                due_layer: Some(2),
            }),
        ]
    }

    #[test]
    fn every_line_is_one_complete_json_event() {
        let dir = std::env::temp_dir().join(format!("rustfi_obs_jsonl_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");

        let snap = ObsSnapshot {
            events: events(),
            ..ObsSnapshot::default()
        };
        write_events_jsonl(&snap, &path).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'), "file ends on a line boundary");
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = parse_json(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert!(v.get("type").is_some());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
