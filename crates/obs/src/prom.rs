//! Prometheus exposition-format text snapshot of counters and duration
//! histograms.
//!
//! Counters render as `rustfi_<name>_total`; histograms render as
//! Prometheus summaries (`_count` / `_sum`, with the sum in seconds per
//! Prometheus base-unit convention) plus `_min_seconds` / `_max_seconds`
//! gauges. Dots in recorder names become underscores to satisfy the metric
//! name grammar. Every family carries a `# HELP` and `# TYPE` line, and
//! label values are escaped per the exposition-format rules (`\\`, `\"`,
//! `\n`), so the output is scrape-clean.
//!
//! [`prometheus_text`] renders one unlabeled snapshot (a single-process
//! campaign); [`prometheus_text_labeled`] renders any number of snapshots
//! with per-snapshot label sets (the fleet merge uses it to emit one
//! `shard="i"`-labeled sample per shard under a single family header).

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::names::metric_help;
use crate::trace::ObsSnapshot;

/// Renders counters and timings in Prometheus exposition format.
pub fn prometheus_text(snap: &ObsSnapshot) -> String {
    prometheus_text_labeled(&[(snap, &[])])
}

/// Renders any number of snapshots, each with its own label set, grouping
/// samples by metric family so `# HELP` / `# TYPE` appear exactly once per
/// family (the exposition format forbids repeating them).
pub fn prometheus_text_labeled(snapshots: &[(&ObsSnapshot, &[(&str, &str)])]) -> String {
    let mut out = String::new();

    let counter_names: BTreeSet<&str> = snapshots
        .iter()
        .flat_map(|(s, _)| s.counters.keys().copied())
        .collect();
    for name in counter_names {
        let metric = sanitize(name);
        let _ = writeln!(out, "# HELP rustfi_{metric}_total {}", metric_help(name));
        let _ = writeln!(out, "# TYPE rustfi_{metric}_total counter");
        for (snap, labels) in snapshots {
            if let Some(value) = snap.counters.get(name) {
                let _ = writeln!(out, "rustfi_{metric}_total{} {value}", label_set(labels));
            }
        }
    }

    let timing_names: BTreeSet<&str> = snapshots
        .iter()
        .flat_map(|(s, _)| s.timings.keys().copied())
        .collect();
    for name in timing_names {
        let metric = sanitize(name);
        let _ = writeln!(out, "# HELP rustfi_{metric}_seconds {}", metric_help(name));
        let _ = writeln!(out, "# TYPE rustfi_{metric}_seconds summary");
        for (snap, labels) in snapshots {
            if let Some(stat) = snap.timings.get(name) {
                let ls = label_set(labels);
                let _ = writeln!(out, "rustfi_{metric}_seconds_count{ls} {}", stat.count());
                let _ = writeln!(
                    out,
                    "rustfi_{metric}_seconds_sum{ls} {}",
                    seconds(stat.sum())
                );
                let _ = writeln!(
                    out,
                    "rustfi_{metric}_seconds_min{ls} {}",
                    seconds(stat.min())
                );
                let _ = writeln!(
                    out,
                    "rustfi_{metric}_seconds_max{ls} {}",
                    seconds(stat.max())
                );
            }
        }
    }

    if snapshots.iter().any(|(s, _)| s.dropped_spans > 0) {
        let _ = writeln!(
            out,
            "# HELP rustfi_obs_dropped_spans_total Spans discarded after the recorder's span cap."
        );
        let _ = writeln!(out, "# TYPE rustfi_obs_dropped_spans_total counter");
        for (snap, labels) in snapshots {
            if snap.dropped_spans > 0 {
                let _ = writeln!(
                    out,
                    "rustfi_obs_dropped_spans_total{} {}",
                    label_set(labels),
                    snap.dropped_spans
                );
            }
        }
    }
    out
}

/// Renders a label set as `{k="v",...}`, or the empty string when there are
/// no labels. Label *names* are sanitized to the metric-name grammar; label
/// *values* are escaped (`\` → `\\`, `"` → `\"`, newline → `\n`) per the
/// exposition format.
fn label_set(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}=\"{}\"", sanitize(k), escape_label_value(v));
    }
    out.push('}');
    out
}

/// Escapes a label value per the Prometheus text exposition format.
pub(crate) fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Maps a recorder metric name onto the Prometheus name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): anything else becomes `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Nanoseconds as decimal seconds without float formatting surprises.
fn seconds(ns: u64) -> String {
    format!("{}.{:09}", ns / 1_000_000_000, ns % 1_000_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StreamingHistogram;
    use std::collections::BTreeMap;

    #[test]
    fn renders_counters_and_summaries() {
        let mut snap = ObsSnapshot::default();
        snap.counters.insert("fi.injections", 42);
        let mut stat = StreamingHistogram::default();
        stat.observe(1_500_000_000);
        stat.observe(500_000_000);
        snap.timings.insert("campaign.trial_ns", stat);
        snap.dropped_spans = 3;

        let text = prometheus_text(&snap);
        assert!(text.contains("# HELP rustfi_fi_injections_total "));
        assert!(text.contains("# TYPE rustfi_fi_injections_total counter\n"));
        assert!(text.contains("rustfi_fi_injections_total 42\n"));
        assert!(text.contains("# HELP rustfi_campaign_trial_ns_seconds "));
        assert!(text.contains("rustfi_campaign_trial_ns_seconds_count 2\n"));
        assert!(text.contains("rustfi_campaign_trial_ns_seconds_sum 2.000000000\n"));
        assert!(text.contains("rustfi_campaign_trial_ns_seconds_min 0.500000000\n"));
        assert!(text.contains("rustfi_campaign_trial_ns_seconds_max 1.500000000\n"));
        assert!(text.contains("rustfi_obs_dropped_spans_total 3\n"));
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "exposition line shape: {line}"
            );
        }
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert!(prometheus_text(&ObsSnapshot::default()).is_empty());
    }

    /// Minimal exposition-format reader for the round-trip test: parses
    /// sample lines back into `(metric, labels, value)` and checks every
    /// family is preceded by HELP and TYPE.
    fn parse_exposition(text: &str) -> Vec<(String, BTreeMap<String, String>, f64)> {
        let mut samples = Vec::new();
        let mut helped: BTreeSet<String> = BTreeSet::new();
        let mut typed: BTreeSet<String> = BTreeSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                helped.insert(rest.split(' ').next().unwrap().to_string());
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.insert(rest.split(' ').next().unwrap().to_string());
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            let (metric, labels) = match series.split_once('{') {
                None => (series.to_string(), BTreeMap::new()),
                Some((m, rest)) => {
                    let body = rest.strip_suffix('}').expect("closing brace");
                    let mut map = BTreeMap::new();
                    let mut chars = body.chars().peekable();
                    while chars.peek().is_some() {
                        let key: String = chars.by_ref().take_while(|c| *c != '=').collect();
                        assert_eq!(chars.next(), Some('"'), "label value opens with a quote");
                        let mut val = String::new();
                        loop {
                            match chars.next().expect("unterminated label value") {
                                '"' => break,
                                '\\' => match chars.next().expect("dangling escape") {
                                    '\\' => val.push('\\'),
                                    '"' => val.push('"'),
                                    'n' => val.push('\n'),
                                    other => panic!("unknown escape \\{other}"),
                                },
                                c => val.push(c),
                            }
                        }
                        map.insert(key, val);
                        if chars.peek() == Some(&',') {
                            chars.next();
                        }
                    }
                    (m.to_string(), map)
                }
            };
            // A sample's family is the metric name minus summary suffixes.
            let family = metric
                .strip_suffix("_count")
                .or_else(|| metric.strip_suffix("_sum"))
                .or_else(|| metric.strip_suffix("_min"))
                .or_else(|| metric.strip_suffix("_max"))
                .unwrap_or(&metric);
            assert!(
                helped.contains(family) || helped.contains(&metric),
                "family {family} has HELP"
            );
            assert!(
                typed.contains(family) || typed.contains(&metric),
                "family {family} has TYPE"
            );
            samples.push((metric, labels, value.parse().unwrap()));
        }
        samples
    }

    #[test]
    fn labeled_output_round_trips_including_hostile_label_values() {
        let mut a = ObsSnapshot::default();
        a.counters.insert("fi.injections", 7);
        let mut b = ObsSnapshot::default();
        b.counters.insert("fi.injections", 5);
        let mut stat = StreamingHistogram::default();
        stat.observe(250_000_000);
        b.timings.insert("campaign.trial_ns", stat);

        let hostile = "sh\"ard\\one\nline";
        let text = prometheus_text_labeled(&[
            (&a, &[("shard", "0"), ("host", hostile)]),
            (&b, &[("shard", "1")]),
        ]);

        let samples = parse_exposition(&text);
        let totals: Vec<_> = samples
            .iter()
            .filter(|(m, _, _)| m == "rustfi_fi_injections_total")
            .collect();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].1.get("shard").map(String::as_str), Some("0"));
        assert_eq!(
            totals[0].1.get("host").map(String::as_str),
            Some(hostile),
            "hostile label value survives the escape/unescape round trip"
        );
        assert_eq!(totals[0].2, 7.0);
        assert_eq!(totals[1].1.get("shard").map(String::as_str), Some("1"));
        assert_eq!(totals[1].2, 5.0);
        assert_eq!(
            samples
                .iter()
                .filter(|(m, _, _)| m == "rustfi_campaign_trial_ns_seconds_count")
                .count(),
            1
        );
        // HELP/TYPE must not repeat per family.
        let help_lines: Vec<_> = text
            .lines()
            .filter(|l| l.starts_with("# HELP rustfi_fi_injections_total"))
            .collect();
        assert_eq!(help_lines.len(), 1);
    }

    #[test]
    fn escape_label_value_covers_the_exposition_specials() {
        assert_eq!(escape_label_value(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(escape_label_value("x\ny"), "x\\ny");
        assert_eq!(escape_label_value("plain"), "plain");
    }
}
