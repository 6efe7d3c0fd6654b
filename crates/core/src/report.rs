//! Campaign reporting: formatted tables and CSV export.
//!
//! The paper positions PyTorchFI as a *research tool*; in practice that
//! means campaign results end up in plots and spreadsheets. This module
//! renders a [`CampaignResult`] as a human-readable summary and exports the
//! per-trial records as CSV for downstream analysis.

use crate::campaign::CampaignResult;
use rustfi_obs::{wilson_interval, Z_99};
use std::fmt::Write as _;

/// Renders a multi-line human-readable summary of a campaign.
pub fn summarize(result: &CampaignResult) -> String {
    let mut out = String::new();
    let c = &result.counts;
    let _ = writeln!(
        out,
        "campaign: {} trials over {} eligible images",
        c.total(),
        result.eligible_images
    );
    let _ = writeln!(
        out,
        "outcomes: {} masked | {} SDC | {} DUE | {} crash | {} hang",
        c.masked, c.sdc, c.due, c.crash, c.hang
    );
    let (lo, hi) = wilson_interval(c.sdc as u64, c.total() as u64, Z_99);
    let _ = writeln!(
        out,
        "SDC rate: {:.4}% (99% Wilson CI [{:.4}%, {:.4}%]) | top-5 miss rate: {:.4}% | mean confidence delta: {:+.4}",
        100.0 * c.sdc_rate(),
        100.0 * lo,
        100.0 * hi,
        100.0 * result.top5_miss_rate(),
        result.mean_confidence_delta()
    );
    if result.per_layer.iter().any(|&(t, _)| t > 0) {
        let _ = writeln!(out, "per-layer vulnerability:");
        for (layer, &(trials, sdcs)) in result.per_layer.iter().enumerate() {
            if trials == 0 {
                continue;
            }
            let rate = 100.0 * sdcs as f64 / trials as f64;
            let bar_len = (rate * 4.0).round() as usize;
            let _ = writeln!(
                out,
                "  layer {layer:>3}: {trials:>7} trials {sdcs:>6} SDC {rate:>7.3}% {}",
                "#".repeat(bar_len.min(60))
            );
        }
    }
    out
}

/// CSV header matching [`to_csv`]'s rows.
pub const CSV_HEADER: &str =
    "trial,image_index,layer,batch,channel,y,x,outcome,due_layer,top5_miss,confidence_delta";

/// Exports all trial records as CSV (header + one line per trial).
pub fn to_csv(result: &CampaignResult) -> String {
    let mut out = String::with_capacity(result.records.len() * 48 + CSV_HEADER.len() + 1);
    out.push_str(CSV_HEADER);
    out.push('\n');
    for r in &result.records {
        let (batch, channel, y, x) = match r.site {
            Some(s) => (
                s.batch.map_or(String::from("all"), |b| b.to_string()),
                s.channel.to_string(),
                s.y.to_string(),
                s.x.to_string(),
            ),
            None => (
                String::from(""),
                String::new(),
                String::new(),
                String::new(),
            ),
        };
        let due_layer = r.due_layer.map_or(String::new(), |l| l.to_string());
        let _ = writeln!(
            out,
            "{},{},{},{batch},{channel},{y},{x},{},{due_layer},{},{}",
            r.trial,
            r.image_index,
            r.layer,
            r.outcome.label(),
            r.top5_miss,
            r.confidence_delta
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::TrialRecord;
    use crate::location::NeuronSite;
    use crate::metrics::{OutcomeCounts, OutcomeKind};

    fn sample_result() -> CampaignResult {
        let records = vec![
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
                confidence_delta: -0.01,
            },
            TrialRecord {
                trial: 1,
                image_index: 7,
                layer: 0,
                site: None,
                outcome: OutcomeKind::Sdc,
                due_layer: None,
                top5_miss: true,
                confidence_delta: -0.8,
            },
            TrialRecord {
                trial: 2,
                image_index: 1,
                layer: 2,
                site: None,
                outcome: OutcomeKind::Due,
                due_layer: Some(6),
                top5_miss: true,
                confidence_delta: -0.5,
            },
            TrialRecord {
                trial: 3,
                image_index: 0,
                layer: usize::MAX,
                site: None,
                outcome: OutcomeKind::Crash {
                    detail: "boom".into(),
                },
                due_layer: None,
                top5_miss: true,
                confidence_delta: 0.0,
            },
        ];
        let mut counts = OutcomeCounts::default();
        for r in &records {
            counts.record(&r.outcome);
        }
        CampaignResult {
            records,
            counts,
            per_layer: vec![(1, 1), (1, 0), (1, 0)],
            eligible_images: 10,
            prefix: None,
            fusion: None,
        }
    }

    #[test]
    fn summary_contains_key_figures() {
        let s = summarize(&sample_result());
        assert!(s.contains("4 trials over 10 eligible images"), "{s}");
        assert!(
            s.contains("1 masked | 1 SDC | 1 DUE | 1 crash | 0 hang"),
            "{s}"
        );
        assert!(s.contains("per-layer vulnerability"), "{s}");
        assert!(s.contains("layer   0"), "{s}");
    }

    #[test]
    fn csv_roundtrips_fields() {
        let csv = to_csv(&sample_result());
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        let row0 = lines.next().unwrap();
        assert_eq!(row0, "0,3,1,all,2,4,5,masked,,false,-0.01");
        let row1 = lines.next().unwrap();
        assert!(row1.starts_with("1,7,0,,,,,sdc,,true,"), "{row1}");
        let row2 = lines.next().unwrap();
        assert!(row2.starts_with("2,1,2,,,,,due,6,true,"), "{row2}");
        let row3 = lines.next().unwrap();
        assert!(row3.contains(",crash,,true,0"), "{row3}");
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn empty_result_renders() {
        let result = CampaignResult {
            records: Vec::new(),
            counts: OutcomeCounts::default(),
            per_layer: Vec::new(),
            eligible_images: 0,
            prefix: None,
            fusion: None,
        };
        let s = summarize(&result);
        assert!(s.contains("0 trials"));
        assert_eq!(to_csv(&result).lines().count(), 1, "header only");
    }
}
