//! Campaign reporting: formatted tables and CSV export.
//!
//! The paper positions PyTorchFI as a *research tool*; in practice that
//! means campaign results end up in plots and spreadsheets. This module
//! renders a [`CampaignResult`] as a human-readable summary, renders the
//! per-layer SDC/DUE table with Wilson intervals that every campaign report
//! prints ([`per_layer_table`]), and exports the per-trial records as CSV
//! for downstream analysis.

use crate::campaign::CampaignResult;
use crate::metrics::OutcomeCounts;
use rustfi_obs::{Z_95, Z_99};
use std::fmt::Write as _;

/// Renders a multi-line human-readable summary of a campaign: outcome
/// totals, the SDC rate with its 99% Wilson interval, and the
/// [`per_layer_table`].
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
    let (lo, hi) = c.wilson(c.sdc, Z_99);
    let _ = writeln!(
        out,
        "SDC rate: {:.4}% (99% Wilson CI [{:.4}%, {:.4}%]) | top-5 miss rate: {:.4}% | mean confidence delta: {:+.4}",
        100.0 * c.sdc_rate(),
        100.0 * lo,
        100.0 * hi,
        100.0 * result.top5_miss_rate(),
        result.mean_confidence_delta()
    );
    if c.total() > 0 {
        out.push_str(&per_layer_table(&result.per_layer, c));
    }
    out
}

/// The per-layer SDC/DUE table: one row per injectable layer that drew a
/// trial (its trials, SDC and DUE rates with 95% Wilson intervals, crashes
/// and hangs), then an `all` row over `overall`, which also counts trials
/// that crashed before a layer was planned.
pub fn per_layer_table(per_layer: &[OutcomeCounts], overall: &OutcomeCounts) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>5} {:>8} {:>22} {:>22} {:>6} {:>6}",
        "layer", "trials", "sdc% [95% CI]", "due% [95% CI]", "crash", "hang"
    );
    let layers = per_layer
        .iter()
        .enumerate()
        .filter(|(_, c)| c.total() > 0)
        .map(|(layer, c)| (layer.to_string(), c));
    for (label, c) in layers.chain([(String::from("all"), overall)]) {
        let _ = writeln!(
            out,
            "{label:>5} {:>8} {:>22} {:>22} {:>6} {:>6}",
            c.total(),
            rate_ci95(c, c.sdc),
            rate_ci95(c, c.due),
            c.crash,
            c.hang
        );
    }
    out
}

/// `"x.xx% [lo.xx, hi.xx]"`: the rate of `hits` (one of `c`'s fields) among
/// `c`'s trials with its 95% Wilson interval, in percent.
pub fn rate_ci95(c: &OutcomeCounts, hits: usize) -> String {
    let (lo, hi) = c.wilson(hits, Z_95);
    let n = c.total();
    let p = if n == 0 { 0.0 } else { hits as f64 / n as f64 };
    format!("{:.2}% [{:.2}, {:.2}]", p * 100.0, lo * 100.0, hi * 100.0)
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
    use crate::metrics::{tally, OutcomeKind};

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
        let (counts, per_layer) = tally(&records);
        CampaignResult {
            records,
            counts,
            per_layer,
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
        let r = sample_result();
        assert!(
            s.ends_with(&per_layer_table(&r.per_layer, &r.counts)),
            "{s}"
        );
    }

    #[test]
    fn per_layer_table_lists_layers_that_drew_trials_then_all() {
        let mut per_layer = vec![OutcomeCounts::default(); 6];
        per_layer[5] = OutcomeCounts {
            masked: 7,
            sdc: 1,
            ..OutcomeCounts::default()
        };
        let overall = OutcomeCounts {
            masked: 397,
            sdc: 3,
            ..OutcomeCounts::default()
        };
        // The rows of a 400-trial alexnet campaign's report, layer 5 and
        // `all`, character for character.
        assert_eq!(
            per_layer_table(&per_layer, &overall),
            "layer   trials          sdc% [95% CI]          due% [95% CI]  crash   hang\n\
             \x20   5        8   12.50% [2.24, 47.09]    0.00% [0.00, 32.44]      0      0\n\
             \x20 all      400     0.75% [0.26, 2.18]     0.00% [0.00, 0.95]      0      0\n"
        );
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
