//! Outcome classification for injection experiments.

use rustfi_tensor::Tensor;

/// What a single injection did to the inference result.
///
/// The first three kinds are the paper's classification of an inference that
/// *completed*; `Crash` and `Hang` extend the taxonomy to trials that did not
/// (a perturbation or model panicked, or the trial exceeded its step budget),
/// so a resilience campaign can always account for every trial.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OutcomeKind {
    /// The Top-1 prediction was unchanged — the error was masked.
    Masked,
    /// Silent data corruption: a different Top-1 prediction, the paper's
    /// "output corruption" criterion.
    Sdc,
    /// Detected unrecoverable error: the output (or, with guard hooks, an
    /// intermediate activation) contained NaN/Inf.
    Due,
    /// The trial panicked; the inference produced no output.
    Crash {
        /// The panic message, for debugging the perturbation or model.
        detail: String,
    },
    /// The trial exceeded its step budget and was cut short by the watchdog.
    Hang,
}

impl OutcomeKind {
    /// Stable lowercase label used in CSV exports and journals.
    pub fn label(&self) -> &'static str {
        match self {
            OutcomeKind::Masked => "masked",
            OutcomeKind::Sdc => "sdc",
            OutcomeKind::Due => "due",
            OutcomeKind::Crash { .. } => "crash",
            OutcomeKind::Hang => "hang",
        }
    }

    /// Whether the trial corrupted or aborted the inference (anything but
    /// masked).
    pub fn is_corruption(&self) -> bool {
        !matches!(self, OutcomeKind::Masked)
    }
}

/// Index of the largest value in a logits row.
///
/// # Panics
///
/// Panics on an empty row.
pub fn top1(row: &[f32]) -> usize {
    assert!(!row.is_empty(), "empty logits row");
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// Whether `label` is among the `k` largest entries of the row.
pub fn in_top_k(row: &[f32], label: usize, k: usize) -> bool {
    if label >= row.len() {
        return false;
    }
    let mut higher = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[label] || (v == row[label] && i < label) {
            higher += 1;
        }
    }
    higher < k
}

/// Softmax probability of `label` within the row.
///
/// # Panics
///
/// Panics if `label` is out of range.
pub fn confidence(row: &[f32], label: usize) -> f32 {
    assert!(label < row.len(), "label {label} out of range");
    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let denom: f32 = row.iter().map(|&v| (v - m).exp()).sum();
    (row[label] - m).exp() / denom
}

/// Classifies a perturbed logits row against the clean Top-1 prediction.
pub fn classify_outcome(golden_top1: usize, perturbed_row: &[f32]) -> OutcomeKind {
    if perturbed_row.iter().any(|v| !v.is_finite()) {
        return OutcomeKind::Due;
    }
    if top1(perturbed_row) == golden_top1 {
        OutcomeKind::Masked
    } else {
        OutcomeKind::Sdc
    }
}

/// Classifies every row of a perturbed logits batch.
///
/// # Panics
///
/// Panics if `golden.len()` differs from the batch size.
pub fn classify_batch(golden: &[usize], perturbed: &Tensor) -> Vec<OutcomeKind> {
    let (n, k) = perturbed.dims2();
    assert_eq!(
        golden.len(),
        n,
        "{} golden labels for batch {n}",
        golden.len()
    );
    (0..n)
        .map(|b| classify_outcome(golden[b], &perturbed.data()[b * k..(b + 1) * k]))
        .collect()
}

/// Running totals of outcome kinds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Masked trials.
    pub masked: usize,
    /// SDC trials.
    pub sdc: usize,
    /// DUE trials.
    pub due: usize,
    /// Crashed trials (the perturbation or model panicked).
    pub crash: usize,
    /// Hung trials (cut short by the watchdog).
    pub hang: usize,
}

impl OutcomeCounts {
    /// Adds one outcome.
    pub fn record(&mut self, outcome: &OutcomeKind) {
        match outcome {
            OutcomeKind::Masked => self.masked += 1,
            OutcomeKind::Sdc => self.sdc += 1,
            OutcomeKind::Due => self.due += 1,
            OutcomeKind::Crash { .. } => self.crash += 1,
            OutcomeKind::Hang => self.hang += 1,
        }
    }

    /// Total trials recorded.
    pub fn total(&self) -> usize {
        self.masked + self.sdc + self.due + self.crash + self.hang
    }

    /// Fraction of trials that were SDCs (0 if none recorded).
    pub fn sdc_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.sdc as f64 / self.total() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustfi_obs::{wilson_interval, Z_99};

    #[test]
    fn top1_and_ties() {
        assert_eq!(top1(&[0.1, 0.9, 0.3]), 1);
        assert_eq!(top1(&[0.5, 0.5]), 0, "first wins ties");
    }

    #[test]
    fn in_top_k_basics() {
        let row = [0.1, 0.9, 0.5, 0.7];
        assert!(in_top_k(&row, 1, 1));
        assert!(!in_top_k(&row, 2, 2));
        assert!(in_top_k(&row, 2, 3));
        assert!(
            !in_top_k(&row, 9, 4),
            "out-of-range label is never in top-k"
        );
    }

    #[test]
    fn confidence_is_softmax() {
        let row = [0.0, 0.0];
        assert!((confidence(&row, 0) - 0.5).abs() < 1e-6);
        let row = [10.0, 0.0];
        assert!(confidence(&row, 0) > 0.99);
    }

    #[test]
    fn classify_masked_sdc_due() {
        assert_eq!(classify_outcome(0, &[1.0, 0.5]), OutcomeKind::Masked);
        assert_eq!(classify_outcome(0, &[0.5, 1.0]), OutcomeKind::Sdc);
        assert_eq!(classify_outcome(0, &[f32::NAN, 1.0]), OutcomeKind::Due);
        assert_eq!(classify_outcome(0, &[f32::INFINITY, 1.0]), OutcomeKind::Due);
    }

    #[test]
    fn classify_batch_maps_rows() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let outcomes = classify_batch(&[0, 0], &logits);
        assert_eq!(outcomes, vec![OutcomeKind::Masked, OutcomeKind::Sdc]);
    }

    #[test]
    fn counts_accumulate_and_rate() {
        let mut c = OutcomeCounts::default();
        for _ in 0..95 {
            c.record(&OutcomeKind::Masked);
        }
        for _ in 0..2 {
            c.record(&OutcomeKind::Sdc);
        }
        c.record(&OutcomeKind::Due);
        c.record(&OutcomeKind::Crash {
            detail: "index out of bounds".into(),
        });
        c.record(&OutcomeKind::Hang);
        assert_eq!(c.total(), 100);
        assert_eq!((c.crash, c.hang), (1, 1));
        assert!((c.sdc_rate() - 0.02).abs() < 1e-9);
        let (lo, hi) = wilson_interval(c.sdc as u64, c.total() as u64, Z_99);
        assert!(
            lo > 0.0 && lo < 0.02 && hi > 0.02 && hi < 0.1,
            "[{lo}, {hi}]"
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(OutcomeKind::Masked.label(), "masked");
        assert_eq!(OutcomeKind::Sdc.label(), "sdc");
        assert_eq!(OutcomeKind::Due.label(), "due");
        assert_eq!(
            OutcomeKind::Crash {
                detail: String::new()
            }
            .label(),
            "crash"
        );
        assert_eq!(OutcomeKind::Hang.label(), "hang");
        assert!(!OutcomeKind::Masked.is_corruption());
        assert!(OutcomeKind::Hang.is_corruption());
    }

    #[test]
    fn empty_counts_are_safe() {
        let c = OutcomeCounts::default();
        assert_eq!(c.sdc_rate(), 0.0);
        assert_eq!(wilson_interval(0, c.total() as u64, Z_99), (0.0, 1.0));
        // No SDCs in 100 trials still bounds the rate away from certainty.
        let (lo, hi) = wilson_interval(0, 100, Z_99);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.1, "{hi}");
    }
}
