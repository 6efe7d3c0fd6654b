//! Round trips through the journal and sidecar writers and the shared JSON
//! reader: every `TrialRecord` and span line a writer emits reads back
//! bit-exactly — escaped and non-ASCII text, integers above 2^53, and every
//! finite `f32`.

use proptest::prelude::*;
use rustfi::{read_journal, JournalHeader, JournalWriter, NeuronSite, OutcomeKind, TrialRecord};
use rustfi_obs::{read_sidecar, Recorder, SidecarRecorder, SpanRecord};
use std::path::PathBuf;

/// Characters the writers must escape (quotes, backslashes, controls) or
/// pass through untouched (multi-byte text, JSON punctuation).
const PALETTE: [char; 16] = [
    '"', '\\', '\n', '\r', '\t', '\0', '\u{1f}', '\u{7f}', '/', 'é', '×', '≠', '😀', ' ', 'a', '{',
];

/// Deltas at the edges of the `f32` range.
const EXTREMES: [f32; 8] = [
    f32::MAX,
    f32::MIN,
    f32::MIN_POSITIVE,
    -f32::MIN_POSITIVE,
    f32::EPSILON,
    -0.0,
    0.1 + 0.2,
    -0.999_999_94,
];

/// A string drawn from `codes`: mostly palette characters, every fourth
/// code any Unicode scalar value.
fn text(codes: &[u32]) -> String {
    codes
        .iter()
        .map(|&c| {
            if c.is_multiple_of(4) {
                char::from_u32((c >> 2) % 0x11_0000).unwrap_or('\u{fffd}')
            } else {
                PALETTE[(c >> 2) as usize % PALETTE.len()]
            }
        })
        .collect()
}

/// A finite `f32` from `bits`: an extreme, the bit pattern itself, or —
/// for an infinity or NaN pattern — the subnormal with its sign and
/// mantissa (the journal writes non-finite deltas as 0).
fn finite(bits: u32) -> f32 {
    let v = f32::from_bits(bits);
    if bits.is_multiple_of(8) {
        EXTREMES[(bits >> 3) as usize % EXTREMES.len()]
    } else if v.is_finite() {
        v
    } else {
        f32::from_bits(bits & 0x807F_FFFF)
    }
}

fn record(trial: usize, w: u64, detail: String) -> TrialRecord {
    let layer = if w & 1 == 0 {
        usize::MAX
    } else {
        (w >> 8) as usize % 64
    };
    TrialRecord {
        trial,
        image_index: (w >> 16) as u16 as usize,
        layer,
        site: (w & 2 != 0).then(|| NeuronSite {
            layer,
            batch: (w & 4 != 0).then_some((w >> 20) as usize),
            channel: (w >> 24) as u8 as usize,
            y: (w >> 40) as u8 as usize,
            x: (w >> 48) as u8 as usize,
        }),
        outcome: match (w >> 3) % 5 {
            0 => OutcomeKind::Masked,
            1 => OutcomeKind::Sdc,
            2 => OutcomeKind::Due,
            3 => OutcomeKind::Hang,
            _ => OutcomeKind::Crash { detail },
        },
        due_layer: (w & 0x100 != 0).then_some((w >> 33) as usize),
        top5_miss: w & 0x200 != 0,
        confidence_delta: finite((w >> 32) as u32 ^ w as u32),
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rustfi-json-lines-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn journal_records_round_trip_bit_exactly(
        seed in any::<u64>(),
        config in any::<u64>(),
        words in prop::collection::vec(any::<u64>(), 1..16),
        codes in prop::collection::vec(any::<u32>(), 0..48),
    ) {
        let records: Vec<TrialRecord> = words
            .iter()
            .enumerate()
            .map(|(i, &w)| record(i, w, text(&codes[i % (codes.len() + 1)..])))
            .collect();
        let shards = 1 + (seed % 5) as usize;
        let header = JournalHeader {
            // Above 2^53 almost always; pinned past it every fourth case.
            seed: if config.is_multiple_of(4) { (1 << 53) + 1 } else { seed },
            trials: records.len(),
            config_hash: config,
            shard_index: (config % shards as u64) as usize,
            shard_count: shards,
        };
        let path = tmp("journal.jsonl");
        let mut w = JournalWriter::create(&path, header).unwrap();
        for r in &records {
            w.append(r, &path).unwrap();
        }
        drop(w);
        let (h, back) = read_journal(&path).unwrap();
        prop_assert_eq!(h, header);
        prop_assert_eq!(&back, &records);
        for (b, r) in back.iter().zip(&records) {
            prop_assert_eq!(b.confidence_delta.to_bits(), r.confidence_delta.to_bits());
        }
    }

    #[test]
    fn sidecar_spans_round_trip_bit_exactly(
        words in prop::collection::vec(any::<u64>(), 1..16),
        codes in prop::collection::vec(any::<u32>(), 0..48),
        attempt in any::<u32>(),
    ) {
        const KINDS: [&str; 4] = ["conv", "trial", "fused \"conv\" \\ 2", "é×"];
        let spans: Vec<SpanRecord> = words
            .iter()
            .enumerate()
            .map(|(i, &w)| SpanRecord {
                name: text(&codes[i % (codes.len() + 1)..]),
                kind: KINDS[w as usize % KINDS.len()],
                layer: (w & 4 != 0).then_some((w >> 3) as usize),
                start_ns: w.rotate_left(17),
                dur_ns: w ^ (1 << 60),
                tid: (w >> 32) as u32,
            })
            .collect();
        let path = tmp("spans.telemetry.jsonl");
        let rec = SidecarRecorder::create(&path, 3, 4, attempt).unwrap();
        for s in &spans {
            rec.span(s.clone());
        }
        rec.flush();
        prop_assert!(rec.ok());
        let read = read_sidecar(&path).unwrap();
        prop_assert_eq!(read.header, rec.header());
        prop_assert_eq!(read.torn_lines, 0);
        prop_assert_eq!(read.batch.spans, spans);
    }
}
