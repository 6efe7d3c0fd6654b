//! Typed observability events: what an injection did, what a guard saw, how
//! a trial ended.
//!
//! Events are plain data so recorders can buffer, merge, and export them
//! without caring what produced them. Serialization to JSON lives here too
//! (hand-rolled, like the campaign journal — the build environment is
//! hermetic), with non-finite floats encoded as the strings `"inf"`,
//! `"-inf"`, `"nan"` since JSON numbers cannot represent them.

use std::fmt::Write as _;

use crate::json::Value;

/// Where an injection landed inside a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionSite {
    /// A neuron in the layer's output feature map.
    Neuron {
        /// Batch element.
        batch: usize,
        /// Channel index.
        channel: usize,
        /// Feature-map row.
        y: usize,
        /// Feature-map column.
        x: usize,
    },
    /// A scalar in the layer's flattened weight tensor.
    Weight {
        /// Flat index into the weight tensor.
        index: usize,
    },
}

/// Full provenance of one value perturbation: the paper's "what did the
/// fault actually do" record, emitted by the injector at perturbation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionEvent {
    /// Campaign trial index, when the injection ran inside a campaign.
    pub trial: Option<usize>,
    /// Injectable-layer index (the model-profile index campaigns report).
    pub layer: usize,
    /// Exact tensor location.
    pub site: InjectionSite,
    /// The single flipped FP32 bit, when the perturbation was a single bit
    /// flip (derived; `None` for multi-bit or value-replacing models).
    pub bit: Option<u32>,
    /// Value before the perturbation.
    pub before: f32,
    /// Value after the perturbation.
    pub after: f32,
}

impl InjectionEvent {
    /// The single FP32 bit whose flip turns `before` into `after`, if the
    /// two differ in exactly one bit of their IEEE-754 representation.
    pub fn flipped_bit(before: f32, after: f32) -> Option<u32> {
        let xor = before.to_bits() ^ after.to_bits();
        (xor.count_ones() == 1).then(|| xor.trailing_zeros())
    }
}

/// What a guard hook observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardEvent {
    /// First non-finite activation of a forward pass — DUE provenance.
    NonFinite {
        /// Network layer index where NaN/Inf first appeared.
        layer: usize,
        /// That layer's name.
        layer_name: String,
    },
    /// The step-budget watchdog tripped.
    Deadline {
        /// Leaf-layer dispatches counted when the budget tripped.
        steps: usize,
    },
}

/// How one campaign trial ended (streamed as it happens, unlike the final
/// [`CampaignResult`] summary).
///
/// [`CampaignResult`]: https://docs.rs/rustfi
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialOutcomeEvent {
    /// Trial index.
    pub trial: usize,
    /// Injectable layer hit (`usize::MAX` when the trial crashed before a
    /// fault was planned).
    pub layer: usize,
    /// Stable outcome label (`masked`/`sdc`/`due`/`crash`/`hang`).
    pub outcome: &'static str,
    /// DUE layer provenance, when a guard attributed one.
    pub due_layer: Option<usize>,
}

/// Any observability event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A value perturbation was applied.
    Injection(InjectionEvent),
    /// A guard hook fired.
    Guard(GuardEvent),
    /// A campaign trial finished.
    TrialOutcome(TrialOutcomeEvent),
}

impl Event {
    /// Stable event-type label (the `"type"` field of the JSON encoding).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Injection(_) => "injection",
            Event::Guard(_) => "guard",
            Event::TrialOutcome(_) => "trial_outcome",
        }
    }

    /// One-line JSON encoding (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"type\":\"{}\"", self.kind());
        match self {
            Event::Injection(e) => {
                s.push_str(",\"trial\":");
                push_opt_usize(&mut s, e.trial);
                let _ = write!(s, ",\"layer\":{},\"site\":", e.layer);
                match e.site {
                    InjectionSite::Neuron {
                        batch,
                        channel,
                        y,
                        x,
                    } => {
                        let _ = write!(
                            s,
                            "{{\"kind\":\"neuron\",\"batch\":{batch},\"channel\":{channel},\
                             \"y\":{y},\"x\":{x}}}"
                        );
                    }
                    InjectionSite::Weight { index } => {
                        let _ = write!(s, "{{\"kind\":\"weight\",\"index\":{index}}}");
                    }
                }
                s.push_str(",\"bit\":");
                match e.bit {
                    Some(b) => {
                        let _ = write!(s, "{b}");
                    }
                    None => s.push_str("null"),
                }
                s.push_str(",\"before\":");
                push_f32(&mut s, e.before);
                s.push_str(",\"after\":");
                push_f32(&mut s, e.after);
            }
            Event::Guard(GuardEvent::NonFinite { layer, layer_name }) => {
                let _ = write!(
                    s,
                    ",\"kind\":\"non_finite\",\"layer\":{layer},\"layer_name\":\""
                );
                escape_json_into(layer_name, &mut s);
                s.push('"');
            }
            Event::Guard(GuardEvent::Deadline { steps }) => {
                let _ = write!(s, ",\"kind\":\"deadline\",\"steps\":{steps}");
            }
            Event::TrialOutcome(e) => {
                let _ = write!(
                    s,
                    ",\"trial\":{},\"layer\":{},\"outcome\":\"{}\",\"due_layer\":",
                    e.trial, e.layer, e.outcome
                );
                push_opt_usize(&mut s, e.due_layer);
            }
        }
        s.push('}');
        s
    }
}

impl Event {
    /// Decodes an event from its [`Event::to_json`] encoding. The inverse is
    /// exact for every field except that unknown outcome labels collapse to
    /// `"unknown"` (outcome labels are `&'static str`, so only the closed
    /// taxonomy round-trips — which is all the campaign ever emits).
    pub fn from_json(v: &Value<'_>) -> Result<Event, String> {
        let kind = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("event missing \"type\"")?;
        let get_usize = |key: &str| -> Result<usize, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| format!("event missing integer \"{key}\""))
        };
        let get_opt_usize =
            |key: &str| -> Option<usize> { v.get(key).and_then(Value::as_u64).map(|n| n as usize) };
        match kind {
            "injection" => {
                let site_v = v.get("site").ok_or("injection missing \"site\"")?;
                let site_kind = site_v
                    .get("kind")
                    .and_then(Value::as_str)
                    .ok_or("site missing \"kind\"")?;
                let site_field = |key: &str| -> Result<usize, String> {
                    site_v
                        .get(key)
                        .and_then(Value::as_u64)
                        .map(|n| n as usize)
                        .ok_or_else(|| format!("site missing \"{key}\""))
                };
                let site = match site_kind {
                    "neuron" => InjectionSite::Neuron {
                        batch: site_field("batch")?,
                        channel: site_field("channel")?,
                        y: site_field("y")?,
                        x: site_field("x")?,
                    },
                    "weight" => InjectionSite::Weight {
                        index: site_field("index")?,
                    },
                    other => return Err(format!("unknown site kind {other:?}")),
                };
                Ok(Event::Injection(InjectionEvent {
                    trial: get_opt_usize("trial"),
                    layer: get_usize("layer")?,
                    site,
                    bit: v.get("bit").and_then(Value::as_u64).map(|b| b as u32),
                    before: f32_from_value(v.get("before"))?,
                    after: f32_from_value(v.get("after"))?,
                }))
            }
            "guard" => match v.get("kind").and_then(Value::as_str) {
                Some("non_finite") => Ok(Event::Guard(GuardEvent::NonFinite {
                    layer: get_usize("layer")?,
                    layer_name: v
                        .get("layer_name")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string(),
                })),
                Some("deadline") => Ok(Event::Guard(GuardEvent::Deadline {
                    steps: get_usize("steps")?,
                })),
                other => Err(format!("unknown guard kind {other:?}")),
            },
            "trial_outcome" => Ok(Event::TrialOutcome(TrialOutcomeEvent {
                trial: get_usize("trial")?,
                layer: get_usize("layer")?,
                outcome: outcome_label(
                    v.get("outcome").and_then(Value::as_str).unwrap_or_default(),
                ),
                due_layer: get_opt_usize("due_layer"),
            })),
            other => Err(format!("unknown event type {other:?}")),
        }
    }
}

/// Maps an outcome string back to the campaign's static label set.
fn outcome_label(s: &str) -> &'static str {
    match s {
        "masked" => "masked",
        "sdc" => "sdc",
        "due" => "due",
        "crash" => "crash",
        "hang" => "hang",
        _ => "unknown",
    }
}

/// Decodes an `f32` written by [`push_f32`]: a JSON number, or the strings
/// `"inf"` / `"-inf"` / `"nan"`.
fn f32_from_value(v: Option<&Value<'_>>) -> Result<f32, String> {
    match v {
        Some(Value::Num(n)) => n.parse().map_err(|_| format!("bad float {n:?}")),
        Some(Value::Str(s)) => match s.as_ref() {
            "inf" => Ok(f32::INFINITY),
            "-inf" => Ok(f32::NEG_INFINITY),
            "nan" => Ok(f32::NAN),
            other => Err(format!("bad float string {other:?}")),
        },
        other => Err(format!("expected float, got {other:?}")),
    }
}

fn push_opt_usize(out: &mut String, v: Option<usize>) {
    match v {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
}

/// Writes an `f32` as a JSON value; non-finite values become the strings
/// `"inf"` / `"-inf"` / `"nan"` (JSON numbers cannot represent them).
pub(crate) fn push_f32(out: &mut String, v: f32) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("\"nan\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// Escapes a string for embedding inside JSON double quotes.
pub(crate) fn escape_json_into(raw: &str, out: &mut String) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    #[test]
    fn flipped_bit_detects_single_bit_flips() {
        for bit in 0..32u32 {
            let before = 1.5f32;
            let after = f32::from_bits(before.to_bits() ^ (1 << bit));
            assert_eq!(InjectionEvent::flipped_bit(before, after), Some(bit));
        }
        assert_eq!(InjectionEvent::flipped_bit(1.0, 1.0), None, "no change");
        assert_eq!(InjectionEvent::flipped_bit(1.0, 2.5), None, "multi-bit");
    }

    #[test]
    fn events_serialize_to_valid_json() {
        let events = vec![
            Event::Injection(InjectionEvent {
                trial: Some(7),
                layer: 2,
                site: InjectionSite::Neuron {
                    batch: 0,
                    channel: 3,
                    y: 1,
                    x: 4,
                },
                bit: Some(21),
                before: 0.25,
                after: f32::INFINITY,
            }),
            Event::Injection(InjectionEvent {
                trial: None,
                layer: 0,
                site: InjectionSite::Weight { index: 91 },
                bit: None,
                before: f32::NAN,
                after: -1.0,
            }),
            Event::Guard(GuardEvent::NonFinite {
                layer: 9,
                layer_name: "relu\"9\"\n".into(),
            }),
            Event::Guard(GuardEvent::Deadline { steps: 12 }),
            Event::TrialOutcome(TrialOutcomeEvent {
                trial: 4,
                layer: 1,
                outcome: "sdc",
                due_layer: None,
            }),
        ];
        for e in events {
            let json = e.to_json();
            let v = parse_json(&json).unwrap_or_else(|err| panic!("{err}: {json}"));
            assert_eq!(
                v.get("type").and_then(|t| t.as_str()),
                Some(e.kind()),
                "{json}"
            );
        }
    }

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            Event::Injection(InjectionEvent {
                trial: Some(7),
                layer: 2,
                site: InjectionSite::Neuron {
                    batch: 0,
                    channel: 3,
                    y: 1,
                    x: 4,
                },
                bit: Some(21),
                before: 0.25,
                after: f32::INFINITY,
            }),
            Event::Injection(InjectionEvent {
                trial: None,
                layer: 0,
                site: InjectionSite::Weight { index: 91 },
                bit: None,
                before: -3.5,
                after: -1.0,
            }),
            Event::Guard(GuardEvent::NonFinite {
                layer: 9,
                layer_name: "relu\"9\"\n".into(),
            }),
            Event::Guard(GuardEvent::Deadline { steps: 12 }),
            Event::TrialOutcome(TrialOutcomeEvent {
                trial: 4,
                layer: 1,
                outcome: "sdc",
                due_layer: Some(3),
            }),
        ];
        for e in events {
            let v = parse_json(&e.to_json()).unwrap();
            let back = Event::from_json(&v).unwrap_or_else(|err| panic!("{err}"));
            assert_eq!(back, e);
        }
        // NaN compares unequal to itself; check the decode shape directly.
        let nan = Event::Injection(InjectionEvent {
            trial: None,
            layer: 0,
            site: InjectionSite::Weight { index: 1 },
            bit: None,
            before: f32::NAN,
            after: 1.0,
        });
        let v = parse_json(&nan.to_json()).unwrap();
        match Event::from_json(&v).unwrap() {
            Event::Injection(e) => assert!(e.before.is_nan() && e.after == 1.0),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn non_finite_floats_become_strings() {
        let mut s = String::new();
        push_f32(&mut s, f32::NEG_INFINITY);
        assert_eq!(s, "\"-inf\"");
    }
}
