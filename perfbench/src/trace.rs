//! The benchmark's own recorder: spans in memory, self times per layer
//! class, per-trial cost samples and counters.
//!
//! Campaign workers hand the recorder one batch per trial (or fused chunk),
//! holding that trial's complete span tree on one thread, so self times are
//! folded in as batches arrive and memory stays bounded however long the
//! run. The first [`KEEP_SPANS`] raw spans are also kept and written out as
//! a Chrome trace when the run ends.

use crate::ratio;
use rustfi::ModelProfile;
use rustfi_nn::LayerKind;
use rustfi_obs::{
    names, now_ns, thread_tid, Event, ObsBatch, ObsSnapshot, Recorder, SpanCtx, SpanRecord,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;

/// Raw spans kept for the written trace.
const KEEP_SPANS: usize = 50_000;

/// The `nn` layer classes self time is reported for, with their metric.
const LAYER_CLASSES: [(&str, &str); 6] = [
    ("conv", "nn.self_us_per_trial.conv"),
    ("linear", "nn.self_us_per_trial.linear"),
    ("norm", "nn.self_us_per_trial.norm"),
    ("act", "nn.self_us_per_trial.act"),
    ("pool", "nn.self_us_per_trial.pool"),
    ("container", "nn.self_us_per_trial.container"),
];

/// Maps a layer span kind (`LayerKind::short_name`) to its class.
fn layer_class(kind: &str) -> Option<&'static str> {
    Some(match kind {
        "conv" => "conv",
        "fc" => "linear",
        "bn" => "norm",
        "relu" => "act",
        "maxpool" | "avgpool" | "gap" => "pool",
        "seq" | "residual" | "branches" => "container",
        _ => return None,
    })
}

/// A fused chunk span (`"fused chunk layer L image I xN"`): the injectable
/// layer index `L` and the width `N`.
fn fused_chunk(span: &SpanRecord) -> Option<(usize, u64)> {
    let rest = span.name.strip_prefix("fused chunk layer ")?;
    let (layer, rest) = rest.split_once(' ')?;
    let (_, width) = rest.rsplit_once(" x")?;
    Some((layer.parse().ok()?, width.parse().ok()?))
}

/// The layer geometry spans are charged against.
#[derive(Debug, Default)]
pub struct Geometry {
    /// FLOPs of one image through each convolution, by network layer index.
    conv_flop: BTreeMap<usize, f64>,
    /// Network layer index of each injectable layer, in profile order.
    injectable: Vec<usize>,
}

impl Geometry {
    /// Convolution FLOPs: 2 × output neurons × weights per neuron.
    pub fn new(profile: &ModelProfile) -> Self {
        let conv_flop = profile
            .layers()
            .iter()
            .filter(|l| l.kind == LayerKind::Conv2d)
            .map(|l| {
                let macs: usize = l.weight_dims[1..].iter().product();
                (l.id.index(), 2.0 * (l.neurons_per_image() * macs) as f64)
            })
            .collect();
        let injectable = profile.layers().iter().map(|l| l.id.index()).collect();
        Self {
            conv_flop,
            injectable,
        }
    }
}

/// Everything folded out of the spans seen so far.
#[derive(Debug, Default)]
pub struct SpanAgg {
    /// Self nanoseconds per layer class.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Layer spans seen (calls into a layer's forward).
    pub layer_calls: u64,
    /// Convolution FLOPs executed, from layer geometry and batch width.
    pub conv_flop: f64,
    /// Per-trial cost samples in nanoseconds: a serial trial's span, or a
    /// fused chunk's span split evenly over its trials.
    pub trial_ns: Vec<u64>,
}

impl SpanAgg {
    /// Folds in a set of spans holding complete span trees.
    ///
    /// A layer inside a fused chunk of width `N` processed `N` images,
    /// except the injection layer run directly under the chunk: the
    /// broadcast path computes it once, at batch 1.
    pub fn ingest(&mut self, spans: &[SpanRecord], geo: &Geometry) {
        let mut order: Vec<usize> = (0..spans.len()).collect();
        let end = |s: &SpanRecord| s.start_ns + s.dur_ns;
        order.sort_by_key(|&i| {
            (
                spans[i].tid,
                spans[i].start_ns,
                std::cmp::Reverse(end(&spans[i])),
            )
        });
        let mut child_ns = vec![0u64; spans.len()];
        // Open ancestors of the current span: (index, batch width, layer
        // the span broadcasts when it is a fused chunk).
        let mut stack: Vec<(usize, u64, Option<usize>)> = Vec::new();
        for &i in &order {
            let s = &spans[i];
            while let Some(&(p, ..)) = stack.last() {
                let ps = &spans[p];
                if ps.tid == s.tid && s.start_ns >= ps.start_ns && end(s) <= end(ps) {
                    break;
                }
                stack.pop();
            }
            let (mut width, mut broadcast) = (1, None);
            if let Some(&(p, w, b)) = stack.last() {
                child_ns[p] += s.dur_ns;
                width = if b.is_some() && b == s.layer { 1 } else { w };
            }
            match s.kind {
                "trial" => self.trial_ns.push(s.dur_ns),
                "fused" => {
                    if let Some((layer, n)) = fused_chunk(s) {
                        width = n;
                        broadcast = geo.injectable.get(layer).copied();
                        let per = s.dur_ns / n.max(1);
                        self.trial_ns.extend(std::iter::repeat_n(per, n as usize));
                    }
                }
                _ => {}
            }
            if let Some(layer) = s.layer {
                self.layer_calls += 1;
                if let Some(f) = geo.conv_flop.get(&layer) {
                    self.conv_flop += f * width as f64;
                }
            }
            stack.push((i, width, broadcast));
        }
        for (i, s) in spans.iter().enumerate() {
            let Some(class) = s.layer.and_then(|_| layer_class(s.kind)) else {
                continue;
            };
            *self.self_ns.entry(class).or_default() += s.dur_ns.saturating_sub(child_ns[i]);
        }
    }

    /// The per-layer metrics over `trials` traced trials; `counters` are
    /// the counters recorded alongside the spans.
    pub fn report(
        &self,
        m: &mut BTreeMap<&'static str, f64>,
        counters: &BTreeMap<&'static str, u64>,
        trials: f64,
    ) {
        let mut t = self.trial_ns.clone();
        t.sort_unstable();
        m.insert("core.trial_p50_us", percentile(&t, 0.50) * 1e-3);
        m.insert("core.trial_p99_us", percentile(&t, 0.99) * 1e-3);
        m.insert("core.trial_samples", t.len() as f64);
        for (class, metric) in LAYER_CLASSES {
            let ns = self.self_ns.get(class).copied().unwrap_or(0);
            m.insert(metric, ns as f64 / trials * 1e-3);
        }
        let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
        m.insert("nn.layer_calls_per_trial", self.layer_calls as f64 / trials);
        m.insert(
            "nn.hook_dispatches_per_trial",
            counter(names::NN_HOOK_DISPATCHES) / trials,
        );
        // FLOPs per nanosecond is GFLOP/s.
        let conv_ns = self.self_ns.get("conv").copied().unwrap_or(0) as f64;
        m.insert("nn.conv_gflops", ratio(self.conv_flop, conv_ns));
        let hits = counter(names::CAMPAIGN_POOL_HITS);
        let misses = counter(names::CAMPAIGN_POOL_MISSES);
        m.insert("tensor.pool_hit_rate", ratio(hits, hits + misses));
    }
}

/// Nearest-rank percentile of sorted `v`, as f64 (0 when empty).
fn percentile(v: &[u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64
}

/// The benchmark-owned [`Recorder`], attached only in the traced run.
pub struct BenchRecorder {
    geometry: Geometry,
    agg: Mutex<SpanAgg>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    kept: Mutex<Vec<SpanRecord>>,
}

impl BenchRecorder {
    /// A recorder for campaigns over the model `profile` describes.
    pub fn new(profile: &ModelProfile) -> Self {
        Self {
            geometry: Geometry::new(profile),
            agg: Mutex::new(SpanAgg::default()),
            counters: Mutex::new(BTreeMap::new()),
            kept: Mutex::new(Vec::new()),
        }
    }

    /// Takes the folded spans and counters, leaving the recorder empty.
    pub fn take(&self) -> (SpanAgg, BTreeMap<&'static str, u64>) {
        let agg = std::mem::take(&mut *self.agg.lock().expect("span aggregate poisoned"));
        let counters = std::mem::take(&mut *self.counters.lock().expect("counters poisoned"));
        (agg, counters)
    }

    /// Writes the kept spans as a Chrome trace.
    pub fn write_trace(&self, path: &Path) -> std::io::Result<()> {
        let snap = ObsSnapshot {
            spans: self.kept.lock().expect("kept spans poisoned").clone(),
            ..ObsSnapshot::default()
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, rustfi_obs::chrome_trace_json(&snap))
    }
}

impl Recorder for BenchRecorder {
    fn layer_enter(&self) -> u64 {
        now_ns()
    }

    fn layer_exit(&self, ctx: &SpanCtx<'_>, token: u64) {
        self.span(SpanRecord {
            name: ctx.name.to_string(),
            kind: ctx.kind,
            layer: ctx.layer,
            start_ns: token,
            dur_ns: now_ns().saturating_sub(token),
            tid: thread_tid(),
        });
    }

    fn span(&self, span: SpanRecord) {
        self.merge(ObsBatch {
            spans: vec![span],
            ..ObsBatch::default()
        });
    }

    fn event(&self, _event: Event) {}

    fn counter_add(&self, name: &'static str, delta: u64) {
        *self
            .counters
            .lock()
            .expect("counters poisoned")
            .entry(name)
            .or_default() += delta;
    }

    fn observe_ns(&self, _name: &'static str, _ns: u64) {}

    fn merge(&self, batch: ObsBatch) {
        let mut local = SpanAgg::default();
        local.ingest(&batch.spans, &self.geometry);
        {
            let mut agg = self.agg.lock().expect("span aggregate poisoned");
            for (class, ns) in local.self_ns {
                *agg.self_ns.entry(class).or_default() += ns;
            }
            agg.layer_calls += local.layer_calls;
            agg.conv_flop += local.conv_flop;
            agg.trial_ns.extend(local.trial_ns);
        }
        for (name, delta) in batch.counters {
            self.counter_add(name, delta);
        }
        let mut kept = self.kept.lock().expect("kept spans poisoned");
        let room = KEEP_SPANS.saturating_sub(kept.len());
        kept.extend(batch.spans.into_iter().take(room));
    }
}

/// A timer around one call into a crate; in the traced run it also records
/// a `bench` span named `name`.
pub fn timed<T>(rec: Option<&BenchRecorder>, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = now_ns();
    let out = f();
    let dur_ns = now_ns().saturating_sub(start);
    if let Some(r) = rec {
        r.span(SpanRecord {
            name: name.to_string(),
            kind: "bench",
            layer: None,
            start_ns: start,
            dur_ns,
            tid: thread_tid(),
        });
    }
    (out, dur_ns as f64 * 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: &'static str, layer: Option<usize>, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            name: String::from("x4"),
            kind,
            layer,
            start_ns: start,
            dur_ns: dur,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_and_fused_chunks_split() {
        let fused = SpanRecord {
            name: String::from("fused chunk layer 1 image 0 x4"),
            ..span("fused", None, 0, 100)
        };
        let spans = [
            fused,
            span("conv", Some(3), 2, 6),
            span("seq", Some(0), 10, 80),
            span("conv", Some(1), 10, 30),
            span("relu", Some(2), 45, 10),
        ];
        let geo = Geometry {
            conv_flop: BTreeMap::from([(1, 5.0), (3, 7.0)]),
            injectable: vec![1, 3],
        };
        let mut agg = SpanAgg::default();
        agg.ingest(&spans, &geo);
        assert_eq!(agg.self_ns["container"], 40);
        assert_eq!(agg.self_ns["conv"], 36);
        assert_eq!(agg.self_ns["act"], 10);
        assert_eq!(agg.layer_calls, 4);
        assert_eq!(
            agg.conv_flop, 27.0,
            "the broadcast layer at batch 1, the rest at the chunk width"
        );
        assert_eq!(agg.trial_ns, vec![25; 4]);
    }
}
