//! Random architecture generator: the model half of the differential fuzzer.
//!
//! [`ArchSpec::sample`] composes a network from the same building blocks the
//! hand-written zoo uses — plain/grouped/strided convolutions, batch norm,
//! four activations, pooling, [`Residual`] and [`Branches`] containers,
//! channel shuffles — under a deterministic [`SeededRng`] stream, so one
//! `u64` seed reproduces the exact architecture anywhere. Proposals are
//! validated up front with [`Module::infer_dims`]; invalid compositions
//! (including deliberately corrupted residual blocks the sampler emits to
//! keep that path honest) are rejected and resampled, never panicking.
//!
//! [`Residual`]: crate::layer::container::Residual
//! [`Branches`]: crate::layer::container::Branches
//! [`Module::infer_dims`]: crate::Module::infer_dims

use crate::layer::{
    AvgPool2d, BatchNorm2d, Branches, ChannelShuffle, Conv2d, Flatten, GlobalAvgPool, LeakyRelu,
    Linear, MaxPool2d, Relu, Residual, Sequential, Sigmoid, Tanh,
};
use crate::module::{Module, Network};
use rustfi_tensor::{ConvSpec, SeededRng};
use std::fmt;

/// One operation of a randomly composed architecture.
///
/// The four container-free activations are collapsed into [`OpSpec::Act`] so
/// the sampler can pick among them with one draw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpSpec {
    /// A square convolution `in_ch -> out_ch`.
    Conv {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride in both spatial dims.
        stride: usize,
        /// Symmetric zero padding.
        padding: usize,
        /// Filter groups (1 = dense).
        groups: usize,
    },
    /// Batch normalization over `channels`.
    BatchNorm {
        /// Channel count the norm is built for.
        channels: usize,
    },
    /// An element-wise activation.
    Act(ActKind),
    /// Max pooling with a square window.
    MaxPool {
        /// Window size.
        kernel: usize,
        /// Step between windows.
        stride: usize,
    },
    /// Average pooling with a square window.
    AvgPool {
        /// Window size.
        kernel: usize,
        /// Step between windows.
        stride: usize,
    },
    /// ShuffleNet channel shuffle over `groups`.
    Shuffle {
        /// Group count.
        groups: usize,
    },
    /// `y = body(x) + shortcut(x)`; identity shortcut when `shortcut` is
    /// `None`.
    Residual {
        /// Main path.
        body: Vec<OpSpec>,
        /// Projection path; `None` = identity.
        shortcut: Option<Vec<OpSpec>>,
    },
    /// Parallel paths concatenated along channels; `passthrough` prepends
    /// the input itself (DenseNet pattern).
    Branches {
        /// The parallel paths.
        branches: Vec<Vec<OpSpec>>,
        /// Whether the input is concatenated as branch 0.
        passthrough: bool,
    },
}

/// Which element-wise activation an [`OpSpec::Act`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActKind {
    /// `max(0, x)`.
    Relu,
    /// `max(0.1 x, x)`.
    LeakyRelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl ActKind {
    const ALL: [ActKind; 4] = [
        ActKind::Relu,
        ActKind::LeakyRelu,
        ActKind::Sigmoid,
        ActKind::Tanh,
    ];
}

impl OpSpec {
    /// Materializes this op, drawing any weights from `rng`.
    fn build(&self, rng: &mut SeededRng) -> Box<dyn Module> {
        match self {
            OpSpec::Conv {
                in_ch,
                out_ch,
                kernel,
                stride,
                padding,
                groups,
            } => Box::new(Conv2d::new(
                *in_ch,
                *out_ch,
                *kernel,
                ConvSpec::new()
                    .stride(*stride)
                    .padding(*padding)
                    .groups(*groups),
                rng,
            )),
            OpSpec::BatchNorm { channels } => Box::new(BatchNorm2d::new(*channels)),
            OpSpec::Act(ActKind::Relu) => Box::new(Relu::new()),
            OpSpec::Act(ActKind::LeakyRelu) => Box::new(LeakyRelu::new(0.1)),
            OpSpec::Act(ActKind::Sigmoid) => Box::new(Sigmoid::new()),
            OpSpec::Act(ActKind::Tanh) => Box::new(Tanh::new()),
            OpSpec::MaxPool { kernel, stride } => Box::new(MaxPool2d::new(*kernel, *stride)),
            OpSpec::AvgPool { kernel, stride } => Box::new(AvgPool2d::new(*kernel, *stride)),
            OpSpec::Shuffle { groups } => Box::new(ChannelShuffle::new(*groups)),
            OpSpec::Residual { body, shortcut } => {
                let body = Box::new(Sequential::new(build_ops(body, rng)));
                match shortcut {
                    None => Box::new(Residual::new(body)),
                    Some(s) => Box::new(Residual::with_shortcut(
                        body,
                        Box::new(Sequential::new(build_ops(s, rng))),
                    )),
                }
            }
            OpSpec::Branches {
                branches,
                passthrough,
            } => {
                let paths = branches
                    .iter()
                    .map(|b| Box::new(Sequential::new(build_ops(b, rng))) as Box<dyn Module>)
                    .collect();
                Box::new(if *passthrough {
                    Branches::with_input_passthrough(paths)
                } else {
                    Branches::new(paths)
                })
            }
        }
    }

    /// Channel count this op hands downstream when fed `in_ch` channels.
    /// Purely nominal — shape *validity* is established by
    /// [`Module::infer_dims`](crate::Module::infer_dims) on the built tree.
    fn out_channels(&self, in_ch: usize) -> usize {
        match self {
            OpSpec::Conv { out_ch, .. } => *out_ch,
            OpSpec::Residual { body, .. } => out_channels(body, in_ch),
            OpSpec::Branches {
                branches,
                passthrough,
            } => {
                let mut c = if *passthrough { in_ch } else { 0 };
                for b in branches {
                    c += out_channels(b, in_ch);
                }
                c
            }
            _ => in_ch,
        }
    }

    /// Widens this op for an input of `in_ch` (already widened) channels:
    /// conv outputs are multiplied by `factor`, and conv inputs and
    /// batch-norm widths follow what flows in. Returns the channel count
    /// handed downstream.
    fn widen(&mut self, in_ch: usize, factor: usize) -> usize {
        match self {
            OpSpec::Conv {
                in_ch: conv_in,
                out_ch,
                ..
            } => {
                *conv_in = in_ch;
                *out_ch *= factor;
                *out_ch
            }
            OpSpec::BatchNorm { channels } => {
                *channels = in_ch;
                in_ch
            }
            OpSpec::Residual { body, shortcut } => {
                if let Some(s) = shortcut {
                    widen_ops(s, in_ch, factor);
                }
                widen_ops(body, in_ch, factor)
            }
            OpSpec::Branches {
                branches,
                passthrough,
            } => {
                let mut c = if *passthrough { in_ch } else { 0 };
                for b in branches {
                    c += widen_ops(b, in_ch, factor);
                }
                c
            }
            _ => in_ch,
        }
    }

    /// Number of leaf layers (modules without children) this op expands to.
    fn leaf_count(&self) -> usize {
        match self {
            OpSpec::Residual { body, shortcut } => {
                body.iter().map(OpSpec::leaf_count).sum::<usize>()
                    + shortcut
                        .as_ref()
                        .map_or(0, |s| s.iter().map(OpSpec::leaf_count).sum())
            }
            OpSpec::Branches { branches, .. } => branches
                .iter()
                .flat_map(|b| b.iter().map(OpSpec::leaf_count))
                .sum(),
            _ => 1,
        }
    }
}

fn build_ops(ops: &[OpSpec], rng: &mut SeededRng) -> Vec<Box<dyn Module>> {
    ops.iter().map(|op| op.build(rng)).collect()
}

fn widen_ops(ops: &mut [OpSpec], mut ch: usize, factor: usize) -> usize {
    for op in ops {
        ch = op.widen(ch, factor);
    }
    ch
}

fn out_channels(ops: &[OpSpec], mut ch: usize) -> usize {
    for op in ops {
        ch = op.out_channels(ch);
    }
    ch
}

/// Containers the sampler can be forced to include (see
/// [`ArchSpec::sample_with`]); used to pin coverage, e.g. INT8 campaigns on
/// residual + branch topologies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForcedTopology {
    /// Guarantee at least one [`OpSpec::Residual`] block.
    pub residual: bool,
    /// Guarantee at least one [`OpSpec::Branches`] block.
    pub branches: bool,
}

/// A fully specified random architecture: rebuildable, displayable, and
/// validated at composition time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchSpec {
    /// Input channels (1–3).
    pub in_channels: usize,
    /// Square input extent.
    pub image_hw: usize,
    /// Classifier width.
    pub num_classes: usize,
    /// Seed for weight initialization.
    pub weight_seed: u64,
    /// The sampled body; a GAP → flatten → linear head is appended on build.
    pub trunk: Vec<OpSpec>,
    /// How many invalid block proposals were rejected (via typed
    /// [`ShapeError`](crate::ShapeError)s) while sampling this spec.
    pub rejected: usize,
}

impl ArchSpec {
    /// Samples an architecture from the rng stream. The first block is
    /// always a plain convolution (so every sample has injectable neurons
    /// beyond the classifier); 1–3 further blocks draw from the full
    /// repertoire.
    pub fn sample(rng: &mut SeededRng) -> Self {
        Self::sample_with(rng, ForcedTopology::default())
    }

    /// [`ArchSpec::sample`] with guaranteed container coverage: forced
    /// blocks are inserted right after the stem conv.
    pub fn sample_with(rng: &mut SeededRng, forced: ForcedTopology) -> Self {
        let in_channels = rng.range(1, 4);
        let image_hw = if rng.chance(0.5) { 8 } else { 16 };
        let num_classes = rng.range(2, 6);
        let weight_seed = ((rng.below(1 << 32) as u64) << 32) | rng.below(1 << 32) as u64;

        let mut spec = ArchSpec {
            in_channels,
            image_hw,
            num_classes,
            weight_seed,
            trunk: Vec::new(),
            rejected: 0,
        };
        let mut ch = in_channels;
        let mut hw = image_hw;

        // Stem, forced containers, then free blocks.
        let mut plan: Vec<Option<BlockKind>> = vec![Some(BlockKind::Conv)];
        if forced.residual {
            plan.push(Some(BlockKind::Residual));
        }
        if forced.branches {
            plan.push(Some(BlockKind::Branches));
        }
        for _ in 0..rng.range(1, 4) {
            plan.push(None);
        }

        for slot in plan {
            // Reject-and-resample: a proposal may be geometrically invalid
            // (the sampler deliberately corrupts some residual bodies), in
            // which case the built tree reports a typed ShapeError and a
            // fresh block is drawn. Bounded: a plain conv block is always
            // valid, so the loop terminates.
            loop {
                let kind = slot.unwrap_or_else(|| BlockKind::pick(rng, hw));
                let block = propose_block(rng, kind, ch, hw);
                let mut candidate = spec.clone();
                candidate.trunk.extend(block.iter().cloned());
                if candidate.build_checked().is_ok() {
                    let dims = infer_trunk(&block, ch, hw);
                    spec.trunk.extend(block);
                    (ch, hw) = dims;
                    break;
                }
                spec.rejected += 1;
            }
        }
        spec
    }

    /// This architecture with every conv, batch-norm and branch width
    /// multiplied by `factor`; the network input keeps its channels. Grouped
    /// convs stay legal (every width was even), and the topology, leaf count
    /// and weight seed are unchanged.
    pub fn widened(&self, factor: usize) -> Self {
        let mut spec = self.clone();
        widen_ops(&mut spec.trunk, spec.in_channels, factor);
        spec
    }

    /// Channel count entering the classifier head.
    pub fn head_channels(&self) -> usize {
        out_channels(&self.trunk, self.in_channels)
    }

    /// Number of leaf layers including the three head layers.
    pub fn leaf_count(&self) -> usize {
        self.trunk.iter().map(OpSpec::leaf_count).sum::<usize>() + 3
    }

    /// Whether the trunk contains a residual block.
    pub fn has_residual(&self) -> bool {
        self.trunk
            .iter()
            .any(|op| matches!(op, OpSpec::Residual { .. }))
    }

    /// Whether the trunk contains a branch container.
    pub fn has_branches(&self) -> bool {
        self.trunk
            .iter()
            .any(|op| matches!(op, OpSpec::Branches { .. }))
    }

    /// Builds the network, validating shapes first; composition errors come
    /// back as typed [`ShapeError`](crate::ShapeError)s instead of panics.
    pub fn build_checked(&self) -> Result<Network, crate::shape::ShapeError> {
        let mut rng = SeededRng::new(self.weight_seed);
        let mut layers = build_ops(&self.trunk, &mut rng);
        layers.push(Box::new(GlobalAvgPool::new()));
        layers.push(Box::new(Flatten::new()));
        layers.push(Box::new(Linear::new(
            self.head_channels(),
            self.num_classes,
            &mut rng,
        )));
        let net = Network::new(Box::new(Sequential::new(layers)));
        net.infer_dims(&[1, self.in_channels, self.image_hw, self.image_hw])?;
        Ok(net)
    }

    /// Builds the network.
    ///
    /// # Panics
    ///
    /// Panics if the composition is geometrically invalid; specs produced by
    /// [`ArchSpec::sample`] never are.
    pub fn build(&self) -> Network {
        self.build_checked()
            .unwrap_or_else(|e| panic!("invalid arch spec ({self}): {e}"))
    }
}

/// Nominal `(channels, hw)` a valid block hands downstream; mirrors the
/// geometry the sampler proposes (stride-2 ops halve, pools use k=2/s=2).
fn infer_trunk(block: &[OpSpec], mut ch: usize, mut hw: usize) -> (usize, usize) {
    for op in block {
        ch = op.out_channels(ch);
        hw = match op {
            OpSpec::Conv { stride, .. } if *stride == 2 => hw / 2,
            OpSpec::MaxPool { .. } | OpSpec::AvgPool { .. } => hw / 2,
            OpSpec::Residual { body, .. } => {
                // A residual block's body sets the spatial extent.
                infer_trunk(body, 0, hw).1
            }
            _ => hw,
        };
    }
    (ch, hw)
}

/// The block repertoire the sampler draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    Conv,
    GroupedConv,
    Pool,
    Residual,
    Branches,
}

impl BlockKind {
    fn pick(rng: &mut SeededRng, hw: usize) -> Self {
        match rng.below(5) {
            0 => BlockKind::Conv,
            1 => BlockKind::GroupedConv,
            2 if hw >= 4 => BlockKind::Pool,
            3 => BlockKind::Residual,
            4 => BlockKind::Branches,
            _ => BlockKind::Conv,
        }
    }
}

/// An even channel width in `{2, 4, 6, 8}` (even keeps grouped convs legal).
fn even_width(rng: &mut SeededRng) -> usize {
    2 * rng.range(1, 5)
}

fn act(rng: &mut SeededRng) -> OpSpec {
    OpSpec::Act(ActKind::ALL[rng.below(ActKind::ALL.len())])
}

/// `conv(in->out)` preserving hw at stride 1 and halving it at stride 2.
fn conv_op(in_ch: usize, out_ch: usize, kernel: usize, stride: usize, groups: usize) -> OpSpec {
    OpSpec::Conv {
        in_ch,
        out_ch,
        kernel,
        stride,
        padding: kernel / 2,
        groups,
    }
}

fn propose_block(rng: &mut SeededRng, kind: BlockKind, ch: usize, hw: usize) -> Vec<OpSpec> {
    match kind {
        BlockKind::Conv => {
            let out = even_width(rng);
            let k = if rng.chance(0.5) { 1 } else { 3 };
            let stride = if hw >= 8 && rng.chance(0.25) { 2 } else { 1 };
            let mut ops = vec![conv_op(ch, out, k, stride, 1)];
            if rng.chance(0.4) {
                ops.push(OpSpec::BatchNorm { channels: out });
            }
            if rng.chance(0.8) {
                ops.push(act(rng));
            }
            ops
        }
        BlockKind::GroupedConv if ch.is_multiple_of(2) => {
            let out = even_width(rng);
            let mut ops = vec![conv_op(ch, out, 3, 1, 2)];
            if rng.chance(0.5) {
                ops.push(OpSpec::Shuffle { groups: 2 });
            }
            if rng.chance(0.6) {
                ops.push(act(rng));
            }
            ops
        }
        // Odd input width: grouped conv is illegal, fall back to a 1x1 that
        // evens the width out first.
        BlockKind::GroupedConv => {
            let out = even_width(rng);
            vec![conv_op(ch, out, 1, 1, 1), conv_op(out, out, 3, 1, 2)]
        }
        BlockKind::Pool => {
            if rng.chance(0.5) {
                vec![OpSpec::MaxPool {
                    kernel: 2,
                    stride: 2,
                }]
            } else {
                vec![OpSpec::AvgPool {
                    kernel: 2,
                    stride: 2,
                }]
            }
        }
        BlockKind::Residual => {
            // One in ten proposals deliberately mismatches the body width
            // against an identity shortcut, exercising the typed-rejection
            // path end to end.
            if rng.chance(0.1) {
                return vec![OpSpec::Residual {
                    body: vec![conv_op(ch, ch + 1, 3, 1, 1)],
                    shortcut: None,
                }];
            }
            if rng.chance(0.5) || hw < 8 {
                // Identity shortcut: body preserves channels and extent.
                let mut body = vec![conv_op(ch, ch, 3, 1, 1), act(rng)];
                if rng.chance(0.4) {
                    body.push(conv_op(ch, ch, 3, 1, 1));
                }
                vec![OpSpec::Residual {
                    body,
                    shortcut: None,
                }]
            } else {
                // Projection shortcut: both paths stride 2 to a new width.
                let out = even_width(rng);
                let stride = if rng.chance(0.5) { 2 } else { 1 };
                vec![OpSpec::Residual {
                    body: vec![conv_op(ch, out, 3, stride, 1), act(rng)],
                    shortcut: Some(vec![conv_op(ch, out, 1, stride, 1)]),
                }]
            }
        }
        BlockKind::Branches => {
            let n = rng.range(2, 4);
            let branches = (0..n)
                .map(|_| {
                    let out = even_width(rng);
                    let k = if rng.chance(0.5) { 1 } else { 3 };
                    let mut b = vec![conv_op(ch, out, k, 1, 1)];
                    if rng.chance(0.5) {
                        b.push(act(rng));
                    }
                    b
                })
                .collect();
            vec![OpSpec::Branches {
                branches,
                passthrough: rng.chance(0.4),
            }]
        }
    }
}

// ---- display ----------------------------------------------------------------

impl fmt::Display for ActKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ActKind::Relu => "relu",
            ActKind::LeakyRelu => "lrelu",
            ActKind::Sigmoid => "sigmoid",
            ActKind::Tanh => "tanh",
        })
    }
}

fn write_ops(f: &mut fmt::Formatter<'_>, ops: &[OpSpec]) -> fmt::Result {
    for (i, op) in ops.iter().enumerate() {
        if i > 0 {
            f.write_str(" ")?;
        }
        write!(f, "{op}")?;
    }
    Ok(())
}

impl fmt::Display for OpSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpSpec::Conv {
                in_ch,
                out_ch,
                kernel,
                stride,
                groups,
                ..
            } => {
                write!(f, "c{in_ch}>{out_ch}k{kernel}")?;
                if *stride != 1 {
                    write!(f, "s{stride}")?;
                }
                if *groups != 1 {
                    write!(f, "g{groups}")?;
                }
                Ok(())
            }
            OpSpec::BatchNorm { .. } => f.write_str("bn"),
            OpSpec::Act(a) => write!(f, "{a}"),
            OpSpec::MaxPool { .. } => f.write_str("max2"),
            OpSpec::AvgPool { .. } => f.write_str("avg2"),
            OpSpec::Shuffle { groups } => write!(f, "shuf{groups}"),
            OpSpec::Residual { body, shortcut } => {
                f.write_str("res(")?;
                write_ops(f, body)?;
                if let Some(s) = shortcut {
                    f.write_str(" | ")?;
                    write_ops(f, s)?;
                }
                f.write_str(")")
            }
            OpSpec::Branches {
                branches,
                passthrough,
            } => {
                f.write_str("br[")?;
                for (i, b) in branches.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write_ops(f, b)?;
                }
                f.write_str("]")?;
                if *passthrough {
                    f.write_str("+in")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for ArchSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{} ->",
            self.in_channels, self.image_hw, self.image_hw
        )?;
        for op in &self.trunk {
            write!(f, " {op}")?;
        }
        write!(
            f,
            " -> gap fc>{} (w{:#x})",
            self.num_classes, self.weight_seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustfi_tensor::Tensor;

    #[test]
    fn sampling_is_deterministic() {
        let a = ArchSpec::sample(&mut SeededRng::new(42));
        let b = ArchSpec::sample(&mut SeededRng::new(42));
        assert_eq!(a.trunk, b.trunk);
        assert_eq!(a.weight_seed, b.weight_seed);
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn samples_build_and_forward_at_the_inferred_shape() {
        for seed in 0..40u64 {
            let spec = ArchSpec::sample(&mut SeededRng::new(seed));
            let mut net = spec.build();
            let dims = [2, spec.in_channels, spec.image_hw, spec.image_hw];
            let inferred = net.infer_dims(&dims).expect("sampled specs are valid");
            assert_eq!(inferred, vec![2, spec.num_classes], "{spec}");
            let y = net.forward(&Tensor::from_fn(&dims, |i| (i as f32 * 0.03).sin()));
            assert_eq!(y.dims(), &inferred[..], "{spec}");
            assert!(
                net.injectable_layers().len() >= 2,
                "{spec} should have a stem conv plus the classifier"
            );
        }
    }

    #[test]
    fn identical_seeds_give_identical_networks() {
        let spec = ArchSpec::sample(&mut SeededRng::new(7));
        let mut a = spec.build();
        let mut b = spec.build();
        let x = Tensor::from_fn(&[1, spec.in_channels, spec.image_hw, spec.image_hw], |i| {
            (i as f32 * 0.11).cos()
        });
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn forced_topology_guarantees_containers() {
        for seed in 0..10u64 {
            let spec = ArchSpec::sample_with(
                &mut SeededRng::new(seed),
                ForcedTopology {
                    residual: true,
                    branches: true,
                },
            );
            assert!(spec.has_residual(), "{spec}");
            assert!(spec.has_branches(), "{spec}");
            spec.build();
        }
    }

    #[test]
    fn widened_samples_build_with_every_width_scaled() {
        for seed in 0..40u64 {
            let spec = ArchSpec::sample(&mut SeededRng::new(seed));
            let wide = spec.widened(4);
            assert_eq!(wide.leaf_count(), spec.leaf_count());
            assert_eq!(wide.head_channels(), 4 * spec.head_channels());
            let mut net = wide
                .build_checked()
                .unwrap_or_else(|e| panic!("{wide}: {e}"));
            let x = Tensor::zeros(&[1, wide.in_channels, wide.image_hw, wide.image_hw]);
            assert_eq!(net.forward(&x).dims(), &[1, wide.num_classes]);
        }
    }

    #[test]
    fn sampler_exercises_the_rejection_path() {
        // Across enough seeds the deliberate residual corruption must fire
        // at least once — proving invalid proposals are rejected via the
        // typed validator rather than by panicking.
        let rejected: usize = (0..60u64)
            .map(|s| ArchSpec::sample(&mut SeededRng::new(s)).rejected)
            .sum();
        assert!(rejected > 0, "corrupted proposals should have been drawn");
    }
}
