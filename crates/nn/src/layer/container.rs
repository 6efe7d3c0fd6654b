//! Container modules that compose layers into topologies: [`Sequential`],
//! [`Residual`] (skip connections), [`Branches`] (parallel paths concatenated
//! along channels, as in Inception/SqueezeNet), and [`ChannelShuffle`]
//! (ShuffleNet's group-mixing permutation).

use crate::module::{
    meta_accessors, BackwardCtx, ForwardCtx, FusePartner, LayerKind, LayerMeta, Module,
};
use rustfi_tensor::{Act, Tensor};

/// Runs children in order, feeding each output to the next child.
pub struct Sequential {
    pub(crate) meta: LayerMeta,
    children: Vec<Box<dyn Module>>,
}

impl Sequential {
    /// Creates a sequential container.
    pub fn new(children: Vec<Box<dyn Module>>) -> Self {
        Self {
            meta: LayerMeta::default(),
            children,
        }
    }

    /// Appends a child.
    pub fn push(&mut self, child: Box<dyn Module>) {
        self.children.push(child);
    }

    /// Number of direct children.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Whether the container has no children.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Attempts to run the fusion group led by child `i`: a conv followed by
    /// an optional batch norm and an optional activation. Only a conv leads
    /// a group, because it is the only layer with a fused forward:
    /// [`ForwardCtx::forward_child_fused`] fires the capture tap and opens a
    /// span before the leader runs, so a leader that declined would have
    /// both fire again on the fallback dispatch. Fuses only when no group
    /// member has forward hooks — an injection or profiling hook on any
    /// member forces the unfused, hook-visible order. Returns the group
    /// output and how many children it consumed, or `None` to fall back to
    /// plain child-at-a-time dispatch.
    fn try_forward_fused(
        &mut self,
        i: usize,
        input: &Tensor,
        ctx: &mut ForwardCtx<'_>,
    ) -> Option<(Tensor, usize)> {
        if self.children[i].kind() != LayerKind::Conv2d
            || ctx.layer_has_hooks(self.children[i].meta().id)
        {
            return None;
        }
        let mut j = i + 1;
        let mut bn_child = None;
        if self
            .children
            .get(j)
            .is_some_and(|c| c.fuse_partner() == Some(FusePartner::BatchNorm))
            && !ctx.layer_has_hooks(self.children[j].meta().id)
        {
            bn_child = Some(j);
            j += 1;
        }
        let mut act = Act::None;
        if let Some(partner) = self.children.get(j).and_then(|c| c.fuse_partner()) {
            let absorbed = match partner {
                FusePartner::Relu => {
                    act = Act::Relu;
                    true
                }
                FusePartner::LeakyRelu(slope) => {
                    act = Act::LeakyRelu(slope);
                    true
                }
                FusePartner::BatchNorm => false,
            };
            if absorbed {
                if ctx.layer_has_hooks(self.children[j].meta().id) {
                    act = Act::None;
                } else {
                    j += 1;
                }
            }
        }
        if bn_child.is_none() && act == Act::None {
            return None;
        }
        let consumed = j - i;
        // Borrow the leader and the batch-norm partner simultaneously: they
        // are disjoint children.
        let (head, tail) = self.children.split_at_mut(i + 1);
        let leader = head[i].as_mut();
        let bn = bn_child.map(|b| {
            tail[b - (i + 1)]
                .bn_fold()
                .expect("BatchNorm partner provides a fold")
        });
        let out = ctx.forward_child_fused(leader, input, bn, act)?;
        Some((out, consumed))
    }
}

impl Module for Sequential {
    meta_accessors!();

    fn kind(&self) -> LayerKind {
        LayerKind::Sequential
    }

    fn infer_dims(&self, input: &[usize]) -> Result<Vec<usize>, crate::shape::ShapeError> {
        let mut dims = input.to_vec();
        for child in &self.children {
            dims = child.infer_dims(&dims)?;
        }
        Ok(dims)
    }

    /// Runs the children in order, fusing `conv → [bn] → [act]` groups when
    /// a compiled plan is active. A pass that starts inside this container
    /// begins at the child holding its start. An empty container returns a
    /// pooled copy of `input`.
    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx<'_>) -> Tensor {
        let mut i = ctx.first_child(&self.children);
        // `None` means `input` is still the current activation.
        let mut x: Option<Tensor> = None;
        while i < self.children.len() {
            let cur = x.as_ref().unwrap_or(input);
            let (next, consumed) = if ctx.plan_active() {
                match self.try_forward_fused(i, cur, ctx) {
                    Some(fused) => fused,
                    None => (ctx.forward_child(self.children[i].as_mut(), cur), 1),
                }
            } else {
                (ctx.forward_child(self.children[i].as_mut(), cur), 1)
            };
            // Each intermediate is dead once the next child has consumed it;
            // retire it so the following forward of this shape recycles it.
            if let Some(old) = x.replace(next) {
                old.into_pool();
            }
            i += consumed;
        }
        x.unwrap_or_else(|| input.pooled_copy())
    }

    fn backward(&mut self, grad_out: &Tensor, ctx: &mut BackwardCtx<'_>) -> Tensor {
        let mut children = self.children.iter_mut().rev();
        let Some(first) = children.next() else {
            return grad_out.pooled_copy();
        };
        let mut g = ctx.backward_child(first.as_mut(), grad_out);
        for child in children {
            let next = ctx.backward_child(child.as_mut(), &g);
            std::mem::replace(&mut g, next).into_pool();
        }
        g
    }

    fn children(&self) -> &[Box<dyn Module>] {
        &self.children
    }

    fn children_mut(&mut self) -> &mut [Box<dyn Module>] {
        &mut self.children
    }
}

/// `y = body(x) + shortcut(x)`; the shortcut defaults to identity.
///
/// This is the residual connection of ResNet-style networks. The shortcut,
/// when present, is typically a 1×1 strided convolution matching shapes.
pub struct Residual {
    pub(crate) meta: LayerMeta,
    /// The body, then the projection shortcut when there is one.
    paths: Vec<Box<dyn Module>>,
}

impl Residual {
    /// A residual block with identity shortcut.
    pub fn new(body: Box<dyn Module>) -> Self {
        Self {
            meta: LayerMeta::default(),
            paths: vec![body],
        }
    }

    /// A residual block with a projection shortcut.
    pub fn with_shortcut(body: Box<dyn Module>, shortcut: Box<dyn Module>) -> Self {
        Self {
            meta: LayerMeta::default(),
            paths: vec![body, shortcut],
        }
    }
}

impl Module for Residual {
    meta_accessors!();

    fn kind(&self) -> LayerKind {
        LayerKind::Residual
    }

    fn infer_dims(&self, input: &[usize]) -> Result<Vec<usize>, crate::shape::ShapeError> {
        let body = self.paths[0].infer_dims(input)?;
        let skip = match self.paths.get(1) {
            Some(s) => s.infer_dims(input)?,
            None => input.to_vec(),
        };
        if body != skip {
            return Err(crate::shape::ShapeError::ResidualMismatch {
                layer: crate::shape::layer_label(&self.meta, LayerKind::Residual),
                body,
                shortcut: skip,
            });
        }
        Ok(body)
    }

    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx<'_>) -> Tensor {
        let mut main = ctx.forward_child(self.paths[0].as_mut(), input);
        // Sum in place into the body output; the projection output (when
        // any) is dead afterwards, so it goes back to the pool.
        match self.paths.get_mut(1) {
            Some(s) => {
                let skip = ctx.forward_child(s.as_mut(), input);
                assert_eq!(
                    main.dims(),
                    skip.dims(),
                    "residual block {}: body output {:?} does not match shortcut {:?}",
                    self.meta.name,
                    main.dims(),
                    skip.dims()
                );
                main.add_assign(&skip);
                skip.into_pool();
            }
            None => {
                assert_eq!(
                    main.dims(),
                    input.dims(),
                    "residual block {}: body output {:?} does not match shortcut {:?}",
                    self.meta.name,
                    main.dims(),
                    input.dims()
                );
                main.add_assign(input);
            }
        }
        main
    }

    fn backward(&mut self, grad_out: &Tensor, ctx: &mut BackwardCtx<'_>) -> Tensor {
        let mut g_body = ctx.backward_child(self.paths[0].as_mut(), grad_out);
        match self.paths.get_mut(1) {
            Some(s) => {
                let g_skip = ctx.backward_child(s.as_mut(), grad_out);
                g_body.add_assign(&g_skip);
                g_skip.into_pool();
            }
            None => g_body.add_assign(grad_out),
        }
        g_body
    }

    fn children(&self) -> &[Box<dyn Module>] {
        &self.paths
    }

    fn children_mut(&mut self) -> &mut [Box<dyn Module>] {
        &mut self.paths
    }
}

/// Runs branches on the same input and concatenates their outputs along the
/// channel axis (Inception modules, SqueezeNet expand paths, DenseNet-style
/// feature reuse).
pub struct Branches {
    pub(crate) meta: LayerMeta,
    branches: Vec<Box<dyn Module>>,
    /// Channel widths of each branch output, cached for backward splitting.
    split_sizes: Vec<usize>,
    /// When true, the input itself is prepended as branch 0's output
    /// (DenseNet concatenation).
    include_input: bool,
}

impl Branches {
    /// Creates a parallel-branch container.
    ///
    /// # Panics
    ///
    /// Panics if `branches` is empty.
    pub fn new(branches: Vec<Box<dyn Module>>) -> Self {
        assert!(!branches.is_empty(), "Branches needs at least one branch");
        Self {
            meta: LayerMeta::default(),
            branches,
            split_sizes: Vec::new(),
            include_input: false,
        }
    }

    /// Creates a container that concatenates `[input, branch outputs...]` —
    /// the DenseNet pattern `y = concat(x, f(x))`.
    pub fn with_input_passthrough(branches: Vec<Box<dyn Module>>) -> Self {
        let mut b = Self::new(branches);
        b.include_input = true;
        b
    }
}

impl Module for Branches {
    meta_accessors!();

    fn kind(&self) -> LayerKind {
        LayerKind::Branches
    }

    fn infer_dims(&self, input: &[usize]) -> Result<Vec<usize>, crate::shape::ShapeError> {
        let label = || crate::shape::layer_label(&self.meta, LayerKind::Branches);
        let mut shapes = Vec::with_capacity(self.branches.len() + 1);
        if self.include_input {
            shapes.push(input.to_vec());
        }
        for b in &self.branches {
            shapes.push(b.infer_dims(input)?);
        }
        let first = shapes.first().expect("at least one branch").clone();
        if first.len() != 4 {
            return Err(crate::shape::ShapeError::WrongRank {
                layer: label(),
                expected: 4,
                got: first,
            });
        }
        let mut channels = 0;
        for s in &shapes {
            // Concatenation needs identical batch and spatial extents.
            if s.len() != 4 || s[0] != first[0] || s[2] != first[2] || s[3] != first[3] {
                return Err(crate::shape::ShapeError::BranchMismatch {
                    layer: label(),
                    first,
                    other: s.clone(),
                });
            }
            channels += s[1];
        }
        Ok(vec![first[0], channels, first[2], first[3]])
    }

    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx<'_>) -> Tensor {
        let mut outputs = Vec::with_capacity(self.branches.len() + 1);
        if self.include_input {
            outputs.push(input.pooled_copy());
        }
        for b in &mut self.branches {
            outputs.push(ctx.forward_child(b.as_mut(), input));
        }
        self.split_sizes.clear();
        self.split_sizes.extend(outputs.iter().map(|o| o.dims4().1));
        let out = Tensor::concat_channels(&outputs);
        for o in outputs {
            o.into_pool();
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor, ctx: &mut BackwardCtx<'_>) -> Tensor {
        assert!(
            !self.split_sizes.is_empty(),
            "Branches::backward called before forward"
        );
        let parts = grad_out.split_channels(&self.split_sizes);
        let mut parts = parts.into_iter();
        let mut grad_in = if self.include_input {
            Some(parts.next().expect("passthrough gradient"))
        } else {
            None
        };
        for b in &mut self.branches {
            let part = parts.next().expect("one gradient per branch");
            let g = ctx.backward_child(b.as_mut(), &part);
            part.into_pool();
            match &mut grad_in {
                Some(acc) => {
                    acc.add_assign(&g);
                    g.into_pool();
                }
                None => grad_in = Some(g),
            }
        }
        grad_in.expect("at least one branch")
    }

    fn children(&self) -> &[Box<dyn Module>] {
        &self.branches
    }

    fn children_mut(&mut self) -> &mut [Box<dyn Module>] {
        &mut self.branches
    }
}

/// ShuffleNet channel shuffle: reshapes `[g, c/g]` channel groups to
/// `[c/g, g]`, mixing information across grouped convolutions.
pub struct ChannelShuffle {
    pub(crate) meta: LayerMeta,
    groups: usize,
}

impl ChannelShuffle {
    /// Creates a channel shuffle over `groups` groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups == 0`.
    pub fn new(groups: usize) -> Self {
        assert!(groups > 0, "groups must be positive");
        Self {
            meta: LayerMeta::default(),
            groups,
        }
    }

    fn permute(&self, input: &Tensor, inverse: bool) -> Tensor {
        let (n, c, _h, _w) = input.dims4();
        assert_eq!(
            c % self.groups,
            0,
            "channel shuffle: {c} channels not divisible by {} groups",
            self.groups
        );
        let per = c / self.groups;
        // The permutation is a bijection over channels, so every element of
        // the output is written: stale pool contents are fine.
        let mut out = Tensor::from_pool(input.dims());
        for bn in 0..n {
            for ch in 0..c {
                // forward: out[j * g + i] = in[i * per + j] for group i, member j
                let (src, dst) = if !inverse {
                    let i = ch / per;
                    let j = ch % per;
                    (ch, j * self.groups + i)
                } else {
                    let j = ch / self.groups;
                    let i = ch % self.groups;
                    (ch, i * per + j)
                };
                out.fmap_mut(bn, dst).copy_from_slice(input.fmap(bn, src));
            }
        }
        out
    }
}

impl Module for ChannelShuffle {
    meta_accessors!();

    fn kind(&self) -> LayerKind {
        LayerKind::ChannelShuffle
    }

    fn infer_dims(&self, input: &[usize]) -> Result<Vec<usize>, crate::shape::ShapeError> {
        let label = || crate::shape::layer_label(&self.meta, LayerKind::ChannelShuffle);
        let &[_n, c, _h, _w] = input else {
            return Err(crate::shape::ShapeError::WrongRank {
                layer: label(),
                expected: 4,
                got: input.to_vec(),
            });
        };
        if c % self.groups != 0 {
            return Err(crate::shape::ShapeError::GroupMismatch {
                layer: label(),
                channels: c,
                groups: self.groups,
            });
        }
        Ok(input.to_vec())
    }

    fn forward(&mut self, input: &Tensor, _ctx: &mut ForwardCtx<'_>) -> Tensor {
        self.permute(input, false)
    }

    fn backward(&mut self, grad_out: &Tensor, _ctx: &mut BackwardCtx<'_>) -> Tensor {
        self.permute(grad_out, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Conv2d, Relu};
    use crate::module::Network;
    use rustfi_tensor::{ConvSpec, SeededRng, Tensor};

    #[test]
    fn sequential_composes_in_order() {
        let mut net = Network::new(Box::new(Sequential::new(vec![
            Box::new(Relu::new()),
            Box::new(Relu::new()),
        ])));
        let y = net.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[2]));
        assert_eq!(y.data(), &[0.0, 2.0]);
    }

    #[test]
    fn residual_identity_adds_input() {
        // Body is ReLU; input is positive so y = x + x.
        let mut net = Network::new(Box::new(Residual::new(Box::new(Relu::new()))));
        let x = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        assert_eq!(net.forward(&x).data(), &[2.0, 4.0]);
    }

    #[test]
    fn residual_backward_sums_paths() {
        let mut net = Network::new(Box::new(Residual::new(Box::new(Relu::new()))));
        net.forward(&Tensor::from_vec(vec![1.0, -1.0], &[2]));
        let g = net.backward(&Tensor::from_vec(vec![1.0, 1.0], &[2]));
        // Positive input: grad via relu (1) + skip (1) = 2; negative: 0 + 1.
        assert_eq!(g.data(), &[2.0, 1.0]);
    }

    #[test]
    fn residual_with_projection_shortcut() {
        let mut rng = SeededRng::new(1);
        let body = Sequential::new(vec![Box::new(Conv2d::new(
            2,
            4,
            3,
            ConvSpec::new().padding(1).stride(2),
            &mut rng,
        ))]);
        let shortcut = Conv2d::new(2, 4, 1, ConvSpec::new().stride(2), &mut rng);
        let mut net = Network::new(Box::new(Residual::with_shortcut(
            Box::new(body),
            Box::new(shortcut),
        )));
        let y = net.forward(&Tensor::ones(&[1, 2, 8, 8]));
        assert_eq!(y.dims(), &[1, 4, 4, 4]);
        // Backward runs without shape errors and produces input-shaped grads.
        let g = net.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), &[1, 2, 8, 8]);
    }

    #[test]
    fn branches_concat_channels() {
        let mut rng = SeededRng::new(2);
        let b1 = Conv2d::new(2, 3, 1, ConvSpec::new(), &mut rng);
        let b2 = Conv2d::new(2, 5, 1, ConvSpec::new(), &mut rng);
        let mut net = Network::new(Box::new(Branches::new(vec![Box::new(b1), Box::new(b2)])));
        let y = net.forward(&Tensor::ones(&[1, 2, 4, 4]));
        assert_eq!(y.dims(), &[1, 8, 4, 4]);
        let g = net.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), &[1, 2, 4, 4]);
    }

    #[test]
    fn branches_passthrough_densenet_pattern() {
        let mut rng = SeededRng::new(3);
        let grow = Conv2d::new(2, 4, 3, ConvSpec::new().padding(1), &mut rng);
        let mut net = Network::new(Box::new(Branches::with_input_passthrough(vec![Box::new(
            grow,
        )])));
        let x = Tensor::ones(&[1, 2, 4, 4]);
        let y = net.forward(&x);
        assert_eq!(y.dims(), &[1, 6, 4, 4]);
        // First two channels are the input itself.
        assert_eq!(y.fmap(0, 0), x.fmap(0, 0));
        assert_eq!(y.fmap(0, 1), x.fmap(0, 1));
        let g = net.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn channel_shuffle_permutes_and_inverts() {
        let shuffle = ChannelShuffle::new(2);
        let x = Tensor::from_fn(&[1, 4, 1, 1], |i| i as f32);
        let y = shuffle.permute(&x, false);
        // Groups [0,1] and [2,3] interleave to [0,2,1,3].
        assert_eq!(y.data(), &[0.0, 2.0, 1.0, 3.0]);
        let back = shuffle.permute(&y, true);
        assert_eq!(back, x);
    }

    #[test]
    fn channel_shuffle_backward_is_inverse_permutation() {
        let mut net = Network::new(Box::new(ChannelShuffle::new(3)));
        let x = Tensor::from_fn(&[2, 6, 2, 2], |i| i as f32);
        let y = net.forward(&x);
        let g = net.backward(&y);
        assert_eq!(g, x, "shuffling then unshuffling is the identity");
    }

    #[test]
    fn resume_point_stops_at_non_sequential_containers() {
        let mut rng = SeededRng::new(5);
        // seq [ conv, residual { seq [ conv ] }, seq [ conv ] ]
        let body = Sequential::new(vec![Box::new(Conv2d::new(
            2,
            2,
            3,
            ConvSpec::new().padding(1),
            &mut rng,
        ))]);
        let inner = Sequential::new(vec![Box::new(Conv2d::new(
            2,
            2,
            1,
            ConvSpec::new(),
            &mut rng,
        ))]);
        let mut net = Network::new(Box::new(Sequential::new(vec![
            Box::new(Conv2d::new(2, 2, 1, ConvSpec::new(), &mut rng)),
            Box::new(Residual::new(Box::new(body))),
            Box::new(inner),
        ])));
        let inj = net.injectable_layers();
        assert_eq!(inj.len(), 3);
        // First conv is on the spine: its own input can be cached.
        assert_eq!(net.resume_point(inj[0]), Some(inj[0]));
        // Conv inside the residual: resumption needs the residual's input
        // (the skip path consumes it too), so the block is the resume point.
        let residual_id = net
            .layer_infos()
            .iter()
            .find(|l| l.kind == LayerKind::Residual)
            .unwrap()
            .id;
        assert_eq!(net.resume_point(inj[1]), Some(residual_id));
        // Conv inside a nested sequential: the descent continues through it.
        assert_eq!(net.resume_point(inj[2]), Some(inj[2]));
        // Broadcasting at the residual interior conv resumes at the block on
        // the repeated input, so it equals the repeated-input pass.
        let x = Tensor::from_fn(&[1, 2, 5, 5], |i| (i as f32 * 0.23).sin());
        let mut act = None;
        net.forward_with_capture(&x, &mut |id, input| {
            if id == residual_id {
                act = Some(input.clone());
            }
        });
        let act = act.unwrap();
        let repeated = net
            .forward_from(Some(inj[1]), &act.repeat_batch(3), None)
            .unwrap();
        let broadcast = net.forward_from(Some(residual_id), &act, Some((inj[1], 3)));
        assert_eq!(broadcast, Some(repeated));
    }

    #[test]
    fn forward_from_matches_full_forward_through_nested_topologies() {
        let build = || {
            let mut rng = SeededRng::new(6);
            let body = Sequential::new(vec![
                Box::new(Conv2d::new(2, 2, 3, ConvSpec::new().padding(1), &mut rng))
                    as Box<dyn Module>,
                Box::new(Relu::new()),
            ]);
            let tail =
                Sequential::new(vec![
                    Box::new(Conv2d::new(2, 3, 1, ConvSpec::new(), &mut rng)) as Box<dyn Module>,
                ]);
            Network::new(Box::new(Sequential::new(vec![
                Box::new(Conv2d::new(2, 2, 1, ConvSpec::new(), &mut rng)),
                Box::new(Residual::new(Box::new(body))),
                Box::new(tail),
            ])))
        };
        let mut net = build();
        let x = rustfi_tensor::Tensor::from_fn(&[1, 2, 5, 5], |i| (i as f32 * 0.37).sin());
        for target in net.injectable_layers() {
            let resume = net.resume_point(target).unwrap();
            let mut cached = None;
            let full = net.forward_with_capture(&x, &mut |id, input| {
                if id == resume {
                    cached = Some(input.clone());
                }
            });
            let resumed = net
                .forward_from(Some(target), &cached.unwrap(), None)
                .unwrap();
            assert_eq!(resumed, full, "resume at {resume} for target {target}");
        }
    }

    /// A spine exercising every fusion shape — conv+bn+relu, conv+leaky, a
    /// conv+relu inside a residual block and a bare conv — then a
    /// linear+relu tail, which runs unfused (plans cover convolutions only),
    /// with non-trivial BN running stats.
    fn plan_test_net() -> crate::module::Network {
        use crate::layer::{BatchNorm2d, Flatten, LeakyRelu, Linear};
        let mut rng = SeededRng::new(11);
        let block = Sequential::new(vec![
            Box::new(Conv2d::new(8, 8, 3, ConvSpec::new().padding(1), &mut rng)),
            Box::new(Relu::new()),
        ]);
        let mut net = crate::module::Network::new(Box::new(Sequential::new(vec![
            Box::new(Conv2d::new(3, 8, 3, ConvSpec::new().padding(1), &mut rng)),
            Box::new(BatchNorm2d::new(8)),
            Box::new(Relu::new()),
            Box::new(Conv2d::new(
                8,
                8,
                3,
                ConvSpec::new().padding(1).stride(2),
                &mut rng,
            )),
            Box::new(LeakyRelu::new(0.1)),
            Box::new(Residual::new(Box::new(block))),
            Box::new(Conv2d::new(8, 4, 1, ConvSpec::new(), &mut rng)),
            Box::new(Flatten::new()),
            Box::new(Linear::new(4 * 3 * 3, 5, &mut rng)),
            Box::new(Relu::new()),
        ])));
        // Give the batch norm non-trivial running statistics.
        net.set_training(true);
        let warm = Tensor::from_fn(&[4, 3, 6, 6], |i| (i as f32 * 0.29).sin() * 2.0);
        net.forward(&warm);
        net.set_training(false);
        net
    }

    fn plan_test_input() -> Tensor {
        Tensor::from_fn(&[2, 3, 6, 6], |i| (i as f32 * 0.41).cos())
    }

    #[test]
    fn planned_forward_is_bit_identical_f32() {
        let mut net = plan_test_net();
        let x = plan_test_input();
        let unplanned = net.forward(&x);
        net.set_plan(true);
        assert!(net.plan());
        let cold = net.forward(&x);
        let warm = net.forward(&x);
        assert_eq!(cold, unplanned, "first planned pass (packs panels)");
        assert_eq!(warm, unplanned, "warm planned pass");
    }

    #[test]
    fn planned_forward_is_bit_identical_int8() {
        use crate::quantized::{Backend, CalibrationTable};
        use std::sync::Arc;
        let mut net = plan_test_net();
        let x = plan_test_input();
        let table = CalibrationTable::calibrate(&mut net, std::slice::from_ref(&x));
        net.set_backend(Backend::Int8(Arc::new(table)));
        let unplanned = net.forward(&x);
        net.set_plan(true);
        assert_eq!(net.forward(&x), unplanned, "planned int8 pass");
        assert_eq!(net.forward(&x), unplanned, "warm planned int8 pass");
    }

    #[test]
    fn hooked_group_member_forces_unfused_order() {
        use crate::module::LayerKind;
        let mut net = plan_test_net();
        let x = plan_test_input();
        // Hook on the first Relu (a fusion partner): mutates the
        // activation, so fused and unfused passes only agree if the plan
        // stands down for that group and the hook actually fires.
        let relu_id = net
            .layer_infos()
            .iter()
            .find(|l| l.kind == LayerKind::Relu)
            .unwrap()
            .id;
        let handle = net.hooks().register_forward(relu_id, |_, out| {
            for v in out.data_mut() {
                *v += 0.25;
            }
        });
        let hooked_unplanned = net.forward(&x);
        net.set_plan(true);
        assert_eq!(
            net.forward(&x),
            hooked_unplanned,
            "hooked partner runs unfused and the hook fires"
        );
        // Removing the hook re-enables fusion, and the result matches the
        // plain (un-hooked) unplanned pass again.
        net.hooks().remove(handle);
        net.set_plan(false);
        let plain = net.forward(&x);
        net.set_plan(true);
        assert_eq!(net.forward(&x), plain);
    }

    #[test]
    fn planned_weight_fault_repacks_and_undo_restores() {
        use crate::quantized::{Backend, CalibrationTable};
        use std::sync::Arc;
        let x = plan_test_input();
        // The strided conv repacks its panels; the final linear has none and
        // runs its reference forward under the plan.
        let inj = plan_test_net().injectable_layers();
        for target in [inj[1], inj[inj.len() - 1]] {
            let mut net = plan_test_net();
            net.set_plan(true);
            let blessed = net.forward(&x);
            let original = {
                let w = net.layer_weight_mut(target).unwrap();
                let v = w.data()[7];
                w.data_mut()[7] = v * -3.5;
                v
            };
            let faulty = net.forward(&x);
            assert_ne!(faulty, blessed, "{target}: the fault shows");
            net.set_plan(false);
            assert_eq!(net.forward(&x), faulty, "{target}: planned == unplanned");
            net.set_plan(true);
            // Exact undo reproduces the blessed pass bit for bit (the conv
            // through its repacked panels).
            net.layer_weight_mut(target).unwrap().data_mut()[7] = original;
            assert_eq!(net.forward(&x), blessed, "{target}: undo restores");

            // INT8: a stored-word fault (in the conv, one panel slot, never
            // a repack) matches the unplanned integer path, and its undo
            // restores the blessed pass.
            let table = CalibrationTable::calibrate(&mut net, std::slice::from_ref(&x));
            net.set_backend(Backend::Int8(Arc::new(table)));
            let blessed = net.forward(&x);
            let word = net.layer_qweight(target).unwrap().data()[7];
            assert!(net.set_layer_qweight_word(target, 7, (word as u8 ^ 0x20) as i8));
            let faulty = net.forward(&x);
            assert_ne!(faulty, blessed, "{target}: the fault shows");
            net.set_plan(false);
            assert_eq!(
                net.forward(&x),
                faulty,
                "{target}: int8 planned == unplanned"
            );
            net.set_plan(true);
            assert!(net.set_layer_qweight_word(target, 7, word));
            assert_eq!(net.forward(&x), blessed, "{target}: int8 undo restores");
        }
    }

    #[test]
    fn planned_forward_from_and_broadcast_match_full_pass() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let mut net = plan_test_net();
        let x = plan_test_input();
        let x1 = x.select_batch(0);
        for plan in [false, true] {
            net.set_plan(plan);
            for target in net.injectable_layers() {
                let resume = net.resume_point(target).unwrap();
                let mut at_resume = None;
                let mut taps = Vec::new();
                let full = net.forward_with_capture(&x, &mut |id, input| {
                    taps.push(id);
                    if id == resume {
                        at_resume = Some(input.clone());
                    }
                });
                // Each module is tapped at most once: a group leader that
                // declined to fuse would be tapped again by its fallback
                // dispatch.
                let mut unique = taps.clone();
                unique.sort();
                unique.dedup();
                assert_eq!(unique.len(), taps.len(), "tapped twice: {taps:?}");
                let resumed = net
                    .forward_from(Some(target), &at_resume.unwrap(), None)
                    .unwrap();
                assert_eq!(resumed, full, "forward_from at {target}, plan {plan}");

                // From the network input, an unhooked target still breaks
                // its fusion group to broadcast at its own dispatch.
                let plain = net.forward(&x1.repeat_batch(3));
                let from_input = net.forward_from(None, &x1, Some((target, 3)));
                assert_eq!(from_input, Some(plain), "unhooked {target}, plan {plan}");

                // A batch-1 activation broadcast to 3 slices. The hook
                // records the batch it sees and perturbs each slice
                // differently, so the downstream layers must see its
                // per-slice writes.
                let mut act = None;
                net.forward_with_capture(&x1, &mut |id, input| {
                    if id == resume {
                        act = Some(input.clone());
                    }
                });
                let act = act.unwrap();
                let seen = Arc::new(AtomicUsize::new(0));
                let s = Arc::clone(&seen);
                let hook = net.hooks().register_forward(target, move |_, out| {
                    let n = out.dims()[0];
                    s.store(n, Ordering::Relaxed);
                    let stride = out.len() / n;
                    for b in 0..n {
                        out.data_mut()[b * stride] += b as f32;
                    }
                });
                let repeated = net
                    .forward_from(Some(target), &act.repeat_batch(3), None)
                    .unwrap();
                seen.store(0, Ordering::Relaxed);
                let broadcast = net
                    .forward_from(Some(resume), &act, Some((target, 3)))
                    .unwrap();
                assert_eq!(broadcast, repeated, "resumed broadcast at {target}");
                assert_eq!(seen.load(Ordering::Relaxed), 3, "{target}'s hook batch");

                // The same pass from the network input: batch 1 up to the
                // target on the spine, the repeated input around a
                // residual-interior one.
                let whole = net.forward(&x1.repeat_batch(3));
                assert_eq!(whole, repeated, "{target}: a golden prefix resumes exactly");
                seen.store(0, Ordering::Relaxed);
                let from_input = net.forward_from(None, &x1, Some((target, 3)));
                assert_eq!(from_input, Some(whole), "from the input at {target}");
                assert_eq!(seen.load(Ordering::Relaxed), 3, "{target}'s hook batch");
                net.hooks().remove(hook);
            }
        }
    }

    #[test]
    fn plan_stands_down_for_training_passes() {
        let mut net = plan_test_net();
        let x = plan_test_input();
        net.set_plan(true);
        net.set_training(true);
        // Training forward must run unplanned (batch stats, caches) so a
        // backward pass still works end to end.
        let y = net.forward(&x);
        let g = net.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn nested_find_mut_reaches_deep_layers() {
        let mut rng = SeededRng::new(4);
        let inner = Sequential::new(vec![Box::new(Conv2d::new(
            1,
            1,
            1,
            ConvSpec::new(),
            &mut rng,
        ))]);
        let outer = Sequential::new(vec![Box::new(Relu::new()), Box::new(inner)]);
        let mut net = Network::new(Box::new(outer));
        let conv_id = net.injectable_layers()[0];
        assert!(net.layer_weight_mut(conv_id).is_some());
    }
}
