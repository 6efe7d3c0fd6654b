//! Property-based tests (proptest) of the stack's core invariants.

use proptest::prelude::*;
use rustfi::{
    models, BatchSelect, Campaign, CampaignConfig, FaultMode, NeuronSelect, PerturbationModel,
    WeightSelect,
};
use rustfi_bench::fuzz::{self, CaseFixture};
use rustfi_nn::{zoo, LayerId, LayerKind, ZooConfig};
use rustfi_quant::int8;
use rustfi_tensor::{bits, qkernels, SeededRng, Tensor};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantize→dequantize error is at most half a step for in-range values.
    #[test]
    fn int8_roundtrip_error_bounded(x in -100.0f32..100.0, max_abs in 100.0f32..1000.0) {
        let scale = qkernels::scale_for_max_abs(max_abs);
        let err = (int8::fake_quantize(x, scale) - x).abs();
        prop_assert!(err <= scale / 2.0 + 1e-5);
    }

    /// Quantization clamps out-of-range values to the representable max.
    #[test]
    fn int8_clamps(x in prop::num::f32::NORMAL, max_abs in 0.1f32..10.0) {
        let scale = qkernels::scale_for_max_abs(max_abs);
        let q = qkernels::quantize_one(x, scale);
        prop_assert!((-127..=127).contains(&(q as i32)));
    }

    /// INT8 bit flips are involutive for every value and bit.
    #[test]
    fn int8_bitflip_involutive(q in any::<i8>(), bit in 0u32..8) {
        prop_assert_eq!(int8::flip_bit_i8(int8::flip_bit_i8(q, bit), bit), q);
    }

    /// The real INT8 inference path and the f32 simulation agree on stored
    /// words: the SIMD slice quantizer, the scalar helper behind the
    /// simulated mode, and [`rustfi_tensor::QTensor`]'s per-channel weight
    /// quantization all produce bit-identical `i8` words for any data —
    /// which is what makes stored-word bit flips equivalent to the paper's
    /// dequantized-domain flips.
    #[test]
    fn int8_real_and_simulated_words_agree(
        vals in prop::collection::vec(-50.0f32..50.0, 8..128),
        max_abs in 50.0f32..500.0,
    ) {
        let scale = qkernels::scale_for_max_abs(max_abs);
        let mut slice_out = vec![0i8; vals.len()];
        int8::quantize_slice(&vals, scale, &mut slice_out);
        for (&x, &w) in vals.iter().zip(&slice_out) {
            prop_assert_eq!(qkernels::quantize_one(x, scale), w);
        }
        // Per-channel weight words match scalar quantization against each
        // channel's own scale.
        let rows = 4;
        let cols = vals.len() / rows;
        let t = Tensor::from_vec(vals[..rows * cols].to_vec(), &[rows, cols]);
        let qt = rustfi_tensor::QTensor::quantize_per_channel(&t);
        for r in 0..rows {
            for c in 0..cols {
                let idx = r * cols + c;
                prop_assert_eq!(
                    qkernels::quantize_one(t.data()[idx], qt.channel_scale(r)),
                    qt.data()[idx]
                );
            }
        }
    }

    /// FP32 bit flips are involutive for every finite value and bit.
    #[test]
    fn fp32_bitflip_involutive(x in prop::num::f32::ANY, bit in 0u32..32) {
        let twice = bits::flip_bit_f32(bits::flip_bit_f32(x, bit), bit);
        prop_assert_eq!(twice.to_bits(), x.to_bits());
    }

    /// Softmax rows always sum to 1 and stay in [0, 1].
    #[test]
    fn softmax_is_a_distribution(vals in prop::collection::vec(-50.0f32..50.0, 2..20)) {
        let t = Tensor::from_vec(vals.clone(), &[1, vals.len()]);
        let s = t.softmax_rows();
        let sum: f32 = s.data().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(s.data().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// Tensor add/sub are inverses.
    #[test]
    fn add_sub_inverse(vals in prop::collection::vec(-1e3f32..1e3, 1..64)) {
        let n = vals.len();
        let a = Tensor::from_vec(vals, &[n]);
        let b = Tensor::from_fn(&[n], |i| (i as f32 * 0.31).sin() * 10.0);
        let roundtrip = a.add(&b).sub(&b);
        for (x, y) in roundtrip.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() <= 1e-2_f32.max(y.abs() * 1e-5));
        }
    }

    /// concat_channels/split_channels are inverses for arbitrary widths.
    #[test]
    fn concat_split_inverse(c1 in 1usize..5, c2 in 1usize..5, hw in 1usize..5) {
        let a = Tensor::from_fn(&[2, c1, hw, hw], |i| i as f32);
        let b = Tensor::from_fn(&[2, c2, hw, hw], |i| -(i as f32));
        let cat = Tensor::concat_channels(&[a.clone(), b.clone()]);
        let parts = cat.split_channels(&[c1, c2]);
        prop_assert_eq!(&parts[0], &a);
        prop_assert_eq!(&parts[1], &b);
    }

    /// Random fault-site resolution always produces legal coordinates.
    #[test]
    fn resolved_sites_are_always_legal(seed in any::<u64>()) {
        let mut net = zoo::lenet(&ZooConfig::tiny(10));
        let profile = rustfi::ModelProfile::discover(&mut net, [2, 3, 16, 16]);
        let mut rng = SeededRng::new(seed);
        let sites = NeuronSelect::Random
            .resolve(&profile, BatchSelect::Each, &mut rng)
            .unwrap();
        for site in sites {
            let dims = profile.layers()[site.layer].output_dims;
            prop_assert!(site.channel < dims[1]);
            prop_assert!(site.y < dims[2]);
            prop_assert!(site.x < dims[3]);
            prop_assert!(site.batch.unwrap() < 2);
        }
        let w = WeightSelect::Random.resolve(&profile, &mut rng).unwrap();
        prop_assert!(w.index < profile.layers()[w.layer].weight_count());
    }

    /// Built-in perturbation models never produce NaN from finite inputs
    /// (BitFlipFp32 may produce Inf by flipping exponent bits; NaN requires
    /// all exponent bits set, which a single flip of a finite value with a
    /// nonzero mantissa can produce only from values that are already
    /// near-NaN patterns — so we exclude it here and test the others).
    #[test]
    fn models_keep_finite_values_finite(x in -1e3f32..1e3, seed in any::<u64>()) {
        let mut rng = SeededRng::new(seed);
        let mut ctx = rustfi::PerturbCtx {
            layer: 0,
            batch: 0,
            channel: 0,
            tensor_max_abs: 1e3,
            quant_scale: None,
            rng: &mut rng,
        };
        prop_assert!(models::RandomUniform::default().perturb(x, &mut ctx).is_finite());
        prop_assert!(models::Zero.perturb(x, &mut ctx).is_finite());
        prop_assert!(models::StuckAt::new(5.0).perturb(x, &mut ctx).is_finite());
        prop_assert!(models::Gain::new(2.0).perturb(x, &mut ctx).is_finite());
        prop_assert!(models::BitFlipInt8::new(models::BitSelect::Random).perturb(x, &mut ctx).is_finite());
        prop_assert!(models::RandomFp32Bits.perturb(x, &mut ctx).is_finite());
    }

    /// NMS output is a subset of its input and never grows.
    #[test]
    fn nms_output_subset(n in 0usize..20, seed in any::<u64>()) {
        let mut rng = SeededRng::new(seed);
        let dets: Vec<rustfi_detect::Detection> = (0..n)
            .map(|_| rustfi_detect::Detection {
                class: rng.below(3),
                score: rng.uniform(0.0, 1.0),
                cx: rng.uniform(0.1, 0.9),
                cy: rng.uniform(0.1, 0.9),
                w: rng.uniform(0.05, 0.3),
                h: rng.uniform(0.05, 0.3),
            })
            .collect();
        let kept = rustfi_detect::nms(dets.clone(), 0.5);
        prop_assert!(kept.len() <= dets.len());
        for k in &kept {
            prop_assert!(dets.iter().any(|d| d == k));
        }
    }

    /// IoU is symmetric and within [0, 1].
    #[test]
    fn iou_bounds_and_symmetry(
        cx1 in 0.1f32..0.9, cy1 in 0.1f32..0.9, w1 in 0.05f32..0.5,
        cx2 in 0.1f32..0.9, cy2 in 0.1f32..0.9, w2 in 0.05f32..0.5,
    ) {
        let mk = |cx, cy, w| rustfi_detect::Detection {
            class: 0, score: 1.0, cx, cy, w, h: w,
        };
        let a = mk(cx1, cy1, w1);
        let b = mk(cx2, cy2, w2);
        let i1 = rustfi_detect::iou(&a, &b);
        let i2 = rustfi_detect::iou(&b, &a);
        prop_assert!((0.0..=1.0 + 1e-6).contains(&i1));
        prop_assert!((i1 - i2).abs() < 1e-5);
    }

    /// Trial isolation never breaks campaign determinism: for any generated
    /// architecture and any crash probability, a campaign whose
    /// perturbation model panics on a seeded fraction of trials produces
    /// identical records — including *which* trials crashed — on 1 worker
    /// and on 4, and accounts for every trial.
    #[test]
    fn crashy_campaigns_are_thread_count_invariant(
        case in fuzz::cases(),
        crash_p in 0.05f64..0.5,
    ) {
        let mut case = case;
        // The crashy model perturbs f32 activations directly; pin the
        // quantization regime so the fixture probe matches.
        case.quant = rustfi::QuantMode::Off;
        let fx = CaseFixture::new(&case).unwrap();
        let factory = fx.factory();
        let campaign = Campaign::new(
            &factory,
            &fx.images,
            &fx.labels,
            FaultMode::Neuron(NeuronSelect::Random),
            Arc::new(models::Custom::new("crashy", move |old, ctx| {
                if ctx.rng.chance(crash_p) {
                    panic!("seeded perturbation crash");
                }
                old + 1e5
            })),
        );
        let run = |threads| {
            campaign
                .run(&CampaignConfig {
                    threads: Some(threads),
                    ..case.reference_config()
                })
                .unwrap()
        };
        let single = run(1);
        let four = run(4);
        prop_assert_eq!(&single, &four);
        prop_assert_eq!(single.counts.total(), case.trials);
    }

    /// Observability is read-only: for any generated architecture and
    /// execution strategy, campaigns run with no recorder, with the
    /// [`rustfi_obs::NullRecorder`], with the full
    /// [`rustfi_obs::TraceRecorder`], and with a fleet worker's telemetry
    /// sidecar (the disk-streaming [`rustfi_obs::SidecarRecorder`]) produce
    /// bit-identical trial records.
    #[test]
    fn recorders_never_perturb_campaign_results(case in fuzz::cases()) {
        use rustfi_obs::{NullRecorder, Recorder, SidecarRecorder, TraceRecorder};
        let fx = CaseFixture::new(&case).unwrap();
        let factory = fx.factory();
        let campaign = Campaign::new(
            &factory,
            &fx.images,
            &fx.labels,
            fx.mode.clone(),
            Arc::clone(&fx.model),
        );
        // Every run uses the case's full accelerated strategy (threads,
        // fusion, prefix cache, pooling) so only the recorder varies.
        let run = |recorder: Option<Arc<dyn Recorder>>| {
            campaign
                .run(&CampaignConfig {
                    recorder,
                    ..case.accelerated_config()
                })
                .unwrap()
        };
        let plain = run(None);
        let null = run(Some(Arc::new(NullRecorder)));
        let trace_rec = Arc::new(TraceRecorder::new());
        let traced = run(Some(trace_rec.clone() as Arc<dyn Recorder>));
        prop_assert_eq!(&plain, &null);
        prop_assert_eq!(&plain, &traced);
        let snap = trace_rec.snapshot();
        // Serial trials get a "trial" span each; fused ones are covered by
        // "fused" chunk spans. The per-trial outcome *events* are the
        // strategy-invariant stream, so count those.
        prop_assert_eq!(
            snap.events
                .iter()
                .filter(|e| matches!(e, rustfi_obs::Event::TrialOutcome(_)))
                .count(),
            case.trials
        );
        // A watchdog budget can cut every pass before its injection layer.
        let all_hung = plain.records.iter().all(|r| r.outcome == rustfi::OutcomeKind::Hang);
        prop_assert_eq!(
            snap.counters.get("fi.injections").copied().unwrap_or(0) > 0 || all_hung,
            true
        );

        // A fleet worker's sidecar streams to disk mid-campaign, which must
        // be just as invisible as the in-memory recorders.
        let dir = std::env::temp_dir().join(format!(
            "rustfi_props_sidecar_{}_{:x}",
            std::process::id(),
            case.seed
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let sidecar = SidecarRecorder::create(&dir.join("run.telemetry.jsonl"), 0, 1, 0).unwrap();
        let observed = run(Some(Arc::new(sidecar) as Arc<dyn Recorder>));
        prop_assert_eq!(&plain, &observed);
        let sc = rustfi_obs::read_sidecar(&dir.join("run.telemetry.jsonl")).unwrap();
        prop_assert_eq!(sc.torn_lines, 0);
        prop_assert_eq!(
            sc.batch
                .events
                .iter()
                .filter(|e| matches!(e, rustfi_obs::Event::TrialOutcome(_)))
                .count(),
            case.trials
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Golden-prefix caching is purely a throughput optimization: for any
    /// seed, worker count, and byte budget — including budgets so small
    /// that few images or none are stored and their trials fall back to
    /// full forward passes — a prefix-cached campaign's records are
    /// bit-identical to an uncached run, and every trial's lookup is
    /// accounted as a hit or miss.
    #[test]
    fn prefix_caching_never_changes_records(
        case in fuzz::cases(),
        // log2 of the budget in KiB: 4 KiB (few images or none stored) up
        // to 2 GiB (every image stored).
        budget_log2_kib in 2u32..21,
    ) {
        let fx = CaseFixture::new(&case).unwrap();
        let factory = fx.factory();
        let campaign = Campaign::new(
            &factory,
            &fx.images,
            &fx.labels,
            fx.mode.clone(),
            Arc::clone(&fx.model),
        );
        let run = |prefix_cache, threads: usize| {
            campaign
                .run(&CampaignConfig {
                    threads: Some(threads),
                    prefix_cache,
                    ..case.reference_config()
                })
                .unwrap()
        };
        let budget = 1usize << (10 + budget_log2_kib);
        let plain = run(None, 1);
        let cached = run(
            Some(rustfi::PrefixCacheConfig::with_budget(budget)),
            case.threads,
        );
        prop_assert_eq!(&plain.records, &cached.records);
        prop_assert_eq!(plain.counts, cached.counts);
        let stats = cached.prefix.unwrap();
        prop_assert_eq!(stats.hits + stats.misses, case.trials as u64);
        prop_assert!(stats.bytes <= budget);
    }

    /// Resumed and broadcast passes are exact on architectures that contain
    /// `Residual` and `Branches` containers, with the plan off and on. For
    /// every module id, the pass that starts there from the activation its
    /// resume point received in a full pass equals the full pass; an id
    /// inside a container resumes at that container. For every injectable
    /// layer, a pass broadcast 3 slices wide there — from the input or from
    /// the layer's resume point — equals the pass on the repeated input.
    #[test]
    fn resumed_passes_equal_full_passes(case in fuzz::container_cases()) {
        let mut net = case.arch.build();
        let hw = case.arch.image_hw;
        let x = Tensor::rand_normal(
            &[1, case.arch.in_channels, hw, hw],
            0.0,
            1.0,
            &mut SeededRng::new(case.seed),
        );
        // Captured unplanned: a planned pass never dispatches the members of
        // a fused group, so it would not tap them.
        let mut inputs: Vec<Option<Tensor>> = vec![None; net.module_count()];
        net.forward_with_capture(&x, &mut |id, t| inputs[id.index()] = Some(t.clone()));
        let ids: Vec<_> = net.layer_infos().iter().map(|l| l.id).collect();
        for plan in [false, true] {
            net.set_plan(plan);
            let full = net.forward(&x);
            let wide = net.forward(&x.repeat_batch(3));
            for &id in &ids {
                let resume = net.resume_point(id).unwrap();
                let act = inputs[resume.index()].as_ref().unwrap();
                let resumed = net.forward_from(Some(id), act, None, None);
                prop_assert_eq!(resumed.as_ref(), Some(&full), "{} plan {}", id, plan);
            }
            for target in net.injectable_layers() {
                let from_input = net.forward_from(None, &x, Some((target, 3)), None);
                prop_assert_eq!(from_input.as_ref(), Some(&wide), "{} plan {}", target, plan);
                let resume = net.resume_point(target).unwrap();
                let act = inputs[resume.index()].as_ref().unwrap();
                let resumed = net.forward_from(Some(resume), act, Some((target, 3)), None);
                prop_assert_eq!(resumed.as_ref(), Some(&wide), "{} plan {}", target, plan);
            }
        }
    }

    /// `Network::resume_point` equals a recursive reference on every module
    /// id of architectures with `Residual` and `Branches` containers: from
    /// the root, descend through `Sequential`s into the child holding the
    /// id, and stop at the id itself or at any other module.
    #[test]
    fn resume_points_match_a_recursive_reference(case in fuzz::container_cases()) {
        // Each module's kind and subtree size, in pre-order: a module's
        // children are the subtrees that tile the indices after it.
        fn reference(tree: &[(LayerKind, usize)], at: usize, id: usize) -> usize {
            if at == id || tree[at].0 != LayerKind::Sequential {
                return at;
            }
            let mut child = at + 1;
            while id >= child + tree[child].1 {
                child += tree[child].1;
            }
            reference(tree, child, id)
        }
        let net = case.arch.build();
        let mut tree = Vec::new();
        net.visit(&mut |m| {
            let mut size = 0;
            m.visit(&mut |_| size += 1);
            tree.push((m.kind(), size));
        });
        prop_assert_eq!(tree.len(), net.module_count());
        for id in 0..tree.len() {
            let expected = LayerId::from_index(reference(&tree, 0, id));
            prop_assert_eq!(net.resume_point(LayerId::from_index(id)), Some(expected), "L{}", id);
        }
        prop_assert_eq!(net.resume_point(LayerId::from_index(tree.len())), None);
    }

    /// Layer lookups find every weighted module of architectures with
    /// `Residual` and `Branches` containers, and nothing else. A marker
    /// written through `layer_weight_mut(id)` for each module that
    /// `layer_infos()` lists with weights lands in that module's weight:
    /// every weighted module yields (weight, bias) to `for_each_param`, so
    /// param `2k` is the weight of the `k`-th weighted module in pre-order.
    /// Every other id, containers included, and the first id past the
    /// network have no weight.
    #[test]
    fn layer_lookups_find_each_weighted_module(case in fuzz::container_cases()) {
        let mut net = case.arch.build();
        let mut markers = Vec::new();
        for info in net.layer_infos().to_vec() {
            let weight = net.layer_weight_mut(info.id);
            prop_assert_eq!(weight.is_some(), info.weight_dims.is_some(), "{}", info.id);
            if let Some(w) = weight {
                let marker = 1000.0 + markers.len() as f32;
                w.data_mut()[0] = marker;
                markers.push(marker);
            }
        }
        let past = LayerId::from_index(net.module_count());
        prop_assert!(net.layer_weight_mut(past).is_none());
        let mut params = Vec::new();
        net.for_each_param(&mut |p| params.push(p.value.data()[0]));
        prop_assert_eq!(params.len(), 2 * markers.len());
        for (k, &marker) in markers.iter().enumerate() {
            prop_assert_eq!(params[2 * k], marker, "weighted module {}", k);
        }
    }

    /// On a full forward pass of an architecture with `Residual` and
    /// `Branches` containers, an all-layer forward hook fires once on each
    /// non-container module of `layer_infos()`, in pre-order, and sees its
    /// kind.
    #[test]
    fn forward_hooks_fire_once_per_leaf_in_preorder(case in fuzz::container_cases()) {
        let mut net = case.arch.build();
        let hw = case.arch.image_hw;
        let x = Tensor::rand_normal(
            &[1, case.arch.in_channels, hw, hw],
            0.0,
            1.0,
            &mut SeededRng::new(case.seed),
        );
        let fired = Arc::new(std::sync::Mutex::new(Vec::new()));
        let log = Arc::clone(&fired);
        net.hooks()
            .register_forward_all(move |ctx, _| log.lock().unwrap().push((ctx.id, ctx.kind)));
        net.forward(&x);
        let leaves: Vec<_> = net
            .layer_infos()
            .iter()
            .filter(|l| !l.kind.is_container())
            .map(|l| (l.id, l.kind))
            .collect();
        prop_assert_eq!(&*fired.lock().unwrap(), &leaves);
    }

    /// Fused batched trials produce bit-identical records to serial
    /// execution for every generated architecture, fusion width, guard
    /// mode, quantization regime, and prefix-cache setting.
    #[test]
    fn fusion_never_changes_records(
        case in fuzz::cases(),
        width in 2usize..9,
        with_prefix in any::<bool>(),
    ) {
        let mut case = case;
        // Fusion stands down for weight faults (they mutate shared model
        // state); this test is about fusion, so pin neuron faults.
        case.weight_fault = false;
        let fx = CaseFixture::new(&case).unwrap();
        let factory = fx.factory();
        let campaign = Campaign::new(
            &factory,
            &fx.images,
            &fx.labels,
            fx.mode.clone(),
            Arc::clone(&fx.model),
        );
        let prefix_cache = with_prefix.then(rustfi::PrefixCacheConfig::default);
        let run = |fusion, threads: usize| {
            campaign
                .run(&CampaignConfig {
                    threads: Some(threads),
                    prefix_cache: prefix_cache.clone(),
                    fusion,
                    ..case.reference_config()
                })
                .unwrap()
        };
        let serial = run(None, 1);
        let fused = run(Some(rustfi::FusionConfig::with_width(width)), case.threads);
        prop_assert_eq!(&serial.records, &fused.records);
        prop_assert_eq!(serial.counts, fused.counts);
        let stats = fused.fusion.unwrap();
        prop_assert_eq!(stats.fused_trials + stats.serial_trials, case.trials as u64);
        prop_assert!(stats.max_width <= width);
        if with_prefix {
            let p = fused.prefix.unwrap();
            prop_assert_eq!(p.hits + p.misses, case.trials as u64);
        }
    }

    /// Exiting at a golden match is purely a throughput optimization: a
    /// prefix-cached campaign whose passes drop each slice at the first
    /// spine point where it equals the golden run's activation produces the
    /// records of the uncached reference, with fusion off and on, under
    /// every guard mode, and with a watchdog budget of the network's leaf
    /// count (no pass is cut, so passes may exit) and of one less (every
    /// pass that reaches the end is cut, so none may exit). Besides the
    /// case's own faults, half the cases run a template that makes faults
    /// die young: a neuron stuck at 0 in a layer a ReLU follows, which the
    /// ReLU masks wherever the neuron was negative. Those campaigns must
    /// exit.
    #[test]
    fn early_exit_never_changes_records(case in fuzz::cases(), relu_template in any::<bool>()) {
        use rustfi::{FusionConfig, GuardMode, PrefixCacheConfig};
        let fx = CaseFixture::new(&case).unwrap();
        let factory = fx.factory();
        let net = factory();
        let leaves = net.layer_infos().iter().filter(|l| !l.kind.is_container()).count();
        let injectable = net.injectable_layers();
        // Injectable layers a ReLU follows in their `Sequential`, with a
        // spine point after them.
        let mut masked_by_relu = Vec::new();
        net.visit(&mut |m| {
            if m.kind() == LayerKind::Sequential {
                for pair in m.children().windows(2) {
                    if pair[1].kind() == LayerKind::Relu {
                        masked_by_relu.push(pair[0].meta().id);
                    }
                }
            }
        });
        let template = injectable.iter().position(|&id| {
            masked_by_relu.contains(&id)
                && injectable
                    .iter()
                    .any(|&later| net.resume_point(later).is_some_and(|r| r > id))
        });
        let (mode, model, trials) = match template.filter(|_| relu_template) {
            Some(layer) => (
                FaultMode::Neuron(NeuronSelect::RandomInLayer { layer }),
                Arc::new(models::StuckAt::new(0.0)) as Arc<dyn PerturbationModel>,
                32,
            ),
            None => (fx.mode.clone(), Arc::clone(&fx.model), case.trials),
        };
        let forced = relu_template && template.is_some();
        let campaign = Campaign::new(&factory, &fx.images, &fx.labels, mode, model);
        for guard in [GuardMode::Off, GuardMode::Record, GuardMode::ShortCircuit] {
            for max_steps in [leaves, leaves - 1] {
                let cfg = CampaignConfig {
                    trials,
                    guard,
                    max_steps: Some(max_steps),
                    ..case.reference_config()
                };
                let reference = campaign.run(&cfg).unwrap();
                for fusion in [None, Some(FusionConfig::with_width(case.fusion_width.max(2)))] {
                    let exited = campaign
                        .run(&CampaignConfig {
                            threads: Some(case.threads),
                            prefix_cache: Some(PrefixCacheConfig::default()),
                            fusion,
                            ..cfg.clone()
                        })
                        .unwrap();
                    prop_assert_eq!(
                        &exited.records,
                        &reference.records,
                        "guard {:?} max_steps {} fusion {:?}",
                        guard,
                        max_steps,
                        fusion
                    );
                    let exits = exited.prefix.unwrap().exits;
                    if max_steps < leaves {
                        prop_assert_eq!(exits, 0);
                    } else if forced {
                        prop_assert!(exits > 0, "guard {:?} fusion {:?} case {} template {:?} stats {:?} counts {:?}", guard, fusion, case, template, exited.prefix, exited.counts);
                    }
                }
            }
        }
    }

    /// Compiled forward plans — weight prepacking into GEMM panel layouts,
    /// fused bias/activation/batchnorm epilogues, and per-trial panel
    /// repacks under weight faults — are purely a throughput optimization:
    /// for every generated architecture, fault mode, quantization regime,
    /// guard mode, thread count, fusion width, and prefix-cache setting,
    /// a planned campaign's records are bit-identical to the unplanned run.
    #[test]
    fn prepacking_never_changes_records(
        case in fuzz::cases(),
        with_fusion in any::<bool>(),
        with_prefix in any::<bool>(),
    ) {
        let fx = CaseFixture::new(&case).unwrap();
        let factory = fx.factory();
        let campaign = Campaign::new(
            &factory,
            &fx.images,
            &fx.labels,
            fx.mode.clone(),
            Arc::clone(&fx.model),
        );
        // Fusion stands down for weight faults on its own; the prefix cache
        // composes with planning in both arms.
        let run = |plan: bool, threads: usize| {
            campaign
                .run(&CampaignConfig {
                    threads: Some(threads),
                    fusion: with_fusion.then(|| rustfi::FusionConfig::with_width(4)),
                    prefix_cache: with_prefix.then(rustfi::PrefixCacheConfig::default),
                    plan,
                    ..case.reference_config()
                })
                .unwrap()
        };
        let unplanned = run(false, 1);
        let planned_serial = run(true, 1);
        let planned_threaded = run(true, case.threads);
        prop_assert_eq!(&unplanned.records, &planned_serial.records);
        prop_assert_eq!(&unplanned.records, &planned_threaded.records);
        prop_assert_eq!(unplanned.counts, planned_threaded.counts);
    }

    /// Thread-local tensor pooling produces bit-identical records to the
    /// unpooled path for every generated architecture and execution
    /// strategy — recycling activation buffers must be unobservable in
    /// results.
    #[test]
    fn tensor_pool_never_changes_records(case in fuzz::cases()) {
        let fx = CaseFixture::new(&case).unwrap();
        let factory = fx.factory();
        let campaign = Campaign::new(
            &factory,
            &fx.images,
            &fx.labels,
            fx.mode.clone(),
            Arc::clone(&fx.model),
        );
        // Everything but the pool budget comes from the case's accelerated
        // strategy (threads, fusion, prefix cache, guard, quantization).
        let run = |pool_budget_bytes: usize| {
            campaign
                .run(&CampaignConfig {
                    pool_budget_bytes,
                    ..case.accelerated_config()
                })
                .unwrap()
        };
        let unpooled = run(0);
        let pooled = run(128 << 20);
        prop_assert_eq!(&unpooled.records, &pooled.records);
        prop_assert_eq!(unpooled.counts, pooled.counts);
    }

    /// Interval convolution bounds always contain the nominal output.
    #[test]
    fn interval_conv_soundness(seed in any::<u64>(), eps in 0.0f32..0.5) {
        let mut rng = SeededRng::new(seed);
        let x = Tensor::rand_normal(&[1, 2, 5, 5], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[2, 2, 3, 3], 0.0, 0.5, &mut rng);
        let b = Tensor::rand_normal(&[2], 0.0, 0.1, &mut rng);
        let spec = rustfi_tensor::ConvSpec::new().padding(1);
        let y = rustfi_tensor::conv2d(&x, &w, &b, &spec);
        let (lo, hi) = rustfi_robust::interval::conv_interval(
            &x.add_scalar(-eps),
            &x.add_scalar(eps),
            &w,
            &b,
            &spec,
        );
        for ((l, v), h) in lo.data().iter().zip(y.data()).zip(hi.data()) {
            prop_assert!(*l <= v + 1e-3, "{l} > {v}");
            prop_assert!(*v <= h + 1e-3, "{v} > {h}");
        }
    }
}

proptest! {
    // Each case runs a dozen full campaigns (one unsharded reference plus
    // every shard of four different plans), so this block gets a smaller
    // case budget than the cheap invariants above.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shard invariance, the distributed-campaign analogue of thread
    /// invariance: for any generated architecture and execution strategy,
    /// splitting a campaign into 1, 2, 3, or 5 shards — each run
    /// independently through its own journal, as fleet worker processes
    /// would — and merging the shard journals yields records, counts and
    /// per-layer tallies identical to the unsharded run.
    #[test]
    fn shard_invariance(case in fuzz::cases()) {
        let fx = CaseFixture::new(&case).unwrap();
        let factory = fx.factory();
        let campaign = Campaign::new(
            &factory,
            &fx.images,
            &fx.labels,
            fx.mode.clone(),
            Arc::clone(&fx.model),
        );
        // Each shard runs the case's full accelerated strategy (threads,
        // fusion, prefix cache, pooling, quantization, guard).
        let cfg = case.accelerated_config();
        let reference = campaign.run(&cfg).unwrap();
        for count in [1usize, 2, 3, 5] {
            let dir = std::env::temp_dir().join("rustfi-shard-invariance").join(format!(
                "{}-{:x}-{count}",
                std::process::id(),
                case.seed
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let mut paths = Vec::new();
            for spec in rustfi::plan_shards(cfg.trials, count) {
                let path = spec.journal_path(&dir);
                campaign.run_shard(&cfg, &spec, &path).unwrap();
                paths.push(path);
            }
            let merged = rustfi::merge_shard_journals(&paths).unwrap();
            prop_assert!(merged.is_complete(), "{count} shards left gaps");
            prop_assert_eq!(&merged.records, &reference.records, "{} shards", count);
            prop_assert_eq!(merged.counts, reference.counts);
            prop_assert_eq!(&merged.per_layer, &reference.per_layer, "{} shards", count);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Real-INT8 campaigns (integer kernels, stored-word bit flips) are
    /// invariant under every execution strategy, exactly like f32 ones —
    /// and that holds on architectures containing `Residual` and `Branches`
    /// containers, where the INT8 backend interacts with resume points:
    /// records are bit-identical between a serial run and a multi-threaded
    /// fused+prefix-cached run, and between the unsharded run and a merged
    /// 3-shard run — for neuron and weight faults alike.
    #[test]
    fn int8_campaigns_are_execution_invariant(case in fuzz::container_cases()) {
        let mut case = case;
        // Pin the quantization regime to real INT8; the fixture then picks
        // the stored-word bit-flip model and the calibrated INT8 probe.
        case.quant = rustfi::QuantMode::Int8;
        prop_assert!(case.arch.has_residual() && case.arch.has_branches());
        let fx = CaseFixture::new(&case).unwrap();
        let factory = fx.factory();
        let campaign = Campaign::new(
            &factory,
            &fx.images,
            &fx.labels,
            fx.mode.clone(),
            Arc::clone(&fx.model),
        );
        let cfg = case.reference_config();
        let serial = campaign.run(&cfg).unwrap();
        prop_assert_eq!(serial.counts.total(), case.trials);
        let accelerated = campaign
            .run(&CampaignConfig {
                fusion: Some(rustfi::FusionConfig::with_width(case.fusion_width.max(2))),
                prefix_cache: Some(rustfi::PrefixCacheConfig::default()),
                ..case.accelerated_config()
            })
            .unwrap();
        prop_assert_eq!(&serial.records, &accelerated.records);
        prop_assert_eq!(serial.counts, accelerated.counts);
        // Shard invariance: the calibration table comes from the full image
        // set, so shards quantize on the same grid.
        let dir = std::env::temp_dir()
            .join("rustfi-int8-invariance")
            .join(format!("{}-{:x}", std::process::id(), case.seed));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut paths = Vec::new();
        for spec in rustfi::plan_shards(cfg.trials, 3) {
            let path = spec.journal_path(&dir);
            campaign.run_shard(&cfg, &spec, &path).unwrap();
            paths.push(path);
        }
        let merged = rustfi::merge_shard_journals(&paths).unwrap();
        prop_assert!(merged.is_complete());
        prop_assert_eq!(&merged.records, &serial.records);
        prop_assert_eq!(merged.counts, serial.counts);
        prop_assert_eq!(&merged.per_layer, &serial.per_layer);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
