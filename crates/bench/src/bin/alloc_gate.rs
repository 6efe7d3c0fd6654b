//! CI gate for the zero-allocation forward path.
//!
//! Installs the counting global allocator, arms the thread-local tensor
//! pool, warms a small CNN, and asserts that subsequent forward passes make
//! **zero** heap allocations. The model and input are deliberately small
//! enough to stay below the fork threshold
//! (`rustfi_tensor::parallel::FORK_MACS`): the scoped-thread fan-out
//! allocates when it spawns, and thread management is outside the
//! tensor-path claim this gate protects.
//!
//! Nine measurements keep the assertion honest:
//!
//! 1. With pooling *disabled* (budget 0), the same passes must allocate —
//!    proving the counter actually observes the forward path (a vacuously
//!    green gate would otherwise hide a broken instrument).
//! 2. With pooling *enabled*, warmed passes must allocate nothing.
//! 3. With the real-INT8 backend armed on top (calibrated scales, integer
//!    kernels, thread-local `i8`/`i32` scratch), warmed passes must still
//!    allocate nothing — the quantized fast path shares the zero-allocation
//!    claim.
//! 4. With a compiled forward plan on top (prepacked weight panels, fused
//!    GEMM epilogues), warmed planned passes must also allocate nothing —
//!    panel packing is a setup cost, never a steady-state one.
//! 5. With the plan and the real-INT8 backend both on — the implicit-GEMM
//!    convolution, whose per-thread input plane changes shape from layer to
//!    layer — warmed passes of a residual net with stride-2 projection
//!    shortcuts must allocate nothing either: the plane scratch is reused
//!    across every input shape the net presents.
//! 6. A planned broadcast resume — the pass a fused campaign chunk runs —
//!    at a conv on lenet's spine, carried to a batch of 8, must allocate
//!    nothing: the broadcast draws its batch from the pool.
//! 7. The same pass from lenet's input — what an uncached fused chunk runs:
//!    batch 1 through the first conv block, a broadcast at the second conv,
//!    then batch 8 — must allocate nothing either.
//! 8. A planned INT8 resume with no broadcast — the pass a serial trial
//!    runs on a golden-prefix hit — from the cached input of a residual
//!    block of the net of case 5 must allocate nothing: starting a pass
//!    inside the network neither copies its input nor draws scratch.
//! 9. A hooked pass — the planned lenet of case 4 with one forward hook on
//!    a conv (what every neuron trial installs) and a detect-only
//!    `GuardHook` (an all-layer hook, so it fires after every leaf) — must
//!    allocate nothing either: a dispatch that fires hooks fires them from
//!    a snapshot of the hook table, never a fresh list.
//!
//! Run with: `cargo run -p rustfi-bench --bin alloc_gate --release`

use rustfi_bench::alloc_count::{self, CountingAlloc};
use rustfi_nn::{zoo, Backend, CalibrationTable, GuardConfig, GuardHook, ZooConfig};
use rustfi_tensor::{tpool, SeededRng, Tensor};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let cfg = ZooConfig::tiny(4);
    let mut net = zoo::lenet(&cfg);
    let mut rng = SeededRng::new(23);
    let input = Tensor::rand_normal(
        &[1, cfg.in_channels, cfg.image_hw, cfg.image_hw],
        0.0,
        1.0,
        &mut rng,
    );

    let unpooled = {
        let _off = tpool::budget_scope(0);
        alloc_count::steady_state_forward_allocs(&mut net, &input, 4, 16)
    };
    println!("alloc_gate: pooling off  -> {unpooled:.1} allocations/pass");
    assert!(
        unpooled > 0.0,
        "counter saw no allocations even with pooling disabled — instrument is broken"
    );

    let pooled = {
        let _pool = tpool::budget_scope(64 << 20);
        alloc_count::steady_state_forward_allocs(&mut net, &input, 8, 64)
    };
    println!("alloc_gate: pooling on   -> {pooled:.1} allocations/pass");
    assert!(
        pooled == 0.0,
        "forward path allocated at steady state with the tensor pool armed \
         ({pooled:.3} allocations/pass)"
    );

    let quantized = {
        let _pool = tpool::budget_scope(64 << 20);
        let table = CalibrationTable::calibrate(&mut net, std::slice::from_ref(&input));
        net.set_backend(Backend::Int8(Arc::new(table)));
        alloc_count::steady_state_forward_allocs(&mut net, &input, 8, 64)
    };
    println!("alloc_gate: int8 backend -> {quantized:.1} allocations/pass");
    assert!(
        quantized == 0.0,
        "quantized forward path allocated at steady state \
         ({quantized:.3} allocations/pass)"
    );

    let planned = {
        let _pool = tpool::budget_scope(64 << 20);
        net.set_backend(Backend::Fp32);
        net.set_plan(true);
        alloc_count::steady_state_forward_allocs(&mut net, &input, 8, 64)
    };
    println!("alloc_gate: planned      -> {planned:.1} allocations/pass");
    assert!(
        planned == 0.0,
        "planned forward path allocated at steady state — panel packing must \
         happen at warmup, not per pass ({planned:.3} allocations/pass)"
    );

    let mut resnet = zoo::resnet18(&cfg);
    let planned_int8 = {
        let _pool = tpool::budget_scope(64 << 20);
        let table = CalibrationTable::calibrate(&mut resnet, std::slice::from_ref(&input));
        resnet.set_backend(Backend::Int8(Arc::new(table)));
        resnet.set_plan(true);
        alloc_count::steady_state_forward_allocs(&mut resnet, &input, 8, 64)
    };
    println!("alloc_gate: planned int8 -> {planned_int8:.1} allocations/pass");
    assert!(
        planned_int8 == 0.0,
        "planned INT8 forward path allocated at steady state — the input-plane \
         scratch must be reused across shapes ({planned_int8:.3} allocations/pass)"
    );

    let broadcast = {
        let _pool = tpool::budget_scope(64 << 20);
        let target = net.injectable_layers()[1];
        assert_eq!(net.resume_point(target), Some(target), "a spine conv");
        let mut act = None;
        net.forward_with_capture(&input, &mut |id, x| {
            if id == target {
                act = Some(x.clone());
            }
        });
        let act = act.expect("the spine conv ran");
        alloc_count::steady_state_allocs(8, 64, || {
            let out = net.forward_from(Some(target), &act, Some((target, 8)));
            std::hint::black_box(out)
                .expect("target is a layer")
                .into_pool()
        })
    };
    println!("alloc_gate: broadcast    -> {broadcast:.1} allocations/pass");
    assert!(
        broadcast == 0.0,
        "planned broadcast resume allocated at steady state \
         ({broadcast:.3} allocations/pass)"
    );

    let from_input = {
        let _pool = tpool::budget_scope(64 << 20);
        let target = net.injectable_layers()[1];
        let out = net.forward_from(None, &input, Some((target, 8)));
        assert_eq!(
            out.expect("a pass from the input").dims()[0],
            8,
            "the pass broadcast to the chunk"
        );
        alloc_count::steady_state_allocs(8, 64, || {
            let out = net.forward_from(None, &input, Some((target, 8)));
            std::hint::black_box(out)
                .expect("a pass from the input")
                .into_pool()
        })
    };
    println!("alloc_gate: from input   -> {from_input:.1} allocations/pass");
    assert!(
        from_input == 0.0,
        "planned broadcast pass from the network input allocated at steady \
         state ({from_input:.3} allocations/pass)"
    );

    let resumed = {
        let _pool = tpool::budget_scope(64 << 20);
        let inner = resnet
            .injectable_layers()
            .into_iter()
            .find(|&l| resnet.resume_point(l) != Some(l))
            .expect("resnet18 has convs inside residual blocks");
        let block = resnet.resume_point(inner).expect("a layer of the net");
        let mut act = None;
        resnet.forward_with_capture(&input, &mut |id, x| {
            if id == block {
                act = Some(x.clone());
            }
        });
        let act = act.expect("the block ran");
        alloc_count::steady_state_allocs(8, 64, || {
            let out = resnet.forward_from(Some(block), &act, None);
            std::hint::black_box(out)
                .expect("the block is a layer")
                .into_pool()
        })
    };
    println!("alloc_gate: resumed int8 -> {resumed:.1} allocations/pass");
    assert!(
        resumed == 0.0,
        "planned INT8 resume without a broadcast allocated at steady state \
         ({resumed:.3} allocations/pass)"
    );
    let hooked = {
        let _pool = tpool::budget_scope(64 << 20);
        let conv = net.injectable_layers()[0];
        let hook = net
            .hooks()
            .register_forward(conv, |_, out| out.data_mut()[0] = 0.5);
        let guard = GuardHook::install(&net, GuardConfig::default());
        let allocs = alloc_count::steady_state_forward_allocs(&mut net, &input, 8, 64);
        assert!(guard.steps() > 0, "the guard fired on the hooked passes");
        guard.uninstall(&net);
        net.hooks().remove(hook);
        allocs
    };
    println!("alloc_gate: hooked       -> {hooked:.1} allocations/pass");
    assert!(
        hooked == 0.0,
        "hooked forward path allocated at steady state — hook dispatch must \
         not collect the firing hooks ({hooked:.3} allocations/pass)"
    );
    println!("alloc_gate: ok — steady-state forward passes are allocation-free");
}
