//! One description per program: executors instantiated from a
//! [`CompiledProgram`] share it — the compiled net, the name table, the
//! plan — and own nothing but their storages, so an `instantiate` costs
//! the storages plus a constant; and the program at another batch size
//! is the same lowered program, computing what a lowering at that size
//! computes; and an executor runs any batch up to the one it was built
//! at, computing what an executor built at that batch computes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use latte_core::dsl::Net;
use latte_core::{compile, CompiledNet, OptLevel};
use latte_ir::BufferKind;
use latte_nn::layers::{batch_norm, data, fully_connected, relu, scale_shift, softmax_loss};
use latte_nn::models::{lenet, ModelConfig};
use latte_runtime::pool::WorkerPool;
use latte_runtime::registry::KernelRegistry;
use latte_runtime::{CompiledProgram, ExecConfig, Executor};

thread_local! {
    /// Heap allocations made by this thread while `Some`.
    static ALLOCATIONS: Cell<Option<usize>> = const { Cell::new(None) };
    /// Bytes this thread allocated less those it freed while `Some`.
    static RETAINED: Cell<Option<isize>> = const { Cell::new(None) };
}

struct Counting;

fn counted(bytes: isize) {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get().map(|n| n + usize::from(bytes > 0))));
    let _ = RETAINED.try_with(|c| c.set(c.get().map(|n| n + bytes)));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are thread-local `Cell`s of `Copy` types and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        counted(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATIONS.with(|c| c.set(Some(0)));
    let out = f();
    let n = ALLOCATIONS
        .with(|c| c.replace(None))
        .expect("counting was on");
    (out, n)
}

/// The bytes `f` leaves allocated, its result included.
fn retained_by<T>(f: impl FnOnce() -> T) -> (T, isize) {
    RETAINED.with(|c| c.set(Some(0)));
    let out = f();
    let n = RETAINED.with(|c| c.replace(None)).expect("counting was on");
    (out, n)
}

/// The benchmark's served net at its largest micro-batch.
fn lenet_program() -> CompiledProgram {
    let cfg = ModelConfig {
        batch: 8,
        input_size: 28,
        ..ModelConfig::default()
    };
    let compiled = compile(&lenet(&cfg).net, &OptLevel::full()).expect("lenet compiles");
    let exec = ExecConfig {
        threads: 1,
        ..ExecConfig::default()
    };
    CompiledProgram::lower(compiled, &KernelRegistry::with_builtins(), exec).expect("lenet lowers")
}

#[test]
fn executors_of_one_program_share_its_compiled_net() {
    let program = lenet_program();
    let pool = Arc::new(WorkerPool::new(1));
    let a = program
        .instantiate(Arc::clone(&pool))
        .expect("first executor");
    let b = program.instantiate(pool).expect("second executor");
    assert!(std::ptr::eq(a.compiled(), b.compiled()));
    assert!(std::ptr::eq(a.compiled(), program.compiled()));
    assert!(std::ptr::eq(a.plan(), b.plan()));
    assert!(std::ptr::eq(a.grad_buckets(), b.grad_buckets()));
}

#[test]
fn an_instantiate_allocates_the_storages_plus_a_constant() {
    let program = lenet_program();
    let pool = Arc::new(WorkerPool::new(1));
    let (exec, allocations) = allocations_in(|| program.instantiate(pool).expect("executor"));
    // One allocation per storage — one storage per primary declaration —
    // and one for the vector of storages.
    let primaries = exec
        .compiled()
        .buffers
        .iter()
        .filter(|b| b.alias_of.is_none())
        .count();
    assert_eq!(allocations, primaries + 1, "{primaries} primary buffers");
}

/// What a plan cache hands out for a model's every batch size: the same
/// lowered program, at a cost of nothing kept.
#[test]
fn a_program_at_another_batch_is_the_same_plan_and_keeps_nothing() {
    let program = lenet_program();
    let (at3, bytes) = retained_by(|| program.at_batch(3).expect("batch 3"));
    assert_eq!(bytes, 0, "at_batch keeps {bytes} bytes");
    assert_eq!(at3.batch(), 3);
    assert!(std::ptr::eq(at3.plan(), program.plan()));
    assert!(
        program.at_batch(0).is_err(),
        "a batch of no items is refused"
    );
}

/// Deterministic values in [-1.25, 1.25).
fn seeded(len: usize, seed: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
            ((h >> 8) % 1000) as f32 / 400.0 - 1.25
        })
        .collect()
}

/// The loss's bits and those of every primary buffer of a kind `keep`
/// selects, in declaration order, over the executor's current batch.
fn state(exec: &Executor, keep: impl Fn(BufferKind) -> bool) -> Vec<u32> {
    let mut bits = vec![exec.loss().to_bits()];
    for b in exec
        .compiled()
        .buffers
        .iter()
        .filter(|b| b.alias_of.is_none() && keep(b.kind))
    {
        bits.extend(
            exec.read_buffer(&b.name)
                .expect("declared")
                .iter()
                .map(|v| v.to_bits()),
        );
    }
    bits
}

/// Runs a forward and a backward pass on inputs seeded by `seed` (labels
/// are class indices below `classes`), returning the state after each:
/// the buffers of kinds `after_forward` selects, then every buffer.
fn pass(
    exec: &mut Executor,
    classes: usize,
    seed: usize,
    after_forward: impl Fn(BufferKind) -> bool,
) -> [Vec<u32>; 2] {
    for (k, input) in exec.compiled().inputs.clone().iter().enumerate() {
        let len = exec.read_buffer(&input.buffer).expect("input").len();
        let data = if input.ensemble == "label" {
            (0..len)
                .map(|i| ((i * 7 + seed) % classes) as f32)
                .collect()
        } else {
            seeded(len, 31 * k as u32 + seed as u32)
        };
        exec.set_input(&input.ensemble, &data).expect("input fits");
    }
    exec.forward();
    let forward = state(exec, after_forward);
    exec.backward();
    [forward, state(exec, |_| true)]
}

/// [`pass`] on a fresh executor, seeded by its batch, every buffer kept.
fn run(mut exec: Executor, classes: usize) -> [Vec<u32>; 2] {
    let batch = exec.batch();
    pass(&mut exec, classes, batch, |_| true)
}

/// LeNet, an MLP whose plan holds all three whole-batch GEMM hoists, and
/// a `batch_norm` net (a whole-batch extern), compiled at batch 1, each
/// with its class count.
fn nets() -> [(&'static str, CompiledNet, usize); 3] {
    let mut mlp = Net::new(1);
    let x = data(&mut mlp, "data", vec![6]);
    let h = fully_connected(&mut mlp, "fc1", x, 5, 1);
    let h = relu(&mut mlp, "relu1", h);
    let head = fully_connected(&mut mlp, "fc2", h, 4, 2);
    let label = data(&mut mlp, "label", vec![1]);
    softmax_loss(&mut mlp, "loss", head, label);

    let mut bn = Net::new(1);
    let x = data(&mut bn, "data", vec![2, 2, 3]);
    let x = scale_shift(&mut bn, "ss", x, 3);
    let x = batch_norm(&mut bn, "bn", x, 1e-3);
    let head = fully_connected(&mut bn, "fc", x, 4, 4);
    let label = data(&mut bn, "label", vec![1]);
    softmax_loss(&mut bn, "loss", head, label);

    [
        ("lenet", lenet_program().compiled().clone(), 10),
        (
            "mlp",
            compile(&mlp, &OptLevel::full()).expect("mlp compiles"),
            4,
        ),
        (
            "batch_norm",
            compile(&bn, &OptLevel::full()).expect("bn net compiles"),
            4,
        ),
    ]
}

/// One lowering run at every batch computes what a lowering at that
/// batch computes, bit for bit: outputs, loss and every gradient, over
/// the per-item kernels, all three whole-batch GEMM hoists and a
/// whole-batch extern.
#[test]
fn one_lowering_at_every_batch_matches_a_lowering_at_that_batch() {
    let registry = KernelRegistry::with_builtins();
    let exec_cfg = ExecConfig {
        threads: 1,
        ..ExecConfig::default()
    };
    let pool = Arc::new(WorkerPool::new(1));
    for (name, net, classes) in nets() {
        let once = CompiledProgram::lower(net.clone(), &registry, exec_cfg).expect("lowers");
        let plan = once.plan().to_string();
        match name {
            "mlp" => assert!(
                plan.contains("m=B n=5")
                    && plan.contains("k=B")
                    && plan.matches("m=B").count() >= 3,
                "the MLP must hit the forward, backward-data and weight hoists:\n{plan}"
            ),
            "batch_norm" => assert!(plan.contains("whole batch: extern"), "{plan}"),
            _ => {}
        }
        for b in 1..=8 {
            let shared = once
                .at_batch(b)
                .expect("batch b")
                .instantiate(Arc::clone(&pool));
            let fresh = CompiledProgram::lower(net.at_batch(b), &registry, exec_cfg)
                .expect("lowers at b")
                .instantiate(Arc::clone(&pool));
            let (shared, fresh) = (shared.expect("instantiates"), fresh.expect("instantiates"));
            assert_eq!(shared.batch(), b);
            assert!(
                run(shared, classes) == run(fresh, classes),
                "{name} at batch {b}: one lowering and a lowering at {b} differ"
            );
        }
    }
}

/// Fills items `batch..` of every batched storage with NaN, so a kernel
/// that reads past the batch poisons what it computes (even a product
/// with a zero gradient), and leaves the executor at `batch`.
fn poison_past(exec: &mut Executor, batch: usize) {
    exec.set_batch(exec.capacity())
        .expect("the capacity is a batch");
    let batched = exec.compiled().buffers.clone();
    for b in batched
        .iter()
        .filter(|b| b.alias_of.is_none() && b.kind.is_batched())
    {
        let mut values = exec.read_buffer(&b.name).expect("declared");
        let per_item = values.len() / exec.capacity();
        values[batch * per_item..].fill(f32::NAN);
        exec.write_buffer(&b.name, &values).expect("same length");
    }
    exec.set_batch(batch).expect("within capacity");
}

/// An executor built at 8 and run at a smaller batch computes what an
/// executor built at that batch computes, bit for bit, whatever its
/// items past the batch hold: outputs, loss and every gradient, over the
/// per-item kernels, the three whole-batch GEMM hoists and a whole-batch
/// extern, at the pool width `LATTE_THREADS` asks for.
#[test]
fn an_executor_runs_every_batch_up_to_its_capacity_as_a_fresh_one_does() {
    let registry = KernelRegistry::with_builtins();
    let exec_cfg = ExecConfig {
        threads: 1,
        ..ExecConfig::default()
    };
    let pool = Arc::new(WorkerPool::new(ExecConfig::env_threads()));
    // After a forward pass the gradients still hold the last backward's.
    let no_grads = |kind: BufferKind| {
        !matches!(
            kind,
            BufferKind::Grad | BufferKind::ParamGrad | BufferKind::InputGradStage
        )
    };
    for (name, net, classes) in nets() {
        let once = CompiledProgram::lower(net, &registry, exec_cfg).expect("lowers");
        let mut reused = once
            .at_batch(8)
            .unwrap()
            .instantiate(Arc::clone(&pool))
            .unwrap();
        assert_eq!((reused.capacity(), reused.batch()), (8, 8));
        // Every item, every gradient and the batch statistics dirtied on
        // inputs no later run uses.
        pass(&mut reused, classes, 1000, |_| true);
        for b in [5, 2, 8, 1, 7, 3, 6, 4] {
            poison_past(&mut reused, b);
            assert_eq!((reused.capacity(), reused.batch()), (8, b));
            let mut fresh = once
                .at_batch(b)
                .unwrap()
                .instantiate(Arc::clone(&pool))
                .unwrap();
            assert!(
                pass(&mut reused, classes, b, no_grads) == pass(&mut fresh, classes, b, no_grads),
                "{name} at batch {b} of 8: the prefix run and a fresh executor differ"
            );
        }
        for refused in [0, 9] {
            assert!(
                matches!(
                    reused.set_batch(refused),
                    Err(latte_runtime::RuntimeError::InvalidConfig { .. })
                ),
                "{name}: batch {refused} of 8 must be refused"
            );
        }
        assert_eq!(reused.batch(), 4, "a refused batch leaves the last one");
    }
}
