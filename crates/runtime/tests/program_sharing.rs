//! One description per program: executors instantiated from a
//! [`CompiledProgram`] share it — the compiled net, the name table, the
//! plan — and own nothing but their storages, so an `instantiate` costs
//! the storages plus a constant; and the program at another batch size
//! shares its transfer tables.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use latte_core::{compile, OptLevel};
use latte_nn::models::{lenet, ModelConfig};
use latte_runtime::pool::WorkerPool;
use latte_runtime::registry::KernelRegistry;
use latte_runtime::{CompiledProgram, ExecConfig};

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
    let n = ALLOCATIONS.with(|c| c.replace(None)).expect("counting was on");
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
    let cfg = ModelConfig { batch: 8, input_size: 28, ..ModelConfig::default() };
    let compiled = compile(&lenet(&cfg).net, &OptLevel::full()).expect("lenet compiles");
    let exec = ExecConfig { threads: 1, arena: false, gemm_blocking: None };
    CompiledProgram::lower(compiled, &KernelRegistry::with_builtins(), exec).expect("lenet lowers")
}

#[test]
fn executors_of_one_program_share_its_compiled_net() {
    let program = lenet_program();
    let pool = Arc::new(WorkerPool::new(1));
    let a = program.instantiate(Arc::clone(&pool)).expect("first executor");
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
    let primaries = exec.compiled().buffers.iter().filter(|b| b.alias_of.is_none()).count();
    assert_eq!(allocations, primaries + 1, "{primaries} primary buffers");
}

/// What a plan cache does for a model's second batch size: the plan is
/// the one a fresh lowering builds, but its transfer tables — one item's
/// run lists, most of a lowered conv net — are the first plan's.
#[test]
fn a_program_at_another_batch_shares_its_transfer_tables() {
    let program = lenet_program();
    let registry = KernelRegistry::with_builtins();
    let exec = ExecConfig { threads: 1, arena: false, gemm_blocking: None };
    let (fresh, fresh_bytes) = retained_by(|| {
        CompiledProgram::lower(program.compiled().at_batch(3), &registry, exec).expect("lowers at 3")
    });
    let (shared, shared_bytes) =
        retained_by(|| program.at_batch(3, &registry).expect("lowers at 3"));
    assert_eq!(shared.batch(), 3);
    assert_eq!(shared.plan().to_string(), fresh.plan().to_string());
    // LeNet at 28 px: 294 533 bytes against 137 669, the difference its
    // tables; the rest is the net's IR, cloned by both.
    assert!(
        3 * (fresh_bytes - shared_bytes) > fresh_bytes,
        "at_batch keeps {shared_bytes} bytes, a fresh lowering {fresh_bytes}"
    );
}
