//! One description per program: executors instantiated from a
//! [`CompiledProgram`] share it — the compiled net, the name table, the
//! plan — and own nothing but their storages, so an `instantiate` costs
//! the storages plus a constant.

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
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a thread-local `Cell` of a `Copy` type and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get().map(|n| n + 1)));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get().map(|n| n + 1)));
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
