//! A replica's memory is one executor at the largest batch it has seen:
//! a [`BatchEngine`] keeps one executor, runs every smaller batch on the
//! first items of its storages, and replaces it only to grow. Every
//! reply stays bit-identical to the same sample run alone at batch 1,
//! whatever the items past the batch hold from earlier, larger batches.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use latte_core::{compile, OptLevel};
use latte_nn::models::{lenet, ModelConfig};
use latte_runtime::pool::WorkerPool;
use latte_runtime::{ExecConfig, Executor};
use latte_serve::{BatchEngine, Model, PlanCache};

thread_local! {
    /// Bytes this thread allocated less those it freed while `Some`.
    static RETAINED: Cell<Option<isize>> = const { Cell::new(None) };
}

struct Counting;

fn counted(bytes: isize) {
    let _ = RETAINED.try_with(|c| c.set(c.get().map(|n| n + bytes)));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a thread-local `Cell` of a `Copy` type and allocates nothing.
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

/// The bytes `f` leaves allocated, its result included.
fn retained_by<T>(f: impl FnOnce() -> T) -> (T, isize) {
    RETAINED.with(|c| c.set(Some(0)));
    let out = f();
    let n = RETAINED.with(|c| c.replace(None)).expect("counting was on");
    (out, n)
}

/// LeNet on 28x28x1 at a quarter of its published widths: the net the
/// repo benchmark serves.
fn lenet_at(batch: usize) -> latte_core::dsl::Net {
    let cfg = ModelConfig {
        batch,
        input_size: 28,
        channel_div: 4,
        classes: 10,
        with_loss: true,
        seed: 5,
    };
    lenet(&cfg).net
}

const OUTPUT: &str = "ip2.value";

fn model() -> Arc<Model> {
    let model = Model::new(
        "lenet",
        Box::new(lenet_at),
        OptLevel::full(),
        vec![OUTPUT.to_string()],
    );
    Arc::new(model.expect("lenet registers"))
}

/// One request's inputs: a seeded image in [-1, 1) and a label.
fn request(seed: u32) -> Vec<(String, Vec<f32>)> {
    let image = (0..28 * 28)
        .map(|i| {
            let h = (i as u32)
                .wrapping_mul(2654435761)
                .wrapping_add(seed.wrapping_mul(40503));
            ((h >> 8) % 1000) as f32 / 500.0 - 1.0
        })
        .collect();
    vec![
        ("data".to_string(), image),
        ("label".to_string(), vec![(seed % 10) as f32]),
    ]
}

/// `n` requests, numbered from `first`.
fn batch(first: u32, n: usize) -> Vec<Vec<(String, Vec<f32>)>> {
    (first..first + n as u32).map(request).collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Batches in a mixed order after the largest: every batch below 8 runs
/// over items left by a larger one, and each reply equals the request
/// run alone through a plain batch-1 executor.
#[test]
fn a_replica_serves_every_batch_on_one_executor_bit_for_bit() {
    let model = model();
    let cache = Arc::new(PlanCache::new(ExecConfig::default()));
    let threads = ExecConfig::env_threads();
    let mut engine = BatchEngine::new(Arc::clone(&model), Arc::clone(&cache), threads);
    let solo = compile(&lenet_at(1), &OptLevel::full()).expect("lenet compiles");
    let mut solo = Executor::new(solo).expect("solo executor");
    let mut first = 0;
    for n in [8, 1, 5, 2, 7, 3, 6, 4] {
        let items = batch(first, n);
        first += n as u32;
        let (replies, _) = engine.run(&items).expect("batch runs");
        assert_eq!(replies.len(), n);
        for (slot, (inputs, reply)) in items.iter().zip(&replies).enumerate() {
            for (ensemble, values) in inputs {
                solo.set_input(ensemble, values).expect("solo input");
            }
            solo.forward();
            let want = solo.read_item(OUTPUT, 0).expect("solo output");
            assert_eq!(reply.len(), 1);
            assert_eq!(reply[0].0, OUTPUT);
            assert!(
                bits(&reply[0].1) == bits(&want),
                "batch {n}, slot {slot}: not the solo bits"
            );
        }
        assert!(
            format!("{engine:?}").contains("capacity: Some(8)"),
            "{engine:?}"
        );
    }
    assert_eq!(cache.misses(), 8, "one entry per size is still looked up");
}

/// Growing through every size keeps one executor: what the replica
/// holds after batches 1..=8 is what one executor built at 8 and run
/// once holds, not one executor per size.
#[test]
fn a_replica_growing_through_every_batch_keeps_one_executor() {
    let model = model();
    let cache = Arc::new(PlanCache::new(ExecConfig {
        threads: 1,
        ..ExecConfig::default()
    }));
    // Lower and cache every size first: the plan is not the replica's.
    let program = cache.get(&model, 8).expect("lowers").0;
    for n in 1..8 {
        cache.get(&model, n).expect("cached");
    }

    // One executor at 8 on its own pool, after one forward pass (the
    // pool's scratch grows on first use, as the replica's does).
    let (one, one_bytes) = retained_by(|| {
        let pool = Arc::new(WorkerPool::new(1));
        let mut exec = program.instantiate(pool).expect("executor at 8");
        for (slot, inputs) in batch(0, 8).iter().enumerate() {
            for (ensemble, values) in inputs {
                exec.set_input_item(ensemble, slot, values).expect("input");
            }
        }
        exec.forward();
        exec
    });
    assert_eq!(one.capacity(), 8);

    let (engine, replica_bytes) = retained_by(|| {
        let mut engine = BatchEngine::new(Arc::clone(&model), Arc::clone(&cache), 1);
        let mut first = 0;
        for n in 1..=8 {
            engine.run(&batch(first, n)).expect("batch runs");
            first += n as u32;
        }
        engine
    });
    assert!(
        format!("{engine:?}").contains("capacity: Some(8)"),
        "{engine:?}"
    );
    let ratio = replica_bytes as f64 / one_bytes as f64;
    println!(
        "kept through batches 1..=8: {replica_bytes} B; one executor at 8: {one_bytes} B \
         ({ratio:.3}x)"
    );
    assert!(
        ratio <= 1.1,
        "a replica through batches 1..=8 keeps {replica_bytes} bytes; one executor at 8 keeps \
         {one_bytes}"
    );
}
