//! The worker pool is persistent: all threads an executor will ever use
//! are spawned at construction, and no amount of forward/backward/update
//! traffic spawns more. This file holds the single test that reads the
//! process-global spawn counter, so no sibling test in the same binary
//! can perturb it.

use latte_core::{compile, OptLevel};
use latte_nn::models::{mlp, ModelConfig};
use latte_runtime::pool::total_threads_spawned;
use latte_runtime::registry::KernelRegistry;
use latte_runtime::{ExecConfig, Executor};

fn seeded(len: usize, seed: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
            ((h >> 8) % 1000) as f32 / 500.0 - 1.0
        })
        .collect()
}

#[test]
fn executor_never_spawns_threads_after_construction() {
    let cfg = ModelConfig {
        batch: 4,
        input_size: 48,
        ..ModelConfig::default()
    };
    let model = mlp(&cfg, &[32, 24]);
    let registry = KernelRegistry::with_builtins();

    // threads = 4 → exactly 3 spawned workers (the caller is worker 0),
    // all at construction time.
    let compiled = compile(&model.net, &OptLevel::full()).expect("compile");
    let before = total_threads_spawned();
    let mut exec = Executor::with_registry(
        compiled,
        &registry,
        ExecConfig {
            threads: 4,
            ..ExecConfig::default()
        },
    )
    .expect("lower");
    let after_build = total_threads_spawned();
    assert_eq!(
        after_build - before,
        3,
        "a 4-thread executor spawns exactly 3 workers at construction"
    );

    exec.set_input("data", &seeded(cfg.batch * cfg.input_size, 11))
        .expect("data");
    exec.set_input("label", &vec![0.0; cfg.batch])
        .expect("label");

    // Many full training iterations — kernel groups, batched GEMMs, and
    // parameter updates — must reuse the same workers.
    for _ in 0..12 {
        exec.forward();
        exec.backward();
        exec.for_each_param_mut(|value, grad, lr_mult| {
            for (v, g) in value.iter_mut().zip(grad) {
                *v -= 0.01 * lr_mult * g;
            }
        });
    }
    assert!(exec.loss().is_finite());
    assert_eq!(
        total_threads_spawned(),
        after_build,
        "iterating must not spawn any new threads"
    );

    // threads = 1 executors run inline and spawn nothing at all.
    let compiled = compile(&model.net, &OptLevel::full()).expect("compile");
    let before = total_threads_spawned();
    let mut exec1 = Executor::with_registry(
        compiled,
        &registry,
        ExecConfig {
            threads: 1,
            ..ExecConfig::default()
        },
    )
    .expect("lower");
    exec1
        .set_input("data", &seeded(cfg.batch * cfg.input_size, 11))
        .expect("data");
    exec1
        .set_input("label", &vec![0.0; cfg.batch])
        .expect("label");
    for _ in 0..3 {
        exec1.forward();
        exec1.backward();
    }
    assert_eq!(
        total_threads_spawned(),
        before,
        "a single-threaded executor never spawns"
    );
}
