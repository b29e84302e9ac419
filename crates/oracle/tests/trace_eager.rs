//! Eager-vs-JIT differential: a recorded trace executed eagerly (stepped
//! through the reference interpreter with no optimization) must be
//! **bit-identical** to the same trace JIT-compiled through a
//! `(TraceKey, OptLevel)`-keyed `ProgramCache` at every
//! `standard_configs()` opt level — on the loss and
//! on every activation buffer that is a primary declaration in both
//! compilations.
//!
//! Bitwise equality holds because the executor's narrow-GEMM fast path
//! accumulates in the same order as the interpreter's naive GEMM for
//! every forward GEMM these nets produce. Gradients are excluded: the
//! backward weight-update GEMMs take the tiled FMA path, which is
//! tolerance-close but not bit-equal (the ordinary differential tests
//! cover them).

mod common;

use std::collections::HashSet;
use std::sync::Arc;

use latte_core::Trace;
use latte_ir::BufferKind;
use latte_oracle::{standard_configs, EagerSession};
use latte_runtime::pool::WorkerPool;
use latte_runtime::{ExecConfig, Executor};

use common::TestNet;

fn feed_eager(eager: &mut EagerSession, inputs: &[(String, Vec<f32>)]) {
    for (name, values) in inputs {
        eager.set_input(name, values).unwrap();
    }
}

fn feed_exec(exec: &mut Executor, inputs: &[(String, Vec<f32>)]) {
    for (name, values) in inputs {
        exec.set_input(name, values).unwrap();
    }
}

/// Activation buffers primary in both compilations: the comparable
/// surface (aliasing differs between opt levels).
fn shared_primaries(eager: &EagerSession, exec: &Executor) -> Vec<String> {
    let subject: HashSet<&str> = exec
        .compiled()
        .buffers
        .iter()
        .filter(|b| b.kind == BufferKind::Value && b.alias_of.is_none())
        .map(|b| b.name.as_str())
        .collect();
    eager
        .interp()
        .compiled()
        .buffers
        .iter()
        .filter(|b| {
            b.kind == BufferKind::Value && b.alias_of.is_none() && subject.contains(b.name.as_str())
        })
        .map(|b| b.name.clone())
        .collect()
}

fn assert_bit_identical(tag: &str, eager: &EagerSession, exec: &Executor) {
    let names = shared_primaries(eager, exec);
    assert!(!names.is_empty(), "[{tag}] no comparable buffers");
    for name in names {
        let a = eager.read_buffer(&name).unwrap();
        let b = exec.read_buffer(&name).unwrap();
        assert_eq!(a.len(), b.len(), "[{tag}] {name} length");
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "[{tag}] {name}[{i}]: eager {x} vs jit {y}"
            );
        }
    }
    assert_eq!(
        eager.loss().to_bits(),
        exec.loss().to_bits(),
        "[{tag}] loss: eager {} vs jit {}",
        eager.loss(),
        exec.loss()
    );
}

fn run_differential(label: &str, build: fn() -> TestNet) {
    let TestNet { net, inputs } = build();
    let pool = Arc::new(WorkerPool::new(ExecConfig::default().threads));
    let cache = common::JitCache::new(32);

    // Eager side: record the trace, step it through the interpreter.
    let trace = Trace::from_net(net);
    let mut eager = EagerSession::new(&trace).unwrap();
    feed_eager(&mut eager, &inputs);
    eager.forward().unwrap();

    for (tag, opt) in standard_configs() {
        let tag = format!("{label}/{tag}");
        // JIT cold path: first sighting compiles through the cache.
        let (program, hit) = common::jit(&cache, &trace, &opt);
        assert!(!hit, "[{tag}] no compile");
        let mut exec = program.instantiate(Arc::clone(&pool)).unwrap();
        feed_exec(&mut exec, &inputs);
        exec.forward();
        assert_bit_identical(&format!("{tag}/cold"), &eager, &exec);

        // JIT warm path: second sighting must not compile (a hit never
        // runs the build closure) and still produce identical bits from
        // a fresh instantiation.
        let (cached, hit) = common::jit(&cache, &trace, &opt);
        assert!(hit, "[{tag}] warm lookup compiled");
        let mut warm = cached.instantiate(Arc::clone(&pool)).unwrap();
        feed_exec(&mut warm, &inputs);
        warm.forward();
        assert_bit_identical(&format!("{tag}/warm"), &eager, &warm);
    }
    assert_eq!(cache.misses(), standard_configs().len() as u64);
    assert_eq!(cache.hits(), standard_configs().len() as u64);
}

#[test]
fn eager_matches_jit_fc() {
    run_differential("fc", common::fc_net);
}

#[test]
fn eager_matches_jit_conv() {
    run_differential("conv", common::conv_net);
}

#[test]
fn eager_matches_jit_fusion() {
    run_differential("fusion", common::fusion_chain);
}

#[test]
fn eager_matches_jit_classifier() {
    run_differential("classifier", common::classifier_net);
}

#[test]
fn eager_matches_jit_lstm() {
    run_differential("lstm", || common::lstm_net(2));
}

/// Stepping the eager session is observable: each step completes one
/// more op-group, and the final step reports completion.
#[test]
fn eager_session_steps_incrementally() {
    let TestNet { net, inputs } = common::fc_net();
    let trace = Trace::from_net(net);
    let mut eager = EagerSession::new(&trace).unwrap();
    feed_eager(&mut eager, &inputs);
    let mut steps = 0;
    while eager.step().unwrap() {
        steps += 1;
    }
    assert!(steps > 2, "expected several op-groups, got {steps}");
    // A finished session reports no more work.
    assert!(!eager.step().unwrap());
    assert!(eager.loss().is_finite());
}
