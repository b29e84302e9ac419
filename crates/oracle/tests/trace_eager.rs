//! Interpreter-vs-executor differential, bit for bit: a network
//! synthesized with no optimization and stepped group by group through
//! the reference interpreter must be **bit-identical** to the same
//! network compiled, lowered and executed at every `standard_configs()`
//! opt level — on the loss and on every activation buffer that is a
//! primary declaration in both compilations.
//!
//! Bitwise equality holds because the executor's narrow-GEMM path
//! accumulates in the same order as the interpreter's loop nests for
//! every forward GEMM these nets produce: start from `C`, then add each
//! product in ascending `k`. On a host with AVX2+FMA that path is a
//! vector kernel, bit-equal by construction: each row's accumulators are
//! loaded from `C` first, `k` ascends, and every step is a multiply and
//! then an add, each rounded, as in the scalar loop — no FMA, whose one
//! rounding would change the last bit. Gradients are excluded: the
//! backward weight-update GEMMs take the tiled FMA path, which is
//! tolerance-close but not bit-equal (the ordinary differential tests
//! cover them).

mod common;

use std::collections::HashSet;
use std::sync::Arc;

use latte_core::dsl::Net;
use latte_core::{compile, OptLevel};
use latte_ir::BufferKind;
use latte_oracle::{standard_configs, Interpreter};
use latte_runtime::pool::WorkerPool;
use latte_runtime::{ExecConfig, Executor};

use common::TestNet;

/// The reference: `net` synthesized at [`OptLevel::none`], fed `inputs`.
fn reference(net: &Net, inputs: &[(String, Vec<f32>)]) -> Interpreter {
    let mut eager = Interpreter::new(compile(net, &OptLevel::none()).unwrap()).unwrap();
    for (name, values) in inputs {
        eager.set_input(name, values).unwrap();
    }
    eager
}

fn feed_exec(exec: &mut Executor, inputs: &[(String, Vec<f32>)]) {
    for (name, values) in inputs {
        exec.set_input(name, values).unwrap();
    }
}

/// Activation buffers primary in both compilations: the comparable
/// surface (aliasing differs between opt levels).
fn shared_primaries(eager: &Interpreter, exec: &Executor) -> Vec<String> {
    let subject: HashSet<&str> = exec
        .compiled()
        .buffers
        .iter()
        .filter(|b| b.kind == BufferKind::Value && b.alias_of.is_none())
        .map(|b| b.name.as_str())
        .collect();
    eager
        .compiled()
        .buffers
        .iter()
        .filter(|b| {
            b.kind == BufferKind::Value && b.alias_of.is_none() && subject.contains(b.name.as_str())
        })
        .map(|b| b.name.clone())
        .collect()
}

fn assert_bit_identical(tag: &str, eager: &Interpreter, exec: &Executor) {
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
                "[{tag}] {name}[{i}]: interpreter {x} vs executor {y}"
            );
        }
    }
    assert_eq!(
        eager.loss().to_bits(),
        exec.loss().to_bits(),
        "[{tag}] loss: interpreter {} vs executor {}",
        eager.loss(),
        exec.loss()
    );
}

fn run_differential(label: &str, build: fn() -> TestNet) {
    let TestNet { net, inputs } = build();
    let pool = Arc::new(WorkerPool::new(ExecConfig::default().threads));

    // Reference side: one forward group at a time, the way an eager
    // framework runs one kernel per op.
    let mut eager = reference(&net, &inputs);
    for group in 0..eager.forward_groups() {
        eager.run_forward_group(group).unwrap();
    }

    for (tag, opt) in standard_configs() {
        let tag = format!("{label}/{tag}");
        let mut exec = common::lower(&net, &opt).instantiate(Arc::clone(&pool)).unwrap();
        feed_exec(&mut exec, &inputs);
        exec.forward();
        assert_bit_identical(&tag, &eager, &exec);
    }
}

#[test]
fn interpreter_matches_executor_fc() {
    run_differential("fc", common::fc_net);
}

#[test]
fn interpreter_matches_executor_conv() {
    run_differential("conv", common::conv_net);
}

#[test]
fn interpreter_matches_executor_fusion() {
    run_differential("fusion", common::fusion_chain);
}

#[test]
fn interpreter_matches_executor_classifier() {
    run_differential("classifier", common::classifier_net);
}

#[test]
fn interpreter_matches_executor_lstm() {
    run_differential("lstm", || common::lstm_net(2));
}

/// Stepping is observable: the groups run one at a time add up to a
/// whole forward pass (the loss agrees with `Interpreter::forward` bit
/// for bit), and a step past the last group is refused.
#[test]
fn interpreter_steps_group_by_group() {
    let TestNet { net, inputs } = common::fc_net();
    let mut stepped = reference(&net, &inputs);
    let groups = stepped.forward_groups();
    assert!(groups > 3, "expected several op-groups, got {groups}");
    for group in 0..groups {
        stepped.run_forward_group(group).unwrap();
    }
    assert!(stepped.run_forward_group(groups).is_err());
    let mut whole = reference(&net, &inputs);
    whole.forward().unwrap();
    assert!(stepped.loss().is_finite());
    assert_eq!(stepped.loss().to_bits(), whole.loss().to_bits());
}
