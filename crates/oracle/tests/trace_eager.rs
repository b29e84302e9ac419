//! Interpreter-vs-executor differential, bit for bit: a network
//! synthesized with no optimization and stepped group by group through
//! the reference interpreter, then run backward, must be
//! **bit-identical** to the same network compiled, lowered and executed
//! at every `standard_configs()` opt level — on the loss and on every
//! activation and activation-gradient buffer that is a primary
//! declaration in both compilations.
//!
//! Every loop, element program and GEMM kernel computes `dest += x * y`
//! as one `mac` from `C` in ascending `k`, so only parameter gradients
//! are left out: folded over gradient lanes at batch > 1, they add up in
//! a different order than the interpreter's items do.
//!
//! One opt switch changes the program's gradient bits, not just its
//! speed: without `shared_buffers` an all-to-all input is staged per
//! sink neuron, and its gradient is the scatter-add of products each
//! rounded into its staging element (`mac` from 0) where the shared
//! program fuses each product into the sum. That config's activation
//! gradients are held to an interpreter run of the unshared program; its
//! values and loss to the same reference as every other config.

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
use latte_nn::layers::{data, fully_connected, softmax_loss, tanh};

/// The reference: `net` synthesized at `opt`, fed `inputs`.
fn reference(net: &Net, inputs: &[(String, Vec<f32>)], opt: &OptLevel) -> Interpreter {
    let mut eager = Interpreter::new(compile(net, opt).unwrap()).unwrap();
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

/// Buffers of `kind` primary in both compilations: the comparable
/// surface (aliasing differs between opt levels).
fn shared_primaries(eager: &Interpreter, exec: &Executor, kind: BufferKind) -> Vec<String> {
    let subject: HashSet<&str> = exec
        .compiled()
        .buffers
        .iter()
        .filter(|b| b.kind == kind && b.alias_of.is_none())
        .map(|b| b.name.as_str())
        .collect();
    eager
        .compiled()
        .buffers
        .iter()
        .filter(|b| b.kind == kind && b.alias_of.is_none() && subject.contains(b.name.as_str()))
        .map(|b| b.name.clone())
        .collect()
}

/// Every shared primary of `kind` (at least one), `to_bits()`.
fn assert_bit_identical(tag: &str, eager: &Interpreter, exec: &Executor, kind: BufferKind) {
    let names = shared_primaries(eager, exec, kind);
    assert!(!names.is_empty(), "[{tag}] no comparable {kind:?} buffers");
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
}

/// Every shared activation buffer and the loss, `to_bits()`.
fn assert_values_bit_identical(tag: &str, eager: &Interpreter, exec: &Executor) {
    assert_bit_identical(tag, eager, exec, BufferKind::Value);
    assert_eq!(
        eager.loss().to_bits(),
        exec.loss().to_bits(),
        "[{tag}] loss: interpreter {} vs executor {}",
        eager.loss(),
        exec.loss()
    );
}

/// The reference at `opt`, run forward one group at a time (the way an
/// eager framework runs one kernel per op).
fn stepped(net: &Net, inputs: &[(String, Vec<f32>)], opt: &OptLevel) -> Interpreter {
    let mut eager = reference(net, inputs, opt);
    for group in 0..eager.forward_groups() {
        eager.run_forward_group(group).unwrap();
    }
    eager
}

fn run_differential(label: &str, build: fn() -> TestNet) {
    let TestNet { net, inputs } = build();
    let pool = Arc::new(WorkerPool::new(ExecConfig::default().threads));

    // Both references: one forward group at a time, then backward.
    let mut eager = stepped(&net, &inputs, &OptLevel::none());
    let forward_only = stepped(&net, &inputs, &OptLevel::none());
    eager.backward().unwrap();
    let mut unshared = stepped(&net, &inputs, &OptLevel::none().with_shared_buffers(false));
    unshared.backward().unwrap();

    for (tag, opt) in standard_configs() {
        let tag = format!("{label}/{tag}");
        let mut exec = common::lower(&net, &opt)
            .instantiate(Arc::clone(&pool))
            .unwrap();
        feed_exec(&mut exec, &inputs);
        exec.forward();
        assert_values_bit_identical(&tag, &forward_only, &exec);
        exec.backward();
        assert_values_bit_identical(&tag, &eager, &exec);
        let grads = if opt.shared_buffers {
            &eager
        } else {
            &unshared
        };
        assert_bit_identical(&tag, grads, &exec, BufferKind::Grad);
    }
}

/// An FC layer of 40 outputs over 300 inputs, batch 2: wider than the
/// narrow GEMM kernels take and deeper than one 256-wide `k` block, so
/// its forward and backward GEMMs run the tiled kernels.
fn wide_fc_net() -> TestNet {
    let (batch, input, classes) = (2, 300, 3);
    let mut net = Net::new(batch);
    let x = data(&mut net, "data", vec![input]);
    let fc = fully_connected(&mut net, "fc", x, 40, 21);
    let act = tanh(&mut net, "act", fc);
    let head = fully_connected(&mut net, "head", act, classes, 22);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    let values = (0..batch * input).map(|i| ((i * 37 % 101) as f32 - 50.0) / 61.0);
    let inputs = vec![
        ("data".to_string(), values.collect()),
        ("label".to_string(), vec![2.0, 0.0]),
    ];
    TestNet { net, inputs }
}

#[test]
fn interpreter_matches_executor_wide_fc() {
    run_differential("wide-fc", wide_fc_net);
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
    let mut stepped = reference(&net, &inputs, &OptLevel::none());
    let groups = stepped.forward_groups();
    assert!(groups > 3, "expected several op-groups, got {groups}");
    for group in 0..groups {
        stepped.run_forward_group(group).unwrap();
    }
    assert!(stepped.run_forward_group(groups).is_err());
    let mut whole = reference(&net, &inputs, &OptLevel::none());
    whole.forward().unwrap();
    assert!(stepped.loss().is_finite());
    assert_eq!(stepped.loss().to_bits(), whole.loss().to_bits());
}
