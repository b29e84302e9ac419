//! Differential coverage for the worker pool (`ExecConfig::threads`).
//!
//! The thread count changes *who computes*, never *what is computed*:
//! parallel kernel groups route items through fixed gradient lanes and
//! `compute_parallel` either partitions the macro-tile grid of GEMM's
//! constant block sizes or runs the GEMM whole on the caller, so for every
//! harness net and every standard optimization configuration an executor
//! run with 2 or 4 worker threads must produce bit-identical buffers to
//! a single-threaded one — across a forward pass and two full training
//! steps with parameter updates in between.

mod common;

use common::{classifier_net, conv_net, fc_net, fusion_chain, lstm_net, TestNet};
use latte_core::{compile, OptLevel};
use latte_oracle::standard_configs;
use latte_runtime::registry::KernelRegistry;
use latte_runtime::{ExecConfig, Executor};

fn executor(t: &TestNet, opt: &OptLevel, threads: usize) -> Executor {
    let compiled = compile(&t.net, opt).expect("compile");
    let mut exec = Executor::with_registry(
        compiled,
        &KernelRegistry::with_builtins(),
        ExecConfig {
            threads,
            ..ExecConfig::default()
        },
    )
    .expect("lower");
    for (ensemble, data) in &t.inputs {
        exec.set_input(ensemble, data).expect("input");
    }
    exec
}

/// One forward pass plus two SGD training steps — enough to flow any
/// thread-dependent divergence through gradients into parameters and
/// back into activations on the next step.
fn train(exec: &mut Executor) -> Vec<f32> {
    let mut losses = Vec::new();
    exec.forward();
    losses.push(exec.loss());
    for _ in 0..2 {
        exec.backward();
        exec.for_each_param_mut(|value, grad, lr_mult| {
            for (v, g) in value.iter_mut().zip(grad) {
                *v -= 0.01 * lr_mult * g;
            }
        });
        exec.forward();
        losses.push(exec.loss());
    }
    losses
}

fn assert_threads_bit_identical(t: &TestNet, opt: &OptLevel, threads: usize, label: &str) {
    let mut one = executor(t, opt, 1);
    let mut many = executor(t, opt, threads);
    let losses_one = train(&mut one);
    let losses_many = train(&mut many);
    for (step, (a, b)) in losses_one.iter().zip(&losses_many).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "[{label}] loss diverged at step {step} with {threads} threads: {a} vs {b}"
        );
    }

    let names: Vec<String> = one
        .compiled()
        .buffers
        .iter()
        .map(|d| d.name.clone())
        .collect();
    for name in names {
        let reference = one.read_buffer(&name).expect("buffer readable at 1 thread");
        let parallel = many
            .read_buffer(&name)
            .expect("buffer readable at N threads");
        assert_eq!(
            reference.len(),
            parallel.len(),
            "[{label}] `{name}` length diverged with {threads} threads"
        );
        for (i, (a, b)) in reference.iter().zip(&parallel).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "[{label}] `{name}`[{i}] with {threads} threads: {a} vs {b}"
            );
        }
    }
}

fn sweep(t: &TestNet, net_label: &str) {
    for (label, opt) in standard_configs() {
        for threads in [2, 4] {
            assert_threads_bit_identical(t, &opt, threads, &format!("{net_label}/{label}"));
        }
    }
}

#[test]
fn fc_net_is_bit_identical_across_thread_counts() {
    sweep(&fc_net(), "fc");
}

#[test]
fn conv_net_is_bit_identical_across_thread_counts() {
    sweep(&conv_net(), "conv");
}

#[test]
fn fusion_chain_is_bit_identical_across_thread_counts() {
    sweep(&fusion_chain(), "fusion");
}

#[test]
fn classifier_net_is_bit_identical_across_thread_counts() {
    sweep(&classifier_net(), "classifier");
}

#[test]
fn lstm_net_is_bit_identical_across_thread_counts() {
    sweep(&lstm_net(2), "lstm");
}
