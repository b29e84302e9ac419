//! Property tests for dynamic shapes: a bucketed variable-length batch
//! must be bit-identical (`to_bits()`) to a solo fixed-length unroll for
//! every length 1..=12, and two executors of one lowered program must
//! agree exactly — across the five oracle nets.
//!
//! Correctness of bucketing rests on the mask-select readout: padding a
//! length-`len` sequence to its power-of-two bucket adds only zero-input
//! steps nobody reads, and the one-hot mask reproduces `h_{len-1}` bit
//! for bit (see `latte_nn::varlen`).

mod common;

use std::sync::Arc;

use latte_core::dsl::Net;
use latte_core::{compile, OptLevel};
use latte_ir::BufferKind;
use latte_nn::layers::{data, fully_connected, softmax_loss};
use latte_nn::rnn::lstm;
use latte_nn::varlen::{bucket_len, last_step_mask, lstm_seq};
use latte_runtime::pool::WorkerPool;
use latte_runtime::{ExecConfig, Executor};
use proptest::prelude::*;

const BATCH: usize = 2;
const WIDTH: usize = 3;
const HIDDEN: usize = 4;
const CLASSES: usize = 3;
const LSTM_SEED: u64 = 19;
const HEAD_SEED: u64 = 20;

fn proptest_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)).wrapping_mul(1)
}

fn uniform(state: &mut u64) -> f32 {
    ((splitmix64(state) >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
}

fn step_inputs(seed: u64, len: usize) -> Vec<Vec<f32>> {
    let mut state = seed;
    (0..len)
        .map(|_| (0..BATCH * WIDTH).map(|_| uniform(&mut state)).collect())
        .collect()
}

fn labels(seed: u64) -> Vec<f32> {
    let mut state = seed ^ 0xdead_beef;
    (0..BATCH)
        .map(|_| (splitmix64(&mut state) as usize % CLASSES) as f32)
        .collect()
}

/// The solo reference: the same LSTM unit unrolled to exactly `len`
/// steps, head on the true last hidden state.
fn solo_net(len: usize) -> Net {
    let mut step_net = Net::new(BATCH);
    let x = data(&mut step_net, "x", vec![WIDTH]);
    lstm(&mut step_net, "lstm", x, HIDDEN, LSTM_SEED);
    let mut net = step_net.unroll(len);
    let last = net.find(&format!("lstm_h@t{}", len - 1)).unwrap();
    let head = fully_connected(&mut net, "head", last, CLASSES, HEAD_SEED);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    net
}

/// The bucketed subject: unrolled to `bucket_len(len)` with a mask-select
/// readout, same seeds → same parameters as the solo net.
fn bucketed_net(len: usize) -> (Net, usize) {
    let bucket = bucket_len(len);
    let (mut net, seq) = lstm_seq(BATCH, "lstm", WIDTH, HIDDEN, bucket, LSTM_SEED);
    let head = fully_connected(&mut net, "head", seq.readout, CLASSES, HEAD_SEED);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    (net, bucket)
}

fn feed_solo(exec: &mut Executor, xs: &[Vec<f32>], labels: &[f32]) {
    for (t, x) in xs.iter().enumerate() {
        exec.set_input(&format!("x@t{t}"), x).unwrap();
    }
    exec.set_input("label", labels).unwrap();
}

fn feed_bucketed(exec: &mut Executor, xs: &[Vec<f32>], labels: &[f32], len: usize, bucket: usize) {
    debug_assert_eq!(xs.len(), len);
    let zero = vec![0.0; BATCH * WIDTH];
    for t in 0..bucket {
        // Padded steps past the true length carry exact zeros.
        let x = xs.get(t).unwrap_or(&zero);
        exec.set_input(&format!("x@t{t}"), x).unwrap();
    }
    let mask = last_step_mask(len, bucket);
    let batched: Vec<f32> = (0..BATCH).flat_map(|_| mask.iter().copied()).collect();
    exec.set_input("lstm_last_mask", &batched).unwrap();
    exec.set_input("label", labels).unwrap();
}

fn assert_bits(tag: &str, a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "[{tag}] length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "[{tag}] [{i}]: {x} vs {y}");
    }
}

fn param_grads(exec: &mut Executor) -> Vec<(String, Vec<f32>)> {
    let mut out = Vec::new();
    exec.for_each_param_grad_mut(|name, g| out.push((name.to_string(), g.to_vec())));
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(12)))]

    /// Any length 1..=12, any input stream: the bucketed batch equals the
    /// solo fixed unroll bit for bit — loss, readout vs true last hidden
    /// state, and every shared parameter gradient — on two executors of
    /// the one lowered program.
    #[test]
    fn bucketed_varlen_is_bit_identical_to_solo_unroll(
        len in 1usize..13,
        seed in 0u64..1_000_000,
    ) {
        let opt = OptLevel::full();
        let pool = Arc::new(WorkerPool::new(ExecConfig::default().threads));
        let xs = step_inputs(seed, len);
        let y = labels(seed);

        let mut solo = Executor::new(compile(&solo_net(len), &opt).unwrap()).unwrap();
        feed_solo(&mut solo, &xs, &y);
        solo.forward();
        solo.backward();
        let solo_h = solo.read_buffer(&format!("lstm_h@t{}.value", len - 1)).unwrap();
        let solo_grads = param_grads(&mut solo);

        let (net, bucket) = bucketed_net(len);
        let program = common::lower(&net, &opt);
        for path in ["first", "second"] {
            let mut exec = program.instantiate(Arc::clone(&pool)).unwrap();
            feed_bucketed(&mut exec, &xs, &y, len, bucket);
            exec.forward();
            exec.backward();
            let tag = format!("len={len} bucket={bucket} {path}");
            assert_bits(
                &format!("{tag} readout"),
                &exec.read_buffer("lstm_last.value").unwrap(),
                &solo_h,
            );
            prop_assert_eq!(
                exec.loss().to_bits(),
                solo.loss().to_bits(),
                "[{}] loss {} vs {}", tag, exec.loss(), solo.loss()
            );
            // Shared step-0 parameter gradients accumulate identically:
            // padded steps contribute exact zeros.
            let grads = param_grads(&mut exec);
            prop_assert_eq!(grads.len(), solo_grads.len());
            for ((na, ga), (nb, gb)) in grads.iter().zip(&solo_grads) {
                prop_assert_eq!(na, nb);
                assert_bits(&format!("{tag} grad {na}"), ga, gb);
            }
        }
    }

    /// Across the five oracle nets: two `instantiate()`s of one program
    /// are bit-identical on every primary activation buffer and the loss.
    #[test]
    fn two_instantiations_of_one_program_agree_bitwise(
        which in 0usize..5,
        scale in 0.25f32..2.0,
    ) {
        let common::TestNet { net, inputs } = match which {
            0 => common::fc_net(),
            1 => common::conv_net(),
            2 => common::fusion_chain(),
            3 => common::classifier_net(),
            _ => common::lstm_net(2),
        };
        // Perturb the inputs so every case exercises fresh values (labels
        // stay integral class indices).
        let inputs: Vec<(String, Vec<f32>)> = inputs
            .into_iter()
            .map(|(name, v)| {
                if name == "label" {
                    (name, v)
                } else {
                    (name, v.into_iter().map(|x| x * scale).collect())
                }
            })
            .collect();
        let opt = OptLevel::full();
        let pool = Arc::new(WorkerPool::new(ExecConfig::default().threads));
        let program = common::lower(&net, &opt);

        let run = || {
            let mut exec = program.instantiate(Arc::clone(&pool)).unwrap();
            for (name, v) in &inputs {
                exec.set_input(name, v).unwrap();
            }
            exec.forward();
            exec.backward();
            exec
        };
        let first = run();
        let second = run();

        prop_assert_eq!(first.loss().to_bits(), second.loss().to_bits());
        for b in &first.compiled().buffers {
            if b.kind == BufferKind::Value && b.alias_of.is_none() {
                assert_bits(
                    &format!("net {which} {}", b.name),
                    &first.read_buffer(&b.name).unwrap(),
                    &second.read_buffer(&b.name).unwrap(),
                );
            }
        }
    }
}
