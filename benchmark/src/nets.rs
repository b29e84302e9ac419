//! The nets the workloads run and the seeded inputs they are fed.
//!
//! Parameter seeds are fixed in here; `--seed` drives only the inputs
//! (images, labels, request payloads, arrival times).

use latte_core::dsl::Net;
use latte_core::CompiledNet;
use latte_nn::layers::{data, fully_connected, relu, softmax_loss, tanh};
use latte_nn::models::{self, ModelConfig};
use latte_nn::rnn::lstm;

use crate::util::{Digest, Rng};

/// A batch-parametric net: the description every set-up starts from.
#[derive(Clone, Copy)]
pub struct NetSpec {
    pub build: fn(usize) -> Net,
    /// Label range of the `label` input.
    pub classes: usize,
}

fn image_cfg(batch: usize, input_size: usize, classes: usize) -> ModelConfig {
    ModelConfig {
        batch,
        input_size,
        channel_div: 4,
        classes,
        with_loss: true,
        seed: 5,
    }
}

/// The paper's Figure-13 conv groups: `vgg_prefix(cfg, 2)` on 32x32x3.
pub const VGG: NetSpec = NetSpec {
    build: |batch| models::vgg_prefix(&image_cfg(batch, 32, 100), 2).net,
    classes: 100,
};

/// LeNet on 28x28x1 (trained in train.lenet.t2, served in
/// serve.tcp.burst).
pub const LENET: NetSpec = NetSpec {
    build: |batch| models::lenet(&image_cfg(batch, 28, 10)).net,
    classes: 10,
};

pub const LSTM_STEPS: usize = 16;

/// An LSTM unrolled 16 steps, input 32, hidden 64, with a 10-way head
/// on the last output.
pub const LSTM: NetSpec = NetSpec {
    build: |batch| {
        let mut step = Net::new(batch);
        let x = data(&mut step, "x", vec![32]);
        lstm(&mut step, "lstm", x, 64, 19);
        let mut net = step.unroll(LSTM_STEPS);
        let last = net
            .find(&format!("lstm_h@t{}", LSTM_STEPS - 1))
            .expect("the unrolled LSTM has a last output");
        let head = fully_connected(&mut net, "head", last, 10, 20);
        let label = data(&mut net, "label", vec![1]);
        softmax_loss(&mut net, "loss", head, label);
        net
    },
    classes: 10,
};

/// The 16 -> 32 -> 24 -> 10 classifier served in serve.steady.
pub const CLASSIFIER: NetSpec = NetSpec {
    build: |batch| {
        let mut net = Net::new(batch);
        let x = data(&mut net, "data", vec![16]);
        let fc1 = fully_connected(&mut net, "fc1", x, 32, 21);
        let a1 = tanh(&mut net, "a1", fc1);
        let fc2 = fully_connected(&mut net, "fc2", a1, 24, 22);
        let a2 = relu(&mut net, "a2", fc2);
        let head = fully_connected(&mut net, "head", a2, 10, 23);
        let label = data(&mut net, "label", vec![1]);
        softmax_loss(&mut net, "loss", head, label);
        net
    },
    classes: 10,
};

/// The 256 -> 256 -> 256 -> 10 MLP of cluster.ring2: 134 k parameters,
/// 0.54 MB of gradients per step. (The issue's first sizing, 512-wide at
/// batch 8, put all-reduce at 36x backward; see the README.)
pub const RING_MLP: NetSpec = NetSpec {
    build: |batch| {
        let cfg = ModelConfig {
            batch,
            input_size: 256,
            channel_div: 1,
            classes: 10,
            with_loss: true,
            seed: 7,
        };
        models::mlp(&cfg, &[256, 256]).net
    },
    classes: 10,
};

/// One batch (or one item) of inputs: `(data ensemble, values)` pairs.
pub type Inputs = Vec<(String, Vec<f32>)>;

/// `(ensemble, per-item length)` of every input the compiled net reads.
pub fn signature(compiled: &CompiledNet) -> Vec<(String, usize)> {
    compiled
        .inputs
        .iter()
        .map(|i| (i.ensemble.clone(), i.len))
        .collect()
}

/// One item's inputs: a class id for `label`, zeros for recurrent
/// initial state, uniform values in (-1, 1) for everything else.
pub fn sample(sig: &[(String, usize)], classes: usize, rng: &mut Rng) -> Inputs {
    sig.iter()
        .map(|(ensemble, len)| {
            let values = if ensemble == "label" {
                vec![rng.below(classes) as f32]
            } else if ensemble.ends_with("@init") {
                vec![0.0; *len]
            } else {
                (0..*len).map(|_| rng.signed(1.0)).collect()
            };
            (ensemble.clone(), values)
        })
        .collect()
}

/// A whole batch, item-major per input, as `Executor::set_input` takes
/// it.
pub fn batch(sig: &[(String, usize)], classes: usize, items: usize, rng: &mut Rng) -> Inputs {
    let mut out: Inputs = sig
        .iter()
        .map(|(ensemble, len)| (ensemble.clone(), Vec::with_capacity(items * len)))
        .collect();
    for _ in 0..items {
        for (slot, (_, values)) in out.iter_mut().zip(sample(sig, classes, rng)) {
            slot.1.extend(values);
        }
    }
    out
}

/// `count` batches and the digest of every value in them.
pub fn batch_pool(
    sig: &[(String, usize)],
    classes: usize,
    items: usize,
    count: usize,
    rng: &mut Rng,
) -> (Vec<Inputs>, u64) {
    let mut digest = Digest::default();
    let pool: Vec<_> = (0..count)
        .map(|_| {
            let b = batch(sig, classes, items, rng);
            digest.batch(&b);
            b
        })
        .collect();
    (pool, digest.finish() & 0xffff_ffff_ffff)
}
