//! Seeded random-network generation for property testing.
//!
//! [`random_net`] derives a small but structurally varied network — plus
//! matched input data — entirely from one `u64` seed, so a failing case
//! reproduces from its seed alone. Three families are sampled:
//!
//! 1. **vector chains** — FC layers of random widths with random
//!    activations, ending in a softmax or L2 loss;
//! 2. **image chains** — convolution → ReLU → max-pool → FC → softmax
//!    loss over a random `(y, x, c)` input;
//! 3. **branch-and-merge** — two parallel FC branches joined by
//!    element-wise addition, exercising multi-input gradient fan-in.
//!
//! Dropout is deliberately never generated: its mask comes from a shared
//! process-wide counter, so two executors of the same net draw different
//! masks and differential comparison would be meaningless.

use latte_core::dsl::{EnsembleId, Net};
use latte_nn::layers::{
    convolution, data, eltwise_add, fully_connected, l2_loss, max_pool, relu, sigmoid,
    softmax_loss, tanh, ConvSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated network with the inputs to drive it.
pub struct RandomNet {
    /// The network, ready to compile.
    pub net: Net,
    /// `(data ensemble name, batch-major values)` pairs for
    /// `set_input`.
    pub inputs: Vec<(String, Vec<f32>)>,
    /// Human-readable summary for failure messages.
    pub description: String,
}

impl std::fmt::Debug for RandomNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RandomNet({})", self.description)
    }
}

/// Generates a random small network and matching inputs from `seed`.
pub fn random_net(seed: u64) -> RandomNet {
    let mut rng = StdRng::seed_from_u64(seed);
    match rng.gen_range(0u32..3) {
        0 => vector_chain(seed, &mut rng),
        1 => image_chain(seed, &mut rng),
        _ => branch_merge(seed, &mut rng),
    }
}

fn random_activation(
    rng: &mut StdRng,
    net: &mut Net,
    name: &str,
    x: EnsembleId,
) -> (EnsembleId, &'static str) {
    match rng.gen_range(0u32..3) {
        0 => (relu(net, name, x), "relu"),
        1 => (sigmoid(net, name, x), "sigmoid"),
        _ => (tanh(net, name, x), "tanh"),
    }
}

fn batch_values(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn labels(rng: &mut StdRng, batch: usize, classes: usize) -> Vec<f32> {
    (0..batch)
        .map(|_| rng.gen_range(0..classes) as f32)
        .collect()
}

fn vector_chain(seed: u64, rng: &mut StdRng) -> RandomNet {
    let batch = rng.gen_range(1usize..4);
    let input_size = rng.gen_range(3usize..8);
    let depth = rng.gen_range(1usize..4);
    let mut net = Net::new(batch);
    let x = data(&mut net, "data", vec![input_size]);
    let mut cur = x;
    let mut acts = Vec::new();
    for l in 0..depth {
        let width = rng.gen_range(2usize..6);
        let fc = fully_connected(&mut net, &format!("fc{l}"), cur, width, seed ^ l as u64);
        let (a, kind) = random_activation(rng, &mut net, &format!("act{l}"), fc);
        acts.push(format!("{width}:{kind}"));
        cur = a;
    }
    let mut inputs = vec![("data".to_string(), batch_values(rng, batch * input_size))];
    let loss_kind = if rng.gen_range(0u32..4) == 0 {
        // L2 regression head against a random target of the same width.
        let width = rng.gen_range(2usize..5);
        let head = fully_connected(&mut net, "head", cur, width, seed ^ 0xbeef);
        let target = data(&mut net, "target", vec![width]);
        l2_loss(&mut net, "loss", head, target);
        inputs.push(("target".to_string(), batch_values(rng, batch * width)));
        format!("l2[{width}]")
    } else {
        let classes = rng.gen_range(2usize..5);
        let head = fully_connected(&mut net, "head", cur, classes, seed ^ 0xbeef);
        let label = data(&mut net, "label", vec![1]);
        softmax_loss(&mut net, "loss", head, label);
        inputs.push(("label".to_string(), labels(rng, batch, classes)));
        format!("softmax[{classes}]")
    };
    RandomNet {
        net,
        inputs,
        description: format!(
            "seed {seed}: vector chain batch={batch} in={input_size} layers=[{}] loss={loss_kind}",
            acts.join(",")
        ),
    }
}

fn image_chain(seed: u64, rng: &mut StdRng) -> RandomNet {
    let batch = rng.gen_range(1usize..3);
    let side = rng.gen_range(4usize..7);
    let in_c = rng.gen_range(1usize..3);
    let out_c = rng.gen_range(2usize..4);
    let classes = rng.gen_range(2usize..5);
    let mut net = Net::new(batch);
    let x = data(&mut net, "data", vec![side, side, in_c]);
    let conv = convolution(&mut net, "conv", x, ConvSpec::same(out_c, 3), seed ^ 0xc0);
    let act = relu(&mut net, "act", conv);
    let pool = max_pool(&mut net, "pool", act, 2, 2);
    let head = fully_connected(&mut net, "head", pool, classes, seed ^ 0xfc);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    let inputs = vec![
        (
            "data".to_string(),
            batch_values(rng, batch * side * side * in_c),
        ),
        ("label".to_string(), labels(rng, batch, classes)),
    ];
    RandomNet {
        net,
        inputs,
        description: format!(
            "seed {seed}: image chain batch={batch} in={side}x{side}x{in_c} conv={out_c}ch pool=2 classes={classes}"
        ),
    }
}

fn branch_merge(seed: u64, rng: &mut StdRng) -> RandomNet {
    let batch = rng.gen_range(1usize..4);
    let input_size = rng.gen_range(3usize..7);
    let width = rng.gen_range(2usize..6);
    let classes = rng.gen_range(2usize..5);
    let mut net = Net::new(batch);
    let x = data(&mut net, "data", vec![input_size]);
    let left = fully_connected(&mut net, "left", x, width, seed ^ 0x11);
    let right = fully_connected(&mut net, "right", x, width, seed ^ 0x22);
    let merged = eltwise_add(&mut net, "merge", &[left, right]);
    let (act, kind) = random_activation(rng, &mut net, "act", merged);
    let head = fully_connected(&mut net, "head", act, classes, seed ^ 0x33);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    let inputs = vec![
        ("data".to_string(), batch_values(rng, batch * input_size)),
        ("label".to_string(), labels(rng, batch, classes)),
    ];
    RandomNet {
        net,
        inputs,
        description: format!(
            "seed {seed}: branch-merge batch={batch} in={input_size} width={width} act={kind} classes={classes}"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for seed in [0u64, 1, 17, 9999] {
            let a = random_net(seed);
            let b = random_net(seed);
            assert_eq!(a.description, b.description);
            assert_eq!(a.inputs, b.inputs);
            assert_eq!(a.net.len(), b.net.len());
        }
    }

    #[test]
    fn every_family_is_reachable() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64u64 {
            let d = random_net(seed).description;
            for family in ["vector chain", "image chain", "branch-merge"] {
                if d.contains(family) {
                    seen.insert(family);
                }
            }
        }
        assert_eq!(seen.len(), 3, "only saw {seen:?}");
    }
}
