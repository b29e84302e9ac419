//! Shared network builders for the harness integration tests.
//!
//! Each builder returns the network plus the exact `(ensemble, values)`
//! inputs to drive it — deterministic (seeded), so every test failure
//! reproduces byte-for-byte.

use latte_core::dsl::Net;
use latte_core::{compile, OptLevel};
use latte_nn::layers::{
    convolution, data, fully_connected, max_pool, relu, sigmoid, softmax_loss, tanh, ConvSpec,
};
use latte_nn::rnn::lstm;
use latte_runtime::registry::KernelRegistry;
use latte_runtime::{CompiledProgram, ExecConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A network compiled at `opt` and lowered with the built-in kernels and
/// the default execution configuration (only `trace_eager` and
/// `varlen_props` use it, hence the `allow`).
#[allow(dead_code)]
pub fn lower(net: &Net, opt: &OptLevel) -> CompiledProgram {
    let compiled = compile(net, opt).expect("net compiles");
    CompiledProgram::lower(
        compiled,
        &KernelRegistry::with_builtins(),
        ExecConfig::default(),
    )
    .expect("net lowers")
}

/// A test network plus its input feed.
pub struct TestNet {
    pub net: Net,
    pub inputs: Vec<(String, Vec<f32>)>,
}

fn values(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn labels(rng: &mut StdRng, batch: usize, classes: usize) -> Vec<f32> {
    (0..batch)
        .map(|_| rng.gen_range(0..classes) as f32)
        .collect()
}

/// Plain fully-connected MLP: data[5] → fc8+tanh → fc6+sigmoid → fc4 →
/// softmax loss, batch 3.
pub fn fc_net() -> TestNet {
    let mut rng = StdRng::seed_from_u64(101);
    let (batch, input, classes) = (3, 5, 4);
    let mut net = Net::new(batch);
    let x = data(&mut net, "data", vec![input]);
    let fc1 = fully_connected(&mut net, "fc1", x, 8, 7);
    let a1 = tanh(&mut net, "a1", fc1);
    let fc2 = fully_connected(&mut net, "fc2", a1, 6, 8);
    let a2 = sigmoid(&mut net, "a2", fc2);
    let head = fully_connected(&mut net, "head", a2, classes, 9);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    let inputs = vec![
        ("data".to_string(), values(&mut rng, batch * input)),
        ("label".to_string(), labels(&mut rng, batch, classes)),
    ];
    TestNet { net, inputs }
}

/// Single convolution straight into a classifier head, batch 2.
pub fn conv_net() -> TestNet {
    let mut rng = StdRng::seed_from_u64(202);
    let (batch, side, in_c, classes) = (2, 5, 2, 3);
    let mut net = Net::new(batch);
    let x = data(&mut net, "data", vec![side, side, in_c]);
    let conv = convolution(&mut net, "conv", x, ConvSpec::same(3, 3), 11);
    let head = fully_connected(&mut net, "head", conv, classes, 12);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    let inputs = vec![
        (
            "data".to_string(),
            values(&mut rng, batch * side * side * in_c),
        ),
        ("label".to_string(), labels(&mut rng, batch, classes)),
    ];
    TestNet { net, inputs }
}

/// The fusion chain of the paper's Section 5.3: conv → ReLU → max-pool →
/// fc → softmax loss, batch 2. Under `OptLevel::full()` the conv/ReLU/
/// pool trio fuses and tiles; the oracle runs it unfused.
pub fn fusion_chain() -> TestNet {
    let mut rng = StdRng::seed_from_u64(303);
    let (batch, side, classes) = (2, 6, 3);
    let mut net = Net::new(batch);
    let x = data(&mut net, "data", vec![side, side, 1]);
    let conv = convolution(&mut net, "conv", x, ConvSpec::same(2, 3), 13);
    let act = relu(&mut net, "act", conv);
    let pool = max_pool(&mut net, "pool", act, 2, 2);
    let head = fully_connected(&mut net, "head", pool, classes, 14);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    let inputs = vec![
        ("data".to_string(), values(&mut rng, batch * side * side)),
        ("label".to_string(), labels(&mut rng, batch, classes)),
    ];
    TestNet { net, inputs }
}

/// Deeper softmax classifier: data[7] → fc10+relu → fc8+sigmoid → fc5 →
/// softmax loss, batch 4.
pub fn classifier_net() -> TestNet {
    let mut rng = StdRng::seed_from_u64(404);
    let (batch, input, classes) = (4, 7, 5);
    let mut net = Net::new(batch);
    let x = data(&mut net, "data", vec![input]);
    let fc1 = fully_connected(&mut net, "fc1", x, 10, 15);
    let a1 = relu(&mut net, "a1", fc1);
    let fc2 = fully_connected(&mut net, "fc2", a1, 8, 16);
    let a2 = sigmoid(&mut net, "a2", fc2);
    let head = fully_connected(&mut net, "head", a2, classes, 17);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    let inputs = vec![
        ("data".to_string(), values(&mut rng, batch * input)),
        ("label".to_string(), labels(&mut rng, batch, classes)),
    ];
    TestNet { net, inputs }
}

/// An LSTM unrolled over `steps` time steps with a classifier head on the
/// final hidden state, batch 2.
pub fn lstm_net(steps: usize) -> TestNet {
    let mut rng = StdRng::seed_from_u64(505);
    let (batch, width, hidden, classes) = (2, 3, 4, 3);
    let mut step_net = Net::new(batch);
    let x = data(&mut step_net, "x", vec![width]);
    lstm(&mut step_net, "lstm", x, hidden, 19);
    let mut net = step_net.unroll(steps);
    let final_h = net
        .find(&format!("lstm_h@t{}", steps - 1))
        .expect("unrolled LSTM output missing");
    let head = fully_connected(&mut net, "head", final_h, classes, 20);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    let mut inputs: Vec<(String, Vec<f32>)> = (0..steps)
        .map(|t| (format!("x@t{t}"), values(&mut rng, batch * width)))
        .collect();
    inputs.push(("label".to_string(), labels(&mut rng, batch, classes)));
    TestNet { net, inputs }
}
