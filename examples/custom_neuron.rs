//! Defining a brand-new neuron type — the workflow the paper's DSL is
//! designed for: a researcher specifies forward/backward per neuron and
//! the compiler synthesizes, optimizes, and parallelizes the network.
//!
//! Here we define a *Swish* neuron (`x * sigmoid(x)`, Ramachandran et
//! al.) and a *leaky* ReLU with a learnable-looking fixed slope field,
//! drop them into a small network, and inspect what the compiler did.
//!
//! ```text
//! cargo run --release --example custom_neuron
//! ```

use latte::core::dsl::{Ensemble, FieldLen, Mapping, Net, NeuronType};
use latte::core::{compile, OptLevel};
use latte::ir::UnaryOp;
use latte::nn::layers::{data, fully_connected, l2_loss};
use latte::runtime::Executor;
use latte::tensor::Tensor;

/// Swish activation: value = x * σ(x); uses the identity
/// d/dx = σ(x) + x·σ(x)·(1-σ(x)) = value + σ(x)·(1 - value).
fn swish_neuron() -> NeuronType {
    NeuronType::builder("SwishNeuron")
        .forward(|b| {
            let x = b.input(0, 0);
            b.assign(b.value(), x.clone().mul(x.unary(UnaryOp::Sigmoid)));
        })
        .backward(|b| {
            let sig = b.input(0, 0).unary(UnaryOp::Sigmoid);
            let deriv = b.value_expr().add(sig.mul(b.lit(1.0).sub(b.value_expr())));
            b.accumulate(b.grad_input(0, 0), b.grad_expr().mul(deriv));
        })
        .build()
}

/// Leaky ReLU with the slope stored as a per-neuron field, showing how
/// user fields become struct-of-arrays buffers.
fn leaky_relu_neuron() -> NeuronType {
    NeuronType::builder("LeakyReLU")
        .field("slope", FieldLen::Scalar)
        .forward(|b| {
            let x = b.input(0, 0);
            let scaled = b.field("slope", 0).mul(x.clone());
            b.assign(b.value(), x.max(scaled));
        })
        .backward(|b| {
            // step(x) + slope * (1 - step(x))
            let step = b.input(0, 0).unary(UnaryOp::Step);
            let deriv = step
                .clone()
                .add(b.field("slope", 0).mul(b.lit(1.0).sub(step)));
            b.accumulate(b.grad_input(0, 0), b.grad_expr().mul(deriv));
        })
        .build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let batch = 4;
    let width = 16;
    let mut net = Net::new(batch);
    let d = data(&mut net, "data", vec![width]);
    let fc1 = fully_connected(&mut net, "fc1", d, 32, 1);

    // Custom neurons slot in exactly like the standard library's.
    let swish = net.add(Ensemble::new("swish1", vec![32], swish_neuron()));
    net.connect(fc1, swish, Mapping::one_to_one());

    let leaky = net.add(
        Ensemble::new("leaky1", vec![32], leaky_relu_neuron()).with_field(
            "slope",
            vec![false],
            Tensor::full(vec![32, 1], 0.1),
        ),
    );
    net.connect(swish, leaky, Mapping::one_to_one());

    let fc2 = fully_connected(&mut net, "fc2", leaky, width, 2);
    let target = data(&mut net, "target", vec![width]);
    l2_loss(&mut net, "loss", fc2, target);

    let compiled = compile(&net, &OptLevel::full())?;
    println!("== synthesized + optimized program ==");
    print!("{}", compiled.pretty());
    println!(
        "stats: {} GEMMs, {} fusions, {} aliased buffers",
        compiled.stats.gemms_matched, compiled.stats.fusions, compiled.stats.aliased_buffers
    );

    // Train the net as an identity autoencoder for a few steps.
    let mut exec = Executor::new(compiled)?;
    let input: Vec<f32> = (0..batch * width)
        .map(|i| ((i % 7) as f32 - 3.0) / 3.0)
        .collect();
    exec.set_input("data", &input)?;
    exec.set_input("target", &input)?;
    exec.forward();
    let before = exec.loss();
    for _ in 0..200 {
        exec.forward();
        exec.backward();
        exec.for_each_param_mut(|v, g, lr_mult| {
            for (vi, gi) in v.iter_mut().zip(g) {
                *vi -= 0.05 * lr_mult * gi;
            }
        });
    }
    exec.forward();
    println!("identity-fit loss: {before:.5} -> {:.5}", exec.loss());
    Ok(())
}
