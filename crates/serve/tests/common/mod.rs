//! Shared helpers for the serving test suite.
//!
//! The five batch-parametric test nets now live in [`latte_serve::zoo`]
//! (the binary serves them too) with their seeded request generator;
//! this module re-exports them and adds the test-only piece: the plain
//! batch-1 executor oracle every served sample is compared bit-for-bit
//! against.

#![allow(dead_code)]

use latte_core::{compile, OptLevel};
use latte_runtime::Executor;
use latte_serve::Request;

// Each test binary uses its own subset of these. `sample(name, seed)` is
// the zoo's deterministic single-sample request for the named net.
#[allow(unused_imports)]
pub use latte_serve::zoo::{classes, factory, input_signature, sample, LSTM_STEPS, NETS};

/// Registers the named test net as a served [`latte_serve::Model`]
/// (full optimization, `head.value` output).
pub fn model(name: &str) -> latte_serve::Model {
    latte_serve::zoo::model(name).expect("model registration")
}

/// The oracle for a served sample: the same request run alone through a
/// plain batch-1 [`Executor`], returning `head.value`.
pub fn reference(name: &str, req: &Request) -> Vec<f32> {
    let net = factory(name)(1);
    let compiled = compile(&net, &OptLevel::full()).expect("reference compile");
    let mut exec = Executor::new(compiled).expect("reference executor");
    for (ensemble, values) in &req.inputs {
        exec.set_input(ensemble, values).expect("reference input");
    }
    exec.forward();
    exec.read_item("head.value", 0).expect("reference output")
}
