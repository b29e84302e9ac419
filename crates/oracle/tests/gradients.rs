//! Finite-difference validation of the synthesized backward pass on
//! every parameterized layer family: fully-connected, convolution (in
//! the fused conv+ReLU+pool chain), softmax loss, and the LSTM cell.

mod common;

use latte_oracle::{check_gradients, GradCheckConfig};

use common::{classifier_net, conv_net, fc_net, fusion_chain, lstm_net, TestNet};

fn assert_grads(name: &str, t: &TestNet, cfg: &GradCheckConfig) {
    let report = check_gradients(&t.net, &t.inputs, cfg)
        .unwrap_or_else(|e| panic!("{name}: gradient check failed to run: {e}"));
    assert!(
        !report.buffers_checked.is_empty() && report.elements_checked > 0,
        "{name}: no gradients were checked — the test is vacuous"
    );
    assert!(report.is_clean(), "{name}:\n{report}");
}

#[test]
fn fc_gradients_match_finite_differences() {
    assert_grads("fc", &fc_net(), &GradCheckConfig::default());
}

#[test]
fn fc_input_gradients_match_finite_differences() {
    let cfg = GradCheckConfig {
        check_inputs: true,
        ..GradCheckConfig::default()
    };
    let t = fc_net();
    let report = check_gradients(&t.net, &t.inputs, &cfg).unwrap();
    assert!(report.is_clean(), "fc inputs:\n{report}");
    assert!(
        report.buffers_checked.iter().any(|b| b == "data.grad"),
        "input gradient buffer was not checked: {:?}",
        report.buffers_checked
    );
}

#[test]
fn conv_gradients_match_finite_differences() {
    assert_grads("conv", &conv_net(), &GradCheckConfig::default());
}

#[test]
fn fused_chain_gradients_match_finite_differences() {
    // ReLU kinks and max-pool argmax switches make large steps unsafe:
    // keep h small so no unit crosses its kink during perturbation.
    let cfg = GradCheckConfig {
        step: 1e-3,
        ..GradCheckConfig::default()
    };
    assert_grads("fusion-chain", &fusion_chain(), &cfg);
}

#[test]
fn softmax_classifier_gradients_match_finite_differences() {
    let cfg = GradCheckConfig {
        step: 1e-3,
        ..GradCheckConfig::default()
    };
    assert_grads("classifier", &classifier_net(), &cfg);
}

#[test]
fn lstm_gradients_match_finite_differences() {
    assert_grads("lstm", &lstm_net(2), &GradCheckConfig::default());
}
