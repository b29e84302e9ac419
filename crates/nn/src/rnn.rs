//! Recurrent blocks: the LSTM unit, built from the same ensembles and
//! connections as everything else (the paper's Figure 6), realized by
//! time-unrolling with [`Net::unroll`].

use latte_core::dsl::{EnsembleId, Mapping, Net};

use crate::layers::{eltwise_add, eltwise_mul, fully_connected, sigmoid, tanh};

/// Builds an LSTM unit over `input`, following the paper's Figure 6:
/// the input and the previous output are each split into four gate
/// signals through fully-connected layers; the gates modulate the
/// memory cell via element-wise ensembles; `h` feeds back recurrently.
/// Returns the unit output `h`.
///
/// `net` then contains recurrent edges — call
/// [`Net::unroll`] before compiling.
pub fn lstm(
    net: &mut Net,
    name: &str,
    input: EnsembleId,
    n_outputs: usize,
    seed: u64,
) -> EnsembleId {
    let n = |suffix: &str| format!("{name}_{suffix}");
    // Split the input into the four gate signals.
    let ix = fully_connected(net, &n("ix"), input, n_outputs, seed);
    let cx = fully_connected(net, &n("cx"), input, n_outputs, seed + 1);
    let fx = fully_connected(net, &n("fx"), input, n_outputs, seed + 2);
    let ox = fully_connected(net, &n("ox"), input, n_outputs, seed + 3);

    // Gates: i = σ(ix + ih), f = σ(fx + fh), candidate C~ = tanh(cx + ch),
    // o = σ(ox + oh); the *h parts come from the recurrent connections
    // installed below.
    let ih = fully_connected_placeholder(net, &n("ih"), n_outputs, seed + 4);
    let ch = fully_connected_placeholder(net, &n("ch"), n_outputs, seed + 5);
    let fh = fully_connected_placeholder(net, &n("fh"), n_outputs, seed + 6);
    let oh = fully_connected_placeholder(net, &n("oh"), n_outputs, seed + 7);

    let i_sum = eltwise_add(net, &n("i_sum"), &[ix, ih]);
    let i = sigmoid(net, &n("i"), i_sum);
    let f_sum = eltwise_add(net, &n("f_sum"), &[fx, fh]);
    let f = sigmoid(net, &n("f"), f_sum);
    let c_sum = eltwise_add(net, &n("c_sum"), &[cx, ch]);
    let c_cand = tanh(net, &n("c_cand"), c_sum);
    let o_sum = eltwise_add(net, &n("o_sum"), &[ox, oh]);
    let o = sigmoid(net, &n("o"), o_sum);

    // C = i ⊙ C~ + f ⊙ C_prev.
    let ic = eltwise_mul(net, &n("ic"), i, c_cand);
    let fc_prev = recurrent_identity(net, &n("c_prev"), n_outputs);
    let fcp = eltwise_mul(net, &n("fcp"), f, fc_prev);
    let cell = eltwise_add(net, &n("cell"), &[ic, fcp]);
    net.connect_recurrent(cell, fc_prev, Mapping::one_to_one());

    // h = o ⊙ tanh(C). `tanh` here must NOT run in place: `cell` feeds
    // both the recurrence and this tanh, so the compiler will materialize
    // it (two consumers block in-place execution automatically).
    let tc = tanh(net, &n("tanh_c"), cell);
    let output = eltwise_mul(net, &n("h"), o, tc);

    // Feed h back into the four *h gates recurrently.
    for &gate in &[ih, ch, fh, oh] {
        net.connect_recurrent(output, gate, Mapping::all_to_all(vec![n_outputs]));
    }
    output
}

/// A fully-connected ensemble whose input arrives later through a
/// recurrent connection.
fn fully_connected_placeholder(
    net: &mut Net,
    name: &str,
    n_outputs: usize,
    seed: u64,
) -> EnsembleId {
    use latte_core::dsl::stdlib::weighted_neuron;
    use latte_core::dsl::Ensemble;
    use latte_tensor::{init, Tensor};
    // Weight vector sized by connection 0 (the recurrent h input).
    net.add(
        Ensemble::new(name, vec![n_outputs], weighted_neuron())
            .with_field(
                "weights",
                vec![false],
                init::xavier(vec![n_outputs, n_outputs], n_outputs, seed),
            )
            .with_field("bias", vec![false], Tensor::zeros(vec![n_outputs, 1]))
            .with_param("weights", 1.0)
            .with_param("bias", 2.0),
    )
}

/// An identity ensemble holding the previous time step's value of its
/// recurrent input.
fn recurrent_identity(net: &mut Net, name: &str, n: usize) -> EnsembleId {
    use latte_core::dsl::stdlib::identity_neuron;
    use latte_core::dsl::Ensemble;
    net.add(Ensemble::new(name, vec![n], identity_neuron()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::data;
    use latte_core::{compile, OptLevel};

    #[test]
    fn lstm_unrolls_and_compiles() {
        let mut net = Net::new(2);
        let d = data(&mut net, "x", vec![6]);
        let output = lstm(&mut net, "lstm", d, 4, 0);
        assert_eq!(net.ensemble(output).dims(), &[4]);
        // Recurrent edges prevent direct compilation...
        assert!(compile(&net, &OptLevel::full()).is_err());
        // ...but the unrolled network compiles.
        let unrolled = net.unroll(3);
        let compiled = compile(&unrolled, &OptLevel::full()).unwrap();
        // Time-step clones share parameters with step 0.
        let w1 = compiled.buffer("lstm_ix@t1.weights").unwrap();
        assert_eq!(w1.alias_of.as_deref(), Some("lstm_ix@t0.weights"));
        // Step-0 recurrent inputs read the zero init ensemble.
        assert!(unrolled.find("lstm_h@init").is_some());
    }

    #[test]
    fn unrolled_params_counted_once() {
        let mut net = Net::new(1);
        let d = data(&mut net, "x", vec![4]);
        lstm(&mut net, "lstm", d, 4, 0);
        let unrolled = net.unroll(4);
        let compiled = compile(&unrolled, &OptLevel::full()).unwrap();
        // 9 weighted layers (4 ix/cx/fx/ox + 4 ih/ch/fh/oh + ... each with
        // weights+bias): parameter bindings must not scale with steps.
        let single = compile(&net.unroll(1), &OptLevel::full()).unwrap();
        assert_eq!(compiled.params.len(), single.params.len());
    }
}
