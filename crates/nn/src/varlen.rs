//! Variable-length sequence support: power-of-two length bucketing and a
//! masked last-step readout over unrolled recurrent networks.
//!
//! Fixed unrolling compiles one program per exact sequence length — a
//! serving workload with lengths 1..=12 would need twelve programs. With
//! bucketing, lengths round up to the next power of two (1, 2, 4, 8, 16,
//! …), so the whole range shares four programs: `latte-serve`'s
//! `SeqServer` registers one model per bucket and never compiles for an
//! odd length.
//!
//! Correctness under padding relies on two properties:
//!
//! * padded time steps feed **zero** inputs, so steps `len..bucket` only
//!   compute states nobody reads;
//! * the readout is a *mask-select*: each item's one-hot mask over the
//!   bucket's steps picks the hidden state at its true last step,
//!   `readout[i] = Σ_t mask[t] · h_t[i]`. With a one-hot mask the select
//!   reproduces `h_{len-1}` **bit for bit** — multiplying by the mask's
//!   `1.0` is exact and the zero terms vanish in the sum — which is what
//!   lets the bucketed path be differentially tested with `to_bits()`
//!   against a solo fixed-length unroll.

use latte_core::dsl::{Ensemble, EnsembleId, Mapping, Net, NeuronType};

use crate::layers::data;
use crate::rnn::lstm;

/// The power-of-two bucket a sequence length falls into.
///
/// # Panics
///
/// Panics if `len` is zero (there is no empty sequence).
pub fn bucket_len(len: usize) -> usize {
    assert!(len > 0, "sequence length must be non-zero");
    len.next_power_of_two()
}

/// The canonical bucket ladder covering lengths `1..=max_len`.
pub fn bucket_ladder(max_len: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut b = 1;
    while b < bucket_len(max_len.max(1)) {
        out.push(b);
        b *= 2;
    }
    out.push(b);
    out
}

/// A one-hot mask over `bucket` steps selecting step `len - 1`, the
/// per-item readout input for a sequence of true length `len`.
///
/// # Panics
///
/// Panics if `len` is zero or exceeds the bucket.
pub fn last_step_mask(len: usize, bucket: usize) -> Vec<f32> {
    assert!(
        len >= 1 && len <= bucket,
        "length {len} outside bucket {bucket}"
    );
    let mut m = vec![0.0; bucket];
    m[len - 1] = 1.0;
    m
}

/// The mask-select neuron: `value = Σ_t inputs[t] · mask[t]` over
/// `steps` one-to-one step connections plus one whole-mask connection.
fn mask_select_neuron(steps: usize) -> NeuronType {
    assert!(steps >= 1, "mask select needs at least one step");
    NeuronType::builder("MaskSelect")
        .forward(move |b| {
            b.assign(b.value(), b.input(0, 0).mul(b.input(steps, 0)));
            for t in 1..steps {
                b.accumulate(b.value(), b.input(t, 0).mul(b.input(steps, t)));
            }
        })
        .backward(move |b| {
            // d h_t = mask[t] · d out; the mask itself is data (no grad).
            for t in 0..steps {
                b.accumulate(b.grad_input(t, 0), b.grad_expr().mul(b.input(steps, t)));
            }
        })
        .build()
}

/// Adds a masked last-step readout over an unrolled recurrent net:
/// a `"{name}_mask"` data ensemble of `steps` elements (feed a
/// [`last_step_mask`] per item) and a `"{name}"` ensemble computing
/// `Σ_t mask[t] · step_value_t`, where step `t`'s values come from the
/// ensemble named `"{state}@t{t}"`.
///
/// # Panics
///
/// Panics if any unrolled step ensemble `"{state}@t{t}"` is missing.
pub fn seq_readout(
    net: &mut Net,
    name: &str,
    state: &str,
    steps: usize,
    dims: Vec<usize>,
) -> EnsembleId {
    let step_ids: Vec<EnsembleId> = (0..steps)
        .map(|t| {
            net.find(&format!("{state}@t{t}"))
                .unwrap_or_else(|| panic!("unrolled step ensemble `{state}@t{t}` missing"))
        })
        .collect();
    let mask = net.add(Ensemble::data(format!("{name}_mask"), vec![steps]));
    let out = net.add(Ensemble::new(name, dims, mask_select_neuron(steps)));
    for id in step_ids {
        net.connect(id, out, Mapping::one_to_one());
    }
    net.connect(mask, out, Mapping::all_to_all(vec![steps]));
    out
}

/// A bucketed variable-length LSTM: the step ensembles, the mask, and
/// the readout handle.
#[derive(Debug, Clone, Copy)]
pub struct SeqLstm {
    /// Steps the network is unrolled to (the bucket).
    pub bucket: usize,
    /// The masked readout: each item's hidden state at its true last
    /// step. Attach heads/losses here.
    pub readout: EnsembleId,
}

/// Builds an LSTM over variable-length sequences, unrolled to `bucket`
/// steps with a mask-select readout.
///
/// Per item, feed:
///
/// * `"x@t{t}"` — the step inputs, **zero-padded** for `t >= len`;
/// * `"{name}_last_mask"` — [`last_step_mask`]`(len, bucket)`.
///
/// The returned net still needs a head and a loss on
/// [`SeqLstm::readout`]; with the same `seed`, its parameters are
/// bit-identical to a solo fixed unroll of the same unit.
pub fn lstm_seq(
    batch: usize,
    name: &str,
    width: usize,
    hidden: usize,
    bucket: usize,
    seed: u64,
) -> (Net, SeqLstm) {
    assert!(
        bucket >= 1 && bucket.is_power_of_two(),
        "bucket must be a power of two"
    );
    let mut step_net = Net::new(batch);
    let x = data(&mut step_net, "x", vec![width]);
    lstm(&mut step_net, name, x, hidden, seed);
    let mut net = step_net.unroll(bucket);
    let readout = seq_readout(
        &mut net,
        &format!("{name}_last"),
        &format!("{name}_h"),
        bucket,
        vec![hidden],
    );
    (net, SeqLstm { bucket, readout })
}

#[cfg(test)]
mod tests {
    use super::*;
    use latte_core::{compile, OptLevel};

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_len(1), 1);
        assert_eq!(bucket_len(2), 2);
        assert_eq!(bucket_len(3), 4);
        assert_eq!(bucket_len(5), 8);
        assert_eq!(bucket_len(8), 8);
        assert_eq!(bucket_len(12), 16);
        assert_eq!(bucket_ladder(12), vec![1, 2, 4, 8, 16]);
        assert_eq!(bucket_ladder(1), vec![1]);
    }

    #[test]
    fn one_hot_masks() {
        assert_eq!(last_step_mask(1, 4), vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!(last_step_mask(4, 4), vec![0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn seq_lstm_compiles_and_keeps_one_param_set() {
        let (net, s) = lstm_seq(2, "lstm", 3, 4, 4, 7);
        assert_eq!(net.ensemble(s.readout).dims(), &[4]);
        let compiled = compile(&net, &OptLevel::full()).unwrap();
        // Weight sharing across steps: params don't scale with the bucket.
        let (one, _) = lstm_seq(2, "lstm", 3, 4, 1, 7);
        let single = compile(&one, &OptLevel::full()).unwrap();
        assert_eq!(compiled.params.len(), single.params.len());
    }
}
