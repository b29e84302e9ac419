//! A small zoo of demo models.
//!
//! These mirror the oracle harness's five-net suite as *factories* over
//! the batch size. A served [`Model`] calls its factory once, at batch 1;
//! the tests below call it at every size to prove that one compile is
//! all of them. They exist so the network front-end has something real
//! to serve out of the box: the `latte-served` binary and the
//! integration tests both register models from here, and the in-process
//! test suite compares served samples bit-for-bit against a plain
//! batch-1 executor of the same factory.

use latte_core::dsl::Net;
use latte_core::OptLevel;
use latte_nn::layers::{
    convolution, data, fully_connected, max_pool, relu, sigmoid, softmax_loss, tanh, ConvSpec,
};
use latte_nn::rnn::lstm;
use latte_nn::varlen::lstm_seq;
use std::sync::Arc;

use crate::loadgen::splitmix64;
use crate::model::{Model, NetFactory};
use crate::seq::{SeqModel, SeqRequest};
use crate::server::Request;

/// Time steps the demo LSTM is unrolled for.
pub const LSTM_STEPS: usize = 2;

/// The five demo nets, by name.
pub const NETS: [&str; 5] = ["fc", "conv", "fusion", "classifier", "lstm"];

fn fc_factory(batch: usize) -> Net {
    let mut net = Net::new(batch);
    let x = data(&mut net, "data", vec![5]);
    let fc1 = fully_connected(&mut net, "fc1", x, 8, 7);
    let a1 = tanh(&mut net, "a1", fc1);
    let fc2 = fully_connected(&mut net, "fc2", a1, 6, 8);
    let a2 = sigmoid(&mut net, "a2", fc2);
    let head = fully_connected(&mut net, "head", a2, 4, 9);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    net
}

fn conv_factory(batch: usize) -> Net {
    let mut net = Net::new(batch);
    let x = data(&mut net, "data", vec![5, 5, 2]);
    let conv = convolution(&mut net, "conv", x, ConvSpec::same(3, 3), 11);
    let head = fully_connected(&mut net, "head", conv, 3, 12);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    net
}

fn fusion_factory(batch: usize) -> Net {
    let mut net = Net::new(batch);
    let x = data(&mut net, "data", vec![6, 6, 1]);
    let conv = convolution(&mut net, "conv", x, ConvSpec::same(2, 3), 13);
    let act = relu(&mut net, "act", conv);
    let pool = max_pool(&mut net, "pool", act, 2, 2);
    let head = fully_connected(&mut net, "head", pool, 3, 14);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    net
}

fn classifier_factory(batch: usize) -> Net {
    let mut net = Net::new(batch);
    let x = data(&mut net, "data", vec![7]);
    let fc1 = fully_connected(&mut net, "fc1", x, 10, 15);
    let a1 = relu(&mut net, "a1", fc1);
    let fc2 = fully_connected(&mut net, "fc2", a1, 8, 16);
    let a2 = sigmoid(&mut net, "a2", fc2);
    let head = fully_connected(&mut net, "head", a2, 5, 17);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    net
}

fn lstm_factory(batch: usize) -> Net {
    let mut step_net = Net::new(batch);
    let x = data(&mut step_net, "x", vec![3]);
    lstm(&mut step_net, "lstm", x, 4, 19);
    let mut net = step_net.unroll(LSTM_STEPS);
    let final_h = net
        .find(&format!("lstm_h@t{}", LSTM_STEPS - 1))
        .expect("unrolled LSTM output missing");
    let head = fully_connected(&mut net, "head", final_h, 3, 20);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    net
}

/// The batch-parametric factory for a named demo net.
///
/// # Panics
///
/// On a name outside [`NETS`].
pub fn factory(name: &str) -> NetFactory {
    match name {
        "fc" => Box::new(fc_factory),
        "conv" => Box::new(conv_factory),
        "fusion" => Box::new(fusion_factory),
        "classifier" => Box::new(classifier_factory),
        "lstm" => Box::new(lstm_factory),
        other => panic!("unknown demo net `{other}`"),
    }
}

/// Per-item `(ensemble, len)` input signature of a named demo net.
///
/// # Panics
///
/// On a name outside [`NETS`].
pub fn input_signature(name: &str) -> Vec<(String, usize)> {
    let mut sig = match name {
        "fc" => vec![("data".to_string(), 5)],
        "conv" => vec![("data".to_string(), 50)],
        "fusion" => vec![("data".to_string(), 36)],
        "classifier" => vec![("data".to_string(), 7)],
        "lstm" => {
            // The unrolled LSTM also exposes its zero-filled initial
            // recurrent states as data ensembles.
            let mut sig: Vec<(String, usize)> =
                (0..LSTM_STEPS).map(|t| (format!("x@t{t}"), 3)).collect();
            sig.push(("lstm_h@init".to_string(), 4));
            sig.push(("lstm_cell@init".to_string(), 4));
            sig
        }
        other => panic!("unknown demo net `{other}`"),
    };
    sig.push(("label".to_string(), 1));
    sig
}

/// Output classes of a named demo net's head.
///
/// # Panics
///
/// On a name outside [`NETS`].
pub fn classes(name: &str) -> usize {
    match name {
        "fc" => 4,
        "conv" | "fusion" | "lstm" => 3,
        "classifier" => 5,
        other => panic!("unknown demo net `{other}`"),
    }
}

/// Registers the named demo net as a served [`Model`] (full
/// optimization, `head.value` output).
///
/// # Errors
///
/// [`crate::ServeError::Compile`] if the compile fails — it never
/// does for the nets in [`NETS`].
pub fn model(name: &str) -> Result<Model, crate::ServeError> {
    Model::new(
        name,
        factory(name),
        OptLevel::full(),
        vec!["head.value".to_string()],
    )
}

/// Per-step input width of the demo sequence LSTM.
pub const SEQ_WIDTH: usize = 3;

fn seq_factory(batch: usize, bucket: usize) -> Net {
    let (mut net, seq) = lstm_seq(batch, "lstm", SEQ_WIDTH, 4, bucket, 19);
    let head = fully_connected(&mut net, "head", seq.readout, 3, 20);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    net
}

/// The demo variable-length LSTM as a bucket-ladder [`SeqModel`]
/// covering lengths `1..=max_len`: the same LSTM unit and head seeds as
/// the fixed `"lstm"` demo net, unrolled per bucket with the mask-select
/// readout from `latte_nn::varlen`.
///
/// # Errors
///
/// [`crate::ServeError::Compile`] if any bucket's compile fails —
/// it never does for this factory.
pub fn seq_model(max_len: usize) -> Result<SeqModel, crate::ServeError> {
    SeqModel::new(
        "lstm-seq",
        Arc::new(seq_factory),
        OptLevel::full(),
        max_len,
        "x",
        "lstm_last_mask",
        vec!["head.value".to_string()],
    )
}

/// One deterministic variable-length request of `len` true steps for
/// [`seq_model`], fully determined by `(len, seed)`.
///
/// # Panics
///
/// On `len == 0`.
pub fn seq_sample(len: usize, seed: u64) -> SeqRequest {
    assert!(len > 0, "a sequence sample needs at least one step");
    let mut state = seed ^ 0x6c61_7474_655f_7371; // "latte_sq"
    let steps = (0..len)
        .map(|_| {
            (0..SEQ_WIDTH)
                .map(|_| {
                    let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                    (2.0 * u - 1.0) as f32
                })
                .collect()
        })
        .collect();
    let label = vec![(splitmix64(&mut state) as usize % 3) as f32];
    SeqRequest {
        steps,
        extra: vec![("label".to_string(), label)],
    }
}

/// One deterministic single-sample request for the named demo net,
/// fully determined by `(name, seed)` — no external RNG, so binaries
/// and tests produce identical request streams run to run.
///
/// # Panics
///
/// On a name outside [`NETS`].
pub fn sample(name: &str, seed: u64) -> Request {
    let mut state = seed ^ 0x6c61_7474_655f_7a6f; // "latte_zo"
    let inputs = input_signature(name)
        .into_iter()
        .map(|(ensemble, len)| {
            let values: Vec<f32> = if ensemble == "label" {
                vec![(splitmix64(&mut state) as usize % classes(name)) as f32]
            } else if ensemble.ends_with("@init") {
                // Zero initial recurrent state, matching the paper's
                // unrolling semantics.
                vec![0.0; len]
            } else {
                (0..len)
                    .map(|_| {
                        // A uniform draw in (-1, 1).
                        let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                        (2.0 * u - 1.0) as f32
                    })
                    .collect()
            };
            (ensemble, values)
        })
        .collect();
    Request { inputs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latte_core::{compile, CompiledNet};
    use latte_nn::models::{lenet, vgg_prefix, ModelConfig};
    use latte_nn::varlen::bucket_ladder;

    /// Two compiles are one program: everything but the wall-clock pass
    /// timings in `stats`, field by field and bit by bit.
    fn assert_same_program(a: &CompiledNet, b: &CompiledNet, what: &str) {
        assert_eq!(a.batch, b.batch, "{what}: batch");
        assert_eq!(a.buffers, b.buffers, "{what}: buffers");
        assert_eq!(a.params, b.params, "{what}: params");
        assert_eq!(a.inputs, b.inputs, "{what}: inputs");
        assert_eq!(a.losses, b.losses, "{what}: losses");
        assert_eq!(a.vectorize, b.vectorize, "{what}: vectorize");
        let bits = |c: &CompiledNet| -> Vec<(String, Vec<u32>)> {
            let of = |(name, init): &(String, Vec<f32>)| {
                (name.clone(), init.iter().map(|v| v.to_bits()).collect())
            };
            c.param_inits.iter().map(of).collect()
        };
        assert_eq!(bits(a), bits(b), "{what}: param_inits");
        assert_eq!(a.pretty(), b.pretty(), "{what}: program");
    }

    /// The build-time proof behind "a model is compiled once": for every
    /// net this crate or the repo benchmark serves, compiling the net
    /// built at batch `n` is compiling it at batch 1 and replacing the
    /// batch — so `PlanCache` need never call a factory again.
    #[test]
    fn one_compile_is_every_batch_size() {
        fn check(what: &str, opt: &OptLevel, factory: &dyn Fn(usize) -> Net) {
            let once = compile(&factory(1), opt).expect("batch-1 compile");
            for n in 1..=8 {
                let fresh = compile(&factory(n), opt).expect("batch-n compile");
                assert_same_program(&fresh, &once.at_batch(n), &format!("{what} @ batch {n}"));
            }
        }
        for opt in [OptLevel::full(), OptLevel::none()] {
            for name in NETS {
                check(name, &opt, &*factory(name));
            }
            for bucket in bucket_ladder(8) {
                check(&format!("lstm-seq@l{bucket}"), &opt, &|n| seq_factory(n, bucket));
            }
            let cfg = |batch| ModelConfig { batch, ..ModelConfig::default() };
            check("lenet", &opt, &|n| lenet(&cfg(n)).net);
            check("vgg_prefix", &opt, &|n| vgg_prefix(&cfg(n), 2).net);
        }
    }

    /// A net's identity is its program and its initial weights, not how
    /// `CompiledNet` holds them: the fingerprints of every served net,
    /// pinned as literals. A change here re-keys every plan cache and
    /// every ring rendezvous, so it must be deliberate.
    #[test]
    fn fingerprints_are_pinned() {
        let lenet_net = lenet(&ModelConfig { batch: 1, ..ModelConfig::default() }).net;
        let mut nets: Vec<(&str, Net)> = NETS.iter().map(|&name| (name, factory(name)(1))).collect();
        nets.push(("lenet", lenet_net));
        let got: Vec<(&str, u64)> = nets
            .iter()
            .map(|(name, net)| (*name, compile(net, &OptLevel::full()).expect("compiles").fingerprint()))
            .collect();
        let pinned = [
            ("fc", 0x7ef6_e026_e8ec_a9ec),
            ("conv", 0x36b8_5088_d41d_689d),
            ("fusion", 0x71ed_f505_b565_1e96),
            ("classifier", 0xa655_1508_d1d5_9385),
            ("lstm", 0xffc1_0b9e_9fc1_be78),
            ("lenet", 0xd55e_09dc_5f24_4145),
        ];
        assert_eq!(got, pinned);
    }

    /// The `dynshape` ladder (buckets 1, 2, 4, 8 × micro-batches 1..=4):
    /// sixteen plans lowered from four compiles.
    #[test]
    fn a_ladder_calls_its_factory_once_per_bucket() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let ladder = SeqModel::new(
            "counted",
            Arc::new(move |batch, bucket| {
                seen.fetch_add(1, Ordering::SeqCst);
                seq_factory(batch, bucket)
            }),
            OptLevel::full(),
            8,
            "x",
            "lstm_last_mask",
            vec!["head.value".to_string()],
        )
        .expect("ladder registers");
        let cache = crate::PlanCache::new(latte_runtime::ExecConfig::default());
        for index in 0..ladder.buckets().len() {
            for batch in 1..=4 {
                assert!(!cache.get(ladder.model(index), batch).expect("plan lowers").1);
            }
        }
        assert_eq!(calls.load(Ordering::SeqCst), 4);
        assert_eq!(cache.misses(), 16);
    }

    #[test]
    fn every_zoo_model_registers_and_matches_its_signature() {
        for name in NETS {
            let m = model(name).expect("zoo model registers");
            // Request validation is order-insensitive, so compare the
            // signatures as sets.
            let mut probed = m.inputs().to_vec();
            let mut listed = input_signature(name);
            probed.sort();
            listed.sort();
            assert_eq!(probed, listed, "{name}");
            let req = sample(name, 7);
            m.validate(&req.inputs).expect("zoo sample validates");
        }
    }

    #[test]
    fn samples_are_deterministic_in_the_seed() {
        for name in NETS {
            assert_eq!(sample(name, 3), sample(name, 3), "{name}");
            assert_ne!(
                sample(name, 3),
                sample(name, 4),
                "{name} sample ignores its seed"
            );
        }
    }
}
