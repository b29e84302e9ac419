//! Cross-crate integration tests: the Latte stack against the baseline
//! stacks, distributed training against single-worker training, and
//! end-to-end learning.

use latte::baselines::{caffe, spec::LayerSpec};
use latte::core::dsl::Net;
use latte::core::{compile, OptLevel};
use latte::nn::layers::{
    convolution, data, fully_connected, max_pool, relu, softmax_loss, ConvSpec,
};
use latte::nn::models::{lenet, mlp, ModelConfig};
use latte::runtime::data::{synthetic_mnist, MemoryDataSource};
use latte::runtime::dist::{run_ranks, DistTrainer};
use latte::runtime::ring::CommPolicy;
use latte::runtime::solver::{solve, LrPolicy, MomPolicy, Sgd, SolverParams};
use latte::runtime::transport::channel_group;
use latte::runtime::Executor;

fn seeded(len: usize, seed: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
            ((h >> 8) % 1000) as f32 / 500.0 - 1.0
        })
        .collect()
}

/// Latte and the Caffe-style stack compute the same forward values when
/// given identical weights, across their different layouts ((y,x,c) vs
/// (c,y,x)) and execution strategies.
#[test]
fn latte_matches_caffe_stack_with_same_weights() {
    let (h, cin, cout, batch) = (8usize, 2usize, 4usize, 2usize);
    let mut net = Net::new(batch);
    let d = data(&mut net, "data", vec![h, h, cin]);
    let conv = convolution(&mut net, "conv1", d, ConvSpec::same(cout, 3), 1);
    let r = relu(&mut net, "relu1", conv);
    max_pool(&mut net, "pool1", r, 2, 2);
    let compiled = compile(&net, &OptLevel::full()).unwrap();
    let latte_w = compiled
        .param_inits
        .iter()
        .find(|(n, _)| n == "conv1.weights")
        .unwrap()
        .1
        .clone();
    let mut exec = Executor::new(compiled).unwrap();

    let specs = [
        LayerSpec::Conv {
            out_channels: cout,
            kernel: 3,
            stride: 1,
            pad: 1,
        },
        LayerSpec::ReLU,
        LayerSpec::MaxPool {
            kernel: 2,
            stride: 2,
        },
    ];
    let mut base = caffe::build((cin, h, h), batch, &specs, 99);
    // Inject Latte's weights, translating the patch order:
    // Latte rows are (ky, kx, c); Caffe rows are (c, ky, kx).
    {
        let mut params = base.layer_mut(0).params_mut();
        let w = &mut params[0].0;
        for oc in 0..cout {
            for c in 0..cin {
                for ky in 0..3 {
                    for kx in 0..3 {
                        let latte_idx = oc * 9 * cin + (ky * 3 + kx) * cin + c;
                        w[oc * 9 * cin + c * 9 + ky * 3 + kx] = latte_w[latte_idx];
                    }
                }
            }
        }
        params[1].0.fill(0.0);
    }

    // Same logical input in both layouts.
    let logical = |b: usize, c: usize, y: usize, x: usize| {
        seeded(1, (b * 997 + c * 91 + y * 13 + x) as u32)[0]
    };
    let mut in_yxc = vec![0.0f32; batch * h * h * cin];
    let mut in_cyx = vec![0.0f32; batch * h * h * cin];
    for b in 0..batch {
        for c in 0..cin {
            for y in 0..h {
                for x in 0..h {
                    let v = logical(b, c, y, x);
                    in_yxc[((b * h + y) * h + x) * cin + c] = v;
                    in_cyx[((b * cin + c) * h + y) * h + x] = v;
                }
            }
        }
    }
    exec.set_input("data", &in_yxc).unwrap();
    exec.forward();
    base.set_input(&in_cyx);
    base.forward();

    let latte_out = exec.read_buffer("pool1.value").unwrap();
    let caffe_out = &base.output().data;
    let (oh, ow) = (h / 2, h / 2);
    for b in 0..batch {
        for c in 0..cout {
            for y in 0..oh {
                for x in 0..ow {
                    let l = latte_out[((b * oh + y) * ow + x) * cout + c];
                    let cf = caffe_out[((b * cout + c) * oh + y) * ow + x];
                    assert!((l - cf).abs() < 1e-3, "b{b} c{c} y{y} x{x}: {l} vs {cf}");
                }
            }
        }
    }
}

/// Data-parallel gradient summation over shards equals the gradient a
/// single worker computes — the semantic-preservation property the paper
/// cites for gradient summation ("preserves the semantics of optimization
/// algorithms with an increased batch size").
#[test]
fn distributed_gradients_match_single_worker() {
    let classes = 3;
    let width = 6;
    let worker_batch = 2;
    let workers = 2;
    let build = |batch: usize| {
        let cfg = ModelConfig {
            batch,
            input_size: width,
            channel_div: 1,
            classes,
            with_loss: true,
            seed: 9,
        };
        compile(&mlp(&cfg, &[5]).net, &OptLevel::full()).unwrap()
    };
    // Single worker over the full batch of 4.
    let mut single = Executor::new(build(worker_batch * workers)).unwrap();
    let inputs = seeded(worker_batch * workers * width, 11);
    let labels = [0.0f32, 1.0, 2.0, 1.0];
    single.set_input("data", &inputs).unwrap();
    single.set_input("label", &labels).unwrap();
    single.forward();
    single.backward();
    let g_single = single.read_buffer("ip1.g_weights").unwrap();

    // Two ranks over contiguous shards, all-reduced by the real ring.
    // Each rank's softmax loss divides by its own (smaller) batch, so
    // the ring's *mean* of the shard gradients is the full-batch one.
    let merged = run_ranks(channel_group(workers).unwrap(), |rank, ep| {
        let exec = Executor::new(build(worker_batch)).unwrap();
        let mut trainer = DistTrainer::new(exec, Box::new(ep), CommPolicy::default()).unwrap();
        let shard = vec![
            (
                "data".to_string(),
                inputs[rank * worker_batch * width..(rank + 1) * worker_batch * width].to_vec(),
            ),
            (
                "label".to_string(),
                labels[rank * worker_batch..(rank + 1) * worker_batch].to_vec(),
            ),
        ];
        // No update: the merged gradient is what is under test.
        trainer.step(&shard, &mut |_| {}).unwrap();
        trainer.exec().read_buffer("ip1.g_weights").unwrap()
    });
    assert_eq!(
        merged[0], merged[1],
        "both ranks hold the same merged gradient"
    );
    for (m, s) in merged[0].iter().zip(&g_single) {
        assert!((m - s).abs() < 1e-4 * s.abs().max(1.0), "{m} vs {s}");
    }
}

/// `solve` on LeNet over the synthetic MNIST reaches high train accuracy.
#[test]
fn lenet_learns_synthetic_mnist() {
    let cfg = ModelConfig {
        batch: 8,
        input_size: 28,
        channel_div: 8,
        classes: 10,
        with_loss: true,
        seed: 2,
    };
    let model = lenet(&cfg);
    let compiled = compile(&model.net, &OptLevel::full()).unwrap();
    let mut exec = Executor::new(compiled).unwrap();
    let mut source =
        MemoryDataSource::try_new("data", "label", synthetic_mnist(160, 4), 8).unwrap();
    let mut sgd = Sgd::new(SolverParams {
        lr_policy: LrPolicy::Fixed { lr: 0.02 },
        mom_policy: MomPolicy::Fixed { mom: 0.9 },
        regu_coef: 0.0,
        max_epoch: 4,
    });
    let report = solve(&mut sgd, &mut exec, &mut source).unwrap();
    assert!(report.final_loss < report.initial_loss * 0.3, "{report:?}");
}

/// An unrolled LSTM's analytic gradients pass a finite-difference check
/// through time (weight sharing sums gradients across steps).
#[test]
fn lstm_bptt_gradient_check() {
    use latte::nn::rnn::lstm;
    let steps = 3;
    let width = 4;
    let hidden = 3;
    let batch = 2;
    let mut step_net = Net::new(batch);
    let x = step_net.add(latte::core::dsl::Ensemble::data("x", vec![width]));
    lstm(&mut step_net, "lstm", x, hidden, 3);
    let mut net = step_net.unroll(steps);
    let last_h = net.find(&format!("lstm_h@t{}", steps - 1)).unwrap();
    let head = fully_connected(&mut net, "head", last_h, 2, 5);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    let compiled = compile(&net, &OptLevel::full()).unwrap();
    let mut exec = Executor::new(compiled).unwrap();

    for t in 0..steps {
        exec.set_input(&format!("x@t{t}"), &seeded(batch * width, t as u32))
            .unwrap();
    }
    exec.set_input("label", &[0.0, 1.0]).unwrap();
    exec.forward();
    exec.backward();

    // The recurrent gate weights accumulate gradient from every step.
    let param = "lstm_ih@t0.weights";
    let grad_buf = "lstm_ih@t0.g_weights";
    let grads = exec.read_buffer(grad_buf).unwrap();
    let values = exec.read_buffer(param).unwrap();
    let idx = values.len() / 2;
    let eps = 1e-2;
    let mut probe = |delta: f32| -> f32 {
        let mut w = values.clone();
        w[idx] += delta;
        exec.write_buffer(param, &w).unwrap();
        exec.forward();
        exec.loss()
    };
    let lp = probe(eps);
    let lm = probe(-eps);
    probe(0.0);
    let numeric = (lp - lm) / (2.0 * eps);
    assert!(
        (numeric - grads[idx]).abs() < 3e-2 * grads[idx].abs().max(0.2),
        "numeric {numeric} vs analytic {}",
        grads[idx]
    );
}

/// Every model in the zoo compiles and runs a finite forward/backward at
/// every optimization level.
#[test]
fn model_zoo_runs_at_all_opt_levels() {
    let cfg = ModelConfig {
        batch: 2,
        input_size: 32,
        channel_div: 16,
        classes: 10,
        with_loss: true,
        seed: 8,
    };
    let vgg = latte::nn::models::vgg_a(&cfg);
    for opt in [
        OptLevel::none(),
        OptLevel::full().with_fusion(false),
        OptLevel::full(),
    ] {
        let compiled = compile(&vgg.net, &opt).unwrap();
        let mut exec = Executor::new(compiled).unwrap();
        exec.set_input("data", &seeded(2 * 32 * 32 * 3, 6)).unwrap();
        exec.set_input("label", &[1.0, 2.0]).unwrap();
        exec.forward();
        let loss = exec.loss();
        assert!(loss.is_finite() && loss > 0.0, "{opt:?}: loss {loss}");
        exec.backward();
        let g = exec.read_buffer("conv1_1.g_weights").unwrap();
        assert!(g.iter().any(|x| *x != 0.0), "{opt:?}: zero gradients");
    }
}

/// Different optimization levels produce bit-compatible losses (within
/// reassociation tolerance) on the same inputs and weights.
#[test]
fn opt_levels_agree_numerically() {
    let cfg = ModelConfig {
        batch: 2,
        input_size: 16,
        channel_div: 8,
        classes: 5,
        with_loss: true,
        seed: 12,
    };
    let build = || lenet(&cfg);
    let input = seeded(2 * 16 * 16, 3);
    let labels = [1.0, 3.0];
    let mut losses = Vec::new();
    for opt in [
        OptLevel::none(),
        OptLevel::parallel_only(),
        OptLevel::full(),
    ] {
        let compiled = compile(&build().net, &opt).unwrap();
        let mut exec = Executor::new(compiled).unwrap();
        exec.set_input("data", &input).unwrap();
        exec.set_input("label", &labels).unwrap();
        exec.forward();
        losses.push(exec.loss());
    }
    for w in losses.windows(2) {
        assert!((w[0] - w[1]).abs() < 1e-4, "losses diverge: {losses:?}");
    }
}
