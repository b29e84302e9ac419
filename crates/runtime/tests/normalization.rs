//! Normalization-ensemble integration: batch-norm, plain softmax, and
//! LRN running inside compiled networks (not just as raw kernels), with
//! finite-difference checks through the extern backward paths.

use latte_core::dsl::Net;
use latte_core::{compile, OptLevel};
use latte_nn::layers::{batch_norm, data, fully_connected, l2_loss, lrn, softmax};
use latte_runtime::Executor;

fn seeded(len: usize, seed: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
            ((h >> 8) % 1000) as f32 / 400.0 - 1.25
        })
        .collect()
}

#[test]
fn batch_norm_normalizes_per_channel_across_batch() {
    let (batch, c) = (8usize, 3usize);
    let mut net = Net::new(batch);
    let d = data(&mut net, "data", vec![2, 2, c]);
    batch_norm(&mut net, "bn", d, 1e-5);
    let compiled = compile(&net, &OptLevel::full()).unwrap();
    let mut exec = Executor::new(compiled).unwrap();
    exec.set_input("data", &seeded(batch * 4 * c, 5)).unwrap();
    exec.forward();
    let out = exec.read_buffer("bn.value").unwrap();
    // Per channel, across batch and spatial positions: mean ~0, var ~1.
    for ch in 0..c {
        let vals: Vec<f32> = (0..batch * 4).map(|i| out[i * c + ch]).collect();
        let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
        let var: f32 =
            vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
        assert!(mean.abs() < 1e-4, "channel {ch} mean {mean}");
        assert!((var - 1.0).abs() < 1e-2, "channel {ch} var {var}");
    }
}

#[test]
fn batch_norm_backward_passes_finite_difference() {
    let (batch, width) = (4usize, 3usize);
    let mut net = Net::new(batch);
    let d = data(&mut net, "data", vec![1, 1, width]);
    let fc_in = fully_connected(&mut net, "fc0", d, width, 3);
    // Reshape through a 3-channel spatial form for BN.
    let bn_in = {
        use latte_core::dsl::stdlib::identity_neuron;
        use latte_core::dsl::{Ensemble, Mapping};
        let e = net.add(Ensemble::new(
            "as_chw",
            vec![1, 1, width],
            identity_neuron(),
        ));
        net.connect(
            fc_in,
            e,
            Mapping::new(|idx| {
                latte_core::dsl::SourceRegion::new(vec![latte_core::dsl::SourceRange::single(
                    idx[2] as isize,
                )])
            }),
        );
        e
    };
    let bn = batch_norm(&mut net, "bn", bn_in, 1e-3);
    let target = data(&mut net, "target", vec![1, 1, width]);
    l2_loss(&mut net, "loss", bn, target);
    let compiled = compile(&net, &OptLevel::full()).unwrap();
    let mut exec = Executor::new(compiled).unwrap();
    exec.set_input("data", &seeded(batch * width, 2)).unwrap();
    exec.set_input("target", &seeded(batch * width, 9)).unwrap();
    exec.forward();
    exec.backward();
    let grads = exec.read_buffer("fc0.g_weights").unwrap();
    let values = exec.read_buffer("fc0.weights").unwrap();
    for idx in [0, values.len() - 1] {
        let eps = 2e-3;
        let mut probe = |delta: f32| {
            let mut w = values.clone();
            w[idx] += delta;
            exec.write_buffer("fc0.weights", &w).unwrap();
            exec.forward();
            exec.loss()
        };
        let numeric = (probe(eps) - probe(-eps)) / (2.0 * eps);
        probe(0.0);
        assert!(
            (numeric - grads[idx]).abs() < 3e-2 * grads[idx].abs().max(0.2),
            "w[{idx}]: numeric {numeric} vs analytic {}",
            grads[idx]
        );
    }
}

#[test]
fn plain_softmax_rows_are_distributions() {
    let mut net = Net::new(3);
    let d = data(&mut net, "data", vec![5]);
    softmax(&mut net, "sm", d);
    let compiled = compile(&net, &OptLevel::full()).unwrap();
    let mut exec = Executor::new(compiled).unwrap();
    exec.set_input("data", &seeded(15, 8)).unwrap();
    exec.forward();
    let out = exec.read_buffer("sm.value").unwrap();
    for item in 0..3 {
        let row = &out[item * 5..(item + 1) * 5];
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "row sums to {sum}");
        assert!(row.iter().all(|&p| p > 0.0));
    }
}

#[test]
fn lrn_matches_caffe_layer() {
    use latte_baselines::{caffe, spec::LayerSpec};
    let (h, c, batch) = (3usize, 4usize, 2usize);
    let mut net = Net::new(batch);
    let d = data(&mut net, "data", vec![h, h, c]);
    lrn(&mut net, "lrn1", d, 3, 2e-2, 0.75);
    let compiled = compile(&net, &OptLevel::full()).unwrap();
    let mut exec = Executor::new(compiled).unwrap();
    let logical = |b: usize, ch: usize, y: usize, x: usize| {
        seeded(1, (b * 131 + ch * 17 + y * 5 + x) as u32)[0]
    };
    let mut in_yxc = vec![0.0f32; batch * h * h * c];
    let mut in_cyx = vec![0.0f32; batch * h * h * c];
    for b in 0..batch {
        for ch in 0..c {
            for y in 0..h {
                for x in 0..h {
                    let v = logical(b, ch, y, x);
                    in_yxc[((b * h + y) * h + x) * c + ch] = v;
                    in_cyx[((b * c + ch) * h + y) * h + x] = v;
                }
            }
        }
    }
    exec.set_input("data", &in_yxc).unwrap();
    exec.forward();
    let got = exec.read_buffer("lrn1.value").unwrap();

    let mut base = caffe::build(
        (c, h, h),
        batch,
        &[LayerSpec::Lrn {
            size: 3,
            alpha: 2e-2,
            beta: 0.75,
        }],
        0,
    );
    base.set_input(&in_cyx);
    base.forward();
    let expect = &base.output().data;
    for b in 0..batch {
        for ch in 0..c {
            for y in 0..h {
                for x in 0..h {
                    let l = got[((b * h + y) * h + x) * c + ch];
                    let e = expect[((b * c + ch) * h + y) * h + x];
                    assert!((l - e).abs() < 1e-4, "b{b} c{ch} y{y} x{x}: {l} vs {e}");
                }
            }
        }
    }
}

#[test]
fn scale_shift_learns_affine_params() {
    use latte_nn::layers::scale_shift;
    let (batch, c) = (4usize, 2usize);
    let mut net = Net::new(batch);
    let d = data(&mut net, "data", vec![2, 2, c]);
    let s = scale_shift(&mut net, "scale1", d, 0);
    let target = data(&mut net, "target", vec![2, 2, c]);
    l2_loss(&mut net, "loss", s, target);
    let compiled = compile(&net, &OptLevel::full()).unwrap();
    let mut exec = Executor::new(compiled).unwrap();
    // Fit y = 3x - 1 per channel.
    let input = seeded(batch * 4 * c, 3);
    let target_vals: Vec<f32> = input.iter().map(|x| 3.0 * x - 1.0).collect();
    exec.set_input("data", &input).unwrap();
    exec.set_input("target", &target_vals).unwrap();
    for _ in 0..300 {
        exec.forward();
        exec.backward();
        exec.for_each_param_mut(|v, g, lr| {
            for (vi, gi) in v.iter_mut().zip(g) {
                *vi -= 0.05 * lr * gi;
            }
        });
    }
    exec.forward();
    assert!(exec.loss() < 1e-4, "loss {}", exec.loss());
    let gamma = exec.read_buffer("scale1.gamma").unwrap();
    let beta = exec.read_buffer("scale1.beta").unwrap();
    for g in &gamma {
        assert!((g - 3.0).abs() < 0.05, "gamma {g}");
    }
    for b in &beta {
        assert!((b + 1.0).abs() < 0.05, "beta {b}");
    }
}
