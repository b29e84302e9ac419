//! Grouped convolution through the irregular-mapping (gather) path,
//! checked against per-group dense reference convolutions.

use latte_core::dsl::Net;
use latte_core::{compile, OptLevel};
use latte_nn::layers::{data, grouped_convolution, ConvSpec};
use latte_runtime::Executor;
use latte_tensor::conv::{conv2d_reference, Conv2dParams};

fn seeded(len: usize, seed: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
            ((h >> 8) % 1000) as f32 / 500.0 - 1.0
        })
        .collect()
}

#[test]
fn grouped_conv_matches_per_group_references() {
    let (h, in_c, out_c, groups, batch) = (6usize, 4usize, 6usize, 2usize, 2usize);
    let k = 3;
    let mut net = Net::new(batch);
    let d = data(&mut net, "data", vec![h, h, in_c]);
    grouped_convolution(
        &mut net,
        "gconv",
        d,
        ConvSpec {
            out_channels: out_c,
            kernel: k,
            stride: 1,
            pad: 1,
        },
        groups,
        5,
    );
    let compiled = compile(&net, &OptLevel::full()).unwrap();
    // The irregular connection must have been staged through a gather.
    let printed = compiled.pretty();
    assert!(printed.contains("gather"), "{printed}");
    let wsoa = compiled
        .param_inits
        .iter()
        .find(|(n, _)| n == "gconv.weights")
        .unwrap()
        .1
        .clone();
    let mut exec = Executor::new(compiled).unwrap();

    // Input in both layouts.
    let in_pg = in_c / groups;
    let out_pg = out_c / groups;
    let patch = k * k * in_pg;
    let input_yxc = seeded(batch * h * h * in_c, 3);
    let to_cyx = |item: usize, group: usize| -> Vec<f32> {
        let mut out = vec![0.0f32; in_pg * h * h];
        for c in 0..in_pg {
            for y in 0..h {
                for x in 0..h {
                    out[c * h * h + y * h + x] =
                        input_yxc[((item * h + y) * h + x) * in_c + group * in_pg + c];
                }
            }
        }
        out
    };

    exec.set_input("data", &input_yxc).unwrap();
    exec.forward();
    let got = exec.read_buffer("gconv.value").unwrap();

    let p = Conv2dParams {
        in_channels: in_pg,
        out_channels: out_pg,
        height: h,
        width: h,
        kernel: k,
        stride: 1,
        pad: 1,
    };
    for item in 0..batch {
        for g in 0..groups {
            // Reference weights for this group's output channels, in
            // (oc, c, ky, kx) layout from Latte's (ky, kx, c) patch rows.
            let mut wref = vec![0.0f32; out_pg * patch];
            for oc in 0..out_pg {
                let global_oc = g * out_pg + oc;
                for ky in 0..k {
                    for kx in 0..k {
                        for c in 0..in_pg {
                            wref[oc * patch + c * k * k + ky * k + kx] =
                                wsoa[global_oc * patch + (ky * k + kx) * in_pg + c];
                        }
                    }
                }
            }
            let x = to_cyx(item, g);
            let mut expect = vec![0.0f32; out_pg * h * h];
            conv2d_reference(&p, &x, &wref, &[], &mut expect);
            for oc in 0..out_pg {
                for y in 0..h {
                    for xx in 0..h {
                        let e = expect[oc * h * h + y * h + xx];
                        let got_v = got[((item * h + y) * h + xx) * out_c + g * out_pg + oc];
                        assert!(
                            (got_v - e).abs() < 1e-3,
                            "item {item} group {g} oc {oc} y{y} x{xx}: {got_v} vs {e}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn grouped_conv_gradients_flow() {
    let mut net = Net::new(1);
    let d = data(&mut net, "data", vec![4, 4, 2]);
    let c = grouped_convolution(
        &mut net,
        "gconv",
        d,
        ConvSpec {
            out_channels: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
        },
        2,
        1,
    );
    let target = data(&mut net, "target", vec![4, 4, 4]);
    latte_nn::layers::l2_loss(&mut net, "loss", c, target);
    let compiled = compile(&net, &OptLevel::full()).unwrap();
    let mut exec = Executor::new(compiled).unwrap();
    exec.set_input("data", &seeded(32, 1)).unwrap();
    exec.set_input("target", &vec![0.0; 64]).unwrap();
    exec.forward();
    exec.backward();
    let g = exec.read_buffer("gconv.g_weights").unwrap();
    assert!(g.iter().any(|x| *x != 0.0));
    // Finite-difference check on one weight.
    let values = exec.read_buffer("gconv.weights").unwrap();
    let grads = g;
    let idx = 7;
    let eps = 1e-2;
    let mut probe = |delta: f32| {
        let mut w = values.clone();
        w[idx] += delta;
        exec.write_buffer("gconv.weights", &w).unwrap();
        exec.forward();
        exec.loss()
    };
    let numeric = (probe(eps) - probe(-eps)) / (2.0 * eps);
    probe(0.0);
    assert!(
        (numeric - grads[idx]).abs() < 2e-2 * grads[idx].abs().max(0.5),
        "numeric {numeric} vs analytic {}",
        grads[idx]
    );
}
