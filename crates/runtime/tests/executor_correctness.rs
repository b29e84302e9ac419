//! End-to-end executor correctness: Latte-compiled programs must produce
//! the same numbers as direct tensor-library references, at every
//! optimization level, and gradients must pass finite-difference checks.

use latte_core::dsl::Net;
use latte_core::{compile, OptLevel};
use latte_nn::layers::{
    self, convolution, data, fully_connected, max_pool, relu, softmax_loss, ConvSpec,
};
use latte_nn::models::{lenet, mlp, ModelConfig};
use latte_runtime::registry::KernelRegistry;
use latte_runtime::{ExecConfig, Executor};
use latte_tensor::conv::{conv2d_batch_reference, maxpool2d, Conv2dParams};
use latte_tensor::Tensor;

fn seeded(len: usize, seed: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
            ((h >> 8) % 1000) as f32 / 500.0 - 1.0
        })
        .collect()
}

fn all_opt_levels() -> Vec<(&'static str, OptLevel)> {
    vec![
        ("none", OptLevel::none()),
        ("parallel_only", OptLevel::parallel_only()),
        ("pattern", OptLevel::none().with_pattern_match(true)),
        (
            "pattern+tiling",
            OptLevel::none().with_pattern_match(true).with_tiling(true),
        ),
        (
            "pattern+tiling+fusion",
            OptLevel::none()
                .with_pattern_match(true)
                .with_tiling(true)
                .with_fusion(true),
        ),
        (
            "full-no-shared",
            OptLevel::full().with_shared_buffers(false),
        ),
        ("full-no-vectorize", OptLevel::full().with_vectorize(false)),
        ("full", OptLevel::full()),
    ]
}

/// FC forward equals a hand-rolled matrix multiply for every opt level.
#[test]
fn fc_forward_matches_reference() {
    let batch = 3;
    let (n_in, n_out) = (10, 7);
    for (tag, opt) in all_opt_levels() {
        let mut net = Net::new(batch);
        let d = data(&mut net, "data", vec![n_in]);
        fully_connected(&mut net, "fc1", d, n_out, 5);
        let compiled = compile(&net, &opt).unwrap();
        let weights = compiled
            .param_inits
            .iter()
            .find(|(n, _)| n == "fc1.weights")
            .unwrap()
            .1
            .clone();
        let mut exec = Executor::new(compiled).unwrap();
        let input = seeded(batch * n_in, 1);
        exec.set_input("data", &input).unwrap();
        exec.forward();
        let out = exec.read_buffer("fc1.value").unwrap();
        for item in 0..batch {
            for o in 0..n_out {
                let mut expect = 0.0; // zero bias
                for i in 0..n_in {
                    expect += input[item * n_in + i] * weights[o * n_in + i];
                }
                let got = out[item * n_out + o];
                assert!(
                    (got - expect).abs() < 1e-3,
                    "[{tag}] item {item} out {o}: {got} vs {expect}"
                );
            }
        }
    }
}

/// Convolution (+ReLU +pool) forward equals the direct-loop reference for
/// every opt level — this exercises staging copies, dimension dropping,
/// GEMM matching, tiling, and fusion.
#[test]
fn conv_relu_pool_forward_matches_reference() {
    let batch = 2;
    let (h, w, cin, cout) = (8, 8, 3, 4);
    let p = Conv2dParams {
        in_channels: cin,
        out_channels: cout,
        height: h,
        width: w,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    // Reference uses (c, y, x) layout; Latte uses (y, x, c). Build the
    // input in both layouts from the same logical values.
    let logical = |b: usize, c: usize, y: usize, x: usize| -> f32 {
        seeded(1, (b * 1000 + c * 100 + y * 10 + x) as u32)[0]
    };
    let mut input_cyx = Tensor::zeros(vec![batch, cin, h, w]);
    let mut input_yxc = vec![0.0f32; batch * h * w * cin];
    for b in 0..batch {
        for c in 0..cin {
            for y in 0..h {
                for x in 0..w {
                    let v = logical(b, c, y, x);
                    input_cyx[&[b, c, y, x][..]] = v;
                    input_yxc[((b * h + y) * w + x) * cin + c] = v;
                }
            }
        }
    }

    for (tag, opt) in all_opt_levels() {
        let mut net = Net::new(batch);
        let d = data(&mut net, "data", vec![h, w, cin]);
        let conv = convolution(&mut net, "conv1", d, ConvSpec::same(cout, 3), 9);
        let r = relu(&mut net, "relu1", conv);
        max_pool(&mut net, "pool1", r, 2, 2);
        let compiled = compile(&net, &opt).unwrap();

        // Translate Latte's SoA weights [cout, k*k*cin] (patch order
        // (ky, kx, c)) to the reference layout [cout, cin, ky, kx].
        let wsoa = compiled
            .param_inits
            .iter()
            .find(|(n, _)| n == "conv1.weights")
            .unwrap()
            .1
            .clone();
        let mut wref = Tensor::zeros(vec![cout, cin, 3, 3]);
        for oc in 0..cout {
            for ky in 0..3 {
                for kx in 0..3 {
                    for c in 0..cin {
                        let soa_idx = oc * 27 + (ky * 3 + kx) * cin + c;
                        wref[&[oc, c, ky, kx][..]] = wsoa[soa_idx];
                    }
                }
            }
        }

        let mut exec = Executor::new(compiled).unwrap();
        exec.set_input("data", &input_yxc).unwrap();
        exec.forward();

        let expected_conv =
            conv2d_batch_reference(&p, &input_cyx, &wref, &Tensor::zeros(vec![cout]));
        // Compare pooled output.
        let pool_p = Conv2dParams {
            in_channels: cout,
            out_channels: cout,
            height: h,
            width: w,
            kernel: 2,
            stride: 2,
            pad: 0,
        };
        let got_pool = exec.read_buffer("pool1.value").unwrap();
        let (oh, ow) = (h / 2, w / 2);
        for b in 0..batch {
            // relu then pool on the reference, per channel plane.
            let mut relued = vec![0.0f32; cout * h * w];
            for c in 0..cout {
                for y in 0..h {
                    for x in 0..w {
                        relued[c * h * w + y * w + x] = expected_conv.at(&[b, c, y, x]).max(0.0);
                    }
                }
            }
            let mut pooled = vec![0.0f32; cout * oh * ow];
            maxpool2d(&pool_p, &relued, &mut pooled, &mut []);
            for c in 0..cout {
                for y in 0..oh {
                    for x in 0..ow {
                        let expect = pooled[c * oh * ow + y * ow + x];
                        let got = got_pool[b * oh * ow * cout + (y * ow + x) * cout + c];
                        assert!(
                            (got - expect).abs() < 1e-3,
                            "[{tag}] b{b} c{c} y{y} x{x}: {got} vs {expect}"
                        );
                    }
                }
            }
        }
    }
}

/// Finite-difference gradient check through conv + relu + pool + fc +
/// softmax loss, at both extreme opt levels.
#[test]
fn gradients_pass_finite_difference_check() {
    for opt in [OptLevel::none(), OptLevel::full()] {
        let batch = 2;
        let mut net = Net::new(batch);
        let d = data(&mut net, "data", vec![6, 6, 2]);
        let label = data(&mut net, "label", vec![1]);
        let conv = convolution(&mut net, "conv1", d, ConvSpec::same(3, 3), 11);
        let r = relu(&mut net, "relu1", conv);
        let p = max_pool(&mut net, "pool1", r, 2, 2);
        let fc = fully_connected(&mut net, "fc1", p, 4, 12);
        softmax_loss(&mut net, "loss", fc, label);
        let compiled = compile(&net, &opt).unwrap();
        let mut exec = Executor::new(compiled).unwrap();

        let input = seeded(batch * 72, 21);
        exec.set_input("data", &input).unwrap();
        exec.set_input("label", &[1.0, 3.0]).unwrap();

        exec.forward();
        exec.backward();

        // Check a few weights of each parameter against central
        // differences of the mean loss (softmax_loss divides by batch, so
        // the summed per-item losses / batch is the differentiated value).
        for (param, grad_buf) in [
            ("conv1.weights", "conv1.g_weights"),
            ("fc1.weights", "fc1.g_weights"),
            ("fc1.bias", "fc1.g_bias"),
        ] {
            let grads = exec.read_buffer(grad_buf).unwrap();
            let values = exec.read_buffer(param).unwrap();
            let probe = [0, values.len() / 2, values.len() - 1];
            for &idx in &probe {
                let eps = 2e-3;
                let mut plus = values.clone();
                plus[idx] += eps;
                exec.write_buffer(param, &plus).unwrap();
                exec.forward();
                let lp = exec.loss();
                let mut minus = values.clone();
                minus[idx] -= eps;
                exec.write_buffer(param, &minus).unwrap();
                exec.forward();
                let lm = exec.loss();
                exec.write_buffer(param, &values).unwrap();
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grads[idx];
                assert!(
                    (numeric - analytic).abs() < 2e-2 * analytic.abs().max(0.3),
                    "{param}[{idx}]: numeric {numeric} vs analytic {analytic} ({opt:?})"
                );
            }
        }
    }
}

/// Training the Figure-7 MLP with plain SGD decreases the loss.
#[test]
fn mlp_training_decreases_loss() {
    let cfg = ModelConfig {
        batch: 8,
        input_size: 12,
        channel_div: 1,
        classes: 3,
        with_loss: true,
        seed: 3,
    };
    let model = mlp(&cfg, &[16]);
    let compiled = compile(&model.net, &OptLevel::full()).unwrap();
    let mut exec = Executor::new(compiled).unwrap();

    // Deterministic, linearly-separable-ish synthetic task.
    let mut inputs = vec![0.0f32; 8 * 12];
    let mut labels = vec![0.0f32; 8];
    for item in 0..8 {
        let class = item % 3;
        labels[item] = class as f32;
        for j in 0..12 {
            inputs[item * 12 + j] = if j % 3 == class { 1.0 } else { 0.1 }
                + seeded(1, (item * 12 + j) as u32)[0] * 0.05;
        }
    }
    exec.set_input("data", &inputs).unwrap();
    exec.set_input("label", &labels).unwrap();
    exec.forward();
    let initial = exec.loss();
    for _ in 0..60 {
        exec.forward();
        exec.backward();
        exec.for_each_param_mut(|v, g, lr_mult| {
            for (vi, gi) in v.iter_mut().zip(g) {
                *vi -= 0.1 * lr_mult * gi;
            }
        });
    }
    exec.forward();
    let trained = exec.loss();
    assert!(
        trained < initial * 0.5,
        "loss {initial} -> {trained}: no learning"
    );
}

/// Parallel batch execution (2 threads) produces the same activations and
/// parameter gradients as sequential execution.
#[test]
fn parallel_execution_matches_sequential() {
    let cfg = ModelConfig {
        batch: 4,
        input_size: 12,
        channel_div: 8,
        classes: 4,
        with_loss: true,
        seed: 5,
    };
    let build = || {
        let m = lenet(&cfg);
        compile(&m.net, &OptLevel::full()).unwrap()
    };
    let registry = KernelRegistry::with_builtins();
    let mut seq = Executor::with_registry(
        build(),
        &registry,
        ExecConfig {
            threads: 1,
            ..ExecConfig::default()
        },
    )
    .unwrap();
    let mut par = Executor::with_registry(
        build(),
        &registry,
        ExecConfig {
            threads: 2,
            ..ExecConfig::default()
        },
    )
    .unwrap();

    let input = seeded(4 * 12 * 12, 77);
    let labels = [0.0f32, 1.0, 2.0, 3.0];
    for exec in [&mut seq, &mut par] {
        exec.set_input("data", &input).unwrap();
        exec.set_input("label", &labels).unwrap();
        exec.forward();
        exec.backward();
    }
    assert!((seq.loss() - par.loss()).abs() < 1e-5);
    for buf in ["conv1.g_weights", "ip2.g_weights", "ip1.g_bias"] {
        let a = seq.read_buffer(buf).unwrap();
        let b = par.read_buffer(buf).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-4, "{buf}: {x} vs {y}");
        }
    }
}

/// Irregular (non-affine) mappings execute through the gather table and
/// reproduce the permutation in both directions.
#[test]
fn irregular_permutation_roundtrips() {
    use latte_core::dsl::stdlib::identity_neuron;
    use latte_core::dsl::{Ensemble, Mapping, SourceRange, SourceRegion};
    let n = 8;
    let perm = move |i: usize| (i * 3 + i * i) % n;
    let mut net = Net::new(2);
    let d = data(&mut net, "data", vec![n]);
    let shuf = net.add(Ensemble::new("shuffle", vec![n], identity_neuron()));
    net.connect(
        d,
        shuf,
        Mapping::new(move |idx| {
            SourceRegion::new(vec![SourceRange::single(perm(idx[0]) as isize)])
        }),
    );
    layers::l2_loss(&mut net, "loss", shuf, d);
    let compiled = compile(&net, &OptLevel::full()).unwrap();
    let mut exec = Executor::new(compiled).unwrap();
    let input: Vec<f32> = (0..2 * n).map(|i| i as f32).collect();
    exec.set_input("data", &input).unwrap();
    exec.forward();
    let out = exec.read_buffer("shuffle.value").unwrap();
    for item in 0..2 {
        for i in 0..n {
            assert_eq!(out[item * n + i], input[item * n + perm(i)]);
        }
    }
}

/// The shared-buffer optimization reduces allocation (paper Section 5.2's
/// memory claim) without changing results.
#[test]
fn shared_buffers_reduce_memory() {
    let build = |shared: bool| {
        let mut net = Net::new(2);
        let d = data(&mut net, "data", vec![8, 8, 3]);
        convolution(&mut net, "conv1", d, ConvSpec::same(8, 3), 3);
        compile(&net, &OptLevel::full().with_shared_buffers(shared)).unwrap()
    };
    let with = Executor::new(build(true)).unwrap();
    let without = Executor::new(build(false)).unwrap();
    assert!(
        with.allocated_elements() < without.allocated_elements(),
        "{} !< {}",
        with.allocated_elements(),
        without.allocated_elements()
    );
}

/// A neuron body with more loads than any fixed-size table anticipates
/// (the pre-strip interpreter sized its offset table for 12 and, in
/// release, indexed past it): a degree-13 polynomial with one scalar
/// coefficient field per term — 14 field loads plus the input. It must
/// lower, match a direct evaluation, and train.
#[test]
fn a_neuron_with_fifteen_loads_runs_and_trains() {
    use latte_core::dsl::{Ensemble, FieldLen, Mapping, NeuronType};

    const TERMS: usize = 14;
    let coef =
        |k: usize| 0.5 / ((k + 1) * (k + 1)) as f32 * if k.is_multiple_of(2) { 1.0 } else { -1.0 };
    let mut builder = NeuronType::builder("Poly13");
    for k in 0..TERMS {
        builder = builder.field(format!("c{k}"), FieldLen::Scalar);
    }
    let poly = builder
        .forward(|b| {
            // Σ c_k · x^k, spelled out term by term (no Horner): every
            // term loads its own coefficient and `x` again.
            let x = b.input(0, 0);
            let mut sum = b.field("c0", 0);
            let mut power = x.clone();
            for k in 1..TERMS {
                sum = sum.add(b.field(&format!("c{k}"), 0).mul(power.clone()));
                power = power.mul(x.clone());
            }
            b.assign(b.value(), sum);
        })
        .backward(|b| {
            // Σ k · c_k · x^(k-1)
            let x = b.input(0, 0);
            let mut deriv = b.field("c1", 0);
            let mut power = x.clone();
            for k in 2..TERMS {
                let term = b.field(&format!("c{k}"), 0).mul(power.clone());
                deriv = deriv.add(b.lit(k as f32).mul(term));
                power = power.mul(x.clone());
            }
            b.accumulate(b.grad_input(0, 0), b.grad_expr().mul(deriv));
        })
        .build();

    let (batch, width) = (4, 6);
    for (tag, opt) in [("none", OptLevel::none()), ("full", OptLevel::full())] {
        let mut net = Net::new(batch);
        let d = data(&mut net, "data", vec![width]);
        let fc1 = fully_connected(&mut net, "fc1", d, width, 3);
        let mut ens = Ensemble::new("poly", vec![width], poly.clone());
        for k in 0..TERMS {
            ens = ens.with_field(
                format!("c{k}"),
                vec![false],
                Tensor::full(vec![width, 1], coef(k)),
            );
        }
        let p = net.add(ens);
        net.connect(fc1, p, Mapping::one_to_one());
        let fc2 = fully_connected(&mut net, "fc2", p, width, 4);
        let target = data(&mut net, "target", vec![width]);
        layers::l2_loss(&mut net, "loss", fc2, target);

        let mut exec = Executor::new(compile(&net, &opt).unwrap()).unwrap();
        let input = seeded(batch * width, 9);
        exec.set_input("data", &input).unwrap();
        exec.set_input("target", &input).unwrap();
        exec.forward();
        let x = exec.read_buffer("fc1.value").unwrap();
        let y = exec.read_buffer("poly.value").unwrap();
        for (i, (x, y)) in x.iter().zip(&y).enumerate() {
            let want: f32 = (0..TERMS).map(|k| coef(k) * x.powi(k as i32)).sum();
            assert!(
                (y - want).abs() < 1e-4,
                "[{tag}] element {i}: {y} vs {want}"
            );
        }
        let before = exec.loss();
        for _ in 0..10 {
            exec.forward();
            exec.backward();
            exec.for_each_param_mut(|v, g, lr_mult| {
                for (vi, gi) in v.iter_mut().zip(g) {
                    *vi -= 0.01 * lr_mult * gi;
                }
            });
        }
        exec.forward();
        let after = exec.loss();
        assert!(after < before, "[{tag}] loss {before} -> {after}");
    }
}

/// A gather table is compiled straight into raw-pointer runs, so an
/// entry outside the source, an entry below the `-1` padding marker, or
/// a table longer than its destination must be refused at lowering —
/// `latte_ir::verify` does not run in release builds, and nothing on the
/// execution path checks an index.
#[test]
fn a_gather_table_that_leaves_its_buffers_is_refused_at_lowering() {
    use latte_core::dsl::stdlib::identity_neuron;
    use latte_core::dsl::{Ensemble, Mapping, SourceRange, SourceRegion};
    use latte_ir::Stmt;
    use latte_runtime::RuntimeError;
    let n = 8;
    let mut net = Net::new(2);
    let d = data(&mut net, "data", vec![n]);
    let shuf = net.add(Ensemble::new("shuffle", vec![n], identity_neuron()));
    net.connect(
        d,
        shuf,
        Mapping::new(move |idx| {
            SourceRegion::new(vec![SourceRange::single(
                ((idx[0] * 3 + idx[0] * idx[0]) % n) as isize,
            )])
        }),
    );
    layers::l2_loss(&mut net, "loss", shuf, d);
    let compiled = compile(&net, &OptLevel::full()).unwrap();
    let tables = |c: &latte_core::CompiledNet| {
        let mut found = 0;
        for g in c.forward.iter().chain(&c.backward) {
            for s in &g.stmts {
                s.visit(&mut |s| found += usize::from(matches!(s, Stmt::Gather(_))));
            }
        }
        found
    };
    assert!(
        tables(&compiled) > 0,
        "the permutation lowers to a gather table"
    );
    Executor::new(compiled.clone()).expect("the compiler's own table is fine");

    type Edit = fn(&mut Vec<i64>);
    let edits: [(&str, Edit); 3] = [
        ("an entry past the source", |t| t[3] = 8),
        ("an entry below -1", |t| t[3] = -2),
        ("a table longer than its destination", |t| t.push(0)),
    ];
    for (what, edit) in edits {
        let mut bad = compiled.clone();
        for g in bad.forward.iter_mut().chain(&mut bad.backward) {
            for s in &mut g.stmts {
                if let Stmt::Gather(g) = s {
                    let mut table = g.table.to_vec();
                    edit(&mut table);
                    g.table = std::sync::Arc::new(table);
                }
            }
        }
        match Executor::new(bad) {
            Err(RuntimeError::Malformed { .. }) => {}
            Err(other) => panic!("{what}: refused, but with {other}"),
            Ok(_) => panic!("{what}: lowered"),
        }
    }
}

/// Every backward pass starts from zeroed gradients — activation,
/// staged-input and parameter — and zeroes nothing else: gradients
/// poisoned between two steps over the same batch leave no trace in the
/// next step, and every other buffer keeps its bits. Every declared
/// buffer is readable by name.
#[test]
fn backward_zeroes_every_gradient_and_only_gradients() {
    let cfg = ModelConfig {
        batch: 2,
        input_size: 28,
        ..ModelConfig::default()
    };
    let compiled = compile(&lenet(&cfg).net, &OptLevel::full()).unwrap();
    let mut exec = Executor::new(compiled).unwrap();
    exec.set_input("data", &seeded(2 * 28 * 28, 3)).unwrap();
    exec.set_input("label", &[1.0, 4.0]).unwrap();
    exec.forward();
    exec.backward();
    let decls = exec.compiled().buffers.clone();
    let snapshot = |exec: &Executor| -> Vec<Vec<u32>> {
        let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect();
        decls
            .iter()
            .map(|d| bits(exec.read_buffer(&d.name).unwrap()))
            .collect()
    };
    let clean = snapshot(&exec);
    let grads: Vec<_> = decls.iter().filter(|d| d.kind.is_grad()).collect();
    assert!(!grads.is_empty());
    for d in grads {
        let len = exec.read_buffer(&d.name).unwrap().len();
        exec.write_buffer(&d.name, &vec![7.0; len]).unwrap();
    }
    exec.forward();
    exec.backward();
    for (d, (a, b)) in decls.iter().zip(clean.iter().zip(snapshot(&exec))) {
        assert_eq!(a, &b, "`{}` differs after a poisoned step", d.name);
    }
}

/// The liveness arena is retired; its flag survives one PR for the
/// benchmark's literals and is refused, not ignored, wherever a program
/// is lowered.
#[test]
fn lowering_refuses_the_retired_arena_flag() {
    use latte_runtime::{CompiledProgram, RuntimeError};
    let cfg = ModelConfig {
        batch: 2,
        input_size: 28,
        ..ModelConfig::default()
    };
    let compiled = compile(&lenet(&cfg).net, &OptLevel::full()).unwrap();
    let arena = true;
    let cfg = ExecConfig {
        threads: 1,
        arena,
        gemm_blocking: None,
    };
    let registry = KernelRegistry::with_builtins();
    assert!(matches!(
        CompiledProgram::lower(compiled.clone(), &registry, cfg),
        Err(RuntimeError::InvalidConfig { .. })
    ));
    assert!(matches!(
        Executor::with_registry(compiled, &registry, cfg),
        Err(RuntimeError::InvalidConfig { .. })
    ));
}

/// The schedule autotuner that set a GEMM blocking is retired; the field
/// survives for the benchmark's literals and is refused, not ignored,
/// where an executor builds its pool.
#[test]
fn a_gemm_blocking_is_refused() {
    use latte_runtime::RuntimeError;
    let cfg = ModelConfig {
        batch: 2,
        input_size: 28,
        ..ModelConfig::default()
    };
    let compiled = compile(&lenet(&cfg).net, &OptLevel::full()).unwrap();
    let blocking = Some((256, 256, 32));
    let cfg = ExecConfig {
        threads: 1,
        arena: false,
        gemm_blocking: blocking,
    };
    assert!(matches!(
        Executor::with_registry(compiled, &KernelRegistry::with_builtins(), cfg),
        Err(RuntimeError::InvalidConfig { .. })
    ));
}

/// Every data-copy of every zoo model lowers to precompiled run lists:
/// the bound past which a copy generates its list on every call
/// (DESIGN.md §10.2) sits above all of them, untiled, tiled, and at the
/// two explicit tile sizes. EXPERIMENTS.md has the same census at the
/// published input sizes.
#[test]
fn every_zoo_transfer_is_precompiled() {
    use latte_nn::models::{alexnet, overfeat, vgg_a, vgg_prefix};
    use latte_runtime::CompiledProgram;
    let cfg = |input_size, channel_div| ModelConfig {
        batch: 2,
        input_size,
        channel_div,
        classes: 10,
        with_loss: true,
        seed: 5,
    };
    let nets = [
        ("lenet", lenet(&cfg(28, 4)).net),
        ("alexnet", alexnet(&cfg(67, 16)).net),
        ("vgg_a", vgg_a(&cfg(32, 16)).net),
        ("vgg_prefix2", vgg_prefix(&cfg(32, 4), 2).net),
        ("overfeat", overfeat(&cfg(71, 16)).net),
    ];
    let configs = [
        ("none", OptLevel::none()),
        ("full", OptLevel::full()),
        ("tile 4", OptLevel::full().with_tile_size(4)),
        ("tile 1", OptLevel::full().with_tile_size(1)),
    ];
    for (name, net) in &nets {
        for (config, opt) in &configs {
            let compiled = compile(net, opt).unwrap();
            let exec = ExecConfig {
                threads: 1,
                ..ExecConfig::default()
            };
            let program =
                CompiledProgram::lower(compiled, &KernelRegistry::with_builtins(), exec).unwrap();
            let plan = program.plan().to_string();
            let transfers = plan.lines().filter(|l| l.contains(" program(s), ")).count();
            assert!(transfers > 0, "{name} at {config} stages nothing");
            assert!(!plan.contains(": per call"), "{name} at {config}:\n{plan}");
        }
    }
}
